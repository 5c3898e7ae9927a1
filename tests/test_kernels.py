"""Tests for kernel specs, factors, matrices, and positive semidefiniteness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_oracle import dense_kernel, kernel_entry, validate_psd

import beyondnyq
from beyondnyq.estimator import default_bounds
from beyondnyq.kernels import (
    DiagonalCorrelated,
    KernelSum,
    ResonantPole,
    StableSpline,
    Tikhonov,
    build_kernel_matrix,
    kernel_spec_from_json,
    kernel_spec_to_json,
)
from beyondnyq.regressor import build_regressor
from beyondnyq.signals import FastSignal


def random_spec(rng, kind):
    if kind == "tikhonov":
        return Tikhonov()
    if kind == "dc":
        return DiagonalCorrelated(
            scale=float(rng.uniform(0.1, 10.0)),
            decay=float(rng.uniform(0.0, 0.999)),
            correlation=float(rng.uniform(-0.999, 0.999)),
        )
    if kind == "ss":
        return StableSpline(
            scale=float(rng.uniform(0.1, 10.0)), decay=float(rng.uniform(0.01, 0.999))
        )
    if kind == "pk":
        return ResonantPole(
            decay=float(rng.uniform(0.01, 0.999)),
            frequency=float(rng.uniform(0.0, 2 * math.pi * 0.999)),
            sigma1=float(rng.uniform(0.0, 3.0)),
            sigma2=float(rng.uniform(0.0, 3.0)),
        )
    terms = tuple(random_spec(rng, k) for k in rng.choice(["dc", "ss", "pk"], size=3))
    return KernelSum(terms=terms)


class TestSpecValidation:
    def test_dc_ranges(self):
        with pytest.raises(ValueError, match="scale"):
            DiagonalCorrelated(scale=0.0, decay=0.5, correlation=0.2)
        with pytest.raises(ValueError, match="decay"):
            DiagonalCorrelated(scale=1.0, decay=1.0, correlation=0.2)
        with pytest.raises(ValueError, match="correlation"):
            DiagonalCorrelated(scale=1.0, decay=0.5, correlation=-1.0)

    def test_pk_ranges(self):
        with pytest.raises(ValueError, match="frequency"):
            ResonantPole(decay=0.5, frequency=2 * math.pi)
        with pytest.raises(ValueError, match="sigma1"):
            ResonantPole(decay=0.5, frequency=1.0, sigma1=-0.1)
        with pytest.raises(ValueError, match="decay"):
            ResonantPole(decay=0.0, frequency=1.0)

    @pytest.mark.parametrize(
        "cls, name",
        [
            (DiagonalCorrelated, "scale"), (DiagonalCorrelated, "decay"), (DiagonalCorrelated, "correlation"),
            (StableSpline, "scale"), (StableSpline, "decay"),
            (ResonantPole, "decay"), (ResonantPole, "frequency"), (ResonantPole, "sigma1"), (ResonantPole, "sigma2"),
        ],
    )
    @pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
    def test_non_numbers_rejected_by_constructor(self, cls, name, value):
        """The number rule holds for the constructors too: a boolean or a
        string is a ``ValueError`` naming the field, never a kernel."""
        fields = {"decay": 0.5, "frequency": 1.0} if cls is ResonantPole else {}
        with pytest.raises(ValueError, match=name):
            cls(**{**fields, name: value})

    def test_constructor_stores_floats(self):
        assert type(DiagonalCorrelated(scale=2, decay=np.float64(0.5)).scale) is float
        assert type(ResonantPole(decay=np.float64(0.5), frequency=1).decay) is float

    def test_sum_must_be_nonempty_and_flattens(self):
        with pytest.raises(ValueError):
            KernelSum(terms=())
        inner = KernelSum(terms=(Tikhonov(),))
        outer = KernelSum(terms=(inner, Tikhonov()))
        assert all(not isinstance(t, KernelSum) for t in outer.terms)
        assert len(outer.terms) == 2


class TestKernelEntry:
    def test_tikhonov_is_identity(self):
        spec = Tikhonov()
        assert kernel_entry(spec, 3, 3) == 1.0
        assert kernel_entry(spec, 3, 4) == 0.0

    def test_dc_zero_correlation_is_decaying_diagonal(self):
        spec = DiagonalCorrelated(scale=2.0, decay=0.5, correlation=0.0)
        for i in range(6):
            assert kernel_entry(spec, i, i) == pytest.approx(2.0 * 0.5**i)
        assert kernel_entry(spec, 1, 3) == 0.0

    def test_dc_formula(self):
        lam, a, b = 1.7, 0.8, -0.3
        spec = DiagonalCorrelated(scale=lam, decay=a, correlation=b)
        for i, j in ((0, 0), (2, 5), (7, 3)):
            expected = lam * a ** ((i + j) / 2) * b ** abs(j - i)
            assert kernel_entry(spec, i, j) == pytest.approx(expected, rel=1e-14)

    def test_stable_spline_formula(self):
        lam, a = 0.9, 0.7
        spec = StableSpline(scale=lam, decay=a)
        for i, j in ((0, 0), (1, 4), (6, 2)):
            m = max(i, j)
            expected = lam * (a ** (i + j + m) / 2 - a ** (3 * m) / 6)
            assert kernel_entry(spec, i, j) == pytest.approx(expected, rel=1e-14)

    def test_pk_equal_sigmas_drops_sum_term(self):
        # sigma1 = sigma2 = 1 gives weights (1, 0): k = decay^((i+j)/2) cos(w (i-j))
        a, w = 0.9, 0.7
        spec = ResonantPole(decay=a, frequency=w, sigma1=1.0, sigma2=1.0)
        for i, j in ((0, 0), (1, 5), (4, 2)):
            expected = a ** ((i + j) / 2) * np.cos(w * (i - j))
            assert kernel_entry(spec, i, j) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_sum_adds_members(self):
        spec = KernelSum(terms=(Tikhonov(), Tikhonov()))
        assert kernel_entry(spec, 2, 2) == 2.0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            kernel_entry(Tikhonov(), -1, 0)


class TestDenseKernel:
    """The test oracle ``dense_kernel``: the formulas on the index grid."""

    def test_single_entry_dc(self):
        k = dense_kernel(DiagonalCorrelated(scale=2.0, decay=0.5, correlation=0.3), 1)
        np.testing.assert_array_equal(k, [[2.0]])

    def test_matches_entrywise_evaluation(self):
        rng = np.random.default_rng(0)
        for kind in ("tikhonov", "dc", "ss", "pk", "sum"):
            spec = random_spec(rng, kind)
            k = dense_kernel(spec, 25)
            entries = np.array([[kernel_entry(spec, i, j) for j in range(25)] for i in range(25)])
            np.testing.assert_allclose(k, entries, rtol=1e-13, atol=1e-300)

    def test_benchmark_pk_matrix_is_psd(self):
        spec = ResonantPole(decay=math.exp(-0.05), frequency=0.4, sigma1=1.0, sigma2=1.0)
        report = validate_psd(dense_kernel(spec, 50))
        assert report.is_psd

    def test_dc_diagonal_nonincreasing(self):
        spec = DiagonalCorrelated(scale=1.3, decay=0.85, correlation=0.4)
        diag = np.diag(dense_kernel(spec, 30))
        assert np.all(np.diff(diag) <= 0)


class TestBuildKernelMatrix:
    """``build_kernel_matrix`` forms ``X X'`` from the terms' factors."""

    def test_tikhonov_is_identity_matrix(self):
        k = build_kernel_matrix(Tikhonov(), 3)
        np.testing.assert_array_equal(k, np.eye(3))

    @pytest.mark.parametrize("kind", ["tikhonov", "dc", "ss", "pk", "sum"])
    @pytest.mark.parametrize("order", [1, 7, 130, 600])
    def test_matches_dense_kernel(self, kind, order):
        spec = random_spec(np.random.default_rng(order), kind)
        expected = dense_kernel(spec, order)
        k = build_kernel_matrix(spec, order)
        np.testing.assert_allclose(k, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(1)
        for kind in ("dc", "ss", "pk", "sum"):
            for order in (1, 40, 600):
                k = build_kernel_matrix(random_spec(rng, kind), order)
                assert np.array_equal(k, k.T)


class TestValidatePsd:
    def test_identity(self):
        report = validate_psd(np.eye(4))
        assert report.is_psd
        assert report.min_eigenvalue == pytest.approx(1.0)

    def test_known_indefinite_matrix(self):
        report = validate_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not report.is_psd
        assert report.min_eigenvalue == pytest.approx(-1.0)
        assert report.max_eigenvalue == pytest.approx(3.0)

    def test_dc_random_draws_always_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            spec = random_spec(rng, "dc")
            report = validate_psd(dense_kernel(spec, 40))
            assert report.is_psd, spec

    def test_sum_of_psd_is_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            spec = random_spec(rng, "sum")
            assert validate_psd(dense_kernel(spec, 30)).is_psd, spec


class TestPkGramStructure:
    def test_rank_two_reconstruction(self):
        # k(i,j) = s1^2 e_i e_j cos(wi)cos(wj) + s2^2 e_i e_j sin(wi)sin(wj)
        spec = ResonantPole(decay=0.9, frequency=1.1, sigma1=0.8, sigma2=1.4)
        order = 35
        k = dense_kernel(spec, order)
        i = np.arange(order, dtype=float)
        envelope = spec.decay ** (i / 2)
        v1 = spec.sigma1 * envelope * np.cos(spec.frequency * i)
        v2 = spec.sigma2 * envelope * np.sin(spec.frequency * i)
        np.testing.assert_allclose(k, np.outer(v1, v1) + np.outer(v2, v2), atol=1e-10)
        assert np.linalg.matrix_rank(k, tol=1e-10) <= 2


class TestFactor:
    """Each kernel's ``L`` (from ``factor`` on the identity and from
    ``factor_times`` on unit vectors) gives ``L L' = K``, its scale included:
    ``random_spec`` draws DC and stable-spline scales and resonant sigmas != 1."""

    @pytest.mark.parametrize("kind", ["tikhonov", "dc", "ss", "pk"])
    @pytest.mark.parametrize("order", [1, 7, 130])
    def test_factor_reproduces_matrix(self, kind, order):
        spec = random_spec(np.random.default_rng(order), kind)
        factor = spec.factor(np.eye(order))
        assert factor.shape == (order, spec.width(order))
        k = dense_kernel(spec, order)
        np.testing.assert_allclose(factor @ factor.T, k, rtol=0, atol=1e-12 * np.max(np.abs(k)))
        columns = np.column_stack([spec.factor_times(e, order) for e in np.eye(spec.width(order))])
        np.testing.assert_allclose(columns, factor, rtol=0, atol=1e-12 * np.max(np.abs(factor)))

    def test_unit_separates_dc_scale_only(self):
        dc = DiagonalCorrelated(scale=2.5, decay=0.8, correlation=0.3)
        assert dc.unit() == (DiagonalCorrelated(scale=1.0, decay=0.8, correlation=0.3), 2.5)
        for spec in (Tikhonov(), StableSpline(scale=2.5), ResonantPole(decay=0.9, frequency=1.0, sigma1=2.0)):
            assert spec.unit() == (spec, 1.0)

    @pytest.mark.parametrize("order", [1, 2, 63, 64, 65, 600])
    @pytest.mark.parametrize("decay", [1e-3, 0.05, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-7])
    def test_stable_spline_factor_grid(self, decay, order):
        """The gap factor, and ``L (L' e_j)`` through ``factor_times``, give the
        dense matrix at decays near 0 and 1; every entry of ``L`` is >= 0."""
        spec = StableSpline(scale=2.5, decay=decay)
        k = dense_kernel(spec, order)
        tolerance = 1e-12 * np.max(np.abs(k))
        factor = spec.factor(np.eye(order))
        assert factor.shape == (order, 2 * order) and np.all(factor >= 0.0)
        np.testing.assert_allclose(factor @ factor.T, k, rtol=0, atol=tolerance)
        columns = np.column_stack([spec.factor_times(row, order) for row in factor])
        np.testing.assert_allclose(columns, k, rtol=0, atol=tolerance)

    def test_leaf_kernels_have_no_terms(self):
        for kind in ("tikhonov", "dc", "ss", "pk"):
            assert not hasattr(random_spec(np.random.default_rng(0), kind), "terms")


def bound_ends(name, starts, omega_max=2 * math.pi):
    """The ends of the tuner's default search intervals around ``starts``."""
    return sorted({end for start in starts for end in default_bounds(name, start, omega_max)})


# the class defaults and the benchmark kernels' starts (rates 0.5/s and 0.1/s
# at T = 0.1 s, resonances at 0.4 Hz and 2 Hz)
DECAYS = bound_ends("decay", (0.9, math.exp(-0.05))) + [1.0 - 1e-9]
CORRELATIONS = bound_ends("correlation", (0.5, -0.5, math.exp(-0.01), -math.exp(-0.01)))
SCALES = bound_ends("scale", (1.0,))


@st.composite
def regressors(draw):
    """A regressor with its samples: F in {1, 2, 3, 5}, the output length at
    or below its default, and the order on either side of ``(M-1) F + 1``,
    where windows stop being cut."""
    factor = draw(st.sampled_from((1, 2, 3, 5)))
    n = draw(st.integers(1, 700))
    rows = draw(st.integers(1, (n - 1) // factor + 1))
    span = (rows - 1) * factor + 1
    cut = draw(st.booleans()) or span == n
    order = draw(st.integers(1, span) if cut else st.integers(span + 1, n))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return build_regressor(FastSignal(samples=u, period=0.1), factor, order, rows)


def long_dc_factor(spec, entries):
    """``Phi D U S`` in long double: ``g[:, j] = Phi[:, j] d_j + c g[:, j+1]``
    over the columns, then ``s_j``."""
    phi, c = entries.astype(np.longdouble), np.longdouble(spec.correlation)
    d = np.sqrt(np.longdouble(spec.scale)) * np.longdouble(spec.decay) ** (np.arange(phi.shape[1]) / np.longdouble(2))
    g = np.zeros(phi.shape, dtype=np.longdouble)
    carry = np.zeros(phi.shape[0], dtype=np.longdouble)
    for j in range(phi.shape[1] - 1, -1, -1):
        carry = g[:, j] = phi[:, j] * d[j] + c * carry
    g[:, 1:] *= np.sqrt(1 - c * c)
    return g


def long_pk_factor(spec, entries):
    """``Phi L`` in long double, ``L`` the columns ``sigma1 decay^(i/2) cos(w i)``
    and ``sigma2 decay^(i/2) sin(w i)``."""
    i = np.arange(entries.shape[1], dtype=np.longdouble)
    envelope = np.longdouble(spec.decay) ** (i / 2)
    angle = np.longdouble(spec.frequency) * i
    phi = entries.astype(np.longdouble)
    return np.column_stack(
        (phi @ (spec.sigma1 * envelope * np.cos(angle)), phi @ (spec.sigma2 * envelope * np.sin(angle)))
    )


def relative_error(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


def long_filtered(phi, pole, weights):
    """``weights[j] sum_{i=j}^{P-1} pole^(i-j) u(mF - i)`` in long double: the
    sums over the regressor's windows, Horner-wise from the last column."""
    entries = phi.entries.astype(np.clongdouble if np.iscomplexobj(pole) else np.longdouble)
    sums = np.empty_like(entries)
    total = np.zeros(len(entries), dtype=entries.dtype)
    for j in range(entries.shape[1] - 1, -1, -1):
        total = sums[:, j] = entries[:, j] + pole * total
    return sums[:, : len(weights)] * np.asarray(weights, dtype=np.longdouble)


class TestFiltered:
    """``RegressorMatrix.filtered``, which the DC and resonant factors call:
    one recursion over the samples, and a rank-1 update of the cut rows,
    against the windows' sums in long double."""

    @settings(max_examples=120, deadline=None)
    @given(
        phi=regressors(),
        decay=st.sampled_from(DECAYS),
        correlation=st.sampled_from(CORRELATIONS),
        frequency=st.sampled_from((None, 0.0, 0.4 * 2 * math.pi * 0.1, 2.0 * 2 * math.pi * 0.1, 3.0)),
        full_width=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        phi=build_regressor(FastSignal(samples=np.random.default_rng(5).normal(size=300), period=0.1), 3, 120, 100),
        decay=math.exp(-0.05), correlation=-math.exp(-0.01), frequency=None, full_width=True, seed=0,
    )
    @example(
        phi=build_regressor(FastSignal(samples=np.random.default_rng(1).normal(size=700), period=0.1), 1, 700),
        decay=1.0 - 1e-9, correlation=0.5, frequency=0.0, full_width=False, seed=0,
    )
    def test_matches_long_double_sums(self, phi, decay, correlation, frequency, full_width, seed):
        """A real pole ``c sqrt(decay)`` (negative for a negative correlation)
        or, where a frequency is drawn, the complex ``sqrt(decay) e^(j w)``;
        weights of widths 1 and P; orders on both sides of ``(M-1) F + 1``,
        where rows stop being cut.  Within 1e-14 of the largest sum; without
        the correction for the pole's rounding to double, the second example
        is off by 2e-14 (7e-16 with it)."""
        radius = np.sqrt(np.longdouble(decay))
        if frequency is None:
            pole = np.longdouble(correlation) * radius
        else:
            pole = radius * (np.cos(np.longdouble(frequency)) + 1j * np.sin(np.longdouble(frequency)))
        width = phi.order if full_width else 1
        weights = np.random.default_rng(seed).uniform(0.5, 2.0, width)
        fast = phi.filtered(pole, weights)
        assert fast.shape == (phi.output_length, width)
        assert fast.dtype == (float if frequency is None else complex)
        assert relative_error(fast, long_filtered(phi, pole, weights)) <= 1e-14


class TestRegressorFactor:
    """DC and resonant terms compute ``Phi L`` from the regressor's samples
    by one recursion; the dense ``factor(entries)`` and a long double
    evaluation are the oracles."""

    @settings(max_examples=80, deadline=None)
    @given(
        phi=regressors(),
        scale=st.sampled_from(SCALES),
        decay=st.sampled_from(DECAYS),
        correlation=st.sampled_from(CORRELATIONS),
    )
    def test_dc_matches_dense_and_long_double(self, phi, scale, decay, correlation):
        spec = DiagonalCorrelated(scale=scale, decay=decay, correlation=correlation)
        fast = spec.regressor_factor(phi)
        assert fast.shape == phi.entries.shape
        assert relative_error(fast, spec.factor(phi.entries)) <= 1e-14
        assert relative_error(fast, long_dc_factor(spec, phi.entries)) <= 1e-14

    @settings(max_examples=80, deadline=None)
    @given(
        phi=regressors(),
        decay=st.sampled_from(DECAYS),
        start=st.sampled_from((0.0, 0.4 * 2 * math.pi * 0.1, 2.0 * 2 * math.pi * 0.1)),
        upper=st.booleans(),
        sigmas=st.tuples(st.sampled_from((0.01, 1.0, 100.0)), st.sampled_from((0.01, 1.0, 100.0))),
    )
    @example(
        phi=build_regressor(FastSignal(samples=np.random.default_rng(1).normal(size=600), period=0.1), 3, 600),
        decay=0.9969, start=0.4 * 2 * math.pi * 0.1, upper=True, sigmas=(1.0, 1.0),
    )
    def test_resonant_matches_long_double(self, phi, decay, start, upper, sigmas):
        """At unit sigmas, within 1e-13 of the long double factor; the dense
        product, whose angles ``w i`` round to within ``eps w i``, is held to
        1e-12.  The sigmas scale the columns exactly."""
        frequency = bound_ends("frequency", (start,), min(math.pi * phi.factor, 2 * math.pi))[upper]
        spec = ResonantPole(decay=decay, frequency=frequency)
        fast = spec.regressor_factor(phi)
        assert fast.shape == (phi.output_length, 2)
        expected = long_pk_factor(spec, phi.entries)
        assert relative_error(fast, expected) <= 1e-13
        assert relative_error(spec.factor(phi.entries), expected) <= 1e-12
        scaled = ResonantPole(decay=decay, frequency=frequency, sigma1=sigmas[0], sigma2=sigmas[1])
        assert np.array_equal(scaled.regressor_factor(phi), fast * sigmas)

    @pytest.mark.parametrize("spec", [Tikhonov(), StableSpline(decay=0.9)])
    def test_other_kernels_use_the_dense_factor(self, spec):
        phi = build_regressor(FastSignal(samples=np.random.default_rng(3).normal(size=90), period=0.1), 3, 40)
        assert np.array_equal(spec.regressor_factor(phi), spec.factor(phi.entries))

    def test_dc_cut_rows_update_in_place(self):
        """``filtered``'s rank-1 update of the cut rows makes no M x P
        temporary: the DC factor's peak allocation is the factor plus O(N +
        P)."""
        phi = build_regressor(FastSignal(samples=np.random.default_rng(4).normal(size=3000), period=0.1), 3, 150)
        spec = DiagonalCorrelated(decay=0.95, correlation=0.99)
        spec.regressor_factor(phi)  # warm up lazily built state
        tracemalloc.start()
        try:
            factored = spec.regressor_factor(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factored.nbytes == 1000 * 150 * 8
        assert peak < factored.nbytes + 16 * 3000 * 8


def test_oracles_are_not_exported():
    """The test oracles live in the tests, not in the package."""
    for name in ("kernel_entry", "dense_kernel", "KernelMatrix", "PsdReport", "validate_psd",
                 "OracleInapplicableError", "dft", "snr_variance_ratio"):
        assert not hasattr(beyondnyq, name), name


class TestKernelJson:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for kind in ("tikhonov", "dc", "ss", "pk", "sum"):
            spec = random_spec(rng, kind)
            assert kernel_spec_from_json(kernel_spec_to_json(spec)) == spec

    def test_nested_sum_round_trip(self):
        rng = np.random.default_rng(5)
        inner = KernelSum(terms=(Tikhonov(), random_spec(rng, "pk")))
        spec = KernelSum(terms=(random_spec(rng, "dc"), inner, Tikhonov()))
        nested = {
            "type": "sum",
            "terms": [kernel_spec_to_json(spec.terms[0]), kernel_spec_to_json(inner), {"type": "tikhonov"}],
        }
        assert kernel_spec_from_json(nested) == spec
        assert [term["type"] for term in kernel_spec_to_json(spec)["terms"]] == ["dc", "tikhonov", "pk", "tikhonov"]
        assert kernel_spec_from_json(kernel_spec_to_json(spec)) == spec

    def test_non_string_type_rejected(self):
        for kind in ([], {"dc": 1}, 3, None):
            with pytest.raises(ValueError, match="unknown kernel type"):
                kernel_spec_from_json({"type": kind})

    def test_rate_period_form(self):
        obj = {
            "type": "dc",
            "scale": 1.0,
            "decay": {"rate": 0.5, "period_s": 0.1},
            "correlation": {"rate": 0.1, "period_s": 0.1},
        }
        spec = kernel_spec_from_json(obj)
        assert spec.decay == pytest.approx(math.exp(-0.05))
        assert spec.correlation == pytest.approx(math.exp(-0.01))

    def test_freq_hz_form(self):
        obj = {"type": "pk", "decay": 0.9, "frequency": {"freq_hz": 2.0, "period_s": 0.1}}
        spec = kernel_spec_from_json(obj)
        assert spec.frequency == pytest.approx(2 * math.pi * 0.2)

    def test_unknown_type_and_parameters_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel type"):
            kernel_spec_from_json({"type": "rbf"})
        with pytest.raises(ValueError, match="unknown parameters"):
            kernel_spec_from_json({"type": "dc", "rho": 0.5})

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"scale": True}, "scale"),
            ({"scale": "0.9"}, "scale"),
            ({"correlation": False}, "correlation"),
            ({"decay": "0.9"}, "decay"),
            ({"decay": {"rate": "0.5", "period_s": 0.1}}, "decay.rate"),
        ],
        ids=["scale-bool", "scale-string", "correlation-bool", "decay-string", "rate-string"],
    )
    def test_non_numbers_rejected(self, params, named):
        """Booleans and numeric strings are not numbers, plain or in the per-period form."""
        with pytest.raises(ValueError, match=f"{named} must be a number"):
            kernel_spec_from_json({"type": "dc", **params})

    def test_out_of_range_parameter_named(self):
        with pytest.raises(ValueError, match="decay"):
            kernel_spec_from_json({"type": "dc", "decay": 1.5})
