"""Tests for regressor construction and least squares."""

import math
import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beyondnyq.regressor import (
    _CERTIFICATE_FACTOR,
    _HISTORY,
    _HISTORY_BYTES,
    RegressorMatrix,
    _cached,
    _certified_factor,
    _gram,
    _windows,
    build_regressor,
    least_squares_fir,
)
from beyondnyq.signals import FastSignal, SlowSignal, downsample, random_noise


def decimated_convolution(u, theta, factor, output_length):
    """Oracle: convolve then keep every F-th sample."""
    full = np.convolve(u, theta)[: len(u)]
    return full[::factor][:output_length]


def zoh_input(levels, factor, period):
    """Fast-rate signal holding each slow-rate level for ``factor`` samples."""
    return FastSignal(samples=np.repeat(np.asarray(levels, dtype=float), factor), period=period)


def svd_unique(phi):
    """Oracle: whether ``Phi`` admits a unique least-squares fit, from its own
    singular values: ``P < M`` and all ``P`` of them above the tolerance
    ``max(M, P) * eps * sigma_max``."""
    m, p = phi.entries.shape
    singular_values = scipy.linalg.svdvals(phi.entries)
    tol = max(m, p) * np.finfo(float).eps * singular_values[0]
    return p < m and np.count_nonzero(singular_values > tol) == p


def ls_tolerance(a, y, theta):
    """1e-10 relative, or the first-order perturbation bound of least squares
    where the problem is too ill-conditioned for that (Golub & Van Loan,
    *Matrix Computations*, section 5.3): two backward-stable solvers can then
    differ by about ``eps * cond * (1 + cond * ||r|| / (||A|| ||theta||))``."""
    cond = np.linalg.cond(a)
    residual = np.linalg.norm(y - a @ theta)
    bound = np.finfo(float).eps * cond * (1.0 + cond * residual / (np.linalg.norm(a, 2) * np.linalg.norm(theta)))
    return max(1e-10, bound)


class TestBuildRegressor:
    def test_impulse_rows(self):
        # u = unit impulse: row m is 1 at column m*F when that lag exists
        u = FastSignal(samples=[1, 0, 0, 0, 0, 0], period=0.1)
        phi = build_regressor(u, factor=2, order=3, output_length=3)
        np.testing.assert_array_equal(
            phi.entries, [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
        )

    def test_zero_input_gives_zero_matrix(self):
        u = FastSignal(samples=np.zeros(12), period=0.1)
        phi = build_regressor(u, factor=3, order=4)
        assert not phi.entries.any()

    def test_matches_decimated_convolution(self):
        rng = np.random.default_rng(4)
        u = FastSignal(samples=rng.normal(size=30), period=0.1)
        phi = build_regressor(u, factor=3, order=8)
        for _ in range(20):
            theta = rng.normal(size=8)
            oracle = decimated_convolution(u.samples, theta, 3, phi.output_length)
            np.testing.assert_allclose(phi.entries @ theta, oracle, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        factor=st.integers(1, 6),
        order_share=st.floats(0.0, 1.0),
    )
    def test_product_is_decimated_convolution(self, seed, n, factor, order_share):
        """``Phi @ theta`` is ``u * theta`` kept at every F-th sample, for any
        N and F and for orders on both sides of M."""
        rng = np.random.default_rng(seed)
        u = FastSignal(samples=rng.normal(size=n), period=0.1)
        order = 1 + round(order_share * (n - 1))
        phi = build_regressor(u, factor, order)
        theta = rng.normal(size=order)
        expected = np.convolve(u.samples, theta)[::factor][: phi.output_length]
        assert np.linalg.norm(phi.entries @ theta - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        factor=st.integers(1, 6),
        order_share=st.floats(0.0, 1.0),
        length_share=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    @example(seed=0, n=17, factor=3, order_share=1.0, length_share=None)  # order == N
    @example(seed=1, n=40, factor=2, order_share=0.3, length_share=0.5)  # M below its default
    def test_entries_are_input_samples(self, seed, n, factor, order_share, length_share):
        """``entries[m, i]`` is exactly ``u(mF - i)``, and ``0.0`` where
        ``mF < i``, for any N, F, order up to N, and output length up to
        its default."""
        u = np.random.default_rng(seed).normal(size=n)
        order = 1 + round(order_share * (n - 1))
        default = (n - 1) // factor + 1
        length = None if length_share is None else 1 + round(length_share * (default - 1))
        phi = build_regressor(FastSignal(samples=u, period=0.1), factor, order, length)
        rows = default if length is None else length
        expected = np.zeros((rows, order))
        for m in range(rows):
            for i in range(order):
                if m * factor >= i:
                    expected[m, i] = u[m * factor - i]
        np.testing.assert_array_equal(phi.entries, expected)
        assert phi.entries.flags.c_contiguous

    def test_default_output_length_matches_downsample(self):
        for n, factor in ((30, 3), (31, 3), (32, 3), (600, 3), (17, 5)):
            u = random_noise(n, 0.1, 1.0, seed=n)
            phi = build_regressor(u, factor, order=min(5, n))
            assert phi.output_length == len(downsample(u, factor))

    def test_order_bounds(self):
        u = random_noise(10, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            build_regressor(u, factor=2, order=0)
        with pytest.raises(ValueError):
            build_regressor(u, factor=2, order=11)

    def test_factor_must_be_integer(self):
        u = random_noise(10, 0.1, 1.0, seed=0)
        for factor in (True, 1.5):
            with pytest.raises(TypeError, match="factor"):
                build_regressor(u, factor=factor, order=2)

    def test_inconsistent_output_length(self):
        u = random_noise(10, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            build_regressor(u, factor=3, order=2, output_length=5)

    def test_column_slice_is_lower_order_regressor(self):
        # column i holds u(mF - i), so the first P' columns form the order-P' matrix
        u = random_noise(40, 0.1, 1.0, seed=1)
        big = build_regressor(u, factor=2, order=12)
        small = build_regressor(u, factor=2, order=5)
        np.testing.assert_array_equal(big.entries[:, :5], small.entries)


class TestIdentifiabilityCheck:
    """The paper's limits of least squares, as least_squares_fir states
    them: no unique model once the order reaches the output length, nor from
    a zero-order-hold input above order two."""

    def test_order_at_least_output_length_never_unique(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n = int(rng.integers(12, 40))
            factor = int(rng.integers(1, 4))
            m = (n - 1) // factor + 1
            order = int(rng.integers(m, n + 1))
            u = FastSignal(samples=rng.normal(size=n), period=0.1)
            phi = build_regressor(u, factor, order)
            y = SlowSignal(samples=rng.normal(size=m), period=0.1 * factor, factor=factor)
            assert least_squares_fir(phi, y) is None

    def test_zoh_input_has_repeated_columns(self):
        rng = np.random.default_rng(3)
        u = zoh_input(rng.normal(size=6), factor=2, period=0.1)
        phi = build_regressor(u, factor=2, order=3)
        # columns 1 and 2 both read the held value of the previous interval
        np.testing.assert_array_equal(phi.entries[:, 1], phi.entries[:, 2])
        null_vector = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(phi.entries @ null_vector, 0.0, atol=1e-12)
        y = SlowSignal(samples=rng.normal(size=phi.output_length), period=0.2, factor=2)
        assert least_squares_fir(phi, y) is None

    def test_zoh_never_unique_above_order_two(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            factor = int(rng.integers(2, 5))
            blocks = int(rng.integers(6, 15))
            u = zoh_input(rng.normal(size=blocks), factor, 0.1)
            order = int(rng.integers(3, min(blocks * factor, blocks * factor // 2 + 3)))
            phi = build_regressor(u, factor, order)
            y = SlowSignal(samples=rng.normal(size=phi.output_length), period=0.1 * factor, factor=factor)
            assert least_squares_fir(phi, y) is None

    def test_white_noise_well_posed_case_is_unique(self):
        u = random_noise(150, 0.1, 1.0, seed=6)
        phi = build_regressor(u, factor=3, order=10)  # M=50, P=10
        y = SlowSignal(samples=random_noise(50, 0.3, 1.0, seed=7).samples, period=0.3, factor=3)
        model = least_squares_fir(phi, y)
        assert model is not None
        assert model.theta.shape == (10,)


class TestLeastSquaresFir:
    def test_identity_regressor_returns_output(self):
        # impulse-train input at factor 1 makes the regressor the identity
        n = 6
        u = FastSignal(samples=[1, 0, 0, 0, 0, 0], period=0.1)
        phi = build_regressor(u, factor=1, order=3, output_length=6)
        y = SlowSignal(samples=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], period=0.1, factor=1)
        model = least_squares_fir(phi, y)
        np.testing.assert_allclose(model.theta, [1.0, 2.0, 3.0], atol=1e-12)

    def test_order_at_least_output_length_is_none(self):
        u = random_noise(30, 0.1, 1.0, seed=8)
        phi = build_regressor(u, factor=3, order=10)  # M = P = 10
        y = SlowSignal(samples=np.zeros(10), period=0.3, factor=3)
        assert least_squares_fir(phi, y) is None

    def test_recovers_true_coefficients_noiseless(self):
        rng = np.random.default_rng(9)
        theta_true = rng.normal(size=12)
        u = FastSignal(samples=rng.normal(size=120), period=0.1)
        phi = build_regressor(u, factor=2, order=12)
        y = SlowSignal(samples=phi.entries @ theta_true, period=0.2, factor=2)
        model = least_squares_fir(phi, y)
        err = np.linalg.norm(model.theta - theta_true) / np.linalg.norm(theta_true)
        assert err < 1e-8

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(10)
        u = FastSignal(samples=rng.normal(size=90), period=0.1)
        phi = build_regressor(u, factor=3, order=9)
        y = SlowSignal(samples=rng.normal(size=phi.output_length), period=0.3, factor=3)
        model = least_squares_fir(phi, y)
        residual = y.samples - phi.entries @ model.theta
        assert np.linalg.norm(phi.entries.T @ residual) <= 1e-8 * np.linalg.norm(y.samples)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(11)
        u = FastSignal(samples=rng.normal(size=80), period=0.1)
        phi = build_regressor(u, factor=2, order=8)
        y = SlowSignal(samples=rng.normal(size=phi.output_length), period=0.2, factor=2)
        theta = least_squares_fir(phi, y).theta
        lhs = phi.entries.T @ phi.entries @ theta
        rhs = phi.entries.T @ y.samples
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_factor_mismatch_rejected(self):
        u = random_noise(30, 0.1, 1.0, seed=12)
        phi = build_regressor(u, factor=3, order=4)
        y = SlowSignal(samples=np.zeros(phi.output_length), period=0.2, factor=2)
        with pytest.raises(ValueError):
            least_squares_fir(phi, y)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_regressor_rejected(self, value):
        """A regressor built directly from non-finite samples is a
        ``ValueError`` from its constructor that names them, not a fit or a
        LAPACK call on nan."""
        samples = random_noise(30, 0.1, 1.0, seed=12).samples.copy()
        samples[7] = value
        with pytest.raises(ValueError, match=f"samples must be finite, got {value} at index 7 \\(1 in all\\)"):
            RegressorMatrix(samples, 3, 4)

    def test_zoh_input_is_none(self):
        u = zoh_input(np.arange(1.0, 11.0), factor=3, period=0.1)
        phi = build_regressor(u, factor=3, order=5)
        y = SlowSignal(samples=np.zeros(phi.output_length), period=0.3, factor=3)
        assert least_squares_fir(phi, y) is None


class TestLeastSquaresAgreesWithCheck:
    """least_squares_fir certifies full rank from the Cholesky factor of the
    Gram or, failing that, counts the singular values of its own SVD solve;
    the verdict must be the check of svd_unique, which runs on the singular
    values of Phi."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        factor=st.integers(1, 4),
        blocks=st.integers(2, 40),
        zoh=st.booleans(),
        order_share=st.floats(0.0, 1.0),
    )
    # each side of M = 10, from white noise and from a held input
    @example(seed=0, factor=2, blocks=10, zoh=False, order_share=0.2)  # P = 5: unique
    @example(seed=0, factor=2, blocks=10, zoh=True, order_share=0.2)  # P = 5: repeated columns
    @example(seed=0, factor=2, blocks=10, zoh=False, order_share=0.8)  # P = 16 >= M
    @example(seed=0, factor=2, blocks=10, zoh=True, order_share=0.8)  # P = 16 >= M
    def test_none_exactly_when_not_unique(self, seed, factor, blocks, zoh, order_share):
        rng = np.random.default_rng(seed)
        if zoh:
            u = zoh_input(rng.normal(size=blocks), factor, 0.1)
        else:
            u = FastSignal(samples=rng.normal(size=blocks * factor), period=0.1)
        # orders from 1 to N, so on both sides of M = blocks
        order = 1 + round(order_share * (len(u) - 1))
        phi = build_regressor(u, factor, order)
        y = SlowSignal(samples=rng.normal(size=phi.output_length), period=0.1 * factor, factor=factor)
        model = least_squares_fir(phi, y)
        assert (model is None) == (not svd_unique(phi))
        if model is None:
            return
        theta = model.theta
        expected = np.linalg.lstsq(phi.entries, y.samples, rcond=None)[0]
        tolerance = ls_tolerance(phi.entries, y.samples, expected)
        assert np.linalg.norm(theta - expected) <= tolerance * np.linalg.norm(expected)


class TestGram:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        factor=st.integers(1, 5),
        rows=st.integers(2, 60),
        order_share=st.floats(0.0, 1.0),
    )
    # at M = 30: P < F, P = F, P a multiple of F, and P not one; P = M and P > M
    @example(seed=5, factor=5, rows=30, order_share=2 / 58)  # P = 3
    @example(seed=2, factor=2, rows=30, order_share=1 / 58)  # P = 2
    @example(seed=3, factor=3, rows=30, order_share=11 / 58)  # P = 12
    @example(seed=4, factor=4, rows=30, order_share=9 / 58)  # P = 10
    @example(seed=6, factor=3, rows=30, order_share=29 / 58)  # P = 30
    @example(seed=7, factor=1, rows=30, order_share=44 / 58)  # P = 45
    def test_matches_dense_gram(self, seed, factor, rows, order_share):
        """``_gram`` is ``entries' entries`` to 1e-13 relative and bitwise
        symmetric, for any P up to 2M - 1, at, below and above F."""
        order = 1 + round(order_share * (2 * rows - 2))
        samples = np.random.default_rng(seed).normal(size=max(order, (rows - 1) * factor + 1))
        phi = build_regressor(FastSignal(samples=samples, period=0.1), factor, order, rows)
        dense = phi.entries.T @ phi.entries
        gram = _gram(phi)
        assert np.array_equal(gram, gram.T)
        assert np.linalg.norm(gram - dense) <= 1e-13 * np.linalg.norm(dense)


class TestRankCertificate:
    """Below M, least_squares_fir certifies full rank from the inverse of the
    Gram's Cholesky factor and solves ``Phi`` by an SVD (``lstsq``) only
    where the Cholesky or that certificate fails; at P >= M it runs no
    decomposition."""

    def spy(self, monkeypatch, name="lstsq", module=scipy.linalg):
        shapes = []
        original = getattr(module, name)

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return shapes

    def white_noise_problem(self):
        u = random_noise(150, 0.1, 1.0, seed=13)
        phi = build_regressor(u, factor=3, order=10)  # M=50, P=10
        y = SlowSignal(samples=random_noise(50, 0.3, 1.0, seed=14).samples, period=0.3, factor=3)
        return phi, y

    def test_well_conditioned_input_needs_no_svd(self, monkeypatch):
        phi, y = self.white_noise_problem()
        lstsq_shapes, svd_shapes = self.spy(monkeypatch), self.spy(monkeypatch, "svdvals")
        model = least_squares_fir(phi, y)
        assert lstsq_shapes == svd_shapes == []
        expected = np.linalg.lstsq(phi.entries, y.samples, rcond=None)[0]
        assert np.linalg.norm(model.theta - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zoh_input_falls_back_to_svd(self, monkeypatch):
        u = zoh_input(np.random.default_rng(15).normal(size=30), factor=3, period=0.1)
        phi = build_regressor(u, factor=3, order=5)  # M=30, P=5, repeated columns
        y = SlowSignal(samples=np.ones(phi.output_length), period=0.3, factor=3)
        shapes = self.spy(monkeypatch)
        assert least_squares_fir(phi, y) is None
        assert shapes == [(30, 5)]

    def test_ill_conditioned_input_falls_back_and_is_unique(self, monkeypatch):
        """A low-passed input whose ``kappa(Phi)`` (about 1e6) is past the
        certificate but far inside the SVD rule's ``1 / (M eps)``: the SVD
        solve gives the unique fit."""
        u = random_noise(600, 0.1, 1.0, seed=21).samples
        for _ in range(3):
            u = scipy.signal.lfilter([0.01], [1.0, -0.99], u)
        phi = build_regressor(FastSignal(samples=u, period=0.1), factor=3, order=20)  # M=200
        cond = np.linalg.cond(phi.entries)
        assert 1e5 < cond < 1e-3 / (phi.output_length * np.finfo(float).eps)
        y = SlowSignal(samples=random_noise(200, 0.3, 1.0, seed=22).samples, period=0.3, factor=3)
        shapes = self.spy(monkeypatch)
        model = least_squares_fir(phi, y)
        assert shapes == [(200, 20)]
        expected = np.linalg.lstsq(phi.entries, y.samples, rcond=None)[0]
        tolerance = ls_tolerance(phi.entries, y.samples, expected)
        assert np.linalg.norm(model.theta - expected) <= tolerance * np.linalg.norm(expected)

    def test_input_near_certificate_edge_takes_fast_path(self, monkeypatch):
        """A milder low-pass than the fallback test's leaves the certificate's
        left side just under its right: the Cholesky path runs, with the
        corrections that its bound ``rho^(s+1) <= eps`` asks for, and still
        matches ``np.linalg.lstsq``."""
        u = random_noise(600, 0.1, 1.0, seed=21).samples
        for _ in range(3):
            u = scipy.signal.lfilter([0.027], [1.0, -0.973], u)
        phi = build_regressor(FastSignal(samples=u, period=0.1), factor=3, order=20)  # M=200
        y = SlowSignal(samples=random_noise(200, 0.3, 1.0, seed=22).samples, period=0.3, factor=3)
        _, rho = _certified_factor(phi)
        ratio = rho * _CERTIFICATE_FACTOR / 3
        assert 0.5 < ratio < 1.0
        corrections = math.ceil(math.log(np.finfo(float).eps) / math.log(rho)) - 1
        lstsq_shapes, solves = self.spy(monkeypatch), self.spy(monkeypatch, "dtrsv", scipy.linalg.blas)
        model = least_squares_fir(phi, y)
        assert lstsq_shapes == []
        # a solve with R'R is one triangular solve with R' and one with R
        assert len(solves) == 2 * (1 + corrections) and corrections >= 5
        expected = np.linalg.lstsq(phi.entries, y.samples, rcond=None)[0]
        tolerance = ls_tolerance(phi.entries, y.samples, expected)
        assert np.linalg.norm(model.theta - expected) <= tolerance * np.linalg.norm(expected)

    def fails_over(self, monkeypatch, name):
        """The white-noise fit with LAPACK ``name`` reporting info > 0 goes
        to the SVD solve once, with the same verdict and theta."""
        phi, y = self.white_noise_problem()
        expected = least_squares_fir(phi, y).theta
        shapes = self.spy(monkeypatch)
        monkeypatch.setattr(scipy.linalg.lapack, name, lambda c, **kwargs: (c, 3))
        theta = least_squares_fir(phi, y).theta
        assert shapes == [(50, 10)]
        assert np.linalg.norm(theta - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_failed_cholesky_falls_back_to_svd(self, monkeypatch):
        self.fails_over(monkeypatch, "dpotrf")  # a non-positive pivot

    def test_failed_inverse_falls_back_to_svd(self, monkeypatch):
        self.fails_over(monkeypatch, "dtrtri")  # a zero pivot

    def test_order_at_least_output_length_runs_no_decomposition(self, monkeypatch):
        u = random_noise(150, 0.1, 1.0, seed=13)
        y = SlowSignal(samples=random_noise(50, 0.3, 1.0, seed=14).samples, period=0.3, factor=3)
        spies = [
            self.spy(monkeypatch),
            self.spy(monkeypatch, "svdvals"),
            self.spy(monkeypatch, "dpotrf", scipy.linalg.lapack),
        ]
        for order in (50, 51, 150):  # M = 50
            assert least_squares_fir(build_regressor(u, factor=3, order=order), y) is None
        assert spies == [[], [], []]


class TestRegressorMatrixType:
    def test_shape_validation(self):
        for samples in (np.zeros(0), np.zeros((3, 4)), 1.0):
            with pytest.raises(ValueError, match="samples"):
                RegressorMatrix(samples, 2, 4)

    def test_order_is_column_count(self):
        """M is the number of F-th samples from ``u(0)``, and row m windows
        ``u(mF)`` backwards."""
        samples = np.arange(1.0, 6.0)
        phi = RegressorMatrix(samples, 2, 4)
        samples[:] = 0.0  # the matrix keeps a read-only copy
        assert (phi.output_length, phi.order) == (3, 4)
        assert np.array_equal(phi.entries, [[1, 0, 0, 0], [3, 2, 1, 0], [5, 4, 3, 2]])
        assert not (phi.samples.flags.writeable or phi.entries.flags.writeable)

    @pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
    def test_integers_checked(self, value):
        """A bool or float factor or order is rejected, not kept (``True``
        would pass as 1)."""
        with pytest.raises(TypeError, match="factor"):
            RegressorMatrix(np.zeros(5), value, 2)
        with pytest.raises(TypeError, match="order"):
            RegressorMatrix(np.zeros(5), 2, value)

    def test_build_regressor_keeps_the_samples_it_windows(self):
        u = random_noise(100, 0.1, 1.0, seed=15)
        phi = build_regressor(u, factor=3, order=20, output_length=30)
        assert np.array_equal(phi.samples, u.samples[:88])  # u(0) ... u((M-1) F)
        assert not phi.samples.flags.writeable

    def test_equality_is_identity(self):
        """Each regressor owns its cache, so two built from the same input
        are different objects and compare unequal (without comparing
        arrays); a regressor equals itself and hashes."""
        u = random_noise(60, 0.1, 1.0, seed=16)
        phi, other = build_regressor(u, 3, 5), build_regressor(u, 3, 5)
        assert phi == phi
        assert phi != other
        assert len({phi, other, phi}) == 2


class TestLeading:
    @settings(max_examples=40, deadline=None)
    @given(
        factor=st.sampled_from((1, 2, 3, 5)),
        n=st.integers(1, 120),
        data=st.data(),
    )
    def test_matches_build_regressor(self, factor, n, data):
        """``leading(order)`` has the entries of the regressor built at that
        order, shares its samples but not its cache, and pickles."""
        u = random_noise(n, 0.1, 1.0, seed=data.draw(st.integers(0, 2**16)))
        rows = data.draw(st.integers(1, (n - 1) // factor + 1))
        top = data.draw(st.integers(1, n))
        order = data.draw(st.integers(1, top))
        phi = build_regressor(u, factor, top, rows)
        phi._cache[0] = "piece"
        lower = phi.leading(order)
        assert np.array_equal(lower.entries, build_regressor(u, factor, order, rows).entries)
        assert lower.samples is phi.samples and lower.factor == factor
        assert lower._cache == {}
        lower._cache[0] = "piece"
        restored = pickle.loads(pickle.dumps(lower))
        assert np.array_equal(restored.entries, lower.entries)
        assert np.array_equal(restored.samples, lower.samples)
        assert (restored.factor, restored.order) == (factor, order)
        assert not (restored.samples.flags.writeable or restored.entries.flags.writeable)
        assert restored._cache == {}

    def test_entries_are_a_view_of_the_parent(self):
        """``leading(p).entries`` are the entries of a regressor built at
        order p, entry for entry, read from the parent's memory, read-only."""
        u = random_noise(120, 0.1, 1.0, seed=18)
        phi = build_regressor(u, factor=3, order=30)
        for order in (1, 7, 30):
            lower = phi.leading(order)
            assert np.array_equal(lower.entries, build_regressor(u, 3, order).entries)
            assert np.shares_memory(lower.entries, phi.entries)
            assert not lower.entries.flags.writeable
            assert lower != phi and lower == lower

    def test_order_checked(self):
        phi = build_regressor(random_noise(30, 0.1, 1.0, seed=17), factor=3, order=10)
        with pytest.raises(ValueError, match="within"):
            phi.leading(11)
        with pytest.raises(ValueError, match="order"):
            phi.leading(0)
        with pytest.raises(TypeError, match="order"):
            phi.leading(2.0)


class TestCache:
    """``_cached`` keeps a slot's latest 16 keys, in the order of last use,
    where 16 of its arrays fit in 32 MiB, and only the latest array where
    they do not."""

    def fill(self, phi, keys, nbytes, computed):
        def compute(key):
            computed.append(key)
            return np.zeros(nbytes // 8)

        return [_cached(phi, "slot", key, lambda: compute(key)) for key in keys]

    def test_history_of_latest_keys(self):
        phi = build_regressor(random_noise(30, 0.1, 1.0, seed=19), factor=3, order=10)
        computed = []
        self.fill(phi, range(20), 8, computed)
        assert list(phi._cache["slot"]) == list(range(4, 20))
        # a hit moves its key to the end, so the oldest key goes next
        self.fill(phi, [4, 20, 4, 5], 8, computed)
        assert computed == list(range(21)) + [5]
        assert list(phi._cache["slot"]) == list(range(7, 21)) + [4, 5]
        assert not any(array.flags.writeable for array in phi._cache["slot"].values())

    @pytest.mark.parametrize("extra, kept", [(0, _HISTORY), (8, 1)], ids=["at-cap", "over-cap"])
    def test_byte_cap(self, extra, kept):
        """16 arrays of 2 MiB fill the 32 MiB cap; 16 a word larger pass it,
        so that slot keeps only its latest array, and recomputes each
        revisited key."""
        phi = build_regressor(random_noise(30, 0.1, 1.0, seed=19), factor=3, order=10)
        computed = []
        arrays = self.fill(phi, list(range(_HISTORY)) * 2, _HISTORY_BYTES // _HISTORY + extra, computed)
        assert len(phi._cache["slot"]) == kept
        assert len(computed) == (_HISTORY if kept == _HISTORY else 2 * _HISTORY)
        assert arrays[-1] is phi._cache["slot"][_HISTORY - 1]


class TestWindows:
    @settings(max_examples=80, deadline=None)
    @given(
        factor=st.sampled_from((1, 2, 3, 5)),
        n=st.integers(1, 200),
        complex_input=st.booleans(),
        full_width=st.booleans(),
        data=st.data(),
    )
    def test_matches_sliding_window_view(self, factor, n, complex_input, full_width, data):
        """The strided view is every F-th reversed window of the input padded
        with ``width - 1`` leading zeros, as ``sliding_window_view`` gives it,
        for widths 1 and P and real and complex inputs; it is read-only and
        has the input's dtype."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_input else 0.0)
        rows = data.draw(st.integers(1, (n - 1) // factor + 1))
        width = data.draw(st.integers(1, n)) if full_width else 1
        padded = np.concatenate((np.zeros(width - 1, dtype=x.dtype), x))
        expected = np.lib.stride_tricks.sliding_window_view(padded, width)[: rows * factor : factor, ::-1]
        view = _windows(x, factor, width, rows)
        assert view.dtype == x.dtype and view.shape == (rows, width)
        assert np.array_equal(view, expected)
        assert not view.flags.writeable
