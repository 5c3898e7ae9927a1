"""Tests for regularized estimation, marginal likelihood, and tuning."""

import json
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import dense_kernel

import beyondnyq.estimator as estimator
import beyondnyq.sim as sim

from beyondnyq.errors import InvalidStartError, NumericalError
from beyondnyq.estimator import (
    HyperparameterVector,
    RegularizedProblem,
    apply_hyperparameters,
    default_bounds,
    fit_with_evidence,
    goodness_of_fit,
    kernel_and_gamma,
    load_model,
    marginal_likelihood,
    optimize_hyperparameters,
    predict_fast_output,
    regularized_fir,
    save_model,
    tuning_budget,
    tuning_start,
)
from beyondnyq.kernels import (
    DiagonalCorrelated,
    KernelSum,
    ResonantPole,
    StableSpline,
    Tikhonov,
    _Kernel,
)
from beyondnyq.regressor import build_regressor, least_squares_fir
from beyondnyq.signals import FastSignal, FirModel, SlowSignal, random_noise


def make_problem(seed, n=60, factor=3, order=10, gamma=1e-3, kernel=None, y=None):
    rng = np.random.default_rng(seed)
    u = FastSignal(samples=rng.normal(size=n), period=0.1)
    phi = build_regressor(u, factor, order)
    samples = rng.normal(size=phi.output_length) if y is None else y
    y_l = SlowSignal(samples=samples, period=0.1 * factor, factor=factor)
    kernel = kernel or DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4)
    return RegularizedProblem(phi=phi, y_l=y_l, kernel=kernel, gamma=gamma)


def naive_marginal_likelihood(phi, y, kernel, gamma):
    """Dense oracle: explicit inverse and determinant."""
    k = dense_kernel(kernel, phi.order)
    g = phi.entries @ k @ phi.entries.T + gamma * np.eye(phi.output_length)
    return float(y @ np.linalg.inv(g) @ y + math.log(np.linalg.det(g)))


class OracleInapplicableError(RuntimeError):
    """The primal-form check requires a strictly positive definite kernel."""


def primal_check(problem):
    """Primal-form oracle ``(Phi'Phi + gamma K^{-1}) theta = Phi' y_l``.

    Needs a strictly positive definite kernel matrix, unlike the dual form
    that :func:`regularized_fir` solves.
    """
    phi = problem.phi.entries
    kernel_matrix = dense_kernel(problem.kernel, problem.phi.order)
    try:
        k_factor = scipy.linalg.cho_factor(kernel_matrix, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise OracleInapplicableError(
            "primal form needs a strictly positive definite kernel matrix"
        ) from exc
    k_inv = scipy.linalg.cho_solve(k_factor, np.eye(problem.phi.order))
    normal = phi.T @ phi + problem.gamma * k_inv
    theta = scipy.linalg.solve(normal, phi.T @ problem.y_l.samples, assume_a="sym")
    return FirModel(theta=theta, period=problem.y_l.fast_period)


def _tune(phi, y_l, kernel, gamma):
    eta0 = HyperparameterVector(values={"decay": 0.9}, bounds={"decay": (0.5, 0.99)})
    return optimize_hyperparameters(phi, y_l, kernel, eta0, gamma=gamma, budget=5)


@pytest.mark.parametrize(
    "entry",
    [
        lambda phi, y_l, kernel, gamma: RegularizedProblem(phi=phi, y_l=y_l, kernel=kernel, gamma=gamma),
        lambda phi, y_l, kernel, gamma: least_squares_fir(phi, y_l),
        marginal_likelihood,
        _tune,
    ],
    ids=["RegularizedProblem", "least_squares_fir", "marginal_likelihood", "optimize_hyperparameters"],
)
@pytest.mark.parametrize(
    "factor, length, named",
    [(2, 20, "factor 2 does not match the regressor's 3"), (3, 19, "19 samples but the regressor expects 20")],
    ids=["factor", "length"],
)
def test_output_must_match_regressor(entry, factor, length, named):
    """Every entry point that pairs ``Phi`` with an output takes only an
    output of ``Phi``'s own length M and factor F."""
    problem = make_problem(4, n=60, factor=3, order=10)
    y_l = SlowSignal(samples=np.random.default_rng(4).normal(size=length), period=0.1 * factor, factor=factor)
    with pytest.raises(ValueError, match=named):
        entry(problem.phi, y_l, problem.kernel, problem.gamma)


class TestRegularizedFir:
    def test_zero_output_gives_zero_model(self):
        problem = make_problem(0, y=np.zeros(20))
        np.testing.assert_array_equal(regularized_fir(problem).theta, 0.0)

    def test_huge_gamma_shrinks_to_zero(self):
        problem = make_problem(1, gamma=1e12)
        theta = regularized_fir(problem).theta
        k = dense_kernel(problem.kernel, problem.phi.order)
        bound = np.linalg.norm(k @ problem.phi.entries.T @ problem.y_l.samples) / 1e12
        assert np.linalg.norm(theta) <= bound * (1 + 1e-9)

    def test_recovers_least_squares_as_gamma_vanishes(self):
        rng = np.random.default_rng(2)
        u = FastSignal(samples=rng.normal(size=120), period=0.1)
        phi = build_regressor(u, 2, 15)  # M=60 > P=15, full rank
        clean = phi.entries @ rng.normal(size=15)
        y = SlowSignal(samples=clean + 0.01 * rng.normal(size=clean.size), period=0.2, factor=2)
        ls_theta = least_squares_fir(phi, y).theta
        reg_theta = regularized_fir(
            RegularizedProblem(phi=phi, y_l=y, kernel=Tikhonov(), gamma=1e-10)
        ).theta
        err = np.linalg.norm(reg_theta - ls_theta) / np.linalg.norm(ls_theta)
        assert err <= 1e-4

    def test_single_output_sample_still_unique(self):
        # one slow-rate sample determines a ten-coefficient model under the prior
        rng = np.random.default_rng(3)
        u = FastSignal(samples=rng.normal(size=10), period=0.1)
        phi = build_regressor(u, 1, 10, output_length=1)
        y = SlowSignal(samples=[1.3], period=0.1, factor=1)
        model = regularized_fir(
            RegularizedProblem(phi=phi, y_l=y, kernel=Tikhonov(), gamma=0.1)
        )
        assert model.order == 10
        assert np.all(np.isfinite(model.theta))

    def test_works_for_order_beyond_output_length(self):
        rng = np.random.default_rng(4)
        u = FastSignal(samples=rng.normal(size=45), period=0.1)
        phi = build_regressor(u, 3, 40)  # M=15 < P=40
        y = SlowSignal(samples=rng.normal(size=15), period=0.3, factor=3)
        for kernel in (
            Tikhonov(),
            DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.2),
            StableSpline(scale=1.0, decay=0.8),
            ResonantPole(decay=0.9, frequency=0.5),
        ):
            model = regularized_fir(RegularizedProblem(phi=phi, y_l=y, kernel=kernel, gamma=1e-4))
            assert np.all(np.isfinite(model.theta))

    def test_linear_in_output(self):
        problem = make_problem(5)
        theta = regularized_fir(problem).theta
        scaled = RegularizedProblem(
            phi=problem.phi,
            y_l=SlowSignal(samples=3.0 * problem.y_l.samples, period=problem.y_l.period, factor=problem.y_l.factor),
            kernel=problem.kernel,
            gamma=problem.gamma,
        )
        np.testing.assert_allclose(regularized_fir(scaled).theta, 3.0 * theta, rtol=1e-9, atol=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            make_problem(6, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            make_problem(6, gamma=-1.0)
        problem = make_problem(6)
        for gamma in (-1.0, 0.0, math.inf):
            with pytest.raises(ValueError, match="gamma must be a positive number"):
                _tune(problem.phi, problem.y_l, problem.kernel, gamma)


def random_regressor(rng, order, rows, factor=3):
    """``build_regressor`` with ``rows`` outputs on a random input of
    ``max(order, (rows - 1) F + 1)`` samples."""
    u = FastSignal(samples=rng.normal(size=max(order, (rows - 1) * factor + 1)), period=0.1)
    return build_regressor(u, factor, order, rows)


def dense_gram(phi, kernel):
    """Oracle: ``Phi K Phi'`` through the dense P x P kernel matrix."""
    return phi @ dense_kernel(kernel, phi.shape[1]) @ phi.T


def assert_close_relative(actual, expected, tolerance):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= tolerance * scale


# (order P, output length M): P < M, and P > M where P > 1 allows it; each
# regressor windows a random input at F = 3, and P = 2000 runs the DC
# recursions over the longest lags
GRAM_SHAPES = [(p, p + 7) for p in (1, 2, 63, 64, 65, 600)] + [
    (p, max(p // 3, 1)) for p in (2, 63, 64, 65, 600, 2000)
]


class TestFactoredGram:
    @pytest.mark.parametrize("order, rows", GRAM_SHAPES, ids=[f"P{p}-M{m}" for p, m in GRAM_SHAPES])
    @pytest.mark.parametrize("correlation", [-0.999, -0.7, 0.3, 0.99999, 1 - 1e-9])
    def test_dc_matches_dense(self, order, rows, correlation):
        rng = np.random.default_rng(order)
        phi = random_regressor(rng, order, rows)
        v = rng.normal(size=order)
        kernel = DiagonalCorrelated(scale=1.7, decay=0.97, correlation=correlation)
        assert_close_relative(estimator._output_gram(phi, kernel), dense_gram(phi.entries, kernel), 1e-12)
        assert_close_relative(
            estimator._kernel_times(kernel, v), dense_kernel(kernel, order) @ v, 1e-12
        )

    @pytest.mark.parametrize("order", [5, 70])
    def test_sum_of_every_kernel_matches_dense(self, order):
        rng = np.random.default_rng(26)
        phi = random_regressor(rng, order, 40)
        v = rng.normal(size=order)
        kernel = KernelSum(
            terms=(
                Tikhonov(),
                StableSpline(scale=0.5, decay=0.9),
                DiagonalCorrelated(scale=2.0, decay=0.95, correlation=0.6),
                ResonantPole(decay=0.9, frequency=0.7, sigma1=1.5, sigma2=0.3),
            )
        )
        assert_close_relative(estimator._output_gram(phi, kernel), dense_gram(phi.entries, kernel), 1e-12)
        assert_close_relative(
            estimator._kernel_times(kernel, v), dense_kernel(kernel, order) @ v, 1e-12
        )

    @pytest.mark.parametrize("order", [12, 40], ids=["P<M", "P>M"])  # M = 30
    def test_output_gram_sums_pieces_in_term_order(self, order):
        """The first piece times its scale, then each other term's piece
        added in place: the bits of a sum from zero, term by term; a Gram
        with every term skipped is zero."""
        problem = make_problem(27, n=90, factor=3, order=order, kernel=SHARED_PK)
        kernel = KernelSum(terms=(DiagonalCorrelated(scale=2.5, decay=0.9, correlation=0.4),) + SHARED_PK.terms[1:])
        for spec in (kernel, KernelSum(terms=kernel.terms[::-1])):
            expected = np.zeros((30, 30))
            for term in spec.terms:
                unit, scale = term.unit()
                expected += scale * estimator._unit_piece(problem.phi, unit)
            assert np.array_equal(estimator._output_gram(problem.phi, spec), expected)
        pole = ResonantPole(decay=0.9, frequency=0.7)
        assert np.array_equal(estimator._output_gram(problem.phi, pole, skip=0), np.zeros((30, 30)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        factor=st.integers(1, 4),
        order=st.integers(1, 70),
        log_gamma=st.floats(-2.0, 1.0),
        correlation=st.floats(-0.9, 0.999),
        resonant=st.booleans(),
    )
    def test_regularized_fir_matches_dense_dual(self, seed, factor, order, log_gamma, correlation, resonant):
        rng = np.random.default_rng(seed)
        u = FastSignal(samples=rng.normal(size=max(order, 40)), period=0.1)
        phi = build_regressor(u, factor, order)
        y = rng.normal(size=phi.output_length)
        kernel = DiagonalCorrelated(scale=0.8, decay=0.95, correlation=correlation)
        if resonant:
            kernel = KernelSum(terms=(kernel, ResonantPole(decay=0.9, frequency=1.1)))
        gamma = 10.0**log_gamma
        theta = regularized_fir(
            RegularizedProblem(
                phi=phi, y_l=SlowSignal(samples=y, period=0.1 * factor, factor=factor),
                kernel=kernel, gamma=gamma,
            )
        ).theta
        k = dense_kernel(kernel, order)
        g = phi.entries @ k @ phi.entries.T + gamma * np.eye(phi.output_length)
        expected = k @ phi.entries.T @ np.linalg.solve(g, y)
        assert np.linalg.norm(theta - expected) <= 1e-9 * np.linalg.norm(expected)


class TestFitWithEvidence:
    """One factorization gives what regularized_fir and marginal_likelihood
    give from a factorization each, bit for bit."""

    @pytest.mark.parametrize("order", [12, 45], ids=["P<M", "P>M"])  # M = 30
    @pytest.mark.parametrize(
        "kernel",
        [
            DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4),
            KernelSum(
                terms=(
                    DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4),
                    ResonantPole(decay=0.9, frequency=0.7),
                    ResonantPole(decay=0.85, frequency=2.1, sigma1=0.6, sigma2=1.3),
                )
            ),
        ],
        ids=["dc", "sum"],
    )
    def test_matches_separate_calls(self, kernel, order):
        problem = make_problem(31, n=90, factor=3, order=order, kernel=kernel)
        assert problem.phi.output_length == 30
        model, evidence = fit_with_evidence(problem)
        separate = regularized_fir(problem)
        assert np.array_equal(model.theta, separate.theta)
        assert model.period == separate.period
        assert evidence == marginal_likelihood(problem.phi, problem.y_l, problem.kernel, problem.gamma)


SHARED_DC = DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.4)
SHARED_PK = KernelSum(
    terms=(
        SHARED_DC,
        ResonantPole(decay=0.9, frequency=0.7),
        ResonantPole(decay=0.85, frequency=2.1, sigma1=0.6, sigma2=1.3),
    )
)


def spy_unit_pieces(monkeypatch, rows):
    """Record ``(order, unit term)`` for every term's own array computed on a
    regressor of ``rows`` outputs: its unit piece (its Gram) in the dual, or
    its diagonal block from ``G`` in the feature space."""
    computed = []
    unit_piece, block = estimator._unit_piece, estimator._block

    def spy(phi, unit):
        if phi.output_length == rows:
            computed.append((phi.order, unit))
        return unit_piece(phi, unit)

    def spy_block(phi, unit_s, unit_t, diagonal):
        if phi.output_length == rows and diagonal:
            computed.append((phi.order, unit_s))
        return block(phi, unit_s, unit_t, diagonal)

    monkeypatch.setattr(estimator, "_unit_piece", spy)
    monkeypatch.setattr(estimator, "_block", spy_block)
    return computed


def cached_arrays(phi):
    """Every array that the regressor's cache holds, over all its slots."""
    return [array for held in phi._cache.values() for array in held.values()]


def on_fresh_regressor(problem):
    """``problem`` on a new regressor of the same entries and samples, which
    holds no kernel pieces yet."""
    phi = problem.phi.leading(problem.phi.order)
    return RegularizedProblem(phi=phi, y_l=problem.y_l, kernel=problem.kernel, gamma=problem.gamma)


def assert_same_fit(fit, expected):
    (model, evidence), (expected_model, expected_evidence) = fit, expected
    assert np.array_equal(model.theta, expected_model.theta)
    assert evidence == expected_evidence


# M = 30: dc and pk in the feature space, dc feature and pk dual
# (M - 4 <= P < M), both dual
SPACES = pytest.mark.parametrize(
    "order, shared", [(12, True), (28, False), (40, True)], ids=["feature", "mixed", "dual"]
)


class TestSharedPieces:
    """Fits on one regressor share its kernel pieces: pk reuses dc's DC piece
    (or, in the feature space, its DC block) where unit term and space
    match, with the bits of a fit on a fresh regressor of the same input.
    Where the spaces differ (mixed) each space's DC array is computed once:
    the feature space keeps its DC block in a pair slot, not in the term
    slot that the dual's DC Gram takes."""

    @SPACES
    @pytest.mark.parametrize("names", [("dc", "pk"), ("pk", "dc")], ids=["dc-first", "pk-first"])
    def test_fits_match_fresh_regressors(self, monkeypatch, order, shared, names):
        dc = make_problem(32, n=90, factor=3, order=order, kernel=SHARED_DC)
        problems = {"dc": dc, "pk": RegularizedProblem(phi=dc.phi, y_l=dc.y_l, kernel=SHARED_PK, gamma=dc.gamma)}
        fresh = {name: fit_with_evidence(on_fresh_regressor(problem)) for name, problem in problems.items()}
        computed = spy_unit_pieces(monkeypatch, 30)
        for name in names + names:
            assert_same_fit(fit_with_evidence(problems[name]), fresh[name])
        assert [unit for _, unit in computed].count(SHARED_DC) == (1 if shared else 2)
        # a stored piece is read-only: a Gram factored in place by mistake
        # raises instead of changing every later fit
        assert dc.phi._cache and not any(piece.flags.writeable for piece in cached_arrays(dc.phi))

    @pytest.mark.parametrize("order", [12, 40], ids=["feature", "dual"])
    def test_tuner_then_fit_matches_fresh_regressor(self, order):
        """The tuner leaves each term's latest probe piece on the regressor;
        a later fit there takes only the pieces of its own terms."""
        problem = make_problem(34, n=90, factor=3, order=order, kernel=SHARED_PK)
        eta0 = tuning_start(SHARED_PK, problem.gamma, 3)
        tuned = optimize_hyperparameters(
            problem.phi, problem.y_l, SHARED_PK, eta0, gamma=problem.gamma, budget=120
        )
        kernel, gamma = kernel_and_gamma(SHARED_PK, tuned.values, problem.gamma)
        assert kernel.terms[0] != SHARED_DC  # the search moved the DC term
        for spec, g in ((SHARED_DC, problem.gamma), (SHARED_PK, problem.gamma), (kernel, gamma)):
            fit = RegularizedProblem(phi=problem.phi, y_l=problem.y_l, kernel=spec, gamma=g)
            assert_same_fit(fit_with_evidence(fit), fit_with_evidence(on_fresh_regressor(fit)))

    @pytest.mark.parametrize("order", [12, 40], ids=["feature", "dual"])
    def test_tuner_cache_stays_bounded(self, monkeypatch, order):
        """After a tune of a three-term kernel, the regressor's cache holds,
        in the dual, a slot per term index and, in the feature space, one per
        index pair ``s <= t``, ``G`` and the leading factor (no term slot):
        no slot is keyed by a probe's unit term.  Each slot holds at
        most 16 read-only arrays, though the tune computed more than 16 DC
        arrays."""
        computed = spy_unit_pieces(monkeypatch, 30)
        # the DC decay's pick moves between sweeps here: more than 16 keys
        problem = make_problem(38, n=90, factor=3, order=order, kernel=SHARED_PK)
        eta0 = tuning_start(SHARED_PK, problem.gamma, 3)
        optimize_hyperparameters(problem.phi, problem.y_l, SHARED_PK, eta0, gamma=problem.gamma, budget=600)
        assert len({unit for _, unit in computed if isinstance(unit, DiagonalCorrelated)}) > 16
        pairs = {(s, t) for s in range(3) for t in range(s, 3)}
        expected = {"gram", "lead"} | pairs if order < 30 else {0, 1, 2}
        assert set(problem.phi._cache) == expected
        assert all(1 <= len(held) <= 16 for held in problem.phi._cache.values())
        assert not any(array.flags.writeable for array in cached_arrays(problem.phi))

    def test_dual_tune_computes_each_dc_piece_once(self, monkeypatch):
        """A tuner sweep of the DC ``decay`` revisits the scan grid of the
        sweep before, and its bracket and golden steps where its pick
        repeats: the slot's history of 16 keys serves every revisit, so a
        dual pk tune computes each distinct DC unit Gram once."""
        computed = spy_unit_pieces(monkeypatch, 30)
        problem = make_problem(34, n=90, factor=3, order=40, kernel=SHARED_PK)
        eta0 = tuning_start(SHARED_PK, problem.gamma, 3)
        optimize_hyperparameters(
            problem.phi, problem.y_l, SHARED_PK, eta0, gamma=problem.gamma, budget=tuning_budget(eta0, 600)
        )
        dc = [unit for _, unit in computed if isinstance(unit, DiagonalCorrelated)]
        assert len(dc) == len(set(dc)) == 16

    @SPACES
    def test_threads_alternating_match_serial(self, order, shared):
        """Two threads that fit dc and pk in turn on one regressor, one
        starting with each, get the bits of serial fits: each reads the
        slots' histories while the other replaces them, and where the two
        spaces differ (mixed) each fit's DC array has a slot of its own."""
        dc = make_problem(35, n=90, factor=3, order=order, kernel=SHARED_DC)
        problems = (dc, RegularizedProblem(phi=dc.phi, y_l=dc.y_l, kernel=SHARED_PK, gamma=dc.gamma))
        serial = [fit_with_evidence(on_fresh_regressor(problem)) for problem in problems]
        barrier = threading.Barrier(2)

        def alternate(first):
            barrier.wait()
            return [fit_with_evidence(problems[(first + k) % 2]) for k in range(20)]

        with ThreadPoolExecutor(2) as pool:
            for first, fits in enumerate(pool.map(alternate, (0, 1))):
                for k, fit in enumerate(fits):
                    assert_same_fit(fit, serial[(first + k) % 2])

    def test_threads_churning_one_slot_match_serial(self):
        """Four threads that fit 24 DC decays each, in different orders, on
        one dual regressor (so slot 0 evicts all the time), with a short
        switch interval: every fit has the bits of a fit on a fresh
        regressor, and no slot ever holds more than 16 arrays."""
        base = make_problem(36, n=90, factor=3, order=40, kernel=SHARED_DC)
        decays = np.linspace(0.8, 0.98, 24)
        kernels = [replace(SHARED_DC, decay=float(decay)) for decay in decays]
        serial = [fit_with_evidence(on_fresh_regressor(replace(base, kernel=kernel))) for kernel in kernels]
        barrier = threading.Barrier(4)

        def churn(shift):
            barrier.wait()
            fits = []
            for round_ in range(3):
                for k in np.roll(np.arange(24), 5 * shift + round_):
                    fits.append((k, fit_with_evidence(replace(base, kernel=kernels[k]))))
                    assert all(len(held) <= 16 for held in list(base.phi._cache.values()))
            return fits

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(churn, shift) for shift in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for fits in results:
            assert len(fits) == 72
            for k, fit in fits:
                assert_same_fit(fit, serial[k])

    @pytest.mark.parametrize("tune, per_order", [(False, 1), (True, 2)], ids=["untuned", "tuned"])
    def test_monte_carlo_dc_pieces_per_order(self, monkeypatch, tune, per_order):
        """An untuned run's pk fit reuses the dc fit's DC piece at every order;
        tuned, the two DC terms differ and each is computed."""
        computed = spy_unit_pieces(monkeypatch, 30)
        fit, fitting = sim.regularized_fir, []

        def fit_only(problem):
            fitting.append(len(computed))  # pieces computed before this fit
            return fit(problem)

        monkeypatch.setattr(sim, "regularized_fir", fit_only)
        orders = (12, 20, 40)  # M = 30, and each order in one space for both fits
        config = sim.MonteCarloConfig(runs=1, n_samples=90, orders=orders, estimators=("dc", "pk"), tune=tune)
        assert not sim.run_monte_carlo(config).errors
        in_fits = computed[fitting[0]:]
        dc_orders = [order for order, unit in in_fits if isinstance(unit, DiagonalCorrelated)]
        assert dc_orders == [order for order in orders for _ in range(per_order)]


def dense_dual_fit(phi, y, kernel, gamma):
    """Oracle: the dual formula through the dense P x P kernel matrix."""
    k = dense_kernel(kernel, phi.shape[1])
    gram = phi @ k @ phi.T + gamma * np.eye(phi.shape[0])
    return k @ phi.T @ np.linalg.solve(gram, y)


TWO_RESONANCES = (
    ResonantPole(decay=0.9, frequency=0.7),
    ResonantPole(decay=0.85, frequency=2.1, sigma1=0.6, sigma2=1.3),
)

# (kernel, factor columns beyond the order): n = P + extra
FEATURE_KERNELS = {
    "dc": (DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4), 0),
    "dc+2pk": (KernelSum(terms=(DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4),) + TWO_RESONANCES), 4),
    # the first term leads the bordered factor: here a 2 x 2 block
    "2pk+dc": (KernelSum(terms=TWO_RESONANCES + (DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4),)), 4),
    "tikhonov": (Tikhonov(), 0),
}


class TestFeatureSpace:
    """Where every term has a structured factor and n < M, the fit solves with
    the n x n X'X + gamma I; it must match the dense dual formula and the
    naive evidence on both sides of n = M (M = 30 here)."""

    def check(self, problem, feature):
        phi, y = problem.phi.entries, problem.y_l.samples
        assert estimator._in_feature_space(estimator._terms(problem.kernel), *phi.shape) == feature
        model, evidence = fit_with_evidence(problem)
        expected = dense_dual_fit(phi, y, problem.kernel, problem.gamma)
        assert np.linalg.norm(model.theta - expected) <= 1e-10 * np.linalg.norm(expected)
        naive = naive_marginal_likelihood(problem.phi, y, problem.kernel, problem.gamma)
        assert evidence == pytest.approx(naive, rel=1e-10)
        assert evidence == marginal_likelihood(problem.phi, problem.y_l, problem.kernel, problem.gamma)

    @pytest.mark.parametrize("gamma", [1e-3, 1.0])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["n=M-1", "n=M", "n=M+1"])
    @pytest.mark.parametrize("name", sorted(FEATURE_KERNELS))
    def test_matches_dense_dual(self, name, offset, gamma):
        kernel, extra = FEATURE_KERNELS[name]
        order = 30 + offset - extra
        problem = make_problem(41, n=90, factor=3, order=order, gamma=gamma, kernel=kernel)
        self.check(problem, feature=offset < 0)

    @pytest.mark.parametrize("order", [30, 45])
    def test_pure_resonant_kernel_at_order_beyond_m(self, order):
        # n = 2 columns whatever the order
        problem = make_problem(42, n=90, factor=3, order=order, gamma=1e-3, kernel=TWO_RESONANCES[0])
        self.check(problem, feature=True)

    @pytest.mark.parametrize("order", [14, 15, 16, 29, 30, 31])
    def test_stable_spline_switches_at_2p_equals_m(self, order):
        # n = 2P: feature space at P = 14, dual from P = 15 (n = M) on
        problem = make_problem(43, n=90, factor=3, order=order, gamma=1e-3, kernel=StableSpline(scale=1.0, decay=0.8))
        self.check(problem, feature=2 * order < 30)

    @pytest.mark.parametrize("order", [12, 13])
    def test_stable_spline_with_resonances(self, order):
        # n = 2P + 4: feature space at P = 12, dual at P = 13
        kernel = KernelSum(terms=(StableSpline(scale=1.5, decay=0.9),) + TWO_RESONANCES)
        problem = make_problem(46, n=90, factor=3, order=order, gamma=1e-3, kernel=kernel)
        self.check(problem, feature=order == 12)

    @pytest.mark.parametrize("kernel", [FEATURE_KERNELS["dc"][0], FEATURE_KERNELS["dc+2pk"][0]], ids=["dc", "dc+2pk"])
    def test_allocates_no_output_gram(self, kernel):
        """At M = 2000 and P = 200 no M x M array is allocated: the peak of
        the fit and of the evidence stays below the size of one."""
        problem = make_problem(44, n=6000, factor=3, order=200, gamma=1e-3, kernel=kernel)
        m = problem.phi.output_length
        assert m == 2000
        tracemalloc.start()
        try:
            fit_with_evidence(problem)
            marginal_likelihood(problem.phi, problem.y_l, problem.kernel, problem.gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8


def spy_blocks(monkeypatch):
    """Record ``(rows, columns)`` of every unit block ``(Phi L_s)'(Phi L_t)`` computed."""
    products = []
    block = estimator._block

    def spy(phi, unit_s, unit_t, diagonal):
        computed = block(phi, unit_s, unit_t, diagonal)
        products.append(computed.shape)
        return computed

    monkeypatch.setattr(estimator, "_block", spy)
    return products


class TestBlockGram:
    """In the feature space ``A = X'X`` is assembled from one cached unit
    block ``(Phi L_s)'(Phi L_t)`` per term pair (M = 30 here): a block is
    computed once per pair of unit terms, and reused by later fits and probes."""

    @pytest.mark.parametrize(
        "kernel",
        [
            FEATURE_KERNELS["dc+2pk"][0],
            KernelSum(
                terms=(
                    Tikhonov(),
                    StableSpline(scale=0.5, decay=0.9),
                    DiagonalCorrelated(scale=2.0, decay=0.95, correlation=0.6),
                    ResonantPole(decay=0.9, frequency=0.7, sigma1=1.5, sigma2=0.3),
                )
            ),
        ],
        ids=["dc+2pk", "every-kernel"],
    )
    def test_gram_matches_oracle(self, kernel):
        """``A`` is ``X'X`` for ``X = Phi L``, with ``L`` the factor whose
        ``L L'`` is the oracle's kernel matrix."""
        order = 6  # n = 4P + 2 = 26 < M for every kernel
        problem = make_problem(51, n=90, factor=3, order=order, kernel=kernel)
        factor = np.hstack([term.factor(np.eye(order)) for term in estimator._terms(kernel)])
        assert_close_relative(factor @ factor.T, dense_kernel(kernel, order), 1e-12)
        x = problem.phi.entries @ factor
        gram = estimator._feature_gram(problem.phi, kernel)
        assert_close_relative(gram, x.T @ x, 1e-12)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("offset", [-1, 1], ids=["n=M-1", "n=M+1"])
    @pytest.mark.parametrize("name", ["dc", "dc+2pk", "2pk+dc"])
    def test_evidence_matches_dual(self, monkeypatch, name, offset):
        """On either side of n = M the block Gram's evidence is the dual's."""
        kernel, extra = FEATURE_KERNELS[name]
        problem = make_problem(41, n=90, factor=3, order=30 + offset - extra, kernel=kernel)
        natural = marginal_likelihood(problem.phi, problem.y_l, kernel, problem.gamma)
        # the other space on a fresh regressor: the feature space at n = M + 1
        monkeypatch.setattr(estimator, "_in_feature_space", lambda terms, m, order: offset > 0)
        fresh = on_fresh_regressor(problem)
        other = marginal_likelihood(fresh.phi, fresh.y_l, kernel, problem.gamma)
        assert any(isinstance(slot, tuple) for slot in fresh.phi._cache) == (offset > 0)
        assert other == pytest.approx(natural, rel=1e-10)

    def test_pk_after_dc_reuses_dc_block(self, monkeypatch):
        """pk after dc computes its cross and resonant blocks, not the DC
        block, and gets the bits of pk fitted alone."""
        dc = make_problem(32, n=90, factor=3, order=12, kernel=SHARED_DC)
        pk = RegularizedProblem(phi=dc.phi, y_l=dc.y_l, kernel=SHARED_PK, gamma=dc.gamma)
        alone = fit_with_evidence(on_fresh_regressor(pk))
        products = spy_blocks(monkeypatch)
        fit_with_evidence(dc)
        assert products == [(12, 12)]
        assert_same_fit(fit_with_evidence(pk), alone)
        assert products == [(12, 12), (12, 2), (12, 2), (2, 2), (2, 2), (2, 2)]
        assert not any(block.flags.writeable for block in cached_arrays(dc.phi))

    def test_fits_take_every_block_from_gram(self, monkeypatch):
        """dc then pk in the feature space build every block from ``G``: no
        term's ``regressor_factor`` runs, and no term slot is cached."""
        dc = make_problem(32, n=90, factor=3, order=12, kernel=SHARED_DC)
        pk = RegularizedProblem(phi=dc.phi, y_l=dc.y_l, kernel=SHARED_PK, gamma=dc.gamma)
        factored = []
        for cls in (_Kernel, DiagonalCorrelated, ResonantPole):

            def spy(self, phi, original=cls.regressor_factor):
                factored.append(self)
                return original(self, phi)

            monkeypatch.setattr(cls, "regressor_factor", spy)
        fit_with_evidence(dc)
        fit_with_evidence(pk)
        assert factored == []
        assert not any(isinstance(slot, int) for slot in dc.phi._cache)

    def tune(self, problem, eta0, budget=60):
        trace = []
        optimize_hyperparameters(
            problem.phi, problem.y_l, SHARED_PK, tuning_start(SHARED_PK, problem.gamma, 3, eta0),
            gamma=problem.gamma, budget=budget, on_evaluation=lambda values, ml: trace.append((values, ml)),
        )
        return trace

    def test_decay_probe_recomputes_dc_blocks(self, monkeypatch):
        """A new DC decay is a new DC piece: its block and both cross blocks
        are computed again, the resonant blocks only once; every value is
        the one a fresh regressor gives, bit for bit."""
        problem = make_problem(34, n=90, factor=3, order=12, kernel=SHARED_PK)
        pieces, products = spy_unit_pieces(monkeypatch, 30), spy_blocks(monkeypatch)
        trace = self.tune(problem, {"gamma": problem.gamma, "terms.0.decay": 0.9, "terms.0.scale": 1.0})
        dc_pieces = sum(isinstance(unit, DiagonalCorrelated) for _, unit in pieces)
        assert dc_pieces > 10
        assert products.count((12, 12)) == dc_pieces
        assert products.count((12, 2)) == 2 * dc_pieces
        assert products.count((2, 2)) == 3
        for values, value in trace:
            spec, gamma = kernel_and_gamma(SHARED_PK, values, problem.gamma)
            fresh = on_fresh_regressor(RegularizedProblem(problem.phi, problem.y_l, spec, gamma))
            assert value == marginal_likelihood(fresh.phi, fresh.y_l, spec, gamma)

    def test_resonant_probe_reuses_dc_block(self, monkeypatch):
        """Probes of a resonant frequency leave the DC term as it is: the DC
        block is computed once, for the start, while every probe's resonant
        blocks are computed again."""
        problem = make_problem(34, n=90, factor=3, order=12, kernel=SHARED_PK)
        products = spy_blocks(monkeypatch)
        self.tune(problem, {"terms.1.frequency": 0.7, "terms.2.frequency": 2.1})
        assert products.count((12, 12)) == 1
        assert products.count((2, 2)) > 3

    def test_resonant_tune_factors_only_feature_grams(self, monkeypatch):
        """A feature-space tune of resonant fields factors the DC term's
        shifted 12 x 12 block once, for the start, and then per evaluation
        only the 4 x 4 Schur complement that borders it (n = 16 < M = 30):
        no n x n and no M x M factorization."""
        problem = make_problem(34, n=90, factor=3, order=12, kernel=SHARED_PK)
        orders = []
        cholesky = estimator._lower_cholesky

        def spy(a, shifted, gamma):
            orders.append((a.shape[0], shifted.shape[0]))
            return cholesky(a, shifted, gamma)

        monkeypatch.setattr(estimator, "_lower_cholesky", spy)
        trace = self.tune(problem, {"terms.1.frequency": 0.7, "terms.2.sigma1": 0.6})
        # the last trace entry is the accepted point again, not an evaluation
        assert len(trace) == 61
        assert orders == [(12, 16)] + [(4, 16)] * 60


GRAM_KERNELS = {
    "dc": SHARED_DC,
    "dc+pole": KernelSum(terms=(SHARED_DC, TWO_RESONANCES[0])),
    "pole+dc": KernelSum(terms=(TWO_RESONANCES[0], SHARED_DC)),
    "ss": StableSpline(scale=0.7, decay=0.85),
    "tikhonov": Tikhonov(),
}


def bordered(problem):
    """``(A + gamma I, factor, log det)`` of the feature-space fit of ``problem``."""
    gram = estimator._feature_gram(problem.phi, problem.kernel)
    shifted = gram + problem.gamma * np.eye(len(gram))
    factor = estimator._shifted_factor(gram, problem.gamma, problem.phi, estimator._terms(problem.kernel)[0])
    return shifted, factor, factor.logdet


class TestGramBlocks:
    """Every term takes its blocks from ``G = Phi'Phi``, and the
    feature-space Cholesky borders the first term's factor, which the
    regressor keeps."""

    @pytest.mark.parametrize("shape", ["P<F", "n=M-1"])
    @pytest.mark.parametrize("name", sorted(GRAM_KERNELS))
    def test_blocks_match_dense_oracle(self, name, shape):
        """``A`` is the dense ``X'X`` for ``X = Phi L``, ``L L'`` the oracle's
        kernel matrix, to 1e-12 relative, and bitwise symmetric."""
        kernel = GRAM_KERNELS[name]
        order = 2 if shape == "P<F" else 16
        n = sum(term.width(order) for term in estimator._terms(kernel))
        rows = 30 if shape == "P<F" else n + 1
        phi = random_regressor(np.random.default_rng(61), order, rows)
        assert estimator._in_feature_space(estimator._terms(kernel), rows, order)
        factor = np.hstack([term.factor(np.eye(order)) for term in estimator._terms(kernel)])
        assert_close_relative(factor @ factor.T, dense_kernel(kernel, order), 1e-12)
        x = phi.entries @ factor
        gram = estimator._feature_gram(phi, kernel)
        assert_close_relative(gram, x.T @ x, 1e-12)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("name", ["dc", "dc+2pk", "2pk+dc"])
    def test_bordered_factor_reproduces_shifted_gram(self, name):
        """``L L' = A + gamma I`` to 1e-12 relative for the block factor
        ``[[lead, 0], [border, corner]]``, with its log-determinant, and
        its solve inverts ``A + gamma I``."""
        kernel, extra = FEATURE_KERNELS[name]
        problem = make_problem(62, n=90, factor=3, order=20 - extra, kernel=kernel)
        shifted, factor, logdet = bordered(problem)
        k = estimator._terms(kernel)[0].width(problem.phi.order)
        assert factor.lead.shape == (k, k) and len(factor.corner) == len(shifted) - k
        lower = np.block([
            [np.tril(factor.lead), np.zeros((k, len(factor.corner)))],
            [factor.border, np.tril(factor.corner)],
        ])
        assert_close_relative(lower @ lower.T, shifted, 1e-12)
        assert logdet == pytest.approx(np.linalg.slogdet(shifted)[1], rel=1e-12)
        rhs = np.random.default_rng(63).normal(size=len(shifted))
        expected = np.linalg.solve(shifted, rhs)
        assert np.linalg.norm(factor.solve(rhs) - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("name", sorted(GRAM_KERNELS) + ["dual"])
    def test_factor_logdet_matches_slogdet(self, name):
        """The factor's ``logdet`` is ``log det(gram + gamma I)`` to 1e-12
        relative, for every feature-space kernel here (bordered or not) and
        for a dual Gram (one block, no border)."""
        kernel, order = (SHARED_PK, 40) if name == "dual" else (GRAM_KERNELS[name], 16)
        n = sum(term.width(order) for term in estimator._terms(kernel))
        rows = 30 if name == "dual" else n + 1
        phi = random_regressor(np.random.default_rng(65), order, rows)
        feature = estimator._in_feature_space(estimator._terms(kernel), rows, order)
        assert feature == (name != "dual")
        gamma = 1e-2
        gram = estimator._feature_gram(phi, kernel) if feature else estimator._output_gram(phi, kernel)
        shifted = gram + gamma * np.eye(len(gram))
        factor = estimator._shifted_factor(gram, gamma, *((phi, estimator._terms(kernel)[0]) if feature else ()))
        np.testing.assert_array_equal(gram, shifted)
        assert feature or len(factor.lead) == rows
        assert factor.logdet == pytest.approx(np.linalg.slogdet(shifted)[1], rel=1e-12)

    def test_pk_after_dc_factors_only_the_border(self, monkeypatch):
        """dc factors its shifted 12 x 12 Gram once; pk after it, whose first
        term is dc's kernel at the same gamma, factors only the 4 x 4 Schur
        complement of its two resonant terms, and so does every probe of a
        resonant coordinate after them."""
        dc = make_problem(32, n=90, factor=3, order=12, kernel=SHARED_DC)
        pk = RegularizedProblem(phi=dc.phi, y_l=dc.y_l, kernel=SHARED_PK, gamma=dc.gamma)
        sizes = []
        cholesky = estimator._lower_cholesky

        def spy(a, shifted, gamma):
            sizes.append(a.shape[0])
            return cholesky(a, shifted, gamma)

        monkeypatch.setattr(estimator, "_lower_cholesky", spy)
        fit_with_evidence(dc)
        fit_with_evidence(pk)
        assert sizes == [12, 4]
        sizes.clear()
        eta0 = tuning_start(SHARED_PK, dc.gamma, 3, {"terms.1.frequency": 0.7})
        optimize_hyperparameters(dc.phi, dc.y_l, SHARED_PK, eta0, gamma=dc.gamma, budget=20)
        assert sizes == [4] * 20

    def test_nonfinite_trailing_block_fails_and_scores_inf(self):
        """A resonant term whose blocks overflow makes the bordered
        step fail with the diagnostics of the whole shifted Gram; the DC
        factor it borders stays as it was, and the tuner scores such a
        probe +inf and goes on."""
        problem = make_problem(64, n=90, factor=3, order=12, kernel=SHARED_PK)
        fine = fit_with_evidence(problem)
        huge = apply_hyperparameters(SHARED_PK, {"terms.1.sigma1": 1e300})
        with pytest.raises(NumericalError, match="16x16 regularized Gram") as excinfo, np.errstate(all="ignore"):
            marginal_likelihood(problem.phi, problem.y_l, huge, problem.gamma)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["gamma"] == problem.gamma and diagnostics["nonfinite_entries"] > 0
        assert_same_fit(fit_with_evidence(problem), fine)
        eta0 = HyperparameterVector(values={"terms.1.sigma1": 1.0}, bounds={"terms.1.sigma1": (1e-2, 1e300)})
        trace = []
        with np.errstate(all="ignore"):
            result = optimize_hyperparameters(
                problem.phi, problem.y_l, SHARED_PK, eta0, gamma=problem.gamma, budget=30,
                on_evaluation=lambda values, ml: trace.append(ml),
            )
        assert math.inf in trace[:-1]
        assert trace[-1] <= trace[0] < math.inf
        assert result.values["terms.1.sigma1"] < 1e300


class TestPrimalCheck:
    def test_matches_dual_form(self):
        for seed in range(10):
            problem = make_problem(seed, n=60, factor=3, order=10)
            dual = regularized_fir(problem).theta
            primal = primal_check(problem).theta
            err = np.linalg.norm(dual - primal) / np.linalg.norm(primal)
            assert err < 1e-8

    def test_tikhonov_reduces_to_ridge(self):
        problem = make_problem(11, kernel=Tikhonov(), gamma=0.3)
        phi = problem.phi.entries
        ridge = np.linalg.solve(
            phi.T @ phi + 0.3 * np.eye(problem.phi.order), phi.T @ problem.y_l.samples
        )
        np.testing.assert_allclose(primal_check(problem).theta, ridge, rtol=1e-10)

    def test_scalar_order_closed_form(self):
        # P=1: theta = sum(phi_m y_m) / (sum(phi_m^2) + gamma / k(0,0))
        rng = np.random.default_rng(12)
        u = FastSignal(samples=rng.normal(size=30), period=0.1)
        phi = build_regressor(u, 3, 1)
        y = SlowSignal(samples=rng.normal(size=10), period=0.3, factor=3)
        kernel = DiagonalCorrelated(scale=2.0, decay=0.5, correlation=0.1)
        gamma = 0.7
        column = phi.entries[:, 0]
        expected = (column @ y.samples) / (column @ column + gamma / 2.0)
        theta = primal_check(RegularizedProblem(phi=phi, y_l=y, kernel=kernel, gamma=gamma)).theta
        assert theta[0] == pytest.approx(expected, rel=1e-12)

    def test_singular_kernel_inapplicable(self):
        # a single resonant pole gives a rank-2 matrix, singular for P > 2
        problem = make_problem(13, kernel=ResonantPole(decay=0.9, frequency=0.4))
        with pytest.raises(OracleInapplicableError):
            primal_check(problem)


class TestMarginalLikelihood:
    def test_negligible_kernel_reduces_to_energy(self):
        problem = make_problem(14, gamma=1.0)
        tiny = DiagonalCorrelated(scale=1e-30, decay=0.9, correlation=0.1)
        y = problem.y_l.samples
        value = marginal_likelihood(problem.phi, problem.y_l, tiny, 1.0)
        assert value == pytest.approx(float(y @ y), rel=1e-9)

    def test_scalar_output_closed_form(self):
        rng = np.random.default_rng(15)
        u = FastSignal(samples=rng.normal(size=8), period=0.1)
        phi = build_regressor(u, 1, 8, output_length=1)
        y = SlowSignal(samples=[0.9], period=0.1, factor=1)
        kernel = Tikhonov()
        gamma = 0.2
        row = phi.entries[0]
        denom = row @ row + gamma
        expected = 0.9**2 / denom + math.log(denom)
        assert marginal_likelihood(phi, y, kernel, gamma) == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_dense(self):
        rng = np.random.default_rng(16)
        for seed in range(50):
            n = int(rng.integers(15, 90))
            factor = int(rng.integers(1, 4))
            order = int(rng.integers(2, 14))
            problem = make_problem(seed, n=max(n, order), factor=factor, order=order, gamma=10 ** rng.uniform(-6, 1))
            if problem.phi.output_length > 30:
                continue
            naive = naive_marginal_likelihood(
                problem.phi, problem.y_l.samples, problem.kernel, problem.gamma
            )
            ours = marginal_likelihood(problem.phi, problem.y_l, problem.kernel, problem.gamma)
            assert ours == pytest.approx(naive, rel=1e-8)

    def test_scale_recovered_within_decade(self):
        # self-consistency: coefficients drawn from the prior at a known scale
        rng = np.random.default_rng(17)
        true_scale = 0.05
        kernel_true = DiagonalCorrelated(scale=true_scale, decay=0.95, correlation=0.5)
        order = 25
        k = dense_kernel(kernel_true, order)
        theta_true = np.linalg.cholesky(k + 1e-12 * np.eye(order)) @ rng.normal(size=order)
        u = FastSignal(samples=rng.normal(size=300), period=0.1)
        phi = build_regressor(u, 2, order)
        noise = 0.001 * rng.normal(size=phi.output_length)
        y = SlowSignal(samples=phi.entries @ theta_true + noise, period=0.2, factor=2)

        scales = np.geomspace(1e-5, 1e2, 40)
        values = [
            marginal_likelihood(
                phi, y, DiagonalCorrelated(scale=s, decay=0.95, correlation=0.5), 1e-6
            )
            for s in scales
        ]
        best = scales[int(np.argmin(values))]
        assert true_scale / 10 <= best <= true_scale * 10


class TestNonFiniteGram:
    """A kernel scale near the top of double range overflows ``Phi K Phi'``."""

    @pytest.mark.parametrize(
        "fit",
        [lambda p: marginal_likelihood(p.phi, p.y_l, p.kernel, p.gamma), regularized_fir, fit_with_evidence],
        ids=["marginal_likelihood", "regularized_fir", "fit_with_evidence"],
    )
    def test_raises_numerical_error(self, fit):
        kernel = DiagonalCorrelated(scale=1e308, decay=0.9, correlation=0.3)
        problem = make_problem(18, n=90, factor=3, order=12, kernel=kernel)
        with pytest.raises(NumericalError) as excinfo, np.errstate(over="ignore", invalid="ignore"):
            fit(problem)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["nonfinite_entries"] > 0
        assert all(math.isfinite(value) for value in diagnostics.values())


class TestOptimizeHyperparameters:
    def setup_problem(self, seed=18):
        problem = make_problem(seed, n=90, factor=3, order=12, gamma=1e-3)
        template = DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.3)
        eta0 = HyperparameterVector(
            values={"gamma": 1e-3, "scale": 1.0, "decay": 0.9},
            bounds={"gamma": (1e-9, 1e3), "scale": (1e-2, 1e2), "decay": (0.5, 0.99)},
        )
        return problem, template, eta0

    def test_budget_one_returns_start(self):
        problem, template, eta0 = self.setup_problem()
        result = optimize_hyperparameters(
            problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=1
        )
        assert result.values == eta0.values

    def test_never_worsens(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            problem = make_problem(int(rng.integers(0, 1000)), n=45, factor=3, order=8)
            template = DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.3)
            eta0 = HyperparameterVector(
                values={"scale": 1.0, "decay": 0.9},
                bounds={"scale": (1e-2, 1e2), "decay": (0.5, 0.999)},
            )
            budget = int(rng.integers(1, 60))
            result = optimize_hyperparameters(
                problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=budget
            )
            before = marginal_likelihood(problem.phi, problem.y_l, template, 1e-3)
            tuned = apply_hyperparameters(template, result.values)
            after = marginal_likelihood(problem.phi, problem.y_l, tuned, 1e-3)
            assert after <= before * (1 + 1e-12) if before > 0 else after <= before + 1e-9

    def test_deterministic(self):
        problem, template, eta0 = self.setup_problem()
        a = optimize_hyperparameters(problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=50)
        b = optimize_hyperparameters(problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=50)
        assert a.values == b.values

    def test_trace_final_not_worse_than_first(self):
        problem, template, eta0 = self.setup_problem()
        trace = []
        optimize_hyperparameters(
            problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=40,
            on_evaluation=lambda values, ml: trace.append(ml),
        )
        assert trace[-1] <= trace[0]

    def huge_output(self, problem):
        return SlowSignal(
            samples=np.full(problem.phi.output_length, 1e190),
            period=problem.y_l.period,
            factor=problem.y_l.factor,
        )

    def test_nonfinite_start_rejected(self):
        # with P=12 < M=30 a stable spline's X = Phi L (2P = 24 columns) has
        # rank at most 12, so adding gamma=1e-300 leaves the 24 x 24 X'X
        # singular in floating point: the factorization fails, and the exact
        # objective (about 1e380 / 1e-300) is +inf.  A DC kernel's 12 x 12
        # X'X + gamma I would be positive definite here, and its objective
        # overflows to +inf without failing
        problem, _, _ = self.setup_problem()
        template = StableSpline(scale=1.0, decay=0.9)
        eta0 = HyperparameterVector(
            values={"scale": 1e-2}, bounds={"scale": (1e-2, 1e2)}
        )
        with pytest.raises(InvalidStartError) as excinfo:
            optimize_hyperparameters(
                problem.phi, self.huge_output(problem), template, eta0, gamma=1e-300, budget=5
            )
        cause = excinfo.value.__cause__
        assert isinstance(cause, NumericalError)
        assert cause.diagnostics["gamma"] == 1e-300

    def test_overflowing_start_rejected(self):
        # at gamma=1e-3 the factorization succeeds, but enormous outputs
        # against a small covariance overflow the quadratic form to inf
        problem, template, _ = self.setup_problem()
        eta0 = HyperparameterVector(
            values={"scale": 1e-2}, bounds={"scale": (1e-2, 1e2)}
        )
        with pytest.raises(InvalidStartError) as excinfo, np.errstate(over="ignore"):
            optimize_hyperparameters(
                problem.phi, self.huge_output(problem), template, eta0, gamma=1e-3, budget=5
            )
        assert excinfo.value.__cause__ is None

    @pytest.mark.parametrize(
        "eta0, nonfinite_gram, template",
        [
            # the gamma grid reaches 1e-300, where a stable spline's shifted
            # 24 x 24 X'X (rank 12, from P=12 < M=30) is singular
            (
                HyperparameterVector(
                    values={"gamma": 1e-3, "scale": 1.0},
                    bounds={"gamma": (1e-300, 1e3), "scale": (1e-2, 1e2)},
                ),
                False,
                StableSpline(scale=1.0, decay=0.9),
            ),
            # the scale grid reaches 1e308, where the Gram overflows to inf/NaN
            (
                HyperparameterVector(values={"scale": 1.0}, bounds={"scale": (1e-2, 1e308)}),
                True,
                DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.3),
            ),
        ],
        ids=["singular", "nonfinite"],
    )
    def test_failed_probe_rejected(self, eta0, nonfinite_gram, template):
        problem, _, _ = self.setup_problem()

        def evidence(values):
            return marginal_likelihood(problem.phi, problem.y_l, *kernel_and_gamma(template, values, 1e-3))

        trace = []
        with np.errstate(over="ignore", invalid="ignore"):
            result = optimize_hyperparameters(
                problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=60,
                on_evaluation=lambda values, ml: trace.append((values, ml)),
            )
            # every rejected probe is one whose evidence fails to evaluate
            failures = []
            for values in (values for values, ml in trace if ml == math.inf):
                with pytest.raises(NumericalError) as excinfo:
                    evidence(values)
                failures.append(excinfo.value)
        assert failures
        assert any(f.diagnostics["nonfinite_entries"] > 0 for f in failures) == nonfinite_gram
        assert math.isfinite(evidence(result.values))
        assert evidence(result.values) <= evidence(eta0.values)

    @pytest.mark.parametrize("name, bounds, per_sweep", [("decay", (0.5, 0.99), 15), ("frequency", (0.1, 3.0), 33)])
    def test_evaluations_per_coordinate_sweep(self, name, bounds, per_sweep):
        """One sweep of a coordinate spends its scan (25 points for a
        frequency, 7 otherwise), 2 bracketing probes and 6 golden steps,
        and every sweep starts its scan at the lower bound."""
        problem = make_problem(5, n=90, factor=3, order=12)
        template = ResonantPole(decay=0.9, frequency=0.4)
        eta0 = HyperparameterVector(values={name: getattr(template, name)}, bounds={name: bounds})
        trace = []
        optimize_hyperparameters(
            problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=1000,
            on_evaluation=lambda values, ml: trace.append(values[name]),
        )
        probes = trace[1:-1]  # without the start and the terminal entry
        assert len(probes) >= per_sweep
        assert [i for i, x in enumerate(probes) if x == bounds[0]] == list(range(0, len(probes), per_sweep))

    def test_gamma_tuned_only_when_present(self):
        problem, template, _ = self.setup_problem()
        eta0 = HyperparameterVector(values={"decay": 0.9}, bounds={"decay": (0.5, 0.999)})
        result = optimize_hyperparameters(
            problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=30
        )
        assert "gamma" not in result.values

    def test_budget_cuts_the_unbounded_trace(self, order=12):
        """Every budget stops the search after exactly that many evaluations
        (or at its natural stop), wherever the cut falls: in a scan, between
        the bracketing probes, in the golden steps or between coordinates.
        What it traced is a prefix of the unbounded run's trace, and the
        terminal entry is the point it returns."""
        problem = make_problem(7, n=90, factor=3, order=order)
        template = KernelSum(
            terms=(DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.5), ResonantPole(decay=0.9, frequency=0.8))
        )
        eta0 = tuning_start(template, 1e-3, 3, {"gamma": 1e-3, "terms.0.scale": 1.0, "terms.1.frequency": 0.8})

        def run(budget):
            trace = []
            result = optimize_hyperparameters(
                problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=budget,
                on_evaluation=lambda values, ml: trace.append((values, ml)),
            )
            return trace[:-1], trace[-1], result.values

        unbounded, _, _ = run(10_000)
        natural = len(unbounded)
        assert 63 < natural < 10_000  # more than one sweep, and a stop of its own
        for budget in range(1, natural + 3):
            evaluations, (values, _), result = run(budget)
            assert evaluations == unbounded[: min(budget, natural)]
            assert values == result

    def test_budget_cut_inside_a_dual_scan(self):
        """The same in the dual, where the resonant frequency's scan is one
        rank-2 call: a cut inside it scores only the grid points that the
        budget leaves, with the unbounded run's points and values."""
        self.test_budget_cuts_the_unbounded_trace(order=40)

    @pytest.mark.parametrize("order", [12, 40], ids=["feature", "dual"])
    @pytest.mark.parametrize(
        "template, eta0, pieces",
        [
            (DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.5), {"gamma": 1e-3, "scale": 1.0}, 1),
            (
                KernelSum(
                    terms=(
                        DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.5),
                        ResonantPole(decay=0.9, frequency=0.8),
                        ResonantPole(decay=0.85, frequency=2.0),
                    )
                ),
                {"gamma": 1e-3, "terms.0.scale": 1.0},
                3,
            ),
        ],
        ids=["dc", "pk-sum"],
    )
    def test_each_unit_piece_computed_once(self, monkeypatch, order, template, eta0, pieces):
        """Probes of ``gamma`` and of a DC scale leave every unit term as it
        is, so the tuner computes each term's unit piece once, at the start,
        and reuses it for every probe; a second call on the same regressor
        finds every piece there and computes none."""
        m = 30
        assert estimator._in_feature_space(estimator._terms(template), m, order) == (order < m)
        computed = spy_unit_pieces(monkeypatch, m)
        start = tuning_start(template, 1e-3, 3, eta0)
        for budget in (1, 2, 9, 40, 200):
            problem = make_problem(7, n=90, factor=3, order=order)
            assert problem.phi.output_length == m
            for expected in (pieces, 0):
                computed.clear()
                optimize_hyperparameters(problem.phi, problem.y_l, template, start, gamma=1e-3, budget=budget)
                assert len(computed) == expected


    @pytest.mark.parametrize("order", [12, 40], ids=["feature", "dual"])
    def test_whole_kernel_built_a_fixed_number_of_times(self, monkeypatch, order):
        """A probe moves one term of the accepted kernel, so the tuner builds
        a whole kernel from the template only for its start and its bound
        check, whatever the budget; it used to build one per probe."""
        problem = make_problem(7, n=90, factor=3, order=order)
        template = KernelSum(
            terms=(
                DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.5),
                ResonantPole(decay=0.9, frequency=0.8),
                ResonantPole(decay=0.85, frequency=2.0),
            )
        )
        m = problem.phi.output_length
        assert estimator._in_feature_space(template.terms, m, order) == (order < m)
        built = []
        build = estimator.kernel_and_gamma

        def spy(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(estimator, "kernel_and_gamma", spy)
        start = tuning_start(template, 1e-3, 3)
        counts = []
        for budget in (1, 9, 40, 200):
            built.clear()
            optimize_hyperparameters(problem.phi, problem.y_l, template, start, gamma=1e-3, budget=budget)
            counts.append(len(built))
        assert counts == [counts[0]] * 4


class TestTunerFastEvidence:
    """In the dual, probes of a resonant term are scored by a rank-2 update
    on a cached factorization of the other terms, and fall back to the full
    one; in the feature space every probe is the full one."""

    def trace_with_rank2_spy(self, monkeypatch, problem, template, eta0, gamma, budget):
        rank2 = []
        score = estimator._rank2_evidence

        def spy(rest, w):
            values = score(rest, w)
            rank2.extend(values)
            return values

        monkeypatch.setattr(estimator, "_rank2_evidence", spy)
        trace = []
        optimize_hyperparameters(
            problem.phi, problem.y_l, template, eta0, gamma=gamma, budget=budget,
            on_evaluation=lambda values, ml: trace.append((values, ml)),
        )
        return trace, rank2

    def evidence(self, problem, template, values, gamma):
        return marginal_likelihood(problem.phi, problem.y_l, *kernel_and_gamma(template, values, gamma))

    def well_conditioned(self):
        problem = make_problem(27, n=150, factor=3, order=60)
        template = KernelSum(
            terms=(
                DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.5),
                ResonantPole(decay=0.9, frequency=0.8),
                ResonantPole(decay=0.85, frequency=2.0),
            )
        )
        values = {
            "gamma": 1e-2, "terms.0.scale": 1.0, "terms.1.frequency": 0.8,
            "terms.1.sigma1": 1.0, "terms.2.decay": 0.85, "terms.2.sigma2": 1.0,
        }
        bounds = {name: default_bounds(name, value) for name, value in values.items()}
        bounds["gamma"] = (1e-3, 1e1)
        return problem, template, HyperparameterVector(values, bounds), 1e-2

    def nearly_singular_rest(self):
        # as unfactorizable_rest, but gamma=1e-12 lets the rest factorize
        # with pivots near 1e-6: the rank-2 difference loses most digits there
        problem = make_problem(3, n=60, factor=10, order=30)
        template = KernelSum(
            terms=tuple(ResonantPole(decay=0.9, frequency=w) for w in (0.5, 1.3, 2.4))
        )
        eta0 = HyperparameterVector({"terms.1.frequency": 1.3}, {"terms.1.frequency": (1.0, 1.6)})
        return problem, template, eta0, 1e-12

    def feature_space(self):
        # as well_conditioned, but with M = 100 > n = 64 factor columns
        _, template, eta0, gamma = self.well_conditioned()
        problem = make_problem(27, n=300, factor=3, order=60)
        assert estimator._in_feature_space(template.terms, problem.phi.output_length, 60)
        return problem, template, eta0, gamma

    @pytest.mark.parametrize("case, min_rank2", [("well_conditioned", 50), ("nearly_singular_rest", 0)])
    def test_probes_match_marginal_likelihood(self, monkeypatch, case, min_rank2):
        problem, template, eta0, gamma = getattr(self, case)()
        trace, rank2 = self.trace_with_rank2_spy(monkeypatch, problem, template, eta0, gamma, 150)
        assert len(rank2) > 50
        assert sum(math.isfinite(value) for value in rank2) >= min_rank2
        for values, value in trace:
            assert value == pytest.approx(self.evidence(problem, template, values, gamma), rel=1e-9)
        # the accepted point is scored by the full factorization, as
        # marginal_likelihood scores it, so "never worse" holds bit for bit
        best, best_value = trace[-1]
        assert best_value == self.evidence(problem, template, best, gamma)

    def test_feature_space_probes_are_marginal_likelihood(self, monkeypatch):
        """The feature space has no rank-2 rest: every probe, resonant ones
        included, is scored as marginal_likelihood scores it, bit for bit."""
        problem, template, eta0, gamma = self.feature_space()
        trace, rank2 = self.trace_with_rank2_spy(monkeypatch, problem, template, eta0, gamma, 150)
        assert rank2 == []
        assert sum(values["terms.1.frequency"] != 0.8 for values, _ in trace) > 20
        for values, value in trace:
            assert value == self.evidence(problem, template, values, gamma)

    def overflowing_update(self):
        # the huge DC scale keeps the rest's factor large, so W stays small
        # after the triangular solve while W W' already overflows
        problem = make_problem(27, n=150, factor=3, order=60)
        template = KernelSum(
            terms=(
                DiagonalCorrelated(scale=1e290, decay=0.9, correlation=0.5),
                ResonantPole(decay=0.9, frequency=0.8),
            )
        )
        eta0 = HyperparameterVector({"terms.1.sigma1": 1.0}, {"terms.1.sigma1": (1.0, 1e240)})
        return problem, template, eta0, 1e-2, True

    def unfactorizable_rest(self):
        # M=6: the three rank-2 terms make the Gram nonsingular, any two do
        # not, so at gamma=1e-300 the rest of each term cannot be factorized;
        # the grid's lower end makes terms 0 and 1 coincide
        problem = make_problem(3, n=60, factor=10, order=30)
        template = KernelSum(
            terms=tuple(ResonantPole(decay=0.9, frequency=w) for w in (0.5, 1.3, 2.4))
        )
        eta0 = HyperparameterVector({"terms.1.frequency": 1.3}, {"terms.1.frequency": (0.5, 2.9)})
        return problem, template, eta0, 1e-300, False

    def test_rest_factored_once_per_resonant_term_per_sweep(self, monkeypatch):
        """A resonant term's coordinates (here ``terms.1.frequency`` and
        ``.sigma1``, then ``terms.2.decay`` and ``.sigma2``) sort next to
        each other and leave its rest, the other terms plus ``gamma I``, as
        it is: two sweeps factor each term's rest once per sweep, 4 rests
        where one per coordinate made 8.  Every other ``_shifted_factor``
        call is a full scoring's."""
        problem, template, eta0, gamma = self.well_conditioned()
        calls = {"_shifted_factor": 0, "_solve": 0}

        def counted(name):
            function = getattr(estimator, name)

            def spy(*args):
                calls[name] += 1
                return function(*args)

            return spy

        for name in calls:
            monkeypatch.setattr(estimator, name, counted(name))
        # a sweep is gamma and terms.0.scale (15 each), the frequency (33) and 3 x 15
        trace = []
        optimize_hyperparameters(
            problem.phi, problem.y_l, template, eta0, gamma=gamma, budget=1 + 2 * 108,
            on_evaluation=lambda values, ml: trace.append(values),
        )
        assert len(trace) == 2 + 2 * 108
        assert calls["_shifted_factor"] - calls["_solve"] == 4

    def test_unfactorizable_rest_is_none(self):
        """Where ``gamma I`` plus the other terms' Grams cannot be factorized,
        there is no rest, for each term left out, while the full Gram of all
        three terms factorizes."""
        problem, template, _, gamma, _ = self.unfactorizable_rest()
        phi, y = problem.phi, problem.y_l.samples
        assert not estimator._in_feature_space(template.terms, *phi.entries.shape)
        assert [estimator._rest(phi, y, template, gamma, index) for index in range(3)] == [None] * 3
        assert math.isfinite(marginal_likelihood(phi, problem.y_l, template, gamma))

    def test_batch_matches_single_candidates(self):
        """K candidates scored by one call get the values of K one-candidate
        calls, and each is the evidence of its full kernel."""
        problem, template, _, gamma = self.well_conditioned()
        phi, y = problem.phi, problem.y_l.samples
        assert not estimator._in_feature_space(template.terms, *phi.entries.shape)
        rest = estimator._rest(phi, y, template, gamma, 1)
        poles = [replace(template.terms[1], frequency=f) for f in np.linspace(0.5, 1.1, 9)]
        w = np.hstack([pole.regressor_factor(phi) for pole in poles])
        batch = estimator._rank2_evidence(rest, w)
        singles = [estimator._rank2_evidence(rest, w[:, 2 * k : 2 * k + 2])[0] for k in range(len(poles))]
        assert batch == pytest.approx(singles, rel=1e-12)
        for pole, value in zip(poles, batch):
            kernel = KernelSum(terms=(template.terms[0], pole, template.terms[2]))
            assert value == pytest.approx(marginal_likelihood(phi, problem.y_l, kernel, gamma), rel=1e-9)

    def test_mixed_batch_nan_rules(self):
        """In one batch exactly the candidates whose full Gram could
        overflow, whose ``det C`` is not positive (NaN from a ``V'V`` that
        overflows) or whose quadratic form cancels are NaN; the others get
        the dense evidence of ``R + W W'``."""
        m, scale = 8, 1e-100
        rng = np.random.default_rng(5)
        y = rng.normal(size=m)
        # R = scale^2 I, factored as scale I
        alpha = y / scale
        rest = estimator._Rest(scale * np.eye(m), alpha, float(alpha @ alpha), 2 * m * math.log(scale), scale**2)
        candidates = {
            "plain": rng.normal(size=(m, 2)) * scale,
            "overflow": rng.normal(size=(m, 2)) * 1e200,
            "det": rng.normal(size=(m, 2)) * 1e60,
            # V's first column 1e4 alpha / |alpha|: the form keeps 1e-8 of alpha'alpha
            "cancel": np.column_stack((1e4 * scale * y / np.linalg.norm(y), scale * np.eye(m)[0])),
            "plain too": rng.normal(size=(m, 2)) * scale,
        }
        values = dict(zip(candidates, estimator._rank2_evidence(rest, np.hstack(list(candidates.values())))))
        assert [name for name, value in values.items() if math.isnan(value)] == ["overflow", "det", "cancel"]
        for name in ("plain", "plain too"):
            w = candidates[name]
            full = scale**2 * np.eye(m) + w @ w.T
            dense = y @ np.linalg.solve(full, y) + np.linalg.slogdet(full)[1]
            assert values[name] == pytest.approx(dense, rel=1e-9)
            assert values[name] == estimator._rank2_evidence(rest, w)[0]

    def test_nan_candidates_rescored_by_full_factorization(self, monkeypatch):
        """A scan batch where some candidates overflow: each NaN candidate's
        evaluation is the full factorization's value (inf where that
        raises), and each other one the rank-2 value."""
        problem, template, eta0, gamma, _ = self.overflowing_update()
        with np.errstate(over="ignore", invalid="ignore"):
            trace, rank2 = self.trace_with_rank2_spy(monkeypatch, problem, template, eta0, gamma, 40)
            # one resonant coordinate: every probe is a rank-2 candidate
            probes = trace[1:-1]
            assert len(rank2) == len(probes) >= 15
            scan = [math.isnan(value) for value in rank2[:7]]
            assert any(scan) and not all(scan)
            for (values, value), scored in zip(probes, rank2):
                if not math.isnan(scored):
                    assert value == scored
                    continue
                try:
                    assert value == self.evidence(problem, template, values, gamma)
                except NumericalError:
                    assert value == math.inf

    @pytest.mark.parametrize("case", ["overflowing_update", "unfactorizable_rest"])
    def test_inf_exactly_where_marginal_likelihood_raises(self, monkeypatch, case):
        problem, template, eta0, gamma, rank2_used = getattr(self, case)()
        with np.errstate(over="ignore", invalid="ignore"):
            trace, rank2 = self.trace_with_rank2_spy(monkeypatch, problem, template, eta0, gamma, 40)
            raised = []
            for values, value in trace:
                try:
                    expected = self.evidence(problem, template, values, gamma)
                except NumericalError:
                    expected = None
                raised.append(expected is None)
                if expected is None:
                    assert value == math.inf
                else:
                    assert value == pytest.approx(expected, rel=1e-9)
        assert any(raised) and not all(raised)
        assert any(math.isfinite(value) for value in rank2) == rank2_used


class TestApplyHyperparameters:
    def test_direct_field(self):
        spec = DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.3)
        out = apply_hyperparameters(spec, {"decay": 0.8})
        assert out.decay == 0.8
        assert out.scale == 1.0

    def test_sum_term_paths(self):
        spec = KernelSum(
            terms=(
                DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.3),
                ResonantPole(decay=0.9, frequency=0.4),
            )
        )
        out = apply_hyperparameters(spec, {"terms.1.frequency": 0.6, "terms.0.scale": 2.0})
        assert out.terms[1].frequency == 0.6
        assert out.terms[0].scale == 2.0

    def test_malformed_paths_rejected(self):
        spec = Tikhonov()
        with pytest.raises(ValueError):
            apply_hyperparameters(spec, {"terms.0": 1.0})
        with pytest.raises(ValueError):
            apply_hyperparameters(spec, {"terms.0.decay": 1.0})
        with pytest.raises(ValueError, match="'decay'"):
            apply_hyperparameters(spec, {"decay": 0.5})
        pair = KernelSum(terms=(DiagonalCorrelated(), ResonantPole(decay=0.9, frequency=0.4)))
        with pytest.raises(ValueError, match="'terms.0.sigma1'"):
            apply_hyperparameters(pair, {"terms.0.sigma1": 0.5})
        # a non-integer or missing index, a term the sum lacks, a plain name on a sum,
        # and an index spelt other than as its canonical ASCII numeral
        for path in ("terms.a.decay", "terms..decay", "terms.2.decay", "decay", "terms.01.decay", "terms.\uff11.decay"):
            with pytest.raises(ValueError, match=re.escape(repr(path))):
                apply_hyperparameters(pair, {path: 0.5})

    def test_out_of_range_value_propagates(self):
        spec = DiagonalCorrelated(scale=1.0, decay=0.9, correlation=0.3)
        with pytest.raises(ValueError, match="decay"):
            apply_hyperparameters(spec, {"decay": 1.5})


class TestHyperparameterVector:
    def test_empty_vector_rejected(self):
        """No hyperparameter gives the tuner nothing to search and
        ``tuning_budget`` no sweep count."""
        with pytest.raises(ValueError, match="HyperparameterVector is empty"):
            HyperparameterVector(values={}, bounds={})

    def test_values_within_bounds_enforced(self):
        with pytest.raises(ValueError):
            HyperparameterVector(values={"decay": 0.99}, bounds={"decay": (0.5, 0.9)})

    def test_names_must_match(self):
        with pytest.raises(ValueError):
            HyperparameterVector(values={"decay": 0.8}, bounds={"scale": (0.1, 1.0)})

    @pytest.mark.parametrize("name", ["gamma", "scale", "terms.1.sigma1", "terms.1.sigma2"])
    @pytest.mark.parametrize("lower", [0.0, -1.0])
    def test_log_space_lower_bound_must_be_positive(self, name, lower):
        """Its logarithm starts the search, so a bound <= 0 is named here,
        not met later as a math domain error."""
        with pytest.raises(ValueError, match=f"{name} is searched in log space"):
            HyperparameterVector(values={name: 0.5}, bounds={name: (lower, 1.0)})
        # a linear-space entry may start at zero
        HyperparameterVector(values={"frequency": 0.5}, bounds={"frequency": (lower, 1.0)})

    @pytest.mark.parametrize("bound", [(1e-9, math.inf), (-math.inf, 1.0), (1e-9, math.nan)])
    def test_bounds_must_be_finite(self, bound):
        """An infinite bound used to send the search to probe inf and nan."""
        with pytest.raises(ValueError, match="gamma needs finite bounds"):
            HyperparameterVector(values={"gamma": 1e-5}, bounds={"gamma": bound})

    def test_default_bounds_respect_ranges(self):
        lo, hi = default_bounds("decay", 0.95)
        assert 0.0 < lo < hi < 1.0
        lo, hi = default_bounds("terms.2.frequency", 1.2, omega_max=2 * math.pi)
        assert hi < 2 * math.pi
        # gamma's range widens to hold its start
        assert default_bounds("gamma", 1e-5) == (1e-9, 1e3)
        assert default_bounds("gamma", 1e-12) == (1e-12, 1e3)
        assert default_bounds("gamma", 1e4) == (1e-9, 1e4)
        with pytest.raises(ValueError):
            default_bounds("mystery", 1.0)


class TestRateBounds:
    """The default ``decay`` and ``correlation`` intervals."""

    @pytest.mark.parametrize("name", ["decay", "correlation"])
    @pytest.mark.parametrize("start", [1e-9, 0.3, 0.95, 1 - 1e-9])
    def test_unchanged_inside_unit_interval(self, name, start):
        assert default_bounds(name, start) == (start**2, min(start**0.0625, 1.0 - 1e-9))

    @pytest.mark.parametrize(
        "name, start", [("correlation", -0.3), ("decay", 0.0), ("correlation", 0.0), ("decay", 1 - 1e-10)]
    )
    def test_every_in_range_start_tunes(self, name, start):
        """A start the DC kernel admits gets a non-empty interval inside the
        kernel's range that holds it, and the tuner runs from it.  Used to be
        a complex power (a TypeError) or an empty interval (a ValueError)."""
        template = DiagonalCorrelated(scale=1.5, decay=0.9, correlation=0.4)
        eta0 = tuning_start(template, 1e-3, 3, {"gamma": 1e-3, "scale": 1.5, name: start})
        lo, hi = eta0.bounds[name]
        assert lo < hi and lo <= start <= hi
        for endpoint in (lo, hi):
            apply_hyperparameters(template, {name: endpoint})
        problem = make_problem(18, n=90, factor=3, order=20, kernel=template)
        tuned = optimize_hyperparameters(problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=30)

        def evidence(values):
            return marginal_likelihood(problem.phi, problem.y_l, *kernel_and_gamma(template, values, 1e-3))

        assert lo <= tuned.values[name] <= hi
        assert evidence(tuned.values) <= evidence(eta0.values)

    @pytest.mark.parametrize("start", [1e-200, 5e-324])
    def test_underflowing_square_tunes(self, start):
        """Where ``v^2`` underflows to 0 the interval's bottom is the smallest
        positive double, inside a resonant pole's open decay range.  Used to
        be 0, which the tuner's bound check rejected."""
        lo, hi = default_bounds("decay", start)
        assert 0.0 < lo <= start < hi < 1.0
        template = ResonantPole(decay=start, frequency=0.8)
        eta0 = tuning_start(template, 1e-3, 3)
        assert eta0.bounds["decay"] == (lo, hi)
        problem = make_problem(18, n=90, factor=3, order=20, kernel=template)
        tuned = optimize_hyperparameters(problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=30)
        assert lo <= tuned.values["decay"] <= hi


class TestFrequencyBounds:
    """The default ``frequency`` interval."""

    @pytest.mark.parametrize("start, factor", [(0.251, 3), (1.257, 3), (1.2, 1)])
    def test_window_below_cap_unchanged(self, start, factor):
        """The benchmark pk kernel's frequencies keep their +/-30% window."""
        assert tuning_start(ResonantPole(decay=0.9, frequency=start), 1e-3, factor).bounds["frequency"] == (
            0.7 * start, 1.3 * start
        )

    @pytest.mark.parametrize("start, factor", [(3.14, 1), (4.0, 1), (6.28, 3), (0.0, 1), (0.0, 3)])
    def test_every_in_range_start_tunes(self, start, factor):
        """A start the resonant pole admits gets a non-empty interval inside
        its range that holds it, and the tuner runs from it.  A start above
        ``0.999 omega_max`` used to get a top below it, and a start of 0 the
        empty ``[0, 0]``: both were a ValueError."""
        template = ResonantPole(decay=0.9, frequency=start)
        eta0 = tuning_start(template, 1e-3, factor)
        lo, hi = eta0.bounds["frequency"]
        omega_max = min(math.pi * factor, 2.0 * math.pi)
        assert lo < hi and lo <= start <= hi
        assert hi == (0.3 * omega_max if start == 0.0 else max(start, 0.999 * omega_max))
        for endpoint in (lo, hi):
            apply_hyperparameters(template, {"frequency": endpoint})
        problem = make_problem(19, n=90, factor=factor, order=20, kernel=template)
        tuned = optimize_hyperparameters(problem.phi, problem.y_l, template, eta0, gamma=1e-3, budget=30)
        assert lo <= tuned.values["frequency"] <= hi


class TestTuningStartRanges:
    @pytest.mark.parametrize(
        "template, init, message",
        [
            (ResonantPole(decay=0.9, frequency=1.0), {"frequency": -1.0}, "frequency must be in [0.0, 6.283185307179586)"),
            (DiagonalCorrelated(), {"scale": -1.0}, "scale must be in (0.0, inf)"),
            (SHARED_PK, {"gamma": 1e-3, "terms.2.frequency": 7.0}, "frequency must be in [0.0, 6.283185307179586)"),
            (DiagonalCorrelated(), {"gamma": -1.0, "scale": 1.0}, "gamma must be a positive number"),
        ],
        ids=["frequency", "scale", "sum-path", "gamma"],
    )
    def test_kernel_range_named_before_bounds(self, template, init, message):
        """A start outside its field's range raises the kernel's own error,
        not one about the default bounds built around it."""
        with pytest.raises(ValueError, match=re.escape(message)):
            tuning_start(template, 1e-3, 3, init)


class TestGoodnessOfFit:
    def test_perfect_prediction(self):
        y = random_noise(50, 0.1, 1.0, seed=20)
        assert goodness_of_fit(y, y) == pytest.approx(100.0)

    def test_mean_prediction_scores_zero(self):
        y = random_noise(50, 0.1, 1.0, seed=21)
        flat = FastSignal(samples=np.full(50, np.mean(y.samples)), period=0.1)
        assert goodness_of_fit(y, flat) == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_case(self):
        # errors (1,1) against spread (1,1): 100 * (1 - 2/2) = 0
        assert goodness_of_fit([0.0, 2.0], [1.0, 1.0]) == pytest.approx(0.0)

    def test_constant_reference_rejected(self):
        with pytest.raises(ValueError):
            goodness_of_fit([1.0, 1.0], [0.0, 2.0])

    def test_never_exceeds_100(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            y = rng.normal(size=30)
            pred = rng.normal(size=30)
            assert goodness_of_fit(y, pred) <= 100.0


class TestPredictFastOutput:
    def test_impulse_reproduces_coefficients(self):
        model = FirModel(theta=[0.5, -0.2, 0.1], period=0.1)
        u = FastSignal(samples=[1.0, 0, 0, 0, 0, 0], period=0.1)
        out = predict_fast_output(model, u)
        np.testing.assert_allclose(out.samples, [0.5, -0.2, 0.1, 0, 0, 0], atol=1e-15)

    def test_identity_model(self):
        u = random_noise(30, 0.1, 1.0, seed=23)
        out = predict_fast_output(FirModel(theta=[1.0], period=0.1), u)
        np.testing.assert_array_equal(out.samples, u.samples)

    def test_matches_double_loop_convolution(self):
        rng = np.random.default_rng(24)
        theta = rng.normal(size=7)
        u = rng.normal(size=40)
        expected = np.zeros(40)
        for t in range(40):
            for i in range(7):
                if t - i >= 0:
                    expected[t] += theta[i] * u[t - i]
        out = predict_fast_output(
            FirModel(theta=theta, period=0.1), FastSignal(samples=u, period=0.1)
        )
        np.testing.assert_allclose(out.samples, expected, atol=1e-12)


class TestFitReportAndModelIo:
    def test_model_json_round_trip(self, tmp_path):
        model = FirModel(theta=np.random.default_rng(25).normal(size=12), period=0.05)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.theta, model.theta)
        assert loaded.period == model.period
        again = tmp_path / "model2.json"
        save_model(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_model_schema(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(FirModel(theta=[1.0, 2.0], period=0.1), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"period_s", "theta"}

    def test_malformed_model_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"theta\": [1.0]}")
        with pytest.raises(ValueError):
            load_model(path)

    def test_unknown_model_key_rejected(self, tmp_path):
        """A misspelt key next to a valid model, or a file that is not a JSON
        object, is an error, not ignored."""
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"period_s": 0.1, "perod_s": 3, "theta": [1, 2]}))
        with pytest.raises(ValueError, match="perod_s"):
            load_model(path)
        path.write_text(json.dumps("period_s"))
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_model(path)
