"""Tests for the plant simulation and the Monte Carlo study: physics against
scipy.signal, LS statuses, the paper's ordering, worker-count invariance and
the BLAS pin."""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from beyondnyq import _blas, sim
from beyondnyq.signals import random_multisine
from beyondnyq.sim import (
    NOMINAL_PLANT,
    ContinuousPlant,
    MonteCarloConfig,
    build_plant,
    run_monte_carlo,
    simulate,
    zoh_discretize,
)

TUNED = MonteCarloConfig(runs=2, n_samples=150, orders=(20, 60), estimators=("dc", "pk"), tune=True)
FIXED = MonteCarloConfig(runs=2, n_samples=90, orders=(10, 30))

requires_openblas = pytest.mark.skipif(not _blas.openblas_controls(), reason="no OpenBLAS loaded")


def thread_counts():
    return [get() for get, _ in _blas.openblas_controls()]


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS at 2 threads, so that a pin to 1 and its undoing show."""
    controls = _blas.openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    try:
        yield [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def assert_close_relative(actual, expected, tolerance):
    assert np.linalg.norm(actual - expected) <= tolerance * np.linalg.norm(expected)


@pytest.mark.parametrize("output_mass", [1, 2])
@pytest.mark.parametrize("period", [0.1, 0.37])
def test_zoh_discretize_matches_cont2discrete(period, output_mass):
    plant = build_plant(ContinuousPlant(m1=1.3, m2=0.8, k1=12.0, k2=90.0, d1=0.5, d2=0.07), output_mass=output_mass)
    discrete = zoh_discretize(plant, period)
    a, b, c, d, dt = scipy.signal.cont2discrete((plant.A, plant.B, plant.C, plant.D), period, method="zoh")
    assert dt == discrete.period == period
    assert_close_relative(discrete.A, a, 1e-12)
    assert_close_relative(discrete.B, b, 1e-12)
    np.testing.assert_array_equal(discrete.C, c)
    np.testing.assert_array_equal(discrete.D, d)


@pytest.mark.parametrize("initial_state", [None, [0.3, -1.0, 0.5, 2.0]])
def test_simulate_matches_dlsim(initial_state):
    plant = zoh_discretize(build_plant(NOMINAL_PLANT), 0.1)
    u = random_multisine(600, 0.1, None, 1.0, seed=4)
    _, expected, _ = scipy.signal.dlsim(
        (plant.A, plant.B, plant.C, plant.D, plant.period), u.samples, x0=initial_state
    )
    y = simulate(plant, u, initial_state)
    assert y.period == u.period
    assert_close_relative(y.samples, expected[:, 0], 1e-12)


def test_least_squares_status_follows_order_rule(monkeypatch):
    """LS is non_unique exactly at P >= M, and no SVD runs there: only the
    P x P triangular factor of each order below M is decomposed."""
    config = MonteCarloConfig(runs=2, n_samples=90, orders=(10, 29, 30, 45), estimators=("ls",))
    m = 30
    shapes = []
    svdvals = scipy.linalg.svdvals

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svdvals", spy)
    serial = run_monte_carlo(config, max_workers=1)
    assert not serial.errors
    assert [(r.order, r.status) for r in serial.records] == [
        (p, "ok" if p < m else "non_unique") for p in config.orders
    ] * config.runs
    assert sorted(shapes) == sorted([(p, p) for p in config.orders if p < m] * config.runs)
    assert run_monte_carlo(config, max_workers=2).records == serial.records


def test_paper_ordering():
    """The paper's claim on a small tuned study (M = 200): at P >= M the
    resonance-aware kernel scores at least DC and LS has no unique answer,
    and the best regularized fits beat the best LS fit."""
    config = MonteCarloConfig(runs=3, orders=(100, 300, 600), base_seed=2025, tune=True)
    m = 200
    result = run_monte_carlo(config, max_workers=2)
    assert not result.errors
    mean = {(s.estimator, s.order): s.mean_gof for s in result.summary}
    for order in config.orders:
        if order >= m:
            assert mean["pk", order] >= mean["dc", order]
            assert all(r.status == "non_unique" for r in result.records if r.estimator == "ls" and r.order == order)
    best = {
        estimator: max(mean[estimator, order] for order in config.orders if mean[estimator, order] is not None)
        for estimator in config.estimators
    }
    assert best["dc"] > best["ls"] and best["pk"] > best["ls"]


def test_tuned_study_identical_for_any_worker_count():
    serial = run_monte_carlo(TUNED, max_workers=1)
    threaded = run_monte_carlo(TUNED, max_workers=2)
    assert len(serial.records) == 8 and not serial.errors
    assert threaded.records == serial.records
    assert threaded.summary == serial.summary
    assert threaded.errors == serial.errors


@requires_openblas
def test_finds_every_loaded_openblas():
    with open("/proc/self/maps") as maps:
        names = {os.path.basename(line.split()[-1]) for line in maps if "openblas" in line}
    # numpy and scipy wheels each map their own copy
    assert len(_blas.openblas_controls()) >= len(names)


@requires_openblas
@pytest.mark.parametrize("max_workers", [1, 2])
def test_runs_see_single_threaded_blas(monkeypatch, blas_at_two, max_workers):
    seen = []
    execute = sim._execute_run

    def spy(config, run):
        seen.append(thread_counts())
        return execute(config, run)

    monkeypatch.setattr(sim, "_execute_run", spy)
    result = run_monte_carlo(FIXED, max_workers=max_workers)
    assert not result.errors
    assert seen == [[1] * len(blas_at_two)] * FIXED.runs
    assert thread_counts() == blas_at_two


@requires_openblas
def test_pin_restored_when_body_raises(blas_at_two):
    with pytest.raises(RuntimeError, match="boom"):
        with _blas.single_threaded_blas():
            assert thread_counts() == [1] * len(blas_at_two)
            raise RuntimeError("boom")
    assert thread_counts() == blas_at_two



@requires_openblas
def test_overlapping_pins_restore_once_all_have_left(blas_at_two):
    first, second = _blas.single_threaded_blas(), _blas.single_threaded_blas()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert thread_counts() == [1] * len(blas_at_two)
    second.__exit__(None, None, None)
    assert thread_counts() == blas_at_two
