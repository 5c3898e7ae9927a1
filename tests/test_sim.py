"""Tests for the Monte Carlo study: worker-count invariance and the BLAS pin."""

import os

import pytest

from beyondnyq import _blas, sim
from beyondnyq.sim import MonteCarloConfig, run_monte_carlo

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
