"""Tests for the plant simulation and the Monte Carlo study: physics against
scipy.signal, LS statuses, the paper's ordering, worker-count invariance, the
tuning worker processes and the BLAS pin."""

import csv
import json
import multiprocessing
import multiprocessing.pool
import os
import pickle
import signal
import tempfile
import threading
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from blas_threads import blas_at_two, requires_openblas, thread_counts  # noqa: F401 (a fixture)

from beyondnyq import _blas, sim
from beyondnyq.errors import NumericalError
from beyondnyq.estimator import default_bounds, tuning_start
from beyondnyq.kernels import DiagonalCorrelated, KernelSum, ResonantPole, StableSpline, Tikhonov, kernel_spec_to_json
from beyondnyq.signals import FastSignal, random_multisine
from beyondnyq.sim import (
    NOMINAL_PLANT,
    ContinuousPlant,
    MonteCarloConfig,
    build_plant,
    plant_frf,
    run_monte_carlo,
    simulate,
    zoh_discretize,
)

TUNED = MonteCarloConfig(runs=2, n_samples=150, orders=(20, 60), estimators=("dc", "pk"), tune=True)
TUNED3 = replace(TUNED, runs=3)
FIXED = MonteCarloConfig(runs=2, n_samples=90, orders=(10, 30))


def process_log(directory):
    """``(keep, kept)``: ``keep(obj)`` stores a picklable object from any
    process, a forked tuning worker included, in a file of its own under
    ``directory``; ``kept()`` lists every stored object, in no order."""

    def keep(obj):
        handle, _ = tempfile.mkstemp(dir=directory)
        with os.fdopen(handle, "wb") as f:
            pickle.dump(obj, f)

    def kept():
        return [pickle.loads(path.read_bytes()) for path in Path(directory).iterdir()]

    return keep, kept


def logged_tuner(monkeypatch, directory, entry):
    """Route the study's tuner calls through a spy that keeps
    ``entry(eta0, budget)`` per call, from whichever process makes it, and
    then tunes; returns the reader of the kept entries."""
    keep, kept = process_log(directory)
    optimize = sim.optimize_hyperparameters

    def spy(phi, y_l, template, eta0, *, gamma, budget):
        keep(entry(eta0, budget))
        return optimize(phi, y_l, template, eta0, gamma=gamma, budget=budget)

    monkeypatch.setattr(sim, "optimize_hyperparameters", spy)
    return kept


def assert_close_relative(actual, expected, tolerance):
    assert np.linalg.norm(actual - expected) <= tolerance * np.linalg.norm(expected)


def loop_simulate(plant, u, x0=None):
    """Oracle: the state recursion, one sample per Python iteration."""
    n = plant.A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    a, b = plant.A, plant.B[:, 0]
    c, d = plant.C[0, :], plant.D[0, 0]
    y = np.empty(len(u))
    for t, ut in enumerate(u.samples):
        y[t] = c @ x + d * ut
        x = a @ x + b * ut
    return y


def solve_plant_frf(plant, omegas):
    """Oracle: one ``(zI - A) r = B`` solve per frequency."""
    eye = np.eye(plant.A.shape[0])
    values = []
    for omega in omegas:
        z = np.exp(1j * omega * plant.period)
        values.append((plant.C @ np.linalg.solve(z * eye - plant.A, plant.B))[0, 0] + plant.D[0, 0])
    return np.array(values)


@pytest.mark.parametrize("output_mass", [1, 2])
@pytest.mark.parametrize("period", [0.1, 0.37])
def test_zoh_discretize_matches_cont2discrete(period, output_mass):
    plant = build_plant(ContinuousPlant(m1=1.3, m2=0.8, k1=12.0, k2=90.0, d1=0.5, d2=0.07))
    # an output row that reads either mass's displacement (state [x1, v1, x2, v2])
    plant = replace(plant, C=np.eye(1, 4, 2 * output_mass - 2))
    discrete = zoh_discretize(plant, period)
    a, b, c, d, dt = scipy.signal.cont2discrete((plant.A, plant.B, plant.C, plant.D), period, method="zoh")
    assert dt == discrete.period == period
    assert_close_relative(discrete.A, a, 1e-12)
    assert_close_relative(discrete.B, b, 1e-12)
    np.testing.assert_array_equal(discrete.C, c)
    np.testing.assert_array_equal(discrete.D, d)


@pytest.mark.parametrize("period", [0.0, np.inf, "0.1", True])
def test_zoh_discretize_rejects_bad_period(period):
    with pytest.raises(ValueError, match="period"):
        zoh_discretize(build_plant(NOMINAL_PLANT), period)


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


@pytest.mark.parametrize("initial_state", [None, [0.3, -1.0, 0.5, 2.0]])
@pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 10_000])
def test_simulate_matches_loop_and_dlsim(n_samples, initial_state):
    """Block lengths 1, L - 1, L, L + 1 and many blocks (L = 64), so that the
    state carries across block boundaries; a nonzero D and a plant whose
    impulse response has not died out within a block."""
    plant = zoh_discretize(build_plant(ContinuousPlant(m1=1.3, m2=0.8, k1=12.0, k2=90.0, d1=0.5, d2=0.07)), 0.1)
    plant = sim.DiscretePlant(A=plant.A, B=plant.B, C=plant.C, D=np.array([[0.25]]), period=plant.period)
    u = FastSignal(samples=np.random.default_rng(n_samples).normal(size=n_samples), period=0.1)
    y = simulate(plant, u, initial_state).samples
    _, expected, _ = scipy.signal.dlsim(
        (plant.A, plant.B, plant.C, plant.D, plant.period), u.samples, x0=initial_state
    )
    assert_close_relative(y, loop_simulate(plant, u, initial_state), 1e-12)
    assert_close_relative(y, expected[:, 0], 1e-12)


def test_plant_frf_matches_per_frequency_solve():
    plant = zoh_discretize(build_plant(NOMINAL_PLANT), 0.1)
    # past the fast Nyquist frequency pi / T and through both resonances
    omegas = np.linspace(0.0, 2.0 * np.pi / plant.period, 1000)
    values = plant_frf(plant, omegas)
    assert values.shape == omegas.shape
    expected = solve_plant_frf(plant, omegas)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "exc, diagnostics",
    [(NumericalError("no factor", {"gamma": 1e-5, "condition_estimate": 3e17}), {"gamma": 1e-5, "condition_estimate": 3e17}),
     (ValueError("no factor"), {})],
    ids=["numerical", "other"],
)
def test_run_error_keeps_type_and_diagnostics(monkeypatch, exc, diagnostics):
    def fail(problem):
        raise exc

    monkeypatch.setattr(sim, "regularized_fir", fail)
    result = run_monte_carlo(MonteCarloConfig(runs=2, n_samples=90, orders=(10, 30), estimators=("dc",)))
    assert not result.records
    assert result.errors == tuple(
        sim.RunError(run, "no factor", type(exc).__name__, diagnostics) for run in range(2)
    )


def test_least_squares_status_follows_order_rule(monkeypatch):
    """LS is non_unique exactly at P >= M, and no decomposition of ``Phi``
    runs there: below M each order's P x P Cholesky factor is inverted for
    the rank certificate, and an SVD solve, if any, sees only that order's
    M x P regressor."""
    config = MonteCarloConfig(runs=2, n_samples=90, orders=(10, 29, 30, 45), estimators=("ls",))
    m = 30
    shapes = {"svdvals": [], "lstsq": [], "dtrtri": []}

    def spy(module, name):
        original = getattr(module, name)

        def counted(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(scipy.linalg, "svdvals")
    spy(scipy.linalg, "lstsq")
    spy(scipy.linalg.lapack, "dtrtri")
    serial = run_monte_carlo(config, max_workers=1)
    assert not serial.errors
    assert [(r.order, r.status) for r in serial.records] == [
        (p, "ok" if p < m else "non_unique") for p in config.orders
    ] * config.runs
    below = [p for p in config.orders if p < m] * config.runs
    assert sorted(shapes["dtrtri"]) == sorted((p, p) for p in below)
    assert set(shapes["lstsq"]) <= {(m, p) for p in below}
    assert shapes["svdvals"] == []
    assert run_monte_carlo(config, max_workers=2).records == serial.records


def test_least_squares_is_fitted_through_sim_once_per_record(monkeypatch):
    """Each LS record comes from one call of ``sim.least_squares_fir``, the
    name perfbench wraps to time LS, on both sides of M = 30."""
    calls = []
    fit = sim.least_squares_fir
    monkeypatch.setattr(sim, "least_squares_fir", lambda phi, y_l: calls.append(phi.order) or fit(phi, y_l))
    result = run_monte_carlo(MonteCarloConfig(runs=2, n_samples=90, orders=(10, 30), estimators=("ls", "dc")))
    assert calls == [r.order for r in result.records if r.estimator == "ls"] == [10, 30] * 2


def test_records_and_summary_csv_read_back_bit_for_bit(tmp_path):
    """``runs.csv`` and ``summary.csv`` read back through ``csv`` to every
    field of every record, floats bit for bit, and ``None`` as an empty field
    (LS at P = M = 30 has no unique answer, so no GoF and no statistics)."""
    result = run_monte_carlo(MonteCarloConfig(runs=2, n_samples=90, orders=(10, 30), estimators=("ls", "dc")))
    sim.write_records_csv(result, tmp_path / "runs.csv")
    sim.write_summary_csv(result, tmp_path / "summary.csv")

    def read(name):
        with open(tmp_path / name, newline="") as f:
            return list(csv.DictReader(f))

    def bits(value):
        return "" if value is None else float(value).hex()

    def field_bits(row, names):
        return [float(row[name]).hex() if row[name] else "" for name in names]

    rows = read("runs.csv")
    assert [(int(r["run"]), int(r["seed"]), r["estimator"], int(r["order"]), r["status"]) for r in rows] == [
        (r.run, r.seed, r.estimator, r.order, r.status) for r in result.records
    ]
    plant = ("m1", "m2", "k1", "k2", "d1", "d2")
    assert [field_bits(row, ("gof", "snr", *plant)) for row in rows] == [
        [bits(r.gof), bits(r.snr), *(bits(getattr(r.plant, name)) for name in plant)] for r in result.records
    ]
    assert any(r.gof is None for r in result.records)

    rows = read("summary.csv")
    assert [(r["estimator"], int(r["order"]), int(r["count"])) for r in rows] == [
        (s.estimator, s.order, s.count) for s in result.summary
    ]
    assert [field_bits(row, ("mean_gof", "std_gof")) for row in rows] == [
        [bits(s.mean_gof), bits(s.std_gof)] for s in result.summary
    ]
    assert any(s.mean_gof is None for s in result.summary)


def monte_carlo_config_to_json(config: MonteCarloConfig) -> dict:
    """Oracle: the JSON object of ``config``, written field by field, that
    ``monte_carlo_config_from_json`` should read back to ``config``."""
    written = {
        "dc_kernel": kernel_spec_to_json,
        "pk_kernel": kernel_spec_to_json,
        "nominal": asdict,
    }
    return {
        sim._JSON_NAMES.get(f.name, f.name): written.get(f.name, lambda value: value)(getattr(config, f.name))
        for f in fields(config)
    }


def test_config_json_round_trip():
    """``monte_carlo_config_from_json`` inverts the oracle
    ``monte_carlo_config_to_json``, through JSON text, for every field: band,
    tuning, a kernel sum and the nominal plant."""
    config = MonteCarloConfig(
        runs=3, orders=(20, 60), base_seed=7, period=0.05, factor=2, n_samples=240, perturbation=0.05,
        snr_range=(30.0, 45.0), input_rms=0.5, band=(2, 40), gamma=1e-4, estimators=("ls", "pk"),
        dc_kernel=DiagonalCorrelated(scale=0.3, decay=0.95, correlation=0.7),
        pk_kernel=KernelSum(terms=(
            DiagonalCorrelated(scale=2.0, decay=0.9, correlation=0.5),
            ResonantPole(decay=0.97, frequency=0.4, sigma1=0.2, sigma2=1.5),
        )),
        tune=True, tune_budget=80,
        nominal=ContinuousPlant(m1=1.1, m2=0.9, k1=10.0, k2=80.0, d1=0.3, d2=0.05),
    )
    text = json.dumps(monte_carlo_config_to_json(config))
    assert sim.monte_carlo_config_from_json(json.loads(text)) == config


@pytest.mark.parametrize(
    "config, estimator, expected",
    [
        (
            MonteCarloConfig(),
            "pk",
            [
                ("gamma", 1e-5),
                ("terms.0.scale", 1.0),
                ("terms.0.decay", np.exp(-0.05)),
                ("terms.1.frequency", 2 * np.pi * 0.4 * 0.1),
                ("terms.1.decay", np.exp(-0.05)),
                ("terms.1.sigma1", 1.0),
                ("terms.1.sigma2", 1.0),
                ("terms.2.frequency", 2 * np.pi * 2.0 * 0.1),
                ("terms.2.decay", np.exp(-0.05)),
                ("terms.2.sigma1", 1.0),
                ("terms.2.sigma2", 1.0),
            ],
        ),
        (MonteCarloConfig(gamma=1e-3), "dc", [("gamma", 1e-3), ("scale", 1.0), ("decay", np.exp(-0.05))]),
        (
            MonteCarloConfig(pk_kernel=KernelSum(terms=(
                StableSpline(scale=2.0, decay=0.8),
                DiagonalCorrelated(scale=1.5, decay=0.7, correlation=0.2),
                Tikhonov(),
                ResonantPole(decay=0.9, frequency=1.2, sigma1=0.5, sigma2=2.0),
            ))),
            "pk",
            [
                ("gamma", 1e-5),
                ("terms.1.scale", 1.5),
                ("terms.1.decay", 0.7),
                ("terms.3.frequency", 1.2),
                ("terms.3.decay", 0.9),
                ("terms.3.sigma1", 0.5),
                ("terms.3.sigma2", 2.0),
            ],
        ),
    ],
    ids=["default-pk", "default-dc", "sum-with-ss-and-tikhonov"],
)
def test_tuning_start_names_and_values(config, estimator, expected):
    """The tuner starts from gamma plus each term's tunables, in term order:
    scale and decay for DC; frequency, decay and both amplitudes for a
    resonant pole; none for stable spline and Tikhonov."""
    eta0 = tuning_start(config.kernel_for(estimator), config.gamma, config.factor)
    assert list(eta0.values) == [name for name, _ in expected]
    np.testing.assert_array_equal(list(eta0.values.values()), [value for _, value in expected])
    assert eta0.bounds == {name: default_bounds(name, value, 2 * np.pi) for name, value in expected}


def test_tuning_start_built_once_per_study(monkeypatch):
    """Every run tunes from the one start per estimator that the study
    builds with :func:`tuning_start`, within the budgets 538 (pk) and 79 (dc)."""
    built, used = [], []

    def start(*args):
        built.append(tuning_start(*args))
        return built[-1]

    def optimize(phi, y_l, template, eta0, *, gamma, budget):
        used.append((eta0, budget))
        return eta0

    monkeypatch.setattr(sim, "tuning_start", start)
    monkeypatch.setattr(sim, "optimize_hyperparameters", optimize)
    result = run_monte_carlo(TUNED, max_workers=1)
    assert not result.errors
    assert built == [tuning_start(TUNED.kernel_for(e), TUNED.gamma, TUNED.factor) for e in TUNED.estimators]
    assert sorted(id(eta0) for eta0, _ in used) == sorted(map(id, built * TUNED.runs))
    assert sorted(budget for _, budget in used) == [79, 79, 538, 538]


def test_tuning_start_reaches_worker_processes(monkeypatch, tmp_path):
    """With two workers the tuner runs in other processes, where an ``id``
    means nothing: every run's tuner gets the study's start per estimator,
    by value, with its budget."""
    kept = logged_tuner(monkeypatch, tmp_path, lambda eta0, budget: (eta0, budget, os.getpid()))
    result = run_monte_carlo(TUNED, max_workers=2)
    assert not result.errors
    starts = {e: tuning_start(TUNED.kernel_for(e), TUNED.gamma, TUNED.factor) for e in TUNED.estimators}
    used = kept()
    assert os.getpid() not in {pid for _, _, pid in used}
    assert sorted(((eta0, budget) for eta0, budget, _ in used), key=lambda pair: pair[1]) == [
        (starts["dc"], 79), (starts["dc"], 79), (starts["pk"], 538), (starts["pk"], 538)
    ]


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
    """Records, summary and errors are the same with one worker, where the
    runs tune in the calling thread, and with 2 and 3, where they tune in as
    many worker processes."""
    serial = run_monte_carlo(TUNED3, max_workers=1)
    assert len(serial.records) == 12 and not serial.errors
    for max_workers in (2, 3):
        parallel = run_monte_carlo(TUNED3, max_workers=max_workers)
        assert parallel.records == serial.records
        assert parallel.summary == serial.summary
        assert parallel.errors == serial.errors


def first_output_sample(monkeypatch, config, run):
    """The first slow output sample of ``run``, which tells its tuner calls
    apart from the other runs'."""
    firsts = []
    optimize = sim.optimize_hyperparameters

    def record(phi, y_l, *args, **kwargs):
        firsts.append(y_l.samples[0])
        return optimize(phi, y_l, *args, **kwargs)

    monkeypatch.setattr(sim, "optimize_hyperparameters", record)
    run_monte_carlo(config, max_workers=1)
    monkeypatch.setattr(sim, "optimize_hyperparameters", optimize)
    # one worker tunes in run order, one call per regularized estimator
    return firsts[run * len(config.estimators)]


def test_tuner_error_in_a_worker_is_the_run_error_of_one_worker(monkeypatch):
    """A :class:`NumericalError` with diagnostics, raised by the tuner of run
    1 in a worker process, is the :class:`RunError` (type, message and
    diagnostics) that one worker records, and runs 0 and 2 are recorded."""
    run_1 = first_output_sample(monkeypatch, TUNED3, 1)
    optimize = sim.optimize_hyperparameters
    diagnostics = {"gamma": 1e-5, "condition_estimate": 3e17}

    def fail_run_1(phi, y_l, template, eta0, *, gamma, budget):
        if y_l.samples[0] == run_1 and template == TUNED3.pk_kernel:
            raise NumericalError("no factor", diagnostics)
        return optimize(phi, y_l, template, eta0, gamma=gamma, budget=budget)

    monkeypatch.setattr(sim, "optimize_hyperparameters", fail_run_1)
    serial = run_monte_carlo(TUNED3, max_workers=1)
    assert serial.errors == (sim.RunError(1, "no factor", "NumericalError", diagnostics),)
    assert {r.run for r in serial.records} == {0, 2}
    for max_workers in (2, 3):
        parallel = run_monte_carlo(TUNED3, max_workers=max_workers)
        assert parallel.errors == serial.errors
        assert parallel.records == serial.records
        assert parallel.summary == serial.summary


def test_a_dead_tuning_worker_fails_the_waiting_runs(monkeypatch):
    """A worker that dies while it tunes run 1 takes that run's task with
    it: the study fails the runs left waiting for a tuning, with
    ``ChildProcessError``, instead of waiting forever, and no worker
    outlives it."""
    run_1 = first_output_sample(monkeypatch, TUNED3, 1)
    optimize = sim.optimize_hyperparameters

    def die_in_run_1(phi, y_l, *args, **kwargs):
        if y_l.samples[0] == run_1:
            os.kill(os.getpid(), signal.SIGKILL)
        return optimize(phi, y_l, *args, **kwargs)

    monkeypatch.setattr(sim, "optimize_hyperparameters", die_in_run_1)
    results = []
    study = threading.Thread(target=lambda: results.append(run_monte_carlo(TUNED3, max_workers=2)), daemon=True)
    study.start()
    study.join(timeout=120)
    assert not study.is_alive()
    (result,) = results
    assert 1 in {e.run for e in result.errors}
    assert {(e.error_type, e.message) for e in result.errors} == {("ChildProcessError", "a tuning worker process died")}
    assert {e.run for e in result.errors} | {r.run for r in result.records} == set(range(TUNED3.runs))
    assert multiprocessing.active_children() == []


def spy_pools(monkeypatch):
    """The process count of every ``multiprocessing`` pool made from now on."""
    sizes = []

    class Spy(multiprocessing.pool.Pool):
        def __init__(self, processes, *args, **kwargs):
            sizes.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", Spy)
    return sizes


def test_tuning_pool_has_one_process_per_concurrent_run(monkeypatch):
    """The pool has ``min(max_workers, runs)`` processes: 2 for 64 workers
    and 2 runs.  A study with one run, or with nothing to tune, forks none."""
    sizes = spy_pools(monkeypatch)
    assert not run_monte_carlo(TUNED, max_workers=64).errors
    assert not run_monte_carlo(replace(TUNED, runs=1), max_workers=2).errors
    assert not run_monte_carlo(FIXED, max_workers=2).errors
    assert sizes == [2]


class Interrupt(BaseException):
    """Not an ``Exception``: it ends the study instead of becoming a RunError."""


def test_no_tuning_worker_outlives_the_study(monkeypatch, tmp_path):
    """Every worker process has exited, and been reaped, when the study
    returns and when it raises.  A ``BaseException`` in run 1 of a 4-run
    study ends it before any later run starts."""
    kept = logged_tuner(monkeypatch, tmp_path, lambda eta0, budget: os.getpid())

    def assert_workers_gone():
        pids = set(kept())
        assert pids and os.getpid() not in pids
        assert multiprocessing.active_children() == []
        assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]

    assert not run_monte_carlo(TUNED, max_workers=2).errors
    assert_workers_gone()

    execute, started = sim._execute_run, []

    def interrupted(config, run, *args):
        started.append(run)
        records = execute(config, run, *args)
        if run == 1:
            raise Interrupt
        return records

    monkeypatch.setattr(sim, "_execute_run", interrupted)
    with pytest.raises(Interrupt):
        run_monte_carlo(replace(TUNED, runs=4), max_workers=2)
    assert started == [0, 1]
    assert_workers_gone()


@pytest.mark.parametrize("config", [TUNED, FIXED], ids=["tuned", "untuned"])
@pytest.mark.parametrize("max_workers", [1, 2])
def test_runs_plants_and_fits_stay_in_the_calling_thread(monkeypatch, config, max_workers):
    """Every run, plant and fit of the calling process runs in the calling
    thread, and each largest-order pk fit follows its own run's plant with
    no other run's plant in between: perfbench pairs each
    ``sim.regularized_fir`` call with the last ``sim.build_plant`` call of
    its thread."""
    calls = []

    def spy(name):
        function = getattr(sim, name)

        def called(first, *args, **kwargs):
            calls.append((name, threading.get_ident(), first))
            return function(first, *args, **kwargs)

        monkeypatch.setattr(sim, name, called)

    for name in ("_execute_run", "build_plant", "regularized_fir"):
        spy(name)
    result = run_monte_carlo(config, max_workers=max_workers)
    assert not result.errors
    assert {name for name, _, _ in calls} == {"_execute_run", "build_plant", "regularized_fir"}
    assert {thread for _, thread, _ in calls} == {threading.get_ident()}
    largest = max(config.orders)
    # the plants built since the previous largest-order pk fit, per such fit
    built, since = [], []
    for name, _, first in calls:
        if name == "build_plant":
            since.append(first)
        elif name == "regularized_fir" and isinstance(first.kernel, KernelSum) and first.phi.order == largest:
            built.append(since)
            since = []
    plants = [r.plant for r in result.records if r.estimator == "pk" and r.order == largest]
    assert len(built) == len(plants) == config.runs
    assert all(since and set(since) == {plant} for since, plant in zip(built, plants))


@pytest.mark.parametrize(
    "max_workers, error",
    [(2.5, TypeError), (0, ValueError), (-3, ValueError), (True, TypeError)],
    ids=["fraction", "zero", "negative", "bool"],
)
def test_bad_worker_count_rejected_before_any_run(monkeypatch, max_workers, error):
    """A worker count that is not an integer >= 1 is an error, not a study."""
    started = []
    monkeypatch.setattr(sim, "_execute_run", lambda *args: started.append(args))
    with pytest.raises(error, match="max_workers"):
        run_monte_carlo(FIXED, max_workers=max_workers)
    assert started == []


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

    def spy(*args):
        seen.append(thread_counts())
        return execute(*args)

    monkeypatch.setattr(sim, "_execute_run", spy)
    result = run_monte_carlo(FIXED, max_workers=max_workers)
    assert not result.errors
    assert seen == [[1] * len(blas_at_two)] * FIXED.runs
    assert thread_counts() == blas_at_two


@requires_openblas
def test_tuning_workers_see_single_threaded_blas(monkeypatch, tmp_path, blas_at_two):
    """The worker processes tune on one BLAS thread, and the caller's thread
    counts come back when the study returns."""
    kept = logged_tuner(monkeypatch, tmp_path, lambda eta0, budget: (os.getpid(), thread_counts()))
    assert not run_monte_carlo(TUNED, max_workers=2).errors
    seen = kept()
    assert os.getpid() not in {pid for pid, _ in seen}
    assert [counts for _, counts in seen] == [[1] * len(blas_at_two)] * len(TUNED.estimators) * TUNED.runs
    assert thread_counts() == blas_at_two


def os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def start_blas_pools():
    """Start the thread pools of numpy's and scipy's OpenBLAS, and check
    that their threads are alive."""
    a = np.random.default_rng(0).standard_normal((500, 500))
    a @ a  # noqa: B018 - starts numpy's pool
    scipy.linalg.blas.dgemm(1.0, a, a)
    assert os_threads() > threading.active_count()


@requires_openblas
def test_openblas_stops_its_pool_at_fork(blas_at_two):
    """A bare fork, with no program code before it, leaves the parent with
    its Python threads only: each OpenBLAS stops its pool in its own fork
    handler.  The tuning pool relies on this library behaviour."""
    start_blas_pools()
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    assert os_threads() == threading.active_count()


@requires_openblas
def test_tuning_workers_fork_no_blas_thread(monkeypatch, blas_at_two):
    """After each fork of a tuning worker the parent runs its Python threads
    only, so no OpenBLAS pool thread was alive when the fork copied it."""
    start_blas_pools()
    counts = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            counts.append((os_threads(), threading.active_count()))
        return pid

    monkeypatch.setattr(os, "fork", spy)
    assert not run_monte_carlo(TUNED, max_workers=2).errors
    assert len(counts) == 2
    assert all(threads == python_threads for threads, python_threads in counts)


class FakeOpenBLAS:
    """A loaded OpenBLAS whose ``get_parallel`` returns ``parallel``, or
    which lacks the symbol where ``parallel`` is None."""

    def __init__(self, parallel):
        if parallel is not None:
            self.openblas_get_parallel = lambda: parallel


@pytest.mark.parametrize(
    "parallel, safe",
    [
        ([0], True),
        ([1], True),
        ([1, 0], True),
        ([2], False),  # OpenMP
        ([1, 2], False),
        ([None], False),
        ([1, None], False),
        ([], False),  # no OpenBLAS loaded
    ],
)
def test_fork_safe_needs_every_openblas_off_openmp(monkeypatch, parallel, safe):
    libraries = [(FakeOpenBLAS(p), "openblas_", "") for p in parallel]
    monkeypatch.setattr(_blas, "_openblas_libraries", lambda: libraries)
    assert _blas.fork_safe() is safe


def test_tuning_stays_in_the_study_where_blas_is_not_fork_safe(monkeypatch):
    """A tuned study whose BLAS is not fork-safe forks no pool and gives the
    serial study's records."""
    serial = run_monte_carlo(TUNED, max_workers=1)
    sizes = spy_pools(monkeypatch)
    monkeypatch.setattr(sim, "fork_safe", lambda: False)
    result = run_monte_carlo(TUNED, max_workers=2)
    assert sizes == []
    assert not result.errors
    assert result.records == serial.records


@requires_openblas
def test_pin_restored_when_body_raises(blas_at_two):
    with pytest.raises(RuntimeError, match="boom"):
        with _blas.single_threaded_blas():
            assert thread_counts() == [1] * len(blas_at_two)
            raise RuntimeError("boom")
    assert thread_counts() == blas_at_two


@requires_openblas
def test_nested_pins_restore_the_outer_counts(blas_at_two):
    """``cli.main``'s pin wraps ``run_monte_carlo``'s: the inner pin
    restores 1s, the outer one the counts it found."""
    with _blas.single_threaded_blas():
        with _blas.single_threaded_blas():
            pass
        assert thread_counts() == [1] * len(blas_at_two)
    assert thread_counts() == blas_at_two
