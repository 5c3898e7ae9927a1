"""Two-mass benchmark plant and the reproducible Monte Carlo study.

The benchmark is a mass-spring-damper chain: mass 1 is tied to ground through
``(k1, d1)`` and to mass 2 through ``(k2, d2)``; the input is a force on mass
1 and the output is the displacement of mass 2.  With the nominal parameters
the plant has two resonances, the second of which lies above the Nyquist
frequency of the slow output sampler -- exactly the regime the regularized
estimators are meant to recover.

Each Monte Carlo run perturbs the plant, excites it with fresh random-phase
multisines, adds measurement noise at a drawn variance ratio, downsamples the
training output, and scores least-squares and kernel-regularized fits of
several orders against the noiseless fast-rate validation output.  Runs own
independent RNG streams derived from ``(base_seed, run_index)``, so results
are bit-reproducible and a tuning worker process rebuilds a run's data from
its seed and index alone.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg

from ._blas import fork_safe, single_threaded_blas
from .errors import NumericalError
from .estimator import (
    RegularizedProblem,
    goodness_of_fit,
    kernel_and_gamma,
    optimize_hyperparameters,
    predict_fast_output,
    regularized_fir,
    tuning_budget,
    tuning_start,
)
from .kernels import (
    DiagonalCorrelated,
    KernelSpec,
    KernelSum,
    ResonantPole,
    kernel_spec_from_json,
)
from .regressor import build_regressor, least_squares_fir
from .signals import (
    FastSignal,
    _integer,
    _known_keys,
    _number,
    _pair,
    _positive,
    _write_csv,
    downsample,
    random_multisine,
    random_noise,
)

__all__ = [
    "ContinuousPlant",
    "StateSpace",
    "DiscretePlant",
    "NOMINAL_PLANT",
    "build_plant",
    "zoh_discretize",
    "simulate",
    "plant_frf",
    "default_dc_kernel",
    "default_pk_kernel",
    "MonteCarloConfig",
    "RunRecord",
    "RunError",
    "SummaryEntry",
    "MonteCarloResult",
    "run_monte_carlo",
    "monte_carlo_config_from_json",
    "write_records_csv",
    "write_summary_csv",
]


@dataclass(frozen=True)
class ContinuousPlant:
    """Physical parameters of the two-mass benchmark; all strictly positive."""

    m1: float
    m2: float
    k1: float
    k2: float
    d1: float
    d2: float

    def __post_init__(self):
        for param in fields(self):
            object.__setattr__(self, param.name, _positive(param.name, getattr(self, param.name)))


NOMINAL_PLANT = ContinuousPlant(m1=1.0, m2=1.0, k1=15.0, k2=100.0, d1=0.45, d2=0.06)


@dataclass(frozen=True)
class StateSpace:
    """Continuous-time quadruple ``x' = Ax + Bu``, ``y = Cx + Du``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class DiscretePlant:
    """Zero-order-hold discretization of a :class:`StateSpace` at period ``T_h``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    period: float


def build_plant(params: ContinuousPlant) -> StateSpace:
    """Four-state model of the two-mass chain.

    State is ``[x1, v1, x2, v2]``.  The force acts on mass 1 and the output
    is the displacement of mass 2.
    """
    m1, m2, k1, k2, d1, d2 = params.m1, params.m2, params.k1, params.k2, params.d1, params.d2
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-(k1 + k2) / m1, -(d1 + d2) / m1, k2 / m1, d2 / m1],
            [0.0, 0.0, 0.0, 1.0],
            [k2 / m2, d2 / m2, -k2 / m2, -d2 / m2],
        ]
    )
    b = np.zeros((4, 1))
    b[1, 0] = 1.0 / m1
    c = np.zeros((1, 4))
    c[0, 2] = 1.0
    return StateSpace(A=a, B=b, C=c, D=np.zeros((1, 1)))


def zoh_discretize(plant: StateSpace, period: float) -> DiscretePlant:
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
    period = _positive("period", period)
    n = plant.A.shape[0]
    m = plant.B.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = plant.A
    block[:n, n:] = plant.B
    exp_block = scipy.linalg.expm(block * period)
    return DiscretePlant(
        A=exp_block[:n, :n],
        B=exp_block[:n, n:],
        C=plant.C.copy(),
        D=plant.D.copy(),
        period=period,
    )


_SIMULATION_BLOCK = 64


def _doubled_powers(a: np.ndarray, b: np.ndarray, c: np.ndarray, count: int):
    """``C A^k`` (rows) and ``A^k B`` (columns) for ``k < count``, and ``A^count``.

    ``count`` is a power of two.  Each of the ``log2(count)`` doubling steps
    extends both lists by one product with ``A^k`` and squares ``A^k``.
    """
    rows, columns, power = c.reshape(1, -1), b.reshape(-1, 1), a
    while rows.shape[0] < count:
        rows = np.vstack((rows, rows @ power))
        columns = np.hstack((columns, power @ columns))
        power = power @ power
    return rows, columns, power


def simulate(plant: DiscretePlant, u: FastSignal, x0: np.ndarray | None = None) -> FastSignal:
    """State recursion ``x+ = Ax + Bu``, ``y = Cx + Du`` from ``x0`` (default zero).

    Runs as a convolution with the impulse response in blocks of ``L = 64``
    samples: inside a block the output is the block's input times the lower
    triangular Toeplitz matrix of ``D, CB, CAB, ...`` plus the free response
    ``C A^k x`` of the state at the block's start, and the state carries into
    the next block through ``A^L``.  The powers come from ``log2 L`` doublings
    of the ``n x n`` matrix ``A``.  O(N (L + n)) time and O(N + L^2) memory for
    ``N`` samples; the Python loop runs once per block.
    """
    n = plant.A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    samples, width = len(u), _SIMULATION_BLOCK
    free, forced, carry = _doubled_powers(plant.A, plant.B[:, 0], plant.C[0, :], width)
    # impulse[k] = D for k = 0, C A^(k-1) B after it
    impulse = np.concatenate(([plant.D[0, 0]], free[:-1] @ plant.B[:, 0]))
    lags = np.subtract.outer(np.arange(width), np.arange(width))
    toeplitz = np.where(lags >= 0, impulse[np.abs(lags)], 0.0)
    blocks = -(-samples // width)
    inputs = np.zeros(blocks * width)
    inputs[:samples] = u.samples
    inputs = inputs.reshape(blocks, width)
    # state increment of a block: sum_j A^(L-1-j) B u_j
    increments = inputs @ forced[:, ::-1].T
    states = np.empty((blocks, n))
    for block in range(blocks):
        states[block] = x
        x = carry @ x + increments[block]
    y = inputs @ toeplitz.T + states @ free.T
    return FastSignal(samples=y.reshape(-1)[:samples], period=u.period)


def plant_frf(plant: DiscretePlant, omegas: Sequence[float]) -> np.ndarray:
    """``C (e^{jwT} I - A)^{-1} B + D`` at each angular frequency ``w``, as a
    complex array aligned with ``omegas``; any real frequency is accepted.

    One batched solve over the stacked ``e^{jwT} I - A``: O(K n^3) time and
    O(K n^2) memory for ``K`` frequencies and ``n`` states.
    """
    w = np.asarray(omegas, dtype=float)
    z = np.exp(1j * w * plant.period)
    n = plant.A.shape[0]
    shifted = z[:, None, None] * np.eye(n) - plant.A
    resolvents = np.linalg.solve(shifted, np.broadcast_to(plant.B, (w.size, *plant.B.shape)))
    return (plant.C @ resolvents)[:, 0, 0] + plant.D[0, 0]


def default_dc_kernel(period: float) -> DiagonalCorrelated:
    """Benchmark decaying kernel: decay ``e^(-0.5 T)``, correlation ``e^(-0.1 T)``."""
    return DiagonalCorrelated(
        scale=1.0, decay=math.exp(-0.5 * period), correlation=math.exp(-0.1 * period)
    )


def default_pk_kernel(period: float) -> KernelSum:
    """Benchmark resonance-aware kernel: the decaying base plus one resonant
    term per expected pole pair (0.4 Hz and 2 Hz at the nominal parameters)."""
    decay = math.exp(-0.5 * period)
    return KernelSum(
        terms=(
            default_dc_kernel(period),
            ResonantPole(decay=decay, frequency=2.0 * math.pi * 0.4 * period),
            ResonantPole(decay=decay, frequency=2.0 * math.pi * 2.0 * period),
        )
    )


_JSON_NAMES = {"period": "period_s"}


@dataclass(frozen=True)
class MonteCarloConfig:
    """Settings for one study; defaults follow the benchmark configuration
    (fast period 0.1 s, factor 3, 600 input samples, variance-ratio SNR in
    [40, 60], parameters perturbed within +/-10%).  Its JSON names are its
    field names, with ``period_s`` for ``period``."""

    runs: int = 100
    orders: tuple[int, ...] = (50, 100, 150, 200, 300, 450, 600)
    base_seed: int = 0
    period: float = 0.1
    factor: int = 3
    n_samples: int = 600
    perturbation: float = 0.10
    snr_range: tuple[float, float] = (40.0, 60.0)
    input_rms: float = 1.0
    band: tuple[int, int] | None = None
    gamma: float = 1e-5
    estimators: tuple[str, ...] = ("ls", "dc", "pk")
    dc_kernel: KernelSpec | None = None
    pk_kernel: KernelSpec | None = None
    tune: bool = False
    tune_budget: int = 600
    nominal: ContinuousPlant = NOMINAL_PLANT

    def __post_init__(self):
        for name in ("runs", "factor", "n_samples", "tune_budget"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed, 0))
        for name in ("period", "input_rms", "gamma"):
            object.__setattr__(self, name, _positive(_JSON_NAMES.get(name, name), getattr(self, name)))
        if self.band is not None:
            lo, hi = _pair("band", self.band, _integer)
            if not lo <= hi <= self.n_samples // 2:
                raise ValueError(f"band {self.band} must satisfy 1 <= lo <= hi <= {self.n_samples // 2}")
            object.__setattr__(self, "band", (lo, hi))
        if not (isinstance(self.orders, (tuple, list)) and self.orders):
            raise ValueError(f"orders must be a non-empty list of model orders, got {self.orders!r}")
        object.__setattr__(self, "orders", tuple(_integer("orders", p, 1) for p in self.orders))
        if len(set(self.orders)) < len(self.orders):
            raise ValueError(f"orders {self.orders} must not repeat an order")
        if max(self.orders) > self.n_samples:
            raise ValueError(f"orders {self.orders} must not exceed n_samples {self.n_samples}")
        object.__setattr__(self, "perturbation", _number("perturbation", self.perturbation))
        if not 0 <= self.perturbation < 1:
            raise ValueError(f"perturbation must be in [0, 1), got {self.perturbation}")
        object.__setattr__(self, "snr_range", _pair("snr_range", self.snr_range, _positive))
        if not self.snr_range[0] <= self.snr_range[1]:
            raise ValueError(f"invalid snr_range {self.snr_range}")
        known = ("ls", "dc", "pk")
        estimators = self.estimators
        if not (isinstance(estimators, (tuple, list)) and estimators and all(e in known for e in estimators)):
            raise ValueError(f"estimators must be a non-empty list of names from {known}, got {estimators!r}")
        if len(set(estimators)) < len(estimators):
            raise ValueError(f"estimators {estimators!r} must not repeat an estimator")
        object.__setattr__(self, "estimators", tuple(estimators))
        if not isinstance(self.tune, bool):
            raise ValueError(f"tune must be true or false, got {self.tune!r}")
        if not isinstance(self.nominal, ContinuousPlant):
            raise ValueError(f"nominal must be a ContinuousPlant, got {self.nominal!r}")
        if self.dc_kernel is None:
            object.__setattr__(self, "dc_kernel", default_dc_kernel(self.period))
        if self.pk_kernel is None:
            object.__setattr__(self, "pk_kernel", default_pk_kernel(self.period))

    def kernel_for(self, estimator: str) -> KernelSpec:
        return self.dc_kernel if estimator == "dc" else self.pk_kernel


@dataclass(frozen=True)
class RunRecord:
    run: int
    seed: int
    estimator: str
    order: int
    status: str  # "ok" | "non_unique"
    gof: float | None
    snr: float
    plant: ContinuousPlant


@dataclass(frozen=True)
class RunError:
    """A run that raised: the exception's type name, its message and, for a
    :class:`NumericalError`, its ``diagnostics`` (empty for other types)."""

    run: int
    message: str
    error_type: str = ""
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SummaryEntry:
    estimator: str
    order: int
    mean_gof: float | None
    std_gof: float | None
    count: int


@dataclass(frozen=True)
class MonteCarloResult:
    records: tuple[RunRecord, ...]
    summary: tuple[SummaryEntry, ...]
    errors: tuple[RunError, ...] = field(default_factory=tuple)


def _perturbed_plant(nominal: ContinuousPlant, rng: np.random.Generator, bound: float) -> ContinuousPlant:
    values = {
        param.name: getattr(nominal, param.name) * (1.0 + rng.uniform(-bound, bound))
        for param in fields(nominal)
    }
    return ContinuousPlant(**values)


def _tuning(config: MonteCarloConfig) -> dict:
    """The tuner's start and budget per regularized estimator of a tuned
    study, from :func:`tuning_start` and :func:`tuning_budget`."""
    tuning = {}
    for estimator in config.estimators if config.tune else ():
        if estimator != "ls":
            try:
                eta0 = tuning_start(config.kernel_for(estimator), config.gamma, config.factor)
            except ValueError as exc:
                raise ValueError(f"cannot tune {estimator}: {exc}") from exc
            tuning[estimator] = (eta0, tuning_budget(eta0, config.tune_budget))
    return tuning


def _run_data(config: MonteCarloConfig, run: int):
    """Run ``run``'s plant seed, plant, SNR, validation data, slow training
    output and largest-order regressor, from its RNG streams alone."""
    streams = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(run,)).generate_state(5)
    rng_plant = np.random.Generator(np.random.PCG64(int(streams[0])))
    rng_snr = np.random.Generator(np.random.PCG64(int(streams[4])))

    plant_params = _perturbed_plant(config.nominal, rng_plant, config.perturbation)
    plant = zoh_discretize(build_plant(plant_params), config.period)

    u_train = random_multisine(
        config.n_samples, config.period, config.band, config.input_rms, seed=int(streams[1])
    )
    u_valid = random_multisine(
        config.n_samples, config.period, config.band, config.input_rms, seed=int(streams[2])
    )
    y_train = simulate(plant, u_train)
    y_valid = simulate(plant, u_valid)

    snr = float(rng_snr.uniform(*config.snr_range))
    noise = random_noise(config.n_samples, config.period, rms=1.0, seed=int(streams[3]))
    # rescale by measured variances so the drawn ratio holds exactly post hoc
    sigma = math.sqrt(float(np.var(y_train.samples)) / (snr * float(np.var(noise.samples))))
    y_noisy = FastSignal(samples=y_train.samples + sigma * noise.samples, period=config.period)
    y_l = downsample(y_noisy, config.factor)
    phi_max = build_regressor(u_train, config.factor, max(config.orders))
    return int(streams[0]), plant_params, snr, u_valid, y_valid, y_l, phi_max


def _execute_run(config: MonteCarloConfig, run: int, tuned: dict) -> list[RunRecord]:
    """Run ``run``'s records, fitted with :func:`_tune`'s result ``tuned`` where it has one."""
    seed, plant_params, snr, u_valid, y_valid, y_l, phi_max = _run_data(config, run)
    fitted = {e: (config.kernel_for(e), config.gamma) for e in config.estimators if e != "ls"}
    for estimator, eta in tuned.items():
        fitted[estimator] = kernel_and_gamma(config.kernel_for(estimator), eta.values, config.gamma)

    records = []
    for order in config.orders:
        phi = phi_max.leading(order)
        for estimator in config.estimators:
            if estimator == "ls":
                model = least_squares_fir(phi, y_l)
            else:
                spec, gamma = fitted[estimator]
                model = regularized_fir(RegularizedProblem(phi=phi, y_l=y_l, kernel=spec, gamma=gamma))
            if model is None:
                status, gof = "non_unique", None
            else:
                status, gof = "ok", goodness_of_fit(y_valid, predict_fast_output(model, u_valid))
            records.append(RunRecord(run, seed, estimator, order, status, gof, snr, plant_params))
    return records


def _tune(config: MonteCarloConfig, tuning: dict, run: int) -> dict:
    """Run ``run``'s tuned :class:`HyperparameterVector` per estimator of
    ``tuning``, at the largest order (they describe the system, not the
    order), on the run's data rebuilt from its seed: a tuning worker's task."""
    if not tuning:
        return {}
    *_, y_l, phi = _run_data(config, run)
    return {
        estimator: optimize_hyperparameters(
            phi, y_l, config.kernel_for(estimator), eta0, gamma=config.gamma, budget=budget
        )
        for estimator, (eta0, budget) in tuning.items()
    }


@contextmanager
def _tuning_processes(config: MonteCarloConfig, tuning: dict, processes: int):
    """One callable per run, in run order, that returns its :func:`_tune`
    result or raises its exception, from the workers :func:`run_monte_carlo`
    describes.  The parent closes each worker's write end before the next
    fork, so a dead worker's pipe reads end of file."""
    runs = range(config.runs)
    if processes < 2 or "fork" not in multiprocessing.get_all_start_methods() or not fork_safe():
        yield [partial(_tune, config, tuning, run) for run in runs]
        return

    def work(first, results):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for run in runs[first::processes]:
            try:
                results.send(_tune(config, tuning, run))
            except Exception as exc:  # noqa: BLE001 - raised in the study, for this run alone
                results.send(exc)

    def received(pipe):
        try:
            tuned = pipe.recv()
        except EOFError:
            raise ChildProcessError("a tuning worker process died") from None
        if isinstance(tuned, Exception):
            raise tuned
        return tuned

    workers, pipes = [], []
    try:
        for first in range(processes):
            pipe, results = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(target=work, args=(first, results))
            worker.start()
            workers.append(worker)
            results.close()
            pipes.append(pipe)
        yield [partial(received, pipes[run % processes]) for run in runs]
    finally:
        for worker in workers:
            worker.kill()
            worker.join()


def _summarize(config: MonteCarloConfig, records: Sequence[RunRecord]) -> tuple[SummaryEntry, ...]:
    summary = []
    for estimator in config.estimators:
        for order in config.orders:
            gofs = [r.gof for r in records if r.estimator == estimator and r.order == order and r.gof is not None]
            summary.append(
                SummaryEntry(
                    estimator=estimator,
                    order=order,
                    mean_gof=float(np.mean(gofs)) if gofs else None,
                    std_gof=float(np.std(gofs, ddof=1)) if len(gofs) >= 2 else None,
                    count=len(gofs),
                )
            )
    return tuple(summary)


def run_monte_carlo(config: MonteCarloConfig, max_workers: int = 1) -> MonteCarloResult:
    """Execute all runs in run order, in the calling thread, and aggregate GoF statistics.

    In a tuned study with ``p = min(max_workers, runs) >= 2``
    (``max_workers`` an integer >= 1, checked before any run), each run's
    :func:`optimize_hyperparameters` calls, and only those, run in ``p``
    worker processes, since the tuner's Python code and scipy's LAPACK
    wrappers hold the GIL.  The call forks them once, before any other
    thread starts, and worker ``w`` tunes runs ``w, w + p, ...``; run by
    run, the calling thread waits for the run's tuning, makes its data and
    fits every order.  Each loaded OpenBLAS stops its idle threads in its
    own fork handler, so each fork copies one thread.  The workers ignore
    SIGINT, which reaches the study, and have exited when the call returns
    or raises.  Where fork is not available, no OpenBLAS is loaded or one
    runs on OpenMP, the runs tune in the calling thread.

    The workers are the study's only parallelism: for the duration of the
    call every loaded OpenBLAS runs on one thread, in them too.  At these
    problem sizes BLAS threads cost more than they give, and under run-level
    workers they oversubscribe the cores.  The pin is process-wide: BLAS
    calls from other threads of the process run on one thread too until the
    call returns, and the thread counts found on entry are then restored,
    also when the call raises.  Pins nest, as :func:`beyondnyq.cli.main`'s
    wraps this one, but calls that overlap from several threads are not
    supported: the first to return would restore the counts under the
    others.

    Results are identical for any ``max_workers``: every run derives its RNG
    streams from ``(base_seed, run_index)`` alone and records are ordered by
    run index.  A failing run is recorded as a :class:`RunError`, with the
    same type, message and diagnostics when its tuner raised in a worker
    process, and does not abort the study.  A worker that dies fails only
    its own unfinished runs, with ``ChildProcessError``.  A tuned study
    whose tuning start cannot be built raises ``ValueError`` before the
    first run.
    """
    max_workers = _integer("max_workers", max_workers, 1)
    tuning = _tuning(config)
    records: list[RunRecord] = []
    errors: list[RunError] = []
    processes = min(max_workers, config.runs) if tuning else 1
    with single_threaded_blas(), _tuning_processes(config, tuning, processes) as tunings:
        for run, tuned in enumerate(tunings):
            try:
                records.extend(_execute_run(config, run, tuned()))
            except Exception as exc:  # noqa: BLE001 - reported per run, never silent
                diagnostics = exc.diagnostics if isinstance(exc, NumericalError) else {}
                errors.append(RunError(run, str(exc), type(exc).__name__, diagnostics))
    return MonteCarloResult(
        records=tuple(records),
        summary=_summarize(config, records),
        errors=tuple(errors),
    )


def _values(obj) -> list:
    """The field values of dataclass ``obj``, not copied (``astuple`` deep-copies)."""
    return [getattr(obj, f.name) for f in fields(obj)]


def write_records_csv(result: MonteCarloResult, path: str | Path) -> None:
    """A row per record: its fields, the last one, ``plant``, spread into its own."""
    header = [f.name for f in fields(RunRecord)[:-1] + fields(ContinuousPlant)]
    _write_csv(path, header, (_values(r)[:-1] + _values(r.plant) for r in result.records))


def write_summary_csv(result: MonteCarloResult, path: str | Path) -> None:
    """One row per :class:`SummaryEntry`, its fields as the columns."""
    _write_csv(path, [f.name for f in fields(SummaryEntry)], map(_values, result.summary))


# the reader of a field's JSON value; other fields are their JSON values
_CONVERTERS = {
    "dc_kernel": kernel_spec_from_json,
    "pk_kernel": kernel_spec_from_json,
    "nominal": lambda obj: ContinuousPlant(**obj),
}


def monte_carlo_config_from_json(obj: dict) -> MonteCarloConfig:
    """Settings left out keep their defaults; an error (``ValueError``, or
    ``TypeError`` for a non-integral count) names the setting."""
    names = {_JSON_NAMES.get(f.name, f.name): f.name for f in fields(MonteCarloConfig)}
    _known_keys("Monte Carlo settings", obj, names)
    kwargs = {}
    for key, value in obj.items():
        try:
            kwargs[names[key]] = _CONVERTERS.get(names[key], lambda plain: plain)(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return MonteCarloConfig(**kwargs)
