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
are bit-reproducible and runs can execute in parallel.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg

from ._blas import single_threaded_blas
from .estimator import (
    HyperparameterVector,
    RegularizedProblem,
    apply_hyperparameters,
    default_bounds,
    goodness_of_fit,
    optimize_hyperparameters,
    predict_fast_output,
    regularized_fir,
)
from .kernels import (
    DiagonalCorrelated,
    KernelSpec,
    KernelSum,
    ResonantPole,
    kernel_spec_from_json,
    kernel_spec_to_json,
)
from .regressor import RegressorMatrix, build_regressor, identifiability_check, least_squares_fir
from .signals import FastSignal, FrfSample, downsample, random_multisine, random_noise

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
    "monte_carlo_config_to_json",
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
        for name in ("m1", "m2", "k1", "k2", "d1", "d2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value}")


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


def build_plant(params: ContinuousPlant, input_mass: int = 1, output_mass: int = 2) -> StateSpace:
    """Four-state model of the two-mass chain.

    State is ``[x1, v1, x2, v2]``.  The force input and displacement output
    default to mass 1 and mass 2 respectively but are configurable since the
    benchmark's wiring admits either attachment point.
    """
    if input_mass not in (1, 2) or output_mass not in (1, 2):
        raise ValueError("input_mass and output_mass must be 1 or 2")
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
    b[1 if input_mass == 1 else 3, 0] = 1.0 / (m1 if input_mass == 1 else m2)
    c = np.zeros((1, 4))
    c[0, 0 if output_mass == 1 else 2] = 1.0
    return StateSpace(A=a, B=b, C=c, D=np.zeros((1, 1)))


def zoh_discretize(plant: StateSpace, period: float) -> DiscretePlant:
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
    if not (period > 0):
        raise ValueError(f"period must be positive, got {period}")
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


def simulate(plant: DiscretePlant, u: FastSignal, x0: np.ndarray | None = None) -> FastSignal:
    """State recursion ``x+ = Ax + Bu``, ``y = Cx + Du`` from ``x0`` (default zero)."""
    n = plant.A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    a, b = plant.A, plant.B[:, 0]
    c, d = plant.C[0, :], plant.D[0, 0]
    y = np.empty(len(u))
    for t, ut in enumerate(u.samples):
        y[t] = c @ x + d * ut
        x = a @ x + b * ut
    return FastSignal(samples=y, period=u.period)


def plant_frf(plant: DiscretePlant, omegas: Sequence[float]) -> list[FrfSample]:
    """``C (e^{jwT} I - A)^{-1} B + D`` at each angular frequency ``w``."""
    eye = np.eye(plant.A.shape[0])
    out = []
    for omega in np.asarray(omegas, dtype=float):
        z = np.exp(1j * omega * plant.period)
        resolvent = np.linalg.solve(z * eye - plant.A, plant.B)
        out.append(FrfSample(float(omega), complex((plant.C @ resolvent)[0, 0] + plant.D[0, 0])))
    return out


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


@dataclass(frozen=True)
class MonteCarloConfig:
    """Settings for one study; defaults follow the benchmark configuration
    (fast period 0.1 s, factor 3, 600 input samples, variance-ratio SNR in
    [40, 60], parameters perturbed within +/-10%)."""

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, int(value))
        if not self.orders:
            raise ValueError("orders must be non-empty")
        for p in self.orders:
            if not 1 <= p <= self.n_samples:
                raise ValueError(f"order {p} outside [1, {self.n_samples}]")
        if not 0 <= self.perturbation < 1:
            raise ValueError(f"perturbation must be in [0, 1), got {self.perturbation}")
        if not 0 < self.snr_range[0] <= self.snr_range[1]:
            raise ValueError(f"invalid snr_range {self.snr_range}")
        unknown = set(self.estimators) - {"ls", "dc", "pk"}
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        object.__setattr__(self, "orders", tuple(int(p) for p in self.orders))
        object.__setattr__(self, "estimators", tuple(self.estimators))
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
    run: int
    message: str


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
        name: getattr(nominal, name) * (1.0 + rng.uniform(-bound, bound))
        for name in ("m1", "m2", "k1", "k2", "d1", "d2")
    }
    return ContinuousPlant(**values)


def _term_tunables(term, prefix: str) -> dict[str, float]:
    if isinstance(term, ResonantPole):
        return {
            f"{prefix}frequency": term.frequency,
            f"{prefix}decay": term.decay,
            f"{prefix}sigma1": term.sigma1,
            f"{prefix}sigma2": term.sigma2,
        }
    if isinstance(term, DiagonalCorrelated):
        return {f"{prefix}scale": term.scale, f"{prefix}decay": term.decay}
    return {}


def _tuning_start(config: MonteCarloConfig, estimator: str) -> HyperparameterVector:
    """Tunable parameters per estimator: the regularization weight plus every
    kernel term's scale, decay, and (for resonant terms) frequency and
    amplitudes.  Bounds come from :func:`default_bounds` around the inits."""
    spec = config.kernel_for(estimator)
    omega_max = min(math.pi * config.factor, 2.0 * math.pi)
    values = {"gamma": config.gamma}
    if isinstance(spec, KernelSum):
        for index, term in enumerate(spec.terms):
            values.update(_term_tunables(term, f"terms.{index}."))
    else:
        values.update(_term_tunables(spec, ""))
    bounds = {name: default_bounds(name, value, omega_max) for name, value in values.items()}
    return HyperparameterVector(values=values, bounds=bounds)


def _sweep_cost(names) -> int:
    """Objective evaluations one full coordinate sweep consumes."""
    return sum(31 if name.rsplit(".", 1)[-1] == "frequency" else 13 for name in names)


def _tuned_parameters(config, estimator, phi, y_l) -> tuple[KernelSpec, float]:
    """Marginal-likelihood tuning for one run.

    Resonance terms need three full sweeps before the search escapes the
    early local minimum where a misplaced resonance is simply muted; kernels
    without resonant terms settle in two.  ``tune_budget`` caps either.
    """
    template = config.kernel_for(estimator)
    eta0 = _tuning_start(config, estimator)
    sweeps = 3 if any("frequency" in name for name in eta0.values) else 2
    budget = min(config.tune_budget, sweeps * _sweep_cost(eta0.values) + 1)
    eta = optimize_hyperparameters(phi, y_l, template, eta0, gamma=config.gamma, budget=budget)
    gamma = eta.values.get("gamma", config.gamma)
    spec = apply_hyperparameters(template, {k: v for k, v in eta.values.items() if k != "gamma"})
    return spec, gamma


def _execute_run(config: MonteCarloConfig, run: int) -> list[RunRecord]:
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

    # hyperparameters describe the system (decay rate, resonances, response
    # scale), not the model order: tune once per run at the largest order
    max_order = max(config.orders)
    phi_max = build_regressor(u_train, config.factor, max_order)
    fitted: dict[str, tuple[KernelSpec, float]] = {}
    for estimator in config.estimators:
        if estimator != "ls":
            if config.tune:
                fitted[estimator] = _tuned_parameters(config, estimator, phi_max, y_l)
            else:
                fitted[estimator] = (config.kernel_for(estimator), config.gamma)

    records = []
    for order in config.orders:
        # column i of the regressor is u(mF - i): lower orders are left blocks
        phi = RegressorMatrix(
            entries=phi_max.entries[:, :order], factor=config.factor, order=order
        )
        for estimator in config.estimators:
            if estimator == "ls":
                if not identifiability_check(phi).unique:
                    records.append(
                        RunRecord(run, int(streams[0]), estimator, order, "non_unique", None, snr, plant_params)
                    )
                    continue
                model = least_squares_fir(phi, y_l)
            else:
                spec, gamma = fitted[estimator]
                model = regularized_fir(
                    RegularizedProblem(phi=phi, y_l=y_l, kernel=spec, gamma=gamma)
                )
            gof = goodness_of_fit(y_valid, predict_fast_output(model, u_valid))
            records.append(
                RunRecord(run, int(streams[0]), estimator, order, "ok", gof, snr, plant_params)
            )
    return records


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
    """Execute all runs (optionally in parallel) and aggregate GoF statistics.

    ``max_workers`` threads run the runs and are the study's only
    parallelism: for the duration of the call every loaded OpenBLAS runs on
    one thread.  At these problem sizes BLAS threads cost more than they
    give, and under run-level workers they oversubscribe the cores.  The pin
    is process-wide: BLAS calls from other threads of the process run on one
    thread too until the call returns (the last to return, if calls
    overlap), and the previous thread counts are then restored, also when
    the call raises.

    Results are identical for any ``max_workers``: every run derives its RNG
    streams from ``(base_seed, run_index)`` alone and records are ordered by
    run index.  A failing run is recorded as a :class:`RunError` and does not
    abort the study.
    """
    outcomes: list[list[RunRecord] | RunError] = [None] * config.runs  # type: ignore[list-item]

    def one(run: int):
        try:
            return _execute_run(config, run)
        except Exception as exc:  # noqa: BLE001 - reported per run, never silent
            return RunError(run=run, message=f"{type(exc).__name__}: {exc}")

    with single_threaded_blas():
        if max_workers <= 1:
            for run in range(config.runs):
                outcomes[run] = one(run)
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                for run, outcome in enumerate(pool.map(one, range(config.runs))):
                    outcomes[run] = outcome

    records: list[RunRecord] = []
    errors: list[RunError] = []
    for outcome in outcomes:
        if isinstance(outcome, RunError):
            errors.append(outcome)
        else:
            records.extend(outcome)
    return MonteCarloResult(
        records=tuple(records),
        summary=_summarize(config, records),
        errors=tuple(errors),
    )


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def write_records_csv(result: MonteCarloResult, path: str | Path) -> None:
    lines = ["run,seed,estimator,order,status,gof,snr,m1,m2,k1,k2,d1,d2"]
    for r in result.records:
        p = r.plant
        lines.append(
            f"{r.run},{r.seed},{r.estimator},{r.order},{r.status},{_fmt(r.gof)},{_fmt(r.snr)},"
            f"{_fmt(p.m1)},{_fmt(p.m2)},{_fmt(p.k1)},{_fmt(p.k2)},{_fmt(p.d1)},{_fmt(p.d2)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(result: MonteCarloResult, path: str | Path) -> None:
    lines = ["estimator,order,mean_gof,std_gof,count"]
    for s in result.summary:
        lines.append(f"{s.estimator},{s.order},{_fmt(s.mean_gof)},{_fmt(s.std_gof)},{s.count}")
    Path(path).write_text("\n".join(lines) + "\n")


def monte_carlo_config_from_json(obj: dict) -> MonteCarloConfig:
    known = {
        "runs", "orders", "base_seed", "period_s", "factor", "n_samples",
        "perturbation", "snr_range", "input_rms", "band", "gamma",
        "estimators", "dc_kernel", "pk_kernel", "tune", "tune_budget", "nominal",
    }
    extra = set(obj) - known
    if extra:
        raise ValueError(f"unknown Monte Carlo settings {sorted(extra)}")
    kwargs = {}
    for src, dst in (("runs", "runs"), ("base_seed", "base_seed"), ("factor", "factor"),
                     ("n_samples", "n_samples"), ("perturbation", "perturbation"),
                     ("input_rms", "input_rms"), ("gamma", "gamma"), ("tune", "tune"),
                     ("tune_budget", "tune_budget")):
        if src in obj:
            kwargs[dst] = obj[src]
    if "period_s" in obj:
        kwargs["period"] = float(obj["period_s"])
    if "orders" in obj:
        kwargs["orders"] = tuple(int(p) for p in obj["orders"])
    if "snr_range" in obj:
        kwargs["snr_range"] = (float(obj["snr_range"][0]), float(obj["snr_range"][1]))
    if "band" in obj and obj["band"] is not None:
        kwargs["band"] = (int(obj["band"][0]), int(obj["band"][1]))
    if "estimators" in obj:
        kwargs["estimators"] = tuple(obj["estimators"])
    if "dc_kernel" in obj:
        kwargs["dc_kernel"] = kernel_spec_from_json(obj["dc_kernel"])
    if "pk_kernel" in obj:
        kwargs["pk_kernel"] = kernel_spec_from_json(obj["pk_kernel"])
    if "nominal" in obj:
        kwargs["nominal"] = ContinuousPlant(**{k: float(v) for k, v in obj["nominal"].items()})
    return MonteCarloConfig(**kwargs)


def monte_carlo_config_to_json(config: MonteCarloConfig) -> dict:
    return {
        "runs": config.runs,
        "orders": list(config.orders),
        "base_seed": config.base_seed,
        "period_s": config.period,
        "factor": config.factor,
        "n_samples": config.n_samples,
        "perturbation": config.perturbation,
        "snr_range": list(config.snr_range),
        "input_rms": config.input_rms,
        "band": list(config.band) if config.band is not None else None,
        "gamma": config.gamma,
        "estimators": list(config.estimators),
        "dc_kernel": kernel_spec_to_json(config.dc_kernel),
        "pk_kernel": kernel_spec_to_json(config.pk_kernel),
        "tune": config.tune,
        "tune_budget": config.tune_budget,
        "nominal": {k: getattr(config.nominal, k) for k in ("m1", "m2", "k1", "k2", "d1", "d2")},
    }
