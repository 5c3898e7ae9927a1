"""Command line front end: identify | simulate-mc | frf | tune.

Every command is driven by a JSON config (``--config``) and writes its outputs
under ``--out`` (or the config's ``output_dir``): ``identify`` writes
``report_<e>.json`` per estimator ``e``, ``model_<e>.json``, ``theta_<e>.csv``
and ``frf_<e>.csv`` per estimator that has a model, and ``reports.csv`` with a
row per report; ``simulate-mc`` ``runs.csv`` and ``summary.csv``; ``frf``
``frf.csv``; ``tune`` ``ml_trace.csv`` and ``tuned_hyperparameters.json``.
All are deterministic given the config and seed, with no timestamps, in one
format: CSV floats to 17 significant digits (they read back exactly), an empty
cell for a missing value, and JSON with sorted keys and an indent of 2.

Exit codes: 0 success, 1 numerical failure, 2 input/config error.  A
least-squares fit with no unique model, where
:func:`~beyondnyq.regressor.least_squares_fir` returns ``None``, is a result,
not a failure: ``identify`` writes its report with null values and names it on
stderr with the reason (order ``P >= M``, or an input that cannot tell the
coefficients apart), as ``simulate-mc`` records it as ``non_unique``.  An
unknown config key is a config error: the top level takes the keys any
command reads, and ``sampling``, ``data``, ``frf`` and ``tune`` take only
their own.  ``tune.init`` must name a hyperparameter, and each
``tune.bounds`` key a ``tune.init`` entry.

Tuning: ``tune`` and a tuned ``simulate-mc`` (``"tune": true``) start from
:func:`~beyondnyq.estimator.tuning_start`, ``tune`` with ``tune.init`` and
``tune.bounds``.  A start that cannot be built is a config error, before the
first run of ``simulate-mc``.

Seeds: ``simulate-mc`` alone draws random numbers, from ``--seed`` if given,
else the config's ``monte_carlo.base_seed``, else its ``seed``, else 0.

Parallelism: ``simulate-mc`` runs its runs in one thread.  With
``NB_THREADS=n`` (default 1) a tuned study's tuning, most of its time, runs
in ``min(n, runs)`` forked worker processes, since the tuner's Python code
and scipy's LAPACK wrappers hold the GIL; it stays in that thread where fork
is not available or the BLAS is not fork-safe (no OpenBLAS is loaded, or one
runs on OpenMP).  The outputs are the same for any n.  Every command runs
BLAS on one thread, whatever the environment sets (for example
``OPENBLAS_NUM_THREADS``): numpy's and scipy's OpenBLAS copies then never
compete for the cores, and the outputs do not depend on the BLAS thread
count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._blas import single_threaded_blas
from .errors import InvalidStartError, NumericalError
from .estimator import (
    RegularizedProblem,
    fit_with_evidence,
    goodness_of_fit,
    kernel_and_gamma,
    load_model,
    optimize_hyperparameters,
    predict_fast_output,
    save_model,
    tuning_start,
)
from .kernels import KernelSpec, kernel_spec_from_json, kernel_spec_to_json
from .regressor import RegressorMatrix, build_regressor, least_squares_fir
from .signals import (
    FastSignal, FirModel, SlowSignal, _integer, _known_keys, _number, _pair, _positive, _write_csv, _write_json,
    downsample, fir_frf, read_signal_csv,
)
from .sim import monte_carlo_config_from_json, run_monte_carlo, write_records_csv, write_summary_csv

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

# the keys any command reads, so that one config can serve identify and tune
_CONFIG_KEYS = (
    "sampling", "data", "order", "estimators", "kernels", "gamma", "frf", "tune",
    "model_json", "output_dir", "seed", "monte_carlo",
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    _known_keys("config keys", obj, _CONFIG_KEYS)
    return obj


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigError(f"missing '{key}' in {context}")
    return config[key]


def _object(value, name: str, known=None) -> dict:
    """``value`` when it is a JSON object whose keys are in ``known`` (any
    keys where ``known`` is None); anything else is a config error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    if known is not None:
        _known_keys(f"{name} keys", value, known)
    return value


def _path(name: str, value) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return Path(value)


def _integer_setting(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` >= ``minimum``; bools and non-integral numbers
    are config errors, never truncated."""
    try:
        return _integer(name, value, minimum)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _sampling(config: dict) -> tuple[float, int]:
    sampling = _object(_require(config, "sampling", "config"), "sampling", ("period_s", "factor"))
    period = _positive("sampling.period_s", _require(sampling, "period_s", "sampling"))
    factor = _integer_setting("sampling.factor", _require(sampling, "factor", "sampling"), 1)
    return period, factor


def _estimator_plan(config: dict) -> list[tuple[str, KernelSpec | None, float]]:
    """Resolve (name, kernel, gamma) for each configured estimator.

    'ls' needs no kernel; any other name must have an entry under 'kernels'.
    Each name may appear once.
    gamma is validated here so Theorem-level preconditions fail before any
    data is touched.
    """
    names = config.get("estimators", ["ls", "dc", "pk"])
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ConfigError(f"estimators must be a list of estimator names, got {names!r}")
    if len(set(names)) < len(names):
        raise ConfigError(f"estimators {names!r} must not repeat an estimator")
    kernels = _object(config.get("kernels", {}), "kernels")
    plan = []
    for name in names:
        if name == "ls":
            plan.append((name, None, 0.0))
            continue
        if name not in kernels:
            raise ConfigError(f"estimator {name!r} has no kernel under 'kernels'")
        plan.append((name, kernel_spec_from_json(kernels[name]), _positive("gamma", config.get("gamma", 1e-5))))
    if not plan:
        raise ConfigError("no estimators configured")
    return plan


def _read_data(config: dict, period: float, factor: int) -> tuple[FastSignal, SlowSignal, RegressorMatrix]:
    """The data files' input and slow output, and the regressor of the config's ``order``."""
    data = _object(_require(config, "data", "config"), "data", ("input_csv", "output_csv"))
    input_path = _path("data.input_csv", _require(data, "input_csv", "data"))
    output_path = _path("data.output_csv", _require(data, "output_csv", "data"))
    for p in (input_path, output_path):
        if not p.exists():
            raise ConfigError(f"data file not found: {p}")
    u = FastSignal(samples=read_signal_csv(input_path), period=period)
    y = SlowSignal(samples=read_signal_csv(output_path), period=period * factor, factor=factor)
    max_outputs = (len(u) - 1) // factor + 1
    if len(y) > max_outputs:
        raise ConfigError(
            f"{output_path}: {len(y)} output samples need at least "
            f"{(len(y) - 1) * factor + 1} input samples, got {len(u)}"
        )
    order = _integer_setting("order", _require(config, "order", "config"), 1)
    return u, y, build_regressor(u, factor, order, len(y))


def _write_frf_csv(model: FirModel, path: Path, omegas: np.ndarray) -> None:
    values = fir_frf(model, omegas)
    # hypot, not np.abs: it rounds each magnitude as abs(complex) does
    magnitudes = np.hypot(values.real, values.imag)
    rows = zip(omegas, omegas / (2.0 * math.pi), magnitudes, np.angle(values))
    _write_csv(path, ("omega_rad_s", "freq_hz", "magnitude", "phase_rad"), rows)


def _frf_grid(config: dict, period: float) -> np.ndarray:
    frf = _object(config.get("frf", {}), "frf", ("points", "omega_min", "omega_max"))
    points = _integer_setting("frf.points", frf.get("points", 1000), 2)
    omega_min = _number("frf.omega_min", frf.get("omega_min", 0.0))
    # null, like a missing value, means the fast Nyquist frequency
    omega_max = frf.get("omega_max")
    omega_max = math.pi / period if omega_max is None else _number("frf.omega_max", omega_max)
    if not 0 <= omega_min < omega_max < math.inf:
        raise ConfigError(f"invalid FRF grid: need 0 <= omega_min < omega_max < inf, got [{omega_min}, {omega_max}]")
    return np.linspace(omega_min, omega_max, points)


def cmd_identify(config: dict, out_dir: Path) -> int:
    period, factor = _sampling(config)
    plan = _estimator_plan(config)
    u, y_l, phi = _read_data(config, period, factor)
    order = phi.order
    omegas = _frf_grid(config, period)

    reports = []
    for name, kernel, gamma in plan:
        if name == "ls":
            model, ml_value = least_squares_fir(phi, y_l), None
        else:
            problem = RegularizedProblem(phi=phi, y_l=y_l, kernel=kernel, gamma=gamma)
            model, ml_value = fit_with_evidence(problem)
        # the key order is the column order of reports.csv
        report = dict(estimator=name, order=order, gof=None, rmse=None, marginal_likelihood=ml_value, model_file=None)
        if model is None:
            reason = (f"the order is not below the number of output samples ({len(y_l)})" if order >= len(y_l)
                      else f"the input cannot tell the {order} coefficients apart")
            print(f"{name}: no unique model of order {order}: {reason}", file=sys.stderr)
        else:
            predicted = downsample(predict_fast_output(model, u), factor).samples[: len(y_l)]
            model_file = out_dir / f"model_{name}.json"
            save_model(model, model_file)
            _write_csv(out_dir / f"theta_{name}.csv", ("index", "value"), enumerate(model.theta))
            _write_frf_csv(model, out_dir / f"frf_{name}.csv", omegas)
            report.update(
                gof=goodness_of_fit(y_l.samples, predicted),
                rmse=float(np.sqrt(np.mean((y_l.samples - predicted) ** 2))),
                model_file=model_file.name,
            )
        _write_json(out_dir / f"report_{name}.json", report)
        reports.append(report)
    _write_csv(out_dir / "reports.csv", list(reports[0]), (r.values() for r in reports))
    return EXIT_OK


def cmd_simulate_mc(config: dict, out_dir: Path, threads: int, seed: int | None) -> int:
    mc_obj = dict(_object(_require(config, "monte_carlo", "config"), "monte_carlo"))
    if "sampling" in config:
        period, factor = _sampling(config)
        mc_obj.setdefault("period_s", period)
        mc_obj.setdefault("factor", factor)
    if seed is not None:
        mc_obj["base_seed"] = seed
    elif "seed" in config:
        mc_obj.setdefault("base_seed", config["seed"])
    try:
        mc_config = monte_carlo_config_from_json(mc_obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid monte_carlo config: {exc}") from exc
    result = run_monte_carlo(mc_config, max_workers=threads)
    write_records_csv(result, out_dir / "runs.csv")
    write_summary_csv(result, out_dir / "summary.csv")
    if result.errors:
        for error in result.errors:
            details = f" diagnostics={error.diagnostics}" if error.diagnostics else ""
            print(f"run {error.run} failed: {error.error_type}: {error.message}{details}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_frf(config: dict, out_dir: Path) -> int:
    model_path = _path("model_json", _require(config, "model_json", "config"))
    if not model_path.exists():
        raise ConfigError(f"model file not found: {model_path}")
    model = load_model(model_path)
    _write_frf_csv(model, out_dir / "frf.csv", _frf_grid(config, model.period))
    return EXIT_OK


def cmd_tune(config: dict, out_dir: Path) -> int:
    period, factor = _sampling(config)
    _, y_l, phi = _read_data(config, period, factor)

    tune = _object(_require(config, "tune", "config"), "tune", ("estimator", "init", "bounds", "budget"))
    estimator = _require(tune, "estimator", "tune")
    kernels = _object(config.get("kernels", {}), "kernels")
    if not isinstance(estimator, str) or estimator not in kernels:
        raise ConfigError(f"tune.estimator {estimator!r} has no kernel under 'kernels'")
    template = kernel_spec_from_json(kernels[estimator])
    gamma = _positive("gamma", config.get("gamma", 1e-5))
    budget = _integer_setting("tune.budget", tune.get("budget", 100), 1)

    init_obj = _object(_require(tune, "init", "tune"), "tune.init")
    init = {str(k): _number(f"tune.init.{k}", v) for k, v in init_obj.items()}
    if not init:
        raise ConfigError("tune.init names no hyperparameter to tune")
    bounds_obj = _object(tune.get("bounds", {}), "tune.bounds", init)
    bounds = {name: _pair(f"tune.bounds.{name}", pair, _number) for name, pair in bounds_obj.items()}
    eta0 = tuning_start(template, gamma, factor, init, bounds)

    names = sorted(init)
    trace = []

    def record(values: dict, ml_value: float) -> None:
        trace.append([len(trace) + 1, *(values[name] for name in names), ml_value])

    tuned = optimize_hyperparameters(
        phi, y_l, template, eta0, gamma=gamma, budget=budget, on_evaluation=record
    )
    _write_csv(out_dir / "ml_trace.csv", ["evaluation", *names, "marginal_likelihood"], trace)

    tuned_spec, tuned_gamma = kernel_and_gamma(template, tuned.values, gamma)
    _write_json(
        out_dir / "tuned_hyperparameters.json",
        {
            "estimator": estimator,
            "gamma": tuned_gamma,
            "values": tuned.values,
            "bounds": {k: list(v) for k, v in tuned.bounds.items()},
            "kernel": kernel_spec_to_json(tuned_spec),
        },
    )
    return EXIT_OK


def _thread_count() -> int:
    raw = os.environ.get("NB_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ConfigError(f"NB_THREADS must be an integer, got {raw!r}") from exc
    return _integer_setting("NB_THREADS", threads, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beyondnyq",
        description="Fast-rate FIR identification from slow-rate outputs",
        epilog="NB_THREADS=n runs a tuned simulate-mc study's tuning in min(n, runs) forked worker "
        "processes (default 1; in the study's one thread where fork is unavailable or the BLAS "
        "is not fork-safe: no OpenBLAS is loaded, or one runs on OpenMP). Every command runs BLAS "
        "on one thread, whatever OPENBLAS_NUM_THREADS says.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("identify", "fit FIR models from input/output CSV data"),
        ("simulate-mc", "run the benchmark Monte Carlo study"),
        ("frf", "export the frequency response of a saved model"),
        ("tune", "optimize kernel hyperparameters by marginal likelihood"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--out", default=None, help="override the config output directory")
        if name == "simulate-mc":
            cmd.add_argument("--seed", type=int, help="base seed; wins over the config's base_seed and seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        out_dir = Path(args.out) if args.out else _path("output_dir", config.get("output_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        with single_threaded_blas():
            if args.command == "identify":
                return cmd_identify(config, out_dir)
            if args.command == "simulate-mc":
                return cmd_simulate_mc(config, out_dir, _thread_count(), args.seed)
            if args.command == "frf":
                return cmd_frf(config, out_dir)
            return cmd_tune(config, out_dir)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, InvalidStartError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
