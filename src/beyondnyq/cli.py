"""Command line front end: identify | simulate-mc | frf | tune.

Every command is driven by a JSON config (``--config``) and writes its outputs
under ``--out`` (or the config's ``output_dir``).  All outputs are
deterministic given the config and seed: no timestamps, sorted JSON keys, and
17-significant-digit CSV floats so files round-trip exactly.

Exit codes: 0 success, 1 numerical failure, 2 input/config error.

Parallelism: ``NB_THREADS=n`` runs the ``simulate-mc`` runs on n threads
(default 1), and BLAS runs on one thread inside ``simulate-mc``.
``identify``, ``tune`` and ``frf`` leave BLAS threading as the environment
sets it (for example ``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidStartError, NonUniqueModelError, NumericalError
from .estimator import (
    FitReport,
    HyperparameterVector,
    RegularizedProblem,
    apply_hyperparameters,
    default_bounds,
    goodness_of_fit,
    load_model,
    marginal_likelihood,
    optimize_hyperparameters,
    predict_fast_output,
    regularized_fir,
    save_model,
)
from .kernels import KernelSpec, kernel_spec_from_json, kernel_spec_to_json
from .regressor import build_regressor, least_squares_fir
from .signals import FastSignal, FirModel, SlowSignal, downsample, fir_frf, read_signal_csv
from .sim import monte_carlo_config_from_json, run_monte_carlo, write_records_csv, write_summary_csv

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


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
    return obj


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigError(f"missing '{key}' in {context}")
    return config[key]


def _sampling(config: dict) -> tuple[float, int]:
    sampling = _require(config, "sampling", "config")
    period = float(_require(sampling, "period_s", "sampling"))
    factor = int(_require(sampling, "factor", "sampling"))
    if not period > 0:
        raise ConfigError(f"sampling.period_s must be positive, got {period}")
    if factor < 1:
        raise ConfigError(f"sampling.factor must be >= 1, got {factor}")
    return period, factor


def _estimator_plan(config: dict) -> list[tuple[str, KernelSpec | None, float]]:
    """Resolve (name, kernel, gamma) for each configured estimator.

    'ls' needs no kernel; any other name must have an entry under 'kernels'.
    gamma is validated here so Theorem-level preconditions fail before any
    data is touched.
    """
    names = config.get("estimators", ["ls", "dc", "pk"])
    kernels = config.get("kernels", {})
    plan = []
    for name in names:
        if name == "ls":
            plan.append((name, None, 0.0))
            continue
        if name not in kernels:
            raise ConfigError(f"estimator {name!r} has no kernel under 'kernels'")
        gamma = float(config.get("gamma", 1e-5))
        if not gamma > 0:
            raise ConfigError(f"gamma must be > 0 for regularized estimation, got {gamma}")
        plan.append((name, kernel_spec_from_json(kernels[name]), gamma))
    if not plan:
        raise ConfigError("no estimators configured")
    return plan


def _read_data(config: dict, period: float, factor: int) -> tuple[FastSignal, SlowSignal]:
    data = _require(config, "data", "config")
    input_path = Path(_require(data, "input_csv", "data"))
    output_path = Path(_require(data, "output_csv", "data"))
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
    return u, y


def _float_csv(value: float) -> str:
    return f"{value:.17g}"


def _write_frf_csv(model: FirModel, path: Path, omegas: np.ndarray) -> None:
    lines = ["omega_rad_s,freq_hz,magnitude,phase_rad"]
    for sample in fir_frf(model, omegas):
        lines.append(
            f"{_float_csv(sample.omega)},{_float_csv(sample.omega / (2.0 * math.pi))},"
            f"{_float_csv(abs(sample.value))},{_float_csv(float(np.angle(sample.value)))}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_theta_csv(model: FirModel, path: Path) -> None:
    lines = ["index,value"]
    lines += [f"{i},{_float_csv(v)}" for i, v in enumerate(model.theta)]
    path.write_text("\n".join(lines) + "\n")


def _frf_grid(config: dict, period: float) -> np.ndarray:
    frf = config.get("frf", {})
    points = int(frf.get("points", 1000))
    if points < 2:
        raise ConfigError(f"frf.points must be >= 2, got {points}")
    omega_min = float(frf.get("omega_min", 0.0))
    omega_max = float(frf.get("omega_max") or (math.pi / period))
    if not 0 <= omega_min < omega_max:
        raise ConfigError(f"invalid FRF grid [{omega_min}, {omega_max}]")
    return np.linspace(omega_min, omega_max, points)


def cmd_identify(config: dict, out_dir: Path) -> int:
    period, factor = _sampling(config)
    plan = _estimator_plan(config)
    u, y_l = _read_data(config, period, factor)
    order = int(_require(config, "order", "config"))
    phi = build_regressor(u, factor, order, len(y_l))
    omegas = _frf_grid(config, period)

    report_lines = ["estimator,order,gof,rmse,marginal_likelihood,model_file"]
    for name, kernel, gamma in plan:
        if name == "ls":
            model = least_squares_fir(phi, y_l)
            ml_value = float("nan")
        else:
            problem = RegularizedProblem(phi=phi, y_l=y_l, kernel=kernel, gamma=gamma)
            model = regularized_fir(problem)
            ml_value = marginal_likelihood(phi, y_l, kernel, gamma)
        predicted = downsample(predict_fast_output(model, u), factor)
        residual = y_l.samples - predicted.samples[: len(y_l)]
        report = FitReport(
            model=model,
            gof=goodness_of_fit(y_l.samples, predicted.samples[: len(y_l)]),
            rmse=float(np.sqrt(np.mean(residual**2))),
            marginal_likelihood=ml_value,
        )
        model_file = out_dir / f"model_{name}.json"
        save_model(model, model_file)
        _write_theta_csv(model, out_dir / f"theta_{name}.csv")
        _write_frf_csv(model, out_dir / f"frf_{name}.csv", omegas)
        (out_dir / f"report_{name}.json").write_text(
            json.dumps(
                {
                    "estimator": name,
                    "order": order,
                    "gof": report.gof,
                    "rmse": report.rmse,
                    "marginal_likelihood": None if math.isnan(ml_value) else ml_value,
                    "model_file": model_file.name,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        ml_text = "" if math.isnan(ml_value) else _float_csv(ml_value)
        report_lines.append(
            f"{name},{order},{_float_csv(report.gof)},{_float_csv(report.rmse)},{ml_text},{model_file.name}"
        )
    (out_dir / "reports.csv").write_text("\n".join(report_lines) + "\n")
    return EXIT_OK


def cmd_simulate_mc(config: dict, out_dir: Path, threads: int) -> int:
    mc_obj = dict(_require(config, "monte_carlo", "config"))
    if "sampling" in config:
        period, factor = _sampling(config)
        mc_obj.setdefault("period_s", period)
        mc_obj.setdefault("factor", factor)
    if "seed" in config:
        mc_obj.setdefault("base_seed", int(config["seed"]))
    try:
        mc_config = monte_carlo_config_from_json(mc_obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid monte_carlo config: {exc}") from exc
    result = run_monte_carlo(mc_config, max_workers=threads)
    write_records_csv(result, out_dir / "runs.csv")
    write_summary_csv(result, out_dir / "summary.csv")
    if result.errors:
        for error in result.errors:
            print(f"run {error.run} failed: {error.message}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_frf(config: dict, out_dir: Path) -> int:
    model_path = Path(_require(config, "model_json", "config"))
    if not model_path.exists():
        raise ConfigError(f"model file not found: {model_path}")
    try:
        model = load_model(model_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_frf_csv(model, out_dir / "frf.csv", _frf_grid(config, model.period))
    return EXIT_OK


def cmd_tune(config: dict, out_dir: Path) -> int:
    period, factor = _sampling(config)
    u, y_l = _read_data(config, period, factor)
    order = int(_require(config, "order", "config"))
    phi = build_regressor(u, factor, order, len(y_l))

    tune = _require(config, "tune", "config")
    estimator = _require(tune, "estimator", "tune")
    kernels = config.get("kernels", {})
    if estimator not in kernels:
        raise ConfigError(f"tune.estimator {estimator!r} has no kernel under 'kernels'")
    template = kernel_spec_from_json(kernels[estimator])
    gamma = float(config.get("gamma", 1e-5))
    if not gamma > 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    budget = int(tune.get("budget", 100))

    init = {str(k): float(v) for k, v in _require(tune, "init", "tune").items()}
    omega_max = min(math.pi * factor, 2.0 * math.pi)
    bounds_obj = tune.get("bounds", {})
    bounds = {}
    for name, value in init.items():
        if name in bounds_obj:
            bounds[name] = (float(bounds_obj[name][0]), float(bounds_obj[name][1]))
        else:
            bounds[name] = default_bounds(name, value, omega_max)
    eta0 = HyperparameterVector(values=init, bounds=bounds)

    names = sorted(init)
    trace_lines = ["evaluation," + ",".join(names) + ",marginal_likelihood"]

    def record(values: dict, ml_value: float) -> None:
        row = [str(len(trace_lines))]
        row += [_float_csv(values[name]) for name in names]
        row.append(_float_csv(ml_value))
        trace_lines.append(",".join(row))

    tuned = optimize_hyperparameters(
        phi, y_l, template, eta0, gamma=gamma, budget=budget, on_evaluation=record
    )
    (out_dir / "ml_trace.csv").write_text("\n".join(trace_lines) + "\n")

    tuned_gamma = tuned.values.get("gamma", gamma)
    tuned_spec = apply_hyperparameters(
        template, {k: v for k, v in tuned.values.items() if k != "gamma"}
    )
    (out_dir / "tuned_hyperparameters.json").write_text(
        json.dumps(
            {
                "estimator": estimator,
                "gamma": tuned_gamma,
                "values": dict(sorted(tuned.values.items())),
                "bounds": {k: list(v) for k, v in sorted(tuned.bounds.items())},
                "kernel": kernel_spec_to_json(tuned_spec),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    return EXIT_OK


def _thread_count() -> int:
    raw = os.environ.get("NB_THREADS", "")
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ConfigError(f"NB_THREADS must be an integer, got {raw!r}") from exc
    return max(threads, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beyondnyq",
        description="Fast-rate FIR identification from slow-rate outputs",
        epilog="NB_THREADS=n runs the simulate-mc runs on n threads (default 1), and BLAS "
        "runs on one thread inside simulate-mc. identify, tune and frf leave BLAS "
        "threading as the environment sets it.",
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
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the config output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        out_dir = Path(args.out or config.get("output_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "identify":
            return cmd_identify(config, out_dir)
        if args.command == "simulate-mc":
            return cmd_simulate_mc(config, out_dir, _thread_count())
        if args.command == "frf":
            return cmd_frf(config, out_dir)
        return cmd_tune(config, out_dir)
    except NonUniqueModelError as exc:
        report = exc.report
        print(
            f"error: {exc}\nidentifiability: rank={report.rank} "
            f"null_dimension={report.null_dimension} reason={report.reason.value}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, InvalidStartError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
