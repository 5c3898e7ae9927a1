"""Workload definitions, seeded input generation, scoring and output checks.

Everything here is independent of ``beyondnyq``: the identify data set and the
reference frequency responses come from the two-mass plant written out below
and discretized with ``scipy.signal``, so a change to the program under test
cannot change the benchmark's inputs or its yardstick.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.signal

PERIOD_S = 0.1
FACTOR = 3
ESTIMATORS = ("ls", "dc", "pk")
NOMINAL = {"m1": 1.0, "m2": 1.0, "k1": 15.0, "k2": 100.0, "d1": 0.45, "d2": 0.06}
SNR = 50.0
FRF_POINTS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" | "identify"
    runs: int = 0
    tune: bool = False
    parallel: bool = False  # NB_THREADS = nproc instead of unset
    n_samples: int = 600
    orders: tuple[int, ...] = (50, 100, 150, 200, 300, 450, 600)

    @property
    def output_length(self) -> int:
        return (self.n_samples - 1) // FACTOR + 1

    @property
    def max_order(self) -> int:
        return max(self.orders)


WORKLOADS = {
    "mc-fixed": Workload("mc-fixed", "mc", runs=12),
    "mc-tuned": Workload("mc-tuned", "mc", runs=4, tune=True, parallel=True),
    "identify": Workload("identify", "identify", n_samples=6000, orders=(1000,)),
}

# shapes small enough for the self-tests; same code paths as the full ones
TINY = {
    "mc-fixed": Workload("mc-fixed", "mc", runs=2, n_samples=300, orders=(50, 100, 200, 300)),
    "mc-tuned": Workload("mc-tuned", "mc", runs=2, tune=True, parallel=True, n_samples=300,
                         orders=(50, 100, 200, 300)),
    "identify": Workload("identify", "identify", n_samples=600, orders=(100,)),
}


def kernel_json() -> dict:
    """The benchmark plant's prior kernels in the CLI's JSON schema (fixed
    hyperparameters: decay rate 0.5/s, resonances at 0.4 Hz and 2 Hz)."""
    decay = {"rate": 0.5, "period_s": PERIOD_S}
    dc = {"type": "dc", "scale": 1.0, "decay": decay, "correlation": {"rate": 0.1, "period_s": PERIOD_S}}
    poles = [
        {"type": "pk", "decay": decay, "frequency": {"freq_hz": f, "period_s": PERIOD_S}}
        for f in (0.4, 2.0)
    ]
    return {"dc": dc, "pk": {"type": "sum", "terms": [dc] + poles}}


# --------------------------------------------------------------------------
# reference plant


def plant_matrices(p: dict) -> tuple[np.ndarray, ...]:
    """Two-mass chain, force on mass 1, displacement of mass 2 as output."""
    m1, m2, k1, k2, d1, d2 = (p[k] for k in ("m1", "m2", "k1", "k2", "d1", "d2"))
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-(k1 + k2) / m1, -(d1 + d2) / m1, k2 / m1, d2 / m1],
            [0.0, 0.0, 0.0, 1.0],
            [k2 / m2, d2 / m2, -k2 / m2, -d2 / m2],
        ]
    )
    b = np.array([[0.0], [1.0 / m1], [0.0], [0.0]])
    c = np.array([[0.0, 0.0, 1.0, 0.0]])
    return a, b, c, np.zeros((1, 1))


def zoh_plant(p: dict) -> tuple[np.ndarray, ...]:
    ad, bd, cd, dd, _ = scipy.signal.cont2discrete(plant_matrices(p), PERIOD_S, method="zoh")
    return ad, bd, cd, dd


def zoh_frf(p: dict, omegas: np.ndarray) -> np.ndarray:
    ad, bd, cd, dd = zoh_plant(p)
    z = np.exp(1j * omegas * PERIOD_S)
    resolvent = np.linalg.solve(z[:, None, None] * np.eye(4) - ad, np.broadcast_to(bd, (z.size, 4, 1)))
    return (cd @ resolvent)[:, 0, 0] + dd[0, 0]


def fir_response(theta: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    return np.exp(-1j * np.outer(omegas, np.arange(theta.size)) * PERIOD_S) @ theta


def frf_errors(theta: np.ndarray, p: dict) -> tuple[float, float]:
    """Relative L2 FRF error below and above the slow sampler's Nyquist
    frequency ``pi / (F T)``, up to the fast Nyquist ``pi / T``."""
    slow_nyquist = math.pi / (FACTOR * PERIOD_S)
    bands = (
        np.linspace(0.0, slow_nyquist, FRF_POINTS, endpoint=False),
        np.linspace(slow_nyquist, math.pi / PERIOD_S, FRF_POINTS),
    )
    out = []
    for omegas in bands:
        truth = zoh_frf(p, omegas)
        out.append(float(np.linalg.norm(fir_response(theta, omegas) - truth) / np.linalg.norm(truth)))
    return out[0], out[1]


def gof(y: np.ndarray, y_hat: np.ndarray) -> float:
    return 100.0 * (1.0 - float(np.sum((y - y_hat) ** 2)) / float(np.sum((y - np.mean(y)) ** 2)))


# --------------------------------------------------------------------------
# input generation


def multisine(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS random-phase multisine on every DFT bin below Nyquist."""
    bins = np.arange(1, (n - 1) // 2 + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=bins.size)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[bins] = np.exp(1j * phases)
    x = np.fft.irfft(spectrum, n)
    return x / np.sqrt(np.mean(x**2))


def identify_data(w: Workload, seed: int) -> dict[str, np.ndarray]:
    """Training input, noisy slow-rate output and a noiseless validation pair."""
    rng = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    ad, bd, cd, dd = zoh_plant(NOMINAL)
    system = (ad, bd, cd, dd, PERIOD_S)
    u = multisine(w.n_samples, rng[0])
    u_valid = multisine(w.n_samples, rng[1])
    y = scipy.signal.dlsim(system, u)[1][:, 0]
    y_valid = scipy.signal.dlsim(system, u_valid)[1][:, 0]
    noise = rng[2].standard_normal(w.n_samples)
    y_noisy = y + math.sqrt(np.var(y) / (SNR * np.var(noise))) * noise
    return {"u": u, "y_slow": y_noisy[::FACTOR], "u_valid": u_valid, "y_valid": y_valid}


def write_signal(path: Path, x: np.ndarray) -> None:
    path.write_text("index,value\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(x)))


def write_inputs(w: Workload, seed: int, in_dir: Path) -> Path:
    """Write the CLI config (and data files) for one workload; return the config path."""
    in_dir.mkdir(parents=True, exist_ok=True)
    config: dict = {"sampling": {"period_s": PERIOD_S, "factor": FACTOR}}
    if w.kind == "mc":
        config["monte_carlo"] = {
            "runs": w.runs,
            "orders": list(w.orders),
            "base_seed": seed,
            "n_samples": w.n_samples,
            "estimators": list(ESTIMATORS),
            "tune": w.tune,
        }
    else:
        data = identify_data(w, seed)
        write_signal(in_dir / "u.csv", data["u"])
        write_signal(in_dir / "y.csv", data["y_slow"])
        np.savez(in_dir / "validation.npz", u=data["u_valid"], y=data["y_valid"])
        config.update(
            data={"input_csv": str(in_dir / "u.csv"), "output_csv": str(in_dir / "y.csv")},
            order=w.max_order,
            estimators=list(ESTIMATORS),
            kernels=kernel_json(),
            gamma=1e-5,
        )
    path = in_dir / "config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return path


def cli_argv(w: Workload, config: Path, out_dir: Path) -> list[str]:
    command = "simulate-mc" if w.kind == "mc" else "identify"
    return [command, "--config", str(config), "--out", str(out_dir)]


# --------------------------------------------------------------------------
# reading and checking the program's outputs


def output_files(w: Workload) -> list[str]:
    if w.kind == "mc":
        return ["runs.csv", "summary.csv"]
    files = ["reports.csv"]
    for name in ESTIMATORS:
        files += [f"model_{name}.json", f"report_{name}.json", f"theta_{name}.csv", f"frf_{name}.csv"]
    return files


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def failures(w: Workload, out_dir: Path, exit_code: int) -> int:
    """Failed operations of one CLI call: MC runs missing from ``runs.csv``
    (each :class:`RunError`), or estimators without a report and a model.
    A non-zero exit with no output counts as everything failed."""
    if w.kind == "mc":
        total = w.runs
        path = out_dir / "runs.csv"
        done = len({r["run"] for r in _rows(path)}) if path.exists() else 0
    else:
        total = len(ESTIMATORS)
        done = sum(
            (out_dir / f"report_{n}.json").exists() and (out_dir / f"model_{n}.json").exists()
            for n in ESTIMATORS
        )
    return total if exit_code != 0 and done == 0 else total - done


def operations(w: Workload) -> int:
    return w.runs if w.kind == "mc" else len(ESTIMATORS)


def score_mc(w: Workload, out_dir: Path, captured: list[dict]) -> tuple[dict, list[str]]:
    """GoF at the largest order from ``summary.csv``, mean FRF errors of the
    captured largest-order pk models, and the paper's ordering checks."""
    problems = []
    summary = {(r["estimator"], int(r["order"])): r for r in _rows(out_dir / "summary.csv")}
    records = _rows(out_dir / "runs.csv")
    m = w.output_length

    def mean(est, order):
        text = summary[(est, order)]["mean_gof"]
        return float(text) if text else None

    for order in w.orders:
        if order >= m:
            # the paper's claim is for tuned hyperparameters; with the fixed
            # ones pk and dc agree to a fraction of a GoF point either way
            if w.tune and not mean("pk", order) >= mean("dc", order):
                problems.append(f"pk GoF {mean('pk', order)} below dc {mean('dc', order)} at order {order} >= M")
            bad = [r for r in records if r["estimator"] == "ls" and int(r["order"]) == order and r["status"] != "non_unique"]
            if bad:
                problems.append(f"LS reported unique at order {order} >= M={m}")
    best_ls = max((g for g in (mean("ls", o) for o in w.orders) if g is not None), default=-math.inf)
    for est in ("dc", "pk"):
        best = max(mean(est, o) for o in w.orders)
        if not best > best_ls:
            problems.append(f"best {est} GoF {best} does not beat best LS GoF {best_ls}")

    if len(captured) != w.runs:
        problems.append(f"captured {len(captured)} largest-order pk models for {w.runs} runs")
    errors = [frf_errors(np.asarray(c["theta"]), c["plant"]) for c in captured] or [(math.nan, math.nan)]
    metrics = {
        "gof_pk": mean("pk", w.max_order),
        "gof_dc": mean("dc", w.max_order),
        "frf_err_lo": float(np.mean([e[0] for e in errors])),
        "frf_err_hi": float(np.mean([e[1] for e in errors])),
    }
    return metrics, problems


def score_identify(w: Workload, in_dir: Path, out_dir: Path) -> tuple[dict, list[str]]:
    """Validation GoF of each saved model on the noiseless validation pair,
    FRF errors of the pk model against the true ZOH plant, and checks.
    Every report and model file exists here: a missing one is a failure."""
    problems = []
    valid = np.load(in_dir / "validation.npz")
    reports = {r["estimator"]: r for r in _rows(out_dir / "reports.csv")}
    scores, theta = {}, {}
    for name in ESTIMATORS:
        if name not in reports:
            problems.append(f"reports.csv has no row for {name}")
        model = json.loads((out_dir / f"model_{name}.json").read_text())
        theta[name] = np.asarray(model["theta"])
        scores[name] = gof(valid["y"], np.convolve(valid["u"], theta[name])[: valid["u"].size])
    for est in ("dc", "pk"):
        if not scores[est] > scores["ls"]:
            problems.append(f"{est} validation GoF {scores[est]} does not beat LS {scores['ls']}")
    lo, hi = frf_errors(theta["pk"], NOMINAL)
    return {"gof_pk": scores["pk"], "gof_dc": scores["dc"], "frf_err_lo": lo, "frf_err_hi": hi}, problems
