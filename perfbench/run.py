"""Benchmark of the ``beyondnyq`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {mc-fixed,mc-tuned,identify} \\
        --seed N --seconds S --trace {0,1}

Closed loop, one client: each repetition starts a fresh interpreter
(``child.py``) that times ``import beyondnyq.cli`` and one
``beyondnyq.cli.main(argv)`` call on inputs generated here from ``--seed``.
Repetitions run until ``--seconds`` have passed (at least three), and every
end-to-end figure is the median over them.  ``OPENBLAS_NUM_THREADS`` is left as
found; the value the child sees is part of the environment record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions for half the time (at least one pair), then
runs the layer micro-timings (``micro.py``), and prints the per-layer
metrics.  The last stdout line is the JSON result; the line before it is the
environment record.  The outputs are checked (see ``check``); the exit code
is 1 if a check fails, 2 if no ``beyondnyq`` sources are found under ``./src``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spans import summarize

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 165  # every child is stopped by then, so a run ends within 180 s
MIN_REPS = 3
SETUP_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gof_pk": "%",
    "gof_dc": "%",
    "frf_err_hi": "ratio",
}
OPT = "estimator.optimize_hyperparameters"
# Layers that only some workloads call report busy time as a share of the
# traced cli.main wall time ("busy_frac", summed over threads), so that a layer
# a workload never calls reads 0 as a ratio, not as a time.
PER_LAYER = {
    f"{OPT}.busy_frac": "ratio",
    f"{OPT}.calls": "count",
    f"{OPT}.evaluations": "count",
    f"{OPT}.improving_frac": "ratio",
    "estimator.evidence_eval_ms": "ms",
    "estimator.regularized_fir.busy_s": "s",
    "estimator.regularized_fir.self_s": "s",
    "estimator.regularized_fir.calls": "count",
    "estimator.marginal_likelihood.busy_frac": "ratio",
    "kernels.build_kernel_matrix.busy_s": "s",
    "kernels.build_kernel_matrix.calls": "count",
    "regressor.identifiability_check.busy_s": "s",
    "regressor.identifiability_check.calls": "count",
    "regressor.identifiability_check.distinct_ratio": "ratio",
    "regressor.least_squares_fir.self_s": "s",
    "regressor.build_regressor.busy_s": "s",
    "sim.simulate.busy_frac": "ratio",
    "signals.random_multisine.busy_frac": "ratio",
    "sim.zoh_discretize.busy_frac": "ratio",
    "sim.run_monte_carlo.cpu_util": "ratio",
    "signals.read_signal_csv.busy_frac": "ratio",
    "signals.fir_frf.busy_frac": "ratio",
    "estimator.save_model.busy_frac": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "accuracy.frf_err_lo": "ratio",
    "kernels.build_kernel_matrix.p600_ms": "ms",
    "kernels.build_kernel_matrix.p1000_ms": "ms",
    "estimator.marginal_likelihood.m200_p600_ms": "ms",
    "estimator.regularized_fir.m200_p600_ms": "ms",
    "estimator.regularized_fir.m2000_p1000_ms": "ms",
    "estimator.regularized_fir.m2000_p1000_gflops": "GFLOP/s-computed",
    "regressor.least_squares_fir.m200_p150_ms": "ms",
    "regressor.least_squares_fir.m2000_p1000_ms": "ms",
    "sim.simulate.n600_ms": "ms",
    f"{OPT}.b100_ms": "ms",
}


class Harness:
    """Inputs and scratch space of one benchmark run inside the checkout."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        self.config = wl.write_inputs(workload, seed, work / "inputs")
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("NB_THREADS", None)
        if workload.parallel:
            self.env["NB_THREADS"] = str(len(os.sched_getaffinity(0)))
        self._count = 0

    def child(self, script: str, args: list[str]) -> subprocess.CompletedProcess:
        command = [sys.executable, str(HERE / script), *args]
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        try:
            return subprocess.run(command, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return subprocess.CompletedProcess(command, -9, "", f"{script} stopped after {timeout:.0f} s\n")

    def rep(self, trace: bool = False, import_only: bool = False) -> dict:
        """One fresh-interpreter CLI call; returns the child's result plus
        the failure count and the bytes of every output file.  With
        ``import_only`` the child only times ``import beyondnyq.cli``."""
        self._count += 1
        out_dir = self.work / f"out-{self._count}"
        spec_path = self.work / f"spec-{self._count}.json"
        result_path = self.work / f"result-{self._count}.json"
        w = self.workload
        spec = {
            "src": str(self.root / "src"),
            "argv": None if import_only else wl.cli_argv(w, self.config, out_dir),
            "result": str(result_path),
            "trace": trace,
            "capture_order": w.max_order if w.kind == "mc" else None,
        }
        spec_path.write_text(json.dumps(spec))
        proc = self.child("child.py", [str(spec_path)])
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr)
            result = {"exit_code": proc.returncode or 1}
        else:
            result = json.loads(result_path.read_text())
        result["stderr"] = proc.stderr
        if not import_only:
            crashed = "wall_s" not in result
            result["failed"] = wl.operations(w) if crashed else wl.failures(w, out_dir, result["exit_code"])
            result["outputs"] = {
                name: (out_dir / name).read_bytes() for name in wl.output_files(w) if (out_dir / name).exists()
            }
            result["out_dir"] = out_dir
        return result

    def reps(self, seconds: float, minimum: int, kinds: tuple[bool, ...] = (False,)) -> list[list[dict]]:
        """Rounds of repetitions, one untraced or traced call per entry of
        ``kinds``, until ``seconds`` have passed (at least ``minimum`` rounds).
        Interleaving keeps a slow drift of the machine out of the comparison."""
        done: list[list[dict]] = [[] for _ in kinds]
        start = time.perf_counter()
        while len(done[0]) < minimum or time.perf_counter() - start < seconds:
            if done[0] and time.perf_counter() + 2 * sum(d[-1]["wall_s"] for d in done) > self.deadline:
                break
            for trace, into in zip(kinds, done):
                into.append(self.rep(trace=trace))
                if into[-1]["failed"]:
                    return done
                print(f"perfbench: {'traced' if trace else 'untraced'} rep {len(into)}: "
                      f"wall {into[-1]['wall_s']:.3f} s, setup {into[-1]['setup_s']:.3f} s", file=sys.stderr)
        return done


def check(harness: Harness, reps: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Scores of the first repetition and every failed check: no failed
    operation, the paper's ordering, identical outputs across repetitions,
    and traced outputs byte-identical to untraced ones."""
    w = harness.workload
    problems = []
    for r in reps + traced:
        if r["exit_code"] != 0 or r["failed"]:
            problems.append(f"exit code {r['exit_code']}, {r['failed']} failed operations: {r['stderr'][-500:]}")
    if problems:
        return {}, problems
    first = reps[0]
    if set(first["outputs"]) != set(wl.output_files(w)):
        problems.append(f"missing outputs {sorted(set(wl.output_files(w)) - set(first['outputs']))}")
    for kind, rs in (("repeated", reps[1:]), ("traced", traced)):
        for r in rs:
            differing = sorted(n for n in first["outputs"] if r["outputs"].get(n) != first["outputs"][n])
            if differing:
                problems.append(f"{kind} run changed {differing}")
    if w.kind == "mc":
        scores, found = wl.score_mc(w, first["out_dir"], first["captured"])
    else:
        scores, found = wl.score_identify(w, harness.config.parent, first["out_dir"])
    return scores, problems + found


def layer_metrics(result: dict) -> dict[str, float]:
    layers = summarize(result["spans"])
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": []}

    def get(name):
        return layers.get(name, empty)

    opt, ident, mc = get(OPT), get("regressor.identifiability_check"), get("sim.run_monte_carlo")
    evaluations = sum(a["evaluations"] for a in opt["attrs"])
    improving = sum(a["improving"] for a in opt["attrs"])
    cpu_capacity = mc["busy_s"] * len(os.sched_getaffinity(0))
    metrics = {
        f"{OPT}.evaluations": evaluations,
        f"{OPT}.improving_frac": improving / evaluations if evaluations else 0.0,
        "regressor.identifiability_check.distinct_ratio": (
            sum(a["new_input"] for a in ident["attrs"]) / ident["calls"] if ident["calls"] else 0.0
        ),
        "sim.run_monte_carlo.cpu_util": sum(a["cpu_s"] for a in mc["attrs"]) / cpu_capacity if cpu_capacity else 0.0,
    }
    wall = get("cli.main")["busy_s"]
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s"):
            metrics.setdefault(name, get(layer)[stat])
        elif stat == "busy_frac":
            metrics[name] = get(layer)["busy_s"] / wall
    return metrics


def measure(harness: Harness, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict], list[str]]:
    # the first import compiles bytecode and fills the page cache, untimed
    setups = [harness.rep(import_only=True) for _ in range(SETUP_REPS + 1)][1:]
    if any(r["exit_code"] != 0 for r in setups):
        return {}, [], [f"import failed: {setups[-1]['stderr'][-500:]}"]
    if not trace:
        [reps] = harness.reps(seconds, MIN_REPS)
        scores, problems = check(harness, reps, [])
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in setups + reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            **{k: v for k, v in scores.items() if k in END_TO_END},
        }
        return metrics, reps, problems

    reps, traced = harness.reps(seconds / 2, 1, (False, True))
    scores, problems = check(harness, reps, traced)
    if problems:
        return {}, reps + traced, problems
    per_rep = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in reps) - 1.0
    )
    metrics["accuracy.frf_err_lo"] = scores["frf_err_lo"]
    micro_path = harness.work / "micro.json"
    proc = harness.child("micro.py", [str(harness.root / "src"), str(seed), str(micro_path)])
    if proc.returncode != 0:
        return {}, reps + traced, [f"micro-timings failed: {proc.stderr[-500:]}"]
    metrics.update(json.loads(micro_path.read_text()))
    return metrics, reps + traced, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test shapes instead of the benchmark's")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "beyondnyq" / "cli.py").is_file():
        print("perfbench: no src/beyondnyq/cli.py here; run from the repository root", file=sys.stderr)
        return 2
    workload = (wl.TINY if args.tiny else wl.WORKLOADS)[args.workload]
    work = root / ".perfbench-work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        harness = Harness(root, workload, args.seed, work)
        metrics, reps, problems = measure(harness, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    units = PER_LAYER if args.trace else END_TO_END
    problems = problems or [f"metric {name} was not measured" for name in units if name not in metrics]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    operations = wl.operations(workload)
    env = next((r["env"] for r in reps if "env" in r), None)
    print(json.dumps({"env": env}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": max(len(reps), 1) * operations,
                "failed": sum(r["failed"] for r in reps) if reps else operations,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
