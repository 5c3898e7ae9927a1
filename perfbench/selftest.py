"""Fast self-tests of the benchmark.

Run from the repository root: ``python3 perfbench/selftest.py``.  They check
that the metric tables match ``BENCHMARK.json``, that the input generator is
deterministic for a seed, and that a tiny configuration of every workload runs
end to end and passes its output checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-work"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        s = spec()
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in s["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in s["workloads"]], list(wl.WORKLOADS))


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            for name, w in wl.WORKLOADS.items():
                dirs = [Path(tmp) / f"{name}-{k}" for k in ("a", "b", "c")]
                for d, seed in zip(dirs, (7, 7, 8)):
                    wl.write_inputs(w, seed, d)
                # the identify config names its data files by absolute path
                files = [[(d / f.name).read_bytes().replace(bytes(d), b"") for f in sorted(dirs[0].iterdir())]
                         for d in dirs]
                self.assertEqual(files[0], files[1], name)
                self.assertNotEqual(files[0], files[2], name)


class TinyWorkloads(unittest.TestCase):
    def check(self, workload: str, trace: int, names: dict) -> None:
        proc, result = tiny_run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)

    def test_end_to_end(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, run.END_TO_END)

    def test_traced(self):
        self.check("mc-tuned", 1, run.PER_LAYER)

    def test_refuses_without_sources(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "identify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
