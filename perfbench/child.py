"""One timed ``beyondnyq.cli.main`` call in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the source
directory, the CLI arguments, the result file, and whether to trace.  Only the
standard library is loaded before ``import beyondnyq.cli`` is timed, so
``setup_s`` includes loading numpy and scipy, as every CLI user pays it.

Traced calls are wrapped where they are called (``beyondnyq.sim.simulate``,
``beyondnyq.estimator.build_kernel_matrix``, ...); nothing in the program is
changed.  For Monte Carlo runs the largest-order pk model of every run is kept
with the run's plant parameters so the parent can score its FRF.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import threading
import time
import weakref
from pathlib import Path

from spans import SpanRecorder

# (module, attribute at the call site, span name)
CALL_SITES = [
    ("beyondnyq.cli", "run_monte_carlo", "sim.run_monte_carlo"),
    ("beyondnyq.cli", "read_signal_csv", "signals.read_signal_csv"),
    ("beyondnyq.cli", "build_regressor", "regressor.build_regressor"),
    ("beyondnyq.cli", "least_squares_fir", "regressor.least_squares_fir"),
    ("beyondnyq.cli", "regularized_fir", "estimator.regularized_fir"),
    ("beyondnyq.cli", "marginal_likelihood", "estimator.marginal_likelihood"),
    ("beyondnyq.cli", "fir_frf", "signals.fir_frf"),
    ("beyondnyq.cli", "save_model", "estimator.save_model"),
    ("beyondnyq.sim", "zoh_discretize", "sim.zoh_discretize"),
    ("beyondnyq.sim", "random_multisine", "signals.random_multisine"),
    ("beyondnyq.sim", "simulate", "sim.simulate"),
    ("beyondnyq.sim", "build_regressor", "regressor.build_regressor"),
    ("beyondnyq.sim", "optimize_hyperparameters", "estimator.optimize_hyperparameters"),
    ("beyondnyq.sim", "identifiability_check", "regressor.identifiability_check"),
    ("beyondnyq.sim", "least_squares_fir", "regressor.least_squares_fir"),
    ("beyondnyq.sim", "regularized_fir", "estimator.regularized_fir"),
    ("beyondnyq.estimator", "build_kernel_matrix", "kernels.build_kernel_matrix"),
    ("beyondnyq.regressor", "identifiability_check", "regressor.identifiability_check"),
]

PLANT_FIELDS = ("m1", "m2", "k1", "k2", "d1", "d2")


class Tracer:
    """Installs span wrappers at the call sites and keeps the state the
    special wrappers share (the registry of regressors already checked)."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._seen: dict[int, weakref.ref] = {}
        self._lock = threading.Lock()

    def install(self) -> None:
        for module, attr, name in CALL_SITES:
            fn = getattr(sys.modules[module], attr, None)
            if fn is None:
                print(f"perfbench: {module}.{attr} not found, its span stays empty", file=sys.stderr)
                continue
            wrap = {
                "estimator.optimize_hyperparameters": self._optimizer,
                "regressor.identifiability_check": self._identifiability,
                "sim.run_monte_carlo": self._monte_carlo,
            }.get(name)
            setattr(sys.modules[module], attr, wrap(name, fn) if wrap else self.recorder.wrap(name, fn))

    def _optimizer(self, name, fn):
        # count evaluations through the public on_evaluation hook
        def wrapper(*args, **kwargs):
            values: list[float] = []
            user = kwargs.get("on_evaluation")

            def hook(vals, value):
                values.append(value)
                if user is not None:
                    user(vals, value)

            kwargs["on_evaluation"] = hook
            attrs: dict = {}
            try:
                return self.recorder.call(name, fn, *args, attrs=attrs, **kwargs)
            finally:
                evaluations = values[:-1]  # the last entry reports the accepted point
                best, improving = float("inf"), 0
                for index, value in enumerate(evaluations):
                    if value < best:
                        improving += index > 0
                        best = value
                attrs.update(evaluations=len(evaluations), improving=improving)

        return wrapper

    def _identifiability(self, name, fn):
        # a distinct input is a regressor object not checked before
        def wrapper(phi, *args, **kwargs):
            with self._lock:
                known = self._seen.get(id(phi))
                new = known is None or known() is not phi
                if new:
                    self._seen[id(phi)] = weakref.ref(phi)
            return self.recorder.call(name, fn, phi, *args, attrs={"new_input": new}, **kwargs)

        return wrapper

    def _monte_carlo(self, name, fn):
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            cpu = time.process_time()
            try:
                return self.recorder.call(name, fn, *args, attrs=attrs, **kwargs)
            finally:
                attrs["cpu_s"] = time.process_time() - cpu

        return wrapper


def install_capture(captured: list, max_order: int) -> None:
    """Keep the largest-order sum-kernel (pk) model of each Monte Carlo run,
    paired with the plant parameters that run built."""
    sim = sys.modules["beyondnyq.sim"]
    current = threading.local()
    build_plant, fit = sim.build_plant, sim.regularized_fir

    def capture_plant(params, *args, **kwargs):
        current.plant = {k: float(getattr(params, k)) for k in PLANT_FIELDS}
        return build_plant(params, *args, **kwargs)

    def capture_fit(problem, *args, **kwargs):
        model = fit(problem, *args, **kwargs)
        if problem.phi.order == max_order and hasattr(problem.kernel, "terms"):
            captured.append({"plant": getattr(current, "plant", None), "theta": model.theta.tolist()})
        return model

    sim.build_plant, sim.regularized_fir = capture_plant, capture_fit


def _openblas(pattern: str, suffix: str) -> dict:
    paths = glob.glob(pattern)
    if not paths:
        return {"threads": None, "config": None}
    lib = ctypes.CDLL(paths[0])
    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    threads.argtypes, threads.restype = [], ctypes.c_int
    config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    config.argtypes, config.restype = [], ctypes.c_char_p
    return {"threads": threads(), "config": config().decode()}


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    numpy_libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    scipy_libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **{k: os.environ.get(k) for k in ("NB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "openblas_numpy": _openblas(os.path.join(numpy_libs, "libscipy_openblas64_*.so"), "64_"),
        "openblas_scipy": _openblas(os.path.join(scipy_libs, "libscipy_openblas-*.so"), ""),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import beyondnyq.cli as cli

    setup_s = time.perf_counter() - start
    if spec["argv"] is None:  # import only: set-up time
        Path(spec["result"]).write_text(json.dumps({"exit_code": 0, "setup_s": setup_s}))
        return 0

    captured: list[dict] = []
    if spec["capture_order"]:
        install_capture(captured, spec["capture_order"])
    recorder = None
    if spec["trace"]:
        recorder = SpanRecorder()
        Tracer(recorder).install()

    start = time.perf_counter()
    if recorder is None:
        code = cli.main(spec["argv"])
    else:
        code = recorder.call("cli.main", cli.main, spec["argv"])
    wall_s = time.perf_counter() - start

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "captured": captured,
        "spans": recorder.spans if recorder else [],
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
