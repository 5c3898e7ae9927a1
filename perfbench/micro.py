"""Layer micro-timings at the workload shapes, each timed alone through the
public ``beyondnyq`` API in a fresh interpreter.

Usage: ``python3 perfbench/micro.py SRC_DIR SEED RESULT.json``.  Shapes:
M=200, P=600 and P=150 are the Monte Carlo workloads (600 fast samples,
factor 3); M=2000, P=1000 is the identify workload.  Each figure is the median
of a few calls after one untimed warm-up call.  ``estimator.evidence_eval_ms``
is the budget-100 tuner call's time per evaluation.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

TUNABLE = {"dc": ("scale", "decay"), "pk": ("frequency", "decay", "sigma1", "sigma2")}


def median_ms(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def main() -> int:
    src, seed, result = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, src)
    import beyondnyq as bn
    from beyondnyq.estimator import default_bounds

    small = wl.identify_data(wl.Workload("micro", "identify", n_samples=600), seed)
    large = wl.identify_data(wl.Workload("micro", "identify", n_samples=6000), seed)
    u_small = bn.FastSignal(samples=small["u"], period=wl.PERIOD_S)
    u_large = bn.FastSignal(samples=large["u"], period=wl.PERIOD_S)
    slow = wl.PERIOD_S * wl.FACTOR
    y_small = bn.SlowSignal(samples=small["y_slow"], period=slow, factor=wl.FACTOR)
    y_large = bn.SlowSignal(samples=large["y_slow"], period=slow, factor=wl.FACTOR)
    phi_600 = bn.build_regressor(u_small, wl.FACTOR, 600)
    phi_150 = bn.build_regressor(u_small, wl.FACTOR, 150)
    phi_1000 = bn.build_regressor(u_large, wl.FACTOR, 1000)
    pk = bn.kernel_spec_from_json(wl.kernel_json()["pk"])
    gamma = 1e-5

    # the Monte Carlo tuner's start point for pk: gamma plus every term's tunables
    values = {"gamma": gamma}
    for index, term in enumerate(bn.kernel_spec_to_json(pk)["terms"]):
        values.update({f"terms.{index}.{f}": term[f] for f in TUNABLE[term["type"]]})
    bounds = {name: default_bounds(name, value, 2.0 * math.pi) for name, value in values.items()}
    eta0 = bn.HyperparameterVector(values=values, bounds=bounds)
    plant = bn.zoh_discretize(bn.build_plant(bn.NOMINAL_PLANT), wl.PERIOD_S)

    m, p = phi_1000.entries.shape
    metrics = {
        "kernels.build_kernel_matrix.p600_ms": median_ms(lambda: bn.build_kernel_matrix(pk, 600), 5),
        "kernels.build_kernel_matrix.p1000_ms": median_ms(lambda: bn.build_kernel_matrix(pk, 1000), 5),
        "estimator.marginal_likelihood.m200_p600_ms": median_ms(
            lambda: bn.marginal_likelihood(phi_600, y_small, pk, gamma), 5
        ),
        "estimator.regularized_fir.m200_p600_ms": median_ms(
            lambda: bn.regularized_fir(bn.RegularizedProblem(phi_600, y_small, pk, gamma)), 5
        ),
        "estimator.regularized_fir.m2000_p1000_ms": median_ms(
            lambda: bn.regularized_fir(bn.RegularizedProblem(phi_1000, y_large, pk, gamma)), 3
        ),
        "regressor.least_squares_fir.m200_p150_ms": median_ms(lambda: bn.least_squares_fir(phi_150, y_small), 5),
        "regressor.least_squares_fir.m2000_p1000_ms": median_ms(lambda: bn.least_squares_fir(phi_1000, y_large), 3),
        "sim.simulate.n600_ms": median_ms(lambda: bn.simulate(plant, u_small), 5),
    }
    evaluations: list[float] = []

    def tune():
        evaluations.clear()
        bn.optimize_hyperparameters(
            phi_600, y_small, pk, eta0, gamma=gamma, budget=100, on_evaluation=lambda _, f: evaluations.append(f)
        )

    metrics["estimator.optimize_hyperparameters.b100_ms"] = median_ms(tune, 1)
    # the last on_evaluation entry reports the accepted point, not a new evaluation
    metrics["estimator.evidence_eval_ms"] = metrics["estimator.optimize_hyperparameters.b100_ms"] / (len(evaluations) - 1)
    # computed, not counted: Gram K Phi' and Phi (K Phi') plus the Cholesky
    flops = 2.0 * p * p * m + 2.0 * m * m * p + m**3 / 3.0
    metrics["estimator.regularized_fir.m2000_p1000_gflops"] = (
        flops / (metrics["estimator.regularized_fir.m2000_p1000_ms"] / 1000.0) / 1e9
    )
    result.write_text(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
