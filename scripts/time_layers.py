#!/usr/bin/env python3
"""Time rlab's layers in process and print one JSON line of milliseconds.

    python3 scripts/time_layers.py

Each figure is the best of 5 calls, on seeded random tori at 64^2, 16^3
and 12^4: the stencils ``diff1``, ``diff2`` and ``grad_stack`` on a
10-component stack, ``MetricField`` (symmetrization, cofactors and the SPD
rule), the Levi-Civita pass alone (``tensor._connection``), the Levi-Civita
pass and R_AB on a fresh ``Geometry``, ``riemann_norm_sq``, ``flow_rhs`` and
one rk4 ``step``; and one cold ``mu_minimize`` at 16^3, which ``mu
iteration`` divides by its iteration count (one entropy-optimizer
iteration).  One more figure, ``minflt per rk4 step``, is the mean count of
minor page faults of this process (``resource.getrusage``) over 20 rk4 steps
at each grid, after one warm-up step: the allocations of a step that the
allocator returns to the system show up there.  ``ru_maxrss_mb`` is the process's peak resident set
at the end.  rlab is imported from ``src/``; nothing is written.
Pin the numerical thread pools (``OMP_NUM_THREADS=1`` and the like) to
compare two checkouts.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlab.flow import FlowParams, FlowState, flow_rhs, step
from rlab.functionals import mu_minimize
from rlab.instances import random_instance
from rlab.mesh import MetricField, diff1, diff2, grad_stack
from rlab.tensor import Geometry, _connection, riemann_norm_sq

REPEATS = 5
GRIDS = ((2, 64), (3, 16), (4, 12))
COMPONENTS = 10
DT = 1e-4
FAULT_STEPS = 20


def best_ms(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e3 * min(times), 3)


def minflt_per_step(state, params):
    """Mean minor page faults of this process per rk4 step, after a warm-up step."""
    state = step(state, params, DT)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_STEPS):
        state = step(state, params, DT)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / FAULT_STEPS


def main():
    ms, faults = {}, {}
    params = FlowParams(2.0)
    for n, res in GRIDS:
        grid, metric, u = random_instance(n, res, seed=7)
        stack = np.random.default_rng(7).standard_normal((COMPONENTS,) + grid.shape)
        state = FlowState(grid, metric, u)
        label = f"{res}^{n}"
        ms[f"diff1 {label}"] = best_ms(lambda: diff1(stack, grid, n - 1))
        ms[f"diff2 {label}"] = best_ms(lambda: diff2(stack, grid, n - 1))
        ms[f"grad_stack {label}"] = best_ms(lambda: grad_stack(stack, grid))
        ms[f"MetricField {label}"] = best_ms(lambda: MetricField(grid, metric.values))
        ms[f"_connection {label}"] = best_ms(lambda: _connection(metric))
        ms[f"gamma+rm_ab {label}"] = best_ms(lambda: Geometry(metric, u).rm_ab)
        rab = Geometry(metric, u).rm_ab
        ms[f"riemann_norm_sq {label}"] = best_ms(lambda: riemann_norm_sq(rab, metric))
        ms[f"flow_rhs {label}"] = best_ms(lambda: flow_rhs(state, params))
        ms[f"rk4 step {label}"] = best_ms(lambda: step(state, params, DT))
        faults[f"minflt per rk4 step {label}"] = minflt_per_step(state, params)
        if n == 3:
            ms[f"mu_minimize {label}"] = best_ms(lambda: mu_minimize(metric, u, 1.0))
            iterations = mu_minimize(metric, u, 1.0).iterations
            ms[f"mu iteration {label}"] = round(ms[f"mu_minimize {label}"] / iterations, 4)
    print(json.dumps({"unit": "ms", "best_of": REPEATS, "python": platform.python_version(),
                      "numpy": np.__version__, "times": ms, **faults,
                      "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    main()
