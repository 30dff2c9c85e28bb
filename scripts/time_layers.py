#!/usr/bin/env python3
"""Time rlab's layers in process and print one JSON line of milliseconds.

    python3 scripts/time_layers.py

Each figure is the best of 5 calls, on seeded random tori at 64^2, 16^3
and 12^4: the stencils ``diff1``, ``diff2`` and ``grad_stack`` on a
10-component stack, ``MetricField`` (symmetrization, cofactors and the SPD
rule), the Levi-Civita pass alone (``tensor._connection``), the Levi-Civita
pass and R_AB on a fresh ``Geometry``, ``ricci`` and ``riemann_norm_sq`` of
that R_AB, ``hessian`` from its Gamma, ``flow_rhs`` on a fresh geometry
(``flow._geometry``), one rk4 ``step``, one ``_diagnose`` row on a geometry
that ``flow_rhs`` has already read, as in ``flow.run``, and one uniqueness
energy snapshot (``difference_bundle`` of a state and its perturbed twin,
``energy`` and ``norms``, as in the uniqueness stage).  At 64^2 and 16^3
comes ``lemma52_defects``, whose n^4 einsums do not fit a quick 12^4 row.
At 16^3 come one cold ``mu_minimize`` on a fresh geometry, which ``mu
iteration`` divides by its iteration count (one entropy-optimizer
iteration), and the parts of an iteration: one ``_w_eval``, one
``_mu_gradient``, and one descent's transforms (the forward rfftn of the
stack (r, v, s) and the irfftn of P q).  One more figure, ``minflt per rk4
step``, is the mean count of minor page faults of this process
(``resource.getrusage``) over 20 rk4 steps at each grid, after one warm-up
step: the allocations of a step that the allocator returns to the system
show up there.  ``ru_maxrss_mb`` is the process's peak resident set at the
end.  rlab is imported from ``src/``; nothing is written.  Pin the
numerical thread pools (``OMP_NUM_THREADS=1`` and the like) to compare two
checkouts.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlab.cli import twin_from
from rlab.flow import (FlowParams, FlowState, Trajectory, _diagnose, _geometry, flow_rhs,
                       step)
from rlab.functionals import (_form_weights, _mu_gradient, _preconditioner, _w_eval,
                              mu_minimize)
from rlab.identities import lemma52_defects
from rlab.instances import random_instance
from rlab.mesh import MetricField, diff1, diff2, grad_stack, integrate
from rlab.tensor import Geometry, _connection, hessian, ricci, riemann_norm_sq
from rlab.uniqueness import difference_bundle, energy

REPEATS = 5
GRIDS = ((2, 64), (3, 16), (4, 12))
COMPONENTS = 10
DT = 1e-4
FAULT_STEPS = 20


def best_ms(fn, setup=None):
    """Best wall time of ``fn()``, or of ``fn(setup())`` with the set-up untimed."""
    times = []
    for _ in range(REPEATS):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return round(1e3 * min(times), 3)


def step_geometry(state, params):
    """The geometry of ``state`` with what ``flow_rhs`` reads already built."""
    geo = _geometry(state, params)
    flow_rhs(geo)
    return geo


def energy_snapshot(state, params):
    """One snapshot of the uniqueness stage's energy: the differences of
    ``state`` and its twin (``cli.twin_from``) at t = DT, their energy and norms."""
    trajs = []
    for grid, metric, u in ((state.grid, state.metric, state.u),
                            twin_from({}, state.grid, state.metric, state.u)):
        trajs.append(Trajectory(grid, params, DT, frozenset()))
        trajs[-1].record(FlowState(grid, metric, u, DT, 1))

    def snapshot():
        bundle = difference_bundle(*trajs, 0)
        return energy(bundle), bundle.norms()
    return snapshot


def mu_parts_ms(metric, u, tau=1.0):
    """One ``_w_eval``, one ``_mu_gradient`` and one descent's transforms."""
    S = Geometry(metric, u).S
    form = _form_weights(metric)
    w = 1.0 + 0.1 * np.random.default_rng(7).random(metric.grid.shape)
    w /= np.sqrt(integrate(w * w, metric))
    _, *parts = _w_eval(metric, S, w, tau, form)
    forward, inverse, P, _, _ = _preconditioner(metric, tau)
    stack = np.stack((_mu_gradient(metric, w, tau, S, *parts), metric.sqrt_det * w, w))
    return {"_w_eval": best_ms(lambda: _w_eval(metric, S, w, tau, form)),
            "_mu_gradient": best_ms(lambda: _mu_gradient(metric, w, tau, S, *parts)),
            "descent transforms": best_ms(lambda: inverse(P * forward(stack)[0]))}


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
        geo = Geometry(metric, u)
        rab = geo.rm_ab
        ms[f"ricci {label}"] = best_ms(lambda: ricci(rab, metric))
        ms[f"riemann_norm_sq {label}"] = best_ms(lambda: riemann_norm_sq(rab, metric))
        ms[f"hessian {label}"] = best_ms(lambda: hessian(u, grid, geo.gamma_p, geo.du))
        ms[f"flow_rhs {label}"] = best_ms(lambda: flow_rhs(_geometry(state, params)))
        ms[f"rk4 step {label}"] = best_ms(lambda: step(state, params, DT))
        ms[f"_diagnose {label}"] = best_ms(lambda g: _diagnose(g, 0.0, DT),
                                           lambda: step_geometry(state, params))
        faults[f"minflt per rk4 step {label}"] = minflt_per_step(state, params)
        ms[f"energy snapshot {label}"] = best_ms(energy_snapshot(state, params))
        if n < 4:
            ms[f"lemma52_defects {label}"] = best_ms(lambda: lemma52_defects(metric, u))
        if n == 3:
            ms[f"mu_minimize {label}"] = best_ms(lambda: mu_minimize(Geometry(metric, u), 1.0))
            iterations = mu_minimize(Geometry(metric, u), 1.0).iterations
            ms[f"mu iteration {label}"] = round(ms[f"mu_minimize {label}"] / iterations, 4)
            ms.update({f"{k} {label}": v for k, v in mu_parts_ms(metric, u).items()})
    print(json.dumps({"unit": "ms", "best_of": REPEATS, "python": platform.python_version(),
                      "numpy": np.__version__, "times": ms, **faults,
                      "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    main()
