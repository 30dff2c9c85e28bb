#!/usr/bin/env python3
"""Time rlab's layers in process and print one JSON line of milliseconds.

    python3 scripts/time_layers.py

Each figure is the best of 5 calls, on seeded random tori at 64^2, 16^3
and 12^4 (``flow_rhs`` and the rk4 ``step`` also at 16^4): the stencils
``diff1``, ``diff2`` and ``grad_stack`` on a 10-component stack,
``MetricField`` (symmetrization, cofactors and the SPD
rule), the Levi-Civita pass alone (``tensor._connection``), the Levi-Civita
pass and R_AB on a fresh ``Geometry``, ``ricci`` and ``riemann_norm_sq`` of
that R_AB, ``hessian`` from its Gamma, ``flow_rhs`` on a fresh geometry
(``flow._geometry``), one rk4 ``step``, one ``_diagnose`` row on a geometry
that ``flow_rhs`` has already read, as in ``flow.run``, and one uniqueness
energy snapshot on fresh geometries (``difference_bundle`` of a state and
its perturbed twin, ``energy`` and ``norms``), also as its tracemalloc peak
above the two states in MB.  At 64^2 and 16^3 comes
``lemma52_defects``, whose n^4 einsums do not fit a quick 12^4 row.  The
uniqueness stage's own row, the energy on the two geometries the steps
built (which ``flow_rhs`` has read), is timed at 10^3 and 16^3; the verify
stage's window, all ten entries of the benchmark's verify workload (A.2 to
A.10 and A.8 mutated) on the step-built geometries of three consecutive
snapshots of the canonical instance, at 16^2, 32^2 and 64^2; the A.6 entry
alone on such a window of a 24^3 instance, and the A.12 and A.13 entries
each alone on such a window of an 8^4 instance, in ms and as the tracemalloc
peak above the window in MB; and the compare stage's ``scalar_order`` of
every pair on a fresh geometry of a 12^3 instance.
At 16^3 come one cold ``mu_minimize`` on a fresh geometry, which ``mu
iteration`` divides by its iteration count (one entropy-optimizer
iteration), and the parts of an iteration: one ``_w_eval``, one
``_mu_gradient``, and one descent's transforms (the forward rfftn of the
stack (r, v, s) and the irfftn of P q).  One more figure, ``minflt per rk4
step``, is the mean count of minor page faults (``resource.getrusage``)
over 20 rk4 steps at each grid, after one warm-up step, each grid in a
fresh process of its own (``time_layers.py minflt n res``), so that the
heap the other rows grew does not hide them: the allocations of a step
that the allocator returns to the system show up there.  ``run peak`` is
the working set of a 2-step rk4 run with diagnostics of ``random_instance(4,
res, 1)`` at its CFL dt, at 12^4 and 16^4, each grid in a fresh process
(``time_layers.py runpeak n res``, started before this process grows, since
a child's ``ru_maxrss`` starts at its parent's) and the run alone holding
its initial state: ``ru_maxrss`` after one run, then the tracemalloc peak
above the initial state of a second, both in MB.  ``ru_maxrss_mb``
is this process's peak resident set at the end.  rlab is imported from
``src/``; nothing is written.  Pin the numerical thread pools
(``OMP_NUM_THREADS=1`` and the like) to compare two checkouts.
"""

import json
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlab.cli import twin_from
from rlab.comparison import SCALAR_PAIRS, scalar_order
from rlab.flow import (FlowParams, FlowState, Schedule, _diagnose, _geometry, cfl_dt,
                       flow_rhs, run, step)
from rlab.functionals import (_form_weights, _mu_gradient, _preconditioner, _w_eval,
                              mu_minimize)
from rlab.identities import APPENDIX_A_IDS, evaluate_identity, lemma52_defects
from rlab.instances import random_instance, verification_initial_data
from rlab.mesh import MetricField, build_grid, diff1, diff2, grad_stack, integrate
from rlab.tensor import Geometry, _connection, hessian, ricci, riemann_norm_sq
from rlab.uniqueness import difference_bundle, energy

REPEATS = 5
GRIDS = ((2, 64), (3, 16), (4, 12))
PEAK_GRIDS = ((4, 12), (4, 16))
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


def twin_states(state):
    """``state`` and its perturbed twin (``cli.twin_from``), both at t = DT."""
    return [FlowState(grid, metric, u, DT, 1) for grid, metric, u in (
        (state.grid, state.metric, state.u),
        twin_from({}, state.grid, state.metric, state.u))]


def energy_row(geos):
    """The differences of two geometries, their energy and norms."""
    bundle = difference_bundle(*geos)
    return energy(bundle), bundle.norms()


def window(state, dt):
    """The step-built geometries of ``state`` and of the next two snapshots."""
    params = FlowParams(2.0)
    frames = [step_geometry(state, params)]
    for _ in range(2):
        state = step(state, params, dt)
        frames.append(step_geometry(state, params))
    return frames


def verify_window(res):
    """The window of the canonical instance at res^2, at the verify workload's
    dt (2e-3 at 16^2, times h^2)."""
    grid = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    return window(FlowState(grid, *verification_initial_data(grid)), 2e-3 * (16 / res) ** 2)


def window_reports(frames):
    """The verify workload's ten entries on one window."""
    return [evaluate_identity(frames, ident, 2e-3, mutate=mutate)
            for ident, mutate in [(i, False) for i in APPENDIX_A_IDS] + [("A.8", True)]]


def a6_window():
    """The window of a 24^3 random instance, at dt ``DT``."""
    return window(FlowState(*random_instance(3, 24, seed=7)), DT)


def a6_entry(frames):
    return evaluate_identity(frames, "A.6", DT)


def window_8_4():
    """The window of ``random_instance(4, 8, 3)``, at dt ``DT``."""
    return window(FlowState(*random_instance(4, 8, seed=3)), DT)


def traced_mb(fn, setup):
    """The tracemalloc peak of ``fn(setup())`` above what ``setup()`` holds, in MB."""
    args = setup()
    tracemalloc.start()
    try:
        fn(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 2 ** 20, 1)


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


def minflt_per_step(n, res):
    """Mean minor page faults of this process per rk4 step, after a warm-up step."""
    grid, metric, u = random_instance(n, res, seed=7)
    state, params = FlowState(grid, metric, u), FlowParams(2.0)
    state = step(state, params, DT)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_STEPS):
        state = step(state, params, DT)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / FAULT_STEPS


def run_peak(n, res):
    """ru_maxrss and the tracemalloc peak above the initial state, in MB, of a
    2-step rk4 run with diagnostics, which alone holds its initial state."""
    grid, metric, u = random_instance(n, res, seed=1)
    dt = cfl_dt(Geometry(metric, u), 0.5)
    held, sched = [FlowState(grid, metric, u)], Schedule(t_end=2 * dt, dt=dt)
    del metric, u
    run(held.pop(), FlowParams(2.0), sched)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    held.append(FlowState(*random_instance(n, res, seed=1)))
    tracemalloc.start()
    try:
        run(held.pop(), FlowParams(2.0), sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"ru_maxrss_mb": round(rss, 1), "tracemalloc_mb": round(peak / 2 ** 20, 1)}


def main():
    ms, mb, faults = {}, {}, {}
    for n, res in PEAK_GRIDS:       # first: a child's ru_maxrss starts at its parent's
        faults.update({f"run peak {res}^{n} {k}": v for k, v in json.loads(subprocess.run(
            [sys.executable, "-B", __file__, "runpeak", str(n), str(res)],
            capture_output=True, text=True, check=True).stdout).items()})
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
        ms[f"ricci {label}"] = best_ms(lambda: ricci(rab, metric.inv))
        ms[f"riemann_norm_sq {label}"] = best_ms(lambda: riemann_norm_sq(rab, metric))
        ms[f"hessian {label}"] = best_ms(lambda: hessian(u, grid, geo.gamma_p, geo.du))
        ms[f"flow_rhs {label}"] = best_ms(lambda: flow_rhs(_geometry(state, params)))
        ms[f"rk4 step {label}"] = best_ms(lambda: step(state, params, DT))
        ms[f"_diagnose {label}"] = best_ms(lambda g: _diagnose(g, 0.0, DT),
                                           lambda: step_geometry(state, params))
        faults[f"minflt per rk4 step {label}"] = float(subprocess.run(
            [sys.executable, "-B", __file__, "minflt", str(n), str(res)],
            capture_output=True, text=True, check=True).stdout)
        twins = twin_states(state)
        ms[f"energy snapshot {label}"] = best_ms(
            lambda: energy_row([_geometry(s, params) for s in twins]))
        mb[f"energy snapshot {label}"] = traced_mb(
            energy_row, lambda: [_geometry(s, params) for s in twins])
        if n < 4:
            ms[f"lemma52_defects {label}"] = best_ms(lambda: lemma52_defects(metric, u))
        if n == 3:
            ms[f"mu_minimize {label}"] = best_ms(lambda: mu_minimize(Geometry(metric, u), 1.0))
            iterations = mu_minimize(Geometry(metric, u), 1.0).iterations
            ms[f"mu iteration {label}"] = round(ms[f"mu_minimize {label}"] / iterations, 4)
            ms.update({f"{k} {label}": v for k, v in mu_parts_ms(metric, u).items()})
    grid, metric, u = random_instance(4, 16, seed=7)
    state = FlowState(grid, metric, u)
    ms["flow_rhs 16^4"] = best_ms(lambda: flow_rhs(_geometry(state, params)))
    ms["rk4 step 16^4"] = best_ms(lambda: step(state, params, DT))
    del grid, metric, u, state
    for res in (10, 16):
        twins = twin_states(FlowState(*random_instance(3, res, seed=7)))
        ms[f"energy row on step-built geometries {res}^3"] = best_ms(
            energy_row, lambda: [step_geometry(s, params) for s in twins])
    for res in (16, 32, 64):
        ms[f"verify window {res}^2"] = best_ms(window_reports, lambda: verify_window(res))
    ms["A.6 window 24^3"] = best_ms(a6_entry, a6_window)
    mb["A.6 window 24^3"] = traced_mb(a6_entry, a6_window)
    for ident in ("A.12", "A.13"):
        def entry(frames, ident=ident):
            return evaluate_identity(frames, ident, DT)
        ms[f"{ident} window 8^4"] = best_ms(entry, window_8_4)
        mb[f"{ident} window 8^4"] = traced_mb(entry, window_8_4)
    ms["scalar_order 12^3"] = best_ms(
        lambda geo: [scalar_order(geo, pair) for pair in SCALAR_PAIRS],
        lambda: Geometry(*random_instance(3, 12, seed=7)[1:]))
    print(json.dumps({"unit": "ms", "best_of": REPEATS, "python": platform.python_version(),
                      "numpy": np.__version__, "times": ms, **faults, "tracemalloc_mb": mb,
                      "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["minflt"]:
        print(minflt_per_step(int(sys.argv[2]), int(sys.argv[3])))
    elif sys.argv[1:2] == ["runpeak"]:
        print(json.dumps(run_peak(int(sys.argv[2]), int(sys.argv[3]))))
    else:
        main()
