import functools
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import HOLD, SRC
from oracles import rm4
from rlab.flow import (DIAG_COLUMNS, BlowUpError, FlowParams, FlowState, Schedule,
                       _diagnose, _geometry, cfl_dt, flow_rhs, is_regular, run, step)
from rlab.instances import (perturbed_flat_metric, random_instance,
                            verification_initial_data)
from rlab.mesh import MetricField, build_grid, flat_metric, grad_stack, integrate
from rlab.tensor import Geometry, curvature, norm_sq, sm_tensor


def flat_state(res=16):
    g = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    return FlowState(g, flat_metric(g), np.zeros(g.shape))


def curved_state(res=32):
    g = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    return FlowState(g, m, u0)


def test_reduce_parameters():
    # (a1, a2, b1, b2) is stored as (a1, b1 - a2, b2)
    p = FlowParams(0, 2, -1, 3)
    assert (p.alpha1, p.beta1, p.beta2) == (0, -3, 3)
    assert FlowParams(1, 1, 1, 0) == FlowParams(1, 0, 0, 0)
    assert FlowParams(2, 0, 0, 0) == FlowParams(2.0)
    assert not hasattr(p, "alpha2")
    assert FlowParams(p.alpha1, 0.0, p.beta1, p.beta2) == p  # idempotent


def test_is_regular():
    assert is_regular(FlowParams(2, 0, 0, 0), 1.0)
    assert not is_regular(FlowParams(-1, 0, 0, 0), 1.0)
    assert is_regular(FlowParams(0.5, 0, 0, 1), 1.0)       # 1 >= 0.5 > 0
    assert not is_regular(FlowParams(0.5, 0, 1, 0), 1.0)   # a1 < b1^2
    with pytest.raises(ValueError):
        is_regular(FlowParams(2, 0, 0, 0), 0.0)


def test_flow_rhs_flat_stationary():
    st = flat_state()
    gdot, udot = flow_rhs(_geometry(st, FlowParams(2.0)))
    assert np.all(gdot == 0.0) and np.all(udot == 0.0)


def test_flow_rhs_flat_sin_expansion():
    # flat g, u = eps sin(x1): gdot_11 = 4 eps^2 cos^2, udot = -eps sin (O(h^2))
    g = build_grid("torus", 2, [64, 64], [2 * np.pi] * 2)
    eps = 0.1
    x = g.coords()[0]
    st = FlowState(g, flat_metric(g), eps * np.sin(x))
    gdot, udot = flow_rhs(_geometry(st, FlowParams(2.0)))
    h2 = max(g.spacing) ** 2
    assert np.max(np.abs(gdot[0, 0] - 4 * eps ** 2 * np.cos(x) ** 2)) < 5 * eps ** 2 * h2
    assert np.max(np.abs(udot + eps * np.sin(x))) < 5 * eps * h2
    assert np.max(np.abs(gdot[1, 1])) < 1e-14


def test_flow_rhs_reduces_to_ricci_flow():
    st = curved_state(16)
    st0 = FlowState(st.grid, st.metric, np.zeros(st.grid.shape))
    gdot, udot = flow_rhs(_geometry(st0, FlowParams(2.0)))
    cb = curvature(st0.metric)
    assert np.array_equal(gdot, -2.0 * cb.ric)
    assert np.all(udot == 0.0)


def test_reduction_exact_through_the_public_path(tmp_path):
    # b1 - a2 = 0.5 - 0.75 is exact in binary, so the reduced pair is equal
    from rlab.snapshots import read_checkpoint, write_checkpoint
    general, reduced = FlowParams(1.0, 0.75, 0.5, -0.3), FlowParams(1.0, 0.0, -0.25, -0.3)
    assert general == reduced
    st, dt = curved_state(16), 1e-3
    for a, b in zip(flow_rhs(_geometry(st, general)), flow_rhs(_geometry(st, reduced))):
        assert np.array_equal(a, b)
    s1, s2 = step(st, general, dt), step(st, reduced, dt)
    assert np.array_equal(s1.metric.values, s2.metric.values)
    assert np.array_equal(s1.u, s2.u)
    sched = Schedule(t_end=3 * dt, dt=dt)
    t1, t2 = run(st, general, sched, HOLD), run(st, reduced, sched, HOLD)
    assert t1.nsnapshots == t2.nsnapshots == 4 and t1.params == t2.params
    for s1, s2 in zip(t1.read["states"], t2.read["states"], strict=True):
        assert np.array_equal(s1.metric.values, s2.metric.values)
        assert np.array_equal(s1.u, s2.u)
    assert t1.diagnostics == t2.diagnostics
    write_checkpoint(tmp_path / "chk.rlab", st, general, sched)
    assert read_checkpoint(tmp_path / "chk.rlab")[1] == reduced


def test_cfl_dt():
    st = flat_state()
    h = st.grid.spacing[0]
    geo = Geometry(st.metric, st.u)
    assert abs(cfl_dt(geo, 1.0) - h * h / 8.0) < 1e-15
    st2 = flat_state(res=32)
    assert abs(cfl_dt(Geometry(st2.metric, st2.u), 1.0) - cfl_dt(geo, 1.0) / 4.0) < 1e-15
    with pytest.raises(ValueError):
        cfl_dt(geo, 0.0)


def test_cfl_dt_curvature_scaling():
    # when max|Rm| exceeds 1, doubling it halves dt
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    x2 = g.coords()[1]

    def state(amp):
        m = perturbed_flat_metric(g, {(0, 0): [{"amp": amp, "wave": [0, 1]}]})
        return FlowState(g, m, np.zeros(g.shape))

    # two amplitudes whose curvature maxima both exceed 1
    from rlab.tensor import norm_sq
    st5, st10 = state(0.6), state(0.75)
    m5 = np.sqrt(np.max(norm_sq(rm4(curvature(st5.metric)), st5.metric, 0, 4)))
    m10 = np.sqrt(np.max(norm_sq(rm4(curvature(st10.metric)), st10.metric, 0, 4)))
    assert m5 > 1 and m10 > 1
    r = cfl_dt(Geometry(st5.metric, st5.u), 1.0) / cfl_dt(Geometry(st10.metric, st10.u), 1.0)
    assert abs(r - m10 / m5) < 1e-12


def test_step_stationary_and_errors():
    st = flat_state()
    p = FlowParams(2.0)
    s2 = step(st, p, 0.01)
    assert np.array_equal(s2.metric.values, st.metric.values)
    assert np.array_equal(s2.u, st.u)
    assert s2.t == 0.01 and s2.step_count == 1
    with pytest.raises(ValueError):
        step(st, p, 0.0)
    with pytest.raises(ValueError):
        step(st, p, 0.01, method="rk7")


def test_rk4_beats_euler():
    st = curved_state(16)
    p = FlowParams(2.0)
    dt = cfl_dt(Geometry(st.metric, st.u), 0.8)
    ref = st
    for _ in range(40):
        ref = step(ref, p, dt / 40.0, "rk4")
    e_euler = step(st, p, dt, "euler")
    e_rk4 = step(st, p, dt, "rk4")
    err_e = np.max(np.abs(e_euler.metric.values - ref.metric.values))
    err_r = np.max(np.abs(e_rk4.metric.values - ref.metric.values))
    assert err_e > 10.0 * err_r


@pytest.mark.parametrize("method, order", [("rk4", 4), ("euler", 1)])
def test_integrator_order_is_measured_two_sided(method, order):
    # halving dt shrinks the change of (g, u) at t_end by 2^order: the
    # differences between successive dt of 8e-3, 4e-3 and 2e-3 fix the order
    for n, res, seed in ((2, 16, 1), (3, 8, 2)):
        grid, m, u = random_instance(n, res, seed)
        p, ends = FlowParams(2.0), []
        for dt in (8e-3, 4e-3, 2e-3):
            s = FlowState(grid, m, u)
            for _ in range(round(0.032 / dt)):
                s = step(s, p, dt, method)
            ends.append(s)
        diffs = [max(np.max(np.abs(a.metric.values - b.metric.values)),
                     np.max(np.abs(a.u - b.u))) for a, b in zip(ends, ends[1:])]
        assert abs(np.log2(diffs[0] / diffs[1]) - order) <= 0.3, (n, diffs)


def test_rk4_step_is_the_textbook_sum_bitwise():
    # step adds each stage's slope into the sum as it finishes, in the order
    # of (k1 + 2 k2 + 2 k3 + k4) / 6; a given k1 is the slope at the state
    st, p, dt = curved_state(16), FlowParams(1.0, 0.3, 0.5, -0.3), 1e-3

    def stage(k, h):
        return flow_rhs(_geometry(FlowState(
            st.grid, MetricField(st.grid, st.metric.values + h * k[0]),
            st.u + h * k[1], st.t + h, st.step_count + 1), p))

    k1 = flow_rhs(_geometry(st, p))
    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)
    g, u = ((k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0 for i in range(2))
    for new in (step(st, p, dt), step(st, p, dt, k1=k1)):
        assert np.array_equal(new.metric.values,
                              MetricField(st.grid, st.metric.values + dt * g).values)
        assert np.array_equal(new.u, st.u + dt * u)
    assert np.array_equal(k1[0], g) and np.array_equal(k1[1], u)     # k1 got the sum


def test_rk4_run_working_set_stays_within_twelve_states():
    # one stage state and one stage slope are alive at a time, the accepted
    # state's geometry is released after its first slope, and R_AB is built
    # without the full Gamma or a stack of every d_P g_Q: the traced peak of
    # a 2-step run with diagnostics stays within 12 states (g, g^-1,
    # sqrt det g, u); the ratio does not depend on the resolution
    import tracemalloc
    grid, m, u = random_instance(4, 8, seed=1)
    st = FlowState(grid, m, u)
    dt = cfl_dt(Geometry(st.metric, st.u), 0.5)
    state_bytes = m.values.nbytes + m.inv.nbytes + m.sqrt_det.nbytes + u.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(st, FlowParams(2.0), Schedule(t_end=2 * dt, dt=dt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / state_bytes <= 12.0


def test_rk4_run_holds_one_slope_sum_and_one_stage():
    # the slopes are summed in k1's arrays, and each stage's slope is dropped
    # once the next stage state is formed: with the caller holding the state,
    # the traced peak of a 2-step run with diagnostics stays within 7.5
    # states (g, g^-1, sqrt det g, u).  Keeping k1 beside a separate sum and
    # the last slope while the next stage is built reads 8.33
    import tracemalloc
    grid, m, u = random_instance(4, 8, seed=1)
    st = FlowState(grid, m, u)
    dt = cfl_dt(Geometry(st.metric, st.u), 0.5)
    state_bytes = m.values.nbytes + m.inv.nbytes + m.sqrt_det.nbytes + u.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(st, FlowParams(2.0), Schedule(t_end=2 * dt, dt=dt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / state_bytes <= 7.5


FAULT_PROBE = """
import resource
from rlab.flow import FlowParams, FlowState, step
from rlab.instances import random_instance
grid, metric, u = random_instance(3, 16, seed=7)
state, params = FlowState(grid, metric, u), FlowParams(2.0)
state = step(state, params, 1e-4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    state = step(state, params, 1e-4)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
              "GLIBC_TUNABLES")
glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="rlab sets a malloc policy on glibc only")


@functools.lru_cache(maxsize=None)
def rk4_faults_per_step(**env):
    """Minor page faults per rk4 step at 16^3, after a warm-up step, in a
    fresh process whose environment sets no malloc policy but ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    r = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                       env={**base, "PYTHONPATH": SRC, "RLAB_THREADS": "1", **env})
    assert r.returncode == 0, r.stderr
    return float(r.stdout)


# glibc's own policy, as the environment asks for it (131072 is glibc's
# initial value of each threshold and of the top pad)
GLIBC_POLICY = [{"MALLOC_TRIM_THRESHOLD_": "131072"}, {"MALLOC_MMAP_THRESHOLD_": "131072"},
                {"MALLOC_TOP_PAD_": "131072"},
                {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}]


@glibc_only
def test_rk4_steps_reuse_the_memory_the_last_step_freed():
    # rlab fixes glibc's mmap and trim thresholds, so a step's transients
    # stay in the heap; under glibc's own policy each step hands them back
    # and faults them in again.  A ratio, not a count: larger pages or
    # another glibc build scale both sides
    assert 10 * rk4_faults_per_step() < rk4_faults_per_step(**GLIBC_POLICY[0])


@glibc_only
@pytest.mark.parametrize("env", GLIBC_POLICY, ids=lambda env: next(iter(env)))
def test_a_malloc_policy_in_the_environment_is_left_alone(env):
    assert rk4_faults_per_step(**env) > 10 * rk4_faults_per_step()


def test_run_flat_constant_diagnostics():
    st = flat_state()
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.05, dt=0.01))
    for col in ("max_rm", "max_grad_u_sq", "vol"):
        vals = np.array(traj.diagnostics[col])
        assert np.all(vals == vals[0])
    assert traj.aborted is None
    assert all(t2 > t1 for t1, t2 in zip(traj.times, traj.times[1:]))


def test_run_monotonicity_and_volume_identity():
    st = curved_state(32)
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.05, dt=None, safety=0.5), HOLD)
    mg = np.array(traj.diagnostics["max_grad_u_sq"])
    ms = np.array(traj.diagnostics["min_Sg"])
    slack = 1e-8 * mg[0]
    assert np.all(np.diff(mg) <= slack)
    assert np.all(np.diff(ms) >= -slack)
    # d/dt Vol = -int S dV at second order
    vol = np.array(traj.diagnostics["vol"])
    t = np.array(traj.diagnostics["t"])
    dvol = np.gradient(vol, t)[1:-1]     # second order also at the shortened last step
    intS = []
    for s in traj.read["states"]:
        cb = curvature(s.metric)
        du = grad_stack(s.u, s.grid)
        gsq = np.einsum("ij...,i...,j...->...", s.metric.inv, du, du)
        intS.append(integrate(cb.scalar - 2 * gsq, s.metric))
    intS = np.array(intS)
    h2dt2 = max(st.grid.spacing) ** 2 + traj.dt ** 2
    assert np.max(np.abs(dvol + intS[1:-1])) < 0.05 * h2dt2


def test_run_determinism_bitwise():
    t1 = run(curved_state(16), FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3), HOLD)
    t2 = run(curved_state(16), FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3), HOLD)
    assert t1.nsnapshots == len(t1.read["states"]) == 11
    for s1, s2 in zip(t1.read["states"], t2.read["states"], strict=True):
        assert np.array_equal(s1.metric.values, s2.metric.values)
        assert np.array_equal(s1.u, s2.u)


def test_blowup_abort_records_snapshot():
    # a huge step on strongly curved data loses positivity
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = perturbed_flat_metric(g, {(0, 0): [{"amp": 0.8, "wave": [0, 1]}]})
    st = FlowState(g, m, np.zeros(g.shape))
    traj = run(st, FlowParams(2.0), Schedule(t_end=2.0, dt=0.5, diagnostics=False))
    assert traj.aborted is not None
    assert "positive definiteness" in traj.aborted
    assert traj.nsnapshots >= 1


def test_non_finite_u_aborts_run(monkeypatch):
    # a right-hand side whose udot turns infinite from t = 0.0045 on, with a
    # finite (zero) metric velocity: the step onto t = 0.006 must end the
    # run with a reason that names u and t
    import rlab.flow as flow

    def rhs(geo):
        udot = np.full(geo.grid.shape, np.inf if geo.t >= 4.5e-3 else 0.0)
        return np.zeros_like(geo.g), udot

    monkeypatch.setattr(flow, "flow_rhs", rhs)
    for diagnostics in (False, True):
        traj = run(curved_state(16), FlowParams(2.0),
                   Schedule(t_end=0.01, dt=2e-3, diagnostics=diagnostics), HOLD)
        assert traj.aborted is not None
        assert "potential u not finite" in traj.aborted and "t=0.006" in traj.aborted
        assert traj.times == pytest.approx([0.0, 0.002, 0.004])
        assert traj.last is traj.read["states"][-1]
        assert all(np.all(np.isfinite(s.u)) for s in traj.read["states"])


@pytest.mark.parametrize("bad, entry", [(np.nan, (0, 0)), (np.inf, (0, 0)), (np.inf, (0, 1))],
                         ids=["nan", "inf", "inf-g01"])
def test_non_finite_metric_step_raises_blowup(monkeypatch, bad, entry):
    # every stage metric passes the one SPD rule, which names the non-finite
    # entries: an off-diagonal inf makes det -inf, not a "non-positive" det
    import rlab.flow as flow

    def rhs(geo):
        gdot = np.zeros_like(geo.g)
        gdot[entry + (2, 3)] = bad
        return gdot, np.zeros(geo.grid.shape)

    monkeypatch.setattr(flow, "flow_rhs", rhs)
    st = curved_state(16)
    for method in ("euler", "rk4"):
        with pytest.raises(BlowUpError, match="non-finite entries at 1 grid points") as e:
            step(st, FlowParams(2.0), 1e-3, method)
        assert e.value.state is st


def test_trajectory_states_carry_their_step_counts():
    traj = run(curved_state(16), FlowParams(2.0),
               Schedule(t_end=0.007, dt=1e-3, cadence=3, diagnostics=False), HOLD)
    # steps 0, 3, 6 on the cadence, and the last step, 7
    assert [s.step_count for s in traj.read["states"]] == [0, 3, 6, 7]
    assert traj.times == [s.t for s in traj.read["states"]]


def test_nonregular_warns():
    st = curved_state(16)
    with pytest.warns(RuntimeWarning):
        run(st, FlowParams(-1.0), Schedule(t_end=2e-3, dt=1e-3, diagnostics=False))


def test_rm_lp_monitor_under_bound():
    from rlab.flow import rm_lp_series
    from rlab.functionals import EstimateConstants, lp_curvature_bound
    st = curved_state(16)
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3, diagnostics=False),
               {"geo": lambda traj, geo: geo})
    series = rm_lp_series(traj.read["geo"], 3.0)
    assert len(series) == traj.nsnapshots and all(v >= 0 for _, v in series)
    assert [t for t, _ in series] == traj.times
    # with the observed sup-norm bounds as inputs the monitored shape covers
    # the recorded integrals (C_user calibrated at 1 suffices here)
    K = max(float(np.sqrt(np.max(norm_sq(f.ric, f.metric, 0, 2)))) for f in traj.read["geo"])
    consts = EstimateConstants(K=max(K, 0.1), L=1.0, P=1.0, rho=1.0, C_user=1.0)
    vol_pad = 40.0   # flat-ish T^2(2pi x 2pi) volume, padded
    bound = lp_curvature_bound(2, 3.0, consts, traj.times[-1], series[0][1], vol_pad)
    assert all(v <= bound for _, v in series)


def test_ricci_flow_min_scalar_nondecreasing():
    # u == 0 reduces to Ricci flow; min R obeys the scalar maximum principle
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    m = perturbed_flat_metric(g, {(0, 0): [{"amp": 0.12, "wave": [0, 1]}],
                                  (1, 1): [{"amp": 0.10, "wave": [1, 1]}],
                                  (0, 1): [{"amp": 0.05, "wave": [1, 0]}]})
    st = FlowState(g, m, np.zeros(g.shape))
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.05, dt=None, safety=0.5))
    assert np.all(np.array(traj.diagnostics["max_grad_u_sq"]) == 0.0)
    minR = np.array(traj.diagnostics["min_Sg"])   # equals min R when u == 0
    assert np.all(np.diff(minR) >= -1e-8 * max(1.0, abs(minR[0])))


@pytest.mark.parametrize("params", [FlowParams(2.0), FlowParams(1.0, 0.3, 0.5, -0.3)])
def test_run_shared_geometry_bitwise(params):
    # run() hands each accepted state's geometry to its diagnostics row and to
    # the next step's first stage; bare calls build their own and must agree
    st, dt = curved_state(16), 1e-3
    traj = run(st, params, Schedule(t_end=4 * dt, dt=dt), HOLD)
    s, cum = st, 0.0
    for k in range(traj.nsnapshots):
        if k:
            s = step(s, params, dt)
        row = _diagnose(_geometry(s, params), cum, dt if k else 0.0)
        cum = row["int_hess_sq_cum"]
        assert np.array_equal(traj.read["states"][k].metric.values, s.metric.values)
        assert np.array_equal(traj.read["states"][k].u, s.u)
        assert all(traj.diagnostics[c][k] == row[c] for c in DIAG_COLUMNS)


def test_readers_get_the_snapshot_geometry_at_the_flow_parameters():
    st, p = curved_state(16), FlowParams(1.0, 0.3, 0.5, -0.3)
    traj = run(st, p, Schedule(t_end=2e-3, dt=1e-3, diagnostics=False),
               {"geo": lambda traj, geo: (traj.last, geo)})
    assert len(traj.read["geo"]) == traj.nsnapshots == 3
    for k, (s, f) in enumerate(traj.read["geo"]):
        assert type(f) is Geometry and f.metric is s.metric and f.u is s.u
        assert (f.alpha1, f.beta1, f.beta2, f.t) == (p.alpha1, p.beta1, p.beta2,
                                                     traj.times[k])


def test_shared_geometry_saves_one_christoffel_per_state(monkeypatch):
    # Gamma and R_AB come from one pass over the first derivatives of g per
    # state (tensor._connection); the flow never builds Gamma alone
    import rlab.tensor as tensor
    calls = []
    real = tensor._connection
    monkeypatch.setattr(tensor, "_connection", lambda m: calls.append(m) or real(m))
    st, p, dt, nsteps = curved_state(16), FlowParams(2.0), 1e-3, 3
    run(st, p, Schedule(t_end=nsteps * dt, dt=dt))
    shared = len(calls)
    calls.clear()
    s = st
    _diagnose(_geometry(s, p), 0.0, 0.0)
    for _ in range(nsteps):
        s = step(s, p, dt)
        _diagnose(_geometry(s, p), 0.0, dt)
    # rk4 stages 2-4 plus one per accepted state, whose row and the first
    # stage of the step leaving it share a single evaluation
    assert shared == 4 * nsteps + 1
    assert len(calls) - shared == nsteps


def test_diagnose_curvature_norms_match_tensor_norms():
    # max_rm, int_rm_sq and int_sm_sq come from the bivector trace and the
    # expanded form; they must agree with norming the 4-tensors directly
    for n, res in ((2, 16), (3, 10), (4, 8)):
        _, m, u = random_instance(n, res, seed=21)
        cb = curvature(m)
        du = grad_stack(u, m.grid)
        rm_sq = norm_sq(rm4(cb), m, 0, 4)
        for a1 in (2.0, -0.7):
            row = _diagnose(_geometry(FlowState(m.grid, m, u), FlowParams(a1)), 0.0, 0.0)
            sm_sq = integrate(norm_sq(sm_tensor(rm4(cb), du, m.values, a1), m, 0, 4), m)
            assert abs(row["max_rm"] - np.sqrt(np.max(rm_sq))) <= 1e-13 * row["max_rm"]
            assert abs(row["int_rm_sq"] - integrate(rm_sq, m)) <= 1e-13 * row["int_rm_sq"]
            assert abs(row["int_sm_sq"] - sm_sq) <= 1e-12 * sm_sq, (n, a1)


@pytest.mark.parametrize("t_end, dt, nsteps", [(0.02, None, 4), (0.0105, 0.002, 6)])
def test_run_lands_on_t_end(t_end, dt, nsteps):
    # whole steps of dt, then one shortened step for the remainder
    grid, m, u = random_instance(3, 16, 1)
    traj = run(FlowState(grid, m, u), FlowParams(2.0), Schedule(t_end=t_end, dt=dt))
    assert abs(traj.times[-1] - t_end) <= 1e-12 and traj.last.t == traj.times[-1]
    assert traj.last.step_count == nsteps
    assert len(traj.diagnostics["t"]) == nsteps + 1
    # the last row adds int |Hess u|^2 times the step actually taken
    h = t_end - traj.times[-2]
    row = _diagnose(_geometry(traj.last, FlowParams(2.0)),
                    traj.diagnostics["int_hess_sq_cum"][-2], h)
    assert row["int_hess_sq_cum"] == traj.diagnostics["int_hess_sq_cum"][-1]


@pytest.mark.parametrize("t_end", [0.0, -0.01])
def test_run_rejects_a_nonpositive_t_end(t_end):
    with pytest.raises(ValueError, match="t_end must be positive"):
        run(flat_state(), FlowParams(2.0), Schedule(t_end=t_end, dt=1e-3))


@pytest.mark.parametrize("cadence, t_end, nsnap", [(1, 0.007, 8), (3, 0.007, 4),
                                                   (2, 0.0065, 5)])
def test_readers_read_every_snapshot_bitwise(cadence, t_end, nsnap):
    # each reader sees every recorded snapshot, of the planned count, with the
    # geometry its step built; reading changes no state, time or diagnostic,
    # and the trajectory holds its last state alone
    sched = Schedule(t_end=t_end, dt=1e-3, cadence=cadence)
    bare = run(curved_state(16), FlowParams(2.0), sched)
    traj = run(curved_state(16), FlowParams(2.0), sched,
               {"n": lambda traj, geo: traj.nsnap, "s": lambda traj, geo: (traj.last, geo),
                "none": lambda traj, geo: None})
    assert traj.read["n"] == [nsnap] * nsnap and "none" not in traj.read
    assert traj.times == bare.times and traj.diagnostics == bare.diagnostics
    assert [s.t for s, _ in traj.read["s"]] == traj.times
    assert all(geo.metric is s.metric for s, geo in traj.read["s"])
    assert traj.last is traj.read["s"][-1][0] and not hasattr(traj, "states")
    assert traj.last.step_count == bare.last.step_count
    assert np.array_equal(traj.last.metric.values, bare.last.metric.values)
    assert np.array_equal(traj.last.u, bare.last.u)


@pytest.mark.parametrize("cadence", [1, 2])
def test_run_holds_the_last_accepted_state_of_an_abort(cadence):
    # recorded once, and read only if it is a snapshot on the cadence
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = perturbed_flat_metric(g, {(0, 0): [{"amp": 0.8, "wave": [0, 1]}]})
    st = FlowState(g, m, np.zeros(g.shape))
    sched = Schedule(t_end=2.0, dt=0.5, cadence=cadence, diagnostics=False)
    traj = run(st, FlowParams(2.0), sched, HOLD)
    states = traj.read["states"]
    assert traj.aborted and traj.times[-1] == traj.last.t
    assert traj.nsnapshots == len(states) + (traj.last is not states[-1])
    assert traj.last.step_count % cadence == 0 or traj.last is not states[-1]
