import numpy as np
import pytest

from rlab.flow import (DIAG_COLUMNS, BlowUpError, FlowParams, FlowState, Schedule,
                       _diagnose, cfl_dt, flow_rhs, is_regular, run, step)
from rlab.instances import (perturbed_flat_metric, random_instance,
                            verification_initial_data)
from rlab.mesh import build_grid, flat_metric, grad_stack, integrate
from rlab.tensor import curvature, norm_sq, sm_tensor


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
    gdot, udot = flow_rhs(st, FlowParams(2.0))
    assert np.all(gdot == 0.0) and np.all(udot == 0.0)


def test_flow_rhs_flat_sin_expansion():
    # flat g, u = eps sin(x1): gdot_11 = 4 eps^2 cos^2, udot = -eps sin (O(h^2))
    g = build_grid("torus", 2, [64, 64], [2 * np.pi] * 2)
    eps = 0.1
    x = g.coords()[0]
    st = FlowState(g, flat_metric(g), eps * np.sin(x))
    gdot, udot = flow_rhs(st, FlowParams(2.0))
    h2 = max(g.spacing) ** 2
    assert np.max(np.abs(gdot[0, 0] - 4 * eps ** 2 * np.cos(x) ** 2)) < 5 * eps ** 2 * h2
    assert np.max(np.abs(udot + eps * np.sin(x))) < 5 * eps * h2
    assert np.max(np.abs(gdot[1, 1])) < 1e-14


def test_flow_rhs_reduces_to_ricci_flow():
    st = curved_state(16)
    st0 = FlowState(st.grid, st.metric, np.zeros(st.grid.shape))
    gdot, udot = flow_rhs(st0, FlowParams(2.0))
    cb = curvature(st0.metric)
    assert np.array_equal(gdot, -2.0 * cb.ric)
    assert np.all(udot == 0.0)


def test_reduction_exact_through_the_public_path(tmp_path):
    # b1 - a2 = 0.5 - 0.75 is exact in binary, so the reduced pair is equal
    from rlab.snapshots import read_checkpoint, write_checkpoint
    general, reduced = FlowParams(1.0, 0.75, 0.5, -0.3), FlowParams(1.0, 0.0, -0.25, -0.3)
    assert general == reduced
    st, dt = curved_state(16), 1e-3
    for a, b in zip(flow_rhs(st, general), flow_rhs(st, reduced)):
        assert np.array_equal(a, b)
    s1, s2 = step(st, general, dt), step(st, reduced, dt)
    assert np.array_equal(s1.metric.values, s2.metric.values)
    assert np.array_equal(s1.u, s2.u)
    sched = Schedule(t_end=3 * dt, dt=dt)
    t1, t2 = run(st, general, sched), run(st, reduced, sched)
    assert t1.nsnapshots == t2.nsnapshots == 4 and t1.params == t2.params
    for k in range(t1.nsnapshots):
        assert np.array_equal(t1.state(k).metric.values, t2.state(k).metric.values)
        assert np.array_equal(t1.state(k).u, t2.state(k).u)
    assert t1.diagnostics == t2.diagnostics
    write_checkpoint(tmp_path / "chk.rlab", st, general, sched)
    assert read_checkpoint(tmp_path / "chk.rlab")[1] == reduced


def test_cfl_dt():
    st = flat_state()
    h = st.grid.spacing[0]
    assert abs(cfl_dt(st, 1.0) - h * h / 8.0) < 1e-15
    st2 = flat_state(res=32)
    assert abs(cfl_dt(st2, 1.0) - cfl_dt(st, 1.0) / 4.0) < 1e-15
    with pytest.raises(ValueError):
        cfl_dt(st, 0.0)


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
    m5 = np.sqrt(np.max(norm_sq(curvature(st5.metric).rm4, st5.metric, 0, 4)))
    m10 = np.sqrt(np.max(norm_sq(curvature(st10.metric).rm4, st10.metric, 0, 4)))
    assert m5 > 1 and m10 > 1
    r = cfl_dt(st5, 1.0) / cfl_dt(st10, 1.0)
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
    dt = cfl_dt(st, 0.8)
    ref = st
    for _ in range(40):
        ref = step(ref, p, dt / 40.0, "rk4")
    e_euler = step(st, p, dt, "euler")
    e_rk4 = step(st, p, dt, "rk4")
    err_e = np.max(np.abs(e_euler.metric.values - ref.metric.values))
    err_r = np.max(np.abs(e_rk4.metric.values - ref.metric.values))
    assert err_e > 10.0 * err_r


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
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.05, dt=None, safety=0.5))
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
    for k in range(traj.nsnapshots):
        s = traj.state(k)
        cb = curvature(s.metric)
        du = grad_stack(s.u, s.grid)
        gsq = np.einsum("ij...,i...,j...->...", s.metric.inv, du, du)
        intS.append(integrate(cb.scalar - 2 * gsq, s.metric))
    intS = np.array(intS)
    h2dt2 = max(st.grid.spacing) ** 2 + traj.dt ** 2
    assert np.max(np.abs(dvol + intS[1:-1])) < 0.05 * h2dt2


def test_run_determinism_bitwise():
    t1 = run(curved_state(16), FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3))
    t2 = run(curved_state(16), FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3))
    for k in range(t1.nsnapshots):
        assert np.array_equal(t1.state(k).metric.values, t2.state(k).metric.values)
        assert np.array_equal(t1.state(k).u, t2.state(k).u)


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

    def rhs(state, params, geo=None):
        udot = np.full(state.grid.shape, np.inf if state.t >= 4.5e-3 else 0.0)
        return np.zeros_like(state.metric.values), udot

    monkeypatch.setattr(flow, "flow_rhs", rhs)
    for diagnostics in (False, True):
        traj = run(curved_state(16), FlowParams(2.0),
                   Schedule(t_end=0.01, dt=2e-3, diagnostics=diagnostics))
        assert traj.aborted is not None
        assert "potential u not finite" in traj.aborted and "t=0.006" in traj.aborted
        assert traj.times == pytest.approx([0.0, 0.002, 0.004])
        assert all(np.all(np.isfinite(s.u)) for s in traj.states)


@pytest.mark.parametrize("bad, entry", [(np.nan, (0, 0)), (np.inf, (0, 0)), (np.inf, (0, 1))],
                         ids=["nan", "inf", "inf-g01"])
def test_non_finite_metric_step_raises_blowup(monkeypatch, bad, entry):
    # every stage metric passes the one SPD rule, which names the non-finite
    # entries: an off-diagonal inf makes det -inf, not a "non-positive" det
    import rlab.flow as flow

    def rhs(state, params, geo=None):
        gdot = np.zeros_like(state.metric.values)
        gdot[entry + (2, 3)] = bad
        return gdot, np.zeros(state.grid.shape)

    monkeypatch.setattr(flow, "flow_rhs", rhs)
    st = curved_state(16)
    for method in ("euler", "rk4"):
        with pytest.raises(BlowUpError, match="non-finite entries at 1 grid points") as e:
            step(st, FlowParams(2.0), 1e-3, method)
        assert e.value.state is st


def test_trajectory_states_carry_their_step_counts():
    traj = run(curved_state(16), FlowParams(2.0),
               Schedule(t_end=0.007, dt=1e-3, cadence=3, diagnostics=False))
    # steps 0, 3, 6 on the cadence, and the last step, 7
    assert [traj.state(k).step_count for k in range(traj.nsnapshots)] == [0, 3, 6, 7]
    assert traj.times == [traj.state(k).t for k in range(traj.nsnapshots)]


def test_nonregular_warns():
    st = curved_state(16)
    with pytest.warns(RuntimeWarning):
        run(st, FlowParams(-1.0), Schedule(t_end=2e-3, dt=1e-3, diagnostics=False))


def test_rm_lp_monitor_under_bound():
    from rlab.flow import rm_lp_series
    from rlab.functionals import EstimateConstants, lp_curvature_bound
    st = curved_state(16)
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3, diagnostics=False))
    series = rm_lp_series(traj, 3.0)
    assert len(series) == traj.nsnapshots and all(v >= 0 for _, v in series)
    # with the observed sup-norm bounds as inputs the monitored shape covers
    # the recorded integrals (C_user calibrated at 1 suffices here)
    from rlab.tensor import curvature as _curv, norm_sq as _nsq
    K = max(float(np.sqrt(np.max(_nsq(_curv(traj.state(k).metric).ric,
                                      traj.state(k).metric, 0, 2))))
            for k in range(traj.nsnapshots))
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
    traj = run(st, params, Schedule(t_end=4 * dt, dt=dt))
    s, cum = st, 0.0
    for k in range(traj.nsnapshots):
        if k:
            s = step(s, params, dt)
        row = _diagnose(s, params, cum, dt if k else 0.0)
        cum = row["int_hess_sq_cum"]
        assert np.array_equal(traj.state(k).metric.values, s.metric.values)
        assert np.array_equal(traj.state(k).u, s.u)
        assert all(traj.diagnostics[c][k] == row[c] for c in DIAG_COLUMNS)


def test_shared_geometry_saves_one_christoffel_per_state(monkeypatch):
    # Gamma and R_AB come from one pass over the first derivatives of g per
    # state (tensor._connection); the flow never builds Gamma alone
    import rlab.tensor as tensor
    calls = []
    real = tensor._connection
    monkeypatch.setattr(tensor, "_connection", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(tensor, "christoffel", lambda m: pytest.fail("christoffel"))
    st, p, dt, nsteps = curved_state(16), FlowParams(2.0), 1e-3, 3
    run(st, p, Schedule(t_end=nsteps * dt, dt=dt))
    shared = len(calls)
    calls.clear()
    s = st
    _diagnose(s, p, 0.0, 0.0)
    for _ in range(nsteps):
        s = step(s, p, dt)
        _diagnose(s, p, 0.0, dt)
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
        rm_sq = norm_sq(cb.rm4, m, 0, 4)
        for a1 in (2.0, -0.7):
            row = _diagnose(FlowState(m.grid, m, u), FlowParams(a1), 0.0, 0.0)
            sm_sq = integrate(norm_sq(sm_tensor(cb.rm4, du, m.values, a1), m, 0, 4), m)
            assert abs(row["max_rm"] - np.sqrt(np.max(rm_sq))) <= 1e-13 * row["max_rm"]
            assert abs(row["int_rm_sq"] - integrate(rm_sq, m)) <= 1e-13 * row["int_rm_sq"]
            assert abs(row["int_sm_sq"] - sm_sq) <= 1e-12 * sm_sq, (n, a1)


@pytest.mark.parametrize("t_end, dt, nsteps", [(0.02, None, 4), (0.0105, 0.002, 6)])
def test_run_lands_on_t_end(t_end, dt, nsteps):
    # whole steps of dt, then one shortened step for the remainder
    grid, m, u = random_instance(3, 16, 1)
    traj = run(FlowState(grid, m, u), FlowParams(2.0), Schedule(t_end=t_end, dt=dt))
    assert abs(traj.times[-1] - t_end) <= 1e-12
    assert traj.state(traj.nsnapshots - 1).step_count == nsteps
    assert len(traj.diagnostics["t"]) == nsteps + 1
    # the last row adds int |Hess u|^2 times the step actually taken
    last = traj.state(traj.nsnapshots - 1)
    h = t_end - traj.times[-2]
    row = _diagnose(last, FlowParams(2.0),
                    traj.diagnostics["int_hess_sq_cum"][-2], h)
    assert row["int_hess_sq_cum"] == traj.diagnostics["int_hess_sq_cum"][-1]


@pytest.mark.parametrize("t_end", [0.0, -0.01])
def test_run_rejects_a_nonpositive_t_end(t_end):
    with pytest.raises(ValueError, match="t_end must be positive"):
        run(flat_state(), FlowParams(2.0), Schedule(t_end=t_end, dt=1e-3))
