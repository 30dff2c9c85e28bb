import numpy as np
import pytest

from conftest import HOLD, RHF, eval_index, evaluate, frames, make_verification_run
from rlab.flow import FlowParams, FlowState, Schedule, run
from rlab.identities import (APPENDIX_A_IDS, APPENDIX_C_IDS, LEMMA31_IDS,
                             REGISTRY, Identity, ResidualReport,
                             converges, refinement_order,
                             residual_field, verify_lemma_52, with_order)
from rlab.instances import random_instance, verification_initial_data
from rlab.mesh import MetricField, build_grid, flat_metric, grad_stack
from rlab.tensor import norm_sq


def test_flat_stationary_residuals_zero(manifest):
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    st = FlowState(g, flat_metric(g), np.zeros(g.shape))
    traj = run(st, RHF, Schedule(t_end=0.01, dt=2e-3, diagnostics=False), HOLD)
    for ident in APPENDIX_A_IDS:
        rep = evaluate(traj, ident, 2)
        assert rep.max_res < 1e-12, rep.identity


def test_registry_orders_two_levels(rhf_runs, general_runs, manifest):
    # order on the 16 -> 32 pair for every box identity; the full three-level
    # study lives in the acceptance suite
    for ident in APPENDIX_A_IDS + ("A.12", "A.13"):
        seq = [evaluate(rhf_runs[r], ident, eval_index(rhf_runs[r]))
               for r in (16, 32)]
        ratio = seq[0].max_res / max(seq[1].max_res, 1e-300)
        assert ratio > 2.8 or seq[1].max_res < 1e-10, (ident, ratio)
    for ident in APPENDIX_C_IDS + LEMMA31_IDS:
        seq = [evaluate(general_runs[r], ident, eval_index(general_runs[r]))
               for r in (16, 32)]
        ratio = seq[0].max_res / max(seq[1].max_res, 1e-300)
        assert ratio > 2.8, (ident, ratio)


def test_residual_thresholds_from_manifest(rhf_runs, general_runs, manifest):
    # max-residual <= C_id (h^2 + dt^2), C_id frozen on the 16-grid baseline
    for runs, ids in ((rhf_runs, APPENDIX_A_IDS + ("A.12", "A.13")),
                      (general_runs, APPENDIX_C_IDS + LEMMA31_IDS)):
        for res in (16, 32):
            traj = runs[res]
            bound = manifest["c_id"]
            h2dt2 = max(traj.last.grid.spacing) ** 2 + traj.dt ** 2
            for ident in ids:
                rep = evaluate(traj, ident, eval_index(traj))
                assert rep.max_res <= bound[ident] * h2dt2 * 1.01, ident


def test_negative_controls_box(rhf_runs, general_runs):
    # flipped RHS destroys convergence: residual stays O(1) relative to truth
    for runs, ids in ((rhf_runs, APPENDIX_A_IDS + ("A.12", "A.13")),
                      (general_runs, APPENDIX_C_IDS + LEMMA31_IDS)):
        for ident in ids:
            good = [evaluate(runs[r], ident, eval_index(runs[r]))
                    for r in (16, 32)]
            bad = [evaluate(runs[r], ident, eval_index(runs[r]),
                                     mutate=True) for r in (16, 32)]
            assert bad[1].max_res > 5.0 * good[1].max_res, ident
            ratio = bad[0].max_res / bad[1].max_res
            assert ratio < 2.0, (ident, ratio)  # non-convergent


def test_a11_norm_bound(rhf_runs, manifest):
    traj = rhf_runs[16]
    rep = evaluate(traj, "A.11", eval_index(traj),
                            c_id=manifest["c_id"]["A.11"])
    assert rep.max_res <= rep.bound
    rep2 = evaluate(traj, "A.11", eval_index(traj),
                             c_id=manifest["c_id"]["A.11"] * 1e-3)
    assert rep2.max_res > rep2.bound  # negative control


def test_c_identities_coincide_with_a_at_rhf(rhf_runs):
    # C.6 is A.8 and 3.11 is A.9 at (2,0,0,0): identical residuals bitwise
    traj = rhf_runs[16]
    k = eval_index(traj)
    window = frames(traj, k)
    a8, _, _, f0 = residual_field(REGISTRY["A.8"], window)
    c6, _, _, _ = residual_field(REGISTRY["C.6"], window)
    assert np.array_equal(a8, c6)
    a9 = residual_field(REGISTRY["A.9"], window)[0]
    l311 = residual_field(REGISTRY["3.11"], window)[0]
    assert np.array_equal(a9, l311)


def test_hessian_identity_builds_grad3_u_only_when_b1_is_not_zero(rhf_runs, general_runs):
    # the b1 terms of the Hessian's evolution read nabla^3 u; at b1 = 0 they
    # vanish and are skipped, so A.5 leaves no d3u on the middle geometry,
    # while C.7 at b1 = 0.5 still forms it
    for runs, ident, formed in ((rhf_runs, "A.5", False), (general_runs, "C.7", True)):
        window = frames(runs[16], eval_index(runs[16]))
        residual_field(REGISTRY[ident], window)
        assert ("d3u" in vars(window[1])) is formed, ident


def test_u_zero_reduces_to_ricci_flow_identities():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, _ = verification_initial_data(g)
    st = FlowState(g, m, np.zeros(g.shape))
    traj = run(st, FlowParams(2.0), Schedule(t_end=0.01, dt=1e-3, diagnostics=False),
               HOLD)
    k = 5
    # u-dependent quantities vanish exactly along the run
    for ident in ("A.4", "A.8"):
        assert evaluate(traj, ident, k).max_res < 1e-13
    # remaining identities still close
    for ident in ("A.2", "A.6", "A.7"):
        assert evaluate(traj, ident, k).max_res < 0.2


def test_rejects_wrong_params_for_a_family(general_runs):
    with pytest.raises(ValueError):
        evaluate(general_runs[16], "A.2", 3)


def test_rejects_boundary_snapshot(rhf_runs):
    # the first and the last snapshot lack a time neighbour: a window of two
    # snapshots has no middle one to evaluate
    from rlab.identities import evaluate_identity
    traj = rhf_runs[16]
    for edge in (frames(traj, 1)[:2], frames(traj, traj.nsnapshots - 2)[1:]):
        with pytest.raises(ValueError, match="not enough values to unpack"):
            evaluate_identity(edge, "A.8", traj.dt)


def test_pair_identity_rejects_times_that_differ_next_to_k():
    # whole steps of 2e-3 agree through snapshot 5; snapshot 6 is the shortened
    # step onto 0.0105 in one trajectory and onto 0.011 in the other
    t1 = make_verification_run(16, 2e-3, RHF, t_end=0.0105)
    t2 = make_verification_run(16, 2e-3, RHF, t_end=0.011)
    assert t1.times[5] == t2.times[5] and t1.times[6] != t2.times[6]
    with pytest.raises(ValueError, match="snapshot times"):
        evaluate(t1, "6.50", 5, other=t2)


def test_residual_translation_invariance():
    # rolling the initial data along the torus leaves residual norms unchanged
    def rolled(shift):
        g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
        m, u0 = verification_initial_data(g)
        vals = np.roll(m.values, shift, axis=-1)
        st = FlowState(g, MetricField(g, vals), np.roll(u0, shift, axis=-1))
        return run(st, RHF, Schedule(t_end=0.008, dt=2e-3, diagnostics=False), HOLD)

    t0, t1 = rolled(0), rolled(5)
    r0 = [evaluate(t0, i, 2) for i in ("A.2", "A.8")]
    r1 = [evaluate(t1, i, 2) for i in ("A.2", "A.8")]
    for a, b in zip(r0, r1):
        assert abs(a.max_res - b.max_res) < 1e-11 * max(a.max_res, 1e-30)
        assert abs(a.l2_res - b.l2_res) < 1e-11 * max(a.l2_res, 1e-30)


def test_time_derivative_second_order_next_to_a_shortened_step():
    # t_end = 5.5 dt ends on a half step; A.10 is exact in space, so its
    # residual at the snapshot before that step is the d/dt error alone, and
    # it must fall as dt^2 (a centered difference would fall as dt)
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    res = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = run(FlowState(g, m, u0), RHF,
                   Schedule(t_end=5.5 * dt, dt=dt, diagnostics=False), HOLD)
        k = traj.nsnapshots - 2
        assert traj.times[k + 1] - traj.times[k] < 0.6 * dt
        res.append(evaluate(traj, "A.10", k).max_res)
    assert res[0] / res[1] > 3.0 and res[1] / res[2] > 3.0, res


def test_uneven_spacing_forms_the_middle_quantity_once(monkeypatch):
    # next to a shortened step, an identity with a Laplacian reads its quantity
    # once per snapshot, and its residual is the second-order difference, less
    # the right side and the rough Laplacian of that one middle value
    import rlab.identities as ids
    from rlab.tensor import rough_laplacian
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    traj = run(FlowState(g, m, u0), RHF, Schedule(t_end=0.011, dt=2e-3, diagnostics=False),
               HOLD)
    k = traj.nsnapshots - 2
    fm, f0, fp = window = frames(traj, k)
    hm, hp = f0.t - fm.t, fp.t - f0.t
    assert hp < 0.6 * hm
    calls = []
    dudu = ids.QUANTITIES["dudu"]
    monkeypatch.setitem(ids.QUANTITIES, "counted", lambda f: calls.append(f) or dudu(f))
    c8 = REGISTRY["C.8"]
    res = residual_field(Identity("counted", "counted", c8.rhs), window)[0]
    assert [id(f) for f in calls] == [id(fm), id(fp), id(f0)]
    q = [dudu(f)[0] for f in window]
    ref = ((hm * hm * q[2] - hp * hp * q[0] + (hp * hp - hm * hm) * q[1])
           / (hm * hp * (hm + hp))) - c8.rhs(f0)
    ref = ref - rough_laplacian(q[1], g, f0.gamma, f0.metric, 0, 2)
    assert np.array_equal(res, ref)


def test_residual_field_public_api(rhf_runs):
    # a user-supplied RHS for a registered quantity: the gradient-squared identity
    traj = rhf_runs[16]
    k = eval_index(traj)

    def rhs(frame):
        return (-2.0 * norm_sq(frame.hess, frame.metric, 0, 2)
                - 4.0 * frame.grad_sq ** 2)

    res = residual_field(Identity("user", "grad_sq", rhs), frames(traj, k))[0]
    rep = evaluate(traj, "A.8", k)
    assert abs(float(np.max(np.abs(res))) - rep.max_res) < 1e-12


def test_verify_lemma_52_const_u_exact():
    grid, m, _ = random_instance(3, 12, seed=101)
    for rep in verify_lemma_52(m, np.zeros(grid.shape)):
        assert rep.max_res == 0.0, rep.identity


def test_lemma52_negative_controls():
    from rlab.identities import lemma52_defects
    grid, m, u = random_instance(3, 12, seed=103)
    defects = lemma52_defects(m, u)
    # a deliberate sign flip of one formula term produces an O(1) defect
    from rlab.tensor import curvature, hessian
    gamma = curvature(m).gamma
    H = hessian(u, grid, gamma[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]],
                grad_stack(u, grid))
    g = m.values
    wrong = defects["5.7"] + 2.0 * np.einsum("jk...,il...->ijkl...", H, g)
    good_norm = np.max(np.abs(defects["5.7"]))
    assert np.max(np.abs(wrong)) > 10.0 * good_norm


def test_reports_serialize():
    levels = []
    for res in (8, 12, 16):
        grid, m, u = random_instance(3, res, seed=102)
        levels.append(verify_lemma_52(m, u))
    d = levels[0][0].to_dict()
    assert set(d) == {"identity", "t", "h", "dt", "max_res", "l2_res"}
    ordered = with_order(levels)
    assert ordered[0].order is not None
    assert "order" in ordered[0].to_dict()


def test_refinement_order_requires_three():
    grid, m, u = random_instance(3, 8, seed=102)
    reps = verify_lemma_52(m, u)[:1]
    with pytest.raises(ValueError):
        refinement_order([reps[0], reps[0]])


# --------------------------------------------------------------------------
# pair identities

@pytest.fixture(scope="module")
def trajectory_pair():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    pm = m.values.copy()
    pm[0, 0] = pm[0, 0] + 1e-3 * np.sin(g.coords()[1])
    sched = Schedule(t_end=0.016, dt=2e-3, diagnostics=False)
    t1 = run(FlowState(g, m, u0), RHF, sched, HOLD)
    t2 = run(FlowState(g, MetricField(g, pm), u0), RHF, sched, HOLD)
    return t1, t2


def test_pair_identities(trajectory_pair, manifest):
    t1, t2 = trajectory_pair
    h2dt2 = max(t1.last.grid.spacing) ** 2 + t1.dt ** 2
    for ident in ("6.50", "6.51"):
        rep = evaluate(t1, ident, 6, other=t2)
        assert rep.max_res <= manifest["c_id"][ident] * h2dt2 * 1.01, ident
        bad = evaluate(t1, ident, 6, other=t2, mutate=True)
        assert bad.max_res > 5.0 * max(rep.max_res, 1e-30), ident
    rep = evaluate(t1, "6.53", 6, other=t2, c_id=manifest["c_id"]["6.53"])
    assert 0 < rep.max_res <= rep.bound
    rep2 = evaluate(t1, "6.53", 6, other=t2,
                             c_id=manifest["c_id"]["6.53"], mutate=True)
    assert rep2.max_res > rep2.bound


def test_evaluator_dispatches_on_pair_and_bound_entries(trajectory_pair):
    t1, t2 = trajectory_pair
    for ident in ("6.50", "6.51", "6.53"):
        with pytest.raises(ValueError, match="reads the DiffBundles"):
            evaluate(t1, ident, 6)
    with pytest.raises(ValueError, match="reads the Geometries"):
        evaluate(t1, "A.8", 6, other=t2)
    # a bound entry reports c_id times its bound, shrunk 1000-fold by mutate
    a11 = evaluate(t1, "A.11", 6, c_id=2.0)
    assert a11.bound > 0 and a11.to_dict()["bound"] == a11.bound
    shrunk = evaluate(t1, "A.11", 6, c_id=2.0, mutate=True)
    assert shrunk.bound == pytest.approx(1e-3 * a11.bound, rel=1e-12)
    assert shrunk.max_res == a11.max_res
    assert evaluate(t1, "6.53", 6, other=t2).bound > 0
    # an equality entry carries no bound and writes none
    a8 = evaluate(t1, "A.8", 6)
    assert a8.bound is None and "bound" not in a8.to_dict()
    assert evaluate(t1, "6.50", 6, other=t2).bound is None


def test_converges_is_a_floor_with_a_two_level_ratio():
    def family(hs, res):
        return [ResidualReport("x", 0.0, h, 0.0, r, r) for h, r in zip(hs, res)]

    hs = (0.4, 0.2, 0.1)
    assert converges(family(hs, [h ** 2 for h in hs]))
    assert converges(family(hs, [h ** 3.9 for h in hs]))      # faster is fine
    assert not converges(family(hs, [h ** 1.5 for h in hs]))
    assert not converges(family(hs, [0.5, 0.5, 0.5]))          # a negative control
    assert converges(family(hs, [1e-12, 3e-12, 1e-13]))        # exact to rounding
    # two levels: the decrease ratio against (h0/h1)^1.7 = 3.25
    assert converges(family(hs[:2], [4.0, 1.0]))
    assert not converges(family(hs[:2], [3.0, 1.0]))
    # one level: only an exact one converges
    assert not converges(family(hs[:1], [1.0]))
    assert converges(family(hs[:1], [1e-12]))
    # with_order attaches an order from three levels and none below
    three = with_order([[r] for r in family(hs, [h ** 2 for h in hs])])
    assert abs(three[0].order - 2.0) < 1e-12 and three[0].h == 0.1
    assert with_order([[r] for r in family(hs[:2], [4.0, 1.0])])[0].order is None


def test_pair_rejects_mismatch(trajectory_pair):
    t1, _ = trajectory_pair
    g = build_grid("torus", 2, [24, 24], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    other = run(FlowState(g, m, u0), RHF,
                Schedule(t_end=0.004, dt=2e-3, diagnostics=False), HOLD)
    with pytest.raises(ValueError):
        evaluate(t1, "6.50", 1, other=other)


def test_a4_a8_magnitudes_comparable(rhf_runs):
    # the two gradient-coupled identities see the same run; their residual
    # scales should sit within an order of magnitude of each other
    traj = rhf_runs[32]
    k = eval_index(traj)
    a4 = evaluate(traj, "A.4", k).max_res
    a8 = evaluate(traj, "A.8", k).max_res
    assert a8 / 10.0 <= a4 <= a8 * 10.0
