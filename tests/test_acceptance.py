"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Thresholds are stated inline and pinned; nothing is
calibrated at run time except through the frozen tests/manifest.json.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from conftest import (HOLD, LEVELS, RHF, bundle, bundles, eval_index, evaluate,
                      make_verification_run, run_cli)
from oracles import sm, unpack_riemann
from rlab.comparison import (killing_report, ricci_order, scalar_order,
                             weighted_divergence_integral)
from rlab.flow import FlowState, Schedule, run
from rlab.functionals import (OptimizerOpts, gbc_defect, mu_minimize,
                              mu_upper_bound)
from rlab.identities import (APPENDIX_A_IDS, APPENDIX_C_IDS, LEMMA31_IDS,
                             LEMMA52_IDS, converges,
                             lemma52_defects, refinement_order,
                             verify_lemma_52)
from rlab.instances import (conformal_metric, euclidean_chart,
                            perturbed_flat_metric, product_metric,
                            radial_potential, random_instance,
                            stereographic_sphere_chart,
                            verification_initial_data)
from rlab.mesh import MetricField, build_grid, flat_metric, grad_stack, integrate, interior
from rlab.tensor import Geometry, curvature, norm_sq
from rlab.uniqueness import energy, energy_trace, gronwall_fit

ORDER_LO, ORDER_HI = 1.7, 2.3
EXACT_LEVEL = 1e-12


def report(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_registry_convergence(manifest):
    t0 = time.time()
    runs = {res: make_verification_run(res, dt, RHF) for res, dt in LEVELS}
    ids = APPENDIX_A_IDS + APPENDIX_C_IDS + LEMMA31_IDS
    orders, bad = {}, {}
    for ident in ids:
        seq = [evaluate(runs[r], ident, eval_index(runs[r]))
               for r, _ in LEVELS]
        if all(r.max_res <= EXACT_LEVEL for r in seq):
            orders[ident] = "exact"
            continue
        order = refinement_order(seq)
        orders[ident] = order
        # second-order is the floor (``converges``); an identity may converge
        # faster (the volume-form identity is exact in space and rides the
        # dt^2 term) provided it stays under its frozen residual threshold
        within_thr = all(r.max_res <= manifest["c_id"][ident]
                         * (r.h ** 2 + r.dt ** 2) * 1.01 for r in seq)
        if not (converges(seq) and (order <= ORDER_HI or within_thr)):
            bad[ident] = round(order, 2)
    elapsed = time.time() - t0
    ok = not bad and elapsed <= 300.0
    omin = min(o for o in orders.values() if o != "exact")
    omax = max(o for o in orders.values() if o != "exact")
    report(1, ok, f"{len(ids)} identities, measured orders in "
                  f"[{omin:.2f}, {omax:.2f}] on 16/32/64 "
                  f"(floor 1.7, band [1.7, 2.3]), {elapsed:.1f}s <= 300s"
                  + (f"; below band: {bad}" if bad else ""))


def test_criterion_2_static_identity_suite(manifest):
    t0 = time.time()
    worst = {i: [] for i in LEMMA52_IDS}
    for seed in manifest["seeds"]["lemma52"]:
        levels = []
        for res in (8, 12, 16):
            grid, m, u = random_instance(3, res, seed)
            levels.append({r.identity: r for r in verify_lemma_52(m, u)})
        for ident in LEMMA52_IDS:
            seq = [levels[k][ident] for k in range(3)]
            if all(r.max_res <= EXACT_LEVEL for r in seq):
                worst[ident].append("exact")
            else:
                worst[ident].append(refinement_order(seq))
    elapsed = time.time() - t0
    bad = {}
    for ident, vals in worst.items():
        for v in vals:
            if v != "exact" and not ORDER_LO <= v <= ORDER_HI:
                bad.setdefault(ident, []).append(round(v, 2))
    ok = not bad and elapsed <= 60.0
    n_exact = sum(1 for v in worst.values() if v[0] == "exact")
    report(2, ok, f"nine identities x 10 seeded T^3 instances; "
                  f"{n_exact} exact to rounding, the rest at order 2 "
                  f"(band [1.7, 2.3]); {elapsed:.1f}s <= 60s"
                  + (f"; out of band: {bad}" if bad else ""))


def test_criterion_3_monotonicity_and_volume():
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    traj = run(FlowState(g, m, u0), RHF, Schedule(t_end=0.05, dt=None, safety=0.5), HOLD)
    mg = np.array(traj.diagnostics["max_grad_u_sq"])
    ms = np.array(traj.diagnostics["min_Sg"])
    slack = 1e-8 * max(1.0, mg[0])
    mono_g = bool(np.all(np.diff(mg) <= slack))
    mono_s = bool(np.all(np.diff(ms) >= -slack))
    vol = np.array(traj.diagnostics["vol"])
    t = np.array(traj.diagnostics["t"])
    dvol = np.gradient(vol, t)[1:-1]     # second order also at the shortened last step
    intS = []
    for s in traj.read["states"]:
        cb = curvature(s.metric)
        du = grad_stack(s.u, g)
        gsq = np.einsum("ij...,i...,j...->...", s.metric.inv, du, du)
        intS.append(integrate(cb.scalar - 2.0 * gsq, s.metric))
    vres = float(np.max(np.abs(dvol + np.array(intS)[1:-1])))
    vtol = 0.05 * (max(g.spacing) ** 2 + traj.dt ** 2)
    ok = mono_g and mono_s and vres <= vtol
    report(3, ok, f"max|grad u|^2 nonincreasing ({mono_g}), "
                  f"min(R-2|grad u|^2) nondecreasing ({mono_s}) at 1e-8 slack; "
                  f"volume identity residual {vres:.2e} <= {vtol:.2e}")


def test_criterion_4_entropy(manifest):
    # tau stays in a grid-resolved regime (minimizer width well above h);
    # successive samples warm-start from the previous minimizer
    opts = OptimizerOpts(tol=1e-10, max_iter=10_000, nseeds=5)
    tau0 = 1.0
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    traj = run(FlowState(g, m, u0), RHF,
               Schedule(t_end=0.2, dt=2e-3, diagnostics=False), HOLD)
    idxs = np.linspace(0, traj.nsnapshots - 1, 11).astype(int)
    mus, prev = [], None
    for k in idxs:
        s = traj.read["states"][k]
        rep = mu_minimize(Geometry(s.metric, s.u), tau0 - s.t, opts, warm_start=prev)
        mus.append(rep.mu)
        prev = rep.w
    mono = bool(np.all(np.diff(np.array(mus)) >= -3e-6))
    grid, mm, uu = random_instance(2, 16, seed=manifest["seeds"]["entropy"][0])
    tau = 1.4
    r1 = mu_minimize(Geometry(mm, uu), 1.0, opts)
    r2 = mu_minimize(Geometry(mm.scaled(tau), uu), tau, opts)
    scaling = abs(r1.mu - r2.mu) <= 2e-6
    violations = 0
    for seed in manifest["seeds"]["entropy"]:
        grid, mi, ui = random_instance(2, 12, seed)
        ti = 0.8 + (seed % 7) * 0.2
        rep = mu_minimize(Geometry(mi, ui), ti,
                          OptimizerOpts(tol=1e-9, max_iter=4000, nseeds=3))
        if rep.mu > mu_upper_bound(mi, ui, ti) + 1e-6:
            violations += 1
    ok = mono and scaling and violations == 0
    report(4, ok, f"mu nondecreasing over {len(idxs)} sample times "
                  f"(min step {np.min(np.diff(mus)):+.2e} >= -3e-6: {mono}); "
                  f"scaling gap {abs(r1.mu - r2.mu):.2e} <= 2e-6; "
                  f"bound violations {violations}/20")


def test_criterion_5_curvature_oracles():
    grid, m = stereographic_sphere_chart(res=128, extent=2.0)  # h = 1/64
    err_sphere = float(np.max(np.abs(interior(curvature(m).scalar, grid, 3) - 2.0)))
    g4 = build_grid("torus", 4, [8] * 4, [2 * np.pi] * 4)
    xs = g4.coords()
    phi = 0.05 * np.sin(xs[0] + 2 * xs[1]) + 0.04 * np.cos(xs[1] - xs[2] + xs[3])
    mc = conformal_metric(g4, phi)
    err_weyl = float(np.sqrt(np.max(norm_sq(unpack_riemann(curvature(mc).weyl, 4), mc, 0, 4))))
    gch, mch = euclidean_chart(2, 192, 3.0)   # h = 1/64, matching the sphere
    u, _ = radial_potential(gch, lambda r: 0.2 * r + 0.05 * r ** 2)
    wb = cpl = Geometry(mch, u, 2.0)
    from rlab.comparison import example512
    xs = gch.coords()
    rng = np.random.default_rng(1)
    err_512 = 0.0
    for _ in range(6):
        idx = tuple(rng.integers(40, 152, size=2))
        pt = np.array([xs[0][idx], xs[1][idx]])
        X, Y = rng.standard_normal(2), rng.standard_normal(2)
        cf = example512("custom", pt, X, Y, phi_prime=lambda r: 0.2 + 0.1 * r,
                        phi_second=lambda r: 0.1)
        nw = np.einsum("ijkl,i,j,k,l->", wb.rm_wy[(...,) + idx], X, Y, Y, X)
        nl = np.einsum("ijkl,i,j,k,l->", sm(cpl)[(...,) + idx], X, Y, Y, X)
        err_512 = max(err_512, abs(nw - cf["rm_wy"]), abs(nl - cf["rm_l"]))
    ok = err_sphere <= 1e-3 and err_weyl <= 1e-3 and err_512 <= 1e-3
    report(5, ok, f"round-sphere R=2 within {err_sphere:.2e} at h=1/64; "
                  f"conformally-flat n=4 |W| = {err_weyl:.2e}; "
                  f"radial-example closed forms within {err_512:.2e} "
                  f"(all <= 1e-3)")


def test_criterion_6_comparison_suite(manifest):
    margins_ok = True
    div_ok = True
    for seed in manifest["seeds"]["comparison"]:
        grid, m, u = random_instance(2, 12, seed)
        geo = Geometry(m, u)
        v1 = scalar_order(geo, "RL_vs_R")
        v2 = scalar_order(geo, "R_vs_RWY")
        v3 = scalar_order(geo, "R_eq_RWY_e^u")
        margins_ok &= v1.margin >= 0 and v2.margin >= -v2.tolerance
        margins_ok &= abs(v3.margin) <= v3.tolerance
        div_ok &= abs(weighted_divergence_integral(m, u)) <= 1e-10
    g3 = build_grid("torus", 3, [16] * 3, [2 * np.pi] * 3)
    m3 = product_metric(g3, [1.3,
                             lambda xs: (1.5 + 0.3 * np.sin(xs[2])) ** 2,
                             lambda xs: 1.0 + 0.2 * np.cos(xs[2])])
    X = np.zeros((3,) + g3.shape)
    X[0] = 1.0
    rep = killing_report(m3, X)
    xs = g3.coords()
    u3 = 0.3 * np.sin(xs[0]) + 0.2 * np.cos(xs[2])
    kc_ok = rep.is_killing and rep.constant_norm
    worst = np.inf
    scale = integrate(np.ones(g3.shape), m3)
    for variant in ("L_vs_Ric", "Ric_vs_WY", "Ric_vs_WYhat"):
        for weight in (("volume",) if variant == "L_vs_Ric" else ("volume", "e^f~")):
            v = ricci_order(m3, u3, X, variant, weight)
            worst = min(worst, v.margin)
    kc_ok &= worst >= -1e-6 * scale
    ok = margins_ok and div_ok and kc_ok
    report(6, ok, f"scalar orderings hold on 20 instances ({margins_ok}); "
                  f"weighted divergence at quadrature zero ({div_ok}); "
                  f"Killing-restricted margins >= {worst:.3e} "
                  f">= -1e-6 x volume ({kc_ok})")


def test_criterion_7_gbc_defect():
    g8 = build_grid("torus", 4, [8] * 4, [2 * np.pi] * 4)
    flat8 = flat_metric(g8)
    d_flat = abs(gbc_defect(flat8, 0.0))
    comp = {(0, 0): [{"amp": 0.08, "wave": [0, 1, 0, 0]}],
            (1, 1): [{"amp": 0.06, "wave": [0, 0, 1, 0], "kind": "cos"}],
            (2, 3): [{"amp": 0.04, "wave": [1, 0, 0, 0]}]}
    m8 = perturbed_flat_metric(g8, comp)
    d8 = gbc_defect(m8, 0.0)
    pert = m8.values.copy()
    for i in range(4):
        pert[i, i] -= 1.0
    pnorm = integrate(np.einsum("ij...,ij...->...", pert, pert), m8)
    g12 = build_grid("torus", 4, [12] * 4, [2 * np.pi] * 4)
    d12 = gbc_defect(perturbed_flat_metric(g12, comp), 0.0)
    ok = d_flat <= 1e-10 and abs(d8) <= 1e-2 * pnorm and abs(d12) < abs(d8)
    report(7, ok, f"flat defect {d_flat:.1e} <= 1e-10; perturbed 8^4 defect "
                  f"{abs(d8):.2e} <= 1e-2 |pert|^2 = {1e-2 * pnorm:.2e}; "
                  f"refines to {abs(d12):.2e} at 12^4")


def test_criterion_8_uniqueness():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    sched = Schedule(t_end=0.02, dt=5e-4, cadence=1, diagnostics=False)

    def perturbed(delta):
        pm = m.values.copy()
        pm[0, 0] = pm[0, 0] + delta * np.sin(g.coords()[1])
        return run(FlowState(g, MetricField(g, pm), u0), RHF, sched, HOLD)

    t1 = run(FlowState(g, m, u0), RHF, sched, HOLD)
    t1b = run(FlowState(g, m, u0), RHF, sched, HOLD)
    b = bundle(t1, t1b, 5)
    zero_ok = (not any(np.any(getattr(b, k)) for k in
                       ("h", "A", "B", "T", "U", "v", "w", "x", "y", "z"))
               and energy(bundle(t1, t1b, 5)) == 0.0)
    t2, t3 = perturbed(1e-3), perturbed(5e-4)
    tr2, tr3 = energy_trace(bundles(t1, t2)), energy_trace(bundles(t1, t3))
    half = len(tr2.times) // 2
    fit = gronwall_fit(tr2, window=slice(half, None))
    N = abs(fit["N"])
    e0, t0v = tr2.values[half], tr2.times[half]
    grow_ok = all(tr2.values[k] <= e0 * np.exp(2 * N * (tr2.times[k] - t0v))
                  * (1 + 1e-9) for k in range(half, len(tr2.times)))
    k = len(tr2.values) // 2
    ratio = tr2.values[k] / tr3.values[k]
    amp_ok = abs(ratio - 4.0) <= 0.4
    ok = zero_ok and fit["outcome"] == "fit" and grow_ok and amp_ok
    report(8, ok, f"identical data: E = 0 bit-for-bit ({zero_ok}); growth bound "
                  f"with 2N, N = {fit['N']:.1f} ({grow_ok}); amplitude ratio "
                  f"{ratio:.3f} within 10% of 4 ({amp_ok})")


def test_criterion_9_negative_controls(rhf_runs, general_runs, manifest):
    failures = []
    for runs, ids in ((rhf_runs, APPENDIX_A_IDS + ("A.12", "A.13")),
                      (general_runs, APPENDIX_C_IDS + LEMMA31_IDS)):
        for ident in ids:
            good = [evaluate(runs[r], ident, eval_index(runs[r]))
                    for r in (16, 32)]
            bad = [evaluate(runs[r], ident, eval_index(runs[r]),
                                     mutate=True) for r in (16, 32)]
            if not (bad[1].max_res > 5.0 * good[1].max_res
                    and bad[0].max_res / bad[1].max_res < 2.0):
                failures.append(ident)
    lev = {}
    for res in (8, 16):
        grid, m, u = random_instance(3, res, seed=manifest["seeds"]["lemma52"][0])
        lev[res] = lemma52_defects(m, u, mutate=True)
    for ident in LEMMA52_IDS:
        a = np.max(np.abs(lev[8][ident]))
        b = np.max(np.abs(lev[16][ident]))
        if not (b > 1e-3 and a / b < 2.0):
            failures.append(ident)
    # pair identities
    g = rhf_runs[16].last.grid
    m, u0 = verification_initial_data(g)
    pm = m.values.copy()
    pm[0, 0] = pm[0, 0] + 1e-3 * np.sin(g.coords()[1])
    sched = Schedule(t_end=0.016, dt=2e-3, diagnostics=False)
    tp = run(FlowState(g, MetricField(g, pm), u0), RHF, sched, HOLD)
    for ident in ("6.50", "6.51"):
        good = evaluate(rhf_runs[16], ident, 6, other=tp)
        bad = evaluate(rhf_runs[16], ident, 6, other=tp, mutate=True)
        if not bad.max_res > 5.0 * max(good.max_res, 1e-30):
            failures.append(ident)
    rep = evaluate(rhf_runs[16], "6.53", 6, other=tp,
                            c_id=manifest["c_id"]["6.53"], mutate=True)
    if not rep.max_res > rep.bound:
        failures.append("6.53")
    rep = evaluate(rhf_runs[16], "A.11", eval_index(rhf_runs[16]),
                            c_id=manifest["c_id"]["A.11"] * 1e-3)
    if not rep.max_res > rep.bound:
        failures.append("A.11")
    ok = not failures
    n_controls = 17 + 2 + 9 + 3 + 1
    report(9, ok, f"{n_controls} mutated-identity controls all fail as required"
                  + (f"; unexpectedly passing: {failures}" if failures else ""))


def test_criterion_10_determinism_roundtrip(tmp_path):
    from rlab.snapshots import read_snapshot, write_snapshot
    grid, m, u = random_instance(2, 16, seed=777)
    p1 = tmp_path / "a.rlab"
    write_snapshot(p1, grid, {"g": m, "u": u})
    g2, fields, _ = read_snapshot(p1)
    rt_ok = (np.array_equal(fields["g"][0], m.values)
             and np.array_equal(fields["u"][0], u))
    cfg = {
        "grid": {"kind": "torus", "n": 2, "resolutions": [16, 16],
                 "extents": [2 * np.pi, 2 * np.pi]},
        "initial_data": {
            "metric": {"family": "perturbed",
                       "components": {"0,0": [{"amp": 0.1, "wave": [1, 0]}],
                                      "1,1": [{"amp": 0.08, "wave": [0, 1],
                                               "kind": "cos"}]}},
            "u_terms": [{"amp": 0.2, "wave": [1, 0]}]},
        "flow": {"alpha1": 2.0},
        "schedule": {"t_end": 0.008, "dt": 0.002},
        "entropy": {"tau0": 0.5, "samples": 3},
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("o1", "o2"):
        r = run_cli(["run", "--config", str(cfg_path), "--out", str(tmp_path / sub)])
        assert r.returncode == 0, r.stderr
        outs.append((tmp_path / sub / "manifest.json").read_bytes())
    det_ok = outs[0] == outs[1]
    ok = rt_ok and det_ok
    report(10, ok, f"snapshot round-trip exact ({rt_ok}); "
                   f"byte-identical manifests across reruns ({det_ok})")
