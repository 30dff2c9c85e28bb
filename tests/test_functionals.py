from dataclasses import replace

import numpy as np
import pytest

from conftest import HOLD
from rlab.functionals import (EstimateConstants, OptimizerOpts, PositivityError,
                              calibrate_uniform_constant, delta_u_bound,
                              gbc_defect, gbc_defect_coupled, lambda_bounds,
                              log_sobolev_constant, lp_curvature_bound,
                              mu_lower_bound, mu_minimize, mu_upper_bound,
                              noncollapse_constants, dimension4_bound_constants,
                              w_entropy)
from rlab.instances import (perturbed_flat_metric, random_instance,
                            trig_scalar, verification_initial_data)
from rlab.mesh import MetricField, build_grid, flat_metric, grad_stack, integrate
from rlab.tensor import Geometry, norm_sq

FAST_OPTS = OptimizerOpts(tol=1e-9, max_iter=4000, nseeds=3)


def normalized(metric, f, tau):
    """f shifted so that int (4 pi tau)^{-n/2} e^{-f} dV = 1."""
    mass = integrate(np.exp(-f), metric) * (4.0 * np.pi * tau) ** (-metric.grid.n / 2.0)
    return f + np.log(mass)


def flat2(res=24):
    g = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    return g, flat_metric(g)


def test_w_entropy_constant_flat():
    g, m = flat2()
    u = np.zeros(g.shape)
    f = np.full(g.shape, np.log(4 * np.pi ** 2 / (4 * np.pi)))
    assert abs(w_entropy(m, u, f, 1.0) - (np.log(np.pi) - 2)) < 1e-12


def test_w_entropy_rejects_bad_tau():
    g, m = flat2(16)
    with pytest.raises(ValueError):
        w_entropy(m, np.zeros(g.shape), np.zeros(g.shape), 0.0)
    with pytest.raises(ValueError):
        mu_minimize(Geometry(m, np.zeros(g.shape)), -1.0)


def test_tau_shift_bijection():
    grid, m, u = random_instance(2, 16, seed=302)
    rng = np.random.default_rng(2)
    # the constant shift f -> f + (n/2) ln(tau2/tau1) maps the tau2
    # normalization class onto the tau1 class (and is invertible)
    f2 = normalized(m, rng.random(grid.shape), 2.0)
    f1 = f2 + (grid.n / 2.0) * np.log(2.0 / 1.0)
    mass = integrate(np.exp(-f1), m) * (4 * np.pi * 1.0) ** (-grid.n / 2.0)
    assert abs(mass - 1.0) < 1e-12
    # and the simultaneous scaling (tau g, tau) leaves the entropy of a
    # normalized test function unchanged
    f = normalized(m, rng.random(grid.shape), 1.0)
    w1 = w_entropy(m, u, f, 1.0)
    w2 = w_entropy(m.scaled(2.0), u, f, 2.0)
    assert abs(w1 - w2) < 1e-9 * max(1.0, abs(w1))


def test_mu_flat_constant_seed_saturates_bound():
    g, m = flat2(16)
    u = np.zeros(g.shape)
    rep = mu_minimize(Geometry(m, u), 1.0, FAST_OPTS)
    bound = mu_upper_bound(m, u, 1.0)
    # the constant test function attains the bound...
    fconst = normalized(m, np.zeros(g.shape), 1.0)
    assert abs(w_entropy(m, u, fconst, 1.0) - bound) < 1e-6
    # ... and the minimizer never exceeds it
    assert rep.mu <= bound + 1e-6
    assert rep.norm_defect <= 1e-8


def test_mu_scaling_identity():
    grid, m, u = random_instance(2, 16, seed=303)
    tau = 1.6
    r1 = mu_minimize(Geometry(m, u), 1.0, FAST_OPTS)
    r2 = mu_minimize(Geometry(m.scaled(tau), u), tau, FAST_OPTS)
    assert abs(r1.mu - r2.mu) <= 2e-6 * max(1.0, abs(r1.mu))


def test_mu_below_bound_random_instances(manifest):
    violations = 0
    for seed in manifest["seeds"]["entropy"]:
        grid, m, u = random_instance(2, 12, seed)
        tau = 0.5 + (seed % 5) * 0.2
        rep = mu_minimize(Geometry(m, u), tau, FAST_OPTS)
        if rep.mu > rep.upper_bound + 1e-6:
            violations += 1
    assert violations == 0


def test_mu_tau_comparison_inequality():
    # for tau1 >= tau2: mu(tau2) <= mu(tau1) - (n/2) ln(tau2/tau1) + (tau2-tau1) S_min
    for seed in (311, 312, 313):
        grid, m, u = random_instance(2, 12, seed)
        t1, t2 = 1.0, 0.6
        m1 = mu_minimize(Geometry(m, u), t1, FAST_OPTS).mu
        m2 = mu_minimize(Geometry(m, u), t2, FAST_OPTS).mu
        smin = float(np.min(Geometry(m, u).S))
        rhs = m1 - (grid.n / 2.0) * np.log(t2 / t1) + (t2 - t1) * smin
        assert m2 <= rhs + 1e-5


def test_mu_lower_bound_with_user_sobolev():
    grid, m, u = random_instance(2, 12, seed=321)
    lb = mu_lower_bound(m, u, 0.8, C_s=1.0)
    rep = mu_minimize(Geometry(m, u), 0.8, FAST_OPTS)
    assert lb <= rep.mu + 1e-9
    assert log_sobolev_constant(1.0, 4 * np.pi ** 2, 2, 1.0) > 0


def test_mu_flat_torus_equals_bound():
    # two-sided: at tau = 1 the flat 16^2 torus has tau lambda_1 >= 1/2, so
    # the constant is the minimizer and mu equals the bound
    g, m = flat2(16)
    u = np.zeros(g.shape)
    rep = mu_minimize(Geometry(m, u), 1.0, FAST_OPTS)
    assert abs(rep.mu - mu_upper_bound(m, u, 1.0)) <= 1e-6


def test_mu_refines_with_the_grid():
    # mu of one instance converges as h -> 0, and stays close below its bound
    mus = []
    for res in (8, 16, 32):
        grid, m, u = random_instance(2, res, 777)
        rep = mu_minimize(Geometry(m, u), 0.5, FAST_OPTS)
        assert rep.mu <= rep.upper_bound
        mus.append(rep.mu)
    d1, d2 = abs(mus[1] - mus[0]), abs(mus[2] - mus[1])
    assert np.log2(d1 / d2) >= 1.5
    assert d2 < 2e-3


def test_mu_gradient_matches_finite_differences():
    # the flat gradient is the exact adjoint of the compact Dirichlet form
    import rlab.functionals as fn
    rng = np.random.default_rng(3)
    for n, res in ((2, 12), (3, 8)):
        grid, m, u = random_instance(n, res, 5)
        S, form = Geometry(m, u).S, fn._form_weights(m)
        w = 1.0 + 0.3 * rng.random(grid.shape)
        _, *parts = fn._w_eval(m, S, w, 0.7, form)
        grad = grid.cell_volume * fn._mu_gradient(m, w, 0.7, S, *parts)
        eps = 1e-6
        for _ in range(10):
            idx = tuple(int(i) for i in rng.integers(0, res, n))
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd = (fn._w_eval(m, S, wp, 0.7, form)[0]
                  - fn._w_eval(m, S, wm, 0.7, form)[0]) / (2 * eps)
            assert abs(fd - grad[idx]) <= 1e-6 * np.max(np.abs(grad))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_optimizer_differences_equal_their_roll_form_bitwise(n):
    # the form weights, the differences and the adjoint written through
    # mesh._stencil, against their np.roll forms on a torus with a distinct
    # resolution per axis, from a contiguous and a strided w
    import rlab.functionals as fn
    g = build_grid("torus", n, [8, 9, 10, 11][:n], [1.0 + 0.5 * a for a in range(n)])
    rng = np.random.default_rng(30 + n)
    vals = np.eye(n).reshape((n, n) + (1,) * n) + 0.05 * rng.uniform(-1, 1, (n, n) + g.shape)
    m = MetricField(g, vals)
    S, tau = rng.standard_normal(g.shape), 0.7
    b, a = fn._form_weights(m)
    a_ref = m.inv * m.sqrt_det
    assert np.array_equal(b, np.stack([0.5 * (a_ref[i, i] + np.roll(a_ref[i, i], -1, axis=i))
                                       for i in range(n)]))
    strided = (np.swapaxes(rng.random(g.shape[:-2] + g.shape[:-3:-1]), -1, -2)
               if n > 1 else rng.random(2 * g.shape[0])[::2])
    for w in (1.0 + 0.3 * rng.random(g.shape), 1.0 + 0.3 * strided):
        fwd, cen = fn._differences(w, g)
        fwd_ref = np.stack([(np.roll(w, -1, axis=i) - w) / h for i, h in enumerate(g.spacing)])
        cen_ref = np.stack([0.5 * (fwd_ref[i] + np.roll(fwd_ref[i], 1, axis=i))
                            for i in range(n)])
        assert np.array_equal(fwd, fwd_ref) and np.array_equal(cen, cen_ref)
        _, flux_fwd, flux_cen, lnw, c0 = fn._w_eval(m, S, w, tau, (b, a))
        div = np.zeros(g.shape)
        for i, h in enumerate(g.spacing):
            div += (flux_fwd[i] - np.roll(flux_fwd[i], 1, axis=i)) / h
            div += (np.roll(flux_cen[i], -1, axis=i) - np.roll(flux_cen[i], 1, axis=i)) / (2.0 * h)
        grad_ref = (m.sqrt_det * w * (2.0 * tau * S - 4.0 * lnw - 2.0 - 2.0 * c0)
                    - 8.0 * tau * div)
        grad = fn._mu_gradient(m, w, tau, S, flux_fwd, flux_cen, lnw, c0)
        assert np.array_equal(grad, grad_ref)
        for out in (b, fwd, cen, grad):
            assert out.dtype == np.float64 and out.flags.c_contiguous


def _plain_bb_mu(m, u, tau, opts):
    """mu by plain projected Barzilai-Borwein descent on the same compact
    form, from the constant seed: the L^2(dV) gradient, no preconditioner,
    the same backtracking and stall rule."""
    import rlab.functionals as fn
    S, form = Geometry(m, u).S, fn._form_weights(m)
    cellw = m.sqrt_det * m.grid.cell_volume

    def normalize(w):
        return w / np.sqrt(integrate(w * w, m))

    def gradient(w, parts):
        g = fn._mu_gradient(m, w, tau, S, *parts) / m.sqrt_det
        return g - integrate(g * w, m) * w

    w = normalize(np.ones(m.grid.shape))
    e, *parts = fn._w_eval(m, S, w, tau, form)
    g = gradient(w, parts)
    step, stall, w_prev, g_prev = fn.STEP0, 0, None, None
    for _ in range(opts.max_iter):
        if w_prev is not None:
            s = (w - w_prev) * cellw
            sy = float(np.sum(s * (g - g_prev)))
            if sy > 1e-30:
                step = min(max(float(np.sum(s * (w - w_prev))) / sy, 1e-6), 1e3)
        trial = step
        for _ in range(40):
            wt = normalize(np.abs(w - trial * g) + 1e-300)
            et, *trial_parts = fn._w_eval(m, S, wt, tau, form)
            if et < e:
                break
            trial *= 0.5
        else:
            break
        decrease = e - et
        w_prev, g_prev = w, g
        w, e = wt, et
        g = gradient(w, trial_parts)
        stall = stall + 1 if decrease < opts.tol * max(1.0, abs(e)) else 0
        if stall >= 5:
            break
    return e


def test_preconditioned_mu_not_above_plain_bb():
    # the preconditioner only speeds the descent: on every instance the
    # returned mu is no higher than plain BB's on the same form and rule
    for n, res, seed in ((2, 12, 12), (2, 12, 15), (2, 16, 12), (2, 16, 15),
                         (3, 10, 12), (3, 10, 13)):
        grid, m, u = random_instance(n, res, seed)
        tau = 0.5 + 0.25 * (seed % 3)
        rep = mu_minimize(Geometry(m, u), tau, replace(FAST_OPTS, nseeds=1))
        assert rep.mu <= _plain_bb_mu(m, u, tau, FAST_OPTS) + 1e-10, (n, res, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parseval_products_equal_real_space_sums(n):
    # mu_minimize takes <x, P y> and <x, P^{-1} x> on the rfftn half spectrum,
    # as weighted sums over its float64 view; they match grid sums over
    # explicit inverse transforms, at an even last resolution (a Nyquist bin
    # of weight 1) and an odd one (none)
    from rlab.functionals import _preconditioner
    rng = np.random.default_rng(n)
    for res in (8, 9):
        _, m, u = random_instance(n, res, seed=n)
        forward, inverse, P, Pinv, weights = _preconditioner(m, 0.75)
        assert np.allclose(P * Pinv, 1.0)
        x = 0.5 + rng.random(m.grid.shape)
        y = 1.0 + rng.standard_normal(m.grid.shape)
        fx, fy = forward(x), forward(y)
        assert np.allclose(inverse(fx), x, rtol=0, atol=1e-14)
        vx, vy = fx.view(np.float64), fy.view(np.float64)
        wP, wPinv = (np.repeat(weights * F, 2, axis=-1) for F in (P, Pinv))
        for parseval, direct in ((np.vdot(fx, weights * P * fy).real,
                                  np.sum(x * inverse(P * fy))),
                                 (np.sum(wP * vx * vy), np.sum(x * inverse(P * fy))),
                                 (np.vdot(fx, weights * Pinv * fx).real,
                                  np.sum(x * inverse(Pinv * fx))),
                                 (np.sum(wPinv * vx * vx), np.sum(x * inverse(Pinv * fx)))):
            assert abs(parseval - direct) <= 1e-13 * abs(direct), (res, parseval, direct)


def test_one_transform_each_way_per_descent(monkeypatch):
    # each descent direction is one forward rfftn of the stacked fields and
    # one irfftn of the one field P q; descent differentiates W once, so
    # gradients count descents
    import rlab.functionals as fn
    counts = {"rfftn": 0, "irfftn": 0, "gradient": 0}
    inverted = []

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if key == "irfftn":
                inverted.append(args[0].ndim)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fn.np.fft, "rfftn", counted("rfftn", np.fft.rfftn))
    monkeypatch.setattr(fn.np.fft, "irfftn", counted("irfftn", np.fft.irfftn))
    monkeypatch.setattr(fn, "_mu_gradient", counted("gradient", fn._mu_gradient))
    grid, m, u = random_instance(3, 8, seed=321)
    rep = mu_minimize(Geometry(m, u), 0.8, OptimizerOpts(max_iter=30, nseeds=2))
    assert rep.iterations >= 2 and counts["gradient"] >= 2
    assert counts["rfftn"] == counts["irfftn"] == counts["gradient"]
    assert inverted == [grid.n] * counts["irfftn"]


def test_converged_describes_the_kept_seed():
    # below tau = 1/2 the constant w on a flat torus is a critical point but
    # not a minimum: its seed stops at once, converged, while a random seed
    # descends below it and is cut off by max_iter
    g, m = flat2(8)
    u = np.zeros(g.shape)
    const = mu_minimize(Geometry(m, u), 0.3, OptimizerOpts(max_iter=10, nseeds=1))
    assert const.converged and const.iterations == 1
    rep = mu_minimize(Geometry(m, u), 0.3, OptimizerOpts(max_iter=10, nseeds=2))
    assert rep.mu < const.mu and rep.iterations == 1 + 10
    assert not rep.converged


def test_warm_start_runs_no_random_seeds():
    # with a warm start only it and the constant seed run, whatever nseeds
    grid, m, u = random_instance(2, 12, seed=12)
    cold = mu_minimize(Geometry(m, u), 0.75, FAST_OPTS)
    a = mu_minimize(Geometry(m, u), 0.75, replace(FAST_OPTS, nseeds=1), warm_start=cold.w)
    b = mu_minimize(Geometry(m, u), 0.75, replace(FAST_OPTS, nseeds=7, seed=99),
                    warm_start=cold.w)
    assert a.mu == b.mu and a.iterations == b.iterations
    assert a.mu <= cold.mu + 1e-12


def test_one_difference_pass_per_evaluated_iterate(monkeypatch):
    # the gradient of an accepted iterate reuses the differences of its
    # evaluation, so w is differenced once per evaluation and never more
    import rlab.functionals as fn
    counts = {"diff": 0, "eval": 0, "gradient": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fn, "_differences", counted("diff", fn._differences))
    monkeypatch.setattr(fn, "_w_eval", counted("eval", fn._w_eval))
    monkeypatch.setattr(fn, "_mu_gradient", counted("gradient", fn._mu_gradient))
    grid, m, u = random_instance(2, 12, seed=321)
    rep = mu_minimize(Geometry(m, u), 0.8, OptimizerOpts(max_iter=30, nseeds=2))
    # one gradient per seed and one per accepted iterate
    assert counts["diff"] == counts["eval"]
    assert 2 <= counts["gradient"] <= rep.iterations + 2


def test_mu_minimize_builds_one_ricci(monkeypatch):
    # the upper bound reads the S that the minimizer already holds; Ric is a
    # trace of R_AB, so counting the one curvature build counts Ricci builds
    import rlab.tensor as tensor
    calls = []
    real = tensor.riemann_bivector
    monkeypatch.setattr(tensor, "riemann_bivector", lambda *a: calls.append(1) or real(*a))
    grid, m, u = random_instance(2, 12, seed=321)
    rep = mu_minimize(Geometry(m, u), 0.8, OptimizerOpts(max_iter=5, nseeds=1))
    assert len(calls) == 1
    assert rep.upper_bound == mu_upper_bound(m, u, 0.8)


def test_noncollapse_constants():
    out = noncollapse_constants(2, 0.0, 0.0, 1.0)
    assert out["C_n_r_bound"] == 4.0
    assert abs(out["c"] - np.exp(-1)) < 1e-12
    assert abs(out["kappa"] - np.exp(-1)) < 1e-12
    # monotone decreasing in A and D
    k0 = noncollapse_constants(3, 1.0, 1.0, 1.0)["kappa"]
    assert noncollapse_constants(3, 2.0, 1.0, 1.0)["kappa"] < k0
    assert noncollapse_constants(3, 1.0, 2.0, 1.0)["kappa"] < k0
    with pytest.raises(ValueError):
        noncollapse_constants(1, 0.0, 0.0, 1.0)


def test_delta_u_bound():
    assert abs(delta_u_bound(2, 0.0, 0.0, 1.0) - np.e ** 3) < 1e-9
    b = [delta_u_bound(3, k, 1.0, 1.0) for k in (0.0, 0.5, 1.0, 2.0)]
    assert all(x <= y for x, y in zip(b, b[1:]))
    with pytest.raises(ValueError):
        delta_u_bound(2, -1.0, 0.0, 1.0)


def test_delta_u_bound_calibration_on_run():
    from rlab.flow import FlowState, Schedule, run, FlowParams
    from rlab.tensor import curvature, hessian
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    traj = run(FlowState(g, m, u0), FlowParams(2.0),
               Schedule(t_end=0.02, dt=2e-3, diagnostics=False), HOLD)
    K = obs = 0.0
    for s in traj.read["states"]:
        cb = curvature(s.metric)
        K = max(K, float(np.sqrt(np.max(norm_sq(cb.ric, s.metric, 0, 2)))))
        H = hessian(s.u, g, cb.gamma_p, grad_stack(s.u, g))
        lap = np.einsum("ij...,ij...->...", s.metric.inv, H)
        obs = max(obs, float(np.max(np.abs(lap))))
    T = traj.times[-1]
    c_star = calibrate_uniform_constant(lambda c: delta_u_bound(2, K, T, c), obs)
    assert delta_u_bound(2, K, T, c_star) >= obs


def test_estimate_constants_lambdas():
    c = EstimateConstants(K=2.0, L=1.0, P=0.5)
    assert c.lambda1 == 3.0
    assert abs(c.lambda2 - (2.0 + 1.0 + 1.0 + 0.25 * 1.5)) < 1e-12
    b = lp_curvature_bound(4, 2.0, c, 0.5, 1.0, 10.0)
    assert np.isfinite(b) and b > 0


def test_dimension4_bound_constants_table():
    t = dimension4_bound_constants(2.0, 0.0, 0.0, 1.0, 2.0, 1.0, 1.0, 0.0)
    assert t["C2"] == 574.0
    assert t["C7"] == 0.0
    assert t["Ct6"] == 3072.0 * 4.0
    assert all(np.isfinite(v) for v in t.values())


# --------------------------------------------------------------------------
# pinching

def test_pinching_gamma2_consistency():
    # |Sin|^2 = |Sic'|^2 - S'^2/n as stored tensors, to rounding
    grid, m, u = random_instance(2, 16, seed=331)
    C = 5.0
    cpl = Geometry(m, u, 1.5)
    Sp = cpl.S + C
    sic_p = cpl.sic + (C / grid.n) * m.values
    lhs = norm_sq(cpl.sin, m, 0, 2)
    rhs = norm_sq(sic_p, m, 0, 2) - Sp ** 2 / grid.n
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_lambda_bounds_positivity_error_names_location():
    g, m = flat2(16)
    with pytest.raises(PositivityError) as e:
        lambda_bounds(m, np.zeros(g.shape), 2.0, -1.0)
    assert "grid index (0, 0)" in str(e.value)


def test_lambda_bounds_pointwise(manifest):
    for seed in manifest["seeds"]["entropy"][:5]:
        grid, m, u = random_instance(2, 12, seed)
        for a1 in (1.5, -1.5):
            out = lambda_bounds(m, u, a1, C=6.0, beta1=0.3, beta2=-0.2)
            assert np.all(out["lambda"] >= out["lower"] - 1e-10)
            assert np.all(out["lambda"] <= out["upper"] + 1e-10)


# --------------------------------------------------------------------------
# dimension-4 curvature integral

def test_gbc_flat_exact():
    g = build_grid("torus", 4, [8] * 4, [2 * np.pi] * 4)
    assert abs(gbc_defect(flat_metric(g), 0.0)) <= 1e-10


def test_gbc_rejects_wrong_dimension():
    g, m = flat2(16)
    with pytest.raises(ValueError):
        gbc_defect(m, 0.0)


def _gbc_instance(res):
    g = build_grid("torus", 4, [res] * 4, [2 * np.pi] * 4)
    m = perturbed_flat_metric(g, {(0, 0): [{"amp": 0.08, "wave": [0, 1, 0, 0]}],
                                  (1, 1): [{"amp": 0.06, "wave": [0, 0, 1, 0],
                                            "kind": "cos"}],
                                  (2, 3): [{"amp": 0.04, "wave": [1, 0, 0, 0]}]})
    return g, m


def test_gbc_perturbed_defect_small_and_refining():
    g8, m8 = _gbc_instance(8)
    d8 = gbc_defect(m8, 0.0)
    pert = m8.values.copy()
    for i in range(4):
        pert[i, i] -= 1.0
    pnorm = integrate(np.einsum("ij...,ij...->...", pert, pert), m8)
    assert abs(d8) <= 1e-2 * pnorm
    _, m12 = _gbc_instance(12)
    d12 = gbc_defect(m12, 0.0)
    assert abs(d12) < abs(d8)


def test_gbc_coupled_rearrangement_matches():
    g8, m8 = _gbc_instance(8)
    u = trig_scalar(g8, [{"amp": 0.2, "wave": [1, 0, 0, 0]}])
    d = gbc_defect(m8, 0.0)
    dc = gbc_defect_coupled(m8, u, 1.5, 0.0)
    assert abs(d - dc) < 1e-9 * max(1.0, abs(d))


def test_mu_upper_bound_u_dependence():
    # adding a potential lowers the average coupled scalar by twice the
    # average gradient energy, and the bound drops by tau times that
    g, m = flat2(32)
    u = np.sin(g.coords()[0])
    tau = 0.7
    b0 = mu_upper_bound(m, np.zeros(g.shape), tau)
    b1 = mu_upper_bound(m, u, tau)
    from rlab.mesh import grad_stack
    du = grad_stack(u, g)
    gsq = np.einsum("ij...,i...,j...->...", m.inv, du, du)
    vol = integrate(np.ones(g.shape), m)
    expected_drop = tau * 2.0 * integrate(gsq, m) / vol
    assert abs((b0 - b1) - expected_drop) < 1e-12
