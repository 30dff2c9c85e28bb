import numpy as np
import pytest

from oracles import rm4, sm
from rlab.comparison import (OrderVerdict, _lie, _nabla_x_flat, example512,
                             killing_report, lemma57_defect, ricci_order, scalar_order,
                             solve_c0, tilde_weight, weighted_divergence_integral,
                             wy_hat_margin_identity, yano_defect,
                             yano_oracle_factor)
from rlab.instances import (euclidean_chart, product_metric, radial_potential,
                            random_instance)
from rlab.mesh import build_grid, flat_metric, integrate
from rlab.tensor import Geometry, curvature


def kc_product_t3(res=16):
    """Curved T^3 with the coordinate field along axis 0 Killing of constant norm."""
    g = build_grid("torus", 3, [res] * 3, [2 * np.pi] * 3)
    m = product_metric(g, [1.3,
                           lambda xs: (1.5 + 0.3 * np.sin(xs[2])) ** 2,
                           lambda xs: 1.0 + 0.2 * np.cos(xs[2])])
    X = np.zeros((3,) + g.shape)
    X[0] = 1.0
    return g, m, X


def killing_nonconstant_t2(res=32):
    """Curved T^2 where the coordinate field is Killing with varying norm."""
    g = build_grid("torus", 2, [res] * 2, [2 * np.pi] * 2)
    m = product_metric(g, [lambda xs: (1.4 + 0.3 * np.sin(xs[1])) ** 2, 1.0])
    X = np.zeros((2,) + g.shape)
    X[0] = 1.0
    return g, m, X


def test_killing_report_flat_coordinate_field():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = flat_metric(g)
    X = np.zeros((2,) + g.shape)
    X[0] = 1.0
    rep = killing_report(m, X)
    assert rep.is_killing and rep.constant_norm
    assert rep.lie_max == 0.0 and rep.div_max == 0.0


def test_killing_report_oscillating_field():
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    m = flat_metric(g)
    x1 = g.coords()[0]
    X = np.zeros((2,) + g.shape)
    X[0] = np.sin(x1)
    lie = _lie(_nabla_x_flat(m, X, curvature(m).gamma))
    # (L_X g)_11 = 2 cos(x1) up to the discrete-derivative factor
    factor = np.sin(g.spacing[0]) / g.spacing[0]
    assert np.max(np.abs(lie[0, 0] - 2 * np.cos(x1) * factor)) < 1e-12
    rep = killing_report(m, X)
    assert not rep.is_killing


def test_killing_report_product_metric():
    _, m, X = kc_product_t3()
    rep = killing_report(m, X)
    assert rep.is_killing and rep.constant_norm
    _, m2, X2 = killing_nonconstant_t2()
    rep2 = killing_report(m2, X2)
    assert rep2.is_killing and not rep2.constant_norm


def test_c0_root():
    c0 = solve_c0()
    assert abs(c0 * np.log(c0) - 1.0) < 1e-11
    assert abs(c0 - 1.7632228343) < 1e-9


def test_tilde_weight():
    grid, m, u = random_instance(2, 16, seed=201)
    out = tilde_weight(u)
    ut = out["u_tilde"]
    assert np.min(ut * np.log(ut)) >= 1.0 - 1e-9
    # constant u: f~ = -ln c0
    const = tilde_weight(np.full(grid.shape, 3.0))
    assert np.max(np.abs(const["f_tilde"] + np.log(out["c0"]))) < 1e-12


def test_yano_flat_coordinate_field_exact():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = flat_metric(g)
    X = np.zeros((2,) + g.shape)
    X[0] = 1.0
    assert yano_defect(m, X, 1.0) == 0.0


def test_yano_oracle_and_manifest(manifest):
    g8 = build_grid("torus", 2, [8, 8], [2 * np.pi] * 2)
    m8 = flat_metric(g8)
    X = np.zeros((2,) + g8.shape)
    X[0] = np.sin(g8.coords()[0])
    assert yano_oracle_factor(m8, X) == manifest["yano_lhs_factor"] == 0.5
    # raw printed form is O(1) off; the arbitrated factor converges
    errs = []
    for res in (16, 32):
        grid, m, _ = random_instance(2, res, seed=202)
        xs = grid.coords()
        Xr = np.stack([np.sin(xs[0]), np.cos(xs[0] + xs[1])])
        errs.append(abs(yano_defect(m, Xr, manifest["yano_lhs_factor"])))
    assert errs[1] < errs[0] / 2.5


def test_yano_quadratic_homogeneity():
    grid, m, _ = random_instance(2, 16, seed=203)
    xs = grid.coords()
    X = np.stack([np.sin(xs[0]), np.cos(xs[1])])
    d1 = yano_defect(m, X, 1.0)
    d2 = yano_defect(m, 2.0 * X, 1.0)
    assert abs(d2 - 4.0 * d1) < 1e-10 * max(1.0, abs(d1))


def test_lemma57_trivial_flat():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = flat_metric(g)
    X = np.zeros((2,) + g.shape)
    X[0] = 1.0
    u = 0.3 * np.sin(g.coords()[0])
    d = lemma57_defect(m, u, X)
    assert abs(d["general"]) < 1e-12
    assert abs(d["killing_a"]) < 1e-12 and abs(d["killing_b"]) < 1e-12


def test_lemma57_killing_setup():
    _, m, X = killing_nonconstant_t2()
    xs = m.grid.coords()
    u = 0.4 * np.cos(xs[1]) + 0.3 * np.sin(xs[0])
    d = lemma57_defect(m, u, X)
    h2 = max(m.grid.spacing) ** 2
    assert abs(d["killing_a"]) < 10 * h2
    assert abs(d["killing_b"]) < 10 * h2


def test_lemma57_general_refines():
    errs = []
    for res in (16, 32):
        grid, m, u = random_instance(2, res, seed=204)
        xs = grid.coords()
        X = np.stack([np.sin(xs[0]) + 0.3 * np.cos(xs[1]), np.cos(xs[0] + xs[1])])
        errs.append(abs(lemma57_defect(m, u, X)["general"]))
    assert errs[1] < errs[0] / 2.5


def test_scalar_orders(manifest):
    for seed in manifest["seeds"]["comparison"]:
        grid, m, u = random_instance(2, 12, seed)
        geo = Geometry(m, u)
        v1 = scalar_order(geo, "RL_vs_R")
        assert v1.verdict == "holds"
        # the margin is exactly twice the gradient energy
        from rlab.mesh import grad_stack
        du = grad_stack(u, grid)
        gsq = np.einsum("ij...,i...,j...->...", m.inv, du, du)
        assert abs(v1.margin - 2.0 * integrate(gsq, m)) < 1e-10
        v2 = scalar_order(geo, "R_vs_RWY")
        assert v2.verdict in ("holds", "within-tolerance")
        v3 = scalar_order(geo, "R_eq_RWY_e^u")
        assert abs(v3.margin) <= v3.tolerance
        assert abs(weighted_divergence_integral(m, u)) < 1e-10


def test_order_verdict_fields():
    v = OrderVerdict("p", "volume", 1.0, 0.5, 0.1)
    assert v.verdict == "fails" and v.margin == -0.5
    v2 = OrderVerdict("p", "volume", 1.0, 0.95, 0.1)
    assert v2.verdict == "within-tolerance"
    # the equality pair holds on |margin| <= tolerance, whatever its sign
    for margin in (-1e-15, 1e-15, -0.05, 0.05):
        assert OrderVerdict("R_eq_RWY_e^u", "e^u", 1.0, 1.0 + margin, 0.1).verdict == "holds"
    for margin in (-0.2, 0.2):
        assert OrderVerdict("R_eq_RWY_e^u", "e^u", 1.0, 1.0 + margin, 0.1).verdict == "fails"
    assert scalar_order.__name__  # keep import honest


def test_ricci_orders_on_kc_field():
    _, m, X = kc_product_t3()
    xs = m.grid.coords()
    u = 0.3 * np.sin(xs[0]) + 0.2 * np.cos(xs[2])
    margins = {}
    for variant in ("L_vs_Ric", "Ric_vs_WY", "Ric_vs_WYhat"):
        for weight in ("volume", "e^f~"):
            v = ricci_order(m, u, X, variant, weight)
            margins[(variant, weight)] = v.margin
            assert v.margin >= -v.tolerance, (variant, weight)
    # chained verdicts: the end-to-end margin is the sum of the links
    vL = ricci_order(m, u, X, "L_vs_Ric")
    vW = ricci_order(m, u, X, "Ric_vs_WY")
    assert abs((vW.right - vL.left) - (vL.margin + vW.margin)) < 1e-9
    assert vW.right - vL.left >= -1e-9
    vH = ricci_order(m, u, X, "Ric_vs_WYhat")
    assert vH.right - vL.left >= -1e-9


def test_ricci_order_precondition_errors():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = flat_metric(g)
    x1 = g.coords()[0]
    X = np.zeros((2,) + g.shape)
    X[0] = np.sin(x1)
    with pytest.raises(ValueError, match="is_killing"):
        ricci_order(m, np.zeros(g.shape), X, "Ric_vs_WY")
    _, m2, X2 = killing_nonconstant_t2(16)
    with pytest.raises(ValueError, match="constant_norm"):
        ricci_order(m2, np.zeros(m2.grid.shape), X2, "Ric_vs_WYhat")
    # the unrestricted variant accepts any field
    v = ricci_order(m, 0.1 * np.sin(x1), X, "L_vs_Ric")
    assert v.verdict in ("holds", "within-tolerance")


def test_wy_hat_margin_identity_refines():
    errs = []
    for res in (16, 32):
        g = build_grid("torus", 2, [res] * 2, [2 * np.pi] * 2)
        m = product_metric(g, [lambda xs: (1.4 + 0.3 * np.sin(xs[1])) ** 2, 1.0])
        X = np.zeros((2,) + g.shape)
        X[0] = 1.0
        xs = g.coords()
        u = 0.4 * np.cos(xs[1]) + 0.3 * np.sin(xs[0])
        errs.append(abs(wy_hat_margin_identity(m, u, X)))
    assert errs[1] < errs[0] / 2.5


def test_remark_513_2_pointwise():
    # Rm_L(grad u, Y, Y, grad u) <= Rm(grad u, Y, Y, grad u) everywhere
    grid, m, u = random_instance(2, 16, seed=205)
    cb = curvature(m)
    cpl = Geometry(m, u, 2.0)
    du_up = np.einsum("ij...,j...->i...", m.inv, cpl.du)
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((2,) + grid.shape)
    quad_l = np.einsum("ijkl...,i...,j...,k...,l...->...", sm(cpl), du_up, Y, Y, du_up)
    quad = np.einsum("ijkl...,i...,j...,k...,l...->...", rm4(cb), du_up, Y, Y, du_up)
    assert np.all(quad_l <= quad + 1e-12)


def test_example512_closed_forms():
    out = example512("r", [0.5, 0.3], [0.5, 0.3], [-0.3, 0.5])
    T = np.array([0.5, 0.3])
    Y = np.array([-0.3, 0.5])
    assert abs(out["rm_l"]) < 1e-15
    assert abs(out["rm_wy"] - 2 * T @ T * (Y @ Y)) < 1e-14
    out2 = example512("-r", [0.5, 0.3], [0.5, 0.3], [-0.3, 0.5])
    assert abs(out2["rm_wy"] + 2 * T @ T * (Y @ Y)) < 1e-14
    custom = example512("custom", [0.5, 0.3], [0.5, 0.3], [-0.3, 0.5],
                        phi_prime=lambda r: 1.0, phi_second=lambda r: 0.0)
    assert custom == out


def test_example512_cross_module():
    grid, m = euclidean_chart(2, 96, 3.0)
    u, _ = radial_potential(grid, lambda r: 0.2 * r + 0.05 * r ** 2)
    wb = cpl = Geometry(m, u, 2.0)
    xs = grid.coords()
    rng = np.random.default_rng(7)
    for _ in range(4):
        idx = tuple(rng.integers(20, 76, size=2))
        pt = np.array([xs[0][idx], xs[1][idx]])
        X = rng.standard_normal(2)
        Y = rng.standard_normal(2)
        cf = example512("custom", pt, X, Y,
                        phi_prime=lambda r: 0.2 + 0.1 * r,
                        phi_second=lambda r: 0.1)
        nw = np.einsum("ijkl,i,j,k,l->", wb.rm_wy[(...,) + idx], X, Y, Y, X)
        nl = np.einsum("ijkl,i,j,k,l->", sm(cpl)[(...,) + idx], X, Y, Y, X)
        assert abs(nw - cf["rm_wy"]) < 1e-3
        assert abs(nl - cf["rm_l"]) < 1e-3


def test_scalar_orders_constant_u_exact():
    grid, m, _ = random_instance(2, 16, seed=207)
    u0 = np.full(grid.shape, 1.3)
    for pair in ("RL_vs_R", "R_vs_RWY", "R_eq_RWY_e^u"):
        v = scalar_order(Geometry(m, u0), pair)
        assert v.margin == 0.0, pair


def test_ricci_order_flat_edge_case():
    # flat torus, coordinate field, u varying only transversally:
    # <X, grad u> = 0 and the Hessian integral vanishes, so the
    # Killing-restricted margin is a quadrature zero
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    m = flat_metric(g)
    X = np.zeros((2,) + g.shape)
    X[0] = 1.0
    u = np.sin(g.coords()[1])
    v = ricci_order(m, u, X, "Ric_vs_WY")
    assert abs(v.margin) <= v.tolerance
    assert v.verdict in ("holds", "within-tolerance")


def test_compare_stage_shares_one_geometry_per_instance(tmp_path, monkeypatch):
    import rlab.tensor as tensor
    from rlab.cli import stage_compare
    from rlab.comparison import SCALAR_PAIRS
    from rlab.snapshots import write_verdicts_csv
    cfg = {"grid": {"n": 3, "resolutions": [8] * 3}, "compare": {"instances": 2},
           "seed": 5}
    calls = {"ricci_13": 0, "_connection": 0}
    for name in calls:
        real = getattr(tensor, name)
        def counted(*a, _real=real, _name=name):
            calls[_name] += 1
            return _real(*a)
        monkeypatch.setattr(tensor, name, counted)
    stage_compare(cfg, tmp_path, {}, [], None)
    assert calls == {"ricci_13": 2 * 2, "_connection": 2}
    # the per-pair path (one geometry per pair) writes the same bytes
    per_pair = [scalar_order(Geometry(m, u), pair)
                for _, m, u in (random_instance(3, 8, 5 + i) for i in range(2))
                for pair in SCALAR_PAIRS]
    write_verdicts_csv(tmp_path / "per_pair.csv", per_pair)
    assert ((tmp_path / "verdicts.csv").read_bytes()
            == (tmp_path / "per_pair.csv").read_bytes())


def test_killing_tooling_builds_gamma_and_nabla_x_once(monkeypatch):
    # L_X g is formed from the nabla X_flat each function already holds, and
    # each Geometry makes one Levi-Civita pass whether Gamma or Rm is read first
    import rlab.comparison as comparison
    import rlab.tensor as tensor
    counts = {"_connection": 0, "cov_d": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tensor, "_connection", counted("_connection", tensor._connection))
    monkeypatch.setattr(comparison, "cov_d", counted("cov_d", tensor.cov_d))
    _, m, X = kc_product_t3(8)
    u = np.zeros(m.grid.shape)
    for call, per_call in ((lambda: killing_report(m, X), 1),
                           (lambda: yano_defect(m, X), 1),
                           (lambda: yano_oracle_factor(m, X), 2),
                           (lambda: lemma57_defect(m, u, X), 1)):
        counts.update(_connection=0, cov_d=0)
        call()
        assert counts == {"_connection": per_call, "cov_d": per_call}
