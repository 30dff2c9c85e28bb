import numpy as np
import pytest

from rlab.instances import (conformal_metric, euclidean_chart,
                            perturbed_flat_metric, product_metric,
                            radial_potential, random_instance,
                            stereographic_sphere_chart)
from rlab.mesh import build_grid, flat_metric, grad_stack, interior
from rlab.tensor import Geometry, curvature, norm_sq


def test_christoffel_flat_zero():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    assert np.all(curvature(flat_metric(g)).gamma == 0.0)


def test_christoffel_conformal_oracle():
    # g = e^{2 phi} delta: Gamma^k_{ij} = d^k_i d_j phi + d^k_j d_i phi - delta_ij d^k phi
    g = build_grid("chart", 2, [64, 64], [2.0, 2.0])
    X, Y = g.coords()
    phi = 0.2 * X + 0.1 * X * Y
    m = conformal_metric(g, phi)
    G = curvature(m).gamma
    from rlab.mesh import grad_stack
    dphi = grad_stack(phi, g)
    n = 2
    exact = np.zeros_like(G)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if k == i:
                    exact[k, i, j] += dphi[j]
                if k == j:
                    exact[k, i, j] += dphi[i]
                if i == j:
                    exact[k, i, j] -= dphi[k]
    err = interior(np.abs(G - exact), g, 1).max()
    assert err < 5.0 * max(g.spacing) ** 2


def test_christoffel_diagonal_pattern():
    # diagonal g11(x2) on T^2: only (1,12), (1,21), (2,11) components nonzero
    g = build_grid("torus", 2, [24, 24], [2 * np.pi] * 2)
    m = product_metric(g, [lambda xs: 1.0 + 0.3 * np.sin(xs[1]), 1.0])
    G = curvature(m).gamma
    nonzero = {(k, i, j) for k in range(2) for i in range(2) for j in range(2)
               if np.max(np.abs(G[k, i, j])) > 1e-12}
    assert nonzero == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}


def test_curvature_flat_exact():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    cb = curvature(flat_metric(g))
    for arr in (cb.rm4, cb.rm13, cb.ric, cb.scalar, cb.weyl):
        assert np.all(arr == 0.0)


def test_stereographic_sphere_scalar():
    grid, m = stereographic_sphere_chart(res=128, extent=2.0)
    cb = curvature(m)
    err = np.abs(interior(cb.scalar, grid, 3) - 2.0)
    assert err.max() < 1e-3


def test_weyl_conformal_vanishing_n4():
    g = build_grid("torus", 4, [8] * 4, [2 * np.pi] * 4)
    xs = g.coords()
    phi = 0.05 * np.sin(xs[0] + 2 * xs[1]) + 0.04 * np.cos(xs[1] - xs[2] + xs[3])
    m = conformal_metric(g, phi)
    cb = curvature(m)
    assert np.sqrt(np.max(norm_sq(cb.weyl, m, 0, 4))) < 1e-10
    # and a generic metric has a genuinely nonzero Weyl part
    mg = perturbed_flat_metric(g, {(0, 0): [{"amp": 0.1, "wave": [0, 1, 0, 0]}],
                                   (1, 2): [{"amp": 0.05, "wave": [0, 0, 0, 1]}]})
    assert np.sqrt(np.max(norm_sq(curvature(mg).weyl, mg, 0, 4))) > 1e-3


def test_weyl_zero_in_low_dimensions():
    _, m, _ = random_instance(3, 8, seed=2)
    assert np.all(curvature(m).weyl == 0.0)


def test_riemann_symmetries_exact():
    _, m, _ = random_instance(3, 12, seed=4)
    R = curvature(m).rm4
    assert np.max(np.abs(R + np.swapaxes(R, 0, 1))) < 1e-14
    assert np.max(np.abs(R + np.swapaxes(R, 2, 3))) < 1e-14
    perm = (2, 3, 0, 1) + tuple(range(4, R.ndim))
    assert np.max(np.abs(R - np.transpose(R, perm))) < 1e-14
    b = (R + np.transpose(R, (0, 2, 3, 1) + tuple(range(4, R.ndim)))
         + np.transpose(R, (0, 3, 1, 2) + tuple(range(4, R.ndim))))
    assert np.max(np.abs(b)) < 1e-14


def test_ricci_trace_is_scalar():
    _, m, _ = random_instance(2, 16, seed=5)
    cb = curvature(m)
    assert np.max(np.abs(np.einsum("jk...,jk...->...", m.inv, cb.ric)
                         - cb.scalar)) < 1e-13


def test_curvature_scaling():
    # c^2 g: R scales by c^-2, Rm^(1,3) unchanged, both exactly
    _, m, _ = random_instance(2, 16, seed=6)
    cb = curvature(m)
    c2 = 3.7
    cb2 = curvature(m.scaled(c2))
    assert np.allclose(cb2.rm13, cb.rm13, rtol=0, atol=1e-13)
    assert np.allclose(cb2.scalar, cb.scalar / c2, rtol=0, atol=1e-13)


def test_curvature_n1_zero():
    g = build_grid("torus", 1, [16], [2 * np.pi])
    vals = np.ones((1, 1) + g.shape) * (1.0 + 0.2 * np.sin(g.coords()[0]))
    from rlab.mesh import MetricField
    cb = curvature(MetricField(g, vals))
    assert np.all(cb.rm4 == 0.0) and np.all(cb.ric == 0.0)


# --------------------------------------------------------------------------
# coupled bundle

def test_coupled_flat_sin():
    g = build_grid("torus", 2, [64, 64], [2 * np.pi] * 2)
    m = flat_metric(g)
    x = g.coords()[0]
    cpl = Geometry(m, np.sin(x), 2.0)
    h2 = max(g.spacing) ** 2
    assert np.max(np.abs(cpl.S + 2 * np.cos(x) ** 2)) < 5 * h2
    exact_sic = -2.0 * np.einsum("i...,j...->ij...", cpl.du, cpl.du)
    assert np.max(np.abs(cpl.sic - exact_sic)) < 1e-14


def test_default_geometry_is_the_harmonic_map_coupled_flow():
    # a1 = 2 by default: S = R - 2 |du|^2, bitwise
    _, m, u = random_instance(3, 8, seed=6)
    geo = Geometry(m, u)
    assert (geo.alpha1, geo.beta1, geo.beta2, geo.t) == (2.0, 0.0, 0.0, 0.0)
    assert np.array_equal(geo.S, geo.scalar - 2.0 * geo.grad_sq)


def test_coupled_trace_identities_rounding():
    _, m, u = random_instance(3, 12, seed=7)
    cpl = Geometry(m, u, 1.3, 0.4, -0.2)
    trs = np.einsum("jk...,jk...->...", m.inv, cpl.sic)
    assert np.max(np.abs(trs - cpl.S)) < 1e-12
    smtr = np.einsum("kl...,iklj...->ij...", m.inv, cpl.sm)
    assert np.max(np.abs(smtr - cpl.sic)) < 1e-12
    trsin = np.einsum("jk...,jk...->...", m.inv, cpl.sin)
    assert np.max(np.abs(trsin)) < 1e-12


def test_coupled_xi_specialization():
    _, m, u = random_instance(2, 16, seed=8)
    cpl0 = Geometry(m, u, 2.0, 0.0, 0.0)
    assert np.max(np.abs(cpl0.xi - cpl0.lap_u * cpl0.hess)) < 1e-14


# --------------------------------------------------------------------------
# weighted-connection curvature

def test_wy_constant_u_exact():
    _, m, _ = random_instance(2, 16, seed=10)
    cb = curvature(m)
    wb = Geometry(m, np.zeros(m.grid.shape), 2.0)
    from rlab.tensor import lower_rm, riemann_13
    ref = lower_rm(riemann_13(cb.gamma, m.grid), m)
    assert np.array_equal(wb.rm_wy, ref)
    assert np.max(np.abs(wb.sic - cb.ric)) < 1e-15
    assert np.max(np.abs(wb.ric_wy - np.einsum("il...,ijkl...->jk...", m.inv, ref))) < 1e-15


def test_wy_bundle_invariants():
    grid, m, u = random_instance(3, 16, seed=11)
    cb = curvature(m)
    wb = Geometry(m, u, 2.0)
    du = np.stack([np.gradient(u, axis=a) for a in range(3)]) * 0  # placeholder
    from rlab.mesh import grad_stack
    du = grad_stack(u, grid)
    assert np.max(np.abs(wb.sic - (cb.ric - 2 * np.einsum("i...,j...->ij...", du, du)))) < 1e-14
    trw = np.einsum("jk...,jk...->...", m.inv, wb.ric_wy)
    assert np.max(np.abs(trw - wb.scalar_wy)) < 1e-12
    # hat-trace relation holds pointwise at second order
    from rlab.tensor import hessian
    H = hessian(u, grid, cb.gamma_p, du)
    lap = np.einsum("ij...,ij...->...", m.inv, H)
    gsq = np.einsum("ij...,i...,j...->...", m.inv, du, du)
    rhs = ((lap + gsq) * m.values
           - 3 * (H + np.einsum("i...,j...->ij...", du, du)))
    defect = wb.ric_wy_hat - wb.ric_wy - rhs
    assert np.max(np.abs(defect)) < 10 * max(grid.spacing) ** 2


def test_geometry_hessian_equals_hessian_of_a_fresh_gradient():
    # Geometry.hess reads Geometry.du and equals the Hessian of a freshly
    # formed gradient bitwise
    from rlab.tensor import hessian
    grid, m, u = random_instance(3, 8, seed=4)
    geo = Geometry(m, u)
    assert np.array_equal(geo.hess, hessian(u, grid, geo.gamma_p, grad_stack(u, grid)))


def test_wy_example_radial_signs():
    # Euclidean chart, u = phi(|x|^2): the weighted pairing flips sign with phi
    grid, m = euclidean_chart(2, 96, 3.0)
    for kind, sign in (("r", 1.0), ("-r", -1.0)):
        u, _ = radial_potential(grid, lambda r, s=sign: s * r)
        wb = cpl = Geometry(m, u, 2.0)
        idx = (60, 70)
        xs = grid.coords()
        T = np.array([xs[0][idx], xs[1][idx]])
        Y = np.array([-T[1], T[0]])
        wy_val = np.einsum("ijkl,i,j,k,l->", wb.rm_wy[(...,) + idx], T, Y, Y, T)
        l_val = np.einsum("ijkl,i,j,k,l->", cpl.sm[(...,) + idx], T, Y, Y, T)
        expect = 2.0 * sign * np.dot(T, T) * np.dot(Y, Y)
        assert abs(wy_val - expect) < 1e-10
        assert abs(l_val) < 1e-10


def test_remark_513_pointwise():
    # Rm_L(X,X,X,X) = -2 <X, grad u>^2 |X|^2 <= 0
    grid, m, u = random_instance(2, 16, seed=12)
    cpl = Geometry(m, u, 2.0)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((2,) + grid.shape)
    quad = np.einsum("ijkl...,i...,j...,k...,l...->...", cpl.sm, X, X, X, X)
    xdu = np.einsum("i...,i...->...", X, cpl.du)
    xsq = np.einsum("ij...,i...,j...->...", m.values, X, X)
    assert np.max(np.abs(quad + 2 * xdu ** 2 * xsq)) < 1e-11
    assert np.all(quad <= 1e-11)


def test_bundle_invariants_randomized_instances():
    # quantified over seeded smooth instances: the stored-bundle trace and
    # symmetry relations hold at rounding, the weighted-trace relation and
    # the first-pair coupled-curvature relation at second order
    for seed in (41, 42, 43, 44, 45):
        grid, m, u = random_instance(3, 10, seed)
        cpl = Geometry(m, u, 1.2, 0.3, -0.1)
        assert np.max(np.abs(np.einsum("jk...,jk...->...", m.inv, cpl.sic)
                             - cpl.S)) < 1e-12
        assert np.max(np.abs(np.einsum("kl...,iklj...->ij...", m.inv, cpl.sm)
                             - cpl.sic)) < 1e-12
        assert np.max(np.abs(np.einsum("jk...,jk...->...", m.inv, cpl.sin))) < 1e-12
        wb = Geometry(m, u, 2.0)
        trw = np.einsum("jk...,jk...->...", m.inv, wb.ric_wy)
        assert np.max(np.abs(trw - wb.scalar_wy)) < 1e-12
        assert np.max(np.abs(wb.sic - np.swapaxes(wb.sic, 0, 1))) < 1e-12
        from rlab.identities import lemma52_defects
        d = lemma52_defects(m, u)
        h2 = max(grid.spacing) ** 2
        for key, field in d.items():
            assert np.max(np.abs(field)) < 5.0 * h2, (seed, key)


def _riemann_four_index(m, G):
    """Independent reference: R_{ijkl} from the four-index compact formula
    R_{ijkl} = (1/2)(d_i d_k g_{jl} + d_j d_l g_{ik} - d_i d_l g_{jk} - d_j d_k g_{il})
               + g_{pq}(Gamma^p_{ik} Gamma^q_{jl} - Gamma^p_{jk} Gamma^q_{il})."""
    from rlab.mesh import diff1, diff2
    grid, n = m.grid, m.n
    ddg = np.empty((n, n) + m.values.shape)
    for i in range(n):
        ddg[i, i] = diff2(m.values, grid, i)
        for j in range(i + 1, n):
            ddg[i, j] = ddg[j, i] = diff1(diff1(m.values, grid, j), grid, i)
    R = 0.5 * (np.einsum("ikjl...->ijkl...", ddg) + np.einsum("jlik...->ijkl...", ddg)
               - np.einsum("iljk...->ijkl...", ddg) - np.einsum("jkil...->ijkl...", ddg))
    gG = np.einsum("pq...,qjl...->pjl...", m.values, G)
    R += np.einsum("pik...,pjl...->ijkl...", G, gG)
    R -= np.einsum("pjk...,pil...->ijkl...", G, gG)
    return R


def _christoffel_n2(m):
    """Reference: the n^2-component formula, differentiating every g_{ij} and
    contracting the full n^4 product in one einsum."""
    from rlab.mesh import grad_stack
    dg = grad_stack(m.values, m.grid)                      # dg[a,i,j] = d_a g_{ij}
    term = (dg + np.moveaxis(dg, [0, 1, 2], [1, 0, 2])
            - np.moveaxis(dg, [0, 1, 2], [2, 0, 1]))
    return 0.5 * np.einsum("kl...,ijl...->kij...", m.inv, term)


def _chart_metric(n, res):
    from rlab.mesh import MetricField
    grid = build_grid("chart", n, [res] * n, [1.5] * n)
    x = grid.coords()
    vals = np.zeros((n, n) + grid.shape)
    for i in range(n):
        vals[i, i] = 1.0 + 0.2 * np.sin(x[i] + 0.3) + 0.1 * x[0] ** 2
        for j in range(i):
            vals[i, j] = vals[j, i] = 0.05 * np.cos(x[i] * x[j])
    return MetricField(grid, vals)


def test_christoffel_bitwise_matches_full_formula():
    # Gamma comes from the n(n+1)/2 first derivatives of g through the
    # first-kind symbols; alone or with R_AB it equals the n^2 formula bitwise
    for n, res in ((1, 16), (2, 16), (3, 10), (4, 8)):
        for m in (random_instance(n, res, seed=3)[1], _chart_metric(n, 7)):
            ref = _christoffel_n2(m)
            G = curvature(m).gamma
            assert G.flags.c_contiguous and np.array_equal(G, ref), (n, m.grid.kind)
            geo = curvature(m)
            geo.rm_ab
            assert "gamma" not in vars(geo) and np.array_equal(geo.gamma, ref), n


def _gathered_connection(m):
    """(dg, Gamma_{l,P}, Gamma^k_P) with Gamma_{l,P} gathered from dg by
    fancy indexing in one expression."""
    n = m.n
    pa, pb = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.intp)
    sym[pa, pb] = sym[pb, pa] = np.arange(len(pa))
    ls = np.arange(n)[:, None]
    dg = grad_stack(m.values[pa, pb], m.grid)
    gl = 0.5 * (dg[pa, sym[pb, ls]] + dg[pb, sym[pa, ls]] - dg)
    return dg, gl, np.einsum("kl...,lp...->kp...", m.inv, gl)


def _gathered_norm_sq(rab, m):
    """|Rm|^2 = 4 tr(G R G R) with G^{AB} gathered from g^-1 in one expression."""
    bi, bj = np.triu_indices(m.n, 1)
    i, j, gi = bi[:, None], bj[:, None], m.inv
    G = gi[i, bi] * gi[j, bj] - gi[i, bj] * gi[j, bi]
    X = np.einsum("ab...,bc...->ac...", G, rab)
    return 4.0 * np.einsum("ab...,ba...->...", X, X)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_connection_and_norm_sq_equal_their_gather_forms_bitwise(n):
    # Gamma_{l,P} written pair by pair and G^{AB} entry by entry keep the
    # float operations of the gathers, in their order
    from rlab.tensor import _connection, riemann_norm_sq
    for seed in (1, 2):
        _, m, u = random_instance(n, 8 if n > 2 else 12, seed)
        for got, ref in zip(_connection(m), _gathered_connection(m)):
            assert np.array_equal(got, ref)
        rab = Geometry(m, u).rm_ab
        assert np.array_equal(riemann_norm_sq(rab, m), _gathered_norm_sq(rab, m))


def _stacked_sum_rab(m):
    """R_AB with every sum d_P g_Q + d_Q g_P, P <= Q, built into one stack
    first (the stored d_P g_Q, then the added d_Q g_P), then read by F."""
    from rlab.mesh import diff1, diff2
    from rlab.tensor import _connection
    n, grid = m.n, m.grid
    dg, gl, gam = _connection(m)
    pa, pb = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.intp)
    sym[pa, pb] = sym[pb, pa] = np.arange(len(pa))

    def d(P, Q):
        a, b = pa[P], pb[P]
        return (diff2(m.values[pa[Q], pb[Q]], grid, a) if a == b
                else diff1(dg[b, Q], grid, a))

    sums = {(P, Q): d(P, Q) + d(Q, P) for P in range(len(pa)) for Q in range(P, len(pa))}
    stack = np.stack(list(sums.values()))
    at = {PQ: s for s, PQ in enumerate(sums)}

    def F(P, Q):
        f = stack[at[min(P, Q), max(P, Q)]] * 0.5
        for p in range(n):
            f += gam[p, P] * gl[p, Q]
        return f

    bi, bj = np.triu_indices(n, 1)
    R = np.empty((len(bi),) * 2 + grid.shape)
    for A in range(len(bi)):
        for B in range(A, len(bi)):
            i, j, k, l = bi[A], bj[A], bi[B], bj[B]
            R[A, B] = R[B, A] = F(sym[i, k], sym[j, l]) - F(sym[i, l], sym[j, k])
    return R


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rab_streams_its_sums_bitwise_within_three_grid_arrays(n):
    # each sum d_P g_Q + d_Q g_P is formed in F as F reads it: R_AB equals the
    # stacked-sum form bit for bit, and the build allocates R_AB and at most
    # three grid arrays besides (the two F entries and one term), with 32 KiB
    # for the buffers numpy's iterator takes on a strided edge-layer stencil
    import tracemalloc
    from rlab.tensor import _connection, riemann_bivector
    for seed in (1, 2):
        _, m, u = random_instance(n, 8 if n > 2 else 12, seed)
        conn = _connection(m)
        riemann_bivector(m, *conn)      # fills the stencil plan caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rab = riemann_bivector(m, *conn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= rab.nbytes + 3 * u.nbytes + 32768, n
        assert np.array_equal(rab, _stacked_sum_rab(m))


def test_direct_ricci_matches_contraction():
    for n, res in ((2, 16), (3, 10), (4, 8)):
        _, m, _ = random_instance(n, res, seed=11)
        cb = curvature(m)
        R, ref = cb.rm4, _riemann_four_index(m, curvature(m).gamma)
        assert np.max(np.abs(R - ref)) <= 1e-13 * np.max(np.abs(ref)), n
        traced = np.einsum("il...,ijkl...->jk...", m.inv, R)
        assert np.max(np.abs(cb.ric - traced)) <= 1e-13 * np.max(np.abs(cb.ric)), n
        # both pair antisymmetries and pair exchange hold bitwise
        rest = tuple(range(4, R.ndim))
        assert np.array_equal(R, -np.swapaxes(R, 0, 1)), n
        assert np.array_equal(R, -np.swapaxes(R, 2, 3)), n
        assert np.array_equal(R, np.transpose(R, (2, 3, 0, 1) + rest)), n


def test_curvature_n1_norms_zero():
    g = build_grid("torus", 1, [16], [2 * np.pi])
    vals = np.ones((1, 1) + g.shape) * (1.0 + 0.2 * np.sin(g.coords()[0]))
    from rlab.mesh import MetricField
    cb = curvature(MetricField(g, vals))
    assert cb.rm_ab.shape == (0, 0) + g.shape
    assert np.all(cb.rm_sq == 0.0) and np.all(cb.weyl == 0.0)


def test_flow_and_diagnostics_never_unpack_rm4():
    from rlab.flow import FlowParams, _diagnose, cfl_dt, flow_rhs
    from rlab.tensor import Geometry
    grid, m, u = random_instance(4, 8, seed=13)
    params = FlowParams(alpha1=2.0)
    geo = Geometry(m, u)
    flow_rhs(geo)
    cfl_dt(geo, 1.0)
    assert "rm_ab" in vars(geo) and "rm4" not in vars(geo)
    cpl = Geometry(m, u, params.alpha1)
    _diagnose(cpl, 0.0, 1e-3)
    assert "rm_sq" in vars(cpl) and "rm4" not in vars(cpl)


def test_flow_and_diagnostics_never_unpack_gamma():
    # the flow reads Gamma^k_P on the symmetric pairs; the full Gamma^k_ij is
    # unpacked only for the callers that index it
    from rlab.flow import FlowParams, _diagnose, cfl_dt, flow_rhs
    grid, m, u = random_instance(4, 8, seed=13)
    params = FlowParams(alpha1=2.0)
    geo = Geometry(m, u, params.alpha1)
    flow_rhs(geo)
    cfl_dt(geo, 1.0)
    _diagnose(geo, 0.0, 1e-3)
    assert "gamma_p" in vars(geo) and "gamma" not in vars(geo)


@pytest.mark.parametrize("first", ["gamma", "rm_ab"])
def test_geometry_drops_its_connection_pass_after_rm_ab(first):
    # gamma and rm_ab read one Levi-Civita pass; none of its arrays but
    # Gamma^k_P on the symmetric pairs outlive the curvature build, whichever
    # field is read first
    from rlab.tensor import Geometry, _connection, riemann_bivector
    _, m, u = random_instance(3, 8, seed=14)
    geo = Geometry(m, u)
    getattr(geo, first)
    assert ("_conn" in vars(geo)) == (first == "gamma")
    geo.rm_ab
    assert "_conn" not in vars(geo)
    assert np.array_equal(geo.gamma, curvature(m).gamma)
    assert np.array_equal(geo.rm_ab, riemann_bivector(m, *_connection(m)[:3]))


def test_lazy_curvature_parts_match_eager_formulas():
    from rlab.tensor import weyl_tensor
    _, m, _ = random_instance(4, 8, seed=12)
    cb = curvature(m)
    assert "rm13" not in vars(cb) and "weyl" not in vars(cb)
    assert np.array_equal(cb.rm13, np.einsum("lm...,ijkm...->lijk...", m.inv, cb.rm4))
    assert np.array_equal(cb.weyl, weyl_tensor(cb.rm4, cb.ric, cb.scalar, m))
    assert cb.weyl is cb.weyl     # computed once, then cached


def _traced_nabla_nabla(vals, grid, gamma, metric, con, cov):
    """The rough Laplacian in two passes: nabla nabla T whole, then traced."""
    from rlab.tensor import cov_d
    D2 = cov_d(cov_d(vals, grid, gamma, con, cov), grid, gamma, con, cov + 1)
    return np.einsum("ab...,ab...->...", metric.inv, np.moveaxis(D2, (con, con + 1), (0, 1)))


@pytest.mark.parametrize("con, cov", [(0, 0), (1, 0), (0, 2), (0, 4), (1, 3)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_rough_laplacian_streams_its_slices_bitwise(n, con, cov):
    # summed one slice (nabla_a nabla T)_b at a time, a-major, b-minor, the
    # Laplacian equals the trace of the whole nabla nabla T bitwise; from
    # n = 3 on, a tensor's traced peak stays under half the two-pass one
    import tracemalloc
    from rlab.tensor import rough_laplacian
    _, m, u = random_instance(n, 8 if n > 2 else 12, seed=3)
    f = Geometry(m, u)
    T = {(0, 0): f.u, (1, 0): f.du_up, (0, 2): f.hess, (0, 4): f.rm4,
         (1, 3): f.rm13}[con, cov]
    args = (T, m.grid, f.gamma, m, con, cov)
    peaks, got = [], []
    for form in (_traced_nabla_nabla, rough_laplacian):
        tracemalloc.start()
        try:
            got.append(form(*args))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(got[1], got[0])
    if n > 2 and con + cov > 0:
        assert peaks[1] < 0.5 * peaks[0], peaks
