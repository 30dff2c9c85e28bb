"""The readers that work on the independent components of the curvature,
each against its 4-tensor oracle at n = 2, 3 and 4: the Rm.X contractions of
A.2/A.5, the A.6 residual on R_AB, A.11-A.13 on R^l_{Ak} and its nabla, the
3.12 right side, the uniqueness T and U (their norms, 6.50's trace, 6.53's
bound and residual), Weyl on bivectors, and the Ricci traces of the
Gamma-form curvatures.  The oracles are the 4-tensor forms these readers
replaced (``oracles``)."""

import numpy as np
import pytest

from oracles import rm4, rm13, sm, weyl
from rlab.cli import twin_from
from rlab.comparison import SCALAR_PAIRS, scalar_order
from rlab.flow import FlowParams, FlowState, _geometry, step
from rlab.identities import (REGISTRY, bound_T, evaluate_identity,
                             residual_field, rhs_gamma, rhs_h, rhs_sic)
from rlab.instances import random_instance
from rlab.tensor import (Geometry, cov_d, max_norm, norm_sq, raise_index, ricci,
                         rough_laplacian)
from rlab.uniqueness import difference_bundle, energy

DIMS = [(2, 12), (3, 8), (4, 8)]
ROUNDING = 1e-13          # relative to the largest entry of the oracle


def close(got, want):
    return np.max(np.abs(got - want)) <= ROUNDING * np.max(np.abs(want))


def packed(rm4, n):
    """X_AB of a 4-tensor on bivectors A = (i<j), B = (k<l)."""
    bi, bj = np.triu_indices(n, 1)
    return rm4[bi, bj][:, bi, bj]


def window(n, res, seed=3, perturb=False):
    """Geometries of snapshots 0, 1, 2 of a short rk4 flow of a random
    instance, or of its twin (``cli.twin_from``) with ``perturb``."""
    grid, m, u = random_instance(n, res, seed)
    if perturb:
        grid, m, u = twin_from({"uniqueness": {"delta": 1e-2}}, grid, m, u)
    state, params = FlowState(grid, m, u), FlowParams(2.0)
    frames = [_geometry(state, params)]
    for _ in range(2):
        state = step(state, params, 1e-3)
        frames.append(_geometry(state, params))
    return frames


def rhs_rm4_oracle(f):
    """d/dt R_ijkl beside its Laplacian, as a 4-tensor."""
    up = raise_index(raise_index(rm4(f), f.metric, 1), f.metric, 3)  # R_i{}^r{}_j{}^s
    B = -np.einsum("irjs...,krls...->ijkl...", up, rm4(f))
    rest = tuple(range(4, B.ndim))
    out = 2.0 * (B - np.swapaxes(B, 2, 3) - np.transpose(B, (0, 2, 3, 1) + rest)
                 + np.transpose(B, (0, 2, 1, 3) + rest))
    for sub in ("ip...,pjkl...", "jp...,ipkl...", "kp...,ijpl...", "lp...,ijkp..."):
        out -= np.einsum(f"{sub}->ijkl...", f.ric_mixed, rm4(f))
    out += 2.0 * f.alpha1 * (np.einsum("il...,jk...->ijkl...", f.hess, f.hess)
                             - np.einsum("ik...,jl...->ijkl...", f.hess, f.hess))
    return out


def rhs_rm13_oracle(f):
    """d/dt R^l_{ijk}: its Laplacian, the raised A.6 right side and the
    metric's motion (d/dt g^{lm}) R_{ijkm}, as (1,3) tensors."""
    lap = rough_laplacian(rm13(f), f.grid, f.gamma, f.metric, 1, 3)
    dginv = 2.0 * f.ric_up - 2.0 * f.alpha1 * np.einsum("l...,m...->lm...", f.du_up, f.du_up)
    return (lap + np.einsum("lm...,ijkm...->lijk...", f.ginv, rhs_rm4_oracle(f))
            + np.einsum("lm...,ijkm...->lijk...", dginv, rm4(f)))


def grad_rm13_oracle(f):
    """nabla_a R^l_{ijk}, axes [l, a, i, j, k]."""
    return cov_d(rm13(f), f.grid, f.gamma, 1, 3)


def rhs_grad_rm13_oracle(f):
    """d/dt nabla_a R^l_{ijk}: nabla of A.12's right side plus d/dt Gamma on
    each of the four indices."""
    dtG, W = rhs_gamma(f), rm13(f)
    out = cov_d(rhs_rm13_oracle(f), f.grid, f.gamma, 1, 3)
    out += np.einsum("lap...,pijk...->laijk...", dtG, W)
    out -= np.einsum("pai...,lpjk...->laijk...", dtG, W)
    out -= np.einsum("paj...,lipk...->laijk...", dtG, W)
    out -= np.einsum("pak...,lijp...->laijk...", dtG, W)
    return out


@pytest.mark.parametrize("n, res", DIMS)
def test_rm_x_contractions_match_the_4_tensor(n, res):
    # R_pijq X^pq for the symmetric X that A.2 and A.5 contract
    _, m, u = random_instance(n, res, seed=3)
    f = Geometry(m, u)
    for X in (m.inv, f.ric_up, f.hess_up, np.einsum("p...,q...->pq...", f.du_up, f.du_up)):
        assert close(ricci(f.rm_ab, X), np.einsum("pijq...,pq...->ij...", rm4(f), X))
    assert np.array_equal(ricci(f.rm_ab, m.inv), f.ric)


@pytest.mark.parametrize("n, res", DIMS)
@pytest.mark.parametrize("ident", ["A.6", "C.5"])
def test_a6_residual_on_bivectors_matches_the_4_tensor(n, res, ident):
    frames = window(n, res)
    f0 = frames[1]
    if ident == "C.5":                  # the general parameters reach the H^H term
        frames = [Geometry(f.metric, f.u, 1.0, 0.0, 0.5, f.t) for f in frames]
        f0 = frames[1]
    res_ab = residual_field(REGISTRY[ident], frames)[0]
    lap = rough_laplacian(rm4(f0), f0.grid, f0.gamma, f0.metric, 0, 4)
    want = ((rm4(frames[2]) - rm4(frames[0])) / (frames[2].t - frames[0].t)
            - rhs_rm4_oracle(f0) - lap)
    scale = max(np.max(np.abs(lap)), np.max(np.abs(rhs_rm4_oracle(f0))))
    assert np.max(np.abs(res_ab - packed(want, n))) <= ROUNDING * scale
    # the norm on bivectors is the norm of the 4-tensor
    nsq = norm_sq(want, f0.metric, 0, 4)
    assert close(norm_sq(res_ab, f0.metric, 0, 2, (0, 1)), nsq)
    rep = evaluate_identity(frames, ident, 1e-3)
    assert rep.max_res == pytest.approx(np.sqrt(np.max(nsq)), rel=ROUNDING)


@pytest.mark.parametrize("n, res", DIMS)
def test_uniqueness_t_keeps_one_antisymmetric_pair(n, res):
    f1, f2 = window(n, res)[1], window(n, res, perturb=True)[1]
    b = difference_bundle(f1, f2)
    T13 = rm13(f1) - rm13(f2)
    bi, bj = np.triu_indices(n, 1)
    assert b.T.shape[:3] == (n, len(bi), n)
    assert close(b.T, T13[:, bi, bj])
    assert close(b.norm_sq("T"), norm_sq(T13, b.metric, 1, 3))
    # 6.50's trace of T and 6.53's max norm read the same form
    w, du2, a1 = b.w, f2.du, f1.alpha1
    want = (-2.0 * np.einsum("llij...->ij...", T13)
            + 2.0 * a1 * (np.einsum("i...,j...->ij...", w, w + du2)
                          + np.einsum("j...,i...->ij...", w, du2)))
    assert close(rhs_h(b), want)
    m = b.metric
    bound = (max_norm(b.h, m, 0, 2) + max_norm(b.A, m, 1, 2) + max_norm(b.B, m, 1, 3)
             + max_norm(T13, m, 1, 3) + max_norm(b.w, m, 0, 1) + max_norm(b.y, m, 0, 2))
    assert bound_T(b) == pytest.approx(bound, rel=ROUNDING)


@pytest.mark.parametrize("n, res", DIMS)
def test_t_residual_of_6_53_matches_the_4_tensor(n, res):
    ones, twins = window(n, res), window(n, res, perturb=True)
    frames = [difference_bundle(f, g) for f, g in zip(ones, twins)]
    b0 = frames[1]
    got = residual_field(REGISTRY["6.53"], frames)[0]
    T13 = [rm13(f) - rm13(g) for f, g in zip(ones, twins)]
    lap = rough_laplacian(T13[1], b0.grid, b0.gamma, b0.metric, 1, 3)
    want = (T13[2] - T13[0]) / (frames[2].t - frames[0].t) - lap
    bi, bj = np.triu_indices(n, 1)
    assert np.max(np.abs(got - want[:, bi, bj])) <= ROUNDING * np.max(np.abs(lap))
    assert close(norm_sq(got, b0.metric, 1, 2, (1,)), norm_sq(want, b0.metric, 1, 3))


@pytest.mark.parametrize("n, res", DIMS)
def test_gamma_form_ricci_traces_match_the_4_tensor(n, res):
    _, m, u = random_instance(n, res, seed=5)
    f = Geometry(m, u)
    for ric, rm in ((f.ric_ref, f.rm_ref), (f.ric_wy, f.rm_wy)):
        assert close(ric, np.einsum("il...,ijkl...->jk...", m.inv, rm))
    assert close(f.ric_wy_hat, np.einsum("il...,jilk...->jk...", m.inv, f.rm_wy))


@pytest.mark.parametrize("n, res", DIMS)
@pytest.mark.parametrize("ident", ["A.11", "A.12", "A.13"])
def test_a11_to_a13_on_bivectors_match_the_4_tensor(n, res, ident):
    # R^l_{Ak} and nabla_a R^l_{Ak} against R^l_{ijk} and its nabla: the
    # residual field packed on the first pair, its norm and the report
    frames = window(n, res)
    f0, (fm, fp) = frames[1], frames[::2]
    quantity, rhs, axis = {"A.11": (rm13, None, 1), "A.12": (rm13, rhs_rm13_oracle, 1),
                           "A.13": (grad_rm13_oracle, rhs_grad_rm13_oracle, 2)}[ident]
    got = residual_field(REGISTRY[ident], frames)[0]
    dq = (quantity(fp) - quantity(fm)) / (fp.t - fm.t)
    want = dq if rhs is None else dq - rhs(f0)
    scale = np.max(np.abs(dq if rhs is None else rhs(f0)))
    bi, bj = np.triu_indices(n, 1)
    packed_want = want[(slice(None),) * axis + (bi, bj)]
    assert np.max(np.abs(got - packed_want)) <= ROUNDING * scale
    nsq = norm_sq(want, f0.metric, 1, axis + 2)
    assert close(norm_sq(got, f0.metric, 1, axis + 1, (axis,)), nsq)
    rep = evaluate_identity(frames, ident, 1e-3)
    assert rep.max_res == pytest.approx(np.sqrt(np.max(nsq)), rel=ROUNDING)
    if ident == "A.11":     # the bound reads |Rm| off R_AB; here it is normed as R_ijkl
        m = f0.metric
        rmn = max_norm(rm4(f0), m, 0, 4)
        bound = (max_norm(cov_d(f0.grad_ric, f0.grid, f0.gamma, 0, 3), m, 0, 4)
                 + max_norm(f0.ric, m, 0, 2) * rmn + float(np.max(f0.hess_sq))
                 + rmn * float(np.max(f0.grad_sq)))
        assert rep.bound == pytest.approx(bound, rel=ROUNDING)


@pytest.mark.parametrize("n, res", DIMS)
@pytest.mark.parametrize("params", [(2.0, 0.0, 0.0), (1.3, 0.4, -0.2)])
def test_3_12_right_side_matches_the_sm_contraction(n, res, params):
    _, m, u = random_instance(n, res, seed=7)
    f = Geometry(m, u, *params)
    a1, b1, b2 = params
    want = 2.0 * np.einsum("kijl...,kl...->ij...", sm(f), f.sic_up)
    want -= 2.0 * np.einsum("ik...,jk...->ij...", f.sic, f.sic_mixed)
    want += 2.0 * a1 * f.lap_u * f.hess
    want -= 2.0 * a1 * b2 * np.einsum("i...,j...->ij...", f.du, f.du)
    mix = np.einsum("k...,i...,jk...->ij...", f.du_up, f.du, f.hess)
    want -= 2.0 * a1 * b1 * (mix + np.swapaxes(mix, 0, 1))
    assert close(rhs_sic(f), want)


@pytest.mark.parametrize("n, res", DIMS)
def test_uniqueness_u_keeps_one_antisymmetric_pair(n, res):
    f1, f2 = window(n, res)[1], window(n, res, perturb=True)[1]
    b = difference_bundle(f1, f2)
    U = grad_rm13_oracle(f1) - grad_rm13_oracle(f2)
    bi, bj = np.triu_indices(n, 1)
    assert b.U.shape[:4] == (n, n, len(bi), n)
    assert close(b.U, U[:, :, bi, bj])
    assert close(b.norm_sq("U"), norm_sq(U, b.metric, 1, 4))


@pytest.mark.parametrize("n, res", DIMS)
def test_weyl_on_bivectors_matches_the_4_tensor(n, res):
    _, m, u = random_instance(n, res, seed=9)
    f = Geometry(m, u)
    want = weyl(f)
    if n < 4:           # identically zero, as is the 4-tensor
        assert np.all(want == 0.0) and np.all(f.weyl == 0.0)
        return
    assert close(f.weyl, packed(want, n))
    assert close(norm_sq(f.weyl, m, 0, 2, (0, 1)), norm_sq(want, m, 0, 4))


def test_verify_uniqueness_and_compare_readers_never_unpack_rm4():
    # every registry entry but Lemma 5.2's on a 3-D window, an energy row, U
    # and scalar_order work on R_AB and on Gamma: no geometry holds a 4-tensor
    # of the curvature
    frames = window(3, 8)
    twins = window(3, 8, perturb=True)
    bundles = [difference_bundle(f, g) for f, g in zip(frames, twins)]
    for ident, entry in REGISTRY.items():      # Lemma 5.2's 5.7-5.15 are not entries
        evaluate_identity(bundles if entry.pair else frames, ident, 1e-3)
    b = bundles[1]
    energy(b), b.norms(), b.U
    geo = Geometry(*random_instance(3, 8, seed=6)[1:])
    for pair in SCALAR_PAIRS:
        scalar_order(geo, pair)
    for f in (*frames, *twins, geo):
        assert not {"rm4", "rm13", "sm", "rm_ref", "rm_wy"} & set(vars(f)), sorted(vars(f))
