"""Pointwise differential geometry on structured grids.

Curvature convention.  The (1,3) curvature is

    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                + Gamma^p_{jk} Gamma^l_{ip} - Gamma^p_{ik} Gamma^l_{jp},

lowered on the last slot, R_{ijkl} = g_{lm} R^m_{ijk}, and traced as
Ric_{jk} = g^{il} R_{ijkl}.  The sign is pinned by the requirement that the
round sphere has positive scalar curvature (the stereographic oracle in the
tests).  Gamma and R_AB, Rm as a symmetric matrix on bivectors A = (i<j)
(Hamilton, J. Differential Geom. 24 (1986)), come from one pass over the
n(n+1)/2 first derivatives of g, through the first-kind Christoffel symbols.
The pass keeps Gamma^k_P on the symmetric pairs P; the full Gamma^k_ij is
unpacked from it only for the callers that index it, never for the flow.
Pair exchange and both pair antisymmetries are exact, first Bianchi holds to
rounding.  Ric, |Rm|^2, the contractions R_pijq X^pq (``ricci``), R^l_{Ak}
(``raise_last``), Weyl, Hamilton's quadratic term (``rm_quadratic``) and the
action of a (1,1) field or of Gamma on a bivector index (``bivector_action``)
are read off R_AB without a 4-tensor; ``cov_d``, ``rough_laplacian`` and
``norm_sq`` take an index that holds an antisymmetric pair as bivectors.

The weighted-connection curvature is computed directly from the
connection coefficients of nabla^u_X Y = nabla_X Y - (Yu)X - (Xu)Y, which
gives an independent differentiation path against which the algebraic
relations between the curvature variants are tested.

``Geometry`` holds every derived field of one pair (g, u) at the flow
parameters (a1, b1, b2) and a time t, each built once on first use; the
flow, the identities, the comparisons and the functionals all read it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .mesh import Grid, MetricField, diff1, diff2, flat_divergence, grad_stack

_LETTERS = "bcdefgh"   # component index letters; 'a' reserved for the derivative


# --------------------------------------------------------------------------
# connection and curvature

def riemann_13(gamma: np.ndarray, grid: Grid) -> np.ndarray:
    """R^l_{ijk} from the connection coefficients (any connection)."""
    dG = grad_stack(gamma, grid)                   # [a,l,i,j] -> d_a G^l_{ij}
    R = (np.moveaxis(dG, [0, 1, 2, 3], [1, 0, 2, 3])   # d_i G^l_{jk} -> [l,i,j,k]
         - np.moveaxis(dG, [0, 1, 2, 3], [2, 0, 1, 3]))
    R += np.einsum("pjk...,lip...->lijk...", gamma, gamma)
    R -= np.einsum("pik...,ljp...->lijk...", gamma, gamma)
    return R


def ricci_13(gamma: np.ndarray, grid: Grid) -> np.ndarray:
    """Ric_{jk} = R^i_{ijk} of ``riemann_13``, traced as it is formed:
    d_i G^i_{jk} - d_j G^i_{ik} + G^p_{jk} G^i_{ip} - G^p_{ik} G^i_{jp}."""
    tr = np.einsum("iip...->p...", gamma)               # G^i_{ip}
    ric = sum(diff1(gamma[i], grid, i) for i in range(grid.n)) - grad_stack(tr, grid)
    ric += np.einsum("pjk...,p...->jk...", gamma, tr)
    ric -= np.einsum("pik...,ijp...->jk...", gamma, gamma)
    return ric


@lru_cache(maxsize=None)
def _bivectors(n: int) -> SimpleNamespace:
    """Index tables of R_AB in dimension n, built once: symmetric pairs P =
    (a<=b) (``pa, pb``, numbered by ``sym``), per [l, P] of Gamma_{l,P} the
    entries (a, (b, l)) and (b, (a, l)) of d_c g_Q it adds (``first``),
    bivectors A = (i<j) (``bi, bj``), the bivector of any pair (``biv``) and
    its sign, 0 on i = j (``sgn``), per entry A <= B the pairs of F in
    R_{ijkl} = F_{(ik)(jl)} - F_{(il)(jk)} as (A, B, ((P, Q), (P, Q)))
    (``terms``), and per Ric_jk, j <= k, its nonzero terms g^{il} R_{ijkl}
    as (sign, i, l, A, B) (``trace``)."""
    sym = np.empty((n, n), dtype=np.intp)
    pa, pb = np.triu_indices(n)
    sym[pa, pb] = sym[pb, pa] = np.arange(len(pa))
    bi, bj = np.triu_indices(n, 1)
    A, B = np.triu_indices(len(bi))
    i, j, k, l = bi[A], bj[A], bi[B], bj[B]
    PQ = np.array([[sym[i, k], sym[j, l]], [sym[i, l], sym[j, k]]]).transpose(2, 0, 1)
    biv = np.zeros((n, n), dtype=np.intp)
    biv[bi, bj] = biv[bj, bi] = np.arange(len(bi))
    others = (np.arange(n)[:, None] + np.arange(1, n)) % n     # the c != a
    ti, tl = np.repeat(others[pa], n - 1, axis=1), np.tile(others[pb], n - 1)
    tj, tk = pa[:, None], pb[:, None]
    trace = np.sign(tj - ti) * np.sign(tl - tk), ti, tl, biv[ti, tj], biv[tk, tl]
    first = [((l, P), (a, sym[b, l]), (b, sym[a, l]))
             for l in range(n) for P, (a, b) in enumerate(zip(pa.tolist(), pb.tolist()))]
    sgn = np.sign(np.arange(n) - np.arange(n)[:, None])     # R_{..ij} = sgn[i, j] R_{..A}
    return SimpleNamespace(
        sym=sym, pa=pa, pb=pb, first=first, bi=bi, bj=bj, biv=biv, sgn=sgn,
        terms=list(zip(A.tolist(), B.tolist(), PQ.tolist())),
        trace=[list(zip(*row)) for row in zip(*(x.tolist() for x in trace))])


def _connection(metric: MetricField):
    """(dg, Gamma_{l,P}, Gamma^k_P): dg[c, Q] = d_c g_Q over the n(n+1)/2
    components Q, and the first kind Gamma_{l,ab} = (d_a g_bl + d_b g_al -
    d_l g_ab)/2 and the second kind over the symmetric pairs P = (a<=b)."""
    t = _bivectors(metric.n)
    dg = grad_stack(metric.values[t.pa, t.pb], metric.grid)
    gl = np.empty_like(dg)              # written pair by pair, with no gathers
    for lP, bl, al in t.first:
        o = np.add(dg[bl], dg[al], out=gl[lP])
        np.multiply(np.subtract(o, dg[lP], out=o), 0.5, out=o)
    return dg, gl, np.einsum("kl...,lp...->kp...", metric.inv, gl)


def riemann_bivector(metric: MetricField, dg, gl, gam) -> np.ndarray:
    """R_AB = R_{ijkl} on bivectors A = (i<j), B = (k<l), composed from compact
    stencils as R_{ijkl} = F_{(ik)(jl)} - F_{(il)(jk)}, where

        F_{(ab)(cd)} = (1/2)(d_a d_b g_{cd} + d_c d_d g_{ab})
                       + Gamma^p_{ab} Gamma_{p,cd}.

    d_P g_Q runs over the symmetric pairs P and components Q only (``dg``, ``gl``
    and ``gam`` are ``_connection``'s); each sum d_P g_Q + d_Q g_P is formed in
    F as F reads it, P <= Q first, and no stack of them is kept.  The entries
    A <= B are mirrored, so pair exchange is exact.
    """
    grid, t = metric.grid, _bivectors(metric.n)

    def d(P, Q, out):                   # d_P g_Q
        a, b = t.pa[P], t.pb[P]
        if a == b:
            return diff2(metric.values[t.pa[Q], t.pb[Q]], grid, a, out)
        return diff1(dg[b, Q], grid, a, out)

    R = np.empty((len(t.bi),) * 2 + grid.shape)
    F = np.empty((2,) + grid.shape)     # one entry at a time, to stay in cache
    tmp = np.empty(grid.shape)
    for A, B, pairs in t.terms:
        for f, (P, Q) in zip(F, pairs):
            lo, hi = min(P, Q), max(P, Q)
            np.add(d(lo, hi, f), f if lo == hi else d(hi, lo, tmp), out=f)  # f + f: P = Q
            f *= 0.5
            for p in range(grid.n):
                f += np.multiply(gam[p, P], gl[p, Q], out=tmp)
        np.subtract(F[0], F[1], out=R[A, B])
        if A != B:
            R[B, A] = R[A, B]
    return R


def ricci(rab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X^{il} R_{ijkl} for a symmetric (2,0) field X, traced off R_AB over the
    (n-1)^2 nonzero terms of each j <= k and mirrored; at X = g^{-1} it is Ric."""
    t, shape = _bivectors(len(x)), rab.shape[2:]
    ric, term = np.zeros((len(t.pa),) + shape), np.empty(shape)
    for r, terms in zip(ric, t.trace):
        for sign, i, l, a, b in terms:
            np.multiply(x[i, l], rab[a, b], out=term)
            (np.add if sign > 0 else np.subtract)(r, term, out=r)
    return ric[t.sym]


def wedge(x: np.ndarray) -> np.ndarray:
    """W_AB = x_ik x_jl - x_il x_jk on bivectors A = (i<j), B = (k<l), entry by
    entry with no gathers: at x = g^{-1} the inverse metric G^{AB} on bivectors."""
    t = _bivectors(len(x))
    W, tmp = np.empty((len(t.bi),) * 2 + x.shape[2:]), np.empty(x.shape[2:])
    for A, B, _ in t.terms:
        (i, j), (k, l) = (t.bi[A], t.bj[A]), (t.bi[B], t.bj[B])
        np.multiply(x[i, k], x[j, l], out=W[A, B])
        W[A, B] -= np.multiply(x[i, l], x[j, k], out=tmp)
        W[B, A] = W[A, B]
    return W


def riemann_norm_sq(rab: np.ndarray, metric: MetricField) -> np.ndarray:
    """|Rm|^2 = 4 tr(G R G R), with G^{AB} = ``wedge(g^{-1})``."""
    G = wedge(metric.inv)
    X = np.einsum("ab...,bc...->ac...", G, rab)
    return 4.0 * np.einsum("ab...,ba...->...", X, X)


def rm_quadratic(rab: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Hamilton's quadratic term of d/dt Rm on bivectors A = (i<j), B = (k<l):
    2 (B_ijkl - B_ijlk - B_iljk + B_ikjl), with B_ijkl = -g^pr g^qs R_ipjq R_krls.

    By first Bianchi, B_ijkl - B_ijlk = -Q_AB with Q = R G R, and B_ikjl =
    W_ijkl - Q_ikjl / 2, where W_ijkl = V^rs R_rjls traces R_AB (``ricci``)
    with V the symmetric part of g^pr g^qs R_ipkq, one pair i <= k at a time:
    no array has n^4 components per point."""
    t = _bivectors(len(ginv))
    Q = np.einsum("ac...,cb...->ab...", np.einsum("ac...,cb...->ab...", rab, wedge(ginv)), rab)
    entries = [(A, B, t.bi[A], t.bj[A], t.bi[B], t.bj[B]) for A, B in np.ndindex(Q.shape[:2])]

    def at(X, a, b, c, d):              # X_abcd of a matrix on bivectors
        return t.sgn[a, b] * t.sgn[c, d] * X[t.biv[a, b], t.biv[c, d]]

    C = np.empty_like(rab)
    for A, B, i, j, k, l in entries:
        C[A, B] = 0.5 * (at(Q, i, l, j, k) - at(Q, i, k, j, l)) - Q[A, B]
    for a, b in zip(t.pa.tolist(), t.pb.tolist()):
        S = np.einsum("p,q,pq...->pq...", t.sgn[a], t.sgn[b], rab[np.ix_(t.biv[a], t.biv[b])])
        V = np.einsum("rp...,pq...->rq...", ginv, S + np.swapaxes(S, 0, 1))
        W = ricci(rab, 0.5 * np.einsum("rq...,qs...->rs...", V, ginv))   # W_ajbl at [j, l]
        for A, B, i, j, k, l in entries:
            if sorted((i, k)) == [a, b]:
                C[A, B] += W[j, l]
            if sorted((i, l)) == [a, b]:
                C[A, B] -= W[j, k]
    return 2.0 * C


def bivector_action(m: np.ndarray) -> np.ndarray:
    """L[P, A, ...], with sum_P L[P, A] Q_P = m^p_i Q_{pj} + m^p_j Q_{ip} on
    bivectors A = (i<j): how m^p_i (axes [p, i, ...]) acts on a covariant
    antisymmetric pair."""
    n, t = len(m), _bivectors(len(m))
    L = np.zeros((len(t.bi),) * 2 + m.shape[2:])
    for A, (i, j) in enumerate(zip(t.bi.tolist(), t.bj.tolist())):
        for p in range(n):              # sgn is 0 on a repeated index
            L[t.biv[p, j], A] += t.sgn[p, j] * m[p, i]
            L[t.biv[i, p], A] += t.sgn[i, p] * m[p, j]
    return L


def bivector_connection(gamma: np.ndarray) -> np.ndarray:
    """Lambda[P, a, A], Gamma^p_{ai} acting on a covariant bivector index A, in
    gamma's layout [p, a, s] for ``cov_d`` and ``rough_laplacian``."""
    return np.moveaxis(bivector_action(np.swapaxes(gamma, 1, 2)), 2, 1)


def raise_last(rab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^{lm} X_{A(km)} at axes [l, A, k]: the last index of a field X_AB on
    bivector pairs raised with a (2,0) field x; at R_AB and g^{-1} it is R^l_{Ak}."""
    t = _bivectors(len(x))
    return np.einsum("lm...,km,akm...->lak...", x, t.sgn, rab[:, t.biv])


def lower_rm(rm13: np.ndarray, metric: MetricField) -> np.ndarray:
    return np.ascontiguousarray(np.einsum("lm...,mijk...->ijkl...", metric.values, rm13))


# --------------------------------------------------------------------------
# covariant derivatives

def cov_d(vals: np.ndarray, grid: Grid, gamma: np.ndarray,
          con: int, cov: int, slots=None) -> np.ndarray:
    """Covariant derivative.

    The new covariant index is inserted *after* the contravariant block, at
    axis ``con``, so the output again follows the (upper..., lower...) axis
    convention and may be fed back into ``cov_d``.  Index s sees ``slots[s]``,
    a connection in gamma's layout [p, a, s]: Gamma by default, and on a
    covariant antisymmetric pair held as bivectors ``bivector_connection``.
    """
    rank = con + cov
    slots = slots or (gamma,) * rank
    D = grad_stack(vals, grid)
    if rank == 0:
        return D
    idx = _LETTERS[:rank]
    for s in range(con):
        src = idx[:s] + "p" + idx[s + 1:]
        D += np.einsum(f"{idx[s]}ap...,{src}...->a{idx}...", slots[s], vals)
    for s in range(con, rank):
        src = idx[:s] + "p" + idx[s + 1:]
        D -= np.einsum(f"pa{idx[s]}...,{src}...->a{idx}...", slots[s], vals)
    return np.ascontiguousarray(np.moveaxis(D, 0, con))


def rough_laplacian(vals: np.ndarray, grid: Grid, gamma: np.ndarray,
                    metric: MetricField, con: int, cov: int, slots=None) -> np.ndarray:
    """Delta T = g^{ab} nabla_a nabla_b T, summed a-major, b-minor one slice d_a
    (nabla T)_b + ``cov_d``'s Gamma terms (its order) at a time; no nabla nabla T.
    The indices of T see ``slots`` as in ``cov_d``; the new one sees Gamma."""
    slots = slots or (gamma,) * (con + cov)
    V = np.moveaxis(cov_d(vals, grid, gamma, con, cov, slots), con, 0)   # V[b] = (nabla T)_b
    idx = _LETTERS[:con + cov]
    subs = [f"{idx[s]}p...,{idx[:s]}p{idx[s + 1:]}...->{idx}..." for s in range(con)]
    subs += [f"p...,p{idx}...->{idx}..."] + [
        f"p{idx[s]}...,{idx[:s]}p{idx[s + 1:]}...->{idx}..." for s in range(con, con + cov)]
    conns = [*slots[:con], None, *slots[con:]]        # per term of subs
    out, S = np.zeros(vals.shape), np.empty(vals.shape)
    for a, b in np.ndindex(grid.n, grid.n):
        diff1(V[b], grid, a, S)
        for s, sub in enumerate(subs):
            term = np.einsum(sub, *((gamma[:, a, b], V) if s == con else (conns[s][:, a], V[b])))
            (np.add if s < con else np.subtract)(S, term, out=S)
        out += np.multiply(S, metric.inv[a, b], out=S)
    return out


def hessian(u: np.ndarray, grid: Grid, gam: np.ndarray,
            du: np.ndarray) -> np.ndarray:
    """nabla^2 u with compact 3-point stencils on the diagonal, from Gamma^k_P
    on the symmetric pairs P = (a<=b) (``_connection``'s ``gam``) and
    du = ``grad_stack(u, grid)``."""
    t = _bivectors(grid.n)
    H = np.empty((len(t.pa),) + u.shape)
    for h, a, b in zip(H, t.pa, t.pb):
        if a == b:
            diff2(u, grid, a, h)
        else:
            diff1(du[b], grid, a, h)
    H -= np.einsum("kp...,k...->p...", gam, du)
    return H[t.sym]


def raise_index(vals: np.ndarray, metric: MetricField, axis: int, inv=None) -> np.ndarray:
    idx = _LETTERS[:vals.ndim - metric.grid.n]
    src = idx[:axis] + "p" + idx[axis + 1:]
    return np.einsum(f"{idx[axis]}p...,{src}...->{idx}...",
                     metric.inv if inv is None else inv, vals)


def norm_sq(vals: np.ndarray, metric: MetricField, con: int, cov: int,
            pairs=()) -> np.ndarray:
    """Pointwise |T|^2_g, all indices contracted with g / g^{-1}.  A covariant
    axis in ``pairs`` holds an antisymmetric pair as bivectors A = (i<j): it is
    contracted with G^{AB} (``wedge``) and counts twice."""
    if con + cov == 0:
        return vals * vals
    lowered = raised = vals
    for s in range(con):
        lowered = raise_index(lowered, metric, s, metric.values)   # g in place of g^{-1}
    for s in range(con, con + cov):
        raised = raise_index(raised, metric, s, wedge(metric.inv) if s in pairs else None)
    idx = _LETTERS[:vals.ndim - metric.grid.n]
    out = np.einsum(f"{idx}...,{idx}...->...", lowered, raised)
    return out * 2 ** len(pairs) if pairs else out


def max_norm(vals: np.ndarray, metric: MetricField, con: int, cov: int) -> float:
    return float(np.sqrt(np.max(norm_sq(vals, metric, con, cov))))


# --------------------------------------------------------------------------
# the coupled curvature and the weighted connection

def sm_tensor(rm4: np.ndarray, du: np.ndarray, g: np.ndarray,
              alpha1: float) -> np.ndarray:
    """S_{ijkl} = R_{ijkl} - (a1/2)(g_{jl} d_i u d_k u + g_{kl} d_i u d_j u)."""
    corr = (np.einsum("jl...,i...,k...->ijkl...", g, du, du)
            + np.einsum("kl...,i...,j...->ijkl...", g, du, du))
    return rm4 - 0.5 * alpha1 * corr


def weighted_christoffel(gamma: np.ndarray, du: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of nabla^u: Gamma^k_{ij} - delta^k_i d_j u - delta^k_j d_i u."""
    out = gamma.copy()
    for k in range(n):
        out[k, k] -= du        # -delta^k_i d_j u
        out[k, :, k] -= du     # -delta^k_j d_i u  (hits (k,k,k) twice, as it must)
    return out


def div_form_weighted_laplacian(metric: MetricField, u: np.ndarray) -> np.ndarray:
    """(Delta u + |nabla u|^2) e^u evaluated in discrete divergence form.

    Equals (1/sqrt g) d_i(sqrt g g^{ij} e^u d_j u); its integral against
    dV telescopes to zero exactly on a periodic grid.
    """
    du = grad_stack(u, metric.grid)
    flux = metric.sqrt_det * np.exp(u) * np.einsum("ij...,j...->i...", metric.inv, du)
    return flat_divergence(flux, metric.grid) / metric.sqrt_det


def divergence(metric: MetricField, X: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """div X = nabla_i X^i, with gamma the Christoffel symbols of ``metric``."""
    return flat_divergence(X, metric.grid) + np.einsum("iik...,k...->...", gamma, X)


# --------------------------------------------------------------------------
# the geometry of one pair (g, u)

class Geometry:
    """Derived fields of a metric and a potential, each computed on first use.

    ``gamma_p`` (Gamma^k_P on the symmetric pairs, which the Hessian reads) and
    ``rm_ab`` (the one curvature build) share one Levi-Civita pass, whichever
    is read first; ``gamma``, the full Gamma^k_ij, is unpacked from ``gamma_p``
    only for cov_d and the other callers that index it.  Every reader of the
    Levi-Civita curvature reads R_AB: the flow, Appendix A, 3.12, Weyl (on
    bivectors), and R^l_{Ak} (``rm13_ab``) and its nabla for A.11-A.13 and the
    uniqueness T and U.  Two fields hold n^4 components per point: ``rm_ref``
    and ``rm_wy``, the Levi-Civita and weighted-connection curvatures through
    the same Gamma-form route (``riemann_13``) for Lemma 5.2 and the Killing
    comparisons; the weighted one has no pair symmetry, so it has no bivector
    form.  ``ric_ref`` and ``ric_wy`` trace that route as it is formed
    (``ricci_13``), so relations between them vanish to rounding at constant u.
    The flow parameters enter the coupled curvature Sic = Ric - a1 du x du,
    its trace S, its trace-free part Sin, |Sm|^2 and the field Xi; a1 = 2 is
    the harmonic-map coupled flow.
    """

    def __init__(self, metric: MetricField, u: np.ndarray, alpha1: float = 2.0,
                 beta1: float = 0.0, beta2: float = 0.0, t: float = 0.0):
        self.metric = metric
        self.grid = metric.grid
        self.g = metric.values
        self.ginv = metric.inv
        self.u = u
        self.alpha1, self.beta1, self.beta2, self.t = alpha1, beta1, beta2, t

    @cached_property
    def _conn(self):        # the one Levi-Civita pass, whichever reads it first
        return _connection(self.metric)

    @cached_property
    def gamma_p(self):      # Gamma^k_P on the symmetric pairs P = (a<=b)
        return self._conn[2]

    @cached_property
    def gamma(self):        # Gamma^k_{ij}, unpacked for the callers that index it
        return np.take(self.gamma_p, _bivectors(self.grid.n).sym, axis=1)

    @cached_property
    def rm_ab(self):        # R_AB on bivectors: the one curvature build
        dg, gl, self.gamma_p = self._conn
        del self._conn      # only Gamma^k_P outlives the build
        return riemann_bivector(self.metric, dg, gl, self.gamma_p)

    @cached_property
    def ric(self):
        return ricci(self.rm_ab, self.ginv)

    @property
    def rm13_ab(self):      # R^l_{Ak}, the bivector A at axis 1; its readers keep what they build
        return raise_last(self.rm_ab, self.ginv)

    @cached_property
    def weyl(self):         # W_AB on bivectors, identically zero for n <= 3
        n, g, ric = self.grid.n, self.g, self.ric
        if n < 4:
            return np.zeros_like(self.rm_ab)
        g_ric = wedge(g + ric) - wedge(g) - wedge(ric)      # the Kulkarni-Nomizu g.Ric
        return self.rm_ab + g_ric / (n - 2) - self.scalar * wedge(g) / ((n - 1) * (n - 2))

    @cached_property
    def scalar(self):       # traced from Ric, without the 4-tensor
        return np.einsum("jk...,jk...->...", self.ginv, self.ric)

    @cached_property
    def rm_sq(self):        # |Rm|^2, on bivectors
        return riemann_norm_sq(self.rm_ab, self.metric)

    @cached_property
    def ric_up(self):       # Ric^{pq}
        return raise_index(raise_index(self.ric, self.metric, 0), self.metric, 1)

    @cached_property
    def ric_mixed(self):    # Ric_i{}^p
        return raise_index(self.ric, self.metric, 1)

    @cached_property
    def du(self):
        return grad_stack(self.u, self.grid)

    @cached_property
    def du_up(self):
        return np.einsum("ij...,j...->i...", self.ginv, self.du)

    @cached_property
    def hess(self):
        return hessian(self.u, self.grid, self.gamma_p, self.du)

    @cached_property
    def hess_mixed(self):   # H_i{}^p
        return raise_index(self.hess, self.metric, 1)

    @cached_property
    def hess_up(self):
        return raise_index(self.hess_mixed, self.metric, 0)

    @cached_property
    def hess_sq(self):      # |Hess u|^2
        return norm_sq(self.hess, self.metric, 0, 2)

    @cached_property
    def d3u(self):          # nabla_a H_{ij}
        return cov_d(self.hess, self.grid, self.gamma, 0, 2)

    @cached_property
    def lap_u(self):
        return np.einsum("ij...,ij...->...", self.ginv, self.hess)

    @cached_property
    def grad_sq(self):      # |du|^2
        return np.einsum("ij...,i...,j...->...", self.ginv, self.du, self.du)

    @cached_property
    def grad_ric(self):     # nabla_a R_{ij}
        return cov_d(self.ric, self.grid, self.gamma, 0, 2)

    @cached_property
    def grad_rm13(self):    # nabla_a R^l_{Ak}, the bivector A at axis 2
        lam = bivector_connection(self.gamma)
        return cov_d(self.rm13_ab, self.grid, self.gamma, 1, 2, (self.gamma, lam, self.gamma))

    @cached_property
    def ln_sqrt_det(self):
        return np.log(self.metric.sqrt_det)

    @cached_property
    def rm_ref(self):       # R_{ijkl} lowered from the Gamma-form R^l_{ijk}
        return lower_rm(riemann_13(self.gamma, self.grid), self.metric)

    @cached_property
    def ric_ref(self):      # R^i_{ijk} of rm_ref, traced from Gamma without it
        return ricci_13(self.gamma, self.grid)

    @cached_property
    def rm_wy(self):        # R^u_{ijkl}, curvature of the weighted connection
        gamma_u = weighted_christoffel(self.gamma, self.du, self.grid.n)
        return lower_rm(riemann_13(gamma_u, self.grid), self.metric)

    @cached_property
    def ric_wy(self):       # R^{u i}_{ijk}, as ric_ref
        return ricci_13(weighted_christoffel(self.gamma, self.du, self.grid.n), self.grid)

    @cached_property
    def ric_wy_hat(self):   # g^{il} R^u_{jilk}
        return np.einsum("il...,jilk...->jk...", self.ginv, self.rm_wy)

    @cached_property
    def scalar_wy(self):
        return np.einsum("jk...,jk...->...", self.ginv, self.ric_wy)

    @cached_property
    def sic(self):
        return self.ric - self.alpha1 * np.einsum("i...,j...->ij...", self.du, self.du)

    @cached_property
    def sic_mixed(self):
        return raise_index(self.sic, self.metric, 1)

    @cached_property
    def sic_up(self):
        return raise_index(self.sic_mixed, self.metric, 0)

    @cached_property
    def sic_sq(self):       # |Sic|^2
        return norm_sq(self.sic, self.metric, 0, 2)

    @cached_property
    def S(self):
        return self.scalar - self.alpha1 * self.grad_sq

    @cached_property
    def sin(self):
        return self.sic - (self.S / self.grid.n) * self.g

    @cached_property
    def sm_sq(self):
        # |Sm|^2 expanded through the symmetries of Rm, so that it reads
        # |Rm|^2 off R_AB and no 4-tensor is formed
        a1 = self.alpha1
        return (self.rm_sq
                + a1 * np.einsum("ij...,i...,j...->...", self.ric, self.du_up, self.du_up)
                + 0.5 * (self.grid.n + 1) * a1 * a1 * self.grad_sq ** 2)

    @cached_property
    def xi(self):           # Xi (0,2)
        dgsq = grad_stack(self.grad_sq, self.grid)
        return (self.lap_u * self.hess
                - self.beta2 * np.einsum("i...,j...->ij...", self.du, self.du)
                - self.beta1 * np.einsum("i...,j...->ij...", self.du, dgsq))


def curvature(metric: MetricField) -> Geometry:
    """The geometry of ``metric`` at u = 0: Gamma, Ric, Rm, Weyl and the rest,
    each built on first use."""
    return Geometry(metric, np.zeros(metric.grid.shape))
