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
Pair exchange and both pair antisymmetries are exact, first Bianchi holds to
rounding, and Ric and |Rm|^2 are read off R_AB without a 4-tensor.

The weighted-connection curvature is computed directly from the
connection coefficients of nabla^u_X Y = nabla_X Y - (Yu)X - (Xu)Y, which
gives an independent differentiation path against which the algebraic
relations between the curvature variants are tested.

``Geometry`` and ``CoupledGeometry`` hold every derived field of one pair
(g, u), each built once on first use; the flow, the identities, the
comparisons and the functionals all read them.
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


@lru_cache(maxsize=None)
def _bivectors(n: int) -> SimpleNamespace:
    """Index tables of R_AB in dimension n, built once: symmetric pairs P =
    (a<=b) (``pa, pb``, numbered by ``sym``), bivectors A = (i<j) (``bi, bj``),
    the pairs of F in R_{ijkl} = F_{(ik)(jl)} - F_{(il)(jk)} per entry A <= B
    (``terms``, mirrored by ``upper``), and per Ric_jk, j <= k, its nonzero
    terms g^{il} R_{ijkl} as (sign, i, l, A, B) (``trace``)."""
    sym = np.empty((n, n), dtype=np.intp)
    pa, pb = np.triu_indices(n)
    sym[pa, pb] = sym[pb, pa] = np.arange(len(pa))
    bi, bj = np.triu_indices(n, 1)
    A, B = np.triu_indices(len(bi))
    i, j, k, l = bi[A], bj[A], bi[B], bj[B]
    upper = np.empty((len(bi),) * 2, dtype=np.intp)
    upper[A, B] = upper[B, A] = np.arange(len(A))
    biv = np.zeros((n, n), dtype=np.intp)
    biv[bi, bj] = biv[bj, bi] = np.arange(len(bi))
    others = (np.arange(n)[:, None] + np.arange(1, n)) % n     # the c != a
    ti, tl = np.repeat(others[pa], n - 1, axis=1), np.tile(others[pb], n - 1)
    tj, tk = pa[:, None], pb[:, None]
    trace = np.sign(tj - ti) * np.sign(tl - tk), ti, tl, biv[ti, tj], biv[tk, tl]
    return SimpleNamespace(
        sym=sym, pa=pa, pb=pb, bi=bi, bj=bj, upper=upper,
        terms=np.array([[sym[i, k], sym[j, l]], [sym[i, l], sym[j, k]]]
                       ).transpose(2, 0, 1).tolist(),
        trace=[list(zip(*row)) for row in zip(*(x.tolist() for x in trace))])


def _connection(metric: MetricField):
    """(dg, Gamma_{l,P}, Gamma^k_P, Gamma): dg[c, Q] = d_c g_Q over the n(n+1)/2
    components Q, the first kind Gamma_{l,ab} = (d_a g_bl + d_b g_al - d_l g_ab)/2
    and the second kind over the symmetric pairs P = (a<=b), and the full,
    C-contiguous Gamma^k_{ij}."""
    t = _bivectors(metric.n)
    dg = grad_stack(metric.values[t.pa, t.pb], metric.grid)
    l = np.arange(metric.n)[:, None]
    gl = 0.5 * (dg[t.pa, t.sym[t.pb, l]] + dg[t.pb, t.sym[t.pa, l]] - dg)
    gam = np.einsum("kl...,lp...->kp...", metric.inv, gl)
    return dg, gl, gam, np.take(gam, t.sym, axis=1)


def christoffel(metric: MetricField) -> np.ndarray:
    """Gamma^k_{ij}, for the callers that need no curvature."""
    return _connection(metric)[3]


def riemann_bivector(metric: MetricField, dg, gl, gam) -> np.ndarray:
    """R_AB = R_{ijkl} on bivectors A = (i<j), B = (k<l), composed from compact
    stencils as R_{ijkl} = F_{(ik)(jl)} - F_{(il)(jk)}, where

        F_{(ab)(cd)} = (1/2)(d_a d_b g_{cd} + d_c d_d g_{ab})
                       + Gamma^p_{ab} Gamma_{p,cd}.

    d_P g_Q runs over the symmetric pairs P and components Q only (``dg``, ``gl``
    and ``gam`` are ``_connection``'s); the entries A <= B are mirrored, so
    pair exchange is exact.
    """
    grid, t = metric.grid, _bivectors(metric.n)
    g = metric.values[t.pa, t.pb]                          # g_Q, Q = (c<=d)
    ddg = np.empty((len(g),) + g.shape)                    # ddg[P, Q] = d_P g_Q
    for p, (a, b) in enumerate(zip(t.pa, t.pb)):
        ddg[p] = diff2(g, grid, a) if a == b else diff1(dg[b], grid, a)
    R = np.empty((len(t.terms),) + grid.shape)
    F = np.empty((2,) + grid.shape)     # one entry at a time, to stay in cache
    for r, pairs in zip(R, t.terms):
        for f, (P, Q) in zip(F, pairs):
            np.add(ddg[P, Q], ddg[Q, P], out=f)
            f *= 0.5
            for p in range(grid.n):
                f += gam[p, P] * gl[p, Q]
        np.subtract(F[0], F[1], out=r)
    return R[t.upper]


def ricci(rab: np.ndarray, metric: MetricField) -> np.ndarray:
    """Ric_{jk} = g^{il} R_{ijkl}, traced off R_AB over the (n-1)^2 nonzero
    terms of each j <= k; symmetric by construction."""
    t, shape = _bivectors(metric.n), metric.grid.shape
    ric, term = np.zeros((len(t.pa),) + shape), np.empty(shape)
    for r, terms in zip(ric, t.trace):
        for sign, i, l, a, b in terms:
            np.multiply(metric.inv[i, l], rab[a, b], out=term)
            (np.add if sign > 0 else np.subtract)(r, term, out=r)
    return ric[t.sym]


def riemann_norm_sq(rab: np.ndarray, metric: MetricField) -> np.ndarray:
    """|Rm|^2 = 4 tr(G R G R), with G^{AB} = g^{ik} g^{jl} - g^{il} g^{jk} the
    inverse metric on bivectors."""
    t, gi = _bivectors(metric.n), metric.inv
    i, j = t.bi[:, None], t.bj[:, None]
    G = gi[i, t.bi] * gi[j, t.bj] - gi[i, t.bj] * gi[j, t.bi]
    X = np.einsum("ab...,bc...->ac...", G, rab)
    return 4.0 * np.einsum("ab...,ba...->...", X, X)


def unpack_riemann(rab: np.ndarray, n: int) -> np.ndarray:
    """R_{ijkl} from R_AB; the pair antisymmetries are exact (sign flips)."""
    t = _bivectors(n)
    half = np.zeros(rab.shape[:1] + (n, n) + rab.shape[2:])   # R_{A,kl}
    half[:, t.bi, t.bj], half[:, t.bj, t.bi] = rab, -rab
    rm4 = np.zeros((n, n) + half.shape[1:])
    rm4[t.bi, t.bj], rm4[t.bj, t.bi] = half, -half
    return rm4


def lower_rm(rm13: np.ndarray, metric: MetricField) -> np.ndarray:
    return np.ascontiguousarray(np.einsum("lm...,mijk...->ijkl...", metric.values, rm13))


def weyl_tensor(rm4: np.ndarray, ric: np.ndarray, scal: np.ndarray,
                metric: MetricField) -> np.ndarray:
    """Weyl part of the lowered curvature (identically zero for n <= 3)."""
    n = metric.n
    g = metric.values
    if n < 4:
        return np.zeros_like(rm4)
    gR = (np.einsum("il...,jk...->ijkl...", g, ric)
          - np.einsum("ik...,jl...->ijkl...", g, ric)
          + np.einsum("jk...,il...->ijkl...", g, ric)
          - np.einsum("jl...,ik...->ijkl...", g, ric))
    gg = (np.einsum("il...,jk...->ijkl...", g, g)
          - np.einsum("ik...,jl...->ijkl...", g, g))
    return rm4 - gR / (n - 2) + scal * gg / ((n - 1) * (n - 2))


# --------------------------------------------------------------------------
# covariant derivatives

def cov_d(vals: np.ndarray, grid: Grid, gamma: np.ndarray,
          con: int, cov: int) -> np.ndarray:
    """Covariant derivative.

    The new covariant index is inserted *after* the contravariant block, at
    axis ``con``, so the output again follows the (upper..., lower...) axis
    convention and may be fed back into ``cov_d``.
    """
    rank = con + cov
    D = grad_stack(vals, grid)
    if rank == 0:
        return D
    idx = _LETTERS[:rank]
    for s in range(con):
        src = idx[:s] + "p" + idx[s + 1:]
        D += np.einsum(f"{idx[s]}ap...,{src}...->a{idx}...", gamma, vals)
    for s in range(con, rank):
        src = idx[:s] + "p" + idx[s + 1:]
        D -= np.einsum(f"pa{idx[s]}...,{src}...->a{idx}...", gamma, vals)
    return np.ascontiguousarray(np.moveaxis(D, 0, con))


def rough_laplacian(vals: np.ndarray, grid: Grid, gamma: np.ndarray,
                    metric: MetricField, con: int, cov: int) -> np.ndarray:
    """Delta T = g^{ab} nabla_a nabla_b T (connection Laplacian)."""
    D1 = cov_d(vals, grid, gamma, con, cov)
    D2 = cov_d(D1, grid, gamma, con, cov + 1)
    # the two derivative indices sit at axes (con, con+1)
    D2 = np.moveaxis(D2, (con, con + 1), (0, 1))
    return np.einsum("ab...,ab...->...", metric.inv, D2)


def hessian(u: np.ndarray, grid: Grid, gamma: np.ndarray) -> np.ndarray:
    """nabla^2 u with compact 3-point stencils on the diagonal."""
    n = grid.n
    du = grad_stack(u, grid)
    H = np.empty((n, n) + grid.shape)
    for i in range(n):
        for j in range(i, n):
            dd = diff2(u, grid, i) if i == j else diff1(du[j], grid, i)
            H[i, j] = dd
            H[j, i] = dd
    H -= np.einsum("kij...,k...->ij...", gamma, du)
    return H


def raise_index(vals: np.ndarray, metric: MetricField, axis: int) -> np.ndarray:
    idx = _LETTERS[:vals.ndim - metric.grid.n]
    src = idx[:axis] + "p" + idx[axis + 1:]
    return np.einsum(f"{idx[axis]}p...,{src}...->{idx}...", metric.inv, vals)


def norm_sq(vals: np.ndarray, metric: MetricField, con: int, cov: int) -> np.ndarray:
    """Pointwise |T|^2_g, all indices contracted with g / g^{-1}."""
    if con + cov == 0:
        return vals * vals
    lowered = vals
    for s in range(con):
        idx = _LETTERS[:vals.ndim - metric.grid.n]
        src = idx[:s] + "p" + idx[s + 1:]
        lowered = np.einsum(f"{idx[s]}p...,{src}...->{idx}...",
                            metric.values, lowered)
    raised = vals
    for s in range(con, con + cov):
        raised = raise_index(raised, metric, s)
    idx = _LETTERS[:vals.ndim - metric.grid.n]
    return np.einsum(f"{idx}...,{idx}...->...", lowered, raised)


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


def weighted_connection_apply(metric: MetricField, u: np.ndarray,
                              X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """nabla^u_X Y = nabla_X Y - (Yu) X - (Xu) Y for vector fields X, Y."""
    f = Geometry(metric, u)
    dY = grad_stack(Y, f.grid)                     # dY[a,k]
    nabla_XY = (np.einsum("a...,ak...->k...", X, dY)
                + np.einsum("kab...,a...,b...->k...", f.gamma, X, Y))
    Yu = np.einsum("a...,a...->...", Y, f.du)
    Xu = np.einsum("a...,a...->...", X, f.du)
    return nabla_XY - Yu * X - Xu * Y


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

    ``gamma`` and ``rm_ab`` (the one curvature build) share one Levi-Civita pass,
    whichever is read first.  Ric and |Rm|^2 read R_AB, and ``rm4`` unpacks it
    only for Weyl, Sm, nabla Rm and the identities, never the flow.
    ``rm_ref`` and ``rm_wy`` are the Levi-Civita and weighted-connection
    curvatures through the same Gamma-form route (``riemann_13``), so that
    relations between them vanish to rounding at constant u.
    """

    def __init__(self, metric: MetricField, u: np.ndarray):
        self.metric = metric
        self.grid = metric.grid
        self.g = metric.values
        self.ginv = metric.inv
        self.u = u

    @cached_property
    def _conn(self):        # the one Levi-Civita pass, whichever reads it first
        return _connection(self.metric)

    @cached_property
    def gamma(self):
        return self._conn[3]

    @cached_property
    def rm_ab(self):        # R_AB on bivectors: the one curvature build
        dg, gl, gam, self.gamma = self._conn
        del self._conn      # only Gamma outlives the build
        return riemann_bivector(self.metric, dg, gl, gam)

    @cached_property
    def ric(self):
        return ricci(self.rm_ab, self.metric)

    @cached_property
    def rm4(self):          # R_{ijkl}, unpacked for the callers with four indices
        return unpack_riemann(self.rm_ab, self.grid.n)

    @cached_property
    def rm13(self):         # R^l_{ijk}, raised from the lowered tensor
        return np.einsum("lm...,ijkm...->lijk...", self.ginv, self.rm4)

    @cached_property
    def weyl(self):
        return weyl_tensor(self.rm4, self.ric, self.scalar, self.metric)

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
        return hessian(self.u, self.grid, self.gamma)

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
    def grad_rm13(self):    # nabla_a R^l_{ijk}
        return cov_d(self.rm13, self.grid, self.gamma, 1, 3)

    @cached_property
    def ln_sqrt_det(self):
        return np.log(self.metric.sqrt_det)

    @cached_property
    def rm_ref(self):       # R_{ijkl} lowered from the Gamma-form R^l_{ijk}
        return lower_rm(riemann_13(self.gamma, self.grid), self.metric)

    @cached_property
    def ric_ref(self):      # g^{il} R_{ijkl} of rm_ref
        return np.einsum("il...,ijkl...->jk...", self.ginv, self.rm_ref)

    @cached_property
    def rm_wy(self):        # R^u_{ijkl}, curvature of the weighted connection
        gamma_u = weighted_christoffel(self.gamma, self.du, self.grid.n)
        return lower_rm(riemann_13(gamma_u, self.grid), self.metric)

    @cached_property
    def ric_wy(self):       # g^{il} R^u_{ijkl}
        return np.einsum("il...,ijkl...->jk...", self.ginv, self.rm_wy)

    @cached_property
    def ric_wy_hat(self):   # g^{il} R^u_{jilk}
        return np.einsum("il...,jilk...->jk...", self.ginv, self.rm_wy)

    @cached_property
    def scalar_wy(self):
        return np.einsum("jk...,jk...->...", self.ginv, self.ric_wy)


def curvature(metric: MetricField) -> Geometry:
    """The geometry of ``metric`` at u = 0: Gamma, Ric, Rm, Weyl and the rest,
    each built on first use."""
    return Geometry(metric, np.zeros(metric.grid.shape))


class CoupledGeometry(Geometry):
    """``Geometry`` plus the fields that depend on the flow parameters: the
    coupled curvature Sic = Ric - a1 du x du, its trace S, its trace-free
    part Sin, S_{ijkl} (``sm_tensor``), and the pinching fields Xi and Z."""

    def __init__(self, metric: MetricField, u: np.ndarray, alpha1: float,
                 beta1: float = 0.0, beta2: float = 0.0, C: float = 0.0):
        super().__init__(metric, u)
        self.alpha1, self.beta1, self.beta2, self.C = alpha1, beta1, beta2, C

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
    def sm(self):
        return sm_tensor(self.rm4, self.du, self.g, self.alpha1)

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

    @cached_property
    def z(self):            # Z_{ijk} = (S + C) nabla_i Sic_{jk} - Sic_{jk} d_i S
        dsic = cov_d(self.sic, self.grid, self.gamma, 0, 2)
        dS = grad_stack(self.S, self.grid)
        return (self.S + self.C) * dsic - np.einsum("jk...,i...->ijk...", self.sic, dS)
