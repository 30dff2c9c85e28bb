"""Pointwise differential geometry on structured grids.

Curvature convention.  The (1,3) curvature is

    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                + Gamma^p_{jk} Gamma^l_{ip} - Gamma^p_{ik} Gamma^l_{jp},

lowered on the last slot, R_{ijkl} = g_{lm} R^m_{ijk}, and traced as
Ric_{jk} = g^{il} R_{ijkl}.  The sign is pinned by the requirement that the
round sphere has positive scalar curvature (the stereographic oracle in the
tests).  The lowered Levi-Civita tensor is assembled from compact second
derivatives of g plus Christoffel products (``riemann_lowered``), a
composition under which the pair antisymmetries, pair-exchange symmetry,
and first Bianchi identity hold to rounding.  Ricci is that trace taken term
by term (``ricci``), so the flow never forms the 4-tensor.

The weighted-connection curvature is computed directly from the
connection coefficients of nabla^u_X Y = nabla_X Y - (Yu)X - (Xu)Y, which
gives an independent differentiation path against which the algebraic
relations between the curvature variants are tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Grid, MetricField, diff1, diff2, grad_stack

_LETTERS = "bcdefgh"   # component index letters; 'a' reserved for the derivative


# --------------------------------------------------------------------------
# connection and curvature

def christoffel(metric: MetricField) -> np.ndarray:
    """Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij})."""
    grid = metric.grid
    dg = grad_stack(metric.values, grid)                   # dg[a,i,j] = d_a g_{ij}
    term = (dg                                             # d_i g_{jl} -> [i,j,l]
            + np.moveaxis(dg, [0, 1, 2], [1, 0, 2])        # d_j g_{il}
            - np.moveaxis(dg, [0, 1, 2], [2, 0, 1]))       # d_l g_{ij}
    return 0.5 * np.einsum("kl...,ijl...->kij...", metric.inv, term)


def riemann_13(gamma: np.ndarray, grid: Grid) -> np.ndarray:
    """R^l_{ijk} from the connection coefficients (any connection)."""
    dG = np.stack([diff1(gamma, grid, a) for a in range(grid.n)])  # [a,l,i,j]->d_a G^l_{ij}
    R = (np.moveaxis(dG, [0, 1, 2, 3], [1, 0, 2, 3])   # d_i G^l_{jk} -> [l,i,j,k]
         - np.moveaxis(dG, [0, 1, 2, 3], [2, 0, 1, 3]))
    R += np.einsum("pjk...,lip...->lijk...", gamma, gamma)
    R -= np.einsum("pik...,ljp...->lijk...", gamma, gamma)
    return R


def second_derivatives(vals: np.ndarray, grid: Grid) -> np.ndarray:
    """All d_i d_j of a componentwise array; compact 3-point stencils on i = j.

    Output axes: (i, j) first, then the input's axes.
    """
    n = grid.n
    out = np.empty((n, n) + vals.shape)
    for i in range(n):
        out[i, i] = diff2(vals, grid, i)
        for j in range(i + 1, n):
            m = diff1(diff1(vals, grid, j), grid, i)
            out[i, j] = m
            out[j, i] = m
    return out


def riemann_lowered(metric: MetricField, gamma: np.ndarray) -> np.ndarray:
    """R_{ijkl} for the Levi-Civita connection, composed from compact stencils:

        R_{ijkl} = (1/2)(d_i d_k g_{jl} + d_j d_l g_{ik}
                         - d_i d_l g_{jk} - d_j d_k g_{il})
                   + g_{pq}(Gamma^p_{ik} Gamma^q_{jl} - Gamma^p_{jk} Gamma^q_{il})

    Equivalent to lowering the Gamma-form curvature; this composition keeps
    the pair antisymmetries, pair exchange, and first Bianchi exact to
    rounding and has a smaller truncation constant.
    """
    grid = metric.grid
    ddg = second_derivatives(metric.values, grid)        # ddg[a,b,i,j] = d_a d_b g_{ij}
    R = 0.5 * (np.einsum("ikjl...->ijkl...", ddg)
               + np.einsum("jlik...->ijkl...", ddg)
               - np.einsum("iljk...->ijkl...", ddg)
               - np.einsum("jkil...->ijkl...", ddg))
    gG = np.einsum("pq...,qjl...->pjl...", metric.values, gamma)   # Gamma 1st kind
    R += np.einsum("pik...,pjl...->ijkl...", gamma, gG)
    R -= np.einsum("pjk...,pil...->ijkl...", gamma, gG)
    return R


def ricci(metric: MetricField, gamma: np.ndarray) -> np.ndarray:
    """Ric_{jk} = g^{il} R_{ijkl} of ``riemann_lowered``, contracted term by term
    so that no 4-tensor is formed:

        Ric_{jk} = (1/2)(A_{jk} + A_{kj} - g^{il} d_i d_l g_{jk} - g^{il} d_j d_k g_{il})
                   + Gamma_{p,jl} g^{li} Gamma^p_{ik} - Gamma^p_{jk} g^{il} Gamma_{p,il},

    with A_{jk} = g^{il} d_i d_k g_{jl} and Gamma_{p,jl} = g_{pq} Gamma^q_{jl}.
    """
    if metric.n == 1:       # no intrinsic curvature; keep the rounding out of it
        return np.zeros((1, 1) + metric.grid.shape)
    ginv = metric.inv
    ddg = second_derivatives(metric.values, metric.grid)
    A = np.einsum("il...,ikjl...->jk...", ginv, ddg)
    ric = 0.5 * (A + np.swapaxes(A, 0, 1)
                 - np.einsum("il...,iljk...->jk...", ginv, ddg)
                 - np.einsum("il...,jkil...->jk...", ginv, ddg))
    gG = np.einsum("pq...,qjl...->pjl...", metric.values, gamma)
    up = np.einsum("li...,pik...->plk...", ginv, gamma)
    ric += np.einsum("pjl...,plk...->jk...", gG, up)
    ric -= np.einsum("pjk...,p...->jk...", gamma,
                     np.einsum("il...,pil...->p...", ginv, gG))
    return ric


def lower_rm(rm13: np.ndarray, metric: MetricField) -> np.ndarray:
    return np.einsum("lm...,mijk...->ijkl...", metric.values, rm13)


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
    return np.moveaxis(D, 0, con)


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
# bundles

@dataclass(frozen=True)
class CurvatureBundle:
    metric: MetricField
    gamma: np.ndarray          # Gamma^k_{ij}
    rm4: np.ndarray            # R_{ijkl}; algebraic symmetries exact by construction
    ric: np.ndarray            # assembled directly (``ricci``), not traced from rm4
    scalar: np.ndarray

    @cached_property
    def rm13(self):            # R^l_{ijk}, raised from the lowered tensor
        return np.einsum("lm...,ijkm...->lijk...", self.metric.inv, self.rm4)

    @cached_property
    def weyl(self):
        return weyl_tensor(self.rm4, self.ric, self.scalar, self.metric)


def curvature(metric: MetricField, gamma: np.ndarray | None = None,
              ric: np.ndarray | None = None) -> CurvatureBundle:
    """Curvature of ``metric``; ``gamma`` and ``ric`` reuse values already
    computed from the same metric.  ``rm13`` and ``weyl`` are built on first use."""
    gamma = christoffel(metric) if gamma is None else gamma
    ric = ricci(metric, gamma) if ric is None else ric
    rm4 = riemann_lowered(metric, gamma)
    scal = np.einsum("jk...,jk...->...", metric.inv, ric)
    return CurvatureBundle(metric, gamma, rm4, ric, scal)


@dataclass(frozen=True)
class CoupledBundle:
    du: np.ndarray             # (0,1)
    hess: np.ndarray           # (0,2)
    d3u: np.ndarray            # (0,3) = nabla(hess)
    lap_u: np.ndarray
    grad_sq: np.ndarray        # |nabla u|^2
    sic: np.ndarray            # Ric - a1 du x du
    s: np.ndarray              # tr Sic
    sin: np.ndarray            # trace-free part of Sic
    sm: np.ndarray             # S_{ijkl}
    xi: np.ndarray             # Xi (0,2)
    z: np.ndarray              # Z_{ijk}


def sm_tensor(rm4: np.ndarray, du: np.ndarray, g: np.ndarray,
              alpha1: float) -> np.ndarray:
    """S_{ijkl} = R_{ijkl} - (a1/2)(g_{jl} d_i u d_k u + g_{kl} d_i u d_j u)."""
    corr = (np.einsum("jl...,i...,k...->ijkl...", g, du, du)
            + np.einsum("kl...,i...,j...->ijkl...", g, du, du))
    return rm4 - 0.5 * alpha1 * corr


def coupled(metric: MetricField, u: np.ndarray, alpha1: float,
            beta1: float = 0.0, beta2: float = 0.0, C: float = 0.0,
            curv: CurvatureBundle | None = None) -> CoupledBundle:
    grid = metric.grid
    cb = curv if curv is not None else curvature(metric)
    du = grad_stack(u, grid)
    H = hessian(u, grid, cb.gamma)
    d3u = cov_d(H, grid, cb.gamma, 0, 2)
    lap = np.einsum("ij...,ij...->...", metric.inv, H)
    gsq = np.einsum("ij...,i...,j...->...", metric.inv, du, du)
    sic = cb.ric - alpha1 * np.einsum("i...,j...->ij...", du, du)
    S = np.einsum("jk...,jk...->...", metric.inv, sic)
    sin = sic - (S / grid.n) * metric.values
    sm = sm_tensor(cb.rm4, du, metric.values, alpha1)
    dgsq = grad_stack(gsq, grid)
    xi = (lap * H
          - beta2 * np.einsum("i...,j...->ij...", du, du)
          - beta1 * np.einsum("i...,j...->ij...", du, dgsq))
    dsic = cov_d(sic, grid, cb.gamma, 0, 2)
    dS = grad_stack(S, grid)
    z = (S + C) * dsic - np.einsum("jk...,i...->ijk...", sic, dS)
    return CoupledBundle(du, H, d3u, lap, gsq, sic, S, sin, sm, xi, z)


@dataclass(frozen=True)
class WYBundle:
    rm_wy: np.ndarray          # R^u_{ijkl}, curvature of the weighted connection
    ric_wy: np.ndarray         # g^{il} R^u_{ijkl}
    ric_wy_hat: np.ndarray     # g^{il} R^u_{jilk}
    scalar_wy: np.ndarray
    ric_l: np.ndarray          # Ric - 2 du x du
    scalar_l: np.ndarray
    rm_l: np.ndarray           # S_{ijkl} at a1 = 2


def weighted_christoffel(gamma: np.ndarray, du: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of nabla^u: Gamma^k_{ij} - delta^k_i d_j u - delta^k_j d_i u."""
    out = gamma.copy()
    for k in range(n):
        out[k, k] -= du        # -delta^k_i d_j u
        out[k, :, k] -= du     # -delta^k_j d_i u  (hits (k,k,k) twice, as it must)
    return out


def wy_curvature(metric: MetricField, u: np.ndarray,
                 curv: CurvatureBundle | None = None) -> WYBundle:
    grid = metric.grid
    cb = curv if curv is not None else curvature(metric)
    du = grad_stack(u, grid)
    gamma_u = weighted_christoffel(cb.gamma, du, grid.n)
    rm_u13 = riemann_13(gamma_u, grid)
    rm_wy = lower_rm(rm_u13, metric)
    ric_wy = np.einsum("il...,ijkl...->jk...", metric.inv, rm_wy)
    ric_wy_hat = np.einsum("il...,jilk...->jk...", metric.inv, rm_wy)
    scalar_wy = np.einsum("jk...,jk...->...", metric.inv, ric_wy)
    gsq = np.einsum("ij...,i...,j...->...", metric.inv, du, du)
    ric_l = cb.ric - 2.0 * np.einsum("i...,j...->ij...", du, du)
    scalar_l = cb.scalar - 2.0 * gsq
    rm_l = sm_tensor(cb.rm4, du, metric.values, 2.0)
    return WYBundle(rm_wy, ric_wy, ric_wy_hat, scalar_wy, ric_l, scalar_l, rm_l)


def weighted_connection_apply(metric: MetricField, u: np.ndarray,
                              X: np.ndarray, Y: np.ndarray,
                              gamma: np.ndarray | None = None) -> np.ndarray:
    """nabla^u_X Y = nabla_X Y - (Yu) X - (Xu) Y for vector fields X, Y."""
    grid = metric.grid
    G = gamma if gamma is not None else christoffel(metric)
    du = grad_stack(u, grid)
    dY = np.stack([diff1(Y, grid, a) for a in range(grid.n)])   # dY[a,k]
    nabla_XY = (np.einsum("a...,ak...->k...", X, dY)
                + np.einsum("kab...,a...,b...->k...", G, X, Y))
    Yu = np.einsum("a...,a...->...", Y, du)
    Xu = np.einsum("a...,a...->...", X, du)
    return nabla_XY - Yu * X - Xu * Y


def div_form_weighted_laplacian(metric: MetricField, u: np.ndarray) -> np.ndarray:
    """(Delta u + |nabla u|^2) e^u evaluated in discrete divergence form.

    Equals (1/sqrt g) d_i(sqrt g g^{ij} e^u d_j u); its integral against
    dV telescopes to zero exactly on a periodic grid.
    """
    grid = metric.grid
    du = grad_stack(u, grid)
    flux = metric.sqrt_det * np.exp(u) * np.einsum("ij...,j...->i...", metric.inv, du)
    out = np.zeros(grid.shape)
    for a in range(grid.n):
        out += diff1(flux[a], grid, a)
    return out / metric.sqrt_det


def divergence(metric: MetricField, X: np.ndarray,
               gamma: np.ndarray | None = None) -> np.ndarray:
    """div X = nabla_i X^i."""
    grid = metric.grid
    G = gamma if gamma is not None else christoffel(metric)
    out = np.zeros(grid.shape)
    for a in range(grid.n):
        out += diff1(X[a], grid, a)
    return out + np.einsum("iik...,k...->...", G, X)
