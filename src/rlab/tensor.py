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

``Geometry`` and ``CoupledGeometry`` hold every derived field of one pair
(g, u), each built once on first use; the flow, the identities, the
comparisons and the functionals all read them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .mesh import Grid, MetricField, diff1, diff2, flat_divergence, grad_stack

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
    dG = grad_stack(gamma, grid)                   # [a,l,i,j] -> d_a G^l_{ij}
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

    The flow right-hand side asks only for Gamma, Ric and the Hessian, so the
    Riemann tensor is formed only when a diagnostic or an identity needs it.
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
    def gamma(self):
        return christoffel(self.metric)

    @cached_property
    def ric(self):
        return ricci(self.metric, self.gamma)

    @cached_property
    def rm4(self):          # R_{ijkl}; algebraic symmetries exact by construction
        return riemann_lowered(self.metric, self.gamma)

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
    def rm_sq(self):        # |Rm|^2 = R^{ij}_{kl} R^{kl}_{ij}, by pair exchange
        up = raise_index(raise_index(self.rm4, self.metric, 0), self.metric, 1)
        return np.einsum("ijkl...,klij...->...", up, up)

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
        # |Sm|^2 expanded through the symmetries of Rm, so that no second
        # 4-tensor is normed
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
