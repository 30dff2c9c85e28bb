"""Integral comparison of the curvature variants, Killing-field tooling,
and the related integral identities.

The orderings compare pairs drawn from {Ric, Ric_L, Ric_WY, Ric_WY_hat}
(and their scalar traces) after integration against a weight: the volume
form, e^u dV, or the slowly-varying weight e^{f~} dV built from
u~ = u - min u + c0 with c0 ln c0 = 1 and f~ = ln ln u~.  Verdicts carry
the raw margin (right minus left); Killing-restricted orderings insist on
verified Killing / constant-norm flags.

The printed integral identity for |L_X g|^2 disagrees with the common
normalization by a factor on the left side; ``yano_defect`` evaluates it
raw with a caller-supplied factor, and the shipped test manifest records
the factor decided once by a brute-force summation-by-parts run on a tiny
grid (0.5, i.e. the identity holds for (1/2)|L_X g|^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MetricField, grad_stack, integrate
from .tensor import (Geometry, cov_d, curvature,
                     div_form_weighted_laplacian, divergence, norm_sq, raise_index,
                     rough_laplacian)

KILLING_TOL = 1e-6
CONST_NORM_TOL = 1e-8
C0_TOL = 1e-12


@dataclass(frozen=True)
class OrderVerdict:
    pair: str
    weight: str
    left: float
    right: float
    tolerance: float

    @property
    def margin(self) -> float:
        return self.right - self.left

    @property
    def verdict(self) -> str:
        if self.pair == "R_eq_RWY_e^u":     # an equality: the sign of its margin is rounding
            return "holds" if abs(self.margin) <= self.tolerance else "fails"
        if self.margin >= 0:
            return "holds"
        if self.margin >= -self.tolerance:
            return "within-tolerance"
        return "fails"

    def row(self):
        return (self.pair, self.weight, self.left, self.right,
                self.margin, self.verdict)


@dataclass(frozen=True)
class KillingReport:
    X: np.ndarray
    lie_max: float
    lie_l2: float
    div_max: float
    div_l2: float
    norm_sq_mean: float
    norm_sq_variance: float
    grad_scale: float
    is_killing: bool
    constant_norm: bool


def _nabla_x_flat(metric: MetricField, X: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """nabla_i X_j, the covariant derivative of the lowered field X."""
    Xl = np.einsum("ij...,j...->i...", metric.values, X)
    return cov_d(Xl, metric.grid, gamma, 0, 1)


def _lie(dX: np.ndarray) -> np.ndarray:
    """(L_X g)_{ij} = nabla_i X_j + nabla_j X_i from dX = nabla X_flat."""
    return dX + np.swapaxes(dX, 0, 1)


def killing_report(metric: MetricField, X: np.ndarray) -> KillingReport:
    grid = metric.grid
    gamma = curvature(metric).gamma
    dX = _nabla_x_flat(metric, X, gamma)
    lie_sq = norm_sq(_lie(dX), metric, 0, 2)
    div = divergence(metric, X, gamma)
    xsq = np.einsum("ij...,i...,j...->...", metric.values, X, X)
    vol = integrate(np.ones(grid.shape), metric)
    grad_scale = float(np.sqrt(np.max(norm_sq(dX, metric, 0, 2))))
    scale = max(grad_scale, 1e-30)
    lie_max = float(np.sqrt(np.max(lie_sq)))
    div_max = float(np.max(np.abs(div)))
    mean = integrate(xsq, metric) / vol
    var = integrate((xsq - mean) ** 2, metric) / vol
    return KillingReport(
        X=X,
        lie_max=lie_max,
        lie_l2=float(np.sqrt(integrate(lie_sq, metric))),
        div_max=div_max,
        div_l2=float(np.sqrt(integrate(div * div, metric))),
        norm_sq_mean=float(mean),
        norm_sq_variance=float(var),
        grad_scale=grad_scale,
        is_killing=lie_max <= KILLING_TOL * scale,
        constant_norm=var <= CONST_NORM_TOL * max(mean * mean, 1e-30),
    )


# --------------------------------------------------------------------------
# weights

def solve_c0() -> float:
    """The root of c ln c = 1 on (1, infinity), by bisection to C0_TOL."""
    lo, hi = 1.0, 2.0
    while hi - lo > C0_TOL:
        mid = 0.5 * (lo + hi)
        if mid * np.log(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tilde_weight(u: np.ndarray) -> dict:
    """u~ = u - min u + c0 and f~ = ln ln u~; guarantees u~ ln u~ >= 1."""
    c0 = solve_c0()
    ut = u - np.min(u) + c0
    ft = np.log(np.log(ut))
    return {"u_tilde": ut, "f_tilde": ft, "c0": c0}


def _weight_values(metric: MetricField, u: np.ndarray, weight: str) -> np.ndarray:
    if weight == "volume":
        return np.ones(metric.grid.shape)
    if weight == "e^u":
        return np.exp(u)
    if weight == "e^f~":
        return np.exp(tilde_weight(u)["f_tilde"])
    raise ValueError(f"unknown weight {weight!r}")


# --------------------------------------------------------------------------
# orderings

SCALAR_PAIRS = ("RL_vs_R", "R_vs_RWY", "R_eq_RWY_e^u")


def _tolerance(metric: MetricField) -> float:
    """10 h^2 Vol, the discretization slack of every ordering verdict."""
    h2 = max(metric.grid.spacing) ** 2
    return 10.0 * h2 * integrate(np.ones(metric.grid.shape), metric)


def scalar_order(geo: Geometry, which_pair: str, weight: str = "volume") -> OrderVerdict:
    """Weighted integral comparison of the scalar-curvature variants of the
    geometry of a pair (metric, u)."""
    metric, u = geo.metric, geo.u
    if metric.grid.kind != "torus":
        raise ValueError("integral orderings require a torus grid")
    # every side is traced from the Gamma-form tensors, the route the weighted
    # curvature requires, so cross-stencil bias cancels and constant-u
    # margins vanish to rounding
    R = np.einsum("jk...,jk...->...", metric.inv, geo.ric_ref)
    mu = _weight_values(metric, u, "e^u" if which_pair == "R_eq_RWY_e^u" else weight)
    tol = _tolerance(metric)
    if which_pair == "RL_vs_R":
        ric_l = geo.ric_ref - 2.0 * np.einsum("i...,j...->ij...", geo.du, geo.du)
        R_l = np.einsum("jk...,jk...->...", metric.inv, ric_l)
        return OrderVerdict(which_pair, weight,
                            integrate(R_l * mu, metric),
                            integrate(R * mu, metric), tol)
    if which_pair in ("R_vs_RWY", "R_eq_RWY_e^u"):
        return OrderVerdict(which_pair, weight if which_pair == "R_vs_RWY" else "e^u",
                            integrate(R * mu, metric),
                            integrate(geo.scalar_wy * mu, metric), tol)
    raise ValueError(f"unknown pair {which_pair!r}")


RICCI_VARIANTS = ("L_vs_Ric", "Ric_vs_WY", "Ric_vs_WYhat")


def ricci_order(metric: MetricField, u: np.ndarray, X: np.ndarray,
                variant: str, weight: str = "volume") -> OrderVerdict:
    """Weighted comparison of Ric-variant quadratic forms along X.

    The Killing-restricted variants require both flags of killing_report;
    a violated precondition raises with the failed flag named.
    """
    if metric.grid.kind != "torus":
        raise ValueError("integral orderings require a torus grid")
    if variant not in RICCI_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant in ("Ric_vs_WY", "Ric_vs_WYhat"):
        rep = killing_report(metric, X)
        if not rep.is_killing:
            raise ValueError("precondition failed: is_killing is False "
                             f"(|L_X g| = {rep.lie_max:.3e})")
        if not rep.constant_norm:
            raise ValueError("precondition failed: constant_norm is False "
                             f"(variance = {rep.norm_sq_variance:.3e})")
    geo = Geometry(metric, u)       # Gamma-form traces, as in scalar_order
    mu = _weight_values(metric, u, weight)
    tol = _tolerance(metric)
    def quad(T):
        return integrate(np.einsum("ij...,i...,j...->...", T, X, X) * mu, metric)
    if variant == "L_vs_Ric":
        left = quad(geo.ric_ref - 2.0 * np.einsum("i...,j...->ij...", geo.du, geo.du))
        right = quad(geo.ric_ref)
    else:
        left = quad(geo.ric_ref)
        right = quad(geo.ric_wy if variant == "Ric_vs_WY" else geo.ric_wy_hat)
    return OrderVerdict(f"{variant}(X,X)", weight, left, right, tol)


# --------------------------------------------------------------------------
# integral identities

def yano_defect(metric: MetricField, X: np.ndarray,
                lhs_factor: float = 1.0) -> float:
    """lhs_factor * int |L_X g|^2 dV - int (|nabla X|^2 + (div X)^2 - Ric(X,X)) dV.

    With lhs_factor = 1 this is the printed form; the summation-by-parts
    oracle on a tiny grid decides the factor (0.5) under which the defect
    converges to zero, and that decision lives in the test manifest.
    """
    geo = curvature(metric)
    dX = _nabla_x_flat(metric, X, geo.gamma)
    div = divergence(metric, X, geo.gamma)
    ric_xx = np.einsum("ij...,i...,j...->...", geo.ric, X, X)
    lhs = lhs_factor * integrate(norm_sq(_lie(dX), metric, 0, 2), metric)
    rhs = integrate(norm_sq(dX, metric, 0, 2) + div * div - ric_xx, metric)
    return lhs - rhs


def yano_oracle_factor(metric: MetricField, X: np.ndarray) -> float:
    """Summation-by-parts arbitration of the |L_X g|^2 normalization.

    Uses the pointwise split (1/2)|L_X g|^2 = |nabla X|^2 + nabla_j X_i nabla^i X^j
    together with the discrete integration by parts
    int nabla_j X_i nabla^i X^j = int ((div X)^2 - Ric(X,X)) + O(h^2)
    and reports which left factor (1 or 1/2) zeroes the defect.
    """
    d1 = abs(yano_defect(metric, X, 1.0))
    d2 = abs(yano_defect(metric, X, 0.5))
    return 0.5 if d2 < d1 else 1.0


def lemma57_defect(metric: MetricField, u: np.ndarray, X: np.ndarray) -> dict:
    """Defects of the Hessian-pairing integral identities.

    general: int X^i X^j H_{ij} dV
             - [ int u <X, Delta X + grad div X + Ric(X)> dV
                 + (1/2) int u (|L_X g|^2 - Delta |X|^2) dV
                 - int <X, grad u> div X dV ]
    killing_a / killing_b: against -(1/2) int u Delta |X|^2 and
                           -(1/2) int |X|^2 Delta u (valid for Killing X).
    """
    grid = metric.grid
    f = Geometry(metric, u)
    gamma = f.gamma
    lhs = integrate(np.einsum("i...,j...,ij...->...", X, X, f.hess), metric)
    lapX = rough_laplacian(X, grid, gamma, metric, 1, 0)
    div = divergence(metric, X, gamma)
    grad_div = np.einsum("ij...,j...->i...", metric.inv, grad_stack(div, grid))
    ricX = np.einsum("ij...,j...->i...",
                     raise_index(f.ric, metric, 0), X)      # Ric^i_j X^j
    vec = lapX + grad_div + ricX
    x_vec = np.einsum("ij...,i...,j...->...", metric.values, X, vec)
    lie_sq = norm_sq(_lie(_nabla_x_flat(metric, X, gamma)), metric, 0, 2)
    xsq = np.einsum("ij...,i...,j...->...", metric.values, X, X)
    lap_xsq = rough_laplacian(xsq, grid, gamma, metric, 0, 0)
    x_du = np.einsum("i...,i...->...", X, f.du)
    rhs = (integrate(u * x_vec, metric)
           + 0.5 * integrate(u * (lie_sq - lap_xsq), metric)
           - integrate(x_du * div, metric))
    return {
        "general": lhs - rhs,
        "killing_a": lhs + 0.5 * integrate(u * lap_xsq, metric),
        "killing_b": lhs + 0.5 * integrate(xsq * f.lap_u, metric),
        "lhs": lhs,
    }


def wy_hat_margin_identity(metric: MetricField, u: np.ndarray,
                           X: np.ndarray) -> float:
    """Defect of the Killing-field margin identity for the hat variant:

    int [Ric_WY_hat(X,X) - Ric(X,X)] dV - (3/2) int u Delta |X|^2 dV
        - int (|X|^2 |grad u|^2 - <X, grad u>^2) dV
    """
    f = Geometry(metric, u)
    xsq = np.einsum("ij...,i...,j...->...", metric.values, X, X)
    lap_xsq = rough_laplacian(xsq, metric.grid, f.gamma, metric, 0, 0)
    x_du = np.einsum("i...,i...->...", X, f.du)
    lhs = integrate(np.einsum("ij...,i...,j...->...", f.ric_wy_hat - f.ric, X, X),
                    metric)
    return (lhs - 1.5 * integrate(u * lap_xsq, metric)
            - integrate(xsq * f.grad_sq - x_du ** 2, metric))


def weighted_divergence_integral(metric: MetricField, u: np.ndarray) -> float:
    """int (Delta u + |grad u|^2) e^u dV in discrete divergence form (exactly
    telescoping on a periodic grid)."""
    return integrate(div_form_weighted_laplacian(metric, u), metric)


# --------------------------------------------------------------------------
# flat-space closed forms for the radial-potential example

def example512(phi_kind, point, X, Y, phi_prime=None, phi_second=None) -> dict:
    """Closed-form curvature pairings on Euclidean space with u = phi(|x|^2).

    phi_kind is "r", "-r", or "custom" (then phi_prime/phi_second are
    callables of r = |x|^2).  Returns the two quadratic pairings at the
    given point for numeric vectors X, Y.
    """
    point = np.asarray(point, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    r = float(np.dot(point, point))
    if phi_kind == "r":
        p1, p2 = 1.0, 0.0
    elif phi_kind == "-r":
        p1, p2 = -1.0, 0.0
    elif phi_kind == "custom":
        p1, p2 = float(phi_prime(r)), float(phi_second(r))
    else:
        raise ValueError(f"unknown phi_kind {phi_kind!r}")
    T = point
    xt, yt = float(np.dot(X, T)), float(np.dot(Y, T))
    xy = float(np.dot(X, Y))
    xx, yy = float(np.dot(X, X)), float(np.dot(Y, Y))
    rm_l = -8.0 * p1 ** 2 * xt * yt * xy
    rm_wy = (4.0 * (p2 + p1 ** 2) * (xx * yt ** 2 - xt * yt * xy)
             + 2.0 * p1 * (xx * yy - xy ** 2))
    return {"rm_l": rm_l, "rm_wy": rm_wy}
