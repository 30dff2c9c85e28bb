"""Entropy functional, its constrained minimization, and the closed-form
constant evaluators, plus the pinching quantities and the dimension-4
curvature-integral defect.

The entropy of (g, u, f, tau) is

    W = int [ tau (S + |grad f|^2) + f - n ] (4 pi tau)^{-n/2} e^{-f} dV,
    S = R - 2 |grad u|^2,

with the normalization int (4 pi tau)^{-n/2} e^{-f} dV = 1, and

    mu(g, u, tau) = inf over normalized f.

Internally the substitution w = ((4 pi tau)^{-n/2} e^{-f})^{1/2} turns the
normalization into int w^2 dV = 1 and the functional into

    W = int [ tau (w^2 S + 4 |grad w|^2) - (2 ln w + (n/2) ln(4 pi tau) + n) w^2 ] dV,

which is what the projected-gradient minimizer works on.  ``_w_eval`` is
the one discrete W (both public evaluators call it, so they agree to
rounding on normalized inputs); it hands the grad w and ln|w| it formed to
``_mu_gradient``, the adjoint of its Dirichlet form, so each accepted
iterate is differenced once.  mu is an upper estimate of the infimum;
monotonicity checks carry optimizer-tolerance slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MetricField, flat_divergence, grad_stack, integrate
from .tensor import CoupledGeometry, curvature, norm_sq


def coupled_scalar(metric: MetricField, u: np.ndarray, alpha1: float = 2.0) -> np.ndarray:
    """S = R - alpha1 |grad u|^2."""
    return CoupledGeometry(metric, u, alpha1).S


def normalize_f(metric: MetricField, f: np.ndarray, tau: float) -> np.ndarray:
    """Shift f so that int (4 pi tau)^{-n/2} e^{-f} dV = 1 exactly."""
    n = metric.grid.n
    mass = integrate(np.exp(-f), metric) * (4.0 * np.pi * tau) ** (-n / 2.0)
    return f + np.log(mass)


def _w_eval(metric: MetricField, S: np.ndarray, w: np.ndarray, tau: float):
    """W at a normalized w, with the pieces its L^2 gradient reuses:
    (W, dw, ln|w|, c0), c0 = (n/2) ln(4 pi tau) + n."""
    n = metric.grid.n
    c0 = 0.5 * n * np.log(4.0 * np.pi * tau) + n
    dw = grad_stack(w, metric.grid)
    lnw = np.log(np.maximum(np.abs(w), 1e-300))
    wsq = w * w
    dirichlet = integrate(np.einsum("ij...,i...,j...->...", metric.inv, dw, dw), metric)
    W = (tau * integrate(S * wsq, metric) + 4.0 * tau * dirichlet
         - integrate((2.0 * lnw + c0) * wsq, metric))
    return W, dw, lnw, c0


def _mu_gradient(metric: MetricField, w, tau, S, dw, lnw, c0):
    """L^2(dV) gradient of W at w, the adjoint of the Dirichlet form in
    ``_w_eval`` built from the same dw and ln|w|."""
    flux = np.einsum("ij...,j...->i...", metric.inv, dw) * metric.sqrt_det
    div = flat_divergence(flux, metric.grid)
    return (2.0 * tau * S * w - 8.0 * tau * div / metric.sqrt_det
            - (4.0 * w * lnw + 2.0 * w + 2.0 * c0 * w))


def w_entropy_w_form(metric: MetricField, u: np.ndarray, w: np.ndarray,
                     tau: float) -> float:
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _w_eval(metric, coupled_scalar(metric, u), w, tau)[0]


def w_entropy(metric: MetricField, u: np.ndarray, f: np.ndarray, tau: float) -> float:
    """Entropy of a normalized test function f (the |grad f|^2 term is taken
    through the w substitution so the two forms agree to rounding)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = metric.grid.n
    w = np.exp(-0.5 * f) * (4.0 * np.pi * tau) ** (-n / 4.0)
    return _w_eval(metric, coupled_scalar(metric, u), w, tau)[0]


def _upper_bound(metric: MetricField, S: np.ndarray, tau: float) -> float:
    n = metric.grid.n
    vol = integrate(np.ones(metric.grid.shape), metric)
    s_avg = integrate(S, metric) / vol
    return tau * s_avg + np.log(vol) - 0.5 * n * np.log(4.0 * np.pi * tau) - n


def mu_upper_bound(metric: MetricField, u: np.ndarray, tau: float) -> float:
    """tau S_avg + ln Vol - (n/2) ln(4 pi tau) - n."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _upper_bound(metric, coupled_scalar(metric, u), tau)


def log_sobolev_constant(a: float, vol: float, n: int, C_s: float) -> float:
    """C(a, g) = a Vol^{-2/n} + n^2 / (4 a e^2 C_s); C_s is user-supplied."""
    return a * vol ** (-2.0 / n) + n * n / (4.0 * a * np.e ** 2 * C_s)


def mu_lower_bound(metric: MetricField, u: np.ndarray, tau: float,
                   C_s: float) -> float:
    """tau S_min - 2 C(2 tau, g) - (n/2) ln(4 pi tau) - n."""
    n = metric.grid.n
    vol = integrate(np.ones(metric.grid.shape), metric)
    s_min = float(np.min(coupled_scalar(metric, u)))
    return (tau * s_min - 2.0 * log_sobolev_constant(2.0 * tau, vol, n, C_s)
            - 0.5 * n * np.log(4.0 * np.pi * tau) - n)


@dataclass(frozen=True)
class EntropyReport:
    mu: float                    # W at the returned minimizer
    w: np.ndarray                # minimizer in the w parametrization
    upper_bound: float
    norm_defect: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class OptimizerOpts:
    tol: float = 1e-8            # stop when the objective decrease falls below
    max_iter: int = 10_000
    nseeds: int = 5              # constant + 4 random
    step0: float = 0.05
    seed: int = 1234


def mu_minimize(metric: MetricField, u: np.ndarray, tau: float,
                opts: OptimizerOpts = OptimizerOpts(),
                warm_start: np.ndarray | None = None) -> EntropyReport:
    """Projected gradient descent on w with int w^2 dV = 1.

    Runs from the constant seed and ``nseeds - 1`` random positive seeds
    (plus an optional warm-start seed, used when tracking the minimizer
    along a flow); keeps the best.  Fixed step with backtracking; iterates
    are renormalized each step.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    grid = metric.grid
    n = grid.n
    Sg = coupled_scalar(metric, u)
    rng = np.random.default_rng(opts.seed)

    def normalize(w):
        return w / np.sqrt(integrate(w * w, metric))

    seeds = [np.ones(grid.shape)]
    for _ in range(opts.nseeds - 1):
        seeds.append(1.0 + 0.5 * rng.random(grid.shape))
    if warm_start is not None:
        seeds.append(np.abs(warm_start) + 1e-300)
    cellw = metric.sqrt_det * grid.cell_volume

    best = None
    total_iters = 0
    any_converged = False
    for w0 in seeds:
        w = normalize(w0)
        e, *parts = _w_eval(metric, Sg, w, tau)
        grad = _mu_gradient(metric, w, tau, Sg, *parts)
        grad -= integrate(grad * w, metric) * w
        step = opts.step0
        converged = False
        it = 0
        stall = 0
        w_prev = grad_prev = None
        while it < opts.max_iter:
            it += 1
            if w_prev is not None:
                # spectral (Barzilai-Borwein) step, safeguarded by backtracking
                s = (w - w_prev) * cellw
                sy = float(np.sum(s * (grad - grad_prev)))
                ss = float(np.sum(s * (w - w_prev)))
                if sy > 1e-30:
                    step = min(max(ss / sy, 1e-6), 1e3)
            trial_step = step
            improved = False
            for _ in range(40):
                wt = normalize(np.abs(w - trial_step * grad) + 1e-300)
                et, *trial_parts = _w_eval(metric, Sg, wt, tau)
                if et < e:
                    improved = True
                    break
                trial_step *= 0.5
            if not improved:
                converged = True
                break
            decrease = e - et
            w_prev, grad_prev = w, grad
            w, e, parts = wt, et, trial_parts
            grad = _mu_gradient(metric, w, tau, Sg, *parts)
            grad -= integrate(grad * w, metric) * w
            if decrease < opts.tol * max(1.0, abs(e)):
                stall += 1
                if stall >= 5:
                    converged = True
                    break
            else:
                stall = 0
        total_iters += it
        any_converged = any_converged or converged
        if best is None or e < best[0]:
            best = (e, w)
    mu, w = best
    f = -2.0 * np.log(np.maximum(w, 1e-300)) - 0.5 * n * np.log(4.0 * np.pi * tau)
    norm_defect = abs(integrate(np.exp(-f), metric)
                      * (4.0 * np.pi * tau) ** (-n / 2.0) - 1.0)
    return EntropyReport(mu, w, _upper_bound(metric, Sg, tau),
                         norm_defect, total_iters, any_converged)


# --------------------------------------------------------------------------
# closed-form constant evaluators

@dataclass(frozen=True)
class EstimateConstants:
    """User-supplied bound constants; the Lambdas are always recomputed."""
    K: float = 0.0
    L: float = 0.0
    P: float = 0.0
    rho: float = 1.0
    D: float = 0.0
    A: float = 0.0
    C_user: float = 1.0
    C_s_user: float = 1.0

    @property
    def lambda1(self) -> float:
        return 1.0 + self.K

    @property
    def lambda2(self) -> float:
        kinv = np.inf if self.K == 0 else 1.0 / self.K
        return self.K + self.L + self.L ** 2 + self.P ** 2 * (1.0 + kinv)


def noncollapse_constants(n: int, D: float, A: float, Cn_user: float,
                          r: float = 1.0) -> dict:
    """Ball-ratio bound, the volume-ratio constant c, and kappa = c e^{-A}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if D < 0 or A < 0 or Cn_user <= 0:
        raise ValueError("D, A must be >= 0 and Cn_user > 0")
    cnr_bound = 3.0 + np.exp(np.sqrt(D / (4.0 * (n - 1))))
    c = Cn_user * np.exp(-Cn_user * np.exp(Cn_user * np.sqrt(D)))
    kappa = c * np.exp(-A)
    return {"C_n_r_bound": float(cnr_bound), "c": float(c), "kappa": float(kappa)}


def delta_u_bound(n: int, K: float, T: float, C_user: float) -> float:
    """Explicit sup bound for the potential's Laplacian under bounded Ricci."""
    if K < 0 or T < 0 or C_user <= 0:
        raise ValueError("K, T must be >= 0 and C_user > 0")
    C = C_user
    return (C * (1.0 + K) / (1.0 + T) ** (n / 2.0)
            * np.exp(C * (1.0 + T + 1.0 + K * T + np.exp(C * np.sqrt(K)))))


def calibrate_uniform_constant(bound_fn, observed: float,
                               lo: float = 1e-6, hi: float = 64.0) -> float:
    """Smallest C with bound_fn(C) >= observed, by bisection.

    This is the documented calibration procedure for the generic
    'uniform constant C' inputs: fit once on a baseline run, then freeze.
    """
    with np.errstate(over="ignore"):
        if bound_fn(hi) < observed:
            raise ValueError("bound cannot cover the observation in the search range")
        if bound_fn(lo) >= observed:
            return lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if bound_fn(mid) >= observed:
                hi = mid
            else:
                lo = mid
    return hi


def ba_bound_shape(C_tilde: float, s: float) -> float:
    """The C~(1+s) e^{C~ s} envelope of the dimension-4 integral estimates;
    monitored against recorded integral time series, never asserted."""
    return C_tilde * (1.0 + s) * np.exp(C_tilde * s)


def lp_curvature_bound(n: int, p: float, consts: EstimateConstants, T: float,
                       int_rm_p0: float, vol_t: float) -> float:
    """Monitored-bound shape for the local L^p curvature integral."""
    C = consts.C_user
    growth = np.exp(C * consts.lambda2 * T)
    return (C * consts.lambda1 * growth * int_rm_p0
            + C * consts.K ** p * (1.0 + consts.rho ** (-2.0 * p)) * growth * vol_t)


def dimension4_bound_constants(alpha1: float, beta1: float, beta2: float, A1: float,
                       C: float, C0: float, vol0: float, chi: float) -> dict:
    """The displayed closed-form constants of the dimension-4 integral bounds."""
    a1, b1, b2 = abs(alpha1), abs(beta1), abs(beta2)
    out = {
        "C1": 36.0 * C + 4.0 * a1 * b1 + 4.0 * a1 * A1 * b2 / C0,
        "C2": 574.0,
        "C3": 16.0 * a1 ** 2 * A1 ** 2 * b1 ** 2 / C0 ** 2
              + 4.0 * a1 * (1.0 + A1 ** 2 * b1 / C0),
        "C4": 256.0 * a1 ** 2 / C0 ** 2,
        "C5": (104.0 * alpha1 ** 2 * A1 ** 2 + 4.0 * a1 * A1 * b2) * vol0,
        "C6": 2.0 * b2 + 2.0 * abs(alpha1 - 2.0 * beta1 ** 2) * abs(A1) + C,
        "C7": 256.0 * np.pi ** 2 * chi,
        "Ct1": 145.0 + 4.0 * abs(alpha1 * beta1) + 4.0 * abs(alpha1 * beta2) * A1
               + 1458.0 / 13.0,
        "Ct2": 4.0 * a1 * (1.0 + A1 ** 2 * b1) + 12.0 * (alpha1 * beta1) ** 2 * A1 ** 2,
        "Ct3": 385.0 * np.pi ** 5 * chi,
        "Ct4": (156.0 * alpha1 ** 2 * A1 + 4.0 * a1 * A1 * b2) * vol0,
        "Ct5": 2.0 * b2 + 2.0 * abs(alpha1 - 2.0 * beta1 ** 2) * A1 + 2.0,
        "Ct6": 3072.0 * a1 ** 2,
    }
    return {k: float(v) for k, v in out.items()}


# --------------------------------------------------------------------------
# pinching quantities and the dimension-4 integral defect

class PositivityError(ValueError):
    pass


def _lambda(geo: CoupledGeometry, C: float):
    """S + C, checked positive, and the Lambda combination
    (tr Xi |Sic|^2 - 2 (S + C) <Sic, Xi>) / (S + C)^2 of ``geo``."""
    Sp = geo.S + C
    if np.min(Sp) <= 0:
        loc = np.unravel_index(int(np.argmin(Sp)), geo.grid.shape)
        raise PositivityError(f"S + C must be positive; min {np.min(Sp):.6g} "
                              f"at grid index {tuple(int(i) for i in loc)}")
    tr_xi = np.einsum("ij...,ij...->...", geo.ginv, geo.xi)
    sic_xi = np.einsum("ij...,ij...->...", geo.sic_up, geo.xi)
    return Sp, (tr_xi * geo.sic_sq - 2.0 * Sp * sic_xi) / Sp ** 2


def pinching_quantities(metric: MetricField, u: np.ndarray, alpha1: float,
                        C: float, gamma: float) -> dict:
    """Pointwise pinching ratios of the coupled curvature.

    Returns the gamma-weighted trace-free ratio |Sin|^2/(S+C)^gamma, the
    quadratic ratio |Sic|^2/(S+C), the Lambda combination built from Xi,
    and |Sin|/(S+C).  Requires S + C > 0 everywhere.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    # Xi here carries the beta1 = beta2 = 0 specialization; lambda_bounds
    # accepts the couplings explicitly.
    geo = CoupledGeometry(metric, u, alpha1)
    Sp, lam = _lambda(geo, C)
    sin_sq = norm_sq(geo.sin, metric, 0, 2)
    return {
        "f_gamma": sin_sq / Sp ** gamma,
        "f_ratio": geo.sic_sq / Sp,
        "lambda": lam,
        "sin_ratio": np.sqrt(sin_sq) / Sp,
        "S_plus_C": Sp,
        "bundle": geo,
    }


def lambda_bounds(metric: MetricField, u: np.ndarray, alpha1: float, C: float,
                  beta1: float = 0.0, beta2: float = 0.0) -> dict:
    """Pointwise two-sided bounds for the Lambda combination.

    C0 is taken as min(S + C); both the lower and the upper displayed bound
    hold pointwise regardless of the sign of alpha1 (the sign only selects
    which one the integral estimates need).
    """
    geo = CoupledGeometry(metric, u, alpha1, beta1, beta2)
    Sp, lam = _lambda(geo, C)
    C0 = float(np.min(Sp))
    f = geo.sic_sq / Sp
    hess_n = np.sqrt(geo.hess_sq)
    gsq = geo.grad_sq
    b1, b2 = abs(beta1), abs(beta2)
    lower = (-hess_n ** 2 - 2.0 * b2 * gsq * (1.0 + f / C0)
             - 2.0 * b1 * (hess_n * gsq / C0) * f
             - 2.0 * b1 * (f + hess_n ** 2 * gsq ** 2 / C0))
    upper = (2.0 * hess_n ** 2 * (1.0 + 4.0 * f / C0)
             + 2.0 * b2 * gsq * (1.0 + f / C0)
             + 2.0 * b1 * (hess_n * gsq / C0) * f
             + 2.0 * b1 * (f + gsq ** 2 * hess_n ** 2 / C0))
    return {"lambda": lam, "lower": lower, "upper": upper, "C0": C0}


def gbc_defect(metric: MetricField, chi: float) -> float:
    """int (|Rm|^2 - 4 |Ric|^2 + R^2) dV - 32 pi^2 chi on a 4-torus."""
    if metric.grid.n != 4:
        raise ValueError("the curvature-integral defect is dimension-4 only")
    if metric.grid.kind != "torus":
        raise ValueError("requires a closed (torus) grid")
    cb = curvature(metric)
    integrand = (norm_sq(cb.rm4, metric, 0, 4)
                 - 4.0 * norm_sq(cb.ric, metric, 0, 2) + cb.scalar ** 2)
    return integrate(integrand, metric) - 32.0 * np.pi ** 2 * chi


def gbc_defect_coupled(metric: MetricField, u: np.ndarray, alpha1: float,
                       chi: float) -> float:
    """The coupled-curvature rearrangement of the same defect.

    int (|Sm|^2 - 4 |Sic|^2 + S^2) dV minus its displayed right side; agrees
    with ``gbc_defect`` to rounding because the pointwise conversion between
    the two integrands is an exact algebraic identity of the stored tensors.
    """
    if metric.grid.n != 4:
        raise ValueError("the curvature-integral defect is dimension-4 only")
    geo = CoupledGeometry(metric, u, alpha1)
    gsq, S = geo.grad_sq, geo.S
    lhs = integrate(geo.sm_sq - 4.0 * geo.sic_sq + S * S, metric)
    sic_du_du = np.einsum("ij...,i...,j...->...", geo.sic, geo.du_up, geo.du_up)
    rhs = (32.0 * np.pi ** 2 * chi
           + 6.5 * alpha1 ** 2 * integrate(gsq * gsq, metric)
           + 9.0 * alpha1 * integrate(sic_du_du, metric)
           - 2.0 * alpha1 * integrate(S * gsq, metric))
    return lhs - rhs
