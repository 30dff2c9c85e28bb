"""Entropy functional, its constrained minimization, and the closed-form
constant evaluators, the Lambda bounds and the dimension-4 curvature-integral
defect.

The entropy of (g, u, f, tau) is

    W = int [ tau (S + |grad f|^2) + f - n ] (4 pi tau)^{-n/2} e^{-f} dV,
    S = R - 2 |grad u|^2,

with the normalization int (4 pi tau)^{-n/2} e^{-f} dV = 1, and

    mu(g, u, tau) = inf over normalized f.

Internally the substitution w = ((4 pi tau)^{-n/2} e^{-f})^{1/2} turns the
normalization into int w^2 dV = 1 and the functional into

    W = int [ tau (w^2 S + 4 |grad w|^2) - (2 ln w + (n/2) ln(4 pi tau) + n) w^2 ] dV,

which is what the minimizer works on.  ``_w_eval`` is the one discrete W.
Its Dirichlet form int g^{ij} D_i w D_j w dV is compact: the
average, over the 2^n choices of one-sided differences, of each choice's
form.  Each choice's form is positive semidefinite with only constants in
its kernel, so no w supported on one parity sublattice has zero energy, as
it would under central differences.  The average puts the weight
b_a = (a_aa + a_aa shifted by +e_a)/2, a = g^{-1} sqrt(g), on (D_a^+ w)^2
and keeps the central product a_ij D_i^c w D_j^c w off the diagonal, since
the sign choices of the two factors are independent.  ``_w_eval`` hands the
fluxes it formed, and ln|w|, to ``_mu_gradient``, the form's exact adjoint,
so each evaluated iterate is differenced once.

``mu_minimize`` descends along the gradient preconditioned by
P = (sigma mean sqrt(g) - 8 tau sum_a mean(g^{aa} sqrt g) D_a^+ D_a^-)^{-1},
a multiplier on the rfftn half spectrum, projected P-orthogonally onto the
tangent of the constraint, with Barzilai-Borwein steps measured in P^{-1}
(Antoine, Levitt and Tang, J. Comput. Phys. 343, 2017).  The inner
products in P and P^{-1} are weighted sums over that half spectrum
(Parseval), so only the direction P q is transformed back to the grid.
The grid means make the iterates invariant under (tau g, tau).  A warm
start runs beside the constant seed only; random seeds run on cold calls.
mu is an upper estimate of the infimum; monotonicity checks carry
optimizer-tolerance slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import DEFAULT_SEED
from .mesh import MetricField, _stencil, integrate
from .tensor import Geometry, curvature, norm_sq

SIGMA = 1.0     # weight of the mass term in the preconditioner
STEP0 = 0.05    # each seed's first descent step, before Barzilai-Borwein takes over
CALIBRATION_RANGE = (1e-6, 64.0)    # bisection bracket of calibrate_uniform_constant


def _form_weights(metric: MetricField):
    """(b, a) of the compact Dirichlet form: b_a on (D_a^+ w)^2, and
    a = g^{-1} sqrt(g) with its diagonal zeroed on D_i^c w D_j^c w."""
    grid = metric.grid
    a = metric.inv * metric.sqrt_det
    b = np.empty((grid.n,) + grid.shape)
    for i in range(grid.n):
        _stencil(lambda o, vm, v0, vp: np.add(v0, vp, out=o), a[i, i], grid, i, b[i])
        a[i, i] = 0.0
    b *= 0.5
    return b, a


def _differences(w: np.ndarray, grid) -> tuple:
    """The forward differences D_a^+ w = (w[i+1] - w[i]) / h and the central
    ones D_a^c w = (D_a^+ w[i] + D_a^+ w[i-1]) / 2, each stacked along a new
    first axis; each is written into its slot of the stack by ``mesh._stencil``,
    whose ``apply(o, vm, v0, vp)`` reads two of the views v[i - 1], v[i], v[i + 1]."""
    fwd = np.empty((grid.n,) + w.shape)
    cen = np.empty_like(fwd)
    for a, (f, c, h) in enumerate(zip(fwd, cen, grid.spacing)):
        _stencil(lambda o, vm, v0, vp: np.subtract(vp, v0, out=o), w, grid, a, f)
        f /= h
        _stencil(lambda o, vm, v0, vp: np.add(v0, vm, out=o), f, grid, a, c)
    cen *= 0.5
    return fwd, cen


def _w_eval(metric: MetricField, S: np.ndarray, w: np.ndarray, tau: float, form):
    """W at a normalized w, with the pieces its gradient reuses:
    (W, b D^+ w, a D^c w, ln|w|, c0), c0 = (n/2) ln(4 pi tau) + n;
    ``form`` is ``_form_weights(metric)``."""
    grid = metric.grid
    b, a = form
    c0 = 0.5 * grid.n * np.log(4.0 * np.pi * tau) + grid.n
    fwd, cen = _differences(w, grid)
    flux_fwd = b * fwd
    flux_cen = np.einsum("ij...,j...->i...", a, cen)
    dirichlet = float(np.sum(flux_fwd * fwd) + np.sum(flux_cen * cen)) * grid.cell_volume
    lnw = np.log(np.maximum(np.abs(w), 1e-300))
    W = integrate((tau * S - 2.0 * lnw - c0) * w * w, metric) + 4.0 * tau * dirichlet
    return W, flux_fwd, flux_cen, lnw, c0


def _mu_gradient(metric: MetricField, w, tau, S, flux_fwd, flux_cen, lnw, c0):
    """Flat gradient sqrt(g) grad W of ``_w_eval``'s W at w (dW/dw per cell
    volume), from the fluxes and ln|w| it formed: the Dirichlet form's
    adjoint is -2 D_i^-(b_i D_i^+ w) - 2 sum_{i != j} D_j^c(a_ij D_i^c w)."""
    grid = metric.grid
    div, term = np.zeros(grid.shape), np.empty(grid.shape)
    for i, (ff, fc, h) in enumerate(zip(flux_fwd, flux_cen, grid.spacing)):
        _stencil(lambda o, vm, v0, vp: np.subtract(v0, vm, out=o), ff, grid, i, term)
        term /= h
        div += term
        _stencil(lambda o, vm, v0, vp: np.subtract(vp, vm, out=o), fc, grid, i, term)
        term /= 2.0 * h
        div += term
    return (metric.sqrt_det * w * (2.0 * tau * S - 4.0 * lnw - 2.0 - 2.0 * c0)
            - 8.0 * tau * div)


def w_entropy(metric: MetricField, u: np.ndarray, f: np.ndarray, tau: float) -> float:
    """Entropy of a normalized test function f, evaluated through the w
    substitution (the |grad f|^2 term becomes 4 |grad w|^2)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = metric.grid.n
    w = np.exp(-0.5 * f) * (4.0 * np.pi * tau) ** (-n / 4.0)
    return _w_eval(metric, Geometry(metric, u, 2.0).S, w, tau, _form_weights(metric))[0]


def _upper_bound(metric: MetricField, S: np.ndarray, tau: float) -> float:
    n = metric.grid.n
    vol = integrate(np.ones(metric.grid.shape), metric)
    s_avg = integrate(S, metric) / vol
    return tau * s_avg + np.log(vol) - 0.5 * n * np.log(4.0 * np.pi * tau) - n


def mu_upper_bound(metric: MetricField, u: np.ndarray, tau: float) -> float:
    """tau S_avg + ln Vol - (n/2) ln(4 pi tau) - n."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _upper_bound(metric, Geometry(metric, u, 2.0).S, tau)


def log_sobolev_constant(a: float, vol: float, n: int, C_s: float) -> float:
    """C(a, g) = a Vol^{-2/n} + n^2 / (4 a e^2 C_s); C_s is user-supplied."""
    return a * vol ** (-2.0 / n) + n * n / (4.0 * a * np.e ** 2 * C_s)


def mu_lower_bound(metric: MetricField, u: np.ndarray, tau: float,
                   C_s: float) -> float:
    """tau S_min - 2 C(2 tau, g) - (n/2) ln(4 pi tau) - n."""
    n = metric.grid.n
    vol = integrate(np.ones(metric.grid.shape), metric)
    s_min = float(np.min(Geometry(metric, u, 2.0).S))
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
    nseeds: int = 5              # constant + 4 random, on cold calls only
    seed: int = DEFAULT_SEED


def _preconditioner(metric: MetricField, tau: float):
    """(forward, inverse, P, P^{-1}, weights) for ``mu_minimize``: rfftn and
    irfftn over the last n axes; the symbol P^{-1} of sigma mean(sqrt g) -
    8 tau sum_a mean(g^{aa} sqrt g) D_a^+ D_a^- on their half spectrum; and
    the weights that make sum x y = Re sum weights conj(x^) y^ (Parseval):
    1 on the last axis's zero bin, and on its Nyquist bin at an even
    resolution, 2 elsewhere, all over the number of grid points."""
    grid = metric.grid
    axes = tuple(range(-grid.n, 0))
    symbol = SIGMA * float(np.mean(metric.sqrt_det))
    for a, (res, h) in enumerate(zip(grid.shape, grid.spacing)):
        freq = np.fft.rfftfreq(res) if a == grid.n - 1 else np.fft.fftfreq(res)
        lam = (2.0 * np.sin(np.pi * freq) / h) ** 2
        weight = 8.0 * tau * float(np.mean(metric.inv[a, a] * metric.sqrt_det))
        symbol = symbol + weight * lam.reshape([-1 if b == a else 1 for b in range(grid.n)])
    k = np.arange(grid.shape[-1] // 2 + 1)
    weights = np.where((k == 0) | (2 * k == grid.shape[-1]), 1.0, 2.0)
    return (partial(np.fft.rfftn, axes=axes), partial(np.fft.irfftn, s=grid.shape, axes=axes),
            1.0 / symbol, symbol, weights / np.prod(grid.shape))


def mu_minimize(geo: Geometry, tau: float, opts: OptimizerOpts = OptimizerOpts(),
                warm_start: np.ndarray | None = None) -> EntropyReport:
    """Preconditioned projected gradient descent on w with int w^2 dV = 1.

    Runs from the constant seed and, on a cold call, ``nseeds - 1`` random
    positive seeds; with a ``warm_start`` (the previous minimizer, when
    tracking it along a flow) only from the constant seed and the warm
    start.  Keeps the best, and reports whether that seed converged.  Each
    step moves along P grad W, projected P-orthogonally onto the
    constraint's tangent, with a Barzilai-Borwein step <s, P^{-1} s> /
    <s, y> safeguarded by backtracking, both products taken by Parseval on
    the half spectrum; iterates are made positive and renormalized each
    step.  A seed stops after five steps in a row that lower W by less than
    ``tol`` (relative), or when backtracking finds no decrease.  The metric
    and u are ``geo``'s, and S = R - 2 |du|^2 whatever its a1.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    metric = geo.metric
    grid = metric.grid
    n = grid.n
    Sg = geo.scalar - 2.0 * geo.grad_sq
    form = _form_weights(metric)
    forward, inverse, P, Pinv, weights = _preconditioner(metric, tau)
    # weighted P, P^{-1} on a float64 view's (re, im) pairs, for einsum (not BLAS)
    wP, wPinv = (np.repeat(weights * F, 2, axis=-1).ravel() for F in (P, Pinv))

    def normalize(w):
        return w / np.sqrt(integrate(w * w, metric))

    def descent(w, parts, s=None):
        """q, the flat gradient less the multiple of the constraint's normal
        sqrt(g) w that makes P q tangent, P q and <s, P^{-1} s> (None with no
        step s into w), from one forward and one inverse transform."""
        r = _mu_gradient(metric, w, tau, Sg, *parts)
        v = metric.sqrt_det * w
        hat = forward(np.stack((r, v) if s is None else (r, v, s)))
        reim = hat.view(np.float64).reshape(len(hat), -1)
        rv, vv = np.einsum("i,ki,i->k", wP, reim[:2], reim[1])
        alpha = rv / vv
        ss = None if s is None else np.einsum("i,i,i->", wPinv, reim[2], reim[2])
        d = hat[0]                  # P (r^ - alpha v^), in place
        d -= alpha * hat[1]
        d *= P
        return r - alpha * v, inverse(d), ss

    seeds = [np.ones(grid.shape)]
    if warm_start is not None:
        seeds.append(np.abs(warm_start) + 1e-300)
    else:
        rng = np.random.default_rng(opts.seed)
        seeds += [1.0 + 0.5 * rng.random(grid.shape) for _ in range(opts.nseeds - 1)]

    best = None
    total_iters = 0
    for w0 in seeds:
        w = normalize(w0)
        e, *parts = _w_eval(metric, Sg, w, tau, form)
        q, d, _ = descent(w, parts)
        step = STEP0
        converged = False
        it = 0
        stall = 0
        q_prev = None
        while it < opts.max_iter:
            it += 1
            if q_prev is not None:
                sy = float(np.sum(s * (q - q_prev)))
                if sy > 1e-30:
                    step = min(max(ss / sy, 1e-6), 1e3)
            trial_step = step
            improved = False
            for _ in range(40):
                wt = normalize(np.abs(w - trial_step * d) + 1e-300)
                et, *trial_parts = _w_eval(metric, Sg, wt, tau, form)
                if et < e:
                    improved = True
                    break
                trial_step *= 0.5
            if not improved:
                converged = True
                break
            decrease = e - et
            s, q_prev = wt - w, q
            w, e = wt, et
            q, d, ss = descent(w, trial_parts, s)
            if decrease < opts.tol * max(1.0, abs(e)):
                stall += 1
                if stall >= 5:
                    converged = True
                    break
            else:
                stall = 0
        total_iters += it
        if best is None or e < best[0]:
            best = (e, w, converged)
    mu, w, converged = best
    f = -2.0 * np.log(np.maximum(w, 1e-300)) - 0.5 * n * np.log(4.0 * np.pi * tau)
    norm_defect = abs(integrate(np.exp(-f), metric)
                      * (4.0 * np.pi * tau) ** (-n / 2.0) - 1.0)
    return EntropyReport(mu, w, _upper_bound(metric, Sg, tau),
                         norm_defect, total_iters, converged)


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
    C_s: float = 1.0

    @property
    def lambda1(self) -> float:
        return 1.0 + self.K

    @property
    def lambda2(self) -> float:
        kinv = np.inf if self.K == 0 else 1.0 / self.K
        return self.K + self.L + self.L ** 2 + self.P ** 2 * (1.0 + kinv)


def noncollapse_constants(n: int, D: float, A: float, Cn_user: float) -> dict:
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


def calibrate_uniform_constant(bound_fn, observed: float) -> float:
    """Smallest C in CALIBRATION_RANGE with bound_fn(C) >= observed, by bisection.

    This is the documented calibration procedure for the generic
    'uniform constant C' inputs: fit once on a baseline run, then freeze.
    """
    lo, hi = CALIBRATION_RANGE
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
# the Lambda bounds and the dimension-4 integral defect

class PositivityError(ValueError):
    pass


def lambda_bounds(metric: MetricField, u: np.ndarray, alpha1: float, C: float,
                  beta1: float = 0.0, beta2: float = 0.0) -> dict:
    """Pointwise two-sided bounds for the Lambda combination
    (tr Xi |Sic|^2 - 2 (S + C) <Sic, Xi>) / (S + C)^2, which needs S + C > 0.

    C0 is taken as min(S + C); both the lower and the upper displayed bound
    hold pointwise regardless of the sign of alpha1 (the sign only selects
    which one the integral estimates need).
    """
    geo = Geometry(metric, u, alpha1, beta1, beta2)
    Sp = geo.S + C
    C0 = float(np.min(Sp))
    if C0 <= 0:
        loc = np.unravel_index(int(np.argmin(Sp)), geo.grid.shape)
        raise PositivityError(f"S + C must be positive; min {C0:.6g} "
                              f"at grid index {tuple(int(i) for i in loc)}")
    tr_xi = np.einsum("ij...,ij...->...", geo.ginv, geo.xi)
    sic_xi = np.einsum("ij...,ij...->...", geo.sic_up, geo.xi)
    lam = (tr_xi * geo.sic_sq - 2.0 * Sp * sic_xi) / Sp ** 2
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
    integrand = cb.rm_sq - 4.0 * norm_sq(cb.ric, metric, 0, 2) + cb.scalar ** 2
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
    geo = Geometry(metric, u, alpha1)
    gsq, S = geo.grad_sq, geo.S
    lhs = integrate(geo.sm_sq - 4.0 * geo.sic_sq + S * S, metric)
    sic_du_du = np.einsum("ij...,i...,j...->...", geo.sic, geo.du_up, geo.du_up)
    rhs = (32.0 * np.pi ** 2 * chi
           + 6.5 * alpha1 ** 2 * integrate(gsq * gsq, metric)
           + 9.0 * alpha1 * integrate(sic_du_du, metric)
           - 2.0 * alpha1 * integrate(S * gsq, metric))
    return lhs - rhs
