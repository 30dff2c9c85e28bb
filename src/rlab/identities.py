"""Residual verification of the evolution and structure identities.

Every identity is registered as Q and RHS callables over a snapshot's
``tensor.Geometry`` (a flow's readers get the one its step built), or, for the
two-trajectory identities, over a ``uniqueness.DiffBundle`` of two Geometries.
For heat-operator identities the residual is

    (d/dt Q by snapshot differencing) - (rough Laplacian of Q) - RHS,

with the time derivative taken componentwise at fixed coordinates and the
Laplacian/RHS evaluated at the middle snapshot.  The difference is
centered on evenly spaced snapshots and the three-point nonuniform one
next to a shortened step, second order either way.  A.6/C.5 evolve Rm as
R_AB on bivectors A = (i<j), and 6.53 reads T as R^l_{Ak}: an index of
bivectors sees Gamma through its action on the pair, and counts twice in a
norm (``PAIRS``).  Identities marked
``time_only`` compare d/dt Q against an RHS that already contains any
Laplacian.  Each identity also carries a mutation (sign-flipped RHS) used
as a negative control: the mutated residual must stay O(1) under
refinement, guarding against vacuously-zero tests.  A norm-bound entry has
no RHS: the max norm of its residual is compared with a bound, which the
mutation shrinks 1000-fold.

Registry contents: the coupled-flow evolution equations at (2,0,0,0)
("A.*", with the A.11 bound), their generalized-parameter versions
("C.*"), the evolution of the coupled scalar/Ricci quantities
("3.11"/"3.12"), and the two-trajectory difference identities
("6.50"/"6.51", and the 6.53 bound).  The nine static relations between the
weighted-connection curvature and the coupled curvature ("5.7".."5.15")
are evaluated by ``lemma52_defects``.

``evaluate_identity`` evaluates every registry entry on three snapshots, and
``converges`` decides whether a refinement family of its reports converges.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .mesh import MetricField, integrate
from .tensor import (Geometry, _bivectors, bivector_action, bivector_connection, cov_d,
                     max_norm, norm_sq, ricci, rm_quadratic, rough_laplacian, sm_tensor,
                     unpack_riemann, wedge)
from .uniqueness import DiffBundle


# --------------------------------------------------------------------------
# right-hand sides

def rhs_ric(f: Geometry):
    a1 = f.alpha1
    out = -2.0 * np.einsum("ip...,jp...->ij...", f.ric, f.ric_mixed)
    # R_pijq X^pq is the Ricci trace with X in place of g^{-1}
    out += 2.0 * ricci(f.rm_ab, f.ric_up - a1 * np.einsum("p...,q...->pq...", f.du_up, f.du_up))
    out += 2.0 * a1 * f.lap_u * f.hess
    out -= 2.0 * a1 * np.einsum("ik...,jk...->ij...", f.hess, f.hess_mixed)
    return out


def rhs_gamma(f: Geometry):
    a1 = f.alpha1
    D = f.grad_ric
    term = (-D
            - np.moveaxis(D, [0, 1, 2], [1, 0, 2])
            + np.moveaxis(D, [0, 1, 2], [2, 0, 1])
            + 2.0 * a1 * np.einsum("ij...,l...->ijl...", f.hess, f.du))
    return np.einsum("kl...,ijl...->kij...", f.ginv, term)


def rhs_du(f: Geometry):
    # Bochner commutator term is flow-independent; the b-terms come from
    # differentiating the potential equation.
    b1, b2 = f.beta1, f.beta2
    out = -np.einsum("ij...,j...->i...", f.ric, f.du_up)
    out += b2 * f.du + 2.0 * b1 * np.einsum("k...,ki...->i...", f.du_up, f.hess)
    return out


def rhs_hess(f: Geometry):
    a1, b1, b2 = f.alpha1, f.beta1, f.beta2
    out = 2.0 * ricci(f.rm_ab, f.hess_up)
    out += b2 * f.hess
    out -= np.einsum("ip...,jp...->ij...", f.ric, f.hess_mixed)
    out -= np.einsum("jp...,ip...->ij...", f.ric, f.hess_mixed)
    out -= 2.0 * a1 * f.grad_sq * f.hess
    if b1:      # at b1 = 0 the terms vanish, and grad^3 u is not built
        out += 2.0 * b1 * np.einsum("k...,kij...->ij...", f.du_up, f.d3u)
        out += 2.0 * b1 * np.einsum("ik...,jk...->ij...", f.hess, f.hess_mixed)
        out += 2.0 * b1 * ricci(f.rm_ab, np.einsum("p...,q...->pq...", f.du_up, f.du_up))
    return out


def rhs_rm_ab(f: Geometry):
    """A.6/C.5 on bivectors A = (i<j), B = (k<l), beside the Laplacian:
    Hamilton's quadratic term (``rm_quadratic``), -Ric_i^p R_pjkl - Ric_j^p
    R_ipkl - Ric_k^p R_ijpl - Ric_l^p R_ijkp and 2 a1 (H_il H_jk - H_ik H_jl)."""
    X = np.einsum("pa...,pb...->ab...",
                  bivector_action(np.swapaxes(f.ric_mixed, 0, 1)), f.rm_ab)
    return (rm_quadratic(f.rm_ab, f.ginv) - X - np.swapaxes(X, 0, 1)
            - 2.0 * f.alpha1 * wedge(f.hess))


def rhs_scalar(f: Geometry):
    a1 = f.alpha1
    return (2.0 * np.einsum("ij...,ij...->...", f.ric, f.ric_up)
            + 2.0 * a1 * f.lap_u ** 2
            - 2.0 * a1 * f.hess_sq
            - 4.0 * a1 * np.einsum("ij...,i...,j...->...", f.ric, f.du_up, f.du_up))


def rhs_grad_sq(f: Geometry):
    a1, b1, b2 = f.alpha1, f.beta1, f.beta2
    hess_du_du = np.einsum("ij...,i...,j...->...", f.hess, f.du_up, f.du_up)
    return (2.0 * b2 * f.grad_sq - 2.0 * f.hess_sq
            - 2.0 * a1 * f.grad_sq ** 2 + 4.0 * b1 * hess_du_du)


def rhs_S_direct(f: Geometry):
    a1, b1, b2 = f.alpha1, f.beta1, f.beta2
    hess_du_du = np.einsum("ij...,i...,j...->...", f.hess, f.du_up, f.du_up)
    return (2.0 * f.sic_sq + 2.0 * a1 * f.lap_u ** 2
            - 2.0 * a1 * b2 * f.grad_sq - 4.0 * a1 * b1 * hess_du_du)


def rhs_sic(f: Geometry):
    a1, b1, b2 = f.alpha1, f.beta1, f.beta2
    out = 2.0 * np.einsum("kijl...,kl...->ij...", f.sm, f.sic_up)
    out -= 2.0 * np.einsum("ik...,jk...->ij...", f.sic, f.sic_mixed)
    out += 2.0 * a1 * f.lap_u * f.hess
    out -= 2.0 * a1 * b2 * np.einsum("i...,j...->ij...", f.du, f.du)
    mix = np.einsum("k...,i...,jk...->ij...", f.du_up, f.du, f.hess)
    out -= 2.0 * a1 * b1 * (mix + np.swapaxes(mix, 0, 1))
    return out


def rhs_dudu(f: Geometry):
    b1, b2 = f.beta1, f.beta2
    ric_term = np.einsum("k...,ik...,j...->ij...", f.du_up, f.ric, f.du)
    out = -(ric_term + np.swapaxes(ric_term, 0, 1))
    out -= 2.0 * np.einsum("ik...,jk...->ij...", f.hess, f.hess_mixed)
    out += 2.0 * b2 * np.einsum("i...,j...->ij...", f.du, f.du)
    mix = np.einsum("k...,i...,jk...->ij...", f.du_up, f.du, f.hess)
    out += 2.0 * b1 * (mix + np.swapaxes(mix, 0, 1))
    return out


def rhs_lnvol(f: Geometry):
    return -f.S


def rhs_rm13(f: Geometry):
    """d/dt of the (1,3) curvature: Laplacian + raised box-RHS + metric-motion term."""
    lap = rough_laplacian(f.rm13, f.grid, f.gamma, f.metric, 1, 3)
    raised = np.einsum("lm...,ijkm...->lijk...", f.ginv, unpack_riemann(rhs_rm_ab(f), f.grid.n))
    a1 = f.alpha1
    dginv = 2.0 * f.ric_up - 2.0 * a1 * np.einsum("l...,m...->lm...", f.du_up, f.du_up)
    motion = np.einsum("lm...,ijkm...->lijk...", dginv, f.rm4)
    return lap + raised + motion


def rhs_grad_rm13(f: Geometry):
    """d/dt of nabla Rm: nabla of the d/dt identity plus connection-motion terms."""
    dA12 = cov_d(rhs_rm13(f), f.grid, f.gamma, 1, 3)     # [l,a,i,j,k]
    dtG = rhs_gamma(f)                                   # d/dt Gamma^k_{ij}
    W = f.rm13
    out = dA12
    out = out + np.einsum("lap...,pijk...->laijk...", dtG, W)
    out = out - np.einsum("pai...,lpjk...->laijk...", dtG, W)
    out = out - np.einsum("paj...,lipk...->laijk...", dtG, W)
    out = out - np.einsum("pak...,lijp...->laijk...", dtG, W)
    return out


def rhs_h(b: DiffBundle):
    """6.50: d/dt h = -2 tr T + 2 a1 (w w + w du~ + du~ w)."""
    w, du2, t = b.w, b.f2.du, _bivectors(b.grid.n)
    tr = np.einsum("li,lij...->ij...", t.sgn, b.T[np.arange(b.grid.n)[:, None], t.biv])
    return (-2.0 * tr                                      # T^l_{lij}
            + 2.0 * b.f1.alpha1 * (np.einsum("i...,j...->ij...", w, w)
                                   + np.einsum("i...,j...->ij...", w, du2)
                                   + np.einsum("j...,i...->ij...", w, du2)))


def rhs_A(b: DiffBundle):
    """6.51: d/dt A from the difference of the Ricci gradients and of g^{-1}."""
    f1, f2, a1 = b.f1, b.f2, b.f1.alpha1
    UC = f1.grad_ric - f2.grad_ric                # nabla_a Ric - tilde version
    dginv = f2.ginv - f1.ginv                     # tilde g^{-1} - g^{-1}
    D2 = f2.grad_ric
    P2 = (D2 + np.moveaxis(D2, [0, 1, 2], [1, 0, 2])
          - np.moveaxis(D2, [0, 1, 2], [2, 0, 1]))
    rhs = -np.einsum("mk...,ijm...->kij...",
                     f1.ginv, UC + np.moveaxis(UC, [0, 1, 2], [1, 0, 2])
                     - np.moveaxis(UC, [0, 1, 2], [2, 0, 1]))
    rhs += np.einsum("mk...,ijm...->kij...", dginv, P2)
    rhs += 2.0 * a1 * np.einsum("mk...,m...,ij...->kij...", f1.ginv, f1.du, b.y)
    rhs += 2.0 * a1 * np.einsum("mk...,m...,ij...->kij...", f1.ginv, b.w, f2.hess)
    rhs -= 2.0 * a1 * np.einsum("mk...,m...,ij...->kij...", dginv, f2.du, f2.hess)
    return rhs


def bound_rm13(f: Geometry):
    """A.11: |nabla^2 Ric| + |Ric||Rm| + |H|^2 + |Rm||du|^2, each a max over the grid."""
    m = f.metric
    dd_ric = cov_d(f.grad_ric, f.grid, f.gamma, 0, 3)
    rmn = float(np.sqrt(np.max(f.rm_sq)))
    return (max_norm(dd_ric, m, 0, 4) + max_norm(f.ric, m, 0, 2) * rmn
            + float(np.max(f.hess_sq))
            + rmn * float(np.max(f.grad_sq)))


def bound_T(b: DiffBundle):
    """6.53: |h| + |A| + |nabla A| + |T| + |w| + |y|, each a max over the grid."""
    return max_norm(b.B, b.metric, 1, 3) + sum(float(np.sqrt(np.max(b.norm_sq(k))))
                                               for k in "hATwy")


# quantity extractors: (array, con, cov); "h", "A", "T" read a DiffBundle
QUANTITIES = {
    "ric": lambda f: (f.ric, 0, 2),
    "gamma": lambda f: (f.gamma, 1, 2),
    "du": lambda f: (f.du, 0, 1),
    "hess": lambda f: (f.hess, 0, 2),
    "rm_ab": lambda f: (f.rm_ab, 0, 2),
    "scalar": lambda f: (f.scalar, 0, 0),
    "grad_sq": lambda f: (f.grad_sq, 0, 0),
    "S": lambda f: (f.S, 0, 0),
    "sic": lambda f: (f.sic, 0, 2),
    "dudu": lambda f: (np.einsum("i...,j...->ij...", f.du, f.du), 0, 2),
    "ln_sqrt_det": lambda f: (f.ln_sqrt_det, 0, 0),
    "rm13": lambda f: (f.rm13, 1, 3),
    "grad_rm13": lambda f: (f.grad_rm13, 1, 4),
    "h": lambda b: (b.h, 0, 2),
    "A": lambda b: (b.A, 1, 2),
    "T": lambda b: (b.T, 1, 2),
}
# the axes of a quantity that hold an antisymmetric pair as bivectors A = (i<j)
PAIRS = {"rm_ab": (0, 1), **DiffBundle.PAIRS}


@dataclass(frozen=True)
class Identity:
    id: str
    quantity: str
    rhs: callable                # None: d/dt Q (minus its Laplacian) is bounded, not matched
    time_only: bool = False
    family: str = "general"      # "rhf": requires (2,0,0,0)
    pair: bool = False           # over DiffBundles of two trajectories
    bound: callable = None       # norm bound on the residual, in units of c_id


REGISTRY = {
    "A.2": Identity("A.2", "ric", rhs_ric, family="rhf"),
    "A.3": Identity("A.3", "gamma", rhs_gamma, time_only=True, family="rhf"),
    "A.4": Identity("A.4", "du", rhs_du, family="rhf"),
    "A.5": Identity("A.5", "hess", rhs_hess, family="rhf"),
    "A.6": Identity("A.6", "rm_ab", rhs_rm_ab, family="rhf"),
    "A.7": Identity("A.7", "scalar", rhs_scalar, family="rhf"),
    "A.8": Identity("A.8", "grad_sq", rhs_grad_sq, family="rhf"),
    "A.9": Identity("A.9", "S", rhs_S_direct, family="rhf"),
    "A.10": Identity("A.10", "ln_sqrt_det", rhs_lnvol, time_only=True, family="rhf"),
    "A.12": Identity("A.12", "rm13", rhs_rm13, time_only=True, family="rhf"),
    "A.13": Identity("A.13", "grad_rm13", rhs_grad_rm13, time_only=True, family="rhf"),
    "C.3": Identity("C.3", "ric", rhs_ric),
    "C.4": Identity("C.4", "scalar", rhs_scalar),
    "C.5": Identity("C.5", "rm_ab", rhs_rm_ab),
    "C.6": Identity("C.6", "grad_sq", rhs_grad_sq),
    "C.7": Identity("C.7", "hess", rhs_hess),
    "C.8": Identity("C.8", "dudu", rhs_dudu),
    "3.11": Identity("3.11", "S", rhs_S_direct),
    "3.12": Identity("3.12", "sic", rhs_sic),
    "A.11": Identity("A.11", "rm13", None, time_only=True, bound=bound_rm13),
    "6.50": Identity("6.50", "h", rhs_h, time_only=True, pair=True),
    "6.51": Identity("6.51", "A", rhs_A, time_only=True, pair=True),
    "6.53": Identity("6.53", "T", None, pair=True, bound=bound_T),
}

APPENDIX_A_IDS = ("A.2", "A.3", "A.4", "A.5", "A.6", "A.7", "A.8", "A.9", "A.10")
APPENDIX_C_IDS = ("C.3", "C.4", "C.5", "C.6", "C.7", "C.8")
LEMMA31_IDS = ("3.11", "3.12")
LEMMA52_IDS = tuple(f"5.{k}" for k in range(7, 16))

ORDER_FLOOR = 1.7           # second order is a floor: an identity may converge faster
EXACT_RESIDUAL = 1e-11      # a family at or below this on every level is exact


@dataclass(frozen=True)
class ResidualReport:
    identity: str
    t: float
    h: float
    dt: float
    max_res: float
    l2_res: float
    order: float | None = None
    bound: float | None = None       # c_id times the norm bound of a bound entry

    def to_dict(self):      # order and bound only when set
        return {k: v for k, v in asdict(self).items() if v is not None}


def _norms(res: np.ndarray, metric: MetricField, con: int, cov: int, pairs=()):
    nsq = norm_sq(res, metric, con, cov, pairs)
    return float(np.sqrt(np.max(nsq))), float(np.sqrt(integrate(nsq, metric)))


def residual_field(ident: Identity, frames, mutate: bool = False):
    """The pointwise residual field of one identity over ``frames``, the
    Geometries or the DiffBundles of three consecutive snapshots."""
    fm, f0, fp = frames
    q = QUANTITIES[ident.quantity]
    Qm, con, cov = q(fm)
    Qp = q(fp)[0]
    hm, hp = f0.t - fm.t, fp.t - f0.t
    even = abs(hp - hm) <= 1e-9 * (hp + hm)
    Q0 = None if even and ident.time_only else q(f0)[0]     # formed once
    if even:                                     # centered
        res = (Qp - Qm) / (fp.t - fm.t)
    else:                                        # second order on uneven spacing
        res = ((hm * hm * Qp - hp * hp * Qm + (hp * hp - hm * hm) * Q0)
               / (hm * hp * (hm + hp)))
    if ident.rhs is not None:       # in place, so no right side outlives its use
        res -= -ident.rhs(f0) if mutate else ident.rhs(f0)
    if not ident.time_only:
        pairs = PAIRS.get(ident.quantity, ())
        lam = bivector_connection(f0.gamma) if pairs else None
        slots = [lam if s in pairs else f0.gamma for s in range(con + cov)]
        res -= rough_laplacian(Q0, f0.grid, f0.gamma, f0.metric, con, cov, slots)
    return res, con, cov, f0


def evaluate_identity(frames, ident_id: str, dt: float, c_id: float = 1.0,
                      mutate: bool = False) -> ResidualReport:
    """The residual report of one registered identity on ``frames``, the
    Geometries of snapshots k - 1, k and k + 1 of a flow of step ``dt``, or,
    for a pair entry, their DiffBundles (``uniqueness.difference_bundle``).

    A bound entry reports ``bound``, c_id times its norm bound, which
    ``mutate`` shrinks 1000-fold: a negative control the residual must then
    exceed.  On any other entry ``mutate`` flips the sign of the right side.
    """
    ident, f0 = REGISTRY[ident_id], frames[1]
    if ident.pair != isinstance(f0, DiffBundle):
        raise ValueError(f"identity {ident_id} reads the "
                         f"{'DiffBundles' if ident.pair else 'Geometries'} of three snapshots")
    if ident.family == "rhf" and (f0.alpha1, f0.beta1, f0.beta2) != (2.0, 0.0, 0.0):
        raise ValueError(f"identity {ident_id} requires a (2,0,0,0) trajectory")
    res, con, cov, f0 = residual_field(ident, frames, mutate)
    mx, l2 = _norms(res, f0.metric, con, cov, PAIRS.get(ident.quantity, ()))
    bound = None
    if ident.bound is not None:
        bound = (1e-3 if mutate else 1.0) * c_id * ident.bound(f0)
    return ResidualReport(ident.id, f0.t, max(f0.grid.spacing), dt, mx, l2, bound=bound)


# --------------------------------------------------------------------------
# static weighted-curvature identities
#
# The lowered curvature of the weighted connection lacks the last-pair
# antisymmetry and pair-exchange symmetry; each relation below states an
# index-rearrangement defect.  The reference Riemann tensor entering the
# normalization is recomputed through the *same* Gamma-form pipeline as the
# weighted curvature so that every residual vanishes to rounding at
# constant u and measures genuine O(h^2) discretization content otherwise.

def lemma52_defects(metric: MetricField, u: np.ndarray,
                    mutate: bool = False) -> dict:
    """Nine pointwise defect fields, keyed '5.7'..'5.15'.

    ``mutate`` flips the sign of each formula right side (negative control):
    the mutated defects stay O(1) under refinement.
    """
    g = metric.values
    f = Geometry(metric, u)
    wy, ref = f.rm_wy, f.rm_ref
    rl = sm_tensor(ref, f.du, g, 2.0)     # the coupled curvature on the same route
    du, H = f.du, f.hess
    sgn = -1.0 if mutate else 1.0

    def T(arr, perm):
        return np.transpose(arr, perm + tuple(range(4, arr.ndim)))

    out = {}
    # 5.7: WY - L difference
    rhs7 = (np.einsum("i...,j...,kl...->ijkl...", du, du, g)
            + np.einsum("k...,j...,il...->ijkl...", du, du, g)
            + np.einsum("jk...,il...->ijkl...", H, g)
            - np.einsum("ik...,jl...->ijkl...", H, g))
    out["5.7"] = (wy - rl) - sgn * rhs7
    # 5.8: first-pair rearrangement, beyond the Riemann part
    rhs8 = 2.0 * (np.einsum("jk...,il...->ijkl...", H, g)
                  - np.einsum("ik...,jl...->ijkl...", H, g)
                  + np.einsum("j...,k...,il...->ijkl...", du, du, g)
                  - np.einsum("i...,k...,jl...->ijkl...", du, du, g))
    out["5.8"] = (wy - T(wy, (1, 0, 2, 3))) - (ref - T(ref, (1, 0, 2, 3))) - sgn * rhs8
    # 5.9: last-pair rearrangement
    rhs9 = (np.einsum("il...,jk...->ijkl...", H, g)
            + np.einsum("jk...,il...->ijkl...", H, g)
            - np.einsum("ik...,jl...->ijkl...", H, g)
            - np.einsum("jl...,ik...->ijkl...", H, g)
            + np.einsum("i...,l...,jk...->ijkl...", du, du, g)
            + np.einsum("j...,k...,il...->ijkl...", du, du, g)
            - np.einsum("i...,k...,jl...->ijkl...", du, du, g)
            - np.einsum("j...,l...,ik...->ijkl...", du, du, g))
    out["5.9"] = (wy - T(wy, (0, 1, 3, 2))) - (ref - T(ref, (0, 1, 3, 2))) - sgn * rhs9
    # 5.10: pair exchange
    rhs10 = (np.einsum("jk...,il...->ijkl...", H, g)
             - np.einsum("li...,jk...->ijkl...", H, g)
             + np.einsum("j...,k...,il...->ijkl...", du, du, g)
             - np.einsum("l...,i...,jk...->ijkl...", du, du, g))
    out["5.10"] = (wy - T(wy, (2, 3, 0, 1))) - (ref - T(ref, (2, 3, 0, 1))) - sgn * rhs10
    # 5.11: first-pair rearrangement of the coupled curvature
    rhs11 = (np.einsum("j...,k...,il...->ijkl...", du, du, g)
             - np.einsum("i...,k...,jl...->ijkl...", du, du, g))
    out["5.11"] = (rl - T(rl, (1, 0, 2, 3))) - (ref - T(ref, (1, 0, 2, 3))) - sgn * rhs11
    # 5.12: last-pair rearrangement of the coupled curvature
    rhs12 = (np.einsum("i...,l...,jk...->ijkl...", du, du, g)
             - np.einsum("i...,k...,jl...->ijkl...", du, du, g))
    out["5.12"] = (rl - T(rl, (0, 1, 3, 2))) - (ref - T(ref, (0, 1, 3, 2))) - sgn * rhs12
    # 5.13: pair exchange of the coupled curvature
    rhs13 = (np.einsum("k...,l...,ij...->ijkl...", du, du, g)
             - np.einsum("i...,j...,kl...->ijkl...", du, du, g))
    out["5.13"] = (rl - T(rl, (2, 3, 0, 1))) - (ref - T(ref, (2, 3, 0, 1))) - sgn * rhs13
    # 5.14: half the WY rearrangement vs the coupled one
    rhs14 = (np.einsum("jk...,il...->ijkl...", H, g)
             - np.einsum("ik...,jl...->ijkl...", H, g))
    out["5.14"] = (0.5 * (wy - T(wy, (1, 0, 2, 3))) + 0.5 * (ref - T(ref, (1, 0, 2, 3)))
                   - (rl - T(rl, (1, 0, 2, 3))) - sgn * rhs14)
    # 5.15: the two traces of the weighted curvature
    tr_hat_ref = np.einsum("il...,jilk...->jk...", metric.inv, ref)
    rhs15 = ((f.lap_u + f.grad_sq) * g
             - metric.grid.n * (H + np.einsum("i...,j...->ij...", du, du)))
    out["5.15"] = (f.ric_wy_hat - f.ric_wy) - (tr_hat_ref - f.ric_ref) - sgn * rhs15
    return out


def verify_lemma_52(metric: MetricField, u: np.ndarray):
    """Reports for the nine static identities on a torus grid."""
    defects = lemma52_defects(metric, u)
    reports = []
    for key in LEMMA52_IDS:
        res = defects[key]
        cov = 2 if key == "5.15" else 4
        mx, l2 = _norms(res, metric, 0, cov)
        reports.append(ResidualReport(key, 0.0, max(metric.grid.spacing), 0.0, mx, l2))
    return reports


# --------------------------------------------------------------------------
# refinement orders and negative controls

def refinement_order(reports) -> float:
    """Least-squares slope of log(max_res) against log(h); needs >= 3 levels."""
    if len(reports) < 3:
        raise ValueError("order estimation requires at least 3 resolutions")
    hs = np.array([r.h for r in reports])
    res = np.array([max(r.max_res, 1e-300) for r in reports])
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    return float(slope)


def converges(seq) -> bool:
    """Whether a refinement family of reports, coarse to fine, converges:
    every level exact to rounding; or, over >= 3 levels, a fitted order of
    at least ``ORDER_FLOOR``; or, over 2 levels, a decrease ratio of at
    least (h0/h1)^ORDER_FLOOR."""
    if all(r.max_res <= EXACT_RESIDUAL for r in seq):
        return True
    if len(seq) >= 3:
        return refinement_order(seq) >= ORDER_FLOOR
    if len(seq) == 2:
        ratio = seq[0].max_res / max(seq[1].max_res, 1e-300)
        return ratio >= (seq[0].h / seq[1].h) ** ORDER_FLOOR
    return False


def with_order(reports_by_level):
    """The finest-level report of each identity, with its measured order
    (None below 3 levels)."""
    return [replace(seq[-1], order=refinement_order(seq) if len(seq) >= 3 else None)
            for seq in zip(*reports_by_level)]
