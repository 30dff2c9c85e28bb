"""Forward-uniqueness diagnostics for pairs of flow trajectories.

Difference tensors between two solutions sharing a grid and snapshot times,
the weighted energy

    E(t) = int [ t^{-1} |h|^2 + t^{-beta} |A|^2 + |T|^2 + |v|^2 + |w|^2 ] e^{-eta} dV,

(all norms in the first trajectory's metric), and least-squares estimation
of the exponential growth rate N with E' <= N E.  On a closed torus the
cutoff weight is identically zero; the chart construction
eta = B r^2 / (T - c t) is exposed for experiments together with its
admissibility check d_t eta >= B |grad eta|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import Trajectory
from .mesh import Grid, MetricField, integrate
from .tensor import Geometry, cov_d, norm_sq


@dataclass(frozen=True)
class DiffBundle:
    t: float
    h: np.ndarray          # g - g~            (0,2)
    A: np.ndarray          # Gamma - Gamma~    (1,2)
    B: np.ndarray          # nabla A           (1,3)
    T: np.ndarray          # Rm - Rm~          (1,3)
    U: np.ndarray          # nabla Rm - nabla~ Rm~   (1,4)
    v: np.ndarray          # u - u~
    w: np.ndarray          # du - du~          (0,1)
    x: np.ndarray          # nabla w           (0,2)
    y: np.ndarray          # Hess u - Hess~ u~ (0,2)
    z: np.ndarray          # nabla^3 u - nabla~^3 u~ (0,3)
    metric: MetricField    # norms are taken in this metric

    def norms(self) -> dict:
        m = self.metric
        return {
            "h": _l2(self.h, m, 0, 2), "A": _l2(self.A, m, 1, 2),
            "B": _l2(self.B, m, 1, 3), "T": _l2(self.T, m, 1, 3),
            "U": _l2(self.U, m, 1, 4), "v": _l2(self.v, m, 0, 0),
            "w": _l2(self.w, m, 0, 1), "x": _l2(self.x, m, 0, 2),
            "y": _l2(self.y, m, 0, 2), "z": _l2(self.z, m, 0, 3),
        }

    def eq69_residual(self) -> np.ndarray:
        """y - (nabla w - A^k_{ij} d_k u~); vanishes exactly in the continuum."""
        grid = self.metric.grid
        from .tensor import christoffel
        gamma = christoffel(self.metric)
        du2 = self._du2
        nab_w = cov_d(self.w, grid, gamma, 0, 1)
        return self.y - (nab_w - np.einsum("kij...,k...->ij...", self.A, du2))

    _du2: np.ndarray = None


def _l2(arr, metric, con, cov) -> float:
    return float(np.sqrt(integrate(norm_sq(arr, metric, con, cov), metric)))


def _check_pair(traj1: Trajectory, traj2: Trajectory, t_index: int):
    if traj1.grid != traj2.grid:
        raise ValueError("trajectories must share a grid")
    if abs(traj1.times[t_index] - traj2.times[t_index]) > 1e-14:
        raise ValueError("trajectories must share snapshot times")


def difference_bundle(traj1: Trajectory, traj2: Trajectory,
                      t_index: int) -> DiffBundle:
    _check_pair(traj1, traj2, t_index)
    s1, s2 = traj1.state(t_index), traj2.state(t_index)
    grid = s1.grid
    f1, f2 = Geometry(s1.metric, s1.u), Geometry(s2.metric, s2.u)
    A = f1.gamma - f2.gamma
    w = f1.du - f2.du
    bundle = DiffBundle(
        t=s1.t, h=f1.g - f2.g, A=A, B=cov_d(A, grid, f1.gamma, 1, 2),
        T=f1.rm13 - f2.rm13, U=f1.grad_rm13 - f2.grad_rm13, v=s1.u - s2.u,
        w=w, x=cov_d(w, grid, f1.gamma, 0, 1), y=f1.hess - f2.hess,
        z=f1.d3u - f2.d3u, metric=s1.metric)
    object.__setattr__(bundle, "_du2", f2.du)
    return bundle


def energy(traj1: Trajectory, traj2: Trajectory, t_index: int,
           beta: float = 0.5, eta: np.ndarray | None = None,
           bundle: DiffBundle | None = None) -> float:
    """The weighted difference energy at one snapshot.

    At t = 0 the value is defined as 0 when the data coincide; otherwise the
    caller should evaluate at the first positive snapshot.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    _check_pair(traj1, traj2, t_index)
    b = bundle if bundle is not None else difference_bundle(traj1, traj2, t_index)
    m = b.metric
    t = b.t
    if t == 0.0:
        if not any(np.any(getattr(b, k)) for k in ("h", "A", "T", "v", "w")):
            return 0.0
        raise ValueError("energy weights are singular at t = 0 for distinct data; "
                         "evaluate at the first positive snapshot")
    wgt = np.exp(-eta) if eta is not None else 1.0
    dens = (norm_sq(b.h, m, 0, 2) / t
            + norm_sq(b.A, m, 1, 2) / t ** beta
            + norm_sq(b.T, m, 1, 3)
            + b.v * b.v
            + norm_sq(b.w, m, 0, 1))
    return integrate(dens * wgt, m)


@dataclass(frozen=True)
class EnergyTrace:
    times: np.ndarray
    values: np.ndarray
    beta: float
    eta_descriptor: str
    norms: list            # per-snapshot norm dicts (h, A, T, v, w at least)

    def rows(self):
        out = []
        for t, e, nm in zip(self.times, self.values, self.norms):
            out.append((t, e, nm["h"], nm["A"], nm["T"], nm["v"], nm["w"]))
        return out


def energy_trace(traj1: Trajectory, traj2: Trajectory, beta: float = 0.5,
                 eta: np.ndarray | None = None,
                 indices=None) -> EnergyTrace:
    idx = indices if indices is not None else range(1, traj1.nsnapshots - 1)
    ts, vals, norms = [], [], []
    for k in idx:
        b = difference_bundle(traj1, traj2, k)
        vals.append(energy(traj1, traj2, k, beta, eta, bundle=b))
        ts.append(b.t)
        norms.append(b.norms())
    return EnergyTrace(np.array(ts), np.array(vals), beta,
                       "zero" if eta is None else "custom", norms)


def gronwall_fit(trace: EnergyTrace, window=None) -> dict:
    """Least-squares slope of ln E over the window; identically-zero energy
    is reported as the distinguished forward-uniqueness outcome."""
    sel = slice(None) if window is None else window
    t = trace.times[sel]
    e = trace.values[sel]
    if np.all(e == 0.0):
        return {"outcome": "identically-zero", "N": None, "residual": 0.0}
    if np.any(e <= 0.0):
        raise ValueError("energy must be positive on the fit window")
    coef, res = np.polyfit(t, np.log(e), 1, full=True)[0:2]
    N = float(coef[0])
    resid = float(np.sqrt(res[0] / len(t))) if len(res) else 0.0
    return {"outcome": "fit", "N": N, "residual": resid}


def cutoff_eta(grid: Grid, B_const: float, T_total: float,
               c: float | None = None, times=None) -> dict:
    """Cutoff weights for the energy.

    On a torus the cutoff is unnecessary: eta = 0 (returned once per time).
    On a chart: eta(x, t) = B r^2 / (T - c t) with c defaulting to 4 B^2
    (the admissibility condition d_t eta >= B |grad eta|^2 then holds with
    equality margin zero in the continuum); the report carries the measured
    admissibility residual, which is never silently accepted.
    """
    ts = np.asarray(times if times is not None else [0.0])
    if grid.kind == "torus":
        etas = [np.zeros(grid.shape) for _ in ts]
        return {"etas": etas, "times": ts, "admissibility": np.inf,
                "c": 0.0, "window": (0.0, T_total)}
    cc = 4.0 * B_const ** 2 if c is None else c
    xs = grid.coords()
    r2 = sum(x * x for x in xs)
    etas, resid = [], np.inf
    from .mesh import diff1
    for t in ts:
        denom = T_total - cc * t
        if denom <= 0:
            raise ValueError("time window exceeded: T - c t must stay positive")
        eta = B_const * r2 / denom
        detadt = B_const * r2 * cc / denom ** 2
        grad = np.stack([diff1(eta, grid, a) for a in range(grid.n)])
        gsq = np.einsum("a...,a...->...", grad, grad)
        inner = tuple(slice(1, -1) for _ in range(grid.n))
        resid = min(resid, float(np.min((detadt - B_const * gsq)[inner])))
        etas.append(eta)
    return {"etas": etas, "times": ts, "admissibility": resid,
            "c": cc, "window": (0.0, T_total / cc)}
