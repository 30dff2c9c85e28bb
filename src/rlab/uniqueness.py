"""Forward-uniqueness diagnostics for pairs of flow trajectories.

Difference tensors between two solutions sharing a grid and snapshot times,
the energy

    E(t) = int [ t^{-1} |h|^2 + t^{-beta} |A|^2 + |T|^2 + |v|^2 + |w|^2 ] dV,

(all norms in the first trajectory's metric; T = Rm - Rm~ is held as R^l_{Ak},
its antisymmetric pair a bivector A = (i<j), which counts twice in |T|^2, and
U = nabla Rm - nabla~ Rm~ as nabla_a R^l_{Ak}),
and least-squares estimation of the exponential growth rate N with
E' <= N E.  Every flow runs on a closed torus, where the energy needs no
cutoff weight.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .mesh import integrate
from .tensor import Geometry, cov_d, norm_sq


class DiffBundle:
    """Difference tensors of two snapshots' Geometries at one time, each built
    on first use.  Norms, covariant derivatives and the Laplacian are taken in
    the first Geometry, ``f1``, which also gives the time ``t``."""

    # difference field -> (the Geometry field it differences, its rank)
    DIFFS = {"h": ("g", 0, 2),             # g - g~
             "A": ("gamma", 1, 2),         # Gamma - Gamma~
             "T": ("rm13_ab", 1, 2),       # Rm - Rm~, as R^l_{Ak}
             "U": ("grad_rm13", 1, 3),     # nabla Rm - nabla~ Rm~, as nabla_a R^l_{Ak}
             "v": ("u", 0, 0),             # u - u~
             "w": ("du", 0, 1),            # du - du~
             "y": ("hess", 0, 2),          # Hess u - Hess~ u~
             "z": ("d3u", 0, 3)}           # nabla^3 u - nabla~^3 u~
    PAIRS = {"T": (1,), "U": (2,)}         # the antisymmetric pair, as bivectors A = (i<j)

    def __init__(self, f1: Geometry, f2: Geometry):
        self.f1, self.f2, self.t = f1, f2, f1.t
        self.metric, self.grid, self.gamma = f1.metric, f1.grid, f1.gamma
        self._norm_sq = {}

    def __getattr__(self, name):
        try:
            key = DiffBundle.DIFFS[name][0]
        except KeyError:
            raise AttributeError(name) from None
        val = self.__dict__[name] = getattr(self.f1, key) - getattr(self.f2, key)
        return val

    def norm_sq(self, name: str) -> np.ndarray:
        """Pointwise squared norm of the difference ``name``, cached."""
        if name not in self._norm_sq:
            _, con, cov = DiffBundle.DIFFS[name]
            self._norm_sq[name] = norm_sq(getattr(self, name), self.metric, con, cov,
                                          DiffBundle.PAIRS.get(name, ()))
        return self._norm_sq[name]

    @cached_property
    def B(self):            # nabla A                   (1,3)
        return cov_d(self.A, self.grid, self.gamma, 1, 2)

    @cached_property
    def x(self):            # nabla w                   (0,2)
        return cov_d(self.w, self.grid, self.gamma, 0, 1)

    def norms(self) -> dict:
        """L2 norms of the five differences the energy weighs."""
        return {k: float(np.sqrt(integrate(self.norm_sq(k), self.metric)))
                for k in ("h", "A", "T", "v", "w")}

    def eq69_residual(self) -> np.ndarray:
        """y - (nabla w - A^k_{ij} d_k u~); vanishes exactly in the continuum."""
        return self.y - (self.x - np.einsum("kij...,k...->ij...", self.A, self.f2.du))


def difference_bundle(f1: Geometry, f2: Geometry) -> DiffBundle:
    """The differences of two snapshots' Geometries, which must share a grid
    and a time."""
    if f1.grid != f2.grid:
        raise ValueError("trajectories must share a grid")
    if abs(f1.t - f2.t) > 1e-14:
        raise ValueError(f"trajectories must share snapshot times ({f1.t!r}, {f2.t!r})")
    return DiffBundle(f1, f2)


def energy(bundle: DiffBundle, *, beta: float = 0.5) -> float:
    """The difference energy of one pair of snapshots.

    At t = 0 the value is defined as 0 when the data coincide; otherwise the
    caller should evaluate at the first positive snapshot.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    t = bundle.t
    if t == 0.0:
        if not any(np.any(getattr(bundle, k)) for k in ("h", "A", "T", "v", "w")):
            return 0.0
        raise ValueError("energy weights are singular at t = 0 for distinct data; "
                         "evaluate at the first positive snapshot")
    dens = (bundle.norm_sq("h") / t
            + bundle.norm_sq("A") / t ** beta
            + bundle.norm_sq("T")
            + bundle.norm_sq("v")
            + bundle.norm_sq("w"))
    return integrate(dens, bundle.metric)


class EnergyTrace:
    """Per snapshot, in time order, the time, the energy and the dict of the
    five difference norms (h, A, T, v, w), from rows (t, E, norms)."""

    def __init__(self, rows):
        self.times = np.array([t for t, _, _ in rows])
        self.values = np.array([e for _, e, _ in rows])
        self.norms = [nm for _, _, nm in rows]

    def rows(self):
        return [(t, e, nm["h"], nm["A"], nm["T"], nm["v"], nm["w"])
                for t, e, nm in zip(self.times, self.values, self.norms)]


def energy_trace(bundles, beta: float = 0.5) -> EnergyTrace:
    """The energy and the difference norms of each DiffBundle of ``bundles``,
    in order; an iterable is read one bundle at a time."""
    return EnergyTrace([(b.t, energy(b, beta=beta), b.norms()) for b in bundles])


def line_fit(x, y):
    """Closed-form least-squares line through (x, y), with no BLAS or LAPACK call:
    slope sum(dx dy) / sum(dx^2), dx = x - mean x, dy = y - mean y, and the rms of
    dy - slope dx, 0.0 on two points.  Equal x fix no slope: a ValueError."""
    if np.all(x == x[0]):
        raise ValueError("every x is equal: sum (x - mean x)^2 is 0 and fixes no slope")
    dx, dy = x - np.mean(x), y - np.mean(y)
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    r = dy - slope * dx
    return slope, float(np.sqrt(np.sum(r * r) / len(x))) if len(x) > 2 else 0.0


def gronwall_fit(trace: EnergyTrace, window=None) -> dict:
    """Growth rate N of ln E over the window and its residual, by ``line_fit``
    (equal times raise its ValueError); identically-zero energy is the distinguished
    forward-uniqueness outcome, and fewer than 2 points, fixing no slope, its own."""
    sel = slice(None) if window is None else window
    t, e = trace.times[sel], trace.values[sel]
    if len(t) < 2:
        return {"outcome": "too-few-points", "N": None, "residual": None}
    if np.all(e == 0.0):
        return {"outcome": "identically-zero", "N": None, "residual": 0.0}
    if np.any(e <= 0.0):
        raise ValueError("energy must be positive on the fit window")
    N, resid = line_fit(t, np.log(e))
    return {"outcome": "fit", "N": N, "residual": resid}
