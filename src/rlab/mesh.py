"""Structured grids and field storage.

Two domain kinds are supported:

* periodic tori T^n (n = 1..4), the only domains on which time evolution
  and integration are performed;
* open coordinate charts, used for static pointwise curvature tests only.

All fields store their components in structure-of-arrays layout: component
indices first, the n grid axes last.  ``MetricField`` keeps g, its inverse
and sqrt(det g) C-contiguous in that order: numpy's einsum runs several
times slower on a strided operand and gives its output the same strides, so
one transposed inverse would slow every contraction downstream of it (Gamma,
Ric, Rm and every raised index).  The inverse and the determinant come in
closed form from the cofactors of the component arrays.  Every metric
passes one SPD rule: det g is finite and every trailing principal minor
of g - tol I, tol = 1e-10 max|g_ii|, is positive, which by Sylvester's
criterion says the least eigenvalue of g is above tol.  Derivatives are
second-order centered stencils; on a torus they wrap periodically, on a
chart each stencil applied leaves one boundary layer of wrap garbage,
which ``interior`` discards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

STENCIL_RADIUS = 1
TORUS_MIN_RES = 8
CHART_MIN_RES = 2 * STENCIL_RADIUS + 1


class GridError(ValueError):
    pass


class SPDError(RuntimeError):
    """Metric lost positive definiteness (flow blow-up or bad input)."""


@dataclass(frozen=True)
class Grid:
    kind: str                      # "torus" | "chart"
    n: int
    shape: tuple[int, ...]         # resolution per axis
    extents: tuple[float, ...]
    spacing: tuple[float, ...] = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "spacing",
                           tuple(e / r for e, r in zip(self.extents, self.shape)))
        object.__setattr__(self, "cell_volume", float(np.prod(self.spacing)))

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        if self.kind == "torus":
            return np.arange(self.shape[axis]) * h
        # chart: cell-centered, symmetric about the origin
        return -0.5 * self.extents[axis] + (np.arange(self.shape[axis]) + 0.5) * h

    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays, one per axis, each of shape ``self.shape``."""
        axes = [self.axis_coords(a) for a in range(self.n)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n,
                "shape": list(self.shape), "extents": list(self.extents)}


def build_grid(kind: str, n: int, resolutions: Sequence[int],
               extents: Sequence[float]) -> Grid:
    # each message starts with the argument it rejects
    if kind not in ("torus", "chart"):
        raise GridError(f"kind: unknown grid kind {kind!r}")
    if not 1 <= n <= 4:
        raise GridError(f"n: dimension {n} outside 1..4")
    for name, values in (("resolutions", resolutions), ("extents", extents)):
        if len(values) != n:
            raise GridError(f"{name}: {len(values)} entries for n={n}")
    min_res = TORUS_MIN_RES if kind == "torus" else CHART_MIN_RES
    for r in resolutions:
        if r < min_res:
            raise GridError(f"resolutions: {r} below stencil minimum {min_res} for {kind}")
    for e in extents:
        if not e > 0:
            raise GridError("extents: must be positive")
    return Grid(kind, n, tuple(int(r) for r in resolutions),
                tuple(float(e) for e in extents))


# --------------------------------------------------------------------------
# raw stencils on component-first arrays (grid axes are the last grid.n axes)

def _grid_axis(values: np.ndarray, grid: Grid, axis: int) -> int:
    return values.ndim - grid.n + axis


def diff1(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Centered first derivative along grid axis ``axis``; periodic wrap."""
    ax = _grid_axis(values, grid, axis)
    h = grid.spacing[axis]
    return (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * h)


def diff2(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Centered second derivative along grid axis ``axis``."""
    ax = _grid_axis(values, grid, axis)
    h = grid.spacing[axis]
    return (np.roll(values, -1, axis=ax) - 2.0 * values
            + np.roll(values, 1, axis=ax)) / (h * h)


def grad_stack(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Stack of first derivatives; new derivative axis comes first."""
    return np.stack([diff1(values, grid, a) for a in range(grid.n)])


def flat_divergence(stack: np.ndarray, grid: Grid) -> np.ndarray:
    """sum_a d_a F^a of a stack whose first axis is the derivative axis (the
    shape ``grad_stack`` returns); summed in axis order."""
    out = np.zeros(stack.shape[1:])
    for a in range(grid.n):
        out += diff1(stack[a], grid, a)
    return out


def interior(values: np.ndarray, grid: Grid, margin: int) -> np.ndarray:
    """Drop ``margin`` collar layers on a chart (no-op on a torus)."""
    if grid.kind == "torus" or margin == 0:
        return values
    sl = (slice(None),) * (values.ndim - grid.n) + (slice(margin, -margin),) * grid.n
    return values[sl]


# --------------------------------------------------------------------------
# metric

def _minor(g: np.ndarray, rows: tuple, cols: tuple, memo: dict):
    """Determinant of the ``rows`` x ``cols`` block of a (n, n, *grid) array,
    by Laplace expansion along its first row; ``memo`` keeps every block
    already expanded, so cofactors that share a minor compute it once."""
    if not rows:
        return 1.0
    if (rows, cols) not in memo:
        acc = 0.0
        for k, c in enumerate(cols):
            t = g[rows[0], c] * _minor(g, rows[1:], cols[:k] + cols[k + 1:], memo)
            acc = acc - t if k % 2 else acc + t
        memo[rows, cols] = acc
    return memo[rows, cols]


def _cofactors(g: np.ndarray) -> np.ndarray:
    """Cofactors C_ij = (-1)^(i+j) det(g without row i and column j) of a
    symmetric (n, n, *grid) array."""
    n = g.shape[0]
    memo = {}
    cof = np.empty_like(g)
    idx = tuple(range(n))
    for i in range(n):
        for j in range(i, n):
            m = _minor(g, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:], memo)
            cof[i, j] = cof[j, i] = -m if (i + j) % 2 else m
    return cof


class MetricField:
    """SPD (0,2) field with cached inverse and sqrt(det); SPDError otherwise."""

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        n = grid.n
        if values.shape != (n, n) + grid.shape:
            raise GridError("metric component array shape mismatch")
        with np.errstate(invalid="ignore", over="ignore"):  # a failing field is named below
            self.values = np.ascontiguousarray(0.5 * (values + np.swapaxes(values, 0, 1)))
            cof = _cofactors(self.values)
            det = sum(self.values[0, j] * cof[0, j] for j in range(n))
            shifted = self.values.copy()        # g - tol I > 0 iff lambda_min(g) > tol
            diag = np.einsum("ii...->i...", shifted)
            diag -= 1e-10 * np.max(np.abs(diag))
            idx, memo = tuple(range(n)), {}     # expanding det along the first row
            _minor(shifted, idx, idx, memo)     # passes through every det[k:, k:]
            ok = np.all(np.isfinite(det)) and all(np.all(memo[idx[k:], idx[k:]] > 0)
                                                  for k in range(n))
        if not ok:              # a non-finite entry makes det inf or NaN
            if bad := np.count_nonzero(~np.all(np.isfinite(self.values), axis=(0, 1))):
                raise SPDError(f"metric not SPD: non-finite entries at {bad} grid points")
            mats = np.moveaxis(self.values.reshape(n, n, -1), -1, 0)   # (P, n, n)
            raise SPDError("metric not SPD: min eigenvalue "
                           f"{np.linalg.eigvalsh(mats).min():.3e}")
        self.inv = cof / det
        self.sqrt_det = np.sqrt(det)

    @property
    def n(self) -> int:
        return self.grid.n

    def scaled(self, c: float) -> "MetricField":
        return MetricField(self.grid, c * self.values)


def flat_metric(grid: Grid) -> MetricField:
    n = grid.n
    vals = np.zeros((n, n) + grid.shape)
    for i in range(n):
        vals[i, i] = 1.0
    return MetricField(grid, vals)


def integrate(values, metric: MetricField) -> float:
    """Integral over a closed torus: sum of value * sqrt(det g) * cell volume."""
    if metric.grid.kind != "torus":
        raise GridError("integration requires a torus grid (closed manifold)")
    return float(np.sum(np.asarray(values) * metric.sqrt_det) * metric.grid.cell_volume)

