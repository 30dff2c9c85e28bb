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
closed form from one Laplace expansion, the cofactors of g.  Every metric
passes one SPD rule: det g is finite and every trailing principal minor
of g - tol I, tol = 1e-10 max|g_ii|, is positive, which by Sylvester's
criterion says the least eigenvalue of g is above tol; the rule reads the
minors' ratios, the LDL^T pivots of g - tol I.  Derivatives are
second-order centered stencils; on a torus they wrap periodically, on a
chart each stencil applied leaves one boundary layer of wrap garbage,
which ``interior`` discards.  Every periodic difference goes through
``_stencil``: it writes the interior and the two wrapped edge layers through
views that a plan cached per shape and axis indexes into one preallocated
output, with no rolled copy of its input, and keeps the roll form's float
operations in their order, so each result equals ``np.roll``'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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

@lru_cache(maxsize=None)
def _plan(shape: tuple, ax: int) -> tuple:
    """Per piece of a periodic stencil along axis ``ax`` of a C-contiguous array
    of ``shape``, the index (o, vm, v0, vp) of the output piece and of v[i - 1],
    v[i], v[i + 1]: the flat run between the edge layers, then the edge layers
    i = 0, size - 1 in one piece of basic slices (size >= 3)."""
    k, end, size = int(np.prod(shape[ax + 1:])), int(np.prod(shape)), shape[ax]
    pre = (slice(None),) * ax
    both = slice(None, None, size - 1)
    edges = tuple(pre + (s,) for s in (both, slice(size - 1, size - 3, -1), both, slice(1, None, -1)))
    return tuple(slice((1 + s) * k, end + (s - 1) * k) for s in (0, -1, 0, 1)), edges


def _stencil(apply, values: np.ndarray, grid: Grid, axis: int, out=None) -> np.ndarray:
    """A periodic stencil along grid axis ``axis``, written into one
    C-contiguous output with no shifted copy of ``values`` (a strided input
    is made contiguous first): ``apply(o, vm, v0, vp)`` fills the output
    piece ``o`` from the views v[i - 1], v[i], v[i + 1] that ``_plan`` indexes,
    by the same float operations, in the same order, as the np.roll form,
    which it equals bit for bit.  It runs once on the flat run between the
    two edge layers, which also covers the edge layers of the inner blocks,
    and then on the edge layers, whose wrapped values overwrite those; so
    ``out`` must not overlap ``values``.  Private, so that a traced run counts
    its time in the stencil or the optimizer step that calls it."""
    values = np.ascontiguousarray(values)
    out = np.empty(values.shape) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    (o, m, z, p), edges = _plan(values.shape, values.ndim - grid.n + axis)
    flat = values.reshape(-1)
    apply(out.reshape(-1)[o], flat[m], flat[z], flat[p])
    o, m, z, p = edges
    apply(out[o], values[m], values[z], values[p])
    return out


def _centered(o, vm, v0, vp):
    np.subtract(vp, vm, out=o)


def _second(o, vm, v0, vp):
    np.multiply(v0, 2.0, out=o)
    np.subtract(vp, o, out=o)
    np.add(o, vm, out=o)


def diff1(values: np.ndarray, grid: Grid, axis: int, out=None) -> np.ndarray:
    """Centered first derivative (v[i+1] - v[i-1]) / (2h) along grid axis
    ``axis``; periodic wrap.  ``out``, when given, receives it and must not
    overlap ``values``."""
    out = _stencil(_centered, values, grid, axis, out)
    out /= 2.0 * grid.spacing[axis]
    return out


def diff2(values: np.ndarray, grid: Grid, axis: int, out=None) -> np.ndarray:
    """Centered second derivative ((v[i+1] - 2 v[i]) + v[i-1]) / h^2 along
    grid axis ``axis``; periodic wrap.  ``out``, when given, receives it and
    must not overlap ``values``."""
    h = grid.spacing[axis]
    out = _stencil(_second, values, grid, axis, out)
    out /= h * h
    return out


def grad_stack(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Stack of first derivatives; new derivative axis comes first."""
    out = np.empty((grid.n,) + values.shape)
    for a in range(grid.n):
        diff1(values, grid, a, out[a])
    return out


def flat_divergence(stack: np.ndarray, grid: Grid) -> np.ndarray:
    """sum_a d_a F^a of a stack whose first axis is the derivative axis (the
    shape ``grad_stack`` returns); summed in axis order."""
    out, term = np.zeros(stack.shape[1:]), np.empty(stack.shape[1:])
    for a in range(grid.n):
        out += diff1(stack[a], grid, a, term)
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
    by Laplace expansion along its first row; a 1 x 1 block is a view of g,
    and ``memo`` keeps every larger block already expanded, so cofactors
    that share a minor compute it once."""
    if len(rows) < 2:
        return g[rows[0], cols[0]] if rows else 1.0
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


def _pivots_positive(g: np.ndarray) -> bool:
    """Whether every LDL^T pivot of g - tol I, tol = 1e-10 max|g_ii|, from the
    last row up, is positive: the pivot of row k is det(g - tol I)[k:, k:] over
    det(g - tol I)[k + 1:, k + 1:].  It stops at the first that fails (or is NaN)."""
    n = g.shape[0]
    tol = 1e-10 * np.abs(np.einsum("ii...->i...", g)).max()
    a = {(i, j): g[i, j] - tol if i == j else g[i, j] for i in range(n) for j in range(i, n)}
    for k in reversed(range(n)):
        if not a[k, k].min() > 0:
            return False
        for i in range(k):
            r = a[i, k] / a[k, k]
            for j in range(i, k):
                a[i, j] = a[i, j] - a[j, k] * r
    return True


class MetricField:
    """SPD (0,2) field with cached inverse and sqrt(det); SPDError otherwise."""

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        n = grid.n
        if values.shape != (n, n) + grid.shape:
            raise GridError("metric component array shape mismatch")
        with np.errstate(invalid="ignore", over="ignore"):  # a failing field is named below
            g = self.values = np.empty(values.shape)
            for i in range(n):              # 0.5 (v + v^T), each pair written once
                for j in range(i, n):
                    o = np.add(values[i, j], values[j, i], out=g[i, j])
                    np.multiply(o, 0.5, out=o)
                g[i + 1:, i] = g[i, i + 1:]
            cof = _cofactors(g)
            det = sum((g[0, j] * cof[0, j] for j in range(1, n)), g[0, 0] * cof[0, 0])
            ok = np.isfinite(det).all() and _pivots_positive(g)
        if not ok:              # a non-finite entry makes det inf or NaN
            if bad := np.count_nonzero(~np.all(np.isfinite(g), axis=(0, 1))):
                raise SPDError(f"metric not SPD: non-finite entries at {bad} grid points")
            mats = np.moveaxis(g.reshape(n, n, -1), -1, 0)   # (P, n, n)
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

