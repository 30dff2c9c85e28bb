"""Analytic families of metrics and potentials used by runs, demos, and tests.

All families are trigonometric polynomials on a torus (so they are smooth,
periodic, and cheap), plus the two chart constructions used by the static
curvature oracles: the stereographic round-sphere chart and flat charts.
"""

from __future__ import annotations

import numpy as np

from .mesh import Grid, MetricField, build_grid, flat_metric


def trig_scalar(grid: Grid, terms) -> np.ndarray:
    """Sum of a_m * sin/cos(k . x + phase) terms.

    Each term is a dict with keys: amp, wave (integer vector, len n),
    kind ("sin"|"cos"), phase (optional).
    """
    xs = grid.coords()
    out = np.zeros(grid.shape)
    for t in terms:
        wave = t["wave"]
        arg = sum(int(k) * x for k, x in zip(wave, xs)) + float(t.get("phase", 0.0))
        fn = {"sin": np.sin, "cos": np.cos}[t.get("kind", "sin")]
        out += float(t["amp"]) * fn(arg)
    return out


def perturbed_flat_metric(grid: Grid, terms_by_comp) -> MetricField:
    """delta_ij plus symmetric trig perturbations.

    ``terms_by_comp`` maps (i, j) with i <= j to a term list (see trig_scalar).
    """
    n = grid.n
    vals = np.zeros((n, n) + grid.shape)
    for i in range(n):
        vals[i, i] = 1.0
    for (i, j), terms in terms_by_comp.items():
        p = trig_scalar(grid, terms)
        vals[i, j] += p
        if i != j:
            vals[j, i] += p
    return MetricField(grid, vals)


def conformal_metric(grid: Grid, phi: np.ndarray) -> MetricField:
    """g = e^{2 phi} delta."""
    n = grid.n
    vals = np.zeros((n, n) + grid.shape)
    f = np.exp(2.0 * phi)
    for i in range(n):
        vals[i, i] = f
    return MetricField(grid, vals)


def product_metric(grid: Grid, diag_fns) -> MetricField:
    """Diagonal metric; entry i is a callable of the coordinate arrays (or a constant)."""
    n = grid.n
    xs = grid.coords()
    vals = np.zeros((n, n) + grid.shape)
    for i, f in enumerate(diag_fns):
        vals[i, i] = f(xs) if callable(f) else float(f) * np.ones(grid.shape)
    return MetricField(grid, vals)


# random_instance: metric (half off the diagonal) and potential amplitudes, modes
RANDOM_AMP_G, RANDOM_AMP_U, RANDOM_NMODES = 0.12, 0.3, 2


def _random_terms(rng, n: int) -> list:
    """RANDOM_NMODES sine terms, each drawn as wave (fixed up if 0), phase, amp."""
    terms = []
    for _ in range(RANDOM_NMODES):
        wave = rng.integers(-1, 2, size=n)
        if not wave.any():
            wave[rng.integers(0, n)] = 1
        terms.append({"wave": wave, "phase": rng.uniform(0, 2 * np.pi),
                      "amp": rng.uniform(-1, 1)})
    return terms


def random_instance(n: int, res: int, seed: int):
    """Seeded random smooth (g, u) on the 2 pi torus T^n: trig perturbation of flat."""
    rng = np.random.default_rng(seed)
    grid = build_grid("torus", n, [res] * n, [2.0 * np.pi] * n)
    vals = np.zeros((n, n) + grid.shape)
    for i in range(n):
        vals[i, i] = 1.0
    for i in range(n):
        for j in range(i, n):
            p = trig_scalar(grid, _random_terms(rng, n))
            scale = RANDOM_AMP_G if i == j else 0.5 * RANDOM_AMP_G
            vals[i, j] += scale * p / RANDOM_NMODES
            if i != j:
                vals[j, i] = vals[i, j]
    u = trig_scalar(grid, _random_terms(rng, n)) * (RANDOM_AMP_U / RANDOM_NMODES)
    return grid, MetricField(grid, vals), u


def stereographic_sphere_chart(res: int = 128, extent: float = 2.0):
    """Unit-radius S^2 in stereographic coordinates: g = 4/(1+|x|^2)^2 delta, R = 2."""
    grid = build_grid("chart", 2, [res, res], [extent, extent])
    X, Y = grid.coords()
    conf = 4.0 / (1.0 + X ** 2 + Y ** 2) ** 2
    vals = np.zeros((2, 2) + grid.shape)
    vals[0, 0] = conf
    vals[1, 1] = conf
    return grid, MetricField(grid, vals)


def euclidean_chart(n: int, res: int, extent: float):
    grid = build_grid("chart", n, [res] * n, [extent] * n)
    return grid, flat_metric(grid)


def radial_potential(grid: Grid, phi):
    """u(x) = phi(|x|^2) on a chart; ``phi`` maps an array of r = |x|^2 values."""
    xs = grid.coords()
    r2 = sum(x * x for x in xs)
    return phi(r2), r2


VERIFICATION_METRIC_TERMS = {
    (0, 0): [{"amp": 0.10, "wave": [1, 0]}, {"amp": 0.05, "wave": [0, 1], "kind": "cos"}],
    (1, 1): [{"amp": 0.08, "wave": [1, 1]}],
    (0, 1): [{"amp": 0.04, "wave": [0, 1]}],
}
VERIFICATION_U_TERMS = [{"amp": 0.25, "wave": [1, 0]},
                        {"amp": 0.12, "wave": [0, 1], "kind": "cos"}]


def verification_initial_data(grid: Grid):
    """The canonical curved (g, u) instance used by the residual studies."""
    metric = perturbed_flat_metric(grid, VERIFICATION_METRIC_TERMS)
    u0 = trig_scalar(grid, VERIFICATION_U_TERMS)
    return metric, u0
