import re

import numpy as np
import pytest

from rlab.mesh import (GridError, MetricField, SPDError, build_grid, diff1,
                       diff2, flat_divergence, flat_metric, integrate,
                       interior)


def test_build_grid_basic():
    g = build_grid("torus", 2, [32, 32], [2 * np.pi, 2 * np.pi])
    assert g.spacing == (2 * np.pi / 32, 2 * np.pi / 32)
    c = build_grid("chart", 2, [64, 64], [4.0, 4.0])
    assert c.spacing == (4.0 / 64, 4.0 / 64)
    g4 = build_grid("torus", 4, [8, 8, 8, 8], [2 * np.pi] * 4)
    assert g4.shape == (8, 8, 8, 8)


def test_build_grid_rejects():
    with pytest.raises(GridError):
        build_grid("torus", 5, [8] * 5, [1.0] * 5)
    with pytest.raises(GridError):
        build_grid("torus", 0, [], [])
    with pytest.raises(GridError):
        build_grid("torus", 2, [4, 16], [1.0, 1.0])
    with pytest.raises(GridError):
        build_grid("chart", 2, [2, 8], [1.0, 1.0])
    with pytest.raises(GridError):
        build_grid("torus", 2, [16, 16], [1.0, -1.0])
    with pytest.raises(GridError):
        build_grid("cylinder", 2, [16, 16], [1.0, 1.0])


def test_first_derivative_analytic():
    g = build_grid("torus", 1, [64], [2 * np.pi])
    x = g.coords()[0]
    df = diff1(np.sin(x), g, 0)
    h = g.spacing[0]
    assert np.max(np.abs(df - np.cos(x))) < h * h


def test_constant_derivative_exact():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    f = np.full(g.shape, 3.7)
    for axis in (0, 1):
        for op in (diff1, diff2):
            assert np.all(op(f, g, axis) == 0.0)


def test_second_derivative_polynomial_exact_on_chart():
    g = build_grid("chart", 2, [32, 32], [4.0, 4.0])
    x = g.coords()[0]
    inner = interior(diff2(x * x, g, 0), g, 1)
    assert np.max(np.abs(inner - 2.0)) < 1e-12


def test_derivative_order_and_linearity():
    errs = []
    for res in (16, 32, 64):
        g = build_grid("torus", 1, [res], [2 * np.pi])
        x = g.coords()[0]
        f = np.sin(2 * x) + 0.3 * np.cos(3 * x)
        exact = 2 * np.cos(2 * x) - 0.9 * np.sin(3 * x)
        errs.append(np.max(np.abs(diff1(f, g, 0) - exact)))
    order = np.polyfit(np.log([2 * np.pi / r for r in (16, 32, 64)]),
                       np.log(errs), 1)[0]
    assert 1.7 <= order <= 2.3
    # linearity to rounding
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    rng = np.random.default_rng(0)
    a, b = rng.random(g.shape), rng.random(g.shape)
    lhs = diff1(2.0 * a + 3.0 * b, g, 0)
    rhs = 2.0 * diff1(a, g, 0) + 3.0 * diff1(b, g, 0)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_mixed_derivatives_commute():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    rng = np.random.default_rng(1)
    f = rng.random(g.shape)
    a = diff1(diff1(f, g, 0), g, 1)
    b = diff1(diff1(f, g, 1), g, 0)
    assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))


def test_flat_divergence_sums_the_diagonal_of_grad_stack():
    # sum_a d_a F^a in axis order, bitwise as the hand loop it replaces
    g = build_grid("torus", 3, [8, 8, 8], [2 * np.pi] * 3)
    F = np.random.default_rng(5).random((3,) + g.shape)
    loop = np.zeros(g.shape)
    for a in range(3):
        loop += diff1(F[a], g, a)
    assert np.array_equal(flat_divergence(F, g), loop)


def test_integrate_flat_torus():
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    m = flat_metric(g)
    assert abs(integrate(np.ones(g.shape), m) - 4 * np.pi ** 2) < 1e-10
    x = g.coords()[0]
    assert abs(integrate(np.sin(x), m)) < 1e-12


def test_integrate_weighted_divergence():
    # (Delta u + |grad u|^2) e^u integrates to zero exactly in divergence form
    from rlab.tensor import div_form_weighted_laplacian
    g = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
    m = flat_metric(g)
    u = 0.3 * np.sin(g.coords()[0])
    val = integrate(div_form_weighted_laplacian(m, u), m)
    assert abs(val) < 1e-6 * 0.3


def test_integrate_rejects_chart():
    g = build_grid("chart", 2, [16, 16], [2.0, 2.0])
    m = flat_metric(g)
    with pytest.raises(GridError):
        integrate(np.ones(g.shape), m)


def test_summation_by_parts():
    # integral of a first derivative vanishes to rounding on a torus
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m = flat_metric(g)
    rng = np.random.default_rng(3)
    f = rng.random(g.shape)
    assert abs(integrate(diff1(f, g, 0), m)) < 1e-12


def test_metric_invariants():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    vals = np.zeros((2, 2) + g.shape)
    vals[0, 0] = 2.0
    vals[1, 1] = 0.5
    vals[0, 1] = vals[1, 0] = 0.1
    m = MetricField(g, vals)
    ident = np.einsum("ij...,jk...->ik...", m.values, m.inv)
    eye = np.zeros_like(ident)
    eye[0, 0] = eye[1, 1] = 1.0
    assert np.max(np.abs(ident - eye)) < 1e-12
    assert np.allclose(m.sqrt_det, np.sqrt(2.0 * 0.5 - 0.01))


def test_metric_spd_rejection():
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    vals = np.zeros((2, 2) + g.shape)
    vals[0, 0] = 1.0
    vals[1, 1] = -1.0
    with pytest.raises(SPDError, match=r"min eigenvalue -1\.000e\+00"):
        MetricField(g, vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metric_non_finite_rejected(bad):
    # a non-finite entry makes det inf or NaN: the failing rule names the points
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    vals = np.zeros((2, 2) + g.shape)
    vals[0, 0] = vals[1, 1] = 1.0
    vals[0, 1, 3, 4] = bad
    with pytest.raises(SPDError, match="non-finite entries at 1 grid points"):
        MetricField(g, vals)


def test_chart_margin_tracking():
    # three stencils applied leave three collar layers to drop
    g = build_grid("chart", 2, [16, 16], [2.0, 2.0])
    d3 = diff1(diff1(diff1(np.sin(g.coords()[0]), g, 0), g, 0), g, 1)
    assert interior(d3, g, 3).shape == (10, 10)


def _random_spd(n, shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n) + shape)
    return np.einsum("ik...,jk...->ij...", a, a) + n * np.eye(n).reshape((n, n) + (1,) * len(shape))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_inverse_matches_linalg(n):
    g = build_grid("torus", n, [8] * n, [2 * np.pi] * n)
    m = MetricField(g, _random_spd(n, g.shape, seed=40 + n))
    mats = np.moveaxis(m.values.reshape(n, n, -1), -1, 0)
    inv = np.moveaxis(np.linalg.inv(mats), 0, -1).reshape(m.inv.shape)
    det = np.linalg.det(mats).reshape(g.shape)
    assert np.max(np.abs(m.inv - inv)) <= 1e-13 * np.max(np.abs(inv))
    assert np.max(np.abs(m.sqrt_det / np.sqrt(det) - 1.0)) <= 1e-13


def _field_with_spectrum(rng, grid, lam):
    """Symmetric (n, n, *grid) field with eigenvalues lam[p] at point p, in random frames."""
    n = grid.n
    q, _ = np.linalg.qr(rng.normal(size=(len(lam), n, n)))
    mats = np.einsum("pik,pk,pjk->pij", q, lam, q)
    return np.moveaxis(mats, 0, -1).reshape((n, n) + grid.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spd_rule_is_two_sided_against_eigvalsh(n):
    # every field with a point where lambda_min <= tol = 1e-10 max|g_ii| is rejected
    # (Cholesky of g - tol I rejects exactly these), and every field whose eigenvalues
    # all lie in [0.1, 10], or whose lambda_min is far above tol, is accepted
    g = build_grid("torus", n, [8] * n, [2 * np.pi] * n)
    rng = np.random.default_rng(70 + n)
    npts = int(np.prod(g.shape))
    seen = {"rejected": 0, "accepted": 0}
    for k in range(24):
        lam = rng.uniform(0.1, 10.0, size=(npts, n))
        if k % 2:       # one point whose least eigenvalue is at or below any tol here
            lam[rng.integers(npts), 0] = (-1.0, -1e-3, 0.0, 1e-12, 9e-12)[k // 2 % 5]
        vals = _field_with_spectrum(rng, g, lam)
        mats = np.moveaxis(vals.reshape(n, n, -1), -1, 0)
        eigs = np.linalg.eigvalsh(mats)
        tol = 1e-10 * np.max(np.abs(np.einsum("ii...->i...", vals)))
        if eigs.min() <= tol:
            with pytest.raises(SPDError, match="min eigenvalue"):
                MetricField(g, vals)
            seen["rejected"] += 1
        else:
            assert 0.1 - 1e-12 <= eigs.min() and eigs.max() <= 10.0 + 1e-12
            m = MetricField(g, vals)
            np.linalg.cholesky(mats - tol * np.eye(n))     # the Cholesky rule accepts it too
            inv = np.moveaxis(np.linalg.inv(mats), 0, -1).reshape(m.inv.shape)
            assert np.max(np.abs(m.inv - inv)) <= 1e-12 * np.max(np.abs(inv))
            seen["accepted"] += 1
    assert seen == {"rejected": 12, "accepted": 12}
    # anisotropic, condition number 1e4 or 1e6, lambda_min still far above tol
    for c in (1e4, 1e6):
        for lam in ([1.0] * (n - 1) + [c], [1.0 / c] * (n - 1) + [1.0]):
            MetricField(g, _field_with_spectrum(rng, g, np.tile(lam, (npts, 1))))


@pytest.mark.parametrize("diag, lam_min", [
    ((-1.0, -1.0), "-1.000e+00"), ((-1.0, -1.0, 1.0, 1.0), "-1.000e+00"),
    ((-1e12, 1.0), "-1.000e+12"), ((1.0, 0.0, 1.0), "0.000e+00")])
def test_spd_rule_rejects_fields_a_determinant_test_misses(diag, lam_min):
    # det g > 0 at every point, a negative trace, or a zero eigenvalue
    n = len(diag)
    g = build_grid("torus", n, [8] * n, [2 * np.pi] * n)
    vals = np.zeros((n, n) + g.shape)
    for i, d in enumerate(diag):
        vals[i, i] = d
    with pytest.raises(SPDError, match=f"min eigenvalue {re.escape(lam_min)}"):
        MetricField(g, vals)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_metric_and_geometry_fields_are_c_contiguous(n):
    # strided operands slow every einsum that reads them several-fold
    from rlab.instances import random_instance
    from rlab.tensor import Geometry
    _, m, u = random_instance(n, 8, seed=11)
    geo = Geometry(m, u)
    for arr in (m.values, m.inv, m.sqrt_det, geo.gamma, geo.ric, geo.rm4, geo.hess):
        assert arr.flags.c_contiguous
