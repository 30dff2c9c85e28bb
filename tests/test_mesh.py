import re

import numpy as np
import pytest

from rlab.mesh import (GridError, MetricField, SPDError, build_grid, diff1,
                       diff2, flat_divergence, flat_metric, grad_stack,
                       integrate, interior)


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


def roll_diff1(v, grid, axis):
    ax = v.ndim - grid.n + axis
    return (np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2.0 * grid.spacing[axis])


def roll_diff2(v, grid, axis):
    ax, h = v.ndim - grid.n + axis, grid.spacing[axis]
    return (np.roll(v, -1, axis=ax) - 2.0 * v + np.roll(v, 1, axis=ax)) / (h * h)


def contiguous_and_strided(rng, shape):
    """A C-contiguous array of ``shape`` and a non-contiguous one: a swapaxes
    view of its last two axes, or a strided view on one axis."""
    if len(shape) == 1:
        return rng.standard_normal(shape), rng.standard_normal(2 * shape[0])[::2]
    swapped = np.swapaxes(rng.standard_normal(shape[:-2] + shape[:-3:-1]), -1, -2)
    return rng.standard_normal(shape), swapped


STENCIL_GRIDS = [(kind, n) for kind in ("torus", "chart") for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("kind, n", STENCIL_GRIDS)
def test_stencils_equal_their_roll_form_bitwise(kind, n):
    # the slice-wrapped kernels against np.roll: every axis, 0-3 leading
    # component axes, contiguous and strided inputs, the least chart
    # resolution (a one-layer interior piece) included
    res = [8, 9, 10, 11] if kind == "torus" else [3, 4, 5, 6]
    g = build_grid(kind, n, res[:n], [1.0 + 0.5 * a for a in range(n)])
    rng = np.random.default_rng(20 + n)
    for lead in range(4):
        for v in contiguous_and_strided(rng, (2, 3, 2)[:lead] + g.shape):
            assert v.flags.c_contiguous == (v.base is None)
            outs = [grad_stack(v, g)]
            assert np.array_equal(outs[0], np.stack([roll_diff1(v, g, a) for a in range(n)]))
            for a in range(n):
                for op, ref in ((diff1, roll_diff1), (diff2, roll_diff2)):
                    buf = np.empty(v.shape)
                    outs += [op(v, g, a), op(v, g, a, buf)]
                    assert outs[-1] is buf
                    assert np.array_equal(outs[-2], ref(v, g, a))
                    assert np.array_equal(buf, outs[-2])
            for out in outs:
                assert out.dtype == np.float64 and out.flags.c_contiguous
        if lead < 3:
            for F in contiguous_and_strided(rng, (n,) + (2, 3)[:lead] + g.shape):
                ref = np.zeros(F.shape[1:])
                for a in range(n):
                    ref += roll_diff1(F[a], g, a)
                div = flat_divergence(F, g)
                assert np.array_equal(div, ref)
                assert div.dtype == np.float64 and div.flags.c_contiguous


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


def _laplace_minor(g, rows, cols, memo):
    """det of a block of g by Laplace expansion along its first row, every
    block from 1 x 1 up formed as a sum starting from 0.0."""
    if not rows:
        return 1.0
    if (rows, cols) not in memo:
        acc = 0.0
        for k, c in enumerate(cols):
            t = g[rows[0], c] * _laplace_minor(g, rows[1:], cols[:k] + cols[k + 1:], memo)
            acc = acc - t if k % 2 else acc + t
        memo[rows, cols] = acc
    return memo[rows, cols]


def _laplace_metric(vals):
    """(g, g^-1, sqrt det g, verdict) by the earlier formulas: 0.5 (v + v^T),
    the Laplace cofactors of g, and as the SPD rule every trailing minor of
    g - tol I positive, from a second expansion of that shifted array."""
    n = vals.shape[0]
    g = np.ascontiguousarray(0.5 * (vals + np.swapaxes(vals, 0, 1)))
    idx, memo = tuple(range(n)), {}
    cof = np.empty_like(g)
    for i in range(n):
        for j in range(i, n):
            m = _laplace_minor(g, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:], memo)
            cof[i, j] = cof[j, i] = -m if (i + j) % 2 else m
    det = sum(g[0, j] * cof[0, j] for j in range(n))
    shifted = g.copy()
    diag = np.einsum("ii...->i...", shifted)
    diag -= 1e-10 * np.max(np.abs(diag))
    memo = {}
    _laplace_minor(shifted, idx, idx, memo)
    ok = bool(np.all(np.isfinite(det))) and all(np.all(memo[idx[k:], idx[k:]] > 0)
                                                for k in range(n))
    return g, cof / det, np.sqrt(det), ok


def _accepted(grid, vals):
    try:
        MetricField(grid, vals)
    except SPDError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_metric_fields_equal_the_laplace_formulas_bitwise(n):
    # one cofactor expansion with 1 x 1 minors read as views of g gives the
    # same g, g^-1 and sqrt det g, bit for bit, as the expansion that formed
    # every minor as a sum
    from rlab.instances import random_instance
    g = build_grid("torus", n, [8] * n, [2 * np.pi] * n)
    rng = np.random.default_rng(90 + n)
    asym = _random_spd(n, g.shape, seed=80 + n) + 1e-3 * rng.standard_normal((n, n) + g.shape)
    for vals in (_random_spd(n, g.shape, seed=60 + n), asym,
                 random_instance(n, 8, seed=5)[1].values):
        m = MetricField(g, vals)
        values, inv, sqrt_det, ok = _laplace_metric(vals)
        assert ok
        for got, ref in ((m.values, values), (m.inv, inv), (m.sqrt_det, sqrt_det)):
            assert got.flags.c_contiguous and np.array_equal(got, ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spd_pivots_give_the_trailing_minor_verdict(n):
    # the LDL^T pivots of g - tol I accept and reject the same fields as the
    # trailing minors of g - tol I: one point with lambda_min at 0.1, 0.9, 1.1
    # or 10 tol in a random frame, the other points' spectra in [1, 10] (so
    # they fix tol), or a NaN entry at one point
    g = build_grid("torus", n, [8] * n, [2 * np.pi] * n)
    rng = np.random.default_rng(110 + n)
    npts = int(np.prod(g.shape))
    verdicts = []
    for trial in range(8):
        vals = _field_with_spectrum(rng, g, rng.uniform(1.0, 10.0, size=(npts, n)))
        flat = vals.reshape(n, n, -1)
        p = int(rng.integers(npts))
        tol = 1e-10 * np.max(np.abs(np.einsum("ii...->i...", vals)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for c in (0.1, 0.9, 1.1, 10.0):
            lam = np.array([c * tol] + [1.0] * (n - 1))
            flat[:, :, p] = (q * lam) @ q.T     # its diagonal stays below 1: tol holds
            ref = _laplace_metric(vals)[3]
            assert _accepted(g, vals) == ref, (trial, c)
            verdicts.append((c, ref))
        flat[int(rng.integers(n)), int(rng.integers(n)), p] = np.nan
        assert not _accepted(g, vals) and not _laplace_metric(vals)[3]
    assert set(verdicts) == {(0.1, False), (0.9, False), (1.1, True), (10.0, True)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_metric_and_geometry_fields_are_c_contiguous(n):
    # strided operands slow every einsum that reads them several-fold
    from rlab.instances import random_instance
    from rlab.tensor import Geometry
    _, m, u = random_instance(n, 8, seed=11)
    geo = Geometry(m, u)
    for arr in (m.values, m.inv, m.sqrt_det, geo.gamma, geo.ric, geo.rm_ab, geo.hess):
        assert arr.flags.c_contiguous
