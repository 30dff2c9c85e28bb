import csv
import json

import numpy as np
import pytest

from conftest import HOLD, RHF, bundle, bundles, geometry, workloads
from rlab.cli import run_experiment
from rlab.flow import FlowState, Schedule, run
from rlab.instances import verification_initial_data
from rlab.mesh import MetricField, build_grid
from rlab.uniqueness import difference_bundle, energy, energy_trace, gronwall_fit

RES = 16
SCHED = Schedule(t_end=0.02, dt=5e-4, cadence=1, diagnostics=False)


def make_pair(delta, res=RES, dt=5e-4):
    g = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    pm = m.values.copy()
    pm[0, 0] = pm[0, 0] + delta * np.sin(g.coords()[1])
    sched = Schedule(t_end=0.02, dt=dt, cadence=1, diagnostics=False)
    t1 = run(FlowState(g, m, u0), RHF, sched, HOLD)
    t2 = run(FlowState(g, MetricField(g, pm), u0), RHF, sched, HOLD)
    return t1, t2


@pytest.fixture(scope="module")
def pairs():
    t1, t2 = make_pair(1e-3)
    _, t3 = make_pair(5e-4)
    return t1, t2, t3


def test_identical_pair_zero(pairs):
    t1 = pairs[0]
    g = t1.last.grid
    m, u0 = verification_initial_data(g)
    t1b = run(FlowState(g, m, u0), RHF, SCHED, HOLD)
    b = bundle(t1, t1b, 5)
    for name in ("h", "A", "B", "T", "U", "v", "w", "x", "y", "z"):
        assert not np.any(getattr(b, name)), name
    assert energy(bundle(t1, t1b, 5)) == 0.0
    assert energy(bundle(t1, t1b, 0)) == 0.0   # defined limit at t = 0
    trace = energy_trace(bundles(t1, t1b))
    fit = gronwall_fit(trace)
    assert fit["outcome"] == "identically-zero" and fit["N"] is None


def test_gronwall_fit_needs_two_points(pairs):
    t1, t2, _ = pairs
    trace = energy_trace(bundles(t1, t2, [1, 2]))
    assert gronwall_fit(trace)["outcome"] == "fit"
    for window in (slice(1, None), slice(2, None)):
        assert gronwall_fit(trace, window=window) == {
            "outcome": "too-few-points", "N": None, "residual": None}


def test_energy_trace_builds_only_the_energy_differences(pairs, monkeypatch):
    # the trace writes h, A, T, v, w; U and z (and B, x) are built on first use
    import rlab.uniqueness
    from rlab.tensor import Geometry
    built = []
    for name in ("grad_rm13", "d3u"):
        real = Geometry.__dict__[name].func
        monkeypatch.setattr(Geometry, name, property(
            lambda self, real=real, name=name: built.append(name) or real(self)))
    real_cov_d = rlab.uniqueness.cov_d
    monkeypatch.setattr(rlab.uniqueness, "cov_d",
                        lambda *a: built.append("cov_d") or real_cov_d(*a))
    t1, t2, _ = pairs
    energy_trace(bundles(t1, t2, range(1, 4)))
    assert built == []
    b = bundle(t1, t2, 1)
    b.U, b.z, b.B, b.x
    assert sorted(built) == ["cov_d", "cov_d", "d3u", "d3u", "grad_rm13", "grad_rm13"]


def test_energy_trace_norms_each_difference_once(pairs, monkeypatch):
    # energy and norms read one cached squared norm per difference
    import rlab.uniqueness
    calls = []
    real = rlab.uniqueness.norm_sq
    monkeypatch.setattr(rlab.uniqueness, "norm_sq",
                        lambda *a: calls.append(a[2:]) or real(*a))
    t1, t2, _ = pairs
    trace = energy_trace(bundles(t1, t2, range(1, 4)))
    assert len(calls) == 5 * 3
    b = bundle(t1, t2, 2)
    assert trace.values[1] == energy(b)
    assert trace.norms[1] == b.norms()


def test_bundle_initial_structure(pairs):
    t1, t2, _ = pairs
    b0 = bundle(t1, t2, 1)
    # metric difference carries the delta perturbation, the potential does not
    assert np.max(np.abs(b0.v)) < 5e-4
    assert 1e-4 < np.max(np.abs(b0.h)) < 2e-3


def test_eq69_consistency_refines():
    errs = []
    for res, dt in ((16, 5e-4), (32, 1.25e-4)):
        t1, t2 = make_pair(1e-3, res, dt)
        k = int(round(0.01 / dt))
        b = bundle(t1, t2, k)
        r = b.eq69_residual()
        errs.append(float(np.max(np.abs(r))))
    assert errs[1] < errs[0] / 2.5


def test_energy_weight_and_beta_validation(pairs):
    t1, t2, _ = pairs
    with pytest.raises(ValueError):
        energy(bundle(t1, t2, 10), beta=1.5)


def test_energy_amplitude_scaling(pairs):
    t1, t2, t3 = pairs
    tr2 = energy_trace(bundles(t1, t2))
    tr3 = energy_trace(bundles(t1, t3))
    k = len(tr2.values) // 2
    ratio = tr2.values[k] / tr3.values[k]
    assert abs(ratio - 4.0) < 0.4          # O(delta^2) within 10%


def test_gronwall_rate_amplitude_independent(pairs):
    t1, t2, t3 = pairs
    tr2 = energy_trace(bundles(t1, t2))
    tr3 = energy_trace(bundles(t1, t3))
    half = len(tr2.times) // 2
    f2 = gronwall_fit(tr2, window=slice(half, None))
    f3 = gronwall_fit(tr3, window=slice(half, None))
    assert f2["outcome"] == f3["outcome"] == "fit"
    assert abs(f2["N"] - f3["N"]) <= 0.1 * max(abs(f2["N"]), abs(f3["N"]))


def test_growth_bound_with_inflated_rate(pairs):
    t1, t2, _ = pairs
    tr = energy_trace(bundles(t1, t2))
    half = len(tr.times) // 2
    fit = gronwall_fit(tr, window=slice(half, None))
    N = abs(fit["N"])
    e0, t0 = tr.values[half], tr.times[half]
    for k in range(half, len(tr.times)):
        assert tr.values[k] <= e0 * np.exp(2 * N * (tr.times[k] - t0)) * (1 + 1e-9)


def test_energy_trace_rows(pairs):
    t1, t2, _ = pairs
    tr = energy_trace(bundles(t1, t2, range(1, 6)))
    rows = tr.rows()
    assert len(rows) == 5 and len(rows[0]) == 7
    assert all(r[1] > 0 for r in rows)


def test_pair_validation(pairs):
    t1, t2, _ = pairs
    g = build_grid("torus", 2, [24, 24], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    other = run(FlowState(g, m, u0), RHF,
                Schedule(t_end=0.002, dt=5e-4, diagnostics=False), HOLD)
    with pytest.raises(ValueError, match="share a grid"):
        bundle(t1, other, 1)
    with pytest.raises(ValueError, match="share snapshot times"):
        difference_bundle(geometry(t1, 1), geometry(t2, 2))


# the perturbation-scaling oracle: halving the twin's delta scales E by 1/4
# and each difference norm by 1/2, to leading order.  On the benchmark's
# uniqueness instance the worst deviations over the snapshots with t > 0 were
# 3.746e-7 (E) and 4.251e-6 (the norms, v's the largest); each bound is ten
# times its worst deviation
E_RATIO_BOUND = 3.75e-6
NORM_RATIO_BOUND = 4.25e-5


def test_energy_scales_with_the_square_of_the_perturbation(tmp_path):
    grid, idata = workloads.curved_torus(1, 3, workloads.UNIQ_RES)
    rows = []
    for delta in (workloads.UNIQ_DELTA, workloads.UNIQ_DELTA / 2):
        cfg = {"grid": grid, "initial_data": idata, "flow": {"alpha1": 2.0},
               "schedule": {"t_end": workloads.UNIQ_DT * workloads.UNIQ_STEPS,
                            "dt": workloads.UNIQ_DT, "method": "rk4", "cadence": 1},
               "uniqueness": {"delta": delta, "beta": 0.5}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / str(delta)
        _, code = run_experiment(tmp_path / "config.json", out, stages=["uniqueness"])
        assert code == 0
        with open(out / "energy.csv", newline="") as fh:
            rows.append([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
    full, half = rows
    assert len(full) == len(half) == workloads.UNIQ_STEPS
    for a, b in zip(full, half):
        assert a[0] == b[0] > 0
        assert abs(a[1] / b[1] - 4.0) <= E_RATIO_BOUND, a[0]
        for x, y in zip(a[2:], b[2:]):
            assert abs(x / y - 2.0) <= NORM_RATIO_BOUND, a[0]
