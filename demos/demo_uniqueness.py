#!/usr/bin/env python3
# Forward-uniqueness diagnostics: evolve two nearby initial data sets under
# the coupled flow, build the ten difference tensors, and track the weighted
# energy
#   E(t) = int [ t^-1 |h|^2 + t^-beta |A|^2 + |T|^2 + |v|^2 + |w|^2 ] dV.
# Identical data give E = 0 to the last bit; delta-perturbed data give
# E = O(delta^2) with an amplitude-independent exponential rate.  The two
# flows step in lockstep (flow.snapshots), and each pair of snapshots is read
# on the geometries the steps built, so neither trajectory is kept.
#
# Run: python3 demo_uniqueness.py

from itertools import islice

import numpy as np

from rlab.flow import FlowParams, FlowState, Schedule, snapshots
from rlab.instances import verification_initial_data
from rlab.mesh import MetricField, build_grid
from rlab.snapshots import write_energy_csv
from rlab.uniqueness import difference_bundle, energy_trace, gronwall_fit

grid = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
metric, u0 = verification_initial_data(grid)
sched = Schedule(t_end=0.02, dt=5e-4, cadence=1, diagnostics=False)


def bundles(twin_metric, start=1):
    # the difference bundles of the base flow and a twin from twin_metric,
    # one pair of snapshots at a time, from snapshot ``start`` on
    base = snapshots(FlowState(grid, metric, u0), FlowParams(2.0), sched)
    twin = snapshots(FlowState(grid, twin_metric, u0), FlowParams(2.0), sched)
    pairs = islice(zip(base, twin), start, None)
    return (difference_bundle(g1, g2) for (_, g1), (_, g2) in pairs)


def perturbed(delta):
    pm = metric.values.copy()
    pm[0, 0] = pm[0, 0] + delta * np.sin(grid.coords()[1])
    return MetricField(grid, pm)


b = next(bundles(metric, 5))
print("identical initial data: every difference tensor is exactly zero ->",
      all(not np.any(getattr(b, k)) for k in
          ("h", "A", "B", "T", "U", "v", "w", "x", "y", "z")))
print("  (gronwall outcome:", gronwall_fit(energy_trace(bundles(metric)))["outcome"] + ")")

tr1 = energy_trace(bundles(perturbed(1e-3)))
tr2 = energy_trace(bundles(perturbed(5e-4)))
k = len(tr1.values) // 2
print(f"\ndelta-perturbed pairs: E(t mid) at delta=1e-3 over delta=5e-4 = "
      f"{tr1.values[k] / tr2.values[k]:.4f}  (O(delta^2) -> 4)")
half = len(tr1.times) // 2
f1 = gronwall_fit(tr1, window=slice(half, None))
f2 = gronwall_fit(tr2, window=slice(half, None))
print(f"fitted exponential rates: N = {f1['N']:.2f} and {f2['N']:.2f} "
      f"(amplitude-independent within {abs(f1['N'] - f2['N']) / abs(f1['N']):.1%})")
print(f"difference-tensor consistency (y vs nabla w - A * du): "
      f"{np.abs(next(bundles(perturbed(1e-3), 10)).eq69_residual()).max():.2e}")

write_energy_csv("energy.csv", tr1)
print("wrote energy.csv")
