#!/usr/bin/env python3
# Residual verification of the evolution identities along the coupled flow.
#
# For a heat-operator identity  d/dt Q = Lap Q + RHS  the residual is formed
# from centered snapshot differences in time and Gamma-corrected stencils in
# space.  Refining (h, dt) -> (h/2, dt/4) must shrink the max residual at
# second order; a sign-flipped right side (negative control) must not.
# Each level reads its residuals while it runs, on the geometries its steps
# built for the three snapshots around t = 0.012.
#
# Run: python3 demo_identity_convergence.py

import numpy as np

from rlab.flow import FlowParams, FlowState, Schedule, run
from rlab.identities import (APPENDIX_A_IDS, evaluate_identity,
                             refinement_order, verify_lemma_52)
from rlab.instances import random_instance, verification_initial_data
from rlab.mesh import build_grid

LEVELS = ((16, 2e-3), (32, 5e-4), (64, 1.25e-4))
T_END, T_EVAL = 0.016, 0.012


def window_reader(k):
    # a reader for flow.run: it holds snapshots k - 1, k and k + 1 and, at
    # k + 1, returns every report and its negative control on that window
    window = []

    def read(traj, geo):
        if k - 1 <= traj.nsnapshots - 1 <= k + 1:
            window.append(geo)
            if len(window) == 3:
                return {ident: [evaluate_identity(window, ident, traj.dt, mutate=m)
                                for m in (False, True)] for ident in APPENDIX_A_IDS}

    return read


reports = {}
for res, dt in LEVELS:
    grid = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    metric, u0 = verification_initial_data(grid)
    traj = run(FlowState(grid, metric, u0), FlowParams(2.0),
               Schedule(t_end=T_END, dt=dt, cadence=1, diagnostics=False),
               {"residuals": window_reader(int(round(T_EVAL / dt)))})
    reports[res] = traj.read["residuals"][0]

print(f"{'identity':9s} {'res 16':>10s} {'res 32':>10s} {'res 64':>10s} {'order':>6s} {'mutated':>10s}")
for ident in APPENDIX_A_IDS:
    seq = [reports[r][ident][0] for r, _ in LEVELS]
    bad = reports[64][ident][1]
    order = refinement_order(seq)
    print(f"{ident:9s} {seq[0].max_res:10.3e} {seq[1].max_res:10.3e} "
          f"{seq[2].max_res:10.3e} {order:6.2f} {bad.max_res:10.3e}")

print("\nstatic relations between the weighted-connection curvature and the")
print("coupled curvature on a random T^3 instance (two derivation paths):")
for res in (8, 12, 16):
    _, m, u = random_instance(3, res, seed=101)
    reps = {r.identity: r.max_res for r in verify_lemma_52(m, u)}
    row = "  ".join(f"{k}:{v:.1e}" for k, v in reps.items())
    print(f" res {res:2d}: {row}")
