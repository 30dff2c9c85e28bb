#!/usr/bin/env python3
# The entropy functional and its constrained minimum mu(g, u, tau).
#
# Along the coupled flow with tau(t) = tau0 - t the minimum is monotone
# nondecreasing; it always sits below the explicit average-curvature bound,
# and it is invariant under the simultaneous scaling (g, tau) -> (c g, c tau).
#
# Run: python3 demo_entropy.py

import numpy as np

from rlab.flow import FlowParams, FlowState, Schedule, run
from rlab.functionals import OptimizerOpts, mu_minimize, w_entropy
from rlab.instances import verification_initial_data
from rlab.mesh import build_grid, flat_metric
from rlab.snapshots import write_entropy_csv
from rlab.tensor import Geometry

grid = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)

# sanity anchor: on the flat torus the constant normalized test function
# evaluates to ln(Vol) - ln(4 pi tau) - n, here ln(pi) - 2
m0 = flat_metric(grid)
f_const = np.full(grid.shape, np.log(4 * np.pi ** 2 / (4 * np.pi)))
print(f"flat-torus constant test function: {w_entropy(m0, np.zeros(grid.shape), f_const, 1.0):+.6f}"
      f"   (ln pi - 2 = {np.log(np.pi) - 2:+.6f})")

metric, u0 = verification_initial_data(grid)
opts = OptimizerOpts(tol=1e-10, max_iter=10_000)
tau0 = 1.0
prev = None


def read(traj, f):
    # a reader for flow.run: mu at 11 evenly spaced snapshots, on the geometry
    # the step built, warm-started from the sample before
    global prev
    if traj.nsnapshots - 1 in np.linspace(0, traj.nsnap - 1, 11).astype(int):
        rep = mu_minimize(f, tau0 - f.t, opts, warm_start=prev)
        prev = rep.w
        return (f.t, tau0 - f.t, rep.mu, rep.upper_bound, rep.norm_defect,
                rep.iterations)


print(f"\n{'t':>6s} {'tau':>6s} {'mu':>12s} {'bound':>12s} {'iters':>7s}")
rows = run(FlowState(grid, metric, u0), FlowParams(2.0),
           Schedule(t_end=0.2, dt=2e-3, diagnostics=False), {"mu": read}).read["mu"]
for t, tau, mu, bound, _, iters in rows:
    print(f"{t:6.3f} {tau:6.3f} {mu:12.8f} {bound:12.8f} {iters:7d}")

mus = [r[2] for r in rows]
print(f"\nsmallest forward step of mu: {np.min(np.diff(mus)):+.3e}  (nonnegative = monotone)")

c = 1.7
r1 = mu_minimize(Geometry(metric, u0), 1.0, opts)
r2 = mu_minimize(Geometry(metric.scaled(c), u0), c, opts)
print(f"scaling invariance: |mu(c g, c) - mu(g, 1)| = {abs(r1.mu - r2.mu):.2e}")

write_entropy_csv("entropy.csv", rows)
print("wrote entropy.csv")
