#!/usr/bin/env python3
"""Calibrate per-identity residual constants on the 16-grid baseline and
freeze them, together with the randomized-instance seeds and the
summation-by-parts arbitration of the Lie-derivative integral identity,
into tests/manifest.json.

Run once; the manifest is committed.  Thresholds are
    max_res <= C_id * (h^2 + dt^2)
with C_id = 1.5 * (baseline residual) / (h16^2 + dt16^2); the refinement
order, not the absolute level, is the primary pass criterion.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlab.comparison import yano_oracle_factor
from rlab.flow import FlowParams, FlowState, Schedule, run
from rlab.identities import (APPENDIX_A_IDS, APPENDIX_C_IDS, LEMMA31_IDS,
                             evaluate_identity, verify_lemma_52)
from rlab.instances import random_instance, verification_initial_data
from rlab.mesh import MetricField, build_grid, flat_metric
from rlab.uniqueness import difference_bundle

BASE_RES = 16
BASE_DT = 2e-3
T_END = 0.016
T_EVAL = 0.012
SAFETY = 1.5

grid = build_grid("torus", 2, [BASE_RES] * 2, [2 * np.pi] * 2)
metric, u0 = verification_initial_data(grid)
sched = Schedule(t_end=T_END, dt=BASE_DT, cadence=1, diagnostics=False)
k = int(round(T_EVAL / BASE_DT))
h2dt2 = max(grid.spacing) ** 2 + BASE_DT ** 2

c_id = {}


def window(m, params):
    """The geometries the flow's steps built for snapshots k - 1, k and k + 1,
    read while it runs."""
    held = []

    def read(traj, geo):
        if k - 1 <= traj.nsnapshots - 1 <= k + 1:
            held.append(geo)
            return tuple(held) if len(held) == 3 else None

    return run(FlowState(grid, m, u0), params, sched, {"window": read}).read["window"][0]


frames_rhf = window(metric, FlowParams(2.0))
for ident in APPENDIX_A_IDS + ("A.12", "A.13"):
    rep = evaluate_identity(frames_rhf, ident, BASE_DT)
    c_id[ident] = round(SAFETY * rep.max_res / h2dt2, 6)

rep = evaluate_identity(frames_rhf, "A.11", BASE_DT, c_id=1.0)
c_id["A.11"] = round(SAFETY * rep.max_res / rep.bound, 6)

frames_gen = window(metric, FlowParams(1.0, 0.0, 0.5, -0.3))
for ident in APPENDIX_C_IDS + LEMMA31_IDS:
    rep = evaluate_identity(frames_gen, ident, BASE_DT)
    c_id[ident] = round(SAFETY * rep.max_res / h2dt2, 6)

g52, m52, u52 = random_instance(3, 8, seed=101)
for rep in verify_lemma_52(m52, u52):
    c_ref = SAFETY * rep.max_res / max(g52.spacing) ** 2
    c_id[rep.identity] = round(max(c_ref, 1e-9), 9)

# difference-tensor identities on a curved perturbed pair
pm = metric.values.copy()
pm[0, 0] = pm[0, 0] + 1e-3 * np.sin(grid.coords()[1])
bundles = tuple(map(difference_bundle, frames_rhf,
                    window(MetricField(grid, pm), FlowParams(2.0))))
for ident in ("6.50", "6.51"):
    rep = evaluate_identity(bundles, ident, BASE_DT)
    c_id[ident] = round(SAFETY * rep.max_res / h2dt2, 9)
rep = evaluate_identity(bundles, "6.53", BASE_DT, c_id=1.0)
c_id["6.53"] = round(SAFETY * rep.max_res / rep.bound, 6)

# Lie-derivative integral-identity normalization, decided on an 8x8 grid
g8 = build_grid("torus", 2, [8, 8], [2 * np.pi] * 2)
X8 = np.zeros((2,) + g8.shape)
X8[0] = np.sin(g8.coords()[0])
factor = yano_oracle_factor(flat_metric(g8), X8)

manifest = {
    "baseline": {"resolution": BASE_RES, "dt": BASE_DT, "t_end": T_END,
                 "t_eval": T_EVAL, "safety": SAFETY},
    "c_id": c_id,
    "yano_lhs_factor": factor,
    "seeds": {
        "lemma52": [101 + i for i in range(10)],
        "comparison": [201 + i for i in range(20)],
        "entropy": [301 + i for i in range(20)],
        "property": 4242,
    },
}

out = Path(__file__).resolve().parents[1] / "tests" / "manifest.json"
out.parent.mkdir(exist_ok=True)
out.write_text(json.dumps(manifest, indent=1, sort_keys=True))
print(f"wrote {out}")
print(json.dumps(manifest["c_id"], indent=1, sort_keys=True))
