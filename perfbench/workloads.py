"""Seeded inputs for the three workloads.

Every config is a plain rlab JSON config, made only from ``--seed``; the
program receives the files and nothing else.  A workload is a list of
``(label, config, stages)`` calls, all made in one process through
``rlab.cli.run_experiment``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# flow4d: a curved 4-D torus at 12^4, rk4 at a fixed dt well under the CFL
# bound (about 8.6e-3 here), diagnostics on.
FLOW4D_RES = 12
FLOW4D_DT = 4e-3
FLOW4D_STEPS = 2

# entropy: a curved 3-D torus; mu is minimized with warm starts at samples
# along a short flow.
ENTROPY_RES = 16
ENTROPY_DT = 2e-3
ENTROPY_STEPS = 10
ENTROPY_SAMPLES = 6
ENTROPY_TAU0 = 1.0

# verify: the Appendix A registry plus one negative control on the canonical
# 2-D verification instance (16/32/64, dt ~ h^2, as in acceptance criterion
# 1).  These inputs are fixed, not seeded: the stage's gate rejects A.10 on
# them every time (a counted fault), and a seeded instance could move its
# order into the gate's band on some seeds.
VERIFY_IDS = ["A.2", "A.3", "A.4", "A.5", "A.6", "A.7", "A.8", "A.9", "A.10",
              "A.8:negctl"]
VERIFY_LEVELS = [16, 32, 64]
VERIFY_DT = 2e-3
VERIFY_T_END = 0.016
VERIFY_METRIC = {
    "0,0": [{"amp": 0.10, "wave": [1, 0]},
            {"amp": 0.05, "wave": [0, 1], "kind": "cos"}],
    "1,1": [{"amp": 0.08, "wave": [1, 1]}],
    "0,1": [{"amp": 0.04, "wave": [0, 1]}],
}
VERIFY_U = [{"amp": 0.25, "wave": [1, 0]},
            {"amp": 0.12, "wave": [0, 1], "kind": "cos"}]

# verify: two trajectories on a seeded 3-D torus for the uniqueness stage
UNIQ_RES = 10
UNIQ_DT = 4e-3
UNIQ_STEPS = 8
UNIQ_DELTA = 1e-3

# verify: seeded random instances for the comparison stage
COMPARE_RES = 12
COMPARE_INSTANCES = 3

WORKLOADS = ("flow4d", "entropy", "verify")


def _wave(rng, n, require_axis=None):
    """A nonzero integer wave vector in {-1, 0, 1}^n."""
    while True:
        w = [int(k) for k in rng.integers(-1, 2, size=n)]
        if any(w) and (require_axis is None
                       or any(w[a] for a in range(n) if a != require_axis)):
            return w


def _terms(shape, phase, n, count, lo, hi, require_axis=None):
    return [{"amp": float(shape.uniform(lo, hi)) * float(shape.choice([-1.0, 1.0])),
             "wave": _wave(shape, n, require_axis),
             "kind": str(shape.choice(["sin", "cos"])),
             "phase": float(phase.uniform(0.0, TWO_PI))}
            for _ in range(count)]


def curved_torus(seed, n, res, amp=0.08):
    """grid and initial_data sections of a near-flat curved torus.

    Every diagonal component and the (0,1) component get trig terms.  Their
    wave vectors and amplitudes are fixed per dimension; the seed draws the
    phases, so every seed poses a problem of the same size and conditioning
    (the entropy optimizer's iteration count depends on both).  The g_00
    terms always vary along some axis other than x^0, so the uniqueness
    stage's delta sin(x^0) perturbation of g_00 is not a reparametrization.
    """
    shape = np.random.default_rng(n)
    phase = np.random.default_rng([seed, n])
    comps = {f"{i},{i}": _terms(shape, phase, n, 2, 0.5 * amp, amp,
                                require_axis=0 if i == 0 else None)
             for i in range(n)}
    comps["0,1"] = _terms(shape, phase, n, 1, 0.25 * amp, 0.5 * amp)
    return ({"kind": "torus", "n": n, "resolutions": [res] * n,
             "extents": [TWO_PI] * n},
            {"metric": {"family": "perturbed", "components": comps},
             "u_terms": _terms(shape, phase, n, 2, 0.1, 0.25)})


def _schedule(dt, steps):
    return {"t_end": dt * steps, "dt": dt, "method": "rk4", "cadence": 1}


def calls(workload: str, seed: int):
    """The (label, config, stages) calls of one round of ``workload``."""
    if workload == "flow4d":
        grid, idata = curved_torus(seed, 4, FLOW4D_RES)
        cfg = {"grid": grid, "initial_data": idata, "flow": {"alpha1": 2.0},
               "schedule": _schedule(FLOW4D_DT, FLOW4D_STEPS), "seed": seed}
        return [("run", cfg, None)]
    if workload == "entropy":
        grid, idata = curved_torus(seed, 3, ENTROPY_RES)
        cfg = {"grid": grid, "initial_data": idata, "flow": {"alpha1": 2.0},
               "schedule": _schedule(ENTROPY_DT, ENTROPY_STEPS),
               "entropy": {"tau0": ENTROPY_TAU0, "samples": ENTROPY_SAMPLES},
               "seed": seed}
        return [("entropy", cfg, ["entropy"])]
    if workload == "verify":
        vcfg = {"grid": {"kind": "torus", "n": 2,
                         "resolutions": [VERIFY_LEVELS[0]] * 2,
                         "extents": [TWO_PI] * 2},
                "initial_data": {"metric": {"family": "perturbed",
                                            "components": VERIFY_METRIC},
                                 "u_terms": VERIFY_U},
                "flow": {"alpha1": 2.0},
                "schedule": _schedule(VERIFY_DT, round(VERIFY_T_END / VERIFY_DT)),
                "verify": {"identities": VERIFY_IDS,
                           "resolutions": VERIFY_LEVELS, "t_eval_frac": 0.75}}
        grid, idata = curved_torus(seed, 3, UNIQ_RES)
        ucfg = {"grid": grid, "initial_data": idata, "flow": {"alpha1": 2.0},
                "schedule": _schedule(UNIQ_DT, UNIQ_STEPS),
                "uniqueness": {"delta": UNIQ_DELTA, "beta": 0.5},
                "seed": seed}
        ccfg = {"grid": {"kind": "torus", "n": 3,
                         "resolutions": [COMPARE_RES] * 3,
                         "extents": [TWO_PI] * 3},
                "compare": {"instances": COMPARE_INSTANCES},
                "seed": seed}
        return [("verify", vcfg, ["verify"]),
                ("uniqueness", ucfg, ["uniqueness"]),
                ("compare", ccfg, ["compare"])]
    raise ValueError(f"unknown workload {workload!r}")
