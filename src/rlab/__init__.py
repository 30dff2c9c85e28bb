"""rlab: a numerical laboratory for the harmonic-map coupled Ricci flow,
its (a1, 0, b1, b2) generalization, the associated curvature/entropy
quantities, and the identity/comparison/uniqueness verification suites.
"""

__version__ = "0.1.0"

import os as _os

# RLAB_THREADS caps the numerical thread pools; the pools read these
# variables when numpy first loads, which the imports below trigger.
if _os.environ.get("RLAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["RLAB_THREADS"])

from .mesh import (Grid, MetricField, SPDError, build_grid, flat_metric,
                   integrate, interior)
from .tensor import Geometry, curvature
from .flow import (BlowUpError, FlowParams, FlowState, Schedule, Trajectory,
                   cfl_dt, flow_rhs, is_regular, run, step)

__all__ = [
    "Grid", "MetricField", "SPDError",
    "build_grid", "flat_metric", "integrate", "interior",
    "Geometry", "curvature",
    "FlowParams", "FlowState", "Schedule", "Trajectory", "BlowUpError",
    "cfl_dt", "flow_rhs", "is_regular", "run", "step",
    "__version__",
]
