"""rlab: a numerical laboratory for the harmonic-map coupled Ricci flow,
its (a1, 0, b1, b2) generalization, the associated curvature/entropy
quantities, and the identity/comparison/uniqueness verification suites.

Importing rlab on glibc fixes malloc's mmap threshold at 32 MiB and its trim
threshold at 256 MiB (mallopt(3)): each rk4 stage frees tens of MB of
Gamma, R_AB and slope arrays that the next stage allocates again, and
glibc's default policy would hand them back to the kernel, so the next
stage would fault every page in anew.  A process whose environment sets
MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_, MALLOC_TOP_PAD_ or a
glibc.malloc tunable in GLIBC_TUNABLES keeps its own policy; any other
process that imports rlab, a host application included, runs under rlab's.
"""

__version__ = "0.1.0"

import os as _os

# RLAB_THREADS caps the numerical thread pools; the pools read these
# variables when numpy first loads, which the imports below trigger.
if _os.environ.get("RLAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["RLAB_THREADS"])

if not (any(_v in _os.environ for _v in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                                          "MALLOC_TOP_PAD_"))
        or "glibc.malloc." in _os.environ.get("GLIBC_TUNABLES", "")):
    try:
        if _os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            import ctypes as _ctypes
            _libc = _ctypes.CDLL(None)
            _libc.mallopt(-3, 32 << 20)      # M_MMAP_THRESHOLD, the 64-bit maximum
            _libc.mallopt(-1, 256 << 20)     # M_TRIM_THRESHOLD
    except (AttributeError, ValueError, OSError):   # no confstr or no such name: not glibc
        pass

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
