import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rlab
from rlab.flow import FlowParams, FlowState, Schedule, _geometry, run
from rlab.identities import evaluate_identity
from rlab.instances import verification_initial_data
from rlab.mesh import build_grid
from rlab.uniqueness import difference_bundle

MANIFEST_PATH = Path(__file__).parent / "manifest.json"
SRC = str(Path(rlab.__file__).resolve().parents[1])

# the benchmark's configs (perfbench/workloads.py), loaded from their file
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

RHF = FlowParams(2.0)
GENERAL = FlowParams(1.0, 0.0, 0.5, -0.3)

# coupled refinement family: dt scales like h^2
LEVELS = ((16, 2e-3), (32, 5e-4), (64, 1.25e-4))
T_END = 0.016
T_EVAL = 0.012


@pytest.fixture(scope="session")
def manifest():
    return json.loads(MANIFEST_PATH.read_text())


# run's reader that returns every snapshot's state: run(..., HOLD).read["states"]
HOLD = {"states": lambda traj, geo: traj.last}


def geometry(traj, k):
    """A fresh Geometry of snapshot k of a run made with ``HOLD``."""
    return _geometry(traj.read["states"][k], traj.params)


def bundle(t1, t2, k):
    return difference_bundle(geometry(t1, k), geometry(t2, k))


def bundles(t1, t2, indices=None):
    """The DiffBundles of two runs made with ``HOLD``, one at a time, at
    ``indices`` (default: every snapshot after the first)."""
    return (bundle(t1, t2, k) for k in (range(1, t1.nsnapshots) if indices is None
                                        else indices))


def frames(traj, k, other=None):
    """Fresh Geometries of snapshots k - 1, k and k + 1 of a run made with
    ``HOLD``, or, with ``other``, the DiffBundles of the two runs' snapshots."""
    return tuple(geometry(traj, j) if other is None else bundle(traj, other, j)
                 for j in (k - 1, k, k + 1))


def evaluate(traj, ident_id, k, other=None, **kwargs):
    """``evaluate_identity`` at snapshot k of a run made with ``HOLD``."""
    return evaluate_identity(frames(traj, k, other), ident_id, traj.dt, **kwargs)


def make_verification_run(res, dt, params, t_end=T_END, diagnostics=False):
    grid = build_grid("torus", 2, [res, res], [2 * np.pi] * 2)
    metric, u0 = verification_initial_data(grid)
    sched = Schedule(t_end=t_end, dt=dt, cadence=1, diagnostics=diagnostics)
    return run(FlowState(grid, metric, u0), params, sched, HOLD)


def eval_index(traj):
    return int(round(T_EVAL / traj.dt))


@pytest.fixture(scope="session")
def rhf_runs():
    return {res: make_verification_run(res, dt, RHF) for res, dt in LEVELS}


@pytest.fixture(scope="session")
def general_runs():
    return {res: make_verification_run(res, dt, GENERAL) for res, dt in LEVELS}


@pytest.fixture(scope="session")
def rhf_run_16(rhf_runs):
    return rhf_runs[16]


def run_cli(args):
    """``python -m rlab.cli *args`` in a child that imports rlab from this
    checkout, installed or not."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "rlab.cli", *args],
                          capture_output=True, text=True, env=env)
