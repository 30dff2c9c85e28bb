#!/usr/bin/env python3
"""Write this checkout's benchmark record to ``BENCH_<LABEL>.json`` at its root.

    python3 scripts/bench_file.py LABEL

The file holds the JSON line of ``scripts/time_layers.py``; per workload,
the result line of ``perfbench/run.py --workload W --seed 1 --seconds 25
--trace 0``, run unedited as a subprocess; the wall time and summary line
of the Tier-1 command (``python -m pytest -q --continue-on-collection-errors``
with ``src`` on ``PYTHONPATH``); and the machine: the git revision (the
commit, and on a tree with uncommitted changes ``-dirty-`` and a digest of
``git diff HEAD``; None outside a git checkout), ``nproc``, the Python, numpy and glibc versions,
rlab's tool version, and whether ``src/rlab/__pycache__`` existed when the
script started.  Every child runs with ``PYTHONDONTWRITEBYTECODE=1``, so
none writes bytecode and that flag holds for every figure, and with one
thread per BLAS/OpenMP pool, as ``perfbench/run.py`` runs its rounds.  It
takes a few minutes; run it on an otherwise idle machine, and compare two
files made in the same session.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PYCACHE = (ROOT / "src" / "rlab" / "__pycache__").is_dir()     # before rlab loads
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

from rlab.cli import TOOL_VERSION

WORKLOADS = ("flow4d", "entropy", "verify")
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
       **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "RLAB_THREADS")}}


def last_line(args):
    """The last stdout line of ``args`` run at the root; a failure raises."""
    out = subprocess.run(args, cwd=ROOT, env=ENV, capture_output=True, text=True,
                         check=True).stdout
    return out.strip().splitlines()[-1]


def tier1():
    """(wall seconds, summary line) of the Tier-1 command."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "--continue-on-collection-errors"], cwd=ROOT,
                       env={**ENV, "PYTHONPATH": path}, capture_output=True, text=True)
    return round(time.perf_counter() - t0, 2), r.stdout.strip().splitlines()[-1]


def revision():
    """The commit, with a digest of ``git diff HEAD`` after ``-dirty`` on a
    tree that differs from it; None outside a git checkout."""
    try:
        rev = last_line(["git", "describe", "--always", "--dirty", "--abbrev=7"])
        if rev.endswith("-dirty"):
            diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, capture_output=True,
                                  check=True).stdout
            rev += "-" + hashlib.sha256(diff).hexdigest()[:12]
        return rev
    except (OSError, subprocess.CalledProcessError):
        return None


def main(label):
    record = {
        "label": label, "revision": revision(), "tool_version": TOOL_VERSION,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "glibc": platform.libc_ver()[1] if platform.libc_ver()[0] == "glibc" else None,
        "src_rlab_pycache": PYCACHE,
        "layers": json.loads(last_line([sys.executable, "-B", "scripts/time_layers.py"])),
        "workloads": {w: json.loads(last_line(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
             "--seconds", "25", "--trace", "0"])) for w in WORKLOADS},
    }
    record["tier1_wall_s"], record["tier1_summary"] = tier1()
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
