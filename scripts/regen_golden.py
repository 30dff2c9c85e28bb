#!/usr/bin/env python3
"""Record the benchmark workloads' outputs as the golden files of Tier-1.

    python3 scripts/regen_golden.py

For each workload of ``perfbench/workloads.py``, at seed 1, this writes
``tests/golden/<workload>/``: the config of each call as ``<label>.json``,
and ``golden.json``, which holds

- ``fingerprint``: the numpy version and ``platform.machine()`` it was
  recorded with;
- ``calls``: each call's label and stages, in order;
- ``files``: per output file, its SHA-256, its values and the tolerance
  within which ``tests/test_golden.py`` compares them on another fingerprint.

The values are the rows of a CSV file, the content of a JSON file, and the
sum and the sum of squares of g and of u in ``checkpoint.rlab``.  This
script is the only writer of ``tests/golden/``; rerun it only to change an
output on purpose.  ``tests/test_golden.py`` runs the calls and reads the
files with ``run_calls`` and ``record`` from here, so what is recorded is
what is compared.
"""

import csv
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rlab.cli import run_experiment
from rlab.snapshots import read_snapshot

GOLDEN = ROOT / "tests" / "golden"
SEED = 1
# (rtol, atol) per output file name; the entropy optimizer stops within its
# tol, so another machine's rounding may move mu by more than a flow's
DEFAULT_TOLERANCE = (1e-9, 1e-12)
TOLERANCES = {"entropy.csv": (1e-6, 1e-9)}


def fingerprint() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def run_calls(wdir: Path, calls, out: Path) -> dict:
    """Run each ``(label, stages)`` call on ``wdir/<label>.json`` into
    ``out/<label>``; {path relative to ``out``: path} of every file written."""
    for label, stages in calls:
        run_experiment(wdir / f"{label}.json", out / label, stages=stages)
    return {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*")) if p.is_file()}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def record(path: Path) -> dict:
    """The SHA-256 and the values of one output file."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            values = [[_cell(c) for c in row] for row in csv.reader(fh)]
    elif path.suffix == ".json":
        values = json.loads(path.read_text())
    else:                       # a checkpoint
        fields = read_snapshot(path)[1]
        values = {name: {"sum": float(np.sum(fields[name][0])),
                         "sum_sq": float(np.sum(fields[name][0] ** 2))}
                  for name in ("g", "u")}
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "values": values}


def main():
    import tempfile
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        wdir = GOLDEN / workload
        wdir.mkdir(parents=True, exist_ok=True)
        calls = workloads.calls(workload, SEED)
        for label, cfg, _ in calls:
            (wdir / f"{label}.json").write_text(json.dumps(cfg, indent=1) + "\n")
        calls = [[label, stages] for label, _, stages in calls]
        with tempfile.TemporaryDirectory() as tmp:
            files = run_calls(wdir, calls, Path(tmp))
            entries = {}
            for name, path in files.items():
                rtol, atol = TOLERANCES.get(path.name, DEFAULT_TOLERANCE)
                entries[name] = {**record(path), "tolerance": {"rtol": rtol, "atol": atol}}
        golden = {"fingerprint": fingerprint(), "seed": SEED, "calls": calls,
                  "files": entries}
        (wdir / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
        print(f"{workload}: {len(entries)} files")


if __name__ == "__main__":
    main()
