"""Golden outputs: the benchmark workloads' configs, run in process, write
the files recorded in ``tests/golden/`` by ``scripts/regen_golden.py``.

On the numpy version and machine they were recorded with, every file must
match its SHA-256; everywhere, every value must match within the tolerance
its golden entry records.  A change that means to move an output reruns
the script and says which files moved, and by how much.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
WORKLOADS = ("flow4d", "entropy", "verify")

_spec = importlib.util.spec_from_file_location("regen_golden",
                                               ROOT / "scripts" / "regen_golden.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def mismatches(got, want, rtol, atol, where=""):
    """Where ``got`` differs from ``want``: a number by more than
    atol + rtol |want|, anything else (a string, a bool, a key, a length) at all."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], rtol, atol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} is not a list of {len(want)}"]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, rtol, atol, f"{where}[{k}]")]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (got, want))
    if numbers and abs(got - want) <= atol + rtol * abs(want):
        return []
    return [] if not numbers and got == want and type(got) is type(want) \
        else [f"{where}: {got!r}, golden {want!r}"]


@pytest.fixture(scope="module", params=WORKLOADS)
def outputs(request, tmp_path_factory):
    """(golden record, {name: path} of the files written now) of a workload."""
    golden = json.loads((GOLDEN / request.param / "golden.json").read_text())
    out = tmp_path_factory.mktemp(request.param)
    return golden, regen.run_calls(GOLDEN / request.param, golden["calls"], out)


def test_golden_files_are_written(outputs):
    golden, files = outputs
    assert sorted(files) == sorted(golden["files"])


def test_golden_outputs(outputs):
    # digests on the recorded fingerprint; values within tolerance always,
    # which is all another numpy or machine, rounding differently, is held to
    golden, files = outputs
    if golden["fingerprint"] == regen.fingerprint():
        changed = [name for name, entry in golden["files"].items()
                   if regen.record(files[name])["sha256"] != entry["sha256"]]
        assert not changed, changed
    found = [m for name, entry in golden["files"].items()
             for m in mismatches(regen.record(files[name])["values"], entry["values"],
                                 where=name, **entry["tolerance"])]
    assert not found, found


def test_value_comparison_sees_a_change_beyond_tolerance():
    # the comparison other fingerprints rely on flags every golden number
    # moved by ten times its tolerance, every flipped bool and changed string
    def moved(v, rtol, atol):
        if isinstance(v, dict):
            return {k: moved(x, rtol, atol) for k, x in v.items()}
        if isinstance(v, list):
            return [moved(x, rtol, atol) for x in v]
        if isinstance(v, bool):
            return not v
        if isinstance(v, (int, float)):
            return v + 10 * (atol + rtol * abs(v))
        return v + "~"

    def leaves(v):
        if isinstance(v, (dict, list)):
            return sum(leaves(x) for x in (v.values() if isinstance(v, dict) else v))
        return 1

    for workload in WORKLOADS:
        golden = json.loads((GOLDEN / workload / "golden.json").read_text())
        for name, entry in golden["files"].items():
            tol, values = entry["tolerance"], entry["values"]
            assert not mismatches(values, values, **tol)
            assert len(mismatches(moved(values, **tol), values, **tol)) == leaves(values), name
