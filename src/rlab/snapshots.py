"""Binary snapshot files, checkpoints, CSV emitters, and report files.

Snapshot format (version 2): the magic string "RLAB1", a little-endian
uint32 header length, a UTF-8 JSON header with the grid descriptor, the
field names in record order and an optional payload (flow parameters /
schedule for checkpoints), then per field: uint16 name length, name bytes,
uint8 contravariant rank, uint8 covariant rank, uint8 symmetry code, uint32
component count, and the row-major component data as IEEE-754 doubles,
little-endian.  Round trips are bit exact.  The header's names catch a cut
at a record boundary; version 1, which lacks them, is not read.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from .mesh import Grid, MetricField, build_grid

MAGIC = b"RLAB1"
SYMMETRY_CODES = {"none": 0, "sym2": 1, "riemann-like": 2}
SYMMETRY_NAMES = {v: k for k, v in SYMMETRY_CODES.items()}


def _field_record(name: str, arr: np.ndarray, con: int, cov: int, sym: str) -> bytes:
    name_b = name.encode("utf-8")
    data = np.ascontiguousarray(arr, dtype="<f8")
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<BBB", con, cov, SYMMETRY_CODES[sym])
    head += struct.pack("<I", data.size)
    return head + data.tobytes()


def write_snapshot(path, grid: Grid, fields: dict, extra: dict | None = None):
    """Write named fields; values may be ndarrays (covariant rank inferred
    from the shape) or MetricField."""
    blob = bytearray()
    header = {"version": 2, "grid": grid.descriptor(), "fields": list(fields)}
    if extra:
        header["extra"] = extra
    records = []
    for name, fld in fields.items():
        if isinstance(fld, MetricField):
            records.append(_field_record(name, fld.values, 0, 2, "sym2"))
        else:
            arr = np.asarray(fld)
            rank = arr.ndim - grid.n
            records.append(_field_record(name, arr, 0, rank, "none"))
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    blob += MAGIC
    blob += struct.pack("<I", len(hjson))
    blob += hjson
    for r in records:
        blob += r
    Path(path).write_bytes(bytes(blob))


def read_snapshot(path):
    """Returns (grid, {name: (array, con, cov, symmetry)}, extra).

    A file that is not a whole version-2 snapshot (truncated, unknown version,
    a field of the header missing, malformed record, trailing bytes) raises
    ``ValueError`` naming the cause."""
    raw = Path(path).read_bytes()
    if raw[:5] != MAGIC:
        raise ValueError("not a snapshot file (bad magic)")
    if len(raw) < 9:
        raise ValueError("snapshot truncated in the header length")
    (hlen,) = struct.unpack_from("<I", raw, 5)
    off = 9 + hlen
    if off > len(raw):
        raise ValueError(f"snapshot truncated in the header: {hlen} bytes "
                         f"declared, {len(raw) - 9} present")
    try:
        header = json.loads(raw[9:off].decode("utf-8"))
        version = header["version"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"snapshot header is not valid: {exc!r}") from None
    if type(version) is not int or version != 2:
        raise ValueError(f"unsupported snapshot version {version!r} (expected 2)")
    try:
        gd = header["grid"]
        grid = build_grid(gd["kind"], gd["n"], gd["shape"], gd["extents"])
        names = [str(name) for name in header["fields"]]
    except (TypeError, KeyError) as exc:
        raise ValueError("snapshot header has no valid grid or field list: "
                         f"{exc!r}") from None
    fields = {}
    for expected in names:
        start = off
        if off == len(raw):
            raise ValueError(f"snapshot truncated: field {expected!r} missing")
        if off + 2 > len(raw):
            raise ValueError(f"field record at byte {start} truncated in its length")
        (nlen,) = struct.unpack_from("<H", raw, off)
        off += 2 + nlen
        if off + 7 > len(raw):
            raise ValueError(f"field record at byte {start} truncated in its head")
        try:
            name = raw[start + 2:off].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"field record at byte {start}: name is not UTF-8") from None
        if name != expected:
            raise ValueError(f"field record at byte {start} is {name!r}, "
                             f"the header lists {expected!r}")
        con, cov, sym = struct.unpack_from("<BBB", raw, off)
        (count,) = struct.unpack_from("<I", raw, off + 3)
        off += 7
        shape = (grid.n,) * (con + cov) + grid.shape
        if sym not in SYMMETRY_NAMES:
            raise ValueError(f"field {name!r} at byte {start}: unknown symmetry code {sym}")
        if count != math.prod(shape):
            raise ValueError(f"field {name!r} at byte {start}: {count} components, "
                             f"expected {math.prod(shape)} for rank ({con},{cov})")
        if off + 8 * count > len(raw):
            raise ValueError(f"field {name!r} truncated: {8 * count} data bytes "
                             f"declared, {len(raw) - off} present")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        fields[name] = (arr.reshape(shape), con, cov, SYMMETRY_NAMES[sym])
    if off < len(raw):
        raise ValueError(f"trailing bytes at {off}: {len(raw) - off} after the last field")
    return grid, fields, header.get("extra", {})


def write_checkpoint(path, state, params, schedule):
    extra = {
        "t": state.t,
        "step_count": state.step_count,
        "params": {"alpha1": params.alpha1, "beta1": params.beta1,
                   "beta2": params.beta2},
        "schedule": {"t_end": schedule.t_end, "dt": schedule.dt,
                     "safety": schedule.safety, "cadence": schedule.cadence,
                     "method": schedule.method},
    }
    write_snapshot(path, state.grid, {"g": state.metric, "u": state.u}, extra)


def read_checkpoint(path):
    """(FlowState, FlowParams, Schedule) of a checkpoint; a snapshot that is not
    one (no g of rank (0,2) or u of rank (0,0); a payload key missing; t not a
    finite number or step_count not a non-negative int) raises ``ValueError``
    naming it."""
    from .flow import FlowParams, FlowState, Schedule
    grid, fields, extra = read_snapshot(path)
    for name, rank in (("g", (0, 2)), ("u", (0, 0))):
        if name not in fields:
            raise ValueError(f"checkpoint has no field {name!r}")
        if fields[name][1:3] != rank:
            raise ValueError(f"checkpoint field {name!r} has rank {fields[name][1:3]}, "
                             f"expected {rank}")
    def payload(section, *keys):
        entry = extra.get(section) if isinstance(extra, dict) else None
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint has no {section!r} payload")
        missing = [key for key in keys if key not in entry]
        if missing:
            raise ValueError(f"checkpoint payload {section!r} has no key {missing[0]!r}")
        return [entry[key] for key in keys]
    alpha1, beta1, beta2 = payload("params", "alpha1", "beta1", "beta2")
    params = FlowParams(alpha1, beta1=beta1, beta2=beta2)
    schedule = Schedule(*payload("schedule", "t_end", "dt", "safety", "cadence", "method"))
    for key, ok, what in (
            ("t", lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number"),
            ("step_count", lambda v: type(v) is int and v >= 0, "a non-negative int")):
        if key not in extra:
            raise ValueError(f"checkpoint payload has no key {key!r}")
        if not ok(extra[key]):
            raise ValueError(f"checkpoint payload {key!r} is {extra[key]!r}, not {what}")
    metric = MetricField(grid, fields["g"][0])
    state = FlowState(grid, metric, fields["u"][0], extra["t"], extra["step_count"])
    return state, params, schedule


# --------------------------------------------------------------------------
# CSV / JSON emitters

def _cell(v):
    """CSV text of a value: floats, numpy scalars included, as their shortest
    round-trip repr, which ``float()`` parses back exactly."""
    if isinstance(v, np.generic):
        v = v.item()
    return repr(v) if isinstance(v, float) else v


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def write_diagnostics_csv(path, trajectory):
    from .flow import DIAG_COLUMNS
    _write_csv(path, DIAG_COLUMNS, zip(*(trajectory.diagnostics[c]
                                         for c in DIAG_COLUMNS)))


def write_energy_csv(path, trace):
    _write_csv(path, ("t", "E", "h_norm", "A_norm", "T_norm", "v_norm", "w_norm"),
               trace.rows())


def write_entropy_csv(path, rows):
    """rows: iterable of (t, tau, mu, mu_upper, norm_defect, iters)."""
    _write_csv(path, ("t", "tau", "mu", "mu_upper", "norm_defect", "iters"), rows)


def write_verdicts_csv(path, verdicts):
    _write_csv(path, ("pair", "weight", "left", "right", "margin", "verdict"),
               (v.row() for v in verdicts))


def write_reports_json(path, reports):
    Path(path).write_text(json.dumps([r.to_dict() for r in reports], indent=1))
