"""Operation accounting and output checks for the three workloads.

An *operation* is one output the benchmark consumes: a stage's verdicts, a
file it must parse, an identity's gate.  It fails when the program reports
or writes something unusable.  Two faults of the program fail on every run
and are counted, not hidden:

* ``energy.csv`` (``t``, ``E``) and ``entropy.csv`` (``mu_upper``) hold
  ``np.float64(...)`` cells that ``float()`` rejects, because the writers
  call ``repr`` on numpy scalars;
* ``cli.stage_verify`` marks ``verify.A.10`` failed: that identity is exact
  in space, converges at order ~3.9 (only the dt^2 term is left), and the
  stage's gate accepts only orders in [1.7, 2.3].

A *check* compares outputs with a property the method must have, or with
a value computed here apart from the program; it never compares with a
stored copy of earlier output.  Each check is a function of parsed *facts*
that returns its problems; ``NEGATIVE`` feeds every check a deliberately
wrong copy of the facts, which it must reject.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import re
import struct

import numpy as np

import workloads

NUMPY_SCALAR = re.compile(r"^np\.float64\((.*)\)$")
KNOWN_FAULTS = {"entropy.csv": {"mu_upper"}, "energy.csv": {"t", "E"}}
TEXT_COLUMNS = {"pair", "weight", "verdict"}     # verdicts.csv


def read_csv(path):
    """(numeric columns as float lists, {column: cells float() rejects})."""
    with open(path, newline="") as fh:
        head, *body = list(csv.reader(fh))
    cols = {name: [] for name in head if name not in TEXT_COLUMNS}
    bad = {}
    for row in body:
        for name, cell in zip(head, row):
            if name in TEXT_COLUMNS:
                continue
            try:
                value = float(cell)
            except ValueError:
                bad.setdefault(name, []).append(cell)
                m = NUMPY_SCALAR.match(cell)
                value = float(m.group(1)) if m else math.nan
            cols[name].append(value)
    return cols, bad


def read_checkpoint(path):
    """(t, {name: component array}) from a version-1 snapshot file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != b"RLAB1":
        raise ValueError("bad magic")
    (hlen,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9:9 + hlen])
    shape = tuple(header["grid"]["shape"])
    n = header["grid"]["n"]
    off, fields = 9 + hlen, {}
    while off < len(raw):
        (nlen,) = struct.unpack_from("<H", raw, off)
        name = raw[off + 2:off + 2 + nlen].decode()
        off += 2 + nlen
        con, cov, _ = struct.unpack_from("<BBB", raw, off)
        (count,) = struct.unpack_from("<I", raw, off + 3)
        off += 7
        arr = np.frombuffer(raw, "<f8", count, off)
        fields[name] = arr.reshape((n,) * (con + cov) + shape)
        off += 8 * count
    return header["extra"]["t"], fields


def min_eigenvalue(g):
    n = g.shape[0]
    mats = np.moveaxis(g.reshape(n, n, -1), -1, 0)
    return float(np.linalg.eigvalsh(mats).min())


def periodic_grad_sq_integral(g, u, extent):
    """int g^{ij} d_i u d_j u dV on a uniform periodic grid, by centered
    differences, independent of rlab's stencils and metric code."""
    n = g.shape[0]
    shape = u.shape
    h = [extent / r for r in shape]
    du = np.stack([(np.roll(u, -1, a) - np.roll(u, 1, a)) / (2 * h[a])
                   for a in range(n)])
    mats = np.moveaxis(g.reshape(n, n, -1), -1, 0)
    ginv = np.moveaxis(np.linalg.inv(mats), 0, -1).reshape((n, n) + shape)
    vol = np.sqrt(np.linalg.det(mats)).reshape(shape)
    dens = np.einsum("ij...,i...,j...->...", ginv, du, du)
    return float(np.sum(dens * vol) * np.prod(h))


# --------------------------------------------------------------------------
# operations

def operations(workload, out, manifests):
    """[(operation, failure or None)] for one round."""
    ops = []

    def parse(label, fname):
        _, bad = read_csv(out / label / fname)
        if not bad:
            ops.append((fname, None))
            return
        what = ", ".join(f"{k}: {len(v)} cells like {v[0]!r}" for k, v in bad.items())
        known = (set(bad) == KNOWN_FAULTS.get(fname)
                 and all(NUMPY_SCALAR.match(c) for v in bad.values() for c in v))
        ops.append((fname, ("counted fault: " if known else "") + what))

    def stage(label):
        failed = manifests[label]["failed_checks"]
        ops.append((f"{label}.checks", ", ".join(failed) or None))

    if workload == "flow4d":
        stage("run")
        parse("run", "diagnostics.csv")
        try:
            read_checkpoint(out / "run" / "checkpoint.rlab")
            ops.append(("checkpoint.rlab", None))
        except (ValueError, KeyError, struct.error) as e:
            ops.append(("checkpoint.rlab", repr(e)))
    elif workload == "entropy":
        stage("entropy")
        parse("entropy", "entropy.csv")
    elif workload == "verify":
        checks = manifests["verify"]["checks"]
        reports = {r["identity"]: r for r in json.loads(
            (out / "verify" / "residuals.json").read_text())}
        ops.append(("residuals.json", None))
        for ident in workloads.VERIFY_IDS:
            passed = checks.get(f"verify.{ident}")
            if ident.endswith(":negctl"):
                # a negative control the program rejects is a success
                ops.append((ident, None if passed is False else "control accepted"))
            elif passed is True:
                ops.append((ident, None))
            else:
                order = reports[ident].get("order")
                known = ident == "A.10" and order is not None and order > 2.3
                ops.append((ident, ("counted fault: " if known else "")
                            + f"stage gate rejects order {order}"))
        stage("uniqueness")
        parse("uniqueness", "energy.csv")
        stage("compare")
        parse("compare", "verdicts.csv")
    return ops


# --------------------------------------------------------------------------
# facts: the parsed outputs the checks look at

def facts(workload, out, calls, manifests):
    cfgs = {label: cfg for label, cfg, _ in calls}
    if workload == "flow4d":
        from rlab.functionals import gbc_defect, gbc_defect_coupled
        from rlab.mesh import MetricField, build_grid
        cfg = cfgs["run"]
        diag, _ = read_csv(out / "run" / "diagnostics.csv")
        t, fields = read_checkpoint(out / "run" / "checkpoint.rlab")
        g, u = fields["g"], fields["u"]
        gc = cfg["grid"]
        grid = build_grid(gc["kind"], gc["n"], gc["resolutions"], gc["extents"])
        metric = MetricField(grid, g.copy())
        return {"diag": diag, "t_end": cfg["schedule"]["t_end"],
                "steps": workloads.FLOW4D_STEPS, "ckpt_t": t,
                "ckpt_min_eig": min_eigenvalue(g),
                "gbc": gbc_defect(metric, 0.0),
                "gbc_coupled": gbc_defect_coupled(metric, u, 2.0, 0.0)}
    if workload == "entropy":
        cfg = cfgs["entropy"]
        cols, _ = read_csv(out / "entropy" / "entropy.csv")
        steps = workloads.ENTROPY_STEPS
        idx = np.linspace(0, steps, cfg["entropy"]["samples"]).astype(int)
        return {"cols": cols, "tau0": cfg["entropy"]["tau0"],
                "sample_t": [float(k) * workloads.ENTROPY_DT for k in idx]}
    if workload == "verify":
        from rlab.instances import random_instance
        energy, _ = read_csv(out / "uniqueness" / "energy.csv")
        with open(out / "compare" / "verdicts.csv", newline="") as fh:
            verdicts = list(csv.DictReader(fh))
        ccfg = cfgs["compare"]
        n, res = ccfg["grid"]["n"], ccfg["grid"]["resolutions"][0]
        grad_sq = []
        for i in range(ccfg["compare"]["instances"]):
            _, m, u = random_instance(n, res, ccfg["seed"] + i)
            grad_sq.append(periodic_grad_sq_integral(m.values, u, workloads.TWO_PI))
        return {"reports": json.loads((out / "verify" / "residuals.json").read_text()),
                "verify_checks": manifests["verify"]["checks"],
                "energy": energy, "delta": cfgs["uniqueness"]["uniqueness"]["delta"],
                "flat_vol": workloads.TWO_PI ** 3,
                "verdicts": [{k: (v if k in TEXT_COLUMNS else float(v))
                              for k, v in row.items()} for row in verdicts],
                "grad_sq": grad_sq}
    raise ValueError(workload)


# --------------------------------------------------------------------------
# checks

def check_flow4d(f):
    bad = []
    mg, ms, t = f["diag"]["max_grad_u_sq"], f["diag"]["min_Sg"], f["diag"]["t"]
    slack = 1e-8 * max(1.0, abs(mg[0]))
    if any(b - a > slack for a, b in zip(mg, mg[1:])):
        bad.append("max_grad_u_sq increases")
    if any(a - b > slack for a, b in zip(ms, ms[1:])):
        bad.append("min_Sg decreases")
    if len(t) != f["steps"] + 1 or abs(t[-1] - f["t_end"]) > 1e-12:
        bad.append(f"diagnostics end at t={t[-1]!r} after {len(t)} rows, "
                   f"not t_end={f['t_end']!r}")
    if abs(f["ckpt_t"] - f["t_end"]) > 1e-12:
        bad.append(f"checkpoint at t={f['ckpt_t']!r}, not t_end")
    if not f["ckpt_min_eig"] > 0:
        bad.append(f"checkpoint metric not SPD (min eigenvalue {f['ckpt_min_eig']:.3g})")
    # chi(T^4) = 0, so the defect is truncation error, O(h^2) with
    # h^2 = 0.27 at 12^4: about 0.44% of int |Rm|^2 on seeds 1-10, while a
    # unit Euler characteristic (32 pi^2) is two to three times int |Rm|^2
    rm_sq = f["diag"]["int_rm_sq"][-1]
    if not abs(f["gbc"]) <= 0.02 * rm_sq:
        bad.append(f"Chern-Gauss-Bonnet defect {f['gbc']:.3g} vs int|Rm|^2 {rm_sq:.3g}")
    if not abs(f["gbc"] - f["gbc_coupled"]) <= 1e-10 * rm_sq:
        bad.append(f"coupled defect {f['gbc_coupled']!r} != {f['gbc']!r}")
    return bad


def check_entropy(f):
    bad = []
    c = f["cols"]
    mu, upper, defect = c["mu"], c["mu_upper"], c["norm_defect"]
    if len(c["t"]) != len(f["sample_t"]) or any(
            abs(a - b) > 1e-12 for a, b in zip(c["t"], f["sample_t"])):
        bad.append("entropy rows are not at the sample times")
    if any(abs(tau - (f["tau0"] - t)) > 1e-12 for t, tau in zip(c["t"], c["tau"])):
        bad.append("tau != tau0 - t")
    if any(b < a - 3e-6 for a, b in zip(mu, mu[1:])):
        bad.append("mu decreases along the flow")
    if any(not m <= u for m, u in zip(mu, upper)):
        bad.append("mu above its constant-test-function bound")
    if any(not d <= 1e-8 for d in defect):
        bad.append(f"normalization defect up to {max(defect):.3g}")
    return bad


def check_verify(f):
    bad = []
    for r in f["reports"]:
        ident, order = r["identity"], r.get("order")
        if ident.endswith(":negctl"):
            if not (r["max_res"] > 0.05 and order is not None and abs(order) < 0.5):
                bad.append(f"{ident} converges (order {order}, residual {r['max_res']:.3g})")
            if f["verify_checks"].get(f"verify.{ident}") is not False:
                bad.append(f"{ident} not marked failed by the program")
        elif order is None or not order >= 1.7:
            bad.append(f"{ident} order {order} below 1.7")
    e = f["energy"]
    want = f["delta"] * math.sqrt(f["flat_vol"] / 2.0)
    if not abs(e["h_norm"][0] - want) <= 0.05 * want:
        bad.append(f"first h_norm {e['h_norm'][0]:.6g} vs delta*sqrt(Vol/2) {want:.6g}")
    if not all(t > 0 for t in e["T_norm"]):
        bad.append("curvature difference vanishes (perturbation is a reparametrization)")
    rl = [v for v in f["verdicts"] if v["pair"] == "RL_vs_R"]
    for v, gsq in zip(rl, f["grad_sq"]):
        if not (gsq >= 0 and abs(v["margin"] - 2.0 * gsq) <= 1e-9 * max(1.0, gsq)):
            bad.append(f"RL_vs_R margin {v['margin']!r} != 2 int|du|^2 = {2 * gsq!r}")
    if len(rl) != len(f["grad_sq"]):
        bad.append("missing RL_vs_R verdicts")
    for v in f["verdicts"]:
        scale = max(1.0, abs(v["left"]), abs(v["right"]))
        if v["pair"] == "R_eq_RWY_e^u" and not abs(v["margin"]) <= 1e-9 * scale:
            bad.append(f"int R e^u != int R_WY e^u (margin {v['margin']:.3g})")
        if v["pair"] == "R_vs_RWY" and not v["margin"] >= -1e-9 * scale:
            bad.append(f"R_vs_RWY ordering fails (margin {v['margin']:.3g})")
    return bad


CHECKS = {"flow4d": check_flow4d, "entropy": check_entropy, "verify": check_verify}


def _wrong(mutate):
    """A copy of the facts changed in place by ``mutate``."""
    def make(f):
        f = copy.deepcopy(f)
        mutate(f)
        return f
    return make


def _edit(rows, key, match, **values):
    for row in rows:
        if match(row[key]):
            row.update(values)


# each entry: a wrong output that the workload's check must reject
NEGATIVE = {
    "flow4d": {
        "rising max_grad_u_sq": _wrong(lambda f: f["diag"]["max_grad_u_sq"].__setitem__(
            -1, 1.01 * f["diag"]["max_grad_u_sq"][-2])),
        "falling min_Sg": _wrong(lambda f: f["diag"]["min_Sg"].__setitem__(
            -1, f["diag"]["min_Sg"][-2] - 0.01)),
        "run stops short of t_end": _wrong(lambda f: f["diag"]["t"].__setitem__(
            -1, 0.97 * f["t_end"])),
        "checkpoint off t_end": _wrong(lambda f: f.update(ckpt_t=0.97 * f["t_end"])),
        "indefinite metric": _wrong(lambda f: f.update(ckpt_min_eig=-1e-3)),
        "defect of chi = 1": _wrong(lambda f: f.update(gbc=f["gbc"] + 32 * math.pi ** 2)),
        "coupled defect disagrees": _wrong(lambda f: f.update(
            gbc_coupled=f["gbc"] + 1e-6 * f["diag"]["int_rm_sq"][-1])),
    },
    "entropy": {
        "mu decreasing": _wrong(lambda f: f["cols"]["mu"].__setitem__(
            -1, f["cols"]["mu"][-2] - 1e-3)),
        "mu above its bound": _wrong(lambda f: f["cols"]["mu_upper"].__setitem__(
            -1, f["cols"]["mu"][-1] - 1e-3)),
        "normalization defect 1e-6": _wrong(lambda f: f["cols"]["norm_defect"].__setitem__(
            -1, 1e-6)),
        "rows off the sample times": _wrong(lambda f: f["cols"]["t"].__setitem__(
            -1, f["cols"]["t"][-1] + workloads.ENTROPY_DT)),
    },
    "verify": {
        "residual order 1.0": _wrong(lambda f: _edit(
            f["reports"], "identity", lambda i: i == "A.2", order=1.0)),
        "converging control": _wrong(lambda f: _edit(
            f["reports"], "identity", lambda i: i.endswith(":negctl"),
            order=2.0, max_res=1e-6)),
        "control passed by the program": _wrong(lambda f: f["verify_checks"].update(
            {k: True for k in f["verify_checks"] if k.endswith(":negctl")})),
        "h_norm off the closed form": _wrong(lambda f: f["energy"]["h_norm"].__setitem__(
            0, 2.0 * f["energy"]["h_norm"][0])),
        "vanishing curvature difference": _wrong(lambda f: f["energy"]["T_norm"].__setitem__(
            0, 0.0)),
        "RL_vs_R margin off by 1%": _wrong(lambda f: [
            v.update(margin=1.01 * v["margin"]) for v in f["verdicts"]
            if v["pair"] == "RL_vs_R"]),
        "weighted equality broken": _wrong(lambda f: _edit(
            f["verdicts"], "pair", lambda p: p == "R_eq_RWY_e^u", margin=1e-3)),
        "R_vs_RWY ordering reversed": _wrong(lambda f: _edit(
            f["verdicts"], "pair", lambda p: p == "R_vs_RWY", margin=-1.0)),
    },
}


def run_checks(workload, f):
    """(problems with the real outputs, negative controls the check accepted)."""
    check = CHECKS[workload]
    problems = check(f)
    accepted = [name for name, wrong in NEGATIVE[workload].items()
                if not check(wrong(f))]
    return problems, accepted
