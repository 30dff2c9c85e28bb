import csv
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import HOLD, RHF, SRC, evaluate, make_verification_run, run_cli
from rlab.config import ConfigError, config_hash, validate
from rlab.flow import FlowParams, FlowState, Schedule
from rlab.instances import (VERIFICATION_METRIC_TERMS, VERIFICATION_U_TERMS,
                            random_instance, verification_initial_data)
from rlab.mesh import build_grid
from rlab.snapshots import (read_checkpoint, read_snapshot, write_checkpoint,
                            write_snapshot)

BASE_CFG = {
    "grid": {"kind": "torus", "n": 2, "resolutions": [16, 16],
             "extents": [2 * np.pi, 2 * np.pi]},
    "initial_data": {
        "metric": {"family": "perturbed",
                   "components": {"0,0": [{"amp": 0.10, "wave": [1, 0]}],
                                  "1,1": [{"amp": 0.08, "wave": [0, 1],
                                           "kind": "cos"}],
                                  "0,1": [{"amp": 0.04, "wave": [0, 1]}]}},
        "u_terms": [{"amp": 0.2, "wave": [1, 0]}],
    },
    "flow": {"alpha1": 2.0},
    "schedule": {"t_end": 0.008, "dt": 0.002},
    "seed": 7,
}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CFG))
    if extra:
        cfg.update(extra)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_snapshot_roundtrip_bit_exact(tmp_path):
    grid, m, u = random_instance(2, 16, seed=501)
    path = tmp_path / "snap.rlab"
    write_snapshot(path, grid, {"g": m, "u": u}, extra={"note": "x"})
    g2, fields, extra = read_snapshot(path)
    assert g2 == grid
    assert np.array_equal(fields["g"][0], m.values)
    assert fields["g"][1:] == (0, 2, "sym2")
    assert np.array_equal(fields["u"][0], u)
    assert extra == {"note": "x"}
    # writing again is byte-identical
    path2 = tmp_path / "snap2.rlab"
    write_snapshot(path2, grid, {"g": m, "u": u}, extra={"note": "x"})
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_bad_magic(tmp_path):
    p = tmp_path / "bad.rlab"
    p.write_bytes(b"NOPE!")
    with pytest.raises(ValueError):
        read_snapshot(p)


def test_checkpoint_roundtrip(tmp_path):
    g = build_grid("torus", 2, [16, 16], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    st = FlowState(g, m, u0, t=0.25, step_count=5)
    p = FlowParams(1.0, 0.0, 0.5, -0.3)
    s = Schedule(t_end=0.5, dt=1e-3, safety=0.4, cadence=2, method="euler")
    path = tmp_path / "chk.rlab"
    write_checkpoint(path, st, p, s)
    st2, p2, s2 = read_checkpoint(path)
    assert np.array_equal(st2.metric.values, st.metric.values)
    assert np.array_equal(st2.u, st.u)
    assert st2.t == 0.25 and st2.step_count == 5
    assert p2 == p
    assert s2.t_end == 0.5 and s2.method == "euler" and s2.cadence == 2


def _checkpoint_bytes(path):
    g = build_grid("torus", 2, [8, 8], [2 * np.pi] * 2)
    m, u0 = verification_initial_data(g)
    write_checkpoint(path, FlowState(g, m, u0, t=0.5, step_count=3),
                     FlowParams(2.0), Schedule(t_end=1.0, dt=0.1))
    return path.read_bytes()


def test_snapshot_rejects_unknown_version(tmp_path):
    raw = _checkpoint_bytes(tmp_path / "chk.rlab")
    assert raw.count(b'"version": 2') == 1
    p = tmp_path / "other.rlab"
    for version in (b"1", b"3"):        # version 1 has no field list
        p.write_bytes(raw.replace(b'"version": 2', b'"version": ' + version))
        with pytest.raises(ValueError,
                           match=f"unsupported snapshot version {version.decode()}"):
            read_snapshot(p)


def test_snapshot_truncated_at_every_offset(tmp_path):
    raw = _checkpoint_bytes(tmp_path / "chk.rlab")
    _, full, _ = read_snapshot(tmp_path / "chk.rlab")
    # record boundaries: the header, then "g" (rank 2) and "u" (rank 0) on 8x8
    hend = 9 + int.from_bytes(raw[5:9], "little")
    gend = hend + 10 + 8 * 4 * 64
    assert gend + 10 + 8 * 64 == len(raw)
    assert list(full) == ["g", "u"]
    p = tmp_path / "cut.rlab"
    for cut in range(len(raw)):
        p.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            read_snapshot(p)
        with pytest.raises(ValueError):
            read_checkpoint(p)
    # whole records only: the header's field list names the first one missing
    for cut, missing in ((hend, "g"), (gend, "u")):
        p.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=f"field '{missing}' missing"):
            read_snapshot(p)
    p.write_bytes(raw[:hend - 1])
    with pytest.raises(ValueError, match="truncated in the header"):
        read_snapshot(p)
    p.write_bytes(raw[:-1])
    with pytest.raises(ValueError, match="field 'u' truncated"):
        read_snapshot(p)
    p.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_snapshot(p)


@pytest.mark.parametrize("name", ["g", "u"])
def test_checkpoint_names_a_field_of_the_wrong_rank(tmp_path, name):
    grid, m, u = random_instance(2, 8, seed=1)
    fields = {"g": m, "u": u, name: np.stack([u, u])}     # rank (0, 1)
    p = tmp_path / "chk.rlab"
    write_snapshot(p, grid, fields)
    rank = (0, 2) if name == "g" else (0, 0)
    with pytest.raises(ValueError, match=re.escape(
            f"checkpoint field '{name}' has rank (0, 1), expected {rank}")):
        read_checkpoint(p)


def _header(edit):
    """The corruption that replaces a file's JSON header by ``edit(header
    dict)``, or by ``edit``'s bytes when it returns bytes."""
    def corrupt(raw):
        hend = 9 + int.from_bytes(raw[5:9], "little")
        header = edit(json.loads(raw[9:hend]))
        if not isinstance(header, bytes):
            header = json.dumps(header).encode()
        return raw[:5] + len(header).to_bytes(4, "little") + header + raw[hend:]
    return corrupt


def _edit_g_record(raw, at, value):
    """``raw`` with ``value`` written ``at`` bytes into the "g" record's head."""
    pos = 9 + int.from_bytes(raw[5:9], "little") + at
    return raw[:pos] + value + raw[pos + len(value):]


def _without(key):
    return _header(lambda h: {k: v for k, v in h.items() if k != key})


def _without_payload(section, key=None):
    """A whole snapshot whose checkpoint payload lacks ``section``, or the
    ``key`` of ``section``."""
    def edit(h):
        entry = h["extra"] if key is None else h["extra"][section]
        del entry[section if key is None else key]
        return h
    return _header(edit)


def _with_payload(key, value):
    """A whole snapshot whose checkpoint payload holds ``value`` at ``key``."""
    return _header(lambda h: dict(h, extra=dict(h["extra"], **{key: value})))


# each corruption of a valid checkpoint (records g, then u, on 8x8), the
# reader it is given to, and the message that must name it
CORRUPTIONS = {
    "header-not-json": (_header(lambda h: b"{" + json.dumps(h).encode()), read_snapshot,
                        r"header is not valid: JSONDecodeError"),
    "no-version": (_without("version"), read_snapshot,
                   r"header is not valid: KeyError\('version'\)"),
    "no-grid": (_without("grid"), read_snapshot,
                r"no valid grid or field list: KeyError\('grid'\)"),
    "fields-not-a-list": (_header(lambda h: dict(h, fields=2)), read_snapshot,
                          r"no valid grid or field list: TypeError"),
    "record-name": (_header(lambda h: dict(h, fields=["u", "g"])), read_snapshot,
                    r"is 'g', the header lists 'u'"),
    "symmetry-code": (lambda raw: _edit_g_record(raw, 5, b"\x09"), read_snapshot,
                      r"field 'g' at byte \d+: unknown symmetry code 9"),
    "component-count": (lambda raw: _edit_g_record(raw, 6, (5).to_bytes(4, "little")),
                        read_snapshot, r"field 'g' at byte \d+: 5 components, expected 256"),
    "checkpoint-without-u": (lambda raw: _header(lambda h: dict(h, fields=["g"]))(raw)
                             [:-(10 + 8 * 64)],
                             read_checkpoint, r"^checkpoint has no field 'u'$"),
    "checkpoint-no-payload": (_without("extra"), read_checkpoint,
                              r"^checkpoint has no 'params' payload$"),
    "checkpoint-payload-not-a-mapping": (_header(lambda h: dict(h, extra=5)), read_checkpoint,
                                         r"^checkpoint has no 'params' payload$"),
    "checkpoint-no-schedule": (_without_payload("schedule"), read_checkpoint,
                               r"^checkpoint has no 'schedule' payload$"),
    "checkpoint-no-beta1": (_without_payload("params", "beta1"), read_checkpoint,
                            r"^checkpoint payload 'params' has no key 'beta1'$"),
    "checkpoint-no-method": (_without_payload("schedule", "method"), read_checkpoint,
                             r"^checkpoint payload 'schedule' has no key 'method'$"),
    "checkpoint-no-t": (_without_payload("t"), read_checkpoint,
                        r"^checkpoint payload has no key 't'$"),
    "checkpoint-no-step_count": (_without_payload("step_count"), read_checkpoint,
                                 r"^checkpoint payload has no key 'step_count'$"),
    "checkpoint-t-not-a-number": (_with_payload("t", "soon"), read_checkpoint,
                                  r"^checkpoint payload 't' is 'soon', not a finite number$"),
    "checkpoint-t-not-finite": (_with_payload("t", float("inf")), read_checkpoint,
                                r"^checkpoint payload 't' is inf, not a finite number$"),
    "checkpoint-step_count-negative": (
        _with_payload("step_count", -1), read_checkpoint,
        r"^checkpoint payload 'step_count' is -1, not a non-negative int$"),
    "checkpoint-step_count-not-an-int": (
        _with_payload("step_count", 2.5), read_checkpoint,
        r"^checkpoint payload 'step_count' is 2.5, not a non-negative int$"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_snapshot_corruption_is_named(tmp_path, case):
    corrupt, reader, message = CORRUPTIONS[case]
    raw = _checkpoint_bytes(tmp_path / "chk.rlab")
    p = tmp_path / "bad.rlab"
    p.write_bytes(corrupt(raw))
    with pytest.raises(ValueError, match=message):
        reader(p)


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(0, 2 ** 16), tail=st.binary(max_size=64))
def test_snapshot_cut_or_padded_raises_value_error(tmp_path_factory, cut, tail):
    d = tmp_path_factory.mktemp("snap")
    raw = _checkpoint_bytes(d / "chk.rlab")
    cut = cut % len(raw)
    # a tail that restores the file's length may be valid data in place of
    # the cut bytes; any other length cannot be a checkpoint on this grid,
    # whose records need >= 512 data bytes each
    assume(cut + len(tail) != len(raw))
    p = d / "bad.rlab"
    p.write_bytes(raw[:cut] + tail)
    with pytest.raises(ValueError):
        read_checkpoint(p)
    p.write_bytes(raw + tail)
    if tail:
        with pytest.raises(ValueError):
            read_snapshot(p)


def test_config_validation():
    validate(json.loads(json.dumps(BASE_CFG)))
    with pytest.raises(ConfigError, match="grid"):
        validate({"flow": {"alpha1": 2.0}})
    with pytest.raises(ConfigError, match="grdi"):
        validate({"grid": BASE_CFG["grid"], "grdi": 1})
    with pytest.raises(ConfigError, match="schedule.t_end"):
        validate({"grid": BASE_CFG["grid"], "schedule": {"t_end": "soon"}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate({"grid": dict(BASE_CFG["grid"], shape=3)})


def test_config_schemas_agree_and_reject_unread_keys():
    from rlab.config import SCHEMA
    doc = json.loads((Path(__file__).parents[1] / "config.schema.json").read_text())

    def keys(node):
        if not isinstance(node, dict):
            return None
        return {k: keys(v) for k, v in node.items() if not k.startswith("$")}

    assert keys(doc) == keys(SCHEMA)
    # keys that no stage reads are rejected, naming their dotted path
    for path, value in (("initial_data.metric.amplitude", 0.1),
                        ("initial_data.metric.seed", 3),
                        ("compare.ricci_variants", ["L_vs_Ric"]),
                        ("compare.weights", ["volume"]),
                        ("uniqueness.window_frac", 0.5),
                        ("constants.p", 2.0),
                        ("constants.rho", 1.0)):
        cfg = json.loads(json.dumps(BASE_CFG))
        *parents, leaf = path.split(".")
        node = cfg
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
        with pytest.raises(ConfigError, match=f"^{path}: unknown key"):
            validate(cfg)


def test_config_hash_canonical():
    a = {"grid": {"kind": "torus", "n": 2, "resolutions": [16, 16],
                  "extents": [1.0, 1.0]}, "seed": 7}
    b = {"seed": 7, "grid": {"extents": [1.0, 1.0], "n": 2,
                             "resolutions": [16, 16], "kind": "torus"}}
    assert config_hash(a) == config_hash(b)
    c = dict(a, seed=8)
    assert config_hash(c) != config_hash(a)


def test_cli_run_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8"],
                                          "resolutions": [12, 16, 24]},
                               "uniqueness": {"delta": 1e-3, "beta": 0.5}})
    r1 = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o1")])
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o2")])
    assert r2.returncode == 0
    m1 = (tmp_path / "o1" / "manifest.json").read_bytes()
    m2 = (tmp_path / "o2" / "manifest.json").read_bytes()
    assert m1 == m2
    for fn in ("diagnostics.csv", "energy.csv", "checkpoint.rlab"):
        assert ((tmp_path / "o1" / fn).read_bytes()
                == (tmp_path / "o2" / fn).read_bytes()), fn
    manifest = json.loads(m1)
    assert manifest["passed"] is True
    assert manifest["tool_version"]
    assert "residuals.json" in manifest["outputs"]


def test_cli_negative_control_fails_named(tmp_path):
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8", "A.8:negctl"],
                                          "resolutions": [12, 16, 24]}})
    r = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "neg")])
    assert r.returncode == 1
    assert "A.8:negctl" in r.stderr
    manifest = json.loads((tmp_path / "neg" / "manifest.json").read_text())
    assert manifest["failed_checks"] == ["verify.A.8:negctl"]
    assert manifest["checks"]["verify.A.8"] is True


def test_cli_minimal_flat_config_passes(tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "grid": {"kind": "torus", "n": 2, "resolutions": [16, 16],
                 "extents": [2 * np.pi, 2 * np.pi]},
        "schedule": {"t_end": 0.01, "dt": 0.002},
    }))
    r = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "flat")])
    assert r.returncode == 0, r.stderr
    manifest = json.loads((tmp_path / "flat" / "manifest.json").read_text())
    assert manifest["passed"] is True


def test_cli_metric_families(tmp_path):
    for family, mspec in (
        ("conformal", {"family": "conformal",
                       "phi_terms": [{"amp": 0.05, "wave": [1, 0]}]}),
        ("product", {"family": "product",
                     "diag": [1.3, [{"amp": 0.2, "wave": [1, 0], "kind": "cos"}]]}),
    ):
        cfg = tmp_path / f"{family}.json"
        cfg.write_text(json.dumps({
            "grid": {"kind": "torus", "n": 2, "resolutions": [16, 16],
                     "extents": [2 * np.pi, 2 * np.pi]},
            "initial_data": {"metric": mspec,
                             "u_terms": [{"amp": 0.1, "wave": [0, 1]}]},
            "flow": {"alpha1": 2.0},
            "schedule": {"t_end": 0.004, "dt": 0.001},
        }))
        r = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / family)])
        assert r.returncode == 0, (family, r.stderr)
    bad = tmp_path / "badfam.json"
    bad.write_text(json.dumps({
        "grid": {"kind": "torus", "n": 2, "resolutions": [16, 16],
                 "extents": [2 * np.pi, 2 * np.pi]},
        "initial_data": {"metric": {"family": "hyperbolic"}},
    }))
    r = run_cli(["run", "--config", str(bad), "--out", str(tmp_path / "bf")])
    assert r.returncode == 2
    assert "family" in r.stderr


def test_product_family_is_product_metric_of_trig_scalar():
    from rlab.cli import build_from_config
    from rlab.instances import product_metric, trig_scalar
    terms = [{"amp": 0.2, "wave": [1, 0, 1], "kind": "cos"},
             {"amp": -0.1, "wave": [0, 1, -1], "phase": 0.7}]
    cfg = {"grid": {"kind": "torus", "n": 3, "resolutions": [8, 8, 8],
                    "extents": [2 * np.pi] * 3},
           "initial_data": {"metric": {"family": "product",
                                       "diag": [1.3, terms, [terms[1]]]}}}
    grid, metric, _ = build_from_config(validate(cfg))
    ref = product_metric(grid, [1.3, lambda xs: 1.0 + trig_scalar(grid, terms),
                                lambda xs: 1.0 + trig_scalar(grid, [terms[1]])])
    assert np.array_equal(metric.values, ref.values)


def test_cli_verify_two_level_family(tmp_path):
    # two resolutions: gated on the decrease ratio, no order in the report
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8"],
                                          "resolutions": [16, 32]}})
    r = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "v2")])
    assert r.returncode == 0, r.stderr
    reports = json.loads((tmp_path / "v2" / "residuals.json").read_text())
    assert "order" not in reports[0]


# the canonical verification instance as config sections
VERIFICATION_DATA = {"metric": {"family": "perturbed",
                                "components": {f"{i},{j}": terms for (i, j), terms
                                               in VERIFICATION_METRIC_TERMS.items()}},
                     "u_terms": VERIFICATION_U_TERMS}


def spy_verify(tmp_path, monkeypatch, schedule, verify):
    """Run the verify stage on the canonical instance; return the rk4 steps it
    takes per resolution, and (frames, identity, dt, options, report) for
    each report it evaluates."""
    import rlab.flow
    import rlab.identities
    from rlab.cli import run_experiment
    steps, evals = {}, []

    def step(state, *args, **kwargs):
        res = state.grid.shape[0]
        steps[res] = steps.get(res, 0) + 1
        return real_step(state, *args, **kwargs)

    def spy(frames, ident_id, dt, **kwargs):
        rep = real_evaluate(frames, ident_id, dt, **kwargs)
        evals.append((frames, ident_id, dt, kwargs, rep))
        return rep

    real_step, real_evaluate = rlab.flow.step, rlab.identities.evaluate_identity
    monkeypatch.setattr(rlab.flow, "step", step)
    monkeypatch.setattr(rlab.identities, "evaluate_identity", spy)
    cfg = write_cfg(tmp_path, {"initial_data": VERIFICATION_DATA,
                               "schedule": schedule, "verify": verify})
    run_experiment(cfg, tmp_path / "v", stages=["verify"])
    return steps, evals


def test_verify_stops_at_the_last_snapshot_it_reads(tmp_path, monkeypatch, rhf_runs):
    # k = round(0.75 steps) reads snapshots k - 1, k and k + 1: 7/25/97 of the
    # 8/32/128 steps to t_end; the reports, on the geometries the steps
    # built, equal those on fresh geometries of full-length runs
    steps, evals = spy_verify(
        tmp_path, monkeypatch, {"t_end": 0.016, "dt": 2e-3},
        {"identities": ["A.2", "A.8", "A.10", "A.8:negctl"],
         "resolutions": [16, 32, 64], "t_eval_frac": 0.75})
    assert steps == {16: 7, 32: 25, 64: 97}
    assert len(evals) == 12
    for frames, ident_id, dt, kwargs, rep in evals:
        full = rhf_runs[frames[1].grid.shape[0]]
        k = full.times.index(frames[1].t)
        assert full.dt == dt and [f.t for f in frames] == full.times[k - 1:k + 2]
        assert rep == evaluate(full, ident_id, k, **kwargs)


def test_verify_runs_the_shortened_last_step_it_reads(tmp_path, monkeypatch):
    # t_end 0.0101: 5 whole steps and a shortened one at 16 (k + 1 = 6 is the
    # shortened step), 20 and a shortened one at 32 (k + 1 = 20 stops before it)
    steps, evals = spy_verify(
        tmp_path, monkeypatch, {"t_end": 0.0101, "dt": 2e-3},
        {"identities": ["A.8", "A.10"], "resolutions": [16, 32],
         "t_eval_frac": 0.9})
    assert steps == {16: 6, 32: 20}
    full = {res: make_verification_run(res, 2e-3 * (16 / res) ** 2, RHF, t_end=0.0101)
            for res in (16, 32)}
    for frames, ident_id, dt, kwargs, rep in evals:
        run = full[frames[1].grid.shape[0]]
        k = run.times.index(frames[1].t)
        assert run.dt == dt and [f.t for f in frames] == run.times[k - 1:k + 2]
        assert rep == evaluate(run, ident_id, k, **kwargs)


def test_verify_names_a_level_that_blows_up(tmp_path):
    # a level that aborts before snapshot k + 1 has no residual to report
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {"schedule": {"t_end": 8.0, "dt": 0.2},
                               "verify": {"identities": ["A.8"], "resolutions": [16, 32]}})
    manifest, code = run_experiment(cfg, tmp_path / "v", stages=["verify"])
    assert code == 1 and manifest["checks"] == {"verify.completed": False}
    assert manifest["abort_reason"].startswith("verify at resolution 16: metric lost")
    assert manifest["outputs"] == [] and not (tmp_path / "v" / "residuals.json").exists()


@pytest.mark.parametrize("t_end, rows", [(0.008, 4), (0.0105, 6)])
def test_energy_csv_ends_at_t_end(tmp_path, t_end, rows):
    # one row per snapshot after t = 0, through the last one both flows reach
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {"schedule": {"t_end": t_end, "dt": 0.002},
                               "uniqueness": {"delta": 1e-3, "beta": 0.5}})
    _, code = run_experiment(cfg, tmp_path / "u", stages=["uniqueness"])
    assert code == 0
    with open(tmp_path / "u" / "energy.csv", newline="") as fh:
        ts = [float(r["t"]) for r in csv.DictReader(fh)]
    assert len(ts) == rows and ts[-1] == t_end


def test_cli_config_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"flow": {"alpha1": 2.0}}))
    r = run_cli(["run", "--config", str(missing), "--out", str(tmp_path / "x")])
    assert r.returncode == 2
    assert "grid" in r.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r2 = run_cli(["run", "--config", str(bad), "--out", str(tmp_path / "y")])
    assert r2.returncode == 2


def test_cli_rejects_bad_verify_identities_before_any_stage(tmp_path):
    # unknown ids, tags other than ':negctl', and ids the verify stage cannot
    # evaluate on one trajectory are config errors that name the entry
    from rlab.cli import run_experiment
    for entry in ("A.99", "A.8:negctrl", "A.8:", "6.50", "6.53", "A.11", "5.7"):
        cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8", entry]}})
        with pytest.raises(ConfigError, match=re.escape(repr(entry))):
            run_experiment(cfg, tmp_path / "o", stages=["run", "verify"])
        assert not (tmp_path / "o").exists()
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8:negctrl"]}})
    r = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    assert r.returncode == 2
    assert "A.8:negctrl" in r.stderr


@pytest.mark.parametrize("key, extra", [
    ("schedule.safety", {"schedule": {"t_end": 0.008, "dt": 0.002, "safety": 0.4}}),
    ("schedule.dt", {"schedule": {"t_end": 0.008, "dt": None},
                     "verify": {"identities": ["A.8"]}}),
    ("schedule.dt", {"schedule": {"t_end": 0.008}, "verify": {"identities": ["A.8"]}}),
    *((f"constants.{k}", {"constants": {k: -1.0}}) for k in ("K", "D", "A")),
    *((f"constants.{k}", {"constants": {k: 0.0}}) for k in ("C_user", "Cn_user", "C_s", "C0")),
    ("constants.L", {"constants": {"L": 5.0}}),
    ("constants.P", {"constants": {"K": 0.0, "P": 7.0}}),
    ("initial_data.metric.components", {"initial_data": {"metric": {
        "family": "flat", "components": BASE_CFG["initial_data"]["metric"]["components"]}}}),
    ("initial_data.metric.components", {"initial_data": {"metric": {
        "components": BASE_CFG["initial_data"]["metric"]["components"]}}}),
    ("initial_data.metric.phi_terms", {"initial_data": {"metric": {
        "family": "perturbed", "components": {}, "phi_terms": [{"amp": 0.1, "wave": [1, 0]}]}}}),
    ("initial_data.metric.diag", {"initial_data": {"metric": {
        "family": "conformal", "phi_terms": [{"amp": 0.1, "wave": [1, 0]}], "diag": [1.0, 2.0]}}}),
], ids=["safety-next-to-dt", "verify-null-dt", "verify-absent-dt",
        *(f"{k}-negative" for k in ("K", "D", "A")),
        *(f"{k}-zero" for k in ("C_user", "Cn_user", "C_s", "C0")),
        "L-without-K", "P-with-zero-K", "flat-components", "no-family-components",
        "perturbed-phi_terms", "conformal-diag"])
def test_config_keys_that_cannot_change_the_run_are_rejected(tmp_path, key, extra):
    # safety scales only the step bound that a null dt asks for; the verify
    # stage scales a numeric dt per level and has no step bound to fall back on;
    # a constant out of its range, or L and P without the positive K that
    # lambda2 needs, is rejected before the base flow runs; each initial-metric
    # key is read by one family, and an absent family is flat, which reads none
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, extra)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        run_experiment(cfg, tmp_path / "o")
    assert not (tmp_path / "o").exists()
    r = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert r.returncode == 2 and key in r.stderr


def test_verify_rejects_an_unknown_metric_family_before_its_output(tmp_path, capsys):
    # the family was checked only when the first level was built, after the
    # output directory was made
    err = config_error(tmp_path, capsys, {"initial_data": {"metric": {"family": "bogus"}},
                                          "verify": {"identities": ["A.8"]}},
                       command="verify")
    assert err.startswith("config error: initial_data.metric.family: unknown family 'bogus'")


def test_constants_stage_reads_the_reduced_flow(tmp_path):
    # alpha2 = 1 is the same flow as beta1 lowered by 1, so the same constants
    from rlab.cli import run_experiment
    tables = []
    for flow in ({"alpha1": 2.0, "alpha2": 1.0}, {"alpha1": 2.0, "beta1": -1.0}):
        out = tmp_path / str(len(tables))
        run_experiment(write_cfg(tmp_path, {"flow": flow, "constants": {}}), out,
                       stages=["constants"])
        tables.append((out / "constants.json").read_bytes())
    assert tables[0] == tables[1]


def test_uniqueness_perturbation_changes_the_curvature(tmp_path):
    # g_00 varies along x^0 alone and u along x^0: delta sin(x^0) in g_00
    # would be a reparametrization, with T at rounding level (~1e-22) on every row
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {
        "initial_data": {
            "metric": {"family": "perturbed",
                       "components": {"0,0": [{"amp": 0.10, "wave": [1, 0]}],
                                      "1,1": [{"amp": 0.08, "wave": [0, 1]}]}},
            "u_terms": [{"amp": 0.2, "wave": [1, 0]}]},
        "uniqueness": {"delta": 1e-3, "beta": 0.5}})
    _, code = run_experiment(cfg, tmp_path / "u", stages=["uniqueness"])
    assert code == 0
    with open(tmp_path / "u" / "energy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(float(r["T_norm"]) > 1e-6 for r in rows)
    want = 1e-3 * np.sqrt((2 * np.pi) ** 2 / 2)
    assert abs(float(rows[0]["h_norm"]) - want) <= 0.05 * want


def test_cli_resolution_override_changes_hash(tmp_path):
    cfg = write_cfg(tmp_path)
    run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
             "--resolution-override", "24"])
    ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
    assert ha != hb


def test_emit_plots(tmp_path):
    from rlab.cli import emit_plots
    cfg = write_cfg(tmp_path, {"entropy": {"tau0": 0.5, "samples": 3},
                               "verify": {"identities": ["A.8"],
                                          "resolutions": [12, 16, 24]}})
    r = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "p")])
    assert r.returncode == 0, r.stderr
    written = emit_plots(tmp_path / "p" / "manifest.json")
    assert "mu_vs_t.dat" in written and "residual_vs_h.gp" in written
    gp = (tmp_path / "p" / "residual_vs_h.gp").read_text()
    assert "logscale" in gp and "slopes" in gp
    # missing series: warning, not an error
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "manifest.json").write_text(json.dumps({"outputs": []}))
    assert emit_plots(lone / "manifest.json") == []


def test_rlab_threads_env(tmp_path):
    # the child records OMP_NUM_THREADS at numpy's first import: the cap only
    # takes effect if RLAB_THREADS was exported before that moment
    cfg = write_cfg(tmp_path)
    probe = ("import os, sys\n"
             "seen = []\n"
             "sys.addaudithook(lambda event, args: event == 'import'"
             " and args[0] == 'numpy' and not seen"
             " and seen.append(os.environ.get('OMP_NUM_THREADS')))\n"
             "from rlab.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('OMP_NUM_THREADS at numpy import:', seen)\n"
             "sys.exit(code)\n")
    r = subprocess.run([sys.executable, "-c", probe, "run", "--config",
                        str(cfg), "--out", str(tmp_path / "thr")],
                       capture_output=True, text=True,
                       env={"PATH": "/usr/bin:/bin", "RLAB_THREADS": "1",
                            "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    assert r.returncode == 0, r.stderr
    assert "OMP_NUM_THREADS at numpy import: ['1']" in r.stdout, r.stdout


STAGE_CFG = {"entropy": {"tau0": 0.5, "samples": 2, "nseeds": 1},
             "uniqueness": {"delta": 1e-3, "beta": 0.5}}


def test_emitted_csv_cells_parse_as_floats(tmp_path):
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, STAGE_CFG)
    _, code = run_experiment(cfg, tmp_path / "o",
                             stages=["run", "entropy", "uniqueness"])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "o").glob("*.csv"))
    assert names == ["diagnostics.csv", "energy.csv", "entropy.csv"]
    for name in names:
        with open(tmp_path / "o" / name, newline="") as fh:
            head, *body = list(csv.reader(fh))
        assert body, name
        for row in body:
            assert len(row) == len(head)
            for cell in row:
                float(cell)


def test_entropy_uniqueness_outputs_unchanged_without_diagnostics(tmp_path, monkeypatch):
    # the two stages write no diagnostics rows, so they run their flows with
    # diagnostics off; forcing them back on must not change a byte
    import rlab.flow
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, STAGE_CFG)
    real_snapshots, flags = rlab.flow.snapshots, []

    def spy(state, params, schedule, force=None):
        flags.append(schedule.diagnostics)
        if force is not None:
            schedule = replace(schedule, diagnostics=force)
        return real_snapshots(state, params, schedule)

    monkeypatch.setattr(rlab.flow, "snapshots", spy)
    run_experiment(cfg, tmp_path / "off", stages=["entropy", "uniqueness"])
    assert flags == [False, False]
    monkeypatch.setattr(rlab.flow, "snapshots", lambda st, p, s: spy(st, p, s, force=True))
    run_experiment(cfg, tmp_path / "on", stages=["entropy", "uniqueness"])
    for name in ("entropy.csv", "energy.csv", "manifest.json"):
        assert ((tmp_path / "off" / name).read_bytes()
                == (tmp_path / "on" / name).read_bytes()), name


@pytest.mark.parametrize("stages", [["run", "entropy", "uniqueness"],
                                    ["entropy", "uniqueness"]])
def test_stages_share_one_base_flow(tmp_path, monkeypatch, stages):
    # the stages read one integration of the base flow; the uniqueness
    # stage's perturbed twin is the only other one
    import rlab.flow
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, STAGE_CFG)
    real, calls = rlab.flow.snapshots, []
    monkeypatch.setattr(rlab.flow, "snapshots", lambda *a: calls.append(1) or real(*a))
    run_experiment(cfg, tmp_path / "all", stages=stages)
    assert len(calls) == 2
    # the same bytes as one experiment per stage
    parts = [run_experiment(cfg, tmp_path / name, stages=[name])[0] for name in stages]
    for name, part in zip(stages, parts):
        for f in part["outputs"]:
            assert ((tmp_path / "all" / f).read_bytes()
                    == (tmp_path / name / f).read_bytes()), f
    checks = {k: v for part in parts for k, v in part["checks"].items()}
    assert all(checks.values())
    merged = dict(parts[0], checks=checks,
                  outputs=sorted(f for part in parts for f in part["outputs"]))
    assert ((tmp_path / "all" / "manifest.json").read_text()
            == json.dumps(merged, indent=1, sort_keys=True))


def config_error(tmp_path, capsys, extra, flags=(), command="run"):
    """stderr of ``rlab <command>`` on BASE_CFG updated by ``extra``, which
    must exit 2 before any stage runs (no output directory)."""
    from rlab.cli import main
    code = main([command, "--config", str(write_cfg(tmp_path, extra)),
                 "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert code == 2 and not (tmp_path / "o").exists(), err
    return err


def with_schedule(**fields):
    return {"schedule": {"t_end": 0.008, "dt": 0.002, **fields}}


@pytest.mark.parametrize("key, extra, flags", [
    ("schedule.cadence", with_schedule(cadence=0), []),
    ("schedule.cadence", with_schedule(cadence=-1), []),
    ("schedule.method", with_schedule(method="rk5"), []),
    ("schedule.t_end", with_schedule(t_end=0), []),
    ("schedule.dt", with_schedule(dt=0), []),
    ("schedule.dt", with_schedule(dt=-0.001), []),
    ("schedule.safety", {"schedule": {"t_end": 0.008, "safety": 0}}, []),
    ("grid.kind", {"grid": dict(BASE_CFG["grid"], kind="sphere")}, []),
    ("grid.resolutions", {"grid": dict(BASE_CFG["grid"], resolutions=[4, 4])}, []),
    ("grid.resolutions", None, ["--resolution-override", "4"]),
], ids=["cadence-0", "cadence-negative", "method-rk5", "t_end-0", "dt-0",
        "dt-negative", "safety-0", "grid-sphere", "grid-res-4", "override-res-4"])
def test_bad_schedule_and_grid_values_exit_2_before_any_stage(tmp_path, capsys, key,
                                                                extra, flags):
    err = config_error(tmp_path, capsys, extra, flags)
    assert err.startswith(f"config error: {key}"), err


@pytest.mark.parametrize("resolutions, why", [
    ([8, 16, 32], "level 8: 1 step of dt 0.008 to t_end"),
    ([4, 16, 32], "level 4: 4 below stencil minimum 8"),
    ([16, 16, 16], "level 16: not above the level before it, 16"),
    ([32, 16], "level 16: not above the level before it, 32"),
], ids=["one-step", "below-torus-minimum", "repeated", "descending"])
def test_verify_levels_that_cannot_be_evaluated_are_config_errors(tmp_path, capsys,
                                                                   resolutions, why):
    # the residuals read snapshots k - 1, k and k + 1 of every level, and the
    # fitted order reads the levels coarse to fine: a repeated level fixed no
    # slope, and a descending family inverted the verdict and its control
    err = config_error(tmp_path, capsys, {
        **with_schedule(t_end=0.004),
        "verify": {"identities": ["A.8"], "resolutions": resolutions}})
    assert err.startswith(f"config error: verify.resolutions: {why}"), err


@pytest.mark.parametrize("key, value", [
    ("entropy.samples", 0), ("entropy.nseeds", 0), ("entropy.max_iter", 0),
    ("compare.instances", 0), ("compare.scalar_pairs", []),
    ("verify.identities", []), ("verify.resolutions", []),
])
def test_stages_with_nothing_to_check_are_config_errors(tmp_path, capsys, key, value):
    # each value would let its stage pass with no check evaluated
    section, name = key.split(".")
    err = config_error(tmp_path, capsys, {section: {name: value}})
    assert err.startswith(f"config error: {key}: "), err


def with_initial_data(metric=None, u_terms=None):
    idata = json.loads(json.dumps(BASE_CFG["initial_data"]))
    return {"initial_data": {"metric": metric or idata["metric"],
                             "u_terms": u_terms or idata["u_terms"]}}


@pytest.mark.parametrize("key, extra", [
    ("verify.t_eval_frac: 7.0 outside (0, 1)",
     {"verify": {"identities": ["A.8"], "resolutions": [16, 32], "t_eval_frac": 7.0}}),
    ("verify.t_eval_frac: 0.0 outside (0, 1)",
     {"verify": {"identities": ["A.8"], "resolutions": [16, 32], "t_eval_frac": 0.0}}),
    ("initial_data.u_terms[0]: needs an amp and a wave of n=2 entries",
     with_initial_data(u_terms=[{"amp": 0.2, "wave": [1]}])),
    ("initial_data.metric.phi_terms[1]: needs an amp and a wave of n=2 entries",
     with_initial_data(metric={"family": "conformal", "phi_terms": [
         {"amp": 0.1, "wave": [1, 0]}, {"amp": 0.1, "wave": [1, 0, 1]}]})),
    ("initial_data.u_terms[0].kind: 'tan' is not 'sin' or 'cos'",
     with_initial_data(u_terms=[{"amp": 0.2, "wave": [1, 0], "kind": "tan"}])),
    ("initial_data.metric.components.1,1[0].kind: 'Sin' is not",
     with_initial_data(metric={"family": "perturbed", "components": {
         "1,1": [{"amp": 0.1, "wave": [0, 1], "kind": "Sin"}]}})),
    ("initial_data.metric.components: key '0,5' is not 'i,j' with i, j in 0..1",
     with_initial_data(metric={"family": "perturbed", "components": {
         "0,5": [{"amp": 0.1, "wave": [0, 1]}]}})),
    ("compare.scalar_pairs: unknown pair 'R_vs_X'",
     {"compare": {"scalar_pairs": ["R_vs_X"], "instances": 1}}),
    ("grid.kind: the run stage integrates a flow",
     {"grid": dict(BASE_CFG["grid"], kind="chart")}),
    ("uniqueness.beta: 1.5 outside (0, 1)", {"uniqueness": {"beta": 1.5}}),
    ("uniqueness.beta: 0 outside (0, 1)", {"uniqueness": {"beta": 0}}),
    ("entropy.tau0: 0.008 not above schedule.t_end 0.008", {"entropy": {"tau0": 0.008}}),
    ("initial_data.metric.diag: 1 entries for n=2",
     with_initial_data(metric={"family": "product", "diag": [1.0]})),
    ("initial_data.metric.diag: 3 entries for n=2",
     with_initial_data(metric={"family": "product", "diag": [1.0, 1.0, 1.0]})),
    ("initial_data.metric.diag[1][0]: needs an amp and a wave of n=2 entries",
     with_initial_data(metric={"family": "product", "diag": [
         1.0, [{"amp": 0.1, "wave": [0, 1, 1]}]]})),
    ("initial_data.metric: metric not SPD: min eigenvalue",
     with_initial_data(metric={"family": "perturbed", "components": {
         "0,0": [{"amp": 2.0, "wave": [1, 0]}]}})),
    ("grid.resolutions[0]: expected int, got str",
     {"grid": dict(BASE_CFG["grid"], resolutions=["16", "16"])}),
    ("grid.resolutions[0]: expected int, got float",
     {"grid": dict(BASE_CFG["grid"], resolutions=[16.5, 16.5])}),
    ("grid.extents[0]: expected float, got str",
     {"grid": dict(BASE_CFG["grid"], extents=["a", "b"])}),
    ("verify.resolutions[0]: expected int, got str",
     {"verify": {"identities": ["A.8"], "resolutions": ["16", 32]}}),
    ("verify.resolutions[0]: expected int, got float",
     {"verify": {"identities": ["A.8"], "resolutions": [16.5, 32]}}),
    ("initial_data.u_terms[0].wave[0]: expected int, got float",
     with_initial_data(u_terms=[{"amp": 0.2, "wave": [1.5, 0]}])),
    ("initial_data.u_terms[0].wave[0]: expected int, got str",
     with_initial_data(u_terms=[{"amp": 0.2, "wave": ["a", 0]}])),
    ("initial_data.metric.diag[0]: expected list, got bool",
     with_initial_data(metric={"family": "product", "diag": [True, 1.0]})),
    ("grid.n: expected int, got bool", {"grid": dict(BASE_CFG["grid"], n=True)}),
    ("entropy.samples: expected int, got bool", {"entropy": {"samples": True}}),
    ("uniqueness.delta: metric not SPD: min eigenvalue", {"uniqueness": {"delta": 5.0}}),
    ("schedule.t_end: must be finite, got inf", with_schedule(t_end=float("inf"))),
    ("grid.extents[0]: must be finite, got inf",
     {"grid": dict(BASE_CFG["grid"], extents=[float("inf"), 2 * np.pi])}),
    ("initial_data.u_terms[0].amp: must be finite, got nan",
     with_initial_data(u_terms=[{"amp": float("nan"), "wave": [1, 0]}])),
    ("initial_data.u_terms[0].phase: must be finite, got inf",
     with_initial_data(u_terms=[{"amp": 0.2, "wave": [1, 0], "phase": float("inf")}])),
    ("flow.alpha1: must be finite, got nan", {"flow": {"alpha1": float("nan")}}),
    ("initial_data.metric: metric not SPD: non-finite entries at 256 grid points",
     with_initial_data(metric={"family": "product", "diag": [1e308, 1e308]})),
], ids=["t_eval_frac-7", "t_eval_frac-0", "u_terms-wave", "phi_terms-wave", "u_terms-kind",
        "components-kind", "components-key", "scalar-pair",
        "chart-flow", "beta-1.5", "beta-0", "tau0-at-t_end", "diag-short", "diag-long",
        "diag-wave", "metric-not-spd", "resolutions-str", "resolutions-float",
        "extents-str", "verify-resolutions-str", "verify-resolutions-float",
        "wave-float", "wave-str", "diag-bool", "n-bool", "samples-bool",
        "delta-not-spd", "t_end-inf", "extents-inf", "amp-nan", "phase-inf",
        "alpha1-nan", "diag-huge"])
def test_values_that_failed_mid_run_exit_2_before_any_stage(tmp_path, capsys, key, extra):
    # each was clamped, cut, truncated to an int, read as cos or as 1, or
    # raised only once its stage ran
    err = config_error(tmp_path, capsys, extra)
    assert err.startswith(f"config error: {key}"), err


@pytest.mark.parametrize("key, grid", [
    ("grid.kind", {"kind": "chart"}),
    ("grid.resolutions", {"resolutions": [16, 24]}),
    ("grid.extents", {"extents": [2 * np.pi, 3.0]}),
], ids=["chart", "unequal-resolutions", "extent-3"])
def test_compare_rejects_a_grid_it_does_not_draw_on(tmp_path, capsys, key, grid):
    # the stage draws its instances on the 2π torus at the first resolution;
    # it used to write those verdicts whatever the grid said
    err = config_error(tmp_path, capsys, {"grid": dict(BASE_CFG["grid"], **grid)},
                       command="compare")
    assert err.startswith(f"config error: {key}: "), err


def test_chart_grid_is_accepted_without_a_flow_stage(tmp_path):
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {"grid": dict(BASE_CFG["grid"], kind="chart")})
    manifest, code = run_experiment(cfg, tmp_path / "o", stages=["constants"])
    assert code == 0 and manifest["checks"] == {"constants.evaluated": True}


def test_cli_and_run_share_the_default_step_safety(tmp_path):
    from rlab.cli import build_from_config, flow_from, flow_params_from
    from rlab.config import load_config
    from rlab.flow import cfl_dt, run
    from rlab.tensor import Geometry
    cfg = load_config(write_cfg(tmp_path, {"schedule": {"t_end": 0.01, "dt": None}}))
    traj_cli = flow_from(cfg, [build_from_config(cfg)])
    grid, metric, u0 = build_from_config(cfg)
    state = FlowState(grid, metric, u0)
    traj = run(state, flow_params_from(cfg), Schedule(t_end=0.01, diagnostics=False))
    assert traj_cli.dt == traj.dt == cfl_dt(Geometry(metric, u0), 0.5)


def test_abort_reason_is_a_manifest_key_not_a_check(tmp_path):
    from rlab.cli import run_experiment
    manifest, code = run_experiment(write_cfg(tmp_path), tmp_path / "ok")
    assert code == 0 and "abort_reason" not in manifest
    cfg = write_cfg(tmp_path, {
        "initial_data": {"metric": {"family": "perturbed", "components": {
            "0,0": [{"amp": 0.8, "wave": [0, 1]}]}}},
        "schedule": {"t_end": 2.0, "dt": 0.5}}, name="blowup.json")
    manifest, code = run_experiment(cfg, tmp_path / "blowup")
    assert code == 1 and manifest["failed_checks"] == ["run.completed"]
    assert all(isinstance(v, bool) for v in manifest["checks"].values())
    assert "positive definiteness" in manifest["abort_reason"]
    on_disk = json.loads((tmp_path / "blowup" / "manifest.json").read_text())
    assert on_disk["abort_reason"] == manifest["abort_reason"]


def test_aborted_run_records_its_last_state_once(tmp_path):
    # the blow-up config of test_abort_reason_is_a_manifest_key_not_a_check:
    # the stage writes what it can, then raises, with no property check
    from rlab.cli import build_from_config, flow_from, stage_run
    from rlab.flow import BlowUpError
    cfg = json.loads(write_cfg(tmp_path, {
        "initial_data": {"metric": {"family": "perturbed", "components": {
            "0,0": [{"amp": 0.8, "wave": [0, 1]}]}}},
        "schedule": {"t_end": 2.0, "dt": 0.5}}, name="blowup.json").read_text())
    checks, outputs = {}, []
    traj = flow_from(cfg, [build_from_config(cfg)])
    with pytest.raises(BlowUpError, match="^metric lost positive definiteness"):
        stage_run(cfg, tmp_path, checks, outputs, lambda: traj)
    assert traj.aborted is not None and checks == {}
    assert outputs == ["diagnostics.csv", "checkpoint.rlab"]
    times = traj.times
    assert len(set(times)) == len(times), times
    accepted = len(traj.diagnostics["t"]) - 1     # one row per accepted state
    assert accepted >= 1
    state, _, _ = read_checkpoint(tmp_path / "checkpoint.rlab")
    assert state.step_count == accepted
    assert state.t == times[-1] == traj.diagnostics["t"][-1]


BLOWUP = {"initial_data": {"metric": {"family": "perturbed", "components": {
              "0,0": [{"amp": 0.8, "wave": [0, 1]}]}}},
          "schedule": {"t_end": 2.0, "dt": 0.5},
          "verify": {"identities": ["A.8"]}, "entropy": {"tau0": 3.0},
          "uniqueness": {}}


@pytest.mark.parametrize("command", ["run", "verify", "entropy", "uniqueness"])
def test_every_flow_stage_records_an_abort(tmp_path, capsys, command):
    # the blow-up config of test_abort_reason_is_a_manifest_key_not_a_check:
    # each stage aborts into the manifest, with no property check, and
    # ``rlab run`` still runs the stages after the first abort
    from rlab.cli import main
    code = main([command, "--config", str(write_cfg(tmp_path, BLOWUP)),
                 "--out", str(tmp_path / "o")])
    stages = ["run", "verify", "entropy", "uniqueness"] if command == "run" else [command]
    assert code == 1
    assert "failed checks:" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["checks"] == {f"{s}.completed": False for s in stages}
    assert manifest["failed_checks"] == sorted(f"{s}.completed" for s in stages)
    assert "positive definiteness" in manifest["abort_reason"]
    assert manifest["abort_reason"].startswith(
        "verify at resolution 16: " if command == "verify" else "metric lost")
    assert manifest["outputs"] == (["checkpoint.rlab", "diagnostics.csv"]
                                   if command == "run" else [])


def test_uniqueness_twin_steps_at_the_base_flow_dt(tmp_path):
    # with dt null, the twin's own CFL bound would differ from the base flow's
    # (3.7972e-3 against 3.8060e-3 here) and the snapshot times with it
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {
        "initial_data": {
            "metric": {"family": "perturbed",
                       "components": {"0,0": [{"amp": 0.4, "wave": [2, 2]}]}},
            "u_terms": [{"amp": 0.1, "wave": [1, 0]}]},
        "schedule": {"t_end": 0.01, "dt": None}, "uniqueness": {}})
    manifest, code = run_experiment(cfg, tmp_path / "u", stages=["uniqueness"])
    assert code == 0, manifest["failed_checks"]
    with open(tmp_path / "u" / "energy.csv", newline="") as fh:
        ts = [float(r["t"]) for r in csv.DictReader(fh)]
    assert len(ts) == 3 and ts[-1] == 0.01 and abs(ts[0] - 3.806e-3) < 1e-6


def test_uniqueness_names_a_twin_that_aborts(tmp_path, monkeypatch):
    # the twin steps in lockstep, one step ahead of the base flow: an abort of
    # its second step, the third step taken, stops the uniqueness stage alone,
    # with its reason
    import rlab.flow
    from rlab.cli import run_experiment
    real_step, steps = rlab.flow.step, []

    def step(state, *a, **kw):
        steps.append(1)
        if len(steps) == 3:
            raise rlab.flow.BlowUpError("planted", state=state)
        return real_step(state, *a, **kw)

    monkeypatch.setattr(rlab.flow, "step", step)
    manifest, code = run_experiment(write_cfg(tmp_path, STAGE_CFG), tmp_path / "o",
                                    stages=["run", "uniqueness"])
    assert code == 1 and manifest["abort_reason"] == "perturbed twin: planted"
    assert manifest["checks"]["run.completed"] is True
    assert manifest["checks"]["uniqueness.completed"] is False
    assert len(steps) == 3 + 3 and manifest["outputs"] == ["checkpoint.rlab",
                                                           "diagnostics.csv"]


def test_entropy_solves_each_sampled_snapshot_once(tmp_path, monkeypatch):
    # 10 samples of a 4-step flow are its 5 snapshots, each minimized once
    import rlab.functionals
    from rlab.cli import run_experiment
    real, taus = rlab.functionals.mu_minimize, []

    def spy(geo, tau, *args, **kwargs):
        taus.append(tau)
        return real(geo, tau, *args, **kwargs)

    monkeypatch.setattr(rlab.functionals, "mu_minimize", spy)
    cfg = write_cfg(tmp_path, {"entropy": {"tau0": 0.5, "nseeds": 1}})
    _, code = run_experiment(cfg, tmp_path / "e", stages=["entropy"])
    assert code == 0
    with open(tmp_path / "e" / "entropy.csv", newline="") as fh:
        ts = [float(r["t"]) for r in csv.DictReader(fh)]
    assert ts == [0.0, 0.002, 0.004, 0.006, 0.008]
    assert len(taus) == len(set(taus)) == 5


@pytest.mark.parametrize("extra", [
    {"schedule": {"t_end": 0.01, "dt": 0.002, "cadence": 2}},      # last step off cadence
    {"schedule": {"t_end": 0.007, "dt": 0.002}, "flow": {"alpha1": 1.0}},   # shortened
    {"schedule": {"t_end": 0.01, "dt": None}}])                      # the CFL plan's count
def test_entropy_rows_read_along_the_flow_match_kept_states_bitwise(tmp_path, extra):
    # the stage minimizes mu while the base flow runs, on the geometry each
    # step built; the same rows come from every state kept and a fresh
    # S = R - 2 |du|^2 per sample, whatever the flow's a1
    from rlab.cli import build_from_config, flow_from, run_experiment
    from rlab.config import load_config
    from rlab.functionals import OptimizerOpts, mu_minimize
    from rlab.snapshots import write_entropy_csv
    from rlab.tensor import Geometry
    ecfg = {"tau0": 0.5, "samples": 3, "nseeds": 1}
    path = write_cfg(tmp_path, {**extra, "entropy": ecfg})
    _, code = run_experiment(path, tmp_path / "e", stages=["entropy"])
    assert code == 0
    cfg = load_config(path)
    traj = flow_from(cfg, [build_from_config(cfg)], HOLD, diagnostics=False)
    assert len(traj.read["states"]) == traj.nsnapshots
    rows, prev = [], None
    for k in np.unique(np.linspace(0, traj.nsnapshots - 1, 3).astype(int)):
        st = traj.read["states"][k]
        geo = Geometry(st.metric, st.u, 2.0)
        assert np.array_equal(geo.scalar - 2.0 * geo.grad_sq, geo.S)
        rep = mu_minimize(geo, 0.5 - st.t, OptimizerOpts(seed=7, nseeds=1),
                          warm_start=prev)
        prev = rep.w
        rows.append((st.t, 0.5 - st.t, rep.mu, rep.upper_bound, rep.norm_defect,
                     rep.iterations))
    assert len(rows) == 3
    write_entropy_csv(tmp_path / "kept.csv", rows)
    assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "e" / "entropy.csv").read_bytes()


@pytest.mark.parametrize("stages, absent", [(["entropy"], "numpy.ma"),
                                            (["run"], "rlab.functionals"),
                                            (["verify"], "rlab.functionals")])
def test_stages_leave_unused_modules_unloaded(tmp_path, stages, absent):
    # in a process of its own, since this one may hold the module already:
    # the entropy samples de-duplicate without np.unique, which loads
    # numpy.ma, and the default seed is read without the optimizer's module
    probe = ("import sys\n"
             "from rlab.cli import run_experiment\n"
             f"_, code = run_experiment({str(write_cfg(tmp_path, STAGE_CFG))!r}, "
             f"{str(tmp_path / 'o')!r}, stages={stages!r})\n"
             f"print(code, {absent!r} in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC,
                            "PYTHONDONTWRITEBYTECODE": "1"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("t_end", [0.002, 0.004])
def test_uniqueness_fits_no_rate_to_one_point(tmp_path, t_end):
    # one or two steps leave one point in the second half of the trace
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {"schedule": {"t_end": t_end, "dt": 0.002},
                               "uniqueness": {}})
    manifest, code = run_experiment(cfg, tmp_path / "u", stages=["uniqueness"])
    assert code == 1 and manifest["failed_checks"] == ["uniqueness.finite_rate"]
    assert "uniqueness.growth_bound" not in manifest["checks"]


def test_cli_verify_accepts_an_identity_faster_than_second_order(tmp_path):
    # A.10 is exact in space: only the dt^2 term is left, at order ~4
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.10", "A.8:negctl"],
                                          "resolutions": [16, 32, 64]},
                               "schedule": {"t_end": 0.016, "dt": 0.002}})
    manifest, code = run_experiment(cfg, tmp_path / "v", stages=["verify"])
    reports = json.loads((tmp_path / "v" / "residuals.json").read_text())
    assert reports[0]["identity"] == "A.10" and reports[0]["order"] > 2.3
    assert manifest["checks"]["verify.A.10"] is True
    assert manifest["failed_checks"] == ["verify.A.8:negctl"] and code == 1


def _spy_flows(monkeypatch):
    # every trajectory flow.run returns, in call order
    import rlab.flow
    real_run, trajs = rlab.flow.run, []
    monkeypatch.setattr(rlab.flow, "run",
                        lambda *a: trajs.append(real_run(*a)) or trajs[-1])
    return trajs


@pytest.mark.parametrize("stages, reads", [
    (["run"], lambda n: {}),
    (["entropy"], lambda n: {"entropy": 2}),               # its two samples
    (["uniqueness"], lambda n: {"uniqueness": n})])        # the twin, then n - 1 rows
def test_base_flow_holds_what_its_stages_read(tmp_path, monkeypatch, stages, reads):
    # the base flow holds its last state alone; each stage reads it as it runs
    from rlab.cli import run_experiment
    trajs = _spy_flows(monkeypatch)
    _, code = run_experiment(write_cfg(tmp_path, STAGE_CFG), tmp_path / "o", stages=stages)
    base = trajs[0]
    assert code == 0 and base.nsnapshots == 5 and len(trajs) == 1
    assert base.last.step_count == 4 and not hasattr(base, "states")
    assert {name: len(got) for name, got in base.read.items()} == reads(5)


def test_verify_level_holds_at_most_four_states(tmp_path, monkeypatch):
    # each level's flow holds its last state, and its reader the geometries
    # of snapshots k - 1, k and k + 1: while the entries are evaluated on
    # them, no other geometry the level's flow built is alive
    import gc
    import weakref

    import rlab.flow
    import rlab.identities
    from rlab.cli import run_experiment
    built, live = [], []
    real_geometry, real_evaluate = rlab.flow._geometry, rlab.identities.evaluate_identity

    def geometry(*args):
        geo = real_geometry(*args)
        built.append(weakref.ref(geo))
        return geo

    def evaluate(frames, *args, **kwargs):
        gc.collect()
        live.append(([f.t for f in frames], sorted(r().t for r in built if r())))
        return real_evaluate(frames, *args, **kwargs)

    monkeypatch.setattr(rlab.flow, "_geometry", geometry)
    monkeypatch.setattr(rlab.identities, "evaluate_identity", evaluate)
    trajs = _spy_flows(monkeypatch)
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8"],
                                          "resolutions": [16, 24, 32]}})
    _, code = run_experiment(cfg, tmp_path / "o", stages=["verify"])
    assert code == 0 and len(trajs) == 3 and len(live) == 3
    for traj, (window, alive) in zip(trajs, live):
        assert window == alive == traj.times[-3:]


def test_each_flow_frees_its_initial_metric_after_its_first_step(tmp_path, monkeypatch):
    # the run stage's base flow, the uniqueness twin and a verify level's own
    # flow each pop their initial data as they start: once a flow steps from
    # its first accepted state, no frame or closure holds its initial metric
    # (no gc pass: only references could keep it)
    import weakref

    import rlab.cli
    import rlab.flow
    from rlab.cli import run_experiment
    metrics, seen = [], []
    real_build, real_twin, real_step = (rlab.cli.build_from_config, rlab.cli.twin_from,
                                        rlab.flow.step)

    def spy(real):
        def built(*args):
            grid, metric, u = real(*args)
            metrics.append((grid.shape, weakref.ref(metric)))
            return grid, metric, u
        return built

    def step(state, *args, **kwargs):
        if state.step_count >= 1:
            seen.append([(shape, ref() is None) for shape, ref in metrics
                         if shape == state.grid.shape])
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(rlab.cli, "build_from_config", spy(real_build))
    monkeypatch.setattr(rlab.cli, "twin_from", spy(real_twin))
    monkeypatch.setattr(rlab.flow, "step", step)
    cfg = write_cfg(tmp_path, {**STAGE_CFG, "verify": {"identities": ["A.8"],
                                                       "resolutions": [16, 32]}})
    _, code = run_experiment(cfg, tmp_path / "o", stages=["run", "verify", "uniqueness"])
    assert code == 0
    assert sorted(shape for shape, _ in metrics) == [(16, 16), (16, 16), (32, 32)]
    assert seen[0] == [((16, 16), True)] * 2 and seen[-1] == [((32, 32), True)]
    assert all(gone for row in seen for _, gone in row)


def _count_connections(monkeypatch):
    # the grid shape of every Levi-Civita pass (tensor._connection), in order
    import rlab.tensor
    real, calls = rlab.tensor._connection, []
    monkeypatch.setattr(rlab.tensor, "_connection",
                        lambda m: calls.append(m.grid.shape) or real(m))
    return calls


def test_verify_builds_each_snapshot_curvature_once(tmp_path, monkeypatch):
    # a level's flow makes one pass per rk4 stage and per state it reaches,
    # 4 per step and 1 for the initial state; its entries, read on the
    # geometries the steps built, add none
    from rlab.cli import run_experiment, verify_plan
    from rlab.config import load_config
    from rlab.flow import step_plan
    calls = _count_connections(monkeypatch)
    ids = ["A.2", "A.3", "A.4", "A.5", "A.6", "A.7", "A.8", "A.9", "A.10", "A.8:negctl"]
    cfg = write_cfg(tmp_path, {"verify": {"identities": ids, "resolutions": [16, 24, 32]}})
    run_experiment(cfg, tmp_path / "o", stages=["verify"])
    want = {(res, res): 4 * step_plan(s["t_end"], s["dt"])[0] + 1
            for res, _, _, s in verify_plan(load_config(cfg))[1]}
    assert {shape: calls.count(shape) for shape in set(calls)} == want


def test_uniqueness_builds_each_snapshot_curvature_once(tmp_path, monkeypatch):
    # the base flow and its twin, 4 steps each, and nothing besides: each
    # energy row reads the two geometries the steps built
    from rlab.cli import run_experiment
    calls = _count_connections(monkeypatch)
    _, code = run_experiment(write_cfg(tmp_path, STAGE_CFG), tmp_path / "o",
                             stages=["uniqueness"])
    assert code == 0 and len(calls) == 2 * (4 * 4 + 1)


def test_verify_level_reads_the_base_flow_it_equals(tmp_path, monkeypatch):
    # 16^2, t_end 0.008, dt 0.002: the level at the base resolution is the
    # base flow through its snapshot k + 1 = 4, so ``rlab run`` integrates the
    # base flow and the 32^2 level only, and the residuals do not move
    from rlab.cli import main
    cfg = write_cfg(tmp_path, {"verify": {"identities": ["A.8", "A.9"],
                                          "resolutions": [16, 32]}})
    trajs = _spy_flows(monkeypatch)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "all")]) == 0
    assert [t.last.grid.shape for t in trajs] == [(16, 16), (32, 32)]
    assert list(trajs[0].read) == ["verify"]
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    assert len(trajs) == 4
    assert ((tmp_path / "all" / "residuals.json").read_bytes()
            == (tmp_path / "v" / "residuals.json").read_bytes())


def test_verify_level_past_a_later_base_abort_completes(tmp_path, monkeypatch):
    # the base flow aborts after the shared level's snapshot k + 1, which the
    # level's own flow never reaches: verify still completes
    import rlab.flow
    from rlab.cli import run_experiment
    real_step, steps = rlab.flow.step, []

    def step(state, *a, **kw):
        if len(steps) == 5 and state.grid.shape == (16, 16):
            raise rlab.flow.BlowUpError("planted", state=state)
        steps.append(1)
        return real_step(state, *a, **kw)

    monkeypatch.setattr(rlab.flow, "step", step)
    cfg = write_cfg(tmp_path, {"schedule": {"t_end": 0.012, "dt": 0.002},
                               "verify": {"identities": ["A.8"], "resolutions": [16, 32],
                                          "t_eval_frac": 0.5}})
    manifest, code = run_experiment(cfg, tmp_path / "o", stages=["run", "verify"])
    assert code == 1 and manifest["abort_reason"] == "planted"
    assert manifest["checks"]["run.completed"] is False
    assert manifest["checks"]["verify.completed"] is True


def test_terminal_names_the_abort_reason(tmp_path, capsys):
    # the blow-up config of test_abort_reason_is_a_manifest_key_not_a_check
    from rlab.cli import main
    cfg = write_cfg(tmp_path, {
        "initial_data": {"metric": {"family": "perturbed", "components": {
            "0,0": [{"amp": 0.8, "wave": [0, 1]}]}}},
        "schedule": {"t_end": 2.0, "dt": 0.5}}, name="blowup.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "failed checks: run.completed" in err
    assert "abort reason: metric lost positive definiteness" in err
