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

import rlab
from conftest import RHF, make_verification_run
from rlab.config import ConfigError, config_hash, validate
from rlab.flow import FlowParams, FlowState, Schedule
from rlab.identities import evaluate_identity
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


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "rlab.cli", *args],
                          capture_output=True, text=True)


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
    takes per resolution, and (trajectory, identity, k, options, report) for
    each report it evaluates."""
    import rlab.flow
    import rlab.identities
    from rlab.cli import run_experiment
    steps, evals = {}, []

    def step(state, *args, **kwargs):
        res = state.grid.shape[0]
        steps[res] = steps.get(res, 0) + 1
        return real_step(state, *args, **kwargs)

    def evaluate(traj, ident_id, k, **kwargs):
        rep = evaluate_identity(traj, ident_id, k, **kwargs)
        evals.append((traj, ident_id, k, kwargs, rep))
        return rep

    real_step = rlab.flow.step
    monkeypatch.setattr(rlab.flow, "step", step)
    monkeypatch.setattr(rlab.identities, "evaluate_identity", evaluate)
    cfg = write_cfg(tmp_path, {"initial_data": VERIFICATION_DATA,
                               "schedule": schedule, "verify": verify})
    run_experiment(cfg, tmp_path / "v", stages=["verify"])
    return steps, evals


def test_verify_stops_at_the_last_snapshot_it_reads(tmp_path, monkeypatch, rhf_runs):
    # k = round(0.75 steps) reads snapshots k - 1, k and k + 1: 7/25/97 of the
    # 8/32/128 steps to t_end; the reports equal those of full-length runs
    steps, evals = spy_verify(
        tmp_path, monkeypatch, {"t_end": 0.016, "dt": 2e-3},
        {"identities": ["A.2", "A.8", "A.10", "A.8:negctl"],
         "resolutions": [16, 32, 64], "t_eval_frac": 0.75})
    assert steps == {16: 7, 32: 25, 64: 97}
    assert len(evals) == 12
    for traj, ident_id, k, kwargs, rep in evals:
        full = rhf_runs[traj.grid.shape[0]]
        assert full.dt == traj.dt and full.nsnapshots > traj.nsnapshots
        assert rep == evaluate_identity(full, ident_id, k, **kwargs)


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
    for traj, ident_id, k, kwargs, rep in evals:
        assert full[traj.grid.shape[0]].dt == traj.dt
        assert rep == evaluate_identity(full[traj.grid.shape[0]], ident_id, k, **kwargs)


def test_verify_names_a_level_that_blows_up(tmp_path):
    # a level that aborts before snapshot k + 1 has no residual to report
    from rlab.cli import run_experiment
    from rlab.flow import BlowUpError
    cfg = write_cfg(tmp_path, {"schedule": {"t_end": 8.0, "dt": 0.2},
                               "verify": {"identities": ["A.8"], "resolutions": [16, 32]}})
    with pytest.raises(BlowUpError, match="^verify at resolution 16: metric lost"):
        run_experiment(cfg, tmp_path / "v", stages=["verify"])


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
], ids=["safety-next-to-dt", "verify-null-dt", "verify-absent-dt"])
def test_config_keys_that_cannot_change_the_run_are_rejected(tmp_path, key, extra):
    # safety scales only the step bound that a null dt asks for; the verify
    # stage scales a numeric dt per level and has no step bound to fall back on
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, extra)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        run_experiment(cfg, tmp_path / "o")
    assert not (tmp_path / "o").exists()
    r = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert r.returncode == 2 and key in r.stderr


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
    src = str(Path(rlab.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-c", probe, "run", "--config",
                        str(cfg), "--out", str(tmp_path / "thr")],
                       capture_output=True, text=True,
                       env={"PATH": "/usr/bin:/bin", "RLAB_THREADS": "1",
                            "PYTHONPATH": src})
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
    real_run, flags = rlab.flow.run, []

    def spy(state, params, schedule, force=None):
        flags.append(schedule.diagnostics)
        if force is not None:
            schedule = replace(schedule, diagnostics=force)
        return real_run(state, params, schedule)

    monkeypatch.setattr(rlab.flow, "run", spy)
    run_experiment(cfg, tmp_path / "off", stages=["entropy", "uniqueness"])
    assert flags == [False, False]
    monkeypatch.setattr(rlab.flow, "run",
                        lambda st, p, s: spy(st, p, s, force=True))
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
    real_run, calls = rlab.flow.run, []
    monkeypatch.setattr(rlab.flow, "run", lambda *a: calls.append(1) or real_run(*a))
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


def config_error(tmp_path, capsys, extra, flags=()):
    """stderr of ``rlab run`` on BASE_CFG updated by ``extra``, which must
    exit 2 before any stage runs (no output directory)."""
    from rlab.cli import main
    code = main(["run", "--config", str(write_cfg(tmp_path, extra)),
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
], ids=["one-step", "below-torus-minimum"])
def test_verify_levels_that_cannot_be_evaluated_are_config_errors(tmp_path, capsys,
                                                                   resolutions, why):
    # the residuals read snapshots k - 1, k and k + 1 of every level
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
], ids=["t_eval_frac-7", "t_eval_frac-0", "u_terms-wave", "phi_terms-wave", "u_terms-kind",
        "components-kind", "components-key", "scalar-pair",
        "chart-flow", "beta-1.5", "beta-0", "tau0-at-t_end", "diag-short", "diag-long",
        "diag-wave", "metric-not-spd"])
def test_values_that_failed_mid_run_exit_2_before_any_stage(tmp_path, capsys, key, extra):
    # each was clamped, cut, read as cos or raised only once its stage ran
    err = config_error(tmp_path, capsys, extra)
    assert err.startswith(f"config error: {key}"), err


def test_chart_grid_is_accepted_without_a_flow_stage(tmp_path):
    from rlab.cli import run_experiment
    cfg = write_cfg(tmp_path, {"grid": dict(BASE_CFG["grid"], kind="chart")})
    manifest, code = run_experiment(cfg, tmp_path / "o", stages=["constants"])
    assert code == 0 and manifest["checks"] == {"constants.evaluated": True}


def test_cli_and_run_share_the_default_step_safety(tmp_path):
    from rlab.cli import base_flow, build_from_config, flow_params_from, stage_run
    from rlab.config import load_config
    from rlab.flow import cfl_dt, run
    cfg = load_config(write_cfg(tmp_path, {"schedule": {"t_end": 0.01, "dt": None}}))
    traj_cli = stage_run(cfg, tmp_path, {}, [],
                         lambda: base_flow(cfg, True, build_from_config(cfg)))
    grid, metric, u0 = build_from_config(cfg)
    state = FlowState(grid, metric, u0)
    traj = run(state, flow_params_from(cfg), Schedule(t_end=0.01, diagnostics=False))
    assert traj_cli.dt == traj.dt == cfl_dt(state, 0.5)


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
    # the blow-up config of test_abort_reason_is_a_manifest_key_not_a_check
    from rlab.cli import base_flow, build_from_config, stage_run
    cfg = json.loads(write_cfg(tmp_path, {
        "initial_data": {"metric": {"family": "perturbed", "components": {
            "0,0": [{"amp": 0.8, "wave": [0, 1]}]}}},
        "schedule": {"t_end": 2.0, "dt": 0.5}}, name="blowup.json").read_text())
    checks = {}
    traj = stage_run(cfg, tmp_path, checks, [],
                     lambda: base_flow(cfg, True, build_from_config(cfg)))
    assert traj.aborted is not None and checks["run.completed"] is False
    times = traj.times
    assert len(set(times)) == len(times), times
    accepted = len(traj.diagnostics["t"]) - 1     # one row per accepted state
    assert accepted >= 1
    state, _, _ = read_checkpoint(tmp_path / "checkpoint.rlab")
    assert state.step_count == accepted
    assert state.t == times[-1] == traj.diagnostics["t"][-1]


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
