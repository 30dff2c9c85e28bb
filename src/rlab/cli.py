"""Experiment runner and command-line interface.

Subcommands: run (execute every stage the config selects), verify, entropy,
compare, uniqueness, constants.  Exit status: 0 all selected checks passed,
1 at least one check failed (the manifest names it), 2 configuration error.

The manifest is deterministic: it contains the config hash, tool version,
seeds, relative output paths, and the pass/fail summary - no timestamps -
so identical configs produce byte-identical manifests.

RLAB_THREADS caps the numerical thread pools (``rlab/__init__`` exports it
to the BLAS/OpenMP environment before numpy loads).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

TOOL_VERSION = "0.1.0"


# --------------------------------------------------------------------------
# config -> domain objects

def grid_from(cfg, res=None):
    """The config's grid, or a verify level's at ``res`` points per axis; a
    grid that ``build_grid`` rejects is a ConfigError naming the key."""
    from .config import ConfigError
    from .mesh import GridError, build_grid

    g = cfg["grid"]
    try:
        return build_grid(g["kind"], g["n"], [res] * g["n"] if res else g["resolutions"],
                          g["extents"])
    except GridError as e:
        key, _, why = str(e).partition(": ")
        raise ConfigError(f"verify.resolutions: level {res}: {why}" if res
                          else f"grid.{key}: {why}") from e


def build_from_config(cfg, res_override=None):
    """(grid, metric, u0); a metric that fails the SPD rule is a ConfigError."""
    from .config import ConfigError
    from .instances import conformal_metric, perturbed_flat_metric, trig_scalar
    from .mesh import SPDError, flat_metric

    grid = grid_from(cfg, res_override)
    idata = cfg.get("initial_data", {})
    mspec = idata.get("metric", {"family": "flat"})
    family = mspec.get("family", "flat")
    try:
        if family == "flat":
            metric = flat_metric(grid)
        elif family == "conformal":
            phi = trig_scalar(grid, mspec.get("phi_terms", []))
            metric = conformal_metric(grid, phi)
        elif family == "perturbed":
            comps = {tuple(int(s) for s in key.split(",")): terms
                     for key, terms in mspec.get("components", {}).items()}
            metric = perturbed_flat_metric(grid, comps)
        elif family == "product":
            from .instances import product_metric
            diag = mspec.get("diag", [1.0] * grid.n)
            metric = product_metric(grid, [
                float(entry) if isinstance(entry, (int, float))
                else lambda xs, terms=entry: 1.0 + trig_scalar(grid, terms)
                for entry in diag])
        else:
            raise ConfigError(f"initial_data.metric.family: unknown family {family!r}")
    except SPDError as e:
        raise ConfigError(f"initial_data.metric: {e}") from e
    u0 = trig_scalar(grid, idata.get("u_terms", []))
    return grid, metric, u0


def flow_params_from(cfg):
    from .flow import FlowParams
    return FlowParams(**{"alpha1": 2.0, **cfg.get("flow", {})})


def schedule_from(cfg):
    """The config's Schedule; a field it rejects is a ConfigError naming the key."""
    from .config import ConfigError
    from .flow import Schedule
    # the schema admits exactly Schedule's fields; absent ones take its defaults
    try:
        return Schedule(**{"t_end": 0.02, **cfg.get("schedule", {})})
    except ValueError as e:
        raise ConfigError(f"schedule.{e}") from e


def seed_of(cfg):
    """The config's root seed; without one, the optimizer's default."""
    from .functionals import OptimizerOpts
    return cfg.get("seed", OptimizerOpts.seed)


def base_flow(cfg, diagnostics, initial):
    """The flow run, entropy and uniqueness read, from ``initial`` = (grid, metric, u0)."""
    from .flow import FlowState, run
    sched = replace(schedule_from(cfg), diagnostics=diagnostics)
    return run(FlowState(*initial), flow_params_from(cfg), sched)


# --------------------------------------------------------------------------
# stages

def stage_run(cfg, out: Path, checks, outputs, base):
    import numpy as np
    from .snapshots import write_checkpoint, write_diagnostics_csv

    traj = base()
    params = traj.params
    write_diagnostics_csv(out / "diagnostics.csv", traj)
    outputs.append("diagnostics.csv")
    final = traj.state(traj.nsnapshots - 1)
    write_checkpoint(out / "checkpoint.rlab", final, params, schedule_from(cfg))
    outputs.append("checkpoint.rlab")
    checks["run.completed"] = traj.aborted is None
    if (params.alpha1 >= 0 and params.beta1 == 0 and params.beta2 == 0
            and traj.aborted is None):
        mg = np.array(traj.diagnostics["max_grad_u_sq"])
        ms = np.array(traj.diagnostics["min_Sg"])
        slack = 1e-8 * max(1.0, float(mg[0]))
        checks["run.max_grad_u_sq_nonincreasing"] = bool(
            np.all(np.diff(mg) <= slack))
        checks["run.min_S_nondecreasing"] = bool(np.all(np.diff(ms) >= -slack))
    return traj


def verify_plan(cfg):
    """(entries, levels) of the verify stage: (entry, identity id, negative
    control) per ``verify.identities`` entry and (resolution, evaluated
    snapshot k, schedule) per ``verify.resolutions`` level.  A ConfigError
    names the first entry or level the stage cannot run, or ``schedule.dt``
    unless it is a number, which each level rescales."""
    from .config import ConfigError
    from .flow import Schedule, step_plan
    from .identities import REGISTRY

    sched = schedule_from(cfg)
    if sched.dt is None:
        raise ConfigError("schedule.dt: the verify stage needs a number, which it "
                          "rescales to each level; null or absent is not accepted")
    vcfg = cfg.get("verify", {})
    entries = []
    for entry in vcfg.get("identities", ["A.8", "A.9"]):
        base, sep, tag = str(entry).partition(":")
        ident = REGISTRY.get(base) if isinstance(entry, str) else None
        if ident is None or ident.pair or ident.bound is not None:
            why = "not an evolution identity of one trajectory"
        elif sep and tag != "negctl":
            why = f"unknown tag {tag!r} (the one tag is 'negctl')"
        else:
            entries.append((entry, base, bool(sep)))
            continue
        raise ConfigError(f"verify.identities: {entry!r}: {why}")
    frac = vcfg.get("t_eval_frac", 0.75)
    if not 0 < frac < 1:
        raise ConfigError(f"verify.t_eval_frac: {frac!r} outside (0, 1)")
    base_res = cfg["grid"]["resolutions"][0]
    levels = []
    for res in vcfg.get("resolutions", [16, 32]):
        grid_from(cfg, res)
        dt = sched.dt * (base_res / res) ** 2
        # the residuals read snapshots k - 1, k and k + 1: integrate to k + 1
        nsteps, _ = step_plan(sched.t_end, dt)
        if nsteps < 2:
            raise ConfigError(f"verify.resolutions: level {res}: {nsteps} step of "
                              f"dt {dt!r} to t_end; the residuals need at least 2")
        k = min(max(int(round(frac * nsteps)), 1), nsteps - 1)
        t_stop = sched.t_end if k + 1 == nsteps else (k + 1) * dt
        levels.append((res, k, Schedule(t_end=t_stop, dt=dt, method=sched.method,
                                        diagnostics=False)))
    return entries, levels


def stage_verify(cfg, out: Path, checks, outputs, _base=None):
    from .flow import BlowUpError, FlowState, run
    from .identities import converges, evaluate_identity, with_order
    from .snapshots import write_reports_json

    entries, levels = verify_plan(cfg)
    params = flow_params_from(cfg)
    reports = []
    for res, k, sched in levels:
        grid, metric, u0 = build_from_config(cfg, res)
        traj = run(FlowState(grid, metric, u0), params, sched)
        if traj.aborted:
            raise BlowUpError(f"verify at resolution {res}: {traj.aborted}")
        reports.append([replace(evaluate_identity(traj, base_id, k, mutate=mutate),
                                identity=entry)
                        for entry, base_id, mutate in entries])
    for (entry, _, _), seq in zip(entries, zip(*reports)):
        checks[f"verify.{entry}"] = converges(seq)
    write_reports_json(out / "residuals.json", with_order(reports))
    outputs.append("residuals.json")


def stage_entropy(cfg, out: Path, checks, outputs, base):
    import numpy as np
    from .functionals import OptimizerOpts, mu_minimize
    from .snapshots import write_entropy_csv

    ecfg = cfg.get("entropy", {})
    tau0 = ecfg.get("tau0", 1.0)
    samples = ecfg.get("samples", 10)
    opts = OptimizerOpts(seed=seed_of(cfg), **{
        k: ecfg[k] for k in ("tol", "max_iter", "nseeds") if k in ecfg})
    traj = base()
    idxs = np.linspace(0, traj.nsnapshots - 1, samples).astype(int)
    rows, mus = [], []
    prev = None
    for k in idxs:
        st = traj.state(int(k))
        tau = tau0 - st.t
        rep = mu_minimize(st.metric, st.u, tau, opts, warm_start=prev)
        prev = rep.w
        rows.append((st.t, tau, rep.mu, rep.upper_bound, rep.norm_defect,
                     rep.iterations))
        mus.append(rep.mu)
    write_entropy_csv(out / "entropy.csv", rows)
    outputs.append("entropy.csv")
    tol = 3.0 * 1e-6
    checks["entropy.mu_nondecreasing"] = bool(
        np.all(np.diff(np.array(mus)) >= -tol))
    checks["entropy.mu_below_bound"] = bool(
        all(r[2] <= r[3] + 1e-6 for r in rows))
    checks["entropy.normalized"] = bool(all(r[4] <= 1e-8 for r in rows))


def stage_compare(cfg, out: Path, checks, outputs, _base=None):
    from .comparison import SCALAR_PAIRS, scalar_order
    from .instances import random_instance
    from .snapshots import write_verdicts_csv
    from .tensor import Geometry

    ccfg = cfg.get("compare", {})
    pairs = ccfg.get("scalar_pairs", SCALAR_PAIRS)
    ninst = ccfg.get("instances", 5)
    seed = seed_of(cfg)
    n = cfg["grid"]["n"]
    res = cfg["grid"]["resolutions"][0]
    verdicts = []
    ok = True
    for i in range(ninst):
        grid, m, u = random_instance(n, res, seed + i)
        geo = Geometry(m, u)        # one curvature evaluation for every pair
        for pair in pairs:
            v = scalar_order(m, u, pair, geo=geo)
            verdicts.append(v)
            ok = ok and v.verdict != "fails"
    write_verdicts_csv(out / "verdicts.csv", verdicts)
    outputs.append("verdicts.csv")
    checks["compare.orderings"] = bool(ok)


def stage_uniqueness(cfg, out: Path, checks, outputs, base):
    import numpy as np
    from .flow import FlowState, run
    from .mesh import MetricField
    from .snapshots import write_energy_csv
    from .uniqueness import energy_trace, gronwall_fit

    ucfg = cfg.get("uniqueness", {})
    delta = ucfg.get("delta", 1e-3)
    tr1 = base()
    st0 = tr1.state(0)
    # along x^1: on a g_00 that varies along x^0 alone, delta sin(x^0) is a
    # reparametrization and leaves the curvature unchanged
    x = st0.grid.coords()[1 if st0.grid.n >= 2 else 0]
    pert = st0.metric.values.copy()
    pert[(0, 0)] = pert[(0, 0)] + delta * np.sin(x)
    tr2 = run(FlowState(st0.grid, MetricField(st0.grid, pert), st0.u), tr1.params,
              replace(schedule_from(cfg), diagnostics=False))
    trace = energy_trace(tr1, tr2, **{k: ucfg[k] for k in ("beta",) if k in ucfg})
    write_energy_csv(out / "energy.csv", trace)
    outputs.append("energy.csv")
    half = len(trace.times) // 2
    fit = gronwall_fit(trace, window=slice(half, None))
    checks["uniqueness.finite_rate"] = bool(fit["outcome"] == "fit"
                                            and np.isfinite(fit["N"]))
    if fit["outcome"] == "fit":
        N = abs(fit["N"])
        e0, t0 = trace.values[half], trace.times[half]
        grow = all(trace.values[k] <= e0 * np.exp(2 * N * (trace.times[k] - t0)) + 1e-30
                   for k in range(half, len(trace.times)))
        checks["uniqueness.growth_bound"] = bool(grow)


def stage_constants(cfg, out: Path, checks, outputs, _base=None):
    from .functionals import (EstimateConstants, delta_u_bound,
                              log_sobolev_constant, noncollapse_constants,
                              dimension4_bound_constants)
    c = cfg.get("constants", {})
    n = cfg["grid"]["n"]
    p = flow_params_from(cfg)
    est = EstimateConstants(**{
        k: c[k] for k in ("K", "L", "P", "D", "A", "C_user", "C_s") if k in c})
    table = {
        "lambda1": est.lambda1,
        "lambda2": est.lambda2 if est.K > 0 else None,
        "noncollapse": noncollapse_constants(max(n, 2), est.D, est.A,
                                             c.get("Cn_user", 1.0)),
        "delta_u_bound": delta_u_bound(n, est.K, 0.0, est.C_user),
        "log_sobolev_C": log_sobolev_constant(1.0, 1.0, max(n, 2), est.C_s),
        "dimension4_bounds": dimension4_bound_constants(
            p.alpha1, p.beta1, p.beta2, c.get("A1", 1.0), c.get("C", 2.0),
            c.get("C0", 1.0), 1.0, c.get("chi", 0.0)),
    }
    (out / "constants.json").write_text(json.dumps(table, indent=1, sort_keys=True))
    outputs.append("constants.json")
    print(json.dumps(table, indent=1, sort_keys=True))
    checks["constants.evaluated"] = True


# each stage is called as stage(cfg, out, checks, outputs, base), positionally:
# base() returns the config's base flow, integrated on its first call
STAGES = {"run": stage_run, "verify": stage_verify, "entropy": stage_entropy,
          "compare": stage_compare, "uniqueness": stage_uniqueness,
          "constants": stage_constants}

STAGE_SECTIONS = {"run": "schedule", "verify": "verify", "entropy": "entropy",
                  "compare": "compare", "uniqueness": "uniqueness",
                  "constants": "constants"}


def run_experiment(config_path, out_dir, stages=None, res_override=None,
                   seed_override=None):
    """Execute the selected stages; returns (manifest dict, exit code).  The
    base flow is integrated at most once, inside the first stage that reads it."""
    from .config import ConfigError, config_hash, load_config
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if res_override is not None:
        cfg["grid"]["resolutions"] = [res_override] * cfg["grid"]["n"]
    selected = stages
    if selected is None:
        selected = [s for s in STAGES if STAGE_SECTIONS[s] in cfg]
        if not selected:
            selected = ["run"]
    # reject bad input before any stage runs; the base flow starts from ``initial``
    t_end = schedule_from(cfg).t_end
    flows = [s for s in selected if s in ("run", "verify", "entropy", "uniqueness")]
    if grid_from(cfg).kind != "torus" and flows:
        raise ConfigError(f"grid.kind: the {flows[0]} stage integrates a flow: torus only")
    if "verify" in selected:
        verify_plan(cfg)
    if "entropy" in selected and not (tau0 := cfg.get("entropy", {}).get("tau0", 1.0)) > t_end:
        raise ConfigError(f"entropy.tau0: {tau0!r} not above schedule.t_end {t_end!r}")
    if "compare" in selected:
        from .comparison import SCALAR_PAIRS
        for pair in cfg.get("compare", {}).get("scalar_pairs", ()):
            if pair not in SCALAR_PAIRS:
                raise ConfigError(f"compare.scalar_pairs: unknown pair {pair!r}")
    reads_base = {"run", "entropy", "uniqueness"} & set(selected)
    initial = build_from_config(cfg) if reads_base else None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks, outputs = {}, []
    # diagnostics rows leave every state bitwise unchanged; only run writes them
    base = functools.cache(lambda: base_flow(cfg, "run" in selected, initial))
    for name in selected:
        STAGES[name](cfg, out, checks, outputs, base)
    failed = sorted(k for k, v in checks.items() if v is False)
    manifest = {
        "config_hash": config_hash(cfg),
        "tool_version": TOOL_VERSION,
        "seeds": {"seed": seed_of(cfg)},
        "outputs": sorted(outputs),
        "checks": {k: checks[k] for k in sorted(checks)},
        "passed": not failed,
        "failed_checks": failed,
    }
    if "run" in selected and base().aborted:
        manifest["abort_reason"] = base().aborted
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1,
                                                  sort_keys=True))
    return manifest, (0 if not failed else 1)


# --------------------------------------------------------------------------
# plot emission

def emit_plots(manifest_path):
    """Write gnuplot-ready .dat/.gp files next to the manifest's outputs."""
    mpath = Path(manifest_path)
    out = mpath.parent
    manifest = json.loads(mpath.read_text())
    written = []

    def columns(csv_name, xcol, ycols, figure):
        src = out / csv_name
        if not src.exists():
            print(f"warning: series {csv_name} missing, skipping {figure}",
                  file=sys.stderr)
            return
        import csv as _csv
        with open(src) as fh:
            rows = list(_csv.reader(fh))
        head, body = rows[0], rows[1:]
        xi = head.index(xcol)
        yis = [head.index(c) for c in ycols]
        dat = out / f"{figure}.dat"
        with open(dat, "w") as fh:
            fh.write("# " + " ".join([xcol] + list(ycols)) + "\n")
            for r in body:
                fh.write(" ".join([r[xi]] + [r[i] for i in yis]) + "\n")
        gp = out / f"{figure}.gp"
        lines = [f"set title '{figure}'", f"set xlabel '{xcol}'"]
        plots = ", ".join(f"'{dat.name}' using 1:{k + 2} with linespoints "
                          f"title '{c}'" for k, c in enumerate(ycols))
        lines.append(f"plot {plots}")
        gp.write_text("\n".join(lines) + "\n")
        written.extend([dat.name, gp.name])

    columns("energy.csv", "t", ["E"], "energy_vs_t")
    columns("entropy.csv", "t", ["mu", "mu_upper"], "mu_vs_t")
    res = out / "residuals.json"
    if res.exists():
        reports = json.loads(res.read_text())
        dat = out / "residual_vs_h.dat"
        with open(dat, "w") as fh:
            fh.write("# h max_res identity order\n")
            for r in reports:
                fh.write(f"{r['h']!r} {r['max_res']!r} {r['identity']} "
                         f"{r.get('order', float('nan'))!r}\n")
        slopes = ", ".join(f"{r['identity']}:{r.get('order', float('nan')):.2f}"
                           for r in reports)
        gp = out / "residual_vs_h.gp"
        gp.write_text("set logscale xy\nset xlabel 'h'\nset ylabel 'max residual'\n"
                      f"set title 'fitted slopes: {slopes}'\n"
                      f"plot '{dat.name}' using 1:2 with points\n")
        written.extend([dat.name, gp.name])
    elif not (out / "energy.csv").exists() and not (out / "entropy.csv").exists():
        print("warning: manifest has no plottable series", file=sys.stderr)
    return written


# --------------------------------------------------------------------------
# entry point

def main(argv=None):
    parser = argparse.ArgumentParser(prog="rlab",
                                     description="flow/curvature laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(STAGES) + ["plots"]:
        p = sub.add_parser(name)
        if name == "plots":
            p.add_argument("--manifest", required=True)
            continue
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="rlab-out")
        p.add_argument("--resolution-override", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.command == "plots":
        emit_plots(args.manifest)
        return 0
    from .config import ConfigError
    try:
        stages = None if args.command == "run" else [args.command]
        manifest, code = run_experiment(args.config, args.out, stages=stages,
                                        res_override=args.resolution_override,
                                        seed_override=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if code != 0:
        print("failed checks: " + ", ".join(manifest["failed_checks"]),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
