"""rlab's benchmark: three workloads through ``rlab.cli.run_experiment``.

    python3 perfbench/run.py --workload {flow4d,entropy,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; rlab is imported from ``src/``.  Each
round runs one workload in a fresh process (``child.py``) on configs made
from ``--seed``; rounds start until ``--seconds`` have passed, and every
metric is the median over the run's rounds.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (process start to
the first stage call: imports, config generation and validation; also
sampled by extra processes that stop there), ``wall_s`` (first stage call
to the last manifest written) and ``peak_rss_mb``.  ``--trace 1`` runs
traced rounds between untraced ones and prints the per-layer metrics, the
untraced per-stage times and the tracing overhead.  The first round of
every run also checks the outputs (``checks.py``).  The last stdout line is
the JSON result; the lines before it record the machine, the thread
settings and any failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# the work is numpy einsum and elementwise kernels, which run on one thread;
# one thread per BLAS/OpenMP pool keeps runs comparable on a shared machine
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "RLAB_THREADS")}
SETUP_PROBES = 9
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
STAGE_METRICS = ("verify", "uniqueness", "compare")


def child(workload, seed, mode, k):
    out = WORK / f"{workload}-{seed}" / f"{k:02d}-{mode}"
    result = out.with_name(out.name + ".json")
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), str(out),
         str(result), mode],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} round failed:\n{proc.stderr[-3000:]}")
    r = json.loads(result.read_text())
    r["setup_s"] = r["t_first_stage"] - t0
    r["mode"] = mode
    if mode == "trace":
        shutil.copyfile(out / "spans.json", WORK / f"spans-{workload}-{seed}.json")
    shutil.rmtree(out)
    return r


def rounds(workload, seed, seconds, traced):
    """Whole rounds, started until ``seconds`` have passed; the first one
    also checks the outputs, and a traced run alternates traced rounds with
    untraced ones."""
    start = time.monotonic()
    done = [child(workload, seed, "check", 0)]
    plan = ("trace", "time") if traced else ("time",)
    while (time.monotonic() - start < seconds
           or (traced and sum(r["mode"] == "trace" for r in done) < MIN_TRACED)):
        for mode in plan:
            done.append(child(workload, seed, mode, len(done)))
    return done


def layer_metrics(workload, seed, done):
    """Per-layer metrics: counts from the first traced round (every traced
    round must repeat them exactly), times as medians over traced rounds."""
    traced = [r["layers"] for r in done if r["mode"] == "trace"]
    untraced = [r for r in done if r["mode"] != "trace"]
    counts = traced[0]["counts"]
    notes = [f"count mismatch within the run: {k} {counts[k]} vs {t['counts'][k]}"
             for t in traced[1:] for k in counts if t["counts"][k] != counts[k]]
    saved = WORK / f"counts-{workload}-{seed}.json"
    if saved.exists():
        before = json.loads(saved.read_text())
        notes += [f"count differs from the previous traced run: {k} {before.get(k)} "
                  f"-> {v}" for k, v in counts.items() if before.get(k) != v]
    saved.write_text(json.dumps(counts, indent=1, sort_keys=True))
    metrics = {k: (v, "bytes" if k.endswith("bytes_written") else "count")
               for k, v in counts.items()}
    metrics.update({k: (v, "ratio") for k, v in traced[0]["derived"].items()})
    for k in traced[0]["times"]:
        metrics[k] = (statistics.median(t["times"][k] for t in traced), "s")
    for stage in STAGE_METRICS:
        metrics[f"stage_{stage}_s"] = (statistics.median(
            r["stage_s"].get(stage, 0.0) for r in untraced), "s")
    traced_wall = [r["wall_s"] for r in done if r["mode"] == "trace"]
    metrics["tracing_overhead_s"] = (
        statistics.median(traced_wall)
        - statistics.median(r["wall_s"] for r in untraced), "s")
    over = [f"reported self times {t['reported_self_s']:.3f} s exceed the "
            f"traced wall {w:.3f} s" for t, w in zip(traced, traced_wall)
            if t["reported_self_s"] > w]
    return metrics, notes, over


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rlab" / "cli.py").is_file():
        print(f"perfbench: no rlab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    rounds_dir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(rounds_dir, ignore_errors=True)
    WORK.mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        setups = [child(args.workload, args.seed, "setup", k)["setup_s"]
                  for k in range(SETUP_PROBES)]
    done = rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(rounds_dir)
    first = done[0]
    ops = [op for r in done for op in r["ops"]]
    failed = [(name, why) for name, why in ops if why is not None]
    problems = first["problems"] + [f"check accepted a wrong output: {name}"
                                    for name in first["accepted_wrong"]]
    if args.trace:
        metrics, notes, over = layer_metrics(args.workload, args.seed, done)
        problems += over
    else:
        notes = []
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in done), "s"),
            "setup_s": (statistics.median(setups + [r["setup_s"] for r in done]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        }
    info = {
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": first["numpy"],
                    "threads": THREADS},
        "rounds": [{"mode": r["mode"], "wall_s": r["wall_s"],
                    "setup_s": r["setup_s"], "stage_s": r["stage_s"]} for r in done],
        "setup_probes_s": setups,
        "failed_operations": sorted({f"{n}: {w}" for n, w in failed}),
        "problems": problems,
        "notes": notes,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
