"""One round of one workload, in a process of its own.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is ``time`` (untraced), ``trace`` (spans around every rlab layer),
``check`` (untraced, then the output checks and their negative controls)
or ``setup`` (stop when the first stage is called).  The parent sets the
numerical thread variables in this process's environment, so they are in
place before numpy loads.  The result file holds the monotonic time of the
first stage call (the parent subtracts its spawn time to get the set-up
time), the stage and wall times, the peak RSS, the operations and, by
mode, the per-layer summary or the check results.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads
from rlab import cli


class SetupDone(Exception):
    pass


def main(workload, seed, out, result_path, mode):
    out = Path(out)
    calls = workloads.calls(workload, int(seed))
    for label, cfg, _ in calls:
        (out / label).mkdir(parents=True)
        (out / f"{label}.json").write_text(json.dumps(cfg))

    run_experiment = cli.run_experiment
    tracer = tracing.Tracer()
    if mode == "trace":
        tracer.install()
    stage_s, first = {}, []

    def timed(name, fn):
        def stage(*args):
            if not first:
                first.append(time.monotonic())
                if mode == "setup":
                    raise SetupDone
                tracer.active = mode == "trace"
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - t0
        return stage

    for name, fn in list(cli.STAGES.items()):
        cli.STAGES[name] = timed(name, fn)
    manifests = {}
    try:
        for label, _, stages in calls:
            manifests[label], _ = run_experiment(out / f"{label}.json",
                                                 out / label, stages=stages)
    except SetupDone:
        Path(result_path).write_text(json.dumps({"t_first_stage": first[0]}))
        return
    wall_s = time.monotonic() - first[0]
    tracer.active = False
    result = {
        "t_first_stage": first[0], "wall_s": wall_s, "stage_s": stage_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": checks.operations(workload, out, manifests),
        "numpy": np.__version__,
    }
    if mode == "trace":
        result["layers"] = tracer.summary()
        tracer.dump(out / "spans.json")
    if mode == "check":
        facts = checks.facts(workload, out, calls, manifests)
        result["problems"], result["accepted_wrong"] = checks.run_checks(workload, facts)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
