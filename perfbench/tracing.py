"""Spans around the public functions of every rlab module, from outside.

``install`` wraps each public function of the layer modules (plus the few
private ones the per-layer metrics name) and rebinds the wrapper in every
rlab namespace that holds the original, including ``cli.STAGES`` and the
package re-exports, so calls between modules are seen too.  ``MetricField``
is traced by wrapping its ``__init__``.  The program's source is unchanged.

A span is ``[name, start, end, parent]``; spans stay in memory and are
summarised when the workload ends.  Self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("mesh", "tensor", "flow", "identities", "functionals", "comparison",
          "uniqueness", "snapshots", "config", "cli", "instances")
PRIVATE = {"flow._diagnose", "functionals._mu_gradient"}
STENCILS = ("mesh.diff1", "mesh.diff2", "mesh.grad_stack")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.mu_iterations = 0
        self.bytes_written = 0

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_bytes(self, args, result):
        self.bytes_written += os.path.getsize(args[0])

    def _count_iterations(self, args, report):
        self.mu_iterations += report.iterations

    def install(self):
        import rlab
        mods = {layer: importlib.import_module(f"rlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    continue
                after = None
                if name == "functionals.mu_minimize":
                    after = self._count_iterations
                elif layer == "snapshots" and attr.startswith("write_") \
                        and attr != "write_checkpoint":   # it calls write_snapshot
                    after = self._count_bytes
                wrappers[obj] = self.wrap(name, obj, after)
        for mod in (rlab, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        stages = mods["cli"].STAGES
        for key, fn in stages.items():
            stages[key] = wrappers[fn]
        field = mods["mesh"].MetricField
        field.__init__ = self.wrap("mesh.MetricField", field.__init__)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))

    def summary(self):
        """Per-layer metrics of one traced round."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = {}, {}, {}
        for k, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[k]
            total_s[name] = total_s.get(name, 0.0) + (end - start)

        def under(name, ancestor):
            n = 0
            for span in spans:
                if span[0] != name:
                    continue
                p = span[3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                n += p >= 0
            return n

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        steps = c("flow.step")
        objective = c("functionals.w_entropy_w_form")
        counts = {
            "tensor.curvature.calls": c("tensor.curvature"),
            "tensor.norm_sq.calls": c("tensor.norm_sq"),
            "flow.flow_rhs.calls": c("flow.flow_rhs"),
            "flow.step.calls": steps,
            "flow._diagnose.calls": c("flow._diagnose"),
            "mesh.MetricField.calls": c("mesh.MetricField"),
            "mesh.integrate.calls": c("mesh.integrate"),
            "functionals.mu_minimize.iterations": self.mu_iterations,
            "functionals.objective_evals": objective,
            "functionals.gradient_evals": c("functionals._mu_gradient"),
            "identities.evaluate_identity.calls": c("identities.evaluate_identity"),
            "identities.curvature_evals": under("tensor.curvature",
                                                "identities.evaluate_identity"),
            "uniqueness.difference_bundle.calls": c("uniqueness.difference_bundle"),
            "snapshots.bytes_written": self.bytes_written,
        }
        derived = {
            "tensor.curvature.calls_per_step": (
                under("tensor.curvature", "flow.run") / steps if steps else 0.0),
            "functionals.accepted_ratio": (
                self.mu_iterations / objective if objective else 0.0),
        }
        times = {f"{name}.self_s": s(name) for name in (
            "tensor.curvature", "tensor.weyl_tensor", "flow.flow_rhs",
            "flow.step", "tensor.christoffel", "tensor.riemann_lowered",
            "tensor.norm_sq", "tensor.hessian", "mesh.MetricField",
            "flow._diagnose", "functionals.mu_minimize",
            "identities.evaluate_identity", "tensor.rough_laplacian",
            "uniqueness.difference_bundle", "uniqueness.energy", "tensor.cov_d",
            "comparison.scalar_order", "tensor.riemann_13")}
        # inclusive times of the two layers whose work sits mostly in callees
        times.update({f"{name}.total_s": total_s.get(name, 0.0) for name in (
            "flow._diagnose", "functionals.mu_minimize")})
        times["mesh.stencil.self_s"] = sum(s(name) for name in STENCILS)
        times["snapshots.write_s"] = sum(
            v for name, v in self_s.items() if name.startswith("snapshots.write_"))
        return {"counts": counts, "derived": derived, "times": times,
                "reported_self_s": sum(v for k, v in times.items()
                                       if not k.endswith(".total_s"))}
