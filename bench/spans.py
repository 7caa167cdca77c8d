"""Spans and counts around the calls into ctrlcost's modules, from outside them.

``install()`` wraps each function in ``TRACED`` wherever a ctrlcost module
binds it: in its home module, in every module that imported it by name, and
on its class for methods. A wrapper records one span (name, start, end,
parent) and adds the call's counts. Spans stay in memory; ``write`` puts
them in a CSV after the run. A function that a later version of the program
no longer has is skipped, and its metrics are left unreported.

Layers are the modules; a span's self time is its duration minus the
durations of the spans opened inside it.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def _points(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return {"ramps.eval.points": getattr(t, "size", 1)}


def _cells(span):
    def count(args, kwargs, result):
        # the scans return {"tau": taus, protocol: costs, ...}
        return {f"{span}.cells": len(result["tau"]) * (len(result) - 1)}
    return count


def _classical_steps(args, kwargs, result):
    from ctrlcost.oscillator import default_steps
    asked = args[1] if len(args) > 1 else kwargs.get("steps")
    if asked is None:
        asked = default_steps(args[0])
    used = len(result.times) - 1
    return {"oscillator.classical_solutions.steps": used,
            "oscillator.classical_solutions.refined": int(used > asked)}


def _write_bytes(args, kwargs, result):
    return {"cli.write.bytes": os.path.getsize(args[0].path)}


# (module, function or Class.method, span name, counts(args, kwargs, result))
TRACED = [
    ("twolevel", "propagate", "twolevel.propagate",
     lambda a, k, r: {"twolevel.propagate.steps": len(r.times) - 1}),
    ("twolevel", "converged_final_state", "twolevel.converged_final_state",
     lambda a, k, r: {"twolevel.converged_final_state.steps_used": r[1]}),
    ("twolevel", "final_state", "twolevel.final_state", None),
    # private, but oc.py binds them: the final-state step product of every OC evaluation
    ("twolevel", "_su2_steps", "twolevel.su2_steps", None),
    ("twolevel", "_ordered_product", "twolevel.ordered_product",
     lambda a, k, r: {"twolevel.ordered_product.steps": len(a[0])}),
    ("twolevel", "instantaneous_eigenstates", "twolevel.instantaneous_eigenstates", None),
    ("twolevel", "integrated_cost", "twolevel.integrated_cost", None),
    ("ramps", "Ramp.value", "ramps.eval", _points),
    ("ramps", "Ramp.deriv1", "ramps.eval", _points),
    ("ramps", "Ramp.deriv2", "ramps.eval", _points),
    ("landau_zener", "cost_scan", "landau_zener.cost_scan",
     _cells("landau_zener.cost_scan")),
    ("landau_zener", "find_cd_lcd_crossover", "landau_zener.find_cd_lcd_crossover", None),
    ("landau_zener", "optimize_bob_kicks", "landau_zener.optimize_bob_kicks", None),
    ("landau_zener", "run_protocol", "landau_zener.run_protocol", None),
    ("oscillator", "classical_solutions", "oscillator.classical_solutions",
     _classical_steps),
    ("oscillator", "qstar_series", "oscillator.qstar_series", None),
    ("oscillator", "oscillator_cost", "oscillator.oscillator_cost", None),
    ("oscillator", "cd_validity_edge", "oscillator.cd_validity_edge", None),
    ("jaynes_cummings", "ensemble_run", "jaynes_cummings.ensemble_run",
     lambda a, k, r: {"jaynes_cummings.ensemble_run.blocks": len(r.weights)}),
    ("jaynes_cummings", "block_run", "jaynes_cummings.block_run", None),
    ("jaynes_cummings", "find_jc_crossover", "jaynes_cummings.find_jc_crossover", None),
    ("jaynes_cummings", "jc_cost_scan", "jaynes_cummings.jc_cost_scan",
     _cells("jaynes_cummings.jc_cost_scan")),
    ("oc", "optimize", "oc.optimize", lambda a, k, r: {"oc.nfev": r.nfev}),
    ("oc", "refine_result", "oc.refine_result", None),
    ("cli", "run", "cli.run", None),
    ("cli", "CsvWriter.write", "cli.write", _write_bytes),
]

# Per-layer metrics a traced round reports, with units, as BENCHMARK.json lists
# them. "<span>.calls" and "<span>.self_s" come from the spans, the rest from
# the counts; "trace.wall_s", the round's wall time, is added by run.py.
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ["per_layer"]]


class Tracer:
    """Spans [name, start, end, parent index] and per-round counts, in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.round_start = 0
        self.installed = set()   # span names whose function was found

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def begin_round(self):
        self.round_start = len(self.spans)
        self.counts = {}

    def end_round(self) -> dict:
        """Per-layer metrics of the round since begin_round."""
        spans = self.spans[self.round_start:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= self.round_start:
                child[parent - self.round_start] += end - start
        metrics = {}
        for name in self.installed:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
        optimize_s = 0.0
        for (name, start, end, _), c in zip(spans, child):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += end - start - c
            if name == "oc.optimize":
                optimize_s += end - start
        for metric, _ in PER_LAYER:
            span = metric.rsplit(".", 1)[0]
            if span in self.installed and metric not in metrics:
                metrics[metric] = self.counts.get(metric, 0)
        if "oc.optimize" in self.installed:
            nfev = metrics["oc.nfev"] = self.counts.get("oc.nfev", 0)
            metrics["oc.eval_ms"] = 1e3 * optimize_s / nfev if nfev else 0.0
        return {m: metrics[m] for m, _ in PER_LAYER if m in metrics}

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent])


def _count_points(tracer, fn):
    """cost_rate is not a span: it adds its sample count to an enclosing integrated_cost."""
    spans, stack = tracer.spans, tracer.stack

    def counted(schedule, t, *args, **kwargs):
        if stack and spans[stack[-1]][0] == "twolevel.integrated_cost":
            key = "twolevel.integrated_cost.points"
            tracer.counts[key] = tracer.counts.get(key, 0) + getattr(t, "size", 1)
        return fn(schedule, t, *args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _rebind(modules, owner, attr, new) -> None:
    """Replace owner.attr by new in every module that binds the same object."""
    old = getattr(owner, attr)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
    if isinstance(owner, type):
        for key, value in list(vars(owner).items()):
            if value is old:   # aliases such as Ramp.__call__ = value
                setattr(owner, key, new)


def install() -> Tracer:
    """Wrap every traced function that the imported ctrlcost package has."""
    import ctrlcost.cli  # noqa: F401 - imports every module the CLI reaches

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ctrlcost" or n.startswith("ctrlcost."))]
    for module, target, span, count in TRACED:
        owner = sys.modules.get(f"ctrlcost.{module}")
        *cls, attr = target.split(".")
        if owner is not None and cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or not callable(getattr(owner, attr, None)):
            continue
        _rebind(modules, owner, attr, tracer.wrap(span, getattr(owner, attr), count))
        tracer.installed.add(span)
    twolevel = sys.modules.get("ctrlcost.twolevel")
    if "twolevel.integrated_cost" in tracer.installed and hasattr(twolevel, "cost_rate"):
        _rebind(modules, twolevel, "cost_rate", _count_points(tracer, twolevel.cost_rate))
    return tracer
