"""Layer spans recorded around equifair's public functions.

``Tracer.install`` replaces each traced function, in every equifair module
that binds it, with a wrapper that records a span: name, start, end, the
index of the enclosing span, and counts read from the call's arguments or
result.  The program's own code is not changed; a call goes through exactly
one binding, so it records exactly one span.  Spans stay in memory until
the traced command ends.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics.  A ``_s`` metric is busy time; a *self* time subtracts the time of
the traced calls nested in the span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _bytes_written(metric):
    def counts(args, kwargs, result):
        return {metric: os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}

    return counts


def _apply_rows(args, kwargs, result):
    return {"eo.apply_rows": len(result)}


# (module, function, span name, counts of one call as {metric: value})
LAYERS = (
    ("predictions", "read_prediction_file", "predictions.read",
     lambda a, k, r: {"predictions.read_rows": len(r.predictions)}),
    ("predictions", "write_predictions", "predictions.write", _bytes_written("predictions.write_bytes")),
    ("metrics", "build_report", "metrics.build_report", None),
    ("metrics", "roc_curve", "metrics.roc_curve", None),
    ("metrics", "confusion_rates", "metrics.confusion_rates",
     lambda a, k, r: {"metrics.confusion_rates_calls": 1}),
    ("ensemble", "fit_ensemble", "ensemble.fit", lambda a, k, r: {"ensemble.newton_iters": r.n_iter}),
    ("ensemble", "predict_proba", "ensemble.predict", None),
    ("eo", "fit_eo_soft", "eo.fit_soft", None),
    ("eo", "fit_eo_hard", "eo.fit_hard", None),
    ("eo", "apply_soft", "eo.apply_soft", _apply_rows),
    ("eo", "apply_hard", "eo.apply_hard", _apply_rows),
    ("geometry", "convex_hull_indices", "geometry.hull",
     lambda a, k, r: {"geometry.hull_points": len(a[0]), "geometry.hull_vertices": len(r)}),
    ("geometry", "intersect_regions", "geometry.intersect",
     lambda a, k, r: {"geometry.feasible_vertices": len(r)}),
    ("debias", "load_embeddings", "debias.load", lambda a, k, r: {"debias.load_words": len(r)}),
    ("debias", "save_embeddings", "debias.save", _bytes_written("debias.save_bytes")),
    ("debias", "hard_debias", "debias.hard_debias", None),
    ("debias", "identify_subspace", "debias.identify_subspace", None),
)

# time metric -> (busy | self, span name); cli.main is the whole command
TIMES = {
    "predictions.read_s": ("busy", "predictions.read"),
    "predictions.write_s": ("busy", "predictions.write"),
    "metrics.build_report_s": ("self", "metrics.build_report"),
    "metrics.roc_curve_s": ("busy", "metrics.roc_curve"),
    "metrics.confusion_rates_s": ("busy", "metrics.confusion_rates"),
    "ensemble.fit_s": ("busy", "ensemble.fit"),
    "ensemble.predict_s": ("busy", "ensemble.predict"),
    "eo.fit_soft_s": ("self", "eo.fit_soft"),
    "eo.fit_hard_s": ("self", "eo.fit_hard"),
    "eo.apply_soft_s": ("busy", "eo.apply_soft"),
    "eo.apply_hard_s": ("busy", "eo.apply_hard"),
    "geometry.hull_s": ("busy", "geometry.hull"),
    "geometry.intersect_s": ("busy", "geometry.intersect"),
    "debias.load_s": ("busy", "debias.load"),
    "debias.save_s": ("busy", "debias.save"),
    "debias.hard_debias_s": ("self", "debias.hard_debias"),
    "debias.identify_subspace_s": ("busy", "debias.identify_subspace"),
    "cli.self_s": ("self", "cli.main"),
}
COUNT_UNITS = {
    "predictions.read_rows": "rows",
    "predictions.write_bytes": "bytes",
    "metrics.confusion_rates_calls": "count",
    "ensemble.newton_iters": "count",
    "eo.apply_rows": "rows",
    "geometry.hull_points": "count",
    "geometry.hull_vertices": "count",
    "geometry.feasible_vertices": "count",
    "debias.load_words": "words",
    "debias.save_bytes": "bytes",
}
# every per-layer metric with its unit; the last three are measured outside
# the spans (import of equifair.cli, the set-up children, traced vs untraced)
PER_LAYER_UNITS = {
    **{m: "s" for m in TIMES},
    **COUNT_UNITS,
    "cli.import_s": "s",
    "synth.generate_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans of the traced functions of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in equifair's modules.

        A function the program no longer has is skipped, and its layer
        reads 0, so a renamed layer shows in the metrics instead of
        stopping the benchmark."""
        for module, function, name, counts in LAYERS:
            original = getattr(importlib.import_module(f"equifair.{module}"), function, None)
            if original is None:
                continue
            traced = self.wrap(original, name, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "equifair" and getattr(mod, function, None) is original:
                    setattr(mod, function, traced)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Span-based per-layer metrics of one traced run, plus cli.import_s.

    ``doc`` is what traced_child.py writes: ``{"import_s", "spans"}``.
    """
    spans = doc["spans"]
    busy: dict[str, float] = defaultdict(float)
    nested: dict[str, float] = defaultdict(float)
    out: dict[str, float] = {m: 0 for m in COUNT_UNITS}
    for span in spans:
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        if span["parent"] is not None:
            nested[spans[span["parent"]]["name"]] += duration
        for metric, value in span.get("counts", {}).items():
            out[metric] += value
    for metric, (kind, name) in TIMES.items():
        out[metric] = busy[name] - (nested[name] if kind == "self" else 0.0)
    out["cli.import_s"] = doc["import_s"]
    return out
