"""Spans around the public layer functions of okbodies, installed from outside.

The benchmark does not edit the package.  Instead, for the duration of a
traced iteration, it replaces every module-level binding of each layer
function listed in ``LAYERS`` with a wrapper that records a span: name,
start, end, parent span and iteration id.  Callers inside the package
often import helpers by name (``okbodies.census.square_move``,
``okbodies.mirror.enumerate_vertices``), so the wrapper is put on every
binding that holds the original function, found by identity across the
loaded ``okbodies`` modules.  ``NetworkChart.of`` is a classmethod and is
replaced on the class.

Spans stay in memory; ``write_jsonl`` writes them once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


# span name -> (sizes recorded per call, metrics reported for the layer).
# A span name is "<module>.<attribute>" under the okbodies package.
# Sizes are summed per iteration, like calls; "s" is self time, and
# "per_class" is calls divided by the classes the iteration worked through.
LAYERS: dict[str, tuple[Optional[Callable], tuple[str, ...]]] = {
    "polyhedra.enumerate_vertices": (
        lambda args, out: {"rows_in": len(args[0].ineqs), "verts_out": len(out)},
        ("calls", "s", "rows_in", "verts_out"),
    ),
    "polyhedra.hull_of_points": (
        lambda args, out: {"points_in": len(args[1]), "facets_out": len(out.hrep.ineqs)},
        ("calls", "s", "points_in", "facets_out"),
    ),
    "polyhedra.volume": (None, ("calls", "s")),
    "polyhedra.lattice_points": (
        lambda args, out: {"points_out": len(out)},
        ("calls", "s", "points_out"),
    ),
    "charts.NetworkChart.of": (None, ("calls", "s", "per_class")),
    "charts.val_min": (None, ("calls", "s")),
    "charts.val_max": (None, ("calls", "s")),
    "plabic.square_move": (None, ("calls", "s")),
    "plabic.movable_faces": (None, ("calls", "s")),
    "plabic.quiver_of": (None, ("calls", "s")),
    "mirror.marsh_scott_expansion": (
        lambda args, out: {"terms": out.total_terms()},
        ("calls", "s", "terms"),
    ),
    "mirror.gamma_polytope": (
        lambda args, out: {"rows_raw": len(args[0].entries), "rows_kept": len(out.ineqs)},
        ("rows_raw", "rows_kept"),
    ),
    "mirror.trop_mutate_polytope": (None, ("calls", "s")),
    "census.census": (None, ("s",)),
    "census.degree_r_valuation_scan": (None, ("calls", "s")),
    "census.verify_core": (None, ("s",)),
}

# metrics of the traced run as a whole, next to the layer metrics
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")


def metric_unit(metric: str) -> str:
    if metric.endswith(".per_class"):
        return "calls/class"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def per_layer_metrics() -> list[str]:
    names = [f"{layer}.{m}" for layer, (_, metrics) in LAYERS.items() for m in metrics]
    return names + list(TRACE_METRICS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root span
    iteration: Optional[int]
    sizes: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, sizes: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.clock(), 0.0, parent, self.iteration)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of every layer function in the loaded
        okbodies modules."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items()) if n == "okbodies" or n.startswith("okbodies.")
        ]
        for name, (sizes, _) in LAYERS.items():
            module_name, _, attr = name.partition(".")
            owner = importlib.import_module(f"okbodies.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self.wrap(name, original.__func__, sizes)))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, sizes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_totals(spans: list[Span]) -> dict[Optional[int], dict[str, dict]]:
    """Per iteration and span name: calls, self seconds and summed sizes.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly in one thread, so the children cover
    disjoint parts of the parent's interval.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[Optional[int], dict[str, dict]] = {}
    for t, span in enumerate(spans):
        row = totals.setdefault(span.iteration, {}).setdefault(span.name, {"calls": 0, "s": 0.0})
        row["calls"] += 1
        row["s"] += (span.end - span.start) - child_time[t]
        for key, value in span.sizes.items():
            row[key] = row.get(key, 0) + value
    return totals


def layer_metrics(totals: dict[str, dict], classes: int) -> dict[str, float]:
    """Flatten one iteration's totals into the named layer metrics; a layer
    the iteration never entered reads 0."""
    out: dict[str, float] = {}
    for layer, (_, metrics) in LAYERS.items():
        row = totals.get(layer, {})
        for m in metrics:
            if m == "per_class":
                out[f"{layer}.{m}"] = row.get("calls", 0) / classes
            else:
                out[f"{layer}.{m}"] = row.get(m, 0)
    return out
