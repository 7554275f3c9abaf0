"""Self-tests of the benchmark's own arithmetic and bindings.

    PYTHONPATH=src python3 -m pytest -q bench

They use synthetic inputs, except the binding tests, which wrap the real
package and run the small (2,5) census.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from okbodies import census as census_mod  # noqa: E402
from okbodies import charts, mirror, polyhedra  # noqa: E402
from okbodies.partitions import GridShape  # noqa: E402


class TickClock:
    """A clock that advances by one tick per reading."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


def test_self_time_of_nested_spans():
    # trop_mutate_polytope > hull_of_points > enumerate_vertices, plus a
    # sibling enumerate_vertices directly under trop_mutate_polytope
    tracer = tracing.Tracer(clock=TickClock())
    enum = tracer.wrap("polyhedra.enumerate_vertices", lambda: None)
    hull = tracer.wrap("polyhedra.hull_of_points", lambda: enum())
    trop = tracer.wrap("mirror.trop_mutate_polytope", lambda: (enum(), hull()))
    tracer.iteration = 3
    trop()
    # readings: trop 1..8, enum 2..3, hull 4..7, enum 5..6
    spans = tracer.spans
    assert [(s.name, s.start, s.end, s.parent) for s in spans] == [
        ("mirror.trop_mutate_polytope", 1, 8, -1),
        ("polyhedra.enumerate_vertices", 2, 3, 0),
        ("polyhedra.hull_of_points", 4, 7, 0),
        ("polyhedra.enumerate_vertices", 5, 6, 2),
    ]
    totals = tracing.layer_totals(spans)[3]
    assert totals["mirror.trop_mutate_polytope"] == {"calls": 1, "s": 7 - 1 - 3}
    assert totals["polyhedra.hull_of_points"] == {"calls": 1, "s": 3 - 1}
    assert totals["polyhedra.enumerate_vertices"] == {"calls": 2, "s": 2}
    # self times add up to the root span
    assert sum(row["s"] for row in totals.values()) == 8 - 1


def test_span_ends_and_stack_unwinds_when_the_call_raises():
    tracer = tracing.Tracer(clock=TickClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("polyhedra.volume", boom)
    with pytest.raises(ValueError):
        wrapped()
    tracer.wrap("polyhedra.volume", lambda: None)()
    assert [(s.start, s.end, s.parent) for s in tracer.spans] == [(1, 2, -1), (3, 4, -1)]


def test_sizes_and_iterations_are_kept_apart():
    tracer = tracing.Tracer(clock=TickClock())
    lattice = tracer.wrap(
        "polyhedra.lattice_points", lambda n: tuple(range(n)), lambda a, out: {"points_out": len(out)}
    )
    for it, sizes in ((0, (3, 4)), (1, (5,))):
        tracer.iteration = it
        for n in sizes:
            lattice(n)
    totals = tracing.layer_totals(tracer.spans)
    assert totals[0]["polyhedra.lattice_points"]["points_out"] == 7
    assert totals[1]["polyhedra.lattice_points"] == {"calls": 1, "s": 1, "points_out": 5}


def test_layer_metrics_fill_absent_layers_and_per_class():
    totals = {"charts.NetworkChart.of": {"calls": 121, "s": 0.5}}
    metrics = tracing.layer_metrics(totals, classes=34)
    assert metrics["charts.NetworkChart.of.per_class"] == 121 / 34
    assert metrics["polyhedra.hull_of_points.calls"] == 0
    assert set(metrics) == set(tracing.per_layer_metrics()) - set(tracing.TRACE_METRICS)


def test_fail_ratio():
    assert stats.fail_ratio(0, 11) == 0
    assert stats.fail_ratio(2, 8) == 0.25
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(3, 2)


def test_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles(values) == (2.75, 5.5, 8.25)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    with pytest.raises(ValueError):
        stats.quartiles([])


def test_traced_order_alternates_in_pairs():
    assert [worker.is_traced(i) for i in range(8)] == [False, True, True, False] * 2


@dataclass(frozen=True)
class FailingWorkload:
    """Every iteration raises before any of its two checks can run."""

    check_names: tuple = ("a", "b")

    def prepare(self, state):
        return state

    def run(self, state, item):
        raise RuntimeError("broken iteration")


def test_failed_iteration_is_timed_and_counted():
    res = worker.measure(FailingWorkload(), None, seconds=0.0)
    assert len(res["wall_s"]) == 1  # no time left after the first iteration
    assert res["attempted"] == 2
    assert res["failed"] == 2
    assert res["failures"] == ["iteration 0: a", "iteration 0: b"]


def test_counts_repeat_check_catches_a_changed_count():
    wl = workloads.CENSUS
    first = {
        "polyhedra.enumerate_vertices.calls": 34,
        "plabic.square_move.calls": 120,
        "charts.NetworkChart.of.calls": 121,
        "polyhedra.enumerate_vertices.s": 1.0,
    }
    same = dict(first, **{"polyhedra.enumerate_vertices.s": 2.0})
    assert all(worker._layer_checks(wl, same, first).values())
    moved = dict(first, **{"plabic.square_move.calls": 119})
    checks = worker._layer_checks(wl, moved, first)
    assert not checks["counts-repeat"] and not checks["calls:plabic.square_move"]


def test_install_wraps_every_alias_and_uninstall_restores():
    originals = (polyhedra.enumerate_vertices, mirror.enumerate_vertices, census_mod.square_move)
    of = charts.NetworkChart.__dict__["of"]
    assert polyhedra.enumerate_vertices is mirror.enumerate_vertices
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polyhedra.enumerate_vertices is not originals[0]
        assert mirror.enumerate_vertices is polyhedra.enumerate_vertices
        assert census_mod.square_move is not originals[2]
        assert charts.NetworkChart.__dict__["of"] is not of
        rep = census_mod.census(GridShape(2, 5))
    finally:
        tracer.uninstall()
    assert (polyhedra.enumerate_vertices, mirror.enumerate_vertices, census_mod.square_move) == originals
    assert charts.NetworkChart.__dict__["of"] is of
    totals = tracing.layer_totals(tracer.spans)[None]
    # one polytope and one lattice sweep per class, one census
    assert rep.class_count == 5
    assert totals["polyhedra.enumerate_vertices"]["calls"] == 5
    assert totals["polyhedra.lattice_points"]["calls"] == 5
    assert totals["census.census"]["calls"] == 1
    roots = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in roots] == ["census.census"]


def test_benchmark_json_matches_the_code():
    path = HERE.parent / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("BENCHMARK.json is not in this tree")
    doc = json.loads(path.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.SETUP_SAMPLES) == set(workloads.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == tracing.per_layer_metrics()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in doc["per_layer"])
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]

