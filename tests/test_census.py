"""Square-move census, verification suites and the command line, pinned on
the small shapes and the two fractional classes of the 3x3 grid."""

import dataclasses
import gc
import json
import os
import random
import re
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest

import oracles
from okbodies import census as census_module
from okbodies import charts as charts_module
from okbodies import cli as cli_module
from okbodies import plabic as plabic_module
from okbodies import polyhedra as polyhedra_module
from okbodies.census import (
    CensusGuardError,
    CensusReport,
    EXPECTED_COUNTS,
    _check_transport,
    census,
    class_key,
    degree_r_valuation_scan,
    plucker_binomial_valuation,
    verify_core,
)
from okbodies.charts import NetworkChart
from okbodies.cli import _resolve_class, main
from okbodies.partitions import GridShape, label_sort_key, parse_partition
from okbodies.plabic import (
    PlabicGraph,
    build_rectangles,
    face_labels,
    movable_faces,
    normalize,
    quiver_of,
    square_move,
)
from okbodies.mirror import (
    TropMutation,
    gamma_polytope,
    gamma_qpolytope,
    gamma_system,
    marsh_scott_expansion,
    relabel_polytope,
    standard_r_vec,
    trop_mutate_polytope,
)
from okbodies.polyhedra import (
    enumerate_vertices,
    gt_pattern_count,
    gt_polytope,
    hull_of_points,
    lattice_points,
    qpolytope,
    same_vertex_set,
    volume,
    volume_formula,
)

F = Fraction

# the two classes of the 3x3 grid whose polytope picks up a half-integral
# vertex, with the vertex in canonical coordinate order
G1_KEY = "1,1|2|1,1,1|2,1|3|2,2,2|3,3|3,3,2|3,3,3"
G1_VERTEX = (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1), F(1), F(3, 2), F(3, 2))
G2_KEY = "1,1,1|3|2,2,1|3,1,1|3,2|2,2,2|3,2,1|3,3|3,3,3"
G2_VERTEX = (F(1, 2), F(1, 2), F(1), F(1), F(1), F(1), F(1), F(1), F(3, 2))

G35_KEYS = {
    "1|1,1|2|3|2,2|3,3",
    "1|1,1|3|2,2|3,2|3,3",
    "1,1|2|2,1|3|2,2|3,3",
    "1,1|2,1|3|2,2|3,1|3,3",
    "1,1|3|2,2|3,1|3,2|3,3",
}


@pytest.fixture(scope="module")
def census35():
    return census(GridShape(3, 5))


@pytest.fixture(scope="module")
def census36():
    return census(GridShape(3, 6))


def parse_key(s):
    return tuple(sorted((parse_partition(t) for t in s.split("|")), key=label_sort_key))


# -- enumeration ------------------------------------------------------------

def test_counts_g24():
    rep = census(GridShape(2, 4))
    assert (rep.class_count, rep.integral_count, rep.nonintegral_count) == (2, 2, 0)
    assert {c.key_str for c in rep.classes} == {"1|1,1|2|2,2", "1,1|2|2,1|2,2"}


def test_counts_g35(census35):
    rep = census35
    assert (rep.class_count, rep.integral_count, rep.nonintegral_count) == (5, 5, 0)
    assert {c.key_str for c in rep.classes} == G35_KEYS


def test_counts_g36(census36):
    rep = census36
    assert (rep.class_count, rep.integral_count, rep.nonintegral_count) == (34, 32, 2)


def test_root_class_is_rectangles(census35):
    root = next(c for c in census35.classes if c.parent is None)
    assert root.path == ()
    chart = NetworkChart.of(normalize(build_rectangles(GridShape(3, 5))))
    assert root.key == class_key(chart.labels)


def test_paths_replay_to_their_class(census35):
    # walking the recorded move sequence from the rectangles graph must land
    # on a graph with the class label set
    G0 = normalize(build_rectangles(GridShape(3, 5)))
    for c in census35.classes:
        G = G0
        for nu, new in c.path:
            res = square_move(G, nu)
            assert res.new_label == new
            G = res.graph
        assert class_key(NetworkChart.of(G).labels) == c.key


def test_census_agrees_with_shuffled_walk(census35):
    # re-enumerate with a randomized frontier; the class set cannot depend
    # on exploration order
    rng = random.Random(99)
    G = normalize(build_rectangles(GridShape(3, 5)))
    seen = {class_key(NetworkChart.of(G).labels)}
    frontier = [G]
    while frontier:
        G = frontier.pop(rng.randrange(len(frontier)))
        faces = list(movable_faces(G))
        rng.shuffle(faces)
        for nu in faces:
            H = square_move(G, nu).graph
            key = class_key(NetworkChart.of(H).labels)
            if key not in seen:
                seen.add(key)
                frontier.append(H)
    assert seen == {c.key for c in census35.classes}


def test_seed_does_not_change_classes():
    a = census(GridShape(2, 4), seed=1)
    b = census(GridShape(2, 4), seed=2)
    assert [c.key for c in a.classes] == [c.key for c in b.classes]
    assert [c.vertices for c in a.classes] == [c.vertices for c in b.classes]


def test_movable_faces_are_the_accepted_square_moves(census35):
    for c in census35.classes:
        accepted = []
        for lam in face_labels(c.graph).labels:
            try:
                square_move(c.graph, lam)
            except ValueError:
                continue
            accepted.append(lam)
        assert sorted(accepted, key=label_sort_key) == movable_faces(c.graph)


def test_move_graph_is_a_pentagon(census35):
    adj = {}
    for c in census35.classes:
        nbrs = set()
        for nu in movable_faces(c.graph):
            H = square_move(c.graph, nu).graph
            nbrs.add(class_key(NetworkChart.of(H).labels))
        adj[c.key] = nbrs
    assert all(len(v) == 2 for v in adj.values())
    # degree two everywhere plus connectivity forces a single 5-cycle
    start = next(iter(adj))
    reach, todo = {start}, [start]
    while todo:
        for nb in adj[todo.pop()]:
            if nb not in reach:
                reach.add(nb)
                todo.append(nb)
    assert reach == set(adj)


def test_guards():
    with pytest.raises(CensusGuardError, match="deep"):
        census(GridShape(3, 7))
    with pytest.raises(CensusGuardError, match="force"):
        census(GridShape(4, 8), deep=True)
    assert (3, 7) in EXPECTED_COUNTS  # the deep pin stays declared


def test_degenerate_segment():
    rep = census(GridShape(1, 2))
    assert rep.class_count == 1
    c = rep.classes[0]
    assert c.graph is None
    assert c.key == ((1,),)
    assert set(c.vertices) == {(F(0),), (F(1),)}
    assert set(c.lattice) == {(0,), (1,)}
    assert c.integral


# -- per-class data ---------------------------------------------------------

def test_lattice_and_integrality_g35(census35):
    for c in census35.classes:
        assert c.integral and not c.nonintegral_vertices
        assert len(c.lattice) == 10
        assert set(c.vertices) == {tuple(F(x) for x in p) for p in c.lattice}


def test_fractional_classes_g36(census36):
    bad = [c for c in census36.classes if not c.integral]
    assert {c.key_str for c in bad} == {G1_KEY, G2_KEY}
    by_key = {c.key_str: c for c in bad}
    assert by_key[G1_KEY].nonintegral_vertices == (G1_VERTEX,)
    assert by_key[G2_KEY].nonintegral_vertices == (G2_VERTEX,)
    # the fractional vertex sits outside the lattice points but inside the
    # polytope, and everything else is integral
    for c in bad:
        assert len(c.lattice) == 20
        assert len(c.nonintegral_vertices) == 1
        assert oracles.contains(c.polytope.hrep.ineqs, c.nonintegral_vertices[0])


def test_integer_mutation_matches_the_fraction_mutation_on_the_fractional_classes(census36):
    # trop_mutate_polytope mutates the piece vertices scaled to integers
    # over their common denominator; here they are mutated as Fractions
    for c in census36.classes:
        if c.integral:
            continue
        P = c.polytope
        for nu in movable_faces(c.graph):
            move = TropMutation.of(c.quiver, nu, P.coords, nu)
            bend = tuple(F(o - i) for i, o in zip(move.into, move.out))
            images = {
                move.mutate(v)
                for half in (bend, tuple(-x for x in bend))
                for v in qpolytope(P.hrep.with_ineqs([(half, F(0))])).vertices
            }
            assert any(x.denominator != 1 for v in images for x in v)
            got = trop_mutate_polytope(P, c.quiver, nu)
            assert got.vertices == hull_of_points(P.coords, images).vertices, (c.key_str, nu)


def test_census_checks_each_quiver_against_its_parents(census35, monkeypatch):
    target = next(c for c in census35.classes if c.parent is not None)
    real_quiver_of = census_module.quiver_of

    def quiver_with_one_arrow_flipped(G):
        Q = real_quiver_of(G)
        if class_key(Q.labels) == target.key:
            x = next(x for x in Q.labels if x not in Q.frozen and Q.b.get(x))
            y, m = next(iter(Q.b[x].items()))
            Q.b[x][y], Q.b[y][x] = -m, m
        return Q

    monkeypatch.setattr(census_module, "quiver_of", quiver_with_one_arrow_flipped)
    with pytest.raises(AssertionError, match=re.escape(f"class {target.key_str}:")):
        census(GridShape(3, 5))


def test_degree_one_scan_is_onto_g35(census35):
    for c in census35.classes:
        scan = degree_r_valuation_scan(c.chart, 1, c.polytope)
        assert scan.contained and not scan.missing
        assert len(scan.points) == 10


def test_degree_two_scan_misses_the_doubled_vertex(census36):
    for key, vertex in ((G1_KEY, G1_VERTEX), (G2_KEY, G2_VERTEX)):
        c = census36.record(parse_key(key))
        scan = degree_r_valuation_scan(c.chart, 2, c.polytope)
        assert scan.missing == {tuple(int(2 * x) for x in vertex)}


def test_volume_matches_the_pulling_oracle_g36(census36):
    root = next(c for c in census36.classes if c.parent is None)
    g1, g2 = (census36.record(parse_key(key)).polytope for key in (G1_KEY, G2_KEY))
    for P in (root.polytope, g1, g2):
        assert volume(P) == oracles.volume_by_pulling(P) == volume_formula(GridShape(3, 6))
    doubled = oracles.dilate(g1, 2)
    assert volume(doubled) == oracles.volume_by_pulling(doubled) == 2**9 * volume_formula(GridShape(3, 6))


def test_binomial_valuation_halves_to_the_fractional_vertex(census36):
    # P_{124} P_{356} - P_{123} P_{456} over the top coordinate squared:
    # its lowest term sees the vertex that no monomial in the homogeneous
    # coordinates can reach
    c = census36.record(parse_key(G1_KEY))
    val = plucker_binomial_valuation(c.chart, ((3, 3, 2), (1,)), ((3, 3, 3), ()))
    assert val == (1, 1, 1, 1, 1, 2, 2, 3, 3)
    assert tuple(F(x, 2) for x in val) == G1_VERTEX


# -- verification suites ----------------------------------------------------

def test_verify_core_g35(census35):
    rep = verify_core(GridShape(3, 5), suite="full", report=census35)
    assert rep.ok, rep.render()
    names = [c.name for c in rep.checks]
    assert "golden-valuation-table" in names
    assert "move-transport" in names


def _spoil_a_zero_of_an_integral_vertex(doc, entry):
    rec = doc["classes"][1]
    assert rec["integral"] is True
    v = next(v for v in rec["vertices"] if "0" in v)
    v[v.index("0")] = entry


def test_census_json_refuses_a_half_integral_vertex_on_an_integral_class(census35):
    # a 0 turned into 1/2 makes the class fractional, against its verdict
    doc = json.loads(json.dumps(census35.to_json()))
    _spoil_a_zero_of_an_integral_vertex(doc, "1/2")
    with pytest.raises(ValueError, match="not its vertices' verdict"):
        CensusReport.from_json(doc)


def test_verify_flags_an_integral_vertex_off_the_lattice(census35):
    # a 0 turned into 7 keeps the class integral, and the vertex is no
    # degree-one lattice point
    doc = json.loads(json.dumps(census35.to_json()))
    _spoil_a_zero_of_an_integral_vertex(doc, "7")
    rep = verify_core(GridShape(3, 5), report=CensusReport.from_json(doc))
    assert [c.name for c in rep.checks if not c.ok] == ["integral-vertices-are-lattice-points"]


def test_verify_reads_a_census_whose_graphs_are_out_of_normal_form(census35):
    # census files may hold graphs that are not in normal form (every
    # internal edge subdivided here); they load, keep their keys and verify
    doc = json.loads(json.dumps(census35.to_json()))
    for rec, c in zip(doc["classes"], census35.classes):
        rec["graph"] = oracles.subdivided(c.graph).to_json()
    back = CensusReport.from_json(doc)
    assert all(len(b.graph.rot) > len(c.graph.rot) for b, c in zip(back.classes, census35.classes))
    rep = verify_core(GridShape(3, 5), suite="full", report=back)
    assert rep.ok, rep.render()
    assert [c.quiver for c in back.classes] == [c.quiver for c in census35.classes]


def test_verify_times_each_check(census35):
    rep = verify_core(GridShape(3, 5), suite="full", report=census35)
    lines = rep.render().splitlines()
    for c in rep.checks:
        assert c.seconds >= 0
        assert any(f"] {c.name} ({c.seconds:.3f}s)" in line for line in lines)


def test_verify_core_g36(census36):
    rep = verify_core(GridShape(3, 6), suite="core", report=census36)
    assert rep.ok, rep.render()
    by_name = {c.name: c for c in rep.checks}
    assert "nonintegral-vertex-unique" in by_name  # pinned on (3,6)
    # the degree-two check is billed its own scans
    two = by_name["degree-two-scan-misses-only-the-doubled-vertex"]
    assert two.seconds > 0
    assert two.detail == "2/2 classes; fractional vertices per class 1:2"


def test_verify_refuses_a_report_of_another_shape(census35):
    with pytest.raises(ValueError, match=r"census of \(3,5\) cannot verify \(3,6\)"):
        verify_core(GridShape(3, 6), suite="full", report=census35)


@pytest.mark.parametrize("extra", [F(1, 2), F(1, 3)])
def test_degree_two_check_fails_on_a_fractional_vertex_off_its_scan(census36, extra):
    # a second fractional vertex on a (3,6) class: a half-integral one is
    # no point the scan misses, a third-integral one no half-integral vertex
    c = census36.record(parse_key(G1_KEY))
    tampered = dataclasses.replace(c, vertices=c.vertices + ((extra,) * len(c.key),))
    classes = tuple(tampered if r is c else r for r in census36.classes)
    rep = verify_core(GridShape(3, 6), report=dataclasses.replace(census36, classes=classes))
    failed = [check.name for check in rep.checks if not check.ok]
    assert failed == ["nonintegral-vertex-unique", "degree-two-scan-misses-only-the-doubled-vertex"]
    assert rep.checks[-1].detail == "1/2 classes; fractional vertices per class 1:1 2:1"


def patch_every_binding(monkeypatch, real, replacement) -> set[str]:
    """Replace every binding of the function ``real`` in the loaded okbodies
    modules, found by identity, so that a caller that imported it by name
    calls ``replacement`` too; returns the names of the patched modules."""
    bindings = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name == "okbodies" or module_name.startswith("okbodies.")
        for name, value in list(vars(module).items())
        if value is real
    ]
    for module, name in bindings:
        monkeypatch.setattr(module, name, replacement)
    return {module.__name__ for module, _ in bindings}


def count_enumerations(monkeypatch) -> list[tuple]:
    """Put a counter on every binding of enumerate_vertices; each call
    appends its system and its vertices."""
    real = polyhedra_module.enumerate_vertices
    calls = []

    def counting(H, start=None):
        out = real(H, start)
        calls.append((H, out))
        return out

    patched = patch_every_binding(monkeypatch, real, counting)
    assert patched >= {"okbodies.polyhedra", "okbodies.mirror"}
    return calls


def test_verify_g36_enumerates_no_vertices(census36, monkeypatch):
    # the full suite reads every vertex set off the census
    calls = count_enumerations(monkeypatch)
    assert verify_core(GridShape(3, 6), suite="full", report=census36).ok
    assert calls == []
    # the counter does count: one polytope built from its rows is one call
    polyhedra_module.qpolytope(census36.classes[0].polytope.hrep)
    assert len(calls) == 1


def test_census_g36_searches_matchings_only_for_the_superpotential(monkeypatch):
    # one search per boundary set J^i of each class's matching expansion;
    # a chart alone, on a class or on a moved graph, searches none
    real = plabic_module.boundary_matchings
    searches = []

    def counting(G, J=None):
        searches.append(J)
        return real(G, J)

    patched = patch_every_binding(monkeypatch, real, counting)
    assert patched >= {"okbodies.plabic", "okbodies.charts", "okbodies.mirror"}
    census(GridShape(3, 6))
    assert len(searches) == 34 * 6


def count_property_runs(monkeypatch, cls, names) -> Counter:
    """Put a counter on the body of each cached property of ``cls`` named
    in ``names``: a value seeded into an instance never runs it."""
    runs = Counter()
    for name in names:

        def counting(self, func=vars(cls)[name].func, name=name):
            runs[name] += 1
            return func(self)

        prop = cached_property(counting)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    return runs


def rectangles_start(shape):
    """The rectangles graph of ``shape`` and its degree-one polytope."""
    G = normalize(build_rectangles(shape))
    return G, gamma_qpolytope(marsh_scott_expansion(NetworkChart.of(G)), standard_r_vec(shape, 1))


def transport_walk(G, P, steps=6, seed=7):
    """The walk of scripts/transport_demo.py from the graph G and its
    polytope P, each transported polytope checked against the polytope of
    the new chart."""
    rng = random.Random(seed)
    r_vec = standard_r_vec(G.shape, 1)
    for _ in range(steps):
        nu = rng.choice(sorted(movable_faces(G)))
        quiver = quiver_of(G)
        res = square_move(G, nu, rng)
        moved = relabel_polytope(trop_mutate_polytope(P, quiver, nu), nu, res.new_label)
        G = res.graph
        P = gamma_qpolytope(marsh_scott_expansion(NetworkChart.of(G)), r_vec)
        assert same_vertex_set(moved, P)


def test_transport_walk_enumerates_30_systems(monkeypatch):
    # the walk of scripts/transport_demo.py at seed 7 on the 3x3 grid, from
    # the rectangles polytope: per step the two bend pieces, the polar and
    # the facet system of the hull, and the polytope of the new chart; these
    # are the counts the transport benchmark pins
    G, P = rectangles_start(GridShape(3, 6))
    calls = count_enumerations(monkeypatch)
    # every polytope of the walk comes with its enumeration's integer form,
    # its rows included, and every row of the walk is built as an integer
    # row, so nothing is cleared of denominators
    runs = count_property_runs(monkeypatch, polyhedra_module.QPolytope, ("integer_rows", "integer_vertices"))
    real_clear = polyhedra_module.clear_denominators

    def clear_counting(points):
        runs["clear_denominators"] += 1
        return real_clear(points)

    monkeypatch.setattr(polyhedra_module, "clear_denominators", clear_counting)
    transport_walk(G, P)
    assert len(calls) == 30
    assert sum(len(H.ineqs) for H, _ in calls) == 470
    assert sum(len(V) for _, V in calls) == 531
    assert runs == {}


def test_census_polytopes_carry_their_integer_rows(monkeypatch):
    # the lattice sweep of each class reads the integer rows that the
    # class's enumeration converted, and converts none again
    runs = count_property_runs(monkeypatch, polyhedra_module.QPolytope, ("integer_rows",))
    rep = census(GridShape(3, 6))
    assert rep.class_count == 34
    assert runs == {}


def integer_rows(ineqs, weights=False) -> bool:
    """Whether every row a.v + b >= 0 has int coefficients a and an int b,
    or with ``weights`` a b of denominator 1, the Fraction weight r_i of a
    gamma row."""
    return all(type(x) is int for a, _ in ineqs for x in a) and all(
        F(b).denominator == 1 if weights else type(b) is int for _, b in ineqs
    )


def test_the_package_builds_integer_rows(census36, monkeypatch):
    # exponent vectors, interlacing rows, hull facets, bend rows and polar
    # systems are built as ints; only a gamma row's weight is a Fraction
    shape = GridShape(3, 6)
    c = census36.record(parse_key(G1_KEY))
    H = gamma_polytope(gamma_system(marsh_scott_expansion(c.chart), standard_r_vec(shape, 1)))
    assert integer_rows(H.ineqs, True)
    assert integer_rows(gt_polytope(shape, 2).ineqs)
    assert integer_rows(hull_of_points(c.polytope.coords, c.polytope.vertices).hrep.ineqs)
    # every system of the seed-7 transport walk
    G, P = rectangles_start(shape)
    calls = count_enumerations(monkeypatch)
    transport_walk(G, P)
    assert len(calls) == 30
    assert [H for H, _ in calls if not integer_rows(H.ineqs, True)] == []


@pytest.mark.parametrize("grid", ["census35", "census36"])
def test_bend_pieces_continue_the_parent_enumeration(grid, request):
    # both pieces of every tree edge's parent polytope, cut at the bend of
    # the edge's move, from the parent's vertices and from scratch
    report = request.getfixturevalue(grid)
    edges = 0
    for c in report.classes:
        if c.parent is None:
            continue
        parent = report.record(c.parent)
        P = parent.polytope
        nu, _ = c.path[-1]
        move = TropMutation.of(parent.quiver, nu, P.coords, nu)
        bend = tuple(F(o - i) for i, o in zip(move.into, move.out))
        for half in (bend, tuple(-x for x in bend)):
            H = P.hrep.with_ineqs([(half, F(0))])
            assert enumerate_vertices(H, P) == enumerate_vertices(H), (c.key_str, nu)
        edges += 1
    assert edges == report.class_count - 1


def test_verify_builds_one_chart_per_class(monkeypatch):
    # verify reads every chart off its census record; only the records'
    # own first use builds one
    rep = census(GridShape(3, 5))
    real = NetworkChart.of
    built = []

    def counting(G):
        built.append(G)
        return real(G)

    monkeypatch.setattr(NetworkChart, "of", staticmethod(counting))
    assert verify_core(GridShape(3, 5), suite="full", report=rep).ok
    assert len(built) == rep.class_count == 5


def test_verify_builds_each_chart_table_once(monkeypatch):
    # the Pluecker table and both valuation tables are built once per
    # chart, however many checks read them
    rep = census(GridShape(3, 5))
    real_table = charts_module.pluecker_table
    tables = []

    def counting_table(chart):
        tables.append(chart)
        return real_table(chart)

    monkeypatch.setattr(charts_module, "pluecker_table", counting_table)
    valued = Counter()
    for name in ("val_min", "val_max"):
        real = getattr(charts_module, name)

        def counting(chart, lam, real=real, name=name):
            valued[name] += 1
            return real(chart, lam)

        monkeypatch.setattr(charts_module, name, counting)
    assert verify_core(GridShape(3, 5), suite="full", report=rep).ok
    assert sorted(map(id, tables)) == sorted(id(c.chart) for c in rep.classes)
    assert valued == {"val_min": 5 * 10, "val_max": 5 * 10}


def test_verify_computes_each_quiver_once(monkeypatch):
    # the census computes every class's quiver; the transport check reads
    # the parents' quivers off their records instead of recomputing them
    real = census_module.quiver_of
    computed = []

    def counting(G):
        computed.append(G)
        return real(G)

    monkeypatch.setattr(census_module, "quiver_of", counting)
    assert verify_core(GridShape(3, 5), suite="full").ok
    assert len(computed) == 5
    # a report read back from JSON carries no quivers: one per distinct parent
    rep = CensusReport.from_json(census(GridShape(3, 5)).to_json())
    computed.clear()
    assert verify_core(GridShape(3, 5), suite="full", report=rep).ok
    assert len(computed) == len({c.parent for c in rep.classes if c.parent is not None}) == 3


def test_census_and_verify_leave_no_closure_cycles():
    # with the collector off, a closure that holds itself through its cell
    # stays alive until the next collection; DEBUG_SAVEALL keeps what that
    # collection finds unreachable in gc.garbage
    gc.collect()
    gc.disable()
    try:
        report = census(GridShape(3, 5))
        assert verify_core(GridShape(3, 5), suite="full", report=report).ok
        del report
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        closures = sorted(
            {
                obj.__qualname__
                for obj in gc.garbage
                if isinstance(obj, types.FunctionType) and "<locals>" in obj.__qualname__
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert closures == []


@pytest.mark.parametrize(
    "shape, traced",
    [
        (GridShape(3, 5), 5),
        (GridShape(3, 6), 34),
        pytest.param(GridShape(3, 7), 259, marks=pytest.mark.deep),
    ],
)
def test_census_traces_each_graph_once(shape, traced, monkeypatch):
    # one face trace per class: every moved graph equals the graph of the
    # class it lands on, so a move to a known class returns the class graph
    # and only the first graph of each class is traced; its chart, its
    # quiver, its movable faces and the square moves from it share the one
    # trace
    real = plabic_module.faces_of
    graphs = []

    def counting(G):
        graphs.append(G)
        return real(G)

    monkeypatch.setattr(plabic_module, "faces_of", counting)
    rep = census(shape, deep=True)
    assert len(graphs) == traced
    assert len({id(G) for G in graphs}) == traced
    assert rep.class_count == EXPECTED_COUNTS[(shape.k, shape.n)][0]


def test_cached_labelling_equals_a_fresh_trace(monkeypatch):
    # every class graph and every graph a square move returns keeps the
    # labelling a fresh copy of it traces
    real = census_module.square_move
    moved = []

    def recording(G, nu, rng=None, known=None):
        res = real(G, nu, rng, known)
        moved.append(res.graph)
        return res

    monkeypatch.setattr(census_module, "square_move", recording)
    rep = census(GridShape(3, 6))
    graphs = [c.graph for c in rep.classes] + moved
    assert len(moved) == 120
    for G in graphs:
        cached = face_labels(G)
        fresh = face_labels(PlabicGraph.from_json(G.to_json()))
        assert cached.partition_of_face == fresh.partition_of_face
        assert cached.face_of_partition == fresh.face_of_partition
        assert cached.frozen == fresh.frozen
        assert face_labels(G) is cached


def _with_child(report, **changes):
    """A copy of ``report`` whose first non-root record has ``changes``,
    and that record; the copy's records build their own charts."""
    child = next(c for c in report.classes if c.parent is not None)
    classes = tuple(
        dataclasses.replace(c, **changes) if c is child else dataclasses.replace(c)
        for c in report.classes
    )
    new = dataclasses.replace(report, classes=classes)
    return new, new.record(child.key)


def test_transport_catches_a_shifted_lattice_point(census35):
    child = next(c for c in census35.classes if c.parent is not None)
    first, *rest = child.lattice
    shifted = (first[0] + 1,) + first[1:]
    assert shifted not in child.lattice
    rep, child = _with_child(census35, lattice=(shifted, *rest))
    assert _check_transport(GridShape(3, 5), rep) == (False, f"lattice transport at {child.key_str}")


@pytest.mark.parametrize("variant", ["min", "max"])
def test_transport_catches_a_corrupted_valuation_vector(census35, variant):
    rep, child = _with_child(census35)
    table = getattr(child.chart, f"{variant}_valuations")
    lam = next(iter(table))
    table[lam] = (table[lam][0] + 1,) + table[lam][1:]
    assert _check_transport(GridShape(3, 5), rep) == (
        False,
        f"{variant}-valuation transport at {child.key_str}",
    )


def test_transport_catches_a_label_order_mismatch(census35):
    child = next(c for c in census35.classes if c.parent is not None)
    nu, _ = child.path[-1]
    rep, child = _with_child(census35, path=child.path[:-1] + ((nu, (9,)),))
    assert _check_transport(GridShape(3, 5), rep) == (False, f"label mismatch at {child.key_str}")


def test_lattice_points_match_the_box_sweep_on_every_g36_class(census36):
    for c in census36.classes:
        for r in (1, 2):
            want = oracles.lattice_points_by_box_sweep(c.polytope.hrep.ineqs, c.polytope.vertices, r)
            assert lattice_points(c.polytope, r) == want, (c.key_str, r)


def test_verify_core_on_a_report_read_back_from_json(census35):
    # records read back from JSON carry no polytope; the scans rebuild it
    rep = CensusReport.from_json(census35.to_json())
    assert all(c.polytope is None for c in rep.classes)
    assert verify_core(GridShape(3, 5), suite="full", report=rep).ok


def test_verify_checks_every_volume_of_a_report_read_back_from_json(census35, monkeypatch):
    # the volume check must not pass vacuously on records without a polytope:
    # every class is triangulated or certified by rotation, and with every
    # certificate failing every class is triangulated
    real = census_module.volume
    for certify, triangulated, rotated in ((True, 1, 4), (False, 5, 0)):
        rep = CensusReport.from_json(census35.to_json())
        measured = []

        def counting(P):
            measured.append(real(P))
            return measured[-1]

        monkeypatch.setattr(census_module, "volume", counting)
        if not certify:
            monkeypatch.setattr(census_module, "rotated_vertices", lambda P, rho, chart: [])
        out = verify_core(GridShape(3, 5), suite="full", report=rep)
        assert out.ok
        assert measured == [volume_formula(GridShape(3, 5))] * triangulated == [F(1, 144)] * triangulated
        detail = next(c.detail for c in out.checks if c.name == "volume-formula-per-class")
        assert detail == f"{triangulated} triangulated, {rotated} by rotation"
        assert triangulated + rotated == rep.class_count == 5


def test_record_chart_is_cached_and_matches_its_key(census35):
    for rep in (census35, CensusReport.from_json(census35.to_json())):
        for rec in rep.classes:
            assert rec.chart is rec.chart
            assert class_key(rec.chart.labels) == rec.key
    assert census(GridShape(1, 2)).classes[0].chart is None


def test_report_record_raises_on_unknown_key(census35):
    with pytest.raises(KeyError):
        census35.record(((9, 9),))


def test_report_record_after_json_roundtrip(census35):
    back = CensusReport.from_json(census35.to_json())
    for c in census35.classes:
        assert back.record(c.key).key_str == c.key_str
        assert back.record(c.key).vertices == c.vertices
    with pytest.raises(KeyError):
        back.record(((9, 9),))
    # the lookup index stays out of equality, repr and the JSON
    assert back == CensusReport.from_json(census35.to_json())
    assert "_by_key" not in repr(back)
    assert back.to_json() == census35.to_json()


# -- serialization ----------------------------------------------------------

def test_census_json_roundtrip(census35):
    doc = census35.to_json()
    assert doc["schema"] == "okbodies.census/1"
    back = CensusReport.from_json(doc)
    assert back.to_json() == doc
    assert [c.key for c in back.classes] == [c.key for c in census35.classes]
    assert back.classes[0].vertices == census35.classes[0].vertices


def test_census_json_rejects_wrong_schema(census35):
    doc = census35.to_json()
    doc["schema"] = "okbodies.census/999"
    with pytest.raises(ValueError, match="schema"):
        CensusReport.from_json(doc)


def _spoil_key_with_another_class(doc):
    doc["classes"][1]["key"] = doc["classes"][0]["key"]


def _swap_two_keys(doc):
    a, b = doc["classes"][0], doc["classes"][1]
    a["key"], b["key"] = b["key"], a["key"]


def _spoil_integral(doc):
    doc["classes"][1]["integral"] = "no"


def _spoil_parent(doc):
    doc["classes"][1]["parent"] = ["9"]


def _spoil_key_and_integral(doc):
    _spoil_key_with_another_class(doc)
    _spoil_integral(doc)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_spoil_key_with_another_class, "share the key"),
        (_swap_two_keys, "not its graph's face labels"),
        (_spoil_integral, "not a boolean"),
        (_spoil_parent, "parent names no class"),
        (_spoil_key_and_integral, "not a boolean"),
    ],
    ids=["repeated-key", "key-of-another-graph", "integral-string", "unknown-parent", "key-and-integral"],
)
def test_census_json_refuses_a_census_it_could_not_have_written(census35, spoil, message):
    doc = json.loads(json.dumps(census35.to_json()))
    spoil(doc)
    with pytest.raises(ValueError, match=message):
        CensusReport.from_json(doc)


@pytest.mark.parametrize(
    "field",
    ["key", "path", "parent", "graph", "vertices", "lattice", "integral", "nonintegral_vertices"],
)
def test_census_json_names_a_missing_class_field(census35, field):
    doc = json.loads(json.dumps(census35.to_json()))
    del doc["classes"][1][field]
    with pytest.raises(ValueError, match=f"class record .* lacks {field}"):
        CensusReport.from_json(doc)


@pytest.mark.parametrize("field", ["k", "n", "seed", "elapsed_seconds", "classes"])
def test_census_json_names_a_missing_report_field(census35, field):
    doc = json.loads(json.dumps(census35.to_json()))
    del doc[field]
    with pytest.raises(ValueError, match=f"census lacks {field}"):
        CensusReport.from_json(doc)


def _flip_integral(doc):
    doc["classes"][1]["integral"] = not doc["classes"][1]["integral"]


def _invent_nonintegral_vertex(doc):
    doc["classes"][1]["nonintegral_vertices"].append(["1/2"] * len(doc["classes"][1]["vertices"][0]))


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_flip_integral, "not its vertices' verdict"),
        (_invent_nonintegral_vertex, "not its fractional vertices"),
    ],
    ids=["integral-flipped", "invented-fractional-vertex"],
)
def test_census_json_refuses_integrality_other_than_the_vertices(census35, spoil, message):
    doc = json.loads(json.dumps(census35.to_json()))
    spoil(doc)
    with pytest.raises(ValueError, match=message):
        CensusReport.from_json(doc)


def test_integrality_is_read_off_the_vertices(census36):
    # the two fractional classes keep their verdict and their fractional
    # vertex through the JSON and through a replaced polytope
    back = CensusReport.from_json(json.loads(json.dumps(census36.to_json())))
    for c in census36.classes:
        for same in (back.record(c.key), dataclasses.replace(c, polytope=None)):
            assert (same.integral, same.nonintegral_vertices) == (c.integral, c.nonintegral_vertices)
    assert [len(c.nonintegral_vertices) for c in census36.classes if not c.integral] == [1, 1]


def test_census_json_refuses_a_vertex_record_without_rotation(census35):
    doc = json.loads(json.dumps(census35.to_json()))
    del doc["classes"][0]["graph"]["vertices"][0]["rotation"]
    with pytest.raises(ValueError, match="lacks rotation"):
        CensusReport.from_json(doc)


# -- command line -----------------------------------------------------------

def test_cli_census_text_and_json(tmp_path, capsys):
    out = tmp_path / "census.json"
    rc = main(["census", "--k", "2", "--n", "4", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "2 classes, 2 integral, 0 non-integral" in text
    doc = json.loads(out.read_text())
    assert doc["schema"] == "okbodies.census/1"
    assert doc["class_count"] == 2
    assert CensusReport.from_json(doc).class_count == 2


def test_cli_census_guard_exit_code(capsys):
    assert main(["census", "--k", "3", "--n", "7"]) == 2
    assert "deep" in capsys.readouterr().err
    assert main(["census", "--k", "4", "--n", "8", "--deep"]) == 2
    assert "force" in capsys.readouterr().err


def test_cli_reports_a_broken_invariant_with_its_own_exit_code(monkeypatch, capsys):
    def broken_census(*args, **kwargs):
        raise AssertionError("quiver mismatch")

    monkeypatch.setattr(cli_module, "census", broken_census)
    assert main(["census", "--k", "3", "--n", "5"]) == 3
    assert capsys.readouterr().err == "internal error: quiver mismatch\n"


def test_cli_polytope_json(capsys):
    rc = main(["polytope", "--k", "3", "--n", "5", "--class", "rec", "--r", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "okbodies.qpolytope/1"
    assert len(doc["vertices"]) == 10
    assert len(doc["lattice"]) == 50
    assert doc["trop_system"]["schema"] == "okbodies.tropsystem/1"
    # vertex entries ride as rational strings; the second dilation doubles
    # the degree-one table so only 0, 2, 4 appear
    flat = {x for v in doc["vertices"] for x in v}
    assert flat == {"0", "2", "4"}


def test_cli_polytope_fractional_vertex_strings(capsys):
    rc = main(["polytope", "--k", "2", "--n", "4", "--rvec", "1/2,0,1/2,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    flat = {x for v in doc["vertices"] for x in v}
    assert any("/" in x for x in flat)


def test_cli_polytope_negative_r_is_empty(capsys):
    rc = main(["polytope", "--k", "3", "--n", "5", "--r", "-1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == [] and doc["lattice"] == []


def test_cli_polytope_usage_errors(capsys):
    assert main(["polytope", "--k", "3", "--n", "5", "--rvec", "1,2,x,0,0"]) == 2
    assert main(["polytope", "--k", "3", "--n", "5", "--rvec", "1,2"]) == 2
    assert main(["polytope", "--k", "3", "--n", "5", "--rvec", "1/0,0,0,0,0"]) == 2
    assert main(["polytope", "--k", "3", "--n", "5", "--r", "x"]) == 2
    assert main(["polytope", "--k", "3", "--n", "5", "--class", "99"]) == 2
    assert main(["polytope", "--k", "3", "--n", "5", "--class", "-1"]) == 2
    assert main(["polytope", "--k", "3", "--n", "5", "--class", "zzz"]) == 2
    capsys.readouterr()
    for command in ("polytope", "valuations"):
        assert main([command, "--k", "2", "--n", "4", "--class", "1,1|9"]) == 2
        assert capsys.readouterr().err == "refused: no class has the key 1,1|9\n"
    assert main(["valuations", "--k", "2", "--n", "4", "--class", "99"]) == 2
    assert capsys.readouterr().err == "refused: class index 99 is outside 0..1\n"


def test_cli_class_index_and_key_resolve_through_record(census35, capsys):
    for t, c in enumerate(census35.classes):
        assert _resolve_class(census35, str(t)) is census35.record(c.key)
        assert _resolve_class(census35, c.key_str) is census35.record(c.key)
    c = census35.classes[3]
    assert main(["polytope", "--k", "3", "--n", "5", "--class", "3"]) == 0
    by_index = capsys.readouterr().out
    assert main(["polytope", "--k", "3", "--n", "5", "--class", c.key_str]) == 0
    assert capsys.readouterr().out == by_index
    assert len(json.loads(by_index)["vertices"]) == len(c.vertices)


def test_cli_valuations_table(capsys):
    rc = main(["valuations", "--k", "3", "--n", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["P", "1", "1,1", "2", "3", "2,2", "3,3"]
    rows = {ln.split()[0]: ln.split()[1:] for ln in lines[1:]}
    assert rows["0"] == ["1", "1", "1", "1", "2", "2"]
    assert rows["3,3"] == ["0", "0", "0", "0", "0", "0"]


def test_cli_valuations_json(tmp_path, capsys):
    out = tmp_path / "vals.json"
    rc = main(["valuations", "--k", "3", "--n", "5", "--max", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "okbodies.valuations/1"
    assert doc["variant"] == "max"
    assert doc["coords"] == ["1", "1,1", "2", "3", "2,2", "3,3"]
    assert len(doc["rows"]) == 10


def test_cli_valuations_degenerate(capsys):
    rc = main(["valuations", "--k", "1", "--n", "2"])
    assert rc == 0
    assert "P" in capsys.readouterr().out


def test_cli_verify_exit_codes(monkeypatch, capsys):
    assert main(["verify", "--k", "2", "--n", "4", "--suite", "full"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    monkeypatch.setitem(EXPECTED_COUNTS, (2, 4), (3, 3, 0))
    assert main(["verify", "--k", "2", "--n", "4"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "okbodies", "census", "--k", "2", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2 classes" in proc.stdout


def test_cli_closed_stdout_keeps_the_json_and_exits_141(tmp_path):
    # the child starts on a pipe whose reader is already gone, so its
    # first line breaks the pipe; the JSON is written all the same
    out = tmp_path / "census.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "okbodies", "census", "--k", "3", "--n", "5", "--out", str(out)],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert "Traceback" not in err
    assert CensusReport.from_json(json.loads(out.read_text())).class_count == 5


def test_library_does_not_import_the_cli():
    code = (
        "import importlib, pkgutil, sys, okbodies\n"
        "for m in pkgutil.iter_modules(okbodies.__path__):\n"
        "    if m.name not in ('cli', '__main__'):\n"
        "        importlib.import_module('okbodies.' + m.name)\n"
        "print('okbodies.census' in sys.modules, 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


@pytest.mark.deep
def test_deep_g37_dilations_hold_the_pattern_counts():
    # every class, the 42 fractional ones included, holds as many lattice
    # points in its second and third dilation as there are interlacing
    # patterns
    shape = GridShape(3, 7)
    rep = census(shape, deep=True)
    for r, count in ((2, 490), (3, 4116)):
        assert gt_pattern_count(shape, r) == count
        assert [c.key_str for c in rep.classes if len(lattice_points(c.polytope, r)) != count] == []


@pytest.mark.deep
def test_deep_g37_volumes_equal_the_closed_form():
    shape = GridShape(3, 7)
    rep = census(shape, deep=True)
    assert rep.class_count == 259
    assert [c.key_str for c in rep.classes if volume(c.polytope) != volume_formula(shape)] == []


@pytest.mark.deep
def test_deep_verify_g37_passes_every_check():
    rep = verify_core(GridShape(3, 7), suite="full", report=census(GridShape(3, 7), deep=True))
    assert rep.ok, rep.render()
    by_name = {c.name: c for c in rep.checks}
    # uniqueness is pinned on (3,6) only: here a class has up to three
    assert "nonintegral-vertex-unique" not in by_name
    assert by_name["degree-two-scan-misses-only-the-doubled-vertex"].detail == (
        "42/42 classes; fractional vertices per class 1:14 2:7 3:21"
    )


@pytest.mark.deep
def test_deep_census_g37():
    # audited split; see the comment on EXPECTED_COUNTS and the audit script
    rep = census(GridShape(3, 7), deep=True)
    assert (rep.class_count, rep.integral_count, rep.nonintegral_count) == (259, 217, 42)
    assert EXPECTED_COUNTS[(3, 7)] == (259, 217, 42)
    for c in rep.classes:
        if not c.integral:
            assert len(c.nonintegral_vertices) >= 1
            assert all(x.denominator in (1, 2) for v in c.nonintegral_vertices for x in v)
