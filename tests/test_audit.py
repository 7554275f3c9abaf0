"""The two certificates of scripts/deep_census_audit.py on the bodies of the
3x3 grid: the rotation orbit analysis, and the half-integral vertex sweep,
which re-derives every class's fractional vertices from its facets alone."""

import ast
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from okbodies.census import census
from okbodies.mirror import gamma_polytope, gamma_system, marsh_scott_expansion, standard_r_vec
from okbodies.partitions import GridShape
from okbodies.polyhedra import lattice_points

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "deep_census_audit.py"
_spec = importlib.util.spec_from_file_location("deep_census_audit", SCRIPT)
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)

G36 = GridShape(3, 6)


@pytest.fixture(scope="module")
def bodies36():
    """Each (3,6) class record with its facet system, built the way the
    audit builds it."""
    return [
        (c, gamma_polytope(gamma_system(marsh_scott_expansion(c.chart), standard_r_vec(G36, 1))))
        for c in census(G36).classes
    ]


def test_half_integral_sweep_finds_the_recorded_vertices(bodies36):
    # two fractional classes with one half-integral vertex each, and none
    # on the other 32
    found = [audit.half_integral_vertices(H.ineqs, H.dim) for _, H in bodies36]
    assert found == [sorted(c.nonintegral_vertices) for c, _ in bodies36]
    assert sorted(map(len, found)) == [0] * 32 + [1, 1]
    assert all(x.denominator in (1, 2) for v in sum(found, []) for x in v)


def test_warm_started_box_matches_the_cold_start_and_the_vertices(bodies36):
    # the 2d programs on shared tableaus give the box that 2d programs from
    # the slack basis give, and that box is spanned by the doubled vertices
    for c, H in bodies36:
        doubled = [(a, 2 * Fraction(b)) for a, b in H.ineqs]
        lo, hi = audit.coordinate_box(doubled, H.dim)
        unit = [[int(i == j) for i in range(H.dim)] for j in range(H.dim)]
        assert hi == [audit.maximize(*audit.slack_tableau(doubled), e) for e in unit]
        assert lo == [-audit.maximize(*audit.slack_tableau(doubled), [-x for x in e]) for e in unit]
        assert lo == [2 * min(col) for col in zip(*c.polytope.vertices)]
        assert hi == [2 * max(col) for col in zip(*c.polytope.vertices)]


def test_coordinate_box_refuses_an_unbounded_system():
    # x >= 0 and y >= 0 alone: the origin is feasible, no coordinate is
    # bounded above
    rows = [((1, 0), 0), ((0, 1), 0)]
    assert audit.maximize(*audit.slack_tableau(rows), [-1, 0]) == 0
    assert audit.maximize(*audit.slack_tableau(rows), [1, 0]) is None
    with pytest.raises(ValueError, match="unbounded"):
        audit.coordinate_box(rows, 2)


def test_audit_keeps_its_own_engines():
    # the audit is an independent certificate: it may read the census and
    # build the facet systems, but solves them with no code of the library's
    # polytope engine, under any name
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(SCRIPT.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    engine = {"lattice_points", "enumerate_vertices", "qpolytope", "hull_of_points", "rank_det"}
    assert [(m, n) for m, n in imports if m == "okbodies.polyhedra" or n in engine] == []


def test_lattice_sweep_matches_the_package_on_the_doubled_bodies(bodies36):
    # on the box spanned by the doubled vertices, the sweep of the doubled
    # rows finds the lattice points of the second dilation
    for c, H in bodies36:
        P = c.polytope
        assert P.hrep.coords == H.coords
        lo = [2 * min(col) for col in zip(*P.vertices)]
        hi = [2 * max(col) for col in zip(*P.vertices)]
        doubled = [(a, 2 * Fraction(b)) for a, b in H.ineqs]
        assert audit.lattice_sweep(doubled, lo, hi) == list(lattice_points(P, 2))


def test_lattice_sweep_handles_empty_and_point_boxes():
    # x >= 1/2 and x <= 3/2 in one coordinate: the box [0, 2] holds just 1
    rows = [((Fraction(1),), Fraction(-1, 2)), ((Fraction(-1),), Fraction(3, 2))]
    assert audit.lattice_sweep(rows, [Fraction(0)], [Fraction(2)]) == [(1,)]
    assert audit.lattice_sweep(rows, [Fraction(0)], [Fraction(1, 2)]) == []
    # a row with no variable decides alone
    assert audit.lattice_sweep([((0,), Fraction(-1))], [0], [3]) == []
    assert audit.lattice_sweep([((0, 1), Fraction(0))], [0, 0], [1, 1]) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_orbit_analysis_reads_the_rotation_orbits(tmp_path, capsys):
    path = tmp_path / "g36.json"
    path.write_text(json.dumps(census(G36).to_json()))
    assert audit.main([str(path), "--skip-sweep"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "closure under rotation: ok",
        "orbit sizes: {2: 2, 3: 2, 6: 4}, fixed classes: 0, mixed orbits: 0",
        "fractional orbits: [2] (sum 2)",
        "audit: PASS",
    ]
