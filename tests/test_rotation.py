"""Boundary rotation on the census classes: the unimodular map and the
translation that carry each class's polytope onto the rotated class's, and
the volume check that triangulates one body per rotation orbit."""

import dataclasses

import pytest

from okbodies import census as census_module
from okbodies.census import _check_volumes, census, rotate_key
from okbodies.mirror import rotated_vertices, translation_vector
from okbodies.partitions import GridShape, cyclic_shift, cyclic_shift_table
from okbodies.polyhedra import HPolytope, QPolytope, rank_det, volume, volume_formula

SHAPES = [GridShape(2, 5), GridShape(2, 6), GridShape(3, 5), GridShape(3, 6), GridShape(4, 6)]


@pytest.fixture(scope="module")
def reports():
    return {shape: census(shape) for shape in SHAPES}


def rotation_matrix(key, rotated, shape):
    """R_c from its definition, rows over the rotated key and columns over
    ``key``: the row of ρλ is e_λ - e_z, the row of ρ∅ is -e_z, with z the
    label that ρ takes to the empty one."""
    z = next(lam for lam in key if cyclic_shift(lam, shape) == ())
    col = {lam: t for t, lam in enumerate(key)}
    source = {cyclic_shift(lam, shape): lam for lam in key}
    rows = []
    for lab in rotated:
        row = [0] * len(key)
        if lab in source:
            row[col[source[lab]]] += 1
        row[col[z]] -= 1
        rows.append(row)
    return rows


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_rotation_permutes_the_classes(reports, shape):
    rep = reports[shape]
    rho = cyclic_shift_table(shape)
    assert sorted(rotate_key(c.key, rho) for c in rep.classes) == sorted(c.key for c in rep.classes)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_rotated_vertices_are_the_rotated_class_vertices(reports, shape):
    # the certificate holds on every class, over the same denominator
    rep = reports[shape]
    rho = cyclic_shift_table(shape)
    for c in rep.classes:
        nxt = rep.record(rotate_key(c.key, rho))
        L, ints = c.polytope.integer_vertices
        assert nxt.polytope.integer_vertices[0] == L
        assert sorted(rotated_vertices(c.polytope, rho, nxt.chart)) == sorted(nxt.polytope.integer_vertices[1])


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_rotation_map_is_unimodular_and_the_translation_integral(reports, shape):
    rep = reports[shape]
    rho = cyclic_shift_table(shape)
    n, rows = shape.n, shape.rows
    for c in rep.classes:
        nxt = rep.record(rotate_key(c.key, rho))
        R = rotation_matrix(c.key, nxt.key, shape)
        assert rank_det(R)[1] in (1, -1)
        unit = [[int(j == i) for j in range(1, n + 1)] for i in (rows, rows + 1)]
        t = [a - b for a, b in zip(*(translation_vector(e, nxt.chart) for e in unit))]
        assert all(x.denominator == 1 for x in t)
        # the vertex map is R_c then L·t, in P's vertex order
        L, ints = c.polytope.integer_vertices
        want = [tuple(sum(a * x for a, x in zip(row, v)) + L * s for row, s in zip(R, t)) for v in ints]
        assert rotated_vertices(c.polytope, rho, nxt.chart) == want


def test_rotated_vertices_refuse_a_chart_of_another_class(reports):
    rep = reports[GridShape(3, 6)]
    rho = cyclic_shift_table(GridShape(3, 6))
    c = rep.classes[0]
    other = next(d for d in rep.classes if d.key != rotate_key(c.key, rho))
    with pytest.raises(ValueError, match="rotated class"):
        rotated_vertices(c.polytope, rho, other.chart)


def counting_volume(monkeypatch):
    calls = []
    real = census_module.volume

    def counting(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(census_module, "volume", counting)
    return calls


@pytest.mark.parametrize(
    "shape, triangulated", [(GridShape(3, 5), 1), (GridShape(3, 6), 8), (GridShape(2, 6), 4)], ids=str
)
def test_volume_check_triangulates_one_body_per_orbit(reports, monkeypatch, shape, triangulated):
    calls = counting_volume(monkeypatch)
    rep = reports[shape]
    rotated = rep.class_count - triangulated
    assert _check_volumes(shape, rep) == (True, f"{triangulated} triangulated, {rotated} by rotation")
    assert len(calls) == triangulated


def tampered(rep, key, make):
    """A copy of ``rep`` whose class ``key`` carries the polytope ``make(P)``."""
    classes = tuple(
        dataclasses.replace(c, polytope=make(c.polytope) if c.key == key else c.polytope)
        for c in rep.classes
    )
    return dataclasses.replace(rep, classes=classes)


def dilated(P, s):
    hrep = HPolytope(P.coords, tuple((a, s * b) for a, b in P.hrep.ineqs))
    return QPolytope(hrep, tuple(tuple(s * x for x in v) for v in P.vertices))


@pytest.mark.parametrize(
    "make, ok",
    [
        (lambda P: P.translated([(-1) ** t * (t + 1) for t in range(P.hrep.dim)]), True),
        (lambda P: dilated(P, 2), False),
    ],
    ids=["translated", "dilated"],
)
def test_volume_check_on_a_tampered_report_matches_the_direct_check(reports, monkeypatch, make, ok):
    shape = GridShape(3, 6)
    rep = reports[shape]
    rho = cyclic_shift_table(shape)
    # a class that is not the first of its orbit, whose volume would be
    # inherited if its certificate were not checked
    key = rotate_key(rep.classes[0].key, rho)
    bad = tampered(rep, key, make)
    direct = all(volume(c.polytope) == volume_formula(shape) for c in bad.classes)
    assert direct == ok
    calls = counting_volume(monkeypatch)
    verdict, detail = _check_volumes(shape, bad)
    assert verdict == direct
    assert any(P is bad.record(key).polytope for P in calls)
    if ok:
        assert detail != "8 triangulated, 26 by rotation" and len(calls) > 8


def test_volume_check_walks_past_a_rotated_key_that_names_no_class(reports, monkeypatch):
    shape = GridShape(3, 6)
    rep = reports[shape]
    rho = cyclic_shift_table(shape)
    gone = rotate_key(rep.classes[0].key, rho)
    partial = dataclasses.replace(rep, classes=tuple(c for c in rep.classes if c.key != gone))
    calls = counting_volume(monkeypatch)
    verdict, detail = _check_volumes(shape, partial)
    assert verdict
    # the orbit of the first class lost a member, so it needs more than one
    # triangulation; the walk order within it decides how many
    assert len(calls) > 8
    assert detail == f"{len(calls)} triangulated, {partial.class_count - len(calls)} by rotation"


@pytest.mark.deep
def test_deep_g37_volume_check_triangulates_one_body_per_orbit(monkeypatch):
    shape = GridShape(3, 7)
    rep = census(shape, deep=True)
    calls = counting_volume(monkeypatch)
    assert _check_volumes(shape, rep) == (True, "37 triangulated, 222 by rotation")
    assert len(calls) == 37
