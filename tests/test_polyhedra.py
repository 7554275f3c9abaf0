"""Exact polytope engine: double description, lattice sweeps, volumes and
the interlacing-pattern machinery, pinned on cubes, simplices and the
frozen pattern counts."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from okbodies.partitions import GridShape, rectangles
from okbodies.polyhedra import (
    HPolytope,
    QPolytope,
    UnboundedError,
    _bareiss_step,
    _cone,
    _eliminate,
    clear_denominators,
    enumerate_vertices,
    gt_pattern_count,
    gt_polytope,
    gt_transform_matrix,
    hull_of_points,
    laplace_minors,
    lattice_points,
    nonintegral_points,
    qpolytope,
    rank_det,
    same_vertex_set,
    volume,
    volume_formula,
)

F = Fraction


def axis_coords(d):
    return tuple((i + 1,) for i in range(d))


def cube(d):
    ineqs = []
    for i in range(d):
        a = [F(0)] * d
        a[i] = F(1)
        ineqs.append((tuple(a), F(0)))
        a = [F(0)] * d
        a[i] = F(-1)
        ineqs.append((tuple(a), F(1)))
    return qpolytope(HPolytope(axis_coords(d), tuple(ineqs)))


def simplex(d):
    ineqs = []
    for i in range(d):
        a = [F(0)] * d
        a[i] = F(1)
        ineqs.append((tuple(a), F(0)))
    ineqs.append((tuple([F(-1)] * d), F(1)))
    return qpolytope(HPolytope(axis_coords(d), tuple(ineqs)))


def cross_polytope(d):
    """The convex hull of the 2d points +-e_i: every vertex on 2^(d-1) of
    its 2^d facets."""
    ineqs = tuple(
        (tuple(F(-1 if bits >> i & 1 else 1) for i in range(d)), F(1)) for bits in range(2**d)
    )
    return qpolytope(HPolytope(axis_coords(d), ineqs))


def pyramid(d):
    """The pyramid of height 1 over the unit cube in d - 1 dimensions: the
    apex lies on 2(d - 1) facets, each base vertex on d."""
    ineqs = [(tuple(F(i == d - 1) for i in range(d)), F(0))]
    for i in range(d - 1):
        # 2 x_i >= x_d and 2 (1 - x_i) >= x_d
        ineqs.append((tuple(F(2 * (j == i) - (j == d - 1)) for j in range(d)), F(0)))
        ineqs.append((tuple(F(-2 * (j == i) - (j == d - 1)) for j in range(d)), F(2)))
    return qpolytope(HPolytope(axis_coords(d), tuple(ineqs)))


def permuted(P, rnd):
    """P with its vertex tuple shuffled, and P with its coordinates
    shuffled."""
    verts = list(P.vertices)
    rnd.shuffle(verts)
    perm = list(range(P.hrep.dim))
    rnd.shuffle(perm)
    swapped = HPolytope(
        tuple(P.hrep.coords[i] for i in perm),
        tuple((tuple(a[i] for i in perm), b) for a, b in P.hrep.ineqs),
    )
    return (
        QPolytope(P.hrep, tuple(verts)),
        QPolytope(swapped, tuple(tuple(v[i] for i in perm) for v in verts)),
    )


def test_cube_vertices_and_volume():
    for d in (1, 2, 3, 4):
        P = cube(d)
        assert len(P.vertices) == 2 ** d
        assert volume(P) == 1
        assert not nonintegral_points(P.vertices)
        assert len(hull_of_points(P.coords, P.vertices).hrep.ineqs) == 2 * d


def test_cube_lattice_counts():
    P = cube(3)
    for r in (1, 2, 3):
        assert len(lattice_points(P, r)) == (r + 1) ** 3
    # the integer dilation inside lattice_points against an explicit one
    assert lattice_points(P, 1) == lattice_points(oracles.dilate(P, 1), 1)
    assert lattice_points(P, 2) == lattice_points(oracles.dilate(P, 2), 1)
    with pytest.raises(ValueError, match="negative dilation"):
        lattice_points(P, -1)


def test_simplex_volume_and_points():
    for d in (2, 3, 5):
        S = simplex(d)
        assert volume(S) == oracles.simplex_volume(sorted(S.vertices))
        assert volume(S) == F(1, math.factorial(d))
        assert len(S.vertices) == d + 1
        assert len(lattice_points(S, 1)) == d + 1


def test_empty_region_has_no_vertices():
    H = HPolytope(axis_coords(1), (((F(1),), F(-1)), ((F(-1),), F(0))))
    assert enumerate_vertices(H) == ()
    assert qpolytope(H).is_empty()


def test_unbounded_region_raises():
    H = HPolytope(axis_coords(2), (((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))))
    with pytest.raises(UnboundedError):
        enumerate_vertices(H)


@pytest.mark.parametrize(
    "ineqs",
    [
        # x >= 1, x <= 0, y >= 0: empty, though y is unbounded above
        (((F(1), F(0)), F(-1)), ((F(-1), F(0)), F(0)), ((F(0), F(1)), F(0))),
        # x >= 1, x <= 0 with y free: empty and the system has rank 1 < 2
        (((F(1), F(0)), F(-1)), ((F(-1), F(0)), F(0))),
    ],
)
def test_empty_region_with_recession_directions_has_no_vertices(ineqs):
    assert enumerate_vertices(HPolytope(axis_coords(2), ineqs)) == ()


def test_region_containing_a_line_raises():
    # 0 <= x <= 1 with y free: the strip holds every vertical line
    H = HPolytope(axis_coords(2), (((F(1), F(0)), F(0)), ((F(-1), F(0)), F(1))))
    with pytest.raises(UnboundedError):
        enumerate_vertices(H)


@pytest.mark.parametrize(
    "bs, expected",
    [((), ((),)), ((F(2), F(0)), ((),)), ((F(1), F(-1)), ())],
)
def test_zero_dimensional_region_is_a_point_or_empty(bs, expected):
    assert enumerate_vertices(HPolytope((), tuple(((), b) for b in bs))) == expected


def integer_systems():
    """(d, rows, free): up to 10 random integer rows, up to two zero rows
    (a = 0, b in -1..1) at random places, then the box -3 <= x_i <= 3 on
    every coordinate i not in ``free``.  No row moves a coordinate in
    ``free``, so with one the rows do not span and the region is empty or
    holds a line; d = 0 gives systems of zero-dimensional space."""

    def build(d, free, rows, zeros):
        rows = [(tuple(0 if i in free else x for i, x in enumerate(a)), b) for a, b in rows]
        for at, b in zeros:
            rows.insert(at % (len(rows) + 1), ((0,) * d, b))
        box = [(tuple(s * int(i == j) for j in range(d)), 3) for i in range(d) if i not in free for s in (1, -1)]
        return d, rows + box, free

    def of_dim(d):
        return st.builds(
            build,
            st.just(d),
            st.frozensets(st.integers(0, d - 1), max_size=1) if d else st.just(frozenset()),
            st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-6, 6)), max_size=10),
            st.lists(st.tuples(st.integers(0, 10), st.integers(-1, 1)), max_size=2),
        )

    return st.integers(0, 4).flatmap(of_dim)


@settings(max_examples=60, deadline=None)
@given(integer_systems())
def test_vertices_match_subset_oracle(system):
    d, rows, free = system
    H = HPolytope(
        axis_coords(d), tuple((tuple(F(x) for x in a), F(b)) for a, b in rows)
    )
    if free:
        # empty exactly when the region cut by the box on the free
        # coordinates too has no vertex; otherwise it holds a line
        box = [(tuple(s * int(i == j) for j in range(d)), 3) for i in free for s in (1, -1)]
        if oracles.vertices_by_subsets(rows + box, d):
            with pytest.raises(UnboundedError):
                enumerate_vertices(H)
        else:
            assert enumerate_vertices(H) == ()
        return
    got = enumerate_vertices(H)
    assert list(got) == sorted(got)
    assert list(got) == oracles.vertices_by_subsets(rows, d)
    for v, mask in zip(got, got.masks):
        assert oracles.contains(H.ineqs, v)
        tight = [i for i, (a, b) in enumerate(rows) if sum(x * y for x, y in zip(a, v)) + b == 0]
        assert mask == sum(1 << i for i in tight)
        assert oracles.rank([rows[i][0] for i in tight]) == d


def bounded_rational_systems():
    """(d, rows): the box -l_i <= x_i <= h_i with rational l_i, h_i in
    [0, 2], cut by up to six random rows with small integer normals and
    rational offsets; the region may be empty or lower-dimensional."""
    rational = st.fractions(min_value=0, max_value=2, max_denominator=3)
    offset = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def with_box(d):
        box = st.lists(st.tuples(rational, rational), min_size=d, max_size=d).map(
            lambda widths: [
                (tuple(F(s * int(i == j)) for j in range(d)), width)
                for i, pair in enumerate(widths)
                for s, width in zip((1, -1), pair)
            ]
        )
        cut = st.tuples(st.tuples(*[st.integers(-3, 3).map(F)] * d), offset)
        return st.tuples(box, st.lists(cut, max_size=6)).map(lambda p: (d, p[0] + p[1]))

    return st.integers(1, 4).flatmap(with_box)


def draw_cuts(data, P):
    """One or two rows to cut P with, each free, through a vertex of P,
    redundant on P or emptying it."""
    d = P.hrep.dim
    cuts = []
    for _ in range(data.draw(st.integers(1, 2))):
        a = data.draw(st.tuples(*[st.integers(-3, 3).map(F)] * d))
        values = [sum(x * y for x, y in zip(a, v)) for v in P.vertices] or [F(0)]
        kind = data.draw(st.sampled_from(("free", "vertex", "redundant", "empty")))
        if kind == "free":
            b = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        elif kind == "vertex":
            b = -data.draw(st.sampled_from(values))
        elif kind == "redundant":
            b = -min(values) + data.draw(st.integers(0, 2))
        else:
            b = -max(values) - data.draw(st.integers(1, 2))
        cuts.append((a, b))
    return cuts


def point_systems():
    """(0, rows): up to four rows 0 + b >= 0 of zero-dimensional space,
    whose region is the point () or empty."""
    offset = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.lists(offset, max_size=4).map(lambda bs: (0, [((), b) for b in bs]))


@settings(max_examples=60, deadline=None)
@given(bounded_rational_systems() | point_systems(), st.data())
def test_continued_enumeration_equals_a_cold_start(system, data):
    # P itself may be empty, flat or a point of zero-dimensional space, and
    # a zero row may come among the cuts
    d, rows = system
    P = qpolytope(HPolytope(axis_coords(d), tuple(rows)))
    cuts = draw_cuts(data, P)
    if data.draw(st.booleans()):
        b = data.draw(st.sampled_from((F(-1), F(0), F(1))))
        cuts.insert(data.draw(st.integers(0, len(cuts))), ((F(0),) * d, b))
    H = P.hrep.with_ineqs(cuts)
    continued, cold = enumerate_vertices(H, P), enumerate_vertices(H)
    assert continued == cold and continued.masks == cold.masks


def assert_carries_its_integer_form(H, V):
    """V, the vertices enumerated from H, carries H's primitive integer
    rows, the integer vertices over their least common denominator and
    each vertex's tight rows, as the Fraction vertices and rows give them."""
    L, ints = clear_denominators(V)
    assert (V.den, V.ints, V.rows) == (L, list(map(tuple, ints)), H.ineqs)
    assert V.masks == [
        sum(1 << i for i, (a, b) in enumerate(H.ineqs) if sum(x * y for x, y in zip(a, v)) + b == 0)
        for v in V
    ]
    # a polytope built on them starts with that form
    P = QPolytope(H, V)
    assert P.integer_vertices == (V.den, V.ints) and P.vertex_masks == V.masks
    assert P.integer_rows == V.integer_rows == QPolytope(H, tuple(V)).integer_rows


@settings(max_examples=60, deadline=None)
@given(bounded_rational_systems(), st.data())
def test_cold_and_continued_enumerations_carry_their_integer_form(system, data):
    d, rows = system
    P = qpolytope(HPolytope(axis_coords(d), tuple(rows)))
    H = P.hrep.with_ineqs(draw_cuts(data, P))
    for G, V in ((P.hrep, P.vertices), (H, enumerate_vertices(H)), (H, enumerate_vertices(H, P))):
        assert_carries_its_integer_form(G, V)
    # x_1 freed in every row, alone or with x_1 >= 0: the region is empty
    # exactly when its projection is, and otherwise holds a line or a ray
    free = tuple(((F(0), *a[1:]), b) for a, b in H.ineqs)
    projection = enumerate_vertices(HPolytope(H.coords[1:], tuple((a[1:], b) for a, b in H.ineqs)))
    for G in (HPolytope(H.coords, free), HPolytope(H.coords, free + (((F(1),) + (F(0),) * (d - 1), F(0)),))):
        if projection:
            with pytest.raises(UnboundedError):
                enumerate_vertices(G)
        else:
            assert_carries_its_integer_form(G, enumerate_vertices(G))
            assert enumerate_vertices(G) == ()


def test_continued_enumeration_of_no_new_row_and_of_an_empty_start():
    P = cube(3)
    assert enumerate_vertices(P.hrep, P) == P.vertices
    empty = qpolytope(P.hrep.with_ineqs([((F(1), F(0), F(0)), F(-2))]))
    assert empty.vertices == ()
    H = empty.hrep.with_ineqs([((F(0), F(1), F(0)), F(0))])
    assert enumerate_vertices(H, empty) == enumerate_vertices(H) == ()


def test_continued_enumeration_refuses_a_start_that_is_not_a_prefix():
    P = cube(2)
    cut = ((F(1), F(1)), F(-1))
    (first, *rest) = P.hrep.ineqs
    for H in (
        HPolytope(P.coords, (*rest, first, cut)),  # the same rows, reordered
        HPolytope(P.coords, (*P.hrep.ineqs[:-1], cut)),  # a start row missing
        HPolytope(tuple(reversed(P.coords)), P.hrep.ineqs + (cut,)),  # other coordinates
    ):
        with pytest.raises(ValueError, match="first rows"):
            enumerate_vertices(H, P)


def test_enumerated_vertices_hold_one_fraction_object_per_value(census36_graphs):
    # a triangle whose vertices have different denominators, and the (3,6)
    # bodies with a fractional vertex
    tri = HPolytope(
        axis_coords(2),
        (((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)), ((F(-2), F(-3)), F(1))),
    )
    report, _ = census36_graphs
    fractional = [c.polytope.hrep for c in report.classes if not c.integral]
    assert len(fractional) == 2
    for H in (tri, *fractional):
        values = [x for v in enumerate_vertices(H) for x in v]
        assert len({id(x) for x in values}) == len(set(values)) < len(values)


@settings(max_examples=40, deadline=None)
@given(bounded_rational_systems())
def test_lattice_points_match_the_box_sweep_oracle(system):
    d, rows = system
    P = qpolytope(HPolytope(axis_coords(d), tuple(rows)))
    for r in (0, 1, 2, 3):
        assert lattice_points(P, r) == oracles.lattice_points_by_box_sweep(rows, P.vertices, r)
        assert lattice_points(P, r) == lattice_points(oracles.dilate(P, r), 1)


def test_lattice_points_of_a_zero_dimensional_region():
    P = qpolytope(HPolytope((), (((), F(1)),)))
    assert lattice_points(P, 1) == lattice_points(P, 2) == ((),)
    assert oracles.lattice_points_by_box_sweep(P.hrep.ineqs, P.vertices, 2) == ((),)


def test_lattice_points_when_the_box_misses_a_row_column_zero_leaves_alone():
    # x0 in [0, 1] times the triangle x1 <= 1/2, x2 <= 3/2, x1 + x2 >= 3/2:
    # the integer box [0, 1] x [0, 0] x [1, 1] meets both rows of x0 but
    # misses x1 + x2 >= 3/2, a row that column 0 leaves alone, so the
    # root's test of such rows ends the sweep before it branches on x0
    rows = (
        ((F(1), F(0), F(0)), F(0)),
        ((F(-1), F(0), F(0)), F(1)),
        ((F(0), F(1), F(0)), F(0)),
        ((F(0), F(-1), F(0)), F(1, 2)),
        ((F(0), F(0), F(-1)), F(3, 2)),
        ((F(0), F(1), F(1)), F(-3, 2)),
    )
    P = qpolytope(HPolytope(axis_coords(3), rows))
    assert len(P.vertices) == 6
    assert lattice_points(P, 1) == ()
    for r in (0, 1, 2, 3):
        assert lattice_points(P, r) == oracles.lattice_points_by_box_sweep(rows, P.vertices, r)
    # the doubled triangle holds (0, 3), (1, 2), (1, 3); x0 runs over 0..2
    assert len(lattice_points(P, 2)) == 9


def test_polytope_json_does_not_depend_on_cached_lattice_points():
    P = cube(3)
    before = P.to_json()
    lattice_points(P, 1)
    assert P.to_json() == before


def test_redundant_rows_are_not_facets():
    P = cube(2)
    fat = qpolytope(P.hrep.with_ineqs([((F(1), F(0)), F(5)), ((F(1), F(1)), F(7))]))
    assert same_vertex_set(P, fat)
    assert len(hull_of_points(fat.coords, fat.vertices).hrep.ineqs) == 4


def test_vertices_satisfy_every_inequality_exactly():
    P = simplex(4)
    for v in P.vertices:
        assert oracles.contains(P.hrep.ineqs, v)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
        min_size=4,
        max_size=10,
    )
)
def test_hull_of_points_is_sound(pts):
    pts = [tuple(F(x) for x in p) for p in pts]
    if oracles.rank([[x - y for x, y in zip(p, pts[0])] for p in pts]) < 3:
        return
    Q = hull_of_points(axis_coords(3), pts)
    assert list(Q.vertices) == sorted(Q.vertices)
    assert set(Q.vertices) <= set(pts)
    for p in pts:
        assert oracles.contains(Q.hrep.ineqs, p)
    # rebuilding from the hull's own H-rep changes nothing
    assert sorted(enumerate_vertices(Q.hrep)) == sorted(Q.vertices)


def test_translate_and_scale_track_vertices():
    P = simplex(3)
    t = (F(1), F(-2), F(1, 2))
    Q = P.translated(t)
    assert sorted(Q.vertices) == sorted(tuple(x + y for x, y in zip(v, t)) for v in P.vertices)
    assert volume(Q) == volume(P)
    R = oracles.dilate(P, F(3, 2))
    assert volume(R) == F(27, 8) * volume(P)


def test_degenerate_volume_warns():
    # a segment inside the plane has volume 0 in dimension 2
    H = HPolytope(
        axis_coords(2),
        (
            ((F(1), F(0)), F(0)),
            ((F(-1), F(0)), F(1)),
            ((F(0), F(1)), F(0)),
            ((F(0), F(-1)), F(0)),
        ),
    )
    P = qpolytope(H)
    with pytest.warns(UserWarning):
        assert volume(P) == 0


def test_volume_of_a_flat_hexagon_warns():
    # x1 + x2 + x3 = 1 as two opposite rows, inside the box 0 <= x_i <= 2/3:
    # six vertices, more than the dimension, and no coordinate fixed
    ineqs = [((F(1), F(1), F(1)), F(-1)), ((F(-1), F(-1), F(-1)), F(1))]
    for i in range(3):
        e = tuple(F(int(j == i)) for j in range(3))
        ineqs += [(e, F(0)), (tuple(-x for x in e), F(2, 3))]
    P = qpolytope(HPolytope(axis_coords(3), tuple(ineqs)))
    assert len(P.vertices) == 6
    with pytest.warns(UserWarning):
        assert volume(P) == 0


def test_volume_ignores_a_zero_row():
    # 0.x + 0 >= 0 is tight at every vertex but is no equality
    for P in (cube(3), cross_polytope(3)):
        Q = qpolytope(P.hrep.with_ineqs([((F(0),) * 3, F(0))]))
        assert volume(Q) == volume(P) > 0


def test_volume_of_a_point_is_one():
    P = qpolytope(HPolytope((), (((), F(1)),)))
    assert P.vertices == ((),)
    assert volume(P) == 1


def test_volume_of_a_rational_segment():
    P = qpolytope(HPolytope(axis_coords(1), (((F(1),), F(-1, 3)), ((F(-1),), F(5, 2)))))
    assert volume(P) == F(13, 6)


def rational_point_clouds():
    """5 to 10 points of Q^d, d <= 4, with denominators up to 6."""
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    return st.integers(1, 4).flatmap(
        lambda d: st.lists(st.tuples(*[coord] * d), min_size=5, max_size=10)
    )


@settings(max_examples=40, deadline=None)
@given(rational_point_clouds())
def test_volume_matches_the_pulling_oracle(pts):
    d = len(pts[0])
    assume(oracles.rank([[x - y for x, y in zip(p, pts[0])] for p in pts]) == d)
    P = hull_of_points(axis_coords(d), pts)
    assert volume(P) == oracles.volume_by_pulling(P)


@settings(max_examples=40, deadline=None)
@given(rational_point_clouds(), st.data())
def test_volume_of_a_hull_lifted_onto_a_hyperplane_is_zero(pts, data):
    # the hull in Q^d, put on the hyperplane x_j = c.x + e of Q^(d+1) by two
    # opposite rows, is flat however many vertices it has
    d = len(pts[0])
    assume(oracles.rank([[x - y for x, y in zip(p, pts[0])] for p in pts]) == d)
    P = hull_of_points(axis_coords(d), pts)
    coef = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    c = data.draw(st.lists(coef, min_size=d, max_size=d))
    e = data.draw(coef)
    j = data.draw(st.integers(0, d))

    def lift(a, x_j):
        return tuple(a[:j]) + (x_j,) + tuple(a[j:])

    plane = (lift([-x for x in c], F(1)), -e)
    ineqs = [(lift(a, F(0)), b) for a, b in P.hrep.ineqs]
    ineqs += [plane, (tuple(-x for x in plane[0]), e)]
    Q = qpolytope(HPolytope(axis_coords(d + 1), tuple(ineqs)))
    assert len(Q.vertices) == len(P.vertices)
    with pytest.warns(UserWarning):
        assert volume(Q) == 0


@settings(max_examples=40, deadline=None)
@given(rational_point_clouds(), st.randoms(use_true_random=False))
def test_volume_ignores_the_order_of_vertices_and_coordinates(pts, rnd):
    # the pull order is read off the vertices and rows, not off the tuple
    # order, and a coordinate permutation is volume-preserving
    d = len(pts[0])
    assume(oracles.rank([[x - y for x, y in zip(p, pts[0])] for p in pts]) == d)
    P = hull_of_points(axis_coords(d), pts)
    assert [volume(Q) for Q in permuted(P, rnd)] == [volume(P)] * 2


@pytest.mark.parametrize(
    "make, d, expected",
    [
        (cube, 3, F(1)),
        (cube, 4, F(1)),
        (cross_polytope, 3, F(8, 6)),
        (cross_polytope, 4, F(16, 24)),
        (pyramid, 3, F(1, 3)),
        (pyramid, 4, F(1, 4)),
    ],
)
def test_volume_with_ties_in_facet_incidence_matches_the_pulling_oracle(make, d, expected):
    # non-simple or all-tied vertex incidences: the cube and the
    # cross-polytope tie every vertex, a pyramid pulls its apex first
    P = make(d)
    assert volume(P) == oracles.volume_by_pulling(P) == expected
    rnd = random.Random(d)
    assert [volume(Q) for Q in permuted(P, rnd)] == [expected] * 2


def test_cone_refuses_a_degenerate_simplex():
    # three collinear points of the plane: a face with d + 1 vertices
    # whose square block is singular
    with pytest.raises(AssertionError, match="degenerate cell"):
        _cone(0b111, {1: [1, 1], 2: [2, 2]}, 1, 0, 2, [], {})
    # too few vertices for the dimension left
    with pytest.raises(AssertionError, match="degenerate cell"):
        _cone(0b11, {1: [1, 0]}, 1, 0, 2, [], {})
    with pytest.raises(AssertionError, match="degenerate cell"):
        _cone(0b1, {}, 5, 1, 2, [], {})
    # independent rows make one cell, |det| = 3; a lone vertex at full
    # depth ends its chain on the chain's pivot
    assert _cone(0b111, {1: [1, 1], 2: [2, -1]}, 1, 0, 2, [], {}) == 3
    assert _cone(0b1, {}, -5, 2, 2, [], {}) == 5


@settings(max_examples=40, deadline=None)
@given(rational_point_clouds())
def test_hull_of_rational_points_matches_the_oracles(pts):
    # mixed denominators: the hull scales the points to integers over their
    # common denominator and must hand back the same rational polytope
    d = len(pts[0])
    assume(oracles.rank([[x - y for x, y in zip(p, pts[0])] for p in pts]) == d)
    P = hull_of_points(axis_coords(d), pts)
    assert list(P.vertices) == sorted(P.vertices)
    assert set(P.vertices) <= set(pts)
    for p in pts:
        assert oracles.contains(P.hrep.ineqs, p)
    for a, b in P.hrep.ineqs:
        tight = [p for p in pts if sum(x * y for x, y in zip(a, p)) + b == 0]
        assert tight and oracles.rank([[x - y for x, y in zip(p, tight[0])] for p in tight]) == d - 1
    # the same points as integer points over a denominator, not the least one
    D, ints = clear_denominators(pts)
    Q = hull_of_points(axis_coords(d), [[2 * x for x in q] for q in ints], 2 * D)
    assert Q.vertices == P.vertices
    assert Q.hrep == P.hrep


def test_hull_of_the_point_of_zero_dimensional_space():
    for P in (hull_of_points((), [()]), hull_of_points((), [(), ()], 3)):
        assert P.vertices == ((),)
        assert P.hrep.ineqs == (((), F(1)),)
    with pytest.raises(ValueError, match="not full-dimensional"):
        hull_of_points((), [])
    # integer points over a denominator on a line of the plane
    with pytest.raises(ValueError, match="not full-dimensional"):
        hull_of_points(axis_coords(2), [(0, 0), (1, 2), (3, 6)], 2)


def test_hull_of_points_refuses_a_flat_or_empty_hull():
    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    assert hull_of_points(axis_coords(2), reversed(square)).vertices == tuple(sorted(square))
    for pts in ([], [(F(0), F(0))], [(F(0), F(0)), (F(1, 2), F(1, 3)), (F(1), F(2, 3))]):
        with pytest.raises(ValueError, match="not full-dimensional"):
            hull_of_points(axis_coords(2), pts)


# -- the fraction-free elimination ------------------------------------------

def _matrix(rows, cols, entry):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def integer_matrices(draw, square=False):
    """Integer matrices up to 5 x 5: small or up-to-2^61 entries of either
    sign, half of them a product of two thin factors (so of low rank), with
    a random set of columns zeroed out (columns with no pivot)."""
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    bound = draw(st.sampled_from([3, 2**61]))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        r = draw(st.integers(0, min(m, n)))
        B, C = draw(_matrix(m, r, entry)), draw(_matrix(r, n, entry))
        mat = [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
    else:
        mat = draw(_matrix(m, n, entry))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [[0 if j in zero else x for j, x in enumerate(row)] for row in mat]


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_rank_matches_oracle(mat):
    rank, det = rank_det(mat)
    assert rank == oracles.rank(mat)
    assert (det is None) == (len(mat) != len(mat[0]))


@settings(max_examples=150, deadline=None)
@given(integer_matrices(square=True))
def test_determinant_matches_oracles(mat):
    d = len(mat)
    rank, det = rank_det(mat)
    assert det == oracles._det_fraction([[F(x) for x in row] for row in mat])
    assert det == oracles.minor(mat, range(d), range(d))
    assert (det != 0) == (rank == d)


@st.composite
def matrices_and_column_sets(draw):
    """One to four r x n matrices, 1 <= r <= 5 and r <= n <= 7, with entries
    of either sign up to 2^61, and up to eight r-subsets of their columns
    (repeats allowed)."""
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 7))
    entry = st.integers(-(2**61), 2**61)
    mats = draw(st.lists(_matrix(r, n, entry), min_size=1, max_size=4))
    col_sets = draw(st.lists(st.sampled_from(list(combinations(range(n), r))), min_size=1, max_size=8))
    return mats, col_sets


@settings(max_examples=100, deadline=None)
@given(matrices_and_column_sets())
def test_shared_laplace_minors_match_the_cofactor_oracle(case):
    # one expansion plan, built from the column masks, run on every matrix
    mats, col_sets = case
    p = (1 << 61) - 1  # the prime of the square-move exchange check
    masks = [sum(1 << c for c in cs) for cs in col_sets]
    exact = [[oracles.minor(mat, range(len(mat)), cs) for cs in col_sets] for mat in mats]
    assert laplace_minors(mats, masks) == exact
    assert laplace_minors(mats, masks, p) == [[m % p for m in row] for row in exact]


@settings(max_examples=100, deadline=None)
@given(integer_matrices(square=True))
def test_elimination_continued_from_a_pivot_ends_on_the_determinant(mat):
    # one Bareiss step by a row with a nonzero first entry, then the rest
    # eliminated from that row's pivot, as a chain of apices in volume ends
    # on a simplex face
    k = next((k for k, row in enumerate(mat) if row[0]), None)
    assume(k is not None)
    top = mat[k]
    sub = [_bareiss_step(row, top, 0, top[0], 1)[1:] for t, row in enumerate(mat) if t != k]
    rank, det = _eliminate(sub, top[0])
    full_rank, full_det = rank_det(mat)
    assert rank + 1 == full_rank
    assert abs(det) == abs(full_det) if rank == len(sub) else full_det == 0


def test_rank_det_of_empty_and_zero_matrices():
    assert rank_det([]) == (0, 1)
    assert rank_det([[]]) == (0, None)
    assert rank_det([[0, 0], [0, 0]]) == (0, 0)
    assert rank_det([[0, 0, 0], [0, 0, 0]]) == (0, None)
    # the pivot of the first column sits in the last row
    assert rank_det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == (3, 5 * (1 * 4 - 2 * 3))


def rational_simplices():
    """d + 1 points of Q^d, d <= 4, with denominators up to 6."""
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    return st.integers(1, 4).flatmap(
        lambda d: st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 1)
    )


@settings(max_examples=60, deadline=None)
@given(rational_simplices())
def test_simplex_volume_matches_oracle(pts):
    d = len(pts[0])
    if oracles.rank([[x - y for x, y in zip(p, pts[0])] for p in pts]) < d:
        return
    P = hull_of_points(axis_coords(d), pts)
    assert P.vertices == tuple(sorted(pts))
    assert volume(P) == oracles.simplex_volume(pts)


# -- interlacing patterns ---------------------------------------------------

SHAPES = [GridShape(k=2, n=4), GridShape(k=3, n=5), GridShape(k=2, n=5), GridShape(k=3, n=6)]

PATTERN_COUNTS = {
    # frozen from the brute-force enumeration oracle
    (2, 4): {1: 6, 2: 20, 3: 50},
    (3, 5): {1: 10, 2: 50, 3: 175},
    (2, 5): {1: 10, 2: 50, 3: 175},
    (3, 6): {1: 20, 2: 175, 3: 980},
}


def test_gt_pattern_count_matches_oracle():
    for shape in SHAPES:
        for r in (1, 2, 3):
            want = PATTERN_COUNTS[(shape.k, shape.n)][r]
            assert gt_pattern_count(shape, r) == want
            assert oracles.gt_dimension(r, shape.k, shape.n) == want
        assert gt_pattern_count(shape, 0) == 1


def test_gt_polytope_lattice_equals_pattern_count():
    for shape in SHAPES:
        for r in (1, 2):
            P = qpolytope(gt_polytope(shape, r))
            assert len(lattice_points(P, 1)) == PATTERN_COUNTS[(shape.k, shape.n)][r]


def test_gt_transform_is_unimodular():
    for shape in SHAPES:
        assert abs(rank_det(gt_transform_matrix(shape))[1]) == 1


def test_volume_formula_values():
    assert volume_formula(GridShape(k=3, n=5)) == F(1, 144)
    assert volume_formula(GridShape(k=2, n=4)) == F(1, 12)
    assert volume_formula(GridShape(k=3, n=6)) == F(1, 8640)


def test_gamma_coords_are_rectangles_in_canonical_order():
    assert rectangles(GridShape(k=3, n=5)) == (
        (1,),
        (1, 1),
        (2,),
        (3,),
        (2, 2),
        (3, 3),
    )
