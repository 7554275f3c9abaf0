"""Exact polytope engine: double description, lattice sweeps, volumes and
the interlacing-pattern machinery, pinned on cubes, simplices and the
frozen pattern counts."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from okbodies.partitions import GridShape
from okbodies.polyhedra import (
    HPolytope,
    UnboundedError,
    canonical_hrep,
    enumerate_vertices,
    gamma_coords,
    gt_pattern_count,
    gt_polytope,
    gt_transform_matrices,
    hull_of_points,
    laplace_minors,
    lattice_points,
    qpolytope,
    rank_det,
    same_hrep,
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


def test_cube_vertices_and_volume():
    for d in (1, 2, 3, 4):
        P = cube(d)
        assert len(P.vertices) == 2 ** d
        assert volume(P) == 1
        assert P.is_integral()
        assert len(canonical_hrep(P)) == 2 * d


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


def bounded_integer_systems():
    """(d, rows): up to 10 random integer rows plus the box -3 <= x_i <= 3."""

    def with_box(d):
        row = st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-6, 6))
        box = [
            (tuple(s * int(i == j) for j in range(d)), 3)
            for i in range(d)
            for s in (1, -1)
        ]
        return st.lists(row, max_size=10).map(lambda rows: (d, rows + box))

    return st.integers(1, 4).flatmap(with_box)


@settings(max_examples=40, deadline=None)
@given(bounded_integer_systems())
def test_vertices_match_subset_oracle(system):
    d, rows = system
    H = HPolytope(
        axis_coords(d), tuple((tuple(F(x) for x in a), F(b)) for a, b in rows)
    )
    got = enumerate_vertices(H)
    assert list(got) == sorted(got)
    assert list(got) == oracles.vertices_by_subsets(rows, d)
    for v in got:
        assert oracles.contains(H.ineqs, v)
        tight = [a for a, b in rows if sum(x * y for x, y in zip(a, v)) + b == 0]
        assert oracles.rank(tight) == d


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


def test_polytope_json_does_not_depend_on_cached_lattice_points():
    P = cube(3)
    before = P.to_json()
    lattice_points(P, 1)
    assert P.to_json() == before


def test_redundant_rows_are_not_facets():
    P = cube(2)
    fat = qpolytope(P.hrep.with_ineqs([((F(1), F(0)), F(5)), ((F(1), F(1)), F(7))]))
    assert same_hrep(P, fat)
    assert len(canonical_hrep(fat)) == 4


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
    """An r x n matrix, 1 <= r <= 5 and r <= n <= 7, with entries of either
    sign up to 2^61, and up to eight r-subsets of its columns (repeats
    allowed)."""
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 7))
    entry = st.integers(-(2**61), 2**61)
    mat = draw(_matrix(r, n, entry))
    col_sets = draw(st.lists(st.sampled_from(list(combinations(range(n), r))), min_size=1, max_size=8))
    return mat, col_sets


@settings(max_examples=100, deadline=None)
@given(matrices_and_column_sets())
def test_shared_laplace_minors_match_the_cofactor_oracle(case):
    mat, col_sets = case
    p = (1 << 61) - 1  # the prime of the square-move exchange check
    exact = [oracles.minor(mat, range(len(mat)), cs) for cs in col_sets]
    assert laplace_minors(mat, col_sets, 1) == exact
    assert laplace_minors(mat, col_sets, 1, p) == [m % p for m in exact]


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
        Fm, Finv = gt_transform_matrices(shape)
        d = len(Fm)
        prod = [
            [sum(Fm[i][t] * Finv[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        assert prod == [[F(int(i == j)) for j in range(d)] for i in range(d)]
        assert abs(rank_det([[int(x) for x in row] for row in Fm])[1]) == 1


def test_volume_formula_values():
    assert volume_formula(GridShape(k=3, n=5)) == F(1, 144)
    assert volume_formula(GridShape(k=2, n=4)) == F(1, 12)
    assert volume_formula(GridShape(k=3, n=6)) == F(1, 8640)


def test_gamma_coords_are_rectangles_in_canonical_order():
    assert gamma_coords(GridShape(k=3, n=5)) == (
        (1,),
        (1, 1),
        (2,),
        (3,),
        (2, 2),
        (3, 3),
    )
