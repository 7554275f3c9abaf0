"""Acceptance gate: one test per headline claim, end to end.

Everything here goes through the public construction path (build the
graph, expand the superpotential, tropicalize, enumerate) and compares
against constants that were derived independently before being frozen:
closed-form products, hand-checked tables, and the counting oracles in
``oracles.py``.  Nothing in this file is allowed to call the code under
test to produce its own expected value.

The twelve-coordinate census is the one exception to "green means done";
see the docstring of the deep test at the bottom.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from okbodies.census import (
    _check_transport,
    census,
    plucker_binomial_valuation,
)
from okbodies.charts import (
    NetworkChart,
    check_twist_diagram,
    highest_valuation,
    maxdiag_valuation,
    puiseux_witness,
    val_max,
    val_min,
)
from okbodies.mirror import (
    gamma_qpolytope,
    marsh_scott_expansion,
    relabel_polytope,
    standard_r_vec,
    translation_vector,
    trop_mutate_polytope,
)
from okbodies.partitions import GridShape, SkewShape, all_partitions, max_diag
from okbodies.plabic import build_rectangles, normalize
from okbodies.polyhedra import (
    gt_pattern_count,
    gt_polytope,
    gt_transform_matrix,
    gt_transform_polytope,
    lattice_points,
    qpolytope,
    rank_det,
    same_vertex_set,
    volume,
    volume_formula,
)

F = Fraction

# the four shapes small enough for exhaustive per-class checks
SMALL_SHAPES = ((2, 4), (3, 5), (2, 5), (3, 6))

PRIME = (1 << 61) - 1
TWIST_SEED = 314159
RVEC_SEED = 271828


@lru_cache(maxsize=None)
def rec_chart(k, n):
    return NetworkChart.of(normalize(build_rectangles(GridShape(k, n))))


@lru_cache(maxsize=None)
def small_census(k, n):
    return census(GridShape(k, n))


@pytest.fixture(scope="module", params=SMALL_SHAPES, ids=lambda p: f"{p[0]}x{p[1]}")
def shaped_census(request):
    k, n = request.param
    return GridShape(k, n), small_census(k, n)


# -- golden valuation table -------------------------------------------------

# minimal-term valuations of all ten coordinates on the rectangles chart
# of the 2x3 grid, row per partition, column order pinned below
G35_COORDS = ((1,), (1, 1), (2,), (3,), (2, 2), (3, 3))
G35_TABLE = {
    (): (1, 1, 1, 1, 2, 2),
    (1,): (0, 1, 1, 1, 1, 2),
    (1, 1): (0, 0, 1, 1, 1, 2),
    (2,): (0, 1, 0, 1, 1, 1),
    (2, 1): (0, 0, 0, 1, 1, 1),
    (3,): (0, 1, 0, 0, 1, 1),
    (2, 2): (0, 0, 0, 1, 0, 1),
    (3, 1): (0, 0, 0, 0, 1, 1),
    (3, 2): (0, 0, 0, 0, 0, 1),
    (3, 3): (0, 0, 0, 0, 0, 0),
}


def test_golden_valuation_table():
    t0 = time.perf_counter()
    chart = rec_chart(3, 5)
    assert chart.labels == G35_COORDS
    table = {lam: val_min(chart, lam) for lam in all_partitions(chart.shape)}
    assert table == G35_TABLE
    assert time.perf_counter() - t0 < 1.0


# -- the 3x3 grid census ----------------------------------------------------

# fractional vertex of the first non-integral class, stated over an
# explicit label order so the pin is readable next to the class key
G1_KEY = "1,1|2|1,1,1|2,1|3|2,2,2|3,3|3,3,2|3,3,3"
G1_ORDER = ((3, 3, 3), (3, 3, 2), (2, 2, 2), (1, 1, 1), (3, 3), (2, 1), (1, 1), (3,), (2,))
G1_VERTEX = (F(3, 2), F(3, 2), F(1), F(1, 2), F(1), F(1, 2), F(1, 2), F(1, 2), F(1, 2))


def test_census_g36_counts_and_fractional_vertex():
    rep = small_census(3, 6)
    assert rep.elapsed < 120.0
    assert (rep.class_count, rep.integral_count, rep.nonintegral_count) == (34, 32, 2)
    g1 = next(c for c in rep.classes if c.key_str == G1_KEY)
    (w,) = g1.nonintegral_vertices
    chart = g1.chart
    assert set(G1_ORDER) == set(chart.labels)
    by_label = dict(zip(chart.labels, w))
    assert tuple(by_label[mu] for mu in G1_ORDER) == G1_VERTEX


# -- lattice points, volume, valuation formulas per class -------------------

def test_lattice_counts_match_pattern_counts(shaped_census):
    """Dilations r = 1, 2, 3 of every class polytope hold exactly as many
    integer points as there are interlacing patterns, and at r = 1 the
    points are precisely the minimal-term valuation vectors."""
    shape, rep = shaped_census
    expected = {r: gt_pattern_count(shape, r) for r in (1, 2, 3)}
    for c in rep.classes:
        for r in (1, 2, 3):
            assert len(lattice_points(c.polytope, r)) == expected[r], (c.key_str, r)
        chart = c.chart
        vals = {maxdiag_valuation(lam, chart.labels) for lam in all_partitions(shape)}
        assert set(c.lattice) == vals, c.key_str


def test_volume_closed_form(shaped_census):
    shape, rep = shaped_census
    v = volume_formula(shape)
    for c in rep.classes:
        assert volume(c.polytope) == v, c.key_str


def test_valuation_closed_forms_on_every_chart(shaped_census):
    """Network-flow minima and maxima against the diagonal closed forms,
    chart by chart."""
    shape, rep = shaped_census
    for c in rep.classes:
        chart = c.chart
        for lam in all_partitions(shape):
            assert val_min(chart, lam) == maxdiag_valuation(lam, chart.labels)
            assert val_max(chart, lam) == highest_valuation(lam, shape, chart.labels)


# -- the two polytope constructions agree -----------------------------------

@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_matching_polytope_equals_transported_polytope(k, n):
    """Chain the piecewise-linear mutation along every discovery edge of
    the census and compare, class by class, with the polytope cut out
    directly from the matching expansion of that class.  Vertex sets must
    agree exactly; the transported copy is reused as the source of the
    next edge so errors cannot cancel."""
    rep = small_census(k, n)
    cache = {}
    for c in sorted(rep.classes, key=lambda c: len(c.path)):
        if c.parent is None:
            cache[c.key] = c.polytope
            continue
        nu, new_label = c.path[-1]
        parent = rep.record(c.parent)
        moved = trop_mutate_polytope(cache[c.parent], parent.quiver, nu)
        transported = relabel_polytope(moved, nu, new_label)
        assert transported.hrep.coords == c.polytope.hrep.coords, c.key_str
        assert same_vertex_set(transported, c.polytope), c.key_str
        cache[c.key] = transported


def test_square_moves_transport_valuations_and_lattice():
    rep = small_census(3, 6)
    ok, detail = _check_transport(GridShape(3, 6), rep)
    assert ok, detail


# -- interlacing change of basis --------------------------------------------

def test_difference_basis_carries_polytope_onto_interlacing_patterns():
    for k, n in SMALL_SHAPES:
        shape = GridShape(k, n)
        assert abs(rank_det(gt_transform_matrix(shape))[1]) == 1
        exp = marsh_scott_expansion(rec_chart(k, n))
        for r in (1, 2):
            P = gamma_qpolytope(exp, standard_r_vec(shape, r))
            assert same_vertex_set(gt_transform_polytope(P, shape), qpolytope(gt_polytope(shape, r)))


# -- Puiseux witness --------------------------------------------------------

@pytest.mark.parametrize("k,n", [(3, 5), (2, 5)])
def test_puiseux_witness_realizes_all_valuations(k, n):
    shape = GridShape(k, n)
    for lam in all_partitions(shape):
        w = puiseux_witness(lam, shape)
        for mu in all_partitions(shape):
            assert w.valuation(mu) == max_diag(SkewShape(mu, lam))


# -- boundary weights -------------------------------------------------------

def test_weight_vector_translation_and_degenerate_weights():
    """A general integer weight vector only translates the polytope of its
    total weight; weight -1 kills it and weight 0 collapses it to the
    origin."""
    rng = random.Random(RVEC_SEED)
    for k, n in SMALL_SHAPES:
        shape = GridShape(k, n)
        chart = rec_chart(k, n)
        exp = marsh_scott_expansion(chart)
        for _ in range(3):
            r_vec = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(r_vec) == 0:
                r_vec = standard_r_vec(shape, 1)
            P = gamma_qpolytope(exp, r_vec)
            base = gamma_qpolytope(exp, standard_r_vec(shape, sum(r_vec)))
            shifted = base.translated(translation_vector(r_vec, chart))
            assert same_vertex_set(P, shifted)
            assert same_vertex_set(P, qpolytope(shifted.hrep))
            assert sorted(P.vertices) == sorted(shifted.vertices)
        assert gamma_qpolytope(exp, standard_r_vec(shape, -1)).is_empty()
        origin = gamma_qpolytope(exp, standard_r_vec(shape, 0))
        assert origin.vertices == ((F(0),) * len(chart.labels),)


# -- twist ------------------------------------------------------------------

def test_twist_diagram_closes_over_a_large_prime_field():
    # failure of a true identity needs a root of a fixed nonzero
    # polynomial mod p at every one of the 20 trials; p is 61 bits
    check_twist_diagram(PRIME, random.Random(TWIST_SEED), trials=20)


# -- the fractional vertex has a function-theoretic witness -----------------

def test_binomial_valuation_halves_to_the_fractional_vertex():
    rep = small_census(3, 6)
    g1 = next(c for c in rep.classes if c.key_str == G1_KEY)
    chart = g1.chart
    v = plucker_binomial_valuation(
        chart,
        positive=((3, 3, 2), (1,)),
        negative=((3, 3, 3), ()),
    )
    assert v == (1, 1, 1, 1, 1, 2, 2, 3, 3)
    (w,) = g1.nonintegral_vertices
    assert tuple(F(x, 2) for x in v) == w


# -- the deep census --------------------------------------------------------

@pytest.mark.deep
def test_deep_census_g37_headline_tallies():
    """Exhaustive census of the twelve-coordinate grid.

    The integral/non-integral split asserted here, (216, 43), is an
    externally reported tally that this code base does not reproduce:
    every run lands on (217, 42), the per-class data is self-consistent,
    and scripts/deep_census_audit.py certifies the audited split with two
    checks that do not share code with the enumeration (a free rotation
    action that forces both counts to be divisible by seven, which 216
    and 43 are not, and a direct half-integral vertex sweep on the
    inequality systems).  The regression pin in okbodies.census carries
    the audited numbers; this test keeps the external ones and is
    expected to fail until the discrepancy is resolved on the other side.
    """
    rep = census(GridShape(3, 7), deep=True)
    assert (rep.class_count, rep.integral_count, rep.nonintegral_count) == (259, 216, 43)
