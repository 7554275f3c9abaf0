"""Superpotential expansions, their tropicalizations and the transport of
polytopes between charts, pinned on the 2x3 grid goldens."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from okbodies.census import census
from okbodies.charts import NetworkChart, maxdiag_valuation
from okbodies.mirror import (
    TropMutation,
    gamma_polytope,
    gamma_qpolytope,
    gamma_system,
    marsh_scott_expansion,
    rectangles_superpotential,
    relabel_polytope,
    standard_r_vec,
    translation_vector,
    trop_mutate_polytope,
    trop_system_to_json,
)
from okbodies.partitions import GridShape, all_partitions, boundary_target_set, frozen_mu
from okbodies.plabic import build_rectangles, movable_faces, normalize, quiver_of, square_move
from okbodies.polyhedra import (
    HPolytope,
    QPolytope,
    lattice_points,
    qpolytope,
    same_vertex_set,
    volume,
    volume_formula,
)

F = Fraction
G35 = GridShape(k=3, n=5)


@lru_cache(maxsize=None)
def rec_chart(k, n):
    return NetworkChart.of(normalize(build_rectangles(GridShape(k=k, n=n))))


# -- expansions -------------------------------------------------------------

def test_rectangles_superpotential_g35_golden():
    exp = rectangles_superpotential(G35)
    labels = exp.labels
    assert labels == ((1,), (1, 1), (2,), (3,), (2, 2), (3, 3))

    def mono(num, den):
        exps = [0] * len(labels)
        for p in num:
            exps[labels.index(p)] += 1
        for p in den:
            exps[labels.index(p)] -= 1
        return tuple(exps)

    assert Counter(exp.summands) == Counter(
        [
            (1, mono([(1, 1)], [(1,)])),
            (1, mono([(2, 2)], [(1,), (2,)])),
            (1, mono([(3, 3)], [(2,), (3,)])),
            (2, mono([(2,)], [(3, 3)])),
            (3, mono([(3,)], [(2,)])),
            (3, mono([(3, 3), (1,)], [(2,), (2, 2)])),
            (4, mono([(2,)], [(1,)])),
            (4, mono([(2, 2)], [(1,), (1, 1)])),
            (5, mono([(1,)], [])),
        ]
    )
    assert exp.total_terms() == 9


def test_term_count_formula():
    for k, n in [(2, 4), (3, 5), (2, 5), (3, 6), (3, 7)]:
        shape = GridShape(k=k, n=n)
        exp = rectangles_superpotential(shape)
        rows = shape.rows
        assert exp.total_terms() == 2 + (rows - 1) * k + rows * (k - 1)
        assert {i for i, _ in exp.summands} == set(range(1, n + 1))


def test_boundary_target_sets_g35():
    # the cyclic window of size n-k ending just past i, as the Marsh-Scott
    # expansion reads it
    assert boundary_target_set(1, G35) == frozenset({2, 5})
    assert boundary_target_set(2, G35) == frozenset({1, 3})
    assert boundary_target_set(3, G35) == frozenset({2, 4})
    assert boundary_target_set(4, G35) == frozenset({3, 5})
    assert boundary_target_set(5, G35) == frozenset({1, 4})


def test_marsh_scott_matching_counts_g35():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    per_slot = Counter(i for i, _ in set(exp.summands))
    assert per_slot == {1: 3, 2: 1, 3: 2, 4: 2, 5: 1}


def test_marsh_scott_unique_matching_weight_g35():
    # slot 2 carries the q term: the single matching gives p2/p33
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    (exps,) = {e for i, e in exp.summands if i == 2}
    assert dict(zip(chart.labels, exps)) == {
        (1,): 0, (1, 1): 0, (2,): 1, (3,): 0, (2, 2): 0, (3, 3): -1,
    }


def test_marsh_scott_equals_rectangles():
    for k, n in [(2, 4), (3, 5), (2, 5), (3, 6), (3, 7)]:
        chart = rec_chart(k, n)
        ms = marsh_scott_expansion(chart)
        closed = rectangles_superpotential(chart.shape)
        assert ms.labels == closed.labels
        assert Counter(ms.summands) == Counter(closed.summands)


def test_marsh_scott_positive_after_square_moves():
    # every summand is a coefficient-1 monomial, so the W_i are positive;
    # what can go wrong is a boundary slot with no matching or a summand
    # that is not an integer vector over the chart's labels
    rng = random.Random(0x5EED)
    G = rec_chart(3, 6).graph
    for _ in range(3):
        nu = rng.choice(movable_faces(G))
        G = square_move(G, nu, rng).graph
        chart = NetworkChart.of(G)
        exp = marsh_scott_expansion(chart)
        assert exp.labels == chart.labels
        assert {i for i, _ in exp.summands} == set(range(1, G.shape.n + 1))
        for _, exps in exp.summands:
            assert len(exps) == len(chart.labels) and all(type(e) is int for e in exps)


def test_frozen_boundary_labels_match_closed_form(census36_graphs):
    # frozen_mu(j) labels the face behind the rim arc from j to j + 1
    graphs = [rec_chart(k, n).graph for k, n in [(3, 5), (3, 6), (2, 5)]]
    graphs += [c.graph for c in census36_graphs[0].classes]
    for G in graphs:
        _, _, _, arc_face, _ = oracles.faces_by_rotation_walk(G)
        label = oracles.labels_by_rotation_walk(G)
        n = G.shape.n
        assert {j: label[arc_face[j]] for j in range(1, n + 1)} == {
            j: frozen_mu(j, G.shape) for j in range(1, n + 1)
        }


def test_marsh_scott_agrees_with_the_edge_list_oracle(census36_graphs):
    # summands and their order, on every class chart of (2,5), (3,5) and
    # (3,6) and on the charts of the 120 graphs the (3,6) square moves return
    report, moved = census36_graphs
    charts = [c.chart for shape in (GridShape(2, 5), G35) for c in census(shape).classes]
    charts += [c.chart for c in report.classes] + [NetworkChart.of(G) for G in moved]
    assert len(charts) == 5 + 5 + 34 + 120
    for chart in charts:
        assert list(marsh_scott_expansion(chart).summands) == oracles.marsh_scott_by_edges(chart)


# -- gamma systems ----------------------------------------------------------

def test_gamma_g35_inequalities_golden():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    r = F(7)
    H = gamma_polytope(gamma_system(exp, standard_r_vec(G35, r)))
    labels = list(H.coords)

    def row(terms, const=F(0)):
        a = [F(0)] * len(labels)
        for p, c in terms.items():
            a[labels.index(p)] = F(c)
        return (tuple(a), const)

    want = {
        row({(1,): 1}),
        row({(1, 1): 1, (1,): -1}),
        row({(2, 2): 1, (1,): -1, (2,): -1}),
        row({(3, 3): 1, (2,): -1, (3,): -1}),
        row({(2,): 1, (1,): -1}),
        row({(3,): 1, (2,): -1}),
        row({(2, 2): 1, (1,): -1, (1, 1): -1}),
        row({(3, 3): 1, (1,): 1, (2,): -1, (2, 2): -1}),
        row({(2,): 1, (3, 3): -1}, r),
    }
    assert set(H.ineqs) == want


def test_gamma_vertices_are_the_valuations():
    for k, n in [(3, 5), (3, 6)]:
        chart = rec_chart(k, n)
        P = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(chart.shape, 1))
        rows = sorted(chart.min_valuations.values())
        assert sorted(P.vertices) == rows
        assert sorted(tuple(map(F, p)) for p in lattice_points(P, 1)) == rows


def test_gamma_volume_matches_formula():
    for k, n in [(2, 4), (3, 5)]:
        chart = rec_chart(k, n)
        P = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(chart.shape, 1))
        assert volume(P) == volume_formula(chart.shape)


def test_negative_r_gives_empty_polytope():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    assert gamma_qpolytope(exp, standard_r_vec(G35, -1)).is_empty()


def test_zero_r_gives_origin():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    P = gamma_qpolytope(exp, standard_r_vec(G35, 0))
    assert P.vertices == ((F(0),) * 6,)


def test_dilation_scales_the_hrep():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    P1 = gamma_qpolytope(exp, standard_r_vec(G35, 1))
    P3 = gamma_qpolytope(exp, standard_r_vec(G35, 3))
    dilated = oracles.dilate(P1, 3)
    assert same_vertex_set(P3, dilated)
    assert same_vertex_set(P3, qpolytope(dilated.hrep))


def trop_value(expansion, i, v):
    """Min-convention tropicalization of the summands of W_i, evaluated at
    a point of the exponent space."""
    return min(
        sum(e * Fraction(x) for e, x in zip(exps, v)) for j, exps in expansion.summands if j == i
    )


def test_frozen_ratio_trop_identity():
    for k, n in [(3, 5), (3, 6)]:
        chart = rec_chart(k, n)
        shape = chart.shape
        exp = marsh_scott_expansion(chart)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e_j = maxdiag_valuation(frozen_mu(j, shape), chart.labels)
                want = (1 if i == j else 0) - (1 if i == shape.rows else 0)
                assert trop_value(exp, i, e_j) == want


def test_translation_identity_g35():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    r_vec = (1, 1, 0, 0, 0)
    P = gamma_qpolytope(exp, r_vec)
    shifted = gamma_qpolytope(exp, standard_r_vec(G35, 2)).translated(
        translation_vector(r_vec, chart)
    )
    assert same_vertex_set(P, shifted)
    assert same_vertex_set(P, qpolytope(shifted.hrep))
    assert sorted(P.vertices) == sorted(shifted.vertices)


def test_zero_total_weight_is_a_single_point():
    chart = rec_chart(3, 5)
    exp = marsh_scott_expansion(chart)
    r_vec = (1, 0, 0, -1, 0)
    P = gamma_qpolytope(exp, r_vec)
    assert P.vertices == (translation_vector(r_vec, chart),)


def test_standard_r_vec_slot():
    assert standard_r_vec(G35, 5) == (F(0), F(5), F(0), F(0), F(0))
    with pytest.raises(ValueError):
        gamma_system(rectangles_superpotential(G35), (1, 2, 3))


def test_trop_system_json_layout():
    exp = marsh_scott_expansion(rec_chart(3, 5))
    doc = trop_system_to_json(gamma_system(exp, standard_r_vec(G35, 1)))
    assert doc["schema"] == "okbodies.tropsystem/1"
    assert doc["r_vec"] == ["0", "1", "0", "0", "0"]
    assert [e["shift_index"] for e in doc["entries"]] == [1, 2, 3, 4, 5]
    assert sum(len(e["forms"]) for e in doc["entries"]) == 9
    q_forms = doc["entries"][1]["forms"]
    assert q_forms == [[0, 0, 1, 0, 0, -1, "1"]]


# -- tropical mutation ------------------------------------------------------

def test_mutation_at_frozen_label_raises():
    chart = rec_chart(3, 5)
    Q = quiver_of(chart.graph)
    with pytest.raises(ValueError, match="frozen"):
        TropMutation.of(Q, (3, 3), chart.labels, (3, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_mutation_is_an_involution(vals):
    chart = rec_chart(3, 5)
    Q = quiver_of(chart.graph)
    coords = tuple(chart.labels)
    v = tuple(F(x) for x in vals)
    for nu in ((1,), (2,)):
        move = TropMutation.of(Q, nu, coords, nu)
        for variant in ("min", "max"):
            w = move.mutate(v, variant)
            assert move.mutate(w, variant) == v
            # integral points stay integral, and integers stay ints
            assert all(x.denominator == 1 for x in w)
            w_int = move.mutate(tuple(vals), variant)
            assert w_int == w and all(type(x) is int for x in w_int)


def test_valuation_transport_under_square_moves():
    rng = random.Random(41)
    chart = rec_chart(3, 5)
    coords = tuple(chart.labels)
    Q = quiver_of(chart.graph)
    for nu in movable_faces(chart.graph):
        res = square_move(chart.graph, nu, rng)
        chart2 = NetworkChart.of(res.graph)
        move = TropMutation.of(Q, nu, coords, res.new_label)
        assert move.new_coords == tuple(chart2.labels)
        for variant in ("min", "max"):
            t1 = chart.min_valuations if variant == "min" else chart.max_valuations
            t2 = chart2.min_valuations if variant == "min" else chart2.max_valuations
            for lam in all_partitions(G35):
                assert move(t1[lam], variant) == t2[lam]


def test_polytope_transport_matches_marsh_scott():
    rng = random.Random(42)
    chart = rec_chart(3, 5)
    Q = quiver_of(chart.graph)
    P = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(G35, 1))
    for nu in movable_faces(chart.graph):
        res = square_move(chart.graph, nu, rng)
        chart2 = NetworkChart.of(res.graph)
        image = relabel_polytope(trop_mutate_polytope(P, Q, nu), nu, res.new_label)
        direct = gamma_qpolytope(marsh_scott_expansion(chart2), standard_r_vec(G35, 1))
        assert same_vertex_set(image, direct)
        assert image.vertices == direct.vertices  # both lex-sorted
        assert volume(image) == volume(P)
        assert len(lattice_points(image, 1)) == 10


def test_relabel_polytope_sorts_the_moved_vertices_lexicographically():
    # (1, 1) becomes (2, 1) and trades slots with (2,); fractions with
    # different denominators must still come out in lex order
    coords = ((1,), (1, 1), (2,), (3,))
    verts = (
        (F(0), F(0), F(1, 2), F(1)),
        (F(0), F(5), F(1, 3), F(0)),
        (F(1), F(0), F(0), F(0)),
        (F(0), F(0), F(2, 3), F(1)),
        (F(0), F(-1), F(1, 2), F(1)),
    )
    P = QPolytope(HPolytope(coords, ()), verts)
    out = relabel_polytope(P, (1, 1), (2, 1))
    assert out.hrep.coords == ((1,), (2,), (2, 1), (3,))
    assert list(out.vertices) == sorted(out.vertices)
    assert sorted(out.vertices) == sorted((a, c, b, d) for a, b, c, d in verts)


def test_same_vertex_set_needs_the_same_points_and_coordinate_order():
    coords = ((1,), (2,))
    P = QPolytope(HPolytope(coords, ()), ((F(0), F(0)), (F(1), F(1, 2)), (F(0), F(1))))
    shuffled = QPolytope(HPolytope(coords, ()), tuple(reversed(P.vertices)))
    assert same_vertex_set(P, shuffled)
    moved = QPolytope(HPolytope(coords, ()), ((F(0), F(0)), (F(1), F(1, 3)), (F(0), F(1))))
    assert not same_vertex_set(P, moved)
    fewer = QPolytope(HPolytope(coords, ()), P.vertices[:2])
    assert not same_vertex_set(P, fewer)
    swapped = QPolytope(HPolytope(tuple(reversed(coords)), ()), P.vertices)
    assert not same_vertex_set(P, swapped)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_same_vertex_set_agrees_with_the_fraction_sets(data):
    # Q is P's points shuffled, perhaps with one point replaced, so the two
    # sets are equal or not and their denominators agree or not
    point = st.tuples(*[st.builds(F, st.integers(-4, 4), st.integers(1, 4))] * 2)
    pts = data.draw(st.lists(point, max_size=6, unique=True))
    qs = list(data.draw(st.permutations(pts)))
    if qs and data.draw(st.booleans()):
        qs[data.draw(st.integers(0, len(qs) - 1))] = data.draw(point)
    qs = list(dict.fromkeys(qs))  # vertex sets have no repeats
    coords = ((1,), (2,))
    P, Q = (QPolytope(HPolytope(coords, ()), tuple(vs)) for vs in (pts, qs))
    assert same_vertex_set(P, Q) == (len(pts) == len(qs) and set(pts) == set(qs))


def test_polytope_mutation_round_trip():
    rng = random.Random(43)
    chart = rec_chart(3, 5)
    Q = quiver_of(chart.graph)
    P = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(G35, 1))
    nu = (2,)
    res = square_move(chart.graph, nu, rng)
    out = relabel_polytope(trop_mutate_polytope(P, Q, nu), nu, res.new_label)
    back_quiver = Q.mutate(nu).relabel(nu, res.new_label)
    back = relabel_polytope(
        trop_mutate_polytope(out, back_quiver, res.new_label), res.new_label, nu
    )
    assert same_vertex_set(back, P)


def test_polytope_mutation_returns_the_hull_of_a_nonconvex_image():
    # the box [-1, 1]^6 in the rectangles chart of the 2x3 grid: its image
    # under the mutation at (1,) is not convex
    chart = rec_chart(3, 5)
    coords = tuple(chart.labels)
    Q = quiver_of(chart.graph)
    d = len(coords)
    box = qpolytope(
        HPolytope(
            coords,
            tuple((tuple(F(s * (i == j)) for j in range(d)), F(1)) for i in range(d) for s in (1, -1)),
        )
    )
    hull = trop_mutate_polytope(box, Q, (1,))
    move = TropMutation.of(Q, (1,), coords, (1,))

    def pulls_back_into_box(w):
        # the mutation is an involution, so w is in the image iff move(w) is in the box
        return oracles.contains(box.hrep.ineqs, move.mutate(w))

    assert len(hull.vertices) == 88
    # every hull vertex lies in the image, so a check of the vertices alone
    # cannot tell the hull from the image ...
    assert all(pulls_back_into_box(w) for w in hull.vertices)
    # ... but midpoints of hull vertices can lie outside it
    midpoints = [tuple((x + y) / 2 for x, y in zip(v, w)) for v, w in combinations(hull.vertices, 2)]
    assert sum(not pulls_back_into_box(m) for m in midpoints) == 288


def test_mutating_a_point_polytope():
    chart = rec_chart(3, 5)
    Q = quiver_of(chart.graph)
    P0 = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(G35, 0))
    out = trop_mutate_polytope(P0, Q, (2,))
    assert out.vertices == ((F(0),) * 6,)
    # a point off the origin: the result is the point moved onto its image,
    # and its rows cut out that image alone
    P = gamma_qpolytope(marsh_scott_expansion(chart), (1, 0, 0, -1, 0))
    out = trop_mutate_polytope(P, Q, (2,))
    image = TropMutation.of(Q, (2,), P.coords, (2,)).mutate(P.vertices[0])
    assert image != P.vertices[0]
    assert out.vertices == (image,)
    assert qpolytope(out.hrep).vertices == out.vertices
