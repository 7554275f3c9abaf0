import random
from itertools import combinations

import pytest

import oracles
import okbodies.census as census_module
from okbodies import plabic
from okbodies.census import census
from okbodies.charts import NetworkChart
from okbodies.mirror import marsh_scott_expansion
from okbodies.partitions import GridShape, all_partitions, boundary_target_set, frozen_mu
from okbodies.plabic import (
    BLACK,
    BOUNDARY,
    WHITE,
    PlabicGraph,
    boundary_matchings,
    build_rectangles,
    face_labels,
    faces_of,
    movable_faces,
    normalize,
    quiver_of,
    square_move,
    trip,
)

G35 = GridShape(3, 5)
G36 = GridShape(3, 6)


@pytest.fixture(scope="module")
def rec35():
    return build_rectangles(G35)


@pytest.fixture(scope="module")
def rec36():
    return build_rectangles(G36)


def test_face_count_and_labels(rec35):
    assert len(faces_of(rec35)) == G35.num_boxes + 1
    lab = face_labels(rec35)
    assert set(lab.labels) == {(), (1,), (2,), (3,), (1, 1), (2, 2), (3, 3)}
    assert lab.frozen == frozenset({(), (3,), (3, 3), (2, 2), (1, 1)})
    assert lab.mutable == [(1,), (2,)]


def test_boundary_faces_are_the_frozen_rectangles(rec35, rec36):
    for G in (rec35, rec36):
        lab = face_labels(G)
        expect = {frozen_mu(i, G.shape) for i in range(1, G.shape.n + 1)}
        assert lab.frozen == frozenset(expect)


def test_trip_permutation_is_the_shift(rec35, rec36):
    for G in (rec35, rec36):
        n, d = G.shape.n, G.shape.rows
        assert {i: trip(G, i)[-1][1] for i in range(1, n + 1)} == {
            i: (i + d - 1) % n + 1 for i in range(1, n + 1)
        }


def test_trips_end_to_end(rec35):
    t = trip(rec35, 1)
    assert t[0][0] == 1 and t[-1][1] == 3
    # a trip never repeats a dart
    assert len(set(t)) == len(t)


def test_quiver_matches_frozen_matrix(rec35):
    Q = quiver_of(rec35)
    order = [(1,), (2,), (3,), (3, 3), (2, 2), (1, 1), ()]
    assert [Q.entry((1,), y) for y in order] == [0, 1, 0, 0, -1, 1, -1]
    assert [Q.entry((2,), y) for y in order] == [-1, 0, 1, -1, 1, 0, 0]
    # skew-symmetry, and no arrows between frozen labels
    for x in order:
        for y in order:
            assert Q.entry(x, y) == -Q.entry(y, x)
            if x in Q.frozen and y in Q.frozen:
                assert Q.entry(x, y) == 0


def test_quiver_mutation_involutive(rec35):
    Q = quiver_of(rec35)
    QQ = Q.mutate((1,)).mutate((1,))
    for x in Q.labels:
        for y in Q.labels:
            assert Q.entry(x, y) == QQ.entry(x, y)


def test_sparse_mutation_equals_the_all_pairs_oracle(census36_graphs):
    report, _ = census36_graphs
    checked = 0
    for c in report.classes:
        Q = c.quiver
        for nu in Q.labels:
            if nu not in Q.frozen:
                assert Q.mutate(nu) == oracles.mutate_over_all_pairs(Q, nu)
                checked += 1
    assert checked == 34 * 4


def test_normalize_idempotent_and_label_preserving(rec35, rec36):
    for G in (rec35, rec36):
        H = normalize(G)
        assert normalize(H) == H
        assert set(face_labels(H).labels) == set(face_labels(G).labels)
        # the normal form: no internal degree-2 vertex between two internal ones
        assert not any(
            len(H.rot[v]) == 2 and all(H.color[u] != BOUNDARY for u in H.rot[v])
            for v in H.rot
            if H.color[v] != BOUNDARY
        )
    for k, n in [(3, 5), (3, 6), (2, 4), (1, 3), (2, 5), (4, 6)]:
        G = build_rectangles(GridShape(k, n))
        assert normalize(G) == G


def test_a_subdivided_graph_keeps_its_answers_and_is_refused_by_the_moves(census36_graphs, rec36):
    # old-form graphs (here every internal edge subdivided by a degree-2
    # pair) give the same labels, quiver, Pluecker table and summands as
    # their normal form, normalize back to it, and are refused by the moves
    report, _ = census36_graphs
    graphs = [c.graph for c in report.classes] + [rec36]
    assert len(graphs) == 35
    for G in graphs:
        S = oracles.subdivided(G)
        assert len(S.rot) > len(G.rot)
        lab_g, lab_s = face_labels(G), face_labels(S)
        assert lab_s.labels == lab_g.labels
        assert lab_s.frozen == lab_g.frozen
        assert quiver_of(S) == quiver_of(G)
        chart_g, chart_s = NetworkChart.of(G), NetworkChart.of(S)
        assert chart_s.plueckers == chart_g.plueckers
        assert sorted(marsh_scott_expansion(chart_s).summands) == sorted(
            marsh_scott_expansion(chart_g).summands
        )
        assert normalize(S) == G
        with pytest.raises(ValueError, match="not in normal form"):
            movable_faces(S)
        for nu in movable_faces(G):
            with pytest.raises(ValueError, match="not in normal form"):
                square_move(S, nu)


def test_matching_counts_match_flow_counts(rec35):
    # frozen counts: number of flows for each boundary subset of the
    # superpotential, cross-checked by hand against the flow polynomials
    for J, want in [((2, 5), 3), ((1, 3), 1), ((2, 4), 2), ((3, 5), 2), ((1, 4), 1)]:
        _, masks = boundary_matchings(rec35, J)
        assert len(masks) == want


def _matching_boundaries(shape):
    # the source matching's boundary set and the boundary sets of the
    # superpotential summands
    return [frozenset(range(1, shape.rows + 1))] + [
        boundary_target_set(i, shape) for i in range(1, shape.n + 1)
    ]


def test_faces_and_labels_agree_with_the_rotation_walk(census36_graphs):
    report, moved = census36_graphs
    classes = [c.graph for c in report.classes]
    for G in classes + moved:
        faces = faces_of(G)
        orbits, of_dart, boundary, arc_face, adj = oracles.faces_by_rotation_walk(G)
        assert faces.darts_of == orbits
        assert faces.of_dart == of_dart
        assert faces.boundary == boundary
        for i in range(1, G.shape.n + 1):
            assert trip(G, i) == oracles.trip_by_rotation_walk(G, i)
        assert face_labels(G).partition_of_face == oracles.labels_by_rotation_walk(G)


@pytest.mark.deep
def test_labels_agree_with_the_rotation_walk_on_the_deep_g37_classes():
    classes = [c.graph for c in census(GridShape(3, 7), deep=True).classes]
    assert len(classes) == 259
    for G in classes:
        assert face_labels(G).partition_of_face == oracles.labels_by_rotation_walk(G)
        check_source_matching(G)


def test_labels_refuse_a_closed_trip(rec35):
    # the (3,5) rectangles graph beside a disjoint alternating 4-cycle of
    # degree-2 vertices: a valid rotation system, but the trips round the
    # cycle are closed, and its two faces lie left of no boundary trip
    a = max(rec35.rot) + 1
    b, c, d = a + 1, a + 2, a + 3
    color, rot = dict(rec35.color), dict(rec35.rot)
    color.update({a: BLACK, b: WHITE, c: BLACK, d: WHITE})
    rot.update({a: (b, d), b: (a, c), c: (b, d), d: (c, a)})
    G = PlabicGraph(rec35.shape, color, rot)
    with pytest.raises(AssertionError, match="not reduced"):
        face_labels(G)


def check_source_matching(G):
    """The search finds one matching with boundary 1..n-k, the oracle's, and
    the oracle's orientation of it is an acyclic perfect orientation with
    sources 1..n-k: one edge into each internal white vertex, one out of
    each black vertex."""
    J = range(1, G.shape.rows + 1)
    edges, masks = boundary_matchings(G, J)
    (matching,) = oracles.matchings_by_edges(G, J)
    assert [frozenset(e for t, e in enumerate(edges) if m >> t & 1) for m in masks] == [matching]
    head, topo = oracles.orientation_by_sort_and_pop(G, matching)
    assert sorted(topo) == G.vertices()
    assert [i for i in range(1, G.shape.n + 1) if head[frozenset((i, G.rot[i][0]))] != i] == list(J)
    for v, c in G.color.items():
        if c != BOUNDARY:
            incoming = sum(1 for u in G.rot[v] if head[frozenset((u, v))] == v)
            assert (incoming if c == WHITE else len(G.rot[v]) - incoming) == 1


def test_perfect_orientation(rec35):
    others = [build_rectangles(GridShape(k, n)) for k, n in ((2, 4), (1, 3), (2, 5), (4, 6))]
    for G in [rec35] + others:
        check_source_matching(G)


def test_orientation_agrees_with_the_sort_and_pop_oracle(census36_graphs):
    # the Pluecker table takes its source matching from the search with the
    # boundary optional and directs each dart out of an internal vertex v
    # at v when (the edge is in it) == (v is white)
    report, moved = census36_graphs
    for G in [c.graph for c in report.classes] + moved:
        check_source_matching(G)
        n = G.shape.n
        edges, masks = boundary_matchings(G)
        (m0,) = [m for m in masks if m & (1 << n) - 1 == (1 << G.shape.rows) - 1]
        source = frozenset(e for t, e in enumerate(edges) if m0 >> t & 1)
        head, _ = oracles.orientation_by_sort_and_pop(G, source)
        for v, c in G.color.items():
            if c != BOUNDARY:
                for u in G.rot[v]:
                    e = frozenset((u, v))
                    assert (head[e] == v) == ((e in source) == (c == WHITE)), (v, u)


def test_matchings_agree_with_the_edge_recursion_oracle(rec36, census36_graphs):
    graphs = [c.graph for c in census(G35).classes] + [rec36] + [c.graph for c in census36_graphs[0].classes]
    for G in graphs:
        for J in _matching_boundaries(G.shape):
            edges, masks = boundary_matchings(G, J)
            decoded = [frozenset(e for t, e in enumerate(edges) if m >> t & 1) for m in masks]
            decoded.sort(key=lambda m: sorted(map(sorted, m)))
            assert decoded == oracles.matchings_by_edges(G, J), sorted(J)


def test_optional_boundary_search_agrees_with_the_edge_recursion_oracle(census36_graphs):
    # grouped by boundary trace, the one search with the boundary vertices
    # optional lists exactly the matchings with each boundary set
    graphs = [c.graph for c in census(G35).classes] + [c.graph for c in census36_graphs[0].classes]
    for G in graphs:
        n = G.shape.n
        edges, masks = boundary_matchings(G)
        assert [set(edges[i - 1]) & set(range(1, n + 1)) for i in range(1, n + 1)] == [
            {i} for i in range(1, n + 1)
        ]
        by_trace = {}
        for m in masks:
            J = frozenset(i for i in range(1, n + 1) if m >> (i - 1) & 1)
            by_trace.setdefault(J, []).append(frozenset(e for t, e in enumerate(edges) if m >> t & 1))
        subsets = [frozenset(J) for J in combinations(range(1, n + 1), G.shape.rows)]
        assert set(by_trace) <= set(subsets)
        for J in subsets:
            want = oracles.matchings_by_edges(G, J)
            assert sorted(by_trace.get(J, []), key=lambda m: sorted(map(sorted, m))) == want, sorted(J)


def test_square_moves_frozen_labels(rec35):
    rng = random.Random(123)
    G = normalize(rec35)
    assert movable_faces(G) == [(1,), (2,)]
    res1 = square_move(G, (1,), rng)
    assert res1.new_label == (2, 1)
    res2 = square_move(G, (2,), rng)
    assert res2.new_label == (3, 2)
    back = square_move(res1.graph, (2, 1), rng)
    assert back.new_label == (1,)
    assert back.graph == G  # the move is an involution on normal forms


def test_square_move_refuses_frozen_and_missing(rec35):
    with pytest.raises(ValueError):
        square_move(rec35, (3, 3))
    with pytest.raises(ValueError):
        square_move(rec35, (9, 9, 9))


def test_square_move_refuses_boundary_faces_and_hexagons(rec36):
    G = normalize(rec36)
    lab = face_labels(G)
    touching = {
        lab.partition_of_face[f]
        for f, darts in enumerate(lab.faces.darts_of)
        if any(G.color[d[0]] == BOUNDARY for d in darts)
    }
    # the faces at the boundary are the frozen ones
    assert touching == set(lab.frozen)
    for lam in touching:
        with pytest.raises(ValueError, match="frozen"):
            square_move(G, lam)
    # (2,2) is the central hexagon of the 3x3 rectangles graph
    assert len(lab.faces.darts_of[lab.face_of_partition[(2, 2)]]) == 6
    assert (2, 2) in lab.mutable and (2, 2) not in movable_faces(G)
    with pytest.raises(ValueError, match="not a quadrilateral"):
        square_move(G, (2, 2))


def test_exchange_check_reads_each_label_once_per_move(rec36, monkeypatch):
    # six labels take part in the exchange relation; their column sets are
    # read once per move, for one expansion over the three random matrices
    real = plabic.laplace_minors
    calls = []

    def counting(mats, cols, p):
        calls.append((len(mats), len(cols)))
        return real(mats, cols, p)

    monkeypatch.setattr(plabic, "laplace_minors", counting)
    faces = movable_faces(rec36)
    for nu in faces:
        square_move(rec36, nu, random.Random(7))
    assert calls == [(3, 6)] * len(faces)


def test_exchange_check_rejects_a_wrong_label(rec35, monkeypatch):
    real = plabic._check_exchange
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(plabic, "_check_exchange", recording)
    nu = movable_faces(rec35)[0]
    res = square_move(rec35, nu)
    ((shape, nu_seen, nu2, diag1, diag2, _),) = calls
    assert (nu_seen, nu2) == (nu, res.new_label)
    real(shape, nu, nu2, diag1, diag2, random.Random(1))
    for wrong in all_partitions(shape):
        if wrong == nu2:
            continue
        with pytest.raises(AssertionError, match="exchange relation failed"):
            real(shape, nu, wrong, diag1, diag2, random.Random(1))


def test_square_move_draws_three_matrices_from_its_rng(rec36):
    # the exchange check draws 3 x (n-k) x n values mod 2^61 - 1 and nothing
    # else, so a walk that shares the rng with its face choices stays pinned
    G = normalize(rec36)
    for nu in movable_faces(G):
        rng, twin = random.Random(11), random.Random(11)
        square_move(G, nu, rng)
        for _ in range(3 * G36.rows * G36.n):
            twin.randrange(2**61 - 1)
        assert rng.getstate() == twin.getstate()


def _census_moves(shape, deep=False):
    """Every square move of the census of ``shape``: the graph, the face
    and the result."""
    moves = []
    real = census_module.square_move

    def recording(G, nu, rng=None, known=None):
        res = real(G, nu, rng, known)
        moves.append((G, nu, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "square_move", recording)
        census(shape, deep=deep)
    return moves


def _assert_moves_equal_the_composed_path(moves):
    for G, nu, res in moves:
        graph, new_label = oracles.square_move_composed(G, nu)
        assert res.graph.canonical_form() == graph.canonical_form()
        assert res.new_label == new_label


@pytest.mark.parametrize("shape, count", [(G35, 10), (G36, 120)], ids=["3x5", "3x6"])
def test_square_move_equals_the_composed_path(shape, count):
    moves = _census_moves(shape)
    assert len(moves) == count
    _assert_moves_equal_the_composed_path(moves)


@pytest.mark.deep
def test_square_move_equals_the_composed_path_on_the_deep_g37_census():
    moves = _census_moves(GridShape(3, 7), deep=True)
    assert len(moves) == 1288
    _assert_moves_equal_the_composed_path(moves)


def test_label_sets_are_class_invariants_under_flips(rec36):
    # mutating twice at the same face returns to the same label set
    rng = random.Random(7)
    G = normalize(rec36)
    for nu in movable_faces(G):
        res = square_move(G, nu, rng)
        again = square_move(res.graph, res.new_label, rng)
        assert set(face_labels(again.graph).labels) == set(face_labels(G).labels)


def test_region_left_of_trip_sizes(rec35):
    # every face collects exactly n-k trips, by definition of the labels
    orbits, of_dart, _, _, adj = oracles.faces_by_rotation_walk(rec35)
    counts = [0] * len(orbits)
    for i in range(1, 6):
        for f in oracles._faces_left_of(trip(rec35, i), of_dart, adj):
            counts[f] += 1
    assert all(c == G35.rows for c in counts)


def test_json_roundtrip(rec35):
    doc = rec35.to_json()
    assert doc["schema"] == "okbodies.plabic/1"
    H = PlabicGraph.from_json(doc)
    assert H == rec35
    assert set(face_labels(H).labels) == set(face_labels(rec35).labels)


def _append_to_a_rotation(doc):
    doc["vertices"][-1]["rotation"].append(999)


def _paint_a_black_vertex_red(doc):
    next(rec for rec in doc["vertices"] if rec["color"] == "black")["color"] = "red"


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_append_to_a_rotation, "unknown vertex 999"),
        (_paint_a_black_vertex_red, "unknown colour 'red'"),
    ],
    ids=["unknown-vertex", "unknown-colour"],
)
def test_from_json_refuses_malformed_graphs(rec35, spoil, message):
    doc = rec35.to_json()
    spoil(doc)
    with pytest.raises(ValueError, match=message):
        PlabicGraph.from_json(doc)


@pytest.mark.parametrize("field", ["id", "color", "rotation"])
def test_from_json_refuses_a_vertex_record_missing_a_field(rec35, field):
    doc = rec35.to_json()
    del doc["vertices"][-1][field]
    with pytest.raises(ValueError, match=f"lacks {field}"):
        PlabicGraph.from_json(doc)


def test_graph_refuses_a_vertex_without_a_colour(rec35):
    color = dict(rec35.color)
    del color[max(color)]
    with pytest.raises(ValueError, match="name different vertices"):
        PlabicGraph(rec35.shape, color, rec35.rot)


def test_graph_refuses_a_boundary_vertex_without_a_boundary_index(rec35):
    # the (3,5) rectangles graph with a vertex 20, coloured boundary and
    # hung on a degree-2 white vertex: no boundary index is 20, so the graph
    # is refused before any face is traced
    (w, *_) = [v for v in rec35.vertices() if rec35.color[v] == WHITE and len(rec35.rot[v]) == 2]
    color, rot = dict(rec35.color), dict(rec35.rot)
    color[20] = BOUNDARY
    rot[20] = (w,)
    rot[w] = rot[w] + (20,)
    with pytest.raises(ValueError, match="boundary vertex 20 "):
        PlabicGraph(rec35.shape, color, rot)


def test_rectangles_graph_other_shapes():
    for shape in (GridShape(2, 4), GridShape(1, 3), GridShape(2, 5), GridShape(4, 6)):
        G = build_rectangles(shape)
        lab = face_labels(G)
        assert len(lab.labels) == shape.num_boxes + 1
