"""Chart-level golden data: flow polynomials, the boundary matrix of the
path oracle, valuations, the Puiseux witness and the left twist, all
pinned on the 2x3 grid."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from okbodies import charts as charts_module
from okbodies.census import census
from okbodies.charts import (
    G25_TWIST_ADJUSTMENT,
    NetworkChart,
    adjusted_exchange,
    check_twist_diagram,
    cluster_matrix_g25,
    highest_valuation,
    left_twist,
    maxdiag_valuation,
    puiseux_witness,
    val_max,
    val_min,
)
from okbodies.laurent import LaurentPoly
from okbodies.partitions import (
    GridShape,
    SkewShape,
    all_partitions,
    frozen_mu,
    max_diag,
)
from okbodies.plabic import build_rectangles, normalize, quiver_of, square_move

PRIME = (1 << 61) - 1


@lru_cache(maxsize=None)
def rec_chart(k, n):
    return NetworkChart.of(normalize(build_rectangles(GridShape(k, n))))


def x(chart, lam, e=1):
    return LaurentPoly.monomial(chart.labels, [e if mu == lam else 0 for mu in chart.labels])


# -- flow polynomials -------------------------------------------------------

def test_flow_polynomials_g35_golden():
    c = rec_chart(3, 5)
    one = LaurentPoly.one(c.labels)
    x1, x2, x3 = x(c, (1,)), x(c, (2,)), x(c, (3,))
    x11, x22, x33 = x(c, (1, 1)), x(c, (2, 2)), x(c, (3, 3))
    # subsets {1,2}..{4,5} in partition form, smallest subset = largest shape
    expected = {
        (3, 3): one,
        (3, 2): x33,
        (3, 1): x22 * x33,
        (3,): x11 * x22 * x33,
        (2, 2): x3 * x33,
        (2, 1): x3 * x22 * x33 * (one + x2),
        (2,): x3 * x11 * x22 * x33 * (one + x2 + x1 * x2),
        (1, 1): x2 * x3 * x22 * x33 ** 2,
        (1,): x2 * x3 * x11 * x22 * x33 ** 2 * (one + x1),
        (): x1 * x2 * x3 * x11 * x22 ** 2 * x33 ** 2,
    }
    for lam, want in expected.items():
        assert c.plueckers[lam] == want


def enumerate_flows(chart, lam):
    """All vertex-disjoint path systems realizing P_lam.

    The sources not in the south-step set are paired with the sinks in it,
    largest remaining source to smallest remaining sink; planarity then
    rules out any other pairing.
    """
    shape = chart.shape
    J = oracles.border_steps(lam, shape.k, shape.n)
    srcs = sorted((i for i in range(1, shape.rows + 1) if i not in J), reverse=True)
    sinks = sorted(j for j in J if j > shape.rows)
    assert len(srcs) == len(sinks)
    pairs = list(zip(srcs, sinks))
    flows = []

    def place(idx, used, system):
        if idx == len(pairs):
            flows.append([list(p) for p in system])
            return
        i, j = pairs[idx]
        for path in oracles.paths_between(chart, i, j):
            verts = {v for d in path for v in d}
            if verts & used:
                continue
            system.append(path)
            place(idx + 1, used | verts, system)
            system.pop()

    place(0, set(), [])
    return flows


def flow_polynomials_direct(chart):
    """Every P_lam as the sum of the weights of its flows, each path
    weighed by the path oracle: an engine independent of the matching
    search behind ``chart.plueckers``."""
    V = chart.labels
    weigh = oracles.path_weigher(chart)
    table = {}
    for lam in all_partitions(chart.shape):
        total = LaurentPoly.zero(V)
        for flow in enumerate_flows(chart, lam):
            exps = [sum(col) for col in zip(*map(weigh, flow))] if flow else [0] * len(V)
            total = total + LaurentPoly.monomial(V, exps)
        table[lam] = total
    return table


def flow_polynomials_by_columns(chart):
    """Every P_lam as the maximal minor of the oracle boundary matrix on the
    south-step columns of lam, each by a column-subset expansion of that
    minor alone."""
    M = oracles.boundary_matrix(chart)
    V = chart.labels
    table = {}
    for lam in all_partitions(chart.shape):
        cols = sorted(j - 1 for j in oracles.border_steps(lam, chart.shape.k, chart.shape.n))
        prev = {(): LaurentPoly.one(V)}
        for r in range(len(cols)):
            cur = {}
            for S in combinations(cols, r + 1):
                acc = LaurentPoly.zero(V)
                for t, c in enumerate(S):
                    term = M[r][c] * prev[S[:t] + S[t + 1 :]]
                    acc = acc + (term if (r + t) % 2 == 0 else -term)
                cur[S] = acc
            prev = cur
        table[lam] = prev[tuple(cols)]
    return table


def test_pluecker_table_matches_both_oracles():
    # every chart of the 2x3 grid and of the 3x3 grid
    charts = [rec.chart for k, n in ((3, 5), (3, 6)) for rec in census(GridShape(k, n)).classes]
    for c in charts:
        assert list(c.plueckers) == list(all_partitions(c.shape))
        assert c.plueckers == flow_polynomials_by_columns(c) == flow_polynomials_direct(c)
        for lam in c.plueckers:
            assert c.min_valuations[lam] == val_min(c, lam)
            assert c.max_valuations[lam] == val_max(c, lam)


def test_a_chart_runs_no_matching_search():
    # the chart traces the face labels; only its Pluecker table searches
    G = normalize(build_rectangles(GridShape(3, 6)))
    NetworkChart.of(G)
    assert G._cover_tables is None


def test_pluecker_table_refuses_a_second_source_matching(monkeypatch):
    # the edge directions come from the one matching with boundary 1..n-k
    real = charts_module.boundary_matchings

    def doubled(G, J=None):
        edges, masks = real(G, J)
        sources = [m for m in masks if m & (1 << G.shape.n) - 1 == (1 << G.shape.rows) - 1]
        return edges, masks + sources

    monkeypatch.setattr(charts_module, "boundary_matchings", doubled)
    chart = NetworkChart.of(normalize(build_rectangles(GridShape(3, 5))))
    with pytest.raises(AssertionError, match="expected a unique matching with boundary 1..2, found 2"):
        chart.plueckers


@pytest.mark.parametrize("k,n", [(3, 5), (2, 4), (2, 5), (3, 6)])
def test_minor_expansion_matches_flow_enumeration(k, n):
    c = rec_chart(k, n)
    assert c.plueckers == flow_polynomials_direct(c)


def test_flows_are_vertex_disjoint_path_systems():
    c = rec_chart(3, 5)
    flows = enumerate_flows(c, (2,))  # subset {2,5}: one source, three paths
    assert len(flows) == 3
    for flow in flows:
        assert len(flow) == 1


def test_boundary_matrix_golden_g35():
    c = rec_chart(3, 5)
    M = oracles.boundary_matrix(c)
    one = LaurentPoly.one(c.labels)
    x1, x2, x3 = x(c, (1,)), x(c, (2,)), x(c, (3,))
    x11, x22, x33 = x(c, (1, 1)), x(c, (2, 2)), x(c, (3, 3))
    assert M[0][0] == one and M[0][1] == 0 and M[1][0] == 0 and M[1][1] == one
    assert M[1][2] == x33
    assert M[1][3] == x22 * x33
    assert M[1][4] == x11 * x22 * x33
    assert M[0][2] == -(x3 * x33)
    assert M[0][3] == -(x3 * x22 * x33) * (one + x2)
    assert M[0][4] == -(x3 * x11 * x22 * x33) * (one + x2 + x1 * x2)


def test_three_term_relations_mod_p():
    rng = random.Random(0x3A11)
    for k, n in ((3, 5), (3, 6)):
        c = rec_chart(k, n)
        d = c.shape.rows

        def P(J, vals):
            lam = oracles.walk_border(J, k, n)
            return c.plueckers[lam].eval_mod_p(vals, PRIME)

        for _ in range(5):
            vals = {lam: rng.randrange(1, PRIME) for lam in c.labels}
            while True:
                cols = sorted(rng.sample(range(1, n + 1), d + 2))
                a, b, cc, dd = sorted(rng.sample(cols, 4))
                core = [t for t in cols if t not in (a, b, cc, dd)]
                if len(core) == d - 2:
                    break
            lhs = P(core + [a, cc], vals) * P(core + [b, dd], vals) % PRIME
            rhs = (
                P(core + [a, b], vals) * P(core + [cc, dd], vals)
                + P(core + [a, dd], vals) * P(core + [b, cc], vals)
            ) % PRIME
            assert lhs == rhs


# -- valuations -------------------------------------------------------------

# columns in the order (3,3),(2,2),(1,1),(3),(2),(1); rows keyed by the
# two-element column subsets of the 2x5 boundary matrix
VALUATION_TABLE = {
    (1, 2): (0, 0, 0, 0, 0, 0),
    (1, 3): (1, 0, 0, 0, 0, 0),
    (1, 4): (1, 1, 0, 0, 0, 0),
    (1, 5): (1, 1, 1, 0, 0, 0),
    (2, 3): (1, 0, 0, 1, 0, 0),
    (2, 4): (1, 1, 0, 1, 0, 0),
    (2, 5): (1, 1, 1, 1, 0, 0),
    (3, 4): (2, 1, 0, 1, 1, 0),
    (3, 5): (2, 1, 1, 1, 1, 0),
    (4, 5): (2, 2, 1, 1, 1, 1),
}
TABLE_COLUMNS = ((3, 3), (2, 2), (1, 1), (3,), (2,), (1,))


def test_valuation_table_g35_golden():
    c = rec_chart(3, 5)
    for J, row in VALUATION_TABLE.items():
        lam = oracles.walk_border(J, 3, 5)
        v = dict(zip(c.labels, val_min(c, lam)))
        assert tuple(v[mu] for mu in TABLE_COLUMNS) == row


@pytest.mark.parametrize("k,n", [(3, 5), (2, 4), (2, 5), (3, 6)])
def test_valuations_match_closed_forms(k, n):
    c = rec_chart(k, n)
    for lam in all_partitions(c.shape):
        assert val_min(c, lam) == maxdiag_valuation(lam, c.labels)
        assert val_max(c, lam) == highest_valuation(lam, c.shape, c.labels)


def test_valuations_match_closed_forms_after_square_moves():
    # one move in each direction off the rectangles graph
    G = normalize(build_rectangles(GridShape(3, 5)))
    for nu in ((1,), (2,)):
        H = square_move(G, nu).graph
        c = NetworkChart.of(H)
        for lam in all_partitions(c.shape):
            assert val_min(c, lam) == maxdiag_valuation(lam, c.labels)
            assert val_max(c, lam) == highest_valuation(lam, c.shape, c.labels)


def test_val_max_differs_by_unit_vector_at_24():
    c = rec_chart(3, 5)
    lam = oracles.walk_border({2, 4}, 3, 5)
    lo, hi = val_min(c, lam), val_max(c, lam)
    diff = tuple(h - l for h, l in zip(hi, lo))
    assert diff == tuple(1 if mu == (2,) else 0 for mu in c.labels)


def test_closed_form_edge_cases():
    shape = GridShape(3, 5)
    labels = [lam for lam in all_partitions(shape) if lam != ()]
    assert all(v == 0 for v in maxdiag_valuation((3, 3), labels))
    v = dict(zip(labels, maxdiag_valuation((2, 1), labels)))
    assert v[(1, 1)] == 0 and v[(2,)] == 0  # contained shapes contribute nothing


@pytest.mark.parametrize("k,n", [(3, 5), (3, 6), (2, 4)])
def test_frozen_plueckers_are_balanced_monomials(k, n):
    c = rec_chart(k, n)
    Q = quiver_of(c.graph)
    mutable = [l for l in Q.labels if l not in Q.frozen]
    for i in range(n + 1):
        P = c.plueckers[frozen_mu(i, GridShape(k, n))]
        assert len(P.terms) == 1
        e = dict(zip(c.labels, next(iter(P.terms))))
        for nu in mutable:
            assert sum(Q.entry(nu, g) * e.get(g, 0) for g in Q.labels) == 0


# -- Puiseux witness --------------------------------------------------------

def test_puiseux_witness_contents_golden():
    w = puiseux_witness((4, 3, 3, 3, 2, 1), GridShape(6, 14))
    assert w.contents == {
        (2, 8): 1, (3, 7): 1, (4, 4): 1, (5, 3): 1, (6, 2): 1,
        (2, 7): -1, (3, 4): -1, (4, 3): -1, (5, 2): -1,
    }


def test_puiseux_witness_big_example_valuation():
    w = puiseux_witness((4, 3, 3, 3, 2, 1), GridShape(6, 14))
    mu = (5, 5, 5, 2, 2, 2, 2)
    assert w.valuation(mu) == 2 == max_diag(SkewShape(mu, (4, 3, 3, 3, 2, 1)))


@pytest.mark.parametrize("k,n", [(3, 5), (2, 5)])
def test_puiseux_valuations_exhaustive(k, n):
    shape = GridShape(k, n)
    for lam in all_partitions(shape):
        w = puiseux_witness(lam, shape)
        for mu in all_partitions(shape):
            assert w.valuation(mu) == max_diag(SkewShape(mu, lam))


def test_puiseux_empty_partition_normalized():
    w = puiseux_witness((2, 1), GridShape(3, 5))
    assert w.pluecker(()) == LaurentPoly.one(("t",))


# -- left twist -------------------------------------------------------------

def test_left_twist_golden_g25():
    P = {(): Fraction(3), (1,): Fraction(2), (2,): Fraction(5), (3,): Fraction(7),
         (1, 1): Fraction(11), (2, 2): Fraction(13), (3, 3): Fraction(1)}
    A = cluster_matrix_g25(P)
    tau = left_twist(A)
    P0, P1, P2, P3 = P[()], P[(1,)], P[(2,)], P[(3,)]
    P11, P22 = P[(1, 1)], P[(2, 2)]
    assert tau == [
        [1, 0, -1 / P22, -(P1 + P3 * P22) / (P2 * P11),
         -(P1 * P0 + P3 * P22 * P0 + P3 * P2 * P11) / (P0 * P1 * P2)],
        [P2 / P3, 1, 0, -P22 / P11, -(P22 * P0 + P2 * P11) / (P0 * P1)],
    ]


def test_left_twist_window_pairings():
    rng = random.Random(7)
    for k, n in ((3, 5), (3, 6), (2, 4)):
        d = n - k
        A = [[Fraction(rng.randrange(1, 50)) for _ in range(n)] for _ in range(d)]
        try:
            tau = left_twist(A)
        except ZeroDivisionError:
            continue
        for i in range(n):
            for t in range(d):
                j = (i - t) % n
                dot = sum(tau[r][i] * A[r][j] for r in range(d))
                assert dot == (1 if t == 0 else 0)


def twist_inputs(entry):
    """A (d, n, A): a d x n matrix with 1 <= d < n <= 6."""
    return st.integers(2, 6).flatmap(
        lambda n: st.integers(1, n - 1).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.just(n),
                st.lists(st.lists(entry, min_size=n, max_size=n), min_size=d, max_size=d),
            )
        )
    )


def twist_by_oracle(A, d, n):
    """Column i solves the window system by the oracle's Gauss-Jordan; None
    when some window is singular."""
    cols = []
    for i in range(n):
        window = [(i - t) % n for t in range(d)]
        x = oracles._solve_square([[A[r][c] for r in range(d)] for c in window], [1] + [0] * (d - 1))
        if x is None:
            return None
        cols.append(x)
    return [[cols[c][r] for c in range(n)] for r in range(d)]


@settings(max_examples=80, deadline=None)
@given(twist_inputs(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))))
def test_left_twist_matches_oracle_over_q(case):
    d, n, A = case
    want = twist_by_oracle(A, d, n)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            left_twist(A)
    else:
        assert left_twist(A) == want


@settings(max_examples=80, deadline=None)
@given(twist_inputs(st.integers(-50, 50)))
def test_left_twist_matches_oracle_over_fp(case):
    # every window determinant is below PRIME in size, so it vanishes mod
    # PRIME exactly when it vanishes over Q
    d, n, A = case
    want = twist_by_oracle(A, d, n)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            left_twist(A, PRIME)
    else:
        reduced = [[x.numerator * pow(x.denominator, -1, PRIME) % PRIME for x in row] for row in want]
        assert left_twist(A, PRIME) == reduced


def test_left_twist_rejects_degenerate_point():
    A = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]  # zero columns outside the identity
    with pytest.raises(ZeroDivisionError):
        left_twist(A)


def test_adjustment_must_pair_frozen_labels():
    G = normalize(build_rectangles(GridShape(3, 5)))
    with pytest.raises(ValueError):
        adjusted_exchange(quiver_of(G), {((1,), (3,)): 1})


def test_twist_diagram_closes_mod_p():
    # smaller trial count here; the acceptance gate runs the full twenty
    check_twist_diagram(PRIME, random.Random(0xC0FFEE), trials=5)


def test_twist_monomials_golden_g25():
    G = normalize(build_rectangles(GridShape(3, 5)))
    Bt = adjusted_exchange(quiver_of(G), G25_TWIST_ADJUSTMENT)
    # pullbacks of the six network parameters as Pluecker exponent vectors
    expected = {
        (1,): {(2,): 1, (1, 1): 1, (2, 2): -1, (): -1},
        (2,): {(1,): -1, (3,): 1, (3, 3): -1, (2, 2): 1},
        (3,): {(2,): -1, (3,): 1},
        (3, 3): {(2,): 1, (3,): -1, (2, 2): -1},
        (2, 2): {(1,): 1, (2,): -1, (2, 2): 1, (1, 1): -1},
        (1, 1): {(1,): -1, (1, 1): 1},
    }
    for mu, row in expected.items():
        assert {nu: e for nu, e in Bt[mu].items() if e} == row
