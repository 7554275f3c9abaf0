"""Network charts on the open positroid cell: Pluecker coordinates in the
face variables, valuations, Puiseux witnesses and the left twist.

A chart is a reduced plabic graph with its face labels.  Its P_lam sums a
Laurent monomial in the face variables over the flows from the sources
1..n-k to the south steps of lam.  These are the symmetric differences
M ^ M0 of the matchings M of that boundary set with the source matching
M0, the one matching with boundary trace {1..n-k} (Postnikov, Speyer and
Williams), each weighed by its face heights (Talaska); M0 and the vertex
colours direct every edge.  The strongly minimal and maximal terms of P_lam define
the chart's two valuations, integer vectors over its ``labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence

from .laurent import LaurentPoly
from .partitions import (
    GridShape,
    Partition,
    SkewShape,
    all_partitions,
    cyclic_shift,
    diag0,
    max_diag,
    partition_str,
    south_mask_tables,
)
from .plabic import (
    WHITE,
    FaceLabeling,
    PlabicGraph,
    boundary_matchings,
    build_rectangles,
    face_labels,
    pluecker_mod_p,
    quiver_of,
)
from .polyhedra import rank_det


@dataclass
class NetworkChart:
    """A plabic graph with its face labels.

    ``labels`` lists the nonempty face labels in canonical order; they are
    the variables of every Laurent polynomial the chart produces.  The
    empty label's face, behind the sources, has height 0 over every flow,
    so it carries no exponent and is excluded from the universe on purpose.
    """

    graph: PlabicGraph
    labeling: FaceLabeling
    labels: tuple[Partition, ...]

    @classmethod
    def of(cls, G: PlabicGraph) -> "NetworkChart":
        labeling = face_labels(G)
        return cls(G, labeling, tuple(lam for lam in labeling.labels if lam != ()))

    @property
    def shape(self) -> GridShape:
        return self.graph.shape

    @cached_property
    def plueckers(self) -> dict[Partition, LaurentPoly]:
        """Every Pluecker coordinate P_lam in the face variables, keyed by
        lam; built on first use and never serialized."""
        return pluecker_table(self)

    @cached_property
    def min_valuations(self) -> dict[Partition, tuple[int, ...]]:
        """``val_min`` of every P_lam as an integer vector over ``labels``."""
        return {lam: val_min(self, lam) for lam in self.plueckers}

    @cached_property
    def max_valuations(self) -> dict[Partition, tuple[int, ...]]:
        """``val_max`` of every P_lam as an integer vector over ``labels``."""
        return {lam: val_max(self, lam) for lam in self.plueckers}


# ---------------------------------------------------------------------------
# flow polynomials
# ---------------------------------------------------------------------------

def pluecker_table(chart: NetworkChart) -> dict[Partition, LaurentPoly]:
    """Every Pluecker coordinate P_lam in the face variables, keyed by lam,
    from one ``boundary_matchings`` search.

    A matching M's boundary trace has n - k elements, like that of the
    source matching M0 with trace {1..n-k}, which must be unique, so it is
    the south-step set of one lam; M gives P_lam the monomial of the flow
    F = M ^ M0.  M0 directs the edges: an edge points at its white end when
    it lies in M0 and away from it otherwise.  A monomial's exponent at a
    face is the face's height over F: the face labelled () has height 0,
    and crossing an edge of F out of the face left of its directed dart
    lowers the height by one, out of the face on its right raises it by one.
    Along a spanning tree of the faces that is popcount(F & plus) -
    popcount(F & minus) for two edge masks per face.
    """
    G, shape, labeling = chart.graph, chart.shape, chart.labeling
    faces, n = labeling.faces, shape.n
    edges, matchings = boundary_matchings(G)
    bit = {e: 1 << t for t, e in enumerate(edges)}
    trace = (1 << n) - 1
    sources = [m for m in matchings if m & trace == (1 << shape.rows) - 1]
    if len(sources) != 1:
        raise AssertionError(
            f"expected a unique matching with boundary 1..{shape.rows}, found {len(sources)}"
        )
    (m0,) = sources

    root = labeling.face_of_partition[()]
    heights, tree = {root: (0, 0)}, [root]
    for f in tree:
        for u, v in faces.darts_of[f]:
            if u <= n and v <= n:
                continue  # a rim dart crosses no edge
            g = faces.of_dart[(v, u)]
            if g not in heights:
                b = bit[frozenset((u, v))]
                plus, minus = heights[f]
                points_at_v = bool(m0 & b) == (G.color[v] == WHITE)
                heights[g] = (plus, minus | b) if points_at_v else (plus | b, minus)
                tree.append(g)
    masks = [heights[labeling.face_of_partition[mu]] for mu in chart.labels]

    # the terms of each P_lam, keyed by lam's south-step mask
    lam_of, _ = south_mask_tables(shape)
    table: dict[int, dict[tuple[int, ...], int]] = {m: {} for m in lam_of}
    for m in matchings:
        F = m ^ m0
        exps = tuple((F & p).bit_count() - (F & q).bit_count() for p, q in masks)
        terms = table[m & trace]
        terms[exps] = terms.get(exps, 0) + 1
    return {lam_of[m]: LaurentPoly(chart.labels, terms) for m, terms in table.items()}


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def val_min(chart: NetworkChart, lam: Partition) -> tuple[int, ...]:
    """Exponent of the strongly minimal term of P_lam, over ``chart.labels``."""
    term = chart.plueckers[lam].strongly_min_term()
    if term is None:
        raise RuntimeError(f"P_{partition_str(lam)} has no strongly minimal term")
    return term[0]


def val_max(chart: NetworkChart, lam: Partition) -> tuple[int, ...]:
    """Exponent of the strongly maximal term of P_lam, over ``chart.labels``."""
    term = chart.plueckers[lam].strongly_max_term()
    if term is None:
        raise RuntimeError(f"P_{partition_str(lam)} has no strongly maximal term")
    return term[0]


def maxdiag_valuation(lam: Partition, labels: Iterable[Partition]) -> tuple[int, ...]:
    """Closed form for the lowest-term valuation: mu -> MaxDiag(mu \\ lam)."""
    return tuple(max_diag(SkewShape(mu, lam)) for mu in labels)


def highest_valuation(lam: Partition, shape: GridShape, labels: Iterable[Partition]) -> tuple[int, ...]:
    """Closed form for the highest-term valuation:
    mu -> Diag0(mu) - MaxDiag(lam \\ shift^{n-k}(mu))."""
    return tuple(
        diag0(mu) - max_diag(SkewShape(lam, cyclic_shift(mu, shape, shape.rows)))
        for mu in labels
    )


# ---------------------------------------------------------------------------
# Puiseux witness
# ---------------------------------------------------------------------------

@dataclass
class PuiseuxWitness:
    """A point of the mirror Grassmannian over Puiseux series in t whose
    Pluecker valuations realize mu -> MaxDiag(mu \\ lam).

    The point is a lattice network on the transposed grid (k rows, n-k
    columns) with box contents t^e; ``contents`` holds the nonzero
    exponents.  Pluecker coordinates are sums over vertex-disjoint flows,
    so they are polynomials in t and 1/t with positive coefficients and
    their valuation is the minimal exponent present.
    """

    shape: GridShape
    lam: Partition
    contents: dict[tuple[int, int], int]

    def pluecker(self, mu: Partition) -> LaurentPoly:
        return _dual_grid_pluecker(self.shape, self.contents, mu)

    def valuation(self, mu: Partition) -> int:
        p = self.pluecker(mu)
        if not p:
            raise AssertionError("Pluecker coordinates of the witness never vanish")
        return min(e[0] for e in p.terms)


def puiseux_witness(lam: Partition, shape: GridShape) -> PuiseuxWitness:
    """Box contents for the witness attached to lam.

    Transpose lam, rotate it into the southeast corner of the k x (n-k)
    grid, and follow its border from the northeast grid corner to the
    southwest one.  Boxes northwest of the corners get t where the path
    turns from south to west and 1/t where it turns from west to south;
    corners whose northwest box falls outside the grid contribute nothing.
    """
    k, cols = shape.k, shape.rows
    lamT = tuple(sum(1 for p in lam if p >= r) for r in range(1, (lam[0] if lam else 0) + 1))
    heights = [sum(1 for part in lamT if part >= cols + 1 - c) for c in range(1, cols + 1)]

    contents: dict[tuple[int, int], int] = {}
    h = 0
    for c in range(cols, 0, -1):
        t_c = k - heights[c - 1]
        if t_c < h:
            raise AssertionError("border heights must be monotone")
        if t_c > h:
            if h >= 1:
                contents[(h, c)] = contents.get((h, c), 0) - 1
            contents[(t_c, c)] = contents.get((t_c, c), 0) + 1
        h = t_c
    return PuiseuxWitness(shape, lam, {b: e for b, e in contents.items() if e})


def _dual_grid_pluecker(shape: GridShape, contents: dict[tuple[int, int], int], mu: Partition) -> LaurentPoly:
    """Sum over vertex-disjoint flows on the k x (n-k) grid, west steps of
    mu as the column set.  Paths are stored as their crossing heights."""
    k, cols, n = shape.k, shape.rows, shape.n
    south = south_mask_tables(shape)[1][mu]
    west = {j for j in range(1, n + 1) if not south >> (j - 1) & 1}
    srcs = sorted((i for i in range(1, k + 1) if i not in west), reverse=True)
    sinks = sorted(j for j in west if j > k)
    pairs = list(zip(srcs, sinks))

    col_cost = [[sum(contents.get((r, c), 0) for r in range(hh + 1, k + 1)) for hh in range(k)]
                for c in range(cols + 1)]

    V = ("t",)
    total = LaurentPoly.zero(V)

    def paths_for(i: int, j: int) -> list[list[int]]:
        # crossing heights column by column, westward to the target vertical
        # line n - j; heights never decrease, and the entry crossing of the
        # easternmost column is forced onto line i-1
        paths = [[i - 1]]
        for _ in range(cols - 1 - (n - j)):
            paths = [cr + [nh] for cr in paths for nh in range(cr[-1], k)]
        return paths

    def occupied(j: int, crossings: list[int]) -> frozenset:
        tv = n - j
        pts = set()
        cs = crossings + [k]  # the final run to the bottom edge
        for t, c in enumerate(range(cols, tv, -1)):
            h_here = cs[t]
            h_next = cs[t + 1]
            for y in range(h_here, h_next + 1):
                if y < k:
                    pts.add((c - 1, y))
        return frozenset(pts)

    def weight(crossings: list[int]) -> int:
        return sum(col_cost[c][h] for c, h in zip(range(cols, cols - len(crossings), -1), crossings))

    choices = [
        [(occupied(j, cr), weight(cr)) for cr in paths_for(i, j)]
        for i, j in pairs
    ]

    # one path per pair, pairwise disjoint, in lexicographic order of choices
    placed = [(frozenset(), 0)]
    for options in choices:
        placed = [(used | pts, acc + w) for used, acc in placed for pts, w in options if not pts & used]
    for _, acc in placed:
        total = total + LaurentPoly.monomial(V, (acc,))
    return total


# ---------------------------------------------------------------------------
# the left twist
# ---------------------------------------------------------------------------

def left_twist(A: Sequence[Sequence], p: Optional[int] = None) -> list[list]:
    """Column-cyclic left twist of a full-rank (n-k) x n matrix.

    Column i of the result pairs to 1 with column i of A and to 0 with the
    n-k-1 columns cyclically preceding it.  Entries are Fractions unless a
    prime p is given, in which case everything happens in F_p.  Each
    column solves its window by Cramer's rule on exact integer
    determinants.  Raises ZeroDivisionError when a cyclic window of A is
    singular, which means A is outside the open cell.
    """
    d = len(A)
    n = len(A[0])
    out_cols: list[list] = []
    for i in range(n):
        rows = [[A[r][c] for r in range(d)] for c in ((i - t) % n for t in range(d))]
        if p is None:
            L = lcm(*(Fraction(x).denominator for row in rows for x in row))
            M = [[int(Fraction(x) * L) for x in row] for row in rows]
        else:
            L = 1
            M = [[x % p for x in row] for row in rows]
        det = rank_det(M)[1]
        if (det % p if p else det) == 0:
            raise ZeroDivisionError("singular window; the point is not in the open cell")
        # Cramer's rule for M x = L e_1, which has the window's solution
        minors = [
            rank_det([row[:r] + [L if t == 0 else 0] + row[r + 1:] for t, row in enumerate(M)])[1]
            for r in range(d)
        ]
        if p is None:
            out_cols.append([Fraction(x, det) for x in minors])
        else:
            inv = pow(det, -1, p)
            out_cols.append([x * inv % p for x in minors])
    return [[out_cols[c][r] for c in range(n)] for r in range(d)]


# Frozen-by-frozen adjustment M for the k=3, n=5 rectangles seed, so that
# the twist pullback of every network parameter x_mu is the monomial
# prod_nu P_nu^{(B+M)_{mu,nu}}.  No closed form is known in general; this
# instance was fixed by matching the twist of the running example.
G25_TWIST_ADJUSTMENT: dict[tuple[Partition, Partition], int] = {
    ((3,), (3,)): 1,
    ((3, 3), (3,)): -1,
    ((3, 3), (2, 2)): -1,
    ((2, 2), (2, 2)): 1,
    ((2, 2), (1, 1)): -1,
    ((1, 1), (1, 1)): 1,
}


def adjusted_exchange(quiver, adjustment: dict[tuple[Partition, Partition], int]):
    """Exchange matrix rows with a frozen-pair adjustment added on top."""
    for (mu, nu) in adjustment:
        if mu not in quiver.frozen or nu not in quiver.frozen:
            raise ValueError("adjustment entries must pair frozen labels")
    return {
        mu: {nu: quiver.entry(mu, nu) + adjustment.get((mu, nu), 0) for nu in quiver.labels}
        for mu in quiver.labels
    }


def cluster_matrix_g25(P: dict[Partition, int], p: Optional[int] = None) -> list[list]:
    """Row-reduced 2x5 matrix whose Pluecker coordinates restrict to the
    given values on the rectangles cluster of the k=3, n=5 grid.

    Entries are rational expressions in the six cluster coordinates (the
    maximal one is normalized to 1); pass a prime p to work in F_p.
    """
    P0, P1, P2, P3 = P[()], P[(1,)], P[(2,)], P[(3,)]
    P11, P22 = P[(1, 1)], P[(2, 2)]

    def div(a, b):
        return a * pow(b, -1, p) % p if p else Fraction(a, 1) / b

    row1 = [1, 0, -P22, -div(P22 * P0 + P2 * P11, P1), -P2]
    row2 = [0, 1, div(P1 + P3 * P22, P2), div(P1 * P0 + P3 * P22 * P0 + P3 * P2 * P11, P1 * P2), P3]
    if p:
        row1 = [x % p for x in row1]
        row2 = [x % p for x in row2]
    return [row1, row2]


def check_twist_diagram(p: int, rng, trials: int = 20) -> None:
    """Close the twist square numerically in F_p, ``trials`` times.

    A random cluster point is lifted to a matrix A, twisted; separately its
    cluster coordinates are pushed through the monomial map given by the
    adjusted exchange matrix and fed to the chart's Pluecker table, which
    gives the boundary measurement's Pluecker vector (evaluation mod p is a
    ring map, so it commutes with taking minors).  The two Pluecker vectors
    must agree projectively.  Raises on any mismatch; sampling outside the
    open cell just resamples.
    """
    shape = GridShape(3, 5)
    G = build_rectangles(shape)
    chart = NetworkChart.of(G)
    Bt = adjusted_exchange(quiver_of(G), G25_TWIST_ADJUSTMENT)
    cluster = [(), (1,), (2,), (3,), (1, 1), (2, 2)]
    labels = tuple(all_partitions(shape))

    done = 0
    while done < trials:
        P = {lam: rng.randrange(1, p) for lam in cluster}
        P[(3, 3)] = 1
        A = cluster_matrix_g25(P, p)
        vec = pluecker_mod_p(A, labels, shape, p)
        if not all(vec.values()):
            continue  # not in the open cell, resample
        for lam in cluster:
            if vec[lam] != P[lam]:
                raise AssertionError(f"cluster matrix does not interpolate P_{partition_str(lam)}")

        tau = left_twist(A, p)
        x = {
            mu: _monomial_eval(P, Bt[mu], p)
            for mu in chart.labels
        }
        vec_n = {lam: chart.plueckers[lam].eval_mod_p(x, p) for lam in labels}
        vec_t = pluecker_mod_p(tau, labels, shape, p)
        if not vec_n[(3, 3)] or not vec_t[(3, 3)]:
            continue
        scale = vec_t[(3, 3)] * pow(vec_n[(3, 3)], -1, p) % p
        for lam, v in vec_n.items():
            if v * scale % p != vec_t[lam]:
                raise AssertionError(
                    f"twist diagram fails at P_{partition_str(lam)} (trial {done})"
                )
        done += 1


def _monomial_eval(P: dict[Partition, int], row: dict[Partition, int], p: int) -> int:
    out = 1
    for nu, e in row.items():
        if e:
            out = out * pow(P[nu], e, p) % p
    return out
