"""Network charts on the open positroid cell: boundary matrices, Pluecker
coordinates, valuations, Puiseux witnesses and the left twist.

A chart is a reduced plabic graph together with its acyclic perfect
orientation with sources 1..n-k.  Directed paths between boundary vertices
acquire Laurent monomial weights in the face variables (the product over
the faces enclosed between the path and the boundary arc to its right),
flows give Pluecker expressions, and the strongly minimal and maximal
terms of those define the two valuations attached to the chart.  Every
valuation is an integer vector over the chart's ``labels``.
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
    cyclic_shift_iter,
    diag0,
    label_sort_key,
    max_diag,
    partition_str,
    partition_to_west_steps,
)
from .plabic import (
    BOUNDARY,
    FaceLabeling,
    Orientation,
    PlabicGraph,
    build_rectangles,
    face_labels,
    normalize,
    perfect_orientation,
    pluecker_columns,
    pluecker_mod_p,
    quiver_of,
    region_left,
)
from .polyhedra import laplace_minors, rank_det


@dataclass
class NetworkChart:
    """A plabic graph with its source-{1..n-k} orientation and face labels.

    ``labels`` lists the nonempty face labels in canonical order; they are
    the variables of every Laurent polynomial the chart produces.  The
    empty label never appears in a path weight (it is the face behind the
    sources) and is excluded from the universe on purpose.
    """

    graph: PlabicGraph
    labeling: FaceLabeling
    orientation: Orientation
    labels: tuple[Partition, ...]

    @classmethod
    def of(cls, G: PlabicGraph) -> "NetworkChart":
        labeling = face_labels(G)
        orientation = perfect_orientation(G)
        labels = tuple(
            lam for lam in sorted(labeling.face_of_partition, key=label_sort_key) if lam != ()
        )
        return cls(G, labeling, orientation, labels)

    @property
    def shape(self) -> GridShape:
        return self.graph.shape

    @cached_property
    def matrix(self) -> list[list[LaurentPoly]]:
        """The boundary matrix, kept because a census sweep reuses it heavily."""
        return boundary_matrix(self)

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

    def label_index(self, lam: Partition) -> int:
        return self.labels.index(lam)

    # -- paths -------------------------------------------------------------

    def paths_between(self, i: int, j: int) -> list[list[tuple[int, int]]]:
        """All directed paths from boundary vertex i to boundary vertex j."""
        out: list[list[tuple[int, int]]] = []
        start = self.graph.neighbor_of_boundary(i)
        if self.orientation.head[frozenset((i, start))] != start:
            return out

        def dfs(v: int, darts: list[tuple[int, int]]) -> None:
            if v == j:
                out.append(list(darts))
                return
            if self.graph.color[v] == BOUNDARY:
                return
            for u in self.orientation.out_neighbors(v):
                darts.append((v, u))
                dfs(u, darts)
                darts.pop()

        dfs(start, [(i, start)])
        return out

    def path_weight_exponents(self, darts: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        """Exponent vector of the path weight over ``labels``."""
        region = region_left(darts, self.labeling.faces)
        exps = [0] * len(self.labels)
        for f in region:
            lam = self.labeling.partition_of_face[f]
            if lam == ():
                raise AssertionError("the empty face can never lie left of a path")
            exps[self.label_index(lam)] += 1
        return tuple(exps)

    def path_weight(self, darts: Sequence[tuple[int, int]]) -> LaurentPoly:
        return LaurentPoly.monomial(self.labels, self.path_weight_exponents(darts))


def boundary_matrix(chart: NetworkChart) -> list[list[LaurentPoly]]:
    """The (n-k) x n matrix whose maximal minors are the flow polynomials.

    Row i, column j holds the signed sum of path weights from source i to
    boundary vertex j; the sign twist (-1)^{#sources strictly between i
    and j} makes all maximal minors subtraction-free.
    """
    shape = chart.shape
    rows, n = shape.rows, shape.n
    V = chart.labels
    M: list[list[LaurentPoly]] = []
    for i in range(1, rows + 1):
        row = []
        for j in range(1, n + 1):
            if j <= rows:
                row.append(LaurentPoly.one(V) if i == j else LaurentPoly.zero(V))
                continue
            total = LaurentPoly.zero(V)
            for darts in chart.paths_between(i, j):
                total = total + chart.path_weight(darts)
            sign = -1 if (rows - i) % 2 else 1
            row.append(sign * total)
        M.append(row)
    return M


# ---------------------------------------------------------------------------
# flow polynomials
# ---------------------------------------------------------------------------

def pluecker_table(chart: NetworkChart) -> dict[Partition, LaurentPoly]:
    """All maximal minors of the boundary matrix, keyed by partition: the
    one on the south-step columns of lam is P_lam.  One division-free
    Laplace expansion (``laplace_minors``) computes each smaller minor once
    however many maximal minors contain it."""
    labels = list(all_partitions(chart.shape))
    cols = [pluecker_columns(lam, chart.shape) for lam in labels]
    return dict(zip(labels, laplace_minors(chart.matrix, cols, LaurentPoly.one(chart.labels))))


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
        diag0(mu) - max_diag(SkewShape(lam, cyclic_shift_iter(mu, shape, shape.rows)))
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
    west = partition_to_west_steps(mu, shape)
    srcs = sorted((i for i in range(1, k + 1) if i not in west), reverse=True)
    sinks = sorted(j for j in west if j > k)
    pairs = list(zip(srcs, sinks))

    col_cost = [[sum(contents.get((r, c), 0) for r in range(hh + 1, k + 1)) for hh in range(k)]
                for c in range(cols + 1)]

    V = ("t",)
    total = LaurentPoly.zero(V)

    def paths_for(i: int, j: int):
        tv = n - j  # target vertical line
        out = []

        def grow(c: int, h: int, crossings: list[int]) -> None:
            if c == tv:
                out.append(list(crossings))
                return
            for nh in range(h, k):
                grow(c - 1, nh, crossings + [nh])

        # entry crossing of the easternmost column is forced onto line i-1
        grow(cols - 1, i - 1, [i - 1])
        return out

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

    def place(idx: int, used: frozenset, acc: int) -> None:
        nonlocal total
        if idx == len(choices):
            total = total + LaurentPoly.monomial(V, (acc,))
            return
        for pts, w in choices[idx]:
            if pts & used:
                continue
            place(idx + 1, used | pts, acc + w)

    place(0, frozenset(), 0)
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
    adjusted exchange matrix and fed to the boundary measurement.  The two
    resulting Pluecker vectors must agree projectively.  Raises on any
    mismatch; sampling outside the open cell just resamples.
    """
    shape = GridShape(3, 5)
    G = normalize(build_rectangles(shape))
    chart = NetworkChart.of(G)
    Bt = adjusted_exchange(quiver_of(G), G25_TWIST_ADJUSTMENT)
    M = chart.matrix
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
        N = [[entry.eval_mod_p(x, p) for entry in row] for row in M]
        vec_n = pluecker_mod_p(N, labels, shape, p)
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
