"""Exact rational polytope engine.

Everything here is exact integer or Fraction arithmetic; no floats.
Fractions remain only at the inputs and outputs: rows and points are
cleared to integers on entry (``clear_denominators``), the work runs on
Python integers, and a result is turned into Fractions once, on exit.
Vertex enumeration is a fraction-free double description of the
homogenised cone: its primitive integer extreme rays give the vertices,
and emptiness and unboundedness are read off them exactly.
Volumes come from a pulling triangulation on vertex bitmasks, lattice
points from a box sweep that bounds each coordinate to an integer interval
before it branches.  Ranks and determinants, here and in the rest of the
package, come from one fraction-free integer elimination step (Bareiss),
shared by ``rank_det`` and ``volume``; many maximal minors of one matrix
come from one shared Laplace expansion (``laplace_minors``).  The
Gelfand-Tsetlin polytope, its pattern-counting oracle and the unimodular
change of variables that relates it to the rectangles-cluster polytope
live here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .partitions import (
    GridShape,
    Partition,
    label_sort_key,
    partition_str,
    rectangles,
)

Vec = tuple[Fraction, ...]
Ineq = tuple[tuple[Fraction, ...], Fraction]  # a, b with a.v + b >= 0


class UnboundedError(ValueError):
    pass


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces a.v + b >= 0 over an ordered coordinate
    label set."""

    coords: tuple
    ineqs: tuple[Ineq, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def translated(self, t: Sequence[Fraction]) -> "HPolytope":
        # substitute v -> v - t
        return HPolytope(
            self.coords,
            tuple((a, b - sum(x * y for x, y in zip(a, t))) for a, b in self.ineqs),
        )

    def with_ineqs(self, extra: Iterable[Ineq]) -> "HPolytope":
        return HPolytope(self.coords, self.ineqs + tuple(extra))


@dataclass
class QPolytope:
    """H-representation plus its computed vertex set."""

    hrep: HPolytope
    vertices: tuple[Vec, ...]
    _lattice: dict = field(default_factory=dict, repr=False)

    @property
    def coords(self):
        return self.hrep.coords

    def is_empty(self) -> bool:
        return not self.vertices

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def nonintegral_vertices(self) -> list[Vec]:
        return [v for v in self.vertices if any(x.denominator != 1 for x in v)]

    def translated(self, t: Sequence[Fraction]) -> "QPolytope":
        return QPolytope(
            self.hrep.translated(t),
            tuple(tuple(x + y for x, y in zip(v, t)) for v in self.vertices),
        )

    def to_json(self) -> dict:
        return {
            "schema": "okbodies.qpolytope/1",
            "coords": [partition_str(c) for c in self.coords],
            "ineqs": [[frac_str(x) for x in a] + [frac_str(b)] for a, b in self.hrep.ineqs],
            "vertices": [[frac_str(x) for x in v] for v in self.vertices],
        }


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def clear_denominators(points: Iterable[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The least common denominator L of the coordinates of ``points``, and
    the integer points L*p."""
    points = list(points)
    L = lcm(*(x.denominator for p in points for x in p))
    return L, [[x.numerator * (L // x.denominator) for x in p] for p in points]


def _integer_rows(ineqs: Iterable[Ineq]) -> list[tuple[tuple[int, ...], int]]:
    """Each row a.v + b >= 0 as the primitive integer row on its ray."""
    _, scaled = clear_denominators((*a, b) for a, b in ineqs)
    rows = []
    for row in scaled:
        g = gcd(*row)
        if g > 1:
            row = [x // g for x in row]
        rows.append((tuple(row[:-1]), row[-1]))
    return rows


def _combine(s: int, u: Sequence[int], t: int, v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray through s*u - t*v (nonzero)."""
    z = [s * x - t * y for x, y in zip(u, v)]
    g = gcd(*z)
    return tuple(x // g for x in z)


def enumerate_vertices(H: HPolytope) -> tuple[Vec, ...]:
    """All vertices of a bounded H-polytope, deterministic lex order.

    Fraction-free homogeneous double description (Fukuda & Prodon 1996):
    the integer-cleared rows b*x0 + a.x >= 0, after x0 >= 0, cut out a
    cone whose extreme rays are kept as primitive integer vectors, with
    their tight sets as bitmasks, while the rows are added one at a time.
    Rays with x0 > 0 are the vertices.  Without such a ray the region is
    empty and the result is ().  With one, a ray with x0 = 0 or a line in
    the cone is a recession direction and raises UnboundedError.
    """
    d = H.dim
    rows = [(1,) + (0,) * d] + [(b,) + a for a, b in _integer_rows(H.ineqs)]
    # The cone cut out so far is span(lines) + cone(rays).  A row that is
    # nonzero on a line turns that line, oriented into the row's half-space,
    # into a ray, and moves the other lines and rays along it onto the row's
    # hyperplane.  After the first row every line lies in x0 = 0.
    lines = [tuple(int(i == j) for j in range(d + 1)) for i in range(d + 1)]
    rays: list[tuple[tuple[int, ...], int]] = []
    added = 0  # bitmask of the rows added so far
    for i, row in enumerate(rows):
        bit = 1 << i
        vals = [sum(map(mul, row, y)) for y, _ in rays]
        lvals = [sum(map(mul, row, v)) for v in lines]
        k = next((k for k, s in enumerate(lvals) if s), None)
        if k is not None:
            line, s = lines.pop(k), lvals.pop(k)
            if s < 0:
                line, s = tuple(-x for x in line), -s
            lines = [_combine(s, v, t, line) for v, t in zip(lines, lvals)]
            rays = [(_combine(s, y, t, line), m | bit) for (y, m), t in zip(rays, vals)]
            rays.append((line, added))
        else:
            rank = d + 1 - len(lines)
            masks = [m for _, m in rays]
            nxt = [(y, m | bit if t == 0 else m) for (y, m), t in zip(rays, vals) if t >= 0]
            neg = [w for w, t in enumerate(vals) if t < 0]
            for u, su in enumerate(vals):
                if su <= 0:
                    continue
                yu, mu = rays[u]
                for w in neg:
                    common = mu & masks[w]
                    # combinatorial adjacency: no third ray's tight set holds common
                    if common.bit_count() < rank - 2 or any(
                        common & m == common for t, m in enumerate(masks) if t != u and t != w
                    ):
                        continue
                    nxt.append((_combine(su, rays[w][0], vals[w], yu), common | bit))
            rays = nxt
        added |= bit
        if not any(y[0] for y, _ in rays):
            return ()

    verts = [y for y, _ in rays if y[0]]
    if lines or len(verts) < len(rays):
        raise UnboundedError("region is unbounded")
    # lex order on the vertices x / x0 is lex order on x * (L // x0), L = lcm of the x0
    L = lcm(*(y[0] for y in verts))
    verts.sort(key=lambda y: [x * (L // y[0]) for x in y[1:]])
    return tuple(tuple(map(Fraction, y[1:], repeat(y[0]))) for y in verts)


def qpolytope(H: HPolytope) -> QPolytope:
    return QPolytope(H, enumerate_vertices(H))


def hull_of_points(coords: tuple, points: Iterable[Sequence[Fraction]]) -> QPolytope:
    """Facet description of a full-dimensional convex hull via polarity.

    Over integers: the m distinct points, scaled to q = D*p by their common
    denominator D, with sum S, give the polar rows (S - m*q).y + m*D >= 0,
    m*D times (c - p).y + 1 >= 0 for the centroid c; each polar vertex y is
    the facet -y.v + 1 + y.c >= 0.  ValueError if the hull is not full-dimensional.
    """
    D, ints = clear_denominators(points)
    ints = sorted(set(map(tuple, ints)))
    if _affine_rank(ints) != len(coords):
        raise ValueError("hull is not full-dimensional")
    m = len(ints)
    S = [sum(col) for col in zip(*ints)]
    polar = HPolytope(coords, tuple((tuple(s - m * x for s, x in zip(S, q)), m * D) for q in ints))
    facets = []
    for y in enumerate_vertices(polar):
        L, (Y,) = clear_denominators([y])  # 1 + y.c = (L*m*D + Y.S) / (L*m*D)
        facets.append((tuple(-x for x in y), Fraction(L * m * D + sum(map(mul, Y, S)), L * m * D)))
    H = HPolytope(coords, tuple(facets))
    return QPolytope(H, enumerate_vertices(H))


def _affine_rank(points: Sequence[Sequence[int]]) -> int:
    """The dimension of the affine hull of integer points, -1 for none."""
    return rank_det([[x - y for x, y in zip(p, points[0])] for p in points])[0] if points else -1


def rank_det(mat: Sequence[Sequence[int]]) -> tuple[int, Optional[int]]:
    """Rank of an integer matrix and, when it is square, its determinant
    (None otherwise).

    Bareiss's fraction-free elimination (Bareiss 1968): after each pivot
    every remaining entry is a minor of ``mat`` (rows permuted), so the
    division by the previous pivot is exact and the integers stay as small
    as the minors themselves.  A column with no pivot is skipped.
    """
    m = [list(row) for row in mat]
    rank, sign, prev = 0, 1, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        p = top[c]
        for r in range(rank + 1, len(m)):
            m[r] = _bareiss_step(m[r], top, c, p, prev)
        prev = p
        rank += 1
    if any(len(row) != len(m) for row in m):
        return rank, None
    return rank, sign * prev if rank == len(m) else 0


def laplace_minors(
    A: Sequence[Sequence], col_sets: Iterable[Sequence[int]], one, p: Optional[int] = None
) -> list:
    """The maximal minors of ``A`` on each increasing column tuple of
    ``col_sets``, reduced mod ``p`` when it is given.

    Laplace expansion along the rows in order: each minor of the first j
    rows is built once, from those of the first j - 1 rows, for every
    column set that needs it.  Division-free, so the entries may be
    integers or Laurent polynomials, ``one`` being the unit of their ring.
    """
    col_sets = [tuple(cs) for cs in col_sets]
    levels = [set(col_sets)]  # the column tuples needed, by decreasing size
    while len(levels) < len(A):
        levels.append({cs[:t] + cs[t + 1 :] for cs in levels[-1] for t in range(len(cs))})
    minor, zero = {(): one}, one * 0
    for r, (row, level) in enumerate(zip(A, reversed(levels))):
        for cs in level:
            acc = zero
            for t, c in enumerate(cs):
                if row[c]:
                    term = row[c] * minor[cs[:t] + cs[t + 1 :]]
                    acc = acc + (-term if (r + t) % 2 else term)
            minor[cs] = acc % p if p else acc
    return [minor[cs] for cs in col_sets]


def _bareiss_step(row: Sequence[int], top: Sequence[int], c: int, p: int, prev: int) -> list[int]:
    """``row`` eliminated in column ``c`` by the pivot row ``top``, ``p = top[c]``;
    the division by the previous pivot is exact, the result being minors."""
    f = row[c]
    return [(p * x - f * y) // prev for x, y in zip(row, top)]


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------

def lattice_points(P: QPolytope, r: int = 1) -> tuple[tuple[int, ...], ...]:
    """Integer points of the r-th dilation, cached per r.

    The dilation stays in integers: the integer rows a.v + b >= 0 of P
    become a.v + r*b >= 0, and coordinate i runs over the box from the
    least ceil(r * v_i) to the greatest floor(r * v_i) over the vertices v.
    """
    if r in P._lattice:
        return P._lattice[r]
    if r < 0:
        raise ValueError("negative dilation")
    d = P.hrep.dim
    if P.is_empty():
        P._lattice[r] = ()
        return ()
    # ceil and floor are monotone: bound each vertex coordinate, then take
    # the extremes in integers
    lo = [min(-(-r * x.numerator // x.denominator) for x in col) for col in zip(*P.vertices)]
    hi = [max(r * x.numerator // x.denominator for x in col) for col in zip(*P.vertices)]
    rows = [(a, b * r) for a, b in _integer_rows(P.hrep.ineqs)]

    cols = [[a[c] for a, _ in rows] for c in range(d)]
    # slack[c][t]: the most the coordinates after c can add to row t inside
    # the box
    slack = [[0] * len(rows) for _ in range(d)]
    for c in range(d - 1, 0, -1):
        slack[c - 1] = [s + max(a * lo[c], a * hi[c]) for a, s in zip(cols[c], slack[c])]

    out: list[tuple[int, ...]] = []
    point = [0] * d

    def sweep(c: int, partial: list[int]) -> None:
        # every row t needs a*x_c + partial[t] + slack[c][t] >= 0, which
        # bounds x_c to one integer interval
        low, high = lo[c], hi[c]
        for a, p, s in zip(cols[c], partial, slack[c]):
            room = p + s
            if a > 0:
                low = max(low, -(room // a))
            elif a < 0:
                high = min(high, room // -a)
            elif room < 0:
                return
        for val in range(low, high + 1):
            point[c] = val
            if c + 1 == d:
                out.append(tuple(point))
            else:
                sweep(c + 1, [p + a * val for a, p in zip(cols[c], partial)])

    if d:
        sweep(0, [b for _, b in rows])
    else:
        out.append(())
    pts = tuple(sorted(out))
    P._lattice[r] = pts
    return pts


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def volume(P: QPolytope) -> Fraction:
    """Exact Lebesgue volume; 0 (with a warning) for lower-dimensional P.

    A pulling triangulation (Bueeler, Enge & Fukuda 2000) on the vertices
    scaled to integers by their common denominator L.  A face is a bitmask
    of vertices, its facets the maximal nonempty proper meets with the
    rows' tight masks, and its cells its least vertex coned over the cells
    of its facets that miss it.  Each chain of apices shares one Bareiss
    elimination: entering a face, its apex's reduced difference row from
    vertex 0 eliminates the face's other rows, and the chain's last pivot is
    its cell's determinant up to sign.  Volume = sum |det| / (L**d * d!).
    """
    d = P.hrep.dim
    L, verts = clear_denominators(P.vertices)
    diffs = [[x - y for x, y in zip(v, verts[0])] for v in verts] if verts else []
    if len(verts) <= d or rank_det(diffs)[0] < d:
        warnings.warn("polytope is not full-dimensional; volume is 0")
        return Fraction(0)
    rows = _integer_rows(P.hrep.ineqs)
    tight = [sum(1 << t for t, v in enumerate(verts) if sum(map(mul, a, v)) + b * L == 0) for a, b in rows]
    bases: dict[int, list[int]] = {}  # face -> its facets that miss its apex
    total = 0

    def cone(face: int, reduced: dict, pivot: int, depth: int) -> None:
        # reduced: vertex -> difference row, eliminated by the chain's apices
        # down to this face's (pivot columns dropped); the apex is left out
        nonlocal total
        if face & (face - 1) == 0:
            if depth != d:
                raise AssertionError("triangulation produced a degenerate cell")
            total += abs(pivot)
            return
        if face not in bases:
            # facets by decreasing size, so a non-maximal mask meets a kept superset
            kept: list[int] = []
            for g in sorted({face & m for m in tight} - {0, face}, key=int.bit_count, reverse=True):
                if not any(g & h == g for h in kept):
                    kept.append(g)
            bases[face] = [g for g in kept if not g & face & -face]
        for f in bases[face]:
            top = reduced[a := (f & -f).bit_length() - 1]
            c = next((c for c, x in enumerate(top) if x), None)
            if c is None:
                raise AssertionError("triangulation produced a degenerate cell")
            sub = {t: _bareiss_step(row, top, c, top[c], pivot)
                   for t, row in reduced.items() if f >> t & 1 and t != a}
            for row in sub.values():
                del row[c]  # now zero
            cone(f, sub, top[c], depth + 1)

    cone((1 << len(verts)) - 1, {t: row for t, row in enumerate(diffs) if t}, 1, 0)
    return Fraction(total, L**d * factorial(d))


# ---------------------------------------------------------------------------
# H-representation canonicalization and comparison
# ---------------------------------------------------------------------------

def canonical_hrep(P: QPolytope) -> frozenset:
    """Facet-defining inequalities as primitive integer rows.

    Requires a full-dimensional polytope; duplicates and redundant rows are
    dropped by checking that the tight vertex set spans a facet.
    """
    L, verts = clear_denominators(P.vertices)
    out = set()
    for a, b in _integer_rows(P.hrep.ineqs):
        if _affine_rank([v for v in verts if sum(map(mul, a, v)) + b * L == 0]) == P.hrep.dim - 1:
            out.add((a, b))
    return frozenset(out)


def same_hrep(P: QPolytope, Q: QPolytope) -> bool:
    return P.hrep.coords == Q.hrep.coords and canonical_hrep(P) == canonical_hrep(Q)


def same_vertex_set(P: QPolytope, Q: QPolytope) -> bool:
    return P.hrep.coords == Q.hrep.coords and sorted(P.vertices) == sorted(Q.vertices)


def apply_linear(P: QPolytope, matrix: list[list[Fraction]], inverse: list[list[Fraction]]) -> QPolytope:
    """Image of P under v -> matrix.v, with the inverse supplied for the
    H-representation substitution."""
    d = P.hrep.dim
    ineqs = []
    for a, b in P.hrep.ineqs:
        # a.(inverse.f) + b >= 0
        new_a = tuple(
            sum(a[r] * inverse[r][c] for r in range(d)) for c in range(d)
        )
        ineqs.append((new_a, b))
    verts = tuple(
        tuple(sum(matrix[r][c] * v[c] for c in range(d)) for r in range(d))
        for v in P.vertices
    )
    return QPolytope(HPolytope(P.hrep.coords, tuple(ineqs)), tuple(sorted(verts)))


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin
# ---------------------------------------------------------------------------

def gamma_coords(shape: GridShape) -> tuple[Partition, ...]:
    """Canonical coordinate order for rectangle-cluster polytopes."""
    return tuple(sorted(rectangles(shape), key=label_sort_key))


def _rect(i: int, j: int) -> Partition:
    return (j,) * i


def gt_polytope(shape: GridShape, r) -> HPolytope:
    """Interlacing-pattern polytope in the f-coordinates indexed by
    rectangles; exactly one inequality per superpotential summand."""
    coords = gamma_coords(shape)
    idx = {c: t for t, c in enumerate(coords)}
    d = len(coords)
    r = Fraction(r)
    rows_, cols_ = shape.rows, shape.k

    def e(c: Partition, val: int, a: list) -> None:
        a[idx[c]] += val

    ineqs: list[Ineq] = []

    a = [Fraction(0)] * d
    e(_rect(1, 1), 1, a)
    ineqs.append((tuple(a), Fraction(0)))

    a = [Fraction(0)] * d
    e(_rect(rows_, cols_), -1, a)
    ineqs.append((tuple(a), r))

    for i in range(2, rows_ + 1):
        for j in range(1, cols_ + 1):
            a = [Fraction(0)] * d
            e(_rect(i, j), 1, a)
            e(_rect(i - 1, j), -1, a)
            ineqs.append((tuple(a), Fraction(0)))
    for i in range(1, rows_ + 1):
        for j in range(2, cols_ + 1):
            a = [Fraction(0)] * d
            e(_rect(i, j), 1, a)
            e(_rect(i, j - 1), -1, a)
            ineqs.append((tuple(a), Fraction(0)))
    return HPolytope(coords, tuple(ineqs))


def gt_transform_matrices(shape: GridShape) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The unimodular map F: f_{i x j} = v_{i x j} - v_{(i-1) x (j-1)} and
    its telescoping inverse, as matrices over the canonical coordinates."""
    coords = gamma_coords(shape)
    idx = {c: t for t, c in enumerate(coords)}
    d = len(coords)
    F = [[Fraction(0)] * d for _ in range(d)]
    Finv = [[Fraction(0)] * d for _ in range(d)]
    for c in coords:
        i, j = len(c), c[0]
        F[idx[c]][idx[c]] = Fraction(1)
        if i > 1 and j > 1:
            F[idx[c]][idx[_rect(i - 1, j - 1)]] = Fraction(-1)
        t = 0
        while i - t >= 1 and j - t >= 1:
            Finv[idx[c]][idx[_rect(i - t, j - t)]] = Fraction(1)
            t += 1
    return F, Finv


def gt_transform_polytope(P: QPolytope, shape: GridShape) -> QPolytope:
    F, Finv = gt_transform_matrices(shape)
    return apply_linear(P, F, Finv)


def gt_pattern_count(shape: GridShape, r: int) -> int:
    """Number of integral interlacing patterns with top row (0^k, r^{n-k}).

    Direct recursive enumeration with memoization on rows; independent of
    the polytope engine on purpose, so it can serve as a counting oracle.
    """
    top = tuple([0] * shape.k + [r] * shape.rows)

    @lru_cache(maxsize=None)
    def count(row: tuple[int, ...]) -> int:
        if len(row) == 1:
            return 1
        total = 0
        for nxt in _interlacing(row):
            total += count(nxt)
        return total

    result = count(top)
    count.cache_clear()
    return result


def _interlacing(row: tuple[int, ...]):
    m = len(row)

    def grow(i: int, cur: list[int]):
        if i == m - 1:
            yield tuple(cur)
            return
        lo = row[i] if not cur else max(row[i], cur[-1])
        for val in range(lo, row[i + 1] + 1):
            cur.append(val)
            yield from grow(i + 1, cur)
            cur.pop()

    yield from grow(0, [])


def volume_formula(shape: GridShape) -> Fraction:
    """Closed form prod_{1<=i<=k} (k-i)!/(n-i)!: the leading Ehrhart
    coefficient of the degree-one polytope, independent of the chart."""
    out = Fraction(1)
    for i in range(1, shape.k + 1):
        out *= Fraction(factorial(shape.k - i), factorial(shape.n - i))
    return out
