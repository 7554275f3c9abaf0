"""Exact rational polytope engine.

Everything here is exact integer or Fraction arithmetic; no floats.
Every row the package builds is an integer row a.v + b >= 0 (exponent
vectors, bend rows, hull facets, interlacing rows); only a rational
weight b, or a row given from outside, is a Fraction.  Vertex enumeration
is a fraction-free double description of the homogenised cone: its
primitive integer extreme rays give the vertices, and emptiness and
unboundedness are read off them exactly.  A cold start begins from the
simplicial cone of the independent rows, which one fraction-free
Gauss-Jordan pass finds, and adds the dependent rows one at a time.  Its
result, a ``Vertices`` tuple of Fraction points, also carries the integer
form: the rows as primitive integer rows and, read off the final rays,
the common denominator L, the integer vertices L*v and each vertex's
tight-row mask.  A ``QPolytope`` keeps one integer form, shared by every
kernel that reads it: its rows as primitive integer rows, L with the
integer vertices, and each vertex's tight-row mask.  A polytope built on
an enumeration of its own rows starts with the carried form; one built
from outside clears its vertices to integers (``clear_denominators``) and
evaluates its rows on them, on first use.  A system whose first rows are
those of a polytope already enumerated continues from that polytope's
integer form and adds only the remaining rows, and ``hull_of_points``
takes integer points over a denominator, so the transport step goes from
rays to rays.  The vertices are turned into Fractions once, on exit, by
``as_fractions``, which builds one Fraction per distinct value.  A
bounded polytope is the hull of its vertices, so ``same_vertex_set`` is
the one polytope equality.
Volumes come from a pulling triangulation on vertex bitmasks that pulls
the vertices lying on the most rows first, tells a flat polytope by a row
tight at every vertex, and closes a chain of apices at the first simplex
face it meets with one square elimination.  Lattice points come from a
box sweep that fixes the coordinates on the most rows first and bounds
each to an integer interval before it branches, from the rows that
coordinate moves alone: a row the coordinate leaves alone keeps the slack
its previous coordinate was chosen within.  Ranks and determinants, here
and in the rest of the package, come from one fraction-free integer
elimination (Bareiss, ``_eliminate``), run by ``rank_det`` and at each
cell of ``volume``, whose chains of apices take its steps inline and
only scale a row that is 0 in the pivot column; the mod-p checks take
many maximal minors of integer matrices of one shape from one Laplace
expansion plan on column bitmasks (``laplace_minors``).
The Gelfand-Tsetlin polytope and its pattern-counting oracle live here
too, with the unimodular integer map F that carries the rectangles-cluster
polytope onto it: the image of a polytope is the hull of its vertices'
images.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .partitions import GridShape, Partition, partition_str, rectangles

Vec = tuple[Fraction, ...]
# a, b with a.v + b >= 0: ints from the package's builders, a Fraction b for
# a rational weight, Fractions in a row given from outside
Ineq = tuple[tuple[int | Fraction, ...], int | Fraction]


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


class Vertices(tuple):
    """The vertices of an enumerated system, a tuple of Fraction points in
    lex order, carrying the enumeration's integer form: the common
    denominator ``den`` of the vertices, the integer vertices ``ints``
    (``den`` times each vertex, in the same order), for each vertex the
    bitmask ``masks`` of the rows it is tight on (bit i for row i), the
    rows ``rows`` they were enumerated from, and those rows as the
    primitive integer rows ``integer_rows``."""

    den: int
    ints: list[tuple[int, ...]]
    masks: list[int]
    rows: tuple[Ineq, ...]
    integer_rows: list[tuple[tuple[int, ...], int]]

    @classmethod
    def of(cls, points: Iterable[Vec], den: int, ints: list, masks: list, rows: tuple, irows: list) -> "Vertices":
        out = cls(points)
        out.den, out.ints, out.masks, out.rows, out.integer_rows = den, ints, masks, rows, irows
        return out


@dataclass
class QPolytope:
    """H-representation plus its computed vertex set, and the integer form
    of both, each part built on first use.  The vertices must be those of
    ``hrep``; vertices enumerated from ``hrep``'s own rows hand their
    integer rows, integer vertices and masks over at construction."""

    hrep: HPolytope
    vertices: tuple[Vec, ...]
    _lattice: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        V = self.vertices
        if isinstance(V, Vertices) and V.rows is self.hrep.ineqs:
            self.__dict__.update(integer_rows=V.integer_rows, integer_vertices=(V.den, V.ints), vertex_masks=V.masks)

    @property
    def coords(self):
        return self.hrep.coords

    @cached_property
    def integer_rows(self) -> list[tuple[tuple[int, ...], int]]:
        """Each row a.v + b >= 0 as the primitive integer row on its ray."""
        return _integer_rows(self.hrep.ineqs)

    @cached_property
    def integer_vertices(self) -> tuple[int, list[tuple[int, ...]]]:
        """The least common denominator L of the vertices, and the integer
        vertices L*v in the order of ``vertices``."""
        L, verts = clear_denominators(self.vertices)
        return L, list(map(tuple, verts))

    @cached_property
    def vertex_masks(self) -> list[int]:
        """For each vertex, the bitmask of the rows it is tight on (bit i
        for row i), each row's value at every vertex summed column by
        column over the row's nonzero entries only."""
        L, verts = self.integer_vertices
        cols = list(zip(*verts))
        masks = [0] * len(verts)
        for i, (a, b) in enumerate(self.integer_rows):
            vals = [b * L] * len(verts)
            for x, col in zip(a, cols):
                if x:
                    vals = [s + x * y for s, y in zip(vals, col)]
            for t, s in enumerate(vals):
                if not s:
                    masks[t] |= 1 << i
        return masks

    def is_empty(self) -> bool:
        return not self.vertices

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


def bit_list(m: int) -> list[int]:
    """The indices of the set bits of m, ascending."""
    return [t for t in range(m.bit_length()) if m >> t & 1]


def nonintegral_points(points: Iterable[Vec]) -> tuple[Vec, ...]:
    """The points with a non-integer coordinate, in their order; for the
    vertices of a polytope, empty exactly when the polytope is integral."""
    return tuple(v for v in points if any(x.denominator != 1 for x in v))


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def clear_denominators(points: Iterable[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The least common denominator L of the coordinates of ``points``, and
    the integer points L*p."""
    pairs = [[x.as_integer_ratio() for x in p] for p in points]
    L = lcm(*{d for p in pairs for _, d in p})
    return L, [[n * (L // d) for n, d in p] for p in pairs]


def as_fractions(points: Iterable[Sequence[int]], den: int) -> list[Vec]:
    """The integer points p as the points p / den, with one Fraction object
    per distinct value: the coordinates of a polytope's vertices repeat a
    few values."""
    points = list(points)
    of = {x: Fraction(x, den) for x in {x for p in points for x in p}}
    return [tuple(map(of.__getitem__, p)) for p in points]


def _integer_rows(ineqs: Iterable[Ineq]) -> list[tuple[tuple[int, ...], int]]:
    """Each row a.v + b >= 0 as the primitive integer row on its ray.  A
    builder's row, int coefficients a with an int or Fraction weight b, is
    scaled by b's denominator alone; a row with a Fraction coefficient,
    given from outside, is cleared of denominators."""
    rows = []
    for a, b in ineqs:
        if not all(type(x) is int for x in a):
            row = clear_denominators([(*a, b)])[1][0]
        elif (q := b.denominator) == 1:
            row = (*a, b.numerator)
        else:
            row = [x * q for x in a] + [b.numerator]
        g = gcd(*row)  # 0 for a zero row
        if g > 1:
            row = [x // g for x in row]
        rows.append((tuple(row[:-1]), row[-1]))
    return rows


def _primitive(z: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray through z (nonzero)."""
    g = gcd(*z)
    return tuple(z) if g == 1 else tuple([x // g for x in z])


def _combine(s: int, u: Sequence[int], t: int, v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray through s*u - t*v (nonzero)."""
    return _primitive([s * x - t * y for x, y in zip(u, v)])


def enumerate_vertices(H: HPolytope, start: Optional[QPolytope] = None) -> Vertices:
    """All vertices of a bounded H-polytope, deterministic lex order.

    Fraction-free homogeneous double description (Fukuda & Prodon 1996):
    the integer-cleared rows b*x0 + a.x >= 0, after x0 >= 0, cut out a
    cone whose extreme rays are kept as primitive integer vectors, with
    their tight sets as bitmasks, while the rows are added one at a time.
    Rays with x0 > 0 are the vertices.  Without such a ray the region is
    empty and the result is empty.  With one, a ray with x0 = 0 or a line
    in the cone is a recession direction and raises UnboundedError.  The
    result is a ``Vertices`` tuple that carries the integer form: H's rows
    as primitive integer rows and, from the final rays, the vertices over
    their common denominator and their tight sets as masks over H's rows.

    A cold start begins from the simplicial cone of the rows independent
    of the rows before them, found in one fraction-free Gauss-Jordan pass
    (``_start_cone``), and adds only the other rows one at a time.  With
    ``start``, a polytope whose rows are the first rows of ``H``, the
    description continues from there: the cone of ``start``'s rows is
    pointed, its extreme rays are its vertices as primitive rays through
    (1, v), with their masks over the start rows as their tight sets, so
    only the remaining rows are added.  ValueError if ``start``'s rows are
    not a prefix of ``H``'s.
    """
    d = H.dim
    if start is None:
        irows = _integer_rows(H.ineqs)
        rays, rank, lines, todo = _start_cone([(1,) + (0,) * d] + [(b,) + a for a, b in irows])
    else:
        m = len(start.hrep.ineqs)
        if start.hrep.coords != H.coords or H.ineqs[:m] != start.hrep.ineqs:
            raise ValueError("the start polytope's rows are not the first rows of H")
        L, verts = start.integer_vertices
        # start row i is row i + 1 here, after x0 >= 0, which no vertex is on
        rays = [(_primitive((L, *v)), mask << 1) for v, mask in zip(verts, start.vertex_masks)]
        rank, lines = d + 1, False
        irows = start.integer_rows + _integer_rows(H.ineqs[m:])
        todo = [(i + 1, (b,) + a) for i, (a, b) in enumerate(irows[m:], m)]
    # the cone is span(lines) + cone(rays), with every row so far 0 on the
    # lines, so each row left is a double description step on the rays of
    # a pointed cone of dimension ``rank``
    for i, row in todo:
        bit = 1 << i
        vals = _values(row, [y for y, _ in rays])
        masks = [m for _, m in rays]
        nxt = [(y, m | bit if t == 0 else m) for (y, m), t in zip(rays, vals) if t >= 0]
        neg = [w for w, t in enumerate(vals) if t < 0]
        for u, su in enumerate(vals):
            if su <= 0:
                continue
            yu, mu = rays[u]
            for w in neg:
                common = mu & masks[w]
                if common.bit_count() < rank - 2:
                    continue
                # combinatorial adjacency: no third ray's tight set holds
                # common, beside those of u and w
                held = 0
                for m in masks:
                    if common & m == common:
                        held += 1
                        if held == 3:
                            break
                else:
                    nxt.append((_combine(su, rays[w][0], vals[w], yu), common | bit))
        rays = nxt
        if not any(y[0] for y, _ in rays):
            return Vertices.of((), 1, [], [], H.ineqs, irows)

    verts = [(y, m) for y, m in rays if y[0]]
    if lines or len(verts) < len(rays):
        raise UnboundedError("region is unbounded")
    # the vertices x / x0 over L = lcm of the x0, whose lex order is that of
    # the integer points x * (L // x0); no vertex is on x0 >= 0, row 0
    L = lcm(*(y[0] for y, _ in verts))
    pairs = sorted(
        (y[1:] if y[0] == L else tuple([x * (L // y[0]) for x in y[1:]]), m >> 1) for y, m in verts
    )
    ints = [p for p, _ in pairs]
    return Vertices.of(as_fractions(ints, L), L, ints, [m for _, m in pairs], H.ineqs, irows)


def _start_cone(rows: Sequence[tuple[int, ...]]) -> tuple[list, int, bool, list]:
    """The start of a cold double description of the cone of ``rows``
    (row 0 is x0 >= 0): the rays of the simplicial cone of the independent
    rows with their tight masks, the rank, whether the cone holds a line,
    and the dependent rows as (index, row) pairs, in order.

    One fraction-free Gauss-Jordan pass (Bareiss 1968) over the rows, in
    order, on the unit vectors.  A row nonzero on a vector v that is not
    yet a pivot is independent of the rows before it; v becomes its pivot,
    and every other vector w becomes (p*w - s*v) / prev, p and s the row's
    values on v and w and prev the previous pivot, an exact division.  In
    the end each independent row is 0 on every vector but its own pivot,
    where all of them take the last pivot's value: the pivot vectors,
    oriented by its sign, are the rays, and the other vectors span the
    lineality space.  A vector the row is 0 on only scales by p / prev, so
    it is kept as it is, with the pivot ``at[t]`` it was last computed at:
    it stands for vecs[t] * prev / at[t].
    """
    dim = len(rows[0])
    vecs = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    at = [1] * dim
    free = list(range(dim))  # the vectors that are not pivots: the lines
    pivots: list[tuple[int, int]] = []  # (vector, row)
    dependent = []
    prev = 1
    for i, row in enumerate(rows):
        if free:
            vals = _values(row, vecs)
            k = next((k for k in free if vals[k]), None)
        if not free or k is None:
            dependent.append((i, row))
            continue
        top, sk, ak = vecs[k], vals[k], at[k]
        p = sk * prev // ak
        for t, s in enumerate(vals):
            if s and t != k:
                # (p*w - s*v) / prev with w = vecs[t] * prev / at[t], v = top
                # * prev / ak, and the row's values on them scaled likewise
                q = ak * at[t]
                vecs[t] = [(sk * x - s * y) * prev // q for x, y in zip(vecs[t], top)]
                at[t] = p
        if ak != prev:
            vecs[k] = [x * prev // ak for x in top]
        at[k] = p
        free.remove(k)
        pivots.append((k, i))
        prev = p
    tight = sum(1 << i for _, i in pivots)
    # each pivot row's value on its stored pivot vector has the sign of at[k]
    rays = [
        (_primitive(vecs[k] if at[k] > 0 else [-x for x in vecs[k]]), tight ^ 1 << i) for k, i in pivots
    ]
    return rays, len(pivots), bool(free), dependent


def _values(row: Sequence[int], vecs: Iterable[Sequence[int]]) -> list[int]:
    """The row's value on each vector, summed over the row's nonzero
    entries only; two zero terms make the getter return a tuple for every
    row."""
    support = [j for j, x in enumerate(row) if x]
    coef = [row[j] for j in support] + [0, 0]
    get = itemgetter(*support, 0, 0)
    return [sum(map(mul, coef, get(y))) for y in vecs]


def qpolytope(H: HPolytope) -> QPolytope:
    return QPolytope(H, enumerate_vertices(H))


def hull_of_points(coords: tuple, points: Iterable[Sequence], den: Optional[int] = None) -> QPolytope:
    """Facet description of a full-dimensional convex hull via polarity.

    The points are Fraction points, or, with ``den``, integer points q
    standing for q / den.  Over integers: the m distinct points, scaled to
    q = D*p by a common denominator D, with sum S, give the polar rows
    (S - m*q).y + m*D >= 0, m*D times (c - p).y + 1 >= 0 for the centroid
    c.  Each polar vertex y = Y / L, read off the polar enumeration's
    integer form, is the facet -y.v + 1 + y.c >= 0, which is the primitive
    integer row on (-m*D*Y, L*m*D + Y.S).  The polar region holds 0, so it
    is never empty, and it is bounded exactly when the hull is
    full-dimensional: ValueError if it is not, or if there are no points.
    """
    if den is None:
        den, points = clear_denominators(points)
    ints = sorted(set(map(tuple, points)))
    if not ints:
        raise ValueError("hull is not full-dimensional")
    m, mD = len(ints), len(ints) * den
    S = [sum(col) for col in zip(*ints)]
    polar = HPolytope(coords, tuple((tuple(s - m * x for s, x in zip(S, q)), mD) for q in ints))
    try:
        Y = enumerate_vertices(polar)
    except UnboundedError:
        raise ValueError("hull is not full-dimensional") from None
    facets = [_primitive([*(-x * mD for x in y), Y.den * mD + sum(map(mul, y, S))]) for y in Y.ints]
    H = HPolytope(coords, tuple((f[:-1], f[-1]) for f in facets))
    return QPolytope(H, enumerate_vertices(H))


def rank_det(mat: Sequence[Sequence[int]]) -> tuple[int, Optional[int]]:
    """Rank of an integer matrix and, when it is square, its determinant
    (None otherwise).

    Bareiss's fraction-free elimination (Bareiss 1968): after each pivot
    every remaining entry is a minor of ``mat`` (rows permuted), so the
    division by the previous pivot is exact and the integers stay as small
    as the minors themselves.  A column with no pivot is skipped.
    """
    m = [list(row) for row in mat]
    rank, det = _eliminate(m, 1)
    if any(len(row) != len(m) for row in m):
        return rank, None
    return rank, det if rank == len(m) else 0


def _eliminate(m: list[list[int]], prev: int) -> tuple[int, int]:
    """Bareiss elimination of the rows ``m`` in place, continued from the
    previous pivot ``prev``: the rank, and the last pivot times the sign of
    the row swaps (``prev`` itself when no pivot is found)."""
    rank, sign = 0, 1
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
    return rank, sign * prev


def laplace_minors(
    mats: Sequence[Sequence[Sequence[int]]], col_masks: Iterable[int], p: Optional[int] = None
) -> list[list[int]]:
    """For each r x n integer matrix of ``mats``, its maximal minors on the
    columns of each r-bit mask of ``col_masks`` (bit c for column c), reduced
    mod ``p`` when it is given.

    Laplace expansion along the rows in order: each minor of the first j
    rows is built once, from those of the first j - 1 rows, for every
    column set that needs it.  The plan of that expansion depends only on
    the masks, so it is built once and run on every matrix.
    """
    col_masks = list(col_masks)
    if not mats:
        return []
    # the column masks needed, by decreasing size
    levels = [dict.fromkeys(col_masks)]
    while len(levels) < len(mats[0]):
        below: dict[int, None] = {}
        for m in levels[-1]:
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                below[m ^ low] = None
        levels.append(below)
    # plan[j]: for each minor of the first j + 1 rows, the columns c of row j
    # and the slots of their cofactor minors, split by the sign (-1)^(j + t)
    # of c, the t-th column of the mask
    slot = {0: 0}
    plan = []
    for j, level in enumerate(reversed(levels)):
        steps = []
        for m in level:
            if m in slot:
                continue  # the empty mask, for matrices without rows
            plus: list[tuple[int, int]] = []
            minus: list[tuple[int, int]] = []
            rest, t = m, j
            while rest:
                low = rest & -rest
                rest ^= low
                (minus if t & 1 else plus).append((low.bit_length() - 1, slot[m ^ low]))
                t += 1
            slot[m] = len(slot)
            steps.append((plus, minus))
        plan.append(steps)
    wanted = [slot[m] for m in col_masks]
    out = []
    for A in mats:
        minor = [1]
        for row, steps in zip(A, plan):
            for plus, minus in steps:
                acc = 0
                for c, k in plus:
                    acc += row[c] * minor[k]
                for c, k in minus:
                    acc -= row[c] * minor[k]
                minor.append(acc % p if p else acc)
        out.append([minor[k] for k in wanted])
    return out


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
    The sweep fixes the coordinates moved by the most rows first (ties in
    index order; the points come back in P's coordinates, sorted), so that
    the rows are met in full early, and each row bounds the next
    coordinate to an integer interval, given the most the later
    coordinates can add to it inside the box.  Coordinate c is bounded by
    the rows with a nonzero entry in column c alone, and only their
    partial sums move with it.  Each row is met in full at its last
    nonzero column, where no later coordinate adds to it, so the points
    are those of a sweep that tests every row at every column.  Nor is a
    dead end lost: a row that column c leaves alone cannot fail at c, since
    its slack at c equals its slack at c - 1 and x_{c-1} was chosen inside
    that row's interval (or, if column c - 1 leaves the row alone too, the
    same holds further up).  Only the root has no earlier choice, so it
    tests the rows that column 0 leaves alone before it branches.
    """
    if r in P._lattice:
        return P._lattice[r]
    if r < 0:
        raise ValueError("negative dilation")
    d = P.hrep.dim
    if P.is_empty():
        P._lattice[r] = ()
        return ()
    # ceil and floor are monotone: the extremes of the integer vertices L*v,
    # scaled by r / L and rounded inwards
    L, verts = P.integer_vertices
    cols = list(zip(*verts))
    moved_by = [sum(1 for a, _ in P.integer_rows if a[c]) for c in range(d)]
    order = sorted(range(d), key=lambda c: (-moved_by[c], c))
    lo = [-(-r * min(cols[c]) // L) for c in order]
    hi = [r * max(cols[c]) // L for c in order]
    rows = [(tuple(a[c] for c in order), b * r) for a, b in P.integer_rows]

    # slack[t]: the most the coordinates after c can add to row t inside the
    # box, for c from d - 1 down; moves[c]: (t, a_t[c], slack[t]) for the
    # rows that column c moves
    slack = [0] * len(rows)
    moves: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    for c in range(d - 1, -1, -1):
        for t, (a, _) in enumerate(rows):
            if a[c]:
                moves[c].append((t, a[c], slack[t]))
                slack[t] += max(a[c] * lo[c], a[c] * hi[c])

    out: list[tuple[int, ...]] = []
    # depth first over the coordinates: every row t that column c moves
    # needs a*x_c + partial[t] + slack >= 0, which bounds x_c to one
    # integer interval
    partial = [b for _, b in rows]
    root = d and all(p + s >= 0 for (a, _), p, s in zip(rows, partial, slack) if not a[0])
    stack = [((), partial)] if root else []
    while stack:
        prefix, partial = stack.pop()
        c = len(prefix)
        low, high = lo[c], hi[c]
        for t, a, s in moves[c]:
            s += partial[t]
            if a > 0:
                if -(s // a) > low:
                    low = -(s // a)
            elif s // -a < high:
                high = s // -a
        if c + 1 == d:
            out.extend(prefix + (val,) for val in range(low, high + 1))
            continue
        for val in range(high, low - 1, -1):
            q = partial.copy()
            for t, a, _ in moves[c]:
                q[t] += a * val
            stack.append((prefix + (val,), q))
    if not d:
        out.append(())
    if d > 1:
        # back to P's coordinate order: coordinate c was swept at position pos[c]
        pos = sorted(range(d), key=order.__getitem__)
        out = list(map(itemgetter(*pos), out))
    pts = tuple(sorted(out))
    P._lattice[r] = pts
    return pts


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def volume(P: QPolytope) -> Fraction:
    """Exact Lebesgue volume; 0 (with a warning) for lower-dimensional P.

    P is full-dimensional exactly when it has more than d vertices and no
    row with a nonzero a is tight at all of them (Schrijver 1986, 8.2):
    such a row is an implicit equality, and without one the mean of points
    that are strict on each row is strict on all, so the incidence decides.

    A pulling triangulation (Bueeler, Enge & Fukuda 2000) on the vertices
    scaled to integers by their common denominator L.  The vertices are
    pulled in decreasing order of the number of rows they lie on, ties in
    lexicographic order, and each face's apex is its first vertex in that
    order: a vertex on many facets, pulled early, is the apex of many
    faces, so fewer faces are left to cone over.  A face is a bitmask of
    vertices, its facets the maximal nonempty proper meets with the rows'
    tight masks, and its cells its apex coned over the cells of its facets
    that miss it.  Each chain of apices shares one Bareiss elimination:
    entering a face, its apex's reduced difference row from the first
    vertex eliminates the face's other rows, and a face that is a simplex
    finishes the chain's elimination on its square block, whose last pivot
    is its cell's determinant up to sign.  Volume = sum |det| / (L**d * d!).
    """
    d = P.hrep.dim
    L, verts = P.integer_vertices
    masks = P.vertex_masks
    order = sorted(range(len(verts)), key=lambda t: (-masks[t].bit_count(), verts[t]))
    # each row's tight vertices, bit s for the s-th vertex pulled
    tight = [0] * len(P.hrep.ineqs)
    for s, t in enumerate(order):
        for i in bit_list(masks[t]):
            tight[i] |= 1 << s
    full = (1 << len(verts)) - 1
    if len(verts) <= d or any(on == full and any(a) for (a, _), on in zip(P.hrep.ineqs, tight)):
        warnings.warn("polytope is not full-dimensional; volume is 0")
        return Fraction(0)
    rest = {s: [x - y for x, y in zip(verts[t], verts[order[0]])] for s, t in enumerate(order) if s}
    total = _cone(full, rest, 1, 0, d, tight, {})
    return Fraction(total, L**d * factorial(d))


def _cone(face: int, reduced: dict, pivot: int, depth: int, d: int, tight: list[int], bases: dict) -> int:
    """Sum of |det| over the cells of ``face`` coned from the chain of
    apices that led to it.  ``reduced`` maps each vertex but the apex to
    its difference row, eliminated by the chain's apices down to this face
    (pivot columns dropped, d - depth left); ``bases`` caches each face's
    facets that miss its apex.

    Entering a facet, its apex's row eliminates the facet's other rows in
    its first nonzero column; a row 0 there only scales by the new pivot
    over ``pivot``, and stays as it is when the two are equal.  A face with
    at most d - depth + 1 vertices is one cell, the simplex on them: the
    chain's elimination finished on its rows (``_eliminate`` from
    ``pivot``; one row of one entry is that entry) ends on its determinant
    up to sign.  Too few vertices or a zero determinant is a degenerate
    cell, which a pulling triangulation never makes.
    """
    if len(reduced) <= d - depth:
        rows = list(reduced.values())
        rank, det = (1, rows[0][0]) if len(rows) == d - depth == 1 else _eliminate(rows, pivot)
        if rank < d - depth or not det:
            raise AssertionError("triangulation produced a degenerate cell")
        return abs(det)
    if face not in bases:
        # facets by decreasing size, so a non-maximal mask meets a kept superset
        kept: list[int] = []
        for g in sorted({face & m for m in tight} - {0, face}, key=int.bit_count, reverse=True):
            for h in kept:
                if g & h == g:
                    break
            else:
                kept.append(g)
        bases[face] = [g for g in kept if not g & face & -face]
    total = 0
    for f in bases[face]:
        top = reduced[a := (f & -f).bit_length() - 1]
        for c, p in enumerate(top):
            if p:
                break
        else:
            raise AssertionError("triangulation produced a degenerate cell")
        sub = {}
        for t, row in reduced.items():
            if f >> t & 1 and t != a:
                if s := row[c]:
                    row = [(p * x - s * y) // pivot for x, y in zip(row, top)]
                else:
                    row = [p * x // pivot for x in row] if p != pivot else row.copy()
                del row[c]  # now 0
                sub[t] = row
        total += _cone(f, sub, p, depth + 1, d, tight, bases)
    return total


# ---------------------------------------------------------------------------
# polytope equality
# ---------------------------------------------------------------------------

def same_vertex_set(P: QPolytope, Q: QPolytope) -> bool:
    """Whether P and Q are the same polytope: the package's one polytope
    equality, since a bounded polytope is the hull of its vertices.  P and
    Q must have the same coordinates and vertices, compared as their
    integer vertices over their common denominators; their rows may differ.
    Enumerated vertices are distinct, so equal sizes and sets suffice."""
    if P.hrep.coords != Q.hrep.coords or len(P.vertices) != len(Q.vertices):
        return False
    (L, ps), (M, qs) = P.integer_vertices, Q.integer_vertices
    return L == M and set(ps) == set(qs)


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin
# ---------------------------------------------------------------------------

def _rect(i: int, j: int) -> Partition:
    return (j,) * i


def gt_polytope(shape: GridShape, r) -> HPolytope:
    """Interlacing-pattern polytope in the f-coordinates indexed by
    rectangles; exactly one integer row per superpotential summand, with
    the dilation r on the row of the full rectangle."""
    coords = rectangles(shape)
    idx = {c: t for t, c in enumerate(coords)}
    rows_, cols_ = shape.rows, shape.k

    def row(plus, minus, b=0) -> Ineq:
        # f at the rectangle ``plus`` minus f at ``minus``, each as (i, j) or None
        a = [0] * len(coords)
        for rect, x in ((plus, 1), (minus, -1)):
            if rect:
                a[idx[_rect(*rect)]] = x
        return tuple(a), b

    ineqs = [row((1, 1), None), row(None, (rows_, cols_), r)]
    ineqs += [row((i, j), (i - 1, j)) for i in range(2, rows_ + 1) for j in range(1, cols_ + 1)]
    ineqs += [row((i, j), (i, j - 1)) for i in range(1, rows_ + 1) for j in range(2, cols_ + 1)]
    return HPolytope(coords, tuple(ineqs))


def gt_transform_matrix(shape: GridShape) -> list[list[int]]:
    """The unimodular map F: f_{i x j} = v_{i x j} - v_{(i-1) x (j-1)}, as
    an integer matrix over the canonical coordinates."""
    coords = rectangles(shape)
    idx = {c: t for t, c in enumerate(coords)}
    F = [[int(s == t) for s in range(len(coords))] for t in range(len(coords))]
    for c in coords:
        i, j = len(c), c[0]
        if i > 1 and j > 1:
            F[idx[c]][idx[_rect(i - 1, j - 1)]] = -1
    return F


def gt_transform_polytope(P: QPolytope, shape: GridShape) -> QPolytope:
    """The image of a full-dimensional P under F: a linear bijection carries
    the hull of P's vertices onto the hull of their images, which are
    taken as integers over P's denominator."""
    F = gt_transform_matrix(shape)
    L, verts = P.integer_vertices
    return hull_of_points(P.coords, [tuple(sum(map(mul, row, v)) for row in F) for v in verts], L)


def gt_pattern_count(shape: GridShape, r: int) -> int:
    """Number of integral interlacing patterns with top row (0^k, r^{n-k}).

    Direct recursive enumeration with memoization on rows; independent of
    the polytope engine on purpose, so it can serve as a counting oracle.
    """
    return _pattern_count(tuple([0] * shape.k + [r] * shape.rows), {})


def _pattern_count(row: tuple[int, ...], memo: dict) -> int:
    if len(row) == 1:
        return 1
    if row not in memo:
        memo[row] = sum(_pattern_count(nxt, memo) for nxt in _interlacing(row))
    return memo[row]


def _interlacing(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The weakly increasing rows x with row[i] <= x_i <= row[i+1]."""
    out: list[tuple[int, ...]] = [()]
    for i in range(len(row) - 1):
        out = [cur + (v,) for cur in out for v in range(max(row[i], cur[-1]) if cur else row[i], row[i + 1] + 1)]
    return out


def volume_formula(shape: GridShape) -> Fraction:
    """Closed form prod_{1<=i<=k} (k-i)!/(n-i)!: the leading Ehrhart
    coefficient of the degree-one polytope, independent of the chart."""
    out = Fraction(1)
    for i in range(1, shape.k + 1):
        out *= Fraction(factorial(shape.k - i), factorial(shape.n - i))
    return out
