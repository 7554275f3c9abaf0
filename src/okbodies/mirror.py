"""Superpotentials on plabic charts and their tropical shadows.

A chart carries a distinguished Laurent expansion of the superpotential,
one coefficient-1 summand per matching with prescribed boundary, kept as
its boundary index and its integer exponent vector over the chart's
labels; tropicalizing the summands (min convention, one linear form each)
cuts out the chart's polytope.  Charts related by a square move get their
polytopes related by a piecewise-linear mutation, implemented here once,
on points; a polytope is mapped through the images of the vertices of its
two linear pieces, followed by a rehull.

The base coordinate p at the empty label is normalized to 1 throughout,
so exponent vectors live on the nonempty labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .charts import NetworkChart, maxdiag_valuation
from .partitions import (
    GridShape,
    Partition,
    boundary_target_set,
    frozen_mu,
    label_sort_key,
    partition_str,
    rectangles,
)
from .plabic import BLACK, Quiver, boundary_matchings
from .polyhedra import (
    HPolytope,
    QPolytope,
    Vec,
    Vertices,
    bit_list,
    enumerate_vertices,
    frac_str,
    hull_of_points,
    qpolytope,
)


@dataclass(frozen=True)
class SuperpotentialExpansion:
    """Summands of the superpotential, one per matching (or closed-form
    summand): the boundary index i of the W_i it belongs to, the slot
    ``i == rows`` being the q-weighted one, and its exponent vector over
    ``labels``.  Every summand has coefficient 1."""

    shape: GridShape
    labels: tuple[Partition, ...]
    summands: tuple[tuple[int, tuple[int, ...]], ...]

    def total_terms(self) -> int:
        return len(self.summands)


def rectangles_superpotential(shape: GridShape) -> SuperpotentialExpansion:
    """Closed-form expansion on the rectangles chart.

    One summand per mixed ratio of rectangle variables; the missing
    rectangles (zero rows or columns) stand for the normalized base
    coordinate and simply drop out of the exponent vectors.
    """
    labels = rectangles(shape)
    index = {lab: t for t, lab in enumerate(labels)}
    rows, k, n = shape.rows, shape.k, shape.n

    def mono(num: Iterable[tuple[int, int]], den: Iterable[tuple[int, int]]):
        exps = [0] * len(labels)
        for i, j in num:
            if i > 0 and j > 0:
                exps[index[(j,) * i]] += 1
        for i, j in den:
            if i > 0 and j > 0:
                exps[index[(j,) * i]] -= 1
        return tuple(exps)

    summands: list[tuple[int, tuple[int, ...]]] = []
    summands.append((n, mono([(1, 1)], [])))
    summands.append((rows, mono([(rows - 1, k - 1)], [(rows, k)])))
    for i in range(2, rows + 1):
        for j in range(1, k + 1):
            summands.append(
                (i - 1, mono([(i, j), (i - 2, j - 1)], [(i - 1, j - 1), (i - 1, j)]))
            )
    for i in range(1, rows + 1):
        for j in range(2, k + 1):
            summands.append(
                (n - j + 1, mono([(i, j), (i - 1, j - 2)], [(i - 1, j - 1), (i, j - 1)]))
            )

    return SuperpotentialExpansion(shape, labels, tuple(summands))


def marsh_scott_expansion(chart: NetworkChart) -> SuperpotentialExpansion:
    """Matching expansion of the superpotential on an arbitrary chart.

    Each matching M with boundary set J^i contributes the monomial

        w_M * prod_{j = i-1, i+1, ..., i+k} p_{mu_j} / prod_{labels} p,

    where mu_j = ``frozen_mu(j)`` is the frozen label behind the rim arc
    from j to j + 1, and the edge weight collects the labels at the black
    endpoint that do not flank the edge.  Boundary edges have no black
    endpoint and weigh 1.  With M an edge mask from ``boundary_matchings``,
    the exponent at label s is base_i[s] + popcount(M & w_s), w_s masking
    the edges whose black endpoint carries s off the edge's two flanks.
    Each J^i lists its matchings in the lexicographic order of their
    sorted edges, which is the order of their ascending bit lists.
    """
    G, shape, labels = chart.graph, chart.shape, chart.labels
    index = {lab: t for t, lab in enumerate(labels)}
    of_dart, label_of = chart.labeling.faces.of_dart, chart.labeling.partition_of_face

    weights = [0] * len(labels)
    for t, (u, v) in enumerate(map(tuple, G.edges())):
        black = u if G.color[u] == BLACK else (v if G.color[v] == BLACK else None)
        if black is None:
            continue
        flank = {of_dart[(u, v)], of_dart[(v, u)]}
        for w in G.rot[black]:
            f = of_dart[(black, w)]
            if f not in flank and label_of[f]:
                weights[index[label_of[f]]] |= 1 << t

    # the slot of frozen_mu(j), j taken mod n; None for the empty label
    frozen = [index.get(frozen_mu(j, shape)) for j in range(shape.n)]

    summands: list[tuple[int, tuple[int, ...]]] = []
    for i in range(1, shape.n + 1):
        J = boundary_target_set(i, shape)
        _, matchings = boundary_matchings(G, J)
        if not matchings:
            raise TypeError(
                f"no matchings with boundary {sorted(J)}; chart is not reduced of this type"
            )
        base = [-1] * len(labels)
        for j in (i - 1, *range(i + 1, i + shape.k + 1)):
            slot = frozen[j % shape.n]
            if slot is not None:
                base[slot] += 1
        for M in sorted(matchings, key=bit_list):
            summands.append((i, tuple(b + (M & w).bit_count() for b, w in zip(base, weights))))

    return SuperpotentialExpansion(shape, labels, tuple(summands))


# ---------------------------------------------------------------------------
# tropical systems and polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TropSystem:
    """One linear form per superpotential summand, tagged with the index
    of the r-slot that shifts it."""

    coords: tuple[Partition, ...]
    entries: tuple[tuple[tuple[int, ...], int], ...]
    r_vec: tuple[Fraction, ...]

    def shift(self, i: int) -> Fraction:
        return self.r_vec[i - 1]


def standard_r_vec(shape: GridShape, r) -> tuple[Fraction, ...]:
    vec = [Fraction(0)] * shape.n
    vec[shape.rows - 1] = Fraction(r)
    return tuple(vec)


def gamma_system(expansion: SuperpotentialExpansion, r_vec: Sequence) -> TropSystem:
    if len(r_vec) != expansion.shape.n:
        raise ValueError("r_vec must have one slot per boundary vertex")
    return TropSystem(
        expansion.labels,
        tuple((exps, i) for i, exps in expansion.summands),
        tuple(Fraction(r) for r in r_vec),
    )


def gamma_polytope(system: TropSystem) -> HPolytope:
    """Deduplicated inequality description Trop(p_M)(v) + r_i >= 0, each
    row the summand's integer exponent vector with its weight r_i."""
    rows = dict.fromkeys((exps, system.shift(i)) for exps, i in system.entries)
    return HPolytope(system.coords, tuple(rows))


def gamma_qpolytope(expansion: SuperpotentialExpansion, r_vec: Sequence) -> QPolytope:
    return qpolytope(gamma_polytope(gamma_system(expansion, r_vec)))


def trop_system_to_json(system: TropSystem) -> dict:
    groups: dict[int, list] = {}
    for exps, i in system.entries:
        groups.setdefault(i, []).append(
            [int(e) for e in exps] + [frac_str(system.shift(i))]
        )
    return {
        "schema": "okbodies.tropsystem/1",
        "coords": [partition_str(c) for c in system.coords],
        "r_vec": [frac_str(r) for r in system.r_vec],
        "entries": [
            {"shift_index": i, "forms": groups[i]} for i in sorted(groups)
        ],
    }


def translation_vector(r_vec: Sequence, chart: NetworkChart) -> Vec:
    """Shift relating the polytope of a general r-vector to the dilation
    by the total weight: minus the r-weighted sum of frozen valuations.

    Boundary rotation moves the weight one slot, so for a class c and its
    rotation ρc the degree-one polytopes satisfy Γ_ρc = R_c(Γ_c) + t, with
    R_c the unimodular map of ``rotated_vertices`` and t = τ(e_{n-k}) -
    τ(e_{n-k+1}), τ this vector on ρc's chart and e_j the unit r-vector at
    slot j."""
    out = [Fraction(0)] * len(chart.labels)
    for j in range(1, chart.shape.n + 1):
        r = Fraction(r_vec[j - 1])
        if not r:
            continue
        e_j = maxdiag_valuation(frozen_mu(j, chart.shape), chart.labels)
        out = [x - r * v for x, v in zip(out, e_j)]
    return tuple(out)


def rotated_vertices(
    P: QPolytope, rho: Mapping[Partition, Partition], chart: NetworkChart
) -> list[tuple[int, ...]]:
    """The integer vertices of a class c's polytope P carried to the rotated
    class ρc, whose chart is ``chart``: R_c(v) + L·t for each integer vertex
    v of P over its denominator L, in the order of P's vertices.

    ``rho`` is the boundary rotation as a table (``cyclic_shift_table``).
    With z the label of c that ρ takes to the empty one, R_c sends x to x'
    with x'_ρλ = x_λ - x_z for λ ≠ z and x'_ρ∅ = -x_z; it is integral
    with |det| = 1.  t is the translation of ``translation_vector``'s
    rotation identity, integral since the valuations are, and is scaled to
    an integer vector once, so every image is integer arithmetic."""
    L, ints = P.integer_vertices
    old = {rho[lam]: s for s, lam in enumerate(P.coords)}
    if {*old, rho[()]} - {()} != set(chart.labels):
        raise ValueError("chart is not the chart of the rotated class")
    n, rows = chart.shape.n, chart.shape.rows
    tau = [translation_vector([int(j == i) for j in range(1, n + 1)], chart) for i in (rows, rows + 1)]
    # the slot of v each new coordinate reads, len(v) standing for a 0 at ρ∅
    pairs = [(old.get(lab, len(P.coords)), L * int(a - b)) for lab, a, b in zip(chart.labels, *tau)]
    z = old[()]
    out = []
    for v in ints:
        w, vz = (*v, 0), v[z]
        out.append(tuple(w[s] + o - vz for s, o in pairs))
    return out


# ---------------------------------------------------------------------------
# tropicalized cluster mutation
# ---------------------------------------------------------------------------

def _relabel(
    old_coords: Sequence[Partition], nu: Partition, new_label: Partition
) -> tuple[tuple[Partition, ...], list[int]]:
    """The successor chart's canonical coordinate order, with ``nu``
    renamed to ``new_label``, and for each new slot its old slot."""
    renamed = [new_label if lab == nu else lab for lab in old_coords]
    new_coords = tuple(sorted(renamed, key=label_sort_key))
    pos = {lab: t for t, lab in enumerate(renamed)}
    return new_coords, [pos[lab] for lab in new_coords]


@dataclass(frozen=True)
class TropMutation:
    """The piecewise-linear mutation at a mutable label ``nu``, followed by
    the relabelling onto the successor chart, prepared once per square
    move from the quiver and the source coordinates ``coords``.

    ``into`` and ``out`` are the arrow multiplicities into and out of
    ``nu``, slot by slot of ``coords``.  The mutation replaces the value at
    ``slot`` (that of ``nu``) by the min (or max) of the two pairings with
    the point, minus the old value; all other slots are fixed.  ``perm``
    gives, for each coordinate of ``new_coords`` (``coords`` with ``nu``
    renamed to ``new_label``, in canonical order), its slot in ``coords``.
    Integer points stay integer points: nothing is converted to Fractions.
    """

    new_coords: tuple[Partition, ...]
    into: tuple[int, ...]
    out: tuple[int, ...]
    slot: int
    perm: tuple[int, ...]

    @classmethod
    def of(
        cls, quiver: Quiver, nu: Partition, coords: Sequence[Partition], new_label: Partition
    ) -> "TropMutation":
        if nu in quiver.frozen:
            raise ValueError(f"cannot mutate at the frozen label {partition_str(nu)}")
        if nu not in quiver.labels:
            raise ValueError(f"{partition_str(nu)} is not a label of the quiver")
        index = {lab: t for t, lab in enumerate(coords)}
        into = [0] * len(coords)
        out = [0] * len(coords)
        for g in quiver.labels:
            e = quiver.entry(g, nu)
            if e and g in index:
                # the empty label is normalized to 1 and never enters coords;
                # its slot contributes 0 to either sum
                (into if e > 0 else out)[index[g]] = abs(e)
        new_coords, perm = _relabel(coords, nu, new_label)
        return cls(new_coords, tuple(into), tuple(out), coords.index(nu), tuple(perm))

    def mutate(self, v: Sequence, variant: str = "min") -> tuple:
        """The mutated point, still in the source coordinates."""
        s_in = sum(map(mul, self.into, v))
        s_out = sum(map(mul, self.out, v))
        w = list(v)
        w[self.slot] = (min(s_in, s_out) if variant == "min" else max(s_in, s_out)) - v[self.slot]
        return tuple(w)

    def __call__(self, v: Sequence, variant: str = "min") -> tuple:
        """The mutated point over ``new_coords``."""
        w = self.mutate(v, variant)
        return tuple(w[s] for s in self.perm)


def trop_mutate_polytope(
    P: QPolytope,
    quiver: Quiver,
    nu: Partition,
) -> QPolytope:
    """Convex hull of the image of a polytope under the piecewise-linear
    mutation at ``nu`` (min convention).

    The bend hyperplane (out - into).v = 0 splits P into two pieces, on
    each of which the mutation is linear, so the image is the union of the
    images of the two pieces and its hull is spanned by the images of
    their vertices.  Each piece is P cut by one more row, so its vertices
    continue P's double description, which hands them back as integer
    vertices over their denominator.  The two pieces' integer vertices are
    scaled to one denominator L and mutated as integers, which is exact
    since the mutation is positively homogeneous, and the distinct images
    are hulled as integer points over L.  The mutation is a bijection, so a
    single image means that P is a point, and the result is P translated
    onto that image.  The result is the image itself
    exactly when the image is convex, as it is for the superpotential
    polytopes of two charts related by a square move; nothing here checks
    that.
    """
    coords = P.hrep.coords
    if not P.vertices:
        return QPolytope(P.hrep, ())
    move = TropMutation.of(quiver, nu, coords, nu)  # no relabelling: only .mutate is used
    bend = tuple(o - i for i, o in zip(move.into, move.out))
    halves = (bend, tuple(-x for x in bend))
    pieces = [enumerate_vertices(P.hrep.with_ineqs([(half, 0)]), P) for half in halves]
    L = lcm(*(V.den for V in pieces))
    images = list({move.mutate([x * (L // V.den) for x in v]) for V in pieces for v in V.ints})
    if len(images) == 1:
        return P.translated([Fraction(x, L) - y for x, y in zip(images[0], P.vertices[0])])
    return hull_of_points(coords, images, L)


def relabel_polytope(
    P: QPolytope,
    nu: Partition,
    new_label: Partition,
) -> QPolytope:
    new_coords, perm = _relabel(P.hrep.coords, nu, new_label)
    ineqs = tuple(
        (tuple(a[s] for s in perm), b) for a, b in P.hrep.ineqs
    )
    # lex order on the vertices is lex order on their integer images; the
    # result carries those, the masks, which hold since the rows keep their
    # order, and the integer rows permuted alike
    L, ints = P.integer_vertices
    keys = [tuple(v[s] for s in perm) for v in ints]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    masks = P.vertex_masks
    verts = Vertices.of(
        (tuple(P.vertices[t][s] for s in perm) for t in order),
        L,
        [keys[t] for t in order],
        [masks[t] for t in order],
        ineqs,
        [(tuple(a[s] for s in perm), b) for a, b in P.integer_rows],
    )
    return QPolytope(HPolytope(new_coords, ineqs), verts)
