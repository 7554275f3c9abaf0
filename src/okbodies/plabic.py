"""Plabic graphs in the disk: the rectangles graph, trips, face labels,
quivers, square moves and matchings.

A graph is stored as a rotation system: for every vertex, the tuple of its
neighbours in clockwise order.  Boundary vertices are the integers 1..n
(their id doubles as their boundary index, walking clockwise around the
disk); internal vertices get ids above n.  Every boundary vertex has
degree one and its unique neighbour is white, every internal edge joins a
black and a white vertex, and parallel edges are refused throughout: the
graphs this package produces are reduced and the few surgeries below
preserve that.

Faces are traced with virtual rim arcs between consecutive boundary
vertices; each dart (directed edge) then lies on the boundary of exactly
one face, the face to its left.  Trips turn maximally right at black and
maximally left at white vertices, and the face labelled by a set S of trip
indices is the face lying to the left of exactly the trips in S.  The labels
are read off one crossing of each edge: the two trips along an edge, one
each way, are the only trips that separate the faces on its two sides.
A graph in normal form has no mergeable vertex, that is, no internal
degree-2 vertex between two internal ones; merging one with its neighbours
(Postnikov's moves M2/M3) keeps every face, label and matching.
``build_rectangles``, ``normalize`` and ``square_move`` return normal forms;
``movable_faces`` and ``square_move`` refuse other graphs.  A square move
does its surgery and the table steps of ``normalize`` on one copy of the
rotation tables and builds only the moved graph.  It traces that graph
from scratch unless the caller knows an equal graph, already traced, which
it then returns: a census traces each of its graphs once, when it is first
built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from .partitions import (
    GridShape,
    Partition,
    label_sort_key,
    partition_str,
    south_mask_tables,
)
from .polyhedra import laplace_minors

BLACK = "black"
WHITE = "white"
BOUNDARY = "boundary"

Dart = tuple[int, int]
Edge = frozenset


class PlabicGraph:
    """Bicoloured graph in the disk with a clockwise rotation system.

    A graph is an immutable value: nothing changes ``color`` or ``rot``
    after construction, and every surgery below builds a new graph from
    copies.  Its canonical form, face labelling and matching tables are
    therefore computed on first use by ``canonical_form``, ``face_labels``
    and ``_cover_tables`` and cached on the graph.
    """

    __slots__ = ("shape", "color", "rot", "_canonical", "_labeling", "_cover_tables")

    def __init__(self, shape: GridShape, color: dict[int, str], rot: dict[int, tuple[int, ...]]):
        self.shape = shape
        self.color = dict(color)
        self.rot = {v: tuple(nbrs) for v, nbrs in rot.items()}
        self._canonical: Optional[tuple] = None
        self._labeling: Optional[FaceLabeling] = None
        self._cover_tables: Optional[tuple] = None
        self._validate()

    def _validate(self) -> None:
        n, color, rot = self.shape.n, self.color, self.rot
        if color.keys() != rot.keys():
            raise ValueError("the colour and rotation tables name different vertices")
        for i in range(1, n + 1):
            if color.get(i) != BOUNDARY:
                raise ValueError(f"vertex {i} must be the boundary vertex with index {i}")
            if len(rot[i]) != 1:
                raise ValueError(f"boundary vertex {i} must have degree 1")
        for v, nbrs in rot.items():
            cv = color[v]
            if cv not in (BLACK, WHITE, BOUNDARY):
                raise ValueError(f"vertex {v} has unknown colour {cv!r}")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"parallel edges at vertex {v}")
            for u in nbrs:
                if u not in rot:
                    raise ValueError(f"rotation at {v} names unknown vertex {u}")
                if v not in rot[u]:
                    raise ValueError(f"rotation system is not symmetric at {u}-{v}")
            if cv == BOUNDARY:
                if not 1 <= v <= n:
                    raise ValueError(f"boundary vertex {v} has no boundary index in 1..{n}")
                if color[nbrs[0]] != WHITE:
                    raise ValueError(f"boundary vertex {v} must attach to a white vertex")
            else:
                for u in nbrs:
                    if color[u] == cv:
                        raise ValueError(f"edge {v}-{u} joins two {cv} vertices")

    # -- elementary queries -------------------------------------------------

    def vertices(self) -> list[int]:
        return sorted(self.rot)

    def edges(self) -> list[Edge]:
        """Every edge once, in the order of its sorted endpoints."""
        return [frozenset(e) for e in sorted((v, u) for v, nbrs in self.rot.items() for u in nbrs if v < u)]

    def neighbor_of_boundary(self, i: int) -> int:
        return self.rot[i][0]

    # -- equality and serialization -----------------------------------------

    def canonical_form(self):
        """The graph as a value, each rotation started at its least
        neighbour; equality and hashing compare it."""
        if self._canonical is None:
            rows = []
            for v in self.vertices():
                rot = self.rot[v]
                if len(rot) > 1:
                    s = rot.index(min(rot))
                    rot = rot[s:] + rot[:s]
                rows.append((v, self.color[v], rot))
            self._canonical = (self.shape.k, self.shape.n, tuple(rows))
        return self._canonical

    def __eq__(self, other):
        return isinstance(other, PlabicGraph) and self.canonical_form() == other.canonical_form()

    def __hash__(self):
        return hash(self.canonical_form())

    def to_json(self) -> dict:
        doc = {
            "schema": "okbodies.plabic/1",
            "k": self.shape.k,
            "n": self.shape.n,
            "vertices": [
                {
                    "id": v,
                    "color": self.color[v],
                    "boundary_index": v if self.color[v] == BOUNDARY else None,
                    "rotation": list(self.rot[v]),
                }
                for v in self.vertices()
            ],
        }
        labeling = face_labels(self)
        doc["face_labels"] = {
            partition_str(lam): sorted({d[0] for d in labeling.faces.darts_of[fi]})
            for lam, fi in labeling.face_of_partition.items()
        }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PlabicGraph":
        if doc.get("schema") != "okbodies.plabic/1":
            raise ValueError(f"unexpected schema {doc.get('schema')!r}")
        shape = GridShape(doc["k"], doc["n"])
        for rec in doc["vertices"]:
            missing = [f for f in ("id", "color", "rotation") if f not in rec]
            if missing:
                raise ValueError(f"vertex record {rec.get('id', '?')} lacks {', '.join(missing)}")
        color = {rec["id"]: rec["color"] for rec in doc["vertices"]}
        rot = {rec["id"]: tuple(rec["rotation"]) for rec in doc["vertices"]}
        return cls(shape, color, rot)


# ---------------------------------------------------------------------------
# the rectangles graph
# ---------------------------------------------------------------------------

def build_rectangles(shape: GridShape) -> PlabicGraph:
    """The plabic graph whose face labels are the rectangles in the box.

    Built from an (n-k) x k grid of boxes.  Each lattice point carries a
    black vertex (collecting the edges from the north and east) joined by a
    short diagonal edge to a white vertex (emitting the edges to the west
    and south).  Sources 1..n-k sit on the east edge, top to bottom, each
    behind a degree-2 white buffer; sinks n-k+1..n are attached along the
    bottom from right to left.  The grid is not in normal form, so its
    mergeable degree-2 vertices are merged away ((3,6): 27 vertices to 19)
    and the normal form is returned.
    """
    if shape.n < 3:
        raise ValueError("the disk picture needs n >= 3")
    rows, k, n = shape.rows, shape.k, shape.n

    def A(h, v):
        return n + 1 + 2 * (h * k + v)

    def B(h, v):
        return n + 2 + 2 * (h * k + v)

    def wsrc(i):
        return n + 2 * rows * k + i

    color: dict[int, str] = {i: BOUNDARY for i in range(1, n + 1)}
    rot: dict[int, tuple[int, ...]] = {}

    for h in range(rows):
        for v in range(k):
            color[A(h, v)] = BLACK
            color[B(h, v)] = WHITE
            north = B(h - 1, v) if h > 0 else None
            east = B(h, v + 1) if v < k - 1 else wsrc(h + 1)
            rot[A(h, v)] = tuple(x for x in (north, east, B(h, v)) if x is not None)
            west = A(h, v - 1) if v > 0 else None
            south = A(h + 1, v) if h < rows - 1 else (n - v)
            rot[B(h, v)] = tuple(x for x in (west, A(h, v), south) if x is not None)

    for i in range(1, rows + 1):
        color[wsrc(i)] = WHITE
        rot[wsrc(i)] = (i, A(i - 1, k - 1))
        rot[i] = (wsrc(i),)
    for j in range(rows + 1, n + 1):
        rot[j] = (B(rows - 1, n - j),)

    return normalize(PlabicGraph(shape, color, rot))


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

@dataclass
class Faces:
    """Disk faces of a plabic graph (the outer face is discarded).

    ``of_dart`` sends every dart, rim darts included, to the index of the
    face on its left; ascending rim darts belong to the outer face and are
    absent.
    """

    darts_of: list[tuple[Dart, ...]]
    of_dart: dict[Dart, int]
    boundary: frozenset[int]

    def __len__(self) -> int:
        return len(self.darts_of)


def faces_of(G: PlabicGraph) -> Faces:
    n = G.shape.n
    # the dart after (u, v) around the face on its left is (v, w), w the
    # neighbour following u clockwise around v; boundary vertices see, in
    # clockwise order, their real edge and the rim arcs to the previous and
    # the next boundary vertex
    succ: dict[Dart, Dart] = {}
    for v, rot in G.rot.items():
        if v <= n:
            rot = (rot[0], (v - 2) % n + 1, v % n + 1)
        for u, w in zip(rot, rot[1:] + rot[:1]):
            succ[u, v] = (v, w)

    # each orbit takes its darts out of succ, so a dart met twice is missing
    orbits: list[tuple[Dart, ...]] = []
    for d0 in sorted(succ):
        d = succ.pop(d0, None)
        if d is None:
            continue
        orbit = [d0]
        while d != d0:
            orbit.append(d)
            d = succ.pop(d, None)
            if d is None:
                raise AssertionError("face orbits must be disjoint cycles")
        orbits.append(tuple(orbit))

    # rim darts join two boundary vertices; the ascending ones (v, v + 1)
    # follow one another, so they make up one such orbit, and the outer face
    # is the one orbit of rim darts alone
    outer = [
        idx for idx, orbit in enumerate(orbits)
        if orbit[0][1] <= n and all(u <= n and v <= n for u, v in orbit)
    ]
    if len(outer) != 1:
        raise AssertionError(f"expected a unique outer face, found {len(outer)}")
    orbits.pop(outer[0])

    of_dart = {d: idx for idx, orbit in enumerate(orbits) for d in orbit}
    # the faces on the boundary hold the descending rim darts
    boundary = frozenset(of_dart[v % n + 1, v] for v in range(1, n + 1))
    return Faces(orbits, of_dart, boundary)


# ---------------------------------------------------------------------------
# trips and face labels
# ---------------------------------------------------------------------------

def _turn_table(G: PlabicGraph) -> dict[Dart, int]:
    """Where a trip goes next after each dart (u, v) into an internal
    vertex v: the neighbour before u clockwise at a black v (a maximal right
    turn), the one after u at a white v (a maximal left turn)."""
    turn: dict[Dart, int] = {}
    for v, rot in G.rot.items():
        c = G.color[v]
        if c == BOUNDARY:
            continue
        nxt = rot[-1:] + rot[:-1] if c == BLACK else rot[1:] + rot[:1]
        for u, w in zip(rot, nxt):
            turn[u, v] = w
    return turn


def trip(G: PlabicGraph, i: int, turn: Optional[dict[Dart, int]] = None) -> list[Dart]:
    """The trip starting at boundary vertex i: maximal right turns at black
    vertices, maximal left turns at white ones, read off ``turn``
    (``_turn_table(G)`` when None).  A trip that does not end has met some
    dart into an internal vertex twice, that is, taken more such darts than
    ``turn`` holds."""
    if turn is None:
        turn = _turn_table(G)
    n = G.shape.n
    darts: list[Dart] = []
    u, v = i, G.neighbor_of_boundary(i)
    limit = len(turn)
    while True:
        darts.append((u, v))
        if v <= n:
            return darts
        if len(darts) > limit:
            raise AssertionError("trip does not terminate; graph is not reduced")
        u, v = v, turn[(u, v)]


@dataclass
class FaceLabeling:
    """Disk faces and their labels; ``labels`` lists them in canonical order."""

    faces: Faces
    partition_of_face: list[Partition]
    face_of_partition: dict[Partition, int]
    frozen: frozenset[Partition]
    labels: tuple[Partition, ...]

    @property
    def mutable(self) -> list[Partition]:
        return [lam for lam in self.labels if lam not in self.frozen]


def face_labels(G: PlabicGraph) -> FaceLabeling:
    """Label every disk face by the set of trips passing it on the left.

    The face right of a dart (u, v) is left of the trip along (v, u) in
    place of the one along (u, v), and on the same side of every other
    trip, so one breadth-first crossing of the edges from face 0 gives each
    label up to face 0's; trip i's first dart, whose face is left of trip
    i, fixes whether face 0 is.  Traced once per graph and cached on it.
    Raises if a trip is closed, two crossings disagree or a face is out of
    reach, or if the labels are not ``n-k`` sized, pairwise distinct and
    ``N + 1`` in number, which is how non-reduced graphs announce
    themselves here.
    """
    if G._labeling is None:
        G._labeling = _trace_labels(G)
    return G._labeling


def _trace_labels(G: PlabicGraph) -> FaceLabeling:
    shape, n = G.shape, G.shape.n
    faces = faces_of(G)
    turn = _turn_table(G)
    # bit i - 1 marks trip i's darts; a dart left unmarked lies on a closed trip
    trip_bit: dict[Dart, int] = {}
    for i in range(1, n + 1):
        trip_bit.update(dict.fromkeys(trip(G, i, turn), 1 << (i - 1)))
    if len(trip_bit) != sum(map(len, G.rot.values())):
        raise AssertionError("a trip is closed; graph is not reduced")

    # diff[f]: the trips that separate face f from face 0
    darts_of, of_dart = faces.darts_of, faces.of_dart
    diff: list[Optional[int]] = [0] + [None] * (len(faces) - 1)
    order = [0]
    for f in order:
        here = diff[f]
        for dart in darts_of[f]:
            u, v = dart
            if u <= n and v <= n:
                continue  # a rim dart crosses no edge
            back = (v, u)
            g = of_dart[back]
            across = here ^ trip_bit[dart] ^ trip_bit[back]
            if diff[g] is None:
                diff[g] = across
                order.append(g)
            elif diff[g] != across:
                raise AssertionError("face labels disagree across an edge; graph is not reduced")
    if len(order) != len(faces):
        raise AssertionError("a face is out of reach; graph is not reduced")
    root = sum(~diff[of_dart[i, G.rot[i][0]]] & 1 << (i - 1) for i in range(1, n + 1))
    # a trip mask names a partition exactly when it has n - k bits
    by_mask, _ = south_mask_tables(shape)
    partitions = []
    for d in diff:
        lam = by_mask.get(root ^ d)
        if lam is None:
            s = [i for i in range(1, n + 1) if (root ^ d) >> (i - 1) & 1]
            raise AssertionError(
                f"face label {s} has size {len(s)}, expected {shape.rows}"
            )
        partitions.append(lam)
    if len(set(partitions)) != len(partitions):
        raise AssertionError("face labels are not distinct; graph is not reduced")
    if len(partitions) != shape.num_boxes + 1:
        raise AssertionError(
            f"{len(partitions)} faces, expected {shape.num_boxes + 1}; graph is not reduced"
        )
    face_of = {lam: idx for idx, lam in enumerate(partitions)}
    frozen = frozenset(partitions[f] for f in faces.boundary)
    labels = tuple(sorted(partitions, key=label_sort_key))
    return FaceLabeling(faces, partitions, face_of, frozen, labels)


# ---------------------------------------------------------------------------
# quiver
# ---------------------------------------------------------------------------

@dataclass
class Quiver:
    """Exchange matrix on face labels; arrows between frozen pairs are not
    tracked.  The labels are in canonical order and ``b`` holds no zero
    entry and no empty row, so equal quivers compare equal with ``==``."""

    labels: tuple[Partition, ...]
    frozen: frozenset[Partition]
    b: dict[Partition, dict[Partition, int]]

    def entry(self, x: Partition, y: Partition) -> int:
        return self.b.get(x, {}).get(y, 0)

    def mutate(self, nu: Partition) -> "Quiver":
        """Matrix mutation at a mutable label.

        Entries at nu change sign.  Any other b[x][y] gains
        (b[x][nu] |b[nu][y]| + |b[x][nu]| b[nu][y]) / 2, which is 0 unless
        both factors are nonzero, so only the pairs of nu's column and row
        are visited; pairs of frozen labels stay untracked."""
        if nu in self.frozen or nu not in self.labels:
            raise ValueError(f"cannot mutate at {nu}")
        b = {x: {y: -m if nu in (x, y) else m for y, m in row.items()} for x, row in self.b.items()}
        into = [(x, row[nu]) for x, row in self.b.items() if nu in row]
        out_of = self.b.get(nu, {}).items()
        for x, bxn in into:
            for y, bny in out_of:
                if x == y or (x in self.frozen and y in self.frozen):
                    continue
                row = b.setdefault(x, {})
                new = row.get(y, 0) + (bxn * abs(bny) + abs(bxn) * bny) // 2
                if new:
                    row[y] = new
                else:
                    row.pop(y, None)
                    if not row:
                        del b[x]
        return Quiver(self.labels, self.frozen, b)

    def relabel(self, old: Partition, new: Partition) -> "Quiver":
        """Rename one label (after a square move), keeping the labels in
        canonical order, so that the result compares with ``==`` to the
        quiver of the moved graph."""
        def sub(x):
            return new if x == old else x
        labels = tuple(sorted(map(sub, self.labels), key=label_sort_key))
        frozen = frozenset(sub(x) for x in self.frozen)
        b = {sub(x): {sub(y): m for y, m in row.items()} for x, row in self.b.items()}
        return Quiver(labels, frozen, b)


def quiver_of(G: PlabicGraph) -> Quiver:
    """Quiver of a plabic graph: one arrow per internal edge, crossing it
    from the left face to the right face of the black-to-white dart.

    Read off G's own labelling, in normal form or not: a degree-2 vertex
    splits an edge in two, whose arrows cancel, so every reduced graph of
    a class gives the same quiver.
    """
    labeling = face_labels(G)
    faces = labeling.faces
    b: dict[Partition, dict[Partition, int]] = {}

    def add(x, y, m):
        row = b.setdefault(x, {})
        row[y] = row.get(y, 0) + m
        if row[y] == 0:
            del row[y]
            if not row:
                del b[x]

    for e in G.edges():
        u, v = sorted(e)
        if G.color[u] == BOUNDARY or G.color[v] == BOUNDARY:
            continue
        blk, wht = (u, v) if G.color[u] == BLACK else (v, u)
        lf = labeling.partition_of_face[faces.of_dart[(blk, wht)]]
        rf = labeling.partition_of_face[faces.of_dart[(wht, blk)]]
        if lf in labeling.frozen and rf in labeling.frozen:
            continue
        add(lf, rf, 1)
        add(rf, lf, -1)

    return Quiver(labeling.labels, labeling.frozen, b)


# ---------------------------------------------------------------------------
# the normal form
# ---------------------------------------------------------------------------

def _tables(G: PlabicGraph) -> tuple[dict[int, str], dict[int, list[int]]]:
    """Copies of G's colour and rotation tables for a surgery to change,
    each rotation a list."""
    return dict(G.color), {v: list(nbrs) for v, nbrs in G.rot.items()}


def _mergeable(color: dict[int, str], rot: dict[int, Sequence[int]], v: int) -> bool:
    nbrs = rot[v]
    return color[v] != BOUNDARY and len(nbrs) == 2 and all(color[u] != BOUNDARY for u in nbrs)


def _require_normal(G: PlabicGraph) -> None:
    """Raise ``ValueError`` naming a mergeable vertex of G, if it has one."""
    for v in G.rot:
        if _mergeable(G.color, G.rot, v):
            raise ValueError(f"vertex {v} has degree 2 and internal neighbours: graph not in normal form")


def _contract(color: dict[int, str], rot: dict[int, list[int]]) -> None:
    """Merge the mergeable vertices away, in place, always the smallest one
    first.  Both neighbours of such a vertex share its opposite colour, so
    each step merges two same-coloured vertices.  A merge can only change
    whether the surviving neighbour is mergeable, so a heap of candidates,
    re-checked when popped, finds them in that order."""
    heap = [v for v, nbrs in rot.items() if len(nbrs) == 2 and _mergeable(color, rot, v)]
    heapify(heap)
    while heap:
        v = heappop(heap)
        if v not in rot or not _mergeable(color, rot, v):
            continue
        x, y = rot[v]
        if x == y:
            raise AssertionError("bubble at a degree-2 vertex; graph is not reduced")
        sx, sy = rot[x].index(v), rot[y].index(v)
        splice = rot[y][sy + 1 :] + rot[y][:sy]
        new_rot = rot[x][:sx] + splice + rot[x][sx + 1 :]
        if len(set(new_rot)) != len(new_rot):
            raise AssertionError("contraction created a parallel edge; graph is not reduced")
        rot[x] = new_rot
        for u in splice:
            rot[u][rot[u].index(y)] = x
        del rot[v], color[v], rot[y], color[y]
        if _mergeable(color, rot, x):
            heappush(heap, x)


def _split_vertex(color: dict[int, str], rot: dict[int, list[int]], v: int, j: int, twin: int) -> None:
    """Keep arcs j and j+1 of v's rotation on v and hand the others, in
    clockwise order, to a new vertex ``twin`` of v's colour behind a buffer
    ``twin + 1`` of the opposite colour."""
    arcs = rot[v]
    d = len(arcs)
    buf = twin + 1
    rest = [arcs[(j + t) % d] for t in range(2, d)]
    color[twin] = color[v]
    color[buf] = WHITE if color[v] == BLACK else BLACK
    rot[twin] = [buf] + rest
    rot[buf] = [v, twin]
    rot[v] = [arcs[j], arcs[(j + 1) % d], buf]
    for u in rest:
        rot[u][rot[u].index(v)] = twin


def _renumbered(n: int, color: dict[int, str], rot: dict[int, Sequence[int]]) -> tuple[dict, dict]:
    """The tables with internal vertices renumbered n+1, n+2, ... in the
    order of a breadth-first search from the boundary that visits each
    vertex's neighbours clockwise after the one it came from."""
    rename = {i: i for i in range(1, n + 1)}
    # the queue of (parent, vertex) pairs grows while it is walked
    queue = [(i, rot[i][0]) for i in range(1, n + 1)]
    for parent, v in queue:
        if v in rename:
            continue
        rename[v] = len(rename) + 1
        nbrs = rot[v]
        s = nbrs.index(parent)
        for u in nbrs[s + 1 :] + nbrs[:s]:
            if u not in rename:
                queue.append((v, u))
    if len(rename) != len(rot):
        raise AssertionError("graph is not connected to the boundary")

    get = rename.__getitem__
    return (
        {get(v): c for v, c in color.items()},
        {get(v): tuple(map(get, nbrs)) for v, nbrs in rot.items()},
    )


def normalize(G: PlabicGraph) -> PlabicGraph:
    """The normal form of G: its mergeable vertices merged away and its
    internal vertices renumbered canonically, so that equal normal forms
    compare equal.  Keeps every face and label.  Idempotent.

    Both steps run on the rotation tables (``_normal_tables``); only the
    result is built and validated as a graph."""
    return PlabicGraph(G.shape, *_normal_tables(G.shape.n, *_tables(G)))


def _normal_tables(n: int, color: dict[int, str], rot: dict[int, list[int]]) -> tuple[dict, dict]:
    """The tables of ``normalize`` from the colour and rotation tables of a
    graph with n boundary vertices, which the merges change in place."""
    _contract(color, rot)
    return _renumbered(n, color, rot)


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------

def _cover(
    nbrs: list[list[tuple[int, int]]], masks: list[int], full: int,
    covered: int, chosen: int, out: list[int],
) -> None:
    """Add to ``out`` the edge bitmask of every matching that extends
    ``chosen`` and covers each bit of ``full`` not in ``covered`` once (other
    vertices are optional).  ``nbrs[t]`` pairs the neighbour and edge bits of
    vertex t in rotation order; ``masks[t]`` is its neighbour bits' union.
    Branches on the first vertex with a single free neighbour, else on one
    with the fewest; a vertex without any is a dead end."""
    rest = full & ~covered
    if not rest:
        out.append(chosen)
        return
    best, fewest = -1, 0
    while rest:
        low = rest & -rest
        rest ^= low
        t = low.bit_length() - 1
        free = (masks[t] & ~covered).bit_count()
        if not free:
            return
        if best < 0 or free < fewest:
            best, fewest = t, free
            if free == 1:
                break
    covered |= 1 << best
    for b, e in nbrs[best]:
        if not covered & b:
            _cover(nbrs, masks, full, covered | b, chosen | e, out)


def _cover_tables(G: PlabicGraph) -> tuple[list, list[int], list[Edge]]:
    """``nbrs``, ``masks`` and ``edges`` for ``_cover``, read off the
    rotation tables and cached on the graph.  Vertex bit t is the t-th
    vertex in increasing order: the boundary vertices 1..n, then the
    internal ones.  Edge bit t is ``edges[t] == G.edges()[t]``, so bit i - 1
    is also the edge at boundary vertex i."""
    if G._cover_tables is None:
        rot = G.rot
        verts = sorted(rot)  # boundary vertices are 1..n, internal ones above n
        index = {v: t for t, v in enumerate(verts)}
        pairs = [(v, u) for v in verts for u in sorted(rot[v]) if v < u]
        bit = {}
        for t, (v, u) in enumerate(pairs):
            bit[v, u] = bit[u, v] = 1 << t
        nbrs = [[(1 << index[u], bit[v, u]) for u in rot[v]] for v in verts]
        # no parallel edges: the neighbour bits are distinct
        masks = [sum([b for b, _ in row]) for row in nbrs]
        G._cover_tables = (nbrs, masks, list(map(frozenset, pairs)))
    return G._cover_tables


def boundary_matchings(G: PlabicGraph, J: Optional[Iterable[int]] = None) -> tuple[list[Edge], list[int]]:
    """The graph's edges in ``G.edges()`` order, and as bitmasks over them
    (bit t is edge t) every matching that covers the internal vertices and
    exactly the boundary vertices in J, by one exact-cover search on vertex
    bitmasks.  With J None the boundary vertices are optional and every
    boundary trace is listed; a mask's low n bits are its boundary trace."""
    nbrs, masks, edges = _cover_tables(G)
    n = G.shape.n
    if J is None:
        full, outside = (1 << len(nbrs)) - (1 << n), 0
    else:
        full = (1 << len(nbrs)) - 1
        outside = sum(1 << (i - 1) for i in set(range(1, n + 1)).difference(J))
    found: list[int] = []
    _cover(nbrs, masks, full, outside, 0, found)
    return edges, found


# ---------------------------------------------------------------------------
# the square move
# ---------------------------------------------------------------------------

@dataclass
class SquareMoveResult:
    graph: PlabicGraph
    new_label: Partition


_SQUARE_PRIME = (1 << 61) - 1  # Mersenne, plenty of room for Schwartz-Zippel


def pluecker_mod_p(A: Sequence[Sequence[int]], labels: Sequence[Partition], shape: GridShape, p: int) -> dict:
    """The Pluecker coordinates p_lam, lam in ``labels``, of the (n-k) x n
    integer matrix ``A`` over F_p: p_lam is the maximal minor on the
    0-based columns of lam's south mask."""
    mask_of = south_mask_tables(shape)[1]
    (minors,) = laplace_minors([A], [mask_of[lam] for lam in labels], p)
    return dict(zip(labels, minors))


def _check_exchange(shape: GridShape, nu, nu2, diag1, diag2, rng: random.Random) -> None:
    """Verify p_nu p_nu' = p_a p_c + p_b p_d at three random points of the
    Grassmannian over a large prime field: three (n-k) x n matrices drawn
    from ``rng`` one after the other, each row by row, and their six minors
    from one expansion plan."""
    p, n, rows = _SQUARE_PRIME, shape.n, shape.rows
    mask_of = south_mask_tables(shape)[1]
    cols = [mask_of[lam] for lam in (nu, nu2, *diag1, *diag2)]
    # randrange(p)'s own draws: 61 random bits, drawn again while >= p
    draw, entries = rng.getrandbits, []
    while len(entries) < 3 * rows * n:
        x = draw(61)
        if x < p:
            entries.append(x)
    matrix_rows = [entries[j : j + n] for j in range(0, 3 * rows * n, n)]
    mats = [matrix_rows[j : j + rows] for j in range(0, 3 * rows, rows)]
    for p_nu, p_nu2, a, c, b, d in laplace_minors(mats, cols, p):
        if p_nu * p_nu2 % p != (a * c + b * d) % p:
            raise AssertionError(
                f"exchange relation failed at {partition_str(nu)}: "
                f"{partition_str(nu2)} is not the expected new label"
            )


def _internal_square(
    G: PlabicGraph, labeling: FaceLabeling, lam: Partition
) -> Optional[tuple[Dart, ...]]:
    """The darts around the face labelled ``lam`` of ``G`` when that face
    is a quadrilateral with no boundary corner, else None."""
    darts = labeling.faces.darts_of[labeling.face_of_partition[lam]]
    corners = {d[0] for d in darts}
    if len(darts) == 4 and len(corners) == 4 and all(G.color[v] != BOUNDARY for v in corners):
        return darts
    return None


def square_move(
    G: PlabicGraph,
    nu: Partition,
    rng: Optional[random.Random] = None,
    known: Optional[dict[PlabicGraph, PlabicGraph]] = None,
) -> SquareMoveResult:
    """Apply the square move at the face labelled ``nu`` of G, which must
    be in normal form (``ValueError`` otherwise), and return the moved
    graph in normal form.

    The face must be an internal quadrilateral of G (its four corners may
    have any degree).  Corners of degree above three are first split so
    that the square has trivalent corners, the corner colours are
    exchanged, bipartiteness is restored with degree-2 buffers on the four
    outer legs, and the tables are normalized (``_normal_tables``) before
    the one moved graph is built and validated.  When ``known`` holds a
    graph equal to it, that graph is returned in its place, with the
    labelling traced when it was first built; otherwise the moved graph is
    traced from scratch.  Either way the labels must differ from G's in
    nu alone, and the new label is double-checked against the exchange
    relation p_nu p_nu' = p_a p_c + p_b p_d at random points over a prime
    field, drawn from ``rng`` or, when it is None, from a fixed seed.
    """
    _require_normal(G)
    labeling = face_labels(G)
    if nu not in labeling.face_of_partition:
        raise ValueError(f"no face labelled {partition_str(nu)}")
    if nu in labeling.frozen:
        raise ValueError(f"face {partition_str(nu)} is frozen")
    darts = _internal_square(G, labeling, nu)
    if darts is None:
        raise ValueError(
            f"face {partition_str(nu)} is not a quadrilateral away from the boundary"
        )
    corners = [d[0] for d in darts]

    neighbor_faces = tuple(
        labeling.partition_of_face[labeling.faces.of_dart[(v, u)]] for (u, v) in darts
    )

    color, rot = _tables(G)
    fresh = max(rot) + 1
    # the two face edges at corner j join it to its orbit neighbours
    side = {corners[j]: (corners[j - 1], corners[(j + 1) % 4]) for j in range(4)}

    for v in corners:
        u, w = side[v]
        if len(rot[v]) > 3:
            # split off everything except the two face edges
            ju = rot[v].index(u)
            if rot[v][(ju + 1) % len(rot[v])] != w:
                raise AssertionError("face edges not adjacent in the rotation")
            _split_vertex(color, rot, v, ju, fresh)
            fresh += 2

    for v in corners:
        old = color[v]
        color[v] = WHITE if old == BLACK else BLACK
        u, w = side[v]
        (leg,) = [x for x in rot[v] if x not in (u, w)]
        buf = fresh
        fresh += 1
        color[buf] = old
        rot[buf] = [v, leg]
        rot[v][rot[v].index(leg)] = buf
        rot[leg][rot[leg].index(v)] = buf

    moved = PlabicGraph(G.shape, *_normal_tables(G.shape.n, color, rot))
    if known is not None:
        moved = known.get(moved, moved)

    new_labeling = face_labels(moved)
    old_set = set(labeling.face_of_partition)
    new_set = set(new_labeling.face_of_partition)
    gained = new_set - old_set
    lost = old_set - new_set
    if lost != {nu} or len(gained) != 1:
        raise AssertionError(
            f"square move changed labels {lost} -> {gained}, expected exactly one swap"
        )
    (nu2,) = gained

    if rng is None:
        rng = random.Random(0x5EED)
    a, b, c, d = neighbor_faces
    _check_exchange(G.shape, nu, nu2, (a, c), (b, d), rng)

    return SquareMoveResult(moved, nu2)


def movable_faces(G: PlabicGraph) -> list[Partition]:
    """Mutable face labels where the square move applies: the faces of G
    that are quadrilaterals away from the boundary.  G must be in normal
    form (``ValueError`` otherwise)."""
    _require_normal(G)
    labeling = face_labels(G)
    return [lam for lam in labeling.mutable if _internal_square(G, labeling, lam) is not None]
