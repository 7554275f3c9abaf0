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
indices is the face lying to the left of exactly the trips in S.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .partitions import (
    GridShape,
    Partition,
    label_sort_key,
    partition_str,
    partition_to_south_steps,
    south_steps_to_partition,
)
from .polyhedra import rank_det

BLACK = "black"
WHITE = "white"
BOUNDARY = "boundary"

Dart = tuple[int, int]
Edge = frozenset


class PlabicGraph:
    """Bicoloured graph in the disk with a clockwise rotation system.

    A graph is an immutable value: nothing changes ``color`` or ``rot``
    after construction, and every surgery below builds a new graph from
    copies.  Its face labelling and its contracted form are therefore
    computed on first use by ``face_labels`` and ``contract`` and cached on
    the graph.
    """

    __slots__ = ("shape", "color", "rot", "_labeling", "_contracted")

    def __init__(self, shape: GridShape, color: dict[int, str], rot: dict[int, tuple[int, ...]]):
        self.shape = shape
        self.color = dict(color)
        self.rot = {v: tuple(nbrs) for v, nbrs in rot.items()}
        self._labeling: Optional[FaceLabeling] = None
        self._contracted: Optional[PlabicGraph] = None
        self._validate()

    def _validate(self) -> None:
        n = self.shape.n
        if self.color.keys() != self.rot.keys():
            raise ValueError("the colour and rotation tables name different vertices")
        for i in range(1, n + 1):
            if self.color.get(i) != BOUNDARY:
                raise ValueError(f"vertex {i} must be the boundary vertex with index {i}")
            if len(self.rot[i]) != 1:
                raise ValueError(f"boundary vertex {i} must have degree 1")
        for v, nbrs in self.rot.items():
            cv = self.color[v]
            if cv not in (BLACK, WHITE, BOUNDARY):
                raise ValueError(f"vertex {v} has unknown colour {cv!r}")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"parallel edges at vertex {v}")
            for u in nbrs:
                if u not in self.rot:
                    raise ValueError(f"rotation at {v} names unknown vertex {u}")
                if v not in self.rot[u]:
                    raise ValueError(f"rotation system is not symmetric at {u}-{v}")
            if cv == BOUNDARY:
                if self.color[nbrs[0]] != WHITE:
                    raise ValueError(f"boundary vertex {v} must attach to a white vertex")
            else:
                for u in nbrs:
                    cu = self.color[u]
                    if cu == cv:
                        raise ValueError(f"edge {v}-{u} joins two {cv} vertices")

    # -- elementary queries -------------------------------------------------

    def vertices(self) -> list[int]:
        return sorted(self.rot)

    def internal_vertices(self) -> list[int]:
        return [v for v in sorted(self.rot) if self.color[v] != BOUNDARY]

    def edges(self) -> list[Edge]:
        out = set()
        for v, nbrs in self.rot.items():
            for u in nbrs:
                out.add(frozenset((u, v)))
        return sorted(out, key=sorted)

    def neighbor_of_boundary(self, i: int) -> int:
        return self.rot[i][0]

    def _full_rot(self, v: int) -> tuple[int, ...]:
        # boundary vertices see, clockwise: the real edge, then the rim arcs
        # toward the previous and the next boundary vertex
        if self.color[v] != BOUNDARY:
            return self.rot[v]
        n = self.shape.n
        prev = (v - 2) % n + 1
        nxt = v % n + 1
        return (self.rot[v][0], prev, nxt)

    def cw_next(self, v: int, u: int) -> int:
        rot = self._full_rot(v)
        return rot[(rot.index(u) + 1) % len(rot)]

    def cw_prev(self, v: int, u: int) -> int:
        rot = self._full_rot(v)
        return rot[(rot.index(u) - 1) % len(rot)]

    # -- equality and serialization -----------------------------------------

    def canonical_form(self):
        rows = []
        for v in self.vertices():
            rot = self.rot[v]
            if len(rot) > 1:
                s = rot.index(min(rot))
                rot = rot[s:] + rot[:s]
            rows.append((v, self.color[v], rot))
        return (self.shape.k, self.shape.n, tuple(rows))

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
    bottom from right to left.  All internal vertices are trivalent or of
    degree 2, so the graph is its own normal form.
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

    return canonicalize(PlabicGraph(shape, color, rot))


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

@dataclass
class Faces:
    """Disk faces of a plabic graph (the outer face is discarded).

    ``of_dart`` sends every dart, rim darts included, to the index of the
    face on its left; ascending rim darts belong to the outer face and are
    absent.  ``arc_face`` names the boundary face behind each rim arc
    (keyed by the smaller endpoint of the arc, walking clockwise).
    """

    darts_of: list[tuple[Dart, ...]]
    of_dart: dict[Dart, int]
    boundary: frozenset[int]
    arc_face: dict[int, int]
    adj: dict[int, list[tuple[int, Edge]]]

    def __len__(self) -> int:
        return len(self.darts_of)


def faces_of(G: PlabicGraph) -> Faces:
    n = G.shape.n
    all_darts: set[Dart] = set()
    for v in G.vertices():
        for u in G.rot[v]:
            all_darts.add((v, u))
    for i in range(1, n + 1):
        all_darts.add((i, i % n + 1))
        all_darts.add((i % n + 1, i))

    def next_dart(d: Dart) -> Dart:
        u, v = d
        return (v, G.cw_next(v, u))

    orbits: list[tuple[Dart, ...]] = []
    seen: set[Dart] = set()
    for d0 in sorted(all_darts):
        if d0 in seen:
            continue
        orbit = [d0]
        seen.add(d0)
        d = next_dart(d0)
        while d != d0:
            if d in seen:
                raise AssertionError("face orbits must be disjoint cycles")
            orbit.append(d)
            seen.add(d)
            d = next_dart(d)
        orbits.append(tuple(orbit))

    def is_rim(d: Dart) -> bool:
        u, v = d
        return u <= n and v <= n

    outer = [idx for idx, orbit in enumerate(orbits) if all(is_rim(d) for d in orbit)]
    if len(outer) != 1:
        raise AssertionError(f"expected a unique outer face, found {len(outer)}")
    orbits.pop(outer[0])

    of_dart: dict[Dart, int] = {}
    boundary = set()
    arc_face: dict[int, int] = {}
    for idx, orbit in enumerate(orbits):
        for d in orbit:
            of_dart[d] = idx
            if is_rim(d):
                boundary.add(idx)
                arc_face[min(d) if abs(d[0] - d[1]) == 1 else n] = idx

    adj: dict[int, list[tuple[int, Edge]]] = {i: [] for i in range(len(orbits))}
    for u, v in of_dart:
        if is_rim((u, v)):
            continue
        f, g = of_dart[(u, v)], of_dart[(v, u)]
        if f != g:
            adj[f].append((g, frozenset((u, v))))

    return Faces(orbits, of_dart, frozenset(boundary), arc_face, adj)


def region_left(darts: Iterable[Dart], faces: Faces) -> frozenset[int]:
    """Faces to the left of a boundary-to-boundary walk.

    The walk's own edges act as walls; the region is the union of the faces
    seeded by the walk's darts, flooded across all non-wall edges.  The rim
    is an implicit wall because face adjacency only crosses real edges.
    """
    darts = list(darts)
    walls = {frozenset(d) for d in darts}
    frontier = {faces.of_dart[d] for d in darts}
    region = set(frontier)
    while frontier:
        f = frontier.pop()
        for g, e in faces.adj[f]:
            if e in walls or g in region:
                continue
            region.add(g)
            frontier.add(g)
    return frozenset(region)


# ---------------------------------------------------------------------------
# trips and face labels
# ---------------------------------------------------------------------------

def trip(G: PlabicGraph, i: int) -> list[Dart]:
    """The trip starting at boundary vertex i: maximal right turns at black
    vertices, maximal left turns at white ones."""
    darts: list[Dart] = []
    u, v = i, G.neighbor_of_boundary(i)
    limit = 4 * sum(len(r) for r in G.rot.values())
    while True:
        darts.append((u, v))
        if G.color[v] == BOUNDARY:
            return darts
        if len(darts) > limit:
            raise AssertionError("trip does not terminate; graph is not reduced")
        u, v = v, (G.cw_prev(v, u) if G.color[v] == BLACK else G.cw_next(v, u))


@dataclass
class FaceLabeling:
    faces: Faces
    partition_of_face: list[Partition]
    face_of_partition: dict[Partition, int]
    frozen: frozenset[Partition]

    @property
    def labels(self) -> list[Partition]:
        """All labels in canonical order."""
        return sorted(self.face_of_partition, key=label_sort_key)

    @property
    def mutable(self) -> list[Partition]:
        return [lam for lam in self.labels if lam not in self.frozen]


def face_labels(G: PlabicGraph) -> FaceLabeling:
    """Label every disk face by the set of trips passing it on the left.

    Traced once per graph and cached on it.  Raises if the labels are not
    ``n-k`` sized, pairwise distinct and ``N + 1`` in number, which is how
    non-reduced graphs announce themselves here.
    """
    if G._labeling is None:
        G._labeling = _trace_labels(G)
    return G._labeling


def _trace_labels(G: PlabicGraph) -> FaceLabeling:
    shape = G.shape
    faces = faces_of(G)
    members: list[set[int]] = [set() for _ in range(len(faces))]
    for i in range(1, shape.n + 1):
        for f in region_left(trip(G, i), faces):
            members[f].add(i)

    for s in members:
        if len(s) != shape.rows:
            raise AssertionError(
                f"face label {sorted(s)} has size {len(s)}, expected {shape.rows}"
            )
    partitions = [south_steps_to_partition(s, shape) for s in members]
    if len(set(partitions)) != len(partitions):
        raise AssertionError("face labels are not distinct; graph is not reduced")
    if len(partitions) != shape.num_boxes + 1:
        raise AssertionError(
            f"{len(partitions)} faces, expected {shape.num_boxes + 1}; graph is not reduced"
        )
    face_of = {lam: idx for idx, lam in enumerate(partitions)}
    frozen = frozenset(partitions[f] for f in faces.boundary)
    return FaceLabeling(faces, partitions, face_of, frozen)


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

    def _set(self, x, y, val):
        if val:
            self.b.setdefault(x, {})[y] = val
        else:
            self.b.get(x, {}).pop(y, None)

    def mutate(self, nu: Partition) -> "Quiver":
        """Matrix mutation at a mutable label."""
        if nu in self.frozen or nu not in self.labels:
            raise ValueError(f"cannot mutate at {nu}")
        out = Quiver(self.labels, self.frozen, {})
        for x in self.labels:
            for y in self.labels:
                if x == y or (x in self.frozen and y in self.frozen):
                    continue
                bxy = self.entry(x, y)
                if nu in (x, y):
                    new = -bxy
                else:
                    bxn, bny = self.entry(x, nu), self.entry(nu, y)
                    new = bxy + (bxn * abs(bny) + abs(bxn) * bny) // 2
                out._set(x, y, new)
        return out

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

    Computed on the degree-2 contracted form: padding vertices subdivide
    edges, and each subdivided edge would contribute a cancelling pair of
    opposite arrows.
    """
    H = contract(G)
    labeling = face_labels(H)
    faces = labeling.faces
    b: dict[Partition, dict[Partition, int]] = {}

    def add(x, y, m):
        row = b.setdefault(x, {})
        row[y] = row.get(y, 0) + m
        if row[y] == 0:
            del row[y]
            if not row:
                del b[x]

    for e in H.edges():
        u, v = sorted(e)
        if H.color[u] == BOUNDARY or H.color[v] == BOUNDARY:
            continue
        blk, wht = (u, v) if H.color[u] == BLACK else (v, u)
        lf = labeling.partition_of_face[faces.of_dart[(blk, wht)]]
        rf = labeling.partition_of_face[faces.of_dart[(wht, blk)]]
        if lf in labeling.frozen and rf in labeling.frozen:
            continue
        add(lf, rf, 1)
        add(rf, lf, -1)

    labels = tuple(sorted(labeling.face_of_partition, key=label_sort_key))
    return Quiver(labels, labeling.frozen, b)


# ---------------------------------------------------------------------------
# contraction, expansion, canonical form
# ---------------------------------------------------------------------------

def contract(G: PlabicGraph) -> PlabicGraph:
    """Remove internal degree-2 vertices by merging their two neighbours.

    Both neighbours of an internal degree-2 vertex share its opposite
    colour, so each removal is a merge of two same-coloured vertices.
    White vertices attached to the boundary are kept: they are the
    mandatory buffers between the boundary and the black interior.
    Computed once per graph and cached on it.
    """
    if G._contracted is None:
        G._contracted = _contract(G)
    return G._contracted


def _contract(G: PlabicGraph) -> PlabicGraph:
    color = dict(G.color)
    rot = {v: list(nbrs) for v, nbrs in G.rot.items()}

    def mergeable(v):
        if color[v] == BOUNDARY or len(rot[v]) != 2:
            return False
        return all(color[u] != BOUNDARY for u in rot[v])

    changed = True
    while changed:
        changed = False
        for v in sorted(rot):
            if v not in rot or not mergeable(v):
                continue
            x, y = rot[v]
            if x == y:
                raise AssertionError("bubble at a degree-2 vertex; graph is not reduced")
            sx, sy = rot[x].index(v), rot[y].index(v)
            splice = [rot[y][(sy + t) % len(rot[y])] for t in range(1, len(rot[y]))]
            new_rot = rot[x][:sx] + splice + rot[x][sx + 1 :]
            if len(set(new_rot)) != len(new_rot):
                raise AssertionError("contraction created a parallel edge; graph is not reduced")
            rot[x] = new_rot
            for u in splice:
                rot[u][rot[u].index(y)] = x
            del rot[v], color[v], rot[y], color[y]
            changed = True
            break

    return PlabicGraph(G.shape, color, {v: tuple(r) for v, r in rot.items()})


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


def expand_to_trivalent(G: PlabicGraph) -> PlabicGraph:
    """Split internal vertices of degree > 3 with degree-2 buffers, keeping
    the rotation system planar.  Deterministic given the stored rotations."""
    color = dict(G.color)
    rot = {v: list(nbrs) for v, nbrs in G.rot.items()}
    fresh = max(rot) + 1

    work = sorted(v for v in rot if color[v] != BOUNDARY and len(rot[v]) > 3)
    while work:
        v = work.pop(0)
        while len(rot[v]) > 3:
            # keep the first two arcs on v, hand the rest to a twin vertex
            _split_vertex(color, rot, v, 0, fresh)
            v = fresh
            fresh += 2

    return PlabicGraph(G.shape, color, {v: tuple(r) for v, r in rot.items()})


def canonicalize(G: PlabicGraph) -> PlabicGraph:
    """Renumber internal vertices by a rotation-guided search from boundary
    vertex 1, and rotate each stored rotation to start at its smallest
    neighbour.  Structural no-op; makes serialized forms comparable."""
    n = G.shape.n
    order: list[int] = []
    seen = set(range(1, n + 1))
    queue: list[tuple[int, int]] = [(i, G.neighbor_of_boundary(i)) for i in range(1, n + 1)]
    while queue:
        parent, v = queue.pop(0)
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        rot = G.rot[v]
        s = rot.index(parent)
        for t in range(1, len(rot)):
            queue.append((v, rot[(s + t) % len(rot)]))
    if len(order) != len(G.rot) - n:
        raise AssertionError("graph is not connected to the boundary")

    rename = {v: n + 1 + idx for idx, v in enumerate(order)}
    for i in range(1, n + 1):
        rename[i] = i
    color = {rename[v]: c for v, c in G.color.items()}
    rot = {rename[v]: tuple(rename[u] for u in nbrs) for v, nbrs in G.rot.items()}
    return PlabicGraph(G.shape, color, rot)


def normalize(G: PlabicGraph) -> PlabicGraph:
    """Contract away internal degree-2 padding, split higher-degree
    vertices back to trivalent, renumber canonically.  Idempotent."""
    return canonicalize(expand_to_trivalent(contract(G)))


# ---------------------------------------------------------------------------
# perfect orientations and matchings
# ---------------------------------------------------------------------------

@dataclass
class Orientation:
    """An acyclic perfect orientation.

    ``head`` maps each edge to the endpoint it points at.  Sources are the
    boundary vertices whose edge points into the disk.
    """

    graph: PlabicGraph
    head: dict[Edge, int]
    sources: frozenset[int]
    topo: tuple[int, ...] = field(default_factory=tuple)

    def out_neighbors(self, v: int) -> list[int]:
        return sorted(
            u for u in self.graph.rot[v] if self.head[frozenset((u, v))] == u
        )


def _matchings(G: PlabicGraph, boundary_covered: frozenset[int]) -> Iterator[frozenset]:
    """All matchings covering every internal vertex, covering exactly the
    boundary vertices in ``boundary_covered``, by exact-cover backtracking."""
    n = G.shape.n
    forbidden = {i for i in range(1, n + 1) if i not in boundary_covered}
    must_cover = set(G.internal_vertices()) | set(boundary_covered)
    # the neighbours each vertex may be matched to, in rotation order
    allowed = {v: [u for u in G.rot[v] if u not in forbidden] for v in must_cover}

    def solve(covered: set[int], chosen: list[Edge]) -> Iterator[frozenset]:
        # branch on the most constrained vertex, working out each vertex's
        # candidates once; a vertex without any is a dead end
        best = None
        for w in must_cover:
            if w in covered:
                continue
            cands = [u for u in allowed[w] if u not in covered]
            if not cands:
                return
            if best is None or (len(cands), w) < (len(best[1]), best[0]):
                best = (w, cands)
        if best is None:
            yield frozenset(chosen)
            return
        v, cands = best
        for u in cands:
            covered.add(v)
            covered.add(u)
            chosen.append(frozenset((u, v)))
            yield from solve(covered, chosen)
            chosen.pop()
            covered.remove(u)
            covered.remove(v)

    yield from solve(set(), [])


def matchings_with_boundary(G: PlabicGraph, J: Iterable[int]) -> list[frozenset]:
    """Matchings covering all internal vertices whose boundary trace is
    exactly the set J."""
    out = list(_matchings(G, frozenset(J)))
    out.sort(key=lambda m: sorted(sorted(e) for e in m))
    return out


def perfect_orientation(G: PlabicGraph) -> Orientation:
    """The acyclic perfect orientation with sources 1..n-k.

    Matched edges point at their white end, unmatched edges away from it.
    The matching with boundary trace {1..n-k} is unique for reduced graphs
    of our type (the top Pluecker has a single flow, the empty one); this
    is checked by exhaustive enumeration rather than assumed.
    """
    shape = G.shape
    srcs = frozenset(range(1, shape.rows + 1))
    found = matchings_with_boundary(G, srcs)
    if len(found) != 1:
        raise AssertionError(
            f"expected a unique matching with boundary {sorted(srcs)}, found {len(found)}"
        )
    matching = found[0]

    head: dict[Edge, int] = {}
    for e in G.edges():
        u, v = sorted(e)
        wht = u if G.color[u] == WHITE else v
        if G.color[wht] != WHITE:  # boundary-boundary edges cannot occur
            raise AssertionError("edge without a white endpoint")
        if e in matching:
            head[e] = wht
        else:
            head[e] = u if wht == v else v

    # Kahn's algorithm; a cycle would mean the matching was not acyclic,
    # which cannot happen here but is cheap to verify.
    indeg = {v: 0 for v in G.vertices()}
    for e, h in head.items():
        indeg[h] += 1
    queue = sorted(v for v, d in indeg.items() if d == 0)
    topo: list[int] = []
    while queue:
        v = queue.pop(0)
        topo.append(v)
        for u in G.rot[v]:
            if head[frozenset((u, v))] == u:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
        queue.sort()
    if len(topo) != len(indeg):
        raise AssertionError("perfect orientation has a directed cycle")

    return Orientation(G, head, srcs, tuple(topo))


# ---------------------------------------------------------------------------
# the square move
# ---------------------------------------------------------------------------

@dataclass
class SquareMoveResult:
    graph: PlabicGraph
    new_label: Partition


_SQUARE_PRIME = (1 << 61) - 1  # Mersenne, plenty of room for Schwartz-Zippel


def _columns(lam: Partition, shape: GridShape) -> list[int]:
    """The 0-based matrix columns of lam's south steps."""
    return sorted(j - 1 for j in partition_to_south_steps(lam, shape))


def _minor_mod_p(A: Sequence[Sequence[int]], cols: Sequence[int], p: int) -> int:
    return rank_det([[row[c] % p for c in cols] for row in A])[1] % p


def pluecker_mod_p(A: Sequence[Sequence[int]], lam: Partition, shape: GridShape, p: int) -> int:
    """The Pluecker coordinate p_lam of the (n-k) x n matrix ``A`` over F_p:
    the exact integer minor of ``A`` reduced mod p on the columns of lam's
    south steps, reduced mod p."""
    return _minor_mod_p(A, _columns(lam, shape), p)


def _check_exchange(shape: GridShape, nu, nu2, diag1, diag2, rng: random.Random) -> None:
    """Verify p_nu p_nu' = p_a p_c + p_b p_d at random points of the
    Grassmannian over a large prime field."""
    p = _SQUARE_PRIME
    cols = {lam: _columns(lam, shape) for lam in (nu, nu2, *diag1, *diag2)}
    for _ in range(3):
        mat = [[rng.randrange(p) for _ in range(shape.n)] for _ in range(shape.rows)]
        vals = {lam: _minor_mod_p(mat, c, p) for lam, c in cols.items()}
        lhs = vals[nu] * vals[nu2] % p
        rhs = (vals[diag1[0]] * vals[diag1[1]] + vals[diag2[0]] * vals[diag2[1]]) % p
        if lhs != rhs:
            raise AssertionError(
                f"exchange relation failed at {partition_str(nu)}: "
                f"{partition_str(nu2)} is not the expected new label"
            )


def _internal_square(
    H: PlabicGraph, labeling: FaceLabeling, lam: Partition
) -> Optional[tuple[Dart, ...]]:
    """The darts around the face labelled ``lam`` of the contracted graph
    ``H`` when that face is a quadrilateral with no boundary corner, else
    None."""
    darts = labeling.faces.darts_of[labeling.face_of_partition[lam]]
    corners = {d[0] for d in darts}
    if len(darts) == 4 and len(corners) == 4 and all(H.color[v] != BOUNDARY for v in corners):
        return darts
    return None


def square_move(G: PlabicGraph, nu: Partition, rng: Optional[random.Random] = None) -> SquareMoveResult:
    """Apply the square move at the face labelled ``nu``.

    Applicability is decided on the contracted graph, where the face must
    be an internal quadrilateral (its four corners may have any degree).
    Corners of degree above three are first split so that the square has
    trivalent corners, the corner colours are exchanged, bipartiteness is
    restored with degree-2 buffers on the four outer legs, and the result
    is normalized.  The new label is recomputed from scratch via trips and
    double-checked against the exchange relation
    p_nu p_nu' = p_a p_c + p_b p_d at random points over a prime field,
    drawn from ``rng`` or, when it is None, from a fixed seed.
    """
    H = contract(G)
    labeling = face_labels(H)
    if nu not in labeling.face_of_partition:
        raise ValueError(f"no face labelled {partition_str(nu)}")
    if nu in labeling.frozen:
        raise ValueError(f"face {partition_str(nu)} is frozen")
    darts = _internal_square(H, labeling, nu)
    if darts is None:
        raise ValueError(
            f"face {partition_str(nu)} is not a quadrilateral away from the boundary"
        )
    corners = [d[0] for d in darts]

    neighbor_faces = tuple(
        labeling.partition_of_face[labeling.faces.of_dart[(v, u)]] for (u, v) in darts
    )

    color = dict(H.color)
    rot = {v: list(r) for v, r in H.rot.items()}
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

    moved = normalize(PlabicGraph(G.shape, color, {v: tuple(r) for v, r in rot.items()}))

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
    """Mutable face labels where the square move applies, decided on the
    contracted graph (quadrilateral faces away from the boundary)."""
    H = contract(G)
    labeling = face_labels(H)
    out = [lam for lam in labeling.mutable if _internal_square(H, labeling, lam) is not None]
    return sorted(out, key=label_sort_key)
