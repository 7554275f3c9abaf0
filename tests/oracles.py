"""Independent brute-force oracles used to freeze expected values.

Everything here is written as directly as possible from the definitions,
with no shared code paths into the package: border paths are walked step by
step, diagonals are counted one at a time, Gelfand-Tsetlin patterns are
enumerated recursively, matchings are grown one edge at a time, paths are
followed one dart at a time.  Only containers are borrowed from the
package: the polytope classes, to hand a dilation back in the form its
callers compare, and ``LaurentPoly`` for path sums.  The one exception is
the composed square move, a reference path rather than an oracle: it does
the surgery on its own copies of the tables but builds, normalizes and
labels the result with the package, so that the square move's fused table
steps are compared with the graph-by-graph steps they replace.  The
oracles are slow and that is fine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm

from okbodies.laurent import LaurentPoly
from okbodies.plabic import PlabicGraph, face_labels, normalize
from okbodies.polyhedra import HPolytope, QPolytope


def walk_border(J, k, n):
    """Walk the border path of the (n-k) x k box from the northeast corner.

    Steps 1..n; a step in J moves south, otherwise west.  Returns the list
    of column positions recorded after each south step, which is the
    partition row by row.
    """
    J = set(J)
    row, col = 0, k
    parts = []
    for step in range(1, n + 1):
        if step in J:
            row += 1
            parts.append(col)
        else:
            col -= 1
    assert row == n - k and col == 0
    return tuple(p for p in parts if p > 0)


def border_steps(lam, k, n):
    """South steps of the border path of lam, walked from the northeast
    corner: the walk goes south when the next row's part reaches its
    column, and west otherwise."""
    parts = list(lam) + [0] * (n - k - len(lam))
    row, col, south = 0, k, set()
    for step in range(1, n + 1):
        if row < n - k and parts[row] == col:
            south.add(step)
            row += 1
        else:
            col -= 1
    assert row == n - k and col == 0
    return frozenset(south)


def walk_west(west, k, n):
    """The partition whose border path has west steps exactly ``west``."""
    return walk_border(set(range(1, n + 1)) - set(west), k, n)


def rotate_border_word(lam, k, n, times):
    """The cyclic shift by rotating lam's border word: the 0/1 word read
    from the southwest corner to the northeast one, 1 for a south step,
    turned left ``times`` times and read back as a partition."""
    south = border_steps(lam, k, n)
    word = [1 if n - t in south else 0 for t in range(n)]
    for _ in range(times):
        word = word[1:] + word[:1]
    return walk_border({n - t for t in range(n) if word[t]}, k, n)


def boundary_rectangle(i, k, n):
    """The i-th boundary rectangle from its west steps {i+1, ..., i+k},
    taken mod n."""
    return walk_west({(i + j - 1) % n + 1 for j in range(1, k + 1)}, k, n)


def diag_count(outer, inner, d):
    """Number of boxes of outer minus inner on the diagonal c - r = d."""
    total = 0
    for r in range(1, len(outer) + 1):
        for c in range(1, outer[r - 1] + 1):
            if r <= len(inner) and c <= inner[r - 1]:
                continue
            if c - r == d:
                total += 1
    return total


def max_diag_bruteforce(outer, inner):
    span = range(-len(outer) - 1, (outer[0] if outer else 0) + 2)
    return max((diag_count(outer, inner, d) for d in span), default=0)


def gt_patterns(top):
    """All Gelfand-Tsetlin patterns with the given (weakly decreasing) top row."""
    rows = [list(top)]
    out = []

    def descend(rows):
        prev = rows[-1]
        if len(prev) == 1:
            out.append([tuple(r) for r in rows])
            return
        def choose(i, row):
            if i == len(prev) - 1:
                descend(rows + [row])
                return
            lo, hi = prev[i + 1], prev[i]
            if row:
                hi = min(hi, row[-1])
            for v in range(lo, hi + 1):
                choose(i + 1, row + [v])
        choose(0, [])

    descend(rows)
    return out


def gt_dimension(r, k, n):
    """dim of the irreducible GL(n) module with highest weight r * omega_{n-k},
    counted by brute-force pattern enumeration."""
    top = (r,) * (n - k) + (0,) * k
    return len(gt_patterns(top))


def minor(matrix, rows, cols):
    """Exact determinant of the submatrix, cofactor expansion."""
    rows, cols = list(rows), sorted(cols)
    if not rows:
        return 1
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    total = 0
    for t, c in enumerate(cols):
        sub = minor(matrix, rows[1:], cols[:t] + cols[t + 1 :])
        term = matrix[rows[0]][c] * sub
        total += -term if t % 2 else term
    return total


def all_minors(matrix, n, size):
    return {J: minor(matrix, list(range(size)), list(J)) for J in combinations(range(n), size)}


def simplex_volume(points):
    """Exact volume of the simplex on d+1 points in Q^d."""
    base = points[0]
    mat = [[Fraction(x) - Fraction(b) for x, b in zip(p, base)] for p in points[1:]]
    d = len(mat)
    det = _det_fraction([row[:] for row in mat])
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    return abs(det) / fact


def volume_by_pulling(P):
    """Exact volume of a full-dimensional polytope by the pulling
    triangulation, written on vertex sets.

    A face is the frozenset of its vertex indices; its facets are the
    maximal nonempty proper groups of its vertices tight at one row.  The
    cells of a face are its least vertex coned over the cells of its facets
    that miss it, and each cell's volume is ``simplex_volume``.
    """
    verts = P.vertices
    d = len(P.hrep.coords)
    tight = [
        frozenset(i for i, (a, b) in enumerate(P.hrep.ineqs) if sum(x * y for x, y in zip(a, v)) + b == 0)
        for v in verts
    ]

    def facets(face):
        groups = set()
        for i in range(len(P.hrep.ineqs)):
            g = frozenset(t for t in face if i in tight[t])
            if g and g != face:
                groups.add(g)
        return [g for g in groups if not any(g < h for h in groups)]

    def cells(face):
        if len(face) == 1:
            return [tuple(face)]
        apex = min(face)
        return [(apex,) + cell for f in facets(face) if apex not in f for cell in cells(f)]

    total = Fraction(0)
    for cell in cells(frozenset(range(len(verts)))):
        assert len(cell) == d + 1, "degenerate cell"
        total += simplex_volume([verts[t] for t in cell])
    return total


def _det_fraction(mat):
    d = len(mat)
    det = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, d):
            f = mat[r][col] / mat[col][col]
            for c in range(col, d):
                mat[r][c] -= f * mat[col][c]
    return det


def _solve_square(A, rhs):
    """Unique exact solution of A x = rhs by Gauss-Jordan, or None if A is singular."""
    d = len(A)
    mat = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(A, rhs)]
    for col in range(d):
        piv = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        p = mat[col][col]
        mat[col] = [x / p for x in mat[col]]
        for r in range(d):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return tuple(row[d] for row in mat)


def rank(rows):
    """Rank over Q by exact forward elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def contains(ineqs, v):
    """Whether the point ``v`` meets every row a.v + b >= 0 of ``ineqs``."""
    return all(sum(x * y for x, y in zip(a, v)) + b >= 0 for a, b in ineqs)


def vertices_by_subsets(rows, d):
    """Vertices of {v : a.v + b >= 0 for every (a, b) in rows}, brute force.

    Every d-subset of rows is solved exactly as equalities; a unique
    solution that satisfies every row is a vertex.  Sorted, no duplicates.
    """
    out = set()
    for sub in combinations(rows, d):
        v = _solve_square([a for a, _ in sub], [-b for _, b in sub])
        if v is not None and all(sum(x * y for x, y in zip(a, v)) + b >= 0 for a, b in rows):
            out.add(v)
    return sorted(out)


def lattice_points_by_box_sweep(ineqs, vertices, r):
    """Integer points of the r-th dilation of {v : a.v + b >= 0}, sorted.

    The pruned box sweep: each coordinate runs over the bounding box of the
    dilated ``vertices`` (those of the undilated region; none means empty),
    and every candidate value is tested against every row, dropping it as
    soon as some row cannot be met by any completion inside the box.
    """
    if not vertices:
        return ()
    d = len(vertices[0])
    lo = [ceil(min(Fraction(v[i]) * r for v in vertices)) for i in range(d)]
    hi = [floor(max(Fraction(v[i]) * r for v in vertices)) for i in range(d)]
    rows = []
    for a, b in ineqs:
        row = [Fraction(x) for x in a] + [Fraction(b) * r]
        den = lcm(*(x.denominator for x in row))
        row = [int(x * den) for x in row]
        rows.append((row[:-1], row[-1]))
    # best achievable contribution of coordinates c.. for each row
    suffix = []
    for a, _ in rows:
        best = [0] * (d + 1)
        for c in range(d - 1, -1, -1):
            best[c] = best[c + 1] + max(a[c] * lo[c], a[c] * hi[c])
        suffix.append(best)

    out = []
    partial = [b for _, b in rows]
    point = [0] * d

    def sweep(c):
        if c == d:
            out.append(tuple(point))
            return
        for val in range(lo[c], hi[c] + 1):
            ok = True
            for t, (a, _) in enumerate(rows):
                partial[t] += a[c] * val
                if partial[t] + suffix[t][c + 1] < 0:
                    ok = False
            if ok:
                point[c] = val
                sweep(c + 1)
            for t, (a, _) in enumerate(rows):
                partial[t] -= a[c] * val

    sweep(0)
    return tuple(sorted(out))


def dilate(P, r):
    """The r-th dilation of a polytope: every vertex times r and every
    row a.v + b >= 0 turned into a.v + r*b >= 0."""
    r = Fraction(r)
    hrep = HPolytope(P.hrep.coords, tuple((a, b * r) for a, b in P.hrep.ineqs))
    return QPolytope(hrep, tuple(tuple(r * x for x in v) for v in P.vertices))


def matchings_by_edges(G, J):
    """Matchings of the plabic graph ``G`` that cover every internal vertex
    and exactly the boundary vertices in ``J``, sorted as edge lists.

    Include/exclude recursion over the sorted edge list; a branch dies once
    it has passed the last edge of a vertex it still has to cover.
    """
    J = set(J)
    edges = sorted({tuple(sorted((u, v))) for v, nbrs in G.rot.items() for u in nbrs})
    must = {v for v, c in G.color.items() if c != "boundary"} | J
    last = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    out = []

    def grow(i, covered, chosen):
        if i == len(edges):
            if covered == must:
                out.append(frozenset(frozenset(e) for e in chosen))
            return
        u, v = edges[i]
        if u in must and v in must and u not in covered and v not in covered:
            grow(i + 1, covered | {u, v}, chosen + [(u, v)])
        if not any(w in must and w not in covered and last[w] == i for w in (u, v)):
            grow(i + 1, covered, chosen)

    grow(0, frozenset(), [])
    return sorted(out, key=lambda m: sorted(sorted(e) for e in m))


def _full_rotation(G, v):
    """Clockwise neighbours of ``v``; a boundary vertex sees its edge, then
    the rim arcs to the previous and the next boundary vertex."""
    n = G.shape.n
    if G.color[v] != "boundary":
        return G.rot[v]
    return (G.rot[v][0], (v - 2) % n + 1, v % n + 1)


def _cw_next(G, v, u):
    rot = _full_rotation(G, v)
    return rot[(rot.index(u) + 1) % len(rot)]


def _cw_prev(G, v, u):
    rot = _full_rotation(G, v)
    return rot[(rot.index(u) - 1) % len(rot)]


def faces_by_rotation_walk(G):
    """The disk faces of a plabic graph, by walking each dart's successor
    ``(v, cw_next(v, u))`` one rotation lookup at a time.

    Returns ``(orbits, of_dart, boundary, arc_face, adj)`` in the form of
    ``plabic.Faces``: orbits start at their least dart and are listed in
    the order of their starts, the outer face (all rim darts) dropped.
    """
    n = G.shape.n
    darts = {(v, u) for v in G.rot for u in G.rot[v]}
    for i in range(1, n + 1):
        darts |= {(i, i % n + 1), (i % n + 1, i)}
    orbits, seen = [], set()
    for d0 in sorted(darts):
        if d0 in seen:
            continue
        orbit, d = [], d0
        while d not in seen:
            seen.add(d)
            orbit.append(d)
            d = (d[1], _cw_next(G, d[1], d[0]))
        assert d == d0
        orbits.append(tuple(orbit))

    def rim(d):
        return d[0] <= n and d[1] <= n

    outer = [t for t, orbit in enumerate(orbits) if all(map(rim, orbit))]
    assert len(outer) == 1
    orbits.pop(outer[0])
    of_dart = {d: t for t, orbit in enumerate(orbits) for d in orbit}
    boundary = frozenset(t for t, orbit in enumerate(orbits) if any(map(rim, orbit)))
    arc_face = {}
    for d, t in of_dart.items():
        if rim(d):
            arc_face[min(d) if abs(d[0] - d[1]) == 1 else n] = t
    adj = {t: [] for t in range(len(orbits))}
    for (u, v), t in of_dart.items():
        if not rim((u, v)) and of_dart[(v, u)] != t:
            adj[t].append((of_dart[(v, u)], frozenset((u, v))))
    return orbits, of_dart, boundary, arc_face, adj


def trip_by_rotation_walk(G, i):
    """The trip from boundary vertex i: at each internal vertex, the
    neighbour before the arrival clockwise at a black vertex and after it
    at a white one."""
    darts = [(i, G.rot[i][0])]
    while G.color[darts[-1][1]] != "boundary":
        u, v = darts[-1]
        darts.append((v, _cw_prev(G, v, u) if G.color[v] == "black" else _cw_next(G, v, u)))
    return darts


def _faces_left_of(darts, of_dart, adj):
    """Faces left of a boundary-to-boundary walk: flooded from the faces of
    its darts across every edge the walk does not use."""
    walls = {frozenset(d) for d in darts}
    region = {of_dart[d] for d in darts}
    frontier = list(region)
    while frontier:
        for g, e in adj[frontier.pop()]:
            if e not in walls and g not in region:
                region.add(g)
                frontier.append(g)
    return region


def labels_by_rotation_walk(G):
    """Each disk face's label, listed by face index of
    ``faces_by_rotation_walk``: the partition whose south steps are the
    trips that have the face on their left."""
    orbits, of_dart, _, _, adj = faces_by_rotation_walk(G)
    members = [[] for _ in orbits]
    for i in range(1, G.shape.n + 1):
        for t in _faces_left_of(trip_by_rotation_walk(G, i), of_dart, adj):
            members[t].append(i)
    return [walk_border(J, G.shape.k, G.shape.n) for J in members]


def marsh_scott_by_edges(chart):
    """The summands ``(i, exponents over chart.labels)`` of the matching
    expansion of the superpotential, one matching at a time.

    For each i the matchings with boundary J^i = {i+1} and {i+k+1, ..., i-1}
    cyclically come from ``matchings_by_edges``, in its order.  A matching
    counts the labels behind the rim arcs from i - 1, i + 1, ..., i + k to
    the next boundary vertex, and for every matched edge with a black end
    the labels of the faces around that end that do not flank the edge;
    every label of the chart counts minus one once.  Faces, their labels and
    the faces behind the rim arcs come from the rotation walks above.
    """
    G, labels = chart.graph, chart.labels
    k, n = G.shape.k, G.shape.n
    _, of_dart, _, arc_face, _ = faces_by_rotation_walk(G)
    label = labels_by_rotation_walk(G)

    def cyc(j):
        return (j - 1) % n + 1

    out = []
    for i in range(1, n + 1):
        J = {cyc(i + 1)} | {cyc(i + k + j) for j in range(1, n - k)}
        for matching in matchings_by_edges(G, J):
            count = {lab: -1 for lab in labels}
            found = [label[arc_face[cyc(j)]] for j in [i - 1] + list(range(i + 1, i + k + 1))]
            for u, v in map(tuple, matching):
                black = u if G.color[u] == "black" else v if G.color[v] == "black" else None
                if black is None:
                    continue
                for w in G.rot[black]:
                    f = of_dart[(black, w)]
                    if f not in (of_dart[(u, v)], of_dart[(v, u)]):
                        found.append(label[f])
            for lab in found:
                if lab:
                    count[lab] += 1
            out.append((i, tuple(count[lab] for lab in labels)))
    return out


def orientation_by_sort_and_pop(G, matching):
    """``(head, topo)`` of the perfect orientation of ``matching``: each
    edge points at its white end when matched and away from it otherwise,
    and Kahn's algorithm takes the smallest ready vertex from a list kept
    sorted."""
    head = {}
    for v in G.rot:
        for u in G.rot[v]:
            white = u if G.color[u] == "white" else v
            other = v if white == u else u
            head[frozenset((u, v))] = white if frozenset((u, v)) in matching else other
    indeg = {v: 0 for v in G.rot}
    for h in head.values():
        indeg[h] += 1
    queue = sorted(v for v, d in indeg.items() if d == 0)
    topo = []
    while queue:
        v = queue.pop(0)
        topo.append(v)
        for u in G.rot[v]:
            if head[frozenset((u, v))] == u:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
        queue.sort()
    return head, tuple(topo)


# -- paths of a network chart ----------------------------------------------

def paths_between(chart, i, j):
    """All directed paths from boundary vertex i to boundary vertex j of the
    perfect orientation of the chart's matching with boundary 1..n-k, as
    dart lists, by a depth-first search that steps along every edge
    pointing away from the current vertex.  The matching and its
    orientation come from the oracles above."""
    G = chart.graph
    (matching,) = matchings_by_edges(G, range(1, G.shape.rows + 1))
    head, _ = orientation_by_sort_and_pop(G, matching)
    out = []

    def walk(darts):
        v = darts[-1][1]
        if v == j:
            out.append(darts)
        elif G.color[v] != "boundary":
            for u in G.rot[v]:
                if head[frozenset((u, v))] == u:
                    walk(darts + [(v, u)])

    start = G.rot[i][0]
    if head[frozenset((i, start))] == start:
        walk([(i, start)])
    return out


def path_weigher(chart):
    """The weight of a chart's boundary-to-boundary path as an exponent
    vector over ``chart.labels``: one for each face left of the path, with
    the faces and their labels found by the rotation walk."""
    _, of_dart, _, _, adj = faces_by_rotation_walk(chart.graph)
    label_of = labels_by_rotation_walk(chart.graph)
    labels = list(chart.labels)

    def weigh(darts):
        exps = [0] * len(labels)
        for f in _faces_left_of(darts, of_dart, adj):
            assert label_of[f] != (), "the empty face never lies left of a path"
            exps[labels.index(label_of[f])] += 1
        return tuple(exps)

    return weigh


def boundary_matrix(chart):
    """The (n-k) x n boundary measurement matrix of a chart, its maximal
    minors the flow polynomials.  Row i, column j > n-k holds the sum of
    the weights of the paths from source i to j, signed by the parity of
    the n-k-i sources strictly between them; the first n-k columns are the
    identity."""
    rows, n = chart.shape.rows, chart.shape.n
    V = chart.labels
    weigh = path_weigher(chart)
    M = []
    for i in range(1, rows + 1):
        row = []
        for j in range(1, n + 1):
            if j <= rows:
                row.append(LaurentPoly.one(V) if i == j else LaurentPoly.zero(V))
                continue
            total = LaurentPoly.zero(V)
            for darts in paths_between(chart, i, j):
                total = total + LaurentPoly.monomial(V, weigh(darts))
            row.append(-total if (rows - i) % 2 else total)
        M.append(row)
    return M


# -- quiver mutation -----------------------------------------------------------

def mutate_over_all_pairs(Q, nu):
    """Matrix mutation of the quiver ``Q`` at ``nu``, entry by entry over
    every pair of labels: b'[x][y] = -b[x][y] when nu is x or y, else
    b[x][y] + (b[x][nu] |b[nu][y]| + |b[x][nu]| b[nu][y]) / 2, keeping
    neither zero entries nor pairs of frozen labels."""
    def entry(x, y):
        return Q.b.get(x, {}).get(y, 0)

    b = {}
    for x in Q.labels:
        for y in Q.labels:
            if x == y or (x in Q.frozen and y in Q.frozen):
                continue
            if nu in (x, y):
                new = -entry(x, y)
            else:
                bxn, bny = entry(x, nu), entry(nu, y)
                new = entry(x, y) + (bxn * abs(bny) + abs(bxn) * bny) // 2
            if new:
                b.setdefault(x, {})[y] = new
    return type(Q)(Q.labels, Q.frozen, b)


# -- a graph out of normal form ------------------------------------------------

def subdivided(G):
    """G with every edge between two internal vertices u and v replaced by
    a path u - a - b - v through two new degree-2 vertices, a of v's colour
    and b of u's.  Each new vertex has two internal neighbours, so the
    result is out of normal form, and merging either one away gives back
    the edge u - v: the faces, labels and matchings are G's."""
    color = dict(G.color)
    rot = {v: list(r) for v, r in G.rot.items()}
    fresh = max(rot) + 1
    for u, v in sorted((u, v) for u in G.rot for v in G.rot[u] if u < v):
        if "boundary" in (G.color[u], G.color[v]):
            continue
        a, b = fresh, fresh + 1
        fresh += 2
        color[a], color[b] = G.color[v], G.color[u]
        rot[a], rot[b] = [u, b], [a, v]
        rot[u][rot[u].index(v)] = a
        rot[v][rot[v].index(u)] = b
    return PlabicGraph(G.shape, color, rot)


# -- the square move, composed graph by graph ----------------------------------

def square_move_composed(G, nu):
    """The square move at the face labelled ``nu`` of G, composed step by
    step: the surgery on copies of G's tables (corners of degree above
    three split off behind a buffer, corner colours swapped, a buffer on
    each outer leg), a ``PlabicGraph`` of the result, then ``normalize``.
    Returns the moved graph and the one label it gains."""
    labeling = face_labels(G)
    darts = labeling.faces.darts_of[labeling.face_of_partition[nu]]
    corners = [d[0] for d in darts]
    other = {"black": "white", "white": "black"}
    color = dict(G.color)
    rot = {v: list(r) for v, r in G.rot.items()}
    fresh = max(rot) + 1
    side = {corners[j]: (corners[j - 1], corners[(j + 1) % 4]) for j in range(4)}
    for v in corners:
        arcs = rot[v]
        if len(arcs) > 3:
            # the face edges, arcs j and j + 1, stay on v; the other arcs
            # go in clockwise order to a twin behind a buffer
            j, d = arcs.index(side[v][0]), len(arcs)
            twin, buf = fresh, fresh + 1
            fresh += 2
            rest = [arcs[(j + t) % d] for t in range(2, d)]
            color[twin], color[buf] = color[v], other[color[v]]
            rot[twin] = [buf] + rest
            rot[buf] = [v, twin]
            rot[v] = [arcs[j], arcs[(j + 1) % d], buf]
            for u in rest:
                rot[u][rot[u].index(v)] = twin
    for v in corners:
        (leg,) = [x for x in rot[v] if x not in side[v]]
        buf = fresh
        fresh += 1
        color[buf], color[v] = color[v], other[color[v]]
        rot[buf] = [v, leg]
        rot[v][rot[v].index(leg)] = buf
        rot[leg][rot[leg].index(v)] = buf
    moved = normalize(PlabicGraph(G.shape, color, rot))
    (gained,) = set(face_labels(moved).labels) - set(labeling.labels)
    return moved, gained
