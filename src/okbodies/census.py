"""Move-equivalence census of plabic charts and the verification suites.

A breadth-first search over square moves, rooted at the rectangles chart,
visits every chart class once (keyed by its face-label set).  Each class
gets the full polytope pipeline: matching expansion, tropical polytope,
vertex enumeration, integrality verdict and degree-one lattice points.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Mapping, Optional, Sequence

from .charts import NetworkChart, maxdiag_valuation
from .mirror import (
    SuperpotentialExpansion,
    TropMutation,
    gamma_qpolytope,
    marsh_scott_expansion,
    rectangles_superpotential,
    rotated_vertices,
    standard_r_vec,
)
from .partitions import (
    GridShape,
    Partition,
    all_partitions,
    cyclic_shift_table,
    label_sort_key,
    parse_partition,
    partition_str,
)
from .plabic import (
    PlabicGraph,
    Quiver,
    build_rectangles,
    movable_faces,
    quiver_of,
    square_move,
)
from .polyhedra import QPolytope, frac_str, lattice_points, nonintegral_points, volume, volume_formula

DEFAULT_SEED = 0x0B0D1E5
CENSUS_SCHEMA = "okbodies.census/1"

# hard ceiling on coordinate count; the default gate is one notch lower
GUARD_COORDS = 12
DEEP_COORDS = 9

# class counts (total, integral, nonintegral) pinned from completed runs.
# The (3,7) split disagrees with an externally reported tally of (259, 216, 43);
# scripts/deep_census_audit.py re-derives ours two independent ways (boundary
# rotation acts freely on the 259 classes and fixes integrality, so both
# buckets must be multiples of seven, and a direct half-integral vertex sweep
# of every inequality system confirms the 42 fractional classes).
EXPECTED_COUNTS = {
    (2, 4): (2, 2, 0),
    (3, 5): (5, 5, 0),
    (2, 5): (5, 5, 0),
    (3, 6): (34, 32, 2),
    (3, 7): (259, 217, 42),
}

# degree-one valuation vectors of the rectangles chart on the 2x3 grid, in
# the canonical coordinate order (1),(1,1),(2),(3),(2,2),(3,3); kept as a
# regression pin for verify runs
G35_GOLDEN_ROWS = frozenset(
    {
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 1),
        (0, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 0, 1),
        (0, 0, 0, 1, 1, 1),
        (0, 1, 0, 1, 1, 1),
        (0, 0, 1, 1, 1, 2),
        (0, 1, 1, 1, 1, 2),
        (1, 1, 1, 1, 2, 2),
    }
)


class CensusGuardError(ValueError):
    pass


# the fields of a census JSON and of each of its class records
_REPORT_FIELDS = ("k", "n", "seed", "elapsed_seconds", "classes")
_RECORD_FIELDS = ("key", "path", "parent", "graph", "vertices", "lattice", "integral", "nonintegral_vertices")


def _require(doc: dict, fields: Sequence[str], what: str) -> None:
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")


@dataclass
class ClassRecord:
    key: tuple[Partition, ...]
    graph: Optional[PlabicGraph]
    path: tuple[tuple[Partition, Partition], ...]
    parent: Optional[tuple[Partition, ...]]
    vertices: tuple
    lattice: tuple
    polytope: Optional[QPolytope] = field(default=None, repr=False, compare=False)
    # read off the vertices on construction, never passed in
    nonintegral_vertices: tuple = field(init=False, compare=False)
    integral: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        self.nonintegral_vertices = nonintegral_points(self.vertices)
        self.integral = not self.nonintegral_vertices

    @cached_property
    def chart(self) -> Optional[NetworkChart]:
        """The network chart of ``graph``, built on first use and kept out of
        the JSON; None for the degenerate closed-form record."""
        return None if self.graph is None else NetworkChart.of(self.graph)

    @cached_property
    def quiver(self) -> Optional[Quiver]:
        """The quiver of ``graph``, computed on first use and kept out of the
        JSON; None for the degenerate closed-form record."""
        return None if self.graph is None else quiver_of(self.graph)

    @property
    def key_str(self) -> str:
        return "|".join(partition_str(p) for p in self.key)

    def to_json(self) -> dict:
        return {
            "key": [partition_str(p) for p in self.key],
            "path": [[partition_str(a), partition_str(b)] for a, b in self.path],
            "parent": None if self.parent is None else [partition_str(p) for p in self.parent],
            "graph": None if self.graph is None else self.graph.to_json(),
            "vertices": [[frac_str(x) for x in v] for v in self.vertices],
            "lattice": [list(p) for p in self.lattice],
            "integral": self.integral,
            "nonintegral_vertices": [[frac_str(x) for x in v] for v in self.nonintegral_vertices],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClassRecord":
        """Read a record back, refusing one with a missing field or with an
        integrality verdict or fractional vertices other than its vertices'."""
        _require(doc, _RECORD_FIELDS, f"class record {doc.get('key', '?')}")
        if not isinstance(doc["integral"], bool):
            raise ValueError(f"class {doc['key']}: integral is {doc['integral']!r}, not a boolean")
        rec = cls(
            key=tuple(parse_partition(s) for s in doc["key"]),
            graph=None if doc["graph"] is None else PlabicGraph.from_json(doc["graph"]),
            path=tuple((parse_partition(a), parse_partition(b)) for a, b in doc["path"]),
            parent=None
            if doc["parent"] is None
            else tuple(parse_partition(s) for s in doc["parent"]),
            vertices=tuple(tuple(Fraction(x) for x in v) for v in doc["vertices"]),
            lattice=tuple(tuple(int(x) for x in p) for p in doc["lattice"]),
        )
        if doc["integral"] != rec.integral:
            raise ValueError(f"class {rec.key_str}: integral is {doc['integral']}, not its vertices' verdict")
        stored = tuple(tuple(Fraction(x) for x in v) for v in doc["nonintegral_vertices"])
        if stored != rec.nonintegral_vertices:
            raise ValueError(f"class {rec.key_str}: nonintegral_vertices are not its fractional vertices")
        return rec


@dataclass
class CensusReport:
    shape: GridShape
    classes: tuple[ClassRecord, ...]
    seed: int
    elapsed: float

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def integral_count(self) -> int:
        return sum(1 for c in self.classes if c.integral)

    @property
    def nonintegral_count(self) -> int:
        return self.class_count - self.integral_count

    @cached_property
    def _by_key(self) -> dict[tuple[Partition, ...], ClassRecord]:
        return {c.key: c for c in self.classes}

    def record(self, key: tuple[Partition, ...]) -> ClassRecord:
        return self._by_key[key]

    def to_json(self) -> dict:
        return {
            "schema": CENSUS_SCHEMA,
            "k": self.shape.k,
            "n": self.shape.n,
            "seed": self.seed,
            "elapsed_seconds": round(self.elapsed, 3),
            "class_count": self.class_count,
            "integral_count": self.integral_count,
            "nonintegral_count": self.nonintegral_count,
            "classes": [c.to_json() for c in self.classes],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CensusReport":
        """Read a census back, refusing one that ``census`` could not have
        written: a key that is not its graph's face-label set, a repeated
        key, or a parent that names no class.  Checking the keys builds
        every record's chart."""
        if doc.get("schema") != CENSUS_SCHEMA:
            raise ValueError(f"unsupported census schema {doc.get('schema')!r}")
        _require(doc, _REPORT_FIELDS, "census")
        classes = tuple(ClassRecord.from_json(c) for c in doc["classes"])
        keys = set()
        for rec in classes:
            if rec.key in keys:
                raise ValueError(f"two classes share the key {rec.key_str}")
            keys.add(rec.key)
            if rec.chart is not None and class_key(rec.chart.labels) != rec.key:
                raise ValueError(f"class {rec.key_str}: the key is not its graph's face labels")
        for rec in classes:
            if rec.parent is not None and rec.parent not in keys:
                raise ValueError(f"class {rec.key_str}: its parent names no class")
        return cls(
            shape=GridShape(k=doc["k"], n=doc["n"]),
            classes=classes,
            seed=doc["seed"],
            elapsed=doc["elapsed_seconds"],
        )


def class_key(labels: Sequence[Partition]) -> tuple[Partition, ...]:
    return tuple(sorted((lab for lab in labels if lab), key=label_sort_key))


def rotate_key(key: Sequence[Partition], rho: Mapping[Partition, Partition]) -> tuple[Partition, ...]:
    """The key of the class that boundary rotation, given as the table
    ``rho`` (``cyclic_shift_table``), takes the class keyed ``key`` to.
    The empty label is on every chart and in no key: ρ moves one frozen
    label onto it and it onto another frozen label."""
    return class_key([rho[p] for p in (*key, ())])


def _pipeline(shape: GridShape, expansion: SuperpotentialExpansion) -> dict:
    P = gamma_qpolytope(expansion, standard_r_vec(shape, 1))
    return {"vertices": P.vertices, "lattice": lattice_points(P, 1), "polytope": P}


def _degenerate_census(shape: GridShape, seed: int, t0: float) -> CensusReport:
    # no disk picture below three marked points; the closed form still makes
    # sense and there is a single chart
    exp = rectangles_superpotential(shape)
    rec = ClassRecord(
        key=class_key(exp.labels), graph=None, path=(), parent=None, **_pipeline(shape, exp)
    )
    return CensusReport(shape, (rec,), seed, time.time() - t0)


def census(
    shape: GridShape,
    deep: bool = False,
    force: bool = False,
    seed: int = DEFAULT_SEED,
) -> CensusReport:
    """Breadth-first enumeration of all square-move classes with the full
    per-class polytope pipeline.

    ``deep`` admits shapes beyond 9 coordinates up to the hard guard of
    12; ``force`` lifts the hard guard as well.  Deterministic: frontier
    expansion is sorted, and the only randomness (the mod-p exchange check
    inside square moves) runs off the recorded seed.
    """
    ncoords = shape.k * shape.rows
    if ncoords > GUARD_COORDS and not force:
        raise CensusGuardError(
            f"{ncoords} coordinates exceeds the guard of {GUARD_COORDS}; pass force=True"
        )
    if ncoords > DEEP_COORDS and not deep:
        raise CensusGuardError(
            f"{ncoords} coordinates needs deep=True (guard is {DEEP_COORDS})"
        )
    t0 = time.time()
    if shape.n < 3:
        return _degenerate_census(shape, seed, t0)

    rng = random.Random(seed)
    G0 = build_rectangles(shape)
    chart0 = NetworkChart.of(G0)
    root = class_key(chart0.labels)

    records: dict[tuple, ClassRecord] = {}
    # the class graphs by value: a move that lands on one returns it
    known = {G0: G0}
    # each entry carries the parent's quiver mutated at the move, or None
    # at the root
    queue = deque([(root, G0, chart0, (), None, None)])
    seen = {root}
    while queue:
        key, G, chart, path, parent, expected = queue.popleft()
        rec = records[key] = ClassRecord(
            key=key,
            graph=G,
            path=path,
            parent=parent,
            **_pipeline(shape, marsh_scott_expansion(chart)),
        )
        # a mismatch would mean the square move and the quiver disagree
        if expected is not None and rec.quiver != expected:
            raise AssertionError(
                f"class {rec.key_str}: its quiver is not its parent's mutated at the move"
            )
        for nu in movable_faces(G):
            res = square_move(G, nu, rng, known)
            chart2 = NetworkChart.of(res.graph)
            key2 = class_key(chart2.labels)
            if key2 in seen:
                continue
            seen.add(key2)
            known[res.graph] = res.graph
            moved = rec.quiver.mutate(nu).relabel(nu, res.new_label)
            queue.append((key2, res.graph, chart2, path + ((nu, res.new_label),), key, moved))

    ordered = tuple(records[k] for k in sorted(records, key=lambda key: [label_sort_key(p) for p in key]))
    return CensusReport(shape, ordered, seed, time.time() - t0)


# ---------------------------------------------------------------------------
# degree-r scans and the binomial probe
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    r: int
    points: frozenset
    lattice: frozenset

    @property
    def contained(self) -> bool:
        return self.points <= self.lattice

    @property
    def missing(self) -> frozenset:
        return self.lattice - self.points


def degree_r_valuation_scan(chart: NetworkChart, r: int, polytope: QPolytope) -> ScanResult:
    """Valuations of all degree-r monomials in the homogeneous coordinates,
    normalized by the top one, against the lattice of the r-th dilation of
    the chart's degree-one ``polytope``.

    Valuations add across products (strongly minimal terms multiply), so
    the scan is a Minkowski sum of r copies of the degree-one valuation
    set.
    """
    vals = list(chart.min_valuations.values())
    points = set()
    for combo in combinations_with_replacement(vals, r):
        points.add(tuple(sum(col) for col in zip(*combo)))
    lattice = frozenset(lattice_points(polytope, r))
    return ScanResult(r, frozenset(points), lattice)


def plucker_binomial_valuation(
    chart: NetworkChart,
    positive: tuple[Partition, Partition],
    negative: tuple[Partition, Partition],
) -> tuple[int, ...]:
    """Valuation of P_a P_b - P_c P_d via its strongly minimal term.

    The products are expanded exactly in the chart variables first, so
    cancellation between the two monomials is taken into account; this is
    what makes the probe see deeper than the additive scan.
    """
    P = chart.plueckers
    a, b = positive
    c, d = negative
    poly = P[a] * P[b] - P[c] * P[d]
    term = poly.strongly_min_term()
    if term is None:
        raise RuntimeError("binomial has no strongly minimal term")
    exps, _ = term
    return tuple(exps)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class VerifyReport:
    shape: GridShape
    suite: str
    checks: list[CheckResult]
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [f"verify {self.shape.k},{self.shape.n} suite={self.suite}"]
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name} ({c.seconds:.3f}s)" + (f": {c.detail}" if c.detail else ""))
        lines.append(
            f"{'all checks passed' if self.ok else 'FAILURES PRESENT'}"
            f" ({len(self.checks)} checks, {self.elapsed:.1f}s)"
        )
        return "\n".join(lines)


def _record_polytope(c: ClassRecord) -> QPolytope:
    """The record's degree-one polytope.  A record read back from JSON
    carries none; it is then built from the record's chart and stored."""
    if c.polytope is None:
        c.polytope = gamma_qpolytope(marsh_scott_expansion(c.chart), standard_r_vec(c.chart.shape, 1))
    return c.polytope


def verify_core(
    shape: GridShape,
    suite: str = "core",
    deep: bool = False,
    seed: int = DEFAULT_SEED,
    report: Optional[CensusReport] = None,
) -> VerifyReport:
    """Cross-checks for one shape: closed-form valuations, census counts,
    per-class lattice data, and the non-integrality probes.

    The ``full`` suite adds the transport of valuations and lattice points
    along every search-tree move, degree-two scans, and every class's volume
    against the closed form, triangulating one class per rotation orbit and
    certifying the others by the rotation map (``_check_volumes``).
    """
    t0 = time.time()
    checks: list[CheckResult] = []
    if report is None:
        report = census(shape, deep=deep, seed=seed)
    clock = [time.perf_counter()]

    def check(name: str, ok: bool, detail: str = "") -> None:
        # a check is billed the time since the previous one was recorded
        clock.append(time.perf_counter())
        checks.append(CheckResult(name, bool(ok), detail, clock[-1] - clock[-2]))

    n, k = shape.n, shape.k
    binom = len(list(all_partitions(shape)))

    if (k, n) in EXPECTED_COUNTS:
        want = EXPECTED_COUNTS[(k, n)]
        got = (report.class_count, report.integral_count, report.nonintegral_count)
        check("census-counts", got == want, f"got {got}, expected {want}")
    else:
        check("census-counts", True, f"{report.class_count} classes (no pin)")

    root = next(c for c in report.classes if c.parent is None)
    chart0 = root.chart
    if chart0 is not None:
        closed_ok = all(
            v == maxdiag_valuation(lam, chart0.labels)
            for lam, v in chart0.min_valuations.items()
        )
        check("closed-form-valuations", closed_ok)
        if (k, n) == (3, 5):
            rows = set(chart0.min_valuations.values())
            check("golden-valuation-table", rows == G35_GOLDEN_ROWS)

    lattice_ok = all(len(c.lattice) == binom for c in report.classes)
    check("lattice-count-per-class", lattice_ok, f"expected {binom} per class")

    # integral coordinates as ints; a Fraction left in a vertex equals no lattice point
    vert_ok = all(
        not c.integral
        or set(c.lattice).issuperset(
            tuple(x.numerator if x.denominator == 1 else x for x in v) for v in c.vertices
        )
        for c in report.classes
    )
    check("integral-vertices-are-lattice-points", vert_ok)

    scan_ok = True
    scan_detail = ""
    for c in report.classes:
        if c.chart is None:
            continue
        scan = degree_r_valuation_scan(c.chart, 1, _record_polytope(c))
        if not (scan.contained and not scan.missing and len(scan.points) == binom):
            scan_ok = False
            scan_detail = f"class {c.key_str}"
            break
    check("degree-one-scan-is-onto", scan_ok, scan_detail)

    if report.nonintegral_count:
        probe_hits = 0
        single_ok = True
        for c in report.classes:
            if c.integral or c.chart is None:
                continue
            if len(c.nonintegral_vertices) != 1:
                single_ok = False
                continue
            w = c.nonintegral_vertices[0]
            doubled = tuple(int(2 * x) for x in w)
            scan = degree_r_valuation_scan(c.chart, 2, _record_polytope(c))
            if scan.missing == {doubled}:
                probe_hits += 1
        check(
            "nonintegral-vertex-unique",
            single_ok,
            "each non-integral class should expose exactly one fractional vertex",
        )
        check(
            "degree-two-scan-misses-only-the-doubled-vertex",
            probe_hits == report.nonintegral_count,
            f"{probe_hits}/{report.nonintegral_count} classes",
        )
        checks[-1].seconds = 0.0  # one loop decides both checks; the first is billed for it

    if suite == "full":
        transport_ok, transport_detail = _check_transport(shape, report)
        check("move-transport", transport_ok, transport_detail)
        if chart0 is not None:
            scan2 = degree_r_valuation_scan(chart0, 2, _record_polytope(root))
            check("rectangles-degree-two-scan-is-onto", scan2.contained and not scan2.missing)
            check("volume-formula-per-class", *_check_volumes(shape, report))

    return VerifyReport(shape, suite, checks, time.time() - t0)


def _check_volumes(shape: GridShape, report: CensusReport) -> tuple[bool, str]:
    """Every class's volume against the closed form, with one pulling
    triangulation per rotation orbit.

    The first class of each orbit in report order is triangulated.  The
    walk from it goes on to the rotated class while that class's integer
    vertices are exactly this one's carried by ``rotated_vertices``, an
    affine map with |det| = 1, so the rotated class has the same volume.
    The walk ends at a class already settled, at a rotated key that names
    no class, or at a failed certificate; a class it leaves unsettled is
    triangulated when the loop reaches it."""
    want = volume_formula(shape)
    rho = cyclic_shift_table(shape)
    settled = set()
    triangulated = 0
    for c in report.classes:
        if c.key in settled:
            continue
        P = _record_polytope(c)
        triangulated += 1
        if volume(P) != want:
            return False, f"class {c.key_str}"
        settled.add(c.key)
        while (nxt := report._by_key.get(rotate_key(c.key, rho))) is not None and nxt.key not in settled:
            Q = _record_polytope(nxt)
            L, ints = Q.integer_vertices
            if L != P.integer_vertices[0] or set(ints) != set(rotated_vertices(P, rho, nxt.chart)):
                break
            settled.add(nxt.key)
            c, P = nxt, Q
    return True, f"{triangulated} triangulated, {len(settled) - triangulated} by rotation"


def _check_transport(shape: GridShape, report: CensusReport) -> tuple[bool, str]:
    """Replay every BFS tree edge and push valuations and lattice points
    through the piecewise-linear mutation, in integers."""
    if shape.n < 3:
        return True, "no moves"
    for c in report.classes:
        if c.parent is None:
            continue
        parent = report.record(c.parent)
        nu, new_label = c.path[-1]
        chartA, chartB = parent.chart, c.chart
        move = TropMutation.of(parent.quiver, nu, chartA.labels, new_label)
        if move.new_coords != chartB.labels:
            return False, f"label mismatch at {c.key_str}"
        for variant, valsA, valsB in (
            ("min", chartA.min_valuations, chartB.min_valuations),
            ("max", chartA.max_valuations, chartB.max_valuations),
        ):
            if any(move(v, variant) != valsB[lam] for lam, v in valsA.items()):
                return False, f"{variant}-valuation transport at {c.key_str}"
        if {move(p) for p in parent.lattice} != set(c.lattice):
            return False, f"lattice transport at {c.key_str}"
    return True, ""
