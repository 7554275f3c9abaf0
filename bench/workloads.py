"""The three benchmark workloads and the checks on their outputs.

Each workload has a set-up (paid once per process, timed as ``setup_s``),
a ``prepare`` step that builds one iteration's input outside the timed
region, the timed ``run``, and a ``check`` that turns the output into
named pass/fail results.  Package functions are called through their
modules (``plabic.square_move``), so that a traced iteration goes through
the wrappers that ``tracing.Tracer`` installs.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from okbodies import census as census_mod
from okbodies import charts, mirror, plabic, polyhedra
from okbodies.partitions import GridShape, partition_str

import pins

SHAPE = GridShape(3, 6)
# seed used while the benchmark was written; later claims are also shown on
# the hold-out seed 8, which no change may be tuned against
DEFAULT_SEED = 7
TRANSPORT_STEPS = 6

# (total, integral, nonintegral) classes of the 3x3 grid, and the one
# fractional vertex of its first non-integral class, stated over an
# explicit label order; both as pinned in tests/test_acceptance.py
G36_COUNTS = (34, 32, 2)
G1_KEY = "1,1|2|1,1,1|2,1|3|2,2,2|3,3|3,3,2|3,3,3"
G1_ORDER = ((3, 3, 3), (3, 3, 2), (2, 2, 2), (1, 1, 1), (3, 3), (2, 1), (1, 1), (3,), (2,))
G1_VERTEX = tuple(Fraction(x) for x in ("3/2", "3/2", "1", "1/2", "1", "1/2", "1/2", "1/2", "1/2"))

# the ten checks of verify_core(suite="full") on the 3x3 grid
VERIFY_CHECKS = (
    "census-counts",
    "closed-form-valuations",
    "lattice-count-per-class",
    "integral-vertices-are-lattice-points",
    "degree-one-scan-is-onto",
    "nonintegral-vertex-unique",
    "degree-two-scan-misses-only-the-doubled-vertex",
    "move-transport",
    "rectangles-degree-two-scan-is-onto",
    "volume-formula-per-class",
)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]  # seed -> state
    prepare: Callable[[Any], Any]  # state -> input of one iteration
    run: Callable[[Any, Any], Any]  # (state, input) -> output; the timed part
    check: Callable[[Any, Any], dict[str, bool]]  # (state, output) -> results
    check_names: tuple[str, ...]
    classes: Callable[[Any], int]  # output -> classes worked through
    expected_calls: dict[str, int]  # exact per-iteration span counts


# -- census-g36 --------------------------------------------------------------

def _census_check(state, report) -> dict[str, bool]:
    counts = (report.class_count, report.integral_count, report.nonintegral_count)
    g1 = [c for c in report.classes if c.key_str == G1_KEY]
    g1_ok = False
    if len(g1) == 1 and len(g1[0].nonintegral_vertices) == 1:
        by_label = dict(zip(g1[0].polytope.coords, g1[0].nonintegral_vertices[0]))
        g1_ok = set(by_label) == set(G1_ORDER) and tuple(by_label[mu] for mu in G1_ORDER) == G1_VERTEX
    return {
        "census-counts": counts == G36_COUNTS,
        "g1-fractional-vertex": g1_ok,
        "census-digest": pins.census_digest(report) == pins.load()["census_digest"],
    }


CENSUS = Workload(
    name="census-g36",
    setup=lambda seed: seed,
    prepare=lambda seed: None,
    run=lambda seed, _: census_mod.census(SHAPE, seed=seed),
    check=_census_check,
    check_names=("census-counts", "g1-fractional-vertex", "census-digest"),
    classes=lambda report: report.class_count,
    expected_calls={
        "polyhedra.enumerate_vertices": 34,
        "plabic.square_move": 120,
        "charts.NetworkChart.of": 121,
    },
)


# -- transport-g36 -----------------------------------------------------------

@dataclass(frozen=True)
class TransportStart:
    seed: int
    graph: Any
    polytope: Any
    volume: Fraction  # computed once in set-up, as the demo script prints it


def _transport_setup(seed: int) -> TransportStart:
    G = plabic.normalize(plabic.build_rectangles(SHAPE))
    chart = charts.NetworkChart.of(G)
    P = mirror.gamma_qpolytope(mirror.marsh_scott_expansion(chart), mirror.standard_r_vec(SHAPE, 1))
    return TransportStart(seed, G, P, polyhedra.volume(P))


def transport_walk(start: TransportStart, P) -> tuple[list[bool], str]:
    """The walk of scripts/transport_demo.py: at each step a random square
    move, the polytope pushed along tropically and compared with the one
    computed from scratch in the new chart.  Returns the per-step
    agreement and the key of the class the walk ends in."""
    rng = random.Random(start.seed)
    G = start.graph
    agree = []
    for _ in range(TRANSPORT_STEPS):
        nu = rng.choice(sorted(plabic.movable_faces(G)))
        quiver = plabic.quiver_of(G)
        res = plabic.square_move(G, nu, rng)
        moved = mirror.relabel_polytope(mirror.trop_mutate_polytope(P, quiver, nu), nu, res.new_label)
        G = res.graph
        chart = charts.NetworkChart.of(G)
        fresh = mirror.gamma_qpolytope(mirror.marsh_scott_expansion(chart), mirror.standard_r_vec(SHAPE, 1))
        agree.append(polyhedra.same_vertex_set(moved, fresh))
        P = fresh
    key = "|".join(partition_str(p) for p in census_mod.class_key(chart.labels))
    return agree, key


def _transport_check(start: TransportStart, out) -> dict[str, bool]:
    agree, key = out
    results = {f"transport-step-{t + 1}": ok for t, ok in enumerate(agree)}
    pinned = pins.load()
    if start.seed == DEFAULT_SEED:
        results["final-class"] = key == pinned["transport_final_key"]
    else:
        results["final-class"] = key in pinned["class_keys"]
    return results


TRANSPORT = Workload(
    name="transport-g36",
    setup=_transport_setup,
    prepare=lambda start: polyhedra.QPolytope(start.polytope.hrep, start.polytope.vertices),
    run=transport_walk,
    check=_transport_check,
    check_names=tuple(f"transport-step-{t + 1}" for t in range(TRANSPORT_STEPS)) + ("final-class",),
    classes=lambda out: TRANSPORT_STEPS,
    expected_calls={"polyhedra.enumerate_vertices": 5 * TRANSPORT_STEPS},
)


# -- verify-g36 --------------------------------------------------------------

@dataclass(frozen=True)
class VerifyState:
    seed: int
    report: Any


def _fresh_report(state: VerifyState):
    """The set-up census with new polytope objects, so that no lattice
    points cached by an earlier iteration are reused."""
    classes = tuple(
        dataclasses.replace(c, polytope=polyhedra.QPolytope(c.polytope.hrep, c.polytope.vertices))
        for c in state.report.classes
    )
    return dataclasses.replace(state.report, classes=classes)


def _verify_check(state: VerifyState, rep) -> dict[str, bool]:
    by_name = {c.name: c.ok for c in rep.checks}
    results = {name: by_name.get(name, False) for name in VERIFY_CHECKS}
    results["verify-ok"] = rep.ok and len(rep.checks) == len(VERIFY_CHECKS)
    return results


VERIFY = Workload(
    name="verify-g36",
    setup=lambda seed: VerifyState(seed, census_mod.census(SHAPE, seed=seed)),
    prepare=_fresh_report,
    run=lambda state, report: census_mod.verify_core(SHAPE, suite="full", seed=state.seed, report=report),
    check=_verify_check,
    check_names=VERIFY_CHECKS + ("verify-ok",),
    classes=lambda rep: G36_COUNTS[0],
    expected_calls={"polyhedra.enumerate_vertices": 0},
)

WORKLOADS = {w.name: w for w in (CENSUS, TRANSPORT, VERIFY)}
