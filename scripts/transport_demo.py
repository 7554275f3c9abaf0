"""Walk a random sequence of square moves and push the degree-one polytope
along tropically, checking each step against the polytope computed from
scratch in the new chart.

The piecewise-linear transport bends the polytope at one hyperplane per
move; vertex counts before and after each step show how little the
combinatorics moves even when the chart changes a lot.
"""

import argparse
import random
import sys

from okbodies.census import class_key
from okbodies.charts import NetworkChart
from okbodies.mirror import (
    gamma_qpolytope,
    marsh_scott_expansion,
    relabel_polytope,
    standard_r_vec,
    trop_mutate_polytope,
)
from okbodies.partitions import GridShape, partition_str
from okbodies.plabic import build_rectangles, movable_faces, quiver_of, square_move
from okbodies.polyhedra import lattice_points, same_vertex_set, volume


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    shape = GridShape(k=args.k, n=args.n)
    rng = random.Random(args.seed)
    G = build_rectangles(shape)
    chart = NetworkChart.of(G)
    P = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(shape, 1))
    print(f"start at rectangles: {len(P.vertices)} vertices, volume {volume(P)}")

    for step in range(args.steps):
        nu = rng.choice(sorted(movable_faces(G)))
        quiver = quiver_of(G)
        res = square_move(G, nu, rng)
        moved = relabel_polytope(trop_mutate_polytope(P, quiver, nu), nu, res.new_label)
        G = res.graph
        chart = NetworkChart.of(G)
        fresh = gamma_qpolytope(marsh_scott_expansion(chart), standard_r_vec(shape, 1))
        agree = same_vertex_set(moved, fresh)
        print(
            f"step {step + 1}: mutate {partition_str(nu)} -> {partition_str(res.new_label)}"
            f"  vertices {len(fresh.vertices)}  lattice {len(lattice_points(fresh, 1))}"
            f"  transport {'agrees' if agree else 'DISAGREES'}"
        )
        if not agree:
            return 1
        P = fresh
    print("class after walk:", "|".join(partition_str(p) for p in class_key(chart.labels)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
