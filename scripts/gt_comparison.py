"""Compare the rectangles-chart polytope with the interlacing-triangle
(Gelfand-Tsetlin) polytope under the unimodular change of coordinates.

For each dilation this checks that the transported polytope, the hull of
the images of the vertices, equals the interlacing polytope (the same
vertex set), and that lattice point counts agree with the closed-form
pattern count.
"""

import argparse
import sys

from okbodies.mirror import gamma_qpolytope, rectangles_superpotential, standard_r_vec
from okbodies.partitions import GridShape
from okbodies.polyhedra import (
    gt_pattern_count,
    gt_polytope,
    gt_transform_polytope,
    lattice_points,
    qpolytope,
    same_vertex_set,
    volume,
    volume_formula,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--rmax", type=int, default=3)
    args = ap.parse_args(argv)

    shape = GridShape(k=args.k, n=args.n)
    exp = rectangles_superpotential(shape)
    print(f"shape ({shape.k},{shape.n}), volume formula {volume_formula(shape)}")
    for r in range(1, args.rmax + 1):
        P = gamma_qpolytope(exp, standard_r_vec(shape, r))
        F = gt_transform_polytope(P, shape)
        T = qpolytope(gt_polytope(shape, r))
        match = same_vertex_set(F, T)
        npts = len(lattice_points(P, 1))
        count = gt_pattern_count(shape, r)
        vol = volume(P)
        print(
            f"  r={r}: facets match {match}, lattice {npts} vs pattern count {count},"
            f" volume {vol}"
        )
        if not match or npts != count:
            return 1
        if r == 1 and vol != volume_formula(shape):
            return 1
    # facet count at the last dilation, for the record: the transported
    # hull's facets are those of P, moved by the linear map
    print(f"  facets: {len(F.hrep.ineqs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
