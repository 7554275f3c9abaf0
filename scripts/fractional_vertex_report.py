"""Inspect the square-move classes whose degree-one polytope has a
non-integral vertex, and probe where the fractional vertex comes from.

For each such class this prints the fractional vertex, the gap between the
second dilation's lattice points and the degree-two monomial valuations,
and (on the 3x3 grid) the quadratic binomial whose valuation halves onto
the vertex.
"""

import argparse
import sys

from okbodies.census import census, degree_r_valuation_scan, plucker_binomial_valuation
from okbodies.partitions import GridShape, partition_str
from okbodies.polyhedra import frac_str

# lowest term of (P_{124} P_{356} - P_{123} P_{456}) / P_max^2 on the 3x3
# grid; the products cancel exactly where the additive scan is blind
BINOMIAL = (((3, 3, 2), (1,)), ((3, 3, 3), ()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--deep", action="store_true")
    args = ap.parse_args(argv)

    shape = GridShape(k=args.k, n=args.n)
    report = census(shape, deep=args.deep)
    bad = [c for c in report.classes if not c.integral]
    print(
        f"({shape.k},{shape.n}): {report.class_count} classes, "
        f"{len(bad)} with a fractional vertex"
    )
    for c in bad:
        chart = c.chart
        print(f"\nclass {c.key_str}")
        print("  coords  :", "  ".join(partition_str(p) for p in chart.labels))
        for w in c.nonintegral_vertices:
            print("  vertex  :", "  ".join(frac_str(x) for x in w))
        scan = degree_r_valuation_scan(chart, 2, c.polytope)
        print(
            f"  degree-2 scan: {len(scan.points)} monomial valuations, "
            f"{len(scan.lattice)} lattice points, missing {sorted(scan.missing)}"
        )
        if (shape.k, shape.n) == (3, 6) and c is bad[0]:
            val = plucker_binomial_valuation(chart, *BINOMIAL)
            print(f"  binomial valuation: {val}  (half of it is the vertex)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
