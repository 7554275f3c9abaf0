"""Audit a census run with two certificates that do not rely on the
vertex enumeration used to produce it.

First, the boundary rotation permutes the classes; integrality is a
rotation invariant because rotation carries each class's polytope onto
the rotated class's by a unimodular linear map followed by a translation
by an integer vector (``okbodies.mirror.rotated_vertices``).  The audit computes the orbit structure,
checks that the class set is closed, that no orbit mixes verdicts, and
reports the divisibility constraint this imposes on the counts.

Second, for every class the audit re-derives all half-integral vertices
from the facet description alone: exact simplex bounds give a safe box
(the d maxima on one tableau and the d minima on another, each program
starting where the one before it ended), the second dilation's lattice
points are swept inside it, and a point counts as a vertex when its tight
rows have full rank.  The result is compared against the recorded
fractional vertex list per class.

    okbodies census --k 3 --n 7 --deep --out g37.json
    python3 scripts/deep_census_audit.py g37.json
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from math import lcm
from operator import mul

from okbodies.census import CensusReport, rotate_key
from okbodies.mirror import gamma_polytope, gamma_system, marsh_scott_expansion, standard_r_vec
from okbodies.partitions import cyclic_shift_table


def slack_tableau(rows):
    """The simplex tableau of {x : a.x + b >= 0 for (a, b) in rows} at the
    slack basis, and that basis.

    Free coordinates are split as x = u - w over nonnegative variables
    (u_1..u_d, w_1..w_d, s_1..s_m), and row i reads s_i = b_i + sum_j
    a_ij (u_j - w_j), its last entry the right-hand side.  The origin is
    feasible for every system audited here (all b >= 0), which the function
    asserts, so the slack basis is feasible.
    """
    m = len(rows)
    d = len(rows[0][0])
    assert all(b >= 0 for _, b in rows), "origin must be feasible"
    nv = 2 * d + m
    T = []
    for i, (a, b) in enumerate(rows):
        row = [Fraction(0)] * (nv + 1)
        for j in range(d):
            row[j] = -Fraction(a[j])
            row[d + j] = Fraction(a[j])
        row[2 * d + i] = Fraction(1)
        row[nv] = Fraction(b)
        T.append(row)
    return T, list(range(2 * d, nv))


def maximize(T, basis, c):
    """Exact max of c.x from the feasible ``basis`` of the tableau ``T``,
    pivoting both in place; None if unbounded.

    The objective row is priced out on the basis first, so any feasible
    basis is a start, and every basis a pivot reaches stays feasible: the
    ratio test keeps the right-hand side nonnegative.  Bland's rule
    guarantees termination.
    """
    d = len(c)
    nv = len(T[0]) - 1
    z = [Fraction(0)] * (nv + 1)
    for j in range(d):
        z[j] = -Fraction(c[j])
        z[d + j] = Fraction(c[j])
    for i, j in enumerate(basis):
        if z[j]:
            f = z[j]
            z = [x - f * y if y else x for x, y in zip(z, T[i])]
    m = len(T)
    while True:
        enter = next((j for j in range(nv) if z[j] < 0), None)
        if enter is None:
            return z[nv]
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][nv] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return None
        _, piv = best
        pr = T[piv]
        inv = Fraction(1) / pr[enter]
        T[piv] = [x * inv if x else x for x in pr]
        for i in range(m):
            if i != piv and T[i][enter]:
                f = T[i][enter]
                T[i] = [x - f * y if y else x for x, y in zip(T[i], T[piv])]
        if z[enter]:
            f = z[enter]
            z = [x - f * y if y else x for x, y in zip(z, T[piv])]
        basis[piv] = enter


def coordinate_box(rows, d):
    """The least and the greatest value of each coordinate over the system.

    The d maxima share one tableau and the d minima another: each program
    starts from the basis the one before it ended on, which is feasible for
    every objective, so only its objective row is priced anew.  Programs in
    one direction end on nearby vertices; alternating the directions on
    one tableau would walk across the polytope between any two of them.
    """
    bounds = []
    for sign in (1, -1):
        T, basis = slack_tableau(rows)
        bounds.append([maximize(T, basis, [sign * (i == j) for i in range(d)]) for j in range(d)])
    hi, neg_lo = bounds
    if None in hi or None in neg_lo:
        raise ValueError("polytope is unbounded")
    return [-x for x in neg_lo], hi


def integer_rows(rows):
    """Each row (a, b) of a.x + b >= 0 times the least common denominator
    of its entries: integer rows with the same solutions."""
    out = []
    for a, b in rows:
        a, b = [Fraction(x) for x in a], Fraction(b)
        L = lcm(b.denominator, *(x.denominator for x in a))
        out.append(([int(x * L) for x in a], int(b * L)))
    return out


def lattice_sweep(rows, lo, hi):
    """Integer points of {x : a.x + b >= 0} inside the box [lo, hi], in
    lexicographic order.

    The rows are scaled to integers.  The sweep fixes the coordinates one at
    a time from an explicit stack: with the earlier ones fixed, every row
    bounds the next coordinate to an integer interval, given the most the
    later coordinates can add to it inside the box, and only the values in
    that interval are pushed.  Coordinate j is bounded by the rows that
    column j moves alone, and only their partial sums change with it.  A
    row that column j leaves alone cannot fail at j: its partial sum and
    slack are those it had where it was last moved, and the value chosen
    there kept it satisfiable.  Only the root has no earlier choice, so it
    tests the rows that column 0 leaves alone before it branches."""
    d = len(lo)
    lo_i = [-(-x.numerator // x.denominator) for x in map(Fraction, lo)]
    hi_i = [x.numerator // x.denominator for x in map(Fraction, hi)]
    scaled = integer_rows(rows)
    if not d:
        return [()] if all(b >= 0 for _, b in scaled) else []
    # moves[j]: (t, a_t[j], the most the coordinates after j can add to row
    # t in the box) for each row t that column j moves
    slack = [0] * len(scaled)
    moves = [[] for _ in range(d)]
    for j in range(d - 1, -1, -1):
        for t, (a, _) in enumerate(scaled):
            if a[j]:
                moves[j].append((t, a[j], slack[t]))
                slack[t] += max(a[j] * lo_i[j], a[j] * hi_i[j])
    partial = [b for _, b in scaled]
    if any(p + s < 0 for (a, _), p, s in zip(scaled, partial, slack) if not a[0]):
        return []

    out = []
    stack = [((), partial)]
    while stack:
        prefix, partial = stack.pop()
        j = len(prefix)
        low, high = lo_i[j], hi_i[j]
        for t, a, s in moves[j]:
            s += partial[t]
            if a > 0:
                low = max(low, -(s // a))
            else:
                high = min(high, s // -a)
        if j + 1 == d:
            out.extend(prefix + (v,) for v in range(low, high + 1))
            continue
        # pushed in decreasing order, so the points come out sorted
        for v in range(high, low - 1, -1):
            q = partial.copy()
            for t, a, _ in moves[j]:
                q[t] += a * v
            stack.append((prefix + (v,), q))
    return out


def rank(mat):
    """Rank of a matrix by fraction-free elimination: each row below the
    pivot row becomes pivot * row - entry * pivot row, which keeps integer
    entries integer and changes no rank."""
    rows = [list(r) for r in mat]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [top[col] * x - f * y for x, y in zip(rows[i], top)]
        r += 1
    return r


def half_integral_vertices(rows, d):
    """All vertices with denominator two, from the facet description only:
    the points z/2 with z a lattice point of the doubled system, not all of
    its coordinates even, whose tight rows have rank d."""
    doubled = [(a, 2 * Fraction(b)) for a, b in rows]
    lo, hi = coordinate_box(doubled, d)
    scaled = integer_rows(doubled)
    found = []
    for z in lattice_sweep(doubled, lo, hi):
        if all(v % 2 == 0 for v in z):
            continue
        tight = [a for a, b in scaled if sum(map(mul, a, z)) + b == 0]
        if len(tight) >= d and rank(tight) == d:
            found.append(tuple(Fraction(v, 2) for v in z))
    return sorted(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("census_json")
    ap.add_argument("--skip-sweep", action="store_true", help="orbit analysis only")
    args = ap.parse_args(argv)

    with open(args.census_json) as fh:
        report = CensusReport.from_json(json.load(fh))
    shape = report.shape
    rho = cyclic_shift_table(shape)
    keys = {c.key: c for c in report.classes}
    print(
        f"({shape.k},{shape.n}): {report.class_count} classes, "
        f"{report.integral_count} integral, {report.nonintegral_count} fractional"
    )

    # ---- rotation orbits
    not_closed = [k for k in keys if rotate_key(k, rho) not in keys]
    print(f"closure under rotation: {'ok' if not not_closed else f'{len(not_closed)} MISSING'}")
    seen = set()
    hist = {}
    mixed = fixed = 0
    frac_orbits = []
    for k in keys:
        if k in seen:
            continue
        orb = [k]
        cur = rotate_key(k, rho)
        while cur != k:
            orb.append(cur)
            cur = rotate_key(cur, rho)
        seen.update(orb)
        hist[len(orb)] = hist.get(len(orb), 0) + 1
        flags = {keys[o].integral for o in orb}
        mixed += len(flags) > 1
        fixed += len(orb) == 1
        if flags == {False}:
            frac_orbits.append(len(orb))
    print(f"orbit sizes: {dict(sorted(hist.items()))}, fixed classes: {fixed}, mixed orbits: {mixed}")
    print(f"fractional orbits: {sorted(frac_orbits)} (sum {sum(frac_orbits)})")
    if fixed == 0 and len(hist) == 1:
        size = next(iter(hist))
        print(
            f"free rotation action: every rotation-invariant count is a multiple of {size};"
            f" {report.nonintegral_count} {'is' if report.nonintegral_count % size == 0 else 'IS NOT'} one"
        )
    ok = not not_closed and mixed == 0

    # ---- half-integral vertex sweep from the facet description
    if not args.skip_sweep:
        t0 = time.time()
        bad = 0
        for t, c in enumerate(report.classes):
            H = gamma_polytope(gamma_system(marsh_scott_expansion(c.chart), standard_r_vec(shape, 1)))
            swept = half_integral_vertices(H.ineqs, H.dim)
            if swept != sorted(c.nonintegral_vertices):
                bad += 1
                print(f"  MISMATCH at {c.key_str}: sweep {swept} vs recorded {sorted(c.nonintegral_vertices)}")
            if t % 40 == 0:
                print(f"  ... {t} classes swept ({time.time() - t0:.0f}s)", flush=True)
        print(
            f"half-integral sweep: {bad} mismatches over {report.class_count} classes"
            f" ({time.time() - t0:.0f}s)"
        )
        ok = ok and bad == 0

    print("audit:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
