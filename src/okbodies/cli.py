"""Command line interface: ``okbodies census|polytope|valuations|verify``.

Exit status 0 means success, 1 that a verify check failed, 2 that the
request was refused (size guard, unknown class, malformed weight), 3 that
an internal invariant broke (an ``AssertionError`` from the package, a
bug rather than a bad request), and 141 that standard output was closed
early (``| head``), as after SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .census import (
    DEFAULT_SEED,
    CensusReport,
    ClassRecord,
    census,
    class_key,
    verify_core,
)
from .charts import NetworkChart, maxdiag_valuation
from .mirror import (
    gamma_polytope,
    gamma_system,
    marsh_scott_expansion,
    rectangles_superpotential,
    standard_r_vec,
    trop_system_to_json,
)
from .partitions import (
    GridShape,
    Partition,
    all_partitions,
    label_sort_key,
    parse_partition,
    partition_str,
    rectangles,
)
from .plabic import build_rectangles
from .polyhedra import lattice_points, qpolytope


def _resolve_class(report: CensusReport, key: str) -> ClassRecord:
    """The class named by a census index or a key string; ValueError if
    there is no such class."""
    try:
        idx = int(key)
    except ValueError:
        wanted = class_key([parse_partition(s) for s in key.split("|")])
        try:
            return report.record(wanted)
        except KeyError:
            named = "|".join(partition_str(p) for p in wanted)
            raise ValueError(f"no class has the key {named}") from None
    if not 0 <= idx < report.class_count:
        raise ValueError(f"class index {idx} is outside 0..{report.class_count - 1}")
    return report.classes[idx]


def _valuation_text(labels: Sequence[Partition], rows: dict[Partition, tuple[int, ...]]) -> str:
    head = ["P"] + [partition_str(c) for c in labels]
    body = [
        [partition_str(lam)] + [str(e) for e in rows[lam]]
        for lam in sorted(rows, key=label_sort_key)
    ]
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    lines = ["  ".join(s.rjust(w) for s, w in zip(r, widths)) for r in [head] + body]
    return "\n".join(lines)


def _cmd_census(args) -> int:
    shape = GridShape(k=args.k, n=args.n)
    report = census(shape, deep=args.deep, force=args.force, seed=args.seed)
    # the JSON goes to disk before the listing, so a reader that closes the
    # pipe early (``| head``) cannot cost the run its output file
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json(), fh, indent=1)
    print(
        f"shape ({shape.k},{shape.n}): {report.class_count} classes, "
        f"{report.integral_count} integral, {report.nonintegral_count} non-integral "
        f"({report.elapsed:.1f}s, seed {report.seed})"
    )
    for t, c in enumerate(report.classes):
        flag = "integral" if c.integral else "NON-INTEGRAL"
        print(f"  [{t:3d}] {c.key_str}  vertices={len(c.vertices)}  {flag}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _class_chart(shape: GridShape, cls: str, deep: bool, seed: int) -> Optional[NetworkChart]:
    """Network chart of the class named ``cls``; None means the degenerate
    closed-form chart.  The rectangles class skips the census."""
    if shape.n < 3:
        return None
    if cls in ("rec", "rectangles"):
        return NetworkChart.of(build_rectangles(shape))
    report = census(shape, deep=deep, seed=seed)
    return _resolve_class(report, cls).chart


def _cmd_polytope(args) -> int:
    shape = GridShape(k=args.k, n=args.n)
    chart = _class_chart(shape, args.cls, args.deep, args.seed)
    if chart is not None:
        expansion = marsh_scott_expansion(chart)
    else:
        expansion = rectangles_superpotential(shape)
    if args.rvec:
        try:
            r_vec = tuple(Fraction(s) for s in args.rvec.split(","))
        except (ValueError, ZeroDivisionError):
            print("refused: malformed rvec", file=sys.stderr)
            return 2
        if len(r_vec) != shape.n:
            print(f"refused: rvec needs {shape.n} entries", file=sys.stderr)
            return 2
    else:
        try:
            r_vec = standard_r_vec(shape, Fraction(args.r))
        except (ValueError, ZeroDivisionError):
            print(f"refused: malformed dilation {args.r!r}", file=sys.stderr)
            return 2
    system = gamma_system(expansion, r_vec)
    P = qpolytope(gamma_polytope(system))
    doc = P.to_json()
    doc["lattice"] = [list(p) for p in lattice_points(P, 1)]
    doc["trop_system"] = trop_system_to_json(system)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_valuations(args) -> int:
    shape = GridShape(k=args.k, n=args.n)
    chart = _class_chart(shape, args.cls, args.deep, args.seed)
    if chart is None:
        labels = rectangles(shape)
        rows = {lam: maxdiag_valuation(lam, labels) for lam in all_partitions(shape)}
    else:
        labels = chart.labels
        rows = chart.max_valuations if args.use_max else chart.min_valuations
    print(_valuation_text(labels, rows))
    if args.out:
        doc = {
            "schema": "okbodies.valuations/1",
            "k": shape.k,
            "n": shape.n,
            "class": "|".join(partition_str(p) for p in class_key(labels)),
            "variant": "max" if args.use_max else "min",
            "coords": [partition_str(c) for c in labels],
            "rows": {
                partition_str(lam): list(rows[lam])
                for lam in sorted(rows, key=label_sort_key)
            },
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    shape = GridShape(k=args.k, n=args.n)
    rep = verify_core(shape, suite=args.suite, deep=args.deep, seed=args.seed)
    print(rep.render())
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okbodies",
        description="plabic chart census and superpotential polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--deep", action="store_true", help="admit larger shapes")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("census", help="enumerate square-move classes")
    common(p)
    p.add_argument("--force", action="store_true", help="lift the hard size guard")
    p.add_argument("--out", help="write the census JSON here")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("polytope", help="emit one class polytope as JSON")
    common(p)
    p.add_argument("--class", dest="cls", default="rec", help="class index, key, or 'rec'")
    p.add_argument("--r", default="1", help="dilation of the standard weight")
    p.add_argument("--rvec", help="comma-separated rationals, one per boundary slot")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_polytope)

    p = sub.add_parser("valuations", help="print a class valuation table")
    common(p)
    p.add_argument("--class", dest="cls", default="rec")
    p.add_argument("--max", dest="use_max", action="store_true", help="highest-term variant")
    p.add_argument("--out", help="also write the table as JSON")
    p.set_defaults(fn=_cmd_valuations)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--suite", choices=("core", "full"), default="core")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except ValueError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # cannot raise again (the recipe in the docs of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status
