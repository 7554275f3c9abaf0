"""okbodies benchmark: one workload per call, metrics printed by name.

    python3 bench/run.py --workload census-g36 --seed 7 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads (see ``bench/NOTES.md``):

  census-g36     one full census of the 3x3 grid, GridShape(3, 6), per iteration
  transport-g36  a 6-step square-move walk with tropical polytope transport
  verify-g36     verify_core(suite="full") on a census built during set-up

With ``--trace 0`` the result holds the end-to-end metrics ``wall_s``
(median seconds per iteration), ``setup_s`` (median over several fresh
set-up processes) and ``peak_rss_mb``.  With ``--trace 1`` it holds the
per-layer metrics of ``bench/tracing.py`` and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the ratio of output checks that failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import fail_ratio, quartiles
from tracing import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# fresh processes timed for setup_s in an untraced run; fewer where set-up
# itself builds a census
SETUP_SAMPLES = {"census-g36": 7, "transport-g36": 5, "verify-g36": 3}
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker passed the time limit of {TIME_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"  {name:<12} median {q2:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "okbodies" / "__init__.py").is_file():
        print(f"error: no okbodies package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.workload] - 1):
                setups.append(_child(args, deadline, setup_only=True)["setup_s"])
        res = _child(args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setups.append(res["setup_s"])

    ratio = fail_ratio(res["failed"], res["attempted"])
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        wall = res["traced_wall_s"]
        untraced = res["wall_s"]
        overhead = median(wall) - median(untraced)
        metrics = dict(res.get("layers", {}))
        metrics["trace.wall_s"] = median(wall)
        metrics["trace.overhead_s"] = overhead
        print(_spread("traced", wall, "s"))
        print(_spread("untraced", untraced, "s"))
        print(f"  tracing overhead {overhead:.4f} s per iteration")
        units = {m: metric_unit(m) for m in metrics}
    else:
        wall = res["wall_s"]
        metrics = {
            "wall_s": median(wall),
            "setup_s": median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(_spread("wall_s", wall, "s"))
        print(_spread("setup_s", setups, "s"))
        print(f"  {'peak_rss_mb':<12} {res['peak_rss_mb']:.1f} MB")
    print(f"  {'fail_ratio':<12} {ratio:g} ({res['failed']} of {res['attempted']} checks failed)")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
