"""One benchmark process: set up one workload, then time its iterations.

Started by ``bench/run.py``, once per set-up sample and once for the
measured run, so that set-up time and peak memory belong to one workload.
Prints one JSON object on standard output.

``--t0`` is the wall-clock time at which the parent started this process;
set-up time runs from there until the workload's set-up is done, so it
covers interpreter start, the import of okbodies and the workload's
generated inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def is_traced(i: int) -> bool:
    """Traced iterations in the order untraced, traced, traced, untraced,
    ..., so that neither side always gets the first or the later
    iterations."""
    return i % 4 in (1, 2)


def _layer_checks(workload, metrics: dict, first: dict | None) -> dict[str, bool]:
    """Exact call counts against the values derived from the workload's
    structure, and every count identical to the first traced iteration's."""
    results = {
        f"calls:{layer}": metrics[f"{layer}.calls"] == want
        for layer, want in workload.expected_calls.items()
    }
    if first is not None:
        exact = [m for m in metrics if not m.endswith(".s")]
        results["counts-repeat"] = all(metrics[m] == first[m] for m in exact)
    return results


def measure(workload, state, seconds: float, tracer=None) -> dict:
    """Run iterations back to back in one thread (a closed loop with one
    client).  No iteration starts once the elapsed time plus half the
    median iteration so far passes ``seconds``, so a run ends on average
    near ``seconds``.  With a tracer, iterations alternate untraced and
    traced (see ``is_traced``) and at least one of each runs.

    Every iteration's output is checked outside the timed region.  An
    iteration that raises keeps its time and fails all of its checks.
    """
    wall: list[float] = []
    traced_wall: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    begin = time.perf_counter()
    i = 0
    while True:
        item = workload.prepare(state)
        traced = tracer is not None and is_traced(i)
        if traced:
            tracer.iteration = i
            tracer.install()
        out = error = None
        t = time.perf_counter()
        try:
            out = workload.run(state, item)
        except Exception:
            error = traceback.format_exc()
        finally:
            dt = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        (traced_wall if traced else wall).append(dt)

        if error is None:
            results = workload.check(state, out)
        else:
            print(f"iteration {i} raised:\n{error}", file=sys.stderr)
            results = {}
        results = {name: results.get(name, False) for name in workload.check_names}
        if traced and error is None:
            totals = tracing.layer_totals(tracer.spans).get(i, {})
            metrics = tracing.layer_metrics(totals, workload.classes(out))
            results.update(_layer_checks(workload, metrics, layers[0] if layers else None))
            layers.append(metrics)
        attempted += len(results)
        bad = [name for name, ok in results.items() if not ok]
        failed += len(bad)
        failures += [f"iteration {i}: {name}" for name in bad]

        i += 1
        elapsed = time.perf_counter() - begin
        enough = bool(wall) and (tracer is None or bool(traced_wall))
        if enough and elapsed + median(wall + traced_wall) / 2 > seconds:
            break

    result = {
        "wall_s": wall,
        "traced_wall_s": traced_wall,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if tracer is not None and layers:
        # exact counts are checked equal across iterations; times vary
        result["layers"] = {
            m: median([row[m] for row in layers]) if m.endswith(".s") else v
            for m, v in layers[0].items()
        }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    result = measure(workload, state, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
