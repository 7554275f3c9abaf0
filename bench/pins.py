"""Expected outputs of the benchmark workloads, pinned in ``pins.json``.

``pins.json`` was written by this file at the commit that introduced the
benchmark, before any optimisation.  A change that makes a workload
compute different classes, vertices or lattice points fails the
benchmark's checks.  Regenerate only when that output is meant to
change, and say why:

    python3 bench/pins.py > bench/pins.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def census_digest(report) -> str:
    """SHA-256 over every class's key, sorted vertex set and sorted
    lattice set, classes in key order; vertex coordinates as exact
    ``p/q`` strings."""
    doc = sorted(
        (
            c.key_str,
            sorted([str(x) for x in v] for v in c.vertices),
            sorted(list(p) for p in c.lattice),
        )
        for c in report.classes
    )
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


@functools.cache
def load() -> dict:
    with open(HERE / "pins.json") as fh:
        return json.load(fh)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from okbodies.census import census

    import workloads

    report = census(workloads.SHAPE, seed=workloads.DEFAULT_SEED)
    start = workloads.TRANSPORT.setup(workloads.DEFAULT_SEED)
    _, final_key = workloads.transport_walk(start, start.polytope)
    doc = {
        "census_digest": census_digest(report),
        "class_keys": [c.key_str for c in report.classes],
        "transport_final_key": final_key,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
