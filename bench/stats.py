"""Order statistics and ratios used by the benchmark's reports."""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile).

    Uses ``statistics.quantiles(values, n=4)``, the default "exclusive"
    method, so that the spread printed here is the spread a reader
    computes the same way from the raw samples.  A single sample is its
    own quartiles.
    """
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed checks over attempted checks; a run that attempted nothing
    has no ratio and is an error, not a pass."""
    if attempted <= 0:
        raise ValueError("no checks were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted
