"""Partitions in a rectangle, border paths, and diagonal statistics.

Throughout, a partition is a tuple of weakly decreasing positive integers
(the empty tuple for the empty partition) drawn inside the (n-k) x k
rectangle attached to Gr(n-k, C^n).  The border path of such a partition,
walked from the northeast corner of the rectangle to the southwest corner
in n unit steps, identifies partitions with (n-k)-element subsets of
{1, ..., n} (the south steps) and simultaneously with k-element subsets
(the west steps).  Both directions of that dictionary live here, together
with the diagonal statistics MaxDiag and Diag0 and the cyclic shift on
border words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

Partition = tuple[int, ...]


@dataclass(frozen=True, order=True)
class GridShape:
    """The pair (k, n) of Gr(n-k, C^n); partitions live in an (n-k) x k box.

    Attributes
    ----------
    k : int
        Number of columns of the box (equivalently, size of the west-step
        subsets).
    n : int
        Ambient dimension; the box has n - k rows.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")

    @property
    def rows(self) -> int:
        return self.n - self.k

    @property
    def cols(self) -> int:
        return self.k

    @property
    def num_boxes(self) -> int:
        """Area of the box, usually called N."""
        return self.rows * self.cols

    def residue(self, x: int) -> int:
        """Representative of x in 1..n."""
        return (x - 1) % self.n + 1


def normalize_partition(parts: Iterable[int]) -> Partition:
    """Strip trailing zeros and validate weak decrease."""
    lam = tuple(int(p) for p in parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(p <= 0 for p in lam):
        raise ValueError(f"negative or misplaced zero part in {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must weakly decrease, got {lam}")
    return lam


def fits(lam: Partition, shape: GridShape) -> bool:
    return len(lam) <= shape.rows and (not lam or lam[0] <= shape.cols)


def _require_fits(lam: Partition, shape: GridShape) -> None:
    if not fits(lam, shape):
        raise ValueError(f"partition {lam} does not fit in {shape.rows} x {shape.cols}")


def partition_str(lam: Partition) -> str:
    """Compact text form: ``"3,2"`` for (3, 2) and ``"0"`` for the empty one."""
    return ",".join(str(p) for p in lam) if lam else "0"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("0", "", "()"):
        return ()
    return normalize_partition(int(p) for p in text.split(","))


def label_sort_key(lam: Partition) -> tuple[int, Partition]:
    """Canonical order on partition labels: by size, then lexicographic."""
    return (sum(lam), lam)


# ---------------------------------------------------------------------------
# border path dictionaries
# ---------------------------------------------------------------------------

def south_steps_to_partition(J: Iterable[int], shape: GridShape) -> Partition:
    """Partition whose border path has south steps exactly J.

    The border path starts at the northeast corner of the (n-k) x k box and
    ends at the southwest corner; its steps are numbered 1..n in walking
    order.  The i-th south step at position j leaves k + i - j west steps
    after it, which is the i-th part.

    Parameters
    ----------
    J : iterable of int
        An (n-k)-element subset of 1..n.
    shape : GridShape

    Raises
    ------
    ValueError
        If J is not an (n-k)-subset of 1..n.
    """
    steps = sorted(set(J))
    if len(steps) != shape.rows or any(not 1 <= j <= shape.n for j in steps):
        raise ValueError(f"J={steps} is not an {shape.rows}-subset of 1..{shape.n}")
    # strictly increasing steps in 1..n give weakly decreasing parts
    # between k and 0, so only the trailing zeros need to go
    return tuple(p for p in (shape.k + i + 1 - j for i, j in enumerate(steps)) if p)


def partition_to_south_steps(lam: Partition, shape: GridShape) -> frozenset[int]:
    """Inverse of :func:`south_steps_to_partition`."""
    _require_fits(lam, shape)
    padded = tuple(lam) + (0,) * (shape.rows - len(lam))
    return frozenset(shape.k + i + 1 - p for i, p in enumerate(padded))


def west_steps_to_partition(J: Iterable[int], shape: GridShape) -> Partition:
    """Partition whose border path has west steps exactly J (a k-subset)."""
    west = set(J)
    if len(west) != shape.k or any(not 1 <= j <= shape.n for j in west):
        raise ValueError(f"J={sorted(west)} is not a {shape.k}-subset of 1..{shape.n}")
    return south_steps_to_partition(set(range(1, shape.n + 1)) - west, shape)


@cache
def south_mask_tables(shape: GridShape) -> tuple[Mapping[int, Partition], Mapping[Partition, int]]:
    """Every partition in the box keyed by its south steps as an n-bit mask,
    bit j - 1 for step j, and the inverse table, both in the order of
    ``all_partitions``; built once per shape and shared read-only."""
    masks = {
        lam: sum(1 << (j - 1) for j in partition_to_south_steps(lam, shape))
        for lam in all_partitions(shape)
    }
    return MappingProxyType({m: lam for lam, m in masks.items()}), MappingProxyType(masks)


def partition_to_west_steps(lam: Partition, shape: GridShape) -> frozenset[int]:
    return frozenset(range(1, shape.n + 1)) - partition_to_south_steps(lam, shape)


def border_word(lam: Partition, shape: GridShape) -> tuple[int, ...]:
    """Border path of lam as a 0/1 word read from southwest to northeast.

    Entry t (1-based) is 1 exactly when step n + 1 - t of the walk from the
    northeast corner is a south step, so 1s mark vertical steps of the word.
    """
    south = partition_to_south_steps(lam, shape)
    return tuple(1 if (shape.n - t) in south else 0 for t in range(shape.n))


def word_to_partition(word: Iterable[int], shape: GridShape) -> Partition:
    w = tuple(word)
    if len(w) != shape.n or any(c not in (0, 1) for c in w):
        raise ValueError(f"word {w} is not a 0/1 word of length {shape.n}")
    south = {shape.n - t for t in range(shape.n) if w[t] == 1}
    return south_steps_to_partition(south, shape)


def cyclic_shift(mu: Partition, shape: GridShape) -> Partition:
    """One step of the cyclic shift: rotate the border word left by one."""
    w = border_word(mu, shape)
    return word_to_partition(w[1:] + w[:1], shape)


def cyclic_shift_table(shape: GridShape) -> dict[Partition, Partition]:
    """``cyclic_shift`` on every partition of the box, as a table."""
    return {mu: cyclic_shift(mu, shape) for mu in all_partitions(shape)}


def cyclic_shift_iter(mu: Partition, shape: GridShape, times: int) -> Partition:
    times %= shape.n
    for _ in range(times):
        mu = cyclic_shift(mu, shape)
    return mu


# ---------------------------------------------------------------------------
# diagonal statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewShape:
    """Boxes of ``outer`` that are not boxes of ``inner``.

    This is the set difference, so ``inner`` is not required to be contained
    in ``outer``.
    """

    outer: Partition
    inner: Partition

    def boxes(self) -> Iterator[tuple[int, int]]:
        """Boxes (r, c), 1-based, of the difference."""
        for r, p in enumerate(self.outer, start=1):
            ip = self.inner[r - 1] if r <= len(self.inner) else 0
            for c in range(ip + 1, p + 1):
                yield (r, c)


def max_diag(skew: SkewShape) -> int:
    """Largest number of boxes of the skew shape on a diagonal c - r = const."""
    counts: dict[int, int] = {}
    for r, c in skew.boxes():
        counts[c - r] = counts.get(c - r, 0) + 1
    return max(counts.values(), default=0)


def diag0(mu: Partition) -> int:
    """Number of boxes of mu on the main diagonal, i.e. #{r : mu_r >= r}."""
    return sum(1 for r, p in enumerate(mu, start=1) if p >= r)


# ---------------------------------------------------------------------------
# the distinguished boundary partitions
# ---------------------------------------------------------------------------

def frozen_mu(i: int, shape: GridShape) -> Partition:
    """The i-th boundary rectangle: west steps {i+1, ..., i+k} cyclically.

    For 1 <= i <= n-k this is the i x k rectangle, for n-k <= i <= n the
    (n-k) x (n-i) rectangle; i is taken mod n, so i = 0 and i = n both give
    the empty partition.
    """
    west = {shape.residue(i + j) for j in range(1, shape.k + 1)}
    return west_steps_to_partition(west, shape)


def boundary_target_set(i: int, shape: GridShape) -> frozenset[int]:
    """The (n-k)-subset {i+k+1, ..., i-1} together with {i+1}, cyclically.

    These are the boundary vertices a matching must cover in the i-th
    summand of the superpotential expansion.
    """
    run = {shape.residue(i + shape.k + j) for j in range(1, shape.rows)}
    run.add(shape.residue(i + 1))
    if len(run) != shape.rows:
        raise AssertionError("boundary target set has wrong size")
    return frozenset(run)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def all_partitions(shape: GridShape) -> list[Partition]:
    """Every partition in the box, in canonical (size, lex) order."""
    out: list[Partition] = [()]
    level: list[Partition] = [()]
    for _ in range(shape.rows):
        level = [lam + (p,) for lam in level for p in range(1, (lam[-1] if lam else shape.cols) + 1)]
        out.extend(level)
    return sorted(out, key=label_sort_key)


def rectangles(shape: GridShape) -> list[Partition]:
    """All nonempty rectangles r x c in the box, canonical order."""
    recs = [(c,) * r for r in range(1, shape.rows + 1) for c in range(1, shape.cols + 1)]
    return sorted(recs, key=label_sort_key)
