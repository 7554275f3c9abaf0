"""Partitions in a rectangle, the border-path dictionary, and diagonal
statistics.

Throughout, a partition is a tuple of weakly decreasing positive integers
(the empty tuple for the empty partition) drawn inside the (n-k) x k
rectangle attached to Gr(n-k, C^n).  The border path of such a partition,
walked from the northeast corner of the rectangle to the southwest corner
in n unit steps, takes n-k south steps and k west steps; its south steps
identify partitions with (n-k)-element subsets of {1, ..., n}.  That
dictionary has one definition, ``south_mask_tables``: per shape, every
partition keyed by its south steps as an n-bit mask, and the inverse
table.  The cyclic shift and the boundary rectangles ``frozen_mu`` are
read off those tables; the diagonal statistics MaxDiag and Diag0 live
here too.
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
    def num_boxes(self) -> int:
        """Area of the box, usually called N."""
        return self.rows * self.k

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
# the border-path dictionary
# ---------------------------------------------------------------------------

@cache
def south_mask_tables(shape: GridShape) -> tuple[Mapping[int, Partition], Mapping[Partition, int]]:
    """Every partition in the box keyed by its south steps as an n-bit mask,
    bit j - 1 for step j, and the inverse table, both in the order of
    ``all_partitions``; built once per shape and shared read-only.

    The border path starts at the northeast corner of the box, ends at the
    southwest corner, and numbers its steps 1..n in walking order.  With
    the parts padded to n - k and i counted from 1, part p is on south
    step k + i - p: the walk has taken i - 1 south steps and k - p west
    steps before it.  The west steps are the complement bits.
    """
    masks = {}
    for lam in all_partitions(shape):
        padded = lam + (0,) * (shape.rows - len(lam))
        masks[lam] = sum(1 << (shape.k + i - p - 1) for i, p in enumerate(padded, start=1))
    return MappingProxyType({m: lam for lam, m in masks.items()}), MappingProxyType(masks)


def cyclic_shift(mu: Partition, shape: GridShape, times: int = 1) -> Partition:
    """The cyclic shift applied ``times`` times (taken mod n): the south
    mask rotated left by ``times`` bits within n bits, so that south step
    j goes to step j + 1, cyclically."""
    lam_of, mask_of = south_mask_tables(shape)
    n, t = shape.n, times % shape.n
    m = mask_of[mu]
    return lam_of[(m << t | m >> (n - t)) & ((1 << n) - 1)]


def cyclic_shift_table(shape: GridShape) -> dict[Partition, Partition]:
    """``cyclic_shift`` on every partition of the box, as a table."""
    return {mu: cyclic_shift(mu, shape) for mu in all_partitions(shape)}


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
    west = sum(1 << (shape.residue(i + j) - 1) for j in range(1, shape.k + 1))
    return south_mask_tables(shape)[0][west ^ ((1 << shape.n) - 1)]


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
        level = [lam + (p,) for lam in level for p in range(1, (lam[-1] if lam else shape.k) + 1)]
        out.extend(level)
    return sorted(out, key=label_sort_key)


def rectangles(shape: GridShape) -> tuple[Partition, ...]:
    """All nonempty rectangles r x c in the box, in canonical order: the
    coordinates of the rectangles cluster."""
    recs = [(c,) * r for r in range(1, shape.rows + 1) for c in range(1, shape.k + 1)]
    return tuple(sorted(recs, key=label_sort_key))
