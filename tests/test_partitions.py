from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies.partitions import (
    GridShape,
    SkewShape,
    all_partitions,
    boundary_target_set,
    cyclic_shift,
    diag0,
    frozen_mu,
    label_sort_key,
    max_diag,
    parse_partition,
    partition_str,
    rectangles,
    south_mask_tables,
)

from oracles import (
    border_steps,
    boundary_rectangle,
    max_diag_bruteforce,
    rotate_border_word,
    walk_border,
    walk_west,
)

G35 = GridShape(3, 5)


def mu_box(i, shape):
    """Boundary rectangle with its last west step moved one step later:
    west steps {i+1, ..., i+k-1} together with {i+k+1}, cyclically."""
    west = {shape.residue(i + j) for j in range(1, shape.k)}
    west.add(shape.residue(i + shape.k + 1))
    return walk_west(west, shape.k, shape.n)


# --- frozen examples ------------------------------------------------------

def test_south_steps_examples():
    # keyed by the south steps as a mask, bit j - 1 for step j
    lam_of, _ = south_mask_tables(G35)
    assert lam_of[0b00011] == (3, 3)
    assert lam_of[0b11000] == ()
    assert lam_of[0b00101] == (3, 2)
    assert lam_of[0b00110] == (2, 2)


def test_max_diag_example():
    # two boxes survive on the main diagonal here, nothing longer elsewhere
    skew = SkewShape((7, 7, 4, 4, 3, 1), (6, 5, 2, 2, 2, 2))
    assert max_diag(skew) == 2


def test_border_word_and_shift_example():
    shape = GridShape(6, 10)
    mu = (6, 4, 4, 2)
    # the border word (0, 0, 1, 0, 0, 1, 1, 0, 0, 1), read from the
    # southwest corner, is the south mask read from its top bit down
    _, mask_of = south_mask_tables(shape)
    assert mask_of[mu] == 0b0010011001
    assert diag0(mu) == 3
    assert cyclic_shift(mu, shape) == (5, 3, 3, 1)
    assert mask_of[(5, 3, 3, 1)] == 0b0100110010


def test_frozen_mu_g35():
    assert [frozen_mu(i, G35) for i in range(6)] == [
        (),
        (3,),
        (3, 3),
        (2, 2),
        (1, 1),
        (),
    ]


def test_mu_box_g35():
    assert mu_box(1, G35) == (3, 1)
    assert mu_box(2, G35) == (2,)  # the rim-hook case, i = n - k
    assert mu_box(3, G35) == (3, 2)
    assert mu_box(4, G35) == (2, 1)


def test_boundary_target_sets_g35():
    assert boundary_target_set(2, G35) == frozenset({1, 3})
    assert boundary_target_set(3, G35) == frozenset({2, 4})
    assert boundary_target_set(5, G35) == frozenset({1, 4})


def test_partition_text_roundtrip():
    assert partition_str(()) == "0"
    assert partition_str((3, 2)) == "3,2"
    assert parse_partition("0") == ()
    assert parse_partition("3,2") == (3, 2)


def test_all_partitions_count_and_order():
    parts = all_partitions(G35)
    assert len(parts) == 10  # C(5, 2)
    assert parts[0] == ()
    assert parts[-1] == (3, 3)
    keys = [label_sort_key(p) for p in parts]
    assert keys == sorted(keys)


def test_rectangles_g35():
    assert set(rectangles(G35)) == {(1,), (2,), (3,), (1, 1), (2, 2), (3, 3)}


# --- oracle comparisons and invariants ------------------------------------

shapes = st.tuples(st.integers(2, 8), st.integers(1, 7)).map(
    lambda t: GridShape(t[1], t[1] + (t[0] - t[1]) % t[0] + 1)
)


def small_shapes(max_n=9):
    return [
        GridShape(k, n)
        for n in range(2, max_n + 1)
        for k in range(1, n)
    ]


@pytest.mark.parametrize("shape", small_shapes(), ids=str)
def test_bijections_exhaustive(shape):
    lam_of, mask_of = south_mask_tables(shape)
    subsets = list(combinations(range(1, shape.n + 1), shape.rows))
    # one entry per subset each way, in the order of all_partitions
    assert len(lam_of) == len(mask_of) == len(subsets)
    assert list(mask_of) == all_partitions(shape)
    for J in subsets:
        mask = sum(1 << (j - 1) for j in J)
        lam = lam_of[mask]
        assert lam == walk_border(J, shape.k, shape.n)
        assert mask_of[lam] == mask
        assert border_steps(lam, shape.k, shape.n) == frozenset(J)


@pytest.mark.parametrize("shape", small_shapes(7), ids=str)
def test_cyclic_shift_order_n(shape):
    for lam in all_partitions(shape):
        assert cyclic_shift(lam, shape, shape.n) == lam


@pytest.mark.parametrize("shape", small_shapes(), ids=str)
def test_cyclic_shift_is_the_border_word_rotation(shape):
    for lam in all_partitions(shape):
        for times in range(shape.n + 1):
            assert cyclic_shift(lam, shape, times) == rotate_border_word(lam, shape.k, shape.n, times)


@pytest.mark.parametrize("shape", small_shapes(), ids=str)
def test_frozen_mu_is_read_off_its_west_steps(shape):
    for i in range(shape.n + 1):
        assert frozen_mu(i, shape) == boundary_rectangle(i, shape.k, shape.n)


@given(
    outer=st.lists(st.integers(0, 9), min_size=0, max_size=8),
    inner=st.lists(st.integers(0, 9), min_size=0, max_size=8),
)
@settings(max_examples=200)
def test_max_diag_matches_oracle(outer, inner):
    outer = tuple(sorted((p for p in outer if p > 0), reverse=True))
    inner = tuple(sorted((p for p in inner if p > 0), reverse=True))
    assert max_diag(SkewShape(outer, inner)) == max_diag_bruteforce(outer, inner)


@given(mu=st.lists(st.integers(1, 9), min_size=0, max_size=8))
@settings(max_examples=100)
def test_diag0_is_max_diag_over_empty(mu):
    mu = tuple(sorted(mu, reverse=True))
    assert diag0(mu) == max_diag(SkewShape(mu, ()))


@pytest.mark.parametrize("shape", small_shapes(8), ids=str)
def test_frozen_mu_are_rectangles(shape):
    for i in range(1, shape.n):
        mu = frozen_mu(i, shape)
        if i <= shape.rows:
            assert mu == (shape.k,) * i
        else:
            assert mu == (shape.n - i,) * shape.rows
    assert frozen_mu(shape.n, shape) == ()


@pytest.mark.parametrize("shape", small_shapes(8), ids=str)
def test_mu_box_adds_one_box(shape):
    if shape.k == 1 or shape.rows == 1:
        return  # boxes degenerate when the grid is a single row or column
    for i in range(1, shape.n + 1):
        mu, mub = frozen_mu(i, shape), mu_box(i, shape)
        if i == shape.rows:
            assert mub == (shape.k - 1,) * (shape.rows - 1)
        else:
            assert sum(mub) == sum(mu) + 1
            padded = mu + (0,) * (len(mub) - len(mu))
            assert all(a <= b for a, b in zip(padded, mub))
