"""GF(2) linear algebra: examples plus randomized properties."""
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bottclass.gf2 import (
    DimensionMismatch,
    Gf2Error,
    Gf2Mat,
    bit_lanes,
    echelon,
    kernel_basis,
    parity,
    rank_masks,
    reduce_into,
    solve,
    subset_sums,
    transpose_masks,
)

# A4 of the paper, row i as a mask with bit j = entry (i, j)
A4_ROWS = [0b01010, 0b10100, 0b11000, 0, 0]


def identity(n):
    return [1 << i for i in range(n)]


def mul(rows, x):
    """Matrix (row masks) times vector (mask) over GF(2): bit i is
    parity(rows[i] & x)."""
    return sum(parity(r & x) << i for i, r in enumerate(rows))


def span_size_rank(masks):
    """Independent rank oracle: the row span of a rank-r matrix has 2^r
    elements; enumerate all subset XORs and count."""
    span = set()
    for picks in itertools.product([0, 1], repeat=len(masks)):
        acc = 0
        for p, m in zip(picks, masks):
            if p:
                acc ^= m
        span.add(acc)
    size = len(span)
    r = size.bit_length() - 1
    assert 1 << r == size
    return r


def test_rank_zero_matrix():
    assert rank_masks([0, 0, 0]) == 0


def test_rank_identity():
    for n in range(1, 7):
        assert rank_masks(identity(n)) == n


def test_rank_a4_against_span_oracle():
    assert span_size_rank(A4_ROWS) == 3
    assert rank_masks(A4_ROWS) == 3


@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_transpose_masks_entrywise(nr, nc, data):
    rows = [data.draw(st.integers(0, (1 << nc) - 1)) for _ in range(nr)]
    cols = transpose_masks(nc, rows)
    assert len(cols) == nc
    for i in range(nr):
        for j in range(nc):
            assert (cols[j] >> i) & 1 == (rows[i] >> j) & 1


def test_bit_lanes_hold_the_masks_with_the_bit():
    for n in range(1, 8):
        for i in range(n):
            assert bit_lanes(n, i) == sum(1 << s for s in range(1 << n) if (s >> i) & 1), (n, i)


@pytest.mark.parametrize("n", [15, 21])
def test_bit_lanes_at_large_n(n):
    # the block-quotient formula at n = 15; the definition at seeded s
    rng = random.Random(n)
    samples = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(200)]
    for i in range(n):
        lanes = bit_lanes(n, i)
        if n == 15:
            assert lanes == ((1 << (1 << n)) - 1) // ((1 << (2 << i)) - 1) * (
                ((1 << (1 << i)) - 1) << (1 << i)), i
        assert lanes.bit_length() <= 1 << n and lanes.bit_count() == 1 << (n - 1), i
        assert all((lanes >> s) & 1 == (s >> i) & 1 for s in samples), i
    assert bit_lanes(n, n) == 0  # no s < 2^n has bit n


@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=7))
def test_subset_sums_xor_the_generators_in_each_mask(gens):
    sums = subset_sums(gens)
    assert len(sums) == 1 << len(gens)
    for mask, total in enumerate(sums):
        expected = 0
        for i, g in enumerate(gens):
            if (mask >> i) & 1:
                expected ^= g
        assert total == expected


@given(st.lists(st.integers(0, (1 << 256) - 1) | st.sampled_from([0, 1, 3, 1 << 255]),
                max_size=9))
def test_rank_masks_matches_span_size(rows):
    # wide rows, as in the Betti ranks over 2^8 monomials, repeats and zeros
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    assert 1 << rank_masks(rows) == len(span)


@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_rank_equals_rank_of_transpose(nr, nc, data):
    rows = [data.draw(st.integers(0, (1 << nc) - 1)) for _ in range(nr)]
    assert rank_masks(rows) == rank_masks(transpose_masks(nc, rows))


def test_solve_identity_system():
    b = 0b1101
    got = solve(4, identity(4), b)
    assert got is not None
    x, kern = got
    assert x == b and kern == []


def test_solve_zero_matrix():
    x, kern = solve(3, [0, 0, 0], 0)
    assert x == 0
    assert kern == [1, 2, 4]  # full standard basis
    assert solve(3, [0, 0, 0], 1) is None


def test_solve_dimension_mismatch():
    # rhs with a bit beyond the last row, or a row wider than ncols
    with pytest.raises(DimensionMismatch):
        solve(3, [1, 2], 0b100)
    with pytest.raises(DimensionMismatch):
        solve(3, [1, 2, 0b1000], 0)
    with pytest.raises(DimensionMismatch):
        kernel_basis(2, [0b100])
    with pytest.raises(DimensionMismatch):
        solve(3, [1], -1)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_solve_returns_actual_solutions(nr, nc, data):
    rows = [data.draw(st.integers(0, (1 << nc) - 1)) for _ in range(nr)]
    b = mul(rows, data.draw(st.integers(0, (1 << nc) - 1)))
    got = solve(nc, rows, b)
    assert got is not None
    x, kern = got
    assert mul(rows, x) == b
    for k in kern:
        assert mul(rows, k) == 0
    # kernel size matches rank-nullity
    assert len(kern) == nc - rank_masks(rows)
    assert kernel_basis(nc, rows) == kern
    # the particular solution is the least one (spin_lift_search relies on it)
    assert x == min(y for y in range(1 << nc) if mul(rows, y) == b)
    # kernel vector i holds exactly one free column, the i-th in ascending
    # order (relator order and the SpinLift order rely on it); the pivot
    # columns are the lowest bits of the nonzero vectors of the row span
    span = set(subset_sums(rows)) - {0}
    free = [c for c in range(nc) if all(v & -v != 1 << c for v in span)]
    free_mask = sum(1 << c for c in free)
    assert [k & free_mask for k in kern] == [1 << c for c in free]


def test_kernel_basis_of_identity_is_empty():
    assert kernel_basis(5, identity(5)) == []


@given(st.lists(st.integers(0, (1 << 10) - 1) | st.sampled_from([0, 1, 3, 1 << 9]), max_size=9),
       st.randoms(use_true_random=False))
def test_echelon_is_the_reduced_form_of_the_span(rows, rnd):
    reduced = echelon(rows)
    for low, r in reduced.items():
        assert r & -r == low  # keyed by the row's lowest bit
        # the pivot bit is set in its own row only
        assert [other for other, p in reduced.items() if p & low] == [low]
    assert len(reduced) == rank_masks(rows)
    # same span: every input row is the XOR of the pivot rows at its pivot bits
    for r in rows:
        acc = 0
        for low, p in reduced.items():
            if (r ^ acc) & low:
                acc ^= p
        assert acc == r
    # the reduced form is unique, whatever the order of the input
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert echelon(shuffled) == reduced


def test_echelon_example():
    # 011 and 110 span {011, 110, 101}; pivots at bits 0 and 1, with bit 1
    # cleared from the row of bit 0 after 110 arrives
    assert echelon([0b011, 0b110, 0b101, 0]) == {0b001: 0b101, 0b010: 0b110}
    assert echelon([]) == {}


def test_reduce_into_counts_kept_rows_and_pops_the_last():
    pivots = {}
    assert reduce_into(pivots, [0b011, 0b110, 0b101, 0]) == 2  # 101 = 011 ^ 110
    assert reduce_into(pivots, [0b001]) == 1
    pivots.popitem()
    assert reduce_into(pivots, [0b101]) == 0
    assert reduce_into(pivots, [0b100]) == 1
    assert len(pivots) == 3


def test_from_rows_without_rows_is_a_gf2_error():
    # no row means no matrix
    with pytest.raises(Gf2Error):
        Gf2Mat(3, ())
