"""GF(2) linear algebra: examples plus randomized properties."""
import itertools

import pytest
from hypothesis import given, strategies as st

from bottclass.gf2 import (
    DimensionMismatch,
    Gf2Error,
    Gf2Mat,
    Gf2Vec,
    bit_lanes,
    kernel_basis,
    rank,
    rank_masks,
    reduce_into,
    solve,
    subset_sums,
    transpose_masks,
)

A4_ROWS = [
    [0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]


def span_size_rank(rows):
    """Independent rank oracle: the row span of a rank-r matrix has 2^r
    elements; enumerate all subset XORs and count."""
    masks = [Gf2Vec.from_bits(r).mask for r in rows]
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
    assert rank(Gf2Mat.zero(3, 3)) == 0


def test_rank_identity():
    for n in range(1, 7):
        assert rank(Gf2Mat.identity(n)) == n


def test_rank_a4_against_span_oracle():
    assert span_size_rank(A4_ROWS) == 3
    assert rank(Gf2Mat.from_rows(A4_ROWS)) == 3


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
    rows = tuple(data.draw(st.integers(0, (1 << nc) - 1)) for _ in range(nr))
    m = Gf2Mat(nc, rows)
    assert rank(m) == rank(m.transpose())


def test_solve_identity_system():
    b = 0b1101
    got = solve(4, Gf2Mat.identity(4).rows, b)
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
    rows = tuple(data.draw(st.integers(0, (1 << nc) - 1)) for _ in range(nr))
    m = Gf2Mat(nc, rows)
    x_true = Gf2Vec(nc, data.draw(st.integers(0, (1 << nc) - 1)))
    b = m.mul_vec(x_true)
    got = solve(nc, rows, b.mask)
    assert got is not None
    x, kern = got
    assert m.mul_vec(Gf2Vec(nc, x)) == b
    for k in kern:
        assert m.mul_vec(Gf2Vec(nc, k)).mask == 0
    # kernel size matches rank-nullity
    assert len(kern) == nc - rank(m)
    assert kernel_basis(nc, rows) == kern
    # the particular solution is the least one (spin_lift_search relies on it)
    assert x == min(y for y in range(1 << nc) if m.mul_vec(Gf2Vec(nc, y)) == b)


def test_kernel_basis_of_identity_is_empty():
    assert kernel_basis(5, Gf2Mat.identity(5).rows) == []


def test_reduce_into_counts_kept_rows_and_pops_the_last():
    pivots = {}
    assert reduce_into(pivots, [0b011, 0b110, 0b101, 0]) == 2  # 101 = 011 ^ 110
    assert reduce_into(pivots, [0b001]) == 1
    pivots.popitem()
    assert reduce_into(pivots, [0b101]) == 0
    assert reduce_into(pivots, [0b100]) == 1
    assert len(pivots) == 3


def test_vector_bits_round_trip():
    v = Gf2Vec.from_bits([1, 0, 1, 1, 0])
    assert v.bits == (1, 0, 1, 1, 0)
    assert str(v) == "10110"
    assert v.weight() == 3


def test_matmul_identity():
    m = Gf2Mat.from_rows([[1, 1], [0, 1]])
    assert m.mul_mat(Gf2Mat.identity(2)) == m
    assert Gf2Mat.identity(2).mul_mat(m) == m


def test_from_rows_without_rows_is_a_gf2_error():
    # as Gf2Mat(ncols, ()) is: no row means no matrix
    with pytest.raises(Gf2Error):
        Gf2Mat.from_rows([])
    with pytest.raises(Gf2Error):
        Gf2Mat(3, ())
