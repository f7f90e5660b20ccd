"""Cohomology rings: relations, normal forms, Stiefel-Whitney classes."""
import itertools
import os
import random
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import pytest

from bottclass import catalog, cohomology
from bottclass.bottmatrix import (
    BottMatrix,
    diffeo_classes,
    enumerate_strict_upper,
    is_orientable,
    named,
    op1,
    to_strict_upper,
)
from bottclass.cohomology import (
    RING_BOUND,
    CohomRing,
    Gf2Poly,
    degree2,
    format_poly,
    format_terms,
    h2_real_is_zero,
    linear,
    poly_from_vars,
    ring_of,
    w2_of_rows,
)
from bottclass.gf2 import BoundExceeded, InvariantViolation, UsageError, bits, transpose_masks

A4 = catalog.DIM5_ORIENTED["A4"]
A23 = catalog.DIM5_ORIENTED["A23"]
A29 = catalog.DIM5_ORIENTED["A29"]
A37 = catalog.DIM5_ORIENTED["A37"]
A40 = catalog.DIM5_ORIENTED["A40"]
A48 = catalog.DIM5_ORIENTED["A48"]
A49 = catalog.DIM5_ORIENTED["A49"]


def _poly(terms):
    """The polynomial of a set of monomial masks: bit t per monomial t."""
    return Gf2Poly(sum(1 << t for t in terms))


def _square_of_var(ring, j):
    """x_j^2 (0-based j) in normal form, through the ring's product."""
    x = poly_from_vars([j + 1])
    return ring.multiply(x, x).terms


def test_torus_ring_squares_vanish():
    ring = ring_of(BottMatrix(4, (0, 0, 0, 0)))
    for j in range(4):
        assert _square_of_var(ring, j) == frozenset()


def test_a4_relations_from_columns():
    # x2^2 = x1 x2, x4^2 = (x1+x3) x4, x5^2 = (x2+x3) x5 (columns of A4)
    ring = ring_of(A4)
    assert _square_of_var(ring, 1) == poly_from_vars([1, 2]).terms
    assert _square_of_var(ring, 3) == poly_from_vars([1, 4], [3, 4]).terms
    assert _square_of_var(ring, 4) == poly_from_vars([2, 5], [3, 5]).terms


def test_superdiagonal3_relations():
    ring = ring_of(BottMatrix(3, (0b010, 0b100, 0)))
    assert _square_of_var(ring, 1) == poly_from_vars([1, 2]).terms
    assert _square_of_var(ring, 2) == poly_from_vars([2, 3]).terms


def test_multiply_unit():
    ring = ring_of(A4)
    one = Gf2Poly(1)
    q = poly_from_vars([1, 3], [2])
    assert ring.multiply(one, q) == q


def test_multiply_x3_squared_in_a37():
    ring = ring_of(A37)
    x3 = poly_from_vars([3])
    assert ring.multiply(x3, x3) == poly_from_vars([2, 3])


def test_multiply_zero_column_square():
    ring = ring_of(A4)
    x1 = poly_from_vars([1])
    assert ring.multiply(x1, x1).is_zero()


def test_multiply_commutative_associative_random():
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(2, 5)
        rows = []
        for i in range(n):
            mask = 0
            for j in range(i + 1, n):
                mask |= rng.randint(0, 1) << j
            rows.append(mask)
        ring = ring_of(BottMatrix(n, tuple(rows)))

        def random_poly():
            terms = set()
            for _ in range(rng.randint(1, 4)):
                deg = rng.randint(0, 3)
                mask = 0
                for v in rng.sample(range(n), min(deg, n)):
                    mask |= 1 << v
                terms ^= {mask}
            return _poly(terms)

        p, q, s = random_poly(), random_poly(), random_poly()
        assert ring.multiply(p, q) == ring.multiply(q, p)
        assert ring.multiply(ring.multiply(p, q), s) == ring.multiply(p, ring.multiply(q, s))


@pytest.mark.parametrize(
    "name,expected",
    [
        ("A4", "x1*x2 + x1*x3"),
        ("A23", "x1*x3"),
        ("A29", "0"),
        ("A37", "0"),
        ("A40", "x1*x2"),
        ("A48", "x1*x2"),
        ("A49", "0"),
    ],
)
def test_w2_printed_values(name, expected):
    ring = ring_of(catalog.DIM5_ORIENTED[name])
    assert format_poly(ring.stiefel_whitney(2)) == expected


def test_w2_of_a4_equals_reduction_of_unreduced_form():
    # the printed class (x2)^2 + x1 x3 must reduce to the computed w2
    ring = ring_of(A4)
    unreduced = ring._reduce_exp((0, 2, 0, 0, 0)) + poly_from_vars([1, 3])
    assert unreduced == ring.stiefel_whitney(2)


def test_w1_is_row_parity_combination():
    # w1 = sum over k of (row weight mod 2) x_k
    for m in [A4, A23, catalog.CLASSIC_NO_SPIN_5, BottMatrix(3, (0b110, 0, 0))]:
        ring = ring_of(m)
        expected = frozenset(
            1 << k for k in range(m.n) if bin(m.rows[k]).count("1") % 2
        )
        assert ring.stiefel_whitney(1).terms == expected


def test_w1_zero_iff_orientable_exhaustive_n4():
    for m in enumerate_strict_upper(4):
        assert ring_of(m).stiefel_whitney(1).is_zero() == is_orientable(m)


def test_w2_fast_path_matches_ring():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            assert w2_of_rows(m.n, m.rows) == ring_of(m).stiefel_whitney(2).terms


def test_w2_fast_path_follows_relabelling():
    # on P A P^-1 every variable x_i is renamed x_perm[i]
    def rename(mask, perm):
        return sum(1 << perm[i] for i in range(len(perm)) if (mask >> i) & 1)

    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            monomials = w2_of_rows(n, m.rows)
            for perm in itertools.permutations(range(n)):
                expected = frozenset(rename(t, perm) for t in monomials)
                assert w2_of_rows(n, op1(m, perm).rows) == expected


def test_stiefel_whitney_degree_bounds():
    ring = ring_of(A4)
    assert ring.stiefel_whitney(0) == Gf2Poly(1)
    assert ring.stiefel_whitney(6).is_zero()  # above the dimension
    with pytest.raises(ValueError):
        ring.stiefel_whitney(-1)


def test_multiply_beyond_the_ring_is_a_usage_error():
    ring = ring_of(A4)  # n = 5
    x1, x6 = poly_from_vars([1]), poly_from_vars([6])
    for p, q in [(x6, x1), (x1, x6)]:
        with pytest.raises(UsageError):
            ring.multiply(p, q)
    assert ring.multiply(x1, poly_from_vars([5])) == poly_from_vars([1, 5])  # in range


def test_ring_above_the_bound_is_refused_before_any_table():
    # the check comes first in the constructor, so n = 30 (30 * 2^30 table
    # entries) is refused with nothing allocated
    for n in (RING_BOUND + 1, 30):
        with pytest.raises(BoundExceeded, match=f"n={n} exceeds"):
            CohomRing(BottMatrix(n, (0,) * n))
    ring = ring_of(BottMatrix(RING_BOUND, (0,) * RING_BOUND))
    assert [ring.betti_z2(k) for k in (0, 1, RING_BOUND)] == [1, RING_BOUND, 1]


def test_top_class_vanishes():
    # sigma_n includes the factor y_1 = 0
    for m in [A4, A29, A40]:
        assert ring_of(m).stiefel_whitney(m.n).is_zero()


def test_betti_examples():
    ring = ring_of(catalog.DIM5_ORIENTED["A4"])
    assert ring.betti_z2(0) == 1
    assert ring.betti_z2(2) == 10  # C(5,2)
    assert ring.betti_z2(5) == 1


def test_betti_all_degrees_exhaustive_n3():
    for m in enumerate_strict_upper(3):
        ring = ring_of(m)
        for k in range(4):
            assert ring.betti_z2(k) == comb(3, k)


def test_h2_real_examples():
    assert h2_real_is_zero(A4)  # all five columns distinct
    assert not h2_real_is_zero(BottMatrix(2, (0, 0)))  # two zero columns
    assert not h2_real_is_zero(A29)  # columns 2..5 all equal


def test_h2_real_matches_subset_count_oracle():
    # the condition counts 2-subsets of columns summing to zero
    import itertools

    for m in enumerate_strict_upper(4):
        cols = [m.col_mask(j) for j in range(4)]
        zero_pairs = sum(
            1 for a, b in itertools.combinations(range(4), 2) if cols[a] ^ cols[b] == 0
        )
        assert h2_real_is_zero(m) == (zero_pairs == 0)


def test_ring_normalizes_non_strict_upper():
    sub = BottMatrix(3, (0, 1, 2))  # subdiagonal
    ring = ring_of(sub)
    assert ring.permutation == (2, 1, 0)
    assert ring.matrix.is_strictly_upper


def test_w2_vanishing_constant_on_orbits_n4():
    from bottclass.bottmatrix import diffeo_classes

    for cls in diffeo_classes(4):
        values = {ring_of(m).stiefel_whitney(2).is_zero() for m in cls.members}
        assert len(values) == 1
        assert values.pop() == cls.fingerprint.w2_zero


# --- text form ---------------------------------------------------------------

def test_format_poly():
    assert format_poly(Gf2Poly()) == "0"
    assert format_poly(Gf2Poly(1)) == "1"
    assert format_poly(poly_from_vars([3, 1], [2, 5])) == "x1*x3 + x2*x5"
    assert format_poly(poly_from_vars([2])) == "x2"
    assert format_poly(poly_from_vars([1, 2], [])) == "1 + x1*x2"


def test_format_terms_prints_the_masks_as_format_poly_does():
    # the reports print sets of monomial masks, with no packed int
    assert format_terms(()) == "0" and format_terms([0]) == "1"
    assert format_terms([1 << 63 | 1, 0b110, 1 << 40]) == "x41 + x1*x64 + x2*x3"
    rng = random.Random(5)
    for _ in range(200):
        p = Gf2Poly(rng.getrandbits(1 << 6))
        assert format_terms(p.terms) == format_poly(p)


def test_gf2poly_refuses_anything_but_a_nonnegative_int():
    # a negative int has infinitely many set bits: gf2.bits(-1) never ends
    for bad in (-1, -(1 << 40), 1.0, "1", True, None, frozenset({0})):
        with pytest.raises(UsageError):
            Gf2Poly(bad)
    assert Gf2Poly(1 << (1 << 20)).terms == {1 << 20}  # no bound on the variables


def test_poly_from_vars_refuses_a_variable_repeated_in_one_monomial():
    # x3 * x3 is x2 * x3 in the ring of A37, not x3
    x3 = poly_from_vars([3])
    assert ring_of(A37).multiply(x3, x3) == poly_from_vars([2, 3])
    for bad in ([3, 3], [1, 2, 1], iter([4, 4])):
        with pytest.raises(UsageError, match="twice"):
            poly_from_vars([1], bad)
    # a repeated monomial still cancels
    assert poly_from_vars([1, 3], [3, 1], [2]) == poly_from_vars([2])


def test_poly_from_vars_refuses_a_variable_outside_the_ring_bound():
    for bad in (0, -1, RING_BOUND + 1):
        with pytest.raises(UsageError):
            poly_from_vars([1], [2, bad])
    top = poly_from_vars([RING_BOUND])
    assert top.terms == {1 << (RING_BOUND - 1)}


def _by_pair_bit(n, p):
    """A degree-2 class (bit t per monomial t) repacked as documented:
    x_a x_b (a < b) at bit b(b-1)/2 + a."""
    index = {(1 << a) | (1 << b): b * (b - 1) // 2 + a
             for b in range(n) for a in range(b)}
    return sum(1 << index[t] for t in p.terms)


def _check_degree2(m, pairs):
    """degree2 on the columns of the strictly upper form of m against the
    normal form of u v in the ring of m, repacked by `_by_pair_bit`."""
    ring = CohomRing(m)
    cols = transpose_masks(m.n, to_strict_upper(m)[1].rows)
    for u, v in pairs:
        expected = _by_pair_bit(m.n, ring.multiply(linear(u), linear(v)))
        assert degree2(cols, u, v) == expected, (m.rows, u, v)


def test_degree2_matches_normal_forms_n_le_4():
    # every (u, v) on every strictly upper matrix
    for n in range(1, 5):
        pairs = list(itertools.product(range(1 << n), repeat=2))
        for m in enumerate_strict_upper(n):
            _check_degree2(m, pairs)


def test_degree2_matches_normal_forms_n5():
    # every basis pair (x_a, x_b) on every strictly upper matrix, and
    # seeded (u, v)
    rng = random.Random(5)
    basis = [(1 << a, 1 << b) for a in range(5) for b in range(5)]
    for m in enumerate_strict_upper(5):
        _check_degree2(m, basis + [(rng.getrandbits(5), rng.getrandbits(5)) for _ in range(4)])


def test_degree2_matches_normal_forms_n6_n7_seeded():
    rng = random.Random(6)
    for n, count in ((6, 30), (7, 10)):
        for _ in range(count):
            pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(100)]
            _check_degree2(_random_strict_upper(rng, n), pairs)


def test_degree2_matches_normal_forms_relabelled_inputs():
    # the columns are those of the to_strict_upper form, the ring's labels
    rng = random.Random(61)
    relabelled = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        m = op1(_random_strict_upper(rng, n), rng.sample(range(n), n))
        relabelled += not m.is_strictly_upper
        _check_degree2(m, [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(50)])
    assert relabelled >= 50


def test_linear_packs_one_monomial_per_variable():
    assert linear(0).packed == 0
    assert linear(0b1011).packed == (1 << 1) | (1 << 2) | (1 << 8)


# --- the packed engine against independent oracles ---------------------------

def _columns(m):
    """y_j as a mask over the x_i, read from the matrix entries a_{i,j}."""
    return [sum(((m.rows[i] >> j) & 1) << i for i in range(m.n)) for j in range(m.n)]


class _RecursiveReducer:
    """The earlier engine, kept as an oracle: frozensets of monomial masks
    and a memoised recursion that rewrites the highest squared variable
    x_j^2 -> x_j y_j first, over exponent vectors."""

    def __init__(self, m):
        self.n = m.n
        self.cols = _columns(m)
        self.memo = {}

    def reduce(self, exps):
        if exps in self.memo:
            return self.memo[exps]
        j = max((i for i in range(self.n) if exps[i] >= 2), default=-1)
        if j < 0:
            result = frozenset({sum(1 << i for i, e in enumerate(exps) if e)})
        else:
            acc = set()
            for i in range(self.n):
                if (self.cols[j] >> i) & 1:
                    assert i < j
                    child = list(exps)
                    child[j] -= 1
                    child[i] += 1
                    acc ^= self.reduce(tuple(child))
            result = frozenset(acc)
        self.memo[exps] = result
        return result

    def multiply(self, p, q):
        acc = set()
        for u in p:
            for v in q:
                acc ^= self.reduce(tuple(((u >> i) & 1) + ((v >> i) & 1) for i in range(self.n)))
        return frozenset(acc)

    def sigma(self):
        """sigma_0..sigma_n of y_1..y_n, one y_j at a time."""
        sigma = [frozenset({0})] + [frozenset()] * self.n
        for col in self.cols:
            yj = frozenset(1 << i for i in range(self.n) if (col >> i) & 1)
            sigma = [sigma[0]] + [sigma[k] ^ self.multiply(sigma[k - 1], yj)
                                  for k in range(1, self.n + 1)]
        return sigma


def _exponents(n, max_degree):
    """Every exponent vector of n variables with degree <= max_degree."""
    out = []
    for d in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            out.append(tuple(combo.count(i) for i in range(n)))
    return out


def _random_strict_upper(rng, n):
    return BottMatrix(n, tuple(rng.getrandbits(n) & -(2 << i) & ((1 << n) - 1)
                               for i in range(n)))


def _check_against_recursive_oracle(m, max_degree):
    # the ring relabels m itself; the oracle takes its strictly upper form
    ring, oracle = CohomRing(m), _RecursiveReducer(to_strict_upper(m)[1])
    for exps in _exponents(m.n, max_degree):
        assert ring._reduce_exp(exps).terms == oracle.reduce(exps), (m.rows, exps)
    sigma = oracle.sigma()
    for k in range(m.n + 1):
        assert ring.stiefel_whitney(k).terms == sigma[k], (m.rows, k)
    for j in range(m.n):
        square = tuple(2 if i == j else 0 for i in range(m.n))
        assert _square_of_var(ring, j) == oracle.reduce(square), (m.rows, j)


def test_packed_engine_matches_recursive_oracle_n_le_4():
    # every exponent vector of degree <= n + 1, every sigma_k, every x_j^2
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            _check_against_recursive_oracle(m, n + 1)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_packed_engine_matches_recursive_oracle_seeded(n):
    rng = random.Random(100 + n)
    for _ in range(2):
        _check_against_recursive_oracle(_random_strict_upper(rng, n), n + 1)


def test_sigma_matches_recursive_oracle_strict_n_le_5_and_permuted_n6_to_8():
    # every sigma_k, sigma_1 in closed form (the XOR of the columns) among
    # them, on every strictly upper n = 2..5 matrix and on permuted
    # n = 6..8 ones, which the ring relabels first
    rng = random.Random(11)
    permuted = [op1(_random_strict_upper(rng, n), rng.sample(range(n), n))
                for n in (6, 7, 8) for _ in range(40)]
    for m in itertools.chain(*(enumerate_strict_upper(n) for n in range(2, 6)), permuted):
        _check_against_recursive_oracle(m, 2)


def test_multiply_matches_recursive_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        m = _random_strict_upper(rng, n)
        ring, oracle = CohomRing(m), _RecursiveReducer(m)
        p = frozenset(rng.getrandbits(n) for _ in range(rng.randint(1, 5)))
        q = frozenset(rng.getrandbits(n) for _ in range(rng.randint(1, 5)))
        expected = oracle.multiply(p, q)
        assert ring.multiply(_poly(p), _poly(q)).terms == expected, (m.rows, p, q)


def test_tables_refuse_a_non_decreasing_rewrite(monkeypatch):
    # A rewrite to a larger index need not terminate.  Column 0 of this
    # lower triangular matrix holds x_2, so x_1^2 = x_1 x_2 would be one; a
    # normalization that leaves it is refused when the tables are built.
    monkeypatch.setattr(cohomology, "to_strict_upper", lambda m: (tuple(range(m.n)), m))
    with pytest.raises(InvariantViolation, match="smaller indices"):
        ring_of(BottMatrix(3, (0, 0b001, 0)))


def test_non_decreasing_rewrite_raises_under_python_O():
    # the table guard raises InvariantViolation, not assert
    code = textwrap.dedent("""
        from bottclass import cohomology
        from bottclass.bottmatrix import BottMatrix
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        cohomology.to_strict_upper = lambda m: (tuple(range(m.n)), m)
        try:
            cohomology.ring_of(BottMatrix(3, (0, 0b001, 0)))
        except InvariantViolation as exc:
            print("raised:", exc)
    """)
    proc = _run_under_python_O(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: rewrite must only introduce smaller indices")


def _list_tables(m):
    """The multiply tables of the strictly upper m as lists, entry s of
    table i the packed normal form of x_i m_s, built one entry at a time:
    the earlier layout, kept as the oracle of the lanes."""
    full = 1 << m.n
    tables = []
    for i, col in enumerate(_columns(m)):
        square = [0] * full
        for l in bits(col):
            square = [a ^ b for a, b in zip(square, tables[l])]
        tables.append([square[s] if (s >> i) & 1 else 1 << (s | 1 << i) for s in range(full)])
    return tables


def _check_lanes_against_lists(m):
    ring = ring_of(m)
    n, lane = ring.n, (1 << (1 << ring.n)) - 1
    for i, (row, entries) in enumerate(zip(ring._mul, _list_tables(ring.matrix), strict=True)):
        assert row >> (len(entries) << n) == 0, (m.rows, i)
        assert [(row >> (s << n)) & lane for s in range(1 << n)] == entries, (m.rows, i)


def test_lanes_match_the_list_tables_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            _check_lanes_against_lists(m)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_lanes_match_the_list_tables_seeded(n):
    rng = random.Random(200 + n)
    for _ in range(3):
        m = _random_strict_upper(rng, n)
        _check_lanes_against_lists(m)
        _check_lanes_against_lists(op1(m, rng.sample(range(n), n)))  # normalized first


def _naive_lane_masks(n):
    """`_lane_masks` built one lane and one position at a time."""
    full = 1 << n
    lane = (1 << full) - 1
    without = [[s for s in range(full) if not (s >> i) & 1] for i in range(n)]
    return (lane,
            tuple(sum(1 << s for s in without[i]) for i in range(n)),
            tuple(sum(lane << (s << n) for s in range(full) if (s >> i) & 1) for i in range(n)),
            tuple(sum(1 << ((s << n) + (s | 1 << i)) for s in without[i]) for i in range(n)),
            sum(1 << ((s << n) + t) for s in range(full) for t in range(full)
                if t.bit_count() != s.bit_count() + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_lane_masks_match_a_per_lane_build(n):
    assert cohomology._lane_masks(n) == _naive_lane_masks(n)


def test_ring_at_the_bound_n12():
    # The masks at n = 12 are built by doubling; a per-lane build, one
    # step per lane or position, would make this test far slower.  The
    # cache is cleared after, as its n = 12 masks hold about 50 MiB.
    m = _random_strict_upper(random.Random(12), RING_BOUND)
    assert any(m.rows)
    try:
        ring = ring_of(m)
        assert ring.stiefel_whitney(2).terms == w2_of_rows(m.n, m.rows)
        assert [ring.betti_z2(k) for k in range(13)] == [comb(12, k) for k in range(13)]
    finally:
        cohomology._lane_masks.cache_clear()


def _partitions(n, largest):
    """The partitions of n with parts at most largest, non-increasing."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _classes_with_a_nonzero_sw_number(n, make_ring):
    """How many n-dimensional classes have a nonzero Stiefel-Whitney number
    w_lambda[M], on the ring make_ring builds on the class canonical: the
    product of the w_k, k in lambda, through `CohomRing.multiply`.  It has
    degree n, so its normal form is c x_1...x_n, and c is the number."""
    top = 1 << ((1 << n) - 1)
    count = 0
    for cls in diffeo_classes(n):
        ring = make_ring(cls.canonical)
        w = [ring.stiefel_whitney(k) for k in range(n + 1)]
        numbers = []
        for parts in _partitions(n, n):
            product = Gf2Poly(1)
            for k in parts:
                product = ring.multiply(product, w[k])
            assert not product.packed & ~top, (cls.canonical.rows, parts)
            numbers.append(product.packed & top)
        count += any(numbers)
    return count


def test_stiefel_whitney_numbers_vanish_n_le_6():
    # Every flat manifold bounds (Hamrick-Royster, "Flat Riemannian
    # manifolds are boundaries", Invent. Math. 66, 1982), so all its
    # Stiefel-Whitney numbers are 0: a check of the ring that reads no
    # other route.  For M(A) it also holds as each stage is a circle bundle
    # with linear O(2) structure over the last, so it bounds its disk bundle.
    assert [len(list(_partitions(n, n))) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]
    assert [_classes_with_a_nonzero_sw_number(n, ring_of) for n in range(1, 7)] == [0] * 6


def test_stiefel_whitney_numbers_catch_a_total_class_read_from_the_rows():
    # The mutant reads y_j from row j instead of column j, with the
    # relations kept; the vanishing numbers catch it in every n >= 2.
    def from_rows(m):
        ring = ring_of(m)
        ring.cols = ring.matrix.rows
        return ring

    counts = [_classes_with_a_nonzero_sw_number(n, from_rows) for n in range(1, 7)]
    assert counts == [0, 1, 1, 6, 29, 344]


def _ideal_side_dims(m, max_degree):
    """dim S_k - rank I_k for k = 0..max_degree, with S = Z2[x_1..x_n] over
    exponent vectors and I the ideal of the x_j^2 + x_j y_j; uses neither
    the package's reducer nor its rank."""
    n, cols = m.n, _columns(m)
    dims = []
    for k in range(max_degree + 1):
        monos = [e for e in _exponents(n, k) if sum(e) == k]
        index = {e: i for i, e in enumerate(monos)}
        pivots = {}  # elimination keyed by the lowest set bit
        for base in (e for e in _exponents(n, k - 2) if sum(e) == k - 2):
            for j in range(n):
                terms = [tuple(b + 2 * (i == j) for i, b in enumerate(base))]
                terms += [tuple(b + (i == j) + (i == l) for i, b in enumerate(base))
                          for l in range(n) if (cols[j] >> l) & 1]
                row = 0
                for t in terms:
                    row ^= 1 << index[t]
                while row:
                    low = row & -row
                    if low not in pivots:
                        pivots[low] = row
                        break
                    row ^= pivots[low]
        dims.append(len(monos) - len(pivots))
    return dims


def _check_betti_from_ideal_side(m):
    dims = _ideal_side_dims(m, m.n + 1)
    ring = ring_of(m)
    assert dims[:-1] == [ring.betti_z2(k) for k in range(m.n + 1)], m.rows
    assert dims[-1] == 0, m.rows  # the quotient stops at the top degree


def test_betti_matches_ideal_side_count_n_le_4():
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            _check_betti_from_ideal_side(m)


def test_betti_matches_ideal_side_count_n5_seeded():
    from bottclass.bottmatrix import op1

    rng = random.Random(55)
    for _ in range(12):
        m = _random_strict_upper(rng, 5)
        _check_betti_from_ideal_side(m)
        # relabelled, so the ring normalizes it first
        perm = list(range(5))
        rng.shuffle(perm)
        _check_betti_from_ideal_side(op1(m, perm))


def test_betti_matches_ideal_side_count_n6_seeded_and_n7():
    rng = random.Random(66)
    for _ in range(8):
        m = _random_strict_upper(rng, 6)
        _check_betti_from_ideal_side(m)
        _check_betti_from_ideal_side(op1(m, rng.sample(range(6), 6)))
    _check_betti_from_ideal_side(_random_strict_upper(random.Random(77), 7))


def _lane_masks_with_one_more_bit(i, s, monomial):
    """`cohomology._lane_masks` with the monomial set at lane s of table i's
    `free` mask, so the table built from it holds the monomial in its square
    entry x_i m_s (i in s): a table corrupted while it is built."""
    clean = cohomology._lane_masks

    def corrupted(n):
        lane, keep, squares, free, bad = clean(n)
        free = free[:i] + (free[i] | (1 << monomial) << (s << n),) + free[i + 1:]
        return lane, keep, squares, free, bad

    return corrupted


@pytest.mark.parametrize("monomial", [0, 0b01111])  # 1 and x1*x2*x3*x4: degrees 0 and 4
@pytest.mark.parametrize("i, s", [(1, 0b00011), (0, 0b00011)])
def test_betti_refuses_a_square_entry_that_leaves_its_degree(monkeypatch, i, s, monomial):
    # x_i m_s (i in s) has degree |s| + 1 = 3.  The entry with i = max(s) is
    # one the normal forms of the monomials meet, built in order of their
    # largest variable; the one with max(s) > i only products and
    # Stiefel-Whitney classes meet.  The ring refuses it when it is built.
    monkeypatch.setattr(cohomology, "_lane_masks", _lane_masks_with_one_more_bit(i, s, monomial))
    with pytest.raises(InvariantViolation, match="preserve degree") as raised:
        ring_of(A4)
    assert named(A4.n, A4.rows) in str(raised.value)


def test_corrupted_square_entry_raises_under_python_O():
    # The degree check raises InvariantViolation, not assert, so it survives
    # `python -O`.  The entry x_1 * x_1 x_2 leaves degree 3 for the monomial 1.
    code = textwrap.dedent("""
        from bottclass import catalog, cohomology
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        clean = cohomology._lane_masks
        def corrupted(n):
            lane, keep, squares, free, bad = clean(n)
            return lane, keep, squares, (free[0] | 1 << (0b00011 << n),) + free[1:], bad
        cohomology._lane_masks = corrupted
        try:
            cohomology.ring_of(catalog.DIM5_ORIENTED["A4"])
        except InvariantViolation as exc:
            print("raised:", exc)
    """)
    proc = _run_under_python_O(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"raised: reduction must preserve degree for {named(A4.n, A4.rows)}\n"


def _run_under_python_O(code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
