"""Spin/Spin^C detectors, the Clifford group, and the lift oracle."""
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bottclass import bieberbach, catalog, gf2, spin as spin_module
import itertools
import json

from bottclass.bieberbach import _ordered_product, _require_translation, generators_of, relators
from bottclass.bottmatrix import (
    BottMatrix,
    enumerate_strict_upper,
    is_orientable,
    op1,
    parse_matrix,
    to_json_dict,
    to_strict_upper,
)
from bottclass.cohomology import h2_real_is_zero, ring_of
from bottclass.gf2 import echelon, kernel_basis, parity, reduce_into, solve
from bottclass.spin import (
    PART_I,
    PART_II,
    CliffordElement,
    NonOrientable,
    SpinLift,
    _mul_sign,
    _verify_lift,
    clifford_inv,
    clifford_mul,
    has_spin,
    spin_lift_search,
    spinc_obstructed,
    odd_overlap_witness,
    disjoint_rows_witness,
)

A4 = catalog.DIM5_ORIENTED["A4"]
A23 = catalog.DIM5_ORIENTED["A23"]
A29 = catalog.DIM5_ORIENTED["A29"]
A37 = catalog.DIM5_ORIENTED["A37"]
A40 = catalog.DIM5_ORIENTED["A40"]
A48 = catalog.DIM5_ORIENTED["A48"]
A49 = catalog.DIM5_ORIENTED["A49"]


# --- exhaustive-scan oracles for the detectors --------------------------------

def part1_oracle(m):
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if m.entry(i, j):
                continue
            overlap = bin(m.rows[i] & m.rows[j]).count("1")
            if overlap % 2 == 1:
                return (i, j, overlap)
    return None


def part2_oracle(m):
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if not m.entry(i, j):
                continue
            wi = bin(m.rows[i]).count("1")
            wj = bin(m.rows[j]).count("1")
            if wi and wj and wi % 4 == 2 and wj % 4 == 2 and m.rows[i] & m.rows[j] == 0:
                return (i, j)
    return None


# --- Clifford sign bookkeeping --------------------------------------------------

def test_e1e2_squared_is_minus_one():
    x = CliffordElement(5, 1, 0b11)
    assert clifford_mul(x, x) == CliffordElement(5, -1, 0)


def test_identity_is_neutral():
    x = CliffordElement(4, -1, 0b1010)
    e = CliffordElement.identity(4)
    assert clifford_mul(x, e) == x
    assert clifford_mul(e, x) == x


def test_anticommutation():
    e1 = CliffordElement(3, 1, 0b001)
    e2 = CliffordElement(3, 1, 0b010)
    ab = clifford_mul(e1, e2)
    ba = clifford_mul(e2, e1)
    assert ab.support == ba.support == 0b011
    assert ab.sign == -ba.sign


def test_generator_square_is_minus_one():
    e3 = CliffordElement(4, 1, 0b100)
    assert clifford_mul(e3, e3) == CliffordElement(4, -1, 0)


@given(st.integers(1, 6), st.data())
def test_clifford_associative(n, data):
    def elem():
        return CliffordElement(
            n,
            data.draw(st.sampled_from((-1, 1))),
            data.draw(st.integers(0, (1 << n) - 1)),
        )

    a, b, c = elem(), elem(), elem()
    assert clifford_mul(clifford_mul(a, b), c) == clifford_mul(a, clifford_mul(b, c))


def test_even_support_square_sign():
    # (e_{i1}...e_{i2m})^2 = (-1)^m
    for n, support in [(4, 0b0011), (5, 0b11110), (6, 0b111100), (6, 0b111111)]:
        x = CliffordElement(n, 1, support)
        m_half = bin(support).count("1") // 2
        assert clifford_mul(x, x).sign == (-1) ** m_half


def test_clifford_inverse():
    x = CliffordElement(5, -1, 0b1101)
    assert clifford_mul(x, clifford_inv(x)) == CliffordElement.identity(5)


# --- obstruction detectors ------------------------------------------------------------

def test_part1_a4_witness():
    w = odd_overlap_witness(A4)
    assert (w.i, w.j, w.data) == (0, 2, (1,))  # rows 1 and 3, overlap 1
    assert w.kind == PART_I and w.verify(A4)
    assert part1_oracle(A4) == (0, 2, 1)


def test_part1_a40_a48_witness():
    for m in (A40, A48):
        w = odd_overlap_witness(m)
        assert (w.i, w.j) == (0, 1)
        assert w.verify(m)


def test_part1_absent_on_zero_matrix():
    assert odd_overlap_witness(BottMatrix(4, (0, 0, 0, 0))) is None


def test_part2_a23_witness():
    w = disjoint_rows_witness(A23)
    assert (w.i, w.j, w.data) == (0, 2, (2, 2))
    assert w.kind == PART_II and w.verify(A23)


def test_part2_absent_on_a29():
    assert disjoint_rows_witness(A29) is None  # only one nonzero row


def test_star_family_all_zero_member():
    m = catalog.star_family_member(0)
    w1 = odd_overlap_witness(m)
    assert (w1.i, w1.j) == (0, 1)
    # row 1 has support of size 4 (not 2 mod 4), so part 2 stays silent
    assert disjoint_rows_witness(m) is None


def test_detectors_match_scan_oracles_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            if not is_orientable(m):
                continue
            got1 = odd_overlap_witness(m)
            assert (got1 and (got1.i, got1.j, got1.data[0])) == part1_oracle(m) or (
                got1 is None and part1_oracle(m) is None
            )
            got2 = disjoint_rows_witness(m)
            exp2 = part2_oracle(m)
            assert (got2 is None) == (exp2 is None)
            if got2:
                assert (got2.i, got2.j) == exp2


def test_detectors_independent_of_labelling_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            if not is_orientable(m):
                continue
            fires = (odd_overlap_witness(m) is not None, disjoint_rows_witness(m) is not None)
            for perm in itertools.permutations(range(n)):
                q = op1(m, perm)
                w1, w2 = odd_overlap_witness(q), disjoint_rows_witness(q)
                assert (w1 is not None, w2 is not None) == fires
                assert all(w.verify(q) for w in (w1, w2) if w is not None)


@pytest.mark.parametrize("rows", [
    ("000101", "000000", "000101", "010001", "000101", "000000"),
    ("0000000", "0000000", "0100010", "1010011", "0000000", "0000000", "0100010"),
])
def test_no_witness_on_relabelled_spin_manifolds(rows):
    # a[j][i] = 1 for a pair i < j with a[i][j] = 0 and odd overlap: not Part I
    m = parse_matrix(f"{len(rows)}\n" + "\n".join(rows))
    assert has_spin(m) and spin_lift_search(m) is not None
    assert odd_overlap_witness(m) is None
    assert disjoint_rows_witness(m) is None
    assert not spinc_obstructed(m)


def test_detectors_require_orientability():
    bad = BottMatrix(3, (0b010, 0, 0))
    for fn in (odd_overlap_witness, disjoint_rows_witness, has_spin, spinc_obstructed, spin_lift_search):
        with pytest.raises(NonOrientable):
            fn(bad)


# --- Spin / Spin^C ------------------------------------------------------------------

def test_has_spin_catalog():
    assert has_spin(A29)
    assert has_spin(A37)
    assert has_spin(A49)
    assert not has_spin(A4)
    assert not has_spin(A23)
    assert not has_spin(A40)
    assert not has_spin(A48)


def test_spinc_obstructed_examples():
    assert spinc_obstructed(A4)
    assert not spinc_obstructed(A23)  # columns 4,5 equal: criterion silent
    assert not spinc_obstructed(BottMatrix(5, (0,) * 5))


def test_spinc_implies_no_spin_and_h2_zero():
    for name, m in catalog.DIM5_ORIENTED.items():
        if spinc_obstructed(m):
            assert not has_spin(m)
            assert h2_real_is_zero(m)


def test_lift_on_torus_is_trivial():
    m = BottMatrix(4, (0, 0, 0, 0))
    assert spin_lift_search(m) == SpinLift(0, 0)


def test_lift_absent_on_a23():
    assert spin_lift_search(A23) is None


def test_lift_agrees_with_w2_criterion_n_le_4():
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            if not is_orientable(m):
                continue
            assert (spin_lift_search(m) is not None) == has_spin(m)


def test_rank1_oriented_always_spin_n_le_5():
    # flat oriented manifolds with Z2 holonomy carry a Spin structure
    from bottclass.gf2 import rank_masks

    for n in range(2, 6):
        for m in enumerate_strict_upper(n):
            if is_orientable(m) and rank_masks(m.rows) == 1:
                assert has_spin(m)


def test_detectors_sound_against_w2_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            if not is_orientable(m):
                continue
            if odd_overlap_witness(m) or disjoint_rows_witness(m):
                assert not ring_of(m).stiefel_whitney(2).is_zero()


def test_lift_matches_w2_all_oriented_n6():
    # Acceptance 6 checks n <= 5; this extends the lift oracle to n = 6.
    checked = spin = 0
    for m in enumerate_strict_upper(6):
        if not is_orientable(m):
            continue
        w2_zero = ring_of(m).stiefel_whitney(2).is_zero()
        assert (spin_lift_search(m) is not None) == w2_zero, m.rows
        checked += 1
        spin += w2_zero
    assert checked == 1024
    assert 0 < spin < checked


# --- the chi-major double loop, kept as the oracle for the GF(2) solve -----------

def brute_force_lift(m):
    """First lift in chi-major counting order by trying every (chi, sigma),
    with the constraints gathered through honest compose chains."""
    if not m.is_strictly_upper:
        _, m = to_strict_upper(m)
    n = m.n
    pres = generators_of(m)
    gens = pres.generators
    basis2 = pres.lattice.basis2
    coords = pres.lattice.coords_mod2

    active = [i for i, g in enumerate(gens) if not g.is_translation]
    supports = {i: gens[i].exponent_mask for i in active}
    chi_constraints = []
    for i in active:
        sq = gens[i].compose(gens[i])
        chi_constraints.append((coords(sq.trans2), (bin(supports[i]).count("1") // 2) & 1))
    for ai, i in enumerate(active):
        for j in active[ai + 1:]:
            comm = gens[i].compose(gens[j]).compose(gens[i].inverse()).compose(gens[j].inverse())
            assert comm.is_translation
            chi_constraints.append((coords(comm.trans2), parity(supports[i] & supports[j])))
    for row_idx, row in enumerate(basis2):
        for i in active:
            conj = tuple(-t if (gens[i].exponent_mask >> j) & 1 else t
                         for j, t in enumerate(row))
            chi_constraints.append((coords(conj) ^ (1 << row_idx), 0))
    rows = [sum(1 << pos for pos, i in enumerate(active) if (supports[i] >> c) & 1)
            for c in range(n)]
    mixed = []
    if active:
        for kvec in kernel_basis(len(active), rows):
            subset = [active[pos] for pos in range(len(active)) if (kvec >> pos) & 1]
            prod = _ordered_product(gens, subset)
            _require_translation(prod, "kernel product")
            cliff = CliffordElement.identity(n)
            for i in subset:
                cliff = clifford_mul(cliff, CliffordElement(n, 1, supports[i]))
            assert cliff.support == 0
            mixed.append((kvec, coords(prod.trans2), 0 if cliff.sign == 1 else 1))
    for chi in range(1 << len(basis2)):
        if any(parity(chi & cmask) != bit for cmask, bit in chi_constraints):
            continue
        for sigma in range(1 << len(active)):
            if all((parity(sigma & smask) ^ parity(chi & cmask)) == bit
                   for smask, cmask, bit in mixed):
                signs = 0
                for pos, i in enumerate(active):
                    signs |= ((sigma >> pos) & 1) << i
                for i, g in enumerate(gens):
                    if g.is_translation:
                        signs |= parity(chi & coords(g.trans2)) << i
                return SpinLift(signs, chi)
    return None


def random_oriented_strict_upper(rng, n):
    """Uniform oriented strictly upper matrix: free entries left of the
    last column, which fixes each row's parity."""
    rows = []
    for i in range(n):
        r = 0
        for j in range(i + 1, n - 1):
            r |= rng.getrandbits(1) << j
        if parity(r):
            r |= 1 << (n - 1)
        rows.append(r)
    return BottMatrix(n, tuple(rows))


def assert_same_lift(m):
    assert spin_lift_search(m) == brute_force_lift(m), m.rows


def test_lift_solve_matches_brute_force_all_oriented_n6():
    checked = 0
    for m in enumerate_strict_upper(6):
        if is_orientable(m):
            assert_same_lift(m)
            checked += 1
    assert checked == 1024


def test_lift_solve_matches_brute_force_permuted_n6_to_8():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(6, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        assert_same_lift(op1(random_oriented_strict_upper(rng, n), perm))


def lift_system(m):
    """The GF(2) system of the lift search with every invariance row, each
    coordinate read by `TransLattice.coords_mod2`: the presentation of the
    strictly upper form of m, the number of unknowns, the rows of the
    relators the generic route `relators` lists for its generators as
    (word, mask over x, required bit), and the invariance rows (mask over
    x, required bit 0), one per (basis row, active generator) pair."""
    _, m = to_strict_upper(m)
    pres = generators_of(m)
    gens = pres.generators
    basis2 = pres.lattice.basis2
    coords = pres.lattice.coords_mod2
    active = [i for i, g in enumerate(gens) if not g.is_translation]
    position = {i: pos for pos, i in enumerate(active)}
    shift = len(active)
    relator_rows = []
    for rel in relators(gens):
        sigma = support = sign = 0
        chi = coords(rel.trans2)
        for letter in rel.word:
            i = letter if letter >= 0 else ~letter
            if gens[i].is_translation:
                chi ^= coords(gens[i].trans2)
                continue
            s = gens[i].exponent_mask
            sigma ^= 1 << position[i]
            if letter < 0:
                sign ^= _mul_sign(s, s)
            sign ^= _mul_sign(support, s)
            support ^= s
        assert support == 0
        relator_rows.append((rel.word, sigma | chi << shift, sign))
    invariance_rows = []
    for row_idx, row in enumerate(basis2):
        for i in active:
            conj = tuple(-t if (gens[i].exponent_mask >> j) & 1 else t
                         for j, t in enumerate(row))
            invariance_rows.append((coords(conj) ^ (1 << row_idx)) << shift)
    return pres, shift + len(basis2), relator_rows, invariance_rows


def coords_route_lift(m):
    """Oracle for spin_lift_search that keeps every invariance row: the
    same least solution of the same GF(2) solve, over the relator rows plus
    an invariance row for every (basis row, active generator) pair, which
    the lemma in the `spin_lift_search` docstring proves redundant."""
    pres, width, relator_rows, invariance_rows = lift_system(m)
    gens = pres.generators
    coords = pres.lattice.coords_mod2
    active = [i for i, g in enumerate(gens) if not g.is_translation]
    shift = len(active)
    constraints = {(mask, bit): None for _, mask, bit in relator_rows}
    constraints.update(((mask, 0), None) for mask in invariance_rows)
    constraints.pop((0, 0), None)
    x = 0
    if constraints:
        masks = tuple(mask for mask, _ in constraints)
        rhs = sum(bit << k for k, (_, bit) in enumerate(constraints))
        solved = solve(width, masks, rhs)
        if solved is None:
            return None
        x = solved[0]
    sigma, chi = x & ((1 << shift) - 1), x >> shift
    signs = sum(((sigma >> pos) & 1) << i for pos, i in enumerate(active))
    signs |= sum(parity(chi & coords(g.trans2)) << i
                 for i, g in enumerate(gens) if g.is_translation)
    return SpinLift(signs, chi)


def assert_lift_matches_coords_route(m):
    got = spin_lift_search(m)
    assert got == coords_route_lift(m), m.rows
    return got is not None


def test_lift_matches_the_coords_route_all_oriented_n_le_5():
    checked = found = 0
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            if is_orientable(m):
                found += assert_lift_matches_coords_route(m)
                checked += 1
    assert checked == 1 + 1 + 2 + 8 + 64
    assert 0 < found < checked


def test_lift_matches_the_coords_route_seeded_permuted_n6_to_9():
    rng = random.Random(8)
    found = 0
    for n in (6, 7, 8, 9):
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            found += assert_lift_matches_coords_route(op1(random_oriented_strict_upper(rng, n), perm))
    assert 0 < found < 400


class RecordingGf2:
    """The gf2 module as `spin` sees it, recording each `solve` call that
    `spin` makes itself (not those inside `kernel_basis`)."""

    def __init__(self):
        self.solved = []

    def __getattr__(self, name):
        return getattr(gf2, name)

    def solve(self, ncols, rows, rhs):
        self.solved.append((ncols, rows, rhs))
        return gf2.solve(ncols, rows, rhs)


def closed_form_row_space(m):
    """The augmented row space (reduced echelon form of mask | rhs << width)
    of the rows `spin_lift_search` hands to `gf2.solve`; no call, as when
    every row is trivial, gives the zero space."""
    recorder = RecordingGf2()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin_module, "gf2", recorder)
        spin_lift_search(m)
    assert len(recorder.solved) <= 1
    if not recorder.solved:
        return {}
    width, masks, rhs = recorder.solved[0]
    return echelon(mask | ((rhs >> k) & 1) << width for k, mask in enumerate(masks))


def seeded_permuted_n7_to_9(seed, count):
    rng = random.Random(seed)
    for n in (7, 8, 9):
        for _ in range(count):
            perm = list(range(n))
            rng.shuffle(perm)
            yield op1(random_oriented_strict_upper(rng, n), perm)


def test_closed_form_rows_span_the_relator_rows_n_le_6_and_permuted_n7_to_9():
    # The rows written from A are those of the relator walk of lift_system
    # up to the order and duplicates: the same augmented row space, so the
    # same solutions and the same verdict, inconsistency included.  Teeth: a
    # wrong row that leaves every least lift unchanged (chi of s_n's own
    # word forced to 0) still changes the space.
    def matrices():
        for n in range(1, 7):
            yield from (m for m in enumerate_strict_upper(n) if is_orientable(m))
        yield from seeded_permuted_n7_to_9(11, 60)

    checked = inconsistent = 0
    for m in matrices():
        _, width, relator_rows, _ = lift_system(m)
        expected = echelon(mask | bit << width for _, mask, bit in relator_rows)
        assert closed_form_row_space(m) == expected, m.rows
        checked += 1
        inconsistent += 1 << width in expected
    assert checked == 1100 + 180
    assert 0 < inconsistent < checked


def test_gamma_is_built_once_per_lift_found_and_never_for_none(monkeypatch):
    built = []
    real = bieberbach.generators_of
    monkeypatch.setattr(bieberbach, "generators_of", lambda m: built.append(m) or real(m))

    def matrices():
        for n in range(1, 6):
            yield from (m for m in enumerate_strict_upper(n) if is_orientable(m))
        yield from seeded_permuted_n7_to_9(12, 20)

    found = checked = 0
    for m in matrices():
        before = len(built)
        lift = spin_lift_search(m)
        assert len(built) - before == (lift is not None), m.rows
        if lift is not None:
            assert built[-1] == to_strict_upper(m)[1]
            found += 1
        checked += 1
    assert 0 < found < checked


def in_span(rows, row):
    basis = {}
    reduce_into(basis, rows)
    return not reduce_into(basis, (row,))


def test_commutator_rows_imply_the_invariance_rows_n_le_6_and_permuted_n7_to_9():
    # The lemma of spin_lift_search: each invariance row is a sum of
    # commutator rows, right-hand side included, so wherever the relator
    # rows are consistent they imply it.  Teeth: the squares and kernel
    # rows alone, where consistent, leave some invariance row free.
    def matrices():
        for n in range(1, 7):
            yield from (m for m in enumerate_strict_upper(n) if is_orientable(m))
        rng = random.Random(10)
        for n in (7, 8, 9):
            for _ in range(60):
                perm = list(range(n))
                rng.shuffle(perm)
                yield op1(random_oriented_strict_upper(rng, n), perm)

    checked = loose = 0
    for m in matrices():
        _, width, relator_rows, invariance_rows = lift_system(m)
        commutators = [mask | bit << width for word, mask, bit in relator_rows
                       if any(letter < 0 for letter in word)]
        others = [mask | bit << width for word, mask, bit in relator_rows
                  if all(letter >= 0 for letter in word)]
        for row in invariance_rows:
            assert in_span(commutators, row), m.rows
        checked += 1
        if not in_span(others, 1 << width) and not all(in_span(others, row)
                                                        for row in invariance_rows):
            loose += 1
    assert checked == 1 + 1 + 2 + 8 + 64 + 1024 + 180
    assert loose == 240 + 61


def transposition_sign(a, b):
    """Oracle for _mul_sign: bubble-sort the factors of e_a e_b, one -1 per
    adjacent swap, then one -1 per e_i e_i = -1."""
    word = [i for i in range(a.bit_length()) if (a >> i) & 1]
    word += [i for i in range(b.bit_length()) if (b >> i) & 1]
    swaps = 0
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                swaps += 1
    return (swaps + (a & b).bit_count()) & 1


def test_mul_sign_counts_transpositions_and_squares():
    for a in range(1 << 6):
        for b in range(1 << 6):
            assert _mul_sign(a, b) == transposition_sign(a, b), (a, b)
    rng = random.Random(9)
    for _ in range(2000):
        a, b = rng.getrandbits(rng.randint(1, 40)), rng.getrandbits(rng.randint(1, 40))
        assert _mul_sign(a, b) == transposition_sign(a, b), (a, b)


def kernel_words(pres):
    """The kernel relators with an active letter: ascending words of
    distinct generators.  Squares repeat a letter, commutators hold inverse
    letters, and a translation generator alone has no active letter."""
    gens = pres.generators
    return [rel.word for rel in relators(gens)
            if all(letter >= 0 for letter in rel.word) and len(set(rel.word)) == len(rel.word)
            and any(not gens[letter].is_translation for letter in rel.word)]


def test_verify_lift_rejects_a_sign_flipped_inside_a_kernel_relator_n_le_6():
    # Squares and commutators hold each sign twice, so only a kernel
    # relator sees a single flipped generator sign.
    flipped = {}
    for n in range(1, 7):
        for m in enumerate_strict_upper(n):
            lift = spin_lift_search(m) if is_orientable(m) else None
            if lift is None:
                continue
            pres = generators_of(m)
            words = kernel_words(pres)
            if not words:
                continue
            assert _verify_lift(pres, lift), m.rows
            i = words[0][0]
            assert not _verify_lift(pres, SpinLift(lift.signs ^ 1 << i, lift.character)), m.rows
            flipped[m.rows] = (i, (lift.signs >> i) & 1)
    assert len(flipped) == 62
    smallest = parse_matrix("4\n0011\n0011\n0000\n0000").rows
    assert flipped[smallest] == (0, 1)  # generator 0 maps to -e_S


def test_failed_lift_recheck_raises_under_python_O():
    # Both checks of spin_lift_search raise InvariantViolation, not assert,
    # and name the matrix as given in its {"n", "rows"} form: the kernel
    # word whose sign monomials do not multiply to +-1 (a kernel basis
    # broken to return generator 0 alone) and the failed re-check.  The
    # input is not strictly upper; its strictly upper form is 0011, 0011,
    # 0000, 0000, which has a lift.
    code = textwrap.dedent("""
        from bottclass import gf2, spin
        from bottclass.bottmatrix import parse_matrix
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        m = parse_matrix("4\\n0000\\n0000\\n1100\\n1100")
        kernel_basis = gf2.kernel_basis
        gf2.kernel_basis = lambda ncols, rows: [1]
        try:
            spin.spin_lift_search(m)
        except InvariantViolation as exc:
            print("raised:", exc)
        gf2.kernel_basis = kernel_basis
        spin._verify_lift = lambda pres, lift: False
        try:
            spin.spin_lift_search(m)
        except InvariantViolation as exc:
            print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    given = json.dumps(to_json_dict(parse_matrix("4\n0000\n0000\n1100\n1100")))
    assert given == '{"n": 4, "rows": ["0000", "0000", "1100", "1100"]}'
    assert proc.stdout.splitlines() == [
        f"raised: kernel word (0,) of sign monomials is not +-1 for {given}",
        f"raised: lift found for {given} fails the relation check",
    ]


def all_oriented_strict_upper(n):
    """Every oriented strictly upper n x n matrix: free entries left of the
    last column, which fixes each row's parity."""
    top = 1 << (n - 1)
    choices = [[r | top if parity(r) else r
                for r in range(0, top, 2 << i)] for i in range(n - 1)] + [[0]]
    for rows in itertools.product(*choices):
        yield BottMatrix(n, rows)


def test_lift_matches_w2_all_oriented_n7():
    # Acceptance 6 checks n <= 5 and the test above n = 6; this runs the
    # two routes on every oriented n = 7 matrix.
    checked = spin = 0
    for m in all_oriented_strict_upper(7):
        w2_zero = ring_of(m).stiefel_whitney(2).is_zero()
        assert (spin_lift_search(m) is not None) == w2_zero, m.rows
        checked += 1
        spin += w2_zero
    assert checked == 1 << 15
    assert spin == 1482


def test_has_spin_matches_ring_under_relabelling_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            if not is_orientable(m):
                continue
            for perm in itertools.permutations(range(n)):
                q = op1(m, perm)
                assert has_spin(q) == ring_of(q).stiefel_whitney(2).is_zero(), q.rows


def test_lattice_coords_outside_the_lattice_raise_under_python_O():
    # A vector outside the lattice (a pivot that does not divide it, or an
    # entry off the pivot columns) raises InvariantViolation, not assert, so
    # the check survives `python -O`.
    code = textwrap.dedent("""
        from bottclass.gf2 import InvariantViolation
        from bottclass.bieberbach import TransLattice
        assert not __debug__
        for basis2, vec in [(((2, 0), (0, 2)), (1, 0)), (((2, 0),), (0, 2))]:
            try:
                TransLattice(len(vec), basis2).coords_mod2(vec)
            except InvariantViolation as exc:
                print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised: (1, 0) is not in the lattice",
                                        "raised: (0, 2) is not in the lattice"]

