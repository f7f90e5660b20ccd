"""Bieberbach groups: generators, group law, lattices, torsion, conjugation."""
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bottclass import catalog, gf2
from bottclass.bieberbach import (
    AffineIso,
    NotStrictlyUpper,
    TransLattice,
    _exponent_matrix,
    _pivot_generators,
    _torsion_free_over_z,
    commutator_trans2,
    conjugate_by_perm,
    coset_reps,
    format_iso,
    from_generators,
    generators_of,
    holonomy_rep,
    is_torsion_free,
    lattice_of,
    gamma_n_generators,
    member,
    relators,
    tower_conjugation_report,
    squares_lattice_rank,
    superdiagonal_matrix,
    verify_tower_conjugation,
)
from bottclass.bottmatrix import BottMatrix, enumerate_strict_upper, to_json_dict
from bottclass.gf2 import DimensionMismatch, InvariantViolation, UsageError, rank_masks

A4 = catalog.DIM5_ORIENTED["A4"]


def word_closure(gens, max_len):
    """Oracle: all group elements expressible as words of length <= max_len
    over the generators and their inverses."""
    alphabet = list(gens) + [g.inverse() for g in gens]
    seen = {AffineIso.identity(gens[0].n)}
    frontier = list(seen)
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in alphabet:
                c = w.compose(a)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


# --- affine isometry algebra -------------------------------------------------

def random_iso(data, n):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    trans2 = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
    return AffineIso(mask, trans2)


def mask_of(signs):
    """The exponent mask of a diagonal +-1 tuple: bit j where it is -1."""
    return sum(1 << j for j, s in enumerate(signs) if s == -1)


def signs_of(a):
    """The diagonal of a's linear part as a +-1 tuple."""
    return tuple(-1 if (a.exponent_mask >> j) & 1 else 1 for j in range(a.n))


# Oracle for the mask arithmetic: an isometry is read back from what it does
# to points (doubled coordinates), with x -> D x + t applied literally on
# +-1 tuples.  t is the image of 0 and D_jj the j-th coordinate of the
# image of 2 e_j, less t, halved.

def act(a, x):
    return tuple(s * xj + t for s, xj, t in zip(signs_of(a), x, a.trans2))


def act_inverse(a, y):
    """The x with D x + t = y."""
    return tuple(s * (yj - t) for s, yj, t in zip(signs_of(a), y, a.trans2))


def read_back(n, f):
    t = f((0,) * n)
    signs = tuple((f(tuple(2 if k == j else 0 for k in range(n)))[j] - t[j]) // 2
                  for j in range(n))
    return signs, t


@given(st.integers(1, 6), st.data())
def test_group_law_on_masks_matches_the_signs_oracle(n, data):
    g, h = random_iso(data, n), random_iso(data, n)
    perm = data.draw(st.permutations(range(n)))

    def as_pair(a):
        return signs_of(a), a.trans2

    assert as_pair(g.compose(h)) == read_back(n, lambda x: act(g, act(h, x)))
    assert as_pair(g.inverse()) == read_back(n, lambda y: act_inverse(g, y))
    assert ((1,) * n, commutator_trans2(g, h)) == read_back(
        n, lambda x: act(g, act(h, act_inverse(g, act_inverse(h, x)))))

    def permute(x):  # (P x)[perm[i]] = x[i]
        out = [0] * n
        for i, xi in enumerate(x):
            out[perm[i]] = xi
        return tuple(out)

    def unpermute(y):
        return tuple(y[perm[i]] for i in range(n))

    assert as_pair(conjugate_by_perm(perm, g)) == read_back(
        n, lambda x: permute(act(g, unpermute(x))))


@given(st.integers(1, 5), st.data())
def test_compose_inverse_identity(n, data):
    a = random_iso(data, n)
    assert a.compose(a.inverse()) == AffineIso.identity(n)
    assert a.inverse().compose(a) == AffineIso.identity(n)


@given(st.integers(1, 5), st.data())
def test_compose_associative(n, data):
    a, b, c = (random_iso(data, n) for _ in range(3))
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(st.integers(1, 5), st.data())
def test_products_and_inverses_pass_validation(n, data):
    # compose and inverse skip __post_init__; their results must still be
    # what the validating constructor builds from the same fields
    a, b = random_iso(data, n), random_iso(data, n)
    for p in (a.compose(b), a.inverse(), a.compose(b).inverse()):
        q = AffineIso(p.exponent_mask, p.trans2)
        assert q == p and hash(q) == hash(p)


def test_public_constructors_validate_under_python_O():
    code = textwrap.dedent("""
        from bottclass.bieberbach import AffineIso
        assert not __debug__
        for make in (lambda: AffineIso(True, (0, 0)),
                     lambda: AffineIso(-1, (0, 0)),
                     lambda: AffineIso(0b100, (0, 0)),  # wider than trans2
                     lambda: AffineIso(1.0, (0, 0)),
                     lambda: AffineIso(0, ()),
                     # exact ints only: a float or bool would break the
                     # doubled-integer group law, which compose does not re-check
                     lambda: AffineIso(0b10, (0, 0.5)),
                     lambda: AffineIso(0b10, (False, 0)),
                     lambda: AffineIso(0b10, ("1", 0)),
                     lambda: AffineIso((1, -1), (0, 0))):  # a +-1 tuple is no mask
            try:
                make()
            except ValueError:
                print("raised")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised"] * 9


def chain_commutator(g, h):
    return g.compose(h).compose(g.inverse()).compose(h.inverse())


def assert_commutator_matches_chain(g, h):
    c = chain_commutator(g, h)
    assert c.is_translation
    assert commutator_trans2(g, h) == c.trans2


def test_commutator_helper_matches_compose_chain():
    groups = [generators_of(m).generators for n in range(1, 6) for m in enumerate_strict_upper(n)]
    groups += [gamma_n_generators(n).generators for n in range(2, 9)]
    for gens in groups:
        for g, h in itertools.permutations(gens, 2):
            assert_commutator_matches_chain(g, h)


@given(st.integers(1, 5), st.data())
def test_commutator_helper_matches_compose_chain_random(n, data):
    assert_commutator_matches_chain(random_iso(data, n), random_iso(data, n))


def test_compose_translations_add():
    a = AffineIso(0, (1, 0))
    b = AffineIso(0, (0, 3))
    assert a.compose(b) == AffineIso(0, (1, 3))


def test_generator_commutators_are_translations():
    pres = generators_of(A4)
    for i, g in enumerate(pres.generators):
        for h in pres.generators[i + 1:]:
            comm = g.compose(h).compose(g.inverse()).compose(h.inverse())
            assert comm.is_translation


# --- generators ---------------------------------------------------------------

def test_generators_of_zero_matrix():
    pres = generators_of(BottMatrix(3, (0, 0, 0)))
    assert pres.generators[0] == AffineIso(0, (1, 0, 0))
    assert pres.generators[1] == AffineIso(0, (0, 1, 0))
    assert pres.generators[2] == AffineIso(0, (0, 0, 2))


def test_generators_of_superdiagonal():
    pres = generators_of(superdiagonal_matrix(4))
    # s_i flips exactly the sign at position i+1
    for i in range(3):
        assert pres.generators[i].exponent_mask == 1 << (i + 1)
        assert pres.generators[i].trans2 == tuple(1 if j == i else 0 for j in range(4))


def test_generator_squares_are_unit_translations():
    for m in [A4, catalog.DIM5_ORIENTED["A29"], superdiagonal_matrix(5)]:
        pres = generators_of(m)
        for i in range(m.n - 1):
            sq = pres.generators[i].compose(pres.generators[i])
            assert sq == AffineIso(0, tuple(2 if j == i else 0 for j in range(m.n)))


def test_generators_require_strict_upper():
    sub = BottMatrix(2, (0, 1))
    with pytest.raises(NotStrictlyUpper):
        generators_of(sub)


def test_gamma_n_generators_klein_bottle():
    pres = gamma_n_generators(2)
    assert pres.generators[0] == AffineIso(0, (2, 0))
    assert pres.generators[1] == AffineIso(1, (0, 1))
    assert pres.point_rank == 1


def test_gamma_n_generators_squares():
    for n in (2, 3, 5):
        pres = gamma_n_generators(n)
        for i in range(1, n):
            sq = pres.generators[i].compose(pres.generators[i])
            assert sq == AffineIso(0, tuple(2 if j == i else 0 for j in range(n)))


def test_gamma_n_generators_gamma3_has_two_sign_flips():
    pres = gamma_n_generators(3)
    flips = [g for g in pres.generators if not g.is_translation]
    assert len(flips) == 2
    with pytest.raises(ValueError):
        gamma_n_generators(1)


# --- translation lattices -------------------------------------------------------

def test_torus_lattice_n2():
    pres = generators_of(BottMatrix(2, (0, 0)))
    # N = (1/2)Z x Z, doubled basis ((1,0),(0,2))
    assert pres.lattice.basis2 == ((1, 0), (0, 2))


def test_klein_bottle_lattice():
    pres = gamma_n_generators(2)
    assert pres.lattice.basis2 == ((2, 0), (0, 2))  # N = Z e1 + Z e2


def test_gamma_a_lattice_contains_unit_lattice():
    for m in [A4, catalog.DIM5_ORIENTED["A23"], superdiagonal_matrix(4)]:
        pres = generators_of(m)
        for i in range(m.n):
            e2 = tuple(2 if j == i else 0 for j in range(m.n))
            assert pres.lattice.contains2(e2)


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_matches_word_closure(n):
    for m in enumerate_strict_upper(n):
        pres = generators_of(m)
        words = word_closure(pres.generators, 2 * n)
        translations = [w for w in words if w.is_translation]
        for t in translations:
            assert pres.lattice.contains2(t.trans2)
        for row in pres.lattice.basis2:
            assert AffineIso(0, row) in words


def test_gamma_n_lattice_matches_word_closure():
    for n in (2, 3):
        pres = gamma_n_generators(n)
        words = word_closure(pres.generators, 2 * n + 2)
        for w in words:
            if w.is_translation:
                assert pres.lattice.contains2(w.trans2)
        for row in pres.lattice.basis2:
            assert AffineIso(0, row) in words


def test_lattice_of_sampled_n4_against_closure():
    rng = random.Random(7)
    mats = list(enumerate_strict_upper(4))
    for m in rng.sample(mats, 6):
        pres = generators_of(m)
        words = word_closure(pres.generators, 6)
        for w in words:
            if w.is_translation:
                assert pres.lattice.contains2(w.trans2)


# --- membership ------------------------------------------------------------------

def test_generators_are_members():
    pres = generators_of(A4)
    for g in pres.generators:
        assert member(g, pres)


def test_half_half_not_in_torus_group():
    pres = generators_of(BottMatrix(2, (0, 0)))
    assert not member(AffineIso(0, (1, 1)), pres)


def test_random_words_are_members():
    rng = random.Random(3)
    for m in [A4, superdiagonal_matrix(4)]:
        pres = generators_of(m)
        alphabet = list(pres.generators) + [g.inverse() for g in pres.generators]
        for _ in range(20):
            w = AffineIso.identity(m.n)
            for _ in range(6):
                w = w.compose(rng.choice(alphabet))
            assert member(w, pres)


def test_non_members_rejected():
    pres = generators_of(BottMatrix(2, (0b10, 0)))  # Klein bottle as Gamma(A)
    # a translation outside N
    assert not member(AffineIso(0, (0, 1)), pres)
    # a sign pattern outside the point group
    assert not member(AffineIso(0b11, (0, 0)), pres)


# --- torsion and holonomy ---------------------------------------------------------

def test_gamma_a_torsion_free_n_le_4():
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            assert is_torsion_free(generators_of(m))


def test_gamma_n_torsion_free():
    for n in range(2, 9):
        assert is_torsion_free(gamma_n_generators(n))


def test_reflection_group_has_torsion():
    pres = from_generators([AffineIso(1, (0, 0))])
    assert not is_torsion_free(pres)


def test_point_reflection_has_torsion():
    pres = from_generators([AffineIso(0b11, (1, 0))])
    assert not is_torsion_free(pres)


def contains_unit_lattice(p):
    """Oracle for TransLattice.mod2_rows: does N hold every e_i (doubled:
    2 e_i), by integer membership?"""
    n = p.n
    return all(p.lattice.contains2(tuple(2 if j == i else 0 for j in range(n))) for i in range(n))


def random_affine_lists(rng, count):
    """Seeded generator lists at n <= 4: random signs with translations in
    {-1, 0, 1, 2}, some with unit translations (I, 2 e_i) added, so the
    lattices hold Z^n in some lists and not in others."""
    lists = []
    for _ in range(count):
        n = rng.randint(1, 4)
        gens = [AffineIso(mask_of(tuple(rng.choice((-1, 1)) for _ in range(n))),
                          tuple(rng.choice((-1, 0, 1, 2)) for _ in range(n)))
                for _ in range(rng.randint(1, 3))]
        gens += [AffineIso(0, tuple(2 if j == i else 0 for j in range(n)))
                 for i in range(n) if rng.random() < 0.5]
        rng.shuffle(gens)
        lists.append(gens)
    return lists


def test_mod2_torsion_route_matches_the_integer_route_seeded_lists():
    kinds = Counter()
    for gens in random_affine_lists(random.Random(19), 600):
        p = from_generators(gens)
        unit = contains_unit_lattice(p)
        assert (p.lattice.mod2_rows() is not None) == unit, gens
        free = is_torsion_free(p)
        assert free == _torsion_free_over_z(p), gens
        kinds[unit, free] += 1
    # both routes, and both answers on the mod-2 route, are exercised
    assert min(kinds[unit, free] for unit in (True, False) for free in (True, False)) > 20, kinds


def test_mod2_torsion_route_matches_the_integer_route_gamma_a_n_le_5():
    checked = 0
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            p = generators_of(m)
            assert p.lattice.mod2_rows() is not None and contains_unit_lattice(p), m.rows
            assert is_torsion_free(p) and _torsion_free_over_z(p), m.rows
            checked += 1
    assert checked == 1099


def test_mod2_torsion_route_small_examples():
    # Z^2 extended by (diag(-1, 1), (0, 1/2)) and (diag(1, -1), (1/2, 0)):
    # their product (-I, (-1/2, 1/2)) is a point reflection, so only the
    # coset of -I holds torsion.  In the Klein bottle group the one
    # nontrivial coset is torsion-free by its translation bit alone.
    gens = [AffineIso(1, (0, 1)), AffineIso(0b10, (1, 0)),
            AffineIso(0, (2, 0)), AffineIso(0, (0, 2))]
    p = from_generators(gens)
    assert p.lattice.mod2_rows() == [0, 0]
    assert not is_torsion_free(p) and not _torsion_free_over_z(p)
    klein = from_generators([AffineIso(1, (0, 1)), AffineIso(0, (2, 0)),
                             AffineIso(0, (0, 2))])
    assert is_torsion_free(klein) and _torsion_free_over_z(klein)


def test_holonomy_rep_is_the_signs_of_coset_reps():
    presentations = oracle_presentations()
    presentations += [from_generators(gens) for gens in random_affine_lists(random.Random(23), 200)]
    for p in presentations:
        assert holonomy_rep(p) == [signs_of(r) for r in coset_reps(p)], p.generators


def test_mod2_rows_needs_a_full_rank_lattice_with_z_n():
    assert TransLattice(2, ((1, 1), (0, 2))).mod2_rows() == [0b11, 0]
    assert TransLattice(2, ((2, 0), (0, 2))).mod2_rows() == [0, 0]
    assert TransLattice(2, ((2, 1), (0, 2))).mod2_rows() is None  # (2, 0) is missing
    assert TransLattice(2, ((4, 0), (0, 2))).mod2_rows() is None
    assert TransLattice(2, ((1, 0),)).mod2_rows() is None  # rank 1
    with pytest.raises(InvariantViolation, match="echelon"):
        TransLattice(2, ((0, 1), (1, 0))).mod2_rows()


def rank_prefix_pivots(p):
    """Oracle for _pivot_generators: the generators that raise the rank of
    the exponent vectors before them."""
    masks = [g.exponent_mask for g in p.generators]
    return [i for i in range(len(masks)) if rank_masks(masks[:i + 1]) > rank_masks(masks[:i])]


def subset_product_reps(p):
    """Oracle for coset_reps: each representative built from the identity
    as the ascending product over a subset of the pivot generators."""
    pivots = rank_prefix_pivots(p)
    reps = []
    for code in range(1 << len(pivots)):
        acc = AffineIso.identity(p.n)
        for k, i in enumerate(pivots):
            if (code >> k) & 1:
                acc = acc.compose(p.generators[i])
        reps.append(acc)
    return reps


def test_coset_reps_match_subset_products_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            pres = generators_of(m)
            assert coset_reps(pres) == subset_product_reps(pres), m.rows


def random_generators(rng, n, count):
    """Generator lists with repeated and dependent exponent vectors."""
    signs = [tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    return [AffineIso(mask_of(rng.choice(signs + [(1,) * n])), (0,) * n) for _ in range(count)]


def oracle_presentations():
    """Gamma(A) for every strictly upper n <= 5, Gamma_n for n = 2..8, and
    200 seeded random generator lists."""
    presentations = [generators_of(m) for n in range(1, 6) for m in enumerate_strict_upper(n)]
    presentations += [gamma_n_generators(n) for n in range(2, 9)]
    rng = random.Random(11)
    presentations += [from_generators(random_generators(rng, rng.randint(1, 6), rng.randint(1, 7)))
                      for _ in range(200)]
    return presentations


def test_pivot_generators_match_rank_prefix_oracle():
    for p in oracle_presentations():
        assert _pivot_generators(p) == rank_prefix_pivots(p), p.generators


def evaluate_word(gens, word):
    """Oracle: the word as an honest compose chain, inverse letters through
    AffineIso.inverse."""
    acc = AffineIso.identity(gens[0].n)
    for letter in word:
        acc = acc.compose(gens[letter] if letter >= 0 else gens[~letter].inverse())
    return acc


def test_relators_evaluate_to_their_stored_translations():
    for p in oracle_presentations():
        for rel in relators(p.generators):
            w = evaluate_word(p.generators, rel.word)
            assert w.is_translation and w.trans2 == rel.trans2, (p.generators, rel)


def test_empty_generator_list_is_a_usage_error():
    for build in (relators, from_generators, lattice_of):
        with pytest.raises(UsageError, match="at least one generator"):
            build([])


def test_generators_of_mixed_dimension_are_a_dimension_mismatch():
    a, b = AffineIso(0, (2,)), AffineIso(1, (0, 0))
    for build in (relators, from_generators, lattice_of):
        for gens in ([a, b], [b, a], [b, b, a]):
            with pytest.raises(DimensionMismatch, match="mixed dimension"):
                build(gens)


def test_generators_of_equals_the_generic_route_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            p = generators_of(m)
            assert p == from_generators(p.generators), m.rows


def test_generators_of_equals_the_generic_route_seeded_n6_to_8():
    rng = random.Random(17)
    for n in (6, 7, 8):
        for _ in range(100):
            rows = tuple(rng.getrandbits(n) >> (i + 1) << (i + 1) for i in range(n))
            p = generators_of(BottMatrix(n, rows))
            assert p == from_generators(p.generators), rows


def test_relators_listed_in_order():
    # A4: generators 0..2 flip signs with independent exponent vectors, so
    # the kernel words are the translation generators 3 and 4 alone
    words = [rel.word for rel in relators(generators_of(A4).generators)]
    assert words == [(0, 0), (1, 1), (2, 2), (0, 1, ~0, ~1), (0, 2, ~0, ~2), (1, 2, ~1, ~2),
                     (3,), (4,)]
    # rows 0011, 0011: generators 0 and 1 share a sign pattern, so their
    # product is a kernel word, a translation by (1/2, 1/2, 0, 0)
    pres = generators_of(BottMatrix(4, (0b1100, 0b1100, 0, 0)))
    assert relators(pres.generators) == (
        ((0, 0), (2, 0, 0, 0)), ((1, 1), (0, 2, 0, 0)),
        ((0, 1, ~0, ~1), (0, 0, 0, 0)), ((0, 1), (1, 1, 0, 0)),
        ((2,), (0, 0, 1, 0)), ((3,), (0, 0, 0, 2)))


def test_kernel_check_names_the_matrix(monkeypatch):
    # a kernel basis broken to return generator 0 alone, whose row is not 0
    monkeypatch.setattr(gf2, "kernel_basis", lambda ncols, rows: [1])
    with pytest.raises(InvariantViolation) as exc:
        generators_of(A4)
    named = json.dumps(to_json_dict(A4))
    assert str(exc.value) == f"rows (0,) of {named} do not sum to 0"


def test_kernel_check_raises_under_python_O():
    code = textwrap.dedent("""
        from bottclass import bieberbach, catalog, gf2
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        gf2.kernel_basis = lambda ncols, rows: [1]
        try:
            bieberbach.generators_of(catalog.DIM5_ORIENTED["A4"])
        except InvariantViolation as exc:
            print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    named = json.dumps(to_json_dict(A4))
    assert named.startswith('{"n": 5, "rows": [')
    assert proc.stdout.splitlines() == [f"raised: rows (0,) of {named} do not sum to 0"]


def test_exponent_matrix_matches_per_coordinate_loop():
    rng = random.Random(12)
    lists = [generators_of(m).generators for m in enumerate_strict_upper(4)]
    lists += [random_generators(rng, rng.randint(1, 7), rng.randint(1, 8)) for _ in range(200)]
    for gens in lists:
        n = gens[0].n
        rows = [sum(1 << i for i, g in enumerate(gens) if (g.exponent_mask >> coord) & 1)
                for coord in range(n)]
        assert _exponent_matrix(n, gens) == rows


def test_coords_mod2_agree_with_contains_n_le_5():
    # The doubled lattice of Gamma(A) lies between 2Z^n and Z^n, so v is in
    # it iff v mod 2 is in the GF(2) span of the basis rows mod 2: a
    # membership oracle that shares no code with the HNF reduction.  A
    # vector built as an integer combination of the rows has those
    # coefficients, mod 2, as coordinates; any lattice vector w has
    # coordinates c iff w minus the rows in c lies in twice the lattice.
    rng = random.Random(13)
    inside = outside = 0
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            lat = generators_of(m).lattice
            basis2 = lat.basis2
            mod2 = [sum((x & 1) << k for k, x in enumerate(row)) for row in basis2]
            for _ in range(4):
                coeffs = [rng.randint(-3, 3) for _ in basis2]
                v = tuple(sum(c * row[k] for c, row in zip(coeffs, basis2)) for k in range(n))
                assert lat.contains2(v)
                assert lat.coords_mod2(v) == sum((c & 1) << i for i, c in enumerate(coeffs))
                inside += 1
                w = tuple(rng.randint(-4, 4) for _ in range(n))
                w_mod2 = sum((x & 1) << k for k, x in enumerate(w))
                expected = rank_masks(mod2 + [w_mod2]) == rank_masks(mod2)
                assert lat.contains2(w) == expected, (m.rows, w)
                if expected:
                    coords = lat.coords_mod2(w)
                    rest = [x - sum(row[k] for i, row in enumerate(basis2) if (coords >> i) & 1)
                            for k, x in enumerate(w)]
                    assert all(x % 2 == 0 for x in rest), (m.rows, w)
                    assert lat.contains2([x // 2 for x in rest]), (m.rows, w)
                else:
                    with pytest.raises(InvariantViolation):
                        lat.coords_mod2(w)
                    outside += 1
    assert inside > 1000 and outside > 1000


def test_trans_lattice_refuses_a_basis_out_of_echelon_form():
    # refused when it is built, before anything reads it
    with pytest.raises(InvariantViolation, match="echelon"):
        TransLattice(2, ((0, 2), (2, 0)))


def in_echelon_form(n, basis2):
    """Oracle for the echelon check of TransLattice: no zero row, each
    row's first nonzero entry positive, those entries' columns strictly
    increasing."""
    pivots = []
    for row in basis2:
        nonzero = [c for c in range(n) if row[c]]
        if not nonzero or row[nonzero[0]] < 0:
            return False
        pivots.append(nonzero[0])
    return all(a < b for a, b in zip(pivots, pivots[1:]))


def test_trans_lattice_echelon_check_matches_rebuild_oracle():
    # The check reads basis2 directly; the oracle is `in_echelon_form`.
    # An accepted basis is read as a basis: row i has coordinates e_i.
    rng = random.Random(14)
    accepted = refused = 0
    for _ in range(2000):
        n = rng.randint(1, 4)
        basis2 = []
        for _ in range(rng.randint(0, n)):
            pivot = rng.randrange(n + 1)  # n: a zero row
            basis2.append(tuple(0 if c < pivot else rng.choice((1, 2, -2)) if c == pivot
                                else rng.randint(-3, 3) for c in range(n)))
        basis2 = tuple(basis2)
        if in_echelon_form(n, basis2):
            lat = TransLattice(n, basis2)
            assert lat.contains2((0,) * n)
            assert [lat.coords_mod2(row) for row in basis2] == [1 << i for i in range(len(basis2))]
            accepted += 1
        else:
            with pytest.raises(InvariantViolation, match="echelon"):
                TransLattice(n, basis2)
            refused += 1
    assert accepted > 300 and refused > 300


def test_echelon_check_raises_under_python_O():
    # the lattice is checked when it is built, and without `assert`
    code = textwrap.dedent("""
        from bottclass.bieberbach import TransLattice
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        for basis2 in (((0, 2), (2, 0)), ((2, 0), (2, 2)), ((-2, 0), (0, 2)),
                       ((2, 0), (0, 0))):
            try:
                TransLattice(2, basis2)
            except InvariantViolation as exc:
                print("echelon" in str(exc))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True"] * 4


def flip(vec, mask):
    """D v for the diagonal +-1 matrix D with -1 at the bits of mask."""
    return tuple(-t if (mask >> j) & 1 else t for j, t in enumerate(vec))


def worklist_closure(gens):
    """Oracle for the lattice closure of `from_generators`: the relators'
    translations, and the holonomy images of every vector that was not
    yet in the span when it was met, walked as a list that grows."""
    n = gens[0].n
    masks = {g.exponent_mask for g in gens}
    kept = ()
    todo = [rel.trans2 for rel in relators(gens)]
    for v in todo:
        if not TransLattice.span(n, kept).contains2(v):
            kept += (v,)
            todo += [flip(v, mask) for mask in masks]
    return TransLattice.span(n, kept).basis2


def affine_orbit_lists(rng, count):
    """Seeded lists of sign generators with no translation and one
    translation generator, whose orbit under the signs may take more than
    one round of images to span."""
    lists = []
    for _ in range(count):
        n = rng.randint(2, 5)
        gens = [AffineIso(rng.getrandbits(n), (0,) * n) for _ in range(rng.randint(1, 3))]
        gens.append(AffineIso(0, tuple(rng.randint(-2, 2) for _ in range(n))))
        lists.append(gens)
    return lists


def test_fixed_point_closure_equals_the_worklist_closure():
    rng = random.Random(29)
    lists = [gamma_n_generators(n).generators for n in range(2, 9)]
    lists += [random_generators(rng, rng.randint(1, 6), rng.randint(1, 7)) for _ in range(200)]
    lists += random_affine_lists(random.Random(19), 300)
    lists += affine_orbit_lists(rng, 300)
    unspanned = unclosed = 0
    for gens in lists:
        basis2 = from_generators(gens).lattice.basis2
        assert basis2 == worklist_closure(gens), gens
        # neither the relators' span nor one round of images is always closed
        n = gens[0].n
        first = TransLattice.span(n, [rel.trans2 for rel in relators(gens)]).basis2
        once = TransLattice.span(n, first + tuple(flip(row, g.exponent_mask)
                                                  for row in first for g in gens)).basis2
        unspanned += first != basis2
        unclosed += once != basis2
    assert unspanned > 100 and unclosed > 5, (unspanned, unclosed)


def test_holonomy_torus_trivial():
    pres = generators_of(BottMatrix(3, (0, 0, 0)))
    assert holonomy_rep(pres) == [(1, 1, 1)]


def test_holonomy_klein_bottle():
    pres = gamma_n_generators(2)
    assert set(holonomy_rep(pres)) == {(1, 1), (-1, 1)}


def test_holonomy_order_is_two_to_rank():
    from bottclass.gf2 import rank_masks

    for name, m in catalog.DIM5_ORIENTED.items():
        pres = generators_of(m)
        images = holonomy_rep(pres)
        assert len(images) == 1 << rank_masks(m.rows)
        assert len(set(images)) == len(images)


def test_squares_generate_rank_n():
    for m in [A4, catalog.DIM5_ORIENTED["A49"], superdiagonal_matrix(5)]:
        assert squares_lattice_rank(generators_of(m)) == m.n


# --- tower conjugation -----------------------------------------------------------------

def test_tower_conjugation_all_dims():
    for n in range(2, 9):
        assert verify_tower_conjugation(n)


def test_tower_conjugation_report_shape():
    rep = tower_conjugation_report(3)
    assert len(rep) == 6  # three generators each way
    assert all(entry["ok"] for entry in rep)
    with pytest.raises(ValueError):
        tower_conjugation_report(9)


def test_conjugation_by_reversal_maps_generators_exactly():
    # for Gamma_n the conjugates are literally the Gamma(A) generators
    n = 4
    gamma = gamma_n_generators(n)
    bott = generators_of(superdiagonal_matrix(n))
    reversal = tuple(n - 1 - i for i in range(n))
    conj = {conjugate_by_perm(reversal, g) for g in gamma.generators}
    assert conj == set(bott.generators)


# --- text form ----------------------------------------------------------------------

def test_iso_text_form():
    a = AffineIso(0b10010, (1, 0, 0, 1, 0))
    assert format_iso(a) == "signs=+-++- ; t2=[1,0,0,1,0]"


def test_lattice_vector_of_wrong_length_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TransLattice.span(2, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        TransLattice.span(2, [[1, 2]]).contains2([1])


def test_non_translation_is_an_invariant_violation():
    from bottclass.bieberbach import AffineIso, _require_translation
    from bottclass.gf2 import InvariantViolation

    _require_translation(AffineIso(0, (2, 0)), "square")
    with pytest.raises(InvariantViolation, match="square"):
        _require_translation(AffineIso(1, (0, 0)), "square")
