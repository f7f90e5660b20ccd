"""Ring isomorphism search and the rigidity experiment."""
import collections
import functools
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bottclass import catalog, cohomology, rigidity
from bottclass.bottmatrix import (
    BottMatrix,
    diffeo_class_of,
    diffeo_classes,
    enumerate_strict_upper,
    op1,
    to_json_dict,
    to_strict_upper,
)
from bottclass.cohomology import RING_BOUND, CohomRing, degree2, linear, pair_bit
from bottclass.gf2 import (
    BoundExceeded,
    InvariantViolation,
    rank_masks,
    reduce_into,
    subset_sums,
    transpose_masks,
)
from bottclass.rigidity import (
    _admissible,
    _is_witness,
    _relation_holds,
    rigidity_experiment,
    ring_invariants,
    ring_isomorphic,
)

A40 = catalog.DIM5_ORIENTED["A40"]
A48 = catalog.DIM5_ORIENTED["A48"]


def enumerate_invertible(n):
    """Every element of GL(n,2) once, as a tuple of row masks.

    Rows are chosen depth-first in ascending bitmask order, skipping rows
    dependent on the ones already placed, so the stream order is the
    lexicographic order on row tuples."""
    rows = []
    pivots = {}

    def rec():
        if len(rows) == n:
            yield tuple(rows)
            return
        for v in range(1, 1 << n):
            if reduce_into(pivots, (v,)):
                rows.append(v)
                yield from rec()
                rows.pop()
                pivots.popitem()

    yield from rec()


def brute_force_isomorphic(a, b):
    """Oracle: plain full enumeration of GL(n,2) with the complete relation
    check, no pruning and no incremental filtering."""
    ring_a, ring_b = CohomRing(a), CohomRing(b)
    for cand in enumerate_invertible(a.n):
        if _is_witness(ring_a.cols, ring_b, cand):
            return cand
    return None


@functools.lru_cache(maxsize=None)
def oracle_ring(m):
    """The ring of m, built once, and a memo of `_relation_holds` verdicts
    on it keyed by (image of x_j, image of y_j)."""
    return CohomRing(m), {}


def ascending_search(a, b):
    """Oracle: the plain row-by-row search in ascending bitmask order,
    filtering each row by linear independence and by its relation on
    normal forms, with no product table, no precomputed lists and no
    pruning."""
    cols_a = oracle_ring(a)[0].cols
    ring_b, holds = oracle_ring(b)
    n = a.n
    chosen = [0] * n
    basis = []

    def rec(level):
        if level == n:
            return tuple(chosen)
        image_y = 0
        for i in range(level):
            if (cols_a[level] >> i) & 1:
                image_y ^= chosen[i]
        for v in range(1, 1 << n):
            r = v
            for bb in basis:
                r = min(r, r ^ bb)
            if r == 0:
                continue
            verdict = holds.get((v, image_y))
            if verdict is None:
                verdict = holds[v, image_y] = _relation_holds(ring_b, v, image_y)
            if not verdict:
                continue
            chosen[level] = v
            basis.append(r)
            found = rec(level + 1)
            if found is not None:
                return found
            basis.pop()
        return None

    return rec(0)


def reduced_admissible(cols, y):
    """Oracle: the rows the filter admits for y, read off one reduction of
    degree-2 products (`degree2`), as the search listed them before their
    closed form.  v (v + y) = sum_{a in v} x_a (x_a + y) is linear in v, so
    row a carries the image of x_a above bit n and x_a itself below, and a
    row whose image cancels is kept under a key of at most n, holding the
    v it was reduced to.  Those rows span the kernel."""
    n = len(cols)
    pivots = {}
    reduce_into(pivots, ((degree2(cols, 1 << a, (1 << a) ^ y) << n) | 1 << a for a in range(n)))
    return sorted(subset_sums([v for top, v in pivots.items() if top <= n]))[1:]


def unpruned_search(a, b, counts):
    """Oracle: the search as it was before the forward check, on the rows
    of the reduction (`reduced_admissible`), with the span of the rows
    chosen kept as a 2^n-bit set.
    It is not refused by `ring_invariants` and returns the first witness
    rows in the labels of a and b as given, or None.  counts["nodes"] and
    counts["tests"] count the calls of the level walk and the independence
    tests."""
    n = a.n
    (pa, upper_a), (pb, upper_b) = to_strict_upper(a), to_strict_upper(b)
    cols_a = transpose_masks(n, upper_a.rows)
    cols_b = transpose_masks(n, upper_b.rows)
    admissible = {}  # listed per y met
    chosen = [0] * n

    def rec(level, span, elems):
        # elems[mask] = XOR of chosen[i] over i in mask; span has bit e set
        # for each of them
        counts["nodes"] += 1
        if level == n:
            return tuple(chosen)
        image_y = elems[cols_a[level]]
        if image_y not in admissible:
            admissible[image_y] = reduced_admissible(cols_b, image_y)
        for v in admissible[image_y]:
            counts["tests"] += 1
            if (span >> v) & 1:
                continue
            chosen[level] = v
            moved = [e ^ v for e in elems]
            grown = span
            for e in moved:
                grown |= 1 << e
            found = rec(level + 1, grown, elems + moved)
            if found is not None:
                return found
        return None

    found = rec(0, 1, [0])
    if found is None:
        return None
    return tuple(sum(((found[pa[i]] >> pb[k]) & 1) << k for k in range(n)) for i in range(n))


def rank_ring_invariants(m):
    """Oracle: the square kernel and every annihilator ranked from normal
    forms, one `rank_masks` call each, with neither `degree2` nor the bit
    lanes of the closed form: v -> v^2 and v -> v w are linear in v, so
    their kernels have dimension n minus the rank of the images of the
    x_a.  x_a w is the XOR of the normal forms x_a x_b over the b in w."""
    ring = CohomRing(m)
    n = m.n
    times = [subset_sums([ring.multiply(linear(1 << a), linear(1 << b)).packed for b in range(n)])
             for a in range(n)]  # times[a][w]: the normal form of x_a w
    sq_ker_dim = n - rank_masks([times[a][1 << a] for a in range(n)])
    ann_dims = sorted(n - rank_masks([row[w] for row in times]) for w in range(1, 1 << n))
    return (sq_ker_dim, tuple(ann_dims))


def degree2_relations_hold(a, b, rows):
    """Oracle in the labels as given: invertible rows, and x_i -> rows[i]
    sends each relation x_j (x_j + y_j) of a to zero in degree 2 of the
    ring of b, whose basis is the x_k x_l, k < l, once each x_k^2 is
    rewritten as x_k y_k from the column k of b."""
    n = a.n

    def column(m, j):
        return sum(((m.rows[i] >> j) & 1) << i for i in range(n))

    def image(w):
        out = 0
        for i in range(n):
            if (w >> i) & 1:
                out ^= rows[i]
        return out

    def product(u, v):
        terms = set()
        for k in range(n):
            for l in range(n):
                if (u >> k) & 1 and (v >> l) & 1:
                    ls = [l] if k != l else [t for t in range(n) if (column(b, k) >> t) & 1]
                    for t in ls:
                        terms ^= {(min(k, t), max(k, t))}
        return terms

    return rank_masks(rows) == n and all(
        not product(rows[j], rows[j] ^ image(column(a, j))) for j in range(n))


def random_strict_upper(rng, n):
    return BottMatrix(n, tuple(rng.getrandbits(n) & -(2 << i) & ((1 << n) - 1) for i in range(n)))


def matrix(*rows):
    """Bott matrix from row strings; character j of row i is entry (i, j)."""
    return BottMatrix(len(rows), tuple(int(r[::-1], 2) for r in rows))


def test_identity_witness_on_self():
    w = ring_isomorphic(A40, A40)
    assert w is not None
    assert w.map.rows == tuple(1 << i for i in range(5))


def test_a40_vs_a48_not_isomorphic():
    # distinct diffeomorphism classes with the same w2; the ring comparison
    # is a genuine computation and must come back empty
    assert ring_isomorphic(A40, A48) is None


def test_torus_vs_superdiagonal_n3():
    torus = BottMatrix(3, (0, 0, 0))
    sup = BottMatrix(3, (0b010, 0b100, 0))
    assert ring_isomorphic(torus, sup) is None


def test_dimension_mismatch():
    with pytest.raises(Exception):
        ring_isomorphic(BottMatrix(2, (0, 0)), BottMatrix(3, (0, 0, 0)))


def test_bound_above_six():
    a = BottMatrix(7, (0,) * 7)
    with pytest.raises(BoundExceeded):
        ring_isomorphic(a, a)


def test_ring_invariants_above_the_ring_bound_is_refused():
    # 2^n-bit lanes and 2^n - 1 annihilator dimensions: n = 13 is refused
    # before any lane is built, the ring bound itself is served
    top = BottMatrix(RING_BOUND, (0,) * RING_BOUND)
    assert ring_invariants(top) == (RING_BOUND, (1,) * ((1 << RING_BOUND) - 1))  # x_j^2 = 0
    n = RING_BOUND + 1
    with pytest.raises(BoundExceeded, match=f"ring_invariants at n={n} exceeds"):
        ring_invariants(BottMatrix(n, (0,) * n))


def test_search_matches_brute_force_all_n3_pairs():
    mats = list(enumerate_strict_upper(3))
    for a, b in itertools.combinations_with_replacement(mats, 2):
        got = ring_isomorphic(a, b)
        expected = brute_force_isomorphic(a, b)
        assert (got is None) == (expected is None)
        if got is not None:
            # both are the first witness in the same enumeration order
            assert got.map.rows == expected


def test_witness_is_in_the_input_labels_relabelled_n_le_5():
    rng = random.Random(2024)
    relabelled = 0
    for _ in range(120):
        n = rng.randint(2, 5)
        m = random_strict_upper(rng, n)
        partner = rng.choice(sorted(diffeo_class_of(m).members, key=lambda x: x.rows))
        a = op1(m, rng.sample(range(n), n))
        b = op1(partner, rng.sample(range(n), n))
        relabelled += not (a.is_strictly_upper and b.is_strictly_upper)
        w = ring_isomorphic(a, b)
        assert w is not None and degree2_relations_hold(a, b, w.map.rows), (a.rows, b.rows)
    assert relabelled >= 80


def test_witness_is_symmetric():
    classes = diffeo_classes(4)
    checked = 0
    for cls in classes:
        members = sorted(cls.members, key=lambda m: m.rows)
        if len(members) < 2:
            continue
        a, b = members[0], members[1]
        w = ring_isomorphic(a, b)
        assert w is not None
        # row i of the inverse is the mask s whose rows of w XOR to x_i
        images = subset_sums(w.map.rows)
        inv = tuple(images.index(1 << i) for i in range(a.n))
        assert _is_witness(CohomRing(b).cols, CohomRing(a), inv)
        checked += 1
    assert checked > 0


def test_same_class_members_isomorphic_n3():
    for cls in diffeo_classes(3):
        for m in cls.members:
            assert ring_isomorphic(m, cls.canonical) is not None


def test_distinct_classes_not_isomorphic_n3():
    canonicals = [c.canonical for c in diffeo_classes(3)]
    for a, b in itertools.combinations(canonicals, 2):
        assert ring_isomorphic(a, b) is None


def test_experiment_n3():
    rep = rigidity_experiment(3)
    assert rep["violations"] == []
    assert rep["classes"] == 4
    assert rep["mode"] == "exhaustive"


def test_experiment_n5_is_deterministic():
    # 8 GHW classes: three members after the canonical each, and 28 pairs
    # of canonicals
    rep = rigidity_experiment(5)
    assert rep == {"dim": 5, "classes": 54, "mode": "ghw", "pairs_checked": 52, "violations": []}
    assert rigidity_experiment(5) == rep


def test_experiment_bound():
    with pytest.raises(BoundExceeded):
        rigidity_experiment(6)


def test_search_matches_ascending_oracle_all_n4_pairs():
    # the oracle never prunes, so this also checks that refusing pairs by
    # ring_invariants loses no isomorphism
    mats = list(enumerate_strict_upper(4))
    for a, b in itertools.product(mats, repeat=2):
        got = ring_isomorphic(a, b)
        assert (None if got is None else got.map.rows) == ascending_search(a, b), (a.rows, b.rows)


def test_search_matches_ascending_oracle_n5_seeded():
    rng = random.Random(5)
    mats = list(enumerate_strict_upper(5))
    found = 0
    for _ in range(50):
        a = rng.choice(mats)
        # half the pairs are same-class, so that witnesses are compared too
        b = rng.choice(sorted(diffeo_class_of(a).members, key=lambda m: m.rows)) \
            if rng.random() < 0.5 else rng.choice(mats)
        got = ring_isomorphic(a, b)
        assert (None if got is None else got.map.rows) == ascending_search(a, b), (a.rows, b.rows)
        found += got is not None
    assert found >= 20


# Pairs that took seconds to over a minute while the search tested every
# row against normal forms.
SLOW_ISOMORPHIC_PAIRS = [
    (matrix("011111", "000000", "000001", "000001", "000000", "000000"),
     matrix("010111", "001000", "000000", "000000", "000000", "000000")),
    (matrix("000000", "000001", "000000", "000000", "000000", "000000"),
     matrix("000000", "000000", "000000", "000000", "000001", "000000")),
]
# The three classes with square kernel dimension 4 that share their
# ring_invariants.
SQUARE_KERNEL_4_BUCKET = [
    matrix("000000", "000000", "000000", "000010", "000001", "000000"),
    matrix("000000", "000000", "000001", "000010", "000000", "000000"),
    matrix("000000", "000000", "000001", "000010", "000001", "000000"),
]


@pytest.mark.parametrize("a, b", SLOW_ISOMORPHIC_PAIRS)
def test_slow_same_class_pairs_isomorphic(a, b):
    assert diffeo_class_of(a) is diffeo_class_of(b)
    w = ring_isomorphic(a, b)
    assert w is not None
    assert _is_witness(CohomRing(a).cols, CohomRing(b), w.map.rows)


def test_square_kernel_4_bucket_cross_pairs_not_isomorphic():
    invariants = {ring_invariants(m) for m in SQUARE_KERNEL_4_BUCKET}
    assert len(invariants) == 1 and next(iter(invariants))[0] == 4
    assert len({id(diffeo_class_of(m)) for m in SQUARE_KERNEL_4_BUCKET}) == 3
    for a, b in itertools.permutations(SQUARE_KERNEL_4_BUCKET, 2):
        assert ring_isomorphic(a, b) is None


def ring_isomorphic_rows(a, b):
    found = ring_isomorphic(a, b)
    return None if found is None else found.map.rows


@pytest.mark.parametrize("a, b", SLOW_ISOMORPHIC_PAIRS)
def test_forward_check_keeps_the_first_witness_on_slow_pairs(a, b):
    expected = unpruned_search(a, b, collections.Counter())
    assert expected is not None and ring_isomorphic_rows(a, b) == expected


def test_forward_check_keeps_the_first_witness_n6_same_class_seeded():
    # members reached by Op2/Op3 and by the adjacent swaps that keep strict
    # upper form, and every other one relabelled by a random permutation
    rng = random.Random(606)
    multi = [cls for cls in diffeo_classes(6) if cls.size > 1]
    relabelled = 0
    for i in range(100):
        members = sorted(rng.choice(multi).members, key=lambda m: m.rows)
        a, b = rng.choice(members), rng.choice(members)
        if i % 2:
            b = op1(b, rng.sample(range(6), 6))
            relabelled += not b.is_strictly_upper
        expected = unpruned_search(a, b, collections.Counter())
        assert expected is not None and ring_isomorphic_rows(a, b) == expected, (a.rows, b.rows)
    assert relabelled >= 40


def test_forward_check_keeps_the_verdict_n6_same_invariants_seeded():
    rng = random.Random(607)
    buckets = {}
    for cls in diffeo_classes(6):
        buckets.setdefault(ring_invariants(cls.canonical), []).append(cls.canonical)
    pairs = [(x, y) for group in buckets.values() for x in group for y in group if x != y]
    for a, b in rng.sample(pairs, 100):
        assert unpruned_search(a, b, collections.Counter()) is None
        assert ring_isomorphic(a, b) is None, (a.rows, b.rows)


def test_forward_check_prunes_the_worst_pair(monkeypatch):
    # y_5 of the source is x_0 + x_2 + x_3, fixed once row 3 is chosen: the
    # rows for 3 whose span already holds every admissible row for x_5 are
    # cut there, not after level 4 is walked for each of them
    a, b = SLOW_ISOMORPHIC_PAIRS[0]
    unpruned = collections.Counter()
    expected = unpruned_search(a, b, unpruned)
    assert unpruned["nodes"] == 24634

    tests = []
    original = rigidity.reduce_into

    def counting(pivots, rows):
        tests.append(None)
        return original(pivots, rows)

    nodes = []

    def profile(frame, event, arg):
        # the level walk of ring_isomorphic is its nested function rec
        if event == "call" and frame.f_code.co_name == "rec" \
                and frame.f_code.co_filename == rigidity.__file__:
            nodes.append(None)

    monkeypatch.setattr(rigidity, "reduce_into", counting)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        found = ring_isomorphic_rows(a, b)
    finally:
        sys.setprofile(previous)
    assert found == expected == (1, 8, 16, 19, 32, 4)
    assert len(nodes) <= 100
    assert len(tests) <= unpruned["tests"] // 10


def test_ring_invariants_match_rank_oracle_all_strict_upper_n_le_5():
    for n in range(1, 6):
        for m in enumerate_strict_upper(n):
            assert ring_invariants(m) == rank_ring_invariants(m), m.rows


def test_ring_invariants_match_rank_oracle_n6_canonicals_and_partition():
    buckets, oracle_buckets = {}, {}
    for cls in diffeo_classes(6):
        m = cls.canonical
        key, oracle_key = ring_invariants(m), rank_ring_invariants(m)
        assert key == oracle_key, m.rows
        buckets.setdefault(key, set()).add(m.rows)
        oracle_buckets.setdefault(oracle_key, set()).add(m.rows)
    assert set(map(frozenset, buckets.values())) == set(map(frozenset, oracle_buckets.values()))
    assert len(buckets) == 19


def test_ring_invariants_match_rank_oracle_n6_seeded():
    rng = random.Random(2000)
    for _ in range(2000):
        m = random_strict_upper(rng, 6)
        assert ring_invariants(m) == rank_ring_invariants(m), m.rows


def test_ring_invariants_match_rank_oracle_relabelled_inputs():
    rng = random.Random(300)
    relabelled = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        perm = rng.sample(range(n), n)
        m = op1(random_strict_upper(rng, n), perm)
        relabelled += not m.is_strictly_upper
        assert ring_invariants(m) == rank_ring_invariants(m), (m.rows, perm)
    assert relabelled >= 150


def test_annihilators_are_zero_or_the_top_variable_candidate_n_le_4():
    # On normal forms, apart from the product rows and the lanes: ann(w) is
    # {0} or {0, v*}, v* = x_t + the part of w + y_t below the top variable
    # t of w, and the square kernel is spanned by the x_b with y_b = 0.
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            ring = CohomRing(m)
            ann_dims = []
            for w in range(1, 1 << n):
                t = w.bit_length() - 1
                v_star = (1 << t) | ((w ^ ring.cols[t]) & ((1 << t) - 1))
                ann = {v for v in range(1 << n)
                       if ring.multiply(linear(v), linear(w)).is_zero()}
                assert ann in ({0}, {0, v_star}), (m.rows, w, ann)
                ann_dims.append(len(ann) - 1)
            sq_ker = [v for v in range(1 << n) if ring.multiply(linear(v), linear(v)).is_zero()]
            assert sq_ker == [v for v in range(1 << n)
                              if all(ring.cols[b] == 0 for b in range(n) if (v >> b) & 1)]
            assert ring_invariants(m) == (len(sq_ker).bit_length() - 1, tuple(sorted(ann_dims)))


def test_ring_invariants_constant_on_classes_n_le_5():
    for n in range(1, 6):
        for cls in diffeo_classes(n):
            assert {ring_invariants(m) for m in cls.members} == {ring_invariants(cls.canonical)}


def test_pruned_pairs_build_no_ring(monkeypatch):
    # the search reads columns: the target ring alone is built, only to
    # re-check a witness
    built = []
    original = CohomRing.__init__

    def counting_init(self, matrix):
        built.append(matrix)
        original(self, matrix)

    monkeypatch.setattr(CohomRing, "__init__", counting_init)
    a, b = SQUARE_KERNEL_4_BUCKET[0], BottMatrix(6, (0,) * 6)
    assert ring_invariants(a) != ring_invariants(b)
    assert ring_isomorphic(a, b) is None
    assert built == []
    # searched, not isomorphic
    assert ring_invariants(A40) == ring_invariants(A48)
    assert ring_isomorphic(A40, A48) is None
    assert built == []
    assert ring_isomorphic(a, a) is not None
    assert built == [a]
    c, d = SLOW_ISOMORPHIC_PAIRS[1]
    assert ring_isomorphic(c, d) is not None
    assert built == [a, d]


def test_refused_pairs_never_search(monkeypatch):
    # the ring_invariants refusal is load-bearing: without it the first
    # pair is searched for minutes
    calls = []
    original = rigidity._admissible

    def counting(cols, y):
        calls.append(y)
        return original(cols, y)

    monkeypatch.setattr(rigidity, "_admissible", counting)
    torus = BottMatrix(6, (0,) * 6)
    for a, b in ((torus, BottMatrix(6, (0, 0, 0, 0, 32, 0))), (torus, SQUARE_KERNEL_4_BUCKET[0])):
        assert ring_invariants(a) != ring_invariants(b)
        assert ring_isomorphic(a, b) is None
    assert calls == []
    # searched, not isomorphic: the counter sees the search
    assert ring_isomorphic(A40, A48) is None
    assert calls


def _check_admissible_is_the_normal_form_kernel(m):
    ring = CohomRing(m)
    full = 1 << m.n
    for y in range(full):
        listed = _admissible(ring.cols, y)
        assert listed == [v for v in range(1, full)
                          if ring.multiply(linear(v), linear(v ^ y)).is_zero()], (m.rows, y)
        kernel = set(listed) | {0}
        assert all(u ^ v in kernel for u in kernel for v in kernel), (m.rows, y)


def test_admissible_rows_are_the_normal_form_kernel_n_le_4():
    # v (v + y) is linear in v (squaring is additive over GF(2)), so the
    # rows the search reads for y are a subspace minus 0, listed ascending
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            _check_admissible_is_the_normal_form_kernel(m)


def test_admissible_rows_are_the_normal_form_kernel_n6_seeded():
    rng = random.Random(66)
    for _ in range(20):
        rows = tuple(rng.getrandbits(6) & -(2 << i) & 0b111111 for i in range(6))
        _check_admissible_is_the_normal_form_kernel(BottMatrix(6, rows))


def _check_admissible_closed_form(n, rows):
    cols = transpose_masks(n, rows)
    for y in range(1 << n):
        assert _admissible(cols, y) == reduced_admissible(cols, y), (n, rows, y)
        # the coefficient of x_a x_b, a < b, in v (v + y) for v = x_c, read
        # from the formula v_a [b in y] + v_b ([a in y] + [b not in y][a in y_b])
        for c in range(n):
            product = degree2(cols, 1 << c, (1 << c) ^ y)
            for b in range(n):
                for a in range(b):
                    yb, ya = (y >> b) & 1, (y >> a) & 1
                    coeff = ((a == c) & yb) ^ ((b == c) & (ya ^ ((1 - yb) & (cols[b] >> a))))
                    assert (product >> pair_bit(a, b)) & 1 == coeff, (n, rows, y, c, a, b)
    _check_admissible_is_the_normal_form_kernel(BottMatrix(n, rows))


def test_admissible_rows_have_a_closed_form():
    # the rows the search admits for y are the nonzero span of y and the
    # x_a with column y_a = y (`_admissible`); three routes agree: that
    # closed form, the reduction of degree-2 products it replaced
    # (`reduced_admissible`) and the kernel on normal forms, on every
    # strictly upper matrix and every y for n <= 4, seeded matrices at
    # n = 5 and 6
    for n in range(1, 5):
        for m in enumerate_strict_upper(n):
            _check_admissible_closed_form(n, m.rows)
    rng = random.Random(5606)
    for n, count in ((5, 60), (6, 25)):
        for _ in range(count):
            p = rng.choice([0.15, 0.35, 0.6])
            rows = tuple(sum(1 << j for j in range(i + 1, n) if rng.random() < p)
                         for i in range(n))
            _check_admissible_closed_form(n, rows)


def test_closed_form_filter_keeps_every_first_witness(monkeypatch):
    # the closed form lists the rows of the reduction it replaced, in the
    # same order, so the search meets its candidates in the same order:
    # the same verdicts and first witnesses on every pair of the rigidity
    # experiment for n <= 4 and on seeded n = 6 same-class pairs, half of
    # them relabelled, with the slow pairs among them
    pairs = []
    real_search = rigidity.ring_isomorphic

    def recording(a, b):
        pairs.append((a, b))
        return real_search(a, b)

    monkeypatch.setattr(rigidity, "ring_isomorphic", recording)
    reports = [rigidity_experiment(n) for n in range(1, 5)]
    monkeypatch.undo()
    experiment = len(pairs)
    assert experiment == sum(r["pairs_checked"] for r in reports) == 129
    assert all(r["violations"] == [] for r in reports)
    rng = random.Random(4006)
    multi = [cls for cls in diffeo_classes(6) if cls.size > 1]
    for i in range(60):
        members = sorted(rng.choice(multi).members, key=lambda m: m.rows)
        a, b = rng.choice(members), rng.choice(members)
        pairs.append((a, op1(b, rng.sample(range(6), 6)) if i % 2 else b))
    pairs += SLOW_ISOMORPHIC_PAIRS
    closed = [ring_isomorphic(a, b) for a, b in pairs]
    assert sum(w is not None for w in closed[experiment:]) == len(pairs) - experiment

    calls = []

    def reduced(cols, y):
        calls.append(y)
        return reduced_admissible(cols, y)

    monkeypatch.setattr(rigidity, "_admissible", reduced)
    assert [ring_isomorphic(a, b) for a, b in pairs] == closed
    assert calls
    assert None in closed[:experiment]


def test_corrupted_product_table_raises_under_python_O():
    # The final witness check raises InvariantViolation, not assert, so it
    # survives `python -O`, and names both matrices in their {"n", "rows"}
    # form.  A40 and A48 share their ring_invariants, so the
    # pair reaches the search.  With a filter that admits every nonzero row
    # the search returns the identity, which is no ring isomorphism
    # between these two rings.
    code = textwrap.dedent("""
        from bottclass import catalog, cohomology, rigidity
        from bottclass.gf2 import InvariantViolation
        from bottclass.rigidity import ring_invariants, ring_isomorphic
        assert not __debug__
        a, b = catalog.DIM5_ORIENTED["A40"], catalog.DIM5_ORIENTED["A48"]
        assert ring_invariants(a) == ring_invariants(b)
        rigidity._admissible = lambda cols, y: list(range(1, 1 << len(cols)))
        try:
            ring_isomorphic(a, b)
        except InvariantViolation as exc:
            print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pair = ", ".join(json.dumps(to_json_dict(m)) for m in (A40, A48))
    assert proc.stdout.startswith(f"raised: ring_isomorphic({pair}) found ")


# A same-class n = 6 pair, the target strictly upper, and a square entry
# of the target ring that the degree-2 relations never read: x_1 * x_1 x_2
# (lane s = {0, 1}, |s| = 2 of table 0) holding the monomial 1 of degree 0.
# The witness re-check multiplies degree-1 classes, so it reads the lanes
# with |s| = 1 only; the ring refuses the entry when it is built.
CORRUPTED_PAIR_TARGET = ("011010", "000101", "000011", "000001", "000000", "000000")
CORRUPTED_PAIR_PERM = (3, 0, 5, 1, 4, 2)


def test_ring_isomorphic_refuses_a_corrupted_target_ring(monkeypatch):
    b = matrix(*CORRUPTED_PAIR_TARGET)
    a = op1(b, CORRUPTED_PAIR_PERM)
    assert ring_isomorphic(a, b) is not None
    clean = cohomology._lane_masks

    def corrupted(n):
        lane, keep, squares, free, bad = clean(n)
        return lane, keep, squares, (free[0] | 1 << (0b11 << n),) + free[1:], bad

    monkeypatch.setattr(cohomology, "_lane_masks", corrupted)
    with pytest.raises(InvariantViolation, match="preserve degree") as raised:
        ring_isomorphic(a, b)
    assert str(raised.value) == f"reduction must preserve degree for {json.dumps(to_json_dict(b))}"


def test_corrupted_target_ring_raises_under_python_O():
    code = textwrap.dedent(f"""
        from bottclass import cohomology
        from bottclass.bottmatrix import BottMatrix, op1
        from bottclass.gf2 import InvariantViolation
        from bottclass.rigidity import ring_isomorphic
        assert not __debug__
        clean = cohomology._lane_masks
        def corrupted(n):
            lane, keep, squares, free, bad = clean(n)
            return lane, keep, squares, (free[0] | 1 << (0b11 << n),) + free[1:], bad
        cohomology._lane_masks = corrupted
        b = BottMatrix(6, {matrix(*CORRUPTED_PAIR_TARGET).rows})
        try:
            ring_isomorphic(op1(b, {CORRUPTED_PAIR_PERM}), b)
        except InvariantViolation as exc:
            print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    b = matrix(*CORRUPTED_PAIR_TARGET)
    assert proc.stdout == f"raised: reduction must preserve degree for {json.dumps(to_json_dict(b))}\n"


def test_enumerate_invertible_n1():
    assert list(enumerate_invertible(1)) == [(1,)]


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_invertible_counts(n):
    # |GL(n,2)| = prod (2^n - 2^i) is the independent counting oracle
    mats = list(enumerate_invertible(n))
    order = 1
    for i in range(n):
        order *= (1 << n) - (1 << i)
    assert len(mats) == len(set(mats)) == order
    assert all(rank_masks(rows) == n for rows in mats)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_invertible_stream_is_lexicographic(n):
    # every row tuple in lexicographic order, kept when its span has 2^n
    # elements: the oracle uses neither reduce_into nor rank_masks
    def span_size(rows):
        span = {0}
        for r in rows:
            span |= {x ^ r for x in span}
        return len(span)

    expected = [rows for rows in itertools.product(range(1, 1 << n), repeat=n)
                if span_size(rows) == 1 << n]
    assert list(enumerate_invertible(n)) == expected
