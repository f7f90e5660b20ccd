"""Bott matrices: validation, the three moves, enumeration, classification."""
import copy
import dataclasses
import functools
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest

from bottclass import bottmatrix, catalog
from bottclass.bottmatrix import (
    BottMatrix,
    ColumnMismatch,
    MatrixParseError,
    NotBottMatrix,
    count_ghw_rbm_classes,
    diffeo_class_of,
    diffeo_classes,
    enumerate_strict_upper,
    format_matrix_text,
    is_ghw_rbm,
    is_orientable,
    op1,
    op2,
    op3,
    parse_matrix,
    to_json_dict,
    to_strict_upper,
    validate,
)
from bottclass.gf2 import BoundExceeded, InvariantViolation, transpose_masks

A4 = catalog.DIM5_ORIENTED["A4"]
A23 = catalog.DIM5_ORIENTED["A23"]
A29 = catalog.DIM5_ORIENTED["A29"]


def superdiagonal(n):
    return BottMatrix(n, tuple(1 << (i + 1) if i + 1 < n else 0 for i in range(n)))


def lists(m):
    return m.to_lists()


# --- independent oracles (naive index-wise definitions on lists) ----------

def op1_oracle(mat, perm):
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = mat[i][j]
    return out


def op2_oracle(mat, k):
    # column j <- column j + a[k][j] * column k, simultaneously
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = (mat[i][j] + mat[k][j] * mat[i][k]) % 2
    return out


def op3_oracle(mat, l, m_idx):
    n = len(mat)
    out = [row.copy() for row in mat]
    out[m_idx] = [(mat[l][j] + mat[m_idx][j]) % 2 for j in range(n)]
    return out


# --- validation ------------------------------------------------------------

def test_validate_zero_matrix():
    assert validate([[0, 0], [0, 0]]).rows == (0, 0)


def test_validate_a4():
    assert A4.n == 5


def test_validate_two_cycle_rejected():
    with pytest.raises(NotBottMatrix, match="cycle"):
        validate([[0, 1], [1, 0]])


def test_validate_nonzero_diagonal_rejected():
    with pytest.raises(NotBottMatrix, match=r"\(2,2\)"):
        validate([[0, 0], [0, 1]])


def test_validate_longer_cycle_named():
    with pytest.raises(NotBottMatrix, match="cycle"):
        validate([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


@pytest.mark.parametrize("n, rows, match", [
    (3, [0, 0, 0], "tuple"),  # unhashable: the ring_invariants memo would raise TypeError
    (3, (0, True, 0), "row 2"),
    (2, (1.0, 0), "row 1"),
])
def test_rows_that_are_not_a_tuple_of_int_masks_rejected(n, rows, match):
    with pytest.raises(NotBottMatrix, match=match):
        BottMatrix(n, rows)


@pytest.mark.parametrize("entry", [True, 1.0, 2, -1, "1"])
def test_validate_refuses_an_entry_that_is_not_the_int_0_or_1(entry):
    # 1.0 used to raise TypeError from `1.0 << j`, and True was accepted
    with pytest.raises(NotBottMatrix, match="int 0 or 1"):
        validate([[0, entry], [0, 0]])


# --- to_strict_upper -------------------------------------------------------

def test_to_strict_upper_fixes_strictly_upper():
    perm, b = to_strict_upper(A4)
    assert perm == (0, 1, 2, 3, 4)
    assert b == A4


@pytest.mark.parametrize("n", [2, 3, 5])
def test_to_strict_upper_subdiagonal(n):
    # the anti-diagonal conjugate (= transpose) of the superdiagonal matrix
    sub = BottMatrix(n, tuple(1 << (i - 1) if i else 0 for i in range(n)))
    perm, b = to_strict_upper(sub)
    assert perm == tuple(n - 1 - i for i in range(n))  # reversal
    assert b == superdiagonal(n)


def test_to_strict_upper_is_conjugation():
    for m in enumerate_strict_upper(4):
        for perm in itertools.permutations(range(4)):
            scrambled = op1(m, perm)
            q, b = to_strict_upper(scrambled)
            assert op1(scrambled, q) == b


def scan_order(n, rows):
    # the quadratic scan the topological order replaced: place the first
    # unplaced vertex, in index order, whose predecessors are all placed
    order = []
    while len(order) < n:
        v = next((u for u in range(n) if u not in order
                  and all((rows[k] >> u) & 1 == 0 or k in order for k in range(n))), None)
        if v is None:
            break
        order.append(v)
    return order


def _check_against_the_scan(n, rows):
    order = scan_order(n, rows)
    assert bottmatrix._topo_order(n, rows) == order, (n, rows)
    if len(order) < n:
        # the constructor refuses the digraph and names a cycle of it, made
        # of vertices the scan could not place
        with pytest.raises(NotBottMatrix, match="^edge digraph has a cycle: ") as exc:
            BottMatrix(n, rows)
        cycle = [int(v) - 1 for v in str(exc.value).rpartition(": ")[2].split(" -> ")]
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1, (n, rows)
        assert all((rows[k] >> v) & 1 for k, v in zip(cycle, cycle[1:])), (n, rows)
        assert not set(cycle) & set(order), (n, rows)
        return
    perm = [order.index(v) for v in range(n)]
    m = BottMatrix(n, rows)
    upper = _strict_upper(lists(m))
    assert m.is_strictly_upper is upper
    assert m._perm == (None if upper else tuple(perm)), (n, rows)
    relabelled = op1_oracle(lists(m), perm)
    assert _strict_upper(relabelled)
    assert to_strict_upper(m) == (tuple(perm), BottMatrix.from_rows(relabelled)), (n, rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_topological_order_is_the_scan_on_every_loop_free_digraph(n):
    # acyclic ones give the scan's order, the kept `_perm` and `to_strict_upper`
    # its relabelling; cyclic ones the scan's placed prefix, and the
    # constructor refuses them
    for rows in itertools.product(range(1 << n), repeat=n):
        if not any((r >> i) & 1 for i, r in enumerate(rows)):
            _check_against_the_scan(n, rows)


@pytest.mark.parametrize("n", range(7, 13))
def test_topological_order_is_the_scan_on_seeded_relabellings(n):
    # 40 relabelled strictly upper matrices, and each again with one back
    # edge added before the relabelling (cyclic when it closes a path)
    rng = random.Random(500 + n)
    cyclic = 0
    for m in _sampled_strict_upper(n, 40, 600 + n):
        perm = rng.sample(range(n), n)
        _check_against_the_scan(n, op1(m, perm).rows)
        i, j = sorted(rng.sample(range(n), 2))
        back = lists(m)
        back[j][i] = 1
        rows = tuple(sum(b << k for k, b in enumerate(row)) for row in op1_oracle(back, perm))
        _check_against_the_scan(n, rows)
        cyclic += len(scan_order(n, rows)) < n
    assert 0 < cyclic < 40


def test_diffeo_class_of_one_relabelled_member_of_every_class_n6():
    rng = random.Random(6060)
    classes = diffeo_classes(6)
    assert len(classes) == 472
    for cls in classes:
        k = rng.randrange(cls.size)
        m = next(itertools.islice(cls.members, k, k + 1))
        home = diffeo_class_of(m)
        assert home is cls
        assert diffeo_class_of(op1(m, rng.sample(range(6), 6))) is home


NOT_UPPER_ROWS = (0, 0b0001, 0b0011, 0b0100)  # edges 1->0, 2->0, 2->1, 3->2


def test_broken_relabelling_raises_with_the_matrix(monkeypatch):
    # a kept order that does not sort the edges (here the identity) must not
    # look up a class: the code's bits would land in the wrong rows' fields
    monkeypatch.setattr(bottmatrix, "_topo_order", lambda n, rows: list(range(n)))
    m = BottMatrix(4, NOT_UPPER_ROWS)
    assert m._perm == (0, 1, 2, 3)
    named = json.dumps(to_json_dict(m))
    assert named == '{"n": 4, "rows": ["0000", "1000", "1100", "0010"]}'
    for lookup in (diffeo_class_of, to_strict_upper):
        with pytest.raises(InvariantViolation) as exc:
            lookup(m)
        assert str(exc.value) == f"topological relabelling of {named} is not strictly upper"


def test_broken_relabelling_raises_under_python_O():
    code = textwrap.dedent(f"""
        from bottclass import bottmatrix
        from bottclass.bottmatrix import BottMatrix
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        bottmatrix._topo_order = lambda n, rows: list(range(n))
        m = BottMatrix(4, {NOT_UPPER_ROWS})
        for lookup in (bottmatrix.diffeo_class_of, bottmatrix.to_strict_upper):
            try:
                lookup(m)
            except InvariantViolation as exc:
                print("raised:", exc)
            else:
                print("not raised")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    named = json.dumps(bottmatrix._json_rows(4, NOT_UPPER_ROWS))
    assert proc.stdout == f"raised: topological relabelling of {named} is not strictly upper\n" * 2


MOVED_A4 = op1(A4, (4, 2, 0, 3, 1))


def test_the_kept_relabelling_is_no_part_of_the_value():
    assert MOVED_A4._perm is not None and A4._perm is None
    twin = BottMatrix(5, MOVED_A4.rows)
    object.__setattr__(twin, "_perm", (0, 1, 2, 3, 4))
    assert twin == MOVED_A4 and hash(twin) == hash(MOVED_A4)
    assert repr(twin) == repr(MOVED_A4) == f"BottMatrix(n=5, rows={MOVED_A4.rows!r})"
    assert BottMatrix.__match_args__ == ("n", "rows")
    match MOVED_A4:
        case BottMatrix(n, rows):
            assert (n, rows) == (5, MOVED_A4.rows)


def test_copies_keep_the_relabelling_and_replace_sorts_again(monkeypatch):
    def refuse(n, rows):
        raise AssertionError("sorted again")

    with monkeypatch.context() as patch:
        patch.setattr(bottmatrix, "_topo_order", refuse)
        for m in (A4, MOVED_A4):
            clones = [copy.copy(m), copy.deepcopy(m)]
            clones += [pickle.loads(pickle.dumps(m, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for clone in clones:
                assert clone == m and clone._perm == m._perm
    assert dataclasses.replace(A4, rows=MOVED_A4.rows)._perm == MOVED_A4._perm
    assert dataclasses.replace(MOVED_A4, rows=A4.rows)._perm is None
    with pytest.raises(ValueError, match="_perm"):
        dataclasses.replace(A4, _perm=(0, 1, 2, 3, 4))


def _benchmark_inputs(name, kind, seed):
    """The matrices of one benchmark workload's operations of one kind, as
    its set-up makes them; each such operation holds its matrix as its one
    default."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    from bottclass import bieberbach, cli, cohomology, rigidity, spin
    pkg = {"bottmatrix": bottmatrix, "bieberbach": bieberbach, "cli": cli,
           "cohomology": cohomology, "rigidity": rigidity, "spin": spin}
    ops = workloads.WORKLOADS[name](pkg).setup(random.Random(seed))
    return [op.run.__defaults__[0] for op in ops if op.kind == kind]


def test_workload_lookups_and_relabellings_sort_nothing(monkeypatch):
    # the seed-0 `classify` lookups and `census` reports read the order kept
    # when their matrices were built; neither reader sorts again
    lookups = _benchmark_inputs("classify", "lookup", 0)
    permuted = [m for m in _benchmark_inputs("census", "report", 0) if not m.is_strictly_upper]
    assert len(lookups) == 2000 and len(permuted) > 100
    assert sum(not m.is_strictly_upper for m in lookups) > 1000
    calls = []
    real = bottmatrix._topo_order
    monkeypatch.setattr(bottmatrix, "_topo_order",
                        lambda n, rows: calls.append(rows) or real(n, rows))
    for m in lookups:
        diffeo_class_of(m)
    for m in permuted:
        perm, b = to_strict_upper(m)
        assert perm == m._perm and op1(m, perm) == b
    assert calls == []


# --- the three operations ---------------------------------------------------

def test_op1_identity():
    assert op1(A4, (0, 1, 2, 3, 4)) == A4


def test_op1_reversal_of_superdiagonal():
    n = 4
    got = op1(superdiagonal(n), tuple(n - 1 - i for i in range(n)))
    assert lists(got) == op1_oracle(lists(superdiagonal(n)), [n - 1 - i for i in range(n)])
    assert got.rows == (0, 1, 2, 4)  # subdiagonal


def test_op1_a23_swap_last_two():
    got = op1(A23, (0, 1, 2, 4, 3))
    assert lists(got) == op1_oracle(lists(A23), [0, 1, 2, 4, 3])
    assert got == A23  # row 3 has both columns 4,5 set; rows 4,5 are zero


def test_op1_matches_oracle_exhaustive_n3():
    for m in enumerate_strict_upper(3):
        for perm in itertools.permutations(range(3)):
            assert lists(op1(m, perm)) == op1_oracle(lists(m), list(perm))


def test_op2_zero_row_is_identity():
    for k in range(A29.n):
        if A29.rows[k] == 0:
            assert op2(A29, k) == A29


def test_op2_superdiagonal3_k0():
    m = superdiagonal(3)
    assert op2(m, 0) == m  # column 1 is zero, nothing to add


def test_op2_is_involution_exhaustive_n4():
    for m in enumerate_strict_upper(4):
        for k in range(4):
            assert op2(op2(m, k), k) == m


def test_op2_matches_oracle_exhaustive_n4():
    for m in enumerate_strict_upper(4):
        for k in range(4):
            assert lists(op2(m, k)) == op2_oracle(lists(m), k)


def test_op3_equal_rows_and_columns_zeroes_row():
    m = BottMatrix.from_rows([
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    # columns 1 and 2 are both zero; rows 1 and 2 are equal
    got = op3(m, 0, 1)
    assert got.rows[1] == 0
    assert lists(got) == op3_oracle(lists(m), 0, 1)


def test_op3_a23_rejected_on_distinct_columns():
    # columns 1 and 2 of A23 differ (zero vs e_1)
    with pytest.raises(ColumnMismatch):
        op3(A23, 0, 1)


def test_op3_zero_matrix():
    z = BottMatrix(3, (0, 0, 0))
    assert op3(z, 0, 2) == z


def test_op3_matches_oracle_when_eligible_n4():
    for m in enumerate_strict_upper(4):
        for l in range(4):
            for m_idx in range(4):
                if l == m_idx:
                    continue
                if m.col_mask(l) == m.col_mask(m_idx):
                    assert lists(op3(m, l, m_idx)) == op3_oracle(lists(m), l, m_idx)


def test_ops_preserve_validity_exhaustive_n4():
    for m in enumerate_strict_upper(4):
        for k in range(4):
            validate(op2(m, k))
        for perm in itertools.permutations(range(4)):
            validate(op1(m, perm))
        for l in range(4):
            for m_idx in range(4):
                if l != m_idx and m.col_mask(l) == m.col_mask(m_idx):
                    validate(op3(m, l, m_idx))


# --- enumeration ------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 2), (5, 1024), (6, 32768)])
def test_enumerate_strict_upper_counts(n, count):
    assert sum(1 for _ in enumerate_strict_upper(n)) == count


def test_enumerate_strict_upper_bound():
    with pytest.raises(BoundExceeded):
        next(enumerate_strict_upper(8))


# --- invariants -------------------------------------------------------------

def test_is_orientable_examples():
    assert is_orientable(BottMatrix(4, (0, 0, 0, 0)))
    assert is_orientable(A29)
    for n in range(2, 6):
        assert not is_orientable(superdiagonal(n))  # rows of weight 1


def test_is_ghw_rbm_examples():
    assert is_ghw_rbm(superdiagonal(5))
    assert not is_ghw_rbm(BottMatrix(3, (0, 0, 0)))
    assert not is_ghw_rbm(A4)  # rank 3 != 4


def test_ghw_equals_superdiagonal_product_n_le_5():
    # for strictly upper matrices, rank n-1 iff all superdiagonal entries are 1
    for n in range(2, 6):
        for m in enumerate_strict_upper(n):
            product_one = all(m.entry(i, i + 1) for i in range(n - 1))
            assert is_ghw_rbm(m) == product_one


# --- classification ----------------------------------------------------------

def test_diffeo_class_counts_small():
    assert len(diffeo_classes(1)) == 1
    assert len(diffeo_classes(2)) == 2
    assert len(diffeo_classes(3)) == 4
    assert len(diffeo_classes(4)) == 12
    assert len(diffeo_classes(5)) == 54


def test_oriented_class_counts_small():
    for n, expected in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 8)]:
        got = sum(1 for c in diffeo_classes(n) if c.fingerprint.orientable)
        assert got == expected


def test_ghw_class_counts_match_formula():
    for n in range(3, 6):
        assert count_ghw_rbm_classes(n) == 1 << ((n - 2) * (n - 3) // 2)


def test_ghw_class_count_dim2_recorded():
    # the closed formula and the Klein bottle both give 1 here; the value is
    # recorded as computed (the classical tables treat n = 2 differently).
    assert count_ghw_rbm_classes(2) == 1


def test_canonical_is_least_member():
    for cls in diffeo_classes(4):
        key = lambda m: tuple(m.entry(i, j) for i in range(4) for j in range(4))
        assert cls.canonical == min(cls.members, key=key)


def test_orbits_partition_everything():
    classes = diffeo_classes(4)
    seen = set()
    for c in classes:
        assert not (seen & c.members)
        seen |= c.members
    assert len(seen) == 64


def test_members_closed_under_moves_n3():
    for cls in diffeo_classes(3):
        for m in cls.members:
            for k in range(3):
                assert op2(m, k) in cls.members
            for perm in itertools.permutations(range(3)):
                q, b = to_strict_upper(op1(m, perm))
                assert b in cls.members
            for l in range(3):
                for m_idx in range(3):
                    if l != m_idx and m.col_mask(l) == m.col_mask(m_idx):
                        q, b = to_strict_upper(op3(m, l, m_idx))
                        assert b in cls.members


def test_diffeo_class_of_catalog():
    cls = diffeo_class_of(A4)
    assert A4 in cls.members
    assert cls.fingerprint.orientable
    # the seven catalog matrices land in seven distinct non-torus classes
    reps = {diffeo_class_of(m).canonical for m in catalog.DIM5_ORIENTED.values()}
    assert len(reps) == 7
    torus_rep = diffeo_class_of(BottMatrix(5, (0,) * 5)).canonical
    assert torus_rep not in reps


def _strict_upper(mat):
    return all(mat[i][j] == 0 for i in range(len(mat)) for j in range(i + 1))


def _closure_oracle(mat):
    """Orbit of a strictly upper matrix built from the list oracles: every
    strictly upper conjugate, Op2 at every k, and Op3 on every pair of
    equal columns followed by the first relabelling that makes it strictly
    upper again."""
    n = len(mat)
    perms = list(itertools.permutations(range(n)))

    def key(m):
        return tuple(map(tuple, m))

    def upper_conjugates(m):
        return [c for c in (op1_oracle(m, p) for p in perms) if _strict_upper(c)]

    seen = {key(mat)}
    todo = [mat]
    while todo:
        m = todo.pop()
        nbs = upper_conjugates(m) + [op2_oracle(m, k) for k in range(n)]
        for l in range(n):
            for m_idx in range(n):
                if l != m_idx and all(m[i][l] == m[i][m_idx] for i in range(n)):
                    nbs.append(upper_conjugates(op3_oracle(m, l, m_idx))[0])
        for nb in nbs:
            if key(nb) not in seen:
                seen.add(key(nb))
                todo.append(nb)
    return {tuple(int("".join(map(str, row[::-1])), 2) for row in m) for m in seen}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbits_match_independent_closure(n):
    classes = diffeo_classes(n)
    for cls in classes:
        assert _closure_oracle(lists(cls.canonical)) == {m.rows for m in cls.members}
    assert sum(cls.size for cls in classes) == 1 << (n * (n - 1) // 2)


def test_diffeo_class_of_every_relabelling_n4():
    diffeo_classes.cache_clear()  # the index must belong to the fresh memo
    classes = diffeo_classes(4)
    for m in enumerate_strict_upper(4):
        home = diffeo_class_of(m)
        assert m in home.members
        assert any(c is home for c in classes)
        for perm in itertools.permutations(range(4)):
            assert diffeo_class_of(op1(m, perm)) is home


def test_diffeo_class_of_seeded_walks_n6():
    rng = random.Random(20240)
    n = 6
    for _ in range(150):
        start = [[int(j > i and rng.random() < 0.5) for j in range(n)] for i in range(n)]
        moved = start
        for _ in range(rng.randint(1, 8)):
            pairs = [(l, m_idx) for l in range(n) for m_idx in range(n)
                     if l != m_idx and all(moved[i][l] == moved[i][m_idx] for i in range(n))]
            move = rng.randrange(3)
            if move == 0:
                moved = op1_oracle(moved, rng.sample(range(n), n))
            elif move == 1:
                moved = op2_oracle(moved, rng.randrange(n))
            elif pairs:
                moved = op3_oracle(moved, *rng.choice(pairs))
        assert BottMatrix.from_rows(start) in diffeo_class_of(BottMatrix.from_rows(moved)).members


def test_diffeo_class_of_reads_no_move_table_after_the_walk(monkeypatch):
    # the move tables live only as long as the walk: 2,000 seeded lookups
    # at n = 6, relabelled strictly upper matrices, give the same classes
    # with `_move_masks` raising once the walk is done, and each matrix is
    # in its class by the `_code` route of `ClassMembers`
    n = 6
    rng = random.Random(6060)
    draws = [op1(BottMatrix(n, bottmatrix._decode(n, rng.getrandbits(15))), rng.sample(range(n), n))
             for _ in range(2000)]
    expected = [diffeo_class_of(m) for m in draws]

    def walk_is_over(n):
        raise AssertionError(f"the tables of n = {n} were asked for after the walk")

    monkeypatch.setattr(bottmatrix, "_move_masks", walk_is_over)
    for m, cls in zip(draws, expected):
        assert diffeo_class_of(m) is cls
        assert to_strict_upper(m)[1] in cls.members
    assert sum(not m.is_strictly_upper for m in draws) > 1900


def _code_tops(n):
    # tops[i] = off_i + n-1, read from `_code` of the single-entry matrices
    # alone: entry a[i][j] is bit off_i + n-1-j, the same top for every
    # j > i; the last row is empty and its offset 0
    tops = []
    for i in range(n - 1):
        found = {bottmatrix._code(n, tuple(1 << j if r == i else 0 for r in range(n))).bit_length()
                 - 1 + j for j in range(i + 1, n)}
        assert len(found) == 1, (n, i, found)
        tops += found
    return tuple(tops + [n - 1])


def test_class_table_tops_are_the_code_offsets(monkeypatch):
    # `diffeo_class_of` reads the field offsets from the class table; for
    # n = 7 the walk runs once, unmemoised, with the bound raised, and
    # gives the counts of the n = 7 classification
    for n in range(1, 7):
        assert diffeo_classes(n).tops == _code_tops(n), n
    monkeypatch.setattr(bottmatrix, "CLASSIFY_BOUND", 7)
    classes = diffeo_classes.__wrapped__(7)
    assert classes.tops == _code_tops(7) == (21, 16, 12, 9, 7, 6, 6)
    assert len(classes) == 8512
    assert sum(c.fingerprint.orientable for c in classes) == 222
    assert sum(c.fingerprint.ghw for c in classes) == 1024


def test_broken_fingerprint_raises_under_python_O():
    # The orbit checks raise InvariantViolation, not assert, so they
    # survive `python -O`.  Two mutants, each caught by the comparison of
    # the sliced fingerprints with the class fingerprints: one flipped bit
    # of one code-bit plane, at a member that is not a canonical, and a
    # scalar route that is wrong on the canonicals only.
    code = textwrap.dedent("""
        import json
        from bottclass import bottmatrix
        from bottclass.gf2 import InvariantViolation, transpose_masks
        assert not __debug__
        n = 3
        classes = bottmatrix.diffeo_classes(n)
        canonicals = {c.canonical.rows for c in classes}
        def fp(code):
            rows = bottmatrix._decode(n, code)
            return bottmatrix._fingerprint_raw(rows, transpose_masks(n, rows))
        member, plane = next((c, p) for c in range(8) for p in range(3)
                             if bottmatrix._decode(n, c) not in canonicals
                             and fp(c) != fp(c ^ 1 << p))
        named = lambda rows: json.dumps(bottmatrix.to_json_dict(bottmatrix.BottMatrix(n, rows)))
        print(named(bottmatrix._decode(n, member)),
              named(classes[classes.class_ids[member]].canonical.rows), sep="|")
        def attempt():
            bottmatrix.diffeo_classes.cache_clear()
            try:
                bottmatrix.diffeo_classes(n)
            except InvariantViolation as exc:
                print("raised:", exc)
            else:
                print("not raised")
        real_lanes = bottmatrix.bit_lanes
        def flipped(width, i):  # one code's entry flipped in one plane
            return real_lanes(width, i) ^ (1 << member if i == plane else 0)
        bottmatrix.bit_lanes = flipped
        attempt()
        bottmatrix.bit_lanes = real_lanes
        real = bottmatrix._fingerprint_raw
        def broken(rows, cols):  # wrong on the canonicals, the only calls
            rank, odd, w2 = real(rows, cols)
            return rank, odd, w2 if rows not in canonicals else not w2
        bottmatrix._fingerprint_raw = broken
        attempt()
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    chosen, flipped, broken = proc.stdout.splitlines()
    member, canonical = chosen.split("|")
    assert member != canonical
    assert json.loads(member)["n"] == json.loads(canonical)["n"] == 3
    assert flipped == f"raised: fingerprint not constant on orbit of {canonical}: {member}"
    zero = '{"n": 3, "rows": ["000", "000", "000"]}'
    assert broken == f"raised: fingerprint not constant on orbit of {zero}: {zero}"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_sliced_fingerprints_match_the_scalar_route(n):
    # every code at n <= 6, 2,000 seeded codes at n = 7 (64 blocks)
    blocks = list(bottmatrix._fingerprint_blocks(n))
    sliced = b"".join(block for _, block in blocks)
    assert [start for start, _ in blocks] == list(range(0, len(sliced), len(blocks[0][1])))
    assert len(sliced) == 1 << (n * (n - 1) // 2)
    codes = range(len(sliced)) if n <= 6 else random.Random(7).sample(range(len(sliced)), 2000)
    for code in codes:
        rows = bottmatrix._decode(n, code)
        fp = bottmatrix._fingerprint_raw(rows, transpose_masks(n, rows))
        assert sliced[code] == bottmatrix._fingerprint_byte(*fp), (n, rows)


def test_diffeo_class_of_uncovered_matrix_raises():
    classes = diffeo_classes(3)
    saved = classes.class_ids[:]
    classes.class_ids[:] = array("i", [-1]) * len(saved)
    try:
        with pytest.raises(InvariantViolation, match="^classification did not cover "
                           + re.escape('{"n": 3, "rows": ["000", "000", "000"]}') + "$"):
            diffeo_class_of(BottMatrix(3, (0, 0, 0)))
    finally:
        classes.class_ids[:] = saved


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_members_view_contract(n):
    # iteration against `_closure_oracle`: test_orbits_match_independent_closure
    classes = diffeo_classes(n)
    for cls in classes:
        members = cls.members
        listed = list(members)
        assert len(listed) == len(set(listed)) == len(members) == cls.size
        assert all(m in members for m in listed)
        assert frozenset(listed) == members and members == frozenset(listed)
        assert hash(members) == hash(frozenset(listed))
        for other in classes:
            if other is not cls:
                assert not any(m in members for m in other.members)
        assert "not a matrix" not in members and cls.canonical.rows not in members
        assert BottMatrix(n + 1, (0,) * (n + 1)) not in members
        # reversing the labels makes every nonzero member strictly lower
        lower = [op1(m, range(n)[::-1]) for m in listed if any(m.rows)]
        assert not any(m.is_strictly_upper or m in members for m in lower)


def test_members_view_set_algebra_and_rebuild():
    classes = diffeo_classes(4)
    frozen = [frozenset(c.members) for c in classes]
    seen = set()
    for c, f in zip(classes, frozen):
        assert not (seen & c.members) and not (c.members & seen)
        assert (c.members & f) == f and (c.members | f) == f
        seen |= c.members
    assert seen == frozenset().union(*frozen) and len(seen) == 64
    diffeo_classes.cache_clear()
    rebuilt = diffeo_classes(4)
    assert rebuilt is not classes and rebuilt == classes
    assert [c.members for c in rebuilt] == frozen
    assert all(a == b and hash(a) == hash(b) for a, b in zip(rebuilt, classes))
    assert all(a.members != b.members for a, b in zip(rebuilt, rebuilt[1:]))


def _sampled_strict_upper(n, count, seed):
    # the density varies per matrix, so sparse ones with many equal columns
    # (Op3) and dense ones with few open swaps both occur
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([0.1, 0.25, 0.5, 0.75])
        yield BottMatrix.from_rows([[int(j > i and rng.random() < p) for j in range(n)]
                                    for i in range(n)])


def _moved_matrices(n):
    # every strictly upper matrix for n <= 5, 300 seeded ones for n >= 6
    return enumerate_strict_upper(n) if n <= 5 else _sampled_strict_upper(n, 300, 7000 + n)


def _swap_perm(n, i):
    swap = list(range(n))
    swap[i], swap[i + 1] = i + 1, i
    return swap


def _cyclic_perm(n, l, m_idx):
    # the relabelling that moves l down to m_idx and m_idx..l-1 up by one
    perm = list(range(n))
    perm[l] = m_idx
    for j in range(m_idx, l):
        perm[j] = j + 1
    return perm


def _upper_code(n, mat):
    # the `_code` layout read off strictly upper lists: the entries above
    # the diagonal, row-major, as one binary number with a[0][1] highest
    assert len(mat) == n and not any(any(row[:i + 1]) for i, row in enumerate(mat)), mat
    return int("0" + "".join("".join(map(str, row[i + 1:])) for i, row in enumerate(mat)), 2)


def _upper_lists(n, code):
    # the strictly upper lists with this code, the inverse of `_upper_code`
    mat = [[0] * n for _ in range(n)]
    for i, j in reversed([(i, j) for i in range(n) for j in range(i + 1, n)]):
        mat[i][j], code = code & 1, code >> 1
    return mat


def _check_table_layout(n, tables):
    # one table per 11-bit chunk of the code, at least two: the second is
    # the one-entry table (0,) while the code has at most 11 bits
    width = n * (n - 1) // 2
    assert len(tables) == max(2, -(-width // 11)) and all(len(t) <= 2048 for t in tables)
    for t, table in enumerate(tables):
        assert len(table) == 1 << min(11, max(0, width - 11 * t)), (n, t)


def _check_tables(n, tables, expected, free):
    # every entry of a move's chunk tables against the list oracles: the
    # code made of one chunk value is mapped to expected(matrix) when it
    # holds none of the bits in free (entries the move never reads on a
    # legal code), and the tables are OR-linear, so the map of any code is
    # the OR of its chunks' entries and each entry is one oracle image
    _check_table_layout(n, tables)
    checked = 0
    for t, table in enumerate(tables):
        for value, image in enumerate(table):
            code = value << (11 * t)
            if not code & free:
                mat = _upper_lists(n, code)
                assert image == _upper_code(n, expected(mat)), (n, t, value)
                checked += 1
    return checked


def _superdiagonal(mat):
    # the pattern phase 1 reads: bit i is a[i][i+1]
    return sum(mat[i][i + 1] << i for i in range(len(mat) - 1))


def _check_swap_codes(n):
    # Op1's edges in the walk, rebuilt from the list oracle: each swap
    # (i i+1) is legal where a[i][i+1] = 0, the pattern tables read that
    # entry, bit i, on every table entry, and the swap's tables map a code
    # to the code of the swapped matrix, on every table entry and on the
    # matrices of `_moved_matrices`, where the legal list of the code's
    # pattern holds exactly the swaps with a[i][i+1] = 0 and the swaps that
    # fix the matrix map the code to itself
    total = 1 << (n * (n - 1) // 2)
    pattern, legal = bottmatrix._move_masks(n)[0]
    swaps = legal[0]
    assert len(swaps) == n - 1 and len(legal) == 1 << (n - 1)
    _check_table_layout(n, pattern)
    for t, table in enumerate(pattern):
        for value, read in enumerate(table):
            assert read == _superdiagonal(_upper_lists(n, value << (11 * t))), (n, t, value)
    for i, tables in enumerate(swaps):
        top = _upper_code(n, [[int((r, c) == (i, i + 1)) for c in range(n)] for r in range(n)])
        assert _check_tables(n, tables, lambda mat: op1_oracle(mat, _swap_perm(n, i)), top)
    moved = fixed = 0
    for m in _moved_matrices(n):
        mat = lists(m)
        code = bottmatrix._code(n, m.rows)
        read = bottmatrix._permuted(code, pattern)
        assert read == _superdiagonal(mat)
        assert legal[read] == tuple(swaps[i] for i in range(n - 1) if not mat[i][i + 1])
        for i, tables in enumerate(swaps):
            if mat[i][i + 1]:
                continue
            image = bottmatrix._permuted(code, tables)
            swapped = op1_oracle(mat, _swap_perm(n, i))
            assert 0 <= image < total
            assert bottmatrix._decode(n, image) == BottMatrix.from_rows(swapped).rows
            moved += swapped != mat
            fixed += swapped == mat
    assert fixed and (n == 2 or moved)


def _check_op3_paths(n):
    # the relabelling the reverse Op3 of the pair (l, m_idx) is read after,
    # one table per pair, against the list oracle under the cyclic
    # relabelling that moves l down to m_idx: on every table entry whose
    # code has a[j][l] = 0 for m_idx <= j < l (true wherever columns l and
    # m_idx are equal) and on every matrix of `_moved_matrices` with
    # columns l and m_idx equal
    pairs = bottmatrix._move_masks(n)[2]
    assert [(l, m_idx) for l, m_idx, *_ in pairs] == [(l, m_idx) for l in range(1, n)
                                                     for m_idx in range(l)]
    for l, m_idx, _, path, _, _ in pairs:
        free = _upper_code(n, [[int(c == l and m_idx <= r < l) for c in range(n)]
                               for r in range(n)])
        perm = _cyclic_perm(n, l, m_idx)
        assert _check_tables(n, path, lambda mat: op1_oracle(mat, perm), free)
    equal = 0
    for m in _moved_matrices(n):
        mat = lists(m)
        code = bottmatrix._code(n, m.rows)
        for l, m_idx, _, path, _, _ in pairs:
            if all(mat[i][l] == mat[i][m_idx] for i in range(n)):
                relabelled = op1_oracle(mat, _cyclic_perm(n, l, m_idx))
                assert bottmatrix._decode(n, bottmatrix._permuted(code, path)) == \
                    BottMatrix.from_rows(relabelled).rows, (n, m.rows, l, m_idx)
                equal += l - m_idx > 1 and relabelled != mat
    assert n <= 2 or equal


def _check_op23_codes(n):
    # the Op2/Op3 edges of the walk's second phase, rebuilt from the list
    # oracles: Op2 at every k, Op3 adding row l to a row m_idx < l with an
    # equal column, and the reverse Op3, row m_idx added to row l, read
    # under the cyclic relabelling that moves l down to m_idx; each only
    # where it changes the matrix (the reverse one before the relabelling).
    # The one reverse move left out, when rows l and m_idx are equal too,
    # is the forward one under the exchange of l and m_idx.
    total = 1 << (n * (n - 1) // 2)
    masks = bottmatrix._move_masks(n)
    moved = {"op2": 0, "op3": 0, "reverse": 0, "equal rows": 0}
    for m in _moved_matrices(n):
        mat = lists(m)
        code = bottmatrix._code(n, m.rows)
        codes = bottmatrix._op23_codes(masks, code)
        assert all(0 <= c < total for c in codes) and code not in codes
        found = {"op2": [op2_oracle(mat, k) for k in range(n)], "op3": [], "reverse": []}
        for l in range(n):
            for m_idx in range(l):
                if any(mat[i][l] != mat[i][m_idx] for i in range(n)):
                    continue
                forward = op3_oracle(mat, l, m_idx)
                reverse = op3_oracle(mat, m_idx, l)
                found["op3"].append(forward)
                if mat[l] == mat[m_idx]:
                    exchange = list(range(n))
                    exchange[l], exchange[m_idx] = m_idx, l
                    assert op1_oracle(forward, exchange) == reverse
                    moved["equal rows"] += forward != mat
                elif reverse != mat:
                    found["reverse"].append(op1_oracle(reverse, _cyclic_perm(n, l, m_idx)))
        expected = set()
        for kind, results in found.items():
            changed = [r for r in results if r != mat]
            moved[kind] += len(changed)
            expected |= {BottMatrix.from_rows(r).rows for r in changed}
        assert {bottmatrix._decode(n, c) for c in codes} == expected
    assert n == 2 or all(moved.values()), moved


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_legal_lists_hold_the_swaps_of_their_pattern(n):
    # phase 1 reads, for the superdiagonal pattern of a code, the tables of
    # exactly the swaps (i i+1) with bit i clear, in index order: every
    # pattern, each listed table the very object of its swap in legal[0]
    pattern, legal = bottmatrix._move_masks(n)[0]
    assert len(legal) == 1 << max(n - 1, 0) and len(legal[0]) == max(n - 1, 0)
    assert len(set(map(id, legal[0]))) == len(legal[0])
    for p, listed in enumerate(legal):
        assert list(map(id, listed)) == [id(legal[0][i]) for i in range(n - 1) if not p >> i & 1]
        assert all(len(tables) == 2 for tables in listed)
    assert len(pattern) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_neighbors_are_the_strictly_upper_moves(n):
    # the walk's edges against the list oracles: every entry of the swap and
    # path tables, then each move on every strictly upper matrix for n <= 5
    # and 300 seeded ones each for n = 6..8
    _check_swap_codes(n)
    _check_op3_paths(n)
    _check_op23_codes(n)


def _op1_orbit_label(n, rows):
    # the least `_code` over every strictly upper conjugate, by brute force
    # over all relabellings (no adjacent swap involved)
    conjugates = (bottmatrix._conjugate_raw(n, rows, p) for p in itertools.permutations(range(n)))
    return min(bottmatrix._code(n, c) for c in conjugates
               if all(r & ((2 << i) - 1) == 0 for i, r in enumerate(c)))


@functools.cache
def _swap_orbits(n):
    # one phase-1 run per n for the whole session, on a list of ids as the
    # walk's (16 MiB at n = 7)
    ids = [-1] * (1 << (n * (n - 1) // 2))
    return ids, bottmatrix._swap_orbits(bottmatrix._move_masks(n), ids)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_swap_orbits_are_the_strictly_upper_conjugates(n):
    # phase 1 of the walk against brute force: the orbit table labels each
    # code with the orbit whose representative is its least conjugate; every
    # code for n <= 5, 60 seeded matrices at n = 6 and 40 at n = 7
    ids, reps = _swap_orbits(n)
    assert list(reps) == sorted(reps)
    if n <= 5:
        codes = range(len(ids))
    else:
        sampled = _sampled_strict_upper(n, 60, 9006) if n == 6 else _sampled_strict_upper(n, 40, 9007)
        codes = [bottmatrix._code(n, m.rows) for m in sampled]
    for code in codes:
        assert reps[ids[code]] == _op1_orbit_label(n, bottmatrix._decode(n, code))


def test_swap_orbit_counts():
    # the unlabelled acyclic digraphs on n vertices (OEIS A003087)
    for n, count in zip(range(1, 8), [1, 2, 6, 31, 302, 5984, 243_668]):
        assert len(_swap_orbits(n)[1]) == count


def test_swap_orbits_refuse_n8():
    # two 11-bit reads per swap cover the 21 code bits of n = 7; the
    # orbit table of n = 8 would hold 2^28 ids
    with pytest.raises(BoundExceeded):
        bottmatrix._swap_orbits(bottmatrix._move_masks(8), [])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_op23_codes_reach_the_same_orbits_from_every_member(n):
    # the fact phase 2 rests on: Op2 and Op3 commute with relabelling, so
    # `_op23_codes` from any member of an Op1 orbit and from its least
    # member reach the same Op1 orbits; every strictly upper matrix for
    # n <= 5, 40 seeded ones at n = 6, orbits labelled by brute force
    if n <= 5:
        total = 1 << (n * (n - 1) // 2)
        labels = [_op1_orbit_label(n, bottmatrix._decode(n, c)) for c in range(total)]
        label = labels.__getitem__
        codes = range(len(labels))
    else:
        label = lambda c: _op1_orbit_label(n, bottmatrix._decode(n, c))
        codes = [bottmatrix._code(n, m.rows) for m in _sampled_strict_upper(n, 40, 8006)]
    masks = bottmatrix._move_masks(n)
    differ = 0
    for code in codes:
        least = label(code)
        reached = {label(c) for c in bottmatrix._op23_codes(masks, code)}
        assert reached == {label(c) for c in bottmatrix._op23_codes(masks, least)}, (n, code)
        differ += code != least
    assert differ


def test_two_orbits_raises_under_python_O():
    # a node that already holds another id stops either phase of the walk at
    # that edge, with InvariantViolation, so the check survives `python -O`:
    # a foreign id is put on a code that is not the least of its Op1 orbit
    # (phase 1, `_swap_orbits`), then on an orbit that is not the least of
    # its class (phase 2, `_components`), at n = 4
    code = textwrap.dedent("""
        from bottclass import bottmatrix
        from bottclass.gf2 import InvariantViolation
        assert not __debug__
        real_swaps, real_components = bottmatrix._swap_orbits, bottmatrix._components
        def mislabel(ids, walk):
            labelled = ids[:]
            walk(labelled)
            node = next(x for x, c in enumerate(labelled) if labelled.index(c) != x)
            ids[node] = 10**6
        def swap_orbits(masks, ids):
            mislabel(ids, lambda table: real_swaps(masks, table))
            return real_swaps(masks, ids)
        def components(ids, step, rows_of):
            mislabel(ids, lambda table: real_components(table, step, rows_of))
            return real_components(ids, step, rows_of)
        for name, patched in (("_swap_orbits", swap_orbits), ("_components", components)):
            bottmatrix._swap_orbits, bottmatrix._components = real_swaps, real_components
            setattr(bottmatrix, name, patched)
            bottmatrix.diffeo_classes.cache_clear()
            try:
                bottmatrix.diffeo_classes(4)
            except InvariantViolation as exc:
                print("raised:", exc)
            else:
                print("not raised")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("raised: ") and line.endswith(" is in two orbits")
        named = json.loads(line[len("raised: "):-len(" is in two orbits")])
        assert named["n"] == 4 and len(named["rows"]) == 4
        assert all(len(row) == 4 and set(row) <= {"0", "1"} for row in named["rows"])


def test_dropped_op3_direction_stays_in_class_n6():
    # Op3 adding row l to a row m_idx > l leaves the strictly upper form, and
    # the walk reads it only after a relabelling; every such move, on every
    # strictly upper n = 6 matrix, lands in the matrix's own class
    n, edges = 6, 0
    for m in enumerate_strict_upper(n):
        home = diffeo_class_of(m)
        cols = transpose_masks(n, m.rows)
        for m_idx in range(n):
            for l in range(m_idx):
                if cols[l] == cols[m_idx]:
                    edges += 1
                    assert diffeo_class_of(op3(m, l, m_idx)) is home, (m.rows, l, m_idx)
    assert edges == 58_368


# --- interchange formats ------------------------------------------------------

def test_text_round_trip():
    text = format_matrix_text(A4)
    assert parse_matrix(text) == A4
    assert text.splitlines()[0] == "5"


def test_json_round_trip():
    blob = json.dumps(to_json_dict(A23))
    assert parse_matrix(blob) == A23


def test_json_rows_are_the_per_bit_join():
    # the rows of `to_json_dict` and `named`, each formatted in one call,
    # against the entries written one by one: character j is a[i][j]
    rng = random.Random(64)
    for n in range(1, 65):
        rows = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(8)]
        expected = ["".join(str((r >> j) & 1) for j in range(n)) for r in rows]
        assert bottmatrix._json_rows(n, rows) == {"n": n, "rows": expected}
        assert json.loads(bottmatrix.named(n, rows)) == {"n": n, "rows": expected}


def test_parse_errors():
    with pytest.raises(MatrixParseError):
        parse_matrix("")
    with pytest.raises(MatrixParseError):
        parse_matrix("2\n01\n1")
    with pytest.raises(MatrixParseError):
        parse_matrix("2\n01\n12")
    with pytest.raises(MatrixParseError):
        parse_matrix('{"n": 2}')
    with pytest.raises(MatrixParseError):
        parse_matrix("2\n01\n10")  # 2-cycle
