"""Tests of the benchmark's reference code against printed and hand-worked cases.

Run with: python3 -m pytest benchmarks
"""
import reference as ref


def parse(*rows):
    return [[int(c) for c in row] for row in rows]


# The oriented 5-dimensional catalog with w2 as printed in the paper.
PRINTED_W2 = {
    "A4": (parse("01010", "00101", "00011", "00000", "00000"), "x1*x2 + x1*x3"),
    "A23": (parse("01100", "00000", "00011", "00000", "00000"), "x1*x3"),
    "A29": (parse("01111", "00000", "00000", "00000", "00000"), "0"),
    "A37": (parse("00000", "00110", "00011", "00000", "00000"), "0"),
    "A40": (parse("00101", "00110", "00011", "00000", "00000"), "x1*x2"),
    "A48": (parse("00101", "00110", "00000", "00000", "00000"), "x1*x2"),
    "A49": (parse("00000", "00000", "00011", "00000", "00000"), "0"),
}


def test_w2_matches_printed_catalog():
    for name, (a, printed) in PRINTED_W2.items():
        assert ref.all_rows_even(a), name
        assert ref.format_poly(ref.w2(a)) == printed, name


def test_w2_is_natural_under_relabelling():
    # w2 of P A P^-1 is w2 of A with the variables renamed by P.
    a, _ = PRINTED_W2["A4"]
    perm = [3, 0, 4, 1, 2]
    renamed = {frozenset(perm[v] for v in t) for t in ref.w2(a)}
    assert ref.w2(ref.op1(a, perm)) == renamed


def test_hand_worked_2x2():
    # Klein bottle: y1 = 0, y2 = x1, so w1 = x1 and w2 = y1 y2 = 0.
    k = parse("01", "00")
    assert not ref.all_rows_even(k)
    assert ref.w2(k) == set()
    assert ref.product(k, {0}, {0}) == set()  # x1^2 = x1 y1 = 0
    assert ref.product(k, {1}, {1}) == {frozenset((0, 1))}  # x2^2 = x2 x1
    assert ref.gf2_rank(k) == 1
    assert ref.op1(k, [1, 0]) == parse("00", "10")
    assert ref.op2(k, 0) == parse("01", "00")  # column 1 is zero
    assert ref.equal_column_pairs(k) == []


def test_hand_worked_3x3():
    # y2 = y3 = x1: w2 = y2 y3 = x1^2 = x1 y1 = 0.
    a = parse("011", "000", "000")
    assert ref.w2(a) == set()
    assert ref.gf2_rank(a) == 1
    # y2 = x1, y3 = x1 + x2: w2 = x1^2 + x1 x2 = x1 x2.
    b = parse("011", "001", "000")
    assert ref.format_poly(ref.w2(b)) == "x1*x2"
    assert ref.gf2_rank(b) == 2
    # Op2 at vertex 2 adds column 2 into column 3 (a[2][3] = 1): column 3
    # of b is (1,1,0)^T, column 2 is (1,0,0)^T, the sum (0,1,0)^T.
    assert ref.op2(b, 1) == parse("010", "001", "000")
    # Op3 needs equal columns: in a, columns 2 and 3 are both e_1.
    assert ref.equal_column_pairs(a) == [(1, 2), (2, 1)]
    assert ref.op3(a, 1, 2) == a  # row 2 is zero, nothing changes
    c = parse("001", "001", "000")  # columns 1 and 2 are zero
    assert ref.op3(c, 0, 1) == parse("001", "000", "000")


def test_op3_rejects_unequal_columns():
    b = parse("011", "001", "000")
    try:
        ref.op3(b, 1, 2)
    except ValueError:
        pass
    else:
        raise AssertionError("Op3 applied to unequal columns")


def test_gf2_rank():
    assert ref.gf2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert ref.gf2_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert ref.gf2_rank([[0, 0], [0, 0]]) == 0


def test_ring_iso_witness_check():
    a = parse("011", "001", "000")
    identity = [{0}, {1}, {2}]
    assert ref.is_ring_iso(a, a, identity)
    assert not ref.is_ring_iso(a, a, [{0}, {0}, {2}])  # not invertible
    # Op1 by a transposition of the two sinks is a diffeomorphism, and the
    # renaming of variables is a ring isomorphism; a non-renaming map is not.
    c = parse("011", "000", "000")
    swapped = ref.op1(c, [0, 2, 1])
    assert swapped == c
    assert ref.is_ring_iso(c, swapped, [{0}, {2}, {1}])
    # x2 -> x2 + x3 keeps x2^2 = x2 x1 in the ring of c: (x2 + x3)^2 =
    # x1 x2 + x1 x3 = (x2 + x3) x1.
    assert ref.is_ring_iso(c, c, [{0}, {1, 2}, {2}])
    # x1 -> x1 + x2 breaks x1^2 = 0: (x1 + x2)^2 = x1 x2 != 0.
    assert not ref.is_ring_iso(c, c, [{0, 1}, {1}, {2}])
