"""Z2 cohomology rings of real Bott manifolds and Stiefel-Whitney classes.

The ring of an n x n Bott matrix A is Z2[x_1..x_n] modulo the relations
x_j^2 = x_j * y_j with y_j = sum_i a_{i,j} x_i.  Monomials in normal form
are square free and stored as int bitmasks over the variable indices
(0-based).  A polynomial, `Gf2Poly`, is packed: one int with bit s set for
each square-free monomial s, so addition is XOR.

The ring builds, when it is constructed, one multiply-by-x_i table per
variable, each one int of 2^n lanes of 2^n bits: lane s, the bits
[s 2^n, (s+1) 2^n), holds the packed normal form of x_i times the monomial
s.  That is 2^(s | 1<<i) when x_i is not in s, and the XOR of lane s of
the tables of the l in y_i when it is (x_i^2 = x_i y_i).  For strictly
upper A every such l is below i, so the tables are built in order of i,
each by a few whole-int operations against masks that depend only on n
(`_lane_masks`).  Multiplying a packed polynomial by x_i shifts its
monomials without x_i by 2^i and reads a lane for the others.
Stiefel-Whitney classes and products multiply through the tables; the
constructor checks, with one AND per table, that every lane keeps its
degree.

Products of degree-1 classes have a denser form, read straight from the
columns with no ring (`degree2`): one bit per square-free pair x_a x_b
(a < b), at bit `pair_bit(a, b)`.  The isomorphism search of `rigidity`
and the proof of `ring_invariants` read it; the normal forms stay the
independent check of both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import xor
from typing import Iterable, Sequence

from .bottmatrix import BottMatrix, named, to_strict_upper, w2_masks
from .gf2 import (
    BoundExceeded,
    InvariantViolation,
    UsageError,
    bit_lanes,
    bits,
    popcount,
    transpose_masks,
)

# The multiply tables are n ints of 4^n bits, and `_lane_masks` 2n + 1 more:
# 2 MiB each at n = 12, and every int grows fourfold per step.
RING_BOUND = 12


def pair_bit(a: int, b: int) -> int:
    """Bit index of the square-free pair x_a x_b (a < b) in a packed
    degree-2 class: pairs in colexicographic order, C(n, 2) bits in all."""
    return b * (b - 1) // 2 + a


def degree2(cols: Sequence[int], u: int, v: int) -> int:
    """The product u v of the degree-1 classes u = sum_{a in u} x_a and
    v = sum_{b in v} x_b, packed over the square-free pairs (`pair_bit`),
    in the ring whose strictly upper matrix has the columns `cols`.

    Expand u v = sum u_a v_b x_a x_b.  For a != b, x_a x_b is a square-free
    pair; x_b^2 = x_b y_b = sum_{a in y_b} x_a x_b, and every a in y_b is
    below b, so no square is left.  So the coefficient of x_a x_b, a < b, is

        u_a v_b + u_b v_a + u_b v_b [a in y_b],

    and the block of the pairs ending at b (bits a < b, from b(b-1)/2 on)
    is (v if u_b) + (u if v_b), cut below bit b, plus y_b when
    u_b = v_b = 1.  Only the b in u or v have a block.
    """
    acc = 0
    for b in bits(u | v):
        ub, vb = (u >> b) & 1, (v >> b) & 1
        block = ((v if ub else 0) ^ (u if vb else 0)) & ((1 << b) - 1)
        if ub and vb:
            block ^= cols[b]
        acc |= block << pair_bit(0, b)
    return acc


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial in square-free normal form, packed: bit s of `packed` is
    set for each monomial s (a mask over the variables) it holds."""

    packed: int = 0

    def __post_init__(self) -> None:
        if type(self.packed) is not int or self.packed < 0:
            raise UsageError(f"packed form must be a non-negative int, got {self.packed!r}")

    @property
    def terms(self) -> frozenset[int]:
        """The monomial masks, as a set."""
        return frozenset(bits(self.packed))

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.packed ^ other.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def __str__(self) -> str:
        return format_poly(self)


def linear(mask: int) -> Gf2Poly:
    """The degree-1 class sum_{i in mask} x_i."""
    return Gf2Poly(sum(1 << (1 << i) for i in bits(mask)))


def poly_from_vars(*one_based_vars: Iterable[int]) -> Gf2Poly:
    """Build a polynomial from monomials given as iterables of distinct
    1-based variables, each in 1..RING_BOUND.  A repeated variable is a
    UsageError, as x_j^2 is not x_j in the ring; a repeated monomial
    cancels."""
    packed = 0
    for mono in one_based_vars:
        mask = 0
        for v in mono:
            if not 1 <= v <= RING_BOUND:
                raise UsageError(f"variable x{v} is outside x1..x{RING_BOUND}")
            if (mask >> (v - 1)) & 1:
                raise UsageError(f"variable x{v} appears twice in one monomial")
            mask |= 1 << (v - 1)
        packed ^= 1 << mask
    return Gf2Poly(packed)


def format_terms(terms: Iterable[int]) -> str:
    """The '+'-separated product form of a set of monomial masks, e.g.
    "x1*x3 + x2*x5"; "0" for none, "1" for the empty monomial."""
    monomials = sorted(terms, key=lambda mask: (popcount(mask), tuple(bits(mask))))
    return " + ".join("*".join(f"x{i + 1}" for i in bits(mask)) or "1" for mask in monomials) or "0"


def format_poly(p: Gf2Poly) -> str:
    """`format_terms` of the monomials of p."""
    return format_terms(bits(p.packed))


@lru_cache(maxsize=None)
def _lane_masks(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """The masks of the lane layout for n variables, a position s 2^n + t
    standing for the monomial t in lane s:

    - lane: the 2^n bits of one lane;
    - keep[i]: the monomials without x_i, over one lane;
    - squares[i]: every bit of the lanes s holding x_i (`bit_lanes` over
      the 2n bits of a position);
    - free[i]: 2^(s | 1<<i) in each lane s without x_i, the diagonal
      (2^s in lane s) outside squares[i], shifted by 2^i;
    - bad: the positions with |t| != |s| + 1.

    Each is built by doubling over the bits of s and t, O(n^2) whole-int
    steps in all, never one step per lane.
    """
    full = 1 << n
    lane = (1 << full) - 1
    keep = tuple(lane ^ bit_lanes(n, i) for i in range(n))
    squares = tuple(bit_lanes(2 * n, n + i) for i in range(n))
    diag = 1
    for k in range(n):
        diag |= diag << ((full + 1) << k)
    free = tuple((diag ^ (diag & sq)) << (1 << i) for i, sq in enumerate(squares))
    # weight[d]: the t with |t| = d, doubled over the bits of t
    weight = [1] + [0] * n
    for k in range(n):
        weight = weight[:1] + [w | (v << (1 << k)) for w, v in zip(weight[1:], weight)]
    # up[e - 1]: the positions with |t| = |s| + e.  Each bit added to s
    # lowers e by one and only e = 1 is wanted, so after j bits of s only
    # e <= n + 1 - j is kept.
    up = weight[1:] + [0]
    for k in range(n):
        up = [u | (v << (full << k)) for u, v in zip(up, up[1:])]
    bad = ((1 << (full << n)) - 1) ^ up[0]
    return lane, keep, squares, free, bad


class CohomRing:
    """Multiplication context for H*(M(A); Z2).

    Non strictly-upper Bott matrices are normalized first; `permutation`
    records the relabeling so reported classes stay traceable to the
    input coordinates.
    """

    def __init__(self, matrix: BottMatrix):
        """Build the multiply tables and check that they keep degree.

        - Degree.  `_times_var` shifts the monomials without x_i by 2^i and
          reads the square entries, lane s of table i (i in s), for the
          rest, so by induction every normal form keeps its degree iff
          every square entry is homogeneous of degree |s| + 1.  All
          n 2^(n-1) are checked, also those with max(s) > i that products
          and `stiefel_whitney` meet but the normal forms of the monomials,
          built in order of their largest variable, do not.  The check is
          one AND per table against a per-n mask of the positions of the
          wrong degree (`_lane_masks`), so it covers the lanes without x_i
          too.
        - Rank.  The leading terms x_j^2 are pairwise coprime, so the
          square-free monomials are a basis (the tests count the quotient
          from the ideal side).  With degree kept, the C(n, k) of degree k
          are their own normal forms and span degree k: no elimination,
          so `betti_z2` reads C(n, k).

        Raises InvariantViolation, naming the matrix, if a square entry
        leaves its degree.
        """
        if matrix.n > RING_BOUND:
            raise BoundExceeded(f"cohomology ring at n={matrix.n} exceeds the configured bound "
                                f"{RING_BOUND}")
        self.permutation, self.matrix = to_strict_upper(matrix)
        self.n = n = matrix.n
        # y_j = sum of x_i over the set column j; for strictly upper input
        # every variable in y_j has index < j, which is what makes the
        # square rewriting terminate.
        self.cols: tuple[int, ...] = tuple(transpose_masks(n, self.matrix.rows))
        # _mul[i], lane s: packed normal form of x_i times the monomial s.
        # For i in s, x_i m_s = x_i^2 m_{s - i} = (sum_{l in y_i} x_l) m_s;
        # every l is below i, so table i is read from tables already built.
        self._lane, self._keep, squares, free, bad = _lane_masks(n)
        self._mul: list[int] = []
        for i, col in enumerate(self.cols):
            if col >> i:
                raise InvariantViolation("rewrite must only introduce smaller indices "
                                         f"for {named(n, matrix.rows)}")
            square = reduce(xor, [self._mul[l] for l in bits(col)], 0)  # y_i m_s in lane s
            self._mul.append(square & squares[i] | free[i])
        if any(row & bad for row in self._mul):
            raise InvariantViolation(f"reduction must preserve degree for {named(n, matrix.rows)}")

    # -- normal form ------------------------------------------------------

    def _times_var(self, i: int, forms: Sequence[int]) -> list[int]:
        """Packed normal forms of x_i times each packed normal form in forms."""
        n, lane, keep = self.n, self._lane, self._keep[i]
        shift = 1 << i
        row = self._mul[i]
        out = []
        for p in forms:
            # the monomials s without x_i go to s + 2^i: one shift by 2^i
            free = p & keep
            acc = free << shift
            p ^= free
            while p:
                low = p & -p
                acc ^= (row >> ((low.bit_length() - 1) << n)) & lane
                p ^= low
            out.append(acc)
        return out

    def _reduce_exp(self, exps: tuple[int, ...]) -> Gf2Poly:
        """Normal form of the monomial prod x_i^exps[i], one table
        application per factor."""
        forms = [1]
        for i, e in enumerate(exps):
            for _ in range(e):
                forms = self._times_var(i, forms)
        return Gf2Poly(forms[0])

    def multiply(self, p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
        """Square-free normal form of p * q: p times each monomial of q, one
        variable at a time."""
        if (p.packed | q.packed) >> (1 << self.n):  # a monomial s >= 2^n
            raise UsageError("polynomial uses variables beyond the ring")
        acc = 0
        for v in bits(q.packed):
            forms = [p.packed]
            for i in bits(v):
                forms = self._times_var(i, forms)
            acc ^= forms[0]
        return Gf2Poly(acc)

    # -- characteristic classes -------------------------------------------

    def stiefel_whitney(self, k: int) -> Gf2Poly:
        """sigma_k(y_1, ..., y_n) in normal form (zero above degree n)."""
        if k < 0:
            raise UsageError(f"degree {k} is negative")
        if k > self.n:
            return Gf2Poly()
        if k == 1:
            # sigma_1 = y_1 + ... + y_n is linear: the XOR of the columns
            return linear(reduce(xor, self.cols, 0))
        # sigma_0..sigma_k of y_1..y_j, one y_j at a time: sigma_d gains
        # y_j sigma_{d-1}, each x_l of y_j times all of sigma_0..sigma_{k-1}
        # in one call.
        sigma = [1] + [0] * k
        for col in self.cols:
            lower = sigma[:k]
            for l in bits(col):
                for d, p in enumerate(self._times_var(l, lower), 1):
                    sigma[d] ^= p
        return Gf2Poly(sigma[k])

    def betti_z2(self, k: int) -> int:
        """GF(2) dimension of the degree-k part: C(n, k), as the tables,
        checked when the ring was built, keep degree (`__init__`)."""
        if not 0 <= k <= self.n:
            raise UsageError(f"degree {k} out of range 0..{self.n}")
        return comb(self.n, k)


def ring_of(m: BottMatrix) -> CohomRing:
    """Ring context with the relations x_j^2 -> x_j * (sum_i a_{i,j} x_i)."""
    return CohomRing(m)


def w2_of_rows(n: int, rows: Sequence[int]) -> frozenset[int]:
    """The monomial masks of the normal form of w_2 = sum_{i<j} y_i y_j,
    as `Gf2Poly.terms` gives them, straight from the row masks with no ring
    (`bottmatrix.w2_masks`): one pair x_a x_b per bit b of the mask of a,
    so nothing of 2^n size is built."""
    masks = w2_masks(rows, transpose_masks(n, rows))
    return frozenset((1 << a) | (1 << b) for a, coeffs in enumerate(masks) for b in bits(coeffs))


def h2_real_is_zero(m: BottMatrix) -> bool:
    """True iff no two columns sum to zero over GF(2) (all columns distinct),
    the matrix form of H^2(M(A); R) = 0."""
    return len(set(transpose_masks(m.n, m.rows))) == m.n
