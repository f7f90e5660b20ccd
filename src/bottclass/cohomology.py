"""Z2 cohomology rings of real Bott manifolds and Stiefel-Whitney classes.

The ring of an n x n Bott matrix A is Z2[x_1..x_n] modulo the relations
x_j^2 = x_j * y_j with y_j = sum_i a_{i,j} x_i.  Monomials in normal form
are square free and stored as int bitmasks over the variable indices
(0-based).  A polynomial, `Gf2Poly`, is packed: one int with bit s set for
each square-free monomial s, so addition is XOR.

The ring builds, when it is constructed, the multiply-by-x_i tables
mul[i][s], the packed normal form of x_i times the monomial s: 2^(s | 1<<i)
when x_i is not in s, and the XOR of mul[l][s] over the l in y_i when it is
(x_i^2 = x_i y_i).  For strictly upper A every such l is below i, so the
rows are built in order of i.  Multiplying a packed polynomial by x_i
shifts its monomials without x_i by 2^i and reads the table for the
others.  Stiefel-Whitney classes and products multiply through them;
`betti_z2` reads them once, to check that every square entry keeps its
degree.

Products of degree-1 classes have a denser form, read straight from the
columns with no ring (`degree2`): one bit per square-free pair x_a x_b
(a < b), at bit `pair_bit(a, b)`.  The isomorphism search of `rigidity`
and the proof of `ring_invariants` read it; the normal forms stay the
independent check of both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import xor
from typing import Iterable, Sequence

from .bottmatrix import BottMatrix, to_strict_upper, w2_masks
from .gf2 import (
    BoundExceeded,
    InvariantViolation,
    UsageError,
    bit_lanes,
    bits,
    popcount,
    transpose_masks,
)

# The multiply tables and the Betti degree check hold n 2^n packed forms
# of up to 2^n bits each: n = 12 takes 0.07 s and 33 MiB of peak RSS for
# `bottclass invariants`, and each step above it about four times the
# memory (n = 15: 3.8 s, 1.1 GiB).
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


def format_poly(p: Gf2Poly) -> str:
    """The '+'-separated product form, e.g. "x1*x3 + x2*x5"; "0", "1"."""
    if p.is_zero():
        return "0"
    monomials = sorted(bits(p.packed), key=lambda mask: (popcount(mask), tuple(bits(mask))))
    return " + ".join("*".join(f"x{i + 1}" for i in bits(mask)) or "1" for mask in monomials)


class CohomRing:
    """Multiplication context for H*(M(A); Z2).

    Non strictly-upper Bott matrices are normalized first; `permutation`
    records the relabeling so reported classes stay traceable to the
    input coordinates.
    """

    def __init__(self, matrix: BottMatrix):
        if matrix.n > RING_BOUND:
            raise BoundExceeded(f"cohomology ring at n={matrix.n} exceeds the configured bound "
                                f"{RING_BOUND}")
        self.permutation, self.matrix = to_strict_upper(matrix)
        self.n = n = matrix.n
        # y_j = sum of x_i over the set column j; for strictly upper input
        # every variable in y_j has index < j, which is what makes the
        # square rewriting terminate.
        self.cols: tuple[int, ...] = tuple(transpose_masks(n, self.matrix.rows))
        # _mul[i][s]: packed normal form of x_i times the monomial s.  For i
        # in s, x_i m_s = x_i^2 m_{s - i} = (sum_{l in y_i} x_l) m_s; every l
        # is below i, so row i is read from rows already built.
        full = 1 << n
        self._mul: list[list[int]] = []
        for i, col in enumerate(self.cols):
            if col >> i:
                raise InvariantViolation("rewrite must only introduce smaller indices")
            square = [0] * full  # y_i m_s, the entry for s holding i
            for l in bits(col):
                square = list(map(xor, square, self._mul[l]))
            bit = 1 << i
            self._mul.append([square[s] if s & bit else 1 << (s | bit) for s in range(full)])
        # _free[i]: the monomials s without x_i, the complement of
        # `bit_lanes` over the 2^n bits s
        ones = (1 << full) - 1
        self._free = [ones ^ bit_lanes(n, i) for i in range(n)]
        self._degrees_checked = False
        self._sigma: list[Gf2Poly] = []  # sigma_0..sigma_k for the largest k built

    # -- normal form ------------------------------------------------------

    def _times_var(self, i: int, forms: Sequence[int]) -> list[int]:
        """Packed normal forms of x_i times each packed normal form in forms."""
        keep = self._free[i]
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
                acc ^= row[low.bit_length() - 1]
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
        if k >= len(self._sigma):
            # sigma_0..sigma_k of y_1..y_j, one y_j at a time: sigma_d gains
            # y_j sigma_{d-1}, each x_l of y_j times all of sigma_0..sigma_{k-1}
            # in one call.
            sigma = [1] + [0] * k
            for col in self.cols:
                lower = sigma[:k]
                for l in bits(col):
                    for d, p in enumerate(self._times_var(l, lower), 1):
                        sigma[d] ^= p
            self._sigma = [Gf2Poly(s) for s in sigma]
        return self._sigma[k]

    def betti_z2(self, k: int) -> int:
        """GF(2) dimension of the degree-k part: C(n, k), after a check,
        made once per ring, that the multiply tables keep degree.

        - Degree.  `_times_var` shifts the monomials without x_i by 2^i and
          reads the square entries mul[i][s] (i in s) for the rest, so by
          induction every normal form keeps its degree iff every square
          entry is homogeneous of degree |s| + 1.  All n 2^(n-1) are read,
          also those with max(s) > i that products and `stiefel_whitney`
          meet but the normal forms of the monomials, built in order of
          their largest variable, do not.
        - Rank.  The leading terms x_j^2 are pairwise coprime, so the
          square-free monomials are a basis (the tests count the quotient
          from the ideal side).  With degree kept, the C(n, k) of degree k
          are their own normal forms and span degree k: no elimination.

        Raises InvariantViolation if a square entry leaves its degree.
        """
        if not 0 <= k <= self.n:
            raise UsageError(f"degree {k} out of range 0..{self.n}")
        if not self._degrees_checked:
            full = 1 << self.n
            weight = [0] * (self.n + 2)  # weight[d]: the square-free monomials of size d
            for s in range(full):
                weight[s.bit_count()] |= 1 << s
            outside = [~weight[s.bit_count() + 1] for s in range(full)]
            for i, row in enumerate(self._mul):
                bit = 1 << i
                for s in range(bit, full):
                    if s & bit and row[s] & outside[s]:
                        raise InvariantViolation("reduction must preserve degree")
            self._degrees_checked = True
        return comb(self.n, k)


def ring_of(m: BottMatrix) -> CohomRing:
    """Ring context with the relations x_j^2 -> x_j * (sum_i a_{i,j} x_i)."""
    return CohomRing(m)


def w2_of_rows(n: int, rows: Sequence[int]) -> Gf2Poly:
    """Normal form of w_2 = sum_{i<j} y_i y_j straight from the row
    masks, with no ring (`bottmatrix.w2_masks`)."""
    acc = 0
    for a, coeffs in enumerate(w2_masks(rows, transpose_masks(n, rows))):
        for b in bits(coeffs):
            acc |= 1 << ((1 << a) | (1 << b))
    return Gf2Poly(acc)


def h2_real_is_zero(m: BottMatrix) -> bool:
    """True iff no two columns sum to zero over GF(2) (all columns distinct),
    the matrix form of H^2(M(A); R) = 0."""
    return len(set(transpose_masks(m.n, m.rows))) == m.n
