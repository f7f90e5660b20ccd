"""Z2 cohomology rings of real Bott manifolds and Stiefel-Whitney classes.

The ring of an n x n Bott matrix A is Z2[x_1..x_n] modulo the relations
x_j^2 = x_j * (sum_i a_{i,j} x_i).  Monomials in normal form are square
free and stored as int bitmasks over the variable indices (0-based); a
polynomial is a frozenset of such masks (symmetric-difference addition).
Products of degree-1 classes also have a packed form, read from a table
(`CohomRing.linear_products`): a degree-2 class is an int with one bit per
square-free pair x_a x_b (a < b), at bit `pair_bit(a, b)`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import FrozenSet, Iterable, Sequence

from .bottmatrix import BottMatrix, to_strict_upper
from .gf2 import InvariantViolation, popcount, rank_masks, transpose_masks

Terms = FrozenSet[int]

ZERO: Terms = frozenset()
ONE: Terms = frozenset({0})


class PolyParseError(ValueError):
    pass


def pair_bit(a: int, b: int) -> int:
    """Bit index of the square-free pair x_a x_b (a < b) in a packed
    degree-2 class: pairs in colexicographic order, C(n, 2) bits in all."""
    return b * (b - 1) // 2 + a


def linear_terms(mask: int) -> Terms:
    """The degree-1 class sum_{i in mask} x_i as a set of monomials."""
    return frozenset(1 << i for i in range(mask.bit_length()) if (mask >> i) & 1)


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial in square-free normal form: a set of monomial masks."""

    terms: Terms = ZERO

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.terms ^ other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((popcount(t) for t in self.terms), default=0)

    def __str__(self) -> str:
        return format_poly(self)


def poly_from_vars(*one_based_vars: Iterable[int]) -> Gf2Poly:
    """Build a polynomial from monomials given as iterables of 1-based variables."""
    terms = set()
    for mono in one_based_vars:
        mask = 0
        for v in mono:
            mask |= 1 << (v - 1)
        terms ^= {mask}
    return Gf2Poly(frozenset(terms))


def format_poly(p: Gf2Poly) -> str:
    if not p.terms:
        return "0"
    def mono_key(mask: int) -> tuple:
        idx = tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)
        return (popcount(mask), idx)
    parts = []
    for mask in sorted(p.terms, key=mono_key):
        if mask == 0:
            parts.append("1")
        else:
            parts.append("*".join(f"x{i + 1}" for i in range(mask.bit_length()) if (mask >> i) & 1))
    return " + ".join(parts)


def parse_poly(text: str) -> Gf2Poly:
    """Parse the '+'-separated product form, e.g. "x1*x3 + x2*x5"; "0", "1"."""
    stripped = text.strip()
    if not stripped:
        raise PolyParseError("empty polynomial")
    if stripped == "0":
        return Gf2Poly()
    terms: set[int] = set()
    for raw_term in stripped.split("+"):
        term = raw_term.strip()
        if not term:
            raise PolyParseError(f"empty term in {text!r}")
        if term == "1":
            terms ^= {0}
            continue
        mask = 0
        for factor in term.split("*"):
            f = factor.strip()
            if not (f.startswith("x") and f[1:].isdigit() and int(f[1:]) >= 1):
                raise PolyParseError(f"bad factor {f!r} in {text!r}")
            bit = 1 << (int(f[1:]) - 1)
            if mask & bit:
                raise PolyParseError(f"repeated variable {f!r}: text form carries"
                                     " square-free normal forms only")
            mask |= bit
        terms ^= {mask}
    return Gf2Poly(frozenset(terms))


class CohomRing:
    """Multiplication context for H*(M(A); Z2).

    Non strictly-upper Bott matrices are normalized first; `permutation`
    records the relabeling so reported classes stay traceable to the
    input coordinates.
    """

    def __init__(self, matrix: BottMatrix):
        self.source = matrix
        if matrix.is_strictly_upper:
            self.permutation: tuple[int, ...] = tuple(range(matrix.n))
            self.matrix = matrix
        else:
            self.permutation, self.matrix = to_strict_upper(matrix)
        self.n = matrix.n
        # y_j = sum of x_i over the set column j; for strictly upper input
        # every variable in y_j has index < j, which is what makes the
        # square rewriting terminate (see _reduce_exp).
        self.cols: tuple[int, ...] = tuple(transpose_masks(self.n, self.matrix.rows))
        self._exp_memo: dict[tuple[int, ...], Terms] = {}
        self._pair_memo: dict[tuple[int, int], Terms] = {}
        self._sigma: list[Gf2Poly] | None = None
        self._prod: list[list[int]] | None = None

    # -- normal form ------------------------------------------------------

    def _reduce_exp(self, exps: tuple[int, ...]) -> Terms:
        """Normal form of the monomial prod x_i^exps[i].

        Rewrites the highest squared variable first; each rewrite of x_j^2
        only introduces variables of strictly smaller index, so the
        recursion is well founded.
        """
        cached = self._exp_memo.get(exps)
        if cached is not None:
            return cached
        j = -1
        for i in range(self.n - 1, -1, -1):
            if exps[i] >= 2:
                j = i
                break
        if j < 0:
            mask = 0
            for i, e in enumerate(exps):
                if e:
                    mask |= 1 << i
            result: Terms = frozenset({mask})
        else:
            col = self.cols[j]
            acc: set[int] = set()
            base = list(exps)
            base[j] -= 1
            for i in range(self.n):
                if (col >> i) & 1:
                    if i >= j:
                        raise InvariantViolation("rewrite must only introduce smaller indices")
                    child = list(base)
                    child[i] += 1
                    acc ^= self._reduce_exp(tuple(child))
            result = frozenset(acc)
        self._exp_memo[exps] = result
        return result

    def _mono_mul(self, u: int, v: int) -> Terms:
        key = (u, v) if u <= v else (v, u)
        cached = self._pair_memo.get(key)
        if cached is not None:
            return cached
        common = u & v
        if common == 0:
            result: Terms = frozenset({u | v})
        else:
            exps = tuple(
                ((u >> i) & 1) + ((v >> i) & 1) for i in range(self.n)
            )
            result = self._reduce_exp(exps)
        self._pair_memo[key] = result
        return result

    def multiply_terms(self, p: Terms, q: Terms) -> Terms:
        acc: set[int] = set()
        for u in p:
            for v in q:
                acc ^= self._mono_mul(u, v)
        return frozenset(acc)

    def multiply(self, p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
        """Square-free normal form of p * q."""
        for t in p.terms | q.terms:
            if t >> self.n:
                raise ValueError("polynomial uses variables beyond the ring")
        return Gf2Poly(self.multiply_terms(p.terms, q.terms))

    def square_of_var(self, j: int) -> Terms:
        """Normal form of x_j^2, i.e. x_j * y_j."""
        return self._mono_mul(1 << j, 1 << j)

    def square_of_linear(self, mask: int) -> Terms:
        """Normal form of (sum_{i in mask} x_i)^2; squaring is linear over Z2."""
        acc: set[int] = set()
        for i in range(self.n):
            if (mask >> i) & 1:
                acc ^= self.square_of_var(i)
        return frozenset(acc)

    def linear_products(self) -> list[list[int]]:
        """Table of the products of degree-1 classes: prod[u][v] is u * v
        packed over the square-free pairs (see `pair_bit`), for the masks
        u, v < 2^n of sums of x_i.  Built once per ring by bilinearity from
        the n^2 products x_a x_b."""
        if self._prod is None:
            prod = [[0] * (1 << self.n)]
            for a in range(self.n):
                by_var = []  # by_var[b]: x_a x_b packed
                for b in range(self.n):
                    bits = 0
                    for t in self._mono_mul(1 << a, 1 << b):
                        lo = t & -t
                        bits |= 1 << pair_bit(lo.bit_length() - 1, (t ^ lo).bit_length() - 1)
                    by_var.append(bits)
                unit = _subset_sums(by_var)  # unit[v] = x_a * v
                prod += [[p ^ q for p, q in zip(row, unit)] for row in prod]
            self._prod = prod
        return self._prod

    def y(self, j: int) -> Gf2Poly:
        """Degree-1 class of the j-th line bundle: y_j = sum_i a_{i,j} x_i."""
        return Gf2Poly(linear_terms(self.cols[j]))

    # -- characteristic classes -------------------------------------------

    def stiefel_whitney(self, k: int) -> Gf2Poly:
        """sigma_k(y_1, ..., y_n) in normal form (zero above degree n)."""
        if k < 0:
            raise ValueError(f"degree {k} is negative")
        if k > self.n:
            return Gf2Poly()
        if k == 0:
            return Gf2Poly(ONE)
        if k == 1 and self._sigma is None:
            # sigma_1 = sum_j y_j needs no products; skip the full table
            acc: set[int] = set()
            for col in self.cols:
                for i in range(self.n):
                    if (col >> i) & 1:
                        acc ^= {1 << i}
            return Gf2Poly(frozenset(acc))
        if self._sigma is None:
            sigma: list[Terms] = [ONE] + [ZERO] * self.n
            for j in range(self.n):
                yj = self.y(j).terms
                if not yj:
                    continue
                for k_ in range(min(j + 1, self.n), 0, -1):
                    if sigma[k_ - 1]:
                        sigma[k_] = sigma[k_] ^ self.multiply_terms(sigma[k_ - 1], yj)
            self._sigma = [Gf2Poly(t) for t in sigma]
        return self._sigma[k]

    def betti_z2(self, k: int) -> int:
        """GF(2) dimension of the degree-k part, computed as the rank of the
        span of the normal forms of every degree-k monomial; checks that
        the square-free monomials of size k are exactly the basis and raises
        InvariantViolation otherwise."""
        if not 0 <= k <= self.n:
            raise ValueError(f"degree {k} out of range 0..{self.n}")
        index = {m: i for i, m in enumerate(_masks_of_weight(self.n, k))}
        span_rows = []
        for combo in combinations_with_replacement(range(self.n), k):
            exps = [0] * self.n
            for i in combo:
                exps[i] += 1
            terms = self._reduce_exp(tuple(exps))
            row = 0
            for t in terms:
                if popcount(t) != k:
                    raise InvariantViolation("reduction must preserve degree")
                row |= 1 << index[t]
            span_rows.append(row)
        dim = rank_masks(span_rows)
        if dim != comb(self.n, k):
            raise InvariantViolation("normal-form basis must be the square-free monomials")
        return dim


def _subset_sums(gens: Sequence[int]) -> list[int]:
    """XOR of every subset of `gens`, indexed by the subset's bitmask."""
    sums = [0]
    for g in gens:
        sums += [s ^ g for s in sums]
    return sums


def _masks_of_weight(n: int, k: int) -> list[int]:
    return [m for m in range(1 << n) if popcount(m) == k]


def ring_of(m: BottMatrix) -> CohomRing:
    """Ring context with the relations x_j^2 -> x_j * (sum_i a_{i,j} x_i)."""
    return CohomRing(m)


def w2_of_rows(n: int, rows: Sequence[int]) -> Terms:
    """Normal form of w_2 = sum_{i<j} y_i y_j straight from the row masks.

    No ring context is built (this runs on every orbit member during
    classification).  With R_a = row a, so that x_a occurs in y_j for j in
    R_a, the coefficient of x_a x_b (a < b) is |R_a||R_b| - |R_a & R_b|
    (from x_a x_b with a, b taken from distinct y_i, y_j), plus one for each
    end c of {a, b} whose square x_c^2 = x_c y_c arises an odd number
    C(|R_c|, 2) of times and whose y_c holds the other end.  For fixed a the
    coefficients over all b form one bitmask: the overlap parities
    |R_a & R_b| mod 2 are the XOR of the columns j in R_a.
    """
    cols = transpose_masks(n, rows)
    odd = squares = 0
    for a, r in enumerate(rows):
        w = r.bit_count()
        odd |= (w & 1) << a
        squares |= ((w >> 1) & 1) << a  # C(w, 2) odd
    acc = []
    for a, r in enumerate(rows):
        coeffs = r & squares
        if (odd >> a) & 1:
            coeffs ^= odd
        if (squares >> a) & 1:
            coeffs ^= cols[a]
        while r:
            low = r & -r
            coeffs ^= cols[low.bit_length() - 1]
            r ^= low
        coeffs >>= a + 1
        b = a + 1
        while coeffs:
            if coeffs & 1:
                acc.append((1 << a) | (1 << b))
            coeffs >>= 1
            b += 1
    return frozenset(acc)


def h2_real_is_zero(m: BottMatrix) -> bool:
    """True iff no two columns sum to zero over GF(2) (all columns distinct),
    the matrix form of H^2(M(A); R) = 0."""
    return len(set(transpose_masks(m.n, m.rows))) == m.n
