"""Exact linear algebra over GF(2) on packed integer bitmasks.

Vectors are Python ints (bit i = coordinate i), and so are the rows of a
matrix: `solve`, `kernel_basis` and the rank routines take and return such
masks.  `Gf2Vec` and `Gf2Mat` are small frozen value types over the same
masks, for callers that want a checked length; the package builds them
only for the witness of `rigidity.ring_isomorphic`.  All arithmetic is XOR/AND; there is no
floating point anywhere in this package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class Gf2Error(ValueError):
    pass


class DimensionMismatch(Gf2Error):
    pass


class BoundExceeded(Gf2Error):
    pass


class UsageError(ValueError):
    """A request outside the supported range, such as a dimension, an
    index or a degree out of bounds: the caller's error, which the CLI
    reports with exit code 2.  Other ValueErrors are not caught there."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: a bug, never a user error.

    Raised explicitly rather than by `assert`, so `python -O` keeps it.
    """


def popcount(x: int) -> int:
    return x.bit_count()


def parity(x: int) -> int:
    return x.bit_count() & 1


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose_masks(n: int, rows: Sequence[int]) -> list[int]:
    """Column masks of a matrix given by row masks: bit i of column j is
    bit j of row i, for the n columns 0..n-1."""
    cols = [0] * n
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return cols


def bit_lanes(n: int, i: int) -> int:
    """The s < 2^n holding bit i, as one int with bit s set for each such
    s (one lane per s).  Over the 2^n bits: runs of 2^i zeros and 2^i
    ones, the all-ones word over blocks of 2^(i+1) bits times the high run."""
    return ((1 << (1 << n)) - 1) // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))


def subset_sums(gens: Sequence[int]) -> list[int]:
    """XOR of every subset of `gens`, indexed by the subset's bitmask: the
    image of every mask under the GF(2)-linear map with these generators."""
    sums = [0]
    for g in gens:
        sums += [s ^ g for s in sums]
    return sums


@dataclass(frozen=True)
class Gf2Vec:
    """Fixed-length vector over GF(2), packed into an int."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise Gf2Error(f"vector length must be >= 1, got {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise Gf2Error(f"mask {self.mask:#x} does not fit in {self.n} bits")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Gf2Vec":
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise Gf2Error(f"entry {b!r} is not a bit")
            mask |= b << i
        return cls(len(bits), mask)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "Gf2Vec") -> "Gf2Vec":
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} != {other.n}")
        return Gf2Vec(self.n, self.mask ^ other.mask)

    def weight(self) -> int:
        return popcount(self.mask)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class Gf2Mat:
    """Rectangular GF(2) matrix; row i is an int mask over the columns."""

    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ncols < 1 or len(self.rows) < 1:
            raise Gf2Error("matrix must have at least one row and one column")
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise Gf2Error(f"row {r:#x} does not fit in {self.ncols} columns")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Gf2Mat":
        vecs = [Gf2Vec.from_bits(r) for r in rows]
        ncols = vecs[0].n if vecs else 0  # no rows: refused by __post_init__
        if any(v.n != ncols for v in vecs):
            raise DimensionMismatch("ragged rows")
        return cls(ncols, tuple(v.mask for v in vecs))

    @classmethod
    def identity(cls, n: int) -> "Gf2Mat":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Gf2Mat":
        return cls(ncols, (0,) * nrows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> Gf2Vec:
        return Gf2Vec(self.ncols, self.rows[i])

    def transpose(self) -> "Gf2Mat":
        return Gf2Mat(self.nrows, tuple(transpose_masks(self.ncols, self.rows)))

    def mul_vec(self, v: Gf2Vec) -> Gf2Vec:
        if v.n != self.ncols:
            raise DimensionMismatch(f"matrix has {self.ncols} columns, vector length {v.n}")
        mask = 0
        for i, r in enumerate(self.rows):
            mask |= parity(r & v.mask) << i
        return Gf2Vec(self.nrows, mask)

    def mul_mat(self, other: "Gf2Mat") -> "Gf2Mat":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        cols = transpose_masks(other.ncols, other.rows)
        rows = []
        for r in self.rows:
            out = 0
            for j, c in enumerate(cols):
                out |= parity(r & c) << j
            rows.append(out)
        return Gf2Mat(other.ncols, tuple(rows))

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.nrows))


def reduce_into(pivots: dict[int, int], rows: Iterable[int]) -> int:
    """Reduce each row against the basis `pivots` and keep what is left of
    it, if nonzero; returns the number of rows kept.

    The basis maps each kept row's top set bit (its bit length) to the row,
    so a reduction step is one dict lookup, not a pass over the basis.
    Rows are kept in insertion order, so `pivots.popitem()` undoes the last.
    """
    kept = 0
    for r in rows:
        while r:
            top = r.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = r
                kept += 1
                break
            r ^= pivot
    return kept


def rank_masks(rows: Iterable[int]) -> int:
    """Rank of a set of int-mask rows over GF(2)."""
    return reduce_into({}, rows)


def rank(m: Gf2Mat) -> int:
    """Dimension of the row space of m over GF(2)."""
    return rank_masks(m.rows)


def solve(ncols: int, rows: Sequence[int], rhs: int) -> Optional[tuple[int, list[int]]]:
    """Solve the system with equations parity(rows[i] & x) = bit i of rhs
    over GF(2), for x over the columns 0..ncols-1.

    Returns (particular solution, kernel basis) as masks when solvable,
    None when not.  The particular solution has free variables set to 0;
    the kernel basis vectors are indexed by the free columns in ascending
    order.  Raises DimensionMismatch when a row does not fit in ncols
    columns or rhs has a bit beyond the last row.
    """
    n = ncols
    if any(r < 0 or r >> n for r in rows):
        raise DimensionMismatch(f"a row does not fit in {n} columns")
    if rhs < 0 or rhs >> len(rows):
        raise DimensionMismatch(f"rhs {rhs:#x} does not fit the {len(rows)} rows")
    # Augmented rows: bit n carries the rhs.
    aug = [r | (((rhs >> i) & 1) << n) for i, r in enumerate(rows)]
    pivots: list[int] = []  # pivot column per reduced row
    reduced: list[int] = []
    for col in range(n):
        pivot_row = None
        for idx, r in enumerate(aug):
            if (r >> col) & 1:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        prow = aug.pop(pivot_row)
        for idx, r in enumerate(aug):
            if (r >> col) & 1:
                aug[idx] = r ^ prow
        for idx, r in enumerate(reduced):
            if (r >> col) & 1:
                reduced[idx] = r ^ prow
        reduced.append(prow)
        pivots.append(col)
    if any(r == 1 << n for r in aug):
        return None
    x = 0
    for r, col in zip(reduced, pivots):
        if (r >> n) & 1:
            x |= 1 << col
    pivot_set = set(pivots)
    kernel: list[int] = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = 1 << free
        for r, col in zip(reduced, pivots):
            if (r >> free) & 1:
                v |= 1 << col
        kernel.append(v)
    return x, kernel


def kernel_basis(ncols: int, rows: Sequence[int]) -> list[int]:
    """Basis of {x : parity(rows[i] & x) = 0 for every i}, as masks."""
    solved = solve(ncols, rows, 0)
    if solved is None:
        raise InvariantViolation("a homogeneous system always has the zero solution")
    return solved[1]
