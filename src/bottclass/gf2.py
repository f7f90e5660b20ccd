"""Exact linear algebra over GF(2) on packed integer bitmasks.

Vectors are Python ints (bit i = coordinate i), and so are the rows of a
matrix: `solve`, `kernel_basis`, `echelon` and the rank routines take and
return such masks.  Two helpers reduce rows against a basis: `reduce_into`
keys each row by its top bit and does not back-substitute, which is all
rank and independence need; `echelon` keys each row by its lowest bit and
clears the pivots from the other rows, the reduced form `solve` and the
lattice of `bieberbach.generators_of` read.  `Gf2Mat` is the checked
record of the map in the witness of `rigidity.ring_isomorphic`.  All
arithmetic is XOR/AND; there is no floating point anywhere in this package.
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
    ones, built by doubling one block of 2^(i+1) bits, so the cost is
    linear in 2^n."""
    if i >= n:
        return 0
    lanes = ((1 << (1 << i)) - 1) << (1 << i)
    width = 2 << i
    while width < 1 << n:
        lanes |= lanes << width
        width <<= 1
    return lanes


def subset_sums(gens: Sequence[int]) -> list[int]:
    """XOR of every subset of `gens`, indexed by the subset's bitmask: the
    image of every mask under the GF(2)-linear map with these generators."""
    sums = [0]
    for g in gens:
        sums += [s ^ g for s in sums]
    return sums


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


def echelon(rows: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon form of the span of `rows` over GF(2).

    Maps the lowest set bit of each basis row (as a mask, r & -r) to the
    row, and clears every such pivot bit from the other rows.  The reduced
    echelon form of a span is unique, so the result does not depend on
    the order of `rows`; zero rows and dependent rows leave no trace.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        for low, p in pivots.items():
            if r & low:
                r ^= p
        if r:
            low = r & -r
            for other, p in pivots.items():
                if p & low:
                    pivots[other] = p ^ r
            pivots[low] = r
    return pivots


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
    # Augmented rows: bit n carries the rhs; a pivot there is the row 0 = 1.
    rhs_bit = 1 << n
    reduced = echelon(r | (((rhs >> i) & 1) << n) for i, r in enumerate(rows))
    if rhs_bit in reduced:
        return None
    x = 0
    for low, r in reduced.items():
        if r & rhs_bit:
            x |= low
    kernel: list[int] = []
    for free in range(n):
        bit = 1 << free
        if bit in reduced:
            continue
        v = bit
        for low, r in reduced.items():
            if r & bit:
                v |= low
        kernel.append(v)
    return x, kernel


def kernel_basis(ncols: int, rows: Sequence[int]) -> list[int]:
    """Basis of {x : parity(rows[i] & x) = 0 for every i}, as masks."""
    solved = solve(ncols, rows, 0)
    if solved is None:
        raise InvariantViolation("a homogeneous system always has the zero solution")
    return solved[1]
