"""Reference computations the benchmark checks the program against.

Written from the definitions in the paper, on plain lists of 0/1 entries,
and sharing no code with the package under test:

- the three moves on Bott matrices (Op1 permutation conjugation, Op2 the
  column move at a vertex, Op3 the row move between equal columns);
- GF(2) rank by Gaussian elimination;
- degree-2 products in H*(M(A); Z2) = Z2[x_1..x_n] / (x_j^2 = x_j y_j),
  y_j = sum_i a_ij x_i, reduced to square-free form; since a_jj = 0, one
  rewrite x_a^2 -> x_a y_a always lands on square-free monomials, so no
  normal-form machinery is needed in degree 2.

A polynomial of degree 2 is a set of frozenset({a, b}) monomials (0-based
variables, a != b); a linear form is a set of variable indices.
"""
from __future__ import annotations

from typing import Sequence

Matrix = list[list[int]]


def copy(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in a]


def column(a: Sequence[Sequence[int]], j: int) -> list[int]:
    return [row[j] for row in a]


def op1(a: Sequence[Sequence[int]], perm: Sequence[int]) -> Matrix:
    """P A P^-1 for the permutation sending index i to perm[i]:
    b[perm[i]][perm[j]] = a[i][j]."""
    n = len(a)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b[perm[i]][perm[j]] = a[i][j]
    return b


def op2(a: Sequence[Sequence[int]], k: int) -> Matrix:
    """Add column k to every column j with a[k][j] = 1."""
    b = copy(a)
    n = len(a)
    for j in range(n):
        if a[k][j]:
            for i in range(n):
                b[i][j] ^= a[i][k]
    return b


def op3(a: Sequence[Sequence[int]], l: int, m: int) -> Matrix:
    """Add row l to row m; defined when columns l and m are equal."""
    if l == m or column(a, l) != column(a, m):
        raise ValueError(f"Op3 needs two distinct equal columns, got {l}, {m}")
    b = copy(a)
    b[m] = [x ^ y for x, y in zip(a[m], a[l])]
    return b


def equal_column_pairs(a: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    n = len(a)
    cols = [column(a, j) for j in range(n)]
    return [(l, m) for l in range(n) for m in range(n) if l != m and cols[l] == cols[m]]


def is_strictly_upper(a: Sequence[Sequence[int]]) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i + 1))


def gf2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2) of a list of equal-length 0/1 rows."""
    work = copy(rows)
    ncols = len(work[0]) if work else 0
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                work[r] = [x ^ y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def all_rows_even(a: Sequence[Sequence[int]]) -> bool:
    """w1 = sum_j y_j = sum_i (weight of row i) x_i vanishes iff every row is even."""
    return all(sum(row) % 2 == 0 for row in a)


def y(a: Sequence[Sequence[int]], j: int) -> set[int]:
    """The linear form y_j = sum_i a_ij x_i."""
    return {i for i in range(len(a)) if a[i][j]}


def product(a: Sequence[Sequence[int]], u: set[int], v: set[int]) -> set[frozenset]:
    """Square-free form of (sum_{p in u} x_p)(sum_{q in v} x_q)."""
    out: set[frozenset] = set()
    for p in u:
        for q in v:
            terms = [frozenset((p, c)) for c in y(a, p)] if p == q else [frozenset((p, q))]
            for t in terms:
                out ^= {t}
    return out


def w2(a: Sequence[Sequence[int]]) -> set[frozenset]:
    """w_2 = sigma_2(y_1, ..., y_n) = sum_{i<j} y_i y_j."""
    n = len(a)
    out: set[frozenset] = set()
    for i in range(n):
        for j in range(i + 1, n):
            out ^= product(a, y(a, i), y(a, j))
    return out


def is_ring_iso(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                images: Sequence[set[int]]) -> bool:
    """Does x_i -> images[i] (a linear form in the x's of b) define a graded
    ring isomorphism H*(M(a)) -> H*(M(b))?

    Both rings are generated in degree 1 with dimension 2^n, so it is one
    exactly when the degree-1 map is invertible and every relation
    x_j^2 + x_j y_j of a maps to zero in the ring of b.
    """
    n = len(a)
    if gf2_rank([[int(k in img) for k in range(n)] for img in images]) != n:
        return False
    for j in range(n):
        image_y: set[int] = set()
        for i in y(a, j):
            image_y ^= images[i]
        if product(b, images[j], images[j]) ^ product(b, images[j], image_y):
            return False
    return True


def lex_key(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row-major entries: the order in which canonical forms are minimal."""
    return tuple(x for row in a for x in row)


def format_poly(p: set[frozenset]) -> str:
    """1-based text form, monomials by their sorted variables: "x1*x2 + x1*x3"."""
    if not p:
        return "0"
    monos = sorted(tuple(sorted(t)) for t in p)
    return " + ".join("*".join(f"x{v + 1}" for v in mono) for mono in monos)
