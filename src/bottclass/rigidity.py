"""Graded-ring isomorphism testing over Z2 and the rigidity experiment.

The rings are generated in degree 1, so a graded isomorphism is a matrix
in GL(n,2) acting on the x_i that carries each source relation to zero in
the target ring.  Candidates are enumerated row by row in ascending
bitmask order; the relation for x_j only involves rows up to j (source
matrices are normalized to strictly upper), so each level is filtered
exactly as soon as its row is chosen.

The filter reads the target's degree-1 product table
(`CohomRing.linear_products`): row v satisfies the relation for x_j with
y_j mapped to y iff v^2 + v y = v (v + y) = 0, one lookup.  The rows that
pass are listed per y once per search (`admissible[y]`, ascending), and
the span of the rows already chosen is kept as a 2^n-bit set, so the
independence test is one bit test.  Neither changes the order in which
candidates are met, so the first witness is the same as that of a plain
ascending walk.  The witness found is re-checked on normal forms, apart
from the table.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .bottmatrix import BottMatrix, diffeo_classes
from .cohomology import CohomRing, linear
from .gf2 import (
    BoundExceeded,
    DimensionMismatch,
    Gf2Mat,
    Gf2Vec,
    InvariantViolation,
    rank_masks,
    solve,
)

EXHAUSTIVE_BOUND = 5
PRUNED_BOUND = 6


@dataclass(frozen=True)
class RingIsoWitness:
    """Invertible degree-1 substitution x_i -> sum_j map[i][j] x_j."""

    map: Gf2Mat


def _relation_holds(ring_b: CohomRing, image_j: int, image_yj: int) -> bool:
    """Does the image of x_j^2 + x_j y_j = x_j (x_j + y_j) reduce to zero in
    the target?  Computed on normal forms, not from the product table."""
    return not ring_b.multiply_packed(linear(image_j), linear(image_j ^ image_yj))


@lru_cache(maxsize=None)
def ring_invariants(m: BottMatrix) -> tuple:
    """Isomorphism invariants used for pruning: the dimension of the
    degree-1 classes with zero square, and the sorted multiset of
    annihilator dimensions dim{v : v w = 0} over all nonzero w."""
    ring = CohomRing(m)
    n = ring.n
    prod = ring.linear_products()
    units = [1 << i for i in range(n)]
    sq_ker_dim = n - rank_masks([prod[u][u] for u in units])
    ann_dims = sorted(n - rank_masks([prod[u][w] for u in units]) for w in range(1, 1 << n))
    return (sq_ker_dim, tuple(ann_dims))


def ring_isomorphic(
    a: BottMatrix, b: BottMatrix, prune: bool = True
) -> Optional[RingIsoWitness]:
    """First graded-ring isomorphism H*(M(a)) -> H*(M(b)) in the fixed
    enumeration order of GL(n,2), or None.

    Rows are tried in ascending order at each level, restricted to the
    rows `admissible` for the image of y_j (read from the target's
    product table) and independent of the rows before them.  Pruning
    discards candidate pairs only via proven invariants and never changes
    the verdict.  Exhaustive search is allowed up to n = 5; n = 6
    requires pruning.  The witness is re-checked on normal forms and an
    InvariantViolation is raised if it fails.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    n = a.n
    if n > PRUNED_BOUND or (n > EXHAUSTIVE_BOUND and not prune):
        raise BoundExceeded(
            f"ring_isomorphic at n={n} needs pruning enabled (bound {EXHAUSTIVE_BOUND} "
            f"exhaustive, {PRUNED_BOUND} with pruning)"
        )
    ring_a = CohomRing(a)
    ring_b = CohomRing(b)
    if prune and ring_invariants(ring_a.matrix) != ring_invariants(ring_b.matrix):
        return None
    cols_a = ring_a.cols
    full = 1 << n
    prod = ring_b.linear_products()
    admissible = [[v for v in range(1, full) if not prod[v][v ^ y]] for y in range(full)]
    chosen = [0] * n

    def rec(level: int, span: int, elems: list[int]) -> Optional[tuple[int, ...]]:
        # span: bit s set for every s in the span of chosen[:level]; elems lists them
        if level == n:
            return tuple(chosen)
        image_y = 0
        col = cols_a[level]
        for i in range(level):
            if (col >> i) & 1:
                image_y ^= chosen[i]
        for v in admissible[image_y]:
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
    if not _is_witness(ring_a, ring_b, found):
        raise InvariantViolation(
            f"ring_isomorphic({a.rows}, {b.rows}) found {found}, which fails the relation check"
        )
    return RingIsoWitness(Gf2Mat(n, found))


def _is_witness(ring_a: CohomRing, ring_b: CohomRing, rows: tuple[int, ...]) -> bool:
    """Full check: rows invertible and every source relation maps to zero."""
    n = ring_a.n
    if rank_masks(rows) != n:
        return False
    for j in range(n):
        image_y = 0
        for i in range(n):
            if (ring_a.cols[j] >> i) & 1:
                image_y ^= rows[i]
        if not _relation_holds(ring_b, rows[j], image_y):
            return False
    return True


def witness_inverse(witness: RingIsoWitness) -> Gf2Mat:
    """Inverse substitution over GF(2): column j solves map @ x = e_j."""
    m = witness.map
    n = m.ncols
    cols = []
    for j in range(n):
        solved = solve(m, Gf2Vec(n, 1 << j))
        if solved is None or solved[1]:
            raise InvariantViolation(f"witness {m.rows} is not invertible")
        cols.append(solved[0].mask)
    return Gf2Mat(n, tuple(cols)).transpose()


def rigidity_experiment(
    n: int,
    inter_samples: int = 10,
    seed: int = 0,
    prune: bool = True,
) -> dict:
    """Check that ring isomorphism matches the diffeomorphism partition.

    n <= 4: every member is checked against its class canonical and every
    pair of canonicals against each other (exhaustive).  n = 5: all pairs
    of full-holonomy-rank (GHW) class canonicals, two members per such
    class, plus `inter_samples` seeded inter-class canonical pairs.
    Violations are returned in the report; the acceptance suite requires
    none.
    """
    if n > 5:
        raise BoundExceeded(f"rigidity experiment supports n <= 5, got {n}")
    classes = diffeo_classes(n)
    violations: list[dict] = []
    pairs_checked = 0

    def expect_iso(x: BottMatrix, y: BottMatrix) -> None:
        nonlocal pairs_checked
        pairs_checked += 1
        if ring_isomorphic(x, y, prune=prune) is None:
            violations.append(
                {"kind": "missing-isomorphism", "a": str(x).split(), "b": str(y).split()}
            )

    def expect_not_iso(x: BottMatrix, y: BottMatrix) -> None:
        nonlocal pairs_checked
        pairs_checked += 1
        if ring_isomorphic(x, y, prune=prune) is not None:
            violations.append(
                {"kind": "unexpected-isomorphism", "a": str(x).split(), "b": str(y).split()}
            )

    mode = "exhaustive" if n <= 4 else "sampled"
    if n <= 4:
        for cls in classes:
            for member in sorted(cls.members, key=lambda m: m.rows):
                if member != cls.canonical:
                    expect_iso(member, cls.canonical)
        for i, ci in enumerate(classes):
            for cj in classes[i + 1:]:
                expect_not_iso(ci.canonical, cj.canonical)
    else:
        ghw = [c for c in classes if c.fingerprint.ghw]
        for cls in ghw:
            members = sorted(cls.members, key=lambda m: m.rows)
            for member in members[:3]:
                if member != cls.canonical:
                    expect_iso(member, cls.canonical)
        for i, ci in enumerate(ghw):
            for cj in ghw[i + 1:]:
                expect_not_iso(ci.canonical, cj.canonical)
        rng = random.Random(seed)
        for _ in range(inter_samples):
            i, j = rng.sample(range(len(classes)), 2)
            expect_not_iso(classes[i].canonical, classes[j].canonical)
    return {
        "dim": n,
        "classes": len(classes),
        "mode": mode,
        "seed": seed if mode == "sampled" else None,
        "pruning": prune,
        "pairs_checked": pairs_checked,
        "violations": violations,
    }
