"""Spin and Spin^C existence for oriented real Bott manifolds.

Two independent routes are implemented: the matrix-level obstruction
detectors (odd row overlap with a zero entry; disjoint rows of weight
2 mod 4) together with the w_2 = 0 criterion, and a lift of the holonomy
through the sign-monomial subgroup of Spin(n), mirroring the
group-theoretic definition: one affine GF(2) solve over the generator
signs and the lattice character gives the least solution, and Clifford
arithmetic re-checks every relation of the lift it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import bieberbach, cohomology, gf2
from .bottmatrix import BottMatrix, is_orientable, to_strict_upper
from .gf2 import parity, popcount

PART_I = "Part I"
PART_II = "Part II"


class NonOrientable(ValueError):
    """Spin questions are posed for oriented manifolds only."""


def _require_orientable(m: BottMatrix) -> None:
    if not is_orientable(m):
        raise NonOrientable("matrix has a row of odd weight; the manifold is not orientable")


# ---------------------------------------------------------------------------
# the finite sign-monomial subgroup of Spin(n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliffordElement:
    """+-(product of distinct generators e_i), with e_i e_j = -e_j e_i and
    e_i^2 = -1; the support mask lists the factors in ascending order."""

    n: int
    sign: int
    support: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.support < 0 or self.support >> self.n:
            raise ValueError("support does not fit the ambient dimension")

    @classmethod
    def identity(cls, n: int) -> "CliffordElement":
        return cls(n, 1, 0)


def clifford_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Product in the sign-monomial group.

    The sign picks up one -1 per transposition needed to interleave the
    sorted supports and one -1 per common generator (from e_i^2 = -1).
    """
    if a.n != b.n:
        raise ValueError(f"ambient dimensions differ: {a.n} != {b.n}")
    swaps = 0
    for i in range(b.n):
        if (b.support >> i) & 1:
            swaps += popcount(a.support >> (i + 1))
    sign = a.sign * b.sign
    if (swaps + popcount(a.support & b.support)) & 1:
        sign = -sign
    return CliffordElement(a.n, sign, a.support ^ b.support)


def clifford_inv(a: CliffordElement) -> CliffordElement:
    # a * a = sq.sign * 1, so a^-1 = sq.sign * a (signs are self-inverse)
    sq = clifford_mul(a, a)
    if sq.support:
        raise gf2.InvariantViolation("a sign monomial squares to +-1")
    return CliffordElement(a.n, a.sign * sq.sign, a.support)


# ---------------------------------------------------------------------------
# matrix-level obstruction detectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionWitness:
    """A pair of rows certifying that no Spin structure exists.

    kind PART_I: a[i][j] = a[j][i] = 0 and the supports overlap in an odd
    set.
    kind PART_II: an edge between i and j (a[i][j] = 1 or a[j][i] = 1)
    and disjoint supports, both of weight 2 mod 4.  (The edge is what
    makes s_i^2 = (s_i s_j)^2 in the group; without it the obstruction is
    false, e.g. rows {5,6} and {3,4} in dimension 6 give a Spin manifold.)
    Both conditions are symmetric in i and j, so they do not depend on the
    labelling: on a strictly upper matrix (i < j) they read a[i][j] only.
    Indices are 0-based; `data` is the overlap size for PART_I and the
    two support sizes for PART_II.
    """

    kind: str
    i: int
    j: int
    data: tuple[int, ...]

    def verify(self, m: BottMatrix) -> bool:
        ri, rj = m.rows[self.i], m.rows[self.j]
        edge = m.entry(self.i, self.j) | m.entry(self.j, self.i)
        if self.kind == PART_I:
            return edge == 0 and popcount(ri & rj) % 2 == 1
        if self.kind == PART_II:
            return (
                edge == 1
                and ri & rj == 0
                and ri != 0
                and rj != 0
                and popcount(ri) % 4 == 2
                and popcount(rj) % 4 == 2
            )
        return False


def odd_overlap_witness(m: BottMatrix) -> Optional[ObstructionWitness]:
    """First (i, j), i < j, in lexicographic order with no edge between i
    and j and odd row overlap; such a pair rules out a Spin structure."""
    _require_orientable(m)
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if m.entry(i, j) or m.entry(j, i):
                continue
            overlap = popcount(m.rows[i] & m.rows[j])
            if overlap & 1:
                return ObstructionWitness(PART_I, i, j, (overlap,))
    return None


def disjoint_rows_witness(m: BottMatrix) -> Optional[ObstructionWitness]:
    """First (i, j), i < j, with an edge between i and j in either
    direction and disjoint nonzero supports both of weight 2 mod 4; such a
    pair rules out a Spin structure."""
    _require_orientable(m)
    for i in range(m.n):
        ri = m.rows[i]
        if ri == 0 or popcount(ri) % 4 != 2:
            continue
        for j in range(i + 1, m.n):
            if not (m.entry(i, j) or m.entry(j, i)):
                continue
            rj = m.rows[j]
            if rj == 0 or ri & rj or popcount(rj) % 4 != 2:
                continue
            return ObstructionWitness(PART_II, i, j, (popcount(ri), popcount(rj)))
    return None


def has_spin(m: BottMatrix) -> bool:
    """Spin structure exists iff w_2 = 0 (oriented input required), read
    from the rows of the strictly upper normalisation without a ring."""
    _require_orientable(m)
    if not m.is_strictly_upper:
        _, m = to_strict_upper(m)
    return not cohomology.w2_of_rows(m.n, m.rows)


def spinc_obstructed(m: BottMatrix) -> bool:
    """True when the Part I detector fires and H^2(M; R) = 0, which rules
    out even a Spin^C structure."""
    _require_orientable(m)
    return odd_overlap_witness(m) is not None and cohomology.h2_real_is_zero(m)


# ---------------------------------------------------------------------------
# the lift oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinLift:
    """A homomorphism from Gamma(A) to the sign-monomial group covering the
    holonomy: a sign per generator and a +-1 character on the translation
    lattice (keyed by the doubled HNF basis rows)."""

    generator_signs: dict[int, int]
    lattice_character: dict[tuple[int, ...], int]

    def __hash__(self) -> int:  # dict fields; hash by content
        return hash(
            (
                tuple(sorted(self.generator_signs.items())),
                tuple(sorted(self.lattice_character.items())),
            )
        )


def spin_lift_search(m: BottMatrix) -> Optional[SpinLift]:
    """Search for a lift of the holonomy to Spin(n), by one GF(2) solve.

    Each generator with support S (even, by orientability) must map to
    +-e_{S}; translations must map through a +-1 character chi on N.  The
    unknowns are the generator signs sigma and the values of chi on the
    HNF basis, packed as x = (chi << |active|) | sigma.  The constraints
    are affine over GF(2): the squares, the commutators, invariance of chi
    under the holonomy action (chi only), and the pure-translation products
    over a kernel basis of the exponent system (sigma and chi).  One
    `gf2.solve` elimination solves them and gives the least solution x,
    which is the first lift in chi-major counting order; the lift is
    returned after an honest Clifford re-check of every relation, or None
    when there is no solution.
    """
    _require_orientable(m)
    if not m.is_strictly_upper:
        _, m = to_strict_upper(m)
    n = m.n
    pres = bieberbach.generators_of(m)
    gens = pres.generators
    basis2 = pres.lattice.basis2
    # the holonomy images of the basis rows repeat across generators
    coords = lru_cache(maxsize=None)(pres.lattice.coords_mod2)

    active = [i for i, g in enumerate(gens) if not g.is_translation]
    supports = {i: gens[i].exponent_mask for i in active}
    shift = len(active)

    # affine rows (mask over x, required bit); duplicates dropped
    constraints: dict[tuple[int, int], None] = {}
    for i in active:
        sq = gens[i].compose(gens[i])
        half = popcount(supports[i]) // 2
        constraints[coords(sq.trans2) << shift, half & 1] = None
    for ai, i in enumerate(active):
        for j in active[ai + 1:]:
            comm = bieberbach.commutator_trans2(gens[i], gens[j])
            constraints[coords(comm) << shift, popcount(supports[i] & supports[j]) & 1] = None
    for row_idx, row in enumerate(basis2):
        for i in active:
            conj = tuple(s * t for s, t in zip(gens[i].signs, row))
            constraints[(coords(conj) ^ (1 << row_idx)) << shift, 0] = None

    # kernel products of the active generators tie sigma to chi
    if active:
        exponents = bieberbach._exponent_matrix(n, [gens[i] for i in active])
        for kvec in gf2.kernel_basis(exponents):
            subset = [active[pos] for pos in range(len(active)) if (kvec.mask >> pos) & 1]
            prod_group = bieberbach._ordered_product(gens, subset)
            bieberbach._require_translation(prod_group, "kernel product")
            cliff = CliffordElement.identity(n)
            for i in subset:
                cliff = clifford_mul(cliff, CliffordElement(n, 1, supports[i]))
            if cliff.support:
                raise gf2.InvariantViolation("a kernel product of sign monomials must be +-1")
            constraints[kvec.mask | coords(prod_group.trans2) << shift,
                        0 if cliff.sign == 1 else 1] = None

    constraints.pop((0, 0), None)
    x = 0
    if constraints:
        masks = tuple(mask for mask, _ in constraints)
        rhs = sum(bit << k for k, (_, bit) in enumerate(constraints))
        solved = gf2.solve(gf2.Gf2Mat(shift + len(basis2), masks), gf2.Gf2Vec(len(masks), rhs))
        if solved is None:
            return None
        # Pivots are taken lowest column first, so each pivot variable is
        # fixed by free variables in higher columns; with every free
        # variable 0, the particular solution is the least one.
        x = solved[0].mask
    sigma, chi = x & ((1 << shift) - 1), x >> shift

    gen_signs: dict[int, int] = {}
    for pos, i in enumerate(active):
        gen_signs[i] = -1 if (sigma >> pos) & 1 else 1
    for i, g in enumerate(gens):
        if g.is_translation:
            gen_signs[i] = -1 if parity(chi & coords(g.trans2)) else 1
    character = {row: (-1 if (chi >> idx) & 1 else 1) for idx, row in enumerate(basis2)}
    lift = SpinLift(gen_signs, character)
    if not _verify_lift(m, pres, lift):
        raise gf2.InvariantViolation(f"lift found for {m.rows} fails the relation check")
    return lift


def _verify_lift(m: BottMatrix, pres: bieberbach.GroupPresentation, lift: SpinLift) -> bool:
    """Re-check every relation of the found lift with honest Clifford and
    group arithmetic (soundness net under the packed search)."""
    n = m.n
    gens = pres.generators
    basis2 = pres.lattice.basis2

    @lru_cache(maxsize=None)  # the same translations recur across relations
    def chi(t2: tuple[int, ...]) -> int:
        mask = pres.lattice.coords_mod2(t2)
        sign = 1
        for idx, row in enumerate(basis2):
            if (mask >> idx) & 1:
                sign *= lift.lattice_character[row]
        return sign

    def eps(i: int) -> CliffordElement:
        g = gens[i]
        if g.is_translation:
            return CliffordElement(n, chi(g.trans2), 0)
        return CliffordElement(n, lift.generator_signs[i], g.exponent_mask)

    for i, g in enumerate(gens):
        sq = g.compose(g)
        if clifford_mul(eps(i), eps(i)).sign != chi(sq.trans2):
            return False
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            comm = gens[i].compose(gens[j]).compose(gens[i].inverse()).compose(gens[j].inverse())
            ei, ej = eps(i), eps(j)
            cliff_comm = clifford_mul(clifford_mul(ei, ej), clifford_mul(clifford_inv(ei), clifford_inv(ej)))
            if cliff_comm.support != 0 or cliff_comm.sign != chi(comm.trans2):
                return False
    for row in basis2:
        for g in gens:
            conj = tuple(s * t for s, t in zip(g.signs, row))
            if chi(conj) != chi(row):
                return False
    return True
