"""Spin and Spin^C existence for oriented real Bott manifolds.

Two independent routes are implemented: the matrix-level obstruction
detectors (odd row overlap with a zero entry; disjoint rows of weight
2 mod 4) together with the w_2 = 0 criterion, and a lift of the holonomy
through the sign-monomial subgroup of Spin(n), mirroring the
group-theoretic definition.  Its relations are the relators of
`bieberbach.generators_of(m)`, the one list of the relations of Gamma(A):
one affine GF(2) solve over the generator signs and the lattice character
gives the least solution, and group and Clifford arithmetic re-evaluate
every relator word on the lift it returns.  Invariance of the character
under the holonomy follows from the commutator relators (the lemma in
`spin_lift_search`).  The search and the re-check read lattice coordinates
by one route, `TransLattice.coords_mod2`.
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


def _mul_sign(a: int, b: int) -> int:
    """1 when e_a e_b = -e_{a ^ b} for sign monomials with supports a, b:
    one -1 per transposition needed to interleave the sorted supports and
    one -1 per common generator (from e_i^2 = -1).  Each generator j of b
    moves past the generators of a above j and meets its own copy in a,
    so the count is, mod 2, the number of pairs i in a, j in b with
    i >= j: the suffix parities of a (bit j: the parity of the bits of a
    from j up, by doubling shifts), read on b."""
    suffix, shift = a, 1
    while suffix >> shift:
        suffix ^= suffix >> shift
        shift <<= 1
    return parity(suffix & b)


def clifford_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Product in the sign-monomial group, signed by `_mul_sign`."""
    if a.n != b.n:
        raise ValueError(f"ambient dimensions differ: {a.n} != {b.n}")
    sign = -a.sign * b.sign if _mul_sign(a.support, b.support) else a.sign * b.sign
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
    _, m = to_strict_upper(m)
    return cohomology.w2_of_rows(m.n, m.rows).is_zero()


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
    holonomy, as two masks.  Bit i of `signs` is set when generator i maps
    to -e_{S_i}, S_i its exponent mask (empty for a translation generator,
    whose image is the scalar chi(t_i)).  Bit r of `character` is set when
    the character chi of the translation lattice is -1 on row r of its
    doubled HNF basis `basis2`.  For a matrix that is not strictly upper,
    the lift is in the labels of its `to_strict_upper` form."""

    signs: int
    character: int


def spin_lift_search(m: BottMatrix) -> Optional[SpinLift]:
    """Search for a lift of the holonomy to Spin(n), by one GF(2) solve.

    Each generator with support S (even, by orientability) must map to
    +-e_{S}; translations must map through a +-1 character chi on N.  The
    unknowns are the generator signs sigma and the values of chi on the
    HNF basis, packed as x = (chi << |active|) | sigma.  The constraints
    are affine over GF(2), one row per relator of `generators_of(m)`: the
    parity of sigma over its active letters, chi of its translation and of
    any translation letter (coordinates by `TransLattice.coords_mod2`,
    which raises InvariantViolation off the lattice), and the word's
    Clifford sign by `_mul_sign`.  One `gf2.solve` elimination gives the
    least solution x, the first lift in chi-major counting order, which is
    returned after `_verify_lift` re-checks it, or None when there is no
    solution.

    Lemma: the commutator rows imply that chi is invariant under the
    holonomy, so no invariance row is added.  Let S_i be row i of A
    (|S_i| even) and q_c = chi(2e_c), a GF(2) form in x (translations
    doubled, as throughout).  N doubled is 2Z^n + K (`generators_of`).
    D_i maps a basis row 2e_c to +-2e_c, of equal chi, and a pivot row v
    of K to v - 2(v & S_i): for active i (S_i nonzero), invariance asks
    that the q_c over c in v & S_i sum to 0.
    * c in v, c > i: the commutator row (i, c) reads a_ic q_c = |S_i & S_c|
      when c is active.  Else S_c = 0 and q_c = 0 as a form, as e_c, the
      translation of s_c, lies in N (bit n-1, the one inactive c without
      such a generator, is in no vector of K), so the equation holds too.
    * c in v, c < i: the commutator row (c, i) reads a_ci q_i = |S_c & S_i|
      (0 = 0 for an inactive c).  c = i: a_ii = 0 = |S_i| mod 2.
    The rows of A over v XOR to 0, so these rows sum to
    0 = sum_{c in v & S_i} q_c + q_i [bit i of XOR_{c in v} S_c]
      = sum_{c in v & S_i} q_c, the invariance row with its right-hand
    side.  The proof holds over GF(2) only.
    """
    _require_orientable(m)
    _, m = to_strict_upper(m)
    pres = bieberbach.generators_of(m)
    gens = pres.generators
    basis2 = pres.lattice.basis2
    coords = lru_cache(maxsize=None)(pres.lattice.coords_mod2)  # translations recur

    active = [i for i, g in enumerate(gens) if not g.is_translation]
    position = {i: pos for pos, i in enumerate(active)}
    shift = len(active)

    # affine rows (mask over x, required bit); duplicates dropped
    constraints: dict[tuple[int, int], None] = {}
    for rel in pres.relators:
        sigma = support = sign = 0
        chi = coords(rel.trans2)
        for letter in rel.word:
            i = letter if letter >= 0 else ~letter
            if gens[i].is_translation:
                chi ^= coords(gens[i].trans2)
                continue
            s = gens[i].exponent_mask
            sigma ^= 1 << position[i]
            if letter < 0:  # e_S^-1 = (e_S e_S) e_S
                sign ^= _mul_sign(s, s)
            sign ^= _mul_sign(support, s)
            support ^= s
        if support:
            raise gf2.InvariantViolation(f"relator {rel.word} of sign monomials is not +-1")
        constraints[sigma | chi << shift, sign] = None

    constraints.pop((0, 0), None)
    x = 0
    if constraints:
        masks = tuple(mask for mask, _ in constraints)
        rhs = sum(bit << k for k, (_, bit) in enumerate(constraints))
        solved = gf2.solve(shift + len(basis2), masks, rhs)
        if solved is None:
            return None
        # Pivots are taken lowest column first, so each pivot variable is
        # fixed by free variables in higher columns; with every free
        # variable 0, the particular solution is the least one.
        x = solved[0]
    sigma, chi = x & ((1 << shift) - 1), x >> shift
    signs = sum(((sigma >> pos) & 1) << i for pos, i in enumerate(active))
    signs |= sum(parity(chi & coords(g.trans2)) << i
                 for i, g in enumerate(gens) if g.is_translation)
    lift = SpinLift(signs, chi)
    if not _verify_lift(pres, lift):
        raise gf2.InvariantViolation(f"lift found for {m.rows} fails the relation check")
    return lift


def _verify_lift(pres: bieberbach.GroupPresentation, lift: SpinLift) -> bool:
    """Re-check every relation of the found lift with honest Clifford and
    group arithmetic (soundness net under the packed search).

    Every relator word of `pres` is evaluated again letter by letter, with
    `compose`/`inverse` in the group and `clifford_mul`/`clifford_inv` on
    the images sigma_i e_{S_i}, never read from the stored translation: it
    must be a translation t whose image is the scalar chi(t).  Then chi
    must be invariant under the holonomy.  The squares and commutators of
    translation generators, which `relators` leaves out, follow from that
    invariance: their translations 2t and D t - t have chi = 1.
    """
    n = pres.n
    gens = pres.generators
    basis2 = pres.lattice.basis2

    @lru_cache(maxsize=None)  # the same translations recur across relations
    def chi(t2: tuple[int, ...]) -> int:
        return -1 if parity(lift.character & pres.lattice.coords_mod2(t2)) else 1

    for rel in pres.relators:
        g = bieberbach.AffineIso.identity(n)
        cliff = CliffordElement.identity(n)
        for letter in rel.word:
            i = letter if letter >= 0 else ~letter
            eps = CliffordElement(n, -1 if (lift.signs >> i) & 1 else 1, gens[i].exponent_mask)
            if letter >= 0:
                g, cliff = g.compose(gens[i]), clifford_mul(cliff, eps)
            else:
                g, cliff = g.compose(gens[i].inverse()), clifford_mul(cliff, clifford_inv(eps))
        if not g.is_translation or cliff.support or cliff.sign != chi(g.trans2):
            return False
    flips = [g.exponent_mask for g in gens if not g.is_translation]  # a translation fixes every row
    for row in basis2:
        for mask in flips:
            conj = tuple([-t if (mask >> j) & 1 else t for j, t in enumerate(row)])
            if chi(conj) != chi(row):
                return False
    return True
