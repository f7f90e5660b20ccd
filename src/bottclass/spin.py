"""Spin and Spin^C existence for oriented real Bott manifolds.

Two independent routes are implemented: the matrix-level obstruction
detectors (odd row overlap with a zero entry; disjoint rows of weight
2 mod 4) together with the w_2 = 0 criterion, and a lift of the holonomy
through the sign-monomial subgroup of Spin(n), mirroring the
group-theoretic definition.  The lift's relations are those of Gamma(A),
one row per relator `bieberbach.relators` lists for the generators of
`bieberbach.generators_of(m)`, written in closed form from the rows of A:
one affine GF(2) solve over the generator signs and the lattice character
gives the least solution.  Only a lift found builds Gamma(A); the re-check
lists its relators by the generic route, `bieberbach.relators`, and group
and Clifford arithmetic re-evaluate every relator word on it.  Invariance
of the character under the holonomy follows from the commutator relators
(the lemma in `spin_lift_search`).  Only the re-check reads lattice
coordinates, by one route, `TransLattice.coords_mod2`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import bieberbach, cohomology, gf2
from .bottmatrix import BottMatrix, is_orientable, named, to_strict_upper, w2_masks
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
    from the rows of the strictly upper normalisation without a ring: the
    first nonzero pair mask of `w2_masks` settles it."""
    _require_orientable(m)
    _, m = to_strict_upper(m)
    return not any(w2_masks(m.rows, gf2.transpose_masks(m.n, m.rows)))


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
    """Search for a lift of the holonomy to Spin(n), by one GF(2) solve
    written from the rows of A; Gamma(A) is built only to re-check a lift.

    Let S_i be row i of the strictly upper form (|S_i| even, by
    orientability).  Each generator s_i with S_i nonzero (active) must map
    to +-e_{S_i}; translations must map through a +-1 character chi on N.
    The unknowns are the signs sigma of the active generators and the
    values of chi on the n rows of the doubled HNF basis `basis2`, packed
    as x = (chi << |active|) | sigma.  There is one affine row per relator
    `bieberbach.relators` lists for the generators of `generators_of(m)`,
    in closed form: the parity of sigma over its active letters plus
    chi of its translation and of its translation letters equals the sign
    of its Clifford word, by `_mul_sign`.  One `gf2.solve` elimination gives
    the least solution x, the first lift in chi-major counting order.  Only
    then is Gamma(A) built, and `_verify_lift` re-checks the lift on it
    before it is returned; None when there is no solution.

    Coordinates (translations doubled, as throughout).  N doubled is
    2Z^n + K, K the span of the kernel vectors with bit n-1 cleared
    (`generators_of`).  Let R_c be the row of its reduced echelon form with
    lowest bit c and P the mask of those pivots: row c of basis2 is R_c for
    c in P, else 2e_c.  The coordinates q_c of 2e_c are then {c} for c not
    in P.  For c in P, 2e_c = 2 R_c - sum_d 2e_d over the other bits d of
    R_c, non-pivot columns as the form is reduced: q_c = R_c ^ {c}.

    Rows, for active i < j and each kernel vector kvec:
    * the square s_i s_i: translation 2e_i, so chi = q_i; its sign is that
      of e_{S_i}^2, `_mul_sign(S_i, S_i)`, and sigma cancels.
    * the commutator s_i s_j s_i^-1 s_j^-1: translation -2 a_ij e_j, so
      chi = a_ij q_j; e_{S_i} and e_{S_j} have even supports, so they
      commute up to (-1)^|S_i & S_j|, and sigma cancels.
    * the ascending product over kvec: sigma is its active bits and the
      sign that of the ascending Clifford product, whose support, the XOR
      of the S_i, must be 0.  Its translation is w + 2b e_{n-1}, with w
      the 0/1 vector of kvec without bit n-1, an element of K, and b bit
      n-1 of kvec.  With P' = kvec & P, the integer sum of the R_p, p in
      P', has coordinates P' and equals w plus twice the carry vector:
      column d counts the R_p holding d, at most 1 on a pivot column, and
      w_d is that count mod 2.  The carry, bit 1 of each count, lies on
      non-pivot columns, where 2e_d has coordinates {d}, so chi of the
      translation is P' | carry | b << (n-1).  A translation letter i adds
      chi of its own translation, coordinates {i}: e_i is in K for i < n-1
      (so R_i = e_i) and 2e_{n-1} is a basis row.  A word made of one
      translation letter gives the trivial row 0 = 0.

    Lemma: the commutator rows imply that chi is invariant under the
    holonomy, so no invariance row is added.  D_i maps a basis row 2e_c to
    +-2e_c, of equal chi, and a pivot row v of K to v - 2(v & S_i): for
    active i, invariance asks that the q_c over c in v & S_i sum to 0.
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
    _, upper = to_strict_upper(m)
    n, rows = upper.n, upper.rows
    top = 1 << (n - 1)
    active = [i for i, r in enumerate(rows) if r]
    shift = len(active)
    inactive = (1 << n) - 1 - sum(1 << i for i in active)
    kernel = gf2.kernel_basis(n, gf2.transpose_masks(n, rows))
    reduced = gf2.echelon(kvec & ~top for kvec in kernel)  # R_c, keyed by 1 << c
    pivots = sum(reduced)

    def q(c: int) -> int:
        low = 1 << c
        return reduced[low] ^ low if low in reduced else low

    # affine rows (mask over x, required bit); duplicates dropped
    constraints: dict[tuple[int, int], None] = {}
    for k, i in enumerate(active):
        s = rows[i]
        constraints[q(i) << shift, _mul_sign(s, s)] = None
        for j in active[k + 1:]:
            constraints[(q(j) if (s >> j) & 1 else 0) << shift, parity(s & rows[j])] = None
    for kvec in kernel:
        sigma = sign = support = 0
        for k, i in enumerate(active):
            if (kvec >> i) & 1:
                sigma |= 1 << k
                sign ^= _mul_sign(support, rows[i])
                support ^= rows[i]
        if support:
            raise gf2.InvariantViolation(
                f"kernel word {tuple(gf2.bits(kvec))} of sign monomials is not +-1 "
                f"for {named(m.n, m.rows)}")
        ones = twos = 0  # bits 0 and 1 of the column-wise count of the R_p
        for low, r in reduced.items():
            if kvec & low:
                twos ^= ones & r
                ones ^= r
        chi = ((kvec & pivots) | twos | (kvec & top)) ^ (kvec & inactive)
        constraints[sigma | chi << shift, sign] = None

    constraints.pop((0, 0), None)
    x = 0
    if constraints:
        masks = tuple(mask for mask, _ in constraints)
        rhs = sum(bit << k for k, (_, bit) in enumerate(constraints))
        solved = gf2.solve(shift + n, masks, rhs)
        if solved is None:
            return None
        # Pivots are taken lowest column first, so each pivot variable is
        # fixed by free variables in higher columns; with every free
        # variable 0, the particular solution is the least one.
        x = solved[0]
    sigma, chi = x & ((1 << shift) - 1), x >> shift
    # a translation generator's translation has coordinates {i}
    signs = sum(((sigma >> k) & 1) << i for k, i in enumerate(active)) | (chi & inactive)
    lift = SpinLift(signs, chi)
    if not _verify_lift(bieberbach.generators_of(upper), lift):
        raise gf2.InvariantViolation(
            f"lift found for {named(m.n, m.rows)} fails the relation check")
    return lift


def _verify_lift(pres: bieberbach.GroupPresentation, lift: SpinLift) -> bool:
    """Re-check every relation of the found lift with honest Clifford and
    group arithmetic (soundness net under the packed search).

    The relators come from the generators of `pres` by the generic route,
    `bieberbach.relators`, not from the rows of A, from which the search
    writes its rows.  Every relator word is evaluated letter by letter, with
    `compose`/`inverse` in the group and `clifford_mul`/`clifford_inv` on
    the images sigma_i e_{S_i}, never read from the listed translation: it
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

    for rel in bieberbach.relators(gens):
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
