"""Exact affine-isometry engine for the diagonal-type Bieberbach groups.

Group elements are pairs (D, t) with D a diagonal +-1 matrix, held as the
mask of its -1 entries, and t a translation in (1/2)Z^n, stored doubled as
integers so the group law never needs rational arithmetic.

A presentation (`GroupPresentation`) comes by one of two routes.
`from_generators` is the generic one: relators from compose chains and the
translation lattice as the holonomy closure of their translations, put in
Hermite form by `TransLattice.span`.  It serves Gamma_n and arbitrary
generator lists, and it is the tests' reference for `generators_of`, which
reads the same presentation of Gamma(A) in closed form from A.  Either
lattice is read by the same `TransLattice`, echelon-checked when built.

Torsion and holonomy read a presentation on int masks.  A lattice that
contains Z^n is known by its rows mod 2 (`TransLattice.mod2_rows`), and
D t = t mod 2 for a diagonal +-1 matrix D, so the translation of a product
is, mod 2, the XOR of its factors'; the mod-2 lemma that makes this exact
is in `is_torsion_free`.  The lift search of `spin` does not read
`mod2_rows`: it takes lattice coordinates from `TransLattice.coords_mod2`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from . import gf2
from .bottmatrix import BottMatrix, named


class NotStrictlyUpper(ValueError):
    """Raised when a presentation needs a strictly upper matrix; callers
    should normalize with bottmatrix.to_strict_upper first."""


@dataclass(frozen=True)
class AffineIso:
    """Isometry x -> Dx + t with D diagonal, -1 at the bits of exponent_mask
    and +1 elsewhere, and t = trans2 / 2; n = len(trans2).

    The public constructor, `identity` and `conjugate_by_perm` validate
    their fields (trans2 nonempty, exact ints with no floats or bools, the
    mask in [0, 2^n)).  `compose` and `inverse` skip that check: a product
    or inverse of valid elements has the XOR of valid masks and
    translations that are sums and differences of ints, so it is valid by
    construction.  So does `generators_of`, whose masks are the rows of A
    and whose translations are literal 0, 1, 2.
    """

    exponent_mask: int
    trans2: tuple[int, ...]

    def __post_init__(self) -> None:
        mask = self.exponent_mask
        if not self.trans2 or type(mask) is not int or mask < 0 or mask >> len(self.trans2):
            raise ValueError(f"need a nonempty trans2 and an int mask of its length, got {mask!r}")
        if any(type(t) is not int for t in self.trans2):
            raise ValueError(f"translations must be doubled ints, got {self.trans2}")

    @property
    def n(self) -> int:
        return len(self.trans2)

    @classmethod
    def identity(cls, n: int) -> "AffineIso":
        return cls(0, (0,) * n)

    @property
    def is_translation(self) -> bool:
        return not self.exponent_mask

    def compose(self, other: "AffineIso") -> "AffineIso":
        """(D1,t1)(D2,t2) = (D1 D2, D1 t2 + t1)."""
        if self.n != other.n:
            raise gf2.DimensionMismatch(f"{self.n} != {other.n}")
        mask = self.exponent_mask
        trans2 = tuple([u - t if (mask >> j) & 1 else u + t
                        for j, (t, u) in enumerate(zip(other.trans2, self.trans2))])
        return _trusted(mask ^ other.exponent_mask, trans2)

    def inverse(self) -> "AffineIso":
        """(D,t)^-1 = (D, -D t)."""
        mask = self.exponent_mask
        return _trusted(mask, tuple([t if (mask >> j) & 1 else -t
                                     for j, t in enumerate(self.trans2)]))

    def __str__(self) -> str:
        return format_iso(self)


def _trusted(exponent_mask: int, trans2: tuple[int, ...]) -> AffineIso:
    """An AffineIso built without `__post_init__`, for results of the group
    law on validated elements and the generators of Gamma(A) only (see the
    AffineIso docstring)."""
    g = object.__new__(AffineIso)
    object.__setattr__(g, "exponent_mask", exponent_mask)
    object.__setattr__(g, "trans2", trans2)
    return g


def _signs(n: int, mask: int) -> tuple[int, ...]:
    """The diagonal +-1 entries with -1 at the bits of mask."""
    return tuple([-1 if (mask >> j) & 1 else 1 for j in range(n)])


def _unit(n: int, c: int, value: int) -> tuple[int, ...]:
    """The vector of length n with value at c and 0 elsewhere."""
    vec = [0] * n
    vec[c] = value
    return tuple(vec)


def commutator_trans2(g: AffineIso, h: AffineIso) -> tuple[int, ...]:
    """Doubled translation of the commutator [g, h] = g h g^-1 h^-1.

    For diagonal D the commutator is (I, (I - D_h) t_g - (I - D_g) t_h),
    so coordinate j is 2 [j in h] t_g - 2 [j in g] t_h, with g and h read
    as their exponent masks.  Its linear part is always I, since diagonal
    +-1 matrices commute and square to I, so unlike the product of four
    elements it needs no translation check.
    """
    if g.n != h.n:
        raise gf2.DimensionMismatch(f"{g.n} != {h.n}")
    gm, hm = g.exponent_mask, h.exponent_mask
    return tuple([2 * (((hm >> j) & 1) * tg - ((gm >> j) & 1) * th)
                  for j, (tg, th) in enumerate(zip(g.trans2, h.trans2))])


def conjugate_by_perm(perm: Sequence[int], a: AffineIso) -> AffineIso:
    """(P,0)(D,t)(P,0)^-1 where the permutation sends index i to perm[i]."""
    n = a.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm!r}")
    mask = 0
    trans2 = [0] * n
    for i in range(n):
        mask |= ((a.exponent_mask >> i) & 1) << perm[i]
        trans2[perm[i]] = a.trans2[i]
    return AffineIso(mask, tuple(trans2))


def format_iso(a: AffineIso) -> str:
    signs = "".join("-" if (a.exponent_mask >> j) & 1 else "+" for j in range(a.n))
    t2 = ",".join(str(t) for t in a.trans2)
    return f"signs={signs} ; t2=[{t2}]"


# ---------------------------------------------------------------------------
# integer lattices (Hermite normal form over Z)
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _mod2(vec: Sequence[int]) -> int:
    """An integer vector mod 2, as a mask."""
    mask = 0
    for j, x in enumerate(vec):
        if x & 1:
            mask |= 1 << j
    return mask


def _hermite(n: int, vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The Hermite form of the lattice the vectors span in Z^n: an echelon
    basis with positive pivots and each entry above a pivot reduced into
    [0, pivot).  It is unique, so the lattice alone decides it, whatever
    vectors span it and in whatever order.

    Each vector is reduced column by column against the row of that pivot
    column: by a multiple of the row when the pivot divides the entry, else
    by the unimodular 2 x 2 step of `_xgcd`, which leaves the gcd as the
    pivot.  A vector that reaches a column without a row becomes its row."""
    rows: dict[int, list[int]] = {}  # pivot column -> row
    for vec in vectors:
        v = list(vec)
        if len(v) != n:
            raise gf2.DimensionMismatch(f"vector of length {len(v)} in Z^{n}")
        for j in range(n):
            if v[j] == 0:
                continue
            row = rows.get(j)
            if row is None:
                rows[j] = v if v[j] > 0 else [-x for x in v]
                break
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for k in range(j, n):
                    v[k] -= q * row[k]
            else:
                x, y, g = _xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                for k in range(j, n):
                    rk, vk = row[k], v[k]
                    row[k] = x * rk + y * vk
                    v[k] = mbg * rk + ag * vk
    cols = sorted(rows)
    basis = [rows[j] for j in cols]
    for i, j in enumerate(cols):
        row = basis[i]
        for above in basis[:i]:
            q = above[j] // row[j]
            if q:
                for c in range(j, n):
                    above[c] -= q * row[c]
    return tuple(tuple(row) for row in basis)


@dataclass(frozen=True)
class TransLattice:
    """The translation subgroup N = Gamma ∩ R^n; rows of basis2, halved,
    generate N.  basis2 is an echelon basis with positive pivots, such as
    the Hermite form that `span` builds and `generators_of` reads off in
    closed form.  For Gamma(A) and Gamma_n this contains Z^n and has full
    rank; artificial generator lists may give a smaller lattice."""

    n: int
    basis2: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, n: int, vectors: Iterable[Sequence[int]]) -> "TransLattice":
        """The lattice the vectors span in Z^n, in Hermite form."""
        return cls(n, _hermite(n, vectors))

    def __post_init__(self) -> None:
        """Check that each row's first nonzero entry (its pivot) is positive
        and right of the one before, and keep `_pivots`, the row whose pivot
        is in each pivot column; `contains2`, `coords_mod2` and `mod2_rows`
        all read basis2 through it."""
        n, pivots = self.n, {}
        j = 0  # the first column right of the last pivot
        for i, row in enumerate(self.basis2):
            if len(row) != n:
                raise gf2.DimensionMismatch(f"vector of length {len(row)} in Z^{n}")
            start = j
            while j < n and not row[j]:
                j += 1
            if j == n or row[j] < 0 or any(row[:start]):
                raise gf2.InvariantViolation(f"basis {self.basis2} is not in echelon form")
            pivots[j] = i
            j += 1
        object.__setattr__(self, "_pivots", pivots)

    def _quotients(self, vec: Sequence[int]) -> Optional[list[int]]:
        """The integers q with vec = sum_i q[i] basis2[i], or None when vec
        is not in the lattice.  Column by column, a nonzero entry is divided
        by the pivot of its column; the rows after that one are zero there,
        so a remainder, or a nonzero entry off the pivot columns, means vec
        is not in the lattice.  Zero entries cost one test each."""
        n, pivots = self.n, self._pivots
        v = list(vec)
        if len(v) != n:
            raise gf2.DimensionMismatch(f"vector of length {len(v)} in Z^{n}")
        qs = [0] * len(self.basis2)
        for j in range(n):
            if v[j]:
                i = pivots.get(j)
                if i is None:
                    return None
                row = self.basis2[i]
                q = qs[i] = v[j] // row[j]
                for k in range(j, n):
                    v[k] -= q * row[k]
                if v[j]:
                    return None
        return qs

    def contains2(self, trans2: Sequence[int]) -> bool:
        return self._quotients(trans2) is not None

    def mod2_rows(self) -> Optional[list[int]]:
        """The rows of basis2 mod 2, as masks, when N contains Z^n, that is
        when basis2 spans a lattice holding 2Z^n; None when it does not.

        Any lattice L in Z^n lies in 2Z^n + V, V the span of its rows mod 2
        lifted to 0/1 vectors, and holds 2Z^n iff it equals that sum: iff
        both have the same index in Z^n.  The index of 2Z^n + V is
        2^(n - dim V); that of L, for a full-rank echelon basis, is the
        product of its pivots.  Reading this costs no integer elimination."""
        if len(self._pivots) != self.n:
            return None
        index = 1
        for row, j in zip(self.basis2, self._pivots):
            index *= row[j]
        rows = [_mod2(row) for row in self.basis2]
        return rows if index == 1 << (self.n - gf2.rank_masks(rows)) else None

    def coords_mod2(self, trans2: Sequence[int]) -> int:
        """Coordinates (mod 2) of a lattice vector in basis2, as a mask with
        bit i for row i; InvariantViolation if the vector is not in N."""
        qs = self._quotients(trans2)
        if qs is None:
            raise gf2.InvariantViolation(f"{trans2} is not in the lattice")
        return _mod2(qs)


class Relator(NamedTuple):
    """A word in the generators that is a translation.  Letter i >= 0 is
    generator i and ~i its inverse; trans2 is the doubled translation."""

    word: tuple[int, ...]
    trans2: tuple[int, ...]


@dataclass(frozen=True)
class GroupPresentation:
    """Generators, the translation lattice N of the group they generate,
    and the point-group rank.  The relators are not stored: `relators`
    lists them from the generators for the readers that need them."""

    n: int
    generators: tuple[AffineIso, ...]
    lattice: TransLattice
    point_rank: int


def _exponent_matrix(n: int, gens: Sequence[AffineIso]) -> list[int]:
    """Row masks of the n x m matrix whose column i is the exponent vector
    of generator i."""
    return gf2.transpose_masks(n, [g.exponent_mask for g in gens])


def _require_translation(g: AffineIso, what: str) -> None:
    """Raise InvariantViolation unless g is a pure translation; the checks
    stay under `python -O`, unlike `assert`."""
    if not g.is_translation:
        raise gf2.InvariantViolation(f"{what} {format_iso(g)} is not a translation")


def _ordered_product(gens: Sequence[AffineIso], subset: Iterable[int]) -> AffineIso:
    acc = AffineIso.identity(gens[0].n)
    for i in sorted(subset):
        acc = acc.compose(gens[i])
    return acc


def relators(gens: Sequence[AffineIso]) -> tuple[Relator, ...]:
    """The relations of the group generated by `gens`, as words that are
    translations: the square (i, i) of each non-translation generator, with
    translation D t + t, then the commutator (i, j, ~i, ~j) of each pair
    i < j of them, then the ascending product over each kernel basis vector
    of the exponent system (a translation generator is a word on its own).
    The squares and commutators of translation generators are left out:
    their translations 2t and D t - t lie in the holonomy closure of t.  An
    empty list raises UsageError and generators of mixed dimension raise
    DimensionMismatch."""
    if not gens:
        raise gf2.UsageError("a group needs at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise gf2.DimensionMismatch("generators of mixed dimension")
    active = [i for i, g in enumerate(gens) if not g.is_translation]
    out = [Relator((i, i), tuple([0 if (gens[i].exponent_mask >> j) & 1 else 2 * t
                                  for j, t in enumerate(gens[i].trans2)]))
           for i in active]
    for k, i in enumerate(active):
        for j in active[k + 1:]:
            out.append(Relator((i, j, ~i, ~j), commutator_trans2(gens[i], gens[j])))
    for kvec in gf2.kernel_basis(len(gens), _exponent_matrix(n, gens)):
        word = tuple(gf2.bits(kvec))
        prod = _ordered_product(gens, word)
        _require_translation(prod, "kernel product")
        out.append(Relator(word, prod.trans2))
    return tuple(out)


def lattice_of(gens: Sequence[AffineIso]) -> TransLattice:
    """Translation lattice N of the group generated by `gens`."""
    return from_generators(gens).lattice


def from_generators(gens: Sequence[AffineIso]) -> GroupPresentation:
    """The presentation of the group generated by `gens`, by the generic
    route: N is the span of the relators' translations closed under the
    holonomy action, as a doubled Hermite basis (tests check it against
    brute-force word closure): the basis is spanned again with its images
    under the generators' linear parts until every image lies in it.  It
    serves Gamma_n, arbitrary generator lists and `lattice_of`, and tests
    use it as the reference for the closed form of `generators_of`."""
    rels = relators(gens)
    n = gens[0].n
    masks = {g.exponent_mask for g in gens} - {0}
    lat = TransLattice.span(n, [rel.trans2 for rel in rels])
    while True:
        images = [tuple([-t if (mask >> j) & 1 else t for j, t in enumerate(row)])
                  for row in lat.basis2 for mask in masks]
        missing = [v for v in images if not lat.contains2(v)]
        if not missing:
            break
        lat = TransLattice.span(n, lat.basis2 + tuple(missing))
    point_rank = gf2.rank_masks([g.exponent_mask for g in gens])
    return GroupPresentation(n, tuple(gens), lat, point_rank)


def generators_of(m: BottMatrix) -> GroupPresentation:
    """Standard generators of Gamma(A) for a strictly upper Bott matrix:
    s_i = (diag((-1)^a_{i,j}), e_i/2) for i < n and the full translation
    s_n = (I, e_n), with the presentation `from_generators` gives them,
    read in closed form from the rows and columns of A.

    The exponent vector of s_i is row i of A (s_n has none), so the
    exponent matrix of the generators is cols = transpose_masks(n, rows).
    Translations below are doubled.

    * Lattice: each square s_i s_i is D t + t, 2 e_i (4 e_{n-1} for s_n),
      and the commutator of s_i and s_j, i < j, is (I - D_j) t_i -
      (I - D_i) t_j = -2 a_{i,j} t_j, as a_{j,i} = 0: all lie in 2Z^n, which
      every D maps onto itself.  So each element of Gamma(A) is an
      ascending product of distinct generators times a vector of 2Z^n, and
      a translation iff the rows of its generators XOR to 0, that is iff
      their index set lies in the span of kernel_basis(n, cols).  The rows
      over each basis vector kvec are checked to XOR to 0.  Coordinate c
      of the ascending product over kvec comes from s_c alone, when c is in
      kvec, with the sign prod D_j[c] over j < c in kvec, which is
      (-1)^|cols[c] & kvec| because A is strictly upper; the kernel makes
      that count even, so the product moves by kvec itself, 1 at each of
      its bits (2 at bit n-1).  So N, doubled, is 2Z^n + K, K the span of
      the kernel vectors without bit n-1, read as 0/1 vectors, and each D
      maps it onto itself, as D v = v mod 2.  `gf2.echelon` gives the
      reduced echelon form of K, each vector keyed by its lowest bit; a
      pivot column c gets its vector as row c of basis2, every other
      column c gets 2 e_c.  Pivots are 1 or 2 and each entry above a pivot
      lies in [0, pivot), so this is the unique Hermite form, the one
      `from_generators` builds.
    """
    if not m.is_strictly_upper:
        raise NotStrictlyUpper(
            "Gamma(A) generators need a strictly upper matrix; apply to_strict_upper first"
        )
    n, rows = m.n, m.rows
    # valid by construction: masks are rows of A, translations 1 at i (2 at n-1)
    gens = [_trusted(r, _unit(n, i, 1)) for i, r in enumerate(rows[:-1])]
    gens.append(_trusted(0, _unit(n, n - 1, 2)))
    kernel = gf2.kernel_basis(n, gf2.transpose_masks(n, rows))
    for kvec in kernel:
        acc = 0
        for i in gf2.bits(kvec):
            acc ^= rows[i]
        if acc:
            raise gf2.InvariantViolation(f"rows {tuple(gf2.bits(kvec))} of "
                                         f"{named(m.n, m.rows)} do not sum to 0")
    reduced = gf2.echelon(kvec & ~(1 << (n - 1)) for kvec in kernel)
    basis2 = tuple(tuple([(reduced[1 << c] >> j) & 1 for j in range(n)]) if 1 << c in reduced
                   else _unit(n, c, 2)
                   for c in range(n))
    return GroupPresentation(n, tuple(gens), TransLattice(n, basis2), gf2.rank_masks(rows))


def gamma_n_generators(n: int) -> GroupPresentation:
    """Generators gamma_0 = (I, e_1), gamma_i = (diag(-1 at i), e_{i+1}/2)
    of the group Gamma_n (n = 2 is the Klein bottle group)."""
    if n < 2:
        raise gf2.UsageError(f"Gamma_n needs n >= 2, got {n}")
    gens = [AffineIso(0, _unit(n, 0, 2))]
    for i in range(1, n):
        gens.append(AffineIso(1 << (i - 1), _unit(n, i, 1)))
    return from_generators(gens)


def member(g: AffineIso, p: GroupPresentation) -> bool:
    """Is g in the group presented by p?

    Solve the GF(2) exponent system for a generator subset S matching g's
    linear part; g is a member iff g * (prod S)^-1 is a translation in N.
    """
    if g.n != p.n:
        raise gf2.DimensionMismatch(f"{g.n} != {p.n}")
    solved = gf2.solve(len(p.generators), _exponent_matrix(p.n, p.generators), g.exponent_mask)
    if solved is None:
        return False
    g_s = _ordered_product(p.generators, gf2.bits(solved[0]))
    diff = g.compose(g_s.inverse())
    _require_translation(diff, "quotient by the matching generator product")
    return p.lattice.contains2(diff.trans2)


def _pivot_generators(p: GroupPresentation) -> list[int]:
    """Indices of generators whose exponent vectors form a point-group
    basis: each one independent of the generators before it."""
    basis: dict[int, int] = {}
    return [i for i, g in enumerate(p.generators) if gf2.reduce_into(basis, (g.exponent_mask,))]


def coset_reps(p: GroupPresentation) -> list[AffineIso]:
    """One representative per point-group element: ascending products over
    subsets of the pivot generators, in binary counting order.  The product
    for a subset is the one for the subset without its last generator,
    times that generator."""
    gens = [p.generators[i] for i in _pivot_generators(p)]
    reps = [AffineIso.identity(p.n)]
    for code in range(1, 1 << len(gens)):
        top = code.bit_length() - 1
        reps.append(reps[code ^ (1 << top)].compose(gens[top]))
    return reps


def holonomy_rep(p: GroupPresentation) -> list[tuple[int, ...]]:
    """Diagonal matrices (as sign tuples) of the holonomy representation,
    one per point-group element, identity first: the linear parts of
    `coset_reps`, read as XORs of the pivot generators' exponent masks."""
    masks = gf2.subset_sums([p.generators[i].exponent_mask for i in _pivot_generators(p)])
    if len(set(masks)) != 1 << p.point_rank:
        raise gf2.InvariantViolation("coset representatives must have distinct linear parts")
    return [_signs(p.n, mask) for mask in masks]


def is_torsion_free(p: GroupPresentation) -> bool:
    """No nontrivial point-group coset contains a finite-order element.

    An element (D, w) squares to (I, D w + w), so it has finite order iff
    w vanishes on the +1 eigenspace F of D; the coset of (D, t) holds one
    iff -t, restricted to F, lies in N restricted to F.

    Mod-2 lemma: when N contains Z^n (`TransLattice.mod2_rows`), as it does
    for every Gamma(A) and Gamma_n, N restricted to F, doubled, is 2Z^F
    plus the 0/1 lifts of the rows of N mod 2 restricted to F, so the coset
    holds torsion iff t mod 2, restricted to F, lies in the GF(2) span of
    those restricted rows.  And D t = t mod 2, so the translation of a
    product is, mod 2, the XOR of its factors' translations: every coset
    is decided on int masks by `gf2.reduce_into`, with no group
    arithmetic.  A lattice without Z^n, which only hand-made generator
    lists give, is decided over Z by `_torsion_free_over_z`.
    """
    rows = p.lattice.mod2_rows()
    if rows is None:
        return _torsion_free_over_z(p)
    rows = [r for r in rows if r]
    gens = [p.generators[i] for i in _pivot_generators(p)]
    full = (1 << p.n) - 1
    for exps, trans in zip(gf2.subset_sums([g.exponent_mask for g in gens]),
                           gf2.subset_sums([_mod2(g.trans2) for g in gens])):
        if not exps:
            continue
        fixed = full & ~exps
        span: dict[int, int] = {}
        gf2.reduce_into(span, [r & fixed for r in rows])
        if not gf2.reduce_into(span, (trans & fixed,)):
            return False
    return True


def _torsion_free_over_z(p: GroupPresentation) -> bool:
    """`is_torsion_free` for any lattice: for each coset rep (D, v), the
    existence of mu in N with (v + mu) = 0 on F is an integer membership
    test on the F-projection of N."""
    for rep in coset_reps(p):
        if rep.is_translation:
            continue
        fixed = [i for i in range(rep.n) if not (rep.exponent_mask >> i) & 1]
        if not fixed:  # D = -I: the element squares to the identity outright
            return False
        proj = TransLattice.span(len(fixed), [[row[i] for i in fixed] for row in p.lattice.basis2])
        if proj.contains2([-rep.trans2[i] for i in fixed]):
            return False
    return True


def squares_lattice_rank(p: GroupPresentation) -> int:
    """Rank of the subgroup generated by the generator squares."""
    squares = []
    for g in p.generators:
        sq = g.compose(g)
        _require_translation(sq, "generator square")
        squares.append(sq.trans2)
    return len(TransLattice.span(p.n, squares).basis2)


def superdiagonal_matrix(n: int) -> BottMatrix:
    rows = [1 << (i + 1) if i + 1 < n else 0 for i in range(n)]
    return BottMatrix(n, tuple(rows))


def tower_conjugation_report(n: int) -> list[dict]:
    """Per-generator membership verdicts for the conjugation between
    Gamma_n and Gamma(A) with A the superdiagonal matrix, under the
    anti-diagonal permutation."""
    if not 2 <= n <= 8:
        raise gf2.UsageError(f"dimension {n} out of the supported range 2..8")
    gamma = gamma_n_generators(n)
    bott = generators_of(superdiagonal_matrix(n))
    reversal = tuple(n - 1 - i for i in range(n))
    out = []
    for idx, g in enumerate(gamma.generators):
        conj = conjugate_by_perm(reversal, g)
        out.append({"group": "Gamma_n", "generator": idx, "conjugate": format_iso(conj),
                    "member_of": "Gamma(A)", "ok": member(conj, bott)})
    for idx, s in enumerate(bott.generators):
        conj = conjugate_by_perm(reversal, s)
        out.append({"group": "Gamma(A)", "generator": idx, "conjugate": format_iso(conj),
                    "member_of": "Gamma_n", "ok": member(conj, gamma)})
    return out


def verify_tower_conjugation(n: int) -> bool:
    """True iff conjugation by the anti-diagonal permutation carries the
    generators of Gamma_n into Gamma(A) and conversely (2 <= n <= 8)."""
    return all(entry["ok"] for entry in tower_conjugation_report(n))
