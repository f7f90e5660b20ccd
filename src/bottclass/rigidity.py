"""Graded-ring isomorphism testing over Z2 and the rigidity experiment.

The rings are generated in degree 1, so a graded isomorphism is a matrix
in GL(n,2) acting on the x_i that carries each source relation to zero in
the target ring.  Candidates are enumerated row by row in ascending
bitmask order; the relation for x_j only involves rows up to j (source
matrices are normalized to strictly upper), so each level is filtered
exactly as soon as its row is chosen.

The filter is read in closed form from the columns y_b of the target:
row v passes for x_j with y_j mapped to y iff v (v + y) = 0.  Squaring is
additive over GF(2) (Frobenius), so v (v + y) = sum_{a in v} x_a (x_a + y)
is linear in v, and the rows that pass are its nonzero kernel, which is
spanned by y and the x_a whose column y_a equals y (`_admissible`, with
the proof); it is listed ascending for each y the search meets.  The rows
already chosen are kept as one `gf2.reduce_into` basis: a row is
independent when it reduces to a new pivot, which stays while the level
below is walked and is popped to undo it.

A level j whose y_j lies in the span of x_0..x_level has its y-image, and
so its admissible rows, fixed once row `level` is chosen.  The search then
checks every such later level (forward check) and cuts the branch when one
of them has no admissible row outside the span.  This is sound: the span
only grows as rows are added, so such a level could never be filled, and
the cut branch holds no witness.  Neither the filter nor the cut changes
the order in which the remaining candidates are met, so the first witness
is that of a plain ascending walk.  The search builds no ring and no
degree-2 product: the target ring alone is built, to re-check a witness it
found on normal forms, apart from the closed form; the source relations
are read from the source columns.

Pairs are first screened by `ring_invariants`, which builds no ring: no
annihilator of a nonzero degree-1 class has dimension above 1, and which
ones have dimension 1, like the square kernel, is read in closed form from
the columns, for all 2^n classes at once as bit lanes of one int.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence

from .bottmatrix import BottMatrix, diffeo_classes, named, to_json_dict, to_strict_upper
from .cohomology import RING_BOUND, CohomRing, linear
from .gf2 import (
    BoundExceeded,
    DimensionMismatch,
    Gf2Mat,
    InvariantViolation,
    bit_lanes,
    bits,
    rank_masks,
    reduce_into,
    subset_sums,
    transpose_masks,
)

PRUNED_BOUND = 6


@dataclass(frozen=True)
class RingIsoWitness:
    """Invertible degree-1 substitution x_i -> sum_j map[i][j] x_j, in the
    labels of the matrices as given: x_i is the i-th variable of the source,
    x_j the j-th of the target, not of their strictly upper forms."""

    map: Gf2Mat


def _relation_holds(ring_b: CohomRing, image_j: int, image_yj: int) -> bool:
    """Does the image of x_j^2 + x_j y_j = x_j (x_j + y_j) reduce to zero in
    the target?  Computed on normal forms, not in closed form."""
    return ring_b.multiply(linear(image_j), linear(image_j ^ image_yj)).is_zero()


def _admissible(cols: Sequence[int], y: int) -> list[int]:
    """The nonzero v, ascending, with v (v + y) = sum_{a in v} x_a (x_a + y)
    = 0 in the ring of the strictly upper matrix with columns `cols`: the
    nonzero span of y and the x_a with cols[a] == y.

    Each of those is in the kernel: y (y + y) = 0, and x_a (x_a + y_a) = 0
    is a relation.  Conversely, for a < b the coefficient of x_a x_b in
    v (v + y) is v_a [b in y] + v_b ([a in y] + [b not in y][a in y_b]).
    Let v be in the kernel.  If y != 0 with top variable t, the pairs
    (a, t) force v_a = v_t [a in y] below t, so w = v + v_t y vanishes up
    to t, and is in the kernel too.  Above t (and everywhere if y = 0) a
    variable b is not in y, so w_b = 1 forces y_b to agree with y below b,
    i.e. y_b = y: w is a sum of x_b with y_b = y.  The basis is
    independent, since y_a < 2^a puts every such a above t, so the subset
    sums are distinct and only 0 is dropped.
    """
    basis = [1 << a for a, col in enumerate(cols) if col == y]
    if y:
        basis.append(y)
    return sorted(subset_sums(basis))[1:]


@lru_cache(maxsize=None)
def ring_invariants(m: BottMatrix) -> tuple:
    """Isomorphism invariants used for pruning: the dimension of the
    degree-1 classes with zero square, and the sorted multiset of
    annihilator dimensions dim{v : v w = 0} over all nonzero w, each 0 or 1.

    Both are read in closed form from the columns y_b of the strictly upper
    form, with no ring and no rank.  For a < b the coefficient of x_a x_b
    in v w is v_a w_b + v_b w_a + v_b w_b [a in y_b] (`degree2`).  Let t be
    the top variable of w.  The pairs (a, t) with a < t force
    v_a = v_t (w_a + [a in y_t]), and the pairs (t, b) with b > t force
    v_b = 0.  So ann(w) is contained in {0, v*} with v* = x_t + the part of
    w + y_t below t, and its dimension is 1 exactly when v* w = 0.  Squares
    are additive and the x_b^2 = x_b y_b have disjoint supports, so the
    square kernel is spanned by the x_b with y_b = 0: its dimension is the
    number of zero columns.

    All 2^n masks w are handled at once as the bit lanes of one int, lane w
    for the mask w: lanes[a] (`bit_lanes`) holds the w with w_a = 1, and
    v[a] the w whose v* holds x_a.  v*_a is w_a when the top variable t of
    w is at most a (0 below a, 1 at a), and w_a + [a in y_t] above, so v[a]
    is lanes[a] XOR the lanes [2^t, 2^(t+1)) of every t with a in y_t.  A
    lane is set in the coefficient of some x_a x_b of v* w exactly when
    ann(w) = 0.

    The lanes take 2^n bits each and the result 2^n - 1 entries, so n above
    `cohomology.RING_BOUND` is refused first.
    """
    if m.n > RING_BOUND:
        raise BoundExceeded(f"ring_invariants at n={m.n} exceeds the bound {RING_BOUND}")
    m = to_strict_upper(m)[1]
    n = m.n
    cols = transpose_masks(n, m.rows)
    lanes = [bit_lanes(n, a) for a in range(n)]
    v = lanes[:]
    for t, col in enumerate(cols):
        top = (1 << (2 << t)) - (1 << (1 << t))  # the w with top variable t
        for a in range(t):
            if (col >> a) & 1:
                v[a] ^= top
    faithful = 0  # the lanes w with v* w != 0
    for b, col in enumerate(cols):
        vb, wb = v[b], lanes[b]
        for a in range(b):
            # v*_a w_b + v*_b (w_a + w_b [a in y_b])
            faithful |= v[a] & wb ^ vb & (lanes[a] ^ wb if (col >> a) & 1 else lanes[a])
    zero_ann = faithful.bit_count()
    return (cols.count(0), (0,) * zero_ann + (1,) * ((1 << n) - 1 - zero_ann))


def ring_isomorphic(a: BottMatrix, b: BottMatrix) -> Optional[RingIsoWitness]:
    """First graded-ring isomorphism H*(M(a)) -> H*(M(b)) in the fixed
    enumeration order of GL(n,2), or None, for n up to PRUNED_BOUND.

    Pairs whose `ring_invariants` differ are refused first; the invariants
    are proven, so this never changes the verdict.  The refusal is
    load-bearing: without it the search on the torus against the
    single-edge matrix a[4][5] = 1 at n = 6 runs for over two minutes
    (142-161 s of process time on a 2-core Xeon VM, Python 3.11).  The
    search runs on the columns of the strictly upper forms of a and b,
    with no ring: rows are tried in ascending order at each level,
    restricted to the rows `_admissible` for the image y of y_j, the
    nonzero kernel of v -> v (v + y), which is linear in v since squaring
    is additive: in closed form, the span of y and the x_a with y_a = y.
    Each row must also be independent of the rows before it.  After row
    j is chosen, every later level j' > j + 1 whose y_j' lies in the span
    of x_0..x_j must still have an admissible row outside the span, or the
    branch is cut; the span only grows, so no witness is cut and the first
    one is unchanged.  A witness found is re-checked on the normal forms of the
    target ring, the one ring built, and an InvariantViolation is raised if
    it fails; it is returned in the labels of a and b as given.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} != {b.n}")
    n = a.n
    if n > PRUNED_BOUND:
        raise BoundExceeded(f"ring_isomorphic at n={n} exceeds the bound {PRUNED_BOUND}")
    if ring_invariants(a) != ring_invariants(b):
        return None
    (pa, upper_a), (pb, upper_b) = to_strict_upper(a), to_strict_upper(b)
    cols_a = transpose_masks(n, upper_a.rows)
    cols_b = transpose_masks(n, upper_b.rows)
    admissible: list[Optional[list[int]]] = [None] * (1 << n)  # listed per y met
    chosen = [0] * n
    pivots: dict[int, int] = {}  # `reduce_into` basis of the span of the rows chosen
    # the later levels j > level + 1 whose y_j image is fixed once row `level` is chosen
    fixed = [[j for j in range(level + 2, n) if cols_a[j] >> (level + 1) == 0]
             for level in range(n)]

    def rows_for(j: int) -> list[int]:
        """The admissible rows for x_j, given the rows chosen for y_j."""
        image_y = 0
        for i in bits(cols_a[j]):  # cols_a[j] < 2^j: strictly upper
            image_y ^= chosen[i]
        listed = admissible[image_y]
        if listed is None:
            listed = admissible[image_y] = _admissible(cols_b, image_y)
        return listed

    def open_level(j: int) -> bool:
        """Is some admissible row for x_j outside the span?"""
        for v in rows_for(j):
            if reduce_into(pivots, (v,)):
                pivots.popitem()
                return True
        return False

    def rec(level: int) -> Optional[tuple[int, ...]]:
        if level == n:
            return tuple(chosen)
        for v in rows_for(level):
            if not reduce_into(pivots, (v,)):
                continue
            chosen[level] = v
            if all(open_level(j) for j in fixed[level]):
                found = rec(level + 1)
                if found is not None:
                    return found
            pivots.popitem()
        return None

    found = rec(0)
    if found is None:
        return None
    if not _is_witness(cols_a, CohomRing(upper_b), found):
        raise InvariantViolation(
            f"ring_isomorphic({named(a.n, a.rows)}, {named(b.n, b.rows)}) "
            f"found {found}, which fails the relation check"
        )
    if not pa == pb == tuple(range(n)):
        # x_i of a is x_{pa[i]} of its strictly upper form, x_k of b is x_{pb[k]}
        found = tuple(sum(((found[pa[i]] >> pb[k]) & 1) << k for k in range(n))
                      for i in range(n))
    return RingIsoWitness(Gf2Mat(n, found))


def _is_witness(cols_a: Sequence[int], ring_b: CohomRing, rows: tuple[int, ...]) -> bool:
    """Full check: rows invertible and every relation of the source, the
    strictly upper matrix with columns `cols_a`, maps to zero in ring_b."""
    if rank_masks(rows) != len(cols_a):
        return False
    images = subset_sums(rows)  # images[mask]: the image of sum_{i in mask} x_i
    return all(_relation_holds(ring_b, rows[j], images[col]) for j, col in enumerate(cols_a))


def rigidity_experiment(n: int) -> dict:
    """Check that ring isomorphism matches the diffeomorphism partition.

    n <= 4: every member is checked against its class canonical and every
    pair of canonicals against each other (exhaustive).  n = 5: all pairs
    of full-holonomy-rank (GHW) class canonicals, and each GHW class's
    first three members after its canonical, in class order, against the
    canonical.  Members are listed by code and the canonical has the least,
    so it comes first.  Violations are returned in the report; the
    acceptance suite requires none.
    """
    if n > 5:
        raise BoundExceeded(f"rigidity experiment supports n <= 5, got {n}")
    classes = diffeo_classes(n)
    violations: list[dict] = []
    pairs_checked = 0

    def expect(x: BottMatrix, y: BottMatrix, iso: bool) -> None:
        nonlocal pairs_checked
        pairs_checked += 1
        if (ring_isomorphic(x, y) is not None) != iso:
            kind = "missing-isomorphism" if iso else "unexpected-isomorphism"
            violations.append({"kind": kind, "a": to_json_dict(x), "b": to_json_dict(y)})

    exhaustive = n <= 4
    chosen = classes if exhaustive else [c for c in classes if c.fingerprint.ghw]
    for cls in chosen:
        for member in islice(cls.members, 1, None if exhaustive else 4):
            expect(member, cls.canonical, True)
    for i, ci in enumerate(chosen):
        for cj in chosen[i + 1:]:
            expect(ci.canonical, cj.canonical, False)
    return {
        "dim": n,
        "classes": len(classes),
        "mode": "exhaustive" if exhaustive else "ghw",
        "pairs_checked": pairs_checked,
        "violations": violations,
    }
