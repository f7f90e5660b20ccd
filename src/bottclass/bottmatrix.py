"""Bott matrices, the three diffeomorphism moves, and orbit classification.

A Bott matrix is a binary square matrix with zero diagonal that some
permutation conjugates to strictly upper triangular form; equivalently the
digraph with an edge k -> i whenever a[k][i] = 1 is acyclic.  Matrices are
stored as tuples of int row masks (bit j of row i is a[i][j], 0-based).
"""
from __future__ import annotations

import json
from array import array
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .gf2 import (
    BoundExceeded,
    InvariantViolation,
    UsageError,
    bit_lanes,
    bits,
    parity,
    rank_masks,
    transpose_masks,
)

STRICT_UPPER_ENUM_BOUND = 7
CLASSIFY_BOUND = 6


class NotBottMatrix(ValueError):
    """Input fails the Bott matrix conditions (diagonal / acyclicity)."""


class ColumnMismatch(ValueError):
    """Op3 applied to columns that are not equal."""


class MatrixParseError(ValueError):
    pass


def _find_cycle(n: int, rows: Sequence[int], alive: int) -> list[int]:
    # Every stuck vertex has a stuck predecessor; walking predecessors
    # must revisit a vertex, closing a cycle.
    start = (alive & -alive).bit_length() - 1
    seen = {start: 0}
    path = [start]
    v = start
    while True:
        pred = next(k for k in range(n) if (alive >> k) & 1 and (rows[k] >> v) & 1)
        if pred in seen:
            # Edge direction: pred -> path[-1] -> path[-2] -> ... -> pred.
            return [pred] + path[seen[pred] + 1:][::-1]
        seen[pred] = len(path)
        path.append(pred)
        v = pred


def _topo_order(n: int, rows: Sequence[int]) -> list[int]:
    """Topological order of the edge digraph, smallest index first on ties.

    Vertex v may be placed once all its predecessors (k with a[k][v] = 1)
    are placed.  On a cycle the order stops short: the vertices it leaves
    out are the ones no topological sort can place.

    Kahn's algorithm on bit masks: `ready` holds the unplaced vertices
    whose predecessors are all placed, and the lowest of them is placed
    next.  That is the vertex a scan of 0..n-1 for the first placeable one
    would pick, so the order (and where it stops on a cycle) is the scan's.
    Placing v can make only its successors, the bits of rows[v], ready, so
    only they are tested: O(n + edges) steps instead of O(n^2).
    """
    cols = transpose_masks(n, rows)
    ready = sum(1 << v for v in range(n) if not cols[v])
    placed = 0
    order: list[int] = []
    while ready:
        low = ready & -ready
        ready ^= low
        placed |= low
        v = low.bit_length() - 1
        order.append(v)
        succ = rows[v]
        while succ:
            bit = succ & -succ
            if not cols[bit.bit_length() - 1] & ~placed:
                ready |= bit
            succ ^= bit
    return order


@dataclass(frozen=True, slots=True)
class BottMatrix:
    """Binary square matrix encoding one real Bott manifold.

    `_perm` keeps the relabelling found by validation: None when the rows
    are strictly upper, else perm[v] = position of v in `_topo_order`.
    Only the constructor sets it; equality, hashing and repr ignore it."""

    n: int
    rows: tuple[int, ...]
    _perm: tuple[int, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, rows = self.n, self.rows
        if n < 1:
            raise NotBottMatrix(f"dimension must be at least 1, got {n}")
        if not isinstance(rows, tuple):
            raise NotBottMatrix(f"rows must be a tuple of int masks, got {type(rows).__name__}")
        if len(rows) != n:
            raise NotBottMatrix(f"expected {n} rows, got {len(rows)}")
        for i, r in enumerate(rows):
            if type(r) is not int:  # bools too: they are ints but no masks
                raise NotBottMatrix(f"row {i + 1} is {r!r}, not an int mask")
            if r < 0 or r >> n:
                raise NotBottMatrix(f"row {i + 1} does not fit in {n} columns")
            if (r >> i) & 1:
                raise NotBottMatrix(f"nonzero diagonal entry at ({i + 1},{i + 1})")
        if all(r & ((1 << (i + 1)) - 1) == 0 for i, r in enumerate(rows)):
            object.__setattr__(self, "_perm", None)
            return  # acyclic by construction
        order = _topo_order(n, rows)
        if len(order) < n:
            cycle = _find_cycle(n, rows, ((1 << n) - 1) & ~sum(1 << v for v in order))
            pretty = " -> ".join(str(v + 1) for v in cycle + cycle[:1])
            raise NotBottMatrix(f"edge digraph has a cycle: {pretty}")
        perm = [0] * n
        for pos, v in enumerate(order):
            perm[v] = pos
        object.__setattr__(self, "_perm", tuple(perm))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BottMatrix":
        n = len(rows)
        masks = []
        for r in rows:
            if len(r) != n:
                raise NotBottMatrix("matrix must be square")
            mask = 0
            for j, b in enumerate(r):
                if type(b) is not int or b not in (0, 1):  # bools and floats too
                    raise NotBottMatrix(f"entry {b!r} is not the int 0 or 1")
                mask |= b << j
            masks.append(mask)
        return cls(n, tuple(masks))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def col_mask(self, j: int) -> int:
        return transpose_masks(self.n, self.rows)[j]

    @property
    def is_strictly_upper(self) -> bool:
        return self._perm is None

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n)] for r in self.rows]

    def __str__(self) -> str:
        return "\n".join("".join(str((r >> j) & 1) for j in range(self.n)) for r in self.rows)


def validate(rows: Sequence[Sequence[int]] | BottMatrix) -> BottMatrix:
    """Check the Bott conditions, returning the matrix or raising NotBottMatrix."""
    if isinstance(rows, BottMatrix):
        return rows
    return BottMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# text / JSON interchange
# ---------------------------------------------------------------------------

def format_matrix_text(m: BottMatrix) -> str:
    return f"{m.n}\n{m}\n"

def _json_rows(n: int, rows: Sequence[int]) -> dict:
    return {"n": n, "rows": ["".join(str((r >> j) & 1) for j in range(n)) for r in rows]}


def to_json_dict(m: BottMatrix) -> dict:
    return _json_rows(m.n, m.rows)


def named(n: int, rows: Sequence[int]) -> str:
    """The rows in `{"n", "rows"}` form, for messages; they need not be a
    Bott matrix."""
    return json.dumps(_json_rows(n, rows))


def _rows_from_strings(n: int, lines: Sequence[str]) -> BottMatrix:
    if n < 1:
        raise MatrixParseError(f"dimension must be at least 1, got {n}")
    if len(lines) != n:
        raise MatrixParseError(f"expected {n} rows, got {len(lines)}")
    rows = []
    for line in lines:
        if len(line) != n or any(c not in "01" for c in line):
            raise MatrixParseError(f"row {line!r} is not {n} characters of 0/1")
        rows.append([int(c) for c in line])
    try:
        return BottMatrix.from_rows(rows)
    except NotBottMatrix as exc:
        raise MatrixParseError(str(exc)) from exc


def parse_matrix(text: str) -> BottMatrix:
    """Parse either the plain text form ("n" then n rows) or the JSON form."""
    stripped = text.strip()
    if not stripped:
        raise MatrixParseError("empty matrix input")
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(f"bad JSON: {exc}") from exc
        if not isinstance(data, dict) or "n" not in data or "rows" not in data:
            raise MatrixParseError('JSON matrix needs keys "n" and "rows"')
        n, rows = data["n"], data["rows"]
        if (type(n) is not int or not isinstance(rows, list)
                or not all(isinstance(r, str) for r in rows)):
            raise MatrixParseError('JSON matrix needs an int "n" and a list of strings "rows"')
        return _rows_from_strings(n, rows)
    lines = stripped.splitlines()
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise MatrixParseError(f"first line must be the dimension: {lines[0]!r}") from exc
    return _rows_from_strings(n, [ln.strip() for ln in lines[1:]])


# ---------------------------------------------------------------------------
# the three operations
# ---------------------------------------------------------------------------

def _conjugate_raw(n: int, rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    # b[perm[i]][perm[j]] = a[i][j]
    out = [0] * n
    for i, r in enumerate(rows):
        nr = 0
        while r:
            low = r & -r
            nr |= 1 << perm[low.bit_length() - 1]
            r ^= low
        out[perm[i]] = nr
    return tuple(out)


def op1(m: BottMatrix, perm: Sequence[int]) -> BottMatrix:
    """Conjugate by the permutation sending index i to perm[i]."""
    if sorted(perm) != list(range(m.n)):
        raise ValueError(f"not a permutation of 0..{m.n - 1}: {perm!r}")
    return BottMatrix(m.n, _conjugate_raw(m.n, m.rows, perm))


def op2(m: BottMatrix, k: int) -> BottMatrix:
    """Add column k into every column j with a[k][j] = 1 (an involution):
    row k is added to each row i of column k (a[i][k] = 1)."""
    if not 0 <= k < m.n:
        raise UsageError(f"index {k} out of range")
    rows = list(m.rows)
    for i in bits(m.col_mask(k)):
        rows[i] ^= m.rows[k]
    return BottMatrix(m.n, tuple(rows))


def op3(m: BottMatrix, l: int, m_idx: int) -> BottMatrix:
    """Replace row m_idx by row l + row m_idx; requires equal columns l, m_idx."""
    if l == m_idx or not 0 <= l < m.n or not 0 <= m_idx < m.n:
        raise UsageError(f"need two distinct indices in range, got {l}, {m_idx}")
    if m.col_mask(l) != m.col_mask(m_idx):
        raise ColumnMismatch(
            f"columns {l + 1} and {m_idx + 1} differ; the row move does not apply"
        )
    rows = list(m.rows)
    rows[m_idx] ^= rows[l]
    return BottMatrix(m.n, tuple(rows))


def to_strict_upper(m: BottMatrix) -> tuple[tuple[int, ...], BottMatrix]:
    """Permutation p and strictly upper B with B = P m P^-1.

    p is the order m's validation kept: p[i] is the new position of index
    i, ties broken by smallest original index first, so strictly upper
    input maps to itself under the identity.  A wrong kept order raises
    InvariantViolation."""
    perm = m._perm
    if perm is None:
        return tuple(range(m.n)), m
    b = BottMatrix(m.n, _conjugate_raw(m.n, m.rows, perm))
    if not b.is_strictly_upper:
        raise InvariantViolation(
            f"topological relabelling of {named(m.n, m.rows)} is not strictly upper")
    return perm, b


# ---------------------------------------------------------------------------
# enumeration and invariants
# ---------------------------------------------------------------------------

def enumerate_strict_upper(n: int) -> Iterator[BottMatrix]:
    """All 2^(n(n-1)/2) strictly upper triangular binary matrices, for n up
    to STRICT_UPPER_ENUM_BOUND."""
    if n < 1:
        raise UsageError(f"dimension must be >= 1, got {n}")
    if n > STRICT_UPPER_ENUM_BOUND:
        raise BoundExceeded(f"enumerate_strict_upper(n={n}) exceeds the configured bound "
                            f"{STRICT_UPPER_ENUM_BOUND}")
    for rows in _iter_strict_upper_raw(n):
        yield BottMatrix(n, rows)


def _iter_strict_upper_raw(n: int) -> Iterator[tuple[int, ...]]:
    # Counting order of the row-major code over the entries above the
    # diagonal: row 0 varies fastest, each row through its values in order.
    choices = [[v << (i + 1) for v in range(1 << (n - 1 - i))] for i in reversed(range(n))]
    for combo in product(*choices):
        yield combo[::-1]


def is_orientable(m: BottMatrix) -> bool:
    """True iff every row has even weight (w1 = 0)."""
    return all(parity(r) == 0 for r in m.rows)


def is_ghw_rbm(m: BottMatrix) -> bool:
    """True iff the GF(2) rank is n - 1 (the GHW∩RBM characterization).

    Requires n >= 2: the GHW holonomy condition asks for (Z_2)^{n-1} with
    n - 1 >= 1, so the circle does not qualify.
    """
    return m.n >= 2 and rank_masks(m.rows) == m.n - 1


# ---------------------------------------------------------------------------
# diffeomorphism classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassFingerprint:
    orientable: bool
    holonomy_rank: int
    ghw: bool
    w2_zero: bool


class ClassMembers(AbstractSet):
    """Read-only set view of the members of one class, stored as their
    `_code`s in code order.  `in` is one read of the dimension's class-id
    table; iteration decodes each member to a `BottMatrix` and keeps none."""

    __slots__ = ("_n", "_codes", "_ids", "_cid")

    def __init__(self, n: int, codes: array, ids: array, cid: int) -> None:
        self._n, self._codes, self._ids, self._cid = n, codes, ids, cid

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[BottMatrix]:
        n = self._n
        for code in self._codes:
            yield BottMatrix(n, _decode(n, code))

    def __contains__(self, m: object) -> bool:
        return (isinstance(m, BottMatrix) and m.n == self._n and m.is_strictly_upper
                and self._ids[_code(m.n, m.rows)] == self._cid)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClassMembers):
            return self._n == other._n and self._codes == other._codes
        return AbstractSet.__eq__(self, other)

    def __hash__(self) -> int:
        return self._hash()

    def __repr__(self) -> str:
        return f"<{len(self)} members, n = {self._n}>"


@dataclass(frozen=True)
class DiffeoClass:
    canonical: BottMatrix
    members: ClassMembers
    fingerprint: ClassFingerprint

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def _reversed_bits(n: int) -> tuple[int, ...]:
    return tuple(int(format(r, f"0{n}b")[::-1], 2) for r in range(1 << n))


def _code(n: int, rows: Sequence[int]) -> int:
    """The entries above the diagonal, row-major, read as one binary number
    with a[0][1] highest.  On strictly upper matrices this is a bijection
    onto 0 .. 2^(n(n-1)/2) - 1 that orders them as their entry lists do.

    Row i is the field of width w_i = n-1-i at offset off_i, where
    off_{n-1} = 0 and off_i = off_{i+1} + w_{i+1}; entry a[i][j] is bit
    off_i + n-1-j, so a[i][i+1] is the top bit of the field and the fields
    of all rows hold column j at the same place n-1-j.  The walk's moves
    read and write the code through this layout: Op2 and Op3 add fields
    (`_op23_codes`), and a relabelling that keeps the form strictly upper
    moves each entry to a fixed place, a permutation of the code bits
    that `_move_masks` tabulates per 8-bit chunk of the code."""
    rev = _reversed_bits(n)
    code = 0
    for i, r in enumerate(rows):
        code = (code << (n - 1 - i)) | rev[r]
    return code


def _decode(n: int, code: int) -> tuple[int, ...]:
    """The strictly upper rows with this `_code`."""
    rev = _reversed_bits(n)
    rows = [0] * n
    for i in reversed(range(n - 1)):
        width = n - 1 - i
        rows[i] = rev[code & ((1 << width) - 1)]
        code >>= width
    return tuple(rows)


def _chunk_tables(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The lookup tables of the code bit permutation sending bit b to bit
    perm[b]: table t maps each value of the bits [8t, 8t + 8) to the OR of
    their images, so the image of a code is the OR of one read per table
    (`_permuted`), and a table holds at most 256 ints."""
    tables = []
    for start in range(0, len(perm), 8):
        table = [0]
        for b in perm[start:start + 8]:
            table += [t | 1 << b for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _permuted(code: int, tables: Sequence[Sequence[int]]) -> int:
    """The image of a code under the bit permutation with these
    `_chunk_tables`."""
    out = 0
    for table in tables:
        out |= table[code & 255]
        code >>= 8
    return out


@lru_cache(maxsize=None)
def _move_masks(n: int) -> tuple[tuple, tuple, tuple]:
    """The per-n masks and lookup tables of the walk's moves, over the
    `_code` layout.

    swaps: (top, tables) per adjacent swap (i i+1), with top the bit of
    a[i][i+1] and tables the swap's `_chunk_tables`.  When a[i][i+1] = 0
    the swap is a fixed permutation of the code bits: the relabelling p =
    (i i+1) carries each entry a[r][c] above the diagonal, other than
    a[i][i+1], to a[p r][p c], still above it, so columns i and i+1 trade
    places in every row above i, the fields of rows i and i+1 trade places
    (the low w_{i+1} bits of row i against row i+1), and a[i][i+1] stays.
    A bit permutation maps a code to the OR of the images of its bits, so
    one read per 8 code bits gives the image: 2 reads at n = 6, 3 at n = 7.
    rows: (off_k, field mask, column mask C_k, n-1-k) per k (row n-1 is
    empty, its field mask 0).
    pairs: (l, m, off_m, path, off_{m+1}, field mask of m+1) per Op3 pair
    m < l, with path the tables of the swaps (l-1 l), ..., (m m+1)
    composed in that order: the relabelling that moves l down to m, one
    bit permutation too.
    """
    width = [n - 1 - i for i in range(n)]
    off = [0] * n
    for i in reversed(range(n - 1)):
        off[i] = off[i + 1] + width[i + 1]
    size = n * (n - 1) // 2
    perms = []  # perms[i][b]: where the swap (i i+1) sends code bit b
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = i + 1, i
        perm = [0] * size
        for r in range(n):
            for c in range(r + 1, n):
                perm[off[r] + n - 1 - c] = off[min(p[r], p[c])] + n - 1 - max(p[r], p[c])
        perms.append(perm)
    swaps = tuple((1 << (off[i] + width[i] - 1), _chunk_tables(perm))
                  for i, perm in enumerate(perms))
    rows = tuple(
        (off[k], (1 << width[k]) - 1, sum(1 << (off[i] + n - 1 - k) for i in range(k)), n - 1 - k)
        for k in range(n))
    pairs = []
    for l in range(1, n):
        for m in range(l):
            path = list(range(size))
            for i in reversed(range(m, l)):
                path = [perms[i][b] for b in path]
            pairs.append((l, m, off[m], _chunk_tables(path), off[m + 1], (1 << width[m + 1]) - 1))
    return swaps, rows, tuple(pairs)


def _swap_orbits(n: int, ids: array) -> array:
    """Phase 1 of `diffeo_classes`: label every code with its Op1 orbit.

    Breadth-first search over the adjacent swaps (i i+1) with
    a[i][i+1] = 0, from each code not yet labelled, in code order, with
    the contract of `_components`: ids is filled in place (-1 is
    unlabelled) and is the visited set, orbits are numbered by their least
    codes, the representatives, which are returned in that order, and a
    code reached that already holds another id raises InvariantViolation
    naming its matrix in `{"n", "rows"}` form.  Each swap reads its
    `_move_masks` tables inline, with no neighbour list: three reads, the
    third of a one-entry table while the code has at most 16 bits
    (n <= 6); a swap that fixes the matrix lands on the code itself,
    which holds the current id.  Three 8-bit reads cover n <= 7, whose
    2^21 codes are the most the walk keeps a table for.
    """
    if n > 7:
        raise BoundExceeded(f"the Op1 orbit table at n = {n} holds 2^{n * (n - 1) // 2} codes")
    swaps = [(top, *tables, *((0,),) * (3 - len(tables))) for top, tables in _move_masks(n)[0]]
    seeds = array("I")
    for seed in range(len(ids)):
        if ids[seed] != -1:
            continue
        cid = len(seeds)
        seeds.append(seed)
        ids[seed] = cid
        todo = [seed]
        for code in todo:  # grows while it is walked
            low, mid, high = code & 255, code >> 8 & 255, code >> 16
            for top, t0, t1, t2 in swaps:
                if not code & top:
                    nb = t0[low] | t1[mid] | t2[high]
                    owner = ids[nb]
                    if owner == -1:
                        ids[nb] = cid
                        todo.append(nb)
                    elif owner != cid:
                        raise InvariantViolation(f"{named(n, _decode(n, nb))} is in two orbits")
    return seeds


def _op23_codes(n: int, code: int) -> list[int]:
    """The `_code`s one Op2 or Op3 away from the strictly upper matrix with
    this code, up to relabelling, leaving out the moves that fix it (see
    `diffeo_classes` for why this suffices on one member of each Op1
    orbit):

    - Op2 at k adds row k's field v to every row i of column k: with
      s = sum of 2^{off_i} over those i, the result is code ^ v * s, with
      no carries since the fields are disjoint and v fits in each;
    - Op3 adds row l to a row m < l whose column equals column l, i.e.
      whose s equals that of l;
    - the reverse Op3, row m added to row l, is read after the swaps that
      move l down to m (legal, since the predecessors of l are those of m,
      all below m), one read of the pair's path tables per code chunk
      (`_permuted`): there it adds row m+1 to row m.  When rows l and m are
      equal too, exchanging l and m fixes the matrix and carries one
      direction to the other, so only the forward one is listed.
    """
    _, rows, pairs = _move_masks(n)
    out = []
    fields = []
    spreads = []
    for off, fmask, cmask, shift in rows:
        v = (code >> off) & fmask
        s = (code & cmask) >> shift
        if v and s:
            out.append(code ^ v * s)
        fields.append(v)
        spreads.append(s)
    for l, m, off, path, off_next, fmask_next in pairs:
        if spreads[l] == spreads[m]:
            if fields[l]:
                out.append(code ^ (fields[l] << off))
            if fields[m] and fields[m] != fields[l]:
                moved = _permuted(code, path)
                out.append(moved ^ ((moved >> off_next) & fmask_next) << off)
    return out


def w2_masks(rows: Sequence[int], cols: Sequence[int]) -> Iterator[int]:
    """The coefficients of w_2 = sum_{i<j} y_i y_j, one mask per a: bit b
    (b > a) is the coefficient of x_a x_b in the normal form.  Read lazily
    from the row and column masks (`transpose_masks(n, rows)`), with no
    ring, so a zero test stops at the first nonzero mask.

    With R_a = row a, so that x_a occurs in y_j for j in R_a, the
    coefficient of x_a x_b is |R_a||R_b| - |R_a & R_b| (from x_a x_b with a,
    b taken from distinct y_i, y_j), plus one for each end c of {a, b} whose
    square x_c^2 = x_c y_c arises an odd number C(|R_c|, 2) of times and
    whose y_c holds the other end.  For fixed a the coefficients over all b
    form one bitmask: the overlap parities |R_a & R_b| mod 2 are the XOR of
    the columns j in R_a.
    """
    odd = squares = 0
    for a, r in enumerate(rows):
        w = r.bit_count()
        odd |= (w & 1) << a
        squares |= ((w >> 1) & 1) << a  # C(w, 2) odd
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
        yield coeffs >> (a + 1) << (a + 1)


def _fingerprint_raw(rows: tuple[int, ...], cols: Sequence[int]) -> tuple[int, bool, bool]:
    """What `ClassFingerprint` records, read off one matrix: the rank,
    whether some row is odd (w1 != 0), and whether w2 != 0."""
    return rank_masks(rows), any(r.bit_count() & 1 for r in rows), any(w2_masks(rows, cols))


def _fingerprint_byte(rank: int, odd: bool, w2: bool) -> int:
    """The fingerprint as one byte, odd + 2 w2 + 4 rank, as
    `_fingerprint_blocks` gives it per code."""
    return odd | w2 << 1 | rank << 2


_BLOCK_BITS = 12  # 2^12 codes per block of `_fingerprint_blocks`: 512-byte planes
_BIT_OF = tuple(bytes((v >> t) & 1 for v in range(256)) for t in range(8))  # translate tables


def _bytes_per_code(size: int, planes: list[int]) -> bytearray:
    """Byte c is the sum over q of bit c of planes[q] times 2^q, for the
    size codes c.  Bit t of each plane byte is read with one translate and
    written to every eighth byte from t, so no per-code object is made."""
    width = (size + 7) >> 3
    raw = [plane.to_bytes(width, "little") for plane in planes]
    out = bytearray(8 * width)
    for t, table in enumerate(_BIT_OF):
        lane = 0
        for q, plane in enumerate(raw):
            lane |= int.from_bytes(plane.translate(table), "little") << q
        out[t::8] = lane.to_bytes(width, "little")
    del out[size:]
    return out


def _fingerprint_planes(n: int, rows: list[list[int]]) -> list[int]:
    """w1 != 0, w2 != 0 and the bits of the rank of every matrix at once:
    rows[i][j] is the plane of entry a[i][j] (an int whose bit c is the
    entry in the c-th matrix), and the result is the planes of odd, w2 and
    the rank's bits, lowest first, by the formulas of `_fingerprint_raw`.

    - par_a is the parity of row a and sq_a the parity of C(|R_a|, 2), the
      running pair of the elementary symmetric functions e1, e2 of the row;
    - the coefficient of x_a x_b (a < b) in w2 is `w2_masks`' formula with
      a[b][a] = 0: (a_ab & sq_b) ^ (par_a & par_b) ^ XOR_j (a_aj & a_bj);
    - the rank is Gauss-Jordan elimination column by column.  Row r is the
      pivot of column j where it is the first row, not yet a pivot, with a
      one there; its later entries (k > j) are added to each other row with
      a one in column j, whose stale entry in column j `found` masks.  Rows
      s >= j hold zeros in columns up to s throughout, so only rows below
      j take part.  A bit-sliced counter sums the `found` planes.
    """
    par, sq = [], []
    odd = w2 = 0
    for row in rows:
        s = e2 = 0
        for x in row:
            e2 ^= s & x
            s ^= x
        par.append(s)
        sq.append(e2)
        odd |= s
    for a in range(n):
        for b in range(a + 1, n):
            t = (rows[a][b] & sq[b]) ^ (par[a] & par[b])
            for j in range(b + 1, n):
                t ^= rows[a][j] & rows[b][j]
            w2 |= t
    m = [list(row) for row in rows]
    used = [0] * n
    rank: list[int] = []
    for j in range(1, n):
        found = 0
        for r in range(j):
            p = m[r][j] & ~used[r] & ~found
            if not p:
                continue
            used[r] |= p
            found |= p
            pivot = m[r]
            for s in range(j):
                f = p & m[s][j]
                if f and s != r:
                    target = m[s]
                    for k in range(j + 1, n):
                        target[k] ^= f & pivot[k]
        for t in range(len(rank)):
            rank[t], found = rank[t] ^ found, rank[t] & found
        if found:
            rank.append(found)
    return [odd, w2] + rank


def _fingerprint_blocks(n: int) -> Iterator[tuple[int, bytearray]]:
    """The `_fingerprint_byte` of every strictly upper matrix of size n, in
    `_code` order: (first code, one byte per code) for each block of
    2^_BLOCK_BITS codes (one block while n <= 5, eight at n = 6).

    Entry a[i][j] is code bit off_i + n-1-j (see `_code`).  Within a block
    the plane of a low code bit is `bit_lanes`, and that of a high bit is
    constant, all ones or zero."""
    width = n * (n - 1) // 2
    low = min(width, _BLOCK_BITS)
    size = 1 << low
    ones = (1 << size) - 1
    lanes = [bit_lanes(low, p) for p in range(low)]
    off = [(n - 1 - i) * (n - 2 - i) // 2 for i in range(n)]
    for block in range(1 << (width - low)):
        planes = lanes + [ones if (block >> q) & 1 else 0 for q in range(width - low)]
        rows = [[planes[off[i] + n - 1 - j] if j > i else 0 for j in range(n)] for i in range(n)]
        yield block << low, _bytes_per_code(size, _fingerprint_planes(n, rows))


def _components(ids: array, step: Callable[[int], Iterable[int]],
                rows_of: Callable[[int], tuple[int, ...]]) -> array:
    """Label the nodes 0 .. len(ids)-1 with the connected components of the
    graph whose edges are node -> step(node), by breadth-first search from
    each node not yet labelled, in node order.  ids is filled in place (-1
    is unlabelled) and is the visited set; components are numbered by their
    least node, and the least nodes are returned in that order.  A node
    reached that already holds another id raises InvariantViolation, naming
    its matrix rows_of(node) in `{"n", "rows"}` form; the edges of both
    phases come with their reverses, so this happens only if a move is
    missing or wrong."""
    seeds = array("I")
    for seed in range(len(ids)):
        if ids[seed] != -1:
            continue
        cid = len(seeds)
        seeds.append(seed)
        ids[seed] = cid
        todo = [seed]
        for node in todo:  # grows while it is walked
            for nb in step(node):
                owner = ids[nb]
                if owner == -1:
                    ids[nb] = cid
                    todo.append(nb)
                elif owner != cid:
                    rows = rows_of(nb)
                    raise InvariantViolation(f"{named(len(rows), rows)} is in two orbits")
    return seeds


class _ClassTable(tuple):
    """The classes of one dimension, carrying the class-id table that
    `diffeo_class_of` and `ClassMembers` read (the index of the class of
    each `_code`), so the table is memoised, and dropped, with them."""

    class_ids: array


@lru_cache(maxsize=None)
def diffeo_classes(n: int) -> tuple[DiffeoClass, ...]:
    """Partition all strictly upper matrices of size n into diffeomorphism
    classes (orbits of Op1/Op2/Op3), each with its canonical representative
    and invariant fingerprint.

    The walk stays on strictly upper matrices, held as `_code` ints, and
    runs in two phases.

    Phase 1 labels every code with its Op1 orbit, the strictly upper
    conjugates of the matrix (`_swap_orbits`).  Op1 contributes only the
    adjacent transpositions (i i+1) with a[i][i+1] = 0, which keep the
    form.  These reach every strictly upper conjugate, i.e. every linear
    extension of the edge order: to reach a target order, move its first
    vertex down past the vertices before it (none is a predecessor, so no
    edge joins two swapped neighbours), then repeat on the rest.  Each such
    swap moves every other entry above the diagonal to a fixed place, so
    it is a permutation of the code bits, and a bit permutation maps a
    code to the OR of the images of its 8-bit chunks: one lookup per chunk
    in the tables `_move_masks` builds per n (256 ints each).  The orbits
    are numbered by their least codes, the representatives.

    Phase 2 joins the orbits into classes.  Op2 and Op3 commute with
    relabelling: for a relabelling p, Op2 at k of p.A is p.(Op2 at p^-1(k)
    of A), and Op3 adding row l to row m of p.A is p.(Op3 adding row
    p^-1(l) to row p^-1(m) of A), whose columns are equal when those of
    p.A are.  So every member of an orbit reaches, by one Op2 or Op3, the
    same orbits as any other, and `_op23_codes` is applied to the
    representatives alone.  There a pair of equal columns may come in
    either order, so Op3 runs in both directions: row l added to row m < l
    keeps the form, and row m added to row l is read after a relabelling,
    the l - m adjacent swaps that move l down to m, composed into one bit
    permutation with its own tables.  Those swaps are legal because equal
    columns give l and m the same predecessors, all below m.

    Both phases are breadth-first searches (`_swap_orbits` with the swaps
    inline, `_components` over `_op23_codes`), each filling its own table:
    `ids` holds the orbit of each code, and `orbit_class` the class of each
    orbit.  Then one pass in code order turns `ids` into the class-id
    table and groups the member codes per class.  The
    least code of a class is the representative of its least orbit, and
    phase 2 meets the orbits in that order, so classes are numbered by
    their least codes: the first member of each class is its canonical,
    and the classes come out in canonical order.  Each class keeps its
    members as codes (`ClassMembers`).

    The fingerprint of a class is read off its canonical by
    `_fingerprint_raw`.  Orbit invariance is checked for every member at
    once, with no member decoded: `_fingerprint_blocks` evaluates the same
    invariants bit-sliced over all codes, and its byte for each code must
    equal the byte of the code's class in the class-id table.  The
    canonicals are compared too, so the scalar and the sliced route check
    each other on every class.  A mismatch raises InvariantViolation
    naming the class canonical and the matrix of the first code that
    differs, in `{"n", "rows"}` form.  A code or orbit reached from two
    seeds raises in `_swap_orbits` or `_components`, at the edge that leads
    into the other orbit or class.  The class sizes need no check: the
    members are grouped from every entry of the code table, each into
    exactly one class, so they sum to 2^(n(n-1)/2) whatever the walk
    labelled.
    """
    if n < 1:
        raise UsageError(f"dimension must be >= 1, got {n}")
    if n > CLASSIFY_BOUND:
        raise BoundExceeded(f"diffeo_classes(n={n}) exceeds the configured bound {CLASSIFY_BOUND}")
    # the Op1 orbit of each code, then its class
    ids = array("i", [-1]) * (1 << (n * (n - 1) // 2))
    reps = _swap_orbits(n, ids)
    orbit_class = array("i", [-1]) * len(reps)
    count = len(_components(orbit_class, lambda o: [ids[c] for c in _op23_codes(n, reps[o])],
                            lambda o: _decode(n, reps[o])))
    del reps
    member_codes = [array("I") for _ in range(count)]
    for code, orbit in enumerate(ids):
        cid = ids[code] = orbit_class[orbit]
        member_codes[cid].append(code)
    del orbit_class
    classes: list[DiffeoClass] = []
    fps = bytearray()  # the `_fingerprint_byte` of each class
    for cid, codes in enumerate(member_codes):
        seed = _decode(n, codes[0])
        rk, odd, w2 = _fingerprint_raw(seed, transpose_masks(n, seed))
        fps.append(_fingerprint_byte(rk, odd, w2))
        fingerprint = ClassFingerprint(orientable=not odd, holonomy_rank=rk,
                                       ghw=n >= 2 and rk == n - 1, w2_zero=not w2)
        members = ClassMembers(n, codes, ids, cid)
        classes.append(DiffeoClass(BottMatrix(n, seed), members, fingerprint))
    by_class, view = fps.__getitem__, memoryview(ids)
    for start, sliced in _fingerprint_blocks(n):
        expected = bytes(map(by_class, view[start:start + len(sliced)]))
        if sliced != expected:
            code = start + next(i for i, (x, y) in enumerate(zip(sliced, expected)) if x != y)
            raise InvariantViolation(f"fingerprint not constant on orbit of "
                                     f"{named(n, classes[ids[code]].canonical.rows)}: "
                                     f"{named(n, _decode(n, code))}")
    table = _ClassTable(classes)
    table.class_ids = ids
    return table


def diffeo_class_of(m: BottMatrix) -> DiffeoClass:
    """The class of one matrix: one read of the class-id table at the
    `_code` of its strictly upper relabelling.

    The code is read straight from the edges, with no relabelled rows
    built: with perm the relabelling m's validation kept (`_perm`, the
    identity when m is strictly upper), edge i -> j is entry
    a[perm i][perm j] of the relabelled matrix, bit off_{perm i} + n-1-perm j
    of its code (the offsets of `_move_masks`).  An edge with
    perm j <= perm i would not be strictly upper and raises
    InvariantViolation, as `to_strict_upper` does, since its bit would
    land in another row's field and name the wrong class."""
    n, rows = m.n, m.rows
    classes = diffeo_classes(n)
    fields = _move_masks(n)[1]
    perm = range(n) if m._perm is None else m._perm
    code = 0
    for i, r in enumerate(rows):
        pi = perm[i]
        top = fields[pi][0] + n - 1
        while r:
            low = r & -r
            pj = perm[low.bit_length() - 1]
            if pj <= pi:
                raise InvariantViolation(
                    f"topological relabelling of {named(n, rows)} is not strictly upper")
            code |= 1 << (top - pj)
            r ^= low
    cid = classes.class_ids[code]
    if cid == -1:
        raise InvariantViolation(f"classification did not cover {named(n, rows)}")
    return classes[cid]


def count_ghw_rbm_classes(n: int) -> int:
    """Number of diffeo classes with rank n - 1 (expected 2^((n-2)(n-3)/2))."""
    return sum(1 for c in diffeo_classes(n) if c.fingerprint.ghw)
