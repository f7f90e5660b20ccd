"""The three benchmark workloads: inputs made from a seed, the timed
operations, and the independent check of each operation's output.

A workload's `setup(rng)` returns the operations of one round.  Every
round runs the same operations, after the package's memo caches are
cleared, so each round costs what one process pays for that work.  A
check returns None when the output is right, or a message.  Messages that
start with KNOWN_FAULT describe the detector fault kept on purpose in
`census` (see README.md); any other message marks the run incorrect.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import reference as ref

KNOWN_FAULT = "detector fault"

# Paper: diffeomorphism classes and oriented classes of real Bott manifolds.
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 54, 6: 472}
ORIENTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 8, 6: 29}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def lists(n: int, rows) -> ref.Matrix:
    return [[(r >> j) & 1 for j in range(n)] for r in rows]


def parse(*rows: str) -> ref.Matrix:
    return [[int(c) for c in row] for row in rows]


def random_strict_upper(rng: random.Random, n: int) -> ref.Matrix:
    return [[int(j > i and rng.random() < 0.5) for j in range(n)] for i in range(n)]


def random_oriented(rng: random.Random, n: int) -> ref.Matrix:
    while True:
        a = random_strict_upper(rng, n)
        if ref.all_rows_even(a):
            return a


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def fingerprint(a: ref.Matrix) -> tuple:
    """(orientable, holonomy rank, rank n-1 flag, w2 = 0), all diffeomorphism
    invariants, from the reference code."""
    rank = ref.gf2_rank(a)
    n = len(a)
    return (ref.all_rows_even(a), rank, n >= 2 and rank == n - 1, not ref.w2(a))


def poly_pairs(terms) -> set[frozenset]:
    """Program degree-2 terms (int masks over variables) as reference monomials."""
    return {frozenset(i for i in range(t.bit_length()) if (t >> i) & 1) for t in terms}


class Workload:
    def __init__(self, pkg) -> None:
        self.pkg = pkg  # the imported package modules, by short name

    def setup(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def matrix(self, a: ref.Matrix):
        return self.pkg["bottmatrix"].BottMatrix.from_rows(a)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

LOOKUPS = 2000


class Classify(Workload):
    """`table --max-dim 6` and `classify --dim 6` through the CLI, then
    seeded `diffeo_class_of` lookups on matrices moved by reference moves."""

    def setup(self, rng: random.Random) -> list[Op]:
        ops = [Op("table", lambda: self.cli(["table", "--max-dim", "6"]), self.check_table),
               Op("classify", lambda: self.cli(["classify", "--dim", "6"]), self.check_classify)]
        for _ in range(LOOKUPS):
            start = random_strict_upper(rng, 6)
            moved = start
            for _ in range(rng.randint(1, 6)):
                pairs = ref.equal_column_pairs(moved)
                move = rng.randrange(3 if pairs else 2)
                if move == 0:
                    moved = ref.op1(moved, random_perm(rng, 6))
                elif move == 1:
                    moved = ref.op2(moved, rng.randrange(6))
                else:
                    moved = ref.op3(moved, *rng.choice(pairs))
            m = self.matrix(moved)
            ops.append(Op("lookup", lambda m=m: self.pkg["bottmatrix"].diffeo_class_of(m),
                          self.lookup_check(self.matrix(start), moved)))
        return ops

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.pkg["cli"].main(argv)
        return code, out.getvalue()

    def check_table(self, out) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"table exited {code}"
        rows = json.loads(text)["results"]["rows"]
        for n, row in zip(range(1, 7), rows):
            got = (row["dim"], row["rbm_classes"], row["oriented_classes"])
            if got != (n, CLASS_COUNTS[n], ORIENTED_COUNTS[n]):
                return f"table row {got} != paper counts for n={n}"
            if n >= 3 and row["ghw_rbm_classes"] != 2 ** ((n - 2) * (n - 3) // 2):
                return f"rank n-1 count {row['ghw_rbm_classes']} != 2^((n-2)(n-3)/2) at n={n}"
        return None if len(rows) == 6 else f"table has {len(rows)} rows"

    def check_classify(self, out) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"classify exited {code}"
        *lines, summary = [json.loads(line) for line in text.splitlines()]
        s = summary["results"]
        if (s["classes"], s["oriented_classes"], len(lines)) != (472, 29, 472):
            return f"classify summary {s}"
        if sum(c["size"] for c in lines) != 2 ** 15:
            return "class sizes do not sum to 2^(n(n-1)/2)"
        for c in lines:
            a = parse(*c["canonical"]["rows"])
            got = (c["orientable"], c["holonomy_rank"], c["ghw"], c["w2_zero"])
            if got != fingerprint(a):
                return f"fingerprint {got} != reference {fingerprint(a)} for {c['canonical']}"
        # Members come from the program's partition; what is checked of
        # them is the lexicographic minimum and, in the lookups, that
        # reference moves never leave a class.
        for cls in self.pkg["memo"]["diffeo_classes"](6):
            least = min(ref.lex_key(lists(6, m.rows)) for m in cls.members)
            if least != ref.lex_key(lists(6, cls.canonical.rows)):
                return f"canonical {cls.canonical.rows} is not the lexicographic minimum"
        return None

    @staticmethod
    def lookup_check(start, moved: ref.Matrix):
        expected_fp = fingerprint(moved)

        def check(cls) -> Optional[str]:
            if start not in cls.members:
                return f"{moved} looked up {cls.canonical.rows}, not the class of {start.rows}"
            fp = cls.fingerprint
            got_fp = (fp.orientable, fp.holonomy_rank, fp.ghw, fp.w2_zero)
            if got_fp != expected_fp:
                return f"class fingerprint {got_fp} != reference {expected_fp} of {moved}"
            return None

        return check


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

# Oriented Spin manifolds, given in permuted form, on which the Part I
# detector reads a[i][j] = 0 for a pair with a[j][i] = 1 and fires.
DETECTOR_FAULT_INPUTS = (
    parse("000101", "000000", "000101", "010001", "000101", "000000"),
    parse("0000000", "0000000", "0100010", "1010011", "0000000", "0000000", "0100010"),
)
STRICT_6 = 80
PERMUTED_6 = 80
PERMUTED_7 = 24
PERMUTED_8 = 12
STAR_BASE = ("0011110", "0000011", "000****", "0000***", "00000**", "0000000", "0000000")


def star_family() -> list[ref.Matrix]:
    """All 2^9 members of the n = 7 star family, starred entries set from the
    bits of a counter in row-major order."""
    stars = [(i, j) for i, row in enumerate(STAR_BASE) for j, c in enumerate(row) if c == "*"]
    out = []
    for bits in range(1 << len(stars)):
        a = [[int(c) if c != "*" else 0 for c in row] for row in STAR_BASE]
        for k, (i, j) in enumerate(stars):
            a[i][j] = (bits >> k) & 1
        out.append(a)
    return out


def label_order_part_i(a: ref.Matrix) -> bool:
    """Is there a pair i < j with a[i][j] = 0 and an odd row overlap?  On a
    Spin manifold in permuted form this is the detector fault."""
    n = len(a)
    return any(a[i][j] == 0 and sum(x & y for x, y in zip(a[i], a[j])) % 2
               for i in range(n) for j in range(i + 1, n))


class Census(Workload):
    """The full invariants + spin report, one matrix per operation, and the
    Prop. 1 conjugation check for n = 2..8 once per round."""

    def setup(self, rng: random.Random) -> list[Op]:
        inputs = [random_oriented(rng, 6) for _ in range(STRICT_6)]
        for n, count in ((6, PERMUTED_6), (7, PERMUTED_7), (8, PERMUTED_8)):
            for _ in range(count):
                inputs.append(self.permuted(rng, random_oriented(rng, n)))
        inputs += [a for a in star_family() if ref.all_rows_even(a)]
        inputs += [ref.copy(a) for a in DETECTOR_FAULT_INPUTS]
        ops = [Op("report", lambda m=self.matrix(a): self.report(m),
                  lambda rep, a=a: self.check(a, rep))
               for a in inputs]
        bieb = self.pkg["bieberbach"]
        ops += [Op("prop1", lambda n=n: bieb.verify_tower_conjugation(n),
                   lambda ok, n=n: None if ok is True else f"Prop. 1 fails at n={n}")
                for n in range(2, 9)]
        return ops

    @staticmethod
    def permuted(rng: random.Random, a: ref.Matrix) -> ref.Matrix:
        # Inputs on which the detector fault would show depend on the seed,
        # so they are drawn again; the fault is measured on the fixed
        # DETECTOR_FAULT_INPUTS instead, the same share in every run.
        spin = not ref.w2(a)
        while True:
            b = ref.op1(a, random_perm(rng, len(a)))
            if not (spin and label_order_part_i(b)):
                return b

    def report(self, m) -> dict:
        coh, spin, bieb = self.pkg["cohomology"], self.pkg["spin"], self.pkg["bieberbach"]
        ring = coh.ring_of(m)
        witnesses = [w for w in (spin.odd_overlap_witness(m), spin.disjoint_rows_witness(m))
                     if w is not None]
        pres = bieb.generators_of(ring.matrix)
        return {
            "permutation": ring.permutation,
            "normalized": ring.matrix.rows,
            "rank": self.pkg["gf2"].rank_masks(m.rows),
            "w1": ring.stiefel_whitney(1).terms,
            "w2": ring.stiefel_whitney(2).terms,
            "betti": [ring.betti_z2(k) for k in range(m.n + 1)],
            "h2_real_zero": coh.h2_real_is_zero(m),
            "witnesses": [(w.kind, w.i, w.j, w.verify(m)) for w in witnesses],
            "spin": spin.has_spin(m),
            "spinc_obstructed": spin.spinc_obstructed(m),
            "lift_found": spin.spin_lift_search(m) is not None,
            "torsion_free": bieb.is_torsion_free(pres),
            "holonomy": bieb.holonomy_rep(pres),
        }

    @staticmethod
    def check(a: ref.Matrix, rep: dict) -> Optional[str]:
        n = len(a)
        normal = lists(n, rep["normalized"])
        if ref.op1(a, rep["permutation"]) != normal or not ref.is_strictly_upper(normal):
            return "normalized matrix is not the reported strictly upper conjugate"
        w2 = ref.w2(normal)
        if poly_pairs(rep["w2"]) != w2:
            return f"w2 {sorted(map(sorted, poly_pairs(rep['w2'])))} != reference"
        if (not rep["w1"]) != ref.all_rows_even(a):
            return "w1 = 0 disagrees with the row parities"
        rank = ref.gf2_rank(a)
        if rep["rank"] != rank:
            return f"rank {rep['rank']} != {rank}"
        if rep["betti"] != [comb(n, k) for k in range(n + 1)]:
            return f"Betti numbers {rep['betti']} != C(n,k)"
        distinct = len({tuple(ref.column(a, j)) for j in range(n)}) == n
        if rep["h2_real_zero"] != distinct:
            return "H^2(M;R) = 0 disagrees with distinct columns"
        if rep["spin"] != (not w2) or rep["lift_found"] != rep["spin"]:
            return f"spin {rep['spin']}, lift {rep['lift_found']}, reference w2 = 0 is {not w2}"
        for kind, i, j, verified in rep["witnesses"]:
            if not verified:
                return f"{kind} witness ({i},{j}) does not verify"
            if not w2:
                if a[j][i]:
                    return f"{KNOWN_FAULT}: {kind} witness ({i + 1},{j + 1}) on a Spin manifold"
                return f"{kind} witness ({i + 1},{j + 1}) on a Spin manifold"
        if rep["spinc_obstructed"] and (not w2 or not distinct):
            return "Spin^C obstruction claimed with w2 = 0 or H^2(M;R) != 0"
        if rep["torsion_free"] is not True:
            return "Gamma(A) is not torsion-free"
        hol = rep["holonomy"]
        if len(hol) != 2 ** rank or len(set(hol)) != len(hol) or hol[0] != (1,) * n:
            return f"holonomy has {len(hol)} distinct elements, expected 2^{rank}"
        return None


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

SAME_CLASS = 200
SAME_BUCKET = 200
CROSS_BUCKET = 80
# The slowest same-class pair known: a member against its canonical.
WORST_PAIR = (("011111", "000000", "000001", "000001", "000000", "000000"),
              ("010111", "001000", "000000", "000000", "000000", "000000"))


def allocate(total: int, weights: list[int]) -> list[int]:
    """Split `total` draws over strata in proportion to their weights
    (largest remainder), so the mix does not depend on the seed."""
    exact = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda k: counts[k] - exact[k])
    for k in by_remainder[:total - sum(counts)]:
        counts[k] += 1
    return counts


def nearby_member(rng: random.Random, a: ref.Matrix) -> ref.Matrix:
    """A strictly upper matrix reached from `a` by one to four Op2 / Op3
    moves that keep strict upper form, hence in the class of `a`.

    Members related to the canonical by a relabelling (Op1) are left to the
    fixed WORST_PAIR: the search tries GL(6,2) in ascending order, so a
    permutation witness is found late, in seconds to over a minute, and a
    few such pairs drawn by the seed would decide the whole run time.
    """
    for _ in range(rng.randint(1, 4)):
        moves = [(l, m) for l, m in ref.equal_column_pairs(a)
                 if ref.is_strictly_upper(ref.op3(a, l, m))]
        if moves and rng.random() < 0.5:
            a = ref.op3(a, *rng.choice(moves))
        else:
            a = ref.op2(a, rng.randrange(len(a)))
    return a


class Rigidity(Workload):
    """`ring_isomorphic` at n = 6 on seeded pairs, and `rigidity_experiment`
    for n = 1..5.  Set-up classifies n = 6 and buckets the classes by the
    program's `ring_invariants`, which only selects the pairs."""

    def setup(self, rng: random.Random) -> list[Op]:
        classes = self.pkg["bottmatrix"].diffeo_classes(6)
        invariants = self.pkg["rigidity"].ring_invariants
        buckets: dict[tuple, list] = {}
        for cls in classes:
            buckets.setdefault(invariants(cls.canonical), []).append(cls.canonical)
        bucket_of = {c: key for key, group in buckets.items() for c in group}
        canonicals = [cls.canonical for cls in classes]

        pairs = [("worst-pair", self.matrix(parse(*WORST_PAIR[0])),
                  self.matrix(parse(*WORST_PAIR[1])), True)]
        multi = [cls.canonical for cls in classes if cls.size > 1]
        while len(pairs) < 1 + SAME_CLASS:
            canonical = rng.choice(multi)
            member = nearby_member(rng, lists(6, canonical.rows))
            if member != lists(6, canonical.rows):
                pairs.append(("same-class", self.matrix(member), canonical, True))
        groups = list(buckets.values())
        for group, count in zip(groups, allocate(SAME_BUCKET, [comb(len(g), 2) for g in groups])):
            for i, j in rng.sample([(i, j) for j in range(len(group)) for i in range(j)], count):
                x, y = (group[i], group[j]) if rng.random() < 0.5 else (group[j], group[i])
                pairs.append(("same-bucket", x, y, False))
        while len(pairs) < 1 + SAME_CLASS + SAME_BUCKET + CROSS_BUCKET:
            x, y = rng.sample(canonicals, 2)
            if bucket_of[x] != bucket_of[y]:
                pairs.append(("cross-bucket", x, y, False))

        rig = self.pkg["rigidity"]
        ops = [Op(kind, lambda a=a, b=b: rig.ring_isomorphic(a, b),
                  self.pair_check(lists(6, a.rows), lists(6, b.rows), iso))
               for kind, a, b, iso in pairs]
        ops += [Op("experiment", lambda n=n: rig.rigidity_experiment(n),
                   lambda rep, n=n: self.check_experiment(n, rep))
                for n in range(1, 6)]
        return ops

    @staticmethod
    def pair_check(a: ref.Matrix, b: ref.Matrix, iso: bool):
        def check(witness) -> Optional[str]:
            if not iso:
                # cohomological rigidity (Kamishima-Masuda 2009)
                return None if witness is None else f"classes {a} and {b} found isomorphic"
            if witness is None:
                return f"no ring isomorphism between {a} and {b} of one class"
            images = [{k for k in range(6) if (row >> k) & 1} for row in witness.map.rows]
            return None if ref.is_ring_iso(a, b, images) else f"witness {witness} fails"
        return check

    @staticmethod
    def check_experiment(n: int, rep: dict) -> Optional[str]:
        if rep["violations"] or rep["classes"] != CLASS_COUNTS[n]:
            return f"rigidity experiment n={n}: {rep['classes']} classes, {rep['violations']}"
        return None


WORKLOADS = {"classify": Classify, "census": Census, "rigidity": Rigidity}
