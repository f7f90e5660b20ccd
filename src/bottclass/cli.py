"""Command-line front end with machine-readable (JSON) reports.

Commands: enumerate, classify, table, invariants, spin, prop1, rigidity.
Streams are JSON-lines; everything else is a single JSON document of the
form {"command", "inputs", "results", "version"}.  Exit codes: 0 ok,
2 usage or parse error (`gf2.UsageError`, a bad matrix, an unreadable
file), 3 internal invariant violation.  Any other exception is a bug and
propagates.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from math import comb
from operator import xor
from typing import Optional, Sequence

from . import __version__, bieberbach, cohomology, rigidity, spin
from .bottmatrix import (
    CLASSIFY_BOUND,
    BottMatrix,
    MatrixParseError,
    NotBottMatrix,
    count_ghw_rbm_classes,
    diffeo_classes,
    enumerate_strict_upper,
    is_ghw_rbm,
    is_orientable,
    named,
    parse_matrix,
    to_json_dict,
    to_strict_upper,
)
from .gf2 import BoundExceeded, InvariantViolation, UsageError, bits, rank_masks, transpose_masks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3

# `invariants` and `spin` read every field from the rows, with no object of
# 2^n size; this is the input range they are tested on, n = 64 included.
REPORT_BOUND = 64


def _report(command: str, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _load_matrix(path: str) -> BottMatrix:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_matrix(text)


def cmd_enumerate(dim: int, orientable: bool, ghw: bool) -> int:
    count = 0
    for m in enumerate_strict_upper(dim):
        if orientable and not is_orientable(m):
            continue
        if ghw and not is_ghw_rbm(m):
            continue
        _emit(to_json_dict(m))
        count += 1
    _emit(_report("enumerate", {"dim": dim, "orientable": orientable, "ghw": ghw},
                  {"count": count}))
    return EXIT_OK


def cmd_classify(dim: int) -> int:
    classes = diffeo_classes(dim)
    for cls in classes:
        fp = cls.fingerprint
        _emit(
            {
                "canonical": to_json_dict(cls.canonical),
                "size": cls.size,
                "orientable": fp.orientable,
                "holonomy_rank": fp.holonomy_rank,
                "ghw": fp.ghw,
                "w2_zero": fp.w2_zero,
            }
        )
    summary = {
        "classes": len(classes),
        "oriented_classes": sum(1 for c in classes if c.fingerprint.orientable),
        "ghw_classes": sum(1 for c in classes if c.fingerprint.ghw),
    }
    _emit(_report("classify", {"dim": dim}, summary))
    return EXIT_OK


def _table_rows(max_dim: int) -> list[dict]:
    if max_dim < 1:
        raise UsageError(f"max dimension must be >= 1, got {max_dim}")
    if max_dim > CLASSIFY_BOUND:  # refused before any dimension is classified
        raise BoundExceeded(f"max dimension {max_dim} exceeds the configured bound {CLASSIFY_BOUND}")
    rows = []
    for n in range(1, max_dim + 1):
        classes = diffeo_classes(n)
        rows.append(
            {
                "dim": n,
                "rbm_classes": len(classes),
                "oriented_classes": sum(1 for c in classes if c.fingerprint.orientable),
                "ghw_rbm_classes": count_ghw_rbm_classes(n),
                "ghw_rbm_formula": 1 << ((n - 2) * (n - 3) // 2) if n >= 2 else None,
            }
        )
    return rows


def cmd_table(max_dim: int, csv: bool) -> int:
    rows = _table_rows(max_dim)
    if csv:
        sys.stdout.write("dim,rbm_classes,oriented_classes,ghw_rbm_classes,ghw_rbm_formula\n")
        for r in rows:
            formula = "" if r["ghw_rbm_formula"] is None else r["ghw_rbm_formula"]
            sys.stdout.write(
                f"{r['dim']},{r['rbm_classes']},{r['oriented_classes']},"
                f"{r['ghw_rbm_classes']},{formula}\n"
            )
    else:
        _emit(_report("table", {"max_dim": max_dim}, {"rows": rows}))
    return EXIT_OK


def _matrix_context(m: BottMatrix) -> tuple[dict, BottMatrix]:
    """The report's opening fields and the one strictly upper form of m
    that every later field is read from."""
    if m.n > REPORT_BOUND:
        raise BoundExceeded(f"report at n={m.n} exceeds the configured bound {REPORT_BOUND}")
    perm, strict = to_strict_upper(m)
    info: dict = {"matrix": to_json_dict(m)}
    if perm != tuple(range(m.n)):
        info["normalization"] = {"permutation": [p + 1 for p in perm], "matrix": to_json_dict(strict)}
    return info, strict


def _w1_w2(strict: BottMatrix) -> tuple[str, frozenset[int]]:
    """w1, printed, and the monomials of w2, from the rows of a strictly upper
    matrix: w1 is the XOR of the columns, as `CohomRing.stiefel_whitney(1)`."""
    w1 = reduce(xor, transpose_masks(strict.n, strict.rows), 0)
    return cohomology.format_terms(1 << i for i in bits(w1)), cohomology.w2_of_rows(strict.n, strict.rows)


def cmd_invariants(path: str) -> int:
    m = _load_matrix(path)
    results, strict = _matrix_context(m)
    w1, w2 = _w1_w2(strict)
    results.update(orientable=is_orientable(m), rank=rank_masks(m.rows), ghw=is_ghw_rbm(m),
                   w1=w1, w2=cohomology.format_terms(w2), h2_real_zero=cohomology.h2_real_is_zero(m),
                   # the square-free monomials are a basis (`CohomRing.__init__`)
                   betti=[comb(m.n, k) for k in range(m.n + 1)])
    _emit(_report("invariants", {"matrix_file": path}, results))
    return EXIT_OK


def _witness_dict(w: spin.ObstructionWitness) -> dict:
    return {"kind": w.kind, "i": w.i + 1, "j": w.j + 1, "data": list(w.data)}


def cmd_spin(path: str) -> int:
    m = _load_matrix(path)
    results, strict = _matrix_context(m)
    results["orientable"] = oriented = is_orientable(m)
    results["w1"], w2 = _w1_w2(strict)
    results["w2"] = cohomology.format_terms(w2)
    if oriented:
        found = (spin.odd_overlap_witness(m), spin.disjoint_rows_witness(m))
        results["spin"] = not w2
        results["spinc_obstructed"] = spin.spinc_obstructed(m)
        results["witnesses"] = [_witness_dict(w) for w in found if w is not None]
        # the strictly upper form w2 was read from: no second relabelling
        results["lift_found"] = spin.spin_lift_search(strict) is not None
        if results["lift_found"] != results["spin"]:
            raise InvariantViolation(
                f"spin from w2 is {results['spin']} but lift_found is {results['lift_found']} "
                f"for {named(m.n, m.rows)}")
    else:
        results["spin"] = None
        results["spinc_obstructed"] = None
        results["witnesses"] = []
    _emit(_report("spin", {"matrix_file": path}, results))
    return EXIT_OK


def cmd_prop1(dim: int) -> int:
    checks = bieberbach.tower_conjugation_report(dim)
    results = {"dim": dim, "ok": all(c["ok"] for c in checks), "checks": checks}
    _emit(_report("prop1", {"dim": dim}, results))
    return EXIT_OK


def cmd_rigidity(dim: int) -> int:
    results = rigidity.rigidity_experiment(dim)
    _emit(_report("rigidity", {"dim": dim}, results))
    return EXIT_OK if not results["violations"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottclass",
        description="Classify real Bott manifolds and decide their Spin/Spin^C structures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream strictly upper Bott matrices")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--orientable", action="store_true", help="only even-weight rows")
    p.add_argument("--ghw", action="store_true", help="only rank n-1 matrices")
    p.set_defaults(run=lambda args: cmd_enumerate(args.dim, args.orientable, args.ghw))

    p = sub.add_parser("classify", help="diffeomorphism classes for one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(run=lambda args: cmd_classify(args.dim))

    p = sub.add_parser("table", help="class counts per dimension")
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(run=lambda args: cmd_table(args.max_dim, args.csv))

    p = sub.add_parser("invariants", help="orientability, rank, GHW flag, w1, w2")
    p.add_argument("--matrix", required=True, help="matrix file (text or JSON), '-' for stdin")
    p.set_defaults(run=lambda args: cmd_invariants(args.matrix))

    p = sub.add_parser("spin", help="Spin/Spin^C report with obstruction witnesses")
    p.add_argument("--matrix", required=True)
    p.set_defaults(run=lambda args: cmd_spin(args.matrix))

    p = sub.add_parser("prop1", help="verify the Gamma_n / Gamma(A) conjugation")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(run=lambda args: cmd_prop1(args.dim))

    p = sub.add_parser("rigidity", help="ring-isomorphism vs diffeomorphism partition")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(run=lambda args: cmd_rigidity(args.dim))
    return parser


_PARSER = build_parser()  # built once: building takes most of a small report's time


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (MatrixParseError, NotBottMatrix, BoundExceeded, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
