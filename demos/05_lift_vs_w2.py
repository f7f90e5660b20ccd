"""Two routes to Spin, compared on every oriented strictly upper matrix.

A real Bott manifold M(A) carries a Spin structure iff w_2 = 0, read from
the cohomology ring, and iff the holonomy of its Bieberbach group lifts
through Spin(n), found by one GF(2) solve and re-checked by Clifford
arithmetic.  This script runs both routes on all oriented strictly upper
n x n matrices (32,768 at n = 7) and prints how many it checked, how many
are Spin, and the wall time.

    python3 demos/05_lift_vs_w2.py --dim 7
"""
import argparse
import itertools
import sys
import time

from bottclass import BottMatrix, ring_of, spin_lift_search


def oriented_strict_upper(n):
    """Every strictly upper n x n matrix whose rows have even weight."""
    choices = []
    for i in range(n):
        above = [1 << j for j in range(i + 1, n)]
        choices.append([sum(bits) for k in range(0, len(above) + 1, 2)
                        for bits in itertools.combinations(above, k)])
    for rows in itertools.product(*choices):
        yield BottMatrix(n, rows)


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--dim", type=int, default=7)
args = parser.parse_args()

start = time.perf_counter()
checked = spin = 0
mismatches = []
for m in oriented_strict_upper(args.dim):
    w2_zero = ring_of(m).stiefel_whitney(2).is_zero()
    if (spin_lift_search(m) is not None) != w2_zero:
        mismatches.append(m.rows)
    checked += 1
    spin += w2_zero
elapsed = time.perf_counter() - start

print(f"n = {args.dim}: {checked} oriented strictly upper matrices checked, "
      f"{spin} Spin, {len(mismatches)} where the lift and w2 disagree "
      f"({elapsed:.1f} s)")
for rows in mismatches[:10]:
    print(f"  disagreement on rows {rows}")
sys.exit(1 if mismatches else 0)
