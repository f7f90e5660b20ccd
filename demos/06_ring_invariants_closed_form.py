"""Ring invariants in closed form, checked against ranks on every matrix.

`ring_invariants` reads the pruning key of the ring isomorphism search
from the columns of the matrix: no annihilator of a nonzero degree-1 class
has dimension above 1, and which ones have dimension 1 is decided for all
2^n classes at once.  This script recomputes the key the long way, with
one GF(2) rank per annihilator over the closed-form degree-2 products
(`cohomology.degree2`), on every
strictly upper n x n matrix (32,768 at n = 6), and prints how many it
checked, how many distinct keys it met, and the wall time of each route.

    python3 demos/06_ring_invariants_closed_form.py --dim 6
"""
import argparse
import sys
import time

from bottclass.bottmatrix import enumerate_strict_upper
from bottclass.cohomology import degree2
from bottclass.gf2 import rank_masks, subset_sums, transpose_masks
from bottclass.rigidity import ring_invariants


def ranked_invariants(m):
    """The square kernel and every annihilator dim{v : v w = 0}, each the
    kernel of a map linear in v, ranked from the products x_a w: rows[a][w]
    is the XOR of the products x_a x_b over the b in w."""
    n = m.n
    cols = transpose_masks(n, m.rows)
    rows = [subset_sums([degree2(cols, 1 << a, 1 << b) for b in range(n)]) for a in range(n)]
    sq_ker_dim = n - rank_masks([row[1 << a] for a, row in enumerate(rows)])
    ann_dims = sorted(n - rank_masks([row[w] for row in rows]) for w in range(1, 1 << n))
    return (sq_ker_dim, tuple(ann_dims))


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--dim", type=int, default=6)
args = parser.parse_args()

mats = list(enumerate_strict_upper(args.dim))
start = time.perf_counter()
closed = [ring_invariants(m) for m in mats]
closed_s = time.perf_counter() - start
start = time.perf_counter()
ranked = [ranked_invariants(m) for m in mats]
ranked_s = time.perf_counter() - start

mismatches = [m.rows for m, a, b in zip(mats, closed, ranked) if a != b]
print(f"n = {args.dim}: {len(mats)} strictly upper matrices checked, "
      f"{len(set(closed))} distinct keys, {len(mismatches)} mismatches "
      f"(closed form {closed_s:.2f} s, ranks {ranked_s:.2f} s)")
for rows in mismatches[:10]:
    print(f"  mismatch on rows {rows}")
sys.exit(1 if mismatches else 0)
