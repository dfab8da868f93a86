"""The branching graph and the path-count reconstruction of the algebra.

Vertices are strict partitions per level, M-type labels as antipodal vertex
pairs swapped by the involution, Q-type labels as fixed vertices.  Counting
paths from the two bottom vertices reconstructs every block of the top
algebra; the same graph recomputed from actual restrictions of the built
models must agree.
"""

import math

from superspin import seminormal as sn
from superspin import shiftedcomb as sc

n = 5
g = sc.schur_branching_graph(n)
g.validate()
print(f"combinatorial graph up to level {n}:")
for level, ids in enumerate(g.levels, start=1):
    labels = [f"{g.vertices[v].partition}[{g.vertices[v].vtype}{g.vertices[v].copy}]" for v in ids]
    print(f"  level {level}: {' '.join(labels)}")

print("\npath counts reconstruct the blocks:")
for b in sc.algebra_from_graph(g):
    print(f"  {b['partition']}: {b['type']} params={b['params']} dim={b['dimension']}")
print("  total:", sum(b["dimension"] for b in sc.algebra_from_graph(g)), f"= {n}! =", math.factorial(n))

g2 = sn.branching_graph_from_reps(4)
print("\nfrom_reps graph at n=4 agrees with the combinatorial one:")
ref = sc.schur_branching_graph(4)
print("  same vertices:", set(ref.vertices) == set(g2.vertices))
print("  same edges:   ", ref.edges == g2.edges)

print("\npath equivalence classes per top vertex (n=4):")
per_top = {}
for cl in sc.path_equivalence_classes(ref):
    per_top[cl[0][-1]] = per_top.get(cl[0][-1], 0) + 1
for vid, count in sorted(per_top.items()):
    shape = ref.vertices[vid].partition
    print(f"  {vid}: {count} classes = #tableaux of {shape}")

print("\nDOT output (first lines):")
print("\n".join(ref.to_dot().splitlines()[:8]))
