"""Seminormal matrix models: exact matrices for every strict partition.

One block per standard tableau, each a module of a real Clifford algebra; the
YJM element pi_i acts on the block of T as sqrt(a_i(T)) times an odd
generator, and tau_i couples a tableau to its neighbor on split pairs.  All
defining relations are verified exactly, and the joint spectrum reproduces
the tableau a-vectors.
"""

from superspin import seminormal as sn
from superspin.shiftedcomb import StrictPartition

shape = StrictPartition((3, 1))
rep = sn.build_rep_plain(shape)
print(f"plain model for {shape}: dim {rep.dim} "
      f"({len(rep.tableaux)} tableau blocks x Clifford dim {rep.block_dim})")
print("build report:", rep.build_report)

report = sn.verify_relations(rep)
print(f"relations checked: {len(report)}, failures:",
      sum(1 for r in report if r["status"] == "fail"))
print("joint YJM-square spectrum:", sn.spectrum_of(rep))

print("\nlocal pair analysis at position 3 (the split position):")
for an in sn.analyze_local_pair(rep, 3):
    print(f"  block {an.block}: pair={an.pair} delta={an.delta} case={an.case} "
          f"partner={an.partner_block}")

print("\nextracted irreducible and its classification:")
irr, cls = sn.first_summand(rep)
print("  dim:", irr.dim, cls)
print("  (complex type: over the real field the minimal model is the fused")
print("   antipodal pair, recognized by supercommutant dimensions (2, 2))")

print("\nrestriction one level down:")
for entry in sn.restrict_and_branch(rep):
    print(f"  {entry['shape']}: type {entry['type']} multiplicity {entry['multiplicity']}")

print("\nClifford-extended model and intertwiners:")
trep = sn.build_rep_clifford_tensor(shape)
P3 = sn.intertwiner_p(3, trep)  # a dense matrix; pi_k is factored until expanded
pi = {k: trep.pi(k).expand() for k in range(1, 5)}
ok = all(
    (P3 * pi[i] - pi[si] * P3).is_zero()
    for i, si in [(1, 1), (2, 2), (3, 4), (4, 3)]
)
print(f"  tensor model dim {trep.dim}; intertwiner swaps pi_3 and pi_4:", ok)
