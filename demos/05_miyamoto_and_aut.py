"""Miyamoto groups over GF(2^k) and the quadrilateral's automorphisms.

The quadrilateral's fusion law has an empty 1*1 cell, so each of its four
line decompositions admits a one-parameter family of automorphisms: identity
on the 0-part, multiplication by a unit lambda on the 1-part.  In the frozen
basis (a, b, l, lx, ly, s) these maps are block matrices S(alpha, beta,
lambda) composing like the affine group of the plane, and over GF(2^k) they
close into a group of order 2^(2k) (2^k - 1).
"""

import itertools

from matsuo2 import fischer, matsuo, miyamoto
from matsuo2.gf import Field

GF4 = Field(2)
alg = matsuo.build(fischer.catalog("cq"))

print("Miyamoto maps of the four lines over GF(4), as S(alpha, beta, lambda):")
# cq_miyamoto_maps lists every map in (line, lambda) order; lambda = 1 is the identity
pairs = itertools.product(miyamoto.CQ_LINE_ORDER, GF4.nonzero())
for (line, lam), m in zip(pairs, miyamoto.cq_miyamoto_maps(alg, GF4)):
    if lam != 1:
        a, b, l = miyamoto.parse_s_matrix(m)
        print(f"  line {line}, lambda={GF4.pretty(lam):3s} -> "
              f"S({GF4.pretty(a)}, {GF4.pretty(b)}, {GF4.pretty(l)})")

print("\nthe composition law S(a,b,l) S(c,d,m) = S(a+lc, b+ld, lm):")
p = miyamoto.s_compose(GF4, (1, 0, 2), (0, 1, 2))
print("  S(1,0,w) S(0,1,w) = S(%s, %s, %s)" % tuple(GF4.pretty(x) for x in p))

print("\nclosure orders (= 2^(2k) (2^k - 1)):")
for k in (2, 3):
    rep = miyamoto.verify_cq_miyamoto(k)
    print(f"  GF(2^{k}): order {rep.group_order}, all S-matrices: "
          f"{rep.all_s_matrices}, restriction to the quotient bijective: "
          f"{rep.restriction_injective and rep.restriction_onto_reduced}")

print("\nautomorphism groups over GF(2):")
rep = miyamoto.aut_count_full()
red = rep.reduced_group
print(f"  |Aut| of the 5-dim quotient: {red.size()} "
      f"(unconstrained sweep agrees: "
      f"{miyamoto.aut_reduced_unconstrained() == red.elements})")
print(f"  |Aut| of the 6-dim algebra:  {rep.order} "
      f"(block decomposition exact: {rep.sets_agree}, "
      f"quadratic action identity: {rep.quadratic_identity})")
