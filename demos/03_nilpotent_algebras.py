"""Nilpotent Matsuo algebras: structure constants over GF(2).

Collinear points multiply to the sum of their line's three points; everything
else vanishes.  In characteristic 2 every element squares to zero, the sum of
all points annihilates the algebra, and products with line nilpotents follow
purely combinatorial rules that this script checks against the structure
constants.
"""

from matsuo2 import fischer, matsuo
from matsuo2.gf import vec_support

cq = fischer.catalog("cq")
alg = matsuo.build(cq)

print("dim A =", alg.dim, "over", cq)
a, b = 1 << 0, 1 << 1
print("a*b has support", [cq.labels[i] for i in vec_support(matsuo.multiply(alg, a, b))])

# Line nilpotents: the axes of everything that follows.
ell = matsuo.line_nilpotent(alg, (0, 1, 2))
print("line nilpotent of {a,b,c}:", [cq.labels[i] for i in vec_support(ell)])
print("its square:", matsuo.multiply(alg, ell, ell))

# Products with line nilpotents are predictable from the geometry alone:
x = 3
predicted = matsuo.predict_point_row(cq, (0, 1, 2))[x]
computed = matsuo.multiply(alg, 1 << x, ell)
print("x * line: predicted == computed:", predicted == computed)

# ... and the same for pairs of lines, across a whole space:
ag = fischer.catalog("ag23")
aag = matsuo.build(ag)
nils = [matsuo.line_nilpotent(aag, t) for t in ag.lines]
agree = all(
    want == matsuo.multiply(aag, n1, n2)
    for t1, n1 in zip(ag.lines, nils)
    for want, n2 in zip(matsuo.predict_line_row(ag, t1, matsuo.predict_point_row(ag, t1)), nils)
)
print("all line*line products of ag23 match the prediction:", agree)

# The annihilator is one-dimensional, spanned by the sum of all points.
ann = matsuo.annihilator(alg)
print("\nannihilator basis:", [vec_support(v) for v in ann])

# Quotienting it away gives the reduced algebra, one dimension down.
red = matsuo.reduce(alg)
print("reduced dimension:", red.dim)
print("reduced annihilator:", matsuo.annihilator(red))

# Left multiplication by a point is 2-step nilpotent; by a line nilpotent it
# is idempotent precisely when no affine plane interferes.
ad_pt = matsuo.ad_matrix(alg, 1 << 0)
print("\nad(point)^2 vanishes:", (ad_pt * ad_pt).is_zero())
ad_l = matsuo.ad_matrix(alg, ell)
print("quadrilateral: ad(line)^2 == ad(line):", ad_l * ad_l == ad_l)
ad_m = matsuo.ad_matrix(aag, matsuo.line_nilpotent(aag, ag.lines[0]))
print("affine plane:  ad(line)^2 == ad(line):", ad_m * ad_m == ad_m)
