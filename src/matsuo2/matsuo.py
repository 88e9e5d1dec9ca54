"""Nilpotent Matsuo algebras over GF(2).

The algebra of a Fischer space has the points as basis and multiplication

    x * y = 0            if x = y or x, y not collinear,
    x * y = x + y + x^y  if x, y collinear (x^y the third point on their line).

Every element squares to zero (characteristic 2), products of two distinct
points on a line all equal the sum of the line's three points, and the sum s
of all points annihilates the algebra.  The reduced algebra is the quotient
by <s>; its basis drops the highest-index point, whose image is the sum of
all the others.

Algebra elements are GF(2) coefficient vectors stored as int bitmasks
(bit i = basis element i), matching the packed vectors of the gf module.
"""

from __future__ import annotations

from . import fischer
from .gf import Field, FieldMatrix, bilinear, vec_support

GF2 = Field(1)


class NilpotentMatsuoAlgebra:
    """Structure constants of a nilpotent Matsuo algebra; immutable."""

    __slots__ = ("space", "dim", "reduced", "basis_labels", "table", "_ad_rows")

    def __init__(self, space, dim, reduced, basis_labels, table) -> None:
        self.space = space
        self.dim = dim
        self.reduced = reduced
        self.basis_labels = basis_labels
        self.table = table  # table[i][j]: product of basis i and j as a mask
        self._ad_rows = None

    def ad_rows(self, i: int) -> tuple[int, ...]:
        """Rows of the left-multiplication matrix of basis element i."""
        if self._ad_rows is None:
            self._ad_rows = tuple(
                FieldMatrix.from_cols(GF2, self.dim, t).rows for t in self.table
            )
        return self._ad_rows[i]

    def __repr__(self) -> str:
        kind = "reduced " if self.reduced else ""
        return f"NilpotentMatsuoAlgebra({kind}dim={self.dim} over {self.space!r})"


def build(space: fischer.FischerSpace) -> NilpotentMatsuoAlgebra:
    """Populate structure constants from the space's wedge table."""
    n = space.n_points
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        cm = space.collinear[x]
        for y in range(x + 1, n):
            if (cm >> y) & 1:
                m = (1 << x) | (1 << y) | (1 << fischer.wedge(space, x, y))
                table[x][y] = m
                table[y][x] = m
    alg = NilpotentMatsuoAlgebra(
        space, n, False, space.labels, tuple(tuple(r) for r in table)
    )
    for i in range(n):
        assert alg.table[i][i] == 0, "basis square must vanish"
        for j in range(i):
            assert alg.table[i][j] == alg.table[j][i], "product must be commutative"
    return alg


def _fold(mask: int, n: int) -> int:
    """Rewrite a full-algebra mask modulo s = sum of all points, dropping point n-1."""
    if (mask >> (n - 1)) & 1:
        mask ^= (1 << n) - 1
    return mask


def reduce(alg: NilpotentMatsuoAlgebra) -> NilpotentMatsuoAlgebra:
    """The quotient by the annihilator <s>, on basis points 0..n-2."""
    if alg.reduced:
        raise ValueError("algebra is already reduced")
    n = alg.dim
    table = tuple(
        tuple(_fold(alg.table[i][j], n) for j in range(n - 1)) for i in range(n - 1)
    )
    return NilpotentMatsuoAlgebra(alg.space, n - 1, True, alg.basis_labels[:-1], table)


def line_nilpotent(alg: NilpotentMatsuoAlgebra, line) -> int:
    """The sum of the three points of a line, as an algebra element."""
    m = alg.space.line_masks[alg.space.line_id(line)]
    return _fold(m, alg.space.n_points) if alg.reduced else m


def multiply(alg: NilpotentMatsuoAlgebra, u: int, v: int) -> int:
    """Bilinear extension of the structure constants to arbitrary elements."""
    if u.bit_length() > alg.dim or v.bit_length() > alg.dim:
        raise ValueError("element does not fit the algebra's dimension")
    return bilinear(alg.table, u, v)


def ad_matrix(alg: NilpotentMatsuoAlgebra, u: int) -> FieldMatrix:
    """Matrix of v -> u*v in the algebra basis, over GF(2)."""
    rows = [0] * alg.dim
    uu = u
    while uu:
        low = uu & -uu
        for r, ar in enumerate(alg.ad_rows(low.bit_length() - 1)):
            rows[r] ^= ar
        uu ^= low
    return FieldMatrix(GF2, alg.dim, alg.dim, rows)


def annihilator(alg: NilpotentMatsuoAlgebra) -> tuple[int, ...]:
    """Basis of {v : v*w = 0 for all w}, via the kernel of the stacked ad matrices.

    For the full algebra of a connected space the result must be the span of
    the all-points sum; a mismatch means corrupted structure constants.  For
    a reduced algebra the result is checked to be trivial.
    """
    rows = []
    for i in range(alg.dim):
        rows.extend(alg.ad_rows(i))
    stacked = FieldMatrix(GF2, alg.dim * alg.dim, alg.dim, rows)
    basis = stacked.kernel()
    if alg.reduced:
        if basis != ():
            raise RuntimeError("reduced algebra has a nontrivial annihilator")
    else:
        s = (1 << alg.dim) - 1
        if basis != (s,):
            raise RuntimeError(
                f"annihilator is not spanned by the all-points sum: {basis!r}"
            )
    return basis


# -- combinatorial product predictions ----------------------------------------
#
# The product of a point with a line nilpotent, and of two line nilpotents,
# is determined by the geometry alone.  These predictors recompute the
# products from collinearity, wedges and the plane index only, independently
# of the structure constants, and serve as oracles against multiply().


def predict_point_line(space: fischer.FischerSpace, x: int, line) -> int:
    """Predicted product x * (line nilpotent), from the geometry alone.

    Cases: zero when x is on the line or sees none of it; the sum of the two
    joining lines when x sees two of its points (they span a quadrilateral);
    x + line + m when x sees all three (they span an affine plane), with
    m = {x^a, x^b, x^c} the parallel line avoiding x.
    """
    return _point_line(space, x, space.line_masks[space.line_id(line)])


def _point_line(space: fischer.FischerSpace, x: int, m: int) -> int:
    """predict_point_line for a line already checked, given as its point mask m.

    x on the line sees the other two points, whose terms b + c and c + b
    cancel, so that case needs no test of its own.
    """
    joiners = space.collinear[x] & m
    out = 0
    j = joiners
    while j:
        low = j & -j
        out ^= low ^ (1 << fischer.wedge(space, x, low.bit_length() - 1))
        j ^= low
    # two joining lines: x cancels; all three: x + t + {x^a, x^b, x^c}
    return out ^ (1 << x) if joiners.bit_count() == 3 else out


def predict_line_line(space: fischer.FischerSpace, line1, line2) -> int:
    """Predicted product of two line nilpotents, from the geometry alone.

    Equal lines give zero.  Intersecting lines give the sum of the two
    nilpotents in a quadrilateral, or the four points off both lines in an
    affine plane.  Disjoint lines spanning an affine plane give the sum of
    its nine points; other disjoint pairs expand point by point.
    """
    i, j = space.line_id(line1), space.line_id(line2)
    if i == j:
        return 0
    m1, m2 = space.line_masks[i], space.line_masks[j]
    plane = space.plane_of(i, j)
    if plane.bit_count() == 6:
        return m1 ^ m2
    if plane:
        return plane & ~(m1 | m2) if m1 & m2 else plane
    a, b, c = space.lines[i]
    return (
        _point_line(space, a, m2)
        ^ _point_line(space, b, m2)
        ^ _point_line(space, c, m2)
    )


# -- export ----------------------------------------------------------------------


def to_json_dict(alg: NilpotentMatsuoAlgebra) -> dict:
    """JSON-ready description; products list nonzero entries with i <= j."""
    products = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            if alg.table[i][j]:
                products.append([i, j, vec_support(alg.table[i][j])])
    return {
        "space": alg.space.meta.name if alg.space.meta else None,
        "dim": alg.dim,
        "reduced": alg.reduced,
        "basis_labels": list(alg.basis_labels),
        "products": products,
    }
