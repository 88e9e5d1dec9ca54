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
from .gf import Field, FieldMatrix, bilinear

GF2 = Field(1)


class NilpotentMatsuoAlgebra:
    """Structure constants of a nilpotent Matsuo algebra; immutable."""

    __slots__ = ("space", "dim", "reduced", "table", "_ad_rows")

    def __init__(self, space, dim, reduced, table) -> None:
        self.space = space
        self.dim = dim
        self.reduced = reduced
        self.table = table  # table[i][j]: product of basis i and j as a mask
        self._ad_rows = [None] * dim  # per basis element, filled on first request

    def ad_rows(self, i: int) -> tuple[int, ...]:
        """Rows of the left-multiplication matrix of basis element i.

        Built from table[i] the first time element i is asked for, so a line's
        ad matrix costs one transpose per point of the line, not one per point
        of the space.
        """
        rows = self._ad_rows[i]
        if rows is None:
            rows = FieldMatrix.from_cols(GF2, self.dim, self.table[i]).rows
            self._ad_rows[i] = rows
        return rows

    def __repr__(self) -> str:
        kind = "reduced " if self.reduced else ""
        return f"NilpotentMatsuoAlgebra({kind}dim={self.dim} over {self.space!r})"


def build(space: fischer.FischerSpace) -> NilpotentMatsuoAlgebra:
    """Populate structure constants from the space's lines: two distinct points
    of a line multiply to x + y + x^y, its mask, so a line fills six entries.
    """
    n = space.n_points
    table = [[0] * n for _ in range(n)]
    for (x, y, z), m in zip(space.lines, space.line_masks):
        table[x][y] = table[y][x] = table[x][z] = m
        table[z][x] = table[y][z] = table[z][y] = m
    alg = NilpotentMatsuoAlgebra(space, n, False, tuple(tuple(r) for r in table))
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
    return NilpotentMatsuoAlgebra(alg.space, n - 1, True, table)


def line_nilpotent(alg: NilpotentMatsuoAlgebra, line) -> int:
    """The sum of the three points of a line, as an algebra element."""
    m = alg.space.line_masks[alg.space.line_id(line)]
    return _fold(m, alg.space.n_points) if alg.reduced else m


def multiply(alg: NilpotentMatsuoAlgebra, u: int, v: int) -> int:
    """Bilinear extension of the structure constants to arbitrary elements.

    Each element must lie in 0..2^dim - 1; a negative one has no GF(2) mask.
    """
    if (u | v) >> alg.dim:
        raise ValueError("element does not fit the algebra's dimension")
    return bilinear(alg.table, u, v)


def ad_matrix(alg: NilpotentMatsuoAlgebra, u: int) -> FieldMatrix:
    """Matrix of v -> u*v in the algebra basis, over GF(2); u as in multiply."""
    if u >> alg.dim:
        raise ValueError("element does not fit the algebra's dimension")
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
# is determined by the geometry alone.  The two row predictors recompute
# these products from collinearity, wedges and the plane index only,
# independently of the structure constants, and serve as oracles against
# multiply().  A line's point row is cached on the space the first time a
# predictor asks for it; a line row is rebuilt on every call, since the rows
# of all lines would hold the square of the line count.


def predict_point_row(space: fischer.FischerSpace, line) -> tuple[int, ...]:
    """Predicted product x * (line nilpotent) of every point x, in point order.

    Cases: zero when x is on the line or sees none of it; the sum of the two
    joining lines when x sees two of its points (they span a quadrilateral);
    x + line + m when x sees all three (they span an affine plane), with
    m = {x^a, x^b, x^c} the parallel line avoiding x.  The line is resolved
    once and its cached point row returned.
    """
    return _point_line_row(space, space.line_id(line))


def _point_line_row(space: fischer.FischerSpace, j: int) -> tuple[int, ...]:
    """x * (nilpotent of line j) for every point x, computed on first request.

    x on the line sees the other two points, whose terms b + c and c + b
    cancel, so that case needs no test of its own.
    """
    row = space._point_line_rows.get(j)
    if row is None:
        m = space.line_masks[j]
        out = []
        for x in range(space.n_points):
            joiners = space.collinear[x] & m
            p = 0
            rest = joiners
            while rest:
                low = rest & -rest
                p ^= low ^ (1 << fischer.wedge(space, x, low.bit_length() - 1))
                rest ^= low
            # two joining lines: x cancels; all three: x + t + {x^a, x^b, x^c}
            out.append(p ^ (1 << x) if joiners.bit_count() == 3 else p)
        row = space._point_line_rows[j] = tuple(out)
    return row


def _plane_product(m1: int, m2: int, plane: int) -> int:
    """Product of the nilpotents of two distinct lines, given as point masks,
    that lie in the recorded plane `plane`.

    A quadrilateral gives the sum of the two nilpotents.  In an affine plane,
    intersecting lines give the four points off both, and disjoint lines the
    sum of its nine points.
    """
    if plane.bit_count() == 6:
        return m1 ^ m2
    return plane & ~(m1 | m2) if m1 & m2 else plane


def predict_line_row(space: fischer.FischerSpace, line) -> tuple[int, ...]:
    """Predicted product of the line's nilpotent with every line nilpotent,
    in line-id order.

    With r the line's cached point row, each line {x, y, z} first gets
    r[x] ^ r[y] ^ r[z]; then the lines sharing a recorded plane with it
    (`FischerSpace.coplanar`) are overwritten by _plane_product.  The line's
    own entry is r at three of its own points, each zero.  The row is
    computed on every call and not cached.
    """
    i = space.line_id(line)
    r = _point_line_row(space, i)
    row = [r[x] ^ r[y] ^ r[z] for x, y, z in space.lines]
    m1 = space.line_masks[i]
    partners = space.coplanar(i)
    while partners:
        low = partners & -partners
        j = low.bit_length() - 1
        row[j] = _plane_product(m1, space.line_masks[j], space.plane_of(i, j))
        partners ^= low
    return tuple(row)
