"""Miyamoto maps over GF(2^k) and the groups they generate for the quadrilateral.

Every Miyamoto map is I + (1+lambda) P for a GF(2) matrix P, formed by
`_scaled` with no product over GF(2^k): a row of P holds 0 or 1 per k-bit
lane, so its product with 1+lambda has no carries.  In the point basis P is
Pi_1, the GF(2) projection onto a line's 1-part along its 0-part, so
x -> x_0 + lambda x_1 (`miyamoto_map`); for lambda not in {0, 1} this is an
automorphism iff the line has the strong law (`decomp.strong_law`).  Both
facts belong to the line: `_one_part_projection` reads them once per line
from its `decomp.LineVerdict`.  In the catalog the strong law holds on every
line of cq, full or reduced, the small case of Sym(4) in the paper, and on
every line of the reduced w_a4 and w_d4, quotients of full algebras with
1*1 = {0}; it holds on no line of any other catalog algebra, full or reduced
(tests/test_miyamoto.py).  In the frozen basis

    B  = (a, b, l, lx, ly, s)      for the 6-dimensional algebra,
    B' = (a, b, l, lx, ly)         for its quotient by <s>,

the frame is read from the space in any point order (`_frame`): l1 = {a < b < c}
is the first line, l its nilpotent, x, y, z the points not collinear with a,
b, c, and l2 = {b,x,z}, l3 = {a,y,z}, l4 = {c,x,y}.  Aut(cq) = Sym(4) acts
sharply transitively on the 24 pairs (line, ordered pair of its points), so
every point order gives the same frame up to an automorphism, and so the same
structure constants and matrices.  The maps are I + (1+lambda) C^-1 Pi_1 C,
C the 0/1 basis change (`cq_miyamoto_maps`), that is the block matrices

    S(alpha, beta, lambda) = [ I3            0            ]
                             [ M(alpha,beta) diag(l,l,1)  ]

with M(alpha,beta) = [[alpha,0,beta],[0,beta,alpha],[0,0,0]], which compose by

    S(a,b,l) S(c,d,m) = S(a+lc, b+ld, lm).

The automorphism groups over GF(2) all come from one backtracking search,
`_AutSearch`, which picks the columns of a frozen-basis matrix one at a time
from a candidate list per column.  Each homomorphism equation e_i e_j
(i <= j) is filed once, under the step max(j, top bit of e_i e_j) at which
every column it reads is chosen, and after column m the search tests exactly
the equations filed under m.  An equation filed under m whose factors both
lie in earlier columns (j < m) is there because bit m is the top bit of
e_i e_j, so it forces column m: m(e_m) = m(e_i) m(e_j) + m(e_i e_j - e_m).
The search tries only that value, if its candidate list holds it; in the
frozen basis this forces columns 2 and 4.  It reads the products instead of
forming them: the ad rows e_i v (all v) come from the frozen-basis structure
constants by linearity, the product row c v of a candidate column c is the
XOR of the ad rows over the bits of c, built when c is first chosen, and
m(e_i) m(e_j) is entry m(e_j) of the row of m(e_i).  The schedule, the
forcing equations, the ad rows and the product rows are built once per
structure, however many searches read them.  The routes differ only in the
candidate lists: the quotient's columns are pruned by stabilizing A*A and
A*(A*A), and the full algebra's by the annihilator as well, all recomputed
from the structure constants; the unconstrained sweep offers every vector;
and the block cross-check of `aut_count_full` offers one candidate per
column, an automorphism of the quotient extended by a (kappa, lambda, 1)
bottom row.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property

from . import decomp, fischer, matsuo
from .gf import Field, FieldMatrix, apply_images, bilinear, echelon_basis, lift_vec, vec_support

GF2 = matsuo.GF2

# the catalog quadrilateral's lines l1..l4 in frame order, as `fischer` lists them
CQ_LINE_ORDER = fischer.CQ_LINES


class MiyamotoCheckError(RuntimeError):
    """A structural check on a Miyamoto group computation failed."""


def require_miyamoto_space(alg: matsuo.NilpotentMatsuoAlgebra) -> None:
    """Refuse an algebra at its first line without the strong law (its only
    Miyamoto map is lambda = 1), then any algebra but the quadrilateral's."""
    for t in alg.space.lines:
        table = decomp.line_verdict(alg, t).fusion
        if not decomp.strong_law(table):
            raise ValueError(
                f"line {t} lacks the strong law (Z/2Z-graded with an empty 1*1 cell): its "
                f"fusion cells are {json.dumps(table.to_json_dict())}; over a field of "
                "characteristic 2 its only Miyamoto map is the trivial one, lambda = 1"
            )
    _frame(alg)


def _cq_algebra(reduced: bool) -> matsuo.NilpotentMatsuoAlgebra:
    """The quadrilateral algebra, or its quotient by <s>."""
    alg = matsuo.build(fischer.catalog("cq"))
    return matsuo.reduce(alg) if reduced else alg


# -- Miyamoto maps -----------------------------------------------------------------


def _one_part_projection(verdict: decomp.LineVerdict, field: Field, lams) -> FieldMatrix:
    """Pi_1 of the verdict's line over GF(2), its column j the 1-part of e_j,
    refused unless every lambda in lams is a unit of the field and, if one
    is not 1, the line has the strong law."""
    for lam in lams:
        _refuse_scalars(field, lam)
    other = next((lam for lam in lams if lam != 1), None)
    dec = verdict.decomposition
    if other is not None and not decomp.strong_law(verdict.fusion):
        raise ValueError(
            f"map for line {dec.line} with lambda={other} is not an "
            "automorphism; the line lacks the strong law (Z/2Z-graded with an "
            "empty 1*1 cell)"
        )
    return FieldMatrix.from_cols(GF2, dec.dim, (dec.split(1 << j)[1] for j in range(dec.dim)))


def _refuse_scalars(field: Field, lam: int, *named) -> None:
    """Refuse a lambda that is no unit, and a (name, c) in named outside the field."""
    if lam == 0:
        raise ValueError("lambda must be a unit")
    for name, c in (("lambda", lam), *named):
        if not 0 <= c < field.order:
            raise ValueError(f"{name}={c} is not an element of GF({field.order})")


def _scaled(field: Field, P: FieldMatrix, lam: int) -> FieldMatrix:
    """I + (1+lambda) P over the field, for a square GF(2) matrix P."""
    n = P.nrows
    return FieldMatrix(field, n, n, ((1 << (i * field.k)) ^ lift_vec(field, r, n) * (1 ^ lam)
                                     for i, r in enumerate(P.rows)))


def miyamoto_map(verdict: decomp.LineVerdict, field: Field, lam: int) -> FieldMatrix:
    """I + (1+lambda) Pi_1 in the point basis, refused for lambda outside
    1..2^k - 1, and for lambda != 1 unless the line has the strong law."""
    return _scaled(field, _one_part_projection(verdict, field, (lam,)), lam)


# -- the frozen quadrilateral basis -------------------------------------------------


def _frame(alg: matsuo.NilpotentMatsuoAlgebra):
    """The frozen columns (a, b, l, lx, ly[, s]) as point-basis masks, and the
    lines (l1, l2, l3, l4), by the frame rule of the module docstring; a
    point is its `matsuo.point_element`, folded by s in the quotient.

    A validated space of 6 points and 4 lines is the quadrilateral: two
    disjoint lines would cover all six points and leave no room for a line
    that meets each of them in at most one point, and two meeting lines
    generate a quadrilateral, as an affine plane has nine points.
    """
    space, n = alg.space, alg.space.n_points
    if (n, len(space.lines)) != (6, 4):
        raise ValueError("this operation is specific to the complete quadrilateral "
                         "(catalog space 'cq')")
    full = (1 << n) - 1
    a, b, c = space.lines[0]
    x, y, z = ((full ^ space.collinear[p] ^ 1 << p).bit_length() - 1 for p in (a, b, c))
    lines = tuple(tuple(sorted(t)) for t in ((a, b, c), (b, x, z), (a, y, z), (c, x, y)))
    ea, eb, ex, ey = (matsuo.point_element(alg, p) for p in (a, b, x, y))
    ell = matsuo.line_nilpotent(alg, lines[0])
    cols = (ea, eb, ell, matsuo.multiply(alg, ell, ex), matsuo.multiply(alg, ell, ey))
    return (cols if alg.reduced else cols + (full,)), lines


def frozen_basis_structure(alg: matsuo.NilpotentMatsuoAlgebra) -> tuple[tuple[int, ...], ...]:
    """Structure constants rewritten in the frozen basis (masks per pair)."""
    cols = _frame(alg)[0]
    Cinv_cols = FieldMatrix(GF2, alg.dim, alg.dim, cols).inverse().rows  # C^-1 by columns
    return tuple(
        tuple(apply_images(Cinv_cols, matsuo.multiply(alg, ci, cj)) for cj in cols)
        for ci in cols
    )


def cq_miyamoto_maps(alg: matsuo.NilpotentMatsuoAlgebra, field: Field) -> list[FieldMatrix]:
    """Every Miyamoto map of a quadrilateral algebra, full or reduced, in the
    frozen basis, in (frame line, lambda) order for lambda in `field.nonzero()`;
    each line's verdict and P = C^-1 Pi_1 C are formed once."""
    cols, lines = _frame(alg)
    C = FieldMatrix.from_cols(GF2, alg.dim, cols)
    Cinv = C.inverse()
    maps = []
    for line in lines:
        P = Cinv * _one_part_projection(decomp.line_verdict(alg, line), field, field.nonzero()) * C
        maps += [_scaled(field, P, lam) for lam in field.nonzero()]
    return maps


# -- S-matrices ---------------------------------------------------------------------


def _pack(m: FieldMatrix) -> int:
    """A square matrix as one int, row i at bit i n k."""
    row_bits = m.ncols * m.field.k
    return sum(r << (i * row_bits) for i, r in enumerate(m.rows))


def _unpack(field: Field, n: int, x: int) -> FieldMatrix:
    """The n x n matrix over the field that `_pack` packs into x."""
    row_bits = n * field.k
    row_mask = (1 << row_bits) - 1
    return FieldMatrix(field, n, n, [(x >> (i * row_bits)) & row_mask for i in range(n)])


def _s_packed(n: int, k: int, alpha: int, beta: int, lam: int) -> int:
    """S(alpha, beta, lambda) over GF(2^k), n in {5, 6}, `_pack`ed by shifts:
    the diagonal 1s of rows 0, 1, 2 (and 5), n k + k apart, and rows 3, 4."""
    row_bits = n * k
    step = row_bits + k
    s = 1 | (1 << step) | (1 << (2 * step)) | ((1 << (5 * step)) if n == 6 else 0)
    s |= (alpha | (beta << (2 * k)) | (lam << (3 * k))) << (3 * row_bits)
    s |= ((beta << k) | (alpha << (2 * k)) | (lam << (4 * k))) << (4 * row_bits)
    return s


def s_matrix(field: Field, alpha: int, beta: int, lam: int,
             reduced: bool = False) -> FieldMatrix:
    """The block matrix S(alpha, beta, lambda) in the frozen basis."""
    _refuse_scalars(field, lam, ("alpha", alpha), ("beta", beta))
    n = 5 if reduced else 6
    return _unpack(field, n, _s_packed(n, field.k, alpha, beta, lam))


def s_compose(field: Field, p1, p2) -> tuple[int, int, int]:
    """Parameter composition law of the S-matrices."""
    (a, b, l), (c, d, m) = p1, p2
    return (a ^ field.mul(l, c), b ^ field.mul(l, d), field.mul(l, m))


def parse_s_matrix(m: FieldMatrix) -> tuple[int, int, int] | None:
    """Recover (alpha, beta, lambda) if the matrix has the S block shape.

    Reads `_pack(m)` with `_s_params`, as a packed closure element is read;
    a row with a bit at or above n k is no S row.
    """
    n, k = m.nrows, m.field.k
    if n not in (5, 6) or m.ncols != n or max(m.rows) >> (n * k):
        return None
    return _s_params(_pack(m), n, k)


def _s_params(x: int, n: int, k: int) -> tuple[int, int, int] | None:
    """(alpha, beta, lambda) if the packed n x n matrix x is S(alpha, beta,
    lambda) over GF(2^k), read from lanes 0, 2 and 3 of row 3, else None."""
    mask = (1 << k) - 1
    row3 = x >> (3 * n * k)
    alpha, beta, lam = row3 & mask, (row3 >> (2 * k)) & mask, (row3 >> (3 * k)) & mask
    return (alpha, beta, lam) if lam and x == _s_packed(n, k, alpha, beta, lam) else None


# -- matrix group closure --------------------------------------------------------------


@dataclass(frozen=True)
class MatrixGroup:
    """A finite group of degree x degree matrices over `field`.

    `generators` holds the distinct generators sorted by rows, and is empty
    for an enumerated automorphism group.  `elements` holds each element
    once: for `group_closure`, the generators first and then the rest in
    the closure's order; for an automorphism enumeration, every element
    sorted by rows.
    """

    field: Field
    degree: int
    generators: tuple[FieldMatrix, ...]
    elements: tuple[FieldMatrix, ...]

    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _members(self) -> frozenset[FieldMatrix]:
        # Built on the first membership test and kept in the instance dict;
        # it is not a dataclass field, so equality and hashing ignore it.
        return frozenset(self.elements)

    def __contains__(self, m: FieldMatrix) -> bool:
        return m in self._members


def _certifying_subset(products, index) -> list[int]:
    """Positions of a subset Y of the generators that generates the same group.

    products[s][t] is the key of g_s * g_t and index maps the key of each
    generator to its position.  In generator order g_s joins Y unless it is
    already reached from the earlier members of Y by right multiplication by
    members of Y through products that are themselves generators; so every
    generator is a product of members of Y.
    """
    members, reached = [], set()
    for s in range(len(products)):
        if s in reached:
            continue
        members.append(s)
        reached.add(s)
        todo = list(reached)
        while todo:
            r = todo.pop()
            for t in members:
                u = index.get(products[r][t])
                if u is not None and u not in reached:
                    reached.add(u)
                    todo.append(u)
    return members


def _extend(found, elements, keys, cap: int) -> None:
    """Append to elements, in key order, the packed keys not in found; raise
    once elements holds more than cap."""
    if not found.issuperset(keys):
        for y in keys:
            if y not in found:
                found.add(y)
                elements.append(int.from_bytes(y, "little"))
        if len(elements) > cap:
            raise MiyamotoCheckError(f"group closure exceeds cap {cap}")


def _certified_closure(generators, cap: int) -> tuple[list[FieldMatrix], list[int]]:
    """(distinct generators sorted by rows, packed elements of G): the closure.

    Every element is returned as one `_pack`ed int, with no matrix built
    per element; the distinct generators come first.  All the products x * g_s
    for the members g_s of a list come from one XOR walk over the bits of x:
    slot s, ceil(degree^2 k / 8) bytes wide, belongs to the s-th member, and
    entry i degree k + p of the flat walk table of `products` holds in slot s
    the matrix whose only nonzero row, row i, is image p of g_s
    (`FieldMatrix.row_images`): the share of bit p of row i of x in x * g_s.
    The table is built per column: the value of bit p across the slots is
    formed once and shifted to each row.  So `apply_images(table, x)` holds
    x * g_s in every slot s, and its little-endian bytes, cut into slots by
    one `struct` unpack, are one `bytes` key per member, the bytes of the
    packed product.  One `issuperset` test per walk skips it when no product
    is new, as almost all are past the first layers.

    Each distinct generator is inverted once and takes one wide walk, over
    a table with a slot per distinct generator; these give every product
    g_s * g_t, and from them `_certifying_subset` picks a subset Y with
    <Y> = <gens>.  The found set S_0, the distinct generators and then each
    new product g_s * g_t in (s, t) order, is then closed under right
    multiplication by Y alone, one narrow walk per element in the order
    found through a table with one slot per member of Y.  The result is
    S_0 <Y>, since every generator is invertible and in a finite group the
    monoid Y generates is <Y>; and S_0 <Y> = G because S_0 is a nonempty
    subset of G, so its size is |G|.  The elements are returned in the
    order found, so every element past the generators is x * g for an
    earlier element x and a distinct generator g.  The cap is exceeded
    exactly when |G| exceeds it.  The `bytes` keys of the found set are
    freed on return; only the ints stay.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    field = gens[0].field
    degree = gens[0].nrows
    for g in gens:
        if g.field.k != field.k:
            raise ValueError("mixed fields among the generators")
        if (g.nrows, g.ncols) != (degree, degree):
            raise ValueError(
                f"dimension mismatch among the generators: {g.nrows}x{g.ncols} "
                f"with {degree}x{degree}"
            )
    row_bits = degree * field.k
    slot = (degree * row_bits + 7) // 8
    uniq = []
    index = {}  # key of each distinct generator -> its position in uniq
    for g in sorted(gens, key=lambda m: m.rows):
        y = _pack(g).to_bytes(slot, "little")
        if y not in index:
            g.inverse()  # raises NoSolution for a singular generator
            index[y] = len(uniq)
            uniq.append(g)
    if len(uniq) > cap:
        raise MiyamotoCheckError(f"group closure exceeds cap {cap}")
    images = [g.row_images() for g in uniq]

    def products(members):
        """packed x -> the keys of x * g_s for s in members, from one XOR walk."""
        column = [
            sum(images[s][p] << (j * 8 * slot) for j, s in enumerate(members))
            for p in range(row_bits)
        ]
        table = [v << (i * row_bits) for i in range(degree) for v in column]
        width = slot * len(members)
        cut = struct.Struct(f"{slot}s" * len(members)).unpack
        return lambda x: cut(apply_images(table, x).to_bytes(width, "little"))

    wide = products(range(len(uniq)))
    found = set(index)
    elements = [int.from_bytes(y, "little") for y in index]
    gen_products = [wide(x) for x in elements]
    for keys in gen_products:
        _extend(found, elements, keys, cap)
    narrow = products(_certifying_subset(gen_products, index))
    for x in elements:  # elements grows as the narrow closure finds them
        _extend(found, elements, narrow(x), cap)
    return uniq, elements


def group_closure(generators, cap: int = 1_000_000) -> MatrixGroup:
    """The group the generators generate, from `_certified_closure`.

    Its packed elements are unpacked here into one FieldMatrix each, in the
    closure's order: the distinct generators sorted by rows, then each new
    product g_s * g_t in (s, t) order, then the elements the narrow walks
    find, in walk order.  Raises MiyamotoCheckError once the group has more
    than `cap` elements, ValueError for no generators or mixed fields or
    dimensions, and NoSolution for a singular generator.
    """
    uniq, packed = _certified_closure(generators, cap)
    field, degree = uniq[0].field, uniq[0].nrows
    elements = uniq + [_unpack(field, degree, x) for x in packed[len(uniq):]]
    return MatrixGroup(field, degree, tuple(uniq), tuple(elements))


# -- quadrilateral Miyamoto group at finite-field points -------------------------------


@dataclass(frozen=True)
class CqMiyamotoReport:
    field_k: int
    group_order: int
    expected_order: int
    all_s_matrices: bool
    params_unique: bool
    restriction_injective: bool
    restriction_onto_reduced: bool
    fixes_s: bool
    reduced_group_order: int


def _cq_cap(k: int) -> int:
    """The closure cap over GF(2^k): four times the group order 2^(2k) (2^k - 1)."""
    return 4 * (1 << (2 * k)) * ((1 << k) - 1)


def cq_miyamoto_group(field: Field, reduced: bool = False) -> MatrixGroup:
    """`group_closure` of `cq_miyamoto_maps` over the given field."""
    return group_closure(cq_miyamoto_maps(_cq_algebra(reduced), field), _cq_cap(field.k))


def verify_cq_miyamoto(k: int) -> CqMiyamotoReport:
    """Check the structure of the quadrilateral Miyamoto group over GF(2^k).

    Verifies that every closure element is a uniquely parameterized S-matrix,
    that the order is 2^(2k) (2^k - 1), that restriction to the quotient
    algebra is injective and lands onto its Miyamoto group, and that every
    element fixes the annihilator generator s.  Both closures, of
    `cq_miyamoto_maps`, are `_certified_closure`'s, and every check reads
    their `_pack`ed ints: the S shape and parameters through `_s_params`,
    the fixed s by one AND per element, and the restriction by repacking
    rows 0..4 at the quotient's row stride 5k.  No matrix is built per
    element.  Raises MiyamotoCheckError if any check fails.
    """
    if k not in (2, 3, 4):
        raise ValueError("supported field degrees are k in {2, 3, 4}")
    field = Field(k)
    expected = (1 << (2 * k)) * ((1 << k) - 1)
    alg = _cq_algebra(reduced=False)
    full = _certified_closure(cq_miyamoto_maps(alg, field), _cq_cap(k))[1]
    params = [_s_params(x, 6, k) for x in full]
    all_s = all(p is not None for p in params)
    unique = len(set(params)) == len(params)
    # column 5 is lane 5 of every row: e_5 means (0, 0, 0, 0, 0, 1) in it
    row_bits = 6 * k
    lane5 = sum(field.mask << (i * row_bits + 5 * k) for i in range(6))
    s_col = 1 << (5 * row_bits + 5 * k)
    fixes_s = all(x & lane5 == s_col for x in full)

    reduced = _certified_closure(cq_miyamoto_maps(matsuo.reduce(alg), field), _cq_cap(k))[1]
    # the restriction to the quotient drops row 5 and lane 5 of the others;
    # shifting x right by i k moves row i from bit 6 i k to bit 5 i k
    cuts = [(i * k, ((1 << (5 * k)) - 1) << (5 * i * k)) for i in range(5)]
    restricted = {sum((x >> s) & m for s, m in cuts) for x in full}
    restriction_injective = len(restricted) == len(full)
    onto = restricted == set(reduced)

    report = CqMiyamotoReport(
        field_k=k,
        group_order=len(full),
        expected_order=expected,
        all_s_matrices=all_s,
        params_unique=unique,
        restriction_injective=restriction_injective,
        restriction_onto_reduced=onto,
        fixes_s=fixes_s,
        reduced_group_order=len(reduced),
    )
    ok = (
        all_s and unique and fixes_s and restriction_injective and onto
        and len(full) == expected and len(reduced) == expected
    )
    if not ok:
        raise MiyamotoCheckError(f"Miyamoto group checks failed: {report!r}")
    return report


# -- automorphism groups over GF(2) --------------------------------------------------


def _span(vectors, n) -> list[int]:
    """All elements of the GF(2) span, ascending."""
    out = [0]
    for b in echelon_basis(vectors, n):
        out += [x ^ b for x in out]
    return sorted(out)


def invariant_subspaces(structure, n):
    """Spans of A*A and A*(A*A), recomputed from the structure constants."""
    aa = _span([structure[i][j] for i in range(n) for j in range(n)], n)
    aaa = _span([bilinear(structure, 1 << i, w) for i in range(n) for w in aa], n)
    return aa, aaa


def _annihilator_span(structure, n):
    """{v : e_i v = 0 for every i}: the kernel of the stacked ad matrices, with 0."""
    rows = [r for t in structure for r in FieldMatrix.from_cols(GF2, n, t).rows]
    return _span(FieldMatrix(GF2, n * n, n, rows).kernel(), n)


def _equation_schedule(structure) -> list[list[tuple[int, int, int]]]:
    """Each equation (i, j, e_i e_j), i <= j, filed under the last column it reads.

    m(e_i) m(e_j) = m(e_i e_j) reads columns i, j and those of the set bits of
    e_i e_j, so it is decidable from step max(j, top bit of e_i e_j) on.
    """
    n = len(structure)
    schedule = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            target = structure[i][j]
            schedule[max(j, target.bit_length() - 1)].append((i, j, target))
    return schedule


def _ad_rows(structure) -> list[list[int]]:
    """ad[i][v] = e_i v for every v < 2^n, by linearity: one XOR per entry."""
    ad = []
    for images in structure:
        row = [0]
        for img in images:
            row += [x ^ img for x in row]
        ad.append(row)
    return ad


def _product_row(ad, c: int) -> list[int]:
    """c v for every v < 2^n: the XOR of the rows ad[i] over the set bits i of c."""
    row = [0] * len(ad[0])
    for i in vec_support(c):
        row = [x ^ y for x, y in zip(row, ad[i])]
    return row


class _AutSearch:
    """The automorphism search of one frozen-basis structure, set up once.

    The schedule, the forcing equations and the ad rows are built here, and
    the product row of a candidate column is built when the candidate is
    first chosen and kept for every later search of the same structure.
    Calling the search with one candidate list per column returns every
    automorphism whose column j is drawn from domains[j], sorted by rows.

    Columns are chosen one at a time by backtracking; after column m the
    search tests exactly the equations `_equation_schedule` filed under m,
    so every equation is checked once, as soon as it is decidable.  An
    equation (i, j, e_i e_j) filed under m with j < m is filed there because
    bit m is the top bit of e_i e_j, so it forces column m:
    m(e_m) = m(e_i) m(e_j) + m(e_i e_j - e_m), read from columns already
    chosen.  At such a forced column the search tries that one value, if it
    lies in domains[m], and nothing otherwise, instead of every candidate.
    It still tests every equation due at m and sorts what it finds, so the
    result is that of trying every candidate.  Products are read, not
    formed: m(e_i) m(e_j) is entry m(e_j) of the product row of m(e_i).
    """

    def __init__(self, structure) -> None:
        self.n = len(structure)
        self.structure = structure
        self.schedule = _equation_schedule(structure)
        # per step, the first equation that forces its column as (i, j, e_i e_j - e_m)
        self.forcing = [
            next(((i, j, target ^ (1 << m)) for i, j, target in due if j < m), None)
            for m, due in enumerate(self.schedule)
        ]
        self.ad = _ad_rows(structure)
        self.product_rows = [None] * (1 << self.n)

    def __call__(self, domains) -> tuple[FieldMatrix, ...]:
        n, schedule, forcing = self.n, self.schedule, self.forcing
        ad, product_rows = self.ad, self.product_rows
        found = []

        def extend(cols, rows):
            m = len(cols)
            if m == n:
                mat = FieldMatrix.from_cols(GF2, n, cols)
                if mat.rank() == n:
                    found.append(mat)
                return
            due = schedule[m]
            candidates = domains[m]
            if forcing[m] is not None:
                i, j, rest = forcing[m]
                c = rows[i][cols[j]] ^ apply_images(cols, rest)
                candidates = (c,) if c in candidates else ()
            for c in candidates:
                row = product_rows[c]
                if row is None:
                    row = product_rows[c] = _product_row(ad, c)
                cols.append(c)
                rows.append(row)
                for i, j, target in due:
                    if rows[i][cols[j]] != apply_images(cols, target):
                        break
                else:
                    extend(cols, rows)
                cols.pop()
                rows.pop()

        extend([], [])
        found.sort(key=lambda mat: mat.rows)
        return tuple(found)


def _aut_enumerate(search: _AutSearch) -> MatrixGroup:
    """All automorphisms over GF(2) of the algebra whose frozen-basis
    structure constants the search holds: the quotient's (5-dimensional) or
    the full one's (6-dimensional), told apart by the dimension.

    Exhausts candidate images column by column in the frozen basis, pruned by
    the requirement that A*A and A*(A*A), and for the full algebra the
    annihilator, are stabilized; all are recomputed from the structure
    constants, and every survivor satisfies the full set of homomorphism
    equations.
    """
    structure, n = search.structure, search.n
    aa, aaa = invariant_subspaces(structure, n)
    full = range(1, 1 << n)
    domains = [full, full, aa[1:], aaa[1:], aaa[1:]]  # the spans ascend from 0
    if n == 6:
        domains.append(_annihilator_span(structure, n)[1:])
    return MatrixGroup(GF2, n, (), search(domains))


def aut_enumerate_reduced() -> MatrixGroup:
    """All automorphisms of the 5-dimensional quotient algebra over GF(2)."""
    return _aut_enumerate(_AutSearch(frozen_basis_structure(_cq_algebra(reduced=True))))


def aut_enumerate_full() -> MatrixGroup:
    """All automorphisms of the 6-dimensional algebra over GF(2)."""
    return _aut_enumerate(_AutSearch(frozen_basis_structure(_cq_algebra(reduced=False))))


def aut_reduced_unconstrained() -> tuple[FieldMatrix, ...]:
    """Cross-check: sweep all 2^25 candidate matrices with no subspace pruning.

    Equivalent to testing every 5x5 matrix over GF(2), though not every one
    is tried: the search abandons a partial candidate as soon as one
    homomorphism equation fails, and at the forced columns 2 and 4 it tries
    only the value the earlier columns force.  Neither changes the surviving
    set.
    """
    structure = frozen_basis_structure(_cq_algebra(reduced=True))
    n = len(structure)
    return _AutSearch(structure)([range(1 << n)] * n)


@dataclass(frozen=True)
class AutFullReport:
    order: int
    reduced_order: int
    block_shape_order: int
    sets_agree: bool
    quadratic_identity: bool
    nu_all_one: bool
    reduced_group: MatrixGroup  # the quotient's Aut, as enumerated


def _quadratic_identity_holds(m: FieldMatrix) -> bool:
    """Upper-left 2x2 block equals (det M2)^-1 times entrywise squares of M2,
    where M2 is the (lx, ly) action block."""
    f = m.field
    d4, e4 = m.entry(3, 3), m.entry(3, 4)
    d5, e5 = m.entry(4, 3), m.entry(4, 4)
    det = f.mul(d4, e5) ^ f.mul(d5, e4)
    if det == 0:
        return False
    r = f.inv(det)
    expect = (
        (f.mul(r, f.mul(d4, d4)), f.mul(r, f.mul(e4, e4))),
        (f.mul(r, f.mul(d5, d5)), f.mul(r, f.mul(e5, e5))),
    )
    actual = ((m.entry(0, 0), m.entry(0, 1)), (m.entry(1, 0), m.entry(1, 1)))
    return actual == expect


def aut_count_full() -> AutFullReport:
    """Count Aut of the full algebra and cross-check the block structure.

    The constrained enumeration is compared against candidates built from
    automorphisms of the quotient extended by the (kappa, lambda, nu) bottom
    row; the two routes must agree exactly.  One search of the full structure
    serves the enumeration and all 96 block checks, and the quotient's
    structure comes from the same algebra.
    """
    alg = _cq_algebra(reduced=False)
    search = _AutSearch(frozen_basis_structure(alg))
    n = search.n
    full_group = _aut_enumerate(search)
    reduced_group = _aut_enumerate(_AutSearch(frozen_basis_structure(matsuo.reduce(alg))))
    block_built = []
    for theta in reduced_group.elements:
        for kappa in (0, 1):
            for lam in (0, 1):
                # bottom row (kappa, lambda, 0, 0, 0, nu) with nu = 1
                cand = FieldMatrix(GF2, n, n, theta.rows + (kappa | (lam << 1) | (1 << 5),))
                block_built += search([[cand.col(j)] for j in range(n)])
    block_built.sort(key=lambda m: m.rows)

    agree = tuple(block_built) == full_group.elements
    quad = all(_quadratic_identity_holds(m) for m in full_group.elements)
    nu_one = all(m.entry(5, 5) == 1 for m in full_group.elements)
    return AutFullReport(
        order=full_group.size(),
        reduced_order=reduced_group.size(),
        block_shape_order=len(block_built),
        sets_agree=agree,
        quadratic_identity=quad,
        nu_all_one=nu_one,
        reduced_group=reduced_group,
    )
