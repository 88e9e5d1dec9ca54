"""Per-line decompositions, fusion tables, and grading classification.

For a line nilpotent the only eigenvalues of its left multiplication are 0
and 1.  Each line therefore splits the algebra into the generalized
eigenspaces for 0 and 1; the 1-part is always a proper eigenspace, while the
0-part can be strictly larger than ker(ad) (the affine plane is the standard
example).  No power ad^N (N = dim) is formed: the chain ker(ad), ker(ad^2),
... stops as soon as its dimension reaches N - dim ker(ad+1).  That is exact,
because x^N and (x+1)^N are coprime: ker(ad^N) and ker((ad+1)^N) meet only
in 0, so their dimensions sum to at most N, and they contain ker(ad^k) and
ker(ad+1); once those two reach N together, every inequality is an equality.
Semisimple lines need no product at all.

The fusion table records, for each pair of parts, which parts their products
meet.  It is read from one packed tensor per line: for each basis element
e_a, the coordinates of e_a * v_j for every basis vector v_j of the two
parts, as one integer.  XOR-ing these over the set bits of a part's basis
vector u gives the coordinates of all products u * v_j at once, and masks
pick out the cells.  Because the product is commutative, the pairs of a
diagonal cell can be read as a full block: its two halves hold the same
products.

A line's verdict is constant on its orbit under the point reflections.  A
point y gives the permutation sigma_y of the points: x -> x^y for x collinear
with y, and x -> x otherwise.  In a Fischer space sigma_y is an automorphism
of the geometry (Fischer, 1971; Cuypers and Hall, 1995), so it permutes the
algebra basis, preserves the structure constants, and maps the nilpotent of
a line t to that of sigma_y(t).  Conjugating by this permutation carries
every kernel of ad, and every product between the parts, from t to
sigma_y(t): the dimensions, the fusion cells and the graded flag agree.
orbit_verdicts therefore decides one line per orbit of <sigma_y>; it first
checks every sigma_y against the whole table instead of assuming the
theorem.  classify_space stays per line: its witness is the first
lexicographic pair of an echelon basis, which a permutation of the basis
does not preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fischer, matsuo
from .gf import FieldMatrix, apply_images, mask_from_support, span_equal, vec_support

GF2 = matsuo.GF2


@dataclass(frozen=True)
class LineDecomposition:
    """Generalized eigenspace decomposition of an algebra along one line."""

    line: tuple[int, int, int]
    dim: int
    basis0: tuple[int, ...]  # echelon basis of ker(ad^N) = ker(ad^k), k at the stop
    basis1: tuple[int, ...]  # echelon basis of ker(ad+1) = ker((ad+1)^N)
    eigen0_dim: int
    eigen1_dim: int
    semisimple: bool
    coord_matrix: FieldMatrix  # inverse of [basis0 | basis1] as columns

    def gen_dims(self) -> tuple[int, int]:
        return (len(self.basis0), len(self.basis1))

    def coords(self, v: int) -> int:
        return self.coord_matrix.matvec(v)

    def split(self, v: int) -> tuple[int, int]:
        """Components of v in the 0-part and the 1-part."""
        c = self.coords(v)
        d0 = len(self.basis0)
        return (apply_images(self.basis0, c & ((1 << d0) - 1)),
                apply_images(self.basis1, c >> d0))

    def component_flags(self, v: int) -> tuple[bool, bool]:
        """Which parts a vector meets; cheaper than split()."""
        c = self.coords(v)
        d0 = len(self.basis0)
        return bool(c & ((1 << d0) - 1)), bool(c >> d0)


def decompose_line(alg: matsuo.NilpotentMatsuoAlgebra, line) -> LineDecomposition:
    """Split the algebra along ker(ad^N) and ker((ad+1)^N), N = dim.

    Neither power is formed.  basis1 = ker(ad+1), and the chain ker(ad),
    ker(ad^2), ... (FieldMatrix.kernel_chain) is walked until its dimension
    reaches target = N - len(basis1).  x^N and (x+1)^N are coprime, so
    ker(ad^N) and ker((ad+1)^N) meet only in 0 and
    dim ker(ad^N) + dim ker((ad+1)^N) <= N.  Since ker(ad^k) lies in
    ker(ad^N) and ker(ad+1) in ker((ad+1)^N), reaching target turns every
    inequality into an equality: ker(ad^k) = ker(ad^N),
    ker((ad+1)^N) = ker(ad+1), and the two parts fill the algebra.  kernel()
    returns canonical echelon bases, so both bases are those of the powers.

    If the chain stops growing below target, ker((ad+1)^N) is computed and
    the errors are raised as a check on the full powers would raise them.
    """
    ln = matsuo.line_nilpotent(alg, line)
    ad = matsuo.ad_matrix(alg, ln)
    n = alg.dim
    ad1 = ad + FieldMatrix.identity(GF2, n)
    basis1 = ad1.kernel()
    target = n - len(basis1)
    chain = ad.kernel_chain()
    basis0 = next(chain)
    eigen0 = len(basis0)
    while len(basis0) < target:
        grown = next(chain, None)
        if grown is None:
            raise _split_error(line, ad1, basis0, basis1)
        basis0 = grown
    P = FieldMatrix.from_cols(GF2, n, basis0 + basis1)
    return LineDecomposition(
        line=tuple(sorted(line)),
        dim=n,
        basis0=basis0,
        basis1=basis1,
        eigen0_dim=eigen0,
        eigen1_dim=len(basis1),
        semisimple=(eigen0 == target),
        coord_matrix=P.inverse(),
    )


def _split_error(line, ad1: FieldMatrix, basis0, basis1) -> RuntimeError:
    """The error for a kernel chain of ad that stopped below its target.

    basis0 is then ker(ad^N).  The checks run in the order of a decomposition
    from the full powers: first whether the generalized parts fill the
    algebra, then whether the generalized 1-part is ker(ad+1).
    """
    *_, basis1_generalized = ad1.kernel_chain()
    if len(basis0) + len(basis1_generalized) != ad1.ncols:
        return RuntimeError(
            "unexpected eigenvalue: the generalized 0- and 1-eigenspaces do "
            f"not exhaust the algebra for line {tuple(line)!r}"
        )
    # The parts fill the algebra and basis0 is short of N - len(basis1), so
    # ker((ad+1)^N) is larger than ker(ad+1).
    return RuntimeError(
        f"generalized 1-part exceeds the 1-eigenspace for line {tuple(line)!r}"
    )


@dataclass(frozen=True)
class Witness:
    """A pair of 1-part elements whose product leaks back into the 1-part."""

    u: int
    v: int
    product: int
    bad_component: int


@dataclass(frozen=True)
class FusionTable:
    """Minimal observed fusion law on labels {0, 1}; symmetric."""

    cells: dict
    witness: Witness | None = None  # first 1-part pair whose product meets the 1-part

    def entry(self, x: int, y: int) -> frozenset:
        return self.cells[(min(x, y), max(x, y))]

    def to_json_dict(self) -> dict:
        return {
            "00": sorted(self.cells[(0, 0)]),
            "01": sorted(self.cells[(0, 1)]),
            "11": sorted(self.cells[(1, 1)]),
        }


def fusion_table(alg: matsuo.NilpotentMatsuoAlgebra, dec: LineDecomposition) -> FusionTable:
    """Observed fusion law from one packed product tensor of the line.

    With n = dim, d0 = len(basis0), C the coordinate matrix and v_j the j-th
    vector of basis0 + basis1, G[a] holds the coordinates of every product
    e_a * v_j, bit q*n + j being coordinate q of e_a * v_j.  For a basis
    vector u of either part, XOR-ing G over the set bits of u gives all the
    products u * v_j at once; four masks (coordinate rows below or from d0,
    crossed with the columns of each part) read off the cells.  A diagonal
    cell reads its whole block rather than the pairs j >= i: the product is
    commutative (matsuo.build asserts it), so the block is symmetric and
    both halves hold the same products.

    The witness is the first (lexicographic) 1-part basis pair whose product
    has a nonzero 1-component; a graded line has none, at no cost.
    """
    n = alg.dim
    d0 = len(dec.basis0)
    vs = dec.basis0 + dec.basis1
    P = FieldMatrix.from_cols(GF2, n, vs).rows  # P[s]: bit j = coordinate s of v_j
    # S[r]: column r of C, bit q*n set when C[q][r] = 1
    S = [0] * n
    for q, row in enumerate(dec.coord_matrix.rows):
        while row:
            low = row & -row
            S[low.bit_length() - 1] |= 1 << (q * n)
            row ^= low
    # Row r of ad(e_a) P is a mask below 2^n over j; multiplying it by S[r],
    # whose set bits lie n apart, places shifted copies in disjoint n-bit
    # slots, so no carry occurs and integer * is the GF(2) outer product.
    G = []
    for a in range(n):
        g = 0
        for r, ar in enumerate(alg.ad_rows(a)):
            if ar:
                g ^= S[r] * apply_images(P, ar)
        G.append(g)
    cols0 = (1 << d0) - 1
    cols1 = ((1 << n) - 1) ^ cols0
    rows0 = sum(1 << (q * n) for q in range(d0))
    rows1 = sum(1 << (q * n) for q in range(d0, n))
    m00, m01 = rows0 * cols0, rows0 * cols1
    m10, m11 = rows1 * cols0, rows1 * cols1
    c00 = c01 = c11 = 0  # bit 0 / bit 1: the cell contains label 0 / 1
    for u in dec.basis0:
        g = apply_images(G, u)
        c00 |= bool(g & m00) | bool(g & m10) << 1
        c01 |= bool(g & m01) | bool(g & m11) << 1
    witness = None
    for i, u in enumerate(dec.basis1):
        g = apply_images(G, u)
        c11 |= bool(g & m01) | bool(g & m11) << 1
        if witness is None and g & m11:
            folded = 0
            h = g >> (d0 * n)
            while h:
                folded |= h
                h >>= n
            later = folded & cols1 & -(1 << (d0 + i))
            if later:
                v = vs[(later & -later).bit_length() - 1]
                p = matsuo.multiply(alg, u, v)
                bad = dec.split(p)[1]
                if not bad:
                    raise RuntimeError(
                        "product tensor and multiply disagree on the witness "
                        f"for line {dec.line!r}"
                    )
                witness = Witness(u, v, p, bad)
    cells = {
        cell: frozenset(label for label in (0, 1) if (bits >> label) & 1)
        for cell, bits in (((0, 0), c00), ((0, 1), c01), ((1, 1), c11))
    }
    return FusionTable(cells, witness)


def is_z2_graded(table: FusionTable) -> bool:
    return (
        table.entry(0, 0) <= {0}
        and table.entry(0, 1) <= {1}
        and table.entry(1, 1) <= {0}
    )


@dataclass(frozen=True)
class LineVerdict:
    line: tuple[int, int, int]
    decomposition: LineDecomposition
    fusion: FusionTable
    z2_graded: bool
    witness: Witness | None

    def to_json_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "u": vec_support(self.witness.u),
                "v": vec_support(self.witness.v),
                "bad_component": vec_support(self.witness.bad_component),
            }
        d = self.decomposition
        return {
            "line": list(self.line),
            "gen_dims": list(d.gen_dims()),
            "eigen_dims": [d.eigen0_dim, d.eigen1_dim],
            "semisimple": d.semisimple,
            "fusion": self.fusion.to_json_dict(),
            "z2_graded": self.z2_graded,
            "witness": w,
        }


@dataclass(frozen=True)
class GradingVerdict:
    """Per-line grading verdicts with a good-line census.

    A line is 'good' when every plane through it is affine (no quadrilateral
    contains it).  graded is the AND over all lines.
    """

    verdicts: tuple[LineVerdict, ...]
    graded: bool
    good_lines: tuple[tuple[int, int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "z2_graded": self.graded,
            "good_lines": [list(t) for t in self.good_lines],
            "lines": [v.to_json_dict() for v in self.verdicts],
        }


def line_verdict(alg: matsuo.NilpotentMatsuoAlgebra, line) -> LineVerdict:
    dec = decompose_line(alg, line)
    table = fusion_table(alg, dec)
    return LineVerdict(
        line=tuple(sorted(line)),
        decomposition=dec,
        fusion=table,
        z2_graded=is_z2_graded(table),
        witness=table.witness,
    )


def classify_space(alg: matsuo.NilpotentMatsuoAlgebra) -> GradingVerdict:
    """Verdicts for every line, in line order."""
    lines = alg.space.lines
    verdicts = tuple(line_verdict(alg, t) for t in lines)
    good = tuple(
        t for t in lines if not fischer.cqs_through_line(alg.space, t)
    )
    return GradingVerdict(
        verdicts=verdicts,
        graded=all(v.z2_graded for v in verdicts),
        good_lines=good,
    )


def orbit_verdicts(alg: matsuo.NilpotentMatsuoAlgebra):
    """One line_verdict per line orbit of the point reflections.

    Returns (verdict, orbit_lines) pairs ordered by representative, where the
    verdict is that of the orbit's first line in line order and orbit_lines
    lists the orbit in line order.  Every reflection is first checked to
    preserve every entry of alg.table; a failure raises and names the point
    and the pair.  Only the full algebra is accepted: the reduced basis drops
    a point, which a reflection may move.
    """
    if alg.reduced:
        raise ValueError("orbit verdicts are defined on the full algebra")
    space, table, n = alg.space, alg.table, alg.dim
    reflections = []
    for y in range(n):
        cm = space.collinear[y]
        images = [fischer.wedge(space, y, x) if (cm >> x) & 1 else x for x in range(n)]
        moved: dict[int, int] = {}  # image of each distinct entry
        for i in range(n):
            row, row_image = table[i], table[images[i]]
            for j in range(n):
                m = row[j]
                if m not in moved:
                    moved[m] = mask_from_support(images[p] for p in vec_support(m))
                if row_image[images[j]] != moved[m]:
                    raise RuntimeError(
                        f"the reflection in point {y} does not preserve the "
                        f"structure constants at pair ({i}, {j})"
                    )
        reflections.append(images)
    seen = [False] * len(space.lines)
    out = []
    for start, rep in enumerate(space.lines):
        if seen[start]:
            continue
        seen[start] = True
        members, todo = [start], [rep]
        while todo:
            t = todo.pop()
            for images in reflections:
                k = space.line_id([images[p] for p in t])
                if not seen[k]:
                    seen[k] = True
                    members.append(k)
                    todo.append(space.lines[k])
        out.append((line_verdict(alg, rep),
                    tuple(space.lines[k] for k in sorted(members))))
    return tuple(out)


# -- structured eigenbasis for symplectic spaces --------------------------------


@dataclass(frozen=True)
class StructuredBasis:
    """Spanning data for the two parts in a symplectic-type space.

    The 0-part is spanned by the line's points, one indicator sum per
    quadrilateral through the line, and the points seeing none of the line;
    the 1-part by the products (line nilpotent) * z over z seeing two points.
    """

    line_points: tuple[int, ...]
    quad_sums: tuple[tuple[frozenset, int], ...]
    p0_points: tuple[int, ...]
    one_part: tuple[tuple[int, int], ...]  # (point z, line*z)

    def zero_vectors(self) -> list[int]:
        return (
            [1 << p for p in self.line_points]
            + [m for _, m in self.quad_sums]
            + [1 << w for w in self.p0_points]
        )

    def one_vectors(self) -> list[int]:
        return [m for _, m in self.one_part]


def symplectic_structured_basis(alg: matsuo.NilpotentMatsuoAlgebra,
                                line) -> StructuredBasis:
    """The structured spanning sets, verified against decompose_line."""
    space = alg.space
    if alg.reduced:
        raise ValueError("structured basis is defined on the full algebra")
    if not fischer.is_symplectic_type(space):
        raise ValueError("structured basis needs a space of symplectic type")
    t = space.lines[space.line_id(line)]
    p0, p2, p3 = fischer.points_p0_p2(space, t)
    assert not p3, "symplectic spaces have no point seeing all of a line"
    quads = fischer.cqs_through_line(space, t)
    ln = matsuo.line_nilpotent(alg, t)
    sb = StructuredBasis(
        line_points=t,
        quad_sums=tuple(
            (pts, sum(1 << p for p in pts)) for pts in quads
        ),
        p0_points=p0,
        one_part=tuple(
            (z, matsuo.multiply(alg, ln, 1 << z)) for z in p2
        ),
    )
    dec = decompose_line(alg, t)
    if not span_equal(GF2, sb.zero_vectors(), dec.basis0, alg.dim):
        raise RuntimeError("structured 0-part does not span the 0-eigenspace")
    if not span_equal(GF2, sb.one_vectors(), dec.basis1, alg.dim):
        raise RuntimeError("structured 1-part does not span the 1-eigenspace")
    if 3 + len(quads) + len(p0) != dec.eigen0_dim:
        raise RuntimeError("structured 0-part is not a direct sum")
    return sb


# -- the two-quadrilaterals dichotomy --------------------------------------------


@dataclass(frozen=True)
class CqPairCase:
    """Outcome for two quadrilaterals sharing a line.

    Case 'a': the two off-triples match up by collinearity and their wedges
    meet in a single point w seeing none of the line.  Case 'b': the wedges
    produce three points d, e, f forming a third quadrilateral through the
    line.
    """

    case: str  # "a" or "b"
    w: int | None = None
    def_points: tuple[int, int, int] | None = None
    third_quad: frozenset | None = None


def _off_labeling(space, t, quad):
    """Off-points of a quadrilateral through t, ordered opposite a, b, c."""
    off = sorted(set(quad) - set(t))
    out = []
    for anchor in t:
        opp = [u for u in off if not space.are_collinear(anchor, u)]
        if len(opp) != 1:
            raise fischer.InvalidSpaceError(
                f"{quad!r} is not a quadrilateral through {t!r}"
            )
        out.append(opp[0])
    if len(set(out)) != 3:
        raise fischer.InvalidSpaceError(
            f"{quad!r} is not a quadrilateral through {t!r}"
        )
    return out


def cq_pair_case(space: fischer.FischerSpace, line, quad1, quad2) -> CqPairCase:
    """Classify two distinct quadrilaterals through a common line."""
    t = tuple(sorted(line))
    q1, q2 = frozenset(quad1), frozenset(quad2)
    if q1 == q2:
        raise ValueError("the two quadrilaterals must be distinct")
    for q in (q1, q2):
        if not (len(q) == 6 and q.issuperset(t)):
            raise ValueError(f"{sorted(q)!r} is not a 6-point set through {t!r}")
    a, b, c = t
    x, y, z = _off_labeling(space, t, q1)
    p, q, r = _off_labeling(space, t, q2)
    rel = tuple(
        tuple(space.are_collinear(u, v) for v in (x, y, z)) for u in (p, q, r)
    )
    ident = ((True, False, False), (False, True, False), (False, False, True))
    compl = ((False, True, True), (True, False, True), (True, True, False))
    if rel == ident:
        w = fischer.wedge(space, p, x)
        if w != fischer.wedge(space, q, y) or w != fischer.wedge(space, r, z):
            raise fischer.InvalidSpaceError(
                f"matched wedges disagree for quadrilaterals through {t!r}"
            )
        if any(space.are_collinear(w, u) for u in t):
            raise fischer.InvalidSpaceError(
                f"common wedge point {w} is collinear with the shared line {t!r}"
            )
        return CqPairCase(case="a", w=w)
    if rel == compl:
        d = fischer.wedge(space, r, y)
        e = fischer.wedge(space, r, x)
        f = fischer.wedge(space, q, x)
        if (
            d != fischer.wedge(space, q, z)
            or e != fischer.wedge(space, p, z)
            or f != fischer.wedge(space, p, y)
        ):
            raise fischer.InvalidSpaceError(
                f"wedge identities fail for quadrilaterals through {t!r}"
            )
        for triple in ((a, e, f), (b, d, f), (c, d, e)):
            if not space.is_line(triple):
                raise fischer.InvalidSpaceError(
                    f"expected line {tuple(sorted(triple))!r} is missing"
                )
        third = frozenset((a, b, c, d, e, f))
        if third not in fischer.cqs_through_line(space, t):
            raise fischer.InvalidSpaceError(
                f"{sorted(third)!r} is not a third quadrilateral through {t!r}"
            )
        return CqPairCase(case="b", def_points=(d, e, f), third_quad=third)
    raise fischer.InvalidSpaceError(
        f"quadrilaterals through {t!r} match neither collinearity pattern"
    )
