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
Semisimple lines need no product at all.  Coordinates in the two bases are
read by the columns of C = P^-1 (P has the bases as columns): rows of (P^T)^-1.

The fusion table records, for each pair of parts, which parts their products
meet.  It is read from one packed tensor per line: for each basis element
e_a, one integer with an n-bit slot per basis vector v_j of the two parts,
holding the coordinates of e_a * v_j.  The tensor is built in one pass over
the lines of the space, not from ad(e_a) or the table of structure
constants: two distinct points of a line L = {x, y, z} multiply to its mask
m_L, so e_x * v is the sum of (v_y + v_z) m_L over the lines through x.
Each line's mask is put into coordinates once per line decomposed, as the
XOR of three columns of the coordinate map.  One carry-free integer product
per line, by the XOR of its three points' slot patterns, is added to the
rows of x, y and z, and one more product per point then removes that
point's own share of the products of its lines.  In the quotient by the
all-points sum, the dropped point has no coordinate of its own, and its
column is the XOR of the kept ones.  XOR-ing the tensor over the set bits
of a part's basis vector u gives the coordinates of all products u * v_j at
once, and masks pick out the cells.  Because the product is commutative,
the pairs of a diagonal cell can be read as a full block: its two halves
hold the same products.

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
theorem.  Each sigma_y is turned once into a permutation of the line ids,
and that permutation serves both steps: the check moves a line mask to the
mask of its image line, and compares each row of the table as a whole with
the row of its image; the orbit walk reads the image ids with no lookup per
step.  An entry that is not a line mask, or a line whose image is not a
line, is moved point by point, so the check accepts and rejects exactly the
tables that an entry-by-entry check would, and names the same first pair.
classify_space stays per line: its witness is the first lexicographic pair
of an echelon basis, which a permutation of the basis does not preserve.
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
    coord_cols: tuple[int, ...]  # columns of C = P^-1, P = [basis0 | basis1] as columns

    def gen_dims(self) -> tuple[int, int]:
        return (len(self.basis0), len(self.basis1))

    def coords(self, v: int) -> int:
        return apply_images(self.coord_cols, v)

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
    return LineDecomposition(
        line=tuple(sorted(line)),
        dim=n,
        basis0=basis0,
        basis1=basis1,
        eigen0_dim=eigen0,
        eigen1_dim=len(basis1),
        semisimple=(eigen0 == target),
        coord_cols=FieldMatrix(GF2, n, n, basis0 + basis1).inverse().rows,
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

    With n = dim, d0 = len(basis0), C the coordinate map (its columns are
    dec.coord_cols) and v_j the j-th vector of basis0 + basis1, G[a] holds
    the coordinates of every product e_a * v_j, laid out column-major: slot
    j (bits j*n to j*n + n - 1) holds C (e_a * v_j).  It is built from the
    lines of the space in one pass, not from alg.table: two distinct points
    of a line L = {x, y, z} multiply to its mask m_L, so
    e_x * v = sum over the lines L through x of (v_y + v_z) m_L.  With R[b]
    holding bit j*n for each v_j with coordinate b, and c_L = C m_L =
    K[x] ^ K[y] ^ K[z] for the columns K of C, each line forms one product
    t_L = (R[x] ^ R[y] ^ R[z]) * c_L, XORs it into G[x], G[y] and G[z], and
    adds c_L to S[x], S[y] and S[z].  The set bits of R[b] lie n apart and
    c_L < 2^n, so the integer product places disjoint copies and cannot
    carry, and it distributes over the XOR: (R_L ^ R[x]) * c_L =
    t_L ^ R[x] * c_L.  So once every line is in, G[a] ^= R[a] * S[a] removes
    the R[a] term of each line through a, S[a] being the XOR of their c_L:
    one product per line and one per point, not three per line.  In the
    quotient (alg.reduced) the dropped point N - 1 has no coordinate, so
    R[N - 1] = 0 and no part vector reads its row G[N - 1]; its image is the
    sum of the kept points, so its column of C is the XOR of theirs.

    For a basis vector u of either part, XOR-ing G over the set bits of u
    gives all the products u * v_j at once; four masks (the slots of each
    part crossed with the coordinate lanes below or from d0) read off the
    cells.  A diagonal cell reads its whole block rather than the pairs
    j >= i: the product is commutative (matsuo.build asserts it), so the
    block is symmetric and both halves hold the same products.

    The witness is the first (lexicographic) 1-part basis pair whose product
    has a nonzero 1-component, read as the lowest 1-lane bit in the 1-part
    slots of the first u that has one; a graded line has none, at no cost.

    alg.table comes only from matsuo.build and matsuo.reduce, and both fill
    it from these same lines, so the tensor reads the lines instead.  The
    decomposition still reads the table, and so do the pairwise oracle of
    the tests and the matsuo.multiply cross-check of the witness.
    """
    n = alg.dim
    d0 = len(dec.basis0)
    vs = dec.basis0 + dec.basis1
    space = alg.space
    R = [0] * space.n_points  # a dropped point has no coordinate: its slot stays 0
    for j, v in enumerate(vs):
        for b in vec_support(v):
            R[b] |= 1 << (j * n)
    K = list(dec.coord_cols)
    if alg.reduced:
        dropped = 0  # the dropped point is the sum of the kept ones
        for k in K:
            dropped ^= k
        K.append(dropped)
    G = [0] * space.n_points
    S = [0] * space.n_points  # per point: XOR of c_L over the lines through it
    for x, y, z in space.lines:
        c = K[x] ^ K[y] ^ K[z]
        t = (R[x] ^ R[y] ^ R[z]) * c
        G[x] ^= t
        G[y] ^= t
        G[z] ^= t
        S[x] ^= c
        S[y] ^= c
        S[z] ^= c
    for a, r in enumerate(R):
        G[a] ^= r * S[a]
    lane0 = (1 << d0) - 1
    lane1 = ((1 << n) - 1) ^ lane0
    slots0 = sum(1 << (j * n) for j in range(d0))
    slots1 = sum(1 << (j * n) for j in range(d0, n))
    m00, m01 = slots0 * lane0, slots1 * lane0
    m10, m11 = slots0 * lane1, slots1 * lane1
    c00 = c01 = c11 = 0  # bit 0 / bit 1: the cell contains label 0 / 1
    for u in dec.basis0:
        g = apply_images(G, u)
        c00 |= bool(g & m00) | bool(g & m10) << 1
        c01 |= bool(g & m01) | bool(g & m11) << 1
    witness = None
    for u in dec.basis1:
        g = apply_images(G, u)
        hit = g & m11
        c11 |= bool(g & m01) | bool(hit) << 1
        if witness is None and hit:
            # no set slot lies at or below u's own: u u = 0, and by commutativity
            # an earlier u' with u' u in the 1-part would have been taken
            v = vs[((hit & -hit).bit_length() - 1) // n]
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


def strong_law(table: FusionTable) -> bool:
    """Z/2Z-graded with an empty 1*1 cell: A0 A0 <= A0, A0 A1 <= A1, A1 A1 = 0.

    Equivalently, tau(x) = x_0 + lambda x_1 is an automorphism for one, and so
    for every, lambda not in {0, 1} of every GF(2^k), k >= 2: the parts of
    tau(x) tau(y) = x_0 y_0 + lambda (x_0 y_1 + x_1 y_0) + lambda^2 x_1 y_1 and
    tau(xy) = (xy)_0 + lambda (xy)_1 differ by (A0 A0)_1, (A0 A1)_0 and A1 A1
    times 1+lambda, (1+lambda)^2 or lambda (1+lambda), never 0.
    """
    return is_z2_graded(table) and not table.entry(1, 1)


@dataclass(frozen=True)
class LineVerdict:
    """A line's decomposition and fusion table; its line, grading and witness
    are read from them."""

    decomposition: LineDecomposition
    fusion: FusionTable

    @property
    def line(self) -> tuple[int, int, int]:
        return self.decomposition.line

    @property
    def z2_graded(self) -> bool:
        return is_z2_graded(self.fusion)

    @property
    def witness(self) -> Witness | None:
        return self.fusion.witness

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


def line_verdict(alg: matsuo.NilpotentMatsuoAlgebra, line) -> LineVerdict:
    dec = decompose_line(alg, line)
    return LineVerdict(dec, fusion_table(alg, dec))


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
    and the first pair, in row-major order, whose entry it moves wrongly.
    Only the full algebra is accepted: the reduced basis drops a point, which
    a reflection may move.

    Per reflection sigma_y the id of the image of every line is found once: a
    line through y, or with no point collinear with y, is fixed.  The check
    moves a line mask to the mask of its image line, and any other entry,
    or a line whose image is not a line, point by point; it compares whole
    rows, table[i] moved against table[sigma_y(i)] read at the images.  The
    orbit walk reads the same line permutations.
    """
    if alg.reduced:
        raise ValueError("orbit verdicts are defined on the full algebra")
    space, table, n = alg.space, alg.table, alg.dim
    masks = space.line_masks
    # each distinct entry gets a code: a line mask its line id, any other
    # entry a code after them, so a row is read as a list of codes
    code = {m: k for k, m in enumerate(masks)}
    others = list(set().union(*table) - code.keys())
    code.update((m, len(masks) + e) for e, m in enumerate(others))
    coded = [list(map(code.__getitem__, row)) for row in table]
    perms = []
    for y in range(n):
        cm = space.collinear[y]
        images = [fischer.wedge(space, y, x) if (cm >> x) & 1 else x for x in range(n)]
        # sigma_y swaps its points in pairs, so a line mapped to line m has m
        # mapped back to it: each pair of lines costs one lookup
        perm = list(range(len(masks)))
        for k, t in enumerate(space.lines):
            if perm[k] != k or not masks[k] & cm or (masks[k] >> y) & 1:
                continue
            try:
                m = space.line_id([images[p] for p in t])
            except ValueError:
                perm[k] = None
                continue
            perm[k], perm[m] = m, k
        moved = [  # image of the entry of each code
            mask_from_support(images[p] for p in space.lines[k]) if m is None else masks[m]
            for k, m in enumerate(perm)
        ] + [mask_from_support(images[p] for p in vec_support(m)) for m in others]
        for i in range(n):
            want = list(map(moved.__getitem__, coded[i]))
            got = list(map(table[images[i]].__getitem__, images))
            if got != want:
                j = next(j for j in range(n) if got[j] != want[j])
                raise RuntimeError(
                    f"the reflection in point {y} does not preserve the "
                    f"structure constants at pair ({i}, {j})"
                )
        perms.append((perm, images))
    seen = [False] * len(space.lines)
    out = []
    for start, rep in enumerate(space.lines):
        if seen[start]:
            continue
        seen[start] = True
        members, todo = [start], [start]
        while todo:
            k = todo.pop()
            for perm, images in perms:
                m = perm[k]
                if m is None:  # raises: the image is not a line
                    m = space.line_id([images[p] for p in space.lines[k]])
                if not seen[m]:
                    seen[m] = True
                    members.append(m)
                    todo.append(m)
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
    if not span_equal(sb.zero_vectors(), dec.basis0, alg.dim):
        raise RuntimeError("structured 0-part does not span the 0-eigenspace")
    if not span_equal(sb.one_vectors(), dec.basis1, alg.dim):
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
