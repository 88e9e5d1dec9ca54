"""Miyamoto maps over GF(2^k) and the groups they generate for the quadrilateral.

Every line of the quadrilateral algebra, full or reduced, has an empty 1*1
cell in its fusion law, so each line decomposition upgrades to an integer
grading and every unit lambda gives an automorphism scaling the 1-part by
lambda.  (The reduced w_a4 and w_d4 algebras share that empty cell; a
non-empty 1*1 cell, as in ag23, allows only lambda = 1.)  In characteristic 2
that map is x -> x_0 + lambda x_1 = x + (1+lambda) x_1, that is
tau_{l,lambda} = I + (1+lambda) Pi_1 with Pi_1 the GF(2) projection onto the
1-part along the 0-part; in any GF(2) basis, line l gives I + (1+lambda) E_l
with E_l a GF(2) matrix.  In the frozen basis

    B  = (a, b, l, lx, ly, s)      for the 6-dimensional algebra,
    B' = (a, b, l, lx, ly)         for its quotient by <s>,

these maps are exactly the block matrices

    S(alpha, beta, lambda) = [ I3            0            ]
                             [ M(alpha,beta) diag(l,l,1)  ]

with M(alpha,beta) = [[alpha,0,beta],[0,beta,alpha],[0,0,0]], which compose by

    S(a,b,l) S(c,d,m) = S(a+lc, b+ld, lm).

The automorphism groups over GF(2) all come from one backtracking search,
`_aut_search`, which picks the columns of a frozen-basis matrix one at a time
from a candidate list per column.  Each homomorphism equation e_i e_j
(i <= j) is filed once, under the step max(j, top bit of e_i e_j) at which
every column it reads is chosen, and after column m the search tests exactly
the equations filed under m, through `gf.bilinear` on the frozen-basis
structure constants.  The routes differ only in the candidate lists:
the quotient's columns are pruned by stabilizing A*A and A*(A*A), and the full
algebra's by the annihilator as well, all recomputed from the structure
constants; the unconstrained sweep offers every vector; and the block
cross-check of `aut_count_full` offers one candidate per column, an
automorphism of the quotient extended by a (kappa, lambda, 1) bottom row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import decomp, fischer, matsuo
from .gf import (Field, FieldMatrix, apply_images, bilinear, echelon_basis, lift_matrix,
                 lift_table, lift_vec, vec_from_list)

GF2 = matsuo.GF2

# the four lines of the quadrilateral in the order l1={a,b,c}, l2={b,x,z},
# l3={a,y,z}, l4={c,x,y}, matching the catalog point order (a,b,c,x,y,z)
CQ_LINE_ORDER = ((0, 1, 2), (1, 3, 5), (0, 4, 5), (2, 3, 4))


class MiyamotoCheckError(RuntimeError):
    """A structural check on a Miyamoto group computation failed."""


def _require_cq(alg: matsuo.NilpotentMatsuoAlgebra) -> None:
    cq = fischer.catalog("cq")
    if (alg.space.n_points, alg.space.lines) != (cq.n_points, cq.lines):
        raise ValueError(
            "this operation is specific to the complete quadrilateral "
            "(catalog space 'cq')"
        )


def _cq_algebra(reduced: bool) -> matsuo.NilpotentMatsuoAlgebra:
    """The quadrilateral algebra, or its quotient by <s>."""
    alg = matsuo.build(fischer.catalog("cq"))
    return matsuo.reduce(alg) if reduced else alg


# -- Miyamoto maps -----------------------------------------------------------------


def miyamoto_map(alg: matsuo.NilpotentMatsuoAlgebra, field: Field,
                 dec: decomp.LineDecomposition, lam: int) -> FieldMatrix:
    """I + (1+lambda) Pi_1 in the point basis, checked to be an automorphism.

    Column j of Pi_1 is the 1-part of e_j.  A lifted row of Pi_1 holds 0 or 1
    per k-bit lane, so its integer product with 1+lambda has no carries.
    """
    if lam == 0:
        raise ValueError("lambda must be a unit")
    n = alg.dim
    pi1 = FieldMatrix.from_cols(GF2, n, (dec.split(1 << j)[1] for j in range(n)))
    M = FieldMatrix(field, n, n, ((1 << (i * field.k)) ^ lift_vec(field, r, n) * (1 ^ lam)
                                  for i, r in enumerate(pi1.rows)))
    # M(e_i e_j) = M(e_i) M(e_j), the equation `_aut_search` tests over GF(2)
    cols = [M.col(j) for j in range(n)]
    lifted = lift_table(field, alg.table)
    for i in range(n):
        for j in range(i, n):
            if apply_images(cols, alg.table[i][j]) != bilinear(lifted, cols[i], cols[j]):
                raise ValueError(
                    f"map for line {dec.line} with lambda={lam} is not an "
                    "automorphism; the line decomposition is not graded"
                )
    return M


# -- the frozen quadrilateral basis -------------------------------------------------


def frozen_basis_columns(alg: matsuo.NilpotentMatsuoAlgebra) -> tuple[int, ...]:
    """(a, b, l, lx, ly[, s]) as point-basis masks; 5 columns when reduced."""
    _require_cq(alg)
    ell = matsuo.line_nilpotent(alg, (0, 1, 2))
    cols = [
        1 << 0,
        1 << 1,
        ell,
        matsuo.multiply(alg, ell, 1 << 3),
        matsuo.multiply(alg, ell, 1 << 4),
    ]
    if not alg.reduced:
        cols.append((1 << alg.dim) - 1)
    return tuple(cols)


def frozen_basis_change(alg: matsuo.NilpotentMatsuoAlgebra) -> tuple[FieldMatrix, FieldMatrix]:
    """(C, C^-1) with the frozen basis as the columns of C, over GF(2)."""
    C = FieldMatrix.from_cols(GF2, alg.dim, frozen_basis_columns(alg))
    return C, C.inverse()


def frozen_basis_structure(alg: matsuo.NilpotentMatsuoAlgebra) -> tuple[tuple[int, ...], ...]:
    """Structure constants rewritten in the frozen basis (masks per pair)."""
    cols = frozen_basis_columns(alg)
    Cinv = FieldMatrix.from_cols(GF2, alg.dim, cols).inverse()
    return tuple(
        tuple(Cinv.matvec(matsuo.multiply(alg, ci, cj)) for cj in cols) for ci in cols
    )


def _cq_miyamoto_matrices(alg: matsuo.NilpotentMatsuoAlgebra, field: Field,
                          line, lams) -> list[FieldMatrix]:
    """Miyamoto maps of one quadrilateral line for each lambda, in the frozen basis.

    The line is decomposed, and the basis change inverted, once for all lambdas.
    """
    _require_cq(alg)
    dec = decomp.decompose_line(alg, line)
    C, Cinv = frozen_basis_change(alg)
    C, Cinv = lift_matrix(field, C), lift_matrix(field, Cinv)
    return [Cinv * miyamoto_map(alg, field, dec, lam) * C for lam in lams]


def cq_miyamoto_matrix(alg: matsuo.NilpotentMatsuoAlgebra, field: Field,
                      line, lam: int) -> FieldMatrix:
    """Miyamoto map of the quadrilateral, written in the frozen basis."""
    return _cq_miyamoto_matrices(alg, field, line, (lam,))[0]


# -- S-matrices ---------------------------------------------------------------------


def s_matrix(field: Field, alpha: int, beta: int, lam: int,
             reduced: bool = False) -> FieldMatrix:
    """The block matrix S(alpha, beta, lambda) in the frozen basis."""
    if lam == 0:
        raise ValueError("lambda must be a unit")
    n = 5 if reduced else 6
    rows = [1 << (i * field.k) for i in range(n)]  # identity outside rows 3 and 4
    rows[3] = vec_from_list(field, (alpha, 0, beta, lam))
    rows[4] = vec_from_list(field, (0, beta, alpha, 0, lam))
    return FieldMatrix(field, n, n, rows)


def s_compose(field: Field, p1, p2) -> tuple[int, int, int]:
    """Parameter composition law of the S-matrices."""
    (a, b, l), (c, d, m) = p1, p2
    return (a ^ field.mul(l, c), b ^ field.mul(l, d), field.mul(l, m))


def parse_s_matrix(m: FieldMatrix) -> tuple[int, int, int] | None:
    """Recover (alpha, beta, lambda) if the matrix has the S block shape."""
    n = m.nrows
    if n not in (5, 6) or m.ncols != n:
        return None
    alpha, beta, lam = m.entry(3, 0), m.entry(3, 2), m.entry(3, 3)
    if lam == 0 or m.rows != s_matrix(m.field, alpha, beta, lam, reduced=(n == 5)).rows:
        return None
    return (alpha, beta, lam)


# -- matrix group closure --------------------------------------------------------------


@dataclass(frozen=True)
class MatrixGroup:
    field: Field
    degree: int
    generators: tuple[FieldMatrix, ...]
    elements: tuple[FieldMatrix, ...]

    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, m: FieldMatrix) -> bool:
        return m in set(self.elements)


def group_closure(generators, cap: int = 1_000_000) -> MatrixGroup:
    """BFS closure under multiplication; order is frozen by generator order.

    Elements are found in the order of a FIFO search that multiplies each
    dequeued element x on the right by every distinct generator g, sorted by
    rows.  All the products x * g come from one XOR walk over the rows of x.
    A matrix packs into one int of degree^2 k bits, row i at bit i degree k.
    Slot s, ceil(degree^2 k / 8) bytes wide, belongs to the s-th generator
    g_s, and `wide[i][p]` holds in slot s the matrix whose only nonzero row,
    row i, is image p of g_s (`FieldMatrix.row_images`): the share of bit p
    of row i of x in x * g_s.  So `XOR_i apply_images(wide[i], x_i)` holds
    x * g_s in every slot s, and its little-endian bytes, cut into slots, are
    one `bytes` key per generator.  The FIFO order is that of forming x * g_1,
    x * g_2, ... one at a time, because the keys are read in generator order;
    rows are unpacked, and a FieldMatrix built, only for a new element.
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
        g.inverse()  # raises NoSolution for a singular generator
    row_bits = degree * field.k
    row_mask = (1 << row_bits) - 1
    slot = (degree * row_bits + 7) // 8
    uniq = []
    seen = set()
    for g in sorted(gens, key=lambda m: m.rows):
        y = sum(r << (i * row_bits) for i, r in enumerate(g.rows)).to_bytes(slot, "little")
        if y not in seen:
            seen.add(y)
            uniq.append(g)
    if len(uniq) > cap:
        raise MiyamotoCheckError(f"group closure exceeds cap {cap}")
    width = slot * len(uniq)
    images = [g.row_images() for g in uniq]
    wide = [
        [
            sum(img[p] << (i * row_bits + s * 8 * slot) for s, img in enumerate(images))
            for p in range(row_bits)
        ]
        for i in range(degree)
    ]
    elements = list(uniq)
    queue = deque(g.rows for g in uniq)
    cuts = range(0, width, slot)
    while queue:
        x = queue.popleft()
        acc = 0
        for w, r in zip(wide, x):
            acc ^= apply_images(w, r)
        packed = acc.to_bytes(width, "little")
        for c in cuts:
            y = packed[c:c + slot]
            if y not in seen:
                seen.add(y)
                v = int.from_bytes(y, "little")
                rows = tuple([(v >> (i * row_bits)) & row_mask for i in range(degree)])
                elements.append(FieldMatrix(field, degree, degree, rows))
                queue.append(rows)
                if len(elements) > cap:
                    raise MiyamotoCheckError(f"group closure exceeds cap {cap}")
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


def _drop_last(m: FieldMatrix) -> FieldMatrix:
    k = m.field.k
    keep = (1 << ((m.ncols - 1) * k)) - 1
    return FieldMatrix(m.field, m.nrows - 1, m.ncols - 1,
                       tuple(r & keep for r in m.rows[:-1]))


def cq_miyamoto_group(field: Field, reduced: bool = False,
                      cap: int = 1_000_000) -> MatrixGroup:
    """Closure of all Miyamoto maps of the quadrilateral over the given field."""
    alg = _cq_algebra(reduced)
    gens = [
        m
        for line in CQ_LINE_ORDER
        for m in _cq_miyamoto_matrices(alg, field, line, field.nonzero())
    ]
    return group_closure(gens, cap=cap)


def verify_cq_miyamoto(k: int) -> CqMiyamotoReport:
    """Check the structure of the quadrilateral Miyamoto group over GF(2^k).

    Verifies that every closure element is a uniquely parameterized S-matrix,
    that the order is 2^(2k) (2^k - 1), that restriction to the quotient
    algebra is injective and lands onto its Miyamoto group, and that every
    element fixes the annihilator generator s.  Raises MiyamotoCheckError if
    any check fails.
    """
    if k not in (2, 3, 4):
        raise ValueError("supported field degrees are k in {2, 3, 4}")
    field = Field(k)
    expected = (1 << (2 * k)) * ((1 << k) - 1)
    G = cq_miyamoto_group(field, cap=4 * expected)
    params = [parse_s_matrix(m) for m in G.elements]
    all_s = all(p is not None for p in params)
    unique = len(set(params)) == len(params)
    s_vec = 1 << (5 * field.k)
    fixes_s = all(m.col(5) == s_vec for m in G.elements)

    Gr = cq_miyamoto_group(field, reduced=True, cap=4 * expected)
    restricted = [_drop_last(m) for m in G.elements]
    restriction_injective = len({m.rows for m in restricted}) == len(G.elements)
    onto = {m.rows for m in restricted} == {m.rows for m in Gr.elements}

    report = CqMiyamotoReport(
        field_k=k,
        group_order=G.size(),
        expected_order=expected,
        all_s_matrices=all_s,
        params_unique=unique,
        restriction_injective=restriction_injective,
        restriction_onto_reduced=onto,
        fixes_s=fixes_s,
        reduced_group_order=Gr.size(),
    )
    ok = (
        all_s and unique and fixes_s and restriction_injective and onto
        and G.size() == expected and Gr.size() == expected
    )
    if not ok:
        raise MiyamotoCheckError(f"Miyamoto group checks failed: {report!r}")
    return report


# -- automorphism groups over GF(2) --------------------------------------------------


def _span(vectors, n) -> list[int]:
    """All elements of the GF(2) span, ascending."""
    out = [0]
    for b in echelon_basis(GF2, vectors, n):
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


def _cq_structure(reduced: bool):
    """Frozen-basis structure constants of the quadrilateral algebra or its quotient."""
    return frozen_basis_structure(_cq_algebra(reduced))


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


def _aut_search(structure, domains) -> tuple[FieldMatrix, ...]:
    """Every automorphism whose column j is drawn from domains[j], sorted by rows.

    Columns are chosen one at a time by backtracking; after column m the
    search tests exactly the equations `_equation_schedule` filed under m,
    so every equation is checked once, as soon as it is decidable.
    """
    n = len(structure)
    schedule = _equation_schedule(structure)
    found = []

    def extend(cols):
        m = len(cols)
        if m == n:
            mat = FieldMatrix.from_cols(GF2, n, cols)
            if mat.rank() == n:
                found.append(mat)
            return
        due = schedule[m]
        for c in domains[m]:
            cols.append(c)
            for i, j, target in due:
                if bilinear(structure, cols[i], cols[j]) != apply_images(cols, target):
                    break
            else:
                extend(cols)
            cols.pop()

    extend([])
    found.sort(key=lambda mat: mat.rows)
    return tuple(found)


def aut_enumerate_reduced() -> MatrixGroup:
    """All automorphisms of the 5-dimensional quotient algebra over GF(2).

    Exhausts candidate images column by column in the frozen basis, pruned by
    the requirement that A*A and A*(A*A) are stabilized; both subspaces are
    recomputed from the structure constants.
    """
    structure = _cq_structure(reduced=True)
    n = len(structure)
    aa, aaa = invariant_subspaces(structure, n)
    full = range(1, 1 << n)
    aa, aaa = aa[1:], aaa[1:]  # the spans ascend from 0
    return MatrixGroup(GF2, n, (), _aut_search(structure, [full, full, aa, aaa, aaa]))


def aut_reduced_unconstrained() -> tuple[FieldMatrix, ...]:
    """Cross-check: sweep all 2^25 candidate matrices with no subspace pruning.

    Equivalent to testing every 5x5 matrix over GF(2); the search abandons a
    partial candidate as soon as one homomorphism equation fails, which does
    not change the surviving set.
    """
    structure = _cq_structure(reduced=True)
    n = len(structure)
    return _aut_search(structure, [range(1 << n)] * n)


@dataclass(frozen=True)
class AutFullReport:
    order: int
    reduced_order: int
    block_shape_order: int
    sets_agree: bool
    quadratic_identity: bool
    nu_all_one: bool
    reduced_group: MatrixGroup  # the quotient's Aut, as enumerated


def aut_enumerate_full() -> MatrixGroup:
    """All automorphisms of the 6-dimensional algebra over GF(2).

    Candidates stabilize A*A, A*(A*A) and the annihilator, all recomputed
    from the structure constants; every survivor satisfies the full set of
    homomorphism equations.
    """
    structure = _cq_structure(reduced=False)
    n = len(structure)
    aa, aaa = invariant_subspaces(structure, n)
    full = range(1, 1 << n)
    aa, aaa, ann = aa[1:], aaa[1:], _annihilator_span(structure, n)[1:]  # drop 0
    return MatrixGroup(
        GF2, n, (), _aut_search(structure, [full, full, aa, aaa, aaa, ann])
    )


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
    row; the two routes must agree exactly.
    """
    full_group = aut_enumerate_full()
    reduced_group = aut_enumerate_reduced()
    structure = _cq_structure(reduced=False)
    n = len(structure)
    block_built = []
    for theta in reduced_group.elements:
        for kappa in (0, 1):
            for lam in (0, 1):
                # bottom row (kappa, lambda, 0, 0, 0, nu) with nu = 1
                cand = FieldMatrix(GF2, n, n, theta.rows + (kappa | (lam << 1) | (1 << 5),))
                block_built += _aut_search(structure, [[cand.col(j)] for j in range(n)])
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
