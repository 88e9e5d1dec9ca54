import hashlib
import itertools
import random

import pytest

from matsuo2 import decomp, fischer, matsuo, miyamoto
from matsuo2.gf import (Field, FieldMatrix, NoSolution, apply_images, bilinear, lift_matrix,
                        vec_support)
from matsuo2.miyamoto import (
    CQ_LINE_ORDER,
    MiyamotoCheckError,
    _AutSearch,
    _ad_rows,
    _annihilator_span,
    _equation_schedule,
    _product_row,
    aut_count_full,
    aut_enumerate_full,
    aut_enumerate_reduced,
    aut_reduced_unconstrained,
    cq_miyamoto_maps,
    group_closure,
    miyamoto_map,
    frozen_basis_structure,
    parse_s_matrix,
    s_compose,
    s_matrix,
    verify_cq_miyamoto,
)

GF2 = Field(1)
GF4 = Field(2)


@pytest.fixture(scope="module")
def cq_algebra():
    return matsuo.build(fischer.catalog("cq"))


def test_frozen_basis_multiplication_table(cq_algebra):
    S = frozen_basis_structure(cq_algebra)
    a, b, l, lx, ly, s = range(6)
    assert S[a][b] == 1 << l
    assert S[a][ly] == 1 << lx
    assert S[b][lx] == 1 << ly
    assert S[l][lx] == 1 << lx
    assert S[l][ly] == 1 << ly
    nonzero = {(i, j) for i in range(6) for j in range(6) if S[i][j]}
    assert nonzero == {
        (a, b), (b, a), (a, ly), (ly, a), (b, lx), (lx, b),
        (l, lx), (lx, l), (l, ly), (ly, l),
    }


def test_miyamoto_maps_have_s_form_over_gf4(cq_algebra):
    expected_flags = [(0, 0), (1, 0), (0, 1), (1, 1)]
    maps = iter(cq_miyamoto_maps(cq_algebra, GF4))
    for ea, eb in expected_flags:
        for lam in GF4.nonzero():
            one_plus = 1 ^ lam
            assert parse_s_matrix(next(maps)) == (
                one_plus if ea else 0, one_plus if eb else 0, lam
            )
    assert next(maps, None) is None


def test_miyamoto_fixes_line_and_moves_off_points(cq_algebra):
    verdict = decomp.line_verdict(cq_algebra, (0, 1, 2))
    lam = 2
    tau = miyamoto_map(verdict, GF4, lam)
    for p in (0, 1, 2):
        assert tau.col(p) == 1 << (p * 2)  # a, b, c fixed
    ell = matsuo.line_nilpotent(cq_algebra, (0, 1, 2))
    for p in (3, 4, 5):
        lp = matsuo.multiply(cq_algebra, ell, 1 << p)
        expect = 1 << (p * 2)
        for i in range(6):
            if (lp >> i) & 1:
                expect ^= (1 ^ lam) << (i * 2)
        assert tau.col(p) == expect


def test_lambda_one_is_identity(cq_algebra):
    verdict = decomp.line_verdict(cq_algebra, (0, 1, 2))
    assert miyamoto_map(verdict, GF2, 1) == FieldMatrix.identity(GF2, 6)
    assert miyamoto_map(verdict, GF4, 1) == FieldMatrix.identity(GF4, 6)


def test_characters_compose_per_line(cq_algebra):
    verdict = decomp.line_verdict(cq_algebra, (1, 3, 5))
    maps = {lam: miyamoto_map(verdict, GF4, lam) for lam in GF4.nonzero()}
    for lam in GF4.nonzero():
        for mu in GF4.nonzero():
            assert maps[lam] * maps[mu] == maps[GF4.mul(lam, mu)]


def test_nontrivial_scaling_rejected_on_z2_only_space():
    alg = matsuo.build(fischer.catalog("w_a4"))
    verdict = decomp.line_verdict(alg, alg.space.lines[0])
    miyamoto_map(verdict, GF4, 1)  # identity is always fine
    with pytest.raises(ValueError, match="not an automorphism"):
        miyamoto_map(verdict, GF4, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_miyamoto_maps_refuse_lambda_outside_the_field(cq_algebra, k):
    """0 is no unit, and -1, 2^k and 2^k + 3 are no element of GF(2^k): the
    map refuses them, and every unit still gives a matrix whose rows stay
    inside their n lanes."""
    f = Field(k)
    verdict = decomp.line_verdict(cq_algebra, CQ_LINE_ORDER[0])
    with pytest.raises(ValueError, match="^lambda must be a unit$"):
        miyamoto_map(verdict, f, 0)
    for lam in (-1, 1 << k, (1 << k) + 3):
        message = rf"^lambda={lam} is not an element of GF\({1 << k}\)$"
        with pytest.raises(ValueError, match=message):
            miyamoto_map(verdict, f, lam)
    maps = [miyamoto_map(verdict, f, lam) for lam in f.nonzero()]
    for m in maps + cq_miyamoto_maps(cq_algebra, f):
        assert min(m.rows) >= 0 and max(m.rows) < 1 << (6 * k)


def _lifted_conjugation_maps(alg, field):
    """Reference: C^-1 tau C over GF(2^k) for each frame line and unit lambda,
    C (the frozen columns in the point basis) and C^-1 lifted from GF(2) and
    tau the point-basis `miyamoto_map`."""
    cols, lines = miyamoto._frame(alg)
    C = FieldMatrix.from_cols(GF2, alg.dim, cols)
    C, Cinv = lift_matrix(field, C), lift_matrix(field, C.inverse())
    return [Cinv * miyamoto_map(decomp.line_verdict(alg, line), field, lam) * C
            for line in lines for lam in field.nonzero()]


@pytest.mark.parametrize("k", range(1, 9))
def test_cq_miyamoto_maps_match_the_lifted_conjugation(cq_algebra, relabelled, k):
    """The one GF(2) conjugation per line gives the maps that lifting C and
    C^-1 and forming two GF(2^k) products per map gives, on the catalog cq and
    three relabellings, full and reduced."""
    f = Field(k)
    spaces = [cq_algebra.space] + [relabelled(cq_algebra.space, seed)[0] for seed in (41, 42, 43)]
    for sp in spaces:
        alg = matsuo.build(sp)
        for a in (alg, matsuo.reduce(alg)):
            maps = cq_miyamoto_maps(a, f)
            assert len(maps) == 4 * (f.order - 1)
            assert maps == _lifted_conjugation_maps(a, f), (sp.lines, a.reduced)


# sha256 prefix of the rows of every miyamoto_map matrix of the quadrilateral,
# over each line of CQ_LINE_ORDER and each unit lambda in turn
_MIYAMOTO_MAP_DIGESTS = {
    (2, False): "ccf19c8a132b12d7",
    (2, True): "e4189dc24cfec1aa",
    (3, False): "26cd005b256bae2b",
    (3, True): "ea967a88c844f3d2",
    (4, False): "e644dfb1581c6ce2",
    (4, True): "eca13dc1892db668",
}


@pytest.mark.parametrize("k,reduced", sorted(_MIYAMOTO_MAP_DIGESTS))
def test_miyamoto_map_matrices_pinned(cq_algebra, k, reduced):
    f = Field(k)
    alg = matsuo.reduce(cq_algebra) if reduced else cq_algebra
    h = hashlib.sha256()
    for line in CQ_LINE_ORDER:
        verdict = decomp.line_verdict(alg, line)
        for lam in f.nonzero():
            h.update(repr(miyamoto_map(verdict, f, lam).rows).encode())
    assert h.hexdigest()[:16] == _MIYAMOTO_MAP_DIGESTS[k, reduced]


def _eigenbasis_map(field, dec, lam):
    """Reference: P D P^-1, P the eigenbasis and D = diag(1, .., 1, lam, .., lam)."""
    n = dec.dim
    P = FieldMatrix.from_cols(GF2, n, dec.basis0 + dec.basis1)
    d0 = len(dec.basis0)
    D = FieldMatrix(field, n, n, ((1 if i < d0 else lam) << (i * field.k) for i in range(n)))
    C = FieldMatrix.from_cols(GF2, n, dec.coord_cols)
    return lift_matrix(field, P) * D * lift_matrix(field, C)


def test_miyamoto_map_matches_eigenbasis_reference(cq_algebra):
    rng = random.Random(1515)
    cases = []
    for k in range(1, 9):
        f = Field(k)
        units = list(f.nonzero())[1:]
        lams = [1] + rng.sample(units, min(6, len(units)))
        cases += [(alg, f, lams) for alg in (cq_algebra, matsuo.reduce(cq_algebra))]
    w_a4 = matsuo.reduce(matsuo.build(fischer.catalog("w_a4")))
    cases += [(w_a4, Field(k), list(Field(k).nonzero())) for k in (2, 3)]
    for alg, f, lams in cases:
        for line in alg.space.lines:
            verdict = decomp.line_verdict(alg, line)
            for lam in lams:
                assert miyamoto_map(verdict, f, lam) == _eigenbasis_map(
                    f, verdict.decomposition, lam), (
                    alg.reduced, f.k, line, lam
                )


def _per_pair_check_fails(alg, lifted, M) -> bool:
    """Whether M(e_i e_j) != M(e_i) M(e_j) for some i <= j: the automorphism
    check of M over GF(2^k), each product read from the lifted table."""
    n = alg.dim
    cols = [M.col(j) for j in range(n)]
    return any(
        apply_images(cols, alg.table[i][j]) != bilinear(lifted, cols[i], cols[j])
        for i in range(n) for j in range(i, n)
    )


def _assert_map_raises_iff_check_fails(lifted, alg, field, lams):
    for line in alg.space.lines:
        verdict = decomp.line_verdict(alg, line)
        dec = verdict.decomposition
        for lam in lams:
            fails = _per_pair_check_fails(alg, lifted, _eigenbasis_map(field, dec, lam))
            case = (alg.space.meta.name, alg.reduced, field.k, line, lam)
            try:
                miyamoto_map(verdict, field, lam)
            except ValueError as exc:
                assert fails, case
                assert str(exc) == (
                    f"map for line {dec.line} with lambda={lam} is not an "
                    "automorphism; the line lacks the strong law (Z/2Z-graded "
                    "with an empty 1*1 cell)"
                )
            else:
                assert not fails, case


# the catalog algebras every line of which has the strong law
STRONG_LAW_SPACES = {("cq", False), ("cq", True), ("w_a4", True), ("w_d4", True)}


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_miyamoto_map_raises_iff_per_pair_check_fails(algebras, reduced_algebras, lift_table,
                                                      name, reduced):
    # every lambda on the strong-law algebras; elsewhere lambda = 1 and one
    # seeded lambda not in {0, 1} per k, since the verdict of strong_law
    # does not depend on lambda
    alg = (reduced_algebras if reduced else algebras)[name]
    rng = random.Random(1716)
    for k in (2, 3):
        f = Field(k)
        lams = (f.nonzero() if (name, reduced) in STRONG_LAW_SPACES
                else [1, rng.randrange(2, f.order)])
        _assert_map_raises_iff_check_fails(lift_table(f, alg.table), alg, f, lams)


def test_miyamoto_map_raises_iff_per_pair_check_fails_k4_to_8(algebras, reduced_algebras,
                                                              lift_table):
    rng = random.Random(1717)
    for k in range(4, 9):
        f = Field(k)
        lams = rng.sample(range(2, f.order), 4)
        for alg in (algebras["cq"], reduced_algebras["cq"], reduced_algebras["w_a4"]):
            _assert_map_raises_iff_check_fails(lift_table(f, alg.table), alg, f, lams)


def test_strong_law_census(algebras, reduced_algebras):
    """The lines with the strong law are every line of cq, full and reduced,
    and of the reduced w_a4 and w_d4; no line of any other catalog algebra."""
    for reduced, algs in ((False, algebras), (True, reduced_algebras)):
        for name, alg in algs.items():
            laws = {
                decomp.strong_law(decomp.fusion_table(alg, decomp.decompose_line(alg, t)))
                for t in alg.space.lines
            }
            assert laws == {(name, reduced) in STRONG_LAW_SPACES}, (name, reduced)


def test_s_matrix_composition_law():
    rng = random.Random(7)
    for k in (2, 3):
        f = Field(k)
        for _ in range(100):
            p1 = (rng.randrange(f.order), rng.randrange(f.order), rng.randrange(1, f.order))
            p2 = (rng.randrange(f.order), rng.randrange(f.order), rng.randrange(1, f.order))
            assert s_matrix(f, *p1) * s_matrix(f, *p2) == s_matrix(f, *s_compose(f, p1, p2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_s_matrix_refuses_scalars_outside_the_field(k):
    """alpha or beta outside 0..2^k - 1, lambda = 0 and lambda >= 2^k are
    refused; every other triple gives an S-matrix."""
    f = Field(k)
    q = f.order
    with pytest.raises(ValueError, match="^lambda must be a unit$"):
        s_matrix(f, 0, 0, 0)
    for bad in (-1, q, q + 3):
        cases = (((bad, 0, 1), "alpha"), ((0, bad, 1), "beta"), ((0, 0, bad), "lambda"))
        for params, name in cases:
            message = rf"^{name}={bad} is not an element of GF\({q}\)$"
            for reduced in (False, True):
                with pytest.raises(ValueError, match=message):
                    s_matrix(f, *params, reduced=reduced)
    for params in itertools.product(range(q), range(q), f.nonzero()):
        assert parse_s_matrix(s_matrix(f, *params)) == params


def test_s_matrix_specific_gf4_product():
    w = 2
    lhs = s_matrix(GF4, 1, 0, w) * s_matrix(GF4, 0, 1, w)
    assert parse_s_matrix(lhs) == (1, w, GF4.mul(w, w))


def test_s_matrix_inverse_pair():
    f = Field(3)
    for lam in f.nonzero():
        prod = s_matrix(f, 0, 0, lam) * s_matrix(f, 0, 0, f.inv(lam))
        assert prod == FieldMatrix.identity(f, 6)


def test_parse_s_matrix_rejects_non_s():
    assert parse_s_matrix(FieldMatrix.zeros(GF4, 6, 6)) is None
    m = s_matrix(GF4, 1, 1, 2)
    rows = list(m.rows)
    rows[0] ^= 1 << (1 * 2)  # stain the identity block
    assert parse_s_matrix(FieldMatrix(GF4, 6, 6, rows)) is None
    # row 0 holds, past its 6 lanes, the diagonal 1 that row 1 lacks: packed
    # at row stride 12 bits the rows would read as S, but no row may hold it
    rows = list(s_matrix(GF4, 0, 0, 1).rows)
    rows[0] |= 1 << (12 + 2)
    rows[1] ^= 1 << 2
    assert parse_s_matrix(FieldMatrix(GF4, 6, 6, rows)) is None


def test_group_closure_single_involution():
    m = s_matrix(GF2, 1, 0, 1)
    g = group_closure([m])
    assert g.size() == 2
    assert FieldMatrix.identity(GF2, 6) in g


def test_group_closure_cap():
    gens = [s_matrix(GF4, 1, 0, 1), s_matrix(GF4, 0, 0, 2)]
    with pytest.raises(MiyamotoCheckError, match="cap"):
        group_closure(gens, cap=3)


def test_group_closure_cap_counts_the_generators():
    gens = [FieldMatrix.identity(GF2, 6), s_matrix(GF2, 1, 0, 1)]
    with pytest.raises(MiyamotoCheckError, match="exceeds cap 1"):
        group_closure(gens, cap=1)
    assert group_closure(gens, cap=2).size() == 2


def test_group_closure_rejects_mixed_fields():
    gens = [s_matrix(GF4, 1, 0, 1), s_matrix(Field(3), 1, 0, 1)]
    with pytest.raises(ValueError, match="mixed fields"):
        group_closure(gens)


def test_group_closure_rejects_mixed_degrees():
    gens = [s_matrix(GF4, 1, 0, 1), s_matrix(GF4, 1, 0, 1, reduced=True)]
    with pytest.raises(ValueError, match="dimension mismatch"):
        group_closure(gens)
    with pytest.raises(ValueError, match="dimension mismatch"):
        group_closure([FieldMatrix.zeros(GF4, 2, 3)])


def _distinct_sorted(gens):
    """The distinct generators, sorted by rows: the closure's first elements."""
    return tuple(dict.fromkeys(sorted(gens, key=lambda m: m.rows)))


def _reference_closure(gens):
    """Plain FIFO closure with x * g: the group, by its definition."""
    uniq = _distinct_sorted(gens)
    elements = list(uniq)
    seen = set(uniq)
    head = 0
    while head < len(elements):
        x = elements[head]
        head += 1
        for g in uniq:
            y = x * g
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return uniq, tuple(elements)


def _random_invertible(rng, f, n):
    while True:
        m = FieldMatrix.from_rows(
            f, [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
        )
        try:
            return m, m.inverse()
        except NoSolution:
            pass


def _permutation_matrix(f, perm):
    return FieldMatrix.from_rows(
        f, [[1 if j == perm[i] else 0 for j in range(len(perm))] for i in range(len(perm))]
    )


def _small_generating_sets(rng, f):
    """Seeded generating sets of small groups: (degree, generators) pairs."""
    cases = [(1, [FieldMatrix.from_rows(f, [[rng.randrange(1, f.order)]]) for _ in range(2)])]
    for n in (2, 3, 5):
        # a random conjugate of a permutation group, so entries are dense
        P, Pinv = _random_invertible(rng, f, n)
        gens = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            gens.append(Pinv * _permutation_matrix(f, perm) * P)
        gens.append(gens[0])  # a duplicate, dropped by the closure
        cases.append((n, gens))
    unitri = [
        FieldMatrix.from_rows(f, [[1 if i == j else (rng.randrange(f.order) if j > i else 0)
                                   for j in range(3)] for i in range(3)])
        for _ in range(3)
    ]
    cases.append((3, unitri + [FieldMatrix.identity(f, 3)]))
    for _, gens in cases:
        rng.shuffle(gens)
    return cases


def _packed(m):
    """A matrix as the closure packs it: one int, row i at bit i n k."""
    row_bits = m.ncols * m.field.k
    return sum(r << (i * row_bits) for i, r in enumerate(m.rows))


def _assert_closure_matches_reference(gens, expected=None):
    """group_closure(gens) holds each element of the reference closure (or of
    `expected`, a set of matrices, when given) once, the distinct generators
    sorted by rows first, and every later element z is x * g for an earlier
    element x and a distinct generator g.  The closure packs the same list,
    at cap |G| - 1 raises its error, and at cap |G| finds the same elements."""
    g = group_closure(gens)
    uniq = _distinct_sorted(gens)
    assert g.generators == uniq
    assert g.elements[:len(uniq)] == uniq
    assert len(set(g.elements)) == len(g.elements)
    assert set(g.elements) == (set(_reference_closure(gens)[1]) if expected is None else expected)
    position = {m: i for i, m in enumerate(g.elements)}
    inverses = [s.inverse() for s in uniq]
    for i in range(len(uniq), g.size()):
        assert any(position[g.elements[i] * s] < i for s in inverses)
    found = miyamoto._certified_closure(gens, 1_000_000)
    assert found == (list(uniq), [_packed(m) for m in g.elements])
    order = g.size()
    for close in (group_closure, miyamoto._certified_closure):
        with pytest.raises(MiyamotoCheckError, match=f"^group closure exceeds cap {order - 1}$"):
            close(gens, order - 1)
    assert miyamoto._certified_closure(gens, order) == found
    assert group_closure(gens, cap=order).elements == g.elements
    return g


@pytest.mark.parametrize("k", range(1, 9))
def test_group_closure_packed_walk_matches_reference(k):
    f = Field(k)
    rng = random.Random(8000 + k)
    for degree, gens in _small_generating_sets(rng, f):
        assert _assert_closure_matches_reference(gens).degree == degree


def _conjugated_permutations(rng, f, n, cycles):
    """P^-1 pi P for a random invertible P and each pi in `cycles`, each a
    cycle on the points of one random arrangement of the n letters."""
    P, Pinv = _random_invertible(rng, f, n)
    points = list(range(n))
    rng.shuffle(points)
    out = []
    for cycle in cycles:
        perm = list(range(n))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[points[a]] = points[b]
        out.append(Pinv * _permutation_matrix(f, perm) * P)
    return out


def _certificate_sets(rng, f):
    """Seeded generating sets of Sym(4) and Sym(5) for the closure's
    certifying subset Y: the adjacent transpositions, where no generator is
    a product of two, so Y is all of them; and an n-cycle g with g^2, g^3
    and a transposition, where any two of the family in Y reach the third
    by a product, so Y is smaller."""
    whole, cut = [], []
    for n in (4, 5):
        whole.append(_conjugated_permutations(rng, f, n, [[i, i + 1] for i in range(n - 1)]))
        g, t = _conjugated_permutations(rng, f, n, [list(range(n)), [0, 1]])
        cut.append([g, g * g, g * g * g, t])
    for gens in whole + cut:
        rng.shuffle(gens)
    return whole, cut


@pytest.mark.parametrize("k", range(1, 5))
def test_group_closure_certificate_matches_reference(k):
    f = Field(k)
    rng = random.Random(8100 + k)
    for _ in range(3):
        whole, cut = _certificate_sets(rng, f)
        for gens in whole:
            assert not any(a * b in gens for a in gens for b in gens)
        for gens in cut:
            assert any(a * b in gens for a in gens for b in gens)
        for gens in whole + cut:
            assert _assert_closure_matches_reference(gens).size() in (24, 120)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("reduced", [False, True])
def test_certified_closure_is_the_group_closure_set(cq_algebra, k, reduced):
    f = Field(k)
    alg = matsuo.reduce(cq_algebra) if reduced else cq_algebra
    gens = cq_miyamoto_maps(alg, f)
    every_s = {s_matrix(f, a, b, lam, reduced) for a in range(f.order)
               for b in range(f.order) for lam in f.nonzero()}
    _assert_closure_matches_reference(gens, every_s)


# Distinct Miyamoto maps of the quadrilateral over GF(2^k), full or reduced:
# 2^k - 2 per line for lambda != 1, and the identity for lambda = 1
_CQ_DISTINCT_MAPS = {2: 9, 3: 25, 4: 57}


def _assert_each_generator_walks_once(monkeypatch, k, run):
    """Each closure that run() makes, run() returning their orders, makes one
    wide walk per distinct generator and |G| narrow walks; returns the
    closures' degrees.  A walk is one `apply_images` call, and a wide one
    reads a table whose entries span one slot per distinct generator."""
    closures = []  # (degree, table bit lengths of its walks), one per closure
    close = miyamoto._certified_closure

    def counted_close(gens, cap):
        closures.append((gens[0].nrows, []))
        return close(gens, cap)

    def walk(images, row):
        closures[-1][1].append(max(images).bit_length())
        return apply_images(images, row)

    monkeypatch.setattr(miyamoto, "_certified_closure", counted_close)
    monkeypatch.setattr(miyamoto, "apply_images", walk)
    orders = run()
    distinct = _CQ_DISTINCT_MAPS[k]
    assert len(orders) == len(closures)
    for (n, bits), order in zip(closures, orders):
        slot_bits = 8 * ((n * n * k + 7) // 8)
        spans = [-(-b // slot_bits) for b in bits]
        wide = spans.count(distinct)
        assert wide == distinct
        assert len(spans) - wide == order
        assert max(s for s in spans if s != distinct) < distinct
    return [n for n, _ in closures]


@pytest.mark.parametrize("k", sorted(_CQ_DISTINCT_MAPS))
def test_verify_cq_miyamoto_walks_each_generator_once(monkeypatch, k):
    """Each of the check's two closures, full then reduced, makes one wide
    walk per distinct generator and |G| narrow walks."""
    def run():
        rep = verify_cq_miyamoto(k)
        assert rep.group_order == rep.reduced_group_order
        return [rep.group_order, rep.reduced_group_order]

    assert _assert_each_generator_walks_once(monkeypatch, k, run) == [6, 5]


@pytest.mark.parametrize("k", sorted(_CQ_DISTINCT_MAPS))
@pytest.mark.parametrize("reduced", [False, True])
def test_group_closure_stops_at_the_group_order(cq_algebra, monkeypatch, k, reduced):
    """`group_closure` walks as the check does: it finds |G| = 2^2k (2^k - 1)
    by one wide walk per distinct generator and one narrow walk per element,
    and walks no further; over GF(16) that is 57 wide walks, not one per
    element of the 3840."""
    f = Field(k)
    alg = matsuo.reduce(cq_algebra) if reduced else cq_algebra
    gens = cq_miyamoto_maps(alg, f)

    def run():
        g = group_closure(gens)
        assert g.size() == (1 << (2 * k)) * ((1 << k) - 1)
        return [g.size()]

    assert _assert_each_generator_walks_once(monkeypatch, k, run) == [alg.dim]


def test_group_closure_rejects_a_singular_generator(monkeypatch):
    """Each distinct generator is inverted once, so a singular one raises."""
    with pytest.raises(NoSolution):
        group_closure([s_matrix(GF4, 1, 0, 2), FieldMatrix.zeros(GF4, 6, 6)])
    with pytest.raises(NoSolution):
        group_closure([FieldMatrix.zeros(GF4, 6, 6)] * 2, cap=1)
    inverted = []
    inverse = FieldMatrix.inverse
    monkeypatch.setattr(FieldMatrix, "inverse", lambda m: inverted.append(m) or inverse(m))
    gens = [s_matrix(GF4, 1, 0, 2), s_matrix(GF4, 0, 1, 3), s_matrix(GF4, 1, 0, 2)]
    group_closure(gens)
    assert sorted(m.rows for m in inverted) == sorted(m.rows for m in gens[:2])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("reduced", [False, True])
def test_group_closure_order_matches_reference_bfs(cq_algebra, k, reduced):
    f = Field(k)
    alg = matsuo.reduce(cq_algebra) if reduced else cq_algebra
    g = _assert_closure_matches_reference(cq_miyamoto_maps(alg, f))
    assert g.elements == miyamoto.cq_miyamoto_group(f, reduced=reduced).elements


# sha256 prefix of the rows of every element of the GF(16) quadrilateral
# Miyamoto group, in closure order; the reference comparison stops at k = 3
_CLOSURE_ORDER_DIGESTS = {
    False: "7e9e94aa31aea69d",
    True: "2b5ac128a57f3944",
}


@pytest.mark.parametrize("reduced", sorted(_CLOSURE_ORDER_DIGESTS))
def test_cq_miyamoto_group_gf16_order_pinned(reduced):
    g = miyamoto.cq_miyamoto_group(Field(4), reduced=reduced)
    h = hashlib.sha256(repr(tuple(m.rows for m in g.elements)).encode())
    assert h.hexdigest()[:16] == _CLOSURE_ORDER_DIGESTS[reduced]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("reduced", [False, True])
def test_cq_miyamoto_group_decides_each_line_once(monkeypatch, k, reduced):
    """One fusion table per quadrilateral line for all lambdas, and one
    validated catalog space for the whole group."""
    calls = {"fusion_table": 0, "validate": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(decomp, "fusion_table")
    count(fischer, "validate")
    miyamoto.cq_miyamoto_group(Field(k), reduced)
    assert calls == {"fusion_table": 4, "validate": 1}


def test_verify_cq_miyamoto_validates_one_quadrilateral(monkeypatch):
    """The full group and the quotient's come from one validated cq."""
    validated = []
    validate = fischer.validate
    monkeypatch.setattr(fischer, "validate",
                        lambda *a, **k: validated.append(a[0]) or validate(*a, **k))
    verify_cq_miyamoto(2)
    assert validated == [6]


def test_cq_line_order_is_the_catalog_lines():
    assert sorted(CQ_LINE_ORDER) == list(fischer.catalog("cq").lines)


def test_frame_of_the_catalog_reads_its_line_order(cq_algebra):
    for alg in (cq_algebra, matsuo.reduce(cq_algebra)):
        assert miyamoto._frame(alg)[1] == CQ_LINE_ORDER


def test_frame_gives_one_structure_in_every_point_order(cq_algebra):
    # Sym(4) is sharply transitive on (line, ordered pair of its points), so
    # each of the 720 orders gives the catalog's frozen structure, whichever
    # point the quotient drops
    full = frozen_basis_structure(cq_algebra)
    reduced = frozen_basis_structure(matsuo.reduce(cq_algebra))
    lines = cq_algebra.space.lines
    for perm in itertools.permutations(range(6)):
        alg = matsuo.build(fischer.validate(6, [[perm[p] for p in t] for t in lines]))
        assert frozen_basis_structure(alg) == full
        assert frozen_basis_structure(matsuo.reduce(alg)) == reduced


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_frame_line_matrices_match_the_catalog(cq_algebra, relabelled, seed):
    moved = matsuo.build(relabelled(cq_algebra.space, seed)[0])
    for alg, ref in ((moved, cq_algebra), (matsuo.reduce(moved), matsuo.reduce(cq_algebra))):
        assert cq_miyamoto_maps(alg, GF4) == cq_miyamoto_maps(ref, GF4)


def test_verify_cq_miyamoto_gf4():
    rep = verify_cq_miyamoto(2)
    assert rep.group_order == 48
    assert rep.reduced_group_order == 48
    assert rep.all_s_matrices and rep.params_unique
    assert rep.restriction_injective and rep.restriction_onto_reduced
    assert rep.fixes_s


def test_verify_cq_miyamoto_gf8():
    rep = verify_cq_miyamoto(3)
    assert rep.group_order == 448


def test_verify_cq_miyamoto_gf16():
    rep = verify_cq_miyamoto(4)
    assert rep.group_order == rep.expected_order == 3840
    assert rep.reduced_group_order == 3840
    assert rep.all_s_matrices and rep.params_unique
    assert rep.restriction_injective and rep.restriction_onto_reduced
    assert rep.fixes_s


@pytest.mark.parametrize("reduced", [False, True])
def test_cq_miyamoto_group_gf16_is_every_s_matrix(reduced):
    f = Field(4)
    g = miyamoto.cq_miyamoto_group(f, reduced=reduced)
    expected = {
        s_matrix(f, a, b, lam, reduced=reduced).rows
        for a in range(f.order)
        for b in range(f.order)
        for lam in f.nonzero()
    }
    assert len(g.elements) == len(expected) == 3840
    assert {m.rows for m in g.elements} == expected


def test_matrix_group_membership_gf16():
    # the group verify_cq_miyamoto(4) checks: every one of its 3840 elements
    # is a member, and a matrix off it by one entry is not
    f = Field(4)
    g = miyamoto.cq_miyamoto_group(f)
    assert len(g.elements) == 3840
    assert all(m in g for m in g.elements)
    ident = FieldMatrix.identity(f, 6)
    assert ident in g
    rows = list(ident.rows)
    rows[0] ^= 1 << f.k  # entry (0, 1) becomes 1
    assert FieldMatrix(f, 6, 6, rows) not in g
    for m in g.elements[::97]:
        rows = list(m.rows)
        rows[0] ^= 1 << (5 * f.k)  # entry (0, 5); column 5 of every element is e_5
        assert FieldMatrix(f, 6, 6, rows) not in g


def test_matrix_group_membership_builds_the_member_set_once():
    g = miyamoto.group_closure([miyamoto.s_matrix(Field(2), 1, 0, 1)])
    assert "_members" not in vars(g)
    assert g.elements[0] in g
    members = vars(g)["_members"]
    assert g.elements[-1] in g
    assert FieldMatrix.zeros(Field(2), 6, 6) not in g
    assert vars(g)["_members"] is members
    # the member set is no dataclass field: equality and hashing ignore it
    twin = miyamoto.MatrixGroup(g.field, g.degree, g.generators, g.elements)
    assert twin == g and hash(twin) == hash(g)


def test_verify_cq_miyamoto_rejects_bad_degree():
    with pytest.raises(ValueError):
        verify_cq_miyamoto(5)


def test_verify_cq_miyamoto_builds_no_matrix_per_element(monkeypatch):
    """The GF(16) check reads its two closures of 3840 elements as packed
    ints: the matrices it builds are the 2 x 60 maps, the GF(2) projections
    and basis changes they come from, and one inverse per distinct
    generator, a few hundred in all."""
    built = []
    init = FieldMatrix.__init__

    def counted(m, *args, **kwargs):
        built.append(m)
        init(m, *args, **kwargs)

    monkeypatch.setattr(FieldMatrix, "__init__", counted)
    verify_cq_miyamoto(4)
    assert 0 < len(built) < 1000


def _gf4_entry(i, j):
    """The packed 6 x 6 matrix over GF(4), row i at bit 12 i, with one 1 at (i, j)."""
    return 1 << (12 * i + 2 * j)


_CQ_FLAGS = ("all_s_matrices", "params_unique", "restriction_injective",
             "restriction_onto_reduced", "fixes_s")

# Each corruption of the closure's packed elements over GF(4), and the flags it
# falsifies; the other flags stay true.
_GROUP_CORRUPTIONS = {
    # one full element gets entry (5, 0): no S-matrix, but its restriction
    # and its column 5 are unchanged
    "all_s_matrices": (
        lambda els, reduced: els if reduced else els[:7] + [els[7] ^ _gf4_entry(5, 0)] + els[8:],
        {"all_s_matrices"}),
    # one full element gets entry (0, 5), above the diagonal in column 5
    "fixes_s": (
        lambda els, reduced: els if reduced else els[:7] + [els[7] ^ _gf4_entry(0, 5)] + els[8:],
        {"all_s_matrices", "fixes_s"}),
    # one full element appears twice, with its parameters and its restriction
    "params_unique": (
        lambda els, reduced: els if reduced else els + [els[7]],
        {"params_unique", "restriction_injective"}),
    # the reduced group loses one element
    "restriction_onto_reduced": (
        lambda els, reduced: els[:-1] if reduced else els,
        {"restriction_onto_reduced"}),
    # one full element gains a twin that differs from it only in row 5
    "restriction_injective": (
        lambda els, reduced: els if reduced else els + [els[7] ^ _gf4_entry(5, 0)],
        {"all_s_matrices", "restriction_injective"}),
}


@pytest.mark.parametrize("flag", sorted(_GROUP_CORRUPTIONS))
def test_verify_cq_miyamoto_refuses_a_corrupted_group(monkeypatch, flag):
    close = miyamoto._certified_closure
    corrupt, falsified = _GROUP_CORRUPTIONS[flag]

    def corrupted(generators, cap):
        uniq, els = close(generators, cap)
        return uniq, corrupt(els, uniq[0].nrows == 5)

    monkeypatch.setattr(miyamoto, "_certified_closure", corrupted)
    with pytest.raises(MiyamotoCheckError) as err:
        verify_cq_miyamoto(2)
    assert flag in falsified
    for name in _CQ_FLAGS:
        assert f"{name}={name not in falsified}" in str(err.value)


def test_aut_reduced_group():
    g = aut_enumerate_reduced()
    assert g.size() == 24
    members = set(g.elements)
    for m in g.elements:
        assert m.entry(2, 2) == 1
        for m2 in g.elements:
            assert (m * m2) in members
    for a in (0, 1):
        for b in (0, 1):
            assert s_matrix(GF2, a, b, 1, reduced=True) in g


def test_aut_reduced_unconstrained_sweep_agrees():
    assert aut_reduced_unconstrained() == aut_enumerate_reduced().elements


def test_aut_full_report():
    rep = aut_count_full()
    assert rep.order == 96
    assert rep.reduced_order == 24
    assert rep.block_shape_order == 96
    assert rep.sets_agree
    assert rep.quadratic_identity
    assert rep.nu_all_one
    assert rep.reduced_group == aut_enumerate_reduced()


def test_aut_count_full_builds_each_frozen_structure_once(monkeypatch):
    # one structure for the full algebra, read by both routes, and one for the
    # quotient, reduced from the same validated cq
    dims, validated = [], []
    structure_of, validate = miyamoto.frozen_basis_structure, fischer.validate
    monkeypatch.setattr(miyamoto, "frozen_basis_structure",
                        lambda alg: dims.append(alg.dim) or structure_of(alg))
    monkeypatch.setattr(fischer, "validate",
                        lambda *a, **k: validated.append(a[0]) or validate(*a, **k))
    assert aut_count_full().sets_agree
    assert sorted(dims) == [5, 6]
    assert validated == [6]


def test_aut_full_group_closed():
    g = aut_enumerate_full()
    members = set(g.elements)
    rng = random.Random(13)
    els = g.elements
    for _ in range(500):
        a = els[rng.randrange(len(els))]
        b = els[rng.randrange(len(els))]
        assert (a * b) in members


def test_miyamoto_requires_cq(cq_algebra):
    alg = matsuo.build(fischer.catalog("ag23"))
    with pytest.raises(ValueError, match="quadrilateral"):
        cq_miyamoto_maps(alg, GF4)


def _times(S, u, v):
    """Product of two masks, pair of set bits by pair of set bits."""
    n = len(S)
    acc = 0
    for i in range(n):
        for j in range(n):
            if (u >> i) & 1 and (v >> j) & 1:
                acc ^= S[i][j]
    return acc


def _is_hom_all_pairs(S, m):
    """Entrywise check of m(e_i e_j) = m(e_i) m(e_j) over every ordered pair."""
    n = len(S)
    return all(
        m.matvec(S[i][j]) == _times(S, m.col(i), m.col(j))
        for i in range(n) for j in range(n)
    )


def _random_symmetric_structure(rng, n):
    """Structure constants with about half the products zero, commutative."""
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = rng.getrandbits(n) if rng.random() < 0.5 else 0
    return S


def test_aut_search_with_singleton_domains_matches_all_pairs_check(cq_algebra):
    S = frozen_basis_structure(cq_algebra)
    rng = random.Random(41)
    auts = aut_enumerate_full().elements
    cands = [FieldMatrix.zeros(GF2, 6, 6)]
    need = {True: 100, False: 100}  # invertible, singular
    while any(need.values()):
        m = FieldMatrix(GF2, 6, 6, [rng.randrange(64) for _ in range(6)])
        invertible = m.rank() == 6
        if need[invertible]:
            need[invertible] -= 1
            cands.append(m)
    for _ in range(100):
        a = auts[rng.randrange(len(auts))]
        rows = list(a.rows)
        rows[rng.randrange(6)] ^= 1 << rng.randrange(6)
        cands += [a, FieldMatrix(GF2, 6, 6, rows)]
    for theta in aut_enumerate_reduced().elements:
        for bottom in range(8):
            # bottom row (kappa, lambda, 0, 0, 0, nu)
            last = (bottom & 3) | ((bottom >> 2) << 5)
            cands.append(FieldMatrix(GF2, 6, 6, theta.rows + (last,)))
    kept = 0
    for m in cands:
        expect = (m,) if _is_hom_all_pairs(S, m) and m.rank() == 6 else ()
        assert _AutSearch(S)([[m.col(j)] for j in range(6)]) == expect
        kept += bool(expect)
    assert kept >= 196  # the 96 nu = 1 block candidates and the 100 sampled automorphisms


def _schedule_reference(S):
    """Equations (i, j, e_i e_j), i <= j, keyed by the last column they read."""
    n = len(S)
    steps = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            reads = {i, j} | set(vec_support(S[i][j]))
            steps[max(reads)].append((i, j, S[i][j]))
    return steps


def test_equation_schedule_files_every_equation_once_when_decidable(cq_algebra):
    rng = random.Random(43)
    structures = [
        frozen_basis_structure(cq_algebra),
        frozen_basis_structure(matsuo.reduce(cq_algebra)),
    ]
    structures += [_random_symmetric_structure(rng, n) for n in range(1, 9)]
    for S in structures:
        assert _equation_schedule(S) == _schedule_reference(S)


def test_product_rows_match_bilinear(cq_algebra):
    rng = random.Random(46)
    structures = [
        frozen_basis_structure(cq_algebra),
        frozen_basis_structure(matsuo.reduce(cq_algebra)),
    ]
    structures += [_random_symmetric_structure(rng, n) for n in range(1, 7)]
    for S in structures:
        n = len(S)
        ad = _ad_rows(S)
        for c in range(1 << n):
            row = _product_row(ad, c)
            assert row == [bilinear(S, c, v) for v in range(1 << n)]


def _invertible_matrices(n):
    """Every invertible n x n matrix over GF(2), sorted by rows."""
    mats = (FieldMatrix(GF2, n, n, rows) for rows in itertools.product(range(1 << n), repeat=n))
    return [m for m in mats if m.rank() == n]


@pytest.mark.parametrize("n", [2, 3])
def test_aut_search_matches_brute_force_on_random_structures(n):
    rng = random.Random(44 + n)
    mats = _invertible_matrices(n)
    for _ in range(40):
        S = _random_symmetric_structure(rng, n)
        expect = tuple(m for m in mats if _is_hom_all_pairs(S, m))
        assert _AutSearch(S)([range(1 << n)] * n) == expect


class _Domain(list):
    """A candidate list that counts the membership tests it answers False."""

    misses = 0

    def __contains__(self, c):
        found = super().__contains__(c)
        self.misses += not found
        return found


@pytest.mark.parametrize("n", [2, 3])
def test_aut_search_matches_brute_force_on_random_sub_domains(n):
    rng = random.Random(47 + n)
    mats = _invertible_matrices(n)
    misses = 0
    for _ in range(60):
        S = _random_symmetric_structure(rng, n)
        domains = [sorted(rng.sample(range(1 << n), rng.randint(1, 1 << n))) for _ in range(n)]
        expect = tuple(
            m for m in mats
            if all(m.col(j) in domains[j] for j in range(n)) and _is_hom_all_pairs(S, m)
        )
        counted = [_Domain(d) for d in domains]
        assert _AutSearch(S)(counted) == expect
        misses += sum(d.misses for d in counted)
    # some forced column's value lay outside its domain, leaving nothing to try
    assert misses > 0


def test_frozen_cq_basis_forces_columns_2_and_4(cq_algebra):
    for alg in (cq_algebra, matsuo.reduce(cq_algebra)):
        forcing = _AutSearch(frozen_basis_structure(alg)).forcing
        assert [m for m, f in enumerate(forcing) if f is not None] == [2, 4]


def _annihilator_sweep(S):
    """Every v with v * e_i = 0 for all i, by testing all 2^n vectors."""
    n = len(S)
    return [v for v in range(1 << n) if all(_times(S, v, 1 << i) == 0 for i in range(n))]


def test_annihilator_span_matches_full_sweep(cq_algebra):
    for alg in (cq_algebra, matsuo.reduce(cq_algebra)):
        S = frozen_basis_structure(alg)
        assert _annihilator_span(S, len(S)) == _annihilator_sweep(S)
    rng = random.Random(45)
    for n in range(1, 8):
        S = _random_symmetric_structure(rng, n)
        for i in rng.sample(range(n), n // 2):  # force a nontrivial annihilator
            for j in range(n):
                S[i][j] = S[j][i] = 0
        assert _annihilator_span(S, n) == _annihilator_sweep(S)


def _parse_s_reference(m):
    n = m.nrows
    if n not in (5, 6) or m.ncols != n:
        return None
    got = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    alpha, beta, lam = got[3][0], got[3][2], got[3][3]
    want = [[int(i == j) for j in range(n)] for i in range(n)]
    want[3][:5] = [alpha, 0, beta, lam, 0]
    want[4][:5] = [0, beta, alpha, 0, lam]
    return (alpha, beta, lam) if lam and got == want else None


@pytest.mark.parametrize("k", range(1, 9))
def test_parse_s_matrix_matches_entrywise_reference(k):
    f = Field(k)
    rng = random.Random(700 + k)
    for m in (FieldMatrix.identity(f, 4), FieldMatrix.identity(f, 7), FieldMatrix.zeros(f, 5, 6)):
        assert parse_s_matrix(m) is None
    for n in (5, 6):
        for _ in range(4):
            params = (rng.randrange(f.order), rng.randrange(f.order), rng.randrange(1, f.order))
            m = s_matrix(f, *params, reduced=(n == 5))
            assert parse_s_matrix(m) == _parse_s_reference(m) == params
            entries = [[m.entry(i, j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    bent = [row[:] for row in entries]
                    bent[i][j] ^= rng.randrange(1, f.order)
                    p = FieldMatrix.from_rows(f, bent)
                    assert parse_s_matrix(p) == _parse_s_reference(p)
