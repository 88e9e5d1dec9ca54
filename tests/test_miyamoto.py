import hashlib
import itertools
import random

import pytest

from matsuo2 import decomp, fischer, matsuo, miyamoto
from matsuo2.gf import Field, FieldMatrix, NoSolution, lift_matrix, vec_support
from matsuo2.miyamoto import (
    CQ_LINE_ORDER,
    MiyamotoCheckError,
    _annihilator_span,
    _aut_search,
    _equation_schedule,
    aut_count_full,
    aut_enumerate_full,
    aut_enumerate_reduced,
    aut_reduced_unconstrained,
    cq_miyamoto_matrix,
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
    for line, (ea, eb) in zip(CQ_LINE_ORDER, expected_flags):
        for lam in GF4.nonzero():
            m = cq_miyamoto_matrix(cq_algebra, GF4, line, lam)
            one_plus = 1 ^ lam
            assert parse_s_matrix(m) == (
                one_plus if ea else 0, one_plus if eb else 0, lam
            )


def test_miyamoto_fixes_line_and_moves_off_points(cq_algebra):
    dec = decomp.decompose_line(cq_algebra, (0, 1, 2))
    lam = 2
    tau = miyamoto_map(cq_algebra, GF4, dec, lam)
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
    dec = decomp.decompose_line(cq_algebra, (0, 1, 2))
    assert miyamoto_map(cq_algebra, GF2, dec, 1) == FieldMatrix.identity(GF2, 6)
    assert miyamoto_map(cq_algebra, GF4, dec, 1) == FieldMatrix.identity(GF4, 6)


def test_characters_compose_per_line(cq_algebra):
    dec = decomp.decompose_line(cq_algebra, (1, 3, 5))
    maps = {lam: miyamoto_map(cq_algebra, GF4, dec, lam) for lam in GF4.nonzero()}
    for lam in GF4.nonzero():
        for mu in GF4.nonzero():
            assert maps[lam] * maps[mu] == maps[GF4.mul(lam, mu)]


def test_nontrivial_scaling_rejected_on_z2_only_space():
    alg = matsuo.build(fischer.catalog("w_a4"))
    dec = decomp.decompose_line(alg, alg.space.lines[0])
    miyamoto_map(alg, GF4, dec, 1)  # identity is always fine
    with pytest.raises(ValueError, match="not an automorphism"):
        miyamoto_map(alg, GF4, dec, 2)


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
        dec = decomp.decompose_line(alg, line)
        for lam in f.nonzero():
            h.update(repr(miyamoto_map(alg, f, dec, lam).rows).encode())
    assert h.hexdigest()[:16] == _MIYAMOTO_MAP_DIGESTS[k, reduced]


def _eigenbasis_map(field, dec, lam):
    """Reference: P D P^-1, P the eigenbasis and D = diag(1, .., 1, lam, .., lam)."""
    n = dec.dim
    P = FieldMatrix.from_cols(GF2, n, dec.basis0 + dec.basis1)
    d0 = len(dec.basis0)
    D = FieldMatrix(field, n, n, ((1 if i < d0 else lam) << (i * field.k) for i in range(n)))
    return lift_matrix(field, P) * D * lift_matrix(field, dec.coord_matrix)


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
            dec = decomp.decompose_line(alg, line)
            for lam in lams:
                assert miyamoto_map(alg, f, dec, lam) == _eigenbasis_map(f, dec, lam), (
                    alg.reduced, f.k, line, lam
                )


def test_s_matrix_composition_law():
    rng = random.Random(7)
    for k in (2, 3):
        f = Field(k)
        for _ in range(100):
            p1 = (rng.randrange(f.order), rng.randrange(f.order), rng.randrange(1, f.order))
            p2 = (rng.randrange(f.order), rng.randrange(f.order), rng.randrange(1, f.order))
            assert s_matrix(f, *p1) * s_matrix(f, *p2) == s_matrix(f, *s_compose(f, p1, p2))


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


def _reference_closure(gens):
    """Plain FIFO closure with x * g, the definition the closure order follows."""
    uniq = []
    for g in sorted(gens, key=lambda m: m.rows):
        if g not in uniq:
            uniq.append(g)
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
    return tuple(uniq), tuple(elements)


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


@pytest.mark.parametrize("k", range(1, 9))
def test_group_closure_packed_walk_matches_reference(k):
    f = Field(k)
    rng = random.Random(8000 + k)
    for degree, gens in _small_generating_sets(rng, f):
        g = group_closure(gens)
        assert g.degree == degree
        assert (g.generators, g.elements) == _reference_closure(gens)
        order = g.size()
        with pytest.raises(MiyamotoCheckError, match=f"exceeds cap {order - 1}"):
            group_closure(gens, cap=order - 1)
        assert group_closure(gens, cap=order).elements == g.elements


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("reduced", [False, True])
def test_group_closure_order_matches_reference_bfs(cq_algebra, k, reduced):
    f = Field(k)
    alg = matsuo.reduce(cq_algebra) if reduced else cq_algebra
    gens = [
        cq_miyamoto_matrix(alg, f, line, lam)
        for line in CQ_LINE_ORDER
        for lam in f.nonzero()
    ]
    g = group_closure(gens)
    assert (g.generators, g.elements) == _reference_closure(gens)
    assert g.elements == miyamoto.cq_miyamoto_group(f, reduced=reduced).elements


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


def test_verify_cq_miyamoto_rejects_bad_degree():
    with pytest.raises(ValueError):
        verify_cq_miyamoto(5)


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
        cq_miyamoto_matrix(alg, GF4, alg.space.lines[0], 2)


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
        assert _aut_search(S, [[m.col(j)] for j in range(6)]) == expect
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


@pytest.mark.parametrize("n", [2, 3])
def test_aut_search_matches_brute_force_on_random_structures(n):
    rng = random.Random(44 + n)
    mats = [
        FieldMatrix(GF2, n, n, rows)
        for rows in itertools.product(range(1 << n), repeat=n)
    ]
    mats = [m for m in mats if m.rank() == n]
    for _ in range(40):
        S = _random_symmetric_structure(rng, n)
        expect = tuple(m for m in mats if _is_hom_all_pairs(S, m))
        assert _aut_search(S, [range(1 << n)] * n) == expect


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
