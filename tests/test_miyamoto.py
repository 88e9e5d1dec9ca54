import random

import pytest

from matsuo2 import decomp, fischer, matsuo, miyamoto
from matsuo2.gf import Field, FieldMatrix
from matsuo2.miyamoto import (
    CQ_LINE_ORDER,
    MiyamotoCheckError,
    aut_count_full,
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
    tau = miyamoto_map(cq_algebra, GF4, dec, lam).matrix
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
    m = miyamoto_map(cq_algebra, GF2, dec, 1)
    assert m.matrix == FieldMatrix.identity(GF2, 6)
    m4 = miyamoto_map(cq_algebra, GF4, dec, 1)
    assert m4.matrix == FieldMatrix.identity(GF4, 6)


def test_characters_compose_per_line(cq_algebra):
    dec = decomp.decompose_line(cq_algebra, (1, 3, 5))
    maps = {lam: miyamoto_map(cq_algebra, GF4, dec, lam).matrix for lam in GF4.nonzero()}
    for lam in GF4.nonzero():
        for mu in GF4.nonzero():
            assert maps[lam] * maps[mu] == maps[GF4.mul(lam, mu)]


def test_nontrivial_scaling_rejected_on_z2_only_space():
    alg = matsuo.build(fischer.catalog("w_a4"))
    dec = decomp.decompose_line(alg, alg.space.lines[0])
    miyamoto_map(alg, GF4, dec, 1)  # identity is always fine
    with pytest.raises(ValueError, match="not an automorphism"):
        miyamoto_map(alg, GF4, dec, 2)


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


def test_aut_full_group_closed():
    from matsuo2.miyamoto import aut_enumerate_full

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
