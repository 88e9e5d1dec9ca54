import itertools
import json
import random

import pytest

from matsuo2 import fischer, matsuo
from matsuo2.gf import Field, bilinear, lift_table, mask_from_support
from matsuo2.matsuo import (
    _point_line,
    ad_matrix,
    annihilator,
    build,
    line_nilpotent,
    multiply,
    predict_line_line,
    predict_point_line,
    reduce,
    to_json_dict,
)


def test_build_cq_products(algebras):
    alg = algebras["cq"]
    a, b, c = 0, 1, 2
    assert multiply(alg, 1 << a, 1 << b) == 0b111  # a*b = a + b + c
    assert alg.dim == 6 and not alg.reduced


def test_single_line_algebra():
    sp = fischer.validate(3, [(0, 1, 2)])
    alg = build(sp)
    assert multiply(alg, 1 << 0, 1 << 1) == 0b111
    for i in range(3):
        assert multiply(alg, 1 << i, 1 << i) == 0


def test_ag23_dimension(algebras):
    assert algebras["ag23"].dim == 9


def test_commutative_and_square_zero_tables(algebras):
    for alg in algebras.values():
        for i in range(alg.dim):
            assert alg.table[i][i] == 0
            for j in range(alg.dim):
                assert alg.table[i][j] == alg.table[j][i]


def test_line_nilpotent_and_same_line_product(algebras):
    alg = algebras["cq"]
    ln = line_nilpotent(alg, (0, 1, 2))
    assert ln == 0b111
    assert multiply(alg, ln, ln) == 0
    with pytest.raises(ValueError):
        line_nilpotent(alg, (0, 1, 3))


def test_intersecting_lines_product_is_sum(algebras):
    alg = algebras["cq"]
    l1 = line_nilpotent(alg, (0, 1, 2))
    l2 = line_nilpotent(alg, (0, 4, 5))
    assert multiply(alg, l1, l2) == l1 ^ l2


def test_point_pairs_on_line_all_give_nilpotent(algebras):
    for name in ("cq", "ag23", "w_d4"):
        alg = algebras[name]
        for t in alg.space.lines:
            ln = line_nilpotent(alg, t)
            for x, y in itertools.combinations(t, 2):
                assert multiply(alg, 1 << x, 1 << y) == ln


def test_lx_ly_product_vanishes(algebras):
    alg = algebras["cq"]
    ell = line_nilpotent(alg, (0, 1, 2))
    lx = multiply(alg, ell, 1 << 3)
    ly = multiply(alg, ell, 1 << 4)
    assert multiply(alg, lx, ly) == 0


def test_affine_one_part_product(algebras):
    alg = algebras["ag23"]
    # two points of a line off l multiply pairwise into that line's nilpotent
    m = alg.space.lines[4]
    b1, b2, b3 = m
    lhs = multiply(alg, (1 << b1) ^ (1 << b2), (1 << b1) ^ (1 << b3))
    assert lhs == line_nilpotent(alg, m)


def test_random_squares_vanish(algebras):
    rng = random.Random(99)
    for name in ("cq", "ag23", "w_a4"):
        alg = algebras[name]
        for _ in range(1000):
            u = rng.randrange(1 << alg.dim)
            assert multiply(alg, u, u) == 0


def test_ad_matrix_applies_left_multiplication(algebras, reduced_algebras):
    rng = random.Random(17)
    for alg in list(algebras.values()) + list(reduced_algebras.values()):
        for _ in range(50):
            u = rng.randrange(1 << alg.dim)
            v = rng.randrange(1 << alg.dim)
            assert ad_matrix(alg, u).matvec(v) == multiply(alg, u, v)


def test_ad_point_squares_to_zero(algebras):
    for alg in algebras.values():
        for x in range(alg.dim):
            ad = ad_matrix(alg, 1 << x)
            assert (ad * ad).is_zero()


def test_ad_line_idempotent_on_cq_not_on_affine(algebras):
    cq = algebras["cq"]
    ad = ad_matrix(cq, line_nilpotent(cq, (0, 1, 2)))
    assert ad * ad == ad
    assert len(ad.kernel()) == 4
    assert ad.rank() == 2
    ag = algebras["ag23"]
    ad = ad_matrix(ag, line_nilpotent(ag, ag.space.lines[0]))
    assert ad * ad != ad
    assert ad * ad * ad == ad * ad


def test_affine_iterated_kernels(algebras):
    alg = algebras["ag23"]
    ad = ad_matrix(alg, line_nilpotent(alg, alg.space.lines[0]))
    assert len(ad.kernel()) == 4
    # the last basis of kernel_chain is ker(M^n) for every later power n
    chain = list(ad.kernel_chain())
    for n in range(2, 10):
        assert len(chain[min(n, len(chain)) - 1]) == 5
    ad1 = ad + type(ad).identity(ad.field, 9)
    chain = list(ad1.kernel_chain())
    for n in range(1, 10):
        assert len(chain[min(n, len(chain)) - 1]) == 4


def test_annihilator_full_and_reduced(algebras, reduced_algebras):
    for name, alg in algebras.items():
        basis = annihilator(alg)
        assert basis == ((1 << alg.dim) - 1,)
        assert annihilator(reduced_algebras[name]) == ()


def test_annihilator_detects_corruption(algebras):
    alg = algebras["cq"]
    table = [list(r) for r in alg.table]
    table[0][1] ^= 1 << 5
    table[1][0] = table[0][1]
    bad = matsuo.NilpotentMatsuoAlgebra(
        alg.space, alg.dim, False, alg.basis_labels, tuple(tuple(r) for r in table)
    )
    with pytest.raises(RuntimeError):
        annihilator(bad)


def test_reduce_dimensions(reduced_algebras):
    assert reduced_algebras["cq"].dim == 5
    assert reduced_algebras["ag23"].dim == 8


def test_reduced_parallel_lines_annihilate(reduced_algebras):
    red = reduced_algebras["ag23"]
    sp = red.space
    l1 = sp.lines[0]
    for m in sp.lines[1:]:
        if not set(m) & set(l1):
            assert multiply(red, line_nilpotent(red, l1), line_nilpotent(red, m)) == 0


def test_reduce_twice_rejected(reduced_algebras):
    with pytest.raises(ValueError):
        reduce(reduced_algebras["cq"])


def test_predict_point_line_cases(spaces):
    cq = spaces["cq"]
    # on the line
    assert predict_point_line(cq, 0, (0, 1, 2)) == 0
    # quadrilateral case: x joins the line through two cross lines
    x = 3
    m, n = (1, 3, 5), (2, 3, 4)
    expected = mask_from_support(m) ^ mask_from_support(n)
    assert predict_point_line(cq, x, (0, 1, 2)) == expected
    ag = spaces["ag23"]
    t = ag.lines[0]
    off = next(p for p in range(9) if p not in t)
    pred = predict_point_line(ag, off, t)
    assert (pred >> off) & 1  # x itself appears in the affine case


def test_predict_against_structure_constants(spaces, algebras):
    for name in ("cq", "ag23", "w_a4", "w_d4", "3_3_sym4"):
        sp, alg = spaces[name], algebras[name]
        for x in range(sp.n_points):
            for t in sp.lines:
                assert predict_point_line(sp, x, t) == multiply(
                    alg, 1 << x, line_nilpotent(alg, t)
                )
        for t1, t2 in itertools.product(sp.lines, repeat=2):
            assert predict_line_line(sp, t1, t2) == multiply(
                alg, line_nilpotent(alg, t1), line_nilpotent(alg, t2)
            )


def test_mask_point_line_matches_the_checked_predictor(spaces, algebras):
    for name, sp in spaces.items():
        alg = algebras[name]
        for t in sp.lines:
            m = mask_from_support(t)
            for x in range(sp.n_points):
                got = _point_line(sp, x, m)
                assert got == predict_point_line(sp, x, t)
                assert got == multiply(alg, 1 << x, m)


def test_predictors_reject_a_triple_that_is_not_a_line(spaces):
    cq = spaces["cq"]
    assert not cq.is_line((0, 1, 3))
    with pytest.raises(ValueError, match="not a line"):
        predict_point_line(cq, 4, (0, 1, 3))
    for pair in (((0, 1, 3), (0, 1, 2)), ((0, 1, 2), (0, 1, 3))):
        with pytest.raises(ValueError, match="not a line"):
            predict_line_line(cq, *pair)


def test_predict_line_line_disjoint_affine_gives_all_nine(spaces):
    ag = spaces["ag23"]
    l1 = ag.lines[0]
    m = next(t for t in ag.lines[1:] if not set(t) & set(l1))
    assert predict_line_line(ag, l1, m) == (1 << 9) - 1


def _multiply_ext_reference(alg, field, u, v):
    """Product of two packed GF(2^k) vectors, lane pair by lane pair with Field.mul."""
    k = field.k
    mask = field.mask
    acc = 0
    for i in range(alg.dim):
        a = (u >> (i * k)) & mask
        if not a:
            continue
        ti = alg.table[i]
        for j in range(alg.dim):
            b = (v >> (j * k)) & mask
            if not b:
                continue
            c = field.mul(a, b)
            m = ti[j]
            while m:
                low = m & -m
                acc ^= c << ((low.bit_length() - 1) * k)
                m ^= low
    return acc


def test_lifted_product_gf4_scaling(algebras):
    alg = algebras["cq"]
    f4 = Field(2)
    w = 2
    # (w*a) * b == w * (a*b), entrywise in the packed GF(4) vector
    u = w << (0 * 2)
    v = 1 << (1 * 2)
    prod = bilinear(lift_table(f4, alg.table), u, v)
    base = multiply(alg, 1 << 0, 1 << 1)
    expect = 0
    for i in range(alg.dim):
        if (base >> i) & 1:
            expect |= w << (i * 2)
    assert prod == expect


def test_lifted_product_matches_gf2(algebras):
    alg = algebras["w_a4"]
    assert lift_table(matsuo.GF2, alg.table) is alg.table
    rng = random.Random(3)
    for _ in range(100):
        u = rng.randrange(1 << alg.dim)
        v = rng.randrange(1 << alg.dim)
        assert bilinear(lift_table(matsuo.GF2, alg.table), u, v) == multiply(alg, u, v)


@pytest.mark.parametrize("k", range(1, 9))
def test_lifted_product_matches_entrywise_reference(k, algebras, reduced_algebras):
    rng = random.Random(1300 + k)
    f = Field(k)
    for alg in list(algebras.values()) + list(reduced_algebras.values()):
        lifted = lift_table(f, alg.table)
        bits = alg.dim * k
        for _ in range(20):
            u, v = rng.getrandbits(bits), rng.getrandbits(bits)
            for a, b in ((u, v), (0, v), (u, 0)):
                assert bilinear(lifted, a, b) == _multiply_ext_reference(alg, f, a, b)


def test_json_export_shape(algebras):
    d = to_json_dict(algebras["cq"])
    assert d["dim"] == 6 and d["space"] == "cq" and not d["reduced"]
    assert all(i <= j for i, j, _ in d["products"])
    assert all(support for _, _, support in d["products"])
    json.dumps(d)  # serializable
    assert to_json_dict(algebras["cq"]) == d  # deterministic
