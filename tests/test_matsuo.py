import itertools
import random

import pytest

from matsuo2 import decomp, fischer, matsuo
from matsuo2.gf import Field, bilinear, mask_from_support, vec_support
from matsuo2.matsuo import (
    _fold,
    _point_line_row,
    ad_matrix,
    annihilator,
    build,
    line_nilpotent,
    multiply,
    predict_line_row,
    predict_point_row,
    reduce,
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


def test_build_matches_the_wedge_definition(spaces, hall_space):
    for sp in [*spaces.values(), hall_space(3)]:
        table = build(sp).table
        for x in range(sp.n_points):
            for y in range(sp.n_points):
                expected = 0
                if sp.are_collinear(x, y):
                    expected = (1 << x) | (1 << y) | (1 << fischer.wedge(sp, x, y))
                assert table[x][y] == expected


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


def test_elements_outside_the_dimension_are_rejected(algebras, reduced_algebras):
    # a negative int has infinitely many set bits, so it is no GF(2) mask;
    # the cases that would loop forever without the check come last
    for alg in (algebras["cq"], reduced_algebras["cq"]):
        top = 1 << alg.dim
        for bad in (-1, top, -top):
            with pytest.raises(ValueError, match="does not fit the algebra's dimension"):
                ad_matrix(alg, bad)
        for u, v in ((-1, 1), (top, 1), (1, top), (-top, 0), (3, -2), (-2, 3)):
            with pytest.raises(ValueError, match="does not fit the algebra's dimension"):
                multiply(alg, u, v)
        assert multiply(alg, top - 1, top - 1) == 0
        assert ad_matrix(alg, top - 1).matvec(1) == multiply(alg, top - 1, 1)


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
        alg.space, alg.dim, False, tuple(tuple(r) for r in table)
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


def test_predict_point_row_cases(spaces):
    cq = spaces["cq"]
    row = predict_point_row(cq, (0, 1, 2))
    # on the line
    assert row[0] == 0
    # quadrilateral case: x joins the line through two cross lines
    x = 3
    m, n = (1, 3, 5), (2, 3, 4)
    assert row[x] == mask_from_support(m) ^ mask_from_support(n)
    ag = spaces["ag23"]
    t = ag.lines[0]
    off = next(p for p in range(9) if p not in t)
    assert (predict_point_row(ag, t)[off] >> off) & 1  # x itself appears in the affine case


def test_predict_against_structure_constants(spaces, algebras):
    for name in ("cq", "ag23", "w_a4", "w_d4", "3_3_sym4"):
        sp, alg = spaces[name], algebras[name]
        nils = [line_nilpotent(alg, t) for t in sp.lines]
        for t, ln in zip(sp.lines, nils):
            point_row = predict_point_row(sp, t)
            for x in range(sp.n_points):
                assert point_row[x] == multiply(alg, 1 << x, ln)
            for want, other in zip(predict_line_row(sp, t), nils):
                assert want == multiply(alg, ln, other)


def test_point_line_rows_match_the_definition(spaces, hall_space, product_by_definition):
    for sp in [*spaces.values(), hall_space()]:
        n = sp.n_points
        for j, m in enumerate(sp.line_masks):
            row = _point_line_row(sp, j)
            assert len(row) == n
            folded = _fold(m, n)
            for x in range(n):
                assert row[x] == product_by_definition(sp, x, m)
                # the reduced nilpotent differs from m by s, which annihilates
                assert _fold(row[x], n) == _fold(product_by_definition(sp, x, folded), n)


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_rows_are_built_only_when_a_predictor_asks(name):
    sp = fischer.catalog(name)
    assert sp._point_line_rows == {}
    decomp.classify_space(build(sp))
    assert sp._point_line_rows == {}
    again = fischer.validate(sp.n_points, sp.lines)
    assert again._point_line_rows == {}
    last = len(sp.lines) - 1
    predict_point_row(sp, sp.lines[last])
    assert set(sp._point_line_rows) == {last}
    # a line row fills its own point row and no other
    predict_line_row(sp, sp.lines[0])
    assert set(sp._point_line_rows) == {0, last}
    assert again._point_line_rows == {}


@pytest.mark.parametrize("name", [*fischer.CATALOG_NAMES, "hall81"])
def test_rows_equal_the_pair_predictors(spaces, hall_space, product_by_definition, name):
    """Each row equals the point-by-point definition entry by entry, on every
    line of a catalog space and on 20 seeded lines of Hall's space.  The
    definition multiplies one pair of points at a time and reads no plane:
    the point row of t holds x * t, and the line row of t holds, at each
    line u, the sum of x * t over the points x of u.  The row of t at u
    also equals the row of u at t."""
    if name == "hall81":
        sp = hall_space()
        line_ids = random.Random(1080).sample(range(len(sp.lines)), 20)
    else:
        sp = spaces[name]
        line_ids = range(len(sp.lines))
    rows = {}
    for i in line_ids:
        t, m = sp.lines[i], sp.line_masks[i]
        point_row = tuple(product_by_definition(sp, x, m) for x in range(sp.n_points))
        assert predict_point_row(sp, t) == point_row
        row = predict_line_row(sp, t)
        assert len(row) == len(sp.lines)
        for j, (x, y, z) in enumerate(sp.lines):
            assert row[j] == point_row[x] ^ point_row[y] ^ point_row[z]
            if j not in rows:
                rows[j] = predict_line_row(sp, sp.lines[j])
            assert rows[j][i] == row[j]


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_predictors_commute_with_relabelling(spaces, relabelled, name):
    sp = spaces[name]
    moved, perm = relabelled(sp, 8128)

    def image(mask):
        return sum(1 << perm[p] for p in vec_support(mask))

    lines = {t: [perm[p] for p in t] for t in sp.lines}
    for t, u in lines.items():
        point_row, want = predict_point_row(moved, u), predict_point_row(sp, t)
        for x in range(sp.n_points):
            assert point_row[perm[x]] == image(want[x])
    for t1, u1 in lines.items():
        line_row, want = predict_line_row(moved, u1), predict_line_row(sp, t1)
        for j, t2 in enumerate(sp.lines):
            assert line_row[moved.line_id(lines[t2])] == image(want[j])


def test_predictors_reject_a_triple_that_is_not_a_line(spaces):
    cq = spaces["cq"]
    assert not cq.is_line((0, 1, 3))
    for predictor in (predict_point_row, predict_line_row):
        with pytest.raises(ValueError, match="not a line"):
            predictor(cq, (0, 1, 3))


def test_predict_line_row_disjoint_affine_gives_all_nine(spaces):
    ag = spaces["ag23"]
    l1 = ag.lines[0]
    m = next(t for t in ag.lines[1:] if not set(t) & set(l1))
    assert predict_line_row(ag, l1)[ag.line_id(m)] == (1 << 9) - 1


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


def test_lifted_product_gf4_scaling(algebras, lift_table):
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


def test_lifted_product_matches_gf2(algebras, lift_table):
    alg = algebras["w_a4"]
    assert lift_table(matsuo.GF2, alg.table) is alg.table
    rng = random.Random(3)
    for _ in range(100):
        u = rng.randrange(1 << alg.dim)
        v = rng.randrange(1 << alg.dim)
        assert bilinear(lift_table(matsuo.GF2, alg.table), u, v) == multiply(alg, u, v)


@pytest.mark.parametrize("k", range(1, 9))
def test_lifted_product_matches_entrywise_reference(k, algebras, reduced_algebras,
                                                    lift_table):
    rng = random.Random(1300 + k)
    f = Field(k)
    for alg in list(algebras.values()) + list(reduced_algebras.values()):
        lifted = lift_table(f, alg.table)
        bits = alg.dim * k
        for _ in range(20):
            u, v = rng.getrandbits(bits), rng.getrandbits(bits)
            for a, b in ((u, v), (0, v), (u, 0)):
                assert bilinear(lifted, a, b) == _multiply_ext_reference(alg, f, a, b)
