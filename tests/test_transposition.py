import random

import pytest

from matsuo2 import fischer
from matsuo2.transposition import (
    AffineMat,
    AffinePerm,
    NotTranspositionClass,
    Permutation,
    conjugacy_class,
    fischer_from_class,
    gens_to_text,
    parse_gens,
    preset,
    product_order,
    su32_matrix_involutions,
)


def T(n, i, j):
    return Permutation.transposition(n, i - 1, j - 1)


def test_permutation_cycle_round_trip():
    p = Permutation.from_cycles(5, "(1 2)(3 4 5)")
    assert p.label() == "(1 2)(3 4 5)"
    assert Permutation.from_cycles(5, p.label()) == p
    assert Permutation.identity(4).label() == "()"
    assert (p * p.inverse()).is_identity()


def test_permutation_composition_applies_right_factor_first():
    p = Permutation.from_cycles(3, "(1 2)")
    q = Permutation.from_cycles(3, "(2 3)")
    # (p*q)(3) = p(q(3)) = p(2) = 1
    assert (p * q).images[2] == 0


def test_product_order_examples():
    d = T(4, 1, 2)
    assert product_order(d, d) == 1
    assert product_order(T(4, 1, 2), T(4, 3, 4)) == 2
    assert product_order(T(4, 1, 2), T(4, 1, 3)) == 3


def test_class_sizes():
    assert conjugacy_class(*preset("sym4")).size() == 6
    assert conjugacy_class(*preset("sym5")).size() == 10
    assert conjugacy_class(*preset("3_2_2")).size() == 9
    assert conjugacy_class(*preset("w_d4")).size() == 12
    assert conjugacy_class(*preset("3_3_sym4")).size() == 18


def test_su32_class_size_36():
    assert conjugacy_class(*preset("su32")).size() == 36


def test_class_members_are_involutions_with_small_orders():
    cls = conjugacy_class(*preset("w_d4"))
    n = cls.size()
    for i in range(n):
        e = cls.elements[i]
        assert (e * e).is_identity()
        for j in range(n):
            assert cls.order(i, j) in (1, 2, 3)
            assert cls.order(i, j) == cls.order(j, i)


def test_class_closed_under_generator_conjugation():
    gens, seed = preset("3_3_sym4")
    cls = conjugacy_class(gens, seed)
    for d in cls.elements:
        for g in gens:
            assert (g.inverse() * d * g) in cls


def test_seed_must_be_involution():
    three_cycle = Permutation.from_cycles(4, "(1 2 3)")
    with pytest.raises(NotTranspositionClass, match="involution"):
        conjugacy_class([T(4, 1, 2)], three_cycle)


def test_rejects_product_order_above_three():
    # two pentagon reflections generate a dihedral group with rotations
    # of order 5 between conjugate reflections
    r0 = Permutation.from_cycles(5, "(2 5)(3 4)")
    r1 = Permutation.from_cycles(5, "(1 3)(4 5)")
    with pytest.raises(NotTranspositionClass):
        conjugacy_class([r0, r1], r0)


def test_class_cap():
    with pytest.raises(NotTranspositionClass, match="cap"):
        conjugacy_class(*preset("sym5"), cap=4)


def test_fischer_from_class_sym4_is_quadrilateral():
    sp = fischer_from_class(conjugacy_class(*preset("sym4")))
    assert sp.n_points == 6
    assert len(sp.lines) == 4
    assert fischer.is_symplectic_type(sp)


def test_fischer_from_class_3_2_2_is_affine_plane():
    sp = fischer_from_class(conjugacy_class(*preset("3_2_2")))
    assert sp.n_points == 9
    assert len(sp.lines) == 12
    for t in sp.lines:
        _, _, p3 = fischer.points_p0_p2(sp, t)
        assert len(p3) == 6


def test_fischer_from_class_w_d4():
    sp = fischer_from_class(conjugacy_class(*preset("w_d4")))
    assert sp.n_points == 12
    assert fischer.is_symplectic_type(sp)


def test_class_enumeration_order_deterministic():
    a = conjugacy_class(*preset("su32"))
    b = conjugacy_class(*preset("su32"))
    assert [e.key() for e in a.elements] == [e.key() for e in b.elements]
    assert a.elements[0].key() == a.seed.key()


def test_su32_matrix_generators_are_involutions():
    d, e, f = su32_matrix_involutions()
    for g in (d, e, f):
        assert (g * g).is_identity()
        assert not g.is_identity()


def test_affinemat_inverse_and_associativity():
    rng = random.Random(11)
    cls = conjugacy_class(*preset("su32"))
    els = cls.elements
    for _ in range(50):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * a.inverse()).is_identity()


def test_affineperm_inverse_and_associativity():
    rng = random.Random(12)
    els = conjugacy_class(*preset("3_3_sym4")).elements
    for _ in range(50):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * a.inverse()).is_identity()


@pytest.mark.parametrize("name", ["sym4", "3_3_sym4", "su32"])
def test_gens_round_trip(name):
    gens, seed = preset(name)
    sumzero = isinstance(gens[0], AffinePerm)
    text = gens_to_text(gens, seed, sumzero=sumzero)
    gens2, seed2 = parse_gens(text)
    assert [g.key() for g in gens2] == [g.key() for g in gens]
    assert seed2.key() == seed.key()
    # the parsed data reproduces the same space
    sp1 = fischer_from_class(conjugacy_class(gens, seed))
    sp2 = fischer_from_class(conjugacy_class(gens2, seed2))
    assert sp1.lines == sp2.lines


def test_parse_gens_errors():
    with pytest.raises(ValueError, match="header"):
        parse_gens("nonsense 3\n(1 2)\nseed (1 2)\n")
    with pytest.raises(ValueError, match="seed"):
        parse_gens("perm 3\n(1 2)\n")
    with pytest.raises(ValueError, match="sumzero"):
        parse_gens("affineperm 3 2 sumzero\n[1,1 | ()]\nseed [0,0 | ()]\n")
    with pytest.raises(ValueError, match="9 matrix entries"):
        parse_gens("affinemat-gf4 3\n[0,0,0 | 1,0,0]\nseed [0,0,0 | 1,0,0,0,1,0,0,0,1]\n")
    with pytest.raises(ValueError, match=r"^line 2: bad cycle notation '\(1 2'$"):
        parse_gens("perm 4\n(1 2\n(2 3)\n(3 4)\nseed (1 2)\n")
    with pytest.raises(ValueError, match="^line 1: bad degree 'x'$"):
        parse_gens("perm x\n(1 2)\nseed (1 2)\n")
    with pytest.raises(ValueError, match="^line 2: bad prime 'p'$"):
        parse_gens("# comment\naffineperm p 2\n[0,0 | ()]\nseed [0,0 | ()]\n")
    with pytest.raises(ValueError, match="^line 1: bad prime '0'$"):
        parse_gens("affineperm 0 2\n[1,0 | ()]\nseed [0,0 | ()]\n")
    with pytest.raises(ValueError, match="^line 1: bad dimension '-2'$"):
        parse_gens("affineperm 3 -2\n[1,0 | ()]\nseed [0,0 | ()]\n")


def test_parse_gens_affinemat():
    d, e, f = su32_matrix_involutions()
    text = gens_to_text([d, e, f], d)
    gens, seed = parse_gens(text)
    assert gens[1].matrix == e.matrix
    assert seed.key() == d.key()


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset("unknown")
