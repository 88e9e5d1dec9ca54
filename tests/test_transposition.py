import hashlib
import itertools
import math
import random
import re

import pytest

from matsuo2 import fischer, transposition
from matsuo2.gf import Field, vec_to_list
from matsuo2.transposition import (
    PRESET_NAMES,
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
    space_from_gens,
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


def test_permutation_label_rejects_images_that_are_not_a_permutation():
    for images in ([1, 2, 1, 3], [0, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images).label()


def test_permutation_inverse_rejects_images_that_are_not_a_permutation():
    for images in ([1, 2, 1, 3], [0, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images).inverse()
    p = Permutation.from_cycles(4, "(1 2 4)")
    assert (p * p.inverse()).is_identity()


def test_permutation_composition_applies_right_factor_first():
    p = Permutation.from_cycles(3, "(1 2)")
    q = Permutation.from_cycles(3, "(2 3)")
    # (p*q)(3) = p(q(3)) = p(2) = 1
    assert (p * q).images[2] == 0


def test_permutation_product_rejects_mixed_degrees():
    a, b = Permutation((1, 0)), Permutation((0, 1, 2))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=f"^mixed degrees {x.degree()} and {y.degree()}$"):
            x * y


def test_affine_product_rejects_mixed_dimensions():
    a = AffinePerm(3, (1, 0), Permutation.from_cycles(2, "(1 2)"))
    b = AffinePerm(3, (0, 1, 0), Permutation.identity(3))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=f"^mixed degrees {x.perm.degree()} and "
                                             f"{y.perm.degree()}$"):
            x * y


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lines_and_orders_match_product_order(name):
    cls = conjugacy_class(*preset(name))
    sp = fischer_from_class(cls)
    n = cls.size()
    for i, d in enumerate(cls.elements):
        for j, e in enumerate(cls.elements):
            o = product_order(d, e)
            assert cls.order(i, j) == o
            if i != j:
                triple = {i, j, cls.index(d * e * d)}
                assert (len(triple) == 3 and sp.is_line(triple)) == (o == 3)
    assert 3 * len(sp.lines) == sum(cls.order(i, j) == 3 for i in range(n) for j in range(i))


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
    with pytest.raises(NotTranspositionClass,
                       match=re.escape("product order > 3 for pair ((2 5)(3 4), (1 5)(2 4))")):
        conjugacy_class([r0, r1], r0)


def test_fischer_from_class_rejects_a_seed_outside_the_group():
    # conjugating (1 2) by (2 3) and (3 4) gives the class {(1 2), (1 3), (1 4)},
    # but d*e*d for its collinear pairs, such as (2 3), lies outside it
    gens = [T(4, 2, 3), T(4, 3, 4)]
    cls = conjugacy_class(gens, T(4, 1, 2))
    with pytest.raises(NotTranspositionClass,
                       match=r"d\*e\*d = \(2 3\) is not in the class, for collinear "
                             r"pair \(\(1 2\), \(1 3\)\)"):
        fischer_from_class(cls)


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


_GF4 = Field(2)
_I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _mat_mul(a, b):
    return tuple(
        tuple(_xor(_GF4.mul(a[i][t], b[t][j]) for t in range(3)) for j in range(3))
        for i in range(3)
    )


def _vec_mat(v, b):
    return tuple(_xor(_GF4.mul(v[t], b[t][j]) for t in range(3)) for j in range(3))


def _xor(values):
    out = 0
    for x in values:
        out ^= x
    return out


def _det(g):
    # characteristic 2: every sign is +1
    return _xor(
        _GF4.mul(_GF4.mul(g[0][p[0]], g[1][p[1]]), g[2][p[2]])
        for p in itertools.permutations(range(3))
    )


def _random_affinemat(rng):
    while True:
        g = tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(3))
        if _det(g):
            return AffineMat(tuple(rng.randrange(4) for _ in range(3)), g)


def test_affinemat_matches_the_entrywise_group_law():
    rng = random.Random(13)
    for _ in range(200):
        x, y = _random_affinemat(rng), _random_affinemat(rng)
        xy = x * y
        # [v, g][w, h] = [v.h + w, gh]
        assert xy.matrix == _mat_mul(x.matrix, y.matrix)
        assert xy.vector == tuple(
            a ^ b for a, b in zip(_vec_mat(x.vector, y.matrix), y.vector)
        )
        # [v, g]^-1 = [-v.g^-1, g^-1], and -1 = 1 in characteristic 2
        xi = x.inverse()
        assert _mat_mul(x.matrix, xi.matrix) == _I3
        assert xi.vector == _vec_mat(x.vector, xi.matrix)


def test_element_equality_hash_and_key_agree():
    els = []
    for name in ("sym4", "3_3_sym4", "su32"):
        els.extend(conjugacy_class(*preset(name)).elements[:8])
    els += [Permutation.identity(4), AffinePerm.identity(2, 4),
            AffinePerm.identity(3, 4), AffineMat.identity()]
    copies = []
    for e in els:
        if isinstance(e, Permutation):
            copies.append(Permutation(e.images))
        elif isinstance(e, AffinePerm):
            copies.append(AffinePerm(e.p, e.vector, Permutation(e.perm.images)))
        else:
            copies.append(AffineMat(e.vector, e.matrix))
    for a in els + copies:
        for b in els + copies:
            same_key = a.key() == b.key()
            assert (a == b) == same_key
            assert (hash(a) == hash(b)) == same_key
            if type(a) is not type(b):
                assert a != b
    assert all(a == b and a is not b for a, b in zip(els, copies))


def test_affinemat_equality_and_hash_agree_on_su32_products():
    # __eq__ compares the augmented matrices and __hash__ hashes key(); on
    # the su32 class and all its pairwise products the two must agree
    elements = list(conjugacy_class(*preset("su32")).elements)
    pool = elements + [a * b for a in elements for b in elements]
    by_key = {}
    for x in pool:
        by_key.setdefault(x.key(), []).append(x)
    assert len(by_key) < len(pool)  # some products coincide
    for group in by_key.values():
        a = group[0]
        for b in group:
            assert a == b and hash(a) == hash(b)
            assert AffineMat(b.vector, b.matrix) == a
    # distinct keys are distinct augmented matrices, so unequal elements
    assert len({g[0].augmented for g in by_key.values()}) == len(by_key)
    reps = [g[0] for g in by_key.values()]
    for a, b in zip(reps, reps[1:] + reps[:1]):
        assert a != b
    assert len(set(pool)) == len(by_key)
    assert all(x != x.key() and x != x.augmented for x in elements[:3])


def test_affinemat_key_matches_the_entrywise_decode():
    # key() reads the 2-bit lanes of the augmented rows; vec_to_list decodes
    # each GF(4) entry on its own
    elements = conjugacy_class(*preset("su32")).elements
    assert len(elements) == 36
    for e in elements:
        assert isinstance(e, AffineMat)
        rows = e.augmented.rows
        assert e.key() == (
            "affinemat",
            tuple(vec_to_list(_GF4, rows[3], 3)),
            tuple(tuple(vec_to_list(_GF4, r, 3)) for r in rows[:3]),
        )


def test_affinemat_rejects_bad_shapes_and_entries():
    for vector, matrix in (
        ((0, 0, 0), ((1, 0, 0), (0, 1), (0, 0, 1))),
        ((0, 0), _I3),
        ((0, 0, 0), _I3[:2]),
        ((0, 0, 0), ((4, 0, 0), (0, 1, 0), (0, 0, 1))),
        ((0, 0, -1), _I3),
    ):
        with pytest.raises(ValueError):
            AffineMat(vector, matrix)


# sha256 of the class labels in enumeration order, joined by newlines
_LABEL_DIGESTS = {
    "sym4": "69dc7103824fb0bc",
    "sym5": "1197dcc9b575d824",
    "3_2_2": "16a48969e2330864",
    "w_d4": "c9d32135e2daf10d",
    "3_3_sym4": "56a871686dfec4c3",
    "su32": "ef14fed0982e88f3",
}


@pytest.mark.parametrize("name", sorted(_LABEL_DIGESTS))
def test_preset_class_labels_pinned(name):
    cls = conjugacy_class(*preset(name))
    text = "\n".join(e.label() for e in cls.elements)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _LABEL_DIGESTS[name]


# sha256 of gens_to_text(*preset(name)): the generator lists and seed, in order
_GENS_TEXT_DIGESTS = {
    "sym4": "81dd31b8c4ba372429d7771084ced067a08628087ec1baca8a496aef53a1c29d",
    "sym5": "09fcd2af389e88ee78f4942ea372b42f798132ae4f6ce73119b6ed0331483277",
    "3_2_2": "7544d5ceaa0786ca0f2afc775f50ffcd459e594851456e96faa591d95d8043c7",
    "w_d4": "06485b16fe44fbc534938899e999d3dca39ae79db958d8a15ce2ef1fc00d447a",
    "3_3_sym4": "1a2bdbe51fa7a0f1eccaf7b5203bb200234967fbc2bbbad60b2ca8dcdc163be3",
    "su32": "72a7a6cd51f3c3e17786c4fff84e68fb3eaa0cd2f2a151a3de82c2c8db4ea119",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_generator_text_pinned(name):
    text = gens_to_text(*preset(name))
    assert hashlib.sha256(text.encode()).hexdigest() == _GENS_TEXT_DIGESTS[name]


def test_affineperm_inverse_and_associativity():
    rng = random.Random(12)
    els = conjugacy_class(*preset("3_3_sym4")).elements
    for _ in range(50):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * a.inverse()).is_identity()


def _with_sumzero(text):
    """A .gens text with the sumzero flag on its affineperm header."""
    header, rest = text.split("\n", 1)
    return f"{header} sumzero\n{rest}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_gens_round_trip(name):
    gens, seed = preset(name)
    text = gens_to_text(gens, seed)
    if isinstance(gens[0], AffinePerm):
        text = _with_sumzero(text)  # every affine preset's vectors sum to 0 mod p
    gens2, seed2 = parse_gens(text)
    assert [g.key() for g in gens2] == [g.key() for g in gens]
    assert seed2.key() == seed.key()
    # the parsed data reproduces the same space
    sp1 = fischer_from_class(conjugacy_class(gens, seed))
    sp2 = fischer_from_class(conjugacy_class(gens2, seed2))
    assert sp1.lines == sp2.lines


def _random_permutation(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def _random_element(rng, model, shape):
    """A seeded random element: a permutation of degree `shape`, an affine
    permutation of (p, m) = `shape`, its vector summing to 0 mod p for the
    sumzero model, or an affine map of GF(4)^3."""
    if model == "perm":
        return _random_permutation(rng, shape)
    if model == "affinemat":
        while True:
            elem = AffineMat([rng.randrange(4) for _ in range(3)],
                             [[rng.randrange(4) for _ in range(3)] for _ in range(3)])
            if elem.augmented.rank() == 4:
                return elem
    p, m = shape
    vec = [rng.randrange(p) for _ in range(m)]
    if model == "affineperm-sumzero":
        vec[-1] = -sum(vec[:-1]) % p
    return AffinePerm(p, vec, _random_permutation(rng, m))


@pytest.mark.parametrize("model", ["perm", "affineperm", "affineperm-sumzero", "affinemat"])
def test_gens_round_trip_random_elements(model):
    """parse_gens(gens_to_text(...)) gives back seeded random elements of
    every element type, and writing them again gives the same text."""
    rng = random.Random(f"gens-{model}")
    sumzero = model == "affineperm-sumzero"
    for _ in range(20):
        if model == "perm":
            shape = rng.randrange(1, 9)
        else:
            shape = (rng.choice((2, 3, 5)), rng.randrange(1, 7))
        *gens, seed = (_random_element(rng, model, shape) for _ in range(rng.randrange(2, 6)))
        text = gens_to_text(gens, seed)
        gens2, seed2 = parse_gens(_with_sumzero(text) if sumzero else text)
        assert [g.key() for g in gens2] == [g.key() for g in gens]
        assert seed2.key() == seed.key()
        assert gens_to_text(gens2, seed2) == text


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
    for n in ("0", "-3"):
        with pytest.raises(ValueError, match=f"^line 1: bad degree '{n}'$"):
            parse_gens(f"perm {n}\n()\nseed ()\n")
    with pytest.raises(ValueError, match="^line 2: bad prime 'p'$"):
        parse_gens("# comment\naffineperm p 2\n[0,0 | ()]\nseed [0,0 | ()]\n")
    for p in ("0", "4", "6", "9"):  # a composite modulus is refused as p < 2 is
        with pytest.raises(ValueError, match=f"^line 1: bad prime '{p}'$"):
            parse_gens(f"affineperm {p} 2\n[1,0 | ()]\nseed [0,0 | ()]\n")
    with pytest.raises(ValueError, match="^line 1: bad dimension '-2'$"):
        parse_gens("affineperm 3 -2\n[1,0 | ()]\nseed [0,0 | ()]\n")
    with pytest.raises(ValueError, match=r"^line 2: letter 2 is in two cycles of '\(1 2\)\(2 3\)'$"):
        parse_gens("perm 4\n(1 2)(2 3)\nseed (1 2)\n")
    with pytest.raises(ValueError, match="^line 3: the 3x3 matrix is singular$"):
        parse_gens("affinemat-gf4 3\n[0,0,0 | 1,0,0,0,1,0,0,0,1]\n"
                   "[0,0,0 | 1,2,0,2,3,0,0,0,1]\nseed [0,0,0 | 1,0,0,0,1,0,0,0,1]\n")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_parse_gens_reads_a_prime_modulus(p):
    gens, seed = parse_gens(f"affineperm {p} 2\n[1,0 | ()]\nseed [0,0 | ()]\n")
    assert gens[0].p == seed.p == p


def test_is_prime_matches_trial_division():
    """Exact on every p below 20,000 and on seeded 10-digit p; a strong
    pseudoprime to the prime bases up to 37 (399165290221 * 798330580441),
    Carmichael numbers and a product of two Mersenne primes are refused, and
    Mersenne primes of 19 and 27 digits pass."""
    def by_division(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    rng = random.Random(4343)
    for p in list(range(-3, 20_000)) + [rng.randrange(10**9, 10**10) for _ in range(300)]:
        assert transposition._is_prime(p) == by_division(p), p
    for p in (318665857834031151167461, 561, 41041, 3825123056546413051,
              (2**61 - 1) * (2**31 - 1)):
        assert not transposition._is_prime(p)
    assert transposition._is_prime(2**61 - 1) and transposition._is_prime(2**89 - 1)


def test_parse_gens_rejects_a_second_seed_line():
    text = "perm 4\n(1 2)\n(2 3)\n(3 4)\nseed (1 2)\n# again\nseed (1 2)(3 4)\n"
    with pytest.raises(ValueError, match="^line 7: a second seed line; the seed is on line 5$"):
        parse_gens(text)
    # a seed line may come before the generators, but only once
    with pytest.raises(ValueError, match="^line 4: a second seed line; the seed is on line 2$"):
        parse_gens("perm 4\nseed (1 2)\n(1 2)\nseed (1 2)\n")


def test_parse_gens_seed_keyword_stands_alone():
    # the seed line's first token is exactly `seed`; a token that only starts
    # with it is a misspelt keyword, not a seed or a generator
    for line, keyword in (("seeds (1 2)", "seeds"), ("seed(1 2)", "seed(1"),
                          ("seed_x (1 2)", "seed_x")):
        with pytest.raises(ValueError) as exc:
            parse_gens(f"perm 4\n(1 2)\n{line}\n")
        assert str(exc.value) == (f"line 3: unknown keyword {keyword!r}; "
                                  "the seed line is 'seed <element>'")
    gens, seed = parse_gens("perm 4\n(1 2)\n  seed\t(1 2)  \n")
    assert seed.key() == gens[0].key()


def test_load_space_locates_errors_after_parsing_and_keeps_their_class(tmp_path):
    # each file parses; its class or its space fails, at the seed's line
    cases = [
        ("perm 3\n(1 2)\nseed (1 2 3)\n", NotTranspositionClass,
         "line 3: seed must be an involution"),
        ("perm 4\n(2 3)\n(3 4)\n\nseed (1 2)  # outside the group\n", NotTranspositionClass,
         "line 5: d*e*d = (2 3) is not in the class, for collinear pair ((1 2), (1 3))"),
        ("perm 6\nseed (1 2)\n(1 3)(2 4)\n(3 5)(4 6)\n", fischer.InvalidSpaceError,
         "line 2: point count 3 exceeds 3 times the number of lines (0)"),
    ]
    path = tmp_path / "bad.gens"
    for text, kind, message in cases:
        path.write_text(text)
        with pytest.raises(kind) as exc:
            fischer.load_space(path)
        assert str(exc.value) == message
        with pytest.raises(kind) as exc:
            space_from_gens(text)
        assert str(exc.value) == message
        parse_gens(text)  # the parse alone succeeds


def test_parse_gens_affinemat():
    d, e, f = su32_matrix_involutions()
    text = gens_to_text([d, e, f], d)
    gens, seed = parse_gens(text)
    assert gens[1].matrix == e.matrix
    assert seed.key() == d.key()


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset("unknown")
