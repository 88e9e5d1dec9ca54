"""Finite 3-transposition group engine.

Three concrete element models are shipped, all sharing the same black-box
interface (multiply, inverse, equality/hash via a canonical key, printable
label) through the GroupElement base class:

  Permutation   images on n letters; (p*q)(i) = p(q(i)), i.e. q acts first.
  AffinePerm    pairs [v, s] with v in F_p^m and s a coordinate permutation;
                [v, s][w, t] = [v.t + w, st] where (v.t)_i = v[t(i)].
  AffineMat     pairs [v, g] with v in GF(4)^3 and g in GL_3(GF(4));
                [v, g][w, h] = [v.h + w, gh] with v.h a row-vector product.
                Stored as the 4x4 FieldMatrix [[g, 0], [v, 1]], whose product
                [[g,0],[v,1]][[h,0],[w,1]] = [[gh,0],[vh+w,1]] is exactly the
                group law, so products and inverses are FieldMatrix ones.

A distinguished conjugacy class of involutions is enumerated by breadth-first
closure of a seed under conjugation by the generators; the enumeration order
(BFS layer, then canonical key) is frozen so derived point indices are
reproducible.
"""

from __future__ import annotations

import re

from . import fischer
from .gf import Field, FieldMatrix

_GF4 = Field(2)
_I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_IDENTITY4 = FieldMatrix.identity(_GF4, 4)

DEFAULT_CLASS_CAP = 10_000


class NotTranspositionClass(ValueError):
    """The seed/generators do not produce a 3-transposition class."""


# -- element models -----------------------------------------------------------


class GroupElement:
    """Equality, hashing and printing shared by the element models.

    A model defines `key()`, a hashable canonical form that starts with the
    model's name, and `label()`, its printed form; two elements are equal
    when they are of the same model and have equal keys.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.key() == self.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return self.label()


class Permutation(GroupElement):
    __slots__ = ("images",)

    def __init__(self, images) -> None:
        self.images = tuple(images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        im = list(range(n))
        im[i], im[j] = im[j], im[i]
        return cls(im)

    @classmethod
    def from_cycles(cls, n: int, text: str) -> "Permutation":
        """Parse disjoint-cycle notation like '(1 2)(3 4)'; 1-based letters."""
        if not re.fullmatch(r"\s*(\([^()]*\)\s*)*", text):
            raise ValueError(f"bad cycle notation {text!r}")
        im = list(range(n))
        used = set()
        for cyc in re.findall(r"\(([^()]*)\)", text):
            entries = [int(t) - 1 for t in cyc.split()]
            if not entries:
                continue
            if any(not 0 <= e < n for e in entries) or len(set(entries)) != len(entries):
                raise ValueError(f"bad cycle {cyc!r} for degree {n}")
            for e in entries:
                if e in used:
                    raise ValueError(f"letter {e + 1} is in two cycles of {text.strip()!r}")
            used.update(entries)
            for a, b in zip(entries, entries[1:] + entries[:1]):
                im[a] = b
        return cls(im)

    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        oi = other.images
        si = self.images
        if len(oi) != len(si):
            raise ValueError(f"mixed degrees {len(si)} and {len(oi)}")
        return Permutation(si[oi[i]] for i in range(len(si)))

    def _check(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"images {list(self.images)} are not a permutation")

    def inverse(self) -> "Permutation":
        self._check()
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(out)

    def key(self):
        return ("perm", self.images)

    def label(self) -> str:
        self._check()
        seen = [False] * len(self.images)
        cycles = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
        return "".join(cycles) if cycles else "()"


class AffinePerm(GroupElement):
    __slots__ = ("p", "vector", "perm")

    def __init__(self, p: int, vector, perm: Permutation) -> None:
        self.p = p
        self.vector = tuple(c % p for c in vector)
        self.perm = perm
        if len(self.vector) != perm.degree():
            raise ValueError("vector length differs from permutation degree")

    @classmethod
    def identity(cls, p: int, m: int) -> "AffinePerm":
        return cls(p, (0,) * m, Permutation.identity(m))

    def _act(self, tau: Permutation):
        v = self.vector
        return tuple(v[tau.images[i]] for i in range(len(v)))

    def is_identity(self) -> bool:
        return self.perm.is_identity() and not any(self.vector)

    def __mul__(self, other: "AffinePerm") -> "AffinePerm":
        if other.p != self.p:
            raise ValueError("mixed moduli")
        perm = self.perm * other.perm  # checks the degrees before _act reads them
        vt = self._act(other.perm)
        return AffinePerm(self.p, (a + b for a, b in zip(vt, other.vector)), perm)

    def inverse(self) -> "AffinePerm":
        pi = self.perm.inverse()
        return AffinePerm(self.p, (-c for c in self._act(pi)), pi)

    def key(self):
        return ("affineperm", self.p, self.vector, self.perm.images)

    def label(self) -> str:
        vec = ",".join(str(c) for c in self.vector)
        return f"[{vec} | {self.perm.label()}]"


def _gf4_entries(row: int) -> tuple[int, int, int]:
    """The first three GF(4) entries of a packed row, read from its 2-bit lanes."""
    return (row & 3, row >> 2 & 3, row >> 4 & 3)


class AffineMat(GroupElement):
    """[v, g] with v a GF(4) row vector of length 3, g an invertible 3x3 matrix.

    Entries are GF(4) bit patterns 0..3 (2 = w, 3 = w+1).  The pair is held as
    the 4x4 matrix `augmented` = [[g, 0], [v, 1]].
    """

    __slots__ = ("augmented",)

    def __init__(self, vector, matrix) -> None:
        vector = tuple(vector)
        matrix = [tuple(r) for r in matrix]
        if len(vector) != 3 or len(matrix) != 3 or any(len(r) != 3 for r in matrix):
            raise ValueError("AffineMat is fixed at dimension 3")
        self.augmented = FieldMatrix.from_rows(
            _GF4, [r + (0,) for r in matrix] + [vector + (1,)]
        )

    @classmethod
    def _of(cls, augmented: FieldMatrix) -> "AffineMat":
        x = object.__new__(cls)
        x.augmented = augmented
        return x

    @classmethod
    def identity(cls) -> "AffineMat":
        return cls._of(_IDENTITY4)

    @classmethod
    def translation(cls, vector) -> "AffineMat":
        return cls(vector, _I3)

    @property
    def vector(self) -> tuple[int, ...]:
        return _gf4_entries(self.augmented.rows[3])

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_gf4_entries(r) for r in self.augmented.rows[:3])

    def is_identity(self) -> bool:
        return self.augmented == _IDENTITY4

    def __mul__(self, other: "AffineMat") -> "AffineMat":
        return AffineMat._of(self.augmented * other.augmented)

    def inverse(self) -> "AffineMat":
        return AffineMat._of(self.augmented.inverse())

    def key(self):
        return ("affinemat", self.vector, self.matrix)

    def __eq__(self, other) -> bool:
        # The augmented matrix determines the key, so comparing it is the same
        # test without decoding the GF(4) entries; hashing still uses key().
        return type(other) is type(self) and other.augmented == self.augmented

    __hash__ = GroupElement.__hash__

    def label(self) -> str:
        vec = ",".join(str(c) for c in self.vector)
        mat = ",".join(str(c) for row in self.matrix for c in row)
        return f"[{vec} | {mat}]"


# -- class enumeration ----------------------------------------------------------


def product_order(d, e, cap: int = 12) -> int:
    """Least n >= 1 with (de)^n = 1, by iteration."""
    x = d * e
    y = x
    n = 1
    while not y.is_identity():
        y = y * x
        n += 1
        if n > cap:
            raise NotTranspositionClass(f"product order exceeds cap {cap}")
    return n


class TranspositionClass:
    """An enumerated conjugacy class of 3-transpositions.  For members d, e
    at i < j with o(de) = 3, `thirds[(i, j)]` is d*e*d, the third point of their line.
    """

    __slots__ = ("seed", "elements", "_index", "thirds")

    def __init__(self, seed, elements, thirds) -> None:
        self.seed = seed
        self.elements = tuple(elements)
        self._index = {e.key(): i for i, e in enumerate(self.elements)}
        self.thirds = thirds

    def size(self) -> int:
        return len(self.elements)

    def index(self, element) -> int:
        return self._index[element.key()]

    def __contains__(self, element) -> bool:
        return element.key() in self._index

    def order(self, i: int, j: int) -> int:
        """Order of the product of members i and j: 1, 2 or 3."""
        if i == j:
            return 1
        return 3 if (min(i, j), max(i, j)) in self.thirds else 2

    def __repr__(self) -> str:
        return f"TranspositionClass({len(self.elements)} involutions)"


def conjugacy_class(generators, seed, cap: int = DEFAULT_CLASS_CAP) -> TranspositionClass:
    """BFS closure of the seed under conjugation by the generators.

    Enumeration order is frozen: layer by layer, each layer sorted by the
    elements' canonical keys.  The seed must be an involution, and so is
    every conjugate of it, since (g^-1 x g)^2 = g^-1 x^2 g; every pair must
    have product order at most 3.  For involutions d != e that is
    one test of ded = d*e*d: ded = e when o(de) = 2, ded = ede when
    o(de) = 3, and neither otherwise.
    """
    if seed.is_identity() or not (seed * seed).is_identity():
        raise NotTranspositionClass("seed must be an involution")
    gen_pairs = [(g, g.inverse()) for g in generators]
    found = {seed.key()}
    ordered = [seed]
    frontier = [seed]
    while frontier:
        new = {}
        for x in frontier:
            for g, gi in gen_pairs:
                y = gi * x * g
                k = y.key()
                if k not in found and k not in new:
                    new[k] = y
        if len(found) + len(new) > cap:
            raise NotTranspositionClass(f"class size exceeds cap {cap}")
        frontier = [new[k] for k in sorted(new)]
        found.update(new)
        ordered.extend(frontier)

    thirds = {}
    for i, d in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            e = ordered[j]
            de = d * e
            ded = de * d
            if ded == e:
                continue
            if ded != e * de:
                raise NotTranspositionClass(f"product order > 3 for pair ({d!r}, {e!r})")
            thirds[(i, j)] = ded
    return TranspositionClass(seed, ordered, thirds)


def fischer_from_class(cls: TranspositionClass,
                       meta: fischer.SpaceMeta | None = None) -> fischer.FischerSpace:
    """Points are the class members; {d, e, ded} is a line when o(de) = 3."""
    lines = set()
    for (i, j), ded in cls.thirds.items():
        if ded not in cls:
            raise NotTranspositionClass(
                f"d*e*d = {ded!r} is not in the class, for collinear pair "
                f"({cls.elements[i]!r}, {cls.elements[j]!r})"
            )
        lines.add(tuple(sorted((i, j, cls.index(ded)))))
    labels = [e.label() for e in cls.elements]
    return fischer.validate(cls.size(), sorted(lines), labels=labels, meta=meta)


# -- presets --------------------------------------------------------------------

PRESET_NAMES = ("sym4", "sym5", "3_2_2", "w_d4", "3_3_sym4", "su32")

# involutions generating SU_3(2)' as 3x3 matrices over GF(4); 2 = w, 3 = w+1
_SU32_D = ((1, 0, 0), (1, 1, 0), (1, 0, 1))
_SU32_E = ((1, 1, 0), (0, 1, 0), (0, 3, 1))
_SU32_F = ((1, 0, 1), (0, 1, 2), (0, 0, 1))


def preset(name: str):
    """Generator data (generators, seed) reproducing the catalog spaces."""
    if name in ("sym4", "sym5"):
        n = int(name[3])
        gens = [Permutation.transposition(n, i, i + 1) for i in range(n - 1)]
    elif name in ("w_d4", "3_3_sym4"):
        # p^3:Sym(4): the adjacent transpositions and [(1, -1, 0, 0) | (1 2)]
        p = 2 if name == "w_d4" else 3
        s = [Permutation.transposition(4, i, i + 1) for i in range(3)]
        gens = [AffinePerm(p, (0, 0, 0, 0), t) for t in s]
        gens.append(AffinePerm(p, (1, -1, 0, 0), s[0]))
    elif name == "3_2_2":
        # x -> c - x on F_3^2 for c = (0, 0), (1, 0), (0, 1); point 3i + j is (i, j)
        gens = [
            Permutation(3 * ((c0 - i) % 3) + (c1 - j) % 3 for i in range(3) for j in range(3))
            for c0, c1 in ((0, 0), (1, 0), (0, 1))
        ]
    elif name == "su32":
        # the matrix involutions alone only reach their own conjugates; the
        # translation part of the affine group is needed to sweep out the
        # full class of 36 points
        gens = list(su32_matrix_involutions()) + [
            AffineMat.translation(v)
            for v in (
                (1, 0, 0), (2, 0, 0),
                (0, 1, 0), (0, 2, 0),
                (0, 0, 1), (0, 0, 2),
            )
        ]
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return gens, gens[0]


def su32_matrix_involutions():
    """The three matrix involutions [0,d], [0,e], [0,f] of the su32 preset."""
    return tuple(AffineMat((0, 0, 0), g) for g in (_SU32_D, _SU32_E, _SU32_F))


# -- .gens file format ------------------------------------------------------------
#
#   perm <n>                      |  affineperm <p> <m> [sumzero]  |  affinemat-gf4 <dim>
#   one generator per line        |  [c1,...,cm | (cycles)]        |  [v1,v2,v3 | 9 bits]
#   ...
#   seed <same element syntax>


def _parse_affine_body(body: str):
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected '[...|...]', got {body!r}")
    inner = body[1:-1]
    left, _, right = inner.partition("|")
    return left.strip(), right.strip()


def _parse_element(model, body: str):
    kind = model[0]
    if kind == "perm":
        return Permutation.from_cycles(model[1], body)
    if kind == "affineperm":
        p, m, sumzero = model[1], model[2], model[3]
        vec_s, perm_s = _parse_affine_body(body)
        vec = tuple(int(c) % p for c in vec_s.split(","))
        if len(vec) != m:
            raise ValueError(f"expected {m} coordinates, got {len(vec)}")
        if sumzero and sum(vec) % p != 0:
            raise ValueError(f"vector {vec} violates the sumzero constraint")
        return AffinePerm(p, vec, Permutation.from_cycles(m, perm_s))
    if kind == "affinemat":
        vec_s, mat_s = _parse_affine_body(body)
        vec = tuple(int(c) for c in vec_s.split(","))
        ent = [int(c) for c in mat_s.split(",")]
        if len(ent) != 9:
            raise ValueError(f"expected 9 matrix entries, got {len(ent)}")
        if any(not 0 <= c < 4 for c in vec + tuple(ent)):
            raise ValueError("GF(4) bit patterns must be in 0..3")
        elem = AffineMat(vec, (ent[0:3], ent[3:6], ent[6:9]))
        if elem.augmented.rank() != 4:
            raise ValueError("the 3x3 matrix is singular")
        return elem
    raise AssertionError(kind)


def _parse_int(token: str, lineno: int, what: str, valid=lambda v: True) -> int:
    """The int a header token spells, refused as a bad `what` unless valid."""
    try:
        if valid(v := int(token)):
            return v
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: bad {what} {token!r}")


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases up to 41: exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s exactly divides p - 1
    d = (p - 1) >> s
    return all(pow(b, d, p) == 1 or p - 1 in (pow(b, d << i, p) for i in range(s)) for b in bases)


def parse_gens(text: str):
    """Parse the .gens format; returns (generators, seed).  A file has one seed line."""
    return _parse_gens(text)[:2]


def space_from_gens(text: str) -> fischer.FischerSpace:
    """The Fischer space of a .gens text's class (parse_gens, conjugacy_class,
    fischer_from_class); an error raised after parsing keeps its class and is
    prefixed with the file line of the seed."""
    gens, seed, seed_line = _parse_gens(text)
    try:
        return fischer_from_class(conjugacy_class(gens, seed))
    except ValueError as exc:
        raise type(exc)(f"line {seed_line}: {exc}") from None


def _parse_gens(text: str):
    """(generators, seed, file line of the seed) of a .gens text.

    The seed line is the one whose first whitespace-separated token is
    exactly `seed`; any other first token starting with `seed` is refused.
    """
    model = None
    gens = []
    seed = seed_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if model is None:
            parts = stripped.split()
            if parts[0] == "perm" and len(parts) == 2:
                model = ("perm", _parse_int(parts[1], lineno, "degree", lambda n: n >= 1))
            elif parts[0] == "affineperm" and len(parts) in (3, 4):
                sumzero = len(parts) == 4 and parts[3] == "sumzero"
                if len(parts) == 4 and not sumzero:
                    raise ValueError(f"line {lineno}: bad affineperm flag {parts[3]!r}")
                p = _parse_int(parts[1], lineno, "prime", _is_prime)
                m = _parse_int(parts[2], lineno, "dimension", lambda m: m >= 1)
                model = ("affineperm", p, m, sumzero)
            elif parts[0] == "affinemat-gf4" and len(parts) == 2:
                if _parse_int(parts[1], lineno, "dimension") != 3:
                    raise ValueError(f"line {lineno}: affinemat-gf4 only supports dimension 3")
                model = ("affinemat",)
            else:
                raise ValueError(f"line {lineno}: bad header {stripped!r}")
            continue
        keyword = stripped.split(None, 1)[0]
        try:
            if keyword == "seed":
                if seed_line is not None:
                    raise ValueError(f"a second seed line; the seed is on line {seed_line}")
                seed_line = lineno
                seed = _parse_element(model, stripped[4:].strip())
            elif keyword.startswith("seed"):
                raise ValueError(f"unknown keyword {keyword!r}; the seed line is 'seed <element>'")
            else:
                gens.append(_parse_element(model, stripped))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if model is None:
        raise ValueError("missing model header")
    if seed is None:
        raise ValueError("missing 'seed <element>' line")
    if not gens:
        raise ValueError("no generators given")
    return gens, seed, seed_line


def gens_to_text(generators, seed) -> str:
    """Serialize generator data in the .gens format, with no sumzero flag."""
    first = generators[0]
    if isinstance(first, Permutation):
        header = f"perm {first.degree()}"
    elif isinstance(first, AffinePerm):
        header = f"affineperm {first.p} {len(first.vector)}"
    elif isinstance(first, AffineMat):
        header = "affinemat-gf4 3"
    else:
        raise TypeError(f"unknown element model {first!r}")
    out = [header]
    out.extend(g.label() for g in generators)
    out.append(f"seed {seed.label()}")
    return "\n".join(out) + "\n"
