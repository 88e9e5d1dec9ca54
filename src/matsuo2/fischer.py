"""Partial triple systems and Fischer spaces.

Points are dense indices 0..n-1; lines are sorted index triples kept in
lexicographic order.  Validation enforces the partial-linear-space axioms,
connectivity, the 0-2-3 collinearity property, and that any two intersecting
lines generate either a complete quadrilateral (6 points, 4 lines) or an
affine plane of order 3 (9 points, 12 lines).  Both checks together
characterize the spaces this package works on.  Validation reads the lines
once, into one pair table keyed x * n + y, each point's collinearity mask
and the lines through each point; the 0-2-3 check and `points_p0_p2` read
the masks of a line's three points, with no loop over the points.  The
pair table holds the third point and the line id of each collinear pair
while `validate` runs, and the space keeps the third points alone as its
wedge table.  The plane of two lines {x, a, a'} and {x, b, b'} is the two
lines plus the wedge of each collinear cross pair, and it is checked by its
shape: a 6-point plane by whether x sees the one new point, a 9-point plane
by whether six triples of its points are lines, and any other size fails
(the docstring of `validate` shows why this is exact).  The closure
(`_closure`, which `generated_subspace` wraps) is formed only to word the
error.  `validate` builds every table as a local and constructs the frozen
`FischerSpace` once, at the end, so a space is complete when it exists.

A line's id is its position in `lines`.  `FischerSpace.line_id` is the one
place that turns a triple, its points in any order, into an id; it raises
for a triple that is not a line.  Per id the space keeps the line's point
mask (`line_masks`) and the planes through it: validation records each
plane once, as a point bitmask listed against every line inside it, and
keeps the coplanar mask of each line: the ids of the other lines that share
a recorded plane with it, which `FischerSpace.coplanar` reads.
`FischerSpace.plane_of(i, j)` is the one lookup of the plane holding two
lines; it answers a pair in no common plane from one bit of that mask,
without scanning the planes.  A pair of intersecting lines that already
lies in a recorded plane is not visited again: the plane is closed, and any
two intersecting lines of a quadrilateral or an affine plane generate all
of it.

`reflections` builds the point reflections, which `decomp` checks against
an algebra and whose line orbits it walks.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass

from .gf import mask_from_support, vec_support


class InvalidSpaceError(ValueError):
    """Input fails one of the Fischer space axioms."""


class PlaneType(enum.Enum):
    COMPLETE_QUADRILATERAL = "cq"
    AFFINE_PLANE = "affine"


@dataclass(frozen=True)
class SpaceMeta:
    """Catalog metadata; rank and symplectic flag are declared, not computed."""

    name: str
    rank: int
    symplectic: bool


@dataclass(frozen=True, slots=True, eq=False)
class FischerSpace:
    """A validated partial triple system satisfying the Fischer space axioms.

    Instances are only created by validate(), which builds every table first
    and passes them complete to the constructor; the space is frozen, so no
    field is assigned afterwards, and every field is a constructor argument.
    Equality is identity.
    """

    n_points: int
    labels: tuple[str, ...]
    lines: tuple[tuple[int, int, int], ...]
    line_masks: tuple[int, ...]  # per line id: its point mask
    meta: SpaceMeta | None
    collinear: tuple[int, ...]  # per point: bitmask of collinear points
    _line_ids: dict[tuple[int, int, int], int]
    _wedge: dict[int, int]  # key x * n_points + y: third point of the line through x, y
    _planes: tuple[tuple[int, ...], ...]  # per line id: masks of the planes through it
    _coplanar: tuple[int, ...]  # per line id: mask of the other line ids in those planes
    _symplectic: bool

    def line_id(self, line) -> int:
        """Position in `lines` of a line given by its points in any order."""
        if isinstance(line, tuple):
            i = self._line_ids.get(line)
            if i is not None:
                return i
        try:
            return self._line_ids[tuple(sorted(line))]
        except KeyError:
            raise ValueError(f"{line!r} is not a line of the space") from None

    def coplanar(self, i: int) -> int:
        """Mask of the ids of the lines other than i that share a recorded
        plane with line i."""
        _refuse_outside(len(self.lines), "line id", i)
        return self._coplanar[i]

    def plane_of(self, i: int, j: int) -> int:
        """Point mask of the recorded plane holding distinct lines i and j, or 0.

        Bit j of the coplanar mask of line i tells whether any recorded plane
        holds both lines, so a pair in no common plane costs one bit test;
        otherwise the planes through line i are scanned for line j.  Equal
        ids, and an id outside 0..len(lines)-1, raise ValueError.
        """
        _refuse_outside(len(self.lines), "line id", i, j)
        if i == j:
            raise ValueError("lines must be distinct")
        if not (self._coplanar[i] >> j) & 1:
            return 0
        mj = self.line_masks[j]
        for p in self._planes[i]:
            if p & mj == mj:
                return p
        return 0

    def is_line(self, triple) -> bool:
        try:
            self.line_id(triple)
        except ValueError:
            return False
        return True

    def are_collinear(self, x: int, y: int) -> bool:
        """Whether distinct points x and y lie on a line; a point outside
        0..n-1 raises ValueError."""
        _refuse_outside(self.n_points, "point", x, y)
        return x != y and bool((self.collinear[x] >> y) & 1)

    def __repr__(self) -> str:
        name = self.meta.name if self.meta else "custom"
        return f"FischerSpace({name}: {self.n_points} points, {len(self.lines)} lines)"


# bit i of a byte moved to bit 7 - i, for the plane order key of validate
_BIT_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _check_point_count(n_points: int, n_lines: int) -> None:
    """Reject a point count that n_lines lines of 3 points cannot cover."""
    if n_points > max(1, 3 * n_lines):
        raise InvalidSpaceError(
            f"point count {n_points} exceeds 3 times the number of lines ({n_lines})"
        )


def _refuse_outside(n: int, what: str, *values: int) -> None:
    """Raise ValueError naming the first of values outside 0..n-1 as a `what`."""
    for v in values:
        if not 0 <= v < n:
            raise ValueError(f"{what} {v} is outside 0..{n - 1}")


def _others(t, x: int) -> tuple[int, int]:
    """The two points of line t other than its point x."""
    p, q, r = t
    return (q, r) if p == x else (p, r) if q == x else (p, q)


def validate(n_points: int, lines, labels=None, meta: SpaceMeta | None = None) -> FischerSpace:
    """Check the axioms and build the tables, from one pass over the sorted lines.

    A point count the lines cannot cover fails before any per-point table exists.

    Two intersecting lines li = {x, a, a'} and lj = {x, b, b'} are checked
    by the shape of the set P of their points and the wedge of each
    collinear cross pair.  P lies in the subspace they generate, and a
    complete quadrilateral or an affine plane through them is exactly P.
    By the 0-2-3 property each of a, a', b, b' sees a cross partner, so 2
    cross pairs are collinear, as a matching, or 3, or all 4.  Two cross
    pairs through one point have distinct wedges, so |P| = 6 exactly when a
    matching has one common wedge w, |P| = 9 exactly when all 4 pairs are
    collinear with distinct wedges, and any other P has 7 or 8 points,
    which fails.

    - |P| = 6, with lines li, lj, {a, b, w} and {a', b', w} (or the other
      matching): accept iff x is not collinear with w.  Then, as a, b' and
      a', b are not collinear, the collinear pairs of P are the 12 pairs of
      those 4 lines, so P is closed and each point sees 4 others; if x sees
      w, their line leaves P.
    - |P| = 9, with w1 = w(a,b), w2 = w(a,b'), w3 = w(a',b), w4 = w(a',b'):
      accept iff {x,w1,w4}, {x,w2,w3}, {b,w2,w4}, {b',w1,w3}, {a,w3,w4} and
      {a',w1,w2} are lines.  With li, lj and the 4 cross lines these are 12
      lines, which cover the 36 pairs of P once, so P is closed and every
      point sees 8 others.  Conversely a closed 9-point set whose points
      each see 8 others is a Steiner triple system on 9 points, which is
      AG(2,3); put x = (0,0), a = (1,0), b = (0,1), with -(p+q) the third
      point of the line through p and q, and the six triples are lines.
    """
    if n_points < 1:
        raise InvalidSpaceError("a space needs at least one point")
    norm = []
    for raw in lines:
        t = tuple(sorted(raw))
        if len(t) != 3 or len(set(t)) != 3:
            raise InvalidSpaceError(f"line {raw!r} does not have 3 distinct points")
        if t[0] < 0 or t[2] >= n_points:
            raise InvalidSpaceError(f"line {raw!r} has a point outside 0..{n_points - 1}")
        norm.append(t)
    norm.sort()
    _check_point_count(n_points, len(norm))

    # pair[p * n + q], for collinear p and q in either order, is
    # (r << shift) | i for the third point r and the id i of their line; the
    # plane pass reads both, and the space keeps r alone as its wedge table
    n = n_points
    shift = len(norm).bit_length()
    ids = (1 << shift) - 1
    pair: dict[int, int] = {}
    collinear = [0] * n_points
    lines_through: list[list[int]] = [[] for _ in range(n_points)]
    for i, t in enumerate(norm):
        x, y, z = t
        for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
            if a * n + b in pair:
                other = norm[pair[a * n + b] & ids]
                if other == t:
                    raise InvalidSpaceError(f"line {t} is listed twice")
                raise InvalidSpaceError(
                    f"lines {other} and {t} share two points {a}, {b}"
                )
            pair[a * n + b] = pair[b * n + a] = (c << shift) | i
            collinear[c] |= (1 << a) | (1 << b)
            lines_through[c].append(i)

    # connectivity under collinearity
    seen = 1
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            m = collinear[x] & ~seen
            while m:
                low = m & -m
                seen |= low
                nxt.append(low.bit_length() - 1)
                m ^= low
        frontier = nxt
    if seen != (1 << n_points) - 1:
        missing = next(i for i in range(n_points) if not (seen >> i) & 1)
        raise InvalidSpaceError(f"space is disconnected (point {missing} unreachable from 0)")

    labels = tuple(labels) if labels is not None else tuple(map(str, range(n_points)))
    line_ids = {t: i for i, t in enumerate(norm)}
    masks = tuple(mask_from_support(t) for t in norm)

    # 0-2-3 property: no point sees exactly one point of a line; a point on
    # the line sees the other two, so only points off it can be odd ones out
    for t in norm:
        ca, cb, cc = (collinear[p] for p in t)
        one = (ca ^ cb ^ cc) & ~(ca & cb & cc)
        if one:
            x = (one & -one).bit_length() - 1
            raise InvalidSpaceError(
                f"point {x} is collinear with exactly one point of line {t}"
            )
    if len(labels) != n_points:
        raise InvalidSpaceError("label count differs from point count")

    # every pair of intersecting lines must generate a 6- or 9-point plane,
    # checked by its shape as the docstring sets out; get(k, -1) >> shift is
    # -1 for a pair k that is not collinear, and no point.  shared[k] masks
    # the line ids that lie in a recorded plane with line k, and the space
    # keeps it, less bit k, as the coplanar mask; planes_of[k] lists the
    # planes through line k.  They are ordered at the end as their sorted
    # point lists are: plane A comes first iff min(A ^ B) lies in A, as no
    # plane holds another, so key_of keeps each plane's mask bit-reversed
    # over a fixed width and the planes sort by it descending.
    get = pair.get
    width = (n + 7) // 8
    planes_of: list[list[int]] = [[] for _ in norm]
    key_of: dict[int, int] = {}
    shared = [0] * len(norm)
    for x in range(n_points):
        through = lines_through[x]
        at_x = mask_from_support(through)
        xn, cx = x * n, collinear[x]
        for li in through:
            a, a2 = _others(norm[li], x)
            an, a2n = a * n, a2 * n
            above = at_x >> (li + 1) << (li + 1)
            while partners := above & ~shared[li]:
                lj = (partners & -partners).bit_length() - 1
                b, b2 = _others(norm[lj], x)
                v1, v2, v3, v4 = get(an + b), get(an + b2), get(a2n + b), get(a2n + b2)
                inside = None
                if v2 is None and v3 is None or v1 is None and v4 is None:
                    # two cross pairs, a matching; the 0-2-3 property gives the other two
                    u, v = (v1, v4) if v2 is None else (v2, v3)
                    w = u >> shift
                    if v >> shift == w and not (cx >> w) & 1:
                        inside = (li, lj, u & ids, v & ids)
                        pm = masks[li] | masks[lj] | (1 << w)
                elif None not in (v1, v2, v3, v4):
                    w1, w2, w3, w4 = v1 >> shift, v2 >> shift, v3 >> shift, v4 >> shift
                    u1, u2 = get(xn + w1, -1), get(xn + w2, -1)
                    u3, u4 = get(b * n + w2, -1), get(b2 * n + w1, -1)
                    u5, u6 = get(an + w3, -1), get(a2n + w1, -1)
                    if (u1 >> shift == w4 and u2 >> shift == w3 and u3 >> shift == w4
                            and u4 >> shift == w3 and u5 >> shift == w4
                            and u6 >> shift == w2):
                        inside = (li, lj, v1 & ids, v2 & ids, v3 & ids, v4 & ids,
                                  u1 & ids, u2 & ids, u3 & ids, u4 & ids, u5 & ids,
                                  u6 & ids)
                        pm = (masks[li] | masks[lj] | (1 << w1) | (1 << w2)
                              | (1 << w3) | (1 << w4))
                if inside is None:
                    wedge_of = {k: v >> shift for k, v in pair.items()}
                    pts = _closure(collinear, wedge_of, norm[li] + norm[lj])
                    raise InvalidSpaceError(
                        f"lines {norm[li]} and {norm[lj]} generate a {len(pts)}-point "
                        "subspace that is neither a complete quadrilateral nor an "
                        "affine plane"
                    )
                key_of[pm] = int.from_bytes(
                    pm.to_bytes(width, "little").translate(_BIT_REVERSED), "big")
                inside_mask = mask_from_support(inside)
                for k in inside:
                    planes_of[k].append(pm)
                    shared[k] |= inside_mask
    for k in range(len(shared)):  # in place, so no second set of masks is alive
        shared[k] &= ~(1 << k)
    for k, v in pair.items():  # in place too: the values become the wedge table
        pair[k] = v >> shift
    return FischerSpace(
        n_points, labels, tuple(norm), masks, meta, tuple(collinear), line_ids, pair,
        tuple(tuple(sorted(ps, key=key_of.__getitem__, reverse=True)) for ps in planes_of),
        tuple(shared),
        not any(p.bit_count() == 9 for ps in planes_of for p in ps),
    )


def wedge(s: FischerSpace, x: int, y: int) -> int:
    """The third point on the line through two collinear points; a point
    outside 0..n-1 raises ValueError."""
    _refuse_outside(s.n_points, "point", x, y)
    if x == y:
        raise ValueError(f"wedge needs two distinct points, got {x} twice")
    try:
        return s._wedge[x * s.n_points + y]
    except KeyError:
        raise ValueError(f"points {x} and {y} are not collinear") from None


def _closure(collinear, wedge, seed) -> frozenset[int]:
    """Smallest point set containing the seed and closed under wedge, read
    from the collinearity masks and the wedge table, keyed x * n + y."""
    n = len(collinear)
    pts = set(seed)
    if not pts:
        raise ValueError("seed must be nonempty")
    todo = list(pts)
    done: list[int] = []
    while todo:
        x = todo.pop()
        cm = collinear[x]
        for y in done:
            if (cm >> y) & 1:
                z = wedge[x * n + y]
                if z not in pts:
                    pts.add(z)
                    todo.append(z)
        done.append(x)
    return frozenset(pts)


def generated_subspace(s: FischerSpace, seed) -> frozenset[int]:
    """Smallest point set containing the seed and closed under wedge.

    Every seed point must lie in 0..n-1.
    """
    seed = tuple(seed)
    _refuse_outside(s.n_points, "point", *seed)
    return _closure(s.collinear, s._wedge, seed)


def reflections(s: FischerSpace) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per point y, the reflection sigma_y as (point images, line-id images).

    sigma_y sends x collinear with y to x^y, read from the wedge table, and
    fixes every other point; in a Fischer space it is an automorphism
    (Fischer, 1971; Cuypers and Hall, 1995).  It swaps lines in pairs, so one
    line_id lookup serves both lines of a pair, and a line through y or with
    no point collinear with y is fixed with no lookup.  line_id raises for an
    image that is not a line, which a validated space cannot hold.
    """
    n, masks, wedge_of = s.n_points, s.line_masks, s._wedge
    out = []
    for y in range(n):
        cm = s.collinear[y]
        images = tuple(wedge_of[y * n + x] if (cm >> x) & 1 else x for x in range(n))
        perm = list(range(len(masks)))
        for k, t in enumerate(s.lines):
            if perm[k] == k and masks[k] & cm and not (masks[k] >> y) & 1:
                m = s.line_id([images[p] for p in t])
                perm[k], perm[m] = m, k
        out.append((images, tuple(perm)))
    return tuple(out)


def plane_mask(s: FischerSpace, line1, line2) -> int:
    """Point mask of the recorded plane holding two distinct lines, or 0.

    Two distinct lines lie in at most one recorded plane: intersecting lines
    generate exactly one, and disjoint lines share only an affine plane, which
    they generate.  So the mask is nonzero for every intersecting pair.
    """
    try:
        i, j = s.line_id(line1), s.line_id(line2)
    except ValueError:
        raise ValueError("both arguments must be lines of the space") from None
    return s.plane_of(i, j)


def plane_type(s: FischerSpace, line1, line2) -> PlaneType:
    """Classify the subspace generated by two distinct intersecting lines."""
    plane = plane_mask(s, line1, line2)
    if not set(line1) & set(line2):
        raise ValueError("lines must intersect")
    if plane.bit_count() == 6:
        return PlaneType.COMPLETE_QUADRILATERAL
    return PlaneType.AFFINE_PLANE


def is_symplectic_type(s: FischerSpace) -> bool:
    """True iff every pair of intersecting lines generates a quadrilateral."""
    return s._symplectic


def points_p0_p2(s: FischerSpace, line):
    """Partition the points off a line by how many of its points they see.

    Returns (P0, P2, P3) as sorted tuples.  P3 sees all three points; among
    the points off the line that see an even number of them, P0 sees none
    and P2 the rest.  The 0-2-3 property, checked by `validate`, leaves no
    other count.
    """
    i = s.line_id(line)
    ca, cb, cc = (s.collinear[p] for p in s.lines[i])
    even = ~(ca ^ cb ^ cc) & ~s.line_masks[i] & ((1 << s.n_points) - 1)
    seen = ca | cb | cc
    return (tuple(vec_support(even & ~seen)), tuple(vec_support(even & seen)),
            tuple(vec_support(ca & cb & cc)))


def cqs_through_line(s: FischerSpace, line) -> tuple[frozenset[int], ...]:
    """All complete quadrilaterals containing the given line, deterministically ordered."""
    return tuple(
        frozenset(vec_support(p)) for p in s._planes[s.line_id(line)] if p.bit_count() == 6
    )


def affine_planes_through_line(s: FischerSpace, line) -> tuple[frozenset[int], ...]:
    """All affine planes containing the given line, deterministically ordered."""
    return tuple(
        frozenset(vec_support(p)) for p in s._planes[s.line_id(line)] if p.bit_count() == 9
    )


# -- catalog ------------------------------------------------------------------

CATALOG_NAMES = ("cq", "ag23", "w_a4", "w_d4", "3_3_sym4", "ag33", "su32")

_CATALOG_META = {
    "cq": SpaceMeta("cq", rank=3, symplectic=True),
    "ag23": SpaceMeta("ag23", rank=3, symplectic=False),
    "w_a4": SpaceMeta("w_a4", rank=4, symplectic=True),
    "w_d4": SpaceMeta("w_d4", rank=4, symplectic=True),
    "3_3_sym4": SpaceMeta("3_3_sym4", rank=4, symplectic=False),
    "ag33": SpaceMeta("ag33", rank=4, symplectic=False),
    "su32": SpaceMeta("su32", rank=4, symplectic=False),
}

# point labels a,b,c,x,y,z; lines l1..l4 in the frame order of `miyamoto`
_CQ_LABELS = ("a", "b", "c", "x", "y", "z")
CQ_LINES = ((0, 1, 2), (1, 3, 5), (0, 4, 5), (2, 3, 4))


def _build_cq() -> FischerSpace:
    return validate(6, CQ_LINES, labels=_CQ_LABELS, meta=_CATALOG_META["cq"])


def _f3_space(dim: int, hall: bool = False) -> tuple[list[tuple[int, int, int]], list[str]]:
    """Lines and labels on F_3^dim, indexed base-3 big-endian.  The third
    point of the line through x and y is -x - y, plus Hall's twist
    (x3 - y3)(x1 y2 - x2 y1) in the last coordinate when `hall` is set.  Each
    line is listed once, from its two lowest points, so the list is sorted."""
    pts = list(itertools.product(range(3), repeat=dim))
    lines = []
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            y = pts[j]
            k = 0
            for a, b in zip(x, y):
                k = 3 * k + (-a - b) % 3
            if hall:  # the last coordinate is the lowest base-3 digit of k
                k += (k + (x[2] - y[2]) * (x[0] * y[1] - x[1] * y[0])) % 3 - k % 3
            if k > j:
                lines.append((i, j, k))
    return lines, ["[" + ",".join(map(str, v)) + "]" for v in pts]


def _build_ag(dim: int, name: str) -> FischerSpace:
    lines, labels = _f3_space(dim)
    return validate(3 ** dim, lines, labels=labels, meta=_CATALOG_META[name])


def hall81() -> FischerSpace:
    """Hall's 81-point triple system (M. Hall Jr., 1960) on F_3^4, labelled
    [p,q,r,s].  No catalog group builds it, so it is not in CATALOG_NAMES."""
    lines, labels = _f3_space(4, hall=True)
    return validate(81, lines, labels=labels)


def catalog(name: str) -> FischerSpace:
    """One of the built-in spaces; group-derived entries go through presets."""
    if name == "cq":
        return _build_cq()
    if name == "ag23":
        return _build_ag(2, "ag23")
    if name == "ag33":
        return _build_ag(3, "ag33")
    if name in ("w_a4", "w_d4", "3_3_sym4", "su32"):
        from . import transposition

        preset_name = "sym5" if name == "w_a4" else name
        gens, seed = transposition.preset(preset_name)
        cls = transposition.conjugacy_class(gens, seed)
        return transposition.fischer_from_class(cls, meta=_CATALOG_META[name])
    raise ValueError(f"unknown catalog space {name!r}; choose from {CATALOG_NAMES}")


# -- file format ---------------------------------------------------------------
#
# .fischer text format:
#   fischer <n_points>
#   label <i> <string>          (optional, any number)
#   <i> <j> <k>                 (one line per geometric line)
# '#' starts a comment; the writer emits sorted triples in lexicographic order.


def space_to_text(s: FischerSpace) -> str:
    """The space in the .fischer format; raises ValueError for a label that
    `parse_space` would not read back: empty, with a '#' or a line break, or
    with whitespace at either end."""
    out = [f"fischer {s.n_points}"]
    for i, lab in enumerate(s.labels):
        if lab != str(i):
            if "#" in lab or lab.strip().splitlines() != [lab]:
                raise ValueError(
                    f"point {i} has label {lab!r}, which the .fischer format cannot "
                    "hold: a label must be nonempty, without '#' or line breaks, and "
                    "without whitespace at either end"
                )
            out.append(f"label {i} {lab}")
    for t in s.lines:
        out.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(out) + "\n"


def save_space(s: FischerSpace, path) -> None:
    text = space_to_text(s)  # raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidSpaceError(f"line {lineno}: bad {what} {token!r}") from None


def parse_space(text: str) -> FischerSpace:
    n_points = None
    labels: dict[int, tuple[int, str]] = {}  # point -> (file line, label)
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if n_points is None:
            if parts[0] != "fischer" or len(parts) != 2:
                raise InvalidSpaceError(
                    f"line {lineno}: expected header 'fischer <n_points>'"
                )
            n_points = _parse_int(parts[1], lineno, "point count")
            if n_points < 1:
                raise InvalidSpaceError(f"line {lineno}: bad point count {parts[1]!r}")
            continue
        if parts[0] == "label":
            if len(parts) < 3:
                raise InvalidSpaceError(
                    f"line {lineno}: expected 'label <index> <text>'"
                )
            i = _parse_int(parts[1], lineno, "label index")
            if not 0 <= i < n_points:
                raise InvalidSpaceError(
                    f"line {lineno}: label index {i} is outside 0..{n_points - 1}"
                )
            if i in labels:
                raise InvalidSpaceError(
                    f"line {lineno}: point {i} already has a label, on line {labels[i][0]}"
                )
            labels[i] = (lineno, stripped.split(None, 2)[2])
            continue
        if len(parts) != 3:
            raise InvalidSpaceError(f"line {lineno}: expected three point indices")
        try:
            lines.append(tuple(int(p) for p in parts))
        except ValueError:
            raise InvalidSpaceError(f"line {lineno}: bad point index in {parts}") from None
    if n_points is None:
        raise InvalidSpaceError("missing 'fischer <n_points>' header")
    _check_point_count(n_points, len(lines))
    label_list = [labels[i][1] if i in labels else str(i) for i in range(n_points)]
    try:
        return validate(n_points, lines, labels=label_list)
    except InvalidSpaceError as exc:
        lineno = _last_listing(text, str(exc))
        if lineno is None:
            raise
        raise InvalidSpaceError(f"line {lineno}: {exc}") from None


def _last_listing(text: str, message: str) -> int | None:
    """File line of the last listed line that a validation message names.

    Runs only after validation fails, so a valid file pays nothing for it.
    """
    named = {tuple(sorted(map(int, t)))
             for t in re.findall(r"\((-?\d+), (-?\d+), (-?\d+)\)", message)}
    found = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 3 and parts[0] != "label" and tuple(sorted(map(int, parts))) in named:
            found = lineno
    return found


def load_space(source) -> FischerSpace:
    """The space a catalog name, a .fischer file or a .gens file describes.

    `source` is a str or a Path; a .gens file goes through
    `transposition.space_from_gens`.
    """
    name = str(source)
    if name in CATALOG_NAMES:
        return catalog(name)
    if name.endswith(".fischer"):
        with open(name, "r", encoding="utf-8") as fh:
            return parse_space(fh.read())
    if name.endswith(".gens"):
        from . import transposition

        with open(name, "r", encoding="utf-8") as fh:
            return transposition.space_from_gens(fh.read())
    raise ValueError(
        f"{name!r} is neither a catalog name {CATALOG_NAMES} nor a .fischer/.gens file"
    )
