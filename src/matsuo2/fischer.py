"""Partial triple systems and Fischer spaces.

Points are dense indices 0..n-1; lines are sorted index triples kept in
lexicographic order.  Validation enforces the partial-linear-space axioms,
connectivity, the 0-2-3 collinearity property, and that any two intersecting
lines generate either a complete quadrilateral (6 points, 4 lines) or an
affine plane of order 3 (9 points, 12 lines).  Both checks together
characterize the spaces this package works on.  Validation reads the lines
once, into the wedge table, each point's collinearity mask and the lines
through each point; the 0-2-3 check and `points_p0_p2` read the masks of a
line's three points, with no loop over the points.

A line's id is its position in `lines`.  `FischerSpace.line_id` is the one
place that turns a triple, its points in any order, into an id; it raises
for a triple that is not a line.  Per id the space keeps the line's point
mask (`line_masks`) and the planes through it: validation records each
plane once, as a point bitmask listed against every line inside it, and
`FischerSpace.plane_of(i, j)` is the one lookup of the plane holding two
lines.  A pair of intersecting lines that already lies in a recorded plane
is not closed again: the plane is closed, and any two intersecting lines of
a quadrilateral or an affine plane generate all of it.
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


class FischerSpace:
    """A validated partial triple system satisfying the Fischer space axioms.

    Immutable after construction; instances are only created by validate().
    """

    __slots__ = (
        "n_points", "labels", "lines", "line_masks", "meta", "collinear",
        "_line_ids", "_wedge", "_lines_through", "_planes", "_symplectic",
        "_point_line_rows",
    )

    def __init__(self, n_points, labels, lines, meta, collinear, wedge,
                 lines_through, planes, symplectic):
        self.n_points = n_points
        self.labels = labels
        self.lines = lines
        self.line_masks = tuple(mask_from_support(t) for t in lines)
        self.meta = meta
        self.collinear = collinear  # per point: bitmask of collinear points
        self._line_ids = {t: i for i, t in enumerate(lines)}
        self._wedge = wedge
        self._lines_through = lines_through
        self._planes = planes  # per line id: point masks of the planes through it
        self._symplectic = symplectic
        # per line id: the products of every point with the line nilpotent,
        # filled by the matsuo predictors when they first ask for that line
        self._point_line_rows = {}

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

    def plane_of(self, i: int, j: int) -> int:
        """Point mask of the recorded plane holding distinct lines i and j, or 0."""
        mj = self.line_masks[j]
        return next((p for p in self._planes[i] if p & mj == mj), 0)

    def is_line(self, triple) -> bool:
        try:
            self.line_id(triple)
        except ValueError:
            return False
        return True

    def are_collinear(self, x: int, y: int) -> bool:
        return x != y and bool((self.collinear[x] >> y) & 1)

    def lines_through(self, x: int) -> tuple[tuple[int, int, int], ...]:
        return tuple(self.lines[i] for i in self._lines_through[x])

    def __repr__(self) -> str:
        name = self.meta.name if self.meta else "custom"
        return f"FischerSpace({name}: {self.n_points} points, {len(self.lines)} lines)"


# points of a plane -> how many of the others each of its points sees
_PLANE_DEGREE = {6: 4, 9: 8}


def _check_point_count(n_points: int, n_lines: int) -> None:
    """Reject a point count that n_lines lines of 3 points cannot cover."""
    if n_points > max(1, 3 * n_lines):
        raise InvalidSpaceError(
            f"point count {n_points} exceeds 3 times the number of lines ({n_lines})"
        )


def validate(n_points: int, lines, labels=None, meta: SpaceMeta | None = None) -> FischerSpace:
    """Check the axioms and build the tables, from one pass over the sorted lines.

    A point count the lines cannot cover fails before any per-point table exists.
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

    wedge: dict[tuple[int, int], int] = {}
    collinear = [0] * n_points
    lines_through: list[list[int]] = [[] for _ in range(n_points)]
    for i, t in enumerate(norm):
        x, y, z = t
        for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
            if (a, b) in wedge:
                other = tuple(sorted((a, b, wedge[(a, b)])))
                if other == t:
                    raise InvalidSpaceError(f"line {t} is listed twice")
                raise InvalidSpaceError(
                    f"lines {other} and {t} share two points {a}, {b}"
                )
            wedge[(a, b)] = wedge[(b, a)] = c
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

    space = FischerSpace(
        n_points,
        tuple(labels) if labels is not None else tuple(str(i) for i in range(n_points)),
        tuple(norm),
        meta,
        tuple(collinear),
        wedge,
        tuple(tuple(ls) for ls in lines_through),
        planes=None,  # both filled below
        symplectic=None,
    )
    line_ids = space._line_ids

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
    if len(space.labels) != n_points:
        raise InvalidSpaceError("label count differs from point count")

    # every pair of intersecting lines must generate a 6- or 9-point plane;
    # a closed set of that size is one when each point sees the right degree.
    # shared[k] masks the line ids that lie in a recorded plane with line k;
    # planes_of[k] lists the planes through line k, ordered at the end by the
    # sorted points that key_of keeps for each plane.
    planes_of: list[list[int]] = [[] for _ in norm]
    key_of: dict[int, list[int]] = {}
    shared = [0] * len(norm)
    for x in range(n_points):
        through = lines_through[x]
        for i, li in enumerate(through):
            for lj in through[i + 1:]:
                if (shared[li] >> lj) & 1:
                    continue
                pts = generated_subspace(space, norm[li] + norm[lj])
                pm = sum(1 << p for p in pts)
                degree = _PLANE_DEGREE.get(len(pts))
                if degree is None or any(
                    (collinear[p] & pm).bit_count() != degree for p in pts
                ):
                    raise InvalidSpaceError(
                        f"lines {norm[li]} and {norm[lj]} generate a {len(pts)}-point "
                        "subspace that is neither a complete quadrilateral nor an "
                        "affine plane"
                    )
                # a line inside the plane is found once, from its two lowest points
                key = sorted(pts)
                inside = [line_ids[(p, q, wedge[(p, q)])]
                          for h, p in enumerate(key) for q in key[h + 1:]
                          if (collinear[p] >> q) & 1 and wedge[(p, q)] > q]
                inside_mask = sum(1 << k for k in inside)
                key_of[pm] = key
                for k in inside:
                    planes_of[k].append(pm)
                    shared[k] |= inside_mask
    space._planes = tuple(tuple(sorted(ps, key=key_of.__getitem__)) for ps in planes_of)
    space._symplectic = not any(p.bit_count() == 9 for ps in planes_of for p in ps)
    return space


def wedge(s: FischerSpace, x: int, y: int) -> int:
    """The third point on the line through two collinear points."""
    if x == y:
        raise ValueError(f"wedge needs two distinct points, got {x} twice")
    try:
        return s._wedge[(x, y)]
    except KeyError:
        raise ValueError(f"points {x} and {y} are not collinear") from None


def generated_subspace(s: FischerSpace, seed) -> frozenset[int]:
    """Smallest point set containing the seed and closed under wedge."""
    pts = set(seed)
    if not pts:
        raise ValueError("seed must be nonempty")
    todo = list(pts)
    done: list[int] = []
    while todo:
        x = todo.pop()
        cm = s.collinear[x]
        for y in done:
            if (cm >> y) & 1:
                z = s._wedge[(x, y)]
                if z not in pts:
                    pts.add(z)
                    todo.append(z)
        done.append(x)
    return frozenset(pts)


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
    if i == j:
        raise ValueError("lines must be distinct")
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

# point labels a,b,c,x,y,z; lines l={a,b,c}, m={a,y,z}, n={b,x,z}, {c,x,y}
_CQ_LABELS = ("a", "b", "c", "x", "y", "z")
_CQ_LINES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))


def _build_cq() -> FischerSpace:
    return validate(6, _CQ_LINES, labels=_CQ_LABELS, meta=_CATALOG_META["cq"])


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
    out = [f"fischer {s.n_points}"]
    for i, lab in enumerate(s.labels):
        if lab != str(i):
            out.append(f"label {i} {lab}")
    for t in s.lines:
        out.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(out) + "\n"


def save_space(s: FischerSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(space_to_text(s))


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidSpaceError(f"line {lineno}: bad {what} {token!r}") from None


def parse_space(text: str) -> FischerSpace:
    n_points = None
    labels: dict[int, str] = {}
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
            labels[i] = stripped.split(None, 2)[2]
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
    label_list = [labels.get(i, str(i)) for i in range(n_points)]
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

    `source` is a str or a Path.  A .gens file goes through its class:
    parse_gens, then conjugacy_class, then fischer_from_class.
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
            gens, seed = transposition.parse_gens(fh.read())
        return transposition.fischer_from_class(transposition.conjugacy_class(gens, seed))
    raise ValueError(
        f"{name!r} is neither a catalog name {CATALOG_NAMES} nor a .fischer/.gens file"
    )
