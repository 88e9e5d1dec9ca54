import dataclasses
import itertools
import random
import re
import tracemalloc

import pytest

from matsuo2 import fischer
from matsuo2.gf import vec_support
from matsuo2.fischer import (
    InvalidSpaceError,
    PlaneType,
    affine_planes_through_line,
    catalog,
    cqs_through_line,
    generated_subspace,
    is_symplectic_type,
    parse_space,
    plane_mask,
    plane_type,
    points_p0_p2,
    space_to_text,
    validate,
    wedge,
)

CQ_LINES = [(0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4)]


def test_validate_cq():
    sp = validate(6, CQ_LINES)
    assert sp.n_points == 6
    assert len(sp.lines) == 4


def test_validate_single_line():
    sp = validate(3, [(0, 1, 2)])
    assert sp.lines == ((0, 1, 2),)


def test_reject_two_shared_points():
    with pytest.raises(InvalidSpaceError, match="share two points"):
        validate(4, [(0, 1, 2), (0, 1, 3)])


def test_reject_a_line_listed_twice():
    with pytest.raises(InvalidSpaceError, match=r"line \(0, 1, 2\) is listed twice"):
        validate(3, [(0, 1, 2), (2, 1, 0)])


def test_reject_duplicate_point_in_line():
    with pytest.raises(InvalidSpaceError, match="3 distinct points"):
        validate(3, [(0, 1, 1)])


def test_reject_point_out_of_range():
    with pytest.raises(InvalidSpaceError, match="outside"):
        validate(3, [(0, 1, 5)])


def test_reject_disconnected():
    with pytest.raises(InvalidSpaceError, match="disconnected"):
        validate(6, [(0, 1, 2), (3, 4, 5)])


def test_reject_zero_two_three_violation():
    # points 3 and 4 each see exactly one point of line (0, 1, 2); the
    # message names the lower
    with pytest.raises(InvalidSpaceError) as exc:
        validate(5, [(0, 1, 2), (0, 3, 4)])
    assert str(exc.value) == "point 3 is collinear with exactly one point of line (0, 1, 2)"


def test_reject_a_point_count_the_lines_cannot_cover():
    message = "point count 100000000 exceeds 3 times the number of lines (1)"
    for check in (lambda: validate(10**8, [(0, 1, 2)]),
                  lambda: parse_space("fischer 100000000\n0 1 2\n")):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpaceError) as exc:
                check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 1 << 20
    for n_points, lines in ((2, []), (4, [(0, 1, 2)]), (7, CQ_LINES[:2])):
        with pytest.raises(InvalidSpaceError) as exc:
            validate(n_points, lines)
        assert str(exc.value) == (
            f"point count {n_points} exceeds 3 times the number of lines ({len(lines)})")
    assert validate(1, []).n_points == 1


FANO_LINES = [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
NINE_POINT_LINES = [(0, 1, 2), (0, 3, 6), (0, 4, 8), (0, 5, 7), (1, 3, 8),
                    (1, 4, 7), (2, 4, 6), (2, 5, 8), (3, 4, 5), (6, 7, 8)]


def test_reject_fano_plane():
    # every pair of points is collinear, so 0-2-3 holds, but two lines
    # generate all 7 points
    with pytest.raises(InvalidSpaceError) as exc:
        validate(7, FANO_LINES)
    assert str(exc.value) == (
        "lines (0, 1, 3) and (0, 2, 6) generate a 7-point subspace that is "
        "neither a complete quadrilateral nor an affine plane"
    )


def test_reject_nine_points_short_of_an_affine_plane():
    # closed under wedge, but six of the points see 6 others instead of 8
    with pytest.raises(InvalidSpaceError) as exc:
        validate(9, NINE_POINT_LINES)
    assert str(exc.value) == (
        "lines (0, 1, 2) and (0, 3, 6) generate a 9-point subspace that is "
        "neither a complete quadrilateral nor an affine plane"
    )


def _oracle_closure(wedge_of, seed):
    """The seed closed under wedge, by adding the third point of every
    collinear pair until none is new; shares no code with `fischer`."""
    pts = set(seed)
    while new := {wedge_of[(p, q)] for p in pts for q in pts if (p, q) in wedge_of} - pts:
        pts |= new
    return frozenset(pts)


def _closure_plane_pass(n_points, lines):
    """The plane pass by closure: every intersecting pair of lines not yet in
    a recorded plane is closed with the wedge closure, and the closure must
    have 6 or 9 points, each seeing 4 or 8 others in it.  Returns the planes
    through each line and the symplectic flag, or the error text.  For input
    that passed validate's checks before the plane pass."""
    norm = sorted(tuple(sorted(t)) for t in lines)
    wedge_of, collinear = {}, [0] * n_points
    lines_through = [[] for _ in range(n_points)]
    for i, (x, y, z) in enumerate(norm):
        for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
            wedge_of[(a, b)] = wedge_of[(b, a)] = c
            collinear[c] |= (1 << a) | (1 << b)
            lines_through[c].append(i)
    planes_of = [[] for _ in norm]
    shared = [0] * len(norm)
    for x in range(n_points):
        through = lines_through[x]
        for i, li in enumerate(through):
            for lj in through[i + 1:]:
                if (shared[li] >> lj) & 1:
                    continue
                pts = _oracle_closure(wedge_of, norm[li] + norm[lj])
                pm = sum(1 << p for p in pts)
                degree = {6: 4, 9: 8}.get(len(pts))
                if degree is None or any(
                        (collinear[p] & pm).bit_count() != degree for p in pts):
                    return (f"lines {norm[li]} and {norm[lj]} generate a {len(pts)}-point "
                            "subspace that is neither a complete quadrilateral nor an "
                            "affine plane")
                inside = [k for k, t in enumerate(norm) if pts.issuperset(t)]
                for k in inside:
                    planes_of[k].append(pm)
                    shared[k] |= sum(1 << h for h in inside)
    planes = tuple(tuple(sorted(ps, key=lambda p: sorted(vec_support(p)))) for ps in planes_of)
    return planes, not any(p.bit_count() == 9 for ps in planes for p in ps)


def _switch(rng, lines):
    """Swap the two points of a random line on one path or cycle of their
    graph: edge x-y is the line {a, x, y} or {b, x, y}, and switching turns
    each such a-line into a b-line and back.  Two points stay on at most one
    line, and a Steiner triple system stays one."""
    a, b = rng.sample(rng.choice(lines), 2)
    edges = {}
    for t in lines:
        for p, q in ((a, b), (b, a)):
            if p in t and q not in t:
                x, y = (u for u in t if u != p)
                edges.setdefault(x, []).append(y)
                edges.setdefault(y, []).append(x)
    if not edges:
        return lines
    todo, seen = [rng.choice(sorted(edges))], set()
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo.extend(edges[u])
    out = []
    for t in lines:
        off = [u for u in t if u not in (a, b)]
        if len(off) == 2 and off[0] in seen:
            t = ((b if a in t else a), *off)
        out.append(tuple(sorted(t)))
    return out


def _corrupt(rng, n_points, lines):
    """Drop a line, add one on three points no two of which are collinear,
    or switch two points of a line as in _switch.  Where no three such
    points exist, as in a Steiner triple system, a line is dropped instead."""
    lines = list(lines)
    op = rng.randrange(3)
    if op == 2:
        return _switch(rng, lines)
    if op == 1:
        sees = [{p} for p in range(n_points)]
        for t in lines:
            for p in t:
                sees[p].update(t)
        p = rng.randrange(n_points)
        qs = [q for q in range(n_points) if q not in sees[p]]
        q = rng.choice(qs) if qs else p
        rs = [r for r in qs if r not in sees[q]]
        if rs:
            return lines + [tuple(sorted((p, q, rng.choice(rs))))]
    del lines[rng.randrange(len(lines))]
    return lines


def test_plane_pass_matches_closure_oracle(spaces, hall_space):
    # seeded corruptions of every catalog space and of Hall's space: where
    # validate reaches its plane pass, it accepts the input the closure
    # accepts, with the same planes and flag, or fails with the same text
    rng = random.Random(2828)
    cases = [(7, FANO_LINES), (9, NINE_POINT_LINES)]
    corrupted = []
    for sp, count in [*((sp, 12) for sp in spaces.values()), (hall_space(2929), 8)]:
        cases.append((sp.n_points, sp.lines))
        corrupted.extend((sp.n_points, _corrupt(rng, sp.n_points, sp.lines))
                         for _ in range(count))
    outcomes = []
    for n_points, lines in cases + corrupted:
        try:
            sp = validate(n_points, lines)
        except InvalidSpaceError as exc:
            if "-point subspace" not in str(exc):
                outcomes.append("early")  # failed a check before the plane pass
                continue
            assert str(exc) == _closure_plane_pass(n_points, lines)
            outcomes.append("rejected")
        else:
            assert (sp._planes, sp._symplectic) == _closure_plane_pass(n_points, lines)
            outcomes.append("accepted")
    assert outcomes[:len(cases)] == ["rejected"] * 2 + ["accepted"] * (len(cases) - 2)
    reached = outcomes[len(cases):]
    # 49 of the 92 corruptions reach the plane pass: 11 accepted, 38 rejected
    assert reached.count("accepted") >= 5 and reached.count("rejected") >= 30


# AG(2,3) on F_3^2, where the third point of the line through p and q is
# -(p+q).  x = (0,0), a = (1,0), a' = (2,0), b = (0,1) and b' = (0,2) are
# points 0..4, and w1..w4, the wedges of (a,b), (a,b'), (a',b) and (a',b'),
# are points 5..8, so lines (0, 1, 2) and (0, 3, 4) are the first pair the
# plane pass visits.  Beside those two and the 4 cross lines, the plane
# holds the six lines {x,w1,w4}, {x,w2,w3}, {b,w2,w4}, {b',w1,w3},
# {a,w3,w4} and {a',w1,w2}.
AG_POINTS = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (2, 2), (2, 1), (1, 2), (1, 1)]
AG_SIX = [(0, 5, 8), (0, 6, 7), (3, 6, 8), (4, 5, 7), (1, 7, 8), (2, 5, 6)]


def _ag_plane_lines():
    index = {p: i for i, p in enumerate(AG_POINTS)}
    return sorted({tuple(sorted((i, j, index[tuple(-(u + v) % 3 for u, v in zip(p, q))])))
                   for i, p in enumerate(AG_POINTS) for j, q in enumerate(AG_POINTS) if i < j})


def test_ag_plane_numbering_holds_the_six_lines():
    lines = _ag_plane_lines()
    assert len(lines) == 12 and set(AG_SIX) <= set(lines)
    assert {(0, 1, 2), (0, 3, 4), (1, 3, 5), (1, 4, 6), (2, 3, 7), (2, 4, 8)} <= set(lines)
    assert validate(9, lines)._planes == ((0b111111111,),) * 12


@pytest.mark.parametrize("missing", AG_SIX)
def test_a_nine_point_candidate_missing_one_of_its_six_lines_is_refused(missing):
    # AG(2,3) less one line keeps the 0-2-3 property, so the plane pass is
    # reached; the first pair it visits has 9 points and every condition
    # but the one on the missing line
    lines = [t for t in _ag_plane_lines() if t != missing]
    with pytest.raises(InvalidSpaceError) as exc:
        validate(9, lines)
    assert str(exc.value) == _closure_plane_pass(9, lines) == (
        "lines (0, 1, 2) and (0, 3, 4) generate a 9-point subspace that is "
        "neither a complete quadrilateral nor an affine plane")


def test_a_six_point_candidate_whose_x_sees_w_is_refused(spaces):
    # in w_d4, lines (0, 1, 2) and (0, 3, 5) generate a quadrilateral whose
    # sixth point w is 8 or 9; a line on the non-collinear points 0, 8 and 9
    # keeps the 0-2-3 property and makes x = 0 see w
    sp = spaces["w_d4"]
    quad = generated_subspace(sp, (0, 1, 2, 3, 5))
    assert len(quad) == 6 and len(quad & {8, 9}) == 1
    assert not any(sp.are_collinear(p, q) for p, q in ((0, 8), (0, 9), (8, 9)))
    lines = [*sp.lines, (0, 8, 9)]
    with pytest.raises(InvalidSpaceError) as exc:
        validate(12, lines)
    assert str(exc.value) == _closure_plane_pass(12, lines) == (
        "lines (0, 1, 2) and (0, 3, 5) generate a 12-point subspace that is "
        "neither a complete quadrilateral nor an affine plane")


def test_validate_returns_a_complete_frozen_space():
    # validate passes every table to the constructor; only the predictor
    # rows fill on demand, and no field can be assigned afterwards
    for sp in [*(catalog(name) for name in fischer.CATALOG_NAMES), fischer.hall81()]:
        n_lines = len(sp.lines)
        assert len(sp.labels) == len(sp.collinear) == sp.n_points
        assert len(sp.line_masks) == len(sp._line_ids) == n_lines
        assert len(sp._planes) == len(sp._coplanar) == n_lines
        assert all(sp._planes) and isinstance(sp._symplectic, bool)
        assert len(sp._wedge) == 6 * n_lines
        assert sp._point_line_rows == {}
        for f in dataclasses.fields(sp):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sp, f.name, getattr(sp, f.name))
        # the predictor rows are no constructor parameter, so no caller can
        # hand the space rows of its own
        with pytest.raises(TypeError):
            fischer.FischerSpace(*(getattr(sp, f.name) for f in dataclasses.fields(sp)))
    sp = catalog("cq")
    assert repr(sp) == "FischerSpace(cq: 6 points, 4 lines)"
    assert sp == sp and sp != catalog("cq")  # identity equality
    assert {sp: 1}[sp] == 1


def test_wedge_cq_examples():
    sp = catalog("cq")
    a, b, c, x, y, z = range(6)
    assert wedge(sp, a, b) == c
    assert wedge(sp, x, b) == z
    with pytest.raises(ValueError):
        wedge(sp, a, a)
    with pytest.raises(ValueError):
        wedge(sp, a, x)  # opposite vertices are not collinear


@pytest.mark.parametrize("x, y, bad", [(-1, 0, -1), (0, 9, 9), (6, 0, 6), (0, 6, 6)])
def test_wedge_refuses_points_outside_the_space(spaces, x, y, bad):
    # the wedge table is keyed x * n + y, so (0, 9) on 6 points would read
    # the key of pair (1, 3)
    with pytest.raises(ValueError, match=rf"^point {bad} is outside 0\.\.5$"):
        wedge(spaces["cq"], x, y)


def test_wedge_symmetric_everywhere(spaces):
    for sp in spaces.values():
        for x in range(sp.n_points):
            for y in range(x + 1, sp.n_points):
                if sp.are_collinear(x, y):
                    assert wedge(sp, x, y) == wedge(sp, y, x)


def test_generated_subspace_single_line():
    sp = catalog("cq")
    assert generated_subspace(sp, {0, 1, 2}) == frozenset({0, 1, 2})


def test_generated_subspace_two_lines_w_a4(spaces):
    sp = spaces["w_a4"]
    l1 = sp.lines[0]
    l2 = next(t for t in sp.lines[1:] if set(t) & set(l1))
    assert len(generated_subspace(sp, set(l1) | set(l2))) == 6


def test_generated_subspace_two_lines_ag23(spaces):
    sp = spaces["ag23"]
    l1 = sp.lines[0]
    l2 = next(t for t in sp.lines[1:] if set(t) & set(l1))
    assert len(generated_subspace(sp, set(l1) | set(l2))) == 9


@pytest.mark.parametrize("seed, message", [
    ([-1], r"point -1 is outside 0\.\.5"),
    ([6], r"point 6 is outside 0\.\.5"),
    ([0, -1], r"point -1 is outside 0\.\.5"),
    ([], "seed must be nonempty"),
])
def test_generated_subspace_rejects_a_bad_seed(spaces, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generated_subspace(spaces["cq"], seed)


@pytest.mark.parametrize("query, args, message", [
    ("are_collinear", (-1, 0), r"point -1 is outside 0\.\.5"),
    ("are_collinear", (0, 6), r"point 6 is outside 0\.\.5"),
    ("are_collinear", (6, 0), r"point 6 is outside 0\.\.5"),
    ("are_collinear", (0, -1), r"point -1 is outside 0\.\.5"),
    ("coplanar", (-1,), r"line id -1 is outside 0\.\.3"),
    ("coplanar", (4,), r"line id 4 is outside 0\.\.3"),
    ("plane_of", (-1, 0), r"line id -1 is outside 0\.\.3"),
    ("plane_of", (0, 4), r"line id 4 is outside 0\.\.3"),
])
def test_space_queries_refuse_ids_they_do_not_own(spaces, query, args, message):
    # a negative id must not be read as a table index from the end
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(spaces["cq"], query)(*args)


def test_plane_type_examples(spaces):
    cq = spaces["cq"]
    for l1, l2 in itertools.combinations(cq.lines, 2):
        assert plane_type(cq, l1, l2) is PlaneType.COMPLETE_QUADRILATERAL
    ag = spaces["ag23"]
    kinds = set()
    for l1, l2 in itertools.combinations(ag.lines, 2):
        if set(l1) & set(l2):
            kinds.add(plane_type(ag, l1, l2))
    assert kinds == {PlaneType.AFFINE_PLANE}
    mixed = spaces["3_3_sym4"]
    kinds = set()
    for l1, l2 in itertools.combinations(mixed.lines, 2):
        if set(l1) & set(l2):
            kinds.add(plane_type(mixed, l1, l2))
    assert kinds == {PlaneType.COMPLETE_QUADRILATERAL, PlaneType.AFFINE_PLANE}


def test_plane_type_rejects_bad_arguments(spaces):
    sp = spaces["ag23"]
    with pytest.raises(ValueError):
        plane_type(sp, sp.lines[0], sp.lines[0])
    disjoint = next(
        (l1, l2)
        for l1, l2 in itertools.combinations(sp.lines, 2)
        if not set(l1) & set(l2)
    )
    with pytest.raises(ValueError):
        plane_type(sp, *disjoint)


def _reference_planes(sp):
    """Plane type of each intersecting pair, and the planes through each line,
    by closing every pair and scanning all lines."""
    kinds = {}
    through = {t: {PlaneType.COMPLETE_QUADRILATERAL: set(), PlaneType.AFFINE_PLANE: set()}
               for t in sp.lines}
    for l1, l2 in itertools.combinations(sp.lines, 2):
        if not set(l1) & set(l2):
            continue
        pts = generated_subspace(sp, set(l1) | set(l2))
        inside = [t for t in sp.lines if pts.issuperset(t)]
        kind = {(6, 4): PlaneType.COMPLETE_QUADRILATERAL,
                (9, 12): PlaneType.AFFINE_PLANE}[len(pts), len(inside)]
        kinds[l1, l2] = kind
        for t in inside:
            through[t][kind].add(pts)
    return kinds, through


def test_line_id_rejects_a_non_line_as_tuple_or_list(spaces):
    cq = spaces["cq"]
    for bad, text in (((0, 1, 3), "(0, 1, 3)"), ((3, 1, 0), "(3, 1, 0)"),
                      ([0, 1, 3], "[0, 1, 3]")):
        with pytest.raises(ValueError) as info:
            cq.line_id(bad)
        assert str(info.value) == f"{text} is not a line of the space"


def _assert_index_matches_reference(sp):
    for i, t in enumerate(sp.lines):
        assert sp.line_masks[i] == sum(1 << p for p in t)
        spellings = [s for p in itertools.permutations(t) for s in (p, list(p))]
        assert {sp.line_id(s) for s in spellings} == {i}
    kinds, through = _reference_planes(sp)
    for (l1, l2), kind in kinds.items():
        assert plane_type(sp, l1, l2) is kind
        assert plane_type(sp, l2, l1) is kind
    for t in sp.lines:
        for query, kind in ((cqs_through_line, PlaneType.COMPLETE_QUADRILATERAL),
                            (affine_planes_through_line, PlaneType.AFFINE_PLANE)):
            expected = sorted(through[t][kind], key=sorted)
            assert list(query(sp, t)) == expected


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_plane_index_matches_closure_reference(spaces, relabelled, name):
    sp = spaces[name]
    _assert_index_matches_reference(sp)
    moved, perm = relabelled(sp, 20231)
    _assert_index_matches_reference(moved)
    assert is_symplectic_type(moved) is is_symplectic_type(sp)
    for t in sp.lines:
        image = [perm[p] for p in t]
        for query in (cqs_through_line, affine_planes_through_line):
            assert set(query(moved, image)) == {
                frozenset(perm[p] for p in q) for q in query(sp, t)
            }


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_plane_mask_matches_plane_queries(spaces, name):
    sp = spaces[name]
    quads_of = {t: cqs_through_line(sp, t) for t in sp.lines}
    affine_of = {t: affine_planes_through_line(sp, t) for t in sp.lines}
    for i in range(len(sp.lines)):
        assert not (sp.coplanar(i) >> i) & 1
    for (i, l1), (j, l2) in itertools.permutations(enumerate(sp.lines), 2):
        got = plane_mask(sp, l1, l2)
        assert got == plane_mask(sp, l2, l1) == sp.plane_of(i, j)
        assert (sp.coplanar(i) >> j) & 1 == (got != 0)
        affine = [p for p in affine_of[l1] if p.issuperset(l2)]
        if set(l1) & set(l2):
            kind = plane_type(sp, l1, l2)
            if kind is PlaneType.COMPLETE_QUADRILATERAL:
                quads = [q for q in quads_of[l1] if q.issuperset(l2)]
                assert affine == [] and len(quads) == 1
                assert got == sum(1 << p for p in quads[0])
                continue
            assert kind is PlaneType.AFFINE_PLANE
        assert len(affine) <= 1
        assert got == (sum(1 << p for p in affine[0]) if affine else 0)


def test_plane_mask_rejects_bad_arguments(spaces):
    sp = spaces["cq"]
    with pytest.raises(ValueError, match="must be lines"):
        plane_mask(sp, (0, 1, 2), (0, 1, 3))
    with pytest.raises(ValueError, match="distinct"):
        plane_mask(sp, (0, 1, 2), (2, 1, 0))
    for i in range(len(sp.lines)):
        with pytest.raises(ValueError, match="^lines must be distinct$"):
            sp.plane_of(i, i)


def test_plane_queries_reject_non_lines(spaces):
    sp = spaces["cq"]
    for query in (cqs_through_line, affine_planes_through_line):
        with pytest.raises(ValueError, match="not a line"):
            query(sp, (0, 1, 3))


EXPECTED = {
    # name: (points, rank, symplectic)
    "cq": (6, 3, True),
    "ag23": (9, 3, False),
    "w_a4": (10, 4, True),
    "w_d4": (12, 4, True),
    "3_3_sym4": (18, 4, False),
    "ag33": (27, 4, False),
    "su32": (36, 4, False),
}


def test_catalog_metadata(spaces):
    for name, (pts, rank, sympl) in EXPECTED.items():
        sp = spaces[name]
        assert sp.n_points == pts
        assert sp.meta.rank == rank
        assert sp.meta.symplectic is sympl
        assert is_symplectic_type(sp) is sympl


def test_catalog_ag33_line_count(spaces):
    assert len(spaces["ag33"].lines) == 117


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog("nope")


def test_points_p0_p2_cq(spaces):
    p0, p2, p3 = points_p0_p2(spaces["cq"], (0, 1, 2))
    assert p0 == ()
    assert p2 == (3, 4, 5)
    assert p3 == ()


def test_points_p0_p2_ag23(spaces):
    for t in spaces["ag23"].lines:
        p0, p2, p3 = points_p0_p2(spaces["ag23"], t)
        assert (p0, p2) == ((), ())
        assert len(p3) == 6


def test_points_p0_p2_w_a4(spaces):
    sp = spaces["w_a4"]
    idx = {lab: i for i, lab in enumerate(sp.labels)}
    t = tuple(sorted((idx["(1 2)"], idx["(1 3)"], idx["(2 3)"])))
    p0, p2, _ = points_p0_p2(sp, t)
    assert len(p0) == 1 and sp.labels[p0[0]] == "(4 5)"
    assert len(p2) == 6


def _assert_p0_p2_p3_match_counts(sp):
    for t, mask in zip(sp.lines, sp.line_masks):
        parts = ([], [], [], [])
        for x in range(sp.n_points):
            if not (mask >> x) & 1:
                parts[(sp.collinear[x] & mask).bit_count()].append(x)
        assert parts[1] == []
        assert points_p0_p2(sp, t) == (tuple(parts[0]), tuple(parts[2]), tuple(parts[3]))


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_points_p0_p2_match_per_point_counts(spaces, relabelled, name):
    _assert_p0_p2_p3_match_counts(spaces[name])
    _assert_p0_p2_p3_match_counts(relabelled(spaces[name], 4242)[0])


def test_hall81_lines_follow_halls_rule_on_the_labels():
    sp = fischer.hall81()
    coords = [tuple(map(int, lab.strip("[]").split(","))) for lab in sp.labels]
    assert sorted(coords) == list(itertools.product(range(3), repeat=4))
    point = {c: i for i, c in enumerate(coords)}
    lines = set()
    for x, y in itertools.combinations(coords, 2):
        # Hall's rule, written out apart from the library
        z = [(-a - b) % 3 for a, b in zip(x, y)]
        z[3] = (z[3] + (x[2] - y[2]) * (x[0] * y[1] - x[1] * y[0])) % 3
        line = tuple(sorted({point[x], point[y], point[tuple(z)]}))
        assert len(line) == 3 and sp.is_line(line)
        lines.add(line)
    assert (sp.n_points, len(sp.lines)) == (81, 1080) and set(sp.lines) == lines
    assert is_symplectic_type(sp) is False


def test_points_p0_p2_match_per_point_counts_on_hall(hall_space):
    _assert_p0_p2_p3_match_counts(hall_space(7))


def test_plane_index_on_hall(hall_space):
    sp = hall_space()
    planes = set()
    for t in sp.lines:
        assert cqs_through_line(sp, t) == ()
        through = affine_planes_through_line(sp, t)
        assert len(through) == 13
        planes.update(through)
    assert len(sp.lines) == 1080 and len(planes) == 1170
    for plane in planes:
        assert len(plane) == 9
        assert sum(plane.issuperset(t) for t in sp.lines) == 12
    containing = {t: [] for t in sp.lines}
    for plane in planes:
        for t in sp.lines:
            if plane.issuperset(t):
                containing[t].append(plane)
    for t in sp.lines:
        # ordered by their sorted points, as on the catalog spaces
        assert list(affine_planes_through_line(sp, t)) == sorted(containing[t], key=sorted)
    rng = random.Random(1960)
    for _ in range(500):
        i, j = rng.sample(range(len(sp.lines)), 2)
        pts = generated_subspace(sp, sp.lines[i] + sp.lines[j])
        expected = sum(1 << p for p in pts) if len(pts) <= 9 else 0
        assert sp.plane_of(i, j) == sp.plane_of(j, i) == expected


def _closure_within(sp, seed, cap):
    """generated_subspace(sp, seed) by the same closure, or None as soon as it
    passes cap points: a larger subspace is no recorded plane."""
    pts = set(seed)
    todo, done = list(pts), []
    while todo:
        x = todo.pop()
        for y in done:
            if sp.are_collinear(x, y):
                z = wedge(sp, x, y)
                if z not in pts:
                    if len(pts) == cap:
                        return None
                    pts.add(z)
                    todo.append(z)
        done.append(x)
    return pts


def test_plane_of_every_partner_of_seeded_hall_lines(hall_space):
    # most pairs share no plane, so plane_of answers them from the coplanar
    # mask alone; each of these lines lies in 13 affine planes with 143 others
    sp = hall_space()
    for i in random.Random(81).sample(range(len(sp.lines)), 20):
        coplanar = 0
        for j in range(len(sp.lines)):
            if j == i:
                continue
            pts = _closure_within(sp, sp.lines[i] + sp.lines[j], 9)
            expected = 0
            if pts is not None:
                assert pts == generated_subspace(sp, sp.lines[i] + sp.lines[j])
                expected = sum(1 << p for p in pts)
                coplanar |= 1 << j
            assert sp.plane_of(i, j) == sp.plane_of(j, i) == expected
        assert coplanar.bit_count() == 13 * 11
        assert sp.coplanar(i) == coplanar


def test_file_round_trip(tmp_path, spaces, hall_space):
    for name, sp in [*spaces.items(), ("hall81", hall_space())]:
        path = tmp_path / f"{name}.fischer"
        fischer.save_space(sp, path)
        loaded = fischer.load_space(path)
        assert loaded.n_points == sp.n_points
        assert loaded.lines == sp.lines
        assert loaded.labels == sp.labels


@pytest.mark.parametrize("label", ["a#b", " x", "", "a\nb"],
                         ids=["comment", "leading-space", "empty", "line-break"])
def test_writer_refuses_a_label_it_cannot_read_back(tmp_path, label):
    # read back, these come out as 'a' and 'x', or make parse_space raise
    sp = fischer.validate(3, [(0, 1, 2)], labels=["p", label, "q"])
    message = f"point 1 has label {label!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        space_to_text(sp)
    path = tmp_path / "bad.fischer"
    with pytest.raises(ValueError, match=re.escape(message)):
        fischer.save_space(sp, path)
    assert not path.exists()


def test_parse_rejects_missing_header():
    with pytest.raises(InvalidSpaceError, match="header"):
        parse_space("0 1 2\n")


def test_parse_rejects_bad_triple():
    text = "fischer 3\n0 1\n"
    with pytest.raises(InvalidSpaceError, match="three point indices"):
        parse_space(text)


@pytest.mark.parametrize("text, message", [
    ("fischer x\n0 1 2\n", "line 1: bad point count 'x'"),
    ("fischer 3\nlabel 2\n0 1 2\n", "line 2: expected 'label <index> <text>'"),
    ("# header next\nfischer 3\nlabel two b\n0 1 2\n", "line 3: bad label index 'two'"),
    ("fischer 3\n0 1 2\nlabel 3 d\n", "line 3: label index 3 is outside 0..2"),
    ("fischer 3\nlabel 0 a\nlabel 0 b\n0 1 2\n",
     "line 3: point 0 already has a label, on line 2"),
    # axiom failures found by validate name the last listed line they mention
    ("fischer 4\n0 1 2\n0 1 3\n",
     "line 3: lines (0, 1, 2) and (0, 1, 3) share two points 0, 1"),
    ("fischer 3\nlabel 0 a\n0 1 2\n2 1 0\n", "line 4: line (0, 1, 2) is listed twice"),
    ("fischer 3\n0 1 1\n", "line 2: line (0, 1, 1) does not have 3 distinct points"),
    ("fischer 3\n\n0 1 5  # far\n", "line 3: line (0, 1, 5) has a point outside 0..2"),
    ("fischer 5\n0 3 4\n# next\n0 1 2\n",
     "line 4: point 3 is collinear with exactly one point of line (0, 1, 2)"),
    ("fischer 7\n" + "".join(f"{i % 7} {(i + 1) % 7} {(i + 3) % 7}\n" for i in range(7)),
     "line 8: lines (0, 1, 3) and (0, 2, 6) generate a 7-point subspace that is "
     "neither a complete quadrilateral nor an affine plane"),
    ("fischer 6\n0 1 2\n3 4 5\n", "space is disconnected (point 3 unreachable from 0)"),
], ids=["bad-count", "label-without-text", "bad-label-index", "label-out-of-range",
        "label-twice",
        "two-shared-points", "listed-twice", "repeated-point", "point-out-of-range",
        "zero-two-three", "fano-plane", "disconnected-names-no-line"])
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(InvalidSpaceError) as exc:
        parse_space(text)
    assert str(exc.value) == message


def test_writer_emits_sorted_lines(spaces):
    text = space_to_text(spaces["cq"])
    rows = [l for l in text.splitlines() if l and l[0].isdigit()]
    assert rows == sorted(rows)
    assert text.splitlines()[0] == "fischer 6"


def test_comments_and_labels_parse():
    text = "# a comment\nfischer 3\nlabel 0 alpha beta\n0 1 2  # inline\n"
    sp = parse_space(text)
    assert sp.labels[0] == "alpha beta"
    assert sp.lines == ((0, 1, 2),)
