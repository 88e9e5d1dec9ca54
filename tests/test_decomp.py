import dataclasses
import hashlib
import itertools
import json
import random
import re

import pytest

from matsuo2 import decomp, fischer, matsuo
from matsuo2.gf import FieldMatrix
from matsuo2.decomp import (
    LineVerdict,
    classify_space,
    cq_pair_case,
    decompose_line,
    fusion_table,
    is_z2_graded,
    line_verdict,
    orbit_verdicts,
    symplectic_structured_basis,
)


def test_line_verdict_reads_line_grading_and_witness_from_its_parts(algebras):
    assert [f.name for f in dataclasses.fields(LineVerdict)] == ["decomposition", "fusion"]
    for v in classify_space(algebras["3_3_sym4"]).verdicts:
        assert v.line == v.decomposition.line
        assert v.z2_graded == is_z2_graded(v.fusion)
        assert v.witness is v.fusion.witness


def test_cq_dims_and_common_one_part(algebras):
    alg = algebras["cq"]
    one_parts = set()
    for t in alg.space.lines:
        d = decompose_line(alg, t)
        assert d.gen_dims() == (4, 2)
        assert (d.eigen0_dim, d.eigen1_dim) == (4, 2)
        assert d.semisimple
        one_parts.add(d.basis1)
    assert len(one_parts) == 1


def test_cq_fusion_empty_one_one(algebras):
    alg = algebras["cq"]
    for t in alg.space.lines:
        table = fusion_table(alg, decompose_line(alg, t))
        assert table.entry(1, 1) == frozenset()
        assert table.entry(0, 0) <= {0}
        assert table.entry(0, 1) <= {1}
        assert is_z2_graded(table)


def test_one_one_cell_census(algebras, reduced_algebras):
    """The 1*1 cell of every line: empty on cq and on reduced w_a4 and w_d4."""
    expect = {
        ("cq", False): {frozenset()},
        ("cq", True): {frozenset()},
        ("w_a4", False): {frozenset({0})},
        ("w_a4", True): {frozenset()},
        ("w_d4", False): {frozenset({0})},
        ("w_d4", True): {frozenset()},
        ("ag23", False): {frozenset({0})},
        ("ag23", True): {frozenset({0})},
    }
    for (name, reduced), cells in expect.items():
        alg = (reduced_algebras if reduced else algebras)[name]
        assert {line_verdict(alg, t).fusion.entry(1, 1) for t in alg.space.lines} == cells


def test_affine_dims_and_fusion(algebras):
    alg = algebras["ag23"]
    for t in alg.space.lines:
        d = decompose_line(alg, t)
        assert d.gen_dims() == (5, 4)
        assert (d.eigen0_dim, d.eigen1_dim) == (4, 4)
        assert not d.semisimple
        table = fusion_table(alg, d)
        assert is_z2_graded(table)
        assert table.entry(1, 1) == frozenset({0})


def test_affine_reduced_semisimple(reduced_algebras):
    red = reduced_algebras["ag23"]
    for t in red.space.lines:
        d = decompose_line(red, t)
        assert d.gen_dims() == (4, 4)
        assert d.semisimple
        assert is_z2_graded(fusion_table(red, d))


def _pairwise_fusion(alg, dec):
    """Cells and first 1-part witness from one product per basis pair."""
    parts = (dec.basis0, dec.basis1)
    cells, witness = {}, None
    for x, y in ((0, 0), (0, 1), (1, 1)):
        labels = set()
        for i, u in enumerate(parts[x]):
            ad_u = matsuo.ad_matrix(alg, u)
            js = range(i, len(parts[y])) if x == y else range(len(parts[y]))
            for j in js:
                v = parts[y][j]
                p = ad_u.matvec(v)
                if not p:
                    continue
                f0, f1 = dec.component_flags(p)
                if f0:
                    labels.add(0)
                if f1:
                    labels.add(1)
                    if x == 1 and witness is None:
                        witness = (u, v, p, dec.split(p)[1])
        cells[(x, y)] = frozenset(labels)
    return cells, witness


def _assert_fusion_matches_reference(alg):
    cells = {}
    for t in alg.space.lines:
        dec = decompose_line(alg, t)
        table = fusion_table(alg, dec)
        expected_cells, expected_witness = _pairwise_fusion(alg, dec)
        assert table.cells == expected_cells, t
        got = table.witness
        if expected_witness is None:
            assert got is None, t
        else:
            assert (got.u, got.v, got.product, got.bad_component) == expected_witness, t
        cells[t] = table.cells
    return cells


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_fusion_table_matches_pairwise_reference(algebras, reduced_algebras, name):
    full = _assert_fusion_matches_reference(algebras[name])
    _assert_fusion_matches_reference(reduced_algebras[name])
    if name not in ("ag33", "su32"):
        return
    sp = algebras[name].space
    perm = list(range(sp.n_points))
    random.Random(6061).shuffle(perm)
    moved = fischer.validate(sp.n_points, [[perm[p] for p in t] for t in sp.lines])
    cells = _assert_fusion_matches_reference(matsuo.build(moved))
    for t in sp.lines:
        assert cells[tuple(sorted(perm[p] for p in t))] == full[t]


def _power_decomposition(alg, line):
    """The decomposition from the full powers ad^N and (ad+1)^N, N = dim."""
    ad = matsuo.ad_matrix(alg, matsuo.line_nilpotent(alg, line))
    n = alg.dim
    ad1 = ad + FieldMatrix.identity(ad.field, n)
    basis0 = (ad ** n).kernel()
    basis1 = (ad1 ** n).kernel()
    assert len(basis0) + len(basis1) == n
    assert basis1 == ad1.kernel()
    eigen0, eigen1 = len(ad.kernel()), len(basis1)
    coords = FieldMatrix.from_cols(ad.field, n, basis0 + basis1).inverse()
    coord_cols = FieldMatrix.from_cols(ad.field, n, coords.rows).rows  # transposed
    return basis0, basis1, eigen0, eigen1, eigen0 + eigen1 == n, coord_cols


def _decomposition_fields(dec):
    return (dec.basis0, dec.basis1, dec.eigen0_dim, dec.eigen1_dim,
            dec.semisimple, dec.coord_cols)


def test_lines_read_coordinates_by_columns(algebras, reduced_algebras, monkeypatch):
    # C is kept by its columns: no line transposes a matrix or applies one
    algs = [*algebras.values(), *reduced_algebras.values()]
    for alg in algs:
        for i in range(alg.dim):  # each point's ad rows come from from_cols, once
            alg.ad_rows(i)
    calls = []
    from_cols, matvec = FieldMatrix.from_cols, FieldMatrix.matvec
    monkeypatch.setattr(FieldMatrix, "from_cols",
                        staticmethod(lambda *a: calls.append("from_cols") or from_cols(*a)))
    monkeypatch.setattr(FieldMatrix, "matvec",
                        lambda m, v: calls.append("matvec") or matvec(m, v))
    for alg in algs:
        for t in alg.space.lines:
            fusion_table(alg, decompose_line(alg, t))
    assert calls == []


def test_fusion_tensor_reads_the_lines_not_the_table(algebras, reduced_algebras,
                                                     monkeypatch):
    # only the witness cross-check, through matsuo.multiply, reads alg.table
    state = {"in_multiply": False, "stray_reads": 0}

    class WatchedTable(tuple):
        def __getitem__(self, i):
            state["stray_reads"] += not state["in_multiply"]
            return tuple.__getitem__(self, i)

    multiply = matsuo.multiply

    def watched_multiply(alg, u, v):
        state["in_multiply"] = True
        try:
            return multiply(alg, u, v)
        finally:
            state["in_multiply"] = False

    monkeypatch.setattr(matsuo, "multiply", watched_multiply)
    for name in ("ag23", "3_3_sym4"):
        for alg in (algebras[name], reduced_algebras[name]):
            watched = matsuo.NilpotentMatsuoAlgebra(
                alg.space, alg.dim, alg.reduced, WatchedTable(alg.table))
            for t in alg.space.lines:
                dec = decompose_line(alg, t)
                assert fusion_table(watched, dec) == fusion_table(alg, dec), t
    assert state["stray_reads"] == 0


def _assert_decompositions_match_reference(alg):
    for t in alg.space.lines:
        dec = decompose_line(alg, t)
        assert _decomposition_fields(dec) == _power_decomposition(alg, t), t


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_decompose_line_matches_power_reference(algebras, reduced_algebras, name):
    _assert_decompositions_match_reference(algebras[name])
    _assert_decompositions_match_reference(reduced_algebras[name])
    if name not in ("ag33", "su32"):
        return
    sp = algebras[name].space
    perm = list(range(sp.n_points))
    random.Random(7071).shuffle(perm)
    moved = fischer.validate(sp.n_points, [[perm[p] for p in t] for t in sp.lines])
    _assert_decompositions_match_reference(matsuo.build(moved))


def _crafted_ad(n, block, rest):
    """block in the top-left corner, rest (0 or 1) on the remaining diagonal."""
    m = len(block)
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][:m] = block[i]
    for i in range(m, n):
        rows[i][i] = rest
    return FieldMatrix.from_rows(matsuo.GF2, rows)


def _patch_ad(monkeypatch, alg, block, rest):
    ad = _crafted_ad(alg.dim, block, rest)
    monkeypatch.setattr(matsuo, "ad_matrix", lambda alg, x: ad)


def test_decompose_line_rejects_other_eigenvalues(algebras, monkeypatch):
    alg = algebras["cq"]
    t = alg.space.lines[0]
    _patch_ad(monkeypatch, alg, [[0, 1], [1, 1]], 0)  # x^2 + x + 1 companion
    with pytest.raises(RuntimeError,
                       match="unexpected eigenvalue.*" + re.escape(repr(t))):
        decompose_line(alg, t)


def test_decompose_line_rejects_a_one_part_jordan_block(algebras, monkeypatch):
    alg = algebras["cq"]
    t = alg.space.lines[0]
    _patch_ad(monkeypatch, alg, [[1, 1], [0, 1]], 0)
    with pytest.raises(RuntimeError,
                       match="generalized 1-part exceeds the 1-eigenspace "
                             "for line " + re.escape(repr(t))):
        decompose_line(alg, t)


def test_decompose_line_walks_a_long_kernel_chain(algebras, monkeypatch):
    alg = algebras["cq"]
    t = alg.space.lines[0]
    _patch_ad(monkeypatch, alg, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], 1)
    dec = decompose_line(alg, t)
    assert dec.gen_dims() == (3, alg.dim - 3)
    assert (dec.eigen0_dim, dec.semisimple) == (1, False)  # needs ad^3
    assert _decomposition_fields(dec) == _power_decomposition(alg, t)


def _split_reference(dec, v):
    c = dec.coords(v)
    d0 = len(dec.basis0)
    v0 = v1 = 0
    for i, b in enumerate(dec.basis0 + dec.basis1):
        if (c >> i) & 1:
            if i < d0:
                v0 ^= b
            else:
                v1 ^= b
    return v0, v1


def test_split_reconstructs_vectors(algebras, reduced_algebras):
    rng = random.Random(5)
    for alg in list(algebras.values()) + list(reduced_algebras.values()):
        for t in alg.space.lines:
            d = decompose_line(alg, t)
            for _ in range(4):
                v = rng.randrange(1 << alg.dim)
                v0, v1 = d.split(v)
                assert (v0, v1) == _split_reference(d, v)
                assert v0 ^ v1 == v
                assert d.component_flags(v) == (v0 != 0, v1 != 0)
                assert d.component_flags(v0) == (v0 != 0, False)
                assert d.component_flags(v1) == (False, v1 != 0)


@pytest.mark.parametrize("v", [1 << 6, -1])
def test_coordinates_refuse_an_element_outside_the_algebra(algebras, v):
    d = decompose_line(algebras["cq"], (0, 1, 2))
    for read in (d.coords, d.split, d.component_flags):
        with pytest.raises(ValueError, match="does not fit the algebra's dimension"):
            read(v)


def test_decomposition_exhausts_algebra(algebras):
    for alg in algebras.values():
        for t in alg.space.lines[:3]:
            d = decompose_line(alg, t)
            assert len(d.basis0) + len(d.basis1) == alg.dim


def test_classification_biconditional(spaces, algebras):
    for name in ("cq", "ag23", "w_a4", "3_3_sym4"):
        gv = classify_space(algebras[name])
        expected = fischer.is_symplectic_type(spaces[name]) or name == "ag23"
        assert gv.graded is expected


def _summary(v):
    d = v.decomposition
    return (d.gen_dims(), (d.eigen0_dim, d.eigen1_dim), v.fusion.cells, v.z2_graded)


def _reflections(sp):
    return [[fischer.wedge(sp, y, x) if sp.are_collinear(y, x) else x
             for x in range(sp.n_points)] for y in range(sp.n_points)]


def _orbits_reference(sp):
    """The line orbits of the point reflections, closed over sorted triples."""
    lines, out = set(sp.lines), []
    remaining = list(sp.lines)
    sigmas = _reflections(sp)
    while remaining:
        orbit, todo = {remaining[0]}, [remaining[0]]
        while todo:
            t = todo.pop()
            for sigma in sigmas:
                u = tuple(sorted(sigma[p] for p in t))
                assert u in lines
                if u not in orbit:
                    orbit.add(u)
                    todo.append(u)
        out.append(tuple(sorted(orbit)))
        remaining = [t for t in remaining if t not in orbit]
    return out


@pytest.mark.parametrize("name", list(fischer.CATALOG_NAMES) + ["hall81", "su32~", "hall81~"])
def test_reflections_match_the_oracle(spaces, relabelled, hall_space, name):
    if name.startswith("hall81"):
        sp = hall_space(5151 if name.endswith("~") else None)
    elif name.endswith("~"):
        sp = relabelled(spaces[name[:-1]], 5252)[0]
    else:
        sp = spaces[name]
    ids = {t: k for k, t in enumerate(sp.lines)}
    got = fischer.reflections(sp)
    assert len(got) == sp.n_points
    for y, (sigma, (images, perm)) in enumerate(zip(_reflections(sp), got)):
        assert images == tuple(sigma)
        assert perm == tuple(ids[tuple(sorted(sigma[p] for p in t))] for t in sp.lines)
        assert all(perm[perm[k]] == k for k in range(len(perm)))
        assert all(perm[k] == k for k, t in enumerate(sp.lines) if y in t)


@pytest.mark.parametrize("decide, reduced, calls", [
    (orbit_verdicts, False, 1), (classify_space, False, 1), (classify_space, True, 0)])
def test_each_entry_point_builds_the_reflections_once(algebras, reduced_algebras,
                                                      monkeypatch, decide, reduced, calls):
    count = []
    build = fischer.reflections
    monkeypatch.setattr(fischer, "reflections", lambda sp: count.append(sp) or build(sp))
    decide((reduced_algebras if reduced else algebras)["3_3_sym4"])
    assert len(count) == calls


ORBIT_SIZES = {
    "cq": [4], "ag23": [3] * 4, "w_a4": [10], "w_d4": [16],
    "3_3_sym4": [36, 6], "ag33": [9] * 13, "su32": [48] * 4,
}


@pytest.mark.parametrize("name", list(fischer.CATALOG_NAMES) + ["su32~", "ag33~"])
def test_orbit_verdicts_match_every_line(spaces, algebras, relabelled, name):
    if name.endswith("~"):
        name = name[:-1]
        alg = matsuo.build(relabelled(spaces[name], 4242)[0])
    else:
        alg = algebras[name]
    orbits = orbit_verdicts(alg)
    assert [o for _, o in orbits] == _orbits_reference(alg.space)
    assert sorted(len(o) for _, o in orbits) == sorted(ORBIT_SIZES[name])
    assert sorted(t for _, o in orbits for t in o) == list(alg.space.lines)
    assert [o[0] for _, o in orbits] == sorted(o[0] for _, o in orbits)
    for v, orbit in orbits:
        assert v.line == orbit[0] and list(orbit) == sorted(orbit)
        for t in orbit:
            assert _summary(line_verdict(alg, t)) == _summary(v)


def test_orbit_verdicts_reject_a_table_with_a_wedge_swapped(algebras):
    alg = algebras["ag23"]
    sp = alg.space
    i, j, k = sp.lines[0]
    other = next(p for p in range(sp.n_points) if p not in (i, j, k))
    table = [list(r) for r in alg.table]
    table[i][j] = table[j][i] = (1 << i) | (1 << j) | (1 << other)
    bad = matsuo.NilpotentMatsuoAlgebra(
        sp, alg.dim, False, tuple(tuple(r) for r in table))
    with pytest.raises(RuntimeError, match="point") as exc:
        orbit_verdicts(bad)
    y, a, b = map(int, re.search(
        r"point (\d+) .* pair \((\d+), (\d+)\)", str(exc.value)).groups())
    # the named reflection, rebuilt here, really moves the named entry wrongly
    sigma = [fischer.wedge(sp, y, x) if sp.are_collinear(y, x) else x
             for x in range(sp.n_points)]
    image = sum(1 << sigma[p] for p in range(sp.n_points) if (table[a][b] >> p) & 1)
    assert table[sigma[a]][sigma[b]] != image


def _first_unpreserved(sp, table):
    """The first (y, i, j) whose entry the reflection in y moves wrongly, from
    the entry-by-entry check: each entry's image is read point by point."""
    n = sp.n_points
    for y, sigma in enumerate(_reflections(sp)):
        for i in range(n):
            for j in range(n):
                image = sum(1 << sigma[p] for p in range(n) if (table[i][j] >> p) & 1)
                if table[sigma[i]][sigma[j]] != image:
                    return y, i, j
    return None


@pytest.mark.parametrize("name", ["ag23", "w_d4"])
@pytest.mark.parametrize("kind", ["other line", "no line"])
def test_orbit_verdicts_name_the_first_corrupted_entry(algebras, name, kind):
    alg = algebras[name]
    sp, n = alg.space, alg.dim
    masks = set(sp.line_masks)
    rng = random.Random(f"{name} {kind}")
    for _ in range(5):
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == "other line":
            entry = rng.choice(sorted(masks - {alg.table[i][j]}))
        else:
            entry = rng.randrange(1, 1 << n)
            while entry in masks:
                entry = rng.randrange(1, 1 << n)
        table = [list(r) for r in alg.table]
        table[i][j] = entry
        bad = matsuo.NilpotentMatsuoAlgebra(
            sp, n, False, tuple(tuple(r) for r in table))
        expected = _first_unpreserved(sp, table)
        assert expected is not None
        for decide in (orbit_verdicts, classify_space):
            with pytest.raises(RuntimeError, match=re.escape(
                    f"point {expected[0]} does not preserve the structure constants "
                    f"at pair ({expected[1]}, {expected[2]})")):
                decide(bad)


def test_orbit_verdicts_need_the_full_algebra(reduced_algebras):
    with pytest.raises(ValueError, match="full algebra"):
        orbit_verdicts(reduced_algebras["cq"])


@pytest.mark.parametrize("name", list(fischer.CATALOG_NAMES) + ["su32~", "ag33~"])
def test_classify_space_equals_every_line_verdict(spaces, algebras, relabelled, name):
    if name.endswith("~"):
        alg = matsuo.build(relabelled(spaces[name[:-1]], 4343)[0])
    else:
        alg = algebras[name]
    for a in (alg, matsuo.reduce(alg)):
        want = [line_verdict(a, t) for t in a.space.lines]
        assert list(classify_space(a).verdicts) == want


def test_classify_space_equals_line_verdict_on_hall(hall_space):
    sp = hall_space(8484)
    alg = matsuo.build(sp)
    verdicts = classify_space(alg).verdicts
    for k in random.Random(8585).sample(range(len(sp.lines)), 40):
        assert verdicts[k] == line_verdict(alg, sp.lines[k]), sp.lines[k]


@pytest.mark.parametrize("name, reduced, decided",
                         [("su32", False, 4), ("ag33", False, 13), ("cq", True, 4)])
def test_classify_space_decides_one_line_per_orbit(algebras, reduced_algebras,
                                                   monkeypatch, name, reduced, decided):
    calls = {"decompose_line": 0, "fusion_table": 0}

    def count(fn):
        original = getattr(decomp, fn)

        def counted(*args):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(decomp, fn, counted)

    for fn in calls:
        count(fn)
    classify_space((reduced_algebras if reduced else algebras)[name])
    assert calls == {"decompose_line": decided, "fusion_table": decided}


def test_a_carried_witness_is_cross_checked(algebras, monkeypatch):
    # each orbit's first line is decided with the true products, and every
    # carried line sees multiply return 0: the first ungraded carried line
    # finds no witness pair for its 1*1 cell
    alg = algebras["3_3_sym4"]
    first = {o[0] for _, o in orbit_verdicts(alg)}
    multiply, decide = matsuo.multiply, decomp.line_verdict
    deciding = []

    def decided_truly(a, t):
        deciding.append(t)
        try:
            return decide(a, t)
        finally:
            deciding.pop()

    monkeypatch.setattr(matsuo, "multiply",
                        lambda a, u, v: multiply(a, u, v) if deciding else 0)
    monkeypatch.setattr(decomp, "line_verdict", decided_truly)
    with pytest.raises(RuntimeError, match="disagree") as exc:
        classify_space(alg)
    named = tuple(map(int, re.search(r"line \((\d+), (\d+), (\d+)\)",
                                     str(exc.value)).groups()))
    assert named not in first
    monkeypatch.setattr(matsuo, "multiply", multiply)
    assert not decide(alg, named).z2_graded


def test_witness_recorded_for_failing_lines(algebras):
    gv = classify_space(algebras["3_3_sym4"])
    failing = [v for v in gv.verdicts if not v.z2_graded]
    assert failing
    for v in failing:
        w = v.witness
        assert w is not None
        assert w.bad_component != 0
        d = v.decomposition
        assert d.component_flags(w.u) == (False, True)
        assert d.component_flags(w.v) == (False, True)
        p = matsuo.multiply(algebras["3_3_sym4"], w.u, w.v)
        assert p == w.product
        assert d.component_flags(p)[1] is True


def test_su32_line_0_2_6_has_a_pair_whose_product_stays_in_the_one_part(algebras):
    # README, "Known discrepancy": not every pair on the su32 witness line
    # keeps a 0-component in its product
    u, v = (1 << 1) ^ (1 << 7), (1 << 14) ^ (1 << 29) ^ (1 << 30) ^ (1 << 31)
    p = matsuo.multiply(algebras["su32"], u, v)
    d = decompose_line(algebras["su32"], (0, 2, 6))
    assert [d.component_flags(x) for x in (u, v, p)] == [(False, True)] * 3
    assert p.bit_count() == 8


# sha256 of [name, reduced, [line_verdict(alg, t).to_json_dict() for each line]]
# over the catalog, full then reduced, as compact JSON with sorted keys: every
# cell and every witness of the 786 line verdicts
_CATALOG_VERDICTS_SHA256 = "1d30d5ada5c715dea1efecccb446637e9360f2584436ec62e14c96581807c31f"


def test_catalog_verdicts_pinned(algebras, reduced_algebras):
    out = []
    for name in fischer.CATALOG_NAMES:
        for alg in (algebras[name], reduced_algebras[name]):
            out.append([name, alg.reduced,
                        [line_verdict(alg, t).to_json_dict() for t in alg.space.lines]])
    blob = json.dumps(out, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == _CATALOG_VERDICTS_SHA256


def test_fusion_table_matches_pairwise_reference_on_hall(hall_space):
    # the tensor at n = 81, where each point lies on 40 lines: cells and
    # witness of 9 seeded lines, full and reduced, from one product per pair
    sp = hall_space(8282)
    full = matsuo.build(sp)
    lines = random.Random(8383).sample(sp.lines, 9)
    for alg in (full, matsuo.reduce(full)):
        for t in lines:
            dec = decompose_line(alg, t)
            table = fusion_table(alg, dec)
            expected_cells, expected_witness = _pairwise_fusion(alg, dec)
            assert table.cells == expected_cells, t
            got = table.witness
            assert (got.u, got.v, got.product, got.bad_component) == expected_witness, t


def test_a_hall_line_verdict_transposes_only_its_own_points(hall_space, monkeypatch):
    # ad rows are built per point on first request: the line nilpotent's ad
    # matrix reads the rows of its three points, not those of all 81
    alg = matsuo.build(hall_space())
    calls = []
    from_cols = FieldMatrix.from_cols
    monkeypatch.setattr(FieldMatrix, "from_cols",
                        staticmethod(lambda *a: calls.append(a) or from_cols(*a)))
    line_verdict(alg, alg.space.lines[0])
    assert len(calls) == 3


# the same digest over Hall's 81-point space, full then reduced: the witness
# line {[0,0,0,0], [1,0,0,0], [2,0,0,0]} and 8 seeded lines; with the pairwise
# reference above on other lines, this pins the tensor and its witness there
_HALL_VERDICTS_SHA256 = "3a42dc8d47061b8ba5b7b3e108299acbae163b134926727b8591f2040d10ca2b"


def test_hall_verdicts_pinned(hall_space):
    sp = hall_space()
    index = {label: i for i, label in enumerate(sp.labels)}
    witness = tuple(sorted(index[x] for x in ("[0,0,0,0]", "[1,0,0,0]", "[2,0,0,0]")))
    lines = [witness] + random.Random(8181).sample(
        [t for t in sp.lines if t != witness], 8)
    full = matsuo.build(sp)
    out = [[alg.reduced, [line_verdict(alg, t).to_json_dict() for t in lines]]
           for alg in (full, matsuo.reduce(full))]
    assert all(v["witness"] is not None for _, vs in out for v in vs)
    blob = json.dumps(out, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == _HALL_VERDICTS_SHA256


def test_witness_cross_check_names_the_line(algebras, monkeypatch):
    alg = algebras["3_3_sym4"]
    t = next(v.line for v in classify_space(alg).verdicts if not v.z2_graded)
    monkeypatch.setattr(matsuo, "multiply", lambda alg, u, v: 0)
    with pytest.raises(RuntimeError, match="disagree.*" + re.escape(repr(t))):
        line_verdict(alg, t)


def test_good_lines_3_3_sym4(algebras):
    gv = classify_space(algebras["3_3_sym4"])
    good = set(gv.good_lines)
    graded = {v.line for v in gv.verdicts if v.z2_graded}
    assert good  # such lines exist
    assert good <= graded  # lines only in affine planes stay graded
    assert graded == good  # observed: the graded lines are exactly those


def test_good_lines_all_of_ag33(spaces):
    # every line of the affine 3-space avoids quadrilaterals entirely
    sp = spaces["ag33"]
    for t in sp.lines[:10]:
        assert fischer.cqs_through_line(sp, t) == ()


def test_verdict_json_schema(algebras):
    v = line_verdict(algebras["ag23"], algebras["ag23"].space.lines[0])
    d = v.to_json_dict()
    assert set(d) == {
        "line", "gen_dims", "eigen_dims", "semisimple", "fusion",
        "z2_graded", "witness",
    }
    assert set(d["fusion"]) == {"00", "01", "11"}
    assert d["witness"] is None
    json.dumps(d)


def test_structured_basis_cq(algebras):
    alg = algebras["cq"]
    sb = symplectic_structured_basis(alg, (0, 1, 2))
    assert sb.line_points == (0, 1, 2)
    assert len(sb.quad_sums) == 1  # the whole space is the only quadrilateral
    assert sb.quad_sums[0][1] == (1 << 6) - 1
    assert sb.p0_points == ()
    assert len(sb.one_part) == 3


def test_structured_basis_w_a4_and_w_d4(algebras):
    for name in ("w_a4", "w_d4"):
        alg = algebras[name]
        for t in alg.space.lines:
            sb = symplectic_structured_basis(alg, t)
            d = decompose_line(alg, t)
            assert 3 + len(sb.quad_sums) + len(sb.p0_points) == d.eigen0_dim
            assert len(sb.one_part) >= d.eigen1_dim


def test_structured_basis_requires_symplectic(algebras):
    with pytest.raises(ValueError, match="symplectic"):
        symplectic_structured_basis(algebras["ag23"], algebras["ag23"].space.lines[0])


def test_structured_basis_requires_full_algebra(reduced_algebras):
    red = reduced_algebras["cq"]
    with pytest.raises(ValueError, match="full"):
        symplectic_structured_basis(red, (0, 1, 2))


def test_cq_pair_case_w_a4(spaces):
    sp = spaces["w_a4"]
    for t in sp.lines:
        quads = fischer.cqs_through_line(sp, t)
        assert len(quads) == 2
        res = cq_pair_case(sp, t, quads[0], quads[1])
        assert res.case == "a"
        p0, _, _ = fischer.points_p0_p2(sp, t)
        assert res.w in p0


def test_cq_pair_case_w_d4(spaces):
    sp = spaces["w_d4"]
    seen = set()
    for t in sp.lines:
        for q1, q2 in itertools.combinations(fischer.cqs_through_line(sp, t), 2):
            res = cq_pair_case(sp, t, q1, q2)
            seen.add(res.case)
            if res.case == "b":
                assert res.third_quad is not None
                assert set(t) < res.third_quad
    assert seen == {"b"}


def test_cq_pair_case_rejects_equal_quads(spaces):
    sp = spaces["w_a4"]
    t = sp.lines[0]
    q = fischer.cqs_through_line(sp, t)[0]
    with pytest.raises(ValueError):
        cq_pair_case(sp, t, q, q)
