import json
import random
from types import SimpleNamespace

import pytest

from matsuo2 import fischer, matsuo, miyamoto, transposition, verify


def test_claim_ids_unique_and_ordered():
    ids = [cid for cid, _ in verify.CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("seed", [None, 2718], ids=["generated", "relabelled"])
def test_hall_claim_passes_on_halls_space(hall_space, seed):
    ctx = SimpleNamespace(hall_space=hall_space(seed))
    assert verify.claim_witness_hall(ctx) == ("pass", "witness product lands back in the 1-part")


def _hall_ctx_with_labels(hall_space, relabel):
    sp = hall_space()
    return SimpleNamespace(hall_space=fischer.validate(
        sp.n_points, sp.lines, labels=relabel(list(sp.labels))))


def test_hall_claim_skips_labels_written_without_brackets(hall_space):
    # a witness label the space lacks fails the claim, as for ag33; no skip is left
    ctx = _hall_ctx_with_labels(hall_space, lambda labels: [
        lab.strip("[]").replace(",", "") for lab in labels])  # [0,1,2,0] -> 0120
    assert verify.claim_witness_hall(ctx) == (
        "fail", "space lacks [p,q,r,s] coordinate labels over F_3")


def test_hall_claim_fails_without_one_label_per_point(hall_space):
    ctx = _hall_ctx_with_labels(hall_space, lambda labels: [labels[0]] + labels[:-1])
    assert verify.claim_witness_hall(ctx) == ("fail", "81 points carry 80 distinct labels")


def test_ag33_witness_reads_points_by_label(spaces, relabelled):
    def ctx(sp):
        return SimpleNamespace(spaces={"ag33": sp}, algebras={"ag33": matsuo.build(sp)})

    expected = verify.claim_witness_ag33(ctx(spaces["ag33"]))
    assert expected == (
        "pass", "[0,1,0]+[1,1,0] times [1,0,1]+[2,0,1] lands back in the 1-part")
    moved, _ = relabelled(spaces["ag33"], 3333)
    assert verify.claim_witness_ag33(ctx(moved)) == expected


def _su32_ctx(sp):
    return SimpleNamespace(spaces={"su32": sp}, algebras={"su32": matsuo.build(sp)})


def test_su32_witness_reads_points_by_label(spaces, relabelled):
    expected = verify.claim_witness_su32(_su32_ctx(spaces["su32"]))
    assert expected[0] == "fail"  # the documented su32 discrepancy
    moved, _ = relabelled(spaces["su32"], 3636)
    assert verify.claim_witness_su32(_su32_ctx(moved)) == expected


def test_su32_witness_fails_without_one_label_per_point(spaces):
    sp = spaces["su32"]
    labels = list(sp.labels)
    labels[1] = labels[0]
    twin = fischer.validate(sp.n_points, sp.lines, labels=labels, meta=sp.meta)
    assert verify.claim_witness_su32(_su32_ctx(twin)) == (
        "fail", "36 points carry 35 distinct labels")
    labels = list(sp.labels)
    d = transposition.su32_matrix_involutions()[0]
    labels[labels.index(d.label())] = "d"  # the witness line's first point goes unnamed
    unnamed = fischer.validate(sp.n_points, sp.lines, labels=labels, meta=sp.meta)
    assert verify.claim_witness_su32(_su32_ctx(unnamed)) == (
        "fail", "space lacks the affine GF(4) labels of the su32 class")


def test_suite_enumerates_each_class_once(monkeypatch):
    sizes, built, validated = [], [], []
    enumerate_class = transposition.conjugacy_class
    from_class, validate = transposition.fischer_from_class, fischer.validate

    def counted_class(*args, **kwargs):
        cls = enumerate_class(*args, **kwargs)
        sizes.append(cls.size())
        return cls

    monkeypatch.setattr(transposition, "conjugacy_class", counted_class)
    monkeypatch.setattr(transposition, "fischer_from_class",
                        lambda *a, **k: built.append(1) or from_class(*a, **k))
    monkeypatch.setattr(fischer, "validate",
                        lambda *a, **k: validated.append(a[0]) or validate(*a, **k))
    verify.run_suite()
    assert sorted(sizes) == [10, 12, 18, 36]  # w_a4, w_d4, 3_3_sym4, su32: once each
    assert len(built) == 4
    # 5 of them on the 6-point cq: the suite's catalog copy, one per
    # verify_cq_miyamoto (k = 2, 3), aut_count_full and aut_reduced_unconstrained
    assert len(validated) == 11
    assert validated.count(6) == 5


def test_aut_claims_share_one_quotient_enumeration(monkeypatch):
    dims = []
    enumerate_group = miyamoto._aut_enumerate

    def counted(search):
        dims.append(search.n)
        return enumerate_group(search)

    monkeypatch.setattr(miyamoto, "_aut_enumerate", counted)
    ctx = verify.SuiteContext()
    assert verify.claim_aut_reduced(ctx) == (
        "pass", "order 24, confirmed by the unconstrained 2^25 sweep")
    assert verify.claim_aut_full(ctx) == (
        "pass", "order 96, block shape exact, quadratic identity holds")
    assert sorted(dims) == [5, 6]  # one enumeration of the quotient, one of the full algebra


def test_nominal_suite_state():
    """Pin the expected fresh-run outcome, including the one honest failure."""
    result = verify.run_suite()
    statuses = {r.claim_id: r.status for r in result.results}
    assert statuses.pop("decomp.witness_su32") == "fail"
    assert "decomp.witness_hall" not in statuses  # it runs in the families suite
    assert set(statuses.values()) == {"pass"}
    assert result.exit_code == 1
    assert result.counts() == (30, 1, 0)


def test_families_suite_decides_the_hall_witness():
    result = verify.run_suite("families")
    assert result.results == (verify.ClaimResult(
        "decomp.witness_hall", "pass", "witness product lands back in the 1-part"),)
    assert result.exit_code == 0
    assert result.to_json_dict()["suite"] == "families"


def test_corrupted_structure_constants_fail(monkeypatch):
    init = verify.SuiteContext.__init__

    def corrupted_init(self, *args, **kwargs):
        # flip one structure constant of the quadrilateral, keeping commutativity
        init(self, *args, **kwargs)
        alg = self.algebras["cq"]
        table = [list(r) for r in alg.table]
        table[0][1] ^= 1 << (alg.dim - 1)
        table[1][0] = table[0][1]
        self.algebras["cq"] = matsuo.NilpotentMatsuoAlgebra(
            alg.space, alg.dim, alg.reduced, tuple(map(tuple, table)))
        self.reduced["cq"] = matsuo.reduce(self.algebras["cq"])

    monkeypatch.setattr(verify.SuiteContext, "__init__", corrupted_init)
    result = verify.run_suite()
    statuses = {r.claim_id: r.status for r in result.results}
    assert result.exit_code == 1
    # the corruption hits the quadrilateral algebra, so its claims must trip
    assert statuses["oracle.point_line"] == "fail" or statuses["oracle.line_line"] == "fail"
    assert statuses["algebra.annihilator"] == "fail"
    # the reflection check of the orbit verdicts sees the broken table
    assert statuses["decomp.grading_biconditional"] == "fail"


def _oracle_pairs(ctx, claim_id, product_by_definition):
    """(space name, u, v, predicted product, failure detail) of each pair an
    oracle claim checks, in its order, predicted point by point from the
    definition of the product."""
    for name, sp in ctx.spaces.items():
        alg = ctx.algebras[name]
        nils = [(t, m, matsuo.line_nilpotent(alg, t)) for t, m in zip(sp.lines, sp.line_masks)]
        if claim_id == "oracle.point_line":
            for x in range(sp.n_points):
                for t, m, ln in nils:
                    yield (name, 1 << x, ln, product_by_definition(sp, x, m),
                           f"{name}: point {x}, line {t}")
        else:
            for t1, m1, n1 in nils:
                for t2, _, n2 in nils:
                    want = 0
                    for x in t2:
                        want ^= product_by_definition(sp, x, m1)
                    yield (name, n1, n2, want, f"{name}: lines {t1}, {t2}")


@pytest.mark.parametrize("claim_id, what, seed", [
    ("oracle.point_line", "point*line", 11251),
    ("oracle.line_line", "line*line", 52833),
])
def test_oracle_claims_name_the_first_failing_pair(
        monkeypatch, product_by_definition, claim_id, what, seed):
    """With one seeded product flipped, an oracle claim reports what a
    pairwise loop over the definition's products finds first, after the same
    multiply calls in the same order; with none flipped it counts every pair."""
    ctx = verify.SuiteContext()
    claim = dict(verify.CLAIMS)[claim_id]
    pairs = list(_oracle_pairs(ctx, claim_id, product_by_definition))
    multiply = matsuo.multiply
    products = [multiply(ctx.algebras[name], u, v) for name, u, v, _, _ in pairs]
    # one seeded pair of each space, and the last pair of all
    rng = random.Random(seed)
    flips = [None, len(pairs) - 1]
    for name in ctx.spaces:
        flips.append(rng.choice([i for i, pair in enumerate(pairs) if pair[0] == name]))
    for flip in flips:
        calls = []

        def flipped(alg, u, v):
            calls.append((alg.space.meta.name, u, v))
            return multiply(alg, u, v) ^ (len(calls) - 1 == flip)

        expected, stop = ("pass", f"{len(pairs)} {what} products agree"), len(pairs)
        for i, ((_, _, _, want, detail), got) in enumerate(zip(pairs, products)):
            if got ^ (i == flip) != want:
                expected, stop = ("fail", detail), i + 1
                break
        monkeypatch.setattr(matsuo, "multiply", flipped)
        assert claim(ctx) == expected
        monkeypatch.setattr(matsuo, "multiply", multiply)
        assert calls == [(name, u, v) for name, u, v, _, _ in pairs[:stop]]


def test_suite_result_serialization():
    result = verify.SuiteResult("paper", (
        verify.ClaimResult("x.a", "pass", "fine"),
        verify.ClaimResult("x.b", "skipped", "nope"),
    ))
    d = result.to_json_dict()
    assert d["n_pass"] == 1 and d["n_skipped"] == 1 and d["n_fail"] == 0
    assert result.exit_code == 0
    json.dumps(d)
    text = result.format_text()
    assert "PASS x.a" in text and "SKIP x.b" in text


# decomp.witness_3_3_sym4 names its line by point indices, so under a
# relabelling only its status is compared; naming the line by labels would
# change the pinned `paper` digest
_INDEX_DETAILS = {"decomp.witness_3_3_sym4"}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("suite", ["paper", "families"])
def test_reports_are_invariant_under_relabelling(monkeypatch, relabelled, suite, seed):
    """Every space the suite builds is renumbered by a seeded permutation,
    labels and metadata kept with it; each claim reports as before."""
    expected = verify.run_suite(suite).to_json_dict()
    catalog, hall81 = fischer.catalog, fischer.hall81
    monkeypatch.setattr(fischer, "catalog",
                        lambda name: relabelled(catalog(name), f"{seed}:{name}")[0])
    monkeypatch.setattr(fischer, "hall81", lambda: relabelled(hall81(), f"{seed}:hall81")[0])
    got = verify.run_suite(suite).to_json_dict()
    claims = got.pop("claims")
    expected_claims = expected.pop("claims")
    assert [c["id"] for c in claims] == [c["id"] for c in expected_claims]
    for want, have in zip(expected_claims, claims):
        if want["id"] in _INDEX_DETAILS:
            assert have["status"] == want["status"]
        else:
            assert have == want
    assert got == expected
