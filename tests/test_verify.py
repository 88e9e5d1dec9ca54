import json
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
    with pytest.raises(KeyError):  # run_suite turns the crash into a failed claim
        verify.claim_witness_su32(_su32_ctx(unnamed))


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
    assert len(validated) == 14


def test_aut_claims_share_one_quotient_enumeration(monkeypatch):
    calls = []
    enumerate_reduced = miyamoto.aut_enumerate_reduced

    def counted():
        calls.append(1)
        return enumerate_reduced()

    monkeypatch.setattr(miyamoto, "aut_enumerate_reduced", counted)
    ctx = verify.SuiteContext()
    assert verify.claim_aut_reduced(ctx) == (
        "pass", "order 24, confirmed by the unconstrained 2^25 sweep")
    assert verify.claim_aut_full(ctx) == (
        "pass", "order 96, block shape exact, quadratic identity holds")
    assert len(calls) == 1


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
            alg.space, alg.dim, alg.reduced, alg.basis_labels, tuple(map(tuple, table)))
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
