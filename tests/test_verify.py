import itertools
import json
from types import SimpleNamespace

from matsuo2 import fischer, miyamoto, verify
from matsuo2.transposition import gens_to_text, preset


def test_claim_ids_unique_and_ordered():
    ids = [cid for cid, _ in verify.CLAIMS]
    assert len(ids) == len(set(ids))


def test_hall_claim_skipped_without_data():
    status, detail = verify.claim_witness_hall(SimpleNamespace(hall_space=None))
    assert status == "skipped"
    assert detail == "data not provided"


def test_hall_claim_rejects_wrong_point_count(tmp_path):
    gens, seed = preset("su32")
    path = tmp_path / "su32.gens"
    path.write_text(gens_to_text(gens, seed))
    status, detail = verify.claim_witness_hall(verify.SuiteContext(hall_data=str(path)))
    assert status == "fail"
    assert "81" in detail


def test_hall_claim_skips_space_without_coordinate_labels(tmp_path):
    # AG(4,3): the 81 points of F_3^4, lines {x, y, z} with x + y + z = 0
    pts = list(itertools.product(range(3), repeat=4))
    index = {p: i for i, p in enumerate(pts)}
    lines = {
        tuple(sorted((i, j, index[tuple(-(x + y) % 3 for x, y in zip(p, q))])))
        for i, p in enumerate(pts) for j, q in enumerate(pts) if i < j
    }
    path = tmp_path / "ag43.fischer"
    fischer.save_space(fischer.validate(81, sorted(lines)), path)
    status, detail = verify.claim_witness_hall(verify.SuiteContext(hall_data=str(path)))
    assert status == "skipped"
    assert detail == "supplied space lacks [p,q,r,s] coordinate labels over F_3"


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
    assert statuses.pop("decomp.witness_hall") == "skipped"
    assert set(statuses.values()) == {"pass"}
    assert result.exit_code == 1
    assert result.counts() == (30, 1, 1)


def test_corrupted_structure_constants_fail():
    result = verify.run_suite(corrupt=True)
    statuses = {r.claim_id: r.status for r in result.results}
    assert result.exit_code == 1
    # the corruption hits the quadrilateral algebra, so its claims must trip
    assert statuses["oracle.point_line"] == "fail" or statuses["oracle.line_line"] == "fail"
    assert statuses["algebra.annihilator"] == "fail"
    # the reflection check of the orbit verdicts sees the broken table
    assert statuses["decomp.grading_biconditional"] == "fail"


def test_suite_result_serialization():
    result = verify.SuiteResult((
        verify.ClaimResult("x.a", "pass", "fine"),
        verify.ClaimResult("x.b", "skipped", "nope"),
    ))
    d = result.to_json_dict()
    assert d["n_pass"] == 1 and d["n_skipped"] == 1 and d["n_fail"] == 0
    assert result.exit_code == 0
    json.dumps(d)
    text = result.format_text()
    assert "PASS x.a" in text and "SKIP x.b" in text
