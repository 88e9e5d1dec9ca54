"""Acceptance checks, one test per criterion, each printing a pass/fail line.

The checks delegate to the claim implementations of matsuo2.verify, which
pair every computed quantity with an independent oracle (combinatorial
predictors against structure constants, BFS closures against closed-form
orders, constrained against unconstrained enumeration).  All tolerances are
exact; these are finite statements.
"""

import hashlib

import pytest

from matsuo2 import cli, verify


@pytest.fixture(scope="module")
def ctx():
    return verify.SuiteContext()


def _report(capsys, number, title, parts):
    ok = all(status == "pass" for status, _ in parts)
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{tag} criterion {number:2d}: {title}", flush=True)
        for status, detail in parts:
            if status != "pass":
                print(f"     - {status}: {detail}", flush=True)
    return ok, parts


def _run(ctx, *claims):
    return [claim(ctx) for claim in claims]


def test_criterion_01_catalog(ctx, capsys):
    ok, parts = _report(capsys, 1, "catalog point counts and symplectic flags", _run(
        ctx,
        verify.claim_catalog_point_counts,
        verify.claim_catalog_symplectic_flags,
    ))
    assert ok, parts


def test_criterion_02_product_oracles(ctx, capsys):
    ok, parts = _report(capsys, 2, "predicted products match structure constants on all"
                           " 7 spaces", _run(
        ctx,
        verify.claim_oracle_point_line,
        verify.claim_oracle_line_line,
    ))
    assert ok, parts


def test_criterion_03_rank3_decompositions(ctx, capsys):
    ok, parts = _report(capsys, 3, "quadrilateral and affine plane decompositions", _run(
        ctx,
        verify.claim_cq_decomposition,
        verify.claim_cq_fusion,
        verify.claim_affine_decomposition,
        verify.claim_affine_reduced,
    ))
    assert ok, parts


def test_criterion_04_grading_biconditional_and_witnesses(ctx, capsys):
    parts = _run(
        ctx,
        verify.claim_main_biconditional,
        verify.claim_witness_3_3_sym4,
        verify.claim_witness_ag33,
        verify.claim_witness_su32,
    )
    hall = verify.claim_witness_hall(ctx)
    parts.append(("pass" if hall[0] == "skipped" else "fail",
                  f"hall case reported {hall[0]}: {hall[1]}"))
    ok, parts = _report(capsys, 4, "grading iff symplectic or affine plane; exact"
                           " witnesses reproduce the failures", parts)
    assert ok, parts


def test_criterion_05_good_lines(ctx, capsys):
    ok, parts = _report(capsys, 5, "good lines of 3_3_sym4 stay graded, quadrilateral"
                           " lines do not", _run(
        ctx,
        verify.claim_good_lines_3_3_sym4,
    ))
    assert ok, parts


def test_criterion_06_quadrilateral_dichotomy(ctx, capsys):
    ok, parts = _report(capsys, 6, "two quadrilaterals through a line: case (a) on"
                           " w_a4, case (b) on w_d4", _run(
        ctx,
        verify.claim_cq_pair_w_a4,
        verify.claim_cq_pair_w_d4,
    ))
    assert ok, parts


def test_criterion_07_miyamoto_orders(ctx, capsys):
    ok, parts = _report(capsys, 7, "Miyamoto closure orders 48 and 448, S-matrix"
                           " forms, restriction bijective", _run(
        ctx,
        verify.claim_miyamoto_gf4,
        verify.claim_miyamoto_gf8,
    ))
    assert ok, parts


def test_criterion_08_automorphism_counts(ctx, capsys):
    ok, parts = _report(capsys, 8, "Aut orders 24 (with unconstrained cross-check)"
                           " and 96 (with quadratic identity)", _run(
        ctx,
        verify.claim_aut_reduced,
        verify.claim_aut_full,
    ))
    assert ok, parts


def test_criterion_09_structural_invariants(ctx, capsys):
    ok, parts = _report(capsys, 9, "square-zero, annihilator, ad nilpotency and"
                           " idempotency invariants", _run(
        ctx,
        verify.claim_square_zero_random,
        verify.claim_annihilator,
        verify.claim_ad_point_square_zero,
        verify.claim_ad_line_idempotent,
    ))
    assert ok, parts


# sha256 of the paper suite's JSON report; a changed byte in any claim's output moves it
_PAPER_REPORT_SHA256 = "360db761007df71fddb91f42e36bb41bdb2e43991e6131cc1d4483c9e30e0f50"


def test_criterion_10_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    cli.main(["verify", "--suite", "paper", "--out", str(out1)])
    cli.main(["verify", "--suite", "paper", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == _PAPER_REPORT_SHA256
    status = [("pass" if same else "fail", "JSON reports differ between runs")]
    ok, parts = _report(capsys, 10, "verification suite JSON is byte-identical across"
                            " runs", status if not same else [("pass", "")])
    assert ok, parts
