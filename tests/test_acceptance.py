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
    parts.append(verify.claim_witness_hall(verify.FamiliesContext()))
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


# sha256 of each suite's JSON report; a changed byte in any claim's output moves it
_REPORT_SHA256 = {
    "paper": "a535745c8901061aa65d72293924d9ccc92e75c1de9945b29fd7437e7944ecc8",
    "families": "b45e077e0c26db8a16cdc19e1898faed8fe50b429f4025e8f723bc24b1f92856",
}


def test_criterion_10_determinism(tmp_path, capsys):
    parts = []
    for suite, sha256 in _REPORT_SHA256.items():
        out1, out2 = tmp_path / f"{suite}1.json", tmp_path / f"{suite}2.json"
        for out in (out1, out2):
            cli.main(["verify", "--suite", suite, "--out", str(out)])
        assert hashlib.sha256(out1.read_bytes()).hexdigest() == sha256, suite
        same = out1.read_bytes() == out2.read_bytes()
        parts.append(("pass" if same else "fail", f"{suite}: JSON reports differ between runs"))
    ok, parts = _report(capsys, 10, "verification suite JSON is byte-identical across"
                            " runs", parts)
    assert ok, parts
