"""Acceptance gate: every criterion runs at its stated budget and prints
one pass/fail line.  The same claims back ``bolkit verify-paper``, and
each claim's two report lines must equal its block in the recorded
``verify-paper`` output.  The ``suite`` fixture is session-wide (see
conftest.py)."""

import time
from functools import cache
from pathlib import Path

from bolkit.verify import ClaimResult, report_lines

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_report.txt"


@cache
def reference_blocks():
    """The recorded report as {claim id: [claim line, detail line]}, in report order."""
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("claims passed: ")
    heads, details = lines[:-1:2], lines[1::2]
    assert len(heads) == len(details) and all(h.startswith("claim ") for h in heads)
    return {h.split()[1].rstrip(":"): [h, d] for h, d in zip(heads, details)}


def run_claim(suite, number, claim_id, budget_s):
    citation, fn = {cid: (c, f) for cid, c, f in suite.claim_definitions()}[claim_id]
    t0 = time.monotonic()
    passed, details = fn()
    elapsed = time.monotonic() - t0
    status = "PASS" if passed and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {number} {claim_id}: {status} ({elapsed:.1f}s) {details}")
    assert passed, details
    lines = report_lines([ClaimResult(claim_id, citation, passed, details)])
    assert lines[:2] == reference_blocks()[claim_id], f"{claim_id} report text changed"
    assert elapsed < budget_s, f"{claim_id} took {elapsed:.1f}s, budget {budget_s}s"


def test_claim_order_matches_reference(suite):
    assert [cid for cid, _, _ in suite.claim_definitions()] == list(reference_blocks())


def test_criterion_01_example_fixture(suite):
    run_claim(suite, 1, "sec3-example-fixture", 1.0)


def test_criterion_02_order12_example(suite):
    run_claim(suite, 2, "sec5-order12-example", 1.0)


def test_criterion_03_order16_semidirect(suite):
    run_claim(suite, 3, "sec5-order16-semidirect", 1.0)


def test_criterion_04_q9_family(suite):
    t0 = time.monotonic()
    run_claim(suite, 4, "sec6-q9-family", 60.0)
    remaining = 60.0 - (time.monotonic() - t0)
    run_claim(suite, 4, "sec6-19-noniso", remaining)


def test_criterion_05_exceptional(suite):
    t0 = time.monotonic()
    run_claim(suite, 5, "sec6-exceptional", 5.0)
    remaining = 5.0 - (time.monotonic() - t0)
    run_claim(suite, 5, "sec5-21-total", remaining)


def test_criterion_06_coprime3_order16(suite):
    run_claim(suite, 6, "sec3-coprime3-order16", 30.0)


def test_criterion_07_commutant_properties(suite):
    run_claim(suite, 7, "sec2-commutant-props", 60.0)


def test_criterion_08_condition_oracle(suite):
    run_claim(suite, 8, "sec4-condition-oracle", 60.0)


def test_criterion_09_order8_oracle(suite):
    run_claim(suite, 9, "sec5-order8-oracle", 600.0)


def test_criterion_10_free_parameter_formula(suite):
    run_claim(suite, 10, "sec6-free-params", 5.0)


def test_criterion_11_tiny_iso_oracle(suite):
    run_claim(suite, 11, "tiny-iso-oracle", 60.0)
