"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria with stated wall-clock budgets assert them.
Each suite runs at its default scale, and each criterion pins that scale by
asserting the suite's check count: a change that shrinks a suite fails here.
"""

import time

import pytest

from cylkit.affine import AffinePermutation
from cylkit.memo import clear_caches
from cylkit.stanley import expand_affine_schur
from cylkit.verify import (
    suite_dual_pieri,
    suite_example2,
    suite_expansion_oracle,
    suite_grassmannianize_bounds,
    suite_nilcoxeter,
    suite_phi,
    suite_shift_property,
)


def _report(number: int, label: str, ok: bool, seconds: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} [{label}]: {status} ({seconds:.1f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_suite():
    # shared by criteria 3 and 4: exhaustive n in {3,4} up to length 6,
    # 200 seeded samples each for n in {5,6} up to length 7
    return suite_expansion_oracle()


def test_criterion_1_example2_golden():
    clear_caches()
    w = AffinePermutation.from_word(6, [5, 3, 1, 4, 2, 0])
    start = time.time()
    table = expand_affine_schur(w).coeffs
    elapsed = time.time() - start
    expected = {
        AffinePermutation.from_word(6, [3, 4, 5, 2, 1, 0]): 1,
        AffinePermutation.from_word(6, [4, 0, 5, 2, 1, 0]): 2,
        AffinePermutation.from_word(6, [5, 4, 0, 5, 1, 0]): 1,
        AffinePermutation.from_word(6, [1, 0, 5, 2, 1, 0]): 1,
    }
    _report(1, "worked-example expansion", table == expected and elapsed < 1.0,
            elapsed, f"got {table}")


def test_criterion_2_example2_intermediates():
    start = time.time()
    result = suite_example2()
    elapsed = time.time() - start
    _report(2, "worked-example intermediates",
            result.passed and result.checks == 13 and elapsed < 5.0, elapsed,
            f"{result.checks} checks; {result.failures}")


def test_criterion_3_oracle_equivalence(oracle_suite):
    mismatches = [f for f in oracle_suite.failures if f[0] == "oracle mismatch"]
    ok = (not mismatches and oracle_suite.checks == 659
          and oracle_suite.seconds < 600)
    _report(3, "oracle equivalence", ok, oracle_suite.seconds,
            f"{oracle_suite.checks} checks; {mismatches[:3]}")


def test_criterion_4_positivity_and_support(oracle_suite):
    bad = [f for f in oracle_suite.failures
           if f[0] in ("negative coefficient", "support escape")]
    _report(4, "positivity and support",
            not bad and oracle_suite.checks == 659, oracle_suite.seconds,
            f"{oracle_suite.checks} checks; {bad[:3]}")


def test_criterion_5_shift_property_and_gw():
    # types (2,4), (2,5), (3,6), shapes of up to 9 cells, toric offsets <= 2
    result = suite_shift_property()
    ok = result.passed and result.checks == 1079 and result.seconds < 900
    _report(5, "offset shift and Gromov-Witten slices", ok, result.seconds,
            f"{result.checks} checks; {result.failures[:3]}")


def test_criterion_6_dual_pieri():
    # periods 2..5 up to length 6
    result = suite_dual_pieri()
    _report(6, "dual Pieri identity", result.passed and result.checks == 2439,
            result.seconds, f"{result.checks} checks; {result.failures[:3]}")


def test_criterion_7_nilcoxeter():
    # identities at (1,3), (2,4), (2,5), (3,6); k-Schur checks at n = 3, 4
    result = suite_nilcoxeter()
    ok = result.passed and result.checks == 122 and result.seconds < 600
    _report(7, "nilCoxeter battery", ok, result.seconds,
            f"{result.checks} checks; {result.failures[:3]}")


def test_criterion_8_grassmannianize_bounds():
    # periods 2..5 up to length 6; types (2,4), (2,5), (3,6) up to 8 cells
    result = suite_grassmannianize_bounds()
    _report(8, "grassmannianization bounds",
            result.passed and result.checks == 898, result.seconds,
            f"{result.checks} checks; {result.failures[:3]}")


def test_criterion_9_phi_bijection():
    # types (2,4), (2,5), (3,6): straight shapes of up to 9 cells, skew
    # shapes of up to 7 cells in up to 4 variables
    result = suite_phi()
    _report(9, "shape bijection and function equality",
            result.passed and result.checks == 3960, result.seconds,
            f"{result.checks} checks; {result.failures[:3]}")
