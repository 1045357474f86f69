"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria with stated wall-clock budgets assert them.
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
    return suite_expansion_oracle(
        exhaustive_n=(3, 4), exhaustive_len=6,
        sampled_n=(5, 6), samples=200, sampled_len=7)


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
            result.passed and elapsed < 5.0, elapsed, str(result.failures))


def test_criterion_3_oracle_equivalence(oracle_suite):
    mismatches = [f for f in oracle_suite.failures if f[0] == "oracle mismatch"]
    ok = not mismatches and oracle_suite.seconds < 600
    _report(3, "oracle equivalence", ok, oracle_suite.seconds,
            str(mismatches[:3]))


def test_criterion_4_positivity_and_support(oracle_suite):
    bad = [f for f in oracle_suite.failures
           if f[0] in ("negative coefficient", "support escape")]
    _report(4, "positivity and support", not bad, oracle_suite.seconds,
            str(bad[:3]))


def test_criterion_5_shift_property_and_gw():
    result = suite_shift_property(types=((2, 4), (2, 5), (3, 6)),
                                  max_cells=9, toric_max_d=2)
    ok = result.passed and result.seconds < 900
    _report(5, "offset shift and Gromov-Witten slices", ok, result.seconds,
            str(result.failures[:3]))


def test_criterion_6_dual_pieri():
    result = suite_dual_pieri(max_n=5, max_len=6)
    _report(6, "dual Pieri identity", result.passed, result.seconds,
            str(result.failures[:3]))


def test_criterion_7_nilcoxeter():
    result = suite_nilcoxeter(types=((1, 3), (2, 4), (2, 5), (3, 6)),
                              commute_max_n=5, kschur_max_len=6,
                              kschur_n=(3, 4), symmetry_len=7)
    ok = result.passed and result.seconds < 600
    _report(7, "nilCoxeter battery", ok, result.seconds,
            str(result.failures[:3]))


def test_criterion_8_grassmannianize_bounds():
    result = suite_grassmannianize_bounds(max_n=5, max_len=6,
                                          types=((2, 4), (2, 5), (3, 6)),
                                          max_cells=8)
    _report(8, "grassmannianization bounds", result.passed, result.seconds,
            str(result.failures[:3]))


def test_criterion_9_phi_bijection():
    result = suite_phi(types=((2, 4), (2, 5), (3, 6)), max_cells=9,
                       skew_cells=7, skew_nvars=4)
    _report(9, "shape bijection and function equality", result.passed,
            result.seconds, str(result.failures[:3]))
