"""Symmetric polynomial arithmetic, Schur polynomials, the LR oracle."""

import pytest

from cylkit.errors import GradingError, InvalidInputError
from cylkit.partitions import partitions_in_box, partitions_of
from cylkit.symfunc import (
    SymmetricPolynomial,
    expand_in_schur,
    lr_coeff,
    schur_poly,
    skew_schur_poly,
)

from oracles import lr_coefficient_lattice, poly_mul_monomial_tables


class TestArithmetic:
    def test_add_zero(self):
        p = schur_poly((2, 1), 3)
        assert p + SymmetricPolynomial.zero(3, 3) == p

    def test_sub_self(self):
        p = schur_poly((2, 1), 3)
        assert (p - p).is_zero()

    def test_scale(self):
        p = SymmetricPolynomial(2, 1, {(1,): 1})
        assert (2 * p).coeffs == {(1,): 2}

    def test_grading_mismatch(self):
        with pytest.raises(GradingError):
            SymmetricPolynomial.zero(2, 1) + SymmetricPolynomial.zero(2, 2)
        with pytest.raises(GradingError):
            SymmetricPolynomial.zero(2, 1) + SymmetricPolynomial.zero(3, 1)

    def test_bad_key_grading(self):
        with pytest.raises(GradingError):
            SymmetricPolynomial(3, 2, {(1,): 1})


class TestSchur:
    def test_single_box(self):
        assert schur_poly((1,), 3).coeffs == {(1,): 1}

    def test_21_in_two_variables(self):
        # two SSYT: 11/2 and 12/2, weights (2,1) and (1,2)
        assert schur_poly((2, 1), 2).coeffs == {(2, 1): 1}

    def test_21_in_three_variables(self):
        # m_{(2,1)} + 2 m_{(1,1,1)}
        assert schur_poly((2, 1), 3).coeffs == {(2, 1): 1, (1, 1, 1): 2}

    def test_too_many_rows(self):
        assert schur_poly((1, 1, 1), 2).is_zero()

    def test_row_is_complete_homogeneous(self):
        assert schur_poly((2,), 2).coeffs == {(2,): 1, (1, 1): 1}

    def test_column_is_elementary(self):
        assert schur_poly((1, 1), 2).coeffs == {(1, 1): 1}

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_pieri_rule(self, degree):
        # s_lam * s_(1) = sum over addable-box partitions, N >= |lam| + 1
        from cylkit.partitions import check_partition

        for lam in partitions_of(degree):
            nvars = degree + 1
            prod = poly_mul_monomial_tables(
                nvars, schur_poly(lam, nvars).coeffs,
                schur_poly((1,), nvars).coeffs)
            total = SymmetricPolynomial.zero(nvars, degree + 1)
            for i in range(len(lam) + 1):
                grown = list(lam) + [0]
                grown[i] += 1
                grown = tuple(v for v in grown if v)
                try:
                    check_partition(grown)
                except InvalidInputError:
                    continue
                total = total + schur_poly(grown, nvars)
            assert SymmetricPolynomial(nvars, degree + 1, prod) == total, lam


class TestSkewSchur:
    def test_skew_by_empty(self):
        for lam in [(2,), (2, 1), (3, 2)]:
            assert skew_schur_poly(lam, (), 4) == schur_poly(lam, 4)

    def test_skew_by_self(self):
        assert skew_schur_poly((2, 1), (2, 1), 3) == SymmetricPolynomial.one(3)

    def test_not_contained(self):
        with pytest.raises(InvalidInputError):
            skew_schur_poly((1,), (2,), 3)

    def test_full_first_row_cancels(self):
        # s_{(3,3,2,1)/(3)} = s_{(3,2,1)}
        assert skew_schur_poly((3, 3, 2, 1), (3,), 4) == schur_poly((3, 2, 1), 4)

    def test_positivity_of_expansions(self):
        # every skew expansion is non-negative, shapes up to seven cells
        from cylkit.partitions import contains

        for total in range(1, 8):
            for lam in partitions_of(total):
                for inner_size in range(total):
                    for mu in partitions_of(inner_size):
                        if not contains(lam, mu):
                            continue
                        nvars = max(1, total - inner_size)
                        table = expand_in_schur(skew_schur_poly(lam, mu, nvars))
                        assert all(c > 0 for c in table.values()), (lam, mu)


class TestExpandInSchur:
    def test_schur_resolves_to_itself(self):
        assert expand_in_schur(schur_poly((2, 1), 3)) == {(2, 1): 1}

    def test_elementary(self):
        p = SymmetricPolynomial(2, 2, {(1, 1): 1})
        assert expand_in_schur(p) == {(1, 1): 1}

    def test_round_trip_random_tables(self):
        # arbitrary integer combinations resolve back exactly
        for degree in range(1, 7):
            lams = list(partitions_of(degree, max_len=degree))
            table = {lam: ((-1) ** i) * (i + 1) for i, lam in enumerate(lams)}
            nvars = degree
            combo = SymmetricPolynomial.zero(nvars, degree)
            for lam, c in table.items():
                combo = combo + c * schur_poly(lam, nvars)
            recovered = expand_in_schur(combo)
            expected = {lam: c for lam, c in table.items()
                        if not schur_poly(lam, nvars).is_zero()}
            assert recovered == expected

    def test_worked_combination(self):
        # s_{(3,3,2)/(1,1)} + s_{(3,3,2)/(2)} - s_{(3,2,1)}
        p = (skew_schur_poly((3, 3, 2), (1, 1), 6)
             + skew_schur_poly((3, 3, 2), (2,), 6)
             - schur_poly((3, 2, 1), 6))
        assert expand_in_schur(p) == {(2, 2, 2): 1, (3, 3): 1, (3, 2, 1): 1}


class TestLittlewoodRichardson:
    def test_trivial(self):
        assert lr_coeff((1,), (), (1,)) == 1

    def test_size_mismatch(self):
        assert lr_coeff((2, 2), (2, 1), (2,)) == 0

    def test_hand_example(self):
        assert lr_coeff((2, 1), (1,), (1, 1)) == 1
        assert lr_coeff((2, 1), (1,), (2,)) == 1

    def test_against_lattice_words(self):
        for lam in partitions_in_box(3, 3):
            if sum(lam) < 2 or sum(lam) > 6:
                continue
            for mu in partitions_in_box(3, 3):
                if sum(mu) >= sum(lam):
                    continue
                for nu in partitions_of(sum(lam) - sum(mu)):
                    assert lr_coeff(lam, mu, nu) == lr_coefficient_lattice(lam, mu, nu), (
                        lam, mu, nu)
