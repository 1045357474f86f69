"""The affine nilCoxeter algebra and its identity battery."""

import pytest

from cylkit.affine import AffinePermutation, CyclicSet, proper_subsets
from cylkit.cylindric import CylType, ribbon_r
from cylkit.errors import GradingError, InvalidInputError
from cylkit.nilcoxeter import (
    NilCoxeterElement,
    ee,
    hh,
    kschur_product_coefficient_checks,
    nc_kschur,
    quotient_project,
    symmetry_counterexamples,
    verify_identities,
)


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


def A(n, *letters):
    return NilCoxeterElement.basis(W(n, *letters))


class TestProduct:
    def test_nil_relation(self):
        assert (A(4, 0) * A(4, 0)).is_zero()

    def test_lengths_add(self):
        assert A(3, 1) * A(3, 0) == A(3, 1, 0)

    def test_period_mismatch(self):
        with pytest.raises(InvalidInputError):
            A(3, 0) * A(4, 0)

    def test_h1_squared_n3(self):
        prod = hh(1, 3) * hh(1, 3)
        expected = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected[W(3, i, j)] = 1
        assert prod == NilCoxeterElement(3, expected)

    def test_grading_rejected_on_add(self):
        with pytest.raises(GradingError):
            A(3, 0) + A(3, 1, 0)

    def test_zero_compatible_with_all_grades(self):
        z = NilCoxeterElement.zero(3)
        assert A(3, 0) + z == A(3, 0)
        assert (A(3, 1, 0) + z).grade == 2


class TestGenerators:
    def test_h0_unit(self):
        assert hh(0, 4) == NilCoxeterElement.unit(4)

    def test_h_negative_is_zero(self):
        assert hh(-1, 4).is_zero()

    def test_h1_n4(self):
        assert hh(1, 4) == NilCoxeterElement(
            4, {W(4, i): 1 for i in range(4)})

    def test_e2_n4(self):
        e2 = ee(2, 4)
        assert len(e2.terms) == 6
        for members in proper_subsets(4, 2):
            u = CyclicSet(4, members, False).element()
            assert e2.coeff(u) == 1

    def test_index_too_large(self):
        with pytest.raises(InvalidInputError):
            hh(4, 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hh_commute(self, n):
        for i in range(n):
            for j in range(i, n):
                assert hh(i, n) * hh(j, n) == hh(j, n) * hh(i, n)


class TestQuotient:
    def test_braid_killed(self):
        assert quotient_project(A(6, 0, 1, 0), CylType(3, 6)).is_zero()

    def test_long_decreasing_killed(self):
        d = CyclicSet(4, frozenset({0, 1, 2}), True).element()
        assert quotient_project(NilCoxeterElement.basis(d), CylType(2, 4)).is_zero()

    def test_relations_exhaustively(self):
        # squares, braids, oversized strips vanish for short words
        for n in (3, 4):
            ctype = CylType(n - 2 if n > 3 else 1, n)
            m = ctype.m
            for size in range(1, n):
                for members in proper_subsets(n, size):
                    d = CyclicSet(n, members, True).element()
                    u = CyclicSet(n, members, False).element()
                    if size > n - m:
                        assert quotient_project(
                            NilCoxeterElement.basis(d), ctype).is_zero()
                    if size > m:
                        assert quotient_project(
                            NilCoxeterElement.basis(u), ctype).is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_generator_words_vanish_iff_expected(self, n):
        """Products of generators over words up to length n+1: the projected
        product is A_w exactly when the word is reduced and w stays in the
        basis, and zero otherwise.  Exhaustive where cheap, seeded samples
        for the longest words at n = 6."""
        import itertools
        import random

        from cylkit.cylindric import in_A

        def words():
            exhaustive_len = n + 1 if n <= 5 else 5
            for length in range(exhaustive_len + 1):
                yield from itertools.product(range(n), repeat=length)
            if n == 6:
                rng = random.Random(n)
                for length in (6, 7):
                    for _ in range(1500):
                        yield tuple(rng.randrange(n) for _ in range(length))

        types = [CylType(m, n) for m in range(1, n)]
        for word in words():
            prod = NilCoxeterElement.unit(n)
            for i in word:
                prod = prod * NilCoxeterElement.basis(
                    AffinePermutation.simple(n, i))
            w = AffinePermutation.from_word(n, word)
            reduced = w.length == len(word)
            assert prod.is_zero() == (not reduced)
            for ctype in types:
                projected = quotient_project(prod, ctype)
                expected_zero = not reduced or not in_A(w, ctype)
                assert projected.is_zero() == expected_zero, (ctype.m, word)


class TestKSchur:
    def test_row_gives_h(self):
        # the element of a single-row partition has dual element h_i
        for n in (3, 4):
            for i in range(1, n):
                u = W(n, *range(i - 1, -1, -1))
                assert nc_kschur(u) == hh(i, n)

    def test_identity_gives_unit(self):
        assert nc_kschur(AffinePermutation.identity(3)) == NilCoxeterElement.unit(3)

    def test_unique_grassmannian_term(self):
        from cylkit.affine import grassmannians_of_length

        for n in (3, 4):
            for ell in range(1, 5):
                for u in grassmannians_of_length(n, ell):
                    elem = nc_kschur(u)
                    grass = [w for w in elem.terms if w.is_grassmannian(0)]
                    assert grass == [u]
                    assert elem.coeff(u) == 1

    def test_not_grassmannian_rejected(self):
        with pytest.raises(InvalidInputError):
            nc_kschur(W(3, 1))


class TestRibbonTheorem:
    @pytest.mark.parametrize("ctype", [CylType(1, 3), CylType(2, 4)])
    def test_support_and_coefficients(self, ctype):
        m, n = ctype.m, ctype.n
        projected = quotient_project(nc_kschur(ribbon_r(ctype), cap=n), ctype)
        assert all(c == 1 for c in projected.terms.values())
        expected = set()
        for members in proper_subsets(n, n - m):
            w = (CyclicSet(n, frozenset(range(n)) - members, False).element()
                 * CyclicSet(n, members, True).element())
            assert w.length == n
            expected.add(w)
        assert set(projected.terms) == expected


class TestIdentityBattery:
    def test_verify_identities_24(self):
        checks = verify_identities(CylType(2, 4), max_len=5)
        failures = [c for c in checks if not c.passed]
        assert not failures, failures

    def test_symmetry_small(self):
        assert symmetry_counterexamples(3, 5) == []

    def test_kschur_product_coefficients(self):
        assert kschur_product_coefficient_checks(3, 4) == []
        assert kschur_product_coefficient_checks(4, 4) == []
