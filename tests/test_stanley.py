"""Stanley functions, Grassmannianization, the expansion and its oracle."""

import itertools
import random

import pytest

from cylkit.affine import (
    AffinePermutation,
    elements_by_length,
    grassmannian_from_kbounded,
    letter_multiplicities,
    rotate,
)
from cylkit.cylindric import CylType, cell_count, cylindric_schur_poly, in_A, shape_new
from cylkit.errors import CapExceededError, InvalidInputError
from cylkit.partitions import partitions_in_box, schedule_less
from cylkit.stanley import (
    dual_pieri_branches,
    expand_affine_schur,
    expand_cylindric,
    grassmannianize,
    grassmannianize_321,
    gromov_witten,
    oracle_expand,
    stanley_monomials,
    toric_gw_oracle,
)
from cylkit.symfunc import SymmetricPolynomial, lr_coeff

from oracles import stanley_coefficient_brute

T36 = CylType(3, 6)
T24 = CylType(2, 4)


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


class TestStanleyMonomials:
    def test_single_generator(self):
        assert stanley_monomials(W(3, 0), 3).coeffs == {(1,): 1}

    def test_s1s0_two_variables(self):
        assert stanley_monomials(W(3, 1, 0), 2).coeffs == {(2,): 1, (1, 1): 1}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            stanley_monomials(W(3, 0, 1, 0), 3, cap=2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_brute_force(self, n):
        for w in elements_by_length(n, 3)[3]:
            poly = stanley_monomials(w, 3)
            for alpha in itertools.product(range(4), repeat=3):
                if sum(alpha) != 3:
                    continue
                expected = stanley_coefficient_brute(w, alpha)
                key = tuple(sorted((a for a in alpha if a), reverse=True))
                assert poly.coeff(key) == expected, (w, alpha)

    def test_rotation_invariance(self):
        for w in elements_by_length(4, 4)[4]:
            p = stanley_monomials(w, 4)
            for t in range(1, 4):
                assert stanley_monomials(rotate(w, t), 4) == p

    def test_example2_rotation(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert rotate(w, 2) == W(6, 1, 5, 3, 0, 4, 2)
        assert stanley_monomials(rotate(w, 2), 6) == stanley_monomials(w, 6)

    def test_example2_equals_cylindric_poly(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        shape = shape_new(T36, (2, 1), 1, (2, 1))
        assert stanley_monomials(w, 6) == cylindric_schur_poly(shape, 6)


class TestGrassmannianize:
    def test_already_grassmannian(self):
        for lam in [(2,), (2, 1), (3, 1)]:
            w = grassmannian_from_kbounded(5, lam)
            v, p = grassmannianize(w)
            assert v.is_identity() and p == 0

    def test_single_generator(self):
        v, p = grassmannianize(W(3, 2))
        assert v.length <= 1 and (W(3, 2) * v).is_grassmannian(p)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_postconditions_exhaustive(self, n):
        k = n - 1
        bound = sum(i * (k - i) for i in range(1, k))
        for level in elements_by_length(n, 5):
            for w in level:
                v, p = grassmannianize(w)
                wv = w * v
                assert wv.length == w.length + v.length
                assert wv.is_grassmannian(p)
                assert v.length <= bound


class TestGrassmannianize321:
    def test_worked_instance(self):
        v, p = grassmannianize_321(W(6, 5, 3, 1, 4, 2, 0), T36)
        assert v == W(6, 5, 1, 0)
        assert p == 0
        assert v.length == 3 == (6 - 3) * (3 - 1) // 2

    def test_second_worked_instance(self):
        v, p = grassmannianize_321(W(6, 3, 4, 1, 0, 5, 2), T36)
        assert v == W(6, 1, 0) and p == 0
        assert (W(6, 3, 4, 1, 0, 5, 2) * v).is_grassmannian(p)

    def test_already_in_basis(self):
        w = grassmannian_from_kbounded(6, (2, 1))
        v, p = grassmannianize_321(w, T36)
        assert v.is_identity() and p == 0

    def test_precondition(self):
        with pytest.raises(InvalidInputError):
            grassmannianize_321(W(6, 0, 1, 0), T36)

    def test_missing_letter_rejected(self):
        w = W(6, 1, 0, 2)
        assert not any(w.is_grassmannian(p) for p in range(6))
        with pytest.raises(InvalidInputError):
            grassmannianize_321(w, T36)

    @pytest.mark.parametrize("ctype", [T24, CylType(2, 5), T36])
    def test_bound_on_skew_words(self, ctype):
        from cylkit.cylindric import skew_word

        m, n = ctype.m, ctype.n
        bound = (n - m) * (m - 1) // 2
        box = partitions_in_box(m, n - m)
        for lam, mu in itertools.product(box, box):
            try:
                shape = shape_new(ctype, lam, 1, mu)
            except Exception:
                continue
            if cell_count(shape) > 8:
                continue
            w = skew_word(shape)
            if any(c == 0 for c in letter_multiplicities(w).values()):
                continue
            if w.is_grassmannian(0):
                continue
            v, p = grassmannianize_321(w, ctype)
            assert v.length <= bound
            assert (w * v).is_grassmannian(p)
            assert in_A(v, ctype)
            assert rotate(v, -p).is_grassmannian(0)


class TestPartitionLess:
    def test_size(self):
        assert schedule_less((), (1,))

    def test_lex_larger_first(self):
        assert schedule_less((2,), (1, 1))

    def test_irreflexive(self):
        assert not schedule_less((2, 1), (2, 1))

    def test_total_on_fixed_size(self):
        from cylkit.partitions import partitions_of

        for size in range(1, 7):
            lams = list(partitions_of(size))
            for a, b in itertools.combinations(lams, 2):
                assert schedule_less(a, b) != schedule_less(b, a)


class TestDualPieriBranches:
    def test_example2_first_step(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        b_plus, b_minus = dual_pieri_branches(w, 1, 2)
        assert {x.window for x in b_plus} == {
            W(6, 5, 4, 1, 0, 5, 2).window,
            W(6, 3, 4, 1, 0, 5, 2).window,
            W(6, 3, 5, 4, 0, 5, 2).window}
        assert {y.window for _, y in b_minus} == {W(6, 3, 5, 4, 1, 0, 5).window}

    def test_example2_second_step(self):
        b_plus, b_minus = dual_pieri_branches(W(6, 3, 4, 1, 0, 5, 2), 2, 1)
        assert {x.window for x in b_plus} == {
            W(6, 3, 4, 5, 2, 1, 0).window, W(6, 4, 0, 5, 2, 1, 0).window}
        assert b_minus == []

    def test_branch_identity_on_monomials(self):
        # F_w = sum B+ F_u - sum B- F_u as polynomials
        w = W(6, 5, 3, 1, 4, 2, 0)
        b_plus, b_minus = dual_pieri_branches(w, 1, 2)
        nvars = w.length
        total = SymmetricPolynomial.zero(nvars, nvars)
        for u in b_plus:
            total = total + stanley_monomials(u, nvars)
        for _, u in b_minus:
            total = total - stanley_monomials(u, nvars)
        assert total == stanley_monomials(w, nvars)

    def test_non_additive_tail_rejected(self):
        # peeling block {0} from s_0 * ... where s_0 is a right descent
        with pytest.raises(InvalidInputError):
            dual_pieri_branches(W(4, 1, 0), 1, 1)


class TestExpansion:
    def test_example2_golden(self):
        exp = expand_affine_schur(W(6, 5, 3, 1, 4, 2, 0), ctype=T36)
        assert exp.coeffs == {
            W(6, 3, 4, 5, 2, 1, 0): 1,
            W(6, 4, 0, 5, 2, 1, 0): 2,
            W(6, 5, 4, 0, 5, 1, 0): 1,
            W(6, 1, 0, 5, 2, 1, 0): 1}

    def test_grassmannian_is_fixed_point(self):
        w = grassmannian_from_kbounded(4, (3, 2))
        assert expand_affine_schur(w).coeffs == {w: 1}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            expand_affine_schur(W(3, 1, 0), cap=1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_oracle_small(self, n):
        for level in elements_by_length(n, 4):
            for w in level:
                assert expand_affine_schur(w) == oracle_expand(w)

    def test_matches_oracle_sampled_n5(self):
        rng = random.Random(7)
        levels = elements_by_length(5, 5)
        pool = [w for level in levels[2:] for w in level]
        for w in rng.sample(pool, 25):
            assert expand_affine_schur(w) == oracle_expand(w)

    def test_positivity_and_support(self):
        for w in elements_by_length(4, 5)[5]:
            exp = expand_affine_schur(w)
            assert all(c > 0 for c in exp.coeffs.values())
            for m in (1, 2, 3):
                ctype = CylType(m, 4)
                if in_A(w, ctype):
                    exp2 = expand_affine_schur(w, ctype=ctype)
                    assert all(u.is_grassmannian(0) and in_A(u, ctype)
                               for u in exp2.coeffs)

    def test_rotation_gives_same_expansion(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert expand_affine_schur(rotate(w, 3)) == expand_affine_schur(w)


class TestOracle:
    def test_grassmannian(self):
        w = grassmannian_from_kbounded(3, (2, 1))
        assert oracle_expand(w).coeffs == {w: 1}

    def test_nonnegative_outputs(self):
        w = W(3, 1, 0, 2, 1)
        table = oracle_expand(w).coeffs
        assert table and all(c > 0 for c in table.values())

    def test_cap(self):
        with pytest.raises(CapExceededError):
            oracle_expand(W(3, 0, 1, 2, 0, 1, 2), cap=3)


class TestExpandCylindric:
    def test_example2_table(self):
        table = expand_cylindric(shape_new(T36, (2, 1), 1, (2, 1)))
        assert table.coeffs == {
            ((2, 2, 2), 0): 1, ((3, 3), 0): 1, ((3, 2, 1), 0): 2, ((), 1): 1}

    def test_schur_shape_input(self):
        s = shape_new(T36, (2, 1), 1, ())
        assert expand_cylindric(s).coeffs == {((2, 1), 1): 1}

    def test_classical_case_is_lr(self):
        for lam in partitions_in_box(2, 2):
            for mu in partitions_in_box(2, 2):
                try:
                    s = shape_new(T24, lam, 0, mu)
                except Exception:
                    continue
                table = expand_cylindric(s)
                assert all(e == 0 for (_, e) in table.coeffs)
                for (nu, _), c in table.coeffs.items():
                    assert c == lr_coeff(lam, mu, nu)

    def test_shift_property_example(self):
        ctype = T24
        hi = expand_cylindric(shape_new(ctype, (2, 1), 2, (1,)))
        lo = expand_cylindric(shape_new(ctype, (2, 1), 1, (1,)))
        for (nu, e), c in hi.coeffs.items():
            if e >= 1:
                assert lo.coeffs.get((nu, e - 1), 0) == c


class TestGromovWitten:
    def test_degree_zero_is_lr(self):
        assert gromov_witten(T36, (2, 1), 0, (1,), (1, 1)) == \
            lr_coeff((2, 1), (1,), (1, 1)) == 1

    def test_degree_mismatch(self):
        assert gromov_witten(T36, (2, 1), 0, (1,), (1,)) == 0

    def test_toric_oracle_24(self):
        ctype = T24
        table = toric_gw_oracle(ctype, (1,), 1, (2, 2))
        value = gromov_witten(ctype, (1,), 1, (2, 2), (1,))
        assert table.get((1,), 0) == value

    def test_toric_oracle_full_agreement(self):
        shape = shape_new(T36, (2, 1), 1, (2, 1))
        table = toric_gw_oracle(T36, (2, 1), 1, (2, 1))
        for nu in partitions_in_box(3, 3):
            assert table.get(nu, 0) == gromov_witten(T36, (2, 1), 1, (2, 1), nu)

    def test_nontoric_oracle_rejected(self):
        with pytest.raises(InvalidInputError):
            toric_gw_oracle(T36, (2, 1), 1, ())

    def test_toric_oracle_empty_shape(self):
        assert toric_gw_oracle(T36, (), 0, ()) == {(): 1}


class TestQuantumPieri:
    """Multiplication by the single-box class in the small quantum ring.

    The degree-1 part of sigma_1 * sigma_nu is a single term: it appears
    exactly when nu fills the first row and every row is nonempty, and then
    the target is nu with its first row removed and every other row shrunk
    by one.  Together with the classical addable-box terms at degree 0 this
    pins every coefficient C^{lam,d}_{(1),nu} for d <= 2.
    """

    @staticmethod
    def _coeff(ctype, lam, d, mu, nu):
        from cylkit.errors import ShapeError

        try:
            return gromov_witten(ctype, lam, d, mu, nu)
        except ShapeError:
            return 0  # the shape does not exist, so neither does the term

    @pytest.mark.parametrize("mn", [(2, 4), (2, 5), (3, 6)])
    def test_single_box_products(self, mn):
        m, n = mn
        ctype = CylType(m, n)
        box = partitions_in_box(m, n - m)
        for nu in box:
            padded = tuple(nu) + (0,) * (m - len(nu))
            quantum_target = None
            if nu and nu[0] == n - m and len(nu) == m:
                quantum_target = tuple(v - 1 for v in padded[1:] if v - 1 > 0)
            for lam in box:
                lam_pad = tuple(lam) + (0,) * (m + 1 - len(lam))
                diff = [b - a for a, b in zip(padded + (0,), lam_pad)]
                classical = int(all(x >= 0 for x in diff) and sum(diff) == 1)
                assert self._coeff(ctype, lam, 0, (1,), nu) == classical, \
                    (lam, nu)
                expected_q = int(quantum_target == lam)
                assert self._coeff(ctype, lam, 1, (1,), nu) == expected_q, \
                    (lam, nu)
                assert self._coeff(ctype, lam, 2, (1,), nu) == 0


class TestDualPieriTheorem:
    @pytest.mark.parametrize("n", [3, 4])
    def test_left_right_sums_agree(self, n):
        # both factorization sums give the same polynomial
        from cylkit.affine import CyclicSet, proper_subsets

        for w in elements_by_length(n, 4)[4]:
            nvars = max(1, w.length)
            for q in range(1, n):
                left = SymmetricPolynomial.zero(nvars, w.length - q)
                right = SymmetricPolynomial.zero(nvars, w.length - q)
                hits = 0
                for members in proper_subsets(n, q):
                    u_j = CyclicSet(n, members, False).element()
                    v = u_j * w
                    if v.length == w.length - q:
                        left = left + stanley_monomials(v, nvars)
                        hits += 1
                    v = w * u_j
                    if v.length == w.length - q:
                        right = right + stanley_monomials(v, nvars)
                        hits += 1
                if hits:
                    assert left == right, (w, q)
