"""Stanley functions, Grassmannianization, the expansion and its oracle."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylkit import stanley
from cylkit.affine import (
    AffinePermutation,
    cyclic_element,
    cyclic_runs,
    elements_by_length,
    grassmannian_from_kbounded,
    interval_set,
    inverse_window,
    letter_multiplicities,
    proper_subsets,
    rotate,
    rotation_key,
    shape_of,
)
from cylkit.cylindric import (
    DEFAULT_TABLEAU_CAP,
    CylType,
    cell_count,
    cylindric_schur_poly,
    in_A,
    phi,
    shape_new,
    skew_word,
)
from cylkit.errors import (
    CapExceededError,
    InvalidInputError,
    PositivityError,
    SolveError,
)
from cylkit.memo import clear_caches
from cylkit.partitions import partitions_in_box, partitions_of, schedule_less
from cylkit.stanley import (
    DEFAULT_ORACLE_CAP,
    DEFAULT_STANLEY_CAP,
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
from cylkit.symfunc import SymmetricPolynomial, lr_coeff, resolve
from cylkit.verify import SHAPE_TYPES, valid_shapes

from oracles import (
    code_unfolded,
    dominance_le,
    dual_pieri_branches_exhaustive,
    expand_state_by_tail,
    grassmannianize_by_elements,
    oracle_expand_per_element,
    solve_exact_integer,
    stanley_coefficient_brute,
    stanley_monomials_by_products,
)

T36 = CylType(3, 6)
T24 = CylType(2, 4)


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


def random_element(n, length, seed):
    """Start at the identity and apply ``s_i`` for ``i`` drawn by
    ``random.Random(seed)``, keeping only ascents, until ``length``."""
    rng = random.Random(seed)
    w = AffinePermutation.identity(n)
    while w.length < length:
        v = w.times_s(rng.randrange(n))
        if v.length > w.length:
            w = v
    return w


# (n, word) -> (monomial table in len(w) variables, affine Schur expansion
# keyed by shape), by hand: s_1 s_0 s_3 at n = 5 is m_3 + 2 m_21 + 3 m_111,
# which is s_3 + s_21.
PINNED_TABLES = {
    (4, (1, 0, 2)): ({(2, 1): 1, (1, 1, 1): 2}, {(2, 1): 1}),
    (4, (2, 1, 0, 3)): ({(3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1},
                        {(3, 1): 1}),
    (5, (1, 0, 3)): ({(3,): 1, (2, 1): 2, (1, 1, 1): 3}, {(3,): 1, (2, 1): 1}),
    (5, (3, 1, 0, 4, 2)): ({(3, 2): 1, (3, 1, 1): 2, (2, 2, 1): 3,
                            (2, 1, 1, 1): 5, (1, 1, 1, 1, 1): 8},
                           {(3, 2): 1, (3, 1, 1): 1}),
}


def pinned_tables_hold():
    """True iff ``stanley_monomials`` and ``oracle_expand`` give
    :data:`PINNED_TABLES`."""
    for (n, word), (monomials, expansion) in PINNED_TABLES.items():
        w = W(n, *word)
        if stanley_monomials(w, w.length).coeffs != monomials:
            return False
        got = {shape_of(u): c for u, c in oracle_expand(w).coeffs.items()}
        if got != expansion:
            return False
    return True


class TestStanleyMonomials:
    def test_single_generator(self):
        assert stanley_monomials(W(3, 0), 3).coeffs == {(1,): 1}

    def test_s1s0_two_variables(self):
        assert stanley_monomials(W(3, 1, 0), 2).coeffs == {(2,): 1, (1, 1): 1}

    def test_cap(self):
        w = W(3, *[0, 1, 2] * 5)
        assert w.length == DEFAULT_STANLEY_CAP + 1 == 15
        with pytest.raises(CapExceededError):
            stanley_monomials(w, 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_brute_force(self, n):
        for w in elements_by_length(n, 3)[3]:
            poly = stanley_monomials(w, 3)
            for alpha in itertools.product(range(4), repeat=3):
                if sum(alpha) != 3:
                    continue
                expected = stanley_coefficient_brute(w, alpha)
                key = tuple(sorted((a for a in alpha if a), reverse=True))
                assert poly.coeffs.get(key, 0) == expected, (w, alpha)

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

    def test_pinned_tables(self):
        assert pinned_tables_hold()

    def test_matches_subset_scan(self):
        # the letter-by-letter peel against the product-and-length scan it
        # replaced, in 1, 2 and len(w) variables on every element
        cases = 0
        for n, maxlen in [(2, 8), (3, 7), (4, 6), (5, 5), (6, 4)]:
            memo: dict = {}
            for level in elements_by_length(n, maxlen):
                for w in level:
                    for k in sorted({1, 2, w.length}):
                        assert (stanley_monomials(w, k)
                                == stanley_monomials_by_products(w, k, memo)), (w, k)
                        cases += 1
        assert cases == 2200


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

    @staticmethod
    def _seed_rule(w):
        """The oracle's sweep from every maximum of the code, each run's
        tracked part count checked against its tail, and the run with the
        least ``(tail parts, len(v), seed)``; and the number of seeds."""
        n = w.n
        if any(w.is_grassmannian(p) for p in range(n)):
            return grassmannianize_by_elements(w), 0
        code = [code_unfolded(w, i) for i in range(1, n + 1)]
        seeds = [q for q in range(n) if code[q] == max(code)]
        runs = []
        for q in seeds:
            v, p = grassmannianize_by_elements(w, q)
            parts = len(shape_of(rotate(v, -p)))
            letters, tracked, p2 = stanley._sweep(n, list(code), q)
            assert (tracked, p2) == (parts, p), (w, q)
            assert AffinePermutation.from_word(n, letters) == v, (w, q)
            runs.append(((parts, v.length, q), (v, p)))
        return min(runs)[1], len(seeds)

    def test_matches_sweep_on_elements(self):
        # every element of the cyclic-factor grid, n <= 7: 1,340 elements,
        # and every maximum of each code as a seed
        cases = seeds = 0
        for n, maxlen in [(2, 8), (3, 7), (4, 6), (5, 5), (6, 5), (7, 4)]:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    expected, tried = self._seed_rule(w)
                    assert grassmannianize(w) == expected, w
                    cases += 1
                    seeds += tried
        assert (cases, seeds) == (1340, 1257)

    @settings(max_examples=100)
    @given(st.integers(2, 32).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=12))))
    def test_matches_sweep_on_random_words(self, case):
        n, word = case
        w = AffinePermutation.from_word(n, word)
        assert grassmannianize(w) == self._seed_rule(w)[0]


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
        for size in range(1, 7):
            lams = list(partitions_of(size))
            for a, b in itertools.combinations(lams, 2):
                assert schedule_less(a, b) != schedule_less(b, a)


class TestDualPieriBranches:
    def test_example2_first_step(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        b_plus, b_minus = dual_pieri_branches(6, w.window, w.length, 1, 2)
        assert set(b_plus) == {
            W(6, 5, 4, 1, 0, 5, 2).window,
            W(6, 3, 4, 1, 0, 5, 2).window,
            W(6, 3, 5, 4, 0, 5, 2).window}
        assert {y for _, y in b_minus} == {W(6, 3, 5, 4, 1, 0, 5).window}

    def test_example2_second_step(self):
        w = W(6, 3, 4, 1, 0, 5, 2)
        b_plus, b_minus = dual_pieri_branches(6, w.window, w.length, 2, 1)
        assert set(b_plus) == {
            W(6, 3, 4, 5, 2, 1, 0).window, W(6, 4, 0, 5, 2, 1, 0).window}
        assert b_minus == []

    def test_branch_identity_on_monomials(self):
        # F_w = sum B+ F_u - sum B- F_u as polynomials
        w = W(6, 5, 3, 1, 4, 2, 0)
        b_plus, b_minus = dual_pieri_branches(6, w.window, w.length, 1, 2)
        nvars = w.length
        total = SymmetricPolynomial.zero(nvars, nvars)
        for x in b_plus:
            total = total + stanley_monomials(AffinePermutation(6, x), nvars)
        for _, y in b_minus:
            total = total - stanley_monomials(AffinePermutation(6, y), nvars)
        assert total == stanley_monomials(w, nvars)

    def test_head_elements_match_canonical_product(self):
        # the memoized build, one product on the head one part shorter,
        # against the full product d_{J_p} ... d_{J_1}, J_j = [-j+1, lam_j - j]
        clear_caches()
        cases = 0
        for n in range(2, 9):
            for size in range(11):
                for lam in partitions_of(size, max_part=n - 1):
                    full = AffinePermutation.identity(n)
                    for j in range(len(lam), 0, -1):
                        full = full * cyclic_element(
                            n, interval_set(n, -j + 1, lam[j - 1] - j), True)
                    assert grassmannian_from_kbounded(n, lam) == full, (n, lam)
                    cases += 1
        assert cases == 578

    def test_head_inverse_by_swap_runs(self):
        # the head's inverse window, one run of swaps per part on the
        # identity, against the inverse of the memoized canonical product:
        # every lam with parts <= n - 1 and |lam| <= 10, n = 2..8
        cases = 0
        for n in range(2, 9):
            for size in range(11):
                for lam in partitions_of(size, max_part=n - 1):
                    assert (stanley._head_inverse(n, lam) == inverse_window(
                        n, grassmannian_from_kbounded(n, lam).window)), (n, lam)
                    cases += 1
        assert cases == 578

    def test_non_additive_tail_rejected(self):
        # peeling block {0} from s_0 * ... where s_0 is a right descent
        with pytest.raises(InvalidInputError):
            w = W(4, 1, 0)
            dual_pieri_branches(4, w.window, w.length, 1, 1)

    def test_matches_exhaustive_scan(self):
        # every element with n <= 6 and every block (size, index mod n)
        accepted = 0
        for n, maxlen in [(2, 8), (3, 7), (4, 6), (5, 5), (6, 5)]:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    for size in range(1, n):
                        for index in range(1, n + 1):
                            expected = dual_pieri_branches_exhaustive(w, size, index)
                            args = (n, w.window, w.length, size, index)
                            if expected is None:
                                with pytest.raises(InvalidInputError):
                                    dual_pieri_branches(*args)
                                continue
                            b_plus, b_minus = dual_pieri_branches(*args)
                            e_plus, e_minus = expected
                            assert len(b_plus) == len(e_plus) and len(b_minus) == len(e_minus)
                            # every branch has the length of w, which must
                            # equal the length the oracle computes from
                            # its window
                            assert ({(x, w.length) for x in b_plus}
                                    == {(x.window, x.length) for x in e_plus})
                            assert ({(tuple(sorted(runs)), y, w.length)
                                     for runs, y in b_minus}
                                    == {(tuple(cyclic_runs(n, J)), y.window, y.length)
                                        for J, y in e_minus})
                            accepted += 1
        assert accepted == 12367


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

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_far_commuting_word_matches_oracle(self, n):
        # cost must stay polynomial in n at fixed length
        h = n // 2
        w = W(n, 0, h, 1, h + 1)
        assert expand_affine_schur(w) == oracle_expand(w)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_matches_oracle_random_length_at_least_n(self, n, seed):
        # length 9, the oracle's cap
        w = random_element(n, 9, seed)
        assert expand_affine_schur(w) == oracle_expand(w)

    @pytest.mark.parametrize("n, length, seed", [
        (8, 14, 1), (8, 14, 2), (9, 13, 2), (9, 14, 1),
        (10, 10, 1), (10, 12, 1), (10, 14, 2), (10, 14, 3)])
    def test_matches_oracle_up_to_the_stanley_cap(self, n, length, seed):
        # n = 8..10 with n <= length <= 14, the Stanley cap: 19 to 43 terms
        # each, and together about 3.5 s from cold caches on 2 cores
        w = random_element(n, length, seed)
        assert expand_affine_schur(w) == oracle_expand(w, cap=DEFAULT_STANLEY_CAP)

    @staticmethod
    def _by_tail(w):
        v, p = grassmannianize(w)
        return expand_state_by_tail(rotate(w, -p), shape_of(rotate(v, -p)))

    def test_matches_tail_keyed_recursion(self):
        # the recursion memoized on (u, tail) with a memo per call, against
        # one memo keyed on rotation classes and kept warm across elements:
        # every element with n = 3..6 up to lengths 8, 7, 6, 6 (1,783), and
        # two elements of the n-ladder
        clear_caches()
        cases = 0
        for n, maxlen in ((3, 8), (4, 7), (5, 6), (6, 6)):
            for level in elements_by_length(n, maxlen):
                for w in level:
                    assert expand_affine_schur(w).coeffs == self._by_tail(w), w
                    cases += 1
        assert cases == 1783
        for n, length, seed in ((12, 10, 1), (16, 10, 2)):
            w = random_element(n, length, seed)
            assert expand_affine_schur(w).coeffs == self._by_tail(w), w

    def test_positivity_and_support(self):
        # the facts the expansion's tables are made with: every key
        # 0-Grassmannian, every coefficient positive, from both routes
        for n, maxlen in ((3, 6), (4, 6), (5, 5)):
            for level in elements_by_length(n, maxlen):
                for w in level:
                    for exp in (expand_affine_schur(w), oracle_expand(w)):
                        assert all(u.is_grassmannian(0) and c > 0
                                   for u, c in exp.coeffs.items()), w
        for w in elements_by_length(4, 5)[5]:
            for m in (1, 2, 3):
                ctype = CylType(m, 4)
                if in_A(w, ctype):
                    exp2 = expand_affine_schur(w, ctype=ctype)
                    assert all(u.is_grassmannian(0) and in_A(u, ctype)
                               for u in exp2.coeffs)

    def test_rotation_gives_same_expansion(self):
        # every rotation expanded from cold caches, so the orbit memo of
        # expand_affine_schur is never read: the per-window route it replaced
        w = W(6, 5, 3, 1, 4, 2, 0)
        clear_caches()
        turned = expand_affine_schur(rotate(w, 3))
        clear_caches()
        assert turned == expand_affine_schur(w)
        pairs = 0
        for n, maxlen in ((3, 6), (4, 6), (5, 5), (6, 5)):
            types = [CylType(m, n) for m in range(1, n)]
            for level in elements_by_length(n, maxlen):
                for w in level:
                    clear_caches()
                    expected = expand_affine_schur(w).coeffs
                    basis = [in_A(w, ctype) for ctype in types]
                    for t in range(1, n):
                        u = rotate(w, t)
                        clear_caches()
                        assert expand_affine_schur(u).coeffs == expected, (w, t)
                        assert [in_A(u, ctype) for ctype in types] == basis, (w, t)
                        pairs += 1
        assert pairs == 4027


class TestRotationMemo:
    """The recursion keeps one table per rotation class of its states, and
    answers every tail and every rotation of an expanded state from it."""

    @staticmethod
    def _state(x, tail):
        return stanley._expand_state(x.n, x.window, x.length, tail)

    @staticmethod
    def _control_reaches_the_branch_step():
        # Example 2 branches at its top state (two right descents), and no
        # state of period 6 is warm, so a patch of the branch step that the
        # recursion reaches raises here
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert len(w.right_descents()) > 1
        with pytest.raises(AssertionError, match="branched"):
            expand_affine_schur(w)

    @staticmethod
    def _refuse_expansion(mp):
        def refuse(*args):
            raise AssertionError("a rotation was expanded again")
        for name in ("_expand_state", "grassmannianize", "grassmannianize_321"):
            mp.setattr(stanley, name, refuse)

    def test_rotations_answer_from_the_memo(self, monkeypatch):
        # Example 2 (in the (3, 6) basis) and two whole levels; each element
        # is expanded in the first type whose basis holds it, if any, and
        # every rotation is then asked with no type and with each such type
        cases = ([W(6, 5, 3, 1, 4, 2, 0)] + elements_by_length(4, 5)[5]
                 + elements_by_length(5, 4)[4])
        held = 0
        for w in cases:
            n = w.n
            held_by = [ctype for ctype in (CylType(m, n) for m in range(1, n))
                       if in_A(w, ctype)]
            held += bool(held_by)
            clear_caches()
            expected = expand_affine_schur(w, ctype=(held_by or [None])[0]).coeffs
            with monkeypatch.context() as mp:
                self._refuse_expansion(mp)
                for t in range(n):
                    u = rotate(w, t)
                    assert expand_affine_schur(u).coeffs == expected
                    for ctype in held_by:
                        exp = expand_affine_schur(u, ctype=ctype)
                        assert exp.coeffs == expected
                        assert exp.shapes == {x: phi(x, ctype) for x in expected}
        assert in_A(cases[0], T36) and 1 < held < len(cases)

    @pytest.mark.parametrize("n, ell", [(4, 6), (5, 5), (6, 4)])
    def test_one_entry_per_rotation_class(self, n, ell):
        # a level is closed under rotation, which keeps length
        level = elements_by_length(n, ell)[ell]
        clear_caches()
        for w in level:
            expand_affine_schur(w)
        classes = {frozenset(rotate(w, t).window for t in range(n)) for w in level}
        keys = list(stanley._EXPAND_MEMO)
        # every key is the least window of its own element's class, and
        # every state has the length of its top, so each class of the level
        # is stored exactly once and nothing else is
        assert all(key == (n, rotation_key(n, key[1]))
                   for key in keys)
        assert all(sum(key[1] in c for key in keys) == 1 for c in classes)
        assert len(keys) == len(classes) < len(level)

    def test_warm_state_answers_every_tail_and_rotation(self, monkeypatch):
        # s_2 s_3 s_4 at n = 5 is reached with the tails (1,) and (2,) from
        # elements of length 5, and its rotation s_1 s_2 s_3 with (1, 1) and
        # (2, 1); each pair is a state: u * g(tail) is 0-Grassmannian and the
        # lengths add
        u = W(5, 2, 3, 4)
        turned = rotate(u, -1)
        assert turned == W(5, 1, 2, 3)
        states = [(u, (1,)), (u, (2,)), (turned, (1, 1)), (turned, (2, 1))]
        expected = expand_state_by_tail(u, (1,))
        for x, tail in states:
            g = grassmannian_from_kbounded(5, tail)
            xg = x * g
            assert xg.is_grassmannian(0) and xg.length == x.length + g.length
            assert expand_state_by_tail(x, tail) == expected
        clear_caches()
        assert self._state(u, (1,)) == expected

        def refuse(*args):
            raise AssertionError("a warm state was branched again")

        monkeypatch.setattr(stanley, "dual_pieri_branches", refuse)
        self._control_reaches_the_branch_step()
        for x, tail in states[1:]:
            assert self._state(x, tail) == expected, (x, tail)

    def test_one_descent_states_are_leaves(self, monkeypatch):
        # every state (u, tail) with u p-Grassmannian and a non-empty tail,
        # n = 3..5, len(u) <= 4, |tail| <= 3: answered as the affine Schur
        # function of rotate(u, -p) with no branch taken, equal to the
        # tail-keyed recursion, and stored under u's rotation class
        states = []
        for n in (3, 4, 5):
            tails = [lam for size in (1, 2, 3)
                     for lam in partitions_of(size, max_part=n - 1)]
            for level in elements_by_length(n, 4):
                for u in level:
                    descents = u.right_descents()
                    if len(descents) > 1:
                        continue
                    for tail in tails:
                        g = grassmannian_from_kbounded(n, tail)
                        ug = u * g
                        if ug.is_grassmannian(0) and ug.length == u.length + g.length:
                            p = min(descents, default=0)
                            states.append((u, tail, p, expand_state_by_tail(u, tail)))

        def refuse(*args):
            raise AssertionError("a one-descent state was branched")

        monkeypatch.setattr(stanley, "dual_pieri_branches", refuse)
        clear_caches()
        self._control_reaches_the_branch_step()
        for u, tail, p, expected in states:
            clear_caches()
            leaf = {rotate(u, -p): 1}
            assert self._state(u, tail) == leaf == expected, (u, tail)
            # each key is built once, at its leaf, with the state's length
            assert next(iter(self._state(u, tail)))._length == u.length
            assert stanley._EXPAND_MEMO == {(u.n, rotation_key(u.n, u.window)): leaf}
        assert len(states) == 188
        assert sum(p != 0 for _, _, p, _ in states) == 161

    def test_flipped_sign_raises_at_its_state(self, monkeypatch):
        # s_2 s_3 s_1 with tail (1, 1) is an inner state of s_0 s_1 s_0 at
        # n = 5, outside its rotation class, with one branch of each sign
        # (s_3 s_4 s_1 and s_2 s_3 s_4); its plus branch is moved to the
        # minus family (with the minus branch's tail, and its own table
        # warm, so that tail is never read), which leaves the state a
        # negative table
        w, state = W(5, 0, 1, 0), W(5, 2, 3, 1)
        assert rotation_key(5, state.window) != rotation_key(5, w.window)
        real = stanley.dual_pieri_branches
        flipped, seen = [], []

        def flip_one(n, win, length, size, index):
            seen.append(win)
            b_plus, b_minus = real(n, win, length, size, index)
            if win != state.window:
                return b_plus, b_minus
            flipped.append(b_plus[0])
            return b_plus[1:], b_minus + [(b_minus[0][0], b_plus[0])]

        clear_caches()
        x = AffinePermutation(5, real(5, state.window, state.length, 1, 2)[0][0])
        expand_affine_schur(x)
        monkeypatch.setattr(stanley, "dual_pieri_branches", flip_one)
        # control: Example 2, of period 6, branches through the patch
        expand_affine_schur(W(6, 5, 3, 1, 4, 2, 0))
        assert seen and not flipped
        with pytest.raises(PositivityError, match=re.escape(repr(state))):
            expand_affine_schur(w)
        assert flipped == [x.window]
        assert (5, rotation_key(5, state.window)) not in stanley._EXPAND_MEMO
        assert (5, rotation_key(5, w.window)) not in stanley._EXPAND_MEMO

    @pytest.mark.parametrize("planted", [
        cyclic_element(6, frozenset({0, 1, 2, 3}), True),  # maxr 4 > n - m
        W(6, 1),  # in A(3, 6), not 0-Grassmannian
    ])
    def test_planted_escape_raises_naming_its_key(self, monkeypatch, planted):
        # a key outside A0(3, 6) stored under Example 2's rotation class is
        # caught by the support check, phi on each key
        w = W(6, 5, 3, 1, 4, 2, 0)
        monkeypatch.setitem(stanley._EXPAND_MEMO, (6, rotation_key(6, w.window)),
                            {planted: 1})
        assert expand_affine_schur(w).coeffs == {planted: 1}
        with pytest.raises(PositivityError, match=re.escape(repr(planted))):
            expand_affine_schur(w, ctype=T36)


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

    # The elimination against a fresh Gauss-Jordan solve per element.

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_per_element_solve_exhaustive(self, n):
        columns_memo: dict = {}
        for level in elements_by_length(n, 6):
            for w in level:
                assert (oracle_expand(w).coeffs
                        == oracle_expand_per_element(w, columns_memo)), w

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_per_element_solve_sampled(self, n):
        pool = [w for level in elements_by_length(n, 7) for w in level]
        columns_memo: dict = {}
        for w in random.Random(n).sample(pool, 100):
            assert (oracle_expand(w).coeffs
                    == oracle_expand_per_element(w, columns_memo)), w

    def test_affine_schur_columns_are_unitriangular(self):
        # the premise of the elimination: F_{g(lam)} is m_lam plus monomials
        # strictly dominance-below lam, for every column the oracle can use
        cases = 0
        for n in range(2, 8):
            for ell in range(1, DEFAULT_ORACLE_CAP + 1):
                for lam in partitions_of(ell, max_part=n - 1):
                    u = grassmannian_from_kbounded(n, lam)
                    column = stanley_monomials(u, ell).coeffs
                    assert column.get(lam) == 1, (n, lam)
                    assert all(dominance_le(mu, lam)
                               for mu in column), (n, lam)
                    cases += 1
        assert cases == 331

    def test_oracle_does_not_reach_the_dual_pieri_route(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the oracle reached the route it checks")

        for name in ("cyclic_factors", "dual_pieri_branches", "_expand_state",
                     "expand_affine_schur", "grassmannianize", "shape_of"):
            monkeypatch.setattr(stanley, name, unreachable)
        clear_caches()
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert oracle_expand(w).coeffs == oracle_expand_per_element(w)

    # Every SolveError path of symfunc.resolve, on hand-built columns.

    def test_singular_columns(self):
        # the column led by (2, 1) misses its lead: the system is singular
        columns = {(3,): {(3,): 1, (2, 1): 1}, (2, 1): {(1, 1, 1): 3},
                   (1, 1, 1): {(1, 1, 1): 1}}
        target = {(3,): 1, (2, 1): 2}
        with pytest.raises(SolveError, match="not unitriangular"):
            resolve(target, columns.get)
        with pytest.raises(SolveError, match="singular"):
            solve_exact_integer(list(columns.values()), target)

    @pytest.mark.parametrize("column", [
        {(2, 1): 2, (1, 1, 1): 1},  # lead coefficient 2
        {(2, 1): -1},  # lead coefficient -1
        {(1, 1, 1): 1},  # no lead
        {(3,): 1, (2, 1): 1},  # a lex-larger key
    ])
    def test_column_without_a_unit_lead_rejected(self, column):
        with pytest.raises(SolveError, match="not unitriangular"):
            resolve({(2, 1): 1}, {(2, 1): column}.get)

    @pytest.mark.parametrize("target", [
        {(2,): 1, (1, 1): 1},  # a key outside the columns' support
        {(2,): 1, (1, 1): 1, (3,): 0},
        {(3,): 1, (2, 1): 2},  # the columns' keys, off their span
        {(3,): 1, (2, 1): 1, (1, 1, 1): 5},
    ])
    def test_target_outside_the_span(self, target):
        columns = {(3,): {(3,): 1, (2, 1): 1},
                   (2, 1): {(2, 1): 1, (1, 1, 1): 3}}
        with pytest.raises(SolveError, match="not in the span"):
            resolve(target, columns.get)
        with pytest.raises(SolveError, match="not in the span"):
            solve_exact_integer(list(columns.values()), target)

    def test_non_integral_solution(self):
        # x = (1/2, 1/2) needs a lead coefficient 2, which resolve rejects
        # before it clears anything: with unit leads every solution of an
        # integer table is integral, so this case cannot reach the output
        columns = {(2,): {(2,): 2, (1, 1): 1}, (1, 1): {(1, 1): 1}}
        target = {(2,): 1, (1, 1): 1}
        with pytest.raises(SolveError, match="not unitriangular"):
            resolve(target, columns.get)
        with pytest.raises(SolveError, match="non-integral"):
            solve_exact_integer(list(columns.values()), target)
        with pytest.raises(SolveError, match="not unitriangular"):
            resolve({(2,): 4, (1, 1): 3}, columns.get)
        assert solve_exact_integer(list(columns.values()),
                                   {(2,): 4, (1, 1): 3}) == [2, 1]

    def test_random_systems_match_per_target_solve(self):
        # random unitriangular integer systems: leads a subset of the keys,
        # other entries on lex-smaller keys only
        rng = random.Random(5)
        keys = list(partitions_of(5))  # lex-descending

        def outcome(solve):
            try:
                return solve()
            except SolveError as exc:
                assert "not in the span" in str(exc), exc
                return "outside"

        seen = set()
        for _ in range(3000):
            leads = sorted(rng.sample(range(len(keys)),
                                      rng.randint(0, len(keys))))
            columns = {keys[i]: {keys[i]: 1, **{k: rng.randint(-2, 2)
                                                for k in keys[i + 1:]}}
                       for i in leads}
            xs = [rng.randint(-3, 3) for _ in columns]
            target = {k: sum(x * col.get(k, 0)
                             for x, col in zip(xs, columns.values()))
                      for k in keys}
            if rng.randrange(2):  # perturb one key
                k = rng.choice(keys)
                target[k] += rng.choice((-1, 1))

            def gauss_jordan():
                solution = solve_exact_integer(list(columns.values()), target)
                return {lam: x for lam, x in zip(columns, solution) if x}

            expected = outcome(gauss_jordan)
            assert outcome(lambda: resolve(target, columns.get)) == expected, (
                columns, target)
            seen.add("outside" if expected == "outside" else "ok")
        assert seen == {"ok", "outside"}


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

    def test_full_support_shapes_never_reach_the_sweep(self, monkeypatch):
        # every full-support shape of the grassmannianize-bounds grid takes
        # the flat anchor: the sweep's longer v grows the recursion's states
        # many times over on such shapes
        def refuse(w):
            raise AssertionError(f"swept a full-support skew word: {w}")

        shapes = [s for m, n in SHAPE_TYPES for s in valid_shapes(CylType(m, n), 8)
                  if all(letter_multiplicities(skew_word(s)).values())]
        assert len(shapes) == 169
        clear_caches()
        monkeypatch.setattr(stanley, "grassmannianize", refuse)
        for s in shapes:
            expand_cylindric(s)


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

    def test_toric_oracle_default_cap_is_the_tableau_cap(self):
        # 17 cells, each row of (6, 6, 5) within n - m = 6, so toric; the
        # omitted cap is cylindric's tableau cap, 16, as the bench calls it
        ctype = CylType(3, 9)
        assert cell_count(shape_new(ctype, (6, 6, 5), 0, ())) == 17 > DEFAULT_TABLEAU_CAP
        with pytest.raises(CapExceededError):
            toric_gw_oracle(ctype, (6, 6, 5), 0, ())
        assert toric_gw_oracle(ctype, (6, 6, 5), 0, (), cap=17) == {(6, 6, 5): 1}


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
        for w in elements_by_length(n, 4)[4]:
            nvars = max(1, w.length)
            for q in range(1, n):
                left = SymmetricPolynomial.zero(nvars, w.length - q)
                right = SymmetricPolynomial.zero(nvars, w.length - q)
                hits = 0
                for members in proper_subsets(n, q):
                    u_j = cyclic_element(n, members, False)
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
