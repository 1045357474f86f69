"""Affine symmetric group: windows, words, lengths, cyclic elements,
canonical decompositions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylkit.affine import (
    _CYCLIC_ELEMENT_CACHE,
    AffinePermutation,
    cyclic_element,
    cyclic_factors,
    cyclic_runs,
    cyclic_word,
    elements_by_length,
    enumerate_reduced_words,
    grassmannian_code,
    grassmannian_from_kbounded,
    grassmannians_of_length,
    inverse_window,
    is_321_avoiding,
    letter_multiplicities,
    max_cyclic_factor,
    proper_subsets,
    rotate,
    rotation_key,
    shape_of,
    times_runs,
)
from cylkit.cylindric import CylType, PeriodicSequence, in_A, phi, skew_word
from cylkit.errors import CapExceededError, InvalidInputError
from cylkit.memo import clear_caches
from cylkit.partitions import partitions_of
from cylkit.stanley import (
    _already_grassmannian,
    expand_affine_schur,
    expand_cylindric,
    grassmannianize,
)
from cylkit.verify import valid_shapes

from oracles import (
    all_words_brute,
    already_grassmannian_scan,
    bfs_word_length,
    code_unfolded,
    cyclic_factors_exhaustive,
    from_word_by_steps,
    has_right_descent_by_values,
    is_321_avoiding_by_values,
    is_grassmannian_by_values,
    letter_multiplicities_greedy,
    in_A_by_positions,
    max_cyclic_factor_by_positions,
    max_cyclic_factor_exhaustive,
    maximal_cdd,
    reduced_word_by_steps,
    right_descents_by_values,
    rotate_by_values,
    s_times,
    unfolded_inversions,
    value,
    word_has_braid_factor,
)
from test_stanley import pinned_tables_hold


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


class TestWindows:
    def test_identity_window(self):
        assert AffinePermutation.from_word(6, []).window == (1, 2, 3, 4, 5, 6)

    def test_window_invariants_rejected(self):
        with pytest.raises(InvalidInputError):
            AffinePermutation(3, (1, 2, 4))  # wrong sum
        with pytest.raises(InvalidInputError):
            AffinePermutation(3, (1, 4, 1))  # repeated residue

    def test_bi_infinite_extension(self):
        w = W(3, 1, 0)
        assert value(w, 1 + 3) == value(w, 1) + 3
        assert value(w, -2) == value(w, 1) - 3

    def test_word_matches_cyclic_element(self):
        # d_J = s_4 s_1 s_0 s_6 for J = {0,1,4,6} in period 7
        J = frozenset({0, 1, 4, 6})
        assert AffinePermutation.from_word(7, [4, 1, 0, 6]) == cyclic_element(7, J, True)

    def test_worked_length_six_word(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert w.length == 6
        assert unfolded_inversions(w) == 6

    def test_length_slot_stays_out_of_eq_hash_and_repr(self):
        # no instance dict, whether built trusted (length known) or through
        # the public constructor (length filled on the first read)
        built, fresh = W(4, 1, 0), AffinePermutation(4, (0, 1, 3, 6))
        assert built._length == 2 and fresh._length is None
        for _ in range(2):  # before and after fresh's first length read
            for w in (built, fresh):
                assert not hasattr(w, "__dict__")
                assert repr(w) == "AffinePermutation(n=4, window=(0, 1, 3, 6))"
                assert hash(w) == hash((4, (0, 1, 3, 6)))
            assert built == fresh
            assert fresh.length == 2
        assert fresh._length == 2


class TestLength:
    def test_trivial(self):
        assert AffinePermutation.identity(4).length == 0
        assert W(4, 0).length == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_formula_vs_unfolding(self, n):
        for level in elements_by_length(n, 5):
            for w in level:
                assert w.length == unfolded_inversions(w)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_length_is_min_word_length(self, n):
        # spec invariant: inversion count == BFS distance, small range
        for ell, level in enumerate(elements_by_length(n, 4)):
            for w in level:
                assert bfs_word_length(w, 7) == ell

    def test_multiply_subadditive(self):
        for u in elements_by_length(3, 3)[3]:
            for v in elements_by_length(3, 2)[2]:
                assert (u * v).length <= u.length + v.length


class TestGroupOps:
    def test_multiply_identity(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert w * AffinePermutation.identity(6) == w

    def test_involution(self):
        s0 = W(6, 0)
        assert (s0 * s0).is_identity()

    def test_period_mismatch(self):
        with pytest.raises(InvalidInputError):
            W(3, 0) * W(4, 0)

    def test_inverse(self):
        for w in elements_by_length(4, 4)[4]:
            assert (w * w.inverse()).is_identity()
            # the inverse carries w's length over, so check it independently
            assert w.inverse().length == unfolded_inversions(w) == 4

    def test_example2_product_is_grassmannian(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        v = W(6, 5, 1, 0)
        wv = w * v
        assert wv.length == 9
        assert wv.is_grassmannian(0)
        assert shape_of(v) == (2, 1)

    def test_left_vs_right_multiplication(self):
        w = W(5, 3, 1, 0)
        for i in range(5):
            assert w.times_s(i) == w * AffinePermutation.simple(5, i)
            assert s_times(w, i) == AffinePermutation.simple(5, i) * w


# (n, max length) of the exhaustive certification grids: 1,340 elements
FACTOR_GRID = [(2, 8), (3, 7), (4, 6), (5, 5), (6, 5), (7, 4)]


def exact_length(x):
    """Inversions by unfolding over enough periods for ``x``'s displacement."""
    shift = max(abs(value(x, t) - t) for t in range(1, x.n + 1))
    return unfolded_inversions(x, periods=2 * shift // x.n + 1)


def assert_valid(x):
    """``x`` passes the public constructor, and its length (cached by the
    operation that built it, or computed now and cached for the next) is its
    true length."""
    assert AffinePermutation(x.n, x.window) == x
    assert x.length == exact_length(x), (x, x._length)


def assert_operations_valid(w, others, t):
    """Every trusted group operation on ``w`` yields a valid element."""
    n = w.n
    assert_valid(w)
    assert_valid(w.inverse())
    assert_valid(rotate(w, t))
    for i in range(n):
        assert_valid(w.times_s(i))
        assert_valid(AffinePermutation.simple(n, i) * w)
    for v in others:
        assert_valid(w * v)


class TestTrustedConstructor:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_operations_on_small_elements(self, n):
        levels = elements_by_length(n, 5)
        short = [v for level in levels[:3] for v in level]
        for ell, level in enumerate(levels):
            for w in level:
                assert w._length == ell
                assert_operations_valid(w, short, ell)

    @settings(max_examples=150)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, n - 1), max_size=14),
        st.lists(st.integers(0, n - 1), max_size=14),
        st.integers(-n, n))))
    def test_operations_on_random_words(self, case):
        n, word, other, t = case
        w = AffinePermutation.from_word(n, word)
        v = AffinePermutation.from_word(n, other)
        assert_operations_valid(w, [v, v.inverse()], t)
        assert_operations_valid(w * v, [w], t)

    def test_identity_checks_period(self):
        with pytest.raises(InvalidInputError):
            AffinePermutation.identity(1)

    def test_untrusted_input_still_validated(self):
        with pytest.raises(InvalidInputError):
            AffinePermutation(3, (1, 2, 4))


class TestReducedWords:
    def test_identity(self):
        assert enumerate_reduced_words(AffinePermutation.identity(4), 5) == ((),)

    def test_commuting_pair(self):
        words = set(enumerate_reduced_words(W(4, 0, 2), 5))
        assert words == {(0, 2), (2, 0)}

    def test_single_word(self):
        assert set(enumerate_reduced_words(W(3, 1, 0), 5)) == {(1, 0)}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_reduced_words(W(3, 0, 1, 0), 2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_brute_force(self, n):
        for w in elements_by_length(n, 4)[4]:
            assert set(enumerate_reduced_words(w, 6)) == all_words_brute(w)

    def test_all_words_have_reduced_length(self):
        w = W(4, 2, 1, 0, 3)
        for word in enumerate_reduced_words(w, 6):
            assert len(word) == w.length
            assert AffinePermutation.from_word(4, word) == w


class Test321Avoiding:
    def test_explicit_braid(self):
        assert not is_321_avoiding(W(3, 0, 1, 0))

    def test_identity(self):
        assert is_321_avoiding(AffinePermutation.identity(3))

    def test_worked_example(self):
        assert is_321_avoiding(W(6, 5, 3, 1, 4, 2, 0))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_window_criterion_matches_word_scan(self, n):
        # spec invariant: ell <= 7 for n <= 5; trimmed to <= 5 here, the
        # acceptance suite re-runs the full range.
        for level in elements_by_length(n, 5):
            for w in level:
                by_words = not any(
                    word_has_braid_factor(n, word)
                    for word in enumerate_reduced_words(w, 8))
                assert is_321_avoiding(w) == by_words


class TestGrassmannian:
    def test_known_words(self):
        assert W(6, 5, 1, 0).is_grassmannian(0)
        assert not W(6, 5, 1, 0).is_grassmannian(3)
        assert W(6, 3, 4, 5, 2, 1, 0).is_grassmannian(0)

    def test_identity_convention(self):
        w = AffinePermutation.identity(5)
        assert all(w.is_grassmannian(p) for p in range(5))

    @pytest.mark.parametrize("n", [3, 4])
    def test_unique_right_descent(self, n):
        for level in elements_by_length(n, 5)[1:]:
            for w in level:
                for p in range(n):
                    expected = w.right_descents() == frozenset({p})
                    assert w.is_grassmannian(p) == expected


class TestCStat:
    """The code ``w.code() == (c_1, ..., c_n)``."""

    def test_identity(self):
        assert AffinePermutation.identity(4).code() == (0, 0, 0, 0)

    def test_s0(self):
        assert W(3, 0).code() == (1, 0, 0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_periodicity_and_zero(self, n):
        # c_{i+kn} == c_i: the unfolded count agrees over three periods
        for w in elements_by_length(n, 4)[4]:
            code = w.code()
            assert all(code_unfolded(w, i) == code[(i - 1) % n]
                       for i in range(1 - n, 2 * n + 1))
            assert 0 in code

    def test_matches_unfolded_count(self):
        for n, maxlen in FACTOR_GRID:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    code = w.code()
                    assert list(code) == [code_unfolded(w, i) for i in range(1, n + 1)]
                    assert sum(code) == w.length

    @settings(max_examples=100)
    @given(st.integers(2, 32).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=16))))
    def test_matches_unfolded_count_on_random_words(self, case):
        n, word = case
        w = AffinePermutation.from_word(n, word)
        assert list(w.code()) == [code_unfolded(w, i) for i in range(1, n + 1)]

    def test_ascent_step_moves_two_entries(self):
        # the rule the Grassmannianization sweep runs on: w(i) < w(i+1) iff
        # c_i >= c_{i+1}, and then w*s_i has (c_{i+1}, c_i + 1) there
        for n, maxlen in FACTOR_GRID:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    code = w.code()
                    for i in range(1, n + 1):
                        x, y = i - 1, i % n
                        ascent = not w.has_right_descent(i)
                        assert ascent == (code[x] >= code[y])
                        if ascent:
                            expected = list(code)
                            expected[x], expected[y] = code[y], code[x] + 1
                            assert list(w.times_s(i).code()) == expected

    def test_grassmannian_criterion(self):
        for lam in partitions_of(5, max_part=3):
            w = grassmannian_from_kbounded(4, lam)
            cs = list(w.code())
            assert cs == sorted(cs, reverse=True)
            assert cs[-1] == 0


class TestCyclicElements:
    def test_decreasing_word_n7(self):
        assert cyclic_word(7, frozenset({0, 1, 4, 6}), True) == (4, 1, 0, 6)

    def test_increasing_word_n7(self):
        assert cyclic_word(7, frozenset({0, 1, 4, 6}), False) == (4, 6, 0, 1)

    def test_singleton(self):
        for decreasing in (True, False):
            assert cyclic_element(6, frozenset({0}), decreasing) == W(6, 0)

    def test_full_set_rejected(self):
        for decreasing in (True, False):
            with pytest.raises(InvalidInputError):
                cyclic_word(4, frozenset(range(4)), decreasing)
            with pytest.raises(InvalidInputError):
                cyclic_element(4, frozenset(range(4)), decreasing)

    def test_length_is_size(self):
        for size in range(4):
            for members in proper_subsets(4, size):
                assert cyclic_element(4, members, True).length == size

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_inverse_is_increasing_counterpart(self, n):
        for size in range(n):
            for members in proper_subsets(n, size):
                d = cyclic_element(n, members, True)
                u = cyclic_element(n, members, False)
                assert d.inverse() == u

    @pytest.mark.parametrize("n, maxlen", [(3, 4), (4, 4), (5, 3)])
    def test_swap_runs_match_products(self, n, maxlen):
        # times_runs against the product with the built element, both
        # directions and every J: descents counted are the length's fall
        for level in elements_by_length(n, maxlen):
            for w in level:
                assert inverse_window(n, w.window) == w.inverse().window
                for size in range(n):
                    for members in proper_subsets(n, size):
                        for decreasing in (True, False):
                            win, falls = times_runs(w.window, n,
                                                    cyclic_runs(n, members), decreasing)
                            x = w * cyclic_element(n, members, decreasing)
                            assert win == x.window, (w, members, decreasing)
                            assert w.length + size - 2 * falls == x.length

    def test_element_is_memoized_until_caches_clear(self):
        J = frozenset({1, 2, 4})
        clear_caches()
        first = cyclic_element(6, J, False)
        assert first == AffinePermutation.from_word(6, cyclic_word(6, J, False))
        assert cyclic_element(6, J, False) is first
        assert _CYCLIC_ELEMENT_CACHE == {(6, J, False): first}
        clear_caches()
        assert not _CYCLIC_ELEMENT_CACHE
        again = cyclic_element(6, J, False)
        assert again == first and again is not first


class TestMaxCyclicFactor:
    def test_self_factor(self):
        for members in proper_subsets(5, 3):
            d = cyclic_element(5, members, True)
            assert max_cyclic_factor(d)[0] == members

    def test_identity(self):
        assert max_cyclic_factor(AffinePermutation.identity(4)) == (
            frozenset(), [0, 0, 0, 0])

    def test_ribbon_r3(self):
        w = W(6, 3, 4, 5, 2, 1, 0)
        assert max_cyclic_factor(w)[0] == frozenset({0, 1, 2})

    def test_interior_letter_not_a_descent(self):
        # w = d_{0,1} = s_1 s_0: the valid J = {0,1} is not inside the
        # right descent set {0}, so J is not read off the descents alone.
        w = W(4, 1, 0)
        assert w.right_descents() == frozenset({0})
        assert max_cyclic_factor(w)[0] == frozenset({0, 1})

    @pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
    @pytest.mark.parametrize("decreasing", [True, False],
                             ids=["decreasing", "increasing"])
    def test_factorization_property(self, left, decreasing):
        # a left factor of w is a right factor of w^-1 in the other direction
        for w in elements_by_length(4, 4)[4]:
            if left:
                J = max_cyclic_factor(w.inverse(), not decreasing)[0]
            else:
                J = max_cyclic_factor(w, decreasing)[0]
            inv = cyclic_element(4, J, not decreasing)
            rest = inv * w if left else w * inv
            assert rest.length == w.length - len(J)

    def test_matches_exhaustive_scan(self):
        # both directions on every element, n <= 7: 2,680 cases
        cases = 0
        for n, maxlen in FACTOR_GRID:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    for decreasing in (True, False):
                        assert (max_cyclic_factor(w, decreasing)[0]
                                == max_cyclic_factor_exhaustive(w, decreasing)), \
                            (w, decreasing)
                        cases += 1
        assert cases == 2680

    def test_subset_scan_off_hot_path(self, monkeypatch):
        def no_scan(n, size):
            raise AssertionError("subset scan reached")

        monkeypatch.setattr("cylkit.affine.proper_subsets", no_scan)
        monkeypatch.setattr("cylkit.stanley.proper_subsets", no_scan)
        clear_caches()
        w = W(16, 0, 8, 1, 9)  # u_{0,1} u_{8,9}, values from the scan
        assert max_cyclic_factor(w)[0] == frozenset({1, 9})
        assert max_cyclic_factor(w, False)[0] == frozenset({0, 1, 8, 9})
        assert max_cyclic_factor(w.inverse(), False)[0] == frozenset({0, 8})
        v, p = grassmannianize(w)
        v0 = rotate(v, -p)  # the tail the expansion starts from
        assert shape_of(v0) == maximal_cdd(v0)[1] == (1,) * 7
        assert in_A(w, CylType(8, 16)) and not in_A(w, CylType(2, 16))
        assert cyclic_factors(w, 2) == [(frozenset({1, 9}), [(1, 1), (9, 9)])]
        # F_w = e_2 * e_2, as oracle_expand finds in test_stanley
        expansion = expand_affine_schur(w)
        assert {shape_of(u): c for u, c in expansion.coeffs.items()} == {
            (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}

    def test_monomial_tables_independent_of_cyclic_factors(self, monkeypatch):
        # the oracle certifies cyclic_factors, so its monomial tables must
        # not reach it, its window walk or the swap runs of its branches
        def refuse(*args):
            raise AssertionError("cyclic-factor route reached")

        monkeypatch.setattr("cylkit.stanley.times_runs", refuse)
        monkeypatch.setattr("cylkit.stanley.cyclic_factors", refuse)
        monkeypatch.setattr("cylkit.affine.max_cyclic_factor", refuse)
        clear_caches()
        assert pinned_tables_hold()


class TestInA:
    def test_matches_definition(self):
        # A(m, n): 321-avoiding with maxc <= m and maxr <= n - m, each read
        # by its oracle, on every element of the grid and every m: 6,066 cases
        clear_caches()
        cases = 0
        for n, maxlen in FACTOR_GRID:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    avoiding = is_321_avoiding_by_values(w)
                    maxc = len(max_cyclic_factor_exhaustive(w, False))
                    maxr = len(max_cyclic_factor_exhaustive(w))
                    for m in range(1, n):
                        assert in_A(w, CylType(m, n)) == (
                            avoiding and maxc <= m and maxr <= n - m), (w, m)
                        cases += 1
        assert cases == 6066

    def test_read_off_the_window(self, monkeypatch):
        # in_A reaches no cyclic-factor walk, under whatever name a module
        # holds it by
        def refuse(*args):
            raise AssertionError("cyclic-factor walk reached")

        monkeypatch.setattr("cylkit.affine.max_cyclic_factor", refuse)
        monkeypatch.setattr("cylkit.cylindric.max_cyclic_factor", refuse,
                            raising=False)
        clear_caches()
        for n, maxlen in FACTOR_GRID:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    for m in range(1, n):
                        assert in_A(w, CylType(m, n)) == in_A_by_positions(w, m), (w, m)


class TestCylindricHotPath:
    """The cylindric layer reads skew words, phi and letter counts off the
    window: it builds no reduced word and multiplies out no word."""

    @staticmethod
    def _shapes():
        shapes = list(valid_shapes(CylType(3, 6), 8))
        assert len(shapes) == 447
        return shapes

    @staticmethod
    def _refuse(what):
        def refuse(*args):
            raise AssertionError(f"{what} reached")
        return refuse

    def test_expansion_builds_no_reduced_word(self, monkeypatch):
        shapes = self._shapes()
        clear_caches()
        expected = [expand_cylindric(s) for s in shapes]
        monkeypatch.setattr(AffinePermutation, "reduced_word",
                            self._refuse("reduced_word"))
        clear_caches()
        assert [expand_cylindric(s) for s in shapes] == expected

    def test_expansion_runs_no_validating_constructor(self, monkeypatch):
        # validation runs at the edges: once the shapes have been built
        # (their boundaries with them), an expansion from cold caches builds
        # every element and boundary it derives without re-validating it
        shapes = self._shapes()
        clear_caches()
        expected = [expand_cylindric(s) for s in shapes]
        monkeypatch.setattr(AffinePermutation, "__post_init__",
                            self._refuse("AffinePermutation validation"))
        monkeypatch.setattr(PeriodicSequence, "__post_init__",
                            self._refuse("PeriodicSequence validation"))
        clear_caches()
        assert [expand_cylindric(s) for s in shapes] == expected

    def test_skew_word_and_phi_build_no_word(self, monkeypatch):
        shapes = self._shapes()
        clear_caches()
        expected = [skew_word(s) for s in shapes]
        monkeypatch.setattr(AffinePermutation, "from_word",
                            staticmethod(self._refuse("from_word")))
        clear_caches()
        assert [skew_word(s) for s in shapes] == expected
        for s, w in zip(shapes, expected):
            if s.mu == ():
                assert phi(w, s.ctype) == s


class TestCyclicFactors:
    def test_matches_exhaustive_scan(self):
        # every size and side on every element, n <= 7: 14,812 cases
        cases = 0
        for n, maxlen in FACTOR_GRID:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    for size in range(n):
                        for decreasing in (True, False):
                            found = cyclic_factors(w, size, decreasing)
                            sets = [J for J, _ in found]
                            assert len(set(sets)) == len(sets), (w, size, decreasing)
                            assert sets == cyclic_factors_exhaustive(
                                w, size, decreasing), (w, size, decreasing)
                            for J, runs in found:
                                assert runs == list(cyclic_runs(n, J)), (w, J, runs)
                            cases += 1
        assert cases == 14812

    def test_empty_and_out_of_range_sizes(self):
        w = W(4, 1, 0)
        assert cyclic_factors(w, 0) == [(frozenset(), [])]
        assert cyclic_factors(w, 3) == []
        assert cyclic_factors(w, 4) == []
        assert cyclic_factors(w, -1) == []


class TestMaximalCdd:
    def test_example2_v(self):
        sets, lam = maximal_cdd(W(6, 5, 1, 0))
        assert lam == (2, 1)
        assert sets == [frozenset({0, 1}), frozenset({5})]

    def test_single_block(self):
        J = frozenset({1, 2, 4})
        sets, lam = maximal_cdd(cyclic_element(5, J, True))
        assert lam == (3,)
        assert sets == [J]

    def test_identity(self):
        assert maximal_cdd(AffinePermutation.identity(3)) == ([], ())

    @pytest.mark.parametrize("n", [3, 4])
    def test_factor_maximality(self, n):
        for w in elements_by_length(n, 5)[5]:
            sets, lam = maximal_cdd(w)
            # J_1 contains every valid right-decreasing factor set
            J1 = sets[0] if sets else frozenset()
            for size in range(n):
                for members in proper_subsets(n, size):
                    u = cyclic_element(n, members, False)
                    if (w * u).length == w.length - size:
                        assert members <= J1

    @pytest.mark.parametrize("n", [3, 4])
    def test_reassembly_and_partition(self, n):
        for w in elements_by_length(n, 5)[5]:
            sets, lam = maximal_cdd(w)
            prod = AffinePermutation.identity(n)
            for J in reversed(sets):
                prod = prod * cyclic_element(n, J, True)
            assert prod == w
            assert tuple(sorted(lam, reverse=True)) == lam


class TestShapeOf:
    def test_matches_maximal_cdd(self):
        cases = 0
        for n in range(2, 8):
            for total in range(11):
                for lam in partitions_of(total, max_part=n - 1):
                    w = grassmannian_from_kbounded(n, lam)
                    assert shape_of(w) == maximal_cdd(w)[1] == lam
                    cases += 1
        assert cases == 446

    @settings(max_examples=100)
    @given(st.integers(2, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n - 1), max_size=10))))
    def test_matches_maximal_cdd_on_random_partitions(self, case):
        n, parts = case
        lam = tuple(sorted(parts, reverse=True))
        w = grassmannian_from_kbounded(n, lam)
        assert shape_of(w) == maximal_cdd(w)[1] == lam

    @staticmethod
    def _grow(x):
        """The 0-Grassmannian left ascents ``s_i x``, stepped on the inverse
        window, where ``x^-1 s_i`` carries the known length."""
        inv = x.inverse()
        for i in range(x.n):
            step = inv.times_s(i)
            if step.length > inv.length and step.inverse().is_grassmannian(0):
                yield step.inverse()

    def test_size_is_length(self):
        # |shape_of(x)| = len(x), which the expansion's minus branches read
        # as their additivity: every 0-Grassmannian element with n = 2..8
        # up to length 10, found by left ascents from the identity
        cases = 0
        for n in range(2, 9):
            level = [AffinePermutation.identity(n)]
            for ell in range(11):
                assert len(level) == len(list(partitions_of(ell, max_part=n - 1)))
                for x in level:
                    assert sum(shape_of(x)) == ell == x.length, x
                    assert grassmannian_code(n, x.window) == x.code(), x
                    cases += 1
                level = list({y.window: y for x in level for y in self._grow(x)}.values())
        assert cases == 578

    @settings(max_examples=100)
    @given(st.integers(9, 48).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=30))))
    def test_size_is_length_on_random_walks(self, case):
        n, draws = case
        x = AffinePermutation.identity(n)
        for i in draws:
            ups = list(self._grow(x))
            x = ups[i % len(ups)]
        assert sum(shape_of(x)) == len(draws) == AffinePermutation(n, x.window).length
        assert grassmannian_code(n, x.window) == x.code()

    def test_rejects_non_grassmannian(self):
        for w in (W(4, 0, 1), W(16, 0, 8, 1, 9)):
            with pytest.raises(InvalidInputError):
                shape_of(w)


class TestKBoundedBijection:
    def test_example2(self):
        v = grassmannian_from_kbounded(6, (2, 1))
        assert v == W(6, 5, 1, 0)

    def test_row_shape(self):
        for n in (4, 6):
            for i in range(1, n):
                w = grassmannian_from_kbounded(n, (i,))
                assert w == W(n, *range(i - 1, -1, -1))

    def test_empty(self):
        assert grassmannian_from_kbounded(5, ()).is_identity()

    def test_part_too_large(self):
        # a part of n + 1 would wrap its block round to a single letter
        for lam in [(4,), (5,), (5, 1)]:
            with pytest.raises(InvalidInputError):
                grassmannian_from_kbounded(4, lam)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_round_trip(self, n):
        for total in range(9):
            for lam in partitions_of(total, max_part=n - 1):
                w = grassmannian_from_kbounded(n, lam)
                assert w.is_grassmannian(0)
                assert shape_of(w) == lam

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_image_is_all_grassmannians(self, n):
        # all 0-Grassmannian elements of length <= 8 arise from partitions
        by_partition = {grassmannian_from_kbounded(n, lam).window
                        for total in range(9)
                        for lam in partitions_of(total, max_part=n - 1)}
        by_search = {w.window
                     for level in elements_by_length(n, 8)
                     for w in level if w.is_grassmannian(0)}
        assert by_partition == by_search


class TestRotation:
    def test_identity_fixed(self):
        w = AffinePermutation.identity(4)
        assert all(rotate(w, t) == w for t in range(-4, 5))

    def test_shifts_simple_generators(self):
        assert rotate(W(3, 0), 1) == W(3, 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_word_shift(self, n):
        for w in elements_by_length(n, 5)[5]:
            word = w.reduced_word()
            for t in range(n):
                shifted = AffinePermutation.from_word(
                    n, [(i + t) % n for i in word])
                assert rotate(w, t) == shifted

    @pytest.mark.parametrize("n, maxlen", [(2, 6), (3, 6), (4, 5), (5, 4)])
    def test_rotation_key_names_the_orbit(self, n, maxlen):
        # exhaustive: the least rotated window, the same on a whole orbit,
        # and a different one on every other orbit
        orbit_of_key = {}
        for level in elements_by_length(n, maxlen):
            for w in level:
                key = rotation_key(n, w.window)
                turned = [rotate_by_values(w, t) for t in range(n)]
                assert key == min(u.window for u in turned)
                assert {rotation_key(n, u.window) for u in turned} == {key}
                orbit = frozenset(u.window for u in turned)
                assert orbit_of_key.setdefault(key, orbit) == orbit
        assert len(set(orbit_of_key.values())) == len(orbit_of_key) > 1


class TestLetterMultiplicities:
    def test_word_531420(self):
        counts = letter_multiplicities(W(6, 5, 3, 1, 4, 2, 0))
        assert counts == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_window_count_matches_greedy_word(self):
        # every element up to the grid's length: the zero pattern always
        # agrees, the counts on the 321-avoiding elements
        elements = avoiding = 0
        for n, maxlen in [(2, 9), (3, 9), (4, 8), (5, 7), (6, 6)]:
            for level in elements_by_length(n, maxlen):
                for w in level:
                    got = letter_multiplicities(w)
                    greedy = letter_multiplicities_greedy(w)
                    assert ({i for i, c in got.items() if c == 0}
                            == {i for i, c in greedy.items() if c == 0}), w
                    elements += 1
                    if is_321_avoiding(w):
                        assert got == greedy, w
                        avoiding += 1
        assert (elements, avoiding) == (2274, 874)

    def test_all_words_agree_for_321_avoiding(self):
        for w in elements_by_length(4, 5)[5]:
            if not is_321_avoiding(w):
                continue
            expected = letter_multiplicities(w)
            for word in enumerate_reduced_words(w, 6):
                counts = {i: 0 for i in range(4)}
                for i in word:
                    counts[i] += 1
                assert counts == expected


class TestEnumeration:
    def test_level_sizes_n3(self):
        levels = elements_by_length(3, 3)
        assert [len(lv) for lv in levels] == [1, 3, 6, 9]

    def test_grassmannians_of_length(self):
        g = grassmannians_of_length(4, 3)
        assert len(g) == len(list(partitions_of(3, max_part=3)))
        assert all(w.is_grassmannian(0) and w.length == 3 for w in g)


def assert_window_readers_match(w):
    """Every reader of the window kernel agrees with its slow reference,
    and the trusted results pass the public constructor."""
    n = w.n
    for i in range(-n, 2 * n):
        assert w.has_right_descent(i) == has_right_descent_by_values(w, i), (w, i)
        assert w.is_grassmannian(i) == is_grassmannian_by_values(w, i), (w, i)
    assert w.right_descents() == right_descents_by_values(w)
    assert _already_grassmannian(w) == already_grassmannian_scan(w)
    assert is_321_avoiding(w) == is_321_avoiding_by_values(w)
    word = w.reduced_word()
    assert word == reduced_word_by_steps(w)
    for t in range(-n, n + 1):
        turned = rotate(w, t)
        assert turned == rotate_by_values(w, t), (w, t)
        assert turned._length == w._length
    for letters in [word] + [word + (i,) for i in range(n)]:
        built = AffinePermutation.from_word(n, letters)
        stepped = from_word_by_steps(n, letters)
        assert AffinePermutation(n, built.window) == built == stepped
        assert built._length == stepped._length == built.length
    assert AffinePermutation.from_word(n, word) == w


class TestWindowReaders:
    """The window kernel against the value-by-value readers it replaced
    (``tests/oracles.py``), exhaustively on every element with n = 2..6 up
    to length 7 and on random words up to n = 12."""

    def test_every_small_element(self):
        count = 0
        for n in range(2, 7):
            for level in elements_by_length(n, 7):
                for w in level:
                    assert_window_readers_match(w)
                    count += 1
        assert count == 2875

    @settings(max_examples=150)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-n, 2 * n), max_size=20))))
    def test_random_words(self, case):
        n, letters = case
        w = AffinePermutation.from_word(n, letters)
        stepped = from_word_by_steps(n, letters)
        assert w == stepped and w._length == stepped._length
        assert w.length == exact_length(w)
        assert_window_readers_match(w)
        assert_window_readers_match(AffinePermutation(n, w.window))

    def test_resumed_word_scan_on_every_small_element(self):
        # the scan that resumes next to each swap against the one that
        # restarts at position 0: every element with n = 2..6 up to length 8
        count = 0
        for n in range(2, 7):
            for level in elements_by_length(n, 8):
                for w in level:
                    assert w.reduced_word() == reduced_word_by_steps(w), w
                    count += 1
        assert count == 4757

    @settings(max_examples=150)
    @given(st.integers(2, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=40))))
    def test_resumed_word_scan_on_random_elements(self, case):
        n, letters = case
        w = AffinePermutation.from_word(n, letters)
        word = w.reduced_word()
        assert word == reduced_word_by_steps(w)
        assert len(word) == w.length and AffinePermutation.from_word(n, word) == w

    @settings(max_examples=150)
    @given(st.integers(2, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=40),
        st.booleans())))
    def test_321_rule_on_large_random_elements(self, case):
        # checked where elements reach far: n <= 24 and length <= 40, from
        # random words or from random ascents only (longer elements); with
        # it the basis test and the maximal factors
        n, letters, ascents_only = case
        w = AffinePermutation.identity(n)
        for i in letters:
            if not (ascents_only and w.has_right_descent(i)):
                w = w.times_s(i)
        assert is_321_avoiding(w) == is_321_avoiding_by_values(w), w
        for m in range(1, n):
            assert in_A(w, CylType(m, n)) == in_A_by_positions(w, m), (w, m)
        for decreasing in (True, False):
            assert (max_cyclic_factor(w, decreasing)[0]
                    == max_cyclic_factor_by_positions(w, decreasing)), (w, decreasing)
