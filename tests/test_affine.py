"""Affine symmetric group: windows, words, lengths, cyclic elements,
canonical decompositions."""

import pytest

from cylkit.affine import (
    AffinePermutation,
    CyclicSet,
    elements_by_length,
    enumerate_reduced_words,
    grassmannian_from_kbounded,
    grassmannians_of_length,
    is_321_avoiding,
    kbounded_from_grassmannian,
    letter_multiplicities,
    max_cyclic_factor,
    maximal_cdd,
    proper_subsets,
    rotate,
    shape_of,
)
from cylkit.errors import CapExceededError, InvalidInputError
from cylkit.partitions import partitions_of

from oracles import (
    all_words_brute,
    bfs_word_length,
    unfolded_inversions,
    word_has_braid_factor,
)


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
        assert w.value(1 + 3) == w.value(1) + 3
        assert w.value(-2) == w.value(1) - 3

    def test_word_matches_cyclic_element(self):
        # d_J = s_4 s_1 s_0 s_6 for J = {0,1,4,6} in period 7
        J = CyclicSet(7, frozenset({0, 1, 4, 6}), decreasing=True)
        assert AffinePermutation.from_word(7, [4, 1, 0, 6]) == J.element()

    def test_worked_length_six_word(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert w.length == 6
        assert unfolded_inversions(w) == 6


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
            assert w.inverse().length == w.length

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
            assert w.s_times(i) == AffinePermutation.simple(5, i) * w


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
    def test_identity(self):
        w = AffinePermutation.identity(4)
        assert all(w.c_stat(i) == 0 for i in range(-3, 8))

    def test_s0(self):
        assert W(3, 0).c_stat(1) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_periodicity_and_zero(self, n):
        for w in elements_by_length(n, 4)[4]:
            cs = [w.c_stat(i) for i in range(1, n + 1)]
            assert all(w.c_stat(i + n) == w.c_stat(i) for i in range(1, n + 1))
            assert 0 in cs

    def test_grassmannian_criterion(self):
        for lam in partitions_of(5, max_part=3):
            w = grassmannian_from_kbounded(4, lam)
            cs = [w.c_stat(i) for i in range(1, 5)]
            assert cs == sorted(cs, reverse=True)
            assert cs[-1] == 0


class TestCyclicElements:
    def test_decreasing_word_n7(self):
        J = CyclicSet(7, frozenset({0, 1, 4, 6}), decreasing=True)
        assert J.word() == (4, 1, 0, 6)

    def test_increasing_word_n7(self):
        J = CyclicSet(7, frozenset({0, 1, 4, 6}), decreasing=False)
        assert J.word() == (4, 6, 0, 1)

    def test_singleton(self):
        for decreasing in (True, False):
            J = CyclicSet(6, frozenset({0}), decreasing)
            assert J.element() == W(6, 0)

    def test_full_set_rejected(self):
        with pytest.raises(InvalidInputError):
            CyclicSet(4, frozenset(range(4)))

    def test_length_is_size(self):
        for size in range(4):
            for members in proper_subsets(4, size):
                assert CyclicSet(4, members).element().length == size

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_inverse_is_increasing_counterpart(self, n):
        for size in range(n):
            for members in proper_subsets(n, size):
                d = CyclicSet(n, members, True).element()
                u = CyclicSet(n, members, False).element()
                assert d.inverse() == u


class TestMaxCyclicFactor:
    def test_self_factor(self):
        for members in proper_subsets(5, 3):
            d = CyclicSet(5, members, True).element()
            assert max_cyclic_factor(d, "right", "decreasing").members == members

    def test_identity(self):
        J = max_cyclic_factor(AffinePermutation.identity(4))
        assert J.members == frozenset()

    def test_ribbon_r3(self):
        w = W(6, 3, 4, 5, 2, 1, 0)
        J = max_cyclic_factor(w, "right", "decreasing")
        assert J.members == frozenset({0, 1, 2})

    def test_interior_letter_not_a_descent(self):
        # w = d_{0,1} = s_1 s_0: the valid J = {0,1} is not inside the
        # right descent set {0}, so the search must range over all subsets.
        w = W(4, 1, 0)
        assert w.right_descents() == frozenset({0})
        assert max_cyclic_factor(w).members == frozenset({0, 1})

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("direction", ["decreasing", "increasing"])
    def test_factorization_property(self, side, direction):
        for w in elements_by_length(4, 4)[4]:
            J = max_cyclic_factor(w, side, direction)
            cs = CyclicSet(4, J.members, direction == "decreasing")
            inv = cs.reversed().element()
            rest = w * inv if side == "right" else inv * w
            assert rest.length == w.length - len(J.members)


class TestMaximalCdd:
    def test_example2_v(self):
        sets, lam = maximal_cdd(W(6, 5, 1, 0))
        assert lam == (2, 1)
        assert [s.members for s in sets] == [frozenset({0, 1}), frozenset({5})]

    def test_single_block(self):
        J = CyclicSet(5, frozenset({1, 2, 4}), True)
        sets, lam = maximal_cdd(J.element())
        assert lam == (3,)
        assert sets[0].members == J.members

    def test_identity(self):
        assert maximal_cdd(AffinePermutation.identity(3)) == ([], ())

    @pytest.mark.parametrize("n", [3, 4])
    def test_factor_maximality(self, n):
        for w in elements_by_length(n, 5)[5]:
            sets, lam = maximal_cdd(w)
            # J_1 contains every valid right-decreasing factor set
            J1 = sets[0].members if sets else frozenset()
            for size in range(n):
                for members in proper_subsets(n, size):
                    u = CyclicSet(n, members, False).element()
                    if (w * u).length == w.length - size:
                        assert members <= J1

    @pytest.mark.parametrize("n", [3, 4])
    def test_reassembly_and_partition(self, n):
        for w in elements_by_length(n, 5)[5]:
            sets, lam = maximal_cdd(w)
            prod = AffinePermutation.identity(n)
            for J in reversed(sets):
                prod = prod * J.element()
            assert prod == w
            assert tuple(sorted(lam, reverse=True)) == lam


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
        with pytest.raises(InvalidInputError):
            grassmannian_from_kbounded(4, (4,))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_round_trip(self, n):
        for total in range(9):
            for lam in partitions_of(total, max_part=n - 1):
                w = grassmannian_from_kbounded(n, lam)
                assert w.is_grassmannian(0)
                assert kbounded_from_grassmannian(w) == lam

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


class TestLetterMultiplicities:
    def test_word_531420(self):
        counts = letter_multiplicities(W(6, 5, 3, 1, 4, 2, 0))
        assert counts == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

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

    def test_json_round_trip(self):
        w = W(6, 5, 3, 1, 4, 2, 0)
        assert AffinePermutation.from_json(w.to_json()) == w

    def test_word_json_schema(self):
        from cylkit.affine import word_from_json, word_to_json

        obj = word_to_json(6, (5, 3, 1, 4, 2, 0))
        assert obj == {"n": 6, "letters": [5, 3, 1, 4, 2, 0]}
        assert word_from_json(obj) == (6, (5, 3, 1, 4, 2, 0))
        with pytest.raises(InvalidInputError):
            word_to_json(3, (3,))
