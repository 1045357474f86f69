"""Cylindric shapes, the action of ``A_w`` on boundaries, tableaux, and the
bijection."""

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cylkit import cylindric
from cylkit.affine import (
    AffinePermutation,
    cyclic_element,
    cyclic_word,
    elements_by_length,
    enumerate_reduced_words,
    grassmannians_of_length,
    letter_multiplicities,
    proper_subsets,
)
from cylkit.cylindric import (
    CylindricShape,
    CylType,
    PeriodicSequence,
    boundary_word,
    cell_count,
    cylindric_schur_poly,
    empty_boundary,
    in_A,
    in_A0,
    is_toric,
    phi,
    render_shape,
    ribbon_decomposition,
    ribbon_r,
    shape_new,
    skew_word,
)
from cylkit.errors import InvalidInputError, ShapeError
from cylkit.memo import clear_caches
from cylkit.partitions import partitions_in_box
from cylkit.stanley import expand_cylindric, grassmannianize_321
from cylkit.symfunc import SymmetricPolynomial, skew_schur_poly
from cylkit.verify import SHAPE_TYPES, valid_shapes

from oracles import (
    act_by_values,
    apply_word_by_boxes,
    boundary_word_peel,
    candidate_boundaries,
    cylindric_tableaux,
    is_toric_by_columns,
    orbit_size,
    partition_boundary,
    shape_cells,
)

T36 = CylType(3, 6)
T24 = CylType(2, 4)


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


class TestShapes:
    def test_example2_shape_valid(self):
        s = shape_new(T36, (2, 1), 1, (2, 1))
        assert cell_count(s) == 6

    def test_empty_shape(self):
        s = shape_new(T36, (), 0, ())
        assert cell_count(s) == 0 and shape_cells(s) == []

    def test_containment_error(self):
        with pytest.raises(ShapeError):
            shape_new(T36, (1,), 0, (2,))

    def test_box_error(self):
        with pytest.raises(ShapeError):
            shape_new(T36, (4,), 0, ())
        with pytest.raises(ShapeError):
            shape_new(T36, (1, 1, 1, 1), 1, ())

    def test_nine_cell_shape(self):
        s = shape_new(T36, (2, 1), 1, ())
        assert cell_count(s) == 9 == len(shape_cells(s))

    def test_cell_count_formula_vs_enumeration(self):
        for s in valid_shapes(T24, 8):
            assert cell_count(s) == len(shape_cells(s))

    def test_shape_keeps_its_boundaries(self):
        s = shape_new(T36, (2, 1), 1, (2, 1))
        assert s.outer == partition_boundary(T36, (2, 1), 1)
        assert s.inner == partition_boundary(T36, (2, 1), 0)
        # the boundaries are derived, so they stay out of eq, hash and repr:
        # a shape given other boundaries compares, hashes and prints the
        # same, and the repr names the partitions alone
        empty = empty_boundary(T36)
        other = CylindricShape(T36, (2, 1), 1, (2, 1), empty, empty)
        assert other == s and hash(other) == hash(s) and repr(other) == repr(s)
        assert repr(s) == ("CylindricShape(ctype=CylType(m=3, n=6), "
                           "lam=(2, 1), d=1, mu=(2, 1))")
        assert hash(s) == hash((T36, (2, 1), 1, (2, 1)))

    def test_shape_new_validates_each_partition_once(self, monkeypatch):
        # shape_new's own checks are the only ones: its boundaries come
        # built, with no validating constructor and no second partition check
        shapes = list(valid_shapes(T36, 8))
        expected = [(partition_boundary(T36, s.lam, s.d),
                     partition_boundary(T36, s.mu, 0)) for s in shapes]
        calls = Counter()

        def counted(name):
            fn = getattr(cylindric, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def refuse(*args):
            raise AssertionError("a boundary was validated again")

        monkeypatch.setattr(PeriodicSequence, "__post_init__", refuse)
        for name in ("check_partition", "fits_box"):
            monkeypatch.setattr(cylindric, name, counted(name))
        rebuilt = [shape_new(T36, s.lam, s.d, s.mu) for s in shapes]
        assert calls == {"check_partition": 2 * 447, "fits_box": 2 * 447}
        assert [(s.outer, s.inner) for s in rebuilt] == expected
        assert rebuilt == shapes

    def test_phi_builds_the_shape_with_its_boundaries(self):
        for shape in valid_shapes(T36, 8):
            if shape.mu:
                continue
            s = phi(skew_word(shape), T36)
            assert s == shape
            assert s.outer == partition_boundary(T36, s.lam, s.d)
            assert s.inner == empty_boundary(T36)


class TestBoundaries:
    def test_to_shape_round_trip(self):
        # every type up to n = 7; at small m/n the offset d lies far from
        # the row bounds
        for n in range(2, 8):
            for m in range(1, n):
                ctype = CylType(m, n)
                for lam in partitions_in_box(m, n - m):
                    for d in range(-2, 4 * n):
                        b = partition_boundary(ctype, lam, d)
                        assert b.to_shape() == (lam, d)

    def test_base_orientation_invariant(self):
        b = partition_boundary(T36, (2, 1), 0)
        assert b.rows == (2, 1, 0)  # decreasing row bounds
        with pytest.raises(InvalidInputError):
            PeriodicSequence(T36, (0, 1, 2))

    def test_row_bound_periodicity(self):
        b = partition_boundary(T36, (2, 1), 1)
        for p in range(-6, 7):
            assert b.row_bound(p + 3) == b.row_bound(p) - 3


class TestAddBox:
    def test_empty_diag0(self):
        grown = empty_boundary(T36).apply_word((0,))
        assert grown is not None and grown.to_shape() == ((1,), 0)

    def test_empty_diag1_vanishes(self):
        assert empty_boundary(T36).apply_word((1,)) is None

    def test_example2_word_application(self):
        inner = partition_boundary(T36, (2, 1), 0)
        outer = inner.apply_word((5, 3, 1, 4, 2, 0))
        assert outer is not None
        assert outer.to_shape() == ((2, 1), 1)

    def _boundaries(self, ctype, max_cells):
        seen = {empty_boundary(ctype).rows}
        frontier = [empty_boundary(ctype)]
        for _ in range(max_cells):
            nxt = []
            for b in frontier:
                for i in range(ctype.n):
                    g = b.apply_word((i,))
                    if g is not None and g.rows not in seen:
                        seen.add(g.rows)
                        nxt.append(g)
            frontier = nxt
        return [PeriodicSequence(ctype, rows) for rows in sorted(seen)]

    @pytest.mark.parametrize("ctype", [CylType(1, 3), T24, CylType(2, 5), T36])
    def test_action_relations(self, ctype):
        # nilpotence, commutation, braid vanishing, strip-length vanishing
        n = ctype.n
        boundaries = self._boundaries(ctype, 8 if ctype.n <= 5 else 6)

        def act(b, word):
            return b.apply_word(word)

        for b in boundaries:
            for i in range(n):
                assert act(b, (i, i)) is None
                for j in range(n):
                    if (i - j) % n not in (1, n - 1):
                        assert act(b, (i, j)) == act(b, (j, i))
                assert act(b, (i, (i + 1) % n, i)) is None
                assert act(b, ((i + 1) % n, i, (i + 1) % n)) is None

        decreasing_cap, increasing_cap = n - ctype.m, ctype.m
        for size in range(n):
            for members in proper_subsets(n, size):
                dec = cyclic_word(n, members, True)
                inc = cyclic_word(n, members, False)
                for b in boundaries:
                    if size > decreasing_cap:
                        assert act(b, dec) is None
                    if size > increasing_cap:
                        assert act(b, inc) is None


class TestAct:
    def test_matches_box_by_box_on_every_small_boundary(self):
        # every element up to the grid's length against every boundary
        # lam[d], lam in the box and d in {0, 1}, of every type (m, n)
        cases = nonzero = 0
        for n, maxlen in [(2, 8), (3, 6), (4, 5), (5, 4), (6, 4)]:
            elements = [w for level in elements_by_length(n, maxlen)
                        for w in level]
            for m in range(1, n):
                ctype = CylType(m, n)
                for lam in partitions_in_box(m, n - m):
                    for d in (0, 1):
                        b = partition_boundary(ctype, lam, d)
                        for w in elements:
                            got = b.act(w)
                            assert got == apply_word_by_boxes(
                                b, w.reduced_word()), (b, w)
                            cases += 1
                            nonzero += got is not None
        assert (cases, nonzero) == (37824, 1940)

    @given(st.integers(2, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1),
        st.lists(st.integers(0, n - 1), max_size=14),
        st.lists(st.integers(0, n - 1), max_size=16), st.integers(0, 2))))
    def test_matches_box_by_box_on_random_words(self, case):
        n, m, letters, rows, d = case
        ctype = CylType(m, n)
        w, word = AffinePermutation.identity(n), ()
        for i in letters:  # keep the ascents: a random reduced word
            if not w.has_right_descent(i):
                w, word = w.times_s(i), word + (i,)
        lam = tuple(sorted((min(v, n - m) for v in rows[:m] if v),
                           reverse=True))
        b = partition_boundary(ctype, lam, d)
        assert b.act(w) == apply_word_by_boxes(b, word)

    def test_period_mismatch(self):
        with pytest.raises(InvalidInputError):
            empty_boundary(T36).act(AffinePermutation.identity(4))

    def test_trusted_result_is_a_boundary(self):
        # act builds its result without validation: on every boundary up to
        # translation of every type with n <= 6 and every element up to
        # length 5, a nonzero result passes the public constructor and has
        # the rows of the value-by-value action; the candidates themselves
        # are built trusted too, and pass the public constructor
        cases = nonzero = 0
        for n in range(2, 7):
            elements = [w for level in elements_by_length(n, 5) for w in level]
            for m in range(1, n):
                ctype = CylType(m, n)
                for b in candidate_boundaries(ctype):
                    assert PeriodicSequence(ctype, b.rows) == b, b
                    for w in elements:
                        got = b.act(w)
                        assert got == act_by_values(b, w), (b, w)
                        if got is not None:
                            assert PeriodicSequence(ctype, got.rows) == got
                            nonzero += 1
                        cases += 1
        assert (cases, nonzero) == (108581, 3163)


class TestTrustedBoundaries:
    """Every boundary the package builds unvalidated (action images, the
    empty boundary, the tight Grassmannianization's boundary read off the
    excedances, and flat anchors) also passes the public constructor along
    the expansion routes."""

    @staticmethod
    def _validating(monkeypatch):
        monkeypatch.setattr(PeriodicSequence, "_trusted", classmethod(
            lambda cls, ctype, rows: cls(ctype, rows)))
        clear_caches()

    def test_expansion_of_every_small_shape(self, monkeypatch):
        shapes = list(valid_shapes(T36, 8))
        assert len(shapes) == 447
        clear_caches()
        expected = [expand_cylindric(s) for s in shapes]
        self._validating(monkeypatch)
        assert [expand_cylindric(s) for s in shapes] == expected

    def test_tight_grassmannianization_grid(self, monkeypatch):
        # the grid of the grassmannianize-bounds suite
        words = [(skew_word(s), ctype)
                 for ctype in (CylType(m, n) for m, n in SHAPE_TYPES)
                 for s in valid_shapes(ctype, 8)]
        words = [(w, ctype) for w, ctype in words
                 if all(letter_multiplicities(w).values())]
        clear_caches()
        expected = [grassmannianize_321(w, ctype) for w, ctype in words]
        self._validating(monkeypatch)
        assert [grassmannianize_321(w, ctype) for w, ctype in words] == expected


class TestBoundaryWord:
    def test_matches_peel(self):
        # every shape of every type with n <= 7, offsets 0-2, <= 12 cells
        shapes = 0
        for n in range(2, 8):
            for m in range(1, n):
                for s in valid_shapes(CylType(m, n), 12, max_d=2):
                    x = boundary_word(s.inner, s.outer)
                    assert x == boundary_word_peel(s.inner, s.outer), s
                    # built trusted: the window passes the public constructor
                    assert AffinePermutation(n, x.window) == x, s
                    shapes += 1
        assert shapes == 8022

    def test_rejects_unnested_boundaries(self):
        inner = partition_boundary(T36, (2,), 0)
        outer = partition_boundary(T36, (1, 1), 0)
        with pytest.raises(InvalidInputError):
            boundary_word(inner, outer)
        with pytest.raises(InvalidInputError):
            boundary_word(inner, empty_boundary(T24))


class TestToric:
    def test_box_shapes_toric(self):
        for nu in partitions_in_box(3, 3):
            assert is_toric(shape_new(T36, nu, 0, ()))

    def test_offset_one_never_toric(self):
        for nu in partitions_in_box(3, 3):
            assert not is_toric(shape_new(T36, nu, 1, ()))

    def test_example2_shape(self):
        # rows all 2 <= 3, columns at most 2 <= 3: toric by direct count
        assert is_toric(shape_new(T36, (2, 1), 1, (2, 1)))

    def test_row_test_matches_column_scan(self):
        shapes = toric = 0
        for n in range(2, 8):
            for m in range(1, n):
                ctype = CylType(m, n)
                box = partitions_in_box(m, n - m)
                for lam, mu in itertools.product(box, box):
                    for d in range(3):
                        try:
                            s = shape_new(ctype, lam, d, mu)
                        except ShapeError:
                            continue
                        assert is_toric(s) == is_toric_by_columns(s), s
                        shapes += 1
                        toric += is_toric(s)
        assert (shapes, toric) == (10968, 5613)

    def test_toric_iff_offset_zero_on_mu_empty(self):
        for ctype in (T24, T36):
            for nu in partitions_in_box(ctype.m, ctype.n - ctype.m):
                for e in (0, 1):
                    s = shape_new(ctype, nu, e, ())
                    assert is_toric(s) == (e == 0)


class TestCylindricSchurPoly:
    def test_empty(self):
        p = cylindric_schur_poly(shape_new(T36, (), 0, ()), 3)
        assert p == SymmetricPolynomial(3, 0, {(): 1})

    def test_single_cell(self):
        p = cylindric_schur_poly(shape_new(T36, (1,), 0, ()), 2)
        assert p.coeffs == {(1,): 1}

    def test_classical_skew_case(self):
        # offset-0 shapes never couple across the seam: classical skew values
        for ctype in (T24, T36):
            box = partitions_in_box(ctype.m, ctype.n - ctype.m)
            for lam in box:
                for mu in box:
                    if not (len(mu) <= len(lam)
                            and all(a <= b for a, b in zip(mu, lam))):
                        continue
                    s = shape_new(ctype, lam, 0, mu)
                    for nvars in (1, 2, 3):
                        assert cylindric_schur_poly(s, nvars) == \
                            skew_schur_poly(lam, mu, nvars)

    def test_tableaux_match_poly(self):
        # the oracle tries every filling of the cells, so it does not share
        # the strip chains the polynomial is built from
        shapes = (list(valid_shapes(T24, 6)) + list(valid_shapes(T36, 6))
                  + list(valid_shapes(CylType(2, 5), 5)))
        for s in shapes:
            for nvars in (2, 3):
                tabs = list(cylindric_tableaux(s, nvars))
                for t in tabs:
                    t.check()
                poly = cylindric_schur_poly(s, nvars)
                total = sum(c * orbit_size(lam, nvars)
                            for lam, c in poly.coeffs.items())
                assert total == len(tabs), s
                # each weight vector counts the tableaux of that content
                weights = Counter(t.weight(nvars) for t in tabs)
                keys = set()
                for expo, count in weights.items():
                    key = tuple(sorted((e for e in expo if e), reverse=True))
                    assert poly.coeffs.get(key, 0) == count, (s, expo)
                    keys.add(key)
                assert set(poly.coeffs) <= keys, s


class TestPhi:
    def test_identity(self):
        s = phi(AffinePermutation.identity(6), T36)
        assert (s.lam, s.d, s.mu) == ((), 0, ())

    def test_example2_grassmannian_product(self):
        wv = W(6, 5, 3, 1, 4, 2, 0) * W(6, 5, 1, 0)
        s = phi(wv, T36)
        assert (s.lam, s.d) == ((2, 1), 1)

    def test_word_510(self):
        s = phi(W(6, 5, 1, 0), T36)
        assert (s.lam, s.d) == ((2, 1), 0)

    def test_precondition(self):
        not_321 = W(6, 0, 1, 0)
        too_wide = cyclic_element(6, frozenset({0, 1, 2, 3}), True)  # maxr 4
        not_grassmannian = W(6, 1)
        assert too_wide.is_grassmannian(0) and not in_A(too_wide, T36)
        assert in_A(not_grassmannian, T36)
        assert not not_grassmannian.is_grassmannian(0)
        for w in (not_321, too_wide, not_grassmannian):
            with pytest.raises(InvalidInputError, match="0-Grassmannian"):
                phi(w, T36)

    def test_action_decides_membership(self):
        # phi's only membership test is its action on the empty boundary,
        # against in_A0 on every element with n = 2..6 up to length 7 and
        # every 0-Grassmannian element with n <= 8 up to length 10
        cases = [(n, [w for level in elements_by_length(n, 7) for w in level])
                 for n in range(2, 7)]
        cases += [(n, [g for ell in range(11) for g in grassmannians_of_length(n, ell)])
                  for n in range(2, 9)]
        pairs = members = 0
        for n, elements in cases:
            for m in range(1, n):
                ctype = CylType(m, n)
                empty = empty_boundary(ctype)
                for w in elements:
                    member = in_A0(w, ctype)
                    assert (empty.act(w) is not None) == member, (w, ctype)
                    assert not member or phi(w, ctype).d >= 0
                    pairs += 1
                    members += member
        assert (pairs, members) == (12699 + 2899, 163 + 626)

    def test_word_independence(self):
        # every reduced word of the skew word of every nu/e/() with at
        # most 7 cells acts on the empty boundary as the element does
        most_words = 0
        for nu in partitions_in_box(3, 3):
            for e in (0, 1):
                s = shape_new(T36, nu, e, ())
                if cell_count(s) > 7:
                    continue
                w = skew_word(s)
                assert in_A0(w, T36)
                grown = empty_boundary(T36).act(w)
                assert grown == s.outer
                words = enumerate_reduced_words(w, 7)
                for word in words:
                    assert empty_boundary(T36).apply_word(word) == grown
                most_words = max(most_words, len(words))
        assert most_words >= 2

    @pytest.mark.parametrize("ctype", [T24, CylType(2, 5), T36])
    def test_round_trip_small(self, ctype):
        for nu in partitions_in_box(ctype.m, ctype.n - ctype.m):
            for e in (0, 1):
                s = shape_new(ctype, nu, e, ())
                if cell_count(s) > 9:
                    continue
                w = skew_word(s)
                assert in_A0(w, ctype)
                assert w.length == cell_count(s)
                assert phi(w, ctype) == s


class TestSkewWord:
    def test_example2(self):
        s = shape_new(T36, (2, 1), 1, (2, 1))
        assert skew_word(s) == W(6, 5, 3, 1, 4, 2, 0)

    def test_trivial_shape(self):
        s = shape_new(T36, (2, 1), 0, (2, 1))
        assert skew_word(s).is_identity()

    def test_composition_identity(self):
        # the skew word of lam/d/mu is x * y^{-1} with x, y the skew words
        # of lam/d/() and mu/0/()
        for s in valid_shapes(T24, 8):
            w = skew_word(s)
            outer = skew_word(shape_new(s.ctype, s.lam, s.d, ()))
            inner = skew_word(shape_new(s.ctype, s.mu, 0, ()))
            assert w == outer * inner.inverse()
            assert w.length == cell_count(s)
            assert in_A(w, s.ctype)


class TestRibbon:
    def test_r3_word(self):
        assert ribbon_r(T36) == W(6, 3, 4, 5, 2, 1, 0)

    def test_smallest(self):
        assert ribbon_r(CylType(1, 2)) == W(2, 1, 0)

    def test_24(self):
        w = ribbon_r(T24)
        assert w == W(4, 2, 3, 1, 0)
        assert w.length == 4 and w.is_grassmannian(0)

    def test_decomposition_of_ribbon(self):
        w0, d = ribbon_decomposition(ribbon_r(T36), T36)
        assert w0.is_identity() and d == 1

    def test_toric_words_have_offset_zero(self):
        for nu in partitions_in_box(2, 2):
            w = skew_word(shape_new(T24, nu, 0, ()))
            w0, d = ribbon_decomposition(w, T24)
            assert d == 0 and w0 == w

    def test_matches_phi_offset(self):
        for nu in partitions_in_box(2, 2):
            for e in (0, 1, 2):
                s = shape_new(T24, nu, e, ())
                w = skew_word(s)
                w0, d = ribbon_decomposition(w, T24)
                assert d == e
                assert phi(w0, T24).lam == nu


class TestInA:
    def test_example2_word(self):
        assert in_A(W(6, 5, 3, 1, 4, 2, 0), T36)

    def test_long_decreasing_fails(self):
        d = cyclic_element(6, frozenset({0, 1, 2, 3}), True)  # size 4 > n-m
        assert not in_A(d, T36)

    def test_braid_fails(self):
        assert not in_A(W(6, 0, 1, 0), T36)

    def test_period_mismatch_after_cached_answer(self):
        w = W(4, 1, 0)
        assert in_A(w, T24)
        with pytest.raises(InvalidInputError, match="period mismatch"):
            in_A(w, CylType(2, 5))


class TestWeakOrderContainment:
    @pytest.mark.parametrize("ctype", [T24, T36])
    def test_containment_iff_weak_order(self, ctype):
        shapes = [shape_new(ctype, nu, e, ())
                  for nu in partitions_in_box(ctype.m, ctype.n - ctype.m)
                  for e in (0, 1)]
        shapes = [s for s in shapes if cell_count(s) <= 7]
        elems = {s: skew_word(s) for s in shapes}
        for s1, s2 in itertools.product(shapes, repeat=2):
            w1, w2 = elems[s1], elems[s2]
            contained = s2.outer.contains(s1.outer)
            # left weak order: w1 <= w2 iff w2 * w1^{-1} splits lengths
            ratio = w2 * w1.inverse()
            below = ratio.length == w2.length - w1.length
            assert contained == below, (s1, s2)


class TestRender:
    def test_labels_show_diagonals(self):
        text = render_shape(shape_new(T36, (2, 1), 1, (2, 1)))
        for diag in "012345":
            assert diag in text

    def test_empty_rows_ok(self):
        assert render_shape(shape_new(T36, (1,), 0, ())).strip()
