"""Cylindric shapes, the box-adding action, tableaux, and the bijection."""

import itertools

import pytest

from cylkit.affine import AffinePermutation, CyclicSet, proper_subsets
from cylkit.cylindric import (
    CylType,
    CylindricShape,
    PeriodicSequence,
    cell_count,
    cylindric_schur_poly,
    cylindric_tableaux,
    empty_boundary,
    in_A,
    in_A0,
    is_toric,
    phi,
    phi_inv,
    render_shape,
    ribbon_decomposition,
    ribbon_r,
    shape_from_general,
    shape_new,
    skew_word,
)
from cylkit.errors import InvalidInputError, ShapeError
from cylkit.partitions import partitions_in_box
from cylkit.symfunc import SymmetricPolynomial, schur_poly, skew_schur_poly

T36 = CylType(3, 6)
T24 = CylType(2, 4)


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


def all_shapes(ctype, max_cells):
    out = []
    box = partitions_in_box(ctype.m, ctype.n - ctype.m)
    for lam, mu in itertools.product(box, box):
        for d in range(0, max_cells // ctype.n + 1):
            cells = sum(lam) - sum(mu) + ctype.n * d
            if not 0 <= cells <= max_cells:
                continue
            try:
                out.append(shape_new(ctype, lam, d, mu))
            except ShapeError:
                continue
    return out


class TestShapes:
    def test_example2_shape_valid(self):
        s = shape_new(T36, (2, 1), 1, (2, 1))
        assert cell_count(s) == 6

    def test_empty_shape(self):
        s = shape_new(T36, (), 0, ())
        assert cell_count(s) == 0 and s.cells() == []

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
        assert cell_count(s) == 9 == len(s.cells())

    def test_cell_count_formula_vs_enumeration(self):
        for s in all_shapes(T24, 8):
            assert cell_count(s) == len(s.cells())

    def test_general_constructor_normalizes(self):
        s = shape_from_general(T36, (2, 1), 3, (2, 1), 2)
        assert s == shape_new(T36, (2, 1), 1, (2, 1))

    def test_json_round_trip(self):
        s = shape_new(T36, (2, 1), 1, (2, 1))
        assert CylindricShape.from_json(s.to_json()) == s


class TestBoundaries:
    def test_to_shape_round_trip(self):
        for ctype in (T24, T36, CylType(2, 5)):
            for lam in partitions_in_box(ctype.m, ctype.n - ctype.m):
                for d in range(-2, 4):
                    b = PeriodicSequence.from_partition(ctype, lam, d)
                    assert b.to_shape() == (lam, d)

    def test_base_orientation_invariant(self):
        b = PeriodicSequence.from_partition(T36, (2, 1), 0)
        assert b.base == (0, 1, 2)  # increasing storage
        assert b.rows() == (2, 1, 0)  # decreasing row bounds
        with pytest.raises(InvalidInputError):
            PeriodicSequence(T36, (2, 1, 0))

    def test_row_bound_periodicity(self):
        b = PeriodicSequence.from_partition(T36, (2, 1), 1)
        for p in range(-6, 7):
            assert b.row_bound(p + 3) == b.row_bound(p) - 3

    def test_shift_rows(self):
        b = PeriodicSequence.from_partition(T36, (2, 1), 2)
        assert b.shift_rows(2).to_shape() == ((2, 1), 0)


class TestAddBox:
    def test_empty_diag0(self):
        grown = empty_boundary(T36).add_box(0)
        assert grown is not None and grown.to_shape() == ((1,), 0)

    def test_empty_diag1_vanishes(self):
        assert empty_boundary(T36).add_box(1) is None

    def test_example2_word_application(self):
        inner = PeriodicSequence.from_partition(T36, (2, 1), 0)
        outer = inner.apply_word((5, 3, 1, 4, 2, 0))
        assert outer is not None
        assert outer.to_shape() == ((2, 1), 1)

    def _boundaries(self, ctype, max_cells):
        seen = {empty_boundary(ctype).base}
        frontier = [empty_boundary(ctype)]
        for _ in range(max_cells):
            nxt = []
            for b in frontier:
                for i in range(ctype.n):
                    g = b.add_box(i)
                    if g is not None and g.base not in seen:
                        seen.add(g.base)
                        nxt.append(g)
            frontier = nxt
        return [PeriodicSequence(ctype, base) for base in sorted(seen)]

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
                dec = CyclicSet(n, members, True).word()
                inc = CyclicSet(n, members, False).word()
                for b in boundaries:
                    if size > decreasing_cap:
                        assert act(b, dec) is None
                    if size > increasing_cap:
                        assert act(b, inc) is None


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

    def test_toric_iff_offset_zero_on_mu_empty(self):
        for ctype in (T24, T36):
            for nu in partitions_in_box(ctype.m, ctype.n - ctype.m):
                for e in (0, 1):
                    s = shape_new(ctype, nu, e, ())
                    assert is_toric(s) == (e == 0)


class TestCylindricSchurPoly:
    def test_empty(self):
        p = cylindric_schur_poly(shape_new(T36, (), 0, ()), 3)
        assert p == SymmetricPolynomial.one(3)

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
        s = shape_new(T24, (2, 1), 1, (2,))
        for nvars in (2, 3):
            tabs = list(cylindric_tableaux(s, nvars))
            for t in tabs:
                t.check()
            poly = cylindric_schur_poly(s, nvars)
            total = sum(poly.coeff(lam) * orbit
                        for lam, orbit in _orbit_counts(poly, nvars))
            assert total == len(tabs)


def _orbit_counts(poly, nvars):
    import math
    from collections import Counter

    for lam in poly.coeffs:
        padded = list(lam) + [0] * (nvars - len(lam))
        denom = 1
        for c in Counter(padded).values():
            denom *= math.factorial(c)
        yield lam, math.factorial(nvars) // denom


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
        with pytest.raises(InvalidInputError):
            phi(W(6, 0, 1, 0), T36)  # not 321-avoiding

    def test_word_independence(self):
        from cylkit.affine import enumerate_reduced_words

        w = W(6, 5, 1, 0) * W(6, 3, 2)
        if in_A0(w, T36):
            shapes = set()
            for word in enumerate_reduced_words(w, 8):
                b = empty_boundary(T36).apply_word(word)
                shapes.add(b.to_shape())
            assert len(shapes) == 1

    @pytest.mark.parametrize("ctype", [T24, CylType(2, 5), T36])
    def test_round_trip_small(self, ctype):
        for nu in partitions_in_box(ctype.m, ctype.n - ctype.m):
            for e in (0, 1):
                s = shape_new(ctype, nu, e, ())
                if cell_count(s) > 9:
                    continue
                w = phi_inv(s)
                assert in_A0(w, ctype)
                assert w.length == cell_count(s)
                assert phi(w, ctype) == s


class TestSkewWord:
    def test_example2(self):
        s = shape_new(T36, (2, 1), 1, (2, 1))
        assert skew_word(s) == W(6, 5, 3, 1, 4, 2, 0)

    def test_mu_empty_is_phi_inv(self):
        for nu in partitions_in_box(3, 3):
            s = shape_new(T36, nu, 0, ())
            assert skew_word(s) == phi_inv(s)

    def test_trivial_shape(self):
        s = shape_new(T36, (2, 1), 0, (2, 1))
        assert skew_word(s).is_identity()

    def test_composition_identity(self):
        # skew word equals phi_inv(lam/d/()) * phi_inv(mu/0/())^{-1}
        for s in all_shapes(T24, 8):
            w = skew_word(s)
            outer = phi_inv(shape_new(s.ctype, s.lam, s.d, ()))
            inner = phi_inv(shape_new(s.ctype, s.mu, 0, ()))
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
            w = phi_inv(shape_new(T24, nu, 0, ()))
            w0, d = ribbon_decomposition(w, T24)
            assert d == 0 and w0 == w

    def test_matches_phi_offset(self):
        for nu in partitions_in_box(2, 2):
            for e in (0, 1, 2):
                s = shape_new(T24, nu, e, ())
                w = phi_inv(s)
                w0, d = ribbon_decomposition(w, T24)
                assert d == e
                assert phi(w0, T24).lam == nu


class TestInA:
    def test_example2_word(self):
        assert in_A(W(6, 5, 3, 1, 4, 2, 0), T36)

    def test_long_decreasing_fails(self):
        d = CyclicSet(6, frozenset({0, 1, 2, 3}), True).element()  # size 4 > n-m
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
        elems = {s: phi_inv(s) for s in shapes}
        for s1, s2 in itertools.product(shapes, repeat=2):
            w1, w2 = elems[s1], elems[s2]
            contained = s2.outer().contains(s1.outer())
            # left weak order: w1 <= w2 iff w2 * w1^{-1} splits lengths
            ratio = w2 * w1.inverse()
            below = ratio.length == w2.length - w1.length
            assert contained == below, (s1, s2)


class TestRender:
    def test_labels_show_diagonals(self):
        text = render_shape(shape_new(T36, (2, 1), 1, (2, 1)), periods=1)
        for diag in "012345":
            assert diag in text

    def test_empty_rows_ok(self):
        assert render_shape(shape_new(T36, (1,), 0, ())).strip()
