"""The value classes: hand-written slotted classes, certified against the
dataclasses they replaced (``oracles.dataclass_twins``) on the same inputs,
and kept picklable, copyable, slotted and immutable."""

import copy
import itertools
import pickle

import pytest
from oracles import dataclass_twins

from cylkit.affine import AffinePermutation, elements_by_length
from cylkit.cylindric import (
    CylindricShape,
    CylType,
    PeriodicSequence,
    empty_boundary,
    shape_new,
    skew_word,
)
from cylkit.errors import InvalidInputError
from cylkit.nilcoxeter import NilCoxeterElement, ee, hh
from cylkit.stanley import (
    AffineSchurExpansion,
    SchurExpansion,
    expand_affine_schur,
    expand_cylindric,
)
from cylkit.symfunc import SymmetricPolynomial, schur_poly
from cylkit.verify import SuiteResult, valid_shapes

CLASSES = {cls.__name__: cls for cls in (
    AffinePermutation, CylType, PeriodicSequence, CylindricShape,
    SymmetricPolynomial, AffineSchurExpansion, SchurExpansion,
    NilCoxeterElement, SuiteResult)}
FROZEN = [name for name in CLASSES if name != "SuiteResult"]
T24, T36 = CylType(2, 4), CylType(3, 6)


def W(n, *letters):
    return AffinePermutation.from_word(n, letters)


def small_shapes():
    """Every shape of Gr(2,4) and Gr(3,6) with at most 6 cells."""
    return [s for ctype in (T24, T36) for s in valid_shapes(ctype, 6)]


def built(cls, args, kwargs=None):
    """The ``repr`` of ``cls(*args, **kwargs)``, or the type and message of
    the error its constructor raised."""
    try:
        return repr(cls(*args, **(kwargs or {})))
    except (TypeError, InvalidInputError) as exc:
        return type(exc), str(exc)


def hashed(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def certify(name, inputs):
    """Both sides on every input and every ordered pair of inputs: the same
    ``repr`` and hash (or both unhashable), ``==`` and ``!=`` answered alike
    in both directions, and ``NotImplemented`` across the two classes.  The
    second build of each input is equal to the first but a new object."""
    cls, twin = CLASSES[name], dataclass_twins()[name]
    news = [cls(*args) for args in inputs]
    again = [cls(*args) for args in inputs]
    twins = [twin(*args) for args in inputs]
    for new, old in zip(news, twins):
        assert repr(new) == repr(old)
        assert hashed(new) == hashed(old)
        assert new.__eq__(old) is NotImplemented
        assert old.__eq__(new) is NotImplemented
        assert new != old and old != new
    for (a, ta), (b, tb) in itertools.product(zip(news, twins), zip(again, twins)):
        assert (a == b) == (ta == tb) and (b == a) == (tb == ta)
        assert (a != b) == (ta != tb) and (b != a) == (tb != ta)
    return news


def sample_values():
    """One instance of each value class, with every field filled."""
    shape = shape_new(T36, (2, 1), 1, (1,))
    expansion = expand_affine_schur(skew_word(shape), ctype=T36)
    return {
        "AffinePermutation": W(4, 0, 2, 1),
        "CylType": T36,
        "PeriodicSequence": shape.outer,
        "CylindricShape": shape,
        "SymmetricPolynomial": schur_poly((2, 1), 3),
        "AffineSchurExpansion": expansion,
        "SchurExpansion": expand_cylindric(shape),
        "NilCoxeterElement": hh(2, 4),
        "SuiteResult": SuiteResult("demo", False, 3, 0.25, [("w", 1)]),
    }


class TestAgainstDataclasses:
    def test_elements(self):
        # every element with n = 2..4 up to length 4, in pairs: 109 of them
        elements = [w for n in (2, 3, 4) for level in elements_by_length(n, 4)
                    for w in level]
        assert len(elements) == 109
        news = certify("AffinePermutation", [(w.n, w.window) for w in elements])
        # the length slot stays outside eq, hash and repr: the search built
        # each element with its length, the constructor without
        for w, plain in zip(elements, news):
            assert w._length is not None and plain._length is None
            assert w == plain and hash(w) == hash(plain) and repr(w) == repr(plain)

    def test_types_boundaries_and_shapes(self):
        shapes = small_shapes()
        certify("CylType", [(1, 2), (2, 4), (3, 6), (2, 6)])
        certify("PeriodicSequence",
                [(s.ctype, b.rows) for s in shapes for b in (s.outer, s.inner)])
        # the boundaries stay out of eq, hash and repr: a shape with the
        # empty boundary on both sides reads the same
        inputs = [(s.ctype, s.lam, s.d, s.mu, s.outer, s.inner) for s in shapes]
        inputs += [(s.ctype, s.lam, s.d, s.mu, empty_boundary(s.ctype),
                    empty_boundary(s.ctype)) for s in shapes[:20]]
        certify("CylindricShape", inputs)

    def test_polynomials_expansions_and_nilcoxeter(self):
        certify("SymmetricPolynomial", [
            (3, 3, schur_poly((2, 1), 3).coeffs), (3, 3, {(2, 1): 2, (1, 1, 1): 0}),
            (2, 0, {(): 5}), (2, 0), (4, 2, {(2,): 1, (1, 1): -1})])
        shapes = [s for s in valid_shapes(T36, 5) if not s.mu][:6]
        full = [expand_affine_schur(skew_word(s), ctype=T36) for s in shapes]
        certify("AffineSchurExpansion",
                [(e.n, e.coeffs, e.shapes) for e in full]
                + [(e.n, e.coeffs) for e in full] + [(6, {})])
        certify("SchurExpansion",
                [(expand_cylindric(s).coeffs,) for s in shapes] + [({},)])
        certify("NilCoxeterElement", [
            (3, hh(1, 3).terms), (3, ee(2, 3).terms), (4, hh(2, 4).terms),
            (3, {W(3, 0): 1, W(3, 1): 0}), (3,)])

    def test_suite_results(self):
        certify("SuiteResult", [
            ("a", True, 3, 0.5), ("a", True, 3, 0.5, [("x", 1)]),
            ("b", False, 0, 0.0), ("a", True, 3, 0.5, [])])

    def test_keywords_defaults_and_errors(self):
        T = dataclass_twins()
        w = W(3, 0)
        cases = [
            ("AffinePermutation", (), {"n": 3, "window": (2, 1, 3)}),
            ("AffinePermutation", (1, (1,)), {}),
            ("AffinePermutation", (3, (1, 2)), {}),
            ("AffinePermutation", (3, (1, 1, 4)), {}),
            ("AffinePermutation", (3, (2, 3, 4)), {}),
            ("AffinePermutation", (3, (1, 2, 3), 0), {}),
            ("AffinePermutation", (3,), {}),
            ("CylType", (), {"m": 2, "n": 5}),
            ("CylType", (0, 3), {}),
            ("CylType", (3, 3), {}),
            ("CylType", (4, 3), {}),
            ("CylType", (2,), {"x": 5}),
            ("PeriodicSequence", (), {"ctype": T24, "rows": (1, 0)}),
            ("PeriodicSequence", (T24, (0,)), {}),
            ("PeriodicSequence", (T24, (0, 1)), {}),
            ("PeriodicSequence", (T24, (3, 0)), {}),
            ("CylindricShape", (T24, (1,), 0, ()), {}),
            ("SymmetricPolynomial", (2, 0), {}),
            ("SymmetricPolynomial", (), {"nvars": 2, "degree": 2,
                                         "coeffs": {(1, 1): 3}}),
            ("SymmetricPolynomial", (-1, 0), {}),
            ("SymmetricPolynomial", (2, -1), {}),
            ("SymmetricPolynomial", (2, 3, {(2, 2): 1}), {}),
            ("SymmetricPolynomial", (2, 3, {(1, 1, 1): 1}), {}),
            ("SymmetricPolynomial", (3, 3, {(1, 2): 1}), {}),
            ("SymmetricPolynomial", (3, 3, {(3, 0): 1}), {}),
            ("AffineSchurExpansion", (3, {w: 1}), {}),
            ("AffineSchurExpansion", (), {"n": 3, "coeffs": {}, "shapes": {}}),
            ("AffineSchurExpansion", (3,), {}),
            ("SchurExpansion", (), {"coeffs": {((1,), 0): 2}}),
            ("SchurExpansion", (), {}),
            ("NilCoxeterElement", (3,), {}),
            ("NilCoxeterElement", (), {"n": 3, "terms": {w: 2}}),
            ("NilCoxeterElement", (3, {W(4, 0): 1}), {}),
            ("NilCoxeterElement", (3, {W(3, 0): 1, W(3, 0, 1): 1}), {}),
            ("SuiteResult", ("a", True, 1, 0.5), {}),
            ("SuiteResult", (), {"name": "a", "passed": False, "checks": 0,
                                 "seconds": 0.0, "failures": [1]}),
            ("SuiteResult", ("a",), {}),
        ]
        for name, args, kwargs in cases:
            assert (built(CLASSES[name], args, kwargs)
                    == built(T[name], args, kwargs)), (name, args, kwargs)
        for name, args, field, empty in [
                ("SymmetricPolynomial", (2, 0), "coeffs", {}),
                ("NilCoxeterElement", (3,), "terms", {}),
                ("AffineSchurExpansion", (3, {}), "shapes", None),
                ("SuiteResult", ("a", True, 1, 0.5), "failures", [])]:
            for cls in (CLASSES[name], T[name]):
                first, second = cls(*args), cls(*args)
                assert getattr(first, field) == empty
                if empty == []:
                    # a new list per instance
                    first.failures.append("x")
                    assert second.failures == []


class TestStorage:
    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_pickle_and_copy_round_trip(self, name):
        x = sample_values()[name]
        assert type(x) is CLASSES[name]
        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(x), copy.deepcopy(x)]
        for y in copies:
            assert type(y) is type(x)
            assert y == x and repr(y) == repr(x)
        if name == "AffinePermutation":
            assert all(y.length == x.length == 3 for y in copies)

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_slotted_and_frozen(self, name):
        x = sample_values()[name]
        assert not hasattr(x, "__dict__")
        for field in CLASSES[name].__slots__:
            value = getattr(x, field)
            if name in FROZEN:
                with pytest.raises(AttributeError):
                    setattr(x, field, value)
                with pytest.raises(AttributeError):
                    delattr(x, field)
                assert getattr(x, field) is value
            else:
                setattr(x, field, value)
        if name in FROZEN:
            with pytest.raises(AttributeError):
                x.extra = 1
