"""The affine nilCoxeter algebra.

Elements are finite integer combinations of basis symbols ``A_w`` indexed by
affine permutations, with ``A_v * A_w = A_{vw}`` when lengths add and zero
otherwise.  Only length-graded pieces are ever represented; sums of mixed
grade are rejected, products of homogeneous elements stay homogeneous.

``hh(i, n)`` and ``ee(i, n)`` are the cyclically decreasing / increasing
generating elements; the images of ``A_w`` under the projection to the type
``(m, n)`` quotient keep exactly the basis keys (321-avoiding with bounded
one-sided factors).  ``nc_kschur`` realizes the dual basis element attached
to a 0-Grassmannian ``u`` from the Schur expansion coefficients, which makes
its uniqueness property a test rather than an input.  The identity battery
that checks this algebra lives in :mod:`cylkit.verify` (suite
``nilcoxeter``).
"""

from __future__ import annotations

from cylkit.affine import (
    AffinePermutation,
    cyclic_element,
    elements_by_length,
    proper_subsets,
)
from cylkit.cylindric import CylType, in_A
from cylkit.errors import CapExceededError, GradingError, InvalidInputError
from cylkit.frozen import Frozen
from cylkit.stanley import expand_affine_schur

DEFAULT_KSCHUR_CAP = 8


class NilCoxeterElement(Frozen):
    """Finite integer combination of ``A_w`` symbols (``AffinePermutation ->
    int``, zero coefficients dropped), homogeneous in length.  Equal as
    ``(n, terms)``; it holds a dict, so it is unhashable."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict = {}):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self):
        clean = {}
        for w, c in self.terms.items():
            if c == 0:
                continue
            if w.n != self.n:
                raise InvalidInputError(f"key period {w.n} != {self.n}")
            clean[w] = c
        grades = {w.length for w in clean}
        if len(grades) > 1:
            raise GradingError(f"mixed grades {sorted(grades)} in one element")
        object.__setattr__(self, "terms", clean)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    @property
    def grade(self) -> int | None:
        """Common length of the keys; None for the zero element."""
        for w in self.terms:
            return w.length
        return None

    @staticmethod
    def basis(w: AffinePermutation) -> "NilCoxeterElement":
        return NilCoxeterElement(w.n, {w: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w: AffinePermutation) -> int:
        return self.terms.get(w, 0)

    def __add__(self, other: "NilCoxeterElement") -> "NilCoxeterElement":
        if self.n != other.n:
            raise InvalidInputError("period mismatch")
        if (self.grade is not None and other.grade is not None
                and self.grade != other.grade):
            raise GradingError(
                f"cannot add grades {self.grade} and {other.grade}")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NilCoxeterElement(self.n, out)

    def __sub__(self, other: "NilCoxeterElement") -> "NilCoxeterElement":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "NilCoxeterElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return NilCoxeterElement(self.n,
                                 {w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other: "NilCoxeterElement") -> "NilCoxeterElement":
        """Bilinear extension of the length-additive product."""
        if not isinstance(other, NilCoxeterElement):
            return NotImplemented
        if self.n != other.n:
            raise InvalidInputError("period mismatch")
        out: dict[AffinePermutation, int] = {}
        for v, a in self.terms.items():
            for w, b in other.terms.items():
                vw = v * w
                if vw.length == v.length + w.length:
                    out[vw] = out.get(vw, 0) + a * b
        return NilCoxeterElement(self.n, out)

    def __repr__(self) -> str:
        if not self.terms:
            return f"NilCoxeterElement(n={self.n}, 0)"
        body = " + ".join(
            f"{c}*A{list(w.window)}"
            for w, c in sorted(self.terms.items(),
                               key=lambda t: (t[0].length, t[0].window)))
        return f"NilCoxeterElement(n={self.n}: {body})"


def hh(i: int, n: int) -> NilCoxeterElement:
    """``sum A_{d_J}`` over ``|J| = i``, for ``0 <= i < n``; the unit for
    i = 0."""
    if not 0 <= i < n:
        raise InvalidInputError(f"hh index {i} must lie in [0, {n})")
    return NilCoxeterElement(
        n, {cyclic_element(n, members, True): 1
            for members in proper_subsets(n, i)})


def ee(i: int, n: int) -> NilCoxeterElement:
    """``sum A_{u_J}`` over ``|J| = i``, for ``0 <= i < n``: cyclically
    increasing elements."""
    if not 0 <= i < n:
        raise InvalidInputError(f"ee index {i} must lie in [0, {n})")
    return NilCoxeterElement(
        n, {cyclic_element(n, members, False): 1
            for members in proper_subsets(n, i)})


def quotient_project(a: NilCoxeterElement, ctype: CylType) -> NilCoxeterElement:
    """Drop every term outside the type (m, n) basis."""
    return NilCoxeterElement(
        a.n, {w: c for w, c in a.terms.items() if in_A(w, ctype)})


def nc_kschur(u: AffinePermutation,
              cap: int = DEFAULT_KSCHUR_CAP) -> NilCoxeterElement:
    """``sum_w c^w_u A_w`` over all ``w`` of length ``len(u)``.

    ``c^w_u`` is the coefficient of ``F_u`` in the Schur expansion of
    ``F_w``; the result has exactly one 0-Grassmannian key, namely ``u``
    itself with coefficient 1 (tested, not assumed).
    """
    if not u.is_grassmannian(0):
        raise InvalidInputError(f"{u} is not 0-Grassmannian")
    if u.length > cap:
        raise CapExceededError(f"length {u.length} exceeds cap {cap}")
    terms: dict[AffinePermutation, int] = {}
    for w in elements_by_length(u.n, u.length)[u.length]:
        c = expand_affine_schur(w).coeffs.get(u, 0)
        if c:
            terms[w] = c
    return NilCoxeterElement(u.n, terms)
