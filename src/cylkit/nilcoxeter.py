"""The affine nilCoxeter algebra and machine checks of its identities.

Elements are finite integer combinations of basis symbols ``A_w`` indexed by
affine permutations, with ``A_v * A_w = A_{vw}`` when lengths add and zero
otherwise.  Only length-graded pieces are ever represented; sums of mixed
grade are rejected, products of homogeneous elements stay homogeneous.

``hh(i, n)`` and ``ee(i, n)`` are the cyclically decreasing / increasing
generating elements; the images of ``A_w`` under the projection to the type
``(m, n)`` quotient keep exactly the basis keys (321-avoiding with bounded
one-sided factors).  ``nc_kschur`` realizes the dual basis element attached
to a 0-Grassmannian ``u`` from the Schur expansion coefficients, which makes
its uniqueness property a test rather than an input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cylkit.affine import (
    AffinePermutation,
    elements_by_length,
    proper_subsets,
    CyclicSet,
)
from cylkit.cylindric import CylType, in_A, ribbon_r
from cylkit.errors import CapExceededError, GradingError, InvalidInputError
from cylkit.stanley import expand_affine_schur

DEFAULT_KSCHUR_CAP = 8


@dataclass(frozen=True, eq=False)
class NilCoxeterElement:
    """Finite integer combination of ``A_w`` symbols, homogeneous in length."""

    n: int
    terms: dict = field(default_factory=dict)  # AffinePermutation -> int

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

    @property
    def grade(self) -> int | None:
        """Common length of the keys; None for the zero element."""
        for w in self.terms:
            return w.length
        return None

    @staticmethod
    def zero(n: int) -> "NilCoxeterElement":
        return NilCoxeterElement(n, {})

    @staticmethod
    def unit(n: int) -> "NilCoxeterElement":
        return NilCoxeterElement(n, {AffinePermutation.identity(n): 1})

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, NilCoxeterElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"NilCoxeterElement(n={self.n}, 0)"
        body = " + ".join(
            f"{c}*A{list(w.window)}"
            for w, c in sorted(self.terms.items(),
                               key=lambda t: (t[0].length, t[0].window)))
        return f"NilCoxeterElement(n={self.n}: {body})"

    def to_json(self) -> list[dict]:
        return [{"window": list(w.window), "coeff": c}
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: (t[0].length, t[0].window))]


def hh(i: int, n: int) -> NilCoxeterElement:
    """``sum A_{d_J}`` over ``|J| = i``; the unit for i = 0, zero for i < 0."""
    if i >= n:
        raise InvalidInputError(f"hh index {i} must be below the period {n}")
    if i < 0:
        return NilCoxeterElement.zero(n)
    return NilCoxeterElement(
        n, {CyclicSet(n, members, True).element(): 1
            for members in proper_subsets(n, i)})


def ee(i: int, n: int) -> NilCoxeterElement:
    """``sum A_{u_J}`` over ``|J| = i``: cyclically increasing elements."""
    if i >= n:
        raise InvalidInputError(f"ee index {i} must be below the period {n}")
    if i < 0:
        return NilCoxeterElement.zero(n)
    return NilCoxeterElement(
        n, {CyclicSet(n, members, False).element(): 1
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


# -- identity report -------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    details: str = ""


def verify_identities(ctype: CylType, max_len: int = 6) -> list[IdentityCheck]:
    """Machine-checked identities in the algebra and its quotient.

    Covers: commutativity of the ``hh`` family; vanishing of ``A_{d_J} A_i``
    (all four one-sided variants) for ``i`` in ``J``; vanishing of mixed
    increasing/decreasing products over intersecting subsets; the ribbon
    element of the quotient; the ribbon-power factorization of dual basis
    elements; and the two-sided coefficient symmetry.  Failures become report
    entries, never exceptions.
    """
    from cylkit.cylindric import phi_inv, ribbon_decomposition, shape_new
    from cylkit.partitions import partitions_in_box

    m, n = ctype.m, ctype.n
    checks: list[IdentityCheck] = []

    def record(name: str, passed: bool, details: str = ""):
        checks.append(IdentityCheck(name, passed, details))

    # h_i h_j = h_j h_i
    bad = [(i, j) for i in range(n) for j in range(i + 1, n)
           if hh(i, n) * hh(j, n) != hh(j, n) * hh(i, n)]
    record("hh-commute", not bad, f"failing pairs: {bad}" if bad else "")

    # A_{d_J} A_i and friends vanish in the quotient for i in J
    bad_ij = []
    for size in range(1, n):
        for members in proper_subsets(n, size):
            d = NilCoxeterElement.basis(CyclicSet(n, members, True).element())
            u = NilCoxeterElement.basis(CyclicSet(n, members, False).element())
            for i in members:
                a_i = NilCoxeterElement.basis(AffinePermutation.simple(n, i))
                for combo in (d * a_i, a_i * d, u * a_i, a_i * u):
                    if not quotient_project(combo, ctype).is_zero():
                        bad_ij.append((sorted(members), i))
    record("letter-in-set-vanishes", not bad_ij,
           f"failing (J, i): {bad_ij[:3]}" if bad_ij else "")

    # mixed products over intersecting subsets vanish in the quotient
    bad_rib = []
    for s1 in range(1, n):
        for J in proper_subsets(n, s1):
            uj = NilCoxeterElement.basis(CyclicSet(n, J, False).element())
            for s2 in range(1, n):
                for K in proper_subsets(n, s2):
                    if not J & K:
                        continue
                    dk = NilCoxeterElement.basis(CyclicSet(n, K, True).element())
                    if not quotient_project(uj * dk, ctype).is_zero():
                        bad_rib.append((sorted(J), sorted(K), "ud"))
                    if not quotient_project(dk * uj, ctype).is_zero():
                        bad_rib.append((sorted(J), sorted(K), "du"))
    record("intersecting-mixed-vanishes", not bad_rib,
           f"failing: {bad_rib[:3]}" if bad_rib else "")

    # the projected dual element of the ribbon is the sum of n-connected
    # ribbons u_{J^c} d_J with |J| = n - m, and equals the projection of
    # e_m h_{n-m} (either order)
    rm = ribbon_r(ctype)
    projected = quotient_project(nc_kschur(rm, cap=max(n, DEFAULT_KSCHUR_CAP)), ctype)
    expected_terms = {}
    complete = True
    for members in proper_subsets(n, n - m):
        w = (CyclicSet(n, frozenset(range(n)) - members, False).element()
             * CyclicSet(n, members, True).element())
        if w.length == n and in_A(w, ctype):
            expected_terms[w] = 1
        else:
            complete = False
    expected = NilCoxeterElement(n, expected_terms)
    ok = projected == expected and complete
    record("ribbon-support", ok, "" if ok else f"got {projected}")
    eh = quotient_project(ee(m, n) * hh(n - m, n), ctype)
    he = quotient_project(hh(n - m, n) * ee(m, n), ctype)
    record("ribbon-eh-factorization", eh == expected and he == expected,
           "" if eh == expected else f"e*h gave {eh}")

    # s_w = s_{w0} * s_{ribbon}^d after projection, over small nu/e/() shapes
    # (the cap of 9 admits the (2,1)/1/() instance of type (3,6))
    bad_decomp = []
    for nu in partitions_in_box(m, n - m):
        for e in (0, 1):
            if sum(nu) + n * e > min(max_len + n - 1, 9):
                continue
            if e == 0 and sum(nu) > 2:
                continue  # d = 0 factorization is vacuous; keep two spot cases
            w = phi_inv(shape_new(ctype, nu, e, ()))
            w0, dpow = ribbon_decomposition(w, ctype)
            lhs = quotient_project(nc_kschur(w, cap=12), ctype)
            rhs = quotient_project(nc_kschur(w0, cap=12), ctype)
            rib = quotient_project(nc_kschur(rm, cap=12), ctype)
            for _ in range(dpow):
                rhs = quotient_project(rhs * rib, ctype)
            if lhs != rhs:
                bad_decomp.append((nu, e))
    record("ribbon-power-factorization", not bad_decomp,
           f"failing shapes: {bad_decomp}" if bad_decomp else "")

    # coefficient symmetry c^{w1}_{v2} = c^{v1}_{w2} over split Grassmannians
    bad_sym = symmetry_counterexamples(n, max_len)
    record("coefficient-symmetry", not bad_sym,
           f"failing: {bad_sym[:3]}" if bad_sym else "")

    return checks


def symmetry_counterexamples(n: int, max_len: int) -> list[tuple]:
    """Violations of the two-sided coefficient symmetry, empty if none.

    For a 0-Grassmannian ``alpha`` split length-additively both as
    ``w1 * w2`` and ``v1 * v2`` with cross-equal lengths, the coefficient of
    ``F_{v2}`` in ``F_{w1}`` must equal that of ``F_{w2}`` in ``F_{v1}``.
    """
    from cylkit.affine import enumerate_reduced_words, grassmannians_of_length

    bad = []
    for ell in range(2, max_len + 1):
        for alpha in grassmannians_of_length(n, ell):
            splits: dict[int, set] = {}
            for word in enumerate_reduced_words(alpha, max_len):
                for cut in range(ell + 1):
                    left = AffinePermutation.from_word(n, word[:cut])
                    right = AffinePermutation.from_word(n, word[cut:])
                    splits.setdefault(cut, set()).add((left, right))
            for cut, pairs in splits.items():
                for w1, w2 in pairs:
                    for v1, v2 in splits.get(ell - cut, ()):
                        lhs = expand_affine_schur(w1).coeffs.get(v2, 0)
                        rhs = expand_affine_schur(v1).coeffs.get(w2, 0)
                        if lhs != rhs:
                            bad.append((alpha, w1, w2, v1, v2, lhs, rhs))
    return bad


def kschur_product_coefficient_checks(n: int, max_len: int) -> list[tuple]:
    """Violations of ``c^{u'}_u == d^w_{u,v}``, empty if none.

    For ``w`` 0-Grassmannian split as ``u' * v`` with ``v`` 0-Grassmannian
    and lengths adding, the coefficient of ``F_u`` in ``F_{u'}`` must equal
    the coefficient of ``A_w`` in ``nc_kschur(u) * nc_kschur(v)``.
    """
    from cylkit.affine import enumerate_reduced_words, grassmannians_of_length

    bad = []
    for ell in range(2, max_len + 1):
        for w in grassmannians_of_length(n, ell):
            seen = set()
            for word in enumerate_reduced_words(w, max_len):
                for cut in range(1, ell):
                    v = AffinePermutation.from_word(n, word[cut:])
                    if not v.is_grassmannian(0) or (cut, v) in seen:
                        continue
                    seen.add((cut, v))
                    uprime = AffinePermutation.from_word(n, word[:cut])
                    for u in grassmannians_of_length(n, cut):
                        lhs = expand_affine_schur(uprime).coeffs.get(u, 0)
                        rhs = (nc_kschur(u) * nc_kschur(v)).coeff(w)
                        if lhs != rhs:
                            bad.append((w, uprime, v, u, lhs, rhs))
    return bad
