"""Property suites and the nilCoxeter identity battery.

Each suite re-derives a family of identities and returns a
:class:`SuiteResult` with counterexample dumps instead of raising, so the
CLI can print a report and the acceptance tests can assert.

Every suite takes the same keywords ``max_n``, ``max_len`` and ``seed``;
``None`` means the scale of the acceptance criteria.  ``max_n = N`` keeps
the periods ``n <= N`` of every period or type list a suite enumerates, and
a list left empty runs at period ``N`` instead (for types: every ``(m, N)``).
The sampled periods of ``expansion-oracle`` are only cut.  ``max_len = L``
turns every length or cell bound ``B`` into ``min(B, L)``.  Neither raises a
bound, ``example2`` is one fixed instance, and only ``expansion-oracle``
reads ``seed``.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from cylkit.affine import (
    AffinePermutation,
    cyclic_element,
    cyclic_word,
    elements_by_length,
    enumerate_reduced_words,
    grassmannian_from_kbounded,
    grassmannians_of_length,
    is_321_avoiding,
    letter_multiplicities,
    proper_subsets,
    rotate,
    shape_of,
)
from cylkit.cylindric import (
    CylType,
    cell_count,
    cylindric_schur_poly,
    empty_boundary,
    in_A,
    in_A0,
    is_toric,
    phi,
    ribbon_decomposition,
    ribbon_r,
    shape_new,
    skew_word,
)
from cylkit.errors import ShapeError
from cylkit.nilcoxeter import (
    DEFAULT_KSCHUR_CAP,
    NilCoxeterElement,
    ee,
    hh,
    nc_kschur,
    quotient_project,
)
from cylkit.partitions import partitions_in_box, partitions_of
from cylkit.stanley import (
    dual_pieri_branches,
    expand_affine_schur,
    expand_cylindric,
    grassmannianize,
    grassmannianize_321,
    oracle_expand,
    stanley_monomials,
    toric_gw_oracle,
)
from cylkit.symfunc import (
    SymmetricPolynomial,
    expand_in_schur,
    lr_coeff,
    schur_poly,
    skew_schur_poly,
)

DEFAULT_SEED = 20240811
SHAPE_TYPES = ((2, 4), (2, 5), (3, 6))


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    seconds: float
    failures: list = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.checks} checks in {self.seconds:.1f}s"
        if self.failures:
            line += f"; first failures: {self.failures[:3]}"
        return line


class _Tally:
    """The checks one suite ran and the failures it found."""

    def __init__(self):
        self.start, self.checks, self.failures = time.time(), 0, []

    def check(self, ok: bool, *failure) -> None:
        """Count one check, and record ``failure`` unless ``ok``."""
        self.checks += 1
        if not ok:
            self.failures.append(failure)

    def finish(self, name: str) -> SuiteResult:
        """A suite passes when it ran at least one check and none failed."""
        return SuiteResult(name, self.checks > 0 and not self.failures,
                           self.checks, time.time() - self.start,
                           self.failures)


def _cut(items, max_n: int | None) -> list:
    """The periods ``n`` (or types ``(m, n)``) of ``items`` with ``n <= max_n``.

    If none is left, period ``max_n`` itself: ``[max_n]``, or every type
    ``(m, max_n)``.  ``max_n=None`` keeps all of ``items``.
    """
    items = list(items)
    if max_n is None:
        return items
    types = isinstance(items[0], tuple)
    kept = [x for x in items if (x[1] if types else x) <= max_n]
    if kept:
        return kept
    return [(m, max_n) for m in range(1, max_n)] if types else [max_n]


def _cap(bound: int, max_len: int | None) -> int:
    """A length or cell bound, lowered to ``max_len``."""
    return bound if max_len is None else min(bound, max_len)


def _w(n: int, digits: str) -> AffinePermutation:
    return AffinePermutation.from_word(n, [int(c) for c in digits])


# -- golden example -------------------------------------------------------------


def suite_example2(max_n: int | None = None, max_len: int | None = None,
                   seed: int | None = None) -> SuiteResult:
    """The worked six-letter example: branch sets, skew-Schur detours,
    the final table, and the cylindric wrapper."""
    tally = _Tally()
    T = CylType(3, 6)
    w = _w(6, "531420")

    v, p = grassmannianize_321(w, T)
    tally.check(v == _w(6, "510") and p == 0 and v.length == 3, "tight v = 510")
    tally.check(phi(w * v, T) == shape_new(T, (2, 1), 1, ()),
                "phi(w v) = (2,1)/1/()")
    tally.check(skew_word(shape_new(T, (2, 1), 1, (2, 1))) == w,
                "skew word of (2,1)/1/(2,1)")

    b_plus, b_minus = dual_pieri_branches(6, w.window, w.length, 1, 2)
    tally.check(set(b_plus)
                == {_w(6, d).window for d in ("541052", "341052", "354052")},
                "B+")
    tally.check({y for _, y in b_minus} == {_w(6, "354105").window},
                "B-")

    tally.check(stanley_monomials(_w(6, "541052"), 6)
                == skew_schur_poly((3, 3, 2), (2,), 6),
                "F_541052 = s_(3,3,2)/(2)")
    tally.check(stanley_monomials(_w(6, "354052"), 6)
                == skew_schur_poly((3, 3, 2), (1, 1), 6),
                "F_354052 = s_(3,3,2)/(1,1)")
    tally.check(stanley_monomials(_w(6, "354105"), 6)
                == schur_poly((3, 2, 1), 6), "F_354105 = s_(3,2,1)")
    combo = (skew_schur_poly((3, 3, 2), (1, 1), 6)
             + skew_schur_poly((3, 3, 2), (2,), 6)
             - schur_poly((3, 2, 1), 6))
    tally.check(expand_in_schur(combo)
                == {(2, 2, 2): 1, (3, 3): 1, (3, 2, 1): 1}, "schur resolution")

    expected = {_w(6, "345210"): 1, _w(6, "405210"): 2,
                _w(6, "540510"): 1, _w(6, "105210"): 1}
    tally.check(expand_affine_schur(w).coeffs == expected, "golden expansion")
    tally.check(oracle_expand(w).coeffs == expected, "oracle agrees")

    cyl = expand_cylindric(shape_new(T, (2, 1), 1, (2, 1)))
    pushed = {(phi(u, T).lam, phi(u, T).d): c for u, c in expected.items()}
    tally.check(cyl.coeffs == pushed, "cylindric table via phi")
    tally.check(cyl.coeffs.get((phi(_w(6, "405210"), T).lam,
                                phi(_w(6, "405210"), T).d)) == 2,
                "coefficient 2 sits on phi(405210)")
    return tally.finish("example2")


# -- oracle equivalence -----------------------------------------------------------


def suite_expansion_oracle(max_n: int | None = None, max_len: int | None = None,
                           seed: int | None = None) -> SuiteResult:
    """Expansion == oracle; positivity; support inside the basis.

    Every element of period 3 and 4 up to length 6, and 200 seeded samples
    each at periods 5 and 6 up to length 7.  The exhaustive part is closed
    under rotation, so its rotations share one expansion (the memo of
    :func:`cylkit.stanley.expand_affine_schur` is keyed by rotation class);
    the oracle side is still computed per element, so every returned table
    is checked against an independent one.
    """
    exhaustive_len, sampled_len = _cap(6, max_len), _cap(7, max_len)
    tally = _Tally()
    failures = tally.failures

    def run_one(w: AffinePermutation):
        tally.checks += 1
        exp = expand_affine_schur(w)
        if exp != oracle_expand(w, cap=max(sampled_len, exhaustive_len)):
            failures.append(("oracle mismatch", w.n, w.window))
        if any(c < 0 for c in exp.coeffs.values()):
            failures.append(("negative coefficient", w.n, w.window))
        for m in range(1, w.n):
            ctype = CylType(m, w.n)
            if in_A(w, ctype) and not all(in_A0(u, ctype) for u in exp.coeffs):
                failures.append(("support escape", m, w.n, w.window))

    for n in _cut((3, 4), max_n):
        for level in elements_by_length(n, exhaustive_len):
            for w in level:
                run_one(w)

    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    for n in (5, 6):
        if max_n is not None and n > max_n:
            continue  # cut, not replaced: the exhaustive part covers max_n
        pool = [w for level in elements_by_length(n, sampled_len)[1:]
                for w in level]
        for w in rng.sample(pool, min(200, len(pool))):
            run_one(w)
    return tally.finish("expansion-oracle")


# -- dual Pieri rule ---------------------------------------------------------------


def suite_dual_pieri(max_n: int | None = None, max_len: int | None = None,
                     seed: int | None = None) -> SuiteResult:
    """Left and right factor sums agree as monomial polynomials, at periods
    2..5 up to length 6."""
    tally = _Tally()
    for n in _cut(range(2, 6), max_n):
        for level in elements_by_length(n, _cap(6, max_len)):
            for w in level:
                nvars = max(1, w.length)
                for q in range(1, min(n, w.length + 1)):
                    left = SymmetricPolynomial.zero(nvars, w.length - q)
                    right = SymmetricPolynomial.zero(nvars, w.length - q)
                    for members in proper_subsets(n, q):
                        u_j = cyclic_element(n, members, False)
                        v = u_j * w
                        if v.length == w.length - q:
                            left = left + stanley_monomials(v, nvars)
                        v = w * u_j
                        if v.length == w.length - q:
                            right = right + stanley_monomials(v, nvars)
                    tally.check(left == right, n, w.window, q)
    return tally.finish("dual-pieri")


# -- offset shift property and Gromov-Witten slices -----------------------------


def valid_shapes(ctype: CylType, max_cells: int, max_d: int | None = None):
    """Every shape ``lam/d/mu`` with ``0 <= cells <= max_cells`` and offset
    ``d <= max_d`` (default ``max_cells // n``), by ``lam``, ``mu``, ``d``."""
    if max_d is None:
        max_d = max_cells // ctype.n
    box = partitions_in_box(ctype.m, ctype.n - ctype.m)
    for lam, mu in itertools.product(box, box):
        for d in range(max_d + 1):
            if not 0 <= sum(lam) - sum(mu) + ctype.n * d <= max_cells:
                continue
            try:
                yield shape_new(ctype, lam, d, mu)
            except ShapeError:
                continue


def suite_shift_property(max_n: int | None = None, max_len: int | None = None,
                         seed: int | None = None) -> SuiteResult:
    """Offset shift of coefficients; degree-0 slice against the toric oracle
    and against Littlewood-Richardson at d = 0; shapes of up to 9 cells."""
    max_cells = _cap(9, max_len)
    tally = _Tally()
    failures = tally.failures
    for m, n in _cut(SHAPE_TYPES, max_n):
        ctype = CylType(m, n)
        box = partitions_in_box(m, n - m)
        for shape in valid_shapes(ctype, max_cells):
            table = expand_cylindric(shape).coeffs
            if shape.d >= 1:
                try:
                    lower = shape_new(ctype, shape.lam, shape.d - 1, shape.mu)
                except ShapeError:
                    lower = None
                if lower is not None:
                    low = expand_cylindric(lower).coeffs
                    tally.checks += 1
                    for (nu, e), c in table.items():
                        if e >= 1 and low.get((nu, e - 1), 0) != c:
                            failures.append(("shift", shape, nu, e))
                    for (nu, e), c in low.items():
                        if table.get((nu, e + 1), 0) != c:
                            failures.append(("shift-back", shape, nu, e))
            if shape.d == 0:
                tally.checks += 1
                for nu in box:
                    got = table.get((nu, 0), 0)
                    if got != lr_coeff(shape.lam, shape.mu, nu):
                        failures.append(("lr", shape, nu))

        # toric shapes with offsets up to 2
        for shape in valid_shapes(ctype, max_cells, 2):
            if not is_toric(shape):
                continue
            tally.checks += 1
            lam, d, mu = shape.lam, shape.d, shape.mu
            oracle = toric_gw_oracle(ctype, lam, d, mu)
            degree_zero = {nu: c for (nu, e), c in
                           expand_cylindric(shape).coeffs.items() if e == 0}
            if oracle != degree_zero:
                failures.append(("toric", shape, oracle, degree_zero))
            if d == 0:
                for nu in box:
                    if oracle.get(nu, 0) != lr_coeff(lam, mu, nu):
                        failures.append(("toric-lr", shape, nu))
    return tally.finish("shift-property")


# -- nilCoxeter battery ---------------------------------------------------------------


def _check_identities(ctype: CylType, max_len: int, check) -> None:
    """Run ``check(ok, *failure)`` once per identity of the nilCoxeter
    algebra and its type quotient.

    Covers: vanishing of ``A_{d_J} A_i`` (all four one-sided variants) for
    ``i`` in ``J``; vanishing of mixed increasing/decreasing products over
    intersecting subsets; the ribbon element of the quotient; the
    ribbon-power factorization of dual basis elements; and the two-sided
    coefficient symmetry.  The ``hh`` family's commutativity is checked by
    :func:`suite_nilcoxeter` at every period these types use.
    """
    m, n = ctype.m, ctype.n

    # A_{d_J} A_i and friends vanish in the quotient for i in J
    bad = []
    for size in range(1, n):
        for members in proper_subsets(n, size):
            d = NilCoxeterElement.basis(cyclic_element(n, members, True))
            u = NilCoxeterElement.basis(cyclic_element(n, members, False))
            for i in members:
                a_i = NilCoxeterElement.basis(AffinePermutation.simple(n, i))
                for combo in (d * a_i, a_i * d, u * a_i, a_i * u):
                    if not quotient_project(combo, ctype).is_zero():
                        bad.append((sorted(members), i))
    check(not bad, "letter-in-set-vanishes", (m, n), bad[:3])

    # mixed products over intersecting subsets vanish in the quotient
    bad = []
    for s1 in range(1, n):
        for J in proper_subsets(n, s1):
            uj = NilCoxeterElement.basis(cyclic_element(n, J, False))
            for s2 in range(1, n):
                for K in proper_subsets(n, s2):
                    if not J & K:
                        continue
                    dk = NilCoxeterElement.basis(cyclic_element(n, K, True))
                    if not quotient_project(uj * dk, ctype).is_zero():
                        bad.append((sorted(J), sorted(K), "ud"))
                    if not quotient_project(dk * uj, ctype).is_zero():
                        bad.append((sorted(J), sorted(K), "du"))
    check(not bad, "intersecting-mixed-vanishes", (m, n), bad[:3])

    # the projected dual element of the ribbon is the sum of n-connected
    # ribbons u_{J^c} d_J with |J| = n - m, and equals the projection of
    # e_m h_{n-m} (either order)
    rm = ribbon_r(ctype)
    projected = quotient_project(nc_kschur(rm, cap=max(n, DEFAULT_KSCHUR_CAP)), ctype)
    expected_terms = {}
    complete = True
    for members in proper_subsets(n, n - m):
        w = (cyclic_element(n, frozenset(range(n)) - members, False)
             * cyclic_element(n, members, True))
        if w.length == n and in_A(w, ctype):
            expected_terms[w] = 1
        else:
            complete = False
    expected = NilCoxeterElement(n, expected_terms)
    check(projected == expected and complete, "ribbon-support", (m, n), projected)
    eh = quotient_project(ee(m, n) * hh(n - m, n), ctype)
    he = quotient_project(hh(n - m, n) * ee(m, n), ctype)
    check(eh == expected and he == expected, "ribbon-eh-factorization", (m, n),
          eh, he)

    # s_w = s_{w0} * s_{ribbon}^d after projection, over small nu/e/() shapes
    # (the cell bound of 9 admits the (2,1)/1/() instance of type (3,6))
    bad = []
    for nu in partitions_in_box(m, n - m):
        for e in (0, 1):
            if sum(nu) + n * e > min(max_len + n - 1, 9):
                continue
            if e == 0 and sum(nu) > 2:
                continue  # d = 0 factorization is vacuous; keep two spot cases
            w = skew_word(shape_new(ctype, nu, e, ()))
            w0, dpow = ribbon_decomposition(w, ctype)
            lhs = quotient_project(nc_kschur(w, cap=12), ctype)
            rhs = quotient_project(nc_kschur(w0, cap=12), ctype)
            rib = quotient_project(nc_kschur(rm, cap=12), ctype)
            for _ in range(dpow):
                rhs = quotient_project(rhs * rib, ctype)
            if lhs != rhs:
                bad.append((nu, e))
    check(not bad, "ribbon-power-factorization", (m, n), bad)

    # coefficient symmetry c^{w1}_{v2} = c^{v1}_{w2} over split Grassmannians
    bad = _symmetry_failures(n, max_len)
    check(not bad, "coefficient-symmetry", (m, n), bad[:3])


def _symmetry_failures(n: int, max_len: int) -> list[tuple]:
    """Violations of the two-sided coefficient symmetry, empty if none.

    For a 0-Grassmannian ``alpha`` split length-additively both as
    ``w1 * w2`` and ``v1 * v2`` with cross-equal lengths, the coefficient of
    ``F_{v2}`` in ``F_{w1}`` must equal that of ``F_{w2}`` in ``F_{v1}``.
    """
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


def _kschur_product_failures(n: int, max_len: int) -> list[tuple]:
    """Violations of ``c^{u'}_u == d^w_{u,v}``, empty if none.

    For ``w`` 0-Grassmannian split as ``u' * v`` with ``v`` 0-Grassmannian
    and lengths adding, the coefficient of ``F_u`` in ``F_{u'}`` must equal
    the coefficient of ``A_w`` in ``nc_kschur(u) * nc_kschur(v)``.
    """
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


def suite_nilcoxeter(max_n: int | None = None, max_len: int | None = None,
                     seed: int | None = None) -> SuiteResult:
    """Commutativity, dual-basis uniqueness, the identity battery, the
    k-Schur product coefficients and coefficient symmetries.

    Default scale: ``hh`` commutativity pair by pair at periods 2..6, which
    covers the period of every type below; dual-basis uniqueness at periods
    3, 4 up to length 6; the identities at types (1,3), (2,4), (2,5), (3,6)
    up to length 5; products up to length 4 and symmetry up to length 7
    (period 3) or 6 (period 4).
    """
    tally = _Tally()
    check = tally.check
    for n in _cut(range(2, 7), max_n):
        for i in range(n):
            for j in range(i, n):
                check(hh(i, n) * hh(j, n) == hh(j, n) * hh(i, n),
                      "hh-commute", n, i, j)

    kschur_n, kschur_len = _cut((3, 4), max_n), _cap(6, max_len)
    for n in kschur_n:
        for ell in range(kschur_len + 1):
            for lam in partitions_of(ell, max_part=n - 1):
                u = grassmannian_from_kbounded(n, lam)
                elem = nc_kschur(u, cap=kschur_len)
                grass = [x for x in elem.terms if x.is_grassmannian(0)]
                check(grass == [u] and elem.coeff(u) == 1, "kschur-unique", n, lam)

    for m, n in _cut(((1, 3), (2, 4), (2, 5), (3, 6)), max_n):
        _check_identities(CylType(m, n), _cap(5, max_len), check)

    for n in kschur_n:
        bad = _kschur_product_failures(n, _cap(4, max_len))
        check(not bad, "kschur-product", n, bad[:2])
        bad = _symmetry_failures(n, _cap(7 if n == 3 else 6, max_len))
        check(not bad, "symmetry", n, bad[:2])
    return tally.finish("nilcoxeter")


# -- Grassmannianization bounds ----------------------------------------------------------


def suite_grassmannianize_bounds(max_n: int | None = None,
                                 max_len: int | None = None,
                                 seed: int | None = None) -> SuiteResult:
    """Length bounds and postconditions of both constructions (the generic
    one at periods 2..5 up to length 6, the tight one on shapes of up to 8
    cells), plus the worked instance 531420 -> 510."""
    tally = _Tally()

    for n in _cut(range(2, 6), max_n):
        k = n - 1
        bound = sum(i * (k - i) for i in range(1, k))
        for level in elements_by_length(n, _cap(6, max_len)):
            for w in level:
                v, p = grassmannianize(w)
                wv = w * v
                tally.check(v.length <= bound
                            and wv.length == w.length + v.length
                            and wv.is_grassmannian(p), "generic", n, w.window)

    for m, n in _cut(SHAPE_TYPES, max_n):
        ctype = CylType(m, n)
        bound = (n - m) * (m - 1) // 2
        for shape in valid_shapes(ctype, _cap(8, max_len)):
            w = skew_word(shape)
            if any(c == 0 for c in letter_multiplicities(w).values()):
                continue
            v, p = grassmannianize_321(w, ctype)
            wv = w * v
            tally.check(v.length <= bound and wv.length == w.length + v.length
                        and wv.is_grassmannian(p) and in_A(v, ctype)
                        and rotate(v, -p).is_grassmannian(0),
                        "tight", (m, n), shape)

    v, p = grassmannianize_321(_w(6, "531420"), CylType(3, 6))
    tally.check(v == _w(6, "510") and p == 0 and v.length == 3,
                "worked-instance", v.window, p)
    return tally.finish("grassmannianize-bounds")


# -- the bijection ------------------------------------------------------------------------


def suite_phi(max_n: int | None = None, max_len: int | None = None,
              seed: int | None = None) -> SuiteResult:
    """Round trips, order equivalence, and both function equalities: straight
    shapes of up to 9 cells, skew shapes of up to 7 in up to 4 variables."""
    max_cells, skew_cells = _cap(9, max_len), _cap(7, max_len)
    tally = _Tally()
    for m, n in _cut(SHAPE_TYPES, max_n):
        ctype = CylType(m, n)
        shapes = []
        for nu in partitions_in_box(m, n - m):
            for e in range(max_cells // n + 1):
                s = shape_new(ctype, nu, e, ())
                if cell_count(s) <= max_cells:
                    shapes.append(s)

        elems = {}
        for s in shapes:
            w = skew_word(s)
            elems[s] = w
            tally.check(in_A0(w, ctype) and phi(w, ctype) == s,
                        "round-trip", (m, n), s)
            w0, dpow = ribbon_decomposition(w, ctype)
            if dpow != s.d or phi(w0, ctype).lam != s.lam:
                tally.failures.append(("ribbon-offset", (m, n), s))

        for s1, s2 in itertools.product(shapes, repeat=2):
            w1, w2 = elems[s1], elems[s2]
            contained = s2.outer.contains(s1.outer)
            ratio = w2 * w1.inverse()
            below = ratio.length == w2.length - w1.length
            tally.check(contained == below, "order", (m, n), s1, s2)

        for s in shapes:
            w = elems[s]
            for nvars in range(1, cell_count(s) + 1):
                tally.check(stanley_monomials(w, nvars)
                            == cylindric_schur_poly(s, nvars),
                            "function-equality", (m, n), s, nvars)

        for shape in valid_shapes(ctype, skew_cells):
            w = skew_word(shape)
            for nvars in range(1, 5):
                tally.check(stanley_monomials(w, nvars)
                            == cylindric_schur_poly(shape, nvars),
                            "skew-equality", (m, n), shape, nvars)
    return tally.finish("phi-bijection")


# -- affine core + action batteries ---------------------------------------------------------


def _bfs_distances(n: int, max_dist: int) -> dict[tuple, int]:
    """Cayley-graph distance from the identity, no descent logic involved."""
    ident = AffinePermutation.identity(n)
    dist = {ident.window: 0}
    frontier = [ident]
    for level in range(1, max_dist + 1):
        nxt = []
        for w in frontier:
            for i in range(n):
                u = w.times_s(i)
                if u.window not in dist:
                    dist[u.window] = level
                    nxt.append(u)
        frontier = nxt
    return dist


def suite_affine_core(max_n: int | None = None, max_len: int | None = None,
                      seed: int | None = None) -> SuiteResult:
    """Length vs word search and 321 window criterion vs word scan (periods
    2..5, length 7), inverse of cyclic elements (periods 2..8), the
    bounded-partition bijection (periods 2..6, length 8)."""
    length = _cap(7, max_len)
    tally = _Tally()
    for n in _cut(range(2, 6), max_n):
        levels = elements_by_length(n, length)
        bfs = _bfs_distances(n, length)
        for ell, level in enumerate(levels):
            for w in level:
                tally.check(bfs.get(w.window) == ell, "length-bfs", n, w.window)
                if n < 3:
                    continue  # braid factors are not a pattern notion mod 2
                words = enumerate_reduced_words(w, length)
                braid = any(
                    word[a] == word[a + 2] and (word[a + 1] - word[a]) % n in (1, n - 1)
                    for word in words for a in range(len(word) - 2))
                tally.check(is_321_avoiding(w) == (not braid),
                            "321-criterion", n, w.window)

    for n in _cut(range(2, 9), max_n):
        for size in range(n):
            for members in proper_subsets(n, size):
                d = cyclic_element(n, members, True)
                u = cyclic_element(n, members, False)
                tally.check(d.inverse() == u, "dJ-inverse", n, sorted(members))

    for n in _cut(range(2, 7), max_n):
        for total in range(_cap(8, max_len) + 1):
            for lam in partitions_of(total, max_part=n - 1):
                w = grassmannian_from_kbounded(n, lam)
                tally.check(shape_of(w) == lam, "kbounded-bijection", n, lam)
    return tally.finish("affine-core")


def suite_add_box(max_n: int | None = None, max_len: int | None = None,
                  seed: int | None = None) -> SuiteResult:
    """The generator-action relations on every boundary of up to 8 cells at
    periods 2..6."""
    tally = _Tally()
    failures = tally.failures
    for n in _cut(range(2, 7), max_n):
        for m in range(1, n):
            ctype = CylType(m, n)
            frontier = [empty_boundary(ctype)]
            boundaries = set(frontier)
            for _ in range(_cap(8, max_len)):
                nxt = []
                for b in frontier:
                    for i in range(n):
                        g = b.apply_word((i,))
                        if g is not None and g not in boundaries:
                            boundaries.add(g)
                            nxt.append(g)
                frontier = nxt
            for b in boundaries:
                for i in range(n):
                    tally.checks += 1
                    if b.apply_word((i, i)) is not None:
                        failures.append(("square", (m, n), b.rows, i))
                    # braid words only exist for n >= 3 (mod 2, i+1 == i-1
                    # and the length-3 word is reduced)
                    if n >= 3 and (
                            b.apply_word((i, (i + 1) % n, i)) is not None
                            or b.apply_word(((i + 1) % n, i, (i + 1) % n)) is not None):
                        failures.append(("braid", (m, n), b.rows, i))
                    for j in range(n):
                        if (i - j) % n not in (1, n - 1):
                            if b.apply_word((i, j)) != b.apply_word((j, i)):
                                failures.append(("commute", (m, n), b.rows, i, j))
            for size in (n - m + 1, m + 1):
                if size >= n:
                    continue
                for members in itertools.islice(proper_subsets(n, size), 20):
                    dec = cyclic_word(n, members, True)
                    inc = cyclic_word(n, members, False)
                    for b in boundaries:
                        tally.checks += 1
                        if size > n - m and b.apply_word(dec) is not None:
                            failures.append(("long-decreasing", (m, n), b.rows))
                        if size > m and b.apply_word(inc) is not None:
                            failures.append(("long-increasing", (m, n), b.rows))
    return tally.finish("add-box-relations")


ALL_SUITES = {  # in the order `cylkit verify` runs them
    "example2": suite_example2,
    "affine-core": suite_affine_core,
    "add-box-relations": suite_add_box,
    "dual-pieri": suite_dual_pieri,
    "grassmannianize-bounds": suite_grassmannianize_bounds,
    "phi-bijection": suite_phi,
    "expansion-oracle": suite_expansion_oracle,
    "shift-property": suite_shift_property,
    "nilcoxeter": suite_nilcoxeter,
}
