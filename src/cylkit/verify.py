"""Property suites at configurable scale.

Each suite re-derives a family of identities and returns a
:class:`SuiteResult` with counterexample dumps instead of raising, so the
CLI can print a report and the acceptance tests can assert.  The scales at
which the suites run by default match the acceptance criteria of the
project.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from cylkit.affine import (
    AffinePermutation,
    CyclicSet,
    elements_by_length,
    enumerate_reduced_words,
    grassmannian_from_kbounded,
    is_321_avoiding,
    kbounded_from_grassmannian,
    letter_multiplicities,
    proper_subsets,
    rotate,
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
    phi_inv,
    ribbon_decomposition,
    shape_new,
    skew_word,
)
from cylkit.errors import ShapeError
from cylkit.nilcoxeter import (
    hh,
    kschur_product_coefficient_checks,
    nc_kschur,
    verify_identities,
)
from cylkit.partitions import partitions_in_box, partitions_of
from cylkit.stanley import (
    expand_affine_schur,
    expand_cylindric,
    grassmannianize,
    grassmannianize_321,
    oracle_expand,
    stanley_monomials,
    toric_gw_oracle,
)
from cylkit.symfunc import SymmetricPolynomial, lr_coeff, schur_poly, skew_schur_poly

DEFAULT_SEED = 20240811


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


def _finish(name: str, start: float, checks: int, failures: list) -> SuiteResult:
    return SuiteResult(name, not failures, checks, time.time() - start, failures)


def _w(n: int, digits: str) -> AffinePermutation:
    return AffinePermutation.from_word(n, [int(c) for c in digits])


# -- golden example -------------------------------------------------------------


def suite_example2() -> SuiteResult:
    """The worked six-letter example: branch sets, skew-Schur detours,
    the final table, and the cylindric wrapper."""
    from cylkit.stanley import dual_pieri_branches
    from cylkit.symfunc import expand_in_schur

    start = time.time()
    failures: list = []
    checks = 0
    T = CylType(3, 6)
    w = _w(6, "531420")

    def check(label: str, ok: bool):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(label)

    v, p = grassmannianize_321(w, T)
    check("tight v = 510", v == _w(6, "510") and p == 0 and v.length == 3)
    check("phi(w v) = (2,1)/1/()",
          phi(w * v, T) == shape_new(T, (2, 1), 1, ()))
    check("skew word of (2,1)/1/(2,1)",
          skew_word(shape_new(T, (2, 1), 1, (2, 1))) == w)

    b_plus, b_minus = dual_pieri_branches(w, 1, 2)
    check("B+", {x.window for x in b_plus}
          == {_w(6, d).window for d in ("541052", "341052", "354052")})
    check("B-", {y.window for _, y in b_minus} == {_w(6, "354105").window})

    check("F_541052 = s_(3,3,2)/(2)",
          stanley_monomials(_w(6, "541052"), 6)
          == skew_schur_poly((3, 3, 2), (2,), 6))
    check("F_354052 = s_(3,3,2)/(1,1)",
          stanley_monomials(_w(6, "354052"), 6)
          == skew_schur_poly((3, 3, 2), (1, 1), 6))
    check("F_354105 = s_(3,2,1)",
          stanley_monomials(_w(6, "354105"), 6) == schur_poly((3, 2, 1), 6))
    combo = (skew_schur_poly((3, 3, 2), (1, 1), 6)
             + skew_schur_poly((3, 3, 2), (2,), 6)
             - schur_poly((3, 2, 1), 6))
    check("schur resolution",
          expand_in_schur(combo) == {(2, 2, 2): 1, (3, 3): 1, (3, 2, 1): 1})

    expected = {_w(6, "345210"): 1, _w(6, "405210"): 2,
                _w(6, "540510"): 1, _w(6, "105210"): 1}
    check("golden expansion", expand_affine_schur(w).coeffs == expected)
    check("oracle agrees", oracle_expand(w).coeffs == expected)

    cyl = expand_cylindric(shape_new(T, (2, 1), 1, (2, 1)))
    pushed = {(phi(u, T).lam, phi(u, T).d): c for u, c in expected.items()}
    check("cylindric table via phi", cyl.coeffs == pushed)
    check("coefficient 2 sits on phi(405210)",
          cyl.coeffs.get((phi(_w(6, "405210"), T).lam,
                          phi(_w(6, "405210"), T).d)) == 2)
    return _finish("example2", start, checks, failures)


# -- oracle equivalence -----------------------------------------------------------


def suite_expansion_oracle(exhaustive_n=(3, 4), exhaustive_len: int = 6,
                           sampled_n=(5, 6), samples: int = 200,
                           sampled_len: int = 7,
                           seed: int = DEFAULT_SEED) -> SuiteResult:
    """Expansion == oracle; positivity; support inside the basis."""
    start = time.time()
    failures: list = []
    checks = 0

    def run_one(w: AffinePermutation):
        nonlocal checks
        checks += 1
        exp = expand_affine_schur(w)
        if exp != oracle_expand(w, cap=max(sampled_len, exhaustive_len)):
            failures.append(("oracle mismatch", w.n, w.window))
        if any(c < 0 for c in exp.coeffs.values()):
            failures.append(("negative coefficient", w.n, w.window))
        for m in range(1, w.n):
            ctype = CylType(m, w.n)
            if in_A(w, ctype):
                if not all(in_A0(u, ctype) for u in exp.coeffs):
                    failures.append(("support escape", m, w.n, w.window))

    for n in exhaustive_n:
        for level in elements_by_length(n, exhaustive_len):
            for w in level:
                run_one(w)

    rng = random.Random(seed)
    for n in sampled_n:
        pool = [w for level in elements_by_length(n, sampled_len)[1:]
                for w in level]
        for w in rng.sample(pool, min(samples, len(pool))):
            run_one(w)
    return _finish("expansion-oracle", start, checks, failures)


# -- dual Pieri rule ---------------------------------------------------------------


def suite_dual_pieri(max_n: int = 5, max_len: int = 6) -> SuiteResult:
    """Left and right factor sums agree as monomial polynomials."""
    start = time.time()
    failures: list = []
    checks = 0
    for n in range(2, max_n + 1):
        for level in elements_by_length(n, max_len):
            for w in level:
                nvars = max(1, w.length)
                for q in range(1, min(n, w.length + 1)):
                    left = SymmetricPolynomial.zero(nvars, w.length - q)
                    right = SymmetricPolynomial.zero(nvars, w.length - q)
                    for members in proper_subsets(n, q):
                        u_j = CyclicSet(n, members, False).element()
                        v = u_j * w
                        if v.length == w.length - q:
                            left = left + stanley_monomials(v, nvars)
                        v = w * u_j
                        if v.length == w.length - q:
                            right = right + stanley_monomials(v, nvars)
                    checks += 1
                    if left != right:
                        failures.append((n, w.window, q))
    return _finish("dual-pieri", start, checks, failures)


# -- offset shift property and Gromov-Witten slices -----------------------------


def _valid_shapes(ctype: CylType, max_cells: int):
    box = partitions_in_box(ctype.m, ctype.n - ctype.m)
    for lam, mu in itertools.product(box, box):
        for d in range(max_cells // ctype.n + 1):
            if not 0 <= sum(lam) - sum(mu) + ctype.n * d <= max_cells:
                continue
            try:
                yield shape_new(ctype, lam, d, mu)
            except ShapeError:
                continue


def suite_shift_property(types=((2, 4), (2, 5), (3, 6)), max_cells: int = 9,
                         toric_max_d: int = 2) -> SuiteResult:
    """Offset shift of coefficients; degree-0 slice against the toric oracle
    and against Littlewood-Richardson at d = 0."""
    start = time.time()
    failures: list = []
    checks = 0
    for m, n in types:
        ctype = CylType(m, n)
        box = partitions_in_box(m, n - m)
        for shape in _valid_shapes(ctype, max_cells):
            table = expand_cylindric(shape).coeffs
            if shape.d >= 1:
                try:
                    lower = shape_new(ctype, shape.lam, shape.d - 1, shape.mu)
                except ShapeError:
                    lower = None
                if lower is not None:
                    low = expand_cylindric(lower).coeffs
                    checks += 1
                    for (nu, e), c in table.items():
                        if e >= 1 and low.get((nu, e - 1), 0) != c:
                            failures.append(("shift", shape, nu, e))
                    for (nu, e), c in low.items():
                        if table.get((nu, e + 1), 0) != c:
                            failures.append(("shift-back", shape, nu, e))
            if shape.d == 0:
                checks += 1
                for nu in box:
                    got = table.get((nu, 0), 0)
                    if got != lr_coeff(shape.lam, shape.mu, nu):
                        failures.append(("lr", shape, nu))

        # toric shapes with offsets up to toric_max_d (cells may exceed
        # max_cells only through the offset term)
        for lam, mu in itertools.product(box, box):
            for d in range(toric_max_d + 1):
                if sum(lam) - sum(mu) + n * d > max_cells:
                    continue
                try:
                    shape = shape_new(ctype, lam, d, mu)
                except ShapeError:
                    continue
                if not is_toric(shape):
                    continue
                checks += 1
                oracle = toric_gw_oracle(ctype, lam, d, mu)
                degree_zero = {nu: c for (nu, e), c in
                               expand_cylindric(shape).coeffs.items() if e == 0}
                if oracle != degree_zero:
                    failures.append(("toric", shape, oracle, degree_zero))
                if d == 0:
                    for nu in box:
                        if oracle.get(nu, 0) != lr_coeff(lam, mu, nu):
                            failures.append(("toric-lr", shape, nu))
    return _finish("shift-property", start, checks, failures)


# -- nilCoxeter battery ---------------------------------------------------------------


def suite_nilcoxeter(types=((1, 3), (2, 4), (2, 5), (3, 6)),
                     commute_max_n: int = 5, kschur_max_len: int = 6,
                     kschur_n=(3, 4), symmetry_len: int = 7) -> SuiteResult:
    """Commutativity, dual-basis uniqueness, the ribbon theorem, the
    ribbon-power factorization and coefficient symmetries."""
    start = time.time()
    failures: list = []
    checks = 0

    for n in range(2, commute_max_n + 1):
        for i in range(n):
            for j in range(i, n):
                checks += 1
                if hh(i, n) * hh(j, n) != hh(j, n) * hh(i, n):
                    failures.append(("hh-commute", n, i, j))

    for n in kschur_n:
        for ell in range(kschur_max_len + 1):
            for lam in partitions_of(ell, max_part=n - 1):
                u = grassmannian_from_kbounded(n, lam)
                elem = nc_kschur(u, cap=kschur_max_len)
                grass = [x for x in elem.terms if x.is_grassmannian(0)]
                checks += 1
                if grass != [u] or elem.coeff(u) != 1:
                    failures.append(("kschur-unique", n, lam))

    for m, n in types:
        ctype = CylType(m, n)
        for check in verify_identities(ctype, max_len=5):
            checks += 1
            if not check.passed:
                failures.append((f"identity:{check.name}", (m, n), check.details))

    for n in kschur_n:
        checks += 1
        bad = kschur_product_coefficient_checks(n, 4)
        if bad:
            failures.append(("kschur-product", n, bad[:2]))
        checks += 1
        from cylkit.nilcoxeter import symmetry_counterexamples

        bad = symmetry_counterexamples(n, symmetry_len if n == 3 else 6)
        if bad:
            failures.append(("symmetry", n, bad[:2]))
    return _finish("nilcoxeter", start, checks, failures)


# -- Grassmannianization bounds ----------------------------------------------------------


def suite_grassmannianize_bounds(max_n: int = 5, max_len: int = 6,
                                 types=((2, 4), (2, 5), (3, 6)),
                                 max_cells: int = 8) -> SuiteResult:
    """Length bounds and postconditions of both constructions, plus the
    worked instance 531420 -> 510."""
    start = time.time()
    failures: list = []
    checks = 0

    for n in range(2, max_n + 1):
        k = n - 1
        bound = sum(i * (k - i) for i in range(1, k))
        for level in elements_by_length(n, max_len):
            for w in level:
                v, p = grassmannianize(w)
                wv = w * v
                checks += 1
                if (v.length > bound or wv.length != w.length + v.length
                        or not wv.is_grassmannian(p)):
                    failures.append(("generic", n, w.window))

    for m, n in types:
        ctype = CylType(m, n)
        bound = (n - m) * (m - 1) // 2
        for shape in _valid_shapes(ctype, max_cells):
            w = skew_word(shape)
            if any(c == 0 for c in letter_multiplicities(w).values()):
                continue
            v, p = grassmannianize_321(w, ctype)
            wv = w * v
            checks += 1
            if (v.length > bound or wv.length != w.length + v.length
                    or not wv.is_grassmannian(p) or not in_A(v, ctype)
                    or not rotate(v, -p).is_grassmannian(0)):
                failures.append(("tight", (m, n), shape))

    v, p = grassmannianize_321(_w(6, "531420"), CylType(3, 6))
    checks += 1
    if not (v == _w(6, "510") and p == 0 and v.length == 3):
        failures.append(("worked-instance", v.window, p))
    return _finish("grassmannianize-bounds", start, checks, failures)


# -- the bijection ------------------------------------------------------------------------


def suite_phi(types=((2, 4), (2, 5), (3, 6)), max_cells: int = 9,
              skew_cells: int = 7, skew_nvars: int = 4) -> SuiteResult:
    """Round trips, order equivalence, and both function equalities."""
    start = time.time()
    failures: list = []
    checks = 0
    for m, n in types:
        ctype = CylType(m, n)
        shapes = []
        for nu in partitions_in_box(m, n - m):
            for e in range(max_cells // n + 1):
                s = shape_new(ctype, nu, e, ())
                if cell_count(s) <= max_cells:
                    shapes.append(s)

        elems = {}
        for s in shapes:
            w = phi_inv(s)
            elems[s] = w
            checks += 1
            if not in_A0(w, ctype) or phi(w, ctype) != s:
                failures.append(("round-trip", (m, n), s))
            w0, dpow = ribbon_decomposition(w, ctype)
            if dpow != s.d or phi(w0, ctype).lam != s.lam:
                failures.append(("ribbon-offset", (m, n), s))

        for s1, s2 in itertools.product(shapes, repeat=2):
            w1, w2 = elems[s1], elems[s2]
            contained = s2.outer().contains(s1.outer())
            ratio = w2 * w1.inverse()
            below = ratio.length == w2.length - w1.length
            checks += 1
            if contained != below:
                failures.append(("order", (m, n), s1, s2))

        for s in shapes:
            w = elems[s]
            for nvars in range(1, cell_count(s) + 1):
                checks += 1
                if stanley_monomials(w, nvars) != cylindric_schur_poly(s, nvars):
                    failures.append(("function-equality", (m, n), s, nvars))

        for shape in _valid_shapes(ctype, skew_cells):
            w = skew_word(shape)
            for nvars in range(1, skew_nvars + 1):
                checks += 1
                if stanley_monomials(w, nvars) != cylindric_schur_poly(shape, nvars):
                    failures.append(("skew-equality", (m, n), shape, nvars))
    return _finish("phi-bijection", start, checks, failures)


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


def suite_affine_core(max_n: int = 5, max_len: int = 7) -> SuiteResult:
    """Length vs word search, 321 window criterion vs word scan, inverse of
    cyclic elements, factor maximality, the bounded-partition bijection."""
    start = time.time()
    failures: list = []
    checks = 0
    for n in range(2, max_n + 1):
        levels = elements_by_length(n, max_len)
        bfs = _bfs_distances(n, max_len)
        for ell, level in enumerate(levels):
            for w in level:
                checks += 1
                if bfs.get(w.window) != ell:
                    failures.append(("length-bfs", n, w.window))
                if n < 3:
                    continue  # braid factors are not a pattern notion mod 2
                words = enumerate_reduced_words(w, max_len)
                braid = any(
                    word[a] == word[a + 2] and (word[a + 1] - word[a]) % n in (1, n - 1)
                    for word in words for a in range(len(word) - 2))
                checks += 1
                if is_321_avoiding(w) != (not braid):
                    failures.append(("321-criterion", n, w.window))

    for n in range(2, 9):
        for size in range(n):
            for members in proper_subsets(n, size):
                checks += 1
                d = CyclicSet(n, members, True).element()
                u = CyclicSet(n, members, False).element()
                if d.inverse() != u:
                    failures.append(("dJ-inverse", n, sorted(members)))

    for n in range(2, 7):
        for total in range(9):
            for lam in partitions_of(total, max_part=n - 1):
                checks += 1
                w = grassmannian_from_kbounded(n, lam)
                if kbounded_from_grassmannian(w) != lam:
                    failures.append(("kbounded-bijection", n, lam))
    return _finish("affine-core", start, checks, failures)


def suite_add_box(max_n: int = 6, max_cells: int = 8) -> SuiteResult:
    """The generator-action relations on every small boundary."""
    start = time.time()
    failures: list = []
    checks = 0
    for n in range(2, max_n + 1):
        for m in range(1, n):
            ctype = CylType(m, n)
            seen = {empty_boundary(ctype).base}
            frontier = [empty_boundary(ctype)]
            for _ in range(max_cells):
                nxt = []
                for b in frontier:
                    for i in range(n):
                        g = b.add_box(i)
                        if g is not None and g.base not in seen:
                            seen.add(g.base)
                            nxt.append(g)
                frontier = nxt
            boundaries = [empty_boundary(ctype).__class__(ctype, base)
                          for base in seen]
            for b in boundaries:
                for i in range(n):
                    checks += 1
                    if b.apply_word((i, i)) is not None:
                        failures.append(("square", (m, n), b.base, i))
                    # braid words only exist for n >= 3 (mod 2, i+1 == i-1
                    # and the length-3 word is reduced)
                    if n >= 3 and (
                            b.apply_word((i, (i + 1) % n, i)) is not None
                            or b.apply_word(((i + 1) % n, i, (i + 1) % n)) is not None):
                        failures.append(("braid", (m, n), b.base, i))
                    for j in range(n):
                        if (i - j) % n not in (1, n - 1):
                            if b.apply_word((i, j)) != b.apply_word((j, i)):
                                failures.append(("commute", (m, n), b.base, i, j))
            for size in (n - m + 1, m + 1):
                if size >= n:
                    continue
                for members in itertools.islice(proper_subsets(n, size), 20):
                    dec = CyclicSet(n, members, True).word()
                    inc = CyclicSet(n, members, False).word()
                    for b in boundaries:
                        checks += 1
                        if size > n - m and b.apply_word(dec) is not None:
                            failures.append(("long-decreasing", (m, n), b.base))
                        if size > m and b.apply_word(inc) is not None:
                            failures.append(("long-increasing", (m, n), b.base))
    return _finish("add-box-relations", start, checks, failures)


ALL_SUITES = {
    "example2": suite_example2,
    "expansion-oracle": suite_expansion_oracle,
    "dual-pieri": suite_dual_pieri,
    "shift-property": suite_shift_property,
    "nilcoxeter": suite_nilcoxeter,
    "grassmannianize-bounds": suite_grassmannianize_bounds,
    "phi-bijection": suite_phi,
    "affine-core": suite_affine_core,
    "add-box-relations": suite_add_box,
}
