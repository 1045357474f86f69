"""Affine Stanley symmetric functions and their affine Schur expansion.

The expansion algorithm.  Given ``w``, find ``v`` with ``w*v`` Grassmannian
and lengths adding (two constructions below), rotate so the descent sits at
zero, and peel the canonical tail: writing ``lam`` for the shape of ``v``
with last part ``b`` at index ``l``, the dual Pieri rule applied to
``w' = w * d_J0`` with ``J0 = [-l+1, b-l]`` gives

    F_w  =  sum F_{u_J w'}  -  sum F_{w' u_J}      (|J| = b, lengths drop,
                                                    J != J0 in the second sum)

Every element on the right carries a strictly smaller tail shape in the
termination order :func:`cylkit.partitions.schedule_less` (smaller size
first, then lexicographically larger first), which the recursion asserts on
every branch, so the signed recursion terminates with the coefficients of
the affine Schur functions; positivity of the final table is asserted,
not assumed.  A brute-force oracle (exact linear solve of monomial
expansions against the Grassmannian basis) certifies the same expansion
independently.

Grassmannianization.  The generic construction sweeps the inversion
statistics ``c_i`` into a decreasing run by sliding maxima rightward (each
slide is an ascent, so lengths add); the bound is ``sum i*(k-i)``.  For
elements of a cylindric type the constructed ``v`` is instead a skew
boundary word from a flat boundary, with the much smaller bound
``(n-m)(m-1)/2``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from cylkit import memo
from cylkit.affine import (
    AffinePermutation,
    CyclicSet,
    grassmannian_from_kbounded,
    grassmannians_of_length,
    interval_set,
    letter_multiplicities,
    proper_subsets,
    rotate,
    shape_of,
)
from cylkit.cylindric import (
    CylType,
    CylindricShape,
    PeriodicSequence,
    boundary_word,
    cylindric_schur_poly,
    in_A,
    in_A0,
    is_toric,
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
from cylkit.partitions import Partition, schedule_less
from cylkit.symfunc import SymmetricPolynomial, expand_in_schur

DEFAULT_EXPAND_CAP = 40
DEFAULT_STANLEY_CAP = 14
DEFAULT_ORACLE_CAP = 9

_STANLEY_MEMO: dict = memo.table()
_EXPAND_MEMO: dict = memo.table()
_TOP_MEMO: dict = memo.table()
_CYCLIC_ELEMENT_CACHE: dict = memo.table()


def _cyclic(n: int, members: frozenset[int], decreasing: bool) -> AffinePermutation:
    key = (n, members, decreasing)
    hit = _CYCLIC_ELEMENT_CACHE.get(key)
    if hit is None:
        hit = _CYCLIC_ELEMENT_CACHE.setdefault(
            key, CyclicSet(n, members, decreasing).element())
    return hit


# -- monomial expansion --------------------------------------------------------


def stanley_monomials(w: AffinePermutation, nvars: int,
                      cap: int = DEFAULT_STANLEY_CAP) -> SymmetricPolynomial:
    """Coefficient of ``x^alpha``: factorizations of ``w`` into ``nvars``
    cyclically decreasing factors with lengths ``alpha`` (identity factors
    allowed).  Computed by peeling left factors ``w = d_J * (u_J w)``;
    symmetry of the resulting table is verified on collection.
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds cap {cap}")
    n = w.n

    def rec(u: AffinePermutation, left: int) -> dict:
        key = (n, u.window, left)
        hit = _STANLEY_MEMO.get(key)
        if hit is not None:
            return hit
        if left == 0:
            out = {(): 1} if u.is_identity() else {}
            return _STANLEY_MEMO.setdefault(key, out)
        out: dict = {}
        for size in range(min(n - 1, u.length) + 1):
            for members in proper_subsets(n, size):
                rest = _cyclic(n, members, False) * u
                if rest.length != u.length - size:
                    continue
                for suffix, c in rec(rest, left - 1).items():
                    k = (size,) + suffix
                    out[k] = out.get(k, 0) + c
        return _STANLEY_MEMO.setdefault(key, out)

    return SymmetricPolynomial.from_weight_table(nvars, w.length, rec(w, nvars))


# -- Grassmannianization -------------------------------------------------------


def _already_grassmannian(w: AffinePermutation) -> tuple[AffinePermutation, int] | None:
    for p in range(w.n):
        if w.is_grassmannian(p):
            return AffinePermutation.identity(w.n), p
    return None


def grassmannianize(w: AffinePermutation) -> tuple[AffinePermutation, int]:
    """A small ``v`` with ``w*v`` p-Grassmannian and lengths adding.

    Sweep construction on the statistics ``c_i``: grow a weakly decreasing
    run by sliding the largest remaining value to the run's end, one ascent
    at a time.  ``len(v) <= sum_{i<k} i*(k-i)`` with ``k = n - 1``.  Ties are
    broken toward the smallest window position.
    """
    ready = _already_grassmannian(w)
    if ready is not None:
        return ready
    n = w.n
    k = n - 1
    cur, v = w, AffinePermutation.identity(n)

    def cval(u: AffinePermutation, pos: int) -> int:
        return u.c_stat((pos - 1) % n + 1)

    # run start q+1; seed with the global maximum
    best = max(cval(cur, p) for p in range(1, n + 1))
    q = min(p for p in range(1, n + 1) if cval(cur, p) == best) - 1
    r = 1
    while r < n - 1:
        tail = list(range(q + r + 1, q + n + 1))
        best = max(cval(cur, p) for p in tail)
        j = min(p for p in tail if cval(cur, p) == best)
        if j == q + r + 1:
            r += 1
            continue
        delta = j - (q + r + 1)
        for a in range(r):
            start = q + r - a
            for t in range(delta):
                letter = (start + t) % n
                if cur.has_right_descent(letter):
                    raise AssertionError("sweep hit a descent; run broken")
                cur = cur.times_s(letter)
                v = v.times_s(letter)
        q = j - r - 1
        r += 1
    p = q % n
    bound = sum(i * (k - i) for i in range(1, k))
    if v.length > bound:
        raise AssertionError(f"sweep exceeded the bound {bound}")
    if not cur.is_grassmannian(p) or cur != w * v:
        raise AssertionError("sweep did not reach a Grassmannian element")
    if cur.length != w.length + v.length:
        raise AssertionError("sweep lost length additivity")
    return v, p


def _candidate_boundaries(ctype: CylType):
    """All boundaries up to value translation by n (offset x gap profiles)."""
    m, n = ctype.m, ctype.n
    for offset in range(n):
        for gaps in itertools.product(range(n - m + 1), repeat=m - 1):
            if sum(gaps) > n - m:
                continue
            base = [offset]
            for g in gaps:
                base.append(base[-1] + g)
            yield PeriodicSequence(ctype, tuple(base))


def grassmannianize_321(w: AffinePermutation,
                        ctype: CylType) -> tuple[AffinePermutation, int]:
    """Tight Grassmannianization for ``w`` in the cylindric basis.

    Requires every generator to occur in ``w``.  Finds a boundary ``beta``
    on which ``w`` acts, then takes ``v`` to be the boundary word from the
    best flat boundary ``alpha(a)`` below ``beta``; averaging the cell counts
    over the ``m`` anchors gives ``len(v) <= (n-m)(m-1)/2``.
    """
    m, n = ctype.m, ctype.n
    if w.n != n:
        raise InvalidInputError(f"period mismatch: {w.n} vs {n}")
    if not in_A(w, ctype):
        raise InvalidInputError(f"{w} is not in the ({n - m},{m}) basis")
    ready = _already_grassmannian(w)
    if ready is not None:
        return ready
    if any(c == 0 for c in letter_multiplicities(w).values()):
        raise InvalidInputError(
            "some generator never occurs; use the generic grassmannianize")

    word = w.reduced_word()
    beta = next((b for b in _candidate_boundaries(ctype)
                 if b.apply_word(word) is not None), None)
    if beta is None:
        raise AssertionError(f"no boundary admits the action of {w}")

    def flat_cells(a: int) -> int:
        floor = beta.row_bound(a + m - 1)
        return sum(beta.row_bound(r) - floor for r in range(a, a + m))

    a = min(range(1, m + 1), key=lambda cand: (flat_cells(cand), cand))
    floor = beta.row_bound(a + m - 1)
    rows = tuple(floor + (n - m) if p < a else floor for p in range(1, m + 1))
    alpha = PeriodicSequence.from_rows(ctype, rows)

    v = boundary_word(alpha, beta)
    p = (floor + 1 - a) % n
    bound = (n - m) * (m - 1) // 2
    if v.length > bound:
        raise AssertionError(f"flat-anchor bound {bound} exceeded")
    wv = w * v
    if wv.length != w.length + v.length or not wv.is_grassmannian(p):
        raise AssertionError("tight grassmannianization failed")
    if not (in_A(v, ctype) and v.is_grassmannian(p)):
        raise AssertionError("tight grassmannianization left the basis")
    return v, p


# -- the expansion -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AffineSchurExpansion:
    """Integer coefficients on 0-Grassmannian keys."""

    n: int
    coeffs: dict  # AffinePermutation -> int

    def __post_init__(self):
        for u, c in self.coeffs.items():
            if not u.is_grassmannian(0):
                raise InvalidInputError(f"key {u} is not 0-Grassmannian")
            if c == 0:
                raise InvalidInputError("zero coefficients must be dropped")

    def items_sorted(self) -> list[tuple[AffinePermutation, int]]:
        return sorted(self.coeffs.items(),
                      key=lambda item: (item[0].length, item[0].window))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSchurExpansion):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def to_rows(self, ctype: CylType | None = None) -> list[dict]:
        """Keys rendered as window, k-bounded partition, and (with a type)
        as the shape pair (nu, e)."""
        rows = []
        for u, c in self.items_sorted():
            row = {"n": self.n, "window": list(u.window),
                   "word": list(u.reduced_word()),
                   "kbounded": list(shape_of(u)), "coeff": c}
            if ctype is not None:
                s = phi(u, ctype)
                row["nu"] = list(s.lam)
                row["e"] = s.d
            rows.append(row)
        return rows


def dual_pieri_branches(w: AffinePermutation, part_size: int, part_index: int
                        ) -> tuple[list[AffinePermutation],
                                   list[tuple[frozenset[int], AffinePermutation]]]:
    """The two branch families for peeling a tail block of ``part_size`` at
    1-based ``part_index``:  with ``w' = w * d_J0``,

    ``B_plus  = { u_J w' }``  and  ``B_minus = { w' u_J : J != J0 }``

    over ``|J| = part_size`` with lengths dropping by ``part_size``.  Each
    minus branch comes as the pair ``(J, w' u_J)``.
    """
    n = w.n
    if not 1 <= part_size <= n - 1 or part_index < 1:
        raise InvalidInputError(f"bad block ({part_size}, {part_index})")
    J0 = interval_set(n, -part_index + 1, part_size - part_index, True)
    wprime = w * J0.element()
    if wprime.length != w.length + part_size:
        raise InvalidInputError("tail block is not length-additive")
    b_plus, b_minus = [], []
    for members in proper_subsets(n, part_size):
        u_j = _cyclic(n, members, False)
        x = u_j * wprime
        if x.length == wprime.length - part_size:
            b_plus.append(x)
        if members != J0.members:
            y = wprime * u_j
            if y.length == wprime.length - part_size:
                b_minus.append((members, y))
    return b_plus, b_minus


def _expand_state(n: int, u: AffinePermutation, tail: Partition) -> dict:
    """Expansion table of ``F_u`` given that ``u * (canonical tail)`` is
    0-Grassmannian; memoized on ``(u, tail)`` so shared subproblems merge."""
    key = (n, u.window, tail)
    hit = _EXPAND_MEMO.get(key)
    if hit is not None:
        return hit
    if not tail:
        if not u.is_grassmannian(0):
            raise AssertionError(f"base case is not Grassmannian: {u}")
        return _EXPAND_MEMO.setdefault(key, {u: 1})

    b_plus, b_minus = dual_pieri_branches(u, tail[-1], len(tail))
    head = tail[:-1]
    vprime = grassmannian_from_kbounded(n, head)
    branches = [(x, +1, head) for x in b_plus]
    for members, y in b_minus:
        new_tail_elem = _cyclic(n, members, True) * vprime
        if new_tail_elem.length != tail[-1] + vprime.length:
            raise AssertionError("negative-branch tail not additive")
        if not new_tail_elem.is_grassmannian(0):
            raise AssertionError("negative-branch tail not Grassmannian")
        branches.append((y, -1, shape_of(new_tail_elem)))

    out: Counter = Counter()
    for x, sign, sub_tail in branches:
        if not schedule_less(sub_tail, tail):
            raise AssertionError("termination metric did not decrease")
        for key2, c in _expand_state(n, x, sub_tail).items():
            out[key2] += sign * c
    result = {k: c for k, c in out.items() if c}
    return _EXPAND_MEMO.setdefault(key, result)


def expand_affine_schur(w: AffinePermutation, ctype: CylType | None = None,
                        cap: int = DEFAULT_EXPAND_CAP) -> AffineSchurExpansion:
    """``F_w = sum c_u F_u`` over 0-Grassmannian ``u``; all ``c_u >= 0``.

    With a type given and ``w`` in its basis, the support is checked to stay
    in the basis.  Raises :class:`PositivityError` if a negative coefficient
    survives to the final table (an internal bug, never a property of the
    input).
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds cap {cap}")
    n = w.n
    table = _TOP_MEMO.get((n, w.window))
    if table is None:
        tight = (ctype is not None and in_A(w, ctype)
                 and all(c > 0 for c in letter_multiplicities(w).values()))
        v, p = grassmannianize_321(w, ctype) if tight else grassmannianize(w)
        w0, v0 = rotate(w, -p), rotate(v, -p)
        wv = w0 * v0
        if wv.length != w0.length + v0.length or not wv.is_grassmannian(0):
            raise AssertionError("rotation lost the Grassmannian product")
        table = _expand_state(n, w0, shape_of(v0))
        if any(c < 0 for c in table.values()):
            raise PositivityError(f"negative final coefficient for {w}: {table}")
        table = _TOP_MEMO.setdefault((n, w.window), table)
    if ctype is not None and in_A(w, ctype):
        for u in table:
            if not in_A0(u, ctype):
                raise PositivityError(
                    f"support left the basis: {u} for input {w}")
    return AffineSchurExpansion(n, table)


# -- brute-force oracle ----------------------------------------------------------


def _solve_exact_integer(columns: list[dict], target: dict) -> list[int]:
    """Solve ``sum x_j * columns[j] == target`` exactly; unique solution
    required.  Gauss-Jordan over fractions, integrality enforced."""
    keys = sorted(set().union(target, *columns))
    rows = [[Fraction(col.get(k, 0)) for col in columns] + [Fraction(target.get(k, 0))]
            for k in keys]
    ncols = len(columns)
    pivot_rows: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            raise SolveError("singular system: basis columns not independent")
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_rows.append(r)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            raise SolveError("inconsistent system: target not in the span")
    out = []
    for c in range(ncols):
        val = rows[pivot_rows[c]][ncols]
        if val.denominator != 1:
            raise SolveError(f"non-integral solution component {val}")
        out.append(int(val))
    return out


def oracle_expand(w: AffinePermutation,
                  cap: int = DEFAULT_ORACLE_CAP) -> AffineSchurExpansion:
    """Expansion coefficients by exact linear solve of monomial tables
    against the affine Schur basis of the same degree, independent of the
    recursion above."""
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds oracle cap {cap}")
    n, ell = w.n, w.length
    if ell == 0:
        return AffineSchurExpansion(n, {w: 1})
    nvars = ell
    basis = grassmannians_of_length(n, ell)
    columns = [stanley_monomials(u, nvars).coeffs for u in basis]
    target = stanley_monomials(w, nvars).coeffs
    solution = _solve_exact_integer(columns, target)
    return AffineSchurExpansion(
        n, {u: c for u, c in zip(basis, solution) if c})


# -- cylindric wrapper -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SchurExpansion:
    """Coefficients on shapes ``nu/e/()``, keys ``(nu, e)``."""

    ctype: CylType
    coeffs: dict  # (Partition, int) -> int

    def items_sorted(self) -> list[tuple[tuple[Partition, int], int]]:
        return sorted(self.coeffs.items(),
                      key=lambda item: (item[0][1], sum(item[0][0]), item[0][0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self.ctype == other.ctype and self.coeffs == other.coeffs

    def to_rows(self) -> list[dict]:
        return [{"partition": list(nu), "e": e, "coeff": c}
                for (nu, e), c in self.items_sorted()]


def expand_cylindric(shape: CylindricShape,
                     cap: int = DEFAULT_EXPAND_CAP) -> SchurExpansion:
    """Expansion of the cylindric skew Schur function of ``shape`` into
    cylindric Schur functions ``nu/e/()``; coefficients are non-negative."""
    w = skew_word(shape)
    expansion = expand_affine_schur(w, ctype=shape.ctype, cap=cap)
    out: dict[tuple[Partition, int], int] = {}
    for u, c in expansion.coeffs.items():
        s = phi(u, shape.ctype)
        out[(s.lam, s.d)] = c
    return SchurExpansion(shape.ctype, out)


def gromov_witten(ctype: CylType, lam, d: int, mu, nu) -> int:
    """The 3-point invariant ``C^{lam,d}_{mu,nu}`` of Gr(m, n).

    Degree-0 coefficient of the cylindric expansion; zero unless
    ``|lam| + n*d == |mu| + |nu|``; for ``d = 0`` this is the classical
    Littlewood-Richardson coefficient.
    """
    from cylkit.partitions import check_partition, fits_box

    m, n = ctype.m, ctype.n
    nu = check_partition(tuple(nu))
    if not fits_box(nu, m, n - m):
        raise InvalidInputError(f"nu={nu} does not fit the ({m},{n}) box")
    shape = shape_new(ctype, lam, d, mu)
    if sum(shape.lam) + n * d != sum(shape.mu) + sum(nu):
        return 0
    return expand_cylindric(shape).coeffs.get((nu, 0), 0)


def toric_gw_oracle(ctype: CylType, lam, d: int, mu) -> dict[Partition, int]:
    """Independent route: Schur-resolve the toric polynomial in m variables.

    Equals the degree-0 slice of :func:`expand_cylindric` on toric shapes.
    """
    shape = shape_new(ctype, lam, d, mu)
    if not is_toric(shape):
        raise InvalidInputError(f"{shape} is not toric")
    poly = cylindric_schur_poly(shape, ctype.m)
    table = expand_in_schur(poly)
    m, n = ctype.m, ctype.n
    for nu in table:
        if nu and (len(nu) > m or nu[0] > n - m):
            raise AssertionError(f"toric expansion left the box at {nu}")
    return table

