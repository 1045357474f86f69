"""Affine Stanley symmetric functions and their affine Schur expansion.

The expansion algorithm.  Given ``w``, find ``v`` with ``w*v`` Grassmannian
and lengths adding (two constructions below), rotate so the descent sits at
zero, and peel the canonical tail: writing ``lam`` for the shape of ``v``
with last part ``b`` at index ``l``, the dual Pieri rule applied to
``w' = w * d_J0`` with ``J0 = [-l+1, b-l]`` gives

    F_w  =  sum F_{u_J w'}  -  sum F_{w' u_J}      (|J| = b, lengths drop,
                                                    J != J0 in the second sum)

The ``J`` whose lengths drop are exactly the left and right cyclically
decreasing factors of ``w'`` of size ``b`` (a left one is a right increasing
factor of ``w'^-1``), which :func:`cylkit.affine.cyclic_factors` gives with
their runs.  The recursion runs on ``(window, tail)``: every product is a
run of swaps on a window, the head's ``g(lam)^-1 = u_{J_1} ... u_{J_p}`` too,
and it builds no element per branch: only the two that each branching
state hands to the factor search, and its table keys, once per leaf class.

Every element on the right carries a strictly smaller tail shape in the
termination order :func:`cylkit.partitions.schedule_less` (smaller size
first, then lexicographically larger first), which the recursion asserts on
every branch, so the signed recursion terminates with the coefficients of
the affine Schur functions.  A state's table, the expansion of ``F_u``, is
memoized once per rotation orbit of ``u`` and asserted positive, not
assumed, as it is stored (see :func:`_expand_state`).  A brute-force oracle
certifies the same expansion independently: it resolves the monomial
table of ``w`` against the affine Schur basis by unitriangular elimination
(:func:`cylkit.symfunc.resolve`, the solver of the Schur change of basis),
since the affine Schur function of a bounded partition ``lam`` is ``m_lam``
plus monomials dominance-below ``lam``.  Its monomial tables are chains of
left-factor peels, folded by :func:`cylkit.symfunc.chain_table`.

Grassmannianization.  The generic construction sweeps the code ``c_i`` into
a decreasing run by sliding maxima rightward (each slide is an ascent, so
lengths add), on the integer list alone; the bound is ``sum i*(k-i)``.  For
elements of a cylindric type the constructed ``v`` is instead a skew
boundary word from a flat boundary, with the much smaller bound
``(n-m)(m-1)/2``; the expansion takes it whenever every letter occurs, as
the sweep grew the recursion's states up to 200-fold on such elements.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from cylkit import memo
from cylkit.affine import (
    AffinePermutation,
    code_shape,
    cyclic_factors,
    cyclic_word,
    grassmannian_code,
    grassmannian_from_kbounded,
    inverse_window,
    letter_multiplicities,
    proper_subsets,
    rotate,
    rotation_key,
    shape_of,
    times_runs,
    turned_window,
    window_descents,
)
from cylkit.cylindric import (
    DEFAULT_TABLEAU_CAP,
    CylType,
    CylindricShape,
    PeriodicSequence,
    boundary_word,
    cylindric_schur_poly,
    in_A,
    is_toric,
    phi,
    shape_new,
    skew_word,
)
from cylkit.errors import CapExceededError, InvalidInputError, PositivityError
from cylkit.partitions import Partition, check_partition, fits_box, schedule_less
from cylkit.symfunc import (
    SymmetricPolynomial,
    WeightTable,
    chain_table,
    expand_in_schur,
    resolve,
)

DEFAULT_EXPAND_CAP = 40
DEFAULT_STANLEY_CAP = 14
DEFAULT_ORACLE_CAP = 9

_EXPAND_MEMO: dict = memo.table()
_PEEL_WORDS_CACHE: dict = memo.table()


def _peel_words(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Canonical words of ``d_J`` over every ``J`` of ``size`` elements, in
    the order of ``proper_subsets``; built once per ``(n, size)``."""
    hit = _PEEL_WORDS_CACHE.get((n, size))
    if hit is None:
        hit = _PEEL_WORDS_CACHE.setdefault((n, size), tuple(
            cyclic_word(n, members, True)
            for members in proper_subsets(n, size)))
    return hit


# -- monomial expansion --------------------------------------------------------


def stanley_monomials(w: AffinePermutation, nvars: int) -> SymmetricPolynomial:
    """The monomial expansion of ``F_w`` in ``nvars`` variables: the table
    of :func:`_stanley_table`, validated as a symmetric polynomial."""
    return SymmetricPolynomial.from_weight_table(
        nvars, w.length, _stanley_table(w, nvars))


def _stanley_table(w: AffinePermutation, nvars: int) -> WeightTable:
    """Coefficient of ``x^alpha``: factorizations of ``w`` into ``nvars``
    cyclically decreasing factors with lengths ``alpha`` (identity factors
    allowed).  ``F_w`` is symmetric (Lam 2006), so only the factorizations
    whose lengths never increase are counted, one per partition ``alpha``
    padded with zeros to ``nvars`` entries (the raw chain table).

    Computed by peeling left factors ``u = d_J * rest`` length-additively,
    on the inverse window ``y = u^-1`` alone: ``s_i`` is a left descent of
    ``u`` iff ``y(i) > y(i+1)`` (``y(0) = y(n) - n``), and ``s_i * u`` has
    the inverse window ``y`` with positions ``i, i+1`` swapped.  Each ``J``
    is tested one letter of the canonical word of ``d_J`` at a time and
    dropped at the first letter that is not a descent, so no product and no
    length is computed; :func:`cylkit.symfunc.chain_table` folds the chains
    of states ``(y, len(u))`` down to ``(identity, 0)``.  The route is
    independent of :func:`cylkit.affine.cyclic_factors`, which the oracle
    certifies.
    """
    if w.length > DEFAULT_STANLEY_CAP:
        raise CapExceededError(
            f"length {w.length} exceeds cap {DEFAULT_STANLEY_CAP}")
    n = w.n

    def step(state: tuple[tuple[int, ...], int]):
        y, ell = state
        for size in range(min(n - 1, ell) + 1):
            for word in _peel_words(n, size):
                z = list(y)
                for i in word:
                    if i:
                        a, b = z[i - 1], z[i]
                        if a < b:
                            break
                        z[i - 1], z[i] = b, a
                    else:
                        a, b = z[-1] - n, z[0]
                        if a < b:
                            break
                        z[0], z[-1] = a, b + n
                else:
                    yield (tuple(z), ell - size), size

    return chain_table(("stanley", n), (w.inverse().window, w.length), nvars,
                       step, (tuple(range(1, n + 1)), 0), w.length)


# -- Grassmannianization -------------------------------------------------------


def _already_grassmannian(w: AffinePermutation) -> tuple[AffinePermutation, int] | None:
    """``(identity, p)`` for the least ``p`` with ``w`` p-Grassmannian, or
    None: ``w`` is p-Grassmannian iff its right descents lie in ``{p}``, so
    one descent scan decides, and the identity takes ``p = 0``."""
    descents = w.right_descents()
    if len(descents) > 1:
        return None
    return AffinePermutation.identity(w.n), min(descents, default=0)


def grassmannianize(w: AffinePermutation) -> tuple[AffinePermutation, int]:
    """A small ``v`` with ``w*v`` p-Grassmannian and lengths adding.

    Sweep construction on the code ``c_i``: grow a weakly decreasing run by
    sliding the largest remaining value to the run's end, one ascent at a
    time, on the integer list alone (an ascent ``w*s_i`` maps
    ``(c_i, c_{i+1})`` to ``(c_{i+1}, c_i + 1)``).  ``len(v) <= sum_{i<k}
    i*(k-i)`` with ``k = n - 1``.  Ties are broken toward the smallest
    window position.
    """
    ready = _already_grassmannian(w)
    if ready is not None:
        return ready
    n = w.n
    code = list(w.code())  # code[i - 1] == c_i, read at positions mod n
    letters: list[int] = []

    # run start q+1; seed with the global maximum
    q = code.index(max(code))
    r = 1
    while r < n - 1:
        tail = range(q + r + 1, q + n + 1)
        best = max(code[(pos - 1) % n] for pos in tail)
        j = next(pos for pos in tail if code[(pos - 1) % n] == best)
        if j == q + r + 1:
            r += 1
            continue
        delta = j - (q + r + 1)
        for a in range(r):
            start = q + r - a
            for t in range(delta):
                i = start + t  # swap positions i and i + 1
                x, y = (i - 1) % n, i % n
                code[x], code[y] = code[y], code[x] + 1
                letters.append(y)
        q = j - r - 1
        r += 1
    p = q % n
    v = AffinePermutation.from_word(n, letters)
    cur = w * v
    bound = sum(i * (n - 1 - i) for i in range(1, n - 1))
    if v.length > bound:
        raise AssertionError(f"sweep exceeded the bound {bound}")
    if v.length != len(letters):
        raise AssertionError("sweep word is not reduced")
    if not cur.is_grassmannian(p):
        raise AssertionError("sweep did not reach a Grassmannian element")
    if cur.length != w.length + v.length:
        raise AssertionError("sweep lost length additivity")
    return v, p


def _candidate_boundaries(ctype: CylType):
    """All boundaries up to value translation by n: ``R_m = offset`` and the
    gaps ``R_{p-1} - R_p`` read from the bottom row up."""
    m, n = ctype.m, ctype.n
    for offset in range(n):
        for gaps in itertools.product(range(n - m + 1), repeat=m - 1):
            if sum(gaps) > n - m:
                continue
            rows = tuple(itertools.accumulate(gaps, initial=offset))[::-1]
            # up from R_m the rows rise by gaps >= 0 that sum to <= n - m
            yield PeriodicSequence._trusted(ctype, rows)


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

    beta = next((b for b in _candidate_boundaries(ctype)
                 if b.act(w) is not None), None)
    if beta is None:
        raise AssertionError(f"no boundary admits the action of {w}")

    def flat_cells(a: int) -> int:
        floor = beta.row_bound(a + m - 1)
        return sum(beta.row_bound(r) - floor for r in range(a, a + m))

    a = min(range(1, m + 1), key=lambda cand: (flat_cells(cand), cand))
    floor = beta.row_bound(a + m - 1)
    rows = tuple(floor + (n - m) if p < a else floor for p in range(1, m + 1))
    # weakly decreasing, and R_1 - R_m is 0 or n - m
    alpha = PeriodicSequence._trusted(ctype, rows)

    v = boundary_word(alpha, beta)
    p = (floor + 1 - a) % n
    bound = (n - m) * (m - 1) // 2
    if v.length > bound:
        raise AssertionError(f"flat-anchor bound {bound} exceeded")
    wv = w * v
    # v is in A(m, n) (it acts on alpha) and p-Grassmannian (a factor of wv)
    if wv.length != w.length + v.length or not wv.is_grassmannian(p):
        raise AssertionError("tight grassmannianization failed")
    return v, p


# -- the expansion -------------------------------------------------------------


@dataclass(frozen=True)
class AffineSchurExpansion:
    """Integer coefficients on 0-Grassmannian keys (made by :func:`_expand_state`
    or the oracle's ``grassmannian_from_kbounded``), and each key's shape
    ``phi(u)`` when the element is in the basis of a given type."""

    n: int
    coeffs: dict  # AffinePermutation -> int
    shapes: dict | None = field(default=None, compare=False)  # u -> CylindricShape

    def items_sorted(self) -> list[tuple[AffinePermutation, int]]:
        return sorted(self.coeffs.items(),
                      key=lambda item: (item[0].length, item[0].window))

    def to_rows(self) -> list[dict]:
        """Keys rendered as window, k-bounded partition, and (with shapes)
        as the shape pair (nu, e)."""
        rows = []
        for u, c in self.items_sorted():
            row = {"n": self.n, "window": list(u.window),
                   "word": list(u.reduced_word()),
                   "kbounded": list(shape_of(u)), "coeff": c}
            if self.shapes is not None:
                s = self.shapes[u]
                row["nu"] = list(s.lam)
                row["e"] = s.d
            rows.append(row)
        return rows


def dual_pieri_branches(n: int, win: tuple[int, ...], length: int, part_size: int,
                        part_index: int) -> tuple[list, list]:
    """The two branch families for peeling a tail block of ``part_size`` at
    1-based ``part_index`` off the ``w`` of window ``win`` and length
    ``length``: with ``w' = w * d_J0``, the windows of ``B_plus = { u_J w'
    }`` and the pairs (runs of ``J``, window of ``w' u_J``) of ``B_minus =
    { w' u_J : J != J0 }``, over ``|J| = part_size`` with lengths dropping
    by ``part_size`` (so every branch has the length ``length``).

    ``w'`` is ``d_J0``'s swaps on ``win`` (:func:`cylkit.affine.times_runs`),
    and ``J0`` is admissible iff each was an ascent.  The admissible ``J``
    and their runs come from :func:`cylkit.affine.cyclic_factors`: a minus
    branch is ``u_J``'s swaps on the window of ``w'``, and a plus branch,
    a left product, is ``d_J``'s swaps on the inverse window (``(u_J w')^-1
    = w'^-1 d_J``), inverted back.
    """
    if not 1 <= part_size <= n - 1 or part_index < 1:
        raise InvalidInputError(f"bad block ({part_size}, {part_index})")
    start = (1 - part_index) % n
    block = [(start, start + part_size - 1)]  # J0 = [-l+1, b-l]
    top, falls = times_runs(win, n, block, True)
    if falls:
        raise InvalidInputError("tail block is not length-additive")
    inv = inverse_window(n, top)
    length += part_size
    left = cyclic_factors(AffinePermutation._trusted(n, inv, length), part_size, False)
    right = cyclic_factors(AffinePermutation._trusted(n, top, length), part_size)
    b_plus = [inverse_window(n, times_runs(inv, n, runs, True)[0]) for _, runs in left]
    b_minus = [(runs, times_runs(top, n, runs, False)[0])
               for _, runs in right if runs != block]
    return b_plus, b_minus


def _head_inverse(n: int, head: Partition) -> tuple[int, ...]:
    """The window of ``g(head)^-1 = u_{J_1} ... u_{J_p}``, ``J_j = [1-j,
    head_j - j]``: one run of swaps per part on the identity window, each
    of them an ascent, as ``g(head)`` has length ``|head|``."""
    win, falls = times_runs(range(1, n + 1), n,
                            [(1 - j, part - j) for j, part in enumerate(head, 1)], False)
    if falls:
        raise AssertionError(f"head {head} is not length-additive")
    return win


def _expand_state(n: int, win: tuple[int, ...], length: int, tail: Partition) -> dict:
    """Expansion table of ``F_u`` for the ``u`` of window ``win``, given
    that ``u * (canonical tail)`` is 0-Grassmannian, memoized on the
    rotation class of ``u`` alone (:func:`cylkit.affine.rotation_key`): the
    affine Schur functions are unitriangular against ``m_lam``, so the
    table does not depend on the tail, and ``F_{f^t(u)} = F_u`` (Lam 2006).

    Every branch keeps its state's length, so every state has ``length``,
    the top's.  A state with at most one right descent ``p`` is a leaf:
    ``F`` of the 0-Grassmannian ``rotate(u, -p)`` is its affine Schur
    function (Lam 2006), and that key is built there, with ``length``.
    Other states branch by :func:`dual_pieri_branches`; a minus branch's
    new tail ``d_J g(head)`` is ``u_J``'s swaps on :func:`_head_inverse`,
    inverted back, asserted 0-Grassmannian, and its code gives its shape
    and its size, which additivity asks to be ``|tail|``.  Every table is
    affine Schur positive (Lam 2008): a negative coefficient raises
    :class:`PositivityError` naming ``u`` as the table is stored.
    """
    key = (n, rotation_key(n, win))
    hit = _EXPAND_MEMO.get(key)
    if hit is not None:
        return hit
    descents = list(window_descents(n, win))
    if not tail and any(descents):  # a right descent other than 0
        raise AssertionError(f"base case is not Grassmannian: {win}")
    if len(descents) <= 1:
        leaf = AffinePermutation._trusted(
            n, turned_window(n, win, -min(descents, default=0) % n), length)
        return _EXPAND_MEMO.setdefault(key, {leaf: 1})

    b_plus, b_minus = dual_pieri_branches(n, win, length, tail[-1], len(tail))
    head = tail[:-1]
    branches = [(x, +1, head) for x in b_plus]
    if b_minus:  # only the minus branches read the head
        g_inv = _head_inverse(n, head)
        for runs, y in b_minus:
            z = inverse_window(n, times_runs(g_inv, n, runs, False)[0])
            if any(a > b for a, b in zip(z, z[1:])):
                raise AssertionError("negative-branch tail not Grassmannian")
            code = grassmannian_code(n, z)
            if sum(code) != sum(tail):  # sum(code) is the length
                raise AssertionError("negative-branch tail not additive")
            branches.append((y, -1, code_shape(code)))

    out: Counter = Counter()
    for x, sign, sub_tail in branches:
        if not schedule_less(sub_tail, tail):
            raise AssertionError("termination metric did not decrease")
        for key2, c in _expand_state(n, x, length, sub_tail).items():
            out[key2] += sign * c
    result = {k: c for k, c in out.items() if c}
    if any(c < 0 for c in result.values()):
        raise PositivityError(
            f"negative coefficient for {AffinePermutation._trusted(n, win)}: {result}")
    return _EXPAND_MEMO.setdefault(key, result)


def expand_affine_schur(w: AffinePermutation, ctype: CylType | None = None,
                        cap: int = DEFAULT_EXPAND_CAP) -> AffineSchurExpansion:
    """``F_w = sum c_u F_u`` over 0-Grassmannian ``u``; all ``c_u >= 0``.

    With a type given and ``w`` in its basis, the support check is ``phi``
    on each key (a key off the basis raises :class:`PositivityError` naming
    it), and the result carries the shapes.  Such a ``w`` using every letter
    takes the flat anchor, never the sweep, whose longer ``v`` grew the
    states up to 200-fold on full-support shapes of Gr(3,10) and Gr(4,12).

    The table is read from the memo of :func:`_expand_state` under the
    rotation class of ``w`` before anything is Grassmannianized; on a miss
    the recursion starts at ``rotate(w, -p)``, in the same class, and
    stores the table there, positivity checked.  ``in_A`` and the "every
    letter occurs" test do not change under rotation, so the basis and the
    choice of the tight Grassmannianization agree across an orbit.  The cap,
    the basis and the support check still run on every call.  The rotated
    ``w*v`` is not checked again: both Grassmannianizations assert it
    before rotation, and a rotation keeps lengths and shifts descents.
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds cap {cap}")
    in_basis = ctype is not None and in_A(w, ctype)
    table = _EXPAND_MEMO.get((w.n, rotation_key(w.n, w.window)))
    if table is None:
        tight = in_basis and all(c > 0 for c in letter_multiplicities(w).values())
        v, p = grassmannianize_321(w, ctype) if tight else grassmannianize(w)
        table = _expand_state(w.n, rotate(w, -p).window, w.length, shape_of(rotate(v, -p)))
    shapes = None
    if in_basis:
        try:
            shapes = {u: phi(u, ctype) for u in table}
        except InvalidInputError as exc:
            raise PositivityError(f"support of {w} left the basis: {exc}") from None
    return AffineSchurExpansion(w.n, table, shapes)


# -- brute-force oracle ----------------------------------------------------------


def oracle_expand(w: AffinePermutation,
                  cap: int = DEFAULT_ORACLE_CAP) -> AffineSchurExpansion:
    """Expansion coefficients by resolving the monomial table of ``w``
    against the affine Schur basis of the same degree, independent of the
    recursion above.

    The affine Schur function of ``g(lam)`` is ``m_lam`` plus monomials
    strictly dominance-below ``lam`` (Lam, "Affine Stanley symmetric
    functions", 2006), so :func:`cylkit.symfunc.resolve` clears the table
    lead by lead; a lead with a part ``>= n`` has no basis element.  Only
    the columns the elimination reaches are built, and the chain memo of
    :func:`cylkit.symfunc.chain_table` keeps them.  The elimination runs on
    the raw chain tables, keyed by partitions padded with zeros to the
    degree (padding keeps the lex order), and each lead is validated once,
    as the partition of its basis element.  :class:`SolveError` is raised
    if a column is not unitriangular or the table of ``w`` is not in their
    span.
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds oracle cap {cap}")
    n = w.n

    def element(lead: tuple[int, ...]) -> AffinePermutation:
        return grassmannian_from_kbounded(n, lead[:len(lead) - lead.count(0)])

    def column(lead: tuple[int, ...]) -> dict | None:
        if lead[:1] >= (n,):
            return None
        g = element(lead)
        return _stanley_table(g, g.length)

    coeffs = resolve(_stanley_table(w, w.length), column)
    return AffineSchurExpansion(n, {element(lead): c for lead, c in coeffs.items()})


# -- cylindric wrapper -------------------------------------------------------------


@dataclass(frozen=True)
class SchurExpansion:
    """Coefficients on shapes ``nu/e/()``, keys ``(nu, e)``."""

    coeffs: dict  # (Partition, int) -> int

    def items_sorted(self) -> list[tuple[tuple[Partition, int], int]]:
        return sorted(self.coeffs.items(),
                      key=lambda item: (item[0][1], sum(item[0][0]), item[0][0]))

    def to_rows(self) -> list[dict]:
        return [{"partition": list(nu), "e": e, "coeff": c}
                for (nu, e), c in self.items_sorted()]


def expand_cylindric(shape: CylindricShape,
                     cap: int = DEFAULT_EXPAND_CAP) -> SchurExpansion:
    """Expansion of the cylindric skew Schur function of ``shape`` into
    cylindric Schur functions ``nu/e/()``; coefficients are non-negative."""
    expansion = expand_affine_schur(skew_word(shape), ctype=shape.ctype, cap=cap)
    # a skew word is in the basis of its type, so every key has its shape
    return SchurExpansion({(s.lam, s.d): expansion.coeffs[u]
                           for u, s in expansion.shapes.items()})


def gromov_witten(ctype: CylType, lam, d: int, mu, nu,
                  cap: int = DEFAULT_EXPAND_CAP) -> int:
    """The 3-point invariant ``C^{lam,d}_{mu,nu}`` of Gr(m, n).

    Degree-0 coefficient of the cylindric expansion; zero unless
    ``|lam| + n*d == |mu| + |nu|``; for ``d = 0`` this is the classical
    Littlewood-Richardson coefficient.  ``cap`` bounds the cell count of
    ``lam/d/mu`` as in :func:`expand_cylindric`.
    """
    m, n = ctype.m, ctype.n
    nu = check_partition(tuple(nu))
    if not fits_box(nu, m, n - m):
        raise InvalidInputError(f"nu={nu} does not fit the ({m},{n}) box")
    shape = shape_new(ctype, lam, d, mu)
    if sum(shape.lam) + n * d != sum(shape.mu) + sum(nu):
        return 0
    return expand_cylindric(shape, cap=cap).coeffs.get((nu, 0), 0)


def toric_gw_oracle(ctype: CylType, lam, d: int, mu,
                    cap: int = DEFAULT_TABLEAU_CAP) -> dict[Partition, int]:
    """Independent route: Schur-resolve the toric polynomial in m variables.

    Equals the degree-0 slice of :func:`expand_cylindric` on toric shapes.
    ``cap`` bounds the cell count as in
    :func:`cylkit.cylindric.cylindric_schur_poly`.
    """
    shape = shape_new(ctype, lam, d, mu)
    if not is_toric(shape):
        raise InvalidInputError(f"{shape} is not toric")
    poly = cylindric_schur_poly(shape, ctype.m, cap=cap)
    table = expand_in_schur(poly)
    m, n = ctype.m, ctype.n
    for nu in table:
        if nu and (len(nu) > m or nu[0] > n - m):
            raise AssertionError(f"toric expansion left the box at {nu}")
    return table

