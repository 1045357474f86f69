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
run of swaps on a window, and a minus branch's new tail is ``u_J``'s swaps
on the window of ``g(head)^-1 = u_{J_1} ... u_{J_p}``, one swap run per
part on the identity window, the one builder of the canonical elements
(:func:`cylkit.affine.grassmannian_inverse_window`).
It builds no element per branch: only the two that each branching state
hands to the factor search, and its table keys, once per leaf class.

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
left-factor peels, :func:`cylkit.symfunc._stanley_table`, which lives next
to the fold :func:`cylkit.symfunc.chain_table`.

Grassmannianization.  The generic construction sweeps the code ``c_i`` into
a decreasing run by sliding maxima rightward (each slide is an ascent, so
lengths add), on the integer list alone; the bound is ``sum i*(k-i)``.
Every later slide depends on where the run is seeded, so the sweep runs
from each maximum of the code and keeps the ``v`` whose tail has the fewest
parts, then the shortest, then the first seed: the recursion peels one
part of the tail per level, so a shallower tail means fewer states (5,702
-> 4,801 tables for a random ``w`` with n = 24, length 10), while ranking
by length first raised one n = 32 element from 6,659 to 14,723 tables.
For elements of a cylindric type the constructed ``v`` is instead a skew
boundary word from a flat boundary below a boundary read off the window
(the excedances of ``w``, in O(n)), with the much smaller bound
``(n-m)(m-1)/2``; the expansion takes it whenever every letter occurs
(:func:`cylkit.affine.full_support`), as the sweep grew the recursion's
states up to 200-fold on such elements.

Imports.  The type-free expansion needs neither :mod:`cylkit.cylindric`
nor :mod:`cylkit.symfunc`, so this module does not import them at load
time, and a type-free ``cylkit expand`` loads neither.  The typed entry
points (:func:`expand_affine_schur` given a type, :func:`grassmannianize_321`,
:func:`expand_cylindric`, :func:`gromov_witten`) and the oracles
(:func:`stanley_monomials`, :func:`oracle_expand`, :func:`toric_gw_oracle`,
:func:`toric_gw_of_shape`) import the module they use once per call, never
inside the recursion or per oracle column.  They import it whole (``import cylkit.cylindric as
cylindric``): taking names from a plain module with ``from`` costs about
three times as much per call, as CPython looks for the module's missing
``__path__``.  The types ``CylType``, ``CylindricShape`` and
``SymmetricPolynomial`` in their signatures are those of the two modules.
"""

from __future__ import annotations

from cylkit import memo
from cylkit.affine import (
    AffinePermutation,
    code_shape,
    cyclic_factors,
    full_support,
    grassmannian_code,
    grassmannian_from_kbounded,
    grassmannian_inverse_window,
    inverse_window,
    rotate,
    rotation_key,
    shape_of,
    times_runs,
    turned_window,
    window_descents,
)
from cylkit.errors import (
    CapExceededError,
    ContainmentError,
    InvalidInputError,
    PositivityError,
)
from cylkit.frozen import Frozen
from cylkit.partitions import Partition, check_partition, fits_box, schedule_less

DEFAULT_EXPAND_CAP = 40
DEFAULT_STANLEY_CAP = 14
DEFAULT_ORACLE_CAP = 9

_EXPAND_MEMO: dict = memo.table()


# -- monomial expansion --------------------------------------------------------


def stanley_monomials(w: AffinePermutation, nvars: int) -> SymmetricPolynomial:
    """The monomial expansion of ``F_w`` in ``nvars`` variables: the
    factorization table of :func:`cylkit.symfunc._stanley_table`, validated
    as a symmetric polynomial.  A ``w`` longer than
    :data:`DEFAULT_STANLEY_CAP` raises :class:`CapExceededError`."""
    import cylkit.symfunc as symfunc

    return symfunc.SymmetricPolynomial.from_weight_table(
        nvars, w.length, symfunc._stanley_table(w, nvars, DEFAULT_STANLEY_CAP))


# -- Grassmannianization -------------------------------------------------------


def _already_grassmannian(w: AffinePermutation) -> tuple[AffinePermutation, int] | None:
    """``(identity, p)`` for the least ``p`` with ``w`` p-Grassmannian, or
    None: ``w`` is p-Grassmannian iff its right descents lie in ``{p}``, so
    one descent scan decides, and the identity takes ``p = 0``."""
    descents = w.right_descents()
    if len(descents) > 1:
        return None
    return AffinePermutation.identity(w.n), min(descents, default=0)


def _sweep(n: int, code: list[int], q: int) -> tuple[list[int], int, int]:
    """One run of the sweep of :func:`grassmannianize` on ``code`` (a list,
    changed in place) from the seed index ``q``, a maximum of the code:
    the letters of ``v``, the number of parts of its tail (the largest
    entry of ``v``'s code, tracked by the same ascent rule) and ``p``."""
    vcode = [0] * n
    letters: list[int] = []
    r = 1  # the run holds indices q .. q + r - 1, mod n
    while r < n - 1:
        lo = j = q + r
        best = code[lo % n]
        for idx in range(lo + 1, q + n):  # the first maximum after the run
            c = code[idx % n]
            if c > best:
                best, j = c, idx
        delta = j - lo
        for start in range(lo, q, -1):  # slide the run's entries, last first
            for i in range(start, start + delta):  # swap positions i, i + 1
                x, y = (i - 1) % n, i % n
                code[x], code[y] = code[y], code[x] + 1
                vcode[x], vcode[y] = vcode[y], vcode[x] + 1
                letters.append(y)
        q += delta
        r += 1
    return letters, max(vcode), q % n


def grassmannianize(w: AffinePermutation) -> tuple[AffinePermutation, int]:
    """A small ``v`` with ``w*v`` p-Grassmannian and lengths adding.

    Sweep construction on the code ``c_i``: seeded at a maximum, grow a
    weakly decreasing run by sliding the largest remaining value to the
    run's end, one ascent at a time, on the integer list alone (an ascent
    ``w*s_i`` maps ``(c_i, c_{i+1})`` to ``(c_{i+1}, c_i + 1)``), taking
    the first such value.  ``len(v) <= sum_{i<k} i*(k-i)`` with ``k = n -
    1``.  The sweep runs from every maximum of the code and keeps the run
    with the least ``(tail parts, len(v), seed)``: the tail ``shape(v)``
    is peeled one part per level of the dual-Pieri recursion, so fewer
    parts make a shallower recursion.  Its part count is the largest entry
    of ``v``'s code, tracked by the same ascent rule, so ranking the seeds
    builds no element.

    The chosen letters are swapped into the window of ``w``, each asserted
    an ascent, which proves that the lengths add and that the word of
    ``v`` is reduced; the bound and the descent at ``p`` are asserted too.
    """
    ready = _already_grassmannian(w)
    if ready is not None:
        return ready
    n = w.n
    code = w.code()  # code[i - 1] == c_i, read at positions mod n
    top = max(code)
    best = None
    for q in range(n):
        if code[q] == top:
            letters, parts, p = _sweep(n, list(code), q)
            if best is None or (parts, len(letters)) < best[0]:
                best = (parts, len(letters)), letters, p
    _, letters, p = best
    bound = n * (n - 1) * (n - 2) // 6  # sum_{i<k} i*(k-i), k = n - 1
    if len(letters) > bound:
        raise AssertionError(f"sweep exceeded the bound {bound}")
    top_win, falls = times_runs(w.window, n, [(i, i) for i in letters], False)
    if falls:
        raise AssertionError("sweep lost length additivity")
    if any(i != p for i in window_descents(n, top_win)):
        raise AssertionError("sweep did not reach a Grassmannian element")
    return AffinePermutation.from_word(n, letters), p


def grassmannianize_321(w: AffinePermutation,
                        ctype: CylType) -> tuple[AffinePermutation, int]:
    """Tight Grassmannianization for ``w`` in the cylindric basis.

    Requires every generator to occur in ``w``.  Reads a boundary ``beta``
    on which ``w`` acts off the window in O(n): its addable diagonals
    ``a_p = R_p + 1 - p`` are the ``m`` excedances ``w(i) > i``, ``1 <= i
    <= n``, taken cyclically from the one that puts ``R_m`` lowest mod
    ``n``; the action is asserted on every call, and the test suite
    certifies ``beta`` as the first admitting boundary of a search over all
    of them.  Then takes ``v`` to be the boundary word from the best flat
    boundary ``alpha(a)`` below ``beta``; averaging the cell counts over the
    ``m`` anchors gives ``len(v) <= (n-m)(m-1)/2``.
    """
    import cylkit.cylindric as cylindric

    m, n = ctype.m, ctype.n
    if w.n != n:
        raise InvalidInputError(f"period mismatch: {w.n} vs {n}")
    if not cylindric.in_A(w, ctype):
        raise InvalidInputError(f"{w} is not in the ({n - m},{m}) basis")
    ready = _already_grassmannian(w)
    if ready is not None:
        return ready
    if not full_support(w):
        raise InvalidInputError(
            "some generator never occurs; use the generic grassmannianize")

    ups = [i for i, x in enumerate(w.window, 1) if x > i]  # the excedances
    if len(ups) != m:
        raise AssertionError(f"{w} has {len(ups)} excedances, not {m}")
    k = min(range(m), key=lambda j: (ups[j] + m - 1) % n)
    diagonals = ups[k:] + [i + n for i in ups[:k]]  # a_m < ... < a_1 < a_m + n
    shift = (ups[k] + m - 1) // n * n  # puts R_m in [0, n)
    # a_1 > ... > a_m > a_1 - n gives R_1 >= ... >= R_m >= R_1 - (n-m)
    rows = tuple(diagonals[m - p] + p - 1 - shift for p in range(1, m + 1))
    beta = cylindric.PeriodicSequence._trusted(ctype, rows)
    if beta.act(w) is None:
        raise AssertionError(f"the boundary {rows} does not admit {w}")

    def flat_cells(a: int) -> int:
        floor = beta.row_bound(a + m - 1)
        return sum(beta.row_bound(r) - floor for r in range(a, a + m))

    a = min(range(1, m + 1), key=lambda cand: (flat_cells(cand), cand))
    floor = beta.row_bound(a + m - 1)
    rows = tuple(floor + (n - m) if p < a else floor for p in range(1, m + 1))
    # weakly decreasing, and R_1 - R_m is 0 or n - m
    alpha = cylindric.PeriodicSequence._trusted(ctype, rows)

    v = cylindric.boundary_word(alpha, beta)
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


class AffineSchurExpansion(Frozen):
    """Integer coefficients on 0-Grassmannian keys (``AffinePermutation ->
    int``, made by :func:`_expand_state` or the oracle's
    ``grassmannian_from_kbounded``), and each key's shape ``phi(u)``
    (``u -> CylindricShape``) when the element is in the basis of a given
    type.  Equal as ``(n, coeffs)``, the shapes left out; unhashable."""

    __slots__ = _repr_fields = ("n", "coeffs", "shapes")

    def __init__(self, n: int, coeffs: dict, shapes: dict | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "shapes", shapes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.coeffs) == (other.n, other.coeffs)

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
    b_plus = [inverse_window(n, times_runs(inv, n, runs, True)[0]) for runs in left]
    b_minus = [(runs, times_runs(top, n, runs, False)[0])
               for runs in right if runs != block]
    return b_plus, b_minus


def _expand_state(n: int, win: tuple[int, ...], length: int, tail: Partition,
                  key: tuple | None = None) -> dict:
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
    new tail ``d_J g(head)`` is ``u_J``'s swaps on the window of
    ``g(head)^-1`` (:func:`cylkit.affine.grassmannian_inverse_window`),
    inverted back, asserted 0-Grassmannian, and its code gives its shape
    and its size, which additivity asks to be ``|tail|``.  Every table is
    affine Schur positive (Lam 2008): a negative coefficient raises
    :class:`PositivityError` naming ``u`` as the table is stored.  A caller
    that has read the memo under ``u``'s key passes it as ``key``.
    """
    if key is None:
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
        g_inv = grassmannian_inverse_window(n, head)
        for runs, y in b_minus:
            z = inverse_window(n, times_runs(g_inv, n, runs, False)[0])
            if any(a > b for a, b in zip(z, z[1:])):
                raise AssertionError("negative-branch tail not Grassmannian")
            code = grassmannian_code(n, z)
            if sum(code) != sum(tail):  # sum(code) is the length
                raise AssertionError("negative-branch tail not additive")
            branches.append((y, -1, code_shape(code)))

    out: dict = {}
    for x, sign, sub_tail in branches:
        if not schedule_less(sub_tail, tail):
            raise AssertionError("termination metric did not decrease")
        for key2, c in _expand_state(n, x, length, sub_tail).items():
            out[key2] = out.get(key2, 0) + sign * c
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
    stores the table there, positivity checked.  A ``w`` that is
    p-Grassmannian already takes ``v = 1`` at once, before the type-driven
    choice and its checks.  ``in_A`` and the "every letter occurs" test do
    not change under rotation, so the basis and the choice of the tight
    Grassmannianization agree across an orbit.  The cap,
    the basis and the support check still run on every call.  The rotated
    ``w*v`` is not checked again: both Grassmannianizations assert it
    before rotation, and a rotation keeps lengths and shifts descents.
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds cap {cap}")
    in_basis = False
    if ctype is not None:
        import cylkit.cylindric as cylindric

        in_basis = cylindric.in_A(w, ctype)
    key = (w.n, rotation_key(w.n, w.window))
    table = _EXPAND_MEMO.get(key)
    if table is None:
        ready = _already_grassmannian(w)
        if ready is None:
            tight = in_basis and full_support(w)
            ready = grassmannianize_321(w, ctype) if tight else grassmannianize(w)
        v, p = ready
        table = _expand_state(w.n, rotate(w, -p).window, w.length,
                              shape_of(rotate(v, -p)), key)
    shapes = None
    if in_basis:
        try:
            shapes = {u: cylindric.phi(u, ctype) for u in table}
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
    import cylkit.symfunc as symfunc

    n = w.n

    def element(lead: tuple[int, ...]) -> AffinePermutation:
        return grassmannian_from_kbounded(n, lead[:len(lead) - lead.count(0)])

    def column(lead: tuple[int, ...]) -> dict | None:
        if lead[:1] >= (n,):
            return None
        g = element(lead)
        return symfunc._stanley_table(g, g.length, DEFAULT_STANLEY_CAP)

    coeffs = symfunc.resolve(symfunc._stanley_table(w, w.length, DEFAULT_STANLEY_CAP),
                             column)
    return AffineSchurExpansion(n, {element(lead): c for lead, c in coeffs.items()})


# -- cylindric wrapper -------------------------------------------------------------


class SchurExpansion(Frozen):
    """Coefficients on shapes ``nu/e/()``, keys ``(nu, e)`` (``(Partition,
    int) -> int``).  Equal as its coefficients; unhashable."""

    __slots__ = _repr_fields = ("coeffs",)

    def __init__(self, coeffs: dict):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

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
    import cylkit.cylindric as cylindric

    expansion = expand_affine_schur(cylindric.skew_word(shape), ctype=shape.ctype, cap=cap)
    # a skew word is in the basis of its type, so every key has its shape
    return SchurExpansion({(s.lam, s.d): expansion.coeffs[u]
                           for u, s in expansion.shapes.items()})


def gromov_witten(ctype: CylType, lam, d: int, mu, nu,
                  cap: int = DEFAULT_EXPAND_CAP) -> int:
    """The 3-point invariant ``C^{lam,d}_{mu,nu}`` of Gr(m, n).

    Degree-0 coefficient of the cylindric expansion; zero unless
    ``|lam| + n*d == |mu| + |nu|``, and zero when the shape ``lam/d/mu``
    does not exist (``mu[0]`` is not inside ``lam[d]``: its cylindric skew
    Schur function is 0); for ``d = 0`` this is the classical
    Littlewood-Richardson coefficient.  ``cap`` bounds the cell count of
    ``lam/d/mu`` as in :func:`expand_cylindric`.  The shape is built and
    validated once, then :func:`gw_of_shape` reads the invariant.
    """
    import cylkit.cylindric as cylindric

    try:
        shape = cylindric.shape_new(ctype, lam, d, mu)
    except ContainmentError:
        shape = None
    return gw_of_shape(ctype, shape, nu, cap=cap)


def gw_of_shape(ctype: CylType, shape: CylindricShape | None, nu,
                cap: int = DEFAULT_EXPAND_CAP) -> int:
    """:func:`gromov_witten` on the built shape ``lam/d/mu`` of type
    ``ctype``, or None for a shape that does not exist, whose invariants
    are 0; ``nu`` is validated here in either case."""
    m, n = ctype.m, ctype.n
    nu = check_partition(tuple(nu))
    if not fits_box(nu, m, n - m):
        raise InvalidInputError(f"nu={nu} does not fit the ({m},{n}) box")
    if shape is None or sum(shape.lam) + n * shape.d != sum(shape.mu) + sum(nu):
        return 0
    return expand_cylindric(shape, cap=cap).coeffs.get((nu, 0), 0)


def toric_gw_oracle(ctype: CylType, lam, d: int, mu,
                    cap: int | None = None) -> dict[Partition, int]:
    """Independent route: Schur-resolve the toric polynomial in m variables.

    Equals the degree-0 slice of :func:`expand_cylindric` on toric shapes.
    ``cap`` bounds the cell count as in
    :func:`cylkit.cylindric.cylindric_schur_poly`, whose default
    :data:`cylkit.cylindric.DEFAULT_TABLEAU_CAP` it takes when omitted.
    The shape is built and validated once, then :func:`toric_gw_of_shape`
    resolves it.
    """
    import cylkit.cylindric as cylindric

    return toric_gw_of_shape(cylindric.shape_new(ctype, lam, d, mu), cap=cap)


def toric_gw_of_shape(shape: CylindricShape,
                      cap: int | None = None) -> dict[Partition, int]:
    """:func:`toric_gw_oracle` on the built shape ``lam/d/mu``, which must
    be toric."""
    import cylkit.cylindric as cylindric
    import cylkit.symfunc as symfunc

    if not cylindric.is_toric(shape):
        raise InvalidInputError(f"{shape} is not toric")
    if cap is None:
        cap = cylindric.DEFAULT_TABLEAU_CAP
    ctype = shape.ctype
    poly = cylindric.cylindric_schur_poly(shape, ctype.m, cap=cap)
    table = symfunc.expand_in_schur(poly)
    m, n = ctype.m, ctype.n
    for nu in table:
        if nu and (len(nu) > m or nu[0] > n - m):
            raise AssertionError(f"toric expansion left the box at {nu}")
    return table
