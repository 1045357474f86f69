"""Exact symmetric polynomials in the monomial basis.

A :class:`SymmetricPolynomial` is a homogeneous symmetric polynomial in
``nvars`` variables, stored as integer coefficients on monomial symmetric
polynomials ``m_lambda`` (keys are partitions with at most ``nvars`` parts).
:func:`chain_table` is the one memoized fold over chains of steps whose
weights never increase: classical (skew) tableaux are chains of partitions
with horizontal-strip steps, cylindric tableaux bring their own step rule
from :mod:`cylkit.cylindric`, and the affine Stanley factorization table
(:func:`_stanley_table`, left-factor peels on inverse windows) sits here,
next to the fold, with its own.  All three weight tables are
symmetric (skew Schur functions by the Bender-Knuth involution, cylindric
ones by Gessel-Krattenthaler and Postnikov, affine Stanley functions by Lam),
so the coefficient of ``m_lambda`` is the number of chains whose weights
spell ``lambda``, and the fold never builds the other rearrangements.  In
all three rules a step's weight is the size it adds, so a weight-0 step is
a stay: the fold follows positive steps only, each of which uses up weight,
so the chains terminate, and the zeros are padded on at the top.  Its memo
keeps one table per state, all chains from it, keyed on ``(tag, state,
None)``; only where fewer steps are left than weight (tables in fewer
variables than the degree) does the key carry the steps left.  The
one runtime check on a table handed to a caller is the constructor's: every
key is a partition of the degree with at most ``nvars`` parts.
The change of basis into Schur polynomials is done by unitriangular
elimination (:func:`resolve`, which the affine Schur oracle shares) on raw
chain tables, so no column is rebuilt or re-validated as a polynomial.
Everything is integer-exact; this module is the oracle side of the package
and is deliberately independent of the cylindric machinery (it reads
:mod:`cylkit.affine` only for the Stanley table's words).  A type-free
expansion does not load it: :mod:`cylkit.stanley` imports it inside its
oracles.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable

from cylkit import memo
from cylkit.affine import AffinePermutation, cyclic_word, proper_subsets
from cylkit.errors import CapExceededError, GradingError, InvalidInputError, SolveError
from cylkit.frozen import Frozen
from cylkit.partitions import Partition, check_partition, contains, part

WeightTable = dict[tuple[int, ...], int]

_CHAIN_MEMO: dict = memo.table()
_PEEL_WORDS_CACHE: dict = memo.table()


class SymmetricPolynomial(Frozen):
    """Homogeneous symmetric polynomial, monomial-basis coefficient table
    (``Partition -> int``, zero coefficients dropped).  Equal as ``(nvars,
    degree, coeffs)``; it holds a dict, so it is unhashable."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: dict = {}):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if self.nvars < 0 or self.degree < 0:
            raise InvalidInputError("nvars and degree must be non-negative")
        clean = {}
        for lam, c in self.coeffs.items():
            if c == 0:
                continue
            lam = check_partition(tuple(lam))
            if sum(lam) != self.degree:
                raise GradingError(f"key {lam} does not have degree {self.degree}")
            if len(lam) > self.nvars:
                raise InvalidInputError(
                    f"key {lam} has more than {self.nvars} parts")
            clean[lam] = c
        object.__setattr__(self, "coeffs", clean)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.nvars, self.degree, self.coeffs)
                == (other.nvars, other.degree, other.coeffs))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int) -> "SymmetricPolynomial":
        return SymmetricPolynomial(nvars, degree, {})

    @staticmethod
    def from_weight_table(nvars: int, degree: int,
                          table: WeightTable) -> "SymmetricPolynomial":
        """The polynomial whose ``m_lam`` coefficient is the count of ``lam``
        padded with zeros to ``nvars`` entries.

        ``table`` holds weakly decreasing exponent vectors, as
        :func:`chain_table` folds them: those fix a symmetric polynomial.
        Only trailing zeros are cut, so any other vector fails the
        constructor's partition check.
        """
        return SymmetricPolynomial(nvars, degree, {
            expo[:nvars - expo.count(0)]: c for expo, c in table.items()})

    # -- ring-ish structure ----------------------------------------------------

    def _check_grade(self, other: "SymmetricPolynomial"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise GradingError(
                f"grading mismatch: ({self.nvars},{self.degree}) vs "
                f"({other.nvars},{other.degree})")

    def __add__(self, other: "SymmetricPolynomial") -> "SymmetricPolynomial":
        self._check_grade(other)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymmetricPolynomial(self.nvars, self.degree, out)

    def __sub__(self, other: "SymmetricPolynomial") -> "SymmetricPolynomial":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "SymmetricPolynomial":
        if not isinstance(scalar, int):
            return NotImplemented
        return SymmetricPolynomial(
            self.nvars, self.degree,
            {lam: scalar * c for lam, c in self.coeffs.items()})

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*m{list(lam)}" for lam, c in
                           sorted(self.coeffs.items())) or "0"
        return f"SymmetricPolynomial(N={self.nvars}, deg={self.degree}: {terms})"


# -- Schur polynomials via horizontal-strip chains ---------------------------


def chain_table(tag, start, steps: int, step: Callable[..., Iterable],
                end, total: int) -> WeightTable:
    """Weight table of the chains ``start -> ... -> end`` of ``steps`` steps
    whose step weights never increase.

    ``step(state)`` yields ``(next state, weight)`` pairs; a chain is keyed
    by the tuple of its step weights, and only chains that end at ``end``
    count.  The tables folded here are symmetric in the step weights, so
    these chains, keyed by partitions padded with zeros, fix them.

    A weight-0 move must be a stay (``AssertionError`` otherwise), so a
    chain is its positive steps followed by stays at ``end``: the fold
    follows positive steps only and pads the zeros to ``steps`` at the top.
    ``total`` is the weight of every chain from ``start`` to ``end`` (the
    size it adds).  Each positive step uses up at least 1 of the weight a
    state has left, so the chains terminate, and a state with at least as
    many steps left as weight reaches all of its chains.  Such a state keeps
    one table, of all its chains, memoized on ``(tag, state, None)``; a
    bound on the first weight is a filter on that table, not a key.  Only
    where fewer steps are left than weight can the step count cut a chain,
    and there the key is ``(tag, state, steps left)``.  ``tag`` must fix
    everything that ``step`` and ``end`` read besides the state; the state
    and the tag then fix the weight left.

    >>> def step(k):  # stay, or add 1 or 2 to a counter, up to 3
    ...     return [(k, 0)] + [(k + d, d) for d in (1, 2) if k + d <= 3]
    >>> chain_table("doc", 0, 3, step, 3, 3)
    {(1, 1, 1): 1, (2, 1, 0): 1}
    >>> chain_table("doc", 0, 2, step, 3, 3)
    {(2, 1): 1}
    """

    def fold(state, left: int, remaining: int) -> WeightTable:
        key = (tag, state, None if left >= remaining else left)
        hit = _CHAIN_MEMO.get(key)
        if hit is not None:
            return hit
        out: WeightTable = {(): 1} if state == end else {}
        if left:
            for nxt, weight in step(state):
                if not weight:
                    if nxt != state:
                        raise AssertionError(
                            f"weight-0 move {state} -> {nxt} is not a stay")
                    continue
                for suffix, c in fold(nxt, left - 1, remaining - weight).items():
                    if not suffix or suffix[0] <= weight:
                        k = (weight,) + suffix
                        out[k] = out.get(k, 0) + c
        return _CHAIN_MEMO.setdefault(key, out)

    return {chain + (0,) * (steps - len(chain)): c
            for chain, c in fold(start, steps, total).items()}


def _skew_weight_table(lam: Partition, mu: Partition, nvars: int) -> WeightTable:
    """Exponent-vector counts of SSYT chains ``mu -> lam`` in ``nvars`` steps.

    Each step adds a horizontal strip ``nxt/cur`` inside ``lam``; its row
    ranges are independent, ``cur_i <= nxt_i <= min(lam_i, cur_{i-1})``.
    """

    def step(cur: Partition):
        above = lam[:1] + cur
        size = sum(cur)
        ranges = [range(part(cur, i), min(bound, part(above, i)) + 1)
                  for i, bound in enumerate(lam, 1)]
        for full in itertools.product(*ranges):
            yield tuple(v for v in full if v), sum(full) - size

    return chain_table(("skew", lam), mu, nvars, step, lam, sum(lam) - sum(mu))


def schur_poly(lam: Partition, nvars: int) -> SymmetricPolynomial:
    """Generating polynomial of SSYT of shape ``lam`` with entries <= nvars.

    Zero when ``lam`` has more than ``nvars`` rows.

    >>> schur_poly((1,), 3).coeffs
    {(1,): 1}
    """
    return skew_schur_poly(lam, (), nvars)


def skew_schur_poly(lam: Partition, mu: Partition, nvars: int) -> SymmetricPolynomial:
    """SSYT generating polynomial on the skew shape ``lam/mu``."""
    lam = check_partition(tuple(lam))
    mu = check_partition(tuple(mu))
    if not contains(lam, mu):
        raise InvalidInputError(f"{mu} is not contained in {lam}")
    degree = sum(lam) - sum(mu)
    table = _skew_weight_table(lam, mu, nvars)
    return SymmetricPolynomial.from_weight_table(nvars, degree, table)


# -- affine Stanley factorizations ------------------------------------------


def _peel_words(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Canonical words of ``d_J`` over every ``J`` of ``size`` elements, in
    the order of ``proper_subsets``; built once per ``(n, size)``."""
    hit = _PEEL_WORDS_CACHE.get((n, size))
    if hit is None:
        hit = _PEEL_WORDS_CACHE.setdefault((n, size), tuple(
            cyclic_word(n, members, True)
            for members in proper_subsets(n, size)))
    return hit


def _stanley_table(w: AffinePermutation, nvars: int, cap: int) -> WeightTable:
    """Coefficient of ``x^alpha`` in the affine Stanley function ``F_w``:
    factorizations of ``w`` into ``nvars`` cyclically decreasing factors
    with lengths ``alpha`` (identity factors allowed).  ``F_w`` is symmetric
    (Lam 2006), so only the factorizations whose lengths never increase are
    counted, one per partition ``alpha`` padded with zeros to ``nvars``
    entries (the raw chain table).  A ``w`` longer than ``cap`` raises
    :class:`CapExceededError`.

    Computed by peeling left factors ``u = d_J * rest`` length-additively,
    on the inverse window ``y = u^-1`` alone: ``s_i`` is a left descent of
    ``u`` iff ``y(i) > y(i+1)`` (``y(0) = y(n) - n``), and ``s_i * u`` has
    the inverse window ``y`` with positions ``i, i+1`` swapped.  Each ``J``
    is tested one letter of the canonical word of ``d_J`` at a time and
    dropped at the first letter that is not a descent, so no product and no
    length is computed; :func:`chain_table` folds the chains of states
    ``(y, len(u))`` down to ``(identity, 0)``.  The route is independent of
    :func:`cylkit.affine.cyclic_factors`, which the affine Schur oracle
    certifies.
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds cap {cap}")
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


# -- change of basis ----------------------------------------------------------


def resolve(table: dict,
            column: Callable[[Partition], dict | None]) -> dict:
    """Exact coefficients ``c`` with ``table = sum c[lam] * column(lam)``.

    ``column(lam)`` is the monomial table of the basis element led by
    ``lam`` (keys partitions of one size), or None if no element has that
    lead.  Unitriangular elimination: every column must have coefficient 1
    at its lead and only lex-smaller keys besides (a key dominance-below
    the lead is lex-smaller), so clearing the lex-largest key left never
    brings back a key already cleared, and the walk takes one step per
    output key.  Raises :class:`SolveError` if a column breaks that shape,
    or if a key is left that no column leads (``table`` is then not in the
    span).

    >>> columns = {(2,): {(2,): 1, (1, 1): 1}, (1, 1): {(1, 1): 1}}
    >>> resolve({(2,): 3, (1, 1): 5}, columns.get)
    {(2,): 3, (1, 1): 2}
    """
    remaining = {key: c for key, c in table.items() if c}
    out: dict = {}
    while remaining:
        lam = max(remaining)
        col = column(lam)
        if col is None:
            raise SolveError(f"no column leads {lam}: table not in the span")
        if col.get(lam) != 1 or max(col) != lam:
            raise SolveError(f"column at {lam} is not unitriangular")
        c = out[lam] = remaining[lam]
        for key, v in col.items():
            left = remaining.get(key, 0) - c * v
            if left:
                remaining[key] = left
            else:
                remaining.pop(key, None)
    return out


def expand_in_schur(p: SymmetricPolynomial) -> dict[Partition, int]:
    """Exact coefficients ``c`` with ``p = sum c[nu] * s_nu(x_1..x_N)``.

    :func:`resolve` against the Schur polynomials: ``s_nu`` is ``m_nu`` plus
    monomials strictly dominance-below ``nu``.  As in the affine Schur
    oracle, it runs on raw chain tables: keys padded with zeros to ``nvars``
    entries (which keeps the lex order), cut again on output.  Raises
    :class:`SolveError` if a remainder cannot be cleared (``p`` is then not
    in the span, which signals an upstream bug).
    """
    nvars = p.nvars
    coeffs = resolve({lam + (0,) * (nvars - len(lam)): c
                      for lam, c in p.coeffs.items()},
                     lambda lead: _skew_weight_table(
                         lead[:nvars - lead.count(0)], (), nvars))
    return {lead[:nvars - lead.count(0)]: c for lead, c in coeffs.items()}


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient ``c^lam_{mu,nu}``.

    Computed through the skew Schur route: the coefficient of ``s_nu`` in
    ``s_{lam/mu}``.  Zero when sizes do not match or ``mu`` is not contained
    in ``lam``.  Each argument is validated once, here: ``s_{lam/mu}`` is
    built from its weight table, not re-validated by :func:`skew_schur_poly`.
    """
    lam = check_partition(tuple(lam))
    mu = check_partition(tuple(mu))
    nu = check_partition(tuple(nu))
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if not contains(lam, mu):
        return 0
    nvars = max(1, sum(nu))
    poly = SymmetricPolynomial.from_weight_table(
        nvars, sum(nu), _skew_weight_table(lam, mu, nvars))
    return expand_in_schur(poly).get(nu, 0)
