"""Cylindric shapes of type (m, n) and the action of ``A_w`` on boundaries.

Geometry.  Cells live on the cylinder ``Z^2 / (row, col) ~ (row - m,
col + n - m)``; the diagonal of a cell is ``(col - row) mod n``.  A boundary
is an order ideal, recorded by its row bounds ``R_p`` (cells of row ``p`` are
the columns ``q <= R_p``), which weakly decrease with ``R_{p+m} = R_p -
(n-m)``.  A :class:`PeriodicSequence` stores one period of them, ``rows =
(R_1, ..., R_m)`` with ``R_1 >= ... >= R_m >= R_1 - (n-m)``, and every
algorithm reads the boundary through these row bounds.

A shape ``lam/d/mu`` is the region between the boundaries of ``mu[0]``
(inner) and ``lam[d]`` (outer), where ``lam[d]`` places window ``lam_j + d``
at rows ``d+1 .. d+m``; the shape is built with both as fields (validated
once by :func:`shape_new`).  The nilCoxeter element ``A_w`` acts by
permuting the addable diagonals: row ``p`` can take a box on diagonal
``a_p = R_p + 1 - p``, and ``A_w`` moves each ``a_p`` to ``w(a_p)``.  The
result is a boundary with ``len(w)`` more cells per period, or zero; its
rows are read off the window of ``w``, and a nonzero result is a boundary
by construction, so it is built without re-validation.  Read backwards, the
same map gives the boundary word of two nested boundaries, from which come
skew words and the inverse of the bijection ``phi``; that element too is
valid by construction, so validation runs only at the edges.

Cylindric tableaux are chains of boundaries with horizontal-strip steps,
folded over the row bounds by :func:`cylkit.symfunc.chain_table`.
"""

from __future__ import annotations

import itertools

from cylkit.affine import AffinePermutation, Word, inversion_ends, letter_multiplicities
from cylkit.errors import (
    CapExceededError,
    ContainmentError,
    InvalidInputError,
    ShapeError,
)
from cylkit.frozen import Frozen
from cylkit.partitions import Partition, check_partition, fits_box, part
from cylkit.symfunc import SymmetricPolynomial, WeightTable, chain_table

DEFAULT_TABLEAU_CAP = 16


class CylType(Frozen):
    """The fixed pair ``0 < m < n``: an immutable value, equal to and hashed
    as ``(m, n)``."""

    __slots__ = _repr_fields = ("m", "n")

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise InvalidInputError(f"need 0 < m < n, got ({self.m}, {self.n})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.m, self.n))


class PeriodicSequence(Frozen):
    """A boundary on the cylinder: its row bounds ``(R_1, ..., R_m)``.  An
    immutable value, equal to and hashed as ``(ctype, rows)``.

    >>> b = PeriodicSequence(CylType(3, 6), (2, 1, 0))
    >>> b.to_shape()
    ((2, 1), 0)
    >>> b.apply_word((4,)).rows
    (2, 1, 1)
    """

    __slots__ = _repr_fields = ("ctype", "rows")

    def __init__(self, ctype: CylType, rows: tuple[int, ...]):
        object.__setattr__(self, "ctype", ctype)
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        m, n = self.ctype.m, self.ctype.n
        if len(self.rows) != m:
            raise InvalidInputError(f"rows must have {m} entries: {self.rows}")
        ext = self.rows + (self.rows[0] - (n - m),)
        if any(ext[i] < ext[i + 1] for i in range(m)):
            raise InvalidInputError(
                f"rows must satisfy R1 >= ... >= Rm >= R1 - (n-m): {self.rows}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ctype, self.rows) == (other.ctype, other.rows)

    def __hash__(self) -> int:
        return hash((self.ctype, self.rows))

    @classmethod
    def _trusted(cls, ctype: CylType, rows: tuple[int, ...]) -> "PeriodicSequence":
        """Build without validation.

        Invariant: ``rows`` are ``m`` bounds with ``R_1 >= ... >= R_m >= R_1
        - (n-m)`` by construction, for a reason each caller states (certified
        in the test suite).  Input from outside the package goes through the
        public constructor instead.
        """
        b = object.__new__(cls)
        object.__setattr__(b, "ctype", ctype)
        object.__setattr__(b, "rows", rows)
        return b

    def row_bound(self, p: int) -> int:
        """Right edge of row ``p``; decreases with ``R_{p+m} = R_p - (n-m)``."""
        m, n = self.ctype.m, self.ctype.n
        j = (p - 1) % m
        return self.rows[j] - ((p - 1 - j) // m) * (n - m)

    # -- the action of A_w ----------------------------------------------------

    def act(self, w: AffinePermutation) -> "PeriodicSequence | None":
        """``A_w`` on this boundary: ``R'_p = w(R_p + 1 - p) + p - 1``, or None.

        The addable diagonal ``a_p = R_p + 1 - p`` of row ``p`` moves to
        ``w(a_p)``; the action is nonzero iff the rows gain ``len(w)`` cells.
        Proof: ``w(a) - a`` counts the inversions of ``w`` with ``a`` on the
        left minus those with ``a`` on the right, so the gain over one period
        counts the inversions carrying an addable position past a non-addable
        one minus those going the other way; it reaches ``len(w)`` iff every
        inversion is of the first kind, i.e. iff each letter of a reduced
        word adds one box.  The rows are read off the window, and a nonzero
        result is a boundary by that argument, so it is not re-validated.
        """
        n = self.ctype.n
        if w.n != n:
            raise InvalidInputError(f"period mismatch: {w.n} vs {n}")
        win, rows = w.window, []
        for p, bound in enumerate(self.rows, 1):
            j = (bound - p) % n  # w(a_p) = win[j] + (a_p - 1 - j)
            rows.append(win[j] + bound - 1 - j)
        if sum(rows) - sum(self.rows) != w.length:
            return None
        return PeriodicSequence._trusted(self.ctype, tuple(rows))

    def apply_word(self, word: Word) -> "PeriodicSequence | None":
        """The nilCoxeter word action, one letter at a time (right to left).

        Unlike :meth:`act`, a word that is not reduced acts by zero.
        """
        cur = self
        for i in reversed(word):
            cur = cur.act(AffinePermutation.simple(self.ctype.n, i))
            if cur is None:
                return None
        return cur

    # -- comparisons and normal form ------------------------------------------

    def contains(self, other: "PeriodicSequence") -> bool:
        """Ideal containment: every row bound of ``other`` is below ours."""
        return all(o <= s for s, o in zip(self.rows, other.rows))

    def to_shape(self) -> tuple[Partition, int]:
        """The unique ``(lam, d)`` with this boundary equal to ``lam[d]``.

        ``lam[d]`` has window ``lam_j + d`` at rows ``d+1 .. d+m`` with
        ``lam`` in the (m, n) box.  The rows of ``lam[d]`` sum to
        ``|lam| + n*d`` with ``0 <= |lam| <= m(n-m)``, which brackets ``d``.
        """
        m, n = self.ctype.m, self.ctype.n
        total = sum(self.rows)
        found = []
        for d in range(-((m * (n - m) - total) // n), total // n + 1):
            lam = tuple(self.row_bound(d + j) - d for j in range(1, m + 1))
            if lam[-1] >= 0 and lam[0] <= n - m:
                found.append((tuple(v for v in lam if v), d))
        if len(found) != 1:
            raise AssertionError(f"normal form not unique for {self}: {found}")
        return found[0]


def _partition_rows(ctype: CylType, lam: Partition, d: int) -> tuple[int, ...]:
    """The row bounds of ``lam[d]``: window ``lam_j + d`` at rows ``d+1 ..
    d+m``.  For ``lam`` in the (m, n) box they are a boundary: ``lam_1 >=
    ... >= lam_m >= 0 >= lam_1 - (n-m)`` at ``d = 0``, and ``d`` shifts the
    same periodic sequence."""
    m, n = ctype.m, ctype.n
    rows = []
    for p in range(1, m + 1):
        j = (p - d - 1) % m + 1
        t = (d + j - p) // m
        rows.append(part(lam, j) + d + t * (n - m))
    return tuple(rows)


def empty_boundary(ctype: CylType) -> PeriodicSequence:
    # equal rows R_p = 0 satisfy R_1 >= ... >= R_m >= R_1 - (n-m)
    return PeriodicSequence._trusted(ctype, (0,) * ctype.m)


# -- shapes -------------------------------------------------------------------


class CylindricShape(Frozen):
    """``lam/d/mu``: the region between ``mu[0]`` and ``lam[d]``, an
    immutable value equal to and hashed as ``(ctype, lam, d, mu)``.  Both
    boundaries are fields that the builder passes in (:func:`shape_new`,
    :func:`phi`); they are derived from ``lam``, ``d`` and ``mu``, so they
    stay out of eq, hash and repr."""

    __slots__ = ("ctype", "lam", "d", "mu", "outer", "inner")
    _repr_fields = ("ctype", "lam", "d", "mu")

    def __init__(self, ctype: CylType, lam: Partition, d: int, mu: Partition,
                 outer: PeriodicSequence, inner: PeriodicSequence):
        object.__setattr__(self, "ctype", ctype)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ctype, self.lam, self.d, self.mu)
                == (other.ctype, other.lam, other.d, other.mu))

    def __hash__(self) -> int:
        return hash((self.ctype, self.lam, self.d, self.mu))


def shape_new(ctype: CylType, lam, d: int, mu) -> CylindricShape:
    """Validated shape ``lam/d/mu``.

    Containment of the ideals is the rowwise inequality ``mu[0]_p <=
    lam[d]_p`` over one period, checked on the shape's own boundaries; its
    failure alone raises :class:`ContainmentError`, a :class:`ShapeError`.
    The partitions are validated once, here, and the boundaries are built
    from them without re-validation.
    """
    lam = check_partition(tuple(lam))
    mu = check_partition(tuple(mu))
    m, n = ctype.m, ctype.n
    if not fits_box(lam, m, n - m):
        raise ShapeError(f"lambda={lam} does not fit the ({m},{n}) box")
    if not fits_box(mu, m, n - m):
        raise ShapeError(f"mu={mu} does not fit the ({m},{n}) box")
    if d < 0:
        raise ShapeError(f"offset d must be non-negative, got {d}")
    # both partitions fit the box, so their rows are boundaries
    outer = PeriodicSequence._trusted(ctype, _partition_rows(ctype, lam, d))
    inner = PeriodicSequence._trusted(ctype, _partition_rows(ctype, mu, 0))
    if not outer.contains(inner):
        raise ContainmentError(f"containment fails: {mu}[0] is not inside {lam}[{d}]")
    return CylindricShape(ctype, lam, d, mu, outer, inner)


def cell_count(shape: CylindricShape) -> int:
    """``|lam| - |mu| + n*d`` cells per period."""
    return sum(shape.lam) - sum(shape.mu) + shape.ctype.n * shape.d


def is_toric(shape: CylindricShape) -> bool:
    """Every row has at most ``n - m`` cells, hence every column at most ``m``.

    A column holds consecutive rows, so one with more than ``m`` cells holds
    rows ``p`` and ``p + m``, and then row ``p`` has more than ``n - m``.
    """
    m, n = shape.ctype.m, shape.ctype.n
    return all(o - i <= n - m for o, i in zip(shape.outer.rows, shape.inner.rows))


# -- cylindric tableaux -------------------------------------------------------


def _cyl_weight_table(shape: CylindricShape, nvars: int) -> WeightTable:
    """Exponent-vector counts of cylindric SSYT chains ``mu[0] -> lam[d]``:
    each step is a horizontal strip (at most one new cell per column), so
    ``nxt_p`` ranges over ``[cur_p, min(outer_p, cur_{p-1})]`` independently
    per row, with ``cur_0 = cur_m + (n-m)``."""
    m, n = shape.ctype.m, shape.ctype.n
    outer = shape.outer.rows

    def step(cur: tuple[int, ...]):
        above = (cur[-1] + n - m,) + cur[:-1]
        size = sum(cur)
        ranges = [range(r, min(o, a) + 1) for r, o, a in zip(cur, outer, above)]
        for nxt in itertools.product(*ranges):
            yield nxt, sum(nxt) - size

    return chain_table(("cylindric", shape.ctype, outer), shape.inner.rows,
                       nvars, step, outer, cell_count(shape))


def cylindric_schur_poly(shape: CylindricShape, nvars: int,
                         cap: int = DEFAULT_TABLEAU_CAP) -> SymmetricPolynomial:
    """Generating polynomial of cylindric SSYT with entries ``<= nvars``.

    The polynomial is symmetric (Gessel-Krattenthaler 1997, Postnikov
    2005), so only the tableaux whose content is a partition are counted,
    one per monomial-basis coefficient.
    """
    total = cell_count(shape)
    if total > cap:
        raise CapExceededError(f"{total} cells exceeds tableau cap {cap}")
    table = _cyl_weight_table(shape, nvars)
    return SymmetricPolynomial.from_weight_table(nvars, total, table)


# -- boundary words and the bijection -----------------------------------------


def boundary_word(inner: PeriodicSequence,
                  outer: PeriodicSequence) -> AffinePermutation:
    """The element ``x`` with ``A_x . inner = outer``: the action inverted.

    ``x`` moves each addable diagonal ``a_p`` of ``inner`` to the one
    ``a'_p`` of ``outer`` and keeps the other positions in order, so they
    go onto the residues not yet hit at the one shift that gives the window
    sum ``n(n+1)/2`` (each step adds ``n``).  The check that ``x`` acts as
    required also proves ``len(x)`` is the cell gain.

    The window is valid, so it is built trusted: addable diagonals are
    distinct mod n (``a_1 > ... > a_m > a_1 - n``), so the fixed values take
    ``m`` residues and the free ones the rest, and ``k`` forces the sum.
    """
    if inner.ctype != outer.ctype:
        raise InvalidInputError("type mismatch")
    if not outer.contains(inner):
        raise InvalidInputError("outer boundary must contain inner")
    n = inner.ctype.n
    fixed = {}  # window index j of a_p -> x(j + 1) = a'_p - a_p + j + 1
    for p, (bound, grown) in enumerate(zip(inner.rows, outer.rows), 1):
        j = (bound - p) % n
        fixed[j] = grown - bound + j + 1
    hit = {v % n for v in fixed.values()}
    free = [t for t in range(1, n + 1) if t % n not in hit]
    k = (n * (n + 1) // 2 - sum(fixed.values()) - sum(free)) // n
    rest = iter(free[i % len(free)] + (i // len(free)) * n
                for i in range(k, k + len(free)))
    window = tuple(fixed[j] if j in fixed else next(rest) for j in range(n))
    x = AffinePermutation._trusted(n, window)
    if inner.act(x) != outer:
        raise AssertionError(f"boundary word of {inner} -> {outer} is not {x}")
    return x


def in_A(w: AffinePermutation, ctype: CylType) -> bool:
    """Basis membership: 321-avoiding with ``maxc <= m`` and ``maxr <= n-m``,
    read off the window: ``maxr`` counts the positions that end an inversion
    (:func:`cylkit.affine.inversion_ends`, which also tests 321) and ``maxc``
    those that start one, whose values exceed the running minimum from the
    right."""
    m, n = ctype.m, ctype.n
    if w.n != n:
        raise InvalidInputError(f"period mismatch: {w.n} vs {n}")
    ends = inversion_ends(w)
    if ends is None or len(ends) > n - m:
        return False
    low = min(w.window) + n  # min w(p) over p > n
    starts = 0
    for x in reversed(w.window):
        if x < low:
            low = x
        else:
            starts += 1
    return starts <= m


def in_A0(w: AffinePermutation, ctype: CylType) -> bool:
    return w.is_grassmannian(0) and in_A(w, ctype)


def phi(w: AffinePermutation, ctype: CylType) -> CylindricShape:
    """The bijection ``A0(m, n)`` onto shapes ``nu/e/()``: act on the empty
    boundary.  The action vanishes exactly off ``A0(m, n)``, so it is also
    the membership test: only row 1 of the empty boundary can grow (addable
    diagonal 0), so a nonzero ``A_w`` forces every reduced word to end in
    ``s_0``; ``A_w`` kills every boundary when ``w`` is not in ``A(m, n)``;
    and on ``A0(m, n)`` it is the bijection (Postnikov 2005, McNamara 2006).

    Its inverse is :func:`skew_word`; ``to_shape`` has already put ``nu``
    in the box, so the shape needs no re-validation.  Its outer boundary
    is the one the action produced, its inner the empty one; the outer
    contains the inner, so ``e >= 0``.

    >>> from cylkit.affine import AffinePermutation
    >>> phi(AffinePermutation.from_word(6, [5, 1, 0]), CylType(3, 6)).lam
    (2, 1)
    """
    empty = empty_boundary(ctype)
    grown = empty.act(w)
    if grown is None:
        raise InvalidInputError(f"{w} is not a 321-avoiding 0-Grassmannian "
                                f"element of type ({ctype.m},{ctype.n})")
    nu, e = grown.to_shape()
    return CylindricShape(ctype, nu, e, (), grown, empty)


def skew_word(shape: CylindricShape) -> AffinePermutation:
    """The element whose Stanley function is the cylindric Schur function.

    The boundary word from ``mu[0]`` to ``lam[d]``, of length the cell
    count; on ``nu/e/()`` it is the element that :func:`phi` maps there.
    """
    return boundary_word(shape.inner, shape.outer)


# -- ribbons -------------------------------------------------------------------


def ribbon_r(ctype: CylType) -> AffinePermutation:
    """``r_m = u_{[-m,-1]} d_{[0,n-m-1]}``, the length-n Grassmannian ribbon.

    >>> ribbon_r(CylType(3, 6)).reduced_word()
    (3, 4, 5, 2, 1, 0)
    """
    m, n = ctype.m, ctype.n
    letters = [(-m + t) % n for t in range(m)] + list(range(n - m - 1, -1, -1))
    w = AffinePermutation.from_word(n, letters)
    if w.length != n or not w.is_grassmannian(0):
        raise AssertionError("ribbon construction broken")
    return w


def ribbon_decomposition(w: AffinePermutation,
                         ctype: CylType) -> tuple[AffinePermutation, int]:
    """Unique ``w = w0 * r_m^d`` with ``s_{n-m}`` absent from ``w0``.

    ``d`` is the multiplicity of the letter ``n - m`` in any reduced word.
    """
    if not in_A0(w, ctype):
        raise InvalidInputError(f"{w} is not in the 0-Grassmannian basis")
    m, n = ctype.m, ctype.n
    d = letter_multiplicities(w)[(n - m) % n]
    r_inv = ribbon_r(ctype).inverse()
    w0 = w
    for _ in range(d):
        w0 = w0 * r_inv
    if w0.length != w.length - n * d:
        raise AssertionError("ribbon decomposition is not length-additive")
    if letter_multiplicities(w0).get((n - m) % n, 0) != 0:
        raise AssertionError("w0 still uses the split letter")
    if not in_A0(w0, ctype):
        raise AssertionError("w0 left the basis")
    return w0, d


# -- plain-text diagrams --------------------------------------------------------


def render_shape(shape: CylindricShape) -> str:
    """Staircase strip view with diagonal indices in the boxes, rows ``2m``
    down to ``-2m`` (two periods each side)."""
    m, n = shape.ctype.m, shape.ctype.n
    inner, outer = shape.inner, shape.outer
    width = len(str(n - 1))
    rows = list(range(2 * m, -2 * m - 1, -1))
    occupied = [(p, inner.row_bound(p) + 1, outer.row_bound(p)) for p in rows]
    qmin = min((lo for _, lo, hi in occupied if lo <= hi), default=0)
    lines = [" " * width + "."]
    for p, lo, hi in occupied:
        if lo > hi:
            lines.append("")
            continue
        pad = " " * ((lo - qmin) * (width + 1))
        cells = " ".join(f"{(q - p) % n:>{width}}" for q in range(lo, hi + 1))
        lines.append(pad + cells)
    lines.append(" " * ((max((hi for _, _, hi in occupied), default=0) - qmin + 1)
                        * (width + 1)) + ".")
    return "\n".join(lines)
