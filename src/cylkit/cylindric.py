"""Cylindric shapes of type (m, n) and the box-adding action.

Geometry.  Cells live on the cylinder ``Z^2 / (row, col) ~ (row - m,
col + n - m)``; the diagonal of a cell is ``(col - row) mod n``.  A boundary
is an order ideal, recorded by its row bounds ``R_p`` (cells of row ``p`` are
the columns ``q <= R_p``), which weakly decrease with ``R_{p+m} = R_p -
(n-m)``.  The stored :class:`PeriodicSequence` keeps one period in the
increasing orientation mandated by the type contract (``base[0] <= ... <=
base[m-1] <= base[0] + n - m``); row bounds read the stored period backwards,
``R_p = base`` evaluated at index ``m + 1 - p``.  Derived row lengths, not
the raw orientation, are what every algorithm consumes.

A shape ``lam/d/mu`` is the region between the boundaries of ``mu[0]``
(inner) and ``lam[d]`` (outer), where ``lam[d]`` places window ``lam_j + d``
at rows ``d+1 .. d+m``.  Generators act by adding a box on a fixed diagonal:
on a boundary there is at most one position per diagonal where a box can
attach, so the action is either a single increment or zero.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from cylkit import memo
from cylkit.affine import (
    AffinePermutation,
    Word,
    is_321_avoiding,
    letter_multiplicities,
    max_cyclic_factor,
)
from cylkit.errors import CapExceededError, InvalidInputError, ShapeError
from cylkit.partitions import Partition, check_partition, fits_box, part
from cylkit.symfunc import SymmetricPolynomial

_CHAIN_MEMO: dict = memo.table()
_IN_A_MEMO: dict = memo.table()

DEFAULT_TABLEAU_CAP = 16


@dataclass(frozen=True)
class CylType:
    """The fixed pair ``0 < m < n``."""

    m: int
    n: int

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise InvalidInputError(f"need 0 < m < n, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class PeriodicSequence:
    """A boundary on the cylinder: one stored period, increasing orientation."""

    ctype: CylType
    base: tuple[int, ...]

    def __post_init__(self):
        m, n = self.ctype.m, self.ctype.n
        if len(self.base) != m:
            raise InvalidInputError(f"base must have {m} entries: {self.base}")
        ext = self.base + (self.base[0] + n - m,)
        if any(ext[i] > ext[i + 1] for i in range(m)):
            raise InvalidInputError(
                f"base must satisfy a1 <= ... <= am <= a1 + (n-m): {self.base}")

    # -- evaluation ----------------------------------------------------------

    def _ext(self, i: int) -> int:
        """Stored sequence at any integer index, ``a_{i+m} = a_i + (n-m)``."""
        m, n = self.ctype.m, self.ctype.n
        j = (i - 1) % m
        return self.base[j] + ((i - 1 - j) // m) * (n - m)

    def row_bound(self, p: int) -> int:
        """Right edge of row ``p``; decreases with ``R_{p+m} = R_p - (n-m)``."""
        return self._ext(self.ctype.m + 1 - p)

    def rows(self) -> tuple[int, ...]:
        """``(R_1, ..., R_m)``, the canonical window of row bounds."""
        return tuple(reversed(self.base))

    @staticmethod
    def from_rows(ctype: CylType, rows) -> "PeriodicSequence":
        return PeriodicSequence(ctype, tuple(reversed(tuple(rows))))

    # -- box moves -----------------------------------------------------------

    def add_box(self, i: int) -> "PeriodicSequence | None":
        """Attach a box on diagonal ``i``; None when no cell is addable there.

        At most one period position can carry diagonal ``i``, so the outcome
        is forced.
        """
        m, n = self.ctype.m, self.ctype.n
        i = i % n
        spots = [j for j in range(1, m + 1)
                 if (self.base[j - 1] + j - m) % n == i]
        if len(spots) > 1:
            raise AssertionError(f"diagonal {i} not unique on {self}")
        if not spots:
            return None
        j = spots[0]
        if not self.base[j - 1] < self._ext(j + 1):
            return None
        grown = list(self.base)
        grown[j - 1] += 1
        return PeriodicSequence(self.ctype, tuple(grown))

    def apply_word(self, word: Word) -> "PeriodicSequence | None":
        """Act by ``A_w`` for the given reduced word (letters right to left)."""
        cur = self
        for i in reversed(word):
            cur = cur.add_box(i)
            if cur is None:
                return None
        return cur

    # -- comparisons and normal form ------------------------------------------

    def contains(self, other: "PeriodicSequence") -> bool:
        """Ideal containment: every row bound of ``other`` is below ours."""
        return all(o <= s for s, o in zip(self.rows(), other.rows()))

    def shift_rows(self, s: int) -> "PeriodicSequence":
        """Reanchor: new row bounds ``R'_p = R_{p+s} - s``."""
        return PeriodicSequence.from_rows(
            self.ctype,
            tuple(self.row_bound(p + s) - s for p in range(1, self.ctype.m + 1)))

    def to_shape(self) -> tuple[Partition, int]:
        """The unique ``(lam, d)`` with this boundary equal to ``lam[d]``.

        ``lam[d]`` has window ``lam_j + d`` at rows ``d+1 .. d+m`` with
        ``lam`` in the (m, n) box.
        """
        m, n = self.ctype.m, self.ctype.n
        rows = self.rows()
        found = []
        for d in range(min(rows) - 2 * n, max(rows) + 2 * n + 1):
            lam = tuple(self.row_bound(d + j) - d for j in range(1, m + 1))
            if lam[-1] >= 0 and lam[0] <= n - m:
                found.append((tuple(v for v in lam if v), d))
        if len(found) != 1:
            raise AssertionError(f"normal form not unique for {self}: {found}")
        return found[0]

    @staticmethod
    def from_partition(ctype: CylType, lam: Partition, d: int) -> "PeriodicSequence":
        m, n = ctype.m, ctype.n
        check_partition(lam)
        if not fits_box(lam, m, n - m):
            raise ShapeError(f"{lam} does not fit the ({m},{n}) box")
        rows = []
        for p in range(1, m + 1):
            j = (p - d - 1) % m + 1
            t = (d + j - p) // m
            rows.append(part(lam, j) + d + t * (n - m))
        return PeriodicSequence.from_rows(ctype, rows)


def empty_boundary(ctype: CylType) -> PeriodicSequence:
    return PeriodicSequence(ctype, (0,) * ctype.m)


# -- shapes -------------------------------------------------------------------


@dataclass(frozen=True)
class CylindricShape:
    """``lam/d/mu``: the region between ``mu[0]`` and ``lam[d]``."""

    ctype: CylType
    lam: Partition
    d: int
    mu: Partition

    def outer(self) -> PeriodicSequence:
        return PeriodicSequence.from_partition(self.ctype, self.lam, self.d)

    def inner(self) -> PeriodicSequence:
        return PeriodicSequence.from_partition(self.ctype, self.mu, 0)

    def cells(self) -> list[tuple[int, int]]:
        """Canonical representatives, one per cell class: rows ``1..m``."""
        inner, outer = self.inner(), self.outer()
        return [(p, q)
                for p in range(1, self.ctype.m + 1)
                for q in range(inner.row_bound(p) + 1, outer.row_bound(p) + 1)]

    def diagonal(self, p: int, q: int) -> int:
        return (q - p) % self.ctype.n

    def to_json(self) -> dict:
        return {"m": self.ctype.m, "n": self.ctype.n,
                "lambda": list(self.lam), "d": self.d, "mu": list(self.mu)}

    @staticmethod
    def from_json(obj: dict) -> "CylindricShape":
        return shape_new(CylType(int(obj["m"]), int(obj["n"])),
                         tuple(obj["lambda"]), int(obj["d"]), tuple(obj["mu"]))


def shape_new(ctype: CylType, lam, d: int, mu) -> CylindricShape:
    """Validated shape ``lam/d/mu``.

    Containment of the ideals is the rowwise inequality ``mu[0]_p <=
    lam[d]_p`` over one period.
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
    outer = PeriodicSequence.from_partition(ctype, lam, d)
    inner = PeriodicSequence.from_partition(ctype, mu, 0)
    if not outer.contains(inner):
        raise ShapeError(f"containment fails: {mu}[0] is not inside {lam}[{d}]")
    return CylindricShape(ctype, lam, d, mu)


def shape_from_general(ctype: CylType, lam, r: int, mu, s: int) -> CylindricShape:
    """Normalize ``lam[r]/mu[s]`` to inner offset zero (shift both by -s)."""
    return shape_new(ctype, lam, r - s, mu)


def cell_count(shape: CylindricShape) -> int:
    """``|lam| - |mu| + n*d`` cells per period."""
    return sum(shape.lam) - sum(shape.mu) + shape.ctype.n * shape.d


def is_toric(shape: CylindricShape) -> bool:
    """Every row has at most ``n - m`` cells and every column at most ``m``."""
    m, n = shape.ctype.m, shape.ctype.n
    inner, outer = shape.inner(), shape.outer()
    if any(outer.row_bound(p) - inner.row_bound(p) > n - m
           for p in range(1, m + 1)):
        return False
    top = outer.row_bound(1)
    for q in range(top - (n - m) + 1, top + 1):
        # column q: rows p with inner R_p < q <= outer R_p; both bounds move
        # by (n-m) every m rows, so a window of m*(2n) rows is ample.
        span = m * (abs(q) + 2 * n + max(abs(v) for v in outer.rows()) + 1)
        count = sum(1 for p in range(-span, span + 1)
                    if inner.row_bound(p) < q <= outer.row_bound(p))
        if count > m:
            return False
    return True


# -- cylindric tableaux -------------------------------------------------------


def _strip_extensions_cyl(cur: PeriodicSequence,
                          outer: PeriodicSequence) -> Iterator[PeriodicSequence]:
    """Boundaries ``nxt`` between ``cur`` and ``outer`` with ``nxt/cur`` a
    horizontal strip (at most one new cell per column): ``nxt_p`` ranges over
    ``[cur_p, min(outer_p, cur_{p-1})]`` independently per row."""
    m = cur.ctype.m
    ranges = [range(cur.row_bound(p), min(outer.row_bound(p),
                                          cur.row_bound(p - 1)) + 1)
              for p in range(1, m + 1)]

    def rec(p: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if p > m:
            yield acc
            return
        for v in ranges[p - 1]:
            yield from rec(p + 1, acc + (v,))

    for rows in rec(1, ()):
        yield PeriodicSequence.from_rows(cur.ctype, rows)


def _cyl_weight_table(shape: CylindricShape, nvars: int) -> dict:
    outer = shape.outer()

    def rec(cur: PeriodicSequence, steps: int) -> dict:
        key = (cur.ctype, outer.base, cur.base, steps)
        hit = _CHAIN_MEMO.get(key)
        if hit is not None:
            return hit
        if steps == 0:
            out = {(): 1} if cur == outer else {}
            return _CHAIN_MEMO.setdefault(key, out)
        out: dict = {}
        for nxt in _strip_extensions_cyl(cur, outer):
            added = sum(nxt.rows()) - sum(cur.rows())
            for suffix, c in rec(nxt, steps - 1).items():
                k = (added,) + suffix
                out[k] = out.get(k, 0) + c
        return _CHAIN_MEMO.setdefault(key, out)

    return rec(shape.inner(), nvars)


def cylindric_schur_poly(shape: CylindricShape, nvars: int,
                         cap: int = DEFAULT_TABLEAU_CAP) -> SymmetricPolynomial:
    """Generating polynomial of cylindric SSYT with entries ``<= nvars``.

    The result is collected into monomial-basis coefficients; symmetry of the
    weight table is verified during collection.
    """
    total = cell_count(shape)
    if total > cap:
        raise CapExceededError(f"{total} cells exceeds tableau cap {cap}")
    table = _cyl_weight_table(shape, nvars)
    return SymmetricPolynomial.from_weight_table(nvars, total, table)


@dataclass(frozen=True)
class CylTableau:
    """A cylindric SSYT: entries on the canonical cell representatives."""

    shape: CylindricShape
    entries: tuple  # ((p, q), value) pairs, sorted

    def value(self, p: int, q: int) -> int | None:
        m, n = self.shape.ctype.m, self.shape.ctype.n
        pp = (p - 1) % m + 1
        qq = q + ((p - pp) // m) * (n - m)
        return dict(self.entries).get((pp, qq))

    def weight(self, nvars: int) -> tuple[int, ...]:
        counts = [0] * nvars
        for _, v in self.entries:
            counts[v - 1] += 1
        return tuple(counts)

    def check(self) -> None:
        """Row weak increase, column strict increase, on the cylinder."""
        for (p, q), v in self.entries:
            right = self.value(p, q + 1)
            if right is not None and right < v:
                raise AssertionError(f"row violation at {(p, q)}")
            below = self.value(p + 1, q)
            if below is not None and below <= v:
                raise AssertionError(f"column violation at {(p, q)}")


def cylindric_tableaux(shape: CylindricShape, nvars: int) -> Iterator[CylTableau]:
    """All cylindric SSYT with entries ``<= nvars``, one at a time."""
    outer = shape.outer()

    def rec(cur: PeriodicSequence, step: int, acc: list):
        if step > nvars:
            if cur == outer:
                yield CylTableau(shape, tuple(sorted(acc)))
            return
        for nxt in _strip_extensions_cyl(cur, outer):
            fresh = [((p, q), step)
                     for p in range(1, shape.ctype.m + 1)
                     for q in range(cur.row_bound(p) + 1, nxt.row_bound(p) + 1)]
            yield from rec(nxt, step + 1, acc + fresh)

    yield from rec(shape.inner(), 1, [])


# -- boundary words and the bijection -----------------------------------------


def boundary_word(inner: PeriodicSequence,
                  outer: PeriodicSequence) -> AffinePermutation:
    """The element ``x`` with ``A_x . inner = outer``.

    Peels removable cells of the outer boundary greedily (smallest row
    first); the letters in removal order spell a reduced word of ``x``.
    """
    if inner.ctype != outer.ctype:
        raise InvalidInputError("type mismatch")
    if not outer.contains(inner):
        raise InvalidInputError("outer boundary must contain inner")
    m, n = inner.ctype.m, inner.ctype.n
    letters: list[int] = []
    cur = outer
    while cur != inner:
        for p in range(1, m + 1):
            bound = cur.row_bound(p)
            if bound > inner.row_bound(p) and bound > cur.row_bound(p + 1):
                letters.append((bound - p) % n)
                cur = PeriodicSequence.from_rows(
                    cur.ctype,
                    tuple(bound - 1 if r == p else cur.row_bound(r)
                          for r in range(1, m + 1)))
                break
        else:
            raise AssertionError("peeling stuck: boundaries not nested?")
    w = AffinePermutation.from_word(n, letters)
    if w.length != len(letters):
        raise AssertionError("peeled word is not reduced")
    return w


def in_A(w: AffinePermutation, ctype: CylType) -> bool:
    """Basis membership: 321-avoiding with ``maxc <= m`` and ``maxr <= n-m``."""
    m, n = ctype.m, ctype.n
    if w.n != n:
        raise InvalidInputError(f"period mismatch: {w.n} vs {n}")
    key = (n, w.window, m)
    hit = _IN_A_MEMO.get(key)
    if hit is not None:
        return hit
    ok = (is_321_avoiding(w)
          and len(max_cyclic_factor(w, "right", "increasing").members) <= m
          and len(max_cyclic_factor(w, "right", "decreasing").members) <= n - m)
    return _IN_A_MEMO.setdefault(key, ok)


def in_A0(w: AffinePermutation, ctype: CylType) -> bool:
    return w.is_grassmannian(0) and in_A(w, ctype)


def phi(w: AffinePermutation, ctype: CylType) -> CylindricShape:
    """The bijection onto shapes ``nu/e/()``: act on the empty boundary.

    >>> from cylkit.affine import AffinePermutation
    >>> phi(AffinePermutation.from_word(6, [5, 1, 0]), CylType(3, 6)).lam
    (2, 1)
    """
    if not in_A0(w, ctype):
        raise InvalidInputError(f"{w} is not a 321-avoiding 0-Grassmannian "
                                f"element of type ({ctype.m},{ctype.n})")
    grown = empty_boundary(ctype).apply_word(w.reduced_word())
    if grown is None:
        raise AssertionError(f"action of {w} on the empty boundary vanished")
    nu, e = grown.to_shape()
    if e < 0:
        raise AssertionError("negative offset out of the empty boundary")
    return shape_new(ctype, nu, e, ())


def phi_inv(shape: CylindricShape) -> AffinePermutation:
    """Inverse bijection: peel ``nu[e]`` down to the empty boundary."""
    if shape.mu != ():
        raise InvalidInputError(f"phi_inv expects a shape nu/e/(): {shape}")
    w = boundary_word(empty_boundary(shape.ctype), shape.outer())
    if not in_A0(w, shape.ctype):
        raise AssertionError(f"phi_inv left the basis: {w}")
    return w


def skew_word(shape: CylindricShape) -> AffinePermutation:
    """The element whose Stanley function is the cylindric Schur function.

    ``w = phi_inv(lam/d/()) * phi_inv(mu/0/())^{-1}``, equal to the direct
    peel from ``lam[d]`` down to ``mu[0]``; its length is the cell count.
    """
    w = boundary_word(shape.inner(), shape.outer())
    if w.length != cell_count(shape):
        raise AssertionError("skew word length != cell count")
    return w


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


def render_shape(shape: CylindricShape, periods: int = 2) -> str:
    """Staircase strip view with diagonal indices in the boxes."""
    m, n = shape.ctype.m, shape.ctype.n
    inner, outer = shape.inner(), shape.outer()
    width = len(str(n - 1))
    top = periods * m
    rows = list(range(top, -(periods * m) - 1, -1))
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
