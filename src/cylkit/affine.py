"""The affine symmetric group in window notation.

An element ``w`` is a bijection of the integers with ``w(i + n) = w(i) + n``
and ``sum(w(1..n)) = n(n+1)/2``; it is stored as the window
``(w(1), ..., w(n))``.  The generator ``s_i`` (index mod n) swaps the values
``i + kn`` and ``i + 1 + kn`` for every ``k``; right multiplication by
``s_i`` swaps window *positions* ``i`` and ``i+1`` (with value shifts of
``+-n`` at the wraparound), left multiplication swaps window *values*.

Every reader works on the window tuple, or on one list of it: a right
descent at ``i`` is the adjacent pair ``w(i) > w(i+1)`` (``w(0) = w(n) -
n``), a Grassmannian test is a descent scan, reduced words and products of
letters are swaps on one list, and rotation is index arithmetic (so is
the key of a rotation orbit, its least rotated window).  None
evaluates ``w(i)`` one index at a time or builds an element per step; that
one-index reader is the test suite's oracle (``tests/oracles.py``).

Also here: the code ``(c_1, ..., c_n)``, cyclically decreasing/increasing
elements ``d_J`` / ``u_J`` for a proper subset ``J`` of ``Z/nZ`` (a plain
frozenset, checked once, when :func:`cyclic_element` first builds it), the
right cyclic factors of an element (a left factor of ``w`` is a right
factor of ``w^-1`` in the other direction), and the bijection between
0-Grassmannian elements and partitions with parts < n, read off the code
(for those elements in O(n log n), as their windows increase).
One walk along the window gives each generator's reach in a right factor
and so the maximal factor, the union of the fitting intervals; the factors
of one size are the subsets of the maximal one whose runs fit, and a
product with ``d_J`` or ``u_J`` is a run of swaps per run of ``J``
(:func:`times_runs`).
321-avoidance is one pass over the window with the running maximum
(:func:`inversion_ends`); the basis test ``cylindric.in_A`` takes ``maxr``
from the same pass and ``maxc`` from one with the running minimum.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from cylkit import memo
from cylkit.errors import CapExceededError, InvalidInputError
from cylkit.partitions import Partition, check_partition, partitions_of

Word = tuple[int, ...]

_REDUCED_WORDS_MEMO: dict[tuple[int, Word], tuple[Word, ...]] = memo.table()
_GRASSMANNIAN_MEMO: dict = memo.table()
_CYCLIC_ELEMENT_CACHE: dict = memo.table()


def _swap(win: list[int], n: int, i: int) -> bool:
    """Right multiplication by ``s_i`` (``0 <= i < n``) on a window list, in
    place: swap positions ``i`` and ``i + 1``, where position 0 holds
    ``w(0) = w(n) - n``.  True iff ``i`` was a right descent, i.e. the
    length fell by one."""
    if i:
        left, right = win[i - 1], win[i]
        win[i - 1], win[i] = right, left
    else:
        left, right = win[n - 1] - n, win[0]
        win[0], win[n - 1] = left, right + n
    return left > right


def inverse_window(n: int, win) -> tuple[int, ...]:
    """The window of ``w^-1``: ``w(j) = v`` with ``v - 1 = r + kn``
    (``0 <= r < n``) means ``w^-1(r + 1) = j - kn``."""
    inv = [0] * n
    for j, v in enumerate(win, start=1):
        r = (v - 1) % n
        inv[r] = j - (v - 1 - r)
    return tuple(inv)


def times_runs(win, n: int, runs, decreasing: bool) -> tuple[tuple[int, ...], int]:
    """The window of ``w * d_J`` (``decreasing``) or ``w * u_J``, for ``J``
    given by its maximal cyclic runs ``(p, q)``, and the number of its
    swaps that were descents: per run, the swaps ``q`` down to ``p`` for
    ``d_J`` or ``p`` up to ``q`` for ``u_J`` (:func:`_swap`), on one copy of
    ``win``.  Lengths add iff no swap was a descent, and fall by ``|J|``
    iff every one was."""
    win = list(win)
    falls = 0
    for p, q in runs:
        for i in (range(q, p - 1, -1) if decreasing else range(p, q + 1)):
            falls += _swap(win, n, i % n)
    return tuple(win), falls


def window_descents(n: int, win) -> Iterator[int]:
    """The right descents ``i`` of a window (``w(i) > w(i+1)``, with
    ``w(0) = w(n) - n``), in increasing order."""
    if win[n - 1] - n > win[0]:
        yield 0
    for i in range(1, n):
        if win[i - 1] > win[i]:
            yield i


@dataclass(frozen=True, slots=True)
class AffinePermutation:
    """An affine permutation of period ``n`` in window notation.

    The length is a slot outside eq, hash and repr: an operation that knows
    it (a word, a generator step, an inverse, a rotation) sets it when it
    builds the element, and :attr:`length` fills it on the first read
    otherwise.

    >>> AffinePermutation.identity(3)
    AffinePermutation(n=3, window=(1, 2, 3))
    >>> AffinePermutation.from_word(3, [1, 0]).length
    2
    """

    n: int
    window: tuple[int, ...]
    _length: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise InvalidInputError(f"period must be at least 2, got {n}")
        if len(self.window) != n:
            raise InvalidInputError(f"window must have {n} entries: {self.window}")
        if sorted(v % n for v in self.window) != list(range(n)):
            raise InvalidInputError(f"window residues must be distinct mod {n}: {self.window}")
        if sum(self.window) != n * (n + 1) // 2:
            raise InvalidInputError(
                f"window must sum to {n * (n + 1) // 2}: {self.window}")

    # -- construction ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, window: tuple[int, ...],
                 length: int | None = None) -> "AffinePermutation":
        """Build without validation, optionally with a known length.

        Invariant: ``window`` comes from a group operation on valid elements
        of period ``n`` (a product, an inverse, a generator step, a
        rotation), so it is a valid window by construction; ``length``, when
        given, is the exact length of that element.  Input from outside the
        package goes through the public constructor instead.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "window", window)
        object.__setattr__(w, "_length", length)
        return w

    @staticmethod
    def identity(n: int) -> "AffinePermutation":
        if n < 2:
            raise InvalidInputError(f"period must be at least 2, got {n}")
        return AffinePermutation._trusted(n, tuple(range(1, n + 1)), 0)

    @staticmethod
    def simple(n: int, i: int) -> "AffinePermutation":
        return AffinePermutation.identity(n).times_s(i)

    @staticmethod
    def from_word(n: int, letters: Iterable[int]) -> "AffinePermutation":
        """Product ``s_{i1} ... s_{il}`` applied to the identity window.

        The letters are swapped into one list, and the length moves by one
        per letter as in :meth:`times_s`.
        """
        win = list(AffinePermutation.identity(n).window)
        length = 0
        for i in letters:
            length += -1 if _swap(win, n, i % n) else 1
        return AffinePermutation._trusted(n, tuple(win), length)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        """Composition ``(self*other)(i) = self(other(i))``."""
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        n = self.n
        if n != other.n:
            raise InvalidInputError(f"period mismatch: {n} vs {other.n}")
        win = self.window
        out = []
        for v in other.window:
            j = (v - 1) % n
            out.append(win[j] + (v - 1 - j))
        return AffinePermutation._trusted(n, tuple(out))

    def inverse(self) -> "AffinePermutation":
        return AffinePermutation._trusted(
            self.n, inverse_window(self.n, self.window), self._length)

    def times_s(self, i: int) -> "AffinePermutation":
        """Right multiplication ``w * s_i`` (swap window positions).

        A known length moves by one: down iff ``w(i) > w(i+1)``.
        """
        n = self.n
        win = list(self.window)
        descent = _swap(win, n, i % n)
        length = self._length
        if length is not None:
            length += -1 if descent else 1
        return AffinePermutation._trusted(n, tuple(win), length)

    # -- length and descents -----------------------------------------------

    @property
    def length(self) -> int:
        """Number of inversions ``i < j`` (``1 <= i <= n``) with ``w(i) > w(j)``.

        Read from the ``_length`` slot, or computed once into it by the
        closed formula ``sum |floor((w(j)-w(i))/n)|`` over window pairs
        ``i < j``; cross-checked against direct unfolding in the test suite.
        Two threads that both find the slot empty store the same value.
        """
        total = self._length
        if total is None:
            n, win = self.n, self.window
            total = 0
            for a in range(n):
                for b in range(a + 1, n):
                    q = (win[b] - win[a]) // n
                    total += -q if q < 0 else q
            object.__setattr__(self, "_length", total)
        return total

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def has_right_descent(self, i: int) -> bool:
        """True iff ``len(w * s_i) < len(w)``, i.e. ``w(i) > w(i+1)``."""
        n, win = self.n, self.window
        i %= n
        return win[i - 1] > win[i] if i else win[n - 1] - n > win[0]

    def right_descents(self) -> frozenset[int]:
        return frozenset(window_descents(self.n, self.window))

    def reduced_word(self) -> Word:
        """One canonical reduced word (greedy smallest right descent), off
        one list of the window: a swap at ``i`` can only make ``i +- 1`` (mod
        n) descents, so the scan resumes at ``i - 1`` (0 after 1 or ``n - 1``, 1 after 0)."""
        n, win, letters, i = self.n, list(self.window), [], 0
        while i < n:
            if (win[i - 1] if i else win[n - 1] - n) < win[i]:
                i += 1
            else:
                _swap(win, n, i)
                letters.append(i)
                i = i - 1 if 1 < i < n - 1 else (0 if i else 1)
        return tuple(reversed(letters))

    # -- Grassmannian tests and statistics -----------------------------------

    def is_grassmannian(self, p: int) -> bool:
        """True iff ``w(p+1) < w(p+2) < ... < w(p+n)``, i.e. iff no adjacent
        window pair but the one at ``p`` is a right descent.

        Equivalently every reduced word ends with ``s_p``; the identity is
        declared p-Grassmannian for every p (empty descent set).
        """
        n, win = self.n, self.window
        k = p % n
        if k and win[n - 1] - n > win[0]:
            return False
        for i in range(1, n):
            if i != k and win[i - 1] > win[i]:
                return False
        return True

    def code(self) -> tuple[int, ...]:
        """``(c_1, ..., c_n)``: ``c_i`` counts the ``j < i`` with ``w(j) >
        w(i)``; ``w`` has a right descent at ``i`` iff ``c_i < c_{i+1}``.
        With ``d = w(b) - w(i) > 0``, position ``b`` has ``ceil(d/n)`` such
        translates ``j = b + kn`` if ``b < i``, ``floor(d/n)`` if ``b > i``.

        >>> AffinePermutation.from_word(3, [0]).code()
        (1, 0, 0)
        """
        n, win = self.n, self.window
        return tuple(sum((wb - wi + n - 1) // n for wb in win[:i] if wb > wi)
                     + sum((wb - wi) // n for wb in win[i + 1:] if wb > wi)
                     for i, wi in enumerate(win))


def enumerate_reduced_words(w: AffinePermutation, cap: int) -> tuple[Word, ...]:
    """All reduced words of ``w``; refuses elements longer than ``cap``.

    Memoized descent recursion: words of ``w`` are words of ``w*s_i`` with
    ``i`` appended, over right descents ``i``.
    """
    if w.length > cap:
        raise CapExceededError(f"length {w.length} exceeds cap {cap}")

    def rec(u: AffinePermutation) -> tuple[Word, ...]:
        key = (u.n, u.window)
        hit = _REDUCED_WORDS_MEMO.get(key)
        if hit is not None:
            return hit
        if u.is_identity():
            words: tuple[Word, ...] = ((),)
        else:
            words = tuple(word + (i,)
                          for i in sorted(u.right_descents())
                          for word in rec(u.times_s(i)))
        return _REDUCED_WORDS_MEMO.setdefault(key, words)

    return rec(w)


def inversion_ends(w: AffinePermutation) -> list[int] | None:
    """The values ``w(p)``, ``1 <= p <= n``, at the positions that end an
    inversion, in window order; None when ``w`` contains 321, i.e. some
    ``i < j < l`` in Z have ``w(i) > w(j) > w(l)``.

    Position ``p`` ends an inversion iff ``max w(p-n .. p-1) > w(p)`` (a
    value further left is smaller by a multiple of ``n``), and starts one
    iff ``min w(p+1 .. p+n) < w(p)``.  If ``p`` ends one and starts one,
    at ``q > p`` with ``w(q) < w(p)``, then ``q`` ends one too, so ``w``
    avoids 321 iff the values at the positions that end an inversion
    increase.  One pass over the window with the running maximum reads
    them, and stops at the first drop; by periodicity the last such value
    must also stay below the first one plus ``n``.  Their number is
    ``maxr(w)``: ``p - 1`` is in the maximal decreasing right factor iff
    ``p`` ends an inversion (and ``p`` is in the maximal increasing one iff
    ``p`` starts one).

    >>> inversion_ends(AffinePermutation.from_word(4, [1, 0]))  # (0, 1, 3, 6)
    [0, 1]
    >>> inversion_ends(AffinePermutation.from_word(3, [0, 1, 0])) is None
    True
    """
    high = max(w.window) - w.n  # max w(p) over p <= 0
    ends = []
    for x in w.window:
        if x > high:
            high = x
        elif ends and x < ends[-1]:
            return None
        else:
            ends.append(x)
    return ends if not ends or ends[-1] < ends[0] + w.n else None


def is_321_avoiding(w: AffinePermutation) -> bool:
    """No ``i < j < l`` in Z with ``w(i) > w(j) > w(l)``, read by
    :func:`inversion_ends`; equivalent to no reduced word containing a
    factor ``s_i s_{i+-1} s_i`` (both are exercised by the test suite)."""
    return inversion_ends(w) is not None


def letter_multiplicities(w: AffinePermutation) -> dict[int, int]:
    """Occurrences of each generator in a reduced word of ``w``.

    ``c_i = #{j <= i : w(j) > i}``, the values carried across the cut
    between ``i`` and ``i + 1``, counted over the window: position ``t``'s
    translates ``t + kn`` qualify for ``floor((i - w(t))/n) < k <=
    floor((i - t)/n)``.  For 321-avoiding ``w``, where all reduced words
    share one letter multiset, this is the multiplicity of ``s_i``; for any
    ``w`` it is 0 exactly when ``s_i`` is absent.
    """
    n, win = w.n, w.window
    return {i: sum(max(0, (i - t) // n - (i - v) // n)
                   for t, v in enumerate(win, 1))
            for i in range(n)}


# -- cyclically decreasing / increasing elements -----------------------------


def cyclic_runs(n: int, J) -> list[tuple[int, int]]:
    """The maximal cyclic intervals ``[p, q]`` of a proper subset ``J`` of
    ``Z/nZ``, its runs, by start ``p`` (``q`` may pass ``n - 1``, wrapping
    round): one pass over the sorted members, joining ``n - 1`` to 0."""
    runs: list[tuple[int, int]] = []
    for x in sorted(J):
        if runs and runs[-1][1] == x - 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
        runs.append((runs.pop()[0], n + runs.pop(0)[1]))  # last, then first
    return runs


def cyclic_word(n: int, J: frozenset[int], decreasing: bool) -> Word:
    """The canonical word of ``d_J`` (``decreasing``) or ``u_J`` for a
    proper subset ``J`` of ``Z/nZ``: per maximal cyclic interval ``[p, q]``,
    ``s_q ... s_p`` when decreasing and ``s_p ... s_q`` when increasing;
    intervals by start.

    >>> cyclic_word(7, frozenset({0, 1, 4, 6}), True)
    (4, 1, 0, 6)
    """
    if not all(0 <= i < n for i in J):
        raise InvalidInputError(f"members must lie in 0..{n - 1}")
    if len(J) == n:
        raise InvalidInputError("J must be a proper subset of Z/nZ")
    letters: list[int] = []
    for p, q in cyclic_runs(n, J):
        span = range(q, p - 1, -1) if decreasing else range(p, q + 1)
        letters.extend(i % n for i in span)
    return tuple(letters)


def cyclic_element(n: int, J: frozenset[int], decreasing: bool) -> AffinePermutation:
    """``d_J`` (``decreasing``) or ``u_J``, built from :func:`cyclic_word`
    once per ``(n, J, decreasing)`` and memoized."""
    key = (n, J, decreasing)
    hit = _CYCLIC_ELEMENT_CACHE.get(key)
    if hit is None:
        hit = _CYCLIC_ELEMENT_CACHE.setdefault(
            key, AffinePermutation.from_word(n, cyclic_word(n, J, decreasing)))
    return hit


def interval_set(n: int, lo: int, hi: int) -> frozenset[int]:
    """The cyclic interval ``[lo, hi]`` mod n."""
    span = (hi - lo) % n + 1
    return frozenset((lo + t) % n for t in range(span))


def proper_subsets(n: int, size: int) -> Iterator[frozenset[int]]:
    if size >= n:
        return
    for combo in itertools.combinations(range(n), size):
        yield frozenset(combo)


def max_cyclic_factor(w: AffinePermutation, decreasing: bool = True
                      ) -> tuple[frozenset[int], list[int]]:
    """The unique maximal ``J`` splitting off a right cyclic factor, and
    how far each generator's interval may reach in one.

    Decreasing, ``J`` is the one with ``w = v * d_J`` length-additively that
    contains every other such ``J'``; its size is ``maxr(w)``, and
    ``d_{[p, p+r-1]}`` peels off length-additively exactly for ``r <=
    reach[p]``.  Increasing, it is ``maxc(w)``, for ``w = v * u_J``, and
    ``u_{[p-r+1, p]}`` peels off exactly for ``r <= reach[p]``.  A left
    factor of ``w`` is a right factor of ``w^-1`` in the other direction,
    since ``(d_J)^-1 == u_J``.

    Window criterion, O(n^2): the intervals of ``J`` act on disjoint
    positions, so ``J`` is valid iff each of its maximal cyclic intervals
    is, and the maximal ``J`` is the union of all valid intervals, each
    generator's longest found by one walk along the window.

    >>> w = AffinePermutation.from_word(4, [1, 0])  # d_{0,1} = s_1 s_0
    >>> max_cyclic_factor(w)
    (frozenset({0, 1}), [2, 0, 0, 0])
    >>> sorted(max_cyclic_factor(w, False)[0])
    [0]
    """
    n, win = w.n, w.window
    # w(1-n), ..., w(2n): position i sits at index i + n - 1.  Each walk
    # stops within one period, as w(i + n) = w(i) + n.
    ext = [v - n for v in win] + list(win) + [v + n for v in win]
    reach = []
    for p in range(n):
        k = p + n - 1
        if decreasing:
            # d_{[p,q]}: the value w(p) moves right past w(p+1), ..., w(q+1)
            top, j = ext[k], k + 1
            while ext[j] < top:
                j += 1
            reach.append(j - k - 1)
        else:
            # u_{[i,p]}: the value w(p+1) moves left past w(p), ..., w(i)
            bottom, j = ext[k + 1], k
            while ext[j] > bottom:
                j -= 1
            reach.append(k - j)
    sign = 1 if decreasing else -1
    return frozenset((p + sign * t) % n
                     for p, r in enumerate(reach) for t in range(r)), reach


def cyclic_factors(w: AffinePermutation, size: int, decreasing: bool = True
                   ) -> list[tuple[frozenset[int], list[tuple[int, int]]]]:
    """Every ``J`` of ``size`` elements splitting off ``d_J`` (``decreasing``)
    or ``u_J`` on the right length-additively, in the order of
    ``proper_subsets``, each with its runs (:func:`cyclic_runs`): the ``J``
    with ``len(w * u_J) == len(w) - size`` (so ``w = (w u_J) d_J``), or
    with ``len(w * d_J) == len(w) - size``.  The left decreasing factors of
    ``w`` are the right increasing factors of ``w^-1``.

    Criterion: ``J`` is admissible iff each of its runs fits within its
    generator's reach (:func:`max_cyclic_factor`; anchored at the run's
    first generator for decreasing factors and at its last for increasing
    ones).  Every admissible ``J`` lies inside the maximal factor, so only
    its ``C(|maximal|, size)`` subsets are tried, as sorted combinations
    with no product formed; only an admissible one is made a frozenset.

    >>> w = AffinePermutation.from_word(5, [1, 0, 3])  # s_1 s_0 s_3
    >>> cyclic_factors(w, 2)
    [(frozenset({0, 1}), [(0, 1)]), (frozenset({0, 3}), [(0, 0), (3, 3)])]
    >>> [sorted(J) for J, _ in cyclic_factors(w.inverse(), 2, False)]  # left
    [[0, 1], [1, 3]]
    """
    n = w.n
    if not 0 <= size < n:
        return []
    maximal, reach = max_cyclic_factor(w, decreasing)
    if size == 1:  # {p} is one run, anchored at p
        return [(frozenset([p]), [(p, p)]) for p, r in enumerate(reach) if r]
    found = []
    for combo in itertools.combinations(sorted(maximal), size):
        runs = cyclic_runs(n, combo)
        if all(q - p < reach[p if decreasing else q % n] for p, q in runs):
            found.append((frozenset(combo), runs))
    return found


def shape_of(w: AffinePermutation) -> Partition:
    """The bounded partition of a 0-Grassmannian ``w`` (inverse to
    :func:`grassmannian_from_kbounded`): the shape of its maximal
    decomposition ``w = d_{J_p} ... d_{J_1}``, read off as the conjugate of
    its weakly decreasing code.

    >>> shape_of(AffinePermutation.from_word(6, [5, 1, 0]))
    (2, 1)
    """
    if not w.is_grassmannian(0):
        raise InvalidInputError(f"not 0-Grassmannian: {w}")
    return code_shape(grassmannian_code(w.n, w.window))


def grassmannian_code(n: int, win: tuple[int, ...]) -> tuple[int, ...]:
    """The code of a 0-Grassmannian ``w`` (:meth:`AffinePermutation.code`)
    from its window, in O(n log n).  The window increases, so only the
    translates of later positions ``b > i`` count, ``floor((w(b) - w(i))/n)`` each; with ``w(b)
    = q_b n + r_b`` that is ``q_b - q_i - [r_b < r_i]``, so ``c_i`` is a
    suffix sum of the ``q_b``, less ``q_i`` per later position, less the
    later residues below ``r_i``, found by bisection.

    >>> grassmannian_code(6, AffinePermutation.from_word(6, [5, 1, 0]).window)
    (2, 1, 0, 0, 0, 0)
    """
    code, later, total = [], [], 0
    for k, v in enumerate(reversed(win)):
        q, r = divmod(v, n)
        below = bisect_left(later, r)
        code.append(total - k * q - below)
        later.insert(below, r)
        total += q
    return tuple(reversed(code))


def code_shape(code: tuple[int, ...]) -> Partition:
    """The conjugate of a weakly decreasing code ``c_1 >= c_2 >= ...``: the
    shape of a 0-Grassmannian element from its code, of size its length
    (``sum(code)``).

    >>> code_shape((2, 1, 0, 0, 0, 0))
    (2, 1)
    """
    shape, k = [], len(code)
    for t in range(code[0]):
        while code[k - 1] <= t:  # part t + 1 counts the entries above t
            k -= 1
        shape.append(k)
    return tuple(shape)


def grassmannian_from_kbounded(n: int, lam: Partition) -> AffinePermutation:
    """The 0-Grassmannian element of a partition with parts ``<= n - 1``.

    ``g(lam) = d_{J_p} ... d_{J_1}`` with ``J_j = [-j+1, lam_j - j]`` mod n,
    built as ``d_{J_p} * g(lam[:-1])`` with ``p = len(lam)`` and memoized on
    ``(n, lam)``, so each new partition costs one product on the partition
    one part shorter.  ``lam`` is validated, and the product checked to be
    length-additive and 0-Grassmannian, once per new entry.

    >>> grassmannian_from_kbounded(6, (2, 1)).reduced_word()
    (5, 1, 0)
    """
    hit = _GRASSMANNIAN_MEMO.get((n, lam))
    if hit is None:
        check_partition(lam)
        if lam and lam[0] > n - 1:
            raise InvalidInputError(f"parts must be at most {n - 1}: {lam}")
        if not lam:
            hit = AffinePermutation.identity(n)
        else:
            p = len(lam)
            hit = (cyclic_element(n, interval_set(n, -p + 1, lam[-1] - p), True)
                   * grassmannian_from_kbounded(n, lam[:-1]))
            if hit.length != sum(lam) or not hit.is_grassmannian(0):
                raise AssertionError(
                    f"canonical Grassmannian product failed for {lam}")
        hit = _GRASSMANNIAN_MEMO.setdefault((n, lam), hit)
    return hit


def rotate(w: AffinePermutation, t: int) -> AffinePermutation:
    """The rotation automorphism ``f^t: s_i -> s_{i+t}``.

    Conjugation by the shift ``j -> j + t``; window ``f^t(w)(i) = w(i-t)+t``,
    which is the window of :func:`turned_window` at ``k = t mod n``.
    """
    return AffinePermutation._trusted(w.n, turned_window(w.n, w.window, t % w.n),
                                      w._length)


def turned_window(n: int, win: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The window of ``f^k(w)`` for ``0 <= k < n``: ``win`` turned right by
    ``k`` places, its last ``k`` entries shifted by ``k - n`` and the others
    by ``k``."""
    return tuple([v + k - n for v in win[n - k:]] + [v + k for v in win[:n - k]])


def rotation_key(n: int, win: tuple[int, ...]) -> tuple[int, ...]:
    """The least window among the ``n`` rotations ``f^t(w)`` of the ``w``
    of window ``win``: one key per Z/n orbit, since the orbit's elements
    share their rotated windows and a window determines its element.  Entry ``t`` of the window of
    ``f^k(w)`` is ``s[(i + t) % n] + t`` with ``s[j] = w(j + 1) - j`` and
    ``i = -k mod n``, so the key turns the least rotation of ``s`` to the
    front: one window is built, and only rotations that tie for the least
    start are compared, as slices of ``s`` (at most ``O(n^2)``).

    >>> w = AffinePermutation.from_word(4, [1, 0])
    >>> [rotate(w, t).window for t in range(4)]
    [(0, 1, 3, 6), (3, 1, 2, 4), (1, 4, 2, 3), (0, 2, 5, 3)]
    >>> rotation_key(4, rotate(w, 2).window)
    (0, 1, 3, 6)
    """
    starts = [v - i for i, v in enumerate(win)]
    low = min(starts)
    i = starts.index(low)
    if starts.count(low) > 1:
        twice = starts + starts
        i = min((j for j, v in enumerate(starts) if v == low),
                key=lambda j: twice[j:j + n])
    return turned_window(n, win, -i % n)


# -- enumeration -------------------------------------------------------------


def elements_by_length(n: int, maxlen: int) -> list[list[AffinePermutation]]:
    """All elements of length ``0..maxlen``, grouped by length.

    Breadth-first search along the right weak order; each level is sorted by
    window for determinism.
    """
    levels = [[AffinePermutation.identity(n)]]
    seen = {levels[0][0].window}
    for _ in range(maxlen):
        nxt = []
        for w in levels[-1]:
            for i in range(n):
                if not w.has_right_descent(i):
                    u = w.times_s(i)
                    if u.window not in seen:
                        seen.add(u.window)
                        nxt.append(u)
        levels.append(sorted(nxt, key=lambda u: u.window))
    return levels


def grassmannians_of_length(n: int, ell: int) -> list[AffinePermutation]:
    """All 0-Grassmannian elements of length ``ell``, via their partitions."""
    return [grassmannian_from_kbounded(n, lam)
            for lam in partitions_of(ell, max_part=n - 1)]
