"""The affine symmetric group in window notation.

An element ``w`` is a bijection of the integers with ``w(i + n) = w(i) + n``
and ``sum(w(1..n)) = n(n+1)/2``; it is stored as the window
``(w(1), ..., w(n))``.  The generator ``s_i`` (index mod n) swaps the values
``i + kn`` and ``i + 1 + kn`` for every ``k``; right multiplication by
``s_i`` swaps window *positions* ``i`` and ``i+1`` (with value shifts of
``+-n`` at the wraparound), left multiplication swaps window *values*.

Also here: cyclically decreasing/increasing elements ``d_J`` / ``u_J`` for a
proper subset ``J`` of ``Z/nZ``, their maximal one-sided factors, the unique
maximal decomposition into cyclically decreasing elements, and the induced
bijection between 0-Grassmannian elements and partitions with parts < n.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from cylkit import memo
from cylkit.errors import CapExceededError, InvalidInputError
from cylkit.partitions import Partition, check_partition

Word = tuple[int, ...]

_REDUCED_WORDS_MEMO: dict[tuple[int, Word], tuple[Word, ...]] = memo.table()


@dataclass(frozen=True)
class AffinePermutation:
    """An affine permutation of period ``n`` in window notation.

    >>> AffinePermutation.identity(3)
    AffinePermutation(n=3, window=(1, 2, 3))
    >>> AffinePermutation.from_word(3, [1, 0]).length
    2
    """

    n: int
    window: tuple[int, ...]

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

    @staticmethod
    def identity(n: int) -> "AffinePermutation":
        return AffinePermutation(n, tuple(range(1, n + 1)))

    @staticmethod
    def simple(n: int, i: int) -> "AffinePermutation":
        return AffinePermutation.identity(n).times_s(i)

    @staticmethod
    def from_word(n: int, letters: Iterable[int]) -> "AffinePermutation":
        """Product ``s_{i1} ... s_{il}`` applied to the identity window."""
        w = AffinePermutation.identity(n)
        for i in letters:
            w = w.times_s(i)
        return w

    # -- evaluation --------------------------------------------------------

    def value(self, i: int) -> int:
        """``w(i)`` for any integer ``i`` via the periodic extension."""
        j = (i - 1) % self.n
        return self.window[j] + (i - 1 - j)

    def position(self, v: int) -> int:
        """The unique ``i`` with ``w(i) == v``."""
        for j, wv in enumerate(self.window):
            if (v - wv) % self.n == 0:
                return j + 1 + (v - wv)
        raise AssertionError("unreachable: window residues cover Z/nZ")

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        """Composition ``(self*other)(i) = self(other(i))``."""
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        if self.n != other.n:
            raise InvalidInputError(f"period mismatch: {self.n} vs {other.n}")
        return AffinePermutation(
            self.n, tuple(self.value(other.window[j]) for j in range(self.n)))

    def inverse(self) -> "AffinePermutation":
        return AffinePermutation(
            self.n, tuple(self.position(i) for i in range(1, self.n + 1)))

    def times_s(self, i: int) -> "AffinePermutation":
        """Right multiplication ``w * s_i`` (swap window positions)."""
        n = self.n
        i = i % n
        win = list(self.window)
        if i == 0:
            win[0], win[n - 1] = self.window[n - 1] - n, self.window[0] + n
        else:
            win[i - 1], win[i] = win[i], win[i - 1]
        return AffinePermutation(n, tuple(win))

    def s_times(self, i: int) -> "AffinePermutation":
        """Left multiplication ``s_i * w`` (swap window values)."""
        n = self.n
        i = i % n
        j = (i + 1) % n
        win = tuple(v + 1 if v % n == i else (v - 1 if v % n == j else v)
                    for v in self.window)
        return AffinePermutation(n, win)

    # -- length and descents -----------------------------------------------

    @cached_property
    def length(self) -> int:
        """Number of inversions ``i < j`` (``1 <= i <= n``) with ``w(i) > w(j)``.

        Computed by the closed formula ``sum |floor((w(j)-w(i))/n)|`` over
        window pairs ``i < j``; cross-checked against direct unfolding in the
        test suite.
        """
        n, win = self.n, self.window
        total = 0
        for a in range(n):
            for b in range(a + 1, n):
                q = (win[b] - win[a]) // n
                total += -q if q < 0 else q
        return total

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def has_right_descent(self, i: int) -> bool:
        """True iff ``len(w * s_i) < len(w)``, i.e. ``w(i) > w(i+1)``."""
        return self.value(i) > self.value(i + 1)

    def right_descents(self) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if self.has_right_descent(i))

    def reduced_word(self) -> Word:
        """One canonical reduced word (greedy smallest right descent)."""
        w, letters = self, []
        while not w.is_identity():
            i = min(w.right_descents())
            letters.append(i)
            w = w.times_s(i)
        return tuple(reversed(letters))

    # -- Grassmannian tests and statistics -----------------------------------

    def is_grassmannian(self, p: int) -> bool:
        """True iff ``w(p+1) < w(p+2) < ... < w(p+n)``.

        Equivalently every reduced word ends with ``s_p``; the identity is
        declared p-Grassmannian for every p (empty descent set).
        """
        return all(self.value(p + t) < self.value(p + t + 1)
                   for t in range(1, self.n))

    def c_stat(self, i: int) -> int:
        """``c_i(w)``: the number of ``j < i`` with ``w(j) > w(i)``.

        ``c_i == c_{i+n}``; ``w`` is p-Grassmannian iff the cyclic window
        ``c_{p+1} >= ... >= c_{p+n}`` is weakly decreasing (ending in 0).
        """
        shift = max(abs(self.value(t) - t) for t in range(1, self.n + 1))
        wi = self.value(i)
        lo = min(wi + 1 - shift, i)  # below lo, w(j) <= j + shift <= wi
        return sum(1 for j in range(lo, i) if self.value(j) > wi)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "window": list(self.window)}

    @staticmethod
    def from_json(obj: dict) -> "AffinePermutation":
        return AffinePermutation(int(obj["n"]), tuple(int(v) for v in obj["window"]))


def word_to_json(n: int, letters: Sequence[int]) -> dict:
    """Generator-word schema: ``{"n": ..., "letters": [...]}``."""
    if not all(0 <= i < n for i in letters):
        raise InvalidInputError(f"letters must lie in 0..{n - 1}: {letters}")
    return {"n": n, "letters": list(letters)}


def word_from_json(obj: dict) -> tuple[int, Word]:
    n = int(obj["n"])
    letters = tuple(int(i) for i in obj["letters"])
    if not all(0 <= i < n for i in letters):
        raise InvalidInputError(f"letters must lie in 0..{n - 1}: {letters}")
    return n, letters


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


def is_321_avoiding(w: AffinePermutation) -> bool:
    """Window criterion: no ``i < j < l`` in Z with ``w(i) > w(j) > w(l)``.

    Equivalent to no reduced word containing a factor ``s_i s_{i+-1} s_i``
    (the equivalence is exercised by the test suite).
    """
    n = w.n
    shift = max(abs(w.value(t) - t) for t in range(1, n + 1))
    reach = 2 * shift + 1
    for i in range(1, n + 1):
        wi = w.value(i)
        for j in range(i + 1, i + reach + 1):
            wj = w.value(j)
            if wi > wj:
                for l in range(j + 1, j + reach + 1):
                    if wj > w.value(l):
                        return False
    return True


def letter_multiplicities(w: AffinePermutation) -> dict[int, int]:
    """Occurrences of each generator in a reduced word of ``w``.

    Well-defined for 321-avoiding elements, where all reduced words share one
    letter multiset (only commutation moves apply); computed from the greedy
    word.
    """
    counts: dict[int, int] = {i: 0 for i in range(w.n)}
    for i in w.reduced_word():
        counts[i] += 1
    return counts


# -- cyclically decreasing / increasing elements -----------------------------


@dataclass(frozen=True)
class CyclicSet:
    """A proper subset of ``Z/nZ`` with a reading direction.

    ``decreasing=True`` denotes ``d_J`` (``s_{i+1}`` before ``s_i``),
    ``decreasing=False`` denotes ``u_J``.  The empty set is the identity.
    """

    n: int
    members: frozenset[int]
    decreasing: bool = True

    def __post_init__(self):
        if not all(0 <= i < self.n for i in self.members):
            raise InvalidInputError(f"members must lie in 0..{self.n - 1}")
        if len(self.members) == self.n:
            raise InvalidInputError("J must be a proper subset of Z/nZ")

    def intervals(self) -> list[tuple[int, int]]:
        """Maximal cyclic intervals ``[p, q]`` of the set, sorted by ``p``."""
        out = []
        for p in sorted(self.members):
            if (p - 1) % self.n not in self.members:
                q = p
                while (q + 1) % self.n in self.members:
                    q += 1
                out.append((p, q % self.n))
        return out

    def word(self) -> Word:
        """The canonical word: per interval ``[p,q]``, ``s_q..s_p`` when
        decreasing and ``s_p..s_q`` when increasing; intervals by start."""
        letters: list[int] = []
        for p, q in self.intervals():
            span = (q - p) % self.n + 1
            if self.decreasing:
                letters.extend((q - t) % self.n for t in range(span))
            else:
                letters.extend((p + t) % self.n for t in range(span))
        return tuple(letters)

    def element(self) -> AffinePermutation:
        return AffinePermutation.from_word(self.n, self.word())

    def reversed(self) -> "CyclicSet":
        return CyclicSet(self.n, self.members, not self.decreasing)


def interval_set(n: int, lo: int, hi: int, decreasing: bool = True) -> CyclicSet:
    """The cyclic interval ``[lo, hi]`` mod n as a CyclicSet."""
    span = (hi - lo) % n + 1
    return CyclicSet(n, frozenset((lo + t) % n for t in range(span)), decreasing)


def proper_subsets(n: int, size: int) -> Iterator[frozenset[int]]:
    if size >= n:
        return
    for combo in itertools.combinations(range(n), size):
        yield frozenset(combo)


def max_cyclic_factor(w: AffinePermutation, side: str = "right",
                      direction: str = "decreasing") -> CyclicSet:
    """The unique maximal ``J`` splitting off a one-sided cyclic factor.

    For ``side="right", direction="decreasing"`` this is the ``J`` with
    ``w = v * d_J`` length-additively that contains every other valid ``J'``;
    its size is ``maxr(w)``.  ``side="right", direction="increasing"`` gives
    ``maxc(w)``.  Computed by exhaustive search over proper subsets (desk
    scale: at most ``2^n`` candidates), which also verifies uniqueness of the
    maximum.
    """
    if side not in ("right", "left") or direction not in ("decreasing", "increasing"):
        raise InvalidInputError(f"bad side/direction: {side}/{direction}")
    decreasing = direction == "decreasing"
    n, lw = w.n, w.length
    valid: list[frozenset[int]] = []
    for sz in range(min(n - 1, lw) + 1):
        for members in proper_subsets(n, sz):
            cs = CyclicSet(n, members, decreasing)
            inv = cs.reversed().element()  # (d_J)^-1 == u_J and vice versa
            quotient = w * inv if side == "right" else inv * w
            if quotient.length == lw - sz:
                valid.append(members)
    best = max(valid, key=len)
    if any(not members <= best for members in valid):
        raise AssertionError(f"maximal cyclic factor not unique for {w}")
    return CyclicSet(n, best, decreasing)


def maximal_cdd(w: AffinePermutation) -> tuple[list[CyclicSet], Partition]:
    """Unique maximal decomposition ``w = d_{J_p} ... d_{J_1}``.

    Peels maximal right factors; returns ``[J_1, ..., J_p]`` together with
    the shape ``(|J_1|, ..., |J_p|)``, which is a partition with parts < n.
    """
    sets: list[CyclicSet] = []
    sizes: list[int] = []
    cur = w
    while not cur.is_identity():
        J = max_cyclic_factor(cur, "right", "decreasing")
        sets.append(J)
        sizes.append(len(J.members))
        cur = cur * J.reversed().element()
    return sets, check_partition(tuple(sizes))


def shape_of(w: AffinePermutation) -> Partition:
    """The partition ``(|J_1|, ..., |J_p|)`` of the maximal decomposition."""
    return maximal_cdd(w)[1]


def grassmannian_from_kbounded(n: int, lam: Partition) -> AffinePermutation:
    """The 0-Grassmannian element of a partition with parts ``<= n - 1``.

    ``w = d_{J_p} ... d_{J_1}`` with ``J_j = [-j+1, lam_j - j]`` mod n.

    >>> grassmannian_from_kbounded(6, (2, 1)).reduced_word()
    (5, 1, 0)
    """
    check_partition(lam)
    if lam and lam[0] > n - 1:
        raise InvalidInputError(f"parts must be at most {n - 1}: {lam}")
    w = AffinePermutation.identity(n)
    for j in range(len(lam), 0, -1):
        w = w * interval_set(n, -j + 1, lam[j - 1] - j).element()
    expected = sum(lam)
    if w.length != expected or not w.is_grassmannian(0):
        raise AssertionError(f"canonical Grassmannian product failed for {lam}")
    return w


def kbounded_from_grassmannian(w: AffinePermutation) -> Partition:
    """Inverse of :func:`grassmannian_from_kbounded` via the maximal
    decomposition."""
    if not w.is_grassmannian(0):
        raise InvalidInputError(f"not 0-Grassmannian: {w}")
    return shape_of(w)


def rotate(w: AffinePermutation, t: int) -> AffinePermutation:
    """The rotation automorphism ``f^t: s_i -> s_{i+t}``.

    Conjugation by the shift ``j -> j + t``; window ``f^t(w)(i) = w(i-t)+t``.
    """
    n = w.n
    return AffinePermutation(n, tuple(w.value(i - t) + t for i in range(1, n + 1)))


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
    from cylkit.partitions import partitions_of

    return [grassmannian_from_kbounded(n, lam)
            for lam in partitions_of(ell, max_part=n - 1)]
