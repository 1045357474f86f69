"""Independent brute-force oracles used only by the test suite.

Each function here recomputes a quantity by a different route than the
library (unfolded inversion counts, breadth-first word search, exhaustive
factorization, subset scans, lattice words) so that agreement is meaningful.
"""

from __future__ import annotations

import argparse
import functools
import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, make_dataclass
from fractions import Fraction
from math import factorial

from cylkit.affine import (
    AffinePermutation,
    cyclic_element,
    grassmannian_from_kbounded,
    grassmannians_of_length,
    max_cyclic_factor,
    proper_subsets,
    shape_of,
)
from cylkit.cli import _parse_csv_ints
from cylkit.cylindric import CylindricShape, CylType, PeriodicSequence
from cylkit.errors import GradingError, InvalidInputError, SolveError
from cylkit.partitions import Partition, check_partition, part, partitions_of
from cylkit.stanley import (
    DEFAULT_EXPAND_CAP,
    dual_pieri_branches,
    stanley_monomials,
)
from cylkit.symfunc import SymmetricPolynomial, lr_coeff, resolve, schur_poly


def orbit_size(lam: Partition, nvars: int) -> int:
    """Number of distinct rearrangements of ``lam`` padded to ``nvars``."""
    padded = list(lam) + [0] * (nvars - len(lam))
    denom = 1
    for c in Counter(padded).values():
        denom *= factorial(c)
    return factorial(nvars) // denom


def orbit_collapse(nvars: int, degree: int,
                   table: dict[tuple[int, ...], int]) -> SymmetricPolynomial:
    """Collapse a full exponent-vector table onto partition keys.

    Verifies symmetry: every rearrangement of a dominant exponent must be
    present with the same count.
    """
    by_key: dict[Partition, list[int]] = {}
    for expo, c in table.items():
        if c == 0:
            continue
        if len(expo) != nvars:
            raise InvalidInputError(
                f"exponent vector {expo} does not have {nvars} entries")
        key = sorted(expo, reverse=True)
        by_key.setdefault(tuple(key[:nvars - key.count(0)]), []).append(c)
    coeffs: dict[Partition, int] = {}
    for lam, bucket in by_key.items():
        if len(set(bucket)) != 1 or len(bucket) != orbit_size(lam, nvars):
            raise InvalidInputError(f"table not symmetric at weight {lam}")
        coeffs[lam] = bucket[0]
    return SymmetricPolynomial(nvars, degree, coeffs)


# -- the slow readers: one value w(i) at a time ---------------------------------
#
# The package reads descents, Grassmannian tests, words, rotations and
# boundary actions straight off the window; these are the per-index routes
# it replaced, kept as the references it is certified against.


def value(w: AffinePermutation, i: int) -> int:
    """``w(i)`` for any integer ``i`` via the periodic extension."""
    j = (i - 1) % w.n
    return w.window[j] + (i - 1 - j)


def has_right_descent_by_values(w: AffinePermutation, i: int) -> bool:
    return value(w, i) > value(w, i + 1)


def right_descents_by_values(w: AffinePermutation) -> frozenset[int]:
    return frozenset(i for i in range(w.n) if has_right_descent_by_values(w, i))


def is_grassmannian_by_values(w: AffinePermutation, p: int) -> bool:
    """``w(p+1) < w(p+2) < ... < w(p+n)``, one value at a time."""
    return all(value(w, p + t) < value(w, p + t + 1) for t in range(1, w.n))


def reduced_word_by_steps(w: AffinePermutation) -> tuple[int, ...]:
    """The greedy word (smallest right descent first), one element per
    letter."""
    letters = []
    while not w.is_identity():
        i = min(right_descents_by_values(w))
        letters.append(i)
        w = w.times_s(i)
    return tuple(reversed(letters))


def rotate_by_values(w: AffinePermutation, t: int) -> AffinePermutation:
    """``f^t(w)(i) = w(i - t) + t`` through the validating constructor."""
    return AffinePermutation(
        w.n, tuple(value(w, i - t) + t for i in range(1, w.n + 1)))


def is_321_avoiding_by_values(w: AffinePermutation) -> bool:
    """No ``i < j < l`` with ``w(i) > w(j) > w(l)``, over the same ranges as
    the window criterion but one value at a time."""
    n = w.n
    shift = max(abs(value(w, t) - t) for t in range(1, n + 1))
    reach = 2 * shift + 1
    for i in range(1, n + 1):
        wi = value(w, i)
        for j in range(i + 1, i + reach + 1):
            wj = value(w, j)
            if wi > wj:
                for l in range(j + 1, j + reach + 1):
                    if wj > value(w, l):
                        return False
    return True


def from_word_by_steps(n: int, letters) -> AffinePermutation:
    """The product of the letters, one ``times_s`` element per letter."""
    w = AffinePermutation.identity(n)
    for i in letters:
        w = w.times_s(i)
    return w


def already_grassmannian_scan(w: AffinePermutation
                              ) -> tuple[AffinePermutation, int] | None:
    """``(identity, p)`` for the first ``p`` in ``0..n-1`` with ``w``
    p-Grassmannian, or None."""
    for p in range(w.n):
        if is_grassmannian_by_values(w, p):
            return AffinePermutation.identity(w.n), p
    return None


def act_by_values(beta: PeriodicSequence,
                  w: AffinePermutation) -> PeriodicSequence | None:
    """``R'_p = w(R_p + 1 - p) + p - 1`` if the rows gain ``len(w)`` cells,
    through the validating constructor."""
    rows = tuple(value(w, bound + 1 - p) + p - 1
                 for p, bound in enumerate(beta.rows, 1))
    if sum(rows) - sum(beta.rows) != w.length:
        return None
    return PeriodicSequence(beta.ctype, rows)


def unfolded_inversions(w: AffinePermutation, periods: int = 6) -> int:
    """Inversion count of the bi-infinite extension by direct unfolding."""
    n = w.n
    total = 0
    for i in range(1, n + 1):
        wi = value(w, i)
        for j in range(i + 1, i + periods * n + 1):
            if value(w, j) < wi:
                total += 1
    return total


def s_times(w: AffinePermutation, i: int) -> AffinePermutation:
    """Left multiplication ``s_i * w`` by swapping the window *values*
    ``i + kn`` and ``i + 1 + kn``, through the validating constructor."""
    n = w.n
    i = i % n
    j = (i + 1) % n
    return AffinePermutation(n, tuple(
        v + 1 if v % n == i else (v - 1 if v % n == j else v) for v in w.window))


def letter_multiplicities_greedy(w: AffinePermutation) -> dict[int, int]:
    """Occurrences of each generator in the greedy reduced word of ``w``."""
    counts = {i: 0 for i in range(w.n)}
    for i in w.reduced_word():
        counts[i] += 1
    return counts


def bfs_word_length(w: AffinePermutation, cap: int) -> int | None:
    """Minimal word length reaching ``w`` from the identity, or None."""
    if w.is_identity():
        return 0
    frontier = {AffinePermutation.identity(w.n).window}
    seen = set(frontier)
    for dist in range(1, cap + 1):
        nxt = set()
        for win in frontier:
            u = AffinePermutation(w.n, win)
            for i in range(w.n):
                v = u.times_s(i)
                if v.window == w.window:
                    return dist
                if v.window not in seen:
                    seen.add(v.window)
                    nxt.add(v.window)
        frontier = nxt
    return None


def all_words_brute(w: AffinePermutation) -> set[tuple[int, ...]]:
    """All reduced words by plain descent recursion (no memo, no cap)."""
    if w.is_identity():
        return {()}
    out = set()
    for i in range(w.n):
        if w.has_right_descent(i):
            out.update(word + (i,) for word in all_words_brute(w.times_s(i)))
    return out


def word_has_braid_factor(n: int, word: tuple[int, ...]) -> bool:
    """True iff the word contains a consecutive ``s_i s_{i+-1} s_i``."""
    for a in range(len(word) - 2):
        i, j, l = word[a], word[a + 1], word[a + 2]
        if i == l and (j - i) % n in (1, n - 1):
            return True
    return False


@functools.cache
def cyclic_factors_exhaustive(w: AffinePermutation, size: int,
                              decreasing: bool = True) -> list[frozenset[int]]:
    """Every ``J`` of ``size`` splitting off ``d_J`` (``decreasing``) or
    ``u_J`` on the right length-additively, by multiplying out all
    ``C(n, size)`` candidates.

    Memoized per ``(w, size, decreasing)``: the certifications of
    ``cyclic_factors``, ``max_cyclic_factor`` and ``in_A`` scan the same
    elements, so each scan runs once; callers must not change the list."""
    out = []
    for members in proper_subsets(w.n, size):
        inv = cyclic_element(w.n, members, not decreasing)  # (d_J)^-1 == u_J
        if (w * inv).length == w.length - size:
            out.append(members)
    return out


def max_cyclic_factor_exhaustive(w: AffinePermutation,
                                 decreasing: bool = True) -> frozenset[int]:
    """The maximal right cyclic factor by trying every proper subset.

    Keeps every ``J`` of size up to ``len(w)`` that
    :func:`cyclic_factors_exhaustive` accepts; also checks that the largest
    valid ``J`` contains every other one.
    """
    valid = [members for sz in range(min(w.n - 1, w.length) + 1)
             for members in cyclic_factors_exhaustive(w, sz, decreasing)]
    best = max(valid, key=len)
    if any(not members <= best for members in valid):
        raise AssertionError(f"maximal cyclic factor not unique for {w}")
    return best


def inversion_positions(w: AffinePermutation
                        ) -> tuple[frozenset[int], frozenset[int]]:
    """The positions ``1..n`` that start an inversion (a later position has
    a smaller value) and those that end one (an earlier position has a
    larger value), one value at a time over every position the
    displacement allows: ``|w(t) - t| <= shift`` puts the partner within
    ``2 * shift`` places."""
    n = w.n
    shift = max(abs(value(w, t) - t) for t in range(1, n + 1))
    starts = frozenset(p for p in range(1, n + 1)
                       if any(value(w, q) < value(w, p)
                              for q in range(p + 1, p + 2 * shift + 1)))
    ends = frozenset(p for p in range(1, n + 1)
                     if any(value(w, q) > value(w, p)
                            for q in range(p - 2 * shift, p)))
    return starts, ends


def max_cyclic_factor_by_positions(w: AffinePermutation,
                                   decreasing: bool = True) -> frozenset[int]:
    """The maximal right cyclic factor from :func:`inversion_positions`:
    ``maxr`` holds ``p - 1`` for each ``p`` that ends an inversion, ``maxc``
    each ``p`` that starts one (residues mod n)."""
    starts, ends = inversion_positions(w)
    if decreasing:
        return frozenset((p - 1) % w.n for p in ends)
    return frozenset(p % w.n for p in starts)


def in_A_by_positions(w: AffinePermutation, m: int) -> bool:
    """Membership in A(m, n) by its definition, each part read one value at
    a time: 321-avoiding, ``maxc <= m`` and ``maxr <= n - m``."""
    starts, ends = inversion_positions(w)
    return (is_321_avoiding_by_values(w) and len(starts) <= m
            and len(ends) <= w.n - m)


def code_unfolded(w: AffinePermutation, i: int) -> int:
    """``c_i(w)``, the ``j < i`` with ``w(j) > w(i)``, by direct unfolding
    over every ``j`` the displacement allows (``w(j) <= j + shift``)."""
    shift = max(abs(value(w, t) - t) for t in range(1, w.n + 1))
    wi = value(w, i)
    return sum(1 for j in range(wi - shift, i) if value(w, j) > wi)


def maximal_cdd(w: AffinePermutation) -> tuple[list[frozenset[int]], Partition]:
    """Unique maximal decomposition ``w = d_{J_p} ... d_{J_1}``.

    Peels maximal right factors; returns ``[J_1, ..., J_p]`` together with
    the shape ``(|J_1|, ..., |J_p|)``, which is a partition with parts < n.
    """
    sets: list[frozenset[int]] = []
    cur = w
    while not cur.is_identity():
        J = max_cyclic_factor(cur)[0]
        sets.append(J)
        cur = cur * cyclic_element(w.n, J, False)  # (d_J)^-1 == u_J
    return sets, check_partition(tuple(len(J) for J in sets))


def interval_set(n: int, lo: int, hi: int) -> frozenset[int]:
    """The cyclic interval ``[lo, hi]`` mod n."""
    span = (hi - lo) % n + 1
    return frozenset((lo + t) % n for t in range(span))


def grassmannian_by_products(n: int, lam: Partition) -> AffinePermutation:
    """:func:`cylkit.affine.grassmannian_from_kbounded` by the route it
    replaced: ``g(lam) = d_{J_p} * g(lam[:-1])`` with ``J_p = [-p+1,
    lam_p - p]`` mod n, each ``d_J`` a built element and each product
    checked by its length, counted from the window pairs, and by its
    values to be 0-Grassmannian."""
    if not lam:
        return AffinePermutation.identity(n)
    p = len(lam)
    g = (cyclic_element(n, interval_set(n, -p + 1, lam[-1] - p), True)
         * grassmannian_by_products(n, lam[:-1]))
    if g.length != sum(lam) or not is_grassmannian_by_values(g, 0):
        raise AssertionError(f"canonical Grassmannian product failed for {lam}")
    return g


def grassmannianize_by_elements(w: AffinePermutation, seed: int | None = None
                                ) -> tuple[AffinePermutation, int]:
    """The generic Grassmannianization sweep on group elements: every step
    multiplies ``w*v`` and ``v`` by ``s_i``, checks that it is an ascent, and
    reads the statistics ``c_i`` off the new element by unfolding.  The run
    starts at the code position ``seed + 1``, which must hold a maximum of
    the code, or at the first maximum when ``seed`` is None."""
    n = w.n
    for p in range(n):
        if w.is_grassmannian(p):
            return AffinePermutation.identity(n), p
    cur, v = w, AffinePermutation.identity(n)

    def cval(u: AffinePermutation, pos: int) -> int:
        return code_unfolded(u, (pos - 1) % n + 1)

    best = max(cval(cur, p) for p in range(1, n + 1))
    if seed is None:
        seed = min(p for p in range(1, n + 1) if cval(cur, p) == best) - 1
    if cval(cur, seed + 1) != best:
        raise ValueError(f"seed {seed} is not a maximum of the code")
    q = seed
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
    if not cur.is_grassmannian(p) or cur != w * v:
        raise AssertionError("sweep did not reach a Grassmannian element")
    return v, p


def candidate_boundaries(ctype: CylType) -> Iterator[PeriodicSequence]:
    """Every boundary up to value translation by n: ``R_m = offset`` for
    ``offset = 0 .. n-1``, and the gaps ``R_{p-1} - R_p`` read from the
    bottom row up, in product order.  Built trusted: the gaps are ``>= 0``
    and sum to ``<= n - m`` (``TestAct`` passes each through the public
    constructor)."""
    m, n = ctype.m, ctype.n
    for offset in range(n):
        for gaps in itertools.product(range(n - m + 1), repeat=m - 1):
            if sum(gaps) > n - m:
                continue
            rows = tuple(itertools.accumulate(gaps, initial=offset))[::-1]
            yield PeriodicSequence._trusted(ctype, rows)


def first_admitting_boundary(w: AffinePermutation,
                             ctype: CylType) -> PeriodicSequence | None:
    """The first boundary of :func:`candidate_boundaries` on which ``w``
    acts, or None: the search that the tight Grassmannianization replaced
    by reading its boundary off the excedances of ``w``."""
    return next((b for b in candidate_boundaries(ctype)
                 if b.act(w) is not None), None)


def tight_grassmannianize_by_search(w: AffinePermutation, ctype: CylType
                                    ) -> tuple[PeriodicSequence, AffinePermutation, int]:
    """``(beta, v, p)`` of the tight Grassmannianization by search: ``beta``
    is :func:`first_admitting_boundary`; of the flat boundaries ``alpha``
    inside it (rows ``floor + (n-m)`` above the anchor row ``a``, ``floor``
    from it down, the floor lowered one step at a time until ``beta``
    contains ``alpha``) the one with the fewest cells, then the least ``a``,
    is peeled cell by cell into ``v`` (:func:`boundary_word_peel`); ``p``
    is the one right descent of ``w*v``."""
    m, n = ctype.m, ctype.n
    beta = first_admitting_boundary(w, ctype)
    best = None
    for a in range(1, m + 1):
        floor = max(beta.rows)
        while True:
            alpha = PeriodicSequence(ctype, tuple(
                floor + (n - m) if p < a else floor for p in range(1, m + 1)))
            if beta.contains(alpha):
                break
            floor -= 1
        cells = sum(beta.rows) - sum(alpha.rows)
        if best is None or cells < best[0]:
            best = cells, alpha
    v = boundary_word_peel(best[1], beta)
    (p,) = right_descents_by_values(w * v)
    return beta, v, p


def dual_pieri_branches_exhaustive(w: AffinePermutation, part_size: int,
                                   part_index: int):
    """The dual-Pieri branch families by scanning every ``J`` of
    ``part_size``: ``(B_plus, B_minus)`` as in
    :func:`cylkit.stanley.dual_pieri_branches`, or None when the tail block
    is not length-additive."""
    n = w.n
    J0 = interval_set(n, -part_index + 1, part_size - part_index)
    wprime = w * cyclic_element(n, J0, True)
    if wprime.length != w.length + part_size:
        return None
    b_plus, b_minus = [], []
    for members in proper_subsets(n, part_size):
        u_j = cyclic_element(n, members, False)
        x = u_j * wprime
        if x.length == wprime.length - part_size:
            b_plus.append(x)
        if members != J0:
            y = wprime * u_j
            if y.length == wprime.length - part_size:
                b_minus.append((members, y))
    return b_plus, b_minus


def expand_state_by_tail(u: AffinePermutation, tail: Partition) -> dict:
    """:func:`cylkit.stanley._expand_state` by the route it replaced: the
    dual-Pieri recursion memoized on ``(u.window, tail)``, so a ``u`` met
    with several tails, or in several rotations, is expanded once for each.
    The memo lives for one call."""
    n = u.n
    memo: dict = {}

    def rec(u: AffinePermutation, tail: Partition) -> dict:
        key = (u.window, tail)
        if key in memo:
            return memo[key]
        if not tail:
            if not u.is_grassmannian(0):
                raise AssertionError(f"base case is not Grassmannian: {u}")
            memo[key] = {u: 1}
            return memo[key]
        b_plus, b_minus = dual_pieri_branches(n, u.window, u.length, tail[-1], len(tail))
        head = tail[:-1]
        vprime = grassmannian_from_kbounded(n, head)
        branches = [(AffinePermutation(n, x), 1, head) for x in b_plus] + [
            (AffinePermutation(n, y), -1, shape_of(cyclic_element(
                n, frozenset().union(*(interval_set(n, p, q) for p, q in runs)),
                True) * vprime))
            for runs, y in b_minus]
        out: Counter = Counter()
        for x, sign, sub_tail in branches:
            for k, c in rec(x, sub_tail).items():
                out[k] += sign * c
        memo[key] = {k: c for k, c in out.items() if c}
        return memo[key]

    return rec(u, tail)


def stanley_coefficient_brute(w: AffinePermutation, alpha: tuple[int, ...]) -> int:
    """Number of factorizations ``w = w_1 ... w_N`` into cyclically
    decreasing elements with ``len(w_t) == alpha_t``, by exhaustive search."""
    n = w.n

    def rec(u: AffinePermutation, remaining: tuple[int, ...]) -> int:
        if not remaining:
            return 1 if u.is_identity() else 0
        size = remaining[0]
        total = 0
        for members in proper_subsets(n, size):
            rest = cyclic_element(n, members, False) * u  # (d_J)^-1 * u
            if rest.length == u.length - size:
                total += rec(rest, remaining[1:])
        return total

    return rec(w, alpha)


def stanley_monomials_by_products(w: AffinePermutation, nvars: int,
                                  memo: dict | None = None) -> SymmetricPolynomial:
    """:func:`cylkit.stanley.stanley_monomials` by the subset scan: multiply
    out ``u_J * u`` for every proper subset ``J`` and keep the ``J`` whose
    product drops the length by ``|J|``.

    ``memo`` may keep the per-``(u, left)`` tables across calls; every
    table in it is computed by the scan."""
    n = w.n
    memo = {} if memo is None else memo

    def rec(u: AffinePermutation, left: int) -> dict:
        key = (n, u.window, left)
        if key in memo:
            return memo[key]
        out: dict = {}
        if left == 0:
            if u.is_identity():
                out[()] = 1
        else:
            for size in range(min(n - 1, u.length) + 1):
                for members in proper_subsets(n, size):
                    rest = cyclic_element(n, members, False) * u
                    if rest.length != u.length - size:
                        continue
                    for suffix, c in rec(rest, left - 1).items():
                        k = (size,) + suffix
                        out[k] = out.get(k, 0) + c
        memo[key] = out
        return out

    return orbit_collapse(nvars, w.length, rec(w, nvars))


def chain_table_by_steps(start, steps: int, step, end) -> dict:
    """:func:`cylkit.symfunc.chain_table` by the fold it replaced: every
    move, weight 0 too, is taken one step at a time, the last weight rides
    along as a bound on the next, and the memo (local to one call) is keyed
    on ``(state, steps left, bound)``."""
    memo: dict = {}

    def fold(state, left: int, bound: int | None) -> dict:
        key = (state, left, bound)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if left == 0:
            return memo.setdefault(key, {(): 1} if state == end else {})
        out: dict = {}
        for nxt, weight in step(state):
            if bound is None or weight <= bound:
                for suffix, c in fold(nxt, left - 1, weight).items():
                    k = (weight,) + suffix
                    out[k] = out.get(k, 0) + c
        return memo.setdefault(key, out)

    return fold(start, steps, None)


def skew_schur_by_fillings(lam: Partition, mu: Partition,
                           nvars: int) -> SymmetricPolynomial:
    """:func:`cylkit.symfunc.skew_schur_poly` by trying every filling of the
    cells of ``lam/mu`` with ``1..nvars`` and keeping those whose rows weakly
    increase and whose columns strictly increase."""
    cells = [(r, c) for r, row in enumerate(lam)
             for c in range(part(mu, r + 1), row)]
    weights: Counter = Counter()
    for values in itertools.product(range(1, nvars + 1), repeat=len(cells)):
        entry = dict(zip(cells, values))
        if all(entry.get((r, c + 1), v) >= v and entry.get((r + 1, c), v + 1) > v
               for (r, c), v in entry.items()):
            weights[tuple(values.count(k) for k in range(1, nvars + 1))] += 1
    return orbit_collapse(nvars, len(cells), weights)


def expand_in_schur_by_polynomials(p: SymmetricPolynomial) -> dict:
    """:func:`cylkit.symfunc.expand_in_schur` by the route it replaced: each
    column a validated Schur polynomial, its monomial table keyed by
    partitions without padding."""
    return resolve(p.coeffs, lambda lam: schur_poly(lam, p.nvars).coeffs)


def lr_coefficient_lattice(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient by counting lattice-word skew SSYT.

    Tableaux of shape lam/mu and content nu whose reverse reading word
    (right to left along rows, top to bottom) is a lattice word.
    """
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    rows = len(lam)
    mu_full = tuple(mu) + (0,) * (rows - len(mu))
    height = len(nu)

    grid = [[0] * lam[r] for r in range(rows)]

    def lattice_ok(word: list[int]) -> bool:
        seen = Counter()
        for x in word:
            seen[x] += 1
            if x > 1 and seen[x] > seen[x - 1]:
                return False
        return True

    cells = [(r, c) for r in range(rows) for c in range(mu_full[r], lam[r])]

    def rec(idx: int, content: Counter) -> int:
        if idx == len(cells):
            word = [grid[r][c] for r in range(rows)
                    for c in reversed(range(mu_full[r], lam[r]))]
            return 1 if lattice_ok(word) else 0
        r, c = cells[idx]
        total = 0
        for v in range(1, height + 1):
            if content[v] >= nu[v - 1]:
                continue
            if c > mu_full[r] and grid[r][c - 1] > v:
                continue
            if r > 0 and c < lam[r - 1] and c >= mu_full[r - 1] and grid[r - 1][c] >= v:
                continue
            grid[r][c] = v
            content[v] += 1
            total += rec(idx + 1, content)
            content[v] -= 1
            grid[r][c] = 0
        return total

    return rec(0, Counter())


@functools.cache
def rim_hook_product(m: int, n: int, mu: Partition, nu: Partition
                     ) -> dict[tuple[Partition, int], int]:
    """``sigma_mu * sigma_nu`` in the quantum cohomology of Gr(m, n) as
    ``{(lam, d): C^{lam,d}_{mu,nu}}``, zeros left out, by the rim-hook rule
    of Bertram, Ciocan-Fontanine and Fulton (J. Algebra 1999), independent
    of cylindric shapes and affine permutations.

    Expand ``s_mu s_nu`` classically (:func:`cylkit.symfunc.lr_coeff`),
    keeping the partitions with at most ``m`` rows.  Put each on the
    ``m``-bead abacus, bead ``i`` at ``lam_i + m - i``, and move the top
    bead down by ``n`` while it is at least ``n``: each move removes an
    ``n``-rim hook, gives one power of ``q`` and the sign
    ``(-1)^(m-1-leg)``, ``leg`` the number of beads it passes, and a move
    onto another bead gives 0.  Memoized per product; callers must not
    change the table."""
    out: Counter = Counter()
    for lam in partitions_of(sum(mu) + sum(nu), max_part=part(mu, 1) + part(nu, 1),
                             max_len=m):
        c = lr_coeff(lam, mu, nu)
        beads = [part(lam, i) + m - i for i in range(1, m + 1)]  # decreasing
        d = 0
        while c and beads[0] >= n:
            top = beads.pop(0) - n
            if top in beads:
                c = 0
            else:
                leg = sum(1 for b in beads if b > top)
                c *= (-1) ** (m - 1 - leg)
                beads.insert(leg, top)
                d += 1
        if c:
            core = tuple(b - (m - i) for i, b in enumerate(beads, 1) if b > m - i)
            out[core, d] += c
    return {key: c for key, c in out.items() if c}


def rim_hook_gw(m: int, n: int, lam: Partition, d: int, mu: Partition,
                nu: Partition) -> int:
    """The 3-point invariant ``C^{lam,d}_{mu,nu}`` of Gr(m, n), as
    :func:`cylkit.stanley.gromov_witten` names it, read from
    :func:`rim_hook_product`."""
    return rim_hook_product(m, n, mu, nu).get((lam, d), 0)


def poly_mul_monomial_tables(nvars: int, p: dict, q: dict) -> dict:
    """Multiply two symmetric polynomials given as partition-keyed monomial
    tables; returns a partition-keyed table.  Expands each m_lambda into its
    full exponent-vector orbit, convolves, and reads off dominant exponents.
    """

    def orbit(lam: tuple[int, ...]) -> set[tuple[int, ...]]:
        padded = tuple(lam) + (0,) * (nvars - len(lam))
        return set(itertools.permutations(padded))

    full_p: Counter = Counter()
    for lam, c in p.items():
        for expo in orbit(lam):
            full_p[expo] += c
    full_q: Counter = Counter()
    for lam, c in q.items():
        for expo in orbit(lam):
            full_q[expo] += c

    prod: Counter = Counter()
    for e1, c1 in full_p.items():
        for e2, c2 in full_q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod[e] += c1 * c2

    out: dict[tuple[int, ...], int] = {}
    for expo, c in prod.items():
        if c and tuple(sorted(expo, reverse=True)) == expo:
            key = tuple(v for v in expo if v)
            out[key] = c
    return out


# -- boundaries, one box and one column at a time --------------------------


def partition_boundary(ctype: CylType, lam: Partition, d: int) -> PeriodicSequence:
    """The boundary ``lam[d]`` from its definition, for ``lam`` in the
    (m, n) box: row ``d + j`` ends at column ``lam_j + d`` for ``j = 1..m``,
    and ``R_{p+m} = R_p - (n-m)`` carries each such row into ``1..m``, one
    period at a time.  Built through the validating constructor, by a route
    independent of the row formula :func:`cylkit.cylindric.shape_new` uses.
    """
    m, n = ctype.m, ctype.n
    check_partition(lam)
    if len(lam) > m or part(lam, 1) > n - m:
        raise InvalidInputError(f"{lam} does not fit the ({m},{n}) box")
    rows = {}
    for j in range(1, m + 1):
        p, bound = d + j, part(lam, j) + d
        while p > m:
            p, bound = p - m, bound + (n - m)
        while p < 1:
            p, bound = p + m, bound - (n - m)
        rows[p] = bound
    return PeriodicSequence(ctype, tuple(rows[p] for p in range(1, m + 1)))


def add_box_by_diagonal(b: PeriodicSequence, i: int) -> PeriodicSequence | None:
    """Attach a box on diagonal ``i``; None when no cell is addable there.

    At most one period position can carry diagonal ``i``, so the outcome
    is forced.
    """
    n = b.ctype.n
    i = i % n
    spots = [p for p, bound in enumerate(b.rows, 1)
             if (bound + 1 - p) % n == i]
    if len(spots) > 1:
        raise AssertionError(f"diagonal {i} not unique on {b}")
    if not spots:
        return None
    p = spots[0]
    if not b.rows[p - 1] < b.row_bound(p - 1):
        return None
    grown = list(b.rows)
    grown[p - 1] += 1
    return PeriodicSequence(b.ctype, tuple(grown))


def apply_word_by_boxes(b: PeriodicSequence,
                        word: tuple[int, ...]) -> PeriodicSequence | None:
    """Act by the word (letters right to left), one box per letter."""
    cur = b
    for i in reversed(word):
        cur = add_box_by_diagonal(cur, i)
        if cur is None:
            return None
    return cur


def boundary_word_peel(inner: PeriodicSequence,
                       outer: PeriodicSequence) -> AffinePermutation:
    """The element ``x`` with ``A_x . inner = outer``, cell by cell.

    Peels removable cells of the outer boundary greedily (smallest row
    first); the letters in removal order spell a reduced word of ``x``.
    """
    m, n = inner.ctype.m, inner.ctype.n
    letters: list[int] = []
    cur = outer
    while cur != inner:
        for p in range(1, m + 1):
            bound = cur.row_bound(p)
            if bound > inner.row_bound(p) and bound > cur.row_bound(p + 1):
                letters.append((bound - p) % n)
                cur = PeriodicSequence(
                    cur.ctype, cur.rows[:p - 1] + (bound - 1,) + cur.rows[p:])
                break
        else:
            raise AssertionError("peeling stuck: boundaries not nested?")
    w = AffinePermutation.from_word(n, letters)
    if w.length != len(letters):
        raise AssertionError("peeled word is not reduced")
    return w


def is_toric_by_columns(shape: CylindricShape) -> bool:
    """Every row has at most ``n - m`` cells and every column at most ``m``,
    each column counted over a window of rows."""
    m, n = shape.ctype.m, shape.ctype.n
    inner, outer = shape.inner, shape.outer
    if any(outer.row_bound(p) - inner.row_bound(p) > n - m
           for p in range(1, m + 1)):
        return False
    top = outer.row_bound(1)
    for q in range(top - (n - m) + 1, top + 1):
        # column q: rows p with inner R_p < q <= outer R_p; both bounds move
        # by (n-m) every m rows, so a window of m*(2n) rows is ample.
        span = m * (abs(q) + 2 * n + max(abs(v) for v in outer.rows) + 1)
        count = sum(1 for p in range(-span, span + 1)
                    if inner.row_bound(p) < q <= outer.row_bound(p))
        if count > m:
            return False
    return True


# -- cylindric tableaux, cell by cell ----------------------------------------


def shape_cells(shape: CylindricShape) -> list[tuple[int, int]]:
    """Canonical representatives, one per cell class: rows ``1..m``."""
    inner, outer = shape.inner, shape.outer
    return [(p, q)
            for p in range(1, shape.ctype.m + 1)
            for q in range(inner.row_bound(p) + 1, outer.row_bound(p) + 1)]


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
    """All cylindric SSYT with entries ``<= nvars``: every filling of the
    cells that :meth:`CylTableau.check` accepts."""
    cells = shape_cells(shape)
    for values in itertools.product(range(1, nvars + 1), repeat=len(cells)):
        tableau = CylTableau(shape, tuple(zip(cells, values)))
        try:
            tableau.check()
        except AssertionError:
            continue
        yield tableau


def conjugate(lam: Partition) -> Partition:
    """The transposed partition: part ``j`` counts the parts of ``lam``
    that are ``>= j``."""
    return tuple(sum(1 for x in lam if x >= j) for j in range(1, part(lam, 1) + 1))


def dominance_le(mu: Partition, lam: Partition) -> bool:
    """Dominance order on partitions of equal size: mu <= lam.

    Partial sums of ``lam`` weakly exceed those of ``mu`` throughout.
    """
    if sum(mu) != sum(lam):
        raise InvalidInputError("dominance compares partitions of equal size")
    total_mu = total_lam = 0
    for i in range(max(len(mu), len(lam))):
        total_mu += part(mu, i + 1)
        total_lam += part(lam, i + 1)
        if total_mu > total_lam:
            return False
    return True


def solve_exact_integer(columns: list[dict], target: dict) -> list[int]:
    """Solve ``sum x_j * columns[j] == target`` exactly; unique solution
    required.  Gauss-Jordan over fractions on the augmented matrix, once per
    target, integrality enforced."""
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


def oracle_expand_per_element(w: AffinePermutation,
                              columns_memo: dict | None = None) -> dict:
    """Affine Schur coefficients of ``F_w`` by a fresh Gauss-Jordan solve of
    its monomial table against the degree-``len(w)`` basis columns.

    ``columns_memo`` may keep the basis and its monomial columns across
    calls; the solve itself always runs in full."""
    n, ell = w.n, w.length
    if ell == 0:
        return {w: 1}
    memo = {} if columns_memo is None else columns_memo
    if (n, ell) not in memo:
        basis = grassmannians_of_length(n, ell)
        memo[(n, ell)] = basis, [stanley_monomials(u, ell).coeffs for u in basis]
    basis, columns = memo[(n, ell)]
    solution = solve_exact_integer(columns, stanley_monomials(w, ell).coeffs)
    return {u: c for u, c in zip(basis, solution) if c}


def argparse_parse(argv: list[str]) -> argparse.Namespace:
    """The command line read by an ``argparse`` parser of the same flags as
    ``cli.FLAGS``: the front end that the flag table replaced.  Parse errors
    and ``--help`` raise ``SystemExit``; the comma-separated fields become
    integer tuples, and a cap that is not positive raises
    :class:`InvalidInputError`."""
    parser = argparse.ArgumentParser(
        prog="cylkit",
        description="Exact cylindric Schur and affine Stanley expansions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--cap", type=int, default=DEFAULT_EXPAND_CAP)

    p = sub.add_parser("expand")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", default="")
    p.add_argument("--m", type=int, default=None)
    add_common(p)

    p = sub.add_parser("cylindric")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--mu", default="")
    p.add_argument("--diagram", action="store_true")
    add_common(p)

    p = sub.add_parser("gw")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    add_common(p)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--maxlen", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--cache", dest="cache_path", default=None)

    args = parser.parse_args(argv)
    fields = vars(args)
    for name in ("word", "lam", "mu", "nu"):
        if name in fields:
            fields[name] = _parse_csv_ints(fields[name])
    if any(fields.get(name) is not None and fields[name] <= 0
           for name in ("cap", "maxlen")):
        raise InvalidInputError("caps must be positive")
    return args


# -- the value classes as dataclasses ----------------------------------------


@functools.cache
def dataclass_twins() -> dict[str, type]:
    """The package's value classes as ``dataclasses`` built them, by name:
    the same fields, defaults and field options, the same ``__post_init__``
    checks and the two ``repr`` methods written by hand, each class under
    its own name (so that ``repr`` reads the same).  The hand-written
    slotted classes of the package are certified against these."""

    def affine_check(self):
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

    def type_check(self):
        if not 0 < self.m < self.n:
            raise InvalidInputError(f"need 0 < m < n, got ({self.m}, {self.n})")

    def boundary_check(self):
        m, n = self.ctype.m, self.ctype.n
        if len(self.rows) != m:
            raise InvalidInputError(f"rows must have {m} entries: {self.rows}")
        ext = self.rows + (self.rows[0] - (n - m),)
        if any(ext[i] < ext[i + 1] for i in range(m)):
            raise InvalidInputError(
                f"rows must satisfy R1 >= ... >= Rm >= R1 - (n-m): {self.rows}")

    def polynomial_check(self):
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

    def polynomial_repr(self) -> str:
        terms = " + ".join(f"{c}*m{list(lam)}" for lam, c in
                           sorted(self.coeffs.items())) or "0"
        return f"SymmetricPolynomial(N={self.nvars}, deg={self.degree}: {terms})"

    def nilcoxeter_check(self):
        clean = {}
        for w, c in self.terms.items():
            if c == 0:
                continue
            if w.n != self.n:
                raise InvalidInputError(f"key period {w.n} != {self.n}")
            clean[w] = c
        grades = {w.length for w in clean}
        if len(grades) > 1:
            raise GradingError(f"mixed grades {sorted(grades)} in one element")
        object.__setattr__(self, "terms", clean)

    def nilcoxeter_repr(self) -> str:
        if not self.terms:
            return f"NilCoxeterElement(n={self.n}, 0)"
        body = " + ".join(
            f"{c}*A{list(w.window)}"
            for w, c in sorted(self.terms.items(),
                               key=lambda t: (t[0].length, t[0].window)))
        return f"NilCoxeterElement(n={self.n}: {body})"

    specs = [
        ("AffinePermutation",
         [("n", int), ("window", tuple),
          ("_length", int, field(default=None, init=False, repr=False,
                                 compare=False))],
         {"__post_init__": affine_check}, {"frozen": True, "slots": True}),
        ("CylType", [("m", int), ("n", int)],
         {"__post_init__": type_check}, {"frozen": True}),
        ("PeriodicSequence", [("ctype", object), ("rows", tuple)],
         {"__post_init__": boundary_check}, {"frozen": True}),
        ("CylindricShape",
         [("ctype", object), ("lam", tuple), ("d", int), ("mu", tuple),
          ("outer", object, field(compare=False, repr=False)),
          ("inner", object, field(compare=False, repr=False))],
         {}, {"frozen": True}),
        ("SymmetricPolynomial",
         [("nvars", int), ("degree", int),
          ("coeffs", dict, field(default_factory=dict))],
         {"__post_init__": polynomial_check, "__repr__": polynomial_repr},
         {"frozen": True}),
        ("AffineSchurExpansion",
         [("n", int), ("coeffs", dict),
          ("shapes", dict, field(default=None, compare=False))],
         {}, {"frozen": True}),
        ("SchurExpansion", [("coeffs", dict)], {}, {"frozen": True}),
        ("NilCoxeterElement",
         [("n", int), ("terms", dict, field(default_factory=dict))],
         {"__post_init__": nilcoxeter_check, "__repr__": nilcoxeter_repr},
         {"frozen": True}),
        ("SuiteResult",
         [("name", str), ("passed", bool), ("checks", int), ("seconds", float),
          ("failures", list, field(default_factory=list))],
         {}, {}),
    ]
    return {name: make_dataclass(name, fields, namespace=namespace, **options)
            for name, fields, namespace, options in specs}
