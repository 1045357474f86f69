"""Integer partitions as plain tuples.

A partition is a weakly decreasing tuple of positive integers; ``()`` is the
empty partition.  Functions here are the shared bottom layer: validation,
containment, dominance, enumeration, and the total order in which the
expansion recursion terminates.
"""

from __future__ import annotations

from collections.abc import Iterator

from cylkit.errors import InvalidInputError

Partition = tuple[int, ...]


def check_partition(parts: tuple[int, ...]) -> Partition:
    """Validate and return ``parts`` as a partition (strips nothing).

    >>> check_partition((3, 1))
    (3, 1)
    """
    if any(p <= 0 for p in parts):
        raise InvalidInputError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidInputError(f"parts must weakly decrease: {parts}")
    return tuple(parts)


def part(lam: Partition, i: int) -> int:
    """The i-th part (1-indexed), zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def contains(lam: Partition, mu: Partition) -> bool:
    """True iff the diagram of ``mu`` sits inside the diagram of ``lam``."""
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def fits_box(lam: Partition, rows: int, cols: int) -> bool:
    """True iff ``lam`` has at most ``rows`` parts, each at most ``cols``."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


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


def schedule_less(sigma: Partition, lam: Partition) -> bool:
    """The well-founded order the expansion recursion descends: ``sigma < lam``.

    Smaller size first; at equal sizes, lexicographically *larger* shapes
    are closer to done.  Negative branches replace the tail shape by a
    strictly lex-larger one of the same size (the canonical decomposition is
    lex-maximal among all decompositions, and the freshly prepended block
    realizes the old shape), so every branch strictly decreases this order;
    the recursion asserts it on every branch.

    >>> schedule_less((), (1,))
    True
    >>> schedule_less((2,), (1, 1))
    True
    >>> schedule_less((2, 1), (2, 1))
    False
    """
    if sum(sigma) != sum(lam):
        return sum(sigma) < sum(lam)
    return sigma > lam


def partitions_of(total: int, max_part: int | None = None,
                  max_len: int | None = None) -> Iterator[Partition]:
    """All partitions of ``total`` with bounded part size / length.

    >>> list(partitions_of(3, max_part=2))
    [(2, 1), (1, 1, 1)]
    """
    if max_part is None:
        max_part = total
    if max_len is None:
        max_len = total

    def rec(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total, max_part, max_len)


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions with at most ``rows`` parts, each at most ``cols``."""
    out: list[Partition] = []
    for total in range(rows * cols + 1):
        out.extend(partitions_of(total, max_part=cols, max_len=rows))
    return out
