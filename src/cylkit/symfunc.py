"""Exact symmetric polynomials in the monomial basis.

A :class:`SymmetricPolynomial` is a homogeneous symmetric polynomial in
``nvars`` variables, stored as integer coefficients on monomial symmetric
polynomials ``m_lambda`` (keys are partitions with at most ``nvars`` parts).
Classical Schur and skew Schur polynomials are built by enumerating
semistandard tableaux as chains of partitions with horizontal-strip steps,
and the change of basis into Schur polynomials is done by unitriangular
elimination in dominance order.  Everything is integer-exact; this module is
the oracle side of the package and is deliberately independent of the
cylindric machinery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import factorial

from cylkit import memo
from cylkit.errors import GradingError, InvalidInputError, SolveError
from cylkit.partitions import (
    Partition,
    check_partition,
    contains,
    dominance_le,
    part,
)

WeightTable = dict[tuple[int, ...], int]

_SKEW_CHAIN_MEMO: dict = memo.table()


def _orbit_size(lam: Partition, nvars: int) -> int:
    """Number of distinct rearrangements of ``lam`` padded to ``nvars``."""
    padded = list(lam) + [0] * (nvars - len(lam))
    denom = 1
    for c in Counter(padded).values():
        denom *= factorial(c)
    return factorial(nvars) // denom


@dataclass(frozen=True, eq=False)
class SymmetricPolynomial:
    """Homogeneous symmetric polynomial, monomial-basis coefficient table."""

    nvars: int
    degree: int
    coeffs: dict = field(default_factory=dict)  # Partition -> int

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

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int) -> "SymmetricPolynomial":
        return SymmetricPolynomial(nvars, degree, {})

    @staticmethod
    def one(nvars: int) -> "SymmetricPolynomial":
        return SymmetricPolynomial(nvars, 0, {(): 1})

    @staticmethod
    def from_weight_table(nvars: int, degree: int,
                          table: WeightTable) -> "SymmetricPolynomial":
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
            key = tuple(sorted((e for e in expo if e), reverse=True))
            by_key.setdefault(key, []).append(c)
        coeffs: dict[Partition, int] = {}
        for lam, bucket in by_key.items():
            if len(set(bucket)) != 1 or len(bucket) != _orbit_size(lam, nvars):
                raise InvalidInputError(f"table not symmetric at weight {lam}")
            coeffs[lam] = bucket[0]
        return SymmetricPolynomial(nvars, degree, coeffs)

    # -- ring-ish structure ----------------------------------------------------

    def coeff(self, lam) -> int:
        return self.coeffs.get(tuple(lam), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricPolynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*m{list(lam)}" for lam, c in
                           sorted(self.coeffs.items())) or "0"
        return f"SymmetricPolynomial(N={self.nvars}, deg={self.degree}: {terms})"


# -- Schur polynomials via horizontal-strip chains ---------------------------


def _strip_extensions(cur: Partition, lam: Partition):
    """All partitions ``nxt`` with ``cur <= nxt <= lam`` such that
    ``nxt/cur`` is a horizontal strip.  Row ranges are independent:
    ``cur_i <= nxt_i <= min(lam_i, cur_{i-1})``.
    """
    rows = len(lam)

    def rec(i: int):
        if i > rows:
            yield ()
            return
        lo = part(cur, i)
        hi = min(part(lam, i), part(cur, i - 1)) if i > 1 else part(lam, 1)
        for v in range(lo, hi + 1):
            for rest in rec(i + 1):
                yield (v,) + rest

    for full in rec(1):
        yield tuple(v for v in full if v)


def _skew_weight_table(lam: Partition, mu: Partition, nvars: int) -> WeightTable:
    """Exponent-vector counts of SSYT chains ``mu -> lam`` in ``nvars`` steps."""

    def rec(cur: Partition, steps: int) -> dict[tuple[int, ...], int]:
        key = (lam, cur, steps)
        hit = _SKEW_CHAIN_MEMO.get(key)
        if hit is not None:
            return hit
        if steps == 0:
            out = {(): 1} if cur == lam else {}
            return _SKEW_CHAIN_MEMO.setdefault(key, out)
        out: dict[tuple[int, ...], int] = {}
        for nxt in _strip_extensions(cur, lam):
            added = sum(nxt) - sum(cur)
            for suffix, c in rec(nxt, steps - 1).items():
                k = (added,) + suffix
                out[k] = out.get(k, 0) + c
        return _SKEW_CHAIN_MEMO.setdefault(key, out)

    return rec(mu, nvars)


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


# -- change of basis ----------------------------------------------------------


def expand_in_schur(p: SymmetricPolynomial) -> dict[Partition, int]:
    """Exact coefficients ``c`` with ``p = sum c[nu] * s_nu(x_1..x_N)``.

    Unitriangular elimination in dominance order: ``s_nu`` has lead monomial
    ``m_nu`` and all other monomials strictly dominance-below ``nu``, so
    repeatedly clearing a dominance-maximal surviving key terminates with an
    exact integer answer.  Raises :class:`SolveError` if a remainder cannot
    be cleared (``p`` is then not in the span, which signals an upstream bug).
    """
    remaining = dict(p.coeffs)
    out: dict[Partition, int] = {}
    while remaining:
        maximal = [lam for lam in remaining
                   if not any(lam != other and dominance_le(lam, other)
                              for other in remaining)]
        lam = max(maximal)
        c = remaining[lam]
        s_lam = schur_poly(lam, p.nvars)
        if s_lam.coeff(lam) != 1:
            raise SolveError(f"schur lead coefficient broken at {lam}")
        for key, v in s_lam.coeffs.items():
            remaining[key] = remaining.get(key, 0) - c * v
            if remaining[key] == 0:
                del remaining[key]
        out[lam] = c
        if len(out) > 10_000:
            raise SolveError("elimination failed to terminate")
    return {lam: c for lam, c in out.items() if c}


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient ``c^lam_{mu,nu}``.

    Computed through the skew Schur route: the coefficient of ``s_nu`` in
    ``s_{lam/mu}``.  Zero when sizes do not match or ``mu`` is not contained
    in ``lam``.
    """
    lam = check_partition(tuple(lam))
    mu = check_partition(tuple(mu))
    nu = check_partition(tuple(nu))
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if not contains(lam, mu):
        return 0
    nvars = max(1, sum(nu))
    expansion = expand_in_schur(skew_schur_poly(lam, mu, nvars))
    return expansion.get(nu, 0)
