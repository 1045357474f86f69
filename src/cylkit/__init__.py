"""Exact combinatorics of the affine symmetric group on a cylinder.

The package computes the expansion of cylindric skew Schur functions into
cylindric Schur functions, and of affine Stanley symmetric functions into
affine Schur functions, entirely in integer arithmetic.  The degree-zero
coefficients of the cylindric expansion are the 3-point Gromov-Witten
invariants of the Grassmannian Gr(m, n).

Layout:

- ``partitions`` -- integer partitions as tuples: validation, containment,
                    dominance, enumeration, and the termination order of
                    the expansion recursion.
- ``affine``     -- the affine symmetric group: windows, words, lengths,
                    codes, cyclically decreasing elements and cyclic
                    factors, the bijection between 0-Grassmannian elements
                    and bounded partitions (read off the code).
- ``cylindric``  -- cylindric shapes, the box-adding action, the cylindric
                    Schur polynomial, the bijection between Grassmannian
                    elements and shapes.
- ``symfunc``    -- exact symmetric-polynomial arithmetic in the monomial
                    basis; the chain fold behind the three weight tables
                    and the affine Stanley factorization table; classical
                    (skew) Schur polynomials and the Littlewood-Richardson
                    oracle.
- ``stanley``    -- affine Stanley symmetric functions, the dual-Pieri
                    expansion algorithm and its brute-force oracle, the
                    cylindric wrapper and Gromov-Witten lookup.  It loads
                    ``cylindric`` and ``symfunc`` on the first typed or
                    oracle call, so a type-free expansion, and a type-free
                    ``cylkit expand``, loads neither.
- ``nilcoxeter`` -- the affine nilCoxeter algebra and machine checks of the
                    algebraic identities used by the expansion.
- ``verify``     -- property suites at configurable scale, shared by the
                    CLI and the acceptance tests.
- ``frozen``     -- ``Frozen``, the base of the slotted immutable value
                    classes: read-only fields, ``repr``, pickle and copy.
- ``memo``       -- the registry of memo tables and ``clear_caches``.
- ``cli``        -- command-line front end; it imports ``cylindric`` only
                    inside ``cylindric``, ``gw`` and ``expand --m``, and
                    ``verify`` only inside its command.
"""

from cylkit.errors import (
    CapExceededError,
    ContainmentError,
    CylkitError,
    GradingError,
    InvalidInputError,
    PositivityError,
    ShapeError,
    SolveError,
)

__all__ = [
    "CapExceededError",
    "ContainmentError",
    "CylkitError",
    "GradingError",
    "InvalidInputError",
    "PositivityError",
    "ShapeError",
    "SolveError",
]

__version__ = "0.1.0"
