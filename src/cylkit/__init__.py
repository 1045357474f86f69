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
                    cyclically decreasing elements, canonical decompositions.
- ``cylindric``  -- cylindric shapes and tableaux, the box-adding action,
                    the bijection between Grassmannian elements and shapes.
- ``symfunc``    -- exact symmetric-polynomial arithmetic in the monomial
                    basis; classical (skew) Schur polynomials and the
                    Littlewood-Richardson oracle.
- ``stanley``    -- affine Stanley symmetric functions, the dual-Pieri
                    expansion algorithm and its brute-force oracle, the
                    cylindric wrapper and Gromov-Witten lookup.
- ``nilcoxeter`` -- the affine nilCoxeter algebra and machine checks of the
                    algebraic identities used by the expansion.
- ``verify``     -- property suites at configurable scale, shared by the
                    CLI and the acceptance tests.
- ``memo``       -- the registry of memo tables and ``clear_caches``.
- ``cli``        -- command-line front end.
"""

from cylkit.errors import (
    CapExceededError,
    CylkitError,
    GradingError,
    InvalidInputError,
    PositivityError,
    ShapeError,
    SolveError,
)

__all__ = [
    "CapExceededError",
    "CylkitError",
    "GradingError",
    "InvalidInputError",
    "PositivityError",
    "ShapeError",
    "SolveError",
]

__version__ = "0.1.0"
