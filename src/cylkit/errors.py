"""Exception hierarchy.

Everything raised on purpose derives from :class:`CylkitError`, so callers
(notably the CLI) can map failures to exit codes without catching broad
``Exception``.
"""


class CylkitError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CylkitError, ValueError):
    """Malformed or precondition-violating input."""


class ShapeError(InvalidInputError):
    """Partition does not fit the type, or boundary containment fails."""


class ContainmentError(ShapeError):
    """The shape ``lam/d/mu`` does not exist: ``mu[0]`` is not inside
    ``lam[d]``, though both partitions fit the type."""


class CapExceededError(CylkitError):
    """A configured size/length cap would be exceeded."""


class GradingError(InvalidInputError):
    """Arithmetic between incompatibly graded objects."""


class PositivityError(CylkitError):
    """A coefficient that must be non-negative came out negative.

    This signals an internal bug, not a property of the input.
    """


class SolveError(CylkitError):
    """A unitriangular elimination met a column without a unit lead, or a
    table outside the span of its columns.

    Both bases resolved here (Schur and affine Schur) are provably
    unitriangular and span every table handed to them, so this signals an
    internal bug upstream.
    """
