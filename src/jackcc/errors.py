"""Shared exception types.

Every error raised on purpose by this package is one of the classes below,
so callers can catch a single family per failure kind, or all of them
through JackccError.
"""


class JackccError(Exception):
    """Base of every error the package raises on purpose."""


class MissingPart(JackccError, ValueError):
    """A partition modification needs a part that is not there."""


class NotPolynomial(JackccError, ValueError):
    """A quotient or a JSON value that is not a polynomial in alpha."""


class InexactDivision(JackccError, ArithmeticError):
    """Division of an integer polynomial by a primitive linear factor left a remainder."""


class DegreeTooLarge(JackccError, ValueError):
    """Requested degree exceeds the configured bound."""


class DegreeTooSmall(JackccError, ValueError):
    """A degree bound below the lowest degree the command checks, so nothing would run."""


class BadConfig(JackccError, ValueError):
    """An environment setting has a value the package cannot use."""


class BrokenInvariant(JackccError, RuntimeError):
    """An identity the construction guarantees did not hold; the code is at fault."""


class DegenerateSystem(JackccError, ArithmeticError):
    """An eigenvector solve did not pin down a one-dimensional space."""


class DegreeMismatch(JackccError, ValueError):
    """Operands are homogeneous of different degrees."""


class AdjacentPair(JackccError, ValueError):
    """Edge replacement asked for two vertices already joined by a graph edge."""


class BadMatching(JackccError, ValueError):
    """Pairs that do not form a fixed-point-free involution of the vertices 1..size."""


class NotGoodMatching(JackccError, ValueError):
    """The matching does not turn both edge colours into a single cycle."""


class UnmatchedPair(JackccError, ValueError):
    """Two vertices handed over as a pair of a matching are not paired by it."""


class NegativeOrder(JackccError, ValueError):
    """A weight, a bracket depth, a power of D or another count is below zero."""


class BadExponent(JackccError, ValueError):
    """A polynomial power was asked for with an exponent that is not a non-negative integer."""


class EmptyPartition(JackccError, ValueError):
    """A route that needs at least one box was given the empty partition."""


class UnknownSuite(JackccError, ValueError):
    """No verification suite under that name."""


class IoError(JackccError, OSError):
    """Wrapped I/O failure while writing output."""


class UnsupportedFormat(JackccError, ValueError):
    """Output format not implemented for this payload."""
