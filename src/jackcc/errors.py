"""Shared exception types.

Every error raised on purpose by this package is one of the classes below,
so callers can catch a single family per failure kind, or all of them
through JackccError.
"""


class JackccError(Exception):
    """Base of every error the package raises on purpose."""


class MissingPart(JackccError, ValueError):
    """A partition modification needs a part that is not there."""


class DivisionByZero(JackccError, ZeroDivisionError):
    """Division by a zero polynomial or rational function."""


class NotPolynomial(JackccError, ValueError):
    """A rational function with a nontrivial denominator was used where a polynomial is required."""


class InexactDivision(JackccError, ArithmeticError):
    """A polynomial division that had to be exact left a remainder."""


class PoleAtPoint(JackccError, ArithmeticError):
    """Evaluation at a point where the denominator vanishes."""


class DegreeTooLarge(JackccError, ValueError):
    """Requested degree exceeds the configured bound."""


class BadConfig(JackccError, ValueError):
    """An environment setting has a value the package cannot use."""


class DegenerateSystem(JackccError, ArithmeticError):
    """An eigenvector solve did not pin down a one-dimensional space."""


class DegreeMismatch(JackccError, ValueError):
    """Operands are homogeneous of different degrees."""


class AdjacentPair(JackccError, ValueError):
    """Edge replacement asked for two vertices already joined by a graph edge."""


class NotGoodMatching(JackccError, ValueError):
    """The matching does not turn both edge colours into a single cycle."""


class UnmatchedPair(JackccError, ValueError):
    """Two vertices handed over as a pair of a matching are not paired by it."""


class NegativeOrder(JackccError, ValueError):
    """An operator count, such as a bracket depth or a power of D, is below zero."""


class UnknownSuite(JackccError, ValueError):
    """No verification suite under that name."""


class IoError(JackccError, OSError):
    """Wrapped I/O failure while writing output."""


class UnsupportedFormat(JackccError, ValueError):
    """Output format not implemented for this payload."""
