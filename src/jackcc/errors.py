"""Shared exception types.

Every error raised on purpose by this package is one of the classes below,
so callers can catch a single family per failure kind.
"""


class MissingPart(ValueError):
    """A partition modification needs a part that is not there."""


class DivisionByZero(ZeroDivisionError):
    """Division by a zero polynomial or rational function."""


class NotPolynomial(ValueError):
    """A rational function with a nontrivial denominator was used where a polynomial is required."""


class InexactDivision(ArithmeticError):
    """A polynomial division that had to be exact left a remainder."""


class PoleAtPoint(ArithmeticError):
    """Evaluation at a point where the denominator vanishes."""


class DegreeTooLarge(ValueError):
    """Requested degree exceeds the configured bound."""


class BadConfig(ValueError):
    """An environment setting has a value the package cannot use."""


class DegenerateSystem(ArithmeticError):
    """An eigenvector solve did not pin down a one-dimensional space."""


class DegreeMismatch(ValueError):
    """Operands are homogeneous of different degrees."""


class AdjacentPair(ValueError):
    """Edge replacement asked for two vertices already joined by a graph edge."""


class NotGoodMatching(ValueError):
    """The matching does not turn both edge colours into a single cycle."""


class UnknownSuite(ValueError):
    """No verification suite under that name."""


class IoError(OSError):
    """Wrapped I/O failure while writing output."""


class UnsupportedFormat(ValueError):
    """Output format not implemented for this payload."""
