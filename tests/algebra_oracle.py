"""Euclid over the rationals, kept for the tests as an independent oracle.

The package divides only by known primitive linear factors and refuses a
quotient that keeps a denominator.  The routines below divide by any
nonzero polynomial and reduce any quotient by its gcd, on plain Fraction
tuples (coefficients ascending, no trailing zero), so the tests can check
the package's exact divisions against them.  They take any sequence of
ints or Fractions, an AlphaPoly's coeffs among them.
"""

from fractions import Fraction


def trim(cs):
    """cs as a tuple of Fractions with the trailing zeros dropped."""
    out = [Fraction(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_divmod(a, b):
    """Quotient and remainder of the long division of a by b."""
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return trim(quo), trim(rem)


def exact_div(a, b):
    quo, rem = poly_divmod(a, b)
    if rem:
        raise ArithmeticError("division leaves the remainder %s" % (rem,))
    return quo


def monic(p):
    p = trim(p)
    return tuple(c / p[-1] for c in p)


def poly_gcd(a, b):
    """Monic greatest common divisor over the rationals."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def reduced(num, den):
    """num/den in lowest terms with a monic den, as a (num, den) pair."""
    num = trim(num)
    if not num:
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    num, den = exact_div(num, g), exact_div(den, g)
    return tuple(c / den[-1] for c in num), monic(den)
