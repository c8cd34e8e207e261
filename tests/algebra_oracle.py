"""Euclid over the rationals, kept for the tests as an independent oracle.

The package divides only by known primitive linear factors and reduces a
quotient only where its denominator's factors are known.  The routines
below divide by any nonzero polynomial and reduce any quotient by its gcd,
on plain Fraction lists, so the tests can check the package's reductions
against them.
"""

from fractions import Fraction

from jackcc.algebra import AlphaPoly


def poly_divmod(a, b):
    """Quotient and remainder of the long division of AlphaPoly a by b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    quo = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    for k in reversed(range(len(quo))):
        c = rem[k + b.degree] / b.leading
        quo[k] = c
        for j, y in enumerate(b.coeffs):
            rem[k + j] -= c * y
    return AlphaPoly(quo), AlphaPoly(rem)


def exact_div(a, b):
    quo, rem = poly_divmod(a, b)
    if not rem.is_zero:
        raise ArithmeticError("division leaves the remainder %s" % rem.to_text())
    return quo


def monic(p):
    return p * Fraction(1, p.leading) if p else p


def poly_gcd(a, b):
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def reduced(num, den):
    """num/den in lowest terms with a monic den, as an (num, den) pair."""
    if num.is_zero:
        return AlphaPoly(), AlphaPoly(1)
    g = poly_gcd(num, den)
    num, den = exact_div(num, g), exact_div(den, g)
    scale = Fraction(1, den.leading)
    return num * scale, den * scale
