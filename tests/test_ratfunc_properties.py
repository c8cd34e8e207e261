"""Property tests for RatFunc canonical form, with and without a gcd step."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from jackcc.algebra import ONE, AlphaPoly, RatFunc, poly_gcd

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = fractions.filter(bool)
polys = st.lists(fractions, max_size=6).map(AlphaPoly)
nonconstant = polys.filter(lambda p: p.degree >= 1)


@given(polys, nonzero)
def test_constant_denominator_is_a_scaling(p, c):
    assert RatFunc(p, c) == RatFunc(p * (1 / c))
    assert RatFunc(p, c).den == ONE
    assert RatFunc(p, AlphaPoly(c)).num == p * (1 / c)


@given(polys, nonzero)
def test_gcd_with_a_constant_is_one(p, c):
    if not p.is_zero:
        assert poly_gcd(p, AlphaPoly(c)) == ONE
        assert poly_gcd(AlphaPoly(c), p) == ONE


@given(polys, nonconstant)
def test_reduced_form_for_polynomial_denominators(p, q):
    r = RatFunc(p, q)
    assert r.den.leading == Fraction(1)
    assert r.num * q == p * r.den
    if r.is_zero:
        assert r.den == ONE
    else:
        assert poly_gcd(r.num, r.den) == ONE


@given(polys, polys, polys)
def test_polynomial_operands_match_the_general_formula(p, q, d):
    x, y = RatFunc(p), RatFunc(q)
    assert x + y == RatFunc(p + q)
    assert x * y == RatFunc(p * q)
    if not d.is_zero:
        z = RatFunc(q, d)
        assert x + z == RatFunc(p * d + q, d)
        assert x * z == RatFunc(p * q, d)
