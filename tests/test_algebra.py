import random
from fractions import Fraction

import pytest

from jackcc.algebra import (
    ALPHA, ONE, AlphaPoly, RatFunc, poly_gcd, substitute_beta,
)
from jackcc.errors import (
    BadExponent, DivisionByZero, InexactDivision, NotPolynomial, PoleAtPoint,
)


def test_construction_drops_leading_zeros():
    p = AlphaPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert AlphaPoly([0, 0]).is_zero
    assert AlphaPoly().degree == -1


def test_basic_arithmetic():
    p = AlphaPoly([1, 1])
    q = AlphaPoly([-1, 1])
    assert p * q == AlphaPoly([-1, 0, 1])
    assert p + q == AlphaPoly([0, 2])
    assert p - p == AlphaPoly()
    assert 2 * p == AlphaPoly([2, 2])
    assert p ** 3 == AlphaPoly([1, 3, 3, 1])
    assert (ALPHA ** 2 - 1)(3) == 8


@pytest.mark.parametrize("exponent", [-1, Fraction(1, 2), 2.0])
def test_power_rejects_bad_exponent(exponent):
    with pytest.raises(BadExponent):
        ALPHA ** exponent


def test_divmod_and_gcd():
    num = AlphaPoly([-1, 0, 1])
    q, r = divmod(num, AlphaPoly([1, 1]))
    assert q == AlphaPoly([-1, 1]) and r.is_zero
    q, r = divmod(AlphaPoly([1, 0, 1]), AlphaPoly([1, 1]))
    assert r == AlphaPoly([2])
    g = poly_gcd(AlphaPoly([-1, 0, 1]), AlphaPoly([2, 2]))
    assert g == AlphaPoly([1, 1])
    with pytest.raises(DivisionByZero):
        divmod(num, AlphaPoly())


def test_exact_div():
    assert AlphaPoly([-1, 0, 1]).exact_div(AlphaPoly([1, 1])) == AlphaPoly([-1, 1])
    with pytest.raises(InexactDivision):
        AlphaPoly((1, 1)).exact_div(ALPHA)


def test_shift_round_trip_to_degree_50():
    rng = random.Random(7)
    for _ in range(8):
        deg = rng.randrange(0, 51)
        p = AlphaPoly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg + 1)])
        assert substitute_beta(p).shift(-1) == p


def test_substitute_beta_examples():
    assert substitute_beta(ALPHA ** 2) == AlphaPoly([1, 2, 1])
    assert substitute_beta(ALPHA - 1) == AlphaPoly([0, 1])
    # the degree-3 coefficient value rewritten in the shifted variable
    assert substitute_beta(AlphaPoly([2, -3, 2])) == AlphaPoly([1, 1, 2])
    with pytest.raises(NotPolynomial):
        substitute_beta(RatFunc(1, ALPHA))


def test_ratfunc_canonical_form():
    # (a^2-1)/(2a(a+1)) reduces to (a-1)/(2a)
    r = RatFunc(ALPHA ** 2 - 1, 2 * ALPHA * (ALPHA + 1))
    assert r == RatFunc(ALPHA - 1, 2 * ALPHA)
    assert r.den.leading == 1
    assert poly_gcd(r.num, r.den).degree == 0
    # cancellation down to a constant
    assert RatFunc(1, ALPHA) * RatFunc(ALPHA) == RatFunc(1)
    assert RatFunc(AlphaPoly()) == RatFunc(0, AlphaPoly([5, 1]))


def test_ratfunc_addition_example():
    lhs = RatFunc(1, 2 * (ALPHA + 1)) + RatFunc(1, 2 * ALPHA * (ALPHA + 1))
    assert lhs == RatFunc(1, 2 * ALPHA)


def test_ratfunc_division():
    a = RatFunc(ALPHA - 1)
    b = RatFunc(ALPHA, ALPHA + 1)
    assert (a / b) * b == a
    with pytest.raises(DivisionByZero):
        a / RatFunc(0)
    with pytest.raises(DivisionByZero):
        RatFunc(ONE, AlphaPoly())


def test_eval_at():
    assert (ALPHA - 1)(2) == 1
    p = AlphaPoly([2, -3, 2])
    assert p(1) == 1
    assert p(2) == 4
    assert RatFunc(p).eval_at(2) == 4
    assert RatFunc(1, ALPHA).eval_at(Fraction(1, 2)) == 2
    with pytest.raises(PoleAtPoint):
        RatFunc(1, ALPHA).eval_at(0)


def test_reduction_idempotent():
    r = RatFunc(6 * ALPHA ** 2 - 6, AlphaPoly([4, 4]))
    again = RatFunc(r.num, r.den)
    assert again.num == r.num and again.den == r.den


def test_text_round_trip():
    samples = [
        AlphaPoly(),
        AlphaPoly([Fraction(1, 2)]),
        AlphaPoly([2, -3, 2]),
        AlphaPoly([0, Fraction(-7, 3), 0, 1]),
    ]
    for p in samples:
        assert AlphaPoly.from_text(p.to_text()) == p
    assert AlphaPoly([2, -3, 2]).to_text() == "2 - 3*a + 2*a^2"
    assert AlphaPoly.from_text("a^2 - a") == AlphaPoly([0, -1, 1])


def test_json_round_trip():
    p = AlphaPoly([Fraction(-1, 3), 0, 2])
    data = p.to_json()
    assert data == [["-1", "3"], ["0", "1"], ["2", "1"]]
    assert AlphaPoly.from_json(data) == p
    r = RatFunc(ALPHA - 1, 2 * ALPHA)
    assert RatFunc.from_json(r.to_json()) == r


def _random_poly(rng):
    return AlphaPoly([Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                      for _ in range(rng.randrange(0, 5))])


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(60):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_field_axioms_random():
    rng = random.Random(99)
    for _ in range(40):
        num1, num2 = _random_poly(rng), _random_poly(rng)
        den1, den2 = _random_poly(rng), _random_poly(rng)
        if den1.is_zero or den2.is_zero:
            continue
        x = RatFunc(num1, den1)
        y = RatFunc(num2, den2)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) - y == x
        if not y.is_zero:
            assert (x / y) * y == x
