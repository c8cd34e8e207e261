import random
from fractions import Fraction

import pytest

from algebra_oracle import poly_divmod, poly_gcd
from jackcc.algebra import (
    ALPHA, ONE, AlphaPoly, RatFunc, _divide_int, _divide_linear, _pack,
    _poly_from_json, _poly_json, _quotient, _unpack, _width, substitute_beta,
)
from jackcc.errors import BadExponent, InexactDivision, NotPolynomial


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
    # the test oracle's Euclid, which the reduction tests rely on
    num = AlphaPoly([-1, 0, 1])
    q, r = poly_divmod(num, AlphaPoly([1, 1]))
    assert q == AlphaPoly([-1, 1]) and r.is_zero
    q, r = poly_divmod(AlphaPoly([1, 0, 1]), AlphaPoly([1, 1]))
    assert r == AlphaPoly([2])
    g = poly_gcd(AlphaPoly([-1, 0, 1]), AlphaPoly([2, 2]))
    assert g == AlphaPoly([1, 1])
    with pytest.raises(ZeroDivisionError):
        poly_divmod(num, AlphaPoly())


def test_exact_div():
    # the package's one polynomial division: by a linear factor, primitive
    # or not; 2a^2 + 4a + 2 = (2a + 2)(a + 1), while (a + 1)/(2a + 2) = 1/2
    # is only rational, so it has no integer quotient
    assert _divide_linear([-1, 0, 1], 1, 1) == [-1, 1]
    assert _divide_linear((0, 3, 6), 0, 1) == [3, 6]
    assert _divide_linear([-2, -1, 1], -2, 1) == [1, 1]
    assert _divide_linear([], 5, 3) == []
    assert _divide_linear([2, 4, 2], 2, 2) == [1, 1]
    assert _divide_linear([0, 6, 3], 0, 3) == [2, 1]
    for cs, p, q in [((1, 1), 0, 1), ((1, 0, 1), 1, 1), ((4,), 1, 2),
                     ((1, 2), 1, 3), ((1, 1), 2, 2), ((0, 1), 0, 2),
                     ((3, 6), 3, 3)]:
        with pytest.raises(InexactDivision):
            _divide_linear(cs, p, q)


def test_integer_division():
    assert _divide_int([6, -4, 0, 2], 2) == [3, -2, 0, 1]
    assert _divide_int([], 7) == []
    with pytest.raises(InexactDivision):
        _divide_int([6, 3], 2)


@pytest.mark.parametrize("bound", [2, 3, 7, 8, 255, 256, 2 ** 70 - 1,
                                   2 ** 70, 3 ** 50])
def test_packing_width_is_the_least_that_holds_the_bound(bound):
    B = _width(bound)
    assert 2 ** (B - 1) > bound >= 2 ** (B - 2)
    rng = random.Random(bound)
    lists = [[bound], [-bound], [bound, -bound, 0, bound],
             [0, 0, -bound, bound, -bound], [-bound, 0, 0, -bound]]
    lists += [[rng.randint(-bound, bound) for _ in range(rng.randint(1, 9))]
              + [bound] for _ in range(20)]
    for cs in lists:
        assert _unpack(_pack(cs, B), B) == cs
        if bound in cs:
            # +bound is no balanced digit one bit narrower
            assert _unpack(_pack(cs, B - 1), B - 1) != cs
    # -bound is a digit one bit narrower only when bound is a power of 2
    narrow = _unpack(_pack([-bound, 1], B - 1), B - 1)
    assert (narrow == [-bound, 1]) == (bound & (bound - 1) == 0)


def test_packing_round_trip_keeps_low_zeros_and_drops_high_ones():
    assert _width(0) == _width(1) == 2
    assert _unpack(_pack([1, -1, 1], 2), 2) == [1, -1, 1]
    assert _unpack(0, 5) == []
    assert _pack([], 5) == 0
    assert _unpack(_pack([0, 0, 3, 0, 0], 4), 4) == [0, 0, 3]
    assert _unpack(_pack([-1, 1], 3), 3) == [-1, 1]


def test_shift_round_trip_to_degree_50():
    rng = random.Random(7)
    for _ in range(8):
        deg = rng.randrange(0, 51)
        ints = AlphaPoly([rng.randrange(-9, 10) for _ in range(deg + 1)])
        p = AlphaPoly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg + 1)])
        c = Fraction(rng.randrange(-9, 10), rng.randrange(2, 7))
        for poly in (ints, p):
            assert substitute_beta(poly).shift(-1) == poly
            assert poly.shift(c).shift(-c) == poly


def test_substitute_beta_examples():
    assert substitute_beta(ALPHA ** 2) == AlphaPoly([1, 2, 1])
    assert substitute_beta(ALPHA - 1) == AlphaPoly([0, 1])
    # the degree-3 coefficient value rewritten in the shifted variable
    assert substitute_beta(AlphaPoly([2, -3, 2])) == AlphaPoly([1, 1, 2])


def test_general_denominator_is_refused():
    # a quotient that keeps a factor of its denominator, and JSON read from
    # outside whose "den" is not the constant 1, are no polynomials
    with pytest.raises(NotPolynomial, match=r"a\^1 is left"):
        _quotient([0, -6, 0, 6], {(0, 1): 2}, 4)
    with pytest.raises(NotPolynomial, match=r"1 \+ 1\*a is left"):
        _quotient([1, 0, 1], {(1, 1): 1}, 1)
    assert _quotient([0, -6, 0, 6], {(0, 1): 1}, 4) == AlphaPoly(
        [Fraction(-3, 2), 0, Fraction(3, 2)])
    for den in (ALPHA, ALPHA + 1, AlphaPoly(2), AlphaPoly(), AlphaPoly([0, 2, 1])):
        payload = {"num": ONE.to_json(), "den": den.to_json()}
        with pytest.raises(NotPolynomial):
            _poly_from_json(payload)


def test_ratfunc_division():
    # RatFunc is a name for AlphaPoly, which has no division
    with pytest.raises(TypeError):
        RatFunc(ALPHA - 1) / RatFunc(ALPHA)
    assert RatFunc(ALPHA - 1) == ALPHA - 1
    assert hash(RatFunc(ALPHA - 1)) == hash(ALPHA - 1)


def test_eval_at():
    assert (ALPHA - 1)(2) == 1
    p = AlphaPoly([2, -3, 2])
    assert p(1) == 1
    assert p(2) == 4
    assert p(Fraction(1, 2)) == 1 and p(Fraction(1, 3)) == Fraction(11, 9)


def test_text_form():
    samples = [
        AlphaPoly(),
        AlphaPoly([Fraction(1, 2)]),
        AlphaPoly([2, -3, 2]),
        AlphaPoly([0, Fraction(-7, 3), 0, 1]),
    ]
    want = ["0", "1/2", "2 - 3*a + 2*a^2", "-7/3*a + 1*a^3"]
    assert [p.to_text() for p in samples] == want
    assert AlphaPoly([0, -1, 1]).to_text("b") == "-1*b + 1*b^2"


def test_json_round_trip():
    p = AlphaPoly([Fraction(-1, 3), 0, 2])
    data = p.to_json()
    assert data == [["-1", "3"], ["0", "1"], ["2", "1"]]
    assert AlphaPoly.from_json(data) == p
    blob = _poly_json(p)
    assert blob == {"num": data, "den": [["1", "1"]]}
    assert _poly_from_json(blob) == p


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
