"""Property tests for the coefficient ring and the exact quotient.

AlphaPoly stores an integral coefficient as an int and any other as a
Fraction; the oracle below redoes every operation on plain Fraction lists,
and _quotient is checked against Euclid from algebra_oracle.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

import jackcc.algebra
from algebra_oracle import poly_gcd, reduced
from jackcc.algebra import (
    ONE, AlphaPoly, RatFunc, _divide_linear, _divide_packed, _pack, _quotient,
)
from jackcc.connection import _cauchy_cofactors
from jackcc.errors import InexactDivision, NotPolynomial

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = fractions.filter(bool)
polys = st.lists(fractions, max_size=6).map(AlphaPoly)


@given(st.lists(st.integers(min_value=-30, max_value=30), max_size=6),
       st.integers(min_value=-30, max_value=30).filter(bool))
def test_constant_denominator_is_a_scaling(x, c):
    want = _o_mul(_trim(x), (Fraction(1, c),))
    assert _stored(_quotient(list(x), {}, c)) == want
    assert _stored(_quotient(list(x), {(0, 1): 0, (1, 1): 0}, c)) == want


@given(polys, nonzero)
def test_gcd_with_a_constant_is_one(p, c):
    # the test oracle's Euclid, which the reduction checks rely on
    if not p.is_zero:
        assert poly_gcd(p, AlphaPoly(c)) == ONE
        assert poly_gcd(AlphaPoly(c), p) == ONE


# ---- int-or-Fraction coefficients against an all-Fraction oracle ----

coeffs = st.one_of(st.integers(min_value=-30, max_value=30), fractions)
raw_polys = st.lists(coeffs, max_size=6)


def _trim(cs):
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _o_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                  for k in range(n)])


def _o_neg(a):
    return tuple(-c for c in a)


def _o_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _o_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(quo), _trim(rem)


def _o_shift(a, c):
    acc = ()
    for coef in reversed(a):
        acc = _o_add(_o_mul(acc, (Fraction(c), Fraction(1))), (coef,))
    return acc


def _o_eval(a, x):
    acc = Fraction(0)
    for coef in reversed(a):
        acc = acc * x + coef
    return acc


def _stored(p):
    """p's coefficients, after checking each is an int or a proper Fraction."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    return p.coeffs


@given(raw_polys, raw_polys)
def test_ring_operations_against_the_oracle(x, y):
    p, q = AlphaPoly(x), AlphaPoly(y)
    a, b = _trim(x), _trim(y)
    assert _stored(p) == a
    assert _stored(p + q) == _o_add(a, b)
    assert _stored(p - q) == _o_add(a, _o_neg(b))
    assert _stored(p * q) == _o_mul(a, b)


ints = st.integers(min_value=-30, max_value=30)
int_lists = st.lists(ints, max_size=6)


@st.composite
def _primitive_factors(draw):
    """(p, q) with q >= 1 and gcd(p, q) = 1: the factor q*a + p."""
    q = draw(st.integers(min_value=1, max_value=6))
    p = draw(ints.filter(lambda p: math.gcd(p, q) == 1))
    return p, q


@given(int_lists, int_lists, _primitive_factors())
def test_division_against_the_oracle(x, y, factor):
    """The exact linear division, on a multiple of the factor and on any
    integer polynomial, against the long division of the oracle."""
    p, q = factor
    lin = (Fraction(p), Fraction(q))
    multiple = list((AlphaPoly(x) * AlphaPoly((p, q))).coeffs)
    assert _stored(AlphaPoly(_divide_linear(multiple, p, q))) == _trim(x)
    quo, rem = _o_divmod(_trim(y), lin)
    cs = list(AlphaPoly(y).coeffs)
    if rem:
        with pytest.raises(InexactDivision):
            _divide_linear(cs, p, q)
    else:
        got = _divide_linear(cs, p, q)
        assert all(type(c) is int for c in got)
        assert _trim(got) == quo


@given(raw_polys, coeffs)
def test_shift_against_the_oracle(x, c):
    p = AlphaPoly(x)
    assert _stored(p.shift(c)) == _o_shift(_trim(x), c)


@given(raw_polys)
def test_serialisations_store_the_same_form(x):
    p = AlphaPoly(x)
    assert _stored(AlphaPoly.from_json(p.to_json())) == _trim(x)


@given(raw_polys, coeffs)
def test_eval_at_returns_a_fraction(x, point):
    value = AlphaPoly(x)(point)
    assert type(value) is Fraction
    assert value == _o_eval(_trim(x), Fraction(point))


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        AlphaPoly([1, 0.5])
    with pytest.raises(TypeError):
        AlphaPoly((1, 1)).shift(1.0)
    for bare in (AlphaPoly, RatFunc):
        with pytest.raises(TypeError, match="expected int or Fraction, got 0.5"):
            bare(0.5)


# ---- scalar operands, which the ring never wraps in a polynomial ----

scalars = st.one_of(coeffs, st.just(0), st.just(Fraction(0)))


@given(raw_polys, scalars)
def test_scalar_operands_against_the_oracle(x, c):
    p, a, k = AlphaPoly(x), _trim(x), (Fraction(c),)
    assert _stored(p * c) == _stored(c * p) == _o_mul(a, k)
    assert _stored(p + c) == _stored(c + p) == _o_add(a, k)
    assert _stored(p - c) == _o_add(a, _o_neg(k))
    assert _stored(c - p) == _o_add(k, _o_neg(a))
    assert _stored(p * AlphaPoly(c)) == _stored(AlphaPoly(c) * p) == _o_mul(a, k)
    assert _stored(-p) == _o_neg(a)


def test_bool_is_a_coefficient_of_one():
    assert AlphaPoly(True).coeffs == (1,)
    assert type(AlphaPoly(True).coeffs[0]) is int
    assert _stored(AlphaPoly((1, 2)) * True) == (1, 2)


# ---- monomial denominators c*a^d and known factors, reduced without Euclid ----

def _assert_no_euclid():
    assert not hasattr(jackcc.algebra, "poly_gcd")
    for name in ("__divmod__", "__floordiv__", "__mod__", "exact_div", "monic"):
        assert not hasattr(AlphaPoly, name), name


def _check_quotient(num, factors, scale):
    """_quotient is the oracle's reduced numerator when the oracle's
    reduced denominator is 1, and raises NotPolynomial otherwise."""
    den = AlphaPoly(scale)
    for (p, q), m in factors.items():
        den = den * AlphaPoly((p, q)) ** m
    want_num, want_den = reduced(num, den)
    _assert_no_euclid()
    if want_den != ONE:
        with pytest.raises(NotPolynomial):
            _quotient(list(num.coeffs), factors, scale)
        return
    assert _stored(_quotient(list(num.coeffs), factors, scale)) == want_num.coeffs


@st.composite
def _over_monomial(draw, relation):
    """(num, d) with num an integer polynomial whose order at 0 is below,
    equal to or above d >= 1."""
    d = draw(st.integers(min_value=1, max_value=4))
    order = {"below": st.integers(min_value=0, max_value=d - 1),
             "equal": st.just(d),
             "above": st.integers(min_value=d + 1, max_value=d + 3)}[relation]
    head = draw(st.integers(min_value=-30, max_value=30).filter(bool))
    tail = draw(st.lists(st.integers(min_value=-30, max_value=30), max_size=6))
    return AlphaPoly([0] * draw(order) + [head] + tail), d


@pytest.mark.parametrize("relation", ["below", "equal", "above"])
@given(data=st.data())
def test_monomial_denominator_matches_the_gcd_reduction(relation, data):
    num, d = data.draw(_over_monomial(relation))
    c = data.draw(st.integers(min_value=-30, max_value=30).filter(bool))
    _check_quotient(num, {(0, 1): d}, c)


@st.composite
def _over_the_linear_part(draw):
    """(num, factors, scale): num an integer polynomial Q times the whole
    degree-n Cauchy denominator, n <= 7, or times it with one factor
    dropped, so that D's linear part divides num or misses by one factor."""
    n = draw(st.integers(min_value=1, max_value=7))
    factors, scale, _, _ = _cauchy_cofactors(n)
    num = AlphaPoly(draw(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                                  min_size=1, max_size=8)))
    items = sorted(factors.items())
    dropped = draw(st.one_of(st.none(), st.sampled_from([pq for pq, _ in items])))
    for (p, q), m in items:
        num = num * AlphaPoly((p, q)) ** (m - ((p, q) == dropped))
    return num, factors, scale


@given(_over_the_linear_part())
def test_packed_division_by_the_linear_part_matches_the_gcd_reduction(case):
    _check_quotient(*case)


@st.composite
def _over_known_factors(draw):
    """(num, factors, scale): the degree-n Cauchy denominator's linear
    factors, n <= 7, with a to a drawn power d <= 4, over a drawn integer
    scale; num an integer polynomial Q times a sub-multiset of the factors,
    or times all of them with a to a power d to d + 2, so that D divides
    num, misses it by one factor, or leaves more of D over."""
    n = draw(st.integers(min_value=1, max_value=7))
    cauchy, _, _, _ = _cauchy_cofactors(n)
    factors = dict(cauchy)
    factors[(0, 1)] = draw(st.integers(min_value=0, max_value=4))
    scale = draw(st.integers(min_value=-30, max_value=30).filter(bool))
    num = AlphaPoly(draw(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                                  max_size=8)))
    whole = draw(st.booleans())
    for (p, q), m in sorted(factors.items()):
        if not whole:
            m = draw(st.integers(min_value=0, max_value=m))
        elif (p, q) == (0, 1):
            m += draw(st.integers(min_value=0, max_value=2))
        num = num * AlphaPoly((p, q)) ** m
    return num, factors, scale


@given(_over_known_factors())
def test_known_factors_match_the_gcd_reduction(case):
    _check_quotient(*case)


def test_packed_division_declines_a_zero_remainder_it_cannot_prove():
    """At a = 4, 5a is 20 = 4 * 5 and a + 1 is 5: the divmod leaves no
    remainder and reads the quotient a, but a * (a + 1) is not 5a.  The
    check at the width of |Q|_1 |L|_1 + |num|_inf tells them apart."""
    num, lin = [0, 5], (1, 1)
    assert _pack(num, 2) % _pack(lin, 2) == 0
    assert _divide_packed(num, lin, 2) is None
    # 2a - 7 is 9 at a = 8, and |Q|_1 |L|_1 = 2 fits 3 bits, but 2a - 7
    # is not a + 1: num's own coefficients count in the bound too
    assert _pack([-7, 2], 3) % _pack(lin, 3) == 0
    assert _divide_packed([-7, 2], lin, 3) is None
    assert _divide_packed([1, 2, 1], lin, 2) == [1, 1]
    assert _divide_packed([1, 2, 1], lin, 8) == [1, 1]
    with pytest.raises(NotPolynomial):
        _quotient([0, 5], {(1, 1): 1}, 1)
