"""Property tests for the coefficient ring and the RatFunc canonical form.

AlphaPoly stores an integral coefficient as an int and any other as a
Fraction; the oracle below redoes every operation on plain Fraction lists.
"""

from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

import jackcc.algebra
from jackcc.algebra import ONE, AlphaPoly, RatFunc, poly_gcd
from jackcc.connection import _cauchy_cofactors, _over_factors

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


# ---- int-or-Fraction coefficients against an all-Fraction oracle ----

coeffs = st.one_of(st.integers(min_value=-30, max_value=30), fractions)
raw_polys = st.lists(coeffs, max_size=6)
nonzero_raw = raw_polys.filter(lambda cs: any(cs))


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


@given(raw_polys, nonzero_raw)
def test_division_against_the_oracle(x, y):
    p, q = AlphaPoly(x), AlphaPoly(y)
    a, b = _trim(x), _trim(y)
    quo, rem = divmod(p, q)
    assert (_stored(quo), _stored(rem)) == _o_divmod(a, b)
    assert _stored((p * q).exact_div(q)) == a
    assert _stored(q.monic()) == tuple(c / b[-1] for c in b)


@given(raw_polys, coeffs)
def test_shift_against_the_oracle(x, c):
    p = AlphaPoly(x)
    assert _stored(p.shift(c)) == _o_shift(_trim(x), c)


@given(raw_polys)
def test_serialisations_store_the_same_form(x):
    p = AlphaPoly(x)
    assert _stored(AlphaPoly.from_json(p.to_json())) == _trim(x)
    assert _stored(AlphaPoly.from_text(p.to_text())) == _trim(x)


@given(raw_polys, nonzero_raw)
def test_non_monic_denominator_is_normalised(x, y):
    b = _trim(y)
    r = RatFunc(AlphaPoly(x), AlphaPoly(y))
    num, den = _stored(r.num), _stored(r.den)
    assert den[-1] == 1
    assert _o_mul(num, b) == _o_mul(_trim(x), den)


@given(raw_polys, nonzero_raw, coeffs)
def test_eval_at_returns_a_fraction(x, y, point):
    p = AlphaPoly(x)
    value = p(point)
    assert type(value) is Fraction
    assert value == _o_eval(_trim(x), Fraction(point))
    r = RatFunc(p, AlphaPoly(y))
    if r.den(point) != 0:
        assert type(r.eval_at(point)) is Fraction


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


@given(raw_polys, nonzero_raw, scalars)
def test_ratfunc_scalar_paths_against_the_general_form(x, y, c):
    r = RatFunc(AlphaPoly(x), AlphaPoly(y))
    want_num = _o_mul(_trim(r.num.coeffs), (Fraction(c),))
    want_den = _trim(r.den.coeffs) if want_num else (Fraction(1),)
    for scaled in (r * c, c * r):
        assert _stored(scaled.num) == want_num
        assert _stored(scaled.den) == want_den
        assert scaled == RatFunc(r.num * AlphaPoly(c), r.den)
    zero = RatFunc(0)
    for total in (zero + r, r + zero):
        assert (_stored(total.num), _stored(total.den)) == (r.num.coeffs,
                                                           r.den.coeffs)
    assert _stored((-r).num) == _o_neg(_trim(r.num.coeffs))
    assert -r == RatFunc(-r.num, r.den)


# ---- monomial denominators c*a^d, reduced without Euclid ----

def _reduce_by_gcd(num, den):
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num * Fraction(1, den.leading), den.monic()


@st.composite
def _over_monomial(draw, relation):
    """(num, d) with num's order at 0 below, equal to or above d >= 1."""
    d = draw(st.integers(min_value=1, max_value=4))
    order = {"below": st.integers(min_value=0, max_value=d - 1),
             "equal": st.just(d),
             "above": st.integers(min_value=d + 1, max_value=d + 3)}[relation]
    head = draw(st.one_of(st.integers(min_value=-30, max_value=30), nonzero)
                .filter(bool))
    tail = draw(raw_polys)
    return AlphaPoly([0] * draw(order) + [head] + tail), d


@pytest.mark.parametrize("relation", ["below", "equal", "above"])
@given(data=st.data())
def test_monomial_denominator_matches_the_gcd_reduction(relation, data):
    num, d = data.draw(_over_monomial(relation))
    c = data.draw(st.one_of(st.integers(min_value=-30, max_value=30), nonzero)
                  .filter(bool))
    den = AlphaPoly([0] * d + [c])
    want_num, want_den = _reduce_by_gcd(num, den)
    with mock.patch.object(jackcc.algebra, "poly_gcd",
                           side_effect=AssertionError("Euclid called")):
        r = RatFunc(num, den)
    assert _stored(r.num) == want_num.coeffs
    assert _stored(r.den) == want_den.coeffs


@given(data=st.data())
def test_known_factors_match_the_gcd_reduction(data):
    """An integer polynomial times a sub-multiset of the Cauchy denominator's
    factors, over that denominator, reduced without Euclid."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    factors, scale, _ = _cauchy_cofactors(n)
    num = AlphaPoly(data.draw(st.lists(st.integers(min_value=-30, max_value=30),
                                       max_size=6)))
    den = AlphaPoly(scale)
    for (p, q), m in sorted(factors.items()):
        factor = AlphaPoly((p, q))
        num = num * factor ** data.draw(st.integers(min_value=0, max_value=m))
        den = den * factor ** m
    want_num, want_den = _reduce_by_gcd(num, den)
    with mock.patch.object(jackcc.algebra, "poly_gcd",
                           side_effect=AssertionError("Euclid called")):
        r = _over_factors(list(num.coeffs), factors, scale)
    assert _stored(r.num) == want_num.coeffs
    assert _stored(r.den) == want_den.coeffs
