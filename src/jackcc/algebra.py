"""Exact arithmetic in the deformation parameter.

AlphaPoly is a dense polynomial in one indeterminate (printed as "a") with
int coefficients, so it adds and multiplies in plain big-int arithmetic:
the Jack characters are integer polynomials (Knop and Sahi), and so is
every connection coefficient computed here (see below); a value that is
not raises NotPolynomial.  The ring has no general division.  The hot
loops skip the polynomial objects and work on integer coefficient lists:
_addmul accumulates a scaled, shifted list into another, _linear_list
multiplies out a product of linear factors q*a + p, _divide_linear is the
exact quotient by one such factor, and _divide_int the exact quotient by
an integer.

Sums of products of integer polynomials run packed (Kronecker
substitution; Harvey, J. Symbolic Comput. 44, 2009): _pack evaluates each
list at a = 2^B, the products and the sum are big-int operations, and
_unpack reads the coefficients back as balanced base-2^B digits.  The
digits are the coefficients only while each lies below 2^(B-1) in
absolute value, so B is always _width of a bound proven for the sum at
hand: by the triangle inequality, no coefficient of sum w*f*g exceeds
sum |w| |f|_1 |g|_1, |f|_1 the sum of the absolute coefficients of f.

Every connection coefficient is an AlphaPoly.  The paper proves this for
two full cycles; Goulden and Jackson conjecture it for every triple (Trans.
AMS 348, 1996), and no value computed here has had a denominator.  A route
that divides does so through one function, _quotient: it divides an
integer numerator by scale * prod (q*a + p)^m, the factor a by slicing and
the product of the others by one checked packed division, and raises
NotPolynomial, naming the factor left over, where D does not divide.  The
tower route divides by n! a^(n - len), the Cauchy route by the hook
factors of its common denominator.  RatFunc, the former readout type, is
kept as a name only: an AlphaPoly subclass that adds nothing.
"""

import math
from functools import lru_cache

from .errors import BadExponent, InexactDivision, NotPolynomial

__all__ = ["AlphaPoly", "RatFunc", "ALPHA", "ONE", "substitute_beta"]


def _coeff(x):
    """x as a plain int; any other type raises TypeError."""
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected int, got %r" % (x,))


class AlphaPoly:
    """Coefficients ascending by degree; the zero polynomial stores nothing.

    Each stored coefficient is a plain int; the constructor checks every
    coefficient, and the ring operations build their results through
    _poly, which skips the checks.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, AlphaPoly):
            coeffs = coeffs.coeffs
        elif not hasattr(coeffs, "__iter__"):
            coeffs = (coeffs,)
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    # ---- ring operations ----

    def __add__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        return _poly(_difference(self.coeffs, b))

    def __rsub__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        return _poly(_difference(b, self.coeffs))

    def __mul__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a constant scales each coefficient of the other operand
            c = a[0]
            return _poly([c * x for x in b])
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise BadExponent("exponent must be a non-negative integer, got %r" % (n,))
        out = AlphaPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        x = _coeff(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, c):
        """The composed polynomial p(a + c), by the Ruffini-Horner Taylor
        shift: pass i divides the polynomial held in cs[i:] by a - c and
        leaves the remainder, the i-th Taylor coefficient at c, in cs[i]."""
        c = _coeff(c)
        cs = list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += c * cs[j + 1]
        return _poly(cs)

    # ---- comparisons ----

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    # ---- serialization ----

    def to_text(self, var="a"):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*%s" % (c, var))
            else:
                parts.append("%s*%s^%d" % (c, var, k))
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        """Each coefficient as the pair [numerator, "1"]."""
        return [[str(c), "1"] for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        """The polynomial that to_json wrote.  The input is read from
        outside the program, so a "den" other than 1 raises NotPolynomial."""
        for num, den in data:
            if int(den) != 1:
                raise NotPolynomial("coefficient %s/%s is not an integer" % (num, den))
        return cls([int(num) for num, _ in data])

    def __repr__(self):
        return "AlphaPoly(%s)" % self.to_text()


def _poly(cs):
    """AlphaPoly over an int list that the arithmetic below computed,
    trailing zeros dropped, without the constructor's checks."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(AlphaPoly)
    p.coeffs = tuple(cs)
    return p


def _operand(other):
    """other's coefficients as a tuple, or None when it is no polynomial.

    An int is the only scalar, taken unwrapped as a constant.
    """
    if isinstance(other, AlphaPoly):
        return other.coeffs
    if isinstance(other, int):
        return (int(other),) if other else ()
    return None


def _difference(a, b):
    """The coefficient list of a - b, one subtraction per coefficient of b."""
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for k, c in enumerate(b):
        out[k] -= c
    return out


def _addmul(acc, cs, k, shift=0):
    """acc[shift + j] += k * cs[j] for every j, growing the list acc as needed."""
    acc.extend([0] * (shift + len(cs) - len(acc)))
    for j, c in enumerate(cs, start=shift):
        acc[j] += k * c


def _width(bound):
    """The least B >= 2 with 2^(B-1) > bound, so that balanced base-2^B
    digits hold every integer of absolute value at most bound.

    Base 2 is excluded: its digits -1 and 0 write no positive integer.
    """
    return max(bound.bit_length() + 1, 2)


def _pack(cs, B):
    """The integer coefficient list cs evaluated at a = 2^B, by Horner."""
    x = 0
    for c in reversed(cs):
        x = (x << B) + c
    return x


def _unpack(x, B):
    """The balanced base-2^B digits of x, lowest first: the list cs with
    _pack(cs, B) == x whose entries lie in [-2^(B-1), 2^(B-1)).

    The digits are cs itself when every entry of cs is bounded by bound
    and B is _width(bound); a narrower B reads other digits.  B >= 2, so
    that each step shrinks x and the digits end.
    """
    half = 1 << (B - 1)
    mask = (1 << B) - 1
    out = []
    while x:
        d = ((x + half) & mask) - half
        out.append(d)
        x = (x - d) >> B
    return out


def _divide_linear(cs, p, q):
    """The integer quotient of the coefficient list cs by q*a + p, q >= 1.

    cs holds integers.  Synthetic division from the top finds the unique
    quotient over the rationals one coefficient at a time, so a step that
    does not divide exactly, or a constant term left over, means no integer
    quotient exists and raises InexactDivision.  q*a + p need not be
    primitive: dividing by 2a + 2 works whenever the quotient is integral.
    """
    if not cs:
        return []
    quo = [0] * (len(cs) - 1)
    c = 0
    for k in range(len(cs) - 1, 0, -1):
        c, rem = divmod(cs[k] - p * c, q)
        if rem:
            break
        quo[k - 1] = c
    else:
        rem = cs[0] - p * c
    if rem:
        raise InexactDivision("division by %s leaves a remainder"
                              % AlphaPoly((p, q)).to_text())
    return quo


def _divide_int(cs, d):
    """The integer quotient of the coefficient list cs by the integer d.

    A coefficient that d does not divide raises InexactDivision.
    """
    if any(c % d for c in cs):
        raise InexactDivision("%d does not divide %s"
                              % (d, AlphaPoly(cs).to_text()))
    return [c // d for c in cs]


ALPHA = AlphaPoly((0, 1))
ONE = AlphaPoly((1,))


class RatFunc(AlphaPoly):
    """The former readout type, kept as a name: every value is an AlphaPoly."""

    __slots__ = ()


def _poly_json(p):
    """The JSON of the polynomial p as a quotient: {"num": p, "den": 1}."""
    return {"num": p.to_json(), "den": [["1", "1"]]}


def _poly_from_json(data):
    """The polynomial that _poly_json wrote.  The input is read from
    outside the program, so any "den" other than 1 raises NotPolynomial."""
    den = AlphaPoly.from_json(data["den"])
    if den.coeffs != (1,):
        raise NotPolynomial("denominator is %s" % den.to_text())
    return AlphaPoly.from_json(data["num"])


def _divide_packed(num, lin, B):
    """The integer quotient Q of the list num by lin, read from one divmod
    at a = 2^B, or None if lin does not divide num or B is too narrow.

    Q*lin - num has coefficients at most |Q|_1 |lin|_1 + |num|_inf, so,
    with B2 the _width of that bound, it is 0 if it vanishes at 2^X for
    any X >= B2.  The divmod shows that it vanishes at 2^B; when B < B2,
    the packed product is compared at 2^B2 as well.
    """
    packed = _pack(lin, B)
    if not packed:
        return None
    quo, rem = divmod(_pack(num, B), packed)
    if rem:
        return None
    quo = _unpack(quo, B)
    B2 = _width(sum(map(abs, quo)) * sum(map(abs, lin)) + max(map(abs, num)))
    if B2 > B and _pack(quo, B2) * _pack(lin, B2) != _pack(num, B2):
        return None
    return quo


def _linear_list(pairs):
    """The integer coefficient list of prod (q*a + p) over the pairs (p, q),
    one factor at a time; a factor with q = 0 adds no term."""
    out = [1]
    for p, q in pairs:
        grown = [p * c for c in out]
        if q:
            _addmul(grown, out, q, 1)
        out = grown
    return out


@lru_cache(maxsize=None)
def _linear_product(factors):
    """The coefficients of prod (q*a + p)^m over the pairs ((p, q), m)."""
    return tuple(_linear_list(pq for pq, m in factors for _ in range(m)))


def _quotient(num, factors, scale):
    """num / D as an AlphaPoly, with no gcd, or NotPolynomial if D does
    not divide num.

    num is an integer coefficient list, which is consumed, and D is
    scale * prod (q*a + p)^m over the items ((p, q), m) of factors, each
    q*a + p primitive with q >= 1 and scale a nonzero integer.  The factor
    a goes with num's zero low coefficients.  The product L of the others
    goes by _divide_packed at the width of Mignotte's bound 2^deg |num|_1
    on the factors of num, which finds the quotient whenever L divides
    num, so a decline is exact.  scale divides each coefficient last.  The
    error names what is left over: a^k, L, or the integer that scale
    leaves over the content of num.
    """
    while num and not num[-1]:
        num.pop()
    if not num:
        return AlphaPoly()
    m = factors.get((0, 1), 0)
    low = 0
    while low < m and not num[low]:
        low += 1
    if low < m:
        raise NotPolynomial("a^%d is left in the denominator" % (m - low))
    num = num[m:]
    rest = tuple(item for item in factors.items() if item[0] != (0, 1) and item[1])
    if rest:
        lin = _linear_product(rest)
        extra = len(num) - len(lin)
        quo = extra >= 0 and _divide_packed(
            num, lin, _width(sum(map(abs, num)) << extra))
        if not quo:
            raise NotPolynomial("%s is left in the denominator"
                                % AlphaPoly(lin).to_text())
        num = quo
    if any(c % scale for c in num):
        raise NotPolynomial("%d is left in the denominator"
                            % (abs(scale) // math.gcd(scale, *num)))
    return _poly([c // scale for c in num])


def _require_poly(p):
    return p if isinstance(p, AlphaPoly) else AlphaPoly(p)


def substitute_beta(p):
    """Rewrite p(a) as a polynomial in b where a = b + 1."""
    return _require_poly(p).shift(1)
