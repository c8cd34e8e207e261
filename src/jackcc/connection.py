"""Connection coefficients of the Jack basis, computed three ways.

The reference route is the Cauchy sum over all partitions gamma of n,
weighting products of Jack characters by 1/j_gamma.  The recurrence route
evaluates the one-step part-surgery recurrence for the (n),(n) case.  The
operator route reads the coefficient off an iterated commutator tower
applied to p_1/alpha.  Agreement of the three is the main correctness
argument of the package and is what the verification suites exercise.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .algebra import ALPHA, AlphaPoly, RatFunc, substitute_beta
from .config import check_degree
from .errors import DegreeMismatch, NegativeOrder
from .jack import jack_table
from .partitions import (
    Partition, down_k, down_kl, generate_partitions, hooks, up_k, up_kl,
    z_aut_class,
)
from .psum import PSumVector, apply_D, apply_Delta

__all__ = [
    "CoeffResult", "a_cauchy", "a_nn_recurrence", "verify_i_independence",
    "verify_thm_rec", "remark_identities", "a_lr", "gamma_step",
    "generator_properties",
]


class CoeffResult(NamedTuple):
    """A coefficient together with its shifted form at beta = alpha - 1."""

    value: RatFunc
    beta_form: Optional[AlphaPoly]

    @classmethod
    def wrap(cls, value):
        value = value if isinstance(value, RatFunc) else RatFunc(value)
        beta = substitute_beta(value) if value.is_polynomial else None
        return cls(value, beta)


def _as_partition(p):
    return p if isinstance(p, Partition) else Partition(p)


@lru_cache(maxsize=None)
def _cauchy_cached(lam1, others):
    n = lam1.n
    table = jack_table(n)
    total = RatFunc(0)
    for gamma in generate_partitions(n):
        product = table.theta(gamma, lam1)
        for other in others:
            if product.is_zero:
                break
            product = product * table.theta(gamma, other)
        if not product.is_zero:
            total = total + product / RatFunc(hooks(gamma)[2])
    z = z_aut_class(lam1)[0]
    return total * RatFunc(AlphaPoly((0,) * len(lam1) + (z,)))


def a_cauchy(lam1, others):
    """Cauchy-sum value of the connection coefficient indexed by lam1.

    `others` lists the remaining lower indices; the sum over gamma weights
    the product of the characters of *all* the indices, lam1 included.
    """
    lam1 = _as_partition(lam1)
    others = tuple(sorted((_as_partition(p) for p in others), reverse=True))
    if not others:
        raise DegreeMismatch("need at least two partitions in a query")
    for p in others:
        if p.n != lam1.n:
            raise DegreeMismatch(
                "weights differ: %s vs %s" % (lam1.to_text(), p.to_text()))
    check_degree(lam1.n)
    return _cauchy_cached(lam1, others)


def _bracket(lam, pos, coefficient_of):
    """The part-surgery sum of the recurrence, pivoting on lam[pos].

    `coefficient_of` maps a partition one box smaller to its coefficient,
    which lets the same expression serve the (n),(n) recurrence and the
    general nu identity.
    """
    k = lam[pos]
    total = None
    if k >= 2:
        total = coefficient_of(down_k(lam, k)) * ((ALPHA - 1) * (k - 1))
    for d in range(1, k - 1):
        term = coefficient_of(up_kl(lam, k - 1 - d, d))
        total = term if total is None else total + term
    for j, part in enumerate(lam):
        if j != pos:
            term = coefficient_of(down_kl(lam, k, part)) * (ALPHA * part)
            total = term if total is None else total + term
    return total


@lru_cache(maxsize=None)
def a_nn_recurrence(lam):
    """The coefficient on two full cycles, by one-box part surgery.

    Always pivots on the largest part; the bracket value does not depend
    on that choice and verify_i_independence checks the others.
    """
    lam = _as_partition(lam)
    if lam == Partition([1]):
        return AlphaPoly(1)
    return _bracket(lam, 0, a_nn_recurrence)


def verify_i_independence(lam):
    """True when every pivot part yields the identical bracket value."""
    lam = _as_partition(lam)
    seen = set()
    values = []
    for pos, part in enumerate(lam):
        if part not in seen:
            seen.add(part)
            values.append(_bracket(lam, pos, a_nn_recurrence))
    return all(v == values[0] for v in values)


def verify_thm_rec(lam, nu):
    """Check the mixed identity tying degree n+1 coefficients to degree n.

    The left side sums over the part values i-1 present in nu, growing one
    of them; the right side applies the part-surgery bracket to lam inside
    a coefficient with lower indices (n) and nu.
    """
    lam, nu = _as_partition(lam), _as_partition(nu)
    if lam.n != nu.n + 1:
        raise DegreeMismatch(
            "expected weights n+1 and n, got %d and %d" % (lam.n, nu.n))
    n = nu.n
    mults = nu.multiplicities()
    lhs = RatFunc(0)
    for value in mults:
        i = value + 1
        factor = i * (mults.get(i, 0) + 1)
        lhs = lhs + a_cauchy(lam, [Partition([n + 1]), up_k(nu, value)]) * factor

    def coefficient_of(rho):
        return a_cauchy(rho, [Partition([n]), nu])

    rhs = RatFunc(0)
    for pos, part in enumerate(lam):
        rhs = rhs + _bracket(lam, pos, coefficient_of) * part
    return lhs == rhs


def remark_identities(mu):
    """The three consequences of the recurrence for appended small parts."""
    mu = _as_partition(mu)
    n = mu.n + 1
    checks = []

    grown = Partition(tuple(mu) + (1,))
    checks.append(a_nn_recurrence(grown) == a_nn_recurrence(mu) * (ALPHA * (n - 1)))

    ones = mu.mult(1)
    core = Partition([p for p in mu if p > 1])
    if ones and core:
        m, total = ones, mu.n
        scale = ALPHA ** m
        for t in range(total - m, total):
            scale = scale * t
        checks.append(a_nn_recurrence(mu) == a_nn_recurrence(core) * scale)
    elif ones:
        k = mu.n
        scale = ALPHA ** (k - 1)
        for t in range(1, k):
            scale = scale * t
        checks.append(a_nn_recurrence(mu) == scale)

    grown2 = Partition(tuple(mu) + (2,))
    rhs = a_nn_recurrence(mu) * (ALPHA * (ALPHA - 1) * mu.n)
    for part in mu:
        rhs = rhs + a_nn_recurrence(up_k(mu, part)) * (ALPHA * part)
    checks.append(a_nn_recurrence(grown2) == rhs)
    return all(checks)


@lru_cache(maxsize=None)
def _tower(l, n):
    """The degree-n stage of the bracket tower grown from p_1/alpha."""
    if n == 1:
        return PSumVector(1, {Partition([1]): RatFunc(1, ALPHA)})
    return apply_Delta(l, _tower(l, n - 1))


@lru_cache(maxsize=None)
def _tower_with_D(l, r, n):
    if r == 0:
        return _tower(l, n)
    return apply_D(_tower_with_D(l, r - 1, n))


def a_lr(lam, l, r=0):
    """Operator-route coefficient for l full cycles and r near-cycles."""
    if l < 0 or r < 0:
        raise NegativeOrder("need l >= 0 and r >= 0, got l=%d, r=%d" % (l, r))
    lam = _as_partition(lam)
    n = lam.n
    check_degree(n)
    readout = _tower_with_D(l, r, n).coeff(lam)
    z = z_aut_class(lam)[0]
    scale = RatFunc(AlphaPoly((0,) * len(lam) + (z,)), math.factorial(n))
    return readout * scale


def gamma_step(l, v):
    """One step of the normalized tower: degree n-1 in, degree n out."""
    n = v.degree + 1
    return apply_Delta(l, v).scale(Fraction(1, n))


def generator_properties(lam, l, r):
    """Degree bound, integrality, and coefficient symmetry for l >= 2.

    The checked object is the class-size multiple of a_lr: an integer
    polynomial of degree at most (n-1)(l-1)+r whose coefficient sequence
    is (anti)palindromic around half of (l-1)(n-1)+r+len(lam)-1.
    """
    lam = _as_partition(lam)
    n = lam.n
    class_size = math.factorial(n) // z_aut_class(lam)[0]
    value = a_lr(lam, l, r) * class_size
    if not value.is_polynomial:
        return False
    poly = value.as_poly()
    if any(c.denominator != 1 for c in poly.coeffs):
        return False
    bound = (n - 1) * (l - 1) + r
    if poly.degree > bound:
        return False
    star = (l - 1) * (n - 1) + r + len(lam) - 1
    sign = -1 if star % 2 else 1
    return all(poly.coeff(i) == sign * poly.coeff(star - i)
               for i in range(star + 1))
