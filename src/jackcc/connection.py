"""Connection coefficients of the Jack basis, computed three ways.

The reference route is the Cauchy sum over all partitions gamma of n,
weighting products of Jack characters by 1/j_gamma.  The recurrence route
evaluates the one-step part-surgery recurrence for the (n),(n) case.  The
operator route reads the coefficient off an iterated commutator tower
applied to p_1/alpha.  Agreement of the three is the main correctness
argument of the package.  The tests and the coeff-routes benchmark
workload compare the three; no verification suite does yet.

Each public function checks its input once, before any cache; the routes
then call each other's cached kernels on the checked values.
"""

import math
from collections import Counter
from operator import mul

from .algebra import (
    AlphaPoly, _addmul, _divide_linear, _linear_product, _pack, _poly,
    _quotient, _unpack, _width,
)
from .config import cached, check_degree
from .errors import DegreeMismatch, EmptyPartition, NegativeOrder
from .jack import jack_table
from .partitions import (
    Partition, down_k, down_kl, generate_partitions, hook_factors, up_k,
    up_kl, z_aut_class,
)
from .psum import apply_D, apply_alpha_Delta, psum_unit

__all__ = [
    "a_cauchy", "a_nn_recurrence", "pivot_values",
    "verify_i_independence", "thm_rec_sides", "verify_thm_rec", "a_lr",
    "generator_properties",
]


@cached
def _cauchy_cofactors(n):
    """An integer common denominator D of the j_gamma over gamma of n, as
    (factors, K), every cofactor D/j_gamma, an integer polynomial, and per
    gamma T_gamma, the largest |theta_gamma(mu)|_1, the sum of the absolute
    coefficients, over the row of gamma in the degree-n Jack table.

    j_gamma is an integer c_gamma times primitive linear factors q*a + p
    (hook_factors).  D is K times their lcm: the Counter factors maps each
    (p, q) to its largest multiplicity, and K is the lcm of the c_gamma; so
    D/j_gamma is the integer K/c_gamma times the product of D's linear
    factors, cached by _linear_product, with j_gamma's own factors divided
    out by _divide_linear: no AlphaPoly product, and one cached product per
    degree rather than one per gamma.
    """
    factored = {gamma: hook_factors(gamma) for gamma in generate_partitions(n)}
    common = Counter()
    scale = 1
    for const, factors in factored.values():
        common |= factors
        scale = math.lcm(scale, const)
    whole = _linear_product(tuple(common.items()))
    cofactors = {}
    for gamma, (const, factors) in factored.items():
        rest = [scale // const * c for c in whole]
        for (p, q), m in factors.items():
            for _ in range(m):
                rest = _divide_linear(rest, p, q)
        cofactors[gamma] = _poly(rest)
    rows = jack_table(n).rows
    norms = {gamma: max(sum(map(abs, theta.coeffs))
                        for theta in rows[gamma].terms.values())
             for gamma in factored}
    return common, scale, cofactors, norms


@cached
def _cauchy_packed(n, k):
    """The Cauchy sum over k indices of degree n, packed once: a width B,
    D/j_gamma for every gamma of n, and a dict from each mu of n to the
    tuple of theta_gamma(mu) over the same gammas, 0 where it vanishes, all
    evaluated at a = 2^B.

    No coefficient of sum_gamma D/j_gamma prod theta_gamma(lam_i) over any
    k indices lam_i exceeds sum_gamma |D/j_gamma|_1 T_gamma^k, T_gamma the
    largest |theta_gamma(mu)|_1 of gamma's row, by the triangle inequality;
    B is the _width of that bound, which is at most T^k sum_gamma
    |D/j_gamma|_1 for the table's largest |theta|_1 T.  Packing is a ring
    homomorphism, so the products and the sum of these integers are the
    packed products and sum, with no width of their own.  The table is read
    through the module's jack_table.
    """
    _, _, cofactors, norms = _cauchy_cofactors(n)
    B = _width(sum(sum(map(abs, cofactor.coeffs)) * norms[gamma] ** k
                   for gamma, cofactor in cofactors.items()))
    rows = jack_table(n).rows
    columns = {mu: [0] * len(cofactors) for mu in cofactors}
    for i, gamma in enumerate(cofactors):
        for mu, theta in rows[gamma].terms.items():
            columns[mu][i] = _pack(theta.coeffs, B)
    return (B, tuple(_pack(cofactor.coeffs, B) for cofactor in cofactors.values()),
            {mu: tuple(column) for mu, column in columns.items()})


@cached
def _cauchy_weights(others):
    """Per gamma of n, the packed weight D/j_gamma * prod theta_gamma(other),
    a product of packed integers, in the order of _cauchy_packed's columns.

    The weights do not depend on lam1, so every lam1 queried with the same
    others reuses them.
    """
    _, weights, columns = _cauchy_packed(others[0].n, len(others) + 1)
    for other in others:
        weights = tuple(map(mul, weights, columns[other]))
    return weights


@cached
def _cauchy_cached(lam1, others):
    """Sum every term over the common denominator D, then cancel D's factors.

    The sum is one big integer at alpha = 2^B, the products of lam1's
    packed thetas with the packed weights, unpacked once; z * a^len(lam1)
    times it is then divided by D's known linear factors, with no gcd:
    _quotient divides by their product at once, packed and checked.
    """
    B, _, columns = _cauchy_packed(lam1.n, len(others) + 1)
    total = sum(map(mul, columns[lam1], _cauchy_weights(others)))
    factors, scale, _, _ = _cauchy_cofactors(lam1.n)
    z = z_aut_class(lam1)[0]
    return _quotient([0] * len(lam1) + [z * c for c in _unpack(total, B)],
                     factors, scale)


def a_cauchy(lam1, others):
    """Cauchy-sum value of the connection coefficient indexed by lam1.

    `others` lists the remaining lower indices; the sum over gamma weights
    the product of the characters of *all* the indices, lam1 included.
    """
    lam1 = Partition(lam1)
    others = tuple(sorted((Partition(p) for p in others), reverse=True))
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
    an AlphaPoly, which lets the same expression serve the (n),(n)
    recurrence and the general nu identity.  The terms accumulate on one
    coefficient list, made an AlphaPoly once: (alpha - 1)(k - 1) c adds
    c's list twice, once shifted, and alpha * part * c once, shifted.
    """
    k = lam[pos]
    acc = []
    if k >= 2:
        cs = coefficient_of(down_k(lam, k)).coeffs
        _addmul(acc, cs, k - 1, 1)
        _addmul(acc, cs, 1 - k)
    for d in range(1, k - 1):
        _addmul(acc, coefficient_of(up_kl(lam, k - 1 - d, d)).coeffs, 1)
    for j, part in enumerate(lam):
        if j != pos:
            _addmul(acc, coefficient_of(down_kl(lam, k, part)).coeffs, part, 1)
    return _poly(acc)


def a_nn_recurrence(lam):
    """The coefficient on two full cycles, by one-box part surgery.

    Always pivots on the largest part; the bracket value does not depend
    on that choice, and the i-indep suite compares the others through
    pivot_values.
    """
    lam = Partition(lam)
    if not lam:
        raise EmptyPartition("the recurrence starts at the partition (1)")
    check_degree(lam.n)
    return _a_nn(lam)


@cached
def _a_nn(lam):
    if lam == Partition([1]):
        return AlphaPoly(1)
    return _bracket(lam, 0, _a_nn)


a_nn_recurrence.cache_info = _a_nn.cache_info


def pivot_values(lam):
    """The bracket value pivoting on each distinct part of lam, largest first.

    The bracket takes a partition of at least two boxes; (1) is the
    recurrence's base case.
    """
    lam = Partition(lam)
    if lam.n < 2:
        raise EmptyPartition("the bracket needs two boxes, got %d" % lam.n)
    check_degree(lam.n)
    return [_bracket(lam, pos, _a_nn)
            for pos, part in enumerate(lam) if not pos or lam[pos - 1] != part]


def verify_i_independence(lam):
    """True when every pivot part yields the identical bracket value.

    The base case (1) has one pivot and no bracket, so it holds trivially;
    the empty partition, where the recurrence does not start, raises
    EmptyPartition.  No suite calls it (i-indep reads pivot_values), but
    bench/workloads.py does.
    """
    lam = Partition(lam)
    if lam.n == 1:
        return True
    values = pivot_values(lam)
    return all(v == values[0] for v in values)


def thm_rec_sides(lam, nu):
    """Both sides of the mixed identity tying degree n+1 coefficients to degree n.

    The left side sums over the part values i-1 present in nu, growing one
    of them; the right side sums the part-surgery bracket of lam over its
    pivots, weighted by the pivot's part, inside a coefficient with lower
    indices (n) and nu.  The Cauchy values are read from _cauchy_cached
    under a_cauchy's own keys.
    """
    lam, nu = Partition(lam), Partition(nu)
    if lam.n != nu.n + 1:
        raise DegreeMismatch(
            "expected weights n+1 and n, got %d and %d" % (lam.n, nu.n))
    n = nu.n
    if n == 0:
        raise EmptyPartition("the raising identity needs nu of weight at least 1")
    check_degree(lam.n)
    mults = nu.multiplicities()
    full = Partition([n + 1])
    lhs = []
    for value in mults:
        i = value + 1
        factor = i * (mults.get(i, 0) + 1)
        grown = _cauchy_cached(lam, (full, up_k(nu, value)))
        _addmul(lhs, grown.coeffs, factor)
    others = (Partition([n]), nu)

    def coefficient_of(rho):
        return _cauchy_cached(rho, others)

    # the bracket depends on the pivot's value only, so each distinct part
    # is bracketed once, weighted by the part times its multiplicity
    rhs = []
    for part, m in lam.multiplicities().items():
        _addmul(rhs, _bracket(lam, lam.index(part), coefficient_of).coeffs, part * m)
    return _poly(lhs), _poly(rhs)


def verify_thm_rec(lam, nu):
    """True when both sides of the mixed identity agree; no suite calls it
    (thm-rec reads thm_rec_sides), but bench/workloads.py does."""
    lhs, rhs = thm_rec_sides(lam, nu)
    return lhs == rhs


@cached
def _tower_with_D(l, r, n):
    """D applied r times to alpha^n times the degree-n stage of the bracket
    tower grown from p_1/alpha.

    The factor alpha^n clears the 1/alpha of the seed and of every bracket,
    so every coefficient stays a polynomial; a_lr divides it out once.
    a_lr fills r upward from 0, so each call with r > 0 finds stage r-1
    cached and recurses one level at most.
    """
    if r:
        return apply_D(_tower_with_D(l, r - 1, n))
    if n == 1:
        return psum_unit(Partition([1]))
    return apply_alpha_Delta(l, _tower_with_D(l, 0, n - 1))


def _readout(lam, l, r):
    """The checked lam, its degree and the tower's coefficient of p_lam
    for l full cycles and r near-cycles."""
    if l < 0 or r < 0:
        raise NegativeOrder("need l >= 0 and r >= 0, got l=%d, r=%d" % (l, r))
    lam = Partition(lam)
    n = lam.n
    if n == 0:
        raise EmptyPartition("the operator tower starts at degree 1")
    check_degree(n)
    for stage in range(r):
        _tower_with_D(l, stage, n)
    return lam, n, _tower_with_D(l, r, n).coeff(lam)


def a_lr(lam, l, r=0):
    """Operator-route coefficient for l full cycles and r near-cycles."""
    lam, n, readout = _readout(lam, l, r)
    z = z_aut_class(lam)[0]
    # readout * z alpha^len / (n! alpha^n), with alpha^len cancelled first
    return _quotient([z * c for c in readout.coeffs],
                     {(0, 1): n - len(lam)}, math.factorial(n))


def generator_properties(lam, l, r):
    """Degree bound, integrality, and coefficient symmetry for l >= 2.

    The checked object is the class-size multiple of a_lr: an integer
    polynomial of degree at most (n-1)(l-1)+r whose coefficient sequence
    is (anti)palindromic around half of (l-1)(n-1)+r+len(lam)-1.  As
    z_lam times the class size is n!, it is the readout over a^(n-len(lam)).
    Integrality holds by construction, as every AlphaPoly coefficient is
    an int; what is checked is that the readout has no term below
    a^(n-len(lam)).
    """
    lam, n, readout = _readout(Partition(lam), l, r)
    cs = readout.coeffs
    low = n - len(lam)
    if any(cs[:low]):
        return False
    cs = list(cs[low:])
    if len(cs) - 1 > (n - 1) * (l - 1) + r:
        return False
    star = (l - 1) * (n - 1) + r + len(lam) - 1
    sign = -1 if star % 2 else 1
    cs += [0] * (star + 1 - len(cs))
    return cs == [sign * c for c in reversed(cs)]
