"""Ring-operation forms of three connection routines, kept for the tests as
independent oracles.

The package sums the bracket's terms on one integer coefficient list with
shifted adds.  bracket below forms each term as an AlphaPoly product with
alpha - 1 or alpha and adds the products, so the tests can check the list
form against it.  The package brackets each distinct part of lam once in
thm_rec_sides; thm_rec_sides below brackets every position of lam, on the
public a_cauchy.  The package reads generator_properties off the tower's
coefficient list; generator_properties below forms a_lr times the class
size as an AlphaPoly and checks that.
"""

import math

from jackcc.algebra import ALPHA, AlphaPoly
from jackcc.connection import a_cauchy, a_lr
from jackcc.partitions import Partition, down_k, down_kl, up_k, up_kl, z_aut_class


def bracket(lam, pos, coefficient_of):
    """The part-surgery sum of the recurrence, pivoting on lam[pos].

    `coefficient_of` maps a partition one box smaller to its coefficient;
    a partition with no term, such as (1), gives None.
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


def thm_rec_sides(lam, nu):
    """Both sides of the raising identity, the right one summing the
    bracket over every position of lam, weighted by its part."""
    n = nu.n
    mults = nu.multiplicities()
    lhs = AlphaPoly()
    for value in mults:
        i = value + 1
        grown = a_cauchy(lam, [Partition([n + 1]), up_k(nu, value)])
        lhs = lhs + grown * (i * (mults.get(i, 0) + 1))
    others = [Partition([n]), nu]
    rhs = AlphaPoly()
    for pos, part in enumerate(lam):
        rhs = rhs + bracket(lam, pos, lambda rho: a_cauchy(rho, others)) * part
    return lhs, rhs


def generator_properties(lam, l, r):
    """Degree bound, integrality and (anti)palindromic symmetry of
    a_lr(lam, l, r) times the class size of lam, as an AlphaPoly."""
    lam = Partition(lam)
    n = lam.n
    class_size = math.factorial(n) // z_aut_class(lam)[0]
    poly = a_lr(lam, l, r) * class_size
    if any(c.denominator != 1 for c in poly.coeffs):
        return False
    if poly.degree > (n - 1) * (l - 1) + r:
        return False
    star = (l - 1) * (n - 1) + r + len(lam) - 1
    sign = -1 if star % 2 else 1
    return all(poly.coeff(i) == sign * poly.coeff(star - i)
               for i in range(star + 1))
