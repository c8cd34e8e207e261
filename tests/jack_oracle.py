"""Closed forms and the general power-sum pairing, kept for the tests as
independent oracles of the Jack tables.

The package reads every theta off its solver and every pairing of two
rows off the Gram matrix of their degree.  theta_top below is the
closed form of theta on (n), leq_dominance the order the monomial
expansions are triangular in, and inner_product the pairing of any two
vectors of one degree, so the tests can check the tables and the Gram
matrix against them.
"""

from jackcc.algebra import AlphaPoly, _pack, _poly, _unpack, _width
from jackcc.errors import DegreeMismatch
from jackcc.partitions import Partition, z_aut_class


def theta_top(lam):
    """Product of (a*coarm - coleg) over every box except the corner one."""
    out = AlphaPoly(1)
    for box in Partition(lam).boxes():
        if box.row == 1 and box.col == 1:
            continue
        out = out * AlphaPoly((-box.coleg, box.coarm))
    return out


def leq_dominance(mu, lam):
    """Whether mu is below lam in dominance order; both must have equal weight."""
    mu, lam = Partition(mu), Partition(lam)
    if mu.n != lam.n:
        raise DegreeMismatch("dominance compares partitions of the same weight, "
                             "got %d and %d" % (mu.n, lam.n))
    total_mu = 0
    total_lam = 0
    for k in range(max(len(mu), len(lam))):
        total_mu += mu[k] if k < len(mu) else 0
        total_lam += lam[k] if k < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


def inner_product(u, v):
    """Power-sum pairing <p_lam, p_mu> = alpha^len(lam) z_lam delta.

    The sum runs packed at alpha = 2^B: each shared mu adds
    z_mu P(c) P(c') 2^(B len(mu)), P = algebra._pack, and one _unpack reads
    the coefficients off.  No coefficient of the pairing exceeds the sum of
    z_mu |c|_1 |c'|_1, and B is the _width of that bound.
    """
    if u.degree != v.degree:
        raise DegreeMismatch("degrees %d and %d" % (u.degree, v.degree))
    shared = []
    bound = 0
    for mu, c in u.terms.items():
        other = v.terms.get(mu)
        if other is not None:
            z = z_aut_class(mu)[0]
            shared.append((z, len(mu), c.coeffs, other.coeffs))
            bound += (z * sum(map(abs, c.coeffs))
                      * sum(map(abs, other.coeffs)))
    B = _width(bound)
    total = sum((z * _pack(c, B) * _pack(d, B)) << (B * l)
                for z, l, c, d in shared)
    return _poly(_unpack(total, B))
