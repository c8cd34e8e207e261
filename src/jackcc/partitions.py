"""Integer partitions, their box statistics, and the part modification moves.

Partitions are stored as weakly decreasing tuples of positive integers and
are used as dictionary keys everywhere else in the package.  The moves
check only what they add: from a Partition, moved by int parts, they sort
the result without Partition's checks; any other input goes through them.
"""

import math
from collections import Counter
from typing import NamedTuple

from .algebra import AlphaPoly, _linear_list, _poly
from .config import cached, check_degree
from .errors import DegreeMismatch, MissingPart, NegativeOrder

__all__ = [
    "Partition", "BoxStats", "generate_partitions", "z_aut_class",
    "down_k", "up_k", "down_kl", "up_kl",
    "hooks", "hook_factors", "eigenvalue", "theta_top", "leq_dominance",
]


class Partition(tuple):
    """Weakly decreasing positive parts; () is the unique partition of 0."""

    def __new__(cls, parts=()):
        ps = list(parts)
        for p in ps:
            if type(p) is not int:
                raise MissingPart("part %r is not an integer" % (p,))
        ps.sort(reverse=True)
        if ps and ps[-1] <= 0:
            raise MissingPart("parts must be positive integers")
        return super().__new__(cls, ps)

    @property
    def n(self):
        """The weight, the sum of all parts."""
        return sum(self)

    def multiplicities(self):
        return Counter(self)

    def conjugate(self):
        if not self:
            return self
        return Partition(sum(1 for p in self if p >= j) for j in range(1, self[0] + 1))

    def to_text(self):
        return ",".join(str(p) for p in self) if self else "-"

    @classmethod
    def from_text(cls, text):
        s = text.strip()
        if s == "-":
            return cls()
        tokens = [tok.strip() for tok in s.split(",")]
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise MissingPart("part %r is not a run of digits 0-9" % tok)
        return cls(int(tok) for tok in tokens)

    def boxes(self):
        """Box statistics of the Young diagram, row by row."""
        conj = self.conjugate()
        for row, part in enumerate(self, start=1):
            for col in range(1, part + 1):
                yield BoxStats(
                    row=row,
                    col=col,
                    arm=part - col,
                    leg=conj[col - 1] - row,
                    coarm=col - 1,
                    coleg=row - 1,
                )

    def __repr__(self):
        return "Partition(%s)" % (self.to_text(),)


class BoxStats(NamedTuple):
    row: int
    col: int
    arm: int
    leg: int
    coarm: int
    coleg: int


def generate_partitions(n):
    """All partitions of n in reverse-lexicographic order, largest first."""
    if n < 0:
        raise NegativeOrder("no partitions of the negative weight %d" % n)
    check_degree(n)
    return _generate_partitions(n)


@cached
def _generate_partitions(n):
    out = []

    def rec(rem, maxpart, prefix):
        if rem == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(rem, maxpart), 0, -1):
            prefix.append(p)
            rec(rem - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


generate_partitions.cache_info = _generate_partitions.cache_info


def z_aut_class(lam):
    """The centralizer order z, the part permutation count Aut, and the class size n!/z."""
    return _z_aut_class(lam if type(lam) is Partition else Partition(lam))


@cached
def _z_aut_class(lam):
    z = 1
    aut = 1
    for i, m in Counter(lam).items():
        z *= i ** m * math.factorial(m)
        aut *= math.factorial(m)
    return z, aut, math.factorial(sum(lam)) // z


def _remove(parts, value):
    out = list(parts)
    try:
        out.remove(value)
    except ValueError:
        raise MissingPart("no part %d in %s" % (value, Partition(parts).to_text())) from None
    return out


def _moved(out):
    """out, positive int parts, as a Partition without Partition's checks."""
    out.sort(reverse=True)
    return tuple.__new__(Partition, out)


def down_k(lam, k):
    """Replace one part k by k-1, dropping it entirely when k is 1."""
    out = _remove(lam, k)
    if k > 1:
        out.append(k - 1)
    return _moved(out) if type(lam) is Partition and type(k) is int else Partition(out)


def up_k(lam, k):
    """Replace one part k by k+1."""
    out = _remove(lam, k)
    out.append(k + 1)
    return _moved(out) if type(lam) is Partition and type(k) is int else Partition(out)


def down_kl(lam, k, l):
    """Merge parts k and l into a single part k+l-1."""
    out = _remove(_remove(lam, k), l)
    out.append(k + l - 1)
    return (_moved(out) if type(lam) is Partition and type(k) is type(l) is int
            else Partition(out))


def up_kl(lam, k, l):
    """Split one part k+l+1 into parts k and l."""
    if k < 1 or l < 1:
        raise MissingPart("split parts must be positive, got %d and %d" % (k, l))
    out = _remove(lam, k + l + 1)
    out.extend((k, l))
    return (_moved(out) if type(lam) is Partition and type(k) is type(l) is int
            else Partition(out))


def hooks(lam):
    """Hook products (h, h', j) with j = h*h', as polynomials in the parameter.

    h and h' are built on integer coefficient lists, from the box factors
    (leg+1) + arm*a and leg + (arm+1)*a.
    """
    boxes = list(Partition(lam).boxes())
    h = _poly(_linear_list((box.leg + 1, box.arm) for box in boxes))
    h2 = _poly(_linear_list((box.leg, box.arm + 1) for box in boxes))
    return h, h2, h * h2


def hook_factors(lam):
    """j_lam as a positive integer c times primitive integer linear factors:
    (c, factors) with j_lam = c * prod (q*a + p)^m over the items
    ((p, q), m) of the Counter factors, gcd(p, q) = 1 and q >= 1.

    Each box contributes (leg+1) + arm*a and leg + (arm+1)*a; c collects
    their contents, the gcds of their two coefficients (all of leg+1 when
    arm is 0).
    """
    const = 1
    factors = Counter()
    for box in Partition(lam).boxes():
        for p, q in ((box.leg + 1, box.arm), (box.leg, box.arm + 1)):
            g = math.gcd(p, q)
            const *= g
            if q:
                factors[p // g, q // g] += 1
    return const, factors


def eigenvalue(lam):
    """Box sum of (a*coarm - coleg), which is a*n(conjugate) - n(lam):
    a * sum lam_i (lam_i - 1) / 2 - sum (i - 1) lam_i, read off the parts."""
    lam = Partition(lam)
    coarm_total = sum(p * (p - 1) for p in lam) // 2
    coleg_total = sum(i * p for i, p in enumerate(lam))
    return _poly([-coleg_total, coarm_total])


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
