"""Integer partitions, their box statistics, and the part modification moves.

Partitions are stored as weakly decreasing tuples of positive integers and
are used as dictionary keys everywhere else in the package.
"""

import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .algebra import ALPHA, AlphaPoly
from .errors import MissingPart

__all__ = [
    "Partition", "BoxStats", "generate_partitions", "z_aut_class",
    "modify", "down_k", "up_k", "down_kl", "up_kl",
    "hooks", "eigenvalue", "theta_top", "leq_dominance",
]


class Partition(tuple):
    """Weakly decreasing positive parts; () is the unique partition of 0."""

    def __new__(cls, parts=()):
        ps = sorted((int(p) for p in parts), reverse=True)
        if ps and ps[-1] <= 0:
            raise MissingPart("parts must be positive integers")
        return super().__new__(cls, ps)

    @property
    def n(self):
        """The weight, the sum of all parts."""
        return sum(self)

    def mult(self, i):
        """Number of parts equal to i."""
        return self.count(i)

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
        return cls(int(tok) for tok in s.split(","))

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


@lru_cache(maxsize=None)
def generate_partitions(n):
    """All partitions of n in reverse-lexicographic order, largest first."""
    assert n >= 0
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


def z_aut_class(lam):
    """The centralizer order z, the part permutation count Aut, and the class size n!/z."""
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


def down_k(lam, k):
    """Replace one part k by k-1, dropping it entirely when k is 1."""
    out = _remove(lam, k)
    if k > 1:
        out.append(k - 1)
    return Partition(out)


def up_k(lam, k):
    """Replace one part k by k+1."""
    out = _remove(lam, k)
    out.append(k + 1)
    return Partition(out)


def down_kl(lam, k, l):
    """Merge parts k and l into a single part k+l-1."""
    out = _remove(_remove(lam, k), l)
    out.append(k + l - 1)
    return Partition(out)


def up_kl(lam, k, l):
    """Split one part k+l+1 into parts k and l."""
    assert k >= 1 and l >= 1
    out = _remove(lam, k + l + 1)
    out.extend((k, l))
    return Partition(out)


_MOVES = {"down_k": down_k, "up_k": up_k, "down_kl": down_kl, "up_kl": up_kl}


def modify(lam, which, *args):
    if which not in _MOVES:
        raise ValueError("unknown modification %r" % (which,))
    return _MOVES[which](lam, *args)


def hooks(lam):
    """Hook products (h, h', j) with j = h*h', as polynomials in the parameter."""
    h = AlphaPoly(1)
    h2 = AlphaPoly(1)
    for box in Partition(lam).boxes():
        h = h * AlphaPoly((box.leg + 1, box.arm))
        h2 = h2 * AlphaPoly((box.leg, box.arm + 1))
    return h, h2, h * h2


def eigenvalue(lam):
    """Box sum of (a*coarm - coleg), which is a*n(conjugate) - n(lam)."""
    coarm_total = 0
    coleg_total = 0
    for box in Partition(lam).boxes():
        coarm_total += box.coarm
        coleg_total += box.coleg
    return ALPHA * coarm_total - coleg_total


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
    assert mu.n == lam.n, "dominance compares partitions of the same weight"
    total_mu = 0
    total_lam = 0
    for k in range(max(len(mu), len(lam))):
        total_mu += mu[k] if k < len(mu) else 0
        total_lam += lam[k] if k < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True
