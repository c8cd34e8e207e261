"""D and the bracket tower's operator applied term by term, kept for the
tests as independent oracles.

The package applies D through rows cached per partition on packed
integers, and the tower's operator in Horner order on the same packing.
apply_D below recounts every multiplicity and rebuilds every partition on
each call and multiplies AlphaPolys; apply_alpha_Delta sums the binomial
expansion of the bracket term by term, each summand its own chain of
apply_D and multiply_p1 on PSumVectors.  The tests check the package's
operators against them.
"""

from math import comb

from jackcc.algebra import ALPHA, AlphaPoly
from jackcc.partitions import Partition
from jackcc.psum import PSumVector


def _replace(mu, removals, additions):
    out = list(mu)
    for r in removals:
        out.remove(r)
    out.extend(additions)
    return Partition(out)


def apply_D(v):
    """D = (alpha-1)N + alpha U + S on v, one term of v at a time."""
    zero = AlphaPoly()
    out = {}
    for mu, c in v.terms.items():
        mult = mu.multiplicities()
        c_alpha = c * ALPHA
        diagonal = sum(i * (i - 1) * m for i, m in mult.items()) // 2
        if diagonal:
            out[mu] = out.get(mu, zero) + (c_alpha - c) * diagonal
        sizes = sorted(mult)
        for a, i in enumerate(sizes):
            for j in sizes[a:]:
                if i == j:
                    factor = i * i * (mult[i] * (mult[i] - 1) // 2)
                else:
                    factor = i * j * mult[i] * mult[j]
                if factor:
                    nu = _replace(mu, (i, j), (i + j,))
                    out[nu] = out.get(nu, zero) + c_alpha * factor
        for k, m in mult.items():
            for i in range(1, k // 2 + 1):
                nu = _replace(mu, (k,), (i, k - i))
                factor = (k // 2 if 2 * i == k else k) * m
                out[nu] = out.get(nu, zero) + c * factor
    return PSumVector(v.degree, out)


def multiply_p1(v):
    """p_1 times v: a part 1 appended to every key."""
    return PSumVector(v.degree + 1, {Partition(tuple(mu) + (1,)): c
                                     for mu, c in v.terms.items()})


def apply_alpha_Delta(l, v):
    """alpha Delta_l(v) = sum_k C(l,k) (-1)^(l-k) D^k(p1 * D^(l-k) v)."""
    powers = [v]
    for _ in range(l):
        powers.append(apply_D(powers[-1]))
    total = PSumVector(v.degree + 1)
    for k in range(l + 1):
        term = multiply_p1(powers[l - k])
        for _ in range(k):
            term = apply_D(term)
        total = total + term.scale(comb(l, k) * (-1) ** (l - k))
    return total
