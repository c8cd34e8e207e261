"""D applied term by term, kept for the tests as an independent oracle.

The package applies D through rows cached per partition on integer
coefficient lists.  The routine below recounts every multiplicity and
rebuilds every partition on each call and multiplies AlphaPolys, so the
tests can check the package's D against it.
"""

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
