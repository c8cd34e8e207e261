"""The part-surgery bracket on AlphaPoly ring operations, kept for the tests
as an independent oracle.

The package sums the bracket's terms on one integer coefficient list with
shifted adds.  The routine below forms each term as an AlphaPoly product
with alpha - 1 or alpha and adds the products, so the tests can check the
list form against it.
"""

from jackcc.algebra import ALPHA
from jackcc.partitions import down_k, down_kl, up_kl


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
