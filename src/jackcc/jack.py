"""Jack characters via a triangular eigenvector recursion.

J_lam is the eigenvector of the operator D with eigenvalue e_lam read off
lam whose monomial expansion is dominance-triangular: J_lam = sum c_kappa
m_kappa over kappa <= lam, with c_lam the hook product.  D is triangular
on the monomial basis as well, with diagonal e_kappa, so the eigen relation
read at m_kappa gives c_kappa from the coefficients of the partitions above
it:

    (e_lam - e_kappa) c_kappa = sum_{mu > kappa} c_mu B[mu][kappa],

where B, the off-diagonal part of D on the m basis, is Stanley's integer
box-move rule.  Every c_kappa is a polynomial in alpha with integer
coefficients (Knop and Sahi, Invent. Math. 128, 1997), so each step is
one exact integer division by the linear gap; one back substitution into
power sums then gives theta, with theta on [1^n] equal to 1.  The gap is
q*alpha + p with q = n(lam') - n(kappa') > 0 for kappa below lam in
dominance, so it never vanishes, though partitions such as (2,2,2) and
(3,1,1,1) share an eigenvalue: they are not comparable.
"""

import math
from functools import lru_cache

from .algebra import AlphaPoly, _divide_linear, _poly
from .config import check_degree
from .errors import DegenerateSystem, DegreeMismatch, InexactDivision
from .partitions import (
    Partition, eigenvalue, generate_partitions, hooks, leq_dominance,
    z_aut_class,
)
from .psum import MonomialVector, PSumVector, m_to_p

__all__ = ["JackTable", "jack_table", "inner_product"]

_ZERO = AlphaPoly()


def _d_on_monomials(n):
    """Integer B[lam][kappa] for lam > kappa: m_kappa's coefficient in D m_lam.

    Each pair of parts (c, e) of kappa and each b < min(c, e) give lam, kappa
    with (c, e) replaced by (c+e-b, b), and add c+e-2b (Stanley 1989).
    """
    matrix = {lam: {} for lam in generate_partitions(n)}
    for kappa in generate_partitions(n):
        for k, c in enumerate(kappa):
            for l, e in enumerate(kappa[k + 1:], start=k + 1):
                rest = kappa[:k] + kappa[k + 1:l] + kappa[l + 1:]
                for b in range(min(c, e)):
                    lam = Partition(p for p in rest + (c + e - b, b) if p)
                    row = matrix[lam]
                    row[kappa] = row.get(kappa, 0) + c + e - 2 * b
    return matrix


def _solve_row(lam, matrix, eigenvalues):
    """Power-sum expansion of J_lam by back substitution on the m basis."""
    n = lam.n
    order = generate_partitions(n)
    e = eigenvalues[lam]
    coeffs = {lam: hooks(lam)[0]}
    for kappa in order[order.index(lam) + 1:]:
        if not leq_dominance(kappa, lam):
            continue
        # the gap q*a + p is g times the primitive factor (q/g)*a + p/g
        gap = e - eigenvalues[kappa]
        p, q = gap.coeff(0), gap.coeff(1)
        if q <= 0:
            raise DegenerateSystem("eigenvalue of %s does not rise above %s's"
                                   % (lam.to_text(), kappa.to_text()))
        g = math.gcd(p, q)
        total = _ZERO
        for mu, c in coeffs.items():
            entry = matrix[mu].get(kappa)
            if entry is not None:
                total = total + c * entry
        quo = _divide_linear(total.coeffs, p // g, q // g)
        if any(c % g for c in quo):
            raise InexactDivision("%s is not a multiple of %d" % (
                AlphaPoly(quo).to_text(), g))
        coeffs[kappa] = _poly([c // g for c in quo])
    row = m_to_p(MonomialVector(n, coeffs))
    if row.coeff(Partition([1] * n)) != 1:
        raise DegenerateSystem(
            "expansion of %s is not 1 on the all-ones class" % lam.to_text())
    return row


class JackTable:
    """All theta rows of one degree, keyed by the indexing partition."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = dict(rows)

    def row(self, lam):
        return self.rows[Partition(lam)]

    def theta(self, lam, mu):
        return self.rows[Partition(lam)].coeff(mu)

    def __iter__(self):
        return iter(generate_partitions(self.n))

    def to_json(self):
        return {"n": self.n,
                "rows": [{"lambda": lam.to_text(),
                          "theta": self.rows[lam].to_json()}
                         for lam in self]}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"],
                   {Partition.from_text(r["lambda"]):
                    PSumVector.from_json(r["theta"])
                    for r in data["rows"]})


@lru_cache(maxsize=None)
def _build_table(n):
    matrix = _d_on_monomials(n)
    eigenvalues = {lam: eigenvalue(lam) for lam in generate_partitions(n)}
    return JackTable(n, {lam: _solve_row(lam, matrix, eigenvalues)
                         for lam in generate_partitions(n)})


def jack_table(n):
    """Every theta row of degree n, built once per degree."""
    check_degree(n)
    return _build_table(n)


def inner_product(u, v):
    """Power-sum pairing <p_lam, p_mu> = alpha^len(lam) z_lam delta.

    Every term z_mu c_i c'_j alpha^(len(mu)+i+j) adds into one coefficient
    list at that offset, so no polynomial is built per term.
    """
    if u.degree != v.degree:
        raise DegreeMismatch("degrees %d and %d" % (u.degree, v.degree))
    total = []
    for mu, c in u.terms.items():
        other = v.terms.get(mu)
        if other is not None:
            z = z_aut_class(mu)[0]
            base = len(mu)
            top = base + c.degree + other.degree + 1
            total.extend([0] * (top - len(total)))
            for i, ci in enumerate(c.coeffs, start=base):
                if ci:
                    zc = z * ci
                    for j, cj in enumerate(other.coeffs, start=i):
                        total[j] += zc * cj
    return AlphaPoly(total)
