"""Homogeneous symmetric functions on the power-sum and monomial bases.

Vectors are sparse maps from partitions of a fixed degree to RatFunc
coefficients.  The differential operators rewrite partition keys directly:
d/dp_i applied to a monomial with m_i parts of size i contributes the
factor m_i and removes one part, so every operator below reduces to
integer multiplicity bookkeeping on the key.
"""

import threading
from math import comb

from .algebra import ALPHA, RatFunc
from .config import check_degree
from .errors import DegreeMismatch, NegativeOrder
from .partitions import Partition, generate_partitions

__all__ = [
    "PSumVector", "MonomialVector", "psum_unit",
    "apply_N", "apply_U", "apply_S", "apply_D",
    "apply_E2", "apply_E2perp", "multiply_p1", "apply_p1perp",
    "apply_DE2_commutator", "apply_Delta",
    "p_to_m", "m_to_p", "transition_matrix",
]

_ZERO = RatFunc(0)
_ALPHA_RF = RatFunc(ALPHA)


def _coeff(x):
    return x if isinstance(x, RatFunc) else RatFunc(x)


class _GradedVector:
    """Common container behaviour shared by both bases."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=()):
        self.degree = degree
        table = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mu, c in items:
            mu = mu if isinstance(mu, Partition) else Partition(mu)
            if mu.n != degree:
                raise DegreeMismatch(
                    "key %s in a degree-%d vector" % (mu.to_text(), degree))
            c = _coeff(c)
            if not c.is_zero:
                table[mu] = table.get(mu, _ZERO) + c
        self.terms = {mu: c for mu, c in table.items() if not c.is_zero}

    def coeff(self, mu):
        mu = mu if isinstance(mu, Partition) else Partition(mu)
        return self.terms.get(mu, _ZERO)

    @property
    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), reverse=True)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(
                "degrees %d and %d" % (self.degree, other.degree))
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, _ZERO) + c
        return type(self)(self.degree, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        c = _coeff(c)
        return type(self)(
            self.degree, {mu: v * c for mu, v in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is type(self)
                and other.degree == self.degree
                and other.terms == self.terms)

    def __hash__(self):
        return hash((type(self).__name__, self.degree,
                     frozenset(self.terms.items())))

    def __repr__(self):
        body = " + ".join(
            "(%s)*%s_%s" % (c.to_text(), self._letter, mu.to_text())
            for mu, c in self.items())
        return body or "0[deg %d]" % self.degree


class PSumVector(_GradedVector):
    """Expansion on the p_mu basis, mu running over partitions of degree."""

    _letter = "p"

    def to_json(self):
        return {"degree": self.degree,
                "terms": [{"mu": mu.to_text(), "coeff": c.to_json()}
                          for mu, c in self.items()]}

    @classmethod
    def from_json(cls, data):
        return cls(data["degree"],
                   [(Partition.from_text(t["mu"]), RatFunc.from_json(t["coeff"]))
                    for t in data["terms"]])


class MonomialVector(_GradedVector):
    """Expansion on the m_mu basis; produced and consumed by p_to_m/m_to_p."""

    _letter = "m"


def psum_unit(mu):
    """The basis vector p_mu itself."""
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    return PSumVector(mu.n, {mu: 1})


def _replace(counter, removals, additions):
    out = list(counter)
    for r in removals:
        out.remove(r)
    out.extend(additions)
    return Partition(out)


def apply_N(v):
    """N = 1/2 sum_i i(i-1) p_i d/dp_i, diagonal on the p basis."""
    out = {}
    for mu, c in v.terms.items():
        factor = sum(i * (i - 1) * m for i, m in mu.multiplicities().items()) // 2
        if factor:
            out[mu] = out.get(mu, _ZERO) + c * factor
    return PSumVector(v.degree, out)


def apply_U(v):
    """U = 1/2 sum_{i,j} ij p_{i+j} d/dp_i d/dp_j, merging two parts."""
    out = {}
    for mu, c in v.terms.items():
        mult = mu.multiplicities()
        sizes = sorted(mult)
        for a, i in enumerate(sizes):
            for j in sizes[a:]:
                if i == j:
                    factor = i * i * (mult[i] * (mult[i] - 1) // 2)
                else:
                    factor = i * j * mult[i] * mult[j]
                if factor:
                    nu = _replace(mu, (i, j), (i + j,))
                    out[nu] = out.get(nu, _ZERO) + c * factor
    return PSumVector(v.degree, out)


def apply_S(v):
    """S = 1/2 sum_{i,j} (i+j) p_i p_j d/dp_{i+j}, splitting one part."""
    out = {}
    for mu, c in v.terms.items():
        for k, m in mu.multiplicities().items():
            for i in range(1, k // 2 + 1):
                factor = (k // 2 if 2 * i == k else k) * m
                nu = _replace(mu, (k,), (i, k - i))
                out[nu] = out.get(nu, _ZERO) + c * factor
    return PSumVector(v.degree, out)


def apply_D(v):
    """The Laplace-Beltrami style operator (alpha-1)N + alpha U + S."""
    result = apply_N(v).scale(ALPHA - 1)
    result = result + apply_U(v).scale(ALPHA)
    return result + apply_S(v)


def apply_E2(v):
    """E2 = sum_k k p_{k+1} d/dp_k, raising the degree by one."""
    out = {}
    for mu, c in v.terms.items():
        for k, m in mu.multiplicities().items():
            nu = _replace(mu, (k,), (k + 1,))
            out[nu] = out.get(nu, _ZERO) + c * (k * m)
    return PSumVector(v.degree + 1, out)


def apply_E2perp(v):
    """E2perp = sum_k (k+1) p_k d/dp_{k+1}, lowering the degree by one."""
    out = {}
    for mu, c in v.terms.items():
        for k, m in mu.multiplicities().items():
            if k >= 2:
                nu = _replace(mu, (k,), (k - 1,))
                out[nu] = out.get(nu, _ZERO) + c * (k * m)
    return PSumVector(v.degree - 1, out)


def multiply_p1(v):
    out = {}
    for mu, c in v.terms.items():
        nu = _replace(mu, (), (1,))
        out[nu] = out.get(nu, _ZERO) + c
    return PSumVector(v.degree + 1, out)


def apply_p1perp(v):
    """p1perp = alpha d/dp_1, the adjoint of multiplication by p_1."""
    out = {}
    for mu, c in v.terms.items():
        m = mu.mult(1)
        if m:
            nu = _replace(mu, (1,), ())
            out[nu] = out.get(nu, _ZERO) + c * (ALPHA * m)
    return PSumVector(v.degree - 1, out)


def apply_DE2_commutator(v):
    """Closed form of D E2 - E2 D; degree rises by one.

    Three summands: (alpha-1) sum (i-1)^2 p_i d/dp_{i-1}, then the
    unhalved split sum (i+j-1) p_i p_j d/dp_{i+j-1} over ordered (i,j),
    then alpha sum ij p_{i+j+1} d/dp_i d/dp_j over ordered (i,j).
    """
    out = {}

    def add(nu, c):
        out[nu] = out.get(nu, _ZERO) + c

    for mu, coeff in v.terms.items():
        mult = mu.multiplicities()
        for k, m in mult.items():
            add(_replace(mu, (k,), (k + 1,)), coeff * ((ALPHA - 1) * (k * k * m)))
            for i in range(1, (k + 1) // 2 + 1):
                j = k + 1 - i
                ordered = 1 if i == j else 2
                add(_replace(mu, (k,), (i, j)), coeff * (ordered * k * m))
        sizes = sorted(mult)
        for a, i in enumerate(sizes):
            for j in sizes[a:]:
                if i == j:
                    factor = i * i * mult[i] * (mult[i] - 1)
                else:
                    factor = 2 * i * j * mult[i] * mult[j]
                if factor:
                    add(_replace(mu, (i, j), (i + j + 1,)),
                        coeff * (ALPHA * factor))
    return PSumVector(v.degree + 1, out)


def apply_Delta(l, v):
    """The iterated bracket Delta_l = [D, [D, ... [D, p1/alpha]]] (l brackets).

    Expanded binomially: alpha Delta_l(v) equals
    sum_{k=0..l} C(l,k) (-1)^(l-k) D^k(p1 * D^(l-k) v),
    so only l+1 summands and at most l D-applications each are needed.
    """
    if l < 0:
        raise NegativeOrder("negative bracket depth %d" % l)
    powers = [v]
    for _ in range(l):
        powers.append(apply_D(powers[-1]))
    total = PSumVector(v.degree + 1)
    for k in range(l + 1):
        term = multiply_p1(powers[l - k])
        for _ in range(k):
            term = apply_D(term)
        total = total + term.scale(comb(l, k) * (-1) ** (l - k))
    return total.scale(RatFunc(1, ALPHA))


_transition_lock = threading.Lock()
_transition_cache = {}


def _expand_in_monomials(mu, n):
    """Monomial coefficients of p_mu in n variables, keyed by exponent tuple.

    Multiplying a symmetric T by p_k sends the coefficient of x^w to the
    sum of T at sorted(w - k e_i) over the positions i with w_i >= k; the
    pull direction matters because positions with equal exponents are
    distinct summands.
    """
    table = {(0,) * n: 1}
    for k in mu:
        grown = {}
        for w in {tuple(sorted((v[:i] + (v[i] + k,) + v[i + 1:]), reverse=True))
                  for v in table for i in range(n)}:
            total = 0
            for i in range(n):
                if w[i] >= k:
                    total += table.get(
                        tuple(sorted(w[:i] + (w[i] - k,) + w[i + 1:],
                                     reverse=True)), 0)
            if total:
                grown[w] = total
        table = grown
    return table


def transition_matrix(n):
    """Integer matrix R with p_mu = sum_lam R[mu][lam] m_lam, cached per degree.

    Nonzero entries satisfy lam >= mu in dominance, so R is triangular in
    the generation order of partitions.
    """
    check_degree(n)
    with _transition_lock:
        cached = _transition_cache.get(n)
    if cached is not None:
        return cached
    order = generate_partitions(n)
    matrix = {}
    for mu in order:
        expansion = _expand_in_monomials(mu, n)
        row = {}
        for lam in order:
            entry = expansion.get(tuple(lam) + (0,) * (n - len(lam)), 0)
            if entry:
                row[lam] = entry
        matrix[mu] = row
    with _transition_lock:
        return _transition_cache.setdefault(n, matrix)


def p_to_m(v):
    matrix = transition_matrix(v.degree)
    out = {}
    for mu, c in v.terms.items():
        for lam, entry in matrix[mu].items():
            out[lam] = out.get(lam, _ZERO) + c * entry
    return MonomialVector(v.degree, out)


def m_to_p(w):
    """Invert the triangular transition by back substitution.

    Partitions are visited from the dominance-smallest upward; every
    off-diagonal entry of a row points at a strictly later partition, so
    those coordinates are already known.
    """
    matrix = transition_matrix(w.degree)
    order = generate_partitions(w.degree)
    solved = {}
    for lam in reversed(order):
        residue = w.terms.get(lam, _ZERO)
        for mu, known in solved.items():
            entry = matrix[mu].get(lam)
            if entry:
                residue = residue - known * entry
        if not residue.is_zero:
            solved[lam] = residue / matrix[lam][lam]
    return PSumVector(w.degree, solved)
