"""Homogeneous symmetric functions on the power-sum basis.

Vectors are sparse maps from partitions of a fixed degree to AlphaPoly
coefficients, integer polynomials in alpha: Jack characters, D and the
alpha-scaled bracket tower all keep them so, and a JSON coefficient with a
denominator raises NotPolynomial.  The differential operators rewrite
partition keys directly: d/dp_i applied to a monomial with m_i parts of
size i contributes the factor m_i and removes one part, so every operator
below reduces to integer multiplicity bookkeeping on the key, done for D
once per key.
The constructor checks every key and coefficient; the operators, whose
keys are Partitions of the right degree already, build through _vector.

The operators run packed, like the Cauchy sum (Kronecker substitution;
see algebra): each coefficient is evaluated once at alpha = 2^W, each
entry of D's row becomes one big-int multiply-add, and each result is
unpacked once.  W is proven per call from the vector's own norm and a
closed-form bound on D's rows, so no width is fixed and no degree bound
is read.  The bracket tower's operator runs in Horner order in D.
"""

import math

from .algebra import (
    AlphaPoly, _pack, _poly, _poly_from_json, _poly_json, _require_poly, _unpack,
    _width,
)
from .config import cached, check_degree
from .errors import DegreeMismatch, NegativeOrder
from .partitions import Partition, generate_partitions

__all__ = [
    "PSumVector", "psum_unit",
    "apply_D", "apply_alpha_Delta", "transition_matrix",
]

_ZERO = AlphaPoly()


class PSumVector:
    """Expansion on the p_mu basis, mu running over partitions of degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=()):
        self.degree = degree
        table = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mu, c in items:
            mu = Partition(mu)
            if mu.n != degree:
                raise DegreeMismatch(
                    "key %s in a degree-%d vector" % (mu.to_text(), degree))
            c = _require_poly(c)
            if not c.is_zero:
                prev = table.get(mu)
                table[mu] = c if prev is None else prev + c
        self.terms = {mu: c for mu, c in table.items() if not c.is_zero}

    def coeff(self, mu):
        mu = Partition(mu)
        c = self.terms.get(mu)
        if c is not None:
            return c
        # every stored key has the vector's degree, so only a miss can
        # be a key of another degree
        if mu.n != self.degree:
            raise DegreeMismatch(
                "key %s in a degree-%d vector" % (mu.to_text(), self.degree))
        return _ZERO

    @property
    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), reverse=True)

    def __add__(self, other):
        if type(other) is not PSumVector:
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(
                "degrees %d and %d" % (self.degree, other.degree))
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, _ZERO) + c
        return _vector(self.degree, out)

    def __sub__(self, other):
        if type(other) is not PSumVector:
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        c = _require_poly(c)
        return _vector(self.degree, {mu: v * c for mu, v in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is PSumVector
                and other.degree == self.degree
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        body = " + ".join(
            "(%s)*p_%s" % (c.to_text(), mu.to_text())
            for mu, c in self.items())
        return body or "0[deg %d]" % self.degree

    def to_json(self):
        return {"degree": self.degree,
                "terms": [{"mu": mu.to_text(), "coeff": _poly_json(c)}
                          for mu, c in self.items()]}

    @classmethod
    def from_json(cls, data):
        return cls(data["degree"],
                   [(Partition.from_text(t["mu"]), _poly_from_json(t["coeff"]))
                    for t in data["terms"]])


def _vector(degree, terms):
    """A PSumVector over terms whose keys are Partitions of the degree and
    whose values are AlphaPolys, zeros dropped, without the checks."""
    v = object.__new__(PSumVector)
    v.degree = degree
    v.terms = {mu: c for mu, c in terms.items() if c.coeffs}
    return v


def psum_unit(mu):
    """The basis vector p_mu itself."""
    mu = Partition(mu)
    return PSumVector(mu.n, {mu: 1})


def _replace(counter, removals, additions):
    out = list(counter)
    for r in removals:
        out.remove(r)
    out.extend(additions)
    return Partition(out)


@cached
def _D_row(mu):
    """D p_mu as triples (nu, A, B) with D p_mu = sum (A*alpha + B) p_nu."""
    mult = mu.multiplicities()
    row = []
    diagonal = sum(i * (i - 1) * m for i, m in mult.items()) // 2
    if diagonal:
        row.append((mu, diagonal, -diagonal))
    sizes = sorted(mult)
    for a, i in enumerate(sizes):
        for j in sizes[a:]:
            if i == j:
                factor = i * i * (mult[i] * (mult[i] - 1) // 2)
            else:
                factor = i * j * mult[i] * mult[j]
            if factor:
                row.append((_replace(mu, (i, j), (i + j,)), factor, 0))
    for k, m in mult.items():
        for i in range(1, k // 2 + 1):
            factor = (k // 2 if 2 * i == k else k) * m
            row.append((_replace(mu, (k,), (i, k - i)), 0, factor))
    return tuple(row)


def _row_bound(n):
    """The largest sum of |A| + |B| over the row of any mu of degree n.

    The diagonal gives sum_i mu_i(mu_i - 1), the merges
    (n^2 - sum_i mu_i^2)/2 and the splits sum_i mu_i(mu_i - 1)/2, so a
    row sums to sum_i mu_i^2 + n(n - 3)/2, largest at mu = (n).
    """
    return 3 * n * (n - 1) // 2


def _packed(v, growth):
    """v's coefficients packed at a = 2^W, W the _width of
    growth * ||v||_1: the dict {mu: packed} and W."""
    W = _width(growth * sum(sum(map(abs, p.coeffs)) for p in v.terms.values()))
    return {mu: _pack(p.coeffs, W) for mu, p in v.terms.items()}, W


def _unpacked(degree, packed, W):
    """The vector of the packed coefficients."""
    return _vector(degree, {nu: _poly(_unpack(x, W)) for nu, x in packed.items()})


def _D_pass(packed, W):
    """D on packed coefficients at a = 2^W: each row entry (nu, A, B) of
    mu adds c * (A * 2^W + B) into nu's integer, one multiply-add."""
    out = {}
    get = out.get
    for mu, c in packed.items():
        for nu, A, B in _D_row(mu):
            out[nu] = get(nu, 0) + c * ((A << W) + B)
    return out


def apply_D(v):
    """The Laplace-Beltrami operator D = (alpha-1)N + alpha U + S, in one pass.

    N = 1/2 sum_i i(i-1) p_i d/dp_i keeps p_mu; U = 1/2 sum_{i,j} ij
    p_{i+j} d/dp_i d/dp_j merges two parts of mu; S = 1/2 sum_{i,j} (i+j)
    p_i p_j d/dp_{i+j} splits one part of mu in two.  Each coefficient is
    packed once at alpha = 2^W, each p_mu's row, cached per mu, is summed
    on the packed integers, and each result is unpacked once.

    Packing is a ring homomorphism, so only the result's digits must fit:
    by the triangle inequality no coefficient of D v exceeds R ||v||_1,
    ||v||_1 the sum of the absolute coefficients of v and R the largest
    row sum of |A| + |B| at v's degree (_row_bound), and W is its _width.
    """
    packed, W = _packed(v, _row_bound(v.degree))
    return _unpacked(v.degree, _D_pass(packed, W), W)


def apply_alpha_Delta(l, v):
    """alpha times Delta_l(v), Delta_l = [D, [D, ... [D, p1/alpha]]] (l brackets).

    The factor alpha clears the 1/alpha of p1/alpha, so polynomial
    coefficients stay polynomial.  Expanded binomially, alpha Delta_l(v)
    is sum_{k=0..l} c_k D^k(p1 * w_(l-k)), c_k = C(l,k) (-1)^(l-k) and
    w_j = D^j v.  It is evaluated in Horner order,
    c_0 p1 w_l + D(c_1 p1 w_(l-1) + D(... + D(c_l p1 w_0))), so l passes
    of D make the w_j and l more make the sum: 2l passes in all.

    Every pass runs on v's coefficients packed once at alpha = 2^W and
    the result is unpacked once.  With R the _row_bound of degree n + 1,
    which is at least that of degree n, each summand has
    ||D^k(p1 w_(l-k))||_1 <= R^l ||v||_1, so no coefficient of the result
    exceeds sum_k C(l,k) R^l ||v||_1 = (2R)^l ||v||_1, and W is its
    _width; the w_j and the partial sums need no width of their own.
    """
    if l < 0:
        raise NegativeOrder("negative bracket depth %d" % l)
    packed, W = _packed(v, (2 * _row_bound(v.degree + 1)) ** l)
    powers = [packed]
    for _ in range(l):
        powers.append(_D_pass(powers[-1], W))
    total = {}
    for k in range(l, -1, -1):
        if total:
            total = _D_pass(total, W)
        c = math.comb(l, k) * (-1) ** (l - k)
        get = total.get
        for mu, x in powers[l - k].items():
            # a part 1 appended to a Partition keeps it weakly decreasing
            nu = tuple.__new__(Partition, mu + (1,))
            total[nu] = get(nu, 0) + c * x
    return _unpacked(v.degree + 1, total, W)


@cached
def _transition(n):
    """Rows p_mu = p_k * p_rest, k the last part of mu, read off degree n - k.

    p_k m_nu grows one part v of nu to v + k (v = 0 adds the part k), and
    the grown m_lam comes with the multiplicity of v + k in lam.
    """
    if n == 0:
        return {Partition(): {Partition(): 1}}
    order = generate_partitions(n)
    matrix = {}
    for mu in order:
        k = mu[-1]
        row = {}
        for nu, entry in _transition(n - k)[Partition(mu[:-1])].items():
            for v in set(nu) | {0}:
                parts = list(nu)
                if v:
                    parts.remove(v)
                lam = Partition(parts + [v + k])
                row[lam] = row.get(lam, 0) + entry * lam.count(v + k)
        # the cached rows keep order's own keys, in generation order
        matrix[mu] = {lam: row[lam] for lam in order if lam in row}
    return matrix


def transition_matrix(n):
    """Integer matrix R with p_mu = sum_lam R[mu][lam] m_lam, cached per degree.

    Nonzero entries satisfy lam >= mu in dominance, so R is triangular in
    the generation order of partitions.
    """
    check_degree(n)
    return _transition(n)

