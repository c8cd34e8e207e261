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
coefficients (Knop and Sahi, Invent. Math. 128, 1997), and so is every
power-sum coefficient theta, so the solver works on plain integer
coefficient lists: each c_kappa is one exact integer division by the whole
linear gap, and one back substitution on the integer transition matrix
p -> m, dividing by its diagonal, gives theta, with theta on [1^n] equal
to 1.  The gap is q*alpha + p with q = n(lam') - n(kappa') > 0 for kappa
below lam in dominance, so it never vanishes, though partitions such as
(2,2,2) and (3,1,1,1) share an eigenvalue: they are not comparable.

Only about half of each table is solved.  Stanley's duality (Adv. Math.
77, 1989, Thm 3.3; Macdonald VI (10.24)), omega_alpha J_lam(alpha) =
alpha^n J_lam'(1/alpha) with omega_alpha p_mu = (-1)^(n-len(mu))
alpha^len(mu) p_mu, gives theta^lam'_mu(alpha) = (-1)^k alpha^k
theta^lam_mu(1/alpha), k = n - len(mu): each coefficient list of the row of
lam', padded to length k + 1, reversed and signed.  Of each conjugate pair
the member later in generation order is solved, since its monomial phase
starts lowest; self-conjugate partitions are solved as they are.

The rows are orthogonal under the power-sum pairing, <J_lam, J_mu> =
delta j_lam (Stanley 1989; Macdonald VI.10).  gram_entry reads a pairing
of two rows from the Gram matrix of their degree, built once per degree:
every theta is packed once at alpha = 2^B, one width B proven for the
whole degree, and each pairing is one sum of big-int products, unpacked
once.
"""

from operator import mul

from .algebra import (
    _addmul, _divide_int, _divide_linear, _linear_list, _pack, _poly, _unpack,
    _width,
)
from .config import cached, check_degree
from .errors import DegenerateSystem, DegreeMismatch
from .partitions import Partition, eigenvalue, generate_partitions, z_aut_class
from .psum import PSumVector, _vector, transition_matrix

__all__ = ["JackTable", "jack_table", "gram_entry"]


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


def _solve_row(lam, matrix, eigenvalues, transition):
    """Power-sum expansion of J_lam by two back substitutions on integer lists.

    Each c_kappa, solved in generation order, adds c_kappa * B[kappa][nu]
    into the sum of every nu below it; theta_kappa, solved from the
    dominance-smallest kappa upward, subtracts theta_kappa * R[kappa][nu]
    from the residue of every nu above it.  Only the finished row is made
    of polynomials.
    """
    n = lam.n
    order = generate_partitions(n)
    e0, e1 = eigenvalues[lam]
    # c_lam, the product of arm*a + leg + 1 over the boxes of lam
    sums = {lam: _linear_list((box.leg + 1, box.arm) for box in lam.boxes())}
    for kappa in order[order.index(lam):]:
        total = sums.get(kappa)
        if total is None:
            continue
        if kappa != lam:
            k0, k1 = eigenvalues[kappa]
            p, q = e0 - k0, e1 - k1
            if q <= 0:
                raise DegenerateSystem(
                    "eigenvalue of %s does not rise above %s's"
                    % (lam.to_text(), kappa.to_text()))
            total = sums[kappa] = _divide_linear(total, p, q)
        for nu, entry in matrix[kappa].items():
            _addmul(sums.setdefault(nu, []), total, entry)
    row = {}
    for kappa in reversed(order):
        residue = sums.get(kappa)
        if residue is None:
            continue
        theta = _divide_int(residue, transition[kappa][kappa])
        if any(theta):
            row[kappa] = _poly(theta)
            for nu, entry in transition[kappa].items():
                if nu != kappa:
                    _addmul(sums.setdefault(nu, []), theta, -entry)
    if row.get(Partition([1] * n)) != 1:
        raise DegenerateSystem(
            "expansion of %s is not 1 on the all-ones class" % lam.to_text())
    return PSumVector(n, row)


class JackTable:
    """All theta rows of one degree, keyed by the indexing partition."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = dict(rows)

    def row(self, lam):
        lam = Partition(lam)
        if lam.n != self.n:
            raise DegreeMismatch("row %s in a degree-%d table"
                                 % (lam.to_text(), self.n))
        return self.rows[lam]

    def theta(self, lam, mu):
        return self.row(lam).coeff(mu)

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


def _dual(row, n):
    """The row of lam' from the row of lam: theta^lam'_mu is theta^lam_mu's
    coefficient list padded to k + 1, k = n - len(mu), reversed and times
    (-1)^k.  A list longer than k + 1 breaks the duality."""
    terms = {}
    for mu, c in row.terms.items():
        k = n - len(mu)
        pad = k + 1 - len(c.coeffs)
        if pad < 0:
            raise DegenerateSystem("theta on %s has degree %d, above %d"
                                   % (mu.to_text(), len(c.coeffs) - 1, k))
        sign = -1 if k % 2 else 1
        terms[mu] = _poly([0] * pad + [sign * x for x in reversed(c.coeffs)])
    return _vector(n, terms)


@cached
def _build_table(n):
    """Every row of degree n: each self-conjugate lam and the later member
    of each conjugate pair, in generation order, by _solve_row; the
    earlier member by _dual of its conjugate's row."""
    matrix = _d_on_monomials(n)
    transition = transition_matrix(n)
    order = generate_partitions(n)
    eigenvalues = {}
    for lam in order:
        e = eigenvalue(lam)
        eigenvalues[lam] = e.coeff(0), e.coeff(1)
    rows = {}
    for lam in reversed(order):
        conj = lam.conjugate()
        if conj in rows:
            rows[lam] = _dual(rows[conj], n)
        else:
            rows[lam] = _solve_row(lam, matrix, eigenvalues, transition)
    return JackTable(n, {lam: rows[lam] for lam in order})


def jack_table(n):
    """Every theta row of degree n, built once per degree."""
    check_degree(n)
    return _build_table(n)


def _gram_width(table):
    """B = _width(sum_mu z_mu T_mu^2), T_mu the largest |theta_lam(mu)|_1
    over the rows of table.

    By the triangle inequality no coefficient of the pairing of two rows,
    sum_mu z_mu a^len(mu) theta_lam(mu) theta_kappa(mu), exceeds
    sum_mu z_mu |theta_lam(mu)|_1 |theta_kappa(mu)|_1 <= sum_mu z_mu T_mu^2.
    """
    top = {}
    for row in table.rows.values():
        for mu, c in row.terms.items():
            top[mu] = max(top.get(mu, 0), sum(map(abs, c.coeffs)))
    return _width(sum(z_aut_class(mu)[0] * t * t for mu, t in top.items()))


@cached
def _gram(n):
    """The Gram matrix of degree n, {lam: {mu: <J_lam, J_mu>}}.

    Every theta is packed once at a = 2^B, B = _gram_width; each row is
    weighted by z_mu 2^(B len(mu)) once, so each pairing is one sum of
    products against the other packed row, and one _unpack reads it.  A
    packed off-diagonal sum of 0 proves the pairing zero: balanced
    base-2^B digits below 2^(B-1) are unique.  Only the polynomials are
    kept.
    """
    table = jack_table(n)
    parts = generate_partitions(n)
    B = _gram_width(table)
    packed = {}
    for lam in parts:
        terms = table.rows[lam].terms
        packed[lam] = [_pack(terms[mu].coeffs, B) if mu in terms else 0
                       for mu in parts]
    weights = [z_aut_class(mu)[0] << (B * len(mu)) for mu in parts]
    gram = {lam: {} for lam in parts}
    for i, lam in enumerate(parts):
        weighted = list(map(mul, weights, packed[lam]))
        for mu in parts[i:]:
            gram[lam][mu] = gram[mu][lam] = _poly(
                _unpack(sum(map(mul, weighted, packed[mu])), B))
    return gram


def gram_entry(lam, mu):
    """<J_lam, J_mu>, read from the Gram matrix of their degree."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.n != mu.n:
        raise DegreeMismatch("partitions of %d and %d" % (lam.n, mu.n))
    check_degree(lam.n)
    return _gram(lam.n)[lam][mu]

