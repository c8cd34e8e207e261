import hashlib
import json
import math
import random

import pytest

import psum_oracle
from jackcc.algebra import ALPHA, AlphaPoly, RatFunc
from jackcc.errors import DegreeMismatch, NotPolynomial
from jackcc.partitions import Partition, generate_partitions
from jackcc.psum import (
    PSumVector, _D_row, _row_bound, apply_D, apply_alpha_Delta, p_to_m,
    psum_unit, transition_matrix,
)
from psum_oracle import multiply_p1

P = Partition


def vec(degree, **named):
    return PSumVector(degree, {P.from_text(k.lstrip("_").replace("_", ",")): v
                               for k, v in named.items()})


def test_vector_container():
    v = PSumVector(2, {P([2]): 1, P([1, 1]): RatFunc(0)})
    assert v.terms == {P([2]): RatFunc(1)}
    assert v.coeff(P([1, 1])).is_zero
    with pytest.raises(DegreeMismatch):
        PSumVector(3, {P([2]): 1})
    with pytest.raises(DegreeMismatch):
        v + PSumVector(3)
    assert (v - v).is_zero


def _with_length(v, length):
    return {mu: c for mu, c in v.terms.items() if len(mu) == length}


def test_single_operator_examples():
    # D = (alpha-1)N + alpha U + S: N keeps the number of parts, U merges
    # two parts into one and S splits one part into two, so each of the
    # three reads off D(p_mu) by the number of parts
    d_p2 = apply_D(psum_unit(P([2])))
    assert _with_length(d_p2, 1) == {P([2]): ALPHA - 1}
    assert _with_length(d_p2, 2) == {P([1, 1]): 1}
    d_p11 = apply_D(psum_unit(P([1, 1])))
    assert _with_length(d_p11, 2) == {}
    assert _with_length(d_p11, 1) == {P([2]): ALPHA}
    d_p31 = apply_D(psum_unit(P([3, 1])))
    assert _with_length(d_p31, 2) == {P([3, 1]): 3 * (ALPHA - 1)}
    assert _with_length(d_p31, 1) == {P([4]): 3 * ALPHA}
    assert _with_length(d_p31, 3) == {P([2, 1, 1]): 3}


def test_D_examples():
    assert apply_D(psum_unit(P([1]))).is_zero
    d_p2 = apply_D(psum_unit(P([2])))
    assert d_p2 == vec(2, _2=ALPHA - 1, _1_1=1)
    j2 = vec(2, _1_1=1, _2=ALPHA)
    assert apply_D(j2) == j2.scale(ALPHA)


def test_D_is_pinned():
    """sha256 of the JSON of D(p_mu), one line per mu of n <= 8."""
    digest = hashlib.sha256()
    for n in range(1, 9):
        for mu in generate_partitions(n):
            line = json.dumps(apply_D(psum_unit(mu)).to_json()) + "\n"
            digest.update(line.encode())
    assert digest.hexdigest() == (
        "21a4c291a0f8740c3c951d2cb92d3797294a75b62f9d693e6a4057029d44d2f1")


def test_D_matches_the_per_term_oracle_on_every_basis_vector():
    for n in range(1, 9):
        for mu in generate_partitions(n):
            v = psum_unit(mu)
            assert apply_D(v) == psum_oracle.apply_D(v), mu


def _random_vector(rng, n, coefficient):
    parts = generate_partitions(n)
    return PSumVector(n, {mu: AlphaPoly([coefficient() for _ in range(rng.randint(1, 4))])
                          for mu in rng.sample(parts, rng.randint(1, len(parts)))})


def test_D_matches_the_per_term_oracle_on_random_vectors():
    """Sums of terms, with small and with 13-digit coefficients."""
    rng = random.Random(20)
    draws = {"small": lambda: rng.randint(-9, 9),
             "wide": lambda: rng.randint(-10 ** 12, 10 ** 12)}
    for kind, coefficient in draws.items():
        for _ in range(60):
            v = _random_vector(rng, rng.randint(1, 8), coefficient)
            got = apply_D(v)
            assert got == psum_oracle.apply_D(v), (kind, v)
            assert all(type(c) is int
                       for p in got.terms.values() for c in p.coeffs), (kind, v)


def test_D_is_not_bounded_by_the_degree_bound():
    # the rows are cached per partition, not per degree, so apply_D reads
    # no degree bound
    for mu in (P([12]), P([5, 4, 3]), P([1] * 11)):
        v = psum_unit(mu)
        assert apply_D(v) == psum_oracle.apply_D(v), mu


def test_row_bound_is_the_largest_row_sum(monkeypatch):
    """A row of mu sums |A| + |B| to sum mu_i^2 + n(n-3)/2, and
    _row_bound(n) is the largest of them, reached at mu = (n)."""
    monkeypatch.setenv("JACKCC_MAX_N", "12")
    for n in range(1, 13):
        sums = {mu: sum(abs(A) + abs(B) for _, A, B in _D_row(mu))
                for mu in generate_partitions(n)}
        for mu, total in sums.items():
            assert total == sum(i * i for i in mu) + n * (n - 3) // 2, mu
        assert max(sums.values()) == sums[P([n])] == _row_bound(n), n


def test_Delta_matches_the_binomial_oracle_on_random_vectors():
    """The Horner order on packed integers against the binomial sum of
    PSumVectors, with small and with 13-digit coefficients, l in 0..5."""
    rng = random.Random(27)
    draws = {"small": lambda: rng.randint(-9, 9),
             "wide": lambda: rng.randint(-10 ** 12, 10 ** 12)}
    for kind, coefficient in draws.items():
        for l in range(6):
            for _ in range(6):
                v = _random_vector(rng, rng.randint(1, 6), coefficient)
                got = apply_alpha_Delta(l, v)
                assert got == psum_oracle.apply_alpha_Delta(l, v), (kind, l, v)
                assert all(type(c) is int
                           for p in got.terms.values() for c in p.coeffs), (kind, v)


def test_wide_coefficients_come_out_exact():
    """Coefficients of about 100 digits, of both signs, and the same
    scaled by a 51-digit integer, far wider than any tower stage at these
    degrees: the width follows the vector's norm, so D and the bracket
    stay exact."""
    rng = random.Random(100)

    def coefficient():
        return rng.choice((-1, 1)) * rng.randrange(10 ** 99, 10 ** 100)

    for n in (3, 5):
        v = _random_vector(rng, n, coefficient)
        assert apply_D(v) == psum_oracle.apply_D(v), n
        for l in (1, 3):
            assert apply_alpha_Delta(l, v) == psum_oracle.apply_alpha_Delta(l, v), (n, l)
        w = v.scale(7 * 10 ** 50 + 1)
        assert apply_alpha_Delta(2, w) == psum_oracle.apply_alpha_Delta(2, w), n


def test_Delta_is_not_bounded_by_the_degree_bound():
    # the width comes from a closed form in the degree, so
    # apply_alpha_Delta reads no degree bound either
    for mu in (P([12]), P([5, 4, 3]), P([1] * 12)):
        v = psum_unit(mu)
        assert apply_alpha_Delta(2, v) == psum_oracle.apply_alpha_Delta(2, v), mu


def test_degree_shifting_operators():
    assert multiply_p1(psum_unit(P([2]))) == vec(3, _2_1=1)


def _e2(v):
    """E2 = sum_k k p_{k+1} d/dp_k: each part k of mu grows to k+1."""
    out = {}
    for mu, c in v.terms.items():
        for k, m in mu.multiplicities().items():
            parts = list(mu)
            parts[parts.index(k)] = k + 1
            nu = P(parts)
            out[nu] = out.get(nu, 0) + c * (k * m)
    return PSumVector(v.degree + 1, out)


def test_E2_is_the_bracket_with_p1_over_alpha():
    assert _e2(psum_unit(P([2]))) == vec(3, _3=2)
    assert _e2(psum_unit(P([2, 1, 1]))) == vec(5, _3_1_1=2, _2_2_1=2)
    for n in range(1, 6):
        for mu in generate_partitions(n):
            v = psum_unit(mu)
            bracket = (apply_D(multiply_p1(v)) - multiply_p1(apply_D(v)))
            assert bracket == _e2(v).scale(ALPHA), mu


def test_Delta_base_and_small_cases():
    p1 = psum_unit(P([1]))
    assert apply_alpha_Delta(0, p1) == vec(2, _1_1=1)
    assert apply_alpha_Delta(1, p1) == vec(2, _2=ALPHA)
    assert apply_alpha_Delta(2, p1) == vec(2, _2=ALPHA * (ALPHA - 1), _1_1=ALPHA)
    with pytest.raises(ValueError):
        apply_alpha_Delta(-1, p1)


def test_Delta_commutator_consistency():
    for l in (1, 2, 3):
        for n in range(1, 6):
            for mu in generate_partitions(n):
                v = psum_unit(mu)
                lhs = apply_alpha_Delta(l, v)
                rhs = (apply_D(apply_alpha_Delta(l - 1, v))
                       - apply_alpha_Delta(l - 1, apply_D(v)))
                assert lhs == rhs, (l, mu)


def test_transition_examples():
    assert p_to_m(psum_unit(P([2]))) == {P([2]): 1}
    sq = p_to_m(vec(2, _1_1=1))
    assert sq == {P([2]): 1, P([1, 1]): 2}
    cube = p_to_m(psum_unit(P([1] * 4)))
    want = {lam: math.factorial(4) // math.prod(math.factorial(x) for x in lam)
            for lam in generate_partitions(4)}
    assert cube == want
    assert p_to_m(psum_unit(P([2, 1]))) == {P([3]): 1, P([2, 1]): 1}


def test_transition_triangularity_and_diagonal():
    from jackcc.partitions import leq_dominance
    for n in range(1, 7):
        matrix = transition_matrix(n)
        for mu, row in matrix.items():
            assert all(leq_dominance(mu, lam) for lam in row)
            mults = mu.multiplicities()
            assert row[mu] == math.prod(math.factorial(m) for m in mults.values())


def test_transition_is_pinned(monkeypatch):
    """sha256 of every nonzero entry of p -> m, one line each, n <= 10."""
    monkeypatch.setenv("JACKCC_MAX_N", "10")
    digest = hashlib.sha256()
    for n in range(1, 11):
        matrix = transition_matrix(n)
        for mu in generate_partitions(n):
            for lam in generate_partitions(n):
                entry = matrix[mu].get(lam, 0)
                if entry:
                    line = "%s %s %d\n" % (mu.to_text(), lam.to_text(), entry)
                    digest.update(line.encode())
    assert digest.hexdigest() == (
        "0eaca9de54c62d81ee552f44e5560862acb0e3d77c74657809a2f60f2792faa6")


def test_json_round_trip():
    v = vec(3, _2_1=ALPHA * 3 - 1, _3=2)
    blob = json.loads(json.dumps(v.to_json()))
    assert blob["degree"] == 3
    assert [t["mu"] for t in blob["terms"]] == ["3", "2,1"]
    assert blob["terms"][0]["coeff"] == {"num": [["2", "1"]], "den": [["1", "1"]]}
    assert PSumVector.from_json(blob) == v


def test_coefficients_with_a_denominator_are_refused():
    # 1/a, and 2/2, whose "den" is not the constant 1 either
    for den in ([["0", "1"], ["1", "1"]], [["2", "1"]]):
        blob = {"degree": 1, "terms": [
            {"mu": "1", "coeff": {"num": [["2", "1"]], "den": den}}]}
        with pytest.raises(NotPolynomial):
            PSumVector.from_json(blob)


def test_a_rational_coefficient_is_refused():
    # the numerator's coefficients are read from outside the program as
    # well: a pair [num, den] with den not 1 is no integer
    for num in ([["1", "2"]], [["3", "1"], ["-4", "6"]], [["2", "2"]]):
        blob = {"degree": 1, "terms": [
            {"mu": "1", "coeff": {"num": num, "den": [["1", "1"]]}}]}
        with pytest.raises(NotPolynomial, match="is not an integer"):
            PSumVector.from_json(blob)
