import json
import math
import random
from fractions import Fraction

import pytest

from jackcc.algebra import ALPHA, RatFunc
from jackcc.errors import DegreeMismatch, NotPolynomial
from jackcc.partitions import Partition, generate_partitions, z_aut_class
from jackcc.psum import (
    MonomialVector, PSumVector, apply_D, apply_DE2_commutator, apply_alpha_Delta,
    apply_E2, apply_E2perp, apply_N, apply_p1perp, apply_S, apply_U,
    m_to_p, multiply_p1, p_to_m, psum_unit, transition_matrix,
)

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


def test_single_operator_examples():
    p2 = psum_unit(P([2]))
    p11 = psum_unit(P([1, 1]))
    assert apply_N(p2) == p2
    assert apply_N(p11).is_zero
    assert apply_U(p11) == p2
    assert apply_U(p2).is_zero
    assert apply_S(p2) == p11
    assert apply_S(p11).is_zero


def test_D_examples():
    assert apply_D(psum_unit(P([1]))).is_zero
    d_p2 = apply_D(psum_unit(P([2])))
    assert d_p2 == vec(2, _2=ALPHA - 1, _1_1=1)
    j2 = vec(2, _1_1=1, _2=ALPHA)
    assert apply_D(j2) == j2.scale(ALPHA)


def test_degree_shifting_operators():
    assert apply_E2(psum_unit(P([2]))) == vec(3, _3=2)
    assert apply_E2perp(psum_unit(P([3]))) == vec(2, _2=3)
    assert apply_p1perp(psum_unit(P([1, 1]))) == vec(1, _1=2 * ALPHA)
    assert multiply_p1(psum_unit(P([2]))) == vec(3, _2_1=1)
    assert apply_p1perp(psum_unit(P([2]))).is_zero


def test_E2_is_the_bracket_with_p1_over_alpha():
    for mu in generate_partitions(2) + generate_partitions(3):
        v = psum_unit(mu)
        bracket = (apply_D(multiply_p1(v)) - multiply_p1(apply_D(v)))
        assert bracket == apply_E2(v).scale(ALPHA)


def test_commutator_closed_form_examples():
    got = apply_DE2_commutator(psum_unit(P([1])))
    assert got == vec(2, _2=ALPHA - 1, _1_1=1)
    for mu, c in got.terms.items():
        if mu == P([2]):
            assert c(1) == 0


def test_commutator_matches_composition():
    for n in range(1, 7):
        for mu in generate_partitions(n):
            v = psum_unit(mu)
            oracle = apply_D(apply_E2(v)) - apply_E2(apply_D(v))
            assert apply_DE2_commutator(v) == oracle, mu


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


def _pairing(u, v):
    total = RatFunc(0)
    for mu, c in u.terms.items():
        other = v.terms.get(mu)
        if other is not None:
            z = z_aut_class(mu)[0]
            total = total + c * other * RatFunc(z * ALPHA ** len(mu))
    return total


def test_p1_adjunction():
    for n in range(1, 6):
        for lam in generate_partitions(n):
            for mu in generate_partitions(n + 1):
                u, v = psum_unit(lam), psum_unit(mu)
                assert _pairing(multiply_p1(u), v) == _pairing(u, apply_p1perp(v))


def test_transition_examples():
    assert p_to_m(psum_unit(P([2]))) == MonomialVector(2, {P([2]): 1})
    sq = p_to_m(vec(2, _1_1=1))
    assert sq == MonomialVector(2, {P([2]): 1, P([1, 1]): 2})
    cube = p_to_m(psum_unit(P([1] * 4)))
    want = {lam: math.factorial(4) // math.prod(math.factorial(x) for x in lam)
            for lam in generate_partitions(4)}
    assert cube == MonomialVector(4, want)
    assert p_to_m(psum_unit(P([2, 1]))) == MonomialVector(
        3, {P([3]): 1, P([2, 1]): 1})


def test_transition_triangularity_and_diagonal():
    from jackcc.partitions import leq_dominance
    for n in range(1, 7):
        matrix = transition_matrix(n)
        for mu, row in matrix.items():
            assert all(leq_dominance(mu, lam) for lam in row)
            mults = mu.multiplicities()
            assert row[mu] == math.prod(math.factorial(m) for m in mults.values())


def test_round_trip_random_vectors():
    rng = random.Random(411)
    for n in range(1, 8):
        parts = generate_partitions(n)
        v = PSumVector(n, {mu: rng.randint(-9, 9) for mu in parts})
        assert m_to_p(p_to_m(v)) == v
        w = MonomialVector(n, {mu: rng.randint(-9, 9) for mu in parts})
        assert p_to_m(m_to_p(w)) == w


def test_json_round_trip():
    v = vec(3, _2_1=ALPHA * Fraction(1, 2) - 1, _3=2)
    blob = json.loads(json.dumps(v.to_json()))
    assert blob["degree"] == 3
    assert [t["mu"] for t in blob["terms"]] == ["3", "2,1"]
    assert blob["terms"][0]["coeff"] == {"num": [["2", "1"]], "den": [["1", "1"]]}
    assert PSumVector.from_json(blob) == v


def test_coefficients_with_a_denominator_are_refused():
    blob = vec(1, _1=1).to_json()
    blob["terms"][0]["coeff"] = RatFunc(1, ALPHA).to_json()
    with pytest.raises(NotPolynomial):
        PSumVector.from_json(blob)
    with pytest.raises(NotPolynomial):
        psum_unit(P([2])).scale(RatFunc(1, ALPHA))
