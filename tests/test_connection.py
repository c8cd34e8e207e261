import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest

import jackcc.algebra
import jackcc.connection
import jackcc.jack
import jackcc.psum
import psum_oracle
from algebra_oracle import reduced
from caches import cold
from connection_oracle import bracket as oracle_bracket
from connection_oracle import generator_properties as oracle_generator_properties
from connection_oracle import thm_rec_sides as oracle_thm_rec_sides
from jackcc.algebra import (
    ALPHA, ONE, AlphaPoly, RatFunc, _linear_product, _unpack, _width, substitute_beta,
)
from jackcc.connection import (
    a_cauchy, a_lr, a_nn_recurrence, generator_properties, pivot_values,
    thm_rec_sides, verify_i_independence, verify_thm_rec,
)
from jackcc.config import CACHES
from jackcc.errors import DegreeMismatch, EmptyPartition, NotPolynomial
from jackcc.jack import JackTable, jack_table
from jackcc.partitions import (
    Partition, down_k, down_kl, generate_partitions, hook_factors, hooks, up_k,
    z_aut_class,
)
from jackcc.psum import PSumVector, apply_alpha_Delta, psum_unit

P = Partition


def test_cauchy_hand_values():
    assert a_cauchy(P([2]), [P([2]), P([2])]) == RatFunc(ALPHA - 1)
    assert a_cauchy(P([1, 1]), [P([2]), P([2])]) == RatFunc(ALPHA)
    assert a_cauchy(P([3]), [P([3]), P([3])]) == RatFunc(
        2 * ALPHA ** 2 - 3 * ALPHA + 2)
    assert a_cauchy(P([1]), [P([1]), P([1])]) == RatFunc(1)


def test_cauchy_validates_weights():
    with pytest.raises(DegreeMismatch):
        a_cauchy(P([2]), [P([1])])
    with pytest.raises(DegreeMismatch):
        a_cauchy(P([2]), [])


def test_cauchy_specializations():
    value = a_cauchy(P([1, 1]), [P([2]), P([2])])
    assert value(1) == 1
    assert value(2) == 2


def test_recurrence_small_values():
    assert a_nn_recurrence(P([1])) == AlphaPoly(1)
    assert a_nn_recurrence(P([2])) == ALPHA - 1
    assert a_nn_recurrence(P([1, 1])) == ALPHA
    assert a_nn_recurrence(P([2, 1])) == 2 * ALPHA * (ALPHA - 1)
    assert a_nn_recurrence(P([3])) == 2 * ALPHA ** 2 - 3 * ALPHA + 2
    assert a_nn_recurrence(P([1, 1, 1])) == 2 * ALPHA ** 2
    assert a_nn_recurrence(P([5]))(1) == 8


def test_recurrence_agrees_with_cauchy():
    for n in range(1, 7):
        full = P([n])
        for lam in generate_partitions(n):
            assert a_cauchy(lam, [full, full]) == RatFunc(a_nn_recurrence(lam))


def test_beta_form_is_nonnegative_integer():
    for n in range(1, 8):
        for lam in generate_partitions(n):
            beta = substitute_beta(a_nn_recurrence(lam))
            assert beta.degree <= n - 1
            assert all(c >= 0 and c.denominator == 1 for c in beta.coeffs)
            assert beta.coeff(n - 1) == math.factorial(n - 1)


def test_i_independence():
    assert verify_i_independence(P([2, 1]))
    assert verify_i_independence(P([3, 2, 1]))
    for n in range(2, 8):
        for lam in generate_partitions(n):
            assert verify_i_independence(lam), lam


def test_bracket_matches_the_ring_oracle(monkeypatch):
    assert not hasattr(jackcc.connection, "ALPHA")
    monkeypatch.setenv("JACKCC_MAX_N", "9")
    a_nn = jackcc.connection._a_nn
    for n in range(2, 10):
        for lam in generate_partitions(n):
            for pos in range(len(lam)):
                got = jackcc.connection._bracket(lam, pos, a_nn)
                assert got == oracle_bracket(lam, pos, a_nn), (lam, pos)
                assert all(type(c) is int for c in got.coeffs), (lam, pos)


def test_bracket_sums_any_integer_coefficients():
    """A coefficient_of other than the recurrence's: about 20-digit
    coefficients of both signs, zero polynomials among them, drawn per
    partition.  The list sum equals the ring oracle and holds ints."""
    def coefficient_of(rho):
        rng = random.Random(rho.to_text())
        return AlphaPoly([rng.randrange(-10 ** 20, 10 ** 20)
                          for _ in range(rng.randint(0, 5))])

    for n in range(2, 8):
        for lam in generate_partitions(n):
            for pos in range(len(lam)):
                got = jackcc.connection._bracket(lam, pos, coefficient_of)
                assert got == oracle_bracket(lam, pos, coefficient_of), (lam, pos)
                assert all(type(c) is int for c in got.coeffs), (lam, pos)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_pivot_values_need_two_boxes(flags):
    """(1) and the empty partition have no bracket; the refusal is not an
    assert, so it holds under python -O as well."""
    probe = ("from jackcc.connection import pivot_values\n"
             "from jackcc.errors import EmptyPartition\n"
             "for parts in ([1], []):\n"
             "    try:\n"
             "        pivot_values(parts)\n"
             "    except EmptyPartition as exc:\n"
             "        print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jackcc.connection.__file__)))
    done = subprocess.run([sys.executable, *flags, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("the bracket needs two boxes, got 1\n"
                           "the bracket needs two boxes, got 0\n")
    assert verify_i_independence(P([1]))
    with pytest.raises(EmptyPartition):
        verify_i_independence(P([]))


def test_thm_rec_hand_case():
    lhs = a_cauchy(P([2]), [P([2]), P([2])]) * 2
    assert lhs == RatFunc(2 * (ALPHA - 1))
    assert thm_rec_sides(P([2]), P([1])) == (2 * (ALPHA - 1), 2 * (ALPHA - 1))
    assert verify_thm_rec(P([2]), P([1])) is True


def test_thm_rec_sweep():
    for n in range(1, 5):
        for lam in generate_partitions(n + 1):
            for nu in generate_partitions(n):
                assert verify_thm_rec(lam, nu), (lam, nu)
    with pytest.raises(DegreeMismatch):
        verify_thm_rec(P([2]), P([2]))


def test_thm_rec_sides_match_the_all_positions_oracle():
    """Bracketing each distinct part of lam once, weighted by part times
    multiplicity, gives both sides of the all-positions sum, for every
    (lam, nu) of n <= 7."""
    pairs = 0
    for n in range(1, 8):
        for lam in generate_partitions(n + 1):
            for nu in generate_partitions(n):
                assert thm_rec_sides(lam, nu) == oracle_thm_rec_sides(lam, nu), (lam, nu)
                pairs += 1
    assert pairs == 630


def _remark_identities(mu):
    """The three consequences of the recurrence for appended small parts."""
    n = mu.n + 1
    checks = []

    grown = Partition(tuple(mu) + (1,))
    checks.append(a_nn_recurrence(grown) == a_nn_recurrence(mu) * (ALPHA * (n - 1)))

    ones = mu.count(1)
    core = Partition([p for p in mu if p > 1])
    if ones and core:
        m, total = ones, mu.n
        scale = ALPHA ** m
        for t in range(total - m, total):
            scale = scale * t
        checks.append(a_nn_recurrence(mu) == a_nn_recurrence(core) * scale)
    elif ones:
        k = mu.n
        scale = ALPHA ** (k - 1)
        for t in range(1, k):
            scale = scale * t
        checks.append(a_nn_recurrence(mu) == scale)

    grown2 = Partition(tuple(mu) + (2,))
    rhs = a_nn_recurrence(mu) * (ALPHA * (ALPHA - 1) * mu.n)
    for part in mu:
        rhs = rhs + a_nn_recurrence(up_k(mu, part)) * (ALPHA * part)
    checks.append(a_nn_recurrence(grown2) == rhs)
    return all(checks)


def test_remark_identities():
    assert a_nn_recurrence(P([2, 1])) == ALPHA * 2 * a_nn_recurrence(P([2]))
    assert a_nn_recurrence(P([1, 1])) == ALPHA * 1 * a_nn_recurrence(P([1]))
    lhs = a_nn_recurrence(P([2, 2]))
    rhs = (ALPHA * (ALPHA - 1) * 2 * a_nn_recurrence(P([2]))
           + ALPHA * 2 * a_nn_recurrence(P([3])))
    assert lhs == rhs
    for n in range(1, 7):
        for mu in generate_partitions(n):
            assert _remark_identities(mu), mu


def test_lr_route_matches_recurrence():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            assert a_lr(lam, 2, 0) == RatFunc(a_nn_recurrence(lam)), lam


def test_three_routes_agree_at_degree_8():
    full = P([8])
    for lam in generate_partitions(8):
        want = RatFunc(a_nn_recurrence(lam))
        assert a_cauchy(lam, [full, full]) == want, lam
        assert a_lr(lam, 2, 0) == want, lam


def test_three_routes_agree_at_degree_10(monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", "10")
    full = P([10])
    for lam in generate_partitions(10):
        want = RatFunc(a_nn_recurrence(lam))
        assert a_cauchy(lam, [full, full]) == want, lam
        assert a_lr(lam, 2, 0) == want, lam


def test_cauchy_route_matches_the_tower_with_near_cycles():
    """a_lr(lam, l, r) reads the coefficient on l full cycles (n) and r
    near-cycles (2, 1^(n-2)); the Cauchy sum over those indices is the
    same value, reduced through the packed quotient instead of the tower's
    per-partition D rows."""
    for n in range(2, 8):
        full, near = P([n]), P([2] + [1] * (n - 2))
        for lam in generate_partitions(n):
            for l in range(5):
                for r in range(3):
                    if l + r >= 2:
                        want = a_lr(lam, l, r)
                        got = a_cauchy(lam, [full] * l + [near] * r)
                        assert got == want, (lam, l, r)


def test_cauchy_cofactors_are_integer_polynomials():
    for n in range(0, 9):
        factors, scale, cofactors, _ = jackcc.connection._cauchy_cofactors(n)
        assert all(q >= 1 and math.gcd(p, q) == 1 for p, q in factors), n
        common = AlphaPoly(scale)
        for (p, q), m in factors.items():
            common = common * AlphaPoly((p, q)) ** m
        polys = [common, *cofactors.values()]
        assert all(type(c) is int for p in polys for c in p.coeffs), n
        for gamma, cofactor in cofactors.items():
            assert hooks(gamma)[2] * cofactor == common, gamma


def test_D_tower_depth_is_not_bounded_by_the_stack():
    assert a_lr(P([1]), 2, 1200).is_zero


def test_routes_that_need_a_box_reject_the_empty_partition():
    assert a_cauchy(P([]), [P([]), P([])]) == RatFunc(1)
    with pytest.raises(EmptyPartition):
        a_nn_recurrence(P([]))
    with pytest.raises(EmptyPartition):
        a_lr(P([]), 2, 0)
    with pytest.raises(EmptyPartition):
        verify_thm_rec(P([1]), P([]))


def test_tower_counts_minimal_factorizations_of_a_cycle(monkeypatch):
    # Denes (1959): an n-cycle is a product of n-1 transpositions in n^(n-2)
    # ways; times the (n-1)! n-cycles and alpha^(n-1) this is the tower
    # coefficient, reached through n-1 stages of D and no Jack table
    monkeypatch.setenv("JACKCC_MAX_N", "10")
    assert a_lr(P([1]), 1, 0) == RatFunc(1)
    for n in range(2, 11):
        want = math.factorial(n - 1) * n ** (n - 2) * ALPHA ** (n - 1)
        assert a_lr(P([1] * n), 1, n - 1) == RatFunc(want), n


def test_lr_degenerate_l1():
    for n in range(2, 6):
        assert a_lr(P([1] * n), 1, 0).is_zero


def test_tower_stages_match_the_binomial_oracle():
    """Every stage _tower_with_D(l, r, n), l <= 5, r <= 3, n <= 9, equals
    the stage grown by the oracle's binomial sum and per-term D."""
    for l in range(6):
        stage = psum_unit(P([1]))
        for n in range(1, 10):
            if n > 1:
                stage = psum_oracle.apply_alpha_Delta(l, stage)
            with_D = stage
            for r in range(4):
                assert jackcc.connection._tower_with_D(l, r, n) == with_D, (l, r, n)
                with_D = psum_oracle.apply_D(with_D)


def test_gamma_tower():
    # the tower grown from p_1/alpha, times n! alpha^n at degree n, so that
    # every stage stays an integer vector; the normalized tower is this
    # over n!.  Each stage is apply_alpha_Delta over its new degree
    g1 = psum_unit(P([1]))
    assert apply_alpha_Delta(1, g1) == PSumVector(2, {P([2]): ALPHA})
    g2 = apply_alpha_Delta(2, g1)
    want = PSumVector(2, {P([2]): ALPHA * (ALPHA - 1), P([1, 1]): ALPHA})
    assert g2 == want
    g3 = apply_alpha_Delta(2, g2)
    readout = g3.coeff(P([3]))
    z = z_aut_class(P([3]))[0]
    assert readout * z * ALPHA == a_nn_recurrence(P([3])) * ALPHA ** 3 * 6


def test_generator_properties_examples():
    assert generator_properties(P([3]), 2, 0)
    assert generator_properties(P([2, 1]), 2, 0)
    assert generator_properties(P([1, 1, 1]), 2, 0)
    assert a_lr(P([3]), 2, 0) * 2 == 4 * ALPHA ** 2 - 6 * ALPHA + 4


def test_generator_properties_sweep_small():
    for lam in generate_partitions(4):
        assert generator_properties(lam, 2, 1), lam
    for lam in generate_partitions(3):
        for l in (2, 3):
            for r in (0, 1, 2):
                assert generator_properties(lam, l, r), (lam, l, r)


def test_generator_properties_matches_the_ratfunc_oracle():
    """The verdict read off the tower's coefficient list equals the one of
    a_lr times the class size as an AlphaPoly, for every lam of n <= 7,
    l in 0..4 and r in 0..3."""
    cases = [(lam, l, r) for n in range(1, 8) for lam in generate_partitions(n)
             for l in range(5) for r in range(4)]
    verdicts = [generator_properties(*case) for case in cases]
    assert verdicts == [oracle_generator_properties(*case) for case in cases]
    assert (len(verdicts), verdicts.count(False)) == (880, 158)


def test_connection_checks_the_degree_once_per_call(monkeypatch):
    """Each public route checks the bound once, not once per coefficient
    it reads; a second, warm call checks it once as well."""
    calls = []
    check = jackcc.connection.check_degree
    monkeypatch.setattr(jackcc.connection, "check_degree",
                        lambda n: calls.append(n) or check(n))
    for call, args in ((verify_thm_rec, (P([3, 2, 1]), P([2, 2, 1]))),
                       (pivot_values, (P([3, 2, 1]),)),
                       (generator_properties, (P([3, 1, 1]), 3, 2))):
        for _ in range(2):
            calls.clear()
            call(*args)
            assert len(calls) == 1, call.__name__


def test_thm_rec_reads_the_entries_a_cauchy_reads():
    """After the identity, a_cauchy on its coefficients, with the indices
    in another order and as lists, hits the cache and adds no entry."""
    lam, nu = P([3, 2, 1]), P([2, 2, 1])
    assert verify_thm_rec(lam, nu)
    info = CACHES["connection._cauchy_cached"].cache_info
    before = info()
    queries = [(lam, [up_k(nu, 2), P([6])]), (lam, [up_k(nu, 1), P([6])]),
               (down_k(lam, 3), [nu, P([5])]), (down_kl(lam, 3, 1), [nu, P([5])])]
    for lam1, others in queries:
        a_cauchy(list(reversed(lam1)), [list(reversed(p)) for p in others])
    after = info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + len(queries)


def _integer_polynomial(value):
    return type(value) is AlphaPoly and all(type(c) is int for c in value.coeffs)


def test_every_route_value_is_an_integer_polynomial():
    """The census: every value of the Cauchy route with one to three other
    indices at n <= 6 and two at n = 7, and of the tower for l in 0..5,
    r in 0..4, n <= 8, is an AlphaPoly with int coefficients."""
    for n in range(1, 8):
        parts = generate_partitions(n)
        for k in ((2,) if n == 7 else (1, 2, 3)):
            for others in itertools.combinations_with_replacement(parts, k):
                for lam in parts:
                    value = a_cauchy(lam, others)
                    assert _integer_polynomial(value), (lam, others)
    for n in range(1, 9):
        for lam in generate_partitions(n):
            for l in range(6):
                for r in range(5):
                    assert _integer_polynomial(a_lr(lam, l, r)), (lam, l, r)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_route_values_are_pinned():
    """sha256 of the canonical text of both routes, recorded from the
    per-gamma RatFunc Cauchy sum and the tower grown from p_1/alpha."""
    cauchy = []
    for n in range(1, 6):
        parts = generate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    cauchy.append("%s|%s|%s|%s" % (
                        lam.to_text(), mu.to_text(), nu.to_text(),
                        a_cauchy(lam, [mu, nu]).to_text()))
    assert _digest(cauchy) == (
        "225c6bd3e375609ae0a38cc3e17d588d9b5eeb9865701c695fb94dcea7688ed2")
    tower = []
    for l in (2, 3):
        for r in (0, 1, 2):
            for n in range(1, 8):
                for lam in generate_partitions(n):
                    tower.append("%d|%d|%s|%s" % (
                        l, r, lam.to_text(), a_lr(lam, l, r).to_text()))
    assert _digest(tower) == (
        "10b0a786c96ea51c59e47ce2392e8b2ef1129024fb18a36d7788351c2b693acb")


def test_every_triple_of_degrees_six_and_seven_is_pinned():
    """sha256 of the Cauchy value of every (lam, mu, nu) of degree 6 and 7,
    recorded from the coefficient-list sum before it was packed."""
    lines = []
    for n in (6, 7):
        parts = generate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    lines.append("%s|%s|%s|%s" % (
                        lam.to_text(), mu.to_text(), nu.to_text(),
                        a_cauchy(lam, [mu, nu]).to_text()))
    assert len(lines) == 11 ** 3 + 15 ** 3
    assert _digest(lines) == (
        "8377fba001e565b661d7fcf07c68b60c09129e2a5ff73885a01e63fd97709d21")


@lru_cache(maxsize=None)
def _hook_products(n):
    """The product of every j_gamma of n, and per gamma the product of the
    others, so sum x_gamma / j_gamma = sum x_gamma * others_gamma / product."""
    js = {gamma: hooks(gamma)[2] for gamma in generate_partitions(n)}
    product = math.prod(js.values(), start=ONE)
    others = {gamma: math.prod((j for g, j in js.items() if g != gamma), start=ONE)
              for gamma in js}
    return product, others


def _per_gamma_cauchy(lam1, others, table=None):
    """The Cauchy sum as an unreduced pair (num, den), den the product of
    every j_gamma; no reduction code of the package runs."""
    n = lam1.n
    table = table or jack_table(n)
    den, cofactors = _hook_products(n)
    num = AlphaPoly()
    for gamma in generate_partitions(n):
        product = table.theta(gamma, lam1)
        for other in others:
            product = product * table.theta(gamma, other)
        num = num + product * cofactors[gamma]
    z = z_aut_class(lam1)[0]
    return num * AlphaPoly((0,) * len(lam1) + (z,)), den


def _equals_pair(got, want):
    """got equals the pair want = (num, den), by cross multiplication."""
    num, den = want
    return got * den == num


def test_cauchy_matches_per_gamma_oracle():
    for n in range(1, 7):
        parts = generate_partitions(n)
        for lam in parts:
            for mu in parts:
                want = _per_gamma_cauchy(lam, (P([n]), mu))
                assert _equals_pair(a_cauchy(lam, [P([n]), mu]), want), (lam, mu)
    for n in range(1, 5):
        parts = generate_partitions(n)
        for lam in parts:
            for mu in parts:
                want = _per_gamma_cauchy(lam, (mu,))
                assert _equals_pair(a_cauchy(lam, [mu]), want), (lam, mu)
            for others in itertools.combinations_with_replacement(parts, 3):
                want = _per_gamma_cauchy(lam, others)
                assert _equals_pair(a_cauchy(lam, others), want), (lam, others)


def test_cold_cauchy_clears_every_cauchy_cache():
    """cold("connection._cauchy") empties every cache of the Cauchy route."""
    assert {"connection._cauchy_cofactors", "connection._cauchy_packed",
            "connection._cauchy_weights", "connection._cauchy_cached"} == {
        name for name in CACHES if name.startswith("connection._cauchy")}


def _theta_norm(theta):
    return sum(map(abs, theta.coeffs))


@cold("connection._cauchy")
def test_cauchy_width_is_proven_per_degree_and_index_count():
    """B is the width of sum_gamma |D/j_gamma|_1 T_gamma^k, T_gamma the
    largest |theta_gamma|_1 of gamma's row, and never wider than the width
    of T^k sum_gamma |D/j_gamma|_1 for the table's largest |theta|_1 T."""
    for n in range(0, 8):
        rows = jack_table(n).rows
        cofactors = jackcc.connection._cauchy_cofactors(n)[2]
        sizes = {gamma: _theta_norm(c) for gamma, c in cofactors.items()}
        row_norms = {gamma: max(map(_theta_norm, rows[gamma].terms.values()))
                     for gamma in cofactors}
        T = max(row_norms.values())
        for k in range(1, 5):
            B = jackcc.connection._cauchy_packed(n, k)[0]
            assert B == _width(sum(sizes[g] * row_norms[g] ** k for g in sizes)), (n, k)
            assert B <= _width(T ** k * sum(sizes.values())), (n, k)


@cold("connection._cauchy")
def test_cauchy_sum_fits_the_packing_width():
    """For every lam1 and others, k indices in all, n <= 6 and k <= 4, the
    sum over gamma of D/j_gamma times the k characters, formed as AlphaPoly
    products, has every coefficient below 2^(B-1), and the packed sum
    unpacks to it.  The sum is symmetric in its k indices, so each
    multiset of indices is formed once."""
    connection = jackcc.connection
    for n in range(1, 7):
        parts = generate_partitions(n)
        table = jack_table(n)
        cofactors = connection._cauchy_cofactors(n)[2]

        @lru_cache(maxsize=None)
        def product(gamma, indices):
            if not indices:
                return cofactors[gamma]
            return product(gamma, indices[:-1]) * table.theta(gamma, indices[-1])

        for k in range(2, 5):
            B, _, columns = connection._cauchy_packed(n, k)
            for indices in itertools.combinations_with_replacement(parts, k):
                want = AlphaPoly()
                for gamma in parts:
                    want = want + product(gamma, indices)
                assert all(abs(c) < 1 << (B - 1) for c in want.coeffs), indices
                lam1, others = indices[0], tuple(sorted(indices[1:], reverse=True))
                weights = connection._cauchy_weights(others)
                total = sum(c * w for c, w in zip(columns[lam1], weights))
                assert tuple(_unpack(total, B)) == want.coeffs, indices


@cold("connection._cauchy")
def test_cold_cauchy_makes_no_ring_product_and_packs_once(monkeypatch):
    """A cold a_cauchy(lam, [(n), (n)]) over every lam of n <= 7 makes no
    AlphaPoly product, and packs each cofactor and each character of the
    table once for the degree, not once per weight."""
    for n in range(1, 8):
        jack_table(n)
    products, packed = [], []
    mul, pack = AlphaPoly.__mul__, jackcc.connection._pack

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    def counting_pack(cs, B):
        packed.append(B)
        return pack(cs, B)

    monkeypatch.setattr(AlphaPoly, "__mul__", counting_mul)
    monkeypatch.setattr(AlphaPoly, "__rmul__", counting_mul)
    monkeypatch.setattr(jackcc.connection, "_pack", counting_pack)
    for n in range(1, 8):
        packed.clear()
        full = P([n])
        for lam in generate_partitions(n):
            a_cauchy(lam, [full, full])
        rows = jack_table(n).rows.values()
        assert len(packed) == sum(1 + len(row.terms) for row in rows), n
        assert not products, n


def test_cauchy_skips_a_vanishing_character(monkeypatch):
    """No character vanishes for n <= 7, so one is removed from a copy of
    the degree-4 table; a value that stops being an integer polynomial, by
    the oracle's gcd, raises NotPolynomial, and every other one is exact.
    A second copy adds j_(3,1)/4, the linear part of j_(3,1), to
    theta_(3,1)((3,1)): no denominator is left, but some values then have
    a rational coefficient, and those are refused as well."""
    table = jack_table(4)
    gamma, gone = P([2, 2]), P([3, 1])
    vanished = dict(table.rows)
    vanished[gamma] = PSumVector(4, {mu: c for mu, c in table.rows[gamma].terms.items()
                                     if mu != gone})
    raised = dict(table.rows)
    linear = AlphaPoly(_linear_product(tuple(hook_factors(gone)[1].items())))
    raised[gone] = table.rows[gone] + PSumVector(4, {gone: linear})
    parts = generate_partitions(4)
    refused = set()
    for rows in (vanished, raised):
        patched = JackTable(4, rows)
        with cold("connection._cauchy"), monkeypatch.context() as patch:
            patch.setattr(jackcc.connection, "jack_table", lambda n: patched)
            for lam in parts:
                for others in ((gone,), (P([4]), gone), (gone, gone, P([2, 1, 1]))):
                    want = _per_gamma_cauchy(lam, others, patched)
                    num, den = reduced(*(p.coeffs for p in want))
                    if den != (1,) or any(c.denominator != 1 for c in num):
                        refused.add("denominator" if den != (1,) else "rational")
                        with pytest.raises(NotPolynomial):
                            a_cauchy(lam, others)
                        continue
                    assert _equals_pair(a_cauchy(lam, others), want), (lam, others)
    assert refused == {"denominator", "rational"}


@cold("connection._cauchy")
def test_cauchy_runs_no_euclid():
    # the package keeps no Euclid to call: no gcd and no general division
    assert not hasattr(jackcc.algebra, "poly_gcd")
    for name in ("__divmod__", "__floordiv__", "__mod__", "__truediv__",
                 "exact_div", "monic"):
        assert not hasattr(AlphaPoly, name), name
    for n in range(1, 7):
        parts = generate_partitions(n)
        for lam in parts:
            for mu in parts:
                a_cauchy(lam, [P([n]), mu])


@cold()
def test_jack_tables_and_towers_build_no_rational_functions(monkeypatch):
    """Characters and tower stages are polynomials end to end: a cold
    jack_table divides no quotient, and a_lr divides one, its readout,
    through the shared quotient, even when it grows the tower."""
    divided = []
    quotient = jackcc.connection._quotient

    def counting_quotient(*args):
        divided.append(args)
        return quotient(*args)

    monkeypatch.setattr(jackcc.connection, "_quotient", counting_quotient)
    jack_table(6)
    assert not divided
    for lam in generate_partitions(6):
        divided.clear()
        a_lr(lam, 2, 0)
        assert len(divided) == 1, lam
