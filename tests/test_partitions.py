import math
import re
from fractions import Fraction

import pytest

from jackcc.algebra import ALPHA, AlphaPoly
from jackcc.connection import a_nn_recurrence, verify_i_independence
from jackcc.errors import DegreeMismatch, DegreeTooLarge, MissingPart, NegativeOrder
from jackcc.matchings import (
    bipartite_count, good_count, good_matchings, weight, weight_distribution,
)
from jackcc.partitions import (
    Partition, down_k, down_kl, eigenvalue, generate_partitions, hook_factors,
    hooks, leq_dominance, theta_top, up_k, up_kl, z_aut_class,
)


def test_constructor_sorts_and_validates():
    assert Partition([1, 3, 2]) == (3, 2, 1)
    assert Partition().n == 0
    assert Partition([4, 4]).n == 8
    with pytest.raises(MissingPart):
        Partition([2, 0])
    with pytest.raises(MissingPart):
        Partition([-1])
    for part in (2.7, True, "3", Fraction(2), None):
        with pytest.raises(MissingPart, match=re.escape("part %r is not" % (part,))):
            Partition([part, 1])
    with pytest.raises(MissingPart, match="part 2.9 is not"):
        a_nn_recurrence((2.9, 1))


def test_text_round_trip():
    assert Partition.from_text("3,1") == (3, 1)
    assert Partition.from_text("-") == ()
    assert Partition([3, 1]).to_text() == "3,1"
    assert Partition().to_text() == "-"


def test_generate_order_and_counts():
    assert generate_partitions(0) == (Partition(),)
    assert [tuple(p) for p in generate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(generate_partitions(7)) == 15
    assert len(generate_partitions(8)) == 22


def test_generate_rejects_bad_weights(monkeypatch):
    with pytest.raises(NegativeOrder):
        generate_partitions(-1)
    monkeypatch.setenv("JACKCC_MAX_N", "4")
    with pytest.raises(DegreeTooLarge):
        generate_partitions(41)


@pytest.mark.parametrize("entry", [
    generate_partitions, good_matchings, good_count, weight_distribution,
    a_nn_recurrence, bipartite_count, verify_i_independence, weight,
], ids=lambda fn: fn.__name__)
def test_warm_cache_still_enforces_the_bound(entry, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    lam = Partition([5])
    args = {generate_partitions: (5,),
            weight: (lam, good_matchings(lam)[-1])}.get(entry, (lam,))
    entry(*args)
    monkeypatch.setenv("JACKCC_MAX_N", "4")
    with pytest.raises(DegreeTooLarge):
        entry(*args)


def test_class_sizes_partition_the_group():
    for n in range(1, 8):
        total = sum(z_aut_class(lam)[2] for lam in generate_partitions(n))
        assert total == math.factorial(n)


def test_z_aut_class_examples():
    assert z_aut_class(Partition([1])) == (1, 1, 1)
    assert z_aut_class(Partition([3, 2, 2, 1])) == (24, 2, 1680)
    assert z_aut_class(Partition([2, 2])) == (8, 2, 3)
    # a list or tuple, in any order, gives the values of its partition
    assert z_aut_class([2, 3, 1, 2]) == z_aut_class((3, 2, 2, 1)) == (24, 2, 1680)
    assert z_aut_class([]) == (1, 1, 1)


def test_modify_examples():
    assert down_kl(Partition([3, 2]), 3, 2) == (4,)
    assert up_kl(Partition([4]), 1, 2) == (2, 1)
    assert down_k(Partition([2, 1]), 1) == (2,)
    assert up_k(Partition([2, 1]), 2) == (3, 1)


def test_modify_missing_parts():
    with pytest.raises(MissingPart):
        down_k(Partition([3, 1]), 2)
    with pytest.raises(MissingPart):
        down_kl(Partition([2, 1]), 2, 2)
    with pytest.raises(MissingPart):
        up_kl(Partition([3]), 1, 3)
    with pytest.raises(MissingPart):
        up_kl(Partition([3]), 0, 2)
    with pytest.raises(MissingPart):
        up_kl(Partition([3]), 3, -1)


def test_modify_weight_changes():
    for lam in generate_partitions(6):
        n = lam.n
        for k in set(lam):
            assert down_k(lam, k).n == n - 1
            assert up_k(lam, k).n == n + 1
            if k >= 2:
                assert up_k(down_k(lam, k), k - 1) == lam
            for a in range(1, k - 1):
                assert up_kl(lam, a, k - 1 - a).n == n - 1
        for k in set(lam):
            for l in set(lam):
                if k == l and lam.count(k) < 2:
                    continue
                assert down_kl(lam, k, l).n == n - 1


def test_moves_from_a_partition_equal_the_checked_constructor(monkeypatch):
    """From a Partition the moves skip Partition's checks; every result
    equals the same move on a plain list, which goes through them."""
    monkeypatch.setenv("JACKCC_MAX_N", "10")
    for n in range(1, 11):
        for lam in generate_partitions(n):
            parts = set(lam)
            moves = [(down_k, (k,)) for k in parts] + [(up_k, (k,)) for k in parts]
            moves += [(up_kl, (a, k - 1 - a)) for k in parts for a in range(1, k - 1)]
            moves += [(down_kl, (k, l)) for k in parts for l in parts
                      if k != l or lam.count(k) > 1]
            for move, args in moves:
                fast = move(lam, *args)
                assert type(fast) is Partition
                assert fast == move(list(lam), *args) == Partition(list(fast))
    bad = ((down_k, [3, 1.5], (3,)), (up_k, [2, 0], (2,)),
           (down_kl, [2, 2, -1], (2, 2)), (up_kl, [4, 0.5], (1, 2)),
           (up_k, Partition([2, 1]), (2.0,)), (down_kl, Partition([2, 1]), (2.0, 1)))
    for move, lam, args in bad:
        with pytest.raises(MissingPart):
            move(lam, *args)


def test_hooks_examples():
    h, h2, j = hooks(Partition([1]))
    assert (h, h2, j) == (AlphaPoly(1), ALPHA, ALPHA)
    h, h2, j = hooks(Partition([2]))
    assert h == ALPHA + 1
    assert h2 == 2 * ALPHA ** 2
    assert j == 2 * ALPHA ** 2 * (ALPHA + 1)
    h, h2, j = hooks(Partition([1, 1]))
    assert h == AlphaPoly(2)
    assert h2 == ALPHA * (ALPHA + 1)
    assert j == 2 * ALPHA * (ALPHA + 1)


def test_hook_degrees_and_specialization():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            h, h2, j = hooks(lam)
            assert h2.degree == n
            assert j == h * h2
            assert j.coeffs[-1] > 0
            assert all(c >= 0 for c in h.coeffs)
            assert all(c >= 0 for c in h2.coeffs)
            hook_product = 1
            for b in lam.boxes():
                hook_product *= b.arm + b.leg + 1
            assert j(1) == hook_product ** 2


def _hooks_as_products(lam):
    """(h, h', j) as AlphaPoly products, two per box."""
    h = AlphaPoly(1)
    h2 = AlphaPoly(1)
    for box in Partition(lam).boxes():
        h = h * AlphaPoly((box.leg + 1, box.arm))
        h2 = h2 * AlphaPoly((box.leg, box.arm + 1))
    return h, h2, h * h2


def test_hooks_match_the_product_form(monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", "10")
    for n in range(0, 11):
        for lam in generate_partitions(n):
            got = hooks(lam)
            assert [p.coeffs for p in got] == [
                p.coeffs for p in _hooks_as_products(lam)], lam
            assert all(type(c) is int for p in got for c in p.coeffs)


def test_hook_factors_multiply_to_j():
    # j_(2) = 2 a^2 (a + 1); j_(2,1) = a^2 (a + 2) (2a + 1)
    assert hook_factors(Partition([2])) == (2, {(0, 1): 2, (1, 1): 1})
    assert hook_factors(Partition([2, 1])) == (
        1, {(0, 1): 2, (2, 1): 1, (1, 2): 1})
    for n in range(0, 8):
        for lam in generate_partitions(n):
            const, factors = hook_factors(lam)
            assert type(const) is int and const > 0, lam
            product = AlphaPoly(const)
            for (p, q), m in factors.items():
                assert type(p) is int and type(q) is int, lam
                assert q >= 1 and math.gcd(p, q) == 1, lam
                product = product * AlphaPoly((p, q)) ** m
            assert product == hooks(lam)[2], lam


def test_eigenvalue_examples():
    assert eigenvalue(Partition([2])) == ALPHA
    assert eigenvalue(Partition([1, 1])) == AlphaPoly(-1)
    collision = eigenvalue(Partition([2, 2, 2]))
    assert collision == 3 * ALPHA - 6
    assert eigenvalue(Partition([3, 1, 1, 1])) == collision


def test_eigenvalue_matches_the_box_sum(monkeypatch):
    # the closed form over the parts against the box walk it replaced
    monkeypatch.setenv("JACKCC_MAX_N", "11")
    for n in range(11):
        for lam in generate_partitions(n):
            coarm = sum(box.coarm for box in lam.boxes())
            coleg = sum(box.coleg for box in lam.boxes())
            e = eigenvalue(tuple(lam))
            assert type(e) is AlphaPoly, lam
            assert e.coeffs == (ALPHA * coarm - coleg).coeffs, lam


def test_eigenvalue_conjugation_duality():
    for n in range(1, 8):
        for lam in generate_partitions(n):
            e = eigenvalue(lam)
            cap_a, cap_b = e.coeff(1), -e.coeff(0)
            e_conj = eigenvalue(lam.conjugate())
            assert e_conj == ALPHA * cap_b - cap_a


def test_theta_top_examples():
    assert theta_top(Partition([1])) == AlphaPoly(1)
    assert theta_top(Partition([2])) == ALPHA
    assert theta_top(Partition([1, 1])) == AlphaPoly(-1)
    assert theta_top(Partition([2, 1])) == -ALPHA


def test_boxes_statistics():
    stats = {(b.row, b.col): b for b in Partition([3, 2]).boxes()}
    assert len(stats) == 5
    corner = stats[(1, 1)]
    assert (corner.arm, corner.leg, corner.coarm, corner.coleg) == (2, 1, 0, 0)
    assert (stats[(1, 3)].arm, stats[(1, 3)].leg) == (0, 0)
    assert (stats[(2, 1)].arm, stats[(2, 1)].leg) == (1, 0)


def test_conjugate():
    assert Partition([3, 2]).conjugate() == (2, 2, 1)
    assert Partition([3, 2]).conjugate().conjugate() == (3, 2)
    assert Partition().conjugate() == ()


def test_dominance():
    assert leq_dominance(Partition([2, 2]), Partition([4]))
    assert leq_dominance(Partition([2, 2]), Partition([2, 2]))
    assert not leq_dominance(Partition([3, 1]), Partition([2, 2]))
    assert leq_dominance(Partition([2, 2]), Partition([3, 1]))
    with pytest.raises(DegreeMismatch):
        leq_dominance(Partition([2, 1]), Partition([2]))
    for lam in generate_partitions(6):
        assert leq_dominance(lam, Partition([6]))
        assert leq_dominance(Partition([1] * 6), lam)
