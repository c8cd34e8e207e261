import math

import pytest

from jackcc.algebra import ALPHA, AlphaPoly
from jackcc.errors import MissingPart
from jackcc.partitions import (
    Partition, down_k, down_kl, eigenvalue, generate_partitions, hooks,
    leq_dominance, modify, theta_top, up_k, up_kl, z_aut_class,
)


def test_constructor_sorts_and_validates():
    assert Partition([1, 3, 2]) == (3, 2, 1)
    assert Partition().n == 0
    assert Partition([4, 4]).n == 8
    with pytest.raises(MissingPart):
        Partition([2, 0])
    with pytest.raises(MissingPart):
        Partition([-1])


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


def test_class_sizes_partition_the_group():
    for n in range(1, 8):
        total = sum(z_aut_class(lam)[2] for lam in generate_partitions(n))
        assert total == math.factorial(n)


def test_z_aut_class_examples():
    assert z_aut_class(Partition([1])) == (1, 1, 1)
    assert z_aut_class(Partition([3, 2, 2, 1])) == (24, 2, 1680)
    assert z_aut_class(Partition([2, 2])) == (8, 2, 3)


def test_modify_examples():
    assert down_kl(Partition([3, 2]), 3, 2) == (4,)
    assert up_kl(Partition([4]), 1, 2) == (2, 1)
    assert down_k(Partition([2, 1]), 1) == (2,)
    assert up_k(Partition([2, 1]), 2) == (3, 1)
    assert modify(Partition([3, 2]), "down_kl", 3, 2) == (4,)
    with pytest.raises(ValueError):
        modify(Partition([2]), "sideways", 2)


def test_modify_missing_parts():
    with pytest.raises(MissingPart):
        down_k(Partition([3, 1]), 2)
    with pytest.raises(MissingPart):
        down_kl(Partition([2, 1]), 2, 2)
    with pytest.raises(MissingPart):
        up_kl(Partition([3]), 1, 3)


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
                if k == l and lam.mult(k) < 2:
                    continue
                assert down_kl(lam, k, l).n == n - 1


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
            assert j.leading > 0
            assert all(c >= 0 for c in h.coeffs)
            assert all(c >= 0 for c in h2.coeffs)
            hook_product = 1
            for b in lam.boxes():
                hook_product *= b.arm + b.leg + 1
            assert j(1) == hook_product ** 2


def test_eigenvalue_examples():
    assert eigenvalue(Partition([2])) == ALPHA
    assert eigenvalue(Partition([1, 1])) == AlphaPoly(-1)
    collision = eigenvalue(Partition([2, 2, 2]))
    assert collision == 3 * ALPHA - 6
    assert eigenvalue(Partition([3, 1, 1, 1])) == collision


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
    for lam in generate_partitions(6):
        assert leq_dominance(lam, Partition([6]))
        assert leq_dominance(Partition([1] * 6), lam)
