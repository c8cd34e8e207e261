"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line so the suite output doubles as
the release checklist.  Stated runtime budgets are asserted after the
mathematical content of each criterion.
"""

import math
import time
from collections import Counter

from jackcc.algebra import RatFunc, substitute_beta
from jackcc.connection import (
    a_cauchy, a_lr, a_nn_recurrence, generator_properties,
    verify_i_independence, verify_thm_rec,
)
from jackcc.jack import inner_product, jack_table
from jackcc.matchings import enumerate_good, good_matchings, is_bipartite
from jackcc.matchings import counting_recurrence_check
from jackcc.partitions import (
    Partition, eigenvalue, generate_partitions, hooks, theta_top,
)
from jackcc.psum import p_to_m


def _criterion(capsys, num, label, body, budget=None):
    started = time.perf_counter()
    failure = None
    try:
        body()
    except Exception as exc:
        failure = exc
    elapsed = time.perf_counter() - started
    slow = budget is not None and elapsed >= budget
    verdict = "pass" if failure is None and not slow else "FAIL"
    with capsys.disabled():
        print("acceptance %d %s: %s (%.1f s)" % (num, label, verdict, elapsed))
    if failure is not None:
        raise failure
    assert not slow, "budget %ss exceeded: %.1fs" % (budget, elapsed)


def test_criterion_1_small_counts(capsys):
    def body():
        expected = {
            (1,): (1, 1),
            (2,): (1, 0),
            (1, 1): (2, 1),
            (3,): (4, 1),
        }
        for parts, (total, flat) in expected.items():
            found = good_matchings(Partition(parts))
            assert len(found) == total
            assert sum(1 for m in found if is_bipartite(m)) == flat
        five = good_matchings(Partition([5]))
        assert sum(1 for m in five if is_bipartite(m)) == 8
        shifted = substitute_beta(a_nn_recurrence(Partition([3])))
        assert shifted.coeffs == (1, 1, 2)

    _criterion(capsys, 1, "small counts and the shifted cubic case", body,
               budget=1.0)


def test_criterion_2_three_routes_agree(capsys):
    def body():
        for n in range(1, 7):
            full = Partition([n])
            for lam in generate_partitions(n):
                direct = RatFunc(a_nn_recurrence(lam))
                summed = a_cauchy(lam, [full, full])
                towered = a_lr(lam, 2, 0)
                assert direct == summed == towered

    _criterion(capsys, 2, "recurrence, Cauchy sum, and operator tower agree",
               body, budget=60.0)


def test_criterion_3_weight_distribution(capsys):
    def body():
        for n in range(1, 8):
            for lam in generate_partitions(n):
                found = enumerate_good(lam)
                shifted = substitute_beta(a_nn_recurrence(lam))
                counts = Counter(e.weight for e in found.entries)
                assert counts == {k: c for k, c in enumerate(shifted.coeffs) if c}
                assert all((e.weight == 0) == e.bipartite
                           for e in found.entries)
                assert shifted.coeff(n - 1) == math.factorial(n - 1)

    _criterion(capsys, 3, "matching weights generate the shifted coefficient",
               body, budget=60.0)


def test_criterion_4_weight_raising_identity(capsys):
    def body():
        for n in range(1, 5):
            for lam in generate_partitions(n + 1):
                for nu in generate_partitions(n):
                    assert verify_thm_rec(lam, nu)

    _criterion(capsys, 4, "raising identity on all index pairs", body,
               budget=60.0)


def test_criterion_5_pivot_independence(capsys):
    def body():
        for n in range(2, 8):
            for lam in generate_partitions(n):
                assert verify_i_independence(lam)

    _criterion(capsys, 5, "recurrence pivot independence", body)


def test_criterion_6_jack_engine(capsys):
    def body():
        for n in range(1, 7):
            table = jack_table(n)
            parts = generate_partitions(n)
            for i, lam in enumerate(parts):
                row = table.row(lam)
                jlam = RatFunc(hooks(lam)[2])
                assert inner_product(row, row) == jlam
                for mu in parts[i + 1:]:
                    assert inner_product(row, table.row(mu)).is_zero
                assert table.theta(lam, Partition([1] * n)) == RatFunc(1)
                assert table.theta(lam, Partition([n])) == RatFunc(theta_top(lam))
                if n >= 2:
                    sub = Partition([2] + [1] * (n - 2))
                    assert table.theta(lam, sub) == RatFunc(eigenvalue(lam))
                assert p_to_m(row)[lam] == RatFunc(hooks(lam)[0])
        twin_a, twin_b = Partition([2, 2, 2]), Partition([3, 1, 1, 1])
        assert eigenvalue(twin_a) == eigenvalue(twin_b)
        assert jack_table(6).row(twin_a) != jack_table(6).row(twin_b)

    _criterion(capsys, 6, "character table invariants through degree 6", body)


def test_criterion_7_tower_coefficient_shape(capsys):
    def body():
        for n in range(1, 6):
            for lam in generate_partitions(n):
                for l in (2, 3):
                    for r in (0, 1, 2):
                        assert generator_properties(lam, l, r)

    _criterion(capsys, 7, "tower coefficients: integrality, degree, symmetry",
               body, budget=300.0)


def test_criterion_8_counting_recurrences(capsys):
    def body():
        for n in range(2, 8):
            for lam in generate_partitions(n):
                for i in range(1, len(lam) + 1):
                    assert counting_recurrence_check(lam, i)

    _criterion(capsys, 8, "matching counts split by root partner", body,
               budget=60.0)
