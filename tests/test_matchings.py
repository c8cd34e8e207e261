import pytest

from jackcc.algebra import AlphaPoly, substitute_beta
from jackcc.connection import a_nn_recurrence
from jackcc.errors import AdjacentPair, DegreeMismatch, NotGoodMatching, UnmatchedPair
from jackcc.matchings import (
    Matching, bipartite_count, build_canonical, counting_recurrence_check,
    enumerate_good, good_matchings, is_bipartite, reduce, union_cycle_type,
    weight, weight_distribution, _reduce_graph, _weight_table,
)
from jackcc.partitions import Partition, generate_partitions

P = Partition


def _unpruned_good(lam):
    """Filter every perfect matching; audits the pruned search."""
    graph = build_canonical(lam)
    size = 2 * lam.n
    single = Partition([lam.n])
    found = []

    def grow(partner):
        a = next((v for v in range(1, size + 1) if not partner[v]), None)
        if a is None:
            m = Matching(((v, partner[v]) for v in range(1, size + 1)
                          if v < partner[v]), size)
            if (union_cycle_type(graph.gray, m) == single
                    and union_cycle_type(graph.black, m) == single):
                found.append(m)
            return
        for v in range(a + 1, size + 1):
            if not partner[v]:
                partner[a], partner[v] = v, a
                grow(partner)
                partner[a] = partner[v] = 0

    grow([0] * (size + 1))
    return tuple(found)


def _deletion_weight(lam, delta):
    """The weight by its definition: delete vertex 1 and its partner down to (1)."""
    graph = build_canonical(lam)
    total = 0
    while graph.lam != Partition([1]):
        v = delta.of(1)
        if v % 2 == 1:
            total += 1
        graph, delta, _ = reduce(graph, delta, 1, v)
    return total


def test_matching_basics():
    m = Matching([(1, 3), (2, 4)])
    assert m.size == 4
    assert m.of(1) == 3 and m.of(4) == 2
    assert m.pairs() == ((1, 3), (2, 4))
    assert m.to_text() == "1-2,1^-2^"
    with pytest.raises(ValueError):
        Matching([(1, 1), (2, 3)])
    with pytest.raises(ValueError):
        Matching([(1, 2), (1, 3)], 4)
    with pytest.raises(ValueError):
        Matching([(1, 2)], 4)


def test_canonical_graphs():
    g1 = build_canonical(P([1]))
    assert g1.gray == g1.black == Matching([(1, 2)])
    g = build_canonical(P([3, 2, 2, 1]))
    assert union_cycle_type(g.gray, g.black) == (3, 2, 2, 1)
    hexagon = build_canonical(P([3]))
    assert hexagon.black.pairs() == ((1, 6), (2, 3), (4, 5))


def test_union_cycle_type():
    m = Matching([(1, 3), (2, 4)])
    assert union_cycle_type(m, m) == (1, 1)
    hexagon = build_canonical(P([3]))
    delta = Matching([(1, 4), (3, 6), (5, 2)])
    assert union_cycle_type(hexagon.gray, delta) == (3,)
    with pytest.raises(DegreeMismatch):
        union_cycle_type(m, Matching([(1, 2)]))


def test_good_counts_small_cases():
    assert len(good_matchings(P([1]))) == 1
    assert len(good_matchings(P([2]))) == 1
    assert len(good_matchings(P([1, 1]))) == 2
    assert len(good_matchings(P([3]))) == 4
    bipartite = [m for m in good_matchings(P([3])) if is_bipartite(m)]
    assert len(bipartite) == 1
    assert is_bipartite(good_matchings(P([1]))[0])
    assert not is_bipartite(good_matchings(P([2]))[0])
    assert sum(1 for m in good_matchings(P([1, 1])) if is_bipartite(m)) == 1
    at_two = substitute_beta(a_nn_recurrence(P([5])))(1)
    assert len(good_matchings(P([5]))) == at_two
    bip5 = sum(1 for m in good_matchings(P([5])) if is_bipartite(m))
    assert bip5 == 8


def test_pruned_search_is_exhaustive():
    for n in range(1, 6):
        for lam in generate_partitions(n):
            assert good_matchings(lam) == _unpruned_good(lam), lam


def test_counts_specialize_the_recurrence():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            poly = a_nn_recurrence(lam)
            assert len(good_matchings(lam)) == poly(2), lam
            bip = sum(1 for m in good_matchings(lam) if is_bipartite(m))
            assert bip == poly(1), lam
            assert bipartite_count(lam) == bip, lam


def test_reduce_cases_on_small_graphs():
    hexagon = build_canonical(P([3]))
    delta = Matching([(1, 3), (2, 5), (4, 6)])
    assert union_cycle_type(hexagon.gray, delta) == (3,)
    reduced, delta2, tag = reduce(hexagon, delta, 1, 3)
    assert tag == 1
    assert reduced.lam == (2,)
    assert delta2.size == 4

    delta_b = Matching([(1, 4), (3, 6), (2, 5)])
    reduced_b, _, tag_b = reduce(hexagon, delta_b, 1, 4)
    assert tag_b == 2
    assert reduced_b.lam in ((1, 1), (2,))
    assert reduced_b.lam == (1, 1)

    mixed = build_canonical(P([2, 1]))
    delta_c = Matching([(1, 5), (2, 4), (3, 6)])
    assert union_cycle_type(mixed.gray, delta_c) == (3,)
    reduced_c, _, tag_c = reduce(mixed, delta_c, 1, 5)
    assert tag_c == 3
    assert reduced_c.lam == (2,)


def test_reduce_rejects_adjacent():
    hexagon = build_canonical(P([3]))
    delta = Matching([(1, 2), (3, 4), (5, 6)])
    with pytest.raises(AdjacentPair):
        reduce(hexagon, delta, 1, 2)


def test_reduce_rejects_unmatched_pair():
    hexagon = build_canonical(P([3]))
    delta = Matching([(1, 3), (2, 5), (4, 6)])
    with pytest.raises(UnmatchedPair):
        reduce(hexagon, delta, 1, 4)


def test_every_reduction_is_canonical():
    for n in range(2, 7):
        for lam in generate_partitions(n):
            graph = build_canonical(lam)
            pairs = {(a, m.of(a)) for m in good_matchings(lam)
                     for a in range(1, 2 * n + 1)}
            for a, v in pairs:
                reduced, mapping, _ = _reduce_graph(graph, a, v)
                assert reduced == build_canonical(reduced.lam), (lam, a, v)
                assert sorted(mapping.values()) == list(range(1, 2 * n - 1))
                if (a % 2) != (v % 2):
                    assert all(x % 2 == y % 2 for x, y in mapping.items()), \
                        (lam, a, v)


def test_reduce_preserves_goodness():
    for n in range(2, 6):
        for lam in generate_partitions(n):
            graph = build_canonical(lam)
            single = Partition([n - 1])
            for delta in good_matchings(lam):
                reduced, delta2, _ = reduce(graph, delta, 1, delta.of(1))
                assert union_cycle_type(reduced.gray, delta2) == single
                assert union_cycle_type(reduced.black, delta2) == single


def test_weight_examples():
    assert weight(P([1]), Matching([(1, 2)])) == 0
    goods = good_matchings(P([3]))
    weights = sorted(weight(P([3]), m) for m in goods)
    assert weights == [0, 1, 2, 2]
    for m in goods:
        assert (weight(P([3]), m) == 0) == is_bipartite(m)
    bad = Matching([(1, 2), (3, 4), (5, 6)])
    with pytest.raises(NotGoodMatching):
        weight(P([3]), bad)


def test_table_weight_matches_deletion_oracle():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            table = _weight_table(lam)
            goods = good_matchings(lam)
            assert len(table) == len(goods)
            for m in goods:
                want = _deletion_weight(lam, m)
                assert table[m.partner] == want, (lam, m)
                assert weight(lam, m) == want, (lam, m)


def test_weight_distributions():
    assert weight_distribution(P([1])) == AlphaPoly(1)
    assert weight_distribution(P([2])) == AlphaPoly((0, 1))
    assert weight_distribution(P([1, 1])) == AlphaPoly((1, 1))
    assert weight_distribution(P([3])) == AlphaPoly((1, 1, 2))


def test_distribution_matches_recurrence():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            want = substitute_beta(a_nn_recurrence(lam))
            assert weight_distribution(lam) == want, lam


def test_zero_weight_iff_bipartite():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            for entry in enumerate_good(lam).entries:
                assert (entry.weight == 0) == entry.bipartite


def test_threaded_enumeration_is_identical():
    for lam in (P([4]), P([3, 2]), P([2, 2, 1])):
        assert enumerate_good(lam, threads=3) == enumerate_good(lam)


def test_counting_recurrences():
    for n in range(2, 7):
        for lam in generate_partitions(n):
            for i in range(1, len(lam) + 1):
                assert counting_recurrence_check(lam, i), (lam, i)


def test_relabel_hat_preservation():
    for lam in (P([3]), P([2, 2]), P([4, 1])):
        graph = build_canonical(lam)
        for delta in good_matchings(lam):
            v = delta.of(1)
            if v % 2 == 0:
                reduced, delta2, _ = reduce(graph, delta, 1, v)
                assert is_bipartite(delta2) == is_bipartite(delta)
