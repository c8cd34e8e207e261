import hashlib
import os
import subprocess
import sys
from collections import Counter

import pytest

from jackcc.algebra import AlphaPoly, substitute_beta
from jackcc.connection import a_nn_recurrence
from jackcc.config import CACHES
from jackcc import matchings
from jackcc.errors import (
    AdjacentPair, BadMatching, BrokenInvariant, DegreeMismatch,
    EmptyPartition, MissingPart, NotGoodMatching, UnmatchedPair,
)
from jackcc.matchings import (
    Matching, bipartite_count, build_canonical, counting_recurrence_check,
    enumerate_good, good_count, good_matchings, is_bipartite, reduce,
    union_cycle_type, weight, weight_distribution, _reduce_graph, _rows,
    _store, _surgery, _weight_table, _weights,
)
from jackcc.partitions import (
    Partition, down_k, down_kl, generate_partitions, up_kl,
)

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
    for pairs in ([(1, 5)], [(0, 1)], [(-1, 1)], [(1, 1.5)]):
        with pytest.raises(BadMatching, match="leaves the vertices 1..2"):
            Matching(pairs, 2)
    for pairs, size in (([], -1), ([(1, 2)], 2.0), ([(1, 2)], True)):
        with pytest.raises(BadMatching, match="size %r " % (size,)):
            Matching(pairs, size)


def test_canonical_graphs():
    g1 = build_canonical(P([1]))
    assert g1.gray == g1.black == Matching([(1, 2)])
    g = build_canonical(P([3, 2, 2, 1]))
    assert union_cycle_type(g.gray, g.black) == (3, 2, 2, 1)
    hexagon = build_canonical(P([3]))
    assert hexagon.black.pairs() == ((1, 6), (2, 3), (4, 5))


def test_canonical_graphs_are_built_once():
    graph = build_canonical(P([3, 1, 1]))
    assert build_canonical([1, 3, 1]) is graph
    assert build_canonical((3, 1, 1)) is graph
    assert build_canonical(P([1, 1, 3])) is graph
    empty = build_canonical([])
    assert empty.lam == P() and empty.gray.size == empty.black.size == 0
    assert build_canonical(()) is empty


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


def test_stored_parity_bits_match_the_oracle():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            goods = good_matchings(lam)
            block, mixed = _store(lam)
            assert block == b"".join(bytes(m.partner) for m in goods), lam
            assert list(mixed) == [int(is_bipartite(m)) for m in goods], lam
            assert good_count(lam) == len(goods), lam
            assert bipartite_count(lam) == sum(map(is_bipartite, goods)), lam


def test_pruned_search_is_exhaustive():
    for n in range(1, 7):
        for lam in generate_partitions(n):
            assert good_matchings(lam) == _unpruned_good(lam), lam


# sha256 over a store's rows, each as the bytes of its partner array, then
# its parity bits; recorded when the rows were still tuples of ints.  The
# block is those rows joined, so hashing it gives the same digest.
STORE_SHA256 = {
    "7": "3dadeb493c8dd86c5dd686fc6dbd3724b04ae8d3e9b4f28a1713f7185a73be75",
    "6,1": "ec383c7a24157be728648b34e1354e2b1ef515e7c474645175757337f85267a5",
    "5,2": "3de2cf2c2b441710ffab1430c98c9ecb74ed06d5e5dc8e01e29c7f1870b758f6",
    "5,1,1": "4a0edcfdbf5e4b6abb1bc147fa11201ce17cf59981f2eefa86e50a96bd3b4429",
    "4,3": "6de597e546a1f7c3e1f9aeb39ae8cfbc8e9cd34a122a2632848db06bb51c908a",
    "4,2,1": "cea8ae30d59b9da3cb75b9bce82e3346f754e998066591724c8048ec0fc3a42b",
    "4,1,1,1": "210ac41158b865f77b2581198f463cf40de2f985fccb188a20b1a2fb6b9caeab",
    "3,3,1": "5dd9e1c4aa2fec2ef82b5496b39b2e31be1907e60b80e6369c425a4d8b09bf0b",
    "3,2,2": "a0cbe8ebac8f4b4d55b0cab940f88a2c8dd08618d76902c31de66b0510824d41",
    "3,2,1,1": "86c0d3ca55235c29c6c1b6273ce1de3ccd077dad1ed2a90b575d07005b1f3f6c",
    "3,1,1,1,1": "fc2ca65183e6e51784148539c1eb7e5d868c932ce12aa75bfa60a7b2ab45772f",
    "2,2,2,1": "649f7a0edb33c40dc83f078e85d7654d7200047fc8965edf4761228026f88319",
    "2,2,1,1,1": "9e13598608f1900918e580724b84bd25303c39c1ff7353cb03f00b1131325706",
    "2,1,1,1,1,1": "05623d719158ff7aafe9365b4647549e53df178ad66f65b880e497d9540978b6",
    "1,1,1,1,1,1,1":
        "35b5b8012c6e7bba50971dc82c5df50c5b2c991fa243bf330a012e5c21eba9af",
}


def test_degree_seven_stores_are_pinned():
    got = {}
    for lam in generate_partitions(7):
        block, mixed = _store(lam)
        digest = hashlib.sha256()
        digest.update(block)
        digest.update(mixed)
        got[lam.to_text()] = digest.hexdigest()
    assert got == STORE_SHA256


@pytest.mark.parametrize("parts",
                         [(4, 3), (3, 2, 2), (1, 1), (2, 1), (3,)])
def test_search_restores_its_state(parts):
    # (1,1) starts at a four-free node and (2,1), (3) at a six-free node,
    # the two levels written out without recursing; gend and bend (gray,
    # black) must come back untouched, free too.
    lam = P(list(parts))
    graph = build_canonical(lam)
    gray, black = list(graph.gray.partner), list(graph.black.partner)
    free = list(range(1, 2 * lam.n + 1))
    out = bytearray()
    matchings._search(bytearray(2 * lam.n + 1), gray, black, free, out)
    assert gray == list(graph.gray.partner)
    assert black == list(graph.black.partner)
    assert free == list(range(1, 2 * lam.n + 1))
    assert out == _store(lam)[0]


def test_store_blocks_have_one_row_per_bit():
    # _weights slices each first partner's rows out of the block as one
    # run, which needs column 1 non-decreasing.
    for n in range(1, 8):
        for lam in generate_partitions(n):
            block, bits = _store(lam)
            width = 2 * n + 1
            assert len(block) == len(bits) * width, lam
            assert not any(block[0::width]), lam
            firsts = block[1::width]
            assert list(firsts) == sorted(firsts), lam


def test_degree_seven_audit_memory():
    # A fresh child, so no store is already cached.  The stores, weights
    # and bucket counts of every lam of n <= 7 peak near 7.5 MiB held as
    # byte blocks, against 31 MiB with one bytes object per row and a dict
    # of every row's weight.
    probe = (
        "import tracemalloc\n"
        "from jackcc.matchings import (bipartite_count,"
        " counting_recurrence_check, good_count, weight_distribution)\n"
        "from jackcc.partitions import generate_partitions\n"
        "tracemalloc.start()\n"
        "for n in range(1, 8):\n"
        "    for lam in generate_partitions(n):\n"
        "        weight_distribution(lam), good_count(lam)\n"
        "        bipartite_count(lam)\n"
        "        for i in range(1, len(lam) + 1):\n"
        "            assert counting_recurrence_check(lam, i)\n"
        "print(tracemalloc.get_traced_memory()[1])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchings.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("JACKCC_MAX_N", None)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 12 * 2**20


def test_store_refuses_labels_beyond_a_byte():
    # A row holds labels up to 2n = 254.  A regression would start a search
    # that never ends, so the CLI runs in a child with a time limit.
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchings.__file__)))
    done = subprocess.run([sys.executable, "-m", "jackcc.cli", "matchings",
                           "--lambda", "128"],
                          env=dict(os.environ, PYTHONPATH=src,
                                   JACKCC_MAX_N="200"),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: degree 128 exceeds 127")
    assert done.stderr.count("\n") == 1


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
    for a, v in ((7, 1), (0, 0)):
        with pytest.raises(UnmatchedPair, match="vertex %d " % a):
            reduce(hexagon, delta, a, v)


def test_reduce_refuses_a_negative_vertex():
    # A negative vertex indexes the partner lists from the end, where the
    # cycle walk never returns, so a regression must time out in a child.
    probe = ("from jackcc.errors import UnmatchedPair\n"
             "from jackcc.matchings import build_canonical, good_matchings,"
             " reduce\n"
             "hexagon, delta = build_canonical((3,)), good_matchings((3,))[0]\n"
             "for a, v in ((-1, 4), (-2, 2)):\n"
             "    try:\n"
             "        reduce(hexagon, delta, a, v)\n"
             "    except UnmatchedPair as exc:\n"
             "        print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchings.__file__)))
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("vertex -1 is not one of 1..6\n"
                           "vertex -2 is not one of 1..6\n")


def test_surgery_partitions_and_tags_are_pinned():
    # Deleting the first vertex of part k and a partner v leaves: in the
    # same cycle, an unhatted v shrinks the part (k - 1 ways) and a hatted
    # one splits it; in the cycle of another part l, v merges the two
    # (2l ways).
    for n in range(1, 9):
        for lam in generate_partitions(n):
            graph = build_canonical(lam)
            for i, k in enumerate(lam):
                root = 2 * sum(lam[:i]) + 1
                near = (root, graph.gray.of(root), graph.black.of(root))
                got = Counter()
                for v in range(1, 2 * n + 1):
                    if v not in near:
                        lam2, _, tag = _surgery(graph, root, v)
                        got[tag, lam2] += 1
                want = Counter([(1, down_k(lam, k))] * (k - 1))
                want.update((2, up_kl(lam, k - 1 - d, d))
                            for d in range(1, k - 1))
                for j, other in enumerate(lam):
                    if j != i:
                        want[3, down_kl(lam, k, other)] += 2 * other
                assert got == want, (lam, i)


def test_every_reduction_is_canonical():
    for n in range(2, 7):
        for lam in generate_partitions(n):
            graph = build_canonical(lam)
            pairs = {(a, m.of(a)) for m in good_matchings(lam)
                     for a in range(1, 2 * n + 1)}
            for a, v in pairs:
                lam2, mapping, _ = _reduce_graph(graph, a, v)
                want = build_canonical(lam2)
                for old, new in ((graph.gray, want.gray),
                                 (graph.black, want.black)):
                    kept = [e for e in old.pairs() if a not in e and v not in e]
                    kept.append((old.of(a), old.of(v)))
                    moved = ((mapping[x], mapping[y]) for x, y in kept)
                    assert Matching(moved, 2 * n - 2) == new, (lam, a, v)
                assert list(mapping.values()) == list(range(1, 2 * n - 1))
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
                assert table[bytes(m.partner)] == want, (lam, m)
                assert weight(lam, m) == want, (lam, m)


# sha256 over a store's rows, each followed by its weight as one byte, in
# store order; recorded when each row was still relabelled on its own, before
# the table relabelled the rows one first-partner block at a time.
WEIGHT_TABLE_SHA256 = {
    "7": "5b889c8d33a01529a37e505bf95a5fc6eeb9b603b048da8b2b947b197330c3ae",
    "6,1": "56f749fed44b8702f0dd21c5f438ec214bc0eecafa7f19ff968c5bd248e31491",
    "5,2": "fdb416b7d0f90a9e4a06430399340fbd40aca6abcb6055b3a5e05ec5d2e4669d",
    "5,1,1": "d99d45a6d1f96fd0dd314bc950bd698ccbb5d8f8468750263922d4fa2d90d0d4",
    "4,3": "2b894ff8c17971fd46fd2a85aae65ddd541b275ed33cc625860148e29ba73d27",
    "4,2,1": "cfb773df92577ad03ed619d6de88ade272ad59d45bb33999d932efd61f4ca8b4",
    "4,1,1,1": "009ffd6edb3353b5ce0e226cc5bcca05d6d97fe999b3e215aae451979e4813bf",
    "3,3,1": "dec2beb06c4d53bf2aa48aab08c962cc26ca1621ce0d51306da0d8efde89d972",
    "3,2,2": "06b41e70326d90d93ff0a6b23e441a66237cec46d8660376fa42cf761b3e0046",
    "3,2,1,1": "1d4205dab83ea4aab0153bcc2a0ce8d8faaf7ae860cdca6719214f09be9a2c43",
    "3,1,1,1,1": "38c4ded7e652f0b62678b5a5aaf8718dff9435ff015f53171d7eb7afe87c4696",
    "2,2,2,1": "8b891518268a2866545190611b6b4c74ac1d224e463149507b07ab79b052d3a5",
    "2,2,1,1,1": "74a3c5a607210882ed8698282e74e0bb85e9c078981c300669f339d43c04edbd",
    "2,1,1,1,1,1": "d345d96da6aa96e8eb9e2c78350b443dfeaf453dde3edcc53836ae5bbe5a428b",
    "1,1,1,1,1,1,1":
        "48775fc12d834d04f3d67b8b8fe99abf8e0d5bbc657dc29d5033e0bc29bfeb1d",
}


def test_degree_seven_weight_tables_are_pinned():
    got = {}
    for lam in generate_partitions(7):
        rows = _rows(_store(lam)[0], 2 * lam.n + 1)
        digest = hashlib.sha256()
        for row, w in zip(rows, _weights(lam)):
            digest.update(row)
            digest.update(bytes([w]))
        got[lam.to_text()] = digest.hexdigest()
    assert got == WEIGHT_TABLE_SHA256


def test_weight_refuses_the_empty_partition():
    with pytest.raises(EmptyPartition):
        weight((), Matching([], 0))
    for refuses in (weight_distribution, enumerate_good, good_matchings,
                    good_count, bipartite_count):
        with pytest.raises(EmptyPartition):
            refuses(())


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


def test_broken_invariants_raise_typed_errors(monkeypatch):
    # The (2,1) graph may already be cached, so the check is run through
    # the uncached builder; nothing built under the patch is cached.
    canonical = CACHES["matchings._canonical"]
    cached = canonical.cache_info().currsize
    with monkeypatch.context() as patch:
        patch.setattr(matchings, "union_cycle_type", lambda m1, m2: P([1]))
        with pytest.raises(BrokenInvariant):
            canonical.__wrapped__(P([2, 1]))
    assert canonical.cache_info().currsize == cached
    graph = build_canonical(P([2, 1]))
    assert union_cycle_type(graph.gray, graph.black) == (2, 1)
    # Warm the weights first, so only enumerate_good reads the flipped bits.
    _weights(P([3]))
    block, mixed = _store(P([3]))
    flipped = (block, bytes(1 - bit for bit in mixed))
    monkeypatch.setattr(matchings, "_store", lambda lam: flipped)
    with pytest.raises(BrokenInvariant):
        enumerate_good(P([3]))


def test_missing_reduced_row_is_a_broken_invariant(monkeypatch):
    # Every reduced table comes back empty, so the first row of (3) finds
    # no entry for its reduction.
    build = matchings._weights.__wrapped__
    monkeypatch.setattr(matchings, "_weight_table", lambda lam: {})
    with pytest.raises(BrokenInvariant, match="^3: .* first partner 2 "):
        build(P([3]))


def test_missing_row_inside_a_block_is_a_broken_invariant(monkeypatch):
    # The block of (3) with first partner 2^ has two rows and is the only
    # one that reduces to (1,1).  Its (1,1) table lacks the second row's
    # reduction alone, so the block's first row finds its entry.
    lam = P([3])
    block = [m for m in good_matchings(lam) if m.of(1) == 4]
    assert len(block) == 2
    reduced, delta2, _ = reduce(build_canonical(lam), block[1], 1, 4)
    assert reduced.lam == P([1, 1])
    missing = bytes(delta2.partner)

    def tables(lam2):
        table = dict(_weight_table(lam2))
        if lam2 == reduced.lam:
            del table[missing]
        return table

    build = matchings._weights.__wrapped__
    monkeypatch.setattr(matchings, "_weight_table", tables)
    with pytest.raises(BrokenInvariant, match=r"^3: .* first partner 2\^ "):
        build(lam)


def test_counting_recurrences():
    for n in range(2, 7):
        for lam in generate_partitions(n):
            for i in range(1, len(lam) + 1):
                assert counting_recurrence_check(lam, i), (lam, i)


def test_counting_recurrence_base_case():
    # The root's one partner, vertex 2, is its gray and black neighbour.
    assert counting_recurrence_check(P([1]), 1)


@pytest.mark.parametrize("i", [0, -1, 3])
def test_counting_recurrence_rejects_bad_pivot(i):
    with pytest.raises(MissingPart, match="pivot %d " % i):
        counting_recurrence_check(P([2, 1]), i)


def test_relabel_hat_preservation():
    for lam in (P([3]), P([2, 2]), P([4, 1])):
        graph = build_canonical(lam)
        for delta in good_matchings(lam):
            v = delta.of(1)
            if v % 2 == 0:
                reduced, delta2, _ = reduce(graph, delta, 1, v)
                assert is_bipartite(delta2) == is_bipartite(delta)
