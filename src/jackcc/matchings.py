"""Graphs attached to a partition and their good perfect matchings.

Vertices are 1..2n with the unhatted label k stored as 2k-1 and its hatted
twin as 2k, so an edge is parity-mixed exactly when it joins an unhatted
vertex to a hatted one.  The gray matching pairs each label with its twin;
the black matching chains the labels of each part into a cycle.  A
matching is good when its union with either color forms one cycle through
all 2n vertices, and the weight statistic is defined by repeatedly
deleting vertex 1 together with its matched partner.  One deletion already
lands on a good matching of the reduced partition, so each partition's
weights are computed once, from the reduced partitions' weight tables.
"""

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .algebra import AlphaPoly
from .config import check_degree
from .errors import AdjacentPair, DegreeMismatch, NotGoodMatching, UnmatchedPair
from .partitions import Partition, down_k, down_kl, up_kl

__all__ = [
    "Matching", "LambdaGraph", "WeightedMatchingSet", "MatchingEntry",
    "build_canonical", "union_cycle_type", "is_bipartite",
    "good_matchings", "enumerate_good", "reduce", "weight",
    "weight_distribution", "bipartite_count", "counting_recurrence_check",
]


def _label_text(v):
    return "%d^" % (v // 2) if v % 2 == 0 else "%d" % ((v + 1) // 2)


class Matching:
    """Fixed-point-free involution of 1..2n, stored as a partner array."""

    __slots__ = ("partner",)

    def __init__(self, pairs, size=None):
        pairs = tuple(pairs)
        if size is None:
            size = 2 * len(pairs)
        slots = [0] * (size + 1)
        for x, y in pairs:
            if x == y or slots[x] or slots[y]:
                raise ValueError("not a fixed-point-free involution")
            slots[x], slots[y] = y, x
        if 0 in slots[1:]:
            raise ValueError("matching does not cover every vertex")
        self.partner = tuple(slots)

    @property
    def size(self):
        return len(self.partner) - 1

    def of(self, v):
        return self.partner[v]

    def pairs(self):
        return tuple((v, self.partner[v])
                     for v in range(1, self.size + 1) if v < self.partner[v])

    def to_text(self):
        return ",".join("%s-%s" % (_label_text(x), _label_text(y))
                        for x, y in self.pairs())

    def __eq__(self, other):
        return isinstance(other, Matching) and other.partner == self.partner

    def __lt__(self, other):
        return self.partner < other.partner

    def __hash__(self):
        return hash(self.partner)

    def __repr__(self):
        return "Matching(%s)" % self.to_text()


def union_cycle_type(m1, m2):
    """Half-lengths of the alternating cycles of the two matchings."""
    if m1.size != m2.size:
        raise DegreeMismatch("matchings on %d and %d vertices"
                             % (m1.size, m2.size))
    seen = [False] * (m1.size + 1)
    parts = []
    for start in range(1, m1.size + 1):
        if seen[start]:
            continue
        length = 0
        cur = start
        while True:
            step = m1.of(cur)
            seen[cur] = seen[step] = True
            cur = m2.of(step)
            length += 1
            if cur == start:
                break
        parts.append(length)
    return Partition(parts)


def is_bipartite(delta):
    return all(v % 2 != delta.of(v) % 2 for v in range(1, delta.size + 1))


class LambdaGraph(NamedTuple):
    """The two colored matchings realizing the cycles of one partition."""

    lam: Partition
    gray: Matching
    black: Matching


def build_canonical(lam):
    """The standard labeling: part blocks take consecutive labels."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    n = lam.n
    gray = Matching(((2 * k - 1, 2 * k) for k in range(1, n + 1)), 2 * n)
    black_pairs = []
    offset = 0
    for part in lam:
        for t in range(part):
            hat = 2 * (offset + t + 1)
            succ = 2 * (offset + (t + 1) % part + 1) - 1
            black_pairs.append((hat, succ))
        offset += part
    black = Matching(black_pairs, 2 * n)
    assert union_cycle_type(gray, black) == lam
    return LambdaGraph(lam, gray, black)


def _search(partner, gend, bend, free, out):
    a = next((v for v in range(1, len(partner)) if not partner[v]), None)
    if a is None:
        out.append(tuple(partner))
        return
    for v in range(a + 1, len(partner)):
        if partner[v]:
            continue
        if free > 2 and (gend[a] == v or bend[a] == v):
            continue
        partner[a], partner[v] = v, a
        ga, gv, ba, bv = gend[a], gend[v], bend[a], bend[v]
        gend[ga], gend[gv] = gv, ga
        bend[ba], bend[bv] = bv, ba
        _search(partner, gend, bend, free - 2, out)
        gend[ga], gend[gv] = a, v
        bend[ba], bend[bv] = a, v
        partner[a] = partner[v] = 0


def _initial_state(graph):
    size = graph.gray.size
    partner = [0] * (size + 1)
    gend = [0] + [graph.gray.of(v) for v in range(1, size + 1)]
    bend = [0] + [graph.black.of(v) for v in range(1, size + 1)]
    return partner, gend, bend


@lru_cache(maxsize=None)
def good_matchings(lam):
    """All good matchings in lexicographic partner order.

    The search matches the smallest free vertex first and rejects any edge
    that would close a cycle in either colored union before the last
    step; at the last step the single remaining path must close into the
    full cycle, so every leaf reached is good.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    graph = build_canonical(lam)
    partner, gend, bend = _initial_state(graph)
    out = []
    _search(partner, gend, bend, 2 * lam.n, out)
    size = 2 * lam.n
    return tuple(Matching(((v, p[v]) for v in range(1, size + 1) if v < p[v]),
                          size) for p in out)


def _surgery(graph, a, v):
    """Remove a and v, rejoining their gray and black neighbours.

    Returns the surviving pair lists and the case tag: 1 when v shares
    a's cycle unhatted, 2 when it shares it hatted, 3 across cycles.
    """
    gray, black = graph.gray, graph.black
    if gray.of(a) == v or black.of(a) == v:
        raise AdjacentPair("%s and %s share an edge"
                           % (_label_text(a), _label_text(v)))
    cycle = {a}
    cur = a
    while True:
        cur = black.of(gray.of(cur))
        if cur == a:
            break
        cycle.add(cur)
    cycle |= {gray.of(w) for w in cycle}
    if v in cycle:
        tag = 2 if v % 2 == 0 else 1
    else:
        tag = 3
    g_pairs = [e for e in gray.pairs() if a not in e and v not in e]
    g_pairs.append((gray.of(a), gray.of(v)))
    b_pairs = [e for e in black.pairs() if a not in e and v not in e]
    b_pairs.append((black.of(a), black.of(v)))
    return g_pairs, b_pairs, tag


def _relabel_map(g_pairs, b_pairs, preserve):
    """New labels for the surviving vertices, canonical block by block.

    Cycles are ordered by length then by their smallest original vertex;
    each is read gray edge first from its smallest vertex, the smallest
    unhatted one when parities must survive.
    """
    gray_of, black_of = {}, {}
    for x, y in g_pairs:
        gray_of[x], gray_of[y] = y, x
    for x, y in b_pairs:
        black_of[x], black_of[y] = y, x
    remaining = set(gray_of)
    cycles = []
    while remaining:
        seed = min(remaining)
        cycle = [seed]
        cur = black_of[gray_of[seed]]
        while cur != seed:
            cycle.append(cur)
            cur = black_of[gray_of[cur]]
        verts = set(cycle) | {gray_of[w] for w in cycle}
        remaining -= verts
        cycles.append((len(verts), min(verts), verts))
    cycles.sort(key=lambda c: (-c[0], c[1]))
    mapping = {}
    counter = 1
    for _, _, verts in cycles:
        if preserve:
            start = min(w for w in verts if w % 2 == 1)
        else:
            start = min(verts)
        cur = start
        while True:
            mapping[cur] = counter
            twin = gray_of[cur]
            mapping[twin] = counter + 1
            counter += 2
            cur = black_of[twin]
            if cur == start:
                break
    return mapping


def _reduce_graph(graph, a, v):
    """The graph half of reduce: the smaller graph, the relabeling, the tag.

    It depends only on the deleted pair, so every matching that pairs a
    with v shares it.
    """
    g_pairs, b_pairs, tag = _surgery(graph, a, v)
    mapping = _relabel_map(g_pairs, b_pairs, (a % 2) != (v % 2))
    size = len(mapping)
    new_gray = Matching(((mapping[x], mapping[y]) for x, y in g_pairs), size)
    new_black = Matching(((mapping[x], mapping[y]) for x, y in b_pairs), size)
    lam2 = union_cycle_type(new_gray, new_black)
    return LambdaGraph(lam2, new_gray, new_black), mapping, tag


def reduce(graph, delta, a, v):
    """Delete the matched pair {a, v} and relabel what is left.

    Gives back the smaller graph in canonical labels, the matching carried
    along the relabeling, and the case tag of the surgery.
    """
    if delta.of(a) != v:
        raise UnmatchedPair("%s and %s are not paired by %s"
                            % (_label_text(a), _label_text(v), delta.to_text()))
    reduced, mapping, tag = _reduce_graph(graph, a, v)
    new_delta = Matching(((mapping[x], mapping[y]) for x, y in delta.pairs()
                          if a not in (x, y) and v not in (x, y)), len(mapping))
    return reduced, new_delta, tag


@lru_cache(maxsize=None)
def _weight_table(lam):
    """The weight of every good matching of lam, keyed on its partner tuple.

    Deleting vertex 1 and its partner v lands on a good matching of the
    reduced partition, so the weight is [v unhatted] plus that matching's
    entry in the reduced table; the single good matching of (1) weighs 0.
    The surgery depends only on v, so it runs once per first partner.
    """
    goods = good_matchings(lam)
    if lam.n == 1:
        return {goods[0].partner: 0}
    graph = build_canonical(lam)
    steps = {}
    table = {}
    for delta in goods:
        p = delta.partner
        step = steps.get(p[1])
        if step is None:
            reduced, mapping, _ = _reduce_graph(graph, 1, p[1])
            # old[k - 1] is the surviving vertex that gets the new label k.
            old = sorted(mapping, key=mapping.__getitem__)
            step = steps[p[1]] = (p[1] % 2, _weight_table(reduced.lam),
                                  mapping, old)
        hit, sub, mapping, old = step
        carried = (0,) + tuple(mapping[p[x]] for x in old)
        table[p] = hit + sub[carried]
    return table


def weight(lam, delta):
    """Count the unhatted partners met while deleting vertex 1 down to (1)."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    graph = build_canonical(lam)
    single = Partition([lam.n])
    if (union_cycle_type(graph.gray, delta) != single
            or union_cycle_type(graph.black, delta) != single):
        raise NotGoodMatching("matching %s is not good for %s"
                              % (delta.to_text(), lam.to_text()))
    if lam.n == 1:
        return 0
    v = delta.of(1)
    reduced, delta2, _ = reduce(graph, delta, 1, v)
    return v % 2 + _weight_table(reduced.lam)[delta2.partner]


class MatchingEntry(NamedTuple):
    matching: Matching
    weight: int
    bipartite: bool


class WeightedMatchingSet(NamedTuple):
    """Every good matching of one partition with its statistics."""

    lam: Partition
    entries: tuple

    @property
    def bipartite_count(self):
        return sum(1 for e in self.entries if e.bipartite)

    def distribution(self):
        return _generating_poly(e.weight for e in self.entries)


def _generating_poly(weights):
    counts = Counter(weights)
    top = max(counts) if counts else 0
    return AlphaPoly([counts.get(k, 0) for k in range(top + 1)])


def _branch_matchings(lam, first_partner):
    graph = build_canonical(lam)
    partner, gend, bend = _initial_state(graph)
    size = 2 * lam.n
    v = first_partner
    if size > 2 and (gend[1] == v or bend[1] == v):
        return ()
    partner[1], partner[v] = v, 1
    ga, gv, ba, bv = gend[1], gend[v], bend[1], bend[v]
    gend[ga], gend[gv] = gv, ga
    bend[ba], bend[bv] = bv, ba
    out = []
    _search(partner, gend, bend, size - 2, out)
    return tuple(Matching(((w, p[w]) for w in range(1, size + 1) if w < p[w]),
                          size) for p in out)


def enumerate_good(lam, threads=1):
    """Weighted entry list; multi-threaded runs split on vertex 1's partner."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    if threads > 1 and lam.n > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = pool.map(lambda v: _branch_matchings(lam, v),
                              range(2, 2 * lam.n + 1))
        matchings = tuple(m for chunk in chunks for m in chunk)
    else:
        matchings = good_matchings(lam)
    table = _weight_table(lam)
    entries = tuple(MatchingEntry(m, table[m.partner], is_bipartite(m))
                    for m in matchings)
    assert all((e.weight == 0) == e.bipartite for e in entries)
    return WeightedMatchingSet(lam, entries)


def weight_distribution(lam):
    """Generating polynomial of the weight statistic over good matchings."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return _generating_poly(_weight_table(lam).values())


@lru_cache(maxsize=None)
def bipartite_count(lam):
    """Number of good matchings of lam whose edges all mix parities."""
    return sum(1 for m in good_matchings(lam) if is_bipartite(m))


def counting_recurrence_check(lam, i):
    """Audit the counting recurrences by bucketing on one root's partner.

    The pivot is the first unhatted vertex of the i-th part block.  Every
    bucket of good matchings must biject with the good matchings of the
    reduced partition, bipartite ones matching only when the removed edge
    was parity-mixed, and the aggregated counts must reproduce both
    recurrence formulas.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    graph = build_canonical(lam)
    root = 2 * sum(lam[:i - 1]) + 1
    goods = good_matchings(lam)
    buckets = Counter(m.of(root) for m in goods)
    bip_buckets = Counter(m.of(root) for m in goods if is_bipartite(m))
    part = lam[i - 1]
    total_check = 0
    bip_check = 0
    for v in range(1, 2 * lam.n + 1):
        if v == root:
            continue
        if v in (graph.gray.of(root), graph.black.of(root)):
            if buckets[v]:
                return False
            continue
        reduced = _reduce_graph(graph, root, v)[0].lam
        if buckets[v] != len(good_matchings(reduced)):
            return False
        want_bip = bipartite_count(reduced) if v % 2 == 0 else 0
        if bip_buckets[v] != want_bip:
            return False
        total_check += buckets[v]
        bip_check += bip_buckets[v]
    if total_check != len(goods) or bip_check != bipartite_count(lam):
        return False
    agg = 0
    bip_agg = 0
    if part >= 2:
        agg += (part - 1) * len(good_matchings(down_k(lam, part)))
    for d in range(1, part - 1):
        split = up_kl(lam, part - 1 - d, d)
        agg += len(good_matchings(split))
        bip_agg += bipartite_count(split)
    for j, other in enumerate(lam):
        if j != i - 1:
            merged = down_kl(lam, part, other)
            agg += 2 * other * len(good_matchings(merged))
            bip_agg += other * bipartite_count(merged)
    return agg == len(goods) and bip_agg == bipartite_count(lam)
