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

The search keeps one store per partition: one byte block holding every
good matching's partner array as a row of 2n + 1 bytes, and one parity
byte per row.  The counts, the weights and the recurrence audit read the
block by column; rows are split out only to list the matchings, as
``Matching`` objects (partner tuples), and to key the weight tables that
look up the reduced rows of a higher degree.
"""

from collections import Counter
from itertools import compress
from typing import NamedTuple

from .algebra import AlphaPoly
from .config import cached, check_degree
from .errors import (
    AdjacentPair, BadMatching, BrokenInvariant, DegreeMismatch, DegreeTooLarge,
    EmptyPartition, MissingPart, NotGoodMatching, UnmatchedPair,
)
from .partitions import Partition, down_k, down_kl, up_kl

__all__ = [
    "Matching", "LambdaGraph", "WeightedMatchingSet", "MatchingEntry",
    "build_canonical", "union_cycle_type", "is_bipartite",
    "good_matchings", "good_count", "enumerate_good", "reduce", "weight",
    "weight_distribution", "bipartite_count", "counting_recurrence_check",
]


# byte b -> 1 when b is even: a partner read through it is 1 when hatted
_EVEN = b"\1\0" * 128


def _label_text(v):
    return "%d^" % (v // 2) if v % 2 == 0 else "%d" % ((v + 1) // 2)


class Matching:
    """Fixed-point-free involution of 1..2n, stored as a partner array."""

    __slots__ = ("partner",)

    def __init__(self, pairs, size=None):
        pairs = tuple(pairs)
        if size is None:
            size = 2 * len(pairs)
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise BadMatching("matching size %r is not a non-negative integer"
                              % (size,))
        vertices = range(1, size + 1)
        slots = [0] * (size + 1)
        for x, y in pairs:
            if x not in vertices or y not in vertices:
                raise BadMatching("pair (%r, %r) leaves the vertices 1..%d"
                                  % (x, y, size))
            if x == y or slots[x] or slots[y]:
                raise BadMatching("not a fixed-point-free involution")
            slots[x], slots[y] = y, x
        if 0 in slots[1:]:
            raise BadMatching("matching does not cover every vertex")
        self.partner = tuple(slots)

    @classmethod
    def _trusted(cls, partner):
        """Wrap a partner tuple of the search without checking it.

        The search pairs each vertex of 1..2n exactly once, both ways, so
        every row it stores is already a fixed-point-free involution.
        """
        m = object.__new__(cls)
        m.partner = partner
        return m

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
    """True when every edge of delta joins an unhatted vertex to a hatted one."""
    return all(v % 2 != delta.of(v) % 2 for v in range(1, delta.size + 1))


class LambdaGraph(NamedTuple):
    """The two colored matchings realizing the cycles of one partition."""

    lam: Partition
    gray: Matching
    black: Matching


def build_canonical(lam):
    """The standard labeling: part blocks take consecutive labels.

    lam may be any iterable of parts; it is normalised to a ``Partition``,
    and each partition's graph is built and checked once and then shared
    (the graph is immutable).
    """
    return _canonical(lam if isinstance(lam, Partition) else Partition(lam))


@cached
def _canonical(lam):
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
    if union_cycle_type(gray, black) != lam:
        raise BrokenInvariant("canonical graph of %s has the wrong cycle type"
                              % lam.to_text())
    return LambdaGraph(lam, gray, black)


def _search(partner, gend, bend, free, out):
    """Pair the smallest free vertex a with each allowed partner in turn.

    free lists the unmatched vertices in increasing order, an even number
    of at least 4; gend and bend map each path end to the other end of its
    gray and black path.  Each leaf writes every vertex's partner on its
    way down, so no entry of partner is reset, and is appended in place to
    the bytearray out.  The recursion stops at six free vertices.  There,
    for each allowed v, the ends of the next vertex b's paths after a's
    pair are worked out from gend and bend without writing to them, and
    b's three candidates are written out as at a four-free node: once b
    is paired, the two vertices left close the last path, so they pair
    without a check.
    """
    a = free[0]
    ga, ba = gend[a], bend[a]
    if len(free) == 4:
        _, b, c, d = free
        if b != ga and b != ba:
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
            out += partner
        if c != ga and c != ba:
            partner[a], partner[c], partner[b], partner[d] = c, a, d, b
            out += partner
        if d != ga and d != ba:
            partner[a], partner[d], partner[b], partner[c] = d, a, c, b
            out += partner
        return
    if len(free) == 6:
        _, p, q, r, s, t = free
        for v, b, c, d, e in ((p, q, r, s, t), (q, p, r, s, t),
                              (r, p, q, s, t), (s, p, q, r, t),
                              (t, p, q, r, s)):
            if v == ga or v == ba:
                continue
            gv, bv = gend[v], bend[v]
            g2 = gv if b == ga else ga if b == gv else gend[b]
            b2 = bv if b == ba else ba if b == bv else bend[b]
            partner[a], partner[v] = v, a
            if c != g2 and c != b2:
                partner[b], partner[c], partner[d], partner[e] = c, b, e, d
                out += partner
            if d != g2 and d != b2:
                partner[b], partner[d], partner[c], partner[e] = d, b, e, c
                out += partner
            if e != g2 and e != b2:
                partner[b], partner[e], partner[c], partner[d] = e, b, d, c
                out += partner
        return
    for i in range(1, len(free)):
        v = free[i]
        if v == ga or v == ba:
            continue
        partner[a], partner[v] = v, a
        gv, bv = gend[v], bend[v]
        gend[ga], gend[gv] = gv, ga
        bend[ba], bend[bv] = bv, ba
        _search(partner, gend, bend, free[1:i] + free[i + 1:], out)
        gend[ga], gend[gv] = a, v
        bend[ba], bend[bv] = a, v


@cached
def _store(lam):
    """The good matchings of lam: one byte block and its parity bits.

    The block holds the partner arrays of the good matchings, each as one
    row of 2n + 1 bytes (byte 0 is 0), in lexicographic order, so lam has
    at most 127 boxes.  Byte k of the bits is 1 when every edge of the
    k-th matching mixes parities, that is when every unhatted (odd)
    vertex has a hatted (even) partner: after the search, each odd column
    is translated through _EVEN and the columns are ANDed as big ints.
    The search matches the smallest free vertex first and rejects any edge
    that would close a cycle in either colored union before the last
    step, where the single remaining path must close into the full cycle,
    so every leaf reached is good.
    """
    if not lam:
        raise EmptyPartition("a good matching needs at least one box")
    if lam.n > 127:
        raise DegreeTooLarge("degree %d exceeds 127, the largest whose"
                             " matchings fit in byte rows" % lam.n)
    graph = build_canonical(lam)
    width = 2 * lam.n + 1
    if lam.n < 2:
        block = bytes(graph.gray.partner)
    else:
        out = bytearray()
        _search(bytearray(width), list(graph.gray.partner),
                list(graph.black.partner), list(range(1, width)), out)
        block = bytes(out)
    bits = -1
    for u in range(1, width, 2):
        bits &= int.from_bytes(block[u::width].translate(_EVEN), "big")
    return block, bits.to_bytes(len(block) // width, "big")


def _rows(block, width):
    """Split a block into its rows of width bytes."""
    return [block[k:k + width] for k in range(0, len(block), width)]


def good_matchings(lam):
    """All good matchings in lexicographic partner order."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    return tuple(map(Matching._trusted,
                     map(tuple, _rows(_store(lam)[0], 2 * lam.n + 1))))


good_matchings.cache_info = _store.cache_info


def good_count(lam):
    """Number of good matchings of lam."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    return len(_store(lam)[1])


def _surgery(graph, a, v):
    """Delete a and v, rejoin their neighbours and walk what is left.

    Returns the reduced partition, the surviving cycles and the case tag:
    1 when v shares a's cycle unhatted, 2 when it shares it hatted, 3
    across cycles.  The cycles come in order of their smallest vertex,
    each as its vertices read gray edge first from that vertex.
    """
    gray, black = list(graph.gray.partner), list(graph.black.partner)
    if gray[a] == v or black[a] == v:
        raise AdjacentPair("%s and %s share an edge"
                           % (_label_text(a), _label_text(v)))
    cur = black[gray[a]]
    while cur != a and v not in (cur, gray[cur]):
        cur = black[gray[cur]]
    tag = 3 if cur == a else 2 - v % 2
    ga, gv, ba, bv = gray[a], gray[v], black[a], black[v]
    gray[ga], gray[gv] = gv, ga
    black[ba], black[bv] = bv, ba
    seen = [False] * len(gray)
    seen[a] = seen[v] = True
    cycles = []
    for start in range(1, len(gray)):
        if seen[start]:
            continue
        cycle = []
        cur = start
        while not seen[cur]:
            twin = gray[cur]
            seen[cur] = seen[twin] = True
            cycle += (cur, twin)
            cur = black[twin]
        cycles.append(cycle)
    return Partition([len(cycle) // 2 for cycle in cycles]), cycles, tag


def _reduce_graph(graph, a, v):
    """The surgery of a and v, with the relabeling of what is left.

    Returns the reduced partition, the relabeling and the case tag of
    ``_surgery``.  The surviving cycles go longest first, ties by smallest
    vertex, and each is read gray edge first from its smallest vertex, the
    smallest unhatted one when parities must survive; the relabeling's
    insertion order is the new-label order.  It depends only on the
    deleted pair, so every matching that pairs a with v shares it.
    """
    lam2, cycles, tag = _surgery(graph, a, v)
    cycles.sort(key=len, reverse=True)
    mapping = {}
    for cycle in cycles:
        if (a ^ v) & 1 and cycle[0] % 2 == 0:
            # every edge left mixes parities, so the unhatted vertices sit
            # at odd places, and a gray-first walk from one runs backwards
            i = cycle.index(min(cycle[1::2]))
            cycle = cycle[i::-1] + cycle[:i:-1]
        for w in cycle:
            mapping[w] = len(mapping) + 1
    return lam2, mapping, tag


def reduce(graph, delta, a, v):
    """Delete the matched pair {a, v} and relabel what is left.

    Gives back the smaller graph in canonical labels, the matching carried
    along the relabeling, and the case tag of the surgery.
    """
    if a not in range(1, delta.size + 1):
        raise UnmatchedPair("vertex %r is not one of 1..%d"
                            % (a, delta.size))
    if delta.of(a) != v:
        raise UnmatchedPair("%s and %s are not paired by %s"
                            % (_label_text(a), _label_text(v), delta.to_text()))
    lam2, mapping, tag = _reduce_graph(graph, a, v)
    new_delta = Matching(((mapping[x], mapping[y]) for x, y in delta.pairs()
                          if a not in (x, y) and v not in (x, y)), len(mapping))
    return build_canonical(lam2), new_delta, tag


@cached
def _weights(lam):
    """The weight of every good matching of lam, as bytes aligned with its rows.

    Deleting vertex 1 and its partner v lands on a good matching of the
    reduced partition, so the weight is [v unhatted] plus that matching's
    entry in the reduced table; the single good matching of (1) weighs 0.
    The rows are in lexicographic order and row[0] is 0, so the rows with
    first partner v form one contiguous slice of the block, as many rows
    long as column 1 holds v, and the surgery runs once per slice.  No
    table keyed on lam's own rows is built here; ``_weight_table`` builds
    one only when a higher degree or ``weight`` looks rows of lam up.
    One translate sends every old label of the slice to its new one, and
    each column of the reduced rows is copied from its old column by one
    extended slice, in the new-label order, giving each row's reduced row
    in place; the empty partition is refused by _store.
    """
    if lam.n == 1:
        return b"\0"
    block = _store(lam)[0]
    graph = build_canonical(lam)
    width = 2 * lam.n + 1
    width2 = width - 2
    firsts = block[1::width]
    weights = bytearray()
    start = 0
    for v in range(2, width):
        stop = start + firsts.count(v) * width
        if stop == start:
            continue
        lam2, mapping, _ = _reduce_graph(graph, 1, v)
        sub = _weight_table(lam2)
        seg = block[start:stop].translate(
            bytes.maketrans(bytes(mapping), bytes(mapping.values())))
        start = stop
        red = bytearray(len(seg) // width * width2)
        for new, old in enumerate(mapping, 1):
            red[new::width2] = seg[old::width]
        del seg  # at most two copies of the slice are alive at once
        try:
            weights.extend(map((v % 2).__add__, map(
                sub.__getitem__, _rows(bytes(red), width2))))
        except KeyError:
            raise BrokenInvariant(
                "%s: a matching with first partner %s reduces to no good"
                " matching" % (lam.to_text(), _label_text(v))) from None
    return bytes(weights)


@cached
def _weight_table(lam):
    """The weight of every good matching of lam, keyed on its byte row.

    Built only to look up the reduced rows of the next degree up and for
    ``weight``; the counts and distributions read ``_weights`` directly.
    """
    return dict(zip(_rows(_store(lam)[0], 2 * lam.n + 1), _weights(lam)))


def weight(lam, delta):
    """Count the unhatted partners met while deleting vertex 1 down to (1)."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    if not lam:
        raise EmptyPartition("the weight statistic needs at least one box")
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
    return v % 2 + _weight_table(reduced.lam)[bytes(delta2.partner)]


class MatchingEntry(NamedTuple):
    matching: Matching
    weight: int
    bipartite: bool


class WeightedMatchingSet(NamedTuple):
    """Every good matching of one partition with its statistics."""

    lam: Partition
    entries: tuple


def _generating_poly(weights):
    counts = Counter(weights)
    top = max(counts) if counts else 0
    return AlphaPoly([counts.get(k, 0) for k in range(top + 1)])


def enumerate_good(lam):
    """Every good matching of lam with its weight and parity."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    weights = _weights(lam)
    block, mixed = _store(lam)
    entries = tuple(MatchingEntry(Matching._trusted(tuple(row)), w, bool(bit))
                    for row, w, bit in zip(_rows(block, 2 * lam.n + 1),
                                           weights, mixed))
    if any((e.weight == 0) != e.bipartite for e in entries):
        raise BrokenInvariant("a weight of %s is 0 on a non-bipartite matching"
                              " or positive on a bipartite one" % lam.to_text())
    return WeightedMatchingSet(lam, entries)


def weight_distribution(lam):
    """Generating polynomial of the weight statistic over good matchings."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    return _generating_poly(_weights(lam))


def bipartite_count(lam):
    """Number of good matchings of lam whose edges all mix parities."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    check_degree(lam.n)
    return _store(lam)[1].count(1)


def counting_recurrence_check(lam, i):
    """Audit the counting recurrences by bucketing on one root's partner.

    The pivot is the first unhatted vertex of the i-th part block; its
    column of the store block holds each matching's root partner, so a
    bucket's size is one count over that column.  Every
    bucket of good matchings must biject with the good matchings of the
    reduced partition, bipartite ones matching only when the removed edge
    was parity-mixed, and the aggregated counts must reproduce both
    recurrence formulas.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if i not in range(1, len(lam) + 1):
        raise MissingPart("pivot %r is not a part index of %s, which has"
                          " parts 1..%d" % (i, lam.to_text(), len(lam)))
    check_degree(lam.n)
    graph = build_canonical(lam)
    root = 2 * sum(lam[:i - 1]) + 1
    block, mixed = _store(lam)
    good = len(mixed)
    bipartite = mixed.count(1)
    if lam.n == 1:
        # the root's one partner is its gray and black neighbour, so no
        # bucket reduces: the base case is one good matching, bipartite
        return good == 1 and bipartite == 1
    partners = block[root::2 * lam.n + 1]
    bip_partners = bytes(compress(partners, mixed))
    part = lam[i - 1]
    total_check = 0
    bip_check = 0
    for v in range(1, 2 * lam.n + 1):
        if v == root:
            continue
        if v in (graph.gray.of(root), graph.black.of(root)):
            if v in partners:
                return False
            continue
        mixed2 = _store(_surgery(graph, root, v)[0])[1]
        found = partners.count(v)
        if found != len(mixed2):
            return False
        found_bip = bip_partners.count(v)
        if found_bip != (mixed2.count(1) if v % 2 == 0 else 0):
            return False
        total_check += found
        bip_check += found_bip
    if total_check != good or bip_check != bipartite:
        return False
    agg = 0
    bip_agg = 0
    if part >= 2:
        agg += (part - 1) * len(_store(down_k(lam, part))[1])
    for d in range(1, part - 1):
        mixed2 = _store(up_kl(lam, part - 1 - d, d))[1]
        agg += len(mixed2)
        bip_agg += mixed2.count(1)
    for j, other in enumerate(lam):
        if j != i - 1:
            mixed2 = _store(down_kl(lam, part, other))[1]
            agg += 2 * other * len(mixed2)
            bip_agg += other * mixed2.count(1)
    return agg == good and bip_agg == bipartite
