"""One matching at a time, kept for the tests as independent oracles.

The package reads parities and weights off each partition's store a
column at a time, and reduces a whole first-partner slice of rows by one
translate.  is_bipartite below reads one Matching's edges, reduce carries
one Matching through the surgery of one pair, and deletion_weight counts
the weight by its definition, reducing one pair at a time down to (1),
so the tests can check the stores and the weight tables against them.
"""

from jackcc.matchings import Matching, _reduce_graph, build_canonical
from jackcc.partitions import Partition


def is_bipartite(delta):
    """True when every edge of delta joins an unhatted vertex to a hatted one."""
    return all(v % 2 != delta.of(v) % 2 for v in range(1, delta.size + 1))


def reduce(graph, delta, a, v):
    """Delete the pair {a, v} of delta and relabel what is left.

    Gives back the smaller graph in canonical labels, the matching carried
    along the relabeling, and the case tag of the surgery.
    """
    lam2, mapping, tag = _reduce_graph(graph, a, v)
    new_delta = Matching(((mapping[x], mapping[y]) for x, y in delta.pairs()
                          if a not in (x, y) and v not in (x, y)), len(mapping))
    return build_canonical(lam2), new_delta, tag


def deletion_weight(lam, delta):
    """The weight by its definition: delete vertex 1 and its partner down to (1)."""
    graph = build_canonical(lam)
    total = 0
    while graph.lam != Partition([1]):
        v = delta.of(1)
        if v % 2 == 1:
            total += 1
        graph, delta, _ = reduce(graph, delta, 1, v)
    return total
