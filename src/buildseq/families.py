"""Exhaustive graph families and relative constructability.

The constructability of a graph within a family compares its sequence
count against the family average; both are exact rationals.  Families
stream their members.  The average of a ``graphs:p:q`` family comes from
one walk over (vertices placed, edges placed) without listing a member;
other families sum their members' counts in O(1) memory.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .counting import count_dp
from .errors import LIMITS, _Record
from .graphs import Graph

__all__ = [
    "labeled_trees",
    "graphs_pq",
    "Family",
    "family_average",
    "constructability",
    "is_path_graph",
    "is_star_graph",
]


def _tree_from_word(n: int, word: Sequence[int]) -> Graph:
    # Standard decode: repeatedly join the smallest leaf to the next word
    # entry; the two survivors form the last edge.
    degree = [1] * (n + 1)
    for x in word:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in word:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, tuple(edges))


def labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on vertices 1..n, one per word of length
    n-2 over [n], in lexicographic word order."""
    LIMITS["trees"].check(n)
    for word in itertools.product(range(1, n + 1), repeat=n - 2):
        yield _tree_from_word(n, word)


def _check_pq(p: int, q: int) -> None:
    LIMITS["graphs_pq"].check(p)
    pairs = p * (p - 1) // 2
    if not 0 <= q <= pairs:
        raise ValueError(f"edge count {q} outside 0..{pairs} for p={p}")


def graphs_pq(p: int, q: int) -> Iterator[Graph]:
    """All simple graphs on vertices 1..p with exactly q edges, one per
    q-subset of the possible pairs, in lexicographic order."""
    _check_pq(p, q)
    pairs = itertools.combinations(range(1, p + 1), 2)
    for chosen in itertools.combinations(pairs, q):
        yield Graph(p, chosen)


class Family(_Record):
    """A duplicate-free exhaustive family of labeled graphs.

    ``kind`` is ``"trees"`` with params (n,), ``"graphs"`` with (p, q), or
    ``"explicit"`` with the member graphs; :meth:`trees`,
    :meth:`fixed_size` and :meth:`explicit` build each.  Construction
    checks the params as those do, and stores the sizes through
    ``operator.index``; iterating streams the members.
    """

    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple = ()) -> None:
        if kind == "trees":
            if len(params) != 1:
                raise ValueError(f"a trees family takes params (n,), got {params!r}")
            params = tuple(map(operator.index, params))
            LIMITS["trees"].check(*params)
        elif kind == "graphs":
            if len(params) != 2:
                raise ValueError(f"a graphs family takes params (p, q), got {params!r}")
            params = tuple(map(operator.index, params))
            _check_pq(*params)
        elif kind == "explicit":
            if not all(isinstance(g, Graph) for g in params):
                raise TypeError("explicit family members must be Graphs")
            if len(set(params)) != len(params):
                raise ValueError("explicit family contains duplicates")
        else:
            raise ValueError(f"family kind must be 'trees', 'graphs' or 'explicit', got {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    @classmethod
    def trees(cls, n: int) -> "Family":
        return cls("trees", (n,))

    @classmethod
    def fixed_size(cls, p: int, q: int) -> "Family":
        return cls("graphs", (p, q))

    @classmethod
    def explicit(cls, graphs: Sequence[Graph]) -> "Family":
        return cls("explicit", tuple(graphs))

    @property
    def label(self) -> str:
        if self.kind == "trees":
            return f"trees:{self.params[0]}"
        if self.kind == "graphs":
            return f"graphs:{self.params[0]}:{self.params[1]}"
        return f"explicit:{len(self.params)}"

    def __iter__(self) -> Iterator[Graph]:
        if self.kind == "trees":
            yield from labeled_trees(self.params[0])
        elif self.kind == "graphs":
            yield from graphs_pq(*self.params)
        else:
            yield from self.params

    def contains(self, g: Graph) -> bool:
        """Membership by labeled identity."""
        if self.kind == "trees":
            return g.p == self.params[0] and _is_tree(g)
        if self.kind == "graphs":
            p, q = self.params
            return not g.multigraph and g.p == p and g.q == q
        return g in self.params


def _graphs_pq_pairs(p: int, q: int) -> int:
    """The number of (member, construction sequence) pairs of ``graphs:p:q``,
    that is, the sum of ``count_dp`` over its members, in O(p*q) steps."""
    _check_pq(p, q)
    # walks[m] counts the walks from (0, 0) to (k, m).  Row k overwrites row
    # k - 1 in place: (k, m) is reached from (k - 1, m) by a vertex or from
    # (k, m - 1) by an edge.  An unreachable state (m > C(k, 2)) holds 0, so
    # its negative choice count adds nothing.
    walks = [1] + [0] * q
    for k in range(1, p + 1):
        walks[0] *= p - k + 1
        placeable = k * (k - 1) // 2
        for m in range(1, q + 1):
            walks[m] = walks[m] * (p - k + 1) + walks[m - 1] * (placeable - m + 1)
    return walks[q]


def family_average(family: Family) -> Fraction:
    """Exact average sequence count over the family.

    A ``graphs:p:q`` family is averaged without listing a member.  A pair
    (member, construction sequence) is a walk from (0, 0) to (p, q) over
    states (k vertices placed, m edges placed): a step places one of the
    p - k vertices left, or one of the C(k, 2) - m pairs of placed vertices
    not yet an edge.  Each walk picks exactly q pairs, so it names one member
    and one of its sequences, and every such pair is one walk.  The average
    is the number of walks over the C(C(p, 2), q) members.  Other families
    sum their members' counts.
    """
    if family.kind == "graphs":
        p, q = family.params
        return Fraction(_graphs_pq_pairs(p, q), math.comb(p * (p - 1) // 2, q))
    total = 0
    size = 0
    for member in family:
        total += count_dp(member)
        size += 1
    if size == 0:
        raise ValueError("family is empty")
    return Fraction(total, size)


def constructability(g: Graph, family: Family) -> Fraction:
    """Sequence count of ``g`` divided by the family average, exact.

    ``g`` must belong to the family (labeled identity).
    """
    if not family.contains(g):
        raise ValueError(f"graph is not a member of family {family.label}")
    return Fraction(count_dp(g)) / family_average(family)


def _is_tree(g: Graph) -> bool:
    """Simple, connected and with q = p - 1 edges, so acyclic."""
    return not g.multigraph and g.q == g.p - 1 and g.is_connected()


def is_path_graph(g: Graph) -> bool:
    """Connected, acyclic, and no vertex of degree above 2."""
    return _is_tree(g) and (g.p == 1 or g.max_degree() <= 2)


def is_star_graph(g: Graph) -> bool:
    """Connected with every edge sharing one hub vertex (single vertex counts)."""
    return _is_tree(g) and (g.p <= 2 or g.max_degree() == g.p - 1)
