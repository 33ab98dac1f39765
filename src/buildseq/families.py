"""Exhaustive graph families and relative constructability.

The constructability of a graph within a family compares its sequence
count against the family average; both are exact rationals.  Families
stream their members, so the average folds in O(1) memory.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .counting import count_dp
from .errors import check_range
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

MAX_TREE_VERTICES = 8
MAX_PQ_VERTICES = 7


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
    check_range("n", n, 2, MAX_TREE_VERTICES)
    for word in itertools.product(range(1, n + 1), repeat=n - 2):
        yield _tree_from_word(n, word)


def graphs_pq(p: int, q: int) -> Iterator[Graph]:
    """All simple graphs on vertices 1..p with exactly q edges, one per
    q-subset of the possible pairs, in lexicographic order."""
    check_range("p", p, 1, MAX_PQ_VERTICES)
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    if not 0 <= q <= len(pairs):
        raise ValueError(f"edge count {q} outside 0..{len(pairs)} for p={p}")
    for chosen in itertools.combinations(pairs, q):
        yield Graph(p, chosen)


@dataclass(frozen=True)
class Family:
    """A duplicate-free exhaustive family of labeled graphs.

    Built through :meth:`trees`, :meth:`fixed_size`, or :meth:`explicit`;
    iterating streams the members.
    """

    kind: str
    params: tuple = ()

    @classmethod
    def trees(cls, n: int) -> "Family":
        check_range("n", n, 2, MAX_TREE_VERTICES)
        return cls("trees", (n,))

    @classmethod
    def fixed_size(cls, p: int, q: int) -> "Family":
        check_range("p", p, 1, MAX_PQ_VERTICES)
        if not 0 <= q <= p * (p - 1) // 2:
            raise ValueError(f"edge count {q} outside 0..{p * (p - 1) // 2} for p={p}")
        return cls("graphs", (p, q))

    @classmethod
    def explicit(cls, graphs: Sequence[Graph]) -> "Family":
        members = tuple(graphs)
        if len(set(members)) != len(members):
            raise ValueError("explicit family contains duplicates")
        return cls("explicit", members)

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
            (n,) = self.params
            return not g.multigraph and g.p == n and g.q == n - 1 and g.is_connected()
        if self.kind == "graphs":
            p, q = self.params
            return not g.multigraph and g.p == p and g.q == q
        return g in self.params


def family_average(family: Family) -> Fraction:
    """Exact average sequence count over the family."""
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


def is_path_graph(g: Graph) -> bool:
    """Connected, acyclic, and no vertex of degree above 2."""
    if g.multigraph or g.q != g.p - 1 or not g.is_connected():
        return False
    return g.p == 1 or g.max_degree() <= 2


def is_star_graph(g: Graph) -> bool:
    """Connected with every edge sharing one hub vertex (single vertex counts)."""
    if g.multigraph or g.q != g.p - 1 or not g.is_connected():
        return False
    return g.p <= 2 or g.max_degree() == g.p - 1
