"""Independent answer routes for the benchmark.

Nothing here calls the package's subset DPs, enumerators, optimizer or
poset engine.  The routes are:

* a DP over vertex subsets only, from the hook-length formula for forests:
  fixing the order in which vertices are placed turns the incidence poset of
  a (hyper)graph into a forest, so with N elements, h(S) = N - |S| - e(S) and
  d = e(S+v) - e(S),  C(S) = sum_v C(S+v) * (h(S)-1)(h(S)-2)...(h(S)-d).
  C(empty) is the total count and C({b}) (times a falling factorial for
  loops at b) is the count based at b;
* the matching min-cost DP over vertex subsets: a minimizer places every
  edge as soon as it becomes available (swapping a vertex with an edge that
  was available before it lowers the cost by 2 + deg), so a minimizer is a
  vertex order followed block-wise by the d newly available edges, in any
  of d! orders;
* a forward DP over downsets (adding minimal elements), used only to pin
  face-poset reference values;
* direct definitions of validity, costs, component profiles and greedy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Edge = tuple[int, ...]


class SubsetTables:
    """Counts and min-cost data of a (hyper)graph on vertices 1..p."""

    def __init__(self, p: int, hyperedges: Sequence[Edge]) -> None:
        self.p = p
        self.hyperedges = [tuple(h) for h in hyperedges]
        self.n_elements = p + len(self.hyperedges)
        masks = [sum(1 << (v - 1) for v in set(h)) for h in self.hyperedges]
        # rest[v]: for each hyperedge containing v, the mask of its other members
        self.rest: list[list[int]] = [[] for _ in range(p)]
        for m in masks:
            for v in range(p):
                if m >> v & 1:
                    self.rest[v].append(m & ~(1 << v))
        self.degree = [0] * p
        for h in self.hyperedges:
            for v in h:
                self.degree[v - 1] += 1
        size = 1 << p
        self.edges_in = edges_in = [0] * size
        for s in range(1, size):
            low = (s & -s).bit_length() - 1
            edges_in[s] = edges_in[s & (s - 1)] + self._opened(s & (s - 1), low)

    def _opened(self, s: int, v: int) -> int:
        """Hyperedges that placing vertex v on top of set s makes available."""
        return sum(1 for r in self.rest[v] if not r & ~s)

    def counts(self) -> list[int]:
        """C(S) for every vertex subset S."""
        p, n, edges_in = self.p, self.n_elements, self.edges_in
        full = (1 << p) - 1
        c = [0] * (full + 1)
        c[full] = 1
        for s in range(full - 1, -1, -1):
            h = n - s.bit_count() - edges_in[s]
            total = 0
            for v in range(p):
                if not s >> v & 1:
                    t = s | 1 << v
                    total += c[t] * math.perm(h - 1, edges_in[t] - edges_in[s])
            c[s] = total
        return c

    def total_count(self) -> int:
        return self.counts()[0]

    def based_counts(self) -> list[int]:
        """Count of sequences starting with vertex b, for b = 1..p."""
        c = self.counts()
        return [
            c[1 << b] * math.perm(self.n_elements - 1, self.edges_in[1 << b])
            for b in range(self.p)
        ]

    def min_cost(self) -> "MinCost":
        """Minimum total cost, the number of minimizers, the number of
        minimizing vertex orders, and the number of sequences that never
        place a vertex while an edge is available (greedy-reachable)."""
        p, edges_in, deg = self.p, self.edges_in, self.degree
        full = (1 << p) - 1
        best = [0] * (full + 1)
        ways = [0] * (full + 1)
        orders = [0] * (full + 1)
        greedy = [0] * (full + 1)
        ways[full] = orders[full] = greedy[full] = 1
        for s in range(full - 1, -1, -1):
            pos = s.bit_count() + edges_in[s] + 1
            b = None
            w = o = g = 0
            for v in range(p):
                if s >> v & 1:
                    continue
                t = s | 1 << v
                d = edges_in[t] - edges_in[s]
                step = -deg[v] * pos + 2 * (d * pos + d * (d + 1) // 2) + best[t]
                mult = math.factorial(d)
                g += mult * greedy[t]
                if b is None or step < b:
                    b, w, o = step, mult * ways[t], orders[t]
                elif step == b:
                    w += mult * ways[t]
                    o += orders[t]
            best[s], ways[s], orders[s], greedy[s] = b, w, o, g
        return MinCost(best, ways, orders, greedy)


class MinCost:
    def __init__(self, best, ways, orders, greedy) -> None:
        self.best = best
        self.ways = ways
        self.orders = orders
        self.greedy = greedy

    @property
    def value(self) -> int:
        return self.best[0]

    @property
    def num_optimal(self) -> int:
        return self.ways[0]

    @property
    def num_optimal_orders(self) -> int:
        return self.orders[0]

    @property
    def num_greedy(self) -> int:
        return self.greedy[0]


def first_optimal_sequences(p: int, edges: Sequence[Edge], k: int) -> list[list[str]]:
    """The k lexicographically first minimum-cost sequences, as tokens.

    Element order is v1..vp then e1..eq.  After each vertex the edges it
    opens must follow as a block; among orders, only vertices that keep the
    remaining cost optimal may come next.
    """
    tables = SubsetTables(p, edges)
    mc = tables.min_cost()
    deg = tables.degree
    masks = [sum(1 << (v - 1) for v in set(e)) for e in edges]
    found: list[list[str]] = []
    prefix: list[str] = []

    def walk(s: int, placed_edges: int) -> None:
        if len(found) >= k:
            return
        if len(prefix) == tables.n_elements:
            found.append(list(prefix))
            return
        open_edges = [
            j for j, m in enumerate(masks) if not placed_edges >> j & 1 and not m & ~s
        ]
        if open_edges:
            for j in open_edges:
                prefix.append(f"e{j + 1}")
                walk(s, placed_edges | 1 << j)
                prefix.pop()
            return
        pos = s.bit_count() + tables.edges_in[s] + 1
        for v in range(p):
            if s >> v & 1:
                continue
            t = s | 1 << v
            d = tables.edges_in[t] - tables.edges_in[s]
            step = -deg[v] * pos + 2 * (d * pos + d * (d + 1) // 2) + mc.best[t]
            if step == mc.best[s]:
                prefix.append(f"v{v + 1}")
                walk(t, placed_edges)
                prefix.pop()

    walk(0, 0)
    return found


def all_sequences(p: int, edges: Sequence[Edge]) -> list[str]:
    """Every construction sequence in lexicographic element order, formatted
    as space-separated tokens."""
    tokens = [f"v{i}" for i in range(1, p + 1)] + [f"e{j}" for j in range(1, len(edges) + 1)]
    need = [0] * p + [sum(1 << (v - 1) for v in set(e)) for e in edges]
    n = len(tokens)
    out: list[str] = []
    prefix: list[str] = []

    def extend(seen: int) -> None:
        if len(prefix) == n:
            out.append(" ".join(prefix))
            return
        for code in range(n):
            if not seen >> code & 1 and not need[code] & ~seen:
                prefix.append(tokens[code])
                extend(seen | 1 << code)
                prefix.pop()

    extend(0)
    return out


# ---------------------------------------------------------------------------
# Sequences


def positions(tokens: Sequence[str]) -> dict[str, int]:
    return {tok: i for i, tok in enumerate(tokens, start=1)}


def violation_count(p: int, edges: Sequence[Edge], tokens: Sequence[str]) -> int:
    """0 for a valid sequence; 1 for a non-permutation; otherwise the number
    of (edge, endpoint) pairs in the wrong order."""
    expected = {f"v{i}" for i in range(1, p + 1)} | {f"e{j}" for j in range(1, len(edges) + 1)}
    if len(tokens) != len(expected) or set(tokens) != expected:
        return 1
    pos = positions(tokens)
    return sum(
        1
        for j, e in enumerate(edges, start=1)
        for v in set(e)
        if pos[f"v{v}"] > pos[f"e{j}"]
    )


def edge_costs(edges: Sequence[Edge], tokens: Sequence[str]) -> dict[str, int]:
    pos = positions(tokens)
    return {
        f"e{j}": 2 * pos[f"e{j}"] - pos[f"v{u}"] - pos[f"v{w}"]
        for j, (u, w) in enumerate(edges, start=1)
    }


def total_cost(edges: Sequence[Edge], tokens: Sequence[str]) -> int:
    return sum(edge_costs(edges, tokens).values())


def vertex_cost(p: int, edges: Sequence[Edge], tokens: Sequence[str]) -> Fraction | None:
    """Sum over vertices of (incident edge positions - own position) / degree;
    None when a vertex is isolated."""
    pos = positions(tokens)
    total = Fraction(0)
    for v in range(1, p + 1):
        incident = [j for j, e in enumerate(edges, start=1) if v in e]
        deg = sum(e.count(v) for e in edges)
        if deg == 0:
            return None
        total += Fraction(sum(pos[f"e{j}"] for j in incident) - pos[f"v{v}"], deg)
    return total


def component_counts(p: int, edges: Sequence[Edge], tokens: Sequence[str]) -> list[int]:
    label = list(range(p + 1))
    counts = []
    current = 0
    for tok in tokens:
        if tok[0] == "v":
            current += 1
        else:
            u, w = edges[int(tok[1:]) - 1]
            a, b = label[u], label[w]
            if a != b:
                label = [a if x == b else x for x in label]
                current -= 1
        counts.append(current)
    return counts


def short_form(tokens: Sequence[str], hub_zero: bool) -> str:
    return "".join(
        str(int(t[1:]) - hub_zero) if t[0] == "v" else f"{t[1:]}'" for t in tokens
    )


def greedy_sequence(
    p: int, edges: Sequence[Edge], order: Sequence[int], policy: str
) -> list[str]:
    """Greedy build for the deterministic policies: emit an available edge
    whenever there is one (smallest id, or for cycle-avoiding the smallest id
    joining two components if any), else the next vertex of the order."""
    placed: set[int] = set()
    unplaced = list(range(1, len(edges) + 1))
    label = list(range(p + 1))
    out: list[str] = []
    vertices = iter(order)
    while len(out) < p + len(edges):
        available = [j for j in unplaced if all(v in placed for v in edges[j - 1])]
        if available:
            chosen = available[0]
            if policy == "cycle-avoiding":
                joining = [
                    j for j in available
                    if label[edges[j - 1][0]] != label[edges[j - 1][1]]
                ]
                chosen = joining[0] if joining else available[0]
            u, w = edges[chosen - 1]
            a, b = label[u], label[w]
            label = [a if x == b else x for x in label]
            unplaced.remove(chosen)
            out.append(f"e{chosen}")
        else:
            v = next(vertices)
            placed.add(v)
            out.append(f"v{v}")
    return out


def is_greedy_run(p: int, edges: Sequence[Edge], order: Sequence[int], tokens: Sequence[str]) -> bool:
    """True when the sequence is valid, follows the vertex order, and never
    places a vertex while an edge is available."""
    if violation_count(p, edges, tokens):
        return False
    placed: set[int] = set()
    placed_edges: set[int] = set()
    vertices = [int(t[1:]) for t in tokens if t[0] == "v"]
    if vertices != list(order):
        return False
    for tok in tokens:
        if tok[0] == "v":
            if any(
                j not in placed_edges and all(v in placed for v in e)
                for j, e in enumerate(edges, start=1)
            ):
                return False
            placed.add(int(tok[1:]))
        else:
            placed_edges.add(int(tok[1:]))
    return True


# ---------------------------------------------------------------------------
# Families and posets


def prufer_tree(n: int, word: Sequence[int]) -> list[Edge]:
    """Labelled tree of a Prufer word: join the smallest leaf to each word
    entry in turn; the last two leaves form the final edge."""
    degree = [1] * (n + 1)
    for x in word:
        degree[x] += 1
    edges = []
    for x in word:
        leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    u, w = [v for v in range(1, n + 1) if degree[v] == 1]
    edges.append((u, w))
    return [(min(e), max(e)) for e in edges]


def linear_extensions(n: int, covers: Sequence[tuple[int, int]]) -> int:
    """Linear extensions by a forward DP over downsets, level by level."""
    below = [0] * n
    for lo, hi in covers:
        below[hi] |= 1 << lo
    level = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for down, ways in level.items():
            for x in range(n):
                if not down >> x & 1 and not below[x] & ~down:
                    key = down | 1 << x
                    nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    return sum(level.values())
