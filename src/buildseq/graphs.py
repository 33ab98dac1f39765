"""Labeled multigraphs, standard families, and composition operators.

Vertices carry labels 1..p; edges are stored as an ordered list and edge j
means the j-th entry (1-based), so edge identity survives relabeling.
Simple mode (the default) rejects loops and parallel edges; multigraph mode
admits both, which the one- and two-vertex cycles need.

The element set of a graph is its vertices and edges together; elements are
addressed by :class:`Element` values such as ``v3`` or ``e1``, and inside the
package by the integer codes of :meth:`Graph.code`.
"""
from __future__ import annotations

import itertools
import operator
from functools import total_ordering
from typing import Any, Iterable, Iterator, Sequence

from .errors import LIMITS, _index, _permutation, _Record
from .posets import Poset, _text_lines, poset_from_hypergraph

__all__ = [
    "Element",
    "Graph",
    "build_family",
    "disjoint_union",
    "wedge",
    "relabel",
    "incidence_poset",
    "parse_graph",
    "format_graph",
    "MAX_FAMILY_SIZE",
]

#: Most elements (vertices plus edges) one family spec builds, summed over its base parts.
MAX_FAMILY_SIZE = LIMITS["family_spec"].value


@total_ordering
class Element(_Record):
    """A vertex or edge reference: kind ``"v"`` with index in 1..p, or
    kind ``"e"`` with index in 1..q.

    Ordering puts all vertices before all edges, each class by index; this
    is the lexicographic element order used by the enumerators.
    """

    __slots__ = _fields = ("kind", "index")

    def __init__(self, kind: str, index: int) -> None:
        if kind not in ("v", "e"):
            raise ValueError(f"element kind must be 'v' or 'e', got {kind!r}")
        index = operator.index(index)
        if index < 1:
            raise ValueError(f"element index must be >= 1, got {index}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    @classmethod
    def vertex(cls, i: int) -> "Element":
        return cls("v", i)

    @classmethod
    def edge(cls, j: int) -> "Element":
        return cls("e", j)

    @classmethod
    def from_token(cls, token: str) -> "Element":
        """Parse a token such as ``v3`` or ``e12``."""
        if len(token) < 2 or token[0] not in ("v", "e") or not token[1:].isdecimal():
            raise ValueError(f"bad element token {token!r}; expected v<i> or e<j>")
        return cls(token[0], int(token[1:]))

    @property
    def is_vertex(self) -> bool:
        return self.kind == "v"

    @property
    def is_edge(self) -> bool:
        return self.kind == "e"

    def sort_key(self) -> tuple[int, int]:
        return (0 if self.kind == "v" else 1, self.index)

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


class _UnionFind:
    """Union-find over vertices 1..p with path halving."""

    def __init__(self, p: int) -> None:
        self.parent = list(range(p + 1))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False if already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class Graph(_Record):
    """Labeled graph with vertex set {1..p} and an ordered edge list.

    Edge endpoints are normalized to (min, max) pairs; a loop repeats its
    endpoint.  Edge j refers to ``edges[j-1]``.
    """

    __slots__ = _fields = ("p", "edges", "multigraph")

    def __init__(self, p: int, edges: tuple[tuple[int, int], ...] = (), multigraph: bool = False) -> None:
        """Check and normalize the edges: every construction, copy and pickle
        passes here.  Every range error comes before any loop or duplicate."""
        p = operator.index(p)
        if p < 0:
            raise ValueError(f"vertex count must be >= 0, got {p}")
        normalized = []
        for j, pair in enumerate(edges, start=1):
            u, w = pair
            u, w = operator.index(u), operator.index(w)
            if not (1 <= u <= p and 1 <= w <= p):
                raise ValueError(f"edge {j} endpoints {{{u},{w}}} outside 1..{p}")
            normalized.append((u, w) if u <= w else (w, u))
        if not multigraph:
            seen: set[tuple[int, int]] = set()
            for j, (u, w) in enumerate(normalized, start=1):
                if u == w:
                    raise ValueError(f"edge {j} is a loop at {u}; requires multigraph mode")
                if (u, w) in seen:
                    raise ValueError(
                        f"edge {j} duplicates {{{u},{w}}}; requires multigraph mode"
                    )
                seen.add((u, w))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "multigraph", multigraph)

    @property
    def q(self) -> int:
        return len(self.edges)

    @property
    def element_count(self) -> int:
        return self.p + len(self.edges)

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return self.edges[_index(edge_id, self.q, "edge id") - 1]

    def degree(self, v: int) -> int:
        """Standard degree; a loop contributes 2."""
        v = _index(v, self.p, "vertex")
        return sum((u == v) + (w == v) for u, w in self.edges)

    def degrees(self) -> list[int]:
        out = [0] * (self.p + 1)
        for u, w in self.edges:
            out[u] += 1
            out[w] += 1
        return out[1:]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Ids of edges touching v; a loop appears once."""
        v = _index(v, self.p, "vertex")
        return tuple(j for j, (u, w) in enumerate(self.edges, start=1) if v in (u, w))

    def max_degree(self) -> int:
        if self.p == 0:
            raise ValueError("no vertices")
        return max(self.degrees())

    def elements(self) -> list[Element]:
        """All elements in lexicographic order: v1..vp, then e1..eq."""
        return [Element.vertex(i) for i in range(1, self.p + 1)] + [
            Element.edge(j) for j in range(1, self.q + 1)
        ]

    def code(self, el: Element) -> int:
        """Element code: vertex i is i-1 and edge j is p+j-1, so codes run
        over 0..p+q-1 in lexicographic element order; -1 for an element
        this graph lacks."""
        if el.kind == "v":
            return el.index - 1 if el.index <= self.p else -1
        return self.p + el.index - 1 if el.index <= len(self.edges) else -1

    def endpoint_masks(self) -> list[int]:
        """Per element code, the set of vertex codes (bit c for code c) that
        must be placed before it: the endpoints of an edge, none for a vertex."""
        return [0] * self.p + [(1 << (u - 1)) | (1 << (w - 1)) for u, w in self.edges]

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def component_count(self) -> int:
        components = _UnionFind(self.p)
        return self.p - sum(components.union(u, w) for u, w in self.edges)


# ---------------------------------------------------------------------------
# Families


def _path(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(1, n))


def _star(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((1, i + 1) for i in range(1, n + 1))


def _cycle(n: int) -> tuple[tuple[int, int], ...]:
    return _path(n) + ((n, 1),)  # a loop for n = 1, a doubled edge for n = 2


def _complete(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(1, n + 1), 2))


# Edge builder and shape (vertex count, edge count) of each base family.
_BASE_FAMILIES = {
    "path": (_path, lambda n: (n, n - 1)),
    "star": (_star, lambda n: (n + 1, n)),
    "cycle": (_cycle, lambda n: (n, n)),
    "complete": (_complete, lambda n: (n, n * (n - 1) // 2)),
}


def build_family(spec: str) -> Graph:
    """Build a graph from a textual constructor, folding its plan.

    Grammar::

        spec    := base ':' n
                 | 'union(' spec (',' spec)* ')'
                 | 'wedge(' spec '@' v (',' spec '@' v)* ')'
        base    := 'path' | 'star' | 'cycle' | 'complete'

    Canonical labelings: path vertices 1..n in path order with edge i
    joining {i, i+1}; star hub 1 with edge i joining {1, i+1}; cycle as the
    path plus closing edge n joining {n, 1}; complete with edges in
    lexicographic endpoint order.  ``cycle:1`` and ``cycle:2`` come out as
    multigraphs (a loop, resp. a doubled edge).
    """
    return _build(_family_plan(spec))


def _build(plan: Iterable[tuple[str, Any, tuple[int, int]]]) -> Graph:
    """The graph of a :func:`_family_plan`, listed or not.  Parts fold as
    (p, edges) pairs into one :class:`Graph`, validated once; each level
    relabels the edges below it, so depth d over E edges costs O(d * E)."""
    stack: list[tuple[int, tuple[tuple[int, int], ...]]] = []  # (p, edges) per part
    multigraph = False
    for name, arg, (p, _) in plan:
        if name in _BASE_FAMILIES:
            stack.append((p, _BASE_FAMILIES[name][0](arg)))
            multigraph = multigraph or (name == "cycle" and arg <= 2)
        else:  # the parts on top of the stack become their union or wedge
            stack[-len(arg) :] = [_compose(stack[-len(arg) :], arg if name == "wedge" else None)]
    return Graph(*stack[0], multigraph=multigraph)


def _family_plan(spec: str) -> Iterator[tuple[str, Any, tuple[int, int]]]:
    """The spec in postfix order, each step with the (p, q) it makes:
    ``(family, n, shape)`` for a base part and ``(kind, base points, shape)``
    for a union (all 1) or wedge once its parts are out and its base points
    are checked, as :func:`wedge` checks them.  The last step's shape is
    the graph's, and a plan of one step is one base part.  A step is
    yielded, after the element budget check for a base part, as soon as its
    text is read, so a fold raises in the same order as one pass over the
    text.  The parse moves one index through the text and slices it only
    for a name, a number or an error message: it is linear."""
    calls: list[tuple[str, list[int], list[tuple[int, int]]]] = []
    elements = 0
    text = spec.strip()
    at = 0
    while True:
        at = _skip_space(text, at)
        if text.startswith(("union(", "wedge("), at):
            calls.append((text[at : at + 5], [], []))
            at += 6
            continue
        colon = text.find(":", at)
        if colon < 0:
            raise ValueError(f"malformed family spec {text[at:]!r}")
        name = text[at:colon].strip()
        if name not in _BASE_FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        n, end = _take_number(text, colon + 1, "family spec {!r} is missing its size", at)
        if n < 1:
            raise ValueError(f"family size must be >= 1, got {n}")
        at = end
        shape = _BASE_FAMILIES[name][1](n)
        elements += sum(shape)
        LIMITS["family_spec"].check(elements)
        yield name, n, shape
        # Hand the part to the innermost open call; each ')' closes one.
        while calls:
            kind, bases, shapes = calls[-1]
            at = _skip_space(text, at)
            base = 1
            if kind == "wedge":
                if not text.startswith("@", at):
                    raise ValueError("wedge parts need a base point, e.g. wedge(path:2@1, ...)")
                base, end = _take_number(text, at + 1, "bad base point in {!r}", at)
                at = _skip_space(text, end)
            bases.append(base)
            shapes.append(shape)
            if text.startswith(",", at):
                at += 1
                break
            if not text.startswith(")", at):
                raise ValueError(f"expected ',' or ')' in family spec near {text[at:]!r}")
            at += 1
            calls.pop()
            for (p, _), base in zip(shapes, bases):
                _index(base, p, "base vertex")  # a union's base points are all 1
            merged = len(shapes) - 1 if kind == "wedge" else 0  # base points become one vertex
            shape = (sum(p for p, _ in shapes) - merged, sum(q for _, q in shapes))
            yield kind, bases, shape
        if not calls:
            if at < len(text):
                raise ValueError(f"trailing text {text[at:]!r} after family spec")
            return


def _skip_space(text: str, at: int) -> int:
    while at < len(text) and text[at].isspace():
        at += 1
    return at


def _take_number(text: str, start: int, error: str, context: int) -> tuple[int, int]:
    """The decimal number at ``text[start:]`` and the index after it; a
    missing number is an error that quotes the text from ``context`` on."""
    end = start
    while end < len(text) and text[end].isdecimal():
        end += 1
    if end == start:
        raise ValueError(error.format(text[context:]))
    return int(text[start:end]), end


# ---------------------------------------------------------------------------
# Composition operators


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union with block-wise shifted labels and edge ids."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    composed = _compose([(g.p, g.edges) for g in graphs], None)
    return Graph(*composed, multigraph=any(g.multigraph for g in graphs))


def wedge(parts: Sequence[tuple[Graph, int]]) -> Graph:
    """Identify one base vertex of every part into vertex 1 of the result.

    Non-base vertices keep their relative order and are shifted block-wise,
    so the result has 1 + sum(part element counts - 1) elements.
    """
    if not parts:
        raise ValueError("wedge needs at least one part")
    bases = [_index(base, g.p, "base vertex") for g, base in parts]
    composed = _compose([(g.p, g.edges) for g, _ in parts], bases)
    return Graph(*composed, multigraph=any(g.multigraph for g, _ in parts))


def _compose(
    parts: Sequence[tuple[int, tuple[tuple[int, int], ...]]], bases: Sequence[int] | None
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(p, edges) of the :func:`disjoint_union` of the (p, edges) parts or,
    given their base points, of their :func:`wedge`."""
    edges: list[tuple[int, int]] = []
    top = 0 if bases is None else 1  # the highest label in use; a wedge's bases take 1
    for i, (p, part) in enumerate(parts):
        base = p + 1 if bases is None else bases[i]  # past the last vertex: no base
        label = [*range(top, top + base), 1, *range(top + base, top + p)]  # v -> label[v]
        edges.extend((label[u], label[w]) for u, w in part)
        top += p - (base <= p)
    return top, tuple(edges)


def relabel(g: Graph, sigma: Sequence[int]) -> Graph:
    """Rename vertex i to sigma[i-1]; edge ids are preserved."""
    sigma = _permutation(sigma, 1, g.p, "sigma is not a permutation of 1..p")
    return Graph(
        g.p,
        tuple((sigma[u - 1], sigma[w - 1]) for u, w in g.edges),
        multigraph=g.multigraph,
    )


def incidence_poset(g: Graph) -> Poset:
    """Height-2 poset with vertices minimal and each edge above its endpoints.

    A loop yields a single cover.  Poset elements are the element codes of
    :meth:`Graph.code`: 0..p-1 the vertices, p..p+q-1 the edges.
    """
    return poset_from_hypergraph(g.p, g.edges)


# ---------------------------------------------------------------------------
# Text format


def parse_graph(text: str) -> Graph:
    """Read the graph text format: first line ``p q``, then q lines ``u w``
    (1-based; a loop is ``u u``).  ``#`` starts a comment line.

    Files containing loops or parallel edges come back in multigraph mode.
    """
    lines = _text_lines(text, "graph")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'p q', got {lines[0]!r}")
    p, q = int(head[0]), int(head[1])
    if len(lines) - 1 != q:
        raise ValueError(f"expected {q} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u w', got {line!r}")
        u, w = int(parts[0]), int(parts[1])
        edges.append((u, w) if u <= w else (w, u))
    plain = all(u != w for u, w in edges) and len(set(edges)) == len(edges)
    return Graph(p, tuple(edges), multigraph=not plain)


def format_graph(g: Graph) -> str:
    lines = [f"{g.p} {g.q}"]
    lines.extend(f"{u} {w}" for u, w in g.edges)
    return "\n".join(lines) + "\n"
