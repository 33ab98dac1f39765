"""Construction sequences and their cost functionals.

A construction sequence for a graph lists all vertices and edges exactly
once, with every edge appearing after both of its endpoints.  This module
owns the validated sequence type, per-prefix component profiles, the edge
and vertex cost measures, the continuous-time variant, the up-down
permutation bijection for paths, and vertices-first sequences.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import LIMITS, IsolatedVertexError, _permutation, _Record
from .graphs import Element, Graph, _path, _UnionFind

__all__ = [
    "CSeq",
    "Violation",
    "validate",
    "ComponentProfile",
    "component_profile",
    "edge_cost",
    "total_cost",
    "vertex_delay",
    "vertex_cost",
    "TimeAssignment",
    "continuous_cost",
    "is_updown",
    "to_updown_permutation",
    "from_updown_permutation",
    "vertices_first_sequence",
    "parse_sequence",
    "format_sequence",
    "short_form",
]

_NAMED_MISSING = 20  # missing elements a not-permutation message names


class Violation(_Record):
    """One reason a candidate sequence fails to be a construction sequence:
    ``kind`` is ``"not-permutation"`` or ``"edge-before-endpoint"``."""

    __slots__ = _fields = ("kind", "message", "edge", "vertex")

    def __init__(self, kind: str, message: str, edge: int | None = None, vertex: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "vertex", vertex)

    def __str__(self) -> str:
        return self.message


def validate(graph: Graph, elements: Sequence[Element]) -> list[Violation]:
    """Check a candidate sequence; an empty result means valid.

    A valid sequence is a permutation of the graph's elements in which every
    edge follows both of its endpoints.  Violations name the offending edge
    and endpoint; a sequence that is no permutation gets one violation
    naming at most the first 20 missing elements and counting the rest.
    """
    seq = tuple(elements)
    codes = [graph.code(el) for el in seq]
    p, n = graph.p, graph.element_count
    try:
        _permutation(codes, 0, n - 1, "sequence is not a permutation")
    except ValueError:
        counts = Counter(seq)
        present = set(codes) - {-1}
        # Name the first few missing elements only: a short sequence
        # against a huge graph misses nearly all of them.
        missing = [
            str(Element.vertex(c + 1) if c < p else Element.edge(c - p + 1))
            for c in itertools.islice(
                (c for c in range(n) if c not in present), _NAMED_MISSING
            )
        ]
        foreign = sorted(str(el) for el in counts if graph.code(el) < 0)
        duplicated = sorted(str(el) for el, k in counts.items() if k > 1)
        detail = []
        if missing:
            unnamed = n - len(present) - len(missing)
            tail = f" and {unnamed} more" if unnamed else ""
            detail.append("missing " + ",".join(missing) + tail)
        if foreign:
            detail.append("foreign " + ",".join(foreign))
        if duplicated:
            detail.append("repeated " + ",".join(duplicated))
        return [
            Violation(
                "not-permutation",
                f"sequence is not a permutation of the {n} elements ({'; '.join(detail)})",
            )
        ]
    pos = [0] * n  # 1-based position of each element code
    for i, c in enumerate(codes, start=1):
        pos[c] = i
    violations = []
    for j, (u, w) in enumerate(graph.edges, start=1):
        edge_pos = pos[p + j - 1]
        for v in (u, w) if u != w else (u,):
            vertex_pos = pos[v - 1]
            if vertex_pos > edge_pos:
                violations.append(
                    Violation(
                        "edge-before-endpoint",
                        f"edge e{j}={{{u},{w}}} at position {edge_pos} precedes "
                        f"its endpoint v{v} at position {vertex_pos}",
                        edge=j,
                        vertex=v,
                    )
                )
    return violations


class CSeq(_Record):
    """A validated construction sequence.

    Construction raises ``ValueError`` describing every violation when the
    element list is not a construction sequence for the graph.  Instances are
    immutable and hashable.
    """

    _fields = ("graph", "elements")
    __slots__ = (*_fields, "_positions")

    def __init__(self, graph: Graph, elements: Sequence[Element]) -> None:
        elements = tuple(elements)
        problems = validate(graph, elements)
        if problems:
            raise ValueError(
                "invalid construction sequence: " + "; ".join(str(v) for v in problems)
            )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __str__(self) -> str:
        return format_sequence(self.elements)

    @property
    def _code_positions(self) -> list[int]:
        """1-based position of each element code (see :meth:`Graph.code`),
        computed on first use and kept."""
        try:
            return self._positions
        except AttributeError:
            pos = [0] * len(self.elements)
            for i, el in enumerate(self.elements, start=1):
                pos[self.graph.code(el)] = i
            object.__setattr__(self, "_positions", pos)
            return pos

    def position(self, element: Element) -> int:
        """1-based position of an element."""
        c = self.graph.code(element)
        if c < 0:
            raise ValueError(f"{element} is not an element of this sequence")
        return self._code_positions[c]

    def positions(self) -> dict[Element, int]:
        return {el: i for i, el in enumerate(self.elements, start=1)}


def _from_codes(graph: Graph, code_seqs: Iterable[Sequence[int]]) -> Iterator[CSeq]:
    """CSeqs from sequences of element codes, built without :func:`validate`:
    every caller passes code sequences its kernel constructed valid.
    Everything read from outside the package goes through the validating
    ``CSeq(...)`` instead.  The graph's elements are listed at the first
    code sequence, so an empty stream builds none."""
    elements = None
    for codes in code_seqs:
        if elements is None:
            elements = graph.elements()
        x = object.__new__(CSeq)
        object.__setattr__(x, "graph", graph)
        object.__setattr__(x, "elements", tuple(map(elements.__getitem__, codes)))
        yield x


# ---------------------------------------------------------------------------
# Component profile


class ComponentProfile(_Record):
    """Connected-component counts of the placed subgraph after each prefix."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "counts", counts)

    @property
    def peak(self) -> int:
        return max(self.counts, default=0)


def component_profile(x: CSeq) -> ComponentProfile:
    """Per-prefix component counts, maintained incrementally with union-find.

    Placing a vertex adds a component; placing an edge merges two components
    or, when it closes a cycle (or is a loop), leaves the count unchanged.
    """
    uf = _UnionFind(x.graph.p)
    counts = []
    current = 0
    for el in x.elements:
        if el.is_vertex:
            current += 1
        else:
            u, w = x.graph.edges[el.index - 1]
            if u != w and uf.union(u, w):
                current -= 1
        counts.append(current)
    return ComponentProfile(tuple(counts))


# ---------------------------------------------------------------------------
# Cost functionals


def edge_cost(x: CSeq, edge_id: int) -> int:
    """Delay of one edge: twice its position minus the positions of its
    endpoints; a loop's single endpoint counts twice."""
    u, w = x.graph.endpoints(edge_id)
    pos = x._code_positions
    return 2 * pos[x.graph.p + edge_id - 1] - pos[u - 1] - pos[w - 1]


def total_cost(x: CSeq) -> int:
    """Sum of edge costs.  Equals 2*sum(edge positions) minus the
    degree-weighted sum of vertex positions."""
    return sum(edge_cost(x, j) for j in range(1, x.graph.q + 1))


def vertex_delay(x: CSeq, v: int) -> Fraction:
    """Cost attributed to one vertex: the sum of its incident edges'
    positions, minus the vertex's own position, divided by its degree.

    A loop appears once in the incident-edge sum but contributes 2 to the
    degree.  Degree-zero vertices make the measure undefined.
    """
    g = x.graph
    deg = g.degree(v)
    if deg == 0:
        raise IsolatedVertexError(f"vertex {v} is isolated; vertex cost undefined")
    pos = x._code_positions
    incident_sum = sum(pos[g.p + j - 1] for j in g.incident_edges(v))
    return Fraction(incident_sum - pos[v - 1], deg)


def vertex_cost(x: CSeq) -> Fraction:
    """Sum of per-vertex delays over all vertices, in linear time."""
    g = x.graph
    degs = g.degrees()
    if any(d == 0 for d in degs):
        isolated = [v for v, d in enumerate(degs, start=1) if d == 0]
        raise IsolatedVertexError(f"isolated vertices {isolated}; vertex cost undefined")
    # One pass over the edges adds each edge's position to its endpoints'
    # sums, a loop's once; each sum starts at minus the vertex's position.
    pos = x._code_positions
    sums = [-t for t in pos[: g.p]]
    for t, (u, w) in zip(pos[g.p :], g.edges):
        sums[u - 1] += t
        if w != u:
            sums[w - 1] += t
    return sum(map(Fraction, sums, degs), Fraction(0))


class TimeAssignment(_Record):
    """Continuous placement times in [0,1] for every element, with each edge
    strictly later than both endpoints."""

    __slots__ = _fields = ("graph", "times")

    def __init__(self, graph: Graph, times: Mapping[Element, Fraction]) -> None:
        coerced = {el: Fraction(t) for el, t in times.items()}
        if len(coerced) != graph.element_count or set(coerced) != set(graph.elements()):
            raise ValueError("times must cover exactly the graph's elements")
        for el, t in coerced.items():
            if not 0 <= t <= 1:
                raise ValueError(f"time of {el} is {t}, outside [0,1]")
        for j, (u, w) in enumerate(graph.edges, start=1):
            edge_time = coerced[Element.edge(j)]
            endpoint_time = max(coerced[Element.vertex(u)], coerced[Element.vertex(w)])
            if edge_time <= endpoint_time:
                raise ValueError(
                    f"edge e{j} at time {edge_time} is not strictly after its "
                    f"endpoints (latest endpoint at {endpoint_time})"
                )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "times", coerced)

    def time(self, element: Element) -> Fraction:
        return self.times[element]


def continuous_cost(h: TimeAssignment, edge_id: int) -> Fraction:
    """Continuous-time edge delay: 2*h(edge) - h(u) - h(w), always positive."""
    u, w = h.graph.endpoints(edge_id)
    return (
        2 * h.time(Element.edge(edge_id))
        - h.time(Element.vertex(u))
        - h.time(Element.vertex(w))
    )


# ---------------------------------------------------------------------------
# Up-down bijection for canonically labeled paths


def is_updown(values: Sequence[int]) -> bool:
    """True when consecutive differences strictly alternate in sign, starting
    with a rise.  Length-1 sequences qualify."""
    if len(values) == 0:
        return False
    sign = 1
    for a, b in zip(values, values[1:]):
        if sign * (b - a) <= 0:
            return False
        sign = -sign
    return True


def _require_canonical_path(g: Graph) -> int:
    n = g.p
    if n < 1 or g != Graph(n, _path(n)):
        raise ValueError("sequence graph is not a canonically labeled path")
    return n


def to_updown_permutation(x: CSeq) -> tuple[int, ...]:
    """Map a path construction sequence to an up-down permutation of [2n-1].

    Elements are numbered consecutively along the path (odd = vertices, even
    = edges); the result is the inverse of the sequence read in that
    numbering.  Valid sequences map exactly onto up-down permutations.
    """
    n = _require_canonical_path(x.graph)
    length = 2 * n - 1
    inverse = [0] * length
    for position, el in enumerate(x.elements, start=1):
        number = 2 * el.index - 1 if el.is_vertex else 2 * el.index
        inverse[number - 1] = position
    return tuple(inverse)


def from_updown_permutation(values: Sequence[int]) -> CSeq:
    """Inverse of :func:`to_updown_permutation`; builds the sequence on the
    canonical path with n = (len(values)+1)/2 vertices."""
    length = len(values)
    if length % 2 == 0:
        raise ValueError("up-down input must have odd length")
    values = _permutation(values, 1, length, f"input is not a permutation of 1..{length}")
    if not is_updown(values):
        raise ValueError("input permutation is not up-down")
    n = (length + 1) // 2
    sequence: list[Element] = [Element.vertex(1)] * length
    for number, position in enumerate(values, start=1):
        element = (
            Element.vertex((number + 1) // 2) if number % 2 else Element.edge(number // 2)
        )
        sequence[position - 1] = element
    return CSeq(Graph(n, _path(n)), tuple(sequence))


# ---------------------------------------------------------------------------
# Vertices-first sequences


def vertices_first_sequence(
    g: Graph,
    vertex_order: Sequence[int] | None = None,
    edge_order: Sequence[int] | None = None,
) -> CSeq:
    """All vertices first, then all edges; always valid.

    Once the vertex block is fixed, the total cost does not depend on the
    edge order: swapping adjacent edges moves one cost down by 2 and the
    other up by 2.  The graph's elements are capped by ``LIMITS["builders"]``
    before any order is listed.
    """
    LIMITS["builders"].check(g.element_count)
    vertex_order = _permutation(vertex_order, 1, g.p, "vertex_order is not a permutation of 1..p")
    edge_order = _permutation(edge_order, 1, g.q, "edge_order is not a permutation of 1..q")
    elements = [Element.vertex(v) for v in vertex_order] + [
        Element.edge(j) for j in edge_order
    ]
    return CSeq(g, tuple(elements))


# ---------------------------------------------------------------------------
# Text forms


def parse_sequence(text: str) -> tuple[Element, ...]:
    """Parse whitespace-separated element tokens, e.g. ``"v1 v2 e1 v3 e2"``."""
    return tuple(Element.from_token(token) for token in text.split())


def format_sequence(elements: Sequence[Element]) -> str:
    return " ".join(str(el) for el in elements)


def short_form(elements: Sequence[Element], hub_zero: bool = False) -> str:
    """Compact display form: vertex labels as digits, edges as primed ids.

    With ``hub_zero`` the vertex labels are shifted down by one so a star's
    hub reads as 0.  Display only; not parseable back.
    """
    parts = []
    for el in elements:
        if el.is_vertex:
            parts.append(str(el.index - 1 if hub_zero else el.index))
        else:
            parts.append(f"{el.index}'")
    return "".join(parts)
