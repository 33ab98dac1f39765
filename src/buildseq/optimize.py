"""Cost-minimal construction sequences.

The total cost of a sequence is a position-weighted linear functional:
every edge contributes +2 times its position and every vertex contributes
-degree times its position.  The N = p + q positions sum to N(N+1)/2, so
the cost telescopes to N(N+1) - sum over v of (2 + deg v) * pos(v), a sum
over the vertices alone.  Swapping a vertex with an already-available
edge right after it saves 2 + deg(v), so every minimizer places each edge
as soon as it becomes available.  A minimizer is thus a vertex order plus
an order within each block of newly opened edges.  The exact minimum comes
from one sweep in the telescoped form over the twin-class count vectors of
the subset kernel in :mod:`counting`, and its multiplicity from a forward
count along the transitions that keep the minimum.

One lexicographic walk, edges first and then only the vertices that keep
the minimum, lists the minimizers for ``min_cost``'s witnesses and for
``check_conjecture`` under one greedy policy.  Its default report walks
nothing: with every weight 0 the forward count gives the edge-eager
sequences, the outputs of every greedy run.

Also here: the greedy builder (emit an edge as soon as one is available,
otherwise the next vertex of the input order), the improved star schedule,
and the definitions that the tests check ``check_conjecture`` against:
full min-cost enumeration, the set of every greedy output, and one
policy's outputs over all vertex orders.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Callable, Iterable, Iterator, Sequence

from .errors import LIMITS, _Record
from .graphs import Graph, _UnionFind, build_family
from .sequences import CSeq, _from_codes
from .counting import (
    DEFAULT_ELEMENT_LIMIT,
    _Quotient,
    _descending,
    _free_steps,
    _iter_codes,
    _quotient,
    count_dp,
)

__all__ = [
    "TieBreak",
    "OptResult",
    "ConjectureReport",
    "greedy",
    "greedy_all",
    "exhaustive_greedy_set",
    "min_cost",
    "enumerate_min_cost",
    "check_conjecture",
    "star_schedule",
    "economy_vs_count",
    "POLICIES",
    "DEFAULT_OPT_STATE_LIMIT",
    "DEFAULT_GREEDY_VERTEX_LIMIT",
]

POLICIES = ("lexicographic", "cycle-avoiding", "seeded-random")
DEFAULT_OPT_STATE_LIMIT = LIMITS["min_cost"].value
DEFAULT_GREEDY_VERTEX_LIMIT = LIMITS["greedy_all"].value


class TieBreak(_Record):
    """Deterministic rule for picking among several available edges."""

    __slots__ = _fields = ("policy", "seed")

    def __init__(self, policy: str = "lexicographic", seed: int = 0) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "seed", seed)


class OptResult(_Record):
    """Exact minimum total cost, the number of sequences attaining it, and
    optionally some minimum-cost witnesses (in lexicographic order)."""

    __slots__ = _fields = ("min_cost", "num_optimal", "witnesses")

    def __init__(self, min_cost: int, num_optimal: int, witnesses: tuple[CSeq, ...] = ()) -> None:
        object.__setattr__(self, "min_cost", min_cost)
        object.__setattr__(self, "num_optimal", num_optimal)
        object.__setattr__(self, "witnesses", witnesses)


class ConjectureReport(_Record):
    """Outcome of checking that greedy runs reach every minimum-cost
    sequence.  ``counterexamples`` lists minimum-cost sequences no greedy
    run produces; empty means the inclusion holds."""

    __slots__ = _fields = ("holds", "policy", "num_min_cost", "num_greedy", "counterexamples")

    def __init__(
        self, holds: bool, policy: str, num_min_cost: int, num_greedy: int, counterexamples: tuple[CSeq, ...]
    ) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "num_min_cost", num_min_cost)
        object.__setattr__(self, "num_greedy", num_greedy)
        object.__setattr__(self, "counterexamples", counterexamples)


# ---------------------------------------------------------------------------
# Greedy


def greedy(
    g: Graph,
    vertex_order: Sequence[int] | None = None,
    tie_break: TieBreak = TieBreak(),
) -> CSeq:
    """Consume a vertex order, emitting an available edge whenever one
    exists and the next vertex otherwise.

    An edge is available once both endpoints are placed.  Ties among
    available edges fall to the tie-break rule: smallest id, or smallest id
    among the edges that do not close a cycle (if any), or a seeded uniform
    pick.
    """
    p = g.p
    order = tuple(vertex_order) if vertex_order is not None else tuple(range(1, p + 1))
    if sorted(order) != list(range(1, p + 1)):
        raise ValueError("vertex_order is not a permutation of 1..p")
    return next(_from_codes(g, [_greedy_codes(g, order, tie_break)]))


def _greedy_codes(g: Graph, order: Sequence[int], tie_break: TieBreak) -> list[int]:
    """The element codes :func:`greedy` outputs for a vertex order.

    Edge j becomes available when the later of its endpoints in the order
    is placed.  A vertex is placed only once no edge is available, so the
    edges it opens, in increasing id, are then the whole available list.
    """
    p = g.p
    rank = {v: i for i, v in enumerate(order)}
    opens: list[list[int]] = [[] for _ in range(p + 1)]
    for j, (u, w) in enumerate(g.edges, start=1):
        opens[u if rank[u] >= rank[w] else w].append(j)
    rng = random.Random(tie_break.seed) if tie_break.policy == "seeded-random" else None
    components = _UnionFind(p) if tie_break.policy == "cycle-avoiding" else None
    codes: list[int] = []
    for v in order:
        codes.append(v - 1)
        codes.extend(p + j - 1 for j in _edge_order(g, opens[v], tie_break, components, rng))
    return codes


def _edge_order(
    g: Graph,
    available: list[int],
    tie_break: TieBreak,
    components: _UnionFind | None,
    rng: random.Random | None,
) -> list[int]:
    """The order in which greedy places the available edges, given in
    increasing id; consumes ``available``.  ``rng`` is set only under
    ``seeded-random`` and ``components`` only under ``cycle-avoiding``."""
    if tie_break.policy == "lexicographic":
        return available
    if tie_break.policy == "seeded-random":
        # A uniform pick among the edges left, as rng.choice would make.
        return [available.pop(rng.randrange(len(available))) for _ in range(len(available))]
    # cycle-avoiding: the smallest id among the edges joining distinct
    # components for as long as one does, then the rest by id.  A join
    # never splits a component, so an edge that closes a cycle keeps doing
    # so, and one pass in id order finds the joins in the order they come.
    joins: list[int] = []
    closes: list[int] = []
    for j in available:
        (joins if components.union(*g.edges[j - 1]) else closes).append(j)
    return joins + closes


def greedy_all(g: Graph, tie_break: TieBreak = TieBreak()) -> set[CSeq]:
    """Deduplicated greedy outputs over every vertex order (p! runs), for at
    most ``DEFAULT_GREEDY_VERTEX_LIMIT`` vertices: each run goes straight to
    the kernel, and one :func:`_from_codes` pass makes the sequences."""
    LIMITS["greedy_all"].check(g.p)
    orders = itertools.permutations(range(1, g.p + 1))
    return set(_from_codes(g, (_greedy_codes(g, order, tie_break) for order in orders)))


def exhaustive_greedy_set(
    g: Graph, *, element_limit: int = DEFAULT_ELEMENT_LIMIT
) -> set[CSeq]:
    """Every sequence some greedy run can output, under *any* tie-breaking.

    Ranging over all vertex orders and all tie resolutions, the reachable
    sequences are exactly the valid ones that never place a vertex while an
    edge is available; enumerate those directly.  Every minimum-cost
    sequence is among them: a vertex placed while an edge is available could
    swap with that edge for a saving of 2 + deg(v) (see :func:`min_cost`).
    The whole set is materialized, so keep the element limit modest.
    """
    LIMITS["enumerators"].check(g.element_count, element_limit)
    return set(_from_codes(g, _iter_codes(g, _edges_first(g.p))))


def _edges_first(
    p: int, vertices: Callable[[int, list[int]], list[int]] | None = None
) -> Callable[[int, list[int]], list[int]]:
    """A ``keep`` filter for :func:`counting._iter_codes`: only the edges
    when one is placeable (codes >= p), else the placeable vertices that
    ``vertices(placed, free)`` keeps, or all of them."""

    def keep(placed: int, free: list[int]) -> list[int]:
        if free[-1] >= p:
            return [c for c in free if c >= p]
        return vertices(placed, free) if vertices else free

    return keep


# ---------------------------------------------------------------------------
# Exact minimum-cost search


def _weights(g: Graph) -> list[int]:
    # Per element code: +2 for edges, -degree for vertices (loops twice).
    degs = g.degrees()
    return [-degs[i] for i in range(g.p)] + [2] * g.q


def min_cost(
    g: Graph,
    *,
    max_states: int = DEFAULT_OPT_STATE_LIMIT,
    max_witnesses: int = 0,
) -> OptResult:
    """Exact minimum total cost and the count of sequences attaining it.

    Placing element s at position t adds weight(s)*t: 2t for an edge and
    -deg(v)*t for a vertex v.  If a vertex sits directly before an edge that
    was already available, swapping the two lowers the cost by 2 + deg(v).
    So every minimizer places each edge as soon as it becomes available: it
    is a vertex order with the d edges each vertex opens right after it, in
    any of d! orders.  The positions of all N = p + q elements sum to
    N(N+1)/2, so the edges' twice-positions sum to N(N+1) minus twice the
    vertices' positions, and the cost telescopes to

        cost = N(N+1) - sum over v of (2 + deg v) * pos(v).

    Twins (see :func:`counting._quotient`) have the same degree, so the
    sweep runs over the twin-class count vectors, ``max_states`` bounding
    their number prod(n_i + 1) (2^p for a twin-free graph, so the default
    admits p <= 22).  With S and its e(S) edges placed, a member of class i
    comes next at pos = |S| + e(S) + 1 and adds -(2 + deg) * pos, so
    best[x] = min over free i of best[x + r_i] - (2 + deg_i) * pos, and
    N(N+1) is added once at the end.  :func:`_count_optimal` then counts
    the minimizers forward from the empty state, a level at a time, along
    the transitions that keep the minimum: a member of class i opening d
    edges contributes its d! edge orders, and the n_i - k_i members it
    could be cancel out as in :func:`counting._scaled_completions`, leaving
    prod(n_j!) at the end.
    Witness extraction is optional and capped by ``max_witnesses``; the
    witnesses are the first minimizers of :func:`_minimizers`' walk.
    """
    max_witnesses = max(operator.index(max_witnesses), 0)
    q, low, high, best = _least_costs(g, max_states)
    minimizers = _minimizers(g, q, best)
    witnesses = tuple(_from_codes(g, itertools.islice(minimizers, max_witnesses)))
    n = q.placed[-1]
    return OptResult(n * (n + 1) + best[0], _count_optimal(q, low, high, best), witnesses)


def _least_costs(g: Graph, max_states: int) -> tuple[_Quotient, list[tuple], list[tuple], list[int]]:
    """:func:`min_cost`'s sweep, by :func:`counting._descending`: the twin
    quotient, its free steps (r_i, 2 + deg_i), and best[x], the least -sum
    of (2 + deg v) * pos(v) over the completions of every state x."""
    q = _quotient(g.p, g.edges, max_states=max_states, kernel=LIMITS["min_cost"])
    placed = q.placed
    # Adding a member of class i at pos adds -(2 + deg_i) * pos.
    weights = [0] * len(q.sizes)
    for c, d in zip(q.vertex_class, g.degrees()):
        weights[c] = 2 + d
    low, high = _free_steps(q, weights)
    best = [0] * len(placed)  # the full state adds nothing
    for _, states, up in _descending(low, high):
        for x, free in states:
            pos = placed[x] + 1
            least = 0  # every step adds a negative amount
            for r, weight in free:
                branch = best[x + r] - weight * pos
                if branch < least:
                    least = branch
            for r, weight in up:
                branch = best[x + r] - weight * pos
                if branch < least:
                    least = branch
            best[x] = least
    return q, low, high, best


def _count_optimal(q: _Quotient, low: list[tuple], high: list[tuple], best: list[int]) -> int:
    """The sequences that place every edge as soon as it is available and
    keep the minimum ``best``, counted forward from the empty state, a level
    at a time, over the free steps (r_i, weight_i) of :func:`_least_costs`."""
    placed = q.placed
    size = len(low)
    ways = {0: 1}
    for _ in q.vertex_class:
        reached: dict[int, int] = {}
        for x, count in ways.items():
            pos = placed[x] + 1
            target = best[x]
            for r, weight in low[x % size] + high[x // size]:
                y = x + r
                if best[y] - weight * pos == target:
                    reached[y] = reached.get(y, 0) + count * math.factorial(placed[y] - pos)
        ways = reached
    return ways[len(placed) - 1] * q.scale


def _minimizers(g: Graph, q: _Quotient, best: list[int]) -> Iterator[tuple[int, ...]]:
    """Every minimum-cost sequence as element codes, in lexicographic
    order, from the sweep's ``best`` over the quotient ``q``.

    The walk places every available edge first, as every minimizer does,
    and a vertex v only when it keeps the minimum,
    best[x + r_v] - (2 + deg v) * pos == best[x], where x sums the class
    radices of the placed vertices, once for all the candidates.
    """
    vertex_steps = [(q.radix[c], 2 + d) for c, d in zip(q.vertex_class, g.degrees())]

    def optimal(placed: int, free: list[int]) -> list[int]:
        x = sum(r for v, (r, _) in enumerate(vertex_steps) if placed >> v & 1)
        pos = placed.bit_count() + 1
        least = best[x]
        return [v for v in free if best[x + vertex_steps[v][0]] - vertex_steps[v][1] * pos == least]

    return _iter_codes(g, _edges_first(g.p, optimal))


def enumerate_min_cost(
    g: Graph, *, element_limit: int = DEFAULT_ELEMENT_LIMIT
) -> list[CSeq]:
    """All minimum-cost sequences, by full enumeration with running costs.

    Independent of the dynamic program: walks every valid sequence and keeps
    the cost minimizers, in lexicographic order.
    """
    LIMITS["enumerators"].check(g.element_count, element_limit)
    weights = _weights(g)
    positions = range(1, g.element_count + 1)
    best_cost: int | None = None
    winners: list[tuple[int, ...]] = []
    for codes in _iter_codes(g):
        cost = sum(map(operator.mul, map(weights.__getitem__, codes), positions))
        if best_cost is None or cost < best_cost:
            best_cost, winners = cost, []
        if cost == best_cost:
            winners.append(codes)
    return list(_from_codes(g, winners))


# ---------------------------------------------------------------------------
# Greedy-coverage check and schedules


def check_conjecture(
    g: Graph,
    tie_break: TieBreak | str = "exhaustive",
    *,
    element_limit: int = DEFAULT_ELEMENT_LIMIT,
) -> ConjectureReport:
    """Check that greedy runs produce every minimum-cost sequence.

    With ``tie_break="exhaustive"`` the greedy side ranges over every tie
    resolution (the strongest reading): a sequence is reachable exactly
    when it places no vertex while an edge is available (see
    :func:`exhaustive_greedy_set`).  Every minimizer is, since swapping a
    vertex with an available edge right after it saves 2 + deg(v), so
    nothing is walked: :func:`_count_optimal` gives both counts,
    ``num_greedy`` with every weight 0.  The element limit stays, so that
    the CLI's limits do not depend on the tie-break.  A :class:`TieBreak`
    restricts the greedy side to one policy over all vertex orders, where
    it can fail: a greedy output keeps the vertex order it was run on, so
    a minimizer from :func:`_minimizers` is reachable exactly when greedy
    on its own vertex order returns it, and the p! orders give p! distinct
    outputs.
    """
    # Its limits (in the CLI's order) and a bad tie_break raise before any work.
    exhaustive = tie_break == "exhaustive"
    if not exhaustive and not isinstance(tie_break, TieBreak):
        raise ValueError(f"tie_break must be a TieBreak or 'exhaustive', got {tie_break!r}")
    LIMITS["enumerators"].check(g.element_count, element_limit)
    if not exhaustive:
        LIMITS["greedy_all"].check(g.p)
    # Within the default element limit the sweep's state limit never binds.
    q, low, high, best = _least_costs(g, DEFAULT_OPT_STATE_LIMIT)
    if exhaustive:
        policy, missed = "exhaustive", []
        num_greedy = _count_optimal(q, *_free_steps(q, [0] * len(q.sizes)), [0] * len(best))
    else:
        policy = f"{tie_break.policy} (seed {tie_break.seed})"
        num_greedy = math.factorial(g.p)
        missed = [
            codes
            for codes in _minimizers(g, q, best)
            if _greedy_codes(g, [c + 1 for c in codes if c < g.p], tie_break) != list(codes)
        ]
    counterexamples = tuple(_from_codes(g, missed))
    return ConjectureReport(
        holds=not counterexamples,
        policy=policy,
        num_min_cost=_count_optimal(q, low, high, best),
        num_greedy=num_greedy,
        counterexamples=counterexamples,
    )


def star_schedule(n: int) -> CSeq:
    """A minimum-cost build order for the star with n peripheral vertices.

    A minimizer places each edge as soon as it is available (see
    min_cost), so only j, the number of leaves before the hub, matters:
    the greedy run on the vertex order of j leaves, the hub, then the
    remaining leaves.  That costs n^2 + 2n + (3j^2 - j)/2 - nj, and j is
    the least minimizer, near (2n + 1)/6; j = 0 is the hub-first order.
    """
    if n < 1:
        raise ValueError(f"star size must be >= 1, got {n}")
    before = min(range(n + 1), key=lambda j: 3 * j * j - j - 2 * n * j)
    order = (*range(2, before + 2), 1, *range(before + 2, n + 2))
    return greedy(build_family(f"star:{n}"), order)


def economy_vs_count(graphs: Iterable[Graph]) -> list[dict]:
    """Log whether fewer minimum-cost sequences goes with fewer sequences
    overall, across all ordered pairs of the given graphs.

    Purely observational; returns one record per pair with a strict
    minimum-cost-count inequality.
    """
    annotated = []
    for g in graphs:
        result = min_cost(g)
        annotated.append((g, result.num_optimal, count_dp(g)))
    records = []
    for (g1, opt1, total1), (g2, opt2, total2) in itertools.permutations(annotated, 2):
        if opt1 < opt2:
            records.append(
                {
                    "left": g1,
                    "right": g2,
                    "num_optimal": (opt1, opt2),
                    "count": (total1, total2),
                    "consistent": total1 < total2,
                }
            )
    return records
