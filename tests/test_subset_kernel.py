"""The vertex-subset kernel behind count_dp, count_based and min_cost, and
the sequence enumerator.

Property tests run on multigraphs with loops, parallel edges, isolated
vertices and p = 0, which the seeded simple-graph corpus never produces, and
compare the kernel with the routes that do not use it: the permutation
oracle, the poset engine and full min-cost enumeration, and check that
counts survive relabelling and obey the union and wedge laws.  Sequences
built by the kernels skip validation, so the tests validate them instead.
``validate`` and ``greedy`` work on element codes; each is compared with a
reference on ``Element`` objects kept here, ``validate`` on mutated
sequences (swaps, drops, repeats and foreign tokens).
The edge table is checked against a direct count on larger multigraphs
with bundles of up to four parallel edges, the rescaled count table
against the unscaled recurrence and the closed forms, and the cost
identity behind the min-cost sweep on every edge-eager sequence.
"""
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildseq as b
from buildseq.counting import _completions, _subset_edge_counts
from buildseq.errors import ResourceLimitError, check_subset_limits
from buildseq.graphs import Element, _UnionFind
from buildseq.optimize import POLICIES

MAX_ELEMENTS = 9
WITNESSES = 7


@st.composite
def multigraphs(draw) -> b.Graph:
    p = draw(st.integers(0, 6))
    vertex = st.integers(1, max(p, 1))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=MAX_ELEMENTS - p)) if p else []
    return b.Graph(p, tuple(edges), multigraph=True)


@st.composite
def bundled_multigraphs(draw) -> b.Graph:
    """Up to 10 vertices; every edge comes in a bundle of 1 to 4 parallel
    copies, and loops are as likely as any other pair."""
    p = draw(st.integers(0, 10))
    if not p:
        return b.Graph(0)
    vertex = st.integers(1, p)
    bundles = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 4)), max_size=12))
    edges = draw(st.permutations([(u, w) for u, w, k in bundles for _ in range(k)]))
    return b.Graph(p, tuple(edges), multigraph=True)


def based_counts_by_walk(g: b.Graph) -> list[int]:
    """Valid orderings by first vertex, walked one element at a time from
    the definition: an edge may come once both endpoints have (element code
    v-1 is vertex v, code p+j-1 is edge j)."""
    full = (1 << g.element_count) - 1
    need = [0] * g.p + [(1 << (u - 1)) | (1 << (w - 1)) for u, w in g.edges]

    def completions(seen: int) -> int:
        if seen == full:
            return 1
        return sum(
            completions(seen | 1 << code)
            for code, mask in enumerate(need)
            if not seen >> code & 1 and not mask & ~seen
        )

    return [completions(1 << v) for v in range(g.p)]


def test_kernels_leave_the_recursion_limit_alone():
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        for spec in ("path:3", "star:4", "cycle:5"):
            g = b.build_family(spec)
            b.count_dp(g)
            b.count_based(g, 1)
            b.min_cost(g, max_witnesses=5)
            assert sys.getrecursionlimit() == 1000, spec
    finally:
        sys.setrecursionlimit(saved)


def test_state_limit_bounds_the_vertex_subsets_before_any_work():
    g = b.build_family("path:10")  # 2^10 vertex subsets
    for kernel, run in (
        ("count DP", lambda limit: b.count_dp(g, max_states=limit)),
        ("count DP", lambda limit: b.count_based(g, 1, max_states=limit)),
        ("optimizer", lambda limit: b.min_cost(g, max_states=limit)),
    ):
        message = f"^{kernel} needs 2\\^10 vertex-subset states, over the limit 1023; raise max_states to continue$"
        with pytest.raises(ResourceLimitError, match=message):
            run(2**10 - 1)
        run(2**10)


def test_the_state_limit_is_the_only_subset_limit():
    check_subset_limits(30, 1 << 30, "count DP")  # no vertex cap binds past 24
    check_subset_limits(0, 1, "count DP")
    for p, limit in ((31, 1 << 30), (31, (1 << 31) - 1), (0, 0), (3, -8), (10**12, 1 << 24)):
        with pytest.raises(ResourceLimitError, match=f"^count DP needs 2\\^{p} vertex-subset states"):
            check_subset_limits(p, limit, "count DP")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(bundled_multigraphs())
def test_edge_table_counts_the_edges_inside_every_subset(g):
    e = _subset_edge_counts(g, max_states=1 << 10, kernel="count DP")
    masks = [(1 << (u - 1)) | (1 << (w - 1)) for u, w in g.edges]
    assert e == [sum(not mask & ~s for mask in masks) for s in range(1 << g.p)]
    # Bundles and loops give a vertex many edges to open in one step.
    if g.p:
        assert sum(b.count_based(g, v) for v in range(1, g.p + 1)) == b.count_dp(g)


def unscaled_completions(g: b.Graph, base: int) -> dict[int, int]:
    """C(S) for every vertex subset S containing the mask ``base``, from the
    definition: after S and its e(S) edges, the next vertex v opens d edges
    that take any d of the other h(S) - 1 positions."""
    n, full = g.element_count, (1 << g.p) - 1
    masks = [(1 << (u - 1)) | (1 << (w - 1)) for u, w in g.edges]
    e = [sum(not mask & ~s for mask in masks) for s in range(full + 1)]
    c = {full: 1}
    for s in range(full - 1, -1, -1):
        if s & base == base:
            h = n - s.bit_count() - e[s]
            c[s] = sum(
                c[s | 1 << v] * math.perm(h - 1, e[s | 1 << v] - e[s])
                for v in range(g.p)
                if not s >> v & 1
            )
    return c


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.one_of(multigraphs(), bundled_multigraphs()))
def test_rescaled_table_is_the_count_times_n_factorial_over_h_factorial(g):
    n = g.element_count
    e = _subset_edge_counts(g, max_states=1 << 10, kernel="count DP")
    for base in [0] + [1 << v for v in range(g.p)]:
        a = _completions(g, e, base)
        for s, c in unscaled_completions(g, base).items():
            h = n - s.bit_count() - e[s]
            assert a[s] * math.factorial(h) == c * math.factorial(n)
        if base:
            assert b.count_based(g, base.bit_length()) * n == a[base]


def test_large_tables_match_the_closed_forms():
    # 2^12 to 2^16 entries of integers the size of N!.
    zigzag = b.zigzag_numbers(16)
    path = b.build_family("path:16")
    assert b.count_dp(path) == zigzag.tangent[16]
    assert b.count_based(path, 1) == zigzag.secant[15]
    assert b.count_dp(b.build_family("star:15")) == b.star_count(15)
    assert b.count_dp(b.build_family("complete:12")) == b.complete_count(12)


def test_thousands_of_edges_at_one_vertex():
    # Vertex 1 comes first and its 3,000 loops follow in any order; the
    # sweeps work per transition, so this is two transitions' work.
    loops = 3000
    g = b.Graph(1, ((1, 1),) * loops, multigraph=True)
    assert b.count_dp(g) == b.count_based(g, 1) == math.factorial(loops)
    n = loops + 1
    result = b.min_cost(g)
    assert result.min_cost == 2 * (n * (n + 1) // 2 - 1) - 2 * loops
    assert result.num_optimal == math.factorial(loops)
    # Two vertices and 2,000 parallel edges: either vertex first, then the
    # other, then the edges in any order.
    g = b.Graph(2, ((1, 2),) * 2000, multigraph=True)
    assert b.count_dp(g) == 2 * math.factorial(2000)
    assert b.min_cost(g).num_optimal == 2 * math.factorial(2000)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs())
def test_edge_eager_costs_telescope(g):
    # cost = N(N+1) - sum over v of (2 + deg v) * pos(v), the form min_cost sweeps.
    n = g.element_count
    weights = [2 + d for d in g.degrees()]
    for x in b.exhaustive_greedy_set(g, element_limit=MAX_ELEMENTS):
        pos = x.positions()
        vertex_part = sum(w * pos[b.Element.vertex(v)] for v, w in enumerate(weights, start=1))
        assert b.total_cost(x) == n * (n + 1) - vertex_part


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs())
def test_counts_agree_with_oracle_and_poset_engine(g):
    count = b.count_dp(g)
    assert count == b.count_bruteforce(g, element_limit=MAX_ELEMENTS)
    assert count == b.count_linear_extensions(b.incidence_poset(g))
    assert [b.count_based(g, v) for v in range(1, g.p + 1)] == based_counts_by_walk(g)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs())
def test_based_oracle_counts_the_orderings_that_start_at_the_base(g):
    based = [b.count_bruteforce(g, base=v, element_limit=MAX_ELEMENTS) for v in range(1, g.p + 1)]
    assert based == based_counts_by_walk(g)
    for bad in (0, g.p + 1):
        with pytest.raises(ValueError):
            b.count_bruteforce(g, base=bad)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs())
def test_kernel_built_sequences_are_valid(g):
    def check(sequences):
        for x in sequences:
            assert b.validate(g, x.elements) == []

    everything = list(b.enumerate_csequences(g, element_limit=MAX_ELEMENTS))
    check(everything)
    keys = [tuple(el.sort_key() for el in x) for x in everything]
    assert keys == sorted(set(keys))  # distinct, in lexicographic order
    assert len(everything) == b.count_dp(g)
    check(b.exhaustive_greedy_set(g, element_limit=MAX_ELEMENTS))
    check(b.enumerate_min_cost(g, element_limit=MAX_ELEMENTS))
    check(b.min_cost(g, max_witnesses=WITNESSES).witnesses)
    for policy in POLICIES:
        for order in (None, range(g.p, 0, -1)):
            check([b.greedy(g, order, b.TieBreak(policy, seed=3))])


def reference_validate(graph, elements):
    """validate written on Element objects: a sort tests the permutation
    and a dict of positions the edges."""
    seq = tuple(elements)
    expected = graph.elements()
    if sorted(seq, key=Element.sort_key) != expected:
        present = set(seq)
        missing = [str(el) for el in expected if el not in present]
        foreign = sorted(str(el) for el in present - set(expected))
        duplicated = sorted({str(el) for el in seq if seq.count(el) > 1})
        detail = []
        if missing:
            detail.append("missing " + ",".join(missing))
        if foreign:
            detail.append("foreign " + ",".join(foreign))
        if duplicated:
            detail.append("repeated " + ",".join(duplicated))
        summary = "; ".join(detail) or "wrong length"
        message = f"sequence is not a permutation of the {len(expected)} elements ({summary})"
        return [b.Violation("not-permutation", message)]
    pos = {el: i for i, el in enumerate(seq, start=1)}
    violations = []
    for j, (u, w) in enumerate(graph.edges, start=1):
        edge_pos = pos[Element.edge(j)]
        for v in (u, w) if u != w else (u,):
            vertex_pos = pos[Element.vertex(v)]
            if vertex_pos > edge_pos:
                message = (
                    f"edge e{j}={{{u},{w}}} at position {edge_pos} precedes "
                    f"its endpoint v{v} at position {vertex_pos}"
                )
                violations.append(b.Violation("edge-before-endpoint", message, edge=j, vertex=v))
    return violations


@st.composite
def mutated_sequences(draw):
    """A graph and a shuffled (or vertices-first) sequence of its elements
    after up to four swaps, drops, repeats or foreign tokens."""
    g = draw(multigraphs())
    seq = draw(st.permutations(g.elements()))
    if draw(st.booleans()):
        seq.sort()  # vertices first, so valid until mutated
    foreign = [Element.vertex(g.p + k) for k in (1, 2)] + [Element.edge(g.q + k) for k in (1, 2)]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("swap", "drop", "repeat", "foreign")))
        if op == "foreign":
            token = draw(st.sampled_from(foreign))
            for _ in range(draw(st.integers(1, 2))):  # twice makes it a repeat too
                seq.insert(draw(st.integers(0, len(seq))), token)
        elif seq:
            i, j = (draw(st.integers(0, len(seq) - 1)) for _ in range(2))
            if op == "swap":
                seq[i], seq[j] = seq[j], seq[i]
            elif op == "drop":
                del seq[i]
            else:
                seq.insert(j, seq[i])
    return g, seq


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(mutated_sequences())
def test_validate_matches_the_element_reference(case):
    g, seq = case
    fields = lambda problems: [(v.kind, v.edge, v.vertex, v.message) for v in problems]
    assert fields(b.validate(g, seq)) == fields(reference_validate(g, seq))


def reference_greedy(g, order, tie_break):
    """greedy as a rescan of every unplaced edge before each step."""
    order = tuple(order) if order is not None else tuple(range(1, g.p + 1))
    rng = random.Random(tie_break.seed)
    components = _UnionFind(g.p)
    placed, unplaced = set(), set(range(1, g.q + 1))
    sequence = []
    next_vertex = iter(order)
    while len(sequence) < g.element_count:
        available = sorted(j for j in unplaced if all(v in placed for v in g.endpoints(j)))
        if not available:
            v = next(next_vertex)
            placed.add(v)
            sequence.append(Element.vertex(v))
            continue
        if tie_break.policy == "lexicographic":
            chosen = available[0]
        elif tie_break.policy == "seeded-random":
            chosen = rng.choice(available)
        else:  # cycle-avoiding: smallest edge joining two components, if any
            joining = [
                j for j in available
                if len({components.find(v) for v in g.endpoints(j)}) == 2
            ]
            chosen = (joining or available)[0]
        unplaced.remove(chosen)
        components.union(*g.endpoints(chosen))
        sequence.append(Element.edge(chosen))
    return tuple(sequence)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_greedy_matches_the_rescan_reference(g, data):
    shuffled = data.draw(st.permutations(range(1, g.p + 1)))
    for order in (None, range(g.p, 0, -1), shuffled):
        for policy in POLICIES:
            for seed in (0, 3, 11):
                tie = b.TieBreak(policy, seed=seed)
                assert b.greedy(g, order, tie).elements == reference_greedy(g, order, tie)


def test_enumeration_needs_no_deep_recursion():
    g = b.build_family("path:600")  # 1,199 elements
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        first = next(b.enumerate_csequences(g, element_limit=2000))
        assert first == b.vertices_first_sequence(g)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs())
def test_min_cost_agrees_with_enumeration(g):
    minimizers = b.enumerate_min_cost(g, element_limit=MAX_ELEMENTS)
    result = b.min_cost(g, max_witnesses=WITNESSES)
    assert result.min_cost == b.total_cost(minimizers[0])
    assert result.num_optimal == len(minimizers)
    assert list(result.witnesses) == minimizers[:WITNESSES]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs())
def test_every_minimizer_places_each_edge_as_soon_as_available(g):
    # Exchange theorem: a vertex directly before an already-available edge
    # can swap with it for a saving of 2 + deg(v).
    minimizers = set(b.enumerate_min_cost(g, element_limit=MAX_ELEMENTS))
    assert minimizers <= b.exhaustive_greedy_set(g, element_limit=MAX_ELEMENTS)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_counts_survive_relabelling(g, rng):
    sigma = list(range(1, g.p + 1))
    rng.shuffle(sigma)
    h = b.relabel(g, sigma)
    assert b.count_dp(h) == b.count_dp(g)
    for v in range(1, g.p + 1):
        assert b.count_based(h, sigma[v - 1]) == b.count_based(g, v)


nonempty = multigraphs().filter(lambda g: g.p > 0)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(nonempty, nonempty)
def test_union_law(g, h):
    parts = [(b.count_dp(part), part.element_count) for part in (g, h)]
    assert b.count_dp(b.disjoint_union([g, h])) == b.union_count(parts)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(nonempty, nonempty, st.data())
def test_wedge_law(g, h, data):
    a, c = (data.draw(st.integers(1, part.p)) for part in (g, h))
    parts = [(b.count_based(g, a), g.element_count), (b.count_based(h, c), h.element_count)]
    assert b.count_based(b.wedge([(g, a), (h, c)]), 1) == b.wedge_count(parts)
