"""The twin-class subset kernel behind count_dp and min_cost, count_based
(the count_dp of the graph after its base), and the sequence enumerator.

Property tests run on multigraphs with loops, parallel edges, isolated
vertices and p = 0, which the seeded simple-graph corpus never produces, and
compare the kernel with the routes that do not use it: the permutation
oracle, the poset engine and full min-cost enumeration, and check that
counts survive relabelling and obey the union and wedge laws.  Blown-up
multigraphs, where each vertex becomes an independent set or a clique of
twins, make the twin classes large.  Sequences built by the kernels skip
validation, so the tests validate them instead.
``validate`` and ``greedy`` work on element codes; each is compared with a
reference on ``Element`` objects kept here, ``validate`` on mutated
sequences (swaps, drops, repeats and foreign tokens).
The twin classes are checked against the definition, and the table of
placed elements against a direct count for every vertex subset, on larger
multigraphs with bundles of up to four parallel edges and on simple graphs;
the sweep plan's free steps against the classes open at every state;
the scaled count table against the unscaled recurrence and the closed forms, and the cost
identity behind the min-cost sweep on every edge-eager sequence.  Based counts
are checked on multigraphs with loops and bundles at the base against the
based oracle and the poset engine on the incidence poset without the base.
``check_conjecture``, which counts both sides from the min-cost table by
default and walks only the minimizers under a single policy, must give the
report built from full min-cost enumeration and the sets of greedy outputs.
"""
import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import buildseq as b
from buildseq.counting import _BIT_STEPS, _free_steps, _quotient, _scaled_completions
from buildseq.errors import LIMITS, ResourceLimitError
from buildseq.graphs import Element, _UnionFind
from buildseq.optimize import POLICIES
from conftest import conjecture_by_definition

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


@st.composite
def simple_graphs(draw) -> b.Graph:
    """Up to 10 vertices with single edges and no loops: without twins the
    table is built over vertex bit masks."""
    p = draw(st.integers(0, 10))
    pairs = [(u, w) for u in range(1, p + 1) for w in range(u + 1, p + 1)]
    return b.Graph(p, tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ())


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
    longer = b.build_family("path:11")  # after its base 1, 2^10 vertex subsets
    for kernel, run in (
        ("count DP", lambda limit: b.count_dp(g, max_states=limit)),
        ("count DP", lambda limit: b.count_based(longer, 1, max_states=limit)),
        ("optimizer", lambda limit: b.min_cost(g, max_states=limit)),
    ):
        message = f"^{kernel} needs 2\\^10 vertex-subset states, over the limit 1023; raise max_states to continue$"
        with pytest.raises(ResourceLimitError, match=message):
            run(2**10 - 1)
        run(2**10)


def test_state_limit_bounds_the_twin_class_states_before_any_work():
    # star:18 has two twin classes, the hub and 18 leaves: 2 * 19 states.
    # After leaf 2 the hub, with a loop for its edge to 2, and 17 leaves are
    # left: 2 * 18 states.
    g = b.build_family("star:18")
    for kernel, states, run in (
        ("count DP", 38, lambda limit: b.count_dp(g, max_states=limit)),
        ("count DP", 36, lambda limit: b.count_based(g, 2, max_states=limit)),
        ("optimizer", 38, lambda limit: b.min_cost(g, max_states=limit)),
    ):
        message = f"^{kernel} needs {states} twin-class states, over the limit {states - 1}; raise max_states to continue$"
        with pytest.raises(ResourceLimitError, match=message):
            run(states - 1)
        run(states)
    # 4,000 isolated vertices are one class, and past 4,096 vertices no
    # classes are formed: either way the limit fires at once.
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^count DP needs 4001 twin-class states, over the limit 4000;"):
        b.count_dp(b.Graph(4000), max_states=4000)
    b.count_based(b.Graph(4000), 7, max_states=4001)
    with pytest.raises(ResourceLimitError, match="^optimizer needs 2\\^1000000 vertex-subset states"):
        b.min_cost(b.Graph(10**6))
    assert time.perf_counter() - started < 5


def test_heavy_bundles_reach_the_limit_at_once():
    # The classes come from the edge multiplicities, so 100,000 parallel
    # edges cost time linear in the edges before the limit is checked.
    bundle = ((1, 2),) * 100_000
    twin_free = b.Graph(1000, bundle + tuple((v, v + 1) for v in range(2, 1000)), multigraph=True)
    grouped = b.Graph(1000, bundle, multigraph=True)  # {1, 2} and 998 isolated vertices: 3 * 999 states
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^count DP needs 2\\^1000 vertex-subset states"):
        b.count_dp(twin_free)
    # After vertex 1, vertex 2 with 100,000 loops and 998 isolated vertices: 2 * 999 states.
    with pytest.raises(ResourceLimitError, match="^count DP needs 1998 twin-class states, over the limit 1997;"):
        b.count_based(grouped, 1, max_states=1997)
    with pytest.raises(ResourceLimitError, match="^optimizer needs 2997 twin-class states, over the limit 2996;"):
        b.min_cost(grouped, max_states=2996)
    assert time.perf_counter() - started < 0.5


def test_class_limit_words_a_twin_free_graph_as_the_subset_limit():
    for sizes, limit in (([1] * 10, 1023), ([], 0)):
        with pytest.raises(ResourceLimitError, match=f"^count DP needs 2\\^{len(sizes)} vertex-subset"):
            LIMITS["count_dp"].check_classes(sizes, limit)
    LIMITS["count_dp"].check_classes([1] * 10, 1024)
    LIMITS["min_cost"].check_classes([3, 1, 4], 40)
    with pytest.raises(ResourceLimitError, match="^optimizer needs 40 twin-class states, over the limit 39;"):
        LIMITS["min_cost"].check_classes([3, 1, 4], 39)


def test_twins_unlock_large_symmetric_graphs():
    star = b.build_family("star:30")
    assert b.count_dp(star) == b.star_count(30)
    assert b.count_based(star, 1) == math.factorial(60) // 2**30
    assert b.min_cost(b.Graph(14)).num_optimal == math.factorial(14)
    started = time.perf_counter()
    result = b.min_cost(b.build_family("complete:30"))
    assert time.perf_counter() - started < 1
    # K_n: any vertex order is optimal, and the k-th vertex opens k edges.
    assert result.num_optimal == math.factorial(30) * math.prod(map(math.factorial, range(30)))


def test_the_state_limit_is_the_only_subset_limit():
    LIMITS["count_dp"].check_subsets(30, 1 << 30)  # no vertex cap binds past 24
    LIMITS["count_dp"].check_subsets(0, 1)
    for p, limit in ((31, 1 << 30), (31, (1 << 31) - 1), (0, 0), (3, -8), (10**12, 1 << 24)):
        with pytest.raises(ResourceLimitError, match=f"^count DP needs 2\\^{p} vertex-subset states"):
            LIMITS["count_dp"].check_subsets(p, limit)


def are_twins(g: b.Graph, u: int, v: int) -> bool:
    """The definition: the same multiplicity to every other vertex and the
    same number of loops (vertices 1-based)."""
    mult = Counter(g.edges)
    edge = lambda x, y: mult[(min(x, y), max(x, y))]
    others = (w for w in range(1, g.p + 1) if w not in (u, v))
    return edge(u, u) == edge(v, v) and all(edge(u, w) == edge(v, w) for w in others)


def twin_states(g: b.Graph) -> int:
    """prod(n_i + 1) over the twin classes, found from the definition."""
    leaders = [min(u for u in range(1, v + 1) if u == v or are_twins(g, u, v)) for v in range(1, g.p + 1)]
    return math.prod(n + 1 for n in Counter(leaders).values())


def state(q, s: int) -> int:
    """The class-count vector of the vertex subset s (bit v-1 for vertex v)."""
    return sum(q.radix[c] for v, c in enumerate(q.vertex_class) if s >> v & 1)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.one_of(bundled_multigraphs(), simple_graphs()))
# Twin-free tables past 2^8 states, which grow by doubling, without and with loops.
@example(b.build_family("path:9"))
@example(b.Graph(11, tuple((v, v % 11 + 1) for v in range(1, 12)) + ((1, 5), (2, 7), (3, 9), (4, 11), (6, 10))))
@example(b.Graph(9, b.build_family("cycle:9").edges + ((1, 1), (1, 1), (4, 4), (1, 5)), multigraph=True))
# Rows in base 4: 1 and 2 are twins joined by a bundle of 3 edges, and 4 and
# 5 have the one neighbour 6, by 1 and 2 edges, so they are not twins.
@example(b.Graph(9, ((1, 2),) * 3 + ((1, 3), (2, 3), (4, 6), (5, 6), (5, 6), (6, 7), (7, 8), (8, 9), (3, 9)), multigraph=True))
# A twin-free table in base 4 past 2^8 states: bundles of 3 and 2 edges and a
# loop on path:10, each vertex a class of one whose row digits go past 1.
@example(b.Graph(10, b.build_family("path:10").edges + ((3, 4),) * 2 + ((7, 8),) + ((5, 5),), multigraph=True))
def test_edge_table_counts_the_edges_inside_every_subset(g):
    # At the twin-class state count as the limit the kernel must group the
    # twins; under a roomy limit it groups them from 8 vertices on.
    tight = twin_states(g)
    for limit, grouped in ((tight, True), (1 << 12, g.p >= 8)):
        q = _quotient(g.p, g.edges, max_states=limit, kernel=LIMITS["count_dp"])
        for u in range(1, g.p + 1):
            for v in range(u + 1, g.p + 1):
                same = q.vertex_class[u - 1] == q.vertex_class[v - 1]
                assert same == (grouped and are_twins(g, u, v))
        assert q.sizes == [q.vertex_class.count(i) for i in range(len(q.sizes))]
        assert len(q.placed) == q.radix[-1] == math.prod(n + 1 for n in q.sizes)
        assert q.scale == math.prod(map(math.factorial, q.sizes))
        # Every vertex subset, so every state, against its placed elements.
        masks = [(1 << (u - 1)) | (1 << (w - 1)) for u, w in g.edges]
        for s in range(1 << g.p):
            assert q.placed[state(q, s)] == s.bit_count() + sum(not mask & ~s for mask in masks)
    with pytest.raises(ResourceLimitError):
        _quotient(g.p, g.edges, max_states=tight - 1, kernel=LIMITS["count_dp"])
    # Bundles and loops give a vertex many edges to open in one step.
    if g.p:
        for limit in (tight, 1 << 12):
            based = [b.count_based(g, v, max_states=limit) for v in range(1, g.p + 1)]
            assert sum(based) == b.count_dp(g, max_states=limit)


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
    # The table holds C(S) * N!/h(S)! divided by prod((n_j - k_j)!), the
    # orders of the unplaced members of each twin class.
    n = g.element_count
    q = _quotient(g.p, g.edges, max_states=twin_states(g), kernel=LIMITS["count_dp"])
    a = _scaled_completions(q)
    for s, c in unscaled_completions(g, 0).items():
        x = state(q, s)
        h = n - q.placed[x]
        left = [q.sizes[i] - x // q.radix[i] % (q.sizes[i] + 1) for i in range(len(q.sizes))]
        assert a[x] * math.prod(map(math.factorial, left)) * math.factorial(h) == c * math.factorial(n)
    assert b.count_dp(g) == a[0] * q.scale
    # After the base, the loops at it take any of the N - 1 later positions.
    for base in range(1, g.p + 1):
        s = 1 << (base - 1)
        h = n - 1 - g.edges.count((base, base))
        c = unscaled_completions(g, s)[s]
        assert b.count_based(g, base) == c * math.factorial(n - 1) // math.factorial(h)


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


@st.composite
def blown_up_multigraphs(draw) -> b.Graph:
    """A random multigraph (loops, parallel edges, isolated vertices, p = 0)
    with each vertex v replaced by t_v twins: an independent set, or a
    clique whose pairs are joined by c_v >= 1 edges.  Every copy of u is
    joined to every copy of w as u was to w and keeps u's loops.  Parts are
    drawn only while the blown-up graph keeps within MAX_ELEMENTS."""
    p = draw(st.integers(0, 3))
    budget = MAX_ELEMENTS - p
    first = [1]
    for _ in range(p):
        extra = draw(st.integers(0, min(2, budget)))
        budget -= extra
        first.append(first[-1] + 1 + extra)
    edges = []
    for v in range(p):
        members = range(first[v], first[v + 1])
        pairs = [(x, y) for x in members for y in members if x < y]
        if pairs and len(pairs) <= budget:
            multiplicity = draw(st.integers(0, min(2, budget // len(pairs))))
            edges += pairs * multiplicity
            budget -= len(pairs) * multiplicity
    vertex = st.integers(0, p - 1)
    for u, w in draw(st.lists(st.tuples(vertex, vertex), max_size=4)) if p else ():
        joined = [(x, y) for x in range(first[u], first[u + 1]) for y in range(first[w], first[w + 1])
                  if u != w or x == y]
        if len(joined) <= budget:
            edges += joined
            budget -= len(joined)
    return b.Graph(first[-1] - 1, tuple(edges), multigraph=True)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(blown_up_multigraphs())
def test_blown_up_twins_agree_with_the_routes_that_ignore_them(g):
    count = b.count_bruteforce(g, element_limit=MAX_ELEMENTS)
    assert count == b.count_linear_extensions(b.incidence_poset(g))
    based = based_counts_by_walk(g)
    if g.p:
        assert sum(based) == count
    minimizers = b.enumerate_min_cost(g, element_limit=MAX_ELEMENTS)
    # At the twin-class state count as the limit the kernels must group the
    # twins; under the default limits they sweep these small graphs whole.
    for limit in (twin_states(g), None):
        limits = {} if limit is None else {"max_states": limit}
        assert b.count_dp(g, **limits) == count
        assert [b.count_based(g, v, **limits) for v in range(1, g.p + 1)] == based
        result = b.min_cost(g, max_witnesses=WITNESSES, **limits)
        assert result.min_cost == b.total_cost(minimizers[0])
        assert result.num_optimal == len(minimizers)
        assert list(result.witnesses) == minimizers[:WITNESSES]


def check_free_steps(q) -> tuple[list[tuple], list[tuple]]:
    """Every state's free steps are the classes with k_i < n_i, in class
    order: their radices, or (radix, weight) pairs with weights.  Returns
    the unweighted halves."""
    weights = [2 + i for i in range(len(q.sizes))]
    for items, weighted in ((q.radix, None), (list(zip(q.radix, weights)), weights)):
        low, high = _free_steps(q, weighted)
        assert len(low) * len(high) == q.radix[-1]
        for x in range(q.radix[-1]):
            free = [items[i] for i, n in enumerate(q.sizes) if x // q.radix[i] % (n + 1) < n]
            assert list(low[x % len(low)] + high[x // len(low)]) == free
    return _free_steps(q)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.one_of(multigraphs(), bundled_multigraphs(), blown_up_multigraphs()))
def test_free_steps_list_the_classes_open_at_every_state(g):
    # Twins grouped at the twin-class state count, and whole under a roomy limit.
    for limit in (twin_states(g), 1 << 10):
        check_free_steps(_quotient(g.p, g.edges, max_states=limit, kernel=LIMITS["count_dp"]))


def test_free_steps_of_twin_free_tables_around_two_to_the_eight():
    # Up to 2^8 states a twin-free table is all low half, ready in
    # _BIT_STEPS; at 2^9 the low half is the 64 states of 6 vertices.
    for spec, bits in (("path:8", 8), ("path:9", 6)):
        g = b.build_family(spec)
        q = _quotient(g.p, g.edges, max_states=1 << 10, kernel=LIMITS["count_dp"])
        assert q.sizes == [1] * g.p
        low, high = check_free_steps(q)
        assert low is _BIT_STEPS[bits]
        assert len(high) == 1 << (g.p - bits)


@st.composite
def based_multigraphs(draw) -> tuple[b.Graph, int]:
    """A multigraph on 1 to 5 vertices and one of its vertices as the base,
    with up to three loops at the base and a bundle of up to three parallel
    edges to each other vertex, any of them empty, and random edges on top;
    at most MAX_ELEMENTS elements in all."""
    p = draw(st.integers(1, 5))
    base = draw(st.integers(1, p))
    budget = MAX_ELEMENTS - p
    edges = []
    for w in range(1, p + 1):
        k = draw(st.integers(0, min(3, budget)))
        edges += [(base, w)] * k
        budget -= k
    vertex = st.integers(1, p)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=budget))
    return b.Graph(p, tuple(draw(st.permutations(edges))), multigraph=True), base


def poset_after(g: b.Graph, base: int) -> b.Poset:
    """The incidence poset of ``g`` without the minimal element of vertex
    ``base`` and its covers, the codes above it shifted down by one."""
    gone = base - 1
    covers = [(lo - (lo > gone), hi - 1) for lo, hi in b.incidence_poset(g).covers if lo != gone]
    return b.Poset(g.element_count - 1, tuple(covers))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(based_multigraphs())
@example((b.Graph(1), 1))
@example((b.Graph(1, ((1, 1),) * 3, multigraph=True), 1))
@example((b.Graph(3, ((2, 3), (2, 3)), multigraph=True), 1))
@example((b.Graph(3, ((1, 1), (1, 3), (1, 3), (2, 2)), multigraph=True), 3))
def test_based_count_is_the_count_after_the_base(case):
    g, base = case
    count = b.count_based(g, base)
    assert count == b.count_bruteforce(g, base=base, element_limit=MAX_ELEMENTS)
    assert count == b.count_linear_extensions(poset_after(g, base))


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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.one_of(multigraphs(), blown_up_multigraphs()), st.integers(0, 99))
def test_conjecture_reports_follow_the_definitions(g, seed):
    # check_conjecture walks only the minimizers; the definitions list every
    # sequence and every greedy run.  Policies run over all p! orders, so
    # they are compared up to 6 vertices, the largest p of multigraphs().
    tie_breaks: list = ["exhaustive"]
    if g.p <= 6:
        tie_breaks += [b.TieBreak(policy, seed) for policy in POLICIES]
    for tie_break in tie_breaks:
        expected = conjecture_by_definition(g, tie_break, element_limit=MAX_ELEMENTS)
        report = b.check_conjecture(g, tie_break, element_limit=MAX_ELEMENTS)
        assert report == expected
    assert report.num_min_cost == b.min_cost(g).num_optimal


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
