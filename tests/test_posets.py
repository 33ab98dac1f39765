import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildseq as b
from buildseq import Poset
from buildseq.errors import ResourceLimitError

from conftest import make_random_graph


def count_extensions_by_permutation_filter(poset: Poset) -> int:
    """Independent oracle: try all n! orders against the cover constraints."""
    count = 0
    for perm in itertools.permutations(range(poset.n)):
        pos = {x: i for i, x in enumerate(perm)}
        if all(pos[lo] < pos[hi] for lo, hi in poset.covers):
            count += 1
    return count


@st.composite
def posets(draw, max_n: int = 8) -> Poset:
    """Random posets: the covers of the transitive closure of a random
    relation that only goes upward in a random element order."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    related = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    for mid, lo, hi in itertools.product(range(n), repeat=3):  # mid outermost: Warshall
        if (lo, mid) in related and (mid, hi) in related:
            related.add((lo, hi))
    covers = [
        (order[lo], order[hi])
        for lo, hi in sorted(related)
        if not any((lo, mid) in related and (mid, hi) in related for mid in range(n))
    ]
    return Poset(n, tuple(covers))


@st.composite
def hypergraph_posets(draw) -> Poset:
    """Two-layer posets of at most 8 elements in which every hyperedge is a
    maximal element, with isolated vertices, singleton hyperedges, repeated
    members and p = 0."""
    p = draw(st.integers(0, 4))
    member = st.integers(1, max(p, 1))
    hyperedge = st.lists(member, min_size=1, max_size=4)
    hyperedges = draw(st.lists(hyperedge, max_size=8 - p)) if p else []
    return b.poset_from_hypergraph(p, hyperedges)


@st.composite
def multigraphs(draw) -> b.Graph:
    """Multigraphs with at most 7 vertices and 10 edges: loops, parallel
    edges, isolated vertices and p = 0."""
    p = draw(st.integers(0, 7))
    vertex = st.integers(1, max(p, 1))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10)) if p else []
    return b.Graph(p, tuple(edges), multigraph=True)


@st.composite
def cover_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    """(n, covers) around a random poset: its covers in any order, plus up
    to three extra pairs.  An extra pair is random over -1..n (out of range
    or self), random over 0..n-1, a repeated or reversed cover (a 2-cycle),
    or the ends of a two-cover chain in either order (redundant, a 3-cycle)."""
    poset = draw(posets(max_n=7))
    n, covers = poset.n, list(draw(st.permutations(poset.covers)))
    kinds = [st.tuples(st.integers(-1, n), st.integers(-1, n))]
    if n:
        kinds.append(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    chains = [(a, d) for a, b in covers for c, d in covers if b == c]
    for pairs in (covers, chains):
        if pairs:
            kinds.append(st.sampled_from(pairs))
            kinds.append(st.sampled_from(pairs).map(lambda pair: pair[::-1]))
    for extra in draw(st.lists(st.one_of(kinds), max_size=3)):
        covers.insert(draw(st.integers(0, len(covers))), extra)
    return n, covers


@st.composite
def narrow_posets(draw) -> tuple[Poset, int | None]:
    """(poset, count) on posets whose sweep is mostly forced runs, randomly
    relabelled.  A chain from a bottom to a top with side elements, each
    strictly between two chain elements w apart in disjoint windows, counts
    the product of the w; a chain with pendant maximal elements counts, with
    the pendants taken from the highest attachment down, L - i + j for the
    j-th one at chain index i; two chains of a and b elements between a
    bottom and a top count C(a + b, a).  Windows and pendants together have
    no closed form here, and count None."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 12)), draw(st.integers(0, 12))
        n, count = a + b + 2, math.comb(a + b, a)
        ends = [(0, 1), (a, n - 1)] + ([(0, a + 1), (a + b, n - 1)] if b else [])
        covers = ends + [(i, i + 1) for i in (*range(1, a), *range(a + 1, a + b))]
    else:
        length = draw(st.integers(1, 40))
        covers, count, n = [(i, i + 1) for i in range(length - 1)], 1, length
        start = draw(st.integers(0, 3))
        while start + 2 < length and draw(st.booleans()):
            w = draw(st.integers(2, min(5, length - 1 - start)))
            covers += [(start, n), (n, start + w)]
            count, n = count * w, n + 1
            start += w + draw(st.integers(0, 3))
        windows = n - length
        pendants = sorted(draw(st.lists(st.integers(0, length - 1), max_size=4)), reverse=True)
        for j, i in enumerate(pendants):
            covers.append((i, n))
            count, n = count * (length - i + j), n + 1
        if windows and pendants:
            count = None
    perm = draw(st.permutations(range(n)))
    return Poset(n, tuple((perm[lo], perm[hi]) for lo, hi in covers)), count


def two_pass_validation(n: int, covers: list[tuple[int, int]]) -> list[list[int]]:
    """The reference validator: range, self and duplicate checks against a
    set, then Kahn's check and the irredundancy walk, each on upper-cover
    lists of its own.  Returns the upper-cover lists of a valid poset."""
    if n < 0:
        raise ValueError(f"element count must be >= 0, got {n}")
    seen: set[tuple[int, int]] = set()
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n):
            raise ValueError(f"cover ({lo},{hi}) out of range for n={n}")
        if lo == hi:
            raise ValueError(f"cover ({lo},{hi}) relates an element to itself")
        if (lo, hi) in seen:
            raise ValueError(f"duplicate cover ({lo},{hi})")
        seen.add((lo, hi))

    def upper_adjacency() -> list[list[int]]:
        above: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in covers:
            above[lo].append(hi)
        return above

    indeg = [0] * n
    above = upper_adjacency()
    for _, hi in covers:
        indeg[hi] += 1
    queue = [x for x in range(n) if indeg[x] == 0]
    done = 0
    while queue:
        x = queue.pop()
        done += 1
        for y in above[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if done != n:
        raise ValueError("cover relation contains a cycle")
    above = upper_adjacency()
    for lo, hi in covers:
        stack = [y for y in above[lo] if y != hi]
        visited = set(stack)
        while stack:
            x = stack.pop()
            if x == hi:
                raise ValueError(f"cover ({lo},{hi}) is implied by transitivity and must be omitted")
            for y in above[x]:
                if y not in visited:
                    visited.add(y)
                    stack.append(y)
    return upper_adjacency()


def core_downsets_by_brute_force(poset: Poset) -> int:
    """Downsets of the non-maximal elements: the states the sweep stores."""
    core = sum({1 << lo for lo, _ in poset.covers})
    return sum(
        all(s >> hi & 1 <= s >> lo & 1 for lo, hi in poset.covers)
        for s in range(1 << poset.n)
        if not s & ~core
    )


class TestPosetType:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Poset(3, ((0, 1), (1, 2), (2, 0)))

    def test_redundant_cover_rejected(self):
        with pytest.raises(ValueError):
            Poset(3, ((0, 1), (1, 2), (0, 2)))

    def test_duplicate_cover_rejected(self):
        with pytest.raises(ValueError):
            Poset(2, ((0, 1), (0, 1)))

    def test_self_cover_rejected(self):
        with pytest.raises(ValueError):
            Poset(2, ((1, 1),))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Poset(2, ((0, 2),))

    def test_non_integer_covers_are_refused(self):
        for cover in ((0.9, 1), (0, 1.0), ("0", 1)):
            with pytest.raises(TypeError):
                Poset(2, (cover,))

    def test_element_count_is_an_index(self):
        assert repr(Poset(True)) == "Poset(n=1, covers=())"
        for n in (2.0, "2"):
            with pytest.raises(TypeError):
                Poset(n)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(cover_lists())
    def test_one_pass_index_matches_the_two_pass_validator(self, case):
        n, covers = case
        try:
            above = two_pass_validation(n, covers)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Poset(n, tuple(covers))
            assert str(info.value) == str(exc)
        else:
            poset = Poset(n, tuple(covers))
            assert (poset.n, poset.covers) == (n, tuple(covers))
            assert poset.upper_adjacency() == above
            for ups in poset.upper_adjacency():
                ups.append(n)  # a copy: the poset's own index is untouched
            assert poset.upper_adjacency() == above

    def test_wide_star_validates_in_one_walk_per_element(self):
        # The hub has 20,000 upper covers; a walk per cover took about a minute.
        start = time.perf_counter()
        poset = b.incidence_poset(b.build_family("star:20000"))
        assert time.perf_counter() - start < 5
        assert poset.n == 40_001

    def test_negative_and_empty(self):
        for n in (-1, -5):
            with pytest.raises(ValueError) as info:
                Poset(n, ((0, 1),))
            with pytest.raises(ValueError) as reference:
                two_pass_validation(n, [(0, 1)])
            assert str(info.value) == str(reference.value)
        assert Poset(0).upper_adjacency() == [] == two_pass_validation(0, [])

    def test_fields_equality_and_hash_see_only_n_and_covers(self):
        assert Poset._fields == ("n", "covers")
        a, c = Poset(3, ((0, 1), (1, 2))), Poset(3, ((0, 1), (1, 2)))
        assert a == c and hash(a) == hash(c) and a is not c
        assert a != Poset(3, ((1, 2), (0, 1)))
        assert repr(a) == "Poset(n=3, covers=((0, 1), (1, 2)))"


class TestCounting:
    def test_antichain_counts_all_orders(self):
        for n in range(5):
            assert b.count_linear_extensions(Poset(n, ())) == math.factorial(n)

    def test_chain_counts_one(self):
        for n in range(1, 6):
            covers = tuple((i, i + 1) for i in range(n - 1))
            assert b.count_linear_extensions(Poset(n, covers)) == 1

    def test_incidence_poset_of_short_path(self):
        poset = b.incidence_poset(b.build_family("path:3"))
        assert b.count_linear_extensions(poset) == 16

    def test_extremes_characterize_structure(self):
        rng = random.Random(7)
        samples = [Poset(4, ((0, 1), (1, 2), (2, 3)))]  # a chain, count 1
        for _ in range(30):
            n = rng.randint(1, 6)
            covers = []
            for lo in range(n):
                for hi in range(lo + 1, n):
                    if rng.random() < 0.3:
                        covers.append((lo, hi))
            try:
                samples.append(Poset(n, tuple(covers)))
            except ValueError:
                continue  # redundant or otherwise invalid sample
        for poset in samples:
            count = b.count_linear_extensions(poset)
            assert 1 <= count <= math.factorial(poset.n)
            if count == math.factorial(poset.n):
                assert poset.covers == ()
            if count == 1:
                self._assert_total_order(poset)
            assert count == count_extensions_by_permutation_filter(poset)

    @staticmethod
    def _assert_total_order(poset):
        above = poset.upper_adjacency()
        reachable = []
        for start in range(poset.n):
            seen: set[int] = set()
            stack = list(above[start])
            while stack:
                x = stack.pop()
                if x not in seen:
                    seen.add(x)
                    stack.extend(above[x])
            reachable.append(seen)
        for i in range(poset.n):
            for j in range(i + 1, poset.n):
                assert j in reachable[i] or i in reachable[j]

    def test_matches_oracle_on_small_graphs(self, named_families):
        for g in named_families.values():
            if g.element_count > 8:
                continue
            poset = b.incidence_poset(g)
            assert (
                b.count_linear_extensions(poset)
                == count_extensions_by_permutation_filter(poset)
            )

    def test_renumbering_invariance(self):
        rng = random.Random(11)
        base = b.incidence_poset(b.build_family("star:3"))
        reference = b.count_linear_extensions(base)
        for _ in range(5):
            perm = list(range(base.n))
            rng.shuffle(perm)
            relabeled = b.relabel_poset(base, perm)
            assert b.count_linear_extensions(relabeled) == reference
        with pytest.raises(ValueError, match="not a permutation"):
            b.relabel_poset(base, [0] * base.n)

    def test_state_cap(self):
        # 10 disjoint 2-chains have 2^10 core downsets.
        wide = Poset(20, tuple((2 * i, 2 * i + 1) for i in range(10)))
        with pytest.raises(ResourceLimitError):
            b.count_linear_extensions(wide, max_states=1000)

    def test_state_cap_stops_the_sweep_within_a_level(self):
        # 13 disjoint 5-chains have 5^13 core downsets but at most 13 addable
        # core elements, so the antichain check (2^13 <= 10,000) passes and
        # the count of stored states must stop the sweep.
        chains = Poset(65, tuple((i, i + 1) for i in range(65) if i % 5 != 4))
        with pytest.raises(ResourceLimitError, match="exceeded 10000 states"):
            b.count_linear_extensions(chains, max_states=10_000)

    def test_wide_poset_fails_at_once_under_the_default_limit(self):
        # 19 disjoint 2-chains have 19 addable core elements at the empty
        # downset: 2^19 core downsets, past the default 2^18.  Without that
        # check the sweep would store 2^18 states before raising.
        chains = Poset(38, tuple((2 * i, 2 * i + 1) for i in range(19)))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeded 262144 states"):
            b.count_linear_extensions(chains)
        assert time.perf_counter() - start < 0.1
        # Maximal elements are not stored: an antichain, or one bottom under
        # them, is one or two states.
        for wide in (Poset(60, ()), Poset(61, tuple((0, x) for x in range(1, 61)))):
            assert b.count_linear_extensions(wide) == math.factorial(60)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(posets(), st.randoms(use_true_random=False))
    def test_random_posets_match_the_oracle_under_relabelling(self, poset, rng):
        count = b.count_linear_extensions(poset)
        assert count == count_extensions_by_permutation_filter(poset)
        perm = list(range(poset.n))
        rng.shuffle(perm)
        assert b.count_linear_extensions(b.relabel_poset(poset, perm)) == count

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(posets(max_n=10))
    def test_state_cap_bounds_the_downsets(self, poset):
        downsets = core_downsets_by_brute_force(poset)
        for limit in {0, 1, *range(max(0, downsets - 2), downsets + 2)}:
            if downsets > limit:
                with pytest.raises(ResourceLimitError):
                    b.count_linear_extensions(poset, max_states=limit)
            else:
                b.count_linear_extensions(poset, max_states=limit)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(hypergraph_posets())
    def test_many_maximal_elements_match_the_oracle_and_the_limit(self, poset):
        count = b.count_linear_extensions(poset)
        assert count == count_extensions_by_permutation_filter(poset)
        downsets = core_downsets_by_brute_force(poset)
        assert b.count_linear_extensions(poset, max_states=downsets) == count
        with pytest.raises(ResourceLimitError):
            b.count_linear_extensions(poset, max_states=downsets - 1)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(narrow_posets(), st.data())
    def test_forced_runs_match_the_oracle_closed_forms_and_the_limit(self, case, data):
        poset, count = case
        if poset.n <= 9:
            oracle = count_extensions_by_permutation_filter(poset)
            assert count in (None, oracle)
            count = oracle
        if count is not None:
            assert b.count_linear_extensions(poset) == count
        if poset.n <= 13:
            # Every limit under the core downsets raises, wherever the sweep
            # reaches it, the middle of a forced run included.
            downsets = core_downsets_by_brute_force(poset)
            assert b.count_linear_extensions(poset, max_states=downsets) == b.count_linear_extensions(poset)
            for limit in {downsets - 1, data.draw(st.integers(0, downsets - 1))}:
                with pytest.raises(ResourceLimitError, match=f"exceeded {limit} states"):
                    b.count_linear_extensions(poset, max_states=limit)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(multigraphs())
    def test_incidence_posets_of_multigraphs_match_count_dp(self, g):
        poset = b.incidence_poset(g)
        count = b.count_linear_extensions(poset)
        assert count == b.count_dp(g)
        if poset.n <= 8:
            assert count == count_extensions_by_permutation_filter(poset)

    def test_complete_eight_past_two_to_the_28_downsets(self):
        # K_8's incidence poset has more than 2^28 downsets, but only 2^8
        # of them hold no edge: 256 states, far inside the default.
        poset = b.incidence_poset(b.build_family("complete:8"))
        assert b.count_linear_extensions(poset) == b.complete_count(8)

    def test_incidence_posets_store_one_state_per_vertex_subset(self):
        # Every vertex of a path is minimal and every edge maximal, so the
        # core downsets are the 2^p vertex subsets.
        path = b.build_family("path:10")
        poset = b.incidence_poset(path)
        assert b.count_linear_extensions(poset, max_states=2**10) == b.count_dp(path)
        longer = b.incidence_poset(b.build_family("path:11"))
        with pytest.raises(ResourceLimitError, match="exceeded 1024 states"):
            b.count_linear_extensions(longer, max_states=2**10)

    def test_fences_count_the_zigzag_numbers(self):
        # A fence of n elements alternates covers up and down; its linear
        # extensions are the alternating permutations of n, in either
        # orientation.
        zigzag = b.zigzag_numbers(15)
        for n in range(1, 31):
            euler = zigzag.tangent[(n + 1) // 2] if n % 2 else zigzag.secant[n // 2]
            for up in (0, 1):
                covers = tuple((i, i + 1) if i % 2 == up else (i + 1, i) for i in range(n - 1))
                assert b.count_linear_extensions(Poset(n, covers)) == euler

    def test_maximal_elements_over_one_bottom_count_every_order(self):
        # The bottom's core downsets are the empty one and itself: two
        # states, whatever the number m of maximal elements above it.
        for m in (*range(26), 200):
            star = Poset(m + 1, tuple((0, x) for x in range(1, m + 1)))
            assert b.count_linear_extensions(star, max_states=2) == math.factorial(m)

    def test_one_core_step_opening_two_maximal_elements(self):
        # Whichever of vertices 1 and 2 comes second opens both (1, 2)
        # hyperedges at once.
        poset = b.poset_from_hypergraph(3, [(1, 2), (1, 2), (2, 3)])
        assert b.count_linear_extensions(poset) == 52
        assert count_extensions_by_permutation_filter(poset) == 52

    def test_long_chain_needs_no_recursion(self):
        chain = Poset(3000, tuple((i, i + 1) for i in range(2999)))
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            assert b.count_linear_extensions(chain) == 1
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)


class TestHypergraphs:
    def test_single_hyperedge_over_all_vertices(self):
        poset = b.poset_from_hypergraph(3, [{1, 2, 3}])
        assert b.count_linear_extensions(poset) == 6

    def test_graph_edges_match_incidence_poset(self):
        g = b.build_family("path:3")
        poset = b.poset_from_hypergraph(3, [set(pair) for pair in g.edges])
        assert poset == b.incidence_poset(g)
        assert b.count_linear_extensions(poset) == 16

    def test_two_singleton_hyperedges(self):
        # Two independent vertex-below-edge chains; their shuffles are C(4,2).
        poset = b.poset_from_hypergraph(2, [{1}, {2}])
        assert count_extensions_by_permutation_filter(poset) == 6
        assert b.count_linear_extensions(poset) == 6

    def test_errors(self):
        with pytest.raises(ValueError):
            b.poset_from_hypergraph(2, [set()])
        with pytest.raises(ValueError):
            b.poset_from_hypergraph(2, [{3}])
        with pytest.raises(ValueError, match="vertex count must be >= 0"):
            b.poset_from_hypergraph(-1, [])


TRIANGLE_BOUNDARY = [
    ("a", {1}),
    ("b", {2}),
    ("c", {3}),
    ("ab", {1, 2}),
    ("bc", {2, 3}),
    ("ac", {1, 3}),
]


class TestFacePosets:
    def test_triangle_boundary_matches_three_cycle(self):
        poset = b.poset_from_faces(TRIANGLE_BOUNDARY)
        cycle_poset = b.incidence_poset(b.build_family("cycle:3"))
        assert sorted(poset.covers) == sorted(cycle_poset.covers)
        assert b.count_linear_extensions(poset) == 48
        assert b.count_bruteforce(b.build_family("cycle:3")) == 48

    def test_solid_triangle_against_permutation_filter(self):
        poset = b.poset_from_faces(TRIANGLE_BOUNDARY + [("abc", {1, 2, 3})])
        assert poset.n == 7
        expected = count_extensions_by_permutation_filter(poset)
        assert b.count_linear_extensions(poset) == expected

    def test_single_vertex(self):
        poset = b.poset_from_faces([("a", {1})])
        assert b.count_linear_extensions(poset) == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            b.poset_from_faces([("a", {1}), ("a", {2})])

    def test_missing_singleton_rejected(self):
        with pytest.raises(ValueError):
            b.poset_from_faces([("a", {1}), ("ab", {1, 2})])
        with pytest.raises(ValueError, match="face 'ab' has no vertices"):
            b.poset_from_faces([("a", {1}), ("ab", set())])


class TestAgainstGraphCounts:
    def test_incidence_counts_equal_brute_force(self):
        rng = random.Random(99)
        for _ in range(25):
            g = make_random_graph(rng, max_elements=8)
            assert b.count_linear_extensions(b.incidence_poset(g)) == b.count_bruteforce(g)


class TestTextFormat:
    def test_round_trip(self):
        poset = b.incidence_poset(b.build_family("star:2"))
        assert b.parse_poset(b.format_poset(poset)) == poset

    def test_parse(self):
        poset = b.parse_poset("3\n0 2\n1 2\n")
        assert poset == Poset(3, ((0, 2), (1, 2)))

    def test_errors(self):
        for text in ("", "x\n", "2\n0\n"):
            with pytest.raises(ValueError):
                b.parse_poset(text)
