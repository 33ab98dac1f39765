import itertools
import math
import random

import pytest

import buildseq as b
from buildseq import Element, TieBreak, optimize
from buildseq.optimize import POLICIES
from buildseq.errors import ResourceLimitError

from conftest import conjecture_by_definition, make_random_graph


class TestGreedy:
    def test_path_natural_order(self):
        for n in range(2, 7):
            g = b.build_family(f"path:{n}")
            x = b.greedy(g)
            assert b.total_cost(x) == 4 * n - 5
            expected = [Element.vertex(1)]
            for k in range(2, n + 1):
                expected += [Element.vertex(k), Element.edge(k - 1)]
            assert list(x.elements) == expected

    def test_star_from_hub_costs_square(self):
        for n in range(1, 8):
            g = b.build_family(f"star:{n}")
            x = b.greedy(g)  # natural order places the hub first
            assert b.total_cost(x) == (n + 1) ** 2 - 1

    def test_reversed_single_edge(self):
        x = b.greedy(b.build_family("path:2"), (2, 1))
        assert str(x) == "v2 v1 e1"
        assert b.total_cost(x) == 3

    def test_output_always_validates(self):
        rng = random.Random(42)
        for _ in range(25):
            g = make_random_graph(rng, max_elements=9)
            order = list(range(1, g.p + 1))
            rng.shuffle(order)
            policy = rng.choice(("lexicographic", "cycle-avoiding", "seeded-random"))
            x = b.greedy(g, order, TieBreak(policy, seed=rng.randint(0, 99)))
            assert b.validate(g, x.elements) == []

    def test_edges_emitted_as_soon_as_available(self):
        g = b.build_family("cycle:4")
        x = b.greedy(g, (1, 3, 2, 4))
        placed: set[Element] = set()
        for el in x.elements:
            if el.is_vertex:
                available = [
                    j
                    for j in range(1, g.q + 1)
                    if Element.edge(j) not in placed
                    and all(Element.vertex(v) in placed for v in g.endpoints(j))
                ]
                assert not available
            placed.add(el)

    def test_tie_break_policies_differ(self):
        g = b.build_family("cycle:3")
        lex = b.greedy(g, (1, 2, 3), TieBreak("lexicographic"))
        assert str(lex) == "v1 v2 e1 v3 e2 e3"
        avoid = b.greedy(g, (1, 2, 3), TieBreak("cycle-avoiding"))
        assert str(avoid) == "v1 v2 e1 v3 e2 e3"
        seeded = {
            str(b.greedy(g, (1, 2, 3), TieBreak("seeded-random", seed)))
            for seed in range(8)
        }
        assert seeded <= {"v1 v2 e1 v3 e2 e3", "v1 v2 e1 v3 e3 e2"}
        assert len(seeded) == 2

    def test_seeded_random_on_a_star_with_the_hub_last(self):
        # The hub opens every edge at once, so all picks come from one batch.
        g = b.build_family("star:6")
        order = (2, 3, 4, 5, 6, 7, 1)
        x = b.greedy(g, order, TieBreak("seeded-random", 0))
        assert str(x) == "v2 v3 v4 v5 v6 v7 v1 e4 e5 e1 e3 e6 e2"
        x = b.greedy(g, order, TieBreak("seeded-random", 3))
        assert str(x) == "v2 v3 v4 v5 v6 v7 v1 e2 e6 e3 e4 e5 e1"

    def test_policies_follow_the_pick_one_edge_at_a_time_definition(self):
        def reference(g, order, tie):
            # Recompute the available edges in id order before every pick.
            rng = random.Random(tie.seed)
            parent = list(range(g.p + 1))

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            placed, used, out = set(), set(), []
            for v in order:
                placed.add(v)
                out.append(f"v{v}")
                while True:
                    free = [j for j in range(1, g.q + 1) if j not in used and set(g.edges[j - 1]) <= placed]
                    if not free:
                        break
                    if tie.policy == "lexicographic":
                        j = free[0]
                    elif tie.policy == "seeded-random":
                        j = rng.choice(free)
                    else:
                        joins = [j for j in free if find(g.edges[j - 1][0]) != find(g.edges[j - 1][1])]
                        j = (joins or free)[0]
                    u, w = g.edges[j - 1]
                    parent[find(u)] = find(w)
                    used.add(j)
                    out.append(f"e{j}")
            return " ".join(out)

        rng = random.Random(11)
        for _ in range(60):
            p = rng.randint(1, 6)
            edges = tuple((rng.randint(1, p), rng.randint(1, p)) for _ in range(rng.randint(0, 3 * p)))
            g = b.Graph(p, edges, multigraph=True)
            order = list(range(1, p + 1))
            rng.shuffle(order)
            for policy in POLICIES:
                tie = TieBreak(policy, seed=rng.randint(0, 99))
                assert str(b.greedy(g, order, tie)) == reference(g, order, tie)

    def test_cycle_avoiding_postpones_closures(self):
        # After v1 v2 e2 v4 v3 e1 both e3 (closing the triangle) and e4
        # (reaching v4) are available; the lexicographic rule takes e3, the
        # cycle-avoiding rule postpones it.
        g = b.Graph(4, ((1, 3), (1, 2), (2, 3), (3, 4)))
        order = (1, 2, 4, 3)
        lex = b.greedy(g, order, TieBreak("lexicographic"))
        avoid = b.greedy(g, order, TieBreak("cycle-avoiding"))
        assert str(lex) == "v1 v2 e2 v4 v3 e1 e3 e4"
        assert str(avoid) == "v1 v2 e2 v4 v3 e1 e4 e3"

    def assert_policies_run_without(self, monkeypatch, owner, name, policies):
        g = b.build_family("union(cycle:3,star:2)")
        order = (4, 1, 5, 3, 2, 6)
        ties = [TieBreak(policy, seed=5) for policy in policies]
        expected = [(b.greedy(g, order, tie), b.check_conjecture(g, tie)) for tie in ties]

        def refuse(*_):
            raise AssertionError(f"{name} was built for a policy that never reads it")

        monkeypatch.setattr(owner, name, refuse)
        assert [(b.greedy(g, order, tie), b.check_conjecture(g, tie)) for tie in ties] == expected

    def test_only_seeded_random_builds_a_generator(self, monkeypatch):
        policies = ("lexicographic", "cycle-avoiding")
        self.assert_policies_run_without(monkeypatch, optimize.random, "Random", policies)

    def test_only_cycle_avoiding_builds_a_union_find(self, monkeypatch):
        policies = ("lexicographic", "seeded-random")
        self.assert_policies_run_without(monkeypatch, optimize, "_UnionFind", policies)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            b.greedy(b.build_family("path:2"), (1, 1))

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            TieBreak("fastest")


class TestGreedyAll:
    def test_path_contains_both_traversals(self):
        g = b.build_family("path:3")
        outputs = {str(x) for x in b.greedy_all(g)}
        assert "v1 v2 e1 v3 e2" in outputs
        assert "v3 v2 e2 v1 e1" in outputs

    def test_single_edge_star(self):
        assert len(b.greedy_all(b.build_family("star:1"))) == 2

    def test_vertex_limit(self):
        with pytest.raises(ResourceLimitError, match="^9 vertices exceed the greedy-all limit 8$"):
            b.greedy_all(b.build_family("path:9"))

    @pytest.mark.parametrize(
        "tie",
        [TieBreak(), TieBreak("cycle-avoiding"), TieBreak("seeded-random", 3), TieBreak("seeded-random", 71)],
        ids=lambda tie: f"{tie.policy}-{tie.seed}",
    )
    @pytest.mark.parametrize(
        "g",
        [
            b.build_family("complete:4"),
            b.build_family("star:4"),
            b.build_family("cycle:4"),
            b.Graph(3, ((1, 1), (1, 2), (1, 2), (2, 3)), multigraph=True),
            b.Graph(0),
            b.Graph(3),
        ],
        ids=["complete:4", "star:4", "cycle:4", "loop-and-parallel", "empty", "edgeless:3"],
    )
    def test_is_greedy_over_every_order(self, g, tie):
        orders = itertools.permutations(range(1, g.p + 1))
        assert b.greedy_all(g, tie) == {b.greedy(g, order, tie) for order in orders}


class TestMinCost:
    def test_paths(self):
        for n in range(2, 9):
            result = b.min_cost(b.build_family(f"path:{n}"))
            assert (result.min_cost, result.num_optimal) == (4 * n - 5, 2)

    def test_cycles_value_and_count(self):
        # The minimum matches 6n-4; the number of minimizers is n * 2^(n-1):
        # pick the starting edge and its orientation, grow the arc from
        # either end, and swap the final two edges freely.  Confirmed by
        # full enumeration below and hand-checked witnesses.  From n = 9 on
        # the sweep runs over several blocks of its plan.
        for n in range(3, 15):
            result = b.min_cost(b.build_family(f"cycle:{n}"))
            assert result.min_cost == 6 * n - 4
            assert result.num_optimal == n * 2 ** (n - 1)

    def test_no_element_list_without_a_sequence(self, monkeypatch):
        g = b.build_family("cycle:5")
        expected = b.min_cost(g), b.check_conjecture(g)
        assert expected[1].holds

        def refuse(self):
            raise AssertionError("listed the elements for no sequence")

        monkeypatch.setattr(b.Graph, "elements", refuse)
        assert (b.min_cost(g), b.check_conjecture(g)) == expected
        monkeypatch.undo()
        assert b.min_cost(g, max_witnesses=1).witnesses == (b.enumerate_min_cost(g)[0],)

    def test_cycle_counts_match_enumeration(self):
        for n in (3, 4, 5):
            g = b.build_family(f"cycle:{n}")
            minimizers = b.enumerate_min_cost(g)
            result = b.min_cost(g)
            assert len(minimizers) == result.num_optimal
            assert {b.total_cost(x) for x in minimizers} == {result.min_cost}

    def test_hand_checked_cycle_witness(self):
        # Equal-cost variant with the closing edge placed before the last
        # path edge: 3 + 5 + 6 = 14.
        g = b.build_family("cycle:3")
        x = b.CSeq(g, b.parse_sequence("v1 v2 e1 v3 e3 e2"))
        assert b.total_cost(x) == 14 == b.min_cost(g).min_cost

    def test_star_five(self):
        result = b.min_cost(b.build_family("star:5"))
        assert result.min_cost == 30

    def test_multigraph_cycles(self):
        loop = b.min_cost(b.build_family("cycle:1"))
        assert (loop.min_cost, loop.num_optimal) == (2, 1)
        doubled = b.min_cost(b.build_family("cycle:2"))
        assert (doubled.min_cost, doubled.num_optimal) == (8, 4)
        assert len(b.enumerate_min_cost(b.build_family("cycle:2"))) == 4

    def test_witnesses_validate_and_hit_the_minimum(self):
        g = b.build_family("star:4")
        result = b.min_cost(g, max_witnesses=10)
        assert len(result.witnesses) == 10
        for x in result.witnesses:
            assert b.validate(g, x.elements) == []
            assert b.total_cost(x) == result.min_cost

    def test_witness_cap_and_order(self):
        g = b.build_family("cycle:3")
        all_witnesses = b.min_cost(g, max_witnesses=100).witnesses
        assert len(all_witnesses) == 12
        capped = b.min_cost(g, max_witnesses=5).witnesses
        assert capped == all_witnesses[:5]
        assert list(all_witnesses) == sorted(
            all_witnesses, key=lambda x: [e.sort_key() for e in x.elements]
        )

    def test_witnesses_past_the_enumeration_limit(self):
        # 21 and 15 elements, over the enumerators' limit of 11.
        for spec, k in (("complete:6", 50), ("path:8", 10)):
            g = b.build_family(spec)
            assert g.element_count > b.DEFAULT_ELEMENT_LIMIT
            result = b.min_cost(g, max_witnesses=k)
            assert len(result.witnesses) == min(k, result.num_optimal)
            keys = [tuple(e.sort_key() for e in x.elements) for x in result.witnesses]
            assert keys == sorted(set(keys))
            for x in result.witnesses:
                assert b.validate(g, x.elements) == []
                assert b.total_cost(x) == result.min_cost

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(777)
        for _ in range(30):
            g = make_random_graph(rng, max_elements=8)
            minimizers = b.enumerate_min_cost(g)
            result = b.min_cost(g)
            assert result.min_cost == b.total_cost(minimizers[0])
            assert result.num_optimal == len(minimizers)

    def test_vertex_limit(self):
        message = "^optimizer needs 2\\^23 vertex-subset states, over the limit 4194304; raise max_states to continue$"
        with pytest.raises(ResourceLimitError, match=message):
            b.min_cost(b.build_family("path:23"))


class TestEnumerateMinCost:
    def test_paths_have_two_minimizers(self):
        minimizers = b.enumerate_min_cost(b.build_family("path:4"))
        assert [str(x) for x in minimizers] == [
            "v1 v2 e1 v3 e2 v4 e3",
            "v4 v3 e3 v2 e2 v1 e1",
        ]

    def test_path_minimizers_stay_in_two_pieces(self):
        for n in range(2, 7):
            for x in b.enumerate_min_cost(b.build_family(f"path:{n}")):
                assert b.component_profile(x).peak <= 2

    def test_limit(self):
        with pytest.raises(ResourceLimitError, match="^15 elements exceed the enumeration limit 11$"):
            b.enumerate_min_cost(b.build_family("path:8"))


class TestConjectureHarness:
    def test_exhaustive_holds_on_small_families(self):
        for spec in ("path:4", "path:5", "cycle:4", "cycle:5", "star:4", "complete:4"):
            report = b.check_conjecture(b.build_family(spec))
            assert report.holds, f"{spec}: {report.counterexamples[:3]}"
            assert report.num_min_cost > 0
            assert report.num_greedy >= report.num_min_cost

    def test_policy_restricted_run_reports_misses(self):
        # A fixed lexicographic tie-break cannot emit the closing edge of a
        # triangle before the second path edge, so some minimizers are
        # unreachable; the report must say so rather than fail silently.
        report = b.check_conjecture(b.build_family("cycle:3"), TieBreak("lexicographic"))
        assert not report.holds
        assert len(report.counterexamples) == 6
        reachable = b.greedy_all(b.build_family("cycle:3"), TieBreak("lexicographic"))
        for x in report.counterexamples:
            assert x not in reachable
            assert b.total_cost(x) == 14

    def test_counterexamples_reproduce(self):
        report = b.check_conjecture(b.build_family("star:4"))
        if not report.holds:
            exhaustive = b.exhaustive_greedy_set(b.build_family("star:4"))
            for x in report.counterexamples:
                assert x not in exhaustive

    def test_exhaustive_greedy_set_is_edge_eager(self):
        g = b.build_family("star:2")
        for x in b.exhaustive_greedy_set(g):
            placed: set[Element] = set()
            for el in x.elements:
                if el.is_vertex:
                    available = [
                        j
                        for j in range(1, g.q + 1)
                        if Element.edge(j) not in placed
                        and all(Element.vertex(v) in placed for v in g.endpoints(j))
                    ]
                    assert not available
                placed.add(el)

    def test_policy_outputs_are_exhaustively_reachable(self):
        for spec in ("path:4", "cycle:4", "star:3"):
            g = b.build_family(spec)
            exhaustive = b.exhaustive_greedy_set(g)
            for policy in ("lexicographic", "cycle-avoiding", "seeded-random"):
                assert b.greedy_all(g, TieBreak(policy, seed=3)) <= exhaustive

    @staticmethod
    def refuse_the_walks(monkeypatch, when):
        """Make the min-cost sweep and the minimizer walk, which
        check_conjecture runs only under a single policy, raise."""

        def refuse(*_, **__):
            raise AssertionError(f"sequences walked before the {when}")

        for name in ("_least_costs", "_minimizers", "_iter_codes"):
            monkeypatch.setattr(optimize, name, refuse)

    def test_limits_are_checked_before_the_enumeration(self, monkeypatch):
        self.refuse_the_walks(monkeypatch, "limit check")
        spec = "union(" + ",".join(["path:1"] * 9) + ")"
        with pytest.raises(ResourceLimitError, match="^9 vertices exceed the greedy-all limit 8$"):
            b.check_conjecture(b.build_family(spec), TieBreak("lexicographic"))
        # Over both limits: the element limit is reported, as the CLI does.
        over = b.build_family("union(path:5,path:4)")
        with pytest.raises(ResourceLimitError, match="^16 elements exceed the enumeration limit 11$"):
            b.check_conjecture(over, TieBreak("lexicographic"))
        with pytest.raises(ResourceLimitError, match="^16 elements exceed the enumeration limit 11$"):
            b.check_conjecture(over)

    def test_bad_tie_break_argument(self):
        with pytest.raises(ValueError):
            b.check_conjecture(b.build_family("path:3"), "everything")

    def test_bad_tie_break_raises_before_the_enumeration(self, monkeypatch):
        self.refuse_the_walks(monkeypatch, "tie_break check")
        with pytest.raises(ValueError, match="^tie_break must be a TieBreak or 'exhaustive', got 'everything'$"):
            b.check_conjecture(b.build_family("path:6"), "everything")

    def test_runs_without_the_definitional_routes(self, monkeypatch):
        # The definitions stay the tests' independent routes: check_conjecture
        # walks only the minimizers and never lists every sequence or every
        # greedy run.
        cases = [
            (b.build_family(spec), tie_break)
            for spec in ("path:5", "star:4")
            for tie_break in ("exhaustive", *(TieBreak(policy, seed=5) for policy in POLICIES))
        ]
        expected = [conjecture_by_definition(g, tie_break) for g, tie_break in cases]

        def refuse(*_, **__):
            raise AssertionError("check_conjecture used a definitional route")

        for name in ("enumerate_min_cost", "greedy_all", "exhaustive_greedy_set"):
            monkeypatch.setattr(optimize, name, refuse)
        assert [b.check_conjecture(g, tie_break) for g, tie_break in cases] == expected
        assert any(not report.holds for report in expected)

    def test_exhaustive_walks_no_sequence(self, monkeypatch):
        # Every minimizer is edge-eager, and both counts come from the
        # min-cost table, so the default report lists nothing.
        graphs = [b.build_family("path:5"), b.build_family("star:4"), b.Graph(0)]
        expected = [conjecture_by_definition(g) for g in graphs]

        def refuse(*_, **__):
            raise AssertionError("the exhaustive check walked sequences")

        for name in ("_minimizers", "_iter_codes"):
            monkeypatch.setattr(optimize, name, refuse)
        assert [b.check_conjecture(g) for g in graphs] == expected

    def test_complete_graphs_past_the_walks(self):
        # Every vertex order of K_n opens k - 1 edges at its k-th vertex,
        # and every edge-eager sequence of K_n costs the same.
        for n in range(1, 8):
            report = b.check_conjecture(b.build_family(f"complete:{n}"), element_limit=100)
            expected = math.prod(math.factorial(k) for k in range(1, n + 1))
            assert report.num_min_cost == report.num_greedy == expected
            assert report.holds
        assert expected == 125411328000

    def test_cycles_past_the_walks(self):
        for n in range(3, 11):
            report = b.check_conjecture(b.build_family(f"cycle:{n}"), element_limit=100)
            assert report.num_min_cost == n * 2 ** (n - 1)
            assert report.holds

    def test_edgeless_eleven_vertices(self):
        report = b.check_conjecture(b.Graph(11))
        assert report.num_min_cost == report.num_greedy == math.factorial(11)
        assert report.holds and report.counterexamples == ()


class TestStarSchedule:
    def test_worked_example(self):
        x = b.star_schedule(5)
        assert b.total_cost(x) == 30
        assert str(x) == "v2 v3 v1 e1 e2 v4 e3 v5 e4 v6 e5"

    def test_two_leaves_is_a_short_path(self):
        x = b.star_schedule(2)
        assert b.total_cost(x) == 7 == b.min_cost(b.build_family("path:3")).min_cost

    def test_single_leaf(self):
        assert b.total_cost(b.star_schedule(1)) == 3

    def test_beats_hub_first_greedy(self):
        for n in range(1, 11):
            schedule_cost = b.total_cost(b.star_schedule(n))
            hub_first = (n + 1) ** 2 - 1
            assert schedule_cost <= hub_first
            if n >= 2:
                assert schedule_cost < hub_first

    def test_is_a_minimum_cost_sequence(self):
        for n in range(1, 13):
            assert b.total_cost(b.star_schedule(n)) == b.min_cost(b.build_family(f"star:{n}")).min_cost

    def test_bad_size(self):
        with pytest.raises(ValueError):
            b.star_schedule(0)


class TestEconomyVsCount:
    def test_records_are_observational(self):
        graphs = [b.build_family(spec) for spec in ("path:3", "star:3", "cycle:3")]
        records = b.economy_vs_count(graphs)
        assert records, "expected at least one strict num_optimal inequality"
        for record in records:
            opt_left, opt_right = record["num_optimal"]
            assert opt_left < opt_right
            assert record["consistent"] == (record["count"][0] < record["count"][1])
