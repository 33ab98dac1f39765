import itertools
import random
from fractions import Fraction

import pytest

import buildseq as b
from buildseq import CSeq, Element, TimeAssignment, sequences
from buildseq.errors import LIMITS, IsolatedVertexError, ResourceLimitError


def seq(graph, text):
    return CSeq(graph, b.parse_sequence(text))


PATH3 = b.build_family("path:3")
PATH2 = b.build_family("path:2")


class TestValidate:
    def test_valid_sequence(self):
        assert b.validate(PATH3, b.parse_sequence("v1 v2 v3 e2 e1")) == []

    def test_violation_names_edge_and_endpoint(self):
        problems = b.validate(PATH3, b.parse_sequence("v1 v3 e1 v2 e2"))
        assert len(problems) == 1
        assert (problems[0].kind, problems[0].edge, problems[0].vertex) == (
            "edge-before-endpoint",
            1,
            2,
        )

    def test_both_orders_of_the_single_edge(self):
        assert b.validate(PATH2, b.parse_sequence("v1 v2 e1")) == []
        assert b.validate(PATH2, b.parse_sequence("v2 v1 e1")) == []
        assert len(list(b.enumerate_csequences(PATH2))) == 2

    def test_every_violation_is_reported(self):
        problems = b.validate(PATH3, b.parse_sequence("e1 e2 v1 v2 v3"))
        assert len(problems) == 4
        assert {(v.edge, v.vertex) for v in problems} == {
            (1, 1),
            (1, 2),
            (2, 2),
            (2, 3),
        }

    def test_not_a_permutation(self):
        problems = b.validate(PATH2, b.parse_sequence("v1 v2"))
        assert problems[0].kind == "not-permutation"
        problems = b.validate(PATH2, b.parse_sequence("v1 v1 e1"))
        assert problems[0].kind == "not-permutation"
        problems = b.validate(PATH2, b.parse_sequence("v1 v2 e1 e2"))
        assert problems[0].kind == "not-permutation"

    def test_short_sequence_against_a_huge_graph(self):
        problems = b.validate(b.Graph(10**7), [Element.vertex(1)])
        assert [v.kind for v in problems] == ["not-permutation"]
        message = problems[0].message
        assert len(message.encode()) < 1024
        named = ",".join(f"v{i}" for i in range(2, 22))
        assert message.endswith(f"(missing {named} and 9999979 more)")

    def test_cseq_constructor_rejects_invalid(self):
        with pytest.raises(ValueError, match="edge e1"):
            seq(PATH3, "v1 v3 e1 v2 e2")

    def test_elements_with_non_integer_indices_never_reach_a_sequence(self):
        # Element("v", 1.0) once built and crashed inside validate; now the
        # constructor refuses it, and Element("v", True) is v1.
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            CSeq(PATH2, (Element("v", 1.0), Element.vertex(2), Element.edge(1)))
        x = CSeq(PATH2, (Element("v", True), Element.vertex(2), Element("e", True)))
        assert str(x) == "v1 v2 e1" and x == seq(PATH2, "v1 v2 e1")

    def test_positions(self):
        x = seq(PATH3, "v1 v2 e1 v3 e2")
        assert x.position(Element.edge(1)) == 3
        assert x.positions()[Element.vertex(3)] == 4
        assert len(x) == 5
        for foreign in (Element.vertex(4), Element.edge(3)):
            with pytest.raises(ValueError, match="is not an element"):
                x.position(foreign)


class TestComponentProfile:
    def test_alternating_build(self):
        x = seq(PATH3, "v1 v2 e1 v3 e2")
        assert b.component_profile(x).counts == (1, 2, 1, 2, 1)
        assert b.component_profile(x).peak == 2

    def test_vertices_first(self):
        x = seq(PATH3, "v1 v2 v3 e1 e2")
        assert b.component_profile(x).counts == (1, 2, 3, 2, 1)
        assert b.component_profile(x).peak == 3

    def test_single_edge(self):
        x = seq(PATH2, "v1 v2 e1")
        assert b.component_profile(x).counts == (1, 2, 1)

    def test_a_graph_without_vertices_peaks_at_zero(self):
        profile = b.component_profile(b.vertices_first_sequence(b.Graph(0)))
        assert profile.counts == ()
        assert profile.peak == 0

    def test_profile_invariants_exhaustively(self):
        for spec in ("path:3", "star:2", "cycle:3", "cycle:1"):
            g = b.build_family(spec)
            components = g.component_count()
            for x in b.enumerate_csequences(g):
                profile = b.component_profile(x).counts
                assert profile[0] == 1
                assert profile[-1] == components
                assert all(abs(a - c) <= 1 for a, c in zip(profile, profile[1:]))


class TestEdgeCost:
    def test_forced_minimum_on_single_edge(self):
        assert b.edge_cost(seq(PATH2, "v1 v2 e1"), 1) == 3

    def test_worked_star_sequence(self):
        x = b.star_schedule(5)
        assert [b.edge_cost(x, j) for j in range(1, 6)] == [4, 5, 5, 7, 9]
        assert b.total_cost(x) == 30

    def test_loop_convention(self):
        g = b.build_family("cycle:1")
        x = seq(g, "v1 e1")
        assert b.edge_cost(x, 1) == 2

    def test_nonloop_cost_at_least_three(self):
        for spec in ("path:3", "star:3", "cycle:3"):
            g = b.build_family(spec)
            for x in b.enumerate_csequences(g):
                assert all(b.edge_cost(x, j) >= 3 for j in range(1, g.q + 1))

    def test_linear_functional_identity(self):
        for spec in ("path:4", "cycle:4", "star:3", "complete:4"):
            g = b.build_family(spec)
            degs = g.degrees()
            for vertex_order in itertools.islice(
                itertools.permutations(range(1, g.p + 1)), 6
            ):
                x = b.vertices_first_sequence(g, vertex_order)
                pos = x.positions()
                linear = 2 * sum(
                    pos[Element.edge(j)] for j in range(1, g.q + 1)
                ) - sum(degs[v - 1] * pos[Element.vertex(v)] for v in range(1, g.p + 1))
                assert b.total_cost(x) == linear


class TestVertexCost:
    def test_single_edge(self):
        assert b.vertex_cost(seq(PATH2, "v1 v2 e1")) == 3

    def test_short_path(self):
        x = seq(PATH3, "v1 v2 e1 v3 e2")
        assert b.vertex_delay(x, 1) == 2
        assert b.vertex_delay(x, 2) == 3
        assert b.vertex_delay(x, 3) == 1
        assert b.vertex_cost(x) == 6

    def test_single_edge_star_equals_edge_cost(self):
        g = b.build_family("star:1")
        for x in b.enumerate_csequences(g):
            assert b.vertex_cost(x) == b.total_cost(x)

    def test_alternative_reading_recorded(self):
        # The implemented measure subtracts the vertex position once before
        # dividing by the degree.  Reading the division inside the sum
        # instead gives a different value; record both on the worked example
        # so the convention can be flipped without archaeology.
        x = seq(PATH3, "v1 v2 e1 v3 e2")
        literal = b.vertex_cost(x)
        pos = x.positions()
        alternative = sum(
            (
                sum(
                    pos[Element.edge(j)] - pos[Element.vertex(v)]
                    for j in x.graph.incident_edges(v)
                )
                * Fraction(1, x.graph.degree(v))
            )
            for v in range(1, x.graph.p + 1)
        )
        assert literal == 6
        assert alternative == 5

    def test_isolated_vertex_rejected(self):
        g = b.Graph(3, ((1, 2),))
        x = b.vertices_first_sequence(g)
        with pytest.raises(IsolatedVertexError, match=r"^isolated vertices \[3\]; vertex cost undefined$"):
            b.vertex_cost(x)
        with pytest.raises(IsolatedVertexError, match="^vertex 3 is isolated; vertex cost undefined$"):
            b.vertex_delay(x, 3)

    def test_sum_of_delays_on_multigraphs(self):
        # Loops count once in a vertex's edge sum and twice in its degree.
        rng = random.Random(7)
        for _ in range(40):
            p = rng.randint(1, 6)
            edges = tuple(sorted((rng.randint(1, p), rng.randint(1, p))) for _ in range(rng.randint(p, 3 * p)))
            edges += tuple((v, v) for v in range(1, p + 1))  # no vertex is isolated
            g = b.Graph(p, edges, multigraph=True)
            order = list(range(1, g.p + 1))
            rng.shuffle(order)
            x = b.greedy(g, order)
            assert b.vertex_cost(x) == sum((b.vertex_delay(x, v) for v in range(1, p + 1)), Fraction(0))


class TestContinuousCost:
    def test_plain_values(self):
        h = TimeAssignment(
            PATH2,
            {
                Element.vertex(1): Fraction(0),
                Element.vertex(2): Fraction(1, 2),
                Element.edge(1): Fraction(1),
            },
        )
        assert b.continuous_cost(h, 1) == Fraction(3, 2)

    def test_simultaneous_endpoints(self):
        for t in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
            h = TimeAssignment(
                PATH2,
                {
                    Element.vertex(1): Fraction(0),
                    Element.vertex(2): Fraction(0),
                    Element.edge(1): t,
                },
            )
            assert b.continuous_cost(h, 1) == 2 * t

    def test_scaling_is_linear(self):
        base = {
            Element.vertex(1): Fraction(1, 8),
            Element.vertex(2): Fraction(1, 4),
            Element.edge(1): Fraction(1, 2),
        }
        h = TimeAssignment(PATH2, base)
        for scale in (Fraction(1, 2), Fraction(1, 3)):
            scaled = TimeAssignment(PATH2, {el: scale * t for el, t in base.items()})
            assert b.continuous_cost(scaled, 1) == scale * b.continuous_cost(h, 1)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            TimeAssignment(
                PATH2,
                {
                    Element.vertex(1): Fraction(0),
                    Element.vertex(2): Fraction(1),
                    Element.edge(1): Fraction(1),
                },
            )
        with pytest.raises(ValueError):
            TimeAssignment(
                PATH2,
                {
                    Element.vertex(1): Fraction(0),
                    Element.vertex(2): Fraction(0),
                    Element.edge(1): Fraction(3, 2),
                },
            )
        with pytest.raises(ValueError):
            TimeAssignment(PATH2, {Element.vertex(1): Fraction(0)})

    def test_sizes_are_compared_before_the_elements_are_listed(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the graph's elements were listed")

        monkeypatch.setattr(b.Graph, "elements", refuse)
        with pytest.raises(ValueError, match="^times must cover exactly the graph's elements$"):
            TimeAssignment(b.Graph(5_000_000), {})


class TestUpDown:
    def test_is_updown(self):
        assert b.is_updown((1,))
        assert b.is_updown((1, 3, 2))
        assert not b.is_updown((2, 1, 3))
        assert not b.is_updown((1, 2, 3))
        assert not b.is_updown([])

    def test_worked_nine_element_example(self):
        x = seq(b.build_family("path:5"), "v3 v5 v4 e3 v2 e4 e2 v1 e1")
        result = b.to_updown_permutation(x)
        assert result == (8, 9, 5, 7, 1, 4, 3, 6, 2)
        assert b.is_updown(result)
        assert b.from_updown_permutation(result) == x

    def test_single_edge_path(self):
        x = seq(PATH2, "v1 v2 e1")
        assert b.to_updown_permutation(x) == (1, 3, 2)
        assert b.from_updown_permutation((1, 3, 2)) == x

    def test_updown_count_matches_path_count(self):
        updown = [
            perm
            for perm in itertools.permutations(range(1, 6))
            if b.is_updown(perm)
        ]
        assert len(updown) == 16 == b.count_dp(PATH3)

    def test_bijection_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            g = b.build_family(f"path:{n}")
            images = set()
            for x in b.enumerate_csequences(g):
                image = b.to_updown_permutation(x)
                assert b.is_updown(image)
                assert b.from_updown_permutation(image) == x
                images.add(image)
            every_updown = {
                perm
                for perm in itertools.permutations(range(1, 2 * n))
                if b.is_updown(perm)
            }
            assert images == every_updown

    def test_rejects_non_paths(self):
        x = b.vertices_first_sequence(b.build_family("star:3"))
        with pytest.raises(ValueError):
            b.to_updown_permutation(x)

    def test_rejects_the_empty_graph_as_no_path(self):
        with pytest.raises(ValueError, match="not a canonically labeled path"):
            b.to_updown_permutation(CSeq(b.Graph(0), ()))

    def test_paths_past_the_family_spec_guard_map_both_ways(self, monkeypatch):
        monkeypatch.setitem(LIMITS, "family_spec", LIMITS["family_spec"]._replace(value=4))
        x = seq(b.Graph(3, ((1, 2), (2, 3))), "v1 v2 e1 v3 e2")
        assert b.to_updown_permutation(x) == (1, 3, 2, 5, 4)
        assert b.from_updown_permutation((1, 3, 2, 5, 4)) == x

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            b.from_updown_permutation((1, 2))  # even length
        with pytest.raises(ValueError):
            b.from_updown_permutation((1, 2, 3))  # not up-down
        with pytest.raises(ValueError):
            b.from_updown_permutation((1, 3, 3))  # not a permutation


class TestVerticesFirst:
    def test_short_path_cost(self):
        x = b.vertices_first_sequence(PATH3)
        assert b.total_cost(x) == 10

    def test_cost_independent_of_edge_order(self):
        g = b.build_family("path:4")
        costs = {
            b.total_cost(b.vertices_first_sequence(g, edge_order=order))
            for order in itertools.permutations(range(1, 4))
        }
        assert costs == {21}

    def test_adjacent_swap_shifts_costs_by_two(self):
        g = b.build_family("path:4")
        x = b.vertices_first_sequence(g, edge_order=(1, 2, 3))
        y = b.vertices_first_sequence(g, edge_order=(2, 1, 3))
        assert b.edge_cost(y, 2) == b.edge_cost(x, 2) - 2
        assert b.edge_cost(y, 1) == b.edge_cost(x, 1) + 2
        assert b.total_cost(x) == b.total_cost(y)

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            b.vertices_first_sequence(PATH3, vertex_order=(1, 2))
        with pytest.raises(ValueError):
            b.vertices_first_sequence(PATH3, edge_order=(2, 2))

    def test_elements_are_capped_before_any_order(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an order was listed")

        monkeypatch.setattr(sequences, "_permutation", refuse)
        with pytest.raises(ResourceLimitError, match="^1000000000 elements exceed the sequence builder limit 160000$"):
            b.vertices_first_sequence(b.Graph(10**9))


class TestTextForms:
    def test_round_trip(self):
        text = "v2 v1 e1 v3 e2"
        assert b.format_sequence(b.parse_sequence(text)) == text

    def test_short_form(self):
        x = seq(PATH3, "v1 v2 e1 v3 e2")
        assert b.short_form(x.elements) == "121'32'"

    def test_short_form_hub_zero(self):
        x = b.star_schedule(5)
        assert b.short_form(x.elements, hub_zero=True) == "1201'2'33'44'55'"
