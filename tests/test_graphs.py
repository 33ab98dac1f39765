import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildseq as b
from buildseq import Element, Graph, cli, graphs
from buildseq.errors import LIMITS


def assert_shape_agrees(spec):
    """The last step of the listed _family_plan has build_family's (p, q),
    and the plan has one step, (family, n, shape), just when the spec is one
    base part; or listing the plan raises build_family's ValueError."""
    try:
        g = b.build_family(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            list(graphs._family_plan(spec))
        assert str(info.value) == str(exc)
    else:
        plan = list(graphs._family_plan(spec))
        assert plan[-1][2] == (g.p, g.q)
        assert (len(plan) == 1) == ("(" not in spec)
        if len(plan) == 1:
            name, _, n = spec.partition(":")
            assert plan[0][:2] == (name, int(n))


def reference_family(spec):
    """build_family's (p, edges, multigraph), folded level by level from the
    canonical labelings, each part relabeled through an explicit dict."""
    families = {
        "path": lambda n: (n, [(i, i + 1) for i in range(1, n)], False),
        "star": lambda n: (n + 1, [(1, i + 1) for i in range(1, n + 1)], False),
        "cycle": lambda n: (n, [(i, i + 1) for i in range(1, n)] + [(1, n)], n <= 2),
        "complete": lambda n: (n, [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)], False),
    }
    stack = []
    for name, arg, _ in graphs._family_plan(spec):
        if name in families:
            stack.append(families[name](arg))
            continue
        parts = stack[-len(arg) :]
        del stack[-len(arg) :]
        p, edges, multigraph = (1 if name == "wedge" else 0), [], False
        for (part_p, part_edges, part_multigraph), base in zip(parts, arg):
            mapping = {}
            for v in range(1, part_p + 1):
                if name == "wedge" and v == base:
                    mapping[v] = 1
                else:
                    p += 1
                    mapping[v] = p
            edges += [tuple(sorted((mapping[u], mapping[w]))) for u, w in part_edges]
            multigraph = multigraph or part_multigraph
        stack.append((p, edges, multigraph))
    p, edges, multigraph = stack[0]
    return p, tuple(edges), multigraph


# Nested specs; wedge base points go past some parts' vertex counts.
base_specs = st.builds(
    "{}:{}".format, st.sampled_from(["path", "star", "cycle", "complete"]), st.integers(1, 5)
)
family_specs = st.recursive(
    base_specs,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: f"union({','.join(parts)})"),
        st.lists(st.tuples(inner, st.integers(1, 4)), min_size=1, max_size=3).map(
            lambda parts: "wedge(" + ",".join(f"{s}@{v}" for s, v in parts) + ")"
        ),
    ),
    max_leaves=8,
)


class TestElement:
    def test_tokens_round_trip(self):
        for token in ("v1", "v12", "e3", "e10"):
            assert str(Element.from_token(token)) == token

    def test_bad_tokens(self):
        for token in ("x1", "v", "e", "v-1", "1", "ve2", "v0"):
            with pytest.raises(ValueError):
                Element.from_token(token)
        with pytest.raises(ValueError, match="element kind must be 'v' or 'e'"):
            Element("x", 1)

    def test_digits_that_int_rejects_are_bad_tokens(self):
        with pytest.raises(ValueError, match="^bad element token 'v²'; expected v<i> or e<j>$"):
            Element.from_token("v²")

    def test_non_integer_indices_are_refused(self):
        # A float index is refused as a float edge endpoint is; True is 1.
        for index in (1.0, 2.5, "1"):
            with pytest.raises(TypeError):
                Element("v", index)
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            Element("e", 1.0)
        one = Element("v", True)
        assert one == Element.vertex(1) and type(one.index) is int
        assert str(one) == "v1" and repr(one) == "Element(kind='v', index=1)"

    def test_ordering_vertices_before_edges(self):
        assert Element.vertex(2) < Element.edge(1)
        assert Element.vertex(1) < Element.vertex(2)
        assert Element.edge(1) < Element.edge(2)
        assert not Element.edge(1) < Element.vertex(9)
        with pytest.raises(TypeError):
            Element.vertex(1) < 1


class TestGraphType:
    def test_endpoints_normalized(self):
        g = Graph(3, ((3, 1), (2, 3)))
        assert g.edges == ((1, 3), (2, 3))

    def test_simple_mode_rejects_loop_and_parallel(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 1),))
        with pytest.raises(ValueError):
            Graph(2, ((1, 2), (2, 1)))
        # both fine as a multigraph
        Graph(2, ((1, 1), (1, 2), (2, 1)), multigraph=True)

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 3),))
        with pytest.raises(ValueError, match="vertex count must be >= 0"):
            Graph(-1)
        g = b.build_family("path:3")
        for lookup in (g.endpoints, g.degree, g.incident_edges):
            with pytest.raises(ValueError, match="outside 1.."):
                lookup(0)
        with pytest.raises(ValueError, match="no vertices"):
            Graph(0).max_degree()

    def test_non_integer_endpoints_are_refused(self):
        for edge in ((1.5, 2), (1, 2.0), ("1", 2)):
            with pytest.raises(TypeError):
                Graph(2, (edge,))
        assert Graph(2, ((True, 2),)).edges == ((1, 2),)

    def test_non_integer_vertex_counts_are_refused(self):
        with pytest.raises(TypeError) as endpoint:
            Graph(2, ((1.0, 2),))
        for p in (2.0, 1.5, "2"):
            with pytest.raises(TypeError):
                Graph(p, ((1, 2),))
        with pytest.raises(TypeError) as count:
            Graph(2.0, ((1, 2),))
        assert str(count.value) == str(endpoint.value)
        g = Graph(True)
        assert g == Graph(1) and type(g.p) is int and b.count_dp(g) == 1

    def test_degree_counts_loops_twice(self):
        g = Graph(1, ((1, 1),), multigraph=True)
        assert g.degree(1) == 2
        assert g.incident_edges(1) == (1,)

    def test_accessors(self):
        g = b.build_family("path:3")
        assert g.q == 2
        assert g.element_count == 5
        assert g.endpoints(1) == (1, 2)
        assert g.degrees() == [1, 2, 1]
        assert g.incident_edges(2) == (1, 2)
        assert g.is_connected()
        assert Graph(3, ((1, 2),)).component_count() == 2
        assert Graph(0).is_connected()
        assert Graph(1, ((1, 1),), multigraph=True).is_connected()
        assert not Graph(2, ((1, 1), (2, 2)), multigraph=True).is_connected()


class TestFamilies:
    def test_path_canonical(self):
        g = b.build_family("path:3")
        assert (g.p, g.edges) == (3, ((1, 2), (2, 3)))

    def test_cycle_one_is_a_loop(self):
        g = b.build_family("cycle:1")
        assert (g.p, g.edges, g.multigraph) == (1, ((1, 1),), True)

    def test_cycle_two_is_a_doubled_edge(self):
        g = b.build_family("cycle:2")
        assert (g.p, g.edges, g.multigraph) == (2, ((1, 2), (1, 2)), True)

    def test_cycle_closes_the_path(self):
        g = b.build_family("cycle:4")
        assert g.edges == ((1, 2), (2, 3), (3, 4), (1, 4))
        assert not g.multigraph

    def test_complete_four(self):
        g = b.build_family("complete:4")
        assert (g.p, g.q) == (4, 6)
        assert g.edges[0] == (1, 2) and g.edges[-1] == (3, 4)

    def test_star_hub_is_vertex_one(self):
        g = b.build_family("star:3")
        assert g.edges == ((1, 2), (1, 3), (1, 4))

    def test_bad_specs(self):
        for spec in ("path:0", "path", "blob:3", "path:3)", "union()", "wedge(path:2)", "path:x"):
            with pytest.raises(ValueError):
                b.build_family(spec)

    def test_digits_that_int_rejects_are_a_missing_size(self):
        for spec in ("path:²", "union(path:2,star:³)"):
            with pytest.raises(ValueError, match="is missing its size$"):
                b.build_family(spec)
        with pytest.raises(ValueError, match="^bad base point in '@²\\)'$"):
            b.build_family("wedge(path:2@²)")

    def test_deep_nesting_needs_no_recursion(self):
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            for kind in ("union", "wedge"):
                close = ")" if kind == "union" else "@1)"
                spec = f"{kind}(" * 3000 + "path:1" + close * 3000
                assert b.build_family(spec) == b.build_family("path:1")
        finally:
            sys.setrecursionlimit(saved)

    def test_element_budget_counts_every_part_before_building(self, monkeypatch):
        monkeypatch.setitem(LIMITS, "family_spec", LIMITS["family_spec"]._replace(value=10))
        # path 2n-1, star 2n+1, cycle 2n, complete n + n(n-1)/2 elements
        for spec in ("cycle:5", "complete:4", "union(path:5,path:1)", "union(star:4,path:1)"):
            assert b.build_family(spec).element_count == 10
        # The wedge has 10 elements, but its parts have 11 before the merge.
        for spec in ("path:6", "star:5", "cycle:6", "complete:5", "union(path:5,path:2)",
                     "wedge(cycle:5@1,path:1@1)"):
            with pytest.raises(ValueError, match="over the guard 10"):
                b.build_family(spec)

    def test_specs_just_over_the_budget_are_rejected(self):
        for spec in ("complete:1415", "path:500001", "union(path:400000,path:200001)"):
            with pytest.raises(ValueError, match="over the guard 1000000"):
                b.build_family(spec)
        assert b.build_family("complete:600").element_count == 180_300


class TestFamilyShape:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(family_specs)
    def test_shape_of_nested_specs(self, spec):
        assert_shape_agrees(spec)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(family_specs, st.data())
    def test_damaged_specs_fail_alike(self, spec, data):
        at = data.draw(st.integers(0, len(spec) - 1))
        assert_shape_agrees(spec[:at] + spec[at + 1 :])

    @pytest.mark.parametrize(
        "spec",
        [
            "path:0", "path", "blob:3", "path:3)", "union()", "wedge(path:2)", "path:x",
            "wedge(path:2@3)", "union(wedge(path:2@3),blob:3)", "wedge(path:2@1,star:2@4)",
            "complete:1415",
        ],
    )
    def test_rejected_specs_fail_alike(self, spec):
        with pytest.raises(ValueError):
            b.build_family(spec)
        assert_shape_agrees(spec)

    def test_over_budget_parts_fail_alike(self, monkeypatch):
        monkeypatch.setitem(LIMITS, "family_spec", LIMITS["family_spec"]._replace(value=10))
        for spec in ("union(path:5,path:2)", "wedge(cycle:5@1,path:1@1)", "union(wedge(path:2@3),star:9)"):
            with pytest.raises(ValueError):
                b.build_family(spec)
            assert_shape_agrees(spec)

    def test_no_graph_is_built(self, monkeypatch):
        def no_graph(*args, **kwargs):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(Graph, "__init__", no_graph)
        assert cli._sized_graph("family:complete:1413")[:3] == (1413, 998_991, ("complete", 1413))
        assert cli._sized_graph("family:wedge(union(star:3,cycle:2)@6,complete:4@2)")[:3] == (9, 20, None)


class TestFamilyEdges:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(family_specs)
    def test_nested_specs_match_a_level_by_level_relabel(self, spec):
        try:
            g = b.build_family(spec)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                reference_family(spec)
            assert str(info.value) == str(exc)
        else:
            assert (g.p, g.edges, g.multigraph) == reference_family(spec)

    def test_a_spec_builds_one_graph(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return Graph(*args, **kwargs)

        monkeypatch.setattr(graphs, "Graph", counting)
        g = b.build_family("union(wedge(path:3@2,star:2@1),cycle:2)")
        assert (g.p, g.edges, g.multigraph) == (7, ((1, 2), (1, 3), (1, 4), (1, 5), (6, 7), (6, 7)), True)
        assert len(built) == 1


class TestComposition:
    def test_union_of_two_paths(self):
        g = b.build_family("union(path:2,path:2)")
        assert (g.p, g.q, g.edges) == (4, 2, ((1, 2), (3, 4)))

    def test_union_of_isolated_vertices(self):
        g = b.build_family("union(path:1,path:1)")
        assert (g.p, g.q) == (2, 0)

    def test_union_star_cycle(self):
        g = b.build_family("union(star:2,cycle:3)")
        assert (g.p, g.q) == (6, 5)

    def test_union_element_count_adds_up(self):
        parts = [b.build_family(s) for s in ("path:3", "star:2", "cycle:3")]
        g = b.disjoint_union(parts)
        assert g.element_count == sum(part.element_count for part in parts)
        with pytest.raises(ValueError, match="at least one graph"):
            b.disjoint_union([])

    def test_wedge_of_two_edges_is_a_path(self):
        g = b.build_family("wedge(path:2@1,path:2@1)")
        assert (g.p, g.edges) == (3, ((1, 2), (1, 3)))

    def test_wedge_of_edges_at_an_endpoint_is_a_star(self):
        parts = [(b.build_family("path:2"), 1) for _ in range(4)]
        assert b.wedge(parts) == b.build_family("star:4")

    def test_wedge_spider(self):
        g = b.build_family("wedge(path:3@1,path:3@1)")
        assert (g.p, g.q) == (5, 4)

    def test_wedge_element_count(self):
        parts = [(b.build_family(s), 1) for s in ("path:3", "cycle:3", "star:2")]
        g = b.wedge(parts)
        assert g.element_count == 1 + sum(p.element_count - 1 for p, _ in parts)

    def test_wedge_bad_base(self):
        with pytest.raises(ValueError):
            b.wedge([(b.build_family("path:2"), 3)])
        with pytest.raises(ValueError, match="at least one part"):
            b.wedge([])


class TestRelabel:
    def test_identity(self):
        g = b.build_family("path:3")
        assert b.relabel(g, (1, 2, 3)) == g

    def test_reversal_keeps_edge_ids(self):
        g = b.build_family("path:3")
        h = b.relabel(g, (3, 2, 1))
        assert h.edges == ((2, 3), (1, 2))
        assert b.count_dp(h) == b.count_dp(g) == 16

    def test_degree_multiset_preserved(self):
        g = b.build_family("star:3")
        h = b.relabel(g, (4, 1, 2, 3))
        assert sorted(g.degrees()) == sorted(h.degrees())

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            b.relabel(b.build_family("path:3"), (1, 1, 2))


class TestIncidencePoset:
    def test_single_edge(self):
        poset = b.incidence_poset(b.build_family("path:2"))
        assert poset.n == 3
        assert set(poset.covers) == {(0, 2), (1, 2)}

    def test_loop_contributes_one_cover(self):
        poset = b.incidence_poset(b.build_family("cycle:1"))
        assert poset.n == 2
        assert poset.covers == ((0, 1),)

    def test_star_shape(self):
        poset = b.incidence_poset(b.build_family("star:3"))
        assert poset.n == 7
        assert len(poset.covers) == 6

    def test_always_two_layers(self, named_families):
        for g in named_families.values():
            poset = b.incidence_poset(g)
            uppers = {hi for _, hi in poset.covers}
            lowers = {lo for lo, _ in poset.covers}
            assert not uppers & lowers  # nothing is both above and below


class TestTextFormat:
    def test_round_trip(self):
        g = b.build_family("cycle:4")
        assert b.parse_graph(b.format_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# a triangle\n3 3\n\n1 2\n2 3\n# the closer\n1 3\n"
        assert b.parse_graph(text) == b.build_family("cycle:3")

    def test_loop_file_is_a_multigraph(self):
        g = b.parse_graph("1 1\n1 1\n")
        assert g == b.build_family("cycle:1")

    def test_errors(self):
        for text in ("", "3\n", "2 1\n", "2 1\n1 2 3\n", "2 2\n1 2\n"):
            with pytest.raises(ValueError):
                b.parse_graph(text)
