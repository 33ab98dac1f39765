import itertools
import math
import re
from fractions import Fraction

import pytest

import buildseq as b
from buildseq import Family


def member_average(family):
    """The average by the member sum, independent of the graphs walk."""
    counts = [b.count_dp(g) for g in family]
    return Fraction(sum(counts), len(counts))


class TestLabeledTrees:
    def test_counts_match_cayley(self):
        for n in range(2, 7):
            trees = list(b.labeled_trees(n))
            assert len(trees) == n ** (n - 2)
            assert len(set(trees)) == len(trees)

    def test_all_are_trees(self):
        for g in b.labeled_trees(5):
            assert g.q == 4
            assert g.is_connected()

    def test_three_vertices_all_paths(self):
        trees = list(b.labeled_trees(3))
        assert len(trees) == 3
        assert all(b.is_path_graph(g) for g in trees)

    def test_classification_at_five(self):
        trees = list(b.labeled_trees(5))
        assert sum(1 for g in trees if b.is_star_graph(g)) == 5
        assert sum(1 for g in trees if b.is_path_graph(g)) == 60
        cycle = b.build_family("cycle:4")
        assert not b.is_path_graph(cycle) and not b.is_star_graph(cycle)

    def test_range(self):
        for n in (1, 9):
            with pytest.raises(ValueError):
                list(b.labeled_trees(n))


class TestGraphsPQ:
    def test_three_vertices_two_edges(self):
        graphs = list(b.graphs_pq(3, 2))
        assert len(graphs) == 3
        assert all(b.is_path_graph(g) for g in graphs)

    def test_complete_choice(self):
        graphs = list(b.graphs_pq(4, 6))
        assert graphs == [b.build_family("complete:4")]

    def test_count(self):
        assert sum(1 for _ in b.graphs_pq(4, 3)) == math.comb(6, 3) == 20
        # The graphs walk divides by this member count.
        for p in range(1, 7):
            for q in range(math.comb(p, 2) + 1):
                assert sum(1 for _ in b.graphs_pq(p, q)) == math.comb(math.comb(p, 2), q)

    def test_range(self):
        with pytest.raises(ValueError):
            list(b.graphs_pq(8, 1))
        with pytest.raises(ValueError):
            list(b.graphs_pq(3, 4))


class TestGraphsWalk:
    """``family_average`` on ``graphs:p:q`` counts walks over (vertices
    placed, edges placed); these compare it with the member sum."""

    @pytest.mark.parametrize("p", range(1, 7))
    def test_walk_equals_member_sum(self, p):
        for q in range(math.comb(p, 2) + 1):
            family = Family.fixed_size(p, q)
            assert b.family_average(family) == member_average(family), (p, q)

    @pytest.mark.parametrize("q", (0, 1, 2, 19, 20, 21))
    def test_walk_equals_member_sum_at_seven(self, q):
        family = Family.fixed_size(7, q)
        assert b.family_average(family) == member_average(family)

    def test_seven_vertices_ten_edges(self):
        # 352,716 members: the member sum takes tens of seconds.
        assert b.family_average(Family.fixed_size(7, 10)) == 159667200000

    def test_constructability_is_count_over_member_average(self):
        family = Family.fixed_size(5, 4)
        average = member_average(family)
        for g in itertools.islice(family, 0, None, 7):
            assert b.constructability(g, family) == Fraction(b.count_dp(g)) / average

    @pytest.mark.parametrize("p, q", [(8, 1), (3, 4), (0, 0), (3, -1)])
    def test_rejects_what_graphs_pq_rejects(self, p, q):
        with pytest.raises(ValueError) as listed:
            list(b.graphs_pq(p, q))
        with pytest.raises(ValueError, match=f"^{re.escape(str(listed.value))}$"):
            b.family_average(Family("graphs", (p, q)))


class TestFamilyType:
    def test_membership(self):
        trees5 = Family.trees(5)
        assert trees5.contains(b.build_family("star:4"))
        assert not trees5.contains(b.build_family("cycle:5"))
        assert not trees5.contains(b.build_family("path:4"))
        fixed = Family.fixed_size(3, 2)
        assert fixed.contains(b.Graph(3, ((1, 2), (1, 3))))
        assert not fixed.contains(b.Graph(3, ((1, 2),)))

    def test_explicit_rejects_duplicates(self):
        g = b.build_family("path:2")
        with pytest.raises(ValueError):
            Family.explicit((g, g))

    def test_the_constructor_checks_what_the_classmethods_check(self):
        g = b.build_family("path:2")
        for kind, params, error, words in (
            ("x", (), ValueError, "^family kind must be 'trees', 'graphs' or 'explicit', got 'x'$"),
            ("trees", (40,), ValueError, "^supported range is 2 <= n <= 8, got 40$"),
            ("trees", (), ValueError, "^a trees family takes params \\(n,\\), got \\(\\)$"),
            ("graphs", (8, 1), ValueError, "^supported range is 1 <= p <= 7, got 8$"),
            ("graphs", (3,), ValueError, "^a graphs family takes params \\(p, q\\), got \\(3,\\)$"),
            ("explicit", (g, g), ValueError, "^explicit family contains duplicates$"),
            ("explicit", ("path:2",), TypeError, "^explicit family members must be Graphs$"),
            # Sizes are integers: a float or a str is refused at once.
            ("graphs", (3, 1.0), TypeError, "'float' object cannot be interpreted as an integer"),
            ("trees", (3.0,), TypeError, "'float' object cannot be interpreted as an integer"),
            ("trees", ("3",), TypeError, "'str' object cannot be interpreted as an integer"),
        ):
            with pytest.raises(error, match=words):
                Family(kind, params)
        assert Family("trees", (5,)) == Family.trees(5)
        # True is the size 1, and the family stores and prints it so.
        assert Family("graphs", (3, True)).params == (3, 1)
        assert type(Family("graphs", (3, True)).params[1]) is int
        assert Family("graphs", (3, True)).label == "graphs:3:1"
        assert Family("graphs", (3, True)) == Family.fixed_size(3, 1)
        assert Family("explicit") == Family.explicit(())

    def test_labels(self):
        assert Family.trees(5).label == "trees:5"
        assert Family.fixed_size(4, 3).label == "graphs:4:3"
        assert Family.explicit((b.build_family("path:2"),)).label == "explicit:1"


class TestConstructability:
    def test_singleton_family_scores_one(self):
        g = b.build_family("cycle:4")
        family = Family.explicit((g,))
        assert b.constructability(g, family) == 1

    def test_relabelings_average_to_the_common_count(self):
        import itertools

        g = b.build_family("path:3")
        members = tuple(
            b.relabel(g, sigma) for sigma in itertools.permutations((1, 2, 3))
        )
        family = Family.explicit(members)
        assert b.family_average(family) == b.count_dp(g) == 16

    def test_star_beats_path_among_five_vertex_trees(self):
        family = Family.trees(5)
        star = b.build_family("star:4")
        path = b.build_family("path:5")
        assert b.constructability(star, family) > b.constructability(path, family)

    def test_extremes_at_six_vertices(self):
        trees = list(b.labeled_trees(6))
        counts = {g: b.count_dp(g) for g in trees}
        best = max(counts.values())
        worst = min(counts.values())
        for g, count in counts.items():
            if count == best:
                assert b.is_star_graph(g)
            if count == worst:
                assert b.is_path_graph(g)

    def test_average_is_exact(self):
        family = Family.trees(4)
        total = sum(b.count_dp(g) for g in b.labeled_trees(4))
        assert b.family_average(family) == Fraction(total, 16)

    def test_membership_required(self):
        with pytest.raises(ValueError):
            b.constructability(b.build_family("cycle:4"), Family.trees(4))

    def test_empty_family(self):
        with pytest.raises(ValueError):
            b.family_average(Family.explicit(()))
