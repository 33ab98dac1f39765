import math
import random
import time
from fractions import Fraction

import pytest

import buildseq as b
from buildseq import counting
from buildseq.errors import ResourceLimitError

from conftest import make_random_graph


PATH_COUNTS = [1, 2, 16, 272, 7936, 353792]  # n = 1..6
STAR_COUNTS = [2, 16, 288, 9216, 460800]  # n = 1..5


class TestBruteforce:
    def test_short_paths(self):
        assert b.count_bruteforce(b.build_family("path:3")) == 16
        assert b.count_bruteforce(b.build_family("path:2")) == 2

    def test_three_cycle_and_cycle_path_relation(self):
        assert b.count_bruteforce(b.build_family("cycle:3")) == 48
        assert 48 == 3 * b.count_bruteforce(b.build_family("path:3"))

    def test_limit(self):
        with pytest.raises(ResourceLimitError, match="^13 elements exceed the brute-force limit 10$"):
            b.count_bruteforce(b.build_family("path:7"))
        with pytest.raises(ResourceLimitError, match="^5 elements exceed the brute-force limit 4$"):
            b.count_bruteforce(b.build_family("path:3"), element_limit=4)


class TestDP:
    def test_path_list(self):
        for n, expected in enumerate(PATH_COUNTS, start=1):
            assert b.count_dp(b.build_family(f"path:{n}")) == expected

    def test_star_list(self):
        for n, expected in enumerate(STAR_COUNTS, start=1):
            assert b.count_dp(b.build_family(f"star:{n}")) == expected

    def test_complete_four_matches_oracle(self):
        g = b.build_family("complete:4")
        assert b.count_dp(g) == b.count_bruteforce(g) == b.complete_count(4) == 34560

    def test_multigraph_cycles(self):
        assert b.count_dp(b.build_family("cycle:1")) == 1
        assert b.count_dp(b.build_family("cycle:2")) == 4
        assert b.count_bruteforce(b.build_family("cycle:1")) == 1
        assert b.count_bruteforce(b.build_family("cycle:2")) == 4

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(555)
        for _ in range(40):
            g = make_random_graph(rng, max_elements=8)
            assert b.count_dp(g) == b.count_bruteforce(g)

    def test_bounds(self, named_families):
        for g in named_families.values():
            count = b.count_dp(g)
            assert math.factorial(g.p) * math.factorial(g.q) <= count
            assert count <= math.factorial(g.element_count)

    def test_relabel_invariance(self):
        rng = random.Random(303)
        for spec in ("path:4", "star:3", "cycle:4", "complete:4"):
            g = b.build_family(spec)
            reference = b.count_dp(g)
            for _ in range(3):
                sigma = list(range(1, g.p + 1))
                rng.shuffle(sigma)
                assert b.count_dp(b.relabel(g, sigma)) == reference

    def test_vertex_limit(self):
        message = "^count DP needs 2\\^30 vertex-subset states, over the limit 16777216; raise max_states to continue$"
        with pytest.raises(ResourceLimitError, match=message):
            b.count_dp(b.build_family("path:30"))


class TestBased:
    def test_path_endpoint_values(self):
        for n, expected in enumerate([1, 1, 5, 61], start=1):
            assert b.count_based(b.build_family(f"path:{n}"), 1) == expected

    def test_path_middle(self):
        assert b.count_based(b.build_family("path:3"), 2) == 6

    def test_star_hub_closed_form(self):
        for n in range(1, 7):
            g = b.build_family(f"star:{n}")
            assert b.count_based(g, 1) == math.factorial(2 * n) // 2**n

    def test_based_counts_sum_to_total(self, named_families):
        for g in named_families.values():
            total = sum(b.count_based(g, v) for v in range(1, g.p + 1))
            assert total == b.count_dp(g)

    def test_hub_fixing_relabel_keeps_based_count(self):
        g = b.build_family("star:3")
        relabeled = b.relabel(g, (1, 4, 2, 3))
        assert b.count_based(relabeled, 1) == b.count_based(g, 1) == 90

    def test_bad_base(self):
        with pytest.raises(ValueError):
            b.count_based(b.build_family("path:3"), 4)


class TestEnumerate:
    def test_single_edge_sequences_in_order(self):
        seqs = [str(x) for x in b.enumerate_csequences(b.build_family("path:2"))]
        assert seqs == ["v1 v2 e1", "v2 v1 e1"]

    def test_extension_counts_of_the_two_seed_sequences(self):
        # Restricting each 5-element sequence to the elements of the first
        # edge's subgraph v1-v2 splits the 16 into 7 + 9.
        g = b.build_family("path:3")
        kept = {b.Element.vertex(1), b.Element.vertex(2), b.Element.edge(1)}
        restrictions = [
            tuple(el for el in x.elements if el in kept)
            for x in b.enumerate_csequences(g)
        ]
        first = b.parse_sequence("v1 v2 e1")
        second = b.parse_sequence("v2 v1 e1")
        assert restrictions.count(first) == 7
        assert restrictions.count(second) == 9
        assert len(restrictions) == 16

    def test_count_matches_dp(self, named_families):
        for g in named_families.values():
            if g.element_count > 9:
                continue
            assert sum(1 for _ in b.enumerate_csequences(g)) == b.count_dp(g)

    def test_single_edge_star(self):
        assert sum(1 for _ in b.enumerate_csequences(b.build_family("star:1"))) == 2

    def test_limit(self):
        with pytest.raises(ResourceLimitError, match="^15 elements exceed the enumeration limit 11$"):
            next(b.enumerate_csequences(b.build_family("path:8")))


class TestClosedForms:
    def test_star_values(self):
        assert b.star_count(0) == 1
        assert b.star_count(3) == 288
        assert b.star_count(5) == 460800
        with pytest.raises(ValueError, match="star size must be >= 0"):
            b.star_count(-1)
        with pytest.raises(ValueError, match="^supported range is 0 <= n <= 120000, got 120001$"):
            b.star_count(120_001)

    def test_star_recursion_agrees(self):
        for n in range(0, 9):
            assert b.star_count_recursive(n) == b.star_count(n)

    def test_complete_product_matches_the_dp_and_the_oracle(self):
        values = [b.complete_count(n) for n in range(1, 10)]
        assert values[:5] == [1, 2, 48, 34560, 1383782400]
        assert values == [b.count_dp(b.build_family(f"complete:{n}")) for n in range(1, 10)]
        # complete:4 against the oracle is in TestDP.test_complete_four_matches_oracle
        for n in range(1, 4):
            assert values[n - 1] == b.count_bruteforce(b.build_family(f"complete:{n}"))
        with pytest.raises(ValueError):
            b.complete_count(0)

    def test_complete_product_tree_matches_the_sequential_product(self):
        for n in [*range(1, 41), 127, 128, 129, 255, 256, 257, 300]:
            total = n + math.comb(n, 2)
            value = math.factorial(n)
            for k in range(1, n):
                value *= math.perm(total - k - math.comb(k, 2) - 1, k)
            assert b.complete_count(n) == value

    def test_path_recursion_values(self):
        assert b.path_count_recursive(2) == 2
        assert b.path_count_recursive(4) == 272

    def test_path_recursion_matches_zigzag_far_out(self):
        assert b.path_count_recursive(20) == b.zigzag_numbers(20).tangent[20]

    def test_recursions_report_a_low_size_as_their_range(self):
        cases = [
            (b.star_count_recursive, -1, "0 <= n <= 30000"),
            (b.path_count_recursive, 0, "1 <= n <= 350"),
            (b.zigzag_numbers, 0, "1 <= n_max <= 800"),
            (b.complete_count, 0, "1 <= n <= 700"),
        ]
        for recursion, size, bounds in cases:
            with pytest.raises(ValueError, match=f"^supported range is {bounds}, got {size}$"):
                recursion(size)


class TestZigzag:
    def test_tangent_values(self):
        assert b.zigzag_numbers(6).tangent[1:] == [1, 2, 16, 272, 7936, 353792]

    def test_secant_values(self):
        assert b.zigzag_numbers(4).secant == [1, 1, 5, 61, 1385]

    def test_tangent_matches_recursion(self):
        tangent = b.zigzag_numbers(12).tangent
        for n in range(1, 13):
            assert tangent[n] == b.path_count_recursive(n)

    def test_secant_matches_based_path_counts(self):
        secant = b.zigzag_numbers(5).secant
        for n in range(1, 6):
            assert b.count_based(b.build_family(f"path:{n}"), 1) == secant[n - 1]


class TestBernoulli:
    def test_classical_values(self):
        assert b.bernoulli_number(2) == Fraction(1, 6)
        assert b.bernoulli_number(4) == Fraction(-1, 30)
        assert b.bernoulli_number(6) == Fraction(1, 42)

    def test_second_value_reproduces_single_edge_count(self):
        assert Fraction(1, 2) * math.comb(16, 2) * Fraction(1, 30) == 2

    def test_third_value_reproduces_short_path_count(self):
        assert Fraction(1, 3) * math.comb(64, 2) * Fraction(1, 42) == 16

    def test_range(self):
        for m in (0, 1, 3, 202):
            with pytest.raises(ValueError):
                b.bernoulli_number(m)

    def test_path_formula(self):
        for n, expected in enumerate(PATH_COUNTS, start=1):
            assert b.path_count_bernoulli(n) == expected

    def test_cycle_formula_covers_multigraph_cases(self):
        assert b.cycle_count_bernoulli(1) == 1
        assert b.cycle_count_bernoulli(2) == 4

    def test_cycle_equals_n_times_path(self):
        for n in range(1, 13):
            assert b.cycle_count_bernoulli(n) == n * b.path_count_bernoulli(n)

    def test_cycle_formula_matches_dp(self):
        for n in range(1, 11):
            g = b.build_family(f"cycle:{n}")
            assert b.cycle_count_bernoulli(n) == b.count_dp(g)

    def test_an_inexact_division_is_reported(self, monkeypatch):
        monkeypatch.setattr(counting, "_bernoulli_numbers", lambda m: [Fraction(1, 7)] * (m + 1))
        with pytest.raises(ArithmeticError, match="cycle count for n=1 did not divide exactly"):
            b.cycle_count_bernoulli(1)
        monkeypatch.setattr(counting, "_cycle_counts_bernoulli", lambda n: [0] + [1] * n)
        with pytest.raises(ArithmeticError, match="path count for n=2 did not divide exactly"):
            b.path_count_bernoulli(2)


class TestTremolo:
    def test_small_values(self):
        values = b.tremolo_numbers(7)
        assert values[1] == 1
        assert values[3] == 2
        assert values[4] == 0
        assert values[7] == 272
        with pytest.raises(ValueError, match="r_max must be >= 0"):
            b.tremolo_numbers(-1)

    def test_even_indices_vanish(self):
        values = b.tremolo_numbers(12)
        assert all(values[2 * k] == 0 for k in range(1, 7))

    def test_odd_indices_are_path_counts(self):
        values = b.tremolo_numbers(23)
        for n in range(1, 13):
            assert values[2 * n - 1] == b.path_count_recursive(n)


def shuffle_by_factorials(parts: list[tuple[int, int]], shift: int) -> int:
    """The composition laws' former form, kept as a reference: the factorial
    of all the shuffled elements divided by each part's factorial."""
    value = math.factorial(sum(length - shift for _, length in parts))
    for count, length in parts:
        value = value // math.factorial(length - shift) * count
    return value


class TestCompositionLaws:
    def test_binomials_match_the_factorial_quotient(self):
        rng = random.Random(37)
        cases = [[(0, 5), (3, 4)], [(7, 1)], [(2, 1), (5, 1), (1, 2)], [(1, 10**4), (9, 10**4)]]
        for _ in range(80):
            lengths = (1, 2, rng.randint(1, 40), rng.randint(1, 10**4))
            cases.append([(rng.randint(0, 10**6), rng.choice(lengths)) for _ in range(rng.randint(1, 4))])
        for parts in cases:
            assert b.union_count(parts) == shuffle_by_factorials(parts, 0)
            assert b.wedge_count(parts) == shuffle_by_factorials(parts, 1)

    def test_a_million_elements_answer_at_once(self):
        start = time.perf_counter()
        assert b.union_count([(1, 10**6)]) == 1
        assert b.wedge_count([(5, 10**6)]) == 5
        assert b.union_count([(1, 10**6), (1, 1)]) == 10**6 + 1
        assert time.perf_counter() - start < 0.5

    def test_two_single_edges(self):
        value = b.union_count([(2, 3), (2, 3)])
        assert value == 2 * 2 * math.comb(6, 3) == 80
        assert value == b.count_dp(b.build_family("union(path:2,path:2)"))

    def test_adding_an_isolated_vertex(self):
        g = b.build_family("path:3")
        count = b.count_dp(g)
        assert b.union_count([(count, 5), (1, 1)]) == count * 6
        assert b.count_dp(b.build_family("union(path:3,path:1)")) == count * 6

    def test_three_isolated_vertices(self):
        assert b.union_count([(1, 1)] * 3) == 6

    def test_union_matches_dp_on_pairs(self, named_families):
        small = [named_families[k] for k in ("path:2", "path:3", "star:2", "cycle:3")]
        for g1 in small:
            for g2 in small:
                expected = b.union_count(
                    [
                        (b.count_dp(g1), g1.element_count),
                        (b.count_dp(g2), g2.element_count),
                    ]
                )
                assert b.count_dp(b.disjoint_union([g1, g2])) == expected

    def test_union_matches_dp_on_a_triple(self):
        parts = [b.build_family(s) for s in ("path:2", "star:2", "path:1")]
        expected = b.union_count(
            [(b.count_dp(part), part.element_count) for part in parts]
        )
        assert b.count_dp(b.disjoint_union(parts)) == expected

    def test_wedge_count_star(self):
        for n in range(1, 7):
            assert b.wedge_count([(1, 3)] * n) == math.factorial(2 * n) // 2**n

    def test_wedge_of_two_edges(self):
        assert b.wedge_count([(1, 3), (1, 3)]) == 6
        assert b.count_based(b.build_family("path:3"), 2) == 6

    def test_single_part_passthrough(self):
        assert b.wedge_count([(61, 7)]) == 61

    def test_wedge_count_matches_dp(self):
        parts = [(b.build_family("path:3"), 1), (b.build_family("star:2"), 1)]
        g = b.wedge(parts)
        expected = b.wedge_count(
            [(b.count_based(part, base), part.element_count) for part, base in parts]
        )
        assert b.count_based(g, 1) == expected

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            b.union_count([])
        with pytest.raises(ValueError):
            b.wedge_count([(1, 0)])
