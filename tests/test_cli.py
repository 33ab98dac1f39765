import argparse
import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildseq as b
from buildseq import cli, optimize
from buildseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_plain_prints_the_bare_number(self, capsys):
        code, out, _ = run(capsys, "count", "family:path:6")
        assert code == 0
        assert out == "353792\n"

    def test_json_routes_agree(self, capsys):
        code, out, _ = run(capsys, "count", "family:star:3", "--route", "all", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["counts"]["dp"] == "288"
        assert set(payload["counts"]) == {"dp", "oracle", "formula", "recursion"}

    def test_based_count(self, capsys):
        code, out, _ = run(capsys, "count", "family:path:4", "--base", "1")
        assert code == 0
        assert out == "61\n"

    def test_complete_formula_route(self, capsys):
        assert run(capsys, "count", "family:complete:4", "--route", "formula") == (0, "34560\n", "")
        code, out, _ = run(capsys, "count", "family:complete:3", "--route", "all", "--format", "json")
        assert code == 0
        assert json.loads(out)["counts"] == {"dp": "48", "oracle": "48", "formula": "48"}
        code, _, err = run(capsys, "count", "family:complete:3", "--route", "recursion")
        assert code == 2
        assert "usage error" in err

    def test_formula_needs_a_family(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text(b.format_graph(b.build_family("path:3")))
        code, _, err = run(capsys, "count", str(target), "--route", "formula")
        assert code == 2
        assert "usage error" in err

    def test_file_input(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text(b.format_graph(b.build_family("cycle:4")))
        code, out, _ = run(capsys, "count", str(target))
        assert code == 0
        assert out == f"{b.count_dp(b.build_family('cycle:4'))}\n"

    def test_deeply_nested_spec(self, capsys):
        spec = "family:" + "union(" * 2000 + "path:1" + ")" * 2000
        assert run(capsys, "count", spec) == (0, "1\n", "")

    def test_oversized_spec_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "count", "family:complete:2000")
        assert (code, out) == (1, "")
        assert "family spec needs 2001000 elements" in err

    def test_counts_past_the_int_to_str_digit_limit(self, capsys, tmp_path):
        # 4,331 and 9,131 digits, past CPython's default of 4,300 for str(int).
        expected = b.complete_count(56)
        code, out, _ = run(capsys, "count", "family:complete:56", "--route", "formula")
        assert (code, len(out)) == (0, 4332)
        assert out[:-1].isdigit() and Decimal(out) == expected
        code, out, _ = run(capsys, "count", "family:complete:56", "--route", "formula", "--format", "json")
        digits = json.loads(out)["counts"]["formula"]
        assert code == 0 and digits.isdigit() and Decimal(digits) == expected
        target = tmp_path / "loops.txt"
        target.write_text("1 3000\n" + "1 1\n" * 3000)
        code, out, _ = run(capsys, "count", str(target))
        assert code == 0 and out[:-1].isdigit() and Decimal(out) == math.factorial(3000)

    def test_long_counts_convert_by_blocks_to_the_same_digits(self):
        block = 1 << 8 * cli._BLOCK_BYTES
        rng = random.Random(5)
        values = [0, 1, block - 1, block, block + 1, block**2 - 1, block**2, block**3 + block - 1]
        values += [rng.randrange(10**digits) for digits in (4_000, 5_000, 20_000, 100_000)]
        values += [10**digits - 1 for digits in (4_931, 4_933, 100_000)]
        for n in values:
            assert cli._digits(n) == format(Decimal(n), "f")

    def test_spaced_spec_takes_the_formula_route(self, capsys):
        assert run(capsys, "count", "family:path :3", "--route", "formula") == (0, "16\n", "")
        assert run(capsys, "count", "family: star:2 ", "--route", "recursion") == (0, "16\n", "")

    def test_spaced_union_spec(self, capsys):
        assert run(capsys, "count", "family:union( path:2 , star:1 )") == (0, "80\n", "")

    def test_digits_that_int_rejects_get_the_spec_parser_message(self, capsys):
        assert run(capsys, "count", "family:path:²") == (
            1, "", "error: family spec 'path:²' is missing its size\n"
        )

    def test_routes_disagree_prints_json_and_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_dp", lambda g, **_: 15)
        code, out, err = run(capsys, "count", "family:path:3", "--route", "all", "--format", "plain")
        counts = {"dp": "15", "oracle": "16", "formula": "16", "recursion": "16"}
        assert code == 1
        assert err == f"count routes disagree: {counts}\n"
        assert json.loads(out) == {"graph": "family:path:3", "counts": counts, "agree": False}

    def test_raised_state_limit_lifts_the_vertex_cap(self, capsys, monkeypatch):
        # Stubs stand in for the 2^25 and 2^23 sweeps; the limit checks are real.
        sweeps = []

        def sweep(g, max_states, **_):
            sweeps.append((g.p, max_states))
            return 7 if len(sweeps) == 1 else b.OptResult(5, 6)

        monkeypatch.setattr(cli, "count_dp", sweep)
        monkeypatch.setattr(cli, "min_cost", sweep)
        assert run(capsys, "count", "family:path:25", "--limit-states", "33554432") == (0, "7\n", "")
        argv = ("optimize", "family:path:23", "--limit-states", "8388608", "--format", "plain")
        assert run(capsys, *argv) == (0, "5 6\n", "")
        assert sweeps == [(25, 33554432), (23, 8388608)]

    def test_bernoulli_forms_past_twenty_vertices(self, capsys):
        formula = run(capsys, "count", "family:cycle:22", "--route", "formula")
        assert formula == run(capsys, "count", "family:cycle:22", "--route", "recursion")
        assert formula[0] == 0
        code, out, err = run(capsys, "count", "family:path:101", "--route", "formula")
        assert (code, out) == (1, "")
        assert "supported range is 1 <= n <= 100, got 101" in err

    def test_route_all_on_a_21_vertex_path(self, capsys, monkeypatch):
        # A stub stands in for the 2^21 sweep; the formula and recursion run.
        monkeypatch.setattr(cli, "count_dp", lambda g, **_: b.path_count_recursive(g.p))
        code, out, _ = run(capsys, "count", "family:path:21", "--route", "all", "--format", "json")
        payload = json.loads(out)
        assert (code, payload["agree"]) == (0, True)
        assert set(payload["counts"]) == {"dp", "formula", "recursion"}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "nowhere.txt")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("route", ["dp", "oracle", "formula", "recursion", "all"])
    @pytest.mark.parametrize("base", ["9", "0", "-1"])
    def test_out_of_range_base_is_a_domain_error_on_every_route(self, capsys, route, base):
        code, out, err = run(capsys, "count", "family:path:3", "--route", route, "--base", base)
        assert (code, out) == (1, "")
        assert f"base vertex {base} outside 1..3" in err


OVER_600 = "needs 2^600 vertex-subset states, over the limit"

# (command and flags, message) of over-limit requests on family:complete:600.
OVER_LIMIT = [
    (("count",), f"count DP {OVER_600} 16777216; raise max_states to continue"),
    (("count", "--route", "all", "--format", "json"), f"count DP {OVER_600} 16777216; raise max_states to continue"),
    (("count", "--base", "1"), f"count DP {OVER_600} 16777216; raise max_states to continue"),
    (("count", "--route", "oracle"), "180300 elements exceed the brute-force limit 10"),
    (("optimize",), f"optimizer {OVER_600} 4194304; raise max_states to continue"),
    (("enumerate",), "180300 elements exceed the enumeration limit 11"),
    (("check-conjecture",), "180300 elements exceed the enumeration limit 11"),
]
# (count arguments, exit code, stderr) of bad requests past every limit.
BAD_COUNT_REQUESTS = [
    (("family:complete:600", "--base", "0"), 1, "error: base vertex 0 outside 1..600\n"),
    (("family:complete:600)",), 1, "error: trailing text ')' after family spec\n"),
    (
        ("family:complete:600", "--route", "recursion"),
        2,
        "usage error: route 'recursion' applies only to family:path/star/cycle graphs without --base\n",
    ),
]


class TestLimitsBeforeTheGraph:
    """Over-limit requests fail on the spec's size, before any Graph exists."""

    @pytest.fixture(autouse=True)
    def no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(b.Graph, "__init__", refuse)

    @pytest.mark.parametrize("argv, err", OVER_LIMIT)
    def test_over_limit_exits_three(self, capsys, argv, err):
        command, *flags = argv
        assert run(capsys, command, "family:complete:600", *flags) == (3, "", f"resource limit: {err}\n")

    def test_state_and_greedy_limits(self, capsys):
        assert run(capsys, "optimize", "family:path:21", "--limit-states", "1000") == (
            3,
            "",
            "resource limit: optimizer needs 2^21 vertex-subset states, over the limit 1000; "
            "raise max_states to continue\n",
        )
        spec = "family:union(" + ",".join(["path:1"] * 9) + ")"
        assert run(capsys, "check-conjecture", spec, "--tie-break", "lexicographic") == (
            3,
            "",
            "resource limit: 9 vertices exceed the greedy-all limit 8\n",
        )

    def test_formula_route_needs_no_graph(self, capsys, monkeypatch):
        assert run(capsys, "count", "family:complete:50", "--route", "formula") == (
            0,
            f"{b.complete_count(50)}\n",
            "",
        )
        code, out, _ = run(capsys, "family-table", "complete", "--max", "30", "--route", "formula", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == f"30,{b.complete_count(30)},true"
        # complete_count(600) takes seconds and prints 867,769 digits; what
        # matters here is that the route runs without a graph.
        monkeypatch.setitem(cli._FAMILY_ROUTES["complete", None], "formula", lambda n: {n: n})
        assert run(capsys, "count", "family:complete:600", "--route", "formula") == (0, "600\n", "")

    @pytest.mark.parametrize("argv, code, err", BAD_COUNT_REQUESTS)
    def test_bad_requests_fail_before_the_limit(self, capsys, argv, code, err):
        assert run(capsys, "count", *argv) == (code, "", err)


class TestOneParsePerSpec:
    """The CLI parses each family spec once: the plan that sizes it for the
    limits is the plan its graph is built from."""

    @pytest.mark.parametrize(
        "argv, parses",
        [
            (("count", "family:path:3"), 1),
            (("count", "family:path:3", "--route", "all"), 1),
            (("optimize", "family:path:3"), 1),
            (("enumerate", "family:path:3"), 1),
            (("check-conjecture", "family:path:3"), 1),
            (("family-table", "path", "--max", "3"), 3),
        ],
    )
    def test_each_spec_is_parsed_once(self, capsys, monkeypatch, argv, parses):
        plans = []
        plan = b.graphs._family_plan

        def counted(spec):
            plans.append(spec)
            return plan(spec)

        monkeypatch.setattr(b.graphs, "_family_plan", counted)
        monkeypatch.setattr(cli, "_family_plan", counted)
        assert run(capsys, *argv)[0] == 0
        assert len(plans) == parses


def secant_mod(m: int, prime: int) -> int:
    """The secant number S_m modulo a prime above 2m, by the recurrence
    sum over k <= m of (-1)^(m-k) C(2m, 2k) S_k = 0 (cos x sec x = 1)."""
    fact = [1]
    for i in range(1, 2 * m + 1):
        fact.append(fact[-1] * i % prime)
    inverse = [pow(f, prime - 2, prime) for f in fact]
    secant = [1]
    for j in range(1, m + 1):
        total = 0
        for k in range(j):
            term = fact[2 * j] * inverse[2 * k] % prime * inverse[2 * j - 2 * k] % prime * secant[k]
            total += term if (j - k) % 2 else -term
        secant.append(total % prime)
    return secant[m]


# (count arguments, supported range) of requests past a route's cap.
PAST_THE_CAP = [
    (("family:path:100000", "--route", "recursion"), "1 <= n <= 350, got 100000"),
    (("family:path:351", "--route", "recursion"), "1 <= n <= 350, got 351"),
    (("family:cycle:351", "--route", "recursion"), "1 <= n <= 350, got 351"),
    (("family:star:30001", "--route", "recursion"), "0 <= n <= 30000, got 30001"),
    (("family:star:100000", "--route", "recursion"), "0 <= n <= 30000, got 100000"),
    (("family:path:801", "--base", "1", "--route", "formula"), "1 <= n_max <= 800, got 801"),
    (("family:path:1500", "--base", "1", "--route", "formula"), "1 <= n_max <= 800, got 1500"),
    (("family:complete:701", "--route", "formula"), "1 <= n <= 700, got 701"),
    (("family:complete:1413", "--route", "formula"), "1 <= n <= 700, got 1413"),
    (("family:star:499999", "--route", "formula"), "0 <= n <= 120000, got 499999"),
    (("family:star:499999", "--base", "1", "--route", "formula"), "0 <= n <= 120000, got 499999"),
]


class TestRouteCaps:
    """The recursions and the based-path triangle refuse an n past their
    cap before any work, and answer at the cap."""

    @pytest.mark.parametrize("argv, err", PAST_THE_CAP)
    def test_past_the_cap_exits_one_at_once(self, capsys, argv, err):
        start = time.perf_counter()
        assert run(capsys, "count", *argv) == (1, "", f"error: supported range is {err}\n")
        assert time.perf_counter() - start < 1

    def test_largest_path_and_star_match_independent_routes(self, capsys):
        tangent = b.zigzag_numbers(350).tangent[350]
        assert run(capsys, "count", "family:path:350", "--route", "recursion") == (0, f"{tangent}\n", "")
        star = cli._digits(b.star_count(30000))
        assert run(capsys, "count", "family:star:30000", "--route", "recursion") == (0, f"{star}\n", "")

    def test_based_star_shift_is_the_exact_quotient(self):
        for n in range(1, 300):
            assert cli._FAMILY_ROUTES["star", 1]["formula"](n)[n] == math.factorial(2 * n) // 2**n

    def test_largest_based_path_matches_the_euler_recurrence(self, capsys):
        code, out, err = run(capsys, "count", "family:path:800", "--base", "1", "--route", "formula")
        assert (code, err) == (0, "")
        for prime in (2**31 - 1, 2**61 - 1):
            assert int(out) % prime == secant_mod(799, prime)


# Each family route with the public per-n function its rows must match.
PER_N = {
    (("path", None), "formula"): b.path_count_bernoulli,
    (("path", None), "recursion"): b.path_count_recursive,
    (("star", None), "formula"): b.star_count,
    (("star", None), "recursion"): b.star_count_recursive,
    (("cycle", None), "formula"): b.cycle_count_bernoulli,
    (("cycle", None), "recursion"): lambda n: n * b.path_count_recursive(n),
    (("complete", None), "formula"): b.complete_count,
    (("path", 1), "formula"): lambda n: b.zigzag_numbers(n).secant[n - 1],
    (("star", 1), "formula"): lambda n: math.factorial(2 * n) // 2**n,
}
FAMILY_ROUTES = [
    (family, route) for family, routes in cli._FAMILY_ROUTES.items() for route in routes
]
KIND_NAMES = {family: name for name, family in cli._TABLE_KINDS.items()}  # test ids


class TestFamilyRoutes:
    """Every formula and recursion of count and family-table sits in one
    (kind, base) -> {route: rows} table, where rows(n)[n] is the value at n."""

    @pytest.mark.parametrize("family, route", FAMILY_ROUTES, ids=lambda v: KIND_NAMES.get(v, v))
    def test_rows_at_n_match_the_dp(self, family, route):
        (kind, base), rows = family, cli._FAMILY_ROUTES[family][route]
        for n in range(1, 7):
            g = b.build_family(f"{kind}:{n}")
            assert rows(n)[n] == (b.count_dp(g) if base is None else b.count_based(g, base))

    @pytest.mark.parametrize("family, route", FAMILY_ROUTES, ids=lambda v: KIND_NAMES.get(v, v))
    def test_every_index_holds_the_per_n_value(self, family, route):
        rows = cli._FAMILY_ROUTES[family][route](30)
        indices = range(1, len(rows)) if isinstance(rows, list) else rows.keys()
        assert 30 in indices
        for n in indices:
            assert rows[n] == PER_N[family, route](n)

    @pytest.mark.parametrize("route", ["formula", "recursion"])
    def test_route_scope_names_the_kinds_that_carry_it(self, route):
        scope = cli._ROUTE_SCOPE[route]
        plain = scope[len("family:") : scope.index(" graphs")].split("/")
        _, _, based = scope.partition("with --base only to ")
        based = based.removesuffix(" --base 1").split(" or ") if based else []
        families = [family for family, name in FAMILY_ROUTES if name == route]
        assert families == [(kind, None) for kind in plain] + [(kind, 1) for kind in based]


class TestEnumerate:
    def test_plain_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "family:path:2")
        assert code == 0
        assert out == "v1 v2 e1\nv2 v1 e1\n"

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "family:path:7")
        assert code == 3
        assert "resource limit" in err

    def test_plain_output_streams_each_sequence(self, capsys, monkeypatch):
        def one_then_fail(g, *, element_limit):
            yield b.vertices_first_sequence(g)
            raise b.ResourceLimitError("stopped after one sequence")

        monkeypatch.setattr("buildseq.cli.enumerate_csequences", one_then_fail)
        code, out, err = run(capsys, "enumerate", "family:path:2")
        assert (code, out) == (3, "v1 v2 e1\n")
        assert "stopped after one sequence" in err

    def test_a_graph_without_elements_prints_one_empty_line(self, capsys, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_text("0 0\n")
        assert run(capsys, "enumerate", str(target)) == (0, "\n", "")

    def test_raised_limit_allows_it(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "family:path:2", "--limit-elements", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["count"] == "2"


class TestValidate:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "validate", "family:path:3", "v1 v2 v3 e2 e1")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_violation_exits_one(self, capsys):
        code, out, err = run(capsys, "validate", "family:path:3", "v1 v3 e1 v2 e2")
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert "edge e1" in payload["violations"][0]
        assert "edge e1" in err

    def test_short_sequence_against_a_huge_graph(self, capsys, tmp_path):
        target = tmp_path / "huge.txt"
        target.write_text("10000000 0\n")
        code, _, err = run(capsys, "validate", str(target), "v1")
        assert code == 1
        assert len(err.encode()) < 1024
        assert err.endswith(" and 9999979 more)\n")


class TestCost:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "cost", "family:path:3", "v1 v2 e1 v3 e2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["per_edge"] == {"e1": 3, "e2": 4}
        assert payload["total"] == 7
        assert payload["vertex_cost"] == "6"
        assert payload["components"] == [1, 2, 1, 2, 1]
        assert payload["peak_components"] == 2
        assert payload["short"] == "121'32'"

    def test_isolated_vertex_reports_null(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text("3 1\n1 2\n")
        code, out, _ = run(capsys, "cost", str(target), "v1 v2 v3 e1", "--format", "json")
        assert code == 0
        assert json.loads(out)["vertex_cost"] is None

    def test_a_graph_without_vertices(self, capsys, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_text("0 0\n")
        code, out, err = run(capsys, "cost", str(target), "", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["components"] == []
        assert payload["peak_components"] == 0
        assert run(capsys, "cost", str(target), "", "--format", "plain") == (0, "0\n", "")

    def test_invalid_sequence_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "cost", "family:path:3", "e1 v1 v2 v3 e2")
        assert code == 1
        assert "error" in err


class TestOptimize:
    def test_star_five(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "family:star:5", "--witnesses", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_cost"] == 30
        assert payload["num_optimal"] == "240"
        assert payload["witnesses"] == ["v2 v3 v1 e1 e2 v4 e3 v5 e4 v6 e5"]


class TestGreedy:
    def test_custom_order_and_hub_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "greedy",
            "family:star:5",
            "--order",
            "2,3,1,4,5,6",
            "--hub-zero",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == 30
        assert payload["short"] == "1201'2'33'44'55'"

    def test_seeded_tie_break_is_deterministic(self, capsys):
        first = run(capsys, "greedy", "family:cycle:4", "--tie-break", "seeded-random", "--seed", "5")
        second = run(capsys, "greedy", "family:cycle:4", "--tie-break", "seeded-random", "--seed", "5")
        assert first == second

    def test_an_empty_order_is_checked_not_defaulted(self, capsys, tmp_path):
        # An empty --order is the empty order, a permutation of 1..p only when p = 0.
        assert run(capsys, "greedy", "family:path:3", "--order", "") == (
            1, "", "error: vertex_order is not a permutation of 1..p\n"
        )
        empty = tmp_path / "empty.txt"
        empty.write_text("0 0\n")
        code, out, _ = run(capsys, "greedy", str(empty), "--order", "")
        assert (code, json.loads(out)["order"]) == (0, [])

    def test_a_billion_vertices_are_refused_before_any_order(self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("an order was listed")

        monkeypatch.setattr(optimize, "_permutation", refuse)
        huge = tmp_path / "huge.txt"
        huge.write_text("1000000000 0\n")
        assert run(capsys, "greedy", str(huge)) == (
            3, "", "resource limit: 1000000000 elements exceed the sequence builder limit 160000\n"
        )


class TestFamilyTable:
    def test_star_rows_agree(self, capsys):
        code, out, _ = run(
            capsys, "family-table", "star", "--max", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        values = [row["counts"]["dp"] for row in payload["rows"]]
        assert values == ["2", "16", "288", "9216"]
        assert all(row["agree"] for row in payload["rows"])

    def test_based_path_rows(self, capsys):
        code, out, _ = run(
            capsys, "family-table", "based-path", "--max", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["counts"]["dp"] for row in payload["rows"]] == ["1", "1", "5", "61"]

    def test_cycle_row_three(self, capsys):
        code, out, _ = run(capsys, "family-table", "cycle", "--max", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[2]["counts"] == {
            "dp": "48",
            "formula": "48",
            "recursion": "48",
            "oracle": "48",
        }

    def test_complete_rows_have_the_product_formula(self, capsys):
        code, out, _ = run(
            capsys, "family-table", "complete", "--max", "4", "--limit-elements", "6", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["counts"]["formula"] for row in rows] == ["1", "2", "48", "34560"]
        assert rows[2]["counts"] == {"dp": "48", "formula": "48", "oracle": "48"}
        assert rows[3]["counts"] == {"dp": "34560", "formula": "34560"}
        assert all(row["agree"] for row in rows)

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "family-table", "path", "--max", "3", "--format", "csv", "--route", "dp"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,dp,agree"
        assert lines[3] == "3,16,true"

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "family-table", "wheel", "--max", "3")
        assert code == 2
        assert "usage error" in err

    def test_state_limit_reaches_the_dp_route(self, capsys):
        code, out, err = run(capsys, "family-table", "path", "--max", "6", "--limit-states", "4")
        assert (code, out) == (3, "")
        assert "resource limit" in err

    def test_oracle_past_the_element_limit_is_a_resource_limit(self, capsys):
        code, out, err = run(
            capsys, "family-table", "path", "--max", "3", "--route", "oracle", "--limit-elements", "3"
        )
        assert (code, out) == (3, "")
        assert "resource limit" in err

    def test_named_route_that_does_not_apply_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "family-table", "based-star", "--max", "2", "--route", "recursion")
        assert code == 2
        assert "usage error" in err

    def test_mismatch_row_exits_one(self, capsys, monkeypatch):
        routes = cli._FAMILY_ROUTES["path", None]
        monkeypatch.setitem(routes, "formula", lambda n: {n: 3 if n == 2 else 1})
        code, out, err = run(capsys, "family-table", "path", "--max", "2", "--route", "all")
        assert code == 1
        assert out.splitlines() == [
            "   n  dp  formula  oracle  recursion  agree",
            "   1   1        1       1          1  ok",
            "   2   2        3       2          2  MISMATCH",
        ]
        assert err == "family-table routes disagree\n"

    def test_largest_row_runs_first(self, capsys, monkeypatch):
        calls = []
        routes = cli._FAMILY_ROUTES["complete", None]
        formula = routes["formula"]  # a closed form, so one call per row
        monkeypatch.setitem(routes, "formula", lambda n: calls.append(n) or formula(n))
        code, out, err = run(capsys, "family-table", "complete", "--max", "701", "--route", "formula")
        assert (code, out, calls) == (1, "", [701])
        assert err == "error: supported range is 1 <= n <= 700, got 701\n"
        calls.clear()
        argv = ("family-table", "complete", "--max", "3", "--route", "formula", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert (code, calls) == (0, [3, 2, 1])
        assert out == "n,formula,agree\n1,1,true\n2,2,true\n3,48,true\n"

    def test_largest_row_limit_stops_the_table_at_once(self, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr(cli, "count_dp", lambda g, **_: sweeps.append(g.p))
        argv = ("family-table", "path", "--max", "21", "--limit-states", "1048576")
        code, out, err = run(capsys, *argv)
        assert (code, out, sweeps) == (3, "", [])
        assert err.startswith("resource limit: count DP needs 2^21 vertex-subset states")

    def test_failing_table_reports_its_largest_row(self, capsys):
        code, out, err = run(capsys, "family-table", "complete", "--max", "1415")
        assert (code, out) == (1, "")
        assert err == "error: family spec needs 1001820 elements, over the guard 1000000\n"

    # The routes that family-table reads from one column, with the per-n
    # function each row must match.
    COLUMNS = [
        ("path", "formula", 60, b.path_count_bernoulli),
        ("cycle", "formula", 60, b.cycle_count_bernoulli),
        ("based-path", "formula", 60, lambda n: b.zigzag_numbers(n).secant[n - 1]),
        ("path", "recursion", 60, b.path_count_recursive),
        ("cycle", "recursion", 60, lambda n: n * b.path_count_recursive(n)),
    ]

    @pytest.mark.parametrize("kind, route, top, per_n", COLUMNS)
    def test_a_column_gives_the_per_n_values(self, capsys, kind, route, top, per_n):
        code, out, _ = run(capsys, "family-table", kind, "--max", str(top), "--route", route, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == [f"{n},{per_n(n)},true" for n in range(1, top + 1)]

    @pytest.mark.parametrize("kind, route", [(kind, route) for kind, route, _, _ in COLUMNS])
    def test_a_table_builds_each_column_once(self, capsys, monkeypatch, kind, route):
        calls = []
        for routes in cli._FAMILY_ROUTES.values():
            for name, rows in list(routes.items()):
                monkeypatch.setitem(routes, name, lambda n, rows=rows: calls.append(n) or rows(n))
        assert run(capsys, "family-table", kind, "--max", "7", "--route", route)[0] == 0
        assert calls == [7]
        calls.clear()
        argv = ("family-table", kind, "--max", "7", "--route", "all", "--limit-elements", "1")
        assert run(capsys, *argv)[0] == 0
        assert calls == ([7, 7] if kind != "based-path" else [7])

    @pytest.mark.parametrize(
        "kind, route, top, name",
        [
            ("path", "recursion", 351, "n"),
            ("cycle", "recursion", 351, "n"),
            ("path", "formula", 101, "n"),
            ("cycle", "formula", 101, "n"),
            ("based-path", "formula", 801, "n_max"),
        ],
    )
    def test_a_column_past_its_cap_stops_the_table_at_once(self, capsys, kind, route, top, name):
        code, out, err = run(capsys, "family-table", kind, "--max", str(top), "--route", route)
        assert (code, out) == (1, "")
        assert err == f"error: supported range is 1 <= {name} <= {top - 1}, got {top}\n"

    @pytest.mark.parametrize("top", ("0", "-3"))
    def test_max_below_one_is_a_usage_error(self, capsys, top):
        code, out, err = run(capsys, "family-table", "path", "--max", top)
        assert (code, out) == (2, "")
        assert err == f"usage error: --max must be >= 1, got {top}\n"


class TestXi:
    def test_trees_five(self, capsys):
        code, out, _ = run(capsys, "xi", "trees:4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "trees:4"
        assert payload["size"] == "16"
        assert len(payload["graphs"]) == 16
        total = sum(int(entry["c"]) for entry in payload["graphs"])
        assert payload["alpha"] == f"{total}/16" or int(payload["alpha"]) * 16 == total

    def test_fixed_size_family_of_paths(self, capsys):
        # All three 2-edge graphs on three vertices are paths with count 16,
        # so every ratio is exactly 1.
        code, out, _ = run(capsys, "xi", "graphs:3:2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "16"
        assert [entry["xi"] for entry in payload["graphs"]] == ["1", "1", "1"]

    def test_routes_disagree_exits_one(self, capsys, monkeypatch):
        # graphs:3:2 has three paths with 16 sequences each: 48 pairs.
        monkeypatch.setattr(cli, "_graphs_pq_pairs", lambda p, q: 49)
        code, out, err = run(capsys, "xi", "graphs:3:2")
        assert (code, out) == (1, "")
        assert err == "xi routes disagree: member sum 48, walk 49\n"

    def test_trees_skip_the_walk(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_graphs_pq_pairs", lambda p, q: calls.append((p, q)))
        code, _, _ = run(capsys, "xi", "trees:4")
        assert (code, calls) == (0, [])

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "xi", "graphs:3:2", "--format", "plain")
        assert code == 0
        assert out.splitlines() == [
            "family graphs:3:2 size 3 alpha 16",
            "     0  c=16  xi=1",
            "     1  c=16  xi=1",
            "     2  c=16  xi=1",
        ]

    def test_digits_that_int_rejects_are_a_usage_error(self, capsys):
        for family in ("trees:²", "graphs:³:2"):
            code, out, err = run(capsys, "xi", family)
            assert (code, out) == (2, "")
            assert err == f"usage error: family must be trees:<n> or graphs:<p>:<q>, got {family!r}\n"

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "xi", "forests:4")
        assert code == 2
        assert "usage error" in err


class TestCheckConjecture:
    def test_exhaustive_holds(self, capsys):
        code, out, _ = run(capsys, "check-conjecture", "family:path:4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["policy"] == "exhaustive"

    def test_policy_restricted_reports(self, capsys):
        code, out, _ = run(
            capsys,
            "check-conjecture",
            "family:cycle:3",
            "--tie-break",
            "lexicographic",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is False
        assert len(payload["counterexamples"]) == 6


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, capsys):
        commands = [
            ("count", "family:path:5", "--route", "all", "--format", "json"),
            ("optimize", "family:cycle:4", "--witnesses", "5", "--format", "json"),
            ("greedy", "family:complete:4", "--tie-break", "seeded-random", "--format", "json"),
            ("xi", "trees:4", "--format", "json"),
            ("family-table", "path", "--max", "4", "--format", "csv"),
        ]
        for argv in commands:
            assert run(capsys, *argv) == run(capsys, *argv)


# Flags that a subcommand does not read, and so rejects.
IGNORED_FLAGS = [
    ("count", "family:path:3", "--format", "csv"),
    ("count", "family:path:3", "--seed", "1"),
    ("enumerate", "family:path:2", "--limit-states", "9"),
    ("validate", "family:path:2", "v1 v2 e1", "--limit-elements", "3"),
    ("cost", "family:path:2", "v1 v2 e1", "--seed", "1"),
    ("optimize", "family:path:3", "--limit-elements", "3"),
    ("greedy", "family:path:3", "--limit-states", "9"),
    ("xi", "trees:3", "--seed", "1"),
    ("check-conjecture", "family:path:3", "--limit-states", "9"),
]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", IGNORED_FLAGS)
    def test_flags_a_subcommand_would_ignore_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2


# One successful request per subcommand.
SUCCESS = [
    ("count", "family:path:3"),
    ("enumerate", "family:path:2"),
    ("validate", "family:path:3", "v1 v2 e1 v3 e2"),
    ("cost", "family:path:3", "v1 v2 e1 v3 e2"),
    ("optimize", "family:star:3", "--witnesses", "2"),
    ("greedy", "family:star:3", "--hub-zero"),
    ("family-table", "path", "--max", "3"),
    ("xi", "trees:3"),
    ("check-conjecture", "family:path:3"),
]
COMMANDS = [argv[0] for argv in SUCCESS]


class TestParserPerCommand:
    """main reads a well-formed request straight from the command table and
    leaves the rest to argparse, first to the named command's own parser;
    it answers every request byte for byte as the parser with all commands
    does.  The reference is computed in the same interpreter, since
    argparse's wording differs between Python versions."""

    @pytest.fixture
    def full(self, capsys, monkeypatch):
        build = cli.build_parser

        def run_full(call):
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_parse", lambda argv: build().parse_args(argv))
                code = call()
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        return run_full

    @pytest.fixture
    def parsers(self, monkeypatch):
        """The ArgumentParser instances built while the test runs."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return built

    def test_a_command_gets_only_its_own_subparser(self, capsys, parsers):
        """A valid request builds no parser; its help builds the command's
        own parser first, which rejects every other command's flags."""
        assert COMMANDS == [name for name, *_ in cli._COMMANDS]
        flags = {
            name: {flag for flag, _ in arguments if flag.startswith("--")}
            for name, _, _, arguments in cli._COMMANDS
        }
        for argv in SUCCESS:
            del parsers[:]
            assert run(capsys, *argv)[0] == 0
            assert parsers == []
            assert run(capsys, *argv, "-h")[0] == 0
            (own,) = parsers
            assert own.format_usage().startswith(f"usage: buildseq {argv[0]} [-h]")
            for flag in set().union(*flags.values()) - flags[argv[0]]:
                with pytest.raises(SystemExit):
                    own.parse_args([*argv[1:], flag, "1"])
        capsys.readouterr()

    @pytest.mark.parametrize("argv", SUCCESS)
    def test_a_valid_request_builds_one_parser(self, capsys, parsers, argv):
        """A valid request is read from the command table and builds no
        parser; the same request with a bad value builds one, its own."""
        assert run(capsys, *argv)[0] == 0
        assert parsers == []
        assert run(capsys, *argv, "--format", "bogus")[0] == 2
        assert [parser.prog for parser in parsers] == [f"buildseq {argv[0]}"]

    def test_arguments_left_over_reach_the_full_parser(self, capsys, parsers):
        code, out, err = run(capsys, "count", "family:path:3", "extra")
        assert (code, out) == (2, "")
        assert err.startswith("usage: buildseq [-h]")
        assert err.endswith("buildseq: error: unrecognized arguments: extra\n")
        assert [parser.prog for parser in parsers[:2]] == ["buildseq count", "buildseq"]

    @pytest.mark.parametrize(
        "argv",
        [
            *SUCCESS,
            ("-h",),
            *((name, "-h") for name in COMMANDS),
            (),
            ("frobnicate", "family:path:3"),
            ("count", "family:path:3", "extra"),
            ("count", "family:path:3", "--route", "sideways"),
            ("family-table", "path"),
            *IGNORED_FLAGS,
            *((command, "family:complete:600", *flags) for (command, *flags), _ in OVER_LIMIT),
            *(("count", *argv) for argv, _, _ in BAD_COUNT_REQUESTS),
            *(("count", *argv) for argv, _ in PAST_THE_CAP),
        ],
    )
    def test_same_bytes_as_the_full_parser(self, capsys, full, argv):
        lazy = run(capsys, *argv)
        assert lazy == full(lambda: main(list(argv)))
        assert (lazy[0] == 0) == (argv in SUCCESS or "-h" in argv)

    @pytest.mark.parametrize(
        "argv",
        [("count", "family:path:3"), ("count", "family:path:3", "extra"), ("-h",), ()],
    )
    def test_argv_from_sys(self, capsys, monkeypatch, full, argv):
        monkeypatch.setattr(sys, "argv", ["buildseq", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == full(main)
        assert (code, captured.out, captured.err) == run(capsys, *argv)

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(st.data())
    def test_whatever_the_reader_accepts_argparse_reads_alike(self, data):
        row = data.draw(st.sampled_from(cli._COMMANDS))
        argv = [row[0], *data.draw(well_formed(row))]
        # Near misses: up to three edits, each dropping a token or putting
        # in a run of any tokens.
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(1, len(argv)))
            if at < len(argv) and data.draw(st.booleans()):
                del argv[at]
            else:
                argv[at:at] = data.draw(st.lists(tokens(row), min_size=1, max_size=2))
        read = cli._read(argv)
        if read is not None:
            assert vars(read) == argparse_reads(row, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "family:path:3", "--form", "plain"),
            ("count", "family:path:3", "--limit", "3"),
            ("count", "family:path:3", "--format=plain"),
            ("count", "--", "family:path:3"),
            ("count", "family:path:3", "--base", "-1"),
            ("count", "family:path:3", "--base", "x"),
            ("count", "family:path:3", "--route", "sideways"),
            ("count", "family:path:3", "-h"),
            ("count",),
            ("greedy", "family:path:3", "--order"),
            ("greedy", "family:path:3", "--order", "--seed", "1"),
            ("cost", "family:path:3", "v1", "--hub-zero", "x", "y"),
            ("family-table", "path"),
            ("frobnicate", "family:path:3"),
            (),
        ],
    )
    def test_the_reader_leaves_the_rest_to_argparse(self, argv):
        assert cli._read(argv) is None

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_a_well_formed_request_is_read(self, data):
        row = data.draw(st.sampled_from(cli._COMMANDS))
        argv = [row[0], *data.draw(well_formed(row))]
        read = cli._read(argv)
        assert read is not None
        assert vars(read) == argparse_reads(row, argv)

    def test_a_valid_request_leaves_argparse_unimported(self):
        root = str(Path(cli.__file__).resolve().parents[1])
        script = (
            f"import sys; sys.path.insert(0, {root!r}); from buildseq.cli import main; "
            "main(['count', 'family:path:3']); print('argparse' in sys.modules); "
            "main(['count', 'family:path:3', '-h'])"
        )
        done = subprocess.run([sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith("16\nFalse\nusage: buildseq count [-h] [--route")
        assert "--limit-states" in done.stdout


class TestCommandTableGrammar:
    def test_every_argument_uses_only_what_the_reader_reads(self):
        """_read trusts the table: a row with nargs, another action or
        another type must fail here, not reach argparse at run time."""
        for name, _, _, arguments in cli._COMMANDS:
            for flag, keywords in arguments:
                assert keywords.keys() <= {"type", "choices", "default", "required", "help", "action"}, (name, flag)
                assert keywords.get("action", "store_true") == "store_true", (name, flag)
                assert keywords.get("type", int) is int, (name, flag)


# Tokens that argparse reads in other ways than the reader might: values
# that start with "-", bad ints and choices, ints that int() accepts in
# other spellings, and the empty string.
VALUES = ["family:path:3", "path", "3", "0", "-1", "", "x", "sideways", "1_0", " 7", "v1 v2 e1", "-", "a b"]
ALL_FLAGS = sorted({flag for *_, arguments in cli._COMMANDS for flag, _ in arguments if flag.startswith("-")})


def tokens(row):
    """Any token of a request for the command in ``row``."""
    flags = [flag for flag, _ in row[3] if flag.startswith("-")]
    choices = [str(c) for _, keywords in row[3] for c in keywords.get("choices", ())]
    return st.one_of(
        st.sampled_from(flags),
        st.sampled_from(VALUES + choices),
        st.sampled_from([flag[:k] for flag in flags for k in range(3, len(flag))]),
        st.builds("{}={}".format, st.sampled_from(flags), st.sampled_from(VALUES + choices)),
        st.sampled_from(["--", "-h", "--help", *ALL_FLAGS]),
    )


@st.composite
def well_formed(draw, row):
    """The tokens after the command name of a request that the reader must
    accept: each option at most once with a valid value, every required
    one, the positionals exactly, all in any order."""
    groups, positionals = [], []
    for flag, keywords in row[3]:
        if not flag.startswith("-"):
            positionals.append([draw(st.sampled_from(["family:path:3", "path", "v1 v2 e1", "", "a b"]))])
        elif keywords.get("required") or draw(st.booleans()):
            if keywords.get("action"):
                groups.append([flag])
            elif "choices" in keywords:
                groups.append([flag, draw(st.sampled_from(keywords["choices"]))])
            elif "type" in keywords:
                groups.append([flag, str(draw(st.integers(0, 10**30)))])
            else:
                groups.append([flag, draw(st.sampled_from(["2,1,3", "", "x y"]))])
    return [token for group in draw(st.permutations(groups + positionals)) for token in group]


def argparse_reads(row, argv):
    """vars() of the namespace that the command's own argparse parser gives
    for ``argv``, with the command and its handler, as _parse sets them."""
    name, _, handler, arguments = row
    parser = argparse.ArgumentParser(prog=f"buildseq {name}")
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args, extra = parser.parse_known_args(argv[1:])
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}")
    assert extra == []
    return {**vars(args), "command": name, "func": handler}
