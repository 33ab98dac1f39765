"""The four workloads: seeded inputs, the calls each query makes, and the
answer each query must return.

Every workload is built from strata with fixed counts and sizes spread
evenly over their range; the seed draws the structure (edges, hyperedges,
labellings, spec parts, sequences, argv choices) and the order.  So two
seeds give different inputs with the same cost profile.  Expected answers
come from :mod:`checker`, the package's closed forms and composition laws,
or the pinned values of :mod:`references`; never from the route the query
itself runs.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import checker
import references


@dataclass
class Query:
    label: str
    run: Callable[[Any], Any]  # called with a tracing.Layers namespace
    check: Callable[[Any], bool]
    elements: int = 0
    vertex_subsets: int = 0
    bad: bool = False  # a deliberately bad request; its rejection is the right answer


class CliAnswer(NamedTuple):
    code: int
    stdout: str


def evenly(lo: int, hi: int, k: int) -> list[int]:
    """k integers evenly spread over [lo, hi]: the midpoints of k equal bins."""
    return [lo + int((i + 0.5) * (hi - lo + 1) / k) for i in range(k)]


def random_graph(rng: random.Random, p: int, q: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    return sorted(rng.sample(pairs, min(q, len(pairs))))


# ---------------------------------------------------------------------------
# Family specs, built here independently of graphs.build_family


def spec_text(spec) -> str:
    kind = spec[0]
    if kind == "union":
        return "union(" + ",".join(spec_text(s) for s in spec[1]) + ")"
    if kind == "wedge":
        return "wedge(" + ",".join(f"{spec_text(s)}@{b}" for s, b in spec[1]) + ")"
    return f"{kind}:{spec[1]}"


def spec_graph(spec) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list with the documented canonical labelling."""
    kind = spec[0]
    if kind == "path":
        n = spec[1]
        return n, [(i, i + 1) for i in range(1, n)]
    if kind == "star":
        n = spec[1]
        return n + 1, [(1, i + 1) for i in range(1, n + 1)]
    if kind == "cycle":
        n = spec[1]
        if n == 1:
            return 1, [(1, 1)]
        return n, [(i, i + 1) for i in range(1, n)] + [(1, n) if n > 2 else (1, 2)]
    if kind == "complete":
        n = spec[1]
        return n, list(itertools.combinations(range(1, n + 1), 2))
    if kind == "union":
        offset, edges = 0, []
        for part in spec[1]:
            p, part_edges = spec_graph(part)
            edges += [(u + offset, w + offset) for u, w in part_edges]
            offset += p
        return offset, edges
    offset, edges = 1, []
    for part, base in spec[1]:
        p, part_edges = spec_graph(part)
        mapping = {base: 1}
        for v in range(1, p + 1):
            if v != base:
                offset += 1
                mapping[v] = offset
        edges += [tuple(sorted((mapping[u], mapping[w]))) for u, w in part_edges]
    return offset, edges


def spec_size(spec) -> int:
    p, edges = spec_graph(spec)
    return p + len(edges)


def closed_form_count(spec) -> int | None:
    """Total count by closed forms and the union law, where they apply."""
    from buildseq import cycle_count_bernoulli, path_count_bernoulli, star_count, union_count

    kind = spec[0]
    if kind == "path":
        return path_count_bernoulli(spec[1])
    if kind == "star":
        return star_count(spec[1])
    if kind == "cycle":
        return cycle_count_bernoulli(spec[1])
    if kind == "union":
        parts = [(closed_form_count(s), spec_size(s)) for s in spec[1]]
        if any(c is None for c, _ in parts):
            return None
        return union_count(parts)
    return None


def closed_form_based(spec, base: int) -> int:
    """Count based at ``base`` for a path endpoint, a star hub or any cycle
    vertex, and for a wedge at its wedge point by the wedge law."""
    from buildseq import cycle_count_bernoulli, wedge_count, zigzag_numbers

    kind = spec[0]
    if kind == "path" and base == 1:
        return zigzag_numbers(spec[1]).secant[spec[1] - 1]
    if kind == "star" and base == 1:
        return math.factorial(2 * spec[1]) // 2 ** spec[1]
    if kind == "cycle":
        return cycle_count_bernoulli(spec[1]) // spec[1]
    if kind == "wedge" and base == 1:
        parts = []
        for part, b in spec[1]:
            p, edges = spec_graph(part)
            parts.append((closed_form_based(part, b), p + len(edges)))
        return wedge_count(parts)
    raise ValueError(f"no closed form for {spec_text(spec)} based at {base}")


# ---------------------------------------------------------------------------
# dp-large


def dp_large(seed: int, refs: dict) -> list[Query]:
    from buildseq import Graph, build_family

    rng = random.Random(seed)
    items = []  # (label, graph, spec or None, all bases?)
    # The DP state count is 2^p + q*2^(p-2) whatever the edges are, so fixed
    # sizes give every seed the same cost profile and the same peak memory
    # (set by cycle:13, the largest state space here).
    # The median falls inside the large p = 11 stratum.
    strata = [(9, 4, False), (10, 8, False), (10, 2, True), (11, 15, False), (12, 8, False)]
    for p, k, bases in strata:
        for q in evenly(p, 2 * p, k):
            edges = random_graph(rng, p, q)
            items.append((f"random p={p} q={q}", Graph(p, tuple(edges)), None, bases))
    closed = ["path", "star", "cycle"]
    named = [("path", 13), ("star", 11), ("cycle", 12), ("cycle", 13), ("complete", 8)]
    for kind in ("cycle", "star"):  # unions of closed-form parts, 12 vertices in all
        cut = rng.randint(4, 7)
        named.append(("union", [(kind, cut), ("path", 12 - cut - (kind == "star"))]))
    for _ in range(3):  # wedges of three parts at path endpoints, star hubs, cycle vertices
        parts = [(rng.choice([("path", 4), ("star", 3), ("cycle", 4)]), 1) for _ in range(3)]
        named.append(("wedge", parts))
    for spec in named:
        g = build_family(spec_text(spec))
        items.append((spec_text(spec), g, spec, spec[0] == "wedge"))
    rng.shuffle(items)

    queries = []
    for label, g, spec, bases in items:
        p, edges = spec_graph(spec) if spec else (g.p, g.edges)
        tables = checker.SubsetTables(p, edges)
        mc = tables.min_cost()
        expected: dict = {"count": tables.total_count(), "min": (mc.value, mc.num_optimal)}
        # Closed forms and composition laws take precedence where they apply.
        if spec is not None and closed_form_count(spec) is not None:
            expected["count"] = closed_form_count(spec)
        if spec is not None and spec[0] == "cycle":
            expected["min"] = (mc.value, spec[1] * 2 ** (spec[1] - 1))
        if bases:
            expected["based"] = tables.based_counts()
            if spec is not None and spec[0] == "wedge":
                expected["based"][0] = closed_form_based(spec, 1)

        def run(L, g=g, bases=bases):
            answer = {"count": L.count_dp(g)}
            result = L.min_cost(g)
            answer["min"] = (result.min_cost, result.num_optimal)
            if bases:
                answer["based"] = [L.count_based(g, b) for b in range(1, g.p + 1)]
            return answer

        def check(answer, expected=expected):
            if answer != expected:
                return False
            return "based" not in answer or sum(answer["based"]) == answer["count"]

        calls = 2 + (g.p if bases else 0)
        queries.append(Query(label, run, check, g.element_count, calls * 2**g.p))
    return queries


# ---------------------------------------------------------------------------
# family-sweep


def family_sweep(seed: int, refs: dict) -> list[Query]:
    from buildseq import Family

    rng = random.Random(seed)
    labels = (
        ["trees:4", "trees:5", "trees:6"]
        + [f"graphs:5:{q}" for q in range(11)]
        + [f"graphs:6:{q}" for q in (0, 1, 2, 3, 11, 12, 13, 14, 15)]
    )
    rng.shuffle(labels)
    queries = []
    for label in labels:
        parts = label.split(":")
        if parts[0] == "trees":
            n = int(parts[1])
            family, size, elements = Family.trees(n), n ** (n - 2), 2 * n - 1
            p = n
        else:
            p, q = int(parts[1]), int(parts[2])
            family, size, elements = Family.fixed_size(p, q), math.comb(p * (p - 1) // 2, q), p + q
        expected = refs["family_average"][label]
        queries.append(Query(
            label,
            lambda L, family=family: L.family_average(family),
            lambda answer, expected=expected: answer == expected,
            size * elements,
            size * 2**p,
        ))
    return queries


# ---------------------------------------------------------------------------
# poset-extensions


def _relabelled(rng: random.Random, n: int, covers):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple((perm[lo], perm[hi]) for lo, hi in covers)


def poset_extensions(seed: int, refs: dict) -> list[Query]:
    from buildseq import Graph, zigzag_numbers

    rng = random.Random(seed)
    queries = []

    def add(label, run, expected, elements):
        queries.append(Query(label, run, lambda a, e=expected: a == e, elements))

    for p, lo, hi, k in ((7, 7, 10, 4), (8, 8, 11, 4), (9, 9, 11, 4)):
        for q in evenly(lo, hi, k):
            edges = random_graph(rng, p, q)
            g = Graph(p, tuple(edges))
            add(f"incidence p={p} q={q}",
                lambda L, g=g: L.count_linear_extensions(L.incidence_poset(g)),
                checker.SubsetTables(p, edges).total_count(), p + q)
    for p, k in ((7, 3), (8, 4), (9, 3)):
        for m in evenly(p - 1, p + 1, k):
            hyper = [tuple(rng.sample(range(1, p + 1), rng.choice([2, 2, 3]))) for _ in range(m)]
            add(f"hypergraph p={p} m={m}",
                lambda L, p=p, h=hyper: L.count_linear_extensions(L.poset_from_hypergraph(p, h)),
                checker.SubsetTables(p, hyper).total_count(), p + m)
    names = sorted(references.COMPLEXES)
    for name in names:
        faces = list(references.COMPLEXES[name])
        rng.shuffle(faces)
        faces = [(f"f{i}", members) for i, members in enumerate(faces)]
        add(f"faces {name}",
            lambda L, f=faces: L.count_linear_extensions(L.poset_from_faces(f)),
            refs["face_poset"][name], len(faces))
    for n in evenly(800, 1200, 4):
        covers = _relabelled(rng, n, [(i, i + 1) for i in range(n - 1)])
        add(f"chain n={n}",
            lambda L, n=n, c=covers: L.count_linear_extensions(L.Poset(n, c)), 1, n)
    for n in evenly(800, 1200, 3):
        # a chain with three side elements, each strictly between two chain
        # elements w apart, in disjoint windows: w choices each
        covers = [(i, i + 1) for i in range(n - 1)]
        widths = [rng.randint(2, 6) for _ in range(3)]
        for j, w in enumerate(widths):
            start = (j + 1) * n // 4
            covers += [(start, n + j), (n + j, start + w)]
        add(f"side-chain n={n + 3}",
            lambda L, n=n + 3, c=_relabelled(rng, n + 3, covers): L.count_linear_extensions(L.Poset(n, c)),
            math.prod(widths), n + 3)
    for a, b in zip(evenly(20, 40, 8), evenly(24, 36, 8)[::-1]):
        # two chains between a common bottom (0) and top (a+b+1)
        covers = [(0, 1), (0, a + 1), (a, a + b + 1), (a + b, a + b + 1)]
        covers += [(i, i + 1) for i in range(1, a)] + [(i, i + 1) for i in range(a + 1, a + b)]
        add(f"two-chains {a}+{b}",
            lambda L, n=a + b + 2, c=_relabelled(rng, a + b + 2, covers): L.count_linear_extensions(L.Poset(n, c)),
            math.comb(a + b, a), a + b + 2)
    zigzag = zigzag_numbers(10)
    for n in evenly(14, 18, 2):
        covers = [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)]
        euler = zigzag.tangent[(n + 1) // 2] if n % 2 else zigzag.secant[n // 2]
        add(f"fence n={n}",
            lambda L, n=n, c=_relabelled(rng, n, covers): L.count_linear_extensions(L.Poset(n, c)),
            euler, n)
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# cli-small


def _cli_run(argv):
    def run(L):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = L.cli_main(list(argv))
        return CliAnswer(code, out.getvalue())

    return run


def _expect(code: int, stdout: Callable[[str], bool] | str):
    def check(answer: CliAnswer) -> bool:
        if answer.code != code:
            return False
        if isinstance(stdout, str):
            return answer.stdout == stdout
        return stdout(answer.stdout)

    return check


def _json_is(payload: dict):
    def check(text: str) -> bool:
        try:
            return json.loads(text) == payload
        except ValueError:
            return False

    return check


def _rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _random_sequence(rng: random.Random, p: int, edges) -> list[str]:
    placed: set[int] = set()
    left_v = list(range(1, p + 1))
    left_e = list(range(1, len(edges) + 1))
    out = []
    while left_v or left_e:
        options = [f"v{v}" for v in left_v] + [
            f"e{j}" for j in left_e if all(v in placed for v in edges[j - 1])
        ]
        tok = rng.choice(options)
        out.append(tok)
        if tok[0] == "v":
            placed.add(int(tok[1:]))
            left_v.remove(int(tok[1:]))
        else:
            left_e.remove(int(tok[1:]))
    return out


def cli_small(seed: int, refs: dict) -> list[Query]:
    from buildseq import path_count_recursive, star_count_recursive

    rng = random.Random(seed)
    queries: list[Query] = []

    # Every seed has the same cost tiers, so latency_p90_ms lands in the
    # middle of one tier: 90 cheap requests (specs with <= 11 elements, the
    # oracle and enumerators only on <= 7), then 10 check-conjecture requests
    # on the 7-element path:4 and star:3, then 5 costly ones (the
    # 8-element oracle, enumeration, count family:complete:600).
    all_specs = [("path", n) for n in range(1, 7)] + [("star", n) for n in range(1, 6)]
    all_specs += [("cycle", n) for n in range(1, 6)] + [("complete", n) for n in range(2, 5)]
    all_specs += [("union", [("path", 2), ("star", 2)]), ("union", [("path", 3), ("path", 2)]),
                  ("wedge", [(("path", 3), 1), (("star", 2), 1)]),
                  ("wedge", [(("cycle", 3), 1), (("path", 2), 1)])]
    seven = [("path", 4), ("star", 3)]
    eight = [("cycle", 4), ("union", [("path", 2), ("star", 2)]), ("union", [("path", 3), ("path", 2)]),
             ("wedge", [(("cycle", 3), 1), (("path", 2), 1)])]

    def add(argv, code, stdout, spec=None, subsets=0, bad=False):
        argv = [str(a) for a in argv]
        queries.append(Query(
            " ".join(argv), _cli_run(argv), _expect(code, stdout),
            spec_size(spec) if spec else 0, subsets, bad,
        ))

    def arg(spec) -> str:
        return "family:" + spec_text(spec)

    def count_of(spec) -> int:
        p, edges = spec_graph(spec)
        return checker.SubsetTables(p, edges).total_count()

    # count: 19
    for spec in rng.sample(all_specs, 6):
        add(["count", arg(spec)], 0, f"{count_of(spec)}\n", spec, 2 ** spec_graph(spec)[0])
    for spec in rng.sample(all_specs, 3):
        payload = {"graph": arg(spec), "counts": {"dp": str(count_of(spec))}, "agree": True}
        add(["count", arg(spec), "--format", "json"], 0, _json_is(payload), spec, 2 ** spec_graph(spec)[0])
    for spec in rng.sample(seven * 2, 3) + rng.sample(eight, 2):
        value = str(count_of(spec))
        routes = ("dp", "oracle") + (("formula", "recursion") if spec[0] == "cycle" or spec in seven else ())
        payload = {"graph": arg(spec), "agree": True, "counts": {r: value for r in routes}}
        add(["count", arg(spec), "--route", "all", "--format", "json"], 0, _json_is(payload), spec,
            2 ** spec_graph(spec)[0])
    for spec in rng.sample(all_specs, 2):
        p, edges = spec_graph(spec)
        b = rng.randint(1, p)
        add(["count", arg(spec), "--base", b], 0, f"{checker.SubsetTables(p, edges).based_counts()[b - 1]}\n",
            spec, 2**p)
    for kind in rng.sample(["path", "star", "cycle"], 3):
        n = rng.randint(3, 15)
        recursion = {"path": path_count_recursive, "star": star_count_recursive,
                     "cycle": lambda n: n * path_count_recursive(n)}[kind]
        add(["count", f"family:{kind}:{n}", "--route", "formula"], 0, f"{recursion(n)}\n", (kind, n))

    # enumerate: 2
    for i, spec in enumerate(rng.sample(seven, 2)):
        p, edges = spec_graph(spec)
        seqs = checker.all_sequences(p, edges)
        if i % 2:
            add(["enumerate", arg(spec), "--format", "json"], 0,
                _json_is({"graph": arg(spec), "count": str(len(seqs)), "sequences": seqs}), spec)
        else:
            add(["enumerate", arg(spec)], 0, "\n".join(seqs) + "\n", spec)

    # validate (valid) 9, cost 9
    for i in range(9):
        spec = rng.choice(all_specs)
        p, edges = spec_graph(spec)
        seq = " ".join(_random_sequence(rng, p, edges))
        payload = {"graph": arg(spec), "sequence": seq, "valid": True, "violations": []}
        if i % 2:
            add(["validate", arg(spec), seq, "--format", "plain"], 0, "valid\n", spec)
        else:
            add(["validate", arg(spec), seq], 0, _json_is(payload), spec)
    for i in range(9):
        spec = rng.choice(all_specs)
        p, edges = spec_graph(spec)
        toks = _random_sequence(rng, p, edges)
        hub_zero = rng.random() < 0.3
        vc = checker.vertex_cost(p, edges, toks)
        components = checker.component_counts(p, edges, toks)
        payload = {
            "graph": arg(spec), "sequence": " ".join(toks),
            "short": checker.short_form(toks, hub_zero),
            "per_edge": checker.edge_costs(edges, toks),
            "total": checker.total_cost(edges, toks),
            "vertex_cost": None if vc is None else _rational(vc),
            "components": components, "peak_components": max(components),
        }
        argv = ["cost", arg(spec), " ".join(toks)] + (["--hub-zero"] if hub_zero else [])
        if i % 4 == 3:
            add(argv + ["--format", "plain"], 0, f"{payload['total']}\n", spec)
        else:
            add(argv, 0, _json_is(payload), spec)

    # optimize: 13
    for i in range(13):
        spec = rng.choice(all_specs)
        p, edges = spec_graph(spec)
        mc = checker.SubsetTables(p, edges).min_cost()
        k = rng.choice([0, 1, 3, 5])
        if i % 3 == 2:
            add(["optimize", arg(spec), "--format", "plain"], 0, f"{mc.value} {mc.num_optimal}\n", spec, 2**p)
            continue
        witnesses = [" ".join(w) for w in checker.first_optimal_sequences(p, edges, k)]
        payload = {"graph": arg(spec), "min_cost": mc.value, "num_optimal": str(mc.num_optimal),
                   "witnesses": witnesses}
        add(["optimize", arg(spec), "--witnesses", k], 0, _json_is(payload), spec, 2**p)

    # greedy: 13
    for i in range(13):
        spec = rng.choice([s for s in all_specs if spec_graph(s)[1]])
        p, edges = spec_graph(spec)
        order = list(range(1, p + 1))
        rng.shuffle(order)
        policy = ("lexicographic", "cycle-avoiding", "seeded-random")[i % 3]
        seed_arg = rng.randint(0, 9)
        hub_zero = i % 4 == 1
        argv = ["greedy", arg(spec), "--order", ",".join(map(str, order)), "--tie-break", policy,
                "--seed", seed_arg] + (["--hub-zero"] if hub_zero else [])

        def greedy_ok(text, p=p, edges=edges, order=order, policy=policy, seed_arg=seed_arg,
                      spec=spec, hub_zero=hub_zero):
            try:
                out = json.loads(text)
            except ValueError:
                return False
            toks = out.get("sequence", "").split()
            if policy != "seeded-random":
                if toks != checker.greedy_sequence(p, edges, order, policy):
                    return False
            elif not checker.is_greedy_run(p, edges, order, toks):
                return False
            return out == {
                "graph": arg(spec), "order": order, "policy": policy, "seed": seed_arg,
                "sequence": " ".join(toks), "short": checker.short_form(toks, hub_zero),
                "cost": checker.total_cost(edges, toks),
            }

        add(argv, 0, greedy_ok, spec)

    # family-table: 6
    table_max = {"path": 3, "star": 2, "cycle": 3, "based-path": 3, "based-star": 2}
    for i in range(6):
        kind = rng.choice(sorted(table_max))
        top = rng.randint(2, table_max[kind])
        rows = []
        for n in range(1, top + 1):
            base_kind = kind.split("-")[-1]
            p, edges = spec_graph((base_kind, n))
            tables = checker.SubsetTables(p, edges)
            value = str(tables.based_counts()[0] if kind.startswith("based") else tables.total_count())
            routes = ("dp", "formula", "oracle") + (() if kind.startswith("based") else ("recursion",))
            rows.append({"n": n, "counts": {r: value for r in routes}, "agree": True})
        subsets = sum(2 ** spec_graph((kind.split("-")[-1], n))[0] for n in range(1, top + 1))
        if i % 2:
            columns = sorted(rows[0]["counts"])
            csv = [",".join(["n", *columns, "agree"])]
            csv += [",".join([str(r["n"]), *(r["counts"][c] for c in columns), "true"]) for r in rows]
            add(["family-table", kind, "--max", top, "--format", "csv"], 0, "\n".join(csv) + "\n",
                subsets=subsets)
        else:
            add(["family-table", kind, "--max", top, "--format", "json"], 0,
                _json_is({"kind": kind, "rows": rows}), subsets=subsets)

    # xi: 4
    xi_families = ["trees:4", "graphs:4:1", "graphs:4:2", "graphs:4:3"]
    for i, label in enumerate(rng.sample(xi_families, 4)):
        members = list(references.family_members(label))
        counts = [checker.SubsetTables(p, edges).total_count() for p, edges in members]
        alpha = refs["family_average"][label]
        entries = [{"id": j, "c": str(c), "xi": _rational(Fraction(c) / alpha)} for j, c in enumerate(counts)]
        subsets = sum(2**p for p, _ in members)
        if i % 2:
            lines = [f"family {label} size {len(counts)} alpha {_rational(alpha)}"]
            lines += [f"{e['id']:>6}  c={e['c']}  xi={e['xi']}" for e in entries]
            add(["xi", label, "--format", "plain"], 0, "\n".join(lines) + "\n", subsets=subsets)
        else:
            add(["xi", label], 0, _json_is(
                {"family": label, "size": str(len(counts)), "alpha": _rational(alpha), "graphs": entries}),
                subsets=subsets)

    # check-conjecture: 10
    policies = ["exhaustive"] * 4 + ["lexicographic", "cycle-avoiding", "seeded-random"] * 2
    for spec, policy in zip(rng.sample(seven * 5, 10), rng.sample(policies, 10)):
        p, edges = spec_graph(spec)
        mc = checker.SubsetTables(p, edges).min_cost()
        seed_arg = rng.randint(0, 9)
        if policy == "exhaustive":
            label, num_greedy, missing = "exhaustive", mc.num_greedy, 0
        else:
            label = f"{policy} (seed {seed_arg})"
            num_greedy, missing = math.factorial(p), mc.num_optimal - mc.num_optimal_orders

        def conj_ok(text, spec=spec, label=label, mc=mc, num_greedy=num_greedy, missing=missing):
            try:
                out = json.loads(text)
            except ValueError:
                return False
            return (
                out.get("graph") == arg(spec) and out.get("policy") == label
                and out.get("holds") == (missing == 0)
                and out.get("num_min_cost") == str(mc.num_optimal)
                and out.get("num_greedy") == str(num_greedy)
                and len(out.get("counterexamples", [None])) == missing
            )

        add(["check-conjecture", arg(spec), "--tie-break", policy, "--seed", seed_arg], 0, conj_ok, spec)

    # deliberately bad requests: 20
    for i in range(4):
        spec = rng.choice([s for s in all_specs if spec_graph(s)[1]])
        p, edges = spec_graph(spec)
        toks = _random_sequence(rng, p, edges)
        j = rng.randrange(len(edges))
        e_pos = toks.index(f"e{j + 1}")
        v_pos = max(toks.index(f"v{v}") for v in edges[j])
        toks[e_pos], toks[v_pos] = toks[v_pos], toks[e_pos]  # edge now precedes an endpoint
        seq = " ".join(toks)
        n_bad = checker.violation_count(p, edges, toks)

        def invalid_ok(text, spec=spec, seq=seq, n_bad=n_bad):
            try:
                out = json.loads(text)
            except ValueError:
                return False
            return (out.get("graph"), out.get("sequence"), out.get("valid"), len(out.get("violations", []))) == (
                arg(spec), seq, False, n_bad)

        if i % 2:
            add(["validate", arg(spec), seq, "--format", "plain"], 1, "invalid\n", spec, bad=True)
        else:
            add(["validate", arg(spec), seq], 1, invalid_ok, spec, bad=True)
    for _ in range(3):
        spec = rng.choice([s for s in all_specs if spec_graph(s)[1]])
        p, edges = spec_graph(spec)
        toks = _random_sequence(rng, p, edges)
        toks.pop(rng.randrange(len(toks)))  # not a permutation any more
        add(["cost", arg(spec), " ".join(toks)], 1, "", spec, bad=True)
    usage = [
        ["count"],
        ["frobnicate", "family:path:3"],
        ["count", "family:path:3", "--route", "sideways"],
        ["xi", "trees:x"],
        ["family-table", "bogus", "--max", "3"],
        ["count", "family:union(path:2,path:2)", "--route", "formula"],
    ]
    for argv in rng.sample(usage, 5):
        add(argv, 2, "", bad=True)
    over_limit = [
        ["count", "family:complete:600"],
        ["enumerate", f"family:path:{rng.randint(7, 9)}"],
        ["optimize", f"family:path:{rng.randint(23, 40)}"],
        ["count", f"family:star:{rng.randint(6, 30)}", "--route", "oracle"],
        ["check-conjecture", f"family:cycle:{rng.randint(6, 9)}"],
        ["count", f"family:path:{rng.randint(25, 60)}"],
    ]
    for argv in over_limit:
        add(argv, 3, "", bad=True)
    add(["count", "family:nope:3"], 1, "", bad=True)
    add(["count", f"family:{rng.choice(['path', 'star', 'cycle'])}:0"], 1, "", bad=True)

    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "dp-large": dp_large,
    "family-sweep": family_sweep,
    "cli-small": cli_small,
    "poset-extensions": poset_extensions,
}
