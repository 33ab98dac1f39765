"""Command-line front door.

Graphs are given either as a file path (text format: ``p q`` then one
``u w`` line per edge) or inline as ``family:<spec>``, e.g.
``family:path:6`` or ``family:union(path:2,star:3)``.  Sequences are quoted
token strings such as ``"v1 v2 e1 v3 e2"``.

JSON is the machine format; counts and other potentially large integers are
emitted as decimal strings, never as floats.  Exit codes: 0 success, 1
domain error (invalid graph or sequence, route disagreement), 2 usage
error, 3 resource limit.

``_COMMANDS`` is the one grammar.  A well-formed request is read straight
from it; argparse, imported only then, parses help, usage errors and any
request the reader is unsure of, so every help, usage and error byte is
argparse's.
"""
from __future__ import annotations

import functools
import math
import shutil
import sys
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from .counting import (
    DEFAULT_DP_STATE_LIMIT,
    DEFAULT_ELEMENT_LIMIT,
    complete_count,
    count_based,
    count_bruteforce,
    count_dp,
    enumerate_csequences,
    star_count,
    star_count_recursive,
    zigzag_numbers,
    _cycle_counts_bernoulli,
    _path_counts_bernoulli,
    _path_counts_recursive,
)
from .errors import LIMITS, IsolatedVertexError, ResourceLimitError
from .families import Family, _graphs_pq_pairs
from .graphs import Graph, _build, _check_base, _family_plan, build_family, parse_graph
from .optimize import (
    DEFAULT_OPT_STATE_LIMIT,
    POLICIES,
    TieBreak,
    check_conjecture,
    greedy,
    min_cost,
)
from .sequences import (
    CSeq,
    component_profile,
    edge_cost,
    format_sequence,
    parse_sequence,
    short_form,
    total_cost,
    validate,
    vertex_cost,
)

if TYPE_CHECKING:
    import argparse

FAMILY_PREFIX = "family:"


class UsageError(Exception):
    """Command-line misuse that argparse cannot catch itself."""


def load_graph(argument: str) -> Graph:
    """Resolve a graph argument: ``family:<spec>`` or a file path."""
    if argument.startswith(FAMILY_PREFIX):
        return build_family(argument[len(FAMILY_PREFIX) :])
    return parse_graph(Path(argument).read_text())


def _sized_graph(argument: str) -> tuple[int, int, tuple[str, int] | None, Callable[[], Graph]]:
    """(p, element count, (family, n) of a plain family spec, loader) of a
    graph argument.  A family spec is parsed once: its listed plan gives the
    size, so a command can check its limits before the loader builds the
    graph from the same plan; a file is read and parsed here."""
    if argument.startswith(FAMILY_PREFIX):
        plan = list(_family_plan(argument[len(FAMILY_PREFIX) :]))
        name, n, (p, q) = plan[-1]
        return p, p + q, (name, n) if len(plan) == 1 else None, lambda: _build(plan)
    g = load_graph(argument)
    return g.p, g.element_count, None, lambda: g


def _print_json(payload: dict) -> None:
    """Print ``payload`` as one line of JSON; ``json`` is imported on first use."""
    import json

    print(json.dumps(payload))


def _emit(payload: dict, fmt: str, plain: str) -> None:
    if fmt == "json":
        _print_json(payload)
    else:
        print(plain)


_BLOCK_BYTES = 2048  # 2^14 bits, about 4,900 digits


def _digits(n: int) -> str:
    """n >= 0 in decimal, however long: unlike str(int), Decimal's conversion
    does not stop at sys.get_int_max_str_digits().

    That conversion takes time quadratic in the length, so a number longer
    than one block is cut into 2^14-bit blocks, each block is converted on
    its own, and neighbours are joined pairwise as lo + hi * 2^w in exact
    decimal arithmetic, whose multiplication is subquadratic.
    """
    if n.bit_length() <= 8 * _BLOCK_BYTES:
        return format(Decimal(n), "f")
    data = n.to_bytes((n.bit_length() + 7) // 8, "little")
    blocks = [
        Decimal(int.from_bytes(data[i : i + _BLOCK_BYTES], "little"))
        for i in range(0, len(data), _BLOCK_BYTES)
    ]
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        weight = Decimal(1 << 8 * _BLOCK_BYTES)
        while len(blocks) > 1:
            if len(blocks) % 2:
                blocks.append(Decimal(0))
            blocks = [lo + hi * weight for lo, hi in zip(blocks[::2], blocks[1::2])]
            if len(blocks) > 1:
                weight *= weight
    return format(blocks[0], "f")


def _rational(value: Fraction) -> str:
    numerator = _digits(value.numerator)
    return numerator if value.denominator == 1 else f"{numerator}/{_digits(value.denominator)}"


# ---------------------------------------------------------------------------
# Subcommands


_Rows = Sequence[int] | dict[int, int]  # a route's values, indexed by n


def _one_row(value: Callable[[int], int]) -> Callable[[int], _Rows]:
    """A closed form as rows: its value at n and no other."""
    return lambda n: {n: value(n)}


# The count routes that exist only for plain family specs, by (family kind,
# base) and route name.  rows(n)[n] is the route's value at n.  A route built
# from every smaller size gives its whole column, so rows(n_max)[n] holds
# every n <= n_max and the cap is checked on n_max; a closed form gives
# {n: value}.  family-table keeps each route's last rows, so a table costs
# one column, not the sum of its rows.
_FAMILY_ROUTES: dict[tuple[str, int | None], dict[str, Callable[[int], _Rows]]] = {
    ("path", None): {"formula": _path_counts_bernoulli, "recursion": _path_counts_recursive},
    ("star", None): {"formula": _one_row(star_count), "recursion": _one_row(star_count_recursive)},
    ("cycle", None): {
        "formula": _cycle_counts_bernoulli,
        "recursion": lambda n: [k * f for k, f in enumerate(_path_counts_recursive(n))],
    },
    ("complete", None): {"formula": _one_row(complete_count)},
    ("path", 1): {"formula": lambda n: [0, *zigzag_numbers(n).secant]},
    ("star", 1): {  # exact: 2^n divides (2n)!
        "formula": _one_row(lambda n: math.factorial(2 * LIMITS["star_formula"].check(n)) >> n)
    },
}

# family-table kinds: "path" for ("path", None), "based-path" for ("path", 1).
_TABLE_KINDS = {
    kind if base is None else f"based-{kind}": (kind, base) for kind, base in _FAMILY_ROUTES
}
_ROUTES = ("dp", "oracle", "formula", "recursion", "all")
_ROUTE_SCOPE = {
    "formula": "family:path/star/cycle/complete graphs, with --base only to path or star --base 1",
    "recursion": "family:path/star/cycle graphs without --base",
}


def _count_values(
    argument: str,
    base: int | None,
    args: SimpleNamespace,
    kept: dict[str, _Rows],
) -> dict[str, int]:
    """The value of each count route run for ``--route``: every applicable
    one for "all", else the named one.

    dp always applies, the oracle up to ``--limit-elements`` elements, and
    a family route to a family spec whose (kind, base) has it.  A named
    route that does not apply is a usage error, except the oracle past its
    limit.  The limits are checked after that, on the argument's size, and
    only dp and the oracle build the graph.  A family route's value is its
    rows' entry at n, from ``kept`` unless the kept rows lack n.
    """
    p, size, plain, load = _sized_graph(argument)
    if base is not None:
        _check_base(base, p)
    kind, n = plain or ("", 0)
    family = _FAMILY_ROUTES.get((kind, base), {})
    if args.route == "all":
        names = ["dp", "oracle", *family] if size <= args.limit_elements else ["dp", *family]
    elif args.route in ("dp", "oracle") or args.route in family:
        names = [args.route]
    else:
        raise UsageError(f"route {args.route!r} applies only to {_ROUTE_SCOPE[args.route]}")
    if "dp" in names:
        LIMITS["count_dp"].check_subsets(p, args.limit_states)
    if "oracle" in names:
        LIMITS["oracle"].check(size, args.limit_elements)
    g = load() if {"dp", "oracle"} & set(names) else None
    values = {}
    for name in names:
        if name == "dp" and base is None:
            values[name] = count_dp(g, max_states=args.limit_states)
        elif name == "dp":
            values[name] = count_based(g, base, max_states=args.limit_states)
        elif name == "oracle":
            values[name] = count_bruteforce(g, base=base, element_limit=args.limit_elements)
        else:
            try:
                values[name] = kept[name][n]
            except LookupError:
                kept[name] = family[name](n)
                values[name] = kept[name][n]
    return values


def _cmd_count(args: SimpleNamespace) -> int:
    values = _count_values(args.graph, args.base, args, {})
    agree = len(set(values.values())) == 1
    payload = {
        "graph": args.graph,
        "counts": {name: _digits(v) for name, v in values.items()},
        "agree": agree,
    }
    if not agree:
        print(f"count routes disagree: {payload['counts']}", file=sys.stderr)
        _print_json(payload)
        return 1
    _emit(payload, args.format, next(iter(payload["counts"].values())))
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    _, size, _, load = _sized_graph(args.graph)
    LIMITS["enumerators"].check(size, args.limit_elements)
    sequences = (
        format_sequence(x.elements)
        for x in enumerate_csequences(load(), element_limit=args.limit_elements)
    )
    if args.format == "plain":  # streamed; JSON needs the count first
        sys.stdout.writelines(f"{line}\n" for line in sequences)
        return 0
    sequences = list(sequences)
    _print_json({"graph": args.graph, "count": str(len(sequences)), "sequences": sequences})
    return 0


def _cmd_validate(args: SimpleNamespace) -> int:
    g = load_graph(args.graph)
    elements = parse_sequence(args.sequence)
    problems = validate(g, elements)
    payload = {
        "graph": args.graph,
        "sequence": args.sequence,
        "valid": not problems,
        "violations": [str(v) for v in problems],
    }
    _emit(payload, args.format, "valid" if not problems else "invalid")
    if problems:
        for violation in problems:
            print(violation, file=sys.stderr)
        return 1
    return 0


def _cmd_cost(args: SimpleNamespace) -> int:
    g = load_graph(args.graph)
    x = CSeq(g, parse_sequence(args.sequence))
    per_edge = {f"e{j}": edge_cost(x, j) for j in range(1, g.q + 1)}
    profile = component_profile(x)
    try:
        vertex_total = _rational(vertex_cost(x))
    except IsolatedVertexError:
        vertex_total = None
    payload = {
        "graph": args.graph,
        "sequence": format_sequence(x.elements),
        "short": short_form(x.elements, hub_zero=args.hub_zero),
        "per_edge": per_edge,
        "total": sum(per_edge.values()),
        "vertex_cost": vertex_total,
        "components": list(profile.counts),
        "peak_components": profile.peak,
    }
    _emit(payload, args.format, str(payload["total"]))
    return 0


def _cmd_optimize(args: SimpleNamespace) -> int:
    p, _, _, load = _sized_graph(args.graph)
    LIMITS["min_cost"].check_subsets(p, args.limit_states)
    result = min_cost(load(), max_states=args.limit_states, max_witnesses=args.witnesses)
    payload = {
        "graph": args.graph,
        "min_cost": result.min_cost,
        "num_optimal": _digits(result.num_optimal),
        "witnesses": [format_sequence(x.elements) for x in result.witnesses],
    }
    _emit(payload, args.format, f"{result.min_cost} {payload['num_optimal']}")
    return 0


def _cmd_greedy(args: SimpleNamespace) -> int:
    g = load_graph(args.graph)
    order = None
    if args.order:
        order = tuple(int(tok) for tok in args.order.replace(",", " ").split())
    tie = TieBreak(args.tie_break, args.seed)
    x = greedy(g, order, tie)
    payload = {
        "graph": args.graph,
        "order": list(order) if order else list(range(1, g.p + 1)),
        "policy": args.tie_break,
        "seed": args.seed,
        "sequence": format_sequence(x.elements),
        "short": short_form(x.elements, hub_zero=args.hub_zero),
        "cost": total_cost(x),
    }
    _emit(payload, args.format, f"{payload['sequence']}  cost={payload['cost']}")
    return 0


def _cmd_family_table(args: SimpleNamespace) -> int:
    if args.kind not in _TABLE_KINDS:
        raise UsageError(f"kind must be one of {tuple(_TABLE_KINDS)}, got {args.kind!r}")
    if args.max < 1:
        raise UsageError(f"--max must be >= 1, got {args.max}")
    kind, base = _TABLE_KINDS[args.kind]
    kept: dict[str, _Rows] = {}  # per route, its last rows
    rows = []
    # Largest row first, so that a row's cap or limit stops the table at once.
    for n in range(args.max, 0, -1):
        values = _count_values(f"{FAMILY_PREFIX}{kind}:{n}", base, args, kept)
        # The oracle column, the only one that depends on size, comes last.
        names = sorted(values, key="oracle".__eq__)
        rows.append(
            {
                "n": n,
                "counts": {name: _digits(values[name]) for name in names},
                "agree": len(set(values.values())) == 1,
            }
        )
    rows.reverse()
    payload = {"kind": args.kind, "rows": rows}
    columns = sorted({name for row in rows for name in row["counts"]})
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        print(",".join(["n", *columns, "agree"]))
        for row in rows:
            cells = [str(row["n"])]
            cells += [row["counts"].get(c, "") for c in columns]
            cells.append(str(row["agree"]).lower())
            print(",".join(cells))
    else:
        widths = {
            c: max(len(c), *(len(row["counts"].get(c, "")) for row in rows)) for c in columns
        }
        header = "n".rjust(4) + "  " + "  ".join(c.rjust(widths[c]) for c in columns) + "  agree"
        print(header)
        for row in rows:
            cells = "  ".join(row["counts"].get(c, "").rjust(widths[c]) for c in columns)
            print(f"{row['n']:>4}  {cells}  {'ok' if row['agree'] else 'MISMATCH'}")
    if not all(row["agree"] for row in rows):
        print("family-table routes disagree", file=sys.stderr)
        return 1
    return 0


def _parse_family_argument(argument: str) -> Family:
    parts = argument.split(":")
    if parts[0] == "trees" and len(parts) == 2 and parts[1].isdecimal():
        return Family.trees(int(parts[1]))
    if parts[0] == "graphs" and len(parts) == 3 and parts[1].isdecimal() and parts[2].isdecimal():
        return Family.fixed_size(int(parts[1]), int(parts[2]))
    raise UsageError(f"family must be trees:<n> or graphs:<p>:<q>, got {argument!r}")


def _cmd_xi(args: SimpleNamespace) -> int:
    family = _parse_family_argument(args.family)
    counts = [(index, count_dp(member)) for index, member in enumerate(family)]
    total = sum(c for _, c in counts)
    if family.kind == "graphs":
        # The member sum and the walk are independent routes to one total.
        walk = _graphs_pq_pairs(*family.params)
        if walk != total:
            print(
                f"xi routes disagree: member sum {_digits(total)}, walk {_digits(walk)}",
                file=sys.stderr,
            )
            return 1
    size = len(counts)
    average = Fraction(total, size)
    entries = [
        {"id": index, "c": _digits(c), "xi": _rational(Fraction(c) / average)}
        for index, c in counts
    ]
    payload = {
        "family": family.label,
        "size": str(size),
        "alpha": _rational(average),
        "graphs": entries,
    }
    if args.format == "json":
        _print_json(payload)
    else:
        print(f"family {payload['family']} size {size} alpha {payload['alpha']}")
        for entry in entries:
            print(f"{entry['id']:>6}  c={entry['c']}  xi={entry['xi']}")
    return 0


def _cmd_check_conjecture(args: SimpleNamespace) -> int:
    p, size, _, load = _sized_graph(args.graph)
    LIMITS["enumerators"].check(size, args.limit_elements)
    tie: TieBreak | str
    if args.tie_break == "exhaustive":
        tie = "exhaustive"
    else:
        tie = TieBreak(args.tie_break, args.seed)
        LIMITS["greedy_all"].check(p)
    report = check_conjecture(load(), tie, element_limit=args.limit_elements)
    payload = {
        "graph": args.graph,
        "policy": report.policy,
        "holds": report.holds,
        "num_min_cost": _digits(report.num_min_cost),
        "num_greedy": _digits(report.num_greedy),
        "counterexamples": [format_sequence(x.elements) for x in report.counterexamples],
    }
    _emit(
        payload,
        args.format,
        "holds" if report.holds else f"counterexamples: {len(report.counterexamples)}",
    )
    return 0


# ---------------------------------------------------------------------------
# Parser

_GRAPH = ("graph", {})
_JSON = ("--format", {"choices": ("json", "plain"), "default": "json"})
_PLAIN = ("--format", {"choices": ("json", "plain"), "default": "plain"})
_ELEMENTS = ("--limit-elements", {"type": int, "default": DEFAULT_ELEMENT_LIMIT})
# count and family-table: only the oracle reads it, and its limit is lower.
_ORACLE = ("--limit-elements", {"type": int, "default": LIMITS["oracle"].value})
_STATES = ("--limit-states", {"type": int, "default": DEFAULT_DP_STATE_LIMIT})
_SEED = ("--seed", {"type": int, "default": 0})

# The subcommands as (name, help, handler, arguments), where each argument
# is the name and keywords of one add_argument call, in the order help lists.
# This table is the one grammar: _read reads a well-formed request straight
# from a command's row, and a command's own parser and its subparser in the
# full parser are built from the same row, so both print the same help,
# usage and errors.  An argument uses only the keywords _read reads: type
# (int), choices, default, required, help and action (store_true).
_COMMANDS = (
    ("count", "count construction sequences", _cmd_count, (
        _GRAPH,
        ("--route", {"choices": _ROUTES, "default": "dp"}),
        ("--base", {"type": int, "help": "count sequences starting at this vertex"}),
        _PLAIN, _ORACLE, _STATES,
    )),
    ("enumerate", "list every construction sequence", _cmd_enumerate, (_GRAPH, _PLAIN, _ELEMENTS)),
    ("validate", "check a candidate sequence", _cmd_validate, (_GRAPH, ("sequence", {}), _JSON)),
    ("cost", "cost report for a sequence", _cmd_cost, (
        _GRAPH,
        ("sequence", {}),
        ("--hub-zero", {"action": "store_true", "help": "display vertex labels shifted down by one"}),
        _JSON,
    )),
    ("optimize", "exact minimum cost and optimal count", _cmd_optimize, (
        _GRAPH,
        ("--witnesses", {"type": int, "default": 0, "help": "emit up to N minimum-cost sequences"}),
        _JSON,
        # The optimizer's table has a lower default limit than the count DP's.
        ("--limit-states", {"type": int, "default": DEFAULT_OPT_STATE_LIMIT}),
    )),
    ("greedy", "run the greedy builder", _cmd_greedy, (
        _GRAPH,
        ("--order", {"help": "vertex order, e.g. 2,1,3"}),
        ("--tie-break", {"choices": POLICIES, "default": "lexicographic"}),
        ("--hub-zero", {"action": "store_true"}),
        _JSON, _SEED,
    )),
    ("family-table", "counts per family size across routes", _cmd_family_table, (
        ("kind", {"help": " | ".join(_TABLE_KINDS)}),
        ("--max", {"type": int, "required": True}),
        ("--route", {"choices": _ROUTES, "default": "all"}),
        ("--format", {"choices": ("json", "csv", "plain"), "default": "plain"}),
        _ORACLE, _STATES,
    )),
    ("xi", "constructability over a family", _cmd_xi, (
        ("family", {"help": "trees:<n> or graphs:<p>:<q>"}),
        _JSON,
    )),
    ("check-conjecture", "do greedy runs reach every minimum-cost sequence?", _cmd_check_conjecture, (
        _GRAPH,
        ("--tie-break", {"choices": ("exhaustive", *POLICIES), "default": "exhaustive"}),
        _JSON, _ELEMENTS, _SEED,
    )),
)


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The request in ``argv`` read straight from its command's row of
    ``_COMMANDS``, or None unless every token is unambiguous: the first
    names a command, and each other one is an exact flag of that command
    or a positional that does not start with ``-``.  An option's value is
    present, does not start with ``-``, passes its ``type`` and is one of
    its ``choices``; a ``store_true`` flag takes none.  Every required
    option is given, and the positionals are exactly the row's.  argparse
    reads such a request alike, a repeated option's last value included.
    """
    row = next((row for row in _COMMANDS if argv and argv[0] == row[0]), None)
    if row is None:
        return None
    name, _, handler, arguments = row
    values, flags, positionals = {}, {}, []
    for flag, keywords in arguments:
        if flag.startswith("-"):
            dest = flag.lstrip("-").replace("-", "_")
            flags[flag] = dest, keywords
            values[dest] = keywords.get("default", False if "action" in keywords else None)
        else:
            positionals.append((flag, keywords))
    given, unread, tokens = set(), iter(positionals), iter(argv[1:])
    for token in tokens:
        if token in flags:
            dest, keywords = flags[token]
            if "action" in keywords:
                values[dest] = True
                continue
            token = next(tokens, "-")  # a missing value reads as a flag
        elif token.startswith("-"):
            return None
        else:
            dest, keywords = next(unread, (None, {}))
            if dest is None:
                return None
        if token.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(token)
        except ValueError:  # argparse words the error
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
        given.add(dest)
    required = {dest for dest, keywords in flags.values() if keywords.get("required")}
    if next(unread, None) is not None or not required <= given:
        return None
    return SimpleNamespace(**values, command=name, func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand's subparser.

    ``main`` builds it only for help, a missing or unknown command and
    arguments that the named command's own parser leaves over.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="buildseq",
        description="Count, enumerate, validate, and cost-optimize graph construction sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The request in ``argv``: read by :func:`_read` when it is well formed,
    else parsed by argparse, which is imported only then.

    argparse first tries the named command's own parser, which prints the
    same help, usage and errors as the command's subparser in the full
    parser and costs far less to build.  Only the full parser words the
    top-level errors, so it parses whatever the command's parser leaves
    over, and every request that names no command.  Every help, usage and
    error byte is argparse's.
    """
    args = _read(argv)
    if args is not None:
        return args
    import argparse

    for name, _, handler, arguments in _COMMANDS:
        if argv and argv[0] == name:
            # One terminal query for the whole parser, where the default
            # formatter queries the terminal once per argument added.
            parser = argparse.ArgumentParser(
                prog=f"buildseq {name}",
                formatter_class=functools.partial(
                    argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
                ),
            )
            for flag, options in arguments:
                parser.add_argument(flag, **options)
            args, extra = parser.parse_known_args(argv[1:])
            if not extra:
                return SimpleNamespace(**vars(args), command=name, func=handler)
    return SimpleNamespace(**vars(build_parser().parse_args(argv)))


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
