"""Shared corpora for the test suite.

The random corpus is seeded so every run sees the same 200 graphs; sizes
stay within 9 elements so the permutation-filter oracle stays fast.
"""
from __future__ import annotations

import itertools
import random

import pytest

import buildseq as b


def make_random_graph(rng: random.Random, max_elements: int = 9) -> b.Graph:
    p = rng.randint(1, 6)
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    q_max = min(len(pairs), max_elements - p)
    q = rng.randint(0, q_max)
    return b.Graph(p, tuple(rng.sample(pairs, q)))


def conjecture_by_definition(
    g: b.Graph, tie_break: b.TieBreak | str = "exhaustive", element_limit: int = 11
) -> b.ConjectureReport:
    """The report check_conjecture must give, from the definitions: every
    minimizer from full enumeration, and the greedy outputs of every tie
    resolution or of every vertex order under one policy."""
    minimizers = b.enumerate_min_cost(g, element_limit=element_limit)
    if tie_break == "exhaustive":
        policy, reachable = "exhaustive", b.exhaustive_greedy_set(g, element_limit=element_limit)
    else:
        policy = f"{tie_break.policy} (seed {tie_break.seed})"
        reachable = b.greedy_all(g, tie_break)
    missed = tuple(x for x in minimizers if x not in reachable)
    return b.ConjectureReport(not missed, policy, len(minimizers), len(reachable), missed)


def named_family_graphs() -> dict[str, b.Graph]:
    graphs: dict[str, b.Graph] = {}
    for n in range(1, 6):
        graphs[f"path:{n}"] = b.build_family(f"path:{n}")
    for n in range(1, 5):
        graphs[f"star:{n}"] = b.build_family(f"star:{n}")
    for n in range(1, 5):
        graphs[f"cycle:{n}"] = b.build_family(f"cycle:{n}")
    graphs["complete:4"] = b.build_family("complete:4")
    return graphs


@pytest.fixture(scope="session")
def named_families() -> dict[str, b.Graph]:
    return named_family_graphs()


@pytest.fixture(scope="session")
def random_corpus() -> list[b.Graph]:
    rng = random.Random(20240)
    return [make_random_graph(rng) for _ in range(200)]
