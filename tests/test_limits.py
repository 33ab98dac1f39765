"""The limits registry: README's Limits table states every record, and each
record's first refused input fails at once with its exact message."""
import shlex
from pathlib import Path

import pytest

import buildseq
from buildseq import cli
from buildseq.errors import LIMITS, ResourceLimitError

README = Path(__file__).resolve().parents[1] / "README.md"

# Per record: the CLI exit code, or the exception a Python statement
# raises, and the exact message of its first refused input.
REFUSED = {
    "oracle": (3, "resource limit: 12 elements exceed the brute-force limit 10"),
    "enumerators": (3, "resource limit: 13 elements exceed the enumeration limit 11"),
    "greedy_all": (ResourceLimitError, "9 vertices exceed the greedy-all limit 8"),
    "count_dp": (3, "resource limit: count DP needs 2^25 vertex-subset states, over the limit 16777216; "
                    "raise max_states to continue"),
    "min_cost": (3, "resource limit: optimizer needs 2^23 vertex-subset states, over the limit 4194304; "
                    "raise max_states to continue"),
    "poset_sweep": (ResourceLimitError, "linear-extension sweep exceeded 262144 states; raise max_states to continue"),
    "bernoulli": (1, "error: supported range is 1 <= n <= 100, got 101"),
    "complete": (1, "error: supported range is 1 <= n <= 700, got 701"),
    "path_recursion": (1, "error: supported range is 1 <= n <= 350, got 351"),
    "star_recursion": (1, "error: supported range is 0 <= n <= 30000, got 30001"),
    "zigzag": (1, "error: supported range is 1 <= n_max <= 800, got 801"),
    "star_formula": (1, "error: supported range is 0 <= n <= 120000, got 120001"),
    "trees": (1, "error: supported range is 2 <= n <= 8, got 9"),
    "graphs_pq": (1, "error: supported range is 1 <= p <= 7, got 8"),
    "family_spec": (ValueError, "family spec needs 1000001 elements, over the guard 1000000"),
}


def readme_rows() -> dict[str, list[str]]:
    section = README.read_text().split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): [c.strip() for c in cells[1:]] for cells in rows}


def test_readme_table_states_every_record():
    rows = readme_rows()
    assert list(rows) == list(LIMITS)
    for name, limit in LIMITS.items():
        value, unit, kernel, admits, cost, raises = rows[name]
        assert (value, unit, kernel, admits) == (str(limit.value), limit.unit, limit.kernel, f"`{limit.admits}`")
        # A row over a second points to where its cap is to be re-sized.
        assert cost == f"{limit.seconds:g} s" + ("" if limit.seconds <= 1 else " (ROADMAP item 5)")
        assert raises == ("`ValueError`, 1" if limit.low is not None else "`ResourceLimitError`, 3")


@pytest.mark.parametrize("name", list(LIMITS))
def test_first_refused_input_fails_with_its_message(name, capsys):
    outcome, message = REFUSED[name]
    refused = LIMITS[name].refuses
    if refused.startswith("b."):
        with pytest.raises(outcome) as caught:
            exec(refused, {"b": buildseq})
        assert type(caught.value) is outcome and str(caught.value) == message
    else:
        assert cli.main(shlex.split(refused)) == outcome
        assert capsys.readouterr() == ("", message + "\n")


def test_every_record_has_a_refused_case():
    assert REFUSED.keys() == LIMITS.keys()


def test_check_passes_an_admitted_amount_through():
    assert LIMITS["oracle"].check(10) == 10
    assert LIMITS["oracle"].check(12, 12) == 12
    with pytest.raises(ResourceLimitError, match="^13 elements exceed the enumeration limit 12$"):
        LIMITS["enumerators"].check(13, 12)
    with pytest.raises(ValueError, match="^supported range is 1 <= n <= 350, got 0$"):
        LIMITS["path_recursion"].check(0)


KERNEL_LIMITS = {
    "count_dp": (buildseq.count_dp, "max_states"),
    "count_based": (lambda g, **k: buildseq.count_based(g, 1, **k), "max_states"),
    "min_cost": (buildseq.min_cost, "max_states"),
    "min_cost witnesses": (buildseq.min_cost, "max_witnesses"),
    "count_linear_extensions": (lambda g, **k: buildseq.count_linear_extensions(buildseq.incidence_poset(g), **k),
                                "max_states"),
    "count_bruteforce": (buildseq.count_bruteforce, "element_limit"),
    "enumerate_csequences": (lambda g, **k: list(buildseq.enumerate_csequences(g, **k)), "element_limit"),
}


@pytest.mark.parametrize("kernel", list(KERNEL_LIMITS))
def test_limit_keywords_are_integers(kernel):
    # A limit goes through operator.index before any work: a float or a str
    # is refused rather than compared, and True is the limit 1.
    run, keyword = KERNEL_LIMITS[kernel]
    g = buildseq.build_family("path:3")
    for bad in (1e9, 20.5, "64"):
        with pytest.raises(TypeError):
            run(g, **{keyword: bad})
    if keyword == "max_witnesses":
        assert len(run(g, max_witnesses=True).witnesses) == 1
    else:
        with pytest.raises(ResourceLimitError, match=r"(limit|exceeded) 1\b"):
            run(g, **{keyword: True})
