"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Layers  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result_of(capsys, argv, refs=None):
    code = run.main(argv, refs=refs)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_shows_every_metric(capsys, monkeypatch, workload):
    monkeypatch.setattr(run, "MIN_QUERIES", 3)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1"]
    code, result = result_of(capsys, argv + ["--trace", "0"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    code, result = result_of(capsys, argv + ["--trace", "1"])
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.unaccounted_pct"] < 5
    # one span per query at the layer each query enters: nothing wrapped twice
    entry = {"dp-large": "counting.count_dp", "family-sweep": "families.family_average",
             "cli-small": "cli.main", "poset-extensions": "posets.Poset"}[workload]
    assert metrics[f"{entry}.calls"] == metrics["input.queries"]


def test_untraced_layer_shows_as_unaccounted_query_time(capsys, monkeypatch):
    traced = tracing.Tracer.traced
    monkeypatch.setattr(tracing.Tracer, "traced", lambda self, name, fn: (
        fn if name == "posets.count_linear_extensions" else traced(self, name, fn)))
    argv = ["--workload", "poset-extensions", "--seed", "3", "--seconds", "0.1", "--trace", "1"]
    code, result = result_of(capsys, argv)
    assert code == 0 and result["metrics"]["trace.unaccounted_pct"]["value"] > 50


def test_speed_correction_follows_the_yardstick_around_each_mark():
    nominal = run.YARDSTICK_NOMINAL_S
    speed = run.Speed()
    speed.times = [nominal] * 20 + [2 * nominal] * 20  # the machine halves its speed
    assert speed.scale(1) == speed.scale(5) == 1
    assert speed.scale(35) == speed.scale(40) == 0.5


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs_and_answers(workload):
    refs = references.load()
    first, second = (workloads.WORKLOADS[workload](7, refs) for _ in range(2))
    assert [(q.label, q.elements, q.vertex_subsets, q.bad) for q in first] == [
        (q.label, q.elements, q.vertex_subsets, q.bad) for q in second]
    other = workloads.WORKLOADS[workload](8, refs)
    assert len(other) == len(first)
    layers = Layers()
    cheap = first[:8] if workload != "dp-large" else [q for q in first if q.elements < 20][:4]
    for q in cheap:
        twin = second[first.index(q)]
        answer = q.run(layers)
        assert answer == twin.run(layers)
        assert q.check(answer) and twin.check(answer)


def test_exact_counts_repeat_for_a_seed(capsys):
    argv = ["--workload", "cli-small", "--seed", "5", "--seconds", "0.1", "--trace", "1"]
    exact = ("input.", "cli.exit_code.", "counting.enumerate_csequences.items", "families.members")
    runs = []
    for _ in range(2):
        _, result = result_of(capsys, argv)
        runs.append({k: v["value"] for k, v in result["metrics"].items() if k.startswith(exact)})
    assert runs[0] == runs[1]
    assert runs[0]["cli.exit_code.3"] == 6 and runs[0]["input.queries"] == 105


def test_wrong_reference_value_is_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_QUERIES", 3)
    refs = references.load()
    refs["family_average"]["trees:5"] += Fraction(1, 25)
    argv = ["--workload", "family-sweep", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    code, result = result_of(capsys, argv, refs=refs)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_pinned_references_match_their_independent_routes(capsys):
    assert references.main() == 0
