"""Benchmark for buildseq: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload dp-large --seed 1 --seconds 20 --trace 0

Both modes first run one untimed warm-up pass over the workload's queries.
With ``--trace 0`` the run then prints the end-to-end metrics: a closed
loop with one caller sends the queries, in whole passes, until
``--seconds`` have passed and at least 100 queries have completed.  Every
query's wall time, including the collection of the garbage it left, is
one latency sample; throughput is the correctly answered queries over the
loop's wall time.  These times, and the set-up time, are corrected for
the machine's speed at the moment they were taken (see Speed).  With
``--trace 1`` it runs every query untraced, traced, and untraced again, and
prints the per-layer metrics.  Every answer is
checked; the last line of stdout is one JSON object, and the exit code is
1 if any answer was wrong.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 6
IMPORT_REPEATS = 5
MIN_QUERIES = 100
# Machine-speed correction (see Speed): the yardstick's time on an
# otherwise idle core of the reference machine, how many of its times
# around a measurement the correction takes the median of, and how often
# it runs between queries.
YARDSTICK_NOMINAL_S = 0.00025
YARDSTICK_WINDOW = 11
YARDSTICK_GAP_S = 0.02
MODULES = (
    "buildseq", "buildseq.errors", "buildseq.posets", "buildseq.graphs", "buildseq.sequences",
    "buildseq.counting", "buildseq.optimize", "buildseq.families", "buildseq.cli",
)
END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    from tracing import LAYERS

    units: dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.busy_s": "s", f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count", f"{layer}.errors_unexpected": "count"})
    units.update({
        "counting.enumerate_csequences.items": "count",
        "counting.enumerate_csequences.us_per_item": "us",
        "families.members": "count",
        "families.us_per_member": "us",
        "cli.stdout_bytes": "B",
        **{f"cli.exit_code.{code}": "count" for code in range(4)},
        "bench.query.self_s": "s",
        "bench.check.busy_s": "s",
        **{f"import.{module}_ms": "ms" for module in MODULES},
        "input.queries": "count",
        "input.elements": "count",
        "input.vertex_subsets": "count",
        "src.lines": "count",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_pct": "%",
        "trace.unaccounted_pct": "%",
        "trace.outside_spans_pct": "%",
        "trace.spans": "count",
    })
    return units


# ---------------------------------------------------------------------------
# Child interpreters: set-up time and import breakdown


def _child(extra: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *extra, "-c", "import buildseq.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
    )


def setup_times(repeats: int, speed: "Speed") -> list[tuple[float, int]]:
    """Wall times of fresh interpreters importing buildseq.cli, each with
    the yardstick mark it was taken at."""
    times = []
    for _ in range(repeats):
        mark = speed.tick(force=True)
        start = time.perf_counter()
        _child([])
        times.append((time.perf_counter() - start, mark))
        speed.tick(force=True)
    return times


def import_breakdown() -> dict[str, float]:
    """Median self time per buildseq module, in ms, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORT_REPEATS):
        for line in _child(["-X", "importtime"]).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[0].split(":")[1]) / 1000)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# Machine-speed correction


def yardstick() -> float:
    """Seconds one run of a fixed pure-Python task takes.  It shares no code
    with buildseq, so no change to the package moves it; only the speed at
    which this machine runs Python code does."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(2000):
        key = i * 7919 & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class Speed:
    """Scale factors from this machine's speed at a moment to the nominal one.

    The host shares its cores with other tenants, and a stretch of Python
    code runs up to twice as slow in some minutes as in others.  The
    yardstick runs between the measurements, and a time measured at a
    moment is multiplied by YARDSTICK_NOMINAL_S over the median of the
    YARDSTICK_WINDOW yardstick times nearest to it, which turns it into the
    time the same work takes at the nominal speed.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Time the yardstick, unless it ran less than YARDSTICK_GAP_S ago;
        return the number of yardstick times so far, which marks this moment."""
        if force or time.perf_counter() - self.last >= YARDSTICK_GAP_S:
            self.times.append(yardstick())
            self.last = time.perf_counter()
        return len(self.times)

    def finish(self) -> None:
        """Time the yardstick enough for the last marks to have a full window."""
        for _ in range(YARDSTICK_WINDOW // 2):
            self.tick(force=True)

    def scale(self, mark: int) -> float:
        half = YARDSTICK_WINDOW // 2
        lo = max(0, min(mark - half - 1, len(self.times) - YARDSTICK_WINDOW))
        return YARDSTICK_NOMINAL_S / statistics.median(self.times[lo:lo + YARDSTICK_WINDOW])


# ---------------------------------------------------------------------------
# Running queries


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, query, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{query.label}: {detail or 'wrong answer'}")


def untraced_pass(queries, tally: Tally) -> float:
    from tracing import Layers

    layers = Layers()
    start = time.perf_counter()
    for query in queries:
        _, answer, error = attempt(query, layers)
        tally.record(query, not error and query.check(answer), error)
    return time.perf_counter() - start


def attempt(query, layers) -> tuple[float, object, str]:
    """Run one query and collect the garbage it left, so that the query pays
    for its own reference cycles and the next one starts from a clean heap;
    (seconds, answer, error text or "")."""
    start = time.perf_counter()
    try:
        answer = query.run(layers)
    except Exception as exc:  # a crash is a failed query, not a failed run
        answer, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = ""
    gc.collect()
    return time.perf_counter() - start, answer, error


def warm_up(queries, tally: Tally) -> None:
    """One untimed pass, so that lazy set-up and first-call costs are paid
    before timing; then the inputs and everything the pass left alive are
    moved out of the collector's reach, so that a collection costs only the
    garbage of the query that made it."""
    untraced_pass(queries, tally)
    gc.collect()
    gc.freeze()


def measure(queries, layers, seconds: float, tally: Tally, speed: Speed):
    """Closed loop over the queries, in whole passes, until ``seconds`` have
    passed and at least MIN_QUERIES queries have completed.

    Returns the latency of every correctly answered query and the time of
    every query with its check, each with its yardstick mark, and the
    number of passes.  Whole passes give every query the same number of
    samples, so every run has the same cost mix.
    """
    latencies, steps = [], []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes * len(queries) < MIN_QUERIES or time.perf_counter() < deadline:
        for query in queries:
            mark = speed.tick()
            start = time.perf_counter()
            elapsed, answer, error = attempt(query, layers)
            ok = not error and query.check(answer)
            tally.record(query, ok, error)
            steps.append((time.perf_counter() - start, mark))
            if ok:
                latencies.append((elapsed, mark))
        passes += 1
    return latencies, steps, passes


def end_to_end(latencies: list[float], steps: list[float]) -> dict[str, float]:
    """Throughput over the loop's time without the yardstick runs, and
    latency percentiles in ms."""
    if len(latencies) < 2:  # nothing answered correctly: the run has failed
        return {"throughput_qps": 0.0, "latency_p50_ms": 0.0, "latency_p90_ms": 0.0}
    return {
        "throughput_qps": len(latencies) / sum(steps),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def traced_pass(queries, tally: Tally):
    from tracing import Tracer, instrumented
    from workloads import CliAnswer

    tracer = Tracer()
    cli = {"bytes": 0, "codes": [0, 0, 0, 0]}
    start = time.perf_counter()
    with instrumented(tracer) as layers:
        for i, query in enumerate(queries):
            tracer.query, tracer.expect_errors = i, query.bad
            with tracer.span("bench.query"):
                _, answer, error = attempt(query, layers)
            with tracer.span("bench.check"):
                ok = not error and query.check(answer)
            tally.record(query, ok, error)
            if isinstance(answer, CliAnswer):
                cli["bytes"] += len(answer.stdout.encode())
                if 0 <= answer.code < 4:
                    cli["codes"][answer.code] += 1
    return tracer, time.perf_counter() - start, cli


def layer_metrics(queries, tracer, traced_wall: float, untraced_wall: float, cli) -> dict[str, float]:
    from tracing import LAYERS, reduce

    red = reduce(tracer)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = red["busy_s"][layer]
        m[f"{layer}.self_s"] = red["self_s"][layer]
        m[f"{layer}.calls"] = red["calls"][layer]
        m[f"{layer}.errors"] = tracer.errors[layer, True]
        m[f"{layer}.errors_unexpected"] = tracer.errors[layer, False]
    items = tracer.items["counting.enumerate_csequences"]
    m["counting.enumerate_csequences.items"] = items
    m["counting.enumerate_csequences.us_per_item"] = (
        1e6 * red["busy_s"]["counting.enumerate_csequences"] / items if items else 0.0)
    m["families.members"] = red["members"]
    m["families.us_per_member"] = (
        1e6 * red["busy_s"]["families.family_average"] / red["members"] if red["members"] else 0.0)
    m["cli.stdout_bytes"] = cli["bytes"]
    for code in range(4):
        m[f"cli.exit_code.{code}"] = cli["codes"][code]
    m["bench.query.self_s"] = red["self_s"]["bench.query"]
    m["bench.check.busy_s"] = red["busy_s"]["bench.check"]
    m.update({f"import.{mod}_ms": ms for mod, ms in import_breakdown().items()})
    m["input.queries"] = len(queries)
    m["input.elements"] = sum(q.elements for q in queries)
    m["input.vertex_subsets"] = sum(q.vertex_subsets for q in queries)
    m["src.lines"] = src_lines()
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    # query time that no layer span covers: grows when a layer call goes untraced
    m["trace.unaccounted_pct"] = 100 * red["self_s"]["bench.query"] / red["busy_s"]["bench.query"]
    # traced wall time outside every span: the loop's own bookkeeping
    m["trace.outside_spans_pct"] = 100 * (1 - sum(red["self_s"].values()) / traced_wall)
    m["trace.spans"] = len(tracer.spans)
    return m


# ---------------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None, refs=None) -> int:
    if not (SRC / "buildseq" / "__init__.py").is_file():
        print(f"buildseq sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Layers
    import references
    from workloads import WORKLOADS

    args = parse_args(argv)
    refs = refs if refs is not None else references.load()
    tally = Tally()
    queries = WORKLOADS[args.workload](args.seed, refs)
    if args.trace == 0:
        # Set-up samples are taken before and after the loop, so that their
        # median does not hang on the few seconds in which one batch runs.
        speed = Speed()
        _child([])  # writes the bytecode cache, as any first use would
        setup = setup_times(SETUP_REPEATS, speed)
        warm_up(queries, tally)
        latencies, steps, passes = measure(queries, Layers(), args.seconds, tally, speed)
        setup += setup_times(SETUP_REPEATS, speed)
        speed.finish()

        def nominal(samples):
            return [seconds * speed.scale(mark) for seconds, mark in samples]

        metrics = {
            **end_to_end(nominal(latencies), nominal(steps)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(nominal(setup)),
        }
        units = END_TO_END
        as_measured = end_to_end([t for t, _ in latencies], [t for t, _ in steps])
        as_measured["setup_s"] = statistics.median(t for t, _ in setup)
        print(f"{args.workload}: latency percentiles over {len(latencies)} correctly answered queries"
              f" ({passes} passes over {len(queries)}); before the speed correction: "
              + ", ".join(f"{k} {v:.6g}" for k, v in as_measured.items()))
    else:
        warm_up(queries, tally)
        before = untraced_pass(queries, tally)
        tracer, traced_wall, cli = traced_pass(queries, tally)
        untraced_wall = (before + untraced_pass(queries, tally)) / 2
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(queries, tracer, traced_wall, untraced_wall, cli)
        units = per_layer_units()
        if metrics["trace.unaccounted_pct"] > 5:
            print(f"warning: no layer span covers {metrics['trace.unaccounted_pct']:.1f}% of the query time")
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
