"""Spans around the benchmark's calls into each layer, and their reduction.

A span is ``[name, start, end, busy, parent, query]``.  ``busy`` is the
wall time the layer held the caller; it equals ``end - start`` except for
generators, whose busy time sums only the time spent inside ``next``.
Spans live in memory and are written out when the run ends.

In the traced run only, :func:`instrumented` rebinds the names that one
package module imports from another, so that spans nest inside
``cli.main`` and ``family_average``.  The untraced run rebinds nothing.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Layer spans, one per public function (or constructor) the benchmark times.
LAYERS = (
    "graphs.build_family",
    "graphs.incidence_poset",
    "posets.Poset",
    "posets.poset_from_hypergraph",
    "posets.poset_from_faces",
    "posets.count_linear_extensions",
    "counting.count_dp",
    "counting.count_based",
    "counting.count_bruteforce",
    "counting.enumerate_csequences",
    "optimize.min_cost",
    "optimize.check_conjecture",
    "optimize.greedy",
    "sequences.CSeq",
    "sequences.cost",
    "families.family_average",
    "cli.main",
)

# (module, attribute) -> layer, for the traced run's rebinding.
REBIND = {
    ("buildseq.cli", "build_family"): "graphs.build_family",
    ("buildseq.cli", "count_dp"): "counting.count_dp",
    ("buildseq.cli", "count_based"): "counting.count_based",
    ("buildseq.cli", "count_bruteforce"): "counting.count_bruteforce",
    ("buildseq.cli", "enumerate_csequences"): "counting.enumerate_csequences",
    ("buildseq.cli", "min_cost"): "optimize.min_cost",
    ("buildseq.cli", "greedy"): "optimize.greedy",
    ("buildseq.cli", "check_conjecture"): "optimize.check_conjecture",
    ("buildseq.cli", "CSeq"): "sequences.CSeq",
    ("buildseq.cli", "total_cost"): "sequences.cost",
    ("buildseq.cli", "edge_cost"): "sequences.cost",
    ("buildseq.cli", "component_profile"): "sequences.cost",
    ("buildseq.cli", "vertex_cost"): "sequences.cost",
    ("buildseq.counting", "CSeq"): "sequences.CSeq",
    ("buildseq.optimize", "CSeq"): "sequences.CSeq",
    ("buildseq.families", "count_dp"): "counting.count_dp",
    ("buildseq.graphs", "poset_from_hypergraph"): "posets.poset_from_hypergraph",
    ("buildseq.posets", "Poset"): "posets.Poset",
}
GENERATORS = {"counting.enumerate_csequences"}

# Attributes of the layer namespace the workloads call -> (module, name, layer).
ENTRY_POINTS = {
    "count_dp": ("buildseq.counting", "count_dp", "counting.count_dp"),
    "count_based": ("buildseq.counting", "count_based", "counting.count_based"),
    "min_cost": ("buildseq.optimize", "min_cost", "optimize.min_cost"),
    "family_average": ("buildseq.families", "family_average", "families.family_average"),
    "Poset": ("buildseq.posets", "Poset", "posets.Poset"),
    "incidence_poset": ("buildseq.graphs", "incidence_poset", "graphs.incidence_poset"),
    "poset_from_hypergraph": ("buildseq.posets", "poset_from_hypergraph", "posets.poset_from_hypergraph"),
    "poset_from_faces": ("buildseq.posets", "poset_from_faces", "posets.poset_from_faces"),
    "count_linear_extensions": ("buildseq.posets", "count_linear_extensions", "posets.count_linear_extensions"),
    "cli_main": ("buildseq.cli", "main", "cli.main"),
}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.expect_errors = False
        self.errors: Counter = Counter()  # (layer, expected) -> count
        self.items: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, 0.0, parent, self.query])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[3] = span[2] - span[1]
        self.stack.pop()

    def _error(self, name: str, exc: Exception) -> None:
        # Limits and undefined vertex costs are documented outcomes; anything
        # else is expected only inside a deliberately bad request.
        documented = type(exc).__name__ in ("ResourceLimitError", "IsolatedVertexError")
        self.errors[name, self.expect_errors or documented] += 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                self._close(idx)

        return traced

    def wrap_iter(self, name: str, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            idx = self._open(name)
            self.stack.pop()
            busy = 0.0
            try:
                while True:
                    self.stack.append(idx)
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except Exception as exc:
                        self._error(name, exc)
                        raise
                    finally:
                        busy += time.perf_counter() - start
                        self.stack.pop()
                    self.items[name] += 1
                    yield item
            finally:
                span = self.spans[idx]
                span[2] = time.perf_counter()
                span[3] = busy

        return traced

    def traced(self, name: str, fn):
        return self.wrap_iter(name, fn) if name in GENERATORS else self.wrap(name, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, busy, parent, query in self.spans:
                out.write(json.dumps(
                    [name, round(start - self.origin, 9), round(end - self.origin, 9),
                     round(busy, 9), parent, query]
                ) + "\n")


class Layers:
    """The package functions the workloads call, traced or not."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        for attr, (module, name, layer) in ENTRY_POINTS.items():
            fn = getattr(importlib.import_module(module), name)
            setattr(self, attr, tracer.traced(layer, fn) if tracer else fn)


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind cross-module imports to traced wrappers; restore on exit."""
    layers = Layers(tracer)  # before rebinding, so no call is wrapped twice
    saved = []
    try:
        for (module_name, attr), layer in REBIND.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.traced(layer, original))
        yield layers
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def reduce(tracer: Tracer) -> dict:
    """Busy time, self time and call count per span name, plus family
    members (count_dp spans directly inside family_average)."""
    spans = tracer.spans
    child_busy = [0.0] * len(spans)
    for name, _, _, busy, parent, _ in spans:
        if parent >= 0:
            child_busy[parent] += busy
    busy_s: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    members = 0
    for idx, (name, _, _, busy, parent, _) in enumerate(spans):
        busy_s[name] += busy
        self_s[name] += busy - child_busy[idx]
        calls[name] += 1
        if name == "counting.count_dp" and parent >= 0 and spans[parent][0] == "families.family_average":
            members += 1
    return {"busy_s": busy_s, "self_s": self_s, "calls": calls, "members": members}
