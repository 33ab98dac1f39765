"""No function in the package calls itself, directly or through other
functions, so no input depth can exhaust Python's recursion limit.

Calls are matched to definitions by name alone (``f(...)`` and
``obj.f(...)`` both match every ``def f``), which over-approximates the
call graph: a cycle found here may be spurious, but none is missed.
"""
import ast
from pathlib import Path

import buildseq


def call_graph() -> dict[str, set[str]]:
    calls: dict[str, set[str]] = {}
    for path in sorted(Path(buildseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = calls.setdefault(node.name, set())
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        func = sub.func
                        name = getattr(func, "id", None) or getattr(func, "attr", None)
                        if name:
                            called.add(name)
    return {name: called & calls.keys() for name, called in calls.items()}


def test_no_function_is_on_a_call_cycle():
    graph = call_graph()
    on_cycle = []
    for start in graph:
        stack, seen = list(graph[start]), set()
        while stack:
            name = stack.pop()
            if name == start:
                on_cycle.append(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(graph[name])
    assert on_cycle == []
