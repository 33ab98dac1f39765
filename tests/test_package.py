"""The package republishes the public names of its modules, each once,
and has every name the benchmark's tracer rebinds or calls."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import buildseq
from buildseq import counting, errors, families, graphs, optimize, posets, sequences

MODULES = (errors, graphs, posets, sequences, counting, optimize, families)


def test_each_public_name_is_declared_once():
    names = buildseq.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(buildseq, name) is getattr(module, name)


def test_the_limits_are_package_attributes():
    assert buildseq.DEFAULT_ELEMENT_LIMIT == 11
    assert buildseq.DEFAULT_GREEDY_VERTEX_LIMIT == 8
    assert buildseq.DEFAULT_DP_STATE_LIMIT == 1 << 24
    assert buildseq.DEFAULT_OPT_STATE_LIMIT == 1 << 22
    assert buildseq.DEFAULT_STATE_LIMIT == 1 << 18
    assert buildseq.MAX_FAMILY_SIZE == 1_000_000
    assert buildseq.POLICIES == ("lexicographic", "cycle-avoiding", "seeded-random")


def test_the_tracer_names_exist():
    # perfbench/run.py --trace 1 looks each of these up with getattr.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") in ("REBIND", "ENTRY_POINTS")
    }
    names = list(tables["REBIND"]) + [(module, name) for module, name, _ in tables["ENTRY_POINTS"].values()]
    assert tables.keys() == {"REBIND", "ENTRY_POINTS"} and all(tables.values())
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_the_cli_imports_neither_dataclasses_nor_inspect_nor_json():
    # -S: no site hook imports anything first.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import buildseq.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
