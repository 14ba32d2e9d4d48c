"""The benchmark's contract with the program.

``perfbench/`` wraps layer functions by module and name, and reads keys
of a built world. A rename or removal here would not fail any other
test, only a traced benchmark run; these tests fail first.
"""
import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: World keys perfbench/workloads.py reads from a world built without
#: the streaming ingest.
WORLD_KEYS = (
    "landing_dir", "n_landed", "readings_pdf", "receptions_pdf",
    "faults", "points", "uplinks",
)


def _wrapped() -> dict:
    """``spans.WRAPPED``, read from the source without importing it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    (node,) = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["WRAPPED"]
    ]
    return ast.literal_eval(node.value)


def test_wrapped_functions_resolve():
    missing = [
        f"{mod_name}.{fn}"
        for mod_name, fns in _wrapped().items()
        for fn in fns
        if not callable(getattr(importlib.import_module(mod_name), fn, None))
    ]
    assert not missing, f"perfbench wraps functions that do not exist: {missing}"


def test_world_has_keys_workloads_read(world):
    source = (PERFBENCH / "workloads.py").read_text()
    assert all(f"w.{k}" in source for k in WORLD_KEYS)  # the list is current
    assert [k for k in WORLD_KEYS if k not in world] == []


def _repro_calls() -> list:
    """``(call text, function, n_positional, keyword names)`` for every
    ``<m>.<fn>(...)`` in ``workloads.py`` where ``<m>`` is a module it
    imports from ``repro``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro"
        for alias in node.names
    }
    return [
        (
            ast.unparse(call),
            getattr(importlib.import_module(modules[call.func.value.id]), call.func.attr),
            len(call.args),
            [k.arg for k in call.keywords],
        )
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in modules
    ]


def test_analytics_calls_bind():
    calls = _repro_calls()
    assert any(text.startswith("density.sweep(") for text, *_ in calls)  # the parse is current
    unbound = []
    for text, fn, n_args, kwargs in calls:
        try:
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(kwargs))
        except TypeError as e:
            unbound.append(f"{text}: {e}")
    assert not unbound, f"perfbench calls the program with arguments it no longer takes: {unbound}"
