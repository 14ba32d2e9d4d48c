"""The benchmark's contract with the program.

``perfbench/`` wraps layer functions by module and name, and reads keys
of a built world; ``jobs/`` and ``benchmarks/`` call the program too. A
rename or removal here would not fail any other test, only a traced
benchmark run or an entry point the tests never run; these tests fail
first.
"""
import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

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


def _resolve(module: str, name: str):
    """What ``from <module> import <name>`` binds: a submodule or an attribute."""
    mod = importlib.import_module(module)
    return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")


def _repro_calls(path: Path) -> list:
    """``(call text, function, n_positional, keyword names)`` for every
    call in ``path`` to a function it imports from ``repro``: bare
    ``<fn>(...)`` and ``<m>.<fn>(...)`` where ``<m>`` is a ``repro``
    module. Imports inside function bodies count too."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name: _resolve(node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro"
        for alias in node.names
    }
    calls = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and callable(imported.get(func.id)):
            fn = imported[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and inspect.ismodule(imported.get(func.value.id))
        ):
            fn = getattr(imported[func.value.id], func.attr, None)
        else:
            continue
        calls.append((ast.unparse(call), fn, len(call.args), [k.arg for k in call.keywords]))
    return calls


def _unbound(calls: list) -> list:
    unbound = []
    for text, fn, n_args, kwargs in calls:
        if fn is None:
            unbound.append(f"{text}: no such function")
            continue
        try:
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(kwargs))
        except TypeError as e:
            unbound.append(f"{text}: {e}")
    return unbound


def test_analytics_calls_bind():
    calls = _repro_calls(PERFBENCH / "workloads.py")
    assert any(text.startswith("density.sweep(") for text, *_ in calls)  # the parse is current
    unbound = _unbound(calls)
    assert not unbound, f"perfbench calls the program with arguments it no longer takes: {unbound}"


def test_job_and_benchmark_calls_bind():
    """The spark-submit jobs and pytest-benchmark modules, which tier-1 never runs."""
    files = sorted((ROOT / "jobs").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    calls = {f.relative_to(ROOT).as_posix(): _repro_calls(f) for f in files}
    assert any(text.startswith("build_world(") for text, *_ in calls["jobs/e4_pipeline.py"])
    assert any(text.startswith("store.read(") for text, *_ in calls["benchmarks/bench_e4_pipeline.py"])
    unbound = [u for file_calls in calls.values() for u in _unbound(file_calls)]
    assert not unbound, f"a job or benchmark calls the program with arguments it no longer takes: {unbound}"
