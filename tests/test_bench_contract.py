"""The benchmark's traced runs patch vnpair functions by name, and its
workloads call them with positional and keyword arguments.

bench/tracing.py lists the patched names in TARGETS and COUNTED; a name
that no longer resolves breaks ``bench/run.py --trace 1``, and a call whose
arguments no longer bind breaks a workload. Both are read from the files'
source, without importing the benchmark.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _traced_names():
    tree = ast.parse(TRACING.read_text())
    lists = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                getattr(node.targets[0], "id", None) in ("TARGETS", "COUNTED"):
            lists[node.targets[0].id] = ast.literal_eval(node.value)
    return lists


@pytest.mark.skipif(not TRACING.exists(), reason="no bench/ next to the tests")
def test_every_traced_name_resolves():
    lists = _traced_names()
    assert set(lists) == {"TARGETS", "COUNTED"}
    entries = lists["TARGETS"] + lists["COUNTED"]
    assert entries
    for metric, module, cls, attr in entries:
        owner = importlib.import_module(f"vnpair.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert hasattr(owner, attr), metric


@pytest.mark.skipif(not TRACING.exists(), reason="no bench/ next to the tests")
def test_no_module_binds_a_traced_function_by_import():
    """The traced runs patch module attributes, so a name bound by
    ``from .module import f`` keeps the unwrapped f, and its time is booked
    as the caller's self time."""
    lists = _traced_names()
    traced = {(module, attr) for _, module, cls, attr in lists["TARGETS"] + lists["COUNTED"]
              if cls is None}
    package = pathlib.Path(importlib.import_module("vnpair").__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("vnpair.")
                bound = {(module, alias.name) for alias in node.names} & traced
                assert not bound, f"{path.stem} binds {sorted(bound)}"


def _vnpair_calls(tree):
    """(module, attribute path, positional count, keywords, line) of every
    call through a name bound by ``from vnpair import module [as name]``;
    the positional count is None when the call unpacks *args."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "vnpair"
               for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path, owner = [], node.func
        while isinstance(owner, ast.Attribute):
            path.insert(0, owner.attr)
            owner = owner.value
        if path and isinstance(owner, ast.Name) and owner.id in modules:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (modules[owner.id], path, None if starred else len(node.args),
                   [k.arg for k in node.keywords if k.arg is not None], node.lineno)


@pytest.mark.skipif(not TRACING.exists(), reason="no bench/ next to the tests")
def test_every_benchmark_call_still_binds():
    """A signature change fails here, not in the benchmark: every call the
    benchmark's files make through a vnpair module, such as
    ``corr.of_endomorphism(theta, right_commutant=bp)``, binds its
    positional count and keywords to the current signature."""
    seen = 0
    for path in sorted(BENCH.glob("*.py")):
        for module, attrs, positional, keywords, line in _vnpair_calls(
                ast.parse(path.read_text())):
            target = importlib.import_module(f"vnpair.{module}")
            for attr in attrs:
                target = getattr(target, attr)
            signature = inspect.signature(target)
            bind = signature.bind if positional is not None else signature.bind_partial
            try:
                bind(*[None] * (positional or 0), **dict.fromkeys(keywords))
            except TypeError as exc:
                raise AssertionError(f"{path.name}:{line} {module}.{'.'.join(attrs)}: "
                                     f"{exc}") from None
            seen += 1
    assert seen
