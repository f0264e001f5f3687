"""The benchmark's traced runs patch vnpair functions by name.

bench/tracing.py lists them in TARGETS and COUNTED; a name that no longer
resolves breaks ``bench/run.py --trace 1``. The lists are read from the
file's source, without importing the benchmark.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
