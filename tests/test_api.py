"""The public names, and the names the benchmark's tracer binds, all resolve."""

import ast
import importlib
from functools import reduce
from pathlib import Path

import gapspline

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> tuple:
    """TRACED's (module, attribute path, span name) rows, read from the source."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_public_name_resolves():
    missing = [name for name in gapspline.__all__ if not hasattr(gapspline, name)]
    assert missing == []
    assert len(set(gapspline.__all__)) == len(gapspline.__all__)


def test_every_traced_name_resolves():
    rows = _traced()
    assert rows
    for module, path, _ in rows:
        target = reduce(getattr, path.split("."), importlib.import_module(module))
        assert callable(target), (module, path)
