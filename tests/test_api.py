"""The public names, and the names the benchmark's tracer binds, all resolve;
importing the package pulls in no numpy submodule it does not use."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_import_leaves_numpy_polynomial_unloaded():
    # importing numpy.polynomial would add to import time and peak RSS, and
    # the planner computes its Gauss–Legendre rule without it
    src = str(Path(gapspline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, gapspline, gapspline.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
