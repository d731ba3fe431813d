"""The benchmark tracer's lookup table must keep resolving.

``bench/tracer.py`` wraps package functions at the module attributes
listed in its ``TARGETS`` table; a missing attribute makes every traced
benchmark run fail. The table is read from the source without running
it, so a refactor that drops one of those names fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    return ast.literal_eval(value)


@pytest.mark.parametrize("module, attr, layer", _targets())
def test_target_resolves(module, attr, layer):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
