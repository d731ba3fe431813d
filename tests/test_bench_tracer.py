"""The benchmark's lookups into the package must keep resolving.

``bench/tracer.py`` wraps package functions at the module attributes
listed in its ``TARGETS`` table, and ``bench/workloads.py`` calls the
package through a ``Session``'s module attributes, as in
``s.varopt.solve_ritz_lobpcg``; a missing attribute makes every
benchmark run that reaches it fail. Both are read from the source
without running it, so a refactor that drops one of those names fails
here.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


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


def _session_lookups():
    """``(module, attr)`` of every ``<name>.<session attribute>.<attr>`` chain in workloads.py, where
    ``Session.__init__`` binds each session attribute as ``self.<attribute> = <module>``."""
    tree = ast.parse(WORKLOADS.read_text())
    [init] = [
        node
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Session"
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    modules = {
        node.targets[0].attr: ast.unparse(node.value)
        for node in ast.walk(init)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute)
    }
    return sorted({
        (modules[node.value.attr], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name) and node.value.attr in modules
    })


def test_session_lookups_are_found():
    # the calls of the ritz workload and the in-process CLI entry point
    assert {("paulibridge.varopt", "solve_ritz_lobpcg"), ("paulibridge.mps", "ground_state_reference"),
            ("paulibridge.cli", "main")} <= set(_session_lookups())


@pytest.mark.parametrize("module, attr", _session_lookups())
def test_session_lookup_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
