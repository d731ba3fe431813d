"""Every name a package module imports is used, exported or marked.

A refactor that stops calling an imported function should drop the
import too. The check reads each module of ``src/paulibridge`` with
``ast``: an imported name must be read somewhere in its module, be
listed in its ``__all__``, or carry ``# noqa: F401`` on its line, which
marks the names kept only for the benchmark tracer to wrap.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "paulibridge"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            # "import scipy.linalg" binds "scipy"
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name not in exported and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from os import path, sep  # noqa: F401\nimport json\nimport math\n__all__ = ['math']\n"
    assert unused_imports(source) == ["line 2: json"]
