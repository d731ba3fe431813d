"""Bulk consumers of a Pauli sum, a bridge or a Prep table read their arrays.

A ``PauliSum`` holds its strings as ``rows`` (the ``pack_strings`` layout)
and its coefficients as ``coeffs``; ``terms`` builds PauliTerm objects on
demand. Outside ``pauli.py``, which derives one view from the other,
package code must not call ``pack_strings`` on a comprehension over
``.terms``, nor build ``np.array`` from one: either rebuilds, one object
at a time, an array the sum already holds. Likewise a ``Bridge`` holds
only ``pairs`` and ``coeffs``, and an ``LcuProgram`` only its Prep
``columns``; the read-only ``.entries`` view (and the row tuples
``.prep`` that programs once held) build one object per pair, so no
package comprehension iterates over them.
The checks read each module with ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "paulibridge"


def _over_terms(arg: ast.AST, attrs=("terms",)) -> bool:
    """True when ``arg`` holds a comprehension that iterates over some ``.terms`` (or other ``attrs``)."""
    return any(
        isinstance(part, ast.Attribute) and part.attr in attrs
        for node in ast.walk(arg)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for generator in node.generators
        for part in ast.walk(generator.iter)
    )


def arrays_from_terms(source: str) -> list[str]:
    """``line N: name`` for each pack_strings or np.array call on a comprehension over ``.terms``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args and _over_terms(node.args[0])):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        numpy_array = name == "array" and getattr(getattr(func, "value", None), "id", None) in ("np", "numpy")
        if name == "pack_strings" or numpy_array:
            found.append((node.lineno, f"line {node.lineno}: {name}"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "pauli.py"), ids=lambda p: p.name
)
def test_no_array_is_rebuilt_from_terms(path):
    assert arrays_from_terms(path.read_text()) == []


def test_check_flags_arrays_rebuilt_from_terms():
    source = (
        "codes = site_codes(pack_strings((t.string for t in op.terms), n), n, sites)\n"
        "carried = np.array([[t.coeff for t in op.terms]], dtype=np.complex128)\n"
        "coeffs = numpy.array([term.coeff for term in sorted(op.terms)])\n"
        "rows = pauli.pack_strings([t.string for t in op.terms], n)\n"
        "pool = pack_strings(strings, n)\n"
        "norm = sum(abs(t.coeff) for t in op.terms)\n"
        "rows = np.array([t.indices for t in batch])\n"
    )
    assert arrays_from_terms(source) == [
        "line 1: pack_strings", "line 2: array", "line 3: array", "line 4: pack_strings",
    ]


def comprehensions_over_tables(source: str) -> list[str]:
    """``line N`` for each comprehension that iterates over some ``.entries`` or ``.prep``."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        and _over_terms(node, ("entries", "prep"))
    }
    return [f"line {n}" for n in sorted(lines)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_comprehension_reads_a_bridge_or_prep_table_by_rows(path):
    assert comprehensions_over_tables(path.read_text()) == []


def test_check_flags_comprehensions_over_tables():
    source = (
        "entries = {(a, b): complex(approx[a, b]) for (a, b) in d.bridge.entries}\n"
        "coeffs = np.array([d.bridge.entries[p] for p in sorted(d.bridge.entries)])\n"
        "total = sum(amp * amp for _, _, amp, _ in program.prep)\n"
        "pairs = [(a, b) for a, b, *_ in prog.prep]\n"
        "labels = [left[a] + right[b] for a, b in bridge.pairs.tolist()]\n"
        "rows = list(zip(program.columns.a.tolist(), program.columns.b.tolist()))\n"
        "value = d.bridge.entries[(0, 0)]\n"
    )
    assert comprehensions_over_tables(source) == ["line 1", "line 2", "line 3", "line 4"]
