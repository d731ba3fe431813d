"""Package code holds a Pauli sum, a bridge and a Prep table as arrays.

A ``PauliSum`` is packed ``rows`` and a ``coeffs`` vector, built only by
``PauliSum.from_rows``; there is no per-term object. So no module under
``src/paulibridge`` names ``PauliString`` or ``PauliTerm``, nor reads a
``.terms`` or ``.as_dict`` attribute off anything. Likewise a ``Bridge``
holds only ``pairs`` and ``coeffs``, and an ``LcuProgram`` only its Prep
``columns``; a mapping view such as the ``.entries`` that bridges once
held, and the row tuples ``.prep`` that programs once held, build one
object per pair, so no package comprehension iterates over them.
The checks read each module with ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "paulibridge"

TERM_CLASSES = ("PauliString", "PauliTerm")
TERM_ATTRIBUTES = ("terms", "as_dict")


def _name(node: ast.AST):
    """The name a node reads or binds: a name, an attribute, an import, a definition or a string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef)):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def term_objects(source: str) -> list[str]:
    """``line N: name`` for each use of the per-term form: a term class named, defined,
    imported or exported by string, or a ``terms`` / ``as_dict`` attribute read or defined."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = _name(node)
        if name in TERM_CLASSES or (name in TERM_ATTRIBUTES and isinstance(node, (ast.Attribute, ast.FunctionDef))):
            found.add((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_array_is_rebuilt_from_terms(path):
    # with no per-term object left, no array can be rebuilt from one
    assert term_objects(path.read_text()) == []


def test_check_flags_arrays_rebuilt_from_terms():
    # the import block and reconstruct of bridge.py as they were while both forms lived
    source = (
        "from paulibridge.pauli import (\n"
        "    IndexOutOfRange,\n"
        "    PauliString,\n"
        "    PauliSum,\n"
        ")\n"
        "def reconstruct(d):\n"
        "    labels = [d.left[a] + d.right[b] for a, b in d.bridge.pairs.tolist()]\n"
        "    return PauliSum(d.n_sites, list(zip(d.bridge.coeffs.tolist(), map(PauliString.from_label, labels))))\n"
        "norm = sum(abs(t.coeff) for t in op.terms)\n"
        "exact = reconstruct(d).as_dict() == op.as_dict()\n"
        "__all__ = ['PauliSum', 'PauliTerm']\n"
        "class PauliTerm:\n"
        "    def terms(self):\n"
        "        return pauli.PauliString\n"
        "def map_hamiltonian(terms, n):\n"
        "    rows = [t.indices for t in terms]\n"
        "    return PauliSum.from_rows(n, op.rows, op.coeffs, 'a PauliString in a sentence')\n"
    )
    assert term_objects(source) == [
        "line 3: PauliString", "line 8: PauliString", "line 9: terms", "line 10: as_dict",
        "line 11: PauliTerm", "line 12: PauliTerm", "line 13: terms", "line 14: PauliString",
    ]


def _over_attributes(arg: ast.AST, attrs) -> bool:
    """True when ``arg`` holds a comprehension that iterates over some attribute in ``attrs``."""
    return any(
        isinstance(part, ast.Attribute) and part.attr in attrs
        for node in ast.walk(arg)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for generator in node.generators
        for part in ast.walk(generator.iter)
    )


def comprehensions_over_tables(source: str) -> list[str]:
    """``line N`` for each comprehension that iterates over some ``.entries`` or ``.prep``."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        and _over_attributes(node, ("entries", "prep"))
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
