"""Every public name of the package has a caller outside the tests.

A top-level function or class of ``src/paulibridge`` whose name does not
start with ``_`` must be referenced by package code (any module, its own
included, beyond the definition itself), by ``scripts/``, or by
``bench/``, where the benchmark tracer's ``TARGETS`` name the functions
it wraps as strings. A name that only ``tests/`` reaches is deleted, not
kept; the reference oracles and paper API that the tests compare against
are the exceptions, each listed in ``ALLOWED`` with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paulibridge"

ALLOWED = {
    "select_factorized_dense": "the Phi . Select_L . Select_R oracle that select_dense is checked against",
    "mps_to_dense": "the dense reference for every MPS contraction test",
    "conditional_weights": "the sampler's chain-rule weights, checked by acceptance criterion 5",
    "bridge_svd": "paper API: the rank-r bridge factorization behind the Eckart-Young test",
    "set_bridge": "paper API: new coefficients on a fixed skeleton, for the select-hash tests",
    "success_probability": "paper API: the all-zeros ancilla probability of a block encoding",
    "expectation": "the dense <psi|op|psi> that the MPS string expectations are checked against",
    "overlap": "the MPS inner product that compression is checked with",
    "is_left_canonical_site": "the left-gauge condition, mirror of is_right_canonical_site",
}


def referenced(source: str, strings: bool = False) -> set[str]:
    """Names read, imported or reached as attributes; with ``strings``, string constants too."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def uncalled(package: dict[str, str], callers: set[str]) -> list[str]:
    """``module.name`` for each public top-level definition no package code or caller names."""
    used = callers.union(*(referenced(source) for source in package.values()))
    return [
        f"{module}.{node.name}"
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]


def package_uncalled() -> list[str]:
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = set().union(
        *(referenced(path.read_text()) for path in sorted((ROOT / "scripts").glob("*.py"))),
        *(referenced(path.read_text(), strings=True) for path in sorted((ROOT / "bench").glob("*.py"))),
    )
    return uncalled(package, callers)


def test_every_public_name_has_a_caller():
    assert [name for name in package_uncalled() if name.split(".")[1] not in ALLOWED] == []


def test_allowed_names_are_still_uncalled():
    # an allow-listed name that gains a caller leaves the list
    assert sorted(name.split(".")[1] for name in package_uncalled()) == sorted(ALLOWED)


def test_check_flags_a_function_only_tests_call():
    # tests/ is never among the callers, so a function only a test calls
    # is flagged; a script's call or a tracer string clears it
    package = {
        "core": "def used():\n    return helper()\n\ndef helper():\n    pass\n\ndef test_only():\n    pass\n",
        "other": "from pkg.core import used\n",
    }
    assert uncalled(package, set()) == ["core.test_only"]
    assert uncalled(package, referenced("import pkg\npkg.core.test_only()\n")) == []
    target = 'TARGETS = [("pkg.core", "test_only", "core")]\n'
    assert uncalled(package, referenced(target, strings=True)) == []
    assert uncalled(package, referenced(target)) == ["core.test_only"]
