"""Every public name of the package has a caller outside the tests.

Three kinds of surface of ``src/paulibridge`` are checked against package
code (any module, its own included, beyond the definition itself),
``scripts/`` and ``bench/``, where the benchmark tracer's ``TARGETS`` name
the functions it wraps as strings:

- a top-level function or class whose name does not start with ``_`` must
  be named;
- a public method, property or class-level field of such a class must be
  read as an attribute (``x.name`` in load context) or named by a
  ``bench/`` string;
- a parameter with a default of a public function or method must be
  passed by some call, by keyword or by position; a call through a
  ``functools.partial`` alias counts for the function it wraps.

Surface that only ``tests/`` reaches is deleted, not kept; the reference
oracles and paper API that the tests compare against are the exceptions,
each listed in ``ALLOWED`` with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paulibridge"

ALLOWED = {
    "set_bridge": "paper API: a new coefficient column on the same pairs, for the select-hash tests",
    "success_probability": "paper API: the all-zeros ancilla probability of a block encoding",
    "RitzSolution.coefficients": "the optimized pool weights that ROADMAP item 13 carries into the LCU",
    "solve_ritz_lobpcg(n_roots)": "the benchmark pins this solver; ROADMAP item 2 deletes it",
    "solve_ritz_lobpcg(tol)": "the benchmark pins this solver; ROADMAP item 2 deletes it",
    "solve_ritz_lobpcg(max_iter)": "the benchmark pins this solver; ROADMAP item 2 deletes it",
}


def _callee(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


class Uses:
    """What a set of sources reaches.

    ``names``: names read, imported or reached as attributes; ``attributes``:
    attributes read in load context; ``passed``: per callee name, the
    positional indices and keywords its calls pass, with ``"*"`` and
    ``"**"`` for unpacked arguments. With ``strings``, a source's string
    constants count as names and attributes.
    """

    def __init__(self):
        self.names, self.attributes, self.passed = set(), set(), defaultdict(set)

    def add(self, source: str, strings: bool = False) -> None:
        tree = ast.parse(source)
        # name = partial(f, a, ...): a call of name is a call of f, its positions after the partial's
        aliases = {
            target.id: (_callee(node.value.args[0]), len(node.value.args) - 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and _callee(node.value.func) == "partial" and node.value.args
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    self.attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                self.names.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.names.add(node.value)
                self.attributes.add(node.value)
            elif isinstance(node, ast.Call):
                name, args, offset = _callee(node.func), node.args, 0
                if name == "partial" and args:  # partial(f, a, k=v) passes a and k to f
                    name, args = _callee(args[0]), args[1:]
                elif name in aliases:
                    name, offset = aliases[name]
                keys = self.passed[name]
                keys.update(range(offset, offset + len(args)))
                keys.update("*" for arg in args if isinstance(arg, ast.Starred))
                keys.update(keyword.arg or "**" for keyword in node.keywords)


def _defaults(function: ast.FunctionDef, method: bool):
    """``(name, position)`` of each parameter with a default; position is None for a keyword-only one."""
    positional = function.args.posonlyargs + function.args.args
    static = any(_callee(d) == "staticmethod" for d in function.decorator_list)
    first = int(method and not static)  # self or cls is never passed
    plain = len(positional) - len(function.args.defaults)
    for position, arg in enumerate(positional[plain:], plain - first):
        yield arg.arg, position
    for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _unpassed(qualname: str, function: ast.FunctionDef, method: bool, uses: Uses) -> list[str]:
    keys = uses.passed.get(function.name, set())
    return [
        f"{qualname}({name})"
        for name, position in _defaults(function, method)
        if name not in keys and "**" not in keys
        and (position is None or (position not in keys and "*" not in keys))
    ]


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_surface(source: str) -> list[tuple[ast.AST, list[tuple[str, ast.AST]]]]:
    """Each public top-level function or class of ``source`` with its public members.

    A member is ``(name, node)``: a method with its ``FunctionDef``, or a
    class-level field with its assignment.
    """
    out = []
    for node in ast.parse(source).body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name)):
            continue
        members = []
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(item, ast.FunctionDef):
                members.append((item.name, item))
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                members += [(target.id, item) for target in targets if isinstance(target, ast.Name)]
        out.append((node, [(name, item) for name, item in members if _public(name)]))
    return out


def uncalled(package: dict[str, str], callers: list[tuple[str, bool]]) -> list[str]:
    """Each piece of public surface of ``package`` that neither it nor ``callers`` reach.

    ``callers`` holds ``(source, strings)`` pairs; ``strings`` lets the
    source's string constants count as names. Returns ``module.name``,
    ``module.Class.member`` and ``module.function(parameter)`` entries.
    """
    uses = Uses()
    for source in package.values():
        uses.add(source)
    for source, strings in callers:
        uses.add(source, strings)
    out = []
    for module, source in package.items():
        for node, members in public_surface(source):
            out += [f"{module}.{node.name}"] * (node.name not in uses.names)
            if isinstance(node, ast.FunctionDef):
                out += _unpassed(f"{module}.{node.name}", node, False, uses)
            for name, item in members:
                qualname = f"{module}.{node.name}.{name}"
                if isinstance(item, ast.FunctionDef):
                    out += _unpassed(qualname, item, True, uses)
                out += [qualname] * (name not in uses.attributes)
    return out


def package_uncalled() -> list[str]:
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = [(path.read_text(), False) for path in sorted((ROOT / "scripts").glob("*.py"))]
    callers += [(path.read_text(), True) for path in sorted((ROOT / "bench").glob("*.py"))]
    return uncalled(package, callers)


def exemption(flagged: str) -> str | None:
    """The ALLOWED entry that covers an ``uncalled`` entry, if any.

    An entry is named without its module; an allowed name also covers its
    class's members or its function's parameters."""
    name = flagged.split(".", 1)[1]
    return next((a for a in ALLOWED if name == a or name.startswith((a + ".", a + "("))), None)


def test_every_public_name_has_a_caller():
    assert [name for name in package_uncalled() if exemption(name) is None] == []


def test_allowed_names_are_still_uncalled():
    # an allow-listed name that gains a caller leaves the list
    assert set(map(exemption, package_uncalled())) - {None} == set(ALLOWED)


def test_check_flags_a_function_only_tests_call():
    # tests/ is never among the callers, so a function only a test calls
    # is flagged; a script's call or a tracer string clears it
    package = {
        "core": "def used():\n    return helper()\n\ndef helper():\n    pass\n\ndef test_only():\n    pass\n",
        "other": "from pkg.core import used\n",
    }
    assert uncalled(package, []) == ["core.test_only"]
    assert uncalled(package, [("import pkg\npkg.core.test_only()\n", False)]) == []
    target = 'TARGETS = [("pkg.core", "test_only", "core")]\n'
    assert uncalled(package, [(target, True)]) == []
    assert uncalled(package, [(target, False)]) == ["core.test_only"]


def test_check_flags_members_and_parameters_only_tests_use():
    # a method, a property, a dataclass field and a defaulted parameter
    # that no caller reads or passes; writing a field is not reading it
    package = {"core": (
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Result:\n    value: float\n    extra: float = 0.0\n\n"
        "    def method(self, scale=1.0):\n        return self.value * scale\n\n"
        "    @property\n    def prop(self):\n        return 1\n\n"
        "def run(x, fast=False, *, limit=None):\n    r = Result(x)\n    r.extra = 2.0\n    return r\n"
    )}
    script = "from pkg.core import run\nprint(run(1).value)\n"
    assert sorted(uncalled(package, [(script, False)])) == [
        "core.Result.extra", "core.Result.method", "core.Result.method(scale)", "core.Result.prop",
        "core.run(fast)", "core.run(limit)",
    ]
    script += "r = run(1, True, limit=3)\nr.method(2.0)\nprint(r.extra, r.prop)\n"
    assert uncalled(package, [(script, False)]) == []
    # a bench string reads a member; unpacked arguments pass every parameter
    bench = 'run(*args, **kwargs)\nFIELDS = ("extra", "method", "prop")\nResult(1).method(*a)\n'
    assert uncalled(package, [(script.split("r = ")[0], False), (bench, True)]) == []


def test_partial_alias_call_clears_a_parameter():
    package = {"core": "def field(fmt, doc, key, where=''):\n    return doc[key]\n"}
    assert uncalled(package, [("field('f', {}, 'k')\n", False)]) == ["core.field(where)"]
    # _field(a, b, c) is field('f', a, b, c): its third argument is field's fourth
    alias = "from functools import partial\n_field = partial(field, 'f')\n"
    assert uncalled(package, [(alias + "_field({}, 'k')\n", False)]) == ["core.field(where)"]
    assert uncalled(package, [(alias + "_field({}, 'k', 'w')\n", False)]) == []
    assert uncalled(package, [(alias + "_field({}, 'k', where='w')\n", False)]) == []
    assert uncalled(package, [("partial(field, where='w')\n", False)]) == []

