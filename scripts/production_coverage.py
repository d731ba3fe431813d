"""List the functions of src/paulibridge that no production entry point enters.

The entry points are ``scripts/h2_pipeline.py`` (the h2 chain, through
``cli.main``), the CLI calls it does not make (``jw``, ``groundstate
--max-bond 2``, ``optimize --sweep-csv``, each optional flag once), one
malformed input per reader, each exiting with its documented code, and
``scripts/energy_sweep.py``. They run in this process under
``sys.setprofile``, which records the calls that land in src/paulibridge.
Each function or method defined there that none of them entered is printed
as ``module.qualname`` with its line count, then the totals. Every output
the entry points write goes to a temporary directory.

A listed name is code that only the tests run. The report fails on nothing:
the exit status is 0 whatever it lists, and not 0 only when an entry point
itself fails.

    PYTHONPATH=src python3 scripts/production_coverage.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "paulibridge"
FIXTURES = REPO / "tests" / "fixtures"


def defined_functions(paths) -> dict[tuple[str, int], tuple[str, int]]:
    """Each function and method of the modules at ``paths``: ``(file, first line)``, the key its
    code object carries (a decorated one starts at its first decorator), to ``(module.qualname, lines)``."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (f"{path.stem}.{name}", child.end_lineno - first + 1)
                visit(path, child, f"{name}.")
            else:
                visit(path, child, prefix)

    for path in paths:
        path = Path(path).resolve()
        visit(path, ast.parse(path.read_text()), "")
    return found


def entered_code(run) -> set[tuple[str, int]]:
    """``(file, first line)`` of every Python function that ``run()`` calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def never_entered(paths, run) -> list[tuple[str, int]]:
    """The ``(module.qualname, lines)`` of each function at ``paths`` that ``run()`` does not enter, sorted."""
    entered = entered_code(run)
    return sorted(name for key, name in defined_functions(paths).items() if key not in entered)


def _cli(main, argv: list[str], code: int = 0) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != code:
        raise RuntimeError(f"{argv[0]} exited {rc}, not {code}: {err.getvalue().strip()}")


def _script(name: str, args: list[str]) -> None:
    saved = sys.argv
    sys.argv = [name, *args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(REPO / "scripts" / name), run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"{name} exited {exc.code}") from None
    finally:
        sys.argv = saved


def _malformed_inputs(op: str, h2: Path, out: Path) -> list[tuple[list[str], int]]:
    """One bad input per reader, each built from the pipeline's files under ``out``, with its exit code."""
    (out / "bad.pauli").write_text(Path(op).read_text() + "0.5x ZZII\n")
    bridge = json.loads((h2 / "bridge.json").read_text())
    bridge["bridge"].append(bridge["bridge"][0])  # a repeated pair
    (out / "bad_bridge.json").write_text(json.dumps(bridge))
    program = json.loads((h2 / "lcu.json").read_text())
    program["select"][0]["pl"] = program["left"][program["select"][0]["a"] - 1]  # another fragment's label
    (out / "bad_lcu.json").write_text(json.dumps(program))
    return [
        (["compile", "--input", str(out / "bad.pauli"), "--cut", "2", "--output", str(out / "bad.json")], 2),
        (["lcu", "--bridge", str(out / "bad_bridge.json"), "--output", str(out / "bad_lcu_out.json")], 2),
        (["verify", "--input", op, "--program", str(out / "bad_lcu.json")], 2),
        (["compile", "--input", op, "--cut", "0", "--output", str(out / "bad.json")], 1),
    ]


def production_runs(out: Path) -> None:
    """h2_pipeline.py, the CLI calls it does not make, a malformed input per reader and energy_sweep.py,
    every output under ``out``."""
    from paulibridge.cli import main

    op, h2 = str(FIXTURES / "h2_subset.pauli"), out / "h2"
    _script("h2_pipeline.py", ["--out", str(h2)])
    for argv in (  # on the pipeline's files, and each optional flag once
        ["jw", "--input", str(FIXTURES / "number_op.json"), "--output", str(out / "jw.pauli")],
        ["mpo", "--input", op, "--tol", "1e-3", "--max-bond", "2", "--output", str(out / "mpo.json")],
        ["groundstate", "--input", op, "--max-bond", "2", "--output", str(out / "mps2.json")],
        ["curate", "--samples", str(h2 / "samples.txt"), "--keep-iz", "3", "--output", str(out / "pool.txt")],
        ["optimize", "--input", op, "--state", str(h2 / "groundstate.json"), "--pool", str(h2 / "pool.txt"),
         "--n-roots", "2", "--sweep-csv", str(out / "sweep.csv"), "--sweep-sizes", "10", "25",
         "--output", str(out / "opt.json")],
        ["verify", "--input", op, "--cut", "1", "--tol", "1e-9"],
    ):
        _cli(main, argv)
    for argv, code in _malformed_inputs(op, h2, out):
        _cli(main, argv, code)
    _script("energy_sweep.py", ["--out", str(out / "energy_sweep.csv")])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        names = never_entered(sorted(PACKAGE.glob("*.py")), lambda: production_runs(Path(tmp)))
    for name, lines in names:
        print(f"{name} {lines}")
    print(f"{len(names)} functions ({sum(lines for _, lines in names)} lines) of src/paulibridge never entered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
