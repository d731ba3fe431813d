"""The production-coverage report flags what only the tests run, and only that."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


coverage = load("production_coverage", ROOT / "scripts" / "production_coverage.py")

SYNTHETIC = '''import functools


def production():
    return Shape().area() + cached() + helper()


def helper():
    def inner():
        return 1
    return inner()


@functools.cache
def cached():
    return 2


class Shape:
    def area(self):
        return 3

    def only_tested_method(self):
        return 4


def only_tested():
    return 5
'''


def test_a_function_only_a_test_calls_is_flagged(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    module = load("synthetic", path)
    assert module.only_tested() == 5 and module.Shape().only_tested_method() == 4  # called here, not in the run
    assert coverage.never_entered([path], module.production) == [
        ("synthetic.Shape.only_tested_method", 2), ("synthetic.only_tested", 2)]
    # with nothing run, every function is flagged, the decorated and the nested ones too
    assert [name for name, _ in coverage.never_entered([path], lambda: None)] == [
        "synthetic.Shape.area", "synthetic.Shape.only_tested_method", "synthetic.cached", "synthetic.helper",
        "synthetic.helper.inner", "synthetic.only_tested", "synthetic.production"]


def test_the_production_runs_enter_the_shared_reference_solve(tmp_path, monkeypatch):
    exits, cli = [], coverage._cli

    def recorded(main, argv, code=0):  # _cli raises unless main exits with ``code``
        cli(main, argv, code)
        exits.append((argv[0], code))

    monkeypatch.setattr(coverage, "_cli", recorded)
    names = [name for name, _ in coverage.never_entered(
        sorted(coverage.PACKAGE.glob("*.py")), lambda: coverage.production_runs(tmp_path))]
    # one malformed input per reader, each with its documented exit code: an operator line,
    # a bridge with a repeated pair, a program whose select row disagrees with its dictionary, a usage error
    assert [e for e in exits if e[1]] == [("compile", 2), ("lcu", 2), ("verify", 2), ("compile", 1)]
    assert not {"bridge._raise_row_error", "lcu._raise_row_error", "pauli._line_error", "pauli._parse_coeff",
                "pauli.MalformedLine.__init__", "pauli.malformed", "cli.Parser.error"} & set(names)
    assert "lcu.encoded_block" not in names  # verify measures the block through it
    assert names  # ROADMAP item 4: names only the tests reach are still listed
    assert "mps.lowest_pairs" not in names and "mps.ground_state_reference" not in names
    assert "cli.main" not in names and "varopt.energy_vs_samples_sweep" not in names
    # each optional CLI flag is passed once: --tol, mpo --max-bond's compression
    assert not {"cli.tolerance", "mps.compress", "mps._split_left"} & set(names)
    assert (tmp_path / "energy_sweep.csv").is_file() and (tmp_path / "h2" / "groundstate.json").is_file()
