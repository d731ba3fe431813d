"""The committed artifacts are what ``scripts/`` writes today.

``scripts/h2_pipeline.py`` runs the CLI chain (compile, mpo, groundstate,
sample, curate, optimize, lcu, compile of the rescaled operator, update,
verify), one ``cli.main`` call per stage, and each file of
``artifacts/h2/`` is one stage's output; the ground state, sampler, pencil
assembly and Ritz solve feed ``artifacts/energy_sweep.csv``. So a byte
change in any stage is a change in a frozen acceptance number.
"""

import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from paulibridge.mps import ground_state_reference
from paulibridge.sampler import SamplerConfig, curate, sample_strings
from paulibridge.varopt import assemble_pencil, solve_ritz_dense, solve_ritz_lobpcg

REPO = Path(__file__).resolve().parents[1]
ARTIFACTS = REPO / "artifacts" / "h2"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def test_h2_pipeline_reproduces_artifacts_byte_for_byte(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "h2_pipeline.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "pipeline ok" in proc.stdout
    expected = sorted(p.name for p in ARTIFACTS.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (ARTIFACTS / name).read_bytes(), name


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_h2_pipeline_stops_at_the_first_failed_stage_and_names_it(tmp_path, monkeypatch, capsys):
    pipeline = _load_script("h2_pipeline")
    real, calls = pipeline.cli.main, []

    def main(argv):  # the first verify --program, of lcu.json, reports a failed block encoding
        calls.append(argv)
        return 3 if argv[0] == "verify" and "--program" in argv else real(argv)

    monkeypatch.setattr(pipeline, "cli", types.SimpleNamespace(main=main))
    assert pipeline.main(["--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert calls[-1][-2] == "--program" and Path(calls[-1][-1]).name == "lcu.json"
    assert out.splitlines()[-1] == f"pipeline FAILED at stage 10: paulibridge {' '.join(calls[-1])} exited 3"
    assert "pipeline ok" not in out and len(calls) == 11  # the updated program's verify never ran
    assert not list(tmp_path.iterdir())  # every stage wrote into the temporary directory


@pytest.mark.parametrize("argv, stage, code", [
    (["--n-samples", "0"], "3: paulibridge sample", 1),  # a usage error of the sample stage
    (["--operator", "{thirteen}"], "1: paulibridge mpo", 2),  # mpo --verify refuses 13 sites
])
def test_h2_pipeline_leaves_out_untouched_on_a_failed_stage(tmp_path, capsys, argv, stage, code):
    files, out = _operator_files(tmp_path), tmp_path / "h2"
    argv = [arg.format(**files) for arg in argv]
    assert _load_script("h2_pipeline").main([*argv, "--out", str(out)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"pipeline FAILED at stage {stage} ") and last.endswith(f" exited {code}")
    assert not out.exists()


def _operator_files(tmp_path: Path) -> dict[str, Path]:
    """Operator files a script must refuse: 13 sites, 8- and 9-site labels mixed, and none at all."""
    files = {name: tmp_path / f"{name}.pauli" for name in ("thirteen", "mixed", "missing")}
    files["thirteen"].write_text("1.0 " + "X" * 13 + "\n0.5 " + "Z" * 13 + "\n")
    files["mixed"].write_text("1.0 XXXXXXXX\n0.5 ZZZZZZZZZ\n")
    return files


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "10", "0"], "--sizes must be positive, got 0"),
    (["--max-bond", "0"], "--max-bond must be positive, got 0"),
    (["--seed", "-1"], "--seed must be in 0..2**64-1, got -1"),
    (["--n-sites", "0"], "--n-sites must be positive, got 0"),
    (["--n-terms", "0"], "--n-terms must be positive, got 0"),
    (["--n-sites", "9"], "--n-sites 9: 9 sites; the sweep is a dense-reference study, use at most 8"),
    (["--operator", "{thirteen}"],
     "--operator {thirteen}: 13 sites; the sweep is a dense-reference study, use at most 8"),
    (["--operator", "{mixed}"], "--operator {mixed}: line 2: string length 9 != 8"),
    (["--operator", "{missing}"], "--operator {missing}: No such file or directory"),
])
def test_energy_sweep_refuses_bad_input_on_one_line(tmp_path, capsys, argv, message):
    files, out = _operator_files(tmp_path), tmp_path / "sweep.csv"
    argv = [arg.format(**files) for arg in argv]
    assert _load_script("energy_sweep").main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"energy_sweep.py: error: {message.format(**files)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "--seed must be in 0..2**64-1, got -1"),
    (["--operator", "{mixed}"], "--operator {mixed}: line 2: string length 9 != 8"),
    (["--operator", "{missing}"], "--operator {missing}: No such file or directory"),
])
def test_h2_pipeline_refuses_bad_input_on_one_line(tmp_path, capsys, argv, message):
    files, out = _operator_files(tmp_path), tmp_path / "h2"
    argv = [arg.format(**files) for arg in argv]
    assert _load_script("h2_pipeline").main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"h2_pipeline.py: error: {message.format(**files)}\n"
    assert not out.exists()


def test_energy_sweep_reproduces_csv_byte_for_byte(tmp_path):
    out = tmp_path / "energy_sweep.csv"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "energy_sweep.py"), "--out", str(out)],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (REPO / "artifacts" / "energy_sweep.csv").read_bytes()


def test_lobpcg_matches_dense_on_final_sweep_pencil():
    # the default sweep's last pencil (k = 198), rebuilt as the script
    # builds it: a benchmark sizing run once saw LOBPCG fail near this k
    sweep = _load_script("energy_sweep")
    op = sweep.random_operator(np.random.default_rng(0), 8, 30)
    state = ground_state_reference(op, max_bond=2).mps
    samples = sample_strings(state, SamplerConfig(n_samples=200, seed=0))
    union: dict = {}
    for n in (10, 25, 50, 100, 200):
        union.update(dict.fromkeys(map(tuple, curate(samples[:n], op.n_sites).strings.tolist())))
    pencil = assemble_pencil(op, np.array(list(union), dtype=np.uint64), state)
    assert pencil.size == 198
    dense = solve_ritz_dense(pencil).energies[0]
    assert f"{dense:.12f}" == "-11.087440555088"
    for seed in range(3):
        sol = solve_ritz_lobpcg(pencil, seed=seed)
        assert abs(sol.energies[0] - dense) <= 1e-9, (seed, sol.iterations)
