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
    assert calls[-1][-2:] == ["--program", str(tmp_path / "lcu.json")]
    assert out.splitlines()[-1] == f"pipeline FAILED at stage 10: paulibridge {' '.join(calls[-1])} exited 3"
    assert "pipeline ok" not in out and len(calls) == 11  # the updated program's verify never ran


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
