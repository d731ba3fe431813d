"""The committed artifacts are what ``scripts/`` writes today.

Every stage of the h2 pipeline (bridge, MPO sweep, ground state, sampler,
curation, LCU compile and update) feeds ``artifacts/h2/``, and the
ground state, sampler, pencil assembly and Ritz solve feed
``artifacts/energy_sweep.csv``, so a byte change in any of them is a
change in a frozen acceptance number.
"""

import importlib.util
import os
import subprocess
import sys
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


def _load_energy_sweep():
    spec = importlib.util.spec_from_file_location("energy_sweep", REPO / "scripts" / "energy_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    sweep = _load_energy_sweep()
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
