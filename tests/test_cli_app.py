"""End-to-end tests for the command-line interface.

A module-scoped fixture drives the whole pipeline once on the four-site
fixture operator; individual tests then assert on the artifacts, the
captured stdout, exit codes, and manifest determinism.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paulibridge import __version__, lcu, varopt
from paulibridge.bridge import compile as compile_bridge
from paulibridge.bridge import skeleton_hash
from paulibridge.bridge import decomposition_from_json, decomposition_to_json
from paulibridge.cli import main, non_negative_int, positive_int, tolerance
from paulibridge.lcu import program_from_json
from paulibridge.mpo import mpo_from_json
from paulibridge.mps import Mps, mps_from_json, mps_to_json
from paulibridge.pauli import parse_pauli_sum, serialize_pauli_sum, to_dense
from paulibridge.sampler import pool_from_text, samples_from_text

from conftest import (
    BYTE_IDENTITY,
    BRIDGE_MUTATIONS,
    CHAIN_MUTATIONS,
    FERMION_MUTATIONS,
    FIXTURES,
    OTHER_OPERATOR,
    POOL_MUTATIONS,
    PROGRAM_MUTATIONS,
    random_pauli_sum,
    thirteen_qubit_op,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    op = root / "op.pauli"
    op.write_text((FIXTURES / "h2_subset.pauli").read_text())
    fermion = root / "fermion.json"
    fermion.write_text((FIXTURES / "number_op.json").read_text())
    paths = {
        "root": root,
        "op": op,
        "fermion": fermion,
        "jw": root / "jw.pauli",
        "bridge": root / "bridge.json",
        "mpo": root / "mpo.json",
        "mps": root / "mps.json",
        "samples": root / "samples.txt",
        "pool": root / "pool.txt",
        "opt": root / "opt.json",
        "lcu": root / "lcu.json",
        "gates": root / "gates.txt",
        "updated": root / "updated.json",
        "jw_manifest": root / "jw.manifest.json",
        "compile_manifest": root / "compile.manifest.json",
    }
    stdout = {}
    steps = [
        ("jw", ["jw", "--input", str(fermion), "--output", str(paths["jw"]),
                "--manifest", str(paths["jw_manifest"])]),
        ("compile", ["compile", "--input", str(op), "--cut", "2",
                     "--output", str(paths["bridge"]),
                     "--manifest", str(paths["compile_manifest"])]),
        ("mpo", ["mpo", "--input", str(op), "--output", str(paths["mpo"])]),
        ("groundstate", ["groundstate", "--input", str(op),
                         "--output", str(paths["mps"])]),
        ("sample", ["sample", "--state", str(paths["mps"]), "--n-samples",
                    "400", "--seed", "7", "--output", str(paths["samples"])]),
        ("curate", ["curate", "--samples", str(paths["samples"]),
                    "--output", str(paths["pool"])]),
        ("optimize", ["optimize", "--input", str(op), "--state",
                      str(paths["mps"]), "--pool", str(paths["pool"]),
                      "--output", str(paths["opt"])]),
        ("lcu", ["lcu", "--bridge", str(paths["bridge"]), "--output",
                 str(paths["lcu"]), "--gates", str(paths["gates"])]),
        ("update", ["update", "--program", str(paths["lcu"]), "--bridge",
                    str(paths["bridge"]), "--output", str(paths["updated"])]),
        ("verify", ["verify", "--input", str(op)]),
    ]
    for name, argv in steps:
        rc, out, err = run(argv)
        assert rc == 0, f"{name} failed rc={rc} stderr={err}"
        stdout[name] = out
    return paths, stdout


class TestPipelineArtifacts:
    def test_jw_output_parses(self, pipeline):
        paths, stdout = pipeline
        op = parse_pauli_sum(paths["jw"].read_text())
        assert op.n_sites == 1
        assert op.n_terms == 2
        assert "n_terms 2" in stdout["jw"]

    def test_compile_round_trip(self, pipeline):
        paths, stdout = pipeline
        d = decomposition_from_json(paths["bridge"].read_text())
        assert d.cut == 2
        assert len(d.bridge.active_pairs) == 9
        assert "active_pairs 9" in stdout["compile"]

    def test_mpo_bond_dims(self, pipeline):
        paths, stdout = pipeline
        m = mpo_from_json(paths["mpo"].read_text())
        assert list(m.bond_dims) == [1, 4, 5, 3, 1]
        assert "bond_dims 1 4 5 3 1" in stdout["mpo"]

    def test_groundstate_energy_matches_dense(self, pipeline):
        paths, stdout = pipeline
        op = parse_pauli_sum(paths["op"].read_text())
        reference = scipy.linalg.eigvalsh(to_dense(op))[0]
        line = next(l for l in stdout["groundstate"].splitlines()
                    if l.startswith("energy "))
        assert float(line.split()[1]) == pytest.approx(reference, abs=1e-10)
        m = mps_from_json(paths["mps"].read_text())
        assert m.n_sites == 4

    def test_samples_file(self, pipeline):
        paths, _ = pipeline
        text = paths["samples"].read_text()
        assert text.startswith("# samples-v1 n_sites=4 n_samples=400 seed=7")
        samples, n_sites = samples_from_text(text)
        assert n_sites == 4
        assert samples.shape == (400, 1)

    def test_pool_counts(self, pipeline):
        paths, _ = pipeline
        pool = pool_from_text(paths["pool"].read_text())
        assert pool.n_samples == 400
        samples, _ = samples_from_text(paths["samples"].read_text())
        n_identity = int(np.count_nonzero(~samples.any(axis=1)))
        assert sum(pool.counts.values()) == 400 - n_identity

    def test_optimize_result(self, pipeline):
        paths, _ = pipeline
        doc = json.loads(paths["opt"].read_text())
        assert doc["format"] == "optimize-v1"
        assert doc["solver"] == "dense"
        # Variational bound from below; at this sample count the pool
        # spans the ground state so the bound is tight.
        assert doc["energies"][0] >= doc["reference_energy"] - 1e-9
        assert doc["energies"][0] == pytest.approx(
            doc["reference_energy"], abs=1e-9
        )

    def test_lcu_program(self, pipeline):
        paths, stdout = pipeline
        prog = program_from_json(paths["lcu"].read_text())
        assert prog.lam == pytest.approx(1.212874, abs=1e-12)
        gates = paths["gates"].read_text().splitlines()
        assert gates[0].startswith("# lcu-gates-v1 ")
        assert gates[1].startswith("prep ")
        assert gates[-1] == "unprep"
        assert "lambda 1.212874" in stdout["lcu"]

    def test_update_same_bridge_is_identity(self, pipeline):
        paths, _ = pipeline
        assert paths["updated"].read_bytes() == paths["lcu"].read_bytes()

    def test_update_hashes_the_skeleton_twice(self, pipeline, tmp_path, monkeypatch):
        # once for the program read and once for the recompiled one; each
        # program keeps its select_hash for the check, the JSON and stdout
        paths, _ = pipeline
        calls = []
        monkeypatch.setattr(lcu, "skeleton_hash", lambda *args: calls.append(args) or skeleton_hash(*args))
        out = tmp_path / "updated.json"
        rc, stdout, _ = run(["update", "--program", str(paths["lcu"]), "--bridge", str(paths["bridge"]),
                             "--output", str(out)])
        assert rc == 0
        assert len(calls) == 2
        want = json.loads(paths["lcu"].read_text())["select_hash"]
        assert want == skeleton_hash(*calls[0]) == skeleton_hash(*calls[1])
        assert json.loads(out.read_text())["select_hash"] == want
        assert f"select_hash {want}\n" in stdout

    def test_verify_all_pass(self, pipeline):
        _, stdout = pipeline
        lines = [l for l in stdout["verify"].splitlines() if l]
        assert len(lines) == 11
        assert all(l.endswith(" pass") for l in lines)
        assert sum("block_encoding" in l for l in lines) == 3
        # measured checks print "<name> error E tol T pass"
        measured = [l.split() for l in lines if " error " in l]
        assert [w[0] for w in measured] == [
            "block_encoding_cut_1", "block_encoding_cut_2", "block_encoding_cut_3",
            "mpo_exact_reconstruction",
        ]
        for _, key, err, tol_key, tol, _ in measured:
            assert (key, tol_key, tol) == ("error", "tol", "1e-10")
            assert float(err) <= 1e-10


class TestManifests:
    def test_hashes_cover_input_and_output(self, pipeline):
        paths, _ = pipeline
        doc = json.loads(paths["compile_manifest"].read_text())
        assert doc["command"] == "compile"
        assert doc["parameters"] == {"cut": 2}
        op_hash = hashlib.sha256(paths["op"].read_bytes()).hexdigest()
        assert doc["inputs"][str(paths["op"])] == op_hash
        out_hash = hashlib.sha256(paths["bridge"].read_bytes()).hexdigest()
        assert doc["outputs"][str(paths["bridge"])] == out_hash
        assert doc["versions"]["paulibridge"] == __version__
        assert doc["versions"]["numpy"] == np.__version__

    def test_no_timestamps(self, pipeline):
        paths, _ = pipeline
        for key in ("jw_manifest", "compile_manifest"):
            doc = json.loads(paths[key].read_text())
            assert set(doc) == {
                "command", "inputs", "outputs", "parameters", "versions"
            }

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "bridge.json"
        manifest = tmp_path / "m.json"
        for _ in range(2):
            rc, _, _ = run(["compile", "--input", str(paths["op"]), "--cut",
                            "2", "--output", str(out), "--manifest",
                            str(manifest)])
            assert rc == 0
        assert manifest.read_bytes() == json.dumps(
            json.loads(manifest.read_text()), indent=2
        ).encode() + b"\n"
        first = manifest.read_bytes()
        rc, _, _ = run(["compile", "--input", str(paths["op"]), "--cut", "2",
                        "--output", str(out), "--manifest", str(manifest)])
        assert rc == 0
        assert manifest.read_bytes() == first


class TestDeterminism:
    def test_sample_seed_reproducible(self, pipeline, tmp_path):
        paths, _ = pipeline
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            rc, _, _ = run(["sample", "--state", str(paths["mps"]),
                            "--n-samples", "50", "--seed", "11",
                            "--output", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_seed_sensitivity(self, pipeline, tmp_path):
        paths, _ = pipeline
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for seed, out in (("11", a), ("12", b)):
            rc, _, _ = run(["sample", "--state", str(paths["mps"]),
                            "--n-samples", "50", "--seed", seed,
                            "--output", str(out)])
            assert rc == 0
        sa, _ = samples_from_text(a.read_text())
        sb, _ = samples_from_text(b.read_text())
        assert not np.array_equal(sa, sb)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        rc, _, _ = run([])
        assert rc == 1

    def test_unknown_subcommand(self):
        rc, _, _ = run(["frobnicate"])
        assert rc == 1

    def test_missing_required_argument(self):
        rc, _, err = run(["compile", "--cut", "1"])
        assert rc == 1
        assert "required" in err

    def test_version_exits_zero(self):
        rc, out, _ = run(["--version"])
        assert rc == 0

    def test_missing_input_file(self, tmp_path):
        rc, _, err = run(["mpo", "--input", str(tmp_path / "absent.pauli"),
                          "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "error:" in err

    def test_numerals_must_be_ascii(self, tmp_path):
        # float() would read these as 10, 3 and 0.55+10i
        bad, out = tmp_path / "bad.pauli", tmp_path / "out.json"
        bad.write_bytes(b"1_0 XZ\n\xd9\xa3 ZZ\n0.5_5+1_0i XX\n")
        rc, stdout, err = run(["compile", "--input", str(bad), "--cut", "1", "--output", str(out)])
        assert (rc, stdout, err) == (2, "", "error: line 1, column 1: bad coefficient '1_0'\n")
        assert not out.exists()

    def test_malformed_operator_text(self, tmp_path):
        bad = tmp_path / "bad.pauli"
        bad.write_text("X 0.5\n")
        rc, _, err = run(["mpo", "--input", str(bad),
                          "--output", str(tmp_path / "out.json")])
        assert rc == 2

    @pytest.mark.parametrize("token", ["nan", "1e400"])
    def test_non_finite_coefficient(self, tmp_path, token):
        bad = tmp_path / "bad.pauli"
        bad.write_text(f"0.5 XX\n{token} ZZ\n")
        rc, _, err = run(["mpo", "--input", str(bad),
                          "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "line 2, column 1" in err

    @pytest.mark.parametrize("command", ["compile", "mpo", "groundstate"])
    def test_merge_that_overflows_names_its_line(self, tmp_path, command):
        bad, out = tmp_path / "bad.pauli", tmp_path / "out.json"
        bad.write_text("1e308 XZ\n1e308 XZ\n0.5 ZZ\n")
        cut = ["--cut", "1"] if command == "compile" else []
        rc, _, err = run([command, "--input", str(bad), *cut, "--output", str(out)])
        assert rc == 2
        assert "line 2, column 1" in err
        assert not out.exists()

    def test_overflowing_one_norm_writes_nothing(self, tmp_path):
        # each coefficient is finite, their one-norm is not
        src, bridge = tmp_path / "big.pauli", tmp_path / "big.bridge.json"
        src.write_text("1e308 XZ\n1e308 ZZ\n")
        assert run(["compile", "--input", str(src), "--cut", "1", "--output", str(bridge)])[0] == 0
        (tmp_path / "unit.pauli").write_text("1.0 XZ\n1.0 ZZ\n")
        program = tmp_path / "unit.lcu.json"
        assert run(["compile", "--input", str(tmp_path / "unit.pauli"), "--cut", "1",
                    "--output", str(tmp_path / "unit.bridge.json")])[0] == 0
        assert run(["lcu", "--bridge", str(tmp_path / "unit.bridge.json"), "--output", str(program)])[0] == 0
        out, gates = tmp_path / "out.json", tmp_path / "gates.txt"
        for argv in (["lcu", "--bridge", str(bridge), "--output", str(out), "--gates", str(gates)],
                     ["update", "--program", str(program), "--bridge", str(bridge), "--output", str(out)]):
            rc, _, err = run(argv)
            assert rc == 2
            assert "one-norm lambda of the bridge overflows" in err
            assert not out.exists() and not gates.exists()
        rc, _, err = run(["mpo", "--input", str(src), "--output", str(out)])
        assert rc == 2
        assert "cut matrix at site 0 overflows" in err
        assert not out.exists()

    def test_cut_out_of_range(self, pipeline, tmp_path):
        paths, _ = pipeline
        rc, _, _ = run(["compile", "--input", str(paths["op"]), "--cut", "9",
                        "--output", str(tmp_path / "out.json")])
        assert rc == 2

    def test_bad_json_bridge(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, _ = run(["lcu", "--bridge", str(bad),
                        "--output", str(tmp_path / "out.json")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["lcu", "update"])
    @pytest.mark.parametrize("field, mutate", BRIDGE_MUTATIONS)
    def test_malformed_bridge_is_data_error(self, pipeline, tmp_path, command, field, mutate):
        paths, _ = pipeline
        doc = json.loads(paths["bridge"].read_text())
        mutate(doc)
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text(json.dumps(doc))
        program = ["--program", str(paths["lcu"])] if command == "update" else []
        rc, stdout, err = run([command, *program, "--bridge", str(bad), "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith(f"error: bridge-v1 field {field}:")

    @pytest.mark.parametrize("field, mutate", FERMION_MUTATIONS)
    def test_malformed_fermion_terms_is_data_error(self, pipeline, tmp_path, field, mutate):
        paths, _ = pipeline
        doc = json.loads(paths["fermion"].read_text())
        mutate(doc)
        bad, out = tmp_path / "bad.json", tmp_path / "out.pauli"
        bad.write_text(json.dumps(doc))
        rc, stdout, err = run(["jw", "--input", str(bad), "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith(f"error: fermion field {field}:")

    @pytest.mark.parametrize("field, mutate", CHAIN_MUTATIONS)
    def test_malformed_state_is_data_error(self, pipeline, tmp_path, field, mutate):
        paths, _ = pipeline
        doc = json.loads(paths["mps"].read_text())
        mutate(doc)
        bad, out = tmp_path / "bad.json", tmp_path / "samples.txt"
        bad.write_text(json.dumps(doc))
        rc, stdout, err = run(["sample", "--state", str(bad), "--n-samples", "10",
                               "--seed", "1", "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith(f"error: mps-v1 field {field}:")

    @pytest.mark.parametrize("n_sites", [0])
    def test_samples_beyond_one_word_is_data_error(self, tmp_path, n_sites):
        bad, out = tmp_path / "samples.txt", tmp_path / "pool.txt"
        bad.write_text(f"# samples-v1 n_sites={n_sites} n_samples=1\n{'X' * n_sites}\n")
        rc, stdout, err = run(["curate", "--samples", str(bad), "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith("error: samples-v1 header field n_sites:")

    def test_sample_and_curate_past_one_word(self, tmp_path):
        # a 40-site product state: each sample is a two-word row
        rng = np.random.default_rng(40)
        sites = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(40)]
        state, samples, pool = tmp_path / "mps.json", tmp_path / "samples.txt", tmp_path / "pool.txt"
        state.write_text(mps_to_json(Mps([(v / np.linalg.norm(v)).reshape(1, 1, 2) for v in sites])))
        rc, stdout, err = run(["sample", "--state", str(state), "--n-samples", "300", "--seed", "3",
                               "--output", str(samples)])
        assert (rc, err) == (0, "")
        assert stdout.splitlines() == ["n_samples 300"]
        rows, n_sites = samples_from_text(samples.read_text())
        assert rows.shape == (300, 2) and n_sites == 40
        rc, _, err = run(["curate", "--samples", str(samples), "--output", str(pool)])
        assert (rc, err) == (0, "")
        back = pool_from_text(pool.read_text())
        assert back.n_sites == 40 and back.n_samples == 300
        assert sum(back.counts.values()) == 300 - int(np.count_nonzero(~rows.any(axis=1)))

    def test_bad_sample_label_names_line(self, tmp_path):
        bad, out = tmp_path / "samples.txt", tmp_path / "pool.txt"
        bad.write_text("# samples-v1 n_sites=2 n_samples=2\nXZ\nXQ\n")
        rc, stdout, err = run(["curate", "--samples", str(bad), "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith("error: line 3: invalid Pauli symbol 'Q'")

    @pytest.mark.parametrize("mutate", POOL_MUTATIONS)
    def test_malformed_pool_is_data_error(self, pipeline, tmp_path, mutate):
        paths, _ = pipeline
        lines = paths["pool"].read_text().splitlines()
        if mutate is None:
            lines.append(lines[1])
            where = len(lines)
        else:
            lines[1] = " ".join(mutate(lines[1].split()))
            where = 2
        bad, out = tmp_path / "pool.txt", tmp_path / "opt.json"
        bad.write_text("\n".join(lines) + "\n")
        rc, stdout, err = run(["optimize", "--input", str(paths["op"]), "--state",
                               str(paths["mps"]), "--pool", str(bad), "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith(f"error: line {where}:")

    @pytest.mark.parametrize("text, message", [
        pytest.param("# pool-v1 n_sites=0 n_samples=0\n", "pool-v1 header field n_sites:", id="no-sites"),
        pytest.param("# pool-v1 n_sites=3 n_samples=0\n", "pool has 3 sites, operator has 4",
                     id="site-count-mismatch"),
        pytest.param("# pool-v1 n_sites=4 n_samples=0\n1 0.5 XXYY\n", "counts sum to 1,",
                     id="counts-above-samples"),
    ])
    def test_inconsistent_pool_is_data_error(self, pipeline, tmp_path, text, message):
        paths, _ = pipeline
        bad, out = tmp_path / "pool.txt", tmp_path / "opt.json"
        bad.write_text(text)
        rc, stdout, err = run(["optimize", "--input", str(paths["op"]), "--state",
                               str(paths["mps"]), "--pool", str(bad), "--output", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        [line] = err.splitlines()
        assert line.startswith(f"error: {message}")

    def test_update_support_change(self, pipeline, tmp_path, h2_text):
        paths, _ = pipeline
        lines = [l for l in h2_text.splitlines() if "YXXY" not in l]
        smaller = parse_pauli_sum("\n".join(lines))
        d = compile_bridge(smaller, 2)
        bridge_path = tmp_path / "smaller.json"
        bridge_path.write_text(decomposition_to_json(d))
        rc, _, err = run(["update", "--program", str(paths["lcu"]),
                          "--bridge", str(bridge_path),
                          "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "error:" in err

    def test_lobpcg_unconverged_is_numerical_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        rc, _, err = run(["optimize", "--input", str(paths["op"]), "--state",
                          str(paths["mps"]), "--pool", str(paths["pool"]),
                          "--solver", "lobpcg", "--max-iter", "1",
                          "--output", str(tmp_path / "out.json")])
        assert rc == 3
        assert err == "error: residual above 1e-09 after 1 iterations\n"


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "paulibridge.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_one_process_matches_fresh_runs(self, tmp_path, monkeypatch):
        # main reuses one parser per process; a usage error must leave it
        # as a fresh process would find it
        calls = [
            ["compile", "--input", "op.pauli", "--cut", "0", "--output", "bad.json"],
            ["compile", "--input", "op.pauli", "--cut", "2", "--output", "bridge.json"],
            ["mpo", "--input", "op.pauli", "--verify", "--output", "mpo.json"],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        fresh, shared = tmp_path / "fresh", tmp_path / "shared"
        for d in (fresh, shared):
            d.mkdir()
            (d / "op.pauli").write_text((FIXTURES / "h2_subset.pauli").read_text())
        expected = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "paulibridge.cli", *argv],
                capture_output=True, text=True, cwd=fresh, env=env,
            )
            expected.append((proc.returncode, proc.stdout, proc.stderr))
        monkeypatch.chdir(shared)
        assert [run(argv) for argv in calls] == expected
        assert [rc for rc, _, _ in expected] == [1, 0, 0]
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in shared.iterdir()) == names
        for name in names:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


class TestMpoOptions:
    def test_max_bond_and_verify_report(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "mpo4.json"
        rc, stdout, _ = run(["mpo", "--input", str(paths["op"]), "--max-bond",
                             "4", "--verify", "--output", str(out)])
        assert rc == 0
        assert "bond_dims 1 4 4 3 1" in stdout
        assert "discarded_weight" in stdout
        assert "reconstruction_error" in stdout
        m = mpo_from_json(out.read_text())
        assert max(m.bond_dims) == 4

    def test_default_manifest_next_to_output(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "m.json"
        rc, _, _ = run(["mpo", "--input", str(paths["op"]),
                        "--output", str(out)])
        assert rc == 0
        doc = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert doc["command"] == "mpo"
        assert str(out) in doc["outputs"]


class TestVerifyProgram:
    def test_intact_program_passes(self, pipeline):
        paths, _ = pipeline
        rc, stdout, _ = run(["verify", "--input", str(paths["op"]),
                             "--program", str(paths["lcu"])])
        assert rc == 0
        [line] = stdout.splitlines()
        assert line.startswith("block_encoding PASS tol 1e-10 error ")
        assert float(line.split()[-1]) <= 1e-10

    def test_tampered_amplitude_fails_with_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        doc = json.loads(paths["lcu"].read_text())
        doc["prep"][0]["amp"] += 1e-3
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        rc, stdout, _ = run(["verify", "--input", str(paths["op"]),
                             "--program", str(tampered)])
        assert rc == 3
        line = next(l for l in stdout.splitlines()
                    if l.startswith("block_encoding FAIL"))
        assert float(line.split()[-1]) >= 1e-4


    def test_site_count_mismatch_is_data_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        small = tmp_path / "two.pauli"
        small.write_text("0.5 XZ\n-0.3 ZX\n")
        rc, stdout, err = run(["verify", "--input", str(small),
                               "--program", str(paths["lcu"])])
        assert rc == 2
        assert "block_encoding" not in stdout
        [line] = err.splitlines()
        assert line == "error: program acts on 4 sites, operator has 2"

    @staticmethod
    def chain_program(tmp_path):
        """A 24-site Ising chain, compiled at cut 12: past every matrix limit."""
        n = 24
        words = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
        words += ["I" * i + "X" + "I" * (n - i - 1) for i in range(n)]
        op, bridge, prog = tmp_path / "chain.pauli", tmp_path / "chain.bridge.json", tmp_path / "chain.lcu.json"
        op.write_text("".join(f"{0.1 * (k % 7) - 0.35} {w}\n" for k, w in enumerate(words)))
        assert run(["compile", "--input", str(op), "--cut", "12", "--output", str(bridge)])[0] == 0
        assert run(["lcu", "--bridge", str(bridge), "--output", str(prog)])[0] == 0
        return op, prog

    def test_twenty_four_sites(self, tmp_path):
        op, prog = self.chain_program(tmp_path)
        rc, stdout, _ = run(["verify", "--input", str(op), "--program", str(prog)])
        assert rc == 0
        [line] = stdout.splitlines()
        assert line.startswith("block_encoding PASS tol 1e-10 error ")
        assert float(line.split()[-1]) <= 1e-10
        doc = json.loads(prog.read_text())
        doc["select"][3]["phase_re"] *= -1
        prog.write_text(json.dumps(doc))
        rc, stdout, _ = run(["verify", "--input", str(op), "--program", str(prog)])
        assert rc == 3
        assert stdout.startswith("block_encoding FAIL tol 1e-10 error ")

    @pytest.mark.parametrize("field, mutate", PROGRAM_MUTATIONS)
    def test_malformed_program_is_data_error(self, pipeline, tmp_path, field, mutate):
        paths, _ = pipeline
        doc = json.loads(paths["lcu"].read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, stdout, err = run(["verify", "--input", str(paths["op"]),
                               "--program", str(bad)])
        assert rc == 2
        assert stdout == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: lcu-v1 field {field}")


    def test_stale_select_hash_is_data_error(self, pipeline, tmp_path):
        # the h2 program carrying another operator's select hash must not
        # pass as a program of that operator's skeleton
        paths, _ = pipeline
        other, bridge, program = tmp_path / "other.pauli", tmp_path / "other.json", tmp_path / "other.lcu.json"
        other.write_text(OTHER_OPERATOR)
        assert run(["compile", "--input", str(other), "--cut", "2", "--output", str(bridge)])[0] == 0
        assert run(["lcu", "--bridge", str(bridge), "--output", str(program)])[0] == 0
        doc = json.loads(paths["lcu"].read_text())
        doc["select_hash"] = json.loads(program.read_text())["select_hash"]
        stale, out = tmp_path / "stale.json", tmp_path / "out.json"
        stale.write_text(json.dumps(doc))
        for argv in (["update", "--program", str(stale), "--bridge", str(bridge), "--output", str(out)],
                     ["verify", "--input", str(paths["op"]), "--program", str(stale)]):
            rc, stdout, err = run(argv)
            assert rc == 2
            assert stdout == ""
            assert err.startswith("error: lcu-v1 field select_hash:")
        assert not out.exists()


class TestVerifyBeyondOldCeiling:
    """Battery runs whose walk unitaries exceed 12 qubits, which a dense
    check of (Prep^dag x I) Select (Prep x I) used to refuse."""

    @staticmethod
    def battery(tmp_path, op):
        src = tmp_path / "op.pauli"
        src.write_text(serialize_pauli_sum(op))
        return run(["verify", "--input", str(src)])

    def test_five_sites_ten_terms(self, tmp_path):
        rc, stdout, _ = self.battery(tmp_path, thirteen_qubit_op())
        assert rc == 0
        lines = stdout.splitlines()
        assert len(lines) == 3 * 4 + 2
        assert all(l.endswith(" pass") for l in lines)

    def test_eight_sites_forty_terms(self, tmp_path):
        # 16 qubits at cut 1, up to 20 at the middle cuts
        op = random_pauli_sum(np.random.default_rng(0), 8, 40, complex_coeffs=True)
        rc, stdout, _ = self.battery(tmp_path, op)
        assert rc == 0
        lines = stdout.splitlines()
        assert len(lines) == 3 * 7 + 2
        assert all(l.endswith(" pass") for l in lines)


class TestOptimizeSweep:
    def test_sweep_csv(self, pipeline, tmp_path, monkeypatch):
        # the sweep takes optimize's reference energy instead of solving again
        monkeypatch.setattr(varopt, "to_dense", None)
        paths, _ = pipeline
        csv = tmp_path / "sweep.csv"
        rc, _, _ = run(["optimize", "--input", str(paths["op"]), "--state",
                        str(paths["mps"]), "--pool", str(paths["pool"]),
                        "--sweep-csv", str(csv), "--sweep-sizes", "10", "25",
                        "--output", str(tmp_path / "opt.json")])
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n_samples,p_pool,energy,reference_energy"
        assert len(lines) == 3
        reference = json.loads((tmp_path / "opt.json").read_text())["reference_energy"]
        assert all(line.endswith(f",{reference:.12f}") for line in lines[1:])


def optimize_chain(tmp_path, state_op, opt_op):
    """groundstate of ``state_op``, 20 samples (seed 1), curate, then optimize ``opt_op``."""
    (tmp_path / "state.pauli").write_text(state_op)
    (tmp_path / "opt.pauli").write_text(opt_op)
    steps = [
        ["groundstate", "--input", "state.pauli", "--output", "mps.json"],
        ["sample", "--state", "mps.json", "--n-samples", "20", "--seed", "1", "--output", "samples.txt"],
        ["curate", "--samples", "samples.txt", "--output", "pool.txt"],
        ["optimize", "--input", "opt.pauli", "--state", "mps.json", "--pool", "pool.txt",
         "--output", "opt.json"],
    ]
    for argv in steps:
        rc, _, err = run([str(tmp_path / a) if a.endswith((".pauli", ".json", ".txt")) else a for a in argv])
        if rc != 0:
            break
    return argv[0], rc, err


class TestOptimizeHermiticity:
    def test_coefficients_spanning_1e16(self, tmp_path):
        # the 1e16 terms cancel in h: ||h|| is far below h's rounding, which
        # scales with sum |c| * ||N||
        op = "1e16 III\n1e16 IXX\n3.0 IYZ\n"
        assert optimize_chain(tmp_path, op, op) == ("optimize", 0, "")

    def test_non_hermitian_operator_is_refused(self, tmp_path):
        step, rc, err = optimize_chain(tmp_path, "1.0 XX\n0.5 ZZ\n", "1.0 XX\n0.5i ZZ\n")
        assert (step, rc, err) == ("optimize", 2, "error: effective Hamiltonian is not Hermitian\n")
        pencil = varopt.assemble_pencil(
            parse_pauli_sum("1.0 XX\n0.5i ZZ\n"),
            pool_from_text((tmp_path / "pool.txt").read_text()).strings,
            mps_from_json((tmp_path / "mps.json").read_text()),
        )
        with pytest.raises(ValueError, match="not Hermitian"):
            varopt.solve_ritz_dense(pencil)


class TestUsageValidation:
    def test_cut_zero_is_usage_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        rc, _, err = run(["compile", "--input", str(paths["op"]), "--cut",
                          "0", "--output", str(tmp_path / "x.json")])
        assert rc == 1
        assert "at least 1" in err

    @pytest.mark.parametrize("bond", ["0", "-3"])
    def test_groundstate_max_bond_below_one_is_usage_error(self, pipeline, tmp_path, bond):
        paths, _ = pipeline
        out = tmp_path / "mps.json"
        rc, _, err = run(["groundstate", "--input", str(paths["op"]), "--max-bond",
                          bond, "--output", str(out)])
        assert rc == 1
        assert "at least 1" in err
        assert not out.exists()

    def test_optimize_zero_roots_is_usage_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "opt.json"
        rc, _, err = run(["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                          "--pool", str(paths["pool"]), "--n-roots", "0", "--output", str(out)])
        assert rc == 1
        assert "at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value, low", [
        ("sample", "--n-samples", "0", 1),
        ("sample", "--n-samples", "-5", 1),
        ("optimize", "--max-iter", "0", 1),
        ("curate", "--keep-iz", "-1", 0),
    ])
    def test_count_below_minimum_is_usage_error(self, pipeline, tmp_path, command, option, value, low):
        paths, _ = pipeline
        out = tmp_path / "out.txt"
        argv = {
            "sample": ["sample", "--state", str(paths["mps"]), "--seed", "1"],
            "optimize": ["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                         "--pool", str(paths["pool"]), "--solver", "lobpcg"],
            "curate": ["curate", "--samples", str(paths["samples"])],
        }[command]
        rc, stdout, err = run([*argv, option, value, "--output", str(out)])
        assert rc == 1
        assert stdout == ""
        assert f"argument {option}: must be at least {low}, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("convert, token", [
        (positive_int, "1_0"), (positive_int, "٣"), (non_negative_int, "0_0"), (non_negative_int, "１"),
        (tolerance, "1_0e-3"), (tolerance, "٣e-3"), (tolerance, "1e-1_0"),
    ])
    def test_flag_numerals_must_be_ascii(self, convert, token):
        # int() and float() would read each token: 10, 3, 0, 1, 0.01, 0.003, 1e-10
        with pytest.raises(argparse.ArgumentTypeError, match=f"expected an ASCII number without '_', got {token!r}"):
            convert(token)

    def test_ascii_flag_numerals_still_read(self):
        assert (positive_int("10"), non_negative_int("0"), tolerance("1e-3")) == (10, 0, 1e-3)

    def test_cut_with_separator_is_usage_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "x.json"
        rc, stdout, err = run(["compile", "--input", str(paths["op"]), "--cut", "1_0", "--output", str(out)])
        assert (rc, stdout) == (1, "")
        assert "argument --cut: expected an ASCII number without '_', got '1_0'" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("command", ["verify", "optimize", "mpo"])
    def test_bad_tolerance_is_usage_error(self, pipeline, tmp_path, command, tol):
        paths, _ = pipeline
        out = tmp_path / "out.json"
        argv = {
            "verify": ["verify", "--input", str(paths["op"])],
            "optimize": ["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                         "--pool", str(paths["pool"]), "--solver", "lobpcg", "--output", str(out)],
            "mpo": ["mpo", "--input", str(paths["op"]), "--output", str(out)],
        }[command]
        rc, stdout, err = run([*argv, "--tol", tol])
        assert rc == 1
        assert stdout == ""
        assert "must be a finite number >= 0" in err
        assert not out.exists()

    def test_empty_operator_file(self, tmp_path):
        empty = tmp_path / "empty.pauli"
        empty.write_text("")
        rc, _, err = run(["compile", "--input", str(empty), "--cut", "1",
                          "--output", str(tmp_path / "x.json")])
        assert rc == 2


H2 = Path(__file__).resolve().parents[1] / "artifacts" / "h2"
BAD = "{bad}"  # placeholder for the mutated input in a reader's argv

# replacement values of another type, or NaN, for one JSON field or token
JSON_SWAPS = [None, "X", "", 1.5, -1, 0, True, [], {}, float("nan"), float("inf")]
TEXT_SWAPS = ["nan", "inf", "-1", "0", "1e400", "abc", "XQ", "IIIII", "", "#"]


def seed_mutations(params):
    return [p.values[-1] for p in params]


def pool_edit(mutate):
    """A POOL_MUTATIONS entry as an edit of the pool's lines."""
    if mutate is None:
        return lambda lines: [*lines, lines[1]]
    return lambda lines: [lines[0], " ".join(mutate(lines[1].split())), *lines[2:]]


def reader_cases(paths):
    """Per reader a subcommand reads: its h2 input, argv, seed mutations."""
    op, out = str(paths["op"]), str(paths["root"] / "property.out")
    return {
        "pauli": (paths["op"], ["mpo", "--input", BAD, "--output", out], []),
        "fermion": (paths["fermion"], ["jw", "--input", BAD, "--output", out],
                    seed_mutations(FERMION_MUTATIONS)),
        "bridge-v1": (H2 / "bridge.json", ["lcu", "--bridge", BAD, "--output", out],
                      seed_mutations(BRIDGE_MUTATIONS)),
        "lcu-v1": (H2 / "lcu.json", ["update", "--program", BAD, "--bridge", str(H2 / "bridge.json"),
                                     "--output", out], seed_mutations(PROGRAM_MUTATIONS)),
        "mps-v1": (H2 / "groundstate.json", ["sample", "--state", BAD, "--n-samples", "10", "--seed", "1",
                                            "--output", out], seed_mutations(CHAIN_MUTATIONS)),
        "samples-v1": (H2 / "samples.txt", ["curate", "--samples", BAD, "--output", out], []),
        "pool-v1": (H2 / "pool.txt", ["optimize", "--input", op, "--state", str(H2 / "groundstate.json"),
                                      "--pool", BAD, "--output", out],
                    [pool_edit(m) for m in seed_mutations(POOL_MUTATIONS)]),
    }


def json_nodes(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


@st.composite
def json_mutation(draw, doc):
    """One field of ``doc`` dropped, swapped for another type, set to NaN or emptied."""
    *path, key = draw(st.sampled_from([p for p in json_nodes(doc) if p]))
    parent = functools.reduce(lambda node, k: node[k], path, doc)
    action = draw(st.sampled_from(["drop", "swap", "empty"]))
    if action == "drop":
        del parent[key]
    elif action == "swap":
        parent[key] = draw(st.sampled_from(JSON_SWAPS))
    else:
        parent[key] = type(parent[key])() if isinstance(parent[key], (list, dict, str)) else []
    return doc


@st.composite
def text_mutation(draw, lines):
    """One line dropped, one token dropped or swapped, or the text emptied."""
    action = draw(st.sampled_from(["drop-line", "drop-token", "swap-token", "empty"]))
    if action == "empty" or not lines:
        return []
    k = draw(st.integers(0, len(lines) - 1))
    if action == "drop-line":
        return lines[:k] + lines[k + 1 :]
    tokens = lines[k].split()
    j = draw(st.integers(0, max(len(tokens) - 1, 0)))
    if action == "swap-token":
        tokens[j:j + 1] = [draw(st.sampled_from(TEXT_SWAPS))]
    elif tokens:
        # a header token keeps its key: n_sites=4 becomes n_sites=
        tokens[j] = tokens[j].split("=")[0] + "=" if "=" in tokens[j] else ""
    return lines[:k] + [" ".join(tokens)] + lines[k + 1 :]


class TestReaderProperty:
    @given(st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_reader_exits_zero_or_data_error(self, pipeline, data):
        paths, _ = pipeline
        cases = reader_cases(paths)
        name = data.draw(st.sampled_from(sorted(cases)), label="reader")
        source, argv, seeds = cases[name]
        is_json = source.suffix == ".json"
        original = json.loads(source.read_text()) if is_json else source.read_text().splitlines()
        if seeds and data.draw(st.booleans(), label="seeded"):
            # JSON seeds edit the document in place; pool edits return new lines
            edited = data.draw(st.sampled_from(seeds), label="seed")(original)
            mutated = original if is_json else edited
        else:
            mutated = data.draw(json_mutation(original) if is_json else text_mutation(original))
        bad = paths["root"] / f"property{source.suffix}"
        bad.write_text(json.dumps(mutated) if is_json else "\n".join(mutated) + "\n")
        rc, _, err = run([str(bad) if a == BAD else a for a in argv])
        assert rc in (0, 2), f"{name}: exit {rc}\n{err}"
        if rc == 2:
            [line] = err.splitlines()
            assert line.startswith("error: ")


_layout_coeffs = st.one_of(st.sampled_from([1.0, -0.5, 1e-05, 1e16]),
                           st.floats(-10, 10).filter(lambda x: abs(x) > 1e-3))


@st.composite
def layout_operators(draw):
    """Distinct labels on 2 to 4 sites; complex coefficients for the compiler
    and real ones for the variational chain."""
    n = draw(st.integers(2, 4))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=6, unique=True))
    k = len(labels)
    re = draw(st.lists(_layout_coeffs, min_size=k, max_size=k))
    im = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, -3.0]), min_size=k, max_size=k))
    herm = draw(st.lists(_layout_coeffs, min_size=k, max_size=k))
    return n, labels, re, im, herm


class TestJsonLayout:
    @BYTE_IDENTITY
    @given(layout_operators())
    def test_every_document_is_json_dumps_indent_2(self, case):
        # every JSON file the CLI writes: bridge-v1 at every cut, lcu-v1 from
        # lcu and update, mpo-v1, mps-v1, optimize-v1 and the manifests
        n, labels, re, im, herm = case
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "op.pauli").write_text("".join(f"{x!r}{y:+}i {s}\n" for x, y, s in zip(re, im, labels)))
            (d / "herm.pauli").write_text("".join(f"{x!r} {s}\n" for x, s in zip(herm, labels)))
            steps = [["compile", "--input", d / "op.pauli", "--cut", c, "--output", d / f"bridge{c}.json"]
                     for c in range(1, n)]
            steps += [
                ["lcu", "--bridge", d / "bridge1.json", "--output", d / "lcu.json"],
                ["update", "--program", d / "lcu.json", "--bridge", d / "bridge1.json",
                 "--output", d / "updated.json"],
                ["mpo", "--input", d / "op.pauli", "--output", d / "mpo.json"],
                ["groundstate", "--input", d / "herm.pauli", "--output", d / "mps.json"],
                ["sample", "--state", d / "mps.json", "--n-samples", "20", "--seed", "1",
                 "--output", d / "samples.txt"],
                ["curate", "--samples", d / "samples.txt", "--output", d / "pool.txt"],
                ["optimize", "--input", d / "herm.pauli", "--state", d / "mps.json",
                 "--pool", d / "pool.txt", "--output", d / "opt.json"],
            ]
            for argv in steps:
                rc, _, err = run([str(a) for a in argv])
                assert rc == 0, err
            written = sorted(d.glob("*.json"))
            # n - 1 bridges, five more documents, a manifest for each step
            assert len(written) == (n - 1 + 5) + len(steps)
            for path in written:
                text = path.read_text()
                assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name
