"""End-to-end tests for the command-line interface.

A module-scoped fixture drives the whole pipeline once on the four-site
fixture operator; individual tests then assert on the artifacts, the
captured stdout, exit codes, and manifest determinism.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from paulibridge import __version__
from paulibridge.bridge import compile as compile_bridge
from paulibridge.bridge import decomposition_from_json, decomposition_to_json
from paulibridge.cli import main
from paulibridge.lcu import program_from_json
from paulibridge.mpo import mpo_from_json
from paulibridge.mps import mps_from_json
from paulibridge.pauli import PauliString, PauliSum, parse_pauli_sum, serialize_pauli_sum, to_dense
from paulibridge.sampler import pool_from_text, samples_from_text

from conftest import FIXTURES, random_pauli_sum


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
        assert samples.size == 400

    def test_pool_counts(self, pipeline):
        paths, _ = pipeline
        pool = pool_from_text(paths["pool"].read_text())
        assert pool.n_samples == 400
        samples, _ = samples_from_text(paths["samples"].read_text())
        n_identity = int(np.count_nonzero(samples == 0))
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

    def test_verify_all_pass(self, pipeline):
        _, stdout = pipeline
        lines = [l for l in stdout["verify"].splitlines() if l]
        assert len(lines) == 11
        assert all(l.endswith(" pass") for l in lines)
        assert sum("block_encoding" in l for l in lines) == 3


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

    def test_lobpcg_no_iterations_is_numerical_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        rc, _, err = run(["optimize", "--input", str(paths["op"]), "--state",
                          str(paths["mps"]), "--pool", str(paths["pool"]),
                          "--solver", "lobpcg", "--max-iter", "0",
                          "--output", str(tmp_path / "out.json")])
        assert rc == 3
        assert "error:" in err


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "paulibridge.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__


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
        assert "block_encoding PASS" in stdout

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

    @pytest.mark.parametrize("field, mutate", [
        pytest.param("select[0].a", lambda d: d["select"][0].update(a=99), id="select-index-out-of-range"),
        pytest.param("prep[0].amp", lambda d: d["prep"][0].update(amp=None), id="null-amplitude"),
        pytest.param("prep[1].b", lambda d: d["prep"][1].update(b=-1), id="prep-index-negative"),
        pytest.param("prep[0].a", lambda d: d["prep"][0].update(a="0"), id="prep-index-string"),
        pytest.param("select[2].phase_re", lambda d: d["select"][2].update(phase_re=float("nan")), id="nan-phase"),
        pytest.param("select[1].phase_im", lambda d: d["select"][1].update(phase_im=True), id="bool-phase"),
        pytest.param("select[0].a", lambda d: d["select"].__setitem__(0, 3), id="select-row-not-object"),
        pytest.param("prep", lambda d: [row.update(amp=2 * row["amp"]) for row in d["prep"]], id="prep-norm-two"),
        pytest.param("a_left", lambda d: d.update(a_left=7), id="a-left-too-wide"),
        pytest.param("a_right", lambda d: d.update(a_right=None), id="a-right-null"),
        pytest.param("n_sites", lambda d: d.update(n_sites="4"), id="n-sites-string"),
        pytest.param("cut", lambda d: d.update(cut=4), id="cut-at-end"),
        pytest.param("lambda", lambda d: d.update(**{"lambda": -1.0}), id="lambda-negative"),
        pytest.param("lambda", lambda d: d.update(**{"lambda": float("inf")}), id="lambda-infinite"),
        pytest.param("left[0]", lambda d: d["left"].__setitem__(0, "IIZ"), id="label-wrong-width"),
        pytest.param("right", lambda d: d.update(right={}), id="right-not-list"),
        pytest.param("select_hash", lambda d: d.pop("select_hash"), id="select-hash-missing"),
        pytest.param("prep[4]", lambda d: d["prep"][4].update(b=1), id="prep-pair-without-select-row"),
        pytest.param("prep[1]", lambda d: d["prep"][1].update(a=0, b=0), id="prep-pair-twice"),
        pytest.param("select[1]", lambda d: d["select"][1].update(
            a=0, b=0, pl=d["left"][0], pr=d["right"][0]), id="select-pair-twice"),
    ])
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


class TestVerifyBeyondOldCeiling:
    """Battery runs whose walk unitaries exceed 12 qubits, which a dense
    check of (Prep^dag x I) Select (Prep x I) used to refuse."""

    @staticmethod
    def battery(tmp_path, op):
        src = tmp_path / "op.pauli"
        src.write_text(serialize_pauli_sum(op))
        return run(["verify", "--input", str(src)])

    def test_five_sites_ten_terms(self, tmp_path):
        # ten distinct two-site and three-site halves: 5 + 4 + 4 = 13
        # qubits at cut 2
        def word(k, width):
            return "".join("IXYZ"[(k >> (2 * j)) & 3] for j in range(width))

        op = PauliSum(5, [(0.1 * (k + 1), PauliString.from_label(word(k, 2) + word(3 * k + 1, 3)))
                          for k in range(10)])
        rc, stdout, _ = self.battery(tmp_path, op)
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
    def test_sweep_csv(self, pipeline, tmp_path):
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


class TestUsageValidation:
    def test_cut_zero_is_usage_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        rc, _, err = run(["compile", "--input", str(paths["op"]), "--cut",
                          "0", "--output", str(tmp_path / "x.json")])
        assert rc == 1
        assert "at least 1" in err

    def test_empty_operator_file(self, tmp_path):
        empty = tmp_path / "empty.pauli"
        empty.write_text("")
        rc, _, err = run(["compile", "--input", str(empty), "--cut", "1",
                          "--output", str(tmp_path / "x.json")])
        assert rc == 2
