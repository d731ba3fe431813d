"""End-to-end tests for the command-line interface.

A module-scoped fixture drives the whole pipeline once on the four-site
fixture operator; individual tests then assert on the artifacts, the
captured stdout, exit codes, and manifest determinism.
"""

import argparse
import builtins
import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paulibridge import __version__, cli, lcu, varopt
from paulibridge.bridge import compile as compile_bridge
from paulibridge.bridge import set_bridge, skeleton_hash
from paulibridge.bridge import decomposition_from_json, decomposition_to_json
from paulibridge.cli import main, non_negative_int, positive_int, tolerance
from paulibridge.fermion import load_fermion_terms, map_hamiltonian
from paulibridge.lcu import program_from_json
from paulibridge.mpo import mpo_from_json
from paulibridge.mps import DEGENERACY_TOL, Mps, ground_state_reference, mps_from_json, mps_to_json
from paulibridge.pauli import PauliSum, parse_pauli_sum, serialize_pauli_sum, to_dense
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
    count_calls,
    count_dense_solves,
    evict_memos,
    jw12_document,
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

    @pytest.mark.parametrize("key, name", [
        ("bridge", "bridge.json"), ("mpo", "mpo.json"), ("mps", "groundstate.json"), ("samples", "samples.txt"),
        ("pool", "pool.txt"), ("lcu", "lcu.json"), ("gates", "gates.txt"),
    ])
    def test_outputs_equal_the_frozen_h2_files(self, pipeline, key, name):
        # compile --cut 2, mpo, groundstate, sample --n-samples 400 --seed 7,
        # curate and lcu --gates write the bytes scripts/h2_pipeline.py froze
        paths, _ = pipeline
        assert paths[key].read_bytes() == (H2 / name).read_bytes()

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
        assert pool.counts.sum() == 400 - n_identity

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
        op = parse_pauli_sum(paths["op"].read_text())
        assert doc["reference_energy"] == pytest.approx(scipy.linalg.eigvalsh(to_dense(op))[0], abs=1e-12)

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
                "command", "inputs", "outputs", "parameters", "environment", "versions"
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


def h2_chain(root):
    """Every writing subcommand on the h2 fixtures: (argv, input paths, output paths)."""
    p = {name: str(root / name) for name in (
        "fermion.json", "op.pauli", "jw.pauli", "bridge.json", "mpo.json", "mps.json", "samples.txt",
        "pool.txt", "opt.json", "sweep.csv", "lcu.json", "gates.txt", "updated.json")}
    (root / "fermion.json").write_text((FIXTURES / "number_op.json").read_text())
    (root / "op.pauli").write_text((FIXTURES / "h2_subset.pauli").read_text())
    return [
        (["jw", "--input", p["fermion.json"], "--output", p["jw.pauli"]], [p["fermion.json"]], [p["jw.pauli"]]),
        (["compile", "--input", p["op.pauli"], "--cut", "2", "--output", p["bridge.json"]],
         [p["op.pauli"]], [p["bridge.json"]]),
        (["mpo", "--input", p["op.pauli"], "--verify", "--output", p["mpo.json"]], [p["op.pauli"]], [p["mpo.json"]]),
        (["groundstate", "--input", p["op.pauli"], "--output", p["mps.json"]], [p["op.pauli"]], [p["mps.json"]]),
        (["sample", "--state", p["mps.json"], "--n-samples", "400", "--seed", "7", "--output", p["samples.txt"]],
         [p["mps.json"]], [p["samples.txt"]]),
        (["curate", "--samples", p["samples.txt"], "--output", p["pool.txt"]], [p["samples.txt"]], [p["pool.txt"]]),
        (["optimize", "--input", p["op.pauli"], "--state", p["mps.json"], "--pool", p["pool.txt"],
          "--sweep-csv", p["sweep.csv"], "--sweep-sizes", "10", "25", "--output", p["opt.json"]],
         [p["op.pauli"], p["mps.json"], p["pool.txt"]], [p["opt.json"], p["sweep.csv"]]),
        (["lcu", "--bridge", p["bridge.json"], "--output", p["lcu.json"], "--gates", p["gates.txt"]],
         [p["bridge.json"]], [p["lcu.json"], p["gates.txt"]]),
        (["update", "--program", p["lcu.json"], "--bridge", p["bridge.json"], "--output", p["updated.json"]],
         [p["lcu.json"], p["bridge.json"]], [p["updated.json"]]),
    ]


def jw12_chain(root):
    """The coefficient update at the dense limit, on jw12: jw, mpo --verify, compile --cut 6 and lcu --gates,
    then compile of the same strings with every coefficient rescaled and update of the program to that bridge."""
    p = {name: str(root / name) for name in (
        "fermion.json", "op.pauli", "mpo.json", "bridge.json", "lcu.json", "gates.txt", "rescaled.pauli",
        "rescaled.json", "updated.json")}
    (root / "fermion.json").write_text(jw12_document())
    n_modes, terms = load_fermion_terms(jw12_document())
    op = map_hamiltonian(terms, n_modes)  # the sum jw writes
    factors = np.random.default_rng(12).uniform(0.5, 2.0, op.n_terms)
    (root / "rescaled.pauli").write_text(
        serialize_pauli_sum(PauliSum.from_rows(op.n_sites, op.rows, op.coeffs * factors)))
    return [
        (["jw", "--input", p["fermion.json"], "--output", p["op.pauli"]], [p["fermion.json"]], [p["op.pauli"]]),
        (["mpo", "--input", p["op.pauli"], "--verify", "--output", p["mpo.json"]], [p["op.pauli"]], [p["mpo.json"]]),
        (["compile", "--input", p["op.pauli"], "--cut", "6", "--output", p["bridge.json"]],
         [p["op.pauli"]], [p["bridge.json"]]),
        (["lcu", "--bridge", p["bridge.json"], "--output", p["lcu.json"], "--gates", p["gates.txt"]],
         [p["bridge.json"]], [p["lcu.json"], p["gates.txt"]]),
        (["compile", "--input", p["rescaled.pauli"], "--cut", "6", "--output", p["rescaled.json"]],
         [p["rescaled.pauli"]], [p["rescaled.json"]]),
        (["update", "--program", p["lcu.json"], "--bridge", p["rescaled.json"], "--output", p["updated.json"]],
         [p["lcu.json"], p["rescaled.json"]], [p["updated.json"]]),
    ]


def chains(root):
    """h2_chain then jw12_chain, each in its own directory under ``root``."""
    (root / "h2").mkdir()
    (root / "jw12").mkdir()
    return h2_chain(root / "h2") + jw12_chain(root / "jw12")


def test_jw12_update_keeps_select_and_encodes_the_rescaled_operator(tmp_path):
    # the paper's claim at the dense limit: Select is compiled once and an update changes only Prep
    stages = ("jw", "mpo --verify", "compile --cut 6", "lcu --gates", "compile --cut 6, rescaled", "update")
    fields, walls = [], {}
    for stage, (argv, _, _) in zip(stages, jw12_chain(tmp_path), strict=True):
        start = time.perf_counter()
        rc, out, err = run(argv)
        walls[stage] = time.perf_counter() - start
        assert (rc, err) == (0, ""), stage
        fields.append(dict(line.split(" ", 1) for line in out.splitlines()))
    start = time.perf_counter()
    rc, out, err = run(["verify", "--input", str(tmp_path / "rescaled.pauli"),
                        "--program", str(tmp_path / "updated.json")])
    walls["verify --program"] = time.perf_counter() - start
    print("jw12 stage walls: " + ", ".join(f"{stage} {wall:.2f} s" for stage, wall in walls.items()))
    assert (rc, err) == (0, "") and out.startswith("block_encoding PASS ")
    jw, mpo, compiled, program, rescaled, updated = fields
    assert jw == {"n_sites": "12", "n_terms": "1429"}
    assert mpo["bond_dims"] == "1 4 8 22 38 58 62 52 30 18 10 4 1"
    assert float(mpo["reconstruction_error"]) <= 1e-10
    for bridge in (compiled, rescaled):
        assert (bridge["left_fragments"], bridge["right_fragments"], bridge["active_pairs"]) == ("247", "183", "1429")
    assert rescaled["structural_hash"] == compiled["structural_hash"]
    assert updated["select_hash"] == program["select_hash"]
    assert updated["lambda"] != program["lambda"]
    gates = (tmp_path / "gates.txt").read_text().splitlines()
    assert sum(line.startswith("cpauli ") for line in gates) == 1429


def refused_jw(root):
    """jw on the two one-mode documents whose sums the Pauli text cannot hold, each with the error it exits 2
    with: four terms whose merged coefficients overflow, and two that cancel."""
    chain = []
    for name, coeffs, error in (("overflow", [1.7e308] * 4, r"coefficient \(inf\+0j\) of I is not finite"),
                                ("cancel", [1.0, -1.0], "no terms to write")):
        terms = [{"kind": "one_body", "indices": [0, 0], "coeff": c} for c in coeffs]
        (root / f"{name}.json").write_text(json.dumps({"n": 1, "terms": terms}))
        chain.append((["jw", "--input", str(root / f"{name}.json"), "--output", str(root / f"{name}.pauli")], error))
    return chain


class TestHandoff:
    """main keeps the last Pauli-text, bridge-v1 and lcu-v1 document it wrote or read, and a later read of
    the same bytes returns that object unparsed."""

    READERS = ("parse_pauli_sum", "decomposition_from_json", "program_from_json")

    def test_refused_jw_exits_2_and_writes_nothing(self, tmp_path):
        for argv, error in refused_jw(tmp_path):
            rc, out, err = run(argv)
            assert (rc, out) == (2, "") and re.fullmatch(f"error: {error}\n", err), argv
            assert not Path(argv[-1]).exists() and not Path(f"{argv[-1]}.manifest.json").exists()

    def test_chain_is_byte_identical_with_every_memo_cleared(self, tmp_path, monkeypatch):
        # jw, compile, mpo, lcu, rescaled compile, update and verify --program on jw12, then both refused jw
        chain = [argv for argv, _, _ in jw12_chain(tmp_path)]
        chain[1], chain[2] = chain[2], chain[1]
        chain.append(["verify", "--input", str(tmp_path / "rescaled.pauli"),
                      "--program", str(tmp_path / "updated.json")])
        chain += [argv for argv, _ in refused_jw(tmp_path)]
        inputs = set(tmp_path.iterdir())
        runs = []
        for clear in (False, True):
            with monkeypatch.context() as m:
                calls = {name: count_calls(m, cli, name) for name in self.READERS}
                results = []
                for argv in chain:
                    if clear:
                        evict_memos()
                    results.append(run(argv))
            written = sorted(set(tmp_path.iterdir()) - inputs)  # outputs and manifests
            runs.append((results, {p.name: p.read_bytes() for p in written}, {k: len(v) for k, v in calls.items()}))
            for path in written:
                path.unlink()
        (kept, kept_files, kept_calls), (cleared, cleared_files, cleared_calls) = runs
        assert kept == cleared and kept_files == cleared_files
        assert [rc for rc, _, _ in kept] == [0] * 7 + [2, 2]
        assert len(kept_files) == 2 * 6 + 1  # gates.txt has no manifest of its own
        # parsed with the memo: only the rescaled operator, which a test wrote; without it, every chain-format read
        assert kept_calls == {"parse_pauli_sum": 1, "decomposition_from_json": 0, "program_from_json": 0}
        assert cleared_calls == {"parse_pauli_sum": 4, "decomposition_from_json": 2, "program_from_json": 2}

    def test_manifest_names_the_blas_thread_setting(self, tmp_path):
        # as the process saw it, null when unset; reruns under one setting stay byte identical
        (tmp_path / "op.pauli").write_text((FIXTURES / "h2_subset.pauli").read_text())
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "paulibridge.cli", "compile", "--input", "op.pauli", "--cut", "2",
                "--output", "bridge.json"]
        manifests = []
        for value in (None, "1", "1"):
            extra = {} if value is None else {"OPENBLAS_NUM_THREADS": value}
            assert subprocess.run(argv, cwd=tmp_path, env=env | extra, capture_output=True).returncode == 0
            manifests.append((tmp_path / "bridge.json.manifest.json").read_bytes())
            assert json.loads(manifests[-1])["environment"] == {"OPENBLAS_NUM_THREADS": value}
        assert manifests[1] == manifests[2] != manifests[0]


WRITERS = ("jw", "compile", "mpo", "groundstate", "sample", "curate", "optimize", "lcu", "update")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestWriter:
    def test_each_input_read_once_and_each_output_written_once(self, tmp_path, monkeypatch):
        real_open, real_os_open = io.open, os.open
        opened = []
        inside = []  # the open() calls under way: an os.open they make is theirs, not another open

        def counting_open(file, mode="r", *args, **kwargs):
            opened.append((str(file), "w" if set(mode) & set("wax+") else "r"))
            inside.append(file)
            try:
                return real_open(file, mode, *args, **kwargs)
            finally:
                inside.pop()

        def counting_os_open(path, flags, *args, **kwargs):
            # a writer that bypasses open() is counted too
            if flags & (os.O_WRONLY | os.O_RDWR) and not inside:
                opened.append((str(path), "w"))
            return real_os_open(path, flags, *args, **kwargs)

        for argv, inputs, outputs in chains(tmp_path):
            opened.clear()
            with monkeypatch.context() as m:
                m.setattr(io, "open", counting_open)
                m.setattr(builtins, "open", counting_open)
                m.setattr(os, "open", counting_os_open)
                rc, _, err = run(argv)
            assert (rc, err) == (0, ""), argv[0]
            manifest = f"{outputs[0]}.manifest.json"
            want = [(p, "r") for p in inputs] + [(p, "w") for p in outputs] + [(manifest, "w")]
            assert sorted(o for o in opened if o[0].startswith(str(tmp_path))) == sorted(want), argv[0]

    def test_manifest_hashes_are_the_files_on_disk(self, tmp_path):
        for argv, inputs, outputs in chains(tmp_path):
            assert run(argv)[0] == 0, argv[0]
            doc = json.loads(Path(f"{outputs[0]}.manifest.json").read_text())
            assert doc["command"] == argv[0]
            assert doc["inputs"] == {p: sha256(p) for p in inputs}, argv[0]
            assert doc["outputs"] == {p: sha256(p) for p in outputs}, argv[0]
            if argv[0] == "optimize":
                # optimize-v1 keeps its solver field; the manifest has no LOBPCG parameters
                assert doc["parameters"] == {"n_roots": 1, "seed": 0, "sweep_sizes": [10, 25]}
                assert json.loads(Path(outputs[0]).read_text())["solver"] == "dense"

    @pytest.mark.parametrize("step", range(len(WRITERS)), ids=WRITERS)
    def test_output_is_required_and_manifest_goes_where_named(self, tmp_path, step):
        chain = h2_chain(tmp_path)
        for argv, _, _ in chain[:step]:  # the inputs of this step
            assert run(argv)[0] == 0, argv[0]
        argv, inputs, outputs = chain[step]
        assert argv[0] == WRITERS[step]
        k = argv.index("--output")
        rc, _, err = run(argv[:k] + argv[k + 2:])
        assert rc == 1 and "the following arguments are required: --output" in err
        assert not Path(outputs[0]).exists()
        manifest = tmp_path / "elsewhere" / "m.json"
        manifest.parent.mkdir()
        assert run([*argv, "--manifest", str(manifest)])[0] == 0
        assert not Path(f"{outputs[0]}.manifest.json").exists()
        doc = json.loads(manifest.read_text())
        assert (doc["command"], doc["inputs"]) == (argv[0], {p: sha256(p) for p in inputs})
        assert doc["outputs"] == {p: sha256(p) for p in outputs}

    # longer than jw12's mpo.json, about 1.06 MB; named, as the bytes would make an 8 MB test id
    @pytest.mark.parametrize("case, stale", [pytest.param("longer", b"\xff" * 2**21, id="longer"),
                                             ("shorter", b"#")])
    def test_rerun_over_stale_files_writes_the_bytes_of_a_fresh_run(self, tmp_path, case, stale):
        # every output and manifest is overwritten in place and cut to length: nothing stale is left
        chain = chains(tmp_path)
        written = [p for _, _, outputs in chain for p in [*outputs, f"{outputs[0]}.manifest.json"]]
        fresh = [run(argv) for argv, _, _ in chain]
        assert [rc for rc, _, _ in fresh] == [0] * len(chain)
        snapshot = {p: Path(p).read_bytes() for p in written}
        sizes = [len(data) for data in snapshot.values()]
        assert max(sizes) < len(stale) if case == "longer" else min(sizes) > len(stale)
        for p in written:
            Path(p).write_bytes(stale)
        evict_memos()
        assert [run(argv) for argv, _, _ in chain] == fresh
        assert {p: Path(p).read_bytes() for p in written} == snapshot

    def test_output_to_dev_null_is_written_and_hashed(self, tmp_path, h2_text):
        # a character device is written and never cut to length
        src, bridge, manifest = tmp_path / "op.pauli", tmp_path / "b.json", tmp_path / "m.json"
        src.write_text(h2_text)
        argv = ["compile", "--input", str(src), "--cut", "2", "--output"]
        assert run([*argv, str(bridge)])[0] == 0
        rc, _, err = run([*argv, "/dev/null", "--manifest", str(manifest)])
        assert (rc, err) == (0, "")
        assert json.loads(manifest.read_text())["outputs"] == {"/dev/null": sha256(bridge)}

    def test_output_naming_a_directory_is_refused(self, tmp_path, h2_text):
        src, out = tmp_path / "op.pauli", tmp_path / "out"
        src.write_text(h2_text)
        out.mkdir()
        rc, _, err = run(["compile", "--input", str(src), "--cut", "2", "--output", str(out)])
        assert (rc, err) == (2, f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.pauli", "out"] and not any(out.iterdir())

    def test_failed_mpo_verify_writes_nothing(self, tmp_path):
        # 13 sites: the MPO compiles, the coefficient check refuses it
        n = 13
        src, out = tmp_path / "chain.pauli", tmp_path / "mpo.json"
        src.write_text("".join(f"0.5 {'I' * i}ZZ{'I' * (n - i - 2)}\n" for i in range(n - 1)))
        rc, stdout, err = run(["mpo", "--input", str(src), "--verify", "--output", str(out)])
        assert (rc, stdout) == (2, "")
        assert err == "error: 13 sites exceeds dense limit 12\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.pauli"]

    def test_summary_is_printed_after_the_write_with_its_bytes(self, tmp_path, monkeypatch):
        # nothing reaches stdout before _write returns; then the summary, as the subcommand printed it
        write, streams, held = cli._write, [], []

        def recording(args, *written):
            held.append(streams[-1].getvalue())
            write(args, *written)

        monkeypatch.setattr(cli, "_write", recording)
        select = "select_hash 398428e4002c4beaaa9209d92d80321593cf9b7f73604f6b60ef8d3cefa3b786\n"
        want = {
            "jw": "n_sites 1\nn_terms 2\n",
            "compile": "left_fragments 6\nright_fragments 5\nactive_pairs 9\n"
                       "structural_hash eea2dc128223e0057b2c45cf684decec03e8feb7a27ceb2dc6a46c733848188d\n",
            "mpo": r"bond_dims 1 4 5 3 1\nreconstruction_error \d\.\d{3}e-\d\d\n",
            "groundstate": "energy -0.800788795020\ngap 0.005510000000\n",
            "sample": "n_samples 400\n",
            "curate": "offdiagonal 6\ndiagonal 15\n",
            "optimize": "energy -0.800788795020\nreference -0.800788795020\nsweep_rows 2\n",
            "lcu": "lambda 1.212874000000\nancillas 6\n" + select,
            "update": "lambda 1.212874000000\n" + select,
        }
        for argv, _, outputs in h2_chain(tmp_path):
            streams.append(io.StringIO())
            with contextlib.redirect_stdout(streams[-1]):
                assert main(argv) == 0, argv[0]
            assert held.pop() == ""
            stdout = streams[-1].getvalue()
            if argv[0] == "mpo":
                assert re.fullmatch(want["mpo"], stdout)
            else:
                assert stdout == want[argv[0]]
            assert all(Path(path).exists() for path in outputs)

    @staticmethod
    def snapshot(root):
        return {p.name: p.is_file() and p.read_bytes() for p in sorted(root.iterdir())}

    @pytest.mark.parametrize("manifest, flag, path", [
        pytest.param("b.json", "--output", "b.json", id="output"),
        pytest.param("sub/../op.pauli", "--input", "op.pauli", id="input"),
        pytest.param("link.json", "--output", "b.json", id="symlink-to-output"),
    ])
    def test_manifest_naming_a_file_of_the_call_is_refused(self, tmp_path, h2_text, manifest, flag, path):
        # another spelling of the same file, or a link to it, is caught too
        (tmp_path / "sub").mkdir()
        (tmp_path / "op.pauli").write_text(h2_text)
        (tmp_path / "b.json").write_text("an earlier bridge\n")
        (tmp_path / "link.json").symlink_to("b.json")
        manifest, path = str(tmp_path / manifest), str(tmp_path / path)
        before = self.snapshot(tmp_path)
        rc, stdout, err = run(["compile", "--input", str(tmp_path / "op.pauli"), "--cut", "2",
                               "--output", str(tmp_path / "b.json"), "--manifest", manifest])
        assert (rc, stdout) == (2, "")  # no summary of a compile whose outputs were refused
        assert err == f"error: manifest {manifest} is the same file as {flag} {path}; choose another --manifest\n"
        assert self.snapshot(tmp_path) == before

    def test_default_manifest_naming_an_output_is_refused(self, tmp_path, h2_text):
        # lcu's default manifest x.json.manifest.json is also its --gates listing
        src, bridge, program = tmp_path / "op.pauli", tmp_path / "b.json", tmp_path / "x.json"
        src.write_text(h2_text)
        assert run(["compile", "--input", str(src), "--cut", "2", "--output", str(bridge)])[0] == 0
        gates = f"{program}.manifest.json"
        before = self.snapshot(tmp_path)
        rc, stdout, err = run(["lcu", "--bridge", str(bridge), "--output", str(program), "--gates", gates])
        assert (rc, stdout) == (2, "")
        assert err == f"error: manifest {gates} is the same file as --gates {gates}; choose another --manifest\n"
        assert self.snapshot(tmp_path) == before

    @pytest.mark.parametrize("command, flag", [("lcu", "--gates"), ("optimize", "--sweep-csv")])
    def test_two_outputs_naming_one_file_are_refused(self, tmp_path, command, flag):
        # one of the two would be lost, and the manifest would list one output
        chain = h2_chain(tmp_path)
        step = next(k for k, (argv, _, _) in enumerate(chain) if argv[0] == command)
        for argv, _, _ in chain[:step]:
            assert run(argv)[0] == 0, argv[0]
        argv, _, _ = chain[step]
        output = argv[argv.index("--output") + 1]
        argv[argv.index(flag) + 1] = output
        before = self.snapshot(tmp_path)
        rc, stdout, err = run(argv)
        assert (rc, stdout) == (2, "")
        assert err == f"error: {flag} {output} is the same file as --output {output}; choose another {flag}\n"
        assert self.snapshot(tmp_path) == before

    def test_groundstate_max_bond_prints_the_discarded_weight(self, tmp_path, h2_text):
        src = tmp_path / "op.pauli"
        src.write_text(h2_text)
        argv = ["groundstate", "--input", str(src), "--output", str(tmp_path / "mps.json")]
        rc, exact, _ = run(argv)
        assert rc == 0 and "discarded_weight" not in exact
        rc, truncated, _ = run([*argv, "--max-bond", "1"])
        lines = truncated.splitlines()
        assert rc == 0 and lines[:2] == exact.splitlines()
        discarded = ground_state_reference(parse_pauli_sum(h2_text), max_bond=1).discarded
        assert lines[2:] == [f"discarded_weight {discarded:.12e}"] and discarded > 0.01

    @pytest.mark.parametrize("command", ["compile", "groundstate"])
    def test_every_subcommand_prints_its_warnings(self, tmp_path, command, monkeypatch):
        # main catches them for all: groundstate on a degenerate operator,
        # compile through a bridge compiler patched to warn
        src = tmp_path / "op.pauli"
        src.write_text("1.0 ZI\n")
        real = cli.compile_bridge

        def warning_compile(op, cut):
            warnings.warn("patched", UserWarning)
            return real(op, cut)

        monkeypatch.setattr(cli, "compile_bridge", warning_compile)
        extra = ["--cut", "1"] if command == "compile" else []
        rc, _, err = run([command, "--input", str(src), *extra, "--output", str(tmp_path / "out")])
        assert rc == 0
        assert err == ("warning: patched\n" if command == "compile" else
                       f"warning: spectral gap {0:.3e} below {DEGENERACY_TOL:.3e}\n")

    def test_groundstate_warns_on_a_gap_below_the_tolerance(self, tmp_path):
        # a gap of 5e-9, between DEGENERACY_TOL / 10 and DEGENERACY_TOL, still gets the warning line
        src = tmp_path / "op.pauli"
        src.write_text("-1 ZI\n-2.5e-9 IZ\n")
        rc, _, err = run(["groundstate", "--input", str(src), "--output", str(tmp_path / "mps.json")])
        assert rc == 0
        assert err == f"warning: spectral gap {5e-9:.3e} below {DEGENERACY_TOL:.3e}\n"

    def test_update_in_place_records_the_program_it_read(self, tmp_path, h2_text):
        src, scaled = tmp_path / "op.pauli", tmp_path / "scaled.pauli"
        program, bridge, scaled_bridge = tmp_path / "lcu.json", tmp_path / "bridge.json", tmp_path / "scaled.json"
        src.write_text(h2_text)
        op = parse_pauli_sum(h2_text)
        scaled.write_text(serialize_pauli_sum(PauliSum.from_rows(op.n_sites, op.rows, 2 * op.coeffs)))
        for argv in (["compile", "--input", str(src), "--cut", "2", "--output", str(bridge)],
                     ["compile", "--input", str(scaled), "--cut", "2", "--output", str(scaled_bridge)],
                     ["lcu", "--bridge", str(bridge), "--output", str(program)]):
            assert run(argv)[0] == 0
        before = sha256(program)
        rc, _, err = run(["update", "--program", str(program), "--bridge", str(scaled_bridge),
                          "--output", str(program)])
        assert (rc, err) == (0, "")
        doc = json.loads(Path(f"{program}.manifest.json").read_text())
        assert doc["inputs"] == {str(program): before, str(scaled_bridge): sha256(scaled_bridge)}
        assert doc["outputs"] == {str(program): sha256(program)}
        assert sha256(program) != before


class TestDeterminism:
    def test_sample_seed_reproducible(self, pipeline, tmp_path):
        paths, _ = pipeline
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            evict_memos()
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


JSON_READERS = [
    (load_fermion_terms, "fermion"),
    (decomposition_from_json, "bridge-v1"),
    (program_from_json, "lcu-v1"),
    (mps_from_json, "mps-v1"),
    (mpo_from_json, "mpo-v1"),
]


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

    @pytest.mark.parametrize("flag", ["--output", "--manifest"])
    def test_verify_writes_nothing_so_takes_no_output_flag(self, tmp_path, h2_text, flag):
        src = tmp_path / "op.pauli"
        src.write_text(h2_text)
        rc, out, err = run(["verify", "--input", str(src), flag, str(tmp_path / "x")])
        assert (rc, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: {flag} {tmp_path / 'x'}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.pauli"]

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

    @pytest.mark.parametrize("command, flag, fmt", [
        ("jw", "--input", "fermion"),
        ("lcu", "--bridge", "bridge-v1"),
        ("update", "--program", "lcu-v1"),
        ("sample", "--state", "mps-v1"),
        ("optimize", "--state", "mps-v1"),
        ("verify", "--program", "lcu-v1"),
    ])
    def test_deeply_nested_json_is_data_error(self, pipeline, tmp_path, command, flag, fmt):
        # too deep for json.loads, which raises RecursionError rather than a ValueError
        paths, _ = pipeline
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        rest = {
            "update": ["--bridge", paths["bridge"]],
            "sample": ["--n-samples", "10", "--seed", "1"],
            "optimize": ["--input", paths["op"], "--pool", paths["pool"]],
            "verify": ["--input", paths["op"]],
        }.get(command, [])
        out = [] if command == "verify" else ["--output", tmp_path / "out"]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        rc, stdout, err = run([command, flag, str(deep), *map(str, rest + out)])
        assert (rc, stdout, err) == (2, "", f"error: {fmt}: JSON nested too deeply to parse\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("reader, fmt", JSON_READERS)
    def test_every_json_reader_names_its_format_when_too_deep(self, reader, fmt):
        with pytest.raises(ValueError, match=f"^{fmt}: JSON nested too deeply to parse$"):
            reader("[" * 200_000)

    @pytest.mark.parametrize("reader, fmt", JSON_READERS)
    def test_every_json_reader_names_its_format_when_not_json(self, reader, fmt):
        with pytest.raises(ValueError, match=f"^{fmt}: not JSON: Expecting property name"):
            reader("{not json")

    def test_bad_json_bridge(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, stdout, err = run(["lcu", "--bridge", str(bad),
                               "--output", str(tmp_path / "out.json")])
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: bridge-v1: not JSON: ")
        assert not (tmp_path / "out.json").exists()

    def test_bad_json_jw_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, stdout, err = run(["jw", "--input", str(bad), "--output", str(tmp_path / "out.pauli")])
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: fermion: not JSON: ")
        assert not (tmp_path / "out.pauli").exists()

    @pytest.mark.parametrize("command, flag, source, mutate, field", [
        ("lcu", "--bridge", "bridge", lambda doc: doc["bridge"][0].update(re=10**400), "bridge-v1 field bridge[0].re"),
        ("verify", "--program", "lcu", lambda doc: doc.update({"lambda": 10**400}), "lcu-v1 field lambda"),
        ("jw", "--input", "fermion", lambda doc: doc["terms"][0].update(coeff=10**400), "fermion field terms[0].coeff"),
    ], ids=["lcu", "verify", "jw"])
    def test_an_int_past_the_float_range_is_data_error(self, pipeline, tmp_path, command, flag, source, mutate, field):
        # math.isfinite raises OverflowError on 10**400; each reader names the field instead
        paths, _ = pipeline
        doc = json.loads(paths[source].read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rest = ["--input", str(paths["op"])] if command == "verify" else ["--output", str(tmp_path / "out")]
        rc, stdout, err = run([command, flag, str(bad), *rest])
        assert (rc, stdout, err) == (2, "", f"error: {field}: expected a finite number, got {10**400}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

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
        assert back.counts.sum() == 300 - int(np.count_nonzero(~rows.any(axis=1)))

    def test_samples_header_field_with_trailing_characters_is_data_error(self, tmp_path):
        bad, out = tmp_path / "samples.txt", tmp_path / "pool.txt"
        bad.write_text("# samples-v1 n_sites=2 n_samples=2x\nXX\nZZ\n")
        rc, stdout, err = run(["curate", "--samples", str(bad), "--output", str(out)])
        assert (rc, stdout, err) == (2, "", "error: missing samples-v1 header line\n")
        assert not out.exists()

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
        pytest.param("# pool-v1 n_sites=4 n_samples=0\n1 0.5 XXYY\n", "line 2: counts sum to 1,",
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
    def test_subnormal_complex_coefficient_passes(self, tmp_path):
        # |c| is subnormal, so 1 / |c| overflows although c / |c| is finite
        src, bridge, program = tmp_path / "tiny.pauli", tmp_path / "tiny.bridge.json", tmp_path / "tiny.lcu.json"
        src.write_text("1e-310+1e-310i XZ\n0.5 ZZ\n")
        assert run(["compile", "--input", str(src), "--cut", "1", "--output", str(bridge)])[0] == 0
        rc, stdout, err = run(["lcu", "--bridge", str(bridge), "--output", str(program)])
        assert (rc, err) == (0, "")
        assert stdout.startswith("lambda 0.500000000000\n")
        [row] = [row for row in json.loads(program.read_text())["select"] if row["pl"] == "X"]
        assert row["phase_re"] == row["phase_im"] == pytest.approx(0.5**0.5, abs=1e-15)
        rc, stdout, _ = run(["verify", "--input", str(src), "--program", str(program)])
        assert rc == 0
        assert stdout.startswith("block_encoding PASS")

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


class TestVerifyBattery:
    def test_json_round_trip_compares_coefficients(self, monkeypatch):
        # a reader that doubles every coefficient keeps the skeleton and its hash
        def doubling_reader(text):
            d = decomposition_from_json(text)
            return set_bridge(d, 2 * d.bridge.coeffs)

        monkeypatch.setattr(cli, "decomposition_from_json", doubling_reader)
        rc, stdout, _ = run(["verify", "--input", str(FIXTURES / "h2_subset.pauli")])
        assert rc == 3
        failed = [line.split()[0] for line in stdout.splitlines() if line.endswith(" FAIL")]
        assert failed == [f"bridge_json_round_trip_cut_{cut}" for cut in (1, 2, 3)]


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
        # the sweep reads the reference pair that optimize solved: one dense solve per operator
        paths, _ = pipeline
        calls = count_dense_solves(monkeypatch, parse_pauli_sum(paths["op"].read_text()).n_sites)
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
        assert calls == [("eigh", [0, 1])]


class TestSharedReference:
    @pytest.mark.parametrize("text", [
        (FIXTURES / "h2_subset.pauli").read_text(),
        serialize_pauli_sum(random_pauli_sum(np.random.default_rng(2), 6, 20)),
    ], ids=["h2", "random6"])
    def test_groundstate_and_optimize_share_one_solve(self, tmp_path, monkeypatch, text):
        op = parse_pauli_sum(text)
        fresh = float(scipy.linalg.eigh(to_dense(op), subset_by_index=[0, 1])[0][0])
        (tmp_path / "op.pauli").write_text(text)
        path = {name: str(tmp_path / name) for name in ("op.pauli", "mps.json", "samples.txt", "pool.txt", "opt.json")}
        calls = count_dense_solves(monkeypatch, op.n_sites)
        stdout = {}
        for argv in (
            ["groundstate", "--input", path["op.pauli"], "--output", path["mps.json"]],
            ["sample", "--state", path["mps.json"], "--n-samples", "20", "--seed", "1", "--output", path["samples.txt"]],
            ["curate", "--samples", path["samples.txt"], "--output", path["pool.txt"]],
            ["optimize", "--input", path["op.pauli"], "--state", path["mps.json"], "--pool", path["pool.txt"],
             "--output", path["opt.json"]],
        ):
            rc, stdout[argv[0]], err = run(argv)
            assert (rc, err) == (0, "")
        assert calls == [("eigh", [0, 1])]
        reference = json.loads(Path(path["opt.json"]).read_text())["reference_energy"]
        assert reference == fresh  # bit for bit, as the reference of a fresh solve
        assert stdout["groundstate"].splitlines()[0] == f"energy {reference:.12f}"
        assert stdout["optimize"].splitlines()[1] == f"reference {reference:.12f}"


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
        assert (step, rc, err) == ("optimize", 2, "error: operator is not Hermitian\n")
        pencil = varopt.assemble_pencil(
            parse_pauli_sum("1.0 XX\n0.5i ZZ\n"),
            pool_from_text((tmp_path / "pool.txt").read_text()).strings,
            mps_from_json((tmp_path / "mps.json").read_text()),
        )
        with pytest.raises(ValueError, match="not Hermitian"):
            varopt.solve_ritz_dense(pencil)

    def test_non_hermitian_operator_with_a_hermitian_pencil_is_refused(self, tmp_path):
        # the pencil on this pool passes its check, and eigvalsh, which reads one
        # triangle, would report -2.0833: the eigenvalues are +-2.0169 and +-0.5021
        state = "-1.0 XI\n-1.0 IX\n0.5 ZZ\n"
        outcome = optimize_chain(tmp_path, state, state + "0.3i XZ\n")
        assert outcome == ("optimize", 2, "error: operator is not Hermitian\n")
        assert not list(tmp_path.glob("opt.json*"))


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
        ("curate", "--keep-iz", "-1", 0),
    ])
    def test_count_below_minimum_is_usage_error(self, pipeline, tmp_path, command, option, value, low):
        paths, _ = pipeline
        out = tmp_path / "out.txt"
        argv = {
            "sample": ["sample", "--state", str(paths["mps"]), "--seed", "1"],
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

    @pytest.mark.parametrize("token, message", [
        ("1_0", "expected an ASCII number without '_', got '1_0'"),
        ("٣", "expected an ASCII number without '_', got '٣'"),
        ("-1", "must be at least 0, got -1"),
    ])
    @pytest.mark.parametrize("command", ["sample", "optimize"])
    def test_seed_numerals_must_be_ascii_counts(self, pipeline, tmp_path, command, token, message):
        # int() would read 10 and 3; numpy refuses a negative seed
        paths, _ = pipeline
        out = tmp_path / "out.txt"
        argv = {
            "sample": ["sample", "--state", str(paths["mps"]), "--n-samples", "10"],
            "optimize": ["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                         "--pool", str(paths["pool"])],
        }[command]
        rc, stdout, err = run([*argv, "--seed", token, "--output", str(out)])
        assert (rc, stdout) == (1, "")
        assert f"argument --seed: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "optimize"])
    def test_seed_of_2_64_is_usage_error(self, pipeline, tmp_path, command):
        # a Philox key word is 64 bits: sample ended in an OverflowError traceback
        paths, _ = pipeline
        out = tmp_path / "out.txt"
        argv = {
            "sample": ["sample", "--state", str(paths["mps"]), "--n-samples", "10"],
            "optimize": ["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                         "--pool", str(paths["pool"])],
        }[command]
        rc, stdout, err = run([*argv, "--seed", str(2**64), "--output", str(out)])
        assert (rc, stdout) == (1, "")
        assert err.startswith(f"usage: paulibridge {command} ")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: argument --seed: must be below 2**64, got {2**64}"]
        assert err.endswith(f"got {2**64}\n")
        assert not out.exists()

    def test_largest_seed_is_read(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "out.txt"
        rc, _, _ = run(["sample", "--state", str(paths["mps"]), "--n-samples", "10",
                        "--seed", str(2**64 - 1), "--output", str(out)])
        assert rc == 0
        assert out.read_text().startswith(f"# samples-v1 n_sites=4 n_samples=10 seed={2**64 - 1}\n")

    @pytest.mark.parametrize("command", ["sample", "optimize"])
    def test_allocation_failure_is_data_error(self, pipeline, tmp_path, command):
        # 10**15 samples need 7.11 PiB, past the user address space, so numpy fails at once
        paths, _ = pipeline
        out, csv = tmp_path / "out.txt", tmp_path / "sweep.csv"
        huge = "1000000000000000"
        argv = {
            "sample": ["sample", "--state", str(paths["mps"]), "--n-samples", huge, "--seed", "1"],
            "optimize": ["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                         "--pool", str(paths["pool"]), "--sweep-csv", str(csv), "--sweep-sizes", huge],
        }[command]
        rc, stdout, err = run([*argv, "--output", str(out)])
        assert (rc, stdout) == (2, "")  # optimize prints its energies before the sweep fails
        assert err.startswith("error: Unable to allocate 7.11 PiB")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [["--solver", "lobpcg"], ["--tol", "1e-9"], ["--max-iter", "200"]])
    def test_optimize_has_no_iterative_solver_flags(self, pipeline, tmp_path, flag):
        # optimize solves the Ritz pencil densely; the LOBPCG flags are gone
        paths, _ = pipeline
        out = tmp_path / "out.json"
        rc, stdout, err = run(["optimize", "--input", str(paths["op"]), "--state", str(paths["mps"]),
                               "--pool", str(paths["pool"]), *flag, "--output", str(out)])
        assert (rc, stdout) == (1, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert not out.exists()

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
    @pytest.mark.parametrize("command", ["verify", "mpo"])
    def test_bad_tolerance_is_usage_error(self, pipeline, tmp_path, command, tol):
        paths, _ = pipeline
        out = tmp_path / "out.json"
        argv = {
            "verify": ["verify", "--input", str(paths["op"])],
            "mpo": ["mpo", "--input", str(paths["op"]), "--output", str(out)],
        }[command]
        rc, stdout, err = run([*argv, "--tol", tol])
        assert rc == 1
        assert stdout == ""
        assert "must be a finite number >= 0" in err
        assert not out.exists()

    def test_mpo_tolerance_of_one_or_more_is_data_error(self, pipeline, tmp_path):
        paths, _ = pipeline
        out = tmp_path / "mpo.json"
        rc, stdout, err = run(["mpo", "--input", str(paths["op"]), "--tol", "1.5", "--output", str(out)])
        assert (rc, stdout, err) == (2, "", "error: rank_tol must be in [0, 1), got 1.5\n")
        assert list(tmp_path.iterdir()) == []
        rc, stdout, _ = run(["mpo", "--input", str(paths["op"]), "--tol", "0.999", "--output", str(out)])
        assert (rc, stdout) == (0, "bond_dims 1 1 1 1 1\n")

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
