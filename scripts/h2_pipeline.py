"""End-to-end pipeline on the bundled four-site fixture operator, as the CLI chain.

Each stage is one ``paulibridge.cli.main`` call: compile, mpo --verify,
groundstate, sample, curate, optimize, lcu --gates, a compile of the operator
with rescaled coefficients and the program's coefficient update to it, then
the verify battery and a verify of each program against its operator. Every
stage writes into a temporary directory. The run stops at the first stage that
exits non-zero, naming it; it is ok when every stage exits 0, the select hash
survives the update and the Ritz energy is not below the reference energy.
Only then are the eight artifacts, stage outputs, copied into --out: a failed
run leaves --out as it found it. A --seed or an --operator file it cannot use
exits 2 with one error line before any stage.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from paulibridge import cli
from paulibridge.pauli import PauliSum, parse_pauli_sum, serialize_pauli_sum

REPO = Path(__file__).resolve().parents[1]
DEFAULT_OPERATOR = REPO / "tests" / "fixtures" / "h2_subset.pauli"
ARTIFACTS = ("bridge.json", "mpo.json", "groundstate.json", "samples.txt", "pool.txt", "lcu.json", "gates.txt",
             "lcu_updated.json")


def stages(args, tmp: Path) -> list[list[str]]:
    """The chain as argv lists, every file in ``tmp``."""
    op, cut, t = str(args.operator), str(args.cut), (lambda name: str(tmp / name))
    return [
        ["compile", "--input", op, "--cut", cut, "--output", t("bridge.json")],
        ["mpo", "--input", op, "--verify", "--output", t("mpo.json")],
        ["groundstate", "--input", op, "--output", t("groundstate.json")],
        ["sample", "--state", t("groundstate.json"), "--n-samples", str(args.n_samples),
         "--seed", str(args.seed), "--output", t("samples.txt")],
        ["curate", "--samples", t("samples.txt"), "--output", t("pool.txt")],
        ["optimize", "--input", op, "--state", t("groundstate.json"), "--pool", t("pool.txt"),
         "--output", t("optimize.json")],
        ["lcu", "--bridge", t("bridge.json"), "--output", t("lcu.json"), "--gates", t("gates.txt")],
        ["compile", "--input", t("rescaled.pauli"), "--cut", cut, "--output", t("rescaled.json")],
        ["update", "--program", t("lcu.json"), "--bridge", t("rescaled.json"), "--output", t("lcu_updated.json")],
        ["verify", "--input", op],
        ["verify", "--input", op, "--program", t("lcu.json")],
        ["verify", "--input", t("rescaled.pauli"), "--program", t("lcu_updated.json")],
    ]


def fail(message: str) -> int:
    """Report a bad flag or input file on one line; the exit code for it."""
    print(f"h2_pipeline.py: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--operator", type=Path, default=DEFAULT_OPERATOR)
    ap.add_argument("--cut", type=int, default=2)
    ap.add_argument("--n-samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=Path, default=REPO / "artifacts" / "h2")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:  # a Philox key word is 64 bits
        return fail(f"--seed must be in 0..2**64-1, got {args.seed}")
    try:
        op = parse_pauli_sum(args.operator.read_text())
    except (OSError, ValueError) as exc:  # a missing or unreadable file, a malformed sum
        return fail(f"--operator {args.operator}: {exc.strerror if isinstance(exc, OSError) else exc}")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        scale = np.random.default_rng(args.seed).uniform(0.5, 2.0, op.n_terms)
        rescaled = PauliSum.from_rows(op.n_sites, op.rows, op.coeffs * scale)
        (tmp / "rescaled.pauli").write_text(serialize_pauli_sum(rescaled))
        for k, stage in enumerate(stages(args, tmp)):
            if stage[0] != "verify":
                stage += ["--manifest", str(tmp / f"stage{k}.manifest.json")]
            print(f"$ paulibridge {' '.join(stage)}")
            if (code := cli.main(stage)) != 0:
                print(f"pipeline FAILED at stage {k}: paulibridge {' '.join(stage)} exited {code}")
                return 1
        result = json.loads((tmp / "optimize.json").read_text())
        hashes = {json.loads((tmp / f).read_text())["select_hash"] for f in ("lcu.json", "lcu_updated.json")}
        ok = len(hashes) == 1 and result["energies"][0] >= result["reference_energy"] - 1e-10
        if not ok:
            print("pipeline FAILED; --out left as it was")
            return 1
        args.out.mkdir(parents=True, exist_ok=True)
        for name in ARTIFACTS:
            shutil.copyfile(tmp / name, args.out / name)
    print(f"pipeline ok; artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
