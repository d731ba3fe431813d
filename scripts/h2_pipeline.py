"""End-to-end pipeline on the bundled four-site fixture operator, as the CLI chain.

Each stage is one ``paulibridge.cli.main`` call: compile, mpo --verify,
groundstate, sample, curate, optimize, lcu --gates, a compile of the operator
with rescaled coefficients and the program's coefficient update to it, then
the verify battery and a verify of each program against its operator. The
eight artifacts are stage outputs; manifests and the other files go to a
temporary directory. The run stops at the first stage that exits non-zero,
naming it; it is ok when every stage exits 0, the select hash survives the
update and the Ritz energy is not below the reference energy.
"""

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from paulibridge import cli
from paulibridge.pauli import PauliSum, parse_pauli_sum, serialize_pauli_sum

REPO = Path(__file__).resolve().parents[1]
DEFAULT_OPERATOR = REPO / "tests" / "fixtures" / "h2_subset.pauli"


def stages(args, tmp: Path) -> list[list[str]]:
    """The chain as argv lists: ``args.out`` receives the artifacts, ``tmp`` everything else."""
    op, cut = str(args.operator), str(args.cut)
    o, t = (lambda name: str(args.out / name)), (lambda name: str(tmp / name))
    return [
        ["compile", "--input", op, "--cut", cut, "--output", o("bridge.json")],
        ["mpo", "--input", op, "--verify", "--output", o("mpo.json")],
        ["groundstate", "--input", op, "--output", o("groundstate.json")],
        ["sample", "--state", o("groundstate.json"), "--n-samples", str(args.n_samples),
         "--seed", str(args.seed), "--output", o("samples.txt")],
        ["curate", "--samples", o("samples.txt"), "--output", o("pool.txt")],
        ["optimize", "--input", op, "--state", o("groundstate.json"), "--pool", o("pool.txt"),
         "--output", t("optimize.json")],
        ["lcu", "--bridge", o("bridge.json"), "--output", o("lcu.json"), "--gates", o("gates.txt")],
        ["compile", "--input", t("rescaled.pauli"), "--cut", cut, "--output", t("rescaled.json")],
        ["update", "--program", o("lcu.json"), "--bridge", t("rescaled.json"), "--output", o("lcu_updated.json")],
        ["verify", "--input", op],
        ["verify", "--input", op, "--program", o("lcu.json")],
        ["verify", "--input", t("rescaled.pauli"), "--program", o("lcu_updated.json")],
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--operator", type=Path, default=DEFAULT_OPERATOR)
    ap.add_argument("--cut", type=int, default=2)
    ap.add_argument("--n-samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=Path, default=REPO / "artifacts" / "h2")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        op = parse_pauli_sum(args.operator.read_text())
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
    hashes = {json.loads((args.out / f).read_text())["select_hash"] for f in ("lcu.json", "lcu_updated.json")}
    ok = len(hashes) == 1 and result["energies"][0] >= result["reference_energy"] - 1e-10
    print(f"pipeline {'ok' if ok else 'FAILED'}; artifacts in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
