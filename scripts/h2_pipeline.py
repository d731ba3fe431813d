"""End-to-end pipeline on the bundled four-site fixture operator.

Runs compile -> mpo -> groundstate -> sample -> curate -> optimize ->
lcu -> coefficient update, printing a short trace per stage and writing
every artifact into an output directory. The final stage rescales all
coefficients, recompiles the bridge, and checks that the select table
hash survives untouched while the block-encoding error stays at
round-off.
"""

import argparse
from pathlib import Path

import numpy as np
import scipy.linalg

from paulibridge.bridge import compile as compile_bridge
from paulibridge.bridge import decomposition_to_json, structural_hash
from paulibridge.lcu import (
    compile_lcu,
    emit_gates,
    encoded_block,
    program_to_json,
    update_coefficients,
)
from paulibridge.mpo import build_mpo_qr, mpo_to_dense, mpo_to_json
from paulibridge.mps import ground_state_reference, mps_to_json
from paulibridge.pauli import PauliSum, parse_pauli_sum, to_dense
from paulibridge.sampler import (
    SamplerConfig,
    curate,
    pool_to_text,
    sample_strings,
    samples_to_text,
)
from paulibridge.varopt import assemble_pencil, solve_ritz_dense

REPO = Path(__file__).resolve().parents[1]
DEFAULT_OPERATOR = REPO / "tests" / "fixtures" / "h2_subset.pauli"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--operator", type=Path, default=DEFAULT_OPERATOR)
    ap.add_argument("--cut", type=int, default=2)
    ap.add_argument("--n-samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=Path, default=REPO / "artifacts" / "h2")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    op = parse_pauli_sum(args.operator.read_text())
    print(f"operator: {op.n_terms} terms on {op.n_sites} sites")

    d = compile_bridge(op, args.cut)
    (args.out / "bridge.json").write_text(decomposition_to_json(d))
    print(
        f"bridge at cut {args.cut}: {len(d.left.labels)} left and "
        f"{len(d.right.labels)} right fragments, "
        f"{len(d.bridge.active_pairs)} active pairs"
    )
    print(f"structural hash {structural_hash(d)[:16]}...")

    m = build_mpo_qr(op)
    (args.out / "mpo.json").write_text(mpo_to_json(m))
    err = np.linalg.norm(mpo_to_dense(m) - to_dense(op))
    print(f"mpo bond dims {list(m.bond_dims)}, reconstruction error {err:.3e}")

    res = ground_state_reference(op)
    (args.out / "groundstate.json").write_text(mps_to_json(res.mps))
    print(f"ground energy {res.energy:.9f}, gap {res.gap:.9f}")

    samples = sample_strings(
        res.mps, SamplerConfig(n_samples=args.n_samples, seed=args.seed)
    )
    (args.out / "samples.txt").write_text(
        samples_to_text(samples, op.n_sites, seed=args.seed)
    )
    pool = curate(samples, op.n_sites)
    (args.out / "pool.txt").write_text(pool_to_text(pool))
    print(
        f"sampled {args.n_samples} strings (seed {args.seed}): pool has "
        f"{len(pool.xy)} off-diagonal + {len(pool.iz)} diagonal entries"
    )

    pencil = assemble_pencil(op, pool.strings, res.mps)
    sol = solve_ritz_dense(pencil)
    print(
        f"variational energy {sol.energies[0]:.9f} over {pencil.size} "
        f"operators ({sol.n_kept} kept after deflation)"
    )

    prog = compile_lcu(d)
    (args.out / "lcu.json").write_text(program_to_json(prog))
    (args.out / "gates.txt").write_text(emit_gates(prog))
    block_err = np.max(np.abs(encoded_block(prog) - to_dense(op) / prog.lam))
    print(f"lcu: lambda {prog.lam:.6f}, block error {block_err:.3e}")

    rng = np.random.default_rng(args.seed)
    rescaled = PauliSum(
        op.n_sites,
        [(t.coeff * rng.uniform(0.5, 2.0), t.string) for t in op.terms],
    )
    updated = update_coefficients(prog, compile_bridge(rescaled, args.cut))
    (args.out / "lcu_updated.json").write_text(program_to_json(updated))
    same = updated.select_hash == prog.select_hash
    print(f"coefficient update: select hash unchanged {same}")

    reference = float(scipy.linalg.eigvalsh(to_dense(op))[0])
    ok = same and block_err <= 1e-10 and sol.energies[0] >= reference - 1e-10
    print(f"pipeline {'ok' if ok else 'FAILED'}; artifacts in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
