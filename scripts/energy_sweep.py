"""Variational energy versus sample count on a small random operator.

Builds a seeded random Pauli sum on up to eight sites, compresses its
dense ground state to a small bond dimension, and records the Ritz
energy over the cumulative pool sampled from that approximate state for
each sample budget. The pools are nested, so the energy column is
non-increasing and approaches the dense reference from above; starting
from a truncated state keeps the starting point strictly above the
reference so the descent is visible. Output is a CSV with one row per
budget.
"""

import argparse
from pathlib import Path

import numpy as np

from paulibridge.mps import ground_state_reference
from paulibridge.pauli import PauliString, PauliSum, parse_pauli_sum
from paulibridge.varopt import energy_vs_samples_sweep, sweep_to_csv

REPO = Path(__file__).resolve().parents[1]


def random_operator(rng: np.random.Generator, n_sites: int, n_terms: int) -> PauliSum:
    terms = {}
    while len(terms) < min(n_terms, 4**n_sites):
        codes = rng.integers(0, 4, size=n_sites)
        s = PauliString.from_codes(int(c) for c in codes)
        terms.setdefault(s, rng.standard_normal())
    return PauliSum(n_sites, [(c, s) for s, c in terms.items()])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-sites", type=int, default=8)
    ap.add_argument("--n-terms", type=int, default=30)
    ap.add_argument("--operator", type=Path, default=None,
                    help="operator file to sweep instead of a random one")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[10, 25, 50, 100, 200])
    ap.add_argument("--max-bond", type=int, default=2,
                    help="bond cap for the approximate reference state")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path,
                    default=REPO / "artifacts" / "energy_sweep.csv")
    args = ap.parse_args()
    if args.n_sites > 8:
        ap.error("the sweep is a dense-reference study, use n_sites <= 8")

    if args.operator is not None:
        op = parse_pauli_sum(args.operator.read_text())
    else:
        rng = np.random.default_rng(args.seed)
        op = random_operator(rng, args.n_sites, args.n_terms)
    print(f"operator: {op.n_terms} terms on {op.n_sites} sites")

    res = ground_state_reference(op, max_bond=args.max_bond)
    print(f"dense reference energy {res.energy:.9f}")
    print(f"sampling state truncated to bond {args.max_bond}")

    rows = energy_vs_samples_sweep(op, res.mps, args.sizes, seed=args.seed, reference=res.energy)
    for r in rows:
        print(
            f"n_samples {r.n_samples:5d}  pool {r.pool_size:4d}  "
            f"energy {r.energy:.9f}  excess {r.energy - r.reference_energy:.3e}"
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(sweep_to_csv(rows))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
