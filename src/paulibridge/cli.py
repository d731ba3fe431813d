"""Command-line front end.

Subcommands cover the full pipeline: jw (fermion to Pauli), compile
(bridge decomposition), mpo, groundstate, sample, curate, optimize, lcu,
update (coefficient-only recompile), and verify (consistency battery or
a check of a compiled program). verify compares the Pauli coefficients
of the block a program encodes with the operator's, so ``--program``
densifies nothing; the battery's MPO check takes up to DENSE_LIMIT (12)
sites.

Exit codes: 0 success, 1 usage error, 2 input or data error, 3 numerical
failure. Every writing subcommand records a deterministic JSON manifest
of input hashes, outputs, parameters, and library versions next to its
primary output (no timestamps, so reruns are byte identical);
``--manifest PATH`` overrides the location.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from paulibridge import __version__
from paulibridge.bridge import (
    compile as compile_bridge,
    decomposition_from_json,
    decomposition_to_json,
    reconstruct,
    structural_hash,
)
from paulibridge.fermion import load_fermion_terms, map_hamiltonian
from paulibridge.lcu import (
    block_error,
    compile_lcu,
    emit_gates,
    program_from_json,
    program_to_json,
    update_coefficients,
)
# Not called here; kept as a module attribute because the benchmark tracer
# (bench/tracer.py) wraps the functions it times by these names.
from paulibridge.lcu import block_encoding_dense  # noqa: F401
from paulibridge.mpo import build_mpo_qr, mpo_from_json, mpo_to_dense, mpo_to_json
from paulibridge.mps import (
    compress,
    ground_state_reference,
    mps_from_json,
    mps_to_json,
)
from paulibridge.pauli import (
    PauliError,
    json_text,
    parse_pauli_sum,
    serialize_pauli_sum,
    to_dense,
)
from paulibridge.sampler import (
    GaugeViolation,
    SamplerConfig,
    curate,
    pool_from_text,
    pool_to_text,
    sample_strings,
    samples_from_text,
    samples_to_text,
)
from paulibridge.varopt import (
    ConvergenceFailure,
    assemble_pencil,
    energy_vs_samples_sweep,
    solve_ritz_dense,
    solve_ritz_lobpcg,
    sweep_to_csv,
)

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3

DATA_EXCEPTIONS = (PauliError, GaugeViolation, ValueError, KeyError, OSError)
NUMERICAL_EXCEPTIONS = (ConvergenceFailure, np.linalg.LinAlgError)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _numeral(token: str) -> str:
    # int() and float() also take "_" separators and non-ASCII digits; the text formats refuse both
    if not token.isascii() or "_" in token:
        raise argparse.ArgumentTypeError(f"expected an ASCII number without '_', got {token!r}")
    return token


def positive_int(token: str, low: int = 1) -> int:
    value = int(_numeral(token))
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def non_negative_int(token: str) -> int:
    return positive_int(token, low=0)


def tolerance(token: str) -> float:
    value = float(_numeral(token))
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {token}")
    return value


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(args, command: str, inputs: list[str], outputs: list[str], parameters: dict) -> None:
    path = getattr(args, "manifest", None) or f"{outputs[0]}.manifest.json"
    doc = {
        "command": command,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "parameters": parameters,
        "versions": {
            "paulibridge": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    Path(path).write_text(json_text(doc))


def _read(path: str) -> str:
    return Path(path).read_text()


def cmd_jw(args) -> int:
    n_modes, terms = load_fermion_terms(_read(args.input))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op = map_hamiltonian(terms, n_modes)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    Path(args.output).write_text(serialize_pauli_sum(op))
    print(f"n_sites {op.n_sites}")
    print(f"n_terms {op.n_terms}")
    _write_manifest(args, "jw", [args.input], [args.output], {})
    return 0


def cmd_compile(args) -> int:
    op = parse_pauli_sum(_read(args.input))
    d = compile_bridge(op, args.cut)
    Path(args.output).write_text(decomposition_to_json(d))
    print(f"left_fragments {len(d.left.labels)}")
    print(f"right_fragments {len(d.right.labels)}")
    print(f"active_pairs {len(d.bridge.active_pairs)}")
    print(f"structural_hash {structural_hash(d)}")
    _write_manifest(args, "compile", [args.input], [args.output], {"cut": args.cut})
    return 0


def _mpo_error(m, op) -> float:
    """Relative Frobenius distance between an MPO and the operator it encodes."""
    dense = to_dense(op)
    return float(np.linalg.norm(mpo_to_dense(m) - dense) / np.linalg.norm(dense))


def cmd_mpo(args) -> int:
    op = parse_pauli_sum(_read(args.input))
    m = build_mpo_qr(op, rank_tol=args.tol)
    if args.max_bond is not None:
        m, discarded = compress(m, max_bond=args.max_bond)
        print(f"discarded_weight {sum(discarded):.12e}")
    Path(args.output).write_text(mpo_to_json(m))
    print(f"bond_dims {' '.join(str(b) for b in m.bond_dims)}")
    if args.verify:
        print(f"reconstruction_error {_mpo_error(m, op):.3e}")
    _write_manifest(
        args,
        "mpo",
        [args.input],
        [args.output],
        {"tol": args.tol, "max_bond": args.max_bond},
    )
    return 0


def cmd_groundstate(args) -> int:
    op = parse_pauli_sum(_read(args.input))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ground_state_reference(op, max_bond=args.max_bond)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    Path(args.output).write_text(mps_to_json(res.mps))
    print(f"energy {res.energy:.12f}")
    print(f"gap {res.gap:.12f}")
    _write_manifest(
        args,
        "groundstate",
        [args.input],
        [args.output],
        {"max_bond": args.max_bond},
    )
    return 0


def cmd_sample(args) -> int:
    m = mps_from_json(_read(args.state))
    samples = sample_strings(m, SamplerConfig(n_samples=args.n_samples, seed=args.seed))
    Path(args.output).write_text(samples_to_text(samples, m.n_sites, seed=args.seed))
    print(f"n_samples {len(samples)}")
    _write_manifest(
        args,
        "sample",
        [args.state],
        [args.output],
        {"n_samples": args.n_samples, "seed": args.seed},
    )
    return 0


def cmd_curate(args) -> int:
    samples, n_sites = samples_from_text(_read(args.samples))
    pool = curate(samples, n_sites, keep_iz=args.keep_iz)
    Path(args.output).write_text(pool_to_text(pool))
    print(f"offdiagonal {len(pool.xy)}")
    print(f"diagonal {len(pool.iz)}")
    _write_manifest(
        args, "curate", [args.samples], [args.output], {"keep_iz": args.keep_iz}
    )
    return 0


def cmd_optimize(args) -> int:
    op = parse_pauli_sum(_read(args.input))
    state = mps_from_json(_read(args.state))
    pool = pool_from_text(_read(args.pool))
    if pool.n_sites != op.n_sites:
        raise ValueError(f"pool has {pool.n_sites} sites, operator has {op.n_sites}")
    pencil = assemble_pencil(op, pool.strings, state)
    if args.solver == "dense":
        sol = solve_ritz_dense(pencil, n_roots=args.n_roots)
    else:
        sol = solve_ritz_lobpcg(
            pencil,
            n_roots=args.n_roots,
            tol=args.tol,
            max_iter=args.max_iter,
            seed=args.seed,
        )
    reference = float(scipy.linalg.eigvalsh(to_dense(op))[0])
    doc = {
        "format": "optimize-v1",
        "solver": args.solver,
        "pool_size": pencil.size,
        "n_kept": sol.n_kept,
        "iterations": sol.iterations,
        "energies": [float(e) for e in sol.energies],
        "reference_energy": reference,
    }
    Path(args.output).write_text(json_text(doc))
    print(f"energy {sol.energies[0]:.12f}")
    print(f"reference {reference:.12f}")
    outputs = [args.output]
    if args.sweep_csv:
        rows = energy_vs_samples_sweep(
            op, state, args.sweep_sizes, seed=args.seed, reference=reference
        )
        Path(args.sweep_csv).write_text(sweep_to_csv(rows))
        outputs.append(args.sweep_csv)
        print(f"sweep_rows {len(rows)}")
    _write_manifest(
        args,
        "optimize",
        [args.input, args.state, args.pool],
        outputs,
        {
            "solver": args.solver,
            "n_roots": args.n_roots,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "seed": args.seed,
            "sweep_sizes": args.sweep_sizes if args.sweep_csv else None,
        },
    )
    return 0


def cmd_lcu(args) -> int:
    d = decomposition_from_json(_read(args.bridge))
    prog = compile_lcu(d)
    Path(args.output).write_text(program_to_json(prog))
    if args.gates:
        Path(args.gates).write_text(emit_gates(prog))
    outputs = [args.output] + ([args.gates] if args.gates else [])
    print(f"lambda {prog.lam:.12f}")
    print(f"ancillas {prog.a_total}")
    print(f"select_hash {prog.select_hash}")
    _write_manifest(args, "lcu", [args.bridge], outputs, {})
    return 0


def cmd_update(args) -> int:
    prog = program_from_json(_read(args.program))
    d = decomposition_from_json(_read(args.bridge))
    updated = update_coefficients(prog, d)
    Path(args.output).write_text(program_to_json(updated))
    print(f"lambda {updated.lam:.12f}")
    print(f"select_hash {updated.select_hash}")
    _write_manifest(
        args, "update", [args.program, args.bridge], [args.output], {}
    )
    return 0


def cmd_verify(args) -> int:
    op = parse_pauli_sum(_read(args.input))
    if args.program:
        err = block_error(program_from_json(_read(args.program)), op)
        ok = err <= args.tol
        print(f"block_encoding {'PASS' if ok else 'FAIL'} tol {args.tol:g} error {err:.6e}")
        return 0 if ok else NUMERICAL_ERROR
    m = build_mpo_qr(op)
    mpo_err = _mpo_error(m, op)  # first: it refuses more than DENSE_LIMIT sites
    # (name, passed, measured error or None for exact checks)
    checks: list[tuple[str, bool, float | None]] = []
    cuts = [args.cut] if args.cut is not None else list(range(1, op.n_sites))
    for cut in cuts:
        d = compile_bridge(op, cut)
        exact = reconstruct(d).as_dict() == op.as_dict()
        checks.append((f"bridge_round_trip_cut_{cut}", exact, None))
        back = decomposition_from_json(decomposition_to_json(d))
        same_hash = structural_hash(back) == structural_hash(d)
        checks.append((f"bridge_json_round_trip_cut_{cut}", same_hash, None))
        block_err = block_error(compile_lcu(d), op)
        checks.append((f"block_encoding_cut_{cut}", block_err <= args.tol, block_err))
    checks.append(("mpo_exact_reconstruction", mpo_err <= args.tol, mpo_err))
    back = mpo_from_json(mpo_to_json(m))
    same = all(
        np.array_equal(a, b) for a, b in zip(back.tensors, m.tensors)
    )
    checks.append(("mpo_json_round_trip", same, None))
    for name, passed, measured in checks:
        shown = "" if measured is None else f" error {measured:.6e} tol {args.tol:g}"
        print(f"{name}{shown} {'pass' if passed else 'FAIL'}")
    return 0 if all(passed for _, passed, _ in checks) else NUMERICAL_ERROR


@functools.cache  # built once per process: main may run many times in one
def build_parser() -> Parser:
    parser = Parser(prog="paulibridge", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jw", help="map fermion terms to a Pauli operator")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_jw)

    p = sub.add_parser("compile", help="bridge decomposition at a cut")
    p.add_argument("--input", required=True)
    p.add_argument("--cut", type=positive_int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("mpo", help="compile an operator into an MPO")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=tolerance, default=0.0)
    p.add_argument("--max-bond", type=positive_int, default=None)
    p.add_argument("--verify", action="store_true",
                   help="print the dense reconstruction error")
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_mpo)

    p = sub.add_parser("groundstate", help="dense reference ground state")
    p.add_argument("--input", required=True)
    p.add_argument("--max-bond", type=positive_int, default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_groundstate)

    p = sub.add_parser("sample", help="draw Pauli strings from a state")
    p.add_argument("--state", required=True)
    p.add_argument("--n-samples", type=positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("curate", help="build an operator pool from samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--keep-iz", type=non_negative_int, default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("optimize", help="variational energy over a pool")
    p.add_argument("--input", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--solver", choices=["dense", "lobpcg"], default="dense")
    p.add_argument("--n-roots", type=positive_int, default=1)
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--max-iter", type=positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep-csv", default=None,
                   help="also write an energy-vs-samples sweep CSV here")
    p.add_argument("--sweep-sizes", type=positive_int, nargs="+",
                   default=[25, 50, 100, 200])
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("lcu", help="compile a bridge into an LCU program")
    p.add_argument("--bridge", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--gates")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_lcu)

    p = sub.add_parser("update", help="coefficient-only program recompile")
    p.add_argument("--program", required=True)
    p.add_argument("--bridge", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser(
        "verify",
        help="consistency battery for an operator, or check a program",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--program", default=None,
                   help="compiled program to check against the operator")
    p.add_argument("--cut", type=positive_int, default=None)
    p.add_argument("--tol", type=tolerance, default=1e-10)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NUMERICAL_EXCEPTIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except DATA_EXCEPTIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
