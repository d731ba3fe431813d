"""Command-line front end.

Subcommands cover the full pipeline: jw (fermion to Pauli), compile
(bridge decomposition), mpo, groundstate, sample, curate, optimize, lcu,
update (coefficient-only recompile), and verify (consistency battery or
a check of a compiled program). verify compares the Pauli coefficients
of the block a program encodes with the operator's, so ``--program``
densifies nothing; the MPO check (``mpo --verify``, the battery) compares
all 4^n of the MPO's, so it takes up to DENSE_LIMIT (12) sites.

Exit codes: 0 success, 1 usage error, 2 input or data error, 3 numerical
failure. A writing subcommand writes nothing unless it succeeds; then it writes
each output once and a deterministic JSON manifest next to its primary output:
sha256 of the bytes it read and wrote, parameters, and library versions (no
timestamps, so reruns are byte identical). ``--manifest PATH`` overrides the
location; one naming an input or output exits 2, as do two outputs naming one
file. An existing file is overwritten in place, then cut to the new length
unless it is not a regular file (/dev/null, a FIFO). Warnings go to stderr. The
stdout summary is printed after the outputs are written; an error exit prints none.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

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
from paulibridge.mpo import mpo_to_dense  # noqa: F401
from paulibridge.pauli import to_dense  # noqa: F401
from paulibridge.mpo import build_mpo_qr, mpo_error, mpo_from_json, mpo_to_json
from paulibridge.mps import (
    compress,
    ground_state_reference,
    lowest_pairs,
    mps_from_json,
    mps_to_json,
)
from paulibridge.pauli import diagonal_rows, json_text, parse_pauli_sum, serialize_pauli_sum
from paulibridge.sampler import (
    SamplerConfig,
    curate,
    pool_from_text,
    pool_to_text,
    sample_strings,
    samples_from_text,
    samples_to_text,
)
from paulibridge.varopt import assemble_pencil, energy_vs_samples_sweep, solve_ritz_dense, sweep_to_csv

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3

DATA_EXCEPTIONS = (ValueError, KeyError, OSError, MemoryError)
NUMERICAL_EXCEPTIONS = (np.linalg.LinAlgError,)


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


def seed(token: str) -> int:
    if (value := non_negative_int(token)) >= 2**64:  # a Philox key word is 64 bits
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {value}")
    return value


def tolerance(token: str) -> float:
    value = float(_numeral(token))
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {token}")
    return value


def _read(args, flag: str) -> str:
    """The text of the file ``--flag`` names; its bytes are kept in ``args.inputs`` for the manifest."""
    data = args.inputs[flag] = Path(getattr(args, flag)).read_bytes()
    return data.decode()


def _write(args, outputs: dict[str, str], parameters: dict) -> None:
    """Write each output once, then the manifest of the bytes read and written.

    ``outputs`` maps the dest of each output flag (``"output"``,
    ``"sweep_csv"``) to its text. Two outputs naming one file, or a
    manifest naming the same file as an input or an output, are refused
    before any byte is written.
    """
    manifest = args.manifest or f"{args.output}.manifest.json"
    written = [(f"--{flag.replace('_', '-')}", getattr(args, flag)) for flag in outputs] + [("manifest", manifest)]
    read = [(f"--{flag}", getattr(args, flag)) for flag in args.inputs]
    for k, (name, path) in enumerate(written):  # stat, not resolve(), which lstats each component
        for flag, other in (read if name == "manifest" else []) + written[:k]:
            if os.path.abspath(path) == os.path.abspath(other) or (
                    os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)):
                retry = "--manifest" if name == "manifest" else name
                raise ValueError(f"{name} {path} is the same file as {flag} {other}; choose another {retry}")
    data = {getattr(args, flag): text.encode() for flag, text in outputs.items()}
    doc = {
        "command": args.command,
        "inputs": {getattr(args, f): hashlib.sha256(payload).hexdigest() for f, payload in args.inputs.items()},
        "outputs": {p: hashlib.sha256(payload).hexdigest() for p, payload in data.items()},
        "parameters": parameters,
        "versions": {
            "paulibridge": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    # in place, then cut to length: O_TRUNC would free the old blocks before allocating new ones
    for path, payload in [*data.items(), (manifest, json_text(doc).encode())]:
        with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as f:
            f.write(payload)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # /dev/null, a FIFO: written, never truncated
                f.truncate()


def cmd_jw(args) -> tuple[dict[str, str], dict]:
    n_modes, terms = load_fermion_terms(_read(args, "input"))
    op = map_hamiltonian(terms, n_modes)
    print(f"n_sites {op.n_sites}")
    print(f"n_terms {op.n_terms}")
    return {"output": serialize_pauli_sum(op)}, {}


def cmd_compile(args) -> tuple[dict[str, str], dict]:
    op = parse_pauli_sum(_read(args, "input"))
    d = compile_bridge(op, args.cut)
    print(f"left_fragments {len(d.left)}")
    print(f"right_fragments {len(d.right)}")
    print(f"active_pairs {len(d.bridge.active_pairs)}")
    print(f"structural_hash {structural_hash(d)}")
    return {"output": decomposition_to_json(d)}, {"cut": args.cut}


def cmd_mpo(args) -> tuple[dict[str, str], dict]:
    op = parse_pauli_sum(_read(args, "input"))
    m = build_mpo_qr(op, rank_tol=args.tol)
    if args.max_bond is not None:
        m, discarded = compress(m, max_bond=args.max_bond)
        print(f"discarded_weight {sum(discarded):.12e}")
    print(f"bond_dims {' '.join(str(b) for b in m.bond_dims)}")
    if args.verify:
        print(f"reconstruction_error {mpo_error(m, op):.3e}")
    return {"output": mpo_to_json(m)}, {"tol": args.tol, "max_bond": args.max_bond}


def cmd_groundstate(args) -> tuple[dict[str, str], dict]:
    op = parse_pauli_sum(_read(args, "input"))
    res = ground_state_reference(op, max_bond=args.max_bond)
    print(f"energy {res.energy:.12f}")
    print(f"gap {res.gap:.12f}")
    if args.max_bond is not None:
        print(f"discarded_weight {res.discarded:.12e}")
    return {"output": mps_to_json(res.mps)}, {"max_bond": args.max_bond}


def cmd_sample(args) -> tuple[dict[str, str], dict]:
    m = mps_from_json(_read(args, "state"))
    samples = sample_strings(m, SamplerConfig(n_samples=args.n_samples, seed=args.seed))
    outputs = {"output": samples_to_text(samples, m.n_sites, seed=args.seed)}
    print(f"n_samples {len(samples)}")
    return outputs, {"n_samples": args.n_samples, "seed": args.seed}


def cmd_curate(args) -> tuple[dict[str, str], dict]:
    samples, n_sites = samples_from_text(_read(args, "samples"))
    pool = curate(samples, n_sites, keep_iz=args.keep_iz)
    n_diagonal = int(diagonal_rows(pool.strings).sum())
    print(f"offdiagonal {len(pool.strings) - n_diagonal}")
    print(f"diagonal {n_diagonal}")
    return {"output": pool_to_text(pool)}, {"keep_iz": args.keep_iz}


def cmd_optimize(args) -> tuple[dict[str, str], dict]:
    op = parse_pauli_sum(_read(args, "input"))
    state = mps_from_json(_read(args, "state"))
    pool = pool_from_text(_read(args, "pool"))
    if pool.n_sites != op.n_sites:
        raise ValueError(f"pool has {pool.n_sites} sites, operator has {op.n_sites}")
    reference = float(lowest_pairs(op)[0][0])  # first: it refuses a non-Hermitian operator
    pencil = assemble_pencil(op, pool.strings, state)
    sol = solve_ritz_dense(pencil, n_roots=args.n_roots)
    doc = {
        "format": "optimize-v1",
        "solver": "dense",
        "pool_size": pencil.size,
        "n_kept": sol.n_kept,
        "iterations": sol.iterations,
        "energies": [float(e) for e in sol.energies],
        "reference_energy": reference,
    }
    outputs = {"output": json_text(doc)}
    print(f"energy {sol.energies[0]:.12f}")
    print(f"reference {reference:.12f}")
    if args.sweep_csv:
        rows = energy_vs_samples_sweep(op, state, args.sweep_sizes, seed=args.seed)
        outputs["sweep_csv"] = sweep_to_csv(rows)
        print(f"sweep_rows {len(rows)}")
    sweep_sizes = args.sweep_sizes if args.sweep_csv else None
    return outputs, {"n_roots": args.n_roots, "seed": args.seed, "sweep_sizes": sweep_sizes}


def cmd_lcu(args) -> tuple[dict[str, str], dict]:
    d = decomposition_from_json(_read(args, "bridge"))
    prog = compile_lcu(d)
    outputs = {"output": program_to_json(prog)}
    if args.gates:
        outputs["gates"] = emit_gates(prog)
    print(f"lambda {prog.lam:.12f}")
    print(f"ancillas {prog.a_total}")
    print(f"select_hash {prog.select_hash}")
    return outputs, {}


def cmd_update(args) -> tuple[dict[str, str], dict]:
    prog = program_from_json(_read(args, "program"))
    d = decomposition_from_json(_read(args, "bridge"))
    updated = update_coefficients(prog, d)
    print(f"lambda {updated.lam:.12f}")
    print(f"select_hash {updated.select_hash}")
    return {"output": program_to_json(updated)}, {}


def cmd_verify(args) -> int:
    op = parse_pauli_sum(_read(args, "input"))
    if args.program:
        err = block_error(program_from_json(_read(args, "program")), op)
        ok = err <= args.tol
        print(f"block_encoding {'PASS' if ok else 'FAIL'} tol {args.tol:g} error {err:.6e}")
        return 0 if ok else NUMERICAL_ERROR
    m = build_mpo_qr(op)
    mpo_err = mpo_error(m, op)  # first: it refuses more than DENSE_LIMIT sites
    # (name, passed, measured error or None for exact checks)
    checks: list[tuple[str, bool, float | None]] = []
    cuts = [args.cut] if args.cut is not None else list(range(1, op.n_sites))
    for cut in cuts:
        d = compile_bridge(op, cut)
        exact = reconstruct(d) == op
        checks.append((f"bridge_round_trip_cut_{cut}", exact, None))
        back = decomposition_from_json(decomposition_to_json(d))
        checks.append((f"bridge_json_round_trip_cut_{cut}", back == d, None))
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

    def command(name: str, func, summary: str, inputs: tuple[str, ...], writes: bool = True):
        """Add a subcommand with its required input-path flags and, if it writes, ``--output`` and ``--manifest``."""
        p = sub.add_parser(name, help=summary)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        if writes:
            p.add_argument("--output", required=True)
            p.add_argument("--manifest")
        p.set_defaults(func=func, writes=writes)
        return p

    command("jw", cmd_jw, "map fermion terms to a Pauli operator", ("input",))

    p = command("compile", cmd_compile, "bridge decomposition at a cut", ("input",))
    p.add_argument("--cut", type=positive_int, required=True)

    p = command("mpo", cmd_mpo, "compile an operator into an MPO", ("input",))
    p.add_argument("--tol", type=tolerance, default=0.0)
    p.add_argument("--max-bond", type=positive_int, default=None)
    p.add_argument("--verify", action="store_true",
                   help="print the relative reconstruction error")

    p = command("groundstate", cmd_groundstate, "dense reference ground state", ("input",))
    p.add_argument("--max-bond", type=positive_int, default=None)

    p = command("sample", cmd_sample, "draw Pauli strings from a state", ("state",))
    p.add_argument("--n-samples", type=positive_int, required=True)
    p.add_argument("--seed", type=seed, required=True)

    p = command("curate", cmd_curate, "build an operator pool from samples", ("samples",))
    p.add_argument("--keep-iz", type=non_negative_int, default=None)

    p = command("optimize", cmd_optimize, "variational energy over a pool", ("input", "state", "pool"))
    p.add_argument("--n-roots", type=positive_int, default=1)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--sweep-csv", default=None,
                   help="also write an energy-vs-samples sweep CSV here")
    p.add_argument("--sweep-sizes", type=positive_int, nargs="+",
                   default=[25, 50, 100, 200])

    p = command("lcu", cmd_lcu, "compile a bridge into an LCU program", ("bridge",))
    p.add_argument("--gates")

    command("update", cmd_update, "coefficient-only program recompile", ("program", "bridge"))

    p = command("verify", cmd_verify, "consistency battery for an operator, or check a program",
                ("input",), writes=False)
    p.add_argument("--program", default=None,
                   help="compiled program to check against the operator")
    p.add_argument("--cut", type=positive_int, default=None)
    p.add_argument("--tol", type=tolerance, default=1e-10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.inputs = {}  # flag -> bytes of every file this call reads
    # the summary a subcommand prints is held until its outputs are written, and dropped on an error exit
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()) as summary:
        warnings.simplefilter("always")
        try:
            code, error = args.func(args), None
            if args.writes:  # a writer returns its outputs and parameters
                _write(args, *code)
                code = 0
        except NUMERICAL_EXCEPTIONS as exc:
            code, error = NUMERICAL_ERROR, exc
        except DATA_EXCEPTIONS as exc:
            code, error = DATA_ERROR, exc
    if error is None:
        sys.stdout.write(summary.getvalue())
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
