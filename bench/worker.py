"""One workload in its own process: set up, measure, check, report.

Started by ``run.py``, which pins the BLAS thread count in the
environment before this process imports numpy. Writes one JSON result
to ``--result``. With ``--setup-only`` it stops after set-up, so the
launcher can time set-up several times per run.

Set-up is imports, generating the first round's inputs and one warm-up
pass over small inputs, so lazy initialisation (the first dense
eigensolve costs about nine times a repeated one) is not in the timed
phase. The timed phase then runs a fixed number of rounds: as many as
fill ``--seconds`` at the seed commit's round time (``ROUND_S``), and at
least ``MIN_ROUNDS`` rounds and ``MIN_OPS`` ops.

Every time in the end-to-end metrics is scaled to the reference host
speed by ``hostspeed``: an op's latency by the calibrations taken just
before and just after it, set-up by one the launcher takes just before
it starts this process and one taken right after set-up. The unscaled
values go to the result's detail.

With ``--trace 1`` every round runs twice on the same inputs, first
untraced, then traced. The untraced copy gives the tracing overhead and
the determinism check (counts and manifest bytes must match); the
per-layer metrics come from the traced copies. Round 0 is traced a
second time at the end to check the traced counts repeat too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# A run far slower than its calibration stops after the round that
# passes this, within the launcher's deadline; its detail then shows
# fewer rounds than planned.
HARD_STOP_S = 110

# Op counts that must repeat exactly when a round is run again.
DETERMINISTIC = ("mpo_bond_sum", "lcu_ancillas", "pools", "k", "manifests", "battery")
TRACED_COUNTS = (
    "mpo.bond_sum", "bridge.fragments", "bridge.active_pairs", "pauli.product_calls",
    "varopt.unique_strings", "varopt.pencil_k", "sampler.samples", "cli.calls",
)

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "pauli.parse_s": "s", "pauli.serialize_s": "s", "pauli.product_calls": "count",
    "pauli.product_s": "s", "pauli.to_dense_s": "s", "pauli.to_dense_calls": "count",
    "pauli.dense_bytes": "bytes", "pauli.self_s": "s",
    "fermion.map_s": "s", "fermion.terms_out": "count", "fermion.self_s": "s",
    "bridge.compile_s": "s", "bridge.compile_calls": "count", "bridge.fragments": "count",
    "bridge.active_pairs": "count", "bridge.json_s": "s", "bridge.self_s": "s",
    "mpo.build_qr_s": "s", "mpo.bond_sum": "count", "mpo.bond_max": "count",
    "mpo.json_s": "s", "mpo.to_dense_s": "s", "mpo.self_s": "s",
    "mps.string_expectation_calls": "count", "mps.string_expectation_s": "s",
    "mps.ground_state_s": "s", "mps.ground_state_self_s": "s", "mps.json_s": "s",
    "mps.self_s": "s",
    "sampler.sample_s": "s", "sampler.samples": "count", "sampler.curate_s": "s",
    "sampler.pool_yield": "ratio", "sampler.text_s": "s", "sampler.self_s": "s",
    "varopt.assemble_s": "s", "varopt.assemble_self_s": "s", "varopt.pencil_k": "count",
    "varopt.unique_strings": "count", "varopt.memo_hit_ratio": "ratio",
    "varopt.solve_dense_s": "s", "varopt.solve_lobpcg_s": "s",
    "varopt.lobpcg_iterations": "count", "varopt.lobpcg_failures": "count",
    "varopt.n_kept": "count", "varopt.self_s": "s",
    "lcu.compile_s": "s", "lcu.update_s": "s", "lcu.update_calls": "count",
    "lcu.emit_gates_s": "s", "lcu.json_s": "s", "lcu.block_encoding_s": "s",
    "lcu.block_encoding_dim": "count", "lcu.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.nonzero_exits": "count",
    "mpo_bond_sum": "count", "lcu_ancillas": "count", "ritz_excess": "energy",
    "fail_ratio": "ratio",
    "trace.overhead_s": "s", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
}


def run_op(op, tracer=None) -> dict:
    if tracer is not None:
        tracer.op = op.name
    before = hostspeed.calibrate()
    start = time.perf_counter()
    try:
        facts = op.run()
    except Exception as exc:  # a failed op is counted, the run goes on
        latency = time.perf_counter() - start
        error = f"{op.name}: {type(exc).__name__}: {exc}"
        return {"op": op.name, "latency": latency, "scale": hostspeed.scale(before, hostspeed.calibrate()),
                "fails": [error], "counts": {}}
    latency = time.perf_counter() - start
    scale = hostspeed.scale(before, hostspeed.calibrate())
    try:
        fails, counts = op.check(facts)
    except Exception as exc:
        fails, counts = [f"oracle raised {type(exc).__name__}: {exc}"], {}
    return {"op": op.name, "latency": latency, "scale": scale, "fails": [f"{op.name}: {f}" for f in fails],
            "counts": counts}


def run_round(ops, tracer=None) -> list[dict]:
    if tracer is None:
        return [run_op(op) for op in ops]
    tracer.reset()
    tracer.install()
    try:
        return [run_op(op, tracer) for op in ops]
    finally:
        tracer.uninstall()


def wall(records) -> float:
    return sum(r["latency"] for r in records)


def scaled_wall(records) -> float:
    return sum(r["latency"] * r["scale"] for r in records)


def determinism_fails(first: list[dict], second: list[dict], what: str) -> list[str]:
    fails = []
    for a, b in zip(first, second):
        ka = {k: v for k, v in a["counts"].items() if k in DETERMINISTIC}
        kb = {k: v for k, v in b["counts"].items() if k in DETERMINISTIC}
        if ka != kb:
            fails.append(f"{a['op']}: {what} differ between two runs of one input: {ka} vs {kb}")
    return fails


def layer_metrics(record: dict, ops: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced round."""
    by = defaultdict(list)
    self_s = Counter()
    for s in record["spans"]:
        by[s["name"]].append(s)
        self_s[s["layer"]] += s["self_s"]
    hot = {}
    for h in record["hot"]:
        self_s[h["layer"]] += h["seconds"]
        calls, secs = hot.get(h["name"], (0, 0.0))
        hot[h["name"]] = (calls + h["calls"], secs + h["seconds"])

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by[n])

    def attr(name, key):
        return [s["attrs"][key] for s in by[name] if key in s["attrs"]]

    unique = sum(s["hot"].get("string_expectation", 0) for s in by["assemble_pencil"])
    lookups = sum(attr("assemble_pencil", "lookups"))
    pool_samples = sum(attr("curate", "pool_samples"))
    excess = [r["counts"]["ritz_excess"] for r in ops if "ritz_excess" in r["counts"]]
    m = {
        "pauli.parse_s": total("parse_pauli_sum"),
        "pauli.serialize_s": total("serialize_pauli_sum"),
        "pauli.product_calls": hot.get("pauli_product", (0, 0.0))[0],
        "pauli.product_s": hot.get("pauli_product", (0, 0.0))[1],
        "pauli.to_dense_s": total("to_dense"),
        "pauli.to_dense_calls": len(by["to_dense"]),
        "pauli.dense_bytes": sum(attr("to_dense", "dense_bytes")),
        "fermion.map_s": total("map_hamiltonian"),
        "fermion.terms_out": sum(attr("map_hamiltonian", "terms_out")),
        "bridge.compile_s": total("compile_bridge"),
        "bridge.compile_calls": len(by["compile_bridge"]),
        "bridge.fragments": sum(attr("compile_bridge", "fragments")),
        "bridge.active_pairs": sum(attr("compile_bridge", "active_pairs")),
        "bridge.json_s": total("decomposition_to_json", "decomposition_from_json"),
        "mpo.build_qr_s": total("build_mpo_qr"),
        "mpo.bond_sum": sum(attr("build_mpo_qr", "bond_sum")),
        "mpo.bond_max": max(attr("build_mpo_qr", "bond_max"), default=0),
        "mpo.json_s": total("mpo_to_json", "mpo_from_json"),
        "mpo.to_dense_s": total("mpo_to_dense"),
        "mps.string_expectation_calls": hot.get("string_expectation", (0, 0.0))[0],
        "mps.string_expectation_s": hot.get("string_expectation", (0, 0.0))[1],
        "mps.ground_state_s": total("ground_state_reference"),
        "mps.ground_state_self_s": sum(s["self_s"] for s in by["ground_state_reference"]),
        "mps.json_s": total("mps_to_json", "mps_from_json"),
        "sampler.sample_s": total("sample_strings"),
        "sampler.samples": sum(attr("sample_strings", "samples")),
        "sampler.curate_s": total("curate"),
        "sampler.pool_yield": sum(attr("curate", "pool")) / pool_samples if pool_samples else 0.0,
        "sampler.text_s": total("samples_to_text", "samples_from_text", "pool_to_text", "pool_from_text"),
        "varopt.assemble_s": total("assemble_pencil"),
        "varopt.assemble_self_s": sum(s["self_s"] for s in by["assemble_pencil"]),
        "varopt.pencil_k": max(attr("assemble_pencil", "k"), default=0),
        "varopt.unique_strings": unique,
        "varopt.memo_hit_ratio": 1 - unique / lookups if lookups else 0.0,
        "varopt.solve_dense_s": total("solve_ritz_dense"),
        "varopt.solve_lobpcg_s": total("solve_ritz_lobpcg"),
        "varopt.lobpcg_iterations": sum(attr("solve_ritz_lobpcg", "iterations")),
        "varopt.lobpcg_failures": sum(1 for s in by["solve_ritz_lobpcg"] if s["error"]),
        "varopt.n_kept": sum(attr("solve_ritz_lobpcg", "n_kept")),
        "lcu.compile_s": total("compile_lcu"),
        "lcu.update_s": total("update_coefficients"),
        "lcu.update_calls": len(by["update_coefficients"]),
        "lcu.emit_gates_s": total("emit_gates"),
        "lcu.json_s": total("program_to_json", "program_from_json"),
        "lcu.block_encoding_s": total("block_encoding_dense"),
        "lcu.block_encoding_dim": max(attr("block_encoding_dense", "dim"), default=0),
        "cli.calls": len(by["main"]),
        "cli.nonzero_exits": sum(1 for s in by["main"] if s["attrs"].get("rc") != 0),
        "mpo_bond_sum": sum(r["counts"].get("mpo_bond_sum", 0) for r in ops),
        "lcu_ancillas": sum(r["counts"].get("lcu_ancillas", 0) for r in ops),
        "ritz_excess": statistics.fmean(excess) if excess else 0.0,
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True,
                    help="time.time() just before the launcher started this process")
    ap.add_argument("--spawn-calibration", type=float, required=True,
                    help="hostspeed.calibrate() in the launcher just before --spawn-time")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import paulibridge

    if not Path(paulibridge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"paulibridge imported from {paulibridge.__file__}, not from this checkout")
    import workloads

    warnings.simplefilter("ignore")
    session = workloads.Session()
    make_round = workloads.WORKLOADS[args.workload]
    round_dir, warm_dir = args.work / "round", args.work / "warm"
    round_dir.mkdir(parents=True, exist_ok=True)
    warm_dir.mkdir(parents=True, exist_ok=True)

    def round_ops(r):
        return make_round(session, np.random.default_rng([args.seed, r]), round_dir)

    ops = round_ops(0)
    warm = run_round(make_round(session, np.random.default_rng([args.seed]), warm_dir, warm=True))
    setup_raw_s = time.time() - args.spawn_time
    setup_s = setup_raw_s * hostspeed.scale(args.spawn_calibration, hostspeed.calibrate())
    fails = [f for rec in warm for f in rec["fails"]]
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "attempted": len(warm), "failed": sum(1 for r in warm if r["fails"])}
    if args.setup_only:
        result["fails"] = fails
        args.result.write_text(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, records = [], [], []
    n_rounds = max(MIN_ROUNDS, -(-MIN_OPS // len(ops)), round(args.seconds / workloads.ROUND_S[args.workload]))
    hard_stop = time.perf_counter() + HARD_STOP_S
    for r in range(n_rounds):
        if r:
            ops = round_ops(r)
        untraced.append(run_round(ops))
        if tracer is not None:
            traced.append(run_round(ops, tracer))
            records.append(tracer.round_record())
            fails += determinism_fails(untraced[-1], traced[-1], "untraced and traced counts")
        if time.perf_counter() > hard_stop and r + 1 >= MIN_ROUNDS:
            break

    executed = untraced + traced
    if tracer is not None:
        again = run_round(round_ops(0), tracer)
        executed.append(again)
        fails += determinism_fails(traced[0], again, "counts of round 0")
        first = layer_metrics(records[0], traced[0])
        second = layer_metrics(tracer.round_record(), again)
        fails += [
            f"traced count {k} of round 0 differs between runs: {first[k]} vs {second[k]}"
            for k in TRACED_COUNTS
            if first[k] != second[k]
        ]
    fails += [f for rnd in executed for rec in rnd for f in rec["fails"]]
    result["attempted"] += sum(len(rnd) for rnd in executed)
    result["failed"] += sum(1 for rnd in executed for rec in rnd if rec["fails"])
    result["fails"] = fails

    raw = sorted(rec["latency"] for rnd in untraced for rec in rnd)
    latencies = sorted(rec["latency"] * rec["scale"] for rnd in untraced for rec in rnd)
    result["detail"] = {
        "rounds": len(untraced),
        "rounds_planned": n_rounds,
        "ops": len(latencies),
        "ops_per_round": len(untraced[0]),
        "traced_rounds": len(traced),
        "round_walls_s": [wall(rnd) for rnd in untraced],
        "round_scales": [statistics.median(rec["scale"] for rec in rnd) for rnd in untraced],
        "unscaled": {
            "wall_s": sum(raw),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": raw[len(raw) - TAIL_BEYOND - 1],
        },
        "tail_percentile": round(100 * (len(latencies) - TAIL_BEYOND) / len(latencies), 1),
        "op_median_s": {
            name: statistics.median(rec["latency"] for rnd in untraced for rec in rnd if rec["op"] == name)
            for name in (rec["op"] for rec in untraced[0])
        },
        "environment": environment(),
    }
    if tracer is None:
        metrics = {
            "wall_s": sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": latencies[len(latencies) - TAIL_BEYOND - 1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    else:
        per_round = [layer_metrics(rec, rnd) for rec, rnd in zip(records, traced)]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics["fail_ratio"] = result["failed"] / result["attempted"]
        metrics["trace.wall_s"] = sum(scaled_wall(rnd) for rnd in traced)
        metrics["trace.untraced_wall_s"] = sum(scaled_wall(rnd) for rnd in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = PER_LAYER_UNITS
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        tracing.dump(trace_path, records, {"workload": args.workload, "seed": args.seed,
                                           "environment": result["detail"]["environment"]})
        result["detail"]["trace_file"] = str(trace_path.relative_to(ROOT))
    result["metrics"] = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
