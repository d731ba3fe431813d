"""Benchmark launcher: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {compile,ritz,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``
of that checkout. The launcher pins the BLAS and OpenMP thread counts,
then starts the workload processes one at a time: ``SETUP_PROBES``
processes that only set up (so ``setup_s`` is the median of several
set-ups), then the measuring process. Files go to ``.bench_work/`` in the
checkout and the per-run directory is removed at the end.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a traced run. The line before
it carries the sample counts, the environment and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREADS = "1"
# pinned before numpy loads, in this process (for its calibrations) and
# in the workload processes, which inherit the environment
os.environ.update(OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile", "ritz", "verify")
SETUP_PROBES = 4
DEADLINE_S = 170


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    result = Path(argv[argv.index("--result") + 1])
    calibration = hostspeed.calibrate()
    spawn = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv, "--spawn-time", repr(spawn),
         "--spawn-calibration", repr(calibration)],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code is None:
        raise SystemExit("error: workload process ran past the deadline")
    if code != 0:
        raise SystemExit(f"error: workload process exited {code}")
    return json.loads(result.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into SystemExit so run_worker's cleanup stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "paulibridge" / "__init__.py").is_file():
        print(f"error: no src/paulibridge package under {ROOT}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        probes = [
            run_worker(base + ["--work", str(work / f"probe{i}"), "--result",
                               str(work / f"probe{i}.json"), "--setup-only"], env, deadline)
            for i in range(SETUP_PROBES if not args.trace else 0)
        ]
        main_result = run_worker(base + ["--work", str(work / "main"), "--result",
                                         str(work / "main.json")], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = probes + [main_result]
    fails = [f for r in results for f in r["fails"]]
    metrics = main_result["metrics"]
    if not args.trace:
        setup_s = statistics.median(r["setup_s"] for r in results)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    detail = main_result["detail"]
    detail.update(setup_samples=len(results), setup_values=[r["setup_s"] for r in results],
                  setup_raw_values=[r["setup_raw_s"] for r in results],
                  failures=fails[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not fails,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
