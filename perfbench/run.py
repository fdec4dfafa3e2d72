"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,wide,enum,cli} --seed N \\
                             --seconds S --trace 0|1

Runs the workload in a worker process of its own (``worker.py``), so that
peak RSS is that workload's alone. With ``--trace 0`` it reports the
end-to-end metrics; set-up time is the median over SETUP_SAMPLES fresh
interpreters, each timed from launch until its inputs exist, three of them
before the measured run and three after. With
``--trace 1`` it reports the per-layer metrics of a traced run and writes
its spans to ``perfbench/results/``. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 7  # the worker of the measured run is one of them
TIMEOUT_S = 150


def start_worker(args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Launch a worker and wait for its ``ready`` line; returns it and its set-up time."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    # one client and no threads: numpy's OpenBLAS would start a thread per
    # core at import, and set-up time would then swing with the load on the
    # other core
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="sweep, wide, enum or cli")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qrbs" / "__init__.py").is_file():
        print(f"no qrbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def setup_sample() -> None:
        proc, elapsed = start_worker(args, setup_only=True)
        finish(proc)
        setup.append(elapsed)

    # set-up samples go before and after the measured run, so that they see
    # the machine at two moments
    setup: list[float] = []
    extra_samples = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        for _ in range(extra_samples // 2):
            setup_sample()
        proc, elapsed = start_worker(args, setup_only=False)
        setup.append(elapsed)
        report = json.loads(finish(proc).splitlines()[-1])
        for _ in range(extra_samples - extra_samples // 2):
            setup_sample()
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    report["setup_samples_s"] = setup
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} {mode}: {report['rounds']} rounds, "
          f"attempted={report['attempted']} failed={report['failed']}")
    if args.trace:
        print(f"  traced ops_per_s {report['ops_per_s']:.4f} 1/s")
    else:
        print(f"  tail percentile p{report['tail_percentile']}")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
