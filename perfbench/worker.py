"""Runs one workload in this process: set up, a closed loop, then a report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

One client, no threads: each operation starts after the previous one
returned. The worker prints ``ready`` once its inputs exist (``run.py``
times set-up up to that line), then, unless ``--setup-only``, runs whole
rounds until ``--seconds`` have passed and prints one JSON report.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import qrbs  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if Path(qrbs.__file__).resolve().parent != ROOT / "src" / "qrbs":
        print(f"qrbs imported from {qrbs.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    work = BENCH / "work" / args.workload
    workload = WORKLOADS[args.workload](args.seed, work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    latencies: list[float] = []  # seconds, of operations answered correctly
    busy = 0.0  # seconds in qrbs calls, failed operations included
    attempted = failed = wrong = rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for op in workload.ops(rounds):
            run = op.run
            if tracer:
                tracer.op = attempted
                run = tracer.wrap(f"op.{op.kind}", op.run)
            attempted += 1
            start = time.perf_counter()
            try:
                out = run()
            except Exception:  # one failed operation must not end the run
                busy += time.perf_counter() - start
                failed += 1
                if failed <= 3:
                    traceback.print_exc()
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            try:
                if tracer:
                    with tracer.paused():
                        ok = op.check(out)
                else:
                    ok = op.check(out)
            except Exception:  # output the check cannot read is a wrong answer
                traceback.print_exc()
                ok = False
            if ok:
                latencies.append(elapsed)
            else:
                failed += 1
                wrong += 1
                if wrong <= 3:
                    print(f"wrong answer: {op.kind} op {attempted - 1}", file=sys.stderr)
        rounds += 1

    done = sorted(latencies)
    ops_per_s = len(done) / busy
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "correct": wrong == 0, "tail_percentile": workload.tail_percentile,
        "ops_per_s": ops_per_s,
    }
    if tracer:
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        tracer.write(results / f"trace-{args.workload}-seed{args.seed}.jsonl")
        report["metrics"] = tracer.layer_metrics()
    else:
        p50 = percentile(done, 50) * 1e3 if done else 0.0
        # the tail is a percentile with at least ten samples beyond it;
        # a run of fewer than forty operations reports its median alone
        pct = workload.tail_percentile
        if len(done) < 40 or len(done) - math.ceil(pct / 100 * len(done)) < 10:
            print(f"{len(done)} operations: too few for p{pct}; tail is the median",
                  file=sys.stderr)
            tail = p50
        else:
            tail = percentile(done, pct) * 1e3
        report["metrics"] = {
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_tail_ms": (tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
