"""The wreathord benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh single-threaded
worker process (``worker.py``), one at a time, so the library's caches
start empty as they do for every CLI call.  With ``--trace 0`` passes
repeat until ``--seconds`` is used up and the end-to-end metrics are
printed; with ``--trace 1`` one untraced and TRACED_PASSES traced passes of
fixed work give the per-layer metrics, the tracing overhead, and a span
file under ``perfbench/traces/``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong answer, a failed suite check or a worker that cannot start makes
the command exit non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = [sys.executable, str(HERE / "worker.py")]
TRACE_DIR = HERE / "traces"
MIN_PASSES = 5
# no further pass starts once one more would likely end past this (the
# command must finish within 180 s even on a much slower build)
HARD_LIMIT_S = 150
TRACED_PASSES = 2
WORKER_TIMEOUT_S = 150
# pass seeds of one run: seed * PASS_STRIDE + pass index
PASS_STRIDE = 1000

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def run_pass(workload: str, pass_seed: int, trace: bool, trace_path: Path | None = None) -> dict:
    """Start one worker, wait for it, and return its result."""
    # a fixed hash seed keeps set iteration, and so the traced call counts, reproducible
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [workload, str(pass_seed), "1" if trace else "0"]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = WORKER + argv + [repr(spawned)] + ([str(trace_path)] if trace_path else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"pass {pass_seed} of {workload} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"pass {pass_seed} of {workload} exited with status "
                           f"{proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """p95, or the highest percentile with ten samples beyond it when there
    are fewer than 200 samples, by nearest rank.  With so few samples that
    this percentile would not lie above the median, the maximum is used.
    Returns (percent, value)."""
    xs = sorted(samples)
    n = len(xs)
    rank = min(math.ceil(0.95 * n), n - 10)
    if rank <= math.ceil(n / 2):
        rank = n
    return 100.0 * rank / n, xs[rank - 1]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p["latencies_ms"]]
    pct, tail = tail_percentile(lat)
    busy = sum(p["wall_s"] for p in passes)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "queries_per_s": len(lat) / busy,
        # the median over passes of each pass's median query: a pass that
        # ran while the host was briefly slow does not move it
        "query_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in passes),
        "query_p95_ms": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {"samples": len(lat), "tail_percentile": round(pct, 2)}
    return values, info


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict, dict]:
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        passes.append(run_pass(workload, seed * PASS_STRIDE + len(passes), trace=False))
        took = time.perf_counter() - started
        # start another pass only if it is likely to end within --seconds
        projected = time.perf_counter() - t0 + took
        if projected > HARD_LIMIT_S or (len(passes) >= MIN_PASSES and projected > seconds):
            break
    values, info = end_to_end(passes)
    return passes, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, info


def measure_traced(workload: str, seed: int) -> tuple[list[dict], dict, dict]:
    TRACE_DIR.mkdir(exist_ok=True)
    untraced = run_pass(workload, seed * PASS_STRIDE, trace=False)
    paths = [TRACE_DIR / f"{workload}-seed{seed}-pass{i}.json" for i in range(TRACED_PASSES)]
    passes = [run_pass(workload, seed * PASS_STRIDE + i, trace=True, trace_path=path)
              for i, path in enumerate(paths)]
    metrics = {}
    for name in metric_names():
        vals = [p["layers"][name] for p in passes]
        if name.endswith(".max_index"):
            value, unit = max(vals), "index"
        else:
            value, unit = sum(vals), "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    overhead = passes[0]["wall_s"] - untraced["wall_s"]
    info = {"traced_pass_s": passes[0]["wall_s"], "untraced_pass_s": untraced["wall_s"],
            "tracing_overhead_s": overhead, "trace_files": [str(p) for p in paths]}
    return passes, metrics, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.trace:
            passes, metrics, info = measure_traced(args.workload, args.seed)
        else:
            passes, metrics, info = measure(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    repeats = sum(p["repeats"] for p in passes)
    run = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "passes": len(passes), "python": platform.python_version(),
           "nproc": os.cpu_count(), "failed_ratio": failed / attempted,
           "repeated_input_share": repeats / attempted, **info}
    print("run " + json.dumps(run))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
