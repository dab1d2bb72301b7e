"""One pass of one workload, in a fresh interpreter.

Usage (run.py starts it; by hand only for debugging):

    python3 perfbench/worker.py WORKLOAD PASS_SEED TRACE SPAWN_TIME [TRACE_PATH]

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the set-up time covers interpreter start, the import of
``wreathord`` from the checkout's ``src`` and the build of both verbal
contexts.  The result is one JSON object on the last line of stdout.  A
wrong answer exits with status 1 and names the query on stderr.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_library():
    """Import wreathord from the checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import wreathord
    from wreathord import embed_rationals, embed_verbal, exprs, reporting  # noqa: F401

    if Path(wreathord.__file__).resolve().parent != SRC / "wreathord":
        raise ImportError(f"wreathord imported from {wreathord.__file__}, not {SRC}")
    return wreathord


def run_suites(workload, wreathord, pass_seed, tracer) -> dict:
    """One suite pass; the pass is the workload's one query."""
    from workloads import SUITES, check_report

    er, ev = wreathord.embed_rationals, wreathord.embed_verbal
    attempted = failed = 0
    t = time.perf_counter()
    for suite, call in SUITES[workload]:
        frame = tracer.enter("suite") if tracer else None
        try:
            report = call(er, ev, pass_seed)
        except Exception as exc:  # a suite that raises is one failed operation
            print(f"suite {suite} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        finally:
            if tracer:
                tracer.exit(frame, suite)
        attempted += len(report.checks)
        failed += check_report(suite, report, wreathord.reporting)
    return {"latencies_ms": [(time.perf_counter() - t) * 1000], "attempted": attempted,
            "failed": failed, "repeats": 0}


def run_queries(wreathord, pass_seed, tracer) -> dict:
    from workloads import answer, cache_keys, check_answer, make_block

    samples: list[float] = []
    failed = repeats = 0
    seen: set = set()
    for q in make_block(pass_seed):
        keys = cache_keys(q)
        repeats += any(k in seen for k in keys)
        seen.update(keys)
        frame = tracer.enter("query") if tracer else None
        t = time.perf_counter()
        try:
            got = answer(q, wreathord)
        except Exception as exc:  # a raised error or an undecided verdict is a failed query
            got = None
            print(f"query {q['id']} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            samples.append((time.perf_counter() - t) * 1000)
            if tracer:
                tracer.exit(frame, {"query": q["id"], "kind": q["kind"], "size": q["size"]})
        if got is None:
            failed += 1
        else:
            check_answer(q, got)
    return {"latencies_ms": samples, "attempted": len(samples), "failed": failed,
            "repeats": repeats}


def main(argv: list[str]) -> int:
    workload, pass_seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    trace_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, str(HERE))
    from workloads import LARGE, FAMILIES, Mismatch

    wreathord = import_library()
    for family in FAMILIES:
        wreathord.embed_verbal.get_context(family)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t = time.perf_counter()
    try:
        if workload == LARGE:
            result = run_queries(wreathord, pass_seed, tracer)
        else:
            result = run_suites(workload, wreathord, pass_seed, tracer)
    except Mismatch as exc:
        print(f"known-answer mismatch: {exc}", file=sys.stderr)
        return 1
    result["wall_s"] = time.perf_counter() - t
    if tracer:
        result["layers"] = tracer.metrics()
        if trace_path:
            doc = {"workload": workload, "pass_seed": pass_seed, "wall_s": result["wall_s"],
                   **tracer.dump()}
            Path(trace_path).write_text(json.dumps(doc))
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
