"""One repetition of a workload, in a fresh interpreter: set up, run the job once, check.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
BLAS/OpenMP pinned to one thread.  Every repetition is its own process,
so nothing the program caches (the kappa cache, the grid cache, refined
constants) carries over from one run of the job to the next.  Prints
one JSON object on its last stdout line: the set-up split and the
CLOCK_MONOTONIC time set-up ended, the job's wall time and request
latencies, its output digest, failure counts, the traced per-layer
totals (with --trace 1), peak RSS and versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import time

_MAX_MISSES = 20


def _setup(workload_name: str) -> tuple[object, dict]:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: most of the import cost)
    t1 = time.perf_counter()
    import dilogtba.cli  # noqa: F401
    t2 = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name]()
    for op in workload.warmup_ops():
        workload.execute(op)
    t3 = time.perf_counter()
    return workload, {
        "numpy_import_s": t1 - t0,
        "dilogtba_import_s": t2 - t1,
        "warmup_s": t3 - t2,
        "ready_monotonic": time.clock_gettime(time.CLOCK_MONOTONIC),
    }


def _run_job(workload, job, tracer) -> dict:
    digest = hashlib.sha256()
    latencies, misses, counts = [], [], {}
    attempted = failed = 0
    state: dict = {}
    for i, op in enumerate(job):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            raw = workload.execute(op)
        except Exception as exc:  # an escaping exception is a measured failure
            raw, exc_text = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        if raw is None:
            attempted += 1
            failed += 1
            digest.update(f"{i} exception {exc_text}\n".encode())
            continue
        out = workload.check(op, raw, state)
        digest.update(f"{i}\n".encode() + out.digest.encode())
        attempted += out.attempted
        failed += out.failed
        misses.extend(out.misses)
        for key, value in out.counts.items():
            counts[key] = counts.get(key, 0) + value
    # the output checks run between requests, outside the timed region
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "digest": digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "misses": misses[:_MAX_MISSES],
        "counts": counts,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()

    workload, setup = _setup(args.workload)
    job = workload.make_job(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    result = _run_job(workload, job, tracer)
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_job": len(job),
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    })
    if tracer:
        result["layers"] = tracer.snapshot()
        result["durations_s"] = tracer.durations
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


def _versions() -> dict:
    import mpmath
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


if __name__ == "__main__":
    main()
