"""Benchmark for dilogtba: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see workloads.py for why each exists): search, cli-mix,
qseries.  Every process is single-threaded (BLAS/OpenMP pinned to 1).

A repetition is one fresh interpreter (worker.py) that sets up, runs
the workload's fixed job once and checks its outputs, so no cache of
the program survives from one repetition to the next.  Repetitions run
one after another until --seconds have passed, at least MIN_REPS times.

--trace 0 prints the end-to-end metrics, medians over the repetitions:
  setup_s      time from spawn through `import dilogtba.cli` and the
               warm-up of one request or job of each kind
  wall_s       time of the fixed job: the sum of its request latencies
  peak_rss_mb  peak resident memory of the repetition's process
and, printed and in the metadata only (see LATENCY), over the job's
requests, each taken at its median over the repetitions:
  req_p50_ms   median request latency
  req_tail_ms  latency at the highest percentile with at least 10
               requests beyond it
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics: calls and self time of every traced function
(tracer.py), the exact counters, the set-up split, and the tracing
overhead.

The last stdout line is the JSON result {correct, attempted, failed,
metrics}.  attempted and failed count the operations of one run of the
fixed job; a failed output check is a failed operation (workloads.py).
correct is false when the run cannot be trusted: the output digest
differs between repetitions, traced or not, or, for search,
tba.solve_r2 calls differ from solved + scan failures + suspect
re-solves.  The lines before the result give the metrics by name with
units, fail_ratio, and a metadata record that is also written to
perfbench/results/.  Exits 1 without a result if the program cannot be
run or benchmarked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("search", "cli-mix", "qseries")
MIN_REPS = 3
_WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, not in the result: requests of different kinds
# sit close together near the qseries quantiles, so across seeds they
# spread 0.18-0.20, too near 0.25, the largest bound the result may carry.
LATENCY = {"req_p50_ms": "ms", "req_tail_ms": "ms"}

_SEARCH_COUNTS = ("enumerated", "pruned", "solved", "scan_failures", "suspect_resolves",
                  "admissible", "nonunique")
PER_LAYER = {}
for _layer, _, _attr in TRACED:
    _fn = f"{_layer}.{_attr.split('.')[-1]}"
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
PER_LAYER.update({
    "tba.solve_r2.p50_us": "us", "tba.solve_r2.tail_us": "us", "tba.grid_points": "count",
    "charges.recognize.p50_us": "us", "qseries.expand.coeffs": "count",
    **{f"search.{k}": "count" for k in _SEARCH_COUNTS},
    "search.prune_ratio": "ratio", "search.yield": "ratio",
    "cli.requests_failed": "count",
    "setup.numpy_import_s": "s", "setup.dilogtba_import_s": "s", "setup.warmup_s": "s",
    "trace.overhead": "ratio",
})


class BenchError(Exception):
    """The program could not be run or benchmarked."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _repetition(workload: str, seed: int, trace: int, spans: Path | None = None) -> dict:
    """One repetition in a fresh interpreter; its setup_s runs from spawn to ready."""
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if spans is not None:
        args += ["--spans", str(spans)]
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=_WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup"]["setup_s"] = rep["setup"]["ready_monotonic"] - spawned
    return rep


def _repetitions(workload: str, seed: int, seconds: float, trace: int,
                 spans: Path | None) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repetitions, until seconds have passed.

    With trace 1 the two kinds alternate, so host load drifting during
    the run weighs on both alike; only the first traced one writes spans.
    """
    untraced, traced = [], []
    kinds = (0, 1) if trace else (0,)
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(untraced) < MIN_REPS
           or (trace and len(traced) < MIN_REPS)):
        for kind in kinds:
            if kind:
                traced.append(_repetition(workload, seed, 1, None if traced else spans))
            else:
                untraced.append(_repetition(workload, seed, 0))
    return untraced, traced


def tail_percentile(n: int) -> float:
    """Highest percentile (one decimal) with at least 10 of n samples beyond it."""
    return math.floor(1000 * (1 - 10 / n)) / 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def _end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    values = {
        "setup_s": median(rep["setup"]["setup_s"] for rep in reps),
        "wall_s": median(rep["wall_s"] for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
    }
    request_ms = [median(times) * 1e3 for times in zip(*(rep["latencies_s"] for rep in reps))]
    pct = tail_percentile(len(request_ms))
    latency = {"req_p50_ms": percentile(request_ms, 50),
               "req_tail_ms": percentile(request_ms, pct),
               "tail_percentile": pct, "samples": len(request_ms)}
    return values, {"latency": latency}


def _per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict, list[str]]:
    values = {key: median(rep["layers"][key] for rep in traced) for key in traced[0]["layers"]}
    counts = traced[0]["counts"]
    for key in _SEARCH_COUNTS:
        values[f"search.{key}"] = counts.get(key, 0)
    values["search.prune_ratio"] = (counts["pruned"] / counts["enumerated"]
                                    if counts.get("enumerated") else 0.0)
    values["search.yield"] = counts["admissible"] / counts["solved"] if counts.get("solved") else 0.0
    values["cli.requests_failed"] = counts.get("requests_failed", 0)

    meta = {}
    for name in ("tba.solve_r2", "charges.recognize"):
        durations = [d for rep in traced for d in rep["durations_s"][name]]
        values[f"{name}.p50_us"] = percentile(durations, 50) * 1e6 if durations else 0.0
        meta[f"{name}.samples"] = len(durations)
        if name == "tba.solve_r2":
            pct = tail_percentile(len(durations)) if len(durations) > 10 else None
            values["tba.solve_r2.tail_us"] = percentile(durations, pct) * 1e6 if pct else 0.0
            meta["tba.solve_r2.tail_percentile"] = pct
    for key in ("numpy_import_s", "dilogtba_import_s", "warmup_s"):
        values[f"setup.{key}"] = median(rep["setup"][key] for rep in untraced + traced)
    values["trace.overhead"] = (median(rep["wall_s"] for rep in traced)
                                / median(rep["wall_s"] for rep in untraced))

    problems = []
    if traced[0]["workload"] == "search":
        for i, rep in enumerate(traced):
            calls = rep["layers"]["tba.solve_r2.calls"]
            c = rep["counts"]
            accounted = c["solved"] + c["scan_failures"] + c["suspect_resolves"]
            if calls != accounted:
                problems.append(f"traced rep {i}: tba.solve_r2.calls {calls} != solved"
                                f" + scan_failures + suspect_resolves {accounted}")
    return values, meta, problems


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the metadata record."""
    if not (ROOT / "src" / "dilogtba" / "__init__.py").is_file():
        raise BenchError(f"no dilogtba package under {ROOT / 'src'}")
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.csv" if trace else None
    untraced, traced = _repetitions(workload, seed, seconds, trace, spans)
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "src_lines": _src_lines(),
            "reps": len(untraced), "traced_reps": len(traced)}
    if trace:
        values, extra, problems = _per_layer(traced, untraced)
        units = PER_LAYER
        meta["spans_file"] = str(spans.relative_to(ROOT))
    else:
        values, extra = _end_to_end(untraced)
        problems = []
        units = END_TO_END
    reps = untraced + traced
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(f"output digest differs between repetitions, traced or not: {sorted(digests)}")
    attempted = reps[0]["attempted"]
    failed = max(rep["failed"] for rep in reps)
    misses = sorted({m for rep in reps for m in rep["misses"]})
    meta.update(extra)
    meta.update({
        "versions": reps[0]["versions"], "ops_per_job": reps[0]["ops_per_job"],
        "digest": reps[0]["digest"], "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "check_misses": misses[:20],
        "integrity_problems": problems,
        "rep_wall_s": [rep["wall_s"] for rep in untraced],
    })
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    return result, meta


def _print_result(workload: str, result: dict, meta: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    if "latency" in meta:
        lat = meta["latency"]
        for name, unit in LATENCY.items():
            print(f"{workload} {name} {lat[name]:.6g} {unit}")
        print(f"{workload} (tail at p{lat['tail_percentile']} of {lat['samples']} requests)")
    print(f"{workload} fail_ratio {meta['fail_ratio']:.6g} ratio"
          f" ({meta['failed']} failed of {meta['attempted']} attempted)")
    print("meta " + json.dumps(meta, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, meta = run_workload(name, args.seed, args.seconds, args.trace)
            _print_result(name, result, meta)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
