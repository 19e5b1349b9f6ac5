"""Span tracer that wraps dilogtba's public functions from outside the package.

Modules import functions by name (search.solve_r2, cli.solve_r2,
identities.solve_r2, analysis.kappa, ...) and tba's bisection looks up
reduced_f in its own globals, so wrapping only the defining module
would miss calls.  ``install`` therefore replaces the function object
in every loaded dilogtba namespace that holds it, and wraps the two
AlgebraicNumber conversion methods on the class.

Each call records a span (id, parent id, op id, name, start, end) in
memory; ``write_spans`` writes them out when the run ends.  A function
stops recording spans after SPAN_CAP calls, and from then on only its
count and time are aggregated.  Self time is a span's duration minus
the time covered by its child spans, computed as calls return.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

SPAN_CAP = 100_000

# (layer, module, attribute) of every wrapped function; the layer name
# and attribute form the metric prefix, e.g. tba.solve_r2.
TRACED = [
    ("search", "dilogtba.search", "run_search"),
    ("search", "dilogtba.search", "report_json"),
    ("analysis", "dilogtba.analysis", "bounds_on_c"),
    ("analysis", "dilogtba.analysis", "classify_vs_one"),
    ("analysis", "dilogtba.analysis", "uniqueness_guarantee"),
    ("tba", "dilogtba.tba", "solve_r2"),
    ("tba", "dilogtba.tba", "reduced_f"),
    ("tba", "dilogtba.tba", "kappa"),
    ("charges", "dilogtba.charges", "recognize"),
    ("dilog", "dilogtba.dilog", "rogers_L"),
    ("dilog", "dilogtba.dilog", "rogers_L_mp"),
    ("algebraics", "dilogtba.algebraics", "AlgebraicNumber.to_float"),
    ("algebraics", "dilogtba.algebraics", "AlgebraicNumber.to_mpf"),
    ("identities", "dilogtba.identities", "verify"),
    ("identities", "dilogtba.identities", "cross_check_tba"),
    ("qseries", "dilogtba.qseries", "expand"),
    ("qseries", "dilogtba.qseries", "eval_at"),
    ("qseries", "dilogtba.qseries", "estimate_ceff"),
    ("cli", "dilogtba.cli", "parse_and_dispatch"),
]

# Functions whose per-call durations are kept for percentiles.
_DURATIONS = ("tba.solve_r2", "charges.recognize")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.durations: dict[str, list[float]] = {n: [] for n in _DURATIONS}
        self.grid_points = 0
        self.expand_coeffs = 0
        self.op = -1
        self._stack: list[list] = []   # [span id, time covered by children]
        self._next_id = 0

    def install(self) -> None:
        for layer, module, attr in TRACED:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(f"{layer}.{attr}", orig)
            for name, loaded in list(sys.modules.items()):
                if name == "dilogtba" or name.startswith("dilogtba."):
                    for key, value in list(vars(loaded).items()):
                        if value is orig:
                            setattr(loaded, key, wrapper)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        durations = self.durations.get(name)
        # grid_n as solve_r2 receives it, its own default included
        signature = inspect.signature(fn) if name == "tba.solve_r2" else None
        counts_coeffs = name == "qseries.expand"
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.grid_points += bound.arguments["grid_n"]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if calls[idx] <= SPAN_CAP:
                    spans.append((span_id, parent, self.op, idx, start, end))
                if durations is not None:
                    durations.append(dur)
            if counts_coeffs:
                self.expand_coeffs += len(result.coeffs)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        """Cumulative calls and self time per function, plus the exact counters."""
        out = {"tba.grid_points": self.grid_points, "qseries.expand.coeffs": self.expand_coeffs}
        for name, n, s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for span_id, parent, op, idx, start, end in self.spans:
                fh.write(f"{span_id},{parent},{op},{self.names[idx]},{start:.9f},{end:.9f}\n")
