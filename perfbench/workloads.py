"""The three benchmark workloads: seeded inputs, the fixed job, output checks.

A workload turns a seed into a fixed job, a list of operations against
the public dilogtba API.  The worker times each operation, then hands
its raw result to ``check``, which returns an ``Outcome``: the text the
output digest covers, how many operations it stands for, how many of
them failed, and any failed output check.  All checks run outside the
timed region.

Failures, counted against attempts (``Outcome.failed``):
  * an exception escaping the program,
  * a CLI exit code that breaks the documented contract
    (0 ok, 1 computation failure, 2 bad input),
  * a ScanFailure on an in-range matrix,
  * a failed output check (its message goes to ``Outcome.misses``).
A failure is a property of the program under test; the benchmark shows
it rather than stopping on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

_HALF = F(1, 2)
_EQ_TOL = 1e-10          # own check of x = (1-x)^2a (1-y)^2b, y = (1-x)^2b (1-y)^2d
_TARGET_TOL = 1e-9       # anchor targets
_CEFF_TOL = 0.02         # estimate_ceff against FORM_SYSTEMS
_EVAL_REL_TOL = 1e-10    # eval_at against the truncated expansion


@dataclass
class Outcome:
    digest: str                 # canonical output text covered by the digest
    attempted: int = 1          # operations this outcome stands for
    failed: int = 0             # operations among them that failed
    misses: list[str] = field(default_factory=list)  # failed output checks
    counts: dict[str, int] = field(default_factory=dict)  # per-layer counters


def equation_residual(a: F, b: F, d: F, x: float, y: float) -> float:
    """Defect of the rank-2 fixed-point equations, in the benchmark's own code."""
    a, b, d = float(a), float(b), float(d)
    r1 = abs(x - (1.0 - x) ** (2 * a) * (1.0 - y) ** (2 * b))
    r2 = abs(y - (1.0 - x) ** (2 * b) * (1.0 - y) ** (2 * d))
    return max(r1, r2)


# ---------------------------------------------------------------------------
# search


def _entry_values(max_den: int, max_num: int, lo: F, hi: F) -> list[F]:
    return sorted({F(p, q) for q in range(1, max_den + 1) for p in range(max_num + 1)
                   if lo <= F(p, q) <= hi})


# Anchor jobs: fixed windows holding twelve of the thirteen known
# sporadic matrices and family points, with their exact c.
_ANCHORS = [
    (dict(max_denominator=2, max_numerator=5), {
        (2, 1, 1): F(4, 7), (2, F(3, 2), F(3, 2)): _HALF, (4, F(3, 2), 1): _HALF,
        (4, F(5, 2), 2): F(2, 5), (_HALF, _HALF, _HALF): F(4, 5),
        (1, _HALF, _HALF): F(3, 4), (2, _HALF, _HALF): F(7, 10), (_HALF, _HALF, 0): F(1),
    }),
    (dict(max_denominator=9, max_numerator=8, fix_d=F(0), entry_min=F(1, 6), entry_max=_HALF), {
        (F(1, 4), F(1, 4), 0): F(8, 7), (F(4, 9), F(1, 6), 0): F(6, 5),
    }),
    (dict(max_denominator=4, max_numerator=8, entry_min=_HALF, entry_max=F(5, 4)), {
        (1, _HALF, F(3, 4)): F(5, 7), (F(5, 4), 1, 1): F(3, 5),
    }),
]

# Seeded sub-jobs per regime.  A window of n entry values enumerates
# 60 (d > 0, n = 4), 64 (d = 0, n = 8) or 57 (a = d, n = 6) matrices
# whatever the seed draws.  Denominators cycle through their range and
# window starts are stratified over (0, 2], so every seed's job covers
# the same spread of windows and has about the same cost.
_SEARCH_SUBJOBS = 8


def _draw_windows(rng: random.Random, dens: tuple[int, int], n_values: int, **fixed) -> list[dict]:
    """_SEARCH_SUBJOBS entry windows of n_values consecutive values each."""
    qs = [dens[0] + k % (dens[1] - dens[0] + 1) for k in range(_SEARCH_SUBJOBS)]
    rng.shuffle(qs)
    windows = []
    for k, q in enumerate(qs):
        lo = F(1 + int((k + rng.random()) * 2 * q / _SEARCH_SUBJOBS), q)
        values = _entry_values(q, 8, lo, F(8))
        windows.append(dict(max_denominator=q, max_numerator=8, entry_min=lo,
                            entry_max=values[n_values - 1], **fixed))
    return windows


class SearchWorkload:
    """Batches of run_search + report_json jobs.

    Why: this is where tba bisection, the analysis bounds and kappa,
    charges and the search pipeline do most of their work; cli,
    identities and qseries are never touched.  The three seeded regimes
    follow EXAMPLE_CONFIGS: d > 0 with bounds pruning (den2/den4),
    d fixed at 0 with boundary solutions and denominators up to 18
    (diag_zero), and a = d with many nonunique matrices (symmetric).
    One request is one sub-job; one failable operation is one
    enumerated matrix.
    """

    name = "search"

    def __init__(self):
        from dilogtba import search
        self._search = search   # looked up per call, so the tracer's wrappers are seen

    def warmup_ops(self) -> list:
        return [
            ("warmup", dict(max_denominator=2, max_numerator=2), {}),
            ("warmup", dict(max_denominator=3, max_numerator=2, fix_d=F(0)), {}),
            ("warmup", dict(max_denominator=2, max_numerator=3, a_eq_d=True), {}),
        ]

    def make_job(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = [("anchor", cfg, targets) for cfg, targets in _ANCHORS]
        for cfgs in zip(_draw_windows(rng, (2, 6), 4),
                        _draw_windows(rng, (6, 18), 8, fix_d=F(0)),
                        _draw_windows(rng, (2, 8), 6, a_eq_d=True)):
            ops.extend(zip(("prune", "diag_zero", "symmetric"), cfgs, ({}, {}, {})))
        return ops

    def execute(self, op):
        _, cfg, _ = op
        report = self._search.run_search(self._search.SearchConfig(**cfg))
        return report, self._search.report_json(report)

    def check(self, op, raw, state) -> Outcome:
        kind, cfg, targets = op
        report, text = raw
        misses = []
        for cand in report.admissible:
            A, sol = cand.A, cand.solution
            res = equation_residual(A.a, A.b, A.d, sol.x, sol.y)
            if not res <= _EQ_TOL:
                misses.append(f"{kind}: admissible {A} violates the equations by {res:.2e}")
        found = {cand.A.entries: cand.c for cand in report.admissible}
        for entries, want in targets.items():
            key = tuple(F(v) for v in entries)
            got = found.get(key)
            if got is None or not abs(got - float(want)) <= _TARGET_TOL:
                misses.append(f"anchor target {key} c={want} not recovered (got {got})")
        counts = {
            "enumerated": report.scanned,
            "pruned": report.pruned,
            "solved": report.solved,
            "scan_failures": len(report.failures),
            "suspect_resolves": sum(c.suspect for c in report.admissible + report.nonunique),
            "admissible": len(report.admissible),
            "nonunique": len(report.nonunique),
        }
        # run_search enumerates only in-range matrices, so every scan
        # failure is a ScanFailure on an in-range matrix
        return Outcome(digest=text, attempted=max(report.scanned, 1),
                       failed=len(report.failures) + len(misses), misses=misses, counts=counts)


# ---------------------------------------------------------------------------
# cli-mix


def _random_matrix(rng: random.Random, max_den: int = 6, max_num: int = 4) -> tuple[F, F, F]:
    """In-range matrix with positive diagonal and b >= -min(a, d)."""
    den_a, den_b, den_d = (rng.randint(1, max_den) for _ in range(3))
    a = F(rng.randint(1, max_num * den_a), den_a)
    d = F(rng.randint(1, max_num * den_d), den_d)
    b = F(rng.randint(math.ceil(-min(a, d) * den_b), max_num * den_b), den_b)
    return a, b, d


def _dual_matrix(rng: random.Random) -> tuple[F, F, F]:
    """Matrix whose dual (1/4) A^-1 is also in range: D > 0 and b <= min(a, d)."""
    while True:
        a, b, d = _random_matrix(rng)
        if a * d - b * b > 0 and b <= min(a, d):
            return a, b, d


def _entries(a, b, d) -> list[str]:
    return ["-A", str(a), str(b), str(d)]


def _recognize_value(rng: random.Random) -> str:
    """A value near the minimal or parafermionic spectrum, or a fraction."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(2, 200)
        v = 1 - 6 / n if rng.random() < 0.5 else 1 + 6 / n
    elif kind == 1:
        n = rng.randint(2, 60)
        v = 2 * (n - 1) / (n + 2)
    else:
        return f"{rng.randint(1, 40)}/{rng.randint(1, 40)}"
    return repr(v + rng.uniform(-1e-11, 1e-11))


def _malformed(rng: random.Random) -> list[list[str]]:
    """Inputs the CLI contract says must exit 2; seeded variants of each."""
    a, b, d = _random_matrix(rng)
    return [
        ["recognize", rng.choice(["nan", "NaN", "NAN"]), "--json"],
        ["recognize", rng.choice(["1e400", "2e308", "1e999"]), "--json"],
        ["recognize", repr(rng.uniform(0, 2)), "--tol", "0", "--json"],
        ["search", "--max-num", "0", "--json"],
        ["solve", *_entries(a, b, d), "--grid-n", str(rng.randint(2, 1000)), "--json"],
    ]


# Request counts per kind in one cli-mix job: mostly rank-2 solve and
# dual at the default grid, with a few of the heavy identity, expand
# and ceff requests.
_CLI_MIX = dict(solve=56, solve_r1=4, dual=15, bounds=8, classify=8, recognize=10,
                verify=5, expand=5, ceff=7)


class CliMixWorkload:
    """A closed loop with one client calling parse_and_dispatch in-process.

    Why: it uses tba differently from search (one matrix on the 5x finer
    default grid, so the numpy scan dominates rather than bisection),
    and it is the only workload where cli, identities, algebraics and
    the mpmath dilogarithm do real work.  The stream also carries the
    five malformed requests that must exit 2.
    """

    name = "cli-mix"

    def __init__(self):
        from dilogtba import cli
        self._cli = cli
        self._validator = None

    def _validate(self, doc) -> list[str]:
        if self._validator is None:   # imported on first check, outside set-up
            import jsonschema
            schema = Path(__file__).resolve().parent.parent / "src/dilogtba/data/cli_output.schema.json"
            self._validator = jsonschema.Draft202012Validator(json.loads(schema.read_text()))
        return [e.message for e in self._validator.iter_errors(doc)]

    def warmup_ops(self) -> list:
        return [(argv, 0) for argv in (
            ["solve", "-A", "2", "1", "1", "--json"],
            ["solve", "-A", "1", "--json"],
            ["dual", "-A", "2", "1", "1", "--json"],
            ["bounds", "-A", "2", "1", "1", "--json"],
            ["classify", "-A", "2", "1", "1", "--json"],
            ["recognize", "0.5714285714", "--json"],
            ["verify-identities", "--precision", "1e-60", "--cross-check", "--json"],
            ["expand", "chi_3_7", "--order", "20", "--json"],
            ["ceff-estimate", "chi_3_7", "--json"],
        )]

    def make_job(self, seed: int) -> list:
        from dilogtba.qseries import FORMS
        rng = random.Random(seed)
        forms = sorted(FORMS)
        ops = []
        for _ in range(_CLI_MIX["solve"]):
            ops.append(["solve", *_entries(*_random_matrix(rng)), "--json"])
        for _ in range(_CLI_MIX["solve_r1"]):
            a = rng.choice(["inf", f"{rng.randint(0, 40)}/{rng.randint(1, 8)}"])
            ops.append(["solve", "-A", a, "--json"])
        for _ in range(_CLI_MIX["dual"]):
            ops.append(["dual", *_entries(*_dual_matrix(rng)), "--json"])
        for _ in range(_CLI_MIX["bounds"]):
            a, b, d = _random_matrix(rng)
            ops.append(["bounds", *_entries(max(a, d), b, min(a, d)), "--json"])
        for _ in range(_CLI_MIX["classify"]):
            ops.append(["classify", *_entries(*_random_matrix(rng)), "--json"])
        for _ in range(_CLI_MIX["recognize"]):
            ops.append(["recognize", _recognize_value(rng), "--json"])
        # precisions stratified over 1e-12 .. 1e-60, one per band
        for k in range(_CLI_MIX["verify"]):
            exp = rng.randint(12 + 10 * k, 12 + 10 * k + 8) if k < 4 else 60
            argv = ["verify-identities", "--precision", f"1e-{exp}", "--json"]
            if k % 2:
                argv.insert(1, "--cross-check")
            ops.append(argv)
        for _ in range(_CLI_MIX["expand"]):
            ops.append(["expand", rng.choice(forms), "--order", str(rng.randint(5, 40)), "--json"])
        for form in forms:
            eps = ",".join(f"{e * rng.uniform(0.97, 1.03):.4f}" for e in (0.20, 0.12, 0.07, 0.04))
            ops.append(["ceff-estimate", form, "--eps", eps, "--json"])
        ops = [(argv, 0) for argv in ops] + [(argv, 2) for argv in _malformed(rng)]
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        argv, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self._cli.parse_and_dispatch(list(argv))
            except Exception as exc:  # an escaping exception is a measured failure
                return None, f"{type(exc).__name__}: {exc}", ""
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, raw, state) -> Outcome:
        argv, want_rc = op
        rc, out, err = raw
        digest = f"{' '.join(argv)}\n{rc}\n{out}"
        if rc != want_rc:
            got = f"raised {out}" if rc is None else f"exited {rc}"
            return Outcome(digest=digest, failed=1, counts={"requests_failed": 1},
                           misses=[f"{' '.join(argv)}: {got}, expected exit {want_rc}"])
        misses = []
        if rc == 0:
            try:
                doc = json.loads(out)
            except ValueError as exc:
                problems = [f"not JSON ({exc})"]
            else:
                problems = self._validate(doc)
            if problems:
                misses.append(f"{argv[0]} reply is invalid: {problems[0]}")
            elif doc["command"] == "solve" and doc["rank"] == 2:
                a, b, d = (F(doc["matrix"][k]) for k in "abd")
                res = equation_residual(a, b, d, doc["x"]["value"], doc["y"]["value"])
                if not res <= _EQ_TOL:
                    misses.append(f"solve {a} {b} {d} violates the equations by {res:.2e}")
            elif doc["command"] == "verify-identities" and not doc["all_pass"]:
                misses.append(f"verify-identities at {doc['precision']} reports failures")
        return Outcome(digest=digest, failed=int(len(misses) > 0), misses=misses,
                       counts={"requests_failed": int(len(misses) > 0)})


# ---------------------------------------------------------------------------
# qseries


class QseriesWorkload:
    """expand on all seven FORMS at a seeded ladder of orders, then
    eval_at and estimate_ceff at seeded q and eps values.

    Why: qseries does nearly all the work and tba, search and cli do
    none, so an expand rewrite has one workload that shows its gain and
    two that must stay unchanged.  Each rung is drawn from a narrow band
    because expand grows as order^3: the seed moves the inputs, not the
    amount of work.
    """

    name = "qseries"

    def __init__(self):
        from dilogtba import qseries
        self._q = qseries

    def warmup_ops(self) -> list:
        return [("expand", "chi_2_5", 30), ("expand", "chi_3_7", 30),
                ("eval_at", "chi_3_7", 0.2), ("ceff", "chi_2_5", (0.20, 0.12, 0.07, 0.04))]

    def make_job(self, seed: int) -> list:
        rng = random.Random(seed)
        forms = sorted(self._q.FORMS)
        ops = []
        for form in forms:
            ladder = (rng.randint(36, 44), rng.randint(116, 124), rng.randint(236, 244))
            ops.extend(("expand", form, order) for order in ladder)
        # q stratified over (0.02, 0.3), one draw per quarter, so the
        # median request stays inside the eval_at class for every seed
        for form in forms:
            for k in range(4):
                ops.append(("eval_at", form, round(rng.uniform(0.02 + 0.07 * k, 0.09 + 0.07 * k), 6)))
        for form in forms:
            eps = tuple(round(e * rng.uniform(0.97, 1.03), 6) for e in (0.20, 0.12, 0.07, 0.04))
            ops.append(("ceff", form, eps))
        return ops

    def execute(self, op):
        kind, name, arg = op
        form = self._q.FORMS[name]
        if kind == "expand":
            return self._q.expand(form, arg)
        if kind == "eval_at":
            return self._q.eval_at(form, arg)
        return self._q.estimate_ceff(form, eps_list=arg)

    def check(self, op, raw, state) -> Outcome:
        kind, name, arg = op
        misses = []
        if kind == "expand":
            digest = f"expand {name} {arg}\n{raw.to_text()}"
            prev = state.get(name)
            if prev is not None:
                cut = prev.order * raw.denom
                mine = {k: v for k, v in raw.coeffs.items() if k <= cut}
                if raw.denom != prev.denom or mine != prev.coeffs:
                    misses.append(f"expand {name}: order {prev.order} is not a prefix of order {arg}")
            state[name] = raw
            return Outcome(digest=digest, failed=len(misses), misses=misses)
        if kind == "eval_at":
            digest = f"eval_at {name} {arg} {raw!r}\n"
            if name not in state:   # every expand of this form failed
                misses.append(f"eval_at {name} q={arg}: no expansion to check against")
                return Outcome(digest=digest, failed=1, misses=misses)
            ref = state[name].eval_at(arg)
            if not abs(raw - ref) <= _EVAL_REL_TOL * abs(ref):
                misses.append(f"eval_at {name} q={arg}: {raw!r} vs truncated expansion {ref!r}")
        else:
            digest = f"estimate_ceff {name} {arg} {raw!r}\n"
            want = float(self._q.FORM_SYSTEMS[name][1])
            if not abs(raw - want) <= _CEFF_TOL:
                misses.append(f"estimate_ceff {name}: {raw:.5f} vs {want:.5f}")
        return Outcome(digest=digest, failed=len(misses), misses=misses)


WORKLOADS = {w.name: w for w in (SearchWorkload, CliMixWorkload, QseriesWorkload)}
