"""Catalog of two-term Rogers dilogarithm identities with algebraic arguments.

Each catalog entry asserts sum_i coeff_i * L(arg_i) = target, where the
arguments are closed-form expressions over the named algebraic constants
of module algebraics (rho, lam, alpha, beta, gamma, delta, u_plus,
u_minus, mu, nu), rational numbers, and square roots.  A typical entry:

    identity heptagon_4_7
      term 1 1/lam^2
      term 1 1/(lam^2 - 1)^2
      target 4/7
      matrix 2 1 1
      source equivalent to the second Watson identity
    end

Grammar of argument expressions (integer literals only; '/' builds
rationals, '^' takes a nonnegative integer exponent):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | NAME | 'sqrt' '(' expr ')' | '(' expr ')'

The catalog file holds one record per identity: a header line
"identity NAME", indented field lines ("term COEFF EXPR",
"target P/Q", optional "matrix A B D", "source TEXT"), and a
closing "end".  Records are separated by single blank lines.  The
serializer reproduces this layout byte-identically, with expression
strings preserved exactly as read.

verify() evaluates an entry's residual |sum coeff L(arg) - target| in
binary64 (from the correctly rounded doubles the constants keep)
or, for precision requests below 1e-13, as |sum coeff [L(arg)]_D -
target| computed exactly in rationals, where [.]_D rounds to the nearest
binary float of D working digits.  Each L(arg) comes from
dilog.rogers_L_mp at D + 12 digits (argument and series), so the 12
guard digits (about 40 bits) make the rounding to D digits the correctly
rounded one.  An entry keeps those values at the finest D requested so
far, and a later request at that D or coarser rounds them again instead
of recomputing; since both the kept and a fresh value carry the guard
digits, the residual is the same whatever ran before (barring an L value
within about 2^-40 units of a rounding midpoint).  This is the
refine-in-place rule algebraics.AlgebraicNumber follows for the
constants.  cross_check_tba() keeps its result on the entry as well.
The mp paths round at explicit precisions through mpmath.libmp (imported
on first use), never at mpmath's global one, so threads may verify at once.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .algebraics import _checked_dps, constant
from .dilog import rogers_L, rogers_L_mp
from .errors import CatalogError, DomainError
from .tba import RationalSymmetricMatrix, solve_r2

__all__ = [
    "IdentityEntry",
    "CrossCheckResult",
    "parse_expression",
    "evaluate_expression",
    "parse_catalog",
    "serialize_catalog",
    "load_catalog",
    "verify",
    "cross_check_tba",
]

# ---------------------------------------------------------------------------
# expression grammar

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z_][a-z0-9_]*)|([()+\-*/^]))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)  # every alternative consumes a character
        if m is None:
            break
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    if text[pos:].strip():
        raise CatalogError(f"bad character in expression {text!r} at offset {pos}")
    return out


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.toks = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise CatalogError(
                f"expected {expect or 'a token'} at position {self.pos} in {self.source!r}"
            )
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise CatalogError(f"exponent must be a nonnegative integer in {self.source!r}")
            node = ("^", node, int(exp))
        return node

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise CatalogError(f"unexpected end of expression in {self.source!r}")
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok.isdigit():
            self.take()
            return ("num", Fraction(int(tok)))
        if tok == "sqrt":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return ("sqrt", node)
        if re.fullmatch(r"[a-z_][a-z0-9_]*", tok):
            self.take()
            return ("const", tok)
        raise CatalogError(f"unexpected token {tok!r} in {self.source!r}")


def parse_expression(text: str):
    """Parse an argument expression into an AST of nested tuples."""
    p = _Parser(_tokenize(text), text)
    node = p.expr()
    if p.peek() is not None:
        raise CatalogError(f"trailing tokens after expression in {text!r}")
    return node


_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate_expression(node, mode: str = "float", dps: int = 50):
    """Evaluate an AST in binary64 (mode="float") or at dps digits (mode="mp").

    Constants resolve through module algebraics: isolating intervals
    are refined to width 1e-20 (float) or 10^-(dps+5) (mp) first.  mp
    rounds each leaf and operation at dps digits (an int >= 1) through
    mpmath.libmp, never at mpmath's global precision, and returns an mpf.
    """
    if mode == "float":
        def num(fr): return float(fr)
        def const(nm): return constant(nm).to_float()
        # sign(v) < 0 tests v < 0 in either mode
        sign, neg, power, sqrt, binary = float, operator.neg, operator.pow, math.sqrt, _FLOAT_OPS
    elif mode == "mp":
        from mpmath import libmp as lib, mp

        prec, rnd = lib.dps_to_prec(_checked_dps(dps)), lib.round_nearest
        def rounded(f): return lambda *args: f(*args, prec, rnd)
        def num(fr): return lib.from_rational(fr.numerator, fr.denominator, prec, rnd)
        def const(nm): return constant(nm).to_mpf(dps)._mpf_
        sign, neg = lib.mpf_sign, lib.mpf_neg
        power, sqrt = rounded(lib.mpf_pow_int), rounded(lib.mpf_sqrt)
        binary = {"+": rounded(lib.mpf_add), "-": rounded(lib.mpf_sub),
                  "*": rounded(lib.mpf_mul), "/": rounded(lib.mpf_div)}
    else:
        raise ValueError(f"mode must be 'float' or 'mp', got {mode!r}")

    def ev(n):
        kind = n[0]
        if kind == "num":
            return num(n[1])
        if kind == "const":
            try:
                return const(n[1])
            except DomainError as exc:
                raise CatalogError(f"unresolvable constant {n[1]!r}") from exc
        if kind == "neg":
            return neg(ev(n[1]))
        if kind == "sqrt":
            v = ev(n[1])
            if sign(v) < 0:
                raise DomainError(f"sqrt of a negative value: {n[1]!r}")
            return sqrt(v)
        if kind == "^":
            return power(ev(n[1]), n[2])
        if kind in binary:
            return binary[kind](ev(n[1]), ev(n[2]))
        raise CatalogError(f"unknown AST node {n!r}")

    return mp.make_mpf(ev(node)) if mode == "mp" else ev(node)


# ---------------------------------------------------------------------------
# catalog records

@dataclass(frozen=True)
class IdentityEntry:
    """One dilogarithm identity: sum coeff * L(expr) = target.

    terms holds (coefficient, raw expression string) pairs; the raw
    strings are preserved for byte-identical serialization and parsed
    once, when the entry is made (a malformed one raises CatalogError
    there).  matrix, when present, is the TBA system whose principal
    solution has the terms' arguments as coordinates and target as its
    c value.
    """

    name: str
    terms: tuple[tuple[Fraction, str], ...]
    target: Fraction
    matrix: RationalSymmetricMatrix | None
    source: str
    # the parsed expression of each term, in order
    _asts: tuple = field(init=False, repr=False, compare=False)
    # (dps, rogers_L_mp value of each term) at the finest dps verify has
    # needed, and the cross-check against matrix; filled on first use
    _kept_values: tuple = field(default=(0, ()), init=False, repr=False, compare=False)
    _kept_cross: CrossCheckResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_asts", tuple(parse_expression(e) for _, e in self.terms))

    def arguments(self, mode: str = "float", dps: int = 50) -> list:
        return [evaluate_expression(node, mode, dps) for node in self._asts]


def parse_catalog(text: str) -> list[IdentityEntry]:
    """Parse catalog text into entries; see the module docstring for layout."""
    entries: list[IdentityEntry] = []
    name = None
    terms: list[tuple[Fraction, str]] = []
    target = matrix = source = None
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("identity "):
            if name is not None:
                raise CatalogError(f"line {lineno}: record {name!r} not closed before new record")
            name = line[len("identity "):].strip()
            if not name:
                raise CatalogError(f"line {lineno}: empty identity name")
            if name in seen:
                raise CatalogError(f"line {lineno}: duplicate identity name {name!r}")
            seen.add(name)
            terms, target, matrix, source = [], None, None, None
        elif name is None:
            raise CatalogError(f"line {lineno}: field outside any record: {line!r}")
        elif line == "end":
            if not terms or target is None or source is None:
                raise CatalogError(f"record {name!r} is missing terms, target, or source")
            entries.append(IdentityEntry(
                name=name, terms=tuple(terms), target=target, matrix=matrix, source=source,
            ))
            name = None
        elif line.startswith("term "):
            rest = line[len("term "):]
            coeff_str, _, expr = rest.partition(" ")
            expr = expr.strip()
            if not expr:
                raise CatalogError(f"line {lineno}: term needs a coefficient and an expression")
            try:
                coeff = Fraction(coeff_str)
            except ValueError as exc:
                raise CatalogError(f"line {lineno}: bad coefficient {coeff_str!r}") from exc
            terms.append((coeff, expr))
        elif line.startswith("target "):
            try:
                target = Fraction(line[len("target "):].strip())
            except ValueError as exc:
                raise CatalogError(f"line {lineno}: bad target in {line!r}") from exc
        elif line.startswith("matrix "):
            parts = line[len("matrix "):].split()
            if len(parts) != 3:
                raise CatalogError(f"line {lineno}: matrix needs exactly three entries")
            try:
                a, b, d = (Fraction(p) for p in parts)
            except ValueError as exc:
                raise CatalogError(f"line {lineno}: bad matrix entry in {line!r}") from exc
            matrix = RationalSymmetricMatrix(a, b, d)
        elif line.startswith("source "):
            source = line[len("source "):].strip()
        else:
            raise CatalogError(f"line {lineno}: unrecognized field {line!r}")

    if name is not None:
        raise CatalogError(f"record {name!r} has no closing end")
    return entries


def serialize_catalog(entries: list[IdentityEntry]) -> str:
    """Canonical text for entries; parse_catalog round-trips it exactly."""
    blocks = []
    for e in entries:
        lines = [f"identity {e.name}"]
        for coeff, expr in e.terms:
            lines.append(f"  term {coeff} {expr}")
        lines.append(f"  target {e.target}")
        if e.matrix is not None:
            lines.append(f"  matrix {e.matrix.a} {e.matrix.b} {e.matrix.d}")
        lines.append(f"  source {e.source}")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@lru_cache(maxsize=1)
def load_catalog() -> tuple[IdentityEntry, ...]:
    """The packaged catalog, parsed once per process."""
    text = resources.files("dilogtba").joinpath("data/identities.txt").read_text("utf-8")
    return tuple(parse_catalog(text))


# ---------------------------------------------------------------------------
# verification

def _check_unit_interval(name: str, value: float) -> float:
    if -1e-12 <= value <= 1.0 + 1e-12:
        return min(1.0, max(0.0, value))
    raise DomainError(f"argument of entry {name!r} evaluates to {value}, outside [0,1]")


# verify's default precision, and the finest it serves in binary64: a
# request below MP_BELOW works in mpmath at D digits
DEFAULT_PRECISION = 1e-12
MP_BELOW = 1e-13

# Digits computed beyond the working precision D, so that rounding a kept
# value to any D' <= D digits gives the correctly rounded L.
_GUARD_DPS = 12


def _rogers_L_values(entry: IdentityEntry, dps: int) -> tuple:
    """rogers_L_mp of each term's argument, everything at dps digits."""
    from mpmath import libmp

    slack = Fraction(1, 10 ** (dps - 5))
    values = []
    for arg in entry.arguments("mp", dps):
        if not -slack <= Fraction(*libmp.to_rational(arg._mpf_)) <= 1 + slack:
            raise DomainError(f"argument of entry {entry.name!r} evaluates to {arg}, outside [0,1]")
        values.append(rogers_L_mp(min(1, max(0, arg)), dps=dps))
    return tuple(values)


def verify(entry: IdentityEntry, precision: float = DEFAULT_PRECISION) -> float:
    """Residual |sum coeff * L(arg) - target| of one catalog entry.

    precision >= MP_BELOW = 1e-13 uses binary64 throughout (arguments
    accurate to about 1e-16, L evaluated by series and reflection).
    Smaller precision works at D = max(30, ceil(-log10 precision) + 15)
    digits: each L(arg) is rounded to nearest at D digits from a value computed
    with 12 guard digits, and the sum minus target is taken exactly, so
    the residual is that of the correctly rounded terms.  The entry keeps
    its values at the finest D so far; a request at that D or coarser
    reuses them (see the module docstring).
    """
    if not (precision > 0):
        raise ValueError(f"precision must be positive, got {precision}")
    if precision >= MP_BELOW:
        args = entry.arguments("float")
        total = math.fsum(
            float(coeff) * rogers_L(_check_unit_interval(entry.name, arg))
            for (coeff, _), arg in zip(entry.terms, args)
        )
        return abs(total - float(entry.target))

    from mpmath import libmp

    digits = max(30, int(math.ceil(-math.log10(precision))) + 15)
    dps = digits + _GUARD_DPS
    kept_dps, values = entry._kept_values
    if kept_dps < dps:
        values = _rogers_L_values(entry, dps)
        object.__setattr__(entry, "_kept_values", (dps, values))
    prec = libmp.dps_to_prec(digits)
    total = -entry.target
    for (coeff, _), value in zip(entry.terms, values):
        rounded = libmp.mpf_pos(value._mpf_, prec, libmp.round_nearest)
        total += coeff * Fraction(*libmp.to_rational(rounded))
    return float(abs(total))


@dataclass(frozen=True)
class CrossCheckResult:
    """Agreement between a catalog entry and its TBA system.

    c_residual is |c_of(matrix) - target|; coordinate_distance is the
    largest gap between the solved (x, y) and the entry's arguments
    after sorting both pairs; total is their sum.
    """

    c_residual: float
    coordinate_distance: float

    @property
    def total(self) -> float:
        return self.c_residual + self.coordinate_distance


def cross_check_tba(entry: IdentityEntry, A: RationalSymmetricMatrix | None = None) -> CrossCheckResult:
    """Check an entry against the TBA solution of its matrix.

    Uses entry.matrix when A is not given, and then keeps the result on
    the entry, so a later call returns it without solving again.  Only
    meaningful for entries whose terms are unit-coefficient dilogarithms
    of the solution coordinates.
    """
    keep = A is None
    if keep:
        if entry._kept_cross is not None:
            return entry._kept_cross
        A = entry.matrix
    if A is None:
        raise CatalogError(f"entry {entry.name!r} carries no matrix to cross-check")
    sol = solve_r2(A)
    c_res = abs(sol.c - float(entry.target))
    args = sorted(entry.arguments("float"))
    coords = sorted((sol.x, sol.y))
    if len(args) != len(coords):
        raise CatalogError(
            f"entry {entry.name!r} has {len(args)} terms; expected {len(coords)} coordinates"
        )
    dist = max(abs(a - c) for a, c in zip(args, coords))
    result = CrossCheckResult(c_residual=c_res, coordinate_distance=dist)
    if keep:
        object.__setattr__(entry, "_kept_cross", result)
    return result
