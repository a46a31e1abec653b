"""Exact program semantics and store indistinguishability.

Two equivalent interpreters are provided: run compiles each statement once
and pushes the whole input through it at once, splitting on the guard bit
at conditionals; run_kozen splits on the guard distribution (conditioning
each branch and recombining convexly). Both are exact and linear in the
input distribution. Both work on FinDist's own representation: memories
are value tuples in env order, with integer weights over one denominator.
The caller passes env, which names the values. run finds, once per call,
the variables dead before each statement (written before they are read on
every path) and forgets them there, so points that differ only in values
the program never reads again are merged before any work is spent on them.

Uninterpreted declared symbols fail loudly when a memory reaches them;
bind_stub attaches one of the named concrete evaluators so corpus programs
can run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .dist import (
    FinDist,
    Store,
    _check_value,
    condition,
    convex,
    memory_bits,
    merge,
    mix,
    stat_dist,
    uniform_values,
    value_len,
)
from .syntax import (
    Assign,
    Env,
    Expr,
    If,
    Lit,
    NO_SYMBOLS,
    Program,
    RND,
    Seq,
    Skip,
    StrType,
    SymbolTable,
    Var,
    fv,
    poly_eval,
    POLY_N,
)
from .types import TypeCheckError

DEFAULT_MAX_BITS = 22


class UninterpretedSymbolError(Exception):
    """A symbol without a concrete evaluator was reached during evaluation."""

    def __init__(self, name: str):
        super().__init__(f"unbound symbol {name}")
        self.name = name


class BitBudgetError(Exception):
    """Enumeration would exceed the configured total-bit guardrail."""


def check_bit_budget(env: Env, ns: Iterable[int], max_bits: int = DEFAULT_MAX_BITS):
    for n in ns:
        bits = memory_bits(env, n)
        if bits > max_bits:
            raise BitBudgetError(
                f"memories over this environment need {bits} bits at n={n}, "
                f"above the {max_bits}-bit budget"
            )


# ---------------------------------------------------------------------------
# Compiled expressions, shared by eval_det, eval_expr and the run kernel

_BUILTINS = {
    "not": lambda vals: "1" if vals[0] == "0" else "0",
    "head": lambda vals: vals[0][0],
    "tail": lambda vals: vals[0][1:],
    "xor": lambda vals: "".join("1" if x != y else "0" for x, y in zip(*vals)),
    "concat": lambda vals: vals[0] + vals[1],
}


def _raise(exc: Exception):
    raise exc


def _compile(
    e: Expr, names: tuple[str, ...], n: int, symbols: SymbolTable, det: bool = False
) -> tuple[bool, Callable]:
    """(random, fn): fn maps a value tuple in names order to e's value, or to
    (weights, L), integer weights over L, if e is random. Errors raise in fn."""
    if isinstance(e, Var):
        return False, lambda vals, i=names.index(e.name): vals[i]
    if isinstance(e, Lit):
        return False, lambda vals, bit=e.bit: bit
    sym = symbols.lookup(e.fname)
    randomized = e.fname == "rnd" or (sym is not None and sym.kind == RND)
    if det and randomized:
        return False, lambda vals: _raise(
            TypeCheckError("eval_det", f"{e.fname} is not deterministic")
        )
    if e.fname == "rnd":
        return True, lambda vals, u=uniform_values(StrType(POLY_N), n).weights(): u
    if sym is None and e.fname == "setzero":
        apply = lambda args: "0" * poly_eval(e.size_args[0], n)
    elif sym is None and e.fname in _BUILTINS:
        apply = _BUILTINS[e.fname]
    elif sym is None or sym.impl is None:
        apply = lambda args: _raise(UninterpretedSymbolError(e.fname))
    elif randomized:
        apply = lambda args: sym.impl(n, args).weights()
    else:
        apply = lambda args: sym.impl(n, args)
    parts = [_compile(a, names, n, symbols, det) for a in e.args]
    if not randomized and not any(r for r, _ in parts):
        fns = [f for _, f in parts]
        return False, lambda vals: apply(tuple(f(vals) for f in fns))
    dists = [_lift(part) for part in parts]

    def sample(vals):
        args, den = {(): 1}, 1
        for f in dists:
            ws, d = f(vals)
            args = {t + (v,): w * x for t, w in args.items() for v, x in ws.items()}
            den *= d
        return mix(args, den, _lift((randomized, apply)))

    return True, sample


def _lift(part: tuple[bool, Callable]) -> Callable:
    """A compiled expression as a function to (weights, L), random or not."""
    randomized, fn = part
    return fn if randomized else lambda vals: ({fn(vals): 1}, 1)


def compile_det(
    env: Env, e: Expr, n: int, symbols: SymbolTable = NO_SYMBOLS
) -> Callable[[tuple], str]:
    """A deterministic expression compiled once, as a function of a memory."""
    return _compile(e, env.names(), n, symbols, det=True)[1]


def eval_det(
    env: Env, d: Expr, n: int, m: tuple, symbols: SymbolTable = NO_SYMBOLS
) -> str:
    """Evaluate a deterministic expression in one memory."""
    return compile_det(env, d, n, symbols)(m)


def eval_expr(
    env: Env, e: Expr, n: int, d: FinDist, symbols: SymbolTable = NO_SYMBOLS
) -> FinDist:
    """Output-value distribution of e over an input memory distribution."""
    fn = _lift(_compile(e, env.names(), n, symbols))
    weights, den = d.weights()
    return FinDist.from_ints(*mix(weights, den, fn))


def _plan(p: Program, dead: frozenset) -> tuple[frozenset, list]:
    """The variables dead before p, given those dead after it, and p's steps.

    A variable is dead where every path writes it before reading it: x := e
    with x not in fv(e) kills x, and an If kills what both branches kill,
    except its guard. A step is (statement, the variables that die right
    after it, and for an If each branch as (the variables that die on
    entering it, its steps)). Forgetting those keeps the forgotten variables
    at every boundary exactly the dead ones. One backward pass."""
    steps = []
    for s in reversed(p.stmts if isinstance(p, Seq) else (p,)):
        if isinstance(s, Assign):
            reads = fv(s.rhs)
            dies, branches = dead & (reads | {s.target}), None
            dead = (dead | {s.target}) - reads
        elif isinstance(s, If):
            bodies = [_plan(b, dead) for b in (s.then_branch, s.else_branch)]
            before = (bodies[0][0] & bodies[1][0]) - {s.guard}
            dies, branches = frozenset(), [(d - before, b) for d, b in bodies]
            dead = before
        else:
            continue
        steps.append((s, dies, branches))
    return dead, steps[::-1]


def _forget(points: dict, names: tuple, dead: frozenset) -> dict:
    """points with the dead variables set to None, summing the weights of
    points that become equal."""
    if not dead:
        return points
    idx = [names.index(x) for x in dead]

    def forget(vals):
        vals = list(vals)
        for i in idx:
            vals[i] = None
        return tuple(vals)

    return merge(points, forget)


def _exec(
    env: Env, n: int, symbols: SymbolTable, steps: list, points: dict, den: int
) -> tuple[dict, int]:
    """Run steps on value tuples with integer weights over den.

    Every variable is forgotten where it dies, so work is spent only on the
    values the program still reads. A deterministic assignment rekeys the
    points in one pass; a random one and a conditional's two branches
    recombine through dist.mix."""
    if not points:
        return points, den
    names = env.names()
    for s, dies, branches in steps:
        if branches is not None:
            g = names.index(s.guard)
            parts = ({}, {})
            for vals, w in points.items():
                parts[vals[g] == "0"][vals] = w
            outs = [
                _exec(env, n, symbols, b, _forget(part, names, entry), den)
                for (entry, b), part in zip(branches, parts)
                if part
            ]
            points, den = mix(dict.fromkeys(range(len(outs)), 1), 1, outs.__getitem__)
            continue
        i = names.index(s.target)
        randomized, fn = _compile(s.rhs, names, n, symbols)
        if randomized:

            def assigned(vals):
                ws, d = fn(vals)
                return {vals[:i] + (v,) + vals[i + 1 :]: x for v, x in ws.items()}, d

            points, den = mix(points, den, assigned)
        else:
            points = merge(points, lambda vals: vals[:i] + (fn(vals),) + vals[i + 1 :])
        width = value_len(env.lookup(s.target), n)
        for v in {vals[i] for vals in points}:
            _check_value(s.target, width, v)
        points = _forget(points, names, dies)
    return points, den


def run(
    env: Env, p: Program, n: int, d: FinDist, symbols: SymbolTable = NO_SYMBOLS
) -> FinDist:
    """Push the whole input through p; env is the memories' environment.
    Nothing is dead at the end of p, so no output memory holds a None."""
    dead, steps = _plan(p, frozenset())
    weights, den = d.weights()
    points = _forget(weights, env.names(), dead)
    return FinDist.from_ints(*_exec(env, n, symbols, steps, points, den))


def run_kozen(
    env: Env, p: Program, n: int, d: FinDist, symbols: SymbolTable = NO_SYMBOLS
) -> FinDist:
    """Distribution-level semantics: conditionals split the whole input.

    A conditional with a guard that is identically 1 (or 0) on the support
    recurses into a single branch; otherwise both branches run on the
    conditioned distributions and the results recombine convexly with the
    guard's weights.
    """
    if isinstance(p, Skip):
        return d
    if isinstance(p, Assign):
        return run(env, p, n, d, symbols)
    if isinstance(p, Seq):
        for s in p.stmts:
            d = run_kozen(env, s, n, d, symbols)
        return d
    total = d.total()
    g = env.names().index(p.guard)
    w1 = sum(pr for m, pr in d.items() if m[g] == "1")
    if w1 == total:
        return run_kozen(env, p.then_branch, n, d, symbols)
    if w1 == 0:
        return run_kozen(env, p.else_branch, n, d, symbols)
    then_out = run_kozen(env, p.then_branch, n, condition(d, env, p.guard, "1"), symbols)
    else_out = run_kozen(env, p.else_branch, n, condition(d, env, p.guard, "0"), symbols)
    return convex(then_out, else_out, FinDist({"1": w1, "0": total - w1}))


# ---------------------------------------------------------------------------
# Store algebra


def run_store(s: Store, p: Program, symbols: SymbolTable = NO_SYMBOLS) -> Store:
    family = {n: run(s.env, p, n, d, symbols) for n, d in s.family.items()}
    return Store.from_dists(s.env, family)


def store_indist(a: Store, b: Store, epsilon: Fraction = Fraction(0)) -> bool:
    """Per-n total variation distance at most epsilon (0 = exact equality)."""
    if a.env != b.env or a.tested_ns() != b.tested_ns():
        return False
    return all(stat_dist(a.at(n), b.at(n)) <= epsilon for n in a.tested_ns())


# ---------------------------------------------------------------------------
# Concrete stubs for declared symbols

STUB_NAMES = ("identity", "bitreverse", "zeroextend")


def bind_stub(symbols: SymbolTable, name: str, stub: str) -> SymbolTable:
    """Attach a named concrete evaluator to a declared deterministic symbol."""
    sym = symbols.lookup(name)
    if sym is None:
        raise KeyError(f"unknown symbol {name}")
    if sym.kind == RND:
        raise ValueError(f"stubs are deterministic; {name} is declared rnd")
    if stub not in STUB_NAMES:
        raise ValueError(f"unknown stub {stub}; choose from {', '.join(STUB_NAMES)}")
    if len(sym.arg_types) != 1:
        raise ValueError(f"stub {stub} needs a unary symbol, {name} is not")

    result_type = sym.result_type

    def impl(n: int, vals: tuple[str, ...]) -> str:
        (v,) = vals
        out_len = value_len(result_type, n)
        if stub == "zeroextend":
            if len(v) > out_len:
                raise ValueError(
                    f"zeroextend stub for {name} cannot shrink "
                    f"({len(v)} -> {out_len} at n={n})"
                )
            return v + "0" * (out_len - len(v))
        if len(v) != out_len:
            raise ValueError(
                f"{stub} stub for {name} needs a length-preserving "
                f"signature (got {len(v)} -> {out_len} at n={n})"
            )
        return v if stub == "identity" else v[::-1]

    return symbols.bind(name, impl)
