"""Exact program semantics and the store algebra.

Two equivalent interpreters are provided: run pushes each support memory
through the program monadically, and run_kozen splits on the guard
distribution at conditionals (conditioning each branch and recombining
convexly). Both are exact and linear in the input distribution.

Uninterpreted declared symbols fail loudly during evaluation; bind_stub
attaches one of the named concrete evaluators so corpus programs can run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .dist import (
    FinDist,
    Memory,
    Store,
    ZERO,
    condition,
    convex,
    memory_bits,
    project,
    stat_dist,
    tensor,
    uniform_values,
    value_len,
)
from .syntax import (
    App,
    Assign,
    Env,
    Expr,
    FuncSym,
    Lit,
    Program,
    RND,
    Seq,
    Skip,
    StrType,
    SymbolTable,
    Var,
    poly_eval,
    POLY_N,
)
from .types import TypeCheckError, env_join, env_ext

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
# Built-in symbol semantics


def _apply_builtin(e: App, vals: tuple[str, ...], n: int) -> str:
    name = e.fname
    if name == "not":
        return "1" if vals[0] == "0" else "0"
    if name == "head":
        return vals[0][0]
    if name == "tail":
        return vals[0][1:]
    if name == "xor":
        a, b = vals
        return "".join("1" if x != y else "0" for x, y in zip(a, b))
    if name == "concat":
        return vals[0] + vals[1]
    if name == "setzero":
        return "0" * poly_eval(e.size_args[0], n)
    raise UninterpretedSymbolError(name)


def _apply_symbol(e: App, sym: Optional[FuncSym], vals: tuple[str, ...], n: int):
    """Deterministic result value, or a FinDist for randomized symbols."""
    if sym is None:
        return _apply_builtin(e, vals, n)
    if sym.impl is None:
        raise UninterpretedSymbolError(e.fname)
    return sym.impl(n, vals)


# ---------------------------------------------------------------------------
# Expression evaluation


def eval_det(
    env: Env, d: Expr, n: int, m: Memory, symbols: Optional[SymbolTable] = None
) -> str:
    """Evaluate a deterministic expression in one memory."""
    symbols = symbols or SymbolTable()
    if isinstance(d, Var):
        return m.get(d.name)
    if isinstance(d, Lit):
        return d.bit
    sym = symbols.lookup(d.fname)
    if d.fname == "rnd" or (sym is not None and sym.kind == RND):
        raise TypeCheckError("eval_det", f"{d.fname} is not deterministic")
    vals = tuple(eval_det(env, a, n, m, symbols) for a in d.args)
    return _apply_symbol(d, sym, vals, n)


def _presem(e: Expr, n: int, m: Memory, symbols: SymbolTable) -> FinDist:
    """Output-value distribution of e in one memory."""
    if isinstance(e, Var):
        return FinDist.dirac(m.get(e.name))
    if isinstance(e, Lit):
        return FinDist.dirac(e.bit)
    if e.fname == "rnd":
        return uniform_values(StrType(POLY_N), n)
    args = FinDist.dirac(())
    for a in e.args:
        arg_dist = _presem(a, n, m, symbols)
        args = args.bind(lambda tup, ad=arg_dist: ad.map(lambda v: tup + (v,)))
    sym = symbols.lookup(e.fname)
    if sym is not None and sym.kind == RND:
        if sym.impl is None:
            raise UninterpretedSymbolError(e.fname)
        return args.bind(lambda vals: sym.impl(n, vals))
    return args.map(lambda vals: _apply_symbol(e, sym, vals, n))


def eval_expr(
    env: Env, e: Expr, n: int, d: FinDist, symbols: Optional[SymbolTable] = None
) -> FinDist:
    """Output-value distribution of e over an input memory distribution."""
    symbols = symbols or SymbolTable()
    return d.bind(lambda m: _presem(e, n, m, symbols))


# ---------------------------------------------------------------------------
# Program evaluation


def run(
    env: Env, p: Program, n: int, d: FinDist, symbols: Optional[SymbolTable] = None
) -> FinDist:
    """Monadic semantics: push every support memory through p."""
    symbols = symbols or SymbolTable()
    if isinstance(p, Skip):
        return d
    if isinstance(p, Assign):
        return d.bind(
            lambda m: _presem(p.rhs, n, m, symbols).map(lambda v: m.set(p.target, v))
        )
    if isinstance(p, Seq):
        return run(env, p.second, n, run(env, p.first, n, d, symbols), symbols)
    return d.bind(
        lambda m: run(
            env,
            p.then_branch if m.get(p.guard) == "1" else p.else_branch,
            n,
            FinDist.dirac(m),
            symbols,
        )
    )


def run_kozen(
    env: Env, p: Program, n: int, d: FinDist, symbols: Optional[SymbolTable] = None
) -> FinDist:
    """Distribution-level semantics: conditionals split the whole input.

    A conditional with a guard that is identically 1 (or 0) on the support
    recurses into a single branch; otherwise both branches run on the
    conditioned distributions and the results recombine convexly with the
    guard's weights.
    """
    symbols = symbols or SymbolTable()
    if isinstance(p, Skip):
        return d
    if isinstance(p, Assign):
        return run(env, p, n, d, symbols)
    if isinstance(p, Seq):
        return run_kozen(env, p.second, n, run_kozen(env, p.first, n, d, symbols), symbols)
    total = d.total()
    w1 = sum((pr for m, pr in d.items() if m.get(p.guard) == "1"), ZERO)
    if w1 == total:
        return run_kozen(env, p.then_branch, n, d, symbols)
    if w1 == 0:
        return run_kozen(env, p.else_branch, n, d, symbols)
    then_out = run_kozen(env, p.then_branch, n, condition(d, p.guard, "1"), symbols)
    else_out = run_kozen(env, p.else_branch, n, condition(d, p.guard, "0"), symbols)
    guard_dist = FinDist({"1": w1, "0": total - w1})
    return convex(then_out, else_out, guard_dist)


# ---------------------------------------------------------------------------
# Store algebra


def run_store(s: Store, p: Program, symbols: Optional[SymbolTable] = None) -> Store:
    return Store(s.env, {n: run(s.env, p, n, d, symbols) for n, d in s.family.items()})


def store_project(s: Store, target: Env) -> Store:
    if not env_ext(target, s.env):
        raise TypeCheckError("store_project", "target is not a sub-environment")
    return Store(target, {n: project(d, target) for n, d in s.family.items()})


def store_tensor(a: Store, b: Store) -> Store:
    if a.tested_ns() != b.tested_ns():
        raise ValueError("stores are tested at different n sets")
    env = env_join(a.env, b.env)
    return Store(env, {n: tensor(a.at(n), b.at(n)) for n in a.tested_ns()})


def store_ext(sub: Store, sup: Store) -> bool:
    """sub is exactly the marginal of sup on sub's environment."""
    if not env_ext(sub.env, sup.env) or sub.tested_ns() != sup.tested_ns():
        return False
    return all(project(sup.at(n), sub.env) == sub.at(n) for n in sub.tested_ns())


def store_indist(a: Store, b: Store, epsilon: Fraction = ZERO) -> bool:
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
        if stub == "identity":
            if len(v) != out_len:
                raise ValueError(
                    f"identity stub for {name} needs a length-preserving "
                    f"signature (got {len(v)} -> {out_len} at n={n})"
                )
            return v
        if stub == "bitreverse":
            if len(v) != out_len:
                raise ValueError(
                    f"bitreverse stub for {name} needs a length-preserving "
                    f"signature (got {len(v)} -> {out_len} at n={n})"
                )
            return v[::-1]
        if len(v) > out_len:
            raise ValueError(
                f"zeroextend stub for {name} cannot shrink "
                f"({len(v)} -> {out_len} at n={n})"
            )
        return v + "0" * (out_len - len(v))

    return symbols.bind(name, impl)
