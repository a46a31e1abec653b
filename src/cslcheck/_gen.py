"""Random generators for environments, distributions, programs, formulas,
and proof-rule conclusions.

Everything here is deliberately small: variables draw from a fixed name
pool, string types stay at width 1 or n, and supports stay tiny, so that
exhaustive enumeration downstream is instant even at n = 3. Expressions
use the built-in symbols only, so no generator takes a symbol table.

The rule generators (gen_scoped_assign, gen_composite, gen_rcond) draw
conclusions only; hoare's rule functions give each its post or premises.
A share of their draws breaks a side condition that the rule checks, so
that the fuzzer also tests the checks: the rule must reject those draws.
"""

from __future__ import annotations

import random
from typing import Optional

from .dist import FinDist, Store, all_memories, uniform_memories
from .syntax import (
    App,
    Assign,
    ATOM_EQ,
    ATOM_ESPL,
    ATOM_IND,
    ATOM_U,
    And,
    Atom,
    BOOL,
    EMPTY_ENV,
    Env,
    Formula,
    HoareTriple,
    If,
    Lit,
    POLY_N,
    POLY_ONE,
    SKIP,
    Star,
    StrType,
    Top,
    Var,
    seq,
)
from .types import env_join, mv

STR_N = StrType(POLY_N)
STR_1 = StrType(POLY_ONE)

_NAME_POOL = ("a", "b", "c", "d", "k", "m", "r", "s", "t", "u", "x", "y")
_TYPE_POOL = (BOOL, BOOL, STR_N, STR_1)


def gen_names(rng: random.Random, count: int) -> list[str]:
    return rng.sample(_NAME_POOL, count)


def gen_env(
    rng: random.Random,
    min_vars: int = 1,
    max_vars: int = 3,
    names: Optional[list[str]] = None,
) -> Env:
    if names is None:
        names = gen_names(rng, rng.randint(min_vars, max_vars))
    return Env.make({nm: rng.choice(_TYPE_POOL) for nm in names})


def gen_dist(rng: random.Random, env: Env, n: int) -> FinDist:
    """A proper distribution over memories; biased toward structured cases."""
    mems = all_memories(env, n)
    roll = rng.random()
    if roll < 0.2:
        return uniform_memories(env, n)
    if roll < 0.35:
        return FinDist.dirac(rng.choice(mems))
    k = rng.randint(1, min(4, len(mems)))
    pts = rng.sample(mems, k)
    weights = [rng.randint(1, 8) for _ in pts]
    return FinDist.from_ints(dict(zip(pts, weights)), sum(weights))


def gen_store(rng: random.Random, env: Env, ns) -> Store:
    return Store(env, {n: gen_dist(rng, env, n) for n in ns})


def gen_stores(rng: random.Random, env: Env, ns, count: int):
    return [gen_store(rng, env, ns) for _ in range(count)]


# ---------------------------------------------------------------------------
# Expressions and programs


def gen_expr(rng: random.Random, env: Env, want_t, det: bool = False, depth: int = 2):
    """A random expression of the requested type over env."""
    simple = [Var(nm) for nm, t in env.items() if t == want_t]
    if want_t == BOOL:
        simple += [Lit("0"), Lit("1")]
    if isinstance(want_t, StrType):
        simple.append(App("setzero", (), (want_t.size,)))
        if want_t == STR_N and not det:
            simple.append(App("rnd", ()))

    builders = []
    if depth > 0:

        def xor_pair():
            return App(
                "xor",
                (
                    gen_expr(rng, env, want_t, det, depth - 1),
                    gen_expr(rng, env, want_t, det, depth - 1),
                ),
            )

        builders.append(xor_pair)
        if want_t == BOOL:
            builders.append(
                lambda: App(
                    "not", (gen_expr(rng, env, BOOL, det, depth - 1),)
                )
            )
            headable = [
                Var(nm)
                for nm, t in env.items()
                if isinstance(t, StrType) and t.size.try_sub(POLY_ONE) is not None
            ]
            if headable:
                builders.append(lambda: App("head", (rng.choice(headable),)))
    if builders and rng.random() < 0.35:
        return rng.choice(builders)()
    if simple:
        return rng.choice(simple)
    return rng.choice(builders)()


def gen_program(rng: random.Random, env: Env, size: int = 3):
    """A random well-typed program over env (possibly with conditionals)."""
    bools = [nm for nm, t in env.items() if t == BOOL]

    def stmt(depth):
        roll = rng.random()
        if roll < 0.08:
            return SKIP
        if roll < 0.28 and bools and depth > 0:
            return If(
                rng.choice(bools),
                block(depth - 1, rng.randint(1, 2)),
                block(depth - 1, rng.randint(1, 2)),
            )
        target = rng.choice(env.names())
        e = gen_expr(rng, env, env.lookup(target))
        return Assign(target, e)

    def block(depth, count):
        return seq(*[stmt(depth) for _ in range(count)])

    return block(2, rng.randint(1, size))


# ---------------------------------------------------------------------------
# Formulas


def gen_atom(rng: random.Random, env: Env, exact: bool = False) -> Formula:
    """A random well-formed atom annotated with env."""
    types = [t for _, t in env.items()] or [BOOL]
    t = rng.choice(types)
    kinds = (ATOM_EQ, ATOM_ESPL) if exact else (ATOM_U, ATOM_IND, ATOM_EQ, ATOM_ESPL)
    kind = rng.choice(kinds)
    det = kind == ATOM_ESPL
    e = gen_expr(rng, env, t, det=det, depth=1)
    if kind == ATOM_U:
        return Formula(Atom(kind, (e,)), env)
    g = gen_expr(rng, env, t, det=det, depth=1)
    return Formula(Atom(kind, (e, g)), env)


def gen_simple_formula(rng: random.Random, env: Env, exact: bool = False) -> Formula:
    """T or a single atom, annotated with env."""
    if rng.random() < 0.3 or len(env) == 0:
        return Formula(Top(), env)
    return gen_atom(rng, env, exact)


def _split_env(rng: random.Random, env: Env):
    names = list(env.names())
    rng.shuffle(names)
    cut = rng.randint(0, len(names))
    return env.restrict(names[:cut]), env.restrict(names[cut:])


def gen_formula(rng: random.Random, env: Env, depth: int = 2) -> Formula:
    """A random well-formed annotated formula over (a sub-env of) env."""
    roll = rng.random()
    if depth == 0 or roll < 0.45 or len(env) == 0:
        return gen_simple_formula(rng, env)
    if roll < 0.75:
        left = gen_formula(rng, env, depth - 1)
        right = gen_formula(rng, env, depth - 1)
        return Formula(And(left, right), env)
    a, b = _split_env(rng, env)
    left = gen_formula(rng, a, depth - 1)
    right = gen_formula(rng, b, depth - 1)
    return Formula(Star(left, right), env)


def gen_exact_formula(rng: random.Random, env: Env, depth: int = 1) -> Formula:
    """An exact formula (T, F, ==, .= and conjunction only)."""
    if depth > 0 and rng.random() < 0.4:
        left = gen_exact_formula(rng, env, depth - 1)
        right = gen_exact_formula(rng, env, depth - 1)
        return Formula(And(left, right), env)
    return gen_simple_formula(rng, env, exact=True)


# ---------------------------------------------------------------------------
# Proof-rule conclusions for the soundness fuzzer


# the share of SRAssn/SDAssn draws that assign inside the active component,
# and of Const draws whose context mentions a variable the program writes
SIDE_CONDITION_SHARE = 0.25


def _disjoint_envs(rng: random.Random, k1: int, k2: int):
    names = gen_names(rng, k1 + k2)
    return gen_env(rng, names=names[:k1]), gen_env(rng, names=names[k1:])


def gen_scoped_assign(rng: random.Random, exact: bool):
    """A random SRAssn/SDAssn conclusion; its post is T, since the rule
    itself gives the post (hoare.scoped_post)."""
    xi, theta = _disjoint_envs(rng, rng.randint(1, 2), rng.randint(1, 2))
    delta = env_join(xi, theta)
    inside = rng.random() < SIDE_CONDITION_SHARE
    r = rng.choice((xi if inside else theta).names())
    e = gen_expr(rng, xi, delta.lookup(r), det=exact, depth=1)
    phi = gen_simple_formula(rng, xi)
    pre = Formula(Star(phi, Formula(Top(), theta)), delta)
    return HoareTriple(pre, delta, Assign(r, e), Formula(Top(), delta))


def gen_composite(rng: random.Random, star_shape: bool):
    """A random Frame (star_shape) or Const conclusion; a Frame context is
    always disjoint, since an overlapping * is ill-formed."""
    xi, theta = _disjoint_envs(rng, rng.randint(1, 2), rng.randint(1, 2))
    delta = env_join(xi, theta)
    prog = gen_program(rng, xi, size=2)
    phi = gen_simple_formula(rng, xi)
    psi = gen_simple_formula(rng, xi)
    written = sorted(mv(prog))
    if not star_shape and written and rng.random() < SIDE_CONDITION_SHARE:
        w = rng.choice(written)  # the context pins a variable the program writes
        w_env = xi.restrict([w])
        const = gen_expr(rng, EMPTY_ENV, w_env.lookup(w), det=True, depth=0)
        context = Formula(Atom(ATOM_EQ, (Var(w), const)), w_env)
    else:
        context = gen_simple_formula(rng, theta)
    shape = Star if star_shape else And
    pre = Formula(shape(phi, context), delta)
    post = Formula(shape(psi, context), delta)
    return HoareTriple(pre, delta, prog, post)


def gen_rcond(rng: random.Random):
    """A random RCond conclusion."""
    guard = rng.choice(_NAME_POOL)
    extra = gen_env(
        rng, 1, 2, names=[nm for nm in gen_names(rng, 3) if nm != guard][:2]
    )
    env = env_join(Env.make({guard: BOOL}), extra)
    then_p = gen_program(rng, env, size=2)
    else_p = gen_program(rng, env, size=2)
    post = gen_exact_formula(rng, env)
    return HoareTriple(Formula(Top(), env), env, If(guard, then_p, else_p), post)
