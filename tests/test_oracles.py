"""Frozen oracle values, each computed by hand before the implementation
was run.

Every expected value below comes from an enumeration small enough to do on
paper: distributions over one or two bits with at most four support points.
The comments show the enumeration; the asserts pin the implementation to it.

The last three sections keep the per-memory semantics that run, eval_expr
and eval_det had before the compiled kernel, the compiled kernel as it was
before run forgot dead variables, the per-point Fraction versions of the
distribution operations that integer weights replaced, and the recursive
sat_bi that the witness search replaced, and compare old and new on
generated programs, expressions, distributions and formulas.

The next section restates how the rule generators once built the SRAssn
and SDAssn post, the RCond branch triples and the Frame/Const subproof
triple, and compares that with the checker's rule functions; a draw that
breaks a side condition must be rejected with that condition.

The next section keeps the store reader and writer as they were before
they worked in C-level passes, and compares old and new on generated stores
and on one-field mutations of store documents.

The next section keeps the independence witness search as it was before
each candidate marginal was built once, and compares its verdict with
_props.product_witness on independent and correlated weight vectors.

The next section keeps the separating-conjunction criterion as
_independent decided it before dist.independence: three projections, the
product store and store_indist. It compares verdicts, marginals and the
exact distance with the one-walk version on generated stores, correlated,
sub-unit and over more variables than the two sides.

The next section keeps the tokenizer as it was when every token carried
its line and column, and compares its tokens and errors with those of
tokenize, whose tokens carry a character offset, on generated texts with
line breaks, comments, annotations across lines and shared groups.

The final section keeps the program printer as it was when a Seq had two
parts and the generator nested them to the left, which it printed with
begin ... end, and checks that its text parses to the flat program.
"""

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from cslcheck import _gen, _props, logic, syntax
from cslcheck.dist import (
    FinDist,
    Store,
    ZeroMassError,
    _check_value,
    all_memories,
    condition,
    convex,
    exact_rational,
    independence,
    memory,
    mix,
    parse_store,
    project,
    stat_dist,
    store_to_text,
    tensor,
    uniform_memories,
    uniform_store,
    uniform_values,
    value_len,
)
from cslcheck.semantics import (
    STUB_NAMES,
    UninterpretedSymbolError,
    _compile,
    _lift,
    bind_stub,
    eval_det,
    eval_expr,
    run,
    run_kozen,
    store_indist,
)
from cslcheck.syntax import (
    App,
    Assign,
    BOOL,
    If,
    Lit,
    POLY_N,
    RND,
    Seq,
    Skip,
    StrType,
    Var,
    expr_to_text,
    fv,
    parse_decls,
    parse_env,
    parse_expr,
    parse_program,
    parse_type,
    poly_eval,
    program_to_text,
    seq,
    type_to_text,
)
from cslcheck.logic import _independent, _splits, sat_atom, sat_bi, sat_formula
from cslcheck.hoare import composite_premise, rcond_premises, scoped_post
from cslcheck.syntax import (
    ATOM_EQ,
    ATOM_ESPL,
    And,
    Atom,
    Bot,
    Env,
    Formula,
    HoareTriple,
    NO_SYMBOLS,
    ParseError,
    Star,
    SymbolTable,
    Top,
    parse_formula,
    tokenize,
)
from cslcheck.types import TypeCheckError, env_join, mv

import pytest

H = Fraction(1, 2)
Q = Fraction(1, 4)


def mem(env, n, **values):
    return memory(env, n, values)


def test_negation_of_a_fair_bit_is_fair():
    # {0: 1/2, 1: 1/2} maps through bit-flip to {1: 1/2, 0: 1/2}
    d = FinDist({"0": H, "1": H})
    flipped = d.map(lambda v: "1" if v == "0" else "0")
    assert flipped == FinDist({"0": H, "1": H})


def test_conditioning_uniform_two_bools():
    # uniform over (r,s) in {0,1}^2; given r=0 the four points collapse to
    # {(0,0): 1/2, (0,1): 1/2}
    env = parse_env("{r: Bool, s: Bool}")
    d = uniform_memories(env, 1)
    got = condition(d, env, "r", "0")
    want = FinDist(
        {
            mem(env, 1, r="0", s="0"): H,
            mem(env, 1, r="0", s="1"): H,
        }
    )
    assert got == want


def test_conditioning_on_a_missing_event_raises():
    env = parse_env("{r: Bool}")
    d = FinDist.dirac(mem(env, 1, r="1"))
    with pytest.raises(ZeroMassError):
        condition(d, env, "r", "0")


def test_point_mass_is_half_away_from_uniform():
    # (1/2)(|1 - 1/2| + |0 - 1/2|) = 1/2
    assert stat_dist(FinDist.dirac("0"), FinDist({"0": H, "1": H})) == H


def test_eighth_distance_example():
    # (1/2)(|1/2 - 5/8| + |1/2 - 3/8|) = 1/8
    a = FinDist({"0": H, "1": H})
    b = FinDist({"0": Fraction(5, 8), "1": Fraction(3, 8)})
    assert stat_dist(a, b) == Fraction(1, 8)


def test_otp_output_at_n1_from_biased_message():
    # m ~ {0: 1/3, 1: 2/3}; k fresh uniform; c = m xor k.
    # joint on (m,c): (0,0) 1/6, (0,1) 1/6, (1,0) 1/3, (1,1) 1/3
    # c-marginal: 1/6+1/3 = 1/2 each; joint equals m-marginal x c-marginal.
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    prog = parse_program("k := rnd(); c := xor(m, k)")
    third = Fraction(1, 3)
    d = FinDist(
        {
            mem(env, 1, m="0", k="0", c="0"): third,
            mem(env, 1, m="1", k="0", c="0"): 2 * third,
        }
    )
    out = Store(env, {1: run(env, prog, 1, d)})
    mc = parse_env("{c: Str[n], m: Str[n]}")
    got = project(out, mc).at(1)
    want = FinDist(
        {
            mem(mc, 1, m="0", c="0"): Fraction(1, 6),
            mem(mc, 1, m="0", c="1"): Fraction(1, 6),
            mem(mc, 1, m="1", c="0"): third,
            mem(mc, 1, m="1", c="1"): third,
        }
    )
    assert got == want
    c_only = project(out, parse_env("{c: Str[n]}"))
    assert c_only.at(1) == uniform_memories(parse_env("{c: Str[n]}"), 1)
    m_only = project(out, parse_env("{m: Str[n]}"))
    assert got == tensor(m_only, c_only).at(1)


def test_xor_program_truth_table():
    # if k then c := not(m) else c := m end computes c = k xor m:
    # (k,m) -> c: (0,0)->0 (0,1)->1 (1,0)->1 (1,1)->0
    env = parse_env("{c: Bool, k: Bool, m: Bool}")
    prog = parse_program("if k then c := not(m) else c := m end")
    table = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    for (k, m), c in table.items():
        d = FinDist.dirac(mem(env, 1, k=k, m=m, c="0"))
        out = run(env, prog, 1, d)
        assert out == FinDist.dirac(mem(env, 1, k=k, m=m, c=c))


def test_bit_reversal_permutes_but_keeps_uniform():
    # bitreverse("01") = "10"; a permutation of {0,1}^2 keeps uniform uniform
    syms = parse_decls("decl g : Str[n] -> Str[n] det;")
    syms = bind_stub(syms, "g", "bitreverse")
    env = parse_env("{x: Str[n]}")
    e = parse_expr("g(x)", syms)
    point = FinDist.dirac(mem(env, 2, x="01"))
    assert eval_expr(env, e, 2, point, syms) == FinDist.dirac("10")
    u = uniform_memories(env, 2)
    assert eval_expr(env, e, 2, u, syms) == uniform_values(
        parse_env("{x: Str[n]}").lookup("x"), 2
    )


def test_tensor_marginals_recover_factors():
    # ({x=0: 1/4, x=1: 3/4} x {y=0: 2/5, y=1: 3/5}) projected to x gives the
    # first factor back exactly
    ex = parse_env("{x: Bool}")
    ey = parse_env("{y: Bool}")
    a = FinDist({mem(ex, 1, x="0"): Q, mem(ex, 1, x="1"): 3 * Q})
    b = FinDist(
        {mem(ey, 1, y="0"): Fraction(2, 5), mem(ey, 1, y="1"): Fraction(3, 5)}
    )
    joint = tensor(Store(ex, {1: a}), Store(ey, {1: b}))
    assert project(joint, ex).at(1) == a
    assert project(joint, ey).at(1) == b


def test_xor_with_fresh_randomness_is_uniform():
    # 01 xor {00,01,10,11} = {01,00,11,10}, each 1/4
    env = parse_env("{m: Str[n]}")
    e = parse_expr("xor(m, rnd())")
    d = FinDist.dirac(mem(env, 2, m="01"))
    got = eval_expr(env, e, 2, d)
    assert got == FinDist({"00": Q, "01": Q, "10": Q, "11": Q})


def test_anticorrelated_bits_have_equal_marginals_but_differ_pointwise():
    # {(r=0,s=1): 1/2, (r=1,s=0): 1/2}: both marginals are fair coins, so
    # r == s holds; r .= s fails on every support point.
    env = parse_env("{r: Bool, s: Bool}")
    d = FinDist(
        {
            mem(env, 1, r="0", s="1"): H,
            mem(env, 1, r="1", s="0"): H,
        }
    )
    s = Store(env, {1: d})
    eq = parse_formula("(r == s){r: Bool, s: Bool}")
    ind = parse_formula("(r ~~ s){r: Bool, s: Bool}")
    espl = parse_formula("(r .= s){r: Bool, s: Bool}")
    assert sat_atom(s, eq) is True
    assert sat_atom(s, ind) is True
    assert sat_atom(s, espl) is False


def test_setzero_matches_zeroed_variable():
    env = parse_env("{r: Str[n]}")
    s = Store(env, {2: FinDist.dirac(mem(env, 2, r="00"))})
    f = parse_formula("(setzero[n]() == r){r: Str[n]}")
    assert sat_formula(s, f) is True


def test_convex_mix_of_two_points():
    env = parse_env("{x: Bool}")
    a = FinDist.dirac(mem(env, 1, x="0"))
    b = FinDist.dirac(mem(env, 1, x="1"))
    guard = FinDist({"1": H, "0": H})
    assert convex(a, b, guard) == FinDist(
        {mem(env, 1, x="0"): H, mem(env, 1, x="1"): H}
    )


def test_branching_program_by_hand():
    # d = {(b=0,x=0): 1/2, (b=1,x=0): 1/2}; if b then x := 1 else skip end
    # gives {(b=0,x=0): 1/2, (b=1,x=1): 1/2}; both semantics agree.
    env = parse_env("{b: Bool, x: Bool}")
    prog = parse_program("if b then x := 1 else skip end")
    d = FinDist(
        {
            mem(env, 1, b="0", x="0"): H,
            mem(env, 1, b="1", x="0"): H,
        }
    )
    want = FinDist(
        {
            mem(env, 1, b="0", x="0"): H,
            mem(env, 1, b="1", x="1"): H,
        }
    )
    assert run(env, prog, 1, d) == want
    assert run_kozen(env, prog, 1, d) == want


def test_store_projection_of_otp_output_is_uniform_cipher():
    # the full OTP run from the all-zero store: c-marginal uniform at n=1,2
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    prog = parse_program("k := rnd(); c := xor(m, k)")
    zero = {1: FinDist.dirac(mem(env, 1, c="0", k="0", m="0"))}
    zero[2] = FinDist.dirac(mem(env, 2, c="00", k="00", m="00"))
    out_store = Store(env, {n: run(env, prog, n, d) for n, d in zero.items()})
    c_env = parse_env("{c: Str[n]}")
    got = project(out_store, c_env)
    assert got.at(1) == uniform_memories(c_env, 1)
    assert got.at(2) == uniform_memories(c_env, 2)


# ---------------------------------------------------------------------------
# The per-memory semantics that the compiled kernel replaced, kept as a
# reference: every support memory goes through the program on its own,
# expressions are evaluated by walking the tree, and each statement's result
# is a nested bind of FinDists. Expressions read a memory by name, from the
# dict that named() builds.


def named(env, m):
    return dict(zip(env.names(), m))


def ref_apply(e, sym, vals, n):
    if sym is not None:
        if sym.impl is None:
            raise UninterpretedSymbolError(e.fname)
        return sym.impl(n, vals)
    if e.fname == "not":
        return "1" if vals[0] == "0" else "0"
    if e.fname == "head":
        return vals[0][0]
    if e.fname == "tail":
        return vals[0][1:]
    if e.fname == "xor":
        return "".join("1" if x != y else "0" for x, y in zip(*vals))
    if e.fname == "concat":
        return vals[0] + vals[1]
    if e.fname == "setzero":
        return "0" * poly_eval(e.size_args[0], n)
    raise UninterpretedSymbolError(e.fname)


def ref_eval_det(e, n, m, symbols):
    if isinstance(e, Var):
        return m[e.name]
    if isinstance(e, Lit):
        return e.bit
    sym = symbols.lookup(e.fname)
    if e.fname == "rnd" or (sym is not None and sym.kind == RND):
        raise TypeCheckError("eval_det", f"{e.fname} is not deterministic")
    return ref_apply(e, sym, tuple(ref_eval_det(a, n, m, symbols) for a in e.args), n)


def ref_presem(e, n, m, symbols):
    if isinstance(e, Var):
        return FinDist.dirac(m[e.name])
    if isinstance(e, Lit):
        return FinDist.dirac(e.bit)
    if e.fname == "rnd":
        return uniform_values(StrType(POLY_N), n)
    args = FinDist.dirac(())
    for a in e.args:
        arg_dist = ref_presem(a, n, m, symbols)
        args = args.bind(lambda tup, ad=arg_dist: ad.map(lambda v: tup + (v,)))
    sym = symbols.lookup(e.fname)
    if sym is not None and sym.kind == RND:
        if sym.impl is None:
            raise UninterpretedSymbolError(e.fname)
        return args.bind(lambda vals: sym.impl(n, vals))
    return args.map(lambda vals: ref_apply(e, sym, vals, n))


def ref_run(p, env, n, d, symbols):
    if isinstance(p, Skip):
        return d
    if isinstance(p, Assign):
        return d.bind(
            lambda m: ref_presem(p.rhs, n, named(env, m), symbols).map(
                lambda v: memory(env, n, {**named(env, m), p.target: v})
            )
        )
    if isinstance(p, Seq):
        for s in p.stmts:
            d = ref_run(s, env, n, d, symbols)
        return d
    return d.bind(
        lambda m: ref_run(
            p.then_branch if named(env, m)[p.guard] == "1" else p.else_branch,
            env,
            n,
            FinDist.dirac(m),
            symbols,
        )
    )


# The compiled kernel as it was before run forgot dead variables: it merged
# away a variable's old value only at an assignment whose right-hand side
# does not read it, and sent every assignment through mix. It is verbatim,
# but for its name and the recursive calls.


def ref_compiled_run(p, env, n, symbols, points, den):
    """Run p on value tuples with integer weights over den."""
    if not points or isinstance(p, Skip):
        return points, den
    if isinstance(p, Seq):
        for s in p.stmts:
            points, den = ref_compiled_run(s, env, n, symbols, points, den)
        return points, den
    names = env.names()
    if isinstance(p, If):
        g = names.index(p.guard)
        parts = ({}, {})
        for vals, w in points.items():
            parts[vals[g] == "1"][vals] = w
        then_out = ref_compiled_run(p.then_branch, env, n, symbols, parts[True], den)
        else_out = ref_compiled_run(p.else_branch, env, n, symbols, parts[False], den)
        return mix({0: 1, 1: 1}, 1, (then_out, else_out).__getitem__)  # by linearity
    i = names.index(p.target)
    if p.target not in fv(p.rhs):
        # the old value is never read: merge the points that differ only there
        points, den = mix(points, den, lambda v: ({v[:i] + (None,) + v[i + 1 :]: 1}, 1))
    fn = _lift(_compile(p.rhs, names, n, symbols))

    def assigned(vals):
        ws, d = fn(vals)
        return {vals[:i] + (v,) + vals[i + 1 :]: x for v, x in ws.items()}, d

    out, den = mix(points, den, assigned)
    width = value_len(env.lookup(p.target), n)
    for v in {vals[i] for vals in out}:
        _check_value(p.target, width, v)
    return out, den


def ref_compiled(p, env, n, d, symbols):
    return FinDist.from_ints(*ref_compiled_run(p, env, n, symbols, *d.weights()))


def ref_paths(p):
    """Every path through p, as its accesses in order: (name, written)."""
    if isinstance(p, Skip):
        return [[]]
    if isinstance(p, Assign):
        return [[(v, False) for v in sorted(fv(p.rhs))] + [(p.target, True)]]
    if isinstance(p, Seq):
        paths = [[]]
        for s in p.stmts:
            paths = [a + b for a in paths for b in ref_paths(s)]
        return paths
    return [
        [(p.guard, False)] + path
        for branch in (p.then_branch, p.else_branch)
        for path in ref_paths(branch)
    ]


def ref_dead(p):
    """The variables that every path through p writes before it reads them."""
    dead = None
    for path in ref_paths(p):
        first = {}
        for v, written in path:
            first.setdefault(v, written)
        here = {v for v, written in first.items() if written}
        dead = here if dead is None else dead & here
    return dead


def dead_kinds(p):
    """Which of the three ways to die p shows: a variable dead at entry, one
    that dies after a statement that reads it, one dead in only one branch
    of a top-level If."""
    stmts = p.stmts if isinstance(p, Seq) else (p,)
    entry = ref_dead(p)
    mid = any(ref_dead(seq(*stmts[i:])) - entry for i in range(1, len(stmts)))
    one_branch = any(
        ref_dead(seq(s.then_branch, *stmts[i + 1 :]))
        != ref_dead(seq(s.else_branch, *stmts[i + 1 :]))
        for i, s in enumerate(stmts)
        if isinstance(s, If)
    )
    return {
        "dead at entry": bool(entry),
        "dies mid-program": mid,
        "dead in one branch": one_branch,
    }


# Declared symbols for the differential: a random one with weights 1/3 and
# 2/3 on Str[n] and one with weights 1/5 and 4/5 on Bool (neither dyadic),
# and a deterministic one that each case binds to a random stub.
DECLS = """
decl f : Str[n] -> Str[n] rnd;
decl c : Bool -> Bool rnd;
decl g : Str[n] -> Str[n] det;
"""


def _flip(v):
    return "".join("1" if b == "0" else "0" for b in v)


def _symbols(rng):
    syms = parse_decls(DECLS)
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    syms = syms.bind("f", lambda n, vals: FinDist({vals[0]: third, _flip(vals[0]): 2 * third}))
    syms = syms.bind("c", lambda n, vals: FinDist({vals[0]: fifth, _flip(vals[0]): 4 * fifth}))
    return bind_stub(syms, "g", rng.choice(STUB_NAMES))


def _wrap(rng, e, t):
    """Apply a declared symbol of type t -> t around e, half of the time."""
    if rng.random() < 0.5:
        return e
    if t == _gen.STR_N:
        return App(rng.choice(("f", "g")), (e,))
    if t == BOOL:
        return App("c", (e,))
    return e


def _with_symbols(rng, p, env):
    if isinstance(p, Assign):
        return Assign(p.target, _wrap(rng, p.rhs, env.lookup(p.target)))
    if isinstance(p, Seq):
        return Seq(tuple(_with_symbols(rng, s, env) for s in p.stmts))
    if isinstance(p, If):
        return If(
            p.guard,
            _with_symbols(rng, p.then_branch, env),
            _with_symbols(rng, p.else_branch, env),
        )
    return p


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, KeyError, TypeCheckError, UninterpretedSymbolError) as exc:
        return type(exc).__name__, str(exc)


def test_compiled_kernel_agrees_with_the_per_memory_semantics():
    rng = random.Random(6)
    kinds = {"if": 0, "f": 0, "c": 0, "g": 0, "sub-unit": 0}
    kinds.update({"dead at entry": 0, "dies mid-program": 0, "dead in one branch": 0})
    for case in range(320):
        env = _gen.gen_env(rng)
        n = rng.choice((1, 2, 3))
        syms = _symbols(rng)
        prog = _with_symbols(rng, _gen.gen_program(rng, env), env)
        d = _gen.gen_dist(rng, env, n)
        if rng.random() < 0.4:
            d = d.scale(Fraction(rng.randint(1, 4), 5))
            kinds["sub-unit"] += 1
        text = program_to_text(prog)
        want = _outcome(ref_run, prog, env, n, d, syms)
        got = _outcome(run, env, prog, n, d, syms)
        assert got == want, (case, text)
        assert _outcome(ref_compiled, prog, env, n, d, syms) == want, (case, text)
        if got[0] == "ok":
            assert all(None not in m for m in got[1].support()), (case, text)
        for kind, shown in dead_kinds(prog).items():
            kinds[kind] += shown
        t = rng.choice([t for _, t in env.items()])
        e = _wrap(rng, _gen.gen_expr(rng, env, t), t)
        kinds["if"] += "if " in text
        for name in ("f", "c", "g"):
            kinds[name] += f"{name}(" in text + expr_to_text(e)
        want = _outcome(lambda: d.bind(lambda m: ref_presem(e, n, named(env, m), syms)))
        assert _outcome(eval_expr, env, e, n, d, syms) == want, (case, expr_to_text(e))
        for m in d.support():
            want = _outcome(ref_eval_det, e, n, named(env, m), syms)
            assert _outcome(eval_det, env, e, n, m, syms) == want, (case, expr_to_text(e))
    assert min(kinds.values()) >= 30, kinds


def test_an_unreachable_unbound_symbol_does_not_raise():
    syms = parse_decls("decl g : Str[n] -> Str[n] det; decl h : Str[n] -> Str[n] rnd;")
    env = parse_env("{b: Bool, x: Str[n]}")
    prog = parse_program("if b then x := g(x) else skip end; if b then x := h(x) else skip end", syms)
    never = FinDist({mem(env, 2, b="0", x="01"): H})
    assert run(env, prog, 2, never, syms) == never
    assert run(env, prog, 2, FinDist({}), syms) == FinDist({})
    assert eval_expr(env, parse_expr("g(x)", syms), 2, FinDist({}), syms) == FinDist({})
    reached = FinDist({mem(env, 2, b="1", x="01"): H})
    with pytest.raises(UninterpretedSymbolError, match="unbound symbol g"):
        run(env, prog, 2, reached, syms)
    with pytest.raises(UninterpretedSymbolError, match="unbound symbol h"):
        run(env, parse_program("x := h(x)", syms), 2, reached, syms)
    with pytest.raises(TypeCheckError, match="h is not deterministic"):
        eval_det(env, parse_expr("h(g(x))", syms), 2, mem(env, 2, b="1", x="01"), syms)


def test_a_stub_of_the_wrong_width_is_a_value_error():
    syms = parse_decls("decl g : Str[n] -> Str[n] det;")
    env = parse_env("{x: Str[n]}")
    d = FinDist.dirac(mem(env, 2, x="01"))
    prog = parse_program("x := g(x)", syms)
    wide = syms.bind("g", lambda n, vals: vals[0] + "1")
    message = "value for x must have 2 bit(s), got 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        ref_run(prog, env, 2, d, wide)
    with pytest.raises(ValueError, match=re.escape(message)):
        run(env, prog, 2, d, wide)
    grow = parse_decls("decl h : Str[n] -> Str[n+1] det;")
    grow = bind_stub(grow, "h", "identity")
    prog = parse_program("x := tail(h(x))", grow)
    with pytest.raises(ValueError, match="length-preserving"):
        run(env, prog, 2, d, grow)


def _counting_identity(calls):
    syms = parse_decls("decl g : Str[n] -> Str[n] det;")
    identity = bind_stub(syms, "g", "identity").lookup("g").impl
    return syms, syms.bind("g", lambda n, vals: calls.append(vals) or identity(n, vals))


@pytest.mark.parametrize(
    "env_text, text",
    [
        # c and k are dead at entry
        ("{c: Str[n], k: Str[n], m: Str[n]}", "c := g(m); k := rnd()"),
        # k dies right after rnd() writes it, before g is reached
        ("{c: Str[n], k: Str[n], m: Str[n]}", "k := rnd(); c := g(m); k := m"),
        # c and k are dead in the then branch only
        (
            "{b: Bool, c: Str[n], k: Str[n], m: Str[n]}",
            "if b then c := g(m); k := rnd() else skip end",
        ),
    ],
)
def test_a_dead_variable_is_forgotten_before_any_work_reads_past_it(env_text, text):
    # only the 2^n values of m reach g, whatever c and k held
    calls = []
    syms, counting = _counting_identity(calls)
    env = parse_env(env_text)
    prog = parse_program(text, syms)
    for n in (1, 2, 3, 4):
        d = uniform_store(env, [n]).at(n)
        calls.clear()
        got = run(env, prog, n, d, counting)
        assert len(calls) == 2**n
        assert got == ref_run(prog, env, n, d, counting)


def test_the_kernel_before_forgetting_read_every_dead_value():
    # the same count for c := g(m); k := rnd() was once per (k, m)
    calls = []
    syms, counting = _counting_identity(calls)
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    prog = parse_program("c := g(m); k := rnd()", syms)
    for n in (1, 2, 3):
        calls.clear()
        ref_compiled(prog, env, n, uniform_store(env, [n]).at(n), counting)
        assert len(calls) == 4**n


# ---------------------------------------------------------------------------
# The per-point Fraction versions of the distribution operations, as they
# were before FinDist held integer weights over one denominator. Each takes
# FinDists, reads them only through items(), and returns a plain dict from
# points to Fractions. Memories are read and rebuilt by name, from the
# environment passed beside each distribution.


def ref_map(d, fn):
    acc = {}
    for point, pr in d.items():
        out = fn(point)
        acc[out] = acc.get(out, 0) + pr
    return acc


def ref_bind(d, k):
    acc = {}
    for point, pr in d.items():
        for out, out_pr in k(point).items():
            acc[out] = acc.get(out, 0) + pr * out_pr
    return acc


def ref_tensor(a, ea, b, eb):
    env = env_join(ea, eb)
    acc = {}
    for ma, pa in a.items():
        for mb, pb in b.items():
            both = {**named(ea, ma), **named(eb, mb)}
            acc[tuple(both[k] for k in env.names())] = pa * pb
    return acc


def ref_project(d, env, target):
    return ref_map(d, lambda m: tuple(named(env, m)[k] for k in target.names()))


def ref_condition(d, env, r, b):
    hits = {m: pr for m, pr in d.items() if named(env, m)[r] == b}
    mass = sum(hits.values())
    if mass == 0:
        raise ZeroMassError(f"conditioning on {r} = {b}, an event of mass zero")
    return {m: pr / mass for m, pr in hits.items()}


def ref_stat_dist(a, b):
    pa, pb = dict(a.items()), dict(b.items())
    return sum(abs(pa.get(p, 0) - pb.get(p, 0)) for p in pa.keys() | pb.keys()) / 2


def _mixed_dist(rng, points):
    """Weights with denominators 3, 5 and 7 on some of points; sub-unit 40%
    of the time."""
    chosen = rng.sample(points, rng.randint(1, min(4, len(points))))
    raw = [Fraction(rng.randint(1, 6), rng.choice((3, 5, 7))) for _ in chosen]
    scale = Fraction(rng.randint(1, 4), 5) if rng.random() < 0.4 else 1
    return FinDist({p: w / sum(raw) * scale for p, w in zip(chosen, raw)})


def _proper(d):
    """d renormalized to mass one, as a store holds it."""
    return d.scale(1 / d.total())


def _same(got, want):
    """got is want as a FinDist, and its weights are in lowest terms."""
    weights, den = got.weights()
    assert gcd(den, *weights.values()) == 1
    assert dict(got.items()) == want and got == FinDist(want)


def test_integer_weights_agree_with_the_per_point_fraction_operations():
    rng = random.Random(8)
    subunit = 0
    for case in range(300):
        env = _gen.gen_env(rng, 1, 4)
        n = rng.choice((1, 2))
        mems = all_memories(env, n)
        d, e = _mixed_dist(rng, mems), _mixed_dist(rng, mems)
        subunit += not d.is_proper()
        coarse = lambda m: m[0][:1]
        _same(d.map(coarse), ref_map(d, coarse))
        kernels = {m: _mixed_dist(rng, ["0", "1", "00"]) for m in mems}
        _same(d.bind(kernels.__getitem__), ref_bind(d, kernels.__getitem__))
        names = list(env.names())
        rng.shuffle(names)
        cut = rng.randint(0, len(names))
        left, right = env.restrict(names[:cut]), env.restrict(names[cut:])
        whole = _proper(d)
        _same(project(Store(env, {n: whole}), left).at(n), ref_project(whole, env, left))
        a = _proper(_mixed_dist(rng, all_memories(left, n)))
        b = _proper(_mixed_dist(rng, all_memories(right, n)))
        _same(tensor(Store(left, {n: a}), Store(right, {n: b})).at(n), ref_tensor(a, left, b, right))
        r, bit = rng.choice(names), rng.choice("01")
        got = _outcome(condition, d, env, r, bit)
        want = _outcome(ref_condition, d, env, r, bit)
        assert got[0] == want[0], case
        if got[0] == "ok":
            _same(got[1], want[1])
        assert stat_dist(d, e) == ref_stat_dist(d, e)
        assert stat_dist(d, d) == 0
    assert 60 <= subunit <= 240, subunit


# ---------------------------------------------------------------------------
# The recursive plain evaluator, as sat_bi was before it became the witness
# search: annotations are ignored, a conjunction reads both conjuncts on the
# same store, and a separating conjunction tries every split that _splits
# yields.


def ref_sat_bi(s, f, epsilon=Fraction(0), symbols=NO_SYMBOLS):
    b = f.body
    if isinstance(b, Top):
        return True
    if isinstance(b, Bot):
        return False
    if isinstance(b, Atom):
        return sat_atom(s, Formula(b, s.env), epsilon, symbols)
    if isinstance(b, And):
        return ref_sat_bi(s, b.left, epsilon, symbols) and ref_sat_bi(
            s, b.right, epsilon, symbols
        )
    return any(
        ref_sat_bi(lproj, b.left, epsilon, symbols)
        and ref_sat_bi(rproj, b.right, epsilon, symbols)
        for lproj, rproj in _splits(s, b.left, b.right, epsilon)
    )


def test_witness_search_agrees_with_the_recursive_plain_evaluator():
    rng = random.Random(11)
    symbols = SymbolTable()
    verdicts = {True: 0, False: 0}
    for case in range(320):
        env = _gen.gen_env(rng, 1, 3)
        f = _gen.gen_formula(rng, env)
        s = _gen.gen_store(rng, env, (1, 2))
        for epsilon in (Fraction(0), Q):
            want = ref_sat_bi(s, f, epsilon, symbols)
            assert sat_bi(s, f, epsilon, symbols) == want, (case, epsilon)
            verdicts[want] += 1
    assert min(verdicts.values()) >= 100, verdicts


# ---------------------------------------------------------------------------
# The rule instances as the fuzz generators built them before the checker's
# rule functions (hoare.scoped_post, rcond_premises, composite_premise)
# became the one definition. Each builder reads only what the generator
# drew: the assigned variable's declared type, the guard name, and the
# environment left once the context's variables are removed.


def ref_scoped_post(t, kind):
    phi, psi = t.pre.body.left, t.pre.body.right
    r, e = t.program.target, t.program.rhs
    xi_r = env_join(phi.annotation, Env.make({r: psi.annotation.lookup(r)}))
    left = Formula(And(phi, Formula(Atom(kind, (Var(r), e)), xi_r)), xi_r)
    return Formula(Star(left, Formula(psi.body, psi.annotation.remove(r))), t.env)


def ref_rcond_premises(t):
    guard, env = t.program.guard, t.env
    then_pre = Formula(Atom(ATOM_ESPL, (Var(guard), Lit("1"))), env)
    else_pre = Formula(Atom(ATOM_ESPL, (Var(guard), Lit("0"))), env)
    return (
        HoareTriple(then_pre, env, t.program.then_branch, t.post),
        HoareTriple(else_pre, env, t.program.else_branch, t.post),
    )


def ref_composite_premise(t):
    context = t.pre.body.right
    xi = t.env.restrict(
        [nm for nm in t.env.names() if nm not in context.annotation.names()]
    )
    return HoareTriple(t.pre.body.left, xi, t.program, t.post.body.left)


def ref_broken_side_condition(t, rule):
    """The message of the side condition a drawn conclusion breaks, or None.
    The generators break one on purpose in a share of their draws."""
    if rule in ("SRAssn", "SDAssn") and t.program.target in t.pre.body.left.annotation:
        return "the assigned variable must not occur in the active component"
    if rule == "Const":
        clash = sorted(set(t.pre.body.right.annotation.names()) & mv(t.program))
        if clash:
            return f"the context mentions variables the program writes: {clash}"
    return None


class NotAnInstance(Exception):
    pass


def _not_an_instance(message):
    raise NotAnInstance(message)


@pytest.mark.parametrize("rule", ["SRAssn", "SDAssn", "RCond", "Frame", "Const"])
def test_rule_functions_agree_with_independent_builders(rule):
    # a draw that breaks a side condition is rejected with that condition;
    # any other draw is an instance, built as the reference builds it
    rng = random.Random(f"rules:{rule}")
    broken_draws = 0
    for _ in range(200):
        if rule in ("SRAssn", "SDAssn"):
            kind = ATOM_ESPL if rule == "SDAssn" else ATOM_EQ
            t = _gen.gen_scoped_assign(rng, exact=rule == "SDAssn")
            build = lambda: scoped_post(t, kind, NO_SYMBOLS, _not_an_instance)
            want = lambda: ref_scoped_post(t, kind)
        elif rule == "RCond":
            t = _gen.gen_rcond(rng)
            build = lambda: rcond_premises(t, _not_an_instance)
            want = lambda: ref_rcond_premises(t)
        else:
            t = _gen.gen_composite(rng, star_shape=rule == "Frame")
            build = lambda: composite_premise(t, rule, _not_an_instance)
            want = lambda: ref_composite_premise(t)
        broken = ref_broken_side_condition(t, rule)
        if broken is None:
            assert build() == want()
        else:
            broken_draws += 1
            with pytest.raises(NotAnInstance, match=re.escape(broken)):
                build()
    assert (broken_draws > 0) == (rule in ("SRAssn", "SDAssn", "Const"))


# ---------------------------------------------------------------------------
# The store file format as store_to_text wrote it, through json.dumps with
# indent=2 (CPython's pure-Python encoder), and as parse_store read it, entry
# by entry and field by field, with the object_pairs_hook that refused a
# repeated key one key at a time.


def ref_unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def ref_store_to_text(s):
    names = s.env.names()
    family = {
        str(n): [
            {"values": dict(zip(names, m)), "prob": str(d.prob(m))}
            for m in d.support()
        ]
        for n, d in sorted(s.family.items())
    }
    env = {name: type_to_text(t) for name, t in s.env.items()}
    return json.dumps({"env": env, "family": family}, indent=2) + "\n"


def ref_checked_dist(points):
    den = lcm(*{q for _, (_, q) in points})
    weights = {}
    for m, (p, q) in points:
        weights[m] = weights.get(m, 0) + p * (den // q)
    for m, w in weights.items():
        if w < 0:
            raise ValueError(f"negative probability {Fraction(w, den)} at {m!r}")
    weights = {m: w for m, w in weights.items() if w}
    if sum(weights.values()) > den:
        raise ValueError(
            f"probabilities sum to {Fraction(sum(weights.values()), den)} > 1"
        )
    return FinDist.from_ints(weights, den)


def ref_parse_store(text):
    doc = json.loads(text, object_pairs_hook=ref_unique_keys)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("env"), dict)
        and isinstance(doc.get("family"), dict)
        and all(isinstance(t, str) for t in doc["env"].values())
    ):
        raise ValueError(
            "store needs an 'env' object of type strings and a 'family' object"
        )
    if not doc["family"]:
        raise ValueError("store family must hold at least one n")
    env = Env.make({name: parse_type(t) for name, t in doc["env"].items()})
    family = {}
    rationals = {}
    for n_text, entries in doc["family"].items():
        if not re.fullmatch(r"[1-9][0-9]*", n_text):
            raise ValueError(
                f"store family key {n_text!r} must be an integer >= 1 "
                'written without leading zeros, like "3"'
            )
        if not isinstance(entries, list):
            raise ValueError(f"store family {n_text!r} must be a list of entries")
        n = int(n_text)
        points = []
        for i, entry in enumerate(entries):
            where = f"store family {n_text!r} entry {i}"
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("values"), dict)
                and "prob" in entry
            ):
                raise ValueError(f"{where}: needs a 'values' object and a 'prob'")
            try:
                m = memory(env, n, entry["values"])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            raw = entry["prob"]
            if not isinstance(raw, str) or raw not in rationals:
                pr = exact_rational(raw, f"{where}: prob")
                rationals[raw] = (pr.numerator, pr.denominator)
            points.append((m, rationals[raw]))
        family[n] = ref_checked_dist(points)
    return Store(env, family)


_STORE_TYPES = [parse_type(t) for t in ("Bool", "Str[n]", "Str[1]", "Str[2n]")]


def _random_store(rng, max_vars=4, ns=(1, 2, 3)):
    """A store over 0..max_vars variables whose weights have random
    denominators, most of them not powers of two."""
    pool = ["a", "b", "c", "k", "m", "x%s", "é", 'q"']  # % and " need escaping
    names = rng.sample(pool, rng.randint(0, max_vars))
    env = Env.make({name: rng.choice(_STORE_TYPES) for name in names})
    family = {}
    for n in rng.sample(ns, rng.randint(1, len(ns))):
        mems = all_memories(env, n)
        if len(mems) <= 16 and rng.random() < 0.3:
            family[n] = uniform_memories(env, n)
            continue
        pts = rng.sample(mems, rng.randint(1, min(6, len(mems))))
        raw = [Fraction(rng.randint(1, 9), rng.choice((1, 3, 5, 7, 8))) for _ in pts]
        family[n] = FinDist({m: w / sum(raw) for m, w in zip(pts, raw)})
    return Store(env, family)


def test_store_writer_agrees_with_json_dumps():
    rng = random.Random(14)
    arities = set()
    for case in range(400):
        s = _random_store(rng)
        text = store_to_text(s)
        assert text == ref_store_to_text(s), case
        assert parse_store(text) == s, case
        arities.add(len(s.env))
    assert arities == {0, 1, 2, 3, 4}


class Pairs(list):
    """A JSON object written as its (key, value) pairs, so a key can repeat."""


class Raw(str):
    """JSON text written as it is, like the number 1e-3."""


def _dump(obj):
    if isinstance(obj, Raw):
        return str(obj)
    if isinstance(obj, dict):
        obj = Pairs(obj.items())
    if isinstance(obj, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(_dump, obj)) + "]"
    return json.dumps(obj)


_NOT_AN_OBJECT = ([], ["values"], "x", 3, None, True)
_NOT_A_STRING = (1, 0, None, True, [], ["0"], {"a": "0"}, 0.5)
_BAD_PROBS = (
    0, 1, 2, -1, 0.5, 1.0, Raw("1e-3"), Raw("-0.0"), True, False, None, [], {},
    "1e-3", "abc", "1/0", "-1/4", " 1/4", "1/4 ", "0.5.5", "", "2/2",
)
_BAD_N_KEYS = ("0", "01", "x", "-1", " 1", "1.0", "", "+1")


def _entry_at(rng, doc):
    """A random (entries list, index) of doc, or None if every family is empty."""
    lists = [e for e in doc["family"].values() if isinstance(e, list) and e]
    if not lists:
        return None
    entries = rng.choice(lists)
    return entries, rng.randrange(len(entries))


def _values_at(rng, doc):
    hit = _entry_at(rng, doc)
    if hit is None or not isinstance(hit[0][hit[1]], dict):
        return None
    values = hit[0][hit[1]].get("values")
    return values if isinstance(values, dict) else None


def _mutate(rng, doc):
    """Change one field of doc in place; returns the name of the change."""
    kind = rng.choice((
        "entry", "no values", "no prob", "values", "missing value", "extra value",
        "non-string value", "wide value", "narrow value", "bad bit", "prob",
        "split point", "twice", "negative", "cancelled", "more mass", "less mass",
        "n key", "family shape", "int prob", "zero entry",
    ))
    hit = _entry_at(rng, doc)
    if hit is None:
        return "none"
    entries, i = hit
    entry = entries[i]
    values = _values_at(rng, doc)
    if kind == "entry":
        entries[i] = rng.choice(_NOT_AN_OBJECT)
    elif kind in ("no values", "no prob") and isinstance(entry, dict):
        entry.pop("values" if kind == "no values" else "prob", None)
    elif kind == "values" and isinstance(entry, dict):
        entry["values"] = rng.choice(_NOT_AN_OBJECT[:-1] + ("01",))
    elif kind == "extra value" and values is not None:
        values[rng.choice(("zz", "a", "k"))] = "0"
    elif kind == "prob" and isinstance(entry, dict):
        entry["prob"] = rng.choice(_BAD_PROBS)
    elif kind == "int prob" and isinstance(entry, dict):
        entry["prob"] = rng.choice((0, 1))
        other = rng.choice(entries)
        if other is not entry and isinstance(other, dict):  # equal as keys to 0 or 1
            other["prob"] = rng.choice((0, 1, True, False, 0.0, 1.0))
    elif kind == "zero entry" and isinstance(entry, dict):
        zero = dict(entry, prob=rng.choice(("0", "0/3")))
        entries.insert(rng.randint(0, len(entries)), zero)
    elif kind in ("split point", "twice", "cancelled") and isinstance(entry, dict):
        first, second = dict(entry), dict(entry)
        if kind == "split point" and isinstance(entry.get("prob"), str):
            first["prob"] = second["prob"] = str(Fraction(entry["prob"]) / 2)
        elif kind == "cancelled" and isinstance(entry.get("prob"), str):
            first["prob"] = "-1/7"
            second["prob"] = str(Fraction(entry["prob"]) + Fraction(1, 7))
        entries[i:i + 1] = [first, second][:: rng.choice((1, -1))]
    elif kind == "negative" and isinstance(entry, dict):
        entry["prob"] = rng.choice(("-1/3", "-1", -1, "0"))
    elif kind == "more mass" and isinstance(entry, dict):
        entry["prob"] = rng.choice(("1", "2", "7/3"))
    elif kind == "less mass":
        if len(entries) > 1:
            del entries[i]
        elif isinstance(entry, dict):
            entry["prob"] = "1/2"
    elif kind == "n key":
        keys = list(doc["family"])
        old = rng.choice(keys)
        new = rng.choice(_BAD_N_KEYS)
        doc["family"] = {(new if k == old else k): v for k, v in doc["family"].items()}
    elif kind == "family shape":
        doc["family"][rng.choice(list(doc["family"]))] = rng.choice(({}, "x", None))
    elif values:
        name = rng.choice(list(values))
        v = values[name]
        if kind == "missing value":
            del values[name]
        elif kind == "non-string value":
            values[name] = rng.choice(_NOT_A_STRING)
        elif kind == "wide value" and isinstance(v, str):
            values[name] = v + rng.choice("01")
        elif kind == "narrow value" and isinstance(v, str):
            values[name] = v[:-1]
        elif kind == "bad bit" and isinstance(v, str) and v:
            j = rng.randrange(len(v))
            values[name] = v[:j] + rng.choice("2a x") + v[j + 1:]
    return kind


def _repeat_key(rng, doc):
    """Mark one object of doc (the document, its env or family, an entry or
    a values object) to be written as pairs that list one of its keys
    twice; the last change made to doc."""
    holders = [doc, doc["env"], doc["family"]]
    hit = _entry_at(rng, doc)
    if hit is not None and isinstance(hit[0][hit[1]], dict):
        holders.append(hit[0][hit[1]])
        if isinstance(hit[0][hit[1]].get("values"), dict):
            holders.append(hit[0][hit[1]]["values"])
    target = rng.choice([h for h in holders if isinstance(h, dict) and h])
    pairs = list(target.items())
    k, v = rng.choice(pairs)
    pairs.insert(rng.randint(0, len(pairs)), (k, rng.choice((v, "1", "0/1"))))
    target.clear()
    target["__pairs__"] = pairs
    return "repeat key"


def _text(doc):
    """doc as JSON text; an object marked by _repeat_key is written as its pairs."""
    def unwrap(obj):
        if isinstance(obj, dict):
            if list(obj) == ["__pairs__"]:
                return Pairs((k, unwrap(v)) for k, v in obj["__pairs__"])
            return {k: unwrap(v) for k, v in obj.items()}
        if isinstance(obj, Pairs):
            return Pairs((k, unwrap(v)) for k, v in obj)
        if isinstance(obj, list):
            return [unwrap(v) for v in obj]
        return obj

    return _dump(unwrap(doc))


def _read(reader, text):
    try:
        return "ok", reader(text)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


_STORE_ERRORS = (
    "repeats the key", "needs a 'values' object and a 'prob'", "store family key",
    "must be a list of entries", "memory missing a value", "extra variables",
    "must be a bitstring", "must have", "prob must be an int", "prob must be an integer",
    "is not a rational number", "negative probability", "> 1", "mass != 1",
)


def test_store_reader_agrees_with_the_per_entry_reader_on_mutations():
    rng = random.Random(1414)
    seen = dict.fromkeys(("ok",) + _STORE_ERRORS, 0)
    for case in range(1500):
        s = _random_store(rng, max_vars=3, ns=(1, 2))
        doc = json.loads(ref_store_to_text(s))
        changed = [_mutate(rng, doc) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
        if rng.random() < 0.2:
            changed.append(_repeat_key(rng, doc))
        text = _text(doc)
        want = _read(ref_parse_store, text)
        assert _read(parse_store, text) == want, (case, changed, text)
        for outcome in seen:
            seen[outcome] += outcome == want[0] or outcome in str(want[1])
    assert seen["ok"] >= 150 and min(seen.values()) >= 1, seen


def test_an_earlier_bad_prob_is_reported_before_a_later_bad_value():
    env = {"k": "Str[n]", "m": "Bool"}
    good = [{"values": {"k": f"{i:02b}", "m": "0"}, "prob": "1/4"} for i in range(4)]
    for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        for bad_prob in (True, 0.25, Raw("1e-3"), "1e-3", "1/0", None):
            for bad_value in ({"k": "012", "m": "0"}, {"k": "0"}, {"k": "00", "m": 1}):
                entries = [dict(e) for e in good]
                entries[i]["prob"] = bad_prob
                entries[j]["values"] = bad_value
                text = _dump({"env": env, "family": {"2": entries}})
                want = _read(ref_parse_store, text)
                assert want[1].startswith(f"store family '2' entry {i}: prob"), want
                assert _read(parse_store, text) == want
                entries[i]["prob"], entries[i]["values"] = "1/4", bad_value
                entries[j]["prob"], entries[j]["values"] = bad_prob, good[j]["values"]
                text = _dump({"env": env, "family": {"2": entries}})
                want = _read(ref_parse_store, text)
                assert want[1].startswith(f"store family '2' entry {i}: value"), want
                assert _read(parse_store, text) == want


# ---------------------------------------------------------------------------
# The independence witness search as suite_independence ran it before each
# candidate marginal was built once: the y candidate is rebuilt, through the
# validating constructors, for every x candidate.


def ref_independence_witness(s, n, total):
    ex, ey = s.env.restrict(("x",)), s.env.restrict(("y",))
    xmems = all_memories(ex, n)
    ymems = all_memories(ey, n)
    found = False
    for kx in range(total + 1):
        u = FinDist(
            {
                xmems[0]: Fraction(kx, total),
                xmems[1]: Fraction(total - kx, total),
            }
        )
        u = Store(ex, {n: u})
        for ky in range(total + 1):
            v = FinDist(
                {
                    ymems[0]: Fraction(ky, total),
                    ymems[1]: Fraction(total - ky, total),
                }
            )
            if tensor(u, Store(ey, {n: v})) == s:
                found = True
                break
        if found:
            break
    return found


XY = parse_env("{x: Bool, y: Bool}")


def _xy_store(weights, n):
    """The store at n over {x, y} with weights/sum(weights) on 00, 01, 10, 11."""
    total = sum(weights)
    points = zip(all_memories(XY, n), weights)
    return Store(XY, {n: FinDist({m: Fraction(w, total) for m, w in points if w})})


def test_product_witness_agrees_with_the_nested_loop():
    rng = random.Random(1919)
    # products of marginal weights (a, b) and (c, d) are independent
    independent = [
        (a * c, a * d, b * c, b * d)
        for a in range(3) for b in range(3) for c in range(3) for d in range(3)
        if (a or b) and (c or d)
    ]
    drawn = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(30)]
    verdicts = {True: 0, False: 0}
    for weights in independent + [w for w in drawn if any(w)]:
        for n in (1, 2):
            s, total = _xy_store(weights, n), sum(weights)
            want = ref_independence_witness(s, n, total)
            assert _props.product_witness(s, total) == want, (weights, n)
            verdicts[want] += 1
    assert verdicts[True] >= len(independent) * 2 and verdicts[False] >= 30, verdicts


@pytest.mark.parametrize("verdict", [True, False])
def test_the_independence_suite_catches_a_constant_criterion(monkeypatch, verdict):
    def constant(s, left, right, epsilon):
        return (project(s, left), project(s, right)) if verdict else None

    monkeypatch.setattr(logic, "_independent", constant)
    result = _props.suite_independence(1, 50, (1, 2))
    assert not result.ok
    assert result.failures[0].startswith("independence criterion disagrees at weights")


# ---------------------------------------------------------------------------
# The separating-conjunction criterion as _independent decided it before
# dist.independence: the marginals on both sides and on their join, each a
# projection, then the product store of the two sides, compared with the
# joint n by n.


def ref_independent(s, left, right, epsilon):
    lproj = project(s, left)
    rproj = project(s, right)
    joint = project(s, env_join(left, right))
    if store_indist(joint, tensor(lproj, rproj), epsilon):
        return lproj, rproj
    return None


def _sides(rng, env):
    """Two disjoint sub-environments of env, either one possibly empty, that
    often leave some of env out."""
    names = list(env.names())
    rng.shuffle(names)
    cut, end = sorted(rng.randint(0, len(names)) for _ in range(2))
    if rng.random() < 0.5:
        end = len(names)
    return env.restrict(names[:cut]), env.restrict(names[cut:end])


def _mirrored(s):
    """s with its last variable set to its first, where both have one type,
    so that the two are correlated."""
    types = [t for _, t in s.env.items()]
    if len(types) < 2 or types[0] != types[-1]:
        return s
    mirror = lambda m: m[:-1] + m[:1]
    return Store.from_dists(s.env, {n: d.map(mirror) for n, d in s.family.items()})


def _independence_cases(rng):
    """(kind, store) pairs: generated, correlated, product and sub-unit."""
    env = _gen.gen_env(rng, 1, 4)
    s = _gen.gen_store(rng, env, (1, 2))
    yield "generated", s
    yield "random", _random_store(rng, max_vars=4, ns=(1, 2))
    yield "correlated", _mirrored(s)
    names = _gen.gen_names(rng, rng.randint(2, 4))
    cut = rng.randint(1, len(names) - 1)
    a, b = (_gen.gen_store(rng, _gen.gen_env(rng, names=part), (1, 2))
            for part in (names[:cut], names[cut:]))
    yield "product", tensor(a, b)
    scale = Fraction(rng.randint(1, 6), 7)
    family = {n: d.scale(scale) for n, d in s.family.items()}
    yield "subunit", Store.from_dists(env, family)


def test_one_walk_independence_agrees_with_the_product_store():
    rng = random.Random(2424)
    seen = dict.fromkeys(("partial", "nonzero", "zero", "true", "false"), 0)
    for case in range(300):
        for kind, s in _independence_cases(rng):
            assert project(s, s.env) is s
            left, right = _sides(rng, s.env)
            lproj, rproj, defects = independence(s, left, right)
            assert lproj == project(s, left) and rproj == project(s, right)
            joint = project(s, env_join(left, right))
            product = tensor(lproj, rproj)
            assert defects.keys() == s.family.keys()
            for n, defect in defects.items():
                assert type(defect) is Fraction
                assert gcd(defect.numerator, defect.denominator) == 1
                assert defect == stat_dist(joint.at(n), product.at(n)), (case, kind, n)
                seen["nonzero" if defect else "zero"] += 1
            seen["partial"] += len(joint.env) < len(s.env)
            top, low = max(defects.values()), min(defects.values())
            # the largest defect, just below it, the smallest, and 0
            for epsilon in {Fraction(0), low, top, max(top - Fraction(1, 10**9), 0)}:
                want = ref_independent(s, left, right, epsilon)
                got = _independent(s, left, right, epsilon)
                assert got == want, (case, kind, epsilon)
                seen["true" if want else "false"] += 1
    assert min(seen.values()) >= 300, seen


def test_independence_raises_as_the_projections_did():
    env = parse_env("{a: Bool, b: Str[n], c: Bool}")
    s = _gen.gen_store(random.Random(5), env, (1,))
    for left, right in [
        ("{a: Bool, d: Bool}", "{c: Bool}"),  # not a sub-environment
        ("{a: Str[n]}", "{c: Bool}"),  # a sub-environment's name, another type
        ("{a: Bool}", "{c: Str[n]}"),
        ("{a: Bool, c: Bool}", "{c: Bool}"),  # the sides overlap
    ]:
        left, right = parse_env(left), parse_env(right)
        want = _outcome(ref_independent, s, left, right, Fraction(0))
        assert want[0] == "TypeCheckError"
        assert _outcome(_independent, s, left, right, Fraction(0)) == want


# ---------------------------------------------------------------------------
# The tokenizer as it was when each token carried its line and column, which
# it tracked in its loop: (kind, text, line, col) tuples.

_REF_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*"
    rf"|(?P<env>{syntax._ENV})"
    r"|(?P<punct>:=|->|==|\.=|~~|/\\|[()}\[\],;:*+^])"
    r"|(?P<int>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)


def ref_tokenize(text, memo=None):
    tokens = []
    match = _REF_TOKEN.match
    ends = None if memo else {}
    i, line, line_start, n = 0, 1, 0, len(text)
    while i < n:
        m = match(text, i)
        if m is None:
            raise ParseError(
                f"unexpected character {text[i]!r}", line, i - line_start + 1
            )
        kind = m.lastgroup
        start, i = i, m.end()
        if kind == "newline":
            line, line_start = line + 1, i
        elif kind is not None:
            tok = m.group()
            if tok == "(" and not (
                tokens and (tokens[-1][0] == "ident" or tokens[-1][1] == "]")
            ):
                if ends is None:
                    own_decls = tokens and tokens[0][:2] == ("ident", "decl")
                    ends = {} if own_decls else syntax._group_ends(text)
                end = ends.get(start)
                if end is not None and text[start:end] in memo:
                    kind, tok, i = "group", text[start:end], end
            tokens.append((kind, tok, line, start - line_start + 1))
            if "\n" in tok:
                line += tok.count("\n")
                line_start = start + tok.rindex("\n") + 1
    end = text.find("#", line_start)
    tokens.append(("eof", "", line, (n if end < 0 else end) - line_start + 1))
    return tokens


def ref_line_col(text, offset):
    """The line and column of offset, counted one character at a time."""
    line, col = 1, 1
    for ch in text[:offset]:
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    return line, col


def _lines_or_error(tok, text, memo):
    try:
        return tok(text, memo)
    except ParseError as exc:
        return exc.message, exc.line, exc.col


def _offsets_as_lines(text, memo):
    return [(k, t, *ref_line_col(text, s)) for k, t, s in tokenize(text, memo)]


_SCRIPT_GROUPS = [
    "(T){}",
    "(U(x)){x: Bool}",
    "(U(k)){k:\n Str[n] # the key\n}",
    "((T){} * (U(\nx)){x: Bool}){x: Bool}",
    "((U(k)){k: Str[n]} /\\ (k == k){k: Str[n]}){k: Str[n]}",
]
_TEXT_PIECES = list("(){}[],;:*+^=TUxkn01") + [
    "(", ")", " ", "\t", "\r", "\n", "\n  ", ":=", "==", "/\\", "Str[n]",
    "# c\n", "# (U(x)){x: Bool}\n", "#", "{x: Bool}", "{x:\n Bool}",
    "{x: Bool # c, }\n}", "{k:\n Str[n] # the key\n}", "{x", "{x:=", "é", "$",
    "decl ",
]


def test_offset_tokens_agree_with_the_line_tracking_tokenizer():
    memo = {}
    for group in _SCRIPT_GROUPS:
        parse_formula(group, None, memo)
    rng = random.Random(2020)
    seen = {"group": 0, "env across lines": 0, "error": 0, "eof after line 1": 0}
    for _ in range(2000):
        pieces = _TEXT_PIECES + _SCRIPT_GROUPS * 3
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        for shared in (memo, None):
            want = _lines_or_error(ref_tokenize, text, shared)
            assert _lines_or_error(_offsets_as_lines, text, shared) == want, text
            if isinstance(want, tuple):
                seen["error"] += 1
                continue
            seen["group"] += any(t[0] == "group" for t in want)
            seen["env across lines"] += any(
                t[0] == "env" and "\n" in t[1] for t in want
            )
            seen["eof after line 1"] += want[-1][2] > 1
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# The program printer as it was when a Seq had two parts, first and second.
# The generator nested them to the left, and the printer put a first part
# that was itself a Seq inside begin ... end, so that the text read back.


@dataclass(frozen=True)
class _Pair:
    first: object
    second: object


def ref_left_nested(p):
    """p with each statement list nested to the left in _Pair nodes."""
    if isinstance(p, Seq):
        out = ref_left_nested(p.stmts[0])
        for s in p.stmts[1:]:
            out = _Pair(out, ref_left_nested(s))
        return out
    if isinstance(p, If):
        return If(p.guard, ref_left_nested(p.then_branch), ref_left_nested(p.else_branch))
    return p


def ref_program_to_text(p):
    if isinstance(p, _Pair):
        first = ref_program_to_text(p.first)
        if isinstance(p.first, _Pair):
            first = f"begin {first} end"
        return f"{first}; {ref_program_to_text(p.second)}"
    if isinstance(p, If):
        return (
            f"if {p.guard} then {ref_program_to_text(p.then_branch)}"
            f" else {ref_program_to_text(p.else_branch)} end"
        )
    return program_to_text(p)


def test_the_begin_printer_text_parses_to_the_flat_program():
    rng = random.Random(2121)
    seen = {"begin": 0, "if": 0, "one statement": 0}
    for case in range(400):
        env = _gen.gen_env(rng)
        prog = _gen.gen_program(rng, env, size=5)
        stmts = prog.stmts if isinstance(prog, Seq) else (prog,)
        text = ref_program_to_text(ref_left_nested(prog))
        assert parse_program(text) == seq(*stmts), (case, text)
        assert parse_program(program_to_text(prog)) == prog, (case, text)
        assert "begin" not in program_to_text(prog)
        seen["begin"] += "begin" in text
        seen["if"] += "if " in text
        seen["one statement"] += len(stmts) == 1
    assert min(seen.values()) >= 30, seen
