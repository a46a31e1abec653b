"""Program execution over distributions and stores."""

from fractions import Fraction
from pathlib import Path

import pytest

from cslcheck.dist import (
    FinDist,
    Store,
    memory,
    project,
    tensor,
    uniform_memories,
    uniform_store,
    uniform_values,
    zero_store,
)
from cslcheck.semantics import (
    BitBudgetError,
    DEFAULT_MAX_BITS,
    STUB_NAMES,
    UninterpretedSymbolError,
    _plan,
    bind_stub,
    check_bit_budget,
    eval_det,
    eval_expr,
    run,
    run_kozen,
    run_store,
    store_indist,
)
from cslcheck.syntax import (
    EMPTY_ENV,
    parse_decls,
    parse_env,
    parse_expr,
    parse_program,
)
from cslcheck.types import TypeCheckError


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def mem(env, n=1, **values):
    if isinstance(env, str):
        env = parse_env(env)
    return memory(env, n, values)


# Deterministic evaluation


def test_eval_det_builtins():
    env = parse_env("{r: Str[n+1], s: Str[n], t: Bool}")
    m = mem(env, n=2, r="101", s="01", t="1")
    assert eval_det(env, parse_expr("head(r)"), 2, m) == "1"
    assert eval_det(env, parse_expr("tail(r)"), 2, m) == "01"
    assert eval_det(env, parse_expr("xor(s, s)"), 2, m) == "00"
    assert eval_det(env, parse_expr("concat(s, t)"), 2, m) == "011"
    assert eval_det(env, parse_expr("not(t)"), 2, m) == "0"
    assert eval_det(env, parse_expr("setzero[n+1]()"), 2, m) == "000"
    assert eval_det(env, parse_expr("1"), 2, m) == "1"


def test_eval_det_rejects_randomized_exprs():
    env = parse_env("{s: Str[n]}")
    m = mem(env, n=1, s="0")
    with pytest.raises(TypeCheckError, match="deterministic"):
        eval_det(env, parse_expr("rnd()"), 1, m)


def test_eval_det_needs_an_implementation_for_declared_symbols():
    sym = parse_decls("decl g : Str[n] -> Str[n] det;")
    env = parse_env("{s: Str[n]}")
    m = mem(env, n=2, s="01")
    with pytest.raises(UninterpretedSymbolError):
        eval_det(env, parse_expr("g(s)", sym), 2, m, sym)
    bound = bind_stub(sym, "g", "bitreverse")
    assert eval_det(env, parse_expr("g(s)", sym), 2, m, bound) == "10"


def test_stub_names_and_behaviors():
    assert set(STUB_NAMES) == {"identity", "bitreverse", "zeroextend"}
    env = parse_env("{s: Str[n]}")
    m = mem(env, n=3, s="011")
    sym = bind_stub(parse_decls("decl f : Str[n] -> Str[n] det;"), "f", "identity")
    assert eval_det(env, parse_expr("f(s)", sym), 3, m, sym) == "011"
    sym2 = bind_stub(
        parse_decls("decl h : Str[n] -> Str[n+1] det;"), "h", "zeroextend"
    )
    assert eval_det(env, parse_expr("h(s)", sym2), 3, m, sym2) == "0110"


def test_stub_must_match_declared_sizes():
    # bitreverse keeps length, so it cannot implement a size-changing symbol
    sym = bind_stub(parse_decls("decl h : Str[n] -> Str[n+1] det;"), "h", "bitreverse")
    env = parse_env("{s: Str[n]}")
    m = mem(env, n=2, s="01")
    with pytest.raises(ValueError, match="length-preserving"):
        eval_det(env, parse_expr("h(s)", sym), 2, m, sym)


def test_bind_stub_rejects_bad_requests():
    sym = parse_decls("decl h : Str[n] -> Str[n] rnd;")
    with pytest.raises(ValueError, match="rnd"):
        bind_stub(sym, "h", "identity")
    with pytest.raises(KeyError):
        bind_stub(sym, "nope", "identity")
    with pytest.raises(ValueError, match="unknown stub"):
        bind_stub(parse_decls("decl f : Str[n] -> Str[n] det;"), "f", "mirror")


# Expression distributions


def test_eval_expr_rnd_is_uniform():
    env = parse_env("{s: Str[n]}")
    d = FinDist.dirac(mem(env, n=2, s="00"))
    out = eval_expr(env, parse_expr("rnd()"), 2, d)
    assert out == uniform_values(parse_env("{x: Str[n]}").lookup("x"), 2)


def test_eval_expr_pushes_through_input_dist():
    env = parse_env("{s: Str[1]}")
    d = FinDist({mem(env, s="0"): QUARTER, mem(env, s="1"): Fraction(3, 4)})
    out = eval_expr(env, parse_expr("not(head(s))"), 1, d)
    assert out == FinDist({"1": QUARTER, "0": Fraction(3, 4)})


# Program execution


def test_run_skip_is_identity():
    env = parse_env("{x: Bool}")
    d = uniform_memories(env, 1)
    assert run(env, parse_program("skip"), 1, d) == d


def test_run_assignment_updates_memory():
    env = parse_env("{x: Str[n], y: Str[n]}")
    d = FinDist.dirac(mem(env, n=2, x="01", y="11"))
    out = run(env, parse_program("y := xor(x, y)"), 2, d)
    assert out == FinDist.dirac(mem(env, n=2, x="01", y="10"))


def test_run_otp_makes_ciphertext_uniform():
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    prog = parse_program("k := rnd(); c := xor(m, k)")
    d = FinDist.dirac(mem(env, n=2, c="00", k="00", m="10"))
    out = run(env, prog, 2, d)
    c_marg = project(Store(env, {2: out}), parse_env("{c: Str[n]}")).at(2)
    assert c_marg == uniform_memories(parse_env("{c: Str[n]}"), 2)


def test_run_if_follows_guard():
    env = parse_env("{b: Bool, x: Bool}")
    prog = parse_program("if b then x := 1 else x := 0 end")
    d = FinDist({mem(env, b="1", x="0"): HALF, mem(env, b="0", x="1"): HALF})
    out = run(env, prog, 1, d)
    assert out == FinDist(
        {mem(env, b="1", x="1"): HALF, mem(env, b="0", x="0"): HALF}
    )


def test_run_matches_kozen_on_branching_program():
    env = parse_env("{b: Bool, x: Str[1], y: Str[1]}")
    prog = parse_program(
        "b := head(rnd()); if b then x := rnd() else y := xor(x, 1) end"
    )
    d = uniform_memories(env, 1)
    assert run(env, prog, 1, d) == run_kozen(env, prog, 1, d)


def test_run_kozen_handles_vanishing_branch():
    env = parse_env("{b: Bool, x: Bool}")
    prog = parse_program("if b then x := 1 else x := 0 end")
    d = FinDist.dirac(mem(env, b="1", x="0"))  # the else branch has mass zero
    out = run_kozen(env, prog, 1, d)
    assert out == FinDist.dirac(mem(env, b="1", x="1"))
    assert out == run(env, prog, 1, d)


def test_run_preserves_subnormal_mass():
    env = parse_env("{x: Bool}")
    d = FinDist({mem(env, x="0"): HALF})
    out = run(env, parse_program("x := not(x)"), 1, d)
    assert out == FinDist({mem(env, x="1"): HALF})


# Dead variables: written before they are read on every path


@pytest.mark.parametrize(
    "env_text, text, dead",
    [
        ("{c: Str[n], k: Str[n], m: Str[n]}", "k := rnd(); c := xor(m, k)", {"c", "k"}),
        ("{x: Bool}", "x := not(x)", set()),
        ("{x: Bool, y: Bool}", "y := x; x := 0", {"y"}),
        ("{b: Bool, x: Bool}", "if b then x := 0 else skip end", set()),
        ("{b: Bool, x: Bool}", "if b then x := 0 else x := 1 end", {"x"}),
        ("{x: Bool}", "if x then x := 0 else x := 1 end", set()),
    ],
)
def test_dead_at_entry_and_no_forgotten_value_in_the_output(env_text, text, dead):
    prog = parse_program(text)
    assert _plan(prog, frozenset())[0] == dead
    env = parse_env(env_text)
    for n in (1, 2):
        out = run(env, prog, n, uniform_memories(env, n))
        assert out.is_proper()
        assert all(None not in m for m in out.support())


@pytest.mark.parametrize(
    "name, dead",
    [
        ("otp.prog", {"c", "k"}),
        ("potp.prog", {"c", "k"}),
        ("exp_h2.prog", {"b0", "b1", "b2", "r0", "r1", "r2", "s0", "s1", "s2", "s3"}),
    ],
)
def test_dead_at_entry_of_the_corpus_programs(name, dead):
    prog = parse_program((CORPUS / name).read_text())
    assert _plan(prog, frozenset())[0] == dead


# Stores


def test_run_store_runs_every_n():
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    s = zero_store(env, (1, 2))
    out = run_store(s, parse_program("k := rnd(); c := xor(m, k)"))
    assert out.tested_ns() == [1, 2]
    for n in (1, 2):
        marg = project(out, parse_env("{c: Str[n]}"))
        assert marg.at(n) == uniform_memories(parse_env("{c: Str[n]}"), n)


def test_store_tensor_and_ext():
    a = uniform_store(parse_env("{x: Bool}"), (1,))
    b = zero_store(parse_env("{y: Bool}"), (1,))
    both = tensor(a, b)
    assert both.env == parse_env("{x: Bool, y: Bool}")
    assert project(both, parse_env("{x: Bool}")) == a


def test_store_ext_checks_marginals():
    env = parse_env("{x: Bool, y: Bool}")
    big = uniform_store(env, (1,))
    small = uniform_store(parse_env("{x: Bool}"), (1,))
    assert project(big, small.env) == small
    assert project(big, small.env) != zero_store(parse_env("{x: Bool}"), (1,))


def test_store_indist_tolerance():
    env = parse_env("{x: Bool}")
    u = uniform_store(env, (1,))
    z = zero_store(env, (1,))
    assert store_indist(u, u)
    assert not store_indist(u, z)
    assert store_indist(u, z, Fraction(1, 2))
    assert not store_indist(u, z, Fraction(1, 4))


def test_empty_store_is_unit_for_tensor():
    s = uniform_store(parse_env("{x: Bool}"), (1, 2))
    e = zero_store(EMPTY_ENV, (1, 2))
    assert tensor(s, e) == s


# Bit budget


def test_bit_budget_guard():
    env = parse_env("{x: Str[n]}")
    check_bit_budget(env, (1, 4))
    with pytest.raises(BitBudgetError):
        check_bit_budget(env, (DEFAULT_MAX_BITS + 1,))
    with pytest.raises(BitBudgetError):
        check_bit_budget(env, (4,), max_bits=3)
