"""Typing rules, environment algebra, and formula well-formedness."""

import pytest

from cslcheck.syntax import (
    BOOL,
    EMPTY_ENV,
    StrType,
    parse_decls,
    parse_env,
    parse_expr,
    parse_formula,
    parse_poly,
    parse_program,
)
from cslcheck.types import (
    TypeCheckError,
    classify_approx,
    classify_exact,
    env_ext,
    env_join,
    env_union,
    formula_ext,
    formula_fv,
    fv,
    is_det_expr,
    mv,
    type_expr,
    type_program,
    wf_formula,
)


ENV = parse_env("{a: Str[1], b: Bool, r: Str[n+1], s: Str[n]}")


# Expression typing


def test_builtin_signatures():
    assert type_expr(ENV, parse_expr("rnd()")) == StrType(parse_poly("n"))
    assert type_expr(ENV, parse_expr("tail(r)")) == StrType(parse_poly("n"))
    assert type_expr(ENV, parse_expr("head(r)")) == BOOL
    assert type_expr(ENV, parse_expr("not(b)")) == BOOL
    assert type_expr(ENV, parse_expr("1")) == BOOL
    assert type_expr(ENV, parse_expr("xor(s, rnd())")) == StrType(parse_poly("n"))
    assert type_expr(ENV, parse_expr("setzero[2n]()")) == StrType(parse_poly("2n"))


def test_concat_counts_bool_as_one_bit():
    assert type_expr(ENV, parse_expr("concat(a, b)")) == StrType(parse_poly("2"))
    assert type_expr(ENV, parse_expr("concat(r, s)")) == StrType(parse_poly("2n+1"))


def test_xor_requires_equal_sizes():
    with pytest.raises(TypeCheckError, match="equal sizes"):
        type_expr(ENV, parse_expr("xor(s, r)"))


def test_head_tail_need_positive_size():
    # n could be 0, so Str[n] has no p with n = p+1
    with pytest.raises(TypeCheckError, match="p\\+1"):
        type_expr(ENV, parse_expr("tail(s)"))
    with pytest.raises(TypeCheckError, match="p\\+1"):
        type_expr(ENV, parse_expr("head(s)"))
    assert type_expr(ENV, parse_expr("tail(a)")) == StrType(parse_poly("0"))


def test_unbound_variable():
    with pytest.raises(TypeCheckError, match="unbound"):
        type_expr(ENV, parse_expr("zz"))


def test_arity_mismatch():
    with pytest.raises(TypeCheckError):
        type_expr(ENV, parse_expr("xor(s)"))


def test_declared_symbol_instantiation():
    sym = parse_decls("decl g : Str[n] -> Str[n+1] det;")
    t = type_expr(ENV, parse_expr("g(s)", sym), sym)
    assert t == StrType(parse_poly("n+1"))
    # argument must match the declared domain exactly
    with pytest.raises(TypeCheckError):
        type_expr(ENV, parse_expr("g(r)", sym), sym)


# every symbol but setzero, head and tail, each with a size annotation
SIZED = [
    ("rnd", "rnd[n+1]()"),
    ("not", "not[1](b)"),
    ("xor", "xor[7](s, s)"),
    ("concat", "concat[2](a, b)"),
    ("g", "g[3](s)"),
]


@pytest.mark.parametrize("name, expr", SIZED)
def test_a_size_annotation_no_typing_rule_reads_is_refused(name, expr):
    sym = parse_decls("decl g : Str[n] -> Str[n] det;")
    env = "{a: Str[1], b: Bool, s: Str[n]}"
    with pytest.raises(TypeCheckError) as exc_info:
        type_program(parse_env(env), parse_program(f"s := {expr}", sym), sym)
    assert str(exc_info.value) == f"program.rhs: {name} takes no size annotation"
    with pytest.raises(TypeCheckError) as exc_info:
        wf_formula(parse_formula(f"(U({expr})){env}", sym), sym)
    assert str(exc_info.value) == f"formula: {name} takes no size annotation"


# Program typing


def test_type_program_otp():
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    type_program(env, parse_program("k := rnd(); c := xor(m, k)"))


def test_type_program_guard_must_be_bool():
    env = parse_env("{s: Str[n], t: Bool}")
    type_program(env, parse_program("if t then skip else skip end"))
    with pytest.raises(TypeCheckError, match="Bool"):
        type_program(env, parse_program("if s then skip else skip end"))


def test_type_program_assignment_must_match_declared_type():
    env = parse_env("{b: Bool, s: Str[n]}")
    with pytest.raises(TypeCheckError):
        type_program(env, parse_program("b := rnd()"))
    with pytest.raises(TypeCheckError, match="unbound"):
        type_program(env, parse_program("q := rnd()"))


# Variable sets


def test_fv_and_mv():
    assert fv(parse_expr("xor(m, k)")) == {"m", "k"}
    assert fv(parse_expr("setzero[n]()")) == set()
    p = parse_program("k := rnd(); if b then c := k else skip end")
    assert mv(p) == {"k", "c"}
    assert fv(parse_expr("1")) == set()


def test_formula_fv():
    f = parse_formula("((k == m) /\\ (U(c))){c: Str[n], k: Str[n], m: Str[n]}")
    assert formula_fv(f) == {"k", "m", "c"}


def test_is_det_expr():
    assert is_det_expr(parse_expr("xor(a, not(b))"))
    assert not is_det_expr(parse_expr("xor(a, rnd())"))
    sym = parse_decls("decl h : Str[n] -> Str[n] rnd;")
    assert not is_det_expr(parse_expr("h(s)", sym), sym)


# Environment algebra


def test_env_ext_is_subset_with_same_types():
    small = parse_env("{x: Bool}")
    big = parse_env("{x: Bool, y: Str[n]}")
    assert env_ext(small, big)
    assert not env_ext(big, small)
    assert not env_ext(parse_env("{x: Str[1]}"), big)
    assert env_ext(EMPTY_ENV, big)


def test_env_join_disjoint():
    joined = env_join(parse_env("{x: Bool}"), parse_env("{y: Str[n]}"))
    assert joined == parse_env("{x: Bool, y: Str[n]}")
    with pytest.raises(TypeCheckError):
        env_join(parse_env("{x: Bool}"), parse_env("{x: Bool}"))


def test_env_union_must_agree():
    merged = env_union(parse_env("{x: Bool, y: Bool}"), parse_env("{x: Bool, z: Bool}"))
    assert merged == parse_env("{x: Bool, y: Bool, z: Bool}")
    with pytest.raises(TypeCheckError, match="conflicting"):
        env_union(parse_env("{x: Bool}"), parse_env("{x: Str[1]}"))


# Formula well-formedness


def test_wf_accepts_the_usual_shapes():
    wf_formula(parse_formula("(U(k)){k: Str[n]}"))
    wf_formula(parse_formula("((U(k)){k: Str[n]} * (T){m: Str[n]}){k: Str[n], m: Str[n]}"))
    wf_formula(parse_formula("((k == m) /\\ (U(k))){k: Str[n], m: Str[n]}"))


def test_wf_rejects_atom_out_of_scope():
    f = parse_formula("(U(k)){m: Str[n]}")
    with pytest.raises(TypeCheckError):
        wf_formula(f)


def test_wf_conjunct_annotations_extend_parent():
    # a conjunct may not mention variables outside the shared annotation
    f = parse_formula("((U(k)){k: Str[n], z: Bool} /\\ (T){k: Str[n]}){k: Str[n]}")
    with pytest.raises(TypeCheckError):
        wf_formula(f)


def test_wf_star_needs_disjoint_parts():
    f = parse_formula("((U(k)){k: Str[n]} * (U(k)){k: Str[n]}){k: Str[n]}")
    with pytest.raises(TypeCheckError, match="overlap"):
        wf_formula(f)


def test_wf_star_join_fits_parent():
    f = parse_formula(
        "((U(k)){k: Str[n]} * (T){m: Str[n]}){k: Str[n], m: Str[n], z: Bool}"
    )
    wf_formula(f)  # join may be a strict sub-environment of the parent


def test_wf_rejects_badly_typed_atom():
    f = parse_formula("(k == m){k: Str[n], m: Str[n+1]}")
    with pytest.raises(TypeCheckError):
        wf_formula(f)


# Exact and approximate fragments


def test_classify_exact():
    assert classify_exact(parse_formula("(k == m){k: Str[n], m: Str[n]}"))
    assert classify_exact(parse_formula("(r .= xor(a, b)){a: Bool, b: Bool, r: Bool}"))
    assert classify_exact(parse_formula("(T){}"))
    assert classify_exact(
        parse_formula("((k == m) /\\ (r .= k)){k: Str[n], m: Str[n], r: Str[n]}")
    )
    assert not classify_exact(parse_formula("(U(k)){k: Str[n]}"))
    assert not classify_exact(parse_formula("(s ~~ t){s: Bool, t: Bool}"))


def test_classify_approx():
    assert classify_approx(parse_formula("(U(k)){k: Str[n]}"))
    assert classify_approx(parse_formula("(s ~~ t){s: Bool, t: Bool}"))
    assert classify_approx(
        parse_formula("((U(k)){k: Str[n]} * (U(m)){m: Str[n]}){k: Str[n], m: Str[n]}")
    )
    assert not classify_approx(parse_formula("(k == m){k: Str[n], m: Str[n]}"))
    # mixed conjunction is neither purely exact nor purely approximate
    mixed = parse_formula("((k == m) /\\ (U(k))){k: Str[n], m: Str[n]}")
    assert not classify_exact(mixed)
    assert not classify_approx(mixed)


# Formula extension


def test_formula_ext_grows_outer_annotations():
    small = parse_formula("(U(k)){k: Str[n]}")
    big = parse_formula("(U(k)){k: Str[n], m: Str[n]}")
    assert formula_ext(small, big)
    assert not formula_ext(big, small)


def test_formula_ext_and_children_move_together():
    small = parse_formula("((k == k) /\\ (U(k))){k: Str[n]}")
    big = parse_formula("((k == k) /\\ (U(k))){k: Str[n], z: Bool}")
    assert formula_ext(small, big)


def test_formula_ext_star_children_fixed():
    # only annotations outside the star may grow
    small = parse_formula("((U(k)){k: Str[n]} * (T){m: Str[n]}){k: Str[n], m: Str[n]}")
    outer = parse_formula(
        "((U(k)){k: Str[n]} * (T){m: Str[n]}){k: Str[n], m: Str[n], z: Bool}"
    )
    resized = parse_formula(
        "((U(k)){k: Str[n], z: Bool} * (T){m: Str[n]}){k: Str[n], m: Str[n], z: Bool}"
    )
    assert formula_ext(small, outer)
    assert not formula_ext(small, resized)


def test_formula_ext_requires_same_shape():
    a = parse_formula("(U(k)){k: Str[n]}")
    b = parse_formula("(T){k: Str[n]}")
    assert not formula_ext(a, b)
