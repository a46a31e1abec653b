"""The proof-tree checker, semantic spot checks, and rule fuzzing."""

import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

from cslcheck import _gen, hoare, types
from cslcheck.cli import main
from cslcheck.dist import FinDist, Store, all_memories, uniform_store, zero_store
from cslcheck.hoare import (
    ProofError,
    check_triple,
    fuzz_rule_soundness,
    validate_triple,
)
from cslcheck.syntax import (
    And,
    HoareTriple,
    Star,
    SymbolTable,
    parse_env,
    parse_formula,
    parse_program,
    parse_proof,
    parse_proof_with_decls,
    proof_to_text,
)

ROOT = Path(__file__).resolve().parent.parent


def check(doc):
    return check_triple(parse_proof(doc))


def expect_error(doc, pattern):
    with pytest.raises(ProofError, match=pattern):
        check(doc)


# Leaf rules


SKIP_DOC = """
{"root": {"rule": "Skip", "env": "{x: Bool}", "pre": "(U(x)){x: Bool}",
  "program": "skip", "post": "(U(x)){x: Bool}", "children": []}}
"""


def test_skip_rule():
    t = check(SKIP_DOC)
    assert t.program == parse_program("skip")
    expect_error(
        SKIP_DOC.replace('"post": "(U(x)){x: Bool}"', '"post": "(T){x: Bool}"'),
        "unchanged",
    )
    expect_error(
        SKIP_DOC.replace('"program": "skip"', '"program": "x := 1"'),
        "empty program",
    )


def test_assn_rule_random_expression():
    doc = """
    {"root": {"rule": "Assn", "env": "{k: Str[n], m: Str[n]}",
      "pre": "(T){k: Str[n], m: Str[n]}", "program": "k := rnd()",
      "post": "(k == rnd()){k: Str[n], m: Str[n]}", "children": []}}
    """
    check(doc)
    expect_error(doc.replace("(T)", "(U(m))"), "precondition must be T")
    expect_error(
        doc.replace("k == rnd()", "m == rnd()"), "postcondition must be"
    )


def test_assn_rejects_self_reference():
    doc = """
    {"root": {"rule": "Assn", "env": "{k: Str[n]}", "pre": "(T){k: Str[n]}",
      "program": "k := xor(k, rnd())",
      "post": "(k == xor(k, rnd())){k: Str[n]}", "children": []}}
    """
    expect_error(doc, "must not occur")


def test_dassn_rule_deterministic_expression():
    doc = """
    {"root": {"rule": "DAssn", "env": "{c: Str[n], k: Str[n], m: Str[n]}",
      "pre": "(T){c: Str[n], k: Str[n], m: Str[n]}", "program": "c := xor(m, k)",
      "post": "(c .= xor(m, k)){c: Str[n], k: Str[n], m: Str[n]}", "children": []}}
    """
    check(doc)


def test_dassn_rejects_randomized_expression():
    doc = """
    {"root": {"rule": "DAssn", "env": "{k: Str[n]}", "pre": "(T){k: Str[n]}",
      "program": "k := rnd()", "post": "(k == rnd()){k: Str[n]}", "children": []}}
    """
    expect_error(doc, "postcondition must be")


def test_conclusion_must_type_check():
    doc = """
    {"root": {"rule": "Skip", "env": "{x: Bool}", "pre": "(U(y)){x: Bool}",
      "program": "skip", "post": "(U(y)){x: Bool}", "children": []}}
    """
    expect_error(doc, "root")


def test_annotation_must_match_env():
    doc = """
    {"root": {"rule": "Skip", "env": "{x: Bool, y: Bool}", "pre": "(U(x)){x: Bool}",
      "program": "skip", "post": "(U(x)){x: Bool}", "children": []}}
    """
    expect_error(doc, "annotation")


# Each rule takes a fixed number of subproofs, checked before its shape

SUBPROOFS = {
    "Skip": 0, "Seq": 2, "Assn": 0, "DAssn": 0, "SRAssn": 0, "SDAssn": 0,
    "RCond": 2, "Weak": 1, "Const": 1, "Frame": 1,
}
WRONG_ARITIES = [
    (rule, got) for rule, k in SUBPROOFS.items() for got in (k - 1, k + 1) if got >= 0
]


def test_the_arity_table_names_every_rule():
    assert set(SUBPROOFS) == set(hoare._RULE_CHECKS)


@pytest.mark.parametrize("rule, got", WRONG_ARITIES)
def test_a_rule_with_the_wrong_number_of_subproofs_says_so(rule, got):
    node = {"rule": rule, "env": "{x: Bool}", "pre": "(T){x: Bool}",
            "program": "skip", "post": "(T){x: Bool}"}
    doc = {"root": {**node, "children": [{**node, "rule": "Skip"}] * got}}
    with pytest.raises(ProofError) as exc_info:
        check(json.dumps(doc))
    want = f"root: {rule} takes {SUBPROOFS[rule]} subproof(s), got {got}"
    assert str(exc_info.value) == want


# Scoped assignment


SR_DOC = """
{"root": {"rule": "SRAssn", "env": "{c: Str[n], k: Str[n], m: Str[n]}",
  "pre": "((T){m: Str[n]} * (T){c: Str[n]}){c: Str[n], k: Str[n], m: Str[n]}",
  "program": "k := rnd()",
  "post": "(((T){m: Str[n]} /\\\\ (k == rnd()){k: Str[n], m: Str[n]}){k: Str[n], m: Str[n]} * (T){c: Str[n]}){c: Str[n], k: Str[n], m: Str[n]}",
  "children": []}}
"""


def test_scoped_random_assignment():
    t = check(SR_DOC)
    assert t.env == parse_env("{c: Str[n], k: Str[n], m: Str[n]}")


def test_scoped_assignment_shape_errors():
    expect_error(
        SR_DOC.replace(
            '"pre": "((T){m: Str[n]} * (T){c: Str[n]}){c: Str[n], k: Str[n], m: Str[n]}"',
            '"pre": "(T){c: Str[n], k: Str[n], m: Str[n]}"',
        ),
        "separating conjunction",
    )
    # the assigned variable may not already live in the active component
    bad = SR_DOC.replace("(T){m: Str[n]}", "(T){k: Str[n], m: Str[n]}")
    expect_error(bad, "active component")


def test_scoped_assignment_removes_target_from_context():
    # k sits in the context pre-side and must be dropped post-side
    doc = """
    {"root": {"rule": "SDAssn", "env": "{k: Bool, m: Bool}",
      "pre": "((T){m: Bool} * (U(k)){k: Bool}){k: Bool, m: Bool}",
      "program": "k := not(m)",
      "post": "(((T){m: Bool} /\\\\ (k .= not(m)){k: Bool, m: Bool}){k: Bool, m: Bool} * (U(k)){}){k: Bool, m: Bool}",
      "children": []}}
    """
    # the stale context still mentions k, so it no longer type-checks
    expect_error(doc, "root")


def test_sdassn_needs_deterministic_rhs():
    doc = SR_DOC.replace('"rule": "SRAssn"', '"rule": "SDAssn"').replace(
        "k == rnd()", "k .= rnd()"
    )
    expect_error(doc, "root")


# Composition


SEQ_DOC = """
{"root": {"rule": "Seq", "env": "{b: Bool, x: Bool}",
  "pre": "(T){b: Bool, x: Bool}",
  "program": "b := not(x); x := not(b)",
  "post": "(x .= not(b)){b: Bool, x: Bool}",
  "mid": "(b .= not(x)){b: Bool, x: Bool}",
  "children": [
    {"rule": "DAssn", "env": "{b: Bool, x: Bool}", "pre": "(T){b: Bool, x: Bool}",
     "program": "b := not(x)", "post": "(b .= not(x)){b: Bool, x: Bool}",
     "children": []},
    {"rule": "Weak", "env": "{b: Bool, x: Bool}",
     "pre": "(b .= not(x)){b: Bool, x: Bool}",
     "program": "x := not(b)", "post": "(x .= not(b)){b: Bool, x: Bool}",
     "pre_cert": {"steps": [{"id": "t", "rule": "TopI",
        "lhs": "(b .= not(x)){b: Bool, x: Bool}",
        "rhs": "(T){b: Bool, x: Bool}", "premises": []}], "root": "t"},
     "post_cert": {"steps": [{"id": "a", "rule": "AP",
        "lhs": "(x .= not(b)){b: Bool, x: Bool}",
        "rhs": "(x .= not(b)){b: Bool, x: Bool}", "premises": []}], "root": "a"},
     "children": [
       {"rule": "DAssn", "env": "{b: Bool, x: Bool}",
        "pre": "(T){b: Bool, x: Bool}", "program": "x := not(b)",
        "post": "(x .= not(b)){b: Bool, x: Bool}", "children": []}
     ]}
  ]}}
"""


def test_seq_with_weakening():
    t = check(SEQ_DOC)
    assert t.post == parse_formula("(x .= not(b)){b: Bool, x: Bool}")


def test_seq_mid_must_chain():
    bad = SEQ_DOC.replace(
        '"mid": "(b .= not(x)){b: Bool, x: Bool}"',
        '"mid": "(T){b: Bool, x: Bool}"',
    )
    expect_error(bad, "first subproof")


def test_error_paths_point_into_the_tree():
    # break the inner DAssn of the Weak child: its path is root.children[1].children[0]
    bad = SEQ_DOC.replace(
        '"pre": "(T){b: Bool, x: Bool}", "program": "x := not(b)",\n        "post": "(x .= not(b)){b: Bool, x: Bool}", "children": []',
        '"pre": "(U(b)){b: Bool, x: Bool}", "program": "x := not(b)",\n        "post": "(x .= not(b)){b: Bool, x: Bool}", "children": []',
    )
    with pytest.raises(ProofError) as exc_info:
        check(bad)
    assert "root.children[1]" in str(exc_info.value)


# A Seq node may split its statement list at any point: a; b; c is proved
# below as (a; b); c and as a; (b; c), through the cuts P0 .. P3.
E_BX = "{b: Bool, x: Bool}"
STMTS = ["b := not(x)", "x := not(b)", "b := x"]
CUTS = [f"({body}){E_BX}" for body in ("T", "b .= not(x)", "x .= not(b)", "b .= x")]


def _node(rule, pre, program, post, children=(), **witnesses):
    return {"rule": rule, "env": E_BX, "pre": pre, "program": program,
            "post": post, **witnesses, "children": list(children)}


def _one_step(rule, lhs, rhs):
    step = {"id": "s", "rule": rule, "lhs": lhs, "rhs": rhs, "premises": []}
    return {"steps": [step], "root": "s"}


def _assign(i):
    """{CUTS[i]} STMTS[i] {CUTS[i + 1]}: DAssn from T, weakened from CUTS[i]."""
    stmt, pre, post = STMTS[i], CUTS[i], CUTS[i + 1]
    leaf = _node("DAssn", CUTS[0], stmt, post)
    if pre == CUTS[0]:
        return leaf
    return _node("Weak", pre, stmt, post, [leaf],
                 pre_cert=_one_step("TopI", pre, CUTS[0]),
                 post_cert=_one_step("AP", post, post))


def _seq(first, second):
    return _node("Seq", first["pre"], f"{first['program']}; {second['program']}",
                 second["post"], [first, second], mid=first["post"])


SPLITS = {
    "left": _seq(_seq(_assign(0), _assign(1)), _assign(2)),
    "right": _seq(_assign(0), _seq(_assign(1), _assign(2))),
}


@pytest.mark.parametrize("shape", sorted(SPLITS))
def test_seq_may_split_its_statement_list_anywhere(shape):
    t = check(json.dumps({"root": SPLITS[shape]}))
    assert t.program == parse_program("; ".join(STMTS))
    assert (t.pre, t.post) == (parse_formula(CUTS[0]), parse_formula(CUTS[3]))


@pytest.mark.parametrize("shape, child", [("left", 0), ("right", 1)])
@pytest.mark.parametrize("edit", ["missing", "extra", "swapped"])
def test_a_seq_child_must_run_its_part_of_the_list(tmp_path, capsys, shape, child, edit):
    root = json.loads(json.dumps(SPLITS[shape]))
    part = root["children"][child]["program"].split("; ")
    part = {
        "missing": part[:1],
        "extra": part + part[-1:],
        "swapped": part[::-1],
    }[edit]
    root["children"][child]["program"] = "; ".join(part)
    path = tmp_path / "bad.proof"
    path.write_text(json.dumps({"root": root}))
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "proof error: root: the subproofs' programs must join to the program\n"
    )
    assert captured.out == ""


def test_every_triple_of_the_left_split_proof_holds():
    env = parse_env(E_BX)
    rng = random.Random(31)
    stores = [Store(env, {1: FinDist.dirac(m)}) for m in all_memories(env, 1)]
    stores += _gen.gen_stores(rng, env, (1, 2), 40)
    nodes = [parse_proof(json.dumps({"root": SPLITS["left"]}))]
    seen = 0
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children)
        report = validate_triple(node.conclusion, stores)
        assert report.ok and report.hits > 0, proof_to_text(node)
        seen += 1
    assert seen == 7  # two Seq nodes, two Weak nodes and three DAssn leaves


def test_weak_certificates_must_match_exactly():
    bad = SEQ_DOC.replace(
        '"rhs": "(T){b: Bool, x: Bool}", "premises": []}], "root": "t"}',
        '"rhs": "(T){b: Bool, x: Bool}", "premises": []},'
        '{"id": "u", "rule": "AP", "lhs": "(T){b: Bool, x: Bool}",'
        '"rhs": "(T){b: Bool, x: Bool}", "premises": []}], "root": "u"}',
    )
    expect_error(bad, "pre certificate must derive")


# Conditionals


RCOND_DOC = """
{"root": {"rule": "RCond", "env": "{b: Bool}", "pre": "(T){b: Bool}",
  "program": "if b then skip else skip end", "post": "(b == b){b: Bool}",
  "children": [
    {"rule": "Weak", "env": "{b: Bool}", "pre": "(b .= 1){b: Bool}",
     "program": "skip", "post": "(b == b){b: Bool}",
     "pre_cert": {"steps": [{"id": "t", "rule": "TopI",
        "lhs": "(b .= 1){b: Bool}", "rhs": "(T){b: Bool}", "premises": []}],
        "root": "t"},
     "post_cert": {"steps": [{"id": "v", "rule": "T0",
        "lhs": "(T){b: Bool}", "rhs": "(b == b){b: Bool}", "premises": []}],
        "root": "v"},
     "children": [
       {"rule": "Skip", "env": "{b: Bool}", "pre": "(T){b: Bool}",
        "program": "skip", "post": "(T){b: Bool}", "children": []}
     ]},
    {"rule": "Weak", "env": "{b: Bool}", "pre": "(b .= 0){b: Bool}",
     "program": "skip", "post": "(b == b){b: Bool}",
     "pre_cert": {"steps": [{"id": "t", "rule": "TopI",
        "lhs": "(b .= 0){b: Bool}", "rhs": "(T){b: Bool}", "premises": []}],
        "root": "t"},
     "post_cert": {"steps": [{"id": "v", "rule": "T0",
        "lhs": "(T){b: Bool}", "rhs": "(b == b){b: Bool}", "premises": []}],
        "root": "v"},
     "children": [
       {"rule": "Skip", "env": "{b: Bool}", "pre": "(T){b: Bool}",
        "program": "skip", "post": "(T){b: Bool}", "children": []}
     ]}
  ]}}
"""


def test_rcond_guard_cases():
    check(RCOND_DOC)


def test_rcond_post_must_be_exact():
    bad = RCOND_DOC.replace("(b == b)", "(b ~~ b)").replace(
        '"rule": "T0"', '"rule": "S0"'
    )
    expect_error(bad, "exact")


def test_rcond_branch_preconditions_are_fixed():
    bad = RCOND_DOC.replace('"pre": "(b .= 1){b: Bool}"', '"pre": "(T){b: Bool}"')
    expect_error(bad, "then branch")


# Const and Frame


CONST_DOC = """
{"root": {"rule": "Const", "env": "{x: Bool, y: Bool, z: Bool}",
  "pre": "((T){x: Bool, y: Bool} /\\\\ (U(z)){z: Bool}){x: Bool, y: Bool, z: Bool}",
  "program": "x := not(y)",
  "post": "((x .= not(y)){x: Bool, y: Bool} /\\\\ (U(z)){z: Bool}){x: Bool, y: Bool, z: Bool}",
  "children": [
    {"rule": "DAssn", "env": "{x: Bool, y: Bool}", "pre": "(T){x: Bool, y: Bool}",
     "program": "x := not(y)", "post": "(x .= not(y)){x: Bool, y: Bool}",
     "children": []}
  ]}}
"""


def test_const_rule():
    check(CONST_DOC)


def test_const_context_must_avoid_written_variables():
    bad = CONST_DOC.replace("(U(z)){z: Bool}", "(U(x)){x: Bool, z: Bool}")
    expect_error(bad, "writes")


def test_const_context_identical_on_both_sides():
    bad = CONST_DOC.replace(
        '"post": "((x .= not(y)){x: Bool, y: Bool} /\\\\ (U(z)){z: Bool})',
        '"post": "((x .= not(y)){x: Bool, y: Bool} /\\\\ (T){z: Bool})',
    )
    expect_error(bad, "identical")


FRAME_DOC = CONST_DOC.replace('"rule": "Const"', '"rule": "Frame"').replace(
    "/\\\\", "*"
)


def test_frame_rule():
    check(FRAME_DOC)


def test_frame_parts_must_be_disjoint():
    bad = FRAME_DOC.replace("(U(z)){z: Bool}", "(U(y)){y: Bool, z: Bool}")
    expect_error(bad, "root")


# Semantic spot checks


def test_validate_triple_confirms_otp():
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    triple = HoareTriple(
        pre=parse_formula("(T){c: Str[n], k: Str[n], m: Str[n]}"),
        env=env,
        program=parse_program("k := rnd(); c := xor(m, k)"),
        post=parse_formula("(U(c)){c: Str[n], k: Str[n], m: Str[n]}"),
    )
    stores = [uniform_store(env, (1, 2)), zero_store(env, (1, 2))]
    report = validate_triple(triple, stores)
    assert report.ok
    assert report.checked == 2
    assert report.hits == 2


def test_validate_triple_finds_counterexamples():
    env = parse_env("{x: Bool}")
    triple = HoareTriple(
        pre=parse_formula("(T){x: Bool}"),
        env=env,
        program=parse_program("skip"),
        post=parse_formula("(U(x)){x: Bool}"),
    )
    report = validate_triple(triple, [zero_store(env, (1,))])
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0].input.env == env


def test_validate_triple_counts_vacuous_stores():
    env = parse_env("{x: Bool}")
    triple = HoareTriple(
        pre=parse_formula("(U(x)){x: Bool}"),
        env=env,
        program=parse_program("skip"),
        post=parse_formula("(U(x)){x: Bool}"),
    )
    report = validate_triple(triple, [zero_store(env, (1,))])
    assert report.ok
    assert report.checked == 1
    assert report.hits == 0


# Rule fuzzing


@pytest.mark.parametrize("rule", ["SRAssn", "SDAssn", "RCond", "Const", "Frame"])
def test_fuzz_rules_find_no_violations(rule):
    report = fuzz_rule_soundness(rule, cases=25, seed=7, ns=(1,))
    assert report.ok, report.violations[:1]
    assert report.hits > 0


def test_the_fuzzer_tests_the_rule_the_checker_enforces(monkeypatch):
    real = hoare.composite_premise

    def unsound(t, rule, fail):  # the subproof need not reach the post
        premise = real(t, rule, fail)
        return HoareTriple(premise.pre, premise.env, premise.program, premise.pre)

    monkeypatch.setattr(hoare, "composite_premise", unsound)
    assert not fuzz_rule_soundness("Const", cases=40, seed=1, ns=(1, 2)).ok


def test_the_fuzzer_finds_rcond_with_its_branches_swapped(monkeypatch):
    real = hoare.rcond_premises

    def swapped(t, fail):  # the else branch runs under guard=1, then under 0
        then_triple, else_triple = real(t, fail)
        return (
            HoareTriple(then_triple.pre, t.env, else_triple.program, t.post),
            HoareTriple(else_triple.pre, t.env, then_triple.program, t.post),
        )

    monkeypatch.setattr(hoare, "rcond_premises", swapped)
    for seed in (0, 1, 2):
        assert not fuzz_rule_soundness("RCond", 100, seed, (1, 2)).ok, seed


def _lenient(fail, skipped):
    """fail, except that a check whose message starts with skipped passes."""

    def check(message):
        if not message.startswith(skipped):
            fail(message)

    return check


def test_the_fuzzer_finds_const_without_its_clash_check(monkeypatch):
    real = hoare.composite_premise

    def unchecked(t, rule, fail):  # the context may mention written variables
        return real(t, rule, _lenient(fail, "the context mentions"))

    monkeypatch.setattr(hoare, "composite_premise", unchecked)
    for seed in (0, 1, 2):
        assert not fuzz_rule_soundness("Const", 200, seed, (1,)).ok, seed


def _allow_srassn_targets_in_the_active_component(monkeypatch):
    real = hoare.scoped_post

    def unchecked(t, atom_kind, symbols, fail):  # the target may lie in xi
        skipped = "the assigned variable must not occur in the active component"
        return real(t, atom_kind, symbols, _lenient(fail, skipped))

    monkeypatch.setattr(hoare, "scoped_post", unchecked)


def test_the_fuzzer_finds_srassn_assigning_in_the_active_component(monkeypatch):
    _allow_srassn_targets_in_the_active_component(monkeypatch)
    for seed in (0, 1, 2):
        assert not fuzz_rule_soundness("SRAssn", 100, seed, (1, 2)).ok, seed


def test_a_rule_that_builds_an_ill_typed_post_fails_the_fuzz_suite(monkeypatch, capsys):
    # the unchecked post joins a target in xi in twice: env_join raises
    _allow_srassn_targets_in_the_active_component(monkeypatch)
    report = fuzz_rule_soundness("SRAssn", 100, 0, (1, 2))
    errors = [v["error"] for v in report.violations if "error" in v]
    assert errors and errors[0].startswith("ill-typed instance: env_join: "), errors
    assert main(["properties", "--cases", "50", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert re.search(r"^fuzz +cases=50 +FAIL$", out, re.M), out
    assert "ill-typed instance: env_join: environment domains overlap" in out
    assert err == ""


def test_fuzz_unknown_rule():
    with pytest.raises(ValueError, match="fuzz generator"):
        fuzz_rule_soundness("Skip", cases=1)


# Each formula object is checked for well-formedness once per check


def _build_exp(h):
    tool = ROOT / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", tool)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    decls, tree = build_corpus.build_exp(h)
    return proof_to_text(tree, decls)


def test_each_formula_object_is_checked_once(monkeypatch):
    # every distinct formula object, sub-formulas included, is checked once:
    # equal groups of a script are one object, so most occurrences are skips
    symbols, tree = parse_proof_with_decls(_build_exp(4))
    checks = []
    wf_formula = types.wf_formula

    def counting(f, *args, **kwargs):
        checks.append(f)
        return wf_formula(f, *args, **kwargs)

    monkeypatch.setattr(types, "wf_formula", counting)
    check_triple(tree, symbols)

    formulas = {}
    occurrences = [0]

    def formula(f):
        occurrences[0] += 1
        formulas[id(f)] = f
        if isinstance(f.body, (And, Star)):
            formula(f.body.left)
            formula(f.body.right)

    def collect(t):
        formula(t.conclusion.pre)
        formula(t.conclusion.post)
        for cert in (t.pre_cert, t.post_cert):
            for step in cert.steps if cert else ():
                formula(step.lhs)
                formula(step.rhs)
        for child in t.children:
            collect(child)

    collect(tree)
    assert len(checks) == len({id(f) for f in checks}) == len(formulas)
    assert {id(f) for f in checks} == set(formulas)
    assert occurrences[0] > 5 * len(formulas)


def test_ill_formed_formula_fails_in_the_certificate_it_first_appears_in():
    # the SRAssn node's pre is also the rhs of its Weak parent's pre_cert
    text = (ROOT / "corpus" / "otp.proof").read_text()
    shared = "((T){} * (T){c: Str[n], m: Str[n]}){c: Str[n], k: Str[n], m: Str[n]}"
    bad = shared.replace("(T){c:", "(U(q)){c:")
    assert text.count(shared) == 2
    tree = parse_proof(text.replace(shared, bad))
    weak = tree.children[0]
    assert weak.pre_cert.steps[0].rhs is weak.children[0].conclusion.pre
    with pytest.raises(ProofError) as exc:
        check_triple(tree)
    assert exc.value.path == "root.children[0]"
    assert exc.value.message == (
        "pre certificate: step s1: ill-formed formula: "
        "formula.right: unbound variable q"
    )


def test_wf_formula_once_records_only_successes():
    checked = {}
    good = parse_formula("(U(x)){x: Bool}")
    bad = parse_formula("(U(q)){x: Bool}")
    for _ in range(2):
        with pytest.raises(types.TypeCheckError):
            types.wf_formula_once(bad, SymbolTable(), checked)
        types.wf_formula_once(good, SymbolTable(), checked)
    assert checked == {id(good): good}
