"""Parsing, printing, and AST construction."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cslcheck.hoare import ProofError, check_triple

from cslcheck import cli, syntax
from cslcheck.syntax import (
    And,
    App,
    Assign,
    Atom,
    BOOL,
    DET,
    EMPTY_ENV,
    FuncSym,
    If,
    Lit,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    NO_SYMBOLS,
    POLY_N,
    ParseError,
    Seq,
    SizePoly,
    Skip,
    Star,
    StrType,
    Var,
    _cert_to_obj,
    env_to_text,
    expr_to_text,
    formula_to_text,
    parse_cert,
    parse_decls,
    parse_env,
    parse_expr,
    parse_formula,
    parse_formula_with_decls,
    parse_poly,
    parse_program,
    parse_program_with_decls,
    parse_proof,
    parse_type,
    poly_eval,
    poly_to_text,
    program_to_text,
    proof_to_text,
    seq,
    tokenize,
    type_to_text,
)

ROOT = Path(__file__).resolve().parent.parent


# Size polynomials


def test_poly_eval_values():
    assert poly_eval(parse_poly("n"), 3) == 3
    assert poly_eval(parse_poly("n+1"), 4) == 5
    assert poly_eval(parse_poly("2n+1"), 3) == 7
    assert poly_eval(parse_poly("n^2"), 4) == 16
    assert poly_eval(parse_poly("0"), 9) == 0


def test_poly_print_canonical():
    assert poly_to_text(parse_poly("n + 1")) == "n+1"
    assert poly_to_text(parse_poly("1 + n")) == "n+1"
    assert poly_to_text(parse_poly("n^2 + 2n + 1")) == "n^2+2n+1"
    assert poly_to_text(parse_poly("3")) == "3"


def test_poly_equality_is_structural_on_coeffs():
    assert parse_poly("n + n") == parse_poly("2n")
    assert parse_poly("n+0") == parse_poly("n")
    assert parse_poly("n") != parse_poly("n+1")


def test_poly_arithmetic():
    one = SizePoly.const(1)
    assert parse_poly("n").add(one) == parse_poly("n+1")
    assert parse_poly("n+1").try_sub(one) == parse_poly("n")
    assert parse_poly("n").try_sub(parse_poly("n+1")) is None
    # coefficientwise subtraction, not pointwise: 2n - (n+1) has a
    # negative constant term even though it is nonnegative for n >= 1
    assert parse_poly("2n").try_sub(parse_poly("n+1")) is None


def test_poly_rejects_negative_and_garbage():
    with pytest.raises(ParseError):
        parse_poly("n - 1")
    with pytest.raises(ParseError):
        parse_poly("m")
    with pytest.raises(ParseError):
        parse_poly("")


# Types and environments


def test_type_parse_print():
    assert type_to_text(parse_type("Bool")) == "Bool"
    assert type_to_text(parse_type("Str[n+2]")) == "Str[n+2]"
    assert parse_type("Str[n]") == StrType(parse_poly("n"))
    assert parse_type("Str[2n]") != parse_type("Str[n+1]")


def test_env_round_trip_and_order():
    e = parse_env("{b: Bool, a: Str[n]}")
    assert env_to_text(e) == "{a: Str[n], b: Bool}"
    assert parse_env(env_to_text(e)) == e
    assert e.names() == ("a", "b")


def test_env_ops():
    e = parse_env("{a: Str[n], b: Bool, c: Str[1]}")
    assert e.lookup("b") == BOOL
    assert e.lookup("zzz") is None
    assert e.restrict(("a",)) == parse_env("{a: Str[n]}")
    assert e.remove("b") == parse_env("{a: Str[n], c: Str[1]}")
    assert parse_env("{}") == EMPTY_ENV


def test_env_make_rejects_duplicate_free_text():
    with pytest.raises(ParseError):
        parse_env("{a: Bool, a: Str[n]}")


# Expressions


def test_expr_parse_shapes():
    assert parse_expr("r") == Var("r")
    assert parse_expr("0") == Lit("0")
    assert parse_expr("1") == Lit("1")
    e = parse_expr("xor(m, rnd())")
    assert e == App("xor", (Var("m"), App("rnd", ())))


def test_expr_rejects_other_integers():
    with pytest.raises(ParseError):
        parse_expr("2")


def test_expr_setzero_size_argument():
    e = parse_expr("setzero[n+1]()")
    assert isinstance(e, App) and e.fname == "setzero"
    assert e.size_args == (parse_poly("n+1"),)
    assert expr_to_text(e) == "setzero[n+1]()"


def test_expr_round_trip():
    for text in ("head(tail(s))", "concat(a, b)", "not(t)", "xor(x, 1)"):
        assert expr_to_text(parse_expr(text)) == text


def test_expr_unknown_symbol():
    with pytest.raises(ParseError, match="unknown function"):
        parse_expr("mangle(r)")


def test_declared_symbols_parse():
    sym = parse_decls("decl g : Str[n] -> Str[n+1] det;")
    e = parse_expr("g(k)", sym)
    assert e == App("g", (Var("k"),))
    # the table is required: without it the name is rejected
    with pytest.raises(ParseError):
        parse_expr("g(k)")


# Symbol tables are values

G_SYM = FuncSym("g", (StrType(POLY_N),), StrType(POLY_N), DET)


def test_declare_and_bind_return_new_tables():
    table = NO_SYMBOLS.declare(G_SYM)
    assert table.lookup("g") == G_SYM and NO_SYMBOLS.lookup("g") is None
    impl = lambda n, vals: vals[0]
    bound = table.bind("g", impl)
    assert bound.lookup("g").impl is impl
    assert table.lookup("g").impl is None


def test_parsers_leave_the_callers_table_unchanged():
    table = NO_SYMBOLS.declare(G_SYM)
    more = parse_decls("decl h : Str[n] -> Bool rnd;", table)
    assert more.known("h") and not table.known("h")
    text = "decl f : Str[n] -> Str[n] det; (f(g(x)) == x){x: Str[n]}"
    own, _ = parse_formula_with_decls(text, table)
    assert own.known("f") and not table.known("f")
    assert dict(table.syms) == {"g": G_SYM}


def test_the_empty_table_is_read_only():
    with pytest.raises(TypeError):
        NO_SYMBOLS.syms["g"] = G_SYM
    assert dict(NO_SYMBOLS.syms) == {}


def test_the_empty_table_stays_empty_after_commands(capsys):
    assert cli.main(["properties", "--cases", "5", "--seed", "1"]) == 0
    assert cli.main(["check", str(ROOT / "corpus" / "potp.proof")]) == 0
    capsys.readouterr()
    assert dict(NO_SYMBOLS.syms) == {}


# Programs


def test_parse_skip():
    assert parse_program("skip") == Skip()


def test_parse_assign_ast():
    sym = parse_decls("decl g : Str[n] -> Str[n+1] det;")
    p = parse_program("c := xor(m, g(k))", sym)
    assert p == Assign("c", App("xor", (Var("m"), App("g", (Var("k"),)))))


def test_parse_seq_and_if():
    text = "b := rnd(); if b then x := 1 else x := 0 end"
    p = parse_program(text)
    assert isinstance(p, Seq)
    assert isinstance(p.stmts[1], If)
    assert p.stmts[1].guard == "b"
    assert program_to_text(p) == text


def test_a_seq_is_one_flat_list_of_two_or_more_statements():
    a, b, c = parse_program("x := 1"), Skip(), parse_program("y := not(x)")
    for stmts in [(), (a,), (a, Seq((b, c)))]:
        with pytest.raises(ValueError, match="two or more statements"):
            Seq(stmts)
    assert seq(a) is a
    assert seq(a, seq(b, c)) == seq(seq(a, b), c) == Seq((a, b, c))


def test_begin_only_groups():
    flat = parse_program("x := 1; y := not(x); x := y")
    for text in [
        "begin x := 1; y := not(x) end; x := y",
        "x := 1; begin y := not(x); x := y end",
        "begin begin x := 1 end; y := not(x); x := y end",
    ]:
        assert parse_program(text) == flat
    assert program_to_text(flat) == "x := 1; y := not(x); x := y"
    nested = parse_program("if b then begin x := 1; y := x end; skip else skip end")
    assert nested == parse_program("if b then x := 1; y := x; skip else skip end")


# Nesting depth: MAX_DEPTH levels parse, and the tree they build survives
# every recursive pass used on it; one more level is a ParseError at the
# token after the opening that crosses the limit.
ENV_XB = "{b: Bool, x: Bool}"
NESTED = {
    # (parse, text nesting k levels, the opening that repeats in it)
    "formula": (
        parse_formula,
        lambda k: "(x .= b /\\ " * k + "T" + ")" * k + ENV_XB,
        "(",
    ),
    "expression": (parse_expr, lambda k: "not(" * k + "x" + ")" * k, "not("),
    "program": (
        parse_program,
        lambda k: "if b then " * k + "x := b" + " else skip end" * k,
        "if b then",
    ),
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_at_the_limit_parses_and_evaluates(kind):
    from cslcheck.dist import uniform_memories, uniform_store
    from cslcheck.logic import sat_formula
    from cslcheck.semantics import eval_expr, run, run_kozen
    from cslcheck.types import type_expr, type_program, wf_formula

    parse, text, _ = NESTED[kind]
    tree = parse(text(MAX_DEPTH))
    env = parse_env(ENV_XB)
    d = uniform_memories(env, 1)
    if kind == "formula":
        formula_to_text(tree)
        wf_formula(tree)
        assert sat_formula(uniform_store(env, (1,)), tree) is False
    elif kind == "expression":
        expr_to_text(tree)
        type_expr(env, tree)
        assert eval_expr(env, tree, 1, d) == eval_expr(env, Var("x"), 1, d)
    else:
        program_to_text(tree)
        type_program(env, tree)
        assert run(env, tree, 1, d) == run_kozen(env, tree, 1, d)


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_beyond_the_limit_is_a_parse_error(kind):
    parse, text, opening = NESTED[kind]
    deep = text(MAX_DEPTH + 1)
    # reported at the first token after the opening that crosses the limit
    end = 0
    for _ in range(MAX_DEPTH + 1):
        end = deep.index(opening, end) + len(opening)
    col = end + len(deep[end:]) - len(deep[end:].lstrip()) + 1
    with pytest.raises(ParseError, match="nesting deeper than") as info:
        parse("\n" + deep)
    assert (info.value.line, info.value.col) == (2, col)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(text(3000))


def test_guard_must_be_variable():
    with pytest.raises(ParseError, match="guard"):
        parse_program("if xor(a, b) then skip else skip end")


def test_program_round_trip():
    texts = [
        "skip",
        "k := rnd(); c := xor(m, k)",
        "a := 0; b := not(t); if b then skip else a := 1 end",
        "if u then if v then skip else skip end else w := rnd() end",
    ]
    for text in texts:
        assert program_to_text(parse_program(text)) == text


def test_parse_program_with_decls():
    # declarations prefix a program in one document
    sym, prog = parse_program_with_decls("decl f : Str[n] -> Str[1] det; x := f(y)")
    assert prog == Assign("x", App("f", (Var("y"),)))
    assert sym.lookup("f") is not None


# Formulas and annotations


def test_formula_star_with_explicit_annotations():
    f = parse_formula("(U(k)){k:Str[n]} * (T){m:Str[n]}")
    assert isinstance(f.body, Star)
    assert f.annotation == parse_env("{k: Str[n], m: Str[n]}")
    assert f.body.left.annotation == parse_env("{k: Str[n]}")
    assert f.body.right.annotation == parse_env("{m: Str[n]}")


def test_formula_espl_atom():
    f = parse_formula("(r .= s){r: Bool, s: Bool}")
    assert isinstance(f.body, Atom)
    assert f.body.kind == "ESpl"
    assert f.annotation == parse_env("{r: Bool, s: Bool}")


def test_formula_and_inherits_annotation():
    f = parse_formula(r"(r == s /\ U(r)){r: Bool, s: Bool}")
    assert isinstance(f.body, And)
    # conjuncts share the enclosing annotation
    assert f.body.left.annotation == f.annotation
    assert f.body.right.annotation == f.annotation


def test_formula_star_children_inherit_restricted():
    f = parse_formula("(U(k) * U(m)){k: Str[n], m: Str[1]}")
    assert f.body.left.annotation == parse_env("{k: Str[n]}")
    assert f.body.right.annotation == parse_env("{m: Str[1]}")


def test_free_variables_are_found_once_per_atom(monkeypatch):
    # a right-nested * chain of k atoms under one annotation: each * cuts the
    # annotation down to its children's free variables, which must not be
    # recomputed from the leaves at every level
    calls = 0
    real_fv = syntax.fv

    def counting_fv(e):
        nonlocal calls
        calls += 1
        return real_fv(e)

    monkeypatch.setattr(syntax, "fv", counting_fv)
    for k in (10, 20, 40):
        calls = 0
        text = f"(x{k - 1} == x{k - 1})"
        for i in reversed(range(k - 1)):
            text = f"((x{i} == x{i}) * {text})"
        ann = ", ".join(f"x{i}: Bool" for i in range(k))
        f = parse_formula(f"{text}{{{ann}}}")
        assert set(f.body.right.annotation.names()) == {f"x{i}" for i in range(1, k)}
        assert calls <= 3 * k, (k, calls)


def test_formula_requires_annotation_somewhere():
    with pytest.raises(ParseError, match="annotation"):
        parse_formula("U(k)")


@pytest.mark.parametrize(
    "text, col",
    [
        ("((U(r)){r: Str[n]}){r: Str[n], s: Str[n]}", 20),
        ("(r == s{r: Str[n], s: Str[n]}){r: Str[n], s: Str[n]}", 31),
        ("((T){} * (T){}{}){}", 18),
    ],
)
def test_formula_annotated_twice_is_a_parse_error(text, col):
    with pytest.raises(ParseError, match="formula is annotated twice") as err:
        parse_formula(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_formula_round_trip():
    # printing annotates every node, so round-trip through a reparse
    texts = [
        "(T){}",
        "(U(k)){k: Str[n]}",
        "((k == m) /\\ (U(k))){k: Str[n], m: Str[n]}",
        "((U(k)){k: Str[n]} * (T){m: Str[n]}){k: Str[n], m: Str[n]}",
        "(r .= xor(a, b)){a: Str[1], b: Str[1], r: Str[1]}",
        "(s ~~ t){s: Bool, t: Bool}",
        "(F){x: Bool}",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(formula_to_text(f)) == f


def test_formula_print_is_stable():
    f = parse_formula("(U(k)){k: Str[n]}")
    assert formula_to_text(parse_formula(formula_to_text(f))) == formula_to_text(f)


# Proof scripts


OTP_PROOF = """
{
  "decls": [],
  "root": {
    "rule": "Seq",
    "env": "{c: Str[n], k: Str[n], m: Str[n]}",
    "pre": "(T){c: Str[n], k: Str[n], m: Str[n]}",
    "program": "k := rnd(); c := xor(m, k)",
    "post": "(U(c)){c: Str[n], k: Str[n], m: Str[n]}",
    "mid": "(U(k)){c: Str[n], k: Str[n], m: Str[n]}",
    "children": [
      {
        "rule": "DAssn",
        "env": "{c: Str[n], k: Str[n], m: Str[n]}",
        "pre": "(T){c: Str[n], k: Str[n], m: Str[n]}",
        "program": "k := rnd()",
        "post": "(U(k)){c: Str[n], k: Str[n], m: Str[n]}",
        "children": []
      },
      {
        "rule": "Assn",
        "env": "{c: Str[n], k: Str[n], m: Str[n]}",
        "pre": "(U(k)){c: Str[n], k: Str[n], m: Str[n]}",
        "program": "c := xor(m, k)",
        "post": "(U(c)){c: Str[n], k: Str[n], m: Str[n]}",
        "children": []
      }
    ]
  }
}
"""


def test_parse_proof_shape():
    t = parse_proof(OTP_PROOF)
    assert t.rule == "Seq"
    assert len(t.children) == 2
    assert t.children[0].rule == "DAssn"
    assert t.mid is not None
    assert formula_to_text(t.mid).startswith("(U(k))")


def test_parse_proof_round_trip():
    t = parse_proof(OTP_PROOF)
    assert parse_proof(proof_to_text(t)) == t


def _rejected_by_the_checker(doc, tmp_path, capsys, path, message):
    # the reader reads any node; the checker names the defect and its node
    text = json.dumps(doc)
    tree = parse_proof(text)
    with pytest.raises(ProofError) as exc:
        check_triple(tree)
    assert (exc.value.path, exc.value.message) == (path, message)
    script = tmp_path / "bad.proof"
    script.write_text(text)
    assert cli.main(["check", str(script)]) == 1
    assert capsys.readouterr() == ("", f"proof error: {path}: {message}\n")


def _otp_doc():
    return json.loads((ROOT / "corpus" / "otp.proof").read_text())


def test_parse_proof_unknown_rule_names_the_node(tmp_path, capsys):
    doc = _otp_doc()
    doc["root"]["children"][1]["children"][0]["rule"] = "Constt"
    _rejected_by_the_checker(
        doc, tmp_path, capsys, "root.children[1].children[0]", "unknown rule 'Constt'"
    )


def test_parse_proof_seq_needs_mid(tmp_path, capsys):
    doc = _otp_doc()
    del doc["root"]["mid"]
    _rejected_by_the_checker(doc, tmp_path, capsys, "root", "Seq needs a mid formula")


def test_parse_proof_weak_needs_certs(tmp_path, capsys):
    for cert in ("pre_cert", "post_cert"):
        doc = _otp_doc()
        del doc["root"]["children"][1][cert]
        _rejected_by_the_checker(
            doc,
            tmp_path,
            capsys,
            "root.children[1]",
            "Weak needs pre and post certificates",
        )


def test_cert_round_trip():
    doc = """
    {"steps": [
       {"id": "a", "rule": "TopI", "lhs": "(U(x)){x: Str[n]}",
        "rhs": "(T){x: Str[n]}", "premises": []},
       {"id": "b", "rule": "AP", "lhs": "(T){x: Str[n]}",
        "rhs": "(T){x: Str[n]}", "premises": []}
     ],
     "root": "a"}
    """
    cert = parse_cert(doc)
    assert [s.sid for s in cert.steps] == ["a", "b"]
    assert cert.root == "a"
    assert parse_cert(json.dumps(_cert_to_obj(cert))) == cert
    broken = doc.replace('"(T){x: Str[n]}", "premises"', '"(T){x: Str[n]", "premises"')
    with pytest.raises(ParseError) as exc:
        parse_cert(broken)
    assert str(exc.value) == "cert.steps[0].rhs: 1:14: expected '}', got ''"
    assert (exc.value.where, exc.value.line, exc.value.col) == ("cert.steps[0].rhs", 1, 14)


def test_env_hashable_and_frozen():
    e = parse_env("{a: Bool}")
    assert hash(e) == hash(parse_env("{a: Bool}"))
    with pytest.raises(Exception):
        e.mapping = {}  # type: ignore[misc]


# Tokenizer


_REFERENCE_PUNCT = [
    ":=", "->", "==", ".=", "~~", "/\\",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "*", "+", "^",
]


def reference_tokenize(text):
    """The per-character tokenizer that the one-regex tokenize replaced.

    Kept as an oracle for ASCII text; it yields (kind, text, line, col).
    """
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":  # comment to end of line; col is not advanced
            while i < n and text[i] != "\n":
                i += 1
            continue
        for p in _REFERENCE_PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, line, col))
                i, col = i + len(p), col + len(p)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(("int", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("ident", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def tokens_or_error(tok, text):
    try:
        return [tuple(t) for t in tok(text)]
    except ParseError as exc:
        return (exc.message, exc.line, exc.col)


def line_col(text, offset):
    """The 1-based line and column of the character at offset in text."""
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


def tokenize_lines(text, memo=None):
    """tokenize, with each token's start offset as its line and column."""
    tokens = tokenize(text, memo)
    return [(kind, tok, *line_col(text, start)) for kind, tok, start in tokens]


# pieces of ASCII text: every punctuation character, the halves of the
# two-character operators, digits, letters, whitespace, comments, and two
# characters outside the grammar
_PIECES = (
    _REFERENCE_PUNCT
    + list("=->.~/\\")
    + list("0123456789")
    + list("abnzABSTUZ_")
    + ["Str", "x1", "42"]
    + [" ", "\t", "\r", "\n", "#", "# c\n"]
    + ["$", "\f"]
    + ["{x: Str[n]}", "{}", "{x:\n Bool}", "{x: Bool # c, }\n}", "{x"]
)


def tokenize_expanded(text):
    """tokenize, with each env token replaced by "{" and the tokens of the
    rest of its text, its "}" among them if it has one, each at its own line
    and column."""
    out = []
    for t in tokenize(text):
        if t.kind != "env":
            out.append((t.kind, t.text, *line_col(text, t.start)))
            continue
        out.append(("punct", "{", *line_col(text, t.start)))
        for kind, inner, start in tokenize(t.text[1:])[:-1]:
            out.append((kind, inner, *line_col(text, t.start + 1 + start)))
    return out


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_tokenize_agrees_with_the_reference(text):
    got = tokens_or_error(tokenize_expanded, text)
    assert got == tokens_or_error(reference_tokenize, text)


def test_tokenize_positions_and_comments():
    assert tokens_or_error(tokenize_lines, "x:=y # c\n  n^2") == [
        ("ident", "x", 1, 1),
        ("punct", ":=", 1, 2),
        ("ident", "y", 1, 4),
        ("ident", "n", 2, 3),
        ("punct", "^", 2, 4),
        ("int", "2", 2, 5),
        ("eof", "", 2, 6),
    ]
    # a trailing comment leaves eof at the column of its "#"
    assert tokenize_lines("x  # c")[-1] == ("eof", "", 1, 4)
    assert tokens_or_error(tokenize, "x\n  $") == ("unexpected character '$'", 2, 3)


@pytest.mark.parametrize(
    "parse, text, ch, col",
    [
        (parse_type, "Str[²]", "²", 5),
        (parse_type, "Str[٣]", "٣", 5),
        (parse_formula, "x == é", "é", 6),
    ],
)
def test_non_ascii_is_an_unexpected_character(parse, text, ch, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        f"unexpected character {ch!r}",
        1,
        col,
    )


# (entry point, multi-line malformed text, its (message, line, col)); the
# figures are those of the tokenizer that tracked lines in its loop
ENTRY_POINT_ERRORS = [
    (
        parse_program,
        "begin\n  x := a;\n  y := := b\nend",
        ("expected an expression, got ':='", 3, 8),
    ),
    (parse_program, "begin\n  x := a;\n  y := b\n", ("expected 'end', got ''", 4, 1)),
    (
        parse_program,
        "if b then\n  x := a\nelse\n  x := head(\nend",
        ("expected ')', got ''", 5, 4),
    ),
    (
        parse_program,
        "if b then\n  x := a # keep\nelse\n  skip\n  y := b\nend",
        ("expected 'end', got 'y'", 5, 3),
    ),
    (
        parse_program,
        "x := a;\nif b(c) then skip else skip end",
        ("guard of if must be a bare variable", 2, 4),
    ),
    (
        parse_decls,
        "decl g : Str[n] -> Str[n] det;\ndecl h : Str[n] -> Str[n] maybe;",
        ("expected det or rnd, got 'maybe'", 2, 27),
    ),
    (
        parse_decls,
        "decl g : Str[n] -> Str[n] det;\n  decl head : Str[n] -> Bool det;",
        ("cannot redeclare built-in symbol head", 2, 8),
    ),
    (
        parse_decls,
        "decl g : Str[n] -> Str[n] det;\ndecl g : Str[n] -> Bool det;",
        ("conflicting declarations for symbol g", 2, 6),
    ),
    (
        parse_env,
        "{x: Bool, # first\n  y: Str[n,\n  z: Bool}",
        ("expected ']', got ','", 2, 11),
    ),
    (
        parse_env,
        "{x: Bool, # first\n  x: Bool}",
        ("duplicate variable in environment", 2, 11),
    ),
    (parse_env, "{x: Bool # the bit\n  y: Bool}", ("expected '}', got 'y'", 2, 3)),
    (parse_type, "Str[\n  n + ]", ("expected a size polynomial term", 2, 7)),
    (parse_type, "Str[n^2 +\n 3n]  # size\n Bool", ("expected '', got 'Bool'", 3, 2)),
    (parse_poly, "n +\n 2 n^", ("expected an integer exponent", 2, 6)),
    (parse_poly, "n^2 + # square\n  3n + m", ("expected a size polynomial term", 2, 8)),
]


@pytest.mark.parametrize("parse, text, error", ENTRY_POINT_ERRORS)
def test_errors_on_every_entry_point_are_where_they_were(parse, text, error):
    assert parse_error(parse, text) == error


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_type, "Str[n^10000000]", (1, 7)),
        (parse_poly, "n^2 +\n  3n^65", (2, 6)),
        (parse_decls, "decl g : Str[n] ->\n  Str[n^10000000] det;", (2, 9)),
        (parse_formula, "(U(k)){k:\n Str[n^10000000]}", (2, 8)),
    ],
)
def test_a_size_exponent_above_the_bound_fails_at_once(parse, text, where):
    tracemalloc.start()
    try:
        error = parse_error(parse, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error == (f"exponent larger than {MAX_EXPONENT}", *where)
    assert peak < 1_000_000  # no coefficient list was built
    assert parse_poly(f"n^{MAX_EXPONENT}").coeffs == (0,) * MAX_EXPONENT + (1,)


NINES = "9" * 5000


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_formula, "(U(k)){k: Str[" + NINES + "]}", (1, 15)),
        (parse_poly, "n +\n n^" + "0" * 4999 + "1", (2, 4)),
        (parse_decls, "decl g : Str[n] ->\n  Str[" + NINES + "n] det;", (2, 7)),
    ],
    ids=["coefficient", "exponent", "decl"],
)
def test_an_integer_past_max_digits_fails_at_its_token(parse, text, where):
    # int() itself refuses these, with advice and no position
    assert parse_error(parse, text) == (f"integer longer than {MAX_DIGITS} digits", *where)
    assert parse_poly("9" * 4000 + "n").coeffs == (0, int("9" * 4000))
    assert parse_poly("0" * (MAX_DIGITS - 1) + "7").coeffs == (7,)


# Parsing each distinct text of a script once


MID = "(U(k)){c: Str[n], k: Str[n], m: Str[n]}"


def test_parse_proof_shares_equal_text():
    t = parse_proof(OTP_PROOF)
    first, second = t.children
    assert t.conclusion.pre is first.conclusion.pre
    assert t.mid is first.conclusion.post is second.conclusion.pre
    assert t.conclusion.env is first.conclusion.env is second.conclusion.env


def test_repeated_bad_text_fails_where_it_first_appears():
    # MID is the root's mid, the first child's post and the second's pre
    assert OTP_PROOF.count(json.dumps(MID)) == 3
    broken = MID[:-1]
    with pytest.raises(ParseError) as alone:
        parse_formula(broken)
    with pytest.raises(ParseError) as exc:
        parse_proof(OTP_PROOF.replace(json.dumps(MID), json.dumps(broken)))
    assert str(alone.value) == "1:39: expected '}', got ''"
    assert str(exc.value) == "root.children[0].post: " + str(alone.value)
    assert (exc.value.line, exc.value.col) == (alone.value.line, alone.value.col)

    ill_formed = MID.replace("U(k)", "U(q)")
    tree = parse_proof(OTP_PROOF.replace(json.dumps(MID), json.dumps(ill_formed)))
    with pytest.raises(ProofError) as exc:
        check_triple(tree)
    assert exc.value.path == "root.children[0]"
    assert exc.value.message == "formula: unbound variable q"


@pytest.mark.parametrize(
    "path", sorted((ROOT / "corpus").glob("*.proof")), ids=lambda p: p.name
)
def test_corpus_proofs_print_back_byte_for_byte(path):
    text = path.read_text()
    assert proof_to_text(parse_proof(text), json.loads(text)["decls"]) == text


def test_exp_family_parses_to_the_built_tree():
    tool = ROOT / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", tool)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    for h in range(7):
        decls, tree = build_corpus.build_exp(h)
        text = proof_to_text(tree, decls)
        parsed = parse_proof(text)
        assert parsed == tree
        assert proof_to_text(parsed, decls) == text


# Each annotation is one token, parsed once per script

# (annotation, error after "(U(x))" + annotation + "   * (T){z: Bool}",
#  error as the pre field "(U(k))" + annotation of a script node,
#  error as the lhs "(T)" + annotation of a certificate step), each error as
# (message, line, col); the figures are those of the per-character "{"
# tokenizer, before annotations became tokens.
MALFORMED_ANNOTATIONS = [
    (
        "{x: Str[n}",
        ("expected ']', got '}'", 1, 16),
        ("expected ']', got '}'", 1, 16),
        ("expected ']', got '}'", 1, 13),
    ),
    (
        "{x Bool}",
        ("expected ':', got 'Bool'", 1, 10),
        ("expected ':', got 'Bool'", 1, 10),
        ("expected ':', got 'Bool'", 1, 7),
    ),
    (
        "{x: Bool,}",
        ("expected a variable name, got '}'", 1, 16),
        ("expected a variable name, got '}'", 1, 16),
        ("expected a variable name, got '}'", 1, 13),
    ),
    (
        "{x: Bool, x: Bool}",
        ("duplicate variable in environment", 1, 28),
        ("duplicate variable in environment", 1, 25),
        ("duplicate variable in environment", 1, 22),
    ),
    (
        "{x: Str[2n^]}",
        ("expected an integer exponent", 1, 18),
        ("expected an integer exponent", 1, 18),
        ("expected an integer exponent", 1, 15),
    ),
    (
        "{x: Bool",
        ("expected '}', got '*'", 1, 18),
        ("expected '}', got ''", 1, 15),
        ("expected '}', got ''", 1, 12),
    ),
    (
        "{x: é}",
        ("unexpected character 'é'", 1, 11),
        ("unexpected character 'é'", 1, 11),
        ("unexpected character 'é'", 1, 8),
    ),
    (
        "{x: {}",
        ("expected a type, got '{'", 1, 11),
        ("expected a type, got '{'", 1, 11),
        ("expected a type, got '{'", 1, 8),
    ),
    (
        "{x: Bool;}",
        ("expected '}', got ';'", 1, 15),
        ("expected '}', got ';'", 1, 15),
        ("expected '}', got ';'", 1, 12),
    ),
]


def parse_error(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value.message, exc.value.line, exc.value.col


@pytest.mark.parametrize(
    "ann, in_formula, in_node, in_cert",
    MALFORMED_ANNOTATIONS,
    ids=[row[0] for row in MALFORMED_ANNOTATIONS],
)
def test_malformed_annotations_fail_where_they_did(ann, in_formula, in_node, in_cert):
    assert parse_error(parse_formula, f"(U(x)){ann}   * (T){{z: Bool}}") == in_formula
    text = (ROOT / "corpus" / "otp.proof").read_text()
    doc = json.loads(text)
    doc["root"]["children"][1]["pre"] = f"(U(k)){ann}"
    assert parse_error(parse_proof, json.dumps(doc)) == in_node
    doc = json.loads(text)
    doc["root"]["children"][0]["post_cert"]["steps"][0]["lhs"] = f"(T){ann}"
    assert parse_error(parse_proof, json.dumps(doc)) == in_cert


def test_annotations_across_lines_are_one_token():
    # a line break or a comment inside an annotation keeps it one env token
    for ann in ("{x:\n Bool}", "{x: Bool # c\n}"):
        assert [t.kind for t in tokenize(ann)] == ["env", "eof"]
        assert parse_env(ann) == parse_env("{x: Bool}")
    # the token leaves out a ":" that opens ":=", and "{" alone is one
    assert [t[:2] for t in tokenize("{x:=")] == [
        ("env", "{x"),
        ("punct", ":="),
        ("eof", ""),
    ]
    assert parse_error(tokenize, "{=") == ("unexpected character '='", 1, 2)
    assert parse_error(parse_formula, "x == {x: Bool}") == (
        "expected an expression, got '{'", 1, 6
    )
    assert parse_error(parse_formula, "(T){x: Bool} {y: Bool}") == (
        "expected '', got '{'", 1, 14
    )


# (formula text, its error or None as a formula, as the pre field of a script
#  node, and with "(U(x))" cut to "(T)" as the lhs of a certificate step);
# the figures are those of the parser that read "{" as punctuation wherever
# an annotation spanned lines, held a comment or had no "}".
ANNOTATIONS_OF_ANY_SHAPE = [
    ("(U(x)){x:\n Str[n}   * (T){z: Bool}", *[("expected ']', got '}'", 2, 7)] * 3),
    ("(U(x)){x: Bool # c, d\n , y: Bool}", None, None, None),
    ("(U(x)){x: Bool # }\n}", None, None, None),
    (
        "(U(x)){x .= y}",
        ("expected ':', got '.='", 1, 10),
        ("expected ':', got '.='", 1, 10),
        ("expected ':', got '.='", 1, 7),
    ),
    ("(U(x)){x: Bool\n   * (T){z: Bool}", *[("expected '}', got '*'", 2, 4)] * 3),
    ("(U(x)){x:\n é}", *[("unexpected character 'é'", 2, 2)] * 3),
    ("x == == {y: é}", *[("unexpected character 'é'", 1, 13)] * 3),
    ("(U(x)){x: Bool,\n x: Bool}", *[("duplicate variable in environment", 2, 10)] * 3),
]


def parse_result(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.col
    return None


@pytest.mark.parametrize("text, in_formula, in_node, in_cert", ANNOTATIONS_OF_ANY_SHAPE)
def test_annotations_of_any_shape_read_as_they_did(text, in_formula, in_node, in_cert):
    assert parse_result(parse_formula, text) == in_formula
    proof = (ROOT / "corpus" / "otp.proof").read_text()
    doc = json.loads(proof)
    doc["root"]["children"][1]["pre"] = text
    assert parse_result(parse_proof, json.dumps(doc)) == in_node
    doc = json.loads(proof)
    step = doc["root"]["children"][0]["post_cert"]["steps"][0]
    step["lhs"] = text.replace("(U(x))", "(T)")
    assert parse_result(parse_proof, json.dumps(doc)) == in_cert


def test_equal_annotation_texts_share_one_env():
    tool = ROOT / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", tool)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    decls, built = build_corpus.build_exp(4)
    tree = parse_proof(proof_to_text(built, decls))

    envs = []

    def formula(f):
        envs.append(f.annotation)
        if isinstance(f.body, (And, Star)):
            formula(f.body.left)
            formula(f.body.right)

    def node(t):
        envs.append(t.conclusion.env)
        formula(t.conclusion.pre)
        formula(t.conclusion.post)
        if t.mid is not None:
            formula(t.mid)
        for cert in (t.pre_cert, t.post_cert):
            for step in cert.steps if cert else ():
                formula(step.lhs)
                formula(step.rhs)
        for child in t.children:
            node(child)

    node(tree)
    by_text = {}
    for env in envs:
        by_text.setdefault(env_to_text(env), set()).add(id(env))
    assert len(envs) > 10 * len(by_text)
    assert all(len(ids) == 1 for ids in by_text.values())


def test_an_annotation_of_known_bindings_is_not_read_again(monkeypatch):
    memo = {}
    first = parse_env("{k: Str[n], m: Bool}", memo)
    read = []
    real = syntax.tokenize

    def tokenize_spy(text, *args):
        read.append(text)
        return real(text, *args)

    monkeypatch.setattr(syntax, "tokenize", tokenize_spy)
    again = parse_env("{ m: Bool,k: Str[n]}", memo)
    assert read == ["{ m: Bool,k: Str[n]}"]  # its bindings are not read
    assert again == first
    assert again.lookup("k") is first.lookup("k")
    assert parse_env("{}", memo) == EMPTY_ENV
    # a comment's comma splits no binding: " d\n " below is not one
    assert parse_env("{x: Bool # c, d\n , y: Bool}", memo) == parse_env(
        "{x: Bool, y: Bool}"
    )
    for bad in (
        "{ m: Bool,k: Str[n}",
        "{k: Str[n],k: Str[n]}",
        "{ m: Bool,}",
        "{k: Str[n]",
        "{ d\n }",
    ):
        assert parse_error(lambda t: parse_env(t, memo), bad) == parse_error(
            parse_env, bad
        )


# Each annotated group is one token, read once per script


def _build_corpus():
    tool = ROOT / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", tool)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    return build_corpus


def _formula_texts(node):
    """The formula texts of a proof script node and its subtree, in order."""
    for key in ("pre", "post", "mid"):
        if key in node:
            yield node[key]
    for key in ("pre_cert", "post_cert"):
        for step in node[key]["steps"] if key in node else ():
            yield step["lhs"]
            yield step["rhs"]
    for child in node.get("children", ()):
        yield from _formula_texts(child)


def _sub_formulas(f):
    yield f
    if isinstance(f.body, (And, Star)):
        yield from _sub_formulas(f.body.left)
        yield from _sub_formulas(f.body.right)


@pytest.mark.parametrize("h", range(9))
def test_a_shared_memo_parses_as_a_fresh_one_and_shares_each_group(h):
    decls, tree = _build_corpus().build_exp(h)
    doc = json.loads(proof_to_text(tree, decls))
    symbols = parse_decls(decls[0])
    memo = {}
    texts = list(dict.fromkeys(_formula_texts(doc["root"])))
    shared = [parse_formula(text, symbols, memo) for text in texts]
    assert shared == [parse_formula(text, symbols, {}) for text in texts]
    assert any(t.kind == "group" for t in tokenize(texts[-1], memo))

    # the texts are printed with every group annotated, so the text of each
    # sub-formula is a group text, and equal ones must be one object
    by_text = {}
    printed = {}
    for f in shared:
        for sub in _sub_formulas(f):
            if id(sub) not in printed:
                printed[id(sub)] = formula_to_text(sub)
            by_text.setdefault(printed[id(sub)], set()).add(id(sub))
    assert all(len(ids) == 1 for ids in by_text.values())
    assert set(by_text) == {key for key in memo if key.startswith("(")}


G_EXP = "(U(g(k))){k: Str[n], r1: Str[n+1]}"
G_AND = (
    "((U(r0)){r0: Str[n+1]} /\\ (b0 .= head(r0)){b0: Bool, r0: Str[n+1]})"
    "{b0: Bool, r0: Str[n+1]}"
)
G_TWO_LINES = "(U(\nk)){k: Str[n]}"
G_OWN_DECL = "decl h : Str[n] -> Str[n] det; (k == h(k)){k: Str[n]}"

# (text parsed after G_EXP, G_AND, G_TWO_LINES and G_OWN_DECL through one
# memo, its (message, line, col)); the figures are those of parsing it alone
# before groups became tokens
GROUP_ERRORS = [
    ("(U(" + G_EXP + ")){k: Str[n]}", ("expected an expression, got '('", 1, 4)),
    ("(g(" + G_EXP + ") == k){k: Str[n]}", ("expected an expression, got '('", 1, 4)),
    ("(k == " + G_EXP + "){k: Str[n]}", ("expected an expression, got '('", 1, 7)),
    # after a name, "(" opens arguments even when a known group follows
    ("(k == g" + G_EXP + "){k: Str[n]}", ("unknown function symbol U", 1, 9)),
    ("(U" + G_EXP + "){k: Str[n]}", ("unknown function symbol U", 1, 4)),
    ("(T){} * " + G_TWO_LINES + " )", ("expected '', got ')'", 2, 16)),
    ("(T){}\n * " + G_TWO_LINES + " * $", ("unexpected character '$'", 3, 18)),
    ("(" * 98 + G_AND + ")" * 98, ("nesting deeper than 100 levels", 1, 137)),
    (
        "((k == h(k)){k: Str[n]} * (T){}){k: Str[n]}",
        ("unknown function symbol h", 1, 8),
    ),
    (
        "decl g : Str[n] -> Str[n+2] det; " + G_EXP,
        ("conflicting declarations for symbol g", 1, 6),
    ),
]


@pytest.mark.parametrize("text, error", GROUP_ERRORS)
def test_errors_next_to_shared_groups_are_where_they_were(text, error):
    symbols = parse_decls("decl g : Str[n] -> Str[n+1] det;")
    memo = {}
    for known in (G_EXP, G_AND, G_TWO_LINES, G_OWN_DECL):
        parse_formula(known, symbols, memo)
    # a group read under a text's own decl preamble is not the script's
    assert G_OWN_DECL[G_OWN_DECL.index("(") :] not in memo
    assert parse_error(lambda t: parse_formula(t, symbols, memo), text) == error
    assert parse_error(lambda t: parse_formula(t, symbols), text) == error


def test_a_group_annotated_across_lines_is_shared():
    group = "(U(k)){k:\n Str[n] # the key\n}"
    first = f"({group} * (T){{m: Str[n]}}){{k: Str[n], m: Str[n]}}"
    second = f"((T){{m: Str[n]}} * {group}){{k: Str[n], m: Str[n]}}"
    doc = json.loads((ROOT / "corpus" / "otp.proof").read_text())
    doc["root"]["mid"], doc["root"]["post"] = first, second
    tree = parse_proof(json.dumps(doc))
    assert tree.mid.body.left is tree.conclusion.post.body.right
    memo = {}
    parse_formula(first, None, memo)
    groups = [t for t in tokenize_lines(second, memo) if t[0] == "group"]
    assert [t[1:] for t in groups] == [
        ("(T){m: Str[n]}", 1, 2),
        (group, 1, 19),
    ]


def test_equal_groups_of_one_text_are_one_object():
    f = parse_formula("((U(x)){x: Bool} /\\ (U(x)){x: Bool}){x: Bool}")
    assert f.body.left is f.body.right


def test_a_text_with_its_own_decls_gets_no_group_tokens():
    symbols = parse_decls("decl g : Str[n] -> Str[n+1] det;")
    memo = {}
    parse_formula(G_EXP, symbols, memo)
    assert [t.kind for t in tokenize(G_EXP, memo)] == ["group", "eof"]
    text = "decl g : Str[n] -> Str[n+1] det; " + G_EXP
    assert tokenize(text, memo) == tokenize(text)
    assert parse_formula(text, symbols, memo) == parse_formula(G_EXP, symbols)


def test_a_group_at_the_depth_limit_is_read_as_one_token():
    symbols = parse_decls("decl g : Str[n] -> Str[n+1] det;")
    memo = {}
    parse_formula(G_AND, symbols, memo)
    text = "(" * 97 + G_AND + ")" * 97  # G_AND nests three levels
    assert [t.kind for t in tokenize(text, memo)].count("group") == 1
    assert parse_formula(text, symbols, memo) == parse_formula(text, symbols)


def expand_groups(text, memo):
    """The tokens of text read with memo, with each group token replaced by
    the tokens of its text, each at its own line and column."""
    out = []
    for t in tokenize(text, memo):
        if t.kind != "group":
            out.append((t.kind, t.text, *line_col(text, t.start)))
            continue
        for kind, inner, start in tokenize(t.text)[:-1]:
            out.append((kind, inner, *line_col(text, t.start + start)))
    return out


_GROUPS = [
    "(T){}",
    "(U(x)){x: Bool}",
    "((T){} * (U(\nx)){x: Bool}){x: Bool}",
    "(U(x)){x:\n Bool # c\n}",
]
_GROUP_MEMO = {}
for _group in _GROUPS:
    parse_formula(_group, None, _GROUP_MEMO)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES + _GROUPS), max_size=30).map("".join))
def test_group_tokens_expand_to_the_tokens_of_their_text(text):
    got = tokens_or_error(lambda t: expand_groups(t, _GROUP_MEMO), text)
    assert got == tokens_or_error(tokenize_lines, text)
