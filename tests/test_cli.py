"""Command line interface: exit codes, formats, and store round trips."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cslcheck import cli
from cslcheck._props import SuiteResult
from cslcheck.cli import main, parse_store, store_to_text
from cslcheck.dist import uniform_store, zero_store
from cslcheck.logic import DEFAULT_REGISTRY
from cslcheck.syntax import parse_env


ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
OTP_ENV = "{c: Str[n], k: Str[n], m: Str[n]}"
GOOD_PROOF = """
{"root": {"rule": "Skip", "env": "{x: Bool}", "pre": "(T){x: Bool}",
  "program": "skip", "post": "(T){x: Bool}", "children": []}}
"""


@pytest.fixture
def otp_prog(tmp_path):
    p = tmp_path / "otp.prog"
    p.write_text("k := rnd(); c := xor(m, k)\n")
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# check


def test_check_accepts_a_valid_proof(tmp_path, capsys):
    path = write(tmp_path, "good.proof", GOOD_PROOF)
    assert main(["check", path]) == 0
    assert "ok:" in capsys.readouterr().out


def test_check_rejects_a_broken_proof(tmp_path, capsys):
    path = write(tmp_path, "bad.proof", GOOD_PROOF.replace("(T){x: Bool}\",\n  \"program", "(U(x)){x: Bool}\",\n  \"program"))
    assert main(["check", path]) == 1
    assert "proof error" in capsys.readouterr().err


def test_check_reports_usage_errors(capsys):
    assert main(["check", "/definitely/not/a/file.proof"]) == 2
    assert "error" in capsys.readouterr().err


def only_an_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        GOOD_PROOF.replace('"Skip"', '"Weak"').replace(
            '"children"',
            '"pre_cert": {"steps": [1], "root": "a"}, '
            '"post_cert": {"steps": [], "root": "a"}, "children"',
        ),
    ],
)
def test_check_malformed_proof_json_is_a_usage_error(tmp_path, capsys, text):
    path = write(tmp_path, "bad.proof", text)
    assert main(["check", path]) == 2
    assert only_an_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("bad", ["Str[²]", "Str[٣]", "é"])
def test_check_non_ascii_text_is_a_usage_error(tmp_path, capsys, bad):
    path = write(tmp_path, "bad.proof", GOOD_PROOF.replace("{x: Bool}", "{x: %s}" % bad))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert only_an_error_line(err) and "unexpected character" in err


def test_check_with_restricted_schema_registry(tmp_path, capsys):
    # the same Weak proof passes with defaults and fails when W2 is disabled
    proof = """
    {"root": {"rule": "Weak", "env": "{x: Bool, y: Bool}",
      "pre": "(x .= y){x: Bool, y: Bool}", "program": "skip",
      "post": "(x == y){x: Bool, y: Bool}",
      "pre_cert": {"steps": [{"id": "a", "rule": "AP",
         "lhs": "(x .= y){x: Bool, y: Bool}",
         "rhs": "(x .= y){x: Bool, y: Bool}", "premises": []}], "root": "a"},
      "post_cert": {"steps": [{"id": "w", "rule": "W2",
         "lhs": "(x .= y){x: Bool, y: Bool}",
         "rhs": "(x == y){x: Bool, y: Bool}", "premises": []}], "root": "w"},
      "children": [
        {"rule": "Skip", "env": "{x: Bool, y: Bool}",
         "pre": "(x .= y){x: Bool, y: Bool}", "program": "skip",
         "post": "(x .= y){x: Bool, y: Bool}", "children": []}
      ]}}
    """
    proof_path = write(tmp_path, "weak.proof", proof)
    assert main(["check", proof_path]) == 0
    capsys.readouterr()
    empty = write(tmp_path, "none.json", '{"enabled": []}')
    assert main(["check", proof_path, "--schemas", empty]) == 1
    assert "disabled" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schemas",
    [
        "[1]",
        '{"schemas": 5}',
        '{"enabled": "S0"}',
        '{"enabled": [1]}',
        '{"enabled": ["XorPi"]}',
    ],
)
def test_check_malformed_schemas_file_is_a_usage_error(tmp_path, capsys, schemas):
    proof_path = write(tmp_path, "good.proof", GOOD_PROOF)
    path = write(tmp_path, "schemas.json", schemas)
    assert main(["check", proof_path, "--schemas", path]) == 2
    assert only_an_error_line(capsys.readouterr().err)


def test_check_resolves_declared_symbols(tmp_path, capsys):
    # the decl preamble must reach the checker, not just the parser
    proof = """
    {"decls": ["decl g : Str[n] -> Str[n+1] det;"],
     "root": {"rule": "DAssn", "env": "{x: Str[n], y: Str[n+1]}",
      "pre": "(T){x: Str[n], y: Str[n+1]}", "program": "y := g(x)",
      "post": "(y .= g(x)){x: Str[n], y: Str[n+1]}", "children": []}}
    """
    path = write(tmp_path, "decl.proof", proof)
    assert main(["check", path]) == 0
    assert "ok:" in capsys.readouterr().out


# run


def test_run_prints_distributions(otp_prog, capsys):
    assert main(["run", otp_prog, "--env", OTP_ENV, "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "n=1" in out
    assert "1/2" in out


def test_run_json_round_trips(otp_prog, tmp_path, capsys):
    out_path = str(tmp_path / "store.json")
    assert (
        main(["run", otp_prog, "--env", OTP_ENV, "--n", "1,2", "--json", "--out", out_path])
        == 0
    )
    with open(out_path) as fh:
        text = fh.read()
    s = parse_store(text)
    assert s.env == parse_env(OTP_ENV)
    assert s.tested_ns() == [1, 2]
    # serialize again and compare the bytes
    assert store_to_text(s) == text


def test_run_reads_an_input_store(otp_prog, tmp_path, capsys):
    env = parse_env(OTP_ENV)
    store_path = write(tmp_path, "in.json", store_to_text(uniform_store(env, (1,))))
    assert main(["run", otp_prog, "--input", store_path]) == 0
    assert "n=1" in capsys.readouterr().out


def test_run_uses_every_n_of_the_input_store(otp_prog, tmp_path, capsys):
    store = zero_store(parse_env(OTP_ENV), (1, 2, 3, 4))
    store_path = write(tmp_path, "in.json", store_to_text(store))
    assert main(["run", otp_prog, "--input", store_path]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("n=")] == [
        "n=1", "n=2", "n=3", "n=4"
    ]


@pytest.mark.parametrize("command", ["run", "eval"])
def test_n_missing_from_the_store_is_a_usage_error(
    otp_prog, tmp_path, capsys, command
):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "u.f", "(U(c))" + OTP_ENV)
    if command == "run":
        argv = ["run", otp_prog, "--input", store]
    else:
        argv = ["eval", f, store]
    assert main(argv + ["--n", "2,5"]) == 2
    captured = capsys.readouterr()
    assert only_an_error_line(captured.err) and "n=[5]" in captured.err
    assert captured.out == ""


def test_run_unwritable_out_is_a_usage_error(otp_prog, tmp_path, capsys):
    argv = ["run", otp_prog, "--env", OTP_ENV, "--n", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert only_an_error_line(capsys.readouterr().err)


def test_run_bind_stub(tmp_path, capsys):
    prog = write(
        tmp_path,
        "g.prog",
        "decl g : Str[n] -> Str[n] det;\nx := g(y)",
    )
    assert main(["run", prog, "--env", "{x: Str[n], y: Str[n]}", "--n", "2",
                 "--bind", "g=identity"]) == 0
    # without a stub the symbol has no meaning; running is an error, not a "no"
    assert main(["run", prog, "--env", "{x: Str[n], y: Str[n]}", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "g" in err


def test_run_respects_bit_budget(otp_prog, capsys):
    code = main(["run", otp_prog, "--env", OTP_ENV, "--n", "1", "--max-bits", "2"])
    assert code == 2
    assert "bit" in capsys.readouterr().err.lower()


def test_run_bad_flags(capsys, otp_prog):
    assert main(["run", otp_prog, "--env", "{x: Bool", "--n", "1"]) == 2
    assert main(["run", otp_prog, "--env", OTP_ENV, "--n", "zero"]) == 2
    capsys.readouterr()


# eval


def fresh_store(tmp_path, otp_prog):
    out_path = str(tmp_path / "store.json")
    main(["run", otp_prog, "--env", OTP_ENV, "--n", "1,2", "--json", "--out", out_path])
    return out_path


def test_eval_true_formula(otp_prog, tmp_path, capsys):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "u.f", "(U(c))" + OTP_ENV)
    assert main(["eval", f, store]) == 0
    out = capsys.readouterr().out
    assert "n=1: true" in out
    assert "overall: true" in out


def test_eval_false_formula(otp_prog, tmp_path, capsys):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "um.f", "(U(m))" + OTP_ENV)
    assert main(["eval", f, store]) == 1
    assert "overall: false" in capsys.readouterr().out


def test_eval_epsilon_flag(otp_prog, tmp_path, capsys):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "ind.f", "(m ~~ c)" + OTP_ENV)
    # m is pinned to zero while c is uniform: distance 1 - 2^-n
    assert main(["eval", f, store]) == 1
    capsys.readouterr()
    assert main(["eval", f, store, "--epsilon", "1/2", "--n", "1"]) == 0


@pytest.mark.parametrize("epsilon", ["1/0", "-1", "1e-3"])
def test_eval_bad_epsilon_is_a_usage_error(otp_prog, tmp_path, capsys, epsilon):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "ind.f", "(m ~~ c)" + OTP_ENV)
    assert main(["eval", f, store, "--epsilon", epsilon]) == 2
    assert only_an_error_line(capsys.readouterr().err)


def test_eval_restricts_to_requested_n(otp_prog, tmp_path, capsys):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "u.f", "(U(c))" + OTP_ENV)
    assert main(["eval", f, store, "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=2" in out
    assert "n=1" not in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("(r == head(s)){r: Str[n], s: Str[n]}", "formula.rhs: head needs"),
        ("(r == z){r: Str[n], s: Str[n]}", "formula.rhs: unbound variable z"),
    ],
)
def test_eval_ill_formed_formula_is_a_usage_error(tmp_path, capsys, text, message):
    f = write(tmp_path, "bad.f", text)
    assert main(["eval", f, str(CORPUS / "pair.store")]) == 2
    captured = capsys.readouterr()
    assert only_an_error_line(captured.err) and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, text, error",
    [
        (
            "program",
            "k := rnd();\n  c := xor(m k)",
            "error: root.program: 2:14: expected ')', got 'k'\n",
        ),
        (
            "post",
            "((T){m: Str[n]} *\n (U(c){c: Str[n]}){c: Str[n], k: Str[n], m: Str[n]}",
            "error: root.post: 2:19: formula is annotated twice\n",
        ),
    ],
)
def test_check_names_the_line_and_column_of_a_broken_field(
    tmp_path, capsys, field, text, error
):
    doc = json.loads((CORPUS / "otp.proof").read_text())
    doc["root"][field] = text
    assert main(["check", write(tmp_path, "otp.proof", json.dumps(doc))]) == 2
    assert capsys.readouterr() == ("", error)


def test_check_names_the_decl_or_certificate_step_of_a_parse_error(tmp_path, capsys):
    doc = json.loads((CORPUS / "potp.proof").read_text())
    doc["decls"][0] = doc["decls"][0].replace("det;", "dett;")
    assert main(["check", write(tmp_path, "decl.proof", json.dumps(doc))]) == 2
    assert capsys.readouterr() == ("", "error: decls[0]: 1:29: expected det or rnd, got 'dett'\n")
    doc = json.loads((CORPUS / "potp.proof").read_text())
    step = doc["root"]["children"][1]["pre_cert"]["steps"][2]
    step["lhs"] = step["lhs"][:-1]
    assert main(["check", write(tmp_path, "step.proof", json.dumps(doc))]) == 2
    assert capsys.readouterr() == (
        "",
        "error: root.children[1].pre_cert.steps[2].lhs: 1:88: expected '}', got ''\n",
    )


DECL_G = "decl g : Str[n] -> Str[n] det; "


@pytest.mark.parametrize(
    "body, code, out",
    [
        # r and s are uniform at every n of pair.store, so r and g(s) = s
        # have one distribution; but r = not(s) in every memory, so r .= s
        # holds in none
        (
            "(r == g(s)){r: Str[n], s: Str[n]}",
            0,
            "n=1: true\nn=2: true\noverall: true\n",
        ),
        (
            "(r .= g(s)){r: Str[n], s: Str[n]}",
            1,
            "n=1: false\nn=2: false\noverall: false\n",
        ),
    ],
)
def test_eval_reads_the_decl_preamble_and_binds_stubs(tmp_path, capsys, body, code, out):
    f = write(tmp_path, "g.f", DECL_G + body)
    store = str(CORPUS / "pair.store")
    assert main(["eval", f, store, "--bind", "g=identity"]) == code
    assert capsys.readouterr() == (out, "")
    assert main(["eval", f, store]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unbound symbol g\n"


def test_one_parser_serves_every_call_and_keeps_no_bind(tmp_path, capsys):
    f = write(tmp_path, "g.f", DECL_G + "(r == g(s)){r: Str[n], s: Str[n]}")
    store = str(CORPUS / "pair.store")
    assert main(["eval", f, store, "--bind", "g=identity"]) == 0
    capsys.readouterr()
    assert main(["eval", f, store]) == 2  # the first call's --bind is gone
    assert capsys.readouterr() == ("", "error: unbound symbol g\n")
    assert cli.build_parser() is cli.build_parser()


def test_eval_error_exit(tmp_path, capsys):
    f = write(tmp_path, "u.f", "(U(c))" + OTP_ENV)
    assert main(["eval", f, "/nope.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"env": {"x": "Bool"}},
        {"env": {"x": "Bool"}, "family": {"1": [{"values": {"x": "1"}, "prob": 1.0}]}},
        {
            "env": {"x": "Bool"},
            "family": {
                "1": [
                    {"values": {"x": "0"}, "prob": "1e-3"},
                    {"values": {"x": "1"}, "prob": "999/1000"},
                ]
            },
        },
        {"env": {"x": "Bool"}, "family": {}},
        {
            "env": {"x": "Bool"},
            "family": {
                "1": [{"values": {"x": "1"}, "prob": 1}],
                "01": [{"values": {"x": "0"}, "prob": 1}],
            },
        },
        {"env": {"x": "Bool"}, "family": {"0": [{"values": {"x": "1"}, "prob": 1}]}},
    ],
)
def test_eval_malformed_store_is_a_usage_error(tmp_path, capsys, doc):
    f = write(tmp_path, "t.f", "(T){x: Bool}")
    store = write(tmp_path, "bad.json", json.dumps(doc))
    assert main(["eval", f, store]) == 2
    assert only_an_error_line(capsys.readouterr().err)


# A repeated key used to be read as its last copy: the store below was read
# as x = 1 with mass 1, so eval printed "n=1: false" and exited 1.
DUPLICATE_KEY_STORE = """
{"env": {"x": "Bool"},
 "family": {"1": [{"values": {"x": "0"}, "prob": 1}],
            "1": [{"values": {"x": "1"}, "prob": 1}]}}
"""


def test_eval_store_with_a_repeated_key_is_a_usage_error(tmp_path, capsys):
    f = write(tmp_path, "z.f", "(x .= 0){x: Bool}")
    store = write(tmp_path, "dup.json", DUPLICATE_KEY_STORE)
    assert main(["eval", f, store]) == 2
    captured = capsys.readouterr()
    assert only_an_error_line(captured.err) and "'1'" in captured.err
    assert captured.out == ""


def test_a_bad_store_value_names_its_entry(tmp_path, capsys):
    doc = {
        "env": {"x": "Str[n]"},
        "family": {
            "1": [{"values": {"x": "0"}, "prob": 1}],
            "2": [
                {"values": {"x": "01"}, "prob": "1/2"},
                {"values": {"x": "011"}, "prob": "1/2"},
            ],
        },
    }
    f = write(tmp_path, "t.f", "(T){x: Str[n]}")
    store = write(tmp_path, "wide.json", json.dumps(doc))
    assert main(["eval", f, store]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: store family '2' entry 1: value for x must have 2 bit(s), got 3\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "n_text",
    ["1_0", "01", " +1", "0", "1,-2", ",", pytest.param("9" * 5000, id="5000 digits")],
)
def test_n_is_read_by_the_store_key_rule(otp_prog, tmp_path, capsys, n_text):
    store = fresh_store(tmp_path, otp_prog)
    f = write(tmp_path, "u.f", "(U(c))" + OTP_ENV)
    for argv in (
        ["run", otp_prog, "--env", OTP_ENV, "--n", n_text],
        ["run", otp_prog, "--input", store, "--n", n_text],
        ["eval", f, store, "--n", n_text],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad n list {n_text!r}; expected e.g. 1,2,3\n"
        assert captured.out == ""
    assert main(["eval", f, store, "--n", " 2 , 1 ,"]) == 0  # spaces around commas
    assert capsys.readouterr().out == "n=1: true\nn=2: true\noverall: true\n"


def test_a_family_key_past_max_digits_gets_the_key_message(tmp_path, capsys):
    # int() of it used to end eval with Python's advice on its digit limit
    key = "9" * 5000
    doc = {"env": {"x": "Bool"}, "family": {key: [{"values": {"x": "1"}, "prob": 1}]}}
    store = write(tmp_path, "long.store", json.dumps(doc))
    assert main(["eval", write(tmp_path, "t.f", "(T){x: Bool}"), store]) == 2
    assert capsys.readouterr() == ("", (
        f"error: store family key {key!r} must be an integer >= 1 "
        'written without leading zeros, like "3"\n'
    ))


def json_file_argv(tmp_path, kind, digits):
    """The command line that reads one JSON file of kind, whose document
    carries an unread field holding an integer of digits nines."""

    def with_int(name, doc):
        text = json.dumps({**doc, "note": "@"}).replace('"@"', "9" * digits)
        return write(tmp_path, name, text)

    otp = str(CORPUS / "otp.proof")
    if kind == "store":
        store = json.loads((CORPUS / "pair.store").read_text())
        return ["eval", str(CORPUS / "eq_pair.formula"), with_int("s.store", store)]
    if kind == "proof":
        return ["check", with_int("p.proof", json.loads(Path(otp).read_text()))]
    schemas = {"enabled": sorted(DEFAULT_REGISTRY)}
    return ["check", otp, "--schemas", with_int("s.json", schemas)]


@pytest.mark.parametrize("kind", ["store", "proof", "schemas"])
def test_a_json_integer_past_max_digits_names_the_bound(tmp_path, capsys, kind):
    # one line names cslcheck's bound, not Python's advice on int(); an
    # integer of up to 4300 digits reads as any other
    assert main(json_file_argv(tmp_path, kind, 4300)) == 0
    assert capsys.readouterr().err == ""
    assert main(json_file_argv(tmp_path, kind, 5000)) == 2
    assert capsys.readouterr() == ("", "error: JSON integer longer than 4300 digits\n")


@pytest.mark.parametrize("n_text", ["1", "2"])
def test_a_prob_too_long_to_write_names_the_family(tmp_path, capsys, n_text):
    # a prob of 4300 digits reads, but the sum it makes with its family's
    # other probs has more: the error names n and the sum's size instead of
    # giving Python's advice on its limit for writing an integer
    store = json.loads((CORPUS / "pair.store").read_text())
    store["family"][n_text][0]["prob"] = "@"
    text = json.dumps(store).replace('"@"', "9" * 4300)
    argv = ["eval", str(CORPUS / "eq_pair.formula"), write(tmp_path, "s.store", text)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: n={n_text}: probabilities sum to a fraction of over 4300 digits > 1\n"
    ))


def test_check_proof_with_a_repeated_key_is_a_usage_error(tmp_path, capsys):
    text = GOOD_PROOF.replace('"rule": "Skip",', '"rule": "Skip", "rule": "Skip",')
    path = write(tmp_path, "dup.proof", text)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert only_an_error_line(err) and "'rule'" in err


def test_check_schemas_file_with_a_repeated_key_is_a_usage_error(tmp_path, capsys):
    proof_path = write(tmp_path, "good.proof", GOOD_PROOF)
    path = write(tmp_path, "schemas.json", '{"enabled": [], "enabled": ["S0"]}')
    assert main(["check", proof_path, "--schemas", path]) == 2
    err = capsys.readouterr().err
    assert only_an_error_line(err) and "'enabled'" in err


def test_eval_deeply_nested_formula_is_a_usage_error(tmp_path, capsys):
    # 3000 parentheses used to escape as a RecursionError traceback (exit 1)
    f = write(tmp_path, "deep.f", "(" * 3000 + "x .= 0" + ")" * 3000 + "{x: Bool}")
    store = write(tmp_path, "z.json", store_to_text(zero_store(parse_env("{x: Bool}"), (1,))))
    assert main(["eval", f, store]) == 2
    err = capsys.readouterr().err
    assert only_an_error_line(err) and "nesting deeper than" in err


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (
            ["eval", None, str(CORPUS / "pair.store")],
            "chain.f",
            "(" + " /\\ ".join(["r == s"] * 990) + "){r: Str[n], s: Str[n]}",
        ),
        (
            ["check", None],
            "deep.proof",
            '{"root": ' + "[" * 100000 + "]" * 100000 + "}",
        ),
    ],
    ids=["eval", "check"],
)
def test_long_chains_are_a_usage_error(tmp_path, capsys, argv, name, text):
    # each of these used to escape as a RecursionError traceback (exit 1)
    path = write(tmp_path, name, text)
    assert main([path if arg is None else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert only_an_error_line(captured.err) and "too deeply" in captured.err
    assert captured.out == ""


def test_a_long_statement_list_runs(tmp_path, capsys):
    # 990 statements used to exit 2 like the chains above; a Seq is now one
    # flat list, and every pass over it is a loop
    path = write(tmp_path, "chain.prog", "; ".join(["x := not(x)"] * 5000))
    assert main(["run", path, "--env", "{x: Bool, y: Bool}", "--n", "1"]) == 0
    assert capsys.readouterr() == ("n=1\n  x=0 y=0  1\n", "")


def test_a_long_seq_chain_checks(tmp_path):
    # 400 Skip nodes used to exit 2: comparing binary Seq programs recursed
    # once per statement. Both steps run at the default recursion limit in a
    # fresh interpreter, whose stack holds no test frames.
    path = str(tmp_path / "chain.proof")
    build = (
        "import sys; sys.path.insert(0, sys.argv[2]); import build_corpus; "
        "from cslcheck.syntax import proof_to_text; "
        "decls, tree = build_corpus.build_skip_chain(480); "
        "open(sys.argv[1], 'w').write(proof_to_text(tree, decls))"
    )
    subprocess.run([sys.executable, "-c", build, path, str(ROOT / "tools")], check=True)
    proc = subprocess.run(
        [sys.executable, "-m", "cslcheck", "check", path], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    skips = "; ".join(["skip"] * 480)
    assert proc.stdout == f"ok: {{(T){{x: Bool}}}} {{x: Bool}} |- {skips} {{(T){{x: Bool}}}}\n"


def test_an_ill_typed_statement_is_named_by_its_index(tmp_path, capsys):
    path = write(tmp_path, "bad.prog", "x := 1; y := x; skip; x := setzero[n](); y := x")
    assert main(["run", path, "--env", "{x: Bool, y: Bool}", "--n", "1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: program[3] := setzero[n](): expected Bool, got Str[n]\n",
    )


def test_run_refuses_a_size_annotation_no_typing_rule_reads(tmp_path, capsys):
    path = write(tmp_path, "sized.prog", "x := rnd[n+1]()")
    assert main(["run", path, "--env", "{x: Str[n]}", "--n", "1"]) == 2
    assert capsys.readouterr() == ("", "error: program.rhs: rnd takes no size annotation\n")


def test_store_prob_must_be_exact():
    def store(*probs):
        entries = [{"values": {"x": x}, "prob": p} for x, p in zip("01", probs)]
        return json.dumps({"env": {"x": "Bool"}, "family": {"1": entries}})

    want = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
    for probs in [("1/4", "3/4"), ("0.25", "0.75")]:
        d = parse_store(store(*probs)).at(1)
        assert {x: pr for (x,), pr in d.items()} == want
    assert parse_store(store(1)).at(1).is_proper()
    for probs in [(0.25, 0.75), (0.1, 0.9), (True,), ("1/0",), ("1e-3",), (None,)]:
        with pytest.raises(ValueError, match="prob"):
            parse_store(store(*probs))


def test_store_prob_texts_repeat_and_errors_name_their_entry():
    def store(*probs):
        entries = [
            {"values": {"x": x}, "prob": p} for x, p in zip(("00", "01", "10", "11"), probs)
        ]
        return json.dumps({"env": {"x": "Str[n]"}, "family": {"2": entries}})

    assert parse_store(store(*["1/4"] * 4)) == uniform_store(parse_env("{x: Str[n]}"), (2,))
    cases = [
        (("1/4", "1/4", "1/x", "1/x"), 2),
        (("1/x", "1/4", "1/x", "1/4"), 0),
        (("1", 1, True, 0), 2),  # True is not the int 1
        ((0, "1", False, 0), 2),
    ]
    for probs, bad in cases:
        with pytest.raises(ValueError, match=f"entry {bad}: prob"):
            parse_store(store(*probs))


# properties


def test_properties_pass(capsys):
    assert main(["properties", "--cases", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "monad" in out


def test_properties_inject_failure(monkeypatch, capsys):
    def failing(seed, cases, ns):
        return SuiteResult("injected", 1, failures=["deliberate failure for testing"])

    monkeypatch.setattr(cli, "ALL_SUITES", cli.ALL_SUITES + (failing,))
    assert main(["properties", "--cases", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_a_crash_is_an_internal_error_not_a_rejection(tmp_path, monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("deliberate crash\nsecond line")

    monkeypatch.setattr(cli, "cmd_check", crash)
    path = write(tmp_path, "good.proof", GOOD_PROOF)
    assert main(["check", path]) == cli.INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal error: ")
    assert "RuntimeError('deliberate crash" in captured.err
    assert "test_cli.py:" in captured.err  # where it was raised
    assert "Traceback" not in captured.err


def test_interrupts_pass_through_main(monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_check", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "x.proof"])


def test_properties_n_set(capsys):
    assert main(["properties", "--cases", "1", "--n-set", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_properties_rejects_fewer_than_one_case(capsys, cases):
    assert main(["properties", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert only_an_error_line(captured.err)
    assert "overall" not in captured.out


# exit-code contract under malformed input

FUZZ_STORE = {
    "env": {"r": "Str[n]", "s": "Bool"},
    "family": {
        "1": [
            {"values": {"r": "0", "s": "1"}, "prob": "1/2"},
            {"values": {"r": "1", "s": "0"}, "prob": "1/2"},
        ],
        "2": [{"values": {"r": "01", "s": "0"}, "prob": 1}],
    },
}
# wrong JSON types, bad type text, bad n keys, bad probabilities
ODD_VALUES = [
    None, True, 0, 1, 2, 0.5, [], {}, "", "x", "0", "01", "-1", " 1", "1_0",
    "9", "Str[", "Str[0]", "Str[n+1]", "Str[2n]", "Bool]", "Int", "1/0",
    "1e-3", "-1/2", "3/2", "0.25", "1/3",
]
FUZZ_FORMULAS = [
    "(T){r: Str[n], s: Bool}",
    "(U(r)){r: Str[n], s: Bool}",
    "(U(r)){r: Str[n]} * (U(s)){s: Bool}",
    "(r ~~ r /\\ s == s){r: Str[n], s: Bool}",
    "(r == head(s)){r: Str[n], s: Bool}",
    "(r == z){r: Str[n], s: Bool}",
    "((U(r)){r: Str[n]}){r: Str[n], s: Bool}",
]
FORMULA_TOKENS = [
    "(", ")", "{", "}", "[", "]", ":", ",", "r", "s", "z", "n", "1", "+",
    "Str", "Bool", "T", "F", "U", "==", "~~", ".=", "/\\", "*", "head", "xor",
]


@st.composite
def mutated_stores(draw):
    doc = json.loads(json.dumps(FUZZ_STORE))
    for _ in range(draw(st.integers(0, 2))):
        parent, key = None, None
        node = doc
        for _ in range(draw(st.integers(0, 5))):
            if not (isinstance(node, (dict, list)) and node):
                break
            parent = node
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            node = node[key]
        action = draw(st.sampled_from(["replace", "drop", "rename"]))
        if parent is None:
            doc = draw(st.sampled_from(ODD_VALUES)) if action == "replace" else doc
        elif action == "replace":
            parent[key] = draw(st.sampled_from(ODD_VALUES))
        elif isinstance(parent, dict):
            value = parent.pop(key)
            if action == "rename":
                parent[str(draw(st.sampled_from(ODD_VALUES)))] = value
        else:
            del parent[key]
    return json.dumps(doc)


formula_texts = st.one_of(
    st.sampled_from(FUZZ_FORMULAS),
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map(" ".join),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    mutated_stores(),
    formula_texts,
    st.sampled_from([None, "1", "1,2", "3", "0", "x"]),
)
def test_exit_code_contract_on_malformed_input(store_text, formula_text, n):
    with tempfile.TemporaryDirectory() as tmp:
        store = write(Path(tmp), "s.json", store_text)
        formula = write(Path(tmp), "f.formula", formula_text)
        program = write(Path(tmp), "p.prog", "r := rnd(); s := s")
        n_flag = [] if n is None else ["--n", n]
        for argv in (
            ["eval", formula, store] + n_flag,
            ["run", program, "--input", store] + n_flag,
        ):
            code, out, err = run_main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err
            if code == 2:
                assert only_an_error_line(err), err
                assert "overall" not in out


def _field_paths(obj, path=()):
    """The key path of every field and list entry below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


ODD_PROOF_VALUES = ODD_VALUES + [
    "Assnn", "Seq", "Weak", "Frame", "NoSuchSchema", "XorPi", "Trans", "AP", "S0",
    "no_such_step", "(T){", "(T){}", "(U(q)){q: Str[n]}", "T", "k := ", "{k: Str[",
]


def one_field_mutations(*docs):
    """Texts of docs, each with one field or list entry dropped or replaced."""
    fields = [(doc, path) for doc in docs for path in _field_paths(doc)]

    @st.composite
    def mutated(draw):
        doc, path = draw(st.sampled_from(fields))
        doc = json.loads(json.dumps(doc))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(ODD_PROOF_VALUES))
        return json.dumps(doc, indent=2)

    return mutated()


# a rule name, a formula, a certificate, a premise id, a node, ... of a script
PROOF_NAMES = ("otp", "xor", "potp")
mutated_proofs = one_field_mutations(
    *(json.loads((CORPUS / f"{name}.proof").read_text()) for name in PROOF_NAMES)
)
# no --schemas file, or the default registry's file with one name changed
mutated_schemas = st.one_of(
    st.none(), one_field_mutations({"enabled": sorted(DEFAULT_REGISTRY)})
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(mutated_proofs, mutated_schemas)
def test_check_exit_code_contract_on_mutated_proofs(proof_text, schemas_text):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["check", write(Path(tmp), "p.proof", proof_text)]
        if schemas_text is not None:
            argv += ["--schemas", write(Path(tmp), "s.json", schemas_text)]
        code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    # one line: "ok:" on stdout, or "proof error:" or "error:" on stderr
    stream, prefix = [(out, "ok:"), (err, "proof error:"), (err, "error:")][code]
    assert out + err == stream and stream.count("\n") == 1, (out, err)
    assert stream.startswith(prefix), stream


# entry point


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cslcheck.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "check" in proc.stdout


def test_package_is_runnable_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "cslcheck", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "check" in proc.stdout
