"""Command line interface: exit codes, formats, and store round trips."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from cslcheck.cli import main, parse_store, store_to_obj
from cslcheck.dist import uniform_store
from cslcheck.syntax import parse_env


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
    # serialize again and compare the parsed objects
    assert json.loads(text) == store_to_obj(s)


def test_run_reads_an_input_store(otp_prog, tmp_path, capsys):
    env = parse_env(OTP_ENV)
    store_path = write(
        tmp_path, "in.json", json.dumps(store_to_obj(uniform_store(env, (1,))))
    )
    assert main(["run", otp_prog, "--input", store_path]) == 0
    assert "n=1" in capsys.readouterr().out


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
    ],
)
def test_eval_malformed_store_is_a_usage_error(tmp_path, capsys, doc):
    f = write(tmp_path, "t.f", "(T){x: Bool}")
    store = write(tmp_path, "bad.json", json.dumps(doc))
    assert main(["eval", f, store]) == 2
    assert only_an_error_line(capsys.readouterr().err)


def test_store_prob_must_be_exact():
    def store(*probs):
        entries = [{"values": {"x": x}, "prob": p} for x, p in zip("01", probs)]
        return json.dumps({"env": {"x": "Bool"}, "family": {"1": entries}})

    want = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
    for probs in [("1/4", "3/4"), ("0.25", "0.75")]:
        d = parse_store(store(*probs)).at(1)
        assert {m.get("x"): pr for m, pr in d.items()} == want
    assert parse_store(store(1)).at(1).is_proper()
    for probs in [(0.25, 0.75), (0.1, 0.9), (True,), ("1/0",), ("1e-3",), (None,)]:
        with pytest.raises(ValueError, match="prob"):
            parse_store(store(*probs))


# properties


def test_properties_pass(capsys):
    assert main(["properties", "--cases", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "monad" in out


def test_properties_inject_failure(capsys):
    assert main(["properties", "--cases", "2", "--inject-failure"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_properties_n_set(capsys):
    assert main(["properties", "--cases", "1", "--n-set", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_properties_rejects_fewer_than_one_case(capsys, cases):
    assert main(["properties", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert only_an_error_line(captured.err)
    assert "overall" not in captured.out


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
