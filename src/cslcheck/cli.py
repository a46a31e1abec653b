"""Command-line driver: proof checking, program execution, formula
evaluation, and the property-suite runner.

Exit codes follow one contract everywhere: 0 success / property holds,
1 checked-and-rejected (proof error, false formula, failing suite),
2 usage, parse, or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from ._props import ALL_SUITES, SuiteResult
from .dist import FinDist, Memory, Store, zero_store
from .hoare import ProofError, check_triple
from .logic import load_registry, sat_formula
from .semantics import (
    BitBudgetError,
    DEFAULT_MAX_BITS,
    STUB_NAMES,
    UninterpretedSymbolError,
    bind_stub,
    check_bit_budget,
    run_store,
)
from .syntax import (
    Env,
    ParseError,
    SymbolTable,
    env_to_text,
    formula_to_text,
    parse_env,
    parse_formula,
    parse_proof_with_decls,
    parse_program_with_decls,
    parse_type,
    program_to_text,
    type_to_text,
)
from .types import TypeCheckError, type_program

OK, REJECTED, USAGE = 0, 1, 2


# ---------------------------------------------------------------------------
# Store files


def store_to_obj(s: Store) -> dict:
    family = {}
    for n in s.tested_ns():
        d = s.at(n)
        entries = []
        for m in d.support():
            entries.append(
                {
                    "values": {name: m.get(name) for name in s.env.names()},
                    "prob": str(d.prob(m)),
                }
            )
        family[str(n)] = entries
    return {
        "env": {name: type_to_text(t) for name, t in s.env.items()},
        "family": family,
    }


def store_to_text(s: Store) -> str:
    return json.dumps(store_to_obj(s), indent=2) + "\n"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _exact_rational(raw, what: str) -> Fraction:
    """Read an int, or a string "p/q" or "0.25", from outside input exactly.

    A JSON float is refused, because 0.1 would decode to a nearby dyadic
    rational. Exponent forms are refused too: Fraction("1e-4000000") expands
    to a four-million-digit integer.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f'{what} must be an int or a string like "1/4"')
    if isinstance(raw, str) and not _RATIONAL.fullmatch(raw):
        raise ValueError(f'{what} must be an integer, "p/q" or a decimal, got {raw!r}')
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} is not a rational number: {raw!r}") from None


def store_from_obj(doc) -> Store:
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("env"), dict)
        and isinstance(doc.get("family"), dict)
        and all(isinstance(t, str) for t in doc["env"].values())
    ):
        raise ValueError(
            "store needs an 'env' object of type strings and a 'family' object"
        )
    env = Env.make({name: parse_type(t) for name, t in doc["env"].items()})
    family = {}
    for n_text, entries in doc["family"].items():
        n = int(n_text)
        if not isinstance(entries, list):
            raise ValueError(f"store family {n_text!r} must be a list of entries")
        probs = {}
        for i, entry in enumerate(entries):
            where = f"store family {n_text!r} entry {i}"
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("values"), dict)
                and "prob" in entry
            ):
                raise ValueError(f"{where}: needs a 'values' object and a 'prob'")
            m = Memory.make(env, n, entry["values"])
            prob = _exact_rational(entry["prob"], f"{where}: prob")
            probs[m] = probs.get(m, Fraction(0)) + prob
        family[n] = FinDist(probs)
    return Store(env, family)


def parse_store(text: str) -> Store:
    return store_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Helpers


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_ns(text: str) -> tuple[int, ...]:
    try:
        ns = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise ValueError(f"bad n list {text!r}; expected e.g. 1,2,3")
    if not ns or any(n < 1 for n in ns):
        raise ValueError(f"bad n list {text!r}; all entries must be >= 1")
    return ns


def _apply_binds(symbols: SymbolTable, binds) -> SymbolTable:
    for spec in binds:
        name, _, stub = spec.partition("=")
        if not name or stub not in STUB_NAMES:
            raise ValueError(
                f"bad --bind {spec!r}; expected sym=one of {', '.join(STUB_NAMES)}"
            )
        symbols = bind_stub(symbols, name, stub)
    return symbols


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    try:
        symbols, tree = parse_proof_with_decls(_read(args.proof))
        registry = load_registry(args.schemas) if args.schemas else None
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    try:
        triple = check_triple(tree, symbols, registry=registry)
    except ProofError as exc:
        print(f"proof error: {exc}", file=sys.stderr)
        return REJECTED
    print(
        "ok: {"
        + formula_to_text(triple.pre)
        + "} "
        + env_to_text(triple.env)
        + " |- "
        + program_to_text(triple.program)
        + " {"
        + formula_to_text(triple.post)
        + "}"
    )
    return OK


def cmd_run(args) -> int:
    try:
        ns = _parse_ns(args.n)
        symbols, program = parse_program_with_decls(_read(args.program))
        symbols = _apply_binds(symbols, args.bind)
        if args.input:
            store = parse_store(_read(args.input))
            common = [n for n in ns if n in store.tested_ns()]
            if common and tuple(common) != store.tested_ns():
                store = Store(store.env, {n: store.at(n) for n in common})
        else:
            env = parse_env(args.env) if args.env else None
            if env is None:
                raise ValueError("need --input STORE or --env ENV to run against")
            store = zero_store(env, ns)
        type_program(store.env, program, symbols)
        check_bit_budget(store.env, store.tested_ns(), args.max_bits)
        out = run_store(store, program, symbols)
    except (
        OSError,
        ParseError,
        TypeCheckError,
        UninterpretedSymbolError,
        BitBudgetError,
        ValueError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    if args.json:
        _emit(store_to_text(out), args.out)
        return OK
    lines = []
    for n in out.tested_ns():
        lines.append(f"n={n}")
        d = out.at(n)
        for m in d.support():
            cells = " ".join(f"{name}={m.get(name)}" for name in out.env.names())
            lines.append(f"  {cells}  {d.prob(m)}")
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def cmd_eval(args) -> int:
    try:
        formula = parse_formula(_read(args.formula))
        store = parse_store(_read(args.store))
        epsilon = _exact_rational(args.epsilon, "--epsilon")
        if epsilon < 0:
            raise ValueError(f"--epsilon must be >= 0, got {args.epsilon}")
        ns = _parse_ns(args.n) if args.n else store.tested_ns()
        missing = [n for n in ns if n not in store.tested_ns()]
        if missing:
            raise ValueError(f"store has no distribution at n={missing}")
        check_bit_budget(store.env, ns, args.max_bits)
    except (OSError, ParseError, ValueError, BitBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    verdicts = []
    try:
        for n in ns:
            single = Store(store.env, {n: store.at(n)})
            verdicts.append((n, sat_formula(single, formula, epsilon)))
    except (TypeCheckError, UninterpretedSymbolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    for n, verdict in verdicts:
        print(f"n={n}: {'true' if verdict else 'false'}")
    overall = all(v for _, v in verdicts)
    print(f"overall: {'true' if overall else 'false'}")
    return OK if overall else REJECTED


def cmd_properties(args) -> int:
    try:
        ns = _parse_ns(args.n_set)
        if args.cases < 1:
            raise ValueError(f"--cases must be >= 1, got {args.cases}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    results = []
    for suite in ALL_SUITES:
        results.append(suite(args.seed, args.cases, ns))
    if args.inject_failure:
        results.append(
            SuiteResult("injected", 1, failures=["deliberate failure for testing"])
        )
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  cases={r.cases:<5d} {status}")
        for message in r.failures:
            print(f"    {message}")
        all_ok = all_ok and r.ok
    print(f"overall: {'pass' if all_ok else 'FAIL'}")
    return OK if all_ok else REJECTED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslcheck",
        description="Check proofs and evaluate programs/formulas of the "
        "probabilistic separation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a proof script")
    p.add_argument("proof", help="proof JSON path")
    p.add_argument("--schemas", help="alternate schema registry JSON")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run a program on a store")
    p.add_argument("program", help="program source path")
    p.add_argument("--n", default="1,2,3", help="comma-separated n values")
    p.add_argument("--input", help="input store JSON (default: zeroed --env)")
    p.add_argument("--env", help="environment text for an all-zero input store")
    p.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="SYM=STUB",
        help=f"bind a declared symbol to a stub ({', '.join(STUB_NAMES)})",
    )
    p.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    p.add_argument("--json", action="store_true", help="emit the store as JSON")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="evaluate a formula on a store")
    p.add_argument("formula", help="formula source path")
    p.add_argument("store", help="store JSON path")
    p.add_argument("--n", help="restrict to these n values")
    p.add_argument("--epsilon", default="0", help="tolerance, e.g. 1/8")
    p.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("properties", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=60)
    p.add_argument("--n-set", default="1,2", dest="n_set")
    p.add_argument(
        "--inject-failure",
        action="store_true",
        help="add a deliberately failing suite (for exit-code tests)",
    )
    p.set_defaults(fn=cmd_properties)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
