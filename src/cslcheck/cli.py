"""Command-line driver: proof checking, program execution, formula
evaluation, and the property-suite runner.

Exit codes follow one contract everywhere: 0 success / property holds,
1 checked-and-rejected (proof error, false formula, failing suite),
2 usage, parse, or configuration errors, and input that nests or chains
too deeply to process, 3 an internal error (an exception that is not an
input error: a bug in cslcheck, never a verdict). The proof reader knows
no rule names: a node's unknown rule or missing witness is a proof error,
which the checker reports at the node's path. The subcommands raise on
bad input and `main` alone turns that into exit 2, and any other exception
into exit 3 with one `internal error:` line.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from typing import Optional

from ._props import ALL_SUITES
from .dist import _N_KEY, Store, exact_rational, parse_store, store_to_text, zero_store
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
    ParseError,
    SymbolTable,
    env_to_text,
    formula_to_text,
    parse_env,
    parse_formula_with_decls,
    parse_proof_with_decls,
    parse_program_with_decls,
    program_to_text,
)
from .types import TypeCheckError, type_program, wf_formula

OK, REJECTED, USAGE, INTERNAL = 0, 1, 2, 3

# What a bad file, flag or input raises; main reports each as one error line.
INPUT_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    ParseError,
    TypeCheckError,
    UninterpretedSymbolError,
    BitBudgetError,
)


# ---------------------------------------------------------------------------
# Helpers


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_ns(text: str) -> tuple[int, ...]:
    """The n of a comma-separated list, each written as a store family key is."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts or not all(_N_KEY.fullmatch(part) for part in parts):
        raise ValueError(f"bad n list {text!r}; expected e.g. 1,2,3")
    return tuple(sorted({int(part) for part in parts}))


def _select_ns(store: Store, n_text: Optional[str]) -> Store:
    """The store at the n of --n, or the whole store when --n is absent."""
    if n_text is None:
        return store
    ns = _parse_ns(n_text)
    missing = [n for n in ns if n not in store.family]
    if missing:
        raise ValueError(f"store has no distribution at n={missing}")
    return Store.from_dists(store.env, {n: store.at(n) for n in ns})


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
    symbols, tree = parse_proof_with_decls(_read(args.proof))
    registry = load_registry(args.schemas)
    try:
        triple = check_triple(tree, symbols, registry)
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
    symbols, program = parse_program_with_decls(_read(args.program))
    symbols = _apply_binds(symbols, args.bind)
    if (args.input is None) == (args.env is None):
        raise ValueError("run takes exactly one of --input STORE and --env ENV")
    if args.input is not None:
        store = _select_ns(parse_store(_read(args.input)), args.n)
    else:
        ns = _parse_ns("1,2,3" if args.n is None else args.n)
        store = zero_store(parse_env(args.env), ns)
    type_program(store.env, program, symbols)
    check_bit_budget(store.env, store.tested_ns(), args.max_bits)
    out = run_store(store, program, symbols)
    if args.json:
        _emit(store_to_text(out), args.out)
        return OK
    cells = " ".join(f"{name.replace('%', '%%')}=%s" for name in out.env.names())
    lines = []
    for n in out.tested_ns():
        lines.append(f"n={n}")
        lines += [f"  {cells % m}  {pr}" for m, pr in out.at(n).prob_texts()]
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def cmd_eval(args) -> int:
    symbols, formula = parse_formula_with_decls(_read(args.formula))
    symbols = _apply_binds(symbols, args.bind)
    wf_formula(formula, symbols)
    store = _select_ns(parse_store(_read(args.store)), args.n)
    epsilon = exact_rational(args.epsilon, "--epsilon")
    if epsilon < 0:
        raise ValueError(f"--epsilon must be >= 0, got {args.epsilon}")
    check_bit_budget(store.env, store.tested_ns(), args.max_bits)
    verdicts = [
        (n, sat_formula(Store.from_dists(store.env, {n: d}), formula, epsilon, symbols))
        for n, d in sorted(store.family.items())
    ]
    for n, verdict in verdicts:
        print(f"n={n}: {'true' if verdict else 'false'}")
    overall = all(v for _, v in verdicts)
    print(f"overall: {'true' if overall else 'false'}")
    return OK if overall else REJECTED


def cmd_properties(args) -> int:
    if args.cases < 1:
        raise ValueError(f"--cases must be >= 1, got {args.cases}")
    results = [suite(args.seed, args.cases, (1, 2)) for suite in ALL_SUITES]
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


def _add_bind(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="SYM=STUB",
        help=f"bind a declared symbol to a stub ({', '.join(STUB_NAMES)})",
    )


# built once: parse_args leaves the parser as it was, and main looks up each
# command's function by name when it runs
@functools.cache
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

    p = sub.add_parser("run", help="run a program on a store")
    p.add_argument("program", help="program source path")
    p.add_argument(
        "--n",
        help="comma-separated n values (default: every n of --input; "
        "1,2,3 with --env)",
    )
    p.add_argument("--input", help="input store JSON (or give --env)")
    p.add_argument("--env", help="environment text for an all-zero input store")
    _add_bind(p)
    p.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    p.add_argument("--json", action="store_true", help="emit the store as JSON")
    p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("eval", help="evaluate a formula on a store")
    p.add_argument("formula", help="formula source path")
    p.add_argument("store", help="store JSON path")
    p.add_argument(
        "--n", help="comma-separated n values (default: every n of the store)"
    )
    p.add_argument("--epsilon", default="0", help="tolerance, e.g. 1/8")
    _add_bind(p)
    p.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)

    p = sub.add_parser("properties", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=60)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except RecursionError:
        # passes over And and Star chains, and json.loads, recurse per level
        print("error: the input nests or chains too deeply", file=sys.stderr)
        return USAGE
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        where = traceback.extract_tb(exc.__traceback__)[-1]
        place = f"{os.path.basename(where.filename)}:{where.lineno}"
        print(f"internal error: {exc!r} at {place}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
