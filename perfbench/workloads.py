"""Workload inputs and their known answers.

Each workload is a list of CLI calls (one "pass") built from a seed and
written into a scratch directory. Every call carries its known answer, taken
from how its input was built, never from cslcheck itself:

- check_exp: a script is accepted, or rejected at the node path where this
  module planted its one defect;
- run_otp: the output store equals a closed form computed here with Fraction;
- eval_star: the verdict is true for product stores and false for stores
  with a mirrored pair (s = not r) split across a separating conjunction;
- props: every property suite passes.

The sizes of a pass are fixed; the seed picks contents, defects and order,
so two seeds give different inputs of the same shape.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

WORKLOADS = ("check_exp", "run_otp", "eval_star", "props")

# What one unit of work_per_s is on each workload, with the metric's
# workload-specific name.
WORK_UNIT = {
    "check_exp": ("nodes_per_s", "proof nodes"),
    "run_otp": ("in_mem_per_s", "input memories"),
    "eval_star": ("in_mem_per_s", "input memories"),
    "props": ("cases_per_s", "property cases"),
}


@dataclass
class Op:
    """One CLI call and the known answer it must produce."""

    argv: list
    check: Callable  # (exit_code, stdout, stderr) -> error message or None
    work: object  # units of WORK_UNIT done, or a function of the call's stdout
    label: str

    def work_done(self, stdout: str) -> int:
        return self.work(stdout) if callable(self.work) else self.work


@dataclass
class Pass:
    """One pass of calls. In argv, "@name" is a file of `files` and "^path"
    a path in the checkout; build() resolves both after hashing."""

    ops: list
    files: dict = field(default_factory=dict)  # file name -> bytes written
    sizes: dict = field(default_factory=dict)
    digest: str = ""  # sha256 over files and argv, the same in every checkout


def build(workload: str, seed: int, root: Path, workdir: Path) -> Pass:
    rng = random.Random(f"{workload}:{seed}")
    p = _GENERATORS[workload](rng)
    h = hashlib.sha256()
    for name in sorted(p.files):
        h.update(name.encode() + b"\0" + p.files[name] + b"\0")
        (workdir / name).write_bytes(p.files[name])
    for op in p.ops:
        h.update(json.dumps(op.argv).encode() + b"\n")
        base = {"@": workdir, "^": root}
        op.argv = [str(base[a[0]] / a[1:]) if a[:1] in base else a for a in op.argv]
    p.digest = h.hexdigest()
    return p


# ---------------------------------------------------------------------------
# check_exp

# h of the exp_h{h} scripts in one pass. Parsing exp_h16 alone takes about
# 7 s, which would leave a 25 s run with three calls and no tail, so
# the spread stops at 6. Six copies of h=6 keep the 11th-slowest call (the
# tail) in that class whenever a run holds two passes or more. The three
# h=4 scripts sit in the middle of the 17 calls (seven faster, seven slower),
# so a pass's median call is an h=4 call even when the machine's speed
# shifts within the pass.
EXP_HS = (0, 1, 2, 3, 4, 4, 4, 5, 6, 6, 6, 6, 6, 6)
CHECK_DEFECTS = 4

_ERR_PATH = re.compile(r"^proof error: (\S+): ")


def check_accept(want_stdout: str):
    def check(code, out, err):
        if code != 0:
            return f"exit {code}, wanted 0 (accepted): {err.strip()[:200]}"
        if out != want_stdout:
            return f"printed {out[:120]!r}, wanted {want_stdout[:120]!r}"
        return None

    return check


def check_reject(want_path: str):
    def check(code, out, err):
        if code != 1:
            return f"exit {code}, wanted 1 (rejected at {want_path})"
        m = _ERR_PATH.match(err)
        if m is None:
            return f"no node path in {err.strip()[:200]!r}"
        if m.group(1) != want_path:
            return f"rejected at {m.group(1)}, defect planted at {want_path}"
        return None

    return check


def _nodes(node: dict, path: str = "root"):
    """Every proof node with its path, in the checker's pre-order."""
    yield path, node
    for i, child in enumerate(node.get("children", ())):
        yield from _nodes(child, f"{path}.children[{i}]")


def plant_defect(doc: dict, rng: random.Random) -> tuple[str, str]:
    """Break one node so that only that node's own check can see it.

    Every mutation touches data that no ancestor reads (a Weak node's
    certificates, a Seq node's mid formula) and is invalid by construction:
    an unknown step rule, a missing root step, a repeated step id, a premise
    that names no step, or a mid that no longer matches the children.
    Returns the node path and the kind of defect.
    """
    choices = []
    for path, node in _nodes(doc["root"]):
        if node["rule"] == "Weak":
            for which in ("pre_cert", "post_cert"):
                cert = node[which]
                choices += [(k, path, node, which) for k in ("rule", "root", "dup")]
                if any(s.get("premises") for s in cert["steps"]):
                    choices.append(("premise", path, node, which))
        elif node["rule"] == "Seq" and node["mid"] != node["pre"]:
            choices.append(("mid", path, node, None))
    kinds = sorted({c[0] for c in choices})
    kind = rng.choice(kinds)
    _, path, node, which = rng.choice([c for c in choices if c[0] == kind])
    if kind == "mid":
        node["mid"] = node["pre"]
        return path, kind
    steps = node[which]["steps"]
    if kind == "rule":
        rng.choice(steps)["rule"] = "NoSuchSchema"
    elif kind == "root":
        node[which]["root"] = "no_such_step"
    elif kind == "dup":
        steps.append(dict(rng.choice(steps)))
    else:
        step = rng.choice([s for s in steps if s.get("premises")])
        step["premises"][rng.randrange(len(step["premises"]))] = "no_such_step"
    return path, kind


def _count_nodes(node: dict) -> int:
    return 1 + sum(_count_nodes(c) for c in node.get("children", ()))


def build_check_exp(rng: random.Random) -> Pass:
    import build_corpus  # tools/ is on sys.path; it builds trees with cslcheck
    from cslcheck.syntax import proof_to_text

    trees = [
        ("otp", build_corpus.build_otp()),
        ("potp", build_corpus.build_potp()),
        ("xor", build_corpus.build_xor()),
    ] + [(f"exp_h{h}", build_corpus.build_exp(h)) for h in EXP_HS]
    defective = set(rng.sample(range(len(trees)), CHECK_DEFECTS))
    p = Pass([])
    kinds = []
    for i, (name, (decls, tree)) in enumerate(trees):
        doc = json.loads(proof_to_text(tree, decls))
        if i in defective:
            path, kind = plant_defect(doc, rng)
            kinds.append(f"{name}:{kind}@{path}")
            check = check_reject(path)
        else:
            r = doc["root"]
            check = check_accept(
                f"ok: {{{r['pre']}}} {r['env']} |- {r['program']} {{{r['post']}}}\n"
            )
        fname = f"{i:02d}_{name}.proof"
        p.files[fname] = (json.dumps(doc, indent=2) + "\n").encode()
        label = f"check {name}" + (" (defect)" if i in defective else "")
        p.ops.append(Op(["check", "@" + fname], check, _count_nodes(doc["root"]), label))
    rng.shuffle(p.ops)
    p.sizes = {
        "scripts": len(p.ops),
        "script_bytes": sum(len(b) for b in p.files.values()),
        "proof_nodes": sum(op.work for op in p.ops),
        "defects": sorted(kinds),
    }
    return p


# ---------------------------------------------------------------------------
# Store files, written here rather than by cslcheck's encoder


def _bits(v: int, width: int) -> str:
    return format(v, f"0{width}b") if width else ""


def _not(v: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in v)


def _xor(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def store_doc(env: dict, family: dict) -> dict:
    """env: name -> type text; family: n -> {value tuple (env order): prob}."""
    names = sorted(env)
    return {
        "env": {name: env[name] for name in names},
        "family": {
            str(n): [
                {"values": dict(zip(names, vals)), "prob": str(pr)}
                for vals, pr in sorted(dist.items())
            ]
            for n, dist in sorted(family.items())
        },
    }


def read_store(text: str) -> tuple[dict, dict]:
    """Parse a store JSON into (env, {n: {value tuple: Fraction}}).

    A point listed twice is an error, so a merge bug cannot hide.
    """
    doc = json.loads(text)
    env = doc["env"]
    names = sorted(env)
    family = {}
    for n_text, entries in doc["family"].items():
        dist = {}
        for e in entries:
            key = tuple(e["values"][name] for name in names)
            if key in dist:
                raise ValueError(f"point {key} listed twice at n={n_text}")
            dist[key] = Fraction(e["prob"])
        family[int(n_text)] = dist
    return env, family


def _random_weights(rng: random.Random, count: int) -> list[Fraction]:
    """A random split of 1 into `count` positive parts.

    The parts are multiples of 1/T for a T fixed by `count` alone, with a
    factor 3 so the weights are not all dyadic. Free denominators would make
    the cost of exact arithmetic, and so every timing, vary from seed to seed.
    """
    total = 6 * 2 ** (count - 1).bit_length()
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


# ---------------------------------------------------------------------------
# run_otp

OTP_ENV = {"c": "Str[n]", "k": "Str[n]", "m": "Str[n]"}
POTP_ENV = {"c": "Str[n+1]", "k": "Str[n]", "m": "Str[n+1]"}


def _widths(stretch: bool, n: int) -> tuple[int, int, int]:
    """(c, k, m) bit widths: otp is 3 x Str[n]; potp pads g(k) to n+1 bits."""
    return (n + 1, n, n + 1) if stretch else (n, n, n)


def otp_input(rng: random.Random, stretch: bool, n: int, kind: str, support: int):
    """An input distribution over (c, k, m) at n.

    uniform: every memory equally likely. message: a random message
    distribution with c and k filled with random junk (which the program
    overwrites), on `support` distinct memories.
    """
    wc, wk, wm = _widths(stretch, n)
    if kind == "uniform":
        mems = [
            (_bits(c, wc), _bits(k, wk), _bits(m, wm))
            for c, k, m in product(range(2**wc), range(2**wk), range(2**wm))
        ]
        return {mem: Fraction(1, len(mems)) for mem in mems}
    junk = 2 ** (wc + wk)
    if support > junk * 2**wm:
        raise ValueError(f"{support} memories do not fit at n={n}")
    count = min(2**wm, max(support // 4, -(-support // junk)))
    messages = rng.sample(range(2**wm), count)
    mems = set()
    while len(mems) < support:
        mems.add(
            (_bits(rng.randrange(2**wc), wc), _bits(rng.randrange(2**wk), wk),
             _bits(rng.choice(messages), wm))
        )
    mems = sorted(mems)
    return dict(zip(mems, _random_weights(rng, len(mems))))


def otp_output(dist: dict, stretch: bool, n: int) -> dict:
    """Closed form of k := rnd(); c := xor(m, g(k)) on (c, k, m) memories.

    The program forgets c and k, so the output is P(m) * 2^-n on every
    (m xor g(k'), k', m), where g is the identity for otp and zero-extension
    by one bit for potp.
    """
    marginal: dict = {}
    for (_, _, m), pr in dist.items():
        marginal[m] = marginal.get(m, Fraction(0)) + pr
    out = {}
    for m, pr in marginal.items():
        for kv in range(2**n):
            k = _bits(kv, n)
            pad = k + "0" if stretch else k
            out[(_xor(m, pad), k, m)] = pr / 2**n
    return out


def check_store(want_env: dict, want: dict):
    def check(code, out, err):
        if code != 0:
            return f"exit {code}, wanted 0: {err.strip()[:200]}"
        try:
            env, family = read_store(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output store: {exc}"
        if env != want_env:
            return f"output env {env}, wanted {want_env}"
        if set(family) != set(want):
            return f"output at n={sorted(family)}, wanted n={sorted(want)}"
        for n, dist in want.items():
            if family[n] != dist:
                bad = sorted(set(dist.items()) ^ set(family[n].items()))[:2]
                return f"n={n}: output differs from the closed form at {bad}"
        return None

    return check


# (program, stretch, ns, store kind, memories per n for message stores, copies)
# Latency classes, slowest first: one 4096-memory uniform run at n=4; five
# message runs at n=4 that hold the tail (the 11th-slowest call of a run);
# five multi-n potp runs that hold the median, with six calls on either side;
# six calls of a few ms.
RUN_SHAPES = (
    ("otp", False, (4,), "uniform", 0, 1),
    ("otp", False, (4,), "message", 128, 5),
    ("potp", True, (1, 2, 3, 4), "message", 12, 5),
    ("otp", False, (1, 2), "uniform", 0, 3),
    ("potp", True, (1,), "uniform", 0, 3),
)


def build_run_otp(rng: random.Random) -> Pass:
    p = Pass([])
    memories = 0
    for prog, stretch, ns, kind, support, copies in RUN_SHAPES:
        for _ in range(copies):
            i = len(p.ops)
            dists = {n: otp_input(rng, stretch, n, kind, support) for n in ns}
            env = POTP_ENV if stretch else OTP_ENV
            fname = f"{i:02d}_{prog}_{kind}.store"
            p.files[fname] = json.dumps(store_doc(env, dists)).encode()
            want = {n: otp_output(d, stretch, n) for n, d in dists.items()}
            argv = ["run", f"^corpus/{prog}.prog", "--input", "@" + fname,
                    "--n", ",".join(map(str, ns)), "--json"]
            if stretch:
                argv += ["--bind", "g=zeroextend"]
            work = sum(len(d) for d in dists.values())
            memories += work
            label = f"run {prog} {kind} n={','.join(map(str, ns))} ({work} memories)"
            p.ops.append(Op(argv, check_store(env, want), work, label))
    rng.shuffle(p.ops)
    p.sizes = {"calls": len(p.ops), "store_memories": memories,
               "store_bytes": sum(len(b) for b in p.files.values())}
    return p


# ---------------------------------------------------------------------------
# eval_star

# A store is a product of independent groups, each with a formula that holds
# on its marginal by construction:
#   U  one uniform variable               (U(a)){a}
#   X  uniform a, independent random b    ((U(a)){a} /\ (U(xor(a, b))){a, b}){a, b}
#   M  uniform a, b = not a               ((U(a)){a} /\ (a == b){a, b}){a, b}
#   R  one variable with random weights   (T){a}
# The formula is the right-nested * of the group formulas, so it holds on
# every product store. A correlated store replaces two U groups by one
# mirrored pair: both marginals stay uniform, but some * splits the pair,
# so the formula is false.
GROUP_VARS = {"U": 1, "X": 2, "M": 2, "R": 1}

# (n, groups, correlated, copies): at most 12 bits, so at most 4096 memories.
# Four 4096-memory product stores hold the tail; the five UUXR calls hold
# the median, with seven calls on either side.
EVAL_SHAPES = (
    (4, "UUR", False, 2),
    (3, "UXU", False, 2),
    (4, "URU", True, 3),
    (2, "UUXR", True, 5),
    (2, "UMUR", False, 2),
    (1, "UMXR", False, 3),
    (3, "RUU", True, 2),
)


def _env_text(names, n_type: str) -> str:
    return "{" + ", ".join(f"{v}: {n_type}" for v in sorted(names)) + "}"


def group_formula(kind: str, names: list, ty: str) -> str:
    a = names[0]
    ea = _env_text([a], ty)
    if kind == "U":
        return f"(U({a})){ea}"
    if kind == "R":
        return f"(T){ea}"
    b = names[1]
    eab = _env_text(names, ty)
    if kind == "X":
        return f"((U({a})){ea} /\\ (U(xor({a}, {b}))){eab}){eab}"
    return f"((U({a})){ea} /\\ ({a} == {b}){eab}){eab}"


def star_formula(groups: list, ty: str) -> str:
    """Right-nested separating conjunction of the group formulas."""
    (kind, names), rest = groups[0], groups[1:]
    if not rest:
        return group_formula(kind, names, ty)
    every = [v for _, vs in groups for v in vs]
    return f"({group_formula(kind, names, ty)} * {star_formula(rest, ty)}){_env_text(every, ty)}"


def group_dist(rng: random.Random, kind: str, n: int) -> dict:
    """Joint distribution of one group's values, as {value tuple: prob}."""
    values = [_bits(v, n) for v in range(2**n)]
    uniform = Fraction(1, len(values))
    if kind == "U":
        return {(v,): uniform for v in values}
    if kind == "R":
        return {(v,): w for v, w in zip(values, _random_weights(rng, len(values)))}
    if kind == "M":
        return {(v, _not(v)): uniform for v in values}
    weights = _random_weights(rng, len(values))
    return {(a, b): uniform * wb for a in values for b, wb in zip(values, weights)}


def eval_case(rng: random.Random, n: int, kinds: str, correlated: bool):
    """Variables, formula text and store distribution of one eval call."""
    names = iter("abcdefgh")
    groups = [(k, [next(names) for _ in range(GROUP_VARS[k])]) for k in kinds]
    factors = [(vs, group_dist(rng, k, n)) for k, vs in groups]
    if correlated:
        r, s = rng.sample([i for i, (k, _) in enumerate(groups) if k == "U"], 2)
        pair_vars = factors[r][0] + factors[s][0]
        pair = {(v, _not(v)): p for (v,), p in factors[r][1].items()}
        factors = [f for i, f in enumerate(factors) if i not in (r, s)]
        factors.append((pair_vars, pair))
    joint = {(): Fraction(1)}
    order: list = []
    for vs, dist in factors:
        order += vs
        joint = {a + b: pa * pb for a, pa in joint.items() for b, pb in dist.items()}
    perm = [order.index(v) for v in sorted(order)]
    dist = {tuple(key[i] for i in perm): pr for key, pr in joint.items()}
    return groups, star_formula(groups, "Str[n]"), dist


def check_verdict(ns, want: bool):
    word = "true" if want else "false"
    want_out = "".join(f"n={n}: {word}\n" for n in ns) + f"overall: {word}\n"

    def check(code, out, err):
        if code != (0 if want else 1):
            return f"exit {code}, wanted {0 if want else 1} ({word}): {err.strip()[:200]}"
        if out != want_out:
            return f"printed {out!r}, wanted {want_out!r}"
        return None

    return check


def build_eval_star(rng: random.Random) -> Pass:
    p = Pass([])
    memories = 0
    for n, kinds, correlated, copies in EVAL_SHAPES:
        for _ in range(copies):
            i = len(p.ops)
            groups, formula, dist = eval_case(rng, n, kinds, correlated)
            env = {v: "Str[n]" for _, vs in groups for v in vs}
            ffile, sfile = f"{i:02d}.formula", f"{i:02d}.store"
            p.files[ffile] = (formula + "\n").encode()
            p.files[sfile] = json.dumps(store_doc(env, {n: dist})).encode()
            memories += len(dist)
            label = f"eval {kinds} n={n} {'correlated' if correlated else 'product'} ({len(dist)} memories)"
            p.ops.append(
                Op(["eval", "@" + ffile, "@" + sfile], check_verdict([n], not correlated),
                   len(dist), label)
            )
    rng.shuffle(p.ops)
    p.sizes = {"calls": len(p.ops), "store_memories": memories,
               "store_bytes": sum(len(b) for b in p.files.values())}
    return p


# ---------------------------------------------------------------------------
# props

PROPS_CASES = 50
# Property seeds of one pass. Suite cost varies by up to 2x from one
# property seed to the next and a run holds about ten calls, so the seeds
# are fixed and the benchmark seed only sets their order.
PROPS_SEEDS = (1, 2)
_SUITE_LINE = re.compile(r"^(\S+)\s+cases=(\d+)\s+(\S+)$")


def check_props(code, out, err):
    lines = out.splitlines()
    if code != 0 or not lines or lines[-1] != "overall: pass":
        return f"exit {code}, last line {lines[-1:]!r}, wanted 0 and overall: pass"
    suites = [_SUITE_LINE.match(line) for line in lines[:-1]]
    if not suites or any(m is None for m in suites):
        return f"unexpected properties output {out[:200]!r}"
    for m in suites:
        if m.group(3) != "pass" or int(m.group(2)) != PROPS_CASES:
            return f"suite {m.group(1)}: cases={m.group(2)} {m.group(3)}"
    return None


def props_work(out: str) -> int:
    """cases x suites, counted from the suite lines the call printed."""
    return PROPS_CASES * sum(1 for line in out.splitlines() if _SUITE_LINE.match(line))


def build_props(rng: random.Random) -> Pass:
    seeds = rng.sample(PROPS_SEEDS, len(PROPS_SEEDS))
    ops = [
        Op(["properties", "--cases", str(PROPS_CASES), "--seed", str(s)], check_props,
           props_work, f"properties --seed {s}")
        for s in seeds
    ]
    return Pass(ops, sizes={"calls": len(ops), "seeds": seeds, "cases": PROPS_CASES})


_GENERATORS = {
    "check_exp": build_check_exp,
    "run_otp": build_run_otp,
    "eval_star": build_eval_star,
    "props": build_props,
}
