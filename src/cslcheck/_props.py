"""Property suites behind the `cslcheck properties` command.

Each suite draws random cases from _gen, checks an exact law, and returns a
SuiteResult whose failures list is empty on success. The same suites back the
package's acceptance tests, so they stay deterministic for a fixed seed.
Distributions the suites build themselves come from integer weights through
FinDist.from_ints, since they are valid by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import _gen
from .dist import (
    FinDist,
    Store,
    all_memories,
    all_values,
    memory,
    project,
    tensor,
    uniform_memories,
    uniform_store,
    zero_store,
)
from .hoare import FUZZ_CASES, fuzz_rule_soundness
from .logic import (
    SCHEMA_TEMPLATES,
    entailment_holds_on,
    match_axiom,
    sat_formula,
    search_annotation,
)
from .semantics import bind_stub, run, run_kozen, run_store
from .syntax import (
    BOOL,
    EMPTY_ENV,
    Env,
    Formula,
    Star,
    Top,
    env_to_text,
    expr_to_text,
    parse_decls,
    parse_formula,
)
from .types import env_join, mv


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _note(result: SuiteResult, message: str, cap: int = 5) -> None:
    if len(result.failures) < cap:
        result.failures.append(message)
    else:
        result.failures.append("...")
        raise _SuiteAbort


class _SuiteAbort(Exception):
    pass


def _suite(fn):
    def wrapper(seed: int, cases: int, ns) -> SuiteResult:
        rng = random.Random(seed)
        result = SuiteResult(fn.__name__.removeprefix("suite_"), cases)
        try:
            fn(rng, cases, tuple(ns), result)
        except _SuiteAbort:
            pass
        return result

    return wrapper


# ---------------------------------------------------------------------------


@_suite
def suite_monad(rng, cases, ns, result):
    """Left/right identity and associativity for bind on memory space."""
    for _ in range(cases):
        env = _gen.gen_env(rng)
        n = rng.choice(ns)
        d = _gen.gen_dist(rng, env, n)
        p1 = _gen.gen_program(rng, env, size=2)
        p2 = _gen.gen_program(rng, env, size=2)
        k1 = lambda m: run(env, p1, n, FinDist.dirac(m))
        k2 = lambda m: run(env, p2, n, FinDist.dirac(m))
        m0 = rng.choice(list(d.support()))
        if FinDist.dirac(m0).bind(k1) != k1(m0):
            _note(result, f"left identity fails at {m0}")
        if d.bind(FinDist.dirac) != d:
            _note(result, "right identity fails")
        if d.bind(k1).bind(k2) != d.bind(lambda m: k1(m).bind(k2)):
            _note(result, "associativity fails")


@_suite
def suite_kozen(rng, cases, ns, result):
    """The per-sample conditional semantics agrees with the split-and-merge
    one on every generated program, exactly."""
    for i in range(cases):
        env = _gen.gen_env(rng)
        prog = _gen.gen_program(rng, env)
        n = rng.choice(ns)
        d = _gen.gen_dist(rng, env, n)
        if run(env, prog, n, d) != run_kozen(env, prog, n, d):
            _note(result, f"case {i}: semantics disagree")


@_suite
def suite_pkrm(rng, cases, ns, result):
    """Tensor monoid laws and the projection preorder on stores."""
    for _ in range(cases):
        names = _gen.gen_names(rng, 3)
        envs = [_gen.gen_env(rng, names=[nm]) for nm in names]
        stores = [_gen.gen_store(rng, e, ns) for e in envs]
        a, b, c = stores
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        if left != right:
            _note(result, "tensor associativity fails")
        unit = zero_store(EMPTY_ENV, ns)
        if tensor(a, unit) != a or tensor(unit, a) != a:
            _note(result, "tensor identity fails")
        whole = left
        # preorder: marginals of marginals are marginals
        sub = env_join(envs[0], envs[1])
        if project(project(whole, sub), envs[0]) != project(whole, envs[0]):
            _note(result, "projection transitivity fails")
        if project(whole, whole.env) != whole:
            _note(result, "projection reflexivity fails")
        # tensor respects the preorder componentwise
        t1 = _gen.gen_store(rng, env_join(envs[0], envs[1]), ns)
        t2 = _gen.gen_store(rng, envs[2], ns)
        if project(tensor(t1, t2), env_join(envs[0], envs[2])) != tensor(
            project(t1, envs[0]), project(t2, envs[2])
        ):
            _note(result, "tensor compatibility with projection fails")


@_suite
def suite_mv(rng, cases, ns, result):
    """Running a program never moves the marginal of untouched variables."""
    for _ in range(cases):
        env = _gen.gen_env(rng, 2, 3)
        prog = _gen.gen_program(rng, env)
        rest = env.restrict(set(env.names()) - mv(prog))
        s = _gen.gen_store(rng, env, ns)
        out = run_store(s, prog)
        if project(out, rest) != project(s, rest):
            _note(result, "marginal of unmodified variables changed")


@_suite
def suite_locality(rng, cases, ns, result):
    """A program over a sub-environment commutes with projection to it."""
    for _ in range(cases):
        env = _gen.gen_env(rng, 2, 3)
        sub_names = rng.sample(env.names(), rng.randint(1, len(env)))
        sub = env.restrict(sub_names)
        prog = _gen.gen_program(rng, sub)
        s = _gen.gen_store(rng, env, ns)
        if project(run_store(s, prog), sub) != run_store(project(s, sub), prog):
            _note(result, "projection does not commute with execution")


@_suite
def suite_frame(rng, cases, ns, result):
    """Execution on one independent component leaves the product shape."""
    for _ in range(cases):
        xi, theta = _gen._disjoint_envs(rng, rng.randint(1, 2), rng.randint(1, 2))
        prog = _gen.gen_program(rng, xi)
        left = _gen.gen_store(rng, xi, ns)
        right = _gen.gen_store(rng, theta, ns)
        joint = tensor(left, right)
        if run_store(joint, prog) != tensor(run_store(left, prog), right):
            _note(result, "independence is not preserved by a local program")


@_suite
def suite_unit(rng, cases, ns, result):
    """The empty-environment store is the unit of tensor, and every store
    projects onto it."""
    for _ in range(cases):
        env = _gen.gen_env(rng)
        s = _gen.gen_store(rng, env, ns)
        unit = zero_store(EMPTY_ENV, ns)
        if tensor(unit, s) != s:
            _note(result, "unit tensor changed the store")
        if project(s, EMPTY_ENV) != unit:
            _note(result, "projection to the empty environment is not the unit")


@_suite
def suite_linearity(rng, cases, ns, result):
    """Execution is linear in the input sub-distribution."""
    for _ in range(cases):
        env = _gen.gen_env(rng)
        prog = _gen.gen_program(rng, env)
        n = rng.choice(ns)
        d1 = _gen.gen_dist(rng, env, n).scale(Fraction(1, 2))
        d2 = _gen.gen_dist(rng, env, n).scale(Fraction(1, 3))
        if run(env, prog, n, d1.add(d2)) != run(env, prog, n, d1).add(
            run(env, prog, n, d2)
        ):
            _note(result, "additivity fails")
        q = Fraction(rng.randint(1, 3), 4)
        if run(env, prog, n, d1.scale(q)) != run(env, prog, n, d1).scale(q):
            _note(result, "homogeneity fails")


@_suite
def suite_axioms(rng, cases, ns, result):
    """Semantic validity of the axiom schemas on random and on crafted
    stores, all at epsilon 0."""
    # one share of the cases per template, one for the pseudorandom step
    per_schema = max(1, cases // (len(SCHEMA_TEMPLATES) + 1))
    for name, (lhs_tpl, rhs_tpl, side) in SCHEMA_TEMPLATES.items():
        if side is not None:  # Ax_SPL and Ax_MRG are concrete, checked below
            continue
        for _ in range(per_schema):
            env = _gen.gen_env(rng)
            t = rng.choice([tt for _, tt in env.items()])
            det = name == "W2"
            exprs = {
                k: expr_to_text(_gen.gen_expr(rng, env, t, det=det, depth=1))
                for k in "egh"
            }
            lhs, rhs = (
                parse_formula(tpl.format(env=env_to_text(env), **exprs))
                for tpl in (lhs_tpl, rhs_tpl)
            )
            match_axiom(name, lhs, rhs)
            for s in _gen.gen_stores(rng, env, ns, 2):
                if not entailment_holds_on(s, lhs, rhs):
                    _note(result, f"{name} fails on a store")
    # split: uniform source, derived head/tail;
    # merge: independent uniform parts, derived concatenation
    concrete = (
        ("Ax_SPL", "split", lambda v: [{"r": v, "b": v[0], "s": v[1:]}]),
        ("Ax_MRG", "merge", lambda v: [{"r": v, "b": b, "s": v + b} for b in "01"]),
    )
    for name, word, points in concrete:
        lhs, rhs = map(parse_formula, SCHEMA_TEMPLATES[name][:2])
        env = lhs.annotation
        family = {}
        for nn in ns:
            mems = [
                memory(env, nn, values)
                for v in all_values(env.lookup("r"), nn)
                for values in points(v)
            ]
            family[nn] = FinDist.from_ints(dict.fromkeys(mems, 1), 2 ** (nn + 1))
        s = Store(env, family)
        if not (sat_formula(s, lhs) and sat_formula(s, rhs)):
            _note(result, f"{word} axiom fails on the derived uniform store")
        for rnd_store in _gen.gen_stores(rng, env, ns, 3):
            if not entailment_holds_on(rnd_store, lhs, rhs):
                _note(result, f"{word} axiom fails on a random store")
    # pseudorandom-step axiom under length-preserving bijections
    decls = parse_decls("decl g : Str[n] -> Str[n] det;")
    lhs = parse_formula("(U(x)){x: Str[n]}")
    rhs = parse_formula("(U(g(x))){x: Str[n]}", decls)
    env = lhs.annotation
    for stub in ("identity", "bitreverse"):
        syms = bind_stub(decls, "g", stub)
        stores = [uniform_store(env, ns)] + _gen.gen_stores(rng, env, ns, 3)
        for s in stores:
            if not entailment_holds_on(s, lhs, rhs, symbols=syms):
                _note(result, f"uniformity is not preserved by the {stub} stub")


@_suite
def suite_fuzz(rng, cases, ns, result):
    per_rule = max(1, cases // len(FUZZ_CASES))
    for rule in FUZZ_CASES:
        report = fuzz_rule_soundness(rule, per_rule, rng.randrange(2**30), ns)
        for v in report.violations:
            note = v["error"] if "error" in v else f"{v['program']} breaks {v['post']}"
            _note(result, f"{rule}: {note}")


@_suite
def suite_bi(rng, cases, ns, result):
    """Annotated satisfaction implies plain satisfaction; plain satisfaction
    always has an annotated witness."""
    for _ in range(cases):
        env = _gen.gen_env(rng, 1, 2)
        f = _gen.gen_formula(rng, env)
        s = project(_gen.gen_store(rng, env, ns), f.annotation)
        witness = search_annotation(s, f.body)
        if witness is None and sat_formula(s, f):
            _note(result, "annotated satisfaction without a plain witness")
        if witness is not None and not sat_formula(s, witness):
            _note(result, "the annotation found for a plainly-true formula fails")


@_suite
def suite_split_merge(rng, cases, ns, result):
    """A two-variable boolean store is uniform exactly when both marginals
    are uniform and the joint is their product."""
    env = Env.make({"x": BOOL, "y": BOOL})
    ex, ey = env.restrict(("x",)), env.restrict(("y",))
    mems = all_memories(env, 1)

    def verdicts(d: FinDist):
        s = Store(env, {1: d})
        joint_uniform = d == uniform_memories(env, 1)
        mx = project(s, ex), project(s, ey)
        marg_uniform = all(
            p.at(1) == uniform_memories(p.env, 1) for p in mx
        )
        product = s == tensor(*mx)
        return joint_uniform, marg_uniform and product

    for den in range(1, 9):
        for w1 in range(den + 1):
            for w2 in range(den + 1 - w1):
                for w3 in range(den + 1 - w1 - w2):
                    weights = (w1, w2, w3, den - w1 - w2 - w3)
                    d = FinDist.from_ints(
                        {m: w for m, w in zip(mems, weights) if w}, den
                    )
                    a, b = verdicts(d)
                    if a != b:
                        _note(
                            result,
                            f"split/merge mismatch at weights {weights}/{den}",
                        )
    for _ in range(cases):
        a, b = verdicts(_gen.gen_dist(rng, env, 1))
        if a != b:
            _note(result, "split/merge mismatch on a random store")


def product_witness(s: Store, total: int) -> bool:
    """Whether s, at one n over two booleans, is the product of marginals
    with probabilities in multiples of 1/total: an exhaustive search over
    the (total+1)^2 pairs of marginal weights (a, total - a) and
    (c, total - c), each compared with the four cells of s in integers."""
    (n,) = s.tested_ns()
    weights, den = s.at(n).weights()
    cells = [weights.get(m, 0) * total * total for m in all_memories(s.env, n)]
    return any(
        cells == [u * v * den for u in (a, total - a) for v in (c, total - c)]
        for a in range(total + 1)
        for c in range(total + 1)
    )


@_suite
def suite_independence(rng, cases, ns, result):
    """The product criterion agrees with exhaustive witness search."""
    env = Env.make({"x": BOOL, "y": BOOL})
    ex, ey = env.restrict(("x",)), env.restrict(("y",))
    f = Formula(Star(Formula(Top(), ex), Formula(Top(), ey)), env)
    for _ in range(cases):
        n = rng.choice(ns)
        weights = [rng.randint(0, 6) for _ in range(4)]
        total = sum(weights)
        if total == 0:
            continue
        points = zip(all_memories(env, n), weights)
        s = Store(env, {n: FinDist.from_ints({m: w for m, w in points if w}, total)})
        if sat_formula(s, f) != product_witness(s, total):
            _note(result, f"independence criterion disagrees at weights {weights}")


ALL_SUITES = (
    suite_monad,
    suite_kozen,
    suite_pkrm,
    suite_mv,
    suite_locality,
    suite_frame,
    suite_unit,
    suite_linearity,
    suite_axioms,
    suite_fuzz,
    suite_bi,
    suite_split_merge,
    suite_independence,
)
