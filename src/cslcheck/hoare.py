"""The triple checker, semantic spot-validation, and rule soundness fuzzing.

check_triple walks a proof tree top-down and checks each node against the
shape of its named rule; _RULE_CHECKS is the only list of proof rules, with
each rule's subproof count and check, and FUZZ_CASES of the rules the
fuzzer draws. Failures carry the path of the
shallowest failing node (root, root.children[1], ...) so scripts can point
at the offending subproof.

Each rule's post or premises are built once: scoped_post (SRAssn/SDAssn),
rcond_premises (RCond), composite_premise (Frame/Const). check_triple holds
nodes to them, and fuzz_rule_soundness draws each instance's post or
premises through them, so the fuzzer tests the rules the checker enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from . import _gen
from .dist import Store, ZeroMassError, condition, project
from .logic import DEFAULT_REGISTRY, CertError, check_hilbert, sat_formula
from .semantics import DEFAULT_MAX_BITS, check_bit_budget, run_store
from .syntax import (
    Assign,
    Atom,
    ATOM_EQ,
    ATOM_ESPL,
    And,
    Env,
    Formula,
    HoareTriple,
    If,
    Lit,
    NO_SYMBOLS,
    ProofTree,
    Skip,
    Star,
    SymbolTable,
    Top,
    Var,
    formula_to_text,
    fv,
    program_to_text,
    seq,
)
from .types import (
    TypeCheckError,
    classify_exact,
    env_join,
    is_det_expr,
    mv,
    type_expr,
    type_program,
    wf_formula_once,
)

ZERO = Fraction(0)


class ProofError(Exception):
    """A proof node fails; the message starts with the node's path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def check_triple(
    tree: ProofTree,
    symbols: SymbolTable = NO_SYMBOLS,
    registry: frozenset = DEFAULT_REGISTRY,
) -> HoareTriple:
    """Check a proof tree; returns the root conclusion it establishes.

    Each formula object of the tree and its certificates is checked for
    well-formedness once (see wf_formula_once), where it first occurs. A
    program is typed only where the environment changes: the root's, and a
    Frame or Const subproof's on its smaller environment. Every other node
    runs a part of its parent's program under its parent's environment,
    which its parent's rule check has compared.
    """
    _check_node(tree, "root", symbols, registry, {}, None)
    return tree.conclusion


def _check_node(
    node: ProofTree, path: str, symbols, registry, checked, parent_env
) -> None:
    def fail(message: str):
        raise ProofError(path, message)

    t = node.conclusion
    if node.rule not in _RULE_CHECKS:
        fail(f"unknown rule {node.rule!r}")
    subproofs, checker = _RULE_CHECKS[node.rule]
    try:
        if t.env != parent_env:
            type_program(t.env, t.program, symbols)
        wf_formula_once(t.pre, symbols, checked)
        wf_formula_once(t.post, symbols, checked)
    except TypeCheckError as exc:
        fail(str(exc))
    if t.pre.annotation != t.env:
        fail("precondition annotation differs from the triple environment")
    if t.post.annotation != t.env:
        fail("postcondition annotation differs from the triple environment")

    if len(node.children) != subproofs:
        fail(f"{node.rule} takes {subproofs} subproof(s), got {len(node.children)}")
    checker(node, t, fail, symbols, registry, checked)
    for i, child in enumerate(node.children):
        _check_node(child, f"{path}.children[{i}]", symbols, registry, checked, t.env)


def _check_skip(node, t, fail, symbols, registry, checked):
    if not isinstance(t.program, Skip):
        fail("Skip applies to the empty program")
    if t.pre != t.post:
        fail("Skip keeps the assertion unchanged")


def _check_seq(node, t, fail, symbols, registry, checked):
    if node.mid is None:
        fail("Seq needs a mid formula")
    first, second = (child.conclusion for child in node.children)
    if first != HoareTriple(t.pre, t.env, first.program, node.mid):
        fail("the first subproof must run the first command from pre to mid")
    if second != HoareTriple(node.mid, t.env, second.program, t.post):
        fail("the second subproof must run the second command from mid to post")
    if seq(first.program, second.program) != t.program:
        fail("the subproofs' programs must join to the program")


def _assign_of(t, fail) -> Assign:
    if not isinstance(t.program, Assign):
        fail("this rule applies to a single assignment")
    return t.program


def _check_plain_assign(node, t, fail, symbols, registry, checked, atom_kind):
    stmt = _assign_of(t, fail)
    if not isinstance(t.pre.body, Top):
        fail("the precondition must be T")
    want = Formula(Atom(atom_kind, (Var(stmt.target), stmt.rhs)), t.env)
    if t.post != want:
        fail(f"the postcondition must be {formula_to_text(want)}")
    if stmt.target in fv(stmt.rhs):
        fail("the assigned variable must not occur in the expression")
    if atom_kind == ATOM_ESPL and not is_det_expr(stmt.rhs, symbols):
        fail(".= needs a deterministic expression")


def scoped_post(t: HoareTriple, atom_kind: str, symbols, fail) -> Formula:
    """The postcondition SRAssn (atom_kind ==) or SDAssn (.=) gives t's
    assignment from t's precondition (phi * psi)."""
    stmt = _assign_of(t, fail)
    if not isinstance(t.pre.body, Star):
        fail("the precondition must be a separating conjunction")
    phi, psi = t.pre.body.left, t.pre.body.right
    xi, theta = phi.annotation, psi.annotation
    r = stmt.target
    if r in xi:
        fail("the assigned variable must not occur in the active component")
    if r in fv(stmt.rhs):
        fail("the assigned variable must not occur in the expression")
    try:
        val_type = type_expr(xi, stmt.rhs, symbols)
    except TypeCheckError as exc:
        fail(f"the expression must type in the active component alone: {exc}")
    if atom_kind == ATOM_ESPL and not is_det_expr(stmt.rhs, symbols):
        fail(".= needs a deterministic expression")
    xi_r = env_join(xi, Env.make({r: val_type}))
    left = Formula(And(phi, Formula(Atom(atom_kind, (Var(r), stmt.rhs)), xi_r)), xi_r)
    return Formula(Star(left, Formula(psi.body, theta.remove(r))), t.env)


def _check_scoped_assign(node, t, fail, symbols, registry, checked, atom_kind):
    want = scoped_post(t, atom_kind, symbols, fail)
    if t.post != want:
        fail(f"the postcondition must be {formula_to_text(want)}")


def rcond_premises(t: HoareTriple, fail) -> tuple[HoareTriple, HoareTriple]:
    """The branch triples RCond needs for t: each branch runs from its guard
    value to t's postcondition."""
    if not isinstance(t.program, If):
        fail("RCond applies to a conditional")
    if not isinstance(t.pre.body, Top):
        fail("the precondition must be T")
    if not classify_exact(t.post):
        fail("the postcondition must be exact (no ~~ or U)")

    def premise(branch, bit):
        pre = Formula(Atom(ATOM_ESPL, (Var(t.program.guard), Lit(bit))), t.env)
        return HoareTriple(pre, t.env, branch, t.post)

    return premise(t.program.then_branch, "1"), premise(t.program.else_branch, "0")


def _check_rcond(node, t, fail, symbols, registry, checked):
    want_then, want_else = rcond_premises(t, fail)
    then_child, else_child = node.children
    if then_child.conclusion != want_then:
        fail("the first subproof must run the then branch from guard=1 to post")
    if else_child.conclusion != want_else:
        fail("the second subproof must run the else branch from guard=0 to post")


def _check_weak(node, t, fail, symbols, registry, checked):
    child = node.children[0].conclusion
    if child.env != t.env or child.program != t.program:
        fail("weakening keeps the environment and the program")
    if node.pre_cert is None or node.post_cert is None:
        fail("Weak needs pre and post certificates")
    try:
        got = check_hilbert(node.pre_cert, symbols, registry, checked)
    except CertError as exc:
        fail(f"pre certificate: {exc}")
    if got != (t.pre, child.pre):
        fail("the pre certificate must derive the subproof precondition from pre")
    try:
        got = check_hilbert(node.post_cert, symbols, registry, checked)
    except CertError as exc:
        fail(f"post certificate: {exc}")
    if got != (child.post, t.post):
        fail("the post certificate must derive post from the subproof postcondition")


def composite_premise(t: HoareTriple, rule: str, fail) -> HoareTriple:
    """The subproof triple a Frame or Const conclusion t extends: t's program
    run from and to the left components of t's pre and post."""
    body_type = Star if rule == "Frame" else And
    if not isinstance(t.pre.body, body_type) or not isinstance(t.post.body, body_type):
        fail(f"{rule} conclusions combine the subproof assertion with a context")
    phi, xi_pre = t.pre.body.left, t.pre.body.right
    psi, xi_post = t.post.body.left, t.post.body.right
    if xi_pre != xi_post:
        fail("the context formula must be identical in pre and post")
    if psi.annotation != phi.annotation:
        fail("the subproof assertions must live on its own environment")
    if body_type is And:
        clash = sorted(set(xi_pre.annotation.names()) & mv(t.program))
        if clash:
            fail(f"the context mentions variables the program writes: {clash}")
    return HoareTriple(phi, phi.annotation, t.program, psi)


def _check_composite(node, t, fail, symbols, registry, checked):
    want = composite_premise(t, node.rule, fail)
    child = node.children[0].conclusion
    if child.program != want.program:
        fail(f"{node.rule} keeps the program")
    if child.pre != want.pre or child.post != want.post:
        fail("the subproof must establish the left components")
    if child.env != want.env:
        fail("the subproof environment must be the active annotation")


_RULE_CHECKS = {
    "Skip": (0, _check_skip),
    "Seq": (2, _check_seq),
    "Assn": (0, partial(_check_plain_assign, atom_kind=ATOM_EQ)),
    "DAssn": (0, partial(_check_plain_assign, atom_kind=ATOM_ESPL)),
    "SRAssn": (0, partial(_check_scoped_assign, atom_kind=ATOM_EQ)),
    "SDAssn": (0, partial(_check_scoped_assign, atom_kind=ATOM_ESPL)),
    "RCond": (2, _check_rcond),
    "Weak": (1, _check_weak),
    "Const": (1, _check_composite),
    "Frame": (1, _check_composite),
}


# ---------------------------------------------------------------------------
# Semantic spot checks


@dataclass(frozen=True)
class ValidationFailure:
    input: Store
    output: Store


@dataclass(frozen=True)
class ValidationReport:
    checked: int
    hits: int  # stores that satisfied the precondition
    failures: tuple[ValidationFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_triple(
    triple: HoareTriple,
    stores,
    epsilon: Fraction = ZERO,
    symbols: SymbolTable = NO_SYMBOLS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> ValidationReport:
    """Run the program on each store whose contents satisfy the precondition
    and test the postcondition on the output; counterexamples keep both
    stores for inspection."""
    checked = hits = 0
    failures = []
    for s in stores:
        check_bit_budget(s.env, s.tested_ns(), max_bits)
        checked += 1
        if not sat_formula(s, triple.pre, epsilon, symbols):
            continue
        hits += 1
        out = run_store(s, triple.program, symbols)
        if not sat_formula(out, triple.post, epsilon, symbols):
            failures.append(ValidationFailure(s, out))
    return ValidationReport(checked, hits, tuple(failures))


# ---------------------------------------------------------------------------
# Rule soundness fuzzing


@dataclass
class FuzzReport:
    rule: str
    cases: int
    hits: int = 0  # non-vacuous instance/store pairs actually exercised
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def fuzz_rule_soundness(
    rule: str,
    cases: int = 50,
    seed: int = 0,
    ns: tuple[int, ...] = (1, 2),
    epsilon: Fraction = ZERO,
) -> FuzzReport:
    """Generate random instances of one proof rule and hunt for stores where
    the premises hold but the conclusion fails.

    Each instance is a conclusion triple drawn by _gen and a test of the
    premises that the rule's own definition (scoped_post, rcond_premises,
    composite_premise) gives it; validate_triple checks the conclusion on
    the stores that pass the test. A TypeCheckError from the rule's
    definition is a violation {"error": ...}: the conclusions are well typed.
    """
    rng = random.Random(seed)
    report = FuzzReport(rule, cases)
    if rule not in FUZZ_CASES:
        raise ValueError(f"no fuzz generator for rule {rule!r}")

    def fail(message: str):
        raise ProofError(f"{rule} instance", message)

    for _ in range(cases):
        try:
            triple, premises_hold = FUZZ_CASES[rule](rng, epsilon, fail)
        except ProofError:
            continue  # the rule does not apply to this draw
        except TypeCheckError as exc:  # the rule built an ill-typed formula
            report.violations.append({"error": f"ill-typed instance: {exc}"})
            continue
        stores = _gen.gen_stores(rng, triple.env, ns, count=3)
        found = validate_triple(triple, [s for s in stores if premises_hold(s)], epsilon)
        report.hits += found.hits
        report.violations.extend(
            {
                "program": program_to_text(triple.program),
                "pre": formula_to_text(triple.pre),
                "post": formula_to_text(triple.post),
                "input": failure.input,
                "output": failure.output,
            }
            for failure in found.failures
        )
    return report


def _holds_on(triple, store, epsilon) -> bool:
    """store meets the precondition and its output the postcondition."""
    found = validate_triple(triple, [store], epsilon)
    return found.hits == 1 and found.ok


def _fuzz_scoped_case(atom_kind, rng, epsilon, fail):
    t = _gen.gen_scoped_assign(rng, exact=atom_kind == ATOM_ESPL)
    post = scoped_post(t, atom_kind, NO_SYMBOLS, fail)
    return replace(t, post=post), lambda store: True  # an axiom: no premises


def _fuzz_composite(rule, rng, epsilon, fail):
    triple = _gen.gen_composite(rng, star_shape=rule == "Frame")
    child = composite_premise(triple, rule, fail)
    # premise: the child triple holds on the store's marginal
    return triple, lambda store: _holds_on(child, project(store, child.env), epsilon)


def _fuzz_rcond_case(rng, epsilon, fail):
    triple = _gen.gen_rcond(rng)
    then_triple, else_triple = rcond_premises(triple, fail)
    guard = triple.program.guard

    def premises_hold(store) -> bool:
        # premises: each branch holds on the store conditioned on taking it
        for branch, bit in ((then_triple, "1"), (else_triple, "0")):
            family = {}
            for n in store.tested_ns():
                try:
                    family[n] = condition(store.at(n), store.env, guard, bit)
                except ZeroMassError:
                    pass  # the branch is never taken at this n
            if family and not _holds_on(
                branch, Store.from_dists(store.env, family), epsilon
            ):
                return False
        return True

    return triple, premises_hold


# each fuzzable rule's case maker: a conclusion and a test of its premises
FUZZ_CASES = {
    "Frame": partial(_fuzz_composite, "Frame"),
    "Const": partial(_fuzz_composite, "Const"),
    "RCond": _fuzz_rcond_case,
    "SRAssn": partial(_fuzz_scoped_case, ATOM_EQ),
    "SDAssn": partial(_fuzz_scoped_case, ATOM_ESPL),
}
