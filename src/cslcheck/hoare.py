"""The triple checker, semantic spot-validation, and rule soundness fuzzing.

check_triple walks a proof tree top-down and checks each node against the
shape of its named rule. Failures carry the path of the shallowest failing
node (root, root.children[1], ...) so scripts can point at the offending
subproof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import _gen
from .dist import Store, ZeroMassError, condition, project
from .logic import CertError, check_hilbert, load_registry, sat_formula
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
    ProofTree,
    RULE_NAMES,
    Seq,
    Skip,
    Star,
    SymbolTable,
    Top,
    Var,
    formula_to_text,
    fv,
    program_to_text,
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


def _is_top(f: Formula) -> bool:
    return isinstance(f.body, Top)


def check_triple(
    tree: ProofTree,
    symbols: Optional[SymbolTable] = None,
    registry: Optional[frozenset] = None,
) -> HoareTriple:
    """Check a proof tree; returns the root conclusion it establishes.

    Each formula object of the tree and its certificates is checked for
    well-formedness once (see wf_formula_once), where it first occurs.
    """
    symbols = symbols or SymbolTable()
    registry = registry if registry is not None else load_registry()
    _check_node(tree, "root", symbols, registry, {})
    return tree.conclusion


def _check_node(node: ProofTree, path: str, symbols, registry, checked) -> None:
    def fail(message: str):
        raise ProofError(path, message)

    t = node.conclusion
    if node.rule not in RULE_NAMES:
        fail(f"unknown rule {node.rule!r}")
    try:
        type_program(t.env, t.program, symbols)
        wf_formula_once(t.pre, symbols, checked)
        wf_formula_once(t.post, symbols, checked)
    except TypeCheckError as exc:
        fail(str(exc))
    if t.pre.annotation != t.env:
        fail("precondition annotation differs from the triple environment")
    if t.post.annotation != t.env:
        fail("postcondition annotation differs from the triple environment")

    checker = _RULE_CHECKS[node.rule]
    checker(node, t, fail, symbols, registry, checked)
    for i, child in enumerate(node.children):
        _check_node(child, f"{path}.children[{i}]", symbols, registry, checked)


def _need_children(node, k, fail):
    if len(node.children) != k:
        fail(f"{node.rule} takes {k} subproof(s), got {len(node.children)}")


def _check_skip(node, t, fail, symbols, registry, checked):
    _need_children(node, 0, fail)
    if not isinstance(t.program, Skip):
        fail("Skip applies to the empty program")
    if t.pre != t.post:
        fail("Skip keeps the assertion unchanged")


def _check_seq(node, t, fail, symbols, registry, checked):
    _need_children(node, 2, fail)
    if not isinstance(t.program, Seq):
        fail("Seq applies to a sequential composition")
    if node.mid is None:
        fail("Seq needs a mid formula")
    first, second = node.children
    if first.conclusion != HoareTriple(t.pre, t.env, t.program.first, node.mid):
        fail("the first subproof must run the first command from pre to mid")
    if second.conclusion != HoareTriple(node.mid, t.env, t.program.second, t.post):
        fail("the second subproof must run the second command from mid to post")


def _assign_of(t, fail) -> Assign:
    if not isinstance(t.program, Assign):
        fail("this rule applies to a single assignment")
    return t.program


def _check_plain_assign(node, t, fail, symbols, registry, checked, atom_kind):
    _need_children(node, 0, fail)
    stmt = _assign_of(t, fail)
    if not _is_top(t.pre):
        fail("the precondition must be T")
    want = Formula(Atom(atom_kind, (Var(stmt.target), stmt.rhs)), t.env)
    if t.post != want:
        fail(f"the postcondition must be {formula_to_text(want)}")
    if stmt.target in fv(stmt.rhs):
        fail("the assigned variable must not occur in the expression")
    if atom_kind == ATOM_ESPL and not is_det_expr(stmt.rhs, symbols):
        fail(".= needs a deterministic expression")


def _check_assn(node, t, fail, symbols, registry, checked):
    _check_plain_assign(node, t, fail, symbols, registry, checked, ATOM_EQ)


def _check_dassn(node, t, fail, symbols, registry, checked):
    _check_plain_assign(node, t, fail, symbols, registry, checked, ATOM_ESPL)


def _check_scoped_assign(node, t, fail, symbols, registry, checked, atom_kind):
    _need_children(node, 0, fail)
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
    want_left = Formula(
        And(phi, Formula(Atom(atom_kind, (Var(r), stmt.rhs)), xi_r)), xi_r
    )
    want = Formula(Star(want_left, Formula(psi.body, theta.remove(r))), t.env)
    if t.post != want:
        fail(f"the postcondition must be {formula_to_text(want)}")


def _check_srassn(node, t, fail, symbols, registry, checked):
    _check_scoped_assign(node, t, fail, symbols, registry, checked, ATOM_EQ)


def _check_sdassn(node, t, fail, symbols, registry, checked):
    _check_scoped_assign(node, t, fail, symbols, registry, checked, ATOM_ESPL)


def _check_rcond(node, t, fail, symbols, registry, checked):
    _need_children(node, 2, fail)
    if not isinstance(t.program, If):
        fail("RCond applies to a conditional")
    if not _is_top(t.pre):
        fail("the precondition must be T")
    if not classify_exact(t.post):
        fail("the postcondition must be exact (no ~~ or U)")
    then_pre = Formula(Atom(ATOM_ESPL, (Var(t.program.guard), Lit("1"))), t.env)
    else_pre = Formula(Atom(ATOM_ESPL, (Var(t.program.guard), Lit("0"))), t.env)
    then_child, else_child = node.children
    if then_child.conclusion != HoareTriple(
        then_pre, t.env, t.program.then_branch, t.post
    ):
        fail("the first subproof must run the then branch from guard=1 to post")
    if else_child.conclusion != HoareTriple(
        else_pre, t.env, t.program.else_branch, t.post
    ):
        fail("the second subproof must run the else branch from guard=0 to post")


def _check_weak(node, t, fail, symbols, registry, checked):
    _need_children(node, 1, fail)
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


def _check_composite(node, t, fail, symbols, registry, checked, body_type, name):
    _need_children(node, 1, fail)
    child = node.children[0].conclusion
    if child.program != t.program:
        fail(f"{name} keeps the program")
    if not isinstance(t.pre.body, body_type) or not isinstance(t.post.body, body_type):
        fail(f"{name} conclusions combine the subproof assertion with a context")
    phi, xi_pre = t.pre.body.left, t.pre.body.right
    psi, xi_post = t.post.body.left, t.post.body.right
    if xi_pre != xi_post:
        fail("the context formula must be identical in pre and post")
    if child.pre != phi or child.post != psi:
        fail("the subproof must establish the left components")
    if child.env != phi.annotation:
        fail("the subproof environment must be the active annotation")
    if child.pre.annotation != child.env or child.post.annotation != child.env:
        fail("the subproof assertions must live on its own environment")
    return xi_pre


def _check_const(node, t, fail, symbols, registry, checked):
    xi = _check_composite(node, t, fail, symbols, registry, checked, And, "Const")
    touched = mv(t.program)
    clash = sorted(set(xi.annotation.names()) & touched)
    if clash:
        fail(f"the context mentions variables the program writes: {clash}")


def _check_frame(node, t, fail, symbols, registry, checked):
    _check_composite(node, t, fail, symbols, registry, checked, Star, "Frame")


_RULE_CHECKS = {
    "Skip": _check_skip,
    "Seq": _check_seq,
    "Assn": _check_assn,
    "DAssn": _check_dassn,
    "SRAssn": _check_srassn,
    "SDAssn": _check_sdassn,
    "RCond": _check_rcond,
    "Weak": _check_weak,
    "Const": _check_const,
    "Frame": _check_frame,
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
    symbols: Optional[SymbolTable] = None,
    max_bits: int = DEFAULT_MAX_BITS,
) -> ValidationReport:
    """Run the program on each store whose contents satisfy the precondition
    and test the postcondition on the output; counterexamples keep both
    stores for inspection."""
    symbols = symbols or SymbolTable()
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

    Each instance is a conclusion triple and a test of the rule's premises
    on a store; validate_triple checks the conclusion on the stores that
    pass it.
    """
    rng = random.Random(seed)
    symbols = SymbolTable()
    report = FuzzReport(rule, cases)
    makers = {
        "Frame": lambda *a: _fuzz_composite(*a, star_shape=True),
        "Const": lambda *a: _fuzz_composite(*a, star_shape=False),
        "RCond": _fuzz_rcond_case,
        "SRAssn": _fuzz_scoped_case(ATOM_EQ),
        "SDAssn": _fuzz_scoped_case(ATOM_ESPL),
    }
    if rule not in makers:
        raise ValueError(f"no fuzz generator for rule {rule!r}")
    for _ in range(cases):
        inst = makers[rule](rng, ns, epsilon, symbols)
        if inst is None:
            continue
        triple, premises_hold = inst
        stores = _gen.gen_stores(rng, triple.env, ns, count=3)
        found = validate_triple(
            triple, [s for s in stores if premises_hold(s)], epsilon, symbols
        )
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


def _holds_on(triple, store, epsilon, symbols) -> bool:
    """store meets the precondition and its output the postcondition."""
    found = validate_triple(triple, [store], epsilon, symbols)
    return found.hits == 1 and found.ok


def _fuzz_scoped_case(atom_kind):
    def case(rng, ns, epsilon, symbols):
        inst = _gen.gen_scoped_assign(rng, ns, symbols, exact=atom_kind == ATOM_ESPL)
        if inst is None:
            return None
        triple, node = inst
        try:
            check_triple(node, symbols)
        except ProofError:
            return None
        return triple, lambda store: True  # an axiom: no premises

    return case


def _fuzz_composite(rng, ns, epsilon, symbols, star_shape):
    inst = _gen.gen_composite(rng, ns, symbols, star_shape=star_shape)
    if inst is None:
        return None
    triple, child = inst
    # premise: the child triple holds on the store's marginal
    return triple, lambda store: _holds_on(
        child, project(store, child.env), epsilon, symbols
    )


def _fuzz_rcond_case(rng, ns, epsilon, symbols):
    inst = _gen.gen_rcond(rng, ns, symbols)
    if inst is None:
        return None
    triple, then_triple, else_triple = inst
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
                branch, Store(store.env, family), epsilon, symbols
            ):
                return False
        return True

    return triple, premises_hold
