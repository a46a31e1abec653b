"""Acceptance gate: one test per shipped guarantee.

Every test prints a single verdict line, so `pytest tests/test_acceptance.py -s`
reads as a checklist. All comparisons are exact rational equality (epsilon 0);
nothing here is allowed a tolerance.
"""

import contextlib
import dataclasses
import importlib.util
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

from cslcheck import _gen, _props
from cslcheck.dist import FinDist, Store, all_memories, memory, tensor
from cslcheck.hoare import ProofError, check_triple, validate_triple
from cslcheck.logic import sat_formula
from cslcheck.semantics import run_store
from cslcheck.syntax import (
    And,
    App,
    Assign,
    ATOM_ESPL,
    ATOM_IND,
    Atom,
    CertStep,
    EntailmentCert,
    Formula,
    HoareTriple,
    If,
    Seq,
    Star,
    SymbolTable,
    Var,
    parse_env,
    parse_formula,
    parse_program,
    parse_proof_with_decls,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 1789


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:>2}. {name}")
    assert ok, detail or name


def load_proof(name: str):
    return parse_proof_with_decls((CORPUS / name).read_text())


# -- tree surgery for the mutation checks


def rewrite_stmt(prog, old, new):
    if prog == old:
        return new
    if isinstance(prog, Seq):
        return Seq(tuple(rewrite_stmt(s, old, new) for s in prog.stmts))
    if isinstance(prog, If):
        return If(
            prog.guard,
            rewrite_stmt(prog.then_branch, old, new),
            rewrite_stmt(prog.else_branch, old, new),
        )
    return prog


def map_programs(tree, old, new):
    c = tree.conclusion
    conc = HoareTriple(c.pre, c.env, rewrite_stmt(c.program, old, new), c.post)
    return dataclasses.replace(
        tree,
        conclusion=conc,
        children=tuple(map_programs(ch, old, new) for ch in tree.children),
    )


def map_formulas(tree, fn):
    c = tree.conclusion

    def mend(cert):
        if cert is None:
            return None
        steps = tuple(
            CertStep(s.sid, s.rule, fn(s.lhs), fn(s.rhs), s.premises)
            for s in cert.steps
        )
        return EntailmentCert(steps, cert.root)

    return dataclasses.replace(
        tree,
        conclusion=HoareTriple(fn(c.pre), c.env, c.program, fn(c.post)),
        children=tuple(map_formulas(ch, fn) for ch in tree.children),
        mid=fn(tree.mid) if tree.mid is not None else None,
        pre_cert=mend(tree.pre_cert),
        post_cert=mend(tree.post_cert),
    )


def patch_node(tree, idx_path, fn):
    if not idx_path:
        return fn(tree)
    children = list(tree.children)
    children[idx_path[0]] = patch_node(children[idx_path[0]], idx_path[1:], fn)
    return dataclasses.replace(tree, children=tuple(children))


def with_step_rhs(cert, sid, rhs):
    steps = tuple(
        CertStep(s.sid, s.rule, s.lhs, rhs, s.premises) if s.sid == sid else s
        for s in cert.steps
    )
    return EntailmentCert(steps, cert.root)


def swap_to_approx(args):
    """Rewrite every pointwise atom with these arguments into the
    approximate-equality one, everywhere in a formula."""

    def fn(f):
        body = f.body
        if isinstance(body, (And, Star)):
            body = type(body)(fn(body.left), fn(body.right))
        elif isinstance(body, Atom) and body.kind == ATOM_ESPL and body.args == args:
            body = Atom(ATOM_IND, args)
        return Formula(body, f.annotation)

    return fn


# -- 1. the two execution semantics coincide


def test_01_split_semantics_agreement():
    res = _props.suite_kozen(SEED + 1, 500, (1, 2))
    report(
        1,
        "per-sample and split-on-guard semantics agree on 500 programs (exact)",
        res.ok and res.cases == 500,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 2. pad output is uniform and independent of the message


def test_02_pad_output_secrecy():
    env = parse_env("{c: Str[n], k: Str[n], m: Str[n]}")
    prog = parse_program("k := rnd(); c := xor(m, k)")
    post = parse_formula(
        "((T){m: Str[n]} * (U(c)){c: Str[n]})"
        "{c: Str[n], k: Str[n], m: Str[n]}"
    )
    rng = random.Random(SEED + 2)
    symbols = SymbolTable()
    base_env, msg_env = env.restrict(("c", "k")), env.restrict(("m",))
    failures = 0
    for _ in range(20):
        base, msg = {}, {}
        for n in (1, 2, 3):
            msg[n] = _gen.gen_dist(rng, msg_env, n)
            base[n] = FinDist.dirac(memory(base_env, n, {"c": "0" * n, "k": "0" * n}))
        joint = tensor(Store(base_env, base), Store(msg_env, msg))
        out = run_store(joint, prog, symbols)
        if not sat_formula(out, post, Fraction(0), symbols):
            failures += 1
    report(
        2,
        "pad ciphertext is exactly uniform and message-independent on 20 inputs",
        failures == 0,
        f"{failures} message distributions leak",
    )


# -- 3. the proof corpus checks, and every planted defect is caught in place


def test_03_corpus_proofs_and_mutations():
    accepted = 0
    for name in ("xor", "potp", "exp_h0", "exp_h1", "exp_h2", "otp"):
        symbols, tree = load_proof(f"{name}.proof")
        check_triple(tree, symbols)
        accepted += 1

    self_draw = (
        "otp.proof",
        lambda t: map_programs(
            t,
            Assign("k", App("rnd", ())),
            Assign("k", App("xor", (App("rnd", ()), Var("k")))),
        ),
        "root.children[0].children[0]",
        "must not occur in the expression",
    )
    approx_branch_post = (
        "xor.proof",
        lambda t: map_formulas(
            t, swap_to_approx((Var("c"), App("xor", (Var("k"), Var("m")))))
        ),
        "root",
        "must be exact",
    )
    random_seed_copy = (
        "exp_h0.proof",
        lambda t: map_programs(
            t, Assign("s0", Var("k")), Assign("s0", App("rnd", ()))
        ),
        "root.children[0].children[1].children[0].children[0]",
        "deterministic expression",
    )
    stretch_without_g = (
        "potp.proof",
        lambda t: patch_node(
            t,
            (1,),
            lambda nd: dataclasses.replace(
                nd,
                pre_cert=with_step_rhs(
                    nd.pre_cert, "s1", parse_formula("(U(k)){k: Str[n]}")
                ),
            ),
        ),
        "root.children[1]",
        "Ax_POTP",
    )
    split_flipped = (
        "exp_h0.proof",
        lambda t: patch_node(
            t,
            (0, 0),
            lambda nd: dataclasses.replace(
                nd,
                post_cert=with_step_rhs(
                    nd.post_cert,
                    "s2",
                    parse_formula(
                        "((U(k)){k: Str[n]} * (U(b0)){b0: Bool})"
                        "{b0: Bool, k: Str[n], r0: Str[n+1]}"
                    ),
                ),
            ),
        ),
        "root.children[0].children[0]",
        "Ax_SPL",
    )
    widened_cert_end = (
        "xor.proof",
        lambda t: patch_node(
            t,
            (0,),
            lambda nd: dataclasses.replace(
                nd,
                pre_cert=with_step_rhs(
                    nd.pre_cert,
                    "s1",
                    parse_formula(
                        "((T){c: Bool, k: Bool, m: Bool} /\\ "
                        "(k .= 1){c: Bool, k: Bool, m: Bool})"
                        "{c: Bool, k: Bool, m: Bool}"
                    ),
                ),
            ),
        ),
        "root.children[0]",
        "pre certificate must derive",
    )
    mutations = (
        self_draw,
        approx_branch_post,
        random_seed_copy,
        stretch_without_g,
        split_flipped,
        widened_cert_end,
    )

    problems = []
    for name, mutate, want_path, want_text in mutations:
        symbols, tree = load_proof(name)
        try:
            check_triple(mutate(tree), symbols)
            problems.append(f"{name}/{want_text}: mutation was accepted")
            continue
        except ProofError as exc:
            if exc.path != want_path:
                problems.append(f"{name}: error at {exc.path}, wanted {want_path}")
            if want_text not in str(exc):
                problems.append(f"{name}: {exc} does not mention {want_text!r}")
    report(
        3,
        f"{accepted} corpus proofs accepted; {len(mutations)} planted defects "
        "rejected at the defective node",
        accepted == 6 and not problems,
        "; ".join(problems[:3]),
    )


# -- 4. the branch-on-key program really computes xor


def test_04_xor_semantic_validation():
    symbols, tree = load_proof("xor.proof")
    env = tree.conclusion.env
    rng = random.Random(SEED + 4)
    stores = [Store(env, {1: FinDist.dirac(m)}) for m in all_memories(env, 1)]
    stores += [Store(env, {1: _gen.gen_dist(rng, env, 1)}) for _ in range(50)]
    rep = validate_triple(tree.conclusion, stores, Fraction(0), symbols)
    report(
        4,
        "xor postcondition holds on all 8 point inputs and 50 random ones",
        rep.ok and rep.hits == 58,
        f"hits={rep.hits}, failures={len(rep.failures)}",
    )


# -- 5. stores form a partial resource monoid


def test_05_store_monoid_laws():
    res = _props.suite_pkrm(SEED + 5, 300, (1, 2))
    report(
        5,
        "tensor monoid and projection preorder laws on 300 store triples (exact)",
        res.ok,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 6. execution metatheory


def test_06_execution_metatheory():
    names = ("mv", "locality", "frame", "unit", "linearity")
    suites = (
        _props.suite_mv,
        _props.suite_locality,
        _props.suite_frame,
        _props.suite_unit,
        _props.suite_linearity,
    )
    bad = []
    for offset, (name, suite) in enumerate(zip(names, suites)):
        res = suite(SEED + 60 + offset, 200, (1, 2))
        if not res.ok:
            bad.append(f"{name}: {res.failures[0]}")
    report(
        6,
        "write-set, locality, framing, unit, and linearity laws, 200 cases each",
        not bad,
        "; ".join(bad),
    )


# -- 7. every axiom schema is semantically valid


def test_07_axiom_soundness():
    # 12 schema groups inside; 2400 cases gives 200 instances per group
    res = _props.suite_axioms(SEED + 7, 2400, (1, 2, 3))
    report(
        7,
        "axiom schemas valid on 200 random instances each; split/merge on "
        "derived uniform stores; stretch axiom under bijective stubs (exact)",
        res.ok,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 8. proof rules never certify a false conclusion


def test_08_rule_soundness_fuzzing():
    res = _props.suite_fuzz(SEED + 8, 1000, (1, 2))
    report(
        8,
        "Frame/Const/RCond/SRAssn/SDAssn fuzzing, 200 instances each, "
        "zero violations (exact)",
        res.ok,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 9. the product criterion is the right notion of independence


def test_09_independence_characterization():
    res = _props.suite_independence(SEED + 9, 200, (1, 2))
    report(
        9,
        "product criterion matches exhaustive witness search on 200 joint stores",
        res.ok,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 10. uniformity splits and merges


def test_10_uniform_split_merge():
    res = _props.suite_split_merge(SEED + 10, 100, (1,))
    report(
        10,
        "joint uniform iff marginals uniform and independent "
        "(all denominators <= 8, plus 100 random stores)",
        res.ok,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 11. annotated satisfaction against the plain reading


def test_11_plain_bi_comparison():
    res = _props.suite_bi(SEED + 11, 100, (1, 2))
    report(
        11,
        "annotated satisfaction implies the plain reading; plain truth always "
        "has an annotation witness (100 formulas)",
        res.ok,
        "; ".join(map(str, res.failures[:3])),
    )


# -- 12. the committed corpus is exactly what tools/build_corpus.py writes


def test_12_corpus_regenerates_byte_identically(tmp_path, monkeypatch):
    tool = CORPUS.parent / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", tool)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    monkeypatch.setattr(sys, "argv", [str(tool), str(tmp_path)])
    with contextlib.redirect_stdout(io.StringIO()):
        assert build_corpus.main() == 0
    committed = {p.name: p.read_bytes() for p in CORPUS.iterdir()}
    built = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    differ = sorted(name for name in committed if built.get(name) != committed[name])
    extra = sorted(built.keys() - committed.keys())
    report(
        12,
        f"tools/build_corpus.py regenerates all {len(committed)} corpus files "
        "byte for byte",
        built == committed,
        f"differing or missing: {differ}; extra: {extra}",
    )
