#!/usr/bin/env python3
"""Regenerate the corpus/ directory.

Every proof script is built as an in-memory tree, run through check_triple,
round-tripped through its on-disk text, and only then written out. The
stores are produced by actually running the programs, so the sample files
stay consistent with the semantics by construction.

Usage: python tools/build_corpus.py [DEST]
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cslcheck.dist import FinDist, Store, memory, store_to_text
from cslcheck.hoare import check_triple, validate_triple
from cslcheck.semantics import run_store
from cslcheck.syntax import (
    And,
    App,
    Assign,
    Atom,
    ATOM_EQ,
    ATOM_ESPL,
    ATOM_IND,
    ATOM_U,
    BoolType,
    CertStep,
    EMPTY_ENV,
    EntailmentCert,
    Env,
    Formula,
    HoareTriple,
    If,
    Lit,
    NO_SYMBOLS,
    POLY_N,
    ProofTree,
    SKIP,
    SizePoly,
    Star,
    StrType,
    Var,
    formula_to_text,
    parse_decls,
    parse_proof_with_decls,
    program_to_text,
    proof_to_text,
    seq,
    top,
)

BOOL = BoolType()
STR_N = StrType(POLY_N)

G_DECL = "decl g : Str[n] -> Str[n+1] det;"


def str_np(offset: int) -> StrType:
    """Str[n+offset]."""
    return StrType(SizePoly.make((offset, 1)))


def u(e, ann: Env) -> Formula:
    return Formula(Atom(ATOM_U, (e,)), ann)


def eq(a, b, ann: Env) -> Formula:
    return Formula(Atom(ATOM_EQ, (a, b)), ann)


def espl(a, b, ann: Env) -> Formula:
    return Formula(Atom(ATOM_ESPL, (a, b)), ann)


def ind(a, b, ann: Env) -> Formula:
    return Formula(Atom(ATOM_IND, (a, b)), ann)


def conj(left: Formula, right: Formula, ann: Env) -> Formula:
    return Formula(And(left, right), ann)


def star(left: Formula, right: Formula, ann: Env) -> Formula:
    return Formula(Star(left, right), ann)


def step(sid: str, rule: str, lhs: Formula, rhs: Formula, *premises: str) -> CertStep:
    return CertStep(sid, rule, lhs, rhs, premises)


def cert(steps, root: str) -> EntailmentCert:
    return EntailmentCert(tuple(steps), root)


def ap(f: Formula) -> EntailmentCert:
    return cert([step("s1", "AP", f, f)], "s1")


def seq_chain(trees, progs, formulas, env: Env) -> tuple[ProofTree, object]:
    """Right-nested Seq tree through the given cut formulas, over the flat
    program of all the progs.

    trees[i] proves {formulas[i]} progs[i] {formulas[i+1]}; the result
    proves {formulas[0]} progs[0]; ...; progs[-1] {formulas[-1]}.
    """
    if len(trees) == 1:
        return trees[0], progs[0]
    rest, rest_prog = seq_chain(trees[1:], progs[1:], formulas[1:], env)
    prog = seq(progs[0], rest_prog)
    node = ProofTree(
        "Seq",
        HoareTriple(formulas[0], env, prog, formulas[-1]),
        (trees[0], rest),
        mid=formulas[1],
    )
    return node, prog


def build_skip_chain(k: int) -> tuple[list[str], ProofTree]:
    """{T} skip; ...; skip {T} over {x: Bool}, with k skips: k Skip nodes
    under a right-nested chain of k - 1 Seq nodes."""
    env = Env.make({"x": BOOL})
    skip = ProofTree("Skip", HoareTriple(top(env), env, SKIP, top(env)))
    return [], seq_chain([skip] * k, [SKIP] * k, [top(env)] * (k + 1), env)[0]


# ---------------------------------------------------------------------------
# One-time pad and its pseudorandom variant


def build_otp() -> tuple[list[str], ProofTree]:
    delta = Env.make({"c": STR_N, "k": STR_N, "m": STR_N})
    return [], pad_proof(delta, Var("k"))


def build_potp() -> tuple[list[str], ProofTree]:
    # the key stretched through g, and an idle r in the environment
    delta = Env.make(
        {"c": str_np(1), "k": STR_N, "m": str_np(1), "r": str_np(1)}
    )
    return [G_DECL], pad_proof(delta, App("g", (Var("k"),)))


def pad_proof(delta: Env, key) -> ProofTree:
    """The one-time-pad plan over delta: draw k, mask m with key (k, or an
    expression in k), and conclude that c is uniform and apart from m. A key
    other than k adds a weakening by Ax_POTP from U(k) to U(key)."""
    d = delta.restrict
    k, m, c = Var("k"), Var("m"), Var("c")
    draw = Assign("k", App("rnd", ()))
    mask = Assign("c", App("xor", (m, key)))
    prog = seq(draw, mask)

    pre = top(delta)
    post = star(top(d(["m"])), u(c, d(["c"])), delta)
    mid = star(u(k, d(["k"])), top(d(["m"])), delta)
    mid_key = star(u(key, d(["k"])), top(d(["m"])), delta)

    # first command: scoped randomized assignment, then rewrite to U(k)
    sr_pre = star(top(EMPTY_ENV), top(d(["c", "m"])), delta)
    sr_post = star(
        conj(top(EMPTY_ENV), eq(k, App("rnd", ()), d(["k"])), d(["k"])),
        top(d(["c", "m"])),
        delta,
    )
    sr = ProofTree("SRAssn", HoareTriple(sr_pre, delta, draw, sr_post))
    left = ProofTree(
        "Weak",
        HoareTriple(pre, delta, draw, mid),
        (sr,),
        pre_cert=cert([step("s1", "StarUnitI", pre, sr_pre)], "s1"),
        post_cert=cert([step("s1", "AuxPOTP1", sr_post, mid)], "s1"),
    )

    # second command: pin c pointwise, carry U(key) * T across, conclude
    da_post = espl(c, App("xor", (m, key)), delta)
    da = ProofTree("DAssn", HoareTriple(top(delta), delta, mask, da_post))
    ctx = star(u(key, d(["k"])), top(d(["m"])), d(["k", "m"]))
    const_pre = conj(top(delta), ctx, delta)
    const_post = conj(da_post, ctx, delta)
    cn = ProofTree("Const", HoareTriple(const_pre, delta, mask, const_post), (da,))
    right = ProofTree(
        "Weak",
        HoareTriple(mid_key, delta, mask, post),
        (cn,),
        pre_cert=cert(
            [
                step("s1", "TopI", mid_key, top(delta)),
                step("s2", "AP", mid_key, mid_key),
                step("s3", "AndI", mid_key, const_pre, "s1", "s2"),
            ],
            "s3",
        ),
        post_cert=cert([step("s1", "AuxPOTP2", const_post, post)], "s1"),
    )
    if key != k:
        right = ProofTree(
            "Weak",
            HoareTriple(mid, delta, mask, post),
            (right,),
            pre_cert=cert(
                [
                    step("s1", "Ax_POTP", u(k, d(["k"])), u(key, d(["k"]))),
                    step("s2", "AP", top(d(["m"])), top(d(["m"]))),
                    step("s3", "StarI", mid, mid_key, "s1", "s2"),
                ],
                "s3",
            ),
            post_cert=ap(post),
        )

    root = ProofTree(
        "Seq", HoareTriple(pre, delta, prog, post), (left, right), mid=mid
    )
    return root


# ---------------------------------------------------------------------------
# Exclusive or via the conditional rule


def build_xor() -> tuple[list[str], ProofTree]:
    delta = Env.make({"c": BOOL, "k": BOOL, "m": BOOL})
    dk = delta.restrict(["k"])
    k, m, c = Var("k"), Var("m"), Var("c")
    pre = top(delta)
    post = espl(c, App("xor", (k, m)), delta)

    def branch(guard_bit: str, rhs_expr) -> ProofTree:
        stmt = Assign("c", rhs_expr)
        da_post = espl(c, rhs_expr, delta)
        da = ProofTree("DAssn", HoareTriple(top(delta), delta, stmt, da_post))
        pinned = espl(k, Lit(guard_bit), dk)
        c_pre = conj(top(delta), pinned, delta)
        c_post = conj(da_post, pinned, delta)
        cn = ProofTree("Const", HoareTriple(c_pre, delta, stmt, c_post), (da,))
        return ProofTree(
            "Weak",
            HoareTriple(espl(k, Lit(guard_bit), delta), delta, stmt, post),
            (cn,),
            pre_cert=cert(
                [step("s1", "XorPi1", espl(k, Lit(guard_bit), delta), c_pre)], "s1"
            ),
            post_cert=cert([step("s1", "XorPi2", c_post, post)], "s1"),
        )

    then_branch = branch("1", App("not", (m,)))
    else_branch = branch("0", m)
    prog = If("k", then_branch.conclusion.program, else_branch.conclusion.program)
    root = ProofTree(
        "RCond", HoareTriple(pre, delta, prog, post), (then_branch, else_branch)
    )
    return [], root


# ---------------------------------------------------------------------------
# Key stretching: h+1 rounds of one-bit expansion


def build_exp(h: int) -> tuple[list[str], ProofTree]:
    bindings = {"k": STR_N}
    for i in range(h + 1):
        bindings[f"r{i}"] = str_np(1)
        bindings[f"b{i}"] = BOOL
    for i in range(h + 2):
        bindings[f"s{i}"] = str_np(i)
    delta = Env.make(bindings)
    d = delta.restrict
    k = Var("k")
    gk = App("g", (k,))

    def u_leaf(name: str) -> Formula:
        return u(Var(name), d([name]))

    def sep(names) -> Formula:
        """Right-nested independence of single uniform variables."""
        if not names:
            return top(EMPTY_ENV)
        if len(names) == 1:
            return u_leaf(names[0])
        return star(u_leaf(names[0]), sep(names[1:]), d(names))

    def bits(lo: int, hi: int) -> list[str]:
        return [f"b{j}" for j in range(lo, hi)]

    def phi(i: int) -> Formula:
        return star(u_leaf("k"), sep(bits(0, i)), delta)

    def psi(i: int) -> Formula:
        return star(u_leaf(f"s{i}"), sep(bits(i, h + 1)), delta)

    def round_proof(i: int) -> ProofTree:
        """{phi(i)} r_i := g(k); b_i := head(r_i); k := tail(r_i) {phi(i+1)}"""
        ri, bi = f"r{i}", f"b{i}"
        head_e = App("head", (Var(ri),))
        tail_e = App("tail", (Var(ri),))
        passive = sep(bits(0, i))
        d_kr, d_krb = d(["k", ri]), d(["k", ri, bi])

        # r_i := g(k): the fresh value is pseudorandom because g is
        stretch = Assign(ri, gk)
        sd1_left = conj(u_leaf("k"), espl(Var(ri), gk, d_kr), d_kr)
        sd1_post = star(sd1_left, passive, delta)
        sd1 = ProofTree("SDAssn", HoareTriple(phi(i), delta, stretch, sd1_post))
        m1_left = u(Var(ri), d_kr)
        m1 = star(m1_left, passive, delta)
        and_t = conj(ind(gk, Var(ri), d_kr), u(gk, d_kr), d_kr)
        pi1 = ProofTree(
            "Weak",
            HoareTriple(phi(i), delta, stretch, m1),
            (sd1,),
            pre_cert=ap(phi(i)),
            post_cert=cert(
                [
                    step("s1", "AP", sd1_left, sd1_left),
                    step("s2", "AndE1", sd1_left, u(k, d_kr), "s1"),
                    step("s3", "AndE2", sd1_left, espl(Var(ri), gk, d_kr), "s1"),
                    step("s4", "Ax_POTP", u(k, d_kr), u(gk, d_kr)),
                    step("s5", "Trans", sd1_left, u(gk, d_kr), "s2", "s4"),
                    step("s6", "W2", espl(Var(ri), gk, d_kr), eq(Var(ri), gk, d_kr)),
                    step("s7", "Trans", sd1_left, eq(Var(ri), gk, d_kr), "s3", "s6"),
                    step("s8", "T1", eq(Var(ri), gk, d_kr), eq(gk, Var(ri), d_kr)),
                    step("s9", "Trans", sd1_left, eq(gk, Var(ri), d_kr), "s7", "s8"),
                    step("s10", "W1", eq(gk, Var(ri), d_kr), ind(gk, Var(ri), d_kr)),
                    step("s11", "Trans", sd1_left, ind(gk, Var(ri), d_kr), "s9", "s10"),
                    step("s12", "AndI", sd1_left, and_t, "s11", "s5"),
                    step("s13", "U1", and_t, u(Var(ri), d_kr)),
                    step("s14", "Trans", sd1_left, u(Var(ri), d_kr), "s12", "s13"),
                    step("s15", "AP", passive, passive),
                    step("s16", "StarI", sd1_post, m1, "s14", "s15"),
                ],
                "s16",
            ),
        )

        # b_i := head(r_i), then drop k from the active annotation so the
        # key can be overwritten next
        split_bit = Assign(bi, head_e)
        sd2_left = conj(m1_left, espl(Var(bi), head_e, d_krb), d_krb)
        sd2_post = star(sd2_left, passive, delta)
        sd2 = ProofTree("SDAssn", HoareTriple(m1, delta, split_bit, sd2_post))
        narrowed = conj(u(Var(ri), d([ri])), espl(Var(bi), head_e, d([ri, bi])), d([ri, bi]))
        m2 = star(narrowed, passive, delta)
        pi2 = ProofTree(
            "Weak",
            HoareTriple(m1, delta, split_bit, m2),
            (sd2,),
            pre_cert=ap(m1),
            post_cert=cert(
                [
                    step("s1", "Relabel", sd2_left, narrowed),
                    step("s2", "AP", passive, passive),
                    step("s3", "StarI", sd2_post, m2, "s1", "s2"),
                ],
                "s3",
            ),
        )

        # k := tail(r_i), then split r_i into its uniform head and tail
        shift = Assign("k", tail_e)
        sd3_left = conj(narrowed, espl(k, tail_e, d_krb), d_krb)
        sd3_post = star(sd3_left, passive, delta)
        sd3 = ProofTree("SDAssn", HoareTriple(m2, delta, shift, sd3_post))

        wide = conj(
            conj(u(Var(ri), d_krb), espl(Var(bi), head_e, d_krb), d_krb),
            espl(k, tail_e, d_krb),
            d_krb,
        )
        split_wide = star(u_leaf(bi), u_leaf("k"), d_krb)
        split_tight = star(u_leaf(bi), u_leaf("k"), d([bi, "k"]))
        regrouped = star(split_tight, passive, delta)

        body, prog = seq_chain(
            [pi1, pi2, sd3],
            [stretch, split_bit, shift],
            [phi(i), m1, m2, sd3_post],
            delta,
        )
        return ProofTree(
            "Weak",
            HoareTriple(phi(i), delta, prog, phi(i + 1)),
            (body,),
            pre_cert=ap(phi(i)),
            post_cert=cert(
                [
                    step("s1", "Relabel", sd3_left, wide),
                    step("s2", "Ax_SPL", wide, split_wide),
                    step("s3", "Trans", sd3_left, split_wide, "s1", "s2"),
                    step("s4", "Relabel", split_wide, split_tight),
                    step("s5", "Trans", sd3_left, split_tight, "s3", "s4"),
                    step("s6", "AP", passive, passive),
                    step("s7", "StarI", sd3_post, regrouped, "s5", "s6"),
                    step("s8", "CommAssoc", regrouped, phi(i + 1)),
                    step("s9", "Trans", sd3_post, phi(i + 1), "s7", "s8"),
                ],
                "s9",
            ),
        )

    def seed_proof() -> ProofTree:
        """{phi(h+1)} s_0 := k {psi(0)}: copy the residual key into s_0."""
        s0 = Var("s0")
        seed = Assign("s0", k)
        passive = sep(bits(0, h + 1))
        d_ks = d(["k", "s0"])
        sd_left = conj(u_leaf("k"), espl(s0, k, d_ks), d_ks)
        sd_post = star(sd_left, passive, delta)
        sd = ProofTree("SDAssn", HoareTriple(phi(h + 1), delta, seed, sd_post))
        and_t = conj(ind(k, s0, d_ks), u(k, d_ks), d_ks)
        return ProofTree(
            "Weak",
            HoareTriple(phi(h + 1), delta, seed, psi(0)),
            (sd,),
            pre_cert=ap(phi(h + 1)),
            post_cert=cert(
                [
                    step("s1", "AP", sd_left, sd_left),
                    step("s2", "AndE1", sd_left, u(k, d_ks), "s1"),
                    step("s3", "AndE2", sd_left, espl(s0, k, d_ks), "s1"),
                    step("s4", "W2", espl(s0, k, d_ks), eq(s0, k, d_ks)),
                    step("s5", "Trans", sd_left, eq(s0, k, d_ks), "s3", "s4"),
                    step("s6", "T1", eq(s0, k, d_ks), eq(k, s0, d_ks)),
                    step("s7", "Trans", sd_left, eq(k, s0, d_ks), "s5", "s6"),
                    step("s8", "W1", eq(k, s0, d_ks), ind(k, s0, d_ks)),
                    step("s9", "Trans", sd_left, ind(k, s0, d_ks), "s7", "s8"),
                    step("s10", "AndI", sd_left, and_t, "s9", "s2"),
                    step("s11", "U1", and_t, u(s0, d_ks)),
                    step("s12", "Trans", sd_left, u(s0, d_ks), "s10", "s11"),
                    step("s13", "Relabel", u(s0, d_ks), u_leaf("s0")),
                    step("s14", "Trans", sd_left, u_leaf("s0"), "s12", "s13"),
                    step("s15", "AP", passive, passive),
                    step("s16", "StarI", sd_post, psi(0), "s14", "s15"),
                ],
                "s16",
            ),
        )

    def merge_proof(i: int) -> ProofTree:
        """{psi(i)} s_{i+1} := concat(s_i, b_i) {psi(i+1)}"""
        si, bi, sj = f"s{i}", f"b{i}", f"s{i + 1}"
        cat_e = App("concat", (Var(si), Var(bi)))
        grow = Assign(sj, cat_e)
        passive = sep(bits(i + 1, h + 1))
        pair = star(u_leaf(si), u_leaf(bi), d([si, bi]))
        sd_pre = star(pair, passive, delta)
        xi1 = d([si, bi, sj])
        sd_left = conj(pair, espl(Var(sj), cat_e, xi1), xi1)
        sd_post = star(sd_left, passive, delta)
        sd = ProofTree("SDAssn", HoareTriple(sd_pre, delta, grow, sd_post))
        if i < h:
            pre_cert = cert([step("s1", "StarA1", psi(i), sd_pre)], "s1")
        else:
            pre_cert = cert([step("s1", "StarUnitI", psi(i), sd_pre)], "s1")
        return ProofTree(
            "Weak",
            HoareTriple(psi(i), delta, grow, psi(i + 1)),
            (sd,),
            pre_cert=pre_cert,
            post_cert=cert(
                [
                    step("s1", "Ax_MRG", sd_left, u(Var(sj), xi1)),
                    step("s2", "Relabel", u(Var(sj), xi1), u_leaf(sj)),
                    step("s3", "Trans", sd_left, u_leaf(sj), "s1", "s2"),
                    step("s4", "AP", passive, passive),
                    step("s5", "StarI", sd_post, psi(i + 1), "s3", "s4"),
                ],
                "s5",
            ),
        )

    stages = [round_proof(i) for i in range(h + 1)]
    stages.append(seed_proof())
    stages.extend(merge_proof(i) for i in range(h + 1))
    cuts = [phi(i) for i in range(h + 2)] + [psi(i) for i in range(h + 2)]
    progs = [t.conclusion.program for t in stages]
    body, prog = seq_chain(stages, progs, cuts, delta)

    pre = u(k, delta)
    post = u(Var(f"s{h + 1}"), delta)
    root = ProofTree(
        "Weak",
        HoareTriple(pre, delta, prog, post),
        (body,),
        pre_cert=cert([step("s1", "StarUnitI", pre, phi(0))], "s1"),
        post_cert=cert([step("s1", "StarUnitE", psi(h + 1), post)], "s1"),
    )
    return [G_DECL], root


# ---------------------------------------------------------------------------
# Sample stores and formulas


def otp_input_store(ns) -> Store:
    """Zeroed key and ciphertext, lopsided message: 0^n w.p. 3/4, 1^n w.p. 1/4."""
    env = Env.make({"c": STR_N, "k": STR_N, "m": STR_N})
    family = {}
    for n in ns:
        zero, one = "0" * n, "1" * n
        family[n] = FinDist(
            {
                memory(env, n, {"c": zero, "k": zero, "m": zero}): Fraction(3, 4),
                memory(env, n, {"c": zero, "k": zero, "m": one}): Fraction(1, 4),
            }
        )
    return Store(env, family)


def mirrored_pair_store(ns) -> Store:
    """r uniform and s its bitwise complement: equal marginals, never equal."""
    env = Env.make({"r": STR_N, "s": STR_N})
    family = {}
    for n in ns:
        probs = {}
        for v in range(2 ** n):
            r_bits = format(v, f"0{n}b")
            s_bits = "".join("1" if ch == "0" else "0" for ch in r_bits)
            probs[memory(env, n, {"r": r_bits, "s": s_bits})] = Fraction(
                1, 2 ** n
            )
        family[n] = FinDist(probs)
    return Store(env, family)


# ---------------------------------------------------------------------------
# Driver


def verify(name: str, decls: list[str], tree: ProofTree) -> str:
    symbols = NO_SYMBOLS
    for text in decls:
        symbols = parse_decls(text, symbols)
    check_triple(tree, symbols)
    script = proof_to_text(tree, decls)
    symbols2, reparsed = parse_proof_with_decls(script)
    if reparsed != tree:
        raise AssertionError(f"{name}: proof text does not round trip")
    check_triple(reparsed, symbols2)
    return script


def count_nodes(tree: ProofTree) -> int:
    return 1 + sum(count_nodes(c) for c in tree.children)


def main() -> int:
    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus")
    dest.mkdir(parents=True, exist_ok=True)

    proofs = {
        "otp": build_otp(),
        "potp": build_potp(),
        "xor": build_xor(),
        "exp_h0": build_exp(0),
        "exp_h1": build_exp(1),
        "exp_h2": build_exp(2),
    }
    for name, (decls, tree) in proofs.items():
        script = verify(name, decls, tree)
        (dest / f"{name}.proof").write_text(script)
        prog_text = "".join(f"{d}\n" for d in decls)
        prog_text += program_to_text(tree.conclusion.program) + "\n"
        (dest / f"{name}.prog").write_text(prog_text)
        print(f"{name}: {count_nodes(tree)} proof nodes, checked")

    # spot-validate the two stub-free proofs on real distributions
    otp_tree = proofs["otp"][1]
    msg = otp_input_store((1, 2, 3))
    report = validate_triple(otp_tree.conclusion, [msg])
    if not (report.ok and report.hits == 1):
        raise AssertionError("otp triple fails on the sample store")
    out = run_store(msg, otp_tree.conclusion.program)

    xor_tree = proofs["xor"][1]
    xenv = xor_tree.conclusion.env
    diracs = []
    for kb in "01":
        for mb in "01":
            mem = memory(xenv, 1, {"c": "0", "k": kb, "m": mb})
            diracs.append(Store(xenv, {1: FinDist.dirac(mem)}))
    report = validate_triple(xor_tree.conclusion, diracs)
    if not (report.ok and report.hits == 4):
        raise AssertionError("xor triple fails on dirac inputs")

    (dest / "msg.store").write_text(store_to_text(msg))
    (dest / "otp_out.store").write_text(store_to_text(out))
    (dest / "pair.store").write_text(store_to_text(mirrored_pair_store((1, 2))))

    post = proofs["otp"][1].conclusion.post
    (dest / "psi_otp.formula").write_text(formula_to_text(post) + "\n")
    pair_env = Env.make({"r": STR_N, "s": STR_N})
    (dest / "eq_pair.formula").write_text(
        formula_to_text(eq(Var("r"), Var("s"), pair_env)) + "\n"
    )
    (dest / "espl_pair.formula").write_text(
        formula_to_text(espl(Var("r"), Var("s"), pair_env)) + "\n"
    )
    print(f"wrote {len(list(dest.iterdir()))} files to {dest}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
