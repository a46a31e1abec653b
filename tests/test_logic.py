"""Satisfaction, axiom schemas, and the entailment derivation checker."""

import importlib.util
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cslcheck import _gen
from cslcheck.dist import FinDist, Store, memory, project, uniform_store, zero_store
from cslcheck.hoare import ProofError, check_triple
from cslcheck.logic import (
    SCHEMA_TEMPLATES,
    CertError,
    SchemaError,
    check_hilbert,
    entailment_holds_on,
    load_registry,
    match_axiom,
    sat_bi,
    sat_formula,
    search_annotation,
)
from cslcheck.syntax import (
    ATOM_EQ,
    ATOM_ESPL,
    ATOM_IND,
    BOOL,
    And,
    App,
    Atom,
    CertStep,
    EntailmentCert,
    Env,
    Formula,
    NO_SYMBOLS,
    Star,
    SymbolTable,
    parse_cert,
    parse_decls,
    parse_env,
    parse_formula,
    parse_formula_with_decls,
    parse_proof,
    parse_proof_with_decls,
)
from cslcheck.types import TypeCheckError, wf_formula


HALF = Fraction(1, 2)
REG = load_registry()
ROOT = Path(__file__).resolve().parent.parent


def mem(env, n=1, **values):
    if isinstance(env, str):
        env = parse_env(env)
    return memory(env, n, values)


def anticorrelated_store():
    """x and y are each uniform bits, but always unequal."""
    env = parse_env("{x: Bool, y: Bool}")
    d = FinDist({mem(env, x="0", y="1"): HALF, mem(env, x="1", y="0"): HALF})
    return Store(env, {1: d})


def product_store():
    env = parse_env("{x: Bool, y: Bool}")
    return uniform_store(env, (1,))


# Satisfaction


def test_sat_top_bot():
    s = uniform_store(parse_env("{x: Bool}"), (1,))
    assert sat_formula(s, parse_formula("(T){x: Bool}"))
    assert not sat_formula(s, parse_formula("(F){x: Bool}"))


def test_sat_requires_matching_env():
    s = uniform_store(parse_env("{x: Bool}"), (1,))
    with pytest.raises(Exception):
        sat_formula(s, parse_formula("(T){y: Bool}"))


def test_sat_reads_the_marginal_on_the_annotation():
    rng = random.Random(28)
    counts = Counter()
    for _ in range(300):
        env = _gen.gen_env(rng, 2, 4)
        names = env.names()
        sub = env.restrict(rng.sample(names, rng.randint(1, len(names) - 1)))
        f = _gen.gen_formula(rng, sub)
        s = _gen.gen_store(rng, env, (1, 2))  # over more variables than f
        for epsilon in (Fraction(0), Fraction(1, 4)):
            verdict = sat_formula(s, f, epsilon)
            assert verdict == sat_formula(project(s, f.annotation), f, epsilon)
            counts[epsilon, verdict] += 1
    assert len(counts) == 4 and min(counts.values()) >= 50, counts


def test_sat_names_both_environments_when_the_store_lacks_a_variable():
    s = uniform_store(parse_env("{x: Bool, y: Str[n]}"), (1,))
    for f in ("(T){z: Bool}", "(U(x)){x: Str[n]}", "(x == x){x: Bool, z: Bool}"):
        with pytest.raises(TypeCheckError) as exc:
            sat_formula(s, parse_formula(f))
        want = f"project: {f[f.index('{'):]} is not a sub-environment of"
        assert str(exc.value) == want + " {x: Bool, y: Str[n]}"


def test_sat_uniform_atom():
    env = parse_env("{x: Str[n]}")
    assert sat_formula(uniform_store(env, (1, 2)), parse_formula("(U(x)){x: Str[n]}"))
    assert not sat_formula(zero_store(env, (1, 2)), parse_formula("(U(x)){x: Str[n]}"))


def test_sat_uniform_of_compound_expression():
    s = zero_store(parse_env("{x: Str[n]}"), (1, 2))
    f = parse_formula("(U(xor(x, rnd()))){x: Str[n]}")
    assert sat_formula(s, f)


def test_sat_eq_compares_distributions_not_values():
    s = anticorrelated_store()
    # x and y have the same (uniform) distribution even though they never agree
    assert sat_formula(s, parse_formula("(x == y){x: Bool, y: Bool}"))
    assert not sat_formula(s, parse_formula("(x .= y){x: Bool, y: Bool}"))
    assert sat_formula(s, parse_formula("(x .= not(y)){x: Bool, y: Bool}"))


def test_sat_ind_tolerance():
    s = anticorrelated_store()
    f = parse_formula("(x ~~ y){x: Bool, y: Bool}")
    assert sat_formula(s, f)  # equal distributions, distance zero
    g = parse_formula("(x ~~ setzero[1]()){x: Bool, y: Bool}")
    assert not sat_formula(s, g)
    assert sat_formula(s, g, epsilon=HALF)


def test_sat_and():
    s = anticorrelated_store()
    f = parse_formula("((x == y) /\\ (x .= not(y))){x: Bool, y: Bool}")
    assert sat_formula(s, f)


def test_sat_star_product_criterion():
    f = parse_formula("((U(x)){x: Bool} * (U(y)){y: Bool}){x: Bool, y: Bool}")
    assert sat_formula(product_store(), f)
    # per-component marginals are uniform, but the joint is not a product
    assert not sat_formula(anticorrelated_store(), f)


def test_sat_star_respects_annotations():
    # the split is dictated by the annotations, not searched for
    s = product_store()
    f = parse_formula("((U(x)){y: Bool} * (U(y)){x: Bool}){x: Bool, y: Bool}")
    with pytest.raises(Exception):
        sat_formula(s, f)


def test_sat_bi_searches_for_a_split():
    f = parse_formula("((U(x)){x: Bool} * (T){y: Bool}){x: Bool, y: Bool}")
    assert sat_bi(product_store(), f)
    # sat_bi ignores the (here misleading) annotations and still finds x | y
    g = parse_formula("((U(x)){y: Bool} * (T){x: Bool}){x: Bool, y: Bool}")
    assert sat_bi(product_store(), g)
    # T is satisfiable on any part, so the whole-store split rescues U(x) * T
    assert sat_bi(anticorrelated_store(), f)
    # but no split makes the two uniform bits independent
    h = parse_formula("((U(x)){x: Bool} * (U(y)){y: Bool}){x: Bool, y: Bool}")
    assert not sat_bi(anticorrelated_store(), h)


def test_sat_formula_implies_sat_bi():
    f = parse_formula("((U(x)){x: Bool} * (U(y)){y: Bool}){x: Bool, y: Bool}")
    s = product_store()
    assert sat_formula(s, f) and sat_bi(s, f)


def test_search_annotation_reconstructs_a_witness():
    s = product_store()
    f = parse_formula("((U(x)){x: Bool} * (U(y)){y: Bool}){x: Bool, y: Bool}")
    found = search_annotation(s, f.body, epsilon=Fraction(0))
    assert found is not None
    assert sat_formula(s, found)


def test_search_annotation_searches_the_splits_sat_bi_does():
    h = parse_formula("((U(x)){x: Bool} * (U(y)){y: Bool}){x: Bool, y: Bool}")
    assert search_annotation(anticorrelated_store(), h.body) is None
    # the misleading annotations of g are dropped; the first split that
    # works, smallest left part first, gives x to U(x) and nothing to T
    g = parse_formula("((U(x)){y: Bool} * (T){x: Bool}){x: Bool, y: Bool}")
    found = search_annotation(product_store(), g.body)
    assert found == parse_formula("((U(x)){x: Bool} * (T){}){x: Bool, y: Bool}")
    assert sat_formula(product_store(), found)


@pytest.mark.parametrize("atom", ["x == y", "x ~~ y", "x == z"])
def test_an_ill_formed_atom_raises_in_plain_satisfaction(atom):
    # x is a Bool and y a Str[n], and z is unbound: the atom does not type
    # under the store, nor under any split of it that covers the atom
    env = parse_env("{x: Bool, y: Str[n]}")
    s = uniform_store(env, (1,))
    body = parse_formula(f"({atom}){{x: Bool, y: Str[n], z: Bool}}").body
    with pytest.raises(TypeCheckError):
        sat_bi(s, Formula(body, env))
    with pytest.raises(TypeCheckError):
        search_annotation(s, body)


def test_entailment_holds_on():
    s = anticorrelated_store()
    lhs = parse_formula("(x == y){x: Bool, y: Bool}")
    rhs = parse_formula("(x ~~ y){x: Bool, y: Bool}")
    assert entailment_holds_on(s, lhs, rhs)
    # vacuously true when the store misses the hypothesis
    bad = parse_formula("(x .= y){x: Bool, y: Bool}")
    assert entailment_holds_on(s, bad, parse_formula("(F){x: Bool, y: Bool}"))


# Axiom schemas


ENV2 = "{x: Str[n], y: Str[n]}"


def instance(name, lhs, rhs, env=ENV2, symbols=NO_SYMBOLS):
    """Parse lhs/rhs under the outer annotation env and match them."""
    l, r = (parse_formula(f"({side}){env}", symbols) for side in (lhs, rhs))
    match_axiom(name, l, r, symbols)
    return l, r


def test_validity_and_symmetry_schemas():
    l, r = instance("T0", "T", "x == x")
    assert entailment_holds_on(uniform_store(parse_env(ENV2), (1,)), l, r)
    instance("S1", "x ~~ y", "y ~~ x")
    instance("T2", "x == y /\\ y == xor(x, y)", "x == xor(x, y)")


def test_w1_w2_u1_schemas():
    instance("W1", "x == y", "x ~~ y")
    instance("W2", "x .= y", "x == y")
    instance("U1", "x ~~ y /\\ U(x)", "U(y)")


# (schema, accepted (lhs, rhs), near miss (lhs, rhs), what the near miss gets
# wrong, the matcher's message)
SIMPLE_SCHEMA_CASES = [
    (
        "S0",
        ("T", "x ~~ x"),
        ("T", "x ~~ y"),
        "must be identical",
        "the conclusion does not fit the template: e stands for both x and y",
    ),
    (
        "T0",
        ("T", "x == x"),
        ("T", "x == y"),
        "must be identical",
        "the conclusion does not fit the template: e stands for both x and y",
    ),
    (
        "S1",
        ("x ~~ y", "y ~~ x"),
        ("x ~~ y", "x ~~ y"),
        "must swap",
        "the conclusion does not fit the template: g stands for both y and x",
    ),
    (
        "T1",
        ("x == y", "y == x"),
        ("x == y", "x == y"),
        "must swap",
        "the conclusion does not fit the template: g stands for both y and x",
    ),
    (
        "S2",
        ("x ~~ y /\\ y ~~ xor(x, y)", "x ~~ xor(x, y)"),
        ("x ~~ y /\\ x ~~ xor(x, y)", "x ~~ xor(x, y)"),
        "middle operands must coincide",
        "the hypothesis does not fit the template: g stands for both y and x",
    ),
    (
        "T2",
        ("x == y /\\ y == xor(x, y)", "x == xor(x, y)"),
        ("x == y /\\ y == xor(x, y)", "y == xor(x, y)"),
        "chain the outer operands",
        "the conclusion does not fit the template: e stands for both x and y",
    ),
    (
        "W1",
        ("x == y", "x ~~ y"),
        ("x == y", "y ~~ x"),
        "operands must match",
        "the conclusion does not fit the template: e stands for both x and y",
    ),
    (
        "W2",
        ("x .= y", "x == y"),
        ("x .= y", "x == xor(x, y)"),
        "operands must match",
        r"the conclusion does not fit the template: "
        r"g stands for both y and xor\(x, y\)",
    ),
    (
        "U1",
        ("x ~~ y /\\ U(x)", "U(y)"),
        ("x ~~ y /\\ U(y)", "U(y)"),
        "U must speak about the left operand",
        "the hypothesis does not fit the template: e stands for both x and y",
    ),
    (
        "U1",
        ("x ~~ y /\\ U(x)", "U(y)"),
        ("x ~~ y /\\ U(x)", "U(x)"),
        "transports U",
        "the conclusion does not fit the template: g stands for both y and x",
    ),
    # TopI, then S0 (or T0), then Trans derives what these near misses claim
    (
        "S0",
        ("T", "x ~~ x"),
        ("x == y", "x ~~ x"),
        "hypothesis must be T",
        r"the hypothesis does not fit the template: \(x == y\).* is not of the form T",
    ),
    (
        "T0",
        ("T", "x == x"),
        ("x ~~ y", "x == x"),
        "hypothesis must be T",
        r"the hypothesis does not fit the template: \(x ~~ y\).* is not of the form T",
    ),
]


# A case's id names the near miss, not the message, so it stays put when the
# message is reworded.
@pytest.mark.parametrize(
    "name, accepted, near_miss, message",
    [(nm, acc, near, msg) for nm, acc, near, _, msg in SIMPLE_SCHEMA_CASES],
    ids=[
        f"{case[0]}-accepted{i}-near_miss{i}-{case[3]}"
        for i, case in enumerate(SIMPLE_SCHEMA_CASES)
    ],
)
def test_simple_schema_matchers(name, accepted, near_miss, message):
    instance(name, *accepted)
    with pytest.raises(SchemaError, match=message):
        instance(name, *near_miss)


def test_schema_rejects_wrong_shape():
    lhs = parse_formula("(x == y){x: Str[n], y: Str[n]}")
    rhs = parse_formula("(y ~~ x){x: Str[n], y: Str[n]}")  # W1 keeps operand order
    with pytest.raises(
        SchemaError,
        match="the conclusion does not fit the template: e stands for both x and y",
    ):
        match_axiom("W1", lhs, rhs)


def test_schema_rejects_mismatched_annotations():
    lhs = parse_formula("(x == y){x: Str[n], y: Str[n]}")
    rhs = parse_formula("(x ~~ y){x: Str[n], y: Str[n], z: Bool}")
    with pytest.raises(SchemaError):
        match_axiom("W1", lhs, rhs)


def test_registry_gates_schemas():
    lhs = parse_formula("(x == y){x: Str[n], y: Str[n]}")
    rhs = parse_formula("(x ~~ y){x: Str[n], y: Str[n]}")
    match_axiom("W1", lhs, rhs)  # enabled by default
    with pytest.raises(SchemaError, match="disabled"):
        match_axiom("W1", lhs, rhs, registry=frozenset())
    with pytest.raises(SchemaError, match="unknown"):
        match_axiom("NoSuchSchema", lhs, rhs)


def test_packaged_registry_is_read_once(tmp_path):
    assert load_registry() is load_registry()
    good = tmp_path / "good.json"
    good.write_text('{"enabled": ["W1"]}')
    assert load_registry(str(good)) == frozenset({"W1"})
    bad = tmp_path / "bad.json"
    bad.write_text('{"enabled": ["XorPi"]}')
    with pytest.raises(ValueError, match="unknown schema name"):
        load_registry(str(bad))


def test_pseudorandomness_schema_side_conditions():
    grow = parse_decls("decl g : Str[n] -> Str[2n] det;")
    env = "{x: Str[n]}"
    instance("Ax_POTP", "U(x)", "U(g(x))", env, grow)
    # length-preserving symbols are rejected
    keep = parse_decls("decl g : Str[n] -> Str[n] det;")
    with pytest.raises(SchemaError, match="length-increasing"):
        instance("Ax_POTP", "U(x)", "U(g(x))", env, keep)
    # randomized symbols are rejected
    rnd = parse_decls("decl g : Str[n] -> Str[2n] rnd;")
    with pytest.raises(SchemaError, match="deterministic"):
        instance("Ax_POTP", "U(x)", "U(g(x))", env, rnd)
    # the argument must be a full-size seed
    short_sym = parse_decls("decl g : Str[1] -> Str[n+1] det;")
    with pytest.raises(SchemaError, match="Str\\[n\\]"):
        instance("Ax_POTP", "U(x)", "U(g(x))", "{x: Str[1]}", short_sym)


SPL_ENV = "{b: Bool, r: Str[n+1], s: Str[n]}"


def test_split_schema():
    lhs = parse_formula(
        "((U(r) /\\ (b .= head(r))) /\\ (s .= tail(r)))" + SPL_ENV
    )
    rhs = parse_formula(
        "((U(b)){b: Bool} * (U(s)){s: Str[n]})" + SPL_ENV
    )
    match_axiom("Ax_SPL", lhs, rhs)
    # the conclusion must put the bit first and the tail second
    bad = parse_formula(
        "((U(r)){r: Str[n+1]} * (U(s)){s: Str[n]})" + SPL_ENV
    )
    with pytest.raises(
        SchemaError,
        match="the conclusion does not fit the template: b stands for both b and r",
    ):
        match_axiom("Ax_SPL", lhs, bad)


def test_split_schema_side_condition():
    # an extra variable in the outer annotation fits the template but not
    # the side condition
    wide = "{b: Bool, r: Str[n+1], s: Str[n], z: Bool}"
    lhs = parse_formula("((U(r) /\\ (b .= head(r))) /\\ (s .= tail(r)))" + wide)
    rhs = parse_formula("((U(b)){b: Bool} * (U(s)){s: Str[n]})" + wide)
    with pytest.raises(SchemaError, match="side condition violated: r, b and s"):
        match_axiom("Ax_SPL", lhs, rhs)


MRG_ENV = "{b: Bool, r: Str[n], s: Str[n+1]}"


def test_merge_schema():
    lhs = parse_formula(
        "(((U(r)){r: Str[n]} * (U(b)){b: Bool}){b: Bool, r: Str[n]}"
        " /\\ (s .= concat(r, b)))" + MRG_ENV
    )
    rhs = parse_formula("(U(s))" + MRG_ENV)
    match_axiom("Ax_MRG", lhs, rhs)
    with pytest.raises(SchemaError):
        match_axiom("Ax_MRG", lhs, parse_formula("(U(r))" + MRG_ENV))


def test_xor_branch_schemas():
    delta = "{c: Bool, k: Bool, m: Bool}"
    lhs1 = parse_formula("(k .= 1)" + delta)
    rhs1 = parse_formula("((T){c: Bool, m: Bool} /\\ (k .= 1){k: Bool, m: Bool})" + delta)
    match_axiom("XorPi1", lhs1, rhs1)

    lhs2 = parse_formula("((c .= not(m)) /\\ (k .= 1))" + delta)
    rhs2 = parse_formula("(c .= xor(k, m))" + delta)
    match_axiom("XorPi2", lhs2, rhs2)
    # the assigned expression must match the pinned bit
    bad = parse_formula("((c .= m) /\\ (k .= 1))" + delta)
    with pytest.raises(SchemaError, match="guard bit"):
        match_axiom("XorPi2", bad, rhs2)


def test_relabel_schema_grows_or_shrinks_annotations():
    small = parse_formula("(U(x)){x: Bool}")
    big = parse_formula("(U(x)){x: Bool, y: Bool}")
    match_axiom("Relabel", small, big)
    match_axiom("Relabel", big, small)
    with pytest.raises(SchemaError):
        match_axiom("Relabel", small, parse_formula("(T){x: Bool}"))


def test_commassoc_schema():
    d = "{x: Bool, y: Bool, z: Bool}"
    lhs = parse_formula(
        "((U(x)){x: Bool} * ((U(y)){y: Bool} * (U(z)){z: Bool}){y: Bool, z: Bool})" + d
    )
    rhs = parse_formula(
        "(((U(z)){z: Bool} * (U(x)){x: Bool}){x: Bool, z: Bool} * (U(y)){y: Bool})" + d
    )
    match_axiom("CommAssoc", lhs, rhs)
    bad = parse_formula("((U(x)){x: Bool} * (T){y: Bool, z: Bool})" + d)
    with pytest.raises(SchemaError):
        match_axiom("CommAssoc", lhs, bad)


def test_star_unit_schemas():
    d = "{x: Bool}"
    starred = parse_formula("((U(x)){x: Bool} * (T){})" + d)
    plain = parse_formula("(U(x))" + d)
    match_axiom("StarUnitE", starred, plain)
    match_axiom("StarUnitI", plain, starred)
    # the unit must sit over the empty environment
    heavy = parse_formula("((U(x)){x: Bool} * (T){y: Bool}){x: Bool, y: Bool}")
    with pytest.raises(SchemaError):
        match_axiom("StarUnitE", heavy, parse_formula("(U(x)){x: Bool, y: Bool}"))


CKM = "{c: Str[n], k: Str[n], m: Str[n]}"
B3 = "{c: Bool, k: Bool, m: Bool}"
# A condition the matchers and the DAssn rule do not check themselves, an
# instance that breaks only it, and the well-formedness error that refuses
# the instance first: match_axiom checks both sides, and check_triple a
# node's post, before the matcher or the rule runs.
DECIDED_BY_WELL_FORMEDNESS = {
    "Ax_POTP: g is a declared symbol": (
        "Ax_POTP",
        "(U(k)){k: Str[n]}",
        # parsed under its own declaration, matched under the hypothesis's
        "decl g : Str[n] -> Str[n+1] det; (U(g(k))){k: Str[n]}",
        "formula: unknown function symbol g",
    ),
    "Ax_POTP: no built-in symbol stands for g": (
        "Ax_POTP",
        "(U(k)){k: Str[n]}",
        "(U(tail(k))){k: Str[n]}",
        "formula: tail needs a string of size p+1, got Str[n]",
    ),
    "Ax_POTP: g takes Str[n]": (
        "Ax_POTP",
        "decl g : Str[n+1] -> Str[n+2] det; (U(k)){k: Str[n]}",
        "(U(g(k))){k: Str[n]}",
        "formula.g[0]: expected Str[n+1], got Str[n]",
    ),
    "Ax_POTP: g takes no size annotation": (
        "Ax_POTP",
        "decl g : Str[n] -> Str[n+1] det; (U(k)){k: Str[n]}",
        "(U(g[1](k))){k: Str[n]}",
        "formula: g takes no size annotation",
    ),
    "AuxPOTP1: k stays out of the right component": (
        "AuxPOTP1",
        "(((T){} /\\ (k == rnd()){k: Str[n]}){k: Str[n]} * (T)" + CKM + ")" + CKM,
        "((U(k)){k: Str[n]} * (T){m: Str[n]})" + CKM,
        "formula: separating conjunction domains overlap on ['k']",
    ),
    "AuxPOTP2: m stays out of the uniform component": (
        "AuxPOTP2",
        "((c .= xor(m, k))" + CKM + " /\\ ((U(k)){k: Str[n], m: Str[n]}"
        " * (T){m: Str[n]}){k: Str[n], m: Str[n]})" + CKM,
        "((T){m: Str[n]} * (U(c)){c: Str[n]})" + CKM,
        "formula.right: separating conjunction domains overlap on ['m']",
    ),
    "AuxPOTP2: the xored expression lives in the uniform component": (
        "AuxPOTP2",
        "((c .= xor(m, k))" + CKM + " /\\ ((U(k)){}"
        " * (T){m: Str[n]}){k: Str[n], m: Str[n]})" + CKM,
        "((T){m: Str[n]} * (U(c)){c: Str[n]})" + CKM,
        "formula.right.left: unbound variable k",
    ),
    "XorPi1: the T annotation extends into the outer one": (
        "XorPi1",
        "(k .= 1)" + B3,
        "((T){c: Bool, k: Bool, m: Bool, z: Bool} /\\ (k .= 1){k: Bool})" + B3,
        "formula.left: conjunct annotation does not extend into the parent",
    ),
    "XorPi1: the atom annotation extends into the outer one": (
        "XorPi1",
        "(k .= 1)" + B3,
        "((T)" + B3 + " /\\ (k .= 1){k: Bool, m: Str[n]})" + B3,
        "formula.right: conjunct annotation does not extend into the parent",
    ),
    "XorPi2: m is Bool": (
        "XorPi2",
        "((c .= m) /\\ (k .= 0)){c: Str[n], k: Bool, m: Str[n]}",
        "(c .= xor(k, m)){c: Str[n], k: Bool, m: Str[n]}",
        "formula.rhs: xor requires equal sizes: Bool vs Str[n]",
    ),
    "XorPi2: c is Bool": (
        "XorPi2",
        "((c .= not(m)) /\\ (k .= 1)){c: Str[n], k: Bool, m: Bool}",
        "(c .= xor(k, m)){c: Str[n], k: Bool, m: Bool}",
        "formula.left: atom operand types differ: Str[n] vs Bool",
    ),
    "XorPi2: k is Bool": (
        "XorPi2",
        "((c .= not(m)) /\\ (k .= 1)){c: Bool, k: Str[n], m: Bool}",
        "(c .= xor(k, m)){c: Bool, k: Str[n], m: Bool}",
        "formula.right: atom operand types differ: Str[n] vs Bool",
    ),
    "DAssn: .= gets a deterministic expression": (
        "DAssn",
        "(T){k: Str[n]}",
        "(k .= rnd()){k: Str[n]}",
        "root: formula.rhs: .= applies only to deterministic expressions",
    ),
}


@pytest.mark.parametrize(
    "rule, lhs, rhs, want",
    DECIDED_BY_WELL_FORMEDNESS.values(),
    ids=DECIDED_BY_WELL_FORMEDNESS,
)
def test_well_formedness_decides_what_the_matchers_do_not_check(rule, lhs, rhs, want):
    # a SchemaError is neither exception, so it fails the test
    with pytest.raises((TypeCheckError, ProofError)) as exc:
        if rule == "DAssn":
            node = {"rule": rule, "env": "{k: Str[n]}", "pre": lhs,
                    "program": "k := rnd()", "post": rhs, "children": []}
            check_triple(parse_proof(json.dumps({"root": node})))
        else:
            symbols, lhs = parse_formula_with_decls(lhs)
            _, rhs = parse_formula_with_decls(rhs, symbols)
            match_axiom(rule, lhs, rhs, symbols)
    assert str(exc.value) == want


STARRED = "((U(x)){x: Bool} * (T){}){x: Bool}"
UNIT_FIRST = "((T){} * (U(x)){x: Bool}){x: Bool}"
NO_UNIT = "((U(x)){x: Bool} * (T){y: Bool}){x: Bool, y: Bool}"


@pytest.mark.parametrize(
    "schema, lhs, rhs, want",
    [
        ("StarUnitE", "(U(x)){x: Bool}", "(U(x)){x: Bool}",
         "the hypothesis must be a separating conjunction"),
        ("StarUnitE", NO_UNIT, "(U(x)){x: Bool, y: Bool}",
         "the hypothesis must have a T component over the empty environment"),
        ("StarUnitE", STARRED, "(F){x: Bool}",
         "the conclusion must be the non-unit component at the outer annotation"),
        ("StarUnitE", UNIT_FIRST, "(U(x)){x: Bool, y: Bool}",
         "the conclusion must be the non-unit component at the outer annotation"),
        ("StarUnitI", "(U(x)){x: Bool}", "(U(x)){x: Bool}",
         "the conclusion must be a separating conjunction"),
        ("StarUnitI", "(U(x)){x: Bool, y: Bool}", NO_UNIT,
         "the conclusion must have a T component over the empty environment"),
        ("StarUnitI", "(F){x: Bool}", STARRED,
         "the hypothesis must be the non-unit component at the outer annotation"),
        ("StarUnitI", "(U(x)){x: Bool, y: Bool}", UNIT_FIRST,
         "the hypothesis must be the non-unit component at the outer annotation"),
    ],
)
def test_star_unit_failures_say_which_side_is_wrong(schema, lhs, rhs, want):
    with pytest.raises(SchemaError) as exc:
        match_axiom(schema, parse_formula(lhs), parse_formula(rhs))
    assert str(exc.value) == f"{schema}: {want}"


def schema_steps(tree):
    """Every certificate step of a proof tree that names a schema."""
    for cert in (tree.pre_cert, tree.post_cert):
        for step in cert.steps if cert else ():
            if step.rule != "Trans" and step.rule in REG:
                yield step
    for child in tree.children:
        yield from schema_steps(child)


def test_every_corpus_schema_step_matches():
    proofs = [
        parse_proof_with_decls(path.read_text())
        for path in sorted((ROOT / "corpus").glob("*.proof"))
    ]
    tool = ROOT / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", tool)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    for h in range(7):
        decls, tree = build_corpus.build_exp(h)
        symbols = SymbolTable()
        for decl in decls:
            symbols = parse_decls(decl, symbols)
        proofs.append((symbols, tree))
    used = set()
    for symbols, tree in proofs:
        for step in schema_steps(tree):
            match_axiom(step.rule, step.lhs, step.rhs, symbols)
            used.add(step.rule)
    assert {"Ax_SPL", "Ax_MRG"} <= used


# One accepted instance of each template schema, as (lhs, rhs, annotation).
TEMPLATE_INSTANCES = {
    "S0": ("T", "xor(x, y) ~~ xor(x, y)", ENV2),
    "S1": ("x ~~ xor(x, y)", "xor(x, y) ~~ x", ENV2),
    "S2": ("x ~~ y /\\ y ~~ xor(x, y)", "x ~~ xor(x, y)", ENV2),
    "T0": ("T", "xor(x, y) == xor(x, y)", ENV2),
    "T1": ("x == xor(x, y)", "xor(x, y) == x", ENV2),
    "T2": ("x == y /\\ y == xor(x, y)", "x == xor(x, y)", ENV2),
    "W1": ("x == xor(x, y)", "x ~~ xor(x, y)", ENV2),
    "W2": ("x .= xor(x, y)", "x == xor(x, y)", ENV2),
    "U1": ("x ~~ xor(x, y) /\\ U(x)", "U(xor(x, y))", ENV2),
    "Ax_SPL": (
        "(U(r) /\\ (b .= head(r))) /\\ (s .= tail(r))",
        "(U(b)){b: Bool} * (U(s)){s: Str[n]}",
        SPL_ENV,
    ),
    "Ax_MRG": (
        "((U(r)){r: Str[n]} * (U(b)){b: Bool}){b: Bool, r: Str[n]}"
        " /\\ (s .= concat(r, b))",
        "U(s)",
        MRG_ENV,
    ),
}


def expr_swaps(e):
    """e with the two arguments of one binary application swapped."""
    if isinstance(e, App):
        if len(e.args) == 2 and e.args[0] != e.args[1]:
            yield replace(e, args=e.args[::-1])
        for i, arg in enumerate(e.args):
            for new in expr_swaps(arg):
                yield replace(e, args=e.args[:i] + (new,) + e.args[i + 1 :])


def swap_operands(f):
    b = f.body
    if isinstance(b, Atom):
        if len(b.args) == 2 and b.args[0] != b.args[1]:
            yield Formula(Atom(b.kind, b.args[::-1]), f.annotation)
        for i, arg in enumerate(b.args):
            for new in expr_swaps(arg):
                args = b.args[:i] + (new,) + b.args[i + 1 :]
                yield Formula(Atom(b.kind, args), f.annotation)


def change_kind(f):
    b = f.body
    if isinstance(b, Atom) and len(b.args) == 2:
        for kind in (ATOM_IND, ATOM_EQ, ATOM_ESPL):
            if kind != b.kind:
                yield Formula(Atom(kind, b.args), f.annotation)


def change_annotation(f):
    yield Formula(f.body, Env.make({**dict(f.annotation.items()), "z": BOOL}))
    for name in f.annotation:
        yield Formula(f.body, f.annotation.remove(name))


def rewrites(f, at):
    """Every formula that differs from f by one rewrite `at` of a subformula."""
    yield from at(f)
    b = f.body
    if isinstance(b, (And, Star)):
        for new in rewrites(b.left, at):
            yield Formula(type(b)(new, b.right), f.annotation)
        for new in rewrites(b.right, at):
            yield Formula(type(b)(b.left, new), f.annotation)


def mutants(lhs, rhs, at):
    """Well-formed single-point mutations of the instance lhs |- rhs."""
    pairs = [(m, rhs) for m in rewrites(lhs, at)]
    pairs += [(lhs, m) for m in rewrites(rhs, at)]
    for pair in pairs:
        try:
            for f in pair:
                wf_formula(f)
        except TypeCheckError:
            continue
        yield pair


@pytest.mark.parametrize("name", sorted(SCHEMA_TEMPLATES))
@pytest.mark.parametrize("at", [swap_operands, change_kind, change_annotation])
def test_template_schemas_reject_single_point_mutations(name, at):
    lhs, rhs, env = TEMPLATE_INSTANCES[name]
    lhs, rhs = instance(name, lhs, rhs, env)
    near_misses = list(mutants(lhs, rhs, at))
    assert near_misses
    for mlhs, mrhs in near_misses:
        with pytest.raises(SchemaError):
            match_axiom(name, mlhs, mrhs)


# Derivation checking


def cert(steps, root):
    return EntailmentCert(tuple(steps), root)


def step(sid, rule, lhs, rhs, premises=()):
    return CertStep(sid, rule, parse_formula(lhs), parse_formula(rhs), tuple(premises))


D = "{x: Bool, y: Bool}"


def test_check_hilbert_small_derivation():
    c = cert(
        [
            step("a", "AP", "(U(x))" + D, "(U(x))" + D),
            step("b", "TopI", "(U(x))" + D, "(T)" + D),
            step("c", "AndI", "(U(x))" + D, "((U(x)) /\\ (T))" + D, ("a", "b")),
        ],
        "c",
    )
    lhs, rhs = check_hilbert(c)
    assert lhs == parse_formula("(U(x))" + D)
    assert rhs == parse_formula("((U(x)) /\\ (T))" + D)


def test_check_hilbert_axiom_leaves_and_trans():
    c = cert(
        [
            step("w1", "W1", "(x == y)" + D, "(x ~~ y)" + D),
            step("s1", "S1", "(x ~~ y)" + D, "(y ~~ x)" + D),
            step("t", "Trans", "(x == y)" + D, "(y ~~ x)" + D, ("w1", "s1")),
        ],
        "t",
    )
    lhs, rhs = check_hilbert(c)
    assert rhs == parse_formula("(y ~~ x)" + D)


def test_check_hilbert_rejects_forward_references():
    c = cert(
        [
            step("t", "Trans", "(x == y)" + D, "(y ~~ x)" + D, ("w1", "s1")),
            step("w1", "W1", "(x == y)" + D, "(x ~~ y)" + D),
            step("s1", "S1", "(x ~~ y)" + D, "(y ~~ x)" + D),
        ],
        "t",
    )
    with pytest.raises(CertError, match="earlier step"):
        check_hilbert(c)


def test_check_hilbert_rejects_duplicate_ids():
    c = cert(
        [
            step("a", "AP", "(T)" + D, "(T)" + D),
            step("a", "AP", "(T)" + D, "(T)" + D),
        ],
        "a",
    )
    with pytest.raises(CertError, match="duplicate"):
        check_hilbert(c)


def test_check_hilbert_rejects_unknown_rule():
    c = cert([step("a", "Blah", "(T)" + D, "(T)" + D)], "a")
    with pytest.raises(CertError, match="unknown step rule"):
        check_hilbert(c)


PREMISES = {
    "AP": 0, "TopI": 0, "BotE": 0, "AndI": 2, "AndE1": 1, "AndE2": 1,
    "StarI": 2, "StarC": 0, "StarA1": 0, "StarA2": 0,
}
WRONG_PREMISES = [
    (rule, got) for rule, k in PREMISES.items() for got in (k - 1, k + 1) if got >= 0
]


@pytest.mark.parametrize("rule, got", WRONG_PREMISES)
def test_a_core_step_with_the_wrong_number_of_premises_says_so(rule, got):
    p = step("p", "AP", "(T)" + D, "(T)" + D)
    c = cert([p, step("s", rule, "(T)" + D, "(T)" + D, ["p"] * got)], "s")
    with pytest.raises(CertError) as exc_info:
        check_hilbert(c)
    want = f"step s: {rule} needs exactly {PREMISES[rule]} premise(s), got {got}"
    assert str(exc_info.value) == want


@pytest.mark.parametrize("rule, premises, want", [
    ("Trans", ["p"], "Trans needs exactly 2 premises"),
    ("Trans", ["p"] * 3, "Trans needs exactly 2 premises"),
    ("W1", ["p"], "schema instances take no premises"),
])
def test_trans_and_schema_steps_check_their_premise_counts(rule, premises, want):
    p = step("p", "AP", "(T)" + D, "(T)" + D)
    c = cert([p, step("s", rule, "(x == y)" + D, "(x ~~ y)" + D, premises)], "s")
    with pytest.raises(CertError) as exc_info:
        check_hilbert(c)
    assert str(exc_info.value) == f"step s: {want}"


def test_check_hilbert_rejects_bad_ap():
    c = cert([step("a", "AP", "(T)" + D, "(F)" + D)], "a")
    with pytest.raises(CertError, match="identical"):
        check_hilbert(c)


def test_check_hilbert_rejects_disabled_schema():
    c = cert([step("a", "W1", "(x == y)" + D, "(x ~~ y)" + D)], "a")
    with pytest.raises(CertError, match="disabled"):
        check_hilbert(c, registry=frozenset(("Trans",)))


def test_check_hilbert_rejects_ill_formed_formulas():
    c = cert([step("a", "AP", "(U(z))" + D, "(U(z))" + D)], "a")
    with pytest.raises(CertError, match="ill-formed"):
        check_hilbert(c)


def test_check_hilbert_missing_root():
    c = cert([step("a", "AP", "(T)" + D, "(T)" + D)], "zz")
    with pytest.raises(CertError, match="root"):
        check_hilbert(c)


def test_check_hilbert_star_rules():
    sd = "{x: Bool, y: Bool}"
    lhs = "((U(x)){x: Bool} * (U(y)){y: Bool})" + sd
    swapped = "((U(y)){y: Bool} * (U(x)){x: Bool})" + sd
    c = cert([step("c", "StarC", lhs, swapped)], "c")
    check_hilbert(c)

    c2 = cert(
        [
            step("l", "W1", "(x == x){x: Bool}", "(x ~~ x){x: Bool}"),
            step("r", "AP", "(U(y)){y: Bool}", "(U(y)){y: Bool}"),
            step(
                "s",
                "StarI",
                "((x == x){x: Bool} * (U(y)){y: Bool})" + sd,
                "((x ~~ x){x: Bool} * (U(y)){y: Bool})" + sd,
                ("l", "r"),
            ),
        ],
        "s",
    )
    check_hilbert(c2)


def test_check_hilbert_star_assoc():
    d3 = "{x: Bool, y: Bool, z: Bool}"
    nested_r = (
        "((U(x)){x: Bool} * ((U(y)){y: Bool} * (U(z)){z: Bool}){y: Bool, z: Bool})" + d3
    )
    nested_l = (
        "(((U(x)){x: Bool} * (U(y)){y: Bool}){x: Bool, y: Bool} * (U(z)){z: Bool})" + d3
    )
    check_hilbert(cert([step("a", "StarA1", nested_r, nested_l)], "a"))
    check_hilbert(cert([step("a", "StarA2", nested_l, nested_r)], "a"))


def test_parse_cert_feeds_check_hilbert():
    doc = """
    {"steps": [
       {"id": "w", "rule": "W2", "lhs": "(x .= y){x: Bool, y: Bool}",
        "rhs": "(x == y){x: Bool, y: Bool}", "premises": []}
     ],
     "root": "w"}
    """
    lhs, rhs = check_hilbert(parse_cert(doc))
    assert rhs == parse_formula("(x == y){x: Bool, y: Bool}")
