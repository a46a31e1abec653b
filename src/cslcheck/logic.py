"""Formula satisfaction, axiom schemas, and the entailment checker.

Satisfaction is decided exactly on explicit stores. The separating
conjunction is decided by the product-of-marginals criterion: the store's
marginal on the joined child domains must be within epsilon of the product
of the two child marginals, a distance dist.independence gives exactly.
Plain (annotation-free) satisfaction is the witness search
search_annotation, which tries every disjoint sub-environment split for a
witnessing product; sat_bi holds when it finds a witness.

Entailments between annotated formulas are checked only against explicit
step-by-step certificates; see check_hilbert. A step is Trans, a schema
instance, or a core rule: _CORE_RULES is the only list of core rules, with
the number of premises each takes. Leaf steps are named axiom schemas
checked by match_axiom. _SCHEMA_MATCHERS is the only list of
schemas: DEFAULT_REGISTRY enables each of them and Trans, and a --schemas
file may enable fewer. The S, T, W and U1 schemas and Ax_SPL/Ax_MRG are
defined only by their entries in SCHEMA_TEMPLATES, which one unifier matches:
each template variable stands for one expression, and an annotation stands
for the instance's outer annotation where the template has its outer one,
else for the outer annotation restricted to the variables of what its names
are bound to. S0 and T0 take only T (at the outer annotation) as
hypothesis. The remaining schemas have hand-written matchers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Optional

from .dist import Store, independence, project, stat_dist, uniform_values
from .semantics import compile_det, eval_expr
from .syntax import (
    And,
    App,
    Atom,
    ATOM_EQ,
    ATOM_ESPL,
    ATOM_OPS,
    ATOM_U,
    BoolType,
    Bot,
    DET,
    EMPTY_ENV,
    EntailmentCert,
    Env,
    Formula,
    Lit,
    NO_SYMBOLS,
    POLY_N,
    POLY_ONE,
    Star,
    StrType,
    SymbolTable,
    Top,
    Var,
    env_to_text,
    expr_to_text,
    formula_to_text,
    fv,
    load_json,
    parse_formula,
    top as mk_top,
)
from .types import (
    TypeCheckError,
    env_ext,
    env_join,
    env_union,
    formula_ext,
    formula_fv,
    type_expr,
    wf_formula,
    wf_formula_once,
)

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Satisfaction


def sat_atom(
    s: Store,
    f: Formula,
    epsilon: Fraction = ZERO,
    symbols: SymbolTable = NO_SYMBOLS,
) -> bool:
    """Decide an atomic formula on a store over exactly its annotation."""
    a = f.body
    if not isinstance(a, Atom):
        raise ValueError("sat_atom needs an atomic formula")
    if s.env != f.annotation:
        raise TypeCheckError("sat_atom", "store environment differs from annotation")
    env = f.annotation
    t = type_expr(env, a.args[0], symbols) if a.kind == ATOM_U else None
    tolerance = ZERO if a.kind == ATOM_EQ else epsilon  # == is exact in every mode
    for n in s.tested_ns():
        if a.kind == ATOM_ESPL:
            f1 = compile_det(env, a.args[0], n, symbols)
            f2 = compile_det(env, a.args[1], n, symbols)
            if any(f1(m) != f2(m) for m in s.at(n).support()):
                return False
            continue
        d1 = eval_expr(env, a.args[0], n, s.at(n), symbols)
        if a.kind == ATOM_U:
            d2 = uniform_values(t, n)
        else:
            d2 = eval_expr(env, a.args[1], n, s.at(n), symbols)
        if stat_dist(d1, d2) > tolerance:
            return False
    return True


def sat_formula(
    s: Store,
    f: Formula,
    epsilon: Fraction = ZERO,
    symbols: SymbolTable = NO_SYMBOLS,
) -> bool:
    """Decide an annotated formula on a store over exactly its annotation."""
    if s.env != f.annotation:
        raise TypeCheckError(
            "sat_formula", "store environment differs from annotation"
        )
    b = f.body
    if isinstance(b, Top):
        return True
    if isinstance(b, Bot):
        return False
    if isinstance(b, Atom):
        return sat_atom(s, f, epsilon, symbols)
    left, right = b.left, b.right
    if isinstance(b, And):
        lproj = project(s, left.annotation)
        rproj = project(s, right.annotation)
    else:
        parts = _independent(s, left.annotation, right.annotation, epsilon)
        if parts is None:
            return False
        lproj, rproj = parts
    return sat_formula(lproj, left, epsilon, symbols) and sat_formula(
        rproj, right, epsilon, symbols
    )


def _independent(
    s: Store, left: Env, right: Env, epsilon: Fraction
) -> Optional[tuple[Store, Store]]:
    """The marginals of s on left and on right, when at every n the marginal
    of s on their join is within epsilon of the product of the two; else
    None. dist.independence gives each n's exact distance in one walk."""
    lproj, rproj, defects = independence(s, left, right)
    if all(defect <= epsilon for defect in defects.values()):
        return lproj, rproj
    return None


def entailment_holds_on(
    s: Store,
    lhs: Formula,
    rhs: Formula,
    epsilon: Fraction = ZERO,
    symbols: SymbolTable = NO_SYMBOLS,
) -> bool:
    """One store's worth of evidence for an entailment.

    The store may be over any environment extending both annotations; the
    check is that the lhs marginal satisfying lhs forces the rhs marginal to
    satisfy rhs.
    """
    if not sat_formula(project(s, lhs.annotation), lhs, epsilon, symbols):
        return True
    return sat_formula(project(s, rhs.annotation), rhs, epsilon, symbols)


# ---------------------------------------------------------------------------
# Annotation-free evaluation (plain resource semantics)


def _subenvs(env: Env):
    names = env.names()
    for k in range(len(names) + 1):
        for combo in combinations(names, k):
            yield env.restrict(combo)


def _splits(s: Store, left: Formula, right: Formula, epsilon: Fraction):
    """Yield (lproj, rproj) for every split of s that can witness left * right.

    A split is a pair of disjoint sub-environments of s covering the free
    variables of left and of right, on which s is the product of its two
    marginals. Splits come in order of the left sub-environment's size.
    """
    need_left = formula_fv(left)
    need_right = formula_fv(right)
    for xi in _subenvs(s.env):
        if not need_left <= set(xi.names()):
            continue
        rest = s.env.restrict(set(s.env.names()) - set(xi.names()))
        for theta in _subenvs(rest):
            if not need_right <= set(theta.names()):
                continue
            parts = _independent(s, xi, theta, epsilon)
            if parts is not None:
                yield parts


def sat_bi(
    s: Store,
    f: Formula,
    epsilon: Fraction = ZERO,
    symbols: SymbolTable = NO_SYMBOLS,
) -> bool:
    """Decide a formula on a store ignoring all annotations: it holds when
    search_annotation finds annotations under which it holds."""
    return search_annotation(s, f.body, epsilon, symbols) is not None


def search_annotation(
    s: Store,
    body,
    epsilon: Fraction = ZERO,
    symbols: SymbolTable = NO_SYMBOLS,
) -> Optional[Formula]:
    """Re-annotate a formula body so it holds on s, or return None.

    Conjunction reads both conjuncts on the same store and gets the full
    store environment; separating conjunction searches every pair of
    disjoint sub-environments for a split whose marginals are independent
    and satisfy the two sides. An ill-formed atom raises TypeCheckError.
    """
    if isinstance(body, Top):
        return Formula(body, s.env)
    if isinstance(body, Bot):
        return None
    if isinstance(body, Atom):
        f = Formula(body, s.env)
        wf_formula(f, symbols)
        return f if sat_atom(s, f, epsilon, symbols) else None
    if isinstance(body, And):
        left = search_annotation(s, body.left.body, epsilon, symbols)
        if left is None:
            return None
        right = search_annotation(s, body.right.body, epsilon, symbols)
        if right is None:
            return None
        return Formula(And(left, right), s.env)
    for lproj, rproj in _splits(s, body.left, body.right, epsilon):
        left = search_annotation(lproj, body.left.body, epsilon, symbols)
        if left is None:
            continue
        right = search_annotation(rproj, body.right.body, epsilon, symbols)
        if right is not None:
            return Formula(Star(left, right), s.env)
    return None


# ---------------------------------------------------------------------------
# Axiom schemas


class SchemaError(Exception):
    """A claimed schema instance fails its template or a side condition."""

    def __init__(self, schema: str, message: str):
        super().__init__(f"{schema}: {message}")
        self.schema = schema
        self.message = message


def _want(cond: bool, schema: str, message: str) -> None:
    if not cond:
        raise SchemaError(schema, message)


def _atom_of(f: Formula, kind: str, schema: str, what: str) -> Atom:
    b = f.body
    _want(
        isinstance(b, Atom) and b.kind == kind,
        schema,
        f"{what} must be a {kind} atom, got {formula_to_text(f)}",
    )
    return b


def _and_of(f: Formula, schema: str, what: str) -> And:
    _want(isinstance(f.body, And), schema, f"{what} must be a conjunction")
    return f.body


def _star_of(f: Formula, schema: str, what: str) -> Star:
    _want(isinstance(f.body, Star), schema, f"{what} must be a separating conjunction")
    return f.body


def _same_outer(lhs: Formula, rhs: Formula, schema: str) -> Env:
    _want(
        lhs.annotation == rhs.annotation,
        schema,
        "both sides must share the outer annotation",
    )
    return lhs.annotation


def _split_merge_side(bound: dict, delta: Env) -> Optional[str]:
    """r, b and s are distinct variables that make up the annotation, b is
    Bool, and the longer of the strings r and s is the shorter plus one bit."""
    r, b, s = bound["r"], bound["b"], bound["s"]
    names = {v.name for v in (r, b, s) if isinstance(v, Var)}
    if len(names) != 3 or names != set(delta.names()):
        return "r, b and s must be distinct variables that make up the annotation"
    if delta.lookup(b.name) != BoolType():
        return f"{b.name} must be Bool"
    rt, st = delta.lookup(r.name), delta.lookup(s.name)
    if not (
        isinstance(rt, StrType)
        and isinstance(st, StrType)
        and POLY_ONE in (rt.size.try_sub(st.size), st.size.try_sub(rt.size))
    ):
        return "the longer string must be the shorter one plus one bit"
    return None


# name -> (hypothesis, conclusion, side condition over the bindings or None).
# Entries without a side condition are text over placeholders for three
# expressions {e}, {g}, {h} and the outer annotation {env}; the others are
# concrete instances over the variables r, b and s.
SCHEMA_TEMPLATES: dict[str, tuple[str, str, Optional[Callable]]] = {
    "S0": ("(T){env}", "({e} ~~ {e}){env}", None),
    "S1": ("({e} ~~ {g}){env}", "({g} ~~ {e}){env}", None),
    "S2": ("({e} ~~ {g} /\\ {g} ~~ {h}){env}", "({e} ~~ {h}){env}", None),
    "T0": ("(T){env}", "({e} == {e}){env}", None),
    "T1": ("({e} == {g}){env}", "({g} == {e}){env}", None),
    "T2": ("({e} == {g} /\\ {g} == {h}){env}", "({e} == {h}){env}", None),
    "W1": ("({e} == {g}){env}", "({e} ~~ {g}){env}", None),
    "W2": ("({e} .= {g}){env}", "({e} == {g}){env}", None),
    "U1": ("({e} ~~ {g} /\\ U({e})){env}", "(U({g})){env}", None),
    "Ax_SPL": (
        "((U(r) /\\ (b .= head(r))) /\\ (s .= tail(r)))"
        "{b: Bool, r: Str[n+1], s: Str[n]}",
        "((U(b)){b: Bool} * (U(s)){s: Str[n]}){b: Bool, r: Str[n+1], s: Str[n]}",
        _split_merge_side,
    ),
    "Ax_MRG": (
        "(((U(r)){r: Str[n]} * (U(b)){b: Bool}){b: Bool, r: Str[n]}"
        " /\\ (s .= concat(r, b))){b: Bool, r: Str[n], s: Str[n+1]}",
        "(U(s)){b: Bool, r: Str[n], s: Str[n+1]}",
        _split_merge_side,
    ),
}


@cache
def _template(name: str) -> tuple[Formula, Formula]:
    lhs, rhs, side = SCHEMA_TEMPLATES[name]
    if side is None:
        lhs, rhs = (t.format(e="e", g="g", h="h", env="{}") for t in (lhs, rhs))
    return parse_formula(lhs), parse_formula(rhs)


def _shape(b) -> str:
    if isinstance(b, Atom):
        return "U(...)" if b.kind == ATOM_U else f"... {ATOM_OPS[b.kind]} ..."
    return {Top: "T", Bot: "F", And: "... /\\ ...", Star: "... * ..."}[type(b)]


def _unify_expr(te, fe, bound: dict, fail) -> None:
    if isinstance(te, Var):
        seen = bound.setdefault(te.name, fe)
        if seen != fe:
            fail(
                f"{te.name} stands for both {expr_to_text(seen)}"
                f" and {expr_to_text(fe)}"
            )
        return
    # templates hold only variables and applications
    shape = (te.fname, te.size_args, len(te.args))
    if not isinstance(fe, App) or (fe.fname, fe.size_args, len(fe.args)) != shape:
        fail(f"{expr_to_text(fe)} is not of the form {expr_to_text(te)}")
    for ta, fa in zip(te.args, fe.args):
        _unify_expr(ta, fa, bound, fail)


def _unify(t: Formula, f: Formula, outer: Env, delta: Env, bound: dict, fail) -> None:
    """Bind the variables of template t to the expressions of f, then check
    f's annotation: delta where t has the template's outer annotation, else
    delta restricted to the variables of what t's names are bound to."""
    tb, fb = t.body, f.body
    if type(tb) is not type(fb) or (isinstance(tb, Atom) and tb.kind != fb.kind):
        fail(f"{formula_to_text(f)} is not of the form {_shape(tb)}")
    if isinstance(tb, Atom):
        for te, fe in zip(tb.args, fb.args):
            _unify_expr(te, fe, bound, fail)
    elif isinstance(tb, (And, Star)):
        _unify(tb.left, fb.left, outer, delta, bound, fail)
        _unify(tb.right, fb.right, outer, delta, bound, fail)
    want = delta
    if t.annotation != outer:
        want = delta.restrict(set().union(*(fv(bound[v]) for v in t.annotation)))
    if f.annotation != want:
        fail(f"{formula_to_text(f)} must be annotated with {env_to_text(want)}")


def _match_template(lhs, rhs, symbols, schema):
    """Unify a claimed instance with its SCHEMA_TEMPLATES entry, the
    hypothesis first, then check the entry's side condition."""
    delta = _same_outer(lhs, rhs, schema)
    tl, tr = _template(schema)
    bound: dict = {}
    for side, t, f in (("hypothesis", tl, lhs), ("conclusion", tr, rhs)):

        def fail(what, side=side):
            raise SchemaError(schema, f"the {side} does not fit the template: {what}")

        _unify(t, f, tl.annotation, delta, bound, fail)
    side_condition = SCHEMA_TEMPLATES[schema][2]
    problem = side_condition and side_condition(bound, delta)
    _want(not problem, schema, f"side condition violated: {problem}")


def _match_ax_potp(lhs, rhs, symbols, schema):
    delta = _same_outer(lhs, rhs, schema)
    al = _atom_of(lhs, ATOM_U, schema, "the hypothesis")
    ar = _atom_of(rhs, ATOM_U, schema, "the conclusion")
    _want(isinstance(al.args[0], Var), schema, "the hypothesis must be U of a variable")
    x = al.args[0]
    e = ar.args[0]
    _want(
        isinstance(e, App) and e.args == (x,) and not e.size_args,
        schema,
        "the conclusion must be U of a declared symbol applied to the same variable",
    )
    xt = delta.lookup(x.name)
    _want(
        xt == StrType(POLY_N),
        schema,
        f"side condition violated: {x.name} must have type Str[n]",
    )
    sym = symbols.lookup(e.fname)
    _want(sym is not None, schema, f"{e.fname} is not a declared symbol")
    _want(sym.kind == DET, schema, f"{e.fname} must be deterministic")
    _want(
        sym.arg_types == (StrType(POLY_N),) and isinstance(sym.result_type, StrType),
        schema,
        f"{e.fname} must be declared Str[n] -> Str[p]",
    )
    growth = sym.result_type.size.try_sub(POLY_N)
    _want(
        growth is not None and not growth.is_zero(),
        schema,
        f"side condition violated: {e.fname} must be length-increasing (p > n)",
    )


def _match_aux1(lhs, rhs, symbols, schema):
    _same_outer(lhs, rhs, schema)
    ls = _star_of(lhs, schema, "the hypothesis")
    land = _and_of(ls.left, schema, "the left component")
    _want(isinstance(land.left.body, Top), schema, "first conjunct must be T")
    eqa = _atom_of(land.right, ATOM_EQ, schema, "the second conjunct")
    k = eqa.args[0]
    _want(isinstance(k, Var), schema, "== must bind a variable on the left")
    _want(
        eqa.args[1] == App("rnd", ()),
        schema,
        "== must equate the variable with rnd()",
    )
    _want(isinstance(ls.right.body, Top), schema, "right component must be T")
    m1 = ls.right.annotation
    _want(k.name not in m1, schema, f"{k.name} must not occur in the right component")
    rs = _star_of(rhs, schema, "the conclusion")
    ua = _atom_of(rs.left, ATOM_U, schema, "the left conclusion component")
    _want(ua.args[0] == k, schema, "the conclusion must claim U of the same variable")
    _want(
        env_ext(rs.left.annotation, ls.left.annotation),
        schema,
        "the U component annotation must shrink from the == component",
    )
    _want(isinstance(rs.right.body, Top), schema, "right conclusion component must be T")
    _want(
        env_ext(rs.right.annotation, m1),
        schema,
        "the right conclusion annotation must shrink from the hypothesis",
    )


def _match_aux2(lhs, rhs, symbols, schema):
    _same_outer(lhs, rhs, schema)
    land = _and_of(lhs, schema, "the hypothesis")
    espl = _atom_of(land.left, ATOM_ESPL, schema, "the first conjunct")
    c = espl.args[0]
    _want(isinstance(c, Var), schema, ".= must bind a variable on the left")
    rhs_expr = espl.args[1]
    _want(
        isinstance(rhs_expr, App) and rhs_expr.fname == "xor" and len(rhs_expr.args) == 2,
        schema,
        ".= must equate the variable with an xor",
    )
    m_var, d_expr = rhs_expr.args
    _want(isinstance(m_var, Var), schema, "the first xor argument must be a variable")
    starf = _star_of(land.right, schema, "the second conjunct")
    ud = _atom_of(starf.left, ATOM_U, schema, "the uniform component")
    _want(ud.args[0] == d_expr, schema, "U must speak about the second xor argument")
    xi = starf.left.annotation
    _want(isinstance(starf.right.body, Top), schema, "the framed component must be T")
    m_env = starf.right.annotation
    _want(m_var.name in m_env, schema, f"{m_var.name} must be in the framed component")
    _want(c.name not in m_env, schema, f"{c.name} must not be in the framed component")
    _want(c.name not in xi, schema, f"{c.name} must not occur in the uniform component")
    _want(
        m_var.name not in xi,
        schema,
        f"{m_var.name} must not occur in the uniform component",
    )
    _want(
        fv(d_expr) <= set(xi.names()),
        schema,
        "the xored expression must live in the uniform component",
    )
    rs = _star_of(rhs, schema, "the conclusion")
    _want(isinstance(rs.left.body, Top), schema, "left conclusion component must be T")
    _want(
        env_ext(rs.left.annotation, m_env),
        schema,
        "the left conclusion annotation must shrink from the framed component",
    )
    uc = _atom_of(rs.right, ATOM_U, schema, "the right conclusion component")
    _want(uc.args[0] == c, schema, "the conclusion must claim U of the assigned variable")
    _want(
        rs.right.annotation.names() == (c.name,),
        schema,
        "the U component annotation must be exactly the assigned variable",
    )


def _match_xorpi1(lhs, rhs, symbols, schema):
    delta = _same_outer(lhs, rhs, schema)
    al = _atom_of(lhs, ATOM_ESPL, schema, "the hypothesis")
    _want(
        isinstance(al.args[0], Var) and isinstance(al.args[1], Lit),
        schema,
        "the hypothesis must pin a variable to a bit literal",
    )
    rb = _and_of(rhs, schema, "the conclusion")
    _want(isinstance(rb.left.body, Top), schema, "the first conjunct must be T")
    _want(
        env_ext(rb.left.annotation, delta),
        schema,
        "the T annotation must extend into the outer annotation",
    )
    ar = _atom_of(rb.right, ATOM_ESPL, schema, "the second conjunct")
    _want(ar == al, schema, "the pinned atom must be preserved")
    _want(
        env_ext(rb.right.annotation, delta),
        schema,
        "the atom annotation must extend into the outer annotation",
    )


def _match_xorpi2(lhs, rhs, symbols, schema):
    delta = _same_outer(lhs, rhs, schema)
    land = _and_of(lhs, schema, "the hypothesis")
    ca = _atom_of(land.left, ATOM_ESPL, schema, "the first conjunct")
    ka = _atom_of(land.right, ATOM_ESPL, schema, "the second conjunct")
    ar = _atom_of(rhs, ATOM_ESPL, schema, "the conclusion")
    c = ca.args[0]
    k = ka.args[0]
    _want(
        isinstance(c, Var) and isinstance(k, Var) and isinstance(ka.args[1], Lit),
        schema,
        "the conjuncts must pin variables (the second to a bit literal)",
    )
    _want(
        ar.args[0] == c,
        schema,
        "the conclusion must speak about the assigned variable",
    )
    out = ar.args[1]
    _want(
        isinstance(out, App)
        and out.fname == "xor"
        and out.args[0] == k
        and isinstance(out.args[1], Var),
        schema,
        "the conclusion must equate with xor of the guard and the message",
    )
    m = out.args[1]
    _want(
        len({c.name, k.name, m.name}) == 3,
        schema,
        "the three variables must be distinct",
    )
    bit = ka.args[1].bit
    want_rhs = App("not", (m,)) if bit == "1" else m
    _want(
        ca.args[1] == want_rhs,
        schema,
        "the assigned expression must match the pinned guard bit"
        f" (expected {'not of the message' if bit == '1' else 'the message'})",
    )
    for v in (c, k, m):
        _want(
            delta.lookup(v.name) == BoolType(),
            schema,
            f"{v.name} must be Bool",
        )


def _match_relabel(lhs, rhs, symbols, schema):
    _want(
        formula_ext(lhs, rhs) or formula_ext(rhs, lhs),
        schema,
        "the two sides must be annotation-orderable copies of one formula",
    )


def _flatten_nary(f: Formula, conn, schema: str, is_root: bool = True):
    if not isinstance(f.body, conn):
        return [f]
    if not is_root:
        joiner = env_join if conn is Star else env_union
        expected = joiner(f.body.left.annotation, f.body.right.annotation)
        _want(
            f.annotation == expected,
            schema,
            "inner node annotations must be the join of their children",
        )
    return _flatten_nary(f.body.left, conn, schema, False) + _flatten_nary(
        f.body.right, conn, schema, False
    )


def _match_commassoc(lhs, rhs, symbols, schema):
    _same_outer(lhs, rhs, schema)
    kinds = {type(f.body) for f in (lhs, rhs) if isinstance(f.body, (And, Star))}
    _want(len(kinds) > 0, schema, "at least one side must be a compound formula")
    _want(len(kinds) == 1, schema, "cannot mix the two conjunctions")
    conn = kinds.pop()
    left_leaves = _flatten_nary(lhs, conn, schema)
    right_leaves = _flatten_nary(rhs, conn, schema)
    if conn is Star:
        unit = mk_top(EMPTY_ENV)
        left_leaves = [f for f in left_leaves if f != unit]
        right_leaves = [f for f in right_leaves if f != unit]
    _want(
        Counter(left_leaves) == Counter(right_leaves),
        schema,
        "both sides must carry the same leaves",
    )


def _star_unit_parts(f: Formula, schema: str, what: str) -> Formula:
    b = _star_of(f, schema, what)
    unit = mk_top(EMPTY_ENV)
    if b.right == unit:
        return b.left
    if b.left == unit:
        return b.right
    raise SchemaError(schema, f"{what} must have a T component over the empty environment")


def _match_star_unit_e(lhs, rhs, symbols, schema):
    kept = _star_unit_parts(lhs, schema, "the hypothesis")
    _want(
        rhs == Formula(kept.body, lhs.annotation),
        schema,
        "the conclusion must be the non-unit component at the outer annotation",
    )


def _match_star_unit_i(lhs, rhs, symbols, schema):
    kept = _star_unit_parts(rhs, schema, "the conclusion")
    _want(
        lhs == Formula(kept.body, rhs.annotation),
        schema,
        "the hypothesis must be the non-unit component at the outer annotation",
    )


_SCHEMA_MATCHERS: dict[str, Callable] = {
    **dict.fromkeys(SCHEMA_TEMPLATES, _match_template),
    "Ax_POTP": _match_ax_potp,
    "AuxPOTP1": _match_aux1,
    "AuxPOTP2": _match_aux2,
    "XorPi1": _match_xorpi1,
    "XorPi2": _match_xorpi2,
    "Relabel": _match_relabel,
    "CommAssoc": _match_commassoc,
    "StarUnitE": _match_star_unit_e,
    "StarUnitI": _match_star_unit_i,
}


DEFAULT_REGISTRY = frozenset(_SCHEMA_MATCHERS) | {"Trans"}


def load_registry(path: Optional[str] = None) -> frozenset[str]:
    """Names of enabled schemas: DEFAULT_REGISTRY (every schema and Trans),
    or those a user-supplied file enables.

    The file must be {"enabled": [name, ...]}, each name in DEFAULT_REGISTRY;
    any other shape raises ValueError.
    """
    if path is None:
        return DEFAULT_REGISTRY
    with open(path, "r", encoding="utf-8") as fh:
        doc = load_json(fh.read())
    names = doc.get("enabled") if isinstance(doc, dict) else None
    if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
        raise ValueError('schemas file must be {"enabled": [name, ...]}')
    unknown = sorted(set(names) - DEFAULT_REGISTRY)
    if unknown:
        raise ValueError(f"unknown schema name(s): {', '.join(unknown)}")
    return frozenset(names)


def match_axiom(
    name: str,
    lhs: Formula,
    rhs: Formula,
    symbols: SymbolTable = NO_SYMBOLS,
    registry: frozenset = DEFAULT_REGISTRY,
    checked: Optional[dict] = None,
) -> None:
    """Check one claimed schema instance; SchemaError explains failures.

    checked is as for wf_formula_once, for the formulas of one check.
    """
    checked = {} if checked is None else checked
    if name not in _SCHEMA_MATCHERS:
        raise SchemaError(name, "unknown schema")
    if name not in registry:
        raise SchemaError(name, "schema is disabled in the registry")
    wf_formula_once(lhs, symbols, checked)
    wf_formula_once(rhs, symbols, checked)
    _SCHEMA_MATCHERS[name](lhs, rhs, symbols, name)


# ---------------------------------------------------------------------------
# The entailment derivation checker


class CertError(Exception):
    """A certificate step fails; the message names the step."""

    def __init__(self, step: str, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.message = message


_CORE_RULES = {
    **dict.fromkeys(("AP", "TopI", "BotE", "StarC", "StarA1", "StarA2"), 0),
    **dict.fromkeys(("AndE1", "AndE2"), 1),
    **dict.fromkeys(("AndI", "StarI"), 2),
}


def _check_core_step(step, premises: list, fail) -> None:
    """Check a core rule step, given as many premises as _CORE_RULES says."""
    lhs, rhs, rule = step.lhs, step.rhs, step.rule
    if rule == "AP":
        if lhs != rhs:
            fail("AP needs identical sides")
    elif rule == "TopI":
        if not isinstance(rhs.body, Top):
            fail("TopI concludes T")
        if rhs.annotation != lhs.annotation:
            fail("TopI keeps the annotation")
    elif rule == "BotE":
        if not isinstance(lhs.body, Bot):
            fail("BotE starts from F")
        if rhs.annotation != lhs.annotation:
            fail("BotE keeps the annotation")
    elif rule == "AndI":
        p1, p2 = premises
        if p1.lhs != lhs or p2.lhs != lhs:
            fail("AndI premises must share the hypothesis")
        if not isinstance(rhs.body, And):
            fail("AndI concludes a conjunction")
        delta = lhs.annotation
        if rhs.annotation != delta:
            fail("AndI keeps the annotation")
        if p1.rhs.annotation != delta or p2.rhs.annotation != delta:
            fail("AndI premises must conclude at the full annotation")
        if not formula_ext(rhs.body.left, p1.rhs):
            fail("left conjunct must relabel into the first premise conclusion")
        if not formula_ext(rhs.body.right, p2.rhs):
            fail("right conjunct must relabel into the second premise conclusion")
    elif rule in ("AndE1", "AndE2"):
        (p,) = premises
        if p.lhs != lhs:
            fail("the premise must share the hypothesis")
        if not isinstance(p.rhs.body, And):
            fail("the premise must conclude a conjunction")
        delta = p.rhs.annotation
        picked = p.rhs.body.left if rule == "AndE1" else p.rhs.body.right
        if rhs != Formula(picked.body, delta):
            fail("the conclusion must be the selected conjunct at the outer annotation")
    elif rule == "StarI":
        p1, p2 = premises
        if not isinstance(lhs.body, Star) or not isinstance(rhs.body, Star):
            fail("StarI rewrites a separating conjunction componentwise")
        if lhs.annotation != rhs.annotation:
            fail("StarI keeps the outer annotation")
        if lhs.body.left != p1.lhs or rhs.body.left != p1.rhs:
            fail("left components must match the first premise")
        if lhs.body.right != p2.lhs or rhs.body.right != p2.rhs:
            fail("right components must match the second premise")
        for p in (p1, p2):
            if p.lhs.annotation != p.rhs.annotation and not env_ext(
                p.rhs.annotation, p.lhs.annotation
            ):
                fail("component conclusions may only shrink their annotation")
    elif rule == "StarC":
        if not isinstance(lhs.body, Star) or not isinstance(rhs.body, Star):
            fail("StarC swaps a separating conjunction")
        if lhs.annotation != rhs.annotation:
            fail("StarC keeps the outer annotation")
        if rhs.body.left != lhs.body.right or rhs.body.right != lhs.body.left:
            fail("StarC must swap the two components unchanged")
    else:  # StarA1, StarA2
        src, dst = (lhs, rhs) if rule == "StarA1" else (rhs, lhs)
        # src = (a * (b * c)), dst = ((a * b) * c), inner nodes at joins
        if not isinstance(src.body, Star) or not isinstance(src.body.right.body, Star):
            fail("reassociation needs a right-nested separating conjunction")
        if not isinstance(dst.body, Star) or not isinstance(dst.body.left.body, Star):
            fail("reassociation needs a left-nested separating conjunction")
        a, bc = src.body.left, src.body.right
        b, c = bc.body.left, bc.body.right
        ab, c2 = dst.body.left, dst.body.right
        if (ab.body.left, ab.body.right, c2) != (a, b, c):
            fail("reassociation must keep the three components in order")
        if bc.annotation != env_join(b.annotation, c.annotation):
            fail("the inner node must be annotated with the join of its children")
        if ab.annotation != env_join(a.annotation, b.annotation):
            fail("the inner node must be annotated with the join of its children")
        if lhs.annotation != rhs.annotation:
            fail("reassociation keeps the outer annotation")


def check_hilbert(
    cert: EntailmentCert,
    symbols: SymbolTable = NO_SYMBOLS,
    registry: frozenset = DEFAULT_REGISTRY,
    checked: Optional[dict] = None,
) -> tuple[Formula, Formula]:
    """Check every step of a derivation; returns the root conclusion.

    A step is Trans, a schema instance, or one of _CORE_RULES, which
    _check_core_step checks once its premise count is right; any other rule
    name fails.
    checked is as for wf_formula_once: check_triple passes one for all the
    certificates and nodes of a tree.
    """
    checked = {} if checked is None else checked
    seen: dict[str, object] = {}
    for step in cert.steps:
        sid = step.sid

        def fail(message, _sid=sid):
            raise CertError(_sid, message)

        if sid in seen:
            fail("duplicate step id")

        def get_premise(pid, _fail=fail):
            if pid not in seen:
                _fail(f"premise {pid} must be an earlier step")
            return seen[pid]

        for f in (step.lhs, step.rhs):
            try:
                wf_formula_once(f, symbols, checked)
            except TypeCheckError as exc:
                fail(f"ill-formed formula: {exc}")
        if step.rule == "Trans":
            if "Trans" not in registry:
                fail("schema Trans is disabled in the registry")
            if len(step.premises) != 2:
                fail("Trans needs exactly 2 premises")
            p1, p2 = (get_premise(pid) for pid in step.premises)
            if p1.lhs != step.lhs:
                fail("the first premise must start from the hypothesis")
            if p1.rhs != p2.lhs:
                fail("the premises must chain through one formula")
            if p2.rhs != step.rhs:
                fail("the second premise must reach the conclusion")
        elif step.rule in _SCHEMA_MATCHERS:
            if step.premises:
                fail("schema instances take no premises")
            try:
                match_axiom(step.rule, step.lhs, step.rhs, symbols, registry, checked)
            except SchemaError as exc:
                fail(str(exc))
        elif step.rule in _CORE_RULES:
            k, got = _CORE_RULES[step.rule], len(step.premises)
            if got != k:
                fail(f"{step.rule} needs exactly {k} premise(s), got {got}")
            _check_core_step(step, [get_premise(pid) for pid in step.premises], fail)
        else:
            fail(f"unknown step rule {step.rule!r}")
        seen[sid] = step
    root = cert.step(cert.root)
    if root is None:
        raise CertError(cert.root, "root step is missing")
    return root.lhs, root.rhs
