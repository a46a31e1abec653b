"""Typing judgments, formula classes, and the environment/formula orders.

Expressions type against an environment, with the size indices of the
built-in families resolved from argument types. Programs type statement by
statement. Formulas are well-formed when their atoms type under their own
annotation and the annotations nest properly (conjunction children extend
into the parent, separating-conjunction children are disjoint).
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    BOOL,
    NO_SYMBOLS,
    POLY_N,
    POLY_ONE,
    And,
    App,
    Assign,
    Atom,
    BoolType,
    Bot,
    Env,
    Expr,
    Formula,
    Lit,
    Program,
    Seq,
    Skip,
    Star,
    StrType,
    SymbolTable,
    Top,
    Type,
    Var,
    ATOM_EQ,
    ATOM_ESPL,
    ATOM_U,
    RND,
    expr_to_text,
    fv,
    type_to_text,
)


class TypeCheckError(Exception):
    """Typing failure with a stable, path-qualified message."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _mismatch(path: str, expected: Type, actual: Type) -> TypeCheckError:
    return TypeCheckError(
        path, f"expected {type_to_text(expected)}, got {type_to_text(actual)}"
    )


# ---------------------------------------------------------------------------
# Expressions


def type_expr(
    env: Env, e: Expr, symbols: SymbolTable = NO_SYMBOLS, path: str = "expr"
) -> Type:
    """Return the type of e under env, or raise TypeCheckError."""
    if isinstance(e, Var):
        t = env.lookup(e.name)
        if t is None:
            raise TypeCheckError(path, f"unbound variable {e.name}")
        return t
    if isinstance(e, Lit):
        return BOOL
    return _type_app(env, e, symbols, path)


def _arg_types(env, e, symbols, path) -> list[Type]:
    return [
        type_expr(env, a, symbols, f"{path}.{e.fname}[{i}]")
        for i, a in enumerate(e.args)
    ]


def _want_arity(e: App, k: int, path: str) -> None:
    if len(e.args) != k:
        raise TypeCheckError(
            path, f"{e.fname} takes {k} argument(s), got {len(e.args)}"
        )


def _as_bits(t: Type):
    """View a type as a bit-vector size: Bool counts as one bit."""
    return POLY_ONE if isinstance(t, BoolType) else t.size


def _type_app(env: Env, e: App, symbols: SymbolTable, path: str) -> Type:
    name = e.fname
    if e.size_args and name not in ("setzero", "head", "tail"):
        raise TypeCheckError(path, f"{name} takes no size annotation")
    if name == "rnd":
        _want_arity(e, 0, path)
        return StrType(POLY_N)
    if name == "not":
        _want_arity(e, 1, path)
        (t,) = _arg_types(env, e, symbols, path)
        if not isinstance(t, BoolType):
            raise _mismatch(path, BOOL, t)
        return BOOL
    if name in ("head", "tail"):
        _want_arity(e, 1, path)
        (t,) = _arg_types(env, e, symbols, path)
        if not isinstance(t, StrType):
            raise TypeCheckError(path, f"{name} needs a Str argument")
        inner = t.size.try_sub(POLY_ONE)
        if inner is None:
            raise TypeCheckError(
                path, f"{name} needs a string of size p+1, got {type_to_text(t)}"
            )
        if e.size_args and e.size_args != (inner,):
            raise TypeCheckError(path, f"size annotation on {name} contradicts argument")
        return BOOL if name == "head" else StrType(inner)
    if name == "xor":
        _want_arity(e, 2, path)
        t1, t2 = _arg_types(env, e, symbols, path)
        if t1 != t2:
            raise TypeCheckError(
                path,
                "xor requires equal sizes: "
                f"{type_to_text(t1)} vs {type_to_text(t2)}",
            )
        return t1
    if name == "concat":
        _want_arity(e, 2, path)
        t1, t2 = _arg_types(env, e, symbols, path)
        if isinstance(t1, BoolType) and isinstance(t2, BoolType):
            return StrType(POLY_ONE.add(POLY_ONE))
        return StrType(_as_bits(t1).add(_as_bits(t2)))
    if name == "setzero":
        _want_arity(e, 0, path)
        if len(e.size_args) != 1:
            raise TypeCheckError(path, "setzero needs an explicit size: setzero[p]()")
        return StrType(e.size_args[0])
    sym = symbols.lookup(name)
    if sym is None:
        raise TypeCheckError(path, f"unknown function symbol {name}")
    _want_arity(e, len(sym.arg_types), path)
    actual = _arg_types(env, e, symbols, path)
    for i, (want, got) in enumerate(zip(sym.arg_types, actual)):
        if want != got:
            raise _mismatch(f"{path}.{name}[{i}]", want, got)
    return sym.result_type


def is_det_expr(e: Expr, symbols: SymbolTable = NO_SYMBOLS) -> bool:
    """True iff no randomized symbol occurs in e."""
    if isinstance(e, (Var, Lit)):
        return True
    if e.fname == "rnd":
        return False
    sym = symbols.lookup(e.fname)
    if sym is not None and sym.kind == RND:
        return False
    return all(is_det_expr(a, symbols) for a in e.args)


# ---------------------------------------------------------------------------
# Programs


def type_program(
    env: Env, p: Program, symbols: SymbolTable = NO_SYMBOLS, path: str = "program"
) -> None:
    """Check that p types under env; raise TypeCheckError otherwise."""
    if isinstance(p, Skip):
        return
    if isinstance(p, Assign):
        declared = env.lookup(p.target)
        if declared is None:
            raise TypeCheckError(path, f"unbound assignment target {p.target}")
        actual = type_expr(env, p.rhs, symbols, f"{path}.rhs")
        if declared != actual:
            raise _mismatch(f"{path} := {expr_to_text(p.rhs)}", declared, actual)
        return
    if isinstance(p, Seq):
        for i, s in enumerate(p.stmts):
            type_program(env, s, symbols, f"{path}[{i}]")
        return
    guard_t = env.lookup(p.guard)
    if guard_t is None:
        raise TypeCheckError(path, f"unbound guard variable {p.guard}")
    if not isinstance(guard_t, BoolType):
        raise TypeCheckError(
            path, f"guard {p.guard} must be Bool, got {type_to_text(guard_t)}"
        )
    type_program(env, p.then_branch, symbols, f"{path}.then")
    type_program(env, p.else_branch, symbols, f"{path}.else")


def mv(p: Program) -> frozenset[str]:
    """Variables a program may modify (syntactic over-approximation)."""
    if isinstance(p, Skip):
        return frozenset()
    if isinstance(p, Assign):
        return frozenset((p.target,))
    if isinstance(p, Seq):
        return frozenset().union(*map(mv, p.stmts))
    return mv(p.then_branch) | mv(p.else_branch)


# ---------------------------------------------------------------------------
# Environment order and join


def env_ext(sub: Env, sup: Env) -> bool:
    """sub extends into sup: domain inclusion with pointwise equal types."""
    return all(sup.lookup(name) == t for name, t in sub.items())


def env_join(a: Env, b: Env) -> Env:
    """Disjoint union of environments; TypeCheckError on domain overlap."""
    overlap = set(a.names()) & set(b.names())
    if overlap:
        raise TypeCheckError(
            "env_join", f"environment domains overlap on {sorted(overlap)}"
        )
    # the names are distinct, so sorting the bindings never compares types
    return Env(tuple(sorted(a.items() + b.items())))


def env_union(a: Env, b: Env) -> Env:
    """Union requiring agreement on shared names; TypeCheckError on conflict."""
    merged = dict(a.items())
    for name, t in b.items():
        if name in merged and merged[name] != t:
            raise TypeCheckError(
                "env_union", f"conflicting types for {name} in environment union"
            )
        merged[name] = t
    return Env.make(merged)


# ---------------------------------------------------------------------------
# Formulas


def wf_formula(
    f: Formula,
    symbols: SymbolTable = NO_SYMBOLS,
    path: str = "formula",
    checked: Optional[dict] = None,
) -> None:
    """Check well-formedness of an annotated formula.

    checked, when given, maps id(g) to each formula object g that passed
    under symbols, and holds it so that its id is not reused. A sub-formula
    of f that is in it is not checked again, and f and each sub-formula that
    passes are entered. Only a success is entered, so an ill-formed formula
    fails at its first ill-formed part, with the same path, wherever it is
    checked.
    """
    b = f.body
    if isinstance(b, Atom):
        _wf_atom(f.annotation, b, symbols, path)
    elif isinstance(b, (And, Star)):
        _wf_compound(f, b, symbols, path, checked)
    if checked is not None:
        checked[id(f)] = f


def _wf_compound(f: Formula, b, symbols: SymbolTable, path: str, checked) -> None:
    left, right = b.left, b.right
    for side, child in (("left", left), ("right", right)):
        if checked is None or id(child) not in checked:
            wf_formula(child, symbols, f"{path}.{side}", checked)
    if isinstance(b, And):
        for side, child in (("left", left), ("right", right)):
            if not env_ext(child.annotation, f.annotation):
                raise TypeCheckError(
                    f"{path}.{side}",
                    "conjunct annotation does not extend into the parent",
                )
        return
    overlap = set(left.annotation.names()) & set(right.annotation.names())
    if overlap:
        raise TypeCheckError(
            path, f"separating conjunction domains overlap on {sorted(overlap)}"
        )
    if not all(env_ext(child.annotation, f.annotation) for child in (left, right)):
        raise TypeCheckError(
            path, "joined child annotations do not extend into the parent"
        )


def wf_formula_once(f: Formula, symbols: SymbolTable, checked: dict) -> None:
    """wf_formula(f, symbols), unless this very object already passed it.

    checked is as for wf_formula; the caller keeps it for the formulas of
    one check, so each distinct formula object of the check, sub-formulas
    included, is checked once, where it first occurs.
    """
    if id(f) not in checked:
        wf_formula(f, symbols, checked=checked)


def _wf_atom(ann: Env, a: Atom, symbols: SymbolTable, path: str) -> None:
    if a.kind == ATOM_U:
        type_expr(ann, a.args[0], symbols, path)
        return
    t1 = type_expr(ann, a.args[0], symbols, f"{path}.lhs")
    t2 = type_expr(ann, a.args[1], symbols, f"{path}.rhs")
    if t1 != t2:
        raise TypeCheckError(
            path,
            f"atom operand types differ: {type_to_text(t1)} vs {type_to_text(t2)}",
        )
    if a.kind == ATOM_ESPL:
        for i, arg in enumerate(a.args):
            if not is_det_expr(arg, symbols):
                raise TypeCheckError(
                    f"{path}.{('lhs', 'rhs')[i]}",
                    ".= applies only to deterministic expressions",
                )


def classify_exact(f: Formula) -> bool:
    """True iff f is built from T, F, ==, .= under /\\ only."""
    b = f.body
    if isinstance(b, (Top, Bot)):
        return True
    if isinstance(b, Atom):
        return b.kind in (ATOM_EQ, ATOM_ESPL)
    if isinstance(b, And):
        return classify_exact(b.left) and classify_exact(b.right)
    return False


def classify_approx(f: Formula) -> bool:
    """True iff no == or .= atom occurs anywhere in f."""
    b = f.body
    if isinstance(b, (Top, Bot)):
        return True
    if isinstance(b, Atom):
        return b.kind not in (ATOM_EQ, ATOM_ESPL)
    return classify_approx(b.left) and classify_approx(b.right)


def formula_ext(f1: Formula, f2: Formula) -> bool:
    """The annotation-growth order on structurally identical formulas.

    Atoms (and T, F) may grow their annotation; a conjunction may grow its
    outer annotation and relabel its children recursively; a separating
    conjunction may grow only its outer annotation, children fixed.
    """
    b1, b2 = f1.body, f2.body
    if isinstance(b1, (Top, Bot, Atom)):
        return b1 == b2 and env_ext(f1.annotation, f2.annotation)
    if isinstance(b1, And):
        return (
            isinstance(b2, And)
            and env_ext(f1.annotation, f2.annotation)
            and formula_ext(b1.left, b2.left)
            and formula_ext(b1.right, b2.right)
        )
    return (
        isinstance(b2, Star)
        and env_ext(f1.annotation, f2.annotation)
        and b1.left == b2.left
        and b1.right == b2.right
    )


def formula_fv(f: Formula) -> frozenset[str]:
    """Free variables of all atoms in a formula."""
    b = f.body
    if isinstance(b, (Top, Bot)):
        return frozenset()
    if isinstance(b, Atom):
        out: frozenset[str] = frozenset()
        for a in b.args:
            out |= fv(a)
        return out
    return formula_fv(b.left) | formula_fv(b.right)
