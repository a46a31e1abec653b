r"""Abstract syntax, grammars, and printers.

This module defines the value types everything else works on: size
polynomials, sized types, typing environments, expressions, loopless
programs, annotated formulas, Hoare triples, proof trees, and entailment
certificates. It also houses the tokenizer, the recursive-descent parsers
for the surface syntax, and the pretty printers. Printing is total and
parsing the printed form gives back an equal tree.

Surface syntax summary:

    programs   skip | r := e | P; P | if r then P else R end | begin P end
               (begin only groups: a sequence is one flat statement list);
               f(e1, ..., ek) applies f, and setzero takes its size: setzero[n+1]()
    formulas   T | F | U(e) | e ~~ g | e == g | d .= c | phi /\ psi
               | phi * psi, each group optionally annotated once with an
               environment: (U(k)){k: Str[n]} * (T){m: Str[n]}
    types      Bool | Str[p] with p a sum of terms like 3, n, 2n, n^2
    preamble   decl g : Str[n] -> Str[n+1] det;

Proof scripts and entailment certificates are JSON documents whose leaves
use the grammars above; see parse_proof and parse_cert. Within one script,
each distinct formula, program and environment text is parsed once, and so
is each distinct annotation, binding and annotated group inside them. The
tokenizer reads each annotation as one env token, so equal annotations
share one Env object. It also reads a group "(...){...}" that the script
has already parsed as one group token, whose Formula the parser takes from
the script's memo, so equal groups share one Formula object wherever they
occur and each is read once.

A token's one position is its character offset in the text being parsed.
Line and column are worked out from it only when a ParseError is raised.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Union


class ParseError(Exception):
    """Syntax error at a 1-based line and column, counted in characters.

    where, when not empty, names the field of a proof script or certificate
    whose text line and col count in, such as root.children[1].post.
    """

    def __init__(self, message: str, line: int, col: int, where: str = ""):
        place = f"{where}: " if where else ""
        super().__init__(f"{place}{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.where = where

    def within(self, where: str) -> "ParseError":
        """This error, placed in the script field where."""
        return ParseError(self.message, self.line, self.col, where)

    @classmethod
    def at(cls, message: str, text: str, offset: int) -> "ParseError":
        """The error at character offset of text."""
        line_start = text.rfind("\n", 0, offset) + 1
        return cls(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


# ---------------------------------------------------------------------------
# Size polynomials


@dataclass(frozen=True)
class SizePoly:
    """Univariate polynomial in n with nonnegative integer coefficients.

    coeffs[i] is the coefficient of n^i. The representation is canonical:
    no trailing zero coefficients, and the zero polynomial is (0,).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a size polynomial needs at least one coefficient")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("size polynomial coefficients must be nonnegative")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("size polynomial not in canonical form")

    @staticmethod
    def make(coeffs) -> "SizePoly":
        """Build a polynomial, trimming trailing zeros into canonical form."""
        cs = list(coeffs) or [0]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return SizePoly(tuple(cs))

    @staticmethod
    def const(c: int) -> "SizePoly":
        return SizePoly((c,))

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def add(self, other: "SizePoly") -> "SizePoly":
        a, b = self.coeffs, other.coeffs
        width = max(len(a), len(b))
        return SizePoly.make(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(width)
        )

    def try_sub(self, other: "SizePoly") -> Optional["SizePoly"]:
        """self - other, or None if any resulting coefficient would be negative."""
        a, b = self.coeffs, other.coeffs
        width = max(len(a), len(b))
        out = []
        for i in range(width):
            c = (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            if c < 0:
                return None
            out.append(c)
        return SizePoly.make(out)


POLY_ZERO = SizePoly.const(0)
POLY_ONE = SizePoly.const(1)
POLY_N = SizePoly((0, 1))


def poly_eval(p: SizePoly, n: int) -> int:
    """Evaluate p at the security parameter n >= 1."""
    if n < 1:
        raise ValueError(f"security parameter must be >= 1, got {n}")
    total = 0
    for c in reversed(p.coeffs):
        total = total * n + c
    return total


def poly_to_text(p: SizePoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            exp = "n" if i == 1 else f"n^{i}"
            parts.append(head + exp)
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Types and environments


@dataclass(frozen=True)
class StrType:
    size: SizePoly


@dataclass(frozen=True)
class BoolType:
    pass


Type = Union[StrType, BoolType]
BOOL = BoolType()


def type_to_text(t: Type) -> str:
    if isinstance(t, BoolType):
        return "Bool"
    return f"Str[{poly_to_text(t.size)}]"


@dataclass(frozen=True)
class Env:
    """Finite map from variable names to types, kept sorted by name."""

    bindings: tuple[tuple[str, Type], ...]
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # name -> type, made by the first lookup, so that lookup takes constant
    # time and an environment that is never looked up holds no dict
    _types: Optional[dict[str, Type]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        names = [name for name, _ in self.bindings]
        if names != sorted(names):
            raise ValueError("environment bindings must be sorted by name")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable in environment")
        object.__setattr__(self, "_names", tuple(names))

    @staticmethod
    def make(mapping) -> "Env":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        return Env(tuple(sorted(items, key=lambda kv: kv[0])))

    def lookup(self, name: str) -> Optional[Type]:
        types = self._types
        if types is None:
            types = dict(self.bindings)
            object.__setattr__(self, "_types", types)
        return types.get(name)

    def names(self) -> tuple[str, ...]:
        return self._names

    def items(self) -> tuple[tuple[str, Type], ...]:
        return self.bindings

    def restrict(self, names) -> "Env":
        keep = set(names)
        return Env(tuple((k, t) for k, t in self.bindings if k in keep))

    def remove(self, name: str) -> "Env":
        return Env(tuple((k, t) for k, t in self.bindings if k != name))

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def __len__(self) -> int:
        return len(self.bindings)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


EMPTY_ENV = Env(())


def env_to_text(env: Env) -> str:
    inner = ", ".join(f"{k}: {type_to_text(t)}" for k, t in env.items())
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Function symbols

DET = "det"
RND = "rnd"

# Size-indexed built-in families; their signatures are resolved against
# argument types by the type checker rather than stored here.
BUILTIN_NAMES = frozenset({"rnd", "head", "tail", "xor", "concat", "setzero", "not"})


@dataclass(frozen=True)
class FuncSym:
    """A declared function symbol with a concrete signature.

    impl, when present, is a per-n evaluator on value tuples (deterministic
    symbols) and is excluded from equality so that stub binding does not
    change syntactic identity of expressions referring to the symbol.
    """

    name: str
    arg_types: tuple[Type, ...]
    result_type: Type
    kind: str  # DET or RND
    impl: Optional[Callable] = field(default=None, compare=False)

    def with_impl(self, impl: Callable) -> "FuncSym":
        return FuncSym(self.name, self.arg_types, self.result_type, self.kind, impl)


class SymbolTable:
    """Declared (non-built-in) function symbols, by name.

    A table is a value: syms is a read-only mapping, and declare and bind
    return a new table and leave this one as it was, so a parser or checker
    never needs to copy the table it is given. NO_SYMBOLS is the one empty
    table and the default wherever a table is optional.
    """

    def __init__(self, syms: Mapping[str, FuncSym] = MappingProxyType({})):
        self.syms: Mapping[str, FuncSym] = MappingProxyType(dict(syms))

    def declare(self, sym: FuncSym) -> "SymbolTable":
        """This table with sym added."""
        if sym.name in BUILTIN_NAMES:
            raise ValueError(f"cannot redeclare built-in symbol {sym.name}")
        if sym.name in self.syms and self.syms[sym.name] != sym:
            raise ValueError(f"conflicting declarations for symbol {sym.name}")
        return SymbolTable({**self.syms, sym.name: sym})

    def lookup(self, name: str) -> Optional[FuncSym]:
        return self.syms.get(name)

    def known(self, name: str) -> bool:
        return name in BUILTIN_NAMES or name in self.syms

    def bind(self, name: str, impl: Callable) -> "SymbolTable":
        """This table with the named symbol's evaluator set."""
        if name not in self.syms:
            raise KeyError(f"unknown symbol {name}")
        return SymbolTable({**self.syms, name: self.syms[name].with_impl(impl)})


NO_SYMBOLS = SymbolTable()


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    """A boolean bit literal, '0' or '1'."""

    bit: str

    def __post_init__(self):
        if self.bit not in ("0", "1"):
            raise ValueError(f"bit literal must be 0 or 1, got {self.bit}")


@dataclass(frozen=True)
class App:
    """Application of a named function symbol.

    size_args carries explicit size annotations from the surface syntax
    (setzero requires one; the other built-ins normally infer theirs).
    """

    fname: str
    args: tuple["Expr", ...]
    size_args: tuple[SizePoly, ...] = ()


Expr = Union[Var, Lit, App]


def fv(e: Expr) -> frozenset[str]:
    """Free variables of an expression."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Lit):
        return frozenset()
    out: frozenset[str] = frozenset()
    for a in e.args:
        out |= fv(a)
    return out


def expr_to_text(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        return e.bit
    sizes = ""
    if e.size_args:
        sizes = "[" + ", ".join(poly_to_text(p) for p in e.size_args) + "]"
    return f"{e.fname}{sizes}(" + ", ".join(expr_to_text(a) for a in e.args) + ")"


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    target: str
    rhs: Expr


@dataclass(frozen=True)
class Seq:
    """Two or more statements, none a Seq, run in order; see seq."""

    stmts: tuple["Program", ...]

    def __post_init__(self):
        if len(self.stmts) < 2 or any(isinstance(s, Seq) for s in self.stmts):
            raise ValueError("a Seq holds two or more statements, none a Seq")


@dataclass(frozen=True)
class If:
    guard: str  # grammar restricts guards to bare variables
    then_branch: "Program"
    else_branch: "Program"


Program = Union[Skip, Assign, Seq, If]

SKIP = Skip()


def seq(*parts: Program) -> Program:
    """parts run in order: the one statement, or the flat Seq of them all."""
    stmts = tuple(s for p in parts for s in (p.stmts if isinstance(p, Seq) else (p,)))
    return Seq(stmts) if len(stmts) != 1 else stmts[0]


def program_to_text(p: Program) -> str:
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Assign):
        return f"{p.target} := {expr_to_text(p.rhs)}"
    if isinstance(p, Seq):
        return "; ".join(map(program_to_text, p.stmts))
    return (
        f"if {p.guard} then {program_to_text(p.then_branch)}"
        f" else {program_to_text(p.else_branch)} end"
    )


# ---------------------------------------------------------------------------
# Formulas

ATOM_U = "U"
ATOM_IND = "Ind"
ATOM_EQ = "Eq"
ATOM_ESPL = "ESpl"

ATOM_OPS = {ATOM_IND: "~~", ATOM_EQ: "==", ATOM_ESPL: ".="}


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Atom:
    kind: str  # ATOM_U | ATOM_IND | ATOM_EQ | ATOM_ESPL
    args: tuple[Expr, ...]

    def __post_init__(self):
        want = 1 if self.kind == ATOM_U else 2
        if self.kind not in (ATOM_U, ATOM_IND, ATOM_EQ, ATOM_ESPL):
            raise ValueError(f"unknown atom kind {self.kind}")
        if len(self.args) != want:
            raise ValueError(f"{self.kind} atom takes {want} operand(s)")


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Star:
    left: "Formula"
    right: "Formula"


Body = Union[Top, Bot, Atom, And, Star]


@dataclass(frozen=True)
class Formula:
    """A formula body together with its environment annotation."""

    body: Body
    annotation: Env


TOP = Top()
BOT = Bot()


def top(env: Env = EMPTY_ENV) -> Formula:
    return Formula(TOP, env)


def formula_to_text(f: Formula) -> str:
    """Print with every annotation explicit, so parsing is inverse on the nose."""
    ann = env_to_text(f.annotation)
    b = f.body
    if isinstance(b, Top):
        body = "T"
    elif isinstance(b, Bot):
        body = "F"
    elif isinstance(b, Atom):
        if b.kind == ATOM_U:
            body = f"U({expr_to_text(b.args[0])})"
        else:
            op = ATOM_OPS[b.kind]
            body = f"{expr_to_text(b.args[0])} {op} {expr_to_text(b.args[1])}"
    elif isinstance(b, And):
        body = f"{formula_to_text(b.left)} /\\ {formula_to_text(b.right)}"
    else:
        body = f"{formula_to_text(b.left)} * {formula_to_text(b.right)}"
    return f"({body}){ann}"


# ---------------------------------------------------------------------------
# Triples, proof trees, certificates


@dataclass(frozen=True)
class HoareTriple:
    pre: Formula
    env: Env
    program: Program
    post: Formula


@dataclass(frozen=True)
class CertStep:
    """One step of an entailment derivation.

    Each step records its full conclusion (lhs entails rhs) plus the ids of
    the premise steps it uses, so checking is local to the step.
    """

    sid: str
    rule: str
    lhs: Formula
    rhs: Formula
    premises: tuple[str, ...] = ()


@dataclass(frozen=True)
class EntailmentCert:
    steps: tuple[CertStep, ...]
    root: str

    def step(self, sid: str) -> Optional[CertStep]:
        for s in self.steps:
            if s.sid == sid:
                return s
        return None


@dataclass
class ProofTree:
    rule: str
    conclusion: HoareTriple
    children: tuple["ProofTree", ...] = ()
    mid: Optional[Formula] = None  # Seq witness
    pre_cert: Optional[EntailmentCert] = None  # Weak witnesses
    post_cert: Optional[EntailmentCert] = None


# ---------------------------------------------------------------------------
# Tokenizer

# One alternative per token class, tried in order at each position. The
# grammar is ASCII: any other character matches nothing and is reported.
# Only the token kinds are named groups, so whitespace and "#" comments
# match with lastgroup None. Two-character punctuation comes first so that
# ":=" is not read as ":" followed by "=".
#
# "{" always opens one env token, which the parser reads once per distinct
# text (see _Parser.env): the longest run of characters that tokenize on
# their own, newlines and "#" comments, then the "}" that closes it, if one
# follows. The run stops at "{", "}" and any character the tokenizer
# rejects, and it leaves out a ":" that opens ":=". So the tokens of its
# text (see _Parser.env_bindings) are those the other alternatives give in
# place, and an error in it is reported where it was when "{" was a token
# of its own. A stray "}" is punct.
#
# Given a script's memo, tokenize also reads a group token: from a "(" that
# can only open a formula group (one not after a name or "]", where it
# opens arguments) through its matching ")" and the env token right after
# it, when that text is a group the script has already parsed (see
# _Parser.record). The token stands at the "(" and its text is the group's.
# The parser takes the group's Formula from the memo, and anywhere else it
# fails on it as it failed on that "(" (see _shown).
_ENV_RUN = r"[A-Za-z0-9_ \t\r\n()\[\],;:*+^]*"
_ENV = r"\{" + _ENV_RUN + r"(?:#[^\n]*" + _ENV_RUN + r")*(?:\}|(?<!:)|(?!=))"
_TOKEN = re.compile(
    r"[ \t\r\n]+|#[^\n]*"
    rf"|(?P<env>{_ENV})"
    r"|(?P<punct>:=|->|==|\.=|~~|/\\|[()}\[\],;:*+^])"
    r"|(?P<int>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)

# What _group_ends pairs: "(", and ")" with the env token right after it.
_GROUP_SCAN = re.compile(rf"\(|\)(?:{_ENV})?")


class Token(NamedTuple):
    """A token and where it starts: a character offset in the text being
    parsed. Line and column are worked out from it only for an error (see
    ParseError.at)."""

    kind: str  # "ident" | "int" | "punct" | "env" | "group" | "eof"
    text: str
    start: int


def _own_decls(tokens: list[Token]) -> bool:
    """Whether tokens open with a decl preamble, which gives their text its
    own symbol table, so that its groups are not the script's."""
    return bool(tokens) and tokens[0][:2] == ("ident", "decl")


def _group_ends(text: str) -> dict[int, int]:
    """Where each group of text may end: for each "(" whose matching ")" is
    followed at once by an env token, the offset just past that token.

    A parenthesis in a comment or in a malformed annotation can pair the
    wrong ones. That costs no more than a missed group token, as tokenize
    takes a span for a group only when its text is a group already parsed.
    """
    ends: dict[int, int] = {}
    opened: list[int] = []
    for m in _GROUP_SCAN.finditer(text):
        start, end = m.span()
        if text[start] == "(":
            opened.append(start)
        elif opened:
            open_at = opened.pop()
            if end - start > 1:
                ends[open_at] = end
    return ends


def tokenize(text: str, memo: Optional[dict] = None) -> list[Token]:
    """The tokens of text; memo, a script's memo (see _parsed), lets a group
    the script has already parsed be one group token. A text with its own
    decl preamble has its own symbol table, so it gets no group tokens."""
    tokens = []
    match = _TOKEN.match
    ends = None if memo else {}  # found at the first "(" that may open a group
    i, n = 0, len(text)
    while i < n:
        m = match(text, i)
        if m is None:
            raise ParseError.at(f"unexpected character {text[i]!r}", text, i)
        kind = m.lastgroup
        start, i = i, m.end()
        if kind is not None:
            tok = m.group()
            # after a name or "]" a "(" opens arguments, elsewhere a group
            if tok == "(" and not (
                tokens and (tokens[-1].kind == "ident" or tokens[-1].text == "]")
            ):
                if ends is None:
                    ends = {} if _own_decls(tokens) else _group_ends(text)
                end = ends.get(start)
                if end is not None and text[start:end] in memo:
                    kind, tok, i = "group", text[start:end], end
            tokens.append(Token(kind, tok, start))
    # a comment that runs to the end of the text leaves eof at its "#"
    end = text.find("#", text.rfind("\n") + 1)
    tokens.append(Token("eof", "", n if end < 0 else end))
    return tokens


def _shown(tok: Token) -> str:
    """How an error names a token: an env token by its opening brace, a group
    token by its opening parenthesis."""
    if tok.kind == "env":
        return "{"
    return "(" if tok.kind == "group" else tok.text


# Parentheses, function arguments, begin and if may nest this deep. The
# deepest script built by tools/build_corpus.build_exp(32) nests 34 levels;
# the parser and every recursive pass over the tree it builds stay well
# inside Python's recursion limit at this depth.
MAX_DEPTH = 100

# A size polynomial's exponent is at most this. Its terms are built as
# coefficient lists, so a typo like n^1000000000 would ask for gigabytes,
# and already at n = 2 a Str[n^64] is past any bit budget.
MAX_EXPONENT = 64

# An integer literal has at most this many digits: Python's default bound
# on int() of a string, so that no literal reaches int() only to fail there.
MAX_DIGITS = 4300


class _Parser:
    """Recursive descent over the tokens of text, which it tokenizes with
    memo.

    memo maps the text of each env token read so far to its Env, and each
    binding text in one to its binding (see env_bindings), so equal
    annotations are parsed once and share one object; parse_formula and
    parse_env take it from their caller to share it across texts. The parser
    also enters in memo each annotated group it reads (see record), which
    tokenize then reads as one token.
    """

    def __init__(
        self,
        text: str,
        symbols: SymbolTable = NO_SYMBOLS,
        memo: Optional[dict] = None,
    ):
        self.text = text
        self.tokens = tokenize(text, memo)
        self.pos = 0
        self.depth = 0
        self.deepest = 0  # the greatest depth reached in the current group
        self.symbols = symbols
        self.memo = {} if memo is None else memo

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        if text == "":
            return tok.kind == "eof"
        return tok.text == text and tok.kind in ("punct", "ident")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def at_env(self) -> bool:
        return self.peek().kind == "env"

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, got {_shown(self.peek())!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.peek().kind != "ident":
            self.fail(f"expected {what}, got {_shown(self.peek())!r}")
        return self.next()

    def fail(self, message: str, tok: Optional[Token] = None):
        """Raise message at tok, by default the token at hand."""
        start = self.peek().start if tok is None else tok.start
        raise ParseError.at(message, self.text, start)

    def unfold(self, skip: int) -> None:
        """Put the tokens of the text of the token at hand, from its
        character skip on, in its place."""
        tok = self.peek()
        self.tokens[self.pos : self.pos + 1] = [
            Token(kind, text, tok.start + skip + start)
            for kind, text, start in tokenize(tok.text[skip:])[:-1]
        ]

    def enter(self) -> None:
        """One level deeper; the caller lowers self.depth when it leaves."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nesting deeper than {MAX_DEPTH} levels")
        self.deepest = max(self.deepest, self.depth)

    # -- polynomials, types, environments

    def poly(self) -> SizePoly:
        total = self.poly_term()
        while self.eat("+"):
            total = total.add(self.poly_term())
        return total

    def poly_term(self) -> SizePoly:
        tok = self.peek()
        coeff = 1
        if tok.kind == "int":
            coeff = self.int_(self.next())
            if not (self.peek().kind == "ident" and self.peek().text == "n"):
                return SizePoly.const(coeff)
        if not (self.peek().kind == "ident" and self.peek().text == "n"):
            self.fail("expected a size polynomial term")
        self.next()
        power = 1
        if self.eat("^"):
            if self.peek().kind != "int":
                self.fail("expected an integer exponent")
            power = self.int_(self.peek())
            if power > MAX_EXPONENT:
                self.fail(f"exponent larger than {MAX_EXPONENT}")
            self.next()
        return SizePoly.make([0] * power + [coeff])

    def int_(self, tok: Token) -> int:
        """The value of the int token tok."""
        if len(tok.text) > MAX_DIGITS:
            self.fail(f"integer longer than {MAX_DIGITS} digits", tok)
        return int(tok.text)

    def type_(self) -> Type:
        tok = self.expect_ident("a type")
        if tok.text == "Bool":
            return BOOL
        if tok.text == "Str":
            self.expect("[")
            p = self.poly()
            self.expect("]")
            return StrType(p)
        self.fail(f"expected a type, got {tok.text!r}", tok)

    def env(self) -> Env:
        if not self.at_env():
            self.expect("{")  # fails: "{" only ever opens an env token
        text = self.peek().text
        found = self.memo.get(text)
        if found is None:
            bindings = self.env_bindings()
            try:
                found = self.memo[text] = Env.make(bindings)
            except ValueError as exc:  # reported at the token after the env token
                self.fail(str(exc))
        else:
            self.next()
        return found

    def env_bindings(self) -> list[tuple[str, Type]]:
        """The bindings of the env token at hand, read through it. Unless
        memo knows them all, the tokens of its text take its place, each
        where it is, for bindings to read; so one with no "}" fails at the
        token after it.

        Only commas separate bindings, so each text between commas of a
        closed env token that was read, and that holds no comment, is one
        binding, which memo keeps under that text. An env token whose every
        such text is in memo is not read again.
        """
        text = self.peek().text[1:]
        if text.endswith("}"):
            parts = text[:-1].split(",")
            known = [self.memo.get(part) for part in parts]
            if None not in known:
                self.next()
                return known
        self.unfold(1)  # its "}", if it has one, is punct
        bindings = self.bindings()  # returns only at a "}"
        if "#" not in text:
            self.memo.update(zip(parts, bindings))  # none for "{}"
        return bindings

    def bindings(self) -> list[tuple[str, Type]]:
        """The bindings of an environment after its "{", through its "}"."""
        bindings = []
        if not self.at("}"):
            while True:
                name = self.expect_ident("a variable name").text
                self.expect(":")
                bindings.append((name, self.type_()))
                if not self.eat(","):
                    break
        self.expect("}")
        return bindings

    # -- declarations

    def decls(self) -> None:
        while self.at("decl"):
            self.next()
            name_tok = self.expect_ident("a symbol name")
            if name_tok.text in BUILTIN_NAMES:
                self.fail(f"cannot redeclare built-in symbol {name_tok.text}", name_tok)
            self.expect(":")
            arg_types = []
            if not self.at("->"):
                while True:
                    arg_types.append(self.type_())
                    if not self.eat(","):
                        break
            self.expect("->")
            result = self.type_()
            kind_tok = self.expect_ident("det or rnd")
            if kind_tok.text not in (DET, RND):
                self.fail(f"expected det or rnd, got {kind_tok.text!r}", kind_tok)
            self.expect(";")
            try:
                self.symbols = self.symbols.declare(
                    FuncSym(name_tok.text, tuple(arg_types), result, kind_tok.text)
                )
            except ValueError as exc:
                self.fail(str(exc), name_tok)

    # -- expressions

    def expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            if tok.text in ("0", "1"):
                self.next()
                return Lit(tok.text)
            self.fail(f"unexpected integer {tok.text!r} in expression")
        name_tok = self.expect_ident("an expression")
        name = name_tok.text
        size_args: tuple[SizePoly, ...] = ()
        if self.at("["):
            self.next()
            sizes = [self.poly()]
            while self.eat(","):
                sizes.append(self.poly())
            self.expect("]")
            size_args = tuple(sizes)
        if self.at("(") or size_args:
            if not self.symbols.known(name):
                self.fail(f"unknown function symbol {name}", name_tok)
            self.expect("(")
            self.enter()
            args = []
            if not self.at(")"):
                while True:
                    args.append(self.expr())
                    if not self.eat(","):
                        break
            self.expect(")")
            self.depth -= 1
            return App(name, tuple(args), size_args)
        return Var(name)

    # -- programs

    def program(self) -> Program:
        stmts = [self.statement()]
        while self.eat(";"):
            stmts.append(self.statement())
        return seq(*stmts)

    def statement(self) -> Program:
        tok = self.peek()
        if self.eat("skip"):
            return SKIP
        if self.eat("begin"):
            self.enter()
            body = self.program()
            self.expect("end")
            self.depth -= 1
            return body
        if self.eat("if"):
            guard_tok = self.expect_ident("a guard variable")
            if self.at("("):
                self.fail("guard of if must be a bare variable", guard_tok)
            self.expect("then")
            self.enter()
            then_branch = self.program()
            self.expect("else")
            else_branch = self.program()
            self.expect("end")
            self.depth -= 1
            return If(guard_tok.text, then_branch, else_branch)
        target = self.expect_ident("a statement")
        if target.text in ("then", "else", "end", "decl"):
            self.fail(f"unexpected keyword {target.text!r}", target)
        self.expect(":=")
        return Assign(target.text, self.expr())

    # -- formulas

    def formula(self) -> Formula:
        raw = self.raw_star()
        return _resolve_formula(raw, None, self)

    def raw_star(self) -> "_RawNode":
        node = self.raw_conj()
        while self.at("*"):
            self.next()
            right = self.raw_conj()
            node = _RawNode("star", left=node, right=right, ann=self.opt_ann())
        return node

    def raw_conj(self) -> "_RawNode":
        node = self.raw_primary()
        while self.at("/\\"):
            self.next()
            right = self.raw_primary()
            node = _RawNode("and", left=node, right=right, ann=self.opt_ann())
        return node

    def raw_primary(self) -> "_RawNode":
        tok = self.peek()
        if tok.kind == "group":
            formula, depth, free_vars = self.memo[tok.text]
            if self.depth + depth <= MAX_DEPTH:
                self.next()
                self.deepest = max(self.deepest, self.depth + depth)
                ann = formula.annotation
                return _RawNode("group", ann=ann, free_vars=free_vars, resolved=formula)
            self.unfold(0)  # token by token, so that the nesting error is where it was
        if self.eat("("):
            outer, self.deepest = self.deepest, self.depth
            self.enter()
            inner = self.raw_star()
            self.expect(")")
            self.depth -= 1
            if self.at_env():
                if inner.ann is not None:
                    self.fail("formula is annotated twice")
                ann_tok = self.peek()
                inner.ann = self.env()
                self.record(tok, ann_tok, inner, self.deepest - self.depth)
            self.deepest = max(outer, self.deepest)
            return inner
        if self.eat("T"):
            return _RawNode("top", ann=self.opt_ann())
        if self.eat("F"):
            return _RawNode("bot", ann=self.opt_ann())
        if self.at("U"):
            save = self.pos
            self.next()
            if self.eat("("):
                arg = self.expr()
                self.expect(")")
                return _RawNode("atom", atom=Atom(ATOM_U, (arg,)), ann=self.opt_ann())
            self.pos = save
        left = self.expr()
        for op, kind in (("==", ATOM_EQ), ("~~", ATOM_IND), (".=", ATOM_ESPL)):
            if self.eat(op):
                right = self.expr()
                return _RawNode(
                    "atom", atom=Atom(kind, (left, right)), ann=self.opt_ann()
                )
        self.fail("expected ==, ~~ or .= after expression")

    def opt_ann(self) -> Optional[Env]:
        if self.at_env():
            return self.env()
        return None

    def record(self, open_tok: Token, ann_tok: Token, node: "_RawNode", depth: int):
        """Enter the group from open_tok through its annotation ann_tok in
        memo, as its Formula, the depth it nests to and its free variables.

        Only a group written "(...){...}" with its annotation right after
        the ")" is entered, as tokenize reads no other, and none of a text
        with its own decl preamble. Its explicit annotation wins over any
        inherited one and is passed down to every part of it, so it
        resolves, and alike wherever it stands. A group already entered
        keeps its Formula, so equal groups are one object.
        """
        if _own_decls(self.tokens):
            return
        end = ann_tok.start
        if self.text[end - 1] != ")":
            return
        key = self.text[open_tok.start : end + len(ann_tok.text)]
        found = self.memo.get(key)
        if found is None:
            formula = _resolve_formula(node, None, self)
            found = self.memo[key] = (formula, depth, node.free_vars)
        node.resolved = found[0]


@dataclass
class _RawNode:
    """Parse-tree node for formulas before annotation resolution; its free
    variables are worked out once, when the node is built. A group read
    once per script (see _Parser.record) carries its Formula as resolved."""

    kind: str  # "top" | "bot" | "atom" | "and" | "star" | "group"
    left: Optional["_RawNode"] = None
    right: Optional["_RawNode"] = None
    atom: Optional[Atom] = None
    ann: Optional[Env] = None
    free_vars: Optional[frozenset[str]] = None
    resolved: Optional[Formula] = None

    def __post_init__(self):
        if self.free_vars is not None:
            return
        if self.atom is not None:
            self.free_vars = frozenset().union(*map(fv, self.atom.args))
        elif self.left is not None:
            self.free_vars = self.left.free_vars | self.right.free_vars
        else:
            self.free_vars = frozenset()


def _merge_annotations(a: Env, b: Env, parser: _Parser, disjoint: bool) -> Env:
    merged: dict[str, Type] = dict(a.items())
    for name, t in b.items():
        if name in merged:
            if disjoint:
                parser.fail(f"variable {name} bound on both sides of *")
            if merged[name] != t:
                parser.fail(f"conflicting types inferred for {name}")
        else:
            merged[name] = t
    return Env.make(merged)


def _resolve_formula(
    node: _RawNode, inherited: Optional[Env], parser: _Parser
) -> Formula:
    """Attach environment annotations.

    Explicit annotations win. An un-annotated atom, T, or F inherits the
    enclosing annotation (restricted to free variables on the children of a
    *, which must be disjoint). An un-annotated compound with annotated
    children takes the union (for /\\) or disjoint join (for *) of theirs.
    """
    if node.resolved is not None:
        return node.resolved
    ann = node.ann if node.ann is not None else inherited
    if node.kind in ("top", "bot"):
        if ann is None:
            parser.fail("annotation omitted where required")
        return Formula(TOP if node.kind == "top" else BOT, ann)
    if node.kind == "atom":
        if ann is None:
            parser.fail("annotation omitted where required")
        return Formula(node.atom, ann)
    star_node = node.kind == "star"
    child_inherit_left = child_inherit_right = ann
    if star_node and ann is not None:
        # children of * must have disjoint domains, so an inherited
        # annotation is cut down to each child's free variables
        child_inherit_left = ann.restrict(node.left.free_vars)
        child_inherit_right = ann.restrict(node.right.free_vars)
    left = _resolve_formula(node.left, child_inherit_left, parser)
    right = _resolve_formula(node.right, child_inherit_right, parser)
    if ann is None:
        ann = _merge_annotations(
            left.annotation, right.annotation, parser, disjoint=star_node
        )
    ctor = Star if star_node else And
    return Formula(ctor(left, right), ann)


# ---------------------------------------------------------------------------
# Parser entry points


def _parse(
    text: str,
    read: Callable,
    symbols: SymbolTable = NO_SYMBOLS,
    memo: Optional[dict] = None,
    decls: bool = False,
):
    """The symbol table and read(p) of a _Parser p over text, read after
    p's decl preamble when decls is set; the text must end there."""
    p = _Parser(text, symbols, memo)
    if decls:
        p.decls()
    result = read(p)
    p.expect("")
    return p.symbols, result


def parse_program(text: str, symbols: SymbolTable = NO_SYMBOLS) -> Program:
    """Parse a program, allowing an optional decl preamble."""
    return parse_program_with_decls(text, symbols)[1]


def parse_program_with_decls(
    text: str, symbols: SymbolTable = NO_SYMBOLS
) -> tuple[SymbolTable, Program]:
    return _parse(text, _Parser.program, symbols, decls=True)


def parse_formula(
    text: str, symbols: SymbolTable = NO_SYMBOLS, memo: Optional[dict] = None
) -> Formula:
    """Parse an annotated formula, allowing an optional decl preamble.

    memo, when given, maps the annotation texts and annotated group texts
    parsed so far under symbols to their Env objects and group entries, and
    gains this text's; see _Parser and tokenize.
    """
    return parse_formula_with_decls(text, symbols, memo)[1]


def parse_formula_with_decls(
    text: str, symbols: SymbolTable = NO_SYMBOLS, memo: Optional[dict] = None
) -> tuple[SymbolTable, Formula]:
    return _parse(text, _Parser.formula, symbols, memo, decls=True)


def parse_expr(text: str, symbols: SymbolTable = NO_SYMBOLS) -> Expr:
    return _parse(text, _Parser.expr, symbols)[1]


def parse_type(text: str) -> Type:
    return _parse(text, _Parser.type_)[1]


def parse_env(text: str, memo: Optional[dict] = None) -> Env:
    """Parse an environment; memo as for parse_formula."""
    return _parse(text, _Parser.env, memo=memo)[1]


def parse_poly(text: str) -> SizePoly:
    return _parse(text, _Parser.poly)[1]


def parse_decls(text: str, symbols: SymbolTable = NO_SYMBOLS) -> SymbolTable:
    return _parse(text, _Parser.decls, symbols)[0]


# ---------------------------------------------------------------------------
# Proof scripts and certificates (JSON)


def unique_keys(pairs: list) -> dict:
    """object_pairs_hook for json.loads that refuses a repeated key, which
    json.loads would otherwise read as its last copy."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object repeats the key {key!r}")
            seen.add(key)
    return obj


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"JSON integer longer than {MAX_DIGITS} digits")
    return int(text)


def load_json(text: str):
    """The JSON document text, read as every cslcheck file is: a repeated
    key raises ValueError (see unique_keys), and so does an integer of more
    than MAX_DIGITS digits. Invalid JSON raises json.JSONDecodeError."""
    return json.loads(text, object_pairs_hook=unique_keys, parse_int=_json_int)


def _load_document(text: str, what: str):
    """load_json(text), with invalid JSON raised as a ValueError naming
    what the document is."""
    try:
        return load_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def _json_str(obj: dict, key: str, where: str) -> str:
    if not isinstance(obj[key], str):
        raise ValueError(f"{where}: field {key!r} must be a string")
    return obj[key]


def _json_list(obj: dict, key: str, where: str, item: type) -> list:
    """An optional list field whose entries all have JSON type item."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        kinds = "strings" if item is str else "objects"
        raise ValueError(f"{where}: field {key!r} must be a list of {kinds}")
    return value


def _parsed(memo: dict, obj: dict, key: str, where: str, parse: Callable, *args):
    """parse(obj[key], *args), computed once per distinct text in one script.
    A ParseError names the field, where.key, in front of its line and column;
    memo keeps no failure, so that is the field where the text first occurs.

    memo lives for one parse_proof_with_decls or parse_cert call, where the
    symbol table is fixed, so the text alone is a sound key. It also serves
    parse_formula and parse_env as their memo. Under annotation-text keys
    "{...}" it holds Env objects, under the text of each binding between the
    commas of an annotation its binding (see _Parser.env_bindings), and under
    group-text keys "(...){...}" the Formula, nesting depth and free
    variables of each annotated group read so far (see _Parser.record).
    """
    text = _json_str(obj, key, where)
    found = memo.get((parse, text))
    if found is None:
        try:
            found = memo[parse, text] = parse(text, *args)
        except ParseError as exc:
            raise exc.within(f"{where}.{key}") from None
    return found


def _cert_from_obj(
    obj: dict, symbols: SymbolTable, path: str, memo: dict
) -> EntailmentCert:
    steps = []
    if not isinstance(obj, dict) or "steps" not in obj or "root" not in obj:
        raise ValueError(f"{path}: certificate needs 'steps' and 'root'")
    for i, raw in enumerate(_json_list(obj, "steps", path, dict)):
        where = f"{path}.steps[{i}]"
        for key in ("id", "rule", "lhs", "rhs"):
            if key not in raw:
                raise ValueError(f"{where}: missing field {key!r}")
        steps.append(
            CertStep(
                sid=_json_str(raw, "id", where),
                rule=_json_str(raw, "rule", where),
                lhs=_parsed(memo, raw, "lhs", where, parse_formula, symbols, memo),
                rhs=_parsed(memo, raw, "rhs", where, parse_formula, symbols, memo),
                premises=tuple(_json_list(raw, "premises", where, str)),
            )
        )
    return EntailmentCert(tuple(steps), _json_str(obj, "root", path))


def _cert_to_obj(cert: EntailmentCert) -> dict:
    return {
        "steps": [
            {
                "id": s.sid,
                "rule": s.rule,
                "lhs": formula_to_text(s.lhs),
                "rhs": formula_to_text(s.rhs),
                "premises": list(s.premises),
            }
            for s in cert.steps
        ],
        "root": cert.root,
    }


def _tree_from_obj(
    obj: dict, symbols: SymbolTable, path: str, memo: dict
) -> ProofTree:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: proof node must be an object")
    for key in ("rule", "env", "pre", "program", "post"):
        if key not in obj:
            raise ValueError(f"{path}: missing field {key!r}")
    rule = _json_str(obj, "rule", path)
    env = _parsed(memo, obj, "env", path, parse_env, memo)
    conclusion = HoareTriple(
        pre=_parsed(memo, obj, "pre", path, parse_formula, symbols, memo),
        env=env,
        program=_parsed(memo, obj, "program", path, parse_program, symbols),
        post=_parsed(memo, obj, "post", path, parse_formula, symbols, memo),
    )
    children = tuple(
        _tree_from_obj(c, symbols, f"{path}.children[{i}]", memo)
        for i, c in enumerate(_json_list(obj, "children", path, dict))
    )
    mid = None
    if "mid" in obj:
        mid = _parsed(memo, obj, "mid", path, parse_formula, symbols, memo)
    certs = [
        _cert_from_obj(obj[key], symbols, f"{path}.{key}", memo) if key in obj else None
        for key in ("pre_cert", "post_cert")
    ]
    return ProofTree(rule, conclusion, children, mid, *certs)


def parse_proof_with_decls(
    text: str, symbols: SymbolTable = NO_SYMBOLS
) -> tuple[SymbolTable, ProofTree]:
    """Parse a JSON proof script into its symbol table and ProofTree.

    The document is {"decls": [...], "root": node}; every node carries
    rule, env, pre, program, post, optional witnesses, and children.
    """
    doc = _load_document(text, "proof script")
    if not isinstance(doc, dict):
        raise ValueError("proof script must be a JSON object")
    for i, decl in enumerate(_json_list(doc, "decls", "proof script", str)):
        try:
            symbols = parse_decls(decl, symbols)
        except ParseError as exc:
            raise exc.within(f"decls[{i}]") from None
    if "root" not in doc:
        raise ValueError("proof script needs a 'root' node")
    return symbols, _tree_from_obj(doc["root"], symbols, "root", {})


def parse_proof(text: str, symbols: SymbolTable = NO_SYMBOLS) -> ProofTree:
    return parse_proof_with_decls(text, symbols)[1]


def _tree_to_obj(t: ProofTree) -> dict:
    obj = {
        "rule": t.rule,
        "env": env_to_text(t.conclusion.env),
        "pre": formula_to_text(t.conclusion.pre),
        "program": program_to_text(t.conclusion.program),
        "post": formula_to_text(t.conclusion.post),
    }
    if t.mid is not None:
        obj["mid"] = formula_to_text(t.mid)
    if t.pre_cert is not None:
        obj["pre_cert"] = _cert_to_obj(t.pre_cert)
    if t.post_cert is not None:
        obj["post_cert"] = _cert_to_obj(t.post_cert)
    if t.children:
        obj["children"] = [_tree_to_obj(c) for c in t.children]
    return obj


def proof_to_text(t: ProofTree, decls: Optional[list[str]] = None) -> str:
    doc = {"decls": decls or [], "root": _tree_to_obj(t)}
    return json.dumps(doc, indent=2) + "\n"


def parse_cert(text: str, symbols: SymbolTable = NO_SYMBOLS) -> EntailmentCert:
    return _cert_from_obj(_load_document(text, "certificate"), symbols, "cert", {})
