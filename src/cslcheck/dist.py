"""Exact finite probability distributions over memories and values.

A distribution holds positive integer weights over one denominator, in
lowest terms, so structural equality of the weights is equality of
distributions and every uniformity/distance check is decidable with no
tolerance. A memory is the tuple of its values in the order of its
environment. FinDist knows nothing of environments: the Store that holds a
memory distribution, or the caller that passes env, names the values, so
project, tensor and condition take theirs from there. memory() is the one
checked way to build a memory from names. parse_store reads a family's
entries in C-level passes and checks each distinct value of each variable
once against its width and the 01 alphabet; only when a check fails does
it go through the entries one by one with memory()'s reader, to word the
first error. store_to_text formats the fixed entry layout directly, with
one probability text per distinct weight. Fractions appear only at the
boundary: the public constructor, scale, prob, items, prob_texts, total,
the result of stat_dist and the store file format. mix is the one integer
bind: FinDist.bind, add, and the random assignments and conditionals of the
program kernel go through it. merge is the one integer map: FinDist.map,
project, and the kernel's deterministic assignments and forgetting of dead
variables, go through it. _key is the one memory key on a sub-environment:
project, tensor and independence key memories through it.

Sub-unit total mass is permitted (the program semantics is linear and gets
exercised on sub-distributions); stores and serialization require full
mass. The public FinDist constructor, scale, add, Store() and parse_store
validate. What is valid by construction is built unchecked: map, bind,
condition and the program kernel through FinDist.from_ints; project,
tensor, the marginals of independence, run_store and stores cut from a
store's own distributions through Store.from_dists. independence decides
no verdict: it gives the marginals and the exact distance of the joint
from their product, and logic compares that with the tolerance.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Optional

from .syntax import (
    BoolType,
    Env,
    MAX_DIGITS,
    Type,
    env_to_text,
    load_json,
    parse_type,
    poly_eval,
    type_to_text,
)
from .types import TypeCheckError, env_ext, env_join


class ZeroMassError(ValueError):
    """Conditioning on an event of probability zero."""


def value_len(t: Type, n: int) -> int:
    """Bit width of a value of type t at security parameter n."""
    return 1 if isinstance(t, BoolType) else poly_eval(t.size, n)


def all_values(t: Type, n: int) -> list[str]:
    """Every value of type t at n, in lexicographic order."""
    width = value_len(t, n)
    return ["".join(bits) for bits in product("01", repeat=width)]


def memory_bits(env: Env, n: int) -> int:
    """Total bit width of one memory over env at n."""
    return sum(value_len(t, n) for _, t in env.items())


# ---------------------------------------------------------------------------
# Memories: a memory over env at n is the tuple of its values in env order.


def _memory_reader(env: Env, n: int) -> Callable[[dict], tuple]:
    """Reads a memory from a mapping of names to bitstrings, checking every
    value; the widths are worked out once, here."""
    fields = [(name, value_len(t, n)) for name, t in env.items()]

    def read(mapping: dict) -> tuple:
        values = []
        for name, width in fields:
            if name not in mapping:
                raise ValueError(f"memory missing a value for {name}")
            v = mapping[name]
            _check_value(name, width, v)
            values.append(v)
        if len(mapping) > len(fields):
            extra = set(mapping) - set(env.names())
            raise ValueError(f"memory has extra variables {sorted(extra)}")
        return tuple(values)

    return read


def memory(env: Env, n: int, mapping) -> tuple:
    """The memory over env at n that maps each name to its bitstring."""
    return _memory_reader(env, n)(dict(mapping))


def _check_value(name: str, width: int, v) -> None:
    if not isinstance(v, str) or v.strip("01"):
        raise ValueError(f"value for {name} must be a bitstring, got {v!r}")
    if len(v) != width:
        raise ValueError(f"value for {name} must have {width} bit(s), got {len(v)}")


def all_memories(env: Env, n: int) -> list[tuple]:
    """Every well-typed memory over env at n, in canonical order."""
    return list(product(*(all_values(t, n) for _, t in env.items())))


# ---------------------------------------------------------------------------
# Distributions


def _is_exact(pr) -> bool:
    return isinstance(pr, (int, Fraction)) and not isinstance(pr, bool)


class FinDist:
    """A finite-support map from points to positive rational probabilities,
    held as positive integer weights over one denominator in lowest terms."""

    __slots__ = ("_weights", "_den")

    def __init__(self, probs: dict):
        for point, pr in probs.items():
            if not _is_exact(pr):
                raise ValueError(
                    f"probability at {point!r} must be an int or a Fraction, got {pr!r}"
                )
        entries = [(p, (pr.numerator, pr.denominator)) for p, pr in probs.items()]
        self._weights, self._den = _checked_dist(entries).weights()

    @staticmethod
    def from_ints(weights: dict, den: int) -> "FinDist":
        """Positive integer weights over den, of sum at most den, taken
        unchecked and reduced to lowest terms."""
        g = gcd(den, *weights.values())
        d = object.__new__(FinDist)
        d._weights = {p: w // g for p, w in weights.items()} if g > 1 else weights
        d._den = den // g
        return d

    # -- inspection

    def weights(self) -> tuple[dict, int]:
        """The integer weights and their denominator, to be read, not mutated."""
        return self._weights, self._den

    def items(self) -> list:
        return [(p, self.prob(p)) for p in self.support()]

    def prob_texts(self) -> list:
        """The points in canonical order, each with str() of its probability,
        made once per distinct weight."""
        weights, den = self._weights, self._den
        texts = {w: str(Fraction(w, den)) for w in set(weights.values())}
        return [(p, texts[weights[p]]) for p in sorted(weights)]

    def support(self) -> list:
        """The points in canonical order."""
        return sorted(self._weights)

    def prob(self, point) -> Fraction:
        return Fraction(self._weights.get(point, 0), self._den)

    def total(self) -> Fraction:
        return Fraction(sum(self._weights.values()), self._den)

    def is_proper(self) -> bool:
        return sum(self._weights.values()) == self._den

    def __eq__(self, other) -> bool:
        return isinstance(other, FinDist) and self.weights() == other.weights()

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {pr}" for p, pr in self.items())
        return "FinDist({" + inner + "})"

    # -- construction and the monad

    @staticmethod
    def dirac(point) -> "FinDist":
        return FinDist.from_ints({point: 1}, 1)

    def map(self, fn: Callable) -> "FinDist":
        return FinDist.from_ints(merge(self._weights, fn), self._den)

    def bind(self, k: Callable[[object], "FinDist"]) -> "FinDist":
        return FinDist.from_ints(*mix(self._weights, self._den, lambda p: k(p).weights()))

    def scale(self, factor: Fraction) -> "FinDist":
        if not _is_exact(factor):
            raise ValueError(f"scale factor must be an int or a Fraction, got {factor!r}")
        den = self._den
        return FinDist({p: Fraction(w, den) * factor for p, w in self._weights.items()})

    def add(self, other: "FinDist") -> "FinDist":
        parts = (self.weights(), other.weights())
        d = FinDist.from_ints(*mix({0: 1, 1: 1}, 1, parts.__getitem__))
        if d.total() > 1:
            raise ValueError(f"probabilities sum to {d.total()} > 1")
        return d


def merge(weights: dict, fn: Callable) -> dict:
    """The integer map: the weights of the points p with one fn(p), summed."""
    out: dict = {}
    for p, w in weights.items():
        q = fn(p)
        out[q] = out.get(q, 0) + w
    return out


def mix(weights: dict, den: int, k: Callable) -> tuple[dict, int]:
    """The integer bind: the sum over points p of weights[p]/den times k(p),
    where k(p) is a (weights, den) pair too. The result is over den times
    the lcm of k's denominators, and need not be in lowest terms."""
    out, lcd = {}, 1
    for p, w in weights.items():
        ws, d = k(p)
        if lcd % d:
            g = d // gcd(lcd, d)
            out = {q: x * g for q, x in out.items()}
            lcd *= g
        s = w * (lcd // d)
        for q, x in ws.items():
            out[q] = out.get(q, 0) + s * x
    return out, den * lcd


def uniform_values(t: Type, n: int) -> FinDist:
    vals = all_values(t, n)
    return FinDist.from_ints(dict.fromkeys(vals, 1), len(vals))


def uniform_memories(env: Env, n: int) -> FinDist:
    mems = all_memories(env, n)
    return FinDist.from_ints(dict.fromkeys(mems, 1), len(mems))


def condition(d: FinDist, env: Env, r: str, b: str) -> FinDist:
    """Renormalized restriction of d, over env, to the event m(r) = b; b is
    '0' or '1'."""
    i = env.names().index(r)
    hits = {m: w for m, w in d._weights.items() if m[i] == b}
    mass = sum(hits.values())
    if mass == 0:
        raise ZeroMassError(f"conditioning on {r} = {b}, an event of mass zero")
    return FinDist.from_ints(hits, mass)


def convex(a: FinDist, b: FinDist, guard: FinDist) -> FinDist:
    """guard('1')·a + guard('0')·b, with absolute weights from guard."""
    extra = [v for v in guard.support() if v not in ("0", "1")]
    if extra:
        raise ValueError(f"guard distribution has non-boolean support {extra}")
    return a.scale(guard.prob("1")).add(b.scale(guard.prob("0")))


def stat_dist(a: FinDist, b: FinDist) -> Fraction:
    """Total variation distance: half the pointwise L1 distance."""
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, den // b._den
    wa, wb = a._weights, b._weights
    diff = sum(abs(wa.get(p, 0) * fa - wb.get(p, 0) * fb) for p in wa.keys() | wb.keys())
    return Fraction(diff, 2 * den)


# ---------------------------------------------------------------------------
# Stores


class Store:
    """An environment with one memory distribution per tested n; the
    environment names the values of every memory."""

    __slots__ = ("env", "family")

    def __init__(self, env: Env, family: dict[int, FinDist]):
        self.env = env
        self.family = dict(family)
        arity = len(env)
        for n, d in self.family.items():
            if not d.is_proper():
                raise ValueError(f"store distribution at n={n} has mass != 1")
            for m in d._weights:
                if not isinstance(m, tuple) or len(m) != arity:
                    raise ValueError(
                        f"memory {m!r} in the n={n} slot does not hold one "
                        f"value per variable of {env_to_text(env)}"
                    )

    @staticmethod
    def from_dists(env: Env, family: dict) -> "Store":
        """A store of proper distributions over memories of env, taken
        unchecked and uncopied."""
        s = object.__new__(Store)
        s.env, s.family = env, family
        return s

    def tested_ns(self) -> list[int]:
        return sorted(self.family)

    def at(self, n: int) -> FinDist:
        return self.family[n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Store)
            and self.env == other.env
            and self.family == other.family
        )

    def __repr__(self) -> str:
        ns = ", ".join(str(n) for n in self.tested_ns())
        return f"Store({self.env}, n in [{ns}])"


def uniform_store(env: Env, ns: Iterable[int]) -> Store:
    return Store(env, {n: uniform_memories(env, n) for n in ns})


def dirac_store(env: Env, ns: Iterable[int], value_fn) -> Store:
    """Store of point masses; value_fn(name, type, n) gives each value."""
    family = {}
    for n in ns:
        mem = memory(env, n, {name: value_fn(name, t, n) for name, t in env.items()})
        family[n] = FinDist.dirac(mem)
    return Store(env, family)


def zero_store(env: Env, ns: Iterable[int]) -> Store:
    return dirac_store(env, ns, lambda name, t, n: "0" * value_len(t, n))


def project(s: Store, target: Env) -> Store:
    """The marginal of s on target, a sub-environment of s.env; s itself
    when target is all of s.env."""
    if target == s.env:
        return s
    _need_sub_env(target, s.env)
    key = _key(s.env.names(), target)
    family = {
        n: FinDist.from_ints(_keyed_memories(merge(d._weights, key), target), d._den)
        for n, d in s.family.items()
    }
    return Store.from_dists(target, family)


def _need_sub_env(target: Env, env: Env) -> None:
    if not env_ext(target, env):
        where = f"{env_to_text(target)} is not a sub-environment of {env_to_text(env)}"
        raise TypeCheckError("project", where)


def independence(
    s: Store, left: Env, right: Env
) -> tuple[Store, Store, dict[int, Fraction]]:
    """The marginals of s on left and on right, two disjoint sub-environments
    of s.env, and per n the exact total variation distance between the
    marginal J of s on their join and the product L⊗R of the two.

    J is s itself when the join is all of s.env. Each n takes one walk over
    J, which sums the marginal weights l_x and r_y over the denominator D of
    J; the rest are C-level passes, and L⊗R is never built. With w the
    weights of J and T their total, 2·D²·SD = Σ over supp J of
    (|w·D − l_x·r_y| − l_x·r_y) + T²: the product's mass l_x·r_y off supp J
    is T² less its mass on supp J. T, not D, keeps this exact on sub-unit
    mass too.
    """
    for target in (left, right):
        _need_sub_env(target, s.env)
    joint = project(s, env_join(left, right))
    names = joint.env.names()
    key_left, key_right = _key(names, left), _key(names, right)
    lfam, rfam, defects = {}, {}, {}
    for n, d in joint.family.items():
        weights, den = d.weights()
        xs = list(map(key_left, weights))
        ys = list(map(key_right, weights))
        ws = list(weights.values())
        lw: dict = {}
        rw: dict = {}
        for x, y, w in zip(xs, ys, ws):
            lw[x] = lw.get(x, 0) + w
            rw[y] = rw.get(y, 0) + w
        lr = list(map(mul, map(lw.__getitem__, xs), map(rw.__getitem__, ys)))
        excess = sum(map(abs, map(sub, map(den.__mul__, ws), lr))) - sum(lr)
        total = sum(ws)
        lfam[n] = FinDist.from_ints(_keyed_memories(lw, left), den)
        rfam[n] = FinDist.from_ints(_keyed_memories(rw, right), den)
        defects[n] = Fraction(excess + total * total, 2 * den * den)
    return Store.from_dists(left, lfam), Store.from_dists(right, rfam), defects


def _key(names: tuple[str, ...], target: Env) -> Callable[[tuple], object]:
    """Maps a value tuple in names order to a key for its values on target:
    the one value itself when target has one variable, which saves a tuple
    per memory, else the tuple of them in target order."""
    idx = [names.index(k) for k in target.names()]
    return itemgetter(*idx) if idx else itemgetter(slice(0, 0))


def _keyed_memories(weights: dict, target: Env) -> dict:
    """weights, keyed as _key keys them, keyed by memories over target."""
    return {(v,): w for v, w in weights.items()} if len(target) == 1 else weights


def tensor(a: Store, b: Store) -> Store:
    """The product of two stores over disjoint environments, n by n."""
    if a.family.keys() != b.family.keys():
        raise ValueError("stores are tested at different n sets")
    env = env_join(a.env, b.env)
    key = _key(a.env.names() + b.env.names(), env)
    family = {}
    for n, da in a.family.items():
        db = b.family[n]
        acc = {
            key(x + y): wa * wb
            for x, wa in da._weights.items()
            for y, wb in db._weights.items()
        }
        family[n] = FinDist.from_ints(_keyed_memories(acc, env), da._den * db._den)
    return Store.from_dists(env, family)


# ---------------------------------------------------------------------------
# The store file format:
# {"env": {name: type}, "family": {n: [{"values": {name: bits}, "prob": p}]}}


def _object_text(members: list[str], indent: str) -> str:
    """A JSON object laid out as json.dumps(..., indent=2) lays it out, from
    its member lines, each already indented one level deeper than indent."""
    return "{\n" + ",\n".join(members) + "\n" + indent + "}" if members else "{}"


def store_to_text(s: Store) -> str:
    """The store file of s, byte for byte as json.dumps(doc, indent=2) + "\n"
    writes it. Each name and type is escaped once per store, and one entry
    is one % format of its values and its probability text; values are
    bitstrings and need no escaping."""
    env = [f"    {json.dumps(k)}: {json.dumps(type_to_text(t))}" for k, t in s.env.items()]
    values = [f'          {json.dumps(k).replace("%", "%%")}: "%s"' for k in s.env.names()]
    entry = (
        '      {\n        "values": '
        + _object_text(values, "        ")
        + ',\n        "prob": "%s"\n      }'
    )
    family = [
        f'    "{n}": [\n'
        + ",\n".join([entry % (m + (pr,)) for m, pr in d.prob_texts()])
        + "\n    ]"
        for n, d in sorted(s.family.items())
    ]
    top = [
        f'  "env": {_object_text(env, "  ")}',
        f'  "family": {_object_text(family, "  ")}',
    ]
    return _object_text(top, "") + "\n"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")
_N_KEY = re.compile(rf"[1-9][0-9]{{0,{MAX_DIGITS - 1}}}")


def exact_rational(raw, what: str) -> Fraction:
    """Read an int, or a string "p/q" or "0.25", from outside input exactly.

    A JSON float is refused, because 0.1 would decode to a nearby dyadic
    rational. Exponent forms are refused too: Fraction("1e-4000000") expands
    to a four-million-digit integer.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f'{what} must be an int or a string like "1/4"')
    if isinstance(raw, str) and not _RATIONAL.fullmatch(raw):
        raise ValueError(f'{what} must be an integer, "p/q" or a decimal, got {raw!r}')
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} is not a rational number: {raw!r}") from None


def _checked_dist(points: list, n: Optional[int] = None) -> FinDist:
    """The distribution of (point, (p, q)) entries, the one validating path
    behind the FinDist constructor and parse_store: a point listed twice
    gets the sum of its entries, and a negative sum or a mass above 1
    raises. n, where given, is the store family the entries come from."""
    den = lcm(*{q for _, (_, q) in points})
    weights: dict = {}
    for m, (p, q) in points:
        weights[m] = weights.get(m, 0) + p * (den // q)
    for m, w in weights.items():
        if w < 0:
            raise _mass_error(lambda x: f"negative probability {x} at {m!r}", w, den, n)
    weights = {m: w for m, w in weights.items() if w}
    total = sum(weights.values())
    if total > den:
        raise _mass_error(lambda x: f"probabilities sum to {x} > 1", total, den, n)
    return FinDist.from_ints(weights, den)


def _mass_error(message: Callable, w: int, den: int, n: Optional[int]) -> ValueError:
    """ValueError(message(text of w/den)). Python refuses to write an
    integer of more than MAX_DIGITS digits (its default limit): a fraction
    that long is named by its size instead, and then the message starts
    with the family's n, where given."""
    try:
        return ValueError(message(Fraction(w, den)))
    except ValueError:
        where = "" if n is None else f"n={n}: "
        return ValueError(where + message(f"a fraction of over {MAX_DIGITS} digits"))


def _read_entries(entries: list, env: Env, n: int, rationals: dict):
    """The (memory, (p, q)) points of one family's entries, or None when an
    entry fails a check or has a prob that is not a string.

    Each pass over the entries is C-level: fetch the values objects, their
    sizes and the probs, and the set of each variable's values. Each
    distinct value of a variable is then checked once against its width and
    the 01 alphabet, and each distinct prob text is decoded once into
    rationals."""
    names = env.names()
    try:
        rows = list(map(itemgetter("values"), entries))
        sizes = set(map(dict.__len__, rows))
        probs = list(map(itemgetter("prob"), entries))
        seen = [set(map(itemgetter(name), rows)) for name in names]
        texts = set(probs)
    except (TypeError, KeyError):  # a non-object, a missing key, a list value
        return None
    if not (sizes <= {len(names)} and set(map(type, texts)) <= {str}):
        return None
    for (_, t), values in zip(env.items(), seen):
        width = value_len(t, n)
        for v in values:
            if not isinstance(v, str) or v.strip("01") or len(v) != width:
                return None
    for raw in texts - rationals.keys():
        try:
            pr = exact_rational(raw, "prob")
        except ValueError:
            return None
        rationals[raw] = (pr.numerator, pr.denominator)
    columns = [map(itemgetter(name), rows) for name in names]
    memories = zip(*columns) if names else [()] * len(rows)
    return list(zip(memories, map(rationals.__getitem__, probs)))


def _read_each_entry(entries: list, read: Callable, n_text: str, rationals: dict):
    """_read_entries entry by entry, with each check worded for its entry:
    it raises the first error of the family, and reads an int prob."""
    points = []
    for i, entry in enumerate(entries):
        where = f"store family {n_text!r} entry {i}"
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("values"), dict)
            and "prob" in entry
        ):
            raise ValueError(f"{where}: needs a 'values' object and a 'prob'")
        try:
            m = read(entry["values"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        raw = entry["prob"]
        if not isinstance(raw, str) or raw not in rationals:
            pr = exact_rational(raw, f"{where}: prob")
            rationals[raw] = (pr.numerator, pr.denominator)
        points.append((m, rationals[raw]))
    return points


def parse_store(text: str) -> Store:
    """Decode a store file; a document of any other shape raises ValueError.

    The family must hold at least one n, and each n key is written as a
    canonical decimal integer >= 1, so no two keys name the same n.
    """
    doc = load_json(text)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("env"), dict)
        and isinstance(doc.get("family"), dict)
        and all(isinstance(t, str) for t in doc["env"].values())
    ):
        raise ValueError(
            "store needs an 'env' object of type strings and a 'family' object"
        )
    if not doc["family"]:
        raise ValueError("store family must hold at least one n")
    env = Env.make({name: parse_type(t) for name, t in doc["env"].items()})
    family = {}
    rationals: dict = {}  # each distinct "prob" text is decoded once
    for n_text, entries in doc["family"].items():
        if not _N_KEY.fullmatch(n_text):
            raise ValueError(
                f"store family key {n_text!r} must be an integer >= 1 "
                'written without leading zeros, like "3"'
            )
        if not isinstance(entries, list):
            raise ValueError(f"store family {n_text!r} must be a list of entries")
        n = int(n_text)
        points = _read_entries(entries, env, n, rationals)
        if points is None:
            points = _read_each_entry(entries, _memory_reader(env, n), n_text, rationals)
        family[n] = _checked_dist(points, n)
    return Store(env, family)
