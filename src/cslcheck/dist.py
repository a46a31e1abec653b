"""Exact finite probability distributions over memories and values.

Probabilities are arbitrary-precision rationals and zero-probability points
are dropped eagerly, so structural equality of the support map is equality
of distributions and every uniformity/distance check is decidable with no
tolerance. Sub-unit total mass is permitted (the program semantics is
linear and gets exercised on sub-distributions); stores and serialization
require full mass. Only the public constructor, scale, add, Store and
parse_store validate: map, bind, tensor, project, condition and the program
kernel build results that are valid by construction (FinDist._trusted).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Iterable

from .syntax import (
    BoolType,
    Env,
    Type,
    parse_type,
    poly_eval,
    type_to_text,
    unique_keys,
)
from .types import TypeCheckError, env_ext, env_join

ONE = Fraction(1)
ZERO = Fraction(0)


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
# Memories


@dataclass(frozen=True)
class Memory:
    """A well-typed assignment of bitstring values to the variables of env."""

    env: Env
    n: int
    values: tuple[tuple[str, str], ...]  # sorted by variable name

    def __hash__(self) -> int:  # without env, which is slow to hash; == compares it
        return hash((self.n, self.values))

    @staticmethod
    def make(env: Env, n: int, mapping) -> "Memory":
        items = dict(mapping.items() if isinstance(mapping, dict) else mapping)
        values = []
        for name, t in env.items():
            if name not in items:
                raise ValueError(f"memory missing a value for {name}")
            v = items.pop(name)
            _check_value(name, t, n, v)
            values.append((name, v))
        if items:
            raise ValueError(f"memory has extra variables {sorted(items)}")
        return Memory(env, n, tuple(values))

    def get(self, name: str) -> str:
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(name)

    def set(self, name: str, value: str) -> "Memory":
        if name not in self.env:
            raise KeyError(name)
        return Memory.make(self.env, self.n, {**self.as_dict(), name: value})

    def restrict(self, target: Env) -> "Memory":
        keep = set(target.names())
        return Memory(
            target, self.n, tuple((k, v) for k, v in self.values if k in keep)
        )

    def merge(self, other: "Memory") -> "Memory":
        if self.n != other.n:
            raise ValueError("cannot merge memories at different n")
        env = env_join(self.env, other.env)
        return Memory(env, self.n, tuple(sorted(self.values + other.values)))

    def as_dict(self) -> dict[str, str]:
        return dict(self.values)


def _check_value(name: str, t: Type, n: int, v: str) -> None:
    if not isinstance(v, str) or v.strip("01"):
        raise ValueError(f"value for {name} must be a bitstring, got {v!r}")
    want = value_len(t, n)
    if len(v) != want:
        raise ValueError(f"value for {name} must have {want} bit(s), got {len(v)}")


def all_memories(env: Env, n: int) -> list[Memory]:
    """Every well-typed memory over env at n, in canonical order."""
    names = env.names()
    pools = [all_values(t, n) for _, t in env.items()]
    return [
        Memory(env, n, tuple(zip(names, combo))) for combo in product(*pools)
    ]


def point_key(p):
    """Canonical sort key for support points (memories or plain values)."""
    if isinstance(p, Memory):
        return p.values
    return p


# ---------------------------------------------------------------------------
# Distributions


class FinDist:
    """A finite-support map from points to positive rational probabilities."""

    __slots__ = ("_probs",)

    def __init__(self, probs: dict):
        self._probs = {
            point: Fraction(pr) for point, pr in probs.items() if pr != 0
        }
        for point, pr in self._probs.items():
            if pr < 0:
                raise ValueError(f"negative probability {pr} at {point!r}")
        if self.total() > 1:
            raise ValueError(f"probabilities sum to {self.total()} > 1")

    @staticmethod
    def _trusted(probs: dict) -> "FinDist":
        """Wrap positive Fraction weights of mass <= 1 without checking them."""
        d = object.__new__(FinDist)
        d._probs = probs
        return d

    # -- inspection

    def items(self) -> list:
        return sorted(self._probs.items(), key=lambda kv: point_key(kv[0]))

    def support(self) -> list:
        return sorted(self._probs.keys(), key=point_key)

    def prob(self, point) -> Fraction:
        return self._probs.get(point, ZERO)

    def total(self) -> Fraction:
        weights, den = integer_weights(self._probs)
        return Fraction(sum(weights.values()), den)

    def is_proper(self) -> bool:
        return self.total() == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, FinDist) and self._probs == other._probs

    def __len__(self) -> int:
        return len(self._probs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {pr}" for p, pr in self.items())
        return "FinDist({" + inner + "})"

    # -- construction and the monad

    @staticmethod
    def dirac(point) -> "FinDist":
        return FinDist({point: ONE})

    @staticmethod
    def from_weights(pairs: Iterable[tuple[object, Fraction]]) -> "FinDist":
        acc: dict = {}
        for point, pr in pairs:
            acc[point] = acc.get(point, ZERO) + Fraction(pr)
        return FinDist(acc)

    def map(self, fn: Callable) -> "FinDist":
        acc: dict = {}
        for point, pr in self._probs.items():
            out_point = fn(point)
            acc[out_point] = acc.get(out_point, ZERO) + pr
        return FinDist._trusted(acc)

    def bind(self, k: Callable[[object], "FinDist"]) -> "FinDist":
        acc: dict = {}
        for point, pr in self._probs.items():
            for out_point, out_pr in k(point)._probs.items():
                acc[out_point] = acc.get(out_point, ZERO) + pr * out_pr
        return FinDist._trusted(acc)

    def scale(self, factor: Fraction) -> "FinDist":
        return FinDist({p: pr * Fraction(factor) for p, pr in self._probs.items()})

    def add(self, other: "FinDist") -> "FinDist":
        acc = dict(self._probs)
        for point, pr in other._probs.items():
            acc[point] = acc.get(point, ZERO) + pr
        return FinDist(acc)


def integer_weights(probs: dict, key: Callable = lambda p: p) -> tuple[dict, int]:
    """Fraction weights as integers over the lcm of their denominators, each
    point renamed by key (which must not give two points one name)."""
    den = lcm(*{pr.denominator for pr in probs.values()})
    return {key(p): pr.numerator * (den // pr.denominator) for p, pr in probs.items()}, den


def uniform_values(t: Type, n: int) -> FinDist:
    vals = all_values(t, n)
    pr = Fraction(1, len(vals))
    return FinDist({v: pr for v in vals})


def uniform_memories(env: Env, n: int) -> FinDist:
    mems = all_memories(env, n)
    pr = Fraction(1, len(mems))
    return FinDist({m: pr for m in mems})


def tensor(a: FinDist, b: FinDist) -> FinDist:
    """Product distribution over merged memories; domains must be disjoint."""
    acc: dict = {}
    for ma, pa in a._probs.items():
        for mb, pb in b._probs.items():
            acc[ma.merge(mb)] = pa * pb
    return FinDist._trusted(acc)


def project(d: FinDist, target: Env) -> FinDist:
    """Push forward along restriction of memories to a sub-environment."""
    for m in d._probs:
        if not env_ext(target, m.env):
            raise TypeCheckError(
                "project", "target is not a sub-environment of the distribution's"
            )
        break
    return d.map(lambda m: m.restrict(target))


def condition(d: FinDist, r: str, b: str) -> FinDist:
    """Renormalized restriction to the event m(r) = b; b is '0' or '1'."""
    hits = {m: pr for m, pr in d._probs.items() if m.get(r) == b}
    mass = sum(hits.values(), ZERO)
    if mass == 0:
        raise ZeroMassError(f"conditioning on {r} = {b}, an event of mass zero")
    return FinDist._trusted({m: pr / mass for m, pr in hits.items()})


def convex(a: FinDist, b: FinDist, guard: FinDist) -> FinDist:
    """guard('1')·a + guard('0')·b, with absolute weights from guard."""
    extra = [v for v in guard.support() if v not in ("0", "1")]
    if extra:
        raise ValueError(f"guard distribution has non-boolean support {extra}")
    return a.scale(guard.prob("1")).add(b.scale(guard.prob("0")))


def stat_dist(a: FinDist, b: FinDist) -> Fraction:
    """Total variation distance: half the pointwise L1 distance."""
    points = set(a._probs) | set(b._probs)
    return sum((abs(a.prob(p) - b.prob(p)) for p in points), ZERO) / 2


def is_uniform(d: FinDist, t: Type, n: int) -> bool:
    """True iff d is exactly the uniform distribution over values of t at n."""
    return d == uniform_values(t, n)


# ---------------------------------------------------------------------------
# Stores


class Store:
    """An environment with one memory distribution per tested n."""

    __slots__ = ("env", "family")

    def __init__(self, env: Env, family: dict[int, FinDist]):
        self.env = env
        self.family = dict(family)
        for n, d in self.family.items():
            if not d.is_proper():
                raise ValueError(f"store distribution at n={n} has mass != 1")
            for m in d._probs:
                if m.env != env or m.n != n:
                    raise ValueError(
                        f"memory over {m.env} at n={m.n} in the n={n} slot"
                    )

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
        mem = Memory.make(
            env, n, {name: value_fn(name, t, n) for name, t in env.items()}
        )
        family[n] = FinDist.dirac(mem)
    return Store(env, family)


def zero_store(env: Env, ns: Iterable[int]) -> Store:
    return dirac_store(env, ns, lambda name, t, n: "0" * value_len(t, n))


# ---------------------------------------------------------------------------
# The store file format:
# {"env": {name: type}, "family": {n: [{"values": {name: bits}, "prob": p}]}}


def store_to_text(s: Store) -> str:
    family = {
        str(n): [
            {"values": m.as_dict(), "prob": str(d.prob(m))} for m in d.support()
        ]
        for n, d in sorted(s.family.items())
    }
    env = {name: type_to_text(t) for name, t in s.env.items()}
    return json.dumps({"env": env, "family": family}, indent=2) + "\n"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")
_N_KEY = re.compile(r"[1-9][0-9]*")


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


def parse_store(text: str) -> Store:
    """Decode a store file; a document of any other shape raises ValueError.

    The family must hold at least one n, and each n key is written as a
    canonical decimal integer >= 1, so no two keys name the same n.
    """
    doc = json.loads(text, object_pairs_hook=unique_keys)
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
    for n_text, entries in doc["family"].items():
        if not _N_KEY.fullmatch(n_text):
            raise ValueError(
                f"store family key {n_text!r} must be an integer >= 1 "
                'written without leading zeros, like "3"'
            )
        if not isinstance(entries, list):
            raise ValueError(f"store family {n_text!r} must be a list of entries")
        n = int(n_text)
        probs = {}
        for i, entry in enumerate(entries):
            where = f"store family {n_text!r} entry {i}"
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("values"), dict)
                and "prob" in entry
            ):
                raise ValueError(f"{where}: needs a 'values' object and a 'prob'")
            m = Memory.make(env, n, entry["values"])
            prob = exact_rational(entry["prob"], f"{where}: prob")
            probs[m] = probs.get(m, ZERO) + prob
        family[n] = FinDist(probs)
    return Store(env, family)
