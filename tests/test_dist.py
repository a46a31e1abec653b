"""Finite sub-distributions, memories, and stores."""

from fractions import Fraction

import pytest

from cslcheck.dist import (
    FinDist,
    Memory,
    Store,
    ZeroMassError,
    all_memories,
    all_values,
    condition,
    convex,
    dirac_store,
    is_uniform,
    memory_bits,
    project,
    stat_dist,
    tensor,
    uniform_memories,
    uniform_store,
    uniform_values,
    zero_store,
)
from cslcheck.syntax import BOOL, parse_env, parse_type


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
AB = parse_env("{a: Str[1], b: Str[1]}")


def mem(env, n=1, **values):
    if isinstance(env, str):
        env = parse_env(env)
    return Memory.make(env, n, values)


# FinDist basics


def test_dirac_and_prob():
    d = FinDist.dirac("x")
    assert d.prob("x") == 1
    assert d.prob("y") == 0
    assert d.total() == 1
    assert d.is_proper()


def test_zero_probabilities_are_dropped():
    d = FinDist({"a": HALF, "b": Fraction(0), "c": HALF})
    assert d.support() == ["a", "c"]
    assert d == FinDist({"a": HALF, "c": HALF})


def test_mass_cannot_exceed_one():
    with pytest.raises(ValueError):
        FinDist({"a": HALF, "b": Fraction(2, 3)})
    with pytest.raises(ValueError):
        FinDist({"a": Fraction(-1, 4)})


def test_mass_is_summed_exactly_over_mixed_denominators():
    # 1/3 + 1/6 + 1/2 is exactly 1; one part in 97·6 more is too much
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    d = FinDist({"a": third, "b": sixth, "c": HALF})
    assert d.total() == 1 and d.is_proper()
    assert FinDist({}).total() == 0
    with pytest.raises(ValueError, match="sum to 583/582"):
        FinDist({"a": third, "b": sixth + Fraction(1, 97 * 6), "c": HALF})


def test_probabilities_must_be_ints_or_fractions():
    # a float is refused even where it is exact (0.5), and where its binary
    # expansion would push the sum past one (0.1 + 0.9)
    bad = [{"a": 0.5, "b": 0.5}, {"a": 0.1, "b": 0.9}, {"a": True}, {"a": "1/2"}]
    for probs in bad:
        with pytest.raises(ValueError, match="probability at 'a' must be an int or a Fraction"):
            FinDist(probs)
    d = FinDist({"a": HALF, "b": HALF})
    for factor in (0.5, True, "1/2"):
        with pytest.raises(ValueError, match="scale factor must be an int or a Fraction"):
            d.scale(factor)
    assert FinDist({"a": 1}) == FinDist.dirac("a") and d.scale(1) == d


def test_memory_equality_compares_the_environment():
    a = mem("{x: Bool}", x="1")
    b = mem("{x: Bool}", x="1")  # an equal environment, parsed again
    assert a.env is not b.env and a == b and hash(a) == hash(b)
    assert mem("{y: Bool}", y="1") != a
    assert mem("{x: Bool}", n=2, x="1") != a


def test_sub_distributions_allowed():
    d = FinDist({"a": QUARTER})
    assert d.total() == QUARTER
    assert not d.is_proper()


def test_map_merges_collisions():
    d = FinDist({0: HALF, 1: HALF})
    assert d.map(lambda v: v * 0) == FinDist.dirac(0)


def test_bind_chains_kernels():
    d = FinDist({0: HALF, 1: HALF})
    flip = lambda v: FinDist({v: HALF, 1 - v: HALF})
    assert d.bind(flip) == FinDist({0: HALF, 1: HALF})
    assert FinDist.dirac(1).bind(flip) == FinDist({0: HALF, 1: HALF})


def test_bind_preserves_subnormal_mass():
    d = FinDist({0: HALF})
    out = d.bind(lambda v: FinDist({v: QUARTER}))
    assert out.total() == Fraction(1, 8)


def test_scale_and_add():
    d = FinDist({"a": HALF, "b": HALF})
    half = d.scale(HALF)
    assert half.total() == HALF
    assert half.add(half) == d
    with pytest.raises(ValueError):
        d.add(d)  # mass would exceed one


def test_convex_mixes_by_guard_weights():
    guard = FinDist({"1": QUARTER, "0": Fraction(3, 4)})
    d = convex(FinDist.dirac("a"), FinDist.dirac("b"), guard)
    assert d == FinDist({"a": QUARTER, "b": Fraction(3, 4)})
    with pytest.raises(ValueError):
        convex(
            FinDist.dirac("a"), FinDist.dirac("b"), FinDist({"00": Fraction(1)})
        )


def test_convex_guard_may_be_subnormal():
    guard = FinDist({"1": QUARTER})
    d = convex(FinDist.dirac("a"), FinDist.dirac("b"), guard)
    assert d == FinDist({"a": QUARTER})


def test_stat_dist():
    u = FinDist({"a": HALF, "b": HALF})
    assert stat_dist(u, u) == 0
    assert stat_dist(FinDist.dirac("a"), u) == HALF
    v = FinDist({"a": Fraction(3, 8), "b": Fraction(5, 8)})
    assert stat_dist(u, v) == Fraction(1, 8)


# Memories


def test_memory_is_sorted_and_hashable():
    m = mem("{a: Str[2], b: Bool}", n=1, b="1", a="01")
    assert m.as_dict() == {"a": "01", "b": "1"}
    assert m.get("a") == "01"
    assert m == mem("{a: Str[2], b: Bool}", n=1, a="01", b="1")
    assert hash(m) == hash(mem("{a: Str[2], b: Bool}", n=1, b="1", a="01"))


def test_memory_checks_value_shape():
    with pytest.raises(ValueError, match="bit"):
        mem("{a: Str[2]}", a="0")  # wrong length
    with pytest.raises(ValueError, match="bit"):
        mem("{b: Bool}", b="01")
    with pytest.raises(ValueError, match="bitstring"):
        mem("{a: Str[1]}", a="2")
    with pytest.raises(ValueError, match="missing"):
        mem("{a: Str[1], b: Bool}", a="0")
    with pytest.raises(ValueError, match="extra"):
        mem("{a: Str[1]}", a="0", b="0")


def test_memory_length_tracks_n():
    m = mem("{x: Str[n+1]}", n=2, x="000")
    assert m.get("x") == "000"
    with pytest.raises(ValueError):
        mem("{x: Str[n+1]}", n=2, x="00")


def test_memory_set_restrict_merge():
    m = mem("{a: Str[1], b: Bool}", a="0", b="1")
    assert m.set("a", "1").get("a") == "1"
    small = m.restrict(parse_env("{a: Str[1]}"))
    assert small.env == parse_env("{a: Str[1]}")
    merged = small.merge(mem("{c: Bool}", c="0"))
    assert merged.as_dict() == {"a": "0", "c": "0"}
    with pytest.raises(Exception):
        small.merge(mem("{a: Str[1]}", a="1"))  # overlapping domains


def test_all_memories_and_uniform():
    env = parse_env("{a: Str[1], b: Bool}")
    mems = all_memories(env, 1)
    assert len(mems) == 4
    u = uniform_memories(env, 1)
    assert all(u.prob(m) == QUARTER for m in mems)


def test_all_values_and_uniform_values():
    assert set(all_values(parse_type("Str[2]"), 1)) == {"00", "01", "10", "11"}
    u = uniform_values(BOOL, 3)
    assert u == FinDist({"0": HALF, "1": HALF})
    assert is_uniform(u, BOOL, 3)
    assert not is_uniform(FinDist.dirac("0"), BOOL, 3)


def test_memory_bits():
    env = parse_env("{a: Str[n], b: Bool, c: Str[2n+1]}")
    assert memory_bits(env, 3) == 3 + 1 + 7


# Projection, tensor, conditioning


def test_project_marginal():
    d = FinDist(
        {
            mem(AB, a="0", b="0"): QUARTER,
            mem(AB, a="0", b="1"): QUARTER,
            mem(AB, a="1", b="0"): HALF,
        }
    )
    marg = project(d, parse_env("{a: Str[1]}"))
    assert marg == FinDist(
        {mem("{a: Str[1]}", a="0"): HALF, mem("{a: Str[1]}", a="1"): HALF}
    )


def test_tensor_builds_products():
    da = FinDist({mem("{a: Bool}", a="0"): HALF, mem("{a: Bool}", a="1"): HALF})
    db = FinDist.dirac(mem("{b: Bool}", b="1"))
    prod = tensor(da, db)
    assert prod.prob(mem("{a: Bool, b: Bool}", a="0", b="1")) == HALF
    assert prod.prob(mem("{a: Bool, b: Bool}", a="0", b="0")) == 0
    # marginals reconstruct the factors
    assert project(prod, parse_env("{a: Bool}")) == da


def test_condition_renormalizes():
    gx = parse_env("{g: Bool, x: Bool}")
    d = FinDist(
        {
            mem(gx, g="1", x="0"): QUARTER,
            mem(gx, g="1", x="1"): QUARTER,
            mem(gx, g="0", x="0"): HALF,
        }
    )
    c = condition(d, "g", "1")
    assert c.prob(mem(gx, g="1", x="0")) == HALF
    assert c.total() == 1
    with pytest.raises(ZeroMassError):
        condition(condition(d, "g", "0"), "x", "1")


# Stores


def test_store_holds_proper_families():
    env = parse_env("{x: Bool}")
    s = uniform_store(env, (2, 1))
    assert s.tested_ns() == [1, 2]
    assert s.at(1).is_proper()
    assert s.at(2) == uniform_memories(env, 2)


def test_dirac_store_uses_value_fn():
    env = parse_env("{x: Str[n]}")
    s = dirac_store(env, (1, 2), lambda name, t, n: "1" * n)
    assert s.at(2).support()[0].get("x") == "11"
    assert s.at(1).is_proper()


def test_zero_store_conventions():
    s = zero_store(parse_env("{x: Str[n], b: Bool}"), (2,))
    m = s.at(2).support()[0]
    assert m.get("x") == "00"
    assert m.get("b") == "0"


def test_store_rejects_subnormalized_family():
    env = parse_env("{x: Bool}")
    half = FinDist({mem("{x: Bool}", x="0"): HALF})
    with pytest.raises(ValueError, match="mass"):
        Store(env, {1: half})


def test_store_rejects_mismatched_memories():
    env = parse_env("{x: Bool}")
    other = FinDist.dirac(mem("{y: Bool}", y="0"))
    with pytest.raises(ValueError):
        Store(env, {1: other})
