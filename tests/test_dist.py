"""Finite sub-distributions, memories, and stores."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cslcheck import _gen
from cslcheck.dist import (
    FinDist,
    Store,
    ZeroMassError,
    all_memories,
    all_values,
    condition,
    convex,
    dirac_store,
    independence,
    memory,
    memory_bits,
    project,
    stat_dist,
    tensor,
    uniform_memories,
    uniform_store,
    uniform_values,
    zero_store,
)
from cslcheck.semantics import run_store, store_indist
from cslcheck.syntax import BOOL, parse_env, parse_type
from cslcheck.types import TypeCheckError


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
AB = parse_env("{a: Str[1], b: Str[1]}")


def mem(env, n=1, **values):
    if isinstance(env, str):
        env = parse_env(env)
    return memory(env, n, values)


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


def test_a_sum_too_long_to_write_is_named_by_its_size():
    # str() of a 4301-digit integer is refused by Python itself
    with pytest.raises(ValueError) as err:
        FinDist({"a": Fraction(10**4300 + 1, 10**4300)})
    assert str(err.value) == "probabilities sum to a fraction of over 4300 digits > 1"


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


def test_memory_checks_value_shape():
    # the values come in the environment's order, whatever the mapping's
    assert mem("{a: Str[2], b: Bool}", n=1, b="1", a="01") == ("01", "1")
    assert memory(parse_env("{a: Bool}"), 1, [("a", "0")]) == ("0",)
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
    assert mem("{x: Str[n+1]}", n=2, x="000") == ("000",)
    with pytest.raises(ValueError):
        mem("{x: Str[n+1]}", n=2, x="00")


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
    assert FinDist.dirac("0") != uniform_values(BOOL, 3)


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
    marg = project(Store(AB, {1: d}), parse_env("{a: Str[1]}")).at(1)
    assert marg == FinDist(
        {mem("{a: Str[1]}", a="0"): HALF, mem("{a: Str[1]}", a="1"): HALF}
    )


def test_project_on_the_whole_environment_is_the_store_itself():
    s = uniform_store(AB, (1, 2))
    assert project(s, AB) is s


def test_independence_gives_the_exact_distance_to_the_product():
    # r uniform and s = not r: J puts 2^-n on each of the 2^n pairs (x, not x),
    # L⊗R puts 4^-n on each of the 4^n pairs, so
    # SD = 1/2 (2^n (2^-n - 4^-n) + (4^n - 2^n) 4^-n) = 1 - 2^-n
    env = parse_env("{r: Str[n], s: Str[n]}")
    left, right = parse_env("{r: Str[n]}"), parse_env("{s: Str[n]}")
    flip = str.maketrans("01", "10")
    mirror = lambda m: (m[0], m[0].translate(flip))
    pairs = Store(env, {n: uniform_memories(left, n).map(mirror) for n in (1, 2, 3)})
    lproj, rproj, defects = independence(pairs, left, right)
    assert defects == {1: HALF, 2: Fraction(3, 4), 3: Fraction(7, 8)}
    assert lproj == uniform_store(left, (1, 2, 3))
    assert rproj == uniform_store(right, (1, 2, 3))
    # a product store is at distance 0; half of it has marginals of mass
    # 1/2, whose product has mass 1/4 on the same points: SD = (1/2 - 1/4)/2
    product = tensor(lproj, rproj)
    assert independence(product, left, right)[2] == {1: 0, 2: 0, 3: 0}
    half = Store.from_dists(env, {n: d.scale(HALF) for n, d in product.family.items()})
    assert independence(half, left, right)[2] == dict.fromkeys((1, 2, 3), Fraction(1, 8))
    # the sides may leave part of the environment out
    assert independence(pairs, left, parse_env("{}"))[2] == {1: 0, 2: 0, 3: 0}


def test_tensor_builds_products():
    ea, eb = parse_env("{a: Bool}"), parse_env("{b: Bool}")
    da = FinDist({mem(ea, a="0"): HALF, mem(ea, a="1"): HALF})
    db = FinDist.dirac(mem(eb, b="1"))
    prod = tensor(Store(ea, {1: da}), Store(eb, {1: db}))
    assert prod.at(1).prob(mem("{a: Bool, b: Bool}", a="0", b="1")) == HALF
    assert prod.at(1).prob(mem("{a: Bool, b: Bool}", a="0", b="0")) == 0
    # marginals reconstruct the factors
    assert project(prod, ea) == Store(ea, {1: da})
    with pytest.raises(TypeCheckError):
        tensor(prod, Store(ea, {1: da}))  # overlapping domains


def test_condition_renormalizes():
    gx = parse_env("{g: Bool, x: Bool}")
    d = FinDist(
        {
            mem(gx, g="1", x="0"): QUARTER,
            mem(gx, g="1", x="1"): QUARTER,
            mem(gx, g="0", x="0"): HALF,
        }
    )
    c = condition(d, gx, "g", "1")
    assert c.prob(mem(gx, g="1", x="0")) == HALF
    assert c.total() == 1
    with pytest.raises(ZeroMassError):
        condition(condition(d, gx, "g", "0"), gx, "x", "1")


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
    assert s.at(2).support() == [("11",)]
    assert s.at(1).is_proper()


def test_zero_store_conventions():
    s = zero_store(parse_env("{x: Str[n], b: Bool}"), (2,))
    assert s.at(2).support() == [("0", "00")]  # b, then x


def test_store_rejects_subnormalized_family():
    env = parse_env("{x: Bool}")
    half = FinDist({mem("{x: Bool}", x="0"): HALF})
    with pytest.raises(ValueError, match="mass"):
        Store(env, {1: half})


def test_store_rejects_mismatched_memories():
    # a point of the wrong arity, or one that is not a value tuple
    env = parse_env("{x: Bool, y: Bool}")
    for point in [("0",), ("0", "0", "0"), (), "00"]:
        with pytest.raises(ValueError, match="one value per variable"):
            Store(env, {1: FinDist.dirac(point)})
    Store(env, {1: FinDist.dirac(("0", "0"))})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_unchecked_stores_pass_the_store_checks(seed):
    # project, tensor and run_store build their stores unchecked
    rng = random.Random(seed)
    xi, theta = _gen._disjoint_envs(rng, rng.randint(1, 2), rng.randint(0, 2))
    ns = tuple(sorted(rng.sample((1, 2, 3), rng.randint(1, 2))))
    joint = tensor(_gen.gen_store(rng, xi, ns), _gen.gen_store(rng, theta, ns))
    names = joint.env.names()
    sub = joint.env.restrict(rng.sample(names, rng.randint(0, len(names))))
    marginal = project(joint, sub)
    out = run_store(joint, _gen.gen_program(rng, joint.env))
    for r in (joint, marginal, out):
        assert Store(r.env, r.family) == r


def test_stores_over_different_environments_differ():
    # the same tuples over {x: Bool} and {y: Bool}: the Store holds the names
    d = FinDist({("0",): HALF, ("1",): HALF})
    sx, sy = Store(parse_env("{x: Bool}"), {1: d}), Store(parse_env("{y: Bool}"), {1: d})
    assert sx != sy
    assert not store_indist(sx, sy)
    assert sx == Store(parse_env("{x: Bool}"), {1: d})  # an equal env, parsed again
