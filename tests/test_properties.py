"""Property-based tests for the algebraic invariants."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cslcheck import _gen
from cslcheck.dist import FinDist, Store, project, stat_dist, tensor
from cslcheck.semantics import run, run_kozen
from cslcheck.syntax import (
    ProofTree,
    SizePoly,
    env_to_text,
    formula_to_text,
    parse_env,
    parse_formula,
    parse_program,
    parse_proof,
    poly_eval,
    poly_to_text,
    program_to_text,
    proof_to_text,
)
from cslcheck.types import TypeCheckError, env_ext, env_join, wf_formula


# Strategies


polys = st.builds(
    SizePoly.make, st.lists(st.integers(0, 6), min_size=1, max_size=4)
)

type_texts = st.sampled_from(["Bool", "Str[1]", "Str[n]", "Str[n+1]", "Str[2n]"])

names = st.sampled_from(list("abcdefgh"))


@st.composite
def envs(draw):
    pairs = draw(
        st.dictionaries(names, type_texts, max_size=4)
    )
    inner = ", ".join(f"{k}: {t}" for k, t in sorted(pairs.items()))
    return parse_env("{" + inner + "}")


@st.composite
def programs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    env = _gen.gen_env(rng, max_vars=4)
    return _gen.gen_program(rng, env, size=draw(st.integers(1, 5)))


@st.composite
def formulas(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    env = _gen.gen_env(rng, max_vars=4)
    return _gen.gen_formula(rng, env)


small_probs = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def dists(draw):
    points = draw(st.lists(st.sampled_from("uvwxyz"), min_size=1, max_size=4, unique=True))
    weights = [draw(st.integers(0, 5)) for _ in points]
    total = sum(weights)
    if total == 0:
        return FinDist.dirac(points[0])
    return FinDist({p: Fraction(w, total) for p, w in zip(points, weights)})


# Size polynomials


@given(polys, st.integers(1, 6))
def test_poly_text_round_trip_and_eval(p, n):
    from cslcheck.syntax import parse_poly

    assert parse_poly(poly_to_text(p)) == p
    assert poly_eval(p, n) == sum(c * n**i for i, c in enumerate(p.coeffs))


@given(polys, polys)
def test_poly_add_commutes(p, q):
    assert p.add(q) == q.add(p)


@given(polys, polys)
def test_poly_sub_undoes_add(p, q):
    assert p.add(q).try_sub(q) == p
    r = p.try_sub(q)
    if r is not None:
        assert r.add(q) == p


@given(polys, polys, st.integers(1, 5))
def test_poly_equality_iff_agreement_everywhere(p, q, n):
    # canonical coefficients make equality decidable pointwise
    if p == q:
        assert poly_eval(p, n) == poly_eval(q, n)
    else:
        assert any(poly_eval(p, k) != poly_eval(q, k) for k in range(1, 9))


# Environments


@given(envs())
def test_env_text_round_trip(env):
    assert parse_env(env_to_text(env)) == env


@given(envs())
def test_env_names_sorted(env):
    assert list(env.names()) == sorted(env.names())


@given(envs(), envs())
def test_env_join_is_symmetric_when_defined(a, b):
    if set(a.names()) & set(b.names()):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeCheckError):
                env_join(x, y)
        return
    ab = env_join(a, b)
    assert ab == env_join(b, a)
    assert env_ext(a, ab) and env_ext(b, ab)


@given(envs(), envs())
def test_env_ext_is_a_partial_order(a, b):
    assert env_ext(a, a)
    if env_ext(a, b) and env_ext(b, a):
        assert a == b


# Programs and formulas


@settings(max_examples=60)
@given(programs())
def test_program_text_round_trip(p):
    assert parse_program(program_to_text(p)) == p


@settings(max_examples=60)
@given(formulas())
def test_formula_text_round_trip(f):
    wf_formula(f)
    assert parse_formula(formula_to_text(f)) == f


@settings(max_examples=30)
@given(st.integers(0, 2**32))
def test_proof_text_round_trip(seed):
    rng = random.Random(seed)
    t = _gen.gen_scoped_assign(rng, exact=rng.random() < 0.5)
    tree = ProofTree("SRAssn", t)
    assert parse_proof(proof_to_text(tree)) == tree


# Distribution monad


@given(dists())
def test_bind_right_identity(d):
    assert d.bind(FinDist.dirac) == d


@given(st.sampled_from("uvwxyz"))
def test_bind_left_identity(x):
    flip = lambda v: FinDist({v: Fraction(1, 2), v.upper(): Fraction(1, 2)})
    assert FinDist.dirac(x).bind(flip) == flip(x)


@given(dists())
def test_bind_associativity(d):
    f = lambda v: FinDist({v: Fraction(1, 2), v.upper(): Fraction(1, 2)})
    g = lambda v: FinDist.dirac(v.swapcase())
    assert d.bind(f).bind(g) == d.bind(lambda v: f(v).bind(g))


@given(dists(), dists())
def test_stat_dist_is_a_metric(a, b):
    assert stat_dist(a, b) == stat_dist(b, a)
    assert stat_dist(a, a) == 0
    assert stat_dist(a, b) >= 0


@given(dists(), dists(), dists())
def test_stat_dist_triangle(a, b, c):
    assert stat_dist(a, c) <= stat_dist(a, b) + stat_dist(b, c)


# Execution agrees across the two semantics


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_run_agrees_with_kozen(seed):
    rng = random.Random(seed)
    env = _gen.gen_env(rng, max_vars=3)
    if not env.names():
        return
    prog = _gen.gen_program(rng, env, size=3)
    d = _gen.gen_dist(rng, env, 1)
    assert run(env, prog, 1, d) == run_kozen(env, prog, 1, d)


# Tensor and projection


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_project_recovers_tensor_factors(seed):
    rng = random.Random(seed)
    env_a = parse_env("{a: Bool}")
    env_b = parse_env("{b: Str[1]}")
    da = Store(env_a, {1: _gen.gen_dist(rng, env_a, 1)})
    db = Store(env_b, {1: _gen.gen_dist(rng, env_b, 1)})
    prod = tensor(da, db)
    assert project(prod, env_a) == da
    assert project(prod, env_b) == db


# The generators' draws


def _store_repr(s):
    return repr(s) + repr(sorted(s.family.items()))


DRAWS = {
    "gen_env": _gen.gen_env,
    "gen_dist": lambda rng: _gen.gen_dist(rng, _gen.gen_env(rng), rng.randint(1, 2)),
    "gen_store": lambda rng: _store_repr(_gen.gen_store(rng, _gen.gen_env(rng), (1, 2))),
    "gen_program": lambda rng: _gen.gen_program(rng, _gen.gen_env(rng)),
    "gen_formula": lambda rng: _gen.gen_formula(rng, _gen.gen_env(rng)),
    "_disjoint_envs": lambda rng: _gen._disjoint_envs(
        rng, rng.randint(1, 2), rng.randint(1, 2)
    ),
    "gen_scoped_assign": lambda rng: _gen.gen_scoped_assign(rng, rng.random() < 0.5),
    "gen_composite": lambda rng: _gen.gen_composite(rng, rng.random() < 0.5),
    "gen_rcond": _gen.gen_rcond,
}

# sha256 of the reprs of 20 draws from each of seeds 0..9, in order. The
# properties command prints only a pass line per suite, so equal output
# does not show equal draws; a generator refactor must keep these.
DRAW_DIGESTS = {
    "gen_env": "a672d2d870a047eaaeceb58ec3aedf40625922fc273a3f0f358d2e0bd53a0bb4",
    "gen_dist": "39104c2f6830c5da08f7b944d72318d0914b1e37603379f723b3c6b89644ab55",
    "gen_store": "ca0f5769658df37fb6f37cb3aac95d78436a99ac3f4c7fcfdf3b9e86f639a75d",
    "gen_program": "f4641d51439014ff1520e8ed86ee9c56b32d35d7ca86d9550ec99fc11d044c43",
    "gen_formula": "44ceaf690c8674329f45bc8a018b3b460bab2fa22d5b47153a8aa9c3496d45fc",
    "_disjoint_envs": "9be87b41ff2eb9067e960915d46c6d2c4dba97c2c36f058ca7835d3df22097a1",
    "gen_scoped_assign": "6a5a9518d58932d0516fadb0b81bedb60ff74abaa9480ac80972f29d6a15cad5",
    "gen_composite": "bfd3b291a19761039953a8fac2e730d0574e68c7837e819318ade6cc6b1c6d5e",
    "gen_rcond": "6f83a8725d332ce5c705a172fa7a1a7cbb6e639730365c2215455988fc4aa40a",
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_generators_keep_their_draws(name):
    h = hashlib.sha256()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(20):
            h.update(repr(DRAWS[name](rng)).encode())
    assert h.hexdigest() == DRAW_DIGESTS[name]
