import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    canon_oracle,
    oracle_leq_free,
    random_lattice,
    random_term,
    stage_elements_oracle,
)
from latkit import free
from latkit.cli import _dual_term
from latkit.errors import CapExceeded, UnknownGenerator
from latkit.free import (
    FreeLattice,
    StageIndex,
    alternation_rank,
    canonical_form,
    eq_free,
    in_stage,
    leq_free,
    stage_elements,
)
from latkit.order import evaluate_term
from latkit.partial_lattice import antichain, leq_fp
from latkit.terms import depth, gen, join_of, meet_of, parse, term_size, term_to_text

X2 = FreeLattice(["x", "y"])
X3 = FreeLattice(["x", "y", "z"])


def test_generator_below_join():
    assert leq_free(X2, parse("x"), parse("(x | y)"))


def test_distributive_inequality_holds():
    assert leq_free(X3, parse("((x&y) | (x&z))"), parse("(x & (y|z))"))


def test_distributive_inequality_converse_fails(m3):
    s, t = parse("(x & (y|z))"), parse("((x&y) | (x&z))")
    assert not leq_free(X3, s, t)
    # refutation by evaluation with three distinct atoms
    env = {"x": "a", "y": "b", "z": "c"}
    assert evaluate_term(m3, env, s) == "a"
    assert evaluate_term(m3, env, t) == "0"


def test_generator_not_below_other_join(two):
    assert not leq_free(X3, parse("x"), parse("(y | z)"))
    env = {"x": "c1", "y": "c0", "z": "c0"}
    assert not two.leq(evaluate_term(two, env, parse("x")),
                       evaluate_term(two, env, parse("(y | z)")))


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        leq_free(X2, parse("w"), parse("x"))


@pytest.mark.parametrize("text, names", [
    ("(x & (y | w))", "['w']"),
    ("((v | x) & (y | w))", "['v', 'w']"),
])
def test_nested_unknown_generators(text, names):
    t, x = parse(text), parse("x")
    for call in (
        lambda: leq_free(X3, t, x),
        lambda: leq_free(X3, x, t),
        lambda: canonical_form(X3, t),
    ):
        with pytest.raises(UnknownGenerator) as err:
            call()
        assert str(err.value) == f"unknown generators: {names}"


def test_canonical_step_matches_drop_below_rest_oracle():
    # the antichain step against the step it replaced (drop a child below
    # the join of the rest): the same interned term on random terms and on
    # every pairwise join and meet of G_1 on three generators
    rng = random.Random(1941)
    memo = {}
    for i in range(1500):
        names = ["x", "y", "z", "w"][: 3 + i % 2]
        t = random_term(rng, names, 5)
        assert free._canon(t) is canon_oracle(t, memo), term_to_text(t)
    g1 = stage_elements(X3, StageIndex(1, "G"))
    for a in g1:
        for b in g1:
            for t in (join_of([a, b]), meet_of([a, b])):
                assert free._canon(t) is canon_oracle(t, memo), term_to_text(t)


def test_eq_by_commutativity():
    assert eq_free(X2, parse("(x & y)"), parse("(y & x)"))


def test_canonical_form_idempotence_absorption():
    assert canonical_form(X2, parse("(x | x)")) is gen("x")
    assert canonical_form(X2, parse("(x | (x & y))")) is gen("x")
    assert canonical_form(X2, parse("(x & (x | y))")) is gen("x")


def test_canonical_form_keeps_median():
    t = parse("((x & y) | (x & z) | (y & z))")
    assert canonical_form(X3, t) is t


@pytest.mark.parametrize(
    "text,k,kind",
    [
        ("x", 0, "G"),
        ("(x & y)", 0, "H"),
        ("((x & y) | z)", 1, "G"),
        ("(x | y)", 1, "G"),
        ("((x | y) & z)", 1, "H"),
    ],
)
def test_alternation_rank(text, k, kind):
    assert alternation_rank(X3, parse(text)) == StageIndex(k, kind)


def test_stage_h0_two_generators():
    got = {term_to_text(t) for t in stage_elements(X2, StageIndex(0, "H"), 100)}
    assert got == {"x", "y", "(x & y)", "(x | y)"}


def test_stage_singleton_generator():
    ctx = FreeLattice(["x"])
    for idx in [StageIndex(0, "G"), StageIndex(0, "H"), StageIndex(2, "H")]:
        assert stage_elements(ctx, idx, 10) == (gen("x"),)


def test_free_lattice_on_two_generators_has_four_elements():
    for idx in [StageIndex(1, "H"), StageIndex(3, "G")]:
        assert len(stage_elements(X2, idx, 100)) == 4


def test_stage_monotone():
    seq = [
        StageIndex(0, "G"),
        StageIndex(0, "H"),
        StageIndex(1, "G"),
        StageIndex(1, "H"),
    ]
    stages = [set(stage_elements(X3, i, 5000)) for i in seq]
    for small, big in zip(stages, stages[1:]):
        assert small <= big


def test_stage_cap():
    with pytest.raises(CapExceeded):
        stage_elements(X3, StageIndex(1, "H"), 10)


_UP_TO_H1 = [StageIndex(0, "G"), StageIndex(0, "H"), StageIndex(1, "G"), StageIndex(1, "H")]


@pytest.mark.parametrize("names, idx", [
    *((n, i) for n in ("x", "xy", "xyz") for i in _UP_TO_H1),
    ("wxyz", StageIndex(1, "G")),
    ("uvwxy", StageIndex(0, "H")),
    ("uvwxyz", StageIndex(0, "H")),
], ids=lambda v: v if isinstance(v, str) else f"{v.kind}{v.k}")
def test_stage_elements_match_pair_product_oracle(names, idx):
    ctx = FreeLattice(names)
    assert stage_elements(ctx, idx) == stage_elements_oracle(ctx, idx)


@pytest.mark.parametrize("cap", [10, 43, 44])
def test_stage_cap_matches_oracle(cap):
    idx = StageIndex(1, "H")  # 44 elements on three generators
    try:
        want = stage_elements_oracle(X3, idx, cap)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            stage_elements(X3, idx, cap)
    else:
        assert stage_elements(X3, idx, cap) == want


def test_stage_g2_three_generators():
    assert len(stage_elements(X3, StageIndex(2, "G"))) == 677


def test_stage_closure_needs_saturation_at_g1(monkeypatch):
    # The adjoined bottom is a compound term, so at G_1 too the OR of two
    # masks can miss a subterm below the join: without saturation one
    # element is split over several masks.
    idx = StageIndex(1, "G")
    want = stage_elements_oracle(X3, idx)
    monkeypatch.setattr(free, "_sat", lambda m, rules: m)
    got = stage_elements(X3, idx)
    assert set(got) == set(want) and len(got) > len(want)


def test_in_stage_conventions():
    top = parse("(x | y | z)")
    bot = parse("(x & y & z)")
    assert in_stage(X3, top, StageIndex(0, "H"))  # empty meet
    assert alternation_rank(X3, top) == StageIndex(1, "G")
    assert in_stage(X3, bot, StageIndex(0, "H"))
    assert in_stage(X3, bot, StageIndex(1, "G"))  # empty join
    assert not in_stage(X3, parse("((x & y) | (x & z))"), StageIndex(0, "H"))


def test_stage_elements_include_conventions():
    h0 = stage_elements(X3, StageIndex(0, "H"), 100)
    assert parse("(x | y | z)") in h0
    g1 = stage_elements(X3, StageIndex(1, "G"), 10000)
    assert parse("(x & y & z)") in g1


names3 = st.sampled_from(["x", "y", "z"])


def term_strategy():
    return st.recursive(
        names3.map(gen),
        lambda ch: st.lists(ch, min_size=2, max_size=3).map(meet_of)
        | st.lists(ch, min_size=2, max_size=3).map(join_of),
        max_leaves=10,
    )


@given(term_strategy(), term_strategy())
@settings(max_examples=300, deadline=None)
def test_canonical_form_characterises_equivalence(s, t):
    assert eq_free(X3, s, t) == (canonical_form(X3, s) is canonical_form(X3, t))


@given(term_strategy())
@settings(max_examples=200, deadline=None)
def test_canonical_form_idempotent_and_equivalent(t):
    c = canonical_form(X3, t)
    assert canonical_form(X3, c) is c
    assert eq_free(X3, t, c)


@given(term_strategy(), term_strategy(), term_strategy())
@settings(max_examples=200, deadline=None)
def test_leq_is_a_preorder_modulo_eq(r, s, t):
    assert leq_free(X3, r, r)
    if leq_free(X3, r, s) and leq_free(X3, s, t):
        assert leq_free(X3, r, t)
    if leq_free(X3, r, s) and leq_free(X3, s, r):
        assert eq_free(X3, r, s)


def test_leq_sound_for_lattice_evaluation():
    # order decided freely must hold under every evaluation
    rng = random.Random(7)
    lattices = [random_lattice(rng, ground=4, min_size=3, max_size=8) for _ in range(8)]
    pool = [random_term(rng, ["x", "y", "z"], 3) for _ in range(80)]
    checked = 0
    for _ in range(600):
        s, t = rng.choice(pool), rng.choice(pool)
        if not leq_free(X3, s, t):
            continue
        checked += 1
        L = rng.choice(lattices)
        env = {n: rng.choice(L.elements) for n in ("x", "y", "z")}
        assert L.leq(evaluate_term(L, env, s), evaluate_term(L, env, t))
    assert checked > 50


def test_stage_elements_pairwise_inequivalent():
    for idx in [StageIndex(0, "H"), StageIndex(1, "G")]:
        reps = stage_elements(X3, idx, 5000)
        for i, s in enumerate(reps):
            for t in reps[i + 1 :]:
                assert not eq_free(X3, s, t)


@pytest.mark.parametrize("names", [["x", "y", "z"], ["w", "x", "y", "z"]])
def test_leq_matches_recursive_oracle(names):
    rng = random.Random(len(names))
    ctx = FreeLattice(names)
    gens = [gen(n) for n in names]
    pool = [random_term(rng, names, 4) for _ in range(60)]
    joins = [join_of([rng.choice(pool), rng.choice(pool)]) for _ in range(30)]
    meets = [meet_of([rng.choice(pool), rng.choice(pool)]) for _ in range(30)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(1500)]
    # a generator against a join and a meet against a generator, both ways
    pairs += [(rng.choice(gens), rng.choice(joins)) for _ in range(300)]
    pairs += [(rng.choice(meets), rng.choice(gens)) for _ in range(300)]
    pairs += [(b, a) for a, b in pairs[-600:]]
    verdicts = set()
    for s, t in pairs:
        want = oracle_leq_free(s, t)
        assert leq_free(ctx, s, t) is want
        verdicts.add(want)
    assert verdicts == {True, False}


def _alternating(leaf, names, depth):
    """Meets and joins with a generator, alternating ``depth`` times above
    ``leaf``; built bottom-up, since :func:`parse` recurses."""
    t = leaf
    for i in range(depth):
        g = gen(names[(i + 2) % len(names)])
        t = meet_of([g, t]) if i % 2 == 0 else join_of([g, t])
    return t


def test_leq_on_deep_terms_needs_no_deep_recursion():
    names = ["w", "x", "y", "z"]
    ctx = FreeLattice(names)
    s, t = (_alternating(gen(n), names, 300) for n in ("w", "x"))
    assert not leq_free(ctx, s, t) and not leq_free(ctx, t, s)
    P = antichain(names)
    assert not leq_fp(P, s, t) and not leq_fp(P, t, s)
    # each step is monotone, so a larger leaf gives a larger term
    u = _alternating(join_of([gen("w"), gen("x")]), names, 300)
    assert leq_free(ctx, s, u) and leq_free(ctx, t, u)
    assert not leq_free(ctx, u, s)


def test_depth_5000_terms_at_the_default_recursion_limit(default_recursion_limit, m3):
    names = ["w", "x", "y", "z"]
    ctx = FreeLattice(names)
    s, t = (_alternating(gen(n), names, 5000) for n in ("w", "x"))
    assert parse(term_to_text(s)) is s
    assert depth(s) == 5000 and term_size(s) == 10001
    assert canonical_form(ctx, s) is s
    assert alternation_rank(ctx, s) == StageIndex(2500, "G")
    assert _dual_term(_dual_term(s)) is s
    # the same walk as _alternating, run on the images
    images = {"w": "a", "x": "b", "y": "c", "z": "a"}
    v = "a"
    for i in range(5000):
        g = images[names[(i + 2) % len(names)]]
        v = m3.meet(g, v) if i % 2 == 0 else m3.join(g, v)
    assert evaluate_term(m3, images, s) == v
    assert not leq_free(ctx, s, t) and not leq_free(ctx, t, s)
    u = _alternating(join_of([gen("w"), gen("x")]), names, 5000)
    assert leq_free(ctx, s, u) and not leq_free(ctx, u, s)
