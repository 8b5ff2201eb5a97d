import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_terms_up_to,
    fp_closure_oracle,
    fp_mask_oracle,
    random_lattice,
    random_term,
)
from latkit.errors import (
    CapExceeded,
    InvalidPartialLattice,
    UnknownGenerator,
    UnverifiedPreconditionWarning,
)
from latkit.free import FreeLattice, _canon, eq_free, leq_free
from latkit.order import (
    FinitePoset,
    check_whitman,
    evaluate_term,
    is_lower_bounded_finite,
)
from latkit.partial_lattice import (
    PartialLattice,
    antichain,
    closure_stage,
    eq_fp,
    from_finite_lattice,
    is_bounded_fp,
    is_lower_bounded_fp,
    is_lower_bounded_sublattice,
    leq_fp,
    partial_whitman_check,
    semilattice_to_lattice,
    standard_hom_image,
)
from latkit.terms import (
    Gen,
    Join,
    Meet,
    gen,
    join_of,
    meet_of,
    parse,
    sort_key,
    subterms,
    term_size,
    term_to_text,
)


# --- construction ---


def test_antichain_has_no_operations():
    P = antichain(["x", "y", "z"])
    assert P.joins == {} and P.meets == {}
    assert P.elements == ("x", "y", "z")


def test_from_finite_lattice_total_tables(square):
    P = from_finite_lattice(square)
    assert P.joins[("a", "b")] == "1"
    assert P.meets[("a", "b")] == "0"
    assert len(P.joins) == len(P.meets) == 6


def test_defined_join_must_be_supremum():
    poset = FinitePoset(["q", "r", "p", "t"], [("q", "p"), ("r", "p"), ("p", "t")])
    PartialLattice(poset, joins={("q", "r"): "p"})  # fine: p is the lub
    with pytest.raises(InvalidPartialLattice):
        PartialLattice(poset, joins={("q", "r"): "t"})  # p is tighter


def test_singleton_entries_normalised():
    poset = FinitePoset(["q", "r"], [("q", "r")])
    P = PartialLattice(poset, joins={("q",): "q"})
    assert P.joins == {}
    with pytest.raises(InvalidPartialLattice):
        PartialLattice(poset, joins={("q",): "r"})


# --- the word problem ---


def test_leq_fp_defined_join_rule():
    poset = FinitePoset(["p", "q", "r"], [("q", "p"), ("r", "p")])
    P = PartialLattice(poset, joins={("q", "r"): "p"})
    assert leq_fp(P, parse("p"), parse("(q | r)"))
    assert not leq_fp(P, parse("p"), parse("q"))
    # without the defined join the inequality is underivable
    free_version = PartialLattice(poset)
    assert not leq_fp(free_version, parse("p"), parse("(q | r)"))


def test_leq_fp_defined_meet_rule():
    poset = FinitePoset(["p", "q", "r"], [("p", "q"), ("p", "r")])
    P = PartialLattice(poset, meets={("q", "r"): "p"})
    assert leq_fp(P, parse("(q & r)"), parse("p"))
    assert not leq_fp(PartialLattice(poset), parse("(q & r)"), parse("p"))


def test_leq_fp_interpolation_rule():
    # q & r = p <= w = u | v, while no meetand lies below the join and the
    # meet lies below no joinand: only the generator p interpolates
    poset = FinitePoset(
        ["p", "q", "r", "u", "v", "w"],
        [("p", "q"), ("p", "r"), ("p", "w"), ("u", "w"), ("v", "w")],
    )
    P = PartialLattice(poset, joins={("u", "v"): "w"}, meets={("q", "r"): "p"})
    s, t = parse("(q & r)"), parse("(u | v)")
    assert leq_fp(P, s, t) and _naive_leq_fp(P, s, t)
    assert not leq_fp(P, parse("q"), t) and not leq_fp(P, s, parse("u"))
    assert not leq_fp(PartialLattice(poset, joins={("u", "v"): "w"}), s, t)
    assert not leq_fp(PartialLattice(poset, meets={("q", "r"): "p"}), s, t)


def test_leq_fp_unknown_generator():
    with pytest.raises(UnknownGenerator):
        leq_fp(antichain(["x"]), parse("w"), parse("x"))


@pytest.mark.parametrize("text, names", [
    ("(x & (y | w))", "['w']"),
    ("((v | x) & (y | w))", "['v', 'w']"),
])
def test_nested_unknown_generators(text, names):
    P = antichain(["x", "y", "z"])
    stage = closure_stage(P, 0)
    t, x = parse(text), parse("x")
    for call in (
        lambda: leq_fp(P, t, x),
        lambda: leq_fp(P, x, t),
        lambda: eq_fp(P, t, x),
        lambda: eq_fp(P, x, t),
        lambda: stage.index_of_equivalent(t),
        lambda: standard_hom_image(P, stage, t),
    ):
        with pytest.raises(UnknownGenerator) as err:
            call()
        assert str(err.value) == f"unknown generators: {names}"


def test_antichain_matches_free_lattice():
    P = antichain(["x", "y", "z"])
    ctx = FreeLattice(["x", "y", "z"])
    s, t = parse("(x & (y|z))"), parse("((x&y) | (x&z))")
    assert not leq_fp(P, s, t)
    assert leq_fp(P, t, s)
    rng = random.Random(17)
    for _ in range(400):
        a = random_term(rng, ["x", "y", "z"], 3)
        b = random_term(rng, ["x", "y", "z"], 3)
        assert leq_fp(P, a, b) == leq_free(ctx, a, b)
        assert eq_fp(P, a, b) == eq_free(ctx, a, b)


def test_total_lattice_matches_evaluation(square):
    P = from_finite_lattice(square)
    ident = {e: e for e in square.elements}
    terms = all_terms_up_to(square.elements, 2, width=2, pool_cap=40)
    for s in terms:
        vs = evaluate_term(square, ident, s)
        for t in terms:
            vt = evaluate_term(square, ident, t)
            assert leq_fp(P, s, t) == square.leq(vs, vt), (term_to_text(s), term_to_text(t))


def test_eq_fp_examples(m3):
    Pm = from_finite_lattice(m3)
    assert eq_fp(Pm, parse("p"), parse("p")) if "p" in Pm.elements else True
    assert eq_fp(Pm, parse("(a | b)"), parse("(a | c)"))
    assert eq_fp(Pm, parse("a"), parse("a"))


def _naive_leq_fp(P, s, t):
    """Independent Kleene iteration: recompute every rule body each round."""
    universe = sorted(
        subterms(s) | subterms(t) | {gen(e) for e in P.elements}, key=sort_key
    )
    true = set()

    def holds(a, b):
        return (a, b) in true

    def body(a, b):
        if isinstance(a, Join):
            return all(holds(c, b) for c in a.children)
        if isinstance(b, Meet):
            return all(holds(a, c) for c in b.children)
        if isinstance(a, Gen):
            if isinstance(b, Gen):
                return P.poset.leq(a.name, b.name)
            if any(holds(a, c) for c in b.children):
                return True
            return any(
                P.poset.leq(a.name, w) and all(holds(gen(q), b) for q in U)
                for U, w in P.joins.items()
            )
        if isinstance(b, Gen):
            if any(holds(c, b) for c in a.children):
                return True
            return any(
                P.poset.leq(w, b.name) and all(holds(a, gen(q)) for q in U)
                for U, w in P.meets.items()
            )
        return (
            any(holds(c, b) for c in a.children)
            or any(holds(a, c) for c in b.children)
            or any(holds(a, gen(p)) and holds(gen(p), b) for p in P.elements)
        )

    changed = True
    while changed:
        changed = False
        for a in universe:
            for b in universe:
                if (a, b) not in true and body(a, b):
                    true.add((a, b))
                    changed = True
    return (s, t) in true


def _random_partial(rng):
    L = random_lattice(rng, ground=4, min_size=3, max_size=7)
    total = from_finite_lattice(L)
    joins = {k: v for k, v in total.joins.items() if rng.random() < 0.4}
    meets = {k: v for k, v in total.meets.items() if rng.random() < 0.4}
    return PartialLattice(L.poset, joins, meets)


def test_engine_matches_naive_fixpoint(m3):
    rng = random.Random(23)
    partials = [antichain(["x", "y"]), from_finite_lattice(m3)]
    partials += [_random_partial(rng) for _ in range(6)]
    for P in partials:
        names = list(P.elements)
        for _ in range(60):
            s = random_term(rng, names, 2)
            t = random_term(rng, names, 2)
            assert leq_fp(P, s, t) == _naive_leq_fp(P, s, t), (
                P,
                term_to_text(s),
                term_to_text(t),
            )


def test_engine_matches_naive_fixpoint_large():
    rng = random.Random(97)
    partials = [_random_partial(rng) for _ in range(40)]
    for P in partials:
        names = list(P.elements)
        for _ in range(25):
            s = random_term(rng, names, 3)
            t = random_term(rng, names, 3)
            assert leq_fp(P, s, t) == _naive_leq_fp(P, s, t), (
                P,
                term_to_text(s),
                term_to_text(t),
            )


def _names(P, mask):
    return frozenset(e for e in P.elements if mask & P._bit[e])


def test_mask_memo_matches_memo_free_oracle(fig_lattice):
    # the per-side memo from union masks to closed masks must give the masks
    # of the memo-free fixed point, over a shuffled batch of queries
    rng = random.Random(24)
    partials = [from_finite_lattice(fig_lattice)] + [_random_partial(rng) for _ in range(8)]
    assert len(partials[0].joins) == len(partials[0].meets) == 120
    for P in partials:
        names = list(P.elements)
        batch = [(random_term(rng, names, 3), random_term(rng, names, 3)) for _ in range(100)]
        batch += [(t, s) for s, t in batch]
        rng.shuffle(batch)
        for s, t in batch:
            leq_fp(P, s, t)
        for ideal, side in ((True, P._ideal_side), (False, P._filter_side)):
            table, _, _, closed = side
            assert closed
            for t, m in table.items():
                assert _names(P, m) == fp_mask_oracle(P, t, ideal), (P, term_to_text(t))
            for union, m in closed.items():
                assert _names(P, m) == fp_closure_oracle(P, _names(P, union), ideal)


def test_leq_fp_walks_each_side_once(m3):
    # the left term is read only through filters and the right term only
    # through ideals
    rng = random.Random(25)
    checked = 0
    for P in (from_finite_lattice(m3), antichain(["x", "y", "z"]), _random_partial(rng)):
        names = list(P.elements)
        for _ in range(80):
            s, t = random_term(rng, names, 3), random_term(rng, names, 3)
            if (type(s) is Gen or type(t) is Gen or s in P._ideal or t in P._filter
                    or s in subterms(t) or t in subterms(s)):
                continue
            leq_fp(P, s, t)
            assert s in P._filter and t in P._ideal
            assert s not in P._ideal and t not in P._filter
            checked += 1
    assert checked >= 90


def test_unknown_generators_on_both_sides_name_the_left_term():
    P = antichain(["x", "y"])
    with pytest.raises(UnknownGenerator) as err:
        leq_fp(P, parse("(x | v)"), parse("(y & w)"))
    assert str(err.value) == "unknown generators: ['v']"


def _dual_term(t):
    if isinstance(t, Gen):
        return t
    kids = [_dual_term(c) for c in t.children]
    return join_of(kids) if isinstance(t, Meet) else meet_of(kids)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_leq_fp_duality(seed):
    rng = random.Random(seed)
    P = _random_partial(rng)
    D = P.dual()
    names = list(P.elements)
    for _ in range(10):
        s = random_term(rng, names, 3)
        t = random_term(rng, names, 3)
        assert leq_fp(P, s, t) == leq_fp(D, _dual_term(t), _dual_term(s))


def test_transposed_dual_answers_as_rebuilt_dual(fig_lattice):
    P = from_finite_lattice(fig_lattice)
    D = P.dual()
    flipped = FinitePoset(P.elements, [(hi, lo) for lo, hi in P.poset.covers])
    R = PartialLattice(flipped, P.meets, P.joins)
    assert D.to_dict() == R.to_dict()
    rng = random.Random(16)
    names = list(P.elements)
    for _ in range(150):
        s = random_term(rng, names, 3)
        t = random_term(rng, names, 3)
        assert leq_fp(D, s, t) == leq_fp(R, s, t)


def _alternating(base, other, depth):
    t = gen(base)
    for i in range(depth):
        t = (join_of if i % 2 == 0 else meet_of)([t, gen(other)])
    return t


@pytest.mark.parametrize("depth", [600, 3000])
def test_leq_fp_deep_terms(depth):
    # x | y, then & y, then | y, ...: the term equals y from the second step on
    P = antichain(["x", "y"])
    t = _alternating("x", "y", depth)
    assert not leq_fp(P, t, gen("x"))
    assert not leq_fp(P, gen("x"), t)
    assert leq_fp(P, t, gen("y")) and leq_fp(P, gen("y"), t)
    u = _alternating("y", "x", depth)  # equals x
    assert not leq_fp(P, t, u) and not leq_fp(P, u, t)
    assert leq_fp(P, meet_of([t, u]), join_of([u, t]))


# --- condition check on defined operations ---


def test_partial_whitman_examples(m3, fig_lattice):
    assert partial_whitman_check(antichain(["x", "y", "z"])).ok
    assert partial_whitman_check(from_finite_lattice(m3)).ok
    rep = partial_whitman_check(from_finite_lattice(fig_lattice))
    assert not rep.ok
    S, T = rep.witness
    assert set(S) == {"b1", "b2"} and set(T) == {"a3", "a4"}


def test_partial_whitman_agrees_with_lattice_check(m3, square, n5, fig_lattice):
    rng = random.Random(31)
    lattices = [m3, square, n5, fig_lattice] + [
        random_lattice(rng, ground=4, min_size=3, max_size=9) for _ in range(6)
    ]
    for L in lattices:
        assert partial_whitman_check(from_finite_lattice(L)).ok == check_whitman(L).ok


# --- closure stages ---


def test_closure_stage_two_antichain():
    P = antichain(["x", "y"])
    st = closure_stage(P, 0, 100)
    assert {term_to_text(r) for r in st.reps} == {"x", "y", "(x & y)", "(x | y)"}
    assert term_to_text(st.reps[st.least_index]) == "(x & y)"
    lat = semilattice_to_lattice(st)
    assert len(lat) == 4
    atoms = [e for e in lat.elements if lat.poset.lower_covers(e) == (lat.bottom,)]
    assert len(atoms) == 2  # shaped like the 2x2 square


def test_closure_stage_total_m3(m3):
    P = from_finite_lattice(m3)
    st = closure_stage(P, 0, 100)
    assert len(st.reps) == 5
    lat = semilattice_to_lattice(st)
    assert not is_lower_bounded_finite(lat).ok


def test_closure_stage_least_element():
    for P in (antichain(["x", "y", "z"]), _random_partial(random.Random(3))):
        st = closure_stage(P, 0, 500)
        least = st.reps[st.least_index]
        assert eq_fp(P, least, P.bottom_term)
        assert all(leq_fp(P, least, r) for r in st.reps)


def test_closure_stage_monotone_in_n():
    P = antichain(["x", "y", "z"])
    st0 = closure_stage(P, 0, 500)
    st1 = closure_stage(P, 1, 500)
    for r in st0.reps:
        assert st1.index_of_equivalent(r) is not None
    assert len(st1.reps) > len(st0.reps)


def test_closure_stage_invariants(m3):
    for P in (antichain(["x", "y", "z"]), from_finite_lattice(m3)):
        st = closure_stage(P, 0, 500)
        for i, r in enumerate(st.reps):
            for s in st.reps[i + 1 :]:
                assert not eq_fp(P, r, s)
        # join closed: every pairwise join lands on a representative
        for r in st.reps:
            for s in st.reps:
                assert st.index_of_equivalent(join_of([r, s]) if r is not s else r) is not None


def _naive_fp_close(P, reps, combine, extra, cap):
    out = []

    def add(t):
        t = _canon(t)
        for i, r in enumerate(out):
            if eq_fp(P, r, t):
                if (term_size(t), sort_key(t)) < (term_size(r), sort_key(r)):
                    out[i] = t
                return
        if len(out) + 1 > cap:
            raise CapExceeded(cap, "closure stage")
        out.append(t)

    for r in reps:
        add(r)
    add(extra)
    i = 0
    while i < len(out):
        for j in range(i + 1):
            add(combine([out[i], out[j]]))
        i += 1
    return out


def _naive_closure_stage(P, n, cap):
    """Representatives, order matrix and least index of stage ``n``, with
    members deduplicated pairwise up to ``eq_fp``."""
    reps = [_canon(g) for g in P._gen_terms]
    for op in ["join", "meet"] * n + ["join"]:
        extra = P.bottom_term if op == "join" else P.top_term
        combine = join_of if op == "join" else meet_of
        reps = _naive_fp_close(P, reps, combine, _canon(extra), cap)
    reps = tuple(sorted(reps, key=lambda t: (term_size(t), sort_key(t))))
    order = tuple(tuple(leq_fp(P, a, b) for b in reps) for a in reps)
    least = next(i for i in range(len(reps)) if all(order[i]))
    return reps, order, least


def _naive_hom_image(P, reps, t):
    joined = join_of([r for r in reps if leq_fp(P, r, t)])
    return next(r for r in reps if eq_fp(P, r, joined))


def test_closure_stage_matches_pairwise_oracle(m3, fig_lattice):
    rng = random.Random(61)
    partials = [antichain(["x", "y"]), antichain(["x", "y", "z"])]
    partials += [from_finite_lattice(L) for L in (m3, fig_lattice)]
    partials += [from_finite_lattice(random_lattice(rng, ground=4, min_size=3, max_size=8))]
    partials += [_random_partial(rng) for _ in range(6)]
    for P in partials:
        for Q in (P, P.dual()):
            for n in (0, 1):
                reps, order, least = _naive_closure_stage(Q, n, 4000)
                st = closure_stage(Q, n, len(reps))
                assert st.reps == reps, (P, n)
                size = range(len(reps))
                assert all(st.leq(i, j) == order[i][j] for i in size for j in size)
                assert st.least_index == least
                with pytest.raises(CapExceeded):
                    closure_stage(Q, n, len(reps) - 1)
                names = list(Q.elements)
                for _ in range(10):
                    t = random_term(rng, names, 3)
                    assert standard_hom_image(Q, st, t) is _naive_hom_image(Q, reps, t)
                    equal = [i for i, r in enumerate(reps) if eq_fp(Q, r, t)]
                    assert [st.index_of_equivalent(t)] == (equal or [None])
    with pytest.raises(UnknownGenerator):
        st.index_of_equivalent(gen("w"))


# --- the standard homomorphism ---


def test_standard_hom_fixes_stage_and_least():
    P = antichain(["x", "y"])
    st = closure_stage(P, 0, 100)
    for r in st.reps:
        assert standard_hom_image(P, st, r) is r
    assert standard_hom_image(P, st, parse("(x & (x | y))")) is gen("x")
    deep = meet_of([gen("x"), join_of([meet_of([gen("x"), gen("y")]), gen("y")])])
    img = standard_hom_image(P, st, deep)
    assert eq_fp(P, img, parse("(x & y)")) or term_to_text(img) == "(x & y)"


def test_standard_hom_monotone_join_preserving():
    P = antichain(["x", "y"])
    st = closure_stage(P, 0, 100)
    lat = semilattice_to_lattice(st)
    rng = random.Random(41)
    pool = [random_term(rng, ["x", "y"], 2) for _ in range(40)]
    for s in pool:
        fs = standard_hom_image(P, st, s)
        for t in pool:
            ft = standard_hom_image(P, st, t)
            if leq_fp(P, s, t):
                assert leq_fp(P, fs, ft)
            fj = standard_hom_image(P, st, join_of([s, t]))
            assert eq_fp(P, fj, none_or_join(fs, ft))
            fm = standard_hom_image(P, st, meet_of([s, t]))
            # the image of a meet sits below the stage infimum of the images
            assert lat.leq(term_to_text(fm), lat.meet(term_to_text(fs), term_to_text(ft)))


def none_or_join(a, b):
    return join_of([a, b]) if a is not b else a


def test_standard_hom_composition_preserves_boundedness_verdict(square):
    # a finite-source hom into the generated lattice, given by term images on
    # the source elements; composing with the standard homomorphism must not
    # change the least-preimage verdict (both are decidable: the source is
    # finite, so fibers are finite sets of source elements)
    P = antichain(["x", "y"])
    st = closure_stage(P, 0, 100)
    images = {
        "0": parse("(x & y)"),
        "a": gen("x"),
        "b": gen("y"),
        "1": parse("(x | y)"),
    }
    # term images define a homomorphism from the square
    for u in square.elements:
        for v in square.elements:
            assert eq_fp(P, images[square.meet(u, v)], meet_of([images[u], images[v]]))
            assert eq_fp(P, images[square.join(u, v)], join_of([images[u], images[v]]))

    def fibers(value_of):
        # group source elements by the equivalence class of their image
        groups: list[tuple[Term, list[str]]] = []
        for u in square.elements:
            for rep, members in groups:
                if eq_fp(P, rep, value_of[u]):
                    members.append(u)
                    break
            else:
                groups.append((value_of[u], [u]))
        return groups

    def lower_bounded(value_of):
        for _, members in fibers(value_of):
            least = members[0]
            for m in members[1:]:
                least = square.meet(least, m)
            if least not in members:
                return False
        return True

    composed = {u: standard_hom_image(P, st, images[u]) for u in square.elements}
    assert lower_bounded(images) == lower_bounded(composed) is True


# --- boundedness procedures ---


def test_is_lower_bounded_fp_examples(m3, square, fig_lattice):
    assert is_lower_bounded_fp(antichain(["x", "y", "z"])).ok
    assert is_lower_bounded_fp(from_finite_lattice(square)).ok
    assert is_lower_bounded_fp(from_finite_lattice(chain2())).ok
    assert not is_lower_bounded_fp(from_finite_lattice(m3)).ok
    assert not is_lower_bounded_fp(from_finite_lattice(fig_lattice)).ok


def chain2():
    from latkit.order import chain

    return chain(2)


def test_is_bounded_fp(m3, square):
    lower, upper = is_bounded_fp(from_finite_lattice(square))
    assert lower.ok and upper.ok
    lower, upper = is_bounded_fp(from_finite_lattice(m3))
    assert not lower.ok and not upper.ok


def test_fp_verdict_matches_finite_test_on_total_lattices(m3, square, n5):
    rng = random.Random(6)
    lattices = [m3, square, n5] + [
        random_lattice(rng, ground=4, min_size=3, max_size=8) for _ in range(6)
    ]
    for L in lattices:
        assert is_lower_bounded_fp(from_finite_lattice(L)).ok == is_lower_bounded_finite(L).ok


def test_sublattice_reduces_to_whole(m3):
    P = from_finite_lattice(m3)
    rep_all = is_lower_bounded_sublattice(P, [gen(e) for e in P.elements])
    assert rep_all.ok == is_lower_bounded_fp(P).ok


def test_sublattice_two_chain_inside_free():
    P = antichain(["x", "y"])
    rep = is_lower_bounded_sublattice(P, [parse("(x & y)"), parse("(x | y)")])
    assert rep.ok
    assert len(rep.stage_lattice) == 2


def test_sublattice_antichain_generators():
    P = antichain(["x", "y", "z"])
    rep = is_lower_bounded_sublattice(P, [gen("x"), gen("y"), gen("z")])
    assert rep.ok


def test_sublattice_warns_without_certificate(fig_lattice):
    P = from_finite_lattice(fig_lattice)
    with pytest.warns(UnverifiedPreconditionWarning):
        is_lower_bounded_sublattice(P, [gen("a1"), gen("a2")])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        is_lower_bounded_sublattice(P, [gen("a1")], assume_condition=True)


def test_json_roundtrip():
    poset = FinitePoset(["p", "q", "r"], [("q", "p"), ("r", "p")])
    P = PartialLattice(poset, joins={("q", "r"): "p"})
    again = PartialLattice.from_dict(P.to_dict())
    assert again.elements == P.elements
    assert again.joins == P.joins and again.meets == P.meets
