import itertools
import json
import random
import time

import pytest

from helpers import (
    antichain_scan_oracle,
    covers_from_leq,
    d_relation_oracle,
    dual_oracle,
    join_covers_oracle,
    lower_covers_oracle,
    m_n,
    random_big_lattice,
    random_lattice,
)
from latkit import order
from latkit.errors import (
    InvalidPoset,
    NotALattice,
    NotGenerating,
    UnassignedGenerator,
    UnknownElement,
)
from latkit.order import (
    FiniteLattice,
    FinitePoset,
    build_lattice,
    chain,
    check_dean,
    check_whitman,
    d_relation,
    evaluate_term,
    generated_sublattice,
    is_bounded_finite,
    is_join_prime,
    is_lower_bounded_finite,
    is_meet_prime,
    is_upper_bounded_finite,
    join_irreducibles,
    meet_irreducibles,
    minimal_generating_set,
    minimal_join_covers,
    _d_relation_with_witnesses,
    _join_covers,
)
from latkit.terms import parse


# --- posets ---


def test_poset_rejects_cycle():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_poset_rejects_implied_cover():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_poset_rejects_unknown_elements():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a"], [("a", "b")])


def test_poset_dual_involution():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert p.dual().dual() == p


def _facts(L: FiniteLattice):
    """Everything a caller can read off a lattice, as plain values."""
    P, els = L.poset, L.elements
    return (
        L.to_dict(), L.bottom, L.top, L.generators,
        [[(L.meet(a, b), L.join(a, b)) for b in els] for a in els],
        [(P.lower_covers(e), P.upper_covers(e)) for e in els],
        P.heights(),
    )


def test_transposed_dual_matches_rebuilt_dual(m3, n5, fig_lattice):
    rng = random.Random(14)
    small = [random_lattice(rng, ground=5, min_size=3, max_size=20) for _ in range(12)]
    small = [L.with_generators(minimal_generating_set(L)) if k % 3 == 0 else L
             for k, L in enumerate(small)]
    big = [random_big_lattice(rng, 14, 190, 210) for _ in range(3)]
    assert all(190 <= len(L) <= 210 for L in big)
    for L in [m3, n5, fig_lattice, chain(1), *small, *big]:
        D, O = L.dual(), dual_oracle(L)
        assert _facts(D) == _facts(O)
        assert D.dual() == L and _facts(D.dual()) == _facts(L)
        # the reversed extension is a linear extension of the dual order
        pos, idx = D.poset._pos, D.poset.index
        assert all(pos[idx(lo)] < pos[idx(hi)] for lo, hi in D.poset.covers)
        for X in (L, D):
            assert all(X.poset.lower_covers(e) == lower_covers_oracle(X.poset, e)
                       for e in X.elements)
            assert _d_relation_with_witnesses(X) == d_relation_oracle(X)
        assert is_bounded_finite(D) == is_bounded_finite(O)
        assert is_bounded_finite(D.dual()) == is_bounded_finite(L)


def test_dual_is_a_transpose(monkeypatch, fig_lattice):
    def rebuilt(*args):
        raise AssertionError("dual() rebuilt the lattice")

    monkeypatch.setattr(FiniteLattice, "__init__", rebuilt)
    monkeypatch.setattr(FinitePoset, "__init__", rebuilt)
    monkeypatch.setattr(order, "generated_sublattice", rebuilt)
    D = fig_lattice.dual()
    assert D._meet is fig_lattice._join and D._join is fig_lattice._meet
    assert (D.bottom, D.top) == (fig_lattice.top, fig_lattice.bottom)


# --- lattice construction ---


def test_one_element_lattice():
    L = build_lattice(FinitePoset(["e"], []))
    assert L.bottom == L.top == "e"
    assert L.meet("e", "e") == "e"


def test_bowtie_is_not_a_lattice():
    poset = FinitePoset(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    with pytest.raises(NotALattice) as err:
        build_lattice(poset)
    assert set(err.value.pair) in ({"a", "b"}, {"c", "d"})


def test_fig_lattice_builds(fig_lattice):
    assert len(fig_lattice) == 16
    assert fig_lattice.bottom == "0" and fig_lattice.top == "1"
    assert fig_lattice.leq("a1", "b2")
    assert not fig_lattice.leq("a1", "b3")


def test_antichain_poset_is_not_a_lattice():
    with pytest.raises(NotALattice):
        build_lattice(FinitePoset(["a", "b"], []))


def test_tables_are_bounds(m3, n5, square):
    rng = random.Random(1)
    for L in (m3, n5, square, random_lattice(rng), random_lattice(rng)):
        for a in L.elements:
            for b in L.elements:
                m = L.meet(a, b)
                assert L.leq(m, a) and L.leq(m, b)
                for c in L.elements:
                    if L.leq(c, a) and L.leq(c, b):
                        assert L.leq(c, m)
                j = L.join(a, b)
                assert L.leq(a, j) and L.leq(b, j)
                for c in L.elements:
                    if L.leq(a, c) and L.leq(b, c):
                        assert L.leq(j, c)


def test_operations_are_lattice_axioms(m3, n5):
    for L in (m3, n5):
        els = L.elements
        for a, b, c in itertools.product(els, repeat=3):
            assert L.meet(a, b) == L.meet(b, a)
            assert L.join(a, b) == L.join(b, a)
            assert L.meet(a, L.meet(b, c)) == L.meet(L.meet(a, b), c)
            assert L.join(a, L.join(b, c)) == L.join(L.join(a, b), c)
            assert L.meet(a, L.join(a, b)) == a
            assert L.join(a, L.meet(a, b)) == a
        for a in els:
            assert L.meet(a, a) == a and L.join(a, a) == a


def test_meet_set_conventions(fig_lattice):
    L = fig_lattice
    assert L.meet_set([]) == L.top
    assert L.join_set([]) == L.bottom
    assert L.meet_set(["a3"]) == "a3"
    assert L.meet_set(["b1", "b2"]) == "a1"
    assert L.join_set(["a3", "a4"]) == "b4"


def test_generators_must_generate(square):
    with pytest.raises(NotGenerating):
        square.with_generators(["a", "0"])
    # the two atoms generate
    assert square.with_generators(["a", "b"]).generators == ("a", "b")


def test_minimal_generating_set(m3, square):
    for L in (m3, square):
        gens = minimal_generating_set(L)
        assert generated_sublattice(L, gens) == set(L.elements)
        for g in gens:
            rest = [x for x in gens if x != g]
            assert not rest or generated_sublattice(L, rest) != set(L.elements)


# --- irreducibles and primes ---


def test_join_irreducibles_examples(two, square, fig_lattice):
    assert join_irreducibles(two) == ("c1",)
    assert join_irreducibles(square) == ("a", "b")
    assert join_irreducibles(fig_lattice) == tuple(f"a{i}" for i in range(1, 8))
    assert meet_irreducibles(square) == ("a", "b")


def test_is_join_prime(two, m3, square):
    assert is_join_prime(two, "c1")
    assert not is_join_prime(m3, "a")
    assert is_join_prime(square, "a")
    assert is_meet_prime(square, "a")
    assert not is_join_prime(square, "0")  # empty join rules out bottom
    with pytest.raises(UnknownElement):
        is_join_prime(two, "zz")


def _join_prime_over_subsets(L, p):
    for r in range(len(L.elements) + 1):
        for A in itertools.combinations(L.elements, r):
            if L.leq(p, L.join_set(A)) and not any(L.leq(p, a) for a in A):
                return False
    return True


def test_join_prime_matches_subset_oracle(m3, square, n5):
    rng = random.Random(17)
    lattices = [m3, square, n5, chain(4)] + [
        random_lattice(rng, ground=4, min_size=3, max_size=10) for _ in range(8)
    ]
    for L in lattices:
        D = L.dual()
        for p in L.elements:
            assert is_join_prime(L, p) == _join_prime_over_subsets(L, p)
            assert is_meet_prime(L, p) == _join_prime_over_subsets(D, p)


# --- minimal join covers and the dependency digraph ---


def test_minimal_join_covers_examples(two, m3, square):
    assert minimal_join_covers(two, "c1") == ()
    covers = minimal_join_covers(m3, "a")
    assert list(covers) == [("b", "c")]
    assert not any(m3.leq("a", x) for x in covers[0])
    assert minimal_join_covers(square, "a") == ()


def test_minimal_join_covers_requires_irreducible(m3):
    with pytest.raises(ValueError):
        minimal_join_covers(m3, "1")


def test_join_covers_match_antichain_oracle():
    # every element, the bottom's empty cover and join-reducible ones included
    rng = random.Random(15)
    lattices = [m_n(n) for n in range(1, 9)]
    lattices += [random_lattice(rng, ground=5, min_size=3, max_size=20) for _ in range(20)]
    for L in lattices:
        for X in (L, L.dual()):
            covers = _join_covers(X)
            assert covers == join_covers_oracle(X)
            assert covers[X.bottom] == [()]


def test_join_cover_table_is_built_once_per_lattice(monkeypatch):
    calls = []
    scan = order._d_relation_with_witnesses
    monkeypatch.setattr(order, "_d_relation_with_witnesses",
                        lambda *a, **k: calls.append(1) or scan(*a, **k))
    L, fresh = m_n(6), m_n(6)
    expected = join_covers_oracle(L)
    for p in join_irreducibles(L):
        assert list(minimal_join_covers(L, p)) == expected[p]
    assert len(calls) == 1
    # the cached table is invisible to equality, hashing and serialisation
    assert L == fresh and hash(L) == hash(fresh) and L.to_dict() == fresh.to_dict()
    assert L.dual()._covers is None and fresh._covers is None


def test_dual_and_cycle_report_are_built_once_per_lattice(fig_lattice):
    rng = random.Random(19)
    lattices = [m_n(4), FiniteLattice.from_dict(fig_lattice.to_dict())]
    lattices += [random_lattice(rng, ground=4, min_size=3, max_size=12) for _ in range(4)]
    lattices += [L.with_generators(minimal_generating_set(L)) for L in lattices[2:4]]
    for L in lattices:
        fresh, D = FiniteLattice.from_dict(L.to_dict()), L.dual()
        assert L.dual() is D and D.dual() is L
        for X in (L, D):
            assert is_lower_bounded_finite(X) is is_lower_bounded_finite(X)
            assert _join_covers(X) is _join_covers(X)
        assert is_bounded_finite(L) == is_bounded_finite(fresh)
        # the filled caches are invisible to equality, hashing and serialisation
        assert L == fresh and hash(L) == hash(fresh) and L.to_dict() == fresh.to_dict()
        O = dual_oracle(L)
        assert D == O and hash(D) == hash(O) and D.to_dict() == O.to_dict()


def test_d_relation_examples(m3, fig_lattice):
    assert d_relation(chain(4)) == {f"c{i}": () for i in range(1, 4)}
    assert d_relation(m3) == {"a": ("b", "c"), "b": ("a", "c"), "c": ("a", "b")}
    edges = d_relation(fig_lattice)
    assert "a3" in edges["a1"] and "a1" in edges["a3"]


def test_d_relation_matches_cover_enumeration(m3, n5, square, fig_lattice):
    rng = random.Random(5)
    lattices = [m3, n5, square, fig_lattice]
    lattices += [random_lattice(rng, ground=4, min_size=3, max_size=10) for _ in range(6)]
    for L in lattices:
        edges = d_relation(L)
        expected = {
            p: tuple(sorted({q for c in minimal_join_covers(L, p) for q in c}))
            for p in join_irreducibles(L)
        }
        assert edges == expected


def test_lower_bounded_examples(m3, square, fig_lattice):
    assert is_lower_bounded_finite(chain(5)).ok
    assert is_lower_bounded_finite(square).ok
    assert not is_lower_bounded_finite(m3).ok
    assert not is_lower_bounded_finite(fig_lattice).ok


def test_lower_bounded_certificates(m3, square, fig_lattice):
    rng = random.Random(11)
    lattices = [m3, square, fig_lattice, chain(3)]
    lattices += [random_lattice(rng, ground=4, min_size=3, max_size=10) for _ in range(6)]
    for L in lattices:
        rep = is_lower_bounded_finite(L)
        edges = d_relation(L)
        if rep.ok:
            assert set(rep.rank) == set(join_irreducibles(L))
            for p, qs in edges.items():
                for q in qs:
                    assert rep.rank[p] > rep.rank[q]
        else:
            cyc = rep.cycle
            assert len(cyc) >= 1
            for i, p in enumerate(cyc):
                q = cyc[(i + 1) % len(cyc)]
                assert q in edges[p]
                # the recorded witness proves the edge from the definition
                x = rep.cycle_witnesses[i]
                qstar = L.poset.lower_covers(q)[0]
                assert not L.leq(p, q)
                assert L.leq(p, L.join(x, q))
                assert not L.leq(p, L.join(x, qstar))


def test_bounded_and_duality(m3, square, fig_lattice, n5):
    assert is_bounded_finite(square).ok
    assert not is_bounded_finite(m3).ok
    for L in (m3, square, fig_lattice, n5):
        assert L.dual().dual() == L
        assert is_upper_bounded_finite(L).ok == is_lower_bounded_finite(L.dual()).ok
        assert (
            is_lower_bounded_finite(L).ok == is_upper_bounded_finite(L.dual()).ok
        )


def test_predicates_dualise(m3, square, n5, fig_lattice):
    rng = random.Random(15)
    lattices = [m3, square, n5, fig_lattice] + [
        random_lattice(rng, ground=4, min_size=3, max_size=8) for _ in range(4)
    ]
    for L in lattices:
        D = L.dual()
        # the meet-below-join condition is self-dual
        assert check_whitman(D).ok == check_whitman(L).ok
        assert join_irreducibles(D) == meet_irreducibles(L)
        assert meet_irreducibles(D) == join_irreducibles(L)
        for p in join_irreducibles(D):
            assert is_join_prime(D, p) == is_meet_prime(L, p)


# --- antichain conditions ---


def test_whitman_examples(m3, fig_lattice):
    assert check_whitman(chain(6)).ok
    assert check_whitman(m3).ok
    rep = check_whitman(fig_lattice)
    assert not rep.ok
    assert rep.witness == (("b1", "b2"), ("a3", "a4"))


def test_whitman_witness_is_a_failure(fig_lattice):
    L = fig_lattice
    S, T = check_whitman(L).witness
    m, j = L.meet_set(S), L.join_set(T)
    assert L.leq(m, j)
    assert not any(L.leq(s, j) for s in S)
    assert not any(L.leq(m, t) for t in T)


def test_dean_examples(m3, fig_lattice):
    # with every element designated, the meet itself interpolates
    assert check_dean(m3, m3.elements).ok
    assert check_dean(fig_lattice, [f"a{i}" for i in range(1, 8)]).ok


def test_antichain_scan_matches_full_scan(m3, square, n5, fig_lattice):
    rng = random.Random(41)
    lattices = [m3, square, n5, fig_lattice, m_n(3), m_n(7), m_n(12)]
    lattices += [random_lattice(rng, ground=5, min_size=4, max_size=24) for _ in range(30)]
    failures = 0
    for L in lattices:
        for X in (L, L.dual()):
            rep = check_whitman(X)
            assert rep == antichain_scan_oracle(X, 0)
            failures += not rep.ok
            gens = minimal_generating_set(X)
            assert check_dean(X, gens) == antichain_scan_oracle(X, X.poset._mask_of(gens))
    assert 0 < failures < 2 * len(lattices)


def test_whitman_on_a_wide_lattice_searches_no_join():
    # every pair of atoms of M_60 has the top as its join, which lies above
    # both atoms of every S; a scan of all pairs of pairs takes about 0.5 s
    L = m_n(60)
    start = time.perf_counter()
    assert check_whitman(L).ok and check_dean(L, L.elements).ok
    assert time.perf_counter() - start < 0.1


def test_dean_not_generating(square):
    with pytest.raises(NotGenerating):
        check_dean(square, ["a"])


def test_whitman_implies_dean(m3, square, n5):
    rng = random.Random(3)
    lattices = [m3, square, n5] + [
        random_lattice(rng, ground=4, min_size=3, max_size=9) for _ in range(8)
    ]
    for L in lattices:
        if check_whitman(L).ok:
            assert check_dean(L, L.elements).ok
            gens = minimal_generating_set(L)
            assert check_dean(L, gens).ok


def _whitman_over_subsets(L):
    els = L.elements
    subsets = [
        list(c) for r in range(1, len(els) + 1) for c in itertools.combinations(els, r)
    ]
    for S in subsets:
        m = L.meet_set(S)
        for T in subsets:
            j = L.join_set(T)
            if not L.leq(m, j):
                continue
            if any(L.leq(s, j) for s in S) or any(L.leq(m, t) for t in T):
                continue
            return False, (S, T)
    return True, None


def test_antichain_reduction_soundness(m3, square, n5):
    rng = random.Random(9)
    lattices = [m3, square, n5] + [
        random_lattice(rng, ground=4, min_size=3, max_size=8) for _ in range(5)
    ]
    for L in lattices:
        ok_subsets, _ = _whitman_over_subsets(L)
        assert ok_subsets == check_whitman(L).ok
        # reducing arbitrary subsets to their extremal antichains preserves
        # the meet, the join and each clause
        els = list(L.elements)
        for _ in range(200):
            S = rng.sample(els, rng.randint(1, len(els)))
            T = rng.sample(els, rng.randint(1, len(els)))
            s_min = [a for a in S if not any(b != a and L.leq(b, a) for b in S)]
            t_max = [a for a in T if not any(b != a and L.leq(a, b) for b in T)]
            assert L.meet_set(S) == L.meet_set(s_min)
            assert L.join_set(T) == L.join_set(t_max)


def _dean_over_subsets(L, P):
    els = L.elements
    subsets = [
        list(c) for r in range(1, len(els) + 1) for c in itertools.combinations(els, r)
    ]
    for S in subsets:
        m = L.meet_set(S)
        for T in subsets:
            j = L.join_set(T)
            if not L.leq(m, j):
                continue
            if any(L.leq(s, j) for s in S) or any(L.leq(m, t) for t in T):
                continue
            if any(L.leq(m, p) and L.leq(p, j) for p in P):
                continue
            return False
    return True


def test_dean_matches_subset_oracle(m3, square, n5):
    rng = random.Random(13)
    lattices = [m3, square, n5] + [
        random_lattice(rng, ground=4, min_size=3, max_size=8) for _ in range(5)
    ]
    for L in lattices:
        for P in (L.elements, minimal_generating_set(L)):
            assert check_dean(L, P).ok == _dean_over_subsets(L, P)


def test_minimal_join_covers_above_20_elements():
    rng = random.Random(2)
    for _ in range(3):
        L = random_lattice(rng, ground=5, min_size=21, max_size=28)
        for X in (L, L.dual()):
            ji = join_irreducibles(X)
            expected = join_covers_oracle(X, ji)
            for p in ji:
                assert list(minimal_join_covers(X, p)) == expected[p]


# --- evaluation ---


def test_evaluate_term(m3):
    assert evaluate_term(m3, {"x": "a"}, parse("x")) == "a"
    assert evaluate_term(m3, {"x": "a", "y": "b"}, parse("(x & y)")) == "0"
    assert evaluate_term(m3, {"x": "a", "y": "b"}, parse("(x | y)")) == "1"
    with pytest.raises(UnassignedGenerator):
        evaluate_term(m3, {"x": "a"}, parse("(x & y)"))


# --- serialisation ---


def test_json_roundtrip(m3):
    data = json.loads(json.dumps(m3.to_dict()))
    assert FiniteLattice.from_dict(data) == m3


def test_dot_export(square):
    dot = square.to_dot()
    assert dot.startswith("digraph")
    assert '"0" -> "a";' in dot
    assert "rank=same" in dot


def test_covers_match_brute_force(m3, n5, fig_lattice):
    for L in (m3, n5, fig_lattice):
        assert sorted(L.poset.covers) == sorted(
            covers_from_leq(L.elements, L.leq)
        )
