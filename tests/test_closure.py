"""The shared closure worklist against a naive "repeat until no change"
closure, the mask closure engine against the table closures it replaced,
and the graph-closure hom extension against an element-by-element check of
meet and join preservation."""

import itertools
import random

import pytest

from latkit.errors import CapExceeded, NotAHomomorphism
from latkit.homs import Hom, sublattice_closure
from latkit.order import (
    closure,
    evaluate_term,
    generated_sublattice,
    minimal_generating_set,
    product_closure,
)
from latkit.terms import gen, join_of, meet_of

from helpers import product_closure_oracle, random_big_lattice, random_lattice


def naive_closure(seed, ops):
    """Apply every operation to every ordered pair until nothing is new."""
    s = set(seed)
    while True:
        new = {op(a, b) for a in s for b in s for op in ops} - s
        if not new:
            return s
        s |= new


def test_generated_sublattice_matches_naive():
    rng = random.Random(41)
    for _ in range(60):
        L = random_lattice(rng, ground=5, min_size=3, max_size=14)
        seed = rng.sample(L.elements, rng.randint(1, 3))
        want = naive_closure(seed, (L.meet, L.join))
        assert generated_sublattice(L, seed) == want
        ops = lambda a, b: (L.meet(a, b), L.join(a, b))
        assert closure(seed, ops, cap=len(want)) == want
        with pytest.raises(CapExceeded):
            closure(seed, ops, cap=len(want) - 1)


def test_sublattice_closure_matches_naive():
    rng = random.Random(43)
    for _ in range(40):
        A = random_lattice(rng, ground=4, min_size=3, max_size=8)
        B = random_lattice(rng, ground=4, min_size=3, max_size=8)
        seed = [(rng.choice(A.elements), rng.choice(B.elements)) for _ in range(3)]
        want = naive_closure(
            seed,
            (
                lambda p, q: (A.meet(p[0], q[0]), B.meet(p[1], q[1])),
                lambda p, q: (A.join(p[0], q[0]), B.join(p[1], q[1])),
            ),
        )
        assert sublattice_closure(A, B, seed, cap=len(want)).pairs == want
        with pytest.raises(CapExceeded):
            sublattice_closure(A, B, seed, cap=len(want) - 1)


def _check_against_oracle(lats, seed, meets, joins):
    want = product_closure_oracle(lats, seed, meets=meets, joins=joins)
    got = product_closure(lats, seed, meets=meets, joins=joins)
    assert got == want
    if not seed:
        assert got == set()
        return
    assert product_closure(lats, seed, len(want), meets=meets, joins=joins) == want
    with pytest.raises(CapExceeded, match="pair closure exceeded cap") as exc:
        product_closure(lats, seed, len(want) - 1, "pair closure", meets, joins)
    assert exc.value.cap == len(want) - 1


@pytest.mark.parametrize("meets, joins", [(True, True), (True, False), (False, True)])
def test_product_closure_matches_table_oracle(meets, joins):
    rng = random.Random(53)
    for _ in range(80):
        lats = [
            random_lattice(rng, ground=4, min_size=2, max_size=10)
            for _ in range(rng.randint(1, 2))
        ]
        seed = [
            tuple(rng.randrange(len(L)) for L in lats) for _ in range(rng.randint(0, 4))
        ]
        _check_against_oracle(lats, seed, meets, joins)
    for _ in range(30):
        lats = [random_lattice(rng, ground=3, min_size=2, max_size=6) for _ in range(3)]
        seed = [tuple(rng.randrange(len(L)) for L in lats) for _ in range(rng.randint(2, 4))]
        _check_against_oracle(lats, seed, meets, joins)
    # seeds that are closed already, the whole product among them, and
    # single members, on one, two and three factors
    for n_factors in (1, 2, 3):
        for _ in range(8):
            lats = [random_lattice(rng, ground=3, min_size=2, max_size=6)
                    for _ in range(n_factors)]
            every = list(itertools.product(*(range(len(L)) for L in lats)))
            seed = rng.sample(every, min(len(every), 3))
            closed = sorted(product_closure_oracle(lats, seed, meets=meets, joins=joins))
            for s in (every, closed, closed[::-1], [rng.choice(every)]):
                _check_against_oracle(lats, s, meets, joins)


def test_product_closure_on_codes_wider_than_a_machine_word():
    rng = random.Random(59)
    for _ in range(4):
        lats = [random_big_lattice(rng, 7, 40, 60) for _ in range(2)]
        seed = [tuple(rng.randrange(len(L)) for L in lats) for _ in range(rng.randint(2, 4))]
        for meets, joins in [(True, True), (True, False), (False, True)]:
            _check_against_oracle(lats, seed, meets, joins)


def naive_is_hom(A, D, images) -> bool:
    """Name each source element by a term over the generators, map it to
    that term's value in ``D`` and check every meet and join.  A hom
    extending ``images`` exists exactly when this map is one."""
    terms = {g: gen(g) for g in A.generators}
    while len(terms) < len(A):
        for a, s in list(terms.items()):
            for b, t in list(terms.items()):
                terms.setdefault(A.meet(a, b), meet_of([s, t]))
                terms.setdefault(A.join(a, b), join_of([s, t]))
    f = {a: evaluate_term(D, images, t) for a, t in terms.items()}
    return all(
        f[A.meet(a, b)] == D.meet(f[a], f[b]) and f[A.join(a, b)] == D.join(f[a], f[b])
        for a in A.elements
        for b in A.elements
    )


def test_hom_extension_matches_elementwise_check():
    rng = random.Random(47)
    verdicts = set()
    for _ in range(150):
        A = random_lattice(rng, ground=4, min_size=3, max_size=10)
        A = A.with_generators(minimal_generating_set(A))
        D = random_lattice(rng, ground=3, min_size=2, max_size=5)
        images = {g: rng.choice(D.elements) for g in A.generators}
        expected = naive_is_hom(A, D, images)
        verdicts.add(expected)
        if expected:
            g = Hom(A, D, images)
            for a in A.elements:
                for b in A.elements:
                    assert g.apply(A.meet(a, b)) == D.meet(g.apply(a), g.apply(b))
                    assert g.apply(A.join(a, b)) == D.join(g.apply(a), g.apply(b))
        else:
            with pytest.raises(NotAHomomorphism, match="conflicting images"):
                Hom(A, D, images)
    assert verdicts == {True, False}


def test_closure_stops_at_the_member_over_the_cap():
    calls = []

    def products(a, b):
        calls.append((a, b))
        return (max(a, b) + 1,)

    # the first pair with 9, (9, 0), adds 10, the eleventh member; the other
    # eight pairs with 9 are not tried
    with pytest.raises(CapExceeded):
        closure(range(10), products, cap=10)
    assert len(calls) == sum(range(1, 10)) + 1 and calls[-1] == (9, 0)
    calls.clear()
    with pytest.raises(CapExceeded):
        closure(range(10), products, cap=9)
    assert calls == []
