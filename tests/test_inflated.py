import itertools

import pytest

from latkit import inflated as inf
from latkit.errors import CapExceeded, NotALattice
from latkit.order import check_whitman, is_lower_bounded_finite, join_irreducibles

from helpers import inflated_join_oracle, inflated_meet_oracle


def test_base_lattice_shape(fig_lattice):
    assert len(fig_lattice) == 16
    # every atom sits below exactly three coatoms and vice versa
    for i in range(1, 8):
        above = [k for k in range(1, 8) if fig_lattice.leq(f"a{i}", f"b{k}")]
        assert len(above) == 3
        below = [j for j in range(1, 8) if fig_lattice.leq(f"a{j}", f"b{i}")]
        assert len(below) == 3
    assert fig_lattice.leq("a1", "b2")
    assert not fig_lattice.leq("a1", "b3")


def test_point_validation():
    with pytest.raises(ValueError):
        inf.Point("a", 0, 0)
    with pytest.raises(ValueError):
        inf.Point("0", 1, 0)
    with pytest.raises(ValueError):
        inf.Point("x")


def test_order_examples():
    assert inf.leq(inf.a_el(1, 0), inf.b_el(1, 1))
    assert inf.leq(inf.a_el(1, 2), inf.b_el(1, 1))  # one step down, height >= 1
    assert not inf.leq(inf.a_el(1, 1), inf.b_el(1, 0))  # not at the chain bottom
    assert not inf.leq(inf.a_el(1, 1), inf.b_el(2, 0))
    assert inf.leq(inf.a_el(1, 1), inf.b_el(2, 1))
    assert not inf.leq(inf.b_el(1, 0), inf.a_el(1, 5))
    assert inf.leq(inf.BOTTOM, inf.b_el(3, 0))
    assert inf.leq(inf.a_el(4, 9), inf.TOP)


def test_partial_order_axioms_exhaustive():
    els = inf.elements_up_to(8)
    for u in els:
        assert inf.leq(u, u)
    for u, v in itertools.combinations(els, 2):
        assert not (inf.leq(u, v) and inf.leq(v, u))
    for u in els:
        ups = [v for v in els if inf.leq(u, v)]
        for v in ups:
            for w in els:
                if inf.leq(v, w):
                    assert inf.leq(u, w)


def test_join_meet_identities_all_spokes():
    for i in range(1, 8):
        prev = ((i - 2) % 7) + 1
        plus3 = ((i + 2) % 7) + 1
        for j in range(9):
            assert inf.join(inf.a_el(prev, j), inf.a_el(i, j)) == inf.b_el(i, j)
            assert inf.meet(inf.b_el(i, j + 1), inf.b_el(plus3, j + 1)) == inf.a_el(
                i, j + 2
            )


def test_join_with_bottom_and_top():
    u = inf.a_el(3, 4)
    assert inf.join(u, inf.BOTTOM) == u
    assert inf.meet(u, inf.TOP) == u
    assert inf.join(u, inf.TOP) == inf.TOP


def test_operations_are_bounds_within_truncation():
    els4 = inf.elements_up_to(4)
    universe = inf.elements_up_to(10)
    for u, v in itertools.combinations(els4, 2):
        j = inf.join(u, v)
        assert inf.leq(u, j) and inf.leq(v, j)
        m = inf.meet(u, v)
        assert inf.leq(m, u) and inf.leq(m, v)
        for w in universe:
            if inf.leq(u, w) and inf.leq(v, w):
                assert inf.leq(j, w)
            if inf.leq(w, u) and inf.leq(w, v):
                assert inf.leq(w, m)


def test_non_unique_bounds_raise_not_a_lattice(monkeypatch):
    # a broken order with two minimal upper (maximal lower) bounds must be
    # reported as a missing join (meet) by the candidate-search oracle
    u, v = inf.a_el(1, 0), inf.a_el(2, 0)
    w1, w2 = inf.b_el(1, 0), inf.b_el(2, 0)
    monkeypatch.setattr(inf, "leq", lambda x, y: x == y or (x in (u, v) and y in (w1, w2)))
    with pytest.raises(NotALattice) as err:
        inflated_join_oracle(u, v)
    assert (err.value.pair, err.value.which) == ((str(u), str(v)), "join")
    monkeypatch.setattr(inf, "leq", lambda x, y: x == y or (x in (w1, w2) and y in (u, v)))
    with pytest.raises(NotALattice) as err:
        inflated_meet_oracle(u, v)
    assert (err.value.pair, err.value.which) == ((str(u), str(v)), "meet")
    monkeypatch.undo()
    assert inflated_join_oracle(u, v) == inf.join(u, v)
    assert inflated_meet_oracle(u, v) == inf.meet(u, v)


def test_closed_forms_match_candidate_search():
    els = inf.elements_up_to(6)
    for u in els:
        for v in els:
            assert inf.join(u, v) == inflated_join_oracle(u, v), (u, v)
            assert inf.meet(u, v) == inflated_meet_oracle(u, v), (u, v)


def test_collapse_examples():
    assert inf.collapse(inf.a_el(3, 5)) == "a3"
    assert inf.collapse(inf.BOTTOM) == "0"
    assert inf.collapse(inf.TOP) == "1"


def test_collapse_is_a_homomorphism_on_truncation(fig_lattice):
    els = inf.elements_up_to(5)
    L = fig_lattice
    for u in els:
        for v in els:
            assert L.leq(inf.collapse(u), inf.collapse(v)) or not inf.leq(u, v)
            assert inf.collapse(inf.join(u, v)) == L.join(
                inf.collapse(u), inf.collapse(v)
            )
            assert inf.collapse(inf.meet(u, v)) == L.meet(
                inf.collapse(u), inf.collapse(v)
            )


def test_height_zero_restriction_is_the_base(fig_lattice):
    els = [inf.BOTTOM, inf.TOP] + [inf.a_el(i, 0) for i in range(1, 8)] + [
        inf.b_el(i, 0) for i in range(1, 8)
    ]
    for u in els:
        for v in els:
            assert inf.leq(u, v) == fig_lattice.leq(inf.collapse(u), inf.collapse(v))


def test_generators_do_not_suffice_without_closure():
    gens = set(inf.inflation_generators())
    assert inf.b_el(1, 0) not in gens
    assert len(gens) == 14


def test_finitely_generated_truncations():
    assert inf.check_finitely_generated(2)
    assert inf.check_finitely_generated(6)


def test_truncated_closures_keep_their_sizes():
    # at depth 2 the generators close to 72 elements and the kernel
    # generators to 352 pairs: a cap at that size passes, one below raises
    for check, size in ((inf.check_finitely_generated, 72),
                        (inf.check_kernel_finitely_generated, 352)):
        assert check(2, cap=size)
        with pytest.raises(CapExceeded):
            check(2, cap=size - 1)


def test_kernel_generators_count():
    assert len(inf.kernel_generators()) == 21


def test_kernel_truncations():
    assert inf.check_kernel_finitely_generated(3)


def test_kernel_membership_of_decomposed_pair():
    # the split through height zero reassembles arbitrary chain pairs
    a = inf.a_el(1, 3)
    b = inf.a_el(1, 5)
    lo = inf.a_el(1, 0)
    assert inf.join(lo, b) == b and inf.join(a, lo) == a
    assert (
        inf.join(lo, b),
        inf.join(a, lo),
    ) == (b, a)


def test_classes_unbounded():
    assert inf.check_collapse_unbounded(10)


def test_collapse_unbounded_rejects_negative_heights():
    assert inf.check_collapse_unbounded(0)
    with pytest.raises(ValueError):
        inf.check_collapse_unbounded(-3)


def test_base_lattice_is_not_lower_bounded(fig_lattice):
    assert not is_lower_bounded_finite(fig_lattice).ok
    assert not check_whitman(fig_lattice).ok
    assert join_irreducibles(fig_lattice) == tuple(f"a{i}" for i in range(1, 8))
