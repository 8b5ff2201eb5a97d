import pytest
from hypothesis import given, strategies as st

from latkit.errors import TermSyntaxError
from latkit.terms import (
    Gen,
    Meet,
    _compare,
    depth,
    fold,
    gen,
    generators,
    join_of,
    meet_of,
    parse,
    sort_key,
    subterms,
    term_size,
    term_to_text,
)


def test_parse_generator():
    assert parse("x") is gen("x")


def test_parse_nested():
    t = parse("(x & (y | z))")
    assert isinstance(t, Meet)
    assert t.children == (gen("x"), join_of([gen("y"), gen("z")]))


def test_parse_flattens_nested_meets():
    assert parse("((x & y) & z)") is meet_of([gen("x"), gen("y"), gen("z")])


def test_parse_unicode_names():
    t = parse("(α & β2)")
    assert generators(t) == {"α", "β2"}


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("(x)", 2),
        ("(x & y | z)", 7),
        ("(x &", 4),
        ("x y", 2),
        (")", 0),
        ("(& x)", 1),
    ],
)
def test_syntax_errors_carry_position(text, pos):
    with pytest.raises(TermSyntaxError) as err:
        parse(text)
    assert err.value.position == pos


def test_duplicate_children_dropped():
    assert parse("(x | x)") is gen("x")
    assert parse("(x & y & x)") is meet_of([gen("x"), gen("y")])


def test_children_sorted():
    assert parse("(y | x)") is parse("(x | y)")
    assert term_to_text(parse("(y | x)")) == "(x | y)"


def test_reserved_generator_names_rejected():
    with pytest.raises(ValueError):
        gen("a&b")
    with pytest.raises(ValueError):
        gen("a b")
    with pytest.raises(ValueError):
        gen("")


def test_print_examples():
    assert term_to_text(parse("( x &( y|z ) )")) == "(x & (y | z))"


def test_subterms():
    t = parse("((x & y) | z)")
    assert subterms(t) == {
        gen("x"),
        gen("y"),
        gen("z"),
        meet_of([gen("x"), gen("y")]),
        t,
    }
    assert subterms(gen("x")) == {gen("x")}


def test_depth():
    assert depth(gen("x")) == 0
    assert depth(parse("((x & y) | z)")) == 2
    assert depth(parse("(x & y)")) == 1


def test_term_size():
    assert term_size(gen("x")) == 1
    assert term_size(parse("((x & y) | z)")) == 5


names = st.sampled_from(["x", "y", "z", "w"])


def term_strategy(max_depth=4):
    return st.recursive(
        names.map(gen),
        lambda children: st.lists(children, min_size=2, max_size=3).map(meet_of)
        | st.lists(children, min_size=2, max_size=3).map(join_of),
        max_leaves=12,
    )


@given(term_strategy())
def test_roundtrip_parse_print(t):
    assert parse(term_to_text(t)) is t


@given(term_strategy(), term_strategy())
def test_structural_order_total(s, t):
    ks, kt = sort_key(s), sort_key(t)
    assert (ks < kt) + (ks == kt) + (kt < ks) == 1
    assert (ks == kt) == (s is t)


@given(term_strategy(), term_strategy(), term_strategy())
def test_structural_order_transitive(a, b, c):
    if sort_key(a) < sort_key(b) and sort_key(b) < sort_key(c):
        assert sort_key(a) < sort_key(c)


@given(term_strategy())
def test_shape_canonical_invariants(t):
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Gen):
            continue
        assert len(u.children) >= 2
        kinds = [type(c) for c in u.children]
        assert type(u) not in kinds  # flattened
        keys = [sort_key(c) for c in u.children]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)  # deduplicated
        stack.extend(u.children)


def _is_name(name):
    return bool(name) and not any(c in "&|()" or c.isspace() for c in name)


any_names = st.text(min_size=1, max_size=4).filter(_is_name)


@given(st.recursive(
    any_names.map(gen),
    lambda children: st.lists(children, min_size=1, max_size=3).map(meet_of)
    | st.lists(children, min_size=1, max_size=3).map(join_of),
    max_leaves=16,
))
def test_roundtrip_with_arbitrary_names(t):
    assert parse(term_to_text(t)) is t


@given(st.text(alphabet="xy()&| ") | st.text())
def test_arbitrary_text_parses_or_raises_syntax_error(text):
    try:
        t = parse(text)
    except TermSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse(term_to_text(t)) is t


def test_fold_visits_each_distinct_subterm_once():
    shared = parse("(x | y)")
    t = join_of([meet_of([shared, gen("z")]), meet_of([shared, gen("w")])])
    seen = []
    assert fold(t, lambda u, sizes: seen.append(u) or 1 + sum(sizes)) == term_size(t) == 11
    assert len(seen) == 8 and set(seen) == subterms(t)
    memo = {shared: 0}
    assert fold(t, lambda u, values: sum(values) + (type(u) is Gen), memo) == 2
    assert gen("x") not in memo


@given(term_strategy(), term_strategy())
def test_explicit_stack_compare_matches_key_order(s, t):
    ks, kt = sort_key(s), sort_key(t)
    assert _compare(s, t) == (ks > kt) - (ks < kt)
    assert (s < t) is (ks < kt)


def test_deep_terms_that_differ_deep_down_combine_and_compare(default_recursion_limit):
    def chain(leaf):
        for i in range(3000):
            g = gen("xyz"[i % 3])
            leaf = meet_of([g, leaf]) if i % 2 else join_of([g, leaf])
        return leaf

    s, t = chain(gen("w")), chain(gen("v"))
    u = join_of([t, s])
    assert u.children == (t, s) and t < s and not s < t
    assert parse(term_to_text(u)) is u
