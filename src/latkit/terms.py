"""Lattice terms over named generators.

A term is a generator, an n-ary meet, or an n-ary join.  The constructors
canonicalise the *shape*: nested meets (joins) are flattened into their
parent, children are sorted by the structural order and duplicates are
dropped.  A meet or join always has at least two children; collapsing to a
single child returns that child.  Shape canonicalisation is purely
syntactic.  Semantic simplification (removing joinands below the join of
the others, and so on) lives in :mod:`latkit.free`.

Terms are interned: structurally equal terms are the same object, so
equality and hashing are by identity and dictionaries keyed on term pairs
are fast.  Build terms only through :func:`gen`, :func:`meet_of` and
:func:`join_of`; a directly constructed node is not interned.  Per-node
state is the shape plus two memos, the sort key ``_key`` and size ``_size``.

Grammar for the wire format::

    t ::= IDENT | "(" t ("&" t)+ ")" | "(" t ("|" t)+ ")"

``&`` is meet, ``|`` is join, both n-ary.  ``&``, ``|``, ``(``, ``)`` and
whitespace are reserved; any other character may appear in a generator
name.
"""

from __future__ import annotations

from typing import Iterable

from .errors import TermSyntaxError

__all__ = [
    "Term",
    "Gen",
    "Meet",
    "Join",
    "gen",
    "meet_of",
    "join_of",
    "sort_key",
    "generators",
    "term_size",
    "depth",
    "subterms",
    "parse",
    "term_to_text",
]

_RESERVED = frozenset("&|()")


class Term:
    """Base class of :class:`Gen`, :class:`Meet` and :class:`Join`."""

    __slots__ = ("_key", "_size")

    def __lt__(self, other: "Term") -> bool:
        # Structural order, not the lattice order.
        return sort_key(self) < sort_key(other)

    def __repr__(self) -> str:
        return f"<term {term_to_text(self)}>"


class Gen(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._key = None
        self._size = 1


class _Compound(Term):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Term, ...]):
        self.children = children
        self._key = None
        self._size = None


class Meet(_Compound):
    __slots__ = ()


class Join(_Compound):
    __slots__ = ()


_GEN_CACHE: dict[str, Gen] = {}
_MEET_CACHE: dict[tuple[Term, ...], Meet] = {}
_JOIN_CACHE: dict[tuple[Term, ...], Join] = {}


def gen(name: str) -> Gen:
    """Return the interned generator term named ``name``."""
    t = _GEN_CACHE.get(name)
    if t is None:
        if not name:
            raise ValueError("generator name must be non-empty")
        bad = set(name) & _RESERVED
        if bad or any(c.isspace() for c in name):
            raise ValueError(f"generator name {name!r} uses reserved characters")
        t = _GEN_CACHE[name] = Gen(name)
    return t


def sort_key(t: Term):
    """Total structural order: generators by name, then meets, then joins;
    compounds compare lexicographically on their child key lists."""
    k = t._key
    if k is None:
        if isinstance(t, Gen):
            k = (0, t.name)
        elif isinstance(t, Meet):
            k = (1, tuple(sort_key(c) for c in t.children))
        else:
            k = (2, tuple(sort_key(c) for c in t.children))
        t._key = k
    return k


def _combine(children: Iterable[Term], flat_type: type, cache: dict, ctor) -> Term:
    flat: list[Term] = []
    for c in children:
        if not isinstance(c, Term):
            raise TypeError(f"not a term: {c!r}")
        if isinstance(c, flat_type):
            flat.extend(c.children)  # children of an interned term are already flat
        else:
            flat.append(c)
    if not flat:
        raise ValueError("meets and joins need at least one child")
    flat.sort(key=sort_key)
    kids: list[Term] = []
    for c in flat:
        if not kids or kids[-1] is not c:
            kids.append(c)
    if len(kids) == 1:
        return kids[0]
    key = tuple(kids)
    t = cache.get(key)
    if t is None:
        t = cache[key] = ctor(key)
    return t


def meet_of(children: Iterable[Term]) -> Term:
    """n-ary meet with shape canonicalisation (flatten, sort, deduplicate)."""
    return _combine(children, Meet, _MEET_CACHE, Meet)


def join_of(children: Iterable[Term]) -> Term:
    """n-ary join with shape canonicalisation."""
    return _combine(children, Join, _JOIN_CACHE, Join)


def _fill_slot(t: Term, slot: str, combine):
    """Fill ``slot`` bottom-up on ``t`` and every subterm still missing it:
    each gets ``combine`` of its children's values, children first, on an
    explicit stack so that deep terms cannot exhaust the call stack.
    Generators carry their value from construction."""
    stack = [(t, iter(t.children))]
    while stack:
        u, kids = stack[-1]
        for c in kids:
            if getattr(c, slot) is None:
                stack.append((c, iter(c.children)))
                break
        else:
            stack.pop()
            setattr(u, slot, combine([getattr(c, slot) for c in u.children]))
    return getattr(t, slot)


def generators(t: Term) -> frozenset[str]:
    """The set of generator names occurring in ``t``."""
    return frozenset(u.name for u in subterms(t) if isinstance(u, Gen))


def term_size(t: Term) -> int:
    """Total number of nodes in the term tree."""
    n = t._size
    return n if n is not None else _fill_slot(t, "_size", lambda ns: 1 + sum(ns))


def depth(t: Term) -> int:
    """Longest generator-to-root path; generators have depth 0."""
    if isinstance(t, Gen):
        return 0
    return 1 + max(depth(c) for c in t.children)


def subterms(t: Term) -> frozenset[Term]:
    """All distinct subterms of ``t``, including ``t`` itself."""
    out: set[Term] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            if not isinstance(u, Gen):
                stack.extend(u.children)
    return frozenset(out)


def term_to_text(t: Term) -> str:
    """Render ``t`` in the wire grammar.  Inverse of :func:`parse` on
    shape-canonical terms."""
    if isinstance(t, Gen):
        return t.name
    sep = " & " if isinstance(t, Meet) else " | "
    return "(" + sep.join(term_to_text(c) for c in t.children) + ")"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _RESERVED:
            toks.append((c, c, i))
            i += 1
            continue
        j = i
        while j < n and text[j] not in _RESERVED and not text[j].isspace():
            j += 1
        toks.append(("ident", text[i:j], i))
        i = j
    return toks


def parse(text: str) -> Term:
    """Parse term text.  Raises :class:`TermSyntaxError` with the offending
    character position on bad input."""
    toks = _tokenize(text)
    if not toks:
        raise TermSyntaxError("empty input", 0)
    t, i = _parse_term(toks, 0, text)
    if i != len(toks):
        raise TermSyntaxError("trailing input", toks[i][2])
    return t


def _parse_term(toks, i: int, text: str) -> tuple[Term, int]:
    if i >= len(toks):
        raise TermSyntaxError("unexpected end of input", len(text))
    kind, value, pos = toks[i]
    if kind == "ident":
        return gen(value), i + 1
    if kind != "(":
        raise TermSyntaxError(f"unexpected {value!r}", pos)
    first, i = _parse_term(toks, i + 1, text)
    if i >= len(toks):
        raise TermSyntaxError("unexpected end of input", len(text))
    op, _, op_pos = toks[i]
    if op not in ("&", "|"):
        raise TermSyntaxError("expected '&' or '|'", toks[i][2])
    parts = [first]
    while i < len(toks) and toks[i][0] == op:
        part, i = _parse_term(toks, i + 1, text)
        parts.append(part)
    if i >= len(toks):
        raise TermSyntaxError("missing ')'", len(text))
    if toks[i][0] != ")":
        raise TermSyntaxError(f"mixed operators; expected {op!r} or ')'", toks[i][2])
    combined = meet_of(parts) if op == "&" else join_of(parts)
    return combined, i + 1
