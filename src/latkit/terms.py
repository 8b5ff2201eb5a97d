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
state is the shape plus the lazily filled sort key ``_key``; sizes are
memoised in ``_SIZES``.  Bottom-up computations run on :func:`fold`, an
explicit-stack post-order walk; neither they nor :func:`parse` recurse on
term depth, and the constructors and ``<`` compare deep keys on a stack.

Grammar for the wire format::

    t ::= IDENT | "(" t ("&" t)+ ")" | "(" t ("|" t)+ ")"

``&`` is meet, ``|`` is join, both n-ary.  ``&``, ``|``, ``(``, ``)`` and
whitespace are reserved; any other character may appear in a generator
name.
"""

from __future__ import annotations

import re
from functools import cmp_to_key
from typing import Iterable

from .errors import InvalidValue, TermSyntaxError

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
    "fold",
    "term_size",
    "depth",
    "subterms",
    "parse",
    "term_to_text",
]

_RESERVED = frozenset("&|()")
_TOKEN = re.compile(r"[&|()]|[^\s&|()]+")  # a reserved character or a name


class Term:
    """Base class of :class:`Gen`, :class:`Meet` and :class:`Join`."""

    __slots__ = ("_key",)

    def __lt__(self, other: "Term") -> bool:
        # Structural order, not the lattice order.
        return _compare(self, other) < 0

    def __repr__(self) -> str:
        return f"<term {term_to_text(self)}>"


class Gen(Term):
    __slots__ = ("name",)
    children: tuple[Term, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self._key = None


class _Compound(Term):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Term, ...]):
        self.children = children
        self._key = None


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
            raise InvalidValue("generator name must be non-empty")
        if name in _RESERVED or not _TOKEN.fullmatch(name):
            raise InvalidValue(f"generator name {name!r} uses reserved characters")
        t = _GEN_CACHE[name] = Gen(name)
    return t


def sort_key(t: Term):
    """Total structural order: generators by name, then meets, then joins;
    compounds compare lexicographically on their child key lists."""
    k = t._key
    if k is None:
        if type(t) is Gen:
            k = (0, t.name)
        else:
            k = (1 if type(t) is Meet else 2, tuple(sort_key(c) for c in t.children))
        t._key = k
    return k


def _compare(s: Term, t: Term) -> int:
    """-1, 0 or 1 as ``sort_key(s)`` is below, equal to or above
    ``sort_key(t)``, compared on an explicit stack: tuple comparison recurses
    once per level, so it fails on deep terms that differ only deep down."""
    stack = [(sort_key(s), sort_key(t))]
    while stack:
        a, b = stack.pop()
        if type(a) is tuple and type(b) is tuple and a is not b:
            stack.append((len(a), len(b)))  # a proper prefix comes first
            stack.extend(reversed(list(zip(a, b))))
        elif a != b:
            return -1 if a < b else 1
    return 0


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
    try:
        flat.sort(key=sort_key)
    except RecursionError:  # keys nest as deep as the terms
        flat.sort(key=cmp_to_key(_compare))
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


def fold(t: Term, node, memo=None):
    """The value ``node(t, values)``, where ``values`` are those of the
    children of ``t`` in order (none for a generator).  An explicit-stack
    post-order walk computes the value of each distinct subterm missing from
    ``memo`` (a fresh dict by default) once and stores it there."""
    memo = {} if memo is None else memo
    if t not in memo:
        stack = [(t, iter(t.children))]
        while stack:
            u, pending = stack[-1]
            for c in pending:
                if c not in memo:
                    if c.children:
                        stack.append((c, iter(c.children)))
                        break
                    memo[c] = node(c, [])  # a leaf needs no stack frame
            else:
                stack.pop()
                memo[u] = node(u, list(map(memo.__getitem__, u.children)))
    return memo[t]


def generators(t: Term) -> frozenset[str]:
    """The set of generator names occurring in ``t``."""
    return frozenset(u.name for u in subterms(t) if type(u) is Gen)


_SIZES: dict[Term, int] = {}


def term_size(t: Term) -> int:
    """Total number of nodes in the term tree."""
    n = _SIZES.get(t)
    return n if n is not None else fold(t, lambda u, ns: 1 + sum(ns), _SIZES)


def depth(t: Term) -> int:
    """Longest generator-to-root path; generators have depth 0."""
    return fold(t, lambda u, ds: 1 + max(ds) if ds else 0)


def subterms(t: Term) -> frozenset[Term]:
    """All distinct subterms of ``t``, including ``t`` itself.  It needs no
    values, so it takes a plain stack, at half the cost of :func:`fold`."""
    out: set[Term] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(u.children)
    return frozenset(out)


def term_to_text(t: Term) -> str:
    """Render ``t`` in the wire grammar, inverse to :func:`parse`.  Tokens
    leave a stack in pre-order: a :func:`fold` would hold every subterm's text."""
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        u = stack.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is Gen:
            out.append(u.name)
        else:
            out.append("(")
            sep = " & " if type(u) is Meet else " | "
            stack.append(")")
            for c in u.children[:0:-1]:
                stack.append(c)
                stack.append(sep)
            stack.append(u.children[0])
    return "".join(out)


def _syntax_error(text: str, message: str, i: int) -> TermSyntaxError:
    """The error at token ``i`` of ``text``, or at its end past the last."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    return TermSyntaxError(message, starts[i])


def parse(text: str) -> Term:
    """Parse term text.  Raises :class:`TermSyntaxError` with the offending
    character position on bad input.  A shift-reduce loop: ``(`` opens a
    frame ``[operator, parts]``, and each finished term joins the innermost
    frame, which its ``)`` then finishes in turn."""
    toks = _TOKEN.findall(text)
    if not toks:
        raise TermSyntaxError("empty input", 0)
    toks.append("")  # end of input
    frames: list[list] = []
    i = 0
    while True:  # a term starts at toks[i]
        tok = toks[i]
        i += 1
        if tok == "(":
            frames.append([None, []])
            continue
        if not tok or tok in _RESERVED:
            raise _syntax_error(
                text, f"unexpected {tok!r}" if tok else "unexpected end of input", i - 1)
        t = gen(tok)
        while frames:
            op, parts = frame = frames[-1]
            parts.append(t)
            tok = toks[i]
            i += 1
            if op is None and (tok == "&" or tok == "|"):
                op = frame[0] = tok
            if tok == op:
                break  # another part follows
            if not tok:
                raise _syntax_error(
                    text, "unexpected end of input" if op is None else "missing ')'", i - 1)
            if op is None:
                raise _syntax_error(text, "expected '&' or '|'", i - 1)
            if tok != ")":
                raise _syntax_error(text, f"mixed operators; expected {op!r} or ')'", i - 1)
            frames.pop()
            t = meet_of(parts) if op == "&" else join_of(parts)
        else:
            if toks[i]:
                raise _syntax_error(text, "trailing input", i)
            return t
