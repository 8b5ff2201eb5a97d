"""Word problem and canonical forms in the free lattice on a finite set.

``leq_free`` decides order between terms on the explicit-stack Whitman
split machine shared with :mod:`latkit.partial_lattice`: joins on the left
and meets on the right decompose conjunctively, a meet against a join splits
disjunctively, and generators are join and meet prime.  Only split pairs are
memoised, in ``_LEQ``, shared by every context: order between two terms does
not depend on the ambient generating set.

``canonical_form`` computes the shortest equivalent term, children first,
on :func:`latkit.terms.fold` with ``_CANON`` as the memo; like
``alternation_rank``, it does not recurse on term depth.  By the canonical
form theorem (Freese, Ježek, Nation, *Free Lattices*, ch. 1) a join is
canonical iff its children are canonical, flattened and pairwise
incomparable, and no meetand of a meet child lies below the whole join
(dually for meets).  So each node is canonicalised by the antichain test
alone: meet children are lowered to a meetand below the join, the maximal
children are kept, and the two steps repeat until neither changes anything.
The form is unique per lattice element, so structural equality of
canonical forms coincides with ``eq_free``.

``stage_elements`` closes each stage on bitmasks over the subterms of the
previous one: by Whitman's condition (W) and the primeness of generators
the mask of a join (meet) follows from the masks of its parts, so a term is
built and canonicalised once per new element, not once per pair product.

All values are immutable; the module-level memo tables only ever gain
entries whose values never change, so concurrent readers are safe under the
interpreter lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .errors import CapExceeded, InvalidValue, UnknownGenerator
from .terms import (
    Gen,
    Join,
    Meet,
    Term,
    fold,
    gen,
    generators,
    join_of,
    meet_of,
    sort_key,
    term_size,
)

__all__ = [
    "FreeLattice",
    "StageIndex",
    "leq_free",
    "eq_free",
    "canonical_form",
    "alternation_rank",
    "stage_elements",
    "in_stage",
]


class FreeLattice:
    """Context object naming the generators of a free lattice."""

    __slots__ = ("names", "_name_set", "_top", "_bottom")

    def __init__(self, names: Iterable[str]):
        items = tuple(sorted(names))
        if not items:
            raise InvalidValue("a free lattice needs at least one generator")
        if len(set(items)) != len(items):
            raise InvalidValue("generator names must be distinct")
        for n in items:
            gen(n)  # validates the name
        self.names = items
        self._name_set = frozenset(items)
        self._top: Term | None = None
        self._bottom: Term | None = None

    @property
    def generator_terms(self) -> tuple[Gen, ...]:
        return tuple(gen(n) for n in self.names)

    @property
    def top_term(self) -> Term:
        """The join of all generators (the empty meet by convention), built
        on first use and kept: many contexts never ask for it."""
        if self._top is None:
            self._top = join_of(self.generator_terms)
        return self._top

    @property
    def bottom_term(self) -> Term:
        """The meet of all generators (the empty join by convention), built
        on first use and kept."""
        if self._bottom is None:
            self._bottom = meet_of(self.generator_terms)
        return self._bottom

    def check_term(self, t: Term) -> None:
        extra = generators(t) - self._name_set
        if extra:
            raise UnknownGenerator(f"unknown generators: {sorted(extra)}")

    def __repr__(self) -> str:
        return f"FreeLattice({', '.join(self.names)})"


_LEQ: dict[tuple[Term, Term], bool] = {}


def _settle(s: Term, t: Term) -> bool | None:
    """Answer ``s <= t`` without splitting (identity, two generators, or a
    split pair already in ``_LEQ``), or ``None`` when a split is needed."""
    if type(s) is Gen and type(t) is Gen:
        return s.name == t.name
    return True if s is t else _LEQ.get((s, t))


def _leq(s: Term, t: Term) -> bool:
    return _whitman(s, t, _settle, _LEQ)


def _whitman(s: Term, t: Term, settle, cache: dict) -> bool:
    """Decide ``s <= t`` by the Whitman splits on an explicit stack, asking
    ``settle`` first for every pair.  A frame is conjunctive (a join on the
    left or a meet on the right: every part must hold) or disjunctive
    (some part must hold); its first deciding part ends it, and exhausting
    its parts gives ``conj``.  Split pairs are memoised in ``cache``.
    ``_split`` takes generators to be join and meet prime, so where they are
    not (a finitely presented lattice) ``settle`` must answer every pair
    with a generator on one side."""
    found = settle(s, t)
    if found is not None:
        return found
    stack = [_split(s, t)]
    found = None  # the answer of the frame last popped, for its parent
    while True:
        key, conj, parts = stack[-1]
        if found is None or found is conj:
            found = conj
            for a, b in parts:
                r = settle(a, b)
                if r is None:
                    stack.append(_split(a, b))
                    found = None
                    break
                if r is not conj:
                    found = r
                    break
            if found is None:
                continue
        stack.pop()
        cache[key] = found
        if not stack:
            return found


def _split(s: Term, t: Term):
    """The stack frame of a pair that ``settle`` left open: its key, whether
    it is conjunctive, and its parts; a (prime) generator contributes none."""
    if type(s) is Join:
        return (s, t), True, ((c, t) for c in s.children)
    if type(t) is Meet:
        return (s, t), True, ((s, c) for c in t.children)
    return (s, t), False, chain(((c, t) for c in s.children), ((s, c) for c in t.children))


def leq_free(ctx: FreeLattice, s: Term, t: Term) -> bool:
    """Decide ``s <= t`` in the free lattice on ``ctx``."""
    ctx.check_term(s)
    ctx.check_term(t)
    return _leq(s, t)


def eq_free(ctx: FreeLattice, s: Term, t: Term) -> bool:
    """Two-sided :func:`leq_free`."""
    return leq_free(ctx, s, t) and _leq(t, s)


_CANON: dict[Term, Term] = {}


def _canon(t: Term) -> Term:
    hit = _CANON.get(t)
    return hit if hit is not None else fold(t, _canon_step, _CANON)


def _canon_step(t: Term, kids: list[Term]) -> Term:
    """The canonical form of ``t`` from those of its children; ``fold``
    stores it in ``_CANON`` under ``t``, and a canonical form is its own."""
    res = t if type(t) is Gen else _canon_node(kids, type(t))
    _CANON[res] = res
    return res


def _canon_node(kids: list[Term], own: type) -> Term:
    # The antichain test of FJN ch. 1, for a join node (own=Join) of
    # canonical children: replace each meet child by a meetand below the
    # whole join, keep the maximal children, and repeat until neither step
    # changes anything.  Every step keeps the element, so the first join
    # term serves every meetand test; children are canonical terms, so
    # distinct ones are distinct elements.  Dual for meets.
    if own is Join:
        combine, other, below = join_of, Meet, _leq
    else:
        combine, other, below = meet_of, Join, lambda a, b: _leq(b, a)
    t = whole = combine(kids)
    while isinstance(t, own):  # else collapsed to one child, already canonical
        kids = t.children
        lifted = tuple(
            next((u for u in k.children if below(u, whole)), k) if type(k) is other else k
            for k in kids
        )
        if lifted != kids:
            t = combine(lifted)
            continue
        top = [k for k in kids if not any(k is not j and below(k, j) for j in kids)]
        if len(top) == len(kids):
            return t
        t = combine(top)
    return t


def canonical_form(ctx: FreeLattice, t: Term) -> Term:
    """The canonical (shortest) form of ``t``; unique per lattice element."""
    ctx.check_term(t)
    return _canon(t)


@dataclass(frozen=True, order=False)
class StageIndex:
    """Position in the alternation chain of stage sets: generators sit at
    ``(0, G)``, their meet closure at ``(0, H)``, the following join closure
    at ``(1, G)``, and so on."""

    k: int
    kind: str  # "G" or "H"

    def __post_init__(self):
        if self.kind not in ("G", "H"):
            raise ValueError("kind must be 'G' or 'H'")
        if self.k < 0:
            raise ValueError("stage number must be non-negative")

    @property
    def position(self) -> int:
        return 2 * self.k + (1 if self.kind == "H" else 0)

    def __le__(self, other: "StageIndex") -> bool:
        return self.position <= other.position

    def __repr__(self) -> str:
        return f"StageIndex({self.k}, {self.kind})"


def alternation_rank(ctx: FreeLattice, t: Term) -> StageIndex:
    """Least stage containing ``t``, computed structurally on the canonical
    form: generators are at ``(0, G)``, a meet of stage-``G_k`` terms is at
    ``(k, H)`` and a join of stage-``H_k`` terms is at ``(k+1, G)``."""
    ctx.check_term(t)
    return fold(_canon(t), _rank)


def _rank(t: Term, ranks: list[StageIndex]) -> StageIndex:
    """The rank of ``t`` from those of its children, a :func:`fold` node."""
    if type(t) is Meet:
        # a child at (j, G) is in G_j, one at (j, H) enters G only at j + 1
        return StageIndex(max(r.k if r.kind == "G" else r.k + 1 for r in ranks), "H")
    if type(t) is Join:
        return StageIndex(max(r.k for r in ranks) + 1, "G")  # any (j, *) is in H_j
    return StageIndex(0, "G")


def in_stage(ctx: FreeLattice, t: Term, idx: StageIndex) -> bool:
    """Membership of ``t`` in the stage *set*, honouring the empty-meet and
    empty-join conventions: the join of all generators belongs to every meet
    closure and the meet of all generators to every join closure."""
    t = canonical_form(ctx, t)
    if fold(t, _rank) <= idx:
        return True
    if idx.kind == "H":
        return t is _canon(ctx.top_term)
    return idx.k >= 1 and t is _canon(ctx.bottom_term)


def stage_elements(
    ctx: FreeLattice, idx: StageIndex, cap: int = 20000
) -> tuple[Term, ...]:
    """All elements of the requested stage set, as canonical terms sorted by
    size then structural order.  Raises :class:`CapExceeded` when the closure
    grows past ``cap`` elements.

    Each step closes a basis, the previous stage plus the adjoined empty
    meet (join), on masks.  For a join step the mask of an element ``J`` is
    the set of basis subterms below ``J``; the basis members in it join to
    ``J``, so equal masks mean equal elements.  A member's seed mask comes
    from order tests.  The mask of a join of members grows from the union
    of their seeds in one children-first pass: a join subterm is below
    ``J`` iff all its children are, and by (W) a meet subterm is iff one of
    its children is or it lies below a joinand of ``J`` (then it is in
    that member's seed); a generator, join prime, is below ``J`` only via a
    seed.  Meet steps are dual.  The pass is needed even at ``G_1``, since
    the adjoined bound is a compound term."""
    reps = [_canon(g) for g in ctx.generator_terms]
    for pos in range(idx.position):
        if pos % 2 == 0:  # G_k -> H_k, adjoin the empty meet
            reps = _close(reps, ctx.top_term, Meet, cap)
        else:  # H_k -> G_{k+1}, adjoin the empty join
            reps = _close(reps, ctx.bottom_term, Join, cap)
    return tuple(sorted(reps, key=lambda t: (term_size(t), sort_key(t))))


def _close(reps: list[Term], extra: Term, own: type, cap: int) -> list[Term]:
    """Canonical terms of the closure of ``reps`` and ``extra`` under joins
    (``own`` is Join) or meets, on masks as :func:`stage_elements`
    describes.  Subterms are numbered children-first, each class is
    extended by one basis member at a time, and a term is built only for a
    new mask.  The count, and so ``CapExceeded``, is that of the pairwise
    closure of the basis."""
    if own is Join:
        combine, below = join_of, _leq
    else:
        combine, below = meet_of, lambda a, b: _leq(b, a)
    basis = list(dict.fromkeys([*reps, _canon(extra)]))
    if len(basis) > cap:
        raise CapExceeded(cap, "stage enumeration")
    index: dict[Term, int] = {}
    for b in basis:
        fold(b, lambda u, _: len(index), index)
    rules = [
        (1 << i, sum(1 << index[c] for c in u.children), type(u) is own)
        for u, i in index.items()
        if u.children
    ]
    seeds = [sum(1 << i for u, i in index.items() if below(u, s)) for s in basis]
    found = dict(zip(seeds, basis))
    todo = list(found.items())
    for m, t in todo:  # grows while it is walked
        for seed, s in zip(seeds, basis):
            if seed & ~m:
                n = _sat(m | seed, rules)
                if n not in found:
                    found[n] = j = _canon(combine([t, s]))
                    todo.append((n, j))
                    if len(found) > cap:
                        raise CapExceeded(cap, "stage enumeration")
    return list(found.values())


def _sat(m: int, rules) -> int:
    """Close the mask ``m`` children-first.  ``rules`` lists each compound
    subterm's bit and child mask, and whether all children must be in (a
    join in a join step) or one suffices; a generator never enters."""
    for bit, kids, conj in rules:
        if not m & bit and ((m & kids) == kids if conj else m & kids):
            m |= bit
    return m
