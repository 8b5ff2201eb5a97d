"""Finite partial lattices and the word problem for the lattice they
freely generate.

A partial lattice is a finite poset plus partial join/meet tables whose
defined values are genuine suprema/infima in the poset.  ``leq_fp`` decides
order between terms over the partial lattice by Dean's solution of the
word problem (R. A. Dean, Canad. J. Math. 16, 1964; Freese, Jezek and
Nation, *Free Lattices*, ch. 2).  Each term carries two bitmasks over the
generators, memoised on the partial lattice and computed bottom-up:

* its *ideal*, the generators below it: a generator's down-set; the
  intersection of the meetands' ideals for a meet; for a join, the union of
  the joinands' ideals closed under the defined joins (whenever the
  arguments ``U`` of a defined join ``w`` all lie in it, so does the
  down-set of ``w``);
* dually its *filter*, the generators above it.

The closure depends only on the union mask, so each side keeps a memo from
union masks to closed masks and runs the fixed point over the defined
operations once per distinct union.

Pairs are then decided, for terms ``s`` and ``t``, by:

* a join on the left and a meet on the right split conjunctively;
* a generator ``p`` lies below ``t`` iff ``p`` is in the ideal of ``t``;
  dually ``s`` lies below a generator iff the generator is in its filter;
* a meet lies below a join iff some meetand does, or the meet lies below
  some joinand, or the filter of the meet meets the ideal of the join
  (some generator interpolates).

Splits run on the explicit-stack Whitman machine shared with
:mod:`latkit.free`; split pairs are cached on the partial lattice (truth of
a pair never depends on which query introduced it).  Left parts are
subterms of ``s`` and the machine reads only their filters; right parts are
subterms of ``t`` and it reads only their ideals.  So a query computes
filters for the left term and ideals for the right, and that walk is also
the name check: it raises :class:`UnknownGenerator` at an unknown generator.

The module also hosts the alternating closure stages of the generated
lattice, the standard homomorphism onto a stage, and the boundedness
decision procedures built on them.

Partial lattices are immutable apart from their append-only caches (the
term masks, the closure memos and the answers), so concurrent queries are
safe under the interpreter lock.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapExceeded,
    InvalidPartialLattice,
    InvalidPoset,
    UnknownGenerator,
    UnverifiedPreconditionWarning,
)
from .free import _canon, _whitman
from .order import (
    ConditionReport,
    FiniteLattice,
    FinitePoset,
    LowerBoundedReport,
    _covers_from_order,
    _is_ids,
    build_lattice,
    closure,
    generated_sublattice,
    is_lower_bounded_finite,
)
from .terms import (
    Gen,
    Join,
    Meet,
    Term,
    gen,
    generators,
    join_of,
    meet_of,
    sort_key,
    term_size,
    term_to_text,
)

__all__ = [
    "PartialLattice",
    "ClosureStage",
    "FpBoundednessReport",
    "antichain",
    "from_finite_lattice",
    "leq_fp",
    "eq_fp",
    "partial_whitman_check",
    "closure_stage",
    "semilattice_to_lattice",
    "standard_hom_image",
    "is_lower_bounded_fp",
    "is_bounded_fp",
    "is_lower_bounded_sublattice",
]


class PartialLattice:
    """Finite poset with partial join/meet tables.

    ``joins`` and ``meets`` map sorted id tuples (size two or more) to the
    id of their supremum/infimum.  Singletons are implicitly defined and
    equal to themselves; storing them is allowed but they are normalised
    away after validation.
    """

    __slots__ = ("poset", "joins", "meets", "_cache", "_gen_terms", "_bit", "_ideal",
                 "_filter", "_ideal_side", "_filter_side")

    def __init__(
        self,
        poset: FinitePoset,
        joins: Mapping[Sequence[str], str] | Iterable[tuple[Sequence[str], str]] = (),
        meets: Mapping[Sequence[str], str] | Iterable[tuple[Sequence[str], str]] = (),
    ):
        self.poset = poset
        self.joins = self._normalise(poset, joins, upper=True)
        self.meets = self._normalise(poset, meets, upper=False)
        self._cache: dict[tuple[Term, Term], bool] = {}
        self._gen_terms = tuple(gen(e) for e in poset.elements)
        idx, down, up = poset._index, poset._down, poset._up
        bit = self._bit = {e: 1 << poset._pos[i] for e, i in idx.items()}
        # Generators below (above) each term, seeded with the poset's
        # down-sets (up-sets) and filled in per term on first use.
        self._ideal: dict[Term, int] = {g: down[idx[g.name]] for g in self._gen_terms}
        self._filter: dict[Term, int] = {g: up[idx[g.name]] for g in self._gen_terms}
        # A defined join (U, w) puts down(w) into every ideal holding U;
        # dually for meets and filters.  Each side is its term table, its
        # closing node type, its rules and the memo from a closing node's
        # union mask to that mask closed under the rules.
        join_rules = tuple(
            (sum(bit[q] for q in U), down[idx[w]], bit[w]) for U, w in self.joins.items()
        )
        meet_rules = tuple(
            (sum(bit[q] for q in U), up[idx[w]], bit[w]) for U, w in self.meets.items()
        )
        self._ideal_side = (self._ideal, Join, join_rules, {})
        self._filter_side = (self._filter, Meet, meet_rules, {})

    @staticmethod
    def _normalise(poset: FinitePoset, table, upper: bool):
        items = table.items() if isinstance(table, Mapping) else table
        out: dict[tuple[str, ...], str] = {}
        # bounds[i]: the elements on the bounding side of element i
        bounds = poset._up if upper else poset._down
        word = "supremum" if upper else "infimum"
        for subset, value in items:
            key = tuple(sorted(set(subset)))
            if not key:
                raise InvalidPartialLattice("empty argument set")
            for e in key + (value,):
                poset.index(e)
            common = reduce(and_, (bounds[poset._index[e]] for e in key))
            v = poset._index[value]
            if not common >> poset._pos[v] & 1:
                raise InvalidPartialLattice(
                    f"{value!r} is not an upper/lower bound of {key}"
                )
            if common != bounds[v]:
                other = poset._ids_of(common & ~bounds[v])[0]
                raise InvalidPartialLattice(
                    f"{value!r} is not the {word} of {key} ({other!r} is tighter)"
                )
            if len(key) == 1:
                continue  # singleton entries carry no information
            if key in out and out[key] != value:
                raise InvalidPartialLattice(f"conflicting values for {key}")
            out[key] = value
        return dict(sorted(out.items()))

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def check_term(self, t: Term) -> None:
        self._mask(t, self._ideal_side)

    def dual(self) -> "PartialLattice":
        return PartialLattice(self.poset.dual(), self.meets, self.joins)

    @property
    def bottom_term(self) -> Term:
        """Least element of the generated lattice: the meet of everything."""
        return meet_of(self._gen_terms)

    @property
    def top_term(self) -> Term:
        return join_of(self._gen_terms)

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "covers": [list(c) for c in self.poset.covers],
            "joins": [[list(k), v] for k, v in self.joins.items()],
            "meets": [[list(k), v] for k, v in self.meets.items()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PartialLattice":
        poset = FinitePoset.from_dict(data)
        tables = []
        for field in ("joins", "meets"):
            entries = data.get(field, [])
            if not isinstance(entries, (list, tuple)) or not all(
                isinstance(e, (list, tuple)) and len(e) == 2
                and _is_ids(e[0]) and isinstance(e[1], str)
                for e in entries
            ):
                raise InvalidPoset(f"'{field}' must be a list of [[ids], id] pairs")
            tables.append([(tuple(k), v) for k, v in entries])
        return cls(poset, *tables)

    def __repr__(self) -> str:
        return (
            f"PartialLattice({len(self.elements)} elements, "
            f"{len(self.joins)} joins, {len(self.meets)} meets)"
        )

    # --- the word problem engine ---

    def _mask(self, t: Term, side) -> int:
        """Memoised ideal (filter) mask of ``t`` on ``side``, computed
        bottom-up over the subterms still missing from the side's table on
        an explicit stack.  A closing node (join for ideals, meet for
        filters) takes the union of its children's masks closed under the
        side's rules, once per distinct union; the other kind takes the
        intersection.  A generator missing from the table is unknown."""
        table, closing, rules, closed = side
        m = table.get(t)
        if m is not None:
            return m
        if type(t) is Gen:
            raise self._unknown(t)
        stack = [(t, iter(t.children))]
        while stack:
            u, pending = stack[-1]
            for c in pending:
                if c not in table:
                    if type(c) is Gen:
                        raise self._unknown(t)
                    stack.append((c, iter(c.children)))
                    break
            else:
                stack.pop()
                kids = [table[c] for c in u.children]
                if type(u) is closing:
                    union = reduce(or_, kids)
                    m = closed.get(union)
                    if m is None:
                        m = union
                        grown = True
                        while grown:
                            grown = False
                            for need, add, b in rules:
                                if not m & b and m & need == need:
                                    m |= add
                                    grown = True
                        closed[union] = m
                else:
                    m = reduce(and_, kids)
                table[u] = m
        return m

    def _unknown(self, t: Term) -> UnknownGenerator:
        names = generators(t) - self._bit.keys()
        return UnknownGenerator(f"unknown generators: {sorted(names)}")

    def _settle(self, s: Term, t: Term) -> bool | None:
        """Answer ``s <= t`` without splitting, or ``None`` when a split is
        needed.  A generator's pair is its bit in the other side's mask; a
        meet below a join holds outright when a generator interpolates."""
        if s is t:
            return True
        if type(s) is Gen:
            return bool(self._mask(t, self._ideal_side) & self._bit[s.name])
        if type(t) is Gen:
            return bool(self._mask(s, self._filter_side) & self._bit[t.name])
        hit = self._cache.get((s, t))
        if hit is not None:
            return hit
        if type(s) is Meet and type(t) is Join and (
            self._mask(s, self._filter_side) & self._mask(t, self._ideal_side)
        ):
            return True
        return None

    def _leq(self, s: Term, t: Term) -> bool:
        """Decide ``s <= t`` on the shared split machine."""
        return _whitman(s, t, self._settle, self._cache)


def antichain(names: Iterable[str]) -> PartialLattice:
    """Partial lattice with incomparable elements and no defined operations;
    it freely generates the free lattice on ``names``."""
    return PartialLattice(FinitePoset(names, []))


def from_finite_lattice(L: FiniteLattice) -> PartialLattice:
    """Total partial lattice carrying all binary joins and meets of ``L``
    (iterated binary operations reach every finite one)."""
    els = L.elements
    joins = {}
    meets = {}
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            joins[(a, b)] = L.join(a, b)
            meets[(a, b)] = L.meet(a, b)
    return PartialLattice(L.poset, joins, meets)


def leq_fp(P: PartialLattice, s: Term, t: Term) -> bool:
    """Decide ``s <= t`` in the lattice freely generated by ``P``.  The
    split machine reads filters of left parts and ideals of right parts, so
    the name check computes the filter of ``s`` and the ideal of ``t``; each
    closure under the defined operations runs once per union mask."""
    P._mask(s, P._filter_side)
    P._mask(t, P._ideal_side)
    return P._leq(s, t)


def eq_fp(P: PartialLattice, s: Term, t: Term) -> bool:
    return leq_fp(P, s, t) and P._leq(t, s)


def partial_whitman_check(P: PartialLattice) -> ConditionReport:
    """Look for a failure of the meet-below-join condition among the defined
    operations: a defined meet below a defined join with no meetand below the
    join and no joinand above the meet.  No failure here means the generated
    lattice satisfies the condition."""
    poset = P.poset
    for S, m in P.meets.items():
        for T, w in P.joins.items():
            if not poset.leq(m, w):
                continue
            if any(poset.leq(s, w) for s in S):
                continue
            if any(poset.leq(m, t) for t in T):
                continue
            return ConditionReport(False, (S, T))
    return ConditionReport(True)


@dataclass(frozen=True)
class ClosureStage:
    """Representatives of an alternating closure stage of the generated
    lattice, ending with a join closure.  ``basis`` is what that join closure
    started from, and ``masks[i]`` marks the basis members below ``reps[i]``:
    a representative is the join of its mask, so masks name representatives
    and order between them is inclusion of masks."""

    partial: PartialLattice
    n: int
    reps: tuple[Term, ...]
    masks: tuple[int, ...]
    basis: tuple[Term, ...]
    least_index: int

    def leq(self, i: int, j: int) -> bool:
        return self.masks[i] & ~self.masks[j] == 0

    def _below(self, t: Term) -> int:
        """Index of the largest representative below ``t``."""
        return self.masks.index(_mask_over(self.partial._leq, self.basis, t))

    def index_of_equivalent(self, t: Term) -> int | None:
        self.partial.check_term(t)
        i = self._below(t)
        return i if self.partial._leq(t, self.reps[i]) else None


def closure_stage(P: PartialLattice, n: int, cap: int = 4000) -> ClosureStage:
    """Alternate join and meet closures ``n`` times starting from the
    generators, then close under joins once more.  Every join closure adjoins
    the empty join (the least element); every meet closure adjoins the empty
    meet.  Each closure runs on masks over its basis, the previous
    representatives plus the adjoined bound: a member of a join closure is
    the join of the basis members below it, so their mask names it (dually,
    the members above it for a meet closure).  Each mask keeps the
    structurally smallest discovered term."""
    if n < 0:
        raise ValueError("stage number must be non-negative")
    reps = [_canon(g) for g in P._gen_terms]
    for join in [True, False] * n + [True]:
        basis, members = _fp_close(P, reps, join, cap)
        reps = list(members.values())
    masks = tuple(sorted(members, key=lambda m: (term_size(members[m]), sort_key(members[m]))))
    least = masks.index(reduce(and_, masks))
    return ClosureStage(P, n, tuple(members[m] for m in masks), masks, basis, least)


def _mask_over(leq, basis: Sequence[Term], t: Term) -> int:
    return sum(1 << i for i, h in enumerate(basis) if leq(h, t))


def _fp_close(P: PartialLattice, reps: list[Term], join: bool, cap: int):
    """The join (meet) closure of ``reps`` and the empty join (meet), keyed
    by basis masks: the basis and the smallest term per mask, in discovery
    order."""
    if join:
        combine, extra, leq = join_of, P.bottom_term, P._leq
    else:
        combine, extra, leq = meet_of, P.top_term, lambda h, t: P._leq(t, h)
    basis = tuple(reps) + (_canon(extra),)
    members: dict[int, Term] = {}

    def add(t: Term) -> int:
        t = _canon(t)
        m = _mask_over(leq, basis, t)
        r = members.get(m)
        if r is None or (term_size(t), sort_key(t)) < (term_size(r), sort_key(r)):
            members[m] = t
        return m

    closure([add(h) for h in basis],
            lambda a, b: (add(combine([members[a], members[b]])),), cap, "closure stage")
    return basis, members


def semilattice_to_lattice(stage: ClosureStage) -> FiniteLattice:
    """Equip a join-closed stage with binary infima (the join of all common
    lower bounds within the stage) and return it as a finite lattice whose
    element ids are the printed representatives."""
    ids = [term_to_text(r) for r in stage.reps]
    covers = _covers_from_order(range(len(ids)), stage.leq)
    return build_lattice(FinitePoset(ids, [(ids[i], ids[j]) for i, j in covers]))


def standard_hom_image(P: PartialLattice, stage: ClosureStage, t: Term) -> Term:
    """Image of ``t`` under the standard homomorphism onto the stage: the
    join, inside the stage, of all representatives below ``t``."""
    P.check_term(t)
    return stage.reps[stage._below(t)]


@dataclass(frozen=True)
class FpBoundednessReport:
    """Boundedness verdict for a finitely presented lattice, carrying the
    finite stage lattice on which the cycle test ran, that test's
    certificate, and the closure stage the lattice was read from."""

    ok: bool
    stage_lattice: FiniteLattice
    inner: LowerBoundedReport
    stage: int = 0

    def __bool__(self) -> bool:
        return self.ok


def is_lower_bounded_fp(P: PartialLattice, cap: int = 4000) -> FpBoundednessReport:
    """The generated lattice is lower bounded iff its join-closure stage is a
    lower bounded finite lattice."""
    stage = closure_stage(P, 0, cap)
    lat = semilattice_to_lattice(stage)
    rep = is_lower_bounded_finite(lat)
    return FpBoundednessReport(rep.ok, lat, rep)


def is_bounded_fp(
    P: PartialLattice, cap: int = 4000
) -> tuple[FpBoundednessReport, FpBoundednessReport]:
    """Lower report on ``P`` and lower report on the dual (= upper on ``P``)."""
    return is_lower_bounded_fp(P, cap), is_lower_bounded_fp(P.dual(), cap)


def is_lower_bounded_sublattice(
    P: PartialLattice,
    terms: Sequence[Term],
    n_hint: int = 0,
    cap: int = 4000,
    max_stage: int = 8,
    assume_condition: bool = False,
) -> FpBoundednessReport:
    """Decide lower boundedness of the sublattice of the generated lattice
    spanned by ``terms``.

    Correct when that sublattice satisfies the interpolation condition for
    its generating set; this holds whenever :func:`partial_whitman_check`
    passes, and is otherwise the caller's responsibility (pass
    ``assume_condition=True`` to silence the warning)."""
    if not terms:
        raise ValueError("need at least one generating term")
    for t in terms:
        P.check_term(t)
    if not assume_condition and not partial_whitman_check(P).ok:
        warnings.warn(
            "no certificate that the sublattice satisfies the interpolation "
            "condition; the verdict relies on the caller's assertion",
            UnverifiedPreconditionWarning,
            stacklevel=2,
        )
    for n in range(max(0, n_hint), max_stage + 1):
        stage = closure_stage(P, n, cap)
        idxs = [stage.index_of_equivalent(t) for t in terms]
        if all(i is not None for i in idxs):
            lat = semilattice_to_lattice(stage)
            ids = [term_to_text(stage.reps[i]) for i in idxs]  # type: ignore[index]
            sub = sorted(generated_sublattice(lat, ids))
            # covers rebuilt from scratch: ambient covers may skip through
            # elements outside the sublattice
            sublat = build_lattice(FinitePoset(sub, _covers_from_order(sub, lat.leq)))
            rep = is_lower_bounded_finite(sublat)
            return FpBoundednessReport(rep.ok, sublat, rep, n)
    raise CapExceeded(max_stage, "stage search for the generating terms")
