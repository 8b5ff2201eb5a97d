"""Finite posets and lattices.

Elements are opaque string ids, ordered lexicographically for every
deterministic output.  Internally each element carries bitmask up-sets and
down-sets indexed by a fixed linear extension, which makes order tests O(1)
and lets meets and joins be read off as extreme bits of mask intersections.

The module also hosts the finite decision procedures: join irreducibles,
minimal nontrivial join covers, the join-cover dependency digraph with its
cycle test, and the interpolation-style antichain conditions used as
hypotheses elsewhere in the package.

Closures inside a finite lattice, or a product of a few, run on
:func:`product_closure`: each operation keeps its codes (down-set masks for
meets, up-set masks for joins) closed under AND, and a member enters it by
one set comprehension.  Its callers are generated sublattices (and through
them the generator check of :class:`FiniteLattice`, ``Hom.surjective``,
:func:`check_dean` and ``is_lower_bounded_sublattice``), the graph of a
homomorphism with a finite source, the stage sets ``G_k``/``H_k`` and
``sublattice_closure``.  :func:`closure` is the generic worklist, with a
Python call per pair, for the rest: the closure stages of finitely
presented lattices, whose members are terms keyed by basis masks, and the
truncated closures of the inflated lattice.  A truncation there contains
the top but is not down-closed, so a meet can leave it, and the AND of the
truncated down-sets would name a member below the true meet that the true
closure need not produce; the index tables mark such a product -1 instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import (
    CapExceeded,
    InvalidPoset,
    NotALattice,
    NotGenerating,
    UnassignedGenerator,
    UnknownElement,
)
from .terms import Gen, Meet, Term, fold

__all__ = [
    "FinitePoset",
    "FiniteLattice",
    "LowerBoundedReport",
    "BoundedReport",
    "ConditionReport",
    "build_lattice",
    "join_irreducibles",
    "meet_irreducibles",
    "is_join_prime",
    "is_meet_prime",
    "minimal_join_covers",
    "d_relation",
    "is_lower_bounded_finite",
    "is_upper_bounded_finite",
    "is_bounded_finite",
    "check_whitman",
    "check_dean",
    "evaluate_term",
    "generated_sublattice",
    "minimal_generating_set",
    "chain",
    "closure",
    "product_closure",
]

X = TypeVar("X", bound=Hashable)


def closure(
    seed: Iterable[X],
    products: Callable[[X, X], Iterable[X]],
    cap: int | None = None,
    what: str = "closure",
) -> set[X]:
    """Least superset of ``seed`` that contains every member of
    ``products(a, b)`` for all its members ``a`` and ``b``.

    Each unordered pair, a member with itself included, is passed once, so
    ``products`` must not depend on the order of its arguments.  A caller
    truncates the closure by leaving out-of-range products out of what
    ``products`` returns.  Raises :class:`CapExceeded` (``cap``, ``what``)
    exactly when the closure has more than ``cap`` members, on adding the
    first member over the cap."""
    out = list(dict.fromkeys(seed))
    seen = set(out)
    if cap is not None and len(out) > cap:
        raise CapExceeded(cap, what)
    for i, a in enumerate(out):
        for b in out[: i + 1]:
            for c in products(a, b):
                if c not in seen:
                    seen.add(c)
                    out.append(c)
                    if cap is not None and len(out) > cap:
                        raise CapExceeded(cap, what)
    return seen


def product_closure(
    lats: Sequence["FiniteLattice"],
    seed: Iterable[tuple[int, ...]],
    cap: int | None = None,
    what: str = "closure",
    meets: bool = True,
    joins: bool = True,
) -> set[tuple[int, ...]]:
    """Least superset of ``seed`` in the product of ``lats`` closed under
    componentwise meet (if ``meets``) and join (if ``joins``).  Members are
    tuples of element indices, one per factor.

    A member's down code is its factors' down-set masks side by side, each
    shifted past the factors before it; its up code is built alike from the
    up-sets.  ``↓(a∧b) = ↓a ∩ ↓b`` and ``↑(a∨b) = ↑a ∩ ↑b`` in every
    factor, so a meet is the AND of two down codes and a join the AND of two
    up codes.  The top of a down-set is its last position in the linear
    extension and the bottom of an up-set its first, which decodes a code.

    Each side, meets on down codes and joins on up codes, keeps the codes
    it has taken in as a set closed under AND.  Members wait on a work list,
    each tagged with the side that made it.  A side takes a member in
    unless it made the member or already holds its code: one set
    comprehension ANDs the code with every code the side holds, which keeps
    the set closed, and each product that names a member not yet found is
    decoded, given its other code, and put on the work list.  A member
    made by a side needs no pass there: the side holds its code ``s ∧ y``
    and, for every code ``x`` it holds, ``x ∧ (s ∧ y) = s ∧ (x ∧ y)``.
    The list is walked in the order members are found, so the seeds go in
    before any product; most later members then reach a side as products
    before their own turn and cost nothing there (on a 216-member pair
    closure, 2,900 ANDs against 19,500 when the newest member goes first).
    A seed of one member, or of every member of the product, is closed
    already.  Raises :class:`CapExceeded` (``cap``, ``what``) exactly when
    the closure has more than ``cap`` members, on finding the first member
    over the cap."""
    seeds = dict.fromkeys(seed)
    if cap is not None and len(seeds) > cap:
        raise CapExceeded(cap, what)
    if len(seeds) <= 1 or len(seeds) == prod(map(len, lats)):
        return set(seeds)
    sides = [side for side, on in ((0, meets), (1, joins)) if on]
    # per factor: shift, width mask, down-sets and up-sets, linear extension
    spans = []
    shift = 0
    for L in lats:
        p = L.poset
        spans.append((shift, (1 << len(p)) - 1, (p._down, p._up), p._order))
        shift += len(p)
    # the work list, in order of discovery: member, its down and up codes,
    # and the side that made it (-1 for a seed)
    work = []
    for x in seeds:
        d = u = 0
        for (s, _, (down, up), _), i in zip(spans, x):
            d |= down[i] << s
            u |= up[i] << s
        work.append((x, (d, u), -1))
    known = ({d for _, (d, _), _ in work}, {u for _, (_, u), _ in work})
    closed: tuple[set[int], set[int]] = (set(), set())  # each side's AND-closed codes
    for _, xc, made in work:  # grows while it is walked
        for side in sides:
            c, held = xc[side], closed[side]
            if side == made or c in held:
                continue
            new = {c & o for o in held} - held
            new.add(c)
            held |= new
            for nc in new - known[side]:
                y = []
                other = 0
                for s, w, tables, order in spans:
                    seg = nc >> s & w
                    i = order[(seg if side == 0 else seg & -seg).bit_length() - 1]
                    y.append(i)
                    other |= tables[1 - side][i] << s
                yc = (nc, other) if side == 0 else (other, nc)
                work.append((tuple(y), yc, side))
                known[0].add(yc[0])
                known[1].add(yc[1])
                if cap is not None and len(work) > cap:
                    raise CapExceeded(cap, what)
    return {x for x, _, _ in work}


def _covers_from_order(
    items: Sequence[X], leq: Callable[[X, X], bool]
) -> list[tuple[X, X]]:
    """Cover pairs ``(a, b)`` of the partial order ``leq`` on distinct
    ``items``: ``a < b`` with no item strictly between them, in the order
    of ``a``, then ``b``, in ``items``.

    One ``leq`` call per ordered pair gives each item's strict down-set as a
    bitmask over indices; the lower covers of ``b`` are then the members of
    its strict down-set that lie in no other member's."""
    n = len(items)
    strict = [
        sum(1 << i for i, a in enumerate(items) if i != j and leq(a, b))
        for j, b in enumerate(items)
    ]
    above = [0] * n  # above[i]: bitmask of the upper covers of item i
    for j, below in enumerate(strict):
        inner = 0
        m = below
        while m:
            low = m & -m
            inner |= strict[low.bit_length() - 1]
            m ^= low
        m = below & ~inner
        while m:
            low = m & -m
            above[low.bit_length() - 1] |= 1 << j
            m ^= low
    out = []
    for i, m in enumerate(above):
        while m:
            low = m & -m
            out.append((items[i], items[low.bit_length() - 1]))
            m ^= low
    return out


def _masks(
    order: Sequence[int], pos: Sequence[int], lower: Sequence[Sequence[int]],
    upper: Sequence[Sequence[int]],
) -> tuple[list[int], list[int]]:
    """Down-set and up-set bitmasks, over positions ``pos`` in the linear
    extension ``order``, of the poset with cover lists ``lower`` and
    ``upper`` by element index: one pass up the extension ORs each lower
    cover's down-set into an element's, one pass down does the up-sets."""
    down = [0] * len(order)
    for i in order:
        m = 1 << pos[i]
        for j in lower[i]:
            m |= down[j]
        down[i] = m
    up = [0] * len(order)
    for i in reversed(order):
        m = 1 << pos[i]
        for j in upper[i]:
            m |= up[j]
        up[i] = m
    return down, up


def _is_ids(value) -> bool:
    """Whether a document field is a list of string element ids."""
    return isinstance(value, (list, tuple)) and all(isinstance(e, str) for e in value)


class FinitePoset:
    """Finite poset given by elements and its cover (Hasse) relation.

    Rejects cover lists that contain a cycle or a transitively implied pair.
    """

    __slots__ = (
        "elements", "covers", "_index", "_order", "_pos", "_up", "_down", "_lower", "_upper"
    )

    def __init__(self, elements: Iterable[str], covers: Iterable[Sequence[str]]):
        self.elements = tuple(sorted(elements))
        if not self.elements:
            raise InvalidPoset("a poset needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise InvalidPoset("duplicate element ids")
        self._index = {e: i for i, e in enumerate(self.elements)}
        cov = []
        for pair in covers:
            lo, hi = pair
            if lo not in self._index or hi not in self._index:
                raise InvalidPoset(f"cover ({lo!r}, {hi!r}) uses unknown elements")
            if lo == hi:
                raise InvalidPoset(f"reflexive cover ({lo!r}, {hi!r})")
            cov.append((lo, hi))
        self.covers = tuple(sorted(set(cov)))

        n = len(self.elements)
        # succ[i] (pred[i]): indices of the upper (lower) covers of element
        # i, ascending because the covers are sorted and indices follow names
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for lo, hi in self.covers:
            i, j = self._index[lo], self._index[hi]
            succ[i].append(j)
            pred[j].append(i)
        # Kahn with lexicographic tie-break gives a deterministic linear
        # extension; leftovers mean a cycle, i.e. antisymmetry fails.
        import heapq

        ready = [i for i in range(n) if not pred[i]]
        heapq.heapify(ready)
        order: list[int] = []
        counts = [len(p) for p in pred]
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for j in succ[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    heapq.heappush(ready, j)
        if len(order) != n:
            raise InvalidPoset("cover relation contains a cycle")
        self._order = order
        self._pos = pos = [0] * n
        for p, i in enumerate(order):
            pos[i] = p

        # tuples: a dual shares them, and they are smaller than lists
        self._lower = tuple(map(tuple, pred))
        self._upper = tuple(map(tuple, succ))
        self._down, self._up = down, up = _masks(order, pos, self._lower, self._upper)

        for i, js in enumerate(succ):  # in the sorted order of the covers
            for j in js:
                if up[i] & down[j] & ~(1 << pos[i]) & ~(1 << pos[j]):
                    lo, hi = self.elements[i], self.elements[j]
                    raise InvalidPoset(f"cover ({lo!r}, {hi!r}) is transitively implied")

    @classmethod
    def from_dict(cls, data: Mapping) -> "FinitePoset":
        """The poset of a document's ``elements`` (string ids) and
        ``covers`` (``[lower, upper]`` pairs); a missing or malformed field
        raises :class:`InvalidPoset`."""
        try:
            elements = data["elements"]
            covers = data["covers"]
        except (KeyError, TypeError) as exc:
            raise InvalidPoset(f"missing field in lattice data: {exc}") from None
        if not _is_ids(elements):
            raise InvalidPoset("'elements' must be a list of string ids")
        if not isinstance(covers, (list, tuple)) or not all(
            isinstance(c, (list, tuple)) and len(c) == 2
            and isinstance(c[0], str) and isinstance(c[1], str)
            for c in covers
        ):
            raise InvalidPoset("'covers' must be a list of [lower, upper] id pairs")
        return cls(elements, covers)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: str) -> bool:
        return e in self._index

    def index(self, e: str) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise UnknownElement(f"unknown element {e!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self._down[self.index(b)] >> self._pos[self.index(a)] & 1)

    def lower_covers(self, e: str) -> tuple[str, ...]:
        return tuple(self.elements[j] for j in self._lower[self.index(e)])

    def upper_covers(self, e: str) -> tuple[str, ...]:
        return tuple(self.elements[j] for j in self._upper[self.index(e)])

    def dual(self) -> "FinitePoset":
        """The order reversed, as a transpose of this poset's cover lists.

        Elements and ids stay, and the lower and upper cover lists swap
        sides.  The reversed linear extension is a linear extension of the
        reversed order, so position ``p`` becomes ``n-1-p``, and one pass of
        :func:`_masks` over the swapped lists gives the dual's down-sets and
        up-sets.  The dual's covers ``(hi, lo)`` are read off the lower
        cover lists, which run in the sorted order of ``hi``, then ``lo``,
        because indices follow names.  The dual of a valid poset is valid,
        so no check runs again.  Nothing reads positions except through
        sorted id lists, the single extreme bit of a principal ideal or
        filter and the two ends of the extension, so the result answers
        exactly as ``FinitePoset(elements, flipped covers)``."""
        n = len(self.elements)
        els = self.elements
        d = object.__new__(FinitePoset)
        d.elements, d._index = els, self._index
        d.covers = tuple((els[hi], els[lo]) for hi, los in enumerate(self._lower) for lo in los)
        d._order = self._order[::-1]
        d._pos = [n - 1 - p for p in self._pos]
        d._lower, d._upper = self._upper, self._lower
        d._down, d._up = _masks(d._order, d._pos, d._lower, d._upper)
        return d

    def heights(self) -> dict[str, int]:
        """Length of the longest chain below each element."""
        h = [0] * len(self.elements)
        for i in self._order:
            for c in self._lower[i]:
                h[i] = max(h[i], h[c] + 1)
        return dict(zip(self.elements, h))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements, {len(self.covers)} covers)"

    # --- mask helpers used by the lattice layer and the enumerators ---

    def _mask_of(self, ids: Iterable[str]) -> int:
        m = 0
        for e in ids:
            m |= 1 << self._pos[self.index(e)]
        return m

    def _ids_of(self, mask: int) -> list[str]:
        out = []
        p = 0
        while mask:
            if mask & 1:
                out.append(self.elements[self._order[p]])
            mask >>= 1
            p += 1
        return sorted(out)


class FiniteLattice:
    """Finite lattice with explicit meet/join tables and a designated
    generating set (all elements by default).  The dual (:meth:`dual`), the
    join-cover table (:func:`_join_covers`) and the lower cycle report
    (:func:`is_lower_bounded_finite`) are built once per object when asked
    for, in slots that equality, hashing and ``to_dict`` ignore.

    The poset is tested by its cover pairs (:func:`_is_lattice`): a finite
    poset with a least element is a lattice iff any two upper covers of a
    common element have a join.  Necessity is plain.  For sufficiency take
    incomparable ``x`` and ``y`` and a common lower bound ``z`` of greatest
    height, and assume every pair with a higher common lower bound has a
    join.  Upper covers ``x1 <= x`` and ``y1 <= y`` of ``z`` are distinct,
    since a common one would be a higher common lower bound, so
    ``w = x1 v y1`` exists.  The pairs ``(x, w)`` and ``(x v w, y)`` have
    the common lower bounds ``x1`` and ``y1``, above ``z``, so they have
    joins.  Every common upper bound of ``x`` and ``y`` lies above ``x1``
    and ``y1``, so above ``w``, ``x v w`` and ``(x v w) v y``, which lies
    above ``x`` and ``y`` and is therefore ``x v y``.  A finite
    join-semilattice with a least element is a lattice: the meet of two
    elements is the join of their common lower bounds.  When the test
    passes the tables are filled with no further checks; when it fails,
    :func:`_pair_scan` finds the first pair with no meet or join and raises
    :class:`NotALattice` for it."""

    __slots__ = (
        "poset", "bottom", "top", "generators", "_meet", "_join", "_dual", "_covers", "_report"
    )

    def __init__(self, poset: FinitePoset, generators: Iterable[str] | None = None):
        self.poset = poset
        if not _is_lattice(poset):
            _pair_scan(poset)
        self._meet, self._join = _tables(poset)
        self._dual = self._covers = self._report = None
        # with every meet and join present, the ends of the linear extension
        # are the unique minimal and maximal elements
        order = poset._order
        self.bottom = poset.elements[order[0]]
        self.top = poset.elements[order[-1]]
        if generators is None:
            self.generators = poset.elements
        else:
            gens = tuple(sorted(set(generators)))
            for g in gens:
                poset.index(g)
            if generated_sublattice(self, gens) != set(poset.elements):
                raise NotGenerating(f"{gens} does not generate the lattice")
            self.generators = gens

    # --- basic structure ---

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def __len__(self) -> int:
        return len(self.poset.elements)

    def __contains__(self, e: str) -> bool:
        return e in self.poset

    def leq(self, a: str, b: str) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a: str, b: str) -> str:
        p = self.poset
        return p.elements[self._meet[p.index(a)][p.index(b)]]

    def join(self, a: str, b: str) -> str:
        p = self.poset
        return p.elements[self._join[p.index(a)][p.index(b)]]

    def meet_set(self, items: Iterable[str]) -> str:
        """Meet of a finite set; the empty meet is the top element."""
        it = list(items)
        if not it:
            return self.top
        p = self.poset
        acc = p.index(it[0])
        for e in it[1:]:
            acc = self._meet[acc][p.index(e)]
        return p.elements[acc]

    def join_set(self, items: Iterable[str]) -> str:
        """Join of a finite set; the empty join is the bottom element."""
        it = list(items)
        if not it:
            return self.bottom
        p = self.poset
        acc = p.index(it[0])
        for e in it[1:]:
            acc = self._join[acc][p.index(e)]
        return p.elements[acc]

    def with_generators(self, generators: Iterable[str]) -> "FiniteLattice":
        return FiniteLattice(self.poset, generators)

    def dual(self) -> "FiniteLattice":
        """The order-dual lattice, as a transpose: the dual poset, with this
        lattice's meet table as its join table and the other way round, top
        and bottom exchanged.  The tables are shared, never copied, and
        nothing writes to them after construction.

        The generators stay and are not checked again: a set generates
        ``L`` under meet and join exactly when it generates the dual under
        the same two operations exchanged.  Built once: ``L.dual()`` is
        always the same object, and its dual is ``L``."""
        if self._dual is None:
            d = self._dual = object.__new__(FiniteLattice)
            d.poset = self.poset.dual()
            d._meet, d._join = self._join, self._meet
            d._dual, d._covers, d._report = self, None, None
            d.bottom, d.top = self.top, self.bottom
            d.generators = self.generators
        return self._dual

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteLattice)
            and self.poset == other.poset
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.poset, self.generators))

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self)} elements)"

    # --- serialisation ---

    def to_dict(self) -> dict:
        d = {
            "elements": list(self.elements),
            "covers": [list(c) for c in self.poset.covers],
        }
        if self.generators != self.elements:
            d["generators"] = list(self.generators)
        return d

    @classmethod
    def from_dict(cls, data: Mapping) -> "FiniteLattice":
        poset = FinitePoset.from_dict(data)
        generators = data.get("generators")
        if generators is not None and not _is_ids(generators):
            raise InvalidPoset("'generators' must be a list of string ids")
        return cls(poset, generators)

    def to_dot(self) -> str:
        heights = self.poset.heights()
        by_h: dict[int, list[str]] = {}
        for e, h in heights.items():
            by_h.setdefault(h, []).append(e)
        lines = ["digraph lattice {", "  rankdir=BT;", '  node [shape=ellipse];']
        for e in self.elements:
            lines.append(f'  "{e}";')
        for lo, hi in self.poset.covers:
            lines.append(f'  "{lo}" -> "{hi}";')
        for h in sorted(by_h):
            row = "; ".join(f'"{e}"' for e in sorted(by_h[h]))
            lines.append(f"  {{ rank=same; {row}; }}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _is_lattice(poset: FinitePoset) -> bool:
    """Whether ``poset`` is a lattice, by the cover-pair criterion of
    :class:`FiniteLattice`: exactly one element has no lower cover, and any
    two upper covers of an element have a least common upper bound."""
    lower, upper, up, order = poset._lower, poset._upper, poset._up, poset._order
    if sum(not cs for cs in lower) != 1:
        return False
    for cs in upper:
        for k, a in enumerate(cs):
            ua = up[a]
            for b in cs[k + 1 :]:
                common = ua & up[b]
                if not common or up[order[(common & -common).bit_length() - 1]] != common:
                    return False
    return True


def _tables(poset: FinitePoset) -> tuple[list[list[int]], list[list[int]]]:
    """Meet and join tables of a lattice: the meet of ``i`` and ``j`` is
    the top of ``down[i] & down[j]``, their join the bottom of
    ``up[i] & up[j]``."""
    n = len(poset.elements)
    order, down, up = poset._order, poset._down, poset._up
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        mi, ji, di, ui = meet[i], join[i], down[i], up[i]
        mi[i] = ji[i] = i
        for j in range(i + 1, n):
            mi[j] = meet[j][i] = order[(di & down[j]).bit_length() - 1]
            common = ui & up[j]
            ji[j] = join[j][i] = order[(common & -common).bit_length() - 1]
    return meet, join


def _pair_scan(poset: FinitePoset) -> None:
    """Raise :class:`NotALattice` for the first pair ``i < j``, in element
    order, with no greatest common lower bound (``"meet"``) or, failing
    that, no least common upper bound (``"join"``)."""
    n, els = len(poset.elements), poset.elements
    order, down, up = poset._order, poset._down, poset._up
    for i in range(n):
        for j in range(i + 1, n):
            common = down[i] & down[j]
            if not common or down[order[common.bit_length() - 1]] != common:
                raise NotALattice(els[i], els[j], "meet")
            common = up[i] & up[j]
            if not common or up[order[(common & -common).bit_length() - 1]] != common:
                raise NotALattice(els[i], els[j], "join")


def build_lattice(
    poset: FinitePoset, generators: Iterable[str] | None = None
) -> FiniteLattice:
    """Compute meet/join tables for ``poset``.  Raises :class:`NotALattice`
    naming a witness pair when some pair has no least upper or greatest
    lower bound."""
    return FiniteLattice(poset, generators)


def chain(n: int) -> FiniteLattice:
    """The n-element chain c0 < c1 < ... (handy fixture)."""
    els = [f"c{i}" for i in range(n)]
    return FiniteLattice(FinitePoset(els, [(f"c{i}", f"c{i+1}") for i in range(n - 1)]))


def generated_sublattice(L: FiniteLattice, seed: Iterable[str]) -> set[str]:
    """Closure of ``seed`` under binary meet and join."""
    els, index = L.poset.elements, L.poset.index
    return {els[i] for i, in product_closure([L], [(index(e),) for e in seed])}


def minimal_generating_set(L: FiniteLattice) -> tuple[str, ...]:
    """Greedily shrink the element set to an inclusion-minimal generating
    set, dropping candidates in lexicographic order."""
    gens = list(L.elements)
    for e in list(L.elements):
        trial = [g for g in gens if g != e]
        if trial and generated_sublattice(L, trial) == set(L.elements):
            gens = trial
    return tuple(gens)


def evaluate_term(
    L: FiniteLattice, assignment: Mapping[str, str], t: Term, memo: dict | None = None
) -> str:
    """Homomorphic evaluation of ``t`` in ``L``.  Empty meets and joins, had
    they a term form, would land on top and bottom via ``meet_set`` and
    ``join_set``.  ``memo`` maps subterms to their values under this
    ``L`` and ``assignment`` (see :func:`latkit.terms.fold`); a caller that
    keeps it between calls evaluates each subterm once.  An unassigned
    generator is never stored, so it raises on every call."""

    def node(u: Term, vals: list[str]) -> str:
        if type(u) is not Gen:
            return L.meet_set(vals) if type(u) is Meet else L.join_set(vals)
        try:
            v = assignment[u.name]
        except KeyError:
            raise UnassignedGenerator(f"no value for generator {u.name!r}") from None
        L.poset.index(v)
        return v

    return fold(t, node, memo)


# --- irreducibles, covers and the dependency digraph ---


def join_irreducibles(L: FiniteLattice) -> tuple[str, ...]:
    """Elements other than bottom with a unique lower cover."""
    lower = L.poset._lower
    return tuple(e for i, e in enumerate(L.elements) if len(lower[i]) == 1)


def meet_irreducibles(L: FiniteLattice) -> tuple[str, ...]:
    upper = L.poset._upper
    return tuple(e for i, e in enumerate(L.elements) if len(upper[i]) == 1)


def is_join_prime(L: FiniteLattice, p: str) -> bool:
    """``p <= join(A)`` forces ``p <= a`` for some ``a`` in ``A``, for every
    set ``A``; equivalently ``p`` is not below the join of all the elements
    not above it (the empty join rules out the bottom element)."""
    L.poset.index(p)
    return not L.leq(p, L.join_set(x for x in L.elements if not L.leq(p, x)))


def is_meet_prime(L: FiniteLattice, p: str) -> bool:
    return is_join_prime(L.dual(), p)


def minimal_join_covers(L: FiniteLattice, p: str) -> tuple[tuple[str, ...], ...]:
    """All minimal nontrivial join covers of ``p`` made of join irreducibles,
    as id tuples in lexicographic order: antichain covers that every
    nontrivial cover of ``p`` refining them equals (see :func:`_join_covers`)."""
    if p not in set(join_irreducibles(L)):
        raise ValueError(f"{p!r} is not join irreducible")
    return tuple(_join_covers(L)[p])


def _join_covers(L: FiniteLattice) -> dict[str, list[tuple[str, ...]]]:
    """Minimal nontrivial join covers, made of join irreducibles, of every
    element ``d``, as id tuples in lexicographic order; the bottom's only
    cover is the empty one.

    A member ``q`` of such a cover passes the edge test of
    :func:`_d_relation_with_witnesses` for ``p = d``, with ``x`` the join of
    the other members (else ``q`` could be swapped for the join irreducibles
    below ``q*``).  Antichains of these candidates grow in element order and
    stop growing once they cover ``d``.  A cover ``C`` is minimal iff no
    member ``c`` can be lowered: ``d !<= join(C - c) v c*``, because every
    finer nontrivial cover that misses ``c`` lies below that join.

    Built once per lattice object and kept in ``L._covers``; callers must
    not change it."""
    if L._covers is not None:
        return L._covers
    p_ = L.poset
    els, down, up, pos = p_.elements, p_._down, p_._up, p_._pos
    lower, index, join = p_._lower, p_._index, L._join
    cands, _ = _d_relation_with_witnesses(L, (1 << len(els)) - 1)

    def lowered(C: tuple[int, ...], c: int) -> int:  # join(C - c) v c*
        u = lower[c][0]
        for e in C:
            if e != c:
                u = join[u][e]
        return u

    out = {}
    for d, qs in cands.items():
        bit = pos[index[d]]
        qs = [index[q] for q in qs]
        out[d] = found = []
        # (next candidate, members, their comparables, their join), lexicographic
        stack = [(0, (), 0, index[L.bottom])]
        while stack:
            start, C, near, u = stack.pop()
            if down[u] >> bit & 1:
                if not any(down[lowered(C, c)] >> bit & 1 for c in C):
                    found.append(tuple(els[c] for c in C))
                continue
            for j in range(len(qs) - 1, start - 1, -1):
                q = qs[j]
                if not near >> pos[q] & 1:
                    stack.append((j + 1, C + (q,), near | down[q] | up[q], join[u][q]))
    L._covers = out
    return out


def d_relation(L: FiniteLattice) -> dict[str, tuple[str, ...]]:
    """Dependency digraph on join irreducibles: an edge ``p -> q`` whenever
    ``q`` lies in some minimal nontrivial join cover of ``p``."""
    edges, _ = _d_relation_with_witnesses(L)
    return edges


def _d_relation_with_witnesses(L: FiniteLattice, p_mask: int | None = None):
    """Edge ``p -> q`` holds iff some ``x`` satisfies ``p <= x v q`` but
    ``p !<= x v q*`` (``q*`` the lower cover of ``q``) and ``p !<= q``; the
    first such ``x`` in element order is recorded as the witness, for
    certificate checking.  ``p`` ranges over the elements whose positions
    ``p_mask`` holds, by default the join irreducibles."""
    p_ = L.poset
    els, down, pos, order, lower = p_.elements, p_._down, p_._pos, p_._order, p_._lower
    ji = [i for i in range(len(els)) if len(lower[i]) == 1]
    if p_mask is None:
        p_mask = sum(1 << pos[i] for i in ji)
    edges: dict[str, list[str]] = {e: [] for i, e in enumerate(els) if p_mask >> pos[i] & 1}
    witness: dict[tuple[str, str], str] = {}
    for qi in ji:
        q = els[qi]
        row, row_star = L._join[qi], L._join[lower[qi][0]]
        # targets: the ``p`` with no edge to ``q`` found yet
        targets = p_mask & ~down[qi]
        for xi, (u, ustar) in enumerate(zip(row, row_star)):
            if not targets:
                break
            wm = down[u] & ~down[ustar] & targets
            if not wm:
                continue
            targets &= ~wm
            x = els[xi]
            while wm:
                low = wm & -wm
                pel = els[order[low.bit_length() - 1]]
                edges[pel].append(q)
                witness[(pel, q)] = x
                wm ^= low
    # each list grew in element order of ``q``
    return {p: tuple(qs) for p, qs in edges.items()}, witness


@dataclass(frozen=True)
class LowerBoundedReport:
    """Outcome of the dependency-cycle test with its certificate: a rank
    function strictly decreasing along edges, or an explicit cycle (with the
    per-edge witnesses that prove each edge)."""

    ok: bool
    rank: dict[str, int] | None
    cycle: tuple[str, ...] | None
    cycle_witnesses: tuple[str, ...] | None

    def __bool__(self) -> bool:
        return self.ok


def is_lower_bounded_finite(L: FiniteLattice) -> LowerBoundedReport:
    """The cycle test on the dependency digraph, run once per lattice object
    and kept in ``L._report``; callers must not change the report."""
    if L._report is None:
        L._report = _cycle_test(L)
    return L._report


def _cycle_test(L: FiniteLattice) -> LowerBoundedReport:
    edges, witness = _d_relation_with_witnesses(L)
    nodes = sorted(edges)
    # rank 0 for sinks; each edge p -> q must have rank(p) > rank(q)
    remaining = {p: set(qs) for p, qs in edges.items()}
    incoming: dict[str, set[str]] = {p: set() for p in nodes}
    for p, qs in edges.items():
        for q in qs:
            incoming[q].add(p)
    rank: dict[str, int] = {}
    ready = sorted(p for p in nodes if not remaining[p])
    while ready:
        nxt: list[str] = []
        for q in ready:
            rank[q] = max((rank[t] + 1 for t in edges[q]), default=0)
            for p in sorted(incoming[q]):
                remaining[p].discard(q)
                if not remaining[p] and p not in rank and p not in nxt:
                    nxt.append(p)
        ready = sorted(nxt)
    if len(rank) == len(nodes):
        return LowerBoundedReport(True, rank, None, None)
    # find a cycle inside the unranked subgraph
    stuck = sorted(p for p in nodes if p not in rank)
    start = stuck[0]
    seen: dict[str, int] = {}
    path: list[str] = []
    cur = start
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = min(q for q in edges[cur] if q not in rank)
    cycle = tuple(path[seen[cur] :])
    wits = tuple(
        witness[(cycle[i], cycle[(i + 1) % len(cycle)])] for i in range(len(cycle))
    )
    return LowerBoundedReport(False, None, cycle, wits)


def is_upper_bounded_finite(L: FiniteLattice) -> LowerBoundedReport:
    return is_lower_bounded_finite(L.dual())


@dataclass(frozen=True)
class BoundedReport:
    lower: LowerBoundedReport
    upper: LowerBoundedReport

    @property
    def ok(self) -> bool:
        return self.lower.ok and self.upper.ok

    def __bool__(self) -> bool:
        return self.ok


def is_bounded_finite(L: FiniteLattice) -> BoundedReport:
    return BoundedReport(is_lower_bounded_finite(L), is_upper_bounded_finite(L))


# --- antichain conditions ---


@dataclass(frozen=True)
class ConditionReport:
    """Result of an antichain condition check, with the failing pair of
    antichains when the condition does not hold."""

    ok: bool
    witness: tuple[tuple[str, ...], tuple[str, ...]] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_whitman(L: FiniteLattice) -> ConditionReport:
    """Whenever a meet lies below a join, some meetand already lies below the
    join or the meet lies below some joinand.  Checked over pairs of
    two-element antichains (see :func:`_antichain_scan`)."""
    return _antichain_scan(L, 0)


def check_dean(L: FiniteLattice, P: Iterable[str] | None = None) -> ConditionReport:
    """Like :func:`check_whitman` with a third escape: some designated
    generator interpolates between the meet and the join.  ``P`` defaults to
    the lattice's generating set and must generate."""
    gens = tuple(sorted(set(P))) if P is not None else L.generators
    for g in gens:
        L.poset.index(g)
    if generated_sublattice(L, gens) != set(L.elements):
        raise NotGenerating(f"{gens} does not generate the lattice")
    return _antichain_scan(L, L.poset._mask_of(gens))


def _antichain_scan(L: FiniteLattice, p_mask: int) -> ConditionReport:
    """First pair ``(S, T)`` of two-element antichains, both in lexicographic
    order with ``S`` outermost, with ``meet(S) <= join(T)`` and no escape: no
    ``s`` below the join, no ``t`` above the meet and no element of
    ``p_mask`` between them.  Whitman's condition is the scan with an empty
    mask.

    Pairs suffice: the condition for pairs implies it for all finite ``S``
    and ``T`` by induction on ``|S| + |T|``.  Split ``S = {s} + S'`` and
    ``T = {t} + T'`` and apply the pair condition to ``s, meet(S')`` and
    ``t, join(T')`` (a comparable pair escapes at once); each escape is an
    escape for ``(S, T)`` or a smaller instance, and an interpolating
    generator of a smaller instance interpolates for ``(S, T)`` too
    (Whitman 1941; Freese, Ježek and Nation, *Free Lattices*, ch. 1).

    The pairs ``T`` are grouped by their join.  For each ``S`` only the
    groups whose join passes the tests on ``S`` are searched, and the
    earliest failing ``T`` over them is the one a full scan would meet
    first; on ``M_n`` every join of a pair lies above both ``s``, so no
    group is searched at all."""
    p_ = L.poset
    down, up, pos, order, els = p_._down, p_._up, p_._pos, p_._order, p_.elements
    meet, join = L._meet, L._join
    # incomparable pairs i < j in lexicographic order; by_join[u] lists, in
    # that order, the indices into ``pairs`` of the pairs whose join is u
    pairs = [
        (i, j) for i in range(len(els)) for j in range(i + 1, len(els))
        if meet[i][j] not in (i, j)
    ]
    by_join: dict[int, list[int]] = {}
    join_mask = 0
    for k, (i, j) in enumerate(pairs):
        u = join[i][j]
        by_join.setdefault(u, []).append(k)
        join_mask |= 1 << pos[u]
    for s1, s2 in pairs:
        m = meet[s1][s2]
        above = up[m]
        # joins above the meet, above neither s and with no generator between
        cands = above & ~up[s1] & ~up[s2] & join_mask
        best = len(pairs)
        while cands:
            low = cands & -cands
            cands ^= low
            u = order[low.bit_length() - 1]
            if above & down[u] & p_mask:
                continue
            for k in by_join[u]:
                if k >= best:
                    break
                t1, t2 = pairs[k]
                if not (above >> pos[t1] & 1 or above >> pos[t2] & 1):
                    best = k  # no t above the meet
                    break
        if best < len(pairs):
            t1, t2 = pairs[best]
            return ConditionReport(False, ((els[s1], els[s2]), (els[t1], els[t2])))
    return ConditionReport(True)
