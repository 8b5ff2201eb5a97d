"""Lattice homomorphisms onto finite targets and the preimage calculus.

For an epimorphism ``g`` and a target element ``d``, ``beta_k(g, d, k)`` is
the least element of the k-th meet-closure stage of the source mapping above
``d`` (``alpha_k`` dually: the join of the stage elements mapping below).
One target-side recursion serves finite and free sources alike, on element
ids over a finite source and on canonical terms over a free one: the
level-k value is the previous one met with, for every minimal nontrivial
join cover of ``d`` made of join irreducibles, the join of the previous
level at its members (other covers would only add redundant meetands, see
:func:`_tables`).  The recursion at one level reads only the previous
level, so a simultaneous fixpoint over all target elements certifies
stabilisation.  It is written once, for beta: alpha is the same recursion
read in the dual target, with meets and joins (and top and bottom)
exchanged.  Over a free source it runs from level 0 alone, so ``alpha_k``
reads ``K_k``, the stage ``H_k`` with meets and joins exchanged
(``G_k ⊆ K_k ⊆ G_{k+1}``).  Over a finite source alpha's level 1 joins the
``H_0`` members mapping below ``d``, so ``alpha_k`` reads ``G_k``.  The
target lattice keeps its dual, join covers and cycle reports for every hom
onto it.  The level maps and the stabilisations fill whole levels; the
certificate readers (``uniform_beta_bound``, ``non_generation_witness``,
``verify_non_generation``) fill only the beta cells they read and the cells
those read, so the level tables of a hom may be partial.

On top of the calculus sit fiber products of two epimorphisms, the finite
generating set of a fiber product of bounded epimorphisms, the generation
check for the order variant ``{(a, b) : g(a) <= h(b)}``, and the
certificate construction showing a fiber product over a non-lower-bounded
target is not generated by a given finite pair set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapExceeded,
    DeanConditionFails,
    InvalidValue,
    NotAHomomorphism,
    NotLowerBounded,
    NotSurjective,
    SearchExhausted,
    TargetLowerBounded,
    TargetMismatch,
    UnassignedGenerator,
    UnknownElement,
    UnknownGenerator,
)
from .free import FreeLattice, StageIndex, _canon, _leq, in_stage, stage_elements
from .order import (
    FiniteLattice,
    _join_covers,
    check_dean,
    evaluate_term,
    generated_sublattice,
    is_lower_bounded_finite,
    product_closure,
)
from .terms import Term, _compare, gen, join_of, meet_of, term_size

__all__ = [
    "Hom",
    "PairSet",
    "NonGenerationCertificate",
    "HomBoundednessReport",
    "beta_k",
    "alpha_k",
    "beta_stable",
    "alpha_stable",
    "is_lower_bounded_hom",
    "fiber_product",
    "kernel",
    "sublattice_closure",
    "fiber_generating_set",
    "order_fiber",
    "check_order_fiber_generation",
    "uniform_beta_bound",
    "non_generation_witness",
    "verify_non_generation",
]


class Hom:
    """Homomorphism into a finite lattice, given by generator images.

    The source is either a :class:`FiniteLattice` (images on its designated
    generating set, extended over the whole lattice and checked to preserve
    both operations) or a :class:`FreeLattice` context (images extend
    freely).  ``surjective`` records whether the images generate the target.
    """

    __slots__ = (
        "source",
        "target",
        "images",
        "surjective",
        "_map",
        "_groups",
        "_levels",
        "_values",
    )

    def __init__(
        self,
        source: FiniteLattice | FreeLattice,
        target: FiniteLattice,
        images: Mapping[str, str],
    ):
        self.source = source
        self.target = target
        names = source.generators if isinstance(source, FiniteLattice) else source.names
        if set(images) != set(names):
            missing = set(names) - set(images)
            extra = set(images) - set(names)
            raise UnknownGenerator(
                f"images must cover the generators exactly "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for v in images.values():
            target.poset.index(v)
        self.images = {k: images[k] for k in sorted(images)}
        self._values: dict[Term, str] = {}  # the memo of ``apply`` on terms
        # level tables of the preimage recursion, indexed by ``lower``: [0]
        # is the alpha side, [1] the beta side
        self._levels: tuple[list[dict[str, Term | str]], ...] = ([], [])
        self._map = self._extend_finite() if isinstance(source, FiniteLattice) else None
        # finite source: the source elements of each image, in element order
        self._groups: dict[str, tuple[str, ...]] = {}
        if self._map is not None:
            groups: dict[str, list[str]] = {}
            for e, img in self._map.items():
                groups.setdefault(img, []).append(e)
            self._groups = {d: tuple(es) for d, es in groups.items()}
        self.surjective = generated_sublattice(target, self.images.values()) == set(target.elements)

    def _extend_finite(self) -> dict[str, str]:
        """The closure of the graph of the generator images under
        componentwise meet and join.  The generators generate the source, so
        the closure projects onto all of it; it is the graph of a
        homomorphism exactly when no source element gets two images."""
        src: FiniteLattice = self.source  # type: ignore[assignment]
        A, B = src.poset, self.target.poset
        graph = product_closure(
            [src, self.target], [(A._index[e], B._index[v]) for e, v in self.images.items()]
        )
        m: dict[str, str] = {}
        # indices follow names, so this is the order of the named pairs
        for a, b in sorted(graph):
            e, img = A.elements[a], B.elements[b]
            prev = m.setdefault(e, img)
            if prev != img:
                raise NotAHomomorphism(
                    f"conflicting images for {e!r}: {prev!r} vs {img!r}"
                )
        return m

    @property
    def free_source(self) -> bool:
        return isinstance(self.source, FreeLattice)

    def apply(self, x: Term | str) -> str:
        """Image of a source element (finite source) or of a term."""
        if isinstance(x, Term):
            try:
                return evaluate_term(self.target, self.images, x, self._values)
            except UnassignedGenerator:
                if self.free_source:  # images cover exactly the source's names
                    self.source.check_term(x)  # type: ignore[union-attr]
                raise
        if self._map is None:
            raise UnknownElement("free source: apply expects a term")
        try:
            return self._map[x]
        except KeyError:
            raise UnknownElement(f"unknown source element {x!r}") from None

    def preimage(self, d: str) -> tuple[str, ...]:
        if self._map is None:
            raise UnknownElement("free source: preimages are not enumerable")
        self.target.poset.index(d)
        return self._groups.get(d, ())

    def _side(self, lower: bool) -> FiniteLattice:
        """The target for the beta side, its (cached) dual for alpha."""
        return self.target if lower else self.target.dual()

    def __repr__(self) -> str:
        kind = "free" if self.free_source else "finite"
        return f"Hom({kind} source -> {len(self.target)}-element target)"


def _require_same_target(g: Hom, h: Hom) -> None:
    if g.target != h.target:
        raise TargetMismatch("homomorphisms do not share a target")


def _require_finite(g: Hom) -> FiniteLattice:
    if g.free_source:
        raise UnknownElement("operation needs a finite source")
    return g.source  # type: ignore[return-value]


def _require_dean(g: Hom) -> None:
    """The target satisfies the interpolation condition (D) for its
    generating set."""
    dean = check_dean(g.target, g.target.generators)
    if not dean.ok:
        raise DeanConditionFails(
            f"target fails the interpolation condition, witness {dean.witness}"
        )


# --- the alpha/beta calculus ---


def beta_k(g: Hom, d: str, k: int) -> Term | str:
    """Least element of stage ``H_k`` of the source mapping >= ``d``: an
    element id over a finite source, a canonical term over a free one, from
    the same recursion (:func:`_tables`)."""
    return _level(g, d, k, True)


def alpha_k(g: Hom, d: str, k: int) -> Term | str:
    """Join of the source elements of a stage mapping <= ``d``: the beta
    recursion read in the dual target.  Over a finite source level 1 joins
    the ``H_0`` members mapping below ``d``, so the stage is ``G_k``, where
    at ``k = 0`` the join may fall outside it.  Over a free source the
    recursion runs from level 0 alone and reads ``K_k``, ``H_k`` with meets
    and joins exchanged (``G_k ⊆ K_k ⊆ G_{k+1}``)."""
    return _level(g, d, k, False)


def _level(g: Hom, d: str, k: int, lower: bool) -> Term | str:
    g.target.poset.index(d)
    return _tables(g, k, lower)[d]


def _tables(
    g: Hom, k: int, lower: bool, want: Iterable[str] | None = None
) -> dict[str, Term | str]:
    """Level ``k`` of the beta table of ``g`` (the alpha table when not
    ``lower``), with its cells at ``want`` filled (every target element when
    ``want`` is None).  Level 0 meets the generators mapping above ``d``;
    each later level adds one meetand per minimal nontrivial join cover of
    ``d`` made of join irreducibles, read from the side's cover table.
    Every nontrivial cover refines to such a cover, and each level is
    monotone in ``d`` (by induction from level 0), so the meetands of the
    other covers lie above these.  Values are canonical terms over a free
    source and element ids over a finite one.

    A level-k cell at ``d`` reads level k-1 at ``d`` and at the members of
    ``d``'s covers, so one walk down from level ``k`` collects the missing
    cells the wanted ones read, and one pass fills them bottom-up.  Level
    dicts may be partial: the certificate readers want single cells, and
    every other caller wants whole levels, for which the walk reads no
    covers."""
    if k < 0:
        raise InvalidValue(f"level must be non-negative, got {k}")
    tables = g._levels[lower]
    n = len(g.target.poset.elements)
    if k < len(tables) and len(tables[k]) == n:
        return tables[k]  # a whole level
    D = g._side(lower)
    cells = D.elements if want is None else want
    seeded = not (lower or g.free_source)  # finite alpha: level 1 reads H_0
    todo = []  # the missing cells of levels k, k-1, ..., walked down
    for j in range(k, -1, -1):
        level = tables[j] if j < len(tables) else {}
        if len(level) == n:
            break  # a whole level
        miss = [d for d in cells if d not in level]
        if not miss:
            break
        todo.append((j, miss))
        if j == 0 or (j == 1 and seeded):
            break
        if want is not None:
            covers = _join_covers(D)
            cells = {e for d in miss for E in covers[d] for e in E}.union(miss)
    while len(tables) <= k:
        tables.append({})
    if not todo:
        return tables[k]
    src = g.source
    if g.free_source:
        meet, join, top, bottom = meet_of, join_of, src.top_term, src.bottom_term
        if not lower:
            meet, join, top, bottom = join, meet, bottom, top
        outer = lambda ts: _canon(meet(ts or [top]))
        inner = lambda ts: join(ts or [bottom])
        gens = {x: gen(x) for x in src.names}
    else:
        outer, inner = (src.meet_set, src.join_set) if lower else (src.join_set, src.meet_set)
        gens = {x: x for x in src.generators}
    for j, miss in reversed(todo):
        level = tables[j]
        if j == 0:
            for d in miss:
                level[d] = outer([t for x, t in gens.items() if D.leq(d, g.images[x])])
        elif j == 1 and seeded:
            # criterion 5 reads alpha on G_k, and G_1 is the join closure of H_0
            index = src.poset._index
            h0 = product_closure([src], [(index[x],) for x in (*gens, src.top)], joins=False)
            h0 = [src.elements[i] for i, in h0]
            for d in miss:
                level[d] = outer([w for w in h0 if D.leq(d, g.apply(w))])
        else:
            prev, covers = tables[j - 1], _join_covers(D)
            for d in miss:
                level[d] = outer([prev[d]] + [inner([prev[e] for e in E]) for E in covers[d]])
    return tables[k]


def _fixpoint(
    g: Hom, k_cap: int, size_cap: int | None = None, lower: bool = True
) -> int | None:
    """Iterate the tables of one side until two consecutive levels agree on
    every target element.  Returns the first stable level, or None when the
    cap (level or term size) is hit first."""
    for k in range(k_cap):
        cur, nxt = _tables(g, k, lower), _tables(g, k + 1, lower)
        if all(cur[d] == nxt[d] for d in g.target.elements):
            return k
        if size_cap is not None and any(
            term_size(nxt[d]) > size_cap for d in g.target.elements
        ):
            return None
    return None


def beta_stable(g: Hom, d: str, k_cap: int = 64) -> tuple[Term | str, int]:
    """Stabilised least preimage of ``d`` with the witnessing level.

    Finite source: the meet of the preimage, at the first level whose table
    value equals it.  Free source: requires a surjective hom onto a target
    passing the finite lower-boundedness test, which guarantees the level
    iteration reaches a simultaneous fixpoint."""
    return _stable(g, d, k_cap, True)


def alpha_stable(g: Hom, d: str, k_cap: int = 64) -> tuple[Term | str, int]:
    """Greatest preimage of ``d`` with the witnessing level (dual of
    :func:`beta_stable`: the dual target must pass the test)."""
    return _stable(g, d, k_cap, False)


def _preimage_bound(g: Hom, d: str, lower: bool) -> str:
    """Meet (``lower``) or join of the preimage of ``d``, finite source."""
    src: FiniteLattice = g.source  # type: ignore[assignment]
    pre = g.preimage(d)
    return src.meet_set(pre) if lower else src.join_set(pre)


def _stable(g: Hom, d: str, k_cap: int, lower: bool) -> tuple[Term | str, int]:
    g.target.poset.index(d)
    if not g.surjective:
        raise NotSurjective("stabilised preimages need an epimorphism")
    name = "beta" if lower else "alpha"
    if not g.free_source:
        value = _preimage_bound(g, d, lower)
        for k in range(k_cap):
            if _tables(g, k, lower)[d] == value:
                return value, k
        raise CapExceeded(k_cap, f"finite {name} stabilisation")
    if not is_lower_bounded_finite(g._side(lower)).ok:
        raise NotLowerBounded(
            f"{'' if lower else 'dual '}target fails the lower-boundedness test"
        )
    k = _fixpoint(g, k_cap, lower=lower)
    if k is None:
        raise CapExceeded(k_cap, f"{name} stabilisation")
    return _tables(g, k, lower)[d], k


@dataclass(frozen=True)
class HomBoundednessReport:
    """Verdict on lower boundedness of a hom, with the level at which the
    beta table of a free source stabilises (0 for a finite source, None
    when the verdict is no)."""

    lower_bounded: bool
    stable_level: int | None

    def __bool__(self) -> bool:
        return self.lower_bounded


def is_lower_bounded_hom(g: Hom, k_cap: int = 64) -> HomBoundednessReport:
    """Decide lower boundedness of ``g``.  Requires surjectivity and the
    interpolation condition on the target for its generating set (that
    hypothesis makes the generator-only route sound)."""
    if not g.surjective:
        raise NotSurjective("boundedness analysis needs an epimorphism")
    _require_dean(g)
    if not g.free_source:
        return HomBoundednessReport(True, 0)
    if is_lower_bounded_finite(g.target).ok:
        k = _fixpoint(g, k_cap)
        if k is None:
            raise CapExceeded(k_cap, "beta stabilisation")
        for p in g.target.generators:
            if g.apply(_tables(g, k, True)[p]) != p:
                raise NotLowerBounded(f"stable beta value of {p!r} maps elsewhere")
        return HomBoundednessReport(True, k)
    return HomBoundednessReport(False, None)


# --- pair sets and fiber products ---


@dataclass(frozen=True)
class PairSet:
    """Finite set of pairs, each taken from a product of two lattices (ids)
    or of two free lattices (terms)."""

    pairs: frozenset[tuple]

    def __iter__(self):
        """Pairs of ids in their natural order, pairs of terms in the
        structural order of :func:`~latkit.terms.sort_key`, compared on an
        explicit stack so that deep terms cannot overflow it."""
        if any(isinstance(x, Term) for p in self.pairs for x in p):
            return iter(sorted(self.pairs, key=cmp_to_key(_compare_pairs)))
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.pairs

    def __or__(self, other: "PairSet") -> "PairSet":
        return PairSet(self.pairs | other.pairs)

    @classmethod
    def of(cls, items: Iterable[Sequence]) -> "PairSet":
        return cls(frozenset((a, b) for a, b in items))


def _compare_pairs(p, q) -> int:
    for x, y in zip(p, q):
        c = _compare(x, y) if isinstance(x, Term) else (x > y) - (x < y)
        if c:
            return c
    return 0


def fiber_product(g: Hom, h: Hom) -> PairSet:
    """All pairs ``(a, b)`` of source elements with ``g(a) = h(b)``.  Needs
    finite sources and a common target."""
    return _fiber(g, h, False)


def kernel(g: Hom) -> PairSet:
    return fiber_product(g, g)


def order_fiber(g: Hom, h: Hom) -> PairSet:
    """All pairs with ``g(a) <= h(b)``."""
    return _fiber(g, h, True)


def _fiber(g: Hom, h: Hom, above: bool) -> PairSet:
    """Pairs ``(a, b)`` with ``g(a) = h(b)``, or ``g(a) <= h(b)`` when
    ``above``, read from the image groups: each ``a`` in the group of ``d``
    meets the group of ``d`` under ``h``, or the groups of every target
    element above ``d``."""
    _require_finite(g)
    _require_finite(h)
    _require_same_target(g, h)
    T, hg = g.target, h._groups
    if above:
        partners = {
            d: [b for e, bs in hg.items() if T.leq(d, e) for b in bs] for d in g._groups
        }
    else:
        partners = {d: hg.get(d, ()) for d in g._groups}
    return PairSet(frozenset(
        (a, b) for d, As in g._groups.items() for a in As for b in partners[d]
    ))


def sublattice_closure(
    A: FiniteLattice, B: FiniteLattice, pairs: Iterable[Sequence[str]], cap: int = 100000
) -> PairSet:
    """Least subset of ``A x B`` containing ``pairs`` and closed under
    componentwise meet and join."""
    closed = product_closure(
        [A, B], [(A.poset.index(a), B.poset.index(b)) for a, b in pairs], cap, "pair closure"
    )
    return PairSet(frozenset((A.elements[a], B.elements[b]) for a, b in closed))


def fiber_generating_set(g: Hom, h: Hom) -> PairSet:
    """Finite generating set of the fiber product of two bounded
    epimorphisms with finite sources.

    Built from the stable preimage maps: pair each source generator with the
    greatest (resp. least) preimage of its image under the other hom, and
    pair greatest against least preimages over the images of both generator
    sets and the target's generators.  The source generating sets are first
    enlarged until they contain the projections of the produced set."""
    A = _require_finite(g)
    B = _require_finite(h)
    _require_same_target(g, h)
    if not (g.surjective and h.surjective):
        raise NotSurjective("fiber generating set needs epimorphisms")
    _require_dean(g)

    X = set(A.generators)
    Y = set(B.generators)
    while True:
        E = {g.apply(x) for x in X} | {h.apply(y) for y in Y} | set(g.target.generators)
        pairs = {(x, _preimage_bound(h, g.apply(x), False)) for x in X}
        pairs |= {(_preimage_bound(g, h.apply(y), True), y) for y in Y}
        pairs |= {
            (_preimage_bound(g, d, not lower), _preimage_bound(h, d, lower))
            for d in E
            for lower in (True, False)
        }
        nx = X | {a for a, _ in pairs}
        ny = Y | {b for _, b in pairs}
        if nx == X and ny == Y:
            return PairSet.of(pairs)
        X, Y = nx, ny


def check_order_fiber_generation(g: Hom, h: Hom, cap: int = 100000) -> bool:
    """The order variant ``{(a, b) : g(a) <= h(b)}`` is generated by the
    fiber generating set plus the pair (source bottom, other source top)."""
    A = _require_finite(g)
    B = _require_finite(h)
    z = fiber_generating_set(g, h)
    seeded = z | PairSet.of([(A.bottom, B.top)])
    closed = sublattice_closure(A, B, seeded, cap)
    return closed.pairs == order_fiber(g, h).pairs


# --- non-generation certificates over free sources ---


def uniform_beta_bound(pairs: Iterable[Sequence[Term]], g: Hom, h: Hom, cap: int = 64) -> int:
    """Least level ``N`` such that every listed fiber pair ``(a, b)``
    satisfies ``b >= beta_{h,N}(g(a))``.  Existence is guaranteed for pairs
    of the fiber product; the cap only guards against misuse."""
    if not (g.free_source and h.free_source):
        raise UnknownElement("uniform bound needs free sources")
    _require_same_target(g, h)
    best = 0
    for a, b in pairs:
        d = g.apply(a)
        if h.apply(b) != d:
            raise InvalidValue(f"pair is not in the fiber product: {(a, b)}")
        for m in range(cap + 1):
            if _leq(_tables(h, m, True, (d,))[d], b):
                best = max(best, m)
                break
        else:
            raise CapExceeded(cap, "uniform beta bound")
    return best


@dataclass(frozen=True)
class NonGenerationCertificate:
    """A fiber pair outside the sublattice generated by the examined pair
    set.  ``a`` sits in meet-stage ``k`` over the first source, ``d`` is the
    common image, and ``b`` is a preimage of ``d`` strictly below the level
    ``k + n_bound`` beta value (``bound_term``), which every generated pair
    above ``a`` must dominate."""

    a: Term
    b: Term
    d: str
    k: int
    n_bound: int
    bound_term: Term


def non_generation_witness(
    g: Hom,
    h: Hom,
    pairs: Iterable[Sequence[Term]] = (),
    depth_cap: int = 12,
    stage_cap: int = 20000,
) -> NonGenerationCertificate:
    """Produce a fiber pair provably outside the sublattice generated by
    ``pairs``, for free sources onto a common finite target that fails the
    lower-boundedness test.

    Candidate images ``d`` are tried in lexicographic order; for each, the
    smallest meet-stage of the first source containing a preimage of ``d``
    is located by staged enumeration, and the beta chain at ``d`` is walked
    until it drops strictly below its value at the certified level."""
    if not (g.free_source and h.free_source):
        raise UnknownElement("witness construction needs free sources")
    _require_same_target(g, h)
    if not (g.surjective and h.surjective):
        raise NotSurjective("witness construction needs epimorphisms")
    if is_lower_bounded_finite(g.target).ok:
        raise TargetLowerBounded("target passes the lower-boundedness test")
    zs = list(pairs)
    n_bound = uniform_beta_bound(zs, g, h) if zs else 0
    ctx_a: FreeLattice = g.source  # type: ignore[assignment]
    # each H_k is enumerated once; an image is anchored at its first
    # preimage in the first stage that has one
    found: dict[str, tuple[int, Term]] = {}
    for k in range(depth_cap + 1):
        if len(found) == len(g.target.elements):
            break
        try:
            stage = stage_elements(ctx_a, StageIndex(k, "H"), stage_cap)
        except CapExceeded:
            break  # deeper stages are out of reach
        for w in stage:
            found.setdefault(g.apply(w), (k, w))
    anchors = [(d, *found[d]) for d in g.target.elements if d in found]
    # iterative deepening keeps the beta tables shallow when an early
    # candidate merely plateaus while another drops immediately
    windows = sorted({w for w in (2, 4, 8) if w < depth_cap} | {depth_cap})
    for window in windows:
        for d, k, a in anchors:
            base = _tables(h, k + n_bound, True, (d,))[d]
            for m in range(k + n_bound + 1, k + n_bound + 1 + window):
                b = _tables(h, m, True, (d,))[d]
                if term_size(b) > 50000:
                    break  # runaway growth without reaching a preimage of d
                if b is base or _leq(base, b):
                    continue  # no strict decrease yet
                if h.apply(b) != d:
                    continue
                return NonGenerationCertificate(a, b, d, k, n_bound, base)
    raise SearchExhausted("no strictly decreasing beta value within the depth cap")


def verify_non_generation(
    g: Hom, h: Hom, cert: NonGenerationCertificate, pairs: Iterable[Sequence[Term]] = ()
) -> bool:
    """Re-check a certificate from its definition: common image, stage
    membership, bound recomputation and the strict drop."""
    if not (g.free_source and h.free_source):
        raise UnknownElement("witness check needs free sources")
    _require_same_target(g, h)
    ctx_a: FreeLattice = g.source  # type: ignore[assignment]
    if g.apply(cert.a) != cert.d or h.apply(cert.b) != cert.d:
        return False
    if not in_stage(ctx_a, cert.a, StageIndex(cert.k, "H")):
        return False
    zs = list(pairs)
    if zs and cert.n_bound < uniform_beta_bound(zs, g, h):
        return False
    # canonical forms are unique per element and interned
    bound = _tables(h, cert.k + cert.n_bound, True, (cert.d,))[cert.d]
    b = _canon(cert.b)
    return _canon(cert.bound_term) is bound and _leq(b, bound) and not _leq(bound, b)
