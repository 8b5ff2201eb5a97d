"""Shared test-side instance generators and independent oracles.

Everything here is deliberately naive: closure systems for random lattices,
union-find congruence closure for random epimorphisms, brute-force order
oracles.  Test code cross-checks the package against these, so they must
not share implementation shortcuts with it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from latkit import inflated as inf
from latkit.errors import NotALattice
from latkit.order import FiniteLattice, FinitePoset, build_lattice
from latkit.homs import Hom
from latkit.terms import Gen, Join, Meet, Term, gen, join_of, meet_of, sort_key


def covers_from_leq(elements, leq) -> list[tuple[str, str]]:
    out = []
    for a in elements:
        for b in elements:
            if a != b and leq(a, b):
                if not any(
                    c != a and c != b and leq(a, c) and leq(c, b) for c in elements
                ):
                    out.append((a, b))
    return out


def lattice_from_closed_sets(sets) -> FiniteLattice:
    """Finite lattice of an intersection-closed family ordered by inclusion."""
    family = sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    names = {s: f"e{idx:02d}" for idx, s in enumerate(family)}
    by_name = {v: k for k, v in names.items()}
    els = sorted(names.values())
    leq = lambda a, b: by_name[a] <= by_name[b]
    return build_lattice(FinitePoset(els, covers_from_leq(els, leq)))


def random_lattice(rng: random.Random, ground: int = 5, min_size: int = 3,
                   max_size: int = 12) -> FiniteLattice:
    """Random closure system on a small ground set, retried until the size
    lands in range."""
    universe = frozenset(range(ground))
    while True:
        n_seeds = rng.randint(2, ground + 2)
        family = {universe}
        for _ in range(n_seeds):
            family.add(frozenset(i for i in universe if rng.random() < 0.45))
        # close under intersection
        changed = True
        while changed:
            changed = False
            for a, b in list(combinations(sorted(family, key=sorted), 2)):
                c = a & b
                if c not in family:
                    family.add(c)
                    changed = True
        if min_size <= len(family) <= max_size:
            return lattice_from_closed_sets(family)


def congruence_quotient(rng: random.Random, L: FiniteLattice,
                        max_blocks: int = 8) -> tuple[FiniteLattice, Hom] | None:
    """Collapse random pairs, close to a congruence, and return the quotient
    with the canonical projection.  None when the quotient stays too big or
    degenerates to a single block."""
    parent = {e: e for e in L.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            return True
        return False

    for _ in range(rng.randint(1, 3)):
        union(rng.choice(L.elements), rng.choice(L.elements))
    changed = True
    while changed:
        changed = False
        els = L.elements
        for a in els:
            for b in els:
                if find(a) == find(b) and a < b:
                    for c in els:
                        if union(L.meet(a, c), L.meet(b, c)):
                            changed = True
                        if union(L.join(a, c), L.join(b, c)):
                            changed = True
    blocks: dict[str, list[str]] = {}
    for e in L.elements:
        blocks.setdefault(find(e), []).append(e)
    if not 2 <= len(blocks) <= max_blocks:
        return None
    name_of = {}
    for idx, root in enumerate(sorted(blocks)):
        for e in blocks[root]:
            name_of[e] = f"q{idx}"
    quots = sorted(set(name_of.values()))

    def qleq(x, y):
        # [a] <= [b] iff the meet of representatives collapses onto [a]
        a = next(e for e in L.elements if name_of[e] == x)
        b = next(e for e in L.elements if name_of[e] == y)
        return name_of[L.meet(a, b)] == x

    D = build_lattice(FinitePoset(quots, covers_from_leq(quots, qleq)))
    g = Hom(L, D, {e: name_of[e] for e in L.generators})
    return D, g


def random_onto_hom(rng: random.Random, D: FiniteLattice, extra_ground: int = 2,
                    max_size: int = 10) -> Hom | None:
    """Random subdirect-style source: a sublattice of D x K projecting onto
    D, with the projection as the hom."""
    K = random_lattice(rng, ground=extra_ground, min_size=2, max_size=4)
    seed = {(d, rng.choice(K.elements)) for d in D.elements}
    seed.add((D.elements[0], K.elements[0]))
    pairs = sorted(seed)
    seen = set(pairs)
    i = 0
    while i < len(pairs):
        a1, b1 = pairs[i]
        for j in range(i + 1):
            a2, b2 = pairs[j]
            for c in ((D.meet(a1, a2), K.meet(b1, b2)), (D.join(a1, a2), K.join(b1, b2))):
                if c not in seen:
                    seen.add(c)
                    pairs.append(c)
        i += 1
    if len(pairs) > max_size:
        return None
    name_of = {p: f"p{idx:02d}" for idx, p in enumerate(sorted(pairs))}
    by_name = {v: k for k, v in name_of.items()}
    els = sorted(name_of.values())
    leq = lambda x, y: D.leq(by_name[x][0], by_name[y][0]) and K.leq(
        by_name[x][1], by_name[y][1]
    )
    B = build_lattice(FinitePoset(els, covers_from_leq(els, leq)))
    return Hom(B, D, {e: by_name[e][0] for e in B.generators})


def double(L: FiniteLattice, a: str, b: str) -> FiniteLattice:
    """Day's doubling ``L[I]`` of the interval ``I = [a, b]``: the order that
    ``L x 2`` induces on ``(L - (up(a) - I)) x {0}`` together with
    ``up(a) x {1}``.  Elements are renamed ``e00``, ``e01``, ... in the
    order of the pairs."""
    from latkit.order import _covers_from_order

    up = {x for x in L.elements if L.leq(a, x)}
    pairs = sorted([(x, 0) for x in L.elements if x not in up or L.leq(x, b)]
                   + [(x, 1) for x in up])
    name = {p: f"e{i:02d}" for i, p in enumerate(pairs)}
    leq = lambda p, q: p[1] <= q[1] and L.leq(p[0], q[0])
    return build_lattice(FinitePoset(
        list(name.values()), [(name[p], name[q]) for p, q in _covers_from_order(pairs, leq)]))


def random_term(rng: random.Random, names, max_depth: int) -> Term:
    if max_depth == 0 or rng.random() < 0.3:
        return gen(rng.choice(names))
    width = rng.randint(2, 3)
    kids = [random_term(rng, names, max_depth - 1) for _ in range(width)]
    return meet_of(kids) if rng.random() < 0.5 else join_of(kids)


_ORACLE_LEQ: dict[tuple[Term, Term], bool] = {}


def oracle_leq_free(s: Term, t: Term) -> bool:
    """Whitman's recursion for ``s <= t`` in a free lattice, written
    directly (it recurses once per term level), with its own memo."""
    key = (s, t)
    hit = _ORACLE_LEQ.get(key)
    if hit is not None:
        return hit
    if isinstance(s, Join):
        r = all(oracle_leq_free(c, t) for c in s.children)
    elif isinstance(t, Meet):
        r = all(oracle_leq_free(s, c) for c in t.children)
    elif isinstance(s, Gen):
        if isinstance(t, Gen):
            r = s.name == t.name
        else:  # t is a join; generators are join prime
            r = any(oracle_leq_free(s, c) for c in t.children)
    elif isinstance(t, Gen):  # s is a meet; generators are meet prime
        r = any(oracle_leq_free(c, t) for c in s.children)
    else:  # meet against join: the (W) split
        r = any(oracle_leq_free(c, t) for c in s.children) or any(
            oracle_leq_free(s, c) for c in t.children
        )
    _ORACLE_LEQ[key] = r
    return r


def brute_glb(L: FiniteLattice, a: str, b: str) -> str | None:
    lows = [c for c in L.elements if L.leq(c, a) and L.leq(c, b)]
    best = [c for c in lows if all(L.leq(d, c) for d in lows)]
    return best[0] if best else None


def all_terms_up_to(names, depth: int, width: int | None = None,
                    pool_cap: int | None = None) -> list[Term]:
    """Deterministic enumeration of shape-canonical terms of bounded depth.
    ``width`` bounds the child count of new nodes (None = unbounded),
    ``pool_cap`` keeps the per-level pool to the structurally smallest."""
    level: list[Term] = [gen(n) for n in sorted(names)]
    seen: set[Term] = set(level)
    for _ in range(depth):
        meet_pool = [t for t in level if not isinstance(t, Meet)]
        join_pool = [t for t in level if not isinstance(t, Join)]
        new: list[Term] = []
        for pool, combine in ((meet_pool, meet_of), (join_pool, join_of)):
            sizes = range(2, (width or len(pool)) + 1)
            for k in sizes:
                for subset in combinations(pool, k):
                    t = combine(subset)
                    if t not in seen:
                        seen.add(t)
                        new.append(t)
        level = level + new
        if pool_cap is not None and len(level) > pool_cap:
            level = sorted(level, key=lambda t: (term_size_of(t), sort_key(t)))[:pool_cap]
    return sorted(seen, key=lambda t: (term_size_of(t), sort_key(t)))


def term_size_of(t: Term) -> int:
    from latkit.terms import term_size

    return term_size(t)


def stage_elements_oracle(ctx, idx, cap: int = 20000) -> tuple[Term, ...]:
    """The pair-product stage closure that :func:`latkit.stage_elements`
    replaced: every pairwise meet (join) of the members so far is built and
    canonicalised, and canonical forms deduplicate.  Same output, same
    ``CapExceeded`` condition."""
    from latkit.free import _canon
    from latkit.order import closure
    from latkit.terms import term_size

    reps = [_canon(g) for g in ctx.generator_terms]
    for pos in range(idx.position):
        if pos % 2 == 0:  # G_k -> H_k, adjoin the empty meet
            combine, extra = meet_of, ctx.top_term
        else:  # H_k -> G_{k+1}, adjoin the empty join
            combine, extra = join_of, ctx.bottom_term
        reps = closure(
            [*reps, _canon(extra)],
            lambda a, b: (_canon(combine([a, b])),),
            cap,
            "stage enumeration",
        )
    return tuple(sorted(reps, key=lambda t: (term_size(t), sort_key(t))))


def canon_node_oracle(kids: list[Term], own: type) -> Term:
    """The canonical step that :func:`latkit.free._canon_node` replaced, as
    a :func:`latkit.terms.fold` node over canonical children: replace a meet
    child (for a join node) by a meetand below the whole join, else drop a
    child below the join of the rest, and rebuild the join after each
    change.  Dual for meets."""
    from latkit.free import _leq

    if own is Join:
        combine, other, below = join_of, Meet, _leq
    else:
        combine, other, below = meet_of, Join, lambda a, b: _leq(b, a)
    while True:
        t = combine(kids)
        if not isinstance(t, own):
            return t
        kids = list(t.children)
        changed = False
        for i, k in enumerate(kids):
            if isinstance(k, other):
                for u in k.children:
                    if below(u, t):
                        kids[i] = u
                        changed = True
                        break
            if changed:
                break
        if changed:
            continue
        for i, k in enumerate(kids):
            rest = kids[:i] + kids[i + 1 :]
            bound = rest[0] if len(rest) == 1 else combine(rest)
            if below(k, bound):
                kids = rest
                changed = True
                break
        if not changed:
            return t


def canon_oracle(t: Term, memo: dict | None = None) -> Term:
    """The canonical form of ``t`` on :func:`canon_node_oracle`."""
    from latkit.terms import fold

    return fold(t, lambda u, kids: u if type(u) is Gen else canon_node_oracle(kids, type(u)), memo)


def random_big_lattice(rng: random.Random, ground: int, lo: int, hi: int,
                       p: float = 0.55) -> FiniteLattice:
    """Random closure system on ``ground`` points with ``lo`` to ``hi``
    members, built on set bitmasks so that 200-element lattices stay cheap:
    random sets are added, closing under intersection each time."""
    full = (1 << ground) - 1
    while True:
        fam = {full}
        while len(fam) < lo:
            s = sum(1 << i for i in range(ground) if rng.random() < p)
            fam |= {s & x for x in fam}
        if len(fam) <= hi:
            break
    sets = sorted(fam)
    names = [f"e{i:03d}" for i in range(len(sets))]
    # above[i]: indices of the sets strictly containing set i, as a bitmask
    above = [
        sum(1 << j for j, b in enumerate(sets) if a != b and a & b == a) for a in sets
    ]
    covers = []
    for i, up in enumerate(above):
        inner = 0
        for j in range(len(sets)):
            if up >> j & 1:
                inner |= above[j]
        covers += [(names[i], names[j]) for j in range(len(sets)) if (up & ~inner) >> j & 1]
    return build_lattice(FinitePoset(names, covers))


def dual_oracle(L: FiniteLattice) -> FiniteLattice:
    """The dual rebuilt from scratch: flipped covers through the poset and
    lattice constructors, generators checked again."""
    return FiniteLattice(FinitePoset(L.elements, [(hi, lo) for lo, hi in L.poset.covers]),
                         L.generators)


def lower_covers_oracle(P: FinitePoset, e: str) -> tuple[str, ...]:
    """Lower covers of ``e`` by a scan of the whole cover list."""
    return tuple(lo for lo, hi in P.covers if hi == e)


def d_relation_oracle(L: FiniteLattice):
    """The dependency digraph with one witness per edge, by the direct
    definition: ``p -> q`` iff some ``x`` has ``p <= x v q``,
    ``p !<= x v q*`` and ``p !<= q``; the witness is the first such ``x``
    in element order.  Every ``x`` is tried for every edge."""
    ji = [e for e in L.elements if len(lower_covers_oracle(L.poset, e)) == 1]
    edges: dict[str, set[str]] = {p: set() for p in ji}
    witness: dict[tuple[str, str], str] = {}
    for q in ji:
        qstar = lower_covers_oracle(L.poset, q)[0]
        for x in L.elements:
            for p in ji:
                if (L.leq(p, L.join(x, q)) and not L.leq(p, L.join(x, qstar))
                        and not L.leq(p, q)):
                    edges[p].add(q)
                    witness.setdefault((p, q), x)
    return {p: tuple(sorted(qs)) for p, qs in edges.items()}, witness


def antichains_oracle(
    L: FiniteLattice, universe: Sequence[str] | None = None
) -> Iterator[tuple[str, ...]]:
    """All antichains (including the empty one) from ``universe`` in
    lexicographic order."""
    els = sorted(universe) if universe is not None else list(L.elements)
    n = len(els)

    def rec(i: int, chosen: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        yield chosen
        for j in range(i, n):
            c = els[j]
            if all(not L.leq(c, x) and not L.leq(x, c) for x in chosen):
                yield from rec(j + 1, chosen + (c,))

    yield from rec(0, ())


def join_covers_oracle(L: FiniteLattice, elements=None) -> dict[str, list[tuple[str, ...]]]:
    """Minimal nontrivial join covers made of join irreducibles of each of
    ``elements`` (all by default), filtered from every antichain of join
    irreducibles: keep the nontrivial covers that no other nontrivial cover
    refines, in lexicographic order."""
    ji = [e for e in L.elements if len(lower_covers_oracle(L.poset, e)) == 1]
    antichains = list(antichains_oracle(L, ji))

    def refines(C, A):
        return all(any(L.leq(c, a) for a in A) for c in C)

    out = {}
    for d in elements if elements is not None else L.elements:
        cands = [A for A in antichains
                 if L.leq(d, L.join_set(A)) and not any(L.leq(d, a) for a in A)]
        out[d] = [A for A in cands if not any(C != A and refines(C, A) for C in cands)]
    return out


def antichain_scan_oracle(L: FiniteLattice, p_mask: int):
    """The full O(n^4) scan over pairs of two-element antichains behind
    ``check_whitman`` (empty mask) and ``check_dean``: the first ``(S, T)``,
    ``S`` outermost, with ``meet(S) <= join(T)`` and no escape."""
    from latkit.order import ConditionReport

    p_ = L.poset
    down, up, pos, els = p_._down, p_._up, p_._pos, p_.elements
    items = [
        ((els[i], els[j]), 1 << pos[i] | 1 << pos[j], L._meet[i][j], L._join[i][j])
        for i in range(len(els))
        for j in range(i + 1, len(els))
        if L._meet[i][j] not in (i, j)
    ]
    for S, s_mask, m_idx, _ in items:
        for T, t_mask, _, j_idx in items:
            if not (down[j_idx] >> pos[m_idx]) & 1:
                continue  # meet not below join
            if s_mask & down[j_idx]:
                continue  # some s below the join
            if t_mask & up[m_idx]:
                continue  # meet below some t
            if up[m_idx] & down[j_idx] & p_mask:
                continue  # interpolating generator
            return ConditionReport(False, (S, T))
    return ConditionReport(True)


def m_n(n: int) -> FiniteLattice:
    """``M_n``: a bottom, a top and ``n`` pairwise incomparable atoms."""
    atoms = [f"a{i:02d}" for i in range(n)]
    return build_lattice(FinitePoset(["0", "1", *atoms],
                                     [c for a in atoms for c in (("0", a), (a, "1"))]))


def inflated_join_oracle(u: inf.Point, v: inf.Point) -> inf.Point:
    """Least upper bound, by bounded candidate enumeration: candidates up to
    two above the larger input height suffice because any upper bound higher
    in a chain can be stepped down and remain an upper bound."""
    cap = max(u.j, v.j) + 2
    ubs = [w for w in inf._elements_up_to(cap) if inf.leq(u, w) and inf.leq(v, w)]
    mins = [w for w in ubs if not any(x != w and inf.leq(x, w) for x in ubs)]
    if len(mins) != 1:
        raise NotALattice(str(u), str(v), "join")
    return mins[0]


def inflated_meet_oracle(u: inf.Point, v: inf.Point) -> inf.Point:
    cap = max(u.j, v.j) + 2
    lbs = [w for w in inf._elements_up_to(cap) if inf.leq(w, u) and inf.leq(w, v)]
    maxs = [w for w in lbs if not any(x != w and inf.leq(w, x) for x in lbs)]
    if len(maxs) != 1:
        raise NotALattice(str(u), str(v), "meet")
    return maxs[0]


def product_closure_oracle(lats, seed, cap=None, what="closure", meets=True, joins=True):
    """The table closures that :func:`latkit.order.product_closure`
    replaced: :func:`latkit.order.closure` over index tuples, each product
    read from the factors' meet and join tables by one Python call per
    pair.  Same members, same ``CapExceeded`` condition."""
    from latkit.order import closure

    def products(p, q):
        out = []
        if meets:
            out.append(tuple(L._meet[a][b] for L, a, b in zip(lats, p, q)))
        if joins:
            out.append(tuple(L._join[a][b] for L, a, b in zip(lats, p, q)))
        return out

    return closure(seed, products, cap, what)


def fiber_oracle(g: Hom, h: Hom, related) -> frozenset[tuple[str, str]]:
    """The pairs ``(a, b)`` of the two finite sources with
    ``related(g(a), h(b))``, by the scan over the whole product."""
    return frozenset(
        (a, b) for a in g.source.elements for b in h.source.elements
        if related(g.apply(a), h.apply(b))
    )


def stages(g: Hom, k: int) -> tuple[frozenset[str], frozenset[str]]:
    """``(G_k, H_k)`` of a finite source over its designated generators, by
    enumeration: ``G_0`` is the generating set, each ``H`` the meet closure
    with the empty meet (top), each next ``G`` the join closure with the
    empty join (bottom)."""
    return _source_stages(g.source, k)


@lru_cache(maxsize=None)
def _source_stages(src: FiniteLattice, k: int) -> tuple[frozenset[str], frozenset[str]]:
    from latkit.order import closure

    if k == 0:
        gk = frozenset(src.generators)
    else:
        gk = frozenset(closure(_source_stages(src, k - 1)[1] | {src.bottom},
                               lambda a, b: (src.join(a, b),)))
    return gk, frozenset(closure(gk | {src.top}, lambda a, b: (src.meet(a, b),)))


def preimage_oracle(g: Hom, d: str) -> tuple[str, ...]:
    """The source elements mapping to ``d``, by a scan of the source."""
    return tuple(e for e in g.source.elements if g.apply(e) == d)


def fp_closure_oracle(P, names: frozenset[str], ideal: bool) -> frozenset[str]:
    """``names`` closed under the defined joins (``ideal``) or meets of the
    partial lattice ``P`` by the memo-free fixed point: while the arguments
    of some defined join all lie in the set and its value does not, add
    every element below the value (dually above a defined meet)."""
    table = P.joins if ideal else P.meets
    out = set(names)
    grown = True
    while grown:
        grown = False
        for U, w in table.items():
            if w not in out and out.issuperset(U):
                out.update(e for e in P.elements
                           if (P.poset.leq(e, w) if ideal else P.poset.leq(w, e)))
                grown = True
    return frozenset(out)


def fp_mask_oracle(P, t: Term, ideal: bool) -> frozenset[str]:
    """The generators of ``P`` below (``ideal``) or above ``t`` in the
    lattice ``P`` freely generates, by recursion on ``t``: a generator's
    down-set (up-set); at a join (meet) the union of the children's sets
    closed by :func:`fp_closure_oracle`; otherwise their intersection."""
    if type(t) is Gen:
        return frozenset(e for e in P.elements
                         if (P.poset.leq(e, t.name) if ideal else P.poset.leq(t.name, e)))
    kids = [fp_mask_oracle(P, c, ideal) for c in t.children]
    if type(t) is (Join if ideal else Meet):
        return fp_closure_oracle(P, frozenset().union(*kids), ideal)
    return frozenset.intersection(*kids)
