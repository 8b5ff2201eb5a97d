"""An infinite lattice built by inflating a finite one, with the collapse
homomorphism back onto it.

The base is the subspace lattice of the 3-dimensional vector space over the
2-element field, presented combinatorially: seven atoms ``a1..a7`` (points
of the Fano plane), seven coatoms ``b1..b7`` (lines), and ``ai <= bk``
exactly when ``k`` is ``i``, ``i+1`` or ``i+3`` modulo 7.

Inflation replaces each atom and coatom by an infinite increasing chain
``a(i,0) < a(i,1) < ...`` and ``b(i,0) < b(i,1) < ...``.  Chains of the
same letter are pairwise incomparable, and between an ``a``-chain and a
``b``-chain the order is

* ``a(i,j) <= b(k,l)`` when ``k`` is ``i``, ``i+1`` or ``i+3`` (mod 7) and
  ``j <= l``, or
* ``a(i,j) <= b(k,l)`` when ``k`` is ``i`` or ``i+3`` (mod 7), ``l >= 1``
  and ``j == l + 1``.

Write ``L(i)`` for the lines through point ``i`` and ``T(i)`` for the two
of them the tight comparison reaches.  For ``k`` in ``L(i)`` the least
``l`` with ``a(i,j) <= b(k,l)`` is ``low(i,j,k) = j - 1`` if ``k`` is in
``T(i)`` and ``j >= 2``, else ``j``; the greatest ``j`` with that bound is
``high(i,k,l) = l + 1`` if ``k`` is in ``T(i)`` and ``l >= 1``, else ``l``.
Of two comparable elements the join is the larger and the meet the
smaller.  Otherwise, with ``k`` the one line through two points and ``i``
the one point on two lines:

* ``a(i,j) v a(i',j') = b(k, max(low(i,j,k), low(i',j',k)))``;
* ``a(i,j) v b(k,l) = b(k, max(l, low(i,j,k)))`` if ``k`` is in ``L(i)``,
  else the top, and two lines join to the top;
* ``b(k,l) ^ b(k',l') = a(i, min(high(i,k,l), high(i,k',l')))``;
* ``a(i,j) ^ b(k,l) = a(i, min(j, high(i,k,l)))`` if ``k`` is in ``L(i)``,
  else the bottom, and two points meet at the bottom.

The height restriction in the tight comparison matters: without it every
componentwise operation on kernel pairs moves both height coordinates by
the same bounded amount, so a finite pair set could only ever generate
kernel pairs of bounded height gap and the kernel would not be finitely
generated at all.  With it, meets of the bottom entries of two line chains
land back on height zero, which is what lets the fourteen-pair copies of
the generators reach every kernel pair.

``collapse`` forgets the chain position.  It is a surjective homomorphism
whose kernel classes are the chains, so no class has a greatest element and
the collapse is not bounded, yet the kernel is generated by finitely many
pairs.  The checks here verify truncations of those claims up to a chain
index, never the full infinite statements.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .order import FiniteLattice, FinitePoset, build_lattice, closure

__all__ = [
    "Point",
    "BOTTOM",
    "TOP",
    "a_el",
    "b_el",
    "fano_lattice",
    "leq",
    "join",
    "meet",
    "collapse",
    "inflation_generators",
    "kernel_generators",
    "check_finitely_generated",
    "check_kernel_finitely_generated",
    "check_collapse_unbounded",
    "elements_up_to",
]


class Point(namedtuple("Point", "kind i j", defaults=(0, 0))):
    """Element of the inflated lattice.  ``kind`` is ``"0"``, ``"1"``,
    ``"a"`` or ``"b"``; chains carry a spoke ``i`` in 1..7 and a height
    ``j >= 0``.  A plain tuple underneath, so hashing and comparison run in
    C."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int = 0, j: int = 0):
        if kind in ("0", "1"):
            if i or j:
                raise ValueError("bounds carry no indices")
        elif kind in ("a", "b"):
            if not 1 <= i <= 7 or j < 0:
                raise ValueError(f"bad chain index ({i}, {j})")
        else:
            raise ValueError(f"bad kind {kind!r}")
        return super().__new__(cls, kind, i, j)

    def __str__(self) -> str:
        if self.kind in ("0", "1"):
            return self.kind
        return f"{self.kind}({self.i},{self.j})"


BOTTOM = Point("0")
TOP = Point("1")


def a_el(i: int, j: int) -> Point:
    return Point("a", i, j)


def b_el(i: int, j: int) -> Point:
    return Point("b", i, j)


# the lines through each point, and the two of them the tight comparison reaches
_LINES = {i: tuple(sorted((i - 1 + d) % 7 + 1 for d in (0, 1, 3))) for i in range(1, 8)}
_TIGHT = {i: tuple(sorted((i - 1 + d) % 7 + 1 for d in (0, 3))) for i in range(1, 8)}


def fano_lattice() -> FiniteLattice:
    """The 16-element base lattice."""
    els = ["0", "1"] + [f"a{i}" for i in range(1, 8)] + [f"b{i}" for i in range(1, 8)]
    covers = [("0", f"a{i}") for i in range(1, 8)] + [(f"b{k}", "1") for k in range(1, 8)]
    covers += [(f"a{i}", f"b{k}") for i in range(1, 8) for k in _LINES[i]]
    return build_lattice(FinitePoset(els, covers))


def leq(u: Point, v: Point) -> bool:
    if u == v or u.kind == "0" or v.kind == "1":
        return True
    if v.kind == "0" or u.kind == "1":
        return False
    if u.kind == v.kind:
        return u.i == v.i and u.j <= v.j
    if u.kind == "b":  # no b-chain element sits below an a-chain element
        return False
    if v.i in _LINES[u.i] and u.j <= v.j:
        return True
    return v.i in _TIGHT[u.i] and v.j >= 1 and u.j == v.j + 1


@lru_cache(maxsize=64)
def _elements_up_to(j_max: int) -> tuple[Point, ...]:
    chains = (mk(i, j) for i in range(1, 8) for j in range(j_max + 1) for mk in (a_el, b_el))
    return (BOTTOM, TOP, *chains)


def elements_up_to(j_max: int) -> list[Point]:
    """Bounds plus all chain elements with height at most ``j_max``."""
    return list(_elements_up_to(j_max))


def _low(i: int, j: int, k: int) -> int:
    return j - 1 if j >= 2 and k in _TIGHT[i] else j


def _high(i: int, k: int, l: int) -> int:
    return l + 1 if l >= 1 and k in _TIGHT[i] else l


@lru_cache(maxsize=None)
def join(u: Point, v: Point) -> Point:
    """Least upper bound, in closed form (see the module docstring)."""
    if leq(u, v) or leq(v, u):
        return v if leq(u, v) else u
    u, v = sorted((u, v))  # incomparable chain elements, a point first if there is one
    if u.kind == "b":
        return TOP
    if v.kind == "a":
        (k,) = set(_LINES[u.i]) & set(_LINES[v.i])
        return b_el(k, max(_low(u.i, u.j, k), _low(v.i, v.j, k)))
    return b_el(v.i, max(v.j, _low(u.i, u.j, v.i))) if v.i in _LINES[u.i] else TOP


@lru_cache(maxsize=None)
def meet(u: Point, v: Point) -> Point:
    """Greatest lower bound, in closed form (see the module docstring)."""
    if leq(u, v) or leq(v, u):
        return u if leq(u, v) else v
    u, v = sorted((u, v))
    if v.kind == "a":
        return BOTTOM
    if u.kind == "b":
        (i,) = (p for p in _LINES if u.i in _LINES[p] and v.i in _LINES[p])
        return a_el(i, min(_high(i, u.i, u.j), _high(i, v.i, v.j)))
    return a_el(u.i, min(u.j, _high(u.i, v.i, v.j))) if v.i in _LINES[u.i] else BOTTOM


def collapse(u: Point) -> str:
    """Forget the chain height: the surjection onto the base lattice."""
    return u.kind if u.kind in ("0", "1") else f"{u.kind}{u.i}"


def inflation_generators() -> list[Point]:
    """Fourteen elements generating the whole inflated lattice: the two
    lowest entries of every a-chain."""
    return [a_el(i, j) for i in range(1, 8) for j in (0, 1)]


def _tables(j_cap: int) -> tuple[list[list[int]], list[list[int]]]:
    """Join and meet tables over the indices of ``elements_up_to(j_cap)``,
    with -1 for a result above the cap."""
    els = _elements_up_to(j_cap)
    index = {e: n for n, e in enumerate(els)}
    joins, meets = [[-1] * len(els) for _ in els], [[-1] * len(els) for _ in els]
    for x, u in enumerate(els):
        for y, v in enumerate(els[: x + 1]):
            joins[x][y] = joins[y][x] = index.get(join(u, v), -1)
            meets[x][y] = meets[y][x] = index.get(meet(u, v), -1)
    return joins, meets


def check_finitely_generated(j_max: int, cap: int = 100000) -> bool:
    """Every element of height at most ``j_max`` lies in the closure of the
    fourteen generators, truncated at height ``j_max + 2`` (the generation
    of height-j elements only ever passes through heights at most j; the
    truncation just keeps the closure finite)."""
    if j_max < 2:
        raise ValueError("need j_max >= 2")
    els, (joins, meets) = _elements_up_to(j_max + 2), _tables(j_max + 2)
    closed = closure([els.index(g) for g in inflation_generators()],
                     lambda p, q: [w for w in (joins[p][q], meets[p][q]) if w >= 0],
                     cap, "inflated closure")
    return all(els.index(e) in closed for e in elements_up_to(j_max))


def kernel_generators() -> list[tuple[Point, Point]]:
    """Generating pairs for the kernel of ``collapse``: the images of the
    fourteen generators under the two embeddings that pin one coordinate of
    each chain pair to height zero."""
    pairs = {(a_el(i, 0), a_el(i, j)) for i in range(1, 8) for j in (0, 1)}
    return sorted(pairs | {(v, u) for u, v in pairs})


def check_kernel_finitely_generated(j_max: int, cap: int = 400000) -> bool:
    """Every kernel pair with both heights at most ``j_max`` lies in the
    componentwise closure of :func:`kernel_generators` (truncated at height
    ``j_max + 2`` in each coordinate)."""
    if j_max < 2:
        raise ValueError("need j_max >= 2")
    els, (joins, meets) = _elements_up_to(j_max + 2), _tables(j_max + 2)

    def products(p, q):
        (p1, p2), (q1, q2) = p, q
        pairs = ((joins[p1][q1], joins[p2][q2]), (meets[p1][q1], meets[p2][q2]))
        return [w for w in pairs if w[0] >= 0 and w[1] >= 0]

    seed = [(els.index(u), els.index(v)) for u, v in kernel_generators()]
    closed = {(els[p], els[q]) for p, q in closure(seed, products, cap, "kernel closure")}
    checked = elements_up_to(j_max)
    return all((u, v) in closed for u in checked for v in checked if collapse(u) == collapse(v))


def check_collapse_unbounded(j_max: int) -> bool:
    """Every kernel class contains, for each height up to ``j_max``, a
    strictly larger member, so no class has a greatest element."""
    if j_max < 0:
        raise ValueError("need j_max >= 0")
    for i in range(1, 8):
        for j in range(j_max + 1):
            for mk in (a_el, b_el):
                lo, hi = mk(i, j), mk(i, j + 1)
                if not (leq(lo, hi) and not leq(hi, lo) and collapse(lo) == collapse(hi)):
                    return False
            if collapse(a_el(i, j)) == "1" or collapse(b_el(i, j)) == "1":
                return False
    return True
