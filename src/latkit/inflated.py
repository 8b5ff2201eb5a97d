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
from typing import Iterable, Iterator

from .errors import NotALattice
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


def _lines_of(i: int) -> tuple[int, int, int]:
    """Spokes k with a(i, _) below b(k, _): i, i+1, i+3 modulo 7 (1-based)."""
    return _LINES[i]


def _tight_lines_of(i: int) -> tuple[int, int]:
    """Spokes where the order additionally reaches one step down: i, i+3."""
    return _TIGHT[i]


_LINES = {
    i: tuple(sorted(((i - 1 + d) % 7) + 1 for d in (0, 1, 3))) for i in range(1, 8)
}
_TIGHT = {
    i: tuple(sorted(((i - 1 + d) % 7) + 1 for d in (0, 3))) for i in range(1, 8)
}


def fano_lattice() -> FiniteLattice:
    """The 16-element base lattice."""
    els = ["0", "1"] + [f"a{i}" for i in range(1, 8)] + [f"b{i}" for i in range(1, 8)]
    covers = [("0", f"a{i}") for i in range(1, 8)]
    covers += [(f"b{k}", "1") for k in range(1, 8)]
    for i in range(1, 8):
        for k in _lines_of(i):
            covers.append((f"a{i}", f"b{k}"))
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
    if v.i in _lines_of(u.i) and u.j <= v.j:
        return True
    return v.i in _tight_lines_of(u.i) and v.j >= 1 and u.j == v.j + 1


@lru_cache(maxsize=64)
def _elements_up_to(j_max: int) -> tuple[Point, ...]:
    out = [BOTTOM, TOP]
    for i in range(1, 8):
        for j in range(j_max + 1):
            out.append(a_el(i, j))
            out.append(b_el(i, j))
    return tuple(out)


def elements_up_to(j_max: int) -> list[Point]:
    """Bounds plus all chain elements with height at most ``j_max``."""
    return list(_elements_up_to(j_max))


@lru_cache(maxsize=None)
def join(u: Point, v: Point) -> Point:
    """Least upper bound, by bounded candidate enumeration: candidates up to
    two above the larger input height suffice because any upper bound higher
    in a chain can be stepped down and remain an upper bound."""
    cap = max(u.j, v.j) + 2
    ubs = [w for w in _elements_up_to(cap) if leq(u, w) and leq(v, w)]
    mins = [w for w in ubs if not any(x != w and leq(x, w) for x in ubs)]
    if len(mins) != 1:
        raise NotALattice(str(u), str(v), "join")
    return mins[0]


@lru_cache(maxsize=None)
def meet(u: Point, v: Point) -> Point:
    cap = max(u.j, v.j) + 2
    lbs = [w for w in _elements_up_to(cap) if leq(w, u) and leq(w, v)]
    maxs = [w for w in lbs if not any(x != w and leq(w, x) for x in lbs)]
    if len(maxs) != 1:
        raise NotALattice(str(u), str(v), "meet")
    return maxs[0]


def collapse(u: Point) -> str:
    """Forget the chain height: the surjection onto the base lattice."""
    if u.kind in ("0", "1"):
        return u.kind
    return f"{u.kind}{u.i}"


def inflation_generators() -> list[Point]:
    """Fourteen elements generating the whole inflated lattice: the two
    lowest entries of every a-chain."""
    return [a_el(i, j) for i in range(1, 8) for j in (0, 1)]


def _closure_within(seed: Iterable[Point], j_cap: int, cap: int = 100000) -> set[Point]:
    """Close under join and meet, discarding elements above the height cap
    (the generation of height-j elements only ever passes through heights
    at most j; the cap just keeps the truncation finite)."""
    return closure(
        seed,
        lambda u, v: [w for w in (join(u, v), meet(u, v)) if w.j <= j_cap],
        cap,
        "inflated closure",
    )


def check_finitely_generated(j_max: int, cap: int = 100000) -> bool:
    """Every element of height at most ``j_max`` lies in the closure of the
    fourteen generators (closure truncated at height ``j_max + 2``)."""
    if j_max < 2:
        raise ValueError("need j_max >= 2")
    closed = _closure_within(inflation_generators(), j_max + 2, cap)
    return all(e in closed for e in elements_up_to(j_max))


def kernel_generators() -> list[tuple[Point, Point]]:
    """Generating pairs for the kernel of ``collapse``: the images of the
    fourteen generators under the two embeddings that pin one coordinate of
    each chain pair to height zero."""
    pairs = []
    for i in range(1, 8):
        for j in (0, 1):
            pairs.append((a_el(i, 0), a_el(i, j)))
            pairs.append((a_el(i, j), a_el(i, 0)))
    return sorted(set(pairs))


def _kernel_pairs_up_to(j_max: int) -> Iterator[tuple[Point, Point]]:
    yield (BOTTOM, BOTTOM)
    yield (TOP, TOP)
    for i in range(1, 8):
        for j in range(j_max + 1):
            for k in range(j_max + 1):
                yield (a_el(i, j), a_el(i, k))
                yield (b_el(i, j), b_el(i, k))


def check_kernel_finitely_generated(j_max: int, cap: int = 400000) -> bool:
    """Every kernel pair with both heights at most ``j_max`` lies in the
    componentwise closure of :func:`kernel_generators` (truncated at height
    ``j_max + 2`` in each coordinate)."""
    if j_max < 2:
        raise ValueError("need j_max >= 2")
    j_cap = j_max + 2

    def products(u, v):
        (u1, u2), (v1, v2) = u, v
        pairs = ((join(u1, v1), join(u2, v2)), (meet(u1, v1), meet(u2, v2)))
        return [w for w in pairs if w[0].j <= j_cap and w[1].j <= j_cap]

    closed = closure(kernel_generators(), products, cap, "kernel closure")
    return all(p in closed for p in _kernel_pairs_up_to(j_max))


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
