"""Reference lattice code for making the benchmark's inputs and judging its
outputs.

Nothing here imports latkit.  The order of a lattice is held as up-set and
down-set bitmasks over element indices, meets and joins are read off by
matching masks, and the decision procedures are the plain textbook ones, so
a fault in the package cannot hide itself by agreeing with its own oracle.
"""

from __future__ import annotations

import random


class Lat:
    """Finite lattice on ``names`` whose order is given by ``leq(i, j)`` on
    indices."""

    def __init__(self, names, leq):
        n = len(names)
        self.names = list(names)
        self.index = {e: i for i, e in enumerate(self.names)}
        self.up = [sum(1 << j for j in range(n) if leq(i, j)) for i in range(n)]
        self.down = [sum(1 << j for j in range(n) if leq(j, i)) for i in range(n)]
        by_down = {m: i for i, m in enumerate(self.down)}
        by_up = {m: i for i, m in enumerate(self.up)}
        self.meet = [[by_down[self.down[i] & self.down[j]] for j in range(n)] for i in range(n)]
        self.join = [[by_up[self.up[i] & self.up[j]] for j in range(n)] for i in range(n)]
        self.bottom = self.meet_all(range(n))
        self.top = self.join_all(range(n))

    def __len__(self) -> int:
        return len(self.names)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def meet_all(self, items) -> int:
        acc = None
        for i in items:
            acc = i if acc is None else self.meet[acc][i]
        return self.top if acc is None else acc

    def join_all(self, items) -> int:
        acc = None
        for i in items:
            acc = i if acc is None else self.join[acc][i]
        return self.bottom if acc is None else acc

    def dual(self) -> "Lat":
        return Lat(self.names, lambda i, j: self.leq(j, i))

    def lower_covers(self, i: int) -> list[int]:
        below = self.down[i] & ~(1 << i)
        return [j for j in _bits(below) if self.up[j] & below == 1 << j]

    def covers(self) -> list[tuple[int, int]]:
        return [(j, i) for i in range(len(self)) for j in self.lower_covers(i)]

    def to_dict(self, generators=None) -> dict:
        d = {
            "elements": list(self.names),
            "covers": [[self.names[a], self.names[b]] for a, b in self.covers()],
        }
        if generators is not None:
            d["generators"] = [self.names[g] for g in generators]
        return d

    def total_dict(self) -> dict:
        """Partial-lattice document carrying every binary join and meet."""
        d = self.to_dict()
        pairs = [(i, j) for i in range(len(self)) for j in range(i + 1, len(self))]
        for key, table in (("joins", self.join), ("meets", self.meet)):
            d[key] = [[[self.names[i], self.names[j]], self.names[table[i][j]]] for i, j in pairs]
        return d

    @classmethod
    def from_dict(cls, data) -> "Lat":
        names = sorted(data["elements"])
        idx = {e: i for i, e in enumerate(names)}
        above = [1 << i for i in range(len(names))]
        succ = [[] for _ in names]
        for lo, hi in data["covers"]:
            succ[idx[lo]].append(idx[hi])
        changed = True
        while changed:  # transitive closure by relaxation; inputs are small
            changed = False
            for i in range(len(names)):
                m = above[i]
                for j in succ[i]:
                    m |= above[j]
                if m != above[i]:
                    above[i] = m
                    changed = True
        return cls(names, lambda i, j: bool(above[i] >> j & 1))

    def closure(self, seed) -> set[int]:
        """Sublattice generated by ``seed`` under binary meet and join."""
        out = sorted(set(seed))
        seen = set(out)
        k = 0
        while k < len(out):
            a = out[k]
            for b in out[: k + 1]:
                for c in (self.meet[a][b], self.join[a][b]):
                    if c not in seen:
                        seen.add(c)
                        out.append(c)
            k += 1
        return seen

    def minimal_generating_set(self) -> list[int]:
        gens = list(range(len(self)))
        for e in range(len(self)):
            trial = [g for g in gens if g != e]
            if trial and len(self.closure(trial)) == len(self):
                gens = trial
        return gens

    def join_irreducibles(self) -> list[int]:
        return [i for i in range(len(self)) if i != self.bottom and len(self.lower_covers(i)) == 1]

    def lower_bounded(self) -> bool:
        """No cycle in the join-dependency relation: ``p D q`` for join
        irreducibles when ``p !<= q`` and some ``x`` has ``p <= q v x`` but
        ``p !<= q_* v x``."""
        ji = self.join_irreducibles()
        ji_mask = sum(1 << p for p in ji)
        edges = {p: [] for p in ji}
        for q in ji:
            qs = self.lower_covers(q)[0]
            heads = 0
            for x in range(len(self)):
                heads |= self.down[self.join[q][x]] & ~self.down[self.join[qs][x]]
            for p in _bits(heads & ji_mask & ~self.down[q]):
                edges[p].append(q)
        state = dict.fromkeys(ji, 0)  # 0 new, 1 on the stack, 2 done

        def acyclic_from(p) -> bool:
            stack = [(p, iter(edges[p]))]
            state[p] = 1
            while stack:
                node, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    state[node] = 2
                    stack.pop()
                elif state[nxt] == 1:
                    return False
                elif state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(edges[nxt])))
            return True

        return all(state[p] or acyclic_from(p) for p in ji)

    def bounded(self) -> bool:
        return self.lower_bounded() and self.dual().lower_bounded()

    def whitman(self, gens=None) -> bool:
        """Binary form of (W), which is equivalent to the form over finite
        antichains by induction on their sizes; with ``gens`` a generator
        between the meet and the join is a further escape (Dean)."""
        n = len(self)
        gmask = sum(1 << g for g in gens) if gens is not None else 0
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if not self.leq(a, b) and not self.leq(b, a)]
        for a, b in pairs:
            m = self.meet[a][b]
            for c, d in pairs:
                j = self.join[c][d]
                if not self.leq(m, j) or self.leq(a, j) or self.leq(b, j):
                    continue
                if self.leq(m, c) or self.leq(m, d) or self.up[m] & self.down[j] & gmask:
                    continue
                return False
        return True


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- families of lattices ---


def from_sets(family) -> Lat:
    """Lattice of an intersection-closed family of bitmasks under inclusion."""
    sets = sorted(set(family), key=lambda s: (bin(s).count("1"), s))
    width = len(str(len(sets) - 1))
    names = [f"e{k:0{width}d}" for k in range(len(sets))]
    return Lat(names, lambda i, j: sets[i] & sets[j] == sets[i])


def random_lattice(rng: random.Random, ground: int, lo: int, hi: int, p: float = 0.45) -> Lat:
    """Random closure system on ``ground`` points: random sets are added,
    closing under intersection each time, until the family has at least
    ``lo`` members; families that overshoot ``hi`` are dropped."""
    full = (1 << ground) - 1
    while True:
        fam = {full}
        while len(fam) < lo:
            s = sum(1 << i for i in range(ground) if rng.random() < p)
            fam |= {s & x for x in fam}
        if len(fam) <= hi:
            return from_sets(fam)


def chain(n: int) -> Lat:
    return Lat([f"c{i:02d}" for i in range(n)], lambda i, j: i <= j)


def fano() -> Lat:
    """The 16-element lattice: atoms ``a1..a7`` (points of the Fano plane),
    coatoms ``b1..b7`` (lines), ``ai <= bk`` for k = i, i+1, i+3 mod 7."""
    names = ["0", "1"] + [f"a{i}" for i in range(1, 8)] + [f"b{i}" for i in range(1, 8)]
    lines = {i: {(i - 1 + d) % 7 + 1 for d in (0, 1, 3)} for i in range(1, 8)}

    def leq(x, y):
        u, v = names[x], names[y]
        if u == v or u == "0" or v == "1":
            return True
        return u[0] == "a" and v[0] == "b" and int(v[1:]) in lines[int(u[1:])]

    return Lat(names, leq)


M3 = {"elements": ["0", "1", "a", "b", "c"],
      "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]]}
N5 = {"elements": ["0", "1", "a", "b", "c"],
      "covers": [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]]}
SQUARE = {"elements": ["0", "1", "a", "b"],
          "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}


def subdirect(rng: random.Random, D: Lat, K: Lat, lifts: int, max_size: int):
    """Sublattice of ``D x K`` generated by ``lifts`` random lifts of every
    element of ``D``, as a sorted list of index pairs; None when it exceeds
    ``max_size``."""
    seed = {(d, rng.randrange(len(K))) for d in range(len(D)) for _ in range(lifts)}
    out = sorted(seed)
    seen = set(out)
    k = 0
    while k < len(out):
        a1, b1 = out[k]
        for a2, b2 in out[: k + 1]:
            for c in ((D.meet[a1][a2], K.meet[b1][b2]), (D.join[a1][a2], K.join[b1][b2])):
                if c not in seen:
                    seen.add(c)
                    out.append(c)
                    if len(out) > max_size:
                        return None
        k += 1
    return sorted(out)


def product_sublattice(D: Lat, K: Lat, pairs) -> tuple[Lat, list[int]]:
    """The lattice on ``pairs`` (ordered componentwise) and its projection
    onto ``D``."""
    B = Lat([f"p{k:02d}" for k in range(len(pairs))],
            lambda x, y: D.leq(pairs[x][0], pairs[y][0]) and K.leq(pairs[x][1], pairs[y][1]))
    return B, [d for d, _ in pairs]


# --- terms as text ---


def random_term(rng: random.Random, names, depth: int, p_leaf: float = 0.3) -> str:
    if depth == 0 or rng.random() < p_leaf:
        return rng.choice(names)
    kids = [random_term(rng, names, depth - 1, p_leaf) for _ in range(rng.randint(2, 3))]
    return "(" + (" & " if rng.random() < 0.5 else " | ").join(kids) + ")"


def parse(text: str):
    """Term text to nested tuples ``("&" | "|", kids)`` with names as leaves."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in toks:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            items = stack.pop()
            stack[-1].append((items[1], items[0::2]))
        else:
            stack[-1].append(tok)
    (t,) = stack[0]
    return t


def evaluate(L: Lat, env: dict, t) -> int:
    """Value of a parsed term in ``L``; ``env`` maps generator names to
    element indices."""
    if isinstance(t, str):
        return env[t]
    vals = [evaluate(L, env, c) for c in t[1]]
    return L.meet_all(vals) if t[0] == "&" else L.join_all(vals)
