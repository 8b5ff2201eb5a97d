"""Seeded inputs for the four workloads.

Each generator returns ``(doc, truth)``.  ``doc`` is everything the program
receives: lattice documents in the CLI's JSON format, term text and the list
of operations.  ``truth`` stays with the benchmark and carries what the
checks need to judge the answers without latkit.
"""

from __future__ import annotations

import random

from lat import (
    M3,
    N5,
    SQUARE,
    Lat,
    chain,
    evaluate,
    fano,
    parse,
    product_sublattice,
    random_lattice,
    random_term,
    subdirect,
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _models(rng: random.Random) -> list[Lat]:
    """Lattices in which a free-lattice inequality must survive evaluation."""
    return [random_lattice(rng, ground=4, lo=5, hi=9) for _ in range(4)] + \
        [Lat.from_dict(M3), Lat.from_dict(N5)]


def _partial(rng: random.Random, L: Lat) -> dict:
    """Keep about half of the joins and meets of incomparable pairs."""
    d = L.to_dict()
    n = len(L)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not L.leq(i, j) and not L.leq(j, i)]
    d["joins"] = [[[L.names[i], L.names[j]], L.names[L.join[i][j]]]
                  for i, j in pairs if rng.random() < 0.5]
    d["meets"] = [[[L.names[i], L.names[j]], L.names[L.meet[i][j]]]
                  for i, j in pairs if rng.random() < 0.5]
    return d


# fp-word: queries per presentation; 2000 operations in all.
FP_QUERIES = {"2x2": 200, "N5": 200, "M3": 200, "L": 800, "A3": 200,
              "P1": 134, "P2": 133, "P3": 133}


def fp_word(seed: int):
    rng = _rng("fp-word", seed)
    totals = {"2x2": Lat.from_dict(SQUARE), "N5": Lat.from_dict(N5),
              "M3": Lat.from_dict(M3), "L": fano()}
    sources = {f"P{k}": random_lattice(rng, ground=5, lo=9, hi=10) for k in (1, 2, 3)}
    pres = {name: L.total_dict() for name, L in totals.items()}
    pres["A3"] = {"elements": ["x", "y", "z"], "covers": []}
    pres.update({name: _partial(rng, L) for name, L in sources.items()})
    ops = []
    for name, count in FP_QUERIES.items():
        names = pres[name]["elements"]
        ops += [["leq", name, random_term(rng, names, 3), random_term(rng, names, 3)]
                for _ in range(count)]
    rng.shuffle(ops)
    truth = {"totals": totals, "sources": sources, "models": _models(rng)}
    return {"presentations": pres, "ops": ops}, truth


# free-preimage: 200 operations.  The seed does not change the cost of a
# stage enumeration (fresh generator names make each one isomorphic to the
# last), and the counts put such operations, and the near-uniform witness
# searches, at the ranks of the median and of the tail latency.
FREE_STAGES = [(3, 1, "G")] * 30 + [(7, 0, "H")] * 20 + [(4, 1, "G")] * 2
FREE_WITNESS = 80
FREE_WITNESS_PAIRS = 12
FREE_BATCHES = 30
FREE_BATCH_PAIRS = 20
FREE_STABLE = 38


def _fiber_pairs(rng, names, images_g, images_h, m3: Lat, count: int) -> list[list[str]]:
    """``count`` pairs ``(a, b)`` of depth-2 terms with ``g(a) = h(b)``."""
    env_g = {x: m3.index[v] for x, v in images_g.items()}
    env_h = {x: m3.index[v] for x, v in images_h.items()}
    by_value: dict[int, list[str]] = {}
    for _ in range(100):
        t = random_term(rng, names, 2)
        by_value.setdefault(evaluate(m3, env_h, parse(t)), []).append(t)
    pairs = []
    while len(pairs) < count:
        a = random_term(rng, names, 2)
        d = evaluate(m3, env_g, parse(a))
        if d in by_value:
            pairs.append([a, rng.choice(by_value[d])])
    return pairs


def free_preimage(seed: int):
    rng = _rng("free-preimage", seed)
    targets: dict[str, dict] = {"m3": M3}
    lats: dict[str, Lat] = {"m3": Lat.from_dict(M3)}
    ops = []
    while len(ops) < FREE_STABLE:
        D = random_lattice(rng, ground=5, lo=8, hi=10)
        if not D.bounded():
            continue
        tname = f"t{len(ops)}"
        targets[tname], lats[tname] = D.to_dict(), D
        gens = D.minimal_generating_set()
        names = [f"s{len(ops)}_{i}" for i in range(len(gens))]
        ops.append(["stable", tname, names, {x: D.names[g] for x, g in zip(names, gens)}])
    for w in range(FREE_WITNESS):
        names = [f"w{w}_{c}" for c in "xyz"]
        images_g = dict(zip(names, rng.sample(["a", "b", "c"], 3)))
        images_h = dict(zip(names, rng.sample(["a", "b", "c"], 3)))
        pairs = _fiber_pairs(rng, names, images_g, images_h, lats["m3"], FREE_WITNESS_PAIRS)
        ops.append(["witness", "m3", names, images_g, images_h, pairs])
    for s, (n, k, which) in enumerate(FREE_STAGES):
        ops.append(["stage", [f"g{s}_{i}" for i in range(n)], k, which])
    for b in range(FREE_BATCHES):
        names = [f"f{b}_{i}" for i in range(rng.choice((3, 4)))]
        ops.append(["free", names, [[random_term(rng, names, 5), random_term(rng, names, 5)]
                                    for _ in range(FREE_BATCH_PAIRS)]])
    rng.shuffle(ops)
    return {"targets": targets, "ops": ops}, {"lattices": lats, "models": _models(rng)}


# finite-fiber: 200 operations.  Fiber products are held to a window of
# sizes so that the fiber operations, which sit at the median latency, cost
# about the same on every seed; the 200-element cycle tests, whose cost
# varies little, sit at the tail.
FIBER_PAIRS = 70  # fiber operations
FIBER_SIZE = (90, 130)
FIBER_LEVELS = 54  # level-map operations, levels 0..4, on the first pairs
FIBER_ORDER = 20  # order-fiber operations, on pairs with small order fibers
FIBER_ORDER_MAX = 260
FIBER_BIG = 30
FIBER_SMALL = 12  # each gives one Whitman and one Dean operation
FIBER_INFLATED = [["inflated-gen", 2], ["inflated-kernel", 2]]


def finite_fiber(seed: int):
    rng = _rng("finite-fiber", seed)
    lattices: dict[str, dict] = {}
    lats: dict[str, Lat] = {}
    homs: dict[str, list] = {}
    maps: dict[str, list[int]] = {}
    ops = []

    def add(name: str, L: Lat, gens=None) -> None:
        lattices[name], lats[name] = L.to_dict(gens), L

    def add_hom(name, src, tgt, block, gens) -> None:
        A, D = lats[src], lats[tgt]
        homs[name] = [src, tgt, {A.names[e]: D.names[block[e]] for e in gens}]
        maps[name] = block

    quota = {"fiber": FIBER_PAIRS, "levels": FIBER_LEVELS, "order": FIBER_ORDER}
    k = 0
    while any(quota.values()):
        D = random_lattice(rng, ground=4, lo=3, hi=8)
        K1, K2 = (random_lattice(rng, ground=4, lo=4, hi=8) for _ in range(2))
        pairs_a = subdirect(rng, D, K1, lifts=3, max_size=30)
        pairs_b = subdirect(rng, D, K2, lifts=2, max_size=40)
        if pairs_a is None or pairs_b is None or len(pairs_a) < 20:
            continue
        cells = [(a, b) for a, _ in pairs_a for b, _ in pairs_b]
        fiber = sum(1 for a, b in cells if a == b)
        order = sum(1 for a, b in cells if D.leq(a, b))
        kinds = [kind for kind in ("fiber", "levels") if quota[kind]]
        if quota["order"] and order <= FIBER_ORDER_MAX:
            kinds.append("order")
        if not FIBER_SIZE[0] <= fiber <= FIBER_SIZE[1] or kinds == ["levels"]:
            continue
        A, block_g = product_sublattice(D, K1, pairs_a)
        B, block_h = product_sublattice(D, K2, pairs_b)
        gens_a, gens_b = A.minimal_generating_set(), B.minimal_generating_set()
        add(f"A{k}", A, gens_a)
        add(f"B{k}", B, gens_b)
        add(f"D{k}", D)
        add_hom(f"g{k}", f"A{k}", f"D{k}", block_g, gens_a)
        add_hom(f"h{k}", f"B{k}", f"D{k}", block_h, gens_b)
        for kind in kinds:
            quota[kind] -= 1
            ops.append([kind, f"g{k}", 4] if kind == "levels" else [kind, f"g{k}", f"h{k}"])
        k += 1
    for k in range(FIBER_BIG):
        add(f"big{k}", random_lattice(rng, ground=14, lo=190, hi=210, p=0.55))
        ops.append(["bounded", f"big{k}"])
    for k in range(FIBER_SMALL):
        L = random_lattice(rng, ground=6, lo=12, hi=16)
        gens = L.minimal_generating_set()
        add(f"small{k}", L)
        ops += [["whitman", f"small{k}"], ["dean", f"small{k}", [L.names[g] for g in gens]]]
    ops += FIBER_INFLATED
    rng.shuffle(ops)
    return ({"lattices": lattices, "homs": homs, "ops": ops},
            {"lattices": lats, "maps": maps, "homs": homs})


# cli-certify: 80 operations, each one command and one re-check.
CLI_BOUNDED = 16
CLI_WHITMAN = 16
CLI_DEAN = 16
CLI_FP_TOTAL = 6
CLI_FP_ANTICHAIN = (3, 4)
CLI_FP_GENERATORS = 10
CLI_WITNESS = 13
CLI_WITNESS_PAIRS = 8


def cli_certify(seed: int):
    """Returns ``(files, ops)``: fixture documents by file name and, for each
    operation, its argv after ``latkit --json``, the exit code known apart
    from the program, and any further facts the emitted document must show."""
    rng = _rng("cli-certify", seed)
    files: dict[str, dict] = {}
    ops = []
    for k in range(CLI_BOUNDED):
        L = random_lattice(rng, ground=5, lo=8, hi=16)
        files[f"bounded{k}.json"] = L.to_dict()
        ops.append({"argv": ["lattice", "bounded", f"bounded{k}.json"],
                    "exit": 0 if L.bounded() else 1})
    for k in range(CLI_WHITMAN):
        L = random_lattice(rng, ground=5, lo=8, hi=16)
        files[f"whitman{k}.json"] = L.to_dict()
        ops.append({"argv": ["lattice", "whitman", f"whitman{k}.json"],
                    "exit": 0 if L.whitman() else 1})
    for k in range(CLI_DEAN):
        L = random_lattice(rng, ground=5, lo=8, hi=16)
        gens = L.minimal_generating_set()
        files[f"dean{k}.json"] = L.to_dict()
        ops.append({"argv": ["lattice", "dean", f"dean{k}.json", "--generators",
                             ",".join(L.names[g] for g in gens)],
                    "exit": 0 if L.whitman(gens) else 1})
    # A total presentation generates its own lattice: the fixed 16-element
    # one and seeded random ones.
    totals = [fano()] + [random_lattice(rng, ground=4, lo=6, hi=10)
                         for _ in range(CLI_FP_TOTAL - 1)]
    for k, L in enumerate(totals):
        files[f"total{k}.json"] = L.total_dict()
        ops.append({"argv": ["fp", "bounded", f"total{k}.json"],
                    "exit": 0 if L.bounded() else 1, "stage_size": len(L)})
    # The antichain on n generators: its join-closure stage is the 2^n
    # element Boolean lattice, which is bounded.
    for n in CLI_FP_ANTICHAIN:
        files[f"antichain{n}.json"] = {"elements": [f"x{i}" for i in range(n)], "covers": []}
        ops.append({"argv": ["fp", "bounded", f"antichain{n}.json"],
                    "exit": 0, "stage_size": 2 ** n})
    for k in range(CLI_FP_GENERATORS):
        L = random_lattice(rng, ground=4, lo=6, hi=10)
        picks = sorted(rng.sample(range(len(L)), 3))
        sub = sorted(L.closure(picks))
        S = Lat([L.names[e] for e in sub], lambda i, j: L.leq(sub[i], sub[j]))
        files[f"gens{k}.json"] = L.total_dict()
        ops.append({"argv": ["fp", "bounded", f"gens{k}.json", "--generators",
                             ";".join(L.names[e] for e in picks)],
                    "exit": 0 if S.bounded() else 1, "stage_size": len(S)})
    m3 = Lat.from_dict(M3)
    files["m3.json"] = M3
    names = ["x", "y", "z"]
    for k in range(CLI_WITNESS):
        images_g = dict(zip(names, rng.sample(["a", "b", "c"], 3)))
        images_h = dict(zip(names, rng.sample(["a", "b", "c"], 3)))
        pairs = _fiber_pairs(rng, names, images_g, images_h, m3, CLI_WITNESS_PAIRS)
        files[f"pairs{k}.json"] = {"pairs": pairs}
        ops.append({"argv": ["witness", "--target", "m3.json", "--free-a", "x,y,z",
                             "--free-b", "x,y,z",
                             "--images-g", ",".join(f"{x}={v}" for x, v in images_g.items()),
                             "--images-h", ",".join(f"{x}={v}" for x, v in images_h.items()),
                             "--zfile", f"pairs{k}.json"],
                    "exit": 0, "images": [images_g, images_h]})
    # Known fault: the chain satisfies (W), the document says so, and the
    # re-check refuses it because it re-runs the check under the 20-element
    # cap.  The input does not depend on the seed.
    files["chain24.json"] = chain(24).to_dict()
    ops.append({"argv": ["lattice", "whitman", "chain24.json", "--cap", "30"], "exit": 0})
    rng.shuffle(ops)
    return files, ops


GENERATORS = {"fp-word": fp_word, "free-preimage": free_preimage,
              "finite-fiber": finite_fiber}
