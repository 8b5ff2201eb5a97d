"""Judges a round's answers with the reference code in ``lat``.

Each checker returns ``(failed, wrong)``: ``failed`` counts operations the
program did not complete (an exception, an error exit, a document its own
re-check refuses) and ``wrong`` lists answers that contradict what is known
apart from the program.
"""

from __future__ import annotations

import itertools
import json
import random

from lat import M3, Lat, evaluate, parse

# Stage sets whose size is known: G_1 of the free lattice on n generators
# maps one to one onto the free distributive lattice (Dedekind number minus
# the two constants), and H_0 is the 2^n - 1 meets of generators plus the
# conventional empty meet, the join of all generators.
STAGE_SIZES = {(1, "G"): {3: 18, 4: 166}, (0, "H"): {n: 2 ** n for n in range(1, 9)}}


def _holds_everywhere(models, names, s, t, rng, equal=False) -> bool:
    """``s <= t`` (or ``s = t``) under three random assignments into each
    model."""
    for M in models:
        for _ in range(3):
            env = {x: rng.randrange(len(M)) for x in names}
            a, b = evaluate(M, env, s), evaluate(M, env, t)
            if (a != b) if equal else not M.leq(a, b):
                return False
    return True


def fp_word(doc, truth, outputs):
    failed, wrong = 0, []
    rng = random.Random(0)
    for k, (op, yes) in enumerate(zip(doc["ops"], outputs)):
        if isinstance(yes, dict):
            failed += 1
            continue
        _, name, s_text, t_text = op
        s, t = parse(s_text), parse(t_text)
        L = truth["totals"].get(name, truth["sources"].get(name))
        if L is not None:
            holds = L.leq(evaluate(L, L.index, s), evaluate(L, L.index, t))
            exact = name in truth["totals"]
            if (yes != holds) if exact else (yes and not holds):
                wrong.append(f"op {k}: {name} {s_text} <= {t_text} answered {yes}")
        elif yes and not _holds_everywhere(truth["models"], ["x", "y", "z"], s, t, rng):
            wrong.append(f"op {k}: antichain {s_text} <= {t_text} fails in a model")
    return failed, wrong


def _fd_value(n: int, names, t) -> int:
    """Value in the free distributive lattice: a monotone Boolean function
    as the bitmask of the assignments (subsets of the generators) where it
    is true."""
    if isinstance(t, str):
        i = names.index(t)
        return sum(1 << a for a in range(1 << n) if a >> i & 1)
    vals = [_fd_value(n, names, c) for c in t[1]]
    acc = vals[0]
    for v in vals[1:]:
        acc = acc & v if t[0] == "&" else acc | v
    return acc


def _meet_of_gens(t) -> bool:
    return isinstance(t, str) or (t[0] == "&" and all(isinstance(c, str) for c in t[1]))


def _in_stage(t, names, which: str) -> bool:
    """Syntactic membership in ``G_1`` (joins of meets of generators) or in
    ``H_0`` (meets of generators, or the join of all of them)."""
    if which == "H":
        return _meet_of_gens(t) or (t[0] == "|" and all(isinstance(c, str) for c in t[1])
                                    and sorted(t[1]) == sorted(names))
    return _meet_of_gens(t) or (t[0] == "|" and all(_meet_of_gens(c) for c in t[1]))


def free_preimage(doc, truth, outputs):
    failed, wrong = 0, []
    rng = random.Random(0)
    lats, models = truth["lattices"], truth["models"]
    for k, (op, out) in enumerate(zip(doc["ops"], outputs)):
        if "error" in out:
            failed += 1
            continue
        kind = op[0]
        if kind == "stable":
            _, tname, names, images = op
            D = lats[tname]
            env = {x: D.index[v] for x, v in images.items()}
            for side in ("beta", "alpha"):
                for d, text in out[side].items():
                    if evaluate(D, env, parse(text)) != D.index[d]:
                        wrong.append(f"op {k}: stable {side} of {d} maps elsewhere")
            if not out["lower_bounded"]:
                wrong.append(f"op {k}: bounded target {tname} judged not lower bounded")
        elif kind == "witness":
            _, tname, names, images_g, images_h, _ = op
            D = lats[tname]
            d = D.index.get(out["d"])
            a = evaluate(D, {x: D.index[v] for x, v in images_g.items()}, parse(out["a"]))
            b = evaluate(D, {x: D.index[v] for x, v in images_h.items()}, parse(out["b"]))
            if not (out["verified"] and a == d == b):
                wrong.append(f"op {k}: certificate a, b, d disagree or do not verify")
        elif kind == "stage":
            _, names, level, which = op
            terms = [parse(text) for text in out["stage"]]
            values = {_fd_value(len(names), names, t) for t in terms}
            expected = STAGE_SIZES[(level, which)][len(names)]
            if not all(_in_stage(t, names, which) for t in terms) \
                    or len(values) != expected or len(terms) != expected:
                wrong.append(f"op {k}: stage ({level}, {which}) on {len(names)} generators "
                             f"is not the {expected}-element one")
        else:
            names = op[1]
            for (s_text, t_text), (yes, canon) in zip(op[2], out["answers"]):
                s, t = parse(s_text), parse(t_text)
                if yes and not _holds_everywhere(models, names, s, t, rng):
                    wrong.append(f"op {k}: {s_text} <= {t_text} fails in a model")
                if not _holds_everywhere(models, names, s, parse(canon), rng, equal=True):
                    wrong.append(f"op {k}: canonical form of {s_text} differs in a model")
    return failed, wrong


def finite_fiber(doc, truth, outputs):
    failed, wrong = 0, []
    lats, maps, homs = truth["lattices"], truth["maps"], truth["homs"]
    for k, (op, out) in enumerate(zip(doc["ops"], outputs)):
        if "error" in out:
            failed += 1
            continue
        kind = op[0]
        if kind == "fiber":
            A, B = lats[homs[op[1]][0]], lats[homs[op[2]][0]]
            g, h = maps[op[1]], maps[op[2]]
            fiber = {(A.names[a], B.names[b])
                     for a, b in itertools.product(range(len(A)), range(len(B))) if g[a] == h[b]}
            if {tuple(p) for p in out["closure"]} != fiber or not out["same_as_fiber_product"]:
                wrong.append(f"op {k}: closure of the generating set is not the fiber product")
        elif kind == "levels":
            src, tgt, _ = homs[op[1]]
            A, D, g = lats[src], lats[tgt], maps[op[1]]
            for d, alphas in out["alpha"].items():
                di = D.index[d]
                al = [A.index[a] for a in alphas]
                be = [A.index[b] for b in out["beta"][d]]
                if not (all(D.leq(g[a], di) for a in al) and all(D.leq(di, g[b]) for b in be)
                        and all(A.leq(x, y) for x, y in zip(al, al[1:]))
                        and all(A.leq(y, x) for x, y in zip(be, be[1:]))):
                    wrong.append(f"op {k}: level maps of {op[1]} at {d} out of order")
        elif kind == "bounded":
            if out["verdict"] != truth["bounded"][op[1]]:
                wrong.append(f"op {k}: boundedness of {op[1]} answered {out['verdict']}")
        elif kind in ("whitman", "dean"):
            if out["verdict"] != truth[kind][op[1]]:
                wrong.append(f"op {k}: {kind} on {op[1]} answered {out['verdict']}")
        elif out["verdict"] is not True:  # order fibers and the inflated claims are theorems
            wrong.append(f"op {k}: {kind} answered {out['verdict']}")
    return failed, wrong


def finite_fiber_truth(doc, truth) -> None:
    """Verdicts that do not change between rounds, computed once per run."""
    lats = truth["lattices"]
    truth["bounded"], truth["whitman"], truth["dean"] = {}, {}, {}
    for op in doc["ops"]:
        L = lats.get(op[1]) if isinstance(op[1], str) else None
        if op[0] == "bounded":
            truth["bounded"][op[1]] = [L.lower_bounded(), L.dual().lower_bounded()]
        elif op[0] == "whitman":
            truth["whitman"][op[1]] = L.whitman()
        elif op[0] == "dean":
            truth["dean"][op[1]] = L.whitman([L.index[g] for g in op[2]])


def cli_certify(ops, outputs):
    failed, wrong = 0, []
    m3 = Lat.from_dict(M3)
    for k, (op, out) in enumerate(zip(ops, outputs)):
        if "error" in out or out["exit"] not in (0, 1):
            failed += 1
            continue
        if out["exit"] != op["exit"]:
            wrong.append(f"op {k}: latkit {' '.join(op['argv'])} exited {out['exit']}, "
                         f"expected {op['exit']}")
            continue
        doc = json.loads(out["doc"])
        if "stage_size" in op:
            sizes = [len(c["stage_lattice"]["elements"]) for c in doc["certificate"].values()]
            if sizes != [op["stage_size"]] * 2:
                wrong.append(f"op {k}: stage lattices of sizes {sizes}, "
                             f"expected {op['stage_size']}")
        if "images" in op:
            cert = doc["certificate"]
            vals = [evaluate(m3, {x: m3.index[v] for x, v in images.items()}, parse(cert[side]))
                    for images, side in zip(op["images"], ("a", "b"))]
            if vals != [m3.index.get(cert["d"])] * 2:
                wrong.append(f"op {k}: certificate a, b, d disagree")
        if out["verify_exit"] != 0:
            failed += 1
    return failed, wrong
