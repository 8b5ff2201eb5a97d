"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line so the run
reads as a checklist.  Tolerances are pinned here: every property check
demands zero violations, the timed checks carry their stated budgets, and
sampling sizes are written out explicitly.
"""

import itertools
import random
import time

from helpers import (
    all_terms_up_to,
    congruence_quotient,
    random_lattice,
    random_onto_hom,
    random_term,
    stages,
)
from latkit import inflated as inf
from latkit.free import FreeLattice, StageIndex, eq_free, in_stage, leq_free
from latkit.homs import (
    Hom,
    _fixpoint as _beta_fixpoint,
    alpha_k,
    beta_k,
    check_order_fiber_generation,
    fiber_generating_set,
    fiber_product,
    non_generation_witness,
    sublattice_closure,
    verify_non_generation,
)
from latkit.order import (
    FinitePoset,
    build_lattice,
    chain,
    check_dean,
    is_lower_bounded_finite,
    join_irreducibles,
    minimal_generating_set,
)
from latkit.partial_lattice import antichain, from_finite_lattice, is_lower_bounded_fp, leq_fp
from latkit.terms import Gen, Meet, Term, gen, meet_of, parse


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _eval_factory(L, env):
    memo = {}

    def ev(t):
        v = memo.get(t)
        if v is None:
            if isinstance(t, Gen):
                v = env[t.name]
            else:
                vals = [ev(c) for c in t.children]
                v = L.meet_set(vals) if isinstance(t, Meet) else L.join_set(vals)
            memo[t] = v
        return v

    return ev


def test_criterion_1_free_lattice_on_two_generators():
    start = time.perf_counter()
    ctx = FreeLattice(["x", "y"])
    terms = all_terms_up_to(["x", "y"], 3)
    classes: list[Term] = []
    for t in terms:
        if not any(eq_free(ctx, t, rep) for rep in classes):
            classes.append(t)
    elapsed = time.perf_counter() - start
    expected = {gen("x"), gen("y"), parse("(x & y)"), parse("(x | y)")}
    ok = set(classes) == expected and elapsed < 1.0
    _report(
        1,
        ok,
        f"{len(terms)} depth<=3 terms over two generators fall into "
        f"{len(classes)} classes in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_whitman_soundness():
    rng = random.Random(2024)
    ctx = FreeLattice(["x", "y", "z"])
    pool = [random_term(rng, ["x", "y", "z"], 3) for _ in range(600)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(10000)]
    # bias in related pairs so the implication is exercised, not vacuous
    for i in range(0, 3000, 3):
        s, t = pairs[i]
        pairs[i] = (meet_of([s, t]) if s is not t else s, s)
    true_pairs = [(s, t) for s, t in pairs if leq_free(ctx, s, t)]
    lattices = [random_lattice(rng, ground=4, min_size=3, max_size=8) for _ in range(20)]
    violations = 0
    contexts = 0
    for L in lattices:
        for _ in range(50):
            env = {n: rng.choice(L.elements) for n in ("x", "y", "z")}
            ev = _eval_factory(L, env)
            contexts += 1
            for s, t in true_pairs:
                if not L.leq(ev(s), ev(t)):
                    violations += 1
    ok = violations == 0 and len(true_pairs) > 500
    _report(
        2,
        ok,
        f"{len(true_pairs)} decided-below pairs out of {len(pairs)} checked in "
        f"{contexts} lattice/assignment contexts, {violations} violations",
    )


def test_criterion_3_partial_vs_free_on_antichain():
    rng = random.Random(31415)
    P = antichain(["x", "y", "z"])
    ctx = FreeLattice(["x", "y", "z"])
    pool = [random_term(rng, ["x", "y", "z"], 3) for _ in range(400)]
    disagreements = 0
    for _ in range(10000):
        s, t = rng.choice(pool), rng.choice(pool)
        if leq_fp(P, s, t) != leq_free(ctx, s, t):
            disagreements += 1
    _report(3, disagreements == 0, f"10000 sampled pairs, {disagreements} disagreements")


def test_criterion_4_partial_vs_evaluation_on_total_lattices(m3, square, n5, fig_lattice):
    rng = random.Random(2718)
    cases = [
        ("2-chain", chain(2), None),
        ("2x2", square, None),
        ("N5", n5, None),
        ("M3", m3, None),
        ("16-element", fig_lattice, 100000),
    ]
    details = []
    all_ok = True
    for name, L, sample in cases:
        P = from_finite_lattice(L)
        ident = {e: e for e in L.elements}
        ev = _eval_factory(L, ident)
        if sample is None:
            if len(L) == 2:
                terms = all_terms_up_to(L.elements, 3)
            else:
                terms = all_terms_up_to(L.elements, 3, width=2, pool_cap=40)
            pairs = itertools.product(terms, repeat=2)
            total = len(terms) ** 2
        else:
            pool = [random_term(rng, list(L.elements), 3) for _ in range(300)]
            pairs = ((rng.choice(pool), rng.choice(pool)) for _ in range(sample))
            total = sample
        bad = 0
        for s, t in pairs:
            if leq_fp(P, s, t) != L.leq(ev(s), ev(t)):
                bad += 1
        all_ok = all_ok and bad == 0
        details.append(f"{name}:{total} pairs,{bad} bad")
    _report(4, all_ok, "; ".join(details))


def _random_finite_epis(seed, count, src_max=12, tgt_max=8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = random_lattice(rng, ground=5, min_size=4, max_size=src_max)
        L = L.with_generators(minimal_generating_set(L))
        made = congruence_quotient(rng, L, max_blocks=tgt_max)
        if made:
            out.append(made)
    return out


def test_criterion_5_level_map_properties():
    instances = _random_finite_epis(55555, 100)
    violations = 0
    checked = 0
    rng = random.Random(1)
    for D, g in instances:
        src = g.source
        alpha = {(d, k): alpha_k(g, d, k) for d in D.elements for k in range(6)}
        beta = {(d, k): beta_k(g, d, k) for d in D.elements for k in range(6)}
        # (i) monotone in the argument, (ii) monotone in the level
        for d in D.elements:
            for e in D.elements:
                if D.leq(d, e):
                    for k in range(5):
                        checked += 1
                        if not src.leq(alpha[(d, k)], alpha[(e, k)]):
                            violations += 1
                        if not src.leq(beta[(d, k)], beta[(e, k)]):
                            violations += 1
            for k in range(4):
                checked += 1
                if not src.leq(alpha[(d, k)], alpha[(d, k + 1)]):
                    violations += 1
                if not src.leq(beta[(d, k + 1)], beta[(d, k)]):
                    violations += 1
        # (iii) sandwich level exists
        for _ in range(10):
            a = rng.choice(src.elements)
            d = rng.choice([x for x in D.elements if D.leq(x, g.apply(a))])
            e = rng.choice([x for x in D.elements if D.leq(g.apply(a), x)])
            checked += 1
            if not any(
                src.leq(beta[(d, m)], a) and src.leq(a, alpha[(e, m + 1)])
                for m in range(5)
            ):
                violations += 1
        # (vi) stage inequalities for meets and joins
        for _ in range(10):
            E = rng.sample(D.elements, rng.randint(1, min(3, len(D.elements))))
            for k in range(1, 5):
                checked += 1
                if not src.leq(
                    src.meet_set([alpha[(d, k - 1)] for d in E]),
                    alpha[(D.meet_set(E), k)],
                ):
                    violations += 1
                if not src.leq(
                    beta[(D.join_set(E), k)],
                    src.join_set([beta[(d, k - 1)] for d in E]),
                ):
                    violations += 1
        # (iv)/(v) closed forms over the previous stage
        seen_stages = set()
        for k in range(1, 5):
            stage_key = (stages(g, k - 1), stages(g, k))
            if stage_key in seen_stages:
                continue  # saturated; identical computation
            seen_stages.add(stage_key)
            gk_prev = sorted(stages(g, k - 1)[0])
            hk_prev = sorted(stages(g, k - 1)[1])
            meets = _subset_values(src, gk_prev, src.meet_set)
            joins = _subset_values(src, hk_prev, src.join_set)
            for d in D.elements:
                bad_g = sum(
                    1 << i for i, u in enumerate(gk_prev) if D.leq(g.apply(u), d)
                )
                qual = [
                    m
                    for mask, m in enumerate(meets)
                    if mask and not (mask & bad_g) and D.leq(g.apply(m), d)
                ]
                bad_h = sum(
                    1 << i for i, u in enumerate(hk_prev) if D.leq(d, g.apply(u))
                )
                qual_j = [
                    j
                    for mask, j in enumerate(joins)
                    if mask and not (mask & bad_h) and D.leq(d, g.apply(j))
                ]
                for lvl in range(k):
                    checked += 1
                    if src.join_set(qual + [alpha[(d, lvl)]]) != alpha[(d, k)]:
                        violations += 1
                    if src.meet_set(qual_j + [beta[(d, lvl)]]) != beta[(d, k)]:
                        violations += 1
    _report(5, violations == 0, f"100 epimorphisms, {checked} checks, {violations} violations")


def _subset_values(src, items, fold):
    n = len(items)
    out = [None] * (1 << n)
    out[0] = fold([])
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        prev = out[mask ^ low]
        out[mask] = fold([prev, items[i]])
    return out


def test_criterion_6_least_preimage_identities():
    found = 0
    violations = 0
    checked = 0
    rng = random.Random(66)
    for D, g in _random_finite_epis(66666, 220):
        if found >= 25:
            break
        src = g.source
        h0 = stages(g, 0)[1]
        P = D.generators
        if not check_dean(D, P).ok:
            continue
        if not all(src.meet_set(g.preimage(p)) in h0 for p in P):
            continue
        found += 1
        beta_true = {d: src.meet_set(g.preimage(d)) for d in D.elements}
        for _ in range(12):
            E = rng.sample(D.elements, rng.randint(1, min(3, len(D.elements))))
            m = D.meet_set(E)
            for k in range(5):
                checked += 1
                lhs = beta_k(g, m, k)
                rhs = src.meet(
                    src.meet_set([beta_k(g, e, k) for e in E]), beta_k(g, m, 0)
                )
                if lhs != rhs:
                    violations += 1
        tgt_stage_hom = Hom(D, D, {e: e for e in D.generators})
        for k in range(5):
            for d in sorted(stages(tgt_stage_hom, k)[1]):
                checked += 1
                if beta_k(g, d, k) != beta_true[d]:
                    violations += 1
    ok = violations == 0 and found >= 10
    _report(
        6,
        ok,
        f"{found} hypothesis-satisfying instances, {checked} identity checks, "
        f"{violations} violations",
    )


def _bounded_pairs(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        made = congruence_quotient(
            rng, random_lattice(rng, ground=5, min_size=4, max_size=10), max_blocks=6
        )
        if not made:
            continue
        D, g = made
        h = random_onto_hom(rng, D, max_size=10)
        if h is None:
            continue
        out.append((g, h))
    return out


def test_criterion_7_generating_set_generates_fiber():
    start = time.perf_counter()
    pairs = _bounded_pairs(77777, 50)
    mismatches = 0
    for g, h in pairs:
        z = fiber_generating_set(g, h)
        closed = sublattice_closure(g.source, h.source, z)
        if closed.pairs != fiber_product(g, h).pairs:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        7,
        ok,
        f"50 bounded epimorphism pairs, {mismatches} closure mismatches, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_8_order_fiber_generation():
    pairs = _bounded_pairs(77777, 50)
    failures = sum(0 if check_order_fiber_generation(g, h) else 1 for g, h in pairs)
    _report(8, failures == 0, f"50 instances, {failures} failures")


def test_criterion_9_inflated_fixture():
    ok_gen = inf.check_finitely_generated(6)
    ok_ker = inf.check_kernel_finitely_generated(5)
    ok_unb = inf.check_collapse_unbounded(10)
    els = inf.elements_up_to(8)
    order_ok = all(inf.leq(u, u) for u in els)
    for u, v in itertools.combinations(els, 2):
        if inf.leq(u, v) and inf.leq(v, u):
            order_ok = False
    ups = {u: [v for v in els if inf.leq(u, v)] for u in els}
    for u in els:
        for v in ups[u]:
            for w in ups[v]:
                if not inf.leq(u, w):
                    order_ok = False
    ids_ok = True
    for i in range(1, 8):
        prev = ((i - 2) % 7) + 1
        plus3 = ((i + 2) % 7) + 1
        for j in range(9):
            if inf.join(inf.a_el(prev, j), inf.a_el(i, j)) != inf.b_el(i, j):
                ids_ok = False
            if inf.meet(inf.b_el(i, j + 1), inf.b_el(plus3, j + 1)) != inf.a_el(i, j + 2):
                ids_ok = False
    ok = ok_gen and ok_ker and ok_unb and order_ok and ids_ok
    _report(
        9,
        ok,
        f"generators(6)={ok_gen} kernel(5)={ok_ker} unbounded(10)={ok_unb} "
        f"order-axioms(<=8)={order_ok} identities(<=8)={ids_ok}",
    )


def test_criterion_10_boundedness_decision(m3, square, fig_lattice):
    fixed_ok = (
        is_lower_bounded_fp(antichain(["x", "y", "z"])).ok
        and is_lower_bounded_fp(from_finite_lattice(square)).ok
        and not is_lower_bounded_fp(from_finite_lattice(m3)).ok
        and not is_lower_bounded_fp(from_finite_lattice(fig_lattice)).ok
    )
    rng = random.Random(1010)
    agreements = 0
    total = 0
    while total < 30:
        D = random_lattice(rng, ground=4, min_size=3, max_size=7)
        gens = minimal_generating_set(D)
        names = [f"g{i}" for i in range(len(gens))]
        g = Hom(FreeLattice(names), D, dict(zip(names, gens)))
        if not g.surjective:
            continue
        total += 1
        stable = _beta_fixpoint(g, 12, size_cap=3000)
        if (stable is not None) == is_lower_bounded_finite(D).ok:
            agreements += 1
    ok = fixed_ok and agreements == total
    _report(
        10,
        ok,
        f"fixed cases ok={fixed_ok}; stabilisation matched the cycle test on "
        f"{agreements}/{total} random targets",
    )


def test_criterion_11_non_generation_certificates(m3):
    ctx = FreeLattice(["x", "y", "z"])
    g = Hom(ctx, m3, {"x": "a", "y": "b", "z": "c"})
    h = Hom(ctx, m3, {"x": "a", "y": "b", "z": "c"})
    rng = random.Random(1111)
    names = ["x", "y", "z"]
    by_value: dict[str, list] = {}
    for _ in range(500):
        t = random_term(rng, names, 2)
        by_value.setdefault(h.apply(t), []).append(t)
    failures = 0
    for _ in range(20):
        zs = []
        for _ in range(rng.randint(0, 20)):
            a = random_term(rng, names, 2)
            d = g.apply(a)
            if by_value.get(d):
                zs.append((a, rng.choice(by_value[d])))
        cert = non_generation_witness(g, h, zs)
        if not verify_non_generation(g, h, cert, zs):
            failures += 1
        if h.apply(cert.b) != cert.d or not in_stage(ctx, cert.a, StageIndex(cert.k, "H")):
            failures += 1
        if not leq_free(ctx, cert.b, cert.bound_term) or eq_free(
            ctx, cert.b, cert.bound_term
        ):
            failures += 1
    _report(11, failures == 0, f"20 sampled pair sets, {failures} certificate failures")


def _random_big_lattice():
    # random intersection-closed family tuned to land at two hundred-ish
    # elements
    rng = random.Random(7)
    universe = frozenset(range(14))
    family = {universe}
    for _ in range(13):
        family.add(frozenset(i for i in universe if rng.random() < 0.55))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(family, key=sorted), 2):
            c = a & b
            if c not in family:
                family.add(c)
                changed = True
    family = sorted(family, key=lambda s: (len(s), sorted(s)))
    masks = [sum(1 << i for i in s) for s in family]
    names = [f"e{idx:03d}" for idx in range(len(masks))]
    covers = []
    for bidx, bm in enumerate(masks):
        lowers = [i for i, m in enumerate(masks) if m != bm and m & bm == m]
        maximal = [
            i
            for i in lowers
            if not any(j != i and masks[i] & masks[j] == masks[i] for j in lowers)
        ]
        covers.extend((names[i], names[bidx]) for i in maximal)
    return build_lattice(FinitePoset(names, covers))


def test_criterion_12_big_lattice_cycle_test_speed():
    L = _random_big_lattice()
    start = time.perf_counter()
    rep = is_lower_bounded_finite(L)
    elapsed = time.perf_counter() - start
    dual_start = time.perf_counter()
    is_lower_bounded_finite(L.dual())
    dual_elapsed = time.perf_counter() - dual_start
    ok = elapsed < 1.0 and dual_elapsed < 1.0
    _report(
        12,
        ok,
        f"{len(L)}-element lattice, {len(join_irreducibles(L))} join irreducibles "
        f"({len(join_irreducibles(L.dual()))} in the dual), verdict {rep.ok} in "
        f"{elapsed:.3f}s, dual {dual_elapsed:.3f}s (budget 1s each)",
    )
