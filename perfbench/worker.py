"""One round of one workload, in a fresh interpreter.

    python3 worker.py INPUT.json OUTPUT.json MODE

MODE is ``setup`` (import latkit and build the program objects, then stop),
``run`` (also run every operation once, one at a time) or ``trace`` (as
``run``, with every call the round makes into a latkit module timed from
outside).  The round writes its timings and raw answers to OUTPUT.json; the
benchmark judges the answers, this file does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter


class Layers:
    """Wraps the latkit functions a round calls.  Untraced, ``wrap`` hands
    the function back unchanged, so the timed path has no extra frame."""

    def __init__(self, on: bool):
        self.on = on
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.op = -1  # index of the running operation, the parent of each span

    def wrap(self, name: str, fn):
        if not self.on:
            return fn

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, t0, perf_counter())

        return timed

    def record(self, name: str, t0: float, t1: float) -> None:
        if self.on:
            self.busy[name] = self.busy.get(name, 0.0) + (t1 - t0)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.spans.append((name, t0, t1, self.op))

    def add(self, name: str, value: float) -> None:
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + value

    def metrics(self) -> dict[str, float]:
        out = {f"{k}.busy_s": v for k, v in self.busy.items()}
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        out.update(self.counts)
        return out


def run_ops(ops, layers: Layers, do_op):
    """Closed loop: each operation starts when the previous one ended."""
    lat, outputs = [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        layers.op = i
        t0 = perf_counter()
        try:
            out = do_op(op)
        except Exception as exc:  # one failed operation must not end the round
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = perf_counter()
        lat.append(t1 - t0)
        outputs.append(out)
        if layers.on:
            layers.spans.append(("op", t0, t1, None))
    return perf_counter() - start, lat, outputs


def _latkit_counts(layers: Layers) -> None:
    from latkit import free, inflated, terms

    layers.add("terms.interned", len(terms._MEET_CACHE) + len(terms._JOIN_CACHE))
    layers.add("free.leq_memo", len(free._LEQ))
    info = inflated.join.cache_info()
    lookups = info.hits + info.misses
    layers.add("inflated.join_hit_ratio", info.hits / lookups if lookups else 0.0)


def fp_word(doc, mode, layers):
    t0 = perf_counter()
    import latkit

    from_dict = layers.wrap("partial_lattice.from_dict", latkit.PartialLattice.from_dict)
    parse = layers.wrap("terms.parse", latkit.parse)
    leq_fp = layers.wrap("partial_lattice.leq_fp", latkit.leq_fp)
    pres = {k: from_dict(v) for k, v in doc["presentations"].items()}
    queries = [(pres[name], parse(s), parse(t)) for _, name, s, t in doc["ops"]]
    setup = perf_counter() - t0
    if mode == "setup":
        return setup, None
    result = run_ops(queries, layers, lambda q: leq_fp(*q))
    if layers.on:
        layers.add("partial_lattice.pairs_settled", sum(len(P._cache) for P in pres.values()))
        _latkit_counts(layers)
    return setup, result


def free_preimage(doc, mode, layers):
    t0 = perf_counter()
    import latkit
    from latkit import FreeLattice, StageIndex, term_to_text

    parse = layers.wrap("terms.parse", latkit.parse)
    lattice = layers.wrap("order.from_dict", latkit.FiniteLattice.from_dict)
    Hom = layers.wrap("homs.Hom", latkit.Hom)
    beta_stable = layers.wrap("homs.stable_tables", latkit.beta_stable)
    alpha_stable = layers.wrap("homs.stable_tables", latkit.alpha_stable)
    lower_bounded = layers.wrap("homs.stable_tables", latkit.is_lower_bounded_hom)
    witness = layers.wrap("homs.witness", latkit.non_generation_witness)
    verify = layers.wrap("homs.verify_witness", latkit.verify_non_generation)
    stage_elements = layers.wrap("free.stage_elements", latkit.stage_elements)
    leq_free = layers.wrap("free.leq_free", latkit.leq_free)
    canonical_form = layers.wrap("free.canonical_form", latkit.canonical_form)

    targets = {k: lattice(v) for k, v in doc["targets"].items()}
    prepared = []
    for op in doc["ops"]:
        kind = op[0]
        if kind == "stable":
            _, t, names, images = op
            prepared.append((kind, Hom(FreeLattice(names), targets[t], images)))
        elif kind == "witness":
            _, t, names, images_g, images_h, pairs = op
            ctx = FreeLattice(names)
            prepared.append((kind, Hom(ctx, targets[t], images_g), Hom(ctx, targets[t], images_h),
                             [(parse(a), parse(b)) for a, b in pairs]))
        elif kind == "stage":
            _, names, k, which = op
            prepared.append((kind, FreeLattice(names), StageIndex(k, which)))
        else:
            _, names, pairs = op
            prepared.append((kind, FreeLattice(names), [(parse(s), parse(t)) for s, t in pairs]))
    setup = perf_counter() - t0
    if mode == "setup":
        return setup, None

    def do_op(op):
        kind = op[0]
        if kind == "stable":
            g = op[1]
            els = g.target.elements
            beta = {d: beta_stable(g, d) for d in els}
            alpha = {d: alpha_stable(g, d) for d in els}
            rep = lower_bounded(g)
            return kind, beta, alpha, rep.lower_bounded
        if kind == "witness":
            _, g, h, pairs = op
            cert = witness(g, h, pairs)
            return kind, cert, verify(g, h, cert, pairs)
        if kind == "stage":
            return kind, stage_elements(op[1], op[2])
        ctx = op[1]
        return kind, [(leq_free(ctx, s, t), canonical_form(ctx, s)) for s, t in op[2]]

    result = run_ops(prepared, layers, do_op)
    # Answers become text after the timed loop.
    outputs = []
    for out in result[2]:
        if isinstance(out, dict):
            outputs.append(out)
            continue
        kind = out[0]
        if kind == "stable":
            _, beta, alpha, lb = out
            layers.add("homs.stable_level", sum(v[1] for v in beta.values()))
            layers.add("homs.stable_level", sum(v[1] for v in alpha.values()))
            outputs.append({"beta": {d: term_to_text(v[0]) for d, v in beta.items()},
                            "alpha": {d: term_to_text(v[0]) for d, v in alpha.items()},
                            "lower_bounded": lb})
        elif kind == "witness":
            _, cert, ok = out
            outputs.append({"a": term_to_text(cert.a), "b": term_to_text(cert.b),
                            "d": cert.d, "verified": ok})
        elif kind == "stage":
            layers.add("free.stage_size", len(out[1]))
            outputs.append({"stage": [term_to_text(t) for t in out[1]]})
        else:
            outputs.append({"answers": [[yes, term_to_text(c)] for yes, c in out[1]]})
    if layers.on:
        _latkit_counts(layers)
    return setup, (result[0], result[1], outputs)


def finite_fiber(doc, mode, layers):
    t0 = perf_counter()
    import latkit
    from latkit import inflated

    lattice = layers.wrap("order.from_dict", latkit.FiniteLattice.from_dict)
    Hom = layers.wrap("homs.Hom", latkit.Hom)
    generating_set = layers.wrap("homs.fiber_generating_set", latkit.fiber_generating_set)
    closure = layers.wrap("homs.sublattice_closure", latkit.sublattice_closure)
    fiber_product = layers.wrap("homs.fiber_product", latkit.fiber_product)
    order_fiber = layers.wrap("homs.order_fiber", latkit.check_order_fiber_generation)
    alpha_k = layers.wrap("homs.level_maps", latkit.alpha_k)
    beta_k = layers.wrap("homs.level_maps", latkit.beta_k)
    bounded = layers.wrap("order.is_bounded_finite", latkit.is_bounded_finite)
    whitman = layers.wrap("order.check_whitman", latkit.check_whitman)
    dean = layers.wrap("order.check_dean", latkit.check_dean)
    inflated_checks = {
        "inflated-gen": layers.wrap("inflated.check_finitely_generated",
                                    inflated.check_finitely_generated),
        "inflated-kernel": layers.wrap("inflated.check_kernel_finitely_generated",
                                       inflated.check_kernel_finitely_generated),
    }

    lats = {k: lattice(v) for k, v in doc["lattices"].items()}
    homs = {k: Hom(lats[src], lats[tgt], images) for k, (src, tgt, images) in doc["homs"].items()}
    setup = perf_counter() - t0
    if mode == "setup":
        return setup, None

    def do_op(op):
        kind = op[0]
        if kind == "fiber":
            g, h = homs[op[1]], homs[op[2]]
            z = generating_set(g, h)
            closed = closure(g.source, h.source, z)
            same = closed.pairs == fiber_product(g, h).pairs
            layers.add("homs.generating_pairs", len(z))
            layers.add("homs.closure_pairs", len(closed))
            return {"closure": sorted(closed.pairs), "same_as_fiber_product": same}
        if kind == "order":
            return {"verdict": order_fiber(homs[op[1]], homs[op[2]])}
        if kind == "levels":
            g, levels = homs[op[1]], range(op[2] + 1)
            els = g.target.elements
            return {"alpha": {d: [alpha_k(g, d, k) for k in levels] for d in els},
                    "beta": {d: [beta_k(g, d, k) for k in levels] for d in els}}
        if kind == "bounded":
            rep = bounded(lats[op[1]])
            return {"verdict": [rep.lower.ok, rep.upper.ok]}
        if kind == "whitman":
            return {"verdict": whitman(lats[op[1]]).ok}
        if kind == "dean":
            return {"verdict": dean(lats[op[1]], op[2]).ok}
        return {"verdict": inflated_checks[kind](op[1])}

    result = run_ops(doc["ops"], layers, do_op)
    if layers.on:
        _latkit_counts(layers)
    return setup, result


def cli_certify(doc, mode, layers):
    """Every command and every re-check is one call of ``latkit.cli.main``,
    the function the ``latkit`` script runs, with its output captured."""
    os.chdir(doc["dir"])
    from latkit.cli import main as latkit_main

    def latkit(layer, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = latkit_main(argv)
        except SystemExit as exc:
            code = exc.code
        layers.record(layer, t0, perf_counter())
        return code, out.getvalue()

    def do_op(op):
        i, argv = op
        layer = "cli.witness" if argv[0] == "witness" else f"cli.{argv[0]}-{argv[1]}"
        code, text = latkit(layer, ["--json", *argv])
        layers.add("cli.doc_bytes", len(text.encode()))
        name = f"doc{i}.json"
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
        verify_code, _ = latkit("cli.verify-certificate", ["verify-certificate", name])
        return {"exit": code, "doc": text, "verify_exit": verify_code}

    result = run_ops(list(enumerate(doc["ops"])), layers, do_op)
    return None, result


WORKLOADS = {"fp-word": fp_word, "free-preimage": free_preimage,
             "finite-fiber": finite_fiber, "cli-certify": cli_certify}


def main() -> int:
    in_path, out_path, mode = sys.argv[1:4]
    with open(in_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    layers = Layers(mode == "trace")
    setup, result = WORKLOADS[doc["workload"]](doc, mode, layers)
    report = {"setup_s": setup}
    if result is not None:
        wall, lat, outputs = result
        report.update(wall_s=wall, lat_s=lat, outputs=outputs, layers=layers.metrics(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if layers.on:
            report["spans"] = layers.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
