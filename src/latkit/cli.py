"""Command line interface.

Exit codes: 0 for a "yes" decision or plain success, 1 for a "no" decision
(the witness is always printed), 2 for usage or data errors, 3 when a cap
was exceeded.  ``--json`` emits a single machine-readable document carrying
the verdict, the witness and enough input context for the
``verify-certificate`` subcommand to re-check it independently.  Output is
deterministic: identical inputs produce identical bytes.

The closure and stage caps of ``fp bounded`` and ``fiber`` default to the
``LATKIT_CAP`` environment variable when set and not empty (else 100,000)
and can be overridden per invocation with ``--cap``; a cap that is not a
non-negative integer is a usage error.  The ``lattice`` checks run in polynomial time and
take no cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Any

from . import inflated
from .errors import CapExceeded, LatkitError, UnverifiedPreconditionWarning
from .free import FreeLattice, alternation_rank, canonical_form, eq_free, leq_free
from .homs import (
    Hom,
    alpha_k,
    alpha_stable,
    beta_k,
    beta_stable,
    check_order_fiber_generation,
    fiber_generating_set,
    fiber_product,
    is_lower_bounded_hom,
    non_generation_witness,
    sublattice_closure,
    NonGenerationCertificate,
    verify_non_generation,
)
from .order import (
    FiniteLattice,
    _is_ids,
    check_dean,
    check_whitman,
    is_bounded_finite,
    is_lower_bounded_finite,
    is_upper_bounded_finite,
)
from .partial_lattice import (
    FpBoundednessReport,
    PartialLattice,
    is_lower_bounded_fp,
    is_lower_bounded_sublattice,
    leq_fp,
    partial_whitman_check,
)
from .terms import Join, Meet, Term, fold, join_of, meet_of, parse, term_to_text

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _default_cap() -> int:
    """``LATKIT_CAP`` when set and not empty, else 100,000.  A value that is
    not a non-negative integer is a usage error, as a bad ``--cap`` is."""
    text = os.environ.get("LATKIT_CAP", "")
    if not text:
        return 100000
    try:
        cap = int(text)
    except ValueError:
        raise SystemExit(_usage_error(f"LATKIT_CAP must be an integer, not {text!r}"))
    return _non_negative(cap, "LATKIT_CAP")


def _non_negative(cap: int, what: str) -> int:
    if cap < 0:
        raise SystemExit(_usage_error(f"{what} must be non-negative"))
    return cap


def _cap(args) -> int:
    """``--cap`` when given, else ``LATKIT_CAP`` or the default."""
    if args.cap is None:
        return _default_cap()
    return _non_negative(args.cap, "--cap")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _load_lattice(path: str) -> FiniteLattice:
    return FiniteLattice.from_dict(_load_json(path))


def _parse_images(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SystemExit(_usage_error(f"bad image {item!r}, expected name=value"))
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise SystemExit(_usage_error(f"image of {k!r} given twice"))
        out[k] = v
    return out


def _emit(args, doc: dict, human_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)
    return EXIT_YES if doc["verdict"] else EXIT_NO


def _emit_condition(args, doc: dict, rep) -> int:
    """Emit an antichain condition report: ``doc`` gains the verdict and the
    ``S``/``T`` witness, and the condition is named after ``doc["kind"]``."""
    S, T = map(list, rep.witness or ((), ()))
    doc.update(verdict=rep.ok, witness=None if rep.ok else {"S": S, "T": T},
               certificate=None)
    lines = [f"{doc['kind'].removeprefix('fp-')} condition: {rep.ok}"]
    if not rep.ok:
        lines.append(f"witness S={S} T={T}")
    return _emit(args, doc, lines)


# --- subcommand handlers ---


def _cmd_lattice(args) -> int:
    data = _load_json(args.file)
    if args.action == "check":
        doc = {"kind": "lattice-check", "input": data}
        try:
            lat = FiniteLattice.from_dict(data)
        except LatkitError as exc:
            doc.update(verdict=False, witness=str(exc), certificate=None)
            return _emit(args, doc, [f"not a lattice: {exc}"])
        doc.update(verdict=True, witness=None, certificate={"elements": len(lat)})
        return _emit(args, doc, [f"valid lattice with {len(lat)} elements"])
    lat = FiniteLattice.from_dict(data)
    if args.action == "dot":
        sys.stdout.write(lat.to_dot())
        return EXIT_YES
    if args.action == "bounded":
        if args.upper_only:
            rep = is_upper_bounded_finite(lat)
            which = "upper"
        elif args.lower_only:
            rep = is_lower_bounded_finite(lat)
            which = "lower"
        else:
            both = is_bounded_finite(lat)
            doc = {
                "kind": "bounded",
                "input": lat.to_dict(),
                "verdict": both.ok,
                "witness": None
                if both.ok
                else {
                    "lower_cycle": list(both.lower.cycle or ()),
                    "upper_cycle": list(both.upper.cycle or ()),
                },
                "certificate": {
                    "lower": _lb_cert(both.lower),
                    "upper": _lb_cert(both.upper),
                },
            }
            lines = [f"bounded: {both.ok}"]
            if not both.lower.ok:
                lines.append(f"lower dependency cycle: {' -> '.join(both.lower.cycle)}")
            if not both.upper.ok:
                lines.append(f"upper dependency cycle: {' -> '.join(both.upper.cycle)}")
            return _emit(args, doc, lines)
        doc = {
            "kind": f"{which}-bounded",
            "input": lat.to_dict(),
            "verdict": rep.ok,
            "witness": None if rep.ok else {"cycle": list(rep.cycle)},
            "certificate": _lb_cert(rep),
        }
        lines = [f"{which} bounded: {rep.ok}"]
        if not rep.ok:
            lines.append(f"dependency cycle: {' -> '.join(rep.cycle)}")
        return _emit(args, doc, lines)
    if args.action == "whitman":
        doc = {"kind": "whitman", "input": lat.to_dict()}
        return _emit_condition(args, doc, check_whitman(lat))
    if args.action == "dean":
        gens = args.generators.split(",") if args.generators else None
        rep = check_dean(lat, gens)
        doc = {"kind": "dean", "input": lat.to_dict(),
               "generators": gens or list(lat.generators)}
        return _emit_condition(args, doc, rep)
    raise SystemExit(_usage_error(f"unknown lattice action {args.action!r}"))


def _lb_cert(rep) -> dict:
    if rep.ok:
        return {"rank": rep.rank}
    return {"cycle": list(rep.cycle), "witnesses": list(rep.cycle_witnesses)}


def _free_ctx(gens: str) -> FreeLattice:
    return FreeLattice([g.strip() for g in gens.split(",") if g.strip()])


def _check_term_count(args, want: int) -> None:
    if len(args.terms) != want:
        raise SystemExit(_usage_error(
            f"{args.command} {args.action} takes {want} term(s), got {len(args.terms)}"
        ))


def _cmd_free(args) -> int:
    ctx = _free_ctx(args.gens)
    _check_term_count(args, 1 if args.action == "rank" else 2)
    if args.action == "rank":
        t = parse(args.terms[0])
        idx = alternation_rank(ctx, t)
        doc = {
            "kind": "rank",
            "verdict": True,
            "witness": None,
            "certificate": {"k": idx.k, "stage": idx.kind,
                            "canonical": term_to_text(canonical_form(ctx, t))},
        }
        return _emit(args, doc, [f"stage ({idx.k}, {idx.kind})"])
    s, t = parse(args.terms[0]), parse(args.terms[1])
    if args.action == "leq":
        verdict = leq_free(ctx, s, t)
    else:
        verdict = eq_free(ctx, s, t)
    doc = {"kind": f"free-{args.action}", "verdict": verdict, "witness": None,
           "certificate": None}
    return _emit(args, doc, [str(verdict).lower()])


def _cmd_fp(args) -> int:
    P = PartialLattice.from_dict(_load_json(args.file))
    if args.action == "leq":
        _check_term_count(args, 2)
        s, t = parse(args.terms[0]), parse(args.terms[1])
        verdict = leq_fp(P, s, t)
        doc = {"kind": "fp-leq", "verdict": verdict, "witness": None,
               "certificate": None}
        return _emit(args, doc, [str(verdict).lower()])
    if args.action == "whitman":
        doc = {"kind": "fp-whitman", "input": P.to_dict()}
        return _emit_condition(args, doc, partial_whitman_check(P))
    if args.action == "bounded":
        cap = _cap(args)
        terms = None
        if args.generators:
            terms = [parse(t) for t in args.generators.split(";") if t.strip()]
        sides = (["lower"] if args.lower_only else ["upper"] if args.upper_only
                 else ["lower", "upper"])
        reports = {
            side: _fp_report(P, side, terms, cap, args.stage or 0, 8, args.assume_condition)
            for side in sides
        }
        verdict = all(r.ok for r in reports.values())
        cert = {
            side: {
                "stage_lattice": r.stage_lattice.to_dict(),
                **_lb_cert(r.inner),
            }
            for side, r in reports.items()
        }
        if args.generators:
            for side, r in reports.items():
                cert[side]["stage"] = r.stage
        witness = {
            side: list(r.inner.cycle)
            for side, r in reports.items()
            if not r.ok
        } or None
        doc = {
            "kind": "fp-bounded",
            "input": P.to_dict(),
            "sides": sorted(reports),
            "verdict": verdict,
            "witness": witness,
            "certificate": cert,
        }
        if args.generators:
            doc["generators"] = [term_to_text(t) for t in terms]
        lines = [f"{side} bounded: {r.ok}" for side, r in sorted(reports.items())]
        return _emit(args, doc, lines)
    raise SystemExit(_usage_error(f"unknown fp action {args.action!r}"))


def _dual_term(t: Term) -> Term:
    return fold(t, lambda u, kids: (
        join_of(kids) if type(u) is Meet else meet_of(kids) if type(u) is Join else u))


def _make_hom(args, source_spec: str, target: FiniteLattice, images: str) -> Hom:
    if source_spec.startswith("free:"):
        src: FiniteLattice | FreeLattice = _free_ctx(source_spec[len("free:"):])
    else:
        src = _load_lattice(source_spec)
    return Hom(src, target, _parse_images(images))


def _cmd_hom(args) -> int:
    if args.free:
        if len(args.paths) != 1:
            raise SystemExit(_usage_error("with --free, give only the target file"))
        source_spec = f"free:{args.free}"
        target_path = args.paths[0]
    else:
        if len(args.paths) != 2:
            raise SystemExit(_usage_error("expected a source file and a target file"))
        source_spec, target_path = args.paths
    target = _load_lattice(target_path)
    g = _make_hom(args, source_spec, target, args.images)
    if args.action in ("beta", "alpha"):
        if not args.element:
            raise SystemExit(_usage_error("--element is required for beta/alpha"))
        fn_k = beta_k if args.action == "beta" else alpha_k
        fn_stable = beta_stable if args.action == "beta" else alpha_stable
        if args.k is not None:
            if args.k < 0:
                raise SystemExit(_usage_error("--k must be non-negative"))
            value = fn_k(g, args.element, args.k)
            level = args.k
        else:
            value, level = fn_stable(g, args.element)
        text = term_to_text(value) if isinstance(value, Term) else value
        doc = {
            "kind": f"hom-{args.action}",
            "verdict": True,
            "witness": None,
            "certificate": {"value": text, "level": level},
        }
        return _emit(args, doc, [text, f"level {level}"])
    if args.action == "lower-bounded":
        rep = is_lower_bounded_hom(g)
        doc = {
            "kind": "hom-lower-bounded",
            "verdict": rep.lower_bounded,
            "witness": None,
            "certificate": {"stable_level": rep.stable_level},
        }
        return _emit(args, doc, [f"lower bounded: {rep.lower_bounded}"])
    raise SystemExit(_usage_error(f"unknown hom action {args.action!r}"))


def _cmd_fiber(args) -> int:
    target = _load_lattice(args.target)
    g = _make_hom(args, args.a, target, args.g)
    h = _make_hom(args, args.b, target, args.h)
    cap = _cap(args)
    if args.action == "gen":
        z = fiber_generating_set(g, h)
        pairs = [[a, b] for a, b in z]
        doc = {"kind": "fiber-gen", "verdict": True, "witness": None,
               "certificate": {"pairs": pairs}}
        return _emit(args, doc, [json.dumps(pairs)])
    if args.action == "verify":
        z = fiber_generating_set(g, h)
        closed = sublattice_closure(g.source, h.source, z, cap)
        full = fiber_product(g, h)
        verdict = closed.pairs == full.pairs
        doc = {
            "kind": "fiber-verify",
            "verdict": verdict,
            "witness": None
            if verdict
            else {
                "missing": [list(p) for p in sorted(full.pairs - closed.pairs)],
                "extra": [list(p) for p in sorted(closed.pairs - full.pairs)],
            },
            "certificate": {"generators": [[a, b] for a, b in z],
                            "fiber_size": len(full)},
        }
        return _emit(args, doc, [f"generates fiber product: {verdict}"])
    if args.action == "order-gen":
        verdict = check_order_fiber_generation(g, h, cap)
        doc = {"kind": "fiber-order-gen", "verdict": verdict, "witness": None,
               "certificate": None}
        return _emit(args, doc, [f"generates order fiber: {verdict}"])
    raise SystemExit(_usage_error(f"unknown fiber action {args.action!r}"))


def _cmd_witness(args) -> int:
    target = _load_lattice(args.target)
    ga = _free_ctx(args.free_a)
    gb = _free_ctx(args.free_b)
    g = Hom(ga, target, _parse_images(args.images_g))
    h = Hom(gb, target, _parse_images(args.images_h))
    zpairs: list[tuple[Term, Term]] = []
    if args.zfile:
        data = _load_json(args.zfile)
        pairs = data.get("pairs", []) if isinstance(data, dict) else None
        if not isinstance(pairs, list) or not all(_is_ids(p) and len(p) == 2 for p in pairs):
            raise SystemExit(_usage_error(f'{args.zfile}: expected {{"pairs": [["s", "t"], ...]}}'))
        zpairs = [(parse(a), parse(b)) for a, b in pairs]
    cert = non_generation_witness(g, h, zpairs)
    doc = {
        "kind": "non-generation",
        "input": {
            "target": target.to_dict(),
            "free_a": list(ga.names),
            "free_b": list(gb.names),
            "images_g": g.images,
            "images_h": h.images,
            "pairs": [[term_to_text(a), term_to_text(b)] for a, b in zpairs],
        },
        "verdict": True,
        "witness": None,
        "certificate": {
            "a": term_to_text(cert.a),
            "b": term_to_text(cert.b),
            "d": cert.d,
            "k": cert.k,
            "n_bound": cert.n_bound,
            "bound_term": term_to_text(cert.bound_term),
        },
    }
    lines = [
        f"pair outside the generated sublattice: ({term_to_text(cert.a)}, {term_to_text(cert.b)})",
        f"common image {cert.d}, stage {cert.k}, bound level {cert.k + cert.n_bound}",
    ]
    return _emit(args, doc, lines)


def _cmd_fixture(args) -> int:
    if args.which == "L":
        lat = inflated.fano_lattice()
        if args.dot:
            sys.stdout.write(lat.to_dot())
            return EXIT_YES
        doc = {"kind": "fixture-L", "verdict": True, "witness": None,
               "certificate": lat.to_dict()}
        return _emit(args, doc, [json.dumps(lat.to_dict(), sort_keys=True)])
    checks = {
        "generators": lambda: inflated.check_finitely_generated(args.depth),
        "kernel": lambda: inflated.check_kernel_finitely_generated(args.depth),
        "unbounded": lambda: inflated.check_collapse_unbounded(args.depth),
    }
    if args.verify not in checks:
        raise SystemExit(_usage_error("--verify must be generators, kernel or unbounded"))
    least = 0 if args.verify == "unbounded" else 2
    if args.depth < least:
        raise SystemExit(_usage_error(f"--depth must be at least {least} for {args.verify}"))
    verdict = checks[args.verify]()
    doc = {
        "kind": f"fixture-{args.verify}",
        "verdict": verdict,
        "witness": None,
        "certificate": {"depth": args.depth, "truncated": True},
    }
    return _emit(args, doc, [f"{args.verify} (truncated at {args.depth}): {verdict}"])


def _cmd_verify_certificate(args) -> int:
    doc = _load_json(args.file)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    ok = _reverify(doc, kind)
    out = {"kind": "verify-certificate", "verdict": ok, "witness": None,
           "certificate": {"checked": kind}}
    return _emit(args, out, [f"certificate valid: {ok}"])


def _reverify(doc: dict, kind: str) -> bool:
    try:
        if kind in ("lower-bounded", "upper-bounded", "bounded"):
            lat = FiniteLattice.from_dict(doc["input"])
            cert = doc["certificate"]
            if kind == "bounded":
                return _reverify_sides(doc, [(lat, cert["lower"]), (lat.dual(), cert["upper"])])
            return _reverify_sides(doc, [(lat.dual() if kind == "upper-bounded" else lat, cert)])
        if kind in ("whitman", "dean"):
            lat = FiniteLattice.from_dict(doc["input"])
            if doc["verdict"]:
                return (check_whitman(lat) if kind == "whitman" else check_dean(
                    lat, doc.get("generators")
                )).ok
            S = doc["witness"]["S"]
            T = doc["witness"]["T"]
            m = lat.meet_set(S)
            j = lat.join_set(T)
            if not lat.leq(m, j):
                return False
            if any(lat.leq(s, j) for s in S) or any(lat.leq(m, t) for t in T):
                return False
            if kind == "dean":
                gens = doc.get("generators") or lat.generators
                if any(lat.leq(m, p) and lat.leq(p, j) for p in gens):
                    return False
            return True
        if kind == "fp-bounded":
            # each side's stage lattice must be the one rebuilt from the input
            P = PartialLattice.from_dict(doc["input"])
            terms = [parse(g) for g in doc["generators"]] if "generators" in doc else None
            sides = doc["sides"]
            if not sides or not set(sides) <= {"lower", "upper"}:
                return False
            checks = []
            for side in sides:
                cert = doc["certificate"][side]
                lat = FiniteLattice.from_dict(cert["stage_lattice"])
                if lat.to_dict() != _fp_stage_lattice(P, side, terms, cert).to_dict():
                    return False
                checks.append((lat, cert))
            return _reverify_sides(doc, checks)
        if kind == "non-generation":
            inp = doc["input"]
            target = FiniteLattice.from_dict(inp["target"])
            g = Hom(FreeLattice(inp["free_a"]), target, inp["images_g"])
            h = Hom(FreeLattice(inp["free_b"]), target, inp["images_h"])
            c = doc["certificate"]
            cert = NonGenerationCertificate(parse(c["a"]), parse(c["b"]), c["d"], c["k"],
                                            c["n_bound"], parse(c["bound_term"]))
            zpairs = [(parse(a), parse(b)) for a, b in inp.get("pairs", [])]
            return verify_non_generation(g, h, cert, zpairs)
    except CapExceeded:
        raise
    except (LatkitError, KeyError, TypeError, ValueError):
        return False
    raise SystemExit(_usage_error(f"no checker for certificate kind {kind!r}"))


def _fp_report(P: PartialLattice, side: str, terms, cap: int, n_hint: int,
               max_stage: int, assume_condition: bool) -> FpBoundednessReport:
    """One side of ``fp bounded``: the lower report on ``P`` or on its dual,
    for the whole presentation or, with generating terms, for the sublattice
    they span."""
    Q = P if side == "lower" else P.dual()
    if terms is None:
        return is_lower_bounded_fp(Q, cap)
    if side == "upper":
        terms = [_dual_term(t) for t in terms]
    return is_lower_bounded_sublattice(
        Q, terms, n_hint=n_hint, cap=cap, max_stage=max_stage,
        assume_condition=assume_condition,
    )


def _fp_stage_lattice(P: PartialLattice, side: str, terms, cert: dict) -> FiniteLattice:
    """The stage lattice ``fp bounded`` computes for one side: the
    join-closure stage of the presentation, or with generating terms the
    sublattice they span in the recorded stage."""
    n = 0 if terms is None else cert["stage"]
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bad stage {n!r}")
    return _fp_report(P, side, terms, _default_cap(), n, n, True).stage_lattice


def _reverify_sides(doc: dict, checks: list[tuple[FiniteLattice, dict]]) -> bool:
    """Every side's certificate is well formed and checks, and the verdict is
    yes iff each has a rank."""
    return all(
        _well_formed(cert) and _reverify_lb(lat, cert) for lat, cert in checks
    ) and doc["verdict"] == all(cert.get("rank") is not None for _, cert in checks)


def _well_formed(cert) -> bool:
    """A side's certificate is a mapping whose ``rank``, when set, maps ids to
    ints, and whose ``cycle`` and ``witnesses``, when set, are lists of ids."""
    if not isinstance(cert, dict):
        return False
    rank = cert.get("rank")
    if rank is not None and not (
        isinstance(rank, dict) and all(type(r) is int for r in rank.values())
    ):
        return False
    seqs = (cert.get(key) for key in ("cycle", "witnesses"))
    return all(v is None or isinstance(v, list) and all(isinstance(x, str) for x in v)
               for v in seqs)


def _reverify_lb(lat: FiniteLattice, cert: dict) -> bool:
    from .order import d_relation, join_irreducibles

    if "rank" in cert and cert.get("rank") is not None:
        rank = cert["rank"]
        ji = join_irreducibles(lat)
        if set(rank) != set(ji):
            return False
        edges = d_relation(lat)
        return all(rank[p] > rank[q] for p in ji for q in edges[p])
    cycle = cert.get("cycle") or []
    wits = cert.get("witnesses") or []
    if not cycle or len(wits) != len(cycle):
        return False
    ji = set(join_irreducibles(lat))
    for idx, p in enumerate(cycle):
        q = cycle[(idx + 1) % len(cycle)]
        x = wits[idx]
        if p not in ji or q not in ji:
            return False
        qstar = lat.poset.lower_covers(q)[0]
        if lat.leq(p, q):
            return False
        if not lat.leq(p, lat.join(x, q)) or lat.leq(p, lat.join(x, qstar)):
            return False
    return True


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One ``error:`` line like every other usage error, then the usage."""
        self.exit(EXIT_USAGE, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="latkit", description=__doc__)
    ap.add_argument("--json", action="store_true", help="machine readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="finite lattice checks")
    p.add_argument("action", choices=["check", "bounded", "whitman", "dean", "dot"])
    p.add_argument("file")
    sides = p.add_mutually_exclusive_group()
    sides.add_argument("--lower-only", action="store_true")
    sides.add_argument("--upper-only", action="store_true")
    p.add_argument("--generators", help="comma separated ids (dean)")
    p.add_argument("--cap", type=int,
                   help="accepted and ignored: lattice actions take no cap")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("free", help="free lattice word problem")
    p.add_argument("action", choices=["leq", "eq", "rank"])
    p.add_argument("--gens", required=True, help="comma separated generator names")
    p.add_argument("terms", nargs="+")
    p.set_defaults(fn=_cmd_free)

    p = sub.add_parser("fp", help="finitely presented lattice procedures")
    p.add_argument("action", choices=["leq", "bounded", "whitman"])
    p.add_argument("file")
    p.add_argument("terms", nargs="*")
    p.add_argument("--generators", help="semicolon separated terms (sublattice)")
    p.add_argument("--stage", type=int)
    sides = p.add_mutually_exclusive_group()
    sides.add_argument("--lower-only", action="store_true")
    sides.add_argument("--upper-only", action="store_true")
    p.add_argument("--assume-condition", action="store_true",
                   help="assert the sublattice interpolation hypothesis")
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=_cmd_fp)

    p = sub.add_parser("hom", help="preimage calculus")
    p.add_argument("action", choices=["beta", "alpha", "lower-bounded"])
    p.add_argument(
        "paths",
        nargs="+",
        help="source lattice file (or free:x,y,z) and target lattice file; "
        "with --free, the target file only",
    )
    p.add_argument("--free", help="free source on these generator names")
    p.add_argument("--images", required=True, help="x=a,y=b,...")
    p.add_argument("--element", help="target element")
    p.add_argument("--k", type=int)
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("fiber", help="fiber products")
    p.add_argument("action", choices=["gen", "verify", "order-gen"])
    p.add_argument("a", help="first source lattice file")
    p.add_argument("b", help="second source lattice file")
    p.add_argument("target", help="target lattice file")
    p.add_argument("--g", required=True, help="images of the first hom")
    p.add_argument("--h", required=True, help="images of the second hom")
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=_cmd_fiber)

    p = sub.add_parser("witness", help="non-generation certificate")
    p.add_argument("--target", required=True)
    p.add_argument("--free-a", required=True, help="generators of the first source")
    p.add_argument("--free-b", required=True, help="generators of the second source")
    p.add_argument("--images-g", required=True)
    p.add_argument("--images-h", required=True)
    p.add_argument("--zfile", help='pairs file {"pairs": [["s","t"], ...]}')
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("fixture", help="the inflated-lattice example")
    p.add_argument("which", choices=["L", "M"])
    p.add_argument("--dot", action="store_true")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--verify", help="generators | kernel | unbounded")
    p.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("verify-certificate", help="re-check an emitted document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify_certificate)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # Warnings print as one "warning: <message>" line each, once per run.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnverifiedPreconditionWarning)
        try:
            return args.fn(args)
        except CapExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAP
        except LatkitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
