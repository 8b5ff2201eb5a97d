"""The latkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``
of that checkout and nowhere else.  The seed fixes every input.  A run
times a few set-ups, then repeats rounds of the workload's fixed batch of
operations, each round in a fresh interpreter so that memo, intern and
``lru_cache`` tables start empty, until the next round would end after
``S`` seconds.  Every answer of every round is checked.  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones, each a median over rounds.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

# Set-up-only interpreters per run.  Each round adds one more set-up sample:
# the round's own on most workloads, one more probe process on cli-certify.
SETUP_PROBES = 3
CLI_SETUP_PROBES = 9
ROUND_TIMEOUT_S = 150


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LATKIT_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(argv, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_env(), timeout=ROUND_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)


def _worker(workdir: Path, mode: str, tag: str) -> dict:
    out = workdir / f"out-{tag}.json"
    proc = _python([str(HERE / "worker.py"), str(workdir / "input.json"), str(out), mode])
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    out.unlink()
    return report


def _latkit_help_s() -> float:
    """Wall time of one ``latkit`` process that does no lattice work."""
    t0 = perf_counter()
    proc = _python(["-m", "latkit", "--help"])
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"latkit --help failed:\n{proc.stderr}")
    return dt


def _cli_import_s() -> float:
    proc = _python(["-c", "import time; t = time.perf_counter(); import latkit.cli; "
                          "print(time.perf_counter() - t)"])
    if proc.returncode != 0:
        raise RuntimeError(f"importing latkit.cli failed:\n{proc.stderr}")
    return float(proc.stdout)


def _prepare(workload: str, seed: int, workdir: Path):
    """Write the round input; return it with what the checks need."""
    if workload == "cli-certify":
        files, ops = gen.cli_certify(seed)
        fixtures = workdir / "fixtures"
        fixtures.mkdir()
        for name, content in files.items():
            (fixtures / name).write_text(json.dumps(content), encoding="utf-8")
        doc = {"dir": str(fixtures), "ops": [op["argv"] for op in ops]}
        truth = ops
    else:
        doc, truth = gen.GENERATORS[workload](seed)
        if workload == "finite-fiber":
            check.finite_fiber_truth(doc, truth)
    doc["workload"] = workload
    (workdir / "input.json").write_text(json.dumps(doc), encoding="utf-8")
    return doc, truth


def _judge(workload: str, doc, truth, outputs):
    if workload == "cli-certify":
        return check.cli_certify(truth, outputs)
    fn = {"fp-word": check.fp_word, "free-preimage": check.free_preimage,
          "finite-fiber": check.finite_fiber}[workload]
    return fn(doc, truth, outputs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fp-word", "free-preimage", "finite-fiber", "cli-certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "latkit" / "__init__.py").is_file():
        print(f"error: no latkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # Byte-compile first so that no timed import pays for it.
    _python(["-m", "compileall", "-q", str(SRC / "latkit")])
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        doc, truth = _prepare(args.workload, args.seed, workdir)
        mode = "trace" if args.trace else "run"
        cli = args.workload == "cli-certify"
        start = perf_counter()
        if cli:
            setups = [_latkit_help_s() for _ in range(CLI_SETUP_PROBES)]
        else:
            setups = [_worker(workdir, "setup", f"s{k}")["setup_s"] for k in range(SETUP_PROBES)]
        rounds, outputs = [], []
        while True:
            t0 = perf_counter()
            r = _worker(workdir, mode, f"r{len(rounds)}")
            setups.append(_latkit_help_s() if cli else r["setup_s"])
            spans = r.pop("spans", None)
            if spans is not None and not rounds:
                trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
                trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                                  "spans": spans}), encoding="utf-8")
            outputs.append(r.pop("outputs"))
            rounds.append(r)
            if perf_counter() - start + (perf_counter() - t0) > args.seconds:
                break
        if cli and args.trace:
            cli_import = [_cli_import_s() for _ in range(CLI_SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every round answers the same operations: a round whose answers equal
    # the first round's shares its verdict, any other is judged afresh.
    first = _judge(args.workload, doc, truth, outputs[0])
    failed, wrong = 0, []
    for out in outputs:
        f, w = first if out == outputs[0] else _judge(args.workload, doc, truth, out)
        failed += f
        wrong += w
    attempted = sum(len(out) for out in outputs)

    if args.trace:
        if cli:
            for r in rounds:
                r["layers"]["cli.import.busy_s"] = median(cli_import)
        metrics = {m["name"]: {"value": median([r["layers"].get(m["name"], 0) for r in rounds]),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"traced wall_s {median([r['wall_s'] for r in rounds])!r} over {len(rounds)} rounds",
              file=sys.stderr)
    else:
        # Rounds repeat the same operations in the same order, so each
        # operation's latency is taken as its median over the rounds.
        per_op = sorted(median(x) for x in zip(*(r["lat_s"] for r in rounds)))
        values = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in rounds]),
            "op_p50_ms": 1e3 * median(per_op),
            # the highest percentile with at least ten operations beyond it
            "op_tail_ms": 1e3 * per_op[-11],
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
