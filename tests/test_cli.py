import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import double
from latkit.order import chain, is_bounded_finite

M3 = {
    "elements": ["0", "1", "a", "b", "c"],
    "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
}
SQUARE = {
    "elements": ["0", "1", "a", "b"],
    "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
}
TWO = {"elements": ["c0", "c1"], "covers": [["c0", "c1"]]}
ANTICHAIN3 = {"elements": ["x", "y", "z"], "covers": []}
BOWTIE = {
    "elements": ["a", "b", "c", "d"],
    "covers": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
}


def run_cli(*argv, files=None, tmp_path=None, env=None):
    paths = {}
    for name, doc in (files or {}).items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    args = [a.format(**paths) if isinstance(a, str) else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "latkit", *args], capture_output=True, text=True,
        env=None if env is None else dict(os.environ, **env),
    )
    return proc


def _in_process(argv: list[str]) -> tuple[int, str]:
    from latkit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_lattice_bounded_m3(tmp_path):
    proc = run_cli("lattice", "bounded", "{m3}", files={"m3": M3}, tmp_path=tmp_path)
    assert proc.returncode == 1
    assert "cycle" in proc.stdout


def test_lattice_bounded_square(tmp_path):
    proc = run_cli("lattice", "bounded", "{sq}", files={"sq": SQUARE}, tmp_path=tmp_path)
    assert proc.returncode == 0


def test_doubled_lattices_are_bounded_and_certified(tmp_path):
    # Day (1979): interval doublings from the one-element lattice give the
    # bounded lattices, an oracle sharing no code with the dependency scan
    rng = random.Random(1979)
    doc, cert = tmp_path / "doubled.json", tmp_path / "cert.json"
    for _ in range(60):
        L, size = chain(2), rng.randint(6, 20)
        while len(L) < size:
            a = rng.choice(L.elements)
            L = double(L, a, rng.choice([b for b in L.elements if L.leq(a, b)]))
        assert is_bounded_finite(L).ok, L.to_dict()
        doc.write_text(json.dumps(L.to_dict()))
        code, out = _in_process(["--json", "lattice", "bounded", str(doc)])
        assert code == 0, L.to_dict()
        cert.write_text(out)
        assert _in_process(["verify-certificate", str(cert)])[0] == 0


def test_lattice_check_bowtie(tmp_path):
    proc = run_cli("lattice", "check", "{b}", files={"b": BOWTIE}, tmp_path=tmp_path)
    assert proc.returncode == 1
    assert "not a lattice" in proc.stdout


def test_free_leq_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "latkit", "free", "leq", "--gens", "x,y", "x", "(x | y)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "true"
    proc = subprocess.run(
        [sys.executable, "-m", "latkit", "free", "leq", "--gens", "x,y", "(x | y)", "x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stdout.strip() == "false"


def test_free_rank():
    proc = subprocess.run(
        [sys.executable, "-m", "latkit", "free", "rank", "--gens", "x,y,z",
         "((x & y) | z)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "(1, G)" in proc.stdout


def test_fp_bounded_antichain(tmp_path):
    proc = run_cli(
        "fp", "bounded", "{p}", files={"p": ANTICHAIN3}, tmp_path=tmp_path
    )
    assert proc.returncode == 0


def test_fp_bounded_total_m3(tmp_path):
    doc = dict(M3)
    doc["joins"] = [[["a", "b"], "1"], [["a", "c"], "1"], [["b", "c"], "1"]]
    doc["meets"] = [[["a", "b"], "0"], [["a", "c"], "0"], [["b", "c"], "0"]]
    proc = run_cli("fp", "bounded", "{p}", files={"p": doc}, tmp_path=tmp_path)
    assert proc.returncode == 1


def test_fp_leq(tmp_path):
    proc = run_cli(
        "fp", "leq", "{p}", "(x & (y | z))", "x",
        files={"p": ANTICHAIN3}, tmp_path=tmp_path,
    )
    assert proc.returncode == 0


def test_usage_error_exit_code(tmp_path):
    proc = run_cli("lattice", "bounded", str(tmp_path / "missing.json"), tmp_path=tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, doc", [
    (["--json", "lattice", "whitman"], chain(24).to_dict()),  # a "yes" verdict
    (["--json", "lattice", "bounded"], M3),  # a "no" verdict
    (["lattice", "check"], M3),  # a short output, still in the buffer at return
])
def test_closed_stdout_is_a_usage_error(tmp_path, argv, doc):
    # the verdict cannot be delivered, so the exit code must not be read as one
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "latkit", *argv, str(path)],
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_cap_exit_code(tmp_path):
    for cap in ("0", "2"):  # 0 is a cap, not "no cap"
        proc = run_cli(
            "fp", "bounded", "{p}", "--cap", cap, files={"p": ANTICHAIN3}, tmp_path=tmp_path
        )
        assert proc.returncode == 3, (cap, proc.stderr)


def test_cap_env_var(tmp_path):
    # an empty LATKIT_CAP keeps the default cap
    for value, code in (("2", 3), ("", 0)):
        proc = run_cli("fp", "bounded", "{p}", files={"p": ANTICHAIN3}, tmp_path=tmp_path,
                       env={"LATKIT_CAP": value})
        assert proc.returncode == code, (value, proc.stderr)


def test_hom_beta(tmp_path):
    proc = run_cli(
        "hom", "beta", "free:x,y", "{t}", "--images", "x=c1,y=c0",
        "--element", "c0", "--k", "0",
        files={"t": TWO}, tmp_path=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "(x & y)"


def test_fiber_verify(tmp_path):
    proc = run_cli(
        "fiber", "verify", "{sq}", "{sq}", "{two}",
        "--g", "0=c0,a=c0,b=c1,1=c1", "--h", "0=c0,a=c1,b=c0,1=c1",
        files={"sq": SQUARE, "two": TWO}, tmp_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "True" in proc.stdout


def test_fiber_order_gen(tmp_path):
    proc = run_cli(
        "fiber", "order-gen", "{sq}", "{sq}", "{two}",
        "--g", "0=c0,a=c0,b=c1,1=c1", "--h", "0=c0,a=c1,b=c0,1=c1",
        files={"sq": SQUARE, "two": TWO}, tmp_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_fixture_commands(tmp_path):
    proc = run_cli("fixture", "L", "--dot", tmp_path=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("digraph")
    proc = run_cli("fixture", "M", "--depth", "3", "--verify", "generators",
                   tmp_path=tmp_path)
    assert proc.returncode == 0
    proc = run_cli("fixture", "M", "--depth", "3", "--verify", "unbounded",
                   tmp_path=tmp_path)
    assert proc.returncode == 0
    # the verdicts and documents are pinned byte for byte
    for verify in ("generators", "kernel", "unbounded"):
        argv = ["fixture", "M", "--verify", verify, "--depth", "3"]
        assert _in_process(argv) == (0, f"{verify} (truncated at 3): True\n")
        doc = {"certificate": {"depth": 3, "truncated": True}, "kind": f"fixture-{verify}",
               "verdict": True, "witness": None}
        assert _in_process(["--json", *argv]) == (0, json.dumps(doc, indent=2) + "\n")


def test_witness_and_verify_certificate(tmp_path):
    proc = run_cli(
        "--json", "witness", "--target", "{m3}",
        "--free-a", "x,y,z", "--free-b", "x,y,z",
        "--images-g", "x=a,y=b,z=c", "--images-h", "x=a,y=b,z=c",
        files={"m3": M3}, tmp_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] is True
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(proc.stdout)
    check = run_cli("verify-certificate", str(cert_file), tmp_path=tmp_path)
    assert check.returncode == 0
    assert "certificate valid: True" in check.stdout


def test_witness_with_zfile(tmp_path):
    zdoc = {"pairs": [["x", "x"], ["(x & y)", "(x & y)"]]}
    proc = run_cli(
        "--json", "witness", "--target", "{m3}",
        "--free-a", "x,y,z", "--free-b", "x,y,z",
        "--images-g", "x=a,y=b,z=c", "--images-h", "x=a,y=b,z=c",
        "--zfile", "{z}",
        files={"m3": M3, "z": zdoc}, tmp_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(proc.stdout)
    check = run_cli("verify-certificate", str(cert_file), tmp_path=tmp_path)
    assert check.returncode == 0


def test_lattice_dot(tmp_path):
    proc = run_cli("lattice", "dot", "{sq}", files={"sq": SQUARE}, tmp_path=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph")


def test_bounded_certificate_roundtrip(tmp_path):
    for doc, expect in ((M3, 1), (SQUARE, 0)):
        proc = run_cli(
            "--json", "lattice", "bounded", "{lat}", files={"lat": doc},
            tmp_path=tmp_path,
        )
        assert proc.returncode == expect
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(proc.stdout)
        check = run_cli("verify-certificate", str(cert_file), tmp_path=tmp_path)
        assert check.returncode == 0, check.stdout


def test_whitman_certificate_roundtrip(tmp_path, fig_lattice):
    proc = run_cli(
        "--json", "lattice", "whitman", "{lat}",
        files={"lat": fig_lattice.to_dict()}, tmp_path=tmp_path,
    )
    assert proc.returncode == 1
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(proc.stdout)
    check = run_cli("verify-certificate", str(cert_file), tmp_path=tmp_path)
    assert check.returncode == 0


CHAIN24 = {
    "elements": [f"c{i:02}" for i in range(24)],
    "covers": [[f"c{i:02}", f"c{i + 1:02}"] for i in range(23)],
}
GRID5 = {
    "elements": [f"g{i}{j}" for i in range(5) for j in range(5)],
    "covers": [[f"g{i}{j}", f"g{i + 1}{j}"] for i in range(4) for j in range(5)]
    + [[f"g{i}{j}", f"g{i}{j + 1}"] for i in range(5) for j in range(4)],
}


@pytest.mark.parametrize("lat, expect", [(CHAIN24, 0), (GRID5, 1)],
                         ids=["chain-24", "grid-5x5"])
def test_whitman_above_twenty_elements(tmp_path, lat, expect):
    proc = run_cli("--json", "lattice", "whitman", "{lat}", files={"lat": lat},
                   tmp_path=tmp_path)
    assert proc.returncode == expect, proc.stderr
    witness = json.loads(proc.stdout)["witness"]
    if expect:
        assert len(witness["S"]) == len(witness["T"]) == 2
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(proc.stdout)
    check = run_cli("verify-certificate", str(cert_file), tmp_path=tmp_path)
    assert check.returncode == 0, check.stdout


def test_tampered_certificate_rejected(tmp_path):
    proc = run_cli(
        "--json", "lattice", "bounded", "{m3}", files={"m3": M3}, tmp_path=tmp_path
    )
    doc = json.loads(proc.stdout)
    doc["certificate"]["lower"]["cycle"] = ["a", "a"]
    doc["certificate"]["lower"]["witnesses"] = ["b", "b"]
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(doc))
    check = run_cli("verify-certificate", str(cert_file), tmp_path=tmp_path)
    assert check.returncode == 1


@pytest.mark.parametrize("argv, files, verdict", [
    (("lattice", "bounded", "{m3}"), {"m3": M3}, True),
    (("lattice", "bounded", "{sq}", "--lower-only"), {"sq": SQUARE}, False),
], ids=["bounded-cycles-marked-true", "lower-rank-marked-false"])
def test_flipped_verdict_rejected(tmp_path, argv, files, verdict):
    proc = run_cli("--json", *argv, files=files, tmp_path=tmp_path)
    doc = json.loads(proc.stdout)
    assert doc["verdict"] is not verdict
    doc["verdict"] = verdict
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(doc))
    check = run_cli("verify-certificate", str(cert_file))
    assert check.returncode == 1
    assert check.stdout == "certificate valid: False\n"


BAD_SIDES = {  # each stands in for one side's certificate
    "list": [1],
    "int": 1,
    "string": "rank",
    "rank-list": {"rank": ["a", "b"]},
    "rank-strings": {"rank": {"a": "0", "b": "0"}},
    "rank-int": {"rank": 3},
    "cycle-string": {"cycle": "ab", "witnesses": "cc"},
    "cycle-ints": {"cycle": [1, 2], "witnesses": ["c", "c"]},
    "witnesses-nested": {"cycle": ["a", "b"], "witnesses": [["c"], ["c"]]},
    "witnesses-mapping": {"cycle": ["a", "b"], "witnesses": {"c": "c"}},
}


@pytest.mark.parametrize("flag", ["--lower-only", "--upper-only", None])
@pytest.mark.parametrize("bad", sorted(BAD_SIDES))
def test_malformed_bounded_certificate_is_false(tmp_path, flag, bad):
    # a bad side stands in for a cycle certificate (M3) and a rank certificate (square)
    for lattice in (M3, SQUARE):
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps(lattice))
        argv = ["--json", "lattice", "bounded", str(lat)] + ([flag] if flag else [])
        doc = json.loads(_in_process(argv)[1])
        if flag:
            doc["certificate"] = BAD_SIDES[bad]
        else:
            doc["certificate"]["upper"] = BAD_SIDES[bad]
        for verdict in (True, False):
            doc["verdict"] = verdict
            cert_file = tmp_path / "cert.json"
            cert_file.write_text(json.dumps(doc))
            assert _in_process(["verify-certificate", str(cert_file)]) == (
                1, "certificate valid: False\n"
            )


def test_deterministic_output(tmp_path):
    first = run_cli(
        "--json", "lattice", "bounded", "{m3}", files={"m3": M3}, tmp_path=tmp_path
    )
    second = run_cli(
        "--json", "lattice", "bounded", "{m3}", files={"m3": M3}, tmp_path=tmp_path
    )
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_fp_bounded_certificate_checked_against_input(tmp_path):
    proc = run_cli("--json", "fp", "bounded", "{p}", files={"p": ANTICHAIN3},
                   tmp_path=tmp_path)
    assert proc.returncode == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(proc.stdout)
    assert run_cli("verify-certificate", str(cert_file)).returncode == 0
    # a 1-element stage lattice carries a valid (empty) rank certificate,
    # but it is not the stage lattice of the input
    doc = json.loads(proc.stdout)
    doc["certificate"]["lower"]["stage_lattice"] = {"elements": ["0"], "covers": []}
    doc["certificate"]["lower"]["rank"] = {}
    cert_file.write_text(json.dumps(doc))
    check = run_cli("verify-certificate", str(cert_file))
    assert check.returncode == 1
    assert "certificate valid: False" in check.stdout


def test_fp_bounded_generators_warning_and_certificate(tmp_path, fig_lattice):
    from latkit.partial_lattice import from_finite_lattice

    total = from_finite_lattice(fig_lattice).to_dict()
    proc = run_cli("--json", "fp", "bounded", "{p}", "--generators", "a1;a2;b3",
                   files={"p": total}, tmp_path=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "warning: no certificate that the sublattice satisfies the interpolation "
        "condition; the verdict relies on the caller's assertion"
    ]
    doc = json.loads(proc.stdout)
    assert doc["generators"] == ["a1", "a2", "b3"]
    assert {side: cert["stage"] for side, cert in doc["certificate"].items()} == {
        "lower": 0, "upper": 0}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(proc.stdout)
    assert run_cli("verify-certificate", str(cert_file)).returncode == 0
    doc["generators"] = ["a1", "a2"]
    cert_file.write_text(json.dumps(doc))
    assert run_cli("verify-certificate", str(cert_file)).returncode == 1


def test_verify_certificate_unknown_kind(tmp_path):
    for argv, kind in (
        (["free", "leq", "--gens", "x,y", "x", "(x | y)"], "free-leq"),
        (["fixture", "M", "--depth", "3", "--verify", "unbounded"], "fixture-unbounded"),
    ):
        proc = run_cli("--json", *argv)
        assert proc.returncode == 0
        cert_file = tmp_path / "doc.json"
        cert_file.write_text(proc.stdout)
        check = run_cli("verify-certificate", str(cert_file))
        assert check.returncode == 2
        assert check.stdout == ""
        assert check.stderr == f"error: no checker for certificate kind '{kind}'\n"


WITNESS_ZFILE = ("witness", "--target", "{m3}", "--free-a", "x,y,z", "--free-b", "x,y,z",
                 "--images-g", "x=a,y=b,z=c", "--images-h", "x=a,y=b,z=c", "--zfile", "{z}")
NO_COVERS = {"elements": ["x", "y"]}
SHORT_COVER = {"elements": ["0", "1"], "covers": [["0"]]}
MIXED_IDS = {"elements": ["0", 1], "covers": [["0", 1]]}
SHORT_JOIN = {"elements": ["x", "y"], "covers": [], "joins": [["x"]]}


@pytest.mark.parametrize(
    "argv, files",
    [
        (("fp", "whitman", "{p}"), {"p": NO_COVERS}),
        (("fp", "whitman", "{p}"), {"p": SHORT_COVER}),
        (("lattice", "bounded", "{p}"), {"p": SHORT_COVER}),
        (("fp", "whitman", "{p}"), {"p": MIXED_IDS}),
        (("lattice", "bounded", "{p}"), {"p": MIXED_IDS}),
        (("fp", "whitman", "{p}"), {"p": SHORT_JOIN}),
        (("lattice", "bounded", "{p}"), {"p": dict(SQUARE, generators=["a", 1])}),
        (("lattice", "bounded", "{p}"), {"p": dict(SQUARE, generators="ab")}),
        (("fp", "leq", "{p}", "x"), {"p": ANTICHAIN3}),
        (("free", "leq", "--gens", "x,y", "x"), {}),
        (("free", "rank", "--gens", "x,y", "x", "y"), {}),
        (("hom", "beta", "free:x,y", "{sq}", "--images", "x=a,y=b", "--element", "0",
          "--k", "-1"), {"sq": SQUARE}),
        (("hom", "alpha", "free:x,y", "{sq}", "--images", "x=a,y=b", "--element", "0",
          "--k", "-1"), {"sq": SQUARE}),
        (("fixture", "M", "--depth", "1", "--verify", "generators"), {}),
        (("fixture", "M", "--depth", "1", "--verify", "kernel"), {}),
        (("fixture", "M", "--depth", "-3", "--verify", "unbounded"), {}),
        (("free", "leq", "--gens", "x,(", "x", "x"), {}),
        (("free", "leq", "--gens", ",", "x", "x"), {}),
        (("free", "leq", "--gens", "x,x", "x", "x"), {}),
        (("hom", "beta", "{sq}", "--free", ",", "--images", "x=a", "--element", "0"),
         {"sq": SQUARE}),
        (("witness", "--target", "{m3}", "--free-a", ",", "--free-b", "x,y,z",
          "--images-g", "x=a", "--images-h", "x=a,y=b,z=c"), {"m3": M3}),
        (WITNESS_ZFILE, {"m3": M3, "z": [1]}),
        (WITNESS_ZFILE, {"m3": M3, "z": {"pairs": [["x"]]}}),
        (WITNESS_ZFILE, {"m3": M3, "z": {"pairs": [["x", "y"]]}}),
        (("fp", "bounded", "{p}", "--cap", "-1"), {"p": ANTICHAIN3}),
        (("fiber", "verify", "{m3}", "{m3}", "{m3}", "--g", "0=0,1=1,a=a,b=b,c=c",
          "--h", "0=0,1=1,a=a,b=b,c=c", "--cap", "-4"), {"m3": M3}),
        (("hom", "beta", "free:x,y", "{m3}", "--images", "x=a,x=b,y=c", "--element", "a",
          "--k", "0"), {"m3": M3}),
        (({"LATKIT_CAP": "-1"}, "fp", "bounded", "{p}"), {"p": ANTICHAIN3}),
        (({"LATKIT_CAP": "abc"}, "fp", "bounded", "{p}"), {"p": ANTICHAIN3}),
        (("lattice", "bounded", "{sq}", "--lower-only", "--upper-only"), {"sq": SQUARE}),
        (("fp", "bounded", "{p}", "--lower-only", "--upper-only"), {"p": ANTICHAIN3}),
        (("fp", "bounded", "{p}", "--generators", "(x & y);(x | z);y", "--lower-only",
          "--upper-only"), {"p": ANTICHAIN3}),
    ],
    ids=[
        "fp-no-covers",
        "fp-short-cover",
        "lattice-short-cover",
        "fp-mixed-ids",
        "lattice-mixed-ids",
        "fp-short-join",
        "lattice-mixed-generators",
        "lattice-string-generators",
        "fp-leq-one-term",
        "free-leq-one-term",
        "free-rank-two-terms",
        "hom-beta-negative-k",
        "hom-alpha-negative-k",
        "fixture-generators-depth-1",
        "fixture-kernel-depth-1",
        "fixture-unbounded-negative-depth",
        "free-reserved-generator",
        "free-no-generators",
        "free-repeated-generator",
        "hom-free-no-generators",
        "witness-free-no-generators",
        "witness-zfile-list",
        "witness-zfile-short-pair",
        "witness-zfile-non-fiber-pair",
        "fp-negative-cap",
        "fiber-negative-cap",
        "hom-repeated-image",
        "env-negative-cap",
        "env-non-integer-cap",
        "lattice-both-sides-only",
        "fp-both-sides-only",
        "fp-both-sides-only-generators",
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, argv, files):
    # a leading mapping is set in the environment of the command
    env, argv = (argv[0], argv[1:]) if isinstance(argv[0], dict) else (None, argv)
    proc = run_cli(*argv, files=files, tmp_path=tmp_path, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_verify_certificate_on_a_depth_12000_term(tmp_path):
    proc = run_cli("--json", *WITNESS_ZFILE[:-2], files={"m3": M3}, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    a = doc["certificate"]["a"]
    for i in range(12000):
        a = f"({'xyz'[i % 3]} {'&|'[i % 2]} {a})"
    for deep in (a, f"({a} | x | y | z)"):
        doc["certificate"]["a"] = deep
        cert_file = tmp_path / "deep.json"
        cert_file.write_text(json.dumps(doc))
        check = run_cli("verify-certificate", str(cert_file))
        assert check.returncode in (0, 1), check.stderr
        assert check.stdout.startswith("certificate valid: ")
        assert "Traceback" not in check.stderr


fuzz_text = st.text(alphabet="xyz,()&| -") | st.text(max_size=8)


@settings(max_examples=150, deadline=None)
@given(action=st.sampled_from(["leq", "rank"]), gens=fuzz_text,
       terms=st.lists(fuzz_text, min_size=1, max_size=2))
def test_free_commands_exit_with_a_documented_code(action, gens, terms):
    from latkit.cli import main

    limit = sys.getrecursionlimit()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["free", action, "--gens", gens, *terms])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 1:
        assert out.getvalue() == "false\n"
    if code == 2:
        assert out.getvalue() == "" and err.getvalue()
    assert sys.getrecursionlimit() == limit
