"""CLI surface: subcommands, exit codes, file round-trips."""

import errno
from fractions import Fraction
import importlib.util
import io
import os
from pathlib import Path
import re
import sys

import pytest

import fixture_data as fixreg
import treebound.geometry as geometry
import treebound.search as search
from treebound import cli, fixtures
from treebound.cli import main, parse_alpha_spec
from treebound.numeric import Q, sign_of
from treebound.search import load_certificate, parse_certificate, verify_certificate, Valid
from treebound.system import load_system, parse_system


def data(name) -> str:
    return str(fixreg.data_path(name))


DATA_DIR = data("")
SQRT2 = b"field: -2,0,1 ; interval 1 2\n"
# an indep_dom certificate (dim 3) whose witness lines the cases append
WIT = b"alpha 2\nvec 1 1 1\n"


def strip_witnesses(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("wit "))


def padded_indep_dom() -> str:
    """indep_dom.system with a 4th coordinate that only feeds itself, which
    trimming drops."""
    return (fixreg.read_data("indep_dom.system")
            .replace("dim 3", "dim 4").replace("states F D d\n", "")
            .replace("V0 1 1 0", "V0 1 1 0 0")
            .replace("F 0 1 1", "F 0 1 1 0") + "term 4 4 4\n")


def test_parse_alpha_spec_grammar():
    v, nf = parse_alpha_spec("7/5")
    assert v == Q(7, 5) and nf is None
    v, nf = parse_alpha_spec("root(x^7-3,1,2)")
    assert nf is not None and sign_of(v ** 7 - 3) == 0
    v, nf = parse_alpha_spec("nthroot(13,9)")
    assert sign_of(v ** 9 - 13) == 0
    v, nf = parse_alpha_spec("root(x^14-11x^7+9,1,2)")
    assert sign_of(v ** 14 - 11 * v ** 7 + 9) == 0


def test_compile_roundtrip(tmp_path, capsys):
    out = tmp_path / "out.system"
    rc = main(["compile", data("indep_dom.automaton"), "-o", str(out)])
    assert rc == 0
    compiled = parse_system(out.read_text())
    fixture = load_system(data("indep_dom.system"))
    assert compiled.dim == fixture.dim
    assert sorted(compiled.terms) == sorted(fixture.terms)
    assert compiled.v0 == fixture.v0 and compiled.f == fixture.f


def test_compile_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.automaton"
    bad.write_text("states A\ntrans A A ->\n")
    assert main(["compile", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_compile_trim_drops_unreachable(tmp_path, capsys):
    aut = tmp_path / "aut"
    aut.write_text("states a b dead\nfinal a\nleaf0 a\nleaf1 b\n"
                   "trans a b -> a\ntrans dead dead -> dead\n")
    out = tmp_path / "sys"
    assert main(["compile", str(aut), "--trim", "-o", str(out)]) == 0
    assert parse_system(out.read_text()).dim == 2


def test_verify_fixture_ok(capsys):
    rc = main(["verify", data("min_perfect_dom.system"),
               data("min_perfect_dom.cert")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "VALID" in out and "1.32471" in out


def test_verify_truncated_certificate(tmp_path, capsys):
    trunc = tmp_path / "trunc.cert"
    lines = fixreg.read_data("perfect_codes.cert").splitlines()
    trunc.write_text("\n".join(lines[:2]))  # header and alpha only
    rc = main(["verify", data("perfect_codes.system"), str(trunc)])
    assert rc == 2


def test_verify_tampered_certificate(tmp_path, capsys):
    t = tmp_path / "bad.cert"
    text = fixreg.read_data("indep_dom.cert").replace("vec 0 1/2 1/2\n", "")
    t.write_text(text)
    rc = main(["verify", data("indep_dom.system"), str(t)])
    assert rc == 1
    assert "INVALID" in capsys.readouterr().out


def test_bound_finds_and_emits(tmp_path, capsys):
    out = tmp_path / "emitted.cert"
    rc = main(["bound", data("perfect_codes.system"),
               "--alpha", "root(x^7-3,1,2)",
               "--emit-certificate", str(out), "--sample", "7"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "found a certificate" in text
    # emitted file re-verifies identically to the in-memory result
    cert = load_certificate(out)
    system = load_system(data("perfect_codes.system"))
    r = verify_certificate(system, cert.alpha, cert.vectors)
    assert isinstance(r, Valid)
    stated = parse_certificate(out.read_text()).C
    assert stated is not None and sign_of(r.C - stated) == 0


def test_matchings5_bound_and_verify_ask_fewer_lps(tmp_path, monkeypatch,
                                                  capsys):
    # a product dominated by one an LP already showed inside the same hull
    # is inside too; before hulls admitted such points these two commands
    # asked 526 LPs (143 of them in hull_reduce) and 305
    asked = {"reduce": 0, "other": 0}
    reducing = []

    def solve(x, X):
        asked["reduce" if reducing else "other"] += 1
        return lp_solve(x, X)

    def reduce(X):
        reducing.append(True)
        try:
            return hull_reduce(X)
        finally:
            reducing.pop()

    lp_solve, hull_reduce = geometry.lp_solve, search.hull_reduce
    monkeypatch.setattr(geometry, "lp_solve", solve)
    monkeypatch.setattr(search, "hull_reduce", reduce)
    out = tmp_path / "m5.cert"
    assert main(["bound", data("matchings5.system"), "--alpha", "13/10",
                 "--emit-certificate", str(out)]) == 0
    assert asked == {"reduce": 143, "other": 167}
    asked.update(reduce=0, other=0)
    assert main(["verify", data("matchings5.system"), str(out)]) == 0
    assert asked == {"reduce": 0, "other": 130}
    capsys.readouterr()


@pytest.fixture
def asked(monkeypatch):
    """Counts of the membership LPs asked and the simplex pivots taken."""
    asked = {"lp": 0, "pivot": 0}
    lp_solve, _pivot = geometry.lp_solve, geometry._pivot

    def solve(x, X):
        asked["lp"] += 1
        return lp_solve(x, X)

    def pivot(*args):
        asked["pivot"] += 1
        return _pivot(*args)

    monkeypatch.setattr(geometry, "lp_solve", solve)
    monkeypatch.setattr(geometry, "_pivot", pivot)
    return asked


def test_matchings5_bound_takes_few_pivots(tmp_path, asked, capsys):
    # on int rows phase 1 starts from the best single vector and a surplus
    # in each row it covers; from the all-artificial basis the same 310 LPs
    # took 3,662 pivots
    assert main(["bound", data("matchings5.system"), "--alpha", "13/10",
                 "--emit-certificate", str(tmp_path / "m5.cert")]) == 0
    assert asked["lp"] == 310 and asked["pivot"] < 2000
    capsys.readouterr()


def test_matchings3_verify_takes_few_pivots(tmp_path, asked, capsys):
    # over Q(alpha) too phase 1 starts from the best single vector: the 29
    # LPs of a witness-free matchings3 verify took 254 pivots from the
    # all-artificial basis
    stripped = tmp_path / "stripped.cert"
    stripped.write_text(strip_witnesses(fixreg.read_data("matchings3.cert")))
    assert main(["verify", data("matchings3.system"), str(stripped)]) == 0
    assert asked["lp"] == 29 and asked["pivot"] < 150
    capsys.readouterr()
    # witness-free copies of the degree-85 total_perfect_dom certificate and
    # of max_matchings' report the verdict and C of the bundled files
    for name in ("total_perfect_dom", "max_matchings"):
        stripped.write_text(strip_witnesses(fixreg.read_data(f"{name}.cert")))
        assert main(["verify", data(f"{name}.system"), str(stripped)]) == 0
        report = capsys.readouterr().out
        assert main(["verify", data(f"{name}.system"),
                     data(f"{name}.cert")]) == 0
        assert capsys.readouterr().out == report


def test_bound_budget_exhaustion_diagnostics(tmp_path, capsys):
    rc = main(["bound", data("indep_dom.system"), "--alpha", "7/5",
               "--max-iter", "5",
               "--emit-certificate", str(tmp_path / "partial.cert")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "budget exhausted" in out and "growth" in out
    partial = (tmp_path / "partial.cert").read_text()
    assert partial.startswith("# partial")
    resumed = parse_certificate(partial)
    assert resumed.vectors  # resumable state present


def test_bound_emit_then_verify_padded_system(tmp_path, capsys):
    # a 4th coordinate that only feeds itself is trimmed away by bound; verify
    # and the audit trim the same way, so the emitted file checks out
    padded = tmp_path / "padded.system"
    padded.write_text(padded_indep_dom())
    cert = tmp_path / "c.cert"
    assert main(["bound", str(padded), "--alpha", "3/2",
                 "--emit-certificate", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(padded), str(cert)]) == 0
    assert "certificate VALID" in capsys.readouterr().out
    assert main(["oracle", "--system", str(padded), "--k", "6",
                 "--audit", str(cert)]) == 0


def test_bound_emit_then_verify_system_with_field(tmp_path, capsys):
    # a field: header in the system and a rational alpha: the emitted file
    # names the system's field, so its poly(...) entries parse back
    system = tmp_path / "field.system"
    system.write_text("field: -2,0,1 ; interval 1 2\n"
                      + fixreg.read_data("indep_dom.system")
                      .replace("term 2 2 1\n", "term 2 2 1 poly(0,1)\n"))
    cert = tmp_path / "c.cert"
    assert main(["bound", str(system), "--alpha", "2",
                 "--emit-certificate", str(cert)]) == 0
    assert cert.read_text().startswith("field: -2,0,1 ; interval 1 2\n")
    capsys.readouterr()
    assert main(["verify", str(system), str(cert)]) == 0
    assert "certificate VALID" in capsys.readouterr().out
    partial = tmp_path / "partial.cert"
    assert main(["bound", str(system), "--alpha", "2", "--max-iter", "1",
                 "--emit-certificate", str(partial)]) == 1
    assert load_certificate(partial).field is not None


def test_bound_verify_flag(capsys):
    rc = main(["bound", data("indep_dom.system"),
               "--alpha", "root(x^2-2,1,2)",
               "--verify", data("indep_dom.cert")])
    assert rc == 0


@pytest.mark.parametrize("name", ["indep_dom", "perfect_codes",
                                  "min_perfect_dom", "matchings3",
                                  "total_perfect_dom", "matchings4",
                                  "max_matchings"])
def test_bound_verify_emits_the_bundled_witnesses(tmp_path, asked, capsys,
                                                  name):
    # the bundled certificates were written by this command from their
    # witness-free lines: it reproduces them byte for byte, and rewrites a
    # file that already has witnesses to the same bytes, keeping its own
    # wit lines without asking an LP
    bundled = fixreg.read_data(f"{name}.cert")
    stripped = tmp_path / "stripped.cert"
    stripped.write_text(strip_witnesses(bundled))
    for source in (stripped, data(f"{name}.cert")):
        asked["lp"] = 0
        out = tmp_path / "out.cert"
        assert main(["bound", data(f"{name}.system"),
                     "--alpha", fixtures.BY_NAME[name].alpha_spec,
                     "--verify", str(source),
                     "--emit-certificate", str(out)]) == 0
        assert out.read_text() == bundled
        assert capsys.readouterr().out.endswith(
            f"certificate with witnesses written to {out}\n")
    assert asked["lp"] == 0


def test_bound_verify_emit_asks_each_lp_once(tmp_path, asked, capsys):
    # the verify's one walk gives the witnesses it writes: on a witness-free
    # min_perfect_dom certificate it asks 6 LPs, an exact repeat settled by
    # the point an LP admitted
    bundled = fixreg.read_data("min_perfect_dom.cert")
    stripped = tmp_path / "stripped.cert"
    stripped.write_text(strip_witnesses(bundled))
    out = tmp_path / "out.cert"
    assert main(["bound", data("min_perfect_dom.system"),
                 "--alpha", fixtures.BY_NAME["min_perfect_dom"].alpha_spec,
                 "--verify", str(stripped),
                 "--emit-certificate", str(out)]) == 0
    assert out.read_text() == bundled and asked["lp"] == 6
    capsys.readouterr()


def test_bound_verify_emits_nothing_for_an_invalid_certificate(tmp_path,
                                                                capsys):
    t = tmp_path / "bad.cert"
    t.write_text(strip_witnesses(fixreg.read_data("indep_dom.cert"))
                 .replace("vec 0 1/2 1/2\n", ""))
    out = tmp_path / "out.cert"
    assert main(["bound", data("indep_dom.system"), "--alpha",
                 "root(x^2-2,1,2)", "--verify", str(t),
                 "--emit-certificate", str(out)]) == 1
    assert "INVALID" in capsys.readouterr().out and not out.exists()


def test_bound_verify_emit_reads_the_certificates_own_weights(tmp_path,
                                                              capsys):
    # a CERT weight that does not parse is a parse error, as in verify, and
    # nothing is written
    t = tmp_path / "bad.cert"
    t.write_text(strip_witnesses(fixreg.read_data("indep_dom.cert"))
                 + "wit v0 0:x\n")
    out = tmp_path / "out.cert"
    assert main(["bound", data("indep_dom.system"), "--alpha",
                 "root(x^2-2,1,2)", "--verify", str(t),
                 "--emit-certificate", str(out)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")
    assert not out.exists()


def test_halved_certificate_with_its_witnesses_is_invalid(tmp_path, capsys,
                                                          monkeypatch):
    # the benchmark's tampered copy halves every vec line and keeps the wit
    # lines, whose weights then no longer prove V0/alpha inside
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, reference)
    spec.loader.exec_module(reference)
    halved = tmp_path / "halved.cert"
    halved.write_text(reference.halve_certificate(
        fixreg.read_data("min_perfect_dom.cert")))
    assert "wit v0 " in halved.read_text()
    assert main(["verify", data("min_perfect_dom.system"), str(halved)]) == 1
    out = capsys.readouterr().out
    assert "certificate INVALID" in out
    assert "escaping seed vector V0/alpha" in out


def test_only_verify_parses_a_witness_weight(tmp_path, capsys):
    # the audit and a seed file read the wit lines' structure, not their
    # weights; verify reads the weights it checks
    cert = tmp_path / "bad.cert"
    cert.write_text(fixreg.read_data("indep_dom.cert")
                    .replace("wit v0 2:1\n", "wit v0 2:1/0\n"))
    system = data("indep_dom.system")
    assert main(["oracle", "--system", system, "--k", "6",
                 "--audit", str(cert)]) == 0
    assert main(["bound", system, "--alpha", "3/2", "--max-iter", "20",
                 "--seed-file", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", system, str(cert)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_oracle_cli_agreement(capsys):
    rc = main(["oracle", "--system", data("matchings3.system"), "--k", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "level route" in out and "shape route" in out


def test_oracle_cli_audit(capsys):
    rc = main(["oracle", "--system", data("indep_dom.system"), "--k", "8",
               "--audit", data("indep_dom.cert")])
    assert rc == 0
    assert "k = 8" in capsys.readouterr().out


@pytest.mark.parametrize("stated", ["C 1000000", "C 1/1000"])
def test_audit_derives_C_and_ignores_the_stated_one(tmp_path, capsys, stated):
    args = ["oracle", "--system", data("min_perfect_dom.system"), "--k", "8",
            "--audit"]
    assert main(args + [data("min_perfect_dom.cert")]) == 0
    honest = capsys.readouterr().out
    tampered = tmp_path / "tampered.cert"
    tampered.write_text(re.sub(r"(?m)^C .*$", stated,
                               fixreg.read_data("min_perfect_dom.cert")))
    assert main(args + [str(tampered)]) == 0
    assert capsys.readouterr().out == honest


def test_spectral_cli_gadget(capsys):
    rc = main(["spectral", data("max_induced_matchings.system"),
               "--gadget", data("max_induced_matchings.gadget"),
               "--size", "8", "--digits", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.3315769" in out and "-x^5+12x^4-33x^3+132x^2-135x+108" in out


def test_spectral_cli_direct_count(capsys):
    rc = main(["spectral", "--count", "48", "--size", "9"])
    assert rc == 0
    assert "1.53746" in capsys.readouterr().out


@pytest.mark.parametrize("count,size,beta", [
    ("3", "1", "3.000000"), ("1", "3", "1.000000")])
def test_spectral_cli_exact_root(capsys, count, size, beta):
    # lambda is an integer and mid**size hits it exactly during bisection
    assert main(["spectral", "--count", count, "--size", size]) == 0
    out = capsys.readouterr().out
    assert f"~ {beta}" in out
    lo, hi = map(Fraction, re.search(r"bracket: \[(\S+), (\S+)\]", out).groups())
    assert lo < Fraction(beta) < hi and hi - lo <= Fraction(1, 10 ** 30)


@pytest.mark.parametrize("argv", [
    ["oracle", "--system", data("indep_dom.system"), "--k", "0"],
    ["oracle", "--system", data("indep_dom.system"), "--k", "-3", "--shapes"],
    ["spectral", "--count", "3", "--size", "0"],
    ["spectral", "--count", "0", "--size", "3"],
    ["spectral", "--count", "3", "--size", "7", "--digits", "-1"],
    ["bound", data("indep_dom.system"), "--alpha", "3/2", "--max-iter", "0"],
    ["bound", data("indep_dom.system"), "--alpha", "3/2",
     "--max-vectors", "0"],
    ["bound", data("indep_dom.system"), "--alpha", "nthroot(3,x)"],
    ["bound", data("indep_dom.system"), "--alpha", "root(x^2-2,a,2)"],
    ["bound", data("indep_dom.system"), "--alpha", "0"],
    ["bound", data("indep_dom.system"), "--alpha", "-1"],
    ["bound", data("indep_dom.system"), "--alpha", "nthroot(3,0)"],
    ["bound", data("indep_dom.system"), "--alpha", "nthroot(-3,2)"],
    ["bound", data("indep_dom.system"), "--alpha", "root(x^2+1,0,1)"],
    ["oracle", "--system", data("indep_dom.system"), "--k", "13"],
    # bytes stand for a file with those contents
    ["verify", data("indep_dom.system"), b"alpha 2\nvec 1/0 1\n"],
    ["verify", data("indep_dom.system"),
     SQRT2 + b"alpha poly(0,1/0)\nvec 1 1\n"],
    ["verify", data("indep_dom.system"),
     b"field: -2,0,1 ; interval 1 0/0\nalpha 2\nvec 1 1\n"],
    ["verify", b"dim 2\nV0 1/0 1\nF 0 1\n", data("indep_dom.cert")],
    ["verify", b"dim 2\nV0 1 1\nF 0 1\nterm 1 1 1 2/0\n",
     data("indep_dom.cert")],
    ["verify", b"field: -2,0,1 ; interval 1 2/0\ndim 2\nV0 1 1\nF 0 1\n",
     data("indep_dom.cert")],
    ["verify", data("indep_dom.system"),
     b"field: -2,0,1 ; interval 2 3\nalpha 2\nvec 1 1\n"],
    ["verify", data("indep_dom.system"),
     b"field: 4,-4,1 ; interval 1 3\nalpha 2\nvec 1 1\n"],
    ["bound", data("indep_dom.system"), "--alpha", "3/0"],
    ["bound", data("indep_dom.system"), "--alpha", "root(x^2-2,1,2/0)"],
    ["bound", data("indep_dom.system"), "--alpha", "nthroot(3/0,2)"],
    ["verify", DATA_DIR, DATA_DIR],
    # witness lines: a second witness for a pair, an index that is not a
    # nonnegative int, a term without ':', no term, a weight that does not
    # parse (read when verify checks it)
    ["verify", data("indep_dom.system"), WIT + b"wit 0 0 0:1\nwit 0 0 0:1\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 0:1\nwit v0 0:1\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit 0 a 0:1\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit -1 0 0:1\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 1/2:1\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 1\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit 0\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 0:1/0\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 0:\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 0:poly(0,1)\n"],
    ["verify", data("indep_dom.system"), WIT + b"wit v0 0:1\nwit 0 0 0:x\n"],
    ["verify", b"\xff\xfe dim 2\n", data("indep_dom.cert")],
])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, bytes):
            path = tmp_path / f"input{i}"
            path.write_bytes(arg)
            argv[i] = str(path)
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(("usage:", "parse error: "))


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for f in fixreg.FIXTURES:
        assert f.name in out


def test_fixtures_run_verifies_and_bounds(capsys):
    assert main(["fixtures", "run", "indep_dom", "min_perfect_dom",
                 "perfect_codes"]) == 0
    out = capsys.readouterr().out
    assert out.count("certificate VALID") == 3
    assert "lower bound ~ 1.324718" in out
    assert "lower bound from 3 selections per 7 vertices ~ 1.169931" in out


def test_fixtures_run_checks_what_verify_checks(tmp_path, monkeypatch,
                                               capsys):
    # a fixture loads its system trimmed, as verify does: the bundled
    # certificate holds for indep_dom padded with a dead coordinate
    (tmp_path / "padded.system").write_text(padded_indep_dom())
    (tmp_path / "indep_dom.cert").write_text(fixreg.read_data("indep_dom.cert"))
    (tmp_path / "path.gadget").write_text("B(V0,HOLE)\n")
    padded = fixtures.Fixture(
        name="padded", description="indep_dom with a dead coordinate",
        system="padded.system", certificate="indep_dom.cert",
        gadget="path.gadget", gadget_size=1)
    monkeypatch.setattr(fixtures, "FIXTURES", (padded,))
    monkeypatch.setattr(fixtures, "BY_NAME", {"padded": padded})
    monkeypatch.setattr(fixtures, "data_path", lambda name: tmp_path / name)
    assert main(["verify", str(tmp_path / "padded.system"),
                 str(tmp_path / "indep_dom.cert")]) == 0
    verified = capsys.readouterr().out
    assert main(["fixtures", "run", "padded"]) == 0
    out = capsys.readouterr().out
    assert verified in out and "certificate VALID" in out
    assert "lower bound ~ 1.324718" in out


@pytest.mark.parametrize("argv", [["run", "indep_dom", "--search"],
                                  ["run", "--search", "indep_dom"]])
def test_fixtures_run_search_takes_names_either_side(capsys, argv):
    assert main(["fixtures", *argv]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^== (\w+):", out, re.MULTILINE) == ["indep_dom"]
    assert "search: converged" in out


def test_main_keeps_no_parsed_state_between_calls(capsys):
    # the parser is built once; names appended after --search and
    # --sample's list must not reach the next call
    assert cli.build_parser() is cli.build_parser()
    assert main(["fixtures", "run", "indep_dom", "--search"]) == 0
    capsys.readouterr()
    assert main(["fixtures", "run"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^== (\w+):", out, re.MULTILINE) == [
        f.name for f in fixreg.FIXTURES]
    assert "search:" not in out
    system = data("indep_dom.system")
    assert main(["bound", system, "--alpha", "3/2", "--sample", "3"]) == 0
    assert "n = 3: count <=" in capsys.readouterr().out
    assert main(["bound", system, "--alpha", "3/2"]) == 0
    assert "n = " not in capsys.readouterr().out


def test_fixtures_unknown_name(capsys):
    assert main(["fixtures", "run", "nope"]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["verify", "/nonexistent.system", "/nonexistent.cert"]) == 2


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as in `treebound ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_broken_pipe_exits_141_quietly(monkeypatch, capsys):
    # no `cannot write None` report; stdout points at devnull afterwards, so
    # the interpreter's final flush cannot fail again
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["verify", data("indep_dom.system"),
                 data("indep_dom.cert")]) == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_rejected_evidence_is_an_error_not_a_verdict(tmp_path, monkeypatch,
                                                     capsys):
    # an LP that answers "outside" with a ray that separates nothing
    lp_solve = geometry.lp_solve

    def lie(x, X):
        lam = lp_solve(x, X)
        return geometry.Ray((0,) * len(x)) if lam else lam

    monkeypatch.setattr(geometry, "lp_solve", lie)
    stripped = tmp_path / "stripped.cert"
    stripped.write_text(strip_witnesses(fixreg.read_data("matchings3.cert")))
    assert main(["verify", data("matchings3.system"), str(stripped)]) == 1
    out, err = capsys.readouterr()
    assert "certificate" not in out
    assert err.startswith("error: the ray for ")
