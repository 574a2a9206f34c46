"""The benchmark's three workloads and the checks on their outputs.

A workload is a fixed list of jobs.  A job is one `treebound` command line,
run in-process through `treebound.cli.main` exactly as a user would type it,
plus a check of its exit code and printed output.  Every check compares
against `reference.py` (published constants, closed forms, independent root
enclosures) or against a property the method must have; none compares
against a saved copy of the program's own output.

The inputs are the bundled fixtures with fixed alpha and k: the paper's
systems are the inputs users run, and the seed has nothing to vary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from reference import (
    LOWER_RATES,
    PUBLISHED,
    alpha_enclosure,
    halve_certificate,
    parse_number,
    upper_value,
    wilf,
)

WORKLOADS = ("verify", "search", "oracle")

Check = Callable[[int, str, dict], None]   # (exit code, stdout, round context)


class CheckFailed(Exception):
    """A job ran but its output is wrong: one failed operation."""


@dataclass(frozen=True)
class Job:
    label: str
    argv: Tuple[str, ...]
    check: Check
    before: Optional[Callable[[], None]] = None   # untimed, ahead of the job


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _match(pattern: str, out: str) -> re.Match:
    m = re.search(pattern, out, re.MULTILINE)
    if m is None:
        raise CheckFailed(f"no line matching {pattern!r} in the output")
    return m


def _close(decimal: str, enclosure: Tuple[Fraction, Fraction],
           tol: Fraction) -> bool:
    d = Fraction(decimal)
    return enclosure[0] - tol <= d <= enclosure[1] + tol


def _unit(decimal: str) -> Fraction:
    """One unit in the last printed place of a decimal."""
    return Fraction(1, 10 ** len(decimal.split(".")[1]))


# -- verify -----------------------------------------------------------------------


def verify_job(data: Callable[[str], str], name: str,
               cert: Optional[str] = None, C=None) -> Job:
    """`treebound verify` that must report VALID, the published C (when
    given) and as many vectors as the certificate file holds."""
    cert = cert or data(f"{name}.cert")
    n_vectors = sum(1 for line in Path(cert).read_text().splitlines()
                    if line.startswith("vec "))
    alpha = alpha_enclosure(name)
    if C is None:
        C = PUBLISHED[name].C

    def check(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}")
        expect("certificate VALID" in out, "not reported VALID")
        a = _match(r"^  alpha = (\S+)  ~ (\S+)$", out)
        expect(_close(a.group(2), alpha, Fraction(1, 10 ** 6)),
               f"alpha ~ {a.group(2)} is not the fixture's alpha")
        c = _match(r"^  C     = (\S+)  ~ ", out).group(1)
        if C is not None:
            expect(parse_number(c) == C, f"C = {c} is not the published C")
        n = int(_match(r"^  certificate vectors: (\d+)$", out).group(1))
        expect(n == n_vectors, f"{n} vectors reported, file holds {n_vectors}")

    return Job(f"verify {name}", ("verify", data(f"{name}.system"), cert),
               check)


def verify_rejects_job(data: Callable[[str], str], name: str,
                       tampered: str) -> Job:
    """`treebound verify` of a halved certificate: INVALID, exit code 1."""
    def check(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 1, f"exit code {rc} for a tampered certificate")
        expect("certificate INVALID" in out, "tampered copy not rejected")
        expect("escaping seed vector V0/alpha" in out,
               "rejected, but not for the escaping V0/alpha")

    return Job(f"verify {name} (halved)",
               ("verify", data(f"{name}.system"), tampered), check)


VERIFY_FIXTURES = ("indep_dom", "perfect_codes", "min_perfect_dom",
                   "matchings3", "total_perfect_dom")


def verify_workload(data: Callable[[str], str], work: Path) -> List[Job]:
    tampered = work / "min_perfect_dom.halved.cert"
    tampered.write_text(halve_certificate(
        Path(data("min_perfect_dom.cert")).read_text()))
    jobs = [verify_job(data, name) for name in VERIFY_FIXTURES]
    jobs.append(verify_rejects_job(data, "min_perfect_dom", str(tampered)))
    return jobs


# -- search -----------------------------------------------------------------------

SEARCH_FAMILY, SEARCH_ALPHA, SEARCH_AUDIT_K = "matchings5", "13/10", 12


def search_workload(data: Callable[[str], str], work: Path) -> List[Job]:
    """Closure search at a rational alpha just above the family's rate, the
    verify of the file it wrote, and the level maxima that C*alpha^k bounds."""
    family, alpha_spec, kmax = SEARCH_FAMILY, SEARCH_ALPHA, SEARCH_AUDIT_K
    system = data(f"{family}.system")
    cert = work / f"{family}.cert"
    alpha = Fraction(alpha_spec)
    rate = LOWER_RATES[family]

    def check_bound(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}: the search did not converge")
        _match(r"^found a certificate in \d+ iterations$", out)
        expect(_match(r"^  alpha = (\S+)  ~ ", out).group(1) == alpha_spec,
               "searched at another alpha")
        expect(alpha > Fraction(rate) + _unit(rate),
               f"alpha {alpha_spec} is not above the lower rate {rate}")
        ctx["C"] = _match(r"^  C     = (\S+)  ~ ", out).group(1)
        ctx["vectors"] = _match(r"^  certificate vectors: (\d+)$", out).group(1)
        expect(Fraction(ctx["C"]) > 0, "C is not positive")
        expect(cert.is_file(), "no certificate file written")

    def check_verify(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0 and "certificate VALID" in out,
               "the emitted certificate does not verify")
        c = _match(r"^  C     = (\S+)  ~ ", out).group(1)
        expect(c == ctx.get("C"), f"verify derives C = {c}, search {ctx.get('C')}")
        n = _match(r"^  certificate vectors: (\d+)$", out).group(1)
        expect(n == ctx.get("vectors"), "vector count changed on reload")

    def check_audit(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}")
        C = Fraction(ctx.get("C", "0"))
        counts = _audit_counts(out, kmax)
        for k, count in counts.items():
            expect(count <= C * alpha ** k,
                   f"k = {k}: count {count} exceeds C*alpha^k")

    return [
        Job(f"bound {family} --alpha {alpha_spec}",
            ("bound", system, "--alpha", alpha_spec,
             "--emit-certificate", str(cert)),
            check_bound, before=lambda: cert.unlink(missing_ok=True)),
        Job(f"verify {family} (emitted)", ("verify", system, str(cert)),
            check_verify),
        Job(f"oracle --audit {family} (emitted) --k {kmax}",
            ("oracle", "--system", system, "--k", str(kmax),
             "--audit", str(cert)), check_audit),
    ]


# -- oracle -----------------------------------------------------------------------


def _audit_counts(out: str, kmax: int) -> Dict[int, int]:
    lines = re.findall(r"^  k = (\d+): count (\d+) <= (\S+)$", out, re.MULTILINE)
    counts = {int(k): int(c) for k, c, _ in lines}
    expect(sorted(counts) == list(range(1, kmax + 1)),
           f"audit lines for k = {sorted(counts)}, expected 1..{kmax}")
    for k, c, bound in lines:
        expect(int(c) <= Fraction(bound) + Fraction(1, 10 ** 6),
               f"k = {k}: count {c} above the printed bound {bound}")
    return counts


def _check_max(name: str, k: int, count: int) -> None:
    """The maximum over trees of order k against what is known apart from
    the program: Wilf's closed form, or the published C*alpha^k."""
    if name == "indep_dom":
        expect(count == wilf(k), f"k = {k}: {count}, Wilf gives {wilf(k)}")
    C = PUBLISHED.get(name) and PUBLISHED[name].C
    if C is not None:
        expect(count <= upper_value(C, alpha_enclosure(name), k),
               f"k = {k}: count {count} exceeds the published C*alpha^k")


def levels_job(data: Callable[[str], str], name: str, k: int) -> Job:
    def check(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}")
        count = int(_match(r"\(level route\):\s+(\d+)$", out).group(1))
        _check_max(name, k, count)

    return Job(f"oracle --levels {name} --k {k}",
               ("oracle", "--system", data(f"{name}.system"), "--k", str(k),
                "--levels"), check)


def routes_job(data: Callable[[str], str], name: str, k: int) -> Job:
    """Both routes (level expansion and shape enumeration) at one k."""
    def check(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}")
        lv = int(_match(r"\(level route\):\s+(\d+)$", out).group(1))
        sh = int(_match(r"\(shape route\):\s+(\d+)$", out).group(1))
        expect(lv == sh, f"level route {lv}, shape route {sh}")
        _check_max(name, k, lv)

    return Job(f"oracle {name} --k {k}",
               ("oracle", "--system", data(f"{name}.system"), "--k", str(k)),
               check)


def audit_job(data: Callable[[str], str], name: str, k: int) -> Job:
    def check(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}")
        for kk, count in _audit_counts(out, k).items():
            _check_max(name, kk, count)

    return Job(f"oracle --audit {name} --k {k}",
               ("oracle", "--system", data(f"{name}.system"), "--k", str(k),
                "--audit", data(f"{name}.cert")), check)


def _lower_bound_inputs(data: Callable[[str], str]) -> Dict[str, tuple]:
    def gadget(name: str, size: int) -> Tuple[str, ...]:
        return (data(f"{name}.system"), "--gadget", data(f"{name}.gadget"),
                "--size", str(size))

    # family -> (spectral arguments, upper end of its certified alpha);
    # matchings5 is held to 13/10, the alpha the search workload certifies
    return {
        "min_perfect_dom": (gadget("min_perfect_dom", 1),
                            alpha_enclosure("min_perfect_dom")[1]),
        "max_induced_matchings": (gadget("max_induced_matchings", 8),
                                  Fraction(4254960628685, 3195429966304)),
        "matchings5": (gadget("matchings5", 45), Fraction(13, 10)),
        "max_irredundant": (("--count", "48", "--size", "9"), Fraction(14, 9)),
        "total_perfect_dom": (("--count", "939524096", "--size", "85"),
                              alpha_enclosure("total_perfect_dom")[1]),
        "perfect_codes": (("--count", "3", "--size", "7"),
                          alpha_enclosure("perfect_codes")[1]),
    }


def lower_bound_job(name: str, args: Sequence[str], alpha_hi: Fraction,
                    rate: Optional[str] = None) -> Job:
    """`treebound spectral`: the width-1e-30 bracket must lie within one
    printed unit of the published rate and not above the certified alpha."""
    rate = rate or LOWER_RATES[name]

    def check(rc: int, out: str, ctx: dict) -> None:
        expect(rc == 0, f"exit code {rc}")
        m = _match(r"^  bracket: \[(\S+), (\S+)\]$", out)
        lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
        pub, unit = Fraction(rate), _unit(rate)
        expect(lo <= hi and hi - lo <= Fraction(1, 10 ** 30),
               "bracket wider than 1e-30")
        expect(pub - unit <= lo and hi <= pub + unit,
               f"bracket misses the published {rate}")
        expect(lo <= alpha_hi, "lower bound above the certified alpha")

    return Job(f"spectral {name}", ("spectral", *args), check)


LEVELS_K, ROUTES_K, AUDIT_K = 17, 10, 12
LEVELS_FIXTURES = ("indep_dom", "min_perfect_dom", "perfect_codes",
                   "total_perfect_dom", "max_matchings")
ROUTES_FIXTURES = ("indep_dom", "min_perfect_dom", "perfect_codes",
                   "matchings3")
AUDIT_FIXTURES = ("indep_dom", "perfect_codes", "min_perfect_dom",
                  "matchings3", "matchings4", "max_matchings",
                  "total_perfect_dom")


def oracle_workload(data: Callable[[str], str], work: Path) -> List[Job]:
    jobs = [levels_job(data, n, LEVELS_K) for n in LEVELS_FIXTURES]
    jobs += [routes_job(data, n, ROUTES_K) for n in ROUTES_FIXTURES]
    jobs += [audit_job(data, n, AUDIT_K) for n in AUDIT_FIXTURES]
    jobs += [lower_bound_job(n, args, hi)
             for n, (args, hi) in _lower_bound_inputs(data).items()]
    return jobs


def build(workload: str, data: Callable[[str], str], work: Path) -> List[Job]:
    """The jobs of one round.  `data` maps a bundled file name to its path;
    `work` is a scratch directory for files the jobs read or write."""
    return {"verify": verify_workload, "search": search_workload,
            "oracle": oracle_workload}[workload](data, work)
