"""Certificate search, verification, determinism, and file round-trips."""

from collections import Counter
from dataclasses import replace

import pytest

import treebound.cli as cli
import treebound.geometry as geometry
import treebound.search as search
from treebound.geometry import hull_reduce, lp_solve, member_dominated_hull
from treebound.numeric import Q, nthroot_field, sign_of
from treebound.search import (
    BudgetExhausted,
    Certificate,
    Found,
    Invalid,
    SearchConfig,
    Valid,
    _geometric_limit,
    find_certificate,
    format_certificate,
    load_certificate,
    parse_certificate,
    upper_bound_report,
    verify_certificate,
)
from treebound.system import apply, bk_levels, level_max, parse_system, trim


def hulls_equal(A, B):
    return (all(member_dominated_hull(a, list(B)) for a in A)
            and all(member_dominated_hull(b, list(A)) for b in B))


# -- verification of the bundled sets ----------------------------------------------


def test_verify_indep_dom(indep_dom_system, indep_dom_cert):
    r = verify_certificate(indep_dom_system, indep_dom_cert.alpha,
                           indep_dom_cert.vectors)
    assert isinstance(r, Valid)
    assert sign_of(r.C - 1) == 0


def test_verify_detects_deleted_vector(indep_dom_system, indep_dom_cert):
    pruned = tuple(v for v in indep_dom_cert.vectors
                   if v != (Q(0), Q(1, 2), Q(1, 2)))
    assert len(pruned) == 2
    r = verify_certificate(indep_dom_system, indep_dom_cert.alpha, pruned)
    assert isinstance(r, Invalid)
    assert r.kind == "product"


def test_verify_rejects_bad_seed(perfect_codes_system):
    # a nonnegative set that does not even contain V0/alpha
    f = nthroot_field(3, 7)
    vecs = ((Q(1, 10), Q(0), Q(0)),)
    r = verify_certificate(perfect_codes_system, f.alpha(), vecs)
    assert isinstance(r, Invalid) and r.kind == "seed"


# -- search ------------------------------------------------------------------------


def test_search_indep_dom(indep_dom_system, indep_dom_cert, sqrt2_field):
    r = find_certificate(indep_dom_system, sqrt2_field.alpha(),
                         number_field=sqrt2_field)
    assert isinstance(r, Found)
    cert = r.certificate
    assert sign_of(cert.C - 1) == 0
    assert hulls_equal(cert.vectors, indep_dom_cert.vectors)
    assert isinstance(
        verify_certificate(indep_dom_system, cert.alpha, cert.vectors), Valid)


def test_search_perfect_codes(perfect_codes_system, perfect_codes_cert):
    f = nthroot_field(3, 7)
    r = find_certificate(perfect_codes_system, f.alpha(), number_field=f)
    assert isinstance(r, Found)
    assert hulls_equal(r.certificate.vectors, perfect_codes_cert.vectors)
    assert sign_of(r.certificate.C - perfect_codes_cert.C) == 0


def test_search_min_perfect_dom(fx, plastic_field):
    fixture = fx.BY_NAME["min_perfect_dom"]
    s = fx.load_fixture_system(fixture)
    cert = fx.load_fixture_certificate(fixture)
    r = find_certificate(s, plastic_field.alpha(), number_field=plastic_field)
    assert isinstance(r, Found)
    assert hulls_equal(r.certificate.vectors, cert.vectors)
    assert sign_of(r.certificate.C - cert.C) == 0


def counting(monkeypatch, phase):
    """A Counter of the LPs and products asked, keyed by (phase[0], kind)."""
    asked = Counter()

    def solve(x, X):
        asked[phase[0], "lp"] += 1
        return lp_solve(x, X)

    def product(s, x, y):
        asked[phase[0], "apply"] += 1
        return apply(s, x, y)

    monkeypatch.setattr(geometry, "lp_solve", solve)
    monkeypatch.setattr(search, "apply", product)
    return asked


def test_search_matchings5_at_13_10(fx, monkeypatch):
    # the search workload's search: memos and pricing change no step of it.
    # A pair is checked only when one of its vectors is new to X: 989
    # products where checking every pair not yet shown inside took 1,061
    phase = ["search"]
    asked = counting(monkeypatch, phase)
    s = fx.load_fixture_system(fx.BY_NAME["matchings5"])
    r = find_certificate(s, Q(13, 10))
    assert isinstance(r, Found)
    assert r.iterations == 8
    assert len(r.certificate.vectors) == 25
    assert r.certificate.C == Q(40000, 28561)
    phase[0] = "verify"
    assert verify_certificate(s, Q(13, 10), r.certificate.vectors) == Valid(
        Q(40000, 28561))
    assert asked["search", "lp"] == 310 and asked["search", "apply"] <= 989
    assert asked["verify", "lp"] == 130


def test_fixtures_run_search_asks_the_same_lps(monkeypatch, capsys):
    # the verifies of the bundled certificates with their witnesses stripped,
    # which take the LP path, and the searches of the fixtures whose search
    # is not slow; then the verifies with the witnesses, which ask no LP and
    # print the same reports and exit code for all 7 certificates
    phase = ["verify"]

    def find(*args, **kwargs):
        phase[0] = "search"
        try:
            return find_certificate(*args, **kwargs)
        finally:
            phase[0] = "verify"

    asked = counting(monkeypatch, phase)
    monkeypatch.setattr(cli, "find_certificate", find)
    monkeypatch.setattr(cli, "load_certificate", lambda path: replace(
        load_certificate(path), witnesses=None))
    assert cli.main(["fixtures", "run", "--search"]) == 0
    stripped = capsys.readouterr().out
    assert "budget exhausted" not in stripped
    # the unseeded total_perfect_dom search (20 iterations) asks 264 of the
    # search's LPs and 946 of its products
    assert asked["verify", "lp"] == 214 and asked["search", "lp"] == 637
    assert asked["search", "apply"] <= 1743
    asked.clear()
    monkeypatch.setattr(cli, "load_certificate", load_certificate)
    assert cli.main(["fixtures", "run"]) == 0
    assert asked["verify", "lp"] == 0
    assert capsys.readouterr().out == "".join(
        line for line in stripped.splitlines(keepends=True)
        if not line.startswith("search: "))


def test_search_asks_no_lp_of_a_vector_a_reduction_dropped(fx, monkeypatch):
    # a dropped vector lies in conv_<=(X), and conv_<= only grows, so the
    # search loop never asks an LP about it again
    dropped, queries, reducing = set(), [], []

    def reduce(X):
        reducing.append(True)
        kept = hull_reduce(X)
        reducing.pop()
        dropped.update(set(X).difference(kept))
        return kept

    def solve(x, X):
        if not reducing:
            assert x not in dropped
            queries.append(x)
        return lp_solve(x, X)

    monkeypatch.setattr(search, "hull_reduce", reduce)
    monkeypatch.setattr(geometry, "lp_solve", solve)
    s = fx.load_fixture_system(fx.BY_NAME["matchings5"])
    assert isinstance(find_certificate(s, Q(13, 10)), Found)
    assert dropped and queries


def test_search_determinism(indep_dom_system, sqrt2_field):
    r1 = find_certificate(indep_dom_system, sqrt2_field.alpha(),
                          number_field=sqrt2_field)
    r2 = find_certificate(indep_dom_system, sqrt2_field.alpha(),
                          number_field=sqrt2_field)
    assert isinstance(r1, Found) and isinstance(r2, Found)
    assert r1.certificate.vectors == r2.certificate.vectors
    assert r1.iterations == r2.iterations


def test_search_budget_exhausted_below_rate(indep_dom_system):
    # 7/5 < sqrt(2): no certificate exists; the odd-order scaled maxima
    # grow by the factor 2/(7/5)^2 > 1 per step, diagnosing the bad alpha
    r = find_certificate(indep_dom_system, Q(7, 5),
                         cfg=SearchConfig(max_iterations=6))
    assert isinstance(r, BudgetExhausted)
    vals = dict(r.growth_trace)
    assert sign_of(vals[9] - vals[7]) > 0
    assert sign_of(vals[7] - vals[5]) > 0
    assert r.vectors  # resumable partial state


def test_search_monotone_iterations(indep_dom_system, sqrt2_field):
    # every earlier vector stays inside the final dominated hull
    a = sqrt2_field.alpha()
    inv = a.inverse()
    seed = tuple(inv * c for c in indep_dom_system.v0)
    r = find_certificate(indep_dom_system, a, number_field=sqrt2_field)
    assert member_dominated_hull(seed, list(r.certificate.vectors))
    first_product = apply(indep_dom_system, seed, seed)
    assert member_dominated_hull(first_product, list(r.certificate.vectors))


def test_found_soundness_against_levels(indep_dom_system, sqrt2_field):
    # Every level vector satisfies F.v <= C*alpha^k for k <= 8
    r = find_certificate(indep_dom_system, sqrt2_field.alpha(),
                         number_field=sqrt2_field)
    cert = r.certificate
    levels = bk_levels(indep_dom_system, 8)
    power = 1
    for k in range(1, 9):
        power = power * cert.alpha
        bound = cert.C * power
        assert sign_of(bound - level_max(indep_dom_system,
                                         levels[k])) >= 0


def test_search_trimmed_precondition(fx, sqrt2_field, pad_dead_coordinate):
    # searching a padded system after trim gives the same certificate
    s = fx.load_fixture_system(fx.BY_NAME["indep_dom"])
    padded = pad_dead_coordinate(s)
    t, _ = trim(padded)
    r = find_certificate(t, sqrt2_field.alpha(), number_field=sqrt2_field)
    assert isinstance(r, Found)
    assert sign_of(r.certificate.C - 1) == 0


# -- reports and files --------------------------------------------------------------


def test_upper_bound_report(indep_dom_system, indep_dom_cert):
    C = verify_certificate(indep_dom_system, indep_dom_cert.alpha,
                           indep_dom_cert.vectors).C
    text = upper_bound_report(indep_dom_cert.alpha, C,
                              len(indep_dom_cert.vectors), n_samples=[13])
    assert "alpha" in text and "1.414214" in text
    assert "n = 13" in text and "90.509" in text  # 2^6.5 ~ 90.51


def test_certificate_roundtrip(indep_dom_system, indep_dom_cert):
    text = format_certificate(indep_dom_cert)
    again = parse_certificate(text)
    assert again.vectors == indep_dom_cert.vectors
    assert again.alpha == indep_dom_cert.alpha
    r1 = verify_certificate(indep_dom_system, again.alpha, again.vectors)
    r2 = verify_certificate(indep_dom_system, indep_dom_cert.alpha,
                            indep_dom_cert.vectors)
    assert isinstance(r1, Valid) and isinstance(r2, Valid)
    assert sign_of(r1.C - r2.C) == 0


def test_integral_entries_read_as_ints_and_divide_exactly():
    s = parse_system("dim 1\nV0 1\nF 1\nterm 1 1 1\n")
    cert = parse_certificate("alpha 2\nseed 1\nvec 1/2\n")
    assert type(cert.alpha) is int and type(cert.seeds[0][0]) is int
    assert verify_certificate(s, cert.alpha, cert.vectors) == Valid(Q(1, 2))
    # an orbit of int vectors has a rational ratio and limit
    limit = _geometric_limit((0, 0), (2, 4), (3, 6))
    assert limit == (4, 8) and all(type(c) is Q for c in limit)


def test_certificate_parse_errors():
    from treebound.errors import ParseError
    with pytest.raises(ParseError):
        parse_certificate("vec 1 2\n")  # missing alpha
    with pytest.raises(ParseError):
        parse_certificate("alpha 1\nvec 1 2\nvec 1\n")  # ragged dims
