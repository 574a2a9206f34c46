"""Acceptance suite: one test and one printed pass/fail line per criterion.

Exact arithmetic means zero tolerance unless an interval width is stated.
The two flagged reproduction runs (the 80-vector maximal-induced-matchings
certificate search and the hours-long maximal-irredundant run at 14/9) are
marked slow and excluded from the default run; select them with
``pytest -m slow``.
"""

import sys

import pytest

import fixture_data as fixreg
from automaton_reference import max_count_via_shapes, scale_initial
from exact_reference import poly_divmod
from level_reference import reference_levels
from treebound.automaton import parse_automaton
from treebound.errors import AuditFailure
from treebound.geometry import hull_reduce, member_dominated_hull
from treebound.numeric import (
    Q,
    decimal_str,
    sign_of,
)
from treebound.oracle import (
    bound_audit,
    max_count_via_levels,
    max_count_via_shapes_system,
)
from treebound.search import (
    BudgetExhausted,
    Certificate,
    Found,
    SearchConfig,
    Valid,
    find_certificate,
    verify_certificate,
)
from treebound.spectral import (
    SquareMatrix,
    char_poly,
    lower_bound,
    lower_bound_from_matrix,
    transfer_matrix,
)
from treebound.system import apply, bk_levels, level_max, trim


def report(criterion: str, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}", file=sys.__stdout__)
    sys.__stdout__.flush()


def load(name):
    f = fixreg.BY_NAME[name]
    system = fixreg.load_fixture_system(f)
    cert = fixreg.load_fixture_certificate(f) if f.certificate else None
    return f, system, cert


def hulls_equal(A, B):
    return (all(member_dominated_hull(a, list(B)) for a in A)
            and all(member_dominated_hull(b, list(A)) for b in B))


# -- criterion 1: verification of the printed certificate sets ---------------------


def test_criterion_1_printed_certificates():
    expected_c = {
        "indep_dom": lambda nf: Q(1),
        "perfect_codes": lambda nf: Q(2, 3) * nf.alpha() ** 5,
        "min_perfect_dom": lambda nf: nf.element([2, 2, -2]),
        "total_perfect_dom": lambda nf: nf.alpha() ** 80 / 234881024,
        "matchings3": None,
        "matchings4": None,
        "max_matchings": lambda nf: (Q(-1, 3) * nf.alpha() ** 10
                                     + Q(11, 3) * nf.alpha() ** 3),
    }
    for name, expect in expected_c.items():
        _, system, cert = load(name)
        outcome = verify_certificate(system, cert.alpha, cert.vectors)
        assert isinstance(outcome, Valid), name
        if expect is not None:
            want = expect(cert.field)
            assert sign_of(outcome.C - want) == 0, name
        if cert.C is not None:
            assert sign_of(outcome.C - cert.C) == 0, name
    report("1", "all seven printed certificate sets verify with exact C")


# -- criterion 2: search reproduction ------------------------------------------------


def test_criterion_2_search_reproduction():
    cfg = SearchConfig(max_iterations=10_000)
    for name in ("indep_dom", "perfect_codes", "min_perfect_dom"):
        _, system, cert = load(name)
        result = find_certificate(system, cert.alpha, cfg=cfg,
                                  number_field=cert.field)
        assert isinstance(result, Found), name
        assert result.iterations <= 10_000
        assert hulls_equal(result.certificate.vectors, cert.vectors), name

    _, system, cert = load("matchings4")
    short = SearchConfig(max_iterations=5)
    unseeded = find_certificate(system, cert.alpha, cfg=short,
                                number_field=cert.field)
    assert isinstance(unseeded, BudgetExhausted)
    seeded = find_certificate(system, cert.alpha, seeds=cert.seeds, cfg=cfg,
                              number_field=cert.field)
    assert isinstance(seeded, Found)
    assert hulls_equal(seeded.certificate.vectors, cert.vectors)
    report("2", "searches converge for indep-dom / perfect codes / minimal "
                "perfect dominating; 4-matchings converges only with the "
                "extra seed")


# -- criterion 3: oracle formulas and dual-oracle agreement ---------------------------


def test_criterion_3_oracle_formulas_and_agreement():
    _, system, _ = load("indep_dom")
    for n in range(1, 14, 2):
        assert max_count_via_levels(system, n) == 2 ** ((n - 1) // 2)
    for n in range(2, 13, 2):
        assert max_count_via_levels(system, n) == 2 ** (n // 2 - 1) + 1

    automaton = parse_automaton(
        fixreg.read_data(fixreg.BY_NAME["indep_dom"].automaton))
    for k in range(1, 11):
        assert (max_count_via_shapes(automaton, k, exhaustive_cap=7)
                == max_count_via_levels(system, k))

    for f in fixreg.FIXTURES:
        s = fixreg.load_fixture_system(f)
        for k in range(1, 11):
            a = max_count_via_levels(s, k)
            b = max_count_via_shapes_system(s, k)
            assert sign_of(a - b) == 0, (f.name, k)
    report("3", "count formulas match and level/shape oracles agree on all "
                "fixtures for k <= 10")


# -- criterion 4: bound audits ---------------------------------------------------------


def test_criterion_4_bound_audits():
    for f in fixreg.FIXTURES:
        if not f.certificate:
            continue
        system = fixreg.load_fixture_system(f)
        cert = fixreg.load_fixture_certificate(f)
        bound_audit(system, cert, 10)  # raises AuditFailure on violation
    report("4", "every verified certificate bounds the brute-force counts "
                "for k <= 10")


# -- criterion 5: spectral exactness ----------------------------------------------------


def test_criterion_5_spectral_exactness():
    f = fixreg.BY_NAME["max_induced_matchings"]
    system = fixreg.load_fixture_system(f)
    gadget = fixreg.load_fixture_gadget(f)
    m = transfer_matrix(system, gadget)
    assert char_poly(m) == tuple(Q(c) for c in (108, -135, 132, -33, 12, -1))

    f5 = fixreg.BY_NAME["matchings5"]
    m5 = transfer_matrix(fixreg.load_fixture_system(f5),
                         fixreg.load_fixture_gadget(f5))
    expected = [
        [6561, 6561, 0, 0, 0, 0],
        [44064, 44064, 50625, 0, 0, 0],
        [54000, 54000, 54000, 50625, 0, 0],
        [5832, 5832, 0, 0, 6561, 0],
        [256, 0, 0, 0, 0, 256],
        [256, 0, 0, 0, 0, 0],
    ]
    assert m5.entries == tuple(tuple(Q(x) for x in r) for r in expected)

    fm = fixreg.BY_NAME["min_perfect_dom"]
    mm = transfer_matrix(fixreg.load_fixture_system(fm),
                         fixreg.load_fixture_gadget(fm))
    _, rem = poly_divmod(char_poly(mm), (Q(-1), Q(-1), Q(0), Q(1)))
    assert rem == ()

    width = Q(1, 10 ** 30)
    # published decimals at their printed precision, brackets of width 1e-30
    cases = [
        (lower_bound(fixreg.load_fixture_system(fm),
                     fixreg.load_fixture_gadget(fm), 1),
         5, "1.32472"),
        (lower_bound(system, gadget, 8), 6, "1.331576"),
        (lower_bound(fixreg.load_fixture_system(f5),
                     fixreg.load_fixture_gadget(f5), 45),
         6, "1.293211"),
        (lower_bound_from_matrix(SquareMatrix(((Q(48),),)), 9), 5,
         "1.53746"),
    ]
    for lb, digits, printed in cases:
        lo, hi = lb.interval
        assert hi - lo <= width
        # published decimals are rounded or truncated: one printed ulp
        target = Q(int(printed.replace(".", "")), 10 ** digits)
        ulp = Q(1, 10 ** digits)
        assert lo >= target - ulp and hi <= target + ulp, printed
    report("5", "characteristic polynomials and 1e-30 root brackets "
                "reproduce the published decimals exactly")


# -- criterion 6: gap reproduction -------------------------------------------------------


ALPHA_MAX_INDUCED = Q(4254960628685, 3195429966304)


def test_criterion_6_gap_interval_separation():
    f = fixreg.BY_NAME["max_induced_matchings"]
    lb = lower_bound(fixreg.load_fixture_system(f),
                     fixreg.load_fixture_gadget(f), 8)
    beta = lb.field.alpha()
    gap = ALPHA_MAX_INDUCED - beta
    assert sign_of(gap) == 1
    assert sign_of(Q(7, 10 ** 26) - gap) == 1
    report("6", "0 < alpha - beta < 7e-26 for maximal induced matchings "
                f"(gap ~ {decimal_str(gap, 28)})")


@pytest.mark.slow
def test_criterion_6_flagged_certificate_search():
    # the 80-vector upper-bound certificate at the rational alpha; minutes
    # in the original setting, substantially longer here
    f, system, _ = load("max_induced_matchings")
    result = find_certificate(
        system, ALPHA_MAX_INDUCED,
        cfg=SearchConfig(max_iterations=10_000, max_vectors=4_000))
    assert isinstance(result, Found)
    outcome = verify_certificate(system, ALPHA_MAX_INDUCED,
                                 result.certificate.vectors)
    assert isinstance(outcome, Valid)
    report("6-flagged", f"certificate search at alpha = "
                        f"{ALPHA_MAX_INDUCED} converged with "
                        f"{len(result.certificate.vectors)} vectors")


# -- criterion 7: substituted checks for the hours-long run -------------------------------


def test_criterion_7_irredundant_substitutes():
    f = fixreg.BY_NAME["max_irredundant"]
    system = fixreg.load_fixture_system(f)
    assert system.dim == 20
    trimmed, kept = trim(system)
    assert trimmed.dim == 20 and kept == tuple(range(20))
    count, size = f.direct_count
    assert count == 2 ** 4 + 4 * 2 ** 3 == 48 and size == 9
    lb = lower_bound_from_matrix(SquareMatrix(((Q(count),),)), size)
    lo, hi = lb.interval
    assert lo >= Q(153746, 10 ** 5) - Q(1, 2 * 10 ** 5)
    assert hi <= Q(153746, 10 ** 5) + Q(1, 2 * 10 ** 5)
    report("7", "the 20-dim system parses and trims to itself; the "
                "48-per-9-vertices block certifies the 48^(1/9) lower bound")


@pytest.mark.slow
def test_criterion_7_flagged_full_irredundant_search():
    # registered, hours-long at desk scale (393 vectors in the original run)
    f, system, _ = load("max_irredundant")
    result = find_certificate(
        system, Q(14, 9),
        cfg=SearchConfig(max_iterations=10_000, max_vectors=10_000))
    assert isinstance(result, Found)
    report("7-flagged", f"full 14/9 run converged with "
                        f"{len(result.certificate.vectors)} vectors")


# -- criterion 8: property suites ----------------------------------------------------------


def test_criterion_8_property_spotchecks(sqrt2_field, pad_dead_coordinate):
    # compact reruns of the properties exercised at length in the module
    # test files; any failure here means the dedicated suite fails too
    a = sqrt2_field.element([Q(1, 3), Q(2)])
    b = sqrt2_field.element([Q(-2), Q(1, 5)])
    c = sqrt2_field.element([Q(4), Q(-1)])
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * a.inverse() == 1

    _, system, cert = load("indep_dom")
    u, v, w = (Q(1), Q(2), Q(0)), (Q(0), Q(1), Q(3)), (Q(2), Q(0), Q(1))
    left = apply(system, tuple(2 * x + y for x, y in zip(u, v)), w)
    right = tuple(2 * x + y for x, y in
                  zip(apply(system, u, w), apply(system, v, w)))
    assert left == right

    plain = reference_levels(system, 6)
    scaled = reference_levels(scale_initial(system, Q(3, 2)), 6)
    inv = Q(2, 3)
    for k in range(1, 7):
        expect = {tuple(inv ** k * x for x in vec) for vec in plain[k]}
        assert set(scaled[k]) == expect

    padded = pad_dead_coordinate(system)
    trimmed, _ = trim(padded)
    lv_p, lv_t = bk_levels(padded, 6), bk_levels(trimmed, 6)
    for k in range(1, 7):
        assert sign_of(level_max(padded, lv_p[k])
                       - level_max(trimmed, lv_t[k])) == 0

    X = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(1, 2), Q(1, 2))]
    reduced = hull_reduce(X)
    assert hull_reduce(reduced) == reduced and len(reduced) == 2

    r1 = find_certificate(system, cert.alpha, number_field=cert.field)
    r2 = find_certificate(system, cert.alpha, number_field=cert.field)
    assert r1.certificate.vectors == r2.certificate.vectors

    tampered = Certificate(cert.field, cert.alpha,  # derived C halves too
                           tuple(tuple(c * Q(1, 2) for c in v)
                                 for v in cert.vectors))
    with pytest.raises(AuditFailure):
        bound_audit(system, tampered, 6)
    report("8", "field axioms, simplex exactness, bilinearity, scaling, trim "
                "equivalence, hull idempotence, determinism and "
                "falsification all hold")
