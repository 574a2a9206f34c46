"""Brute-force maxima: formulas, dual-route agreement, bound audits."""

import pytest
from hypothesis import given, settings, strategies as st

from automaton_reference import ShapeEnumerator, max_count_via_shapes
from level_reference import reference_levels
from treebound.errors import AuditFailure, CapExceeded
from treebound.numeric import Q, sign_of
from treebound.oracle import (
    bound_audit,
    max_count_via_levels,
    max_count_via_shapes_system,
)
from treebound.search import Certificate
from treebound.system import BilinearSystem, level_max, objective


def test_shape_enumerator_catalan():
    enum = ShapeEnumerator()
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for k, c in enumerate(catalan, start=1):
        shapes = enum.shapes(k)
        assert len(shapes) == c
        assert len(set(map(id, shapes))) == c  # emitted exactly once each


@pytest.mark.parametrize("k,expected", [
    (1, 1), (3, 2), (5, 4), (7, 8), (9, 16), (11, 32), (13, 64),
    (2, 2), (4, 3), (6, 5), (8, 9), (10, 17), (12, 33),
])
def test_indep_dom_formulas(indep_dom_system, k, expected):
    assert max_count_via_levels(indep_dom_system, k) == expected


def test_count_k1_is_f_dot_v0(indep_dom_system, perfect_codes_system):
    for s in (indep_dom_system, perfect_codes_system):
        assert max_count_via_levels(s, 1) == objective(s, s.v0)


def test_shapes_match_levels_automaton(indep_dom_automaton, indep_dom_system):
    for k in (2, 5):
        assert (max_count_via_shapes(indep_dom_automaton, k)
                == max_count_via_levels(indep_dom_system, k))
    assert max_count_via_shapes(indep_dom_automaton, 5) == 4
    assert max_count_via_shapes(indep_dom_automaton, 2) == 2


def test_shapes_cap():
    enum_limit = 3
    from treebound.automaton import parse_automaton
    a = parse_automaton("states q\nfinal q\nleaf0 q\n")
    with pytest.raises(CapExceeded):
        max_count_via_shapes(a, 5, cap=enum_limit)


def test_counts_integral_for_integral_systems(fx):
    for f in fx.FIXTURES:
        s = fx.load_fixture_system(f)
        val = max_count_via_levels(s, 6)
        assert val.denominator == 1


def test_dual_oracle_all_fixtures(fx):
    for f in fx.FIXTURES:
        s = fx.load_fixture_system(f)
        for k in range(1, 8):
            a = max_count_via_levels(s, k)
            b = max_count_via_shapes_system(s, k)
            assert sign_of(a - b) == 0, (f.name, k)


@st.composite
def int_systems(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(0, 3)
    v0 = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    f = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    keys = draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=8))
    terms = tuple((q, q1, q2, draw(st.integers(1, 3)))
                  for q, q1, q2 in sorted(keys))
    return BilinearSystem(n, terms, v0, f)


@settings(max_examples=40, deadline=None)
@given(int_systems(), st.integers(1, 7))
def test_int_routes_match_fraction_routes(s, k):
    # the same system with every entry a Fraction counts the same, and the
    # integer system's maxima stay ints on both routes
    fs = BilinearSystem(s.dim, tuple((q, q1, q2, Q(c)) for q, q1, q2, c in s.terms),
                        tuple(map(Q, s.v0)), tuple(map(Q, s.f)))
    for route in (max_count_via_levels, max_count_via_shapes_system):
        got, want = route(s, k), route(fs, k)
        assert type(got) is int and type(want) is Q
        assert got == want


def test_prune_mode_agreement(fx):
    s = fx.load_fixture_system(fx.BY_NAME["matchings4"])
    for k in range(1, 9):
        assert sign_of(max_count_via_levels(s, k)
                       - level_max(s, reference_levels(s, k)[k])) == 0


# -- audits -------------------------------------------------------------------------


def test_audit_indep_dom(indep_dom_system, indep_dom_cert):
    report = bound_audit(indep_dom_system, indep_dom_cert, 10)
    assert len(report.lines) == 10
    # equality at odd k up to the sqrt(2) factor: count(k) = C*alpha^(k-1)
    alpha = indep_dom_cert.alpha
    for line in report.lines:
        if line.k % 2 == 1:
            assert sign_of(alpha ** (line.k - 1) - line.count) == 0


def test_audit_perfect_codes(fx):
    f = fx.BY_NAME["perfect_codes"]
    report = bound_audit(fx.load_fixture_system(f),
                         fx.load_fixture_certificate(f), 8)
    assert len(report.lines) == 8
    assert "k = 8" in report.render()


def test_audit_catches_corrupted_c(indep_dom_system, indep_dom_cert):
    # the audit derives C from the vectors: halving them halves C
    tampered = Certificate(indep_dom_cert.field, indep_dom_cert.alpha,
                           tuple(tuple(c * Q(1, 2) for c in v)
                                 for v in indep_dom_cert.vectors))
    with pytest.raises(AuditFailure) as e:
        bound_audit(indep_dom_system, tampered, 10)
    assert e.value.k <= 3
