"""Bilinear system application, scaling, trimming, and level sets."""

import pytest
from hypothesis import given, settings, strategies as st

import treebound.system as system
from automaton_reference import scale_initial
from level_reference import prune_dominated_pairwise, reference_levels
from treebound.errors import EmptySystem, LevelBudgetExceeded, ParseError
from treebound.geometry import vec_dot
from treebound.numeric import Q, sign_of
from treebound.system import (
    BilinearSystem,
    apply,
    bk_levels,
    format_system,
    level_max,
    parse_system,
    trim,
)


def q(*xs):
    return tuple(Q(x) for x in xs)


def test_apply_indep_dom(indep_dom_system):
    s = indep_dom_system
    out = apply(s, s.v0, s.v0)
    assert out == q(0, 1, 1)
    assert vec_dot(s.f, out) == 2  # both 2-vertex-path selections


def test_apply_zero(indep_dom_system):
    s = indep_dom_system
    zero = q(0, 0, 0)
    assert apply(s, zero, s.v0) == zero
    assert apply(s, s.v0, zero) == zero


def test_apply_perfect_codes(perfect_codes_system):
    s = perfect_codes_system
    out = apply(s, s.v0, s.v0)
    assert out == q(1, 1, 0)
    assert vec_dot(s.f, out) == 2  # two perfect codes of the 2-vertex path


def test_scale_initial_sqrt2(indep_dom_system, sqrt2_field):
    a = sqrt2_field.alpha()
    scaled = scale_initial(indep_dom_system, a)
    inv = a.inverse()  # 1/sqrt(2) = alpha/2
    assert scaled.v0[0] == inv and scaled.v0[1] == inv
    assert sign_of(scaled.v0[2]) == 0


def test_scale_identity(indep_dom_system):
    assert scale_initial(indep_dom_system, Q(1)).v0 == indep_dom_system.v0


def test_scale_k2_quarter(indep_dom_system):
    s2 = scale_initial(indep_dom_system, Q(2))
    assert apply(s2, s2.v0, s2.v0) == q(0, Q(1, 4), Q(1, 4))


def test_scale_rejects_nonpositive(indep_dom_system):
    from treebound.errors import NonPositiveScale
    with pytest.raises(NonPositiveScale):
        scale_initial(indep_dom_system, Q(0))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9).map(Q), st.integers(1, 9).map(Q), st.integers(1, 6))
def test_scaling_identity_levels(indep_dom_system, num, den, kmax):
    alpha = num / den
    plain = reference_levels(indep_dom_system, kmax)
    scaled = reference_levels(scale_initial(indep_dom_system, alpha), kmax)
    inv = 1 / alpha
    for k in range(1, kmax + 1):
        factor = inv ** k
        expect = {tuple(factor * c for c in v) for v in plain[k]}
        assert set(scaled[k]) == expect


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_apply_bilinear(indep_dom_system, data):
    s = indep_dom_system
    coords = st.tuples(*(st.integers(0, 9).map(Q) for _ in range(s.dim)))
    u, u2, v = (data.draw(coords) for _ in range(3))
    a = data.draw(st.integers(0, 9).map(Q))
    left = apply(s, tuple(a * x + y for x, y in zip(u, u2)), v)
    right = tuple(a * x + y for x, y in
                  zip(apply(s, u, v), apply(s, u2, v)))
    assert left == right
    left = apply(s, v, tuple(a * x + y for x, y in zip(u, u2)))
    right = tuple(a * x + y for x, y in
                  zip(apply(s, v, u), apply(s, v, u2)))
    assert left == right


# -- trim ---------------------------------------------------------------------


def test_trim_noop(indep_dom_system):
    t, keep = trim(indep_dom_system)
    assert t.dim == 3 and keep == (0, 1, 2)
    assert t.terms == indep_dom_system.terms


def test_trim_removes_dead_coordinate(indep_dom_system, pad_dead_coordinate):
    padded = pad_dead_coordinate(indep_dom_system)
    t, keep = trim(padded)
    assert t.dim == 3 and keep == (0, 1, 2)
    assert sorted(t.terms) == sorted(indep_dom_system.terms)


def test_trim_equivalence_on_level_maxima(indep_dom_system,
                                          pad_dead_coordinate):
    padded = pad_dead_coordinate(indep_dom_system)
    t, _ = trim(padded)
    lv_p = bk_levels(padded, 8)
    lv_t = bk_levels(t, 8)
    for k in range(1, 9):
        assert sign_of(level_max(padded, lv_p[k])
                       - level_max(t, lv_t[k])) == 0


def test_trim_empty_when_f_zero(indep_dom_system):
    s = indep_dom_system
    dead = BilinearSystem(s.dim, s.terms, s.v0, q(0, 0, 0))
    with pytest.raises(EmptySystem):
        trim(dead)


# -- levels ---------------------------------------------------------------------


def test_levels_base(indep_dom_system):
    lv = bk_levels(indep_dom_system, 1)
    assert lv[1] == [indep_dom_system.v0]


@pytest.mark.parametrize("k,expected", [(3, 2), (5, 4)])
def test_level_maxima_small(indep_dom_system, k, expected):
    lv = bk_levels(indep_dom_system, k)
    assert level_max(indep_dom_system, lv[k]) == expected


def test_prune_agrees_with_noprune(indep_dom_system, perfect_codes_system):
    for s in (indep_dom_system, perfect_codes_system):
        pruned = bk_levels(s, 8)
        plain = reference_levels(s, 8)
        for k in range(1, 9):
            assert sign_of(level_max(s, pruned[k])
                           - level_max(s, plain[k])) == 0


def test_sorted_prune_keeps_the_pairwise_prunes_levels(fx, sqrt2_field):
    # one pass in order of coordinate sum, largest first, finds the levels
    # the pairwise prune finds, on every fixture and over Q(sqrt 2)
    systems = [(fx.load_fixture_system(f), 12) for f in fx.BY_NAME.values()]
    root = sqrt2_field.alpha()
    systems += [(scale_initial(fx.load_fixture_system(fx.BY_NAME[n]), root),
                 9) for n in ("indep_dom", "matchings4")]
    for s, kmax in systems:
        pruned = bk_levels(s, kmax)
        want = reference_levels(s, kmax, prune_dominated_pairwise)
        for k in range(1, kmax + 1):
            assert len(pruned[k]) == len(want[k])
            assert set(pruned[k]) == set(want[k])


def test_level_cap(indep_dom_system, monkeypatch):
    monkeypatch.setattr(system, "LEVEL_CAP", 3)
    with pytest.raises(LevelBudgetExceeded):
        bk_levels(indep_dom_system, 9)


# -- file format -------------------------------------------------------------------


def test_system_roundtrip(indep_dom_system):
    text = format_system(indep_dom_system)
    again = parse_system(text)
    assert again == indep_dom_system


def test_parse_integer_system_gives_ints(fx):
    s = parse_system(fx.read_data("indep_dom.system"))
    assert all(type(c) is int for c in s.v0 + s.f)
    assert all(type(c) is int for *_, c in s.terms)
    assert all(type(c) is int for c in apply(s, s.v0, s.v0))


def test_parse_keeps_non_integral_rationals():
    s = parse_system("dim 2\nV0 1 1/2\nF 0 2/2\nterm 1 1 2 3/4\n")
    assert s.v0 == (1, Q(1, 2)) and type(s.v0[1]) is Q
    assert type(s.f[1]) is int and type(s.terms[0][3]) is Q


def test_parse_rejects_duplicate_term():
    bad = "dim 2\nV0 1 0\nF 0 1\nterm 1 1 2\nterm 1 1 2\n"
    with pytest.raises(ParseError):
        parse_system(bad)


def test_parse_rejects_missing_header():
    with pytest.raises(ParseError):
        parse_system("V0 1 0\nF 0 1\n")


def test_parse_reports_line_numbers():
    bad = "dim 2\nV0 1 0\nF 0 1\nterm 1 x 2\n"
    with pytest.raises(ParseError) as e:
        parse_system(bad)
    assert "line 4" in str(e.value)
