"""Phase-1 membership LP, dominated-hull membership, and hull reduction."""

from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from simplex_reference import LPProblem, lp_solve as reference_lp, reference_member
from tableau_reference import lp_solve as tableau_lp
from treebound.errors import DimensionMismatch
import treebound.geometry as geometry
from treebound.geometry import (
    Hull,
    hull_reduce,
    lp_solve,
    member_dominated_hull,
    vec_leq,
    )
from treebound.numeric import Q, sign_of
from treebound.search import Valid, verify_certificate


def lp(rows, senses, rhs, obj, direction):
    conv = lambda v: tuple(Q(x) for x in v)
    return LPProblem(tuple(conv(r) for r in rows), tuple(senses),
                     conv(rhs), conv(obj), direction)


def assert_witness(lam, x, X):
    """lambda >= 0, sum lambda = 1, sum lambda_i X_i >= x: mul, add, sign."""
    assert len(lam) == len(X)
    assert all(sign_of(a) >= 0 for a in lam)
    total = Q(0)
    for a in lam:
        total = total + a
    assert sign_of(total - 1) == 0
    for j in range(len(x)):
        acc = Q(0)
        for a, v in zip(lam, X):
            acc = acc + a * v[j]
        assert sign_of(acc - x[j]) >= 0


# -- the reference simplex (general LPs) -----------------------------------------


def test_lp_simple_max():
    r = reference_lp(lp([[1]], ["<="], [1], [1], "max"))
    assert r.status == "optimal" and r.value == 1 and r.point == (Q(1),)


def test_lp_unbounded():
    # x1 >= 0 is implicit; an explicit redundant row keeps it unbounded
    r = reference_lp(lp([[1]], [">="], [0], [1], "max"))
    assert r.status == "unbounded"


def test_lp_min_with_equalities():
    r = reference_lp(lp([[1, 1], [1, -1]], ["=", "="], [2, 0], [1, 3], "min"))
    assert r.status == "optimal" and r.value == 4 and r.point == (Q(1), Q(1))


def test_degenerate_equalities_redundant_rows():
    r = reference_lp(lp([[1, 1], [2, 2]], ["=", "="], [1, 2], [1, 0], "max"))
    assert r.status == "optimal" and r.value == 1


# -- lp_solve: the phase-1 membership routine ------------------------------------


def test_lp_infeasible_convex_combination():
    # lambda >= 0, sum = 1, lambda.{(1,0),(0,1)} >= (3/4, 3/4): coordinate
    # sums of any dominating combination reach only 1 < 3/2
    assert lp_solve((Q(3, 4), Q(3, 4)), [(Q(1), Q(0)), (Q(0), Q(1))]) is None


def test_lp_exactness_rational_vs_field(sqrt2_field):
    # the same rational-data query solved over Q and over Q(sqrt 2)
    X = [(Q(2), Q(0), Q(1)), (Q(0), Q(3), Q(1)), (Q(1), Q(1), Q(0))]
    x = (Q(2, 3), Q(1), Q(1, 2))
    emb = lambda v: tuple(sqrt2_field.element([c]) for c in v)
    lam_q = lp_solve(x, X)
    lam_f = lp_solve(emb(x), [emb(v) for v in X])
    assert lam_q is not None and lam_f is not None
    assert_witness(lam_q, x, X)
    assert all(sign_of(a - b) == 0 for a, b in zip(lam_q, lam_f))


def test_lp_negative_rhs_rows():
    # a coordinate with x_j < 0 is met by any lambda: its surplus starts basic
    X = [(Q(1), Q(0)), (Q(0), Q(2))]
    lam = lp_solve((Q(-1), Q(1)), X)
    assert lam is not None
    assert_witness(lam, (Q(-1), Q(1)), X)


rationals = st.fractions(min_value=0, max_value=6, max_denominator=5)


@st.composite
def queries(draw, entry):
    n = draw(st.integers(1, 4))
    vec = st.tuples(*([entry] * n))
    return draw(vec), draw(st.lists(vec, min_size=1, max_size=6))


@st.composite
def sqrt2_entries(draw):
    a, b = draw(rationals), draw(rationals)
    return (a, b) if draw(st.booleans()) else (a, Q(0))


@settings(max_examples=150, deadline=None)
@given(queries(rationals))
def test_lp_agrees_with_reference_rational(query):
    x, X = query
    lam = lp_solve(x, X)
    assert (lam is not None) == reference_member(x, X)
    if lam is not None:
        assert_witness(lam, x, X)


@settings(max_examples=60, deadline=None)
@given(queries(sqrt2_entries()))
def test_lp_agrees_with_reference_sqrt2(sqrt2_field, query):
    # entries a + b*sqrt(2), some left rational so rows of both kinds occur
    root = sqrt2_field.alpha()
    el = lambda ab: ab[0] + ab[1] * root if ab[1] else ab[0]
    x = tuple(el(c) for c in query[0])
    X = [tuple(el(c) for c in v) for v in query[1]]
    lam = lp_solve(x, X)
    assert (lam is not None) == reference_member(x, X)
    if lam is not None:
        assert_witness(lam, x, X)


def test_lp_degenerate_pivot_hands_pricing_to_bland(monkeypatch):
    # the start basis is lambda_0, the surplus of row 1 at rhs 0 (X_00 = x_0)
    # and the artificial of row 2.  Dantzig's first pivot, lambda_4, is
    # degenerate: it takes that surplus's place.  So Bland's rule picks the
    # next column, lambda_1, where Dantzig would take lambda_3; after that
    # nondegenerate pivot Dantzig resumes with lambda_3, where Bland's rule
    # would take lambda_2
    per_pivot = []

    def pivot(rows, basis, t, leave, enter, *rest):
        per_pivot.append((enter, basis[leave], rows[leave][-1]))
        return _pivot(rows, basis, t, leave, enter, *rest)

    _pivot = geometry._pivot
    monkeypatch.setattr(geometry, "_pivot", pivot)
    x = (Q(1, 2), Q(2))
    X = [(Q(1, 2), Q(0)), (Q(1, 2), Q(1)), (Q(1), Q(0)), (Q(2), Q(1)),
         (Q(0), Q(3))]
    assert lp_solve(x, X) == (Q(0), Q(1, 3), Q(0), Q(1, 6), Q(1, 2))
    assert [c for c, _, _ in per_pivot] == [4, 1, 3]
    assert per_pivot[0][1] == len(X)        # surplus 0 leaves
    assert [sign_of(b) for _, _, b in per_pivot] == [0, 1, 1]


def test_member_escape_test_is_strict():
    # x_0 = 1 ties the largest X_i0, so it escapes nothing: the LP decides
    X = [(Q(1), Q(0), Q(1)), (Q(1), Q(1), Q(0))]
    assert member_dominated_hull((Q(1), Q(1, 2), Q(1, 2)), X)
    assert not member_dominated_hull((Q(1), Q(1, 2), Q(3, 2)), X)
    assert not member_dominated_hull((Q(1), Q(2, 3), Q(2, 3)), X)


# Larger, degeneracy-heavy queries: up to 7 coordinates and 25 vectors drawn
# with repeats from a small pool, mostly zero entries, and x often on the
# boundary of the hull (a convex combination of two vectors, some of its
# coordinates nudged), where ties in the ratio test and zero rhs abound.

sparse = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, Q(1, 2), Q(2, 3)]).map(Q)


@st.composite
def hard_queries(draw, entry=sparse):
    n = draw(st.integers(1, 7))
    vec = st.tuples(*([entry] * n))
    pool = draw(st.lists(vec, min_size=1, max_size=8))
    m = draw(st.integers(1, 25))
    X = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    if draw(st.booleans()):
        return draw(vec), X
    u, v = draw(st.sampled_from(X)), draw(st.sampled_from(X))
    t = draw(st.sampled_from([Q(0), Q(1, 3), Q(1, 2), Q(1)]))
    nudge = st.sampled_from([Q(0), Q(0), Q(0), Q(1, 5), Q(-1, 5)])
    x = tuple(t * a + (1 - t) * b + draw(nudge) for a, b in zip(u, v))
    return x, X


def check_against_reference(x, X):
    """lp_solve against the general simplex, and membership with its
    domination and escape tests against the LP alone."""
    lam = lp_solve(x, X)
    assert (lam is not None) == reference_member(x, X)
    if lam is not None:
        assert_witness(lam, x, X)
    if all(sign_of(a) >= 0 for a in x):
        assert member_dominated_hull(x, X) == (lam is not None)


@settings(max_examples=120, deadline=None)
@given(hard_queries())
def test_lp_agrees_with_reference_on_degenerate_queries(query):
    check_against_reference(*query)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lp_agrees_with_reference_on_degenerate_sqrt2_queries(sqrt2_field,
                                                               data):
    # a + b*sqrt(2), b mostly 0, so rows of both kinds and ties occur
    root = sqrt2_field.alpha()
    b = st.sampled_from([0, 0, 0, 1, Q(1, 2)]).map(Q)
    entry = st.builds(lambda a, b: a + b * root if b else a, sparse, b)
    check_against_reference(*data.draw(hard_queries(entry)))


@settings(max_examples=60, deadline=None)
@given(hard_queries())
def test_lp_embedded_rational_query_takes_the_same_path(sqrt2_field, query):
    # field elements with rational values build int rows: same lambda
    x, X = query
    emb = lambda v: tuple(sqrt2_field.element([c]) for c in v)
    assert lp_solve(emb(x), [emb(v) for v in X]) == lp_solve(x, X)


# -- the integer-preserving pivots stay exact ------------------------------------
# `_pivot` divides ints with //, which floors an inexact quotient without
# raising.  So on rational data [M | beta] is checked against A and b, scaled
# as `lp_solve` scales them, at the start and after every pivot.


@st.composite
def crash_queries(draw, entry=sparse, shifts=(Q(-1, 2), Q(-3))):
    """x near a vector of X: equal to it in some coordinates (a zero
    residual at the start), above it or negative in others; X drawn with
    repeats from a small pool, so the counts of short rows tie."""
    n = draw(st.integers(1, 6))
    vec = st.tuples(*([entry] * n))
    pool = draw(st.lists(vec, min_size=1, max_size=5))
    X = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    shift = st.sampled_from([Q(0), Q(0), Q(1, 3), Q(1), *shifts])
    return tuple(a + draw(shift) for a in draw(st.sampled_from(X))), X


def scaled_problem(x, X):
    """Rows 0..n of A (lambda columns only) and b: row j + 1 is coordinate
    j times the lcm of the denominators of x_j and the X_ij."""
    A, b = [[1] * len(X)], [1]
    for j, a in enumerate(x):
        scale = lcm(*(Q(c).denominator for c in [a] + [v[j] for v in X]))
        A.append([int(v[j] * scale) for v in X])
        b.append(int(a * scale))
    return A, b


def check_exact(rows, basis, d, A, b):
    """d > 0, M B = d I and beta = M b >= 0, B the basic columns of
    [A | -I | I] (lambda, then a surplus and an artificial per row)."""
    m, size = len(A[0]), len(A)

    def column(k):
        if k < m:
            return [r[k] for r in A]
        if k < m + size - 1:
            return [-int(i == k - m + 1) for i in range(size)]
        return [int(i == k - m - size + 1) for i in range(size)]

    B = [column(k) for k in basis]
    assert d > 0
    for r, row in enumerate(rows):
        assert all(type(a) is int for a in row)
        M = row[:-1]
        assert [sum(map(mul, M, c)) for c in B] == [d * (i == r)
                                                    for i in range(size)]
        assert row[-1] == sum(map(mul, M, b)) >= 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(queries(rationals), hard_queries(), crash_queries()))
def test_lp_pivots_keep_the_scaled_inverse_exact(query):
    x, X = query
    A, b = scaled_problem(x, X)

    def pivot(rows, basis, t, leave, enter, d, ints):
        assert ints
        check_exact(rows, basis, d, A, b)
        d = _pivot(rows, basis, t, leave, enter, d, ints)
        check_exact(rows, basis, d, A, b)
        return d

    _pivot = geometry._pivot
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_pivot", pivot)
        lam = lp_solve(x, X)
    assert (lam is not None) == reference_member(x, X)
    if lam is not None:
        assert_witness(lam, x, X)


# -- lp_solve against the full-tableau routine it replaced -----------------------
# Both make the same pivots, so lambda must be the identical tuple.


@settings(max_examples=150, deadline=None)
@given(st.one_of(queries(rationals), hard_queries()))
def test_lp_pivots_as_the_tableau_routine_rational(query):
    x, X = query
    assert lp_solve(x, X) == tableau_lp(x, X)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lp_pivots_as_the_tableau_routine_sqrt2(sqrt2_field, data):
    x, X = data.draw(sqrt2_query(sqrt2_field.alpha()))
    assert lp_solve(x, X) == tableau_lp(x, X)


def sqrt2_query(root):
    # the crash queries' shifts make some x_j negative and irrational
    el = lambda ab: ab[0] + ab[1] * root if ab[1] else ab[0]
    b = st.sampled_from([0, 0, 0, 1, Q(1, 2)]).map(Q)
    degenerate = st.builds(lambda a, b: a + b * root if b else a, sparse, b)
    return st.one_of(
        queries(sqrt2_entries()).map(lambda q: (
            tuple(el(c) for c in q[0]), [tuple(el(c) for c in v) for v in q[1]])),
        hard_queries(degenerate),
        crash_queries(degenerate, (Q(-1, 2), 1 - root, -2 * root)))


def test_lp_negative_irrational_coordinate(sqrt2_field):
    # x_0 < 0 and irrational: its surplus starts basic, as in any row X_k
    # covers; the crash queries of sqrt2_query draw such an x only now and
    # then
    root = sqrt2_field.alpha()
    X = [(Q(1), root, Q(0)), (Q(0), Q(1), root), (root, Q(0), Q(1))]
    for x in [(1 - root, Q(6, 5), Q(1, 2)), (root - 2, Q(6, 5), Q(2, 3)),
              (1 - root, Q(6, 5), Q(4, 5)), (-root, Q(2), Q(1))]:
        lam = lp_solve(x, X)
        assert lam == tableau_lp(x, X)
        assert (lam is not None) == reference_member(x, X)


def test_lp_replays_matchings3_verify_as_the_tableau_routine(fx, monkeypatch):
    # every LP that verifying the bundled matchings3 certificate asks
    queries_seen = []

    def both(x, hull):
        lam = solve(x, hull)
        assert lam == tableau_lp(x, list(hull.vectors))
        queries_seen.append(lam)
        return lam

    solve = geometry.lp_solve
    monkeypatch.setattr(geometry, "lp_solve", both)
    f = fx.BY_NAME["matchings3"]
    cert = fx.load_fixture_certificate(f)
    assert isinstance(verify_certificate(fx.load_fixture_system(f), cert.alpha,
                                         cert.vectors), Valid)
    assert len(queries_seen) == 29


# -- a prepared Hull against the references --------------------------------------
# A full Hull builds the plain sequence's integers, so lambda is the tableau
# routine's; a slice keeps the whole set's scales, so only answers compare.


def check_hull(data, x, X):
    hull = Hull(X)
    lam = lp_solve(x, hull)
    assert lam == tableau_lp(x, X)
    assert (lam is not None) == reference_member(x, X)
    keep = data.draw(st.lists(st.sampled_from(range(len(X))), min_size=1,
                              unique=True).map(sorted))
    part = [X[k] for k in keep]
    sub = hull.subset(keep)
    assert sub.vectors == tuple(part)
    lam = lp_solve(x, sub)
    assert (lam is not None) == reference_member(x, part)
    if lam is not None:
        assert_witness(lam, x, part)
    if all(sign_of(a) >= 0 for a in x):
        assert member_dominated_hull(x, hull) == reference_member(x, X)
        assert member_dominated_hull(x, sub) == (lam is not None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hull_membership_agrees_with_references_rational(data):
    check_hull(data, *data.draw(st.one_of(queries(rationals), hard_queries())))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hull_membership_agrees_with_references_sqrt2(sqrt2_field, data):
    check_hull(data, *data.draw(sqrt2_query(sqrt2_field.alpha())))


# -- points a Hull admits ----------------------------------------------------------
# A point shown inside conv_<=(X) settles every query it dominates; a slice of
# the hull must not inherit it, since conv_<= of a subset is smaller.

shrink = st.sampled_from([Q(0), Q(1, 3), Q(1, 2), Q(1), Q(1), Q(1)])
nudge = st.sampled_from([Q(0), Q(0), Q(0), Q(1, 7), Q(1, 2)])


@st.composite
def admitted_queries(draw, hulls=queries(rationals).map(lambda q: q[1])):
    """X, points near its boundary (convex combinations of two vectors,
    some nudged outward), and queries below those points, equal to one, or
    anywhere."""
    X = draw(hulls)
    points = []
    for _ in range(draw(st.integers(1, 5))):
        u, v = draw(st.sampled_from(X)), draw(st.sampled_from(X))
        t = draw(st.sampled_from([Q(0), Q(1, 3), Q(1, 2), Q(1)]))
        points.append(tuple(t * a + (1 - t) * b + draw(nudge)
                            for a, b in zip(u, v)))
    xs = [tuple(a * draw(shrink) for a in draw(st.sampled_from(points)))
          for _ in range(draw(st.integers(1, 6)))]
    xs += draw(st.lists(st.tuples(*([rationals] * len(X[0]))), max_size=2))
    xs += draw(st.lists(st.sampled_from(points), max_size=2))
    return X, points, xs


def check_admitted(data, X, points, xs):
    hull = Hull(X)
    for p in points:
        if reference_member(p, X):
            hull.admit(p)
    for x in xs:
        assert member_dominated_hull(x, hull) == reference_member(x, X)
    keep = data.draw(st.lists(st.sampled_from(range(len(X))), min_size=1,
                              unique=True).map(sorted))
    sub = hull.subset(keep)
    assert sub.admitted == [] and sub.shown == set()
    assert sub.rows is None or len(sub.rows) == len(keep)
    part = [X[k] for k in keep]
    for x in xs:
        assert member_dominated_hull(x, sub) == reference_member(x, part)


@settings(max_examples=150, deadline=None)
@given(admitted_queries(), st.data())
def test_admitted_points_change_no_answer(query, data):
    check_admitted(data, *query)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_admitted_field_points_change_no_answer(sqrt2_field, data):
    # entries rational or in Q(sqrt 2): a hull holding a field element
    # keeps the points it admits as exact keys
    hulls = sqrt2_query(sqrt2_field.alpha()).map(lambda q: q[1])
    check_admitted(data, *data.draw(admitted_queries(hulls)))


def test_admitted_point_settles_what_it_dominates(sqrt2_field, monkeypatch):
    # with L_j = 1 the row of (1/2, 1/2) is (0, 0): the query below it passes
    # the int test only with floors and is compared exactly; a column entry
    # 1/6 makes L_j = 6, and the ceilings pass
    e1, e2 = (Q(1), Q(0)), (Q(0), Q(1))
    hulls = [Hull([e1, e2]), Hull([e1, e2, (Q(1, 6), Q(1, 6))])]
    for hull in hulls:
        assert member_dominated_hull((Q(1, 2), Q(1, 2)), hull)  # by an LP
        assert hull.admitted == [(Q(1, 2), Q(1, 2))]
    # a hull holding a field element keeps what it admits as an exact key
    root = sqrt2_field.alpha()
    field_hull = Hull([(root - 1, Q(0)), (Q(0), Q(1))])
    x = (Q(1, 4), root / 4)
    assert member_dominated_hull(x, field_hull)  # by an LP
    assert field_hull.admitted == [x] and field_hull.shown == {x}

    def no_lp(x, X):
        raise AssertionError("an LP was asked")

    monkeypatch.setattr(geometry, "lp_solve", no_lp)
    for hull in hulls:
        assert member_dominated_hull((Q(1, 3), Q(1, 2)), hull)
    assert member_dominated_hull(x, field_hull)  # its repeat needs no LP


def test_hull_rejects_mixed_dimensions_and_empty_sets():
    with pytest.raises(DimensionMismatch):
        Hull([(Q(1), Q(0)), (Q(1),)])
    with pytest.raises(DimensionMismatch):
        lp_solve((Q(1),), Hull([(Q(1), Q(0))]))
    with pytest.raises(ValueError):
        Hull([])


# -- membership ------------------------------------------------------------------


def vecs(*rows):
    return [tuple(Q(x) for x in r) for r in rows]


def test_vec_leq_mixed_types(sqrt2_field):
    r2 = sqrt2_field.alpha()
    assert vec_leq((1, Q(1, 2), r2), (1, 1, Q(3, 2)))
    assert not vec_leq((1, Q(1, 2), r2), (1, 1, Q(7, 5)))  # sqrt 2 > 7/5
    assert vec_leq((r2 - 1, 0), (Q(1, 2), Q(0)))
    assert not vec_leq((Q(1, 2),), (r2 - 1,))
    assert not vec_leq((2,), (Q(3, 2),)) and vec_leq((Q(3, 2),), (2,))
    assert vec_leq((r2, 1), (r2, Q(1))) and vec_leq((Q(1), r2), (1, r2))


def test_member_midpoint():
    X = vecs([1, 0], [0, 1])
    assert member_dominated_hull((Q(1, 2), Q(1, 2)), X)


def test_member_ones_fails():
    X = vecs([1, 0], [0, 1])
    assert not member_dominated_hull((Q(1), Q(1)), X)


def test_member_scaled_seed(sqrt2_field, indep_dom_cert):
    # V0/sqrt(2) lies in the dominated hull of the bundled 3-vector set
    a = sqrt2_field.alpha()
    half = a.inverse()
    x = (half, half, Q(0))
    assert member_dominated_hull(x, list(indep_dom_cert.vectors))


def test_member_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        member_dominated_hull((Q(1),), vecs([1, 0]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=5),
       st.tuples(st.integers(0, 6), st.integers(0, 6)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_membership_monotone(xs, x, delta):
    X = [tuple(Q(a) for a in v) for v in xs]
    x = tuple(Q(a) for a in x)
    smaller = tuple(max(Q(0), a - d) for a, d in zip(x, delta))
    if member_dominated_hull(x, X):
        assert member_dominated_hull(smaller, X)


# -- hull_reduce -----------------------------------------------------------------


def test_hull_reduce_midpoint():
    X = vecs([1, 0], [0, 1], [Q(1, 2), Q(1, 2)])
    assert hull_reduce(X) == vecs([1, 0], [0, 1])


def test_hull_reduce_dominated():
    assert hull_reduce(vecs([1, 0], [Q(1, 2), 0])) == vecs([1, 0])


def test_hull_reduce_keeps_earliest_duplicate():
    X = vecs([1, 1], [1, 1], [0, 0])
    out = hull_reduce(X)
    assert out == vecs([1, 1])
    assert out[0] is X[0]


def test_hull_reduce_empty_rejected():
    with pytest.raises(ValueError):
        hull_reduce([])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(0, 5)), min_size=1, max_size=7))
def test_hull_reduce_contract(xs):
    X = [tuple(Q(a) for a in v) for v in xs]
    out = hull_reduce(X)
    # idempotent
    assert hull_reduce(out) == out
    # removed points are members of the survivors' hull
    for v in X:
        if v not in out:
            assert member_dominated_hull(v, out)
    # survivors are not members of the hull of the others
    for i, v in enumerate(out):
        others = out[:i] + out[i + 1:]
        if others:
            assert not member_dominated_hull(v, others)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=6))
def test_hull_reduce_order_insensitive(xs):
    X = [tuple(Q(a) for a in v) for v in xs]
    fwd = hull_reduce(X)
    rev = hull_reduce(list(reversed(X)))
    # same dominated hull either way (set equality of conv_<= via membership)
    assert all(member_dominated_hull(v, rev) for v in fwd)
    assert all(member_dominated_hull(v, fwd) for v in rev)


def reduce_by_definition(X):
    """Dedup, then drop each candidate inside the hull of the other
    survivors, asked of the reference simplex one candidate at a time."""
    kept = []
    for v in X:
        if v not in kept:
            kept.append(v)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if others and reference_member(kept[i], others):
            del kept[i]
        else:
            i += 1
    return kept


@st.composite
def reducible_sets(draw, entry):
    # a small pool, drawn with repeats, plus halved copies that are dominated
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*([entry] * n)), min_size=1, max_size=5))
    pool += [tuple(Q(1, 2) * c for c in v) for v in pool[:2]]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))


@settings(max_examples=60, deadline=None)
@given(reducible_sets(sparse))
def test_hull_reduce_is_the_candidate_by_candidate_definition(X):
    assert hull_reduce(X) == reduce_by_definition(X)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hull_reduce_is_the_definition_with_field_entries(sqrt2_field, data):
    root = sqrt2_field.alpha()
    b = st.sampled_from([0, 0, 1, Q(1, 2)]).map(Q)
    entry = st.builds(lambda a, b: a + b * root if b else a, sparse, b)
    X = data.draw(reducible_sets(entry))
    assert hull_reduce(X) == reduce_by_definition(X)


def test_bundled_tpd_set_already_minimal(fx):
    cert = fx.load_fixture_certificate(fx.BY_NAME["total_perfect_dom"])
    assert len(cert.vectors) == 21
    assert hull_reduce(list(cert.vectors)) == list(cert.vectors)
