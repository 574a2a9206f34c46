"""The certificate checker, and the verifier that takes no verdict it has
not checked.

A witness either proves its query inside conv_<=(X) by mul, add and sign,
or the verifier asks the search's kernel, whose weights or separating ray
the checker must accept in turn: so whatever the witnesses say, correct,
missing or tampered, the verdict is the one the general simplex of
`simplex_reference` gives independently here, and a kernel that lies
raises EvidenceRejected instead of changing it.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import treebound.geometry as geometry
import treebound.search as search
from simplex_reference import LPProblem, reference_lambda
from simplex_reference import lp_solve as reference_lp
from treebound.check import parse_lambda, ray_holds, witness_holds
from treebound.errors import EvidenceRejected
from treebound.geometry import Hull, Ray, vec_scale
from treebound.numeric import Q, format_number, invert, sign_of
from treebound.search import (
    Invalid,
    Valid,
    find_certificate,
    verify_certificate,
)
from treebound.system import BilinearSystem, apply, level_max

X2 = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(1, 2), Q(1, 2))]
X3 = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(0), Q(0))]
HALF, ONE = (Q(1, 2), Q(1, 2)), (Q(1), Q(1))


@pytest.mark.parametrize("p,X,terms,ok", [
    ((Q(1, 2), Q(1, 3)), X2, [(0, "1/2"), (1, "1/2")], True),
    (HALF, X2, [(2, "1")], True),
    (HALF, X2, [(2, "1/2"), (2, "1/2")], True),
    (HALF, X2, [(0, "1/2"), (1, "1/3")], False),     # sums to 5/6
    (HALF, X2, [(0, "1")], False),                   # does not dominate
    (HALF, X2, [(0, "1/2"), (3, "1/2")], False),     # X_3 does not exist
    # (1, 1) is outside conv_<=(X3), yet each of these weightings dominates it
    (ONE, X3, [(0, "1"), (1, "1"), (2, "-1")], False),  # one weight < 0
    (ONE, X3, [(0, "1"), (1, "1")], False),             # sums to 2
])
def test_witness_holds_iff_all_three_conditions_hold(p, X, terms, ok):
    assert witness_holds(p, X, parse_lambda(terms, None)) is ok


@pytest.mark.parametrize("p,X,y,ok", [
    (ONE, X2, (1, 1), True),                    # y.X_k = 1 < 2 = y.p
    ((Q(1), Q(2)), X2, (0, 1), True),           # y.X_k <= 1 < 2 = y.p
    # (0, 0) is inside conv_<=(X2), yet y.X_k = -1 < 0 = y.p
    ((Q(0), Q(0)), X2, (-1, -1), False),        # a negative y_j
    (HALF, X2, (1, 0), False),                  # y.X_0 = 1 > 1/2 = y.p
    ((Q(1), Q(2)), X2, (1, 0), False),          # y.X_0 = 1 = y.p
])
def test_ray_holds_iff_both_conditions_hold(p, X, y, ok):
    assert ray_holds(p, X, y) is ok


# -- the verifier against the general simplex ------------------------------------

TAMPER = ("correct", "correct", "missing", "perturbed", "negative", "sum",
          "out of range", "swapped")


@st.composite
def closure_problems(draw, entry, alphas):
    """A small system, a vector set X and alpha: every query of the closure
    conditions is a question for the LP."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*([entry] * n))
    X = draw(st.lists(vec, min_size=1, max_size=4))
    keys = [(q, q1, q2) for q in range(n) for q1 in range(n)
            for q2 in range(n)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
    coeff = st.sampled_from([Q(1, 4), Q(1, 2), Q(1)])
    terms = tuple((q, q1, q2, draw(coeff)) for q, q1, q2 in chosen)
    alpha = draw(st.sampled_from(alphas))
    if draw(st.booleans()):     # V0/alpha = t X_k, inside
        t = draw(st.sampled_from([Q(1, 2), Q(1)]))
        v0 = tuple(alpha * t * c for c in draw(st.sampled_from(X)))
    else:
        v0 = draw(vec)
    s = BilinearSystem(n, terms, v0, (Q(1),) * n)
    return s, alpha, X


def reference_verdict(s, alpha, X):
    """Verify's outcome, each query asked of the general simplex, and the
    queries by witness key."""
    queries = {"v0": vec_scale(s.v0, invert(alpha))}
    queries.update(((i, j), apply(s, x, y)) for i, x in enumerate(X)
                   for j, y in enumerate(X))
    weights = {key: reference_lambda(p, X) for key, p in queries.items()}
    for key, p in queries.items():
        if weights[key] is None:
            if key == "v0":
                return Invalid(p, "seed"), queries, weights
            return (Invalid(p, "product", (X[key[0]], X[key[1]])), queries,
                    weights)
    return Valid(level_max(s, X)), queries, weights


def cheating_weights(p, X, total, signed):
    """Weights summing to `total`, of any sign when `signed`, with
    sum w_k X_k >= p, from the general simplex; None if there are none.
    Off a correct witness by one condition, they dominate p all the same."""
    m = len(X)
    cols = [(k, 1) for k in range(m)] + [(k, -1) for k in range(m) if signed]
    rows = [tuple(Q(sgn) for _, sgn in cols)]
    rows += [tuple(sgn * X[k][j] for k, sgn in cols) for j in range(len(p))]
    r = reference_lp(LPProblem(tuple(rows), ("=",) + (">=",) * len(p),
                               (Q(total),) + tuple(p), (Q(0),) * len(cols),
                               "min"))
    if r.status != "optimal":
        return None
    w = [Q(0)] * m
    for (k, sgn), z in zip(cols, r.point):
        w[k] = w[k] + sgn * z
    return w


def tampered(draw, how, key, p, X, weights):
    """The (k, weight) terms of one witness, tampered `how`, or None."""
    m, lam = len(X), weights[key]
    if how == "missing":
        return None
    if how == "swapped":
        lam = weights[key[::-1] if key != "v0" else (0, 0)]
    elif how == "sum":
        lam = cheating_weights(p, X, 2, False) or lam
    elif how == "negative":
        lam = cheating_weights(p, X, 1, True) or lam
    terms = ([(0, Q(1))] if lam is None
             else [(k, w) for k, w in enumerate(lam) if sign_of(w) != 0])
    k = draw(st.integers(0, len(terms) - 1))
    if how == "perturbed":
        terms[k] = (terms[k][0], terms[k][1] - Q(1, 3))
        terms.append((draw(st.integers(0, m - 1)), Q(1, 3)))
    elif how == "negative" and all(sign_of(w) >= 0 for _, w in terms):
        terms[k] = (terms[k][0], terms[k][1] + Q(1, 2))
        terms.append((draw(st.integers(0, m - 1)), Q(-1, 2)))
    elif how == "sum" and sign_of(sum(w for _, w in terms) - 1) == 0:
        terms = [(i, 2 * w) for i, w in terms]
    elif how == "out of range":
        terms[k] = (m + draw(st.integers(0, 2)), terms[k][1])
    return tuple((i, format_number(w)) for i, w in terms)


def check_verdict(data, problem, field=None):
    s, alpha, X = problem
    expected, queries, weights = reference_verdict(s, alpha, X)
    modes = {key: data.draw(st.sampled_from(TAMPER)) for key in queries}
    witnesses = {}
    for key, how in modes.items():
        terms = tampered(data.draw, how, key, queries[key], X, weights)
        if terms is not None:
            witnesses[key] = terms
    with mock.patch.object(search, "member_dominated_hull",
                           wraps=search.member_dominated_hull) as member:
        got = verify_certificate(s, alpha, X, witnesses, field)
    assert got == expected
    # the evidence the verdict carries holds: a separating ray, or a
    # witness for every query in order
    if isinstance(got, Invalid):
        assert ray_holds(got.witness, X, got.ray)
    else:       # as the wit lines `--emit-certificate` writes
        assert [key for key, _ in got.wits] == list(queries)
        assert all(witness_holds(queries[key], X, parse_lambda(
            [(k, w if isinstance(w, str) else format_number(w))
             for k, w in terms], field)) for key, terms in got.wits)
    if isinstance(expected, Valid) and all(m == "correct"
                                           for m in modes.values()):
        assert member.call_count == 0   # every witness held: no LP, no hull


rationals = st.sampled_from([Q(0), Q(0), Q(1, 3), Q(1, 2), Q(1), Q(3, 2),
                             Q(2)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verdict_is_the_reference_whatever_the_witness_rational(data):
    problem = data.draw(closure_problems(rationals, [Q(1), Q(3, 2), Q(2)]))
    check_verdict(data, problem)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verdict_is_the_reference_whatever_the_witness_sqrt2(sqrt2_field,
                                                              data):
    r = sqrt2_field.alpha()
    entry = st.builds(lambda a, b: a + b * r if b else a,
                      st.sampled_from([Q(0), Q(1, 2), Q(1), Q(2)]),
                      st.sampled_from([Q(0), Q(0), Q(1, 2), Q(-1, 2)])
                      ).filter(lambda c: sign_of(c) >= 0)
    problem = data.draw(closure_problems(entry, [Q(3, 2), r]))
    check_verdict(data, problem, sqrt2_field)


# -- a kernel that lies ---------------------------------------------------------
# Each liar stands in for one part of the search's kernel.  A verify that took
# the kernel's word would report the valid matchings5 set INVALID under the
# second liar and the set without X_17 VALID under the third; the checked
# walk gives the true verdict or raises EvidenceRejected.

lp_solve, admit = geometry.lp_solve, Hull.admit


def wrong_lambda(x, X):
    """The weights e_0 where the LP finds x inside."""
    lam = lp_solve(x, X)
    return ((0, 1),) if lam else lam


def wrong_outside(x, X):
    """A ray that separates nothing where the LP finds x inside."""
    lam = lp_solve(x, X)
    return Ray((1,) + (0,) * (len(x) - 1)) if lam else lam


def admits_outside(hull, p, lam=True):
    """Admits 2p, mostly outside, with p's weights."""
    admit(hull, tuple(2 * a for a in p), lam)


LIARS = {"wrong lambda": (geometry, "lp_solve", wrong_lambda),
         "wrong outside": (geometry, "lp_solve", wrong_outside),
         "admits outside": (Hull, "admit", admits_outside)}


@pytest.fixture(scope="module")
def lied_to(fx):
    """(system, alpha, vectors, field, verdict) of the valid matchings5 set
    at 13/10, of it without X_17, and of matchings3 and it without X_0."""
    s = fx.load_fixture_system(fx.BY_NAME["matchings5"])
    X = find_certificate(s, Q(13, 10)).certificate.vectors
    m3 = fx.load_fixture_certificate(fx.BY_NAME["matchings3"])
    s3 = fx.load_fixture_system(fx.BY_NAME["matchings3"])
    sets = [(s, Q(13, 10), X, None), (s, Q(13, 10), X[:17] + X[18:], None),
            (s3, m3.alpha, m3.vectors, m3.field),
            (s3, m3.alpha, m3.vectors[1:], m3.field)]
    return [(*c, verify_certificate(*c[:3], None, c[3])) for c in sets]


@pytest.mark.parametrize("liar", LIARS)
def test_a_lying_kernel_changes_no_verdict(liar, lied_to, monkeypatch):
    assert [type(v) for *_, v in lied_to] == [Valid, Invalid, Valid, Invalid]
    monkeypatch.setattr(*LIARS[liar])
    got = []
    for s, alpha, X, field, verdict in lied_to:
        try:
            got.append(verify_certificate(s, alpha, X, None, field))
        except EvidenceRejected:
            got.append(EvidenceRejected)
        assert got[-1] in (verdict, EvidenceRejected)
    assert got[:2] == [EvidenceRejected] * 2    # caught on both matchings5 sets
