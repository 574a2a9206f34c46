"""Gadgets, transfer matrices, characteristic polynomials, root isolation."""

import random

import pytest

from exact_reference import (
    cayley_hamilton_check,
    compare_isolated_roots,
    poly_divmod,
    poly_eval,
    poly_mul,
)
from treebound.automaton import fold_shape
from treebound.errors import MultipleHoles, NegativeEntry, NoRealRoot, ParseError
from treebound.numeric import (
    NumberField,
    Q,
    count_real_roots,
    decimal_str,
    largest_real_root,
    power_root_field,
    sign_of,
)
from treebound.spectral import (
    SquareMatrix,
    char_poly,
    lower_bound,
    lower_bound_from_matrix,
    parse_gadget,
    transfer_matrix,
)


def mat(rows):
    return SquareMatrix(tuple(tuple(Q(x) for x in r) for r in rows))


def mul_vec(m, v):
    return tuple(sum((a * b for a, b in zip(r, v)), Q(0)) for r in m.entries)


# -- gadget evaluation ---------------------------------------------------------


def test_eval_gadget_inner_vector(fx):
    s = fx.load_fixture_system(fx.BY_NAME["max_induced_matchings"])
    g = parse_gadget("B(V0,B(V0,B(V0,B(B(V0,V0),V0))))")
    assert fold_shape(s, g) == tuple(Q(x) for x in (2, 1, 1, 3, 2))


def test_eval_gadget_leaf(fx):
    s = fx.load_fixture_system(fx.BY_NAME["perfect_codes"])
    assert parse_gadget("V0") is None
    assert fold_shape(s, parse_gadget("V0")) == s.v0


def test_eval_gadget_p11_consistency(fx):
    # the center-rooted 11-vertex path vector: its count must match the
    # end-rooted path built by iterating x -> B(V0, x), because both binary
    # terms project to the same underlying tree
    s = fx.load_fixture_system(fx.BY_NAME["matchings5"])
    p11 = parse_gadget(
        "B(B(V0,B(V0,B(V0,B(V0,B(V0,V0))))),B(V0,B(V0,B(V0,B(V0,V0)))))")
    direct = fold_shape(s, p11)
    m = transfer_matrix(s, parse_gadget("B(V0,HOLE)"))
    v = s.v0
    for _ in range(10):
        v = mul_vec(m, v)
    from treebound.geometry import vec_dot
    assert vec_dot(s.f, direct) == vec_dot(s.f, v)


def test_hole_errors(fx):
    s = fx.load_fixture_system(fx.BY_NAME["perfect_codes"])
    with pytest.raises(MultipleHoles):
        transfer_matrix(s, parse_gadget("B(HOLE,HOLE)"))
    with pytest.raises(MultipleHoles):
        transfer_matrix(s, parse_gadget("V0"))
    with pytest.raises(MultipleHoles):  # a hole folded with no value
        fold_shape(s, parse_gadget("B(V0,HOLE)"))


def test_gadget_needs_an_expression_line():
    # V0 parses to None, which must still count as the expression line
    assert parse_gadget("x = B(V0,V0)\nV0\n") is None
    assert parse_gadget("x = B(V0,HOLE)\nB(x,V0)\n") == ((None, "HOLE"), None)
    with pytest.raises(ParseError):
        parse_gadget("x = V0\n")


# -- printed transfer matrices ----------------------------------------------------


def test_transfer_matrix_5matchings(fx):
    f = fx.BY_NAME["matchings5"]
    m = transfer_matrix(fx.load_fixture_system(f), fx.load_fixture_gadget(f))
    assert m.entries == mat([
        [6561, 6561, 0, 0, 0, 0],
        [44064, 44064, 50625, 0, 0, 0],
        [54000, 54000, 54000, 50625, 0, 0],
        [5832, 5832, 0, 0, 6561, 0],
        [256, 0, 0, 0, 0, 256],
        [256, 0, 0, 0, 0, 0],
    ]).entries


def test_transfer_matrix_min_perfect_dom(fx):
    f = fx.BY_NAME["min_perfect_dom"]
    m = transfer_matrix(fx.load_fixture_system(f), fx.load_fixture_gadget(f))
    assert m.entries == mat([
        [0, 0, 0, 1, 0, 0],
        [1, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ]).entries


def test_transfer_matrix_max_induced(fx):
    f = fx.BY_NAME["max_induced_matchings"]
    m = transfer_matrix(fx.load_fixture_system(f), fx.load_fixture_gadget(f))
    assert m.entries == mat([
        [5, 5, 3, 2, 0],
        [1, 4, 4, 1, 4],
        [0, 0, 0, 1, 0],
        [3, 3, 0, 3, 0],
        [3, 0, 0, 2, 0],
    ]).entries


# -- characteristic polynomials -----------------------------------------------------


def test_char_poly_max_induced(fx):
    f = fx.BY_NAME["max_induced_matchings"]
    m = transfer_matrix(fx.load_fixture_system(f), fx.load_fixture_gadget(f))
    assert char_poly(m) == tuple(
        Q(c) for c in (108, -135, 132, -33, 12, -1))


def test_char_poly_identity():
    p = char_poly(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert p == (Q(1), Q(-3), Q(3), Q(-1))  # (1-x)^3


def test_char_poly_divisibility(fx):
    f = fx.BY_NAME["min_perfect_dom"]
    m = transfer_matrix(fx.load_fixture_system(f), fx.load_fixture_gadget(f))
    _, rem = poly_divmod(char_poly(m), (Q(-1), Q(-1), Q(0), Q(1)))
    assert rem == ()


def test_cayley_hamilton_random():
    rng = random.Random(7)
    for _ in range(6):
        m = mat([[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                 for _ in range(3)])
        assert cayley_hamilton_check(m)


# -- root isolation ------------------------------------------------------------------


@pytest.mark.parametrize("coeffs,digits,expected", [
    ((-1, -1, 0, 1), 5, "1.32472"),
    ((-2, 0, 1), 5, "1.41421"),
    ((-48,) + (0,) * 8 + (1,), 5, "1.53746"),
])
def test_largest_real_root_examples(coeffs, digits, expected):
    field, (lo, hi) = largest_real_root([Q(c) for c in coeffs], Q(1, 10 ** 12))
    assert hi - lo <= Q(1, 10 ** 12)
    assert decimal_str(field.alpha(), digits) == expected


def test_largest_real_root_none():
    with pytest.raises(NoRealRoot):
        largest_real_root((Q(1), Q(0), Q(1)), Q(1, 100))  # x^2 + 1


def test_largest_picks_largest():
    # roots 1, 2, 3
    p = (Q(-6), Q(11), Q(-6), Q(1))
    field, (lo, hi) = largest_real_root(p, Q(1, 1000))
    assert lo < 3 < hi or (sign_of(field.alpha() - 3) == 0)


def test_power_root_field_needs_a_positive_root():
    # root 1/2 isolated on (-1/3, 1): lam is refined until its interval is
    # positive; root -2 of x + 2 has no real square root to bracket
    beta = power_root_field(NumberField((Q(-1, 4), 0, 1), Q(-1, 3), 1), 2,
                            Q(1, 10 ** 6))
    lo, hi = beta.original_interval
    assert lo * lo < Q(1, 2) < hi * hi and hi - lo <= Q(1, 10 ** 6)
    with pytest.raises(NoRealRoot):
        power_root_field(NumberField((2, 1), -3, -1), 2, Q(1, 10 ** 6))


def test_sturm_counts_known_roots():
    # products of distinct rational linear factors: the count is the number
    # of roots, and a grid finer than the root separation recovers it
    rng = random.Random(3)
    for _ in range(8):
        roots = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
        p = (Q(1),)
        for r in roots:
            p = poly_mul(p, (Q(-r), Q(1)))
        assert count_real_roots(p, Q(-100), Q(100)) == len(roots)
        # grid scan with step 1/2 (< min separation 1)
        hits = 0
        prev = None
        for i in range(-28, 29):
            sv = sign_of(poly_eval(p, Q(i, 2)))
            if sv == 0:
                hits += 1
                prev = None
                continue
            if prev is not None and sv != prev:
                hits += 1
            prev = sv
        assert hits == len(roots)


# -- lower bounds -------------------------------------------------------------------


def test_lower_bound_max_induced(fx):
    f = fx.BY_NAME["max_induced_matchings"]
    lb = lower_bound(fx.load_fixture_system(f), fx.load_fixture_gadget(f), 8)
    assert lb.dominance_verified
    # beta = 1.33157687...; the published 1.331576 truncates the last digit
    assert lb.decimal(8) == "1.33157687"
    lo, hi = lb.interval
    assert hi - lo <= Q(1, 10 ** 30)


def test_lower_bound_5matchings(fx):
    f = fx.BY_NAME["matchings5"]
    lb = lower_bound(fx.load_fixture_system(f), fx.load_fixture_gadget(f), 45)
    assert lb.dominance_verified
    assert lb.decimal(6) == "1.293211"
    assert lb.field.degree == 270  # q(x^45) for the sextic q


def test_lower_bound_min_perfect_dom_sharp(fx):
    f = fx.BY_NAME["min_perfect_dom"]
    lb = lower_bound(fx.load_fixture_system(f), fx.load_fixture_gadget(f), 1)
    assert lb.dominance_verified  # primitive after dropping the dead row
    assert lb.decimal(5) == "1.32472"


def test_lower_bound_direct_counts():
    lb = lower_bound_from_matrix(SquareMatrix(((Q(48),),)), 9)
    assert lb.decimal(5) == "1.53746"
    lb = lower_bound_from_matrix(SquareMatrix(((Q(2 ** 27 * 7),),)), 85)
    assert lb.decimal(6) == "1.275157"
    # the r-matching star-of-paths bound: 15 selections per (r+6)-vertex block
    for r in (7, 9):
        lb = lower_bound_from_matrix(SquareMatrix(((Q(15),),)), r + 6)
        assert sign_of(lb.field.alpha() - 1) > 0


def test_lower_bound_negative_entry():
    # nonnegative systems can never produce one, but raw matrices can
    with pytest.raises(NegativeEntry):
        lower_bound_from_matrix(mat([[1, -1], [0, 1]]), 2)


def test_transfer_matrix_linearity(fx):
    s = fx.load_fixture_system(fx.BY_NAME["max_induced_matchings"])
    g = fx.load_fixture_gadget(fx.BY_NAME["max_induced_matchings"])
    m = transfer_matrix(s, g)
    rng = random.Random(11)
    for _ in range(4):
        u = tuple(Q(rng.randint(0, 9)) for _ in range(s.dim))
        v = tuple(Q(rng.randint(0, 9)) for _ in range(s.dim))
        both = fold_shape(s, g, tuple(a + b for a, b in zip(u, v)))
        split = tuple(a + b for a, b in zip(mul_vec(m, u), mul_vec(m, v)))
        assert both == split


# -- gap reproduction (interval separation across fields) ----------------------------


def test_upper_vs_lower_comparisons(fx):
    from treebound.numeric import nthroot_field

    # perfect codes: both rates equal 3^(1/7)
    lb = lower_bound_from_matrix(SquareMatrix(((Q(3),),)), 7)
    up = nthroot_field(3, 7)
    assert compare_isolated_roots(
        lb.field.poly, lb.field.original_interval,
        up.poly, up.original_interval) == 0

    # minimal perfect dominating: path rate equals the certificate rate
    f = fx.BY_NAME["min_perfect_dom"]
    lbm = lower_bound(fx.load_fixture_system(f), fx.load_fixture_gadget(f), 1)
    assert compare_isolated_roots(
        lbm.field.poly, lbm.field.original_interval,
        (Q(-1), Q(-1), Q(0), Q(1)), (Q(1), Q(2))) == 0

    # 5-matchings: beta < 22/17
    f = fx.BY_NAME["matchings5"]
    lb5 = lower_bound(fx.load_fixture_system(f), fx.load_fixture_gadget(f), 45)
    assert sign_of(Q(22, 17) - lb5.field.alpha()) == 1

    # irredundant sets: 48^(1/9) < 14/9
    lbi = lower_bound_from_matrix(SquareMatrix(((Q(48),),)), 9)
    assert sign_of(Q(14, 9) - lbi.field.alpha()) == 1
