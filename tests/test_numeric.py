"""Field construction, exact arithmetic, signs, and decimal brackets."""

import pytest
from hypothesis import given, settings, strategies as st

from exact_reference import (
    compare_isolated_roots,
    ref_add,
    ref_format,
    ref_inverse,
    ref_mul,
    ref_sign,
    ref_sub,
)
from treebound.errors import (
    DivisionByZero,
    FieldMismatch,
    NoRootIsolated,
    NotSquareFree,
)
from treebound.numeric import (
    NumberField,
    Q,
    decimal_interval,
    decimal_str,
    field_make,
    format_number,
    invert,
    nthroot_field,
    parse_field_header,
    parse_number,
    poly,
    poly_from_string,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_to_string,
    sign_of,
)
from treebound.geometry import hull_reduce

rationals = st.builds(Q, st.integers(-60, 60), st.integers(1, 12))


def elements(field, max_coeff=8):
    deg = field.degree
    coeff = st.integers(-max_coeff, max_coeff).map(Q)
    return st.lists(coeff, min_size=deg, max_size=deg).map(field.element)


# -- field_make -------------------------------------------------------------


def test_field_sqrt2(sqrt2_field):
    a = sqrt2_field.alpha()
    assert a * a == 2


def test_field_plastic_bracket(plastic_field):
    lo, hi = decimal_interval(plastic_field.alpha(), Q(1, 10 ** 6))
    assert lo <= Q(132472, 100000) <= hi or (hi - lo) <= Q(1, 10 ** 6)
    assert decimal_str(plastic_field.alpha(), 5) == "1.32472"


def test_field_state_independent_of_earlier_parses(monkeypatch):
    # each parse of a header builds its own field: a sign decided on one does
    # not narrow the interval another parse starts from
    refines = []
    original = NumberField.refine
    monkeypatch.setattr(NumberField, "refine",
                        lambda self: refines.append(self) or original(self))

    def parse_and_decide():
        f = parse_field_header("field: -2,0,1 ; interval 1 2")
        start, before = len(refines), f.interval()
        s = sign_of(f.element([Q(-141421, 100000), 1]))  # sqrt(2) - 1.41421
        return s, len(refines) - start, before

    first, second = parse_and_decide(), parse_and_decide()
    assert first == second == (1, first[1], (Q(1), Q(2)))
    assert first[1] > 0


def test_degree_one_field_is_rational():
    f = field_make([-3, 1], 2, 4)  # x - 3
    a = f.alpha()
    assert a.rational_value() == 3
    assert sign_of(a - 3) == 0
    assert decimal_interval(a, Q(1, 100)) == (Q(3), Q(3))


def test_field_make_rejects_no_sign_change():
    with pytest.raises(NoRootIsolated):
        field_make([-2, 0, 1], 2, 3)  # sqrt(2) not in (2, 3)


def test_field_make_rejects_two_roots():
    with pytest.raises(NoRootIsolated):
        field_make([-2, 0, 1], -2, 2)  # both roots of x^2-2


def test_field_make_rejects_repeated_root_in_interval():
    # (x-1)^2 (x-3): double root at 1 inside, sign change from the root at 3
    p = poly_mul(poly_mul((Q(-1), Q(1)), (Q(-1), Q(1))), (Q(-3), Q(1)))
    with pytest.raises(NotSquareFree):
        field_make(p, Q(1, 2), 4)


def test_reducible_polynomial_outside_interval_is_fine():
    # (x^2-2)(x-3) is square-free; isolating sqrt(2) works
    p = poly_mul((Q(-2), Q(0), Q(1)), (Q(-3), Q(1)))
    f = field_make(p, 1, 2)
    a = f.alpha()
    assert sign_of(a * a - 2) == 0  # the value is sqrt(2)
    assert sign_of(a - Q(3, 2)) == -1


# -- arithmetic -------------------------------------------------------------


def test_reduction_of_powers(plastic_field):
    a = plastic_field.alpha()
    assert a * (a * a) == a + 1  # alpha^3 = alpha + 1


@pytest.mark.parametrize("x,n,header", [
    (1, 3, "field: -1,0,0,1 ; interval 1/2 3/2"),  # exact: mid**n == x
    (Q(9, 4), 2, "field: -9/4,0,1 ; interval 13/16 13/8"),
    (Q(1, 4), 2, "field: -1/4,0,1 ; interval 0 1"),
    (3, 7, "field: -3,0,0,0,0,0,0,1 ; interval 1 2"),
    (13, 9, "field: -13,0,0,0,0,0,0,0,0,1 ; interval 7/8 7/4"),
    (939524096, 9, "field: -939524096,0,0,0,0,0,0,0,0,1 ; "
                   "interval 10334765067/1073741824 2818572291/268435456"),
])
def test_nthroot_field_header(x, n, header):
    # emitted certificates carry this header, so it must not drift
    assert nthroot_field(x, n).header() == header


def test_perfect_codes_entry_addition():
    f = nthroot_field(3, 7)
    third_a6 = f.element([0, 0, 0, 0, 0, 0, Q(1, 3)])
    assert third_a6 + third_a6 == f.element([0, 0, 0, 0, 0, 0, Q(2, 3)])


def test_rational_mixing(sqrt2_field):
    a = sqrt2_field.alpha()
    assert (Q(1, 2) * a) * 2 == a
    assert (1 + a) - a == 1
    assert sign_of(Q(3, 2) - a) == 1


def test_field_mismatch(sqrt2_field, plastic_field):
    with pytest.raises(FieldMismatch):
        sqrt2_field.alpha() + plastic_field.alpha()


def test_same_root_different_interval_is_same_field():
    a = field_make([-3, 0, 0, 0, 0, 0, 0, 1], 1, 2)
    b = field_make([-3, 0, 0, 0, 0, 0, 0, 1], Q(1, 2), Q(3, 2))
    assert a == b
    assert sign_of(a.alpha() - b.alpha()) == 0  # mixed arithmetic allowed
    c = field_make([-2, 0, 1], 1, 2)      # sqrt(2)
    d = field_make([-2, 0, 1], -2, -1)    # -sqrt(2): same poly, other root
    assert c != d


def test_invert_examples(sqrt2_field, plastic_field):
    a = plastic_field.alpha()
    assert a.inverse() == plastic_field.element([-1, 0, 1])  # alpha^2 - 1
    assert invert(Q(2)) == Q(1, 2)
    b = sqrt2_field.alpha()
    assert b.inverse() == sqrt2_field.element([0, Q(1, 2)])  # alpha/2
    with pytest.raises(DivisionByZero):
        sqrt2_field.from_rational(0).inverse()


# -- differential check against dense polynomials over Q ------------------------

# defining polynomial (low to high) and an interval isolating alpha
REF_FIELDS = {
    "sqrt2": ((-2, 0, 1), (1, 2)),
    "matchings3": ((-1, 0, 0, -1, 1), (1, 2)),          # x^4 - x^3 - 1
    "sqrt_half": ((Q(-1, 2), 0, 1), (0, 1)),            # x^2 - 1/2
    "rational_cubic": ((Q(-1, 3), Q(-1, 2), 0, 1), (0, 1)),
}


def coeff_lists(deg):
    c = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-30, 30),
                                           st.integers(1, 9)))
    return st.lists(c, min_size=deg, max_size=deg)


@pytest.mark.parametrize("name", sorted(REF_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_arithmetic_agrees_with_dense_reference(name, data):
    p, (lo, hi) = REF_FIELDS[name]
    f = field_make(p, lo, hi)
    P = poly(p)
    ca = poly(data.draw(coeff_lists(f.degree)))
    cb = poly(data.draw(coeff_lists(f.degree)))
    r = data.draw(st.builds(Q, st.integers(-9, 9), st.integers(1, 5)))
    a, b = f.element(ca), f.element(cb)
    assert a.coeff_list() == ca
    assert (a * b).coeff_list() == ref_mul(ca, cb, P)
    assert (a * r).coeff_list() == ref_mul(ca, poly([r]), P)
    assert (a + b).coeff_list() == ref_add(ca, cb)
    assert (r - a).coeff_list() == ref_sub(poly([r]), ca)
    assert (a - b).coeff_list() == ref_sub(ca, cb)
    assert (-a).coeff_list() == poly_neg(ca)
    assert sign_of(a) == ref_sign(ca, P, Q(lo), Q(hi))
    assert sign_of(a - b) == ref_sign(ref_sub(ca, cb), P, Q(lo), Q(hi))
    assert format_number(a) == ref_format(ca)
    assert format_number(a * b) == ref_format(ref_mul(ca, cb, P))
    if ca:
        assert a.inverse().coeff_list() == ref_inverse(ca, P)


# -- canonical representatives ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REF_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equal_values_have_equal_representatives(name, data):
    p, (lo, hi) = REF_FIELDS[name]
    f = field_make(p, lo, hi)
    a, b, c = (f.element(data.draw(coeff_lists(f.degree))) for _ in range(3))
    lhs, rhs = (a + b) * c, a * c + b * c
    assert lhs == rhs and hash(lhs) == hash(rhs)
    if not a.is_zero():
        q = (b * a) / a
        assert q == b and hash(q) == hash(b)
    assert len({lhs, rhs, c * a + c * b}) == 1


def test_rational_values_equal_and_hash_as_rationals(sqrt2_field):
    a = sqrt2_field.alpha()
    two, third, zero = a * a, (a / 3) * a / 2, a - a
    assert two == 2 and hash(two) == hash(2)
    assert third == Q(1, 3) and hash(third) == hash(Q(1, 3))
    assert zero == 0 and hash(zero) == hash(0)
    assert {two, third, zero} == {2, Q(1, 3), 0}
    half = field_make((Q(-1, 2), 0, 1), 0, 1).alpha() ** 2
    assert half == Q(1, 2) and hash(half) == hash(Q(1, 2))
    assert format_number(half) == "1/2"


def test_hull_reduce_dedups_field_vectors_computed_two_ways(sqrt2_field):
    a = sqrt2_field.alpha()
    v = (a, 2 - a)                                   # (1.414..., 0.585...)
    w = (Q(1, 2), Q(1))
    v_again = (a * a * a / 2, (a + 1) * (a - 1) * 2 - a)
    assert v_again == v and hash(v_again) == hash(v)
    kept = hull_reduce([v, w, v_again])
    assert kept == [v, w] and kept[0] is v


# -- sign_of ------------------------------------------------------------------


def test_sign_examples(sqrt2_field, plastic_field):
    assert sign_of(sqrt2_field.alpha() - Q(3, 2)) == -1
    a = plastic_field.alpha()
    assert sign_of(a ** 3 - a - 1) == 0
    beta = nthroot_field(48, 9).alpha()
    assert sign_of(Q(14, 9) - beta) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_axioms(sqrt2_field, data):
    a = data.draw(elements(sqrt2_field))
    b = data.draw(elements(sqrt2_field))
    c = data.draw(elements(sqrt2_field))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if sign_of(a) != 0:
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sign_consistency(plastic_field, data):
    a = data.draw(elements(plastic_field, max_coeff=5))
    assert sign_of(a) == -sign_of(-a)
    sq = sign_of(a * a)
    assert sq >= 0
    assert (sq == 0) == (sign_of(a) == 0)


# -- decimal intervals -----------------------------------------------------------


def test_decimal_interval_trivial():
    assert decimal_interval(Q(1, 2), Q(1)) == (Q(1, 2), Q(1, 2))


@pytest.mark.parametrize("radicand,n,printed", [
    (2 ** 27 * 7, 85, Q(1275157, 10 ** 6)),
    (13, 9, Q(1329754, 10 ** 6)),  # published value truncates the ...4545
])
def test_decimal_interval_published_constants(radicand, n, printed):
    a = nthroot_field(radicand, n).alpha()
    width = Q(1, 10 ** 6)
    lo, hi = decimal_interval(a, width)
    assert hi - lo <= width
    assert lo - width <= printed <= hi + width
    assert sign_of(a - lo) >= 0 and sign_of(hi - a) >= 0


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_decimal_interval_shrinks_and_contains(halvings):
    a = nthroot_field(5, 3).alpha()
    width = Q(1, 2 ** halvings)
    lo, hi = decimal_interval(a, width)
    lo2, hi2 = decimal_interval(a, width / 2)
    assert hi - lo <= width and hi2 - lo2 <= width / 2
    assert sign_of(a - lo) >= 0 and sign_of(hi - a) >= 0
    assert lo <= lo2 and hi2 <= hi or (hi2 - lo2) <= (hi - lo)


# -- cross-field root comparison -------------------------------------------------


def test_compare_isolated_roots_equal():
    assert compare_isolated_roots([-2, 0, 1], (1, 2), [-2, 0, 1], (Q(1), Q(3, 2))) == 0


def test_compare_isolated_roots_orders():
    # the plastic root 1.3247... < sqrt(2) < sqrt(3)
    assert compare_isolated_roots([-1, -1, 0, 1], (1, 2), [-2, 0, 1], (1, 2)) == -1
    assert compare_isolated_roots([-3, 0, 1], (1, 2), [-2, 0, 1], (1, 2)) == 1


# -- number syntax ----------------------------------------------------------------


def test_number_roundtrip(sqrt2_field):
    a = sqrt2_field.element([Q(1, 3), Q(-2)])
    s = format_number(a)
    assert s == "poly(1/3,-2)"
    assert parse_number(s, sqrt2_field) == a
    assert parse_number("7/5") == Q(7, 5)
    assert format_number(Q(-3)) == "-3"


def test_field_header_roundtrip(plastic_field):
    assert parse_field_header(plastic_field.header()) == plastic_field


def test_poly_string_parsing():
    assert poly_from_string("x^2-2") == (Q(-2), Q(0), Q(1))
    assert poly_from_string("x^14-11x^7+9")[7] == Q(-11)
    assert poly_from_string("x^3 - x - 1") == (Q(-1), Q(-1), Q(0), Q(1))
    assert poly_to_string((Q(-1), Q(-1), Q(0), Q(1))) == "x^3-x-1"


def test_poly_gcd_monic():
    p = poly_mul((Q(-1), Q(1)), (Q(-2), Q(2)))  # 2(x-1)^2
    assert poly_gcd(p, (Q(-1), Q(1))) == (Q(-1), Q(1))
