"""Field construction, exact arithmetic, signs, and decimal brackets."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from exact_reference import (
    compare_isolated_roots,
    poly,
    poly_deriv,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_neg,
    poly_squarefree,
    ref_count_roots,
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
    NotInvertible,
    NotSquareFree,
    ParseError,
)
from treebound.numeric import (
    AlgebraicNumber,
    NumberField,
    Q,
    count_real_roots,
    decimal_interval,
    decimal_str,
    format_number,
    int_poly,
    invert,
    nthroot_field,
    parse_field_header,
    parse_number,
    parse_rational,
    poly_from_string,
    poly_to_string,
    primitive_gcd,
    sign_of,
    squarefree_part,
    _hval,
)
from treebound.geometry import Hull, hull_reduce
from treebound.search import parse_certificate

rationals = st.builds(Q, st.integers(-60, 60), st.integers(1, 12))


def elements(field, max_coeff=8):
    deg = field.degree
    coeff = st.integers(-max_coeff, max_coeff).map(Q)
    return st.lists(coeff, min_size=deg, max_size=deg).map(field.element)


# -- NumberField ------------------------------------------------------------


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
    f = NumberField([-3, 1], 2, 4)  # x - 3
    a = f.alpha()
    assert type(a) is int and a == 3
    assert sign_of(a - 3) == 0
    assert decimal_interval(a, Q(1, 100)) == (Q(3), Q(3))


def test_field_make_rejects_no_sign_change():
    with pytest.raises(NoRootIsolated):
        NumberField([-2, 0, 1], 2, 3)  # sqrt(2) not in (2, 3)


def test_field_make_rejects_two_roots():
    with pytest.raises(NoRootIsolated):
        NumberField([-2, 0, 1], -2, 2)  # both roots of x^2-2


def test_field_make_rejects_repeated_root_in_interval():
    # (x-1)^2 (x-3): double root at 1 inside, sign change from the root at 3
    p = poly_mul(poly_mul((Q(-1), Q(1)), (Q(-1), Q(1))), (Q(-3), Q(1)))
    with pytest.raises(NotSquareFree):
        NumberField(p, Q(1, 2), 4)


@pytest.mark.parametrize("factors,lo,hi,error", [
    # (x-3)^2 (x^2-2): the double root lies outside, sqrt(2) inside
    ([(-3, 1), (-3, 1), (-2, 0, 1)], 1, 2, None),
    # (x-1)^2 (x-3)(x-4)(x-5): a sign change on (2, 6), but three roots
    ([(-1, 1), (-1, 1), (-3, 1), (-4, 1), (-5, 1)], 2, 6, NoRootIsolated),
    ([(-1, 1), (-1, 1), (-3, 1), (-4, 1), (-5, 1)], Q(5, 2), Q(7, 2), None),
    # (x-2)^3 (x-3): the triple root is inside
    ([(-2, 1), (-2, 1), (-2, 1), (-3, 1)], 1, Q(5, 2), NotSquareFree),
])
def test_isolation_counts_roots_with_the_polynomials_own_chain(
        factors, lo, hi, error):
    p = (Q(1),)
    for f in factors:
        p = poly_mul(p, poly(f))
    if error is None:
        assert NumberField(p, lo, hi).poly == int_poly(p)
    else:
        with pytest.raises(error):
            NumberField(p, lo, hi)


def test_reducible_polynomial_outside_interval_is_fine():
    # (x^2-2)(x-3) is square-free; isolating sqrt(2) works
    p = poly_mul((Q(-2), Q(0), Q(1)), (Q(-3), Q(1)))
    f = NumberField(p, 1, 2)
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
    a = NumberField([-3, 0, 0, 0, 0, 0, 0, 1], 1, 2)
    b = NumberField([-3, 0, 0, 0, 0, 0, 0, 1], Q(1, 2), Q(3, 2))
    assert a == b
    assert sign_of(a.alpha() - b.alpha()) == 0  # mixed arithmetic allowed
    c = NumberField([-2, 0, 1], 1, 2)      # sqrt(2)
    d = NumberField([-2, 0, 1], -2, -1)    # -sqrt(2): same poly, other root
    assert c != d


def test_invert_examples(sqrt2_field, plastic_field):
    a = plastic_field.alpha()
    assert invert(a) == plastic_field.element([-1, 0, 1])  # alpha^2 - 1
    assert invert(Q(2)) == Q(1, 2)
    b = sqrt2_field.alpha()
    assert invert(b) == sqrt2_field.element([0, Q(1, 2)])  # alpha/2
    with pytest.raises(DivisionByZero):
        invert(sqrt2_field.element([0]))


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


def coeffs_of(x):
    """The dense coefficients of a field element, or of a rational."""
    return x.coeff_list() if isinstance(x, AlgebraicNumber) else poly([x])


def ref_pow(c, n, P):
    if n < 0:
        c, n = ref_inverse(c, P), -n
    out = poly([1])
    for _ in range(n):
        out = ref_mul(out, c, P)
    return out


@pytest.mark.parametrize("name", sorted(REF_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_arithmetic_agrees_with_dense_reference(name, data):
    p, (lo, hi) = REF_FIELDS[name]
    f = NumberField(p, lo, hi)
    P = poly(p)
    ca = poly(data.draw(coeff_lists(f.degree)))
    cb = poly(data.draw(coeff_lists(f.degree)))
    r = data.draw(st.builds(Q, st.integers(-9, 9), st.integers(1, 5)))
    a, b = f.element(ca), f.element(cb)
    assert coeffs_of(a) == ca
    assert coeffs_of(a * b) == ref_mul(ca, cb, P)
    assert coeffs_of(a * r) == ref_mul(ca, poly([r]), P)
    assert coeffs_of(a + b) == ref_add(ca, cb)
    assert coeffs_of(r - a) == ref_sub(poly([r]), ca)
    assert coeffs_of(a - b) == ref_sub(ca, cb)
    assert coeffs_of(-a) == poly_neg(ca)
    assert sign_of(a) == ref_sign(ca, P, Q(lo), Q(hi))
    assert sign_of(a - b) == ref_sign(ref_sub(ca, cb), P, Q(lo), Q(hi))
    assert format_number(a) == ref_format(ca)
    assert format_number(a * b) == ref_format(ref_mul(ca, cb, P))
    if ca:
        assert coeffs_of(invert(a)) == ref_inverse(ca, P)


@pytest.mark.parametrize("name", sorted(REF_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_constant_results_are_rationals_and_elements_are_not(name, data):
    # a is never constant; b is drawn freely, or as a + r, r * a or 1/a, so
    # that a - b, a / b and a * b are often constant
    p, (lo, hi) = REF_FIELDS[name]
    f = NumberField(p, lo, hi)
    P = poly(p)
    ca = poly(data.draw(coeff_lists(f.degree)))
    if len(ca) <= 1:
        ca = ref_add(ca, poly([0, 1]))
    r = data.draw(rationals)
    cb = data.draw(st.sampled_from([
        poly(data.draw(coeff_lists(f.degree))), ref_add(ca, poly([r])),
        ref_mul(ca, poly([r]), P), ref_inverse(ca, P)]))
    n = data.draw(st.integers(-2, 3))
    a, b = f.element(ca), f.element(cb)
    results = [(a + b, ref_add(ca, cb)), (b - a, ref_sub(cb, ca)),
               (a - b, ref_sub(ca, cb)), (a * b, ref_mul(ca, cb, P)),
               (b / a, ref_mul(cb, ref_inverse(ca, P), P)),
               (a ** n, ref_pow(ca, n, P))]
    if cb:
        results.append((a / b, ref_mul(ca, ref_inverse(cb, P), P)))
    for got, want in results:
        if len(want) <= 1:
            assert type(got) in (int, Q) and got == (want[0] if want else 0)
        else:
            assert isinstance(got, AlgebraicNumber)
            assert len(got.coeff_list()) > 1 and got.coeff_list() == want
    for (g1, w1), (g2, w2) in combinations(results, 2):
        if w1 == w2:
            assert g1 == g2 and hash(g1) == hash(g2)


def test_sign_of_a_constant_when_the_interval_straddles_zero():
    # alpha = 0 on (-1/8, 1/7); no bisection midpoint is exactly 0, so a
    # constant's enclosure must not take alpha**0 as ranging over [0, 1]
    f = NumberField((0, -18, 12, 4, -4, Q(2, 3)), Q(-1, 8), Q(1, 7))
    assert sign_of(f.element([-1])) == -1 and sign_of(f.element([2])) == 1
    assert sign_of(f.alpha()) == 0
    assert sign_of(f.element([Q(-1, 100), 1])) == -1  # alpha - 1/100


def test_sign_after_a_bisection_lands_on_a_rational_root():
    # (x-1)(x-3) with alpha = 1 on (0, 2): the first halving finds alpha
    # exactly, and the enclosures that follow are single points
    f = NumberField((3, -4, 1), 0, 2)
    assert sign_of(f.alpha() - 1) == 0
    assert f.interval() == (1, 1) and isinstance(f.alpha(), AlgebraicNumber)
    assert decimal_interval(f.alpha(), Q(1, 100)) == (1, 1)
    assert sign_of(f.alpha() - Q(1, 2)) == 1 and sign_of(f.alpha() - 2) == -1


def test_a_value_keeps_its_form_when_alpha_lands_on_a_rational_root():
    # in the same field, alpha is an element whether or not a sign query has
    # found it to be 1, so it prints and prepares a hull the same way
    f = NumberField((3, -4, 1), 0, 2)

    def forms():
        a = f.alpha()
        return format_number(a), Hull([(a, Q(1)), (Q(1, 2), Q(2))]).scales

    before = forms()
    assert sign_of(f.alpha() - 1) == 0
    assert forms() == before == ("poly(0,1)", [None, 1])


# -- the integer polynomial kernel against the dense Q reference ----------------

small_rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = small_rationals.filter(lambda c: c != 0)


@st.composite
def rational_polys(draw):
    """c * f1**m1 * ... * fk**mk: non-monic, rational coefficients, factors
    of degree 1 to 4 (reducible or not, often sparse, such as x^4 + x - 1,
    whose remainder sequences skip degrees), some of them repeated."""
    p = (draw(nonzero_rationals),)
    coeff = st.one_of(st.just(Q(0)), small_rationals)
    for _ in range(draw(st.integers(1, 3))):
        f = poly(draw(st.lists(coeff, min_size=1, max_size=4))
                 + [draw(nonzero_rationals)])
        for _ in range(draw(st.integers(1, 2))):
            p = poly_mul(p, f)
    return p


def sign(v):
    return (v > 0) - (v < 0)


@settings(max_examples=60, deadline=None)
@given(rational_polys(), small_rationals, small_rationals)
def test_root_counts_agree_with_reference(p, a, b):
    # the Sturm chains of p and of its square-free part are built from
    # pseudo-remainders, whose signs must be corrected
    lo, hi = min(a, b), max(a, b) + Q(1, 3)
    assert count_real_roots(p, lo, hi) == ref_count_roots(p, lo, hi)
    bound = 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])
    assert count_real_roots(p, -bound, bound) == ref_count_roots(p, -bound, bound)


@pytest.mark.parametrize("p,roots", [
    ((-1, 1, 0, 0, 1), 2),        # x^4 + x - 1
    ((1, 1, 0, 0, 1), 0),         # x^4 + x + 1
    ((Q(-1, 2), Q(3, 2), 0, 0, 1), 2),
])
def test_sturm_count_when_the_remainder_skips_a_degree(p, roots):
    # for p = x^4 + bx + c, b > 0, the chain is p, p', then a positive
    # multiple of -(3bx/4 + c): its leading coefficient is negative and it is
    # two degrees below p', so the next pseudo-remainder is a negative
    # multiple of the remainder and must not be negated
    assert count_real_roots(p, -3, 3) == ref_count_roots(p, -3, 3) == roots


@settings(max_examples=80, deadline=None)
@given(rational_polys(), small_rationals, small_rationals)
def test_isolation_agrees_with_reference(p, a, b):
    # the checks in order: a sign change, no repeated root inside (the
    # reference's gcd of P and P'), then exactly one distinct root
    lo, hi = min(a, b), max(a, b) + Q(1, 3)
    g = poly_gcd(p, poly_deriv(p))
    if poly_eval(p, lo) * poly_eval(p, hi) >= 0:
        expected = NoRootIsolated
    elif len(g) > 1 and ref_count_roots(g, lo, hi) >= 1:
        expected = NotSquareFree
    elif ref_count_roots(p, lo, hi) != 1:
        expected = NoRootIsolated
    else:
        expected = None
    if expected is None:
        assert NumberField(p, lo, hi).poly == int_poly(p)
    else:
        with pytest.raises(expected) as info:
            NumberField(p, lo, hi)
        assert type(info.value) is expected


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys())
def test_gcd_and_squarefree_agree_with_reference_up_to_scalar(p, q):
    # int_poly is the one primitive, positive-leading multiple of its input
    g = primitive_gcd(int_poly(p), int_poly(q))
    assert g == int_poly(poly_gcd(p, q))
    assert poly_monic(g) == poly_gcd(p, q)
    assert squarefree_part(int_poly(p)) == int_poly(poly_squarefree(p))


@settings(max_examples=60, deadline=None)
@given(rational_polys(), st.lists(small_rationals, min_size=1, max_size=4))
def test_sign_of_p_at_rational_points_agrees_with_reference(p, points):
    ip = int_poly(p)
    for x in points:
        assert (sign(_hval(ip, x.numerator, x.denominator)) * sign(p[-1])
                == sign(poly_eval(p, x)))


ROOTS = [Q(k, 2) for k in range(-6, 7)]  # 1/2 apart, over 1/5 from sqrt(3)


@st.composite
def isolated_fields(draw):
    """(p, lo, hi): p = c * (x^2 - 3) * prod (x - r)**m over distinct r in
    ROOTS, m >= 1, and (lo, hi) isolating a simple root of p."""
    roots = draw(st.lists(st.sampled_from(ROOTS), min_size=1, max_size=3,
                          unique=True))
    mult = [draw(st.integers(1, 2)) for _ in roots]
    p = poly_mul((draw(nonzero_rationals),), (Q(-3), Q(0), Q(1)))
    for r, m in zip(roots, mult):
        for _ in range(m):
            p = poly_mul(p, (-r, Q(1)))
    simple = [r for r, m in zip(roots, mult) if m == 1]
    i = draw(st.integers(0, len(simple)))
    if i == len(simple):
        return p, Q(17, 10), Q(7, 4)           # sqrt(3)
    return p, simple[i] - Q(1, 8), simple[i] + Q(1, 7)


@settings(max_examples=40, deadline=None)
@given(isolated_fields(), nonzero_rationals, st.data())
def test_scaled_defining_polynomial_gives_the_same_field(field, c, data):
    p, lo, hi = field
    f, g = NumberField(p, lo, hi), NumberField([c * x for x in p], lo, hi)
    assert f == g and hash(f) == hash(g)
    assert f.header() == g.header() and repr(f) == repr(g)
    assert f.header().startswith(
        "field: " + ",".join(format_number(x) for x in poly_monic(p)) + " ;")
    coeffs = poly(data.draw(st.lists(small_rationals, min_size=1,
                                     max_size=f.degree)))
    assert sign_of(f.element(coeffs)) == ref_sign(coeffs, p, lo, hi)


@settings(max_examples=40, deadline=None)
@given(isolated_fields(), st.data())
def test_not_invertible_reports_the_monic_rational_factor(field, data):
    # a = factor * (x + 1/3), and -1/3 is no root of p: the gcd is factor
    p, lo, hi = field
    f = NumberField(p, lo, hi)
    factor = data.draw(st.sampled_from([(Q(-3), Q(0), Q(1))] + [
        (-r, Q(1)) for r in ROOTS if poly_eval(p, r) == 0]))
    a = poly_mul(factor, (Q(1, 3), Q(1)))
    with pytest.raises(NotInvertible) as exc:
        invert(f.element(a))
    assert exc.value.factor == poly_monic(poly_gcd(a, p)) == factor


# -- canonical representatives ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REF_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equal_values_have_equal_representatives(name, data):
    p, (lo, hi) = REF_FIELDS[name]
    f = NumberField(p, lo, hi)
    a, b, c = (f.element(data.draw(coeff_lists(f.degree))) for _ in range(3))
    lhs, rhs = (a + b) * c, a * c + b * c
    assert lhs == rhs and hash(lhs) == hash(rhs)
    if a != 0:
        q = (b * a) / a
        assert q == b and hash(q) == hash(b)
    assert len({lhs, rhs, c * a + c * b}) == 1


def test_rational_values_equal_and_hash_as_rationals(sqrt2_field):
    a = sqrt2_field.alpha()
    two, third, zero = a * a, (a / 3) * a / 2, a - a
    assert (type(two), type(third), type(zero)) == (int, Q, int)
    assert two == 2 and hash(two) == hash(2)
    assert third == Q(1, 3) and hash(third) == hash(Q(1, 3))
    assert zero == 0 and hash(zero) == hash(0)
    assert {two, third, zero} == {2, Q(1, 3), 0}
    half = NumberField((Q(-1, 2), 0, 1), 0, 1).alpha() ** 2
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
        assert a * invert(a) == 1


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


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError, ParseError) as exc:
        return type(exc), str(exc)


RATIONAL_TOKENS = [
    "0", "7", "-7", "007", "-0", "12345678901234567890", "3/4", "-3/4",
    "6/8", "-6/-8", "0/5", "-0/5", "1/0", "-1/0", "0/0", "1/00", "+3",
    "+3/4", " 3/4 ", "3 /4", "3/ 4", "\t-2\n", "1.5", "-1e3", "1_000",
    "\u0663", "--1", "-", "", "/", "3/", "/4", "1/2/3", "abc", "0x10",
    "3/4x", "1/-2", "\u00b2",
]


@pytest.mark.parametrize("tok", RATIONAL_TOKENS)
def test_parse_rational_accepts_and_rejects_as_fraction_does(tok):
    # the same value, or the same exception with the same message
    assert _outcome(parse_rational, tok) == _outcome(lambda t: Q(t.strip()), tok)


@pytest.mark.parametrize("tok", [t for t in RATIONAL_TOKENS
                                 if t.split() == [t] and "," not in t])
def test_poly_coefficients_and_certificate_lines_parse_as_before(
        sqrt2_field, tok):
    # a poly(...) coefficient raises as Fraction does, a zero denominator
    # included; in a whole certificate line any bad value is a ParseError
    # naming the line
    literal = f"poly({tok},1)"
    before = _outcome(lambda t: Q(t.strip()), tok)
    if isinstance(before, tuple):
        assert _outcome(parse_number, literal, sqrt2_field) == before
        before = (ParseError, f"line 3: bad vec line: {before[1]}")
    else:
        assert parse_number(literal, sqrt2_field) == sqrt2_field.element(
            [before, 1])
    text = f"{sqrt2_field.header()}\nalpha 2\nvec {literal} {tok}\n"
    got = _outcome(parse_certificate, text)
    if isinstance(before, tuple):
        assert got == before
    else:
        assert got.vectors == ((sqrt2_field.element([before, 1]), before),)


def test_field_header_roundtrip(plastic_field):
    assert parse_field_header(plastic_field.header()) == plastic_field


def test_poly_string_parsing():
    assert poly_from_string("x^2-2") == (Q(-2), Q(0), Q(1))
    assert poly_from_string("x^14-11x^7+9")[7] == Q(-11)
    assert poly_from_string("x^3 - x - 1") == (Q(-1), Q(-1), Q(0), Q(1))
    assert poly_to_string((Q(-1), Q(-1), Q(0), Q(1))) == "x^3-x-1"


def test_poly_gcd_monic():
    # the reference's gcd is monic; the package's is its primitive integer
    # multiple with positive leading coefficient
    p = poly_mul((Q(-1), Q(1)), (Q(-2), Q(2)))  # 2(x-1)^2
    assert poly_gcd(p, (Q(-1), Q(1))) == (Q(-1), Q(1))
    assert primitive_gcd(int_poly(p), (1, -1)) == (-1, 1)
