"""Test-only exact checks: cross-field root comparison, Cayley-Hamilton, and
arithmetic in Q(alpha) on dense polynomials over Q.

None is used by the package; the tests use them as independent oracles for
root isolation, the characteristic polynomial and field elements.
"""

from typing import Sequence

from treebound.numeric import (
    QONE,
    QZERO,
    NumberField,
    count_real_roots,
    format_rational,
    poly,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_trim,
    sign_of,
)
from treebound.spectral import SquareMatrix, char_poly


def compare_isolated_roots(p1: Sequence, iv1, p2: Sequence, iv2) -> int:
    """Compare two algebraic reals given as (polynomial, isolating interval).

    Adaptive interval separation; equality is detected through a root of
    gcd(p1, p2) in the overlap, so the comparison always terminates.
    """
    f1 = NumberField(p1, iv1[0], iv1[1], _checked=True)
    f2 = NumberField(p2, iv2[0], iv2[1], _checked=True)
    g = None
    for round_ in range(512):
        lo1, hi1 = f1.interval()
        lo2, hi2 = f2.interval()
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
        if round_ >= 2:
            if g is None:
                g = poly_gcd(f1.poly, f2.poly)
            if poly_deg(g) >= 1:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo < hi and count_real_roots(g, lo, hi) >= 1 \
                        and count_real_roots(f1.poly, lo, hi) == 1 \
                        and count_real_roots(f2.poly, lo, hi) == 1:
                    return 0
        f1.refine()
        f2.refine()
    raise RuntimeError("root comparison did not separate")  # pragma: no cover


def cayley_hamilton_check(m: SquareMatrix) -> bool:
    """p(M) = 0 for p = char_poly(M)."""
    p = char_poly(m)
    n = m.n
    acc = [[QZERO] * n for _ in range(n)]
    power = [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]
    for c in p:
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * power[i][j]
        power = [[sum((power[i][k] * m.entries[k][j] for k in range(n)), QZERO)
                  for j in range(n)] for i in range(n)]
    return all(sign_of(acc[i][j]) == 0 for i in range(n) for j in range(n))


# -- Q(alpha) = Q[x]/p on dense coefficient tuples (low to high) ----------------


def ref_add(a: Sequence, b: Sequence):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else QZERO)
                      + (b[i] if i < len(b) else QZERO) for i in range(n)])


def ref_sub(a: Sequence, b: Sequence):
    return ref_add(a, poly_neg(b))


def ref_mul(a: Sequence, b: Sequence, p: Sequence):
    """a*b reduced mod p."""
    return poly_divmod(poly_mul(a, b), p)[1]


def ref_inverse(a: Sequence, p: Sequence):
    """1/a mod p by the extended Euclidean algorithm over Q."""
    r0, s0, r1, s1 = poly(p), (), poly(a), (QONE,)
    while len(r1) > 1:
        q, r = poly_divmod(r0, r1)
        r0, s0, r1, s1 = r1, s1, r, ref_sub(s0, poly_mul(q, s1))
    if not r1:
        raise ZeroDivisionError("not invertible mod p")
    return tuple(c / r1[0] for c in s1)


def ref_sign(a: Sequence, p: Sequence, lo, hi) -> int:
    """Sign of a(alpha), alpha the only root of p in (lo, hi).

    Zero iff gcd(a, p) vanishes in the interval; otherwise bisect until a has
    no root in [lo, hi], where its sign is then a(lo)'s."""
    if not a:
        return 0
    g = poly_gcd(a, p)
    if poly_deg(g) >= 1 and count_real_roots(g, lo, hi) >= 1:
        return 0
    sign = lambda v: (v > 0) - (v < 0)
    sign_lo = sign(poly_eval(p, lo))
    while count_real_roots(a, lo, hi) or poly_eval(a, lo) == 0:
        mid = (lo + hi) / 2
        v = poly_eval(p, mid)
        if v == 0:
            return sign(poly_eval(a, mid))
        if sign(v) == sign_lo:
            lo = mid
        else:
            hi = mid
    return sign(poly_eval(a, lo))


def ref_format(a: Sequence) -> str:
    """The number syntax: a rational, or poly(c0,...,ck) up to the top term."""
    if len(a) <= 1:
        return format_rational(a[0] if a else 0)
    return "poly(" + ",".join(format_rational(c) for c in a) + ")"
