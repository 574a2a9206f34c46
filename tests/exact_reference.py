"""Test-only exact checks: cross-field root comparison, Cayley-Hamilton, and
arithmetic in Q(alpha) on dense polynomials over Q.

None is used by the package; the tests use them as independent oracles for
root isolation, the characteristic polynomial and field elements.  The dense
Q[x] helpers below are this module's own: the package computes on integer
polynomials, and a defining polynomial read from a field (``field.poly``,
integers) is converted here with ``Q`` before use.
"""

from fractions import Fraction as Q
from typing import Sequence

from treebound.numeric import NumberField, format_rational, sign_of
from treebound.spectral import SquareMatrix, char_poly

QZERO, QONE = Q(0), Q(1)


# -- dense polynomials over Q (coefficients low to high) ------------------------


def poly_trim(coeffs: Sequence):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def poly(coeffs: Sequence):
    return poly_trim([Q(c) for c in coeffs])


def poly_deg(p: Sequence) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def poly_neg(a: Sequence):
    return tuple(-c for c in a)


def poly_mul(a: Sequence, b: Sequence):
    if not a or not b:
        return ()
    out = [QZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a: Sequence, b: Sequence):
    a, b = poly(a), poly(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [QZERO] * max(0, len(a) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        f = rem[i] / lead
        quo[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] -= f * b[j]
    return poly_trim(quo), poly_trim(rem)


def poly_monic(a: Sequence):
    return tuple(Q(c) / a[-1] for c in a) if a else ()


def poly_gcd(a: Sequence, b: Sequence):
    """Monic gcd by the Euclidean algorithm over Q."""
    a, b = poly(a), poly(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_deriv(a: Sequence):
    return poly_trim([Q(a[i]) * i for i in range(1, len(a))])


def poly_eval(a: Sequence, x):
    acc = QZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_squarefree(a: Sequence):
    """Monic a / gcd(a, a')."""
    return poly_monic(poly_divmod(a, poly_gcd(a, poly_deriv(a)))[0])


def ref_count_roots(p: Sequence, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi], by the Sturm sequence of its
    square-free part: p, p', then -rem(a, b) of the last two."""
    chain = [poly_squarefree(p)]
    chain.append(poly_deriv(chain[0]))
    while chain[-1]:
        chain.append(poly_neg(poly_divmod(chain[-2], chain[-1])[1]))

    def variations(x):
        signs = [v > 0 for v in (poly_eval(c, x) for c in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(Q(lo)) - variations(Q(hi))


# -- exact checks ------------------------------------------------------------------


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
                if lo < hi and ref_count_roots(g, lo, hi) >= 1 \
                        and ref_count_roots(f1.poly, lo, hi) == 1 \
                        and ref_count_roots(f2.poly, lo, hi) == 1:
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
    return poly_divmod(poly_mul(poly(a), poly(b)), p)[1]


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
    p = poly(p)
    g = poly_gcd(a, p)
    if poly_deg(g) >= 1 and ref_count_roots(g, lo, hi) >= 1:
        return 0
    sign = lambda v: (v > 0) - (v < 0)
    sign_lo = sign(poly_eval(p, lo))
    while ref_count_roots(a, lo, hi) or poly_eval(a, lo) == 0:
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
