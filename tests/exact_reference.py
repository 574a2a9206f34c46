"""Test-only exact checks: cross-field root comparison and Cayley-Hamilton.

Neither is used by the package; the tests use them as independent oracles
for root isolation and the characteristic polynomial.
"""

from typing import Sequence

from treebound.numeric import (
    QONE,
    QZERO,
    NumberField,
    count_real_roots,
    poly_deg,
    poly_gcd,
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
