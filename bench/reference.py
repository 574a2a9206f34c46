"""Reference values computed apart from treebound, with fractions only.

Nothing here imports the package under test.  The published constants of
the paper's fixtures, Wilf's closed form for independent dominating sets,
root enclosures by integer bisection and parsers for the numbers the
`treebound` command prints are all the benchmark's own, so a check that
uses them does not lean on the arithmetic it is measuring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

Coeffs = Dict[int, Fraction]     # exponent of alpha -> coefficient


@dataclass(frozen=True)
class Published:
    """A certified scaling value alpha (a root of `poly` inside `interval`)
    and, where the paper prints one, the certificate constant C."""

    poly: Tuple[int, ...]        # integer coefficients, low to high
    interval: Tuple[int, int]
    C: Optional[Coeffs] = None


PUBLISHED: Dict[str, Published] = {
    "indep_dom": Published((-2, 0, 1), (1, 2), {0: Fraction(1)}),
    "perfect_codes": Published((-3, 0, 0, 0, 0, 0, 0, 1), (1, 2),
                               {5: Fraction(2, 3)}),
    "min_perfect_dom": Published((-1, -1, 0, 1), (1, 2),
                                 {0: Fraction(2), 1: Fraction(2),
                                  2: Fraction(-2)}),
    "total_perfect_dom": Published((-939524096,) + (0,) * 84 + (1,), (1, 2),
                                   {80: Fraction(1, 234881024)}),
    "max_matchings": Published((9, 0, 0, 0, 0, 0, 0, -11,
                                0, 0, 0, 0, 0, 0, 1), (1, 2),
                               {3: Fraction(11, 3), 10: Fraction(-1, 3)}),
    "matchings3": Published((-1, 0, 0, -1, 1), (1, 2)),
    "matchings4": Published((-13, 0, 0, 0, 0, 0, 0, 0, 0, 1), (1, 2)),
}

# Published lower-bound rates (transfer-matrix growth), as printed.
LOWER_RATES: Dict[str, str] = {
    "min_perfect_dom": "1.32472",
    "max_induced_matchings": "1.331576",
    "matchings5": "1.293211",
    "max_irredundant": "1.53746",
    "total_perfect_dom": "1.275157",
    "perfect_codes": "1.16993",
}


def wilf(k: int) -> int:
    """Maximum number of maximal independent sets in a tree on k vertices."""
    return 2 ** ((k - 1) // 2) if k % 2 else 2 ** (k // 2 - 1) + 1


def enclose_root(poly: Sequence[int], lo: int, hi: int,
                 bits: int = 120) -> Tuple[Fraction, Fraction]:
    """Bisect a sign change of an integer polynomial on (lo, hi) down to
    width (hi - lo) / 2**bits, evaluating at dyadic points in integers."""
    d = len(poly) - 1

    def sign_at(m: int, b: int) -> int:   # sign of poly(m / 2**b)
        v = sum(c * m ** i << (b * (d - i)) for i, c in enumerate(poly) if c)
        return (v > 0) - (v < 0)

    s_lo = sign_at(lo, 0)
    if s_lo == 0 or s_lo == sign_at(hi, 0):
        raise ValueError("no simple sign change on the interval")
    m_lo, m_hi = lo, hi                   # numerators over 2**b
    for b in range(1, bits + 1):
        m_lo, m_hi = 2 * m_lo, 2 * m_hi
        mid = (m_lo + m_hi) // 2
        s = sign_at(mid, b)
        if s == 0:
            return Fraction(mid, 2 ** b), Fraction(mid, 2 ** b)
        if s == s_lo:
            m_lo = mid
        else:
            m_hi = mid
    return Fraction(m_lo, 2 ** bits), Fraction(m_hi, 2 ** bits)


@lru_cache(maxsize=None)
def alpha_enclosure(name: str) -> Tuple[Fraction, Fraction]:
    p = PUBLISHED[name]
    return enclose_root(p.poly, *p.interval)


def upper_value(c: Coeffs, alpha: Tuple[Fraction, Fraction], k: int = 0
                ) -> Fraction:
    """Upper end of sum(c_e alpha^e) * alpha^k for alpha in a positive
    enclosure; a sound upper bound on C*alpha^k."""
    lo, hi = alpha
    total = sum(v * (hi if v > 0 else lo) ** e for e, v in c.items())
    return total * (hi if total > 0 else lo) ** k


def parse_number(tok: str) -> Coeffs:
    """`p/q` or `poly(c0,c1,...)` as printed by the command -> coefficients."""
    tok = tok.strip()
    if tok.startswith("poly(") and tok.endswith(")"):
        items = enumerate(tok[5:-1].split(","))
    else:
        items = [(0, tok)]
    out = {e: Fraction(c) for e, c in items}
    return {e: v for e, v in out.items() if v}


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def halve_token(tok: str) -> str:
    """One certificate coordinate, halved, in the certificate file syntax."""
    if tok.startswith("poly("):
        coeffs = [Fraction(c) / 2 for c in tok[5:-1].split(",")]
        return "poly(" + ",".join(format_fraction(c) for c in coeffs) + ")"
    return format_fraction(Fraction(tok) / 2)


def halve_certificate(text: str) -> str:
    """Copy of a certificate file with every vector halved; V0/alpha then
    escapes conv_<=(X) whenever it touched the boundary of the original."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "vec":
            line = "vec " + " ".join(halve_token(t) for t in parts[1:])
        elif parts and parts[0] == "C":
            continue        # the stated C would no longer match
        out.append(line)
    return "\n".join(out) + "\n"
