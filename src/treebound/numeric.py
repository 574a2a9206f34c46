"""Exact arithmetic over Q and over real algebraic number fields Q(alpha).

A field is Q[x]/P(x) together with a rational interval (lo, hi) isolating one
real root alpha of P, P stored as a primitive integer polynomial.  Elements
are polynomials in alpha reduced mod P, stored as sparse integer numerators
over one positive denominator, in lowest terms, so equal values have equal
representatives.  Signs of nonzero elements are decided by evaluating the
numerator on the isolating interval and bisecting it as needed; the exact
zero test goes through gcd with P, so sign queries always terminate.

All polynomial work (gcds, square-free parts, Sturm chains, inverses) runs on
integer coefficients through one pseudo-division routine, and polynomials
are evaluated at a rational n/d in integers, scaled by a power of d.

A rational value is always an ``int`` or a ``fractions.Fraction``, never an
AlgebraicNumber: every field operation whose reduced numerator is constant
returns the rational, so an AlgebraicNumber always has a non-constant
numerator.  Rationals mix freely with field elements, and rational-only
computations never pay for polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Sequence, Tuple

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoRealRoot,
    NoRootIsolated,
    NotInvertible,
    NotSquareFree,
    ParseError,
)

QZERO = Q(0)
QONE = Q(1)


def parse_rational(tok: str) -> Q:
    """Parse ``p`` or ``p/q`` into a normalized rational.

    A plain ``[-]digits[/digits]`` token is read with int(), and q = 0
    raises Fraction's own ZeroDivisionError; any other token (spaces, a
    sign, a decimal point) goes to Fraction(str), which accepts or rejects
    it as it always has."""
    num, slash, den = tok.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return Q(int(num))
        if den.isascii() and den.isdigit():
            return Q(int(num), int(den))
    return Q(tok.strip())


def format_rational(x) -> str:
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Dense polynomials, coefficients low-to-high.  Rational ones are only parsed
# and printed; every computation runs on integer ones, by pseudo-division.
# ---------------------------------------------------------------------------

Poly = Tuple[Q, ...]


def poly_trim(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def int_poly(coeffs: Iterable) -> Tuple[int, ...]:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of coeffs; () for the zero polynomial."""
    cs = poly_trim([Q(c) for c in coeffs])
    if not cs:
        return ()
    den = lcm(*(c.denominator for c in cs))
    return _canonical([c.numerator * (den // c.denominator) for c in cs])


def _primitive(a: list) -> list:
    """a divided by the positive gcd of its coefficients: signs are kept."""
    g = gcd(*a)
    return a if g <= 1 else [c // g for c in a]


def _canonical(a: list) -> Tuple[int, ...]:
    """The primitive multiple of a with positive leading coefficient."""
    a = _primitive(a)
    return tuple(a) if not a or a[-1] > 0 else tuple(-c for c in a)


def _monic(a: Sequence) -> Poly:
    """The monic rational multiple of a nonzero int polynomial."""
    return tuple(Q(c, a[-1]) for c in a)


def _pseudo_divmod(a: Sequence, b: Sequence) -> Tuple[list, list]:
    """(q, r) for int polynomials (b nonzero) with
    lead(b)**(deg a - deg b + 1) * a = q*b + r, r trimmed to deg r < deg b."""
    lead, db = b[-1], len(b) - 1
    r, q = list(a), [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        for j in range(db):
            r[i + j] -= c * b[j]
        q = [lead * x for x in q]
        q[i] = c
    while r and not r[-1]:
        r.pop()
    return q, r


def primitive_gcd(a: Sequence, b: Sequence) -> Tuple[int, ...]:
    """gcd of int polynomials by the primitive remainder sequence (Collins
    1967): primitive, with positive leading coefficient."""
    a, b = list(a), _primitive(list(b))
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _canonical(a)


def _deriv(a: Sequence) -> list:
    return [i * a[i] for i in range(1, len(a))]


def squarefree_part(a: Sequence) -> Tuple[int, ...]:
    """a / gcd(a, a') for a nonzero int polynomial a, made primitive with a
    positive leading coefficient."""
    g = primitive_gcd(a, _deriv(a))
    q = _pseudo_divmod(a, g)[0] if len(g) > 1 else list(a)
    return _canonical(q)


def _hval(a: Sequence, n: int, d: int) -> int:
    """d**deg(a) * a(n/d) by homogeneous Horner, for d > 0: an integer with
    the sign of a at n/d."""
    acc, dk = 0, 1
    for c in reversed(a):
        acc = acc * n + c * dk
        dk *= d
    return acc


def poly_from_string(text: str) -> Poly:
    """Parse expressions like ``x^14-11x^7+9`` or ``x^2 - 2`` over Q."""
    import re

    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty polynomial")
    pattern = re.compile(r"([+-]?)((?:\d+(?:/\d+)?)?)(x(?:\^(\d+))?)?")
    pos, terms = 0, {}
    while pos < len(s):
        m = pattern.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign, coeff, xpart, exp = m.groups()
        if not coeff and not xpart:
            raise ValueError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        c = Q(coeff) if coeff else QONE
        if sign == "-":
            c = -c
        e = 0
        if xpart:
            e = int(exp) if exp else 1
        terms[e] = terms.get(e, QZERO) + c
        pos = m.end()
    out = [QZERO] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return poly_trim(out)


def poly_to_string(a: Sequence, var: str = "x") -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        if e == 0:
            term = format_rational(abs(c))
        else:
            mag = abs(c)
            coeff = "" if mag == 1 else format_rational(mag)
            term = f"{coeff}{var}" + (f"^{e}" if e > 1 else "")
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Sturm sequences and real-root counting.
# ---------------------------------------------------------------------------

def sturm_chain(p: Sequence) -> Tuple[tuple, ...]:
    """Sturm sequence of a nonzero int polynomial p: p, p', and then, for
    each last two members a, b, a positive multiple of -rem(a, b).

    The pseudo-remainder is lead(b)**(deg a - deg b + 1) times rem(a, b),
    so it is not negated when that power is negative: lead(b) < 0 and
    deg a - deg b even.  Contents are divided out by positive gcds only.
    A negative multiple anywhere would change the sign variations."""
    a, b = list(p), _deriv(p)
    chain = [tuple(a)]
    while b:
        chain.append(tuple(b))
        r = _pseudo_divmod(a, b)[1]
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
        a, b = b, _primitive(r)
    return tuple(chain)


def _variations(chain: Sequence, x) -> int:
    n, d = x.numerator, x.denominator
    signs = [v > 0 for v in (_hval(c, n, d) for c in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def count_real_roots(p: Sequence, lo, hi) -> int:
    """Distinct real roots in (lo, hi] of p, rational or int, nonzero."""
    return sturm_count(sturm_chain(squarefree_part(int_poly(p))), lo, hi)


# ---------------------------------------------------------------------------
# Number fields.
# ---------------------------------------------------------------------------

class NumberField:
    """Q[x]/P(x) with an isolating interval selecting one real root of P.

    P is given with rational or int coefficients and stored as `int_poly(P)`:
    primitive, with positive leading coefficient; headers print it monic.
    Alpha is the unique root of P in (lo, hi), where each new field's
    isolating interval starts; equal fields built twice still mix (see
    `_coerce`).  The interval only ever shrinks; concurrent sign queries
    therefore agree.
    """

    def __init__(self, coeffs: Sequence, lo, hi, _checked: bool = False):
        p = int_poly(coeffs)
        if len(p) < 2:
            raise NoRootIsolated("defining polynomial must be nonconstant")
        lo, hi = Q(lo), Q(hi)
        if not lo < hi:
            raise NoRootIsolated("need lo < hi")
        self.poly: Tuple[int, ...] = p
        self.degree: int = len(p) - 1
        self.original_interval = (lo, hi)
        if not _checked:
            self._check_isolation(lo, hi)
        self._lo, self._hi = lo, hi
        self._sign_lo = 1 if _hval(p, lo.numerator, lo.denominator) > 0 else -1
        self._exact: Q | None = None
        if self.degree == 1:
            self._exact = Q(-p[0], p[1])
            self._lo = self._hi = self._exact
        # x^(degree+j) reduced mod poly, built on demand
        self._red_rows: tuple | None = None
        self._reset_bounds()

    def _check_isolation(self, lo, hi):
        p = self.poly
        vlo = _hval(p, lo.numerator, lo.denominator)
        vhi = _hval(p, hi.numerator, hi.denominator)
        if vlo * vhi >= 0:
            raise NoRootIsolated(
                f"no sign change of {poly_to_string(_monic(p))} on "
                f"({format_rational(lo)}, {format_rational(hi)})")
        # P's own chain ends in gcd(P, P'); with no root of that gcd in the
        # interval, the chain counts P's distinct roots at endpoints where
        # P is nonzero, as the chain of P / gcd would
        chain = sturm_chain(p)
        g = chain[-1]
        if len(g) > 1 and count_real_roots(g, lo, hi) >= 1:
            raise NotSquareFree(
                f"repeated root of {poly_to_string(_monic(p))} in the interval")
        if sturm_count(chain, lo, hi) != 1:
            raise NoRootIsolated("interval does not contain exactly one root")

    # -- interval refinement -------------------------------------------------

    def interval(self) -> Tuple[Q, Q]:
        return self._lo, self._hi

    def refine(self) -> None:
        """Halve the isolating interval, keeping alpha inside."""
        if self._exact is not None:
            return
        mid = (self._lo + self._hi) / 2
        v = _hval(self.poly, mid.numerator, mid.denominator)
        if v == 0:
            self._exact = mid
            self._lo = self._hi = mid
        elif (1 if v > 0 else -1) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid
        self._reset_bounds()

    def refine_to_width(self, width) -> Tuple[Q, Q]:
        width = Q(width)
        while self._hi - self._lo > width:
            self.refine()
        return self._lo, self._hi

    def _reset_bounds(self) -> None:
        """Write the interval as (L/D, H/D) over ints; enclosures are then
        taken in integers scaled by D**(degree-1), with no gcd."""
        lo, hi = self._lo, self._hi
        den = lcm(lo.denominator, hi.denominator)
        self._ends = (lo.numerator * (den // lo.denominator),
                      hi.numerator * (den // hi.denominator), den)
        self._scale = den ** (self.degree - 1)
        self._bounds: dict = {}

    def _monomial_bounds(self, e: int) -> Tuple[int, int]:
        """Integers enclosing alpha**e * scale (alpha may be of either sign)."""
        b = self._bounds.get(e)
        if b is None:
            lnum, hnum, den = self._ends
            rest = den ** (self.degree - 1 - e)
            plo, phi = lnum ** e * rest, hnum ** e * rest
            if e == 0 or lnum >= 0 or e % 2 == 1 or hnum <= 0:
                b = (plo, phi) if plo <= phi else (phi, plo)
            else:
                b = (0, max(plo, phi))  # interval straddles 0, even power > 0
            self._bounds[e] = b
        return b

    def enclose(self, num) -> Tuple[int, int, int]:
        """Integers (lo, hi, scale), scale > 0, with lo <= scale * value <= hi
        for value = sum(c * alpha**e for e, c in num), num's c integers."""
        lo = hi = 0
        for e, c in num:
            mlo, mhi = self._monomial_bounds(e)
            if c >= 0:
                lo, hi = lo + c * mlo, hi + c * mhi
            else:
                lo, hi = lo + c * mhi, hi + c * mlo
        return lo, hi, self._scale

    # -- reduction of powers >= degree ----------------------------------------

    def _reduction_rows(self):
        """(rows, den): rows[j] holds the integer numerators of x^(degree+j)
        mod P, sparse and sorted, all over the one positive denominator den."""
        if self._red_rows is None:
            d = self.degree
            lead = self.poly[-1]
            first = {e: Q(-c, lead) for e, c in enumerate(self.poly[:-1]) if c}
            rows = [first]
            for _ in range(d - 2):
                prev = rows[-1]
                nxt = {e + 1: c for e, c in prev.items() if e + 1 < d}
                top = prev.get(d - 1)
                if top is not None:
                    for e, c in first.items():
                        nxt[e] = nxt.get(e, QZERO) + top * c
                rows.append({e: c for e, c in nxt.items() if c != 0})
            den = lcm(*(c.denominator for row in rows for c in row.values()))
            self._red_rows = ([tuple((e, c.numerator * (den // c.denominator))
                                     for e, c in sorted(row.items()))
                               for row in rows], den)
        return self._red_rows

    def _make(self, num: dict, den: int):
        """The canonical value num / den, num a sparse exponent -> int map
        of any degree and den > 0: reduced mod P, zeros dropped, and the
        content of the numerator made coprime to den.  A constant numerator
        gives the rational itself, an int when den is 1."""
        d = self.degree
        if num and max(num) >= d:
            rows, rden = self._reduction_rows()
            out = {e: c * rden for e, c in num.items() if e < d}
            for e, c in num.items():
                if e >= d and c:
                    for e2, c2 in rows[e - d]:
                        out[e2] = out.get(e2, 0) + c * c2
            num, den = out, den * rden
        items = [(e, c) for e, c in sorted(num.items()) if c]
        if den != 1:
            g = gcd(den, *[c for _, c in items])
            if g != 1:
                items = [(e, c // g) for e, c in items]
                den //= g
        if not items or items[-1][0] == 0:
            c = items[0][1] if items else 0
            return c if den == 1 else Q(c, den)
        return AlgebraicNumber(self, tuple(items), den)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        # same defining polynomial and same selected root: equal intervals,
        # or overlapping intervals whose overlap still contains a root
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self.poly != other.poly:
            return False
        if self.original_interval == other.original_interval:
            return True
        lo = max(self.original_interval[0], other.original_interval[0])
        hi = min(self.original_interval[1], other.original_interval[1])
        return lo < hi and count_real_roots(self.poly, lo, hi) >= 1

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        lo, hi = self.original_interval
        return (f"NumberField({poly_to_string(_monic(self.poly))} on "
                f"({format_rational(lo)}, {format_rational(hi)}))")

    def header(self) -> str:
        lo, hi = self.original_interval
        coeffs = ",".join(format_rational(c) for c in _monic(self.poly))
        return f"field: {coeffs} ; interval {format_rational(lo)} {format_rational(hi)}"

    # -- element constructors --------------------------------------------------

    def element(self, coeffs):
        """Element from a low-to-high dense coefficient list (length <= degree):
        an AlgebraicNumber, or an int or Fraction when it is constant."""
        cs = [Q(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return self._make({e: c.numerator * (den // c.denominator)
                           for e, c in enumerate(cs)}, den)

    def alpha(self):
        return self.element([0, 1])


def nthroot_field(x, n: int) -> NumberField:
    """Field for the positive real n-th root of a positive rational x."""
    x = Q(x)
    if x <= 0 or n < 1:
        raise NoRootIsolated("nthroot needs a positive radicand and n >= 1")
    return power_root_field(NumberField((-x, 1), 0, x + 1), n, 1)


# ---------------------------------------------------------------------------
# Real roots: the largest real root of a polynomial, and s-th roots of a
# positive field generator.
# ---------------------------------------------------------------------------

def largest_real_root(p: Sequence, precision) -> Tuple[NumberField, Tuple[Q, Q]]:
    """Isolate the largest real root of p to the requested interval width.

    Returns a NumberField anchored at that root (defining polynomial: the
    square-free part of p) together with the isolating interval.
    """
    q = int_poly(p)
    if len(q) < 2:
        raise NoRealRoot("polynomial is constant")
    sf = squarefree_part(q)
    chain = sturm_chain(sf)
    bound = 1 + Q(max(map(abs, sf[:-1])), sf[-1])  # Cauchy: |root| < bound
    lo, hi = -bound, bound
    if sturm_count(chain, lo, hi) == 0:
        raise NoRealRoot(poly_to_string(poly_trim(list(p))))
    # keep the upper part while it still contains a root
    while sturm_count(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        # never bisect exactly on a root
        while not _hval(sf, mid.numerator, mid.denominator):
            mid = (mid + hi) / 2
        if sturm_count(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    # exactly one simple root strictly inside, and neither end is a root
    field = NumberField(sf, lo, hi, _checked=True)
    return field, field.refine_to_width(precision)


def power_root_field(lam: NumberField, s: int, width) -> NumberField:
    """Field for beta = lambda**(1/s), lambda the root lam selects, which
    must be positive: its defining polynomial is lam.poly(x**s) and its
    isolating interval has width <= `width`.

    Refines lam until its interval (la, lb) is positive, then bisects
    t -> t**s against it, keeping ba**s <= la and bb**s >= lb; both stay
    true as a midpoint inside (la, lb) refines lam, so the bisection goes on
    from the bracket it had reached.  When mid**s is exactly lambda, beta is
    mid and the interval is centred on it.
    """
    composed = [0] * (lam.degree * s + 1)  # lam.poly(x**s)
    composed[::s] = lam.poly
    la, lb = lam.interval()
    while la <= 0:
        if lb <= 0:
            raise NoRealRoot(
                f"root of {poly_to_string(_monic(lam.poly))} is not positive")
        lam.refine()
        la, lb = lam.interval()
    width = Q(width)
    ba, bb = QZERO, max(QONE, lb) + 1
    while bb - ba > width:
        mid = (ba + bb) / 2
        ms = mid ** s
        if ms <= la:
            if ms == lb:  # ms == la == lb: lambda is exactly mid**s
                ba, bb = mid - width / 2, mid + width / 2
                break
            ba = mid
        elif ms >= lb:
            bb = mid
        else:
            lam.refine()
            la, lb = lam.interval()
    # A root t of lam.poly(x**s) in (ba, bb) has t**s in (ba**s, bb**s), so
    # (ba, bb) isolates beta when lambda is lam.poly's only root there.
    las, lbs = ba ** s, bb ** s
    if not (ba >= 0 and las <= la and lb <= lbs
            and sturm_count(sturm_chain(lam.poly), las, lbs) == 1):
        raise AssertionError("power-root bracket failed its isolation check")
    return NumberField(composed, ba, bb, _checked=True)


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------

class AlgebraicNumber:
    """Immutable element of a NumberField: integer numerators over one
    positive denominator, reduced mod the defining poly.

    `_num` is the sorted tuple of (exponent, nonzero int) pairs and `_den` is
    coprime to their content, so equal values have equal representatives.
    The numerator is never constant (`NumberField._make`); only `_coerce`
    builds a constant one, as an operand inside one operation.
    """

    __slots__ = ("field", "_num", "_den", "_hash")

    def __init__(self, field: NumberField, num: tuple, den: int = 1):
        self.field = field
        self._num = num
        self._den = den
        self._hash = None

    # -- views ----------------------------------------------------------------

    def coeff_list(self) -> Tuple[Q, ...]:
        return tuple(Q(c, self._den) for c in self._dense())

    def _dense(self) -> list:
        """The numerator as a dense int polynomial."""
        out = [0] * (self._num[-1][0] + 1)
        for e, c in self._num:
            out[e] = c
        return out

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Q)):
            if other == 0:
                return AlgebraicNumber(self.field, ())
            return AlgebraicNumber(self.field, ((0, other.numerator),),
                                   other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def _plus(self, o: "AlgebraicNumber", sign: int) -> "AlgebraicNumber":
        """self + sign*o, cross-multiplying the denominators."""
        if not o._num:
            return self
        da, db = self._den, o._den
        out = {e: c * db for e, c in self._num}
        for e, c in o._num:
            out[e] = out.get(e, 0) + sign * c * da
        return self.field._make(out, da * db)

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple((e, -c) for e, c in self._num),
                               self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod: dict = {}
        for e1, c1 in self._num:
            for e2, c2 in o._num:
                e = e1 + e2
                prod[e] = prod.get(e, 0) + c1 * c2
        return self.field._make(prod, self._den * o._den)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        """Exact inverse by the extended primitive remainder sequence of P
        and the numerator num.

        Each step keeps k*r = s*num mod P for int polynomials r, s and an
        int k.  The last remainder is a constant c, so 1/self =
        den * s / (k*c).
        """
        if not self._num:
            raise DivisionByZero("inverse of zero")
        f = self.field
        r0, r1 = f.poly, self._dense()
        s0, k0, s1, k1 = [], 1, [1], 1
        while len(r1) > 1:
            q, r = _pseudo_divmod(r0, r1)
            if not r:
                raise NotInvertible(_monic(r1))
            # lead**delta * r0 = q*r1 + r, so
            # k0*k1*r = (lead**delta * k1*s0 - k0*q*s1) * num  mod P
            scale = r1[-1] ** (len(r0) - len(r1) + 1) * k1
            s = [scale * c for c in s0] + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, a in enumerate(q):
                for j, b in enumerate(s1):
                    s[i + j] -= k0 * a * b
            g = gcd(*r)
            k = k0 * k1 * g
            h = gcd(k, *s)
            r0, s0, k0 = r1, s1, k1
            r1, s1, k1 = [c // g for c in r], [c // h for c in s], k // h
        den = k1 * r1[0]
        if den < 0:
            s1, den = [-c for c in s1], -den
        return f._make({e: c * self._den for e, c in enumerate(s1)}, den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc, base = 1, self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- sign and comparisons -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign: enclose the numerator on the isolating interval (the
        denominator is positive), halving the interval after each miss.
        After two misses, the value is zero iff gcd(numerator, P) has a root
        in the interval; that test runs once, and a nonzero value then
        needs only more halvings."""
        f = self.field
        misses = 0
        while True:
            x = f._exact
            if x is not None:
                v = _hval(self._dense(), x.numerator, x.denominator)
                return (v > 0) - (v < 0)
            if misses == 2:
                g = primitive_gcd(self._dense(), f.poly)
                if len(g) > 1 and count_real_roots(g, f._lo, f._hi) >= 1:
                    return 0
            lo, hi, _ = f.enclose(self._num)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            f.refine()
            misses += 1

    def __eq__(self, other):
        """Equality of reduced representatives (the dedup contract); use
        sign_of(a - b) for semantic equality of values.  A rational value's
        representative is its int or Fraction, so it equals no element."""
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and self.field == other.field)

    # order by the exact sign of the difference; nothing needs < or >
    def __le__(self, other):
        return sign_of(other - self) >= 0

    def __ge__(self, other):
        return sign_of(self - other) >= 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self._num, self._den))
        return self._hash

    def __repr__(self):
        return format_number(self)


def sign_of(x) -> int:
    """Exact sign of a rational or AlgebraicNumber: -1, 0 or +1."""
    if isinstance(x, AlgebraicNumber):
        return x.sign()
    return 0 if x == 0 else (1 if x > 0 else -1)


def invert(x):
    if isinstance(x, AlgebraicNumber):
        return x.inverse()
    x = Q(x)
    if x == 0:
        raise DivisionByZero("inverse of zero")
    return 1 / x


def decimal_interval(x, width) -> Tuple[Q, Q]:
    """Rationals (lo, hi) with lo <= x <= hi and hi - lo <= width."""
    width = Q(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if not isinstance(x, AlgebraicNumber):
        x = Q(x)
        return x, x
    f = x.field
    while True:  # enclose the numerator, then divide by the denominator
        lo, hi, scale = f.enclose(x._num)
        scale *= x._den
        if hi - lo <= width * scale:
            return Q(lo, scale), Q(hi, scale)
        f.refine()


def decimal_str(x, digits: int = 6) -> str:
    """Decimal rendering of the midpoint of a width-10^-digits bracket."""
    lo, hi = decimal_interval(x, Q(1, 10 ** (digits + 2)))
    mid = (lo + hi) / 2
    neg = mid < 0
    scaled = abs(mid) * 10 ** digits + Q(1, 2)  # round to nearest
    n = scaled.numerator // scaled.denominator
    ip, fp = divmod(int(n), 10 ** digits)
    return f"{'-' if neg else ''}{ip}.{fp:0{digits}d}"


# ---------------------------------------------------------------------------
# Textual number syntax shared by all file formats.
#   rationals:         p/q  or  p
#   algebraic numbers: poly(c0,c1,...,cd)   meaning c0 + c1*alpha + ...
#   field headers:     field: c0,c1,...,cd ; interval p/q r/s
# ---------------------------------------------------------------------------

# what reading a malformed line or --alpha spec raises before the ParseError
PARSE_FAULTS = (ValueError, IndexError, ZeroDivisionError, NoRootIsolated,
                NotSquareFree)


def read_text(path) -> str:
    """The UTF-8 text of a file; one that cannot be read is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else "not UTF-8"
        raise ParseError(f"cannot read {path}: {why}") from None


class Directives:
    """The lines of a text without `#` comments, stripped, blank ones
    skipped; a parser reads them all in one `with` block.  An error leaving
    the block is reported at the current line: a ParseError gets its number,
    and a PARSE_FAULTS error becomes "line N: bad <directive> line: ...".
    """

    def __init__(self, text: str):
        self.text, self.ln, self.line = text, None, ""

    def __iter__(self):
        for self.ln, raw in enumerate(self.text.splitlines(), start=1):
            self.line = raw.split("#", 1)[0].strip()
            if self.line:
                yield self.line

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ParseError) and exc.line is None:
            raise kind(str(exc), self.ln) from None
        if isinstance(exc, PARSE_FAULTS):
            word = self.line.split()[0].rstrip(":")
            raise ParseError(f"bad {word} line: {exc}", self.ln) from None


def parse_number(tok: str, field: NumberField | None = None):
    """A rational, as an int when it is integral, or the value of a poly(...)
    literal: an element, or its rational when the literal is constant."""
    tok = tok.strip()
    if tok.startswith("poly(") and tok.endswith(")"):
        if field is None:
            raise ValueError("poly(...) literal needs an ambient field")
        coeffs = [parse_rational(c) for c in tok[5:-1].split(",")]
        return field.element(coeffs)
    x = parse_rational(tok)
    return x.numerator if x.denominator == 1 else x


def format_number(x) -> str:
    if isinstance(x, AlgebraicNumber):
        coeffs = x.coeff_list()
        return "poly(" + ",".join(format_rational(c) for c in coeffs) + ")"
    return format_rational(x)


def parse_field_header(line: str) -> NumberField:
    coeffs, interval = line.split(":", 1)[1].split(";")
    word, lo, hi = interval.split()
    if word != "interval":
        raise ValueError(f"expected 'interval lo hi' after ';', got {word!r}")
    return NumberField([parse_rational(c) for c in coeffs.split(",")],
                       parse_rational(lo), parse_rational(hi))
