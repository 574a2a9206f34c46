"""Exact arithmetic over Q and over real algebraic number fields Q(alpha).

A field is Q[x]/P(x) together with a rational interval (lo, hi) isolating one
real root alpha of P.  Elements are polynomials in alpha reduced mod P, stored
sparsely as {exponent: rational}.  Signs of nonzero elements are decided by
evaluating on the isolating interval and bisecting it as needed; the exact
zero test goes through gcd with P, so sign queries always terminate.

Pure rationals are plain ``fractions.Fraction`` values; they mix freely with
field elements, so rational-only computations never pay for polynomial
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, Sequence, Tuple

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoRootIsolated,
    NotInvertible,
    NotSquareFree,
)

QZERO = Q(0)
QONE = Q(1)


def parse_rational(tok: str) -> Q:
    """Parse ``p`` or ``p/q`` into a normalized rational."""
    return Q(tok.strip())


def format_rational(x) -> str:
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Dense polynomial helpers over Q (coefficients low-to-high).
# ---------------------------------------------------------------------------

Poly = Tuple[Q, ...]


def poly(coeffs: Iterable) -> Poly:
    return poly_trim([Q(c) for c in coeffs])


def poly_trim(coeffs: Sequence) -> Poly:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def poly_deg(p: Sequence) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def poly_add(a: Sequence, b: Sequence) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([
        (a[i] if i < len(a) else QZERO) + (b[i] if i < len(b) else QZERO)
        for i in range(n)
    ])


def poly_sub(a: Sequence, b: Sequence) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([
        (a[i] if i < len(a) else QZERO) - (b[i] if i < len(b) else QZERO)
        for i in range(n)
    ])


def poly_neg(a: Sequence) -> Poly:
    return tuple(-c for c in a)


def poly_scale(a: Sequence, s) -> Poly:
    if s == 0:
        return ()
    return tuple(c * s for c in a)


def poly_mul(a: Sequence, b: Sequence) -> Poly:
    if not a or not b:
        return ()
    out = [QZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb != 0:
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a: Sequence, b: Sequence) -> Tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [QZERO] * max(0, len(a) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quo[i - db] = f
        rem[i] = QZERO
        for j in range(db):
            rem[i - db + j] -= f * b[j]
    return poly_trim(quo), poly_trim(rem)


def poly_monic(a: Sequence) -> Poly:
    if not a:
        return ()
    lead = a[-1]
    if lead == 1:
        return tuple(a)
    return tuple(c / lead for c in a)


def poly_gcd(a: Sequence, b: Sequence) -> Poly:
    """Monic gcd via the Euclidean algorithm over Q."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_deriv(a: Sequence) -> Poly:
    return poly_trim([a[i] * i for i in range(1, len(a))])


def poly_eval(a: Sequence, x) -> Q:
    acc = QZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_squarefree(a: Sequence) -> Poly:
    """Square-free part a / gcd(a, a')."""
    g = poly_gcd(a, poly_deriv(a))
    if poly_deg(g) < 1:
        return poly_monic(a)
    q, _ = poly_divmod(a, g)
    return poly_monic(q)


def poly_compose_power(a: Sequence, s: int) -> Poly:
    """a(x**s): spread coefficients s apart."""
    if s < 1:
        raise ValueError("power must be >= 1")
    if not a:
        return ()
    out = [QZERO] * ((len(a) - 1) * s + 1)
    for i, c in enumerate(a):
        out[i * s] = c
    return poly_trim(out)


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

def sturm_chain(p: Sequence) -> Tuple[Poly, ...]:
    p = poly_trim(list(p))
    chain = [p, poly_deriv(p)]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_neg(r))
    return tuple(c for c in chain if c)


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[Poly], lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    va = _sign_variations([poly_eval(c, lo) for c in chain])
    vb = _sign_variations([poly_eval(c, hi) for c in chain])
    return va - vb


def count_real_roots(p: Sequence, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi]."""
    return sturm_count(sturm_chain(poly_squarefree(p)), lo, hi)


def root_bound(p: Sequence) -> Q:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = poly_trim(list(p))
    if poly_deg(p) < 1:
        return QONE
    lead = abs(p[-1])
    return QONE + max(abs(c) for c in p[:-1]) / lead


# ---------------------------------------------------------------------------
# Number fields.
# ---------------------------------------------------------------------------

class NumberField:
    """Q[x]/P(x) with an isolating interval selecting one real root of P.

    The defining polynomial is stored monic (arithmetic is unaffected).  The
    interval only ever shrinks; concurrent sign queries therefore agree.
    """

    def __init__(self, coeffs: Sequence, lo, hi, _checked: bool = False):
        p = poly([Q(c) for c in coeffs])
        if poly_deg(p) < 1:
            raise NoRootIsolated("defining polynomial must be nonconstant")
        lo, hi = Q(lo), Q(hi)
        if not lo < hi:
            raise NoRootIsolated("need lo < hi")
        self.poly: Poly = poly_monic(p)
        self.degree: int = poly_deg(self.poly)
        self.original_interval = (lo, hi)
        if not _checked:
            self._check_isolation(lo, hi)
        self._lo, self._hi = lo, hi
        self._sign_lo = 1 if poly_eval(self.poly, lo) > 0 else -1
        self._exact: Q | None = None
        if self.degree == 1:
            self._exact = -self.poly[0]
            self._lo = self._hi = self._exact
        # x^(degree+j) reduced mod poly, as sparse dicts, built on demand
        self._red_rows: list | None = None
        self._pow_lo: dict = {0: QONE, 1: self._lo}
        self._pow_hi: dict = {0: QONE, 1: self._hi}

    def _check_isolation(self, lo, hi):
        vlo, vhi = poly_eval(self.poly, lo), poly_eval(self.poly, hi)
        if vlo * vhi >= 0:
            raise NoRootIsolated(
                f"no sign change of {poly_to_string(self.poly)} on "
                f"({format_rational(lo)}, {format_rational(hi)})")
        g = poly_gcd(self.poly, poly_deriv(self.poly))
        if poly_deg(g) >= 1 and count_real_roots(g, lo, hi) >= 1:
            raise NotSquareFree(
                f"repeated root of {poly_to_string(self.poly)} in the interval")
        if count_real_roots(self.poly, lo, hi) != 1:
            raise NoRootIsolated("interval does not contain exactly one root")

    # -- interval refinement -------------------------------------------------

    def interval(self) -> Tuple[Q, Q]:
        return self._lo, self._hi

    def refine(self) -> None:
        """Halve the isolating interval, keeping alpha inside."""
        if self._exact is not None:
            return
        mid = (self._lo + self._hi) / 2
        v = poly_eval(self.poly, mid)
        if v == 0:
            self._exact = mid
            self._lo = self._hi = mid
        elif (1 if v > 0 else -1) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid
        self._pow_lo = {0: QONE, 1: self._lo}
        self._pow_hi = {0: QONE, 1: self._hi}

    def refine_to_width(self, width) -> Tuple[Q, Q]:
        width = Q(width)
        while self._hi - self._lo > width:
            self.refine()
        return self._lo, self._hi

    def _pow(self, cache, base, e):
        v = cache.get(e)
        if v is None:
            h = self._pow(cache, base, e // 2)
            v = h * h
            if e & 1:
                v *= base
            cache[e] = v
        return v

    def _monomial_interval(self, e: int) -> Tuple[Q, Q]:
        """Interval enclosing alpha**e (alpha may be of either sign)."""
        lo, hi = self._lo, self._hi
        plo = self._pow(self._pow_lo, lo, e)
        phi = self._pow(self._pow_hi, hi, e)
        if lo >= 0 or e % 2 == 1:
            return (plo, phi) if plo <= phi else (phi, plo)
        if hi <= 0:
            return (phi, plo) if phi <= plo else (plo, phi)
        return QZERO, max(plo, phi)  # interval straddles 0, even power

    def enclose(self, items) -> Tuple[Q, Q]:
        """Interval enclosing sum(c * alpha**e for e, c in items)."""
        lo = hi = QZERO
        for e, c in items:
            mlo, mhi = self._monomial_interval(e)
            if c >= 0:
                lo, hi = lo + c * mlo, hi + c * mhi
            else:
                lo, hi = lo + c * mhi, hi + c * mlo
        return lo, hi

    # -- reduction of powers >= degree ----------------------------------------

    def _reduction_rows(self):
        if self._red_rows is None:
            d = self.degree
            rows = []
            first = {e: -c for e, c in enumerate(self.poly[:-1]) if c != 0}
            rows.append(first)
            for _ in range(d - 2):
                prev = rows[-1]
                nxt: dict = {}
                for e, c in prev.items():
                    if e + 1 == d:
                        for e2, c2 in first.items():
                            v = nxt.get(e2, QZERO) + c * c2
                            if v == 0:
                                nxt.pop(e2, None)
                            else:
                                nxt[e2] = v
                    else:
                        v = nxt.get(e + 1, QZERO) + c
                        if v == 0:
                            nxt.pop(e + 1, None)
                        else:
                            nxt[e + 1] = v
                rows.append(nxt)
            self._red_rows = rows
        return self._red_rows

    def reduce_sparse(self, items: dict) -> dict:
        """Reduce a sparse exponent->coefficient dict mod the defining poly."""
        d = self.degree
        high = [(e, c) for e, c in items.items() if e >= d]
        if not high:
            return {e: c for e, c in items.items() if c != 0}
        out = {e: c for e, c in items.items() if e < d and c != 0}
        rows = self._reduction_rows()
        for e, c in high:
            for e2, c2 in rows[e - d].items():
                v = out.get(e2, QZERO) + c * c2
                if v == 0:
                    out.pop(e2, None)
                else:
                    out[e2] = v
        return out

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
        return (f"NumberField({poly_to_string(self.poly)} on "
                f"({format_rational(lo)}, {format_rational(hi)}))")

    def header(self) -> str:
        lo, hi = self.original_interval
        coeffs = ",".join(format_rational(c) for c in self.poly)
        return f"field: {coeffs} ; interval {format_rational(lo)} {format_rational(hi)}"

    # -- element constructors --------------------------------------------------

    def element(self, coeffs) -> "AlgebraicNumber":
        """Element from a low-to-high dense coefficient list (length <= degree)."""
        items = {e: Q(c) for e, c in enumerate(coeffs) if Q(c) != 0}
        return AlgebraicNumber(self, self.reduce_sparse(items))

    def alpha(self) -> "AlgebraicNumber":
        return self.element([0, 1])

    def from_rational(self, x) -> "AlgebraicNumber":
        return self.element([Q(x)])


def field_make(p: Sequence, lo, hi) -> NumberField:
    """Field whose alpha is the unique root of p in (lo, hi).

    Each call builds a fresh field, whose isolating interval starts at
    (lo, hi); equal fields from two calls still mix (see `_coerce`).
    """
    return NumberField(p, lo, hi)


def nthroot_field(x, n: int) -> NumberField:
    """Field for the positive real n-th root of a positive rational x."""
    x = Q(x)
    if x <= 0 or n < 1:
        raise NoRootIsolated("nthroot needs a positive radicand and n >= 1")
    p = [QZERO] * (n + 1)
    p[0], p[n] = -x, QONE
    lo, hi = QZERO, max(QONE, x) + 1
    while hi - lo > 1:  # shrink toward the root before isolating
        mid = (lo + hi) / 2
        if mid ** n < x:
            lo = mid
        elif mid ** n > x:
            hi = mid
        else:
            return field_make(p, mid - Q(1, 2), mid + Q(1, 2))
    return field_make(p, lo, hi)


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------

class AlgebraicNumber:
    """Immutable element of a NumberField, reduced mod the defining poly."""

    __slots__ = ("field", "_items", "_hash")

    def __init__(self, field: NumberField, items: dict):
        self.field = field
        self._items = tuple(sorted(items.items()))
        self._hash = None

    # -- views ----------------------------------------------------------------

    def items(self):
        return self._items

    def coeff_list(self) -> Tuple[Q, ...]:
        out = [QZERO] * self.field.degree
        for e, c in self._items:
            out[e] = c
        return poly_trim(out)

    def is_zero(self) -> bool:
        return not self._items

    def rational_value(self) -> Q | None:
        """The exact rational value, or None when irrational."""
        if not self._items:
            return QZERO
        if len(self._items) == 1 and self._items[0][0] == 0:
            return self._items[0][1]
        if self.field._exact is not None:
            return poly_eval(self.coeff_list(), self.field._exact)
        return None

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Q)):
            return AlgebraicNumber(self.field, {0: Q(other)} if other != 0 else {})
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self._items)
        for e, c in o._items:
            v = out.get(e, QZERO) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return AlgebraicNumber(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, {e: -c for e, c in self._items})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self._items or not o._items:
            return AlgebraicNumber(self.field, {})
        prod: dict = {}
        for e1, c1 in self._items:
            for e2, c2 in o._items:
                e = e1 + e2
                v = prod.get(e, QZERO) + c1 * c2
                if v == 0:
                    prod.pop(e, None)
                else:
                    prod[e] = v
        return AlgebraicNumber(self.field, self.field.reduce_sparse(prod))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        """Exact inverse via the extended Euclidean algorithm in Q[x]."""
        if not self._items:
            raise DivisionByZero("inverse of zero")
        a = list(self.coeff_list())
        p = list(self.field.poly)
        # extended Euclid: maintain r = s*a mod p (t-coefficients not needed)
        r0, s0 = tuple(p), ()
        r1, s1 = poly_trim(a), (QONE,)
        while True:
            if poly_deg(r1) == 0:
                inv = poly_scale(s1, QONE / r1[0])
                return self.field.element(inv)
            if not r1:
                raise NotInvertible(poly_monic(r0))
            q, r2 = poly_divmod(r0, r1)
            s2 = poly_sub(s0, poly_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, r2, s2

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
        acc = AlgebraicNumber(self.field, {0: QONE})
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- sign and comparisons -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign: gcd-based zero test, then interval refinement."""
        if not self._items:
            return 0
        f = self.field
        if f._exact is not None:
            v = poly_eval(self.coeff_list(), f._exact)
            return 0 if v == 0 else (1 if v > 0 else -1)
        zero_tested = False
        for _ in range(2):
            lo, hi = f.enclose(self._items)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            f.refine()
        while True:
            if not zero_tested:
                g = poly_gcd(self.coeff_list(), f.poly)
                if poly_deg(g) >= 1 and count_real_roots(g, f._lo, f._hi) >= 1:
                    return 0
                zero_tested = True
            lo, hi = f.enclose(self._items)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            f.refine()

    def __eq__(self, other):
        # equality of reduced representatives (the dedup contract); use
        # sign_of(a - b) for semantic equality of values
        if isinstance(other, AlgebraicNumber):
            return self.field == other.field and self._items == other._items
        if isinstance(other, (int, Q)):
            if other == 0:
                return not self._items
            return self._items == ((0, Q(other)),)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if len(self._items) <= 1 and (not self._items or self._items[0][0] == 0):
                self._hash = hash(self.rational_value())
            else:
                self._hash = hash((self.field, self._items))
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
    r = x.rational_value()
    if r is not None:
        return r, r
    f = x.field
    while True:
        lo, hi = f.enclose(x.items())
        if hi - lo <= width:
            return lo, hi
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

def parse_number(tok: str, field: NumberField | None = None):
    tok = tok.strip()
    if tok.startswith("poly(") and tok.endswith(")"):
        if field is None:
            raise ValueError("poly(...) literal needs an ambient field")
        coeffs = [parse_rational(c) for c in tok[5:-1].split(",")]
        return field.element(coeffs)
    return parse_rational(tok)


def format_number(x) -> str:
    if isinstance(x, AlgebraicNumber):
        r = x.rational_value()
        if r is not None and len(x._items) <= 1:
            return format_rational(r)
        coeffs = x.coeff_list()
        return "poly(" + ",".join(format_rational(c) for c in coeffs) + ")"
    return format_rational(x)


def parse_field_header(line: str) -> NumberField:
    body = line.split(":", 1)[1]
    try:
        coeff_part, iv_part = body.split(";")
        coeffs = [parse_rational(c) for c in coeff_part.split(",")]
        iv = iv_part.split()
        if iv[0] != "interval" or len(iv) != 3:
            raise ValueError
        lo, hi = parse_rational(iv[1]), parse_rational(iv[2])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed field header {line!r}") from exc
    return field_make(coeffs, lo, hi)
