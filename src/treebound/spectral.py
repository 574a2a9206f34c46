"""Lower bounds from periodic constructions: gadgets, transfer matrices,
characteristic polynomials, and largest-real-root isolation.

A gadget is an expression over B and V0 with one recursion hole; because the
hole occurs once, plugging vectors into it is a linear map whose matrix M we
extract column by column.  The growth rate of the periodic construction is
the dominant eigenvalue of M, and consuming ``gadget_size`` tree vertices per
iteration turns it into the bound (largest real root)^(1/gadget_size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    MultipleHoles,
    NegativeEntry,
    NoRealRoot,
    ParseError,
)
from .numeric import (
    NumberField,
    Poly,
    Q,
    QONE,
    QZERO,
    decimal_str,
    poly,
    poly_compose_power,
    poly_deg,
    poly_eval,
    poly_squarefree,
    poly_to_string,
    poly_trim,
    root_bound,
    sign_of,
    sturm_chain,
    sturm_count,
)
from .system import BilinearSystem, apply

# Gadget expressions: 'V0' | 'HOLE' | ('vec', Vec) | ('B', g1, g2)
Gadget = object


def count_holes(g: Gadget) -> int:
    if g == "HOLE":
        return 1
    if isinstance(g, tuple) and g and g[0] == "B":
        return count_holes(g[1]) + count_holes(g[2])
    return 0


def eval_gadget(s: BilinearSystem, g: Gadget, hole_value=None):
    """Fold apply over the expression; hole_value fills HOLE when present."""
    if g == "V0":
        return s.v0
    if g == "HOLE":
        if hole_value is None:
            raise MultipleHoles("expression has a hole but no value was given")
        return hole_value
    if isinstance(g, tuple) and g and g[0] == "vec":
        if len(g[1]) != s.dim:
            raise DimensionMismatch("named vector has the wrong dimension")
        return g[1]
    if isinstance(g, tuple) and g and g[0] == "B":
        return apply(s, eval_gadget(s, g[1], hole_value),
                     eval_gadget(s, g[2], hole_value))
    raise ValueError(f"bad gadget node {g!r}")


@dataclass(frozen=True)
class SquareMatrix:
    entries: Tuple[Tuple, ...]  # row-major

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Tuple:
        return self.entries[i]

    def col(self, j: int) -> Tuple:
        return tuple(r[j] for r in self.entries)

    def mul_vec(self, v):
        return tuple(sum((a * b for a, b in zip(r, v)), QZERO)
                     for r in self.entries)


def transfer_matrix(s: BilinearSystem, g: Gadget) -> SquareMatrix:
    """M with M e_i = gadget evaluated with the hole replaced by e_i."""
    holes = count_holes(g)
    if holes != 1:
        raise MultipleHoles(f"gadget has {holes} holes, need exactly 1")
    cols = []
    for i in range(s.dim):
        e = tuple(QONE if j == i else QZERO for j in range(s.dim))
        cols.append(eval_gadget(s, g, hole_value=e))
    return SquareMatrix(tuple(tuple(cols[j][i] for j in range(s.dim))
                              for i in range(s.dim)))


def char_poly(m: SquareMatrix) -> Poly:
    """det(M - xI), exact, by the division-free Berkowitz algorithm.

    Coefficients low-to-high; for the identity this gives (1-x)^n.
    """
    n = m.n
    # Berkowitz: iteratively build the coefficient vector of det(xI - M)
    vec = (QONE,)  # char poly of the empty matrix, as a column of coefficients
    for k in range(1, n + 1):
        a = m.entries[n - k][n - k]
        row = m.entries[n - k][n - k + 1:]  # R: 1 x (k-1)
        col = tuple(m.entries[i][n - k] for i in range(n - k + 1, n))  # C
        sub = [r[n - k + 1:] for r in m.entries[n - k + 1:]]  # (k-1)^2 minor
        # Toeplitz column: [1, -a, -R C, -R A C, -R A^2 C, ...]
        toep = [QONE, -a]
        cur = col
        for _ in range(k - 1):
            toep.append(-sum((x * y for x, y in zip(row, cur)), QZERO))
            cur = tuple(sum((sub[i][j] * cur[j] for j in range(len(cur))), QZERO)
                        for i in range(len(cur)))
        new = [QZERO] * (k + 1)
        for i in range(k + 1):
            for j in range(len(vec)):
                if i - j >= 0 and i - j < len(toep):
                    new[i] += toep[i - j] * vec[j]
        vec = tuple(new)
    # vec holds det(xI - M) high-to-low; flip and convert to det(M - xI)
    monic = tuple(reversed(vec))
    if n % 2 == 1:
        monic = tuple(-c for c in monic)
    return poly_trim(monic)


# -- real root isolation ----------------------------------------------------------


def largest_real_root(p: Sequence, precision) -> Tuple[NumberField, Tuple[Q, Q]]:
    """Isolate the largest real root of p to the requested interval width.

    Returns a NumberField anchored at that root (defining polynomial: the
    square-free part of p) together with the isolating interval.
    """
    p = poly(p)
    if poly_deg(p) < 1:
        raise NoRealRoot("polynomial is constant")
    sf = poly_squarefree(p)
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    lo, hi = -bound, bound
    total = sturm_count(chain, lo, hi)
    if total == 0:
        raise NoRealRoot(poly_to_string(p))

    def nonroot_between(a, b):
        m = (a + b) / 2
        while poly_eval(sf, m) == 0:  # never bisect exactly on a root
            m = (m + b) / 2
        return m

    # keep the upper part while it still contains a root
    while sturm_count(chain, lo, hi) > 1:
        mid = nonroot_between(lo, hi)
        if sturm_count(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    # exactly one simple root strictly inside: refine by sign bisection
    precision = Q(precision)
    sign_lo = sign_of(poly_eval(sf, lo))
    while hi - lo > precision:
        mid = nonroot_between(lo, hi)
        if sign_of(poly_eval(sf, mid)) == sign_lo:
            lo = mid
        else:
            hi = mid
    field = NumberField(sf, lo, hi, _checked=True)
    return field, (lo, hi)


# -- primitivity and the lower bound ------------------------------------------------


def _positivity_pattern(m: SquareMatrix) -> List[List[bool]]:
    return [[sign_of(e) > 0 for e in row] for row in m.entries]


def is_primitive(m: SquareMatrix) -> bool:
    """Some power of M is entrywise positive (checked up to Wielandt's bound)."""
    n = m.n
    pat = _positivity_pattern(m)
    cur = pat
    limit = (n - 1) * (n - 1) + 1
    for _ in range(limit):
        if all(all(row) for row in cur):
            return True
        cur = [[any(cur[i][k] and pat[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    return all(all(row) for row in cur)


def _drop_dead_indices(m: SquareMatrix) -> SquareMatrix:
    """Iteratively remove coordinates with an all-zero row or column.

    Such coordinates never carry mass asymptotically; removing them only
    strips x factors from the characteristic polynomial, so the largest
    positive real root is unchanged.
    """
    keep = list(range(m.n))
    entries = [list(r) for r in m.entries]
    changed = True
    while changed and keep:
        changed = False
        for pos in range(len(keep) - 1, -1, -1):
            row_zero = all(sign_of(entries[pos][j]) == 0 for j in range(len(keep)))
            col_zero = all(sign_of(entries[i][pos]) == 0 for i in range(len(keep)))
            if row_zero or col_zero:
                del keep[pos]
                entries = [r[:pos] + r[pos + 1:]
                           for k, r in enumerate(entries) if k != pos]
                changed = True
    return SquareMatrix(tuple(tuple(r) for r in entries))


@dataclass(frozen=True)
class LowerBound:
    """Growth lower bound beta with its provenance."""

    field: NumberField            # beta as the root of char_poly(M)(x^size)
    interval: Tuple[Q, Q]
    gadget_size: int
    char: Poly                    # characteristic polynomial of M
    matrix: SquareMatrix
    dominance_verified: bool      # primitivity check on the live part of M

    def decimal(self, digits: int = 6) -> str:
        return decimal_str(self.field.alpha(), digits)


def _isolate_power_root(lam_field: NumberField, s: int, precision
                        ) -> Tuple[Q, Q]:
    """Width-`precision` bracket (ba, bb) of lambda**(1/s), where lam_field
    isolates lambda in (la, lb) with la > 0.

    Bisects t -> t**s against (la, lb), keeping ba**s <= la and bb**s >= lb.
    Both stay true as refinement narrows (la, lb), so after a refinement the
    bisection goes on from the bracket it had reached.
    """
    precision = Q(precision)
    la, lb = lam_field.interval()
    ba, bb = QZERO, max(QONE, lb) + 1
    while bb - ba > precision:
        mid = (ba + bb) / 2
        ms = mid ** s
        if ms <= la:
            ba = mid
        elif ms >= lb:
            bb = mid
        else:
            lam_field.refine()
            la, lb = lam_field.interval()
    return ba, bb


def lower_bound(s: BilinearSystem, g: Gadget, gadget_size: int,
                precision=Q(1, 10 ** 30)) -> LowerBound:
    """beta = (largest real root of char_poly(transfer_matrix))^(1/gadget_size)."""
    if gadget_size < 1:
        raise ValueError("gadget_size must be positive")
    return lower_bound_from_matrix(transfer_matrix(s, g), gadget_size,
                                   precision)


def lower_bound_from_matrix(m: SquareMatrix, gadget_size: int,
                            precision=Q(1, 10 ** 30)) -> LowerBound:
    for row in m.entries:
        for e in row:
            if sign_of(e) < 0:
                raise NegativeEntry(f"negative transfer-matrix entry {e}")
    p = char_poly(m)
    core = _drop_dead_indices(m)
    primitive = core.n > 0 and is_primitive(core)
    # strip roots at 0, then the square-free part; composing with x**size
    # keeps it square-free because all remaining roots are nonzero
    shift = 0
    q = list(p)
    while q and q[0] == 0:
        q.pop(0)
        shift += 1
    if not q:
        raise NoRealRoot("characteristic polynomial is a power of x")
    qsf = poly_squarefree(q)
    lam_field, _ = largest_real_root(qsf, Q(1, 10 ** 9))
    while True:  # the bound only makes sense for a positive dominant root
        la, lb = lam_field.interval()
        if la > 0:
            break
        if lb < 0:
            raise NoRealRoot("largest real eigenvalue is not positive")
        lam_field.refine()
    ba, bb = _isolate_power_root(lam_field, gadget_size, precision)
    composed = poly_compose_power(qsf, gadget_size)
    # (ba, bb) isolates beta inside composed: the real roots of composed are
    # the real gadget_size-th roots of qsf's real roots, and every other one
    # is separated from (ba, bb) because lambda is the largest root and the
    # bracket was built against lambda's own isolating interval.  Verify the
    # separation explicitly so the field construction stays checked.
    _verify_isolation(qsf, lam_field, gadget_size, ba, bb)
    field = NumberField(composed, ba, bb, _checked=True)
    return LowerBound(field, (ba, bb), gadget_size, p, m, primitive)


def _verify_isolation(q: Poly, lam_field: NumberField, s: int, ba: Q, bb: Q):
    """Check (ba, bb) isolates the s-th root of lambda inside q(x**s).

    Every t in (ba, bb) is nonnegative (ba >= 0 by construction), so a root
    of q(x**s) there satisfies t**s in (ba**s, bb**s); it suffices that q's
    only real root in that range is lambda itself.
    """
    if ba < 0:
        raise AssertionError("power-root bracket must be nonnegative")
    chain = sturm_chain(q)
    las, lbs = ba ** s, bb ** s
    inside = sturm_count(chain, las, lbs)
    la, lb = lam_field.interval()
    if not (inside == 1 and las <= la and lb <= lbs):
        raise AssertionError("power-root bracket failed its isolation check")


# -- gadget file format ---------------------------------------------------------
#   optional definitions ``name = expr``; the last plain line is the gadget.
#   expr := V0 | HOLE | name | B(expr, expr)


def parse_gadget(text: str) -> Gadget:
    defs: dict = {}
    last: Optional[Gadget] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            name, expr = line.split("=", 1)
            name = name.strip()
            if name in ("V0", "HOLE", "B") or not name.isidentifier():
                raise ParseError(f"bad definition name {name!r}", ln)
            defs[name] = _parse_expr(expr.strip(), defs, ln)
        else:
            last = _parse_expr(line, defs, ln)
    if last is None:
        raise ParseError("gadget file has no expression line")
    return last


def _parse_expr(s: str, defs: dict, ln: int) -> Gadget:
    expr, rest = _parse_prefix(s, defs, ln)
    if rest.strip():
        raise ParseError(f"trailing input {rest!r}", ln)
    return expr


def _parse_prefix(s: str, defs: dict, ln: int):
    s = s.lstrip()
    if s.startswith("B(") or s.startswith("B ("):
        body = s[s.index("(") + 1:]
        left, rest = _parse_prefix(body, defs, ln)
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ParseError("expected ',' in B(.,.)", ln)
        right, rest = _parse_prefix(rest[1:], defs, ln)
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ParseError("expected ')' in B(.,.)", ln)
        return ("B", left, right), rest[1:]
    for stop in range(len(s)):
        if s[stop] in ",()":
            name, rest = s[:stop], s[stop:]
            break
    else:
        name, rest = s, ""
    name = name.strip()
    if name == "V0" or name == "HOLE":
        return name, rest
    if name in defs:
        return defs[name], rest
    raise ParseError(f"unknown gadget symbol {name!r}", ln)


def load_gadget(path) -> Gadget:
    from pathlib import Path
    return parse_gadget(Path(path).read_text())
