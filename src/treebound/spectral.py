"""Lower bounds from periodic constructions: gadgets, transfer matrices and
characteristic polynomials.

A gadget is a B-expression (an `automaton.Shape`) with one recursion hole;
because the hole occurs once, plugging vectors into it with `fold_shape` is a
linear map whose matrix M we extract column by column.  The growth rate of
the periodic construction is the dominant eigenvalue of M, and consuming
``gadget_size`` tree vertices per iteration turns it into the bound
(largest real root)^(1/gadget_size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .automaton import Shape, fold_shape
from .errors import (
    MultipleHoles,
    NegativeEntry,
    NoRealRoot,
    ParseError,
)
from .numeric import (
    Directives,
    NumberField,
    Poly,
    Q,
    QONE,
    QZERO,
    decimal_str,
    largest_real_root,
    poly_trim,
    power_root_field,
    read_text,
    sign_of,
)
from .system import BilinearSystem

BRACKET_WIDTH = Q(1, 10 ** 30)   # of the isolating interval of a lower bound


def count_holes(g: Shape) -> int:
    if g == "HOLE":
        return 1
    if isinstance(g, tuple):
        return count_holes(g[0]) + count_holes(g[1])
    return 0


@dataclass(frozen=True)
class SquareMatrix:
    entries: Tuple[Tuple, ...]  # row-major

    @property
    def n(self) -> int:
        return len(self.entries)


def transfer_matrix(s: BilinearSystem, g: Shape) -> SquareMatrix:
    """M with M e_i = gadget evaluated with the hole replaced by e_i."""
    holes = count_holes(g)
    if holes != 1:
        raise MultipleHoles(f"gadget has {holes} holes, need exactly 1")
    cols = []
    for i in range(s.dim):
        e = tuple(QONE if j == i else QZERO for j in range(s.dim))
        cols.append(fold_shape(s, g, e))
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
    entries = [list(r) for r in m.entries]
    changed = True
    while changed and entries:
        changed = False
        for pos in range(len(entries) - 1, -1, -1):
            row_zero = all(sign_of(a) == 0 for a in entries[pos])
            col_zero = all(sign_of(r[pos]) == 0 for r in entries)
            if row_zero or col_zero:
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


def lower_bound(s: BilinearSystem, g: Shape, gadget_size: int) -> LowerBound:
    """beta = (largest real root of char_poly(transfer_matrix))^(1/gadget_size)."""
    if gadget_size < 1:
        raise ValueError("gadget_size must be positive")
    return lower_bound_from_matrix(transfer_matrix(s, g), gadget_size)


def lower_bound_from_matrix(m: SquareMatrix, gadget_size: int) -> LowerBound:
    for row in m.entries:
        for e in row:
            if sign_of(e) < 0:
                raise NegativeEntry(f"negative transfer-matrix entry {e}")
    p = char_poly(m)
    core = _drop_dead_indices(m)
    primitive = core.n > 0 and is_primitive(core)
    q = list(p)  # strip the roots at 0, so q(x**size) stays square-free
    while q and q[0] == 0:
        q.pop(0)
    if not q:
        raise NoRealRoot("characteristic polynomial is a power of x")
    lam, _ = largest_real_root(q, Q(1, 10 ** 9))
    field = power_root_field(lam, gadget_size, BRACKET_WIDTH)
    return LowerBound(field, field.original_interval, gadget_size, p, m,
                      primitive)


# -- gadget file format ---------------------------------------------------------
#   optional definitions ``name = expr``; the last plain line is the gadget.
#   expr := V0 | HOLE | name | B(expr, expr), read into a Shape


def parse_gadget(text: str) -> Shape:
    defs: dict = {}
    last: Shape = None
    found = False                      # V0 parses to None, so track the line
    with Directives(text) as lines:
        for line in lines:
            if "=" in line:
                name, expr = line.split("=", 1)
                name = name.strip()
                if name in ("V0", "HOLE", "B") or not name.isidentifier():
                    raise ParseError(f"bad definition name {name!r}")
                defs[name] = _parse_expr(expr.strip(), defs)
            else:
                last, found = _parse_expr(line, defs), True
    if not found:
        raise ParseError("gadget file has no expression line")
    return last


def _parse_expr(s: str, defs: dict) -> Shape:
    expr, rest = _parse_prefix(s, defs)
    if rest.strip():
        raise ParseError(f"trailing input {rest!r}")
    return expr


def _parse_prefix(s: str, defs: dict):
    s = s.lstrip()
    if s.startswith("B(") or s.startswith("B ("):
        body = s[s.index("(") + 1:]
        left, rest = _parse_prefix(body, defs)
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ParseError("expected ',' in B(.,.)")
        right, rest = _parse_prefix(rest[1:], defs)
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ParseError("expected ')' in B(.,.)")
        return (left, right), rest[1:]
    for stop in range(len(s)):
        if s[stop] in ",()":
            name, rest = s[:stop], s[stop:]
            break
    else:
        name, rest = s, ""
    name = name.strip()
    if name == "V0":
        return None, rest
    if name == "HOLE":
        return name, rest
    if name in defs:
        return defs[name], rest
    raise ParseError(f"unknown gadget symbol {name!r}")


def load_gadget(path) -> Shape:
    return parse_gadget(read_text(path))
