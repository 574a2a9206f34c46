"""Exact dominated-convex-hull operations.

The certificate machinery asks one LP question: is x in conv_<=(X), the
downward closure of the convex hull of X inside the nonnegative orthant?
`lp_solve` answers it with a phase-1 simplex over any exact ordered
coefficient type (rationals or elements of one algebraic number field).  On
top of it sit membership and the reduction of a vector set to a minimal
subset with the same dominated hull.
"""

from __future__ import annotations

from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch
from .numeric import AlgebraicNumber, Q, QONE, QZERO, invert, sign_of

Vec = Tuple  # coordinates: ints, Fractions or AlgebraicNumbers


# -- small vector helpers ----------------------------------------------------

def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u: Vec, s) -> Vec:
    return tuple(s * a for a in u)


def vec_dot(u: Vec, v: Vec):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of {len(u)}-dim and {len(v)}-dim vectors")
    acc = 0
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def vec_leq(u: Vec, v: Vec) -> bool:
    """Componentwise u <= v.  Rationals compare directly; only a field
    element needs the exact sign of the difference."""
    for a, b in zip(u, v):
        if isinstance(a, AlgebraicNumber) or isinstance(b, AlgebraicNumber):
            if sign_of(b - a) < 0:
                return False
        elif a > b:
            return False
    return True


def vec_is_nonnegative(u: Vec) -> bool:
    return all(sign_of(a) >= 0 for a in u)


# -- conv_<= membership LP ---------------------------------------------------

def lp_solve(x: Vec, X: Sequence[Vec]) -> Optional[Vec]:
    """lambda >= 0 with sum lambda = 1 and sum lambda_i X_i >= x, or None.

    Phase 1 of the simplex from the artificial basis.  The pivots are
    integer-preserving (Edmonds 1967, Bareiss 1968): the tableau holds every
    entry times d, the last pivot, and each pivot divides exactly by the
    previous d.  A row whose entries all have rational values is scaled to
    ints by its lcm denominator, so it stays in ints with no gcd work; over
    Q(alpha) the same loop multiplies by one inverse of d per pivot.

    Pricing: while the whole tableau is in ints, the most negative reduced
    cost enters (Dantzig), lowest index on ties.  Bland's rule (lowest index
    with a negative reduced cost) prices a tableau with field entries, and
    any pivot after a degenerate one (pivot row rhs 0) until the next
    nondegenerate one; a cycle is a run of degenerate pivots, and under
    Bland's rule no such run repeats a basis, so phase 1 terminates.
    """
    m, n = len(X), len(x)
    width = m + n                   # lambda columns, then one surplus each
    rows = [[1] * m + [0] * n + [1]]
    all_int = True                  # no field row: Dantzig pricing
    for j in range(n):
        data = [v[j] for v in X] + [x[j]]
        vals = [a.rational_value() if isinstance(a, AlgebraicNumber) else a
                for a in data]
        if any(a is None for a in vals):
            # no int in a field row: a row is all ints or has none
            data, one, zero = [a if isinstance(a, AlgebraicNumber) else Q(a)
                               for a in data], QONE, QZERO
            all_int = False
        else:
            scale = lcm(*(a.denominator for a in vals))
            data, one, zero = [a.numerator * (scale // a.denominator)
                               for a in vals], 1, 0
        if sign_of(data[-1]) < 0:  # rhs >= 0 for the artificial basis
            data, one = [-a for a in data], -one
        row = data[:-1] + [zero] * n + data[-1:]
        row[m + j] = -one
        rows.append(row)
    basis = [width + i for i in range(n + 1)]   # artificials, never stored
    cost = [-sum(col) for col in zip(*rows)]    # phase-1 reduced costs, -w
    d = 1
    bland = not all_int
    while sign_of(cost[-1]) != 0:
        if bland:
            enter = next((j for j in range(width) if sign_of(cost[j]) < 0), -1)
        else:
            low = min(cost[:width])
            enter = cost.index(low) if low < 0 else -1
        if enter < 0:
            return None             # optimal with artificials left: infeasible
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if sign_of(a) <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            la, lb = rows[leave][enter], rows[leave][-1]
            s = sign_of(row[-1] * la - lb * a)
            if s < 0 or (s == 0 and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise ArithmeticError("phase 1 cannot be unbounded")
        prow = rows[leave]
        p = prow[enter]
        bland = not all_int or sign_of(prow[-1]) == 0
        ints = type(p) is int and type(d) is int
        inv = invert(d)
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = _eliminate(row, prow, enter, d, inv, ints)
        cost = _eliminate(cost, prow, enter, d, inv, ints)
        basis[leave] = enter
        d = p
    lam = [QZERO] * m
    inv = invert(d)
    for i, b in enumerate(basis):
        if b < m:
            lam[b] = rows[i][-1] * inv
    return tuple(lam)


def _eliminate(row, prow, c, d, inv, ints):
    """(p*row - f*prow) / d for p = prow[c], f = row[c], exactly.

    The quotient is a minor of the scaled data, so an all-int row divides
    exactly; any other row takes p/d and f/d once, then two products an entry.
    """
    p, f = prow[c], row[c]
    if ints and type(f) is int:
        return [(p * a - f * b) // d for a, b in zip(row, prow)]
    if f == 0:
        if p == d:
            return row
        s = p * inv
        return [s * a for a in row]
    s, t = p * inv, f * inv
    return [s * a - t * b for a, b in zip(row, prow)]


# -- dominated convex hull -----------------------------------------------------

def member_dominated_hull(x: Vec, X: Sequence[Vec]) -> bool:
    """True iff exists lambda >= 0, sum lambda = 1, sum lambda_i X_i >= x.

    X must be nonempty with nonnegative vectors; x must be nonnegative.
    """
    if not X:
        raise ValueError("X must be nonempty")
    n = len(x)
    for v in X:
        if len(v) != n:
            raise DimensionMismatch(f"{len(v)}-dim vector in {n}-dim hull query")
    # single-vector domination settles most queries without an LP
    for v in X:
        if vec_leq(x, v):
            return True
    # so does a coordinate above every X_ij: no combination reaches it
    for j, a in enumerate(x):
        if not any(vec_leq((a,), (v[j],)) for v in X):
            return False
    return lp_solve(x, X) is not None


def hull_reduce(X: Sequence[Vec]) -> List[Vec]:
    """Minimal sublist X' (earliest occurrences kept) with conv_<=(X') = conv_<=(X).

    Candidates are processed in input order; each is dropped iff it lies in the
    dominated hull of the other remaining vectors (one LP per point).
    """
    if not X:
        raise ValueError("hull_reduce of an empty vector set")
    kept: List[Vec] = []
    seen = set()
    for v in X:  # exact-representative dedup, earliest kept
        if v not in seen:
            seen.add(v)
            kept.append(v)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if others and member_dominated_hull(kept[i], others):
            del kept[i]
        else:
            i += 1
    return kept
