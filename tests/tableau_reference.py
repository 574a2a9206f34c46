"""The full-tableau phase-1 membership LP, kept as a differential reference.

`treebound.geometry.lp_solve` is a revised simplex: it keeps only the scaled
basis inverse and prices the original columns.  This is the routine it
replaced, which runs the same integer-preserving pivots on every entry of
the (n+2) x (m+n+1) tableau, cost row included.  Both start from the same
crash basis, over Q and Q(alpha) alike, and make the same pivots, so they
must return the identical lambda tuple (`==`) on every query.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from treebound.geometry import Vec
from treebound.numeric import AlgebraicNumber, Q, QONE, QZERO, invert, sign_of


def lp_solve(x: Vec, X: Sequence[Vec]) -> Optional[Vec]:
    """lambda >= 0 with sum lambda = 1 and sum lambda_i X_i >= x, or None.

    Phase 1 of the simplex from the crash basis of `lp_solve`, over Q and
    Q(alpha) alike.  The pivots are integer-preserving (Edmonds 1967,
    Bareiss 1968): the tableau holds every entry times d, the last pivot,
    and each pivot divides exactly by the previous d.  A row whose entries all have rational values is scaled to
    ints by its lcm denominator, so it stays in ints with no gcd work; over
    Q(alpha) the same loop multiplies by one inverse of d per pivot.

    Pricing: while the whole tableau is in ints, the most negative reduced
    cost enters (Dantzig), lowest index on ties.  Bland's rule (lowest index
    with a negative reduced cost) prices a tableau with field entries, and
    any pivot after a degenerate one (pivot row rhs 0) until the next
    nondegenerate one.
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
        row = data[:-1] + [zero] * n + data[-1:]
        row[m + j] = -one
        rows.append(row)
    # lambda_k for the X_k short of x in the fewest rows, and the surplus of
    # each row X_k covers, that row negated so its pivot is 1
    k = min(range(m), key=lambda i: sum(not r[i] >= r[-1] for r in rows[1:]))
    covered = [j for j in range(1, n + 1) if rows[j][-1] <= rows[j][k]]
    for j in covered:
        rows[j] = [-a for a in rows[j]]
    basis = [width + i for i in range(n + 1)]   # artificials, never stored
    cost = [-sum(col) for col in zip(*rows)]    # phase-1 reduced costs, -w
    d = 1
    # the crash start `lp_solve` writes down, reached here by pivots on 1,
    # so d stays 1 and every artificial left in the basis is >= 0
    for leave, enter in [(0, k)] + [(j, m + j - 1) for j in covered]:
        prow = rows[leave]
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = _eliminate(row, prow, enter, d, d, all_int)
        cost = _eliminate(cost, prow, enter, d, d, all_int)
        basis[leave] = enter
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
