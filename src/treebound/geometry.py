"""Exact dominated-convex-hull operations.

The certificate machinery asks one LP question: is x in conv_<=(X), the
downward closure of the convex hull of X inside the nonnegative orthant?
`lp_solve` answers it with a revised phase-1 simplex over any exact ordered
coefficient type (rationals or elements of one algebraic number field): it
keeps only the scaled basis inverse and the right-hand side, and prices the
original columns against it.  On top of it sit membership and the reduction
of a vector set to a minimal subset with the same dominated hull.
"""

from __future__ import annotations

from math import lcm
from operator import mul
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

    Phase 1 of the revised simplex (Dantzig & Orchard-Hays 1954) on A z = b,
    z = (lambda, a surplus per coordinate), from the artificial basis.  Only
    [M | beta] is kept: M = d * B^-1, the basis inverse times d, the last
    pivot, and beta = M b.  The pivots are integer-preserving (Edmonds 1967,
    Bareiss 1968): each divides exactly by the previous d.  A row of A whose
    entries all have rational values is scaled to ints by its lcm
    denominator; with every row so scaled, [M | beta] stays in ints with no
    gcd work, and over Q(alpha) the update multiplies by one inverse of d
    per pivot.

    Pricing: column j of A has the reduced cost -u.A_j (times d), u the sum
    of the rows of M whose basic variable is still artificial.  On all-int
    data the most negative one enters (Dantzig), lowest index on ties.
    Bland's rule (the lowest index with a negative reduced cost) prices field
    data, and any pivot after a degenerate one (pivot row rhs 0) until the
    next nondegenerate one; a cycle is a run of degenerate pivots, and under
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
    cols = list(zip(*rows))[:width]  # A by columns
    # [M | beta], from the artificial basis: M = I, beta = b
    inv_rhs = [[int(i == k) for k in range(n + 1)] + row[-1:]
               for i, row in enumerate(rows)]
    basis = [width + i for i in range(n + 1)]   # artificials, never stored
    d = 1
    bland = not all_int
    while True:
        art = [row for row, b in zip(inv_rhs, basis) if b >= width]
        u = [sum(c) for c in zip(*art)] or [0]  # u[-1] = w, the infeasibility
        if sign_of(u[-1]) == 0:
            break
        cost = (-sum(map(mul, u, a)) for a in cols)
        if bland:
            enter = next((j for j, c in enumerate(cost) if sign_of(c) < 0), -1)
        else:
            cost = list(cost)
            low = min(cost)
            enter = cost.index(low) if low < 0 else -1
        if enter < 0:
            return None             # optimal with artificials left: infeasible
        a = cols[enter]
        t = [sum(map(mul, row, a)) for row in inv_rhs]  # M A_enter
        leave = -1
        for i, (ti, row) in enumerate(zip(t, inv_rhs)):
            if sign_of(ti) <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            s = sign_of(row[-1] * t[leave] - inv_rhs[leave][-1] * ti)
            if s < 0 or (s == 0 and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise ArithmeticError("phase 1 cannot be unbounded")
        bland = not all_int or sign_of(inv_rhs[leave][-1]) == 0
        d = _pivot(inv_rhs, basis, t, leave, enter, d, all_int)
    lam = [QZERO] * m
    inv = invert(d)
    for row, b in zip(inv_rhs, basis):
        if b < m:
            lam[b] = row[-1] * inv
    return tuple(lam)


def _pivot(rows, basis, t, leave, enter, d, ints):
    """Make column `enter` of A, t = M A_enter, basic in row `leave`: each
    other row r of [M | beta] becomes (p*r - t_i*prow) / d for p = t[leave],
    the new d.  The quotient is a minor of the data, so int rows divide
    exactly; field rows take p/d and t_i/d, then two products an entry."""
    prow, p = rows[leave], t[leave]
    if not ints:
        inv = invert(d)
        s = p * inv
    for i, f in enumerate(t):
        if i == leave:
            continue
        row = rows[i]
        if ints:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        elif f == 0:
            if p != d:
                rows[i] = [s * a for a in row]
        else:
            g = f * inv
            rows[i] = [s * a - g * b for a, b in zip(row, prow)]
    basis[leave] = enter
    return p


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
