"""Exact dominated-convex-hull operations.

The certificate machinery asks one LP question: is x in conv_<=(X), the
downward closure of the convex hull of X inside the nonnegative orthant?
`lp_solve` answers it with a revised phase-1 simplex over any exact ordered
coefficient type (rationals or elements of one algebraic number field): it
keeps only the scaled basis inverse and the right-hand side, and prices the
original columns against it.  It starts from the single vector of X that
covers x in the most coordinates, a surplus in each row it covers.  On top
of it sit membership and the reduction of a vector set to a minimal subset
with the same dominated hull.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from operator import gt, le, mul
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch
from .numeric import AlgebraicNumber, QZERO, invert, sign_of

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
    """Componentwise u <= v (a field element compares by exact sign)."""
    return all(map(le, u, v))


def vec_is_nonnegative(u: Vec) -> bool:
    return all(sign_of(a) >= 0 for a in u)


# -- a vector set prepared for membership queries ------------------------------

def _rational(a):
    """The exact rational value of a, or None when it is irrational."""
    return a.rational_value() if isinstance(a, AlgebraicNumber) else a


class Hull:
    """A nonempty vector set X prepared once for many conv_<= queries.

    For each coordinate j whose entries all have rational values it keeps
    L_j, the lcm of their denominators, the int column X_ij * L_j and its
    maximum; `scales[j]` is None for a column holding an irrational field
    element.  The raw columns serve rows that hold a field element.  A query
    scales only its own coordinates against these (`lp_solve`), and the
    domination and escape tests of `member_dominated_hull` compare ints.
    The hull remembers the points shown inside it (`admit`): `rows` pairs
    the int rows of X, and then of each admitted rational point, with their
    points, so the domination test also settles any query that such a
    point dominates; any other admitted point is an exact key in `shown`.
    """

    __slots__ = ("vectors", "dim", "scales", "raw", "cols", "tops", "rows",
                 "admitted", "shown")

    def __init__(self, X: Sequence[Vec]):
        if not X:
            raise ValueError("X must be nonempty")
        self.vectors = tuple(X)
        self.dim = n = len(self.vectors[0])
        for v in self.vectors:
            if len(v) != n:
                raise DimensionMismatch(f"{len(v)}-dim vector in a {n}-dim hull")
        self.raw = list(zip(*self.vectors))
        self.scales, self.cols = [], []
        for col in self.raw:
            vals = [_rational(a) for a in col]
            if any(a is None for a in vals):
                self.scales.append(None)
                self.cols.append(None)
            else:
                scale = lcm(*(a.denominator for a in vals))
                self.scales.append(scale)
                self.cols.append([a.numerator * (scale // a.denominator)
                                  for a in vals])
        self._index()

    def _index(self):
        """Column maxima, and the int rows when every column is int."""
        self.tops = [None if c is None else max(c) for c in self.cols]
        self.rows = (None if None in self.scales
                     else list(zip(zip(*self.cols), self.vectors)))
        self.admitted = []
        self.shown = set()

    def admit(self, p: Vec):
        """Record p, already shown to lie in conv_<=(X), in `admitted`, so
        that a later query needs no LP.  On a hull of rationals, p's row
        floor(p_j L_j) settles every x <= p, which is inside too; there a
        row scan is cheap and hashing Fractions is not.  Otherwise p becomes
        an exact key, which settles p itself without the signs a domination
        test asks."""
        self.admitted.append(p)
        vals = None if self.rows is None else [_rational(a) for a in p]
        if vals is None or None in vals:
            self.shown.add(p)
        else:
            self.rows.append((tuple(v.numerator * scale // v.denominator
                                    for v, scale in zip(vals, self.scales)),
                              p))

    def subset(self, keep: Sequence[int]) -> "Hull":
        """The hull of the vectors numbered `keep`, sliced from this one,
        with nothing admitted: a point inside conv_<=(X) need not be inside
        the subset's.  The scales stay this set's: a common multiple of the
        subset's denominators, which changes no membership answer."""
        h = object.__new__(Hull)
        h.vectors = tuple(self.vectors[k] for k in keep)
        h.dim, h.scales = self.dim, self.scales
        h.raw = [tuple(c[k] for k in keep) for c in self.raw]
        h.cols = [None if c is None else [c[k] for k in keep]
                  for c in self.cols]
        h._index()
        return h


def _hull(x: Vec, X) -> Hull:
    """X as a Hull (a plain sequence is prepared here), checked against x."""
    hull = X if isinstance(X, Hull) else Hull(X)
    if len(x) != hull.dim:
        raise DimensionMismatch(
            f"{len(x)}-dim query of a {hull.dim}-dim hull")
    return hull


# -- conv_<= membership LP ---------------------------------------------------

def lp_solve(x: Vec, X) -> Optional[Vec]:
    """lambda >= 0 with sum lambda = 1 and sum lambda_i X_i >= x, or None.

    X is a `Hull` or a plain sequence of vectors, prepared here.

    Phase 1 of the revised simplex (Dantzig & Orchard-Hays 1954) on A z = b,
    z = (lambda, a surplus per coordinate).  Only [M | beta] is kept:
    M = d * B^-1, the basis inverse times d, the last pivot, and beta = M b.
    The pivots are integer-preserving (Edmonds 1967, Bareiss 1968): each
    divides exactly by the previous d.  A row of A whose entries all have
    rational values is scaled to ints by its lcm denominator, lcm(L_j,
    den x_j) from the hull's cached column; with every row so scaled,
    [M | beta] stays in ints with no gcd work, and over Q(alpha) the update
    multiplies by one inverse of d per pivot.

    Start: a crash basis (Bixby 1992) shaped to the question, over Q and
    Q(alpha) alike: lambda_k basic in row 0, X_k the vector short of x in
    the fewest coordinates (lowest index on ties), and in row j the surplus
    where X_kj >= x_j, else the artificial.  B is triangular with +-1 on
    its diagonal, so d = 1 and [M | beta] is written down: row j is
    s(e_j - A_jk e_0 | b_j - A_jk), s = -1 for a surplus and 1 for an
    artificial, both >= 0 in beta.  So lambda = e_k when X_k covers x, and
    a query that escapes the domination test starts a few pivots from
    feasible.

    Pricing: column j of A has the reduced cost -u.A_j (times d), u the sum
    of the rows of M whose basic variable is still artificial; a basic
    column's is 0 and is not computed, and surplus column j, -1 in row
    j + 1, costs u_{j+1}.  On all-int data the most negative one enters
    (Dantzig), lowest index on ties.  Bland's rule (the lowest index with a
    negative reduced cost) prices field data, and any pivot after a
    degenerate one (pivot row rhs 0) until the next nondegenerate one; a
    cycle is a run of degenerate pivots, and under Bland's rule no such run
    repeats a basis, so phase 1 terminates.
    """
    hull = _hull(x, X)
    m, n = len(hull.vectors), len(x)
    width = m + n                   # lambda columns, then one surplus each
    data, rhs = [], []              # rows 1..n of A and of b
    all_int = True                  # no field row: Dantzig pricing
    for a, scale, col, raw in zip(x, hull.scales, hull.cols, hull.raw):
        v = _rational(a)
        if scale is None or v is None:
            row, b = raw, a
            all_int = False
        else:
            full = lcm(scale, v.denominator)
            row = col if full == scale else list(map((full // scale).__mul__,
                                                      col))
            b = v.numerator * (full // v.denominator)
        data.append(row)
        rhs.append(b)
    # the crash start: lambda_k, then a surplus or an artificial a row; the
    # artificial of row j is width + j, and is never stored
    k = min(range(m), key=lambda i: sum(not row[i] >= b
                                        for row, b in zip(data, rhs)))
    inv_rhs, basis = [[1] + [0] * n + [1]], [k]
    for j, (row, b) in enumerate(zip(data, rhs), 1):
        r = b - row[k]
        s = -1 if r <= 0 else 1
        basis.append(m + j - 1 if s < 0 else width + j)
        line = [-s * row[k]] + [0] * n + [s * r]
        line[j] = s
        inv_rhs.append(line)
    cols = list(zip([1] * m, *data))    # the lambda columns of A
    d = 1
    bland = not all_int
    while True:
        art = [row for row, b in zip(inv_rhs, basis) if b >= width]
        u = [sum(c) for c in zip(*art)] or [0]  # u[-1] = w, the infeasibility
        if sign_of(u[-1]) == 0:
            break
        basic = set(basis)
        cost = chain((0 if i in basic else -sum(map(mul, u, a))
                      for i, a in enumerate(cols)), u[1:-1])
        if bland:
            enter = next((j for j, c in enumerate(cost) if sign_of(c) < 0), -1)
        else:
            cost = list(cost)
            low = min(cost)
            enter = cost.index(low) if low < 0 else -1
        if enter < 0:
            return None             # optimal with artificials left: infeasible
        if enter < m:
            a = cols[enter]
            t = [sum(map(mul, row, a)) for row in inv_rhs]  # M A_enter
        else:
            j = enter - m + 1       # -(column j of M)
            t = [-row[j] for row in inv_rhs]
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
    exactly; field rows take p/d and t_i/d, then two products an entry.  A
    row with t_i = 0 only rescales by p/d, and stays as it is when p = d."""
    prow, p = rows[leave], t[leave]
    if not ints:
        inv = invert(d)
        s = p * inv
    for i, f in enumerate(t):
        if i == leave:
            continue
        row = rows[i]
        if f == 0:                     # the row only rescales by p/d
            if p != d and ints:
                rows[i] = [p * a // d for a in row]
            elif p != d:
                rows[i] = [s * a for a in row]
        elif ints:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        else:
            g = f * inv
            rows[i] = [s * a - g * b for a, b in zip(row, prow)]
    basis[leave] = enter
    return p


# -- dominated convex hull -----------------------------------------------------

def member_dominated_hull(x: Vec, X) -> bool:
    """True iff exists lambda >= 0, sum lambda = 1, sum lambda_i X_i >= x.

    X is a nonempty `Hull` or sequence of nonnegative vectors; x must be
    nonnegative.  Two exact tests settle most queries without an LP: some
    X_i, or some point the hull has admitted, dominating x, and some x_j
    above every X_ij.  A hull admits each x that its LP shows inside, and
    on field data each x that it answers True.
    """
    hull = _hull(x, X)
    vals = [_rational(a) for a in x]
    if hull.rows is not None and all(v is not None for v in vals):
        # x_j <= X_ij iff ceil(x_j L_j) <= X_ij L_j, an int.  An admitted
        # row, floor(p_j L_j), can fail that test when x_j <= p_j, but not
        # floor(x_j L_j) <= it: a row that passes only the second is
        # compared exactly
        low = [v.numerator * scale // v.denominator
               for v, scale in zip(vals, hull.scales)]
        need = [-(-v.numerator * scale // v.denominator)
                for v, scale in zip(vals, hull.scales)]
        if any(map(gt, need, hull.tops)):
            return False
        if any(all(map(le, low, row))
               and (all(map(le, need, row)) or vec_leq(x, p))
               for row, p in hull.rows):
            return True
    else:
        # a field entry: a point shown inside before, else ask the signs,
        # which refine the field, in the same order as ever
        if x in hull.shown:
            return True
        if any(vec_leq(x, v) for v in hull.vectors):
            hull.admit(x)
            return True
        if not all(any(a <= b for b in col) for a, col in zip(x, hull.raw)):
            return False
    if lp_solve(x, hull) is None:
        return False
    hull.admit(x)
    return True


def hull_reduce(X: Sequence[Vec]) -> List[Vec]:
    """Minimal sublist X' (earliest occurrences kept) with conv_<=(X') = conv_<=(X).

    Candidates are processed in input order; each is dropped iff it lies in the
    dominated hull of the other remaining vectors (one LP per point at most),
    asked of a slice of one Hull of the deduplicated list.
    """
    if not X:
        raise ValueError("hull_reduce of an empty vector set")
    kept = list(dict.fromkeys(X))  # exact-representative dedup, earliest kept
    hull = Hull(kept)
    alive = list(range(len(kept)))
    i = 0
    while i < len(alive):
        others = alive[:i] + alive[i + 1:]
        if others and member_dominated_hull(kept[alive[i]],
                                            hull.subset(others)):
            del alive[i]
        else:
            i += 1
    return [kept[k] for k in alive]
