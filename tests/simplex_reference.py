"""Reference simplex for differential tests of `treebound.geometry.lp_solve`.

A general exact two-phase simplex (Bland's rule) over any ordered exact
coefficient type: min/max objectives, '<=', '=' and '>=' rows, unbounded and
infeasible outcomes.  `reference_member` asks it the single question the
package's phase-1 routine answers, so the two can be compared, and
`reference_lambda` returns the weights that answer it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from treebound.errors import DimensionMismatch
from treebound.geometry import Vec
from treebound.numeric import QONE, QZERO, invert, sign_of


# -- LP problems --------------------------------------------------------------

@dataclass(frozen=True)
class LPProblem:
    """min/max objective . x  s.t.  rows[i] . x  (sense_i)  rhs[i],  x >= 0."""

    rows: Tuple[Vec, ...]
    senses: Tuple[str, ...]  # '<=', '=', '>='
    rhs: Tuple
    objective: Vec
    direction: str  # 'max' or 'min'

    def __post_init__(self):
        n = len(self.objective)
        if not all(len(r) == n for r in self.rows):
            raise DimensionMismatch("constraint row width differs from objective")
        if len(self.rows) != len(self.senses) or len(self.rows) != len(self.rhs):
            raise DimensionMismatch("rows, senses and rhs lengths differ")
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction {self.direction!r}")
        if any(s not in ("<=", "=", ">=") for s in self.senses):
            raise ValueError("senses must be '<=', '=' or '>='")


@dataclass(frozen=True)
class LPResult:
    status: str  # 'optimal', 'infeasible', 'unbounded'
    value: Optional[object] = None
    point: Optional[Vec] = None


def _ratio_less(b1, a1, b2, a2) -> bool:
    """b1/a1 < b2/a2 for a1, a2 > 0."""
    return sign_of(b1 * a2 - b2 * a1) < 0


class _Tableau:
    """Dense simplex tableau with Bland's rule (guaranteed termination)."""

    def __init__(self, rows, basis, cost):
        self.rows = rows      # each: [coeffs..., rhs]
        self.basis = basis    # basic variable index per row
        self.cost = cost      # reduced-cost row: [coeffs..., -objective_value]

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        inv = invert(row[c])
        self.rows[r] = row = [v * inv for v in row]
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other[c]
            if sign_of(f) != 0:
                self.rows[i] = [v - f * w for v, w in zip(other, row)]
        f = self.cost[c]
        if sign_of(f) != 0:
            self.cost = [v - f * w for v, w in zip(self.cost, row)]
        self.basis[r] = c

    def run(self, ncols: int) -> str:
        """Minimize; returns 'optimal' or 'unbounded'."""
        while True:
            enter = -1
            for j in range(ncols):
                if sign_of(self.cost[j]) < 0:  # Bland: first improving column
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave, lb, la = -1, None, None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if sign_of(a) <= 0:
                    continue
                b = row[-1]
                if leave < 0 or _ratio_less(b, a, lb, la) or (
                        not _ratio_less(lb, la, b, a)
                        and self.basis[i] < self.basis[leave]):
                    leave, lb, la = i, b, a
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def lp_solve(p: LPProblem) -> LPResult:
    """Exact two-phase simplex over the ordered field of the problem data."""
    n = len(p.objective)
    rows, senses, rhs = [list(r) for r in p.rows], list(p.senses), list(p.rhs)
    for i in range(len(rows)):
        if sign_of(rhs[i]) < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    nslack = sum(1 for s in senses if s == "<=")
    nsurp = sum(1 for s in senses if s == ">=")
    nart = sum(1 for s in senses if s in (">=", "="))
    width = n + nslack + nsurp + nart
    tab_rows, basis = [], []
    si, pi, ai = n, n + nslack, n + nslack + nsurp
    art_cols = []
    for i, row in enumerate(rows):
        full = list(row) + [QZERO] * (width - n) + [rhs[i]]
        if senses[i] == "<=":
            full[si] = QONE
            basis.append(si)
            si += 1
        elif senses[i] == ">=":
            full[pi] = -QONE
            full[ai] = QONE
            basis.append(ai)
            art_cols.append(ai)
            pi += 1
            ai += 1
        else:
            full[ai] = QONE
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        tab_rows.append(full)

    # phase 1: minimize the sum of artificials
    cost = [QZERO] * (width + 1)
    for c in art_cols:
        cost[c] = QONE
    tab = _Tableau(tab_rows, basis, cost)
    for i, b in enumerate(tab.basis):
        if b in art_cols:
            f = tab.cost[b]
            if sign_of(f) != 0:
                tab.cost = [v - f * w for v, w in zip(tab.cost, tab.rows[i])]
    if art_cols:
        tab.run(width)
        if sign_of(tab.cost[-1]) != 0:  # -objective != 0 => sum of arts > 0
            return LPResult("infeasible")
        art_set = set(art_cols)
        keep = []
        for i in range(len(tab.rows)):
            if tab.basis[i] in art_set:
                # degenerate: swap the artificial out, or drop a redundant row
                for j in range(n + nslack + nsurp):
                    if sign_of(tab.rows[i][j]) != 0:
                        tab.pivot(i, j)
                        break
                else:
                    continue
            keep.append(i)
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    # phase 2 with the real objective (as minimization)
    sign = -1 if p.direction == "max" else 1
    cost = [sign * c for c in p.objective] + [QZERO] * (width - n) + [QZERO]
    for c in art_cols:
        cost[c] = None  # artificials are gone; block re-entry
    cost = [QZERO if c is None else c for c in cost]
    tab.cost = cost
    ncols = n + nslack + nsurp  # never re-enter artificial columns
    for i, b in enumerate(tab.basis):
        f = tab.cost[b]
        if sign_of(f) != 0:
            tab.cost = [v - f * w for v, w in zip(tab.cost, tab.rows[i])]
    status = tab.run(ncols)
    if status == "unbounded":
        return LPResult("unbounded")
    point = [QZERO] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            point[b] = tab.rows[i][-1]
    value = -tab.cost[-1]
    if p.direction == "max":
        value = -value
    return LPResult("optimal", value, tuple(point))


def reference_lambda(x: Vec, X: Sequence[Vec]) -> Optional[Vec]:
    """lambda >= 0 with sum lambda = 1 and sum lambda_i X_i >= x, a vertex
    of the feasibility problem as a general LP, or None when x is not in
    conv_<=(X)."""
    m = len(X)
    rows = [tuple(QONE for _ in range(m))]
    senses = ["="]
    rhs = [QONE]
    for j in range(len(x)):
        rows.append(tuple(X[i][j] for i in range(m)))
        senses.append(">=")
        rhs.append(x[j])
    prob = LPProblem(tuple(rows), tuple(senses), tuple(rhs),
                     tuple(QZERO for _ in range(m)), "min")
    result = lp_solve(prob)
    return result.point if result.status == "optimal" else None


def reference_member(x: Vec, X: Sequence[Vec]) -> bool:
    """Is x in conv_<=(X)?  The LP feasibility problem, as a general LP."""
    return reference_lambda(x, X) is not None
