"""Independent brute-force ground truth for accepted-set counts.

Two routes to the maximum count over trees of order k: expand the level sets
B^k(V0) (dynamic programming on the bilinear system), or enumerate all proper
binary ordered shapes with k leaves and fold each one (Catalan(k-1) shapes).
Both must agree; certificates are audited against the level route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .automaton import Shape, TreeAutomaton, count_accepted_subsets
from .errors import AuditFailure, CapExceeded
from .numeric import decimal_str, sign_of
from .search import Certificate
from .system import (
    BilinearSystem,
    DEFAULT_LEVEL_CAP,
    apply,
    bk_levels,
    level_max,
)

DEFAULT_SHAPE_CAP = 12


class ShapeEnumerator:
    """All proper binary ordered trees with a given leaf count.

    Shapes for k leaves are built by the root split (i leaves left, k-i
    right), exactly the J(T1, T2) decomposition; per-size lists are memoized
    and shared, so enumeration emits each of the Catalan(k-1) shapes once.
    """

    def __init__(self):
        self._memo: Dict[int, List[Shape]] = {1: [None]}

    def shapes(self, k: int) -> List[Shape]:
        if k not in self._memo:
            out: List[Shape] = []
            for i in range(1, k):
                for left in self.shapes(i):
                    for right in self.shapes(k - i):
                        out.append((left, right))
            self._memo[k] = out
        return self._memo[k]


_SHARED_SHAPES = ShapeEnumerator()


def max_count_via_levels(s: BilinearSystem, k: int, prune: bool = True,
                         cap: int = DEFAULT_LEVEL_CAP):
    """max F.v over B^k(V0) = maximum count over trees of order k."""
    levels = bk_levels(s, k, prune=prune, cap=cap)
    return level_max(s, levels.levels[k])


def max_count_via_shapes_system(s: BilinearSystem, k: int,
                                cap: int = DEFAULT_SHAPE_CAP):
    """Shape-by-shape maximum of F.(apply-fold); independent of bk_levels.

    folds[j] holds one vector per shape with j leaves, in ShapeEnumerator
    order, so each sub-shape is folded once and shared by every shape that
    contains it; nothing is deduplicated or pruned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > cap:
        raise CapExceeded(f"shape enumeration for k={k} exceeds cap {cap}")
    folds = [[], [s.v0]]
    for j in range(2, k + 1):
        folds.append([apply(s, left, right) for i in range(1, j)
                      for left in folds[i] for right in folds[j - i]])
    return level_max(s, folds[k])


def max_count_via_shapes(a: TreeAutomaton, k: int,
                         cap: int = DEFAULT_SHAPE_CAP,
                         exhaustive_cap: int = 10) -> int:
    """Maximum accepted-subset count over all shapes with k leaves.

    Small shapes are additionally counted by exhaustive selection
    enumeration inside count_accepted_subsets.
    """
    if k > cap:
        raise CapExceeded(f"shape enumeration for k={k} exceeds cap {cap}")
    best = 0
    for shape in _SHARED_SHAPES.shapes(k):
        best = max(best, count_accepted_subsets(a, shape, exhaustive_cap))
    return best


@dataclass(frozen=True)
class AuditLine:
    k: int
    count: object
    bound_decimal: str


@dataclass(frozen=True)
class AuditReport:
    lines: Tuple[AuditLine, ...]

    def render(self) -> str:
        out = ["bound audit: max count over trees of order k vs C*alpha^k"]
        for line in self.lines:
            out.append(f"  k = {line.k}: count {line.count} <= {line.bound_decimal}")
        return "\n".join(out)


def bound_audit(s: BilinearSystem, cert: Certificate, kmax: int) -> AuditReport:
    """Assert max_count_via_levels(k) <= C*alpha^k exactly for k <= kmax,
    with C derived from the vectors as verify derives it (cert.C is unused)."""
    C = level_max(s, cert.vectors)
    levels = bk_levels(s, kmax)
    lines = []
    power = 1
    for k in range(1, kmax + 1):
        power = power * cert.alpha
        count = level_max(s, levels.levels[k])
        bound = C * power
        if sign_of(bound - count) < 0:
            raise AuditFailure(k, count, f"C*alpha^{k} ~ {decimal_str(bound)}")
        lines.append(AuditLine(k, count, decimal_str(bound)))
    return AuditReport(tuple(lines))
