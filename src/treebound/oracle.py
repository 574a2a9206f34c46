"""Independent brute-force ground truth for accepted-set counts.

Two routes to the maximum count over trees of order k: expand the level sets
B^k(V0) (dynamic programming on the bilinear system), or fold B over every
proper binary ordered shape with k leaves (Catalan(k-1) shapes).  Both must
agree; certificates are audited against the level route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import AuditFailure, CapExceeded
from .numeric import decimal_str, sign_of
from .search import Certificate
from .system import BilinearSystem, apply, bk_levels, level_max

SHAPE_CAP = 12                     # largest k the shape route takes


def max_count_via_levels(s: BilinearSystem, k: int):
    """max F.v over B^k(V0) = maximum count over trees of order k."""
    return level_max(s, bk_levels(s, k)[k])


def max_count_via_shapes_system(s: BilinearSystem, k: int):
    """Shape-by-shape maximum of F.(apply-fold); independent of bk_levels.

    folds[j] holds one vector per shape with j leaves, the shapes taken by
    their root split i + (j-i), so each sub-shape is folded once and shared
    by every shape that contains it; nothing is deduplicated or pruned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > SHAPE_CAP:
        raise CapExceeded(
            f"shape enumeration for k={k} exceeds cap {SHAPE_CAP}")
    folds = [[], [s.v0]]
    for j in range(2, k + 1):
        folds.append([apply(s, left, right) for i in range(1, j)
                      for left in folds[i] for right in folds[j - i]])
    return level_max(s, folds[k])


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
        count = level_max(s, levels[k])
        bound = C * power
        if sign_of(bound - count) < 0:
            raise AuditFailure(k, count, f"C*alpha^{k} ~ {decimal_str(bound)}")
        lines.append(AuditLine(k, count, decimal_str(bound)))
    return AuditReport(tuple(lines))
