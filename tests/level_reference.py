"""Level sets B^k(V0) built apart from `system.bk_levels`, and the pairwise
dominance prune that `system._prune_dominated` replaced, kept as test
references.

The tests compare the package's pruned levels with these: the maxima of
F.v with the unpruned levels, and the pruned sets with the levels the
pairwise prune gives.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from treebound.geometry import Vec, vec_leq
from treebound.system import BilinearSystem, apply


def reference_levels(s: BilinearSystem, kmax: int,
                     prune: Callable[[List[Vec]], List[Vec]] = list
                     ) -> Dict[int, List[Vec]]:
    """Levels 1..kmax of B^k(V0) by the pairing i + (k-i) of `bk_levels`:
    each level deduplicated (earliest kept), then passed through `prune`,
    which by default keeps every vector."""
    levels = {1: [s.v0]}
    for k in range(2, kmax + 1):
        seen = set()
        level: List[Vec] = []
        for i in range(1, k):
            for x in levels[i]:
                for y in levels[k - i]:
                    v = apply(s, x, y)
                    if v not in seen:
                        seen.add(v)
                        level.append(v)
        levels[k] = prune(level)
    return levels


def prune_dominated_pairwise(vectors: List[Vec]) -> List[Vec]:
    """Drop vectors componentwise-dominated by another vector of the list:
    each vector is tested against those kept so far, and when kept it
    removes the kept ones it dominates."""
    kept: List[Vec] = []
    for v in vectors:
        if not any(vec_leq(v, w) for w in kept):
            kept = [w for w in kept if not vec_leq(w, v)]
            kept.append(v)
    return kept
