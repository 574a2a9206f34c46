"""The automaton cross-check, kept as a test reference: direct evaluation of
an automaton on a tree with a selection, exhaustive counting of accepted
selections per shape, shape enumeration, and the scaled-V0 system.

None of this runs in a `treebound` command.  The tests compare it with the
package's own routes: F.fold_shape of the compiled system against the 2^k
selections evaluated one by one, and the maximum over enumerated shapes
against the level route.

Terms (trees with a selection) are nested structures: a leaf is the bool of
its selection flag, an internal node a pair (left, right).  Shapes are the
package's B-expressions without a hole (None at the leaves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from treebound.automaton import Shape, TreeAutomaton, compile, fold_shape
from treebound.errors import CapExceeded, NonPositiveScale
from treebound.numeric import sign_of
from treebound.oracle import SHAPE_CAP
from treebound.system import BilinearSystem, objective

TreeTerm = Union[bool, tuple]   # leaf selection flag | (left, right)


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    kind: str  # 'accept', 'reject', 'stuck'
    state: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.kind == "accept"


STUCK = EvalResult("stuck")


def evaluate(a: TreeAutomaton, term: TreeTerm) -> EvalResult:
    """Bottom-up run; Stuck (an undefined transition) is a value, not an error."""
    q = _run(a, term)
    if q is None:
        return STUCK
    return EvalResult("accept" if q in a.finals else "reject", q)


def _run(a: TreeAutomaton, term: TreeTerm) -> Optional[str]:
    if term is True:
        return a.leaf1
    if term is False:
        return a.leaf0
    left = _run(a, term[0])
    if left is None:
        return None
    right = _run(a, term[1])
    if right is None:
        return None
    return a.trans.get((left, right))


# -- shapes and counting ----------------------------------------------------------


def shape_leaves(shape: Shape) -> int:
    if shape is None:
        return 1
    return shape_leaves(shape[0]) + shape_leaves(shape[1])


def select_leaves(shape: Shape, flags, pos: int = 0) -> Tuple[TreeTerm, int]:
    """Shape plus a per-leaf selection mask -> term."""
    if shape is None:
        return bool(flags[pos]), pos + 1
    left, pos = select_leaves(shape[0], flags, pos)
    right, pos = select_leaves(shape[1], flags, pos)
    return (left, right), pos


def count_accepted_subsets(a: TreeAutomaton, shape: Shape,
                           exhaustive_cap: int = 12) -> int:
    """Number of leaf selections accepted by the automaton on this shape.

    Always computed as F.v for the apply-fold v of the compiled system (its
    coordinate q counts the selections reaching q); for at most
    exhaustive_cap leaves the 2^k exhaustive evaluation runs as an
    independent cross-check and the two must agree.
    """
    s = compile(a)
    fast = objective(s, fold_shape(s, shape))
    k = shape_leaves(shape)
    if k <= exhaustive_cap:
        slow = 0
        for mask in range(1 << k):
            flags = [(mask >> i) & 1 for i in range(k)]
            term, _ = select_leaves(shape, flags)
            if evaluate(a, term).accepted:
                slow += 1
        if slow != fast:
            raise AssertionError(
                f"count mismatch on shape with {k} leaves: {slow} vs {fast}")
    return fast


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


def max_count_via_shapes(a: TreeAutomaton, k: int, cap: int = SHAPE_CAP,
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


# -- scaling ----------------------------------------------------------------------


def scale_initial(s: BilinearSystem, alpha) -> BilinearSystem:
    """Replace V0 by V0/alpha; every level-k vector scales by alpha**-k."""
    if sign_of(alpha) <= 0:
        raise NonPositiveScale("alpha must be positive")
    inv = 1 / alpha
    return BilinearSystem(s.dim, s.terms, tuple(inv * c for c in s.v0), s.f,
                          s.coord_names, s.number_field)
