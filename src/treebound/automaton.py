"""Deterministic bottom-up binary-tree automata and their bilinear systems.

The alphabet is {J0, J1, bot0, bot1}: J is the binary tree-joining letter, bot
the leaf letter, and the subscript marks selected vertices.  Only leaves may
be selected, so there are no J1 transitions; an automaton is a leaf rule for
bot0 and/or bot1 plus a partial transition table for J0.

Terms (trees with a selection) are nested structures: a leaf is the bool of
its selection flag, an internal node a pair (left, right).  Shapes (trees
without a selection) use None at the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    DeterminismViolation,
    NoLeafRule,
    ParseError,
    UndeclaredState,
)
from .numeric import Directives
from .system import BilinearSystem, apply, objective

TreeTerm = Union[bool, tuple]   # leaf selection flag | (left, right)
Shape = Union[None, tuple]      # leaf | (left, right)


@dataclass(frozen=True)
class TreeAutomaton:
    states: Tuple[str, ...]
    finals: frozenset
    leaf0: Optional[str]
    leaf1: Optional[str]
    trans: Dict[Tuple[str, str], str]  # (q1, q2) -> q, for the letter J0

    def index(self, q: str) -> int:
        return self.states.index(q)


@dataclass(frozen=True)
class EvalResult:
    kind: str  # 'accept', 'reject', 'stuck'
    state: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.kind == "accept"


STUCK = EvalResult("stuck")


def parse_automaton(text: str) -> TreeAutomaton:
    """Parse the automaton file format.

    Lines: ``states s1 s2 ...``, ``final s1 ...``, ``leaf0 s``, ``leaf1 s``,
    ``trans q1 q2 -> q``; ``#`` starts a comment.
    """
    states: Optional[Tuple[str, ...]] = None
    finals: List[str] = []
    leaf0 = leaf1 = None
    trans: Dict[Tuple[str, str], str] = {}

    def check_state(q: str) -> str:
        if states is None or q not in states:
            raise UndeclaredState(f"state {q!r} not declared")
        return q

    with Directives(text) as lines:
        for line in lines:
            kind, *args = line.split()
            if kind == "states":
                if not args:
                    raise ParseError("empty states line")
                if len(set(args)) != len(args):
                    raise ParseError("duplicate state name")
                states = tuple(args)
            elif kind == "final":
                finals.extend(check_state(q) for q in args)
            elif kind in ("leaf0", "leaf1"):
                if len(args) != 1:
                    raise ParseError(f"{kind} needs exactly one state")
                q = check_state(args[0])
                if kind == "leaf0":
                    leaf0 = q
                else:
                    leaf1 = q
            elif kind == "trans":
                if len(args) != 4 or args[2] != "->":
                    raise ParseError("expected: trans q1 q2 -> q")
                q1, q2, q = (check_state(args[i]) for i in (0, 1, 3))
                if (q1, q2) in trans:
                    raise DeterminismViolation(
                        f"duplicate transition for ({q1}, {q2})")
                trans[(q1, q2)] = q
            elif kind == "trans1":
                # J1 transitions contradict the consistent-selection convention
                raise ParseError("J1 transitions are not allowed")
            else:
                raise ParseError(f"unknown directive {kind!r}")
    if states is None:
        raise ParseError("automaton file needs a states line")
    return TreeAutomaton(states, frozenset(finals), leaf0, leaf1, trans)


# -- evaluation ---------------------------------------------------------------


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


# -- compilation to a bilinear system -------------------------------------------


def compile(a: TreeAutomaton) -> BilinearSystem:
    """dim = |Q|; one unit term per J0 transition; V0 counts leaf rules;
    F is the indicator of the final states."""
    if a.leaf0 is None and a.leaf1 is None:
        raise NoLeafRule("automaton has no leaf rule")
    n = len(a.states)
    idx = {q: i for i, q in enumerate(a.states)}
    v0 = [0] * n
    for leaf in (a.leaf0, a.leaf1):
        if leaf is not None:
            v0[idx[leaf]] += 1
    f = tuple(1 if q in a.finals else 0 for q in a.states)
    terms = tuple(
        (idx[q], idx[q1], idx[q2], 1) for (q1, q2), q in a.trans.items())
    return BilinearSystem(n, terms, tuple(v0), f, coord_names=a.states)


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


def fold_shape(s: BilinearSystem, shape: Shape) -> Tuple:
    """Apply-fold of a system over a shape (leaves become V0)."""
    if shape is None:
        return s.v0
    return apply(s, fold_shape(s, shape[0]), fold_shape(s, shape[1]))
