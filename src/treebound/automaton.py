"""Deterministic bottom-up binary-tree automata and their bilinear systems.

The alphabet is {J0, J1, bot0, bot1}: J is the binary tree-joining letter, bot
the leaf letter, and the subscript marks selected vertices.  Only leaves may
be selected, so there are no J1 transitions; an automaton is a leaf rule for
bot0 and/or bot1 plus a partial transition table for J0.

A shape is a B-expression, the one tree encoding of the package: None is a
V0 leaf, "HOLE" the recursion hole of a gadget, and a pair (left, right) the
product B(left, right).  `fold_shape` is its one fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    DeterminismViolation,
    MultipleHoles,
    NoLeafRule,
    ParseError,
    UndeclaredState,
)
from .geometry import Vec
from .numeric import Directives
from .system import BilinearSystem, apply

Shape = Union[None, str, tuple]   # V0 leaf | "HOLE" | (left, right)


@dataclass(frozen=True)
class TreeAutomaton:
    states: Tuple[str, ...]
    finals: frozenset
    leaf0: Optional[str]
    leaf1: Optional[str]
    trans: Dict[Tuple[str, str], str]  # (q1, q2) -> q, for the letter J0


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


# -- folding B-expressions ---------------------------------------------------------


def fold_shape(s: BilinearSystem, shape: Shape,
               hole: Optional[Vec] = None) -> Vec:
    """The vector of a B-expression: apply folded over the shape, with V0 at
    its leaves and `hole` at its "HOLE"."""
    if shape is None:
        return s.v0
    if shape == "HOLE":
        if hole is None:
            raise MultipleHoles("expression has a hole but no value was given")
        return hole
    return apply(s, fold_shape(s, shape[0], hole),
                 fold_shape(s, shape[1], hole))
