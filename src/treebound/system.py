"""Bilinear systems (B, V0, F): application, trimming, level sets.

A system is a sparse nonnegative trilinear coefficient table together with an
initial vector V0 and a final vector F.  B^k(V0) is the set of vectors
obtained from expressions with exactly k occurrences of V0; max F.v over a
level equals the maximum accepted-subset count over trees of that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    EmptySystem,
    LevelBudgetExceeded,
    ParseError,
)
from .numeric import (
    Directives,
    NumberField,
    format_number,
    parse_field_header,
    parse_number,
    read_text,
    sign_of,
)
from .geometry import Vec, vec_dot, vec_leq

# internal indices are 0-based; the file format and reports are 1-based
Term = Tuple[int, int, int, object]  # (target, left, right, coeff)

LEVEL_CAP = 100_000                # largest level bk_levels will build


@dataclass(frozen=True)
class BilinearSystem:
    dim: int
    terms: Tuple[Term, ...]
    v0: Vec
    f: Vec
    coord_names: Optional[Tuple[str, ...]] = None
    number_field: Optional[NumberField] = None

    def __post_init__(self):
        if len(self.v0) != self.dim or len(self.f) != self.dim:
            raise DimensionMismatch("V0/F length differs from dim")
        seen = set()
        for q, q1, q2, c in self.terms:
            if not (0 <= q < self.dim and 0 <= q1 < self.dim and 0 <= q2 < self.dim):
                raise DimensionMismatch(f"term index out of range: {(q, q1, q2)}")
            if (q, q1, q2) in seen:
                raise ParseError(f"duplicate term key {(q + 1, q1 + 1, q2 + 1)}")
            seen.add((q, q1, q2))
            if sign_of(c) < 0:
                raise ValueError("negative coefficient")
        if not (all(sign_of(c) >= 0 for c in self.v0)
                and all(sign_of(c) >= 0 for c in self.f)):
            raise ValueError("V0 and F must be nonnegative")

    def name_of(self, i: int) -> str:
        return self.coord_names[i] if self.coord_names else str(i + 1)


def apply(s: BilinearSystem, u: Vec, v: Vec) -> Vec:
    """B(u, v): result_q = sum over terms (q,q1,q2,c) of c*u_q1*v_q2."""
    if len(u) != s.dim or len(v) != s.dim:
        raise DimensionMismatch(
            f"apply on {s.dim}-dim system with {len(u)}/{len(v)}-dim vectors")
    out = [0] * s.dim
    for q, q1, q2, c in s.terms:
        uq = u[q1]
        if uq == 0:
            continue
        prod = uq * v[q2] if c == 1 else c * uq * v[q2]
        out[q] = out[q] + prod
    return tuple(out)


def objective(s: BilinearSystem, v: Vec):
    return vec_dot(s.f, v)


# -- trimming to accessible and co-accessible coordinates ----------------------


def accessible_coordinates(s: BilinearSystem) -> set:
    """Least fixed point containing support(V0), closed under term targets."""
    acc = {i for i in range(s.dim) if sign_of(s.v0[i]) > 0}
    changed = True
    while changed:
        changed = False
        for q, q1, q2, _ in s.terms:
            if q not in acc and q1 in acc and q2 in acc:
                acc.add(q)
                changed = True
    return acc


def coaccessible_coordinates(s: BilinearSystem, acc: set) -> set:
    """Inductive closure: support(F), then propagation through B's terms."""
    co = {i for i in range(s.dim) if sign_of(s.f[i]) > 0}
    changed = True
    while changed:
        changed = False
        for q, q1, q2, _ in s.terms:
            if q not in co:
                continue
            if q2 in acc and q1 not in co:
                co.add(q1)
                changed = True
            if q1 in acc and q2 not in co:
                co.add(q2)
                changed = True
    return co


def trim(s: BilinearSystem) -> Tuple[BilinearSystem, Tuple[int, ...]]:
    """Restrict to coordinates both accessible and co-accessible.

    Returns the trimmed system and the kept original indices (new -> old);
    max F.v over B^k(V0) is preserved for every k.
    """
    acc = accessible_coordinates(s)
    co = coaccessible_coordinates(s, acc)
    keep = sorted(acc & co)
    if not keep:
        raise EmptySystem("no coordinate is accessible and co-accessible")
    old_to_new = {old: new for new, old in enumerate(keep)}
    terms = tuple(
        (old_to_new[q], old_to_new[q1], old_to_new[q2], c)
        for q, q1, q2, c in s.terms
        if q in old_to_new and q1 in old_to_new and q2 in old_to_new)
    names = tuple(s.name_of(i) for i in keep) if s.coord_names else None
    trimmed = BilinearSystem(
        len(keep), terms,
        tuple(s.v0[i] for i in keep), tuple(s.f[i] for i in keep),
        names, s.number_field)
    return trimmed, tuple(keep)


# -- level sets B^k(V0) ---------------------------------------------------------


def _prune_dominated(vectors: List[Vec]) -> List[Vec]:
    """The vectors no other vector of the list dominates componentwise, one
    of each equal group, in order of coordinate sum, largest first.

    Sound for level maxima: B is monotone in each argument (nonnegative
    coefficients) and F >= 0, so a dominated vector can never beat its
    dominator in any later product or in F.v.  A vector is dominated only
    by one of larger sum or by an equal one, and both come before it in
    this order, so one pass against the vectors kept so far suffices.
    """
    sums = [sum(v) for v in vectors]
    order = sorted(range(len(vectors)),
                   key=cmp_to_key(lambda i, j: sign_of(sums[j] - sums[i])))
    kept: List[Vec] = []
    for i in order:
        v = vectors[i]
        if not any(vec_leq(v, w) for w in kept):
            kept.append(v)
    return kept


def bk_levels(s: BilinearSystem, kmax: int) -> Dict[int, List[Vec]]:
    """Levels 1..kmax of B^k(V0), built by the inductive pairing i + (k-i):
    levels[k] is B^k(V0) deduplicated and dominance-pruned."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
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
                        if len(level) > LEVEL_CAP:
                            raise LevelBudgetExceeded(
                                f"level {k} exceeds cap {LEVEL_CAP}")
        levels[k] = _prune_dominated(level)
    return levels


def level_max(s: BilinearSystem, level: Sequence[Vec]):
    """max F.v over a level (levels are nonempty for k >= 1)."""
    best = None
    for v in level:
        val = objective(s, v)
        if best is None or sign_of(val - best) > 0:
            best = val
    return best


# -- file format ------------------------------------------------------------------
#   dim n
#   V0 v1 ... vn
#   F f1 ... fn
#   term q q1 q2 [coeff]        (1-based indices; coeff omitted means 1)
#   # comments; optional "field:" header allows algebraic entries


def parse_system(text: str) -> BilinearSystem:
    dim = None
    v0 = f = names = None
    terms: List[Term] = []
    number_field = None
    with Directives(text) as lines:
        for line in lines:
            kind, *args = line.split()
            if line.startswith("field:"):
                number_field = parse_field_header(line)
            elif kind == "dim":
                dim = int(args[0])
            elif kind == "V0":
                v0 = tuple(parse_number(t, number_field) for t in args)
            elif kind == "F":
                f = tuple(parse_number(t, number_field) for t in args)
            elif kind == "term":
                q, q1, q2 = (int(args[i]) - 1 for i in (0, 1, 2))
                c = parse_number(args[3], number_field) if len(args) > 3 else 1
                terms.append((q, q1, q2, c))
            elif kind == "states":
                names = tuple(args)
            else:
                raise ParseError(f"unknown directive {kind!r}")
    if dim is None or v0 is None or f is None:
        raise ParseError("system file needs dim, V0 and F lines")
    if names is not None and len(names) != dim:
        raise ParseError("states line length differs from dim")
    try:
        return BilinearSystem(dim, tuple(terms), v0, f, names, number_field)
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(exc)) from None


def format_system(s: BilinearSystem) -> str:
    lines = []
    if s.number_field is not None:
        lines.append(s.number_field.header())
    lines.append(f"dim {s.dim}")
    if s.coord_names:
        lines.append("states " + " ".join(s.coord_names))
    lines.append("V0 " + " ".join(format_number(c) for c in s.v0))
    lines.append("F " + " ".join(format_number(c) for c in s.f))
    for q, q1, q2, c in s.terms:
        base = f"term {q + 1} {q1 + 1} {q2 + 1}"
        lines.append(base if c == 1 else base + " " + format_number(c))
    return "\n".join(lines) + "\n"


def load_system(path) -> BilinearSystem:
    return parse_system(read_text(path))
