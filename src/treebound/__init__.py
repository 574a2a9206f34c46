"""Certified growth-rate bounds for counted vertex-subset families on trees.

Tree automata counting a family of vertex subsets compile to bilinear
systems (B, V0, F); invariant polytope certificates give exact upper bounds
C*alpha^n on the counts, transfer matrices of periodic constructions give
lower bounds, and brute-force enumeration cross-checks both.  All arithmetic
is exact, over Q or a real algebraic number field Q(alpha).
"""

from .numeric import (
    AlgebraicNumber,
    NumberField,
    Q,
    decimal_interval,
    decimal_str,
    invert,
    largest_real_root,
    nthroot_field,
    sign_of,
)
from .geometry import Hull, hull_reduce, lp_solve, member_dominated_hull
from .system import BilinearSystem, apply, bk_levels, parse_system, trim
from .automaton import TreeAutomaton, compile, fold_shape, parse_automaton
from .search import (
    BudgetExhausted,
    Certificate,
    Found,
    Invalid,
    SearchConfig,
    Valid,
    find_certificate,
    verify_certificate,
)
from .spectral import char_poly, lower_bound, transfer_matrix
from .oracle import bound_audit, max_count_via_levels, max_count_via_shapes_system

__version__ = "0.1.0"
