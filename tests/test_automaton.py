"""Automaton parsing, term evaluation, compilation, and subset counting."""

import pytest

from automaton_reference import (
    ShapeEnumerator,
    count_accepted_subsets,
    evaluate,
    select_leaves,
    shape_leaves,
)
from treebound.automaton import (
    compile as compile_automaton,
    fold_shape,
    parse_automaton,
)
from treebound.errors import (
    DeterminismViolation,
    NoLeafRule,
        UndeclaredState,
)
from treebound.geometry import vec_dot
from treebound.numeric import Q


def format_automaton(a) -> str:
    """The automaton file text that parses back to a."""
    lines = ["states " + " ".join(a.states)]
    if a.finals:
        lines.append("final " + " ".join(q for q in a.states if q in a.finals))
    if a.leaf0 is not None:
        lines.append(f"leaf0 {a.leaf0}")
    if a.leaf1 is not None:
        lines.append(f"leaf1 {a.leaf1}")
    for (q1, q2), q in a.trans.items():
        lines.append(f"trans {q1} {q2} -> {q}")
    return "\n".join(lines) + "\n"


def path_shape(k: int):
    """The comb shape with k leaves: J(bot, J(bot, ...)), i.e. the path P_k."""
    shape = None
    for _ in range(k - 1):
        shape = (None, shape)
    return shape


def test_parse_indep_dom(indep_dom_automaton):
    a = indep_dom_automaton
    assert a.states == ("F", "D", "d")
    assert a.finals == frozenset({"D", "d"})
    assert len(a.trans) == 6
    assert a.leaf0 == "F" and a.leaf1 == "D"


def test_parse_determinism_violation():
    text = "states F D d\ntrans F D -> d\ntrans F D -> F\n"
    with pytest.raises(DeterminismViolation):
        parse_automaton(text)


def test_parse_undeclared_state():
    with pytest.raises(UndeclaredState):
        parse_automaton("states A\nfinal B\n")


def test_single_state_automaton():
    a = parse_automaton("states q\nfinal q\nleaf0 q\nleaf1 q\n")
    assert evaluate(a, False).accepted and evaluate(a, True).accepted
    assert evaluate(a, (False, False)).kind == "stuck"


def test_roundtrip_format(indep_dom_automaton):
    again = parse_automaton(format_automaton(indep_dom_automaton))
    assert again == indep_dom_automaton


# -- evaluation -----------------------------------------------------------------


def test_evaluate_accepts_center_selection(indep_dom_automaton):
    # J(bot0, J(bot1, bot0)): the 3-path dominated by its center
    term = (False, (True, False))
    r = evaluate(indep_dom_automaton, term)
    assert r.kind == "accept" and r.state == "d"


def test_evaluate_stuck_on_adjacent_selected(indep_dom_automaton):
    assert evaluate(indep_dom_automaton, (True, True)).kind == "stuck"


def test_evaluate_rejects_single_unselected(indep_dom_automaton):
    r = evaluate(indep_dom_automaton, False)
    assert r.kind == "reject" and r.state == "F"


def test_stuck_propagates(indep_dom_automaton):
    term = ((True, True), False)  # stuck subterm
    assert evaluate(indep_dom_automaton, term).kind == "stuck"


# -- compilation -----------------------------------------------------------------


def test_compile_matches_fixture(indep_dom_automaton, indep_dom_system):
    s = compile_automaton(indep_dom_automaton)
    assert s.dim == indep_dom_system.dim
    assert s.v0 == indep_dom_system.v0
    assert s.f == indep_dom_system.f
    assert sorted(s.terms) == sorted(indep_dom_system.terms)
    assert s.coord_names == ("F", "D", "d")


def test_compile_shared_leaf_rule():
    a = parse_automaton("states q\nfinal q\nleaf0 q\nleaf1 q\n")
    s = compile_automaton(a)
    assert s.v0 == (Q(2),)


def test_compile_no_transitions():
    a = parse_automaton("states q\nfinal q\nleaf0 q\n")
    s = compile_automaton(a)
    assert s.terms == ()
    # B is identically 0, so every k >= 2 level is all-zero
    from treebound.system import apply
    assert apply(s, s.v0, s.v0) == (Q(0),)


def test_compile_requires_leaf_rule():
    a = parse_automaton("states q\nfinal q\ntrans q q -> q\n")
    with pytest.raises(NoLeafRule):
        compile_automaton(a)


# -- counting --------------------------------------------------------------------


def test_count_path3(indep_dom_automaton):
    assert count_accepted_subsets(indep_dom_automaton, path_shape(3)) == 2


def test_count_single_leaf(indep_dom_automaton):
    # selections of one vertex: only the selected one dominates
    assert count_accepted_subsets(indep_dom_automaton, None) == 1


def test_count_two_leaves_perfect_codes_equivalent(perfect_codes_system):
    # the compiled-system route: F . fold over the 2-leaf shape
    v = fold_shape(perfect_codes_system, (None, None))
    assert vec_dot(perfect_codes_system.f, v) == 2


def _exhaustive_count(a, shape):
    k = shape_leaves(shape)
    return sum(evaluate(a, select_leaves(shape, [(m >> i) & 1 for i in range(k)])[0]).accepted
               for m in range(1 << k))


def test_methods_agree_and_match_fold(indep_dom_automaton, indep_dom_system):
    # exhaustive evaluation vs F . apply-fold of the compiled system (the
    # count_accepted_subsets fast path, here without its own cross-check), for
    # every shape with <= 8 leaves and a sample at 9 and 10
    a = indep_dom_automaton
    compiled = compile_automaton(a)
    enum = ShapeEnumerator()
    shapes = [sh for k in range(1, 9) for sh in enum.shapes(k)]
    shapes += [sh for k in (9, 10) for sh in enum.shapes(k)[::97]]
    for shape in shapes:
        n = _exhaustive_count(a, shape)
        v = fold_shape(compiled, shape)
        assert vec_dot(compiled.f, v) == n
        assert fold_shape(indep_dom_system, shape) == v
        assert count_accepted_subsets(a, shape, exhaustive_cap=0) == n


def test_overflow_guard_switches_to_counting_pass(indep_dom_automaton):
    # beyond the cap only the state-count pass runs; result is unchanged
    shape = path_shape(13)
    assert shape_leaves(shape) == 13
    fast_only = count_accepted_subsets(indep_dom_automaton, shape,
                                       exhaustive_cap=4)
    cross_checked = count_accepted_subsets(indep_dom_automaton, shape,
                                           exhaustive_cap=13)
    assert fast_only == cross_checked
