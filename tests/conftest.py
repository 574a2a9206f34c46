import pytest

import fixture_data as fixreg
from treebound.automaton import parse_automaton
from treebound.numeric import NumberField, Q, nthroot_field
from treebound.system import BilinearSystem


def pad_with_dead_coordinate(s: BilinearSystem) -> BilinearSystem:
    """Append a coordinate that is neither accessible nor co-accessible."""
    dead = s.dim
    terms = list(s.terms) + [(dead, dead, dead, Q(1))]  # only self-feeding
    return BilinearSystem(s.dim + 1, tuple(terms), s.v0 + (Q(0),),
                          s.f + (Q(0),))


@pytest.fixture(scope="session")
def pad_dead_coordinate():
    return pad_with_dead_coordinate


@pytest.fixture(scope="session")
def fx():
    return fixreg


@pytest.fixture(scope="session")
def indep_dom_system():
    return fixreg.load_fixture_system(fixreg.BY_NAME["indep_dom"])


@pytest.fixture(scope="session")
def indep_dom_automaton():
    return parse_automaton(
        fixreg.read_data(fixreg.BY_NAME["indep_dom"].automaton))


@pytest.fixture(scope="session")
def indep_dom_cert():
    return fixreg.load_fixture_certificate(fixreg.BY_NAME["indep_dom"])


@pytest.fixture(scope="session")
def perfect_codes_system():
    return fixreg.load_fixture_system(fixreg.BY_NAME["perfect_codes"])


@pytest.fixture(scope="session")
def perfect_codes_cert():
    return fixreg.load_fixture_certificate(fixreg.BY_NAME["perfect_codes"])


@pytest.fixture(scope="session")
def sqrt2_field():
    return NumberField([-2, 0, 1], 1, 2)


@pytest.fixture(scope="session")
def plastic_field():
    # x^3 - x - 1 on (1, 2)
    return NumberField([-1, -1, 0, 1], 1, 2)


@pytest.fixture(scope="session")
def root13_9_field():
    return nthroot_field(13, 9)
