"""The bundled fixtures as the tests read them: the registry of
`treebound.fixtures` and a parser per data file."""

from treebound.fixtures import BY_NAME, FIXTURES, Fixture, data_path
from treebound.search import parse_certificate
from treebound.spectral import parse_gadget
from treebound.system import parse_system


def read_data(filename: str) -> str:
    return data_path(filename).read_text()


def load_fixture_system(f: Fixture):
    return parse_system(read_data(f.system))


def load_fixture_certificate(f: Fixture):
    return parse_certificate(read_data(f.certificate))


def load_fixture_gadget(f: Fixture):
    return parse_gadget(read_data(f.gadget))
