import pytest

from permorb import validate_lattice

E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]

D4_GRAM = [
    [2, 0, -1, 0],
    [0, 2, -1, 0],
    [-1, -1, 2, -1],
    [0, 0, -1, 2],
]

# name -> (gram, expected det)
GRAMS = {
    "a1": ([[2]], 2),
    "a1sq": ([[2, 0], [0, 2]], 4),
    "a2": ([[2, -1], [-1, 2]], 3),
    "scaled4": ([[4]], 4),
    "scaled6": ([[6]], 6),
    "scaled12": ([[12]], 12),
    "odd7": ([[2, 1], [1, 4]], 7),
    "a1cube": ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 8),
    "chain3": ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], 4),
    "d4": (D4_GRAM, 4),
    "e8": (E8_GRAM, 1),
}

# lattices within the exhaustive ring-axiom scope (small discriminant, low rank)
RING_AXIOM_NAMES = [
    "a1",
    "a1sq",
    "a2",
    "scaled4",
    "scaled6",
    "scaled12",
    "odd7",
    "a1cube",
    "chain3",
]

BASE_SUITE_NAMES = ["a1", "a1sq", "a2", "scaled4"]

_CACHE = {}


def qdim_mul(p, q, l):
    """The product of two quantum dimensions ``a + b*sqrt(l)`` given as
    pairs ``(a, b)``."""
    return (p[0] * q[0] + l * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def qdim_of_sum(qdims, counts):
    """The quantum dimension of a direct sum, as a pair: ``counts`` maps
    each label to its multiplicity and ``qdims`` is ``qdims_by_kind``."""
    return tuple(sum(n * qdims[type(c)][i] for c, n in counts.items()) for i in (0, 1))


def get_lattice(name):
    if name not in _CACHE:
        _CACHE[name] = validate_lattice(GRAMS[name][0])
    return _CACHE[name]


@pytest.fixture
def lattice_of():
    return get_lattice


@pytest.fixture
def a1():
    return get_lattice("a1")


@pytest.fixture
def a2():
    return get_lattice("a2")


@pytest.fixture
def e8():
    return get_lattice("e8")
