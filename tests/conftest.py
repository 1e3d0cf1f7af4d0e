from itertools import product

import pytest

from permorb import validate_lattice
from permorb.base import NonSplit, Split, TwistedSplit, VlLabel
from permorb.lattice import Modulus, canonicalize

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


# Vectors, quotients and building-block labels for tests, built from the
# integer forms the package keeps (``from_numerators(k, 2)`` and
# ``canonicalize``).


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def lattice_mod_two(lat):
    """``L/2L`` as canonical representatives, in Smith order."""
    # the representative V y of each y in {0,1}^d has the numerators D y
    ys = product((0, 1), repeat=lat.dim)
    return [lat.from_numerators([d * c for d, c in zip(lat.elementary_divisors, y)], 2) for y in ys]


def dual_mod_two_lattice(lat):
    """``L*/2L`` as canonical representatives, in Smith order."""
    return [lat.from_numerators(k, 2) for k in product(*(range(2 * d) for d in lat.elementary_divisors))]


def all_characters(lat):
    """All ``2^d`` sign characters of ``L/2L``, plus-signs first."""
    return list(product((1, -1), repeat=lat.dim))


def vl_label(lat, x):
    return VlLabel(canonicalize(lat, x, Modulus.DUAL_MOD_2LATTICE))


def split_label(lat, x, sign):
    return Split(canonicalize(lat, x, Modulus.LATTICE_MOD_2LATTICE), sign)


def nonsplit_label(lat, x):
    """The non-split label of ``x`` (not in ``L``): the smaller numerators of
    ``x`` and ``-x`` mod ``2L``."""
    k = lat.numerators(x)
    return NonSplit(lat.from_numerators(min(lat.reduce(k, 2), lat.reduce([-c for c in k], 2)), 2))


def all_vlplus_labels(lat):
    """Every V_L^+ label once: NonSplit, then Split, then TwistedSplit."""
    nonsplit = dict.fromkeys(nonsplit_label(lat, x) for x in dual_mod_two_lattice(lat) if not lat.in_lattice(x))
    split = [split_label(lat, x, sign) for x in lattice_mod_two(lat) for sign in (1, -1)]
    return [*nonsplit, *split, *(TwistedSplit(chi, sign) for chi in all_characters(lat) for sign in (1, -1))]


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
