"""Irreducible modules and fusion products of the 2-permutation orbifold.

For a positive-definite even lattice ``L`` with ``l = |L*/L|`` the orbifold
algebra has exactly ``(l^2 + 7l)/2`` irreducible modules, in three families
indexed by canonical representatives of ``L*/L``:

* ``NonDiag(lam, mu)`` with ``lam`` and ``mu`` in different cosets, unordered;
* ``Diag(lam, eps)`` with a parity ``eps``;
* ``Twisted(lam, eps)`` with a parity ``eps``.

Quantum dimensions are 2, 1 and ``sqrt(l)`` respectively, and all fusion
multiplicities are 0 or 1.

Twisted labels carry the only delicate normalization in the theory.  The
expression ``Twisted(x, eps)`` for a non-canonical ``x = lam + beta`` does
not simply drop ``beta``: translating the coset label by ``beta`` shifts
the conformal-weight classes of half the constituents by
``<lam,beta> + <beta,beta>/2 = q(x) - q(lam) (mod 2)``, with
``q(x) = <x,x>/2``, so the parity flips exactly when that is odd.  The
``twisted`` constructor performs this resolution.  Dropping the flip breaks
associativity already in rank 1.

The fusion rule itself works on integer keys (``label_sort_key``): a kind
letter, the Smith numerators of the coset labels and the parity.  Sums of
coset labels are sums of numerators, and the resolving key rules reduce
them, so the outcome is representative-free.  The rule (``_fuse``) takes a
batch of key pairs of one kind pair as numpy arrays of numerators: a coset
sum is ``(x + y) % d_j`` per column, the parity flip comes from
``smith_gram``, and the halving solutions and the Twisted x Twisted sweep
over ``L*/L`` are arrays too.  ``fusion_table`` feeds it every pair of
labels, one kind pair at a time, and ``fuse_orbifold`` a batch of one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product, starmap
from operator import sub
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from .base import NonSplit, Split, TwistedSplit, VlLabel, VlPlusLabel, fusion_rule_vlplus
from .characters import chi_of_lambda, chi_of_pairings, chi_shift, split_gauge_sign
from .errors import DegeneratePair, TableTooLarge
from .lattice import GramLattice, Modulus, Vector, canonicalize, vec_neg

__all__ = [
    "Diag",
    "NonDiag",
    "Twisted",
    "OrbifoldLabel",
    "diag",
    "nondiag",
    "twisted",
    "in_label_order",
    "enumerate_modules",
    "Constituents",
    "constituents",
    "decompose_module",
    "induce",
    "qdims_by_kind",
    "glob",
    "dual_orbifold",
    "fusion_keys",
    "fuse_orbifold",
    "FusionTable",
    "fusion_table",
    "label_sort_key",
    "guard_memory",
    "label_count",
    "entry_count",
    "labels_size",
]

MEMORY_LIMIT = 4 * 2**30  # bytes


@dataclass(frozen=True)
class Diag:
    lam: Vector
    eps: int


@dataclass(frozen=True)
class NonDiag:
    lam: Vector
    mu: Vector


@dataclass(frozen=True)
class Twisted:
    lam: Vector
    eps: int


OrbifoldLabel = Union[Diag, NonDiag, Twisted]
Key = Tuple[str, Tuple[int, ...], object]
T = TypeVar("T")
R = TypeVar("R")


class Keys(NamedTuple):
    """A batch of label keys of one ``kind``, each for pair number ``at`` of a
    batch of pairs: the rows ``x`` of reduced numerators and, per key, the
    parity ``y`` (Diag, Twisted) or the row ``y`` of the second coset
    (NonDiag)."""

    kind: str
    at: np.ndarray
    x: np.ndarray
    y: np.ndarray


def diag(lat: GramLattice, x: Vector, eps: int) -> Diag:
    return Diag(canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE), eps % 2)


def nondiag(lat: GramLattice, x: Vector, y: Vector) -> NonDiag:
    a, b = lat.reduce(lat.numerators(x)), lat.reduce(lat.numerators(y))
    if a == b:
        raise DegeneratePair("the two cosets of an off-diagonal label must differ")
    return NonDiag(lat.from_numerators(min(a, b)), lat.from_numerators(max(a, b)))


def twisted(lat: GramLattice, x: Vector, eps: int) -> Twisted:
    """Resolve a twisted-label expression to its canonical form.

    The parity flips when moving ``x`` to its canonical representative
    crosses a translation of odd weight parity; see the module docstring.
    """
    # the flip depends on x mod 2L only, so it is read from numerators reduced
    # mod 2 d_j, which stay within the bound of ``int_dtype``
    k = lat.reduce(lat.numerators(x), 2)
    return Twisted(lat.from_numerators(k), (eps + int(lat.weight_flip(k))) % 2)


def label_sort_key(lat: GramLattice, m: OrbifoldLabel) -> Key:
    """The integer key of a label: ``("D", k, eps)``, ``("N", k, k')`` or
    ``("T", k, eps)``, with ``k`` the Smith numerators of its cosets.  Keys
    sort in the global order: all Diag, then NonDiag, then Twisted."""
    if isinstance(m, NonDiag):
        return ("N", lat.numerators(m.lam), lat.numerators(m.mu))
    return ("D" if isinstance(m, Diag) else "T", lat.numerators(m.lam), m.eps)


def _label(lat: GramLattice, key: Key) -> OrbifoldLabel:
    """The label with this key: the inverse of ``label_sort_key``."""
    kind, k, last = key
    if kind == "N":
        return NonDiag(lat.from_numerators(k), lat.from_numerators(last))
    return (Diag if kind == "D" else Twisted)(lat.from_numerators(k), last)


def _key_tuples(batches: Iterable[Keys]) -> List[Key]:
    """Every key of the batches as a ``label_sort_key`` tuple."""
    return [
        (b.kind, tuple(x), tuple(y) if b.kind == "N" else y)
        for b in batches
        for x, y in zip(b.x.tolist(), b.y.tolist())
    ]


def _label_index(lat: GramLattice, keys: Keys) -> np.ndarray:
    """The position of each key in ``enumerate_modules``."""
    l, x = lat.det, lat.coset_index(keys.x)
    if keys.kind == "N":
        # the 2l Diag labels come first, then the cosets u < v row by row
        c = 2 * l + x * (2 * l - x - 3) // 2 + lat.coset_index(keys.y) - 1
    else:
        c = 2 * x + keys.y + (0 if keys.kind == "D" else 2 * l + l * (l - 1) // 2)
    return c.astype(np.intp)


def _pairs(lat: GramLattice, at: np.ndarray, p: np.ndarray, q: np.ndarray) -> List[Keys]:
    """The keys over each coset pair of numerator rows ``(p, q)``: both Diag
    labels where the cosets agree, else the one NonDiag label."""
    p, q = p % lat.divisors, q % lat.divisors
    ip, iq = lat.coset_index(p), lat.coset_index(q)
    swap = (ip > iq)[:, None]
    low, high = np.where(swap, q, p), np.where(swap, p, q)
    same = ip == iq
    if not same.any():
        return [Keys("N", at, low, high)]
    differ, at_d, x_d = ~same, at[same], p[same]
    diag_keys = [Keys("D", at_d, x_d, np.full(len(at_d), eps)) for eps in (0, 1)]
    return [Keys("N", at[differ], low[differ], high[differ])] + diag_keys


def _fuse(lat: GramLattice, kinds: str, xa, ya, xb, yb) -> List[Keys]:
    """The fusion rule on a batch of key pairs ``(a, b)`` of one kind pair
    ``kinds``, its letters sorted (``"DD"``, ``"DN"``, ... ``"TT"``), given as
    the arrays ``x`` and ``y`` of the keys of ``a`` and of ``b``: every key of
    each product ``a x b``, once per unit of multiplicity."""
    d = lat.divisors
    at = np.arange(len(xa))
    if kinds == "DD":
        return [Keys("D", at, (xa + xb) % d, (ya + yb) % 2)]
    if kinds == "DN":
        return _pairs(lat, at, xa + xb, xa + yb)
    if kinds == "DT":
        k = 2 * xa + xb
        return [Keys("T", at, k % d, (ya + yb + lat.weight_flip(k)) % 2)]
    if kinds == "NN":
        # both ways of pairing the cosets, as one batch of twice the length
        cat = np.concatenate
        return _pairs(lat, cat([at, at]), cat([xa + xb, ya + xb]), cat([ya + yb, xa + yb]))
    if kinds == "NT":
        # both parities over the coset of s, whatever its weight flip
        s = (xa + ya + xb) % d
        return [Keys("T", at, s, np.full(len(at), eps)) for eps in (0, 1)]
    # TT: a Diag label for each solution of 2w = s (mod L), its parity flipped
    # by the weight change of moving a's label by the lattice vector s - 2w
    s = xa + xb
    solvable, w = lat.halve(s)
    at_w = np.repeat(at[solvable], w.shape[1])
    w = w[solvable].reshape(-1, lat.dim)
    flip = lat.weight_flip(2 * xa[at_w] + xb[at_w] - 2 * w)
    out = [Keys("D", at_w, w, (ya[at_w] + yb[at_w] + flip) % 2)]
    # every other delta pairs with s - delta; emit each pair once, from its
    # smaller member (a solution pairs with itself and is skipped)
    delta = lat.discriminant
    other = (s[:, None] - delta) % d
    at_n, i = np.nonzero(lat.coset_index(other) > np.arange(len(delta)))
    return out + [Keys("N", at_n, delta[i], other[at_n, i])]


def in_label_order(
    reps: Sequence[T], d: Callable[[T, int], R], n: Callable[[T, T], R], t: Callable[[T, int], R]
) -> List[R]:
    """``d(x, eps)``, ``n(x, y)`` and ``t(x, eps)`` over the classes ``reps``
    of ``L*/L``, in the global label order: every ``x`` with both parities,
    then every pair ``x`` before ``y`` in ``reps``, then every ``x`` with both
    parities again.  The one definition of that order."""
    both = list(product(reps, (0, 1)))
    return [*starmap(d, both), *starmap(n, combinations(reps, 2)), *starmap(t, both)]


def enumerate_modules(lat: GramLattice) -> List[OrbifoldLabel]:
    """The complete duplicate-free list of irreducible labels, in order."""
    return in_label_order(lat.dual_mod_lattice, Diag, NonDiag, Twisted)


class Constituents(NamedTuple):
    """The ``2^d`` constituents of a module of kind ``kind`` (``"D"``, ``"N"``
    or ``"T"``), one row per class of ``L/2L`` in ``lattice_mod_two`` order:
    ``vl`` the numerators of the ``VlLabel`` mod ``2 d_j``; ``part`` those of
    the ``Split`` (D) or ``NonSplit`` (N) part, or the ``TwistedSplit``
    character as signs (T); ``flip`` the parity of the part's sign (D, T)."""

    kind: str
    vl: np.ndarray
    part: np.ndarray
    flip: Optional[np.ndarray]


def constituents(lat: GramLattice, m: OrbifoldLabel) -> Constituents:
    """The constituents of ``m`` over the product subalgebra, as integers.

    One per class ``alpha`` of ``L/2L``, on numerators: ``(2 lam + alpha,
    Split(alpha))``, ``(lam + mu + alpha, NonSplit(lam - mu + alpha))`` or
    ``(lam + alpha, TwistedSplit(chi_{lam + alpha}))``.  The split signs carry
    the per-coset alignment ``split_gauge_sign``; without it the vacuum sum
    would not close under fusion on lattices with odd off-diagonal Gram
    entries.  The signs are ``split_gauge_sign`` and ``weight_parity_sign``,
    read from what ``lattice_mod_two`` keeps for each ``alpha``.
    """
    kind, x, last = label_sort_key(lat, m)
    k, n, gauge, shift = lat.lattice_mod_two
    if kind == "N":
        # lam + mu + alpha, and lam - mu + alpha whose part is the smaller of it and its negative
        s, t, d2 = [u + v for u, v in zip(x, last)], [u - v for u, v in zip(x, last)], 2 * lat.divisors
        vl, a = (lat.as_rows([s, t])[:, None] + k) % d2
        return Constituents(kind, vl, lat.as_rows(list(map(min, a.tolist(), (-a % d2).tolist()))), None)
    if kind == "D":
        return Constituents(kind, (lat.as_rows([2 * c for c in x]) + k) % (2 * lat.divisors), k, gauge ^ last)
    # chi_{lam + alpha} is chi_lam flipped where <alpha, a_i> is odd; mod 2, <lam,alpha> + <alpha,alpha>/2
    # is the cross terms plus sum_i n_i (<lam,a_i> + <a_i,a_i>/2), whose term i is odd where chi_lam is -1
    chi = chi_of_pairings(lat, lat.pairings(m.lam))
    flip = gauge ^ (n @ [s < 0 for s in chi] + last) % 2
    return Constituents(kind, lat.as_rows(x) + k, shift * chi, flip)


def decompose_module(lat: GramLattice, m: OrbifoldLabel) -> List[Tuple[VlLabel, VlPlusLabel]]:
    """The ``constituents`` of an orbifold module as labels.  The first
    summand (``alpha = 0``) is the defining constituent used by ``induce``."""
    c = constituents(lat, m)
    rows, signs = c.part.tolist(), None if c.flip is None else (1 - 2 * c.flip).tolist()
    if c.kind == "N":
        parts: Iterable[VlPlusLabel] = (NonSplit(lat.from_numerators(k, 2)) for k in rows)
    elif c.kind == "D":
        parts = map(Split, [lat.from_numerators(k, 2) for k in rows], signs)
    else:
        parts = map(TwistedSplit, map(tuple, rows), signs)
    return [(VlLabel(lat.from_numerators(v, 2)), p) for v, p in zip(c.vl.tolist(), parts)]


def induce(lat: GramLattice, w: Tuple[VlLabel, VlPlusLabel]) -> Optional[Twisted]:
    """Lift a twisted-sector constituent to the orbifold module containing it.

    Fuses ``w`` with the 2^d currents whose direct sum is the orbifold
    algebra and reads off the label from the orbit.  Returns ``None`` when
    the character of the twisted half does not match the coset of the
    lattice half (the orbit is then not the restriction of any module).
    """
    v, t = w
    if not isinstance(t, TwistedSplit):
        raise TypeError("induction starts from a twisted-sector constituent")
    if chi_of_lambda(lat, v.coords) != t.chi:
        return None
    # the orbit element over the canonical coset lam of v comes from the one
    # current with alpha = lam - v (mod 2L), whose numerators are reduce(k) - k
    k = lat.numerators(v.coords)
    alpha = lat.from_numerators(tuple(map(sub, lat.reduce(k), k)), 2)
    # a Split x TwistedSplit product lies in the two halves of the shifted character
    u, chi = Split(alpha, split_gauge_sign(lat, alpha)), chi_shift(lat, t.chi, alpha)
    (piece_t,) = [c for c in (TwistedSplit(chi, s) for s in (1, -1)) if fusion_rule_vlplus(lat, u, t, c)]
    return Twisted(lat.from_numerators(k), 0 if piece_t.sign > 0 else 1)


# quantum dimension a + b*sqrt(l) of each label kind of both families, as (a, b)
_QDIM = {
    Diag: (1, 0),
    Split: (1, 0),
    NonDiag: (2, 0),
    NonSplit: (2, 0),
    Twisted: (0, 1),
    TwistedSplit: (0, 1),
}


def qdims_by_kind(lat: GramLattice) -> Dict[type, Tuple[int, int]]:
    """The quantum dimension ``a + b*sqrt(l)`` of each label kind as the pair
    ``(a, b)``: 1 for ``Diag``/``Split``, 2 for ``NonDiag``/``NonSplit`` and
    ``sqrt(l)`` for ``Twisted``/``TwistedSplit``, folded into ``a`` when ``l``
    is a perfect square so that equal dimensions are equal pairs."""
    r = math.isqrt(lat.det)
    return {kind: (a + b * r, 0) if r * r == lat.det else (a, b) for kind, (a, b) in _QDIM.items()}


def glob(lat: GramLattice) -> Tuple[int, int]:
    """Global dimension, the sum of squared quantum dimensions, as a pair."""
    q = qdims_by_kind(lat)
    counts = Counter(type(m) for m in enumerate_modules(lat)).items()
    return (
        sum(count * (q[k][0] ** 2 + lat.det * q[k][1] ** 2) for k, count in counts),
        sum(count * 2 * q[k][0] * q[k][1] for k, count in counts),
    )


def dual_orbifold(lat: GramLattice, m: OrbifoldLabel) -> OrbifoldLabel:
    """Contragredient label: negate the lattice data, keep the parity."""
    if isinstance(m, Diag):
        return diag(lat, vec_neg(m.lam), m.eps)
    if isinstance(m, NonDiag):
        return nondiag(lat, vec_neg(m.lam), vec_neg(m.mu))
    return twisted(lat, vec_neg(m.lam), m.eps)


def fusion_keys(lat: GramLattice, a: OrbifoldLabel, b: OrbifoldLabel) -> List[Tuple[Key, int]]:
    """The fusion product of two orbifold modules as ``(key, multiplicity)``
    pairs in the global label order.  The rule runs on a batch of this one pair."""
    (ka, xa, ya), (kb, xb, yb) = sorted((label_sort_key(lat, m) for m in (a, b)), key=lambda k: k[0])
    rows = [lat.as_rows([v]) for v in (xa, ya, xb, yb)]
    return sorted(Counter(_key_tuples(_fuse(lat, ka + kb, *rows))).items())


def fuse_orbifold(lat: GramLattice, a: OrbifoldLabel, b: OrbifoldLabel) -> Dict[OrbifoldLabel, int]:
    """Fusion product of two orbifold modules, in the global label order;
    every multiplicity is 1."""
    return {_label(lat, c): mult for c, mult in fusion_keys(lat, a, b)}


class FusionTable:
    """The multiplicities ``N[a][b][c]`` over the full label list, stored as
    their nonzero entries: ``cells`` are the flat indices ``(a*n + b)*n + c``
    in increasing order, ``v`` the counts, ``a``, ``b`` and ``c`` the split
    indices, and the entries of the pair ``(a, b)`` are
    ``ptr[a*n + b]:ptr[a*n + b + 1]``."""

    def __init__(self, lat: GramLattice, labels: List[OrbifoldLabel], cells: np.ndarray, v: np.ndarray):
        n = len(labels)
        self.lattice = lat
        self.labels = labels
        self.index = {m: i for i, m in enumerate(labels)}
        self.cells, self.v = cells, np.asarray(v, dtype=np.int64)
        ab, self.c = np.divmod(cells, n)
        self.a, self.b = np.divmod(ab, n)
        self.ptr = np.searchsorted(cells, np.arange(0, n**3 + 1, n))

    def at(self, cells: np.ndarray) -> np.ndarray:
        """``N`` at the flat indices ``cells``, 0 where the table has no entry."""
        if not len(self.cells):
            return np.zeros(np.shape(cells), dtype=np.int64)
        i = np.minimum(np.searchsorted(self.cells, cells), len(self.cells) - 1)
        return np.where(self.cells[i] == cells, self.v[i], 0)

    @cached_property
    def tensor(self) -> np.ndarray:
        """The read-only int16 cube ``N[a, b, c]``, for inspection; the package reads the entries."""
        n = len(self.labels)
        cube = np.zeros((n, n, n), dtype=np.int16)
        cube.reshape(-1)[self.cells] = self.v
        cube.flags.writeable = False
        return cube

    @cached_property
    def dual(self) -> np.ndarray:
        """``dual[a]`` is the index of the dual of label ``a``."""
        return np.array([self.index[dual_orbifold(self.lattice, m)] for m in self.labels])


def label_count(lat: GramLattice) -> int:
    """The number ``n = (l^2 + 7l)/2`` of labels, known from ``l`` alone."""
    return (lat.det**2 + 7 * lat.det) // 2


def entry_count(lat: GramLattice) -> int:
    """About how many nonzero entries the fusion table has (within 4% at l = 16 to 80)."""
    return 2 * label_count(lat) ** 2


def labels_size(lat: GramLattice) -> str:
    """How a guard message names the size of the label list."""
    return f"l = {lat.det} (n = {label_count(lat)} labels)"


def guard_memory(what: str, size: str, need: int) -> None:
    """Raise ``TableTooLarge`` when ``what`` needs about ``need`` bytes, above
    ``MEMORY_LIMIT``.  The estimate is made from the input ``size`` alone,
    before any of the work is done."""
    if need > MEMORY_LIMIT:
        limit = f"above the limit of {MEMORY_LIMIT / 2**30:g} GiB"
        raise TableTooLarge(f"{what} for {size} needs about {need / 2**30:.1f} GiB, {limit}")


def fusion_table(lat: GramLattice) -> FusionTable:
    """The complete fusion table, from the batched rule on every pair of labels."""
    # peak RSS above the import baseline, per entry: 70, 123 and 173 bytes at
    # l = 64 on ranks 1, 4 and 6 (the rule's rank-d numerator rows), 67 at l = 80
    guard_memory("the fusion table", labels_size(lat), entry_count(lat) * (54 + 21 * lat.dim))
    labels = enumerate_modules(lat)
    n, l, disc = len(labels), lat.det, lat.discriminant
    u, v = np.triu_indices(l, 1)
    eps = np.tile([0, 1], l)
    # the first index and the keys x, y of each kind's labels, in label order
    blocks = {
        "D": (0, disc.repeat(2, 0), eps),
        "N": (2 * l, disc[u], disc[v]),
        "T": (2 * l + len(u), disc.repeat(2, 0), eps),
    }
    cells = []  # the flat index of every emitted (a, b, c) and (b, a, c)
    for ka, kb in combinations_with_replacement("DNT", 2):
        (first_a, xa, ya), (first_b, xb, yb) = blocks[ka], blocks[kb]
        # every pair i <= j of labels of these kinds
        pa, pb = np.triu_indices(len(xa)) if ka == kb else np.indices((len(xa), len(xb))).reshape(2, -1)
        for keys in _fuse(lat, ka + kb, xa[pa], ya[pa], xb[pb], yb[pb]):
            i, j, c = first_a + pa[keys.at], first_b + pb[keys.at], _label_index(lat, keys)
            cells += [(i * n + j) * n + c, ((j * n + i) * n + c)[i != j]]
    # count, not set: a label emitted twice shows as a 2
    return FusionTable(lat, labels, *np.unique(np.concatenate(cells), return_counts=True))
