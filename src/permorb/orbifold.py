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
``<lam,beta> + <beta,beta>/2 (mod 2)``, so the parity flips exactly when
``weight_parity_sign(lam, beta) == -1``.  The ``twisted`` constructor
performs this resolution; fusion formulas below produce expressions and
canonicalize through it.  Dropping the flip breaks associativity already
in rank 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .base import (
    NonSplit,
    Split,
    TwistedSplit,
    VlLabel,
    VlPlusLabel,
    fuse_split_twisted,
    nonsplit_label,
    split_label,
    vl_label,
)
from .characters import chi_of_lambda, split_gauge_sign, weight_parity_sign
from .errors import DegeneratePair, TableTooLarge
from .lattice import (
    GramLattice,
    Modulus,
    Vector,
    canonicalize,
    halve_mod_L,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from .qsqrt import QSqrt

__all__ = [
    "Diag",
    "NonDiag",
    "Twisted",
    "OrbifoldLabel",
    "diag",
    "nondiag",
    "twisted",
    "enumerate_modules",
    "decompose_module",
    "induce",
    "qdims_by_kind",
    "qdim_orbifold",
    "glob",
    "dual_orbifold",
    "is_simple_current",
    "fuse_orbifold",
    "FusionTable",
    "fusion_table",
    "label_sort_key",
]


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


def diag(lat: GramLattice, x: Vector, eps: int) -> Diag:
    return Diag(canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE), eps % 2)


def nondiag(lat: GramLattice, x: Vector, y: Vector) -> NonDiag:
    a = canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE)
    b = canonicalize(lat, y, Modulus.DUAL_MOD_LATTICE)
    if a == b:
        raise DegeneratePair("the two cosets of an off-diagonal label must differ")
    if lat.sort_key(b) < lat.sort_key(a):
        a, b = b, a
    return NonDiag(a, b)


def twisted(lat: GramLattice, x: Vector, eps: int) -> Twisted:
    """Resolve a twisted-label expression to its canonical form.

    The parity flips when moving ``x`` to its canonical representative
    crosses a translation of odd weight parity; see the module docstring.
    """
    lam = canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE)
    beta = vec_sub(x, lam)
    if weight_parity_sign(lat, lam, beta) < 0:
        eps = eps + 1
    return Twisted(lam, eps % 2)


def label_sort_key(lat: GramLattice, m: OrbifoldLabel):
    """Global deterministic order: all Diag, then NonDiag, then Twisted."""
    if isinstance(m, Diag):
        return (0, lat.sort_key(m.lam), m.eps)
    if isinstance(m, NonDiag):
        return (1, lat.sort_key(m.lam), lat.sort_key(m.mu))
    return (2, lat.sort_key(m.lam), m.eps)


def enumerate_modules(lat: GramLattice) -> List[OrbifoldLabel]:
    """The complete duplicate-free list of irreducible labels, in order."""
    reps = lat.dual_mod_lattice
    out: List[OrbifoldLabel] = []
    for lam in reps:
        for eps in (0, 1):
            out.append(Diag(lam, eps))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            out.append(NonDiag(reps[i], reps[j]))
    for lam in reps:
        for eps in (0, 1):
            out.append(Twisted(lam, eps))
    return out


def decompose_module(lat: GramLattice, m: OrbifoldLabel) -> List[Tuple[VlLabel, VlPlusLabel]]:
    """The 2^d constituents of an orbifold module over the product subalgebra.

    The first summand always corresponds to the zero coset of 2L in L and
    is the defining constituent used by ``induce``.  The split-label signs
    carry the per-coset alignment ``split_gauge_sign``; without it the sum
    for the vacuum label would not be closed under fusion on lattices with
    odd off-diagonal Gram entries.
    """
    out: List[Tuple[VlLabel, VlPlusLabel]] = []
    if isinstance(m, NonDiag):
        s = vec_add(m.lam, m.mu)
        dlt = vec_sub(m.lam, m.mu)
        for alpha in lat.lattice_mod_two:
            out.append(
                (vl_label(lat, vec_add(s, alpha)), nonsplit_label(lat, vec_add(dlt, alpha)))
            )
    elif isinstance(m, Diag):
        two_lam = vec_scale(2, m.lam)
        base_sign = -1 if m.eps else 1
        for alpha in lat.lattice_mod_two:
            sign = base_sign * split_gauge_sign(lat, alpha)
            out.append((vl_label(lat, vec_add(two_lam, alpha)), split_label(lat, alpha, sign)))
    else:
        base_sign = -1 if m.eps else 1
        for alpha in lat.lattice_mod_two:
            x = vec_add(m.lam, alpha)
            sign = base_sign * weight_parity_sign(lat, m.lam, alpha)
            out.append((vl_label(lat, x), TwistedSplit(chi_of_lambda(lat, x), sign)))
    return out


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
    lam = canonicalize(lat, v.coords, Modulus.DUAL_MOD_LATTICE)
    # the orbit element sitting over the canonical coset determines the label;
    # it comes from the unique current with alpha = lam - v (mod 2L)
    alpha = canonicalize(lat, vec_sub(lam, v.coords), Modulus.LATTICE_MOD_2LATTICE)
    current = split_label(lat, alpha, split_gauge_sign(lat, alpha))
    piece_v = vl_label(lat, vec_add(v.coords, alpha))
    piece_t = fuse_split_twisted(lat, current, t)
    assert piece_v == vl_label(lat, lam)
    return Twisted(lam, 0 if piece_t.sign > 0 else 1)


# quantum dimension a + b*sqrt(l) of each label kind of both families, as (a, b)
_QDIM = {
    Diag: (1, 0),
    Split: (1, 0),
    NonDiag: (2, 0),
    NonSplit: (2, 0),
    Twisted: (0, 1),
    TwistedSplit: (0, 1),
}


def qdims_by_kind(lat: GramLattice) -> Dict[type, QSqrt]:
    """The quantum dimension shared by every label of each kind: 1 for
    ``Diag`` and ``Split``, 2 for ``NonDiag`` and ``NonSplit``, and
    ``sqrt(l)`` for ``Twisted`` and ``TwistedSplit``."""
    return {kind: QSqrt(a, b, lat.det) for kind, (a, b) in _QDIM.items()}


def qdim_orbifold(lat: GramLattice, m: OrbifoldLabel) -> QSqrt:
    return QSqrt(*_QDIM[type(m)], lat.det)


def glob(lat: GramLattice) -> QSqrt:
    """Global dimension: the sum of squared quantum dimensions."""
    q = qdims_by_kind(lat)
    total = QSqrt.of(0, lat.det)
    for kind, count in Counter(type(m) for m in enumerate_modules(lat)).items():
        total = total + count * q[kind] * q[kind]
    return total


def dual_orbifold(lat: GramLattice, m: OrbifoldLabel) -> OrbifoldLabel:
    """Contragredient label: negate the lattice data, keep the parity."""
    if isinstance(m, Diag):
        return diag(lat, vec_neg(m.lam), m.eps)
    if isinstance(m, NonDiag):
        return nondiag(lat, vec_neg(m.lam), vec_neg(m.mu))
    return twisted(lat, vec_neg(m.lam), m.eps)


def is_simple_current(lat: GramLattice, m: OrbifoldLabel) -> bool:
    return qdim_orbifold(lat, m) == QSqrt.of(1, lat.det)


def _contribution(lat: GramLattice, x: Vector, y: Vector) -> List[OrbifoldLabel]:
    cx = canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE)
    cy = canonicalize(lat, y, Modulus.DUAL_MOD_LATTICE)
    if cx == cy:
        return [Diag(cx, 0), Diag(cx, 1)]
    return [nondiag(lat, x, y)]


def fuse_orbifold(lat: GramLattice, a: OrbifoldLabel, b: OrbifoldLabel) -> Dict[OrbifoldLabel, int]:
    """Fusion product of two orbifold modules; every multiplicity is 1.

    Case analysis on the unordered kind pair.  All lattice sums are formed
    on canonical representatives and the results re-canonicalized through
    the resolving constructors, so the outcome is representative-free.
    """
    rank = {Diag: 0, NonDiag: 1, Twisted: 2}
    if rank[type(a)] > rank[type(b)]:
        a, b = b, a
    out: Dict[OrbifoldLabel, int] = {}

    def add(label: OrbifoldLabel):
        out[label] = out.get(label, 0) + 1

    if isinstance(a, Diag) and isinstance(b, Diag):
        add(diag(lat, vec_add(a.lam, b.lam), a.eps + b.eps))
    elif isinstance(a, Diag) and isinstance(b, NonDiag):
        add(nondiag(lat, vec_add(a.lam, b.lam), vec_add(a.lam, b.mu)))
    elif isinstance(a, Diag) and isinstance(b, Twisted):
        add(twisted(lat, vec_add(vec_scale(2, a.lam), b.lam), a.eps + b.eps))
    elif isinstance(a, NonDiag) and isinstance(b, NonDiag):
        for c in _contribution(lat, vec_add(a.lam, b.lam), vec_add(a.mu, b.mu)):
            add(c)
        for c in _contribution(lat, vec_add(a.mu, b.lam), vec_add(a.lam, b.mu)):
            add(c)
    elif isinstance(a, NonDiag) and isinstance(b, Twisted):
        s = vec_add(vec_add(a.lam, a.mu), b.lam)
        add(twisted(lat, s, 0))
        add(twisted(lat, s, 1))
    else:
        assert isinstance(a, Twisted) and isinstance(b, Twisted)
        s = vec_add(a.lam, b.lam)
        solutions = halve_mod_L(lat, s) or ()
        for w in solutions:
            shift = vec_sub(s, vec_scale(2, w))
            flip = 1 if weight_parity_sign(lat, a.lam, shift) < 0 else 0
            add(Diag(w, (a.eps + b.eps + flip) % 2))
        # every other delta pairs with s - delta; emit each pair once, from its
        # smaller member (a solution pairs with itself and is skipped)
        for delta in lat.dual_mod_lattice:
            other = canonicalize(lat, vec_sub(s, delta), Modulus.DUAL_MOD_LATTICE)
            if lat.sort_key(delta) < lat.sort_key(other):
                add(NonDiag(delta, other))
    return out


class FusionTable:
    """Dense multiplicity tensor ``N[a][b][c]`` over the full label list."""

    def __init__(self, lat: GramLattice, labels: List[OrbifoldLabel], tensor: np.ndarray):
        self.lattice = lat
        self.labels = labels
        self.index = {m: i for i, m in enumerate(labels)}
        self.tensor = tensor

    def multiplicity(self, a: OrbifoldLabel, b: OrbifoldLabel, c: OrbifoldLabel) -> int:
        return int(self.tensor[self.index[a], self.index[b], self.index[c]])


def fusion_table(lat: GramLattice, max_l: int = 64) -> FusionTable:
    """Assemble the complete fusion tensor; guarded by the discriminant size."""
    if lat.det > max_l:
        raise TableTooLarge(
            f"discriminant group has order {lat.det}, above the guard {max_l}"
        )
    labels = enumerate_modules(lat)
    index = {m: i for i, m in enumerate(labels)}
    n = len(labels)
    tensor = np.zeros((n, n, n), dtype=np.int16)
    for i in range(n):
        for j in range(i, n):
            prod = fuse_orbifold(lat, labels[i], labels[j])
            for c, mult in prod.items():
                tensor[i, j, index[c]] = mult
                tensor[j, i, index[c]] = mult
    return FusionTable(lat, labels, tensor)
