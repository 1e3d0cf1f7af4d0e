"""Labels and fusion products for the two building-block module categories.

Scaled coordinates are used throughout: all data of the rescaled lattice
``sqrt(2)L`` is held in plain ``L``-coordinates, so a stored vector ``x``
stands for the coset ``x/sqrt(2) + sqrt(2)L``.  Every membership condition
"in sqrt(2)L" therefore becomes "in 2L" here, once and centrally.

Irreducible labels:

* ``VlLabel`` - modules of the plain lattice algebra, one per coset of
  ``2L`` in ``L*`` (``l * 2^d`` of them); fusion is coset addition.
* ``NonSplit(x)`` - the irreducible fixed-point modules with ``x`` not in
  ``L``; the label identifies ``x`` with ``-x`` and with ``x + 2L``.
* ``Split(x, sign)`` - the two halves of the coset module for ``x`` in
  ``L``, distinguished by an involution eigenvalue.
* ``TwistedSplit(chi, sign)`` - the two halves of the twisted module
  attached to each of the ``2^d`` characters of ``L/2L``.

The pair fusion rules are all multiplicity-free, and the rule table is
invariant under every permutation of the three slots because all labels
are self-dual.  ``fusion_rule_vlplus`` encodes the table in that symmetric
form; ``fuse_vlplus`` computes a product by enumerating candidate third
slots and testing each triple against the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Union

from .characters import (
    SignCharacter,
    all_characters,
    chi_eval,
    chi_shift,
    pi_pairing,
)
from .lattice import (
    GramLattice,
    Modulus,
    Vector,
    canonicalize,
    format_vector,
    vec_add,
    vec_neg,
)

__all__ = [
    "VlLabel",
    "NonSplit",
    "Split",
    "TwistedSplit",
    "VlPlusLabel",
    "vl_label",
    "nonsplit_label",
    "nonsplit_of_numerators",
    "split_label",
    "is_admissible_triple",
    "fuse_vl",
    "dual_base",
    "fusion_rule_vlplus",
    "fuse_vlplus",
    "all_vl_labels",
    "all_vlplus_labels",
]


@dataclass(frozen=True)
class VlLabel:
    """Module of the plain rescaled-lattice algebra: a coset of 2L in L*."""

    coords: Vector


@dataclass(frozen=True)
class NonSplit:
    """Fixed-point module that stays irreducible; x identified with -x mod 2L."""

    coords: Vector


@dataclass(frozen=True)
class Split:
    """One involution eigenspace of the coset module for x in L."""

    coords: Vector
    sign: int


@dataclass(frozen=True)
class TwistedSplit:
    """One involution eigenspace of the twisted module for a character."""

    chi: SignCharacter
    sign: int


VlPlusLabel = Union[NonSplit, Split, TwistedSplit]


def vl_label(lat: GramLattice, x: Vector) -> VlLabel:
    return VlLabel(canonicalize(lat, x, Modulus.DUAL_MOD_2LATTICE))


def nonsplit_of_numerators(lat: GramLattice, k: Sequence[int]) -> NonSplit:
    """The non-split label of numerators ``k`` (not in ``L``): min(k, -k) mod 2L."""
    return NonSplit(lat.from_numerators(min(lat.reduce(k, 2), lat.reduce(vec_neg(k), 2)), 2))


def nonsplit_label(lat: GramLattice, x: Vector) -> NonSplit:
    """Canonical non-split label: the smaller of x and -x mod 2L.

    Raises ``NotInDual`` outside ``L*``, and ``ValueError`` for ``x`` in ``L``,
    which labels a split module instead.
    """
    k = lat.numerators(x)
    if lat.in_lattice(x):
        raise ValueError(f"({format_vector(x)}) lies in L, which labels a split module")
    return nonsplit_of_numerators(lat, k)


def split_label(lat: GramLattice, x: Vector, sign: int) -> Split:
    x = canonicalize(lat, x, Modulus.LATTICE_MOD_2LATTICE)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return Split(x, sign)


def is_admissible_triple(lat: GramLattice, lam: Vector, mu: Vector, gam: Vector) -> bool:
    """Whether p*lam + q*mu + r*gam lies in 2L for some signs p,q,r.

    The global sign is quotiented out, so only the four relative patterns
    are tested.
    """
    a, b, c = (lat.numerators(v) for v in (lam, mu, gam))
    # a dual vector lies in 2L exactly when its numerators vanish mod 2 d_j
    return any(
        not any(lat.reduce([x + q * y + r * z for x, y, z in zip(a, b, c)], 2))
        for q in (1, -1)
        for r in (1, -1)
    )


def fuse_vl(lat: GramLattice, a: VlLabel, b: VlLabel) -> VlLabel:
    """Fusion of plain lattice-algebra modules: coset addition mod 2L."""
    return vl_label(lat, vec_add(a.coords, b.coords))


def dual_base(lat: GramLattice, m):
    """Contragredient label: negation for VlLabel, identity for the rest."""
    if isinstance(m, VlLabel):
        return vl_label(lat, vec_neg(m.coords))
    return m


def fusion_rule_vlplus(lat: GramLattice, m1: VlPlusLabel, m2: VlPlusLabel, m3: VlPlusLabel) -> int:
    """Fusion multiplicity (0 or 1) of a triple of fixed-point labels.

    The table is stated once in a form symmetric under all six orderings of
    the slots; symmetry in the first two arguments and self-duality of every
    label make this equivalent to the asymmetric case listing.
    """
    labels = [m1, m2, m3]
    twisted = [m for m in labels if isinstance(m, TwistedSplit)]
    plain = [m for m in labels if not isinstance(m, TwistedSplit)]

    if len(twisted) == 2:
        (t1, t2), (u,) = twisted, plain
        shifted = chi_shift(lat, t1.chi, u.coords)
        if shifted != t2.chi:
            return 0
        if isinstance(u, NonSplit):
            return 1
        need = chi_eval(lat, t1.chi, u.coords)
        return 1 if u.sign * t1.sign * t2.sign == need else 0

    if twisted:
        return 0

    ns = [m for m in labels if isinstance(m, NonSplit)]
    sp = [m for m in labels if isinstance(m, Split)]
    coords = [m.coords for m in labels]

    if len(ns) == 3 or len(ns) == 2:
        return 1 if is_admissible_triple(lat, *coords) else 0
    if len(ns) == 1:
        return 0
    # three split labels: lattice parts must close up and the involution
    # eigenvalues multiply to the parity of the inner product of any two parts
    if not is_admissible_triple(lat, *coords):
        return 0
    need = pi_pairing(lat, sp[0].coords, sp[1].coords)
    have = sp[0].sign * sp[1].sign * sp[2].sign
    return 1 if have == need else 0


def _sum_candidates(lat: GramLattice, a: VlPlusLabel, b: VlPlusLabel) -> Iterable[Vector]:
    reps_a = [a.coords] if isinstance(a, Split) else [a.coords, vec_neg(a.coords)]
    reps_b = [b.coords] if isinstance(b, Split) else [b.coords, vec_neg(b.coords)]
    for ra in reps_a:
        for rb in reps_b:
            yield vec_add(ra, rb)


def _candidate_targets(lat: GramLattice, a: VlPlusLabel, b: VlPlusLabel) -> List[VlPlusLabel]:
    """A finite superset of the possible third slots for the pair (a, b)."""
    a_tw, b_tw = isinstance(a, TwistedSplit), isinstance(b, TwistedSplit)
    out: List[VlPlusLabel] = []
    seen = set()

    def push(lab):
        if lab not in seen:
            seen.add(lab)
            out.append(lab)

    if a_tw and b_tw:
        # untwisted outputs; the character shift pins the lattice part mod 2L*
        for x in lat.dual_mod_two_lattice:
            if chi_shift(lat, a.chi, x) != b.chi:
                continue
            if lat.in_lattice(x):
                push(split_label(lat, x, 1))
                push(split_label(lat, x, -1))
            else:
                push(nonsplit_label(lat, x))
    elif a_tw or b_tw:
        t, u = (a, b) if a_tw else (b, a)
        chi2 = chi_shift(lat, t.chi, u.coords)
        push(TwistedSplit(chi2, 1))
        push(TwistedSplit(chi2, -1))
    else:
        for s in _sum_candidates(lat, a, b):
            if lat.in_lattice(s):
                push(split_label(lat, s, 1))
                push(split_label(lat, s, -1))
            else:
                push(nonsplit_label(lat, s))
    return out


def fuse_vlplus(lat: GramLattice, a: VlPlusLabel, b: VlPlusLabel) -> Dict[VlPlusLabel, int]:
    """Fusion product of two fixed-point labels as a multiset (all mult. 1)."""
    return {
        c: 1 for c in _candidate_targets(lat, a, b) if fusion_rule_vlplus(lat, a, b, c)
    }


def all_vl_labels(lat: GramLattice) -> List[VlLabel]:
    return [VlLabel(x) for x in lat.dual_mod_two_lattice]


def all_vlplus_labels(lat: GramLattice) -> List[VlPlusLabel]:
    """Every fixed-point label, deduplicated and in a deterministic order."""
    out: List[VlPlusLabel] = []
    seen = set()
    for x in lat.dual_mod_two_lattice:
        if lat.in_lattice(x):
            continue
        lab = nonsplit_label(lat, x)
        if lab not in seen:
            seen.add(lab)
            out.append(lab)
    for x in lat.lattice_mod_two:
        for sign in (1, -1):
            out.append(split_label(lat, x, sign))
    for chi in all_characters(lat):
        for sign in (1, -1):
            out.append(TwistedSplit(chi, sign))
    return out
