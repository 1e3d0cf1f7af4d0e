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
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .characters import SignCharacter, chi_eval, chi_shift, pi_pairing
from .lattice import GramLattice, Vector

__all__ = [
    "VlLabel",
    "NonSplit",
    "Split",
    "TwistedSplit",
    "VlPlusLabel",
    "is_admissible_triple",
    "fusion_rule_vlplus",
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
