"""Sign-valued characters of ``L/2L`` attached to dual vectors.

A character is stored as an explicit vector of signs on the basis vectors,
``signs[i] = chi(alpha_i)``; there are exactly ``2^d`` of them and equality
is a componentwise comparison.  The character attached to a dual vector
``lam`` has ``signs[i] = (-1)^(<a_i,a_i>/2 + <lam,a_i>)`` and two dual
vectors give the same character exactly when they differ by an element
of ``2L*``.

Evaluation at a composite lattice vector is by homomorphic extension,
``chi(a+b) = chi(a) chi(b)``.  Note that the closed generator formula does
not extend verbatim to composite vectors: for ``a = sum n_i a_i`` the
quadratic quantity ``<a,a>/2`` differs from ``sum n_i <a_i,a_i>/2`` by the
cross terms ``sum_{i<j} n_i n_j <a_i,a_j>``.  Both parities matter
downstream, so the quadratic variant and the correction sign are exposed
here as well (``weight_parity_sign`` and ``split_gauge_sign``).  Each rule is
one integer formula in the pairings ``p = G lam`` and the coordinates ``n``
of a lattice vector; ``orbifold.constituents`` takes the same formulas mod 2
over all of ``L/2L`` at once.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence, Tuple

from .errors import NonIntegralPairing, NotInLattice
from .lattice import GramLattice, Vector, inner

SignCharacter = Tuple[int, ...]

__all__ = [
    "SignCharacter",
    "chi_of_lambda",
    "chi_of_pairings",
    "chi_eval",
    "chi_shift",
    "pi_pairing",
    "weight_parity_sign",
    "split_gauge_sign",
    "format_character",
]


def _sign(t: int) -> int:
    return -1 if t % 2 else 1


def _lattice_coords(lat: GramLattice, alpha: Vector, message: str) -> Tuple[int, ...]:
    if not lat.in_lattice(alpha):
        raise NotInLattice(message)
    return tuple(map(int, alpha))


def _half_norm(lat: GramLattice, n: Sequence[int]) -> int:
    # <n,n>/2 for integer coordinates; an integer because L is even
    return sum(a * sum(map(mul, row, n)) for a, row in zip(n, lat.gram)) // 2


def chi_of_pairings(lat: GramLattice, p: Sequence[int]) -> SignCharacter:
    """The character attached to a dual vector with pairings ``p = G lam``."""
    return tuple(_sign(lat.gram[i][i] // 2 + c) for i, c in enumerate(p))


def chi_of_lambda(lat: GramLattice, lam: Vector) -> SignCharacter:
    """The character attached to a dual vector, as a sign vector."""
    return chi_of_pairings(lat, lat.pairings(lam))


def chi_eval(lat: GramLattice, chi: SignCharacter, alpha: Vector) -> int:
    """Evaluate a character at a lattice vector by homomorphic extension."""
    n = _lattice_coords(lat, alpha, "characters of L/2L evaluate on lattice vectors")
    return _sign(sum(c for s, c in zip(chi, n) if s < 0))


def chi_shift(lat: GramLattice, chi: SignCharacter, lam: Vector) -> SignCharacter:
    """Twist a character by a dual vector: multiply signs[i] by (-1)^<lam,a_i>."""
    return tuple(s * _sign(p) for s, p in zip(chi, lat.pairings(lam)))


def pi_pairing(lat: GramLattice, lam: Vector, mu: Vector) -> int:
    """The sign ``(-1)^<lam,mu>``; the pairing must be integral."""
    t = inner(lat, lam, mu)
    if t.denominator != 1:
        raise NonIntegralPairing(f"<lam,mu> = {t} is not an integer")
    return _sign(t.numerator)


def weight_parity_sign(lat: GramLattice, lam: Vector, alpha: Vector) -> int:
    """The sign ``(-1)^(<lam,alpha> + <alpha,alpha>/2)`` for ``alpha`` in ``L``.

    This is the quadratic companion of ``chi_eval``: it governs whether the
    conformal-weight class of a twisted summand shifts by a half-integer
    when its coset label is translated by ``alpha``, so it decides all the
    plus/minus bookkeeping in the twisted sector.  It depends only on
    ``alpha`` mod ``2L`` and on ``lam`` mod ``2L*``.
    """
    n = _lattice_coords(lat, alpha, "weight parity is defined for lattice translations")
    return _sign(sum(map(mul, lat.pairings(lam), n)) + _half_norm(lat, n))


def split_gauge_sign(lat: GramLattice, alpha: Vector) -> int:
    """Alignment sign ``(-1)^(sum_{i<j} n_i n_j <a_i,a_j>)`` on ``L/2L``.

    The plus/minus labels of the split untwisted modules are a convention
    made coset by coset.  This sign is the unique quadratic function on
    ``L/2L`` that vanishes on the basis vectors and whose polarization is
    the mod-2 inner product; it aligns the per-coset conventions so that
    the diagonal sum of split modules closes under fusion.  Equivalently it
    is the ratio ``weight_parity_sign(lam, alpha) / chi_eval(chi_lam, alpha)``
    for any ``lam``.  Trivial whenever all off-diagonal Gram entries are
    even (in particular in rank 1).
    """
    n = _lattice_coords(lat, alpha, "gauge sign is defined on lattice vectors")
    return _sign(_half_norm(lat, n) - sum(c * c * lat.gram[i][i] // 2 for i, c in enumerate(n)))


def format_character(chi: SignCharacter) -> str:
    """Render as a string of '+'/'-' of length d."""
    return "".join("+" if s > 0 else "-" for s in chi)
