"""Exact integer and rational lattice arithmetic.

Everything is carried out in coordinates with respect to the fixed basis
``alpha_1, ..., alpha_d`` of the lattice ``L``: lattice elements are integer
vectors, dual-lattice elements are rational vectors, and all membership
tests reduce to integrality tests.  No floating point is used anywhere.

The discriminant group ``L*/L`` and the related quotients ``L/2L`` and
``L*/2L`` are handled through the Smith normal form of the Gram matrix: with
``U G V = D`` and ``D = diag(d_1, ..., d_d)``, the columns of ``V`` scaled by
``1/d_j`` generate ``L*`` over ``L``.  A dual vector ``x`` is named by its
integer Smith numerators ``k = U G x``, so that ``k_j = d_j y_j`` for the
Smith coordinates ``y = V^-1 x``; ``x`` lies in ``L*`` exactly when ``k`` is
integral.  Its class in ``L*/L`` (``L*/2L``) is ``k`` reduced mod ``d_j``
(mod ``2 d_j``), and the canonical representative of a class is ``V y`` for
the reduced numerators.  Lexicographic order of reduced numerators is the
global Smith order.  ``L*/L`` is a plain tuple of canonical representatives
enumerated in it (``dual_mod_lattice``); ``L/2L`` is kept only as arrays
over ``y`` in ``{0,1}^d``: the numerators ``D y`` and the parities and signs
the sign rules read (``lattice_mod_two``); ``L*/2L`` is not enumerated.
The bilinear form on numerators is the integer matrix ``smith_gram``.

For array code ``L*/L`` has one numeric form: the ``l x d`` array
``discriminant`` of reduced numerators in Smith order, whose row number is
the mixed-radix value ``coset_index`` of the row.  Array methods take
numerators as rows of an integer array of dtype ``int_dtype``: int64 when
every integer they form provably fits, Python integers (object) otherwise.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NotEven,
    NotInDual,
    NotInLattice,
    NotPositiveDefinite,
    NotSymmetric,
)

Vector = Tuple[Fraction, ...]
IntMatrix = Tuple[Tuple[int, ...], ...]

__all__ = [
    "Vector",
    "GramLattice",
    "Modulus",
    "smith_normal_form",
    "validate_lattice",
    "inner",
    "canonicalize",
    "halve_mod_L",
    "vector",
    "vec_neg",
    "format_vector",
]


# ---------------------------------------------------------------------------
# small vector helpers


def vector(coords: Iterable) -> Vector:
    """Coerce an iterable of rationals/ints into an exact coordinate vector."""
    return tuple(Fraction(c) for c in coords)


def vec_neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def format_vector(x: Vector) -> str:
    return ",".join(str(c) for c in x)


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form of a square integer matrix.

    Returns unimodular ``U``, diagonal ``D`` and unimodular ``V`` with
    ``U @ A @ V == D``, the diagonal entries non-negative and each dividing
    the next.  Works entirely over the integers with arbitrary precision.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatch("Smith normal form expects a square matrix")
    # rows [D | U] over rows [V | 0]: an operation on the top rows updates D
    # and U together, one on the left columns updates D and V together
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    m += [[int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    for t in range(n):
        while True:
            # move a nonzero entry of smallest magnitude, the first in
            # row-major order, to the pivot slot
            nonzero = [(abs(m[i][j]), i, j) for i in range(t, n) for j in range(t, n) if m[i][j]]
            if not nonzero:
                break
            _, pi, pj = min(nonzero)
            m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            if m[t][t] < 0:
                m[t] = [-a for a in m[t]]
            p = m[t][t]
            for i in range(t + 1, n):
                q = m[i][t] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            for j in range(t + 1, n):
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[i][t] or m[t][i] for i in range(t + 1, n)):
                continue
            # pivot must divide every remaining entry for the chain d_i | d_{i+1}
            offender = next((i for i in range(t + 1, n) for j in range(t + 1, n) if m[i][j] % p), None)
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
    return (
        tuple(tuple(row[n:]) for row in m[:n]),
        tuple(tuple(row[:n]) for row in m[:n]),
        tuple(tuple(row[:n]) for row in m[n:]),
    )


# ---------------------------------------------------------------------------
# quotients


class Modulus(Enum):
    """Which quotient a coset computation refers to."""

    DUAL_MOD_LATTICE = "L*/L"
    LATTICE_MOD_2LATTICE = "L/2L"
    DUAL_MOD_2LATTICE = "L*/2L"


class GramLattice:
    """A positive-definite even lattice given by its integer Gram matrix.

    Immutable after construction: the Smith data is computed once, and the
    quotient tuples are cached properties derived from it alone, so
    instances are safe for concurrent read access.
    """

    def __init__(self, gram: Sequence[Sequence[int]]):
        gram = tuple(tuple(int(x) for x in row) for row in gram)
        d = len(gram)
        if d == 0:
            raise NotPositiveDefinite("rank 0 lattice is not allowed")
        for row in gram:
            if len(row) != d:
                raise NotSymmetric("Gram matrix must be square")
        for i in range(d):
            for j in range(i + 1, d):
                if gram[i][j] != gram[j][i]:
                    raise NotSymmetric(f"entry ({i},{j}) differs from ({j},{i})")
        for i in range(d):
            if gram[i][i] % 2:
                raise NotEven(f"diagonal entry ({i},{i}) = {gram[i][i]} is odd")
        # fraction-free elimination without pivoting: while every earlier
        # pivot is positive, the pivot a[k][k] is the leading (k+1)x(k+1) minor
        a, prev = [list(row) for row in gram], 1
        for k in range(d):
            if a[k][k] <= 0:
                raise NotPositiveDefinite(f"leading {k + 1}x{k + 1} minor is {a[k][k]}")
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        self.dim: int = d
        self.gram: IntMatrix = gram
        u, dd, v = smith_normal_form(gram)
        divs = self.elementary_divisors = tuple(dd[i][i] for i in range(d))
        self.det: int = math.prod(divs)
        self._u, self._v = u, v
        # <x, x'> = k^T W k' / e for numerators k, k', with e = d_d the exponent
        # of L*/L; W = e D^-1 V^T G V D^-1 is integral because G V = U^-1 D
        e = divs[-1]
        vgv = _mat_mul(tuple(zip(*v)), _mat_mul(gram, v))
        assert all(p * e % (a * b) == 0 for row, a in zip(vgv, divs) for p, b in zip(row, divs))
        self.smith_gram: IntMatrix = tuple(
            tuple(p * e // (a * b) for p, b in zip(row, divs)) for row, a in zip(vgv, divs)
        )
        # The dtype of numerator arrays: int64 when every integer formed from
        # them provably fits, else object (exact Python integers).  Those are
        # numerators k below 3 d_j in magnitude, the form (k - lam)^T W (k + lam)
        # of weight_flip, at most 12 sum_ij |W_ij| d_i d_j with every partial
        # sum below it, label indices below 4 l^2, and the scaled
        # representatives, below 2 e sum_j |V_ij|.
        quad = 12 * sum(abs(w) * a * b for row, a in zip(self.smith_gram, divs) for w, b in zip(row, divs))
        rep = 2 * e * max(sum(map(abs, row)) for row in v)
        self.int_dtype = np.dtype(np.int64 if max(quad, 4 * self.det**2, rep) < 2**62 else object)
        self.divisors = self.as_rows(divs)
        # column j of V times e / d_j, transposed: numerators k map to e V y, y_j = k_j / d_j
        self._scaled_v = self.as_rows([[c * e // a for c, a in zip(row, divs)] for row in v]).T
        self._smith_gram_rows = self.as_rows(self.smith_gram)
        self._radix = self.as_rows([math.prod(divs[j + 1 :]) for j in range(d)])

    def __repr__(self) -> str:
        return f"GramLattice(dim={self.dim}, det={self.det})"

    # -- coordinate changes -------------------------------------------------

    def pairings(self, x: Vector) -> Tuple[int, ...]:
        """The integers ``<x, alpha_i>``, that is ``G x``; raises ``NotInDual``
        unless ``x`` lies in ``L*``."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(x)}")
        den = math.lcm(*(c.denominator for c in x))
        ints = [c.numerator * (den // c.denominator) for c in x]
        gx = [sum(map(mul, row, ints)) for row in self.gram]
        if any(c % den for c in gx):
            raise NotInDual(f"vector ({format_vector(x)}) is not in the dual lattice")
        return tuple(c // den for c in gx)

    def numerators(self, x: Vector) -> Tuple[int, ...]:
        """The Smith numerators ``k = U G x`` of ``x``, unreduced.  This is the
        membership test of ``L*``: it raises ``NotInDual`` outside it."""
        gx = self.pairings(x)
        return tuple(sum(map(mul, row, gx)) for row in self._u)

    def reduce(self, k: Sequence[int], m: int = 1) -> Tuple[int, ...]:
        """Numerators ``k`` reduced mod ``m d_j``: the class of ``L*/mL``."""
        return tuple(c % (m * d) for c, d in zip(k, self.elementary_divisors))

    def from_numerators(self, k: Sequence[int], m: int = 1) -> Vector:
        """The canonical representative of the class of numerators ``k`` in
        ``L*/mL`` (``m`` is 1 or 2): ``V y`` with ``y_j = (k_j mod m d_j)/d_j``."""
        e = self.elementary_divisors[-1]
        ints = [c % (m * d) * (e // d) for c, d in zip(k, self.elementary_divisors)]
        return tuple([Fraction(sum(map(mul, row, ints)), e) for row in self._v])

    def scaled_representatives(self, k: np.ndarray, m: int = 1) -> np.ndarray:
        """``e`` times ``from_numerators(k, m)`` for each row ``k`` of
        numerators, with ``e = d_d``: the representatives as integer rows."""
        return self.as_rows(k) % (m * self.divisors) @ self._scaled_v

    # -- L*/L as arrays -------------------------------------------------------

    def as_rows(self, k: Sequence) -> np.ndarray:
        """Numerators (a sequence of ``d`` integers, or of such rows) as an
        array of ``int_dtype``."""
        return np.asarray(k, dtype=self.int_dtype)

    @cached_property
    def discriminant(self) -> np.ndarray:
        """``L*/L`` as the ``l x d`` array of reduced numerators in Smith order;
        row ``i`` is the class with ``coset_index`` ``i``."""
        return np.indices(self.elementary_divisors).reshape(self.dim, -1).T.astype(self.int_dtype)

    def coset_index(self, k: np.ndarray) -> np.ndarray:
        """The mixed-radix value of each row of reduced numerators: its
        position in ``discriminant`` and in ``dual_mod_lattice``."""
        return k @ self._radix

    def halve(self, k: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``2w = k (mod L)`` for each row ``k`` of numerators below
        ``3 d_j`` in magnitude: a mask of the rows that have a solution and, for
        every row, one reduced ``w`` per 2-torsion element (meaningless where
        the mask is false)."""
        d = self.divisors
        r = self.as_rows(k) % d
        odd = r % 2 == 1
        # 2 is invertible mod odd d_j, where (r + d_j)/2 halves an odd r
        w0 = (r + d * odd) // 2
        # the Smith coordinate 1/2 is a class of order 2 exactly when d_j is even
        halves = [(0,) if c % 2 else (0, c // 2) for c in self.elementary_divisors]
        torsion = self.as_rows(list(product(*halves)))
        return ~(odd & (d % 2 == 0)).any(-1), (w0[..., None, :] + torsion) % d

    def weight_flip(self, k: Sequence) -> np.ndarray:
        """The parity (0 or 1) of ``q(x) - q(lam)`` for each row ``k`` of
        numerators, where ``x`` has numerators ``k``, ``lam`` is its canonical
        representative mod ``L`` and ``q(x) = <x,x>/2``.  It is an integer
        because ``x - lam`` lies in the even lattice ``L``.  Rows must lie
        below ``3 d_j`` in magnitude, the range ``int_dtype`` is proven for;
        the parity depends on ``k`` mod ``2 d_j`` only."""
        k = self.as_rows(k)
        lam = k % self.divisors
        # 2e (q(x) - q(lam)) = k^T W k - lam^T W lam, and W is symmetric
        diff = (((k - lam) @ self._smith_gram_rows) * (k + lam)).sum(-1)
        e2 = 2 * self.elementary_divisors[-1]
        assert not np.any(diff % e2)
        return diff // e2 % 2

    # -- membership ---------------------------------------------------------

    def in_lattice(self, x: Vector) -> bool:
        return len(x) == self.dim and all(c.denominator == 1 for c in x)

    # -- quotients, in lexicographic Smith order

    @cached_property
    def dual_mod_lattice(self) -> Tuple[Vector, ...]:
        """The discriminant group ``L*/L``, listed in the global sort order."""
        return tuple(self.from_numerators(k) for k in product(*map(range, self.elementary_divisors)))

    @cached_property
    def lattice_mod_two(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``L/2L`` as arrays, one entry per ``y`` in ``{0,1}^d`` in lexicographic
        order: the numerators ``D y`` of its representative ``alpha = V y``, the
        parities of the coordinates ``n = V y`` and of the cross terms
        ``sum_{i<j} n_i n_j <a_i,a_j>`` of ``<alpha,alpha>/2``, and the signs
        ``(-1)^<alpha,a_i>``."""
        y = np.indices((2,) * self.dim).reshape(self.dim, -1).T
        n = y @ np.array([[c % 2 for c in row] for row in self._v]).T % 2
        g = [[c % 2 for c in row] for row in self.gram]
        upper = [[c * (i < j) for j, c in enumerate(row)] for i, row in enumerate(g)]  # the terms i < j
        return y * self.divisors, n, (n @ upper * n).sum(-1) % 2, 1 - 2 * (n @ g % 2)


def validate_lattice(gram: Sequence[Sequence[int]]) -> GramLattice:
    """Check the even positive-definite hypotheses and build the lattice."""
    return GramLattice(gram)


def inner(lat: GramLattice, x: Vector, y: Vector) -> Fraction:
    """The bilinear form ``<x, y>`` evaluated exactly."""
    if len(x) != lat.dim or len(y) != lat.dim:
        raise DimensionMismatch("inner product arguments must have the lattice rank")
    return sum((a * sum(map(mul, row, y)) for a, row in zip(x, lat.gram)), Fraction(0))


def canonicalize(lat: GramLattice, x: Vector, modulus: Modulus) -> Vector:
    """The unique stored representative of ``x``'s coset.

    Reduces each Smith numerator mod ``d_j`` for ``L*/L`` and mod ``2 d_j``
    for ``L/2L`` and ``L*/2L``; idempotent by construction.  This is where
    label constructors check membership: ``x`` outside ``L`` (for ``L/2L``)
    raises ``NotInLattice``, outside ``L*`` ``NotInDual``.
    """
    if modulus is Modulus.LATTICE_MOD_2LATTICE and not lat.in_lattice(x):
        raise NotInLattice(f"vector ({format_vector(x)}) is not in the lattice")
    return lat.from_numerators(lat.numerators(x), 1 if modulus is Modulus.DUAL_MOD_LATTICE else 2)


def halve_mod_L(lat: GramLattice, c: Vector) -> Optional[Tuple[Vector, ...]]:
    """Solve ``2x = c (mod L)`` for ``x`` in the dual lattice.

    Returns every solution class as a canonical ``L*/L`` representative (one
    per 2-torsion element), or ``None`` when no solution exists.  Absence of
    a solution is a valid outcome, not an error.
    """
    solvable, solutions = lat.halve(lat.reduce(lat.numerators(c)))
    return tuple(lat.from_numerators(tuple(map(int, w))) for w in solutions) if solvable else None
