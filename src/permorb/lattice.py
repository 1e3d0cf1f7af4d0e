"""Exact integer and rational lattice arithmetic.

Everything is carried out in coordinates with respect to the fixed basis
``alpha_1, ..., alpha_d`` of the lattice ``L``: lattice elements are integer
vectors, dual-lattice elements are rational vectors, and all membership
tests reduce to integrality tests.  No floating point is used anywhere.

The discriminant group ``L*/L`` and the related quotients ``L/2L`` and
``L*/2L`` are handled through the Smith normal form of the Gram matrix: with
``U G V = D`` and ``D = diag(d_1, ..., d_d)``, the columns of ``V`` scaled by
``1/d_j`` generate ``L*`` over ``L``, so a vector is canonicalized by moving
to Smith coordinates ``y = V^-1 x``, reducing each component into a
fundamental box, and mapping back.  Every quotient is a plain tuple of such
canonical representatives, enumerated box by box in lexicographic Smith
order.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

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
    "vec_add",
    "vec_sub",
    "vec_neg",
    "vec_scale",
    "format_vector",
]


# ---------------------------------------------------------------------------
# small vector helpers


def vector(coords: Iterable) -> Vector:
    """Coerce an iterable of rationals/ints into an exact coordinate vector."""
    return tuple(Fraction(c) for c in coords)


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vec_neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def vec_scale(c, x: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in x)


def format_vector(x: Vector) -> str:
    return ",".join(str(c) for c in x)


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matvec_frac(m: IntMatrix, x: Vector) -> Vector:
    # integer matrix times rational vector over a common denominator;
    # one Fraction normalization per output component
    den = 1
    for c in x:
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    ints = [int(c * den) for c in x]
    return tuple(
        Fraction(sum(row[j] * ints[j] for j in range(len(ints))), den) for row in m
    )


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form of a square integer matrix.

    Returns unimodular ``U``, diagonal ``D`` and unimodular ``V`` with
    ``U @ A @ V == D``, the diagonal entries non-negative and each dividing
    the next.  Works entirely over the integers with arbitrary precision.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise DimensionMismatch("Smith normal form expects a square matrix")
    d = [[int(x) for x in row] for row in matrix]
    u = _identity(n)
    v = _identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        for j in range(n):
            d[dst][j] += q * d[src][j]
            u[dst][j] += q * u[src][j]

    def add_col(src, dst, q):
        # col_dst += q * col_src
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        for j in range(n):
            d[i][j] = -d[i][j]
            u[i][j] = -u[i][j]

    for t in range(n):
        while True:
            # move a nonzero entry of smallest magnitude to the pivot slot
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    a = abs(d[i][j])
                    if a != 0 and (best is None or a < best):
                        best = a
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, n):
                q = d[i][t] // p
                if q:
                    add_row(t, i, -q)
                if d[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = d[t][j] // p
                if q:
                    add_col(t, j, -q)
                if d[t][j]:
                    dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain d_i | d_{i+1}
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in v),
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

    Immutable after construction; coset representatives and Smith data are
    computed once and shared, so instances are safe for concurrent read access.
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
        for k in range(1, d + 1):
            minor = _det_bareiss([row[:k] for row in gram[:k]])
            if minor <= 0:
                raise NotPositiveDefinite(f"leading {k}x{k} minor is {minor}")
        self.dim: int = d
        self.gram: IntMatrix = gram
        u, dd, v = smith_normal_form(gram)
        self.elementary_divisors: Tuple[int, ...] = tuple(dd[i][i] for i in range(d))
        det = 1
        for e in self.elementary_divisors:
            det *= e
        self.det: int = det
        self._v = v
        # U G V = D, so V^-1 = D^-1 U G, with every division exact
        ug = _mat_mul(u, gram)
        assert all(x % e == 0 for row, e in zip(ug, self.elementary_divisors) for x in row)
        self._v_inv: IntMatrix = tuple(
            tuple(x // e for x in row) for row, e in zip(ug, self.elementary_divisors)
        )
        # memoized coordinate work; keys are immutable vectors, so sharing
        # these dicts across reader threads is safe
        self._smith_cache: dict = {}
        self._gram_cache: dict = {}
        self._canon_cache: dict = {}

    def __repr__(self) -> str:
        return f"GramLattice(dim={self.dim}, det={self.det})"

    # -- coordinate changes -------------------------------------------------

    def smith_coords(self, x: Vector) -> Vector:
        """Coordinates of ``x`` with respect to the Smith basis ``V``."""
        y = self._smith_cache.get(x)
        if y is None:
            if len(x) != self.dim:
                raise DimensionMismatch(f"expected length {self.dim}, got {len(x)}")
            y = _matvec_frac(self._v_inv, x)
            self._smith_cache[x] = y
        return y

    def from_smith_coords(self, y: Vector) -> Vector:
        return _matvec_frac(self._v, y)

    def sort_key(self, x: Vector) -> Vector:
        """The global total order used for all downstream tie-breaking."""
        return self.smith_coords(x)

    # -- membership ---------------------------------------------------------

    def gram_apply(self, x: Vector) -> Vector:
        gx = self._gram_cache.get(x)
        if gx is None:
            if len(x) != self.dim:
                raise DimensionMismatch(f"expected length {self.dim}, got {len(x)}")
            gx = _matvec_frac(self.gram, x)
            self._gram_cache[x] = gx
        return gx

    def in_lattice(self, x: Vector) -> bool:
        return len(x) == self.dim and all(c.denominator == 1 for c in x)

    def in_dual(self, x: Vector) -> bool:
        if len(x) != self.dim:
            return False
        return all(c.denominator == 1 for c in self.gram_apply(x))

    def in_two_lattice(self, x: Vector) -> bool:
        return len(x) == self.dim and all((c / 2).denominator == 1 for c in x)

    # -- quotients, as canonical representatives in lexicographic Smith order

    @cached_property
    def dual_mod_lattice(self) -> Tuple[Vector, ...]:
        """The discriminant group ``L*/L``, listed in the global sort order."""
        divs = self.elementary_divisors
        return _smith_box(self, [[Fraction(k, d) for k in range(d)] for d in divs])

    @cached_property
    def lattice_mod_two(self) -> Tuple[Vector, ...]:
        return _smith_box(self, [[Fraction(0), Fraction(1)]] * self.dim)

    @cached_property
    def torsion(self) -> Tuple[Vector, ...]:
        """The 2-torsion subgroup of ``L*/L``, as a subset of its representatives."""
        divs = self.elementary_divisors
        # the Smith coordinate 1/2 is a class of order 2 exactly when d_j is even
        halves = [[Fraction(0)] if d % 2 else [Fraction(0), Fraction(1, 2)] for d in divs]
        return _smith_box(self, halves)

    @cached_property
    def dual_mod_two_lattice(self) -> Tuple[Vector, ...]:
        divs = self.elementary_divisors
        return _smith_box(self, [[Fraction(k, d) for k in range(2 * d)] for d in divs])


def _smith_box(lat: GramLattice, values: Sequence[Sequence[Fraction]]) -> Tuple[Vector, ...]:
    """``from_smith_coords(y)`` for every ``y`` in the lexicographic product of
    the per-coordinate ``values``, which are given in increasing order."""
    return tuple(lat.from_smith_coords(y) for y in product(*values))


def validate_lattice(gram: Sequence[Sequence[int]]) -> GramLattice:
    """Check the even positive-definite hypotheses and build the lattice."""
    return GramLattice(gram)


def inner(lat: GramLattice, x: Vector, y: Vector) -> Fraction:
    """The bilinear form ``<x, y>`` evaluated exactly."""
    if len(x) != lat.dim or len(y) != lat.dim:
        raise DimensionMismatch("inner product arguments must have the lattice rank")
    gx = lat.gram_apply(y)
    return sum((a * b for a, b in zip(x, gx)), Fraction(0))


def canonicalize(lat: GramLattice, x: Vector, modulus: Modulus) -> Vector:
    """The unique stored representative of ``x``'s coset.

    Reduces each Smith coordinate into ``[0, 1)`` for ``L*/L`` and into
    ``[0, 2)`` for ``L/2L`` and ``L*/2L``; idempotent by construction.  This
    is where label constructors check membership: ``x`` outside ``L`` (for
    ``L/2L``) raises ``NotInLattice``, outside ``L*`` ``NotInDual``.
    """
    cached = lat._canon_cache.get((modulus, x))
    if cached is not None:
        return cached
    if modulus is Modulus.LATTICE_MOD_2LATTICE:
        if not lat.in_lattice(x):
            raise NotInLattice(f"vector ({format_vector(x)}) is not in the lattice")
    elif not lat.in_dual(x):
        raise NotInDual(f"vector ({format_vector(x)}) is not in the dual lattice")
    y = lat.smith_coords(x)
    m = 1 if modulus is Modulus.DUAL_MOD_LATTICE else 2
    out = lat.from_smith_coords(tuple(c % m for c in y))
    lat._canon_cache[(modulus, x)] = out
    return out


def halve_mod_L(lat: GramLattice, c: Vector) -> Optional[Tuple[Vector, ...]]:
    """Solve ``2x = c (mod L)`` for ``x`` in the dual lattice.

    Returns every solution class as a canonical ``L*/L`` representative (one
    per 2-torsion element), or ``None`` when no solution exists.  Absence of
    a solution is a valid outcome, not an error.
    """
    y = lat.smith_coords(canonicalize(lat, c, Modulus.DUAL_MOD_LATTICE))
    divs = lat.elementary_divisors
    ks = []
    for yj, dj in zip(y, divs):
        kc = yj * dj
        assert kc.denominator == 1
        kc = int(kc)
        if dj % 2:
            # 2 is invertible mod odd d_j
            ks.append((kc * pow(2, -1, dj)) % dj)
        elif kc % 2:
            return None
        else:
            ks.append(kc // 2)
    x0 = lat.from_smith_coords(tuple(Fraction(k, dj) for k, dj in zip(ks, divs)))
    return tuple(canonicalize(lat, vec_add(x0, g), Modulus.DUAL_MOD_LATTICE) for g in lat.torsion)
