"""Independent evaluator of orbifold fusion products, used as a test oracle.

This never touches ``fuse_orbifold``.  It reconstructs each product from
first principles with the machinery of the building-block layer only:

* an upper bound for every candidate target, by restricting a hypothetical
  intertwiner to the defining constituents of the two factors and counting
  the matching constituent fusions of the target over the product
  subalgebra;
* for products of untwisted-sector modules, lower bounds from the known
  fusion of the covering modules of the doubled lattice algebra, projected
  to the orbifold pieces of the result;
* an exact quantum-dimension budget.

Whenever the bound from one side meets the budget the sandwich closes and
the product is certified; otherwise ``OracleInconclusive`` is raised, which
the tests treat as a failure.
"""

from permorb import (
    Diag,
    NonDiag,
    QSqrt,
    decompose_module,
    enumerate_modules,
    fusion_rule_vlplus,
    nondiag,
    qdim_orbifold,
    vl_label,
)
from permorb.lattice import Modulus, canonicalize, vec_add


class OracleInconclusive(Exception):
    pass


def _budget_total(lat, multiset):
    total = QSqrt.of(0, lat.det)
    for c, mult in multiset.items():
        total = total + QSqrt.of(mult, lat.det) * qdim_orbifold(lat, c)
    return total


def _restriction_bound(lat, w1, w2, target_parts):
    """Upper bound on the multiplicity of one target from one constituent pair."""
    v1, p1 = w1
    v2, p2 = w2
    vsum = vl_label(lat, vec_add(v1.coords, v2.coords))
    total = 0
    for v3, p3 in target_parts:
        if v3 == vsum:
            total += fusion_rule_vlplus(lat, p1, p2, p3)
    return total

def _descent_lower_bounds(lat, a, b):
    """Lower bounds from the covering-module fusion for untwisted sources.

    Each ordered pairing of the coset data fuses the covering modules to a
    single covering module of the result; its orbifold pieces all receive a
    nonzero projected intertwiner.  Only defined (and only needed) when
    neither factor is twisted.
    """
    pairings = []
    if isinstance(a, NonDiag) and isinstance(b, NonDiag):
        pairings = [
            (vec_add(a.lam, b.lam), vec_add(a.mu, b.mu)),
            (vec_add(a.mu, b.lam), vec_add(a.lam, b.mu)),
        ]
    elif isinstance(a, Diag) and isinstance(b, NonDiag):
        pairings = [(vec_add(a.lam, b.lam), vec_add(a.lam, b.mu))]
    elif isinstance(a, NonDiag) and isinstance(b, Diag):
        pairings = [(vec_add(a.lam, b.lam), vec_add(a.mu, b.lam))]
    lows = {}
    for x, y in pairings:
        cx = canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE)
        cy = canonicalize(lat, y, Modulus.DUAL_MOD_LATTICE)
        if cx == cy:
            lows[Diag(cx, 0)] = 1
            lows[Diag(cx, 1)] = 1
        else:
            lows[nondiag(lat, x, y)] = 1
    return lows


def _decomposed(lat, decomps, m):
    """``decompose_module(lat, m)``, computed once per label in ``decomps``."""
    if m not in decomps:
        decomps[m] = decompose_module(lat, m)
    return decomps[m]


def oracle_fuse(lat, a, b, labels=None, decomps=None):
    """Certified fusion product of two orbifold labels, or raise."""
    if labels is None:
        labels = enumerate_modules(lat)
    if decomps is None:
        decomps = {}
    w1 = _decomposed(lat, decomps, a)[0]
    w2 = _decomposed(lat, decomps, b)[0]
    bounds = {}
    for c in labels:
        parts = _decomposed(lat, decomps, c)
        m = _restriction_bound(lat, w1, w2, parts)
        if m:
            bounds[c] = m
    budget = qdim_orbifold(lat, a) * qdim_orbifold(lat, b)
    if _budget_total(lat, bounds) == budget:
        return bounds
    lows = _descent_lower_bounds(lat, a, b)
    if lows and all(bounds.get(c, 0) >= m for c, m in lows.items()):
        if _budget_total(lat, lows) == budget:
            return lows
    raise OracleInconclusive(f"cannot certify {a} x {b}: bounds {bounds}, lows {lows}")


def oracle_table(lat):
    """Certified fusion products for all unordered label pairs."""
    labels = enumerate_modules(lat)
    decomps = {}
    out = {}
    for i, a in enumerate(labels):
        for b in labels[i:]:
            out[(a, b)] = oracle_fuse(lat, a, b, labels, decomps)
    return out
