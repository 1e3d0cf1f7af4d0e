"""Independent evaluator of orbifold fusion products, used as a test oracle.

This never touches ``fuse_orbifold``.  It reconstructs each product from
first principles with the machinery of the building-block layer only:

* an upper bound for every candidate target, by restricting a hypothetical
  intertwiner to the defining constituents of the two factors and counting
  the matching constituent fusions of the target over the product
  subalgebra;
* an exact quantum-dimension budget.

When the upper bounds meet the budget the product is certified; otherwise
``OracleInconclusive`` is raised, which the tests treat as a failure.
"""

from permorb.base import fusion_rule_vlplus
from permorb.orbifold import decompose_module, enumerate_modules, qdims_by_kind

from conftest import qdim_mul, qdim_of_sum, vec_add, vl_label


class OracleInconclusive(Exception):
    pass


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
    qdim = qdims_by_kind(lat)
    if qdim_of_sum(qdim, bounds) == qdim_mul(qdim[type(a)], qdim[type(b)], lat.det):
        return bounds
    raise OracleInconclusive(f"cannot certify {a} x {b}: bounds {bounds}")


def oracle_table(lat):
    """Certified fusion products for all unordered label pairs."""
    labels = enumerate_modules(lat)
    decomps = {}
    out = {}
    for i, a in enumerate(labels):
        for b in labels[i:]:
            out[(a, b)] = oracle_fuse(lat, a, b, labels, decomps)
    return out
