"""Acceptance suite: one test per criterion, printing a pass line each.

All comparisons are exact; the only tolerances here are the stated wall
clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from fractions import Fraction as F

from permorb.base import TwistedSplit, fusion_rule_vlplus
from permorb.lattice import vector
from permorb.orbifold import (
    Diag,
    NonDiag,
    Twisted,
    decompose_module,
    diag,
    enumerate_modules,
    fuse_orbifold,
    fusion_table,
    glob,
    induce,
    nondiag,
    qdims_by_kind,
    twisted,
)
from permorb.render import format_label
from permorb.verify import (
    check_associativity,
    check_commutativity,
    check_duality_pairing,
    check_identity,
    check_multiplicities,
    check_nondiag_unified_vs_literal,
    check_qdim_homomorphism,
)

from conftest import BASE_SUITE_NAMES, RING_AXIOM_NAMES, get_lattice
from golden_a1 import GOLDEN_A1
from test_base import MUTANTS, _mutant, base_suite_failures

ALL_NAMES = RING_AXIOM_NAMES + ["d4", "e8"]

_tables = {}


def table_of(name):
    if name not in _tables:
        _tables[name] = fusion_table(get_lattice(name))
    return _tables[name]


def test_criterion_1_module_counts():
    start = time.perf_counter()
    for name in ["a1", "a1sq", "a2", "d4", "e8"]:
        lat = get_lattice(name)
        mods = enumerate_modules(lat)
        l = lat.det
        assert len(mods) == len(set(mods)) == (l * l + 7 * l) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: module counts equal (l^2+7l)/2 on all five lattices ({elapsed:.3f}s)")


def test_criterion_2_quantum_dimensions():
    for name in ALL_NAMES:
        lat = get_lattice(name)
        l = lat.det
        qdim = qdims_by_kind(lat)
        r = math.isqrt(l)
        root = (r, 0) if r * r == l else (0, 1)
        for m in enumerate_modules(lat):
            q = qdim[type(m)]
            if isinstance(m, Diag):
                assert q == (1, 0)
            elif isinstance(m, NonDiag):
                assert q == (2, 0)
            else:
                assert q == root
        assert glob(lat) == (4 * l * l, 0)
    print("\nPASS criterion 2: qdims are exactly 1, 2, sqrt(l) and glob = 4*l^2 on every lattice")


def test_criterion_3_fusion_ring_axioms():
    worst = 0.0
    for name in RING_AXIOM_NAMES:
        start = time.perf_counter()
        table = table_of(name)
        for check in (
            check_identity,
            check_commutativity,
            check_duality_pairing,
            check_associativity,
            check_multiplicities,
        ):
            res = check(table)
            assert res.passed, f"{name}: {res.name}: {res.detail}"
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 60.0
    print(
        "\nPASS criterion 3: identity, commutativity, duality pairing and full"
        f" associativity hold exactly on all l<=12, d<=3 lattices (worst {worst:.2f}s)"
    )


def test_criterion_4_qdim_homomorphism():
    for name in ALL_NAMES:
        res = check_qdim_homomorphism(table_of(name))
        assert res.passed, f"{name}: {res.detail}"
    print("\nPASS criterion 4: qdim(a)*qdim(b) = sum N(a,b;c)*qdim(c) exactly for every pair")


def test_criterion_5_unified_nondiag_rule():
    for name in RING_AXIOM_NAMES:
        res = check_nondiag_unified_vs_literal(table_of(name))
        assert res.passed, f"{name}: {res.detail}"
    print("\nPASS criterion 5: unified off-diagonal rule equals the literal case split in all orientations")


def test_criterion_6_twisted_sector_structure():
    for name in ALL_NAMES:
        lat = get_lattice(name)
        for m in enumerate_modules(lat):
            if not isinstance(m, Twisted):
                continue
            parts = decompose_module(lat, m)
            assert len(parts) == 2**lat.dim
            assert all(isinstance(p, TwistedSplit) for _v, p in parts)
            assert induce(lat, parts[0]) == m
    print("\nPASS criterion 6: twisted modules have 2^d twisted constituents and induction round-trips")


def test_criterion_7_base_algebra_suite():
    for name in BASE_SUITE_NAMES:
        assert base_suite_failures(get_lattice(name), fusion_rule_vlplus) == []
    lat = get_lattice("a2")
    for case in MUTANTS:
        assert base_suite_failures(lat, _mutant(case)), f"mutant {case} undetected"
    print(
        "\nPASS criterion 7: building-block fusion passes the exhaustive ring checks"
        f" and all {len(MUTANTS)} table-row mutations are detected"
    )


def test_criterion_8_rank_one_regression():
    lat = get_lattice("a1")
    labels = {format_label(m): m for m in enumerate_modules(lat)}
    for (a, b), expected in GOLDEN_A1.items():
        out = fuse_orbifold(lat, labels[a], labels[b])
        assert tuple(sorted(format_label(c) for c in out)) == tuple(sorted(expected))
        assert all(v == 1 for v in out.values())
    # worked examples, spelled out
    h = F(1, 2)
    assert fuse_orbifold(lat, diag(lat, (h,), 0), diag(lat, (h,), 1)) == {
        diag(lat, (F(0),), 1): 1
    }
    n = nondiag(lat, (h,), (F(0),))
    assert fuse_orbifold(lat, n, n) == {
        diag(lat, (F(0),), 0): 1,
        diag(lat, (F(0),), 1): 1,
        diag(lat, (h,), 0): 1,
        diag(lat, (h,), 1): 1,
    }
    assert fuse_orbifold(lat, twisted(lat, (F(0),), 0), twisted(lat, (F(0),), 1)) == {
        diag(lat, (F(0),), 1): 1,
        diag(lat, (h,), 0): 1,
    }
    assert fuse_orbifold(lat, twisted(lat, (F(0),), 0), twisted(lat, (h,), 0)) == {n: 1}
    unit = diag(lat, (F(0),), 0)
    for m in enumerate_modules(lat):
        assert fuse_orbifold(lat, unit, m) == {m: 1}
    print("\nPASS criterion 8: the full rank-1 table matches the frozen oracle-certified golden table")


def test_criterion_9_e8_edge_case():
    lat = get_lattice("e8")
    mods = enumerate_modules(lat)
    assert len(mods) == 4
    qdim = qdims_by_kind(lat)
    assert all(qdim[type(m)] == (1, 0) for m in mods)
    table = table_of("e8")
    unit = Diag(vector([0] * 8), 0)
    # group ring of order 4: unique unit-multiplicity product everywhere
    for a in mods:
        for b in mods:
            prod = fuse_orbifold(lat, a, b)
            assert len(prod) == 1 and set(prod.values()) == {1}
        assert fuse_orbifold(lat, a, a) == {unit: 1}
        assert fuse_orbifold(lat, unit, a) == {a: 1}
    assert check_associativity(table).passed
    print("\nPASS criterion 9: the unimodular case has 4 simple currents forming a group ring of order 4")
