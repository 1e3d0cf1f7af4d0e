from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from permorb.base import NonSplit, Split, TwistedSplit, fusion_rule_vlplus, is_admissible_triple
from permorb.characters import chi_eval, chi_of_lambda, chi_shift, pi_pairing
from permorb.lattice import vector
from permorb.orbifold import qdims_by_kind

from conftest import (
    BASE_SUITE_NAMES,
    all_vlplus_labels,
    get_lattice,
    lattice_mod_two,
    nonsplit_label,
    qdim_mul,
    qdim_of_sum,
    split_label,
)


def half(lat):
    return vector([F(1, 2)] + [0] * (lat.dim - 1))


class TestAdmissibleTriples:
    def test_examples(self, a1):
        h = vector([F(1, 2)])
        z = vector([0])
        assert is_admissible_triple(a1, h, z, h)
        assert not is_admissible_triple(a1, h, h, h)
        assert is_admissible_triple(a1, z, z, z)

    def test_sign_patterns(self, a2):
        reps = list(a2.dual_mod_lattice)
        lam = reps[1]
        neg = vector([-c for c in lam])
        assert is_admissible_triple(a2, lam, lam, vector([c * 2 for c in lam]))
        assert is_admissible_triple(a2, lam, neg, vector([0, 0]))


class TestLabelCounts:
    @pytest.mark.parametrize("name", BASE_SUITE_NAMES + ["chain3"])
    def test_census(self, name):
        lat = get_lattice(name)
        labels = all_vlplus_labels(lat)
        assert len(labels) == len(set(labels))
        ns = sum(isinstance(m, NonSplit) for m in labels)
        sp = sum(isinstance(m, Split) for m in labels)
        tw = sum(isinstance(m, TwistedSplit) for m in labels)
        assert ns == (lat.det - 1) * 2**lat.dim // 2
        assert sp == tw == 2 * 2**lat.dim


class TestQdimBase:
    def test_values(self, a1):
        q = qdims_by_kind(a1)
        assert q[type(split_label(a1, vector([0]), 1))] == (1, 0)
        assert q[type(nonsplit_label(a1, vector([F(1, 2)])))] == (2, 0)
        chi0 = chi_of_lambda(a1, vector([0]))
        assert q[type(TwistedSplit(chi0, 1))] == (0, 1)


class TestNonSplitLabel:
    def test_smaller_of_x_and_minus_x(self, a1):
        assert nonsplit_label(a1, vector([F(3, 2)])) == NonSplit(vector([F(1, 2)]))


def fuse_vlplus(lat, a, b):
    return dict.fromkeys(_fuse_with(lat, all_vlplus_labels(lat), fusion_rule_vlplus, a, b), 1)


class TestFuseVlPlus:
    def test_nonsplit_with_vacuum_plus(self, a1):
        ns = nonsplit_label(a1, vector([F(1, 2)]))
        out = fuse_vlplus(a1, ns, split_label(a1, vector([0]), 1))
        assert out == {ns: 1}

    def test_vacuum_square(self, a1):
        unit = split_label(a1, vector([0]), 1)
        assert fuse_vlplus(a1, unit, unit) == {unit: 1}

    def test_nonsplit_square(self, a1):
        ns = nonsplit_label(a1, vector([F(1, 2)]))
        out = fuse_vlplus(a1, ns, ns)
        expected = {
            split_label(a1, vector([0]), 1): 1,
            split_label(a1, vector([0]), -1): 1,
            split_label(a1, vector([1]), 1): 1,
            split_label(a1, vector([1]), -1): 1,
        }
        assert out == expected

    def test_twisted_square_hits_split_by_character(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        t = TwistedSplit(chi0, 1)
        out = fuse_vlplus(a1, t, t)
        for lam in lattice_mod_two(a1):
            present = split_label(a1, lam, 1) in out
            assert present == (chi_eval(a1, chi0, lam) == 1)

    def test_split_twisted_closed_form(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        for sign in (1, -1):
            s = split_label(a1, vector([1]), sign)
            t = TwistedSplit(chi0, 1)
            out = fuse_vlplus(a1, s, t)
            expected = TwistedSplit(chi_shift(a1, chi0, s.coords), sign * chi_eval(a1, chi0, s.coords))
            assert out == {expected: 1}


# ---------------------------------------------------------------------------
# exhaustive ring-axiom suite, shared with the mutation controls


def _fuse_with(lat, labels, rule, a, b):
    return {c for c in labels if rule(lat, a, b, c)}


def base_suite_failures(lat, rule):
    """Names of the ring checks the given triple-rule fails on this lattice."""
    labels = all_vlplus_labels(lat)
    unit = split_label(lat, vector([0] * lat.dim), 1)
    failures = []

    if any(_fuse_with(lat, labels, rule, unit, a) != {a} for a in labels):
        failures.append("identity")

    if any(
        rule(lat, a, b, c) != rule(lat, b, a, c)
        for a in labels
        for b in labels
        for c in labels
    ):
        failures.append("commutativity")

    if any(rule(lat, a, a, unit) != 1 for a in labels):
        failures.append("self_dual_pairing")

    qdim = qdims_by_kind(lat)
    ok = True
    for a in labels:
        qa = qdim[type(a)]
        for b in labels:
            lhs = qdim_mul(qa, qdim[type(b)], lat.det)
            rhs = qdim_of_sum(qdim, Counter(_fuse_with(lat, labels, rule, a, b)))
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    if not ok:
        failures.append("qdim_homomorphism")

    n = len(labels)
    tensor = np.zeros((n, n, n), dtype=np.float64)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            for k, c in enumerate(labels):
                tensor[i, j, k] = rule(lat, a, b, c)
    flat = tensor.reshape(n, n * n)
    for i in range(n):
        lhs = (tensor[i] @ flat).reshape(n, n, n)
        rhs = (tensor.reshape(n * n, n) @ tensor[i]).reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            failures.append("associativity")
            break

    simple = {a for a in labels if qdim[type(a)] == (1, 0)}
    fusion_simple = {
        a for a in labels if all(len(_fuse_with(lat, labels, rule, a, b)) == 1 for b in labels)
    }
    if simple != fusion_simple:
        failures.append("simple_current_characterization")

    return failures


@pytest.mark.parametrize("name", BASE_SUITE_NAMES)
def test_base_ring_axioms(name):
    lat = get_lattice(name)
    assert base_suite_failures(lat, fusion_rule_vlplus) == []


# Each mutant corrupts exactly one structural row of the fusion-rule table.
def _mutant(case):
    def rule(lat, m1, m2, m3):
        labels = (m1, m2, m3)
        twisted = [m for m in labels if isinstance(m, TwistedSplit)]
        plain = [m for m in labels if not isinstance(m, TwistedSplit)]
        ns = [m for m in plain if isinstance(m, NonSplit)]
        sp = [m for m in plain if isinstance(m, Split)]

        if case == "drop_ns_admissibility" and len(twisted) == 0 and len(ns) == 3:
            return 1
        if case == "ns_split_sign_restricted" and len(twisted) == 0 and len(ns) == 2 and sp:
            coords = [m.coords for m in labels]
            return int(is_admissible_triple(lat, *coords) and sp[0].sign == 1)
        if case == "allow_one_nonsplit" and len(twisted) == 0 and len(ns) == 1:
            return 1
        if case == "split_sign_flipped" and len(twisted) == 0 and len(sp) == 3:
            if not is_admissible_triple(lat, *[m.coords for m in labels]):
                return 0
            need = -pi_pairing(lat, sp[0].coords, sp[1].coords)
            return int(sp[0].sign * sp[1].sign * sp[2].sign == need)
        if case == "split_lattice_loosened" and len(twisted) == 0 and len(sp) == 3:
            need = pi_pairing(lat, sp[0].coords, sp[1].coords)
            return int(sp[0].sign * sp[1].sign * sp[2].sign == need)
        if case == "twisted_shift_dropped" and len(twisted) == 2 and ns:
            (t1, t2) = twisted
            return int(t1.chi == t2.chi)
        if case == "twisted_split_sign_flipped" and len(twisted) == 2 and sp:
            (t1, t2), u = twisted, sp[0]
            if chi_shift(lat, t1.chi, u.coords) != t2.chi:
                return 0
            return int(u.sign * t1.sign * t2.sign == -chi_eval(lat, t1.chi, u.coords))
        if case == "twisted_triple_allowed" and len(twisted) == 3:
            return 1
        return fusion_rule_vlplus(lat, m1, m2, m3)

    return rule


MUTANTS = [
    "drop_ns_admissibility",
    "ns_split_sign_restricted",
    "allow_one_nonsplit",
    "split_sign_flipped",
    "split_lattice_loosened",
    "twisted_shift_dropped",
    "twisted_split_sign_flipped",
    "twisted_triple_allowed",
]


@pytest.mark.parametrize("case", MUTANTS)
def test_mutated_rule_is_detected(case):
    # every single-row corruption must trip at least one ring check
    lat = get_lattice("a2")
    failures = base_suite_failures(lat, _mutant(case))
    assert failures, f"mutant {case} slipped through the ring checks"
