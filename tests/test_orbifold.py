import gc
import importlib
import random
import weakref
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permorb.base import Split, TwistedSplit
from permorb.characters import chi_of_lambda, split_gauge_sign, weight_parity_sign
from permorb.errors import DegeneratePair, PermorbError, TableTooLarge
from permorb.lattice import inner, validate_lattice, vector
from permorb.orbifold import (
    Diag,
    FusionTable,
    NonDiag,
    Twisted,
    decompose_module,
    diag,
    dual_orbifold,
    enumerate_modules,
    fuse_orbifold,
    fusion_table,
    glob,
    induce,
    label_sort_key,
    nondiag,
    qdims_by_kind,
    twisted,
)
from permorb.render import format_label
from permorb.verify import (
    CheckResult,
    _covariant,
    _orbit_representatives,
    check_associativity,
    check_commutativity,
    check_decomposition_qdims,
    check_dual_antiautomorphism,
    check_duality_pairing,
    check_glob,
    check_identity,
    check_induction_roundtrip,
    check_multiplicities,
    check_nondiag_unified_vs_literal,
    check_qdim_homomorphism,
    check_qdim_lower_bound,
    run_checks,
    verify,
)

from conftest import (
    RING_AXIOM_NAMES,
    get_lattice,
    lattice_mod_two,
    nonsplit_label,
    qdim_mul,
    qdim_of_sum,
    split_label,
    vec_add,
    vec_sub,
    vl_label,
)
from test_base import _mutant


def D(lat, coords, eps):
    return diag(lat, vector(coords), eps)


def T(lat, coords, eps):
    return twisted(lat, vector(coords), eps)


class TestEnumeration:
    def test_a1_count(self, a1):
        assert len(enumerate_modules(a1)) == 9

    def test_e8_labels(self, e8):
        mods = enumerate_modules(e8)
        z = vector([0] * 8)
        assert mods == [Diag(z, 0), Diag(z, 1), Twisted(z, 0), Twisted(z, 1)]

    def test_a2_count(self, a2):
        assert len(enumerate_modules(a2)) == 15

    @pytest.mark.parametrize("name", RING_AXIOM_NAMES + ["d4", "e8"])
    def test_count_formula(self, name):
        lat = get_lattice(name)
        l = lat.det
        mods = enumerate_modules(lat)
        assert len(mods) == len(set(mods)) == (l * l + 7 * l) // 2

    @pytest.mark.parametrize("name", ["a1", "a2", "odd7", "chain3", "d4", "scaled12"])
    def test_sorted_by_global_order(self, name):
        # the CLI prints fusion-table rows in enumeration order, relying on this
        lat = get_lattice(name)
        keys = [label_sort_key(lat, m) for m in enumerate_modules(lat)]
        assert keys == sorted(keys)


class TestConstructors:
    def test_nondiag_unordered(self, a1):
        a = nondiag(a1, vector([F(1, 2)]), vector([0]))
        b = nondiag(a1, vector([0]), vector([F(1, 2)]))
        assert a == b

    def test_nondiag_degenerate(self, a1):
        with pytest.raises(DegeneratePair):
            nondiag(a1, vector([1]), vector([0]))

    def test_twisted_resolution_flips_parity(self, a1):
        # moving the label by the generator crosses an odd-weight translation
        assert T(a1, [1], 0) == Twisted(vector([0]), 1)
        assert T(a1, [F(3, 2)], 0) == Twisted(vector([F(1, 2)]), 0)

    @pytest.mark.parametrize("name", ["a1", "a2", "odd7", "d4"])
    def test_twisted_resolution_far_from_canonical(self, name):
        # shifts far beyond int64 resolve by the rational weight parity
        lat = get_lattice(name)
        rng = random.Random(7)
        for rep in lat.dual_mod_lattice:
            beta = vector(rng.randint(-(10**30), 10**30) for _ in range(lat.dim))
            flip = 1 if weight_parity_sign(lat, rep, beta) < 0 else 0
            assert twisted(lat, vec_add(rep, beta), 0) == Twisted(rep, flip)

    def test_twisted_resolution_idempotent(self, a1):
        t = T(a1, [F(-5, 2)], 1)
        assert twisted(a1, t.lam, t.eps) == t


class TestDecompose:
    def test_diag_half(self, a1):
        parts = decompose_module(a1, D(a1, [F(1, 2)], 0))
        assert parts == [
            (vl_label(a1, vector([1])), Split(vector([0]), 1)),
            (vl_label(a1, vector([0])), Split(vector([1]), 1)),
        ]

    def test_vacuum_module(self, a1):
        parts = decompose_module(a1, D(a1, [0], 0))
        assert parts == [
            (vl_label(a1, vector([0])), Split(vector([0]), 1)),
            (vl_label(a1, vector([1])), Split(vector([1]), 1)),
        ]

    def test_twisted_zero(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        parts = decompose_module(a1, T(a1, [0], 0))
        assert parts == [
            (vl_label(a1, vector([0])), TwistedSplit(chi0, 1)),
            (vl_label(a1, vector([1])), TwistedSplit(chi_of_lambda(a1, vector([1])), -1)),
        ]

    def test_nondiag(self, a1):
        m = nondiag(a1, vector([F(1, 2)]), vector([0]))
        parts = decompose_module(a1, m)
        assert len(parts) == 2
        vls = {v for v, _ in parts}
        assert vls == {vl_label(a1, vector([F(1, 2)])), vl_label(a1, vector([F(3, 2)]))}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_constituents_match_the_rational_definition(self, data):
        # each constituent against the label constructors applied to its
        # defining vectors, on random lattices with odd off-diagonal entries;
        # the sign rules against their definitions through the inner product
        d = data.draw(st.integers(1, 3))
        gram = [[0] * d for _ in range(d)]
        for i in range(d):
            gram[i][i] = data.draw(st.sampled_from([2, 4, 6, 8]))
            for j in range(i + 1, d):
                gram[i][j] = gram[j][i] = data.draw(st.integers(-3, 3))
        try:
            lat = validate_lattice(gram)
        except PermorbError:
            assume(False)
        classes = st.tuples(*(st.integers(0, c - 1) for c in lat.elementary_divisors)).map(lat.from_numerators)
        lam, mu = data.draw(classes), data.draw(classes)
        x = vec_add(lam, vector(data.draw(st.tuples(*([st.integers(-3, 3)] * d)))))
        kind, eps = data.draw(st.sampled_from("DNT")), data.draw(st.integers(0, 1))
        if kind == "N":
            assume(lam != mu)
            m = nondiag(lat, x, mu)
        else:
            m = (diag if kind == "D" else twisted)(lat, x, eps)
        sign = lambda t: -1 if t % 2 else 1
        parts = decompose_module(lat, m)
        assert len(parts) == 2**d
        for alpha, got in zip(lattice_mod_two(lat), parts):
            if isinstance(m, Diag):
                two_lam = tuple(2 * c for c in m.lam)
                gauge = split_gauge_sign(lat, alpha)
                want = (vl_label(lat, vec_add(two_lam, alpha)), split_label(lat, alpha, sign(m.eps) * gauge))
            elif isinstance(m, NonDiag):
                s, dlt = vec_add(m.lam, m.mu), vec_sub(m.lam, m.mu)
                want = (vl_label(lat, vec_add(s, alpha)), nonsplit_label(lat, vec_add(dlt, alpha)))
            else:
                lam_alpha = vec_add(m.lam, alpha)
                parity = weight_parity_sign(lat, m.lam, alpha)
                want = (vl_label(lat, lam_alpha), TwistedSplit(chi_of_lambda(lat, lam_alpha), sign(m.eps) * parity))
            assert got == want
            norm = inner(lat, alpha, alpha)
            diag_part = sum(int(c) ** 2 * gram[i][i] for i, c in enumerate(alpha))
            assert split_gauge_sign(lat, alpha) == sign((norm - diag_part) / 2)
            assert weight_parity_sign(lat, m.lam, alpha) == sign(inner(lat, m.lam, alpha) + norm / 2)

    @pytest.mark.parametrize("name", ["a1", "a2", "chain3", "d4"])
    def test_summand_count(self, name):
        lat = get_lattice(name)
        for m in enumerate_modules(lat):
            assert len(decompose_module(lat, m)) == 2**lat.dim


class TestInduce:
    def test_matching_character(self, a1):
        h = vector([F(1, 2)])
        w = (vl_label(a1, h), TwistedSplit(chi_of_lambda(a1, h), 1))
        assert induce(a1, w) == Twisted(h, 0)

    def test_mismatched_character(self, a1):
        h = vector([F(1, 2)])
        w = (vl_label(a1, h), TwistedSplit(chi_of_lambda(a1, vector([0])), 1))
        assert induce(a1, w) is None

    def test_minus_branch(self, a1):
        z = vector([0])
        w = (vl_label(a1, z), TwistedSplit(chi_of_lambda(a1, z), -1))
        assert induce(a1, w) == Twisted(z, 1)

    @pytest.mark.parametrize("name", ["a1", "a2", "scaled4", "chain3"])
    def test_all_constituents_roundtrip(self, name):
        lat = get_lattice(name)
        for m in enumerate_modules(lat):
            if not isinstance(m, Twisted):
                continue
            for w in decompose_module(lat, m):
                assert induce(lat, w) == m

    @pytest.mark.parametrize("name, zero", [("a1", "0"), ("a2", "0,0"), ("odd7", "0,0")])
    def test_flipped_rule_fails_the_roundtrip(self, name, zero, monkeypatch):
        # induce reads the twisted sign off the rule table, so flipping the
        # Split x TwistedSplit sign row lifts each constituent to the wrong parity
        table = fusion_table(get_lattice(name))
        assert check_induction_roundtrip(table).passed
        rule = _mutant("twisted_split_sign_flipped")
        monkeypatch.setattr(importlib.import_module("permorb.orbifold"), "fusion_rule_vlplus", rule)
        res = check_induction_roundtrip(table)
        assert (res.passed, res.detail) == (False, f"constituent of T({zero};0) induces to T({zero};1)")


class TestQdims:
    def test_values(self, a1):
        qdim = qdims_by_kind(a1)
        assert qdim[type(D(a1, [0], 0))] == (1, 0)
        assert qdim[type(nondiag(a1, vector([0]), vector([F(1, 2)])))] == (2, 0)
        assert qdim[type(T(a1, [0], 0))] == (0, 1)

    def test_glob_values(self):
        assert glob(get_lattice("a1")) == (16, 0)
        assert glob(get_lattice("e8")) == (4, 0)
        assert glob(get_lattice("a2")) == (36, 0)

    def test_simple_currents(self, a1, e8):
        one = lambda lat, m: qdims_by_kind(lat)[type(m)] == (1, 0)
        assert one(a1, D(a1, [F(1, 2)], 1))
        assert not one(a1, nondiag(a1, vector([0]), vector([F(1, 2)])))
        assert not one(a1, T(a1, [0], 0))
        assert one(e8, T(e8, [0] * 8, 0))


class TestDuals:
    def test_diag_self_dual_at_half(self, a1):
        m = D(a1, [F(1, 2)], 1)
        assert dual_orbifold(a1, m) == m

    def test_twisted_zero(self, a1):
        m = T(a1, [0], 0)
        assert dual_orbifold(a1, m) == m

    @pytest.mark.parametrize("name", ["a2", "odd7", "chain3"])
    def test_involution(self, name):
        lat = get_lattice(name)
        for m in enumerate_modules(lat):
            assert dual_orbifold(lat, dual_orbifold(lat, m)) == m

    def test_nondiag_negates(self):
        lat = get_lattice("odd7")
        reps = list(lat.dual_mod_lattice)
        m = nondiag(lat, reps[1], reps[2])
        d = dual_orbifold(lat, m)
        got = {d.lam, d.mu}
        neg = {
            nondiag(lat, vector([-c for c in reps[1]]), vector([-c for c in reps[2]])).lam,
            nondiag(lat, vector([-c for c in reps[1]]), vector([-c for c in reps[2]])).mu,
        }
        assert got == neg


class TestFuseExamples:
    def test_diag_diag(self, a1):
        out = fuse_orbifold(a1, D(a1, [F(1, 2)], 0), D(a1, [F(1, 2)], 1))
        assert out == {D(a1, [0], 1): 1}

    def test_nondiag_square(self, a1):
        n = nondiag(a1, vector([F(1, 2)]), vector([0]))
        out = fuse_orbifold(a1, n, n)
        assert out == {
            D(a1, [0], 0): 1,
            D(a1, [0], 1): 1,
            D(a1, [F(1, 2)], 0): 1,
            D(a1, [F(1, 2)], 1): 1,
        }

    def test_twisted_twisted_solvable(self, a1):
        # both halving classes contribute a diagonal term; the nonzero class
        # crosses an odd-weight translation, so its parity is opposite
        out = fuse_orbifold(a1, T(a1, [0], 0), T(a1, [0], 1))
        assert out == {D(a1, [0], 1): 1, D(a1, [F(1, 2)], 0): 1}

    def test_twisted_twisted_unsolvable(self, a1):
        out = fuse_orbifold(a1, T(a1, [0], 0), T(a1, [F(1, 2)], 0))
        assert out == {nondiag(a1, vector([F(1, 2)]), vector([0])): 1}

    def test_identity(self, a1):
        unit = D(a1, [0], 0)
        for m in enumerate_modules(a1):
            assert fuse_orbifold(a1, unit, m) == {m: 1}

    def test_qdim_budget_on_examples(self, a1):
        qdim = qdims_by_kind(a1)
        for a in enumerate_modules(a1):
            for b in enumerate_modules(a1):
                out = fuse_orbifold(a1, a, b)
                assert qdim_of_sum(qdim, out) == qdim_mul(qdim[type(a)], qdim[type(b)], 2)


class TestFusionTable:
    def test_guard(self):
        # l = 102, past the last l admitted at rank 1, has n = 5559 labels
        # and about 2 n^2 = 61.8 M entries at 75 bytes each
        with pytest.raises(TableTooLarge, match=r"l = 102 \(n = 5559 labels\) needs about 4\.3 GiB"):
            fusion_table(validate_lattice([[102]]))

    @pytest.mark.parametrize(
        "guarded,dim,last_l", [(fusion_table, 1, 100), (fusion_table, 6, 79), (verify, 1, 89), (verify, 6, 73)]
    )
    def test_guard_cutoffs(self, guarded, dim, last_l):
        # the estimate reads l and the rank d alone: a + b*d bytes for each
        # of the about 2 n^2 entries.  A stand-in with just those two
        # attributes gets past an admitting guard and fails on the first
        # attribute the work reads
        lattice = lambda l: SimpleNamespace(det=l, dim=dim)
        with pytest.raises(AttributeError):
            guarded(lattice(last_l))
        with pytest.raises(TableTooLarge, match=r"above the limit of 4 GiB"):
            guarded(lattice(last_l + 1))

    def test_tensor_shape_and_symmetry(self, a1):
        table = fusion_table(a1)
        assert table.tensor.shape == (9, 9, 9)
        assert np.array_equal(table.tensor, table.tensor.swapaxes(0, 1))

    def test_multiplicity_lookup(self, a1):
        table = fusion_table(a1)
        unit = D(a1, [0], 0)
        for m in table.labels:
            assert table.tensor[table.index[unit], table.index[m], table.index[m]] == 1


@st.composite
def small_lattices(draw):
    """Even positive-definite lattices of rank 1 to 3 with l <= 12."""
    dim = draw(st.integers(1, 3))
    gram = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        gram[i][i] = 2 * draw(st.integers(1, 6 if dim == 1 else 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
    try:
        lat = validate_lattice(gram)
    except PermorbError:
        assume(False)
    assume(lat.det <= 12)
    return lat


class TestBatchedRule:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_table_rows_match_fuse_orbifold(self, data):
        # the table runs the rule on every pair at once, fuse_orbifold on one
        lat = data.draw(small_lattices())
        table = fusion_table(lat)
        n = len(table.labels)
        index = st.integers(0, n - 1)
        for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20)):
            row = np.zeros(n, dtype=table.tensor.dtype)
            for c, mult in fuse_orbifold(lat, table.labels[i], table.labels[j]).items():
                row[table.index[c]] += mult
            assert np.array_equal(table.tensor[i, j], row), (lat.gram, i, j)

    def test_a_key_emitted_twice_counts_twice(self, a1, monkeypatch):
        # the table adds up the keys rather than setting each to 1, so a rule
        # that emits a label twice fails the 0/1 check instead of hiding
        orbifold = importlib.import_module("permorb.orbifold")
        rule = orbifold._fuse
        monkeypatch.setattr(orbifold, "_fuse", lambda *args: rule(*args) * 2)
        table = fusion_table(a1)
        assert table.tensor.max() == 2 and not check_multiplicities(table).passed
        assert set(fuse_orbifold(a1, *table.labels[:2]).values()) == {2}

    @pytest.mark.parametrize(
        "gram", [[[6]], [[2, -1], [-1, 2]], [[4, 1], [1, 2]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]]
    )
    def test_python_integers_give_the_same_table(self, gram, monkeypatch):
        # the dtype is chosen per lattice; the object path must agree with int64
        int64 = fusion_table(validate_lattice(gram))
        lat = validate_lattice(gram)
        monkeypatch.setattr(lat, "int_dtype", np.dtype(object))
        for name in ("divisors", "_smith_gram_rows", "_radix"):
            monkeypatch.setattr(lat, name, getattr(lat, name).astype(object))
        table = fusion_table(lat)
        assert np.array_equal(table.tensor, int64.tensor)
        assert check_nondiag_unified_vs_literal(table).passed


def edited(table, edit):
    """A new table from a copy of ``table``'s cube after ``edit(cube)`` has
    changed it in place.  The cube of a table is read-only, so a corruption
    cannot reach the checks any other way."""
    t = table.tensor.copy()
    edit(t)
    cells = np.flatnonzero(t)
    return FusionTable(table.lattice, table.labels, cells, t.reshape(-1)[cells])


class TestVerify:
    @pytest.mark.parametrize("name", ["a1", "a2", "e8"])
    def test_all_pass(self, name):
        report = verify(get_lattice(name))
        assert report.all_passed, [r for r in report.results if not r.passed]

    def test_corrupted_table_caught_with_witness(self, a1):
        table = fusion_table(a1)
        # flip one twisted-sector parity: T(0;0) x T(0;0) gains D(1/2;0)
        i = table.index[T(a1, [0], 0)]
        j = table.index[D(a1, [F(1, 2)], 0)]
        k = table.index[D(a1, [F(1, 2)], 1)]

        def swap(t):
            t[i, i, [j, k]] = t[i, i, [k, j]]

        res = check_associativity(edited(table, swap))
        assert not res.passed and "witness" in res.detail

    def test_corrupted_identity_caught(self, a1):
        table = fusion_table(a1)
        unit = table.index[D(a1, [0], 0)]

        def drop(t):
            t[unit, 1, 1] = 0

        res = check_identity(edited(table, drop))
        assert (res.passed, res.detail) == (False, "unit x D(0;1) hit D(0;1)")

    def test_corrupted_commutativity_caught(self):
        # N(T(5/6;0), T(2/3;1); D(1/3;1)) flips, so both orderings disagree;
        # the first witness in label order is the row of T(2/3;1), not the
        # corrupted row
        lat = get_lattice("scaled6")
        table = fusion_table(lat)
        i, j, k = (table.index[m] for m in (T(lat, [F(5, 6)], 0), T(lat, [F(2, 3)], 1), D(lat, [F(1, 3)], 1)))

        def flip(t):
            t[i, j, k] = 1 - t[i, j, k]

        res = check_commutativity(edited(table, flip))
        assert (res.passed, res.detail) == (
            False,
            "T(2/3;1) x T(5/6;0) differs from the swapped product at D(1/3;1)",
        )

    def test_corrupted_dual_antiautomorphism_caught(self):
        # N(T(2/3;1), T(1/6;1); D(1/3;1)) flips; its dual entry has the
        # earlier row T(1/3;0), which is where the first witness sits
        lat = get_lattice("scaled6")
        table = fusion_table(lat)
        i, j, k = (table.index[m] for m in (T(lat, [F(2, 3)], 1), T(lat, [F(1, 6)], 1), D(lat, [F(1, 3)], 1)))

        def flip(t):
            t[i, j, k] = 1 - t[i, j, k]

        res = check_dual_antiautomorphism(edited(table, flip))
        assert (res.passed, res.detail) == (False, "dual of product differs at (T(1/3;0), T(5/6;1); D(2/3;1))")

    def test_doubled_multiplicity_caught(self):
        # a1's D x T row differs only in the sqrt(2) part; scaled4 has l = 4,
        # a perfect square: the doubled row is D x T, whose qdim sqrt(4) = 2
        # is folded into the rational part
        cases = [
            ("a1", 2, 3, "N(D(1/2;0), D(1/2;1); D(0;1)) = 2", "D(1/2;0) x D(1/2;1)"),
            ("a1", 2, -1, "N(D(1/2;0), T(1/2;1); T(1/2;1)) = 2", "D(1/2;0) x T(1/2;1)"),
            ("scaled4", 2, -1, "N(D(1/4;0), T(3/4;1); T(1/4;0)) = 2", "D(1/4;0) x T(3/4;1)"),
        ]
        for name, i, j, multiplicity, pair in cases:

            def double(t):
                t[i, j, :] *= 2

            table = edited(fusion_table(get_lattice(name)), double)
            assert check_multiplicities(table) == CheckResult("multiplicities_are_01", False, multiplicity)
            detail = f"{pair}: product of qdims differs from qdim of the product"
            assert check_qdim_homomorphism(table) == CheckResult("qdim_homomorphism", False, detail)

    def test_multiplicity_witness_is_first_in_row_order(self):
        # the 3 in row T(5/6;0) comes before the 2 in row T(5/6;1)
        def write(t):
            for row, value in ((38, 2), (37, 3)):
                t[row].flat[np.flatnonzero(t[row])[-1]] = value

        res = check_multiplicities(edited(fusion_table(get_lattice("scaled6")), write))
        assert (res.passed, res.detail) == (False, "N(T(5/6;0), T(5/6;1); N(1/6,1/2)) = 3")

    def test_broken_duality_caught(self, a1):
        table = fusion_table(a1)
        unit = table.index[D(a1, [0], 0)]
        i = table.index[T(a1, [0], 0)]
        j = table.index[T(a1, [0], 1)]

        def swap(t):
            t[[i, j], :, unit] = t[[j, i], :, unit]

        res = check_duality_pairing(edited(table, swap))
        assert (res.passed, res.detail) == (False, "N(T(0;0), T(0;0); unit) = 0")

    def test_dropped_constituent_caught(self, a1, monkeypatch):
        # the check sums the qdims of each module's constituents, so losing one
        # constituent must break the sum
        verify_module = importlib.import_module("permorb.verify")
        monkeypatch.setattr(
            verify_module, "decompose_module", lambda lat, m: decompose_module(lat, m)[1:]
        )
        res = check_decomposition_qdims(fusion_table(a1))
        assert not res.passed and res.detail.startswith("D(0;0) ")

    @pytest.mark.parametrize(
        "corrupt,total",
        [
            # a Split part in place of a TwistedSplit one: the mixed sum 1 + sqrt(2)
            (lambda parts: [(parts[0][0], Split(parts[0][0].coords, 1))] + parts[1:], "1+sqrt(2)"),
            # one TwistedSplit part lost: only the sqrt(2) coefficient is wrong
            (lambda parts: parts[1:], "sqrt(2)"),
        ],
    )
    def test_twisted_constituents_checked(self, a1, monkeypatch, corrupt, total):
        def decompose(lat, m):
            parts = decompose_module(lat, m)
            return corrupt(parts) if isinstance(m, Twisted) else parts

        monkeypatch.setattr(importlib.import_module("permorb.verify"), "decompose_module", decompose)
        res = check_decomposition_qdims(fusion_table(a1))
        assert not res.passed and res.detail == f"T(0;0) decomposes with qdim sum {total}"

    @pytest.mark.parametrize("kind,first", [(NonDiag, "N(0,1/2)"), (Twisted, "T(0;0)")])
    def test_qdim_below_one_caught(self, a1, monkeypatch, kind, first):
        monkeypatch.setattr(
            importlib.import_module("permorb.verify"),
            "qdims_by_kind",
            lambda lat: {**qdims_by_kind(lat), kind: (0, 0)},
        )
        res = check_qdim_lower_bound(fusion_table(a1))
        assert not res.passed and res.detail == f"{first} has qdim < 1"

    @pytest.mark.parametrize(
        "q,ok", [((-1, 1), False), ((2, -1), False), ((3, -1), True), ((1, 0), True), ((0, 1), True)]
    )
    def test_qdim_lower_bound_is_exact(self, a1, monkeypatch, q, ok):
        # l = 2: -1 + sqrt(2) and 2 - sqrt(2) are below 1, 3 - sqrt(2) is not
        monkeypatch.setattr(
            importlib.import_module("permorb.verify"),
            "qdims_by_kind",
            lambda lat: {**qdims_by_kind(lat), NonDiag: q},
        )
        assert check_qdim_lower_bound(fusion_table(a1)).passed == ok

    def test_empty_table_reported(self, a1):
        # a table with no entries at all: every check returns a result, and
        # identity and the duality pairing fail at their first cell
        table = FusionTable(a1, enumerate_modules(a1), np.zeros(0, np.int64), np.zeros(0, np.int64))
        results = run_checks(table)
        assert [r.name for r in results] == [r.name for r in run_checks(fusion_table(a1))]
        assert CheckResult("identity", False, "unit x D(0;0) hit D(0;0)") in results
        assert CheckResult("duality_pairing", False, "N(D(0;0), D(0;0); unit) = 0") in results

    def test_wrong_glob_caught(self, a1, monkeypatch):
        monkeypatch.setattr(importlib.import_module("permorb.verify"), "glob", lambda lat: (15, 1))
        res = check_glob(fusion_table(a1))
        assert not res.passed and res.detail == "glob = 15+sqrt(2), expected 16"



def drop_constituent(row, table):
    row[table.index[D(table.lattice, [F(1, 3)], 1)]] = 0


def add_spurious_diag(row, table):
    row[table.index[D(table.lattice, [F(1, 2)], 0)]] += 1


def swap_targets(row, table):
    # the constituent N(1/6,1/2) trades places with the absent N(0,1/6)
    lat = table.lattice
    c = table.index[nondiag(lat, vector([F(1, 6)]), vector([F(1, 2)]))]
    e = table.index[nondiag(lat, vector([0]), vector([F(1, 6)]))]
    row[c], row[e] = row[e], row[c]


class TestNondiagCheck:
    """Negative controls: on [[6]], N(1/3,1/2) x N(0,5/6) = D(1/3;0) +
    D(1/3;1) + N(1/6,1/2), and N(0,5/6) comes first in label order.  The
    expected details were recorded on the per-pair implementation."""

    @pytest.mark.parametrize("corrupt", [drop_constituent, add_spurious_diag, swap_targets])
    @pytest.mark.parametrize(
        "both,names",
        [(False, "N(1/3,1/2) x N(0,5/6)"), (True, "N(0,5/6) x N(1/3,1/2)")],
    )
    def test_corrupted_entry_caught_with_first_witness(self, corrupt, both, names):
        lat = validate_lattice([[6]])
        table = fusion_table(lat)
        a = table.index[nondiag(lat, vector([F(1, 3)]), vector([F(1, 2)]))]
        b = table.index[nondiag(lat, vector([0]), vector([F(5, 6)]))]

        def edit(t):
            for i, j in [(a, b), (b, a)] if both else [(a, b)]:
                corrupt(t[i, j], table)

        res = check_nondiag_unified_vs_literal(edited(table, edit))
        assert not res.passed
        assert res.detail == f"{names}: literal case split disagrees with the unified rule"

    def test_intact_table_passes(self):
        assert check_nondiag_unified_vs_literal(fusion_table(validate_lattice([[6]]))).passed


def dense_associativity(table):
    """The full associativity sweep over every ``a``, kept as the reference
    for the orbit-representative sweep of ``check_associativity``; returns
    ``(passed, detail)``."""
    n = len(table.labels)
    t = table.tensor.astype(np.float64)
    flat = t.reshape(n, n * n)
    for a in range(n):
        lhs = (t[a] @ flat).reshape(n, n, n)
        rhs = (t.reshape(n * n, n) @ t[a]).reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            i = tuple(int(x) for x in np.argwhere(lhs != rhs)[0])
            s = [format_label(table.labels[x]) for x in (a, *i)]
            return False, f"witness ({s[0]}, {s[1]}, {s[2]}) -> {s[3]}: {int(lhs[i])} vs {int(rhs[i])}"
    return True, ""


def dense_nondiag(table):
    """The sweep of every NonDiag row against the literal case split, kept as
    the reference for ``check_nondiag_unified_vs_literal``, which sweeps the
    orbit representatives only; returns ``(passed, detail)``."""
    lat = table.lattice
    reps = lat.dual_mod_lattice
    coset = {r: c for c, r in enumerate(reps)}
    d_col = np.array([[table.index[Diag(r, eps)] for eps in (0, 1)] for r in reps])
    n_col = np.zeros((len(reps), len(reps)), dtype=np.intp)
    for u, v in zip(*np.triu_indices(len(reps), 1)):
        n_col[u, v] = n_col[v, u] = table.index[NonDiag(reps[u], reps[v])]
    disc = lat.discriminant
    add = lat.coset_index((disc[:, None] + disc) % lat.divisors).astype(np.intp)
    nd = np.array([i for i, m in enumerate(table.labels) if isinstance(m, NonDiag)], dtype=np.intp)
    cosets = [[coset[table.labels[j].lam], coset[table.labels[j].mu]] for j in nd]
    gam, dlt = np.array(cosets, dtype=np.intp).reshape(-1, 2).T
    n = len(table.labels)
    offset = np.arange(len(nd)) * n
    for i in nd:
        lam, mu = coset[table.labels[i].lam], coset[table.labels[i].mu]
        lg, md, mg, ld = add[lam, gam], add[mu, dlt], add[mu, gam], add[lam, dlt]
        orientations = [(lg, md, mg, ld), (mg, ld, lg, md), (ld, mg, md, lg), (md, lg, ld, mg)]
        expected = np.zeros((4, len(nd), n), dtype=np.int16)
        covered, cells = [], []
        for o, (x, y, z, w) in enumerate(orientations):
            same1, same2 = x == y, z == w
            covered.append(~same1 | same2)
            terms = [(same1 & same2, d_col[x, 0]), (same1 & same2, d_col[x, 1])]
            terms += [(same2, d_col[z, 0]), (same2, d_col[z, 1])]
            terms += [(~same1, n_col[x, y]), (~same1 & ~same2, n_col[z, w])]
            cells += [o * len(nd) * n + (offset + col)[mask] for mask, col in terms]
        np.add.at(expected.reshape(-1), np.concatenate(cells), 1)
        got = table.tensor[i, nd]
        bad = (np.array(covered) & (expected != got).any(2)).any(0)
        if bad.any():
            names = f"{format_label(table.labels[i])} x {format_label(table.labels[nd[bad.argmax()]])}"
            return False, f"{names}: literal case split disagrees with the unified rule"
    return True, ""


def dense_identity(table):
    """The reference for ``check_identity``: the unit's row against the identity matrix."""
    t, n = table.tensor, len(table.labels)
    unit = table.index[Diag(table.lattice.dual_mod_lattice[0], 0)]
    rows = (t[a] != np.eye(n) if a == unit else np.zeros((n, n), dtype=bool) for a in range(n))
    return dense_sweep(table, rows, lambda i, s: f"unit x {s[1]} hit {s[2]}")


def dense_duality_pairing(table):
    """The reference for ``check_duality_pairing``: the unit's column of
    every pair against the permutation matrix of the duals."""
    t, n = table.tensor, len(table.labels)
    unit = table.index[Diag(table.lattice.dual_mod_lattice[0], 0)]
    wrong = t[:, :, unit] != np.eye(n)[table.dual]

    def row(a):
        out = np.zeros((n, n), dtype=bool)
        out[:, unit] = wrong[a]
        return out

    return dense_sweep(table, map(row, range(n)), lambda i, s: f"N({s[0]}, {s[1]}; unit) = {int(t[i])}")


def dense_sweep(table, rows, detail):
    """``(passed, detail)`` of a sweep over the per-row masks ``rows`` of the
    dense table: ``detail(idx, names)`` for the first true entry in row
    order, as ``verify`` reported before the checks read the entries."""
    for a, row in enumerate(rows):
        if row.any():
            idx = (a, *(int(i) for i in np.argwhere(row)[0]))
            return False, detail(idx, [format_label(table.labels[i]) for i in idx])
    return True, ""


def dense_commutativity(table):
    """The reference for ``check_commutativity``: each row against the column slice."""
    t = table.tensor
    return dense_sweep(
        table,
        (t[a] != t[:, a] for a in range(len(t))),
        lambda i, s: f"{s[0]} x {s[1]} differs from the swapped product at {s[2]}",
    )


def dense_dual_antiautomorphism(table):
    """The reference for ``check_dual_antiautomorphism``: each row against
    the permuted row of the dual label."""
    t, perm = table.tensor, table.dual
    return dense_sweep(
        table,
        (t[perm[a]][perm][:, perm] != t[a] for a in range(len(t))),
        lambda i, s: f"dual of product differs at ({s[0]}, {s[1]}; {s[2]})",
    )


def dense_multiplicities(table):
    """The reference for ``check_multiplicities``."""
    t = table.tensor
    return dense_sweep(table, (t[a] > 1 for a in range(len(t))), lambda i, s: f"N({s[0]}, {s[1]}; {s[2]}) = {int(t[i])}")


def dense_covariant(t, s):
    """Whether ``N[s a, b, s c] == N[a, s b, s c] == N[a, b, c]`` everywhere,
    compared one dense row at a time; the reference for the covariance gate,
    which reads the nonzero entries only."""
    return all(np.array_equal(t[s[a]][:, s], t[a]) and np.array_equal(t[a][s][:, s], t[a]) for a in range(len(t)))


def flipped(table, *entries):
    """A copy of ``table`` with ``N(a, b; c)`` and ``N(b, a; c)`` flipped
    between 0 and 1 for each ``(a, b, c)`` in ``entries``."""

    def flip_both(t):
        for a, b, c in entries:
            t[a, b, c] = t[b, a, c] = 1 - t[a, b, c]

    return edited(table, flip_both)


EQUIVALENCE_GRAMS = {
    "z2": [[2]],
    "z4": [[4]],
    "z6": [[6]],
    "z8": [[8]],
    "a2": [[2, -1], [-1, 2]],
    "a1sq": [[2, 0], [0, 2]],
    "l7": [[4, 1], [1, 2]],
}


class TestAssociativityReduction:
    @pytest.mark.parametrize("name", EQUIVALENCE_GRAMS)
    def test_matches_full_sweep_on_corrupted_tables(self, name):
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        assert check_associativity(table) == CheckResult("associativity", True)
        assert dense_associativity(table) == (True, "")
        n = len(table.labels)
        rng = random.Random(f"associativity-{name}")
        for _ in range(30):
            # one flipped entry, or two unequal entries of one product swapped
            a, b, c = (rng.randrange(n) for _ in range(3))
            entries = [(a, b, c)]
            if rng.random() < 0.5:
                d = rng.choice(np.flatnonzero(table.tensor[a, b] != table.tensor[a, b, c]))
                entries.append((a, b, d))
            corrupted = flipped(table, *entries)
            res = check_associativity(corrupted)
            assert (res.passed, res.detail) == dense_associativity(corrupted), entries

    @pytest.mark.parametrize("name", ["a2", "l7"])
    def test_matches_full_sweep_when_covariant_in_one_slot(self, name):
        # one entry flipped at (J a, b, J c), or at (a, J b, J c), for every
        # current J: the table is not commutative and stays covariant in that
        # slot only
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        n = len(table.labels)
        currents = [table.tensor[j].argmax(1) for j, m in enumerate(table.labels) if isinstance(m, Diag)]
        rng = random.Random(f"one-slot-{name}")
        for case in range(16):
            a, b, c = (rng.randrange(n) for _ in range(3))

            def write(t):
                for s in currents:
                    at = (s[a], b, s[c]) if case % 2 else (a, s[b], s[c])
                    t[at] = 1 - table.tensor[a, b, c]

            corrupted = edited(table, write)
            res = check_associativity(corrupted)
            assert (res.passed, res.detail) == dense_associativity(corrupted), (case, a, b, c)

    @pytest.mark.parametrize(
        "name,a,c", [("a2", ([0, 0], 1), ([0, 0], 0)), ("scaled4", ([F(3, 4)], 0), ([0], 0))]
    )
    def test_non_covariant_currents_rejected(self, name, a, c):
        # the flip leaves many rows permutation matrices that are no longer
        # covariant: orbit representatives taken under them miss the failure
        lat = get_lattice(name)
        table = fusion_table(lat)
        i, k = table.index[D(lat, *a)], table.index[D(lat, *c)]
        corrupted = flipped(table, (i, i, k))
        passed, detail = dense_associativity(corrupted)
        assert not passed
        assert check_associativity(corrupted) == CheckResult("associativity", False, detail)

    @pytest.mark.parametrize("name", ["z6", "a2", "l7"])
    def test_covariance_gate_matches_dense_reference(self, name):
        # one value written into a cell, into its orbit under the currents in
        # one slot, or into its orbit in both slots, which keeps the table
        # covariant; half of the cells were zero before
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        currents = [table.tensor[j].argmax(1) for j, m in enumerate(table.labels) if isinstance(m, Diag)]
        zeros, nonzeros = np.argwhere(table.tensor == 0), np.argwhere(table.tensor != 0)
        rng = random.Random(f"covariance-gate-{name}")
        verdicts = Counter()
        for case in range(24):
            zero = (case // 4) % 2
            pool = zeros if zero else nonzeros
            a, b, c = pool[rng.randrange(len(pool))]
            value = rng.choice([-1, 2, 3] + [1] * zero)
            cells = [
                [(a, b, c)],
                [(p[a], b, p[c]) for p in currents],
                [(a, q[b], q[c]) for q in currents],
                [(p[a], q[b], q[p[c]]) for p in currents for q in currents],
            ][case % 4]

            def write(t):
                for at in cells:
                    t[at] = value

            corrupted = edited(table, write)
            for s in currents:
                covariant = dense_covariant(corrupted.tensor, s)
                assert _covariant(corrupted, s) == covariant, (case, cells[0], value)
                verdicts[covariant] += 1
        assert verdicts[True] and verdicts[False]

    def test_sweep_visits_only_representatives(self, a2, monkeypatch):
        # with the covariance gate forced open, the a2 control above passes:
        # the sweep trusts the broken currents and skips the failing labels
        table = fusion_table(a2)
        i, k = table.index[D(a2, [0, 0], 1)], table.index[D(a2, [0, 0], 0)]
        corrupted = flipped(table, (i, i, k))
        monkeypatch.setattr(importlib.import_module("permorb.verify"), "_covariant", lambda table, s: True)
        assert check_associativity(corrupted).passed

    @pytest.mark.parametrize(
        "gram,count",
        [([[16]], 11), ([[24]], 15), ([[2, -1], [-1, 2]], 3), ([[2 * (i == j) for j in range(4)] for i in range(4)], 32)],
    )
    def test_representative_count(self, gram, count):
        table = fusion_table(validate_lattice(gram))
        assert len(_orbit_representatives(table)) == count


def relabelled(table, p, q):
    """``table`` with the labels ``p`` and ``q`` traded in all three slots:
    an isomorphic ring, on which the simple currents stay covariant but no
    longer act on ``p`` and ``q`` as coset translations."""
    perm = np.arange(len(table.labels))
    perm[[p, q]] = [q, p]

    def swap(t):
        t[...] = table.tensor[np.ix_(perm, perm, perm)]

    return edited(table, swap)


class TestNondiagReduction:
    @pytest.mark.parametrize("name", EQUIVALENCE_GRAMS)
    def test_matches_full_sweep_on_corrupted_tables(self, name):
        # a value written into an N x N cell of a row that is not swept, into
        # it and its transpose, or into its whole orbit under the currents in
        # both slots, which keeps the table covariant; or two NonDiag labels
        # traded, a ring that the literal split rejects
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        assert dense_nondiag(table) == (True, "")
        nd = [i for i, m in enumerate(table.labels) if isinstance(m, NonDiag)]
        swept = set(_orbit_representatives(table).tolist())
        rows = [i for i in nd if i not in swept] or nd
        currents = [table.tensor[j].argmax(1) for j, m in enumerate(table.labels) if isinstance(m, Diag)]
        rng = random.Random(f"nondiag-{name}")
        verdicts = Counter()
        for case in range(24):
            if case % 4 == 3:
                if len(nd) < 2:
                    continue
                corrupted = relabelled(table, *rng.sample(nd, 2))
            else:
                a, b, c = rng.choice(rows), rng.choice(nd), rng.randrange(len(table.labels))
                value = rng.choice([v for v in (0, 1, 2) if v != table.tensor[a, b, c]])
                cells = [
                    [(a, b, c)],
                    [(a, b, c), (b, a, c)],
                    [(p[a], q[b], q[p[c]]) for p in currents for q in currents],
                ][case % 4]

                def write(t):
                    for at in cells:
                        t[at] = value

                corrupted = edited(table, write)
            res = check_nondiag_unified_vs_literal(corrupted)
            assert (res.passed, res.detail) == dense_nondiag(corrupted), case
            verdicts[res.passed] += 1
        assert verdicts[False] and len(swept) < len(table.labels)


    @pytest.mark.parametrize("name", ["z6", "z8", "l7"])
    @pytest.mark.parametrize("kind", [NonDiag, Diag])
    def test_currents_that_do_not_translate_are_not_used(self, name, kind):
        # after two labels are traded the currents stay covariant, but the
        # NonDiag sweep may not rely on one that is no coset translation:
        # with N labels p and q from different orbits, one that does not map
        # {p, q} onto itself; with D(x; 0) and D(y; 0), x != y, one that
        # splits a pair {D(x; 0), D(x; 1)}.  What remains merges no N labels
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        nd = [i for i, m in enumerate(table.labels) if isinstance(m, NonDiag)]
        currents = [table.tensor[j].argmax(1) for j, m in enumerate(table.labels) if isinstance(m, Diag)]
        if kind is NonDiag:
            p = nd[0]
            q = next(i for i in nd if i not in {s[p] for s in currents})
        else:
            p, q = (table.index[Diag(r, 0)] for r in table.lattice.dual_mod_lattice[1:3])
        swapped = relabelled(table, p, q)
        assert set(nd) <= set(_orbit_representatives(swapped).tolist())
        for j in range(2 * table.lattice.det):  # the rows of the currents D(g; eps)
            assert _covariant(swapped, swapped.tensor[j].argmax(1))


class TestRepresentativeCache:
    def test_searched_once_per_table_and_dropped_with_it(self, monkeypatch):
        verify_module = importlib.import_module("permorb.verify")
        search, calls = verify_module._representative_search, Counter()

        def counted(table):
            calls["search"] += 1
            return search(table)

        monkeypatch.setattr(verify_module, "_representative_search", counted)
        table = fusion_table(validate_lattice([[6]]))
        assert all(r.passed for r in verify_module.run_checks(table))
        assert calls["search"] == 1
        alive = weakref.ref(table)
        del table
        gc.collect()
        assert alive() is None


class TestRowSweepReferences:
    """The commutativity, dual and multiplicity checks, which read the
    entries, report what row-by-row sweeps of the dense table report."""

    @pytest.mark.parametrize("name", EQUIVALENCE_GRAMS)
    def test_entry_checks_match_row_sweeps(self, name):
        # one to three cells get a new value, each a zero cell or an entry;
        # in every fourth case each value goes to the swapped cell too, which
        # keeps the table commutative, and in another to the dual cell too
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        zeros, nonzeros = np.argwhere(table.tensor == 0), np.argwhere(table.tensor != 0)
        rng = random.Random(f"row-sweeps-{name}")
        d = table.dual
        pairs = [
            (check_commutativity, dense_commutativity),
            (check_dual_antiautomorphism, dense_dual_antiautomorphism),
            (check_multiplicities, dense_multiplicities),
        ]
        verdicts = Counter()
        for case in range(24):
            writes = []
            for _ in range(1 + case % 3):
                zero = rng.random() < 0.5
                pool = zeros if zero else nonzeros
                a, b, c = pool[rng.randrange(len(pool))]
                value = rng.choice([-1, 2, 3, 1 if zero else 0])
                mirror = {2: [(d[a], d[b], d[c])], 3: [(b, a, c)]}.get(case % 4, [])
                writes += [(at, value) for at in [(a, b, c), *mirror]]

            def write(t):
                for at, value in writes:
                    t[at] = value

            corrupted = edited(table, write)
            for check, reference in pairs:
                res = check(corrupted)
                assert (res.passed, res.detail) == reference(corrupted), (check.__name__, writes)
                verdicts[check.__name__, res.passed] += 1
        # where every label is self-dual, a write cannot break the dual check
        self_dual = np.array_equal(d, np.arange(len(d)))
        assert len(verdicts) == 6 - self_dual, verdicts

    @pytest.mark.parametrize("name", EQUIVALENCE_GRAMS)
    def test_unit_checks_match_dense_slices(self, name):
        # one to three cells of the unit's row, or of the unit's column of a
        # pair, get a new value
        table = fusion_table(validate_lattice(EQUIVALENCE_GRAMS[name]))
        n, unit = len(table.labels), table.index[Diag(table.lattice.dual_mod_lattice[0], 0)]
        rng = random.Random(f"unit-checks-{name}")
        pairs = [(check_identity, dense_identity), (check_duality_pairing, dense_duality_pairing)]
        verdicts = Counter()
        for case in range(24):
            writes = []
            for _ in range(1 + case % 3):
                a, b = rng.randrange(n), rng.randrange(n)
                at = (unit, a, b) if rng.random() < 0.5 else (a, b, unit)
                writes.append((at, rng.choice([-1, 0, 1, 2])))

            def write(t):
                for at, value in writes:
                    t[at] = value

            corrupted = edited(table, write)
            for check, reference in pairs:
                res = check(corrupted)
                assert (res.passed, res.detail) == reference(corrupted), (check.__name__, writes)
                verdicts[check.__name__, res.passed] += 1
        assert len(verdicts) == 4, verdicts
