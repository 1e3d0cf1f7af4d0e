from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permorb.characters import (
    chi_eval,
    chi_of_lambda,
    chi_shift,
    format_character,
    pi_pairing,
    split_gauge_sign,
    weight_parity_sign,
)
from permorb.errors import NonIntegralPairing, NotInDual, NotInLattice
from permorb.lattice import vector

from conftest import all_characters, dual_mod_two_lattice, get_lattice, lattice_mod_two, vec_add


class TestChiOfLambda:
    def test_zero(self, a1):
        assert chi_of_lambda(a1, vector([0])) == (-1,)

    def test_half(self, a1):
        assert chi_of_lambda(a1, vector([F(1, 2)])) == (1,)

    def test_invariance_mod_two_dual(self, a1):
        # 3/2 = 1/2 + 2*(1/2) differs from 1/2 by an element of 2L*
        assert chi_of_lambda(a1, vector([F(3, 2)])) == chi_of_lambda(a1, vector([F(1, 2)]))

    def test_rejects_non_dual(self, a1):
        with pytest.raises(NotInDual):
            chi_of_lambda(a1, vector([F(1, 3)]))

    @pytest.mark.parametrize("name", ["a1", "a2", "chain3"])
    def test_homomorphism_in_label(self, name):
        lat = get_lattice(name)
        reps = list(lat.dual_mod_lattice)
        chi0 = chi_of_lambda(lat, vector([0] * lat.dim))
        for lam in reps:
            for mu in reps:
                left = chi_of_lambda(lat, vec_add(lam, mu))
                cl = chi_of_lambda(lat, lam)
                cm = chi_of_lambda(lat, mu)
                assert tuple(a * b for a, b in zip(left, chi0)) == tuple(
                    a * b for a, b in zip(cl, cm)
                )

    @pytest.mark.parametrize("name", ["a1", "a1sq", "a2", "chain3", "a1cube"])
    def test_surjective_onto_sign_vectors(self, name):
        # lifting L*/2L* through representatives of L*/2L hits every character
        lat = get_lattice(name)
        seen = {chi_of_lambda(lat, x) for x in dual_mod_two_lattice(lat)}
        assert seen == set(all_characters(lat))


class TestChiEval:
    def test_generator(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        assert chi_eval(a1, chi0, vector([1])) == -1

    def test_at_zero(self, a1):
        for chi in all_characters(a1):
            assert chi_eval(a1, chi, vector([0])) == 1

    def test_doubled_vector(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        assert chi_eval(a1, chi0, vector([2])) == 1

    def test_rejects_non_lattice(self, a1):
        with pytest.raises(NotInLattice):
            chi_eval(a1, (1,), vector([F(1, 2)]))

    @pytest.mark.parametrize("name", ["a2", "chain3"])
    def test_multiplicative(self, name):
        lat = get_lattice(name)
        vecs = [vector(c) for c in product(range(-1, 2), repeat=lat.dim)]
        for chi in all_characters(lat):
            for x in vecs:
                for y in vecs:
                    assert chi_eval(lat, chi, vec_add(x, y)) == chi_eval(
                        lat, chi, x
                    ) * chi_eval(lat, chi, y)


class TestChiShift:
    def test_shift_by_half(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        assert chi_shift(a1, chi0, vector([F(1, 2)])) == (1,)

    def test_shift_by_zero(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        assert chi_shift(a1, chi0, vector([0])) == chi0

    def test_shift_by_lattice_vector_tracks_label(self, a1):
        chi0 = chi_of_lambda(a1, vector([0]))
        assert chi_shift(a1, chi0, vector([1])) == chi_of_lambda(a1, vector([1]))

    @pytest.mark.parametrize("name", ["a1", "a2", "odd7"])
    def test_shift_by_two_dual_is_identity(self, name):
        lat = get_lattice(name)
        for lam in lat.dual_mod_lattice:
            doubled = tuple(2 * c for c in lam)
            for chi in all_characters(lat):
                assert chi_shift(lat, chi, doubled) == chi


class TestPiPairing:
    def test_even_norm(self, a1):
        assert pi_pairing(a1, vector([1]), vector([1])) == 1

    def test_half_with_generator(self, a1):
        assert pi_pairing(a1, vector([F(1, 2)]), vector([1])) == -1

    def test_zero(self, a1):
        assert pi_pairing(a1, vector([0]), vector([F(1, 2)])) == 1

    def test_non_integral_rejected(self, a1):
        with pytest.raises(NonIntegralPairing):
            pi_pairing(a1, vector([F(1, 2)]), vector([F(1, 2)]))


class TestParitySigns:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_weight_parity_factors_through_gauge(self, data):
        # the quadratic sign is chi_eval times the alignment sign, pointwise
        lat = get_lattice(data.draw(st.sampled_from(["a1", "a2", "chain3", "odd7"])))
        lam = data.draw(st.sampled_from(list(lat.dual_mod_lattice)))
        alpha = vector(data.draw(st.tuples(*([st.integers(-3, 3)] * lat.dim))))
        chi = chi_of_lambda(lat, lam)
        assert weight_parity_sign(lat, lam, alpha) == chi_eval(lat, chi, alpha) * split_gauge_sign(
            lat, alpha
        )

    def test_gauge_trivial_for_even_cross_terms(self):
        lat = get_lattice("a1sq")
        for alpha in lattice_mod_two(lat):
            assert split_gauge_sign(lat, alpha) == 1

    def test_gauge_nontrivial_on_a2(self, a2):
        signs = {split_gauge_sign(a2, alpha) for alpha in lattice_mod_two(a2)}
        assert signs == {1, -1}

    def test_format(self, a2):
        assert format_character((1, -1)) == "+-"
