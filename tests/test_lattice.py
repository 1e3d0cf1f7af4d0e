import hashlib
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permorb.characters import weight_parity_sign
from permorb.cli import parse_label
from permorb.errors import (
    DimensionMismatch,
    NotEven,
    NotInAmbientGroup,
    NotInDual,
    NotPositiveDefinite,
    NotSymmetric,
    PermorbError,
)
from permorb.lattice import (
    Modulus,
    canonicalize,
    halve_mod_L,
    inner,
    smith_normal_form,
    validate_lattice,
    vector,
)
from permorb.orbifold import fusion_table

from conftest import GRAMS, dual_mod_two_lattice, get_lattice, lattice_mod_two, vec_add, vec_sub


def mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(n)
    )


class TestValidate:
    def test_rank_one(self):
        lat = validate_lattice([[2]])
        assert lat.dim == 1 and lat.det == 2

    def test_a2_determinant(self):
        lat = validate_lattice([[2, -1], [-1, 2]])
        assert lat.dim == 2 and lat.det == 3

    def test_odd_diagonal_rejected(self):
        with pytest.raises(NotEven):
            validate_lattice([[1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            validate_lattice([[2, 1], [0, 2]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            validate_lattice([[2, 3], [3, 2]])

    def test_rank_zero_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            validate_lattice([])

    @pytest.mark.parametrize(
        "gram,message",
        [
            ([[0]], "leading 1x1 minor is 0"),
            ([[-2]], "leading 1x1 minor is -2"),
            ([[2, 3], [3, 2]], "leading 2x2 minor is -5"),
            ([[2, 2], [2, 2]], "leading 2x2 minor is 0"),
            ([[2, 1, 0], [1, 2, 2], [0, 2, 2]], "leading 3x3 minor is -2"),
        ],
    )
    def test_first_non_positive_minor_message(self, gram, message):
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_lattice(gram)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", GRAMS)
    def test_expected_determinants(self, name):
        gram, expected_det = GRAMS[name]
        assert get_lattice(name).det == expected_det


class TestRandomGram:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_builds_or_raises_permorb_error(self, data):
        d = data.draw(st.integers(1, 3))
        gram = [[0] * d for _ in range(d)]
        for i in range(d):
            gram[i][i] = data.draw(st.integers(-2, 8))
            for j in range(i + 1, d):
                gram[i][j] = gram[j][i] = data.draw(st.integers(-6, 6))
        try:
            lat = validate_lattice(gram)
        except PermorbError:
            return
        assert lat.det == det(gram) == len(lat.dual_mod_lattice)


def smith_batch():
    """A seeded batch of 2,000 square matrices of sizes 1-7: even indices
    general with entries in [-12, 12], odd indices symmetric with even
    diagonal, and every fifth one made singular."""
    rng = random.Random(20260918)
    out = []
    for i in range(2000):
        n = rng.randint(1, 7)
        if i % 2:
            a = [[0] * n for _ in range(n)]
            for r in range(n):
                a[r][r] = 2 * rng.randint(-6, 6)
                for c in range(r + 1, n):
                    a[r][c] = a[c][r] = rng.randint(-12, 12)
        else:
            a = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        if i % 5 == 0 and n > 1:
            a[-1] = [x + y for x, y in zip(a[0], a[1])] if n > 2 else [0] * n
        out.append(a)
    return out


class TestSmithNormalForm:
    # U and V fix every canonical representative and the label order, so
    # the exact transforms are pinned, not only U A V = D
    def test_transforms_pinned_on_seeded_batch(self):
        h = hashlib.sha256()
        for a in smith_batch():
            h.update(repr(smith_normal_form(a)).encode())
        assert h.hexdigest() == "7f1dae2eb82e869a13e2192fd7a1efd507097f66858cac4ce37e8fc82d7d1f56"

    def test_transforms_pinned_l180(self):
        u, d, v = smith_normal_form([[4, 1, 0], [1, 6, 1], [0, 1, 8]])
        assert u == ((1, 0, 0), (-6, 1, 0), (47, -8, 1))
        assert d == ((1, 0, 0), (0, 1, 0), (0, 0, 180))
        assert v == ((0, 0, 1), (1, 0, -4), (0, 1, 23))

    def test_transforms_pinned_divisibility_fix(self):
        # 2 does not divide 3, so the pivot row takes the offending row once
        u, d, v = smith_normal_form([[2, 0], [0, 3]])
        assert u == ((1, 1), (3, 2))
        assert d == ((1, 0), (0, 6))
        assert v == ((-1, 3), (1, -2))

    def test_identity(self):
        u, d, v = smith_normal_form([[1, 0], [0, 1]])
        assert d == ((1, 0), (0, 1))

    def test_a2(self):
        a = [[2, -1], [-1, 2]]
        u, d, v = smith_normal_form(a)
        assert d == ((1, 0), (0, 3))
        assert tuple(tuple(r) for r in mat_mul(mat_mul([list(r) for r in u], a), [list(r) for r in v])) == d

    def test_already_diagonal(self):
        _, d, _ = smith_normal_form([[2, 0], [0, 2]])
        assert d == ((2, 0), (0, 2))

    @pytest.mark.parametrize("name", GRAMS)
    def test_reconstruction_and_unimodularity(self, name):
        gram = GRAMS[name][0]
        u, d, v = smith_normal_form(gram)
        lists = lambda m: [list(r) for r in m]
        assert mat_mul(mat_mul(lists(u), gram), lists(v)) == lists(d)
        assert abs(det(lists(u))) == 1
        assert abs(det(lists(v))) == 1
        divisors = [d[i][i] for i in range(len(gram))]
        assert all(x >= 0 for x in divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, rows):
        u, d, v = smith_normal_form(rows)
        lists = lambda m: [list(r) for r in m]
        assert mat_mul(mat_mul(lists(u), rows), lists(v)) == lists(d)
        assert abs(det(lists(u))) == 1
        assert abs(det(lists(v))) == 1
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert d[i][j] == 0


class TestInner:
    def test_generator_norm(self, a1):
        assert inner(a1, vector([1]), vector([1])) == 2

    def test_half_generator(self, a1):
        assert inner(a1, vector([F(1, 2)]), vector([1])) == 1
        assert inner(a1, vector([F(1, 2)]), vector([F(1, 2)])) == F(1, 2)

    def test_dimension_mismatch(self, a1):
        with pytest.raises(DimensionMismatch):
            inner(a1, vector([1, 0]), vector([1]))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_bilinear(self, data):
        lat = get_lattice(data.draw(st.sampled_from(["a1", "a2", "chain3"])))
        frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        vec = st.tuples(*([frac] * lat.dim))
        x = data.draw(vec)
        y = data.draw(vec)
        z = data.draw(vec)
        c = data.draw(frac)
        assert inner(lat, x, y) == inner(lat, y, x)
        assert inner(lat, vec_add(x, z), y) == inner(lat, x, y) + inner(lat, z, y)
        assert inner(lat, tuple(c * a for a in x), y) == c * inner(lat, x, y)


class TestCosets:
    def test_a1_dual_reps(self, a1):
        assert list(a1.dual_mod_lattice) == [vector([0]), vector([F(1, 2)])]

    def test_a1_mod_two_reps(self, a1):
        assert lattice_mod_two(a1) == [vector([0]), vector([1])]

    def test_a1_two_torsion(self, a1):
        assert halve_mod_L(a1, vector([0])) == (vector([0]), vector([F(1, 2)]))

    @pytest.mark.parametrize("name", GRAMS)
    def test_sizes(self, name):
        lat = get_lattice(name)
        assert len(lat.dual_mod_lattice) == lat.det
        assert len(lattice_mod_two(lat)) == 2**lat.dim
        assert len(dual_mod_two_lattice(lat)) == lat.det * 2**lat.dim
        torsion_keys = {lat.numerators(g) for g in halve_mod_L(lat, vector([0] * lat.dim))}
        dual_keys = {lat.numerators(r) for r in lat.dual_mod_lattice}
        assert torsion_keys <= dual_keys

    @pytest.mark.parametrize("name", GRAMS)
    def test_reps_distinct_and_canonical(self, name):
        lat = get_lattice(name)
        quotients = [
            (lat.dual_mod_lattice, Modulus.DUAL_MOD_LATTICE),
            (halve_mod_L(lat, vector([0] * lat.dim)), Modulus.DUAL_MOD_LATTICE),
            (lattice_mod_two(lat), Modulus.LATTICE_MOD_2LATTICE),
            (dual_mod_two_lattice(lat), Modulus.DUAL_MOD_2LATTICE),
        ]
        for reps, modulus in quotients:
            assert len(set(reps)) == len(reps)
            keys = [lat.numerators(r) for r in reps]
            assert all(k < k_next for k, k_next in zip(keys, keys[1:]))
            for r in reps[:16]:
                assert canonicalize(lat, r, modulus) == r


class TestCanonicalize:
    def test_lattice_vector_is_zero(self, a1):
        assert canonicalize(a1, vector([1]), Modulus.DUAL_MOD_LATTICE) == vector([0])

    def test_three_halves(self, a1):
        got = canonicalize(a1, vector([F(3, 2)]), Modulus.DUAL_MOD_LATTICE)
        assert got == vector([F(1, 2)])

    def test_negative_half(self, a1):
        got = canonicalize(a1, vector([F(-1, 2)]), Modulus.DUAL_MOD_LATTICE)
        assert got == vector([F(1, 2)])

    def test_outside_ambient_group(self, a1):
        with pytest.raises(NotInAmbientGroup):
            canonicalize(a1, vector([F(1, 3)]), Modulus.DUAL_MOD_LATTICE)
        with pytest.raises(NotInAmbientGroup):
            canonicalize(a1, vector([F(1, 2)]), Modulus.LATTICE_MOD_2LATTICE)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_congruent(self, data):
        lat = get_lattice(data.draw(st.sampled_from(["a1", "a2", "scaled4", "chain3"])))
        rep = data.draw(st.sampled_from(list(lat.dual_mod_lattice)))
        shift = data.draw(st.tuples(*([st.integers(-4, 4)] * lat.dim)))
        x = vec_add(rep, vector(shift))
        c = canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE)
        assert lat.in_lattice(vec_sub(x, c))
        assert canonicalize(lat, c, Modulus.DUAL_MOD_LATTICE) == c
        c2 = canonicalize(lat, x, Modulus.DUAL_MOD_2LATTICE)
        assert canonicalize(lat, vec_sub(x, c2), Modulus.LATTICE_MOD_2LATTICE) == vector([0] * lat.dim)


class TestNumerators:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_membership_agrees_with_gram_integrality(self, data):
        lat = get_lattice(data.draw(st.sampled_from(["a1", "a2", "odd7", "chain3", "d4", "scaled12"])))
        frac = st.fractions(min_value=-3, max_value=3, max_denominator=12)
        x = data.draw(st.tuples(*([frac] * lat.dim)))
        in_dual = all(sum(g * c for g, c in zip(row, x)).denominator == 1 for row in lat.gram)
        try:
            k = lat.numerators(x)
        except NotInDual:
            assert not in_dual
            return
        assert in_dual
        # k / d are the coordinates of x in the Smith basis V
        y = [F(c, d) for c, d in zip(k, lat.elementary_divisors)]
        assert tuple(sum(map(mul, row, y)) for row in lat._v) == x
        assert lat.in_lattice(vec_sub(x, lat.from_numerators(k)))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_weight_flip_is_the_weight_parity_of_the_shift(self, data):
        # the integer flip on numerators against the rational weight parity
        lat = get_lattice(data.draw(st.sampled_from(["a1", "a2", "odd7", "chain3", "d4", "scaled12"])))
        rep = data.draw(st.sampled_from(list(lat.dual_mod_lattice)))
        beta = vector(data.draw(st.tuples(*([st.integers(-4, 4)] * lat.dim))))
        flip = lat.weight_flip(lat.numerators(vec_add(rep, beta)))
        assert flip == (1 if weight_parity_sign(lat, rep, beta) < 0 else 0)

    def test_no_memo_dicts_after_heavy_use(self):
        # nothing keyed by user input accumulates on the lattice
        lat = validate_lattice(GRAMS["odd7"][0])
        fusion_table(lat)
        texts = {
            f"{kind}({a + i},{b + j};{eps})"
            for kind in "DT"
            for a, b in lat.dual_mod_lattice
            for i in range(-3, 4)
            for j in range(-3, 4)
            for eps in (0, 1)
            if (i, j) != (0, 0)
        }
        assert len(texts) >= 500
        for text in sorted(texts)[:500]:
            parse_label(lat, text)
        assert [name for name, value in vars(lat).items() if isinstance(value, dict)] == []


class TestHalving:
    def test_zero(self, a1):
        sols = halve_mod_L(a1, vector([0]))
        assert set(sols) == {vector([0]), vector([F(1, 2)])}

    def test_half_unsolvable(self, a1):
        assert halve_mod_L(a1, vector([F(1, 2)])) is None

    def test_generator(self, a1):
        sols = halve_mod_L(a1, vector([1]))
        assert set(sols) == {vector([0]), vector([F(1, 2)])}

    @pytest.mark.parametrize("name", ["a1", "a2", "scaled4", "odd7", "chain3", "d4"])
    def test_solutions_solve_and_count(self, name):
        lat = get_lattice(name)
        n = sum(lat.in_lattice(vec_add(x, x)) for x in lat.dual_mod_lattice)  # |2-torsion|
        for c in lat.dual_mod_lattice:
            sols = halve_mod_L(lat, c)
            if sols is None:
                # confirm unsolvable by brute force over all classes
                assert not any(
                    lat.in_lattice(vec_sub(vec_add(x, x), c)) for x in lat.dual_mod_lattice
                )
                continue
            assert len(sols) == len(set(sols)) == n
            for x in sols:
                assert lat.in_lattice(vec_sub(vec_add(x, x), c))

    @pytest.mark.parametrize("name", ["a1", "a2", "scaled4", "d4"])
    def test_far_representative(self, name):
        # a class named by numerators far beyond int64 halves like its canonical form
        lat = get_lattice(name)
        far = vector([10**30 + 7] * lat.dim)
        for c in lat.dual_mod_lattice:
            assert halve_mod_L(lat, vec_add(c, far)) == halve_mod_L(lat, c)

    def test_odd_discriminant_always_solvable(self):
        lat = get_lattice("odd7")
        for c in lat.dual_mod_lattice:
            res = halve_mod_L(lat, c)
            assert res is not None and len(res) == 1
