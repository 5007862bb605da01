import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalania import counting
from catalania.census import compositions
from catalania.counting import VecProfile, catalan_gen, catalan_sequence, catalan_vector, eq2_rhs
from catalania.exact import binom, multinomial
from catalania.forest import generate_forests, generate_mixed_forests


class TestCatalanGen:
    def test_classic_catalan_prefix(self):
        assert [catalan_gen(n, 2, 1) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_n_zero_is_one_for_all_parameters(self):
        for beta in (F(0), F(1), F(7, 2), F(-3)):
            for gamma in (F(0), F(1), F(-5, 2)):
                assert catalan_gen(0, beta, gamma) == 1

    def test_ternary_two_internal(self):
        assert catalan_gen(2, 3, 1) == 3

    def test_gamma_zero_vanishes_for_positive_n(self):
        assert catalan_gen(3, 2, 0) == 0

    def test_quotient_form_agreement(self):
        # gamma/(beta n + gamma) binom(beta n + gamma, n) wherever defined
        for beta in (F(0), F(1), F(2), F(3), F(1, 2), F(-1)):
            for gamma in (F(-2), F(-1, 2), F(1), F(2), F(3)):
                for n in range(1, 8):
                    pole = beta * n + gamma
                    if pole == 0:
                        continue
                    quotient = gamma / pole * binom(pole, n)
                    assert catalan_gen(n, beta, gamma) == quotient

    def test_integrality_on_natural_grid(self):
        for beta in range(1, 5):
            for gamma in range(0, 5):
                for n in range(0, 9):
                    value = catalan_gen(n, beta, gamma)
                    assert value.denominator == 1 and value >= 0


small_ints = st.integers(min_value=-4, max_value=6)


class TestIntegralPaths:
    """At integral parameters the closed forms are built from int_binom; they
    must agree with the Fraction formulas and stay Fractions."""

    @given(beta=small_ints, gamma=small_ints, n=st.integers(min_value=1, max_value=15))
    @settings(max_examples=150, deadline=None)
    def test_catalan_gen_matches_the_fraction_formula(self, beta, gamma, n):
        value = catalan_gen(n, beta, gamma)
        assert value == F(gamma) / n * binom(beta * n + gamma - 1, n - 1)
        assert type(value) is F and value.denominator == 1
        assert catalan_gen(n, F(beta), F(gamma)) == value

    @given(alpha=small_ints, gamma=small_ints, n=st.integers(min_value=0, max_value=15))
    @settings(max_examples=150, deadline=None)
    def test_eq2_rhs_matches_the_fraction_formula(self, alpha, gamma, n):
        value = eq2_rhs(alpha, gamma, n)
        assert value == (-1) ** n * binom(alpha - gamma, n)
        assert type(value) is F and value.denominator == 1
        assert eq2_rhs(F(alpha), F(gamma), n) == value

    @pytest.mark.parametrize("beta,gamma", [(F(1, 2), 1), (2, F(-3, 2)), (F(5, 3), F(2, 7))])
    def test_rational_points_keep_the_fraction_formula(self, beta, gamma):
        for n in range(1, 8):
            value = catalan_gen(n, beta, gamma)
            assert type(value) is F
            assert value == F(gamma) / n * binom(F(beta) * n + gamma - 1, n - 1)
            rhs = eq2_rhs(beta, gamma, n)
            assert type(rhs) is F and rhs == (-1) ** n * binom(F(beta) - gamma, n)

    def test_n_is_checked(self):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            eq2_rhs(1, 0, -1)


class TestCatalanVector:
    def test_mixed_pair(self):
        assert catalan_vector(VecProfile((1, 1), (2, 3)), 1) == 5

    def test_specializes_to_scalar(self):
        for k in range(7):
            assert catalan_vector(VecProfile((k,), (2,)), 1) == catalan_gen(k, 2, 1)

    def test_empty_profile_counts_one(self):
        assert catalan_vector(VecProfile((0, 0), (2, 3)), 4) == 1
        assert catalan_vector(VecProfile((0,), (5,)), 0) == 1

    def test_gamma_zero_nonempty_counts_zero(self):
        assert catalan_vector(VecProfile((1, 0), (2, 3)), 0) == 0

    @given(p=st.sets(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
           n=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
           gamma=st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    @example(p={2, 3}, n=[0, 0, 0], gamma=0)
    @example(p={2, 3}, n=[0, 0, 0], gamma=3)
    @example(p={1, 4}, n=[2, 1, 0], gamma=0)
    def test_integer_product_matches_the_fraction_formula(self, p, n, gamma):
        profile = VecProfile(n[:len(p)], sorted(p))
        total = profile.dot_np() + gamma
        value = catalan_vector(profile, gamma)
        # gamma = 0 with the empty profile is the one point where total = 0.
        assert value == (1 if total == 0 else F(gamma, total) * multinomial(total, profile.n))
        assert type(value) is F and value.denominator == 1


class TestVecProfile:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            VecProfile((1,), (2, 3))

    def test_rejects_non_increasing_outdegrees(self):
        with pytest.raises(ValueError):
            VecProfile((1, 1), (3, 2))
        with pytest.raises(ValueError):
            VecProfile((1, 1), (2, 2))

    def test_rejects_zero_outdegree(self):
        with pytest.raises(ValueError):
            VecProfile((1,), (0,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VecProfile((), ())

    def test_derived_quantities(self):
        profile = VecProfile((2, 1), (2, 3))
        assert profile.t == 2
        assert profile.dot_np() == 7
        assert profile.leaf_count(2) == 2 * 1 + 1 * 2 + 2

    def test_value_semantics(self):
        profile = VecProfile([2, 1], [2, 3])
        assert (profile.n, profile.p) == ((2, 1), (2, 3))
        assert profile == VecProfile(n=(2, 1), p=(2, 3))
        assert hash(profile) == hash(VecProfile((2, 1), (2, 3)))
        assert profile != VecProfile((1, 2), (2, 3))
        assert profile != ((2, 1), (2, 3))
        assert len({profile, VecProfile((2, 1), (2, 3))}) == 1
        assert repr(profile) == "VecProfile(n=(2, 1), p=(2, 3))"
        assert pickle.loads(pickle.dumps(profile)) == profile == copy.copy(profile)


class TestCatalanSequence:
    def test_binary_prefix(self):
        assert catalan_sequence(2, 1, 3) == [1, 1, 2, 5]

    def test_unary_paths(self):
        assert catalan_sequence(1, 1, 4) == [1, 1, 1, 1, 1]

    def test_two_component_binary(self):
        assert catalan_sequence(2, 2, 1) == [1, 2]

    def test_counting_function_is_swappable(self, monkeypatch):
        # catalan_sequence reads counting.catalan_gen by name at call time,
        # where benchmarks/bench_trace.py binds its timing wrapper.
        calls = []

        def counted(n, beta, gamma):
            calls.append((n, beta, gamma))
            return catalan_gen(n, beta, gamma) + n

        monkeypatch.setattr(counting, "catalan_gen", counted)
        assert catalan_sequence(2, 1, 3) == [1, 2, 4, 8]
        assert calls == [(0, 2, 1), (1, 2, 1), (2, 2, 1), (3, 2, 1)]


class TestEnumerationOracle:
    """The central dual route: the closed forms against exhaustive generation."""

    def test_scalar_grid(self):
        for beta in (1, 2, 3):
            for gamma in (1, 2, 3):
                for n in range(0, 6 if beta <= 2 else 4):
                    count = len(generate_forests(beta, n, gamma))
                    assert count == catalan_gen(n, beta, gamma), (beta, gamma, n)

    def test_vector_grid(self):
        for p in ((2,), (3,), (2, 3)):
            for gamma in (0, 1, 2):
                for total in range(0, 4):
                    for n_vec in compositions(total, len(p)):
                        profile = VecProfile(n_vec, p)
                        count = len(generate_mixed_forests(profile, gamma))
                        assert count == catalan_vector(profile, gamma), (p, gamma, n_vec)
