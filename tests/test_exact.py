from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalania.exact import as_rat, binom, falling, int_binom, multinomial, rat_str


def falling_factorial_quotient(x, k):
    """Independent oracle: plain product loop over x, x-1, ..., x-k+1."""
    prod = F(1)
    term = F(x)
    for _ in range(k):
        prod *= term
        term -= 1
    return prod / factorial(k)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestBinom:
    def test_elementary(self):
        assert binom(5, 2) == 10

    def test_k_zero_is_one_for_any_x(self):
        for x in (F(-7, 2), F(0), F(5), F(13, 3), -100):
            assert binom(x, 0) == 1

    def test_negative_upper(self):
        # (-3)(-4)/2! = 6
        assert binom(-3, 2) == 6

    @pytest.mark.parametrize("x", [F(-5), F(-3, 2), F(0), F(1, 3), F(2), F(7)])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
    def test_matches_falling_factorial_oracle(self, x, k):
        assert binom(x, k) == falling_factorial_quotient(x, k)

    def test_matches_factorial_formula_on_naturals(self):
        for x in range(31):
            for k in range(x + 1):
                assert binom(x, k) == F(factorial(x), factorial(k) * factorial(x - k))

    @given(x=rationals, k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=80)
    def test_pascal_recurrence(self, x, k):
        assert binom(x, k) == binom(x - 1, k) + binom(x - 1, k - 1)

    @given(x=rationals, k=st.integers(min_value=0, max_value=12))
    @settings(max_examples=80)
    def test_upper_negation(self, x, k):
        assert binom(-x, k) == (-1) ** k * binom(x + k - 1, k)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            binom(3, -1)


class TestBinomKernel:
    """The integer kernel against the plain falling-factorial product."""

    def test_rational_grid_matches_reference(self):
        cases = 0
        for p in range(-30, 31):
            for q in range(1, 8):
                for k in range(13):
                    got = binom(F(p, q), k)
                    assert type(got) is F
                    assert got == falling_factorial_quotient(F(p, q), k), (p, q, k)
                    cases += 1
        assert cases == 5551

    def test_negative_integers(self):
        for n in range(1, 41):
            for k in range(16):
                expected = (-1) ** k * F(factorial(n + k - 1), factorial(k) * factorial(n - 1))
                assert binom(-n, k) == binom(F(-n), k) == expected

    def test_vanishes_when_k_exceeds_natural_x(self):
        for x in range(10):
            for k in range(x + 1, x + 6):
                assert binom(x, k) == 0
                assert binom(F(x), k) == 0

    @pytest.mark.parametrize("x", [0, 7, -4, F(9), F(-2), F(5, 3), F(-7, 2), "3/4"])
    @pytest.mark.parametrize("k", [0, 1, 4, 11])
    def test_returns_fraction(self, x, k):
        assert type(binom(x, k)) is F

    @given(x=st.integers(min_value=-40, max_value=40), k=st.integers(min_value=0, max_value=15))
    @settings(max_examples=200)
    def test_int_binom_is_the_integral_case_as_an_int(self, x, k):
        got = int_binom(x, k)
        assert type(got) is int
        assert got == falling_factorial_quotient(x, k) == binom(x, k)

    @given(p=st.integers(min_value=-30, max_value=30), q=st.integers(min_value=1, max_value=6),
           k=st.integers(min_value=0, max_value=9))
    @settings(max_examples=200)
    def test_falling_is_the_scaled_falling_factorial(self, p, q, k):
        # Reduced or not, p/q gives q**k * k! * binom(p/q, k) as an int.
        got = falling(p, q, k)
        assert type(got) is int
        assert got == q**k * factorial(k) * falling_factorial_quotient(F(p, q), k)


class TestMultinomial:
    def test_two_explicit_parts(self):
        # binom(6,1) * binom(5,1)
        assert multinomial(6, [1, 1]) == 30

    def test_empty_parts_is_one(self):
        assert multinomial(F(-9, 4), []) == 1

    def test_negative_upper(self):
        # oracle: binom(-1,2) * binom(-3,1) = 1 * (-3)
        assert multinomial(-1, [2, 1]) == binom(-1, 2) * binom(-3, 1) == -3

    def test_integer_multinomial_coefficient(self):
        # 4! / (2! 1! 1!)
        assert multinomial(4, [2, 1]) == 12

    @given(x=rationals, m=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60)
    def test_single_part_is_binom(self, x, m):
        assert multinomial(x, [m]) == binom(x, m)


class TestRatParsing:
    @pytest.mark.parametrize(
        "text,value",
        [("3", F(3)), ("-7", F(-7)), ("1/2", F(1, 2)), ("-9/6", F(-3, 2)), ("+4/2", F(2))],
    )
    def test_accepts_strict_literals(self, text, value):
        assert as_rat(text) == value

    @pytest.mark.parametrize("text", ["1.5", "1e3", "", "x", "1/2/3", " 1", "nan"])
    def test_rejects_non_literals(self, text):
        with pytest.raises(ValueError):
            as_rat(text)

    def test_division_by_zero_literal(self):
        with pytest.raises(ZeroDivisionError):
            as_rat("1/0")

    def test_rat_str_roundtrip(self):
        assert rat_str(F(-3, 2)) == "-3/2"
        assert rat_str(F(4, 2)) == "2"
        assert as_rat(rat_str(F(22, 7))) == F(22, 7)
