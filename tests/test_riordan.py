import copy
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalania import riordan
from catalania.counting import catalan_gen
from catalania.exact import binom, rat_str
from catalania.riordan import (
    RiordanArray,
    Series,
    catalan_family,
    catalan_gf,
    family_f,
    inverse_powers,
    modified_riordan_check,
    riordan_columns,
    riordan_entry,
    riordan_theorem_check,
    row_sums,
    series,
    series_binpow,
    series_compose,
    series_const,
    series_derivative,
    series_div_unit,
    series_from_json,
    series_inverse_unit,
    series_mul,
)

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_series = st.lists(small_rationals, min_size=1, max_size=6).map(
    lambda cs: Series(tuple(cs))
)


def add(a, b):
    """a + b up to their common order, on the reduced coefficients."""
    return Series([x + y for x, y in zip(a.coeffs, b.coeffs)])


def geometric(order):
    return series_binpow(-1, order)


class TestArithmetic:
    def test_difference_of_squares(self):
        ones = series(["1", "1", "0"])
        alt = series(["1", "-1", "0"])
        assert series_mul(ones, alt) == series(["1", "0", "-1"])

    def test_unit_inverse_product(self):
        sq = series_binpow(2, 8)
        inv_sq = series_binpow(-2, 8)
        assert series_mul(sq, inv_sq) == series_const(1, 8)

    def test_truncation_is_minimum_of_operands(self):
        a = series(["1", "1", "1", "1"])
        b = series(["1", "1"])
        assert series_mul(a, b).order == 1

    def test_equality_up_to_common_order(self):
        assert series(["1", "2"]) == series(["1", "2", "99"])
        assert series(["1", "2"]) != series(["1", "3", "2"])

    @given(a=small_series, b=small_series, c=small_series)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, add(b, c)) == add(series_mul(a, b), series_mul(a, c))
        assert add(a, series_mul(series_const(-1, a.order), a)) == series_const(0, a.order)
        n = min(a.order, b.order, c.order)
        assert series_mul(a.truncate(n), series_const(1, n)) == a.truncate(n)


class TestRepresentation:
    def test_lowest_terms_over_one_denominator(self):
        s = series(["2/4", "1/6", "-3"])
        assert (s.nums, s.den) == ((3, 1, -18), 6)
        assert s.coeffs == (F(1, 2), F(1, 6), F(-3))
        assert repr(s) == "Series([1/2, 1/6, -3])"

    def test_zero_has_denominator_one(self):
        z = series_mul(series(["1/3", "0"]), series_const(0, 1))
        assert (z.nums, z.den) == ((0, 0), 1)

    def test_truncation_and_division_renormalize(self):
        assert series(["1", "1/2"]).truncate(0).den == 1
        # dividing by -2 at order 2 starts from the denominator (-2)**3
        q = series_div_unit(series(["1", "1", "0"]), series(["-2", "0", "0"]))
        assert (q.nums, q.den) == ((-1, -1, 0), 2)

    def test_immutable_and_unhashable(self):
        s = series(["1", "2"])
        with pytest.raises(AttributeError):
            s.den = 2
        with pytest.raises(AttributeError):
            del s.nums
        with pytest.raises(AttributeError):
            catalan_family(1, 2, 3).g = s
        with pytest.raises(TypeError):
            hash(s)

    def test_copy_and_pickle_restore_the_slots(self):
        s, array = series(["1", "-1/2", "7/3"]), catalan_family(1, 2, 3)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        for clone in (copy.copy(s), copy.deepcopy(s),
                      *(pickle.loads(pickle.dumps(s, p)) for p in protocols)):
            assert type(clone) is Series and (clone.nums, clone.den) == (s.nums, s.den)
        for clone in (copy.copy(array), copy.deepcopy(array),
                      *(pickle.loads(pickle.dumps(array, p)) for p in protocols)):
            assert type(clone) is RiordanArray and clone is not array
            assert (clone.g, clone.f) == (array.g, array.f)


class TestBinpow:
    def test_square(self):
        assert series_binpow(2, 4) == series(["1", "-2", "1", "0", "0"])

    def test_geometric(self):
        assert series_binpow(-1, 4) == series(["1", "1", "1", "1", "1"])

    def test_half_power(self):
        # frozen from the falling-factorial oracle: (-1)^n binom(1/2, n)
        want = [(-1) ** n * binom(F(1, 2), n) for n in range(4)]
        assert want == [F(1), F(-1, 2), F(-1, 8), F(-1, 16)]
        assert series_binpow(F(1, 2), 3) == Series(tuple(want))

    @given(
        a=small_rationals,
        b=small_rationals,
        order=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60)
    def test_exponent_addition(self, a, b, order):
        lhs = series_mul(series_binpow(a, order), series_binpow(b, order))
        assert lhs == series_binpow(a + b, order)


class TestCalculus:
    def test_derivative(self):
        assert series_derivative(series(["1", "-2", "1"])) == series(["-2", "2"])

    def test_derivative_of_constant(self):
        assert series_derivative(series_const(7, 0)) == series_const(0, 0)

    def test_derivative_of_binpow(self):
        # d/dx (1-x)^3 = -3 (1-x)^2
        got = series_derivative(series_binpow(3, 5))
        want = series_mul(series_const(-3, 4), series_binpow(2, 4))
        assert got == want

    def test_division_by_one(self):
        a = series(["3", "1/2", "-2"])
        assert series_div_unit(a, series_const(1, 2)) == a

    def test_geometric_by_division(self):
        assert series_inverse_unit(series_binpow(1, 6)) == geometric(6)

    def test_x_over_f(self):
        # f = x(1-x): (x/f)**n = (1-x)**(-n)
        f = Series((F(0),) + series_binpow(1, 5).coeffs)
        for n, power in zip(range(6, 0, -1), inverse_powers(f, 6)):
            assert power == series_binpow(-n, n - 1)

    def test_division_needs_unit(self):
        with pytest.raises(ValueError):
            series_div_unit(series(["1", "0"]), series(["0", "1"]))


class TestCompose:
    def test_identity_inner(self):
        a = series(["4", "1", "-1/2", "3"])
        assert series_compose(a, series(["0", "1", "0", "0"])) == a

    def test_square_inner(self):
        assert series_compose(series(["1", "1", "0"]), series(["0", "0", "1"])) == series(
            ["1", "0", "1"]
        )

    def test_functional_equation_for_binary_gf(self):
        # C(x(1-x)) = 1/(1-x)
        inner = Series((F(0),) + series_binpow(1, 9).coeffs)
        assert series_compose(catalan_gf(2, 1, 10), inner) == geometric(10)

    def test_inverse_reading_recovers_gf(self):
        # the compositional inverse of x(1-x) is x*C(x), so 1/(1-x) o xC = C
        cat = catalan_gf(2, 1, 10)
        x_cat = Series((F(0),) + cat.coeffs[:10])
        assert series_compose(geometric(10), x_cat) == cat

    def test_rejects_nonzero_inner_constant(self):
        with pytest.raises(ValueError):
            series_compose(series(["1", "1"]), series(["1", "1"]))


class TestRiordanArray:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiordanArray(series(["0", "1"]), series(["0", "1"]))  # g(0) = 0
        with pytest.raises(ValueError):
            RiordanArray(series(["1", "1"]), series(["1", "1"]))  # f(0) != 0
        with pytest.raises(ValueError):
            RiordanArray(series(["1", "1"]), series(["0", "0"]))  # f'(0) = 0

    def test_pascal_entries(self):
        g = geometric(8)
        f = Series((F(0),) + geometric(7).coeffs)
        pascal = RiordanArray(g, f)
        for n in range(7):
            for k in range(7):
                assert riordan_entry(pascal, n, k) == binom(n, k)

    def test_row_sums_need_the_coefficients_they_sum(self):
        with pytest.raises(ValueError, match="cannot extend order 1 to 4"):
            row_sums(catalan_family(1, 2, 5), series(["1", "2"]), 4)

    def test_family_entry(self):
        assert riordan_entry(catalan_family(1, 2, 4), 2, 1) == -2

    def test_lower_triangular(self):
        assert riordan_entry(catalan_family(1, 2, 4), 1, 3) == 0

    def test_order_exceeded(self):
        with pytest.raises(ValueError):
            riordan_entry(catalan_family(1, 2, 4), 5, 0)

    def test_family_closed_form_entries(self):
        # entry(n,k) = (-1)^(n-k) binom(alpha + (beta-1)k, n-k)
        for alpha in (0, 1, 2, 3):
            for beta in (1, 2, 3):
                array = catalan_family(alpha, beta, 7)
                for n in range(8):
                    for k in range(n + 1):
                        want = (-1) ** (n - k) * binom(alpha + (beta - 1) * k, n - k)
                        assert riordan_entry(array, n, k) == want

    @pytest.mark.parametrize("alpha", [F(5, 2), F(-5, 2), F(7, 2), F(-7, 2)])
    @pytest.mark.parametrize("beta", [F(7, 3), F(8, 3)])
    def test_family_closed_form_entries_at_series_shapes(self, alpha, beta):
        # the rational entries the series benchmark reads, from row 36
        array = catalan_family(alpha, beta, 36)
        for k in (0, 1, 18, 35, 36):
            want = (-1) ** (36 - k) * binom(alpha + (beta - 1) * k, 36 - k)
            assert riordan_entry(array, 36, k) == want


class TestTheoremChecks:
    def instance(self, alpha, beta, gamma, order):
        return (
            catalan_family(alpha, beta, order),
            catalan_gf(beta, gamma, order),
            series_binpow(F(alpha) - F(gamma), order),
        )

    def test_instance_alpha2_beta3(self):
        array, a, l = self.instance(2, 3, 1, 12)
        assert riordan_theorem_check(array, a, l)
        assert modified_riordan_check(array, a, l)

    def test_constant_transform(self):
        array = catalan_family(2, 2, 8)
        one = series_const(1, 8)
        assert riordan_theorem_check(array, one, array.g)
        assert modified_riordan_check(array, one, array.g)

    def test_perturbed_target_detected(self):
        array, a, l = self.instance(2, 3, 1, 12)
        bad = Series(l.coeffs[:5] + (l.coeffs[5] + 1,) + l.coeffs[6:])
        assert not riordan_theorem_check(array, a, bad)
        assert not modified_riordan_check(array, a, bad)

    @pytest.mark.parametrize("index", [1, 12])
    def test_perturbed_transform_detected_at_both_ends(self, index):
        # [x^1] is the first dot product of the derivative form, [x^12] the last
        array, a, l = self.instance(2, 3, 1, 12)
        bad = Series(a.coeffs[:index] + (a.coeffs[index] + 1,) + a.coeffs[index + 1:])
        assert not riordan_theorem_check(array, bad, l)
        assert not modified_riordan_check(array, bad, l)

    @pytest.mark.parametrize("route", ["series_compose", "row_sums_from"])
    def test_disagreeing_routes_are_an_internal_error(self, monkeypatch, route):
        array, a, l = self.instance(2, 3, 1, 8)
        honest = getattr(riordan, route)

        def bumped(*args):
            s = honest(*args)
            return Series(s.coeffs[:3] + (s.coeffs[3] + 1,) + s.coeffs[4:])

        monkeypatch.setattr(riordan, route, bumped)
        with pytest.raises(RuntimeError, match="routes disagree"):
            riordan_theorem_check(array, a, l)

    def test_identity_array_trivial(self):
        array = RiordanArray(series_const(1, 5), series(["0", "1", "0", "0", "0", "0"]))
        one = series_const(1, 5)
        assert modified_riordan_check(array, one, one)
        assert riordan_theorem_check(array, one, one)

    def test_constant_term_mismatch(self):
        array = catalan_family(1, 2, 6)
        a = series(["2", "0", "0", "0", "0", "0", "0"])
        assert not modified_riordan_check(array, a, series_const(1, 6))

    def test_derivative_route_matches_closed_form(self):
        # both sides of the derivative form equal gamma*binom(beta n+gamma-1, n-1)
        alpha, beta, gamma = 2, 3, 1
        array, a, l = self.instance(alpha, beta, gamma, 10)
        for n in range(1, 11):
            assert n * a.coeffs[n] == gamma * binom(beta * n + gamma - 1, n - 1)
        assert modified_riordan_check(array, a, l)


class TestCatalanGf:
    def test_binary_prefix(self):
        assert catalan_gf(2, 1, 5) == series(["1", "1", "2", "5", "14", "42"])

    def test_gamma_zero_is_one(self):
        assert catalan_gf(3, 0, 6) == series_const(1, 6)

    def test_functional_check_instance(self):
        inner = Series((F(0),) + series_binpow(2, 9).coeffs)
        assert series_compose(catalan_gf(3, 2, 10), inner) == series_binpow(-2, 10)
        assert family_f(3, 10) == inner

    def test_functional_check_grid(self):
        for beta in (1, 2, 3, 4):
            for gamma in (0, 1, 2, 3):
                lhs = series_compose(catalan_gf(beta, gamma, 12), family_f(beta, 12))
                assert lhs == series_binpow(-gamma, 12)


class TestConvolution:
    @staticmethod
    def additive(beta, alpha1, alpha2, order):
        product = series_mul(catalan_gf(beta, alpha1, order), catalan_gf(beta, alpha2, order))
        return product == catalan_gf(beta, F(alpha1) + F(alpha2), order)

    def test_binary_unit_split(self):
        assert self.additive(2, 1, 1, 10)

    def test_zero_second_part(self):
        assert self.additive(3, F(5, 2), 0, 8)

    def test_rational_split(self):
        assert self.additive(3, F(1, 2), F(3, 2), 8)

    def test_coefficientwise_meaning(self):
        # the product rule written out on coefficients
        beta, a1, a2 = 2, 2, 3
        for n in range(8):
            lhs = catalan_gen(n, beta, a1 + a2)
            rhs = sum(
                catalan_gen(i, beta, a1) * catalan_gen(n - i, beta, a2)
                for i in range(n + 1)
            )
            assert lhs == rhs


class TestJson:
    def test_roundtrip(self):
        s = series(["1", "-1/2", "0", "7/3"])
        assert series_from_json({"order": s.order, "coeffs": [rat_str(c) for c in s.coeffs]}) == s

    def test_fixed_shape(self):
        # rational strings or JSON integers, constant term first
        s = series_from_json({"order": 2, "coeffs": [1, "-1/2", "0"]})
        assert (s.order, s.coeffs) == (2, (F(1), F(-1, 2), F(0)))

    @pytest.mark.parametrize(
        "payload",
        [
            {"coeffs": ["1"]},
            {"order": 1},
            {"order": 2, "coeffs": ["1", "2"]},
            {"order": 1, "coeffs": ["1", "1.5"]},
            {"order": 1, "coeffs": ["1", 1.5]},
            {"order": 1, "coeffs": [True, "1"]},
            {"order": 1, "coeffs": [None, "1"]},
            {"order": 1, "coeffs": [["1"], "1"]},
            {"order": 1, "coeffs": ["1/0", "1"]},
            ["1", "2"],
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            series_from_json(payload)


# ---------------------------------------------------------------------------
# Differential tests: the integer-scaled kernel against Fraction schoolbook
# loops written out here, on plain lists of Fractions.
# ---------------------------------------------------------------------------

def ref_mul(a, b):
    n = min(len(a), len(b))
    out = [F(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_compose(outer, inner):
    """sum_k outer[k] * inner**k, by powers rather than Horner's rule."""
    n = min(len(outer), len(inner))
    out, power = [F(0)] * n, [F(1)] + [F(0)] * (n - 1)
    for c in outer[:n]:
        out = [o + c * p for o, p in zip(out, power)]
        power = ref_mul(power, inner[:n])
    return out


def ref_row_sums(g, f, a, n_max):
    sums, column = [F(0)] * (n_max + 1), g[: n_max + 1]
    for k in range(n_max + 1):
        sums = [s + c * a[k] for s, c in zip(sums, column)]
        column = ref_mul(column, f[: n_max + 1])
    return sums


def ref_div(a, b):
    out = []
    for k in range(min(len(a), len(b))):
        out.append((a[k] - sum(b[i] * out[k - i] for i in range(1, k + 1))) / b[0])
    return out


def ref_modified_check(g, f, a, l):
    n_max = min(len(g), len(f), len(a), len(l)) - 1
    if a[0] != l[0] / g[0]:
        return False
    one = [F(1)] + [F(0)] * (n_max - 1)
    x_over_f = ref_div(one, f[1 : n_max + 1])
    quot = ref_div(l[: n_max + 1], g[: n_max + 1])
    dquot = [k * quot[k] for k in range(1, n_max + 1)]
    power = one
    for n in range(1, n_max + 1):
        power = ref_mul(power, x_over_f)
        if n * a[n] != ref_mul(power, dquot)[n - 1]:
            return False
    return True


def assert_reduced(coeffs):
    for c in coeffs:
        assert type(c) is F
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def assert_canonical(s):
    """The stored form: integer numerators over one positive denominator, in lowest terms."""
    assert all(type(v) is int for v in s.nums) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert_reduced(s.coeffs)


# Small mixed denominators share factors; primes and draws up to 10**30 are
# mostly coprime, so the common denominator grows.
denominators = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12, 5, 7, 11, 97]),
    st.integers(min_value=1, max_value=10**30),
)
nonzero_coeffs = st.builds(
    F, st.integers(min_value=-50, max_value=50).filter(bool), denominators
)
coeffs = st.one_of(st.just(F(0)), nonzero_coeffs)
coeff_lists = st.lists(coeffs, min_size=1, max_size=9)  # orders 0..8
unit_lists = st.builds(lambda c0, rest: [c0] + rest, nonzero_coeffs, st.lists(coeffs, max_size=8))
# f(0) = 0 and f'(0) != 0, orders 1..8
f_lists = st.builds(
    lambda c1, rest: [F(0), c1] + rest, nonzero_coeffs, st.lists(coeffs, max_size=7)
)


def ref_binpow(a, order):
    return [(-1) ** n * binom(a, n) for n in range(order + 1)]


binpow_exponents = st.one_of(
    st.integers(min_value=0, max_value=25).map(F),
    st.builds(F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)),
)


class TestIntegerKernel:
    @given(g=unit_lists, f=f_lists)
    @settings(max_examples=60)
    def test_columns_and_inverse_powers(self, g, f):
        array = RiordanArray(Series(tuple(g)), Series(tuple(f)))
        n_max = array.order
        column = g[: n_max + 1]  # g * f**k, whose coefficients below x**k are 0
        for k, got in enumerate(riordan_columns(array, n_max)):
            assert list(got.coeffs) == column[k:]
            assert_canonical(got)
            column = ref_mul(column, f[: n_max + 1])
        powers = inverse_powers(array.f, n_max)
        assert len(powers) == n_max
        one = [F(1)] + [F(0)] * (n_max - 1)
        x_over_f, power = ref_div(one, f[1 : n_max + 1]), one
        for n in range(1, n_max + 1):
            power = ref_mul(power, x_over_f)
            assert list(powers[n_max - n].coeffs) == power[:n]
            assert_canonical(powers[n_max - n])
        assert inverse_powers(array.f, 0) == ()

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=80)
    def test_mul(self, a, b):
        got = series_mul(Series(tuple(a)), Series(tuple(b)))
        assert list(got.coeffs) == ref_mul(a, b)
        assert_canonical(got)

    @given(outer=coeff_lists, inner_tail=coeff_lists)
    @settings(max_examples=80)
    def test_compose(self, outer, inner_tail):
        inner = [F(0)] + inner_tail
        got = series_compose(Series(tuple(outer)), Series(tuple(inner)))
        assert list(got.coeffs) == ref_compose(outer, inner)
        assert_canonical(got)

    @given(outer=coeff_lists, inner_tail=coeff_lists)
    @settings(max_examples=40)
    def test_compose_without_linear_term(self, outer, inner_tail):
        inner = [F(0), F(0)] + inner_tail
        got = series_compose(Series(tuple(outer)), Series(tuple(inner)))
        assert list(got.coeffs) == ref_compose(outer, inner)
        assert_canonical(got)

    @given(g=unit_lists, f=f_lists)
    @settings(max_examples=40)
    def test_entry(self, g, f):
        # every entry, k = 0 to k = n and up to n = order, against g * f**k
        # built at full order
        array = RiordanArray(Series(tuple(g)), Series(tuple(f)))
        column = g[: array.order + 1]
        for k in range(array.order + 1):
            for n in range(array.order + 1):
                got = riordan_entry(array, n, k)
                assert got == (column[n] if k <= n else 0)
                assert_reduced([got])
            column = ref_mul(column, f)

    @given(a=binpow_exponents, order=st.integers(min_value=0, max_value=20))
    @settings(max_examples=80)
    def test_binpow(self, a, order):
        got = series_binpow(a, order)
        assert list(got.coeffs) == ref_binpow(a, order)
        assert_canonical(got)

    @given(a=coeff_lists, b=unit_lists)
    @settings(max_examples=80)
    def test_div_unit(self, a, b):
        # b(0) may be negative or non-integral: the quotient's denominator
        # starts as a power of b's constant numerator and must come out positive
        got = series_div_unit(Series(a), Series(b))
        assert list(got.coeffs) == ref_div(a, b)
        assert_canonical(got)

    @given(b=unit_lists)
    @settings(max_examples=60)
    def test_inverse_unit(self, b):
        got = series_inverse_unit(Series(b))
        assert list(got.coeffs) == ref_div([F(1)] + [F(0)] * (len(b) - 1), b)
        assert_canonical(got)

    @given(columns=st.lists(coeff_lists, min_size=1, max_size=9), a=coeff_lists)
    @example(columns=[[F(1, 3), F(1)], [F(1, 2)]], a=[F(1), F(1)])  # denominators 3 and 2
    @settings(max_examples=80)
    def test_row_sums_add_over_one_denominator(self, columns, a):
        """row_sums_from is the sum of the series a[k] * x**k * column k, each reduced on its own."""
        n_max = len(columns) - 1
        columns = [(column * (n_max + 1))[: n_max + 1 - k] for k, column in enumerate(columns)]
        a = (a * (n_max + 1))[: n_max + 1]
        got = riordan.row_sums_from([Series(column) for column in columns], Series(a))
        want = [F(0)] * (n_max + 1)
        for k, column in enumerate(columns):
            term = Series([F(0)] * k + [a[k] * v for v in column])
            want = [w + v for w, v in zip(want, term.coeffs)]
        assert list(got.coeffs) == want
        assert_canonical(got)

    @given(a=coeff_lists)
    @settings(max_examples=60)
    def test_derivative(self, a):
        got = series_derivative(Series(a))
        assert list(got.coeffs) == ([k * c for k, c in enumerate(a)][1:] or [F(0)])
        assert_canonical(got)

    @given(g=unit_lists, f=f_lists, a=coeff_lists)
    # Column 0 has denominator 2 and column 1 denominator 1, below their lcm.
    @example(g=[F(1, 2), F(0)], f=[F(0), F(2), F(0)], a=[F(1), F(1), F(0)])
    @settings(max_examples=50)
    def test_row_sums(self, g, f, a):
        array = RiordanArray(Series(tuple(g)), Series(tuple(f)))
        n_max = min(array.order, len(a) - 1)
        got = row_sums(array, Series(tuple(a)), n_max)
        assert got == ref_row_sums(g, f, a, n_max)
        assert_reduced(got)

    @given(
        g=unit_lists, f=f_lists, a=coeff_lists,
        bump=st.one_of(st.none(), st.tuples(st.integers(0, 8), nonzero_coeffs)),
    )
    @settings(max_examples=60)
    def test_modified_check(self, g, f, a, bump):
        # l = g * a(f) satisfies the theorem; a bump may break it at one index
        l = ref_mul(g, ref_compose(a, f))
        if bump is not None:
            index, delta = bump
            if index < len(l):
                l[index] += delta
        array = RiordanArray(Series(tuple(g)), Series(tuple(f)))
        got = modified_riordan_check(array, Series(tuple(a)), Series(tuple(l)))
        assert got == ref_modified_check(g, f, a, l)
        assert got == (bump is None or bump[0] >= len(l))
