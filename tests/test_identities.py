import hashlib
import itertools
import json
import random
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catalania.cli import main
from catalania.counting import VecProfile, catalan_gen, catalan_sequence, catalan_vector
from catalania import census, identities
from catalania.census import EnumerationBudgetError, census_sizes, census_terms, compositions, signed_sum
from catalania.exact import binom, multinomial
from catalania.identities import (
    DEFAULT_CONFIG,
    ConfigError,
    Counterexample,
    GouldPair,
    IdentityReport,
    SingularGouldParameters,
    closed_form_reduction_check,
    eq2_lhs,
    eq2_rhs,
    eq10_lhs,
    gould_backward,
    gould_forward,
    load_config,
    random_rational_sequence,
    reports_to_json,
    run_suite,
    verify_eq2,
    verify_eq3,
    verify_eq4,
    verify_eq10,
)
from catalania.involution import encode_colored, enumerate_colored_vector
from catalania.riordan import Series, catalan_family, catalan_gf, family_f, row_sums, series_binpow


class TestEq2:
    def test_delta_row(self):
        report = verify_eq2(1, 2, 1, 8)
        assert report.ok
        for n in range(9):
            assert eq2_lhs(1, 2, 1, n) == (1 if n == 0 else 0)

    def test_alpha_equals_gamma_collapses(self):
        for alpha, beta in [(1, 2), (F(3, 2), 3), (2, F(1, 2))]:
            report = verify_eq2(alpha, beta, alpha, 6)
            assert report.ok
            for n in range(7):
                assert eq2_rhs(alpha, alpha, n) == (1 if n == 0 else 0)

    def test_hand_evaluated_point(self):
        # 3 - 4 + 2
        assert eq2_lhs(3, 2, 1, 2) == 1 == eq2_rhs(3, 1, 2)

    def test_reindexed_sum_is_identical(self):
        for alpha, beta, gamma in [(3, 2, 1), (F(-1, 2), F(5, 3), 2), (0, 0, -1)]:
            assert verify_eq4(alpha, beta, gamma, 6).ok
            for n in range(7):
                assert eq2_lhs(alpha, beta, gamma, n) == eq2_rhs(alpha, gamma, n)

    def test_reindexed_verifier(self):
        assert verify_eq4(3, 2, 1, 8).ok
        assert verify_eq4(F(-3, 2), F(1, 3), F(2), 6).ok

    def test_rational_parameters(self):
        assert verify_eq2(F(7, 2), F(5, 3), F(-1, 2), 8).ok

    def test_corrupted_oracle_fails_with_counterexample(self, monkeypatch):
        def corrupted(n, beta, gamma):
            return catalan_gen(n, beta, gamma) + (1 if n == 3 else 0)

        monkeypatch.setattr(identities, "catalan_gen", corrupted)
        report = verify_eq2(1, 2, 1, 6)
        assert not report.ok
        assert report.counterexample is not None
        params = dict(report.counterexample.params)
        assert params["n"] == "3"
        # the counterexample is reproducible
        n = int(params["n"])
        assert eq2_lhs(1, 2, 1, n) != eq2_rhs(1, 1, n)


def eq3_sides(p, n_vec, gamma, alpha):
    """Eq3's two sides at one point, as the integer kernel of verify_eq3 gives
    them, each divided by its scale."""
    n_vec, alpha = tuple(n_vec), F(alpha)
    lhs, rhs, scale = identities._eq3_sides(identities._census_terms(tuple(p), n_vec, gamma), n_vec,
                                            gamma, alpha.numerator, alpha.denominator)
    return F(lhs, scale), F(rhs, scale)


def fraction_sides(p, n_vec, gamma, alpha):
    """Eq3's two sides at one point in Fractions: the census_sizes slice sizes
    signed by (-1)**sum(marks), and (-1)**sum(n) * multinomial(alpha - gamma, n)."""
    sizes = census_sizes(VecProfile(n_vec, p), gamma, alpha)
    lhs = sum(-size if sum(marks) % 2 else size for _, marks, size in sizes)
    return lhs, (-1) ** sum(n_vec) * multinomial(alpha - gamma, n_vec)


class TestEq3:
    def test_scalar_specialization_matches_eq2(self):
        for beta in (2, 3):
            for gamma in (1, 2):
                for alpha in (0, 1, 3):
                    vector = verify_eq3((beta,), gamma, alpha, 4)
                    scalar = verify_eq2(alpha, beta, gamma, 4)
                    assert vector.status == scalar.status == "pass"

    def test_point_values(self):
        assert eq3_sides((2, 3), (1, 1), 1, 1) == (0, 0)
        assert eq3_sides((2, 3), (1, 1), 1, 4) == (6, 6)

    def test_rational_alpha_grid(self):
        for alpha in (F(-1, 2), F(1, 2), F(5, 2)):
            assert verify_eq3((2, 3), 1, alpha, 3).ok

    def test_gamma_zero(self):
        assert verify_eq3((2, 3), 0, F(7, 3), 3).ok

    def test_census_sizes_sum_at_gamma_zero_and_rational_alpha(self):
        for gamma, alpha in ((0, F(7, 3)), (0, 1), (2, F(-1, 2))):
            for n_vec in ((0, 0), (1, 0), (2, 1), (1, 3)):
                lhs, rhs = eq3_sides((1, 3), n_vec, gamma, alpha)
                assert (lhs, rhs) == fraction_sides((1, 3), n_vec, gamma, alpha)
                assert lhs == rhs

    @given(p=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3, unique=True),
           data=st.data(), gamma=st.integers(min_value=0, max_value=2),
           alpha=st.fractions(min_value=-3, max_value=4, max_denominator=4))
    @settings(max_examples=60, deadline=None)
    def test_integer_verdict_is_the_fraction_sum(self, p, data, gamma, alpha):
        p = tuple(sorted(p))
        total = data.draw(st.integers(min_value=0, max_value=3), label="total")
        for n_vec in (n for k in range(total + 1) for n in compositions(k, len(p))):
            lhs, rhs = fraction_sides(p, n_vec, gamma, alpha)
            assert eq3_sides(p, n_vec, gamma, alpha) == (lhs, rhs)
            assert lhs == rhs
        assert verify_eq3(p, gamma, alpha, total).ok

    @pytest.mark.parametrize("gamma,alpha,residual,delta", [
        (1, F(2), (1, 0), 1), (2, F(-1, 2), (0, 1), -1), (0, F(5, 3), (0, 0), 1),
        (1, F(3, 4), (1, 1), F(1, 2)),
    ])
    def test_a_wrong_forest_count_fails_with_the_fraction_counterexample(
            self, monkeypatch, gamma, alpha, residual, delta):
        p = (2, 3)
        perturbed = _perturbed_terms(residual, gamma, delta)
        expected = None
        for n_vec in (n for k in range(4) for n in compositions(k, 2)):
            lhs = sum((-1) ** sum(marks) * forests * multinomial(free + alpha, marks)
                      for _, marks, forests, free in perturbed(VecProfile(n_vec, p), gamma))
            rhs = (-1) ** sum(n_vec) * multinomial(alpha - gamma, n_vec)
            if lhs != rhs:
                expected = Counterexample.at({"p": "[2, 3]", "gamma": gamma, "alpha": str(alpha),
                                              "n": str(list(n_vec))}, lhs, rhs)
                break
        assert expected is not None
        monkeypatch.setattr(identities, "census_terms", perturbed)
        report = verify_eq3(p, gamma, alpha, 3)
        assert report.counterexample == expected

    def test_a_passing_point_builds_no_fraction(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return F(*args)

        monkeypatch.setattr(identities, "Fraction", counted)
        assert verify_eq3((2, 3), 1, F(3, 2), 3).ok
        assert built == [(F(3, 2),)]  # verify_eq3 reads alpha once, no point builds one


class TestGould:
    def test_frozen_roundtrip(self):
        pair = GouldPair(2, F(0), F(1))
        seq = [F(1), F(1), F(2), F(5), F(14)]
        assert gould_backward(gould_forward(seq, pair), pair) == seq

    def test_z_zero_is_identity(self):
        pair = GouldPair(3, F(2), F(0))
        seq = [F(4), F(-1, 3), F(0), F(9)]
        assert gould_forward(seq, pair) == seq
        assert gould_backward(seq, pair) == seq

    def test_singular_parameters_reported(self):
        # -a*n - m = n - 2 vanishes at n = 2
        with pytest.raises(SingularGouldParameters) as err:
            gould_backward([F(1), F(1), F(1), F(1)], GouldPair(-1, F(2), F(1)))
        assert err.value.n == 2

    def test_short_sequence_avoids_singularity(self):
        pair = GouldPair(-1, F(2), F(1))
        assert gould_backward([F(1), F(1)], pair)  # n stops before 2

    def test_eq2_induced_pair(self):
        # forward of the counting sequence gives the signed binomial row
        for alpha, beta, gamma in [(2, 2, 1), (3, 3, 2), (0, 2, 1)]:
            pair = GouldPair(beta - 1, F(alpha), F(-1))
            got = gould_forward(catalan_sequence(beta, gamma, 8), pair)
            want = [(-1) ** n * binom(alpha - gamma, n) for n in range(9)]
            assert got == want
            # and backward recovers the counting sequence
            assert gould_backward(want, pair) == catalan_sequence(beta, gamma, 8)

    def test_seeded_random_roundtrips(self):
        rng = random.Random(13)
        pairs = [
            GouldPair(2, F(0), F(1)),
            GouldPair(1, F(1, 2), F(-1)),
            GouldPair(0, F(1), F(2)),
            GouldPair(-1, F(1, 2), F(2)),
        ]
        for _ in range(20):
            seq = random_rational_sequence(rng, 10)
            for pair in pairs:
                assert gould_backward(gould_forward(seq, pair), pair) == seq
                assert gould_forward(gould_backward(seq, pair), pair) == seq


class TestEq10:
    def test_two_term_point(self):
        assert eq10_lhs(0, 2, 1, 1) == 1 == catalan_gen(1, 2, 1)

    def test_alpha_zero_grid(self):
        for beta in (0, 1, 2, 3):
            for gamma in (0, 1, 2):
                report = verify_eq10(0, beta, gamma, 10)
                assert report.ok
                # (1-beta)n - 0 = 0 only at beta = 1, every n... no: (1-1)n = 0
                if beta == 1:
                    assert len(report.skipped) == 10
                else:
                    assert not report.skipped

    def test_alpha_equals_gamma_grid(self):
        for g in (1, 2):
            assert verify_eq10(g, 2, g, 8).ok

    def test_singular_rows_are_listed_not_failed(self):
        report = verify_eq10(-2, 3, 1, 5)
        assert report.ok
        assert report.skipped == ("n=1: (1-beta)*n - alpha = 0",)

    def test_rational_point(self):
        assert verify_eq10(F(1, 2), F(3, 2), F(-1, 2), 8).ok


def _binom_ref(x, k):
    """Falling-factorial binomial, independent of the package's kernels."""
    out = F(1)
    for i in range(k):
        out = out * (x - i) / (i + 1)
    return out


def _forward_ref(seq, a, m, z):
    return [sum(_binom_ref(m + a * k, n - k) * z ** (n - k) * seq[k] for k in range(n + 1))
            for n in range(len(seq))]


def _backward_ref(seq, a, m, z):
    out = []
    for n in range(len(seq)):
        d = -a * n - m
        out.append(seq[n] + sum((-a * k - m) / d * _binom_ref(d, n - k) * z ** (n - k) * seq[k]
                                for k in range(n)))
    return out


# Small parameters, integral (the int path) or rational (the Fraction path).
small_params = st.one_of(st.integers(min_value=-3, max_value=4).map(F),
                         st.fractions(min_value=-3, max_value=4, max_denominator=3))
row_numbers = st.integers(min_value=0, max_value=8)


class TestPairKernel:
    """Eq2, Eq10 and the Gould transforms are one inverse pair evaluated by one kernel."""

    @given(alpha=small_params, beta=st.integers(min_value=0, max_value=4), gamma=small_params,
           n=row_numbers)
    @settings(max_examples=100, deadline=None)
    def test_eq2_row_is_the_forward_transform_of_the_counts(self, alpha, beta, gamma, n):
        pair = GouldPair(beta - 1, alpha, -1)
        want = gould_forward(catalan_sequence(beta, gamma, n), pair)[n]
        direct = eq2_lhs(alpha, beta, gamma, n)
        assert direct == want == eq2_rhs(alpha, gamma, n)
        assert type(direct) is F and verify_eq4(alpha, beta, gamma, n).ok

    @given(alpha=small_params, beta=st.integers(min_value=0, max_value=4), gamma=small_params,
           n=row_numbers)
    @settings(max_examples=100, deadline=None)
    def test_eq10_row_is_the_backward_transform_of_the_closed_forms(self, alpha, beta, gamma, n):
        assume(all((1 - beta) * k - alpha != 0 for k in range(n + 1)))
        closed_forms = [eq2_rhs(alpha, gamma, k) for k in range(n + 1)]
        got = eq10_lhs(alpha, beta, gamma, n)
        assert got == gould_backward(closed_forms, GouldPair(beta - 1, alpha, -1))[n]
        assert got == catalan_gen(n, beta, gamma)
        assert type(got) is F

    @given(a=st.integers(min_value=-2, max_value=3), m=small_params, z=small_params,
           seq=st.lists(small_params, min_size=0, max_size=9))
    # Rational rows: z with a denominator above 1, and m non-integral.
    @example(a=1, m=F(1, 3), z=F(2, 5), seq=[F(1), F(-1, 2), F(3)])
    @example(a=-2, m=F(-5, 2), z=F(-3, 7), seq=[F(2), F(0), F(1, 4), F(-1)])
    @settings(max_examples=60, deadline=None)
    def test_transforms_match_the_textbook_sums(self, a, m, z, seq):
        pair = GouldPair(a, m, z)
        forward = gould_forward(seq, pair)
        assert forward == _forward_ref(seq, a, m, z)
        assert all(type(v) is F for v in forward)
        assume(all(-a * n - m != 0 for n in range(1, len(seq))))
        backward = gould_backward(seq, pair)
        assert backward == _backward_ref(seq, a, m, z)
        assert all(type(v) is F for v in backward)
        assert gould_forward(backward, pair) == seq == gould_backward(forward, pair)

    @given(a=st.one_of(st.integers(min_value=-3, max_value=3), small_params), m=small_params,
           z=small_params, length=st.integers(min_value=0, max_value=12), backward=st.booleans())
    @example(a=2, m=F(-1), z=F(1, 3), length=3, backward=False)  # Eq9's pair with a rational z
    @settings(max_examples=150, deadline=None)
    def test_rows_match_binom_and_fraction_powers(self, a, m, z, length, backward):
        """Each entry, ints at an integral point and reduced Fractions elsewhere."""
        def entry(n, k):
            if backward:
                return (-a * k - m) * binom(-a * n - m, n - k) * F(z) ** (n - k)
            return binom(m + a * k, n - k) * F(z) ** (n - k)

        integral = all(F(v).denominator == 1 for v in (a, m, z))
        want = [[int(entry(n, k)) if integral else entry(n, k) for k in range(n + 1)]
                for n in range(length)]
        got = identities._gould_rows(a, m, z, length, backward)
        assert got == want
        assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]

    def test_eq9_builds_each_pairs_matrices_once(self, monkeypatch):
        calls = []
        gould_rows = identities._gould_rows

        def recorded(a, m, z, length, backward=False):
            calls.append((a, m, z, length, backward))
            return gould_rows(a, m, z, length, backward)

        monkeypatch.setattr(identities, "_gould_rows", recorded)
        config = DEFAULT_CONFIG["eq9"]
        (report,) = run_suite({"eq9": config})
        assert report.ok and not report.skipped
        pairs = [GouldPair(int(a), F(m), F(z)) for a, m, z in config["pairs"]]
        assert calls == [(pair.a, pair.m, pair.z, config["length"], backward)
                         for pair in pairs for backward in (False, True)]

    def test_eq9_decides_inverse_pairs_without_drawing_a_sequence(self, monkeypatch):
        def refuse(rng, length):
            pytest.fail("a sequence was drawn")

        monkeypatch.setattr(identities, "random_rational_sequence", refuse)
        (report,) = run_suite({"eq9": DEFAULT_CONFIG["eq9"]})
        assert report.ok and not report.skipped

    def test_eq9_walks_the_sequences_for_a_pair_that_is_not_inverse(self, monkeypatch):
        gould_rows = identities._gould_rows

        def rows(a, m, z, length, backward=False):  # the pair with a = 2 is perturbed
            out = gould_rows(a, m, z, length, backward)
            if backward and a == 2:
                out[6][2] += 1
            return out

        monkeypatch.setattr(identities, "_gould_rows", rows)
        draws = []
        monkeypatch.setattr(identities, "random_rational_sequence", _recorded(
            draws, random_rational_sequence, lambda rng, length: length))
        section = {"length": 10, "sequences": 5, "seed": 14}
        (alone,) = run_suite({"eq9": {**section, "pairs": [["2", "0", "1"]]}})
        assert not alone.ok and len(draws) == 1
        (report,) = run_suite({"eq9": {**section, "pairs": [["1", "1", "1"], ["2", "0", "1"]]}})
        assert report.counterexample == alone.counterexample and len(draws) == 2

    @pytest.mark.parametrize("length,sequences", [(10, 1), (29, 5), (30, 5), (60, 5)])
    def test_eq9_forms_each_identity_once_and_draws_no_sequence(
            self, monkeypatch, length, sequences):
        formed, draws = [], []
        monkeypatch.setattr(identities, "_inverse_pair", _recorded(
            formed, identities._inverse_pair, lambda pair, length: (pair, length)))
        monkeypatch.setattr(identities, "random_rational_sequence", _recorded(
            draws, random_rational_sequence, lambda rng, length: length))
        config = {**DEFAULT_CONFIG["eq9"], "length": length, "sequences": sequences}
        (report,) = run_suite({"eq9": config})
        assert report.ok and not report.skipped
        assert formed == [(GouldPair(int(a), F(m), F(z)), length) for a, m, z in config["pairs"]]
        assert draws == []

    @pytest.mark.parametrize("alpha,beta,gamma", [(2, 0, 1), (F(1, 2), 3, F(-1, 2))])
    def test_failing_eq10_row_shows_the_unscaled_sum(self, monkeypatch, alpha, beta, gamma):
        def corrupted(n, beta, gamma):
            return catalan_gen(n, beta, gamma) + (n == 3)

        monkeypatch.setattr(identities, "catalan_gen", corrupted)
        report = verify_eq10(alpha, beta, gamma, 6)
        assert report.counterexample.to_json() == {
            "params": {"alpha": str(F(alpha)), "beta": str(beta), "gamma": str(F(gamma)), "n": "3"},
            "lhs": str(eq10_lhs(alpha, beta, gamma, 3)),
            "rhs": str(catalan_gen(3, beta, gamma) + 1)}


def _perturbed_gould_rows(in_backward: bool, n: int, k: int):
    """identities._gould_rows with entry [n][k] of its forward or its
    backward matrix plus 1."""
    gould_rows = identities._gould_rows

    def rows(a, m, z, length, backward=False):
        out = gould_rows(a, m, z, length, backward)
        if backward == in_backward:
            out[n][k] += 1
        return out

    return rows


# sha256 of reports_to_json(run_suite({"eq9": ...})) with one perturbed entry
# of the pair's forward or scaled backward matrix, computed by the Fraction
# round trip.  At seed 14 the first sequence is 0 at index 4, so a forward
# entry in column 4 leaves backward(forward) exact and only forward(backward)
# fails; an off-diagonal and a diagonal backward entry fail backward(forward).
# The rows of _EQ9_LONG (length at least six times the sequences) were
# computed by the implementation that decided such sections by the seeded
# round trips alone, with no matrix identity.
_EQ9_SHORT = {"length": 10, "sequences": 3, "seed": 14}
_EQ9_LONG = {"length": 12, "sequences": 2, "seed": 14}
EQ9_FAILURES = [
    (_EQ9_SHORT, ["2", "0", "1"], True, (6, 2), "backward(forward) != id",
     "5bd3581a832d68b3014f7e489d4837c36f03bc6107a4da69a7cd46a47bc1694d"),
    (_EQ9_SHORT, ["2", "0", "1"], False, (7, 4), "forward(backward) != id",
     "5751a8882da7961371a8955fb522917f2a6c321f335058a59e0102845d363d61"),
    (_EQ9_SHORT, ["2", "0", "1"], True, (5, 5), "backward(forward) != id",
     "843ee6ede777fa42ad36be1d7983e1761e7d0b1ae2fe8aff96c0d1ec6babf014"),
    (_EQ9_SHORT, ["1", "1/2", "-1"], True, (6, 2), "backward(forward) != id",
     "12a1af9f8bbd6110f2dd8ed414d0514c72877c5736fcb2d14ac3e0aaa3ed5fc2"),
    (_EQ9_SHORT, ["1", "1/2", "-1"], False, (7, 4), "forward(backward) != id",
     "d7000a194545689ce5721905e8b9c1ad637d8469e0472f364bf7a381653054ea"),
    (_EQ9_SHORT, ["1", "1/2", "-1"], True, (5, 5), "backward(forward) != id",
     "876ed1d1700663fadbc0ed4cfb7594970cabcc87141b292b4a01d1fd458f7738"),
    (_EQ9_LONG, ["2", "-1", "1/3"], False, (8, 4), "forward(backward) != id",
     "0bf71627f983f7c57eaf22dd199a6ca78b0a52862d1d9ca042f08247a6bcf5f5"),
]


class TestEq9Failures:
    @pytest.mark.parametrize("section,pair,backward,entry,detail,digest", EQ9_FAILURES,
                             ids=["int-backward", "int-forward", "int-diagonal",
                                  "rat-backward", "rat-forward", "rat-diagonal", "long-forward"])
    def test_failure_report_bytes_are_pinned(self, monkeypatch, section, pair, backward, entry,
                                             detail, digest):
        monkeypatch.setattr(identities, "_gould_rows", _perturbed_gould_rows(backward, *entry))
        reports = run_suite({"eq9": {**section, "pairs": [pair]}})
        assert reports[0].counterexample.detail == detail
        text = reports_to_json(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_reported_values_are_the_perturbed_round_trip(self, monkeypatch):
        pair = GouldPair(1, F(1, 2), F(-1))
        forward = identities._gould_rows(pair.a, pair.m, pair.z, 10)
        forward[7][4] += 1
        seq = random_rational_sequence(random.Random(14), 10)
        inverse = gould_backward(seq, pair)
        got = [sum(f * v for f, v in zip(row, inverse)) for row in forward]
        monkeypatch.setattr(identities, "_gould_rows", _perturbed_gould_rows(False, 7, 4))
        (report,) = run_suite({"eq9": {"length": 10, "sequences": 1, "seed": 14,
                                       "pairs": [["1", "1/2", "-1"]]}})
        assert report.counterexample.lhs == str([str(v) for v in got])
        assert report.counterexample.rhs == str([str(v) for v in seq])

    def test_a_failing_identity_no_sequence_shows_still_fails(self, monkeypatch):
        monkeypatch.setattr(identities, "_gould_rows", _perturbed_gould_rows(True, 6, 2))
        monkeypatch.setattr(identities, "random_rational_sequence",
                            lambda rng, length: [F(0)] * length)
        (report,) = run_suite({"eq9": {**_EQ9_SHORT, "pairs": [["2", "0", "1"]]}})
        assert report.counterexample.to_json() == {
            "params": {"a": "2", "m": "0", "z": "1"}, "lhs": "B*F", "rhs": "den*diag(B)",
            "detail": "no seeded sequence shows the failing identity"}

    @given(a=st.integers(min_value=-2, max_value=3), m=small_params, z=small_params,
           length=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**16),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_identity_and_the_seeded_round_trips_agree(self, a, m, z, length, seed, data):
        """The identity holds on the true rows.  With one entry perturbed it
        fails, and the report names the first seeded sequence whose round trip
        through gould_forward and gould_backward differs from it, or, when
        none does, the identity itself."""
        assume(all(-a * n - m != 0 for n in range(1, length)))
        pair = GouldPair(a, m, z)
        assert identities._inverse_pair(pair, length)
        # Backward row 0 is the identity whatever its entry, and a backward
        # diagonal entry changes the transform only beside a nonzero entry.
        backward = data.draw(st.booleans()) and length > 1
        n = data.draw(st.integers(min_value=int(backward), max_value=length - 1))
        k = data.draw(st.integers(min_value=0, max_value=n))
        if backward and k == n:
            row = identities._gould_rows(a, m, z, length, True)[n]
            assume(row[n] + 1 != 0 and any(row[:n]))
        section = {"length": length, "sequences": 3, "seed": seed,
                   "pairs": [[str(a), str(m), str(z)]]}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(identities, "_gould_rows", _perturbed_gould_rows(backward, n, k))
            assert not identities._inverse_pair(pair, length)
            (report,) = run_suite({"eq9": section})
            rng = random.Random(seed)
            trips = [(seq, [gould_backward(gould_forward(seq, pair), pair),
                            gould_forward(gould_backward(seq, pair), pair)])
                     for seq in (random_rational_sequence(rng, length) for _ in range(3))]
        failing = [(index, seq, next(got for got in both if got != seq))
                   for index, (seq, both) in enumerate(trips) if any(got != seq for got in both)]
        if not failing:
            assert report.counterexample.detail == "no seeded sequence shows the failing identity"
            return
        index, seq, got = failing[0]
        assert dict(report.counterexample.params)["sequence"] == str(index)
        assert report.counterexample.lhs == str([str(v) for v in got])
        assert report.counterexample.rhs == str([str(v) for v in seq])


def _interval(lo: str, hi: str, step: str = "1") -> dict:
    return {"min": lo, "max": hi, "step": step}


def _perturbed_terms(residual: tuple, gamma: int, delta):
    """census_terms with ``delta`` added to the counted forests of every term
    whose residual is ``residual``, at ``gamma``."""

    def perturbed(profile, g):
        return [(res, marks, forests + delta if (res.n, g) == (residual, gamma) else forests, free)
                for res, marks, forests, free in census_terms(profile, g)]

    return perturbed


def _perturbed_catalan_vector(residual: tuple, gamma: int, delta):
    """catalan_vector plus ``delta`` at (residual, gamma)."""

    def perturbed(profile, g):
        value = catalan_vector(profile, g)
        return value + delta if (profile.n, g) == (residual, gamma) else value

    return perturbed


def _eq3_section(p: list, gamma: dict, alpha: dict, n_total_max: int = 3) -> dict:
    return {"p": p, "gamma": gamma, "alpha": alpha, "n_total_max": n_total_max}


# sha256 of reports_to_json(run_suite({"eq3": ...})) with one forest count of
# the census off by delta, computed by the implementation that summed the
# census sizes as Fractions for every alpha.
EQ3_FAILURES = [
    (_eq3_section([2, 3], _interval("1", "1"), _interval("0", "3")), (1, 0), 1, F(1),
     "b7b1126dc28451156da104ac4ad71b949576bb41cf372eb3dd526fd9f290449e"),
    (_eq3_section([2, 3], _interval("2", "2"), _interval("1/2", "5/2")), (0, 1), 2, F(-1),
     "31ac9dc4273285c978433ee2b6d78fd55bf8835d743ff367322d66f2ab34ea42"),
    (_eq3_section([2, 3], _interval("0", "0"), _interval("0", "2", "1/2")), (1, 0), 0, F(1, 3),
     "c100d6fadf247cd2739310cacf1310a8c1ff425e34e190fd12e46b5d39569910"),
    (DEFAULT_CONFIG["eq3"], (1, 1), 2, F(1),
     "aab3e66e4de0faab2dc86abd1c11ffdd899c20c8da8d2dbded164022b99e21e0"),
    (_eq3_section([1, 3], _interval("0", "1"), _interval("-2/3", "1", "1/3"), 4), (2, 1), 1, F(2),
     "c1c5bcedf860baf1e59fcc0e22b92126056b682a1308ab08be2222829e868789"),
]


class TestEq3Failures:
    @pytest.mark.parametrize("section,residual,gamma,delta,digest", EQ3_FAILURES,
                             ids=["int-alpha", "rat-alpha", "gamma-zero-rat-count", "default-grid",
                                  "three-class-rat-alpha"])
    def test_failure_report_bytes_are_pinned(self, monkeypatch, section, residual, gamma, delta,
                                             digest):
        # Eq3's forest counts are the census_terms that identities names.
        monkeypatch.setattr(identities, "census_terms", _perturbed_terms(residual, gamma, delta))
        reports = run_suite({"eq3": section})
        assert not reports[0].ok
        text = reports_to_json(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_a_wrong_closed_form_fails_the_link(self, monkeypatch):
        # The counts stay true, so every point's sides agree; at gamma 2 the
        # first alpha meets the census n = (1, 1), whose 12 counted forests
        # the perturbed closed form puts at 13.
        monkeypatch.setattr(identities, "catalan_vector", _perturbed_catalan_vector((1, 1), 2, 1))
        (report,) = run_suite({"eq3": DEFAULT_CONFIG["eq3"]})
        assert report.counterexample.to_json() == {
            "params": {"p": "[2, 3]", "gamma": "2", "alpha": "-1", "n": "[1, 1]"},
            "lhs": "12", "rhs": "13", "detail": "vector Catalan closed form vs count"}


class TestClosedFormReduction:
    def test_binary_point(self):
        assert closed_form_reduction_check(2, 1, 10).ok
        assert catalan_gen(3, 2, 1) == 5

    def test_unary_degenerate(self):
        assert closed_form_reduction_check(1, 3, 8).ok

    def test_negative_and_rational_parameters(self):
        assert closed_form_reduction_check(F(-1), F(-2), 6).ok
        assert closed_form_reduction_check(F(5, 2), F(1, 3), 6).ok

    def test_a_wrong_split_fails_link_i(self, monkeypatch):
        # Each n takes three sums, n * s0, a1 and n * a2; the fourth is n * s0
        # at n = 2, one too large.
        calls = itertools.count()
        monkeypatch.setattr(identities, "sum", lambda values: sum(values) + (next(calls) == 3),
                            raising=False)
        assert closed_form_reduction_check(2, 1, 4).counterexample.to_json() == {
            "params": {"beta": "2", "gamma": "1", "n": "2"}, "lhs": "5/2", "rhs": "2",
            "detail": "link (i): split"}

    def test_a_wrong_vandermonde_evaluation_fails_link_ii(self, monkeypatch):
        # At beta 2, gamma 1 and n = 2 the first evaluation is binom(-3, 2),
        # which no other term of the chain reads.
        ring = identities._ring

        def skewed(values):
            values, choose = ring(values)
            return values, lambda x, k: choose(x, k) + ((x, k) == (-3, 2))

        monkeypatch.setattr(identities, "_ring", skewed)
        assert closed_form_reduction_check(2, 1, 4).counterexample.to_json() == {
            "params": {"beta": "2", "gamma": "1", "n": "2"}, "lhs": "6,4", "rhs": "7,4",
            "detail": "link (ii): Vandermonde evaluations"}


class TestCrossMethodAgreement:
    """Eq2's direct sum, its involution census and the row sums of its
    Riordan array on drawn points: the census at natural points, where it is
    defined, and the other two at rational ones too."""

    @given(beta=st.integers(1, 4), gamma=st.integers(1, 3), extra=st.integers(0, 3),
           n=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_three_routes_coincide(self, beta, gamma, extra, n):
        alpha = gamma + extra
        rows = row_sums(catalan_family(alpha, beta, n + 1), catalan_gf(beta, gamma, n + 1), n)
        assert eq2_lhs(alpha, beta, gamma, n) == signed_sum(beta, n, gamma, alpha) == rows[n]

    @given(alpha=small_params, beta=small_params, gamma=small_params, n=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_direct_sum_and_array_rows_coincide_at_rational_points(self, alpha, beta, gamma, n):
        rows = row_sums(catalan_family(alpha, beta, n + 1), catalan_gf(beta, gamma, n + 1), n)
        assert [eq2_lhs(alpha, beta, gamma, m) for m in range(n + 1)] == rows


class TestCrossRoute:
    """Eq2's cross route compares the CLI's census sum and the array's row
    sums with the direct sum at every n of its grid, and reports the first
    that differs."""

    CONFIG = {"eq2": {"alpha": _interval("1", "1"), "beta": _interval("2", "2"),
                      "gamma": _interval("1", "1"), "n_max": 1,
                      "cross": DEFAULT_CONFIG["eq2"]["cross"]}}

    def _counterexample(self) -> dict:
        (report,) = run_suite(self.CONFIG)
        assert report.status == "fail"
        return report.counterexample.to_json()

    def test_a_wrong_census_is_the_counterexample(self, monkeypatch):
        assert run_suite(self.CONFIG)[0].ok
        monkeypatch.setattr(identities, "signed_sum", lambda beta, n, gamma, alpha: signed_sum(
            beta, n, gamma, alpha) + ((beta, n, gamma, alpha) == (3, 2, 2, 3)))
        assert self._counterexample() == {
            "params": {"alpha": "3", "beta": "3", "gamma": "2", "n": "2"}, "lhs": "1", "rhs": "0",
            "detail": "involution census vs direct sum"}

    def test_a_wrong_row_sum_is_the_counterexample(self, monkeypatch):
        row_sums_from = identities.row_sums_from
        monkeypatch.setattr(identities, "row_sums_from",
                            lambda columns, a: _bumped(row_sums_from(columns, a), 3))
        assert self._counterexample() == {
            "params": {"alpha": "1", "beta": "2", "gamma": "1", "n": "3"}, "lhs": "1", "rhs": "0",
            "detail": "array row sum vs direct sum"}


class TestSumOrderFailures:
    """Eq2 and Eq4 name the first n whose reversed-index sum differs from the
    direct one."""

    @pytest.mark.parametrize("verify,detail", [(verify_eq2, "reindexed sum differs"),
                                               (verify_eq4, "reversed-index sum differs")],
                             ids=["Eq2", "Eq4"])
    def test_a_wrong_reversed_sum_is_the_counterexample(self, monkeypatch, verify, detail):
        row_sums = identities._eq2_row_sums

        def reversed_off_at_two(*args):
            direct, reindexed = row_sums(*args)
            return direct, [v + (n == 2) for n, v in enumerate(reindexed)]

        monkeypatch.setattr(identities, "_eq2_row_sums", reversed_off_at_two)
        report = verify(1, 2, 1, 4)
        assert report.counterexample.to_json() == {
            "params": {"alpha": "1", "beta": "2", "gamma": "1", "n": "2"}, "lhs": "1", "rhs": "0",
            "detail": detail}


class TestSuite:
    def test_default_suite_passes(self, default_reports):
        reports = default_reports
        assert [r.identity_id for r in reports] == [
            "Eq1", "Eq2", "Eq3", "Eq4", "Eq7", "Eq8", "Eq9_roundtrip", "Eq10",
            "ClosedForm",
        ]
        assert all(r.ok for r in reports)

    def test_report_json_is_deterministic(self, default_reports):
        first = reports_to_json(default_reports)
        rerun = run_suite()  # a second run in the same process shares nothing with the first
        assert tuple(rerun) == default_reports
        second = reports_to_json(rerun)
        assert first == second
        parsed = json.loads(first)
        assert {entry["status"] for entry in parsed} == {"pass"}

    def test_eq2_grid_text_names_only_the_routes_configured(self):
        (report,) = run_suite({"eq2": _EQ2_POINT})
        assert report.ok
        assert report.grid == (
            "alpha in [1..1 step 1], beta in [2..2 step 1], gamma in [1..1 step 1], n<=1")
        (report,) = run_suite({"eq2": {**_EQ2_POINT, "cross": _CROSS}})
        assert report.grid.endswith(", n<=1; plus involution-census and array-row routes")

    def test_empty_config_gives_empty_report(self):
        assert run_suite({}) == []

    def test_corrupt_catalan_hook(self):
        reports = run_suite({"eq1": {"n_max": 5}, "corrupt_catalan": True})
        assert len(reports) == 1
        assert not reports[0].ok
        assert reports[0].counterexample is not None

    # A run has one oracle: every section that reads the Catalan counts,
    # through their generating functions too, fails under the hook, but Eq4,
    # whose two sums read the same broken counts; Eq3 (the vector counts)
    # and Eq9 read none.
    @pytest.mark.parametrize("key,ok", [
        ("eq1", False), ("eq2", False), ("eq3", True), ("eq4", True), ("eq7", False),
        ("eq8", False), ("eq9", True), ("eq10", False), ("closed_form", False)])
    def test_corrupt_catalan_reaches_every_section_that_reads_the_counts(self, key, ok):
        (report,) = run_suite({key: DEFAULT_CONFIG[key], "corrupt_catalan": True})
        assert report.ok is ok
        assert (report.counterexample is None) is ok

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            run_suite({"eq99": {}})

    def test_non_integral_gould_a_rejected(self):
        config = {"eq9": {"length": 4, "sequences": 2, "seed": 1,
                          "pairs": [["1/2", "0", "1"]]}}
        message = r"eq9 pair \['1/2', '0', '1'\]: a must be an integer"
        with pytest.raises(ConfigError, match=message):
            run_suite(config)

    def test_singular_gould_pairs_are_skipped(self):
        # -a*n - m = n - 3 vanishes at n = 3, inside length 4 but not length 3.
        pairs = [["1", "-1", "1"], ["-1", "3", "1"], ["2", "0", "1"]]
        (report,) = run_suite({"eq9": {"length": 4, "sequences": 3, "seed": 1, "pairs": pairs}})
        assert report.ok
        assert report.skipped == (
            "pair ['1', '-1', '1']: backward transform undefined: -a*n - m = 0 at n = 1",
            "pair ['-1', '3', '1']: backward transform undefined: -a*n - m = 0 at n = 3",
        )
        (report,) = run_suite({"eq9": {"length": 3, "sequences": 3, "seed": 1, "pairs": pairs}})
        assert report.ok and len(report.skipped) == 1

    def test_zero_denominator_step_rejected(self):
        interval = {"min": "1", "max": "2", "step": "1/0"}
        with pytest.raises(ConfigError, match="bad interval"):
            run_suite({"eq7": {"beta": interval, "gamma": interval, "order": 3}})

    def test_malformed_section_rejected(self):
        with pytest.raises(ConfigError):
            run_suite({"eq2": {"alpha": {"min": "0"}, "beta": {}, "gamma": {}, "n_max": 2}})

    def test_default_config_is_json_serializable(self):
        assert load_config(json.dumps(DEFAULT_CONFIG)) == DEFAULT_CONFIG

    def test_load_config_rejects_bad_json(self):
        with pytest.raises(ConfigError):
            load_config("{not json")
        with pytest.raises(ConfigError):
            load_config("[1, 2]")


def _small_grid(alpha: dict, n_max: int) -> dict:
    return {"alpha": alpha, "beta": {"min": "1", "max": "2", "step": "1"},
            "gamma": {"min": "1", "max": "2", "step": "1"}, "n_max": n_max}


ALPHA_0_2 = {"min": "0", "max": "2", "step": "1"}

# sha256 of reports_to_json(run_suite(config)), each computed by the
# straightforward implementation that evaluated every Eq4 point itself.  An
# Eq2 section without a cross route names no census or array-row route in
# its grid text, so the two reports of such sections are that
# implementation's bytes without "; plus involution-census and array-row
# routes".
GOLDEN_REPORTS = [
    (None, "2538d28b057d4f2f5c29f3f288dd88c4e7e573a33d04b4a40c6726c90815ecfd"),
    ({"eq2": _small_grid(ALPHA_0_2, 4), "eq4": _small_grid(ALPHA_0_2, 4),
      "corrupt_catalan": True},
     "f2140e85f4358677b2511830cd3f97f7aed07e2f4d56a44b34f1c092cc303254"),
    ({"eq4": _small_grid({"min": "-1/2", "max": "1", "step": "1/2"}, 5)},
     "ac829d3efe5ec06e02769329ace072be99757d31c7b408e8ea94ffc5f36ed804"),
    ({"eq2": _small_grid(ALPHA_0_2, 4),
      "eq4": _small_grid({"min": "1", "max": "3", "step": "1"}, 4)},
     "68aeb0b3b37cfe112a0245591d98c91bd152cfa84a798fed3e97c97c9465abc7"),
    # Sequences of length six times their number, which that implementation
    # decided by the seeded round trips alone, with no matrix identity.
    ({"eq9": {**DEFAULT_CONFIG["eq9"], "length": 30, "sequences": 5}},
     "03569a6988eb5bd3a430a7c91025f0ae360053cc62338b37a1ddc85fb5be40f5"),
]


class TestGoldenReports:
    @pytest.mark.parametrize("config,digest", GOLDEN_REPORTS,
                             ids=["default", "corrupt", "eq4-only", "eq4-grid-differs",
                                  "eq9-long"])
    def test_report_bytes_are_pinned(self, request, config, digest):
        reports = (request.getfixturevalue("default_reports") if config is None
                   else run_suite(config))
        text = reports_to_json(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_corrupted_eq2_leaves_eq4_passing(self):
        eq2, eq4 = run_suite(GOLDEN_REPORTS[1][0])
        assert not eq2.ok and eq4.ok
        assert eq2.counterexample.to_json() == {
            "params": {"alpha": "0", "beta": "1", "gamma": "1", "n": "2"},
            "lhs": "2", "rhs": "1", "detail": "direct sum"}

    @pytest.mark.parametrize("config,evaluated,points", [
        (GOLDEN_REPORTS[1][0], 12, 12),  # corrupted Eq2 shares nothing
        (GOLDEN_REPORTS[2][0], 16, 16),  # no Eq2 section
        (GOLDEN_REPORTS[3][0], 4, 12),   # only the alpha = 3 points are new
        ({"eq2": _small_grid(ALPHA_0_2, 4), "eq4": _small_grid(ALPHA_0_2, 5)}, 12, 12),
    ])
    def test_eq4_evaluates_only_points_eq2_did_not_pass(self, monkeypatch, config,
                                                       evaluated, points):
        calls = []

        def counted(*args):
            calls.append(args)
            return verify_eq4(*args)

        monkeypatch.setattr(identities, "verify_eq4", counted)
        run_suite(config)
        assert len(calls) == evaluated
        calls.clear()
        run_suite({"eq4": config["eq4"]})  # nothing is kept between calls
        assert len(calls) == points


class TestCheckersAreReadByName:
    """Each section reaches its per-point checker through the module's name
    for it at call time, where benchmarks/bench_trace.py binds its timing
    wrapper: a record that held the function object would blind the trace."""

    def test_each_checker_is_called_once_per_evaluated_point(self, monkeypatch):
        calls = {}
        for name in ("verify_eq3", "verify_eq4", "verify_eq10", "closed_form_reduction_check"):
            calls[name] = []
            monkeypatch.setattr(identities, name, _recorded(
                calls[name], getattr(identities, name), lambda *args: args))
        config = {
            "eq2": _small_grid(ALPHA_0_2, 3),
            # Eq2 passed every point but those of alpha = 3.
            "eq4": _small_grid({"min": "1", "max": "3", "step": "1"}, 3),
            "eq3": {"p": [2], "gamma": _interval("0", "1"), "alpha": _interval("0", "1", "1/2"),
                    "n_total_max": 2},
            "eq10": {**_small_grid(_interval("0", "1"), 3), "gamma": _interval("1", "1")},
            "closed_form": {"beta": _interval("0", "1"), "gamma": _interval("1", "3"), "n_max": 3},
        }
        assert all(report.ok for report in run_suite(config))
        assert calls == {
            "verify_eq3": [((2,), gamma, alpha, 2) for gamma in (0, 1) for alpha in (0, F(1, 2), 1)],
            "verify_eq4": [(3, beta, gamma, 3) for beta in (1, 2) for gamma in (1, 2)],
            "verify_eq10": [(alpha, beta, 1, 3) for alpha in (0, 1) for beta in (1, 2)],
            "closed_form_reduction_check": [(beta, gamma, 3) for beta in (0, 1) for gamma in (1, 2, 3)],
        }


def _recorded(calls: list, fn, key):
    """``fn``, recording key(*args) of every call in ``calls``."""
    def recording(*args):
        calls.append(key(*args))
        return fn(*args)
    return recording


class TestRunScope:
    """The tables of a run_suite call live only for that call."""

    SECTIONS = {key: DEFAULT_CONFIG[key] for key in ("eq1", "eq2", "eq4", "eq10", "closed_form")}

    def test_each_table_entry_is_built_once_per_run(self, monkeypatch):
        rows, cats, closed = [], [], []
        monkeypatch.setattr(identities, "_gould_rows", _recorded(
            rows, identities._gould_rows, lambda a, m, z, length, backward=False:
            (a, m, z, length, backward)))
        # The run's oracle is the recorder, which every section asks for its counts.
        monkeypatch.setattr(identities, "catalan_gen", _recorded(cats, catalan_gen, lambda *key: key))
        monkeypatch.setattr(identities, "eq2_rhs", _recorded(
            closed, eq2_rhs, lambda alpha, gamma, n: (F(alpha) - F(gamma), n)))
        for _ in range(2):  # the second run builds everything again
            for calls in (rows, cats, closed):
                calls.clear()
            assert all(r.ok for r in run_suite(self.SECTIONS))
            # Eq1's row set and counts, Eq2's 45 forward row sets (alpha, beta) and
            # 35 count sequences (beta, gamma), the cross route's 8 row sets, and
            # Eq10's 24 backward row sets; Eq4 takes every verdict from Eq2.
            assert len(rows) == len(set(rows)) == 1 + 45 + 8 + 24
            # The oracle is asked for each (n, beta, gamma) once: Eq1's (2, 1)
            # up to n = 8 is extended to 12 by Eq2, whose 35 sequences serve the
            # cross route's 4 (up to 4, for its sums and their generating
            # functions), Eq10's 20 (up to 10) and ClosedForm's 24 with beta >= 0
            # (up to 10) as prefixes; the family route's 6 generating functions
            # extend theirs to 15, and ClosedForm's 6 at beta = -1 are its own.
            eq2 = {(n, beta, gamma) for beta in range(5) for gamma in range(-2, 5) for n in range(13)}
            family = {(n, beta, gamma) for beta in (1, 2, 3) for gamma in (1, 2) for n in range(13, 16)}
            closed_form = {(n, -1, gamma) for gamma in range(-2, 4) for n in range(11)}
            assert len(cats) == len(set(cats)) == 35 * 13 + 6 * 3 + 6 * 11
            assert set(cats) == eq2 | family | closed_form
            # The closed forms per alpha - gamma, each n once: Eq1's 0 up to
            # n = 8, extended to 12 by Eq2's -7..7, whose prefixes serve Eq10's -5..4.
            assert sorted(closed) == sorted((x, n) for x in range(-7, 8) for n in range(13))

    def test_each_eq3_term_table_is_built_once_per_run(self, monkeypatch):
        terms = []
        monkeypatch.setattr(identities, "census_terms", _recorded(
            terms, census_terms, lambda profile, gamma: (profile, gamma)))
        for _ in range(2):  # the second run builds every table again
            terms.clear()
            assert run_suite({"eq3": DEFAULT_CONFIG["eq3"]})[0].ok
            assert identities._ACTIVE_RUN.get() is None
            # One table per n (10 with sum(n) <= 3) and gamma (3), read by all 11 alphas.
            assert len(terms) == len(set(terms)) == 10 * 3
        assert verify_eq3((2, 3), 1, 2, 1).ok  # outside a run, a check builds its own
        assert len(terms) == 30 + 3

    def test_each_cross_census_is_the_cli_call_and_builds_one_size_table(self, monkeypatch):
        # Eq2's cross route shares no count between its censuses: each is
        # signed_sum(beta, n, gamma, alpha), as `catalania involution` calls
        # it, which checks the whole census against the budget and then
        # builds the one table of forest counts of its profile.
        calls, events = [], []
        monkeypatch.setattr(identities, "signed_sum", _recorded(
            calls, signed_sum, lambda *args: args))
        monkeypatch.setattr(census, "check_budget", _recorded(
            events, census.check_budget, lambda estimate: "budget"))
        monkeypatch.setattr(census, "_forest_counts", _recorded(
            events, census._forest_counts, lambda counts, p, gamma: (p, counts)))
        cross = DEFAULT_CONFIG["eq2"]["cross"]
        points = [(beta, n, gamma, gamma + offset) for beta, gamma, offset in itertools.product(
            cross["betas"], cross["gammas"], cross["alpha_offsets"]) for n in range(cross["n_max"] + 1)]
        assert run_suite({"eq2": DEFAULT_CONFIG["eq2"]})[0].ok
        assert calls == points  # 2 betas x 2 gammas x 3 alphas x 5 n
        assert [tuple(map(type, args)) for args in calls] == [(int,) * 4] * len(points)
        assert events == [event for beta, n, _, _ in points for event in ("budget", ((beta,), (n,)))]

    @pytest.mark.parametrize("backward", [False, True])
    def test_a_later_run_sees_a_patched_builder(self, monkeypatch, backward):
        config = {"eq1": {"n_max": 4}, "eq10": EQ10_SMALL}
        assert [r.ok for r in run_suite(config)] == [True, True]
        monkeypatch.setattr(identities, "_gould_rows", _perturbed_gould_rows(backward, 3, 1))
        assert [r.ok for r in run_suite(config)] == [backward, not backward]

    def test_concurrent_runs_share_nothing(self, monkeypatch):
        """Each run builds its own rows, in its own order, whatever the runs in
        other threads do at the same time."""
        config = {"eq1": {"n_max": 6}, "eq10": EQ10_SMALL}
        builds = defaultdict(list)
        gould_rows = identities._gould_rows

        def recorded(*args):
            builds[threading.get_ident()].append(args)
            return gould_rows(*args)

        def run():
            return reports_to_json(run_suite(config)), builds.pop(threading.get_ident())

        monkeypatch.setattr(identities, "_gould_rows", recorded)
        expected = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8

    def test_no_table_outlives_its_run(self, monkeypatch):
        def broken(*args):
            raise ArithmeticError("internal bug")

        run_suite({"eq1": {"n_max": 2}})
        assert identities._ACTIVE_RUN.get() is None
        monkeypatch.setattr(identities, "catalan_gen", broken)
        with pytest.raises(ArithmeticError):
            run_suite({"eq1": {"n_max": 2}})
        assert identities._ACTIVE_RUN.get() is None


class TestSeriesTables:
    """Eq2's array routes, Eq7 and Eq8 read their series from the run's tables."""

    def test_each_generating_function_and_power_is_built_once_per_run(self, monkeypatch):
        gfs, fs, powers = [], [], []
        # A generating function is the one Series the module builds itself; record its order.
        monkeypatch.setattr(identities, "Series", _recorded(
            gfs, Series, lambda coeffs: len(coeffs) - 1))
        monkeypatch.setattr(identities, "family_f", _recorded(fs, family_f, lambda *key: key))
        monkeypatch.setattr(identities, "series_binpow", _recorded(
            powers, series_binpow, lambda *key: key))
        config = {key: DEFAULT_CONFIG[key] for key in ("eq2", "eq7", "eq8")}
        for _ in range(2):  # the second run builds every series again
            for calls in (gfs, fs, powers):
                calls.clear()
            assert all(r.ok for r in run_suite(config))
            # (beta, gamma, order): the cross route's 2 x 2 at order 4, the family
            # route's 3 x 2 at 15, Eq7's 4 x 4 at 20 and Eq8's 3 betas times the 6
            # gammas {1, 2, 3, 5, 1/2, 3/2} at 15, 6 of which the family route holds.
            assert sorted(gfs) == [4] * 4 + [15] * (6 + 18 - 6) + [20] * 16
            # x(1-x)^(beta-1) per (beta, order): 2 at order 4, 3 at 15, 4 at 20.
            assert len(fs) == len(set(fs)) == 2 + 3 + 4
            # (1-x)^a per (a, order): the cross route's alphas 1..4 at 4, the family
            # route's alphas 0..3 and alpha - gamma in -2..2 at 15, and Eq7's
            # (1-x)^(-gamma) for gamma 0..3 at 20.
            assert len(powers) == len(set(powers)) == 4 + 6 + 4
        assert identities._ACTIVE_RUN.get() is None

    @pytest.mark.parametrize("beta,gamma,order", [(2, 1, 4), (3, F(1, 2), 15), (F(1, 2), F(-3, 2), 6),
                                                  (1, 0, 3)])
    def test_generating_functions_are_catalan_gf(self, beta, gamma, order):
        # The run's series is read off its table of counts, here filled up to
        # n = 12 first, at another gamma too.
        run = identities._Run(catalan_gen)
        token = identities._ACTIVE_RUN.set(run)
        try:
            for g in (gamma, gamma + 1):
                identities._catalans(beta, g, 12)
            got = identities._gf(beta, gamma, order)
        finally:
            identities._ACTIVE_RUN.reset(token)
        assert got.coeffs == catalan_gf(beta, gamma, order).coeffs


def _bumped(s, index: int = 1):
    """The series s with coefficient ``index`` plus 1."""
    return Series(s.coeffs[:index] + (s.coeffs[index] + 1,) + s.coeffs[index + 1:])


def _gf_bumped_at(beta, gamma):
    """identities._gf with coefficient 3 plus 1 at (beta, gamma) only."""
    honest = identities._gf

    def gf(b, g, order):
        s = honest(b, g, order)
        return _bumped(s, 3) if (b, g) == (beta, gamma) else s
    return gf


class TestSeriesFailures:
    """Eq7 and Eq8 report the first point whose series differ, and pass a grid
    that misses it."""

    def test_eq7_names_the_bumped_point(self, monkeypatch):
        monkeypatch.setattr(identities, "_gf", _gf_bumped_at(3, 2))
        (report,) = run_suite({"eq7": DEFAULT_CONFIG["eq7"]})
        assert report.status == "fail"
        assert report.counterexample.to_json() == {
            "params": {"beta": "3", "gamma": "2", "order": "20"},
            "lhs": "gf composed with x(1-x)^(beta-1)", "rhs": "(1-x)^(-gamma)"}
        for missed in ({"beta": _interval("1", "2")}, {"gamma": _interval("0", "1")}):
            assert run_suite({"eq7": {**DEFAULT_CONFIG["eq7"], **missed}})[0].ok

    # At beta 2, gamma 5 is the sum of the pair (2, 3), and 1/2 the first
    # part of the pair (1/2, 3/2).
    @pytest.mark.parametrize("gamma,alpha1,alpha2", [(5, "2", "3"), (F(1, 2), "1/2", "3/2")])
    def test_eq8_names_the_bumped_point(self, monkeypatch, gamma, alpha1, alpha2):
        monkeypatch.setattr(identities, "_gf", _gf_bumped_at(2, gamma))
        (report,) = run_suite({"eq8": DEFAULT_CONFIG["eq8"]})
        assert report.status == "fail"
        assert report.counterexample.to_json() == {
            "params": {"beta": "2", "alpha1": alpha1, "alpha2": alpha2, "order": "15"},
            "lhs": "gf(alpha1) * gf(alpha2)", "rhs": "gf(alpha1 + alpha2)"}
        for missed in ({"beta": _interval("3", "3")}, {"alpha_pairs": [["1", "1"]]}):
            assert run_suite({"eq8": {**DEFAULT_CONFIG["eq8"], **missed}})[0].ok


# Where each builder of a family piece takes its f = x(1-x)^(beta-1).
_PIECE_F = {"riordan_columns": lambda r, n: r.f, "inverse_powers": lambda f, n: f,
            "series_compose": lambda a, f: f}


def _perturbed_at_beta_two(name: str, perturb):
    """identities.<name>, with ``perturb`` applied to the pieces it builds at beta = 2,
    where f's x^2 coefficient 1 - beta is -1."""
    build, f_of = getattr(identities, name), _PIECE_F[name]

    def perturbed(*args):
        pieces = build(*args)
        return perturb(pieces) if f_of(*args).coeffs[2] == -1 else pieces

    return perturbed


FAMILY_ONLY = {key: value for key, value in DEFAULT_CONFIG["eq2"].items() if key != "cross"}


class TestFamilyPieces:
    """Eq2's family route builds each array piece once per run, keyed on the
    parameters it depends on, and both of its summation checks read them."""

    def test_each_piece_is_built_once_per_run(self, monkeypatch):
        builds = defaultdict(list)
        for name, key in [("riordan_columns", lambda r, n: (r.g.coeffs, r.f.coeffs, n)),
                          ("inverse_powers", lambda f, n: (f.coeffs, n)),
                          ("series_compose", lambda a, f: (a.coeffs, f.coeffs)),
                          ("series_div_unit", lambda l, g: (l.coeffs, g.coeffs))]:
            monkeypatch.setattr(identities, name, _recorded(builds[name], getattr(identities, name), key))
        for _ in range(2):  # the second run builds every piece again
            for calls in builds.values():
                calls.clear()
            assert run_suite({"eq2": FAMILY_ONLY})[0].ok
            assert identities._ACTIVE_RUN.get() is None
            assert all(len(calls) == len(set(calls)) for calls in builds.values())
            # 4 alphas x 3 betas x 2 gammas: columns per (alpha, beta), powers per
            # beta, a(f) per (beta, gamma) and l/g per (alpha, gamma).
            assert {name: len(calls) for name, calls in builds.items()} == {
                "riordan_columns": 12, "inverse_powers": 3, "series_compose": 6,
                "series_div_unit": 8}

    @pytest.mark.parametrize("name,perturb,sides,detail", [
        # Column 0 is g, which both routes of the plain check read.
        ("riordan_columns", lambda columns: (_bumped(columns[0]),) + columns[1:],
         "row sums", "summation-matrix check"),
        ("inverse_powers", lambda powers: powers[:3] + (_bumped(powers[3]),) + powers[4:],
         "derivative form", "modified summation-matrix check"),
    ], ids=["column-0", "power-chain"])
    def test_a_piece_perturbed_at_one_beta_fails_eq2(self, monkeypatch, name, perturb, sides,
                                                     detail):
        monkeypatch.setattr(identities, name, _perturbed_at_beta_two(name, perturb))
        (report,) = run_suite({"eq2": FAMILY_ONLY})
        assert report.counterexample.to_json() == {
            "params": {"alpha": "0", "beta": "2", "gamma": "1", "order": "15"},
            "lhs": sides, "rhs": "target coefficients", "detail": detail}

    def test_a_perturbed_quotient_fails_the_derivative_form(self, monkeypatch):
        build = identities.series_div_unit
        monkeypatch.setattr(identities, "series_div_unit", lambda l, g: _bumped(build(l, g), 4))
        (report,) = run_suite({"eq2": FAMILY_ONLY})
        assert report.counterexample.detail == "modified summation-matrix check"

    @pytest.mark.parametrize("name,perturb", [
        ("riordan_columns", lambda columns: columns[:2] + (_bumped(columns[2]),) + columns[3:]),
        ("series_compose", _bumped),
    ], ids=["column-2", "a(f)"])
    def test_a_single_route_perturbed_at_one_beta_is_an_internal_error(self, monkeypatch, name,
                                                                      perturb):
        monkeypatch.setattr(identities, name, _perturbed_at_beta_two(name, perturb))
        with pytest.raises(RuntimeError, match="routes disagree"):
            run_suite({"eq2": FAMILY_ONLY})


def _unnarrowed(value):
    """identities._narrow as it was before the axes held ints: every value a Fraction."""
    return value


@st.composite
def small_intervals(draw, lo: int = -2, hi: int = 3):
    """An interval of 1 to 3 points whose endpoints and step are integral, rational or mixed."""
    start = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=2))
    step = draw(st.sampled_from([F(1), F(1, 2), F(3, 2)]))
    stop = start + draw(st.integers(min_value=0, max_value=2)) * step
    return {"min": str(start), "max": str(stop), "step": str(step)}


def _closed_forms_off_at_two(alpha, gamma, n):
    return eq2_rhs(alpha, gamma, n) + (n == 2)


def _reports_with(config: dict, patches: dict) -> str:
    """reports_to_json(run_suite(config)) with the identities names in ``patches`` replaced."""
    saved = {name: getattr(identities, name) for name in patches}
    try:
        for name, value in patches.items():
            setattr(identities, name, value)
        return reports_to_json(run_suite(config))
    finally:
        for name, value in saved.items():
            setattr(identities, name, value)


def _reports_or_refusal(config: dict, patches: dict) -> str:
    """_reports_with(config, patches), or the text of the ConfigError it raises."""
    try:
        return _reports_with(config, patches)
    except ConfigError as err:
        return f"refused: {err}"


class TestIntegerAxes:
    """The grid gives integral values as ints; the reports are those of Fraction axes."""

    @given(alpha=small_intervals(), beta=small_intervals(0, 3), gamma=small_intervals(),
           n_max=st.integers(min_value=0, max_value=4),
           fault=st.sampled_from(["none", "corrupt_catalan", "closed_forms"]))
    @settings(max_examples=60, deadline=None)
    def test_reports_are_those_of_fraction_axes(self, alpha, beta, gamma, n_max, fault):
        axes = {"alpha": alpha, "beta": beta, "gamma": gamma, "n_max": n_max}
        config = {"eq2": axes, "eq4": axes, "eq10": axes,
                  "closed_form": {"beta": beta, "gamma": gamma, "n_max": n_max}}
        if fault == "corrupt_catalan":
            config["corrupt_catalan"] = True
        # Wrong closed forms fail Eq2 and Eq10 at n = 2.
        patches = {"eq2_rhs": _closed_forms_off_at_two} if fault == "closed_forms" else {}
        # At n_max 0, Eq10 and ClosedForm have no row and both sides refuse the config.
        assert _reports_or_refusal(config, patches) == _reports_or_refusal(
            config, {**patches, "_narrow": _unnarrowed})

    def test_integral_values_are_ints(self):
        alphas = identities._Interval("alpha", _interval("-1", "1", "1/2"))
        betas = identities._Interval("beta", _interval("0", "2"))
        assert (alphas.size, str(alphas)) == (5, "alpha in [-1..1 step 1/2]")
        assert [type(v) for v in alphas] == [int, F, int, F, int]
        assert list(alphas) == [-1, F(-1, 2), 0, F(1, 2), 1]
        assert [type(v) for v in betas] == [int] * 3


# sha256 of the stdout of `catalania ARGV`, and of the encodings of one
# two-class census joined by newlines, each computed by the separate
# beta-ary and vector generators that preceded the shared one.
GOLDEN_ENUMERATIONS = [
    (("trees", "list", "--beta", "2", "--n", "4"),
     "51015e3cd75591f854920c80b74aa417af2d2d69c64d77705c6663a1a932172e"),
    (("trees", "list", "--beta", "3", "--n", "3", "--gamma", "2"),
     "8550858c935024b4ae0728b1dee5a8a3e8415cdd7d13463136d603e36925d36a"),
    (("trees", "list", "--beta", "2", "--n", "2", "--gamma", "3"),
     "610c9bc471df3646fce49839d94bf8ce84b1ba71fd2955be4785af9b9b7d7a49"),
    (("involution", "--beta", "2", "--n", "3", "--gamma", "1", "--alpha", "2", "--dump-pairs"),
     "1eb0d53eb9b8218f641d8797a021040bf59995e372cc34110f85346d773abf5a"),
    (("involution", "--beta", "3", "--n", "3", "--gamma", "2", "--alpha", "3", "--dump-pairs"),
     "a44111486a0d7d63e0fef2e6f93ebf87a3d06614e9b9eb2db69851d8b9dc18ac"),
    (("involution", "--beta", "2", "--n", "4", "--gamma", "2", "--alpha", "4", "--dump-pairs"),
     "8871c1a1a5930ab7019ca13bb3f77ff099941a46c56348dd3f5e7b85535186ab"),
    # A dump shape of the enumerate benchmark workload.
    (("involution", "--beta", "3", "--n", "6", "--gamma", "1", "--alpha", "3", "--dump-pairs"),
     "d4bff542b26b2a1972757488fdf3cba09710c2e2b0cc0690894ea0badb05cc82"),
]


class TestGoldenEnumerations:
    @pytest.mark.parametrize("argv,digest", GOLDEN_ENUMERATIONS,
                             ids=["b2n4g1", "b3n3g2", "b2n2g3",
                                  "pairs-b2n3", "pairs-b3n3", "pairs-b2n4", "pairs-b3n6"])
    def test_cli_output_is_pinned(self, capsys, argv, digest):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_two_class_census_order_is_pinned(self):
        census = enumerate_colored_vector(VecProfile((2, 1), (2, 3)), (1, 1), 1, 3)
        text = "\n".join(encode_colored(c, 2) for c in census)
        assert len(census) == 882
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f47341209cb48ba41de6c99af0c8a35c0410c6ee573a6e39623d823f8b5272d")


# One malformed section per config key, with the error it must raise.
MALFORMED_SECTIONS = [
    ("eq1", {"n_max": -1}, "n_max must be a non-negative integer, got -1"),
    ("eq2", {"alpha": _interval("1", "1"), "beta": _interval("2", "2"),
             "gamma": _interval("1", "1"), "n_max": 1,
             "cross": {"betas": [2], "gammas": [1], "alpha_offsets": [0]}},
     "n_max must be a non-negative integer, got None"),
    ("eq3", {"p": [2], "gamma": _interval("0", "1", "1/2"), "alpha": _interval("0", "1"),
             "n_total_max": 1},
     "eq3 gamma grid must be integral"),
    ("eq4", {"alpha": _interval("1", "0"), "beta": _interval("2", "2"),
             "gamma": _interval("1", "1"), "n_max": 1},
     "interval min 1 exceeds max 0"),
    ("eq7", {"beta": _interval("1", "2"), "gamma": _interval("0", "1")},
     "order must be a non-negative integer, got None"),
    ("eq8", {"beta": _interval("1", "2"), "alpha_pairs": [["1"]], "order": 3},
     "malformed config: eq8 alpha pair must be an array of 2 entries, got ['1']"),
    ("eq9", {"length": 3, "sequences": 1, "seed": "x", "pairs": []},
     "eq9 needs an integer seed"),
    ("eq10", {"alpha": _interval("1", "1"), "beta": _interval("2", "2"),
              "gamma": _interval("1", "1"), "n_max": -2},
     "n_max must be a non-negative integer, got -2"),
    ("closed_form", {"gamma": _interval("0", "1"), "n_max": 3}, "malformed config: 'beta'"),
]


class TestSuiteConfigErrors:
    @pytest.mark.parametrize("key,section,message", MALFORMED_SECTIONS,
                             ids=[key for key, _, _ in MALFORMED_SECTIONS])
    def test_malformed_section(self, key, section, message):
        with pytest.raises(ConfigError) as err:
            run_suite({key: section})
        assert str(err.value).startswith(message)

    def test_every_section_is_covered(self):
        assert [key for key, _, _ in MALFORMED_SECTIONS] == list(DEFAULT_CONFIG)

    def test_eq1_checks_its_n_zero_row(self):
        (report,) = run_suite({"eq1": {"n_max": 0}})
        assert report.ok and report.grid.endswith("n<=0")


# The functions that evaluate the suite's sections, as the identities module
# names them.
EVALUATORS = [
    "verify_eq2", "verify_eq3", "verify_eq4", "verify_eq10", "closed_form_reduction_check",
    "series_mul", "gould_forward", "gould_backward", "signed_sum", "eq2_lhs",
    "row_sums_from", "family_f", "_gf", "series_binpow", "riordan_columns", "inverse_powers",
    "series_compose", "summation_check", "derivative_form_check", "_gould_rows", "census_terms",
    "_eq2_failure",
]


@pytest.fixture
def no_evaluation(monkeypatch):
    """Make every evaluator fail the test if it is called."""
    def refuse(*args, **kwargs):
        pytest.fail("a section was evaluated before the whole config was read")

    for name in EVALUATORS:
        monkeypatch.setattr(identities, name, refuse)


_EQ2_POINT = {"alpha": _interval("1", "1"), "beta": _interval("2", "2"),
              "gamma": _interval("1", "1"), "n_max": 1}
_CROSS = {"betas": [2], "gammas": [1], "alpha_offsets": [0], "n_max": 2}
_FAMILY = {"alphas": ["0"], "betas": ["1"], "gammas": ["1"], "order": 3}
_EQ3 = {"p": [2], "gamma": _interval("0", "1"), "alpha": _interval("0", "1"), "n_total_max": 1}
_EQ9 = {"length": 3, "sequences": 1, "seed": 7, "pairs": [["1", "1", "1"]]}

# Domain mistakes that the evaluators report too, each found while the config
# is read, with the evaluator's message.
DOMAIN_MISTAKES = [
    ("eq2", {**_EQ2_POINT, "cross": {**_CROSS, "betas": [0]}},
     "malformed config: beta must be an integer >= 1, got 0"),
    ("eq2", {**_EQ2_POINT, "cross": {**_CROSS, "alpha_offsets": [-1]}},
     "malformed config: need alpha >= gamma >= 1, got alpha=0, gamma=1"),
    ("eq2", {**_EQ2_POINT, "family": {**_FAMILY, "order": 0}},
     "malformed config: the family needs order >= 1"),
    ("eq3", {**_EQ3, "p": [3, 2]},
     "malformed config: outdegrees must be strictly increasing, got (3, 2)"),
    ("eq3", {**_EQ3, "gamma": _interval("-1", "1")},
     "malformed config: gamma must be a non-negative integer, got -1"),
    ("eq7", {"beta": _interval("1", "2"), "gamma": _interval("0", "1"), "order": 0},
     "malformed config: need order >= 1"),
    # Sections whose grid would check nothing.
    ("eq8", {"beta": _interval("1", "2"), "alpha_pairs": [], "order": 3},
     "malformed config: need at least one alpha pair"),
    ("eq9", {**_EQ9, "length": 0},
     "malformed config: eq9 needs length >= 1, sequences >= 1 and at least one pair"),
    ("eq9", {**_EQ9, "sequences": 0},
     "malformed config: eq9 needs length >= 1, sequences >= 1 and at least one pair"),
    ("eq9", {**_EQ9, "pairs": []},
     "malformed config: eq9 needs length >= 1, sequences >= 1 and at least one pair"),
    # The pole scan skips the one pair (a = 1, m = -1 is singular at n = 1).
    ("eq9", {"length": 3, "sequences": 2, "seed": 1, "pairs": [["1", "-1", "1"]]},
     "malformed config: eq9 needs length >= 1, sequences >= 1 and at least one pair "
     "without a pole"),
    ("eq2", {**_EQ2_POINT, "cross": {}}, "malformed config: eq2 cross is empty"),
    ("eq2", {**_EQ2_POINT, "family": {}}, "malformed config: eq2 family is empty"),
    ("eq2", {**_EQ2_POINT, "cross": {**_CROSS, "betas": []}},
     "malformed config: eq2 cross has an empty betas axis"),
    ("eq2", {**_EQ2_POINT, "cross": {**_CROSS, "alpha_offsets": []}},
     "malformed config: eq2 cross has an empty alpha_offsets axis"),
    ("eq2", {**_EQ2_POINT, "family": {**_FAMILY, "gammas": []}},
     "malformed config: eq2 family has an empty gammas axis"),
    ("eq10", {**_EQ2_POINT, "n_max": 0},
     "malformed config: eq10 rows are 1 <= n <= n_max: need n_max >= 1"),
    ("closed_form", {"beta": _interval("1", "2"), "gamma": _interval("0", "1"), "n_max": 0},
     "malformed config: closed_form rows are 1 <= n <= n_max: need n_max >= 1"),
]


class TestReadBeforeEvaluate:
    def test_malformed_last_section_stops_the_run_before_any_work(self, no_evaluation):
        config = {**DEFAULT_CONFIG, "closed_form": {"gamma": _interval("0", "1"), "n_max": 3}}
        with pytest.raises(ConfigError, match="malformed config: 'beta'"):
            run_suite(config)

    @pytest.mark.parametrize("key,section,message", MALFORMED_SECTIONS + DOMAIN_MISTAKES,
                             ids=[key for key, _, _ in MALFORMED_SECTIONS] + [
                                 "eq2-cross-beta", "eq2-cross-alpha", "eq2-family-order",
                                 "eq3-p", "eq3-gamma", "eq7-order", "eq8-no-pairs",
                                 "eq9-length", "eq9-sequences", "eq9-no-pairs",
                                 "eq9-all-singular", "eq2-cross-empty", "eq2-family-empty",
                                 "eq2-cross-no-betas", "eq2-cross-no-offsets",
                                 "eq2-family-no-gammas", "eq10-n_max", "closed_form-n_max"])
    def test_each_mistake_is_found_by_the_read(self, no_evaluation, key, section, message):
        with pytest.raises(ConfigError) as err:
            run_suite({**DEFAULT_CONFIG, key: section})
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("config,message", [
        ({"eq1": 5}, "config section eq1 must be a JSON object"),
        ({"eq10": None}, "config section eq10 must be a JSON object"),
        ({"eq2": {**_EQ2_POINT, "cross": 5}}, "config section eq2 cross must be a JSON object"),
        ({"eq2": {**_EQ2_POINT, "family": [1]}},
         "config section eq2 family must be a JSON object"),
        ([], "config must be a JSON object"),
    ])
    def test_non_object_section_is_named(self, no_evaluation, config, message):
        with pytest.raises(ConfigError) as err:
            run_suite(config)
        assert str(err.value) == message

    def test_bool_seed_rejected(self, no_evaluation):
        config = {"eq9": {"length": 3, "sequences": 1, "seed": True, "pairs": []}}
        with pytest.raises(ConfigError, match="eq9 needs an integer seed"):
            run_suite(config)


class TestEvaluationErrors:
    @pytest.mark.parametrize("error", [KeyError("n"), TypeError("bug"), ValueError("bug")])
    def test_error_raised_while_evaluating_propagates(self, monkeypatch, error):
        # No error raised while evaluating is a config error: a ValueError is
        # an internal error, raised as a RuntimeError from it.
        def broken(*args):
            raise error

        monkeypatch.setattr(identities, "verify_eq2", broken)
        with pytest.raises(Exception) as err:
            run_suite({"eq1": {"n_max": 2}})
        if isinstance(error, ValueError):
            assert type(err.value) is RuntimeError and err.value.__cause__ is error
            assert str(err.value) == "Eq1 raised ValueError: bug; internal error"
        else:
            assert err.value is error

    def test_census_budget_is_not_a_config_error(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "4")
        config = {"eq2": {**_EQ2_POINT, "cross": {**_CROSS, "n_max": 3}}}
        with pytest.raises(EnumerationBudgetError):
            run_suite(config)
        path = tmp_path / "cross.json"
        path.write_text(json.dumps(config))
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: enumeration")

    def test_the_cross_census_is_sized_before_it_counts(self, monkeypatch):
        # The census n = 3 at beta 2, gamma 1, alpha 1 holds 12 structures:
        # it is checked whole, on closed-form counts, and builds no table of
        # forest counts; the censuses n = 0, 1 and 2 before it fit and count.
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "4")
        tables = []
        monkeypatch.setattr(census, "_forest_counts", _recorded(
            tables, census._forest_counts, lambda counts, p, gamma: counts))
        with pytest.raises(EnumerationBudgetError) as err:
            run_suite({"eq2": {**_EQ2_POINT, "cross": {**_CROSS, "n_max": 3}}})
        assert (err.value.estimate, err.value.budget) == (12, 4)
        assert tables == [(0,), (1,), (2,)]


def _failing_at(checker, k: int, calls: list):
    """``checker``, except that its k-th call reports a failure whose
    counterexample names that call."""
    def patched(*args):
        calls.append(args)
        rep = checker(*args)
        if len(calls) != k:
            return rep
        marker = Counterexample.at({"call": k}, "lhs", "rhs")
        return IdentityReport(rep.identity_id, rep.grid, "fail", marker, rep.skipped)
    return patched


EQ10_SMALL = {"alpha": _interval("-2", "1"), "beta": _interval("0", "2"),
              "gamma": _interval("0", "1"), "n_max": 4}


class TestFirstFailure:
    @pytest.mark.parametrize("name,key,section,points", [
        ("verify_eq3", "eq3", {"p": [2, 3], "gamma": _interval("0", "1"),
                               "alpha": _interval("0", "1", "1/2"), "n_total_max": 2}, 6),
        ("verify_eq10", "eq10", EQ10_SMALL, 24),
        ("closed_form_reduction_check", "closed_form",
         {"beta": _interval("0", "2"), "gamma": _interval("-1", "1"), "n_max": 4}, 9),
    ])
    def test_kth_point_failure_is_reported(self, monkeypatch, name, key, section, points):
        for k in (1, 2, points // 2, points):
            calls = []
            monkeypatch.setattr(identities, name, _failing_at(getattr(identities, name), k, calls))
            (report,) = run_suite({key: section})
            assert len(calls) == k
            assert not report.ok
            assert dict(report.counterexample.params) == {"call": str(k)}
        monkeypatch.undo()
        (report,) = run_suite({key: section})
        assert report.ok

    @pytest.mark.parametrize("k", range(1, 25))
    def test_eq10_skipped_holds_items_reached(self, monkeypatch, k):
        reached = []
        for alpha in _values(EQ10_SMALL["alpha"]):
            for beta in _values(EQ10_SMALL["beta"]):
                for gamma in _values(EQ10_SMALL["gamma"]):
                    prefix = f"alpha={alpha}, beta={beta}, gamma={gamma}"
                    reached.append([f"{prefix}, {item}" for item in
                                    verify_eq10(alpha, beta, gamma, EQ10_SMALL["n_max"]).skipped])
        calls = []
        monkeypatch.setattr(identities, "verify_eq10", _failing_at(verify_eq10, k, calls))
        (report,) = run_suite({"eq10": EQ10_SMALL})
        assert report.skipped == tuple(item for items in reached[:k] for item in items)
        assert dict(report.counterexample.params) == {"call": str(k)}


def _values(spec: dict) -> list:
    """The values of an interval axis, each counted before any is made."""
    axis = identities._Interval("x", spec)
    values = list(axis)
    assert axis.size == len(values)
    return values


class TestGridExpansion:
    def test_integer_interval(self):
        assert _values({"min": "-2", "max": "1", "step": "1"}) == [-2, -1, 0, 1]

    def test_rational_step(self):
        got = _values({"min": "0", "max": "2", "step": "1/2"})
        assert got == [0, F(1, 2), 1, F(3, 2), 2]

    def test_step_not_landing_on_max(self):
        assert _values({"min": "0", "max": "1", "step": "2/3"}) == [0, F(2, 3)]

    @pytest.mark.parametrize(
        "spec",
        [
            {"min": "0", "max": "1"},
            {"min": "1", "max": "0", "step": "1"},
            {"min": "0", "max": "1", "step": "0"},
            {"min": "0", "max": "1", "step": "-1"},
            {"min": "0.5", "max": "1", "step": "1"},
        ],
    )
    def test_bad_intervals(self, spec):
        with pytest.raises(ConfigError):
            _values(spec)


class TestReportShape:
    def test_fail_requires_counterexample(self):
        with pytest.raises(ValueError):
            IdentityReport("Eq2", "grid", "fail")

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            IdentityReport("Eq5", "grid", "pass")


class TestRecords:
    """The report records are immutable values, shown by their fields."""

    EXAMPLE = Counterexample((("n", "2"),), "2", "1", "direct sum")
    RECORDS = [EXAMPLE, IdentityReport("Eq2", "grid", "fail", EXAMPLE, ("n=1",)),
               IdentityReport("Eq7", "grid", "pass"), GouldPair(2, 1, F(1, 3))]

    def test_repr(self):
        assert [repr(r) for r in self.RECORDS] == [
            "Counterexample(params=(('n', '2'),), lhs='2', rhs='1', detail='direct sum')",
            "IdentityReport(identity_id='Eq2', grid='grid', status='fail', counterexample="
            "Counterexample(params=(('n', '2'),), lhs='2', rhs='1', detail='direct sum'), "
            "skipped=('n=1',))",
            "IdentityReport(identity_id='Eq7', grid='grid', status='pass', counterexample=None, "
            "skipped=())",
            "GouldPair(a=2, m=Fraction(1, 1), z=Fraction(1, 3))"]

    @pytest.mark.parametrize("index", range(4))
    def test_value_semantics(self, index):
        # Immutability, copy and pickle: test_data_model.py, for every record type.
        record = self.RECORDS[index]
        twin = type(record)(*record._values())
        assert twin == record and hash(twin) == hash(record)
        assert record != record._values()

    def test_gould_pair_checks_a_and_normalizes_m_and_z(self):
        for a in (True, 1.0, F(2)):
            with pytest.raises(ValueError, match="a must be an integer"):
                GouldPair(a, 0, 1)
        pair = GouldPair(1, 2, -1)
        assert (type(pair.m), type(pair.z)) == (F, F)
        assert pair == GouldPair(1, F(2), F(-1))

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError, match="bad status"):
            IdentityReport("Eq2", "grid", "unknown")
