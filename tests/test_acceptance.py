"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (tolerance 0) in rational arithmetic.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction as F

from catalania.cli import main as cli_main
from catalania.counting import VecProfile, catalan_gen, catalan_vector
from catalania.census import compositions, signed_sum, signed_sum_vector
from catalania.exact import binom, multinomial
from catalania.forest import encode, generate_forests, generate_mixed_forests
from catalania.identities import eq2_lhs, reports_to_json, verify_eq2
from catalania.involution import (
    EXCEPTIONAL,
    check_signed_matching,
    classify,
    enumerate_colored,
    involute,
)
from catalania.riordan import (
    catalan_family,
    catalan_gf,
    modified_riordan_check,
    riordan_theorem_check,
    row_sums,
    series_binpow,
)

SCALAR_GRID = [
    (beta, n, gamma)
    for beta in (1, 2, 3)
    for gamma in (1, 2, 3)
    for n in range(0, (7 if beta <= 2 else 5))
]

VECTOR_GRID = [
    (p, n_vec, gamma)
    for p in ((2,), (3,), (2, 3))
    for gamma in (0, 1, 2)
    for total in range(0, 5)
    for n_vec in compositions(total, len(p))
]


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}")


def test_c01_enumeration_oracle():
    start = time.monotonic()
    ok = True
    for beta, n, gamma in SCALAR_GRID:
        if len(generate_forests(beta, n, gamma)) != catalan_gen(n, beta, gamma):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(1, ok, f"|generate_forests| = catalan_gen on the full grid ({elapsed:.1f}s)")
    assert ok


def test_c02_mixed_forest_oracle():
    ok = True
    for p, n_vec, gamma in VECTOR_GRID:
        profile = VecProfile(n_vec, p)
        if len(generate_mixed_forests(profile, gamma)) != catalan_vector(profile, gamma):
            ok = False
            break
    report(2, ok, "|generate_mixed_forests| = catalan_vector for t<=2, p within {2,3}")
    assert ok


def test_c03_leaf_law():
    violations = 0
    for beta, n, gamma in SCALAR_GRID:
        want = (beta - 1) * n + gamma
        for forest in generate_forests(beta, n, gamma):
            if encode(forest).count("o") != want:
                violations += 1
    for p, n_vec, gamma in VECTOR_GRID:
        profile = VecProfile(n_vec, p)
        want = profile.leaf_count(gamma)
        for forest in generate_mixed_forests(profile, gamma):
            if encode(forest).count("o") != want:
                violations += 1
    ok = violations == 0
    report(3, ok, f"leaf counts match the closed forms everywhere ({violations} violations)")
    assert ok


def test_c04_involution_certificate():
    ok = True
    for beta in (2, 3):
        for gamma in (1, 2):
            for alpha in (gamma, gamma + 1, gamma + 2):
                for n in range(5):
                    pool = []
                    for i in range(n + 1):
                        pool.extend(enumerate_colored(beta, n - i, i, gamma, alpha))
                    matchable = [c for c in pool if classify(c).kind != EXCEPTIONAL]
                    certified = check_signed_matching(
                        matchable,
                        lambda c: c.weight(),
                        lambda c, b=beta: involute(c, [b]),
                        klass=lambda c: classify(c).kind,
                    )
                    census = signed_sum(beta, n, gamma, alpha)
                    closed = (-1) ** n * binom(alpha - gamma, n)
                    if not certified or census != closed:
                        ok = False
    report(4, ok, "pairing certificate + signed census equal the closed form (scalar)")
    assert ok


def test_c05_vector_involution():
    ok = True
    p = (2, 3)
    for gamma in (1, 2):
        for alpha in range(gamma, gamma + 4):
            for total in range(0, 4):
                for n_vec in compositions(total, 2):
                    got = signed_sum_vector(VecProfile(n_vec, p), gamma, alpha)
                    want = (-1) ** total * multinomial(alpha - gamma, n_vec)
                    if got != want:
                        ok = False
    report(5, ok, "vector signed census equals the signed multinomial")
    assert ok


def test_c06_identity_grid():
    start = time.monotonic()
    ok = True
    for alpha in range(-3, 6):
        for beta in range(0, 5):
            for gamma in range(-2, 5):
                if not verify_eq2(alpha, beta, gamma, 12).ok:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    report(6, ok, f"alternating-sum identity on the integer grid, n<=12 ({elapsed:.1f}s)")
    assert ok


def test_c07_riordan_theorems():
    from catalania.identities import DEFAULT_CONFIG, run_suite

    ok = True
    for alpha in (0, 1, 2, 3):
        for beta in (1, 2, 3):
            for gamma in (1, 2):
                array = catalan_family(alpha, beta, 15)
                a = catalan_gf(beta, gamma, 15)
                l = series_binpow(F(alpha) - gamma, 15)
                if not riordan_theorem_check(array, a, l):
                    ok = False
                if not modified_riordan_check(array, a, l):
                    ok = False
    eq7, eq8 = run_suite({key: DEFAULT_CONFIG[key] for key in ("eq7", "eq8")})
    assert [(r.identity_id, r.grid) for r in (eq7, eq8)] == [
        ("Eq7", "beta in [1..4 step 1], gamma in [0..3 step 1], order 20"),
        ("Eq8", "beta in [1..3 step 1], alpha pairs [['1', '1'], ['2', '3'], ['1/2', '3/2'],"
                " ['1/2', '1/2']], order 15"),
    ]
    ok = ok and eq7.ok and eq8.ok
    report(7, ok, "summation-matrix checks, functional equation, convolution rule")
    assert ok


def test_c08_inverse_relations():
    from catalania.identities import DEFAULT_CONFIG, run_suite

    sections = {key: DEFAULT_CONFIG[key] for key in ("eq9", "eq10", "closed_form")}
    eq9, eq10, closed = run_suite(sections)
    assert [r.identity_id for r in (eq9, eq10, closed)] == ["Eq9_roundtrip", "Eq10", "ClosedForm"]
    ok = eq9.ok and eq10.ok and closed.ok
    report(8, ok, "Gould roundtrips, inverse-relation expansion, reduction chain")
    assert ok


def test_c09_cross_method_agreement():
    ok = True
    for beta in (2, 3):
        for gamma in (1, 2):
            for alpha in (gamma, gamma + 1, gamma + 2):
                rows = row_sums(
                    catalan_family(alpha, beta, 5), catalan_gf(beta, gamma, 5), 4
                )
                for n in range(5):
                    direct = eq2_lhs(alpha, beta, gamma, n)
                    census = signed_sum(beta, n, gamma, alpha)
                    if not (direct == census == rows[n]):
                        ok = False
    report(9, ok, "direct sum, involution census and array row sums coincide")
    assert ok


def test_c10_cli_end_to_end(capsys, default_reports):
    # The suite's shared default run stands in for the first of two runs.
    code = cli_main(["verify"])
    out = capsys.readouterr().out
    parsed = json.loads(out)
    ok = (
        code == 0
        and all(r.ok for r in default_reports)
        and out == reports_to_json(default_reports) + "\n"
        and all(entry["status"] == "pass" for entry in parsed)
    )
    report(10, ok, "default verify run exits 0 with a byte-stable JSON report")
    assert ok
