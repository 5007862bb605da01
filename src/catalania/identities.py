"""Identity verification harness: exact evaluation on rational grids.

Every check evaluates both sides of an identity with exact rationals over
a parameter grid and reports pass, or fail with a reproducible
counterexample.  Parameter points where a formula's own denominator
vanishes are skipped and listed, never silently passed.  A grid pass over
more points per variable than the polynomial degree certifies the identity
for arbitrary parameters; the report records the grid actually used.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from contextvars import ContextVar
from fractions import Fraction
from math import factorial, lcm, perm
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .census import (EnumerationBudgetError, census_terms, check_alpha_gamma, check_arity, compositions,
                     signed_sum)
from .counting import VecProfile, catalan_gen, catalan_vector, check_outdegrees, eq2_rhs
from .exact import (ConfigError, Rat, RatLike, Record, as_rat, binom, check_nat, cleared, falling,
                    int_binom, rat_str)
from .riordan import (RiordanArray, Series, derivative_form_check, family_f, inverse_powers,
                      riordan_columns, row_sums_from, series_binpow, series_compose, series_div_unit,
                      series_mul, summation_check)


class Counterexample(Record):
    __slots__ = ("params", "lhs", "rhs", "detail")
    params: tuple[tuple[str, str], ...]
    lhs: str
    rhs: str
    detail: str

    def __new__(cls, params: tuple[tuple[str, str], ...], lhs: str, rhs: str,
                detail: str = "") -> "Counterexample":
        return cls._make(params, lhs, rhs, detail)

    @staticmethod
    def at(params: Mapping[str, object], lhs: object, rhs: object, detail: str = "") -> "Counterexample":
        shown = tuple((k, str(v)) for k, v in params.items())
        return Counterexample(shown, str(lhs), str(rhs), detail)

    def to_json(self) -> dict:
        out = {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}
        if self.detail:
            out["detail"] = self.detail
        return out


class IdentityReport(Record):
    __slots__ = ("identity_id", "grid", "status", "counterexample", "skipped")
    identity_id: str
    grid: str
    status: str  # "pass" | "fail"
    counterexample: Optional[Counterexample]
    skipped: tuple[str, ...]

    def __new__(cls, identity_id: str, grid: str, status: str,
                counterexample: Optional[Counterexample] = None,
                skipped: Sequence[str] = ()) -> "IdentityReport":
        if identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {identity_id!r}")
        if status == "fail" and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        if status not in ("pass", "fail"):
            raise ValueError(f"bad status {status!r}")
        return cls._make(identity_id, grid, status, counterexample, tuple(skipped))

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "grid": self.grid,
            "status": self.status,
            "counterexample": None if self.counterexample is None else self.counterexample.to_json(),
            "skipped": list(self.skipped),
        }


def _report(identity_id: str, grid: str,
            counterexample: Optional[Counterexample],
            skipped: Sequence[str] = ()) -> IdentityReport:
    status = "pass" if counterexample is None else "fail"
    return IdentityReport(identity_id, grid, status, counterexample, skipped)


def _point(alpha: RatLike, beta: RatLike, gamma: RatLike) -> tuple[dict[str, object], str]:
    """Report params of one (alpha, beta, gamma) point, and their text."""
    params = {"alpha": rat_str(alpha), "beta": rat_str(beta), "gamma": rat_str(gamma)}
    return params, ", ".join(f"{k}={v}" for k, v in params.items())


# ---------------------------------------------------------------------------
# Gould's inverse pair: the one kernel of the scalar sums
# ---------------------------------------------------------------------------

class GouldPair(Record):
    """Parameters (a, m, z) of the mutually inverse sequence transforms."""

    __slots__ = ("a", "m", "z")
    a: int
    m: Rat
    z: Rat

    def __new__(cls, a: int, m: RatLike, z: RatLike) -> "GouldPair":
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"a must be an integer, got {a!r}")
        return cls._make(a, Fraction(m), Fraction(z))


class SingularGouldParameters(ValueError):
    """The backward transform's denominator -a*n - m vanished at some n."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"backward transform undefined: -a*n - m = 0 at n = {n}")


def _ring(values: Iterable[RatLike]) -> tuple[list, Callable[[RatLike, int], RatLike]]:
    """The one ring choice: ints and int_binom if every value is integral, else Fractions and binom."""
    values = list(values)
    if all(v.denominator == 1 for v in values):
        return [v.numerator for v in values], int_binom
    return [Fraction(v) for v in values], binom


def _gould_rows(a: RatLike, m: RatLike, z: RatLike, length: int,
                backward: bool = False) -> list[list[RatLike]]:
    """Rows 0..length-1 of the forward matrix of Gould's inverse pair (a, m, z),
    F[n][k] = binom(m + a*k, n-k) * z**(n-k) for k <= n, or with ``backward`` of
    the backward matrix with row n scaled by its denominator d = -a*n - m, whose
    diagonal is d: B[n][k] = (-a*k - m) * binom(d, n-k) * z**(n-k).  Ints at integral a, m, z.

    Elsewhere each entry is one Fraction of integers: with a*q and m*q integral
    and z = zn/zd, binom(x, j) * z**j is falling(x*q, q, j) * zn**j / (q**j * j! * zd**j)."""
    (a, m, z), choose = _ring((a, m, z))
    if choose is not int_binom:
        q = lcm(a.denominator, m.denominator)
        a, m, zn = int(a * q), int(m * q), z.numerator
        dens = [(q * z.denominator) ** j * factorial(j) for j in range(length)]
        if backward:
            return [[Fraction((-a * k - m) * falling(-a * n - m, q, n - k) * zn ** (n - k), q * dens[n - k])
                     for k in range(n + 1)] for n in range(length)]
        return [[Fraction(falling(m + a * k, q, n - k) * zn ** (n - k), dens[n - k]) for k in range(n + 1)]
                for n in range(length)]
    if backward:
        return [[(-a * k - m) * choose(-a * n - m, n - k) * z ** (n - k) for k in range(n + 1)]
                for n in range(length)]
    return [[choose(m + a * k, n - k) * z ** (n - k) for k in range(n + 1)] for n in range(length)]


def _dot(row: Sequence[RatLike], seq: Sequence[RatLike]) -> RatLike:
    return sum(map(operator.mul, row, seq))


def _backward(rows: Sequence[Sequence[RatLike]], seq: Sequence[Rat]) -> list[Rat]:
    """Scaled backward rows applied to seq, each row n >= 1 divided by its diagonal."""
    out = list(seq[:1])
    for n in range(1, len(rows)):
        if rows[n][n] == 0:
            raise SingularGouldParameters(n)
        out.append(Fraction(_dot(rows[n], seq), rows[n][n]))
    return out


def gould_forward(seq_a: Sequence[RatLike], pair: GouldPair) -> list[Rat]:
    """b_n = sum_k binom(m + a*k, n - k) * z**(n-k) * a_k."""
    seq = [Fraction(v) for v in seq_a]
    return [_dot(row, seq) for row in _gould_rows(pair.a, pair.m, pair.z, len(seq))]


def gould_backward(seq_b: Sequence[RatLike], pair: GouldPair) -> list[Rat]:
    """a_n = sum_k ((-a*k - m)/(-a*n - m)) * binom(-a*n - m, n - k) * z**(n-k) * b_k.

    The k = n term is the diagonal 1; for n >= 1 the remaining terms need
    -a*n - m != 0, else SingularGouldParameters is raised.
    """
    seq = [Fraction(v) for v in seq_b]
    return _backward(_gould_rows(pair.a, pair.m, pair.z, len(seq), backward=True), seq)


# ---------------------------------------------------------------------------
# What one run shares: the verdicts Eq4 takes from Eq2, and the tables
# ---------------------------------------------------------------------------

class _Run:
    """What the sections of one run_suite call share, dropped with it.

    ``catalan`` is the run's counting oracle, and the only one: _catalans
    builds the run's table of counts with it, which every section that reads
    the Catalan counts reads, their generating functions included.

    ``eq2_passed`` holds the points (alpha, beta, gamma, n_max) where
    verify_eq2 passed.  That pass compared the reversed-index sum with the
    direct sum on the same counts for every n <= n_max, which is all that
    verify_eq4 computes, so Eq4 takes its verdict there from Eq2.  Any
    other point is evaluated by Eq4 itself.

    ``tables`` holds the values that many grid points of every section but
    Eq9 need, keyed by a table name and the exact parameters the value
    depends on (an int for an integral one, which hashes like its Fraction):
    the Catalan counts per (beta, gamma) and the Eq2 closed forms
    per alpha - gamma, each the longest sequence asked for so far, whose
    prefixes serve the shorter requests and which a longer one extends; the
    forward and backward Gould rows per (a, m, z, length); the series of
    Eq2's array routes, Eq7 and Eq8 (generating functions read off the
    Catalan counts, x(1-x)**(beta-1) and (1-x)**a); the array
    columns per (alpha, beta, n_max), which Eq7 reads at alpha = 0, and the
    other pieces of the family route, see _family_pieces; and Eq3's counted
    census terms and catalan_vector per (p, n_vec, gamma), for all alphas.
    Eq2's cross route keeps no table of its own: each of its censuses is
    the signed_sum call of ``catalania involution``, which checks its
    budget and counts for itself.  An entry is built on its first use by the
    builder this module names at that moment, so a run sees a builder
    replaced before it started, and is immutable (tuples, Fractions, Series,
    RiordanArray).  Nothing outlives the run: a table kept across runs would
    hand a later run values built by an earlier run's builders.
    """

    __slots__ = ("catalan", "eq2_passed", "tables")
    catalan: Callable[[int, RatLike, RatLike], Rat]
    eq2_passed: set[tuple[RatLike, RatLike, RatLike, int]]
    tables: dict[tuple, object]

    def __init__(self, catalan: Callable[[int, RatLike, RatLike], Rat]) -> None:
        self.catalan, self.eq2_passed, self.tables = catalan, set(), {}


# The run_suite call under way in this context, whose tables the checks read;
# None outside one, where every check builds what it needs for itself.
_ACTIVE_RUN: ContextVar[Optional[_Run]] = ContextVar("catalania_active_run", default=None)


def _shared(key: tuple, build: Callable[[], object]) -> object:
    """The active run's table entry for ``key``, built on its first use."""
    run = _ACTIVE_RUN.get()
    if run is None:
        return build()
    tables = run.tables
    if key not in tables:
        tables[key] = build()
    return tables[key]


def _shared_prefix(key: tuple, n_max: int, build: Callable[[int, int], tuple]) -> tuple:
    """Entries 0..n_max of the active run's sequence ``key``: a prefix of the
    longest one built so far, which a longer request extends by
    build(start, n_max), the entries start..n_max."""
    check_nat(n_max, "n_max")
    run = _ACTIVE_RUN.get()
    if run is None:
        return build(0, n_max)
    tables = run.tables
    held = tables.get(key, ())
    if len(held) <= n_max:
        held = tables[key] = held + build(len(held), n_max)
    return held[:n_max + 1]


def _catalans(beta: RatLike, gamma: RatLike, n_max: int) -> tuple:
    """The run's oracle at (k, beta, gamma) for k <= n_max, catalan_gen's outside
    a run, each piece built in the ring of ``_ring``."""
    run = _ACTIVE_RUN.get()
    catalan = catalan_gen if run is None else run.catalan
    return _shared_prefix(("catalan", beta, gamma), n_max, lambda start, stop: tuple(
        _ring(catalan(k, beta, gamma) for k in range(start, stop + 1))[0]))


def _closed_forms(alpha: RatLike, gamma: RatLike, n_max: int) -> tuple:
    """eq2_rhs(alpha, gamma, k) for k <= n_max, each piece built in the ring of ``_ring``."""
    return _shared_prefix(("closed form", alpha - gamma), n_max, lambda start, stop: tuple(
        _ring(eq2_rhs(alpha, gamma, k) for k in range(start, stop + 1))[0]))


def _rows(a: RatLike, m: RatLike, z: RatLike, length: int, backward: bool = False) -> tuple:
    """_gould_rows(a, m, z, length, backward) as a tuple of tuples."""
    return _shared(("rows", a, m, z, length, backward), lambda: tuple(
        map(tuple, _gould_rows(a, m, z, length, backward))))


def _f(beta: RatLike, order: int) -> Series:
    return _shared(("f", beta, order), lambda: family_f(beta, order))


def _family(alpha: RatLike, beta: RatLike, order: int) -> RiordanArray:
    return RiordanArray(_binpow(alpha, order), _f(beta, order))


def _gf(beta: RatLike, gamma: RatLike, order: int) -> Series:
    """riordan.catalan_gf(beta, gamma, order), its coefficients read from the
    run's table of counts."""
    return _shared(("gf", beta, gamma, order), lambda: Series(_catalans(beta, gamma, order)))


def _columns(alpha: RatLike, beta: RatLike, n_max: int) -> tuple[Series, ...]:
    """riordan_columns of the family (alpha, beta) up to n_max, which reads
    the family's series up to n_max only."""
    return _shared(("columns", alpha, beta, n_max),
                   lambda: riordan_columns(_family(alpha, beta, max(n_max, 1)), n_max))


def _binpow(a: RatLike, order: int) -> Series:
    return _shared(("binpow", a, order), lambda: series_binpow(a, order))


def _family_pieces(alpha: RatLike, beta: RatLike, gamma: RatLike, order: int) -> tuple[tuple, tuple]:
    """The arguments of summation_check and derivative_form_check at one point of
    Eq2's family route, each piece from the table of the parameters it depends on:
    the columns per (alpha, beta), a(f) per (beta, gamma), the powers
    (x/f)**n per beta and l/g per (alpha, gamma)."""
    r, a = _family(alpha, beta, order), _gf(beta, gamma, order)
    l = _binpow(alpha - gamma, order)
    columns = _columns(alpha, beta, order)
    composed = _shared(("a(f)", beta, gamma, order), lambda: series_compose(a, r.f))
    powers = _shared(("powers", beta, order), lambda: inverse_powers(r.f, order))
    quotient = _shared(("l/g", alpha, gamma, order), lambda: series_div_unit(l, r.g))
    return (columns, composed, a, l), (powers, quotient, a)


# ---------------------------------------------------------------------------
# The alternating sum and its inverse expansion: the pair (beta - 1, alpha, -1)
# ---------------------------------------------------------------------------

def _eq2_row_sums(alpha: RatLike, beta: RatLike, gamma: RatLike,
                  n_max: int) -> tuple[list[RatLike], list[RatLike]]:
    """Forward rows 0..n_max against the counting sequence: the sum of each
    row, and the same sum taken in reversed index order."""
    cats = _catalans(beta, gamma, n_max)
    rows = _rows(beta - 1, alpha, -1, n_max + 1)
    return ([_dot(row, cats) for row in rows],
            [_dot(row[::-1], cats[n::-1]) for n, row in enumerate(rows)])


def eq2_lhs(alpha: RatLike, beta: RatLike, gamma: RatLike, n: int) -> Rat:
    """sum_i (-1)**(n-i) * binom((beta-1)i + alpha, n-i) * C(i)."""
    return Fraction(_eq2_row_sums(alpha, beta, gamma, n)[0][n])


def verify_eq2(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Check the alternating sum against its closed form for 0 <= n <= n_max,
    plus the reversed-index evaluation as an internal consistency check."""
    text = _point(alpha, beta, gamma)[1]
    return _report("Eq2", f"{text}, n<={n_max}", _eq2_failure(alpha, beta, gamma, n_max))


def _eq2_failure(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> Optional[Counterexample]:
    """The counterexample of verify_eq2, or None where it passes; a passing
    point builds no text."""
    closed = _closed_forms(alpha, gamma, n_max)
    direct, reindexed = _eq2_row_sums(alpha, beta, gamma, n_max)
    if reindexed == direct and tuple(direct) == closed:
        return None
    for n, (lhs, back) in enumerate(zip(direct, reindexed)):
        if lhs != closed[n]:
            return Counterexample.at({**_point(alpha, beta, gamma)[0], "n": n}, lhs, closed[n],
                                     "direct sum")
        if back != lhs:
            return Counterexample.at({**_point(alpha, beta, gamma)[0], "n": n}, back, lhs,
                                     "reindexed sum differs")
    return None


def verify_eq4(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Summation-order guard: the reversed-index rewriting of the sum must
    produce identical values term for term (the identity itself is Eq2's)."""
    point, text = _point(alpha, beta, gamma)
    grid = f"{text}, n<={n_max}"
    sums = _eq2_row_sums(alpha, beta, gamma, n_max)
    for n, (direct, reindexed) in enumerate(zip(*sums)):
        if reindexed != direct:
            return _report("Eq4", grid, Counterexample.at(
                {**point, "n": n}, reindexed, direct, "reversed-index sum differs"))
    return _report("Eq4", grid, None)


def _eq10_row_sums(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> Iterator[tuple]:
    """Backward rows 0..n_max, each scaled by its denominator
    (1-beta)*n - alpha, against the closed forms of Eq2; and that denominator."""
    check_nat(n_max)
    rhs = _closed_forms(alpha, gamma, n_max)
    for n, row in enumerate(_rows(beta - 1, alpha, -1, n_max + 1, backward=True)):
        yield _dot(row, rhs), row[n]


def eq10_lhs(alpha: RatLike, beta: RatLike, gamma: RatLike, n: int) -> Rat:
    """The inverse-relation sum; undefined where (1-beta)*n - alpha = 0."""
    *_, (scaled, denom) = _eq10_row_sums(alpha, beta, gamma, n)
    if denom == 0:
        raise ZeroDivisionError("(1-beta)*n - alpha = 0")
    return Fraction(scaled, denom)


def verify_eq10(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Check the expansion against the counts for 1 <= n <= n_max, skipping
    (and listing) rows where its denominator vanishes.  Rows are compared
    times their denominators, so integral points compare integers."""
    point, text = _point(alpha, beta, gamma)
    grid = f"{text}, 1<=n<={n_max}"
    cats = _catalans(beta, gamma, n_max)  # checks n_max
    skipped: list[str] = []
    for n, (scaled, denom) in enumerate(_eq10_row_sums(alpha, beta, gamma, n_max)):
        if n and denom == 0:
            skipped.append(f"n={n}: (1-beta)*n - alpha = 0")
        elif n and scaled != cats[n] * denom:
            return _report("Eq10", grid, Counterexample.at(
                {**point, "n": n}, Fraction(scaled, denom), cats[n]), skipped)
    return _report("Eq10", grid, None, skipped)


def closed_form_reduction_check(beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Verify every link of the alpha = 0 reduction chain separately:
    (i) splitting the k/n weight into 1 - (n-k)/n, (ii) the two Vandermonde
    evaluations, (iii) recombination to the counts."""
    cats = _catalans(beta, gamma, n_max)  # checks n_max
    beta, gamma = Fraction(beta), Fraction(gamma)
    grid = f"beta={rat_str(beta)}, gamma={rat_str(gamma)}, 1<=n<={n_max}"

    def fail(n: int, lhs: object, rhs: object, link: str) -> IdentityReport:
        params = {"beta": rat_str(beta), "gamma": rat_str(gamma), "n": n}
        return _report("ClosedForm", grid, Counterexample.at(params, lhs, rhs, link))

    (b, g), choose = _ring((beta, gamma))
    for n in range(1, n_max + 1):
        sign = -1 if n % 2 else 1
        m_top = (1 - b) * n
        terms = [choose(m_top, n - k) * choose(-g, k) for k in range(n + 1)]
        s0_n = sum(k * term for k, term in enumerate(terms)) * sign  # n * s0
        a1 = sum(terms) * sign
        a2_n = sum((n - k) * term for k, term in enumerate(terms)) * sign  # n * a2
        if s0_n != n * a1 - a2_n:
            return fail(n, Fraction(s0_n, n), a1 - Fraction(a2_n, n), "link (i): split")
        v1 = sign * choose(m_top - g, n)
        v2 = sign * (1 - b) * choose(m_top - 1 - g, n - 1)
        if a1 != v1 or a2_n != n * v2:
            return fail(n, f"{a1},{Fraction(a2_n, n)}", f"{v1},{v2}",
                        "link (ii): Vandermonde evaluations")
        recombined = v1 + sign * (b - 1) * choose(m_top - 1 - g, n - 1)
        if recombined != cats[n]:
            return fail(n, recombined, cats[n], "link (iii): recombination")
    return _report("ClosedForm", grid, None)


# ---------------------------------------------------------------------------
# The vector form
# ---------------------------------------------------------------------------

def _census_terms(p: tuple[int, ...], n_vec: tuple[int, ...], gamma: int) -> tuple:
    """census_terms of the census of (p, n_vec, gamma), its alpha-free part
    with counted forests, which Eq3 reads at every alpha."""
    return _shared(("census terms", p, n_vec, gamma),
                   lambda: tuple(census_terms(VecProfile(n_vec, p), gamma)))


def _falling_blocks(x: int, q: int, parts: Sequence[int]) -> int:
    """q**sum(parts) * prod(parts[j]!) * multinomial(x/q, parts): the falling
    products of the blocks, falling(x_j, q, parts[j]) with x_0 = x and
    x_{j+1} = x_j - parts[j]*q."""
    out = 1
    for k in parts:
        out *= falling(x, q, k)
        x -= k * q
    return out


def _eq3_sides(terms: Sequence[tuple], n_vec: tuple[int, ...], gamma: int,
               a: int, q: int) -> tuple[int, int, int]:
    """(D * lhs, D * rhs, D) of Eq3 at n_vec and alpha = a/q, for the census
    ``terms``; an empty ``terms`` gives lhs = 0.

    With N = sum(n_vec), D = q**N * prod(n_j!).  The census slice of marks
    i holds forests * multinomial(free_slots + alpha, i) structures, which
    is forests * _falling_blocks(free_slots*q + a, q, i) * q**(N - |i|) *
    prod(n_j!/i_j!) over D; the right side (-1)**N * multinomial(alpha -
    gamma, n_vec) is _falling_blocks(a - gamma*q, q, n_vec) over D.  Both
    scaled sides are integers at natural gamma, and the identity holds
    exactly where they are equal."""
    total = sum(n_vec)
    lhs = 0
    for _, marks, forests, free_slots in terms:
        term = forests * _falling_blocks(free_slots * q + a, q, marks) * q ** (total - sum(marks))
        for nj, ij in zip(n_vec, marks):
            term *= perm(nj, nj - ij)
        lhs += -term if sum(marks) % 2 else term
    rhs = _falling_blocks(a - gamma * q, q, n_vec)
    scale = q**total
    for nj in n_vec:
        scale *= factorial(nj)
    return lhs, -rhs if total % 2 else rhs, scale


def verify_eq3(p: Sequence[int], gamma: int, alpha: RatLike, n_max_total: int) -> IdentityReport:
    """Check the vector identity for every n-vector with sum <= n_max_total,
    on the integers of _eq3_sides; a Fraction is built only to report a
    failing point.  The link then compares each census's counted no-mark
    forests with catalan_vector, once per (p, n, gamma) in a run."""
    p = check_outdegrees(p)
    check_nat(gamma, "gamma")
    check_nat(n_max_total, "n_max_total")
    alpha = Fraction(alpha)
    a, q = alpha.numerator, alpha.denominator
    grid = f"p={list(p)}, gamma={gamma}, alpha={rat_str(alpha)}, sum(n)<={n_max_total}"
    for total in range(n_max_total + 1):
        for n_vec in compositions(total, len(p)):
            terms = _census_terms(p, n_vec, gamma)
            lhs, rhs, scale = _eq3_sides(terms, n_vec, gamma, a, q)
            closed = _shared(("vector catalan", p, n_vec, gamma),
                             lambda: catalan_vector(VecProfile(n_vec, p), gamma))
            if lhs != rhs or terms[0][2] != closed:
                params = {"p": str(list(p)), "gamma": gamma,
                          "alpha": rat_str(alpha), "n": str(list(n_vec))}
                sides = ((Fraction(lhs, scale), Fraction(rhs, scale)) if lhs != rhs
                         else (terms[0][2], closed, "vector Catalan closed form vs count"))
                return _report("Eq3", grid, Counterexample.at(params, *sides))
    return _report("Eq3", grid, None)


# ---------------------------------------------------------------------------
# The suite: one declared section per identity, read whole, then evaluated
# ---------------------------------------------------------------------------

DEFAULT_CONFIG: dict = {
    "eq1": {"n_max": 8},
    "eq2": {
        "alpha": {"min": "-3", "max": "5", "step": "1"},
        "beta": {"min": "0", "max": "4", "step": "1"},
        "gamma": {"min": "-2", "max": "4", "step": "1"},
        "n_max": 12,
        "cross": {"betas": [2, 3], "gammas": [1, 2], "alpha_offsets": [0, 1, 2], "n_max": 4},
        "family": {
            "alphas": ["0", "1", "2", "3"],
            "betas": ["1", "2", "3"],
            "gammas": ["1", "2"],
            "order": 15,
        },
    },
    "eq3": {
        "p": [2, 3],
        "gamma": {"min": "0", "max": "2", "step": "1"},
        "alpha": {"min": "-1", "max": "4", "step": "1/2"},
        "n_total_max": 3,
    },
    "eq4": {
        "alpha": {"min": "-3", "max": "5", "step": "1"},
        "beta": {"min": "0", "max": "4", "step": "1"},
        "gamma": {"min": "-2", "max": "4", "step": "1"},
        "n_max": 12,
    },
    "eq7": {
        "beta": {"min": "1", "max": "4", "step": "1"},
        "gamma": {"min": "0", "max": "3", "step": "1"},
        "order": 20,
    },
    "eq8": {
        "beta": {"min": "1", "max": "3", "step": "1"},
        "alpha_pairs": [["1", "1"], ["2", "3"], ["1/2", "3/2"], ["1/2", "1/2"]],
        "order": 15,
    },
    "eq9": {
        "length": 10,
        "sequences": 20,
        "seed": 20250808,
        "pairs": [
            ["2", "0", "1"],
            ["1", "1", "1"],
            ["1", "1/2", "-1"],
            ["0", "1", "2"],
            ["2", "-1", "1/3"],
            ["-1", "1/2", "2"],
        ],
    },
    "eq10": {
        "alpha": {"min": "-2", "max": "3", "step": "1"},
        "beta": {"min": "0", "max": "3", "step": "1"},
        "gamma": {"min": "-1", "max": "3", "step": "1"},
        "n_max": 10,
    },
    "closed_form": {
        "beta": {"min": "-1", "max": "3", "step": "1"},
        "gamma": {"min": "-2", "max": "3", "step": "1"},
        "n_max": 10,
    },
}


def _narrow(value: Rat) -> RatLike:
    """A parameter as the checks take it: an int where it is integral, so that
    the run tables hash and multiply Python integers."""
    return value.numerator if value.denominator == 1 else value


def _integral(value: Rat, message: str) -> int:
    if value.denominator != 1:
        raise ConfigError(message)
    return int(value)


def _object(value: object, name: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a JSON object")
    return value


def _literal(value: object) -> Rat:
    """A config list entry or interval bound as a rational; a zero denominator
    is a ValueError, as it is for a flag."""
    try:
        return as_rat(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {value!r}") from None


def _array(value: object, name: str, size: Optional[int] = None) -> Sequence:
    """A config list as read: a list or tuple, of ``size`` entries where size is
    given, never a string read as its characters."""
    if isinstance(value, (list, tuple)) and size in (None, len(value)):
        return value
    raise ValueError(f"{name} must be an array{'' if size is None else f' of {size} entries'}, got {value!r}")


class _Interval:
    """An inclusive rational interval {"min", "max", "step"} as read: its size
    (max - min) // step + 1 is counted, and its values, an integral one as an
    int, are made as it is iterated."""

    __slots__ = ("text", "lo", "step", "size")

    def __init__(self, name: str, spec: Mapping) -> None:
        try:
            lo, hi, step = (_literal(spec[key]) for key in ("min", "max", "step"))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad interval {spec!r}: {exc}") from None
        if step <= 0:
            raise ConfigError(f"interval step must be positive, got {rat_str(step)}")
        if lo > hi:
            raise ConfigError(f"interval min {rat_str(lo)} exceeds max {rat_str(hi)}")
        self.text = f"{name} in [{spec['min']}..{spec['max']} step {spec['step']}]"
        self.lo, self.step, self.size = lo, step, (hi - lo) // step + 1

    def __iter__(self) -> Iterator[RatLike]:
        return (_narrow(self.lo + i * self.step) for i in range(self.size))

    def __str__(self) -> str:
        return self.text


class _Axis(NamedTuple):
    """A key of a section's config object: a rational ``interval`` or a
    ``list``, the axes whose product is the section's grid, or a natural
    number ``nat``.  A nat below ``least``, or a list that is empty where
    ``least`` is 1, raises ValueError(``error``); a list then passes ``parse``."""

    name: str
    kind: str
    least: int = 0
    error: str = ""
    parse: Optional[Callable[[object], list]] = None

    def read(self, cfg: Mapping) -> object:
        if self.kind == "interval":
            return _Interval(self.name, cfg[self.name])
        if self.kind == "list":
            value = _array(cfg[self.name], self.name)
            short = self.least > 0 and not value
        else:
            value = cfg.get(self.name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ConfigError(f"{self.name} must be a non-negative integer, got {value!r}")
            short = value < self.least
        if short:
            raise ValueError(self.error)
        return value if self.parse is None else self.parse(value)


class _Section(NamedTuple):
    """One identity of the suite.

    Reading its config object sets each axis's value on a namespace ``v``,
    then ``read(v, cfg)`` checks what the axes alone do not.  ``check(run, v,
    *point)`` evaluates one point of the product of the interval and list
    axes, in axis order, and returns its counterexample or None.  It reaches
    its checker through this module's name for it when called, so that a
    checker rebound after import, such as a timing wrapper, is the one that
    runs.  ``grid(v)`` is the report's grid text.  ``routes`` are optional
    blocks of the config object, each a section read and evaluated after it,
    whose grid text is appended to its own."""

    key: str
    identity_id: str
    axes: tuple[_Axis, ...]
    check: Callable[..., Optional[Counterexample]]
    grid: Callable[[SimpleNamespace], str]
    read: Optional[Callable[[SimpleNamespace, Mapping], None]] = None
    routes: tuple["_Section", ...] = ()


def _check_eq2(run: _Run, v: SimpleNamespace, *point: RatLike) -> Optional[Counterexample]:
    failure = _eq2_failure(*point, v.n_max)
    if failure is None:
        run.eq2_passed.add((*point, v.n_max))
    return failure


def _read_cross(v: SimpleNamespace, cfg: Mapping) -> None:
    for beta, gamma, offset in itertools.product(v.betas, v.gammas, v.alpha_offsets):
        check_alpha_gamma(gamma + offset, gamma)
        check_arity(beta)


def _check_cross(run: _Run, v: SimpleNamespace, beta: int, gamma: int,
                 offset: int) -> Optional[Counterexample]:
    """The signed census and the array row sums must both reproduce the direct sum."""
    alpha, n_max = gamma + offset, v.n_max
    sums = row_sums_from(_columns(alpha, beta, n_max), _gf(beta, gamma, max(n_max, 1))).coeffs
    for n, direct in enumerate(_eq2_row_sums(alpha, beta, gamma, n_max)[0]):
        census = signed_sum(beta, n, gamma, alpha)
        params = {"alpha": alpha, "beta": beta, "gamma": gamma, "n": n}
        if census != direct:
            return Counterexample.at(params, census, direct, "involution census vs direct sum")
        if sums[n] != direct:
            return Counterexample.at(params, sums[n], direct, "array row sum vs direct sum")
    return None


def _rationals(texts: Iterable) -> list[tuple[object, RatLike]]:
    """Each text as given and as the parameter it names."""
    return [(text, _narrow(_literal(text))) for text in texts]


def _check_family(run: _Run, v: SimpleNamespace, *items: tuple) -> Optional[Counterexample]:
    """The plain and derivative-form summation checks must both accept the family instance."""
    texts, point = zip(*items)
    plain, modified = _family_pieces(*point, v.order)
    params = {**dict(zip(("alpha", "beta", "gamma"), texts)), "order": v.order}
    if not summation_check(*plain):
        return Counterexample.at(params, "row sums", "target coefficients", "summation-matrix check")
    if not derivative_form_check(*modified):
        return Counterexample.at(params, "derivative form", "target coefficients",
                                 "modified summation-matrix check")
    return None


def _read_eq3(v: SimpleNamespace, cfg: Mapping) -> None:
    for gamma in v.gamma:
        check_nat(_integral(gamma, "eq3 gamma grid must be integral"), "gamma")


def _check_eq7(run: _Run, v: SimpleNamespace, beta: RatLike, gamma: RatLike) -> Optional[Counterexample]:
    """The generating function composed with f = x(1-x)**(beta-1): a(f) =
    sum_k a[k] * f**k, the row sums of the array (1, f), whose columns every
    gamma of a beta reads."""
    order = v.order
    composed = row_sums_from(_columns(0, beta, order), _gf(beta, gamma, order))
    if composed == _binpow(-gamma, order):
        return None
    return Counterexample.at({"beta": rat_str(beta), "gamma": rat_str(gamma), "order": order},
                             "gf composed with x(1-x)^(beta-1)", "(1-x)^(-gamma)")


def _alpha_pairs(pairs: Iterable) -> list[tuple[RatLike, RatLike]]:
    parsed = [tuple(_narrow(_literal(alpha)) for alpha in _array(pair, "eq8 alpha pair", 2))
              for pair in pairs]
    if not parsed:
        raise ValueError("need at least one alpha pair")
    return parsed


def _check_eq8(run: _Run, v: SimpleNamespace, beta: RatLike,
               pair: tuple[RatLike, RatLike]) -> Optional[Counterexample]:
    (alpha1, alpha2), order = pair, v.order
    if series_mul(_gf(beta, alpha1, order), _gf(beta, alpha2, order)) == _gf(beta, alpha1 + alpha2, order):
        return None
    return Counterexample.at({"beta": rat_str(beta), "alpha1": rat_str(alpha1),
                              "alpha2": rat_str(alpha2), "order": order},
                             "gf(alpha1) * gf(alpha2)", "gf(alpha1 + alpha2)")


def random_rational_sequence(rng: random.Random, length: int) -> list[Rat]:
    """Deterministic-from-seed sequence of small rationals."""
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


def _gould_pairs(pairs: Iterable) -> list[tuple[object, GouldPair]]:
    """Each eq9 pair (a, m, z), as given and as its GouldPair."""
    out = []
    for given in pairs:
        a, m, z = map(_literal, _array(given, "eq9 pair", 3))
        message = f"eq9 pair {given}: a must be an integer, got {rat_str(a)}"
        out.append((given, GouldPair(_integral(a, message), m, z)))
    return out


def _pole(pair: GouldPair, length: int) -> Optional[int]:
    """The least 1 <= n < length where the pair's backward transform is undefined."""
    return next((n for n in range(1, length) if -pair.a * n - pair.m == 0), None)


def _read_eq9(v: SimpleNamespace, cfg: Mapping) -> None:
    v.seed = cfg.get("seed")
    if not isinstance(v.seed, int) or isinstance(v.seed, bool):
        raise ConfigError("eq9 needs an integer seed")
    poles = [(given, _pole(pair, v.length)) for given, pair in v.pairs]
    v.skipped.extend(f"pair {given}: {SingularGouldParameters(pole)}"
                     for given, pole in poles if pole is not None)
    if v.length < 1 or v.sequences < 1 or all(pole is not None for _, pole in poles):
        raise ValueError("eq9 needs length >= 1, sequences >= 1 and at least one pair without a pole")


def _check_eq9(run: _Run, v: SimpleNamespace, item: tuple) -> Optional[Counterexample]:
    """None where the pair has a pole (skipped) or its transforms invert each
    other; else the first seeded sequence whose round trip through
    gould_forward and gould_backward shows the failure, or, where none does,
    the identity itself."""
    pair = item[1]
    if _pole(pair, v.length) is not None or _inverse_pair(pair, v.length):
        return None
    params = {"a": pair.a, "m": rat_str(pair.m), "z": rat_str(pair.z)}
    rng = random.Random(v.seed)
    for index in range(v.sequences):
        seq = random_rational_sequence(rng, v.length)
        for outer, inner, detail in ((gould_backward, gould_forward, "backward(forward) != id"),
                                     (gould_forward, gould_backward, "forward(backward) != id")):
            got = outer(inner(seq, pair), pair)
            if got != seq:
                return Counterexample.at({"sequence": index, **params}, [rat_str(x) for x in got],
                                         [rat_str(x) for x in seq], detail)
    return Counterexample.at(params, "B*F", "den*diag(B)",
                             "no seeded sequence shows the failing identity")


def _inverse_pair(pair: GouldPair, length: int) -> bool:
    """Whether the pair's two transforms invert each other on every sequence of
    ``length``, decided by one integer identity: B * F == den * diag(B), with
    den * F the forward rows cleared over their lcm denominator den, and B the
    scaled backward rows (row 0 the identity, row n >= 1 with diagonal -a*n - m,
    nonzero as poles are skipped) cleared to integers.  It says that backward
    after forward is the identity; a one-sided inverse of a square matrix is
    two-sided, so forward after backward is too."""
    forward, den = cleared(_gould_rows(pair.a, pair.m, pair.z, length))
    backward, _ = cleared([[1]][:length] + _gould_rows(pair.a, pair.m, pair.z, length, True)[1:])
    columns = [[row[k] for row in forward[k:]] for k in range(length)]
    return all(_dot(row[k:], columns[k]) == (den * row[k] if k == n else 0)
               for n, row in enumerate(backward) for k in range(n + 1))


def _check_eq10(run: _Run, v: SimpleNamespace, *point: RatLike) -> Optional[Counterexample]:
    report = verify_eq10(*point, v.n_max)
    v.skipped.extend(f"{_point(*point)[1]}, {item}" for item in report.skipped)
    return report.counterexample


def _intervals(*names: str) -> tuple[_Axis, ...]:
    return tuple(_Axis(name, "interval") for name in names)


def _n_max(least: int = 0, error: str = "") -> _Axis:
    return _Axis("n_max", "nat", least, error)


def _block(key: str, *names: str, parse: Optional[Callable] = None) -> tuple[_Axis, ...]:
    """The list axes of Eq2's ``key`` block: a present block must check something."""
    return tuple(_Axis(name, "list", 1, f"eq2 {key} has an empty {name} axis", parse) for name in names)


def _scalar_grid(v: SimpleNamespace) -> str:
    return f"{v.alpha}, {v.beta}, {v.gamma}, n<={v.n_max}"


# The suite's sections in run order.
_SECTIONS = (
    _Section("eq1", "Eq1", (_n_max(),),
             lambda run, v: verify_eq2(1, 2, 1, v.n_max).counterexample,
             lambda v: f"{_point(1, 2, 1)[1]}, n<={v.n_max}"),
    # The direct grid, then the census and array-row route and the summation checks.
    _Section("eq2", "Eq2", (*_intervals("alpha", "beta", "gamma"), _n_max()), _check_eq2,
             _scalar_grid, routes=(
                 _Section("cross", "Eq2", (*_block("cross", "betas", "gammas", "alpha_offsets"),
                                           _n_max()),
                          _check_cross, lambda v: "; plus involution-census and array-row routes",
                          read=_read_cross),
                 _Section("family", "Eq2", (*_block("family", "alphas", "betas", "gammas",
                                                    parse=_rationals),
                                            _Axis("order", "nat", 1, "the family needs order >= 1")),
                          _check_family, lambda v: ""))),
    # p is an axis of one value, the outdegree vector.
    _Section("eq3", "Eq3", (_Axis("p", "list", parse=lambda p: [check_outdegrees(p)]),
                            *_intervals("gamma", "alpha"), _Axis("n_total_max", "nat")),
             lambda run, v, *point: verify_eq3(*point, v.n_total_max).counterexample,
             lambda v: f"p={list(v.p[0])}, {v.gamma}, {v.alpha}, sum(n)<={v.n_total_max}",
             read=_read_eq3),
    # Eq4 takes its verdict from Eq2 at every point Eq2 passed.
    _Section("eq4", "Eq4", (*_intervals("alpha", "beta", "gamma"), _n_max()),
             lambda run, v, *point: None if (*point, v.n_max) in run.eq2_passed
             else verify_eq4(*point, v.n_max).counterexample,
             _scalar_grid),
    _Section("eq7", "Eq7", (*_intervals("beta", "gamma"), _Axis("order", "nat", 1, "need order >= 1")),
             _check_eq7, lambda v: f"{v.beta}, {v.gamma}, order {v.order}"),
    _Section("eq8", "Eq8", (*_intervals("beta"), _Axis("order", "nat"),
                            _Axis("alpha_pairs", "list", parse=_alpha_pairs)),
             _check_eq8,
             lambda v: (f"{v.beta}, alpha pairs {[[rat_str(a), rat_str(b)] for a, b in v.alpha_pairs]}"
                        f", order {v.order}")),
    _Section("eq9", "Eq9_roundtrip", (_Axis("length", "nat"), _Axis("sequences", "nat"),
                                      _Axis("pairs", "list", parse=_gould_pairs)),
             _check_eq9,
             lambda v: (f"{v.sequences} seeded sequences of length {v.length}, "
                        f"pairs {[str(given) for given, _ in v.pairs]}"),
             read=_read_eq9),
    _Section("eq10", "Eq10", (*_intervals("alpha", "beta", "gamma"),
                              _n_max(1, "eq10 rows are 1 <= n <= n_max: need n_max >= 1")),
             _check_eq10, _scalar_grid),
    _Section("closed_form", "ClosedForm",
             (*_intervals("beta", "gamma"),
              _n_max(1, "closed_form rows are 1 <= n <= n_max: need n_max >= 1")),
             lambda run, v, *point: closed_form_reduction_check(*point, v.n_max).counterexample,
             lambda v: f"{v.beta}, {v.gamma}, n<={v.n_max}"),
)

IDENTITY_IDS = tuple(section.identity_id for section in _SECTIONS)


def _corrupted_catalan(n: int, beta: RatLike, gamma: RatLike) -> Rat:
    """Test hook: the counting oracle, deliberately wrong at n = 2."""
    value = catalan_gen(n, beta, gamma)
    return value + 1 if n == 2 else value


def _read(section: _Section, cfg: Mapping) -> SimpleNamespace:
    """The checked values of a section's config object, its routes' and its
    grid text; nothing is evaluated."""
    values = SimpleNamespace(skipped=[], routes=[])
    for axis in section.axes:
        setattr(values, axis.name, axis.read(cfg))
    if section.read is not None:
        section.read(values, cfg)
    for route in section.routes:
        if route.key in cfg:
            block = _object(cfg[route.key], f"config section {section.key} {route.key}")
            if not block:
                raise ValueError(f"{section.key} {route.key} is empty")
            values.routes.append((route, _read(route, block)))
    values.grid = section.grid(values) + "".join(route.grid(rv) for route, rv in values.routes)
    return values


def _first_failure(section: _Section, values: SimpleNamespace, run: _Run) -> Optional[Counterexample]:
    """The first counterexample of the section's grid, then of each route's, or None."""
    grid = [getattr(values, axis.name) for axis in section.axes if axis.kind != "nat"]
    for point in itertools.product(*grid):
        failure = section.check(run, values, *point)
        if failure is not None:
            return failure
    for route, route_values in values.routes:
        failure = _first_failure(route, route_values, run)
        if failure is not None:
            return failure
    return None


def run_suite(config: Optional[Mapping] = None) -> list[IdentityReport]:
    """Run every identity check on its configured grid, in _SECTIONS order.

    ``config``, when given, must follow the DEFAULT_CONFIG layout.  The key
    "corrupt_catalan" (a test hook) swaps in a deliberately broken counting
    oracle so that failure reporting can be exercised end to end.

    Every section is read and checked before any is evaluated, and a mistake
    found there is a ConfigError.  Each section stops at its first
    counterexample.  A ValueError or ZeroDivisionError raised while evaluating,
    other than a ConfigError or an EnumerationBudgetError, is an internal
    error, raised as a RuntimeError.
    """
    cfg = _object(DEFAULT_CONFIG if config is None else config, "config")
    unknown = set(cfg) - {section.key for section in _SECTIONS} - {"corrupt_catalan"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    run = _Run(_corrupted_catalan if cfg.get("corrupt_catalan") else catalan_gen)
    try:
        read = [(section, _read(section, _object(cfg[section.key], f"config section {section.key}")))
                for section in _SECTIONS if section.key in cfg]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc
    reports = []
    token = _ACTIVE_RUN.set(run)
    try:
        for section, values in read:
            try:
                failure = _first_failure(section, values, run)
            except (ValueError, ZeroDivisionError) as exc:
                if isinstance(exc, (ConfigError, EnumerationBudgetError)):
                    raise
                raise RuntimeError(f"{section.identity_id} raised {type(exc).__name__}: {exc}; "
                                   "internal error") from exc
            reports.append(_report(section.identity_id, values.grid, failure, values.skipped))
    finally:
        _ACTIVE_RUN.reset(token)
    return reports


def load_config(text: str) -> dict:
    """Parse a JSON grid config; raises ConfigError on malformed input."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _object(obj, "config")


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    """Stable JSON rendering of a report list."""
    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)
