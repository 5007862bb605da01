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
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .census import census_terms, check_alpha_gamma, check_arity, compositions, signed_sum
from .counting import CatalanFn, VecProfile, catalan_gen, catalan_sequence, check_outdegrees, eq2_rhs
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
                skipped: tuple[str, ...] = ()) -> "IdentityReport":
        if identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {identity_id!r}")
        if status == "fail" and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        if status not in ("pass", "fail"):
            raise ValueError(f"bad status {status!r}")
        return cls._make(identity_id, grid, status, counterexample, skipped)

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
    return IdentityReport(identity_id, grid, status, counterexample, tuple(skipped))


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

    ``catalan`` is the run's counting oracle.  Every section that reads the
    Catalan counts reads this one, their generating functions included;
    only Eq4, whose two sums read the same values, reads catalan_gen.

    ``eq2_passed`` holds the points (alpha, beta, gamma, n_max) where
    verify_eq2 passed with the true catalan_gen.  That pass compared the
    reversed-index sum with the direct sum on the same values for every
    n <= n_max, which is all that verify_eq4 computes, so Eq4 takes its
    verdict there from Eq2.  Any other point is evaluated by Eq4 itself.

    ``tables`` holds the values that many grid points of every section but
    Eq9 need, keyed by a table name and the exact parameters the value
    depends on (an int for an integral one, which hashes like its Fraction):
    the Catalan counts per (catalan, beta, gamma) and the Eq2 closed forms
    per alpha - gamma, each the longest sequence asked for so far, whose
    prefixes serve the shorter requests and which a longer one extends; the
    forward and backward Gould rows per (a, m, z, length); the series of
    Eq2's array routes, Eq7 and Eq8 (generating functions per oracle, read
    off the Catalan counts, x(1-x)**(beta-1) and (1-x)**a); the array
    columns per (alpha, beta, n_max), which Eq7 reads at alpha = 0, and the
    other pieces of the family route, see _family_pieces; and the census
    terms of Eq3 per (p, n_vec, gamma), which every alpha of its grid reads.
    Eq2's cross route keeps no table of its own: each of its censuses is
    the signed_sum call of ``catalania involution``, which checks its
    budget and counts for itself.  An entry is built on its first use by the
    builder this module names at that moment, so a run sees a builder
    replaced before it started, and is immutable (tuples, Fractions, Series,
    RiordanArray).  Nothing outlives the run: a table kept across runs would
    hand a later run values built by an earlier run's builders.
    """

    __slots__ = ("catalan", "eq2_passed", "tables")
    catalan: CatalanFn
    eq2_passed: set[tuple[RatLike, RatLike, RatLike, int]]
    tables: dict[tuple, object]

    def __init__(self, catalan: CatalanFn) -> None:
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


def _catalans(beta: RatLike, gamma: RatLike, n_max: int, catalan: CatalanFn) -> tuple:
    """catalan(k, beta, gamma) for k <= n_max, each piece built in the ring of ``_ring``."""
    return _shared_prefix(("catalan", catalan, beta, gamma), n_max, lambda start, stop: tuple(
        _ring(catalan_sequence(beta, gamma, stop, catalan, start))[0]))


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


def _gf(beta: RatLike, gamma: RatLike, order: int, catalan: CatalanFn) -> Series:
    """riordan.catalan_gf(beta, gamma, order, catalan), its coefficients read
    from the run's table of counts."""
    return _shared(("gf", catalan, beta, gamma, order),
                   lambda: Series(_catalans(beta, gamma, order, catalan)))


def _columns(alpha: RatLike, beta: RatLike, n_max: int) -> tuple[Series, ...]:
    """riordan_columns of the family (alpha, beta) up to n_max, which reads
    the family's series up to n_max only."""
    return _shared(("columns", alpha, beta, n_max),
                   lambda: riordan_columns(_family(alpha, beta, max(n_max, 1)), n_max))


def _binpow(a: RatLike, order: int) -> Series:
    return _shared(("binpow", a, order), lambda: series_binpow(a, order))


def _family_pieces(alpha: RatLike, beta: RatLike, gamma: RatLike, order: int,
                   catalan: CatalanFn) -> tuple[tuple, tuple]:
    """The arguments of summation_check and derivative_form_check at one point of
    Eq2's family route, each piece from the table of the parameters it depends on:
    the columns per (alpha, beta), a(f) per (catalan, beta, gamma), the powers
    (x/f)**n per beta and l/g per (alpha, gamma)."""
    r, a = _family(alpha, beta, order), _gf(beta, gamma, order, catalan)
    l = _binpow(alpha - gamma, order)
    columns = _columns(alpha, beta, order)
    composed = _shared(("a(f)", catalan, beta, gamma, order), lambda: series_compose(a, r.f))
    powers = _shared(("powers", beta, order), lambda: inverse_powers(r.f, order))
    quotient = _shared(("l/g", alpha, gamma, order), lambda: series_div_unit(l, r.g))
    return (columns, composed, a, l), (powers, quotient, a)


# ---------------------------------------------------------------------------
# The alternating sum and its inverse expansion: the pair (beta - 1, alpha, -1)
# ---------------------------------------------------------------------------

def _eq2_row_sums(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int,
                  catalan: CatalanFn) -> tuple[list[RatLike], list[RatLike]]:
    """Forward rows 0..n_max against the counting sequence: the sum of each
    row, and the same sum taken in reversed index order."""
    cats = _catalans(beta, gamma, n_max, catalan)
    rows = _rows(beta - 1, alpha, -1, n_max + 1)
    return ([_dot(row, cats) for row in rows],
            [_dot(row[::-1], cats[n::-1]) for n, row in enumerate(rows)])


def eq2_lhs(alpha: RatLike, beta: RatLike, gamma: RatLike, n: int,
            catalan: CatalanFn = catalan_gen) -> Rat:
    """sum_i (-1)**(n-i) * binom((beta-1)i + alpha, n-i) * C(i)."""
    return Fraction(_eq2_row_sums(alpha, beta, gamma, n, catalan)[0][n])


def verify_eq2(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int,
               catalan: CatalanFn = catalan_gen) -> IdentityReport:
    """Check the alternating sum against its closed form for 0 <= n <= n_max,
    plus the reversed-index evaluation as an internal consistency check."""
    text = _point(alpha, beta, gamma)[1]
    return _report("Eq2", f"{text}, n<={n_max}", _eq2_failure(alpha, beta, gamma, n_max, catalan))


def _eq2_failure(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int,
                 catalan: CatalanFn) -> Optional[Counterexample]:
    """The counterexample of verify_eq2, or None where it passes; a passing
    point builds no text."""
    closed = _closed_forms(alpha, gamma, n_max)
    direct, reindexed = _eq2_row_sums(alpha, beta, gamma, n_max, catalan)
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
    sums = _eq2_row_sums(alpha, beta, gamma, n_max, catalan_gen)
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


def verify_eq10(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int,
                catalan: CatalanFn = catalan_gen) -> IdentityReport:
    """Check the expansion against ``catalan`` for 1 <= n <= n_max, skipping
    (and listing) rows where its denominator vanishes.  Rows are compared
    times their denominators, so integral points compare integers."""
    point, text = _point(alpha, beta, gamma)
    grid = f"{text}, 1<=n<={n_max}"
    cats = _catalans(beta, gamma, n_max, catalan)  # checks n_max
    skipped: list[str] = []
    for n, (scaled, denom) in enumerate(_eq10_row_sums(alpha, beta, gamma, n_max)):
        if n and denom == 0:
            skipped.append(f"n={n}: (1-beta)*n - alpha = 0")
        elif n and scaled != cats[n] * denom:
            return _report("Eq10", grid, Counterexample.at(
                {**point, "n": n}, Fraction(scaled, denom), cats[n]), skipped)
    return _report("Eq10", grid, None, skipped)


def closed_form_reduction_check(beta: RatLike, gamma: RatLike, n_max: int,
                                catalan: CatalanFn = catalan_gen) -> IdentityReport:
    """Verify every link of the alpha = 0 reduction chain separately:
    (i) splitting the k/n weight into 1 - (n-k)/n, (ii) the two Vandermonde
    evaluations, (iii) recombination to ``catalan``."""
    check_nat(n_max, "n_max")
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
        closed = catalan(n, beta, gamma)
        if recombined != closed:
            return fail(n, recombined, closed, "link (iii): recombination")
    return _report("ClosedForm", grid, None)


# ---------------------------------------------------------------------------
# The vector form
# ---------------------------------------------------------------------------

def _census_terms(p: tuple[int, ...], n_vec: tuple[int, ...], gamma: int) -> tuple:
    """census_terms of the census of (p, n_vec, gamma), its alpha-free part,
    which Eq3 reads at every alpha."""
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

    With N = sum(n_vec), D = q**N * prod(n_j!) times the lcm of the
    denominators of the terms' forest counts (1 for true counts).  The
    census slice of marks i holds forests * multinomial(free_slots + alpha,
    i) structures, which is forests * _falling_blocks(free_slots*q + a, q, i)
    * q**(N - |i|) * prod(n_j!/i_j!) over D; the right side (-1)**N *
    multinomial(alpha - gamma, n_vec) is _falling_blocks(a - gamma*q, q,
    n_vec) over D.  Both scaled sides are integers at natural gamma, and the
    identity holds exactly where they are equal."""
    total = sum(n_vec)
    clear = lcm(*(forests.denominator for _, _, forests, _ in terms))
    lhs = 0
    for _, marks, forests, free_slots in terms:
        term = (forests.numerator * (clear // forests.denominator)
                * _falling_blocks(free_slots * q + a, q, marks) * q ** (total - sum(marks)))
        for nj, ij in zip(n_vec, marks):
            term *= perm(nj, nj - ij)
        lhs += -term if sum(marks) % 2 else term
    rhs = clear * _falling_blocks(a - gamma * q, q, n_vec)
    scale = clear * q**total
    for nj in n_vec:
        scale *= factorial(nj)
    return lhs, -rhs if total % 2 else rhs, scale


def verify_eq3(p: Sequence[int], gamma: int, alpha: RatLike, n_max_total: int) -> IdentityReport:
    """Check the vector identity for every n-vector with sum <= n_max_total,
    on the integers of _eq3_sides; a Fraction is built only to report a
    failing point."""
    p = check_outdegrees(p)
    check_nat(gamma, "gamma")
    check_nat(n_max_total, "n_max_total")
    alpha = Fraction(alpha)
    a, q = alpha.numerator, alpha.denominator
    grid = f"p={list(p)}, gamma={gamma}, alpha={rat_str(alpha)}, sum(n)<={n_max_total}"
    for total in range(n_max_total + 1):
        for n_vec in compositions(total, len(p)):
            lhs, rhs, scale = _eq3_sides(_census_terms(p, n_vec, gamma), n_vec, gamma, a, q)
            if lhs != rhs:
                params = {"p": str(list(p)), "gamma": gamma,
                          "alpha": rat_str(alpha), "n": str(list(n_vec))}
                return _report("Eq3", grid, Counterexample.at(
                    params, Fraction(lhs, scale), Fraction(rhs, scale)))
    return _report("Eq3", grid, None)


# ---------------------------------------------------------------------------
# Grid configuration and the suite
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


def expand_interval(spec: Mapping) -> list[Rat]:
    """Inclusive rational interval {"min","max","step"} -> list of values."""
    try:
        lo, hi, step = (as_rat(spec[key]) for key in ("min", "max", "step"))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad interval {spec!r}: {exc}") from None
    if step <= 0:
        raise ConfigError(f"interval step must be positive, got {rat_str(step)}")
    if lo > hi:
        raise ConfigError(f"interval min {rat_str(lo)} exceeds max {rat_str(hi)}")
    return [lo + i * step for i in range((hi - lo) // step + 1)]


def _narrow(value: Rat) -> RatLike:
    """A parameter as the checks take it: an int where it is integral, so that
    the run tables hash and multiply Python integers."""
    return value.numerator if value.denominator == 1 else value


def _grid(cfg: Mapping, *names: str) -> tuple[list[list[RatLike]], str]:
    """The values of each named interval, an integral one as an int, and the
    report text "name in [min..max step s], ..." of their product."""
    axes = [list(map(_narrow, expand_interval(cfg[name]))) for name in names]
    text = ", ".join(f"{name} in [{cfg[name]['min']}..{cfg[name]['max']} step {cfg[name]['step']}]"
                     for name in names)
    return axes, text


def _grid_nat(cfg: Mapping, key: str) -> int:
    value = cfg.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _section(value: object, name: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a JSON object")
    return value


# A runner reads and checks its whole section, evaluating nothing, and returns the grid
# text, the lazy per-point outcomes (None: pass) and the skipped items the stream may add to.
_Plan = tuple[str, Iterable[Optional[Counterexample]], Sequence[str]]


def _suite_eq1(cfg: Mapping, run: _Run) -> _Plan:
    n_max = _grid_nat(cfg, "n_max")
    return f"{_point(1, 2, 1)[1]}, n<={n_max}", (
        verify_eq2(1, 2, 1, n, run.catalan).counterexample for n in [n_max]), ()


def _eq2_block(cfg: Mapping, key: str, *axes: str) -> tuple[Mapping, list]:
    """Eq2's ``cross`` or ``family`` block, a non-empty object, and the values of
    its ``axes``, none empty: a block that is present must check something."""
    block = _section(cfg[key], f"config section eq2 {key}")
    if not block:
        raise ValueError(f"eq2 {key} is empty")
    values = [block[axis] for axis in axes]
    for axis, value in zip(axes, values):
        if not value:
            raise ValueError(f"eq2 {key} has an empty {axis} axis")
    return block, values


def _suite_eq2(cfg: Mapping, run: _Run) -> _Plan:
    """Direct grid sweep plus the enumerative and matrix routes: the signed
    census and the array row sums must both reproduce the direct sum, and
    the plain and derivative-form summation checks must both accept the
    family instance."""
    axes, text = _grid(cfg, "alpha", "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    cross_points, cross_order = [], 0
    if "cross" in cfg:
        cross, cross_axes = _eq2_block(cfg, "cross", "betas", "gammas", "alpha_offsets")
        cross_order = _grid_nat(cross, "n_max")
        cross_points = [(check_alpha_gamma(gamma + offset, gamma), check_arity(beta), gamma)
                        for beta, gamma, offset in itertools.product(*cross_axes)]
    family_points, family_order = [], 0
    if "family" in cfg:
        family, family_axes = _eq2_block(cfg, "family", "alphas", "betas", "gammas")
        family_order = _grid_nat(family, "order")
        if family_order < 1:
            raise ValueError("the family needs order >= 1")
        family_points = [(texts, tuple(_narrow(as_rat(text)) for text in texts))
                         for texts in itertools.product(*family_axes)]

    def outcomes() -> Iterator[Optional[Counterexample]]:
        for point in itertools.product(*axes):
            failure = _eq2_failure(*point, n_max, run.catalan)
            if failure is None and run.catalan is catalan_gen:
                run.eq2_passed.add((*point, n_max))
            yield failure
        for alpha, beta, gamma in cross_points:
            sums = row_sums_from(_columns(alpha, beta, cross_order),
                                 _gf(beta, gamma, max(cross_order, 1), run.catalan)).coeffs
            for n, direct in enumerate(_eq2_row_sums(alpha, beta, gamma, cross_order, run.catalan)[0]):
                census = signed_sum(beta, n, gamma, alpha)
                params = {"alpha": alpha, "beta": beta, "gamma": gamma, "n": n}
                if census != direct:
                    yield Counterexample.at(params, census, direct,
                                            "involution census vs direct sum")
                elif sums[n] != direct:
                    yield Counterexample.at(params, sums[n], direct, "array row sum vs direct sum")
        for (alpha_s, beta_s, gamma_s), (alpha, beta, gamma) in family_points:
            plain, modified = _family_pieces(alpha, beta, gamma, family_order, run.catalan)
            params = {"alpha": alpha_s, "beta": beta_s, "gamma": gamma_s, "order": family_order}
            if not summation_check(*plain):
                yield Counterexample.at(params, "row sums", "target coefficients",
                                        "summation-matrix check")
            elif not derivative_form_check(*modified):
                yield Counterexample.at(params, "derivative form", "target coefficients",
                                        "modified summation-matrix check")

    routes = "; plus involution-census and array-row routes" if cross_points else ""
    return f"{text}, n<={n_max}{routes}", outcomes(), ()


def _suite_eq3(cfg: Mapping, run: _Run) -> _Plan:
    p = check_outdegrees(cfg["p"])
    (gammas, alphas), text = _grid(cfg, "gamma", "alpha")
    gammas = [check_nat(_integral(g, "eq3 gamma grid must be integral"), "gamma") for g in gammas]
    n_total_max = _grid_nat(cfg, "n_total_max")
    return f"p={list(p)}, {text}, sum(n)<={n_total_max}", (
        verify_eq3(p, gamma, alpha, n_total_max).counterexample
        for gamma, alpha in itertools.product(gammas, alphas)), ()


def _integral(value: Rat, message: str) -> int:
    if value.denominator != 1:
        raise ConfigError(message)
    return int(value)


def _suite_eq4(cfg: Mapping, run: _Run) -> _Plan:
    axes, text = _grid(cfg, "alpha", "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    return f"{text}, n<={n_max}", (
        verify_eq4(*point, n_max).counterexample
        for point in itertools.product(*axes) if (*point, n_max) not in run.eq2_passed), ()


def _suite_eq7(cfg: Mapping, run: _Run) -> _Plan:
    """The generating function composed with f = x(1-x)**(beta-1): a(f) =
    sum_k a[k] * f**k, the row sums of the array (1, f), whose columns every
    gamma of a beta reads."""
    axes, text = _grid(cfg, "beta", "gamma")
    order = _grid_nat(cfg, "order")
    if order < 1:
        raise ValueError("need order >= 1")
    return f"{text}, order {order}", (
        None if row_sums_from(_columns(0, beta, order), _gf(beta, gamma, order, run.catalan))
        == _binpow(-gamma, order) else Counterexample.at(
            {"beta": rat_str(beta), "gamma": rat_str(gamma), "order": order},
            "gf composed with x(1-x)^(beta-1)", "(1-x)^(-gamma)")
        for beta, gamma in itertools.product(*axes)), ()


def _suite_eq8(cfg: Mapping, run: _Run) -> _Plan:
    (betas,), text = _grid(cfg, "beta")
    order = _grid_nat(cfg, "order")
    pairs = [(_narrow(as_rat(a1)), _narrow(as_rat(a2))) for a1, a2 in cfg["alpha_pairs"]]
    if not pairs:
        raise ValueError("need at least one alpha pair")
    grid = f"{text}, alpha pairs {[[rat_str(a), rat_str(b)] for a, b in pairs]}, order {order}"
    return grid, (
        None if series_mul(_gf(beta, alpha1, order, run.catalan),
                           _gf(beta, alpha2, order, run.catalan))
        == _gf(beta, alpha1 + alpha2, order, run.catalan) else Counterexample.at(
            {"beta": rat_str(beta), "alpha1": rat_str(alpha1), "alpha2": rat_str(alpha2),
             "order": order},
            "gf(alpha1) * gf(alpha2)", "gf(alpha1 + alpha2)")
        for beta, (alpha1, alpha2) in itertools.product(betas, pairs)), ()


def random_rational_sequence(rng: random.Random, length: int) -> list[Rat]:
    """Deterministic-from-seed sequence of small rationals."""
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


def _suite_eq9(cfg: Mapping, run: _Run) -> _Plan:
    length = _grid_nat(cfg, "length")
    count = _grid_nat(cfg, "sequences")
    seed = cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("eq9 needs an integer seed")
    pairs, skipped = [], []
    for pair in cfg["pairs"]:
        a, m, z = (as_rat(v) for v in pair)
        message = f"eq9 pair {pair}: a must be an integer, got {rat_str(a)}"
        gould = GouldPair(_integral(a, message), m, z)
        pole = next((n for n in range(1, length) if -gould.a * n - gould.m == 0), None)
        if pole is None:
            pairs.append(gould)
        else:
            skipped.append(f"pair {pair}: {SingularGouldParameters(pole)}")
    if length < 1 or count < 1 or not pairs:
        raise ValueError("eq9 needs length >= 1, sequences >= 1 and at least one pair without a pole")
    grid = f"{count} seeded sequences of length {length}, pairs {[str(p) for p in cfg['pairs']]}"
    rng = random.Random(seed)

    def outcomes() -> Iterator[Optional[Counterexample]]:
        failing = [pair for pair in pairs if not _inverse_pair(pair, length)]
        for index in range(count if failing else 0):
            seq = random_rational_sequence(rng, length)
            yield from (_gould_roundtrip(index, seq, pair) for pair in failing)
        # No seeded sequence shows the failure: the identity itself is the counterexample.
        yield from (Counterexample.at(_gould_params(pair), "B*F", "den*diag(B)",
                                      "no seeded sequence shows the failing identity")
                    for pair in failing)

    return grid, outcomes(), skipped


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


def _gould_params(pair: GouldPair) -> dict:
    return {"a": pair.a, "m": rat_str(pair.m), "z": rat_str(pair.z)}


def _gould_roundtrip(index: int, seq: list[Rat], pair: GouldPair) -> Optional[Counterexample]:
    """Both round trips of seq through gould_forward and gould_backward."""
    for outer, inner, detail in ((gould_backward, gould_forward, "backward(forward) != id"),
                                 (gould_forward, gould_backward, "forward(backward) != id")):
        got = outer(inner(seq, pair), pair)
        if got != seq:
            return Counterexample.at({"sequence": index, **_gould_params(pair)},
                                     [rat_str(v) for v in got], [rat_str(v) for v in seq], detail)
    return None


def _suite_eq10(cfg: Mapping, run: _Run) -> _Plan:
    axes, text = _grid(cfg, "alpha", "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    if n_max < 1:
        raise ValueError("eq10 rows are 1 <= n <= n_max: need n_max >= 1")
    skipped: list[str] = []

    def check(point: tuple[Rat, ...]) -> Optional[Counterexample]:
        rep = verify_eq10(*point, n_max, run.catalan)
        skipped.extend(f"{_point(*point)[1]}, {item}" for item in rep.skipped)
        return rep.counterexample

    return f"{text}, n<={n_max}", map(check, itertools.product(*axes)), skipped


def _suite_closed_form(cfg: Mapping, run: _Run) -> _Plan:
    axes, text = _grid(cfg, "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    if n_max < 1:
        raise ValueError("closed_form rows are 1 <= n <= n_max: need n_max >= 1")
    return f"{text}, n<={n_max}", (
        closed_form_reduction_check(beta, gamma, n_max, run.catalan).counterexample
        for beta, gamma in itertools.product(*axes)), ()


# The suite's sections in run order: (config key, report id, runner).
_SECTIONS: tuple[tuple[str, str, Callable[[Mapping, _Run], _Plan]], ...] = (
    ("eq1", "Eq1", _suite_eq1),
    ("eq2", "Eq2", _suite_eq2),
    ("eq3", "Eq3", _suite_eq3),
    ("eq4", "Eq4", _suite_eq4),
    ("eq7", "Eq7", _suite_eq7),
    ("eq8", "Eq8", _suite_eq8),
    ("eq9", "Eq9_roundtrip", _suite_eq9),
    ("eq10", "Eq10", _suite_eq10),
    ("closed_form", "ClosedForm", _suite_closed_form),
)

IDENTITY_IDS = tuple(identity_id for _, identity_id, _ in _SECTIONS)


def _corrupted_catalan(n: int, beta: RatLike, gamma: RatLike) -> Rat:
    """Test hook: the counting oracle, deliberately wrong at n = 2."""
    value = catalan_gen(n, beta, gamma)
    return value + 1 if n == 2 else value


def run_suite(config: Optional[Mapping] = None) -> list[IdentityReport]:
    """Run every identity check on its configured grid, in _SECTIONS order.

    ``config``, when given, must follow the DEFAULT_CONFIG layout.  The key
    "corrupt_catalan" (a test hook) swaps in a deliberately broken counting
    oracle so that failure reporting can be exercised end to end.

    Every section is read and checked, which alone raises ConfigError, before
    any is evaluated.  Each stream stops at its first counterexample.
    """
    cfg = _section(DEFAULT_CONFIG if config is None else config, "config")
    unknown = set(cfg) - {key for key, _, _ in _SECTIONS} - {"corrupt_catalan"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    run = _Run(_corrupted_catalan if cfg.get("corrupt_catalan") else catalan_gen)
    try:
        plans = [(identity_id, runner(_section(cfg[key], f"config section {key}"), run))
                 for key, identity_id, runner in _SECTIONS if key in cfg]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc
    token = _ACTIVE_RUN.set(run)
    try:
        return [_report(identity_id, grid, next((c for c in outcomes if c is not None), None), skipped)
                for identity_id, (grid, outcomes, skipped) in plans]
    finally:
        _ACTIVE_RUN.reset(token)


def load_config(text: str) -> dict:
    """Parse a JSON grid config; raises ConfigError on malformed input."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _section(obj, "config")


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    """Stable JSON rendering of a report list."""
    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)
