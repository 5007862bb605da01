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
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .counting import CatalanFn, VecProfile, catalan_gen, catalan_sequence, check_outdegrees, eq2_rhs
from .exact import ConfigError, Rat, RatLike, as_rat, binom, check_nat, multinomial, rat_str
from .forest import check_arity, compositions
from .involution import census_sizes, check_alpha_gamma, signed_sum
from .riordan import (
    catalan_family,
    catalan_gf,
    catalan_gf_functional_check,
    convolution_check,
    modified_riordan_check,
    riordan_theorem_check,
    row_sums,
    series_binpow,
)


@dataclass(frozen=True)
class Counterexample:
    params: tuple[tuple[str, str], ...]
    lhs: str
    rhs: str
    detail: str = ""

    @staticmethod
    def at(params: Mapping[str, object], lhs: object, rhs: object, detail: str = "") -> "Counterexample":
        shown = tuple((k, str(v)) for k, v in params.items())
        return Counterexample(shown, str(lhs), str(rhs), detail)

    def to_json(self) -> dict:
        out = {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    grid: str
    status: str  # "pass" | "fail"
    counterexample: Optional[Counterexample] = None
    skipped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {self.identity_id!r}")
        if self.status == "fail" and self.counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        if self.status not in ("pass", "fail"):
            raise ValueError(f"bad status {self.status!r}")

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
# The alternating-sum identity (scalar form)
# ---------------------------------------------------------------------------

def _direct_sum(alpha: Rat, beta: Rat, cats: Sequence[Rat], n: int) -> Rat:
    total = Fraction(0)
    for i in range(n + 1):
        term = binom((beta - 1) * i + alpha, n - i) * cats[i]
        total = total - term if (n - i) % 2 else total + term
    return total


def _reindexed_sum(alpha: Rat, beta: Rat, cats: Sequence[Rat], n: int) -> Rat:
    total = Fraction(0)
    for i in range(n + 1):
        term = binom((beta - 1) * (n - i) + alpha, i) * cats[n - i]
        total = total - term if i % 2 else total + term
    return total


def eq2_lhs(alpha: RatLike, beta: RatLike, gamma: RatLike, n: int,
            catalan: CatalanFn = catalan_gen) -> Rat:
    """sum_i (-1)**(n-i) * binom((beta-1)i + alpha, n-i) * C(i)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    return _direct_sum(alpha, beta, catalan_sequence(beta, gamma, n, catalan), n)


def eq2_lhs_reindexed(alpha: RatLike, beta: RatLike, gamma: RatLike, n: int,
                      catalan: CatalanFn = catalan_gen) -> Rat:
    """Same sum with the summation index reversed (i -> n - i); the counting
    function is queried in that reversed order too."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    cats = [catalan(j, beta, gamma) for j in range(n, -1, -1)][::-1]
    return _reindexed_sum(alpha, beta, cats, n)


def verify_eq2(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int,
               catalan: CatalanFn = catalan_gen) -> IdentityReport:
    """Check the alternating sum against its closed form for 0 <= n <= n_max,
    plus the reversed-index evaluation as an internal consistency check."""
    point, text = _point(alpha, beta, gamma)
    grid = f"{text}, n<={n_max}"
    a, b = Fraction(alpha), Fraction(beta)
    cats = catalan_sequence(b, gamma, n_max, catalan)
    for n in range(n_max + 1):
        lhs = _direct_sum(a, b, cats, n)
        rhs = eq2_rhs(alpha, gamma, n)
        if lhs != rhs:
            return _report("Eq2", grid, Counterexample.at(
                {**point, "n": n}, lhs, rhs, "direct sum"))
        reindexed = _reindexed_sum(a, b, cats, n)
        if reindexed != lhs:
            return _report("Eq2", grid, Counterexample.at(
                {**point, "n": n}, reindexed, lhs, "reindexed sum differs"))
    return _report("Eq2", grid, None)


def verify_eq4(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Summation-order guard: the reversed-index rewriting of the sum must
    produce identical values term for term (the identity itself is Eq2's)."""
    point, text = _point(alpha, beta, gamma)
    grid = f"{text}, n<={n_max}"
    a, b = Fraction(alpha), Fraction(beta)
    cats = catalan_sequence(b, gamma, n_max)
    for n in range(n_max + 1):
        reindexed = _reindexed_sum(a, b, cats, n)
        direct = _direct_sum(a, b, cats, n)
        if reindexed != direct:
            return _report("Eq4", grid, Counterexample.at(
                {**point, "n": n}, reindexed, direct, "reversed-index sum differs"))
    return _report("Eq4", grid, None)


# ---------------------------------------------------------------------------
# The vector form
# ---------------------------------------------------------------------------

def eq3_lhs(p: Sequence[int], n_vec: Sequence[int], gamma: int, alpha: RatLike) -> Rat:
    """Alternating sum over 0 <= i <= n of the colored-forest counts: the
    census slice sizes, signed by (-1)**sum(i)."""
    sizes = census_sizes(VecProfile(tuple(n_vec), p), gamma, Fraction(alpha))
    return sum(-size if sum(marks) % 2 else size for _, marks, size in sizes)


def eq3_rhs(n_vec: Sequence[int], gamma: int, alpha: RatLike) -> Rat:
    n_vec = tuple(n_vec)
    sign = -1 if sum(n_vec) % 2 else 1
    return sign * multinomial(Fraction(alpha) - gamma, n_vec)


def verify_eq3(p: Sequence[int], gamma: int, alpha: RatLike, n_max_total: int) -> IdentityReport:
    """Check the vector identity for every n-vector with sum <= n_max_total."""
    p = check_outdegrees(p)
    check_nat(gamma, "gamma")
    check_nat(n_max_total, "n_max_total")
    grid = f"p={list(p)}, gamma={gamma}, alpha={rat_str(alpha)}, sum(n)<={n_max_total}"
    for total in range(n_max_total + 1):
        for n_vec in compositions(total, len(p)):
            lhs = eq3_lhs(p, n_vec, gamma, alpha)
            rhs = eq3_rhs(n_vec, gamma, alpha)
            if lhs != rhs:
                params = {"p": str(list(p)), "gamma": gamma,
                          "alpha": rat_str(alpha), "n": str(list(n_vec))}
                return _report("Eq3", grid, Counterexample.at(params, lhs, rhs))
    return _report("Eq3", grid, None)


# ---------------------------------------------------------------------------
# Gould inverse relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GouldPair:
    """Parameters (a, m, z) of the mutually inverse sequence transforms."""

    a: int
    m: Rat
    z: Rat

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or isinstance(self.a, bool):
            raise ValueError(f"a must be an integer, got {self.a!r}")
        object.__setattr__(self, "m", Fraction(self.m))
        object.__setattr__(self, "z", Fraction(self.z))


class SingularGouldParameters(ValueError):
    """The backward transform's denominator -a*n - m vanished at some n."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"backward transform undefined: -a*n - m = 0 at n = {n}")


def gould_forward(seq_a: Sequence[RatLike], pair: GouldPair) -> list[Rat]:
    """b_n = sum_k binom(m + a*k, n - k) * z**(n-k) * a_k."""
    seq = [Fraction(v) for v in seq_a]
    out: list[Rat] = []
    for n in range(len(seq)):
        total = Fraction(0)
        for k in range(n + 1):
            total += binom(pair.m + pair.a * k, n - k) * pair.z ** (n - k) * seq[k]
        out.append(total)
    return out


def gould_backward(seq_b: Sequence[RatLike], pair: GouldPair) -> list[Rat]:
    """a_n = sum_k ((-a*k - m)/(-a*n - m)) * binom(-a*n - m, n - k) * z**(n-k) * b_k.

    The k = n term is the diagonal 1; for n >= 1 the remaining terms need
    -a*n - m != 0, else SingularGouldParameters is raised.
    """
    seq = [Fraction(v) for v in seq_b]
    out: list[Rat] = []
    for n in range(len(seq)):
        total = seq[n]
        if n >= 1:
            denom = -pair.a * n - pair.m
            if denom == 0:
                raise SingularGouldParameters(n)
            for k in range(n):
                numer = -pair.a * k - pair.m
                total += (numer / denom) * binom(denom, n - k) * pair.z ** (n - k) * seq[k]
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# The inverse-relation expansion of the counting formula
# ---------------------------------------------------------------------------

def eq10_lhs(alpha: RatLike, beta: RatLike, gamma: RatLike, n: int) -> Rat:
    """The inverse-relation sum; undefined where (1-beta)*n - alpha = 0."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    denom = (1 - beta) * n - alpha
    if denom == 0:
        raise ZeroDivisionError("(1-beta)*n - alpha = 0")
    sign = -1 if n % 2 else 1
    total = Fraction(0)
    for k in range(n + 1):
        coeff = ((1 - beta) * k - alpha) / denom
        total += sign * coeff * binom(denom, n - k) * binom(alpha - gamma, k)
    return total


def verify_eq10(alpha: RatLike, beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Check the expansion against catalan_gen for 1 <= n <= n_max, skipping
    (and listing) rows where its denominator vanishes."""
    check_nat(n_max, "n_max")
    point, text = _point(alpha, beta, gamma)
    grid = f"{text}, 1<=n<={n_max}"
    skipped: list[str] = []
    for n in range(1, n_max + 1):
        if (1 - Fraction(beta)) * n - Fraction(alpha) == 0:
            skipped.append(f"n={n}: (1-beta)*n - alpha = 0")
            continue
        lhs = eq10_lhs(alpha, beta, gamma, n)
        rhs = catalan_gen(n, beta, gamma)
        if lhs != rhs:
            return _report("Eq10", grid, Counterexample.at({**point, "n": n}, lhs, rhs), skipped)
    return _report("Eq10", grid, None, skipped)


def closed_form_reduction_check(beta: RatLike, gamma: RatLike, n_max: int) -> IdentityReport:
    """Verify every link of the alpha = 0 reduction chain separately:
    (i) splitting the k/n weight into 1 - (n-k)/n, (ii) the two Vandermonde
    evaluations, (iii) recombination to catalan_gen."""
    check_nat(n_max, "n_max")
    beta, gamma = Fraction(beta), Fraction(gamma)
    grid = f"beta={rat_str(beta)}, gamma={rat_str(gamma)}, 1<=n<={n_max}"
    for n in range(1, n_max + 1):
        sign = -1 if n % 2 else 1
        m_top = (1 - beta) * n
        terms = [binom(m_top, n - k) * binom(-gamma, k) for k in range(n + 1)]
        s0 = sum(Fraction(k, n) * term for k, term in enumerate(terms)) * sign
        a1 = sum(terms) * sign
        a2 = sum(Fraction(n - k, n) * term for k, term in enumerate(terms)) * sign
        params = {"beta": rat_str(beta), "gamma": rat_str(gamma), "n": n}
        if s0 != a1 - a2:
            return _report("ClosedForm", grid,
                           Counterexample.at(params, s0, a1 - a2, "link (i): split"))
        v1 = sign * binom(m_top - gamma, n)
        v2 = sign * (1 - beta) * binom(m_top - 1 - gamma, n - 1)
        if a1 != v1 or a2 != v2:
            return _report("ClosedForm", grid,
                           Counterexample.at(params, f"{a1},{a2}", f"{v1},{v2}",
                                             "link (ii): Vandermonde evaluations"))
        recombined = v1 + sign * (beta - 1) * binom(m_top - 1 - gamma, n - 1)
        closed = catalan_gen(n, beta, gamma)
        if recombined != closed:
            return _report("ClosedForm", grid,
                           Counterexample.at(params, recombined, closed,
                                             "link (iii): recombination"))
    return _report("ClosedForm", grid, None)


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


def _grid(cfg: Mapping, *names: str) -> tuple[list[list[Rat]], str]:
    """The values of each named interval, and the report text
    "name in [min..max step s], ..." of their product."""
    axes = [expand_interval(cfg[name]) for name in names]
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


@dataclass
class _Run:
    """What the sections of one run_suite call share.

    ``eq2_passed`` holds the points (alpha, beta, gamma, n_max) where
    verify_eq2 passed with the true catalan_gen.  Such a pass includes, for
    every n <= n_max, the comparison of the reversed-index sum with the
    direct sum, which is all that verify_eq4 computes at that point, on the
    same values; so Eq4 takes its verdict there from Eq2 instead of
    recomputing it.  A point where Eq2 failed, was not reached, or ran with
    another counting function is evaluated by Eq4 itself.
    """

    catalan: CatalanFn
    eq2_passed: set[tuple[Rat, Rat, Rat, int]] = field(default_factory=set)


# A runner reads and checks its whole section, evaluating nothing, and returns the grid
# text, the lazy per-point outcomes (None: pass) and the skipped items the stream may add to.
_Plan = tuple[str, Iterable[Optional[Counterexample]], Sequence[str]]


def _suite_eq1(cfg: Mapping, run: _Run) -> _Plan:
    n_max = _grid_nat(cfg, "n_max")
    return f"{_point(1, 2, 1)[1]}, n<={n_max}", (
        verify_eq2(1, 2, 1, n, run.catalan).counterexample for n in [n_max]), ()


def _suite_eq2(cfg: Mapping, run: _Run) -> _Plan:
    """Direct grid sweep plus the enumerative and matrix routes: the signed
    census and the array row sums must both reproduce the direct sum, and
    the plain and derivative-form summation checks must both accept the
    family instance."""
    axes, text = _grid(cfg, "alpha", "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    cross_points, cross_order = [], 0
    if cfg.get("cross"):
        cross = _section(cfg["cross"], "config section eq2 cross")
        cross_order = _grid_nat(cross, "n_max")
        cross_points = [(check_alpha_gamma(gamma + offset, gamma), check_arity(beta), gamma)
                        for beta, gamma, offset in itertools.product(
                            cross["betas"], cross["gammas"], cross["alpha_offsets"])]
    family_points, family_order = [], 0
    if cfg.get("family"):
        family = _section(cfg["family"], "config section eq2 family")
        family_order = _grid_nat(family, "order")
        if family_order < 1:
            raise ValueError("the family needs order >= 1")
        family_points = [(texts, tuple(map(as_rat, texts))) for texts in itertools.product(
            family["alphas"], family["betas"], family["gammas"])]

    def outcomes() -> Iterator[Optional[Counterexample]]:
        for point in itertools.product(*axes):
            rep = verify_eq2(*point, n_max, run.catalan)
            if rep.ok and run.catalan is catalan_gen:
                run.eq2_passed.add((*point, n_max))
            yield rep.counterexample
        for alpha, beta, gamma in cross_points:
            sums = row_sums(catalan_family(alpha, beta, max(cross_order, 1)),
                            catalan_gf(beta, gamma, max(cross_order, 1)), cross_order)
            for n in range(cross_order + 1):
                direct = eq2_lhs(alpha, beta, gamma, n, run.catalan)
                census = signed_sum(beta, n, gamma, alpha)
                params = {"alpha": alpha, "beta": beta, "gamma": gamma, "n": n}
                if census != direct:
                    yield Counterexample.at(params, census, direct,
                                            "involution census vs direct sum")
                elif sums[n] != direct:
                    yield Counterexample.at(params, sums[n], direct, "array row sum vs direct sum")
        for (alpha_s, beta_s, gamma_s), (alpha, beta, gamma) in family_points:
            r = catalan_family(alpha, beta, family_order)
            a = catalan_gf(beta, gamma, family_order)
            l = series_binpow(alpha - gamma, family_order)
            params = {"alpha": alpha_s, "beta": beta_s, "gamma": gamma_s, "order": family_order}
            if not riordan_theorem_check(r, a, l):
                yield Counterexample.at(params, "row sums", "target coefficients",
                                        "summation-matrix check")
            elif not modified_riordan_check(r, a, l):
                yield Counterexample.at(params, "derivative form", "target coefficients",
                                        "modified summation-matrix check")

    return f"{text}, n<={n_max}; plus involution-census and array-row routes", outcomes(), ()


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
    axes, text = _grid(cfg, "beta", "gamma")
    order = _grid_nat(cfg, "order")
    if order < 1:
        raise ValueError("need order >= 1")
    return f"{text}, order {order}", (
        None if catalan_gf_functional_check(beta, gamma, order) else Counterexample.at(
            {"beta": rat_str(beta), "gamma": rat_str(gamma), "order": order},
            "gf composed with x(1-x)^(beta-1)", "(1-x)^(-gamma)")
        for beta, gamma in itertools.product(*axes)), ()


def _suite_eq8(cfg: Mapping, run: _Run) -> _Plan:
    (betas,), text = _grid(cfg, "beta")
    order = _grid_nat(cfg, "order")
    pairs = [(as_rat(a1), as_rat(a2)) for a1, a2 in cfg["alpha_pairs"]]
    grid = f"{text}, alpha pairs {[[rat_str(a), rat_str(b)] for a, b in pairs]}, order {order}"
    return grid, (
        None if convolution_check(beta, alpha1, alpha2, order) else Counterexample.at(
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
    grid = f"{count} seeded sequences of length {length}, pairs {[str(p) for p in cfg['pairs']]}"
    rng = random.Random(seed)
    sequences = (random_rational_sequence(rng, length) for _ in range(count))
    return grid, (_gould_roundtrip(index, seq, pair)
                  for index, seq in enumerate(sequences) for pair in pairs), skipped


def _gould_roundtrip(index: int, seq: list[Rat], pair: GouldPair) -> Optional[Counterexample]:
    back = gould_backward(gould_forward(seq, pair), pair)
    fwd = gould_forward(gould_backward(seq, pair), pair)
    params = {"sequence": index, "a": pair.a, "m": rat_str(pair.m), "z": rat_str(pair.z)}
    for got, detail in ((back, "backward(forward) != id"), (fwd, "forward(backward) != id")):
        if got != seq:
            return Counterexample.at(params, [rat_str(v) for v in got],
                                     [rat_str(v) for v in seq], detail)
    return None


def _suite_eq10(cfg: Mapping, run: _Run) -> _Plan:
    axes, text = _grid(cfg, "alpha", "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    skipped: list[str] = []

    def check(point: tuple[Rat, ...]) -> Optional[Counterexample]:
        rep = verify_eq10(*point, n_max)
        skipped.extend(f"{_point(*point)[1]}, {item}" for item in rep.skipped)
        return rep.counterexample

    return f"{text}, n<={n_max}", map(check, itertools.product(*axes)), skipped


def _suite_closed_form(cfg: Mapping, run: _Run) -> _Plan:
    axes, text = _grid(cfg, "beta", "gamma")
    n_max = _grid_nat(cfg, "n_max")
    return f"{text}, n<={n_max}", (
        closed_form_reduction_check(beta, gamma, n_max).counterexample
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
    return [_report(identity_id, grid, next((c for c in outcomes if c is not None), None), skipped)
            for identity_id, (grid, outcomes, skipped) in plans]


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
