"""Truncated formal power series over exact rationals and Riordan arrays.

A Series keeps coefficients [x^0 .. x^order]; every operation propagates
the truncation order pessimistically (minimum of the operands, minus one
for the derivative), so an identity check can never pass on coefficients
it does not actually know.  Equality compares coefficients up to the
common order.

The quadratic loops (products, composition, row sums) run on integer
numerators over a common denominator (``_scaled``) and build one reduced
Fraction per output coefficient, so they stay exact without paying for a
Fraction on every coefficient product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .counting import catalan_sequence
from .exact import Rat, RatLike, as_rat, binom, check_nat, rat_str


@dataclass(frozen=True, eq=False)
class Series:
    """coeffs[k] is the coefficient of x^k; order = len(coeffs) - 1 >= 0."""

    coeffs: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coeffs
        ))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "Series":
        """Drop knowledge beyond ``order`` (must not exceed self.order)."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # equality is truncation-aware, hashing would lie

    def __repr__(self) -> str:
        inside = ", ".join(rat_str(c) for c in self.coeffs)
        return f"Series([{inside}])"


def series(coeffs: Iterable[RatLike | str]) -> Series:
    """Series from an iterable of rationals / rational literals."""
    return Series(tuple(as_rat(c) for c in coeffs))


def series_const(value: RatLike, order: int) -> Series:
    check_nat(order, "order")
    return Series((Fraction(value),) + (Fraction(0),) * order)


def series_zero(order: int) -> Series:
    return series_const(0, order)


def series_x(order: int) -> Series:
    """The monomial x at the given order (order >= 1)."""
    check_nat(order, "order")
    if order < 1:
        raise ValueError("x needs order >= 1")
    return Series((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))


def series_add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def series_neg(a: Series) -> Series:
    return Series(tuple(-c for c in a.coeffs))


def _scaled(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with coeffs[k] == nums[k] / den, den the least common
    denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def series_mul(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    a_nums, a_den = _scaled(a.coeffs[: n + 1])
    b_nums, b_den = _scaled(b.coeffs[n::-1])  # reversed: b_nums[n - j] is b[j]
    den = a_den * b_den
    return Series(tuple(
        Fraction(sum(map(mul, a_nums[: k + 1], b_nums[n - k:])), den) for k in range(n + 1)
    ))


def series_binpow(a: RatLike, order: int) -> Series:
    """(1 - x)**a: coefficient of x^n is (-1)**n * binom(a, n)."""
    check_nat(order, "order")
    a = Fraction(a)
    coeffs = []
    value = Fraction(1)
    for n in range(order + 1):
        coeffs.append(value if n % 2 == 0 else -value)
        value = value * (a - n) / (n + 1)  # binom(a, n+1) from binom(a, n)
    return Series(tuple(coeffs))


def series_derivative(a: Series) -> Series:
    """Formal derivative; the order drops by one (order 0 stays the zero
    constant, the only derivative knowable from a constant truncation)."""
    if a.order == 0:
        return series_zero(0)
    return Series(tuple(Fraction(k) * a.coeffs[k] for k in range(1, a.order + 1)))


def series_div_unit(a: Series, b: Series) -> Series:
    """Exact quotient a / b for a unit divisor (b(0) != 0)."""
    if b.coeffs[0] == 0:
        raise ValueError("division requires a unit divisor: b(0) != 0")
    n = min(a.order, b.order)
    inv0 = 1 / b.coeffs[0]
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i in range(1, k + 1):
            acc -= b.coeffs[i] * out[k - i]
        out.append(acc * inv0)
    return Series(tuple(out))


def series_inverse_unit(b: Series) -> Series:
    """1 / b for a unit series."""
    return series_div_unit(series_const(1, b.order), b)


def series_compose(outer: Series, inner: Series) -> Series:
    """Truncated composition outer(inner); inner must have no constant term."""
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires inner(0) = 0")
    n = min(outer.order, inner.order)
    inner_n = inner.truncate(n)
    acc = series_const(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):  # Horner in the truncated ring
        # inner(0) = 0, so acc * inner has constant term 0: adding outer[k]
        # sets it.
        acc = Series((outer.coeffs[k],) + series_mul(acc, inner_n).coeffs[1:])
    return acc


def series_shift_down(f: Series) -> Series:
    """f / x for a series with f(0) = 0; the order drops by one."""
    if f.coeffs[0] != 0:
        raise ValueError("f/x requires f(0) = 0")
    if f.order == 0:
        raise ValueError("f/x needs order >= 1")
    return Series(f.coeffs[1:])


# ---------------------------------------------------------------------------
# JSON format: {"order": N, "coeffs": ["1", "-1/2", ...]}
# ---------------------------------------------------------------------------

def series_to_json(s: Series) -> dict:
    return {"order": s.order, "coeffs": [rat_str(c) for c in s.coeffs]}


def series_from_json(obj: object) -> Series:
    if not isinstance(obj, dict):
        raise ValueError("series JSON must be an object")
    try:
        order = obj["order"]
        coeffs = obj["coeffs"]
    except KeyError as missing:
        raise ValueError(f"series JSON lacks key {missing}") from None
    check_nat(order, "order")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        raise ValueError("series JSON needs a coeffs list of length order + 1")
    try:
        return series(coeffs)
    except TypeError as exc:  # a float, bool, null or nested coefficient
        raise ValueError(
            f"series JSON coeffs must be integers or rational strings: {exc}"
        ) from None
    except ZeroDivisionError:  # "p/0"
        raise ValueError("series JSON coeffs have a zero denominator") from None


def series_loads(text: str) -> Series:
    return series_from_json(json.loads(text))


def series_dumps(s: Series) -> str:
    return json.dumps(series_to_json(s), sort_keys=True)


# ---------------------------------------------------------------------------
# Riordan arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiordanArray:
    """Pair (g, f) with g(0) != 0, f(0) = 0 and f'(0) != 0; column k of the
    lower-triangular matrix has generating function g * f**k."""

    g: Series
    f: Series

    def __post_init__(self) -> None:
        if self.g.coeffs[0] == 0:
            raise ValueError("g(0) must be nonzero")
        if self.f.coeffs[0] != 0:
            raise ValueError("f(0) must be zero")
        if self.f.order < 1 or self.f.coeffs[1] == 0:
            raise ValueError("f'(0) must be nonzero")

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)


def riordan_entry(r: RiordanArray, n: int, k: int) -> Rat:
    """Matrix entry (n, k): the coefficient of x^n in g * f**k."""
    check_nat(n)
    check_nat(k, "k")
    if n > r.order:
        raise ValueError(f"entry row {n} exceeds truncation order {r.order}")
    if k > n:
        return Fraction(0)
    column = r.g.truncate(n)
    f = r.f.truncate(n)
    for _ in range(k):
        column = series_mul(column, f)
    return column.coeffs[n]


def row_sums(r: RiordanArray, a: Series, n_max: int) -> list[Rat]:
    """[sum_k entry(n,k) * a[k] for n <= n_max], one column pass."""
    column = r.g.truncate(n_max)
    f = r.f.truncate(n_max)
    a_nums, a_den = _scaled(a.coeffs[: n_max + 1])
    sums, den = [0] * (n_max + 1), 1  # row sum n is sums[n] / (den * a_den)
    for k in range(n_max + 1):
        if k > 0:
            column = series_mul(column, f)
        ak = a_nums[k]
        if ak:
            c_nums, c_den = _scaled(column.coeffs)
            new_den = lcm(den, c_den)
            up, c_up = new_den // den, new_den // c_den * ak
            sums = [s * up + c * c_up for s, c in zip(sums, c_nums)]
            den = new_den
    return [Fraction(s, den * a_den) for s in sums]


def riordan_theorem_check(r: RiordanArray, a: Series, l: Series) -> bool:
    """Whether the row sums of the array against a's coefficients reproduce
    l's coefficients; computed both as literal row sums and through the
    functional form g * a(f) = l, which must agree."""
    n = min(r.order, a.order, l.order)
    by_rows = row_sums(r, a, n) == list(l.coeffs[: n + 1])
    composed = series_mul(r.g.truncate(n), series_compose(a.truncate(n), r.f.truncate(n)))
    by_function = composed == l.truncate(n)
    if by_rows != by_function:
        raise RuntimeError("row-sum and functional routes disagree; internal error")
    return by_rows


def modified_riordan_check(r: RiordanArray, a: Series, l: Series) -> bool:
    """Whether n*[x^n]a = [x^(n-1)] (x/f)**n * (l/g)' for 1 <= n <= order
    and a(0) = l(0)/g(0); an equivalent route to riordan_theorem_check."""
    n_max = min(r.order, a.order, l.order)
    if a.coeffs[0] != l.coeffs[0] / r.g.coeffs[0]:
        return False
    if n_max == 0:
        return True
    x_over_f = series_inverse_unit(series_shift_down(r.f.truncate(n_max)))
    dquot = series_derivative(series_div_unit(l.truncate(n_max), r.g.truncate(n_max)))
    # reversed: dq_nums[n_max - 1 - j] is dquot[j]
    dq_nums, dq_den = _scaled(dquot.coeffs[::-1])
    power = series_const(1, n_max - 1)
    for n in range(1, n_max + 1):
        power = series_mul(power, x_over_f)
        # [x^(n-1)] power * dquot, one dot product
        p_nums, p_den = _scaled(power.coeffs[:n])
        rhs = Fraction(sum(map(mul, p_nums, dq_nums[n_max - n:])), p_den * dq_den)
        if n * a.coeffs[n] != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# The two-parameter family behind the Catalan identities
# ---------------------------------------------------------------------------

def catalan_gf(beta: RatLike, gamma: RatLike, order: int) -> Series:
    """Generating function of catalan_gen(., beta, gamma) up to ``order``."""
    return Series(tuple(catalan_sequence(beta, gamma, order)))


def _family_f(beta: RatLike, order: int) -> Series:
    """x(1-x)**(beta-1) up to ``order`` >= 1."""
    return Series((Fraction(0),) + series_binpow(Fraction(beta) - 1, order - 1).coeffs)


def catalan_family(alpha: RatLike, beta: RatLike, order: int) -> RiordanArray:
    """The array [ (1-x)**alpha, x(1-x)**(beta-1) ] at the given order."""
    check_nat(order, "order")
    if order < 1:
        raise ValueError("the family needs order >= 1")
    return RiordanArray(series_binpow(alpha, order), _family_f(beta, order))


def catalan_gf_functional_check(beta: RatLike, gamma: RatLike, order: int) -> bool:
    """Whether composing the generating function with x(1-x)**(beta-1)
    collapses it to (1-x)**(-gamma)."""
    check_nat(order, "order")
    if order < 1:
        raise ValueError("need order >= 1")
    lhs = series_compose(catalan_gf(beta, gamma, order), _family_f(beta, order))
    return lhs == series_binpow(-Fraction(gamma), order)


def convolution_check(beta: RatLike, alpha1: RatLike, alpha2: RatLike, n_max: int) -> bool:
    """Whether the gamma parameter is additive under series product:
    gf(beta, alpha1 + alpha2) = gf(beta, alpha1) * gf(beta, alpha2)."""
    lhs = catalan_gf(beta, Fraction(alpha1) + Fraction(alpha2), n_max)
    rhs = series_mul(catalan_gf(beta, alpha1, n_max), catalan_gf(beta, alpha2, n_max))
    return lhs == rhs
