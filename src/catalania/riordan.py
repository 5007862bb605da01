"""Truncated formal power series over exact rationals and Riordan arrays.

A Series keeps coefficients [x^0 .. x^order]; every operation propagates
the truncation order pessimistically (minimum of the operands, minus one
for the derivative), so an identity check can never pass on coefficients
it does not actually know.  Equality compares coefficients up to the
common order.

A Series is stored as integer numerators over one positive denominator in
lowest terms (``nums``, ``den``), and every operation runs on those
integers: a reduced ``Fraction`` is built only when ``.coeffs`` or a public
coefficient is read.

Products stop at the order that is read.  Column k of a Riordan array is
x**k * g * h**k with h = f/x, so an entry, a row sum, a Horner step of a
composition and a power (x/f)**n of the derivative form are each multiplied
out only to the x-power their result can still reach.  They share one
prefix-product helper with ``series_mul``, which reduces every result, so a
chain of products with rational coefficients carries no unreduced
denominator.  (1 - x)**(p/q) is built on integer numerators over
q**order * order!.

riordan_theorem_check and modified_riordan_check are summation_check and
derivative_form_check at one point; over a grid, a caller builds their
pieces (riordan_columns, a(f), inverse_powers, l/g) once per parameter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

from .counting import catalan_sequence
from .exact import Frozen, Rat, RatLike, as_rat, check_nat, cleared, rat_str


# The coefficient types that Series takes as they are: ints and Fractions
# have the numerator and denominator that ``cleared`` reads.
_EXACT = (int, Fraction)


class Series(Frozen):
    """Coefficient k is nums[k] / den, with den > 0 and gcd(den, *nums) = 1;
    order = len(nums) - 1 >= 0."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable[RatLike]) -> "Series":
        (nums,), den = cleared([[c if type(c) in _EXACT else Fraction(c) for c in coeffs]])
        if not nums:
            raise ValueError("a series needs at least the constant coefficient")
        return cls._make(tuple(nums), den)

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def truncate(self, order: int) -> "Series":
        """Drop knowledge beyond ``order`` (must not exceed self.order)."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return _lowest(self.nums[: order + 1], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order) + 1
        return [v * other.den for v in self.nums[:n]] == [v * self.den for v in other.nums[:n]]

    __hash__ = None  # equality is truncation-aware, hashing would lie

    def __repr__(self) -> str:
        return f"Series([{', '.join(map(rat_str, self.coeffs))}])"


def _lowest(nums: Sequence[int], den: int) -> Series:
    """The series nums[k] / den (den != 0), brought to lowest terms with den > 0."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return Series._make(tuple(nums) if g == 1 else tuple([v // g for v in nums]), den // g)


def series(coeffs: Iterable[RatLike | str]) -> Series:
    """Series from an iterable of rationals / rational literals."""
    return Series(as_rat(c) for c in coeffs)


def series_const(value: RatLike, order: int) -> Series:
    check_nat(order, "order")
    return Series((value,) + (0,) * order)


def _mul_to(a: Series, b: Series, order: int) -> Series:
    """a * b up to x**order, which neither operand's order may be below."""
    b_nums = b.nums[order::-1]  # reversed: b_nums[order - j] is b[j]
    return _lowest([sum(map(mul, a.nums[: k + 1], b_nums[order - k:])) for k in range(order + 1)],
                   a.den * b.den)


def _over_x(f: Series, order: int) -> Series:
    """f/x up to x**order, for f(0) = 0 and order < f.order."""
    return _lowest(f.nums[1 : order + 2], f.den)


def series_mul(a: Series, b: Series) -> Series:
    return _mul_to(a, b, min(a.order, b.order))


def _power(a: Series, e: int) -> Series:
    """a**e for e >= 1, by repeated squaring."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else series_mul(result, a)
        e >>= 1
        if not e:
            return result
        a = series_mul(a, a)


def series_binpow(a: RatLike, order: int) -> Series:
    """(1 - x)**a: coefficient of x^n is (-1)**n * binom(a, n).  With a = p/q
    that is prod(i*q - p for i < n) / (q**n * n!), built over the common
    denominator q**order * order! and reduced once."""
    check_nat(order, "order")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    falling = accumulate((i * q - p for i in range(order)), mul, initial=1)
    # scales[order - n] is q**(order - n) * order! / n!
    scales = list(accumulate((q * j for j in range(order, 0, -1)), mul, initial=1))
    return _lowest(list(map(mul, falling, reversed(scales))), scales[-1])


def series_derivative(a: Series) -> Series:
    """Formal derivative; the order drops by one (order 0 stays the zero
    constant, the only derivative knowable from a constant truncation)."""
    return _lowest([k * v for k, v in enumerate(a.nums)][1:] or [0], a.den)


def series_div_unit(a: Series, b: Series) -> Series:
    """Exact quotient a / b for a unit divisor (b(0) != 0).  With a = A / da,
    b = B / db and c = B[0], coefficient k is db * P[k] / (da * c**(k+1)) for the
    integers P[k] = A[k] * c**k - sum(B[i] * c**(i-1) * P[k-i] for 1 <= i <= k)."""
    c = b.nums[0]
    if c == 0:
        raise ValueError("division requires a unit divisor: b(0) != 0")
    n = min(a.order, b.order)
    powers = [c**i for i in range(n + 2)]
    b_up = list(map(mul, b.nums[1 : n + 1], powers))  # B[i] * c**(i-1) for 1 <= i <= n
    out: list[int] = []
    for k in range(n + 1):
        out.append(a.nums[k] * powers[k] - sum(map(mul, b_up[:k], reversed(out))))
    return _lowest([b.den * v * powers[n - k] for k, v in enumerate(out)], a.den * powers[n + 1])


def series_inverse_unit(b: Series) -> Series:
    """1 / b for a unit series."""
    return series_div_unit(series_const(1, b.order), b)


def series_compose(outer: Series, inner: Series) -> Series:
    """Truncated composition outer(inner); inner must have no constant term."""
    if inner.nums[0] != 0:
        raise ValueError("composition requires inner(0) = 0")
    n = min(outer.order, inner.order)
    h = _over_x(inner, n - 1)
    acc = _lowest(outer.nums[n:n + 1], outer.den)
    for k in range(n - 1, -1, -1):
        # Horner: acc = outer[k] + x * h * acc, known up to x**(n - k)
        tail = _mul_to(acc, h, n - 1 - k)
        den = lcm(outer.den, tail.den)
        up = den // tail.den
        acc = _lowest([outer.nums[k] * (den // outer.den), *(v * up for v in tail.nums)], den)
    return acc


# ---------------------------------------------------------------------------
# JSON format: {"order": N, "coeffs": ["1", "-1/2", ...]}
# ---------------------------------------------------------------------------

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
        raise ValueError(f"series JSON coeffs must be integers or rational strings: {exc}") from None
    except ZeroDivisionError:  # "p/0"
        raise ValueError("series JSON coeffs have a zero denominator") from None


# ---------------------------------------------------------------------------
# Riordan arrays
# ---------------------------------------------------------------------------

class RiordanArray(Frozen):
    """Pair (g, f) with g(0) != 0, f(0) = 0 and f'(0) != 0; column k of the
    lower-triangular matrix has generating function g * f**k."""

    __slots__ = ("g", "f")

    def __new__(cls, g: Series, f: Series) -> "RiordanArray":
        if g.nums[0] == 0:
            raise ValueError("g(0) must be nonzero")
        if f.nums[0] != 0:
            raise ValueError("f(0) must be zero")
        if f.order < 1 or f.nums[1] == 0:
            raise ValueError("f'(0) must be nonzero")
        return cls._make(g, f)

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
    m = n - k  # f**k = x**k * h**k with h = f/x, so the entry is [x^m] g * h**k
    column = r.g.truncate(m)
    if k:
        column = series_mul(column, _power(_over_x(r.f, m), k))
    return Fraction(column.nums[m], column.den)


def riordan_columns(r: RiordanArray, n_max: int) -> tuple[Series, ...]:
    """Columns 0..n_max without their factor x**k: g * h**k (h = f/x) up to x**(n_max - k)."""
    h = _over_x(r.f, n_max - 1)
    return tuple(accumulate(range(n_max - 1, -1, -1), lambda column, order: _mul_to(column, h, order),
                            initial=r.g.truncate(n_max)))


def row_sums_from(columns: Sequence[Series], a: Series) -> Series:
    """sum_k a[k] * x**k * columns[k] up to x**n_max, for riordan_columns(r, n_max): the
    array's row sums as one Series, g * a(f), which for g = 1 is the composition a(f).
    Integer numerators are added over the lcm of the columns' denominators, reduced once."""
    a = a.truncate(len(columns) - 1)
    terms = [(k, ak, column) for k, (ak, column) in enumerate(zip(a.nums, columns)) if ak]
    den = lcm(*(column.den for _, _, column in terms))
    total = [0] * len(columns)  # the sum times den * a.den
    for k, ak, column in terms:
        up = ak * (den // column.den)
        total[k:] = map(add, total[k:], [up * v for v in column.nums])
    return _lowest(total, den * a.den)


def row_sums(r: RiordanArray, a: Series, n_max: int) -> list[Rat]:
    """[sum_k entry(n,k) * a[k] for n <= n_max], one column pass."""
    return list(row_sums_from(riordan_columns(r, n_max), a).coeffs)


def inverse_powers(f: Series, n_max: int) -> tuple[Series, ...]:
    """(x/f)**n up to x**(n - 1) for n = n_max down to 1, each the one before times f/x."""
    h = _over_x(f, n_max - 1)
    return tuple(accumulate(range(n_max - 2, -1, -1), lambda power, order: _mul_to(power, h, order),
                            initial=_power(series_inverse_unit(h), n_max))) if n_max else ()


def summation_check(columns: Sequence[Series], composed: Series, a: Series, l: Series) -> bool:
    """Whether sum_k a[k] * column k reproduces l, for ``columns`` = riordan_columns(r, n), both
    as row sums and as g * a(f) = l with ``composed`` = a(f), two routes that must agree."""
    by_rows = row_sums_from(columns, a) == l
    if by_rows != (series_mul(columns[0], composed) == l):  # columns[0] is g
        raise RuntimeError("row-sum and functional routes disagree; internal error")
    return by_rows


def riordan_theorem_check(r: RiordanArray, a: Series, l: Series) -> bool:
    """summation_check at one point, up to the common order of r, a and l."""
    n = min(r.order, a.order, l.order)
    composed = series_compose(a.truncate(n), r.f.truncate(n))
    return summation_check(riordan_columns(r, n), composed, a, l)


def derivative_form_check(powers: Sequence[Series], quotient: Series, a: Series) -> bool:
    """Whether a(0) = l(0)/g(0) and n*[x^n]a = [x^(n-1)] (x/f)**n * (l/g)' for 1 <= n <= n_max,
    from ``powers`` = inverse_powers(f, n_max) and ``quotient`` = l/g, each right side one dot
    product over power.den * dquot.den; an equivalent route to summation_check."""
    n_max = len(powers)
    dquot = series_derivative(quotient.truncate(n_max))
    dq_nums = dquot.nums[::-1]  # dq_nums[n_max - 1 - j] is dquot[j]
    return a.nums[0] * quotient.den == quotient.nums[0] * a.den and all(
        n * a.nums[n] * power.den * dquot.den == sum(map(mul, power.nums, dq_nums[n_max - n:])) * a.den
        for n, power in zip(range(n_max, 0, -1), powers))


def modified_riordan_check(r: RiordanArray, a: Series, l: Series) -> bool:
    """derivative_form_check at one point, up to the common order of r, a and l."""
    n = min(r.order, a.order, l.order)
    quotient = series_div_unit(l.truncate(n), r.g.truncate(n))
    return derivative_form_check(inverse_powers(r.f, n), quotient, a)


# ---------------------------------------------------------------------------
# The two-parameter family behind the Catalan identities
# ---------------------------------------------------------------------------

def catalan_gf(beta: RatLike, gamma: RatLike, order: int) -> Series:
    """Generating function of catalan_gen(., beta, gamma) up to ``order``, its
    coefficients those of counting.catalan_sequence."""
    return Series(catalan_sequence(beta, gamma, order))


def family_f(beta: RatLike, order: int) -> Series:
    """x(1-x)**(beta-1) up to ``order`` >= 1."""
    check_nat(order, "order")
    if order < 1:
        raise ValueError("the family needs order >= 1")
    power = series_binpow(Fraction(beta) - 1, order - 1)
    return _lowest((0,) + power.nums, power.den)


def catalan_family(alpha: RatLike, beta: RatLike, order: int) -> RiordanArray:
    """The array [ (1-x)**alpha, x(1-x)**(beta-1) ] at the given order."""
    return RiordanArray(series_binpow(alpha, order), family_f(beta, order))
