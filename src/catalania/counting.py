"""Closed-form counts of ordered-forest families.

``catalan_gen`` counts ordered forests of uniform-arity trees, the one
counting oracle, which its callers read by module name when called;
``catalan_vector`` counts forests with prescribed outdegree classes.  Both
have no pole where the textbook quotient is indeterminate, so every
parameter cell of the verification grids is total.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import Rat, RatLike, Record, binom, check_nat, int_binom


def check_outdegrees(p: Sequence[int]) -> tuple[int, ...]:
    """Validate a strictly increasing tuple of outdegrees, each >= 1."""
    p = tuple(p)
    if not p:
        raise ValueError("at least one outdegree class is required")
    for pj in p:
        if not isinstance(pj, int) or isinstance(pj, bool) or pj < 1:
            raise ValueError(f"outdegrees must be integers >= 1, got {pj!r}")
    if any(a >= b for a, b in zip(p, p[1:])):
        raise ValueError(f"outdegrees must be strictly increasing, got {p}")
    return p


class VecProfile(Record):
    """Outdegree classes: n[j] internal vertices of outdegree p[j].

    p must be strictly increasing so an internal vertex's outdegree
    identifies its class unambiguously.  A profile is immutable, and equal
    to (and hashed like) every profile with the same n and p.
    """

    __slots__ = ("n", "p")
    n: tuple[int, ...]
    p: tuple[int, ...]

    def __new__(cls, n: Sequence[int], p: Sequence[int]) -> "VecProfile":
        n, p = tuple(n), check_outdegrees(p)
        if len(n) != len(p):
            raise ValueError("n and p must have equal length")
        for nj in n:
            check_nat(nj, "n[j]")
        return cls._make(n, p)

    @property
    def t(self) -> int:
        return len(self.p)

    def dot_np(self) -> int:
        """n . p, the total number of child slots of internal vertices."""
        return sum(nj * pj for nj, pj in zip(self.n, self.p))

    def leaf_count(self, gamma: int) -> int:
        """n . (p - 1) + gamma, the leaf count of any matching forest."""
        return sum(nj * (pj - 1) for nj, pj in zip(self.n, self.p)) + gamma


def _rat(value: RatLike) -> RatLike:
    """An int or Fraction as it is, anything else as a Fraction."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def catalan_gen(n: int, beta: RatLike, gamma: RatLike) -> Rat:
    """Count of ordered forests of beta-ary trees with gamma components and
    n internal vertices, as a rational function of beta and gamma.

    For n >= 1 this is (gamma/n) * binom(beta*n + gamma - 1, n - 1), which
    agrees with the quotient gamma/(beta*n+gamma) * binom(beta*n+gamma, n)
    wherever the latter is defined and stays finite at beta*n + gamma = 0.
    catalan_gen(0, beta, gamma) = 1 for all parameters.

    At integral beta and gamma the value is an integer, the n-th coefficient
    of B_beta(x)**gamma, and is built as one Fraction from ``int_binom``.
    """
    check_nat(n)
    beta, gamma = _rat(beta), _rat(gamma)
    if n == 0:
        return Fraction(1)
    if beta.denominator == 1 == gamma.denominator:
        b, g = beta.numerator, gamma.numerator
        return Fraction(g * int_binom(b * n + g - 1, n - 1), n)
    return Fraction(gamma) / n * binom(beta * n + gamma - 1, n - 1)


def eq2_rhs(alpha: RatLike, gamma: RatLike, n: int) -> Rat:
    """(-1)**n * binom(alpha - gamma, n), the closed form of the alternating
    sum of Eq2 over the counts of ``catalan_gen``.  At integral alpha - gamma
    it is one Fraction built from ``int_binom``."""
    check_nat(n)
    sign = -1 if n % 2 else 1
    x = _rat(alpha) - _rat(gamma)
    if x.denominator == 1:
        return Fraction(sign * int_binom(x.numerator, n))
    return sign * binom(x, n)


def catalan_vector(profile: VecProfile, gamma: int) -> Rat:
    """Count of ordered forests with gamma components and profile.n[j]
    internal vertices of outdegree profile.p[j] for each class j.

    The empty profile (all n[j] = 0) counts 1 for every gamma including 0;
    gamma = 0 with a non-empty profile counts 0.  Otherwise the count is
    gamma/total * multinomial(total, n) with total = n . p + gamma, built as
    one Fraction over total from the integer product of the multinomial's
    binomials.
    """
    check_nat(gamma, "gamma")
    if all(nj == 0 for nj in profile.n):
        return Fraction(1)
    if gamma == 0:
        return Fraction(0)
    total = x = profile.dot_np() + gamma
    count = gamma
    for nj in profile.n:
        count *= int_binom(x, nj)
        x -= nj
    return Fraction(count, total)


def catalan_sequence(beta: RatLike, gamma: RatLike, n_max: int) -> list[Rat]:
    """[catalan_gen(0, beta, gamma), ..., catalan_gen(n_max, beta, gamma)],
    each read through this module's name catalan_gen at call time."""
    check_nat(n_max, "n_max")
    return [catalan_gen(k, beta, gamma) for k in range(n_max + 1)]
