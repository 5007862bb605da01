"""Exact arithmetic kernel: rationals, generalized binomial coefficients, and
the bases of the package's immutable values.

Every quantity in this package is an exact rational.  ``Rat`` is the stdlib
``Fraction``, which already keeps values reduced with a positive denominator
and raises on division by zero; natural-number arguments are plain ``int``
validated at the boundary.  ``ConfigError`` lives here, below every layer
that raises it, so that raising one loads nothing else.

``Frozen`` and ``Record`` live here for the same reason: they are the one
definition of a write-once ``__slots__`` value (trees and forests, colored
forests, series, Riordan arrays, outdegree profiles and the identity
reports), and every layer loads this one.  A Record holds only immutable
fields, so it is its own copy; a plain Frozen value is rebuilt.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence, Union

Rat = Fraction

# Accepted anywhere a rational parameter is expected.
RatLike = Union[Fraction, int]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_new, _set = object.__new__, object.__setattr__  # Frozen._make's one write, without a hook


def as_rat(value: RatLike | str) -> Rat:
    """Coerce an int, Fraction or strict "p/q" string to Rat.

    The string form allows an optional sign, digits and an optional
    "/digits" part, nothing else; float notation is rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.match(value):
            raise ValueError(f"not a rational literal: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rat_str(value: RatLike) -> str:
    """Canonical text form: "num/den", or just "num" for integral values."""
    return str(Fraction(value))


def cleared(rows: Sequence[Sequence[RatLike]]) -> tuple[list[list[int]], int]:
    """(R * rows, R): rows of reduced rationals as integers over the lcm R of their denominators."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


class ConfigError(ValueError):
    """Malformed configuration: a grid config, a series file, or CLI flags."""


def check_nat(n: int, name: str = "n") -> int:
    """Validate that n is a plain non-negative integer and return it."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")
    return n


def binom(x: RatLike, k: int) -> Rat:
    """Generalized binomial coefficient x(x-1)...(x-k+1) / k!.

    Defined for every rational x and non-negative integer k, with
    binom(x, 0) = 1.  The work is done in integers: for integral x it is
    ``int_binom``; for x = p/q in lowest terms ``falling(p, q, k)`` is one
    integer and a single Fraction is built over q**k * k!.
    """
    check_nat(k, "k")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    if q == 1:
        return Fraction(int_binom(p, k))
    return Fraction(falling(p, q, k), q**k * factorial(k))


def falling(p: int, q: int, k: int) -> int:
    """prod(p - i*q for i < k), the falling factorial of x = p/q scaled by
    q**k: x(x-1)...(x-k+1) * q**k, exact in integers for any integer p and
    q >= 1, reduced or not.  falling(p, q, 0) = 1."""
    num = 1
    for i in range(k):
        num *= p - i * q
    return num


def int_binom(x: int, k: int) -> int:
    """binom(x, k) for an integer x, as an int: ``math.comb`` for x >= 0, and
    the upper-negation rule binom(x, k) = (-1)**k * binom(k - x - 1, k) below."""
    if x >= 0:
        return comb(x, k)
    value = comb(k - x - 1, k)
    return -value if k % 2 else value


def multinomial(x: RatLike, parts: Sequence[int]) -> Rat:
    """Product-of-binomials multinomial with the final block left implicit.

    ``parts`` lists every block size except the last one, which equals x
    minus the listed total and never enters the product.  An empty list
    gives 1.
    """
    x = Fraction(x)
    out = Fraction(1)
    for m in parts:
        check_nat(m, "part")
        out *= binom(x, m)
        x -= m
    return out


class Frozen:
    """A value whose ``__slots__`` are written once, by ``_make``, and never again.
    A subclass validates its arguments in ``__new__`` and returns
    ``cls._make(...)``; pickle, and copy but for a Record, rebuild through ``_make``."""

    __slots__ = ()

    @classmethod
    def _make(cls, *values: object) -> "Frozen":
        """An instance whose slots, in ``__slots__`` order, are ``values``, unvalidated."""
        self = _new(cls)
        for name, value in zip(cls.__slots__, values):
            _set(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self) -> tuple:
        return self._make, self._values()

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Record(Frozen):
    """A Frozen value equal to (and hashed like) a record of its own class with
    equal slots, and shown as ``Name(slot=value, ...)``.  Its fields are
    immutable, so a copy or a deep copy is the value itself."""

    __slots__ = ()

    def __copy__(self) -> "Record":
        return self

    def __deepcopy__(self, memo: dict) -> "Record":
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"
