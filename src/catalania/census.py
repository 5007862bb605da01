"""Counting without building: the structure budget, the forest counts and
the counted colored census.

Every generator and census of the package checks its arguments and counts
its output in closed form when it is called, and refuses, with that
estimate, to produce more than the CATALANIA_MAX_STRUCTS budget (default
5,000,000).  ``check_budget`` is that one check, and a count runs it too,
before it counts.

``count_mixed_forests`` (``count_forests``) counts the forests that
``forest.iter_mixed_forests`` yields with no pool, tree or split, from one
table (``_forest_counts``) keyed on each forest's first vertex in preorder:
box x (leaf_count(gamma) + 1) x t cells, built row by row, not by
recursion, so no depth of tree reaches the recursion limit.

A colored census of a profile splits profile.n into internal counts plus
color marks.  ``census_terms`` lists each slice's alpha-free part, and is
the one reader of a census's forest counts, from the profile's table;
``census_sizes`` gives each slice's size in closed form, and
``census_slices`` checks the whole census against the budget before any
slice or table.  ``signed_sum_vector`` (``signed_sum``) builds no
structure: all of a slice has one weight, so the slice adds that weight
times its forests and its colorings.  ``involution`` and Eq2's census route
in ``verify`` make this same call; Eq3 in ``verify`` calls census_terms.

``forest.py`` builds the forests counted here and ``involution.py`` the
colored structures, so ``verify``, ``trees count`` and ``involution``
without ``--dump-pairs`` load neither of them.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from fractions import Fraction
from itertools import repeat
from math import prod
from operator import add, mul, sub
from typing import Iterator

from .counting import VecProfile, catalan_vector
from .exact import Rat, RatLike, check_nat, multinomial

MAX_STRUCTS_ENV = "CATALANIA_MAX_STRUCTS"
DEFAULT_MAX_STRUCTS = 5_000_000


class EnumerationBudgetError(ValueError):
    """Enumeration would materialize more structures than the budget allows."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"enumeration would produce {estimate} structures, over the "
            f"limit of {budget} (set {MAX_STRUCTS_ENV} to raise it)"
        )


def enumeration_budget() -> int:
    """Current structure budget, from CATALANIA_MAX_STRUCTS or the default."""
    raw = os.environ.get(MAX_STRUCTS_ENV)
    if raw is None:
        return DEFAULT_MAX_STRUCTS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_STRUCTS_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{MAX_STRUCTS_ENV} must be positive, got {value}")
    return value


def check_budget(estimate: Fraction | int) -> None:
    """Raise EnumerationBudgetError if an exact count exceeds the budget."""
    budget = enumeration_budget()
    if estimate > budget:
        raise EnumerationBudgetError(int(estimate), budget)


# ---------------------------------------------------------------------------
# Forest counts
# ---------------------------------------------------------------------------

def check_arity(beta: int) -> int:
    """Validate a uniform outdegree beta >= 1."""
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 1:
        raise ValueError(f"beta must be an integer >= 1, got {beta!r}")
    return beta


def beta_profile(beta: int, n: int) -> VecProfile:
    """The one-class profile of beta-ary forests with n internal vertices."""
    check_arity(beta)
    check_nat(n)
    return VecProfile((n,), (beta,))


def vector_compositions(vec: tuple[int, ...], parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Splits of ``vec`` into ``parts`` ordered vector summands, lexicographic.

    No step recurses.  The first parts - 2 parts, with what they leave,
    step through their own splits in order: with ``t`` the last nonzero
    part, the next adds one to the last coordinate of part t - 1 that part
    t holds, zeroes what follows it, and leaves the rest to the last part.
    Each of those splits then yields every head its rest allows, in
    product order, with the head's remainder last."""
    if parts < 2:
        if parts or not any(vec):
            yield (tuple(vec),) * parts
        return
    zero = (0,) * len(vec)
    split = [zero] * (parts - 2) + [tuple(vec)]
    t = parts - 2 if any(vec) else 0
    while True:
        prefix, rest = tuple(split[:-1]), split[-1]
        for head in itertools.product(*(range(r + 1) for r in rest)):
            yield prefix + (head, tuple(map(sub, rest, head)))
        if t == 0:
            return
        mass, head = split[t], split[t - 1]
        j = max(i for i, c in enumerate(mass) if c)
        split[t - 1] = head[:j] + (head[j] + 1,) + zero[j + 1:]
        split[t] = zero
        split[-1] = mass[:j] + (mass[j] - 1,) + tuple(map(add, head[j + 1:], mass[j + 1:]))
        t = parts - 2 if any(split[-1]) else t - 1


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts, lexicographic:
    the one-coordinate case of vector_compositions."""
    return (tuple(v for (v,) in split) for split in vector_compositions((total,), parts))


def _forest_counts(counts: tuple[int, ...], p: tuple[int, ...], gamma: int) -> Iterator[int]:
    """Yields F(m, gamma), the gamma-component forests of count vector m, for
    each m <= counts in product order.  A forest's first vertex in preorder
    leaves k - 1 components if a leaf, k - 1 + p_j if of class j, so F(m, k)
    = F(m, k - 1) + sum_j F(m - e_j, k - 1 + p_j), F(0, 0) = 1.  Row m runs k
    to gamma + sum_j (counts_j - m_j)(p_j - 1), the most a later row reads;
    row m - e_j is strides[j] rows back, so the window keeps strides[0]."""
    strides = [prod(c + 1 for c in counts[j + 1:]) for j in range(len(counts))]
    shifts = [pj - 1 for pj in p]
    base = gamma + sum(map(mul, counts, shifts))
    window: deque[list[int]] = deque(maxlen=strides[0])
    for head in itertools.product(*(range(c + 1) for c in counts[:-1])):
        for last in range(counts[-1] + 1):  # product would hold this range whole
            m = (*head, last)
            top = base - sum(map(mul, m, shifts))
            rests = [window[-stride][pj:pj + top] for mj, pj, stride in zip(m, p, strides) if mj]
            inner = map(sum, zip(repeat(0, top), *rests))
            row = list(itertools.accumulate(inner, initial=int(not any(m))))
            window.append(row)
            yield row[gamma]


def count_mixed_forests(profile: VecProfile, gamma: int) -> int:
    """The number of forests forest.iter_mixed_forests(profile, gamma)
    yields, with the same checks first: the last entry of its table."""
    check_nat(gamma, "gamma")
    check_budget(catalan_vector(profile, gamma))
    return deque(_forest_counts(profile.n, profile.p, gamma), maxlen=1).pop()


def count_forests(beta: int, n: int, gamma: int) -> int:
    """The number of forests forest.iter_forests(beta, n, gamma) yields."""
    return count_mixed_forests(beta_profile(beta, n), gamma)


# ---------------------------------------------------------------------------
# The counted census
# ---------------------------------------------------------------------------

# One slice's alpha-free part: (residual profile, marks, forests, free_slots).
Term = tuple[VecProfile, tuple[int, ...], int, int]


def check_alpha_gamma(alpha: int, gamma: int) -> int:
    """Validate natural alpha >= gamma >= 1 and return alpha."""
    check_nat(alpha, "alpha")
    check_nat(gamma, "gamma")
    if gamma < 1 or alpha < gamma:
        raise ValueError(f"need alpha >= gamma >= 1, got alpha={alpha}, gamma={gamma}")
    return alpha


def _splits(profile: VecProfile, gamma: int) -> Iterator[tuple[VecProfile, tuple[int, ...], int]]:
    """Each split of profile.n into internal counts plus color marks, as
    (residual profile, marks, residual.leaf_count(gamma) - gamma) with marks
    in lexicographic order; the residuals are built unchecked."""
    for marks in itertools.product(*(range(nj + 1) for nj in profile.n)):
        residual = VecProfile._make(tuple(map(sub, profile.n, marks)), profile.p)
        yield residual, marks, residual.leaf_count(gamma) - gamma


def census_terms(profile: VecProfile, gamma: int) -> list[Term]:
    """The alpha-free part of every census slice, as (residual profile,
    marks, forests, free_slots) over _splits.  The slice holds forests *
    multinomial(free_slots + alpha, marks) structures: its forests, each
    with free_slots + alpha slots (the leaves and the alpha - gamma planted
    roots) to color.  Every residual lies below the profile, so the
    profile's table counts them all, read backwards as the marks run
    forwards."""
    table = list(_forest_counts(profile.n, profile.p, gamma))
    return [(residual, marks, forests, free_slots)
            for (residual, marks, free_slots), forests in zip(_splits(profile, gamma), reversed(table))]


def census_sizes(profile: VecProfile, gamma: int, alpha: RatLike,
                 ) -> list[tuple[VecProfile, tuple[int, ...], Rat]]:
    """Each split of profile.n as (residual profile, marks, size), with size
    the number of structures involution.enumerate_colored_vector(residual,
    marks, gamma, alpha) yields, from catalan_vector, so that no table is
    built.  Validates nothing and checks no budget, so it also serves gamma
    = 0 and rational alpha, where the sizes are formal."""
    return [(residual, marks, catalan_vector(residual, gamma) * multinomial(free_slots + alpha, marks))
            for residual, marks, free_slots in _splits(profile, gamma)]


def census_slices(profile: VecProfile, gamma: int, alpha: int,
                  ) -> list[tuple[VecProfile, tuple[int, ...], Rat]]:
    """census_sizes, once the whole census is known to fit the budget."""
    sizes = census_sizes(profile, gamma, alpha)
    check_budget(sum(size for _, _, size in sizes))
    return sizes


def scalar_profile(beta: int, n: int, gamma: int, alpha: int) -> VecProfile:
    """The one-class profile ((n,), (beta,)) of a scalar census, once its
    arguments are checked: alpha and gamma, then n, then beta."""
    check_alpha_gamma(alpha, gamma)
    check_nat(n)
    return VecProfile((n,), (check_arity(beta),))


def signed_sum(beta: int, n: int, gamma: int, alpha: int) -> Rat:
    """Sum of weights over involution.colored_census(beta, n, gamma, alpha),
    as the one-class signed_sum_vector counts it.  Equals (-1)**n *
    binom(alpha-gamma, n)."""
    return signed_sum_vector(scalar_profile(beta, n, gamma, alpha), gamma, alpha)


def signed_sum_vector(profile: VecProfile, gamma: int, alpha: int) -> Rat:
    """Sum of weights over all t-colored planted mixed forests with
    class-wise internal + colored counts equal to profile.n, counted, not
    built: the slice with ``marks`` adds (-1)**sum(marks) times its forests
    times the colorings of their slots.  After the budget check,
    census_terms counts every slice's forests.  Equals (-1)**sum(n) *
    multinomial(alpha-gamma, n)."""
    check_alpha_gamma(alpha, gamma)
    census_slices(profile, gamma, alpha)
    total = sum((-1) ** sum(marks) * forests * _count_colorings(free_slots + alpha, marks)
                for _, marks, forests, free_slots in census_terms(profile, gamma))
    return Fraction(total)


def _count_colorings(slots: int, marks: tuple[int, ...]) -> int:
    """The number of ways to color ``slots`` slots with marks[j] of color
    j+1 each, each class's choices counted inside itertools: class j picks
    marks[j] of the slots that the classes before it leave, whichever those
    are, so the colorings are the product of the classes' choices.  A class
    of no marks has the one empty choice, which compress, counting true
    items, would drop."""
    out = 1
    for m in marks:
        if m:
            out *= sum(itertools.compress(repeat(1), itertools.combinations(range(slots), m)))
        slots -= m
    return out
