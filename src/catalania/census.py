"""Counting without building: the structure budget, the forest counts and
the counted colored census.

Every generator and census of the package checks its arguments and counts
its output in closed form when it is called, and refuses, with that
estimate, to produce more than the CATALANIA_MAX_STRUCTS budget (default
5,000,000).  ``check_budget`` is that one check, and a count runs it too,
before it counts.

``count_mixed_forests`` (``count_forests``) counts the forests that
``forest.iter_mixed_forests`` yields, and builds no pool and no tree: it
multiplies pool sizes from one table (``_size_table``), each pool's size
being the sum over its splits (``tree_plan``) of its parts' sizes
multiplied.  The table is built bottom-up, not by recursion, so no depth
of tree reaches the recursion limit.

A colored census of a profile splits profile.n into internal counts plus
color marks.  ``census_terms`` lists each slice's alpha-free part,
``census_sizes`` its number of structures, and ``census_slices`` checks the
whole census against the budget before the first slice.
``signed_sum_vector`` (``signed_sum``) builds no structure: all of a slice
has one weight, so the slice adds that weight times its forests and its
colorings.  After the budget check, the profile's size table counts every
slice's forests, as each residual lies below the profile; ``involution``
and Eq2's census route in ``verify`` make this same call.

``forest.py`` builds the forests counted here and ``involution.py`` the
colored structures, so ``verify``, ``trees count`` and ``involution``
without ``--dump-pairs`` load neither of them.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from itertools import repeat
from math import prod
from typing import Iterable, Iterator

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
    """Splits of ``vec`` into ``parts`` ordered vector summands, lexicographic."""
    if parts == 0:
        if not any(vec):
            yield ()
        return
    if parts == 1:
        yield (vec,)
        return
    for head in itertools.product(*(range(v + 1) for v in vec)):
        rest_vec = tuple(v - h for v, h in zip(vec, head))
        for rest in vector_compositions(rest_vec, parts - 1):
            yield (head, *rest)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts, lexicographic:
    the one-coordinate case of vector_compositions."""
    return (tuple(v for (v,) in split) for split in vector_compositions((total,), parts))


# A split of a vertex's internal-vertex counts among its children, one
# count vector per child.
Split = tuple[tuple[int, ...], ...]


def tree_plan(counts: tuple[int, ...], p: tuple[int, ...]) -> tuple[Split, ...]:
    """Each child split of a root, by root class, in canonical order.  A tree
    without internal vertices is a leaf, the one tree of no children."""
    if not any(counts):
        return ((),)
    return tuple(split for j, pj in enumerate(p) if counts[j] for split in vector_compositions(
        tuple(c - (i == j) for i, c in enumerate(counts)), pj))


def _size_table(counts: tuple[int, ...], p: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The size of every pool of at most ``counts`` internal vertices by
    class, built bottom-up and building no pool: a pool's size sums the
    products of its parts' sizes over its splits."""
    sizes: dict[tuple[int, ...], int] = {}
    for sub in itertools.product(*(range(c + 1) for c in counts)):
        sizes[sub] = _total(sizes, tree_plan(sub, p))
    return sizes


def _total(sizes: dict[tuple[int, ...], int], splits: Iterable[Split]) -> int:
    """The sum over ``splits`` of the products of their parts' sizes."""
    return sum(prod(map(sizes.__getitem__, split)) for split in splits)


def count_mixed_forests(profile: VecProfile, gamma: int) -> int:
    """The number of forests forest.iter_mixed_forests(profile, gamma)
    yields, with the same checks first: the forest splits' products summed
    over the profile's table of pool sizes."""
    check_nat(gamma, "gamma")
    check_budget(catalan_vector(profile, gamma))
    return _total(_size_table(profile.n, profile.p), vector_compositions(profile.n, gamma))


def count_forests(beta: int, n: int, gamma: int) -> int:
    """The number of forests forest.iter_forests(beta, n, gamma) yields,
    counted by count_mixed_forests."""
    return count_mixed_forests(beta_profile(beta, n), gamma)


# ---------------------------------------------------------------------------
# The counted census
# ---------------------------------------------------------------------------

# One slice's alpha-free part: (residual profile, marks, forests, free_slots).
Term = tuple[VecProfile, tuple[int, ...], Rat, int]


def check_alpha_gamma(alpha: int, gamma: int) -> int:
    """Validate natural alpha >= gamma >= 1 and return alpha."""
    check_nat(alpha, "alpha")
    check_nat(gamma, "gamma")
    if gamma < 1 or alpha < gamma:
        raise ValueError(f"need alpha >= gamma >= 1, got alpha={alpha}, gamma={gamma}")
    return alpha


def census_terms(profile: VecProfile, gamma: int) -> list[Term]:
    """The alpha-free part of every census slice: each split of profile.n
    into internal counts plus color marks, as (residual profile, marks,
    forests, free_slots) with marks in lexicographic order, forests =
    catalan_vector(residual, gamma) and free_slots =
    residual.leaf_count(gamma) - gamma.  The slice then holds forests *
    multinomial(free_slots + alpha, marks) structures: its forests, each
    with free_slots + alpha slots (the leaves and the alpha - gamma planted
    roots) to color.  The residuals derive from the checked ``profile`` and
    are built unchecked."""
    out = []
    for marks in itertools.product(*(range(nj + 1) for nj in profile.n)):
        residual = VecProfile._make(tuple(nj - ij for nj, ij in zip(profile.n, marks)), profile.p)
        out.append((residual, marks, catalan_vector(residual, gamma),
                    residual.leaf_count(gamma) - gamma))
    return out


def census_sizes(profile: VecProfile, gamma: int, alpha: RatLike,
                 ) -> list[tuple[VecProfile, tuple[int, ...], Rat]]:
    """Every split of profile.n into internal counts plus color marks, as
    (residual profile, marks, size) with marks in lexicographic order and
    size the number of structures
    involution.enumerate_colored_vector(residual, marks, gamma, alpha)
    yields, built on census_terms(profile, gamma).  Validates nothing and
    checks no budget, so it also serves gamma = 0 and rational alpha, where
    the sizes are formal."""
    return [(residual, marks, forests * multinomial(free_slots + alpha, marks))
            for residual, marks, forests, free_slots in census_terms(profile, gamma)]


def census_slices(profile: VecProfile, gamma: int, alpha: int,
                  ) -> list[tuple[VecProfile, tuple[int, ...], Rat]]:
    """census_sizes, once the whole census is known to fit the structure
    budget."""
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
    times the colorings of their slots.  The census is checked against the
    structure budget first; then one table of pool sizes, the profile's,
    counts every slice's forests, as count_mixed_forests counts them.
    Equals (-1)**sum(n) * multinomial(alpha-gamma, n)."""
    check_alpha_gamma(alpha, gamma)
    slices = census_slices(profile, gamma, alpha)
    sizes = _size_table(profile.n, profile.p)
    total = 0
    for residual, marks, _ in slices:
        forests = _total(sizes, vector_compositions(residual.n, gamma))
        slots = residual.leaf_count(gamma) - gamma + alpha
        total += (-1) ** sum(marks) * forests * _count_colorings(slots, marks)
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
