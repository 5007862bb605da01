"""Ordered rooted trees and forests: exhaustive generators and text codec.

A tree is its text.  A ``Tree`` and a ``Forest`` are immutable values
(``exact.Record``) with one field, ``text``, their parenthesis encoding
below, and show as ``Tree(text='(oo)')``.  ``Tree(children)`` and
``Forest(trees)`` join their parts' texts.  A value equals only its own
kind, compares and hashes by its text, and is its own copy, so values of
any depth compare, hash and pickle.

One lazy generator, ``iter_mixed_forests``, yields every forest; beta-ary
forests (``iter_forests``) are its one-class case.  It yields in a fixed
canonical order (child-count splits in lexicographic order, subtrees left
to right), so its output is stable golden-test material; the
``generate_*`` functions are lists of the same sequence, and
``census.count_mixed_forests`` counts it without building it.  Each of
them checks its arguments and the structure budget of ``census`` when it
is called, before the first forest.  Past that check the stream is pure
``itertools`` composition: the generated trees are valid by construction
and are never checked again.

Subtrees are drawn from pools, one per vector of internal-vertex counts.  A
pool is a tuple of tree texts, each "(" + its children's texts + ")" over
``itertools.product`` of smaller pools, and a forest wraps the ";"-join of
its trees' texts once.  A pool of at most POOL_CACHE_MAX trees is built
once and kept; a larger one is regenerated on each use, so memory stays
bounded by the cap rather than by the output.  A pool's trees follow its
``census.tree_plan``.  Pools are built bottom-up and no function here
recurses, so no depth of tree reaches the recursion limit.

Text encoding, bit-exact::

    forest := tree (";" tree)* | ""
    tree   := "o" | "(" tree+ ")"

A leaf is "o"; an internal vertex wraps the concatenation of its children
in parentheses; components are joined by ";".  The text is the forest's
preorder (Lukasiewicz) word, so the i-th "o" of the text names leaf i of
the forest, and one pass over it (``layout``) places every leaf and every
level: the pairing finds its vertices there and splices the text.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .census import Split, beta_profile, check_budget, tree_plan, vector_compositions
from .counting import VecProfile, catalan_vector
from .exact import Record, check_nat


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

class _Text(Record):
    """The base of Tree and Forest: a value holding its text.  Immutable,
    so a copy or a deep copy is the value itself."""

    __slots__ = ()

    def __copy__(self) -> _Text:
        return self

    def __deepcopy__(self, memo: dict) -> _Text:
        return self


class Tree(_Text):
    """Ordered rooted tree, held as its text: "o" for a leaf, else "(" + its
    children's texts + ")".  ``Tree(children)`` joins the children's texts."""

    __slots__ = ("text",)

    def __new__(cls, children: Iterable[Tree] = ()) -> Tree:
        inner = "".join([child.text for child in children])
        return cls._make(f"({inner})" if inner else "o")


LEAF = Tree()


class Forest(_Text):
    """Ordered sequence of trees, held as its text: the trees' texts joined
    by ";", one per component (there may be none).  ``Forest(trees)`` joins
    the trees' texts.

    All component roots sit on depth 0; children of depth-d vertices sit on
    depth d+1.  Left-to-right order inside a depth is component-major.
    """

    __slots__ = ("text",)

    def __new__(cls, trees: Iterable[Tree] = ()) -> Forest:
        return cls._make(";".join([tree.text for tree in trees]))


class Layout(NamedTuple):
    """A forest's text, the position of each of its leaves ("o") in preorder,
    and the positions of its vertices ("o" or "(") by depth, each level left
    to right, which is text order.  Leaf i of the forest is the "o" at
    leaves[i]."""

    text: str
    leaves: list[int]
    levels: list[list[int]]


def layout(text: str) -> Layout:
    """The Layout of a forest's text, from one pass over it."""
    leaves, levels, depth = [], [], 0
    for pos, ch in enumerate(text):
        if ch == ")":
            depth -= 1
        elif ch != ";":
            if depth == len(levels):
                levels.append([])
            levels[depth].append(pos)
            if ch == "o":
                leaves.append(pos)
            else:
                depth += 1
    return Layout(text, leaves, levels)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# Subtree pools of at most this many trees are built once and kept; larger
# ones are regenerated on each use.  For beta = 3 that keeps the pools of
# up to 7 internal vertices, for beta = 2 up to 9.
POOL_CACHE_MAX = 10_000

_pools: dict[tuple[tuple[int, ...], tuple[int, ...]], Optional[tuple[str, ...]]] = {}


def _pool(counts: tuple[int, ...], p: tuple[int, ...]) -> Optional[tuple[str, ...]]:
    """The texts of all trees with internal-vertex counts ``counts``, or
    None when there are more than POOL_CACHE_MAX of them."""
    key = (counts, p)
    if key not in _pools:
        # Bottom-up, so that building a pool never recurses: a subtree's
        # counts are componentwise at most its tree's, which puts its pool
        # earlier in lexicographic order.
        for sub in itertools.product(*(range(c + 1) for c in counts)):
            if (sub, p) not in _pools:
                held = catalan_vector(VecProfile(sub, p), 1) <= POOL_CACHE_MAX
                _pools[sub, p] = tuple(_trees(tree_plan(sub, p), p)) if held else None
    return _pools[key]


# A pool over the cap is regenerated on each use from a plan made once.
_large_plan = lru_cache(maxsize=None)(tree_plan)


def _trees(plan: tuple[Split, ...], p: tuple[int, ...]) -> Iterator[str]:
    """The texts of the trees of ``plan``, in canonical order: "o" for the
    split of no children, else the children's texts joined in parentheses."""
    return itertools.chain.from_iterable(
        map("({})".format, map("".join, _product(split, p))) if split else ("o",) for split in plan)


def _product(split: Split, p: tuple[int, ...]) -> Iterator[tuple[str, ...]]:
    """itertools.product over the pools of ``split``, in the same order.
    As itertools.product holds all its arguments, the first pool over the
    cap (None) is regenerated through _trees in a nested loop, and what
    follows it for each prefix."""
    pools = tuple(map(_pool, split, itertools.repeat(p)))
    if None not in pools:
        return itertools.product(*pools)
    i = pools.index(None)
    heads = itertools.product(*pools[:i])
    large = _large_plan(split[i], p)
    if all(pool is not None and len(pool) == 1 for pool in pools[i + 1:]):
        # A tail of one-tree pools (leaves, say) is the same for every item.
        tail = [itertools.repeat(pool[0]) for pool in pools[i + 1:]]
        return itertools.chain.from_iterable(
            zip(*map(itertools.repeat, head), _trees(large, p), *tail) for head in heads)
    return itertools.chain.from_iterable(map((*head, tree).__add__, _product(split[i + 1:], p))
                                         for head in heads for tree in _trees(large, p))


def _forests(counts: tuple[int, ...], p: tuple[int, ...], gamma: int) -> Iterator[tuple[str, ...]]:
    """The texts of the trees of each forest, in canonical order."""
    return itertools.chain.from_iterable(
        _product(split, p) for split in vector_compositions(counts, gamma))


def iter_mixed_forests(profile: VecProfile, gamma: int) -> Iterator[Forest]:
    """All gamma-component ordered forests with exactly profile.n[j] internal
    vertices of outdegree profile.p[j] and every other vertex a leaf, in
    canonical order.  Arguments and budget are checked on the call, before
    the first forest."""
    check_nat(gamma, "gamma")
    check_budget(catalan_vector(profile, gamma))
    return map(Forest._make, map(";".join, _forests(profile.n, profile.p, gamma)))


def iter_forests(beta: int, n: int, gamma: int) -> Iterator[Forest]:
    """All gamma-component ordered forests of beta-ary trees with ``n``
    internal vertices in total, in canonical order: the one-class mixed
    forests of profile ((n,), (beta,))."""
    return iter_mixed_forests(beta_profile(beta, n), gamma)


def generate_mixed_forests(profile: VecProfile, gamma: int) -> list[Forest]:
    """The list of iter_mixed_forests(profile, gamma)."""
    return list(iter_mixed_forests(profile, gamma))


def generate_forests(beta: int, n: int, gamma: int) -> list[Forest]:
    """The list of iter_forests(beta, n, gamma)."""
    return list(iter_forests(beta, n, gamma))


# ---------------------------------------------------------------------------
# Text codec
# ---------------------------------------------------------------------------

class ForestSyntaxError(ValueError):
    """Malformed forest text; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


def encode(forest: Forest) -> str:
    """Parenthesis encoding, the text the forest holds; the empty forest
    encodes to ""."""
    return forest.text


def decode(text: str) -> Forest:
    """Parse the parenthesis encoding; inverse of encode on its image.  One
    pass checks the text, which the forest then holds: no tree is built."""
    depth = 0  # the "(" not yet closed
    starts = bool(text)  # a tree must start at the next character
    for pos, ch in enumerate(text):
        if ch in "o(" and (starts or depth):
            starts = ch == "("
            depth += starts
        elif ch == ")" and depth:
            if starts:
                raise ForestSyntaxError("internal vertex needs at least one child", pos)
            depth -= 1
        elif ch == ";" and not depth and not starts:
            starts = True
        else:
            raise ForestSyntaxError(f"unexpected {ch!r}", pos)
    if depth:
        raise ForestSyntaxError("unclosed '('", len(text))
    if starts:
        raise ForestSyntaxError("unexpected end of input", len(text))
    return Forest._make(text)
