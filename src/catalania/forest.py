"""Ordered rooted trees and forests: exhaustive generators and text codec.

Trees are tuples.  A ``Tree`` is the tuple of its child trees, so a leaf is
the empty tree; a ``Forest`` is the tuple of its trees; a ``VertexAddr`` is
a named (component, path) pair.  tuple's own constructor builds each of
them, so ``map(Tree, itertools.product(...))`` runs in C, with no Python
frame per vertex.  All three are immutable and hashable and compare
structurally; a ``Tree`` or ``Forest`` equals only its own kind, never a
plain tuple.

One lazy generator, ``iter_mixed_forests``, yields every forest; beta-ary
forests (``iter_forests``) are its one-class case.  It yields in a fixed
canonical order (child-count splits in lexicographic order, subtrees left
to right), so its output is stable golden-test material; the
``generate_*`` functions are lists of the same sequence, and
``count_mixed_forests`` (``count_forests``) counts it.  Each of them
checks its arguments and counts its output in closed form when it is
called, and refuses, with that estimate, to produce more than the
CATALANIA_MAX_STRUCTS budget (default 5,000,000).  Past that check the
stream is pure ``itertools`` composition: the generated trees are valid by
construction and are never checked again.

Subtrees are drawn from pools, one per vector of internal-vertex counts.
A pool of at most POOL_CACHE_MAX trees is built once and kept, of
``Tree``s; a larger one is regenerated on each use, so memory stays
bounded by the cap rather than by the output.  A count regenerates none:
it multiplies pool sizes, a held pool's size being its number of built
trees and a larger pool's the sum over its splits of its parts' sizes
multiplied.  Pools and sizes are built bottom-up, and ``encode_tree``,
``replace_at`` and ``decode`` use explicit stacks, so no depth of tree
reaches the recursion limit.

``encode_tree`` is the one walk over a tree's tuples: ``Tree`` equality
and hashing, the leaf count and ``leaf_paths`` read the tree's text.
From a process's first encoding on, the trees of held pools carry their
text, so ``encode_tree`` walks only the vertices of other trees.

Text encoding, bit-exact::

    forest := tree (";" tree)* | ""
    tree   := "o" | "(" tree+ ")"

A leaf is "o"; an internal vertex wraps the concatenation of its children
in parentheses; components are joined by ";".  The text is the forest's
preorder (Lukasiewicz) word, and one pass over it (``layout``) places every
leaf and every level, so the pairing reads a forest's shape off its text.
"""

from __future__ import annotations

import itertools
import operator
import os
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from typing import Iterable, Iterator, NamedTuple, Optional

from .counting import VecProfile, catalan_vector
from .exact import check_nat

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
# Data model
# ---------------------------------------------------------------------------

class StrictTuple(tuple):
    """A tuple equal only to tuples of its own class, never to a plain one.

    Immutable, so a copy or a deep copy is the value itself.  The repr is
    ``Name(<tuple repr>)``, written with an explicit stack, so a tree of any
    depth has one.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def __copy__(self) -> StrictTuple:
        return self

    def __deepcopy__(self, memo: dict) -> StrictTuple:
        return self

    def __repr__(self) -> str:
        out = []
        stack: list = [self]  # values still to write, and text (str) to emit as is
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
                continue
            out.append(f"{node.__class__.__name__}((")
            stack.append(",))" if len(node) == 1 else "))")
            for i in range(len(node) - 1, -1, -1):
                item = node[i]
                stack.append(item if type(item).__repr__ is StrictTuple.__repr__ else repr(item))
                if i:
                    stack.append(", ")
        return "".join(out)


class Tree(StrictTuple):
    """Ordered rooted tree: the tuple of its child trees, so a leaf is the
    empty tree.  ``Tree(children)`` is built by tuple's own constructor.

    Equality and hashing read the tree's text (encode_tree), a memo lookup
    for a held pool's tree, so trees of any depth compare and hash.  The
    hash is therefore str's, which is salted per process (PYTHONHASHSEED).
    """

    __slots__ = ()

    @property
    def children(self) -> Tree:
        return self

    is_leaf = property(operator.not_, doc="True for a vertex without children.")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Tree:
            return StrictTuple.__eq__(self, other)
        return self is other or encode_tree(self) == encode_tree(other)

    def __hash__(self) -> int:
        return hash(encode_tree(self))

    def __reduce__(self) -> tuple:
        return _decode_tree, (encode_tree(self),)


LEAF = Tree()


class Forest(StrictTuple):
    """Ordered sequence of trees, as the tuple of its trees; the component
    count is gamma (may be 0).

    All component roots sit on depth 0; children of depth-d vertices sit on
    depth d+1.  Left-to-right order inside a depth is component-major.
    """

    __slots__ = ()

    @property
    def trees(self) -> Forest:
        return self

    gamma = property(len, doc="The number of components.")

    def __reduce__(self) -> tuple:
        return decode, (encode(self),)


class VertexAddr(NamedTuple):
    """Address of a vertex: component index plus child-index path from the
    component root.  Tuple ordering of (component, path) is left-to-right
    order inside a fixed depth and component-major preorder overall.
    """

    component: int
    path: tuple[int, ...] = ()


class Layout(NamedTuple):
    """A forest's text, the position of each of its leaves ("o") in preorder,
    and the positions of its vertices ("o" or "(") by depth, each level left
    to right, which is text order."""

    text: str
    leaves: list[int]
    levels: list[list[int]]

    def position(self, addr: VertexAddr) -> int:
        """The text position of the vertex at ``addr``, which must exist: a
        vertex's i-th child is the i-th vertex one level down after it."""
        pos = self.levels[0][addr.component]
        for level, i in zip(self.levels[1:], addr.path):
            pos = level[bisect_right(level, pos) + i]
        return pos

    def address(self, pos: int) -> VertexAddr:
        """The address of the vertex at text position ``pos``, from one scan
        of the text before it, which counts the children that end there of
        each vertex still open, and the components that end there."""
        ends = [0]
        for ch in self.text[:pos]:
            if ch == "(":
                ends.append(0)
            elif ch != ";":
                if ch == ")":
                    ends.pop()
                ends[-1] += 1
        return VertexAddr(ends[0], tuple(ends[1:]))


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


def count_leaves(forest: Forest) -> int:
    """Number of childless vertices of the forest: the "o"s of its text."""
    return encode(forest).count("o")


def leaf_paths(tree: Tree) -> list[tuple[int, ...]]:
    """The child-index path from the root to each leaf of ``tree``, in
    preorder, read off its text in one pass."""
    out = []
    path = [0]  # the index of the next child of each open vertex, below a sentinel
    for ch in encode_tree(tree):
        if ch == "(":
            path.append(0)
            continue
        if ch == "o":
            out.append(tuple(path[1:]))
        else:
            path.pop()
        path[-1] += 1
    return out


def leaf_addresses(forest: Forest) -> list[VertexAddr]:
    """Addresses of all leaves, in component-major preorder, which is
    VertexAddr order."""
    return [VertexAddr(comp, path) for comp, tree in enumerate(forest) for path in leaf_paths(tree)]


def subtree_at(forest: Forest, addr: VertexAddr) -> Tree:
    """The subtree rooted at addr; raises if the address does not exist."""
    try:
        return reduce(operator.getitem, addr.path, forest[addr.component])
    except IndexError:
        raise ValueError(f"no vertex at {addr}") from None


def replace_at(forest: Forest, addr: VertexAddr, new: Tree) -> Forest:
    """Forest with the subtree at addr swapped for ``new``."""
    steps = (addr.component, *addr.path)
    try:  # the forest, then each vertex down to the one replaced
        nodes = list(itertools.accumulate(steps, operator.getitem, initial=forest))
    except IndexError:
        raise ValueError(f"no vertex at {addr}") from None
    for parent, i in zip(reversed(nodes[:-1]), reversed(steps)):
        new = parent.__class__(parent[:i] + (new,) + parent[i + 1:])
    return new


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def check_arity(beta: int) -> int:
    """Validate a uniform outdegree beta >= 1."""
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 1:
        raise ValueError(f"beta must be an integer >= 1, got {beta!r}")
    return beta


def _vector_compositions(vec: tuple[int, ...], parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
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
        for rest in _vector_compositions(rest_vec, parts - 1):
            yield (head, *rest)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts, lexicographic:
    the one-coordinate case of _vector_compositions."""
    return (tuple(v for (v,) in split) for split in _vector_compositions((total,), parts))


# Subtree pools of at most this many trees are built once and kept; larger
# ones are regenerated on each use.  For beta = 3 that keeps the pools of
# up to 7 internal vertices, for beta = 2 up to 9.
POOL_CACHE_MAX = 10_000

_Split = tuple[tuple[int, ...], ...]


_pools: dict[tuple[tuple[int, ...], tuple[int, ...]], Optional[tuple[Tree, ...]]] = {}


def _pool(counts: tuple[int, ...], p: tuple[int, ...]) -> Optional[tuple[Tree, ...]]:
    """All trees with internal-vertex counts ``counts``, or None when there
    are more than POOL_CACHE_MAX of them."""
    key = (counts, p)
    if key not in _pools:
        # Bottom-up, so that building a pool never recurses: a subtree's
        # counts are componentwise at most its tree's, which puts its pool
        # earlier in lexicographic order.
        for sub in itertools.product(*(range(c + 1) for c in counts)):
            if (sub, p) not in _pools:
                held = catalan_vector(VecProfile(sub, p), 1) <= POOL_CACHE_MAX
                _pools[sub, p] = tuple(_trees(_tree_plan(sub, p), p)) if held else None
                if _texted:
                    _add_texts([_pools[sub, p]])
    return _pools[key]


def _tree_plan(counts: tuple[int, ...], p: tuple[int, ...]) -> tuple[_Split, ...]:
    """Each child split of a root, by root class, in canonical order.  A tree
    without internal vertices is a leaf, the one tree of no children."""
    if not any(counts):
        return ((),)
    return tuple(split for j, pj in enumerate(p) if counts[j] for split in _vector_compositions(
        tuple(c - (i == j) for i, c in enumerate(counts)), pj))


# A pool over the cap is regenerated on each use, from a plan made once.
_large_plan = lru_cache(maxsize=None)(_tree_plan)


def _trees(plan: tuple[_Split, ...], p: tuple[int, ...]) -> Iterator[Tree]:
    """The trees of ``plan``, in canonical order."""
    return itertools.chain.from_iterable(map(Tree, _product(split, p)) for split in plan)


def _product(split: _Split, p: tuple[int, ...]) -> Iterator[tuple]:
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


def _forests(counts: tuple[int, ...], p: tuple[int, ...], gamma: int) -> Iterator[tuple]:
    """The trees of each forest, in canonical order."""
    return itertools.chain.from_iterable(
        _product(split, p) for split in _vector_compositions(counts, gamma))


def _beta_profile(beta: int, n: int) -> VecProfile:
    """The one-class profile of beta-ary forests with n internal vertices."""
    check_arity(beta)
    check_nat(n)
    return VecProfile((n,), (beta,))


def iter_mixed_forests(profile: VecProfile, gamma: int) -> Iterator[Forest]:
    """All gamma-component ordered forests with exactly profile.n[j] internal
    vertices of outdegree profile.p[j] and every other vertex a leaf, in
    canonical order.  Arguments and budget are checked on the call, before
    the first forest."""
    check_nat(gamma, "gamma")
    check_budget(catalan_vector(profile, gamma))
    return map(Forest, _forests(profile.n, profile.p, gamma))


def count_mixed_forests(profile: VecProfile, gamma: int) -> int:
    """The number of forests iter_mixed_forests(profile, gamma) yields, with
    the same checks first, from a table of pool sizes built bottom-up, as
    _pool builds pools: a held pool's size is its number of trees, a pool
    over the cap sums the products of its parts' sizes over its splits, and
    the forests sum them over the forest splits."""
    check_nat(gamma, "gamma")
    check_budget(catalan_vector(profile, gamma))
    counts, p = profile.n, profile.p
    sizes: dict[tuple[int, ...], int] = {}

    def total(splits: Iterable[_Split]) -> int:
        return sum(prod(map(sizes.__getitem__, split)) for split in splits)

    _pool(counts, p)  # builds every pool up to counts, so each _pool below is a lookup
    for sub in itertools.product(*(range(c + 1) for c in counts)):
        pool = _pool(sub, p)
        sizes[sub] = len(pool) if pool is not None else total(_large_plan(sub, p))
    return total(_vector_compositions(counts, gamma))


def iter_forests(beta: int, n: int, gamma: int) -> Iterator[Forest]:
    """All gamma-component ordered forests of beta-ary trees with ``n``
    internal vertices in total, in canonical order: the one-class mixed
    forests of profile ((n,), (beta,))."""
    return iter_mixed_forests(_beta_profile(beta, n), gamma)


def count_forests(beta: int, n: int, gamma: int) -> int:
    """The number of forests iter_forests(beta, n, gamma) yields, counted by
    count_mixed_forests."""
    return count_mixed_forests(_beta_profile(beta, n), gamma)


def generate_mixed_forests(profile: VecProfile, gamma: int) -> list[Forest]:
    """The list of iter_mixed_forests(profile, gamma)."""
    return list(iter_mixed_forests(profile, gamma))


def generate_forests(beta: int, n: int, gamma: int) -> list[Forest]:
    """The list of iter_forests(beta, n, gamma)."""
    return list(iter_forests(beta, n, gamma))


def generate_kary(beta: int, n: int) -> list[Tree]:
    """All trees whose internal vertices have outdegree exactly ``beta``,
    with exactly ``n`` internal vertices, in canonical order."""
    return [forest[0] for forest in iter_forests(beta, n, 1)]


# ---------------------------------------------------------------------------
# Text codec
# ---------------------------------------------------------------------------

class ForestSyntaxError(ValueError):
    """Malformed forest text; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


# _texts keys every held pool's tree by id to its text, from the first
# encoding on, so a process that never encodes keeps none.  _texted holds
# LEAF and those pools, so no id is reused while its entry lives.
_texts = {}
_texted = []


def _add_texts(pools: Iterable[Optional[tuple[Tree, ...]]]) -> None:
    """Key the trees of each held pool, in the order the pools were built:
    bottom-up, so a pool's subtrees are keyed before it."""
    for pool in filter(None, pools):
        _texted.append(pool)
        _texts.update(zip(map(id, pool), map(encode_tree, pool)))


def encode_tree(tree: Tree) -> str:
    """Parenthesis encoding of one tree, walking only the vertices that are
    not a held pool's tree.  The first call keys the pools built so far;
    _pool keys those built later."""
    if not _texted:
        _add_texts([(LEAF,), *_pools.values()])
    out = []
    stack: list = [tree]  # trees, and text (str) to emit as is
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
        elif not node:
            out.append("o")
        elif (text := _texts.get(id(node))) is not None:
            out.append(text)
        else:
            out.append("(")
            stack.append(")")
            stack.extend(reversed(node))
    return "".join(out)


def encode(forest: Forest) -> str:
    """Parenthesis encoding; the empty forest encodes to ""."""
    # A forest of held pools' trees is joined with no Python call per tree.
    texts = list(map(_texts.get, map(id, forest)))
    return ";".join(map(encode_tree, forest) if None in texts else texts)


def _decode_tree(text: str) -> Tree:
    """The one tree that ``text`` encodes: how a pickled Tree is rebuilt."""
    (tree,) = decode(text)
    return tree


def decode(text: str) -> Forest:
    """Parse the parenthesis encoding; inverse of encode on its image."""
    trees: list[Tree] = []
    stack = [trees]  # the trees so far, then the children so far of each unclosed "("
    starts = bool(text)  # a tree must start at the next character
    for pos, ch in enumerate(text):
        if ch in "o(" and (starts or len(stack) > 1):
            if ch == "o":
                stack[-1].append(LEAF)
            else:
                stack.append([])
            starts = ch == "("
        elif ch == ")" and len(stack) > 1:
            if starts:
                raise ForestSyntaxError("internal vertex needs at least one child", pos)
            kids = stack.pop()
            stack[-1].append(Tree(kids))
        elif ch == ";" and len(stack) == 1 and not starts:
            starts = True
        else:
            raise ForestSyntaxError(f"unexpected {ch!r}", pos)
    if len(stack) > 1:
        raise ForestSyntaxError("unclosed '('", len(text))
    if starts:
        raise ForestSyntaxError("unexpected end of input", len(text))
    return Forest(trees)
