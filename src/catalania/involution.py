"""Colored planted forests and the weight-reversing pairing on them.

A colored forest is an ordered forest plus a number of planted roots
(colorable marks sitting above the first component, with no depth of their
own) and a coloring of a subset of leaves and planted roots with colors in
{1..t}.  Internal vertices are never colored.  A leaf is named by its
index, i for the i-th "o" of the forest's text (its preorder word).

``classify`` splits the structures with at least one internal vertex or one
colored leaf into two classes by scanning the bottom two levels of the
forest (levels are forest-global, component-major):

* first class: some colored leaf in the bottom two levels has no vertex
  with children anywhere to its left on its level.  The deepest, then
  leftmost, such leaf is the *candidate*.
* second class: no colored leaf on the bottom level, and some internal
  vertex on the level above it has no colored leaf to its left there.  The
  leftmost one is the *incumbent*.

``involute`` promotes a first-class candidate of color j to an internal
vertex by attaching p[j-1] leaf children (erasing its color), and demotes a
second-class incumbent with p[j-1] leaf children back to a colored leaf;
the colored leaves after the acting vertex move up by p[j-1] - 1 indices,
or back down.  The map is a fixed-point-free involution that swaps the
classes and flips the (-1)**(number of colored objects) weight, so every
alternating census is carried entirely by the *exceptional* structures:
those with no colored leaf and no internal vertex (only planted roots
colored).

A ``ColoredForest`` is the tuple (forest, planted, leaf_colors, root_colors)
and a ``Classification`` the named pair (kind, vertex), the vertex being
the acting vertex's position in the forest's text.  Both are immutable and
hashable, and compare structurally at any depth of forest, since a forest
compares and hashes by its text.

Validation happens where structures come from outside.  ``ColoredForest(...)``
checks and sorts every coloring that users build or decode.  The
enumerators check their arguments and the structure budget of ``census``
on the call: ``enumerate_colored_vector`` and its one-class case
``enumerate_colored`` for their slice, and the scalar census
(``colored_census``, ``pair_lines``), which is the one-class vector census,
for all its slices before the first (``census.census_slices``).  They then
build each structure from fields that are canonical by construction
(leaves in preorder, colors chosen in ascending order) and skip that check;
so does the pairing, whose output is canonical whenever its input is.  A
slice finds its colorings once, as sorted (leaf index, color) and (root
index, color) pairs that serve every forest of the slice, and pairs each
forest with each of them.  The signed sums, which count the census without
building it, are ``census.signed_sum`` and ``census.signed_sum_vector``.
``pair_lines`` checks its own walk against them: a slice that walks other
than its counted number of structures raises RuntimeError.

The classes are read on text.  A forest's text is its preorder word, and
one pass over it (``forest.layout``) places its leaves and its levels; the
rule reads the bottom two levels there.  ``pairings`` and ``pair_lines``
(``--dump-pairs``) lay each forest out once for all of its colorings and
classify each structure once.  ``pair_lines`` yields its lines as they are
asked for, and holds one forest and its slice's colorings at a time, so
the dump's memory does not grow with the census.  It reads each coloring's
leaf positions off the layout and writes its lines by splicing into the
forest's text: a structure's colored leaves become "o*", and a first-class
structure's partner is the same splice with the candidate's "o" grown to
"(" + "o" * beta + ")", so no partner forest is built.  ``classify``,
``encode_colored`` and ``involute`` find their vertices on the layout, in
time linear in the text, and ``involute`` splices the forest's text there.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from itertools import repeat
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .census import census_slices, check_alpha_gamma, check_arity, check_budget, scalar_profile
from .counting import VecProfile, catalan_vector, check_outdegrees
from .exact import check_nat, multinomial
from .forest import Forest, Layout, generate_mixed_forests, iter_mixed_forests, layout

FIRST = "first"
SECOND = "second"
EXCEPTIONAL = "exceptional"


class InvolutionDomainError(ValueError):
    """The pairing was applied to an exceptional structure."""


class StructureError(ValueError):
    """A structure is inconsistent with the declared outdegree classes."""


class ColoredForest(tuple):
    """Forest + planted roots + coloring of leaves and planted roots, as the
    tuple (forest, planted, leaf_colors, root_colors).

    ``leaf_colors`` maps leaf indices to colors >= 1 and is stored as a
    tuple of pairs sorted by index, leaf i being the i-th "o" of the
    forest's text (its i-th leaf in preorder); ``root_colors`` maps
    planted-root indices (0 .. planted-1) to colors, sorted by index.
    Structures are immutable (a copy is the value itself), hashable and
    compare structurally at any depth of forest, never equal to a plain
    tuple.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ColoredForest:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def __copy__(self) -> ColoredForest:
        return self

    def __deepcopy__(self, memo: dict) -> ColoredForest:
        return self

    forest = property(operator.itemgetter(0))
    planted = property(operator.itemgetter(1))
    leaf_colors = property(operator.itemgetter(2))
    root_colors = property(operator.itemgetter(3))

    def __new__(cls, forest: Forest, planted: int = 0,
                leaf_colors: Iterable[tuple[int, int]] = (),
                root_colors: Iterable[tuple[int, int]] = ()) -> ColoredForest:
        check_nat(planted, "planted")
        leaf_colors = tuple(leaf_colors)
        n_leaves = forest.text.count("o")
        seen_leaves = set()
        for leaf, color in leaf_colors:
            if leaf.__class__ is not int or not 0 <= leaf < n_leaves:
                raise StructureError(f"leaf index {leaf!r} is not an int in range({n_leaves})")
            if color.__class__ is not int or color < 1:
                raise StructureError(f"colors must be ints >= 1, got {color!r}")
            if leaf in seen_leaves:
                raise StructureError(f"duplicate color entry for leaf {leaf}")
            seen_leaves.add(leaf)
        leaf_colors = tuple(sorted(leaf_colors))
        root_colors = tuple(sorted(root_colors))
        seen_roots = set()
        for idx, color in root_colors:
            if idx.__class__ is not int or not 0 <= idx < planted:
                raise StructureError(f"planted-root index {idx!r} is not an int in range({planted})")
            if color.__class__ is not int or color < 1:
                raise StructureError(f"colors must be ints >= 1, got {color!r}")
            if idx in seen_roots:
                raise StructureError(f"duplicate color entry for root {idx}")
            seen_roots.add(idx)
        return tuple.__new__(cls, (forest, planted, leaf_colors, root_colors))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return ("ColoredForest(forest={!r}, planted={!r}, leaf_colors={!r}, "
                "root_colors={!r})".format(*self))

    @property
    def colored_count(self) -> int:
        return len(self.leaf_colors) + len(self.root_colors)

    def weight(self) -> int:
        return -1 if self.colored_count % 2 else 1


def _built(forest: Forest, planted: int, leaf_colors: tuple, root_colors: tuple) -> ColoredForest:
    """ColoredForest(forest, planted, leaf_colors, root_colors) from fields
    that already hold: every leaf index is below the leaf count, every root
    index is below ``planted``, every color is >= 1, and both tuples are
    sorted without duplicates.  It skips the check."""
    return tuple.__new__(ColoredForest, (forest, planted, leaf_colors, root_colors))


class Classification(NamedTuple):
    """Outcome of ``classify``: which class, and the text position of the
    acting vertex in the forest's text (None for an exceptional one)."""

    kind: str  # FIRST | SECOND | EXCEPTIONAL
    vertex: Optional[int] = None


def classify(c: ColoredForest, shape: Optional[Layout] = None,
             colored: Optional[list[int]] = None) -> Classification:
    """Assign a colored forest to its class (planted roots play no part), by
    the one classification rule on the layout of its forest's text.  The
    bottom level holds leaves only, so its first colored leaf is the
    candidate.  Failing that, on the level above, a colored leaf left of the
    first internal vertex is the candidate, and else that vertex is the
    incumbent.

    ``shape`` and ``colored`` are trusted hand-offs for the census walks,
    which lay each forest out once: the layout of c.forest's text and the
    text positions of the leaves of c.leaf_colors, in order.  They are used
    unchecked, so other values misclassify c.  Other callers leave them out."""
    if shape is None:
        shape = layout(c.forest.text)
    if colored is None:
        colored = [shape.leaves[leaf] for leaf, _ in c.leaf_colors]
    for pos in itertools.chain(*shape.levels[-1:-3:-1]):
        if shape.text[pos] == "(":
            return Classification(SECOND, pos)
        if pos in colored:
            return Classification(FIRST, pos)
    return Classification(EXCEPTIONAL)


def involute(c: ColoredForest, p: Sequence[int]) -> ColoredForest:
    """Apply the pairing under outdegree classes ``p`` (scalar mode: [beta]).

    First class: attach p[j-1] leaves to the color-j candidate and erase
    its color.  Second class: delete the incumbent's p[j-1] leaf children
    and color it j.  Raises InvolutionDomainError on exceptional input and
    StructureError if the structure disagrees with ``p``.
    """
    p = check_outdegrees(p)
    shape = layout(c.forest.text)
    return _partner(c, classify(c, shape), p, shape)


def _partner(c: ColoredForest, cls: Classification, p: tuple[int, ...],
             shape: Layout) -> ColoredForest:
    """involute(c, p), given cls = classify(c), a checked ``p`` and the
    layout of c.forest's text, which is spliced at the acting vertex.  The
    leaves before that vertex keep their indices, and each later one moves
    by the leaves that the splice adds or removes."""
    if cls.kind == EXCEPTIONAL:
        raise InvolutionDomainError(
            "exceptional structure (no colored leaf, no internal vertex) has no partner")
    text, pos = shape.text, cls.vertex
    leaf = bisect_left(shape.leaves, pos)  # the leaves before the acting vertex
    k = bisect_left(c.leaf_colors, (leaf,))  # the colored ones among them
    if cls.kind == FIRST:
        color = c.leaf_colors[k][1]
        if color > len(p):
            raise StructureError(f"color {color} has no outdegree class in {p}")
        degree = p[color - 1]
        grown = text[:pos] + "(" + "o" * degree + ")" + text[pos + 1:]
        moved = [(i + degree - 1, j) for i, j in c.leaf_colors[k + 1:]]
        return _built(Forest._make(grown), c.planted, (*c.leaf_colors[:k], *moved),
                      c.root_colors)
    # The incumbent sits one level above the bottom, which holds leaves only
    # and none of them colored: its text is "(" + "o" * degree + ")".
    degree = text.index(")", pos) - pos - 1
    if degree not in p:
        raise StructureError(f"incumbent outdegree {degree} not among classes {p}")
    pruned = text[:pos] + "o" + text[pos + degree + 2:]
    moved = [(i - degree + 1, j) for i, j in c.leaf_colors[k:]]
    recolored = (*c.leaf_colors[:k], (leaf, p.index(degree) + 1), *moved)
    return _built(Forest._make(pruned), c.planted, recolored, c.root_colors)


def pairings(structures: Iterable[ColoredForest], p: Sequence[int],
             ) -> Iterator[tuple[ColoredForest, Classification, Optional[ColoredForest]]]:
    """Each structure with classify(c) and, for a first-class c, its partner
    involute(c, p); None for the other classes.  In a census every
    second-class structure is the partner of a first-class one, so the
    first-class entries list each pair once.

    Classifies each structure once.  A forest is laid out once for a run of
    structures that share it, as the enumerators list each forest's
    colorings one after another."""
    p = check_outdegrees(p)
    forest = shape = None
    for c in structures:
        if c.forest is not forest:
            forest = c.forest
            shape = layout(forest.text)
        cls = classify(c, shape)
        yield c, cls, _partner(c, cls, p, shape) if cls.kind == FIRST else None


# ---------------------------------------------------------------------------
# Enumeration of colored structures
# ---------------------------------------------------------------------------

def _color_assignments(slots: tuple[int, ...], marks: tuple[int, ...]) -> Iterator[tuple]:
    """All ways to pick disjoint subsets of sizes marks[j] from ``slots``;
    yields one ascending tuple per color class."""
    head, *tail = marks
    if not tail:
        return ((chosen,) for chosen in itertools.combinations(slots, head))
    return ((chosen, *rest) for chosen in itertools.combinations(slots, head)
            for rest in _color_assignments(tuple(i for i in slots if i not in chosen), tail))


def _slice_colorings(n_leaves: int, planted: int,
                     marks: tuple[int, ...]) -> list[tuple[tuple, tuple]]:
    """Each coloring of marks[j] slots with color j+1, in census order, as
    its sorted (leaf index, color) and (root index, color) pairs: the same
    for every forest of a slice (all with ``n_leaves`` leaves).  Slots are
    the leaves in preorder, then the planted roots."""
    out = []
    for classes in _color_assignments(tuple(range(n_leaves + planted)), marks):
        slots = sorted((i, j) for j, chosen in enumerate(classes, 1) for i in chosen)
        split = bisect_left(slots, (n_leaves,))
        out.append((tuple(slots[:split]), tuple((i - n_leaves, j) for i, j in slots[split:])))
    return out


def _colorings(profile: VecProfile, gamma: int, planted: int,
               marks: tuple[int, ...]) -> list[ColoredForest]:
    """The slice of ``profile`` and ``marks``: each of its forests with each
    coloring that _slice_colorings finds for their leaf count, forest-major,
    built unchecked as by _built.  It checks nothing."""
    forests = generate_mixed_forests(profile, gamma)
    colorings = _slice_colorings(profile.leaf_count(gamma), planted, marks)
    return [tuple.__new__(ColoredForest, (forest, planted, leaves, roots))
            for forest, (leaves, roots) in itertools.product(forests, colorings)]


def enumerate_colored(beta: int, n_internal: int, n_colored: int, gamma: int,
                      alpha: int) -> list[ColoredForest]:
    """All (alpha-gamma)-planted beta-ary gamma-component forests with
    ``n_internal`` internal vertices and ``n_colored`` colored objects
    (single color), in deterministic order: the one-class case of
    enumerate_colored_vector, and one slice of colored_census."""
    check_alpha_gamma(alpha, gamma)
    check_nat(n_internal, "n_internal")
    check_nat(n_colored, "n_colored")
    profile = VecProfile((n_internal,), (check_arity(beta),))
    return enumerate_colored_vector(profile, (n_colored,), gamma, alpha)


def enumerate_colored_vector(
    profile: VecProfile, marks: Sequence[int], gamma: int, alpha: int,
) -> list[ColoredForest]:
    """All planted mixed forests matching ``profile`` with marks[j] objects
    colored j+1 among leaves and planted roots."""
    check_alpha_gamma(alpha, gamma)
    marks = tuple(marks)
    if len(marks) != profile.t:
        raise ValueError("marks must give one count per outdegree class")
    for m in marks:
        check_nat(m, "marks[j]")
    planted = alpha - gamma
    check_budget(catalan_vector(profile, gamma)
                 * multinomial(profile.leaf_count(gamma) + planted, marks))
    return _colorings(profile, gamma, planted, marks)


# ---------------------------------------------------------------------------
# Alternating censuses
# ---------------------------------------------------------------------------

def colored_census(beta: int, n: int, gamma: int, alpha: int) -> list[list[ColoredForest]]:
    """All colored structures with n_internal + colored = n, as one slice
    per number of colored objects i = 0..n, each in enumerate_colored order:
    the one-class vector census, built.  The whole census is checked
    against the structure budget before the first slice."""
    profile = scalar_profile(beta, n, gamma, alpha)
    return [_colorings(residual, gamma, alpha - gamma, marks)
            for residual, marks, _ in census_slices(profile, gamma, alpha)]


def pair_lines(beta: int, n: int, gamma: int, alpha: int) -> Iterator[str]:
    """The ``--dump-pairs`` lines of colored_census(beta, n, gamma, alpha)
    in census order, as encode_colored writes the structures: "pair c <->
    involute(c, [beta])" for each first-class c, "exceptional c" for each
    exceptional one.  Arguments and the census budget are checked on the
    call; the lines are then made as they are asked for, a forest at a
    time.  A slice that walks other than its counted number of structures
    raises RuntimeError once its walk ends."""
    slices = census_slices(scalar_profile(beta, n, gamma, alpha), gamma, alpha)
    planted, grown = alpha - gamma, "(" + "o" * beta + ")"

    def lines() -> Iterator[str]:
        for residual, marks, size in slices:
            colorings = [(leaves, roots, [i for i, _ in leaves], _planted_text(planted, roots, 1))
                         for leaves, roots in _slice_colorings(residual.leaf_count(gamma),
                                                               planted, marks)]
            walked = 0
            for forest in iter_mixed_forests(residual, gamma):
                shape = layout(forest.text)
                for leaves, roots, indices, prefix in colorings:
                    walked += 1
                    colored = list(map(shape.leaves.__getitem__, indices))
                    cls = classify(_built(forest, planted, leaves, roots), shape, colored)
                    if cls.kind == SECOND:  # listed as the partner of a first-class one
                        continue
                    marked = prefix + _splice(shape.text, zip(colored, repeat("o*")))
                    if cls.kind == EXCEPTIONAL:
                        yield f"exceptional {marked}"
                        continue
                    partner = _splice(shape.text,
                                      ((q, grown if q == cls.vertex else "o*") for q in colored))
                    yield f"pair {marked} <-> {prefix}{partner}"
            if walked != size:
                raise RuntimeError(f"the dump walked {walked} structures of the slice with "
                                   f"marks {marks}, which counts {size}; internal error")

    return lines()


# ---------------------------------------------------------------------------
# Generic signed-matching certificate
# ---------------------------------------------------------------------------

def find_matching_violation(
    structures: Sequence[Hashable],
    weight: Callable[[Hashable], int],
    partner: Callable[[Hashable], Hashable],
    klass: Optional[Callable[[Hashable], object]] = None,
) -> Optional[tuple[str, Hashable]]:
    """First reason why ``partner`` fails to be a fixed-point-free,
    weight-reversing involution on the given set, or None if it is one.

    With ``klass`` given, also requires partner to swap the two classes.
    A repeated structure is reported first: the first one, in input order,
    that occurs more than once.
    """
    pool: set = set()
    dupes: set = set()
    for s in structures:
        (dupes if s in pool else pool).add(s)
    if dupes:
        return ("duplicate structure", next(s for s in structures if s in dupes))
    for s in structures:
        t = partner(s)
        if t not in pool:
            return ("partner leaves the set", s)
        if t == s:
            return ("fixed point", s)
        if partner(t) != s:
            return ("not an involution", s)
        if weight(t) != -weight(s):
            return ("weight not reversed", s)
        if klass is not None and klass(t) == klass(s):
            return ("class not swapped", s)
    return None


def check_signed_matching(
    structures: Sequence[Hashable],
    weight: Callable[[Hashable], int],
    partner: Callable[[Hashable], Hashable],
    klass: Optional[Callable[[Hashable], object]] = None,
) -> bool:
    """True iff ``partner`` perfectly matches the set with opposite weights,
    which certifies that the total weight is zero."""
    return find_matching_violation(structures, weight, partner, klass) is None


# ---------------------------------------------------------------------------
# Text encoding (extends the forest grammar)
# ---------------------------------------------------------------------------

def _splice(text: str, edits: Iterable[tuple[int, str]]) -> str:
    """``text`` with the character at each position of ``edits`` (in
    ascending order) replaced by its string: how colored leaves are
    marked."""
    pieces = []
    done = 0
    for pos, new in edits:
        pieces += (text[done:pos], new)
        done = pos + 1
    pieces.append(text[done:])
    return "".join(pieces)


def _planted_text(planted: int, root_colors: Iterable[tuple[int, int]], num_colors: int) -> str:
    """The planted prefix "P[k:...]|" of a colored forest's text."""
    roots = ",".join(str(i) if num_colors == 1 else f"{i}*{j}" for i, j in root_colors)
    return f"P[{planted}:{roots}]|"


def encode_colored(c: ColoredForest, num_colors: int = 1) -> str:
    """Text form: planted prefix "P[k:...]|" then the forest with colored
    leaves as "o*" (single color) or "o*j" (several colors).

    Root color entries are "i" (single color) or "i*j", comma-separated and
    sorted by index.
    """
    shape = layout(c.forest.text)
    text = _splice(shape.text, ((shape.leaves[leaf], "o*" if num_colors == 1 else f"o*{color}")
                                for leaf, color in c.leaf_colors))
    return _planted_text(c.planted, c.root_colors, num_colors) + text
