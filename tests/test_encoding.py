"""The text codec and the text route of the pairing against plain
reference walks.

A tree and a forest hold their text, which the pools build by joining
their subtrees' texts, ``involution.encode_colored`` and ``classify`` find
the colored leaves on the text's layout, ``involution.pair_lines`` writes a
census's pairs by splicing into forest text, and ``forest.decode`` checks
one character at a time.  The references below walk trees as sequences of
child trees instead: the encoders visit every vertex, the classifier reads
levels of vertex addresses, and the decoder reads a tree at a time.  A
model of nested plain tuples, parsed from the text, is the reference for
the sequence face and the text splices (``TestSequenceFace``).
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalania
from catalania import forest
from catalania.counting import VecProfile
from catalania.exact import binom
from catalania.forest import (
    LEAF,
    Forest,
    ForestSyntaxError,
    Tree,
    VertexAddr,
    decode,
    encode,
    generate_forests,
    generate_mixed_forests,
    iter_forests,
    leaf_addresses,
    replace_at,
    subtree_at,
)
from catalania.involution import (
    EXCEPTIONAL,
    FIRST,
    SECOND,
    Classification,
    ColoredForest,
    classify,
    colored_census,
    encode_colored,
    enumerate_colored_vector,
    involute,
    pair_lines,
    pairings,
)


def reference_encode_tree(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
        elif node:
            out.append("(")
            stack.append(")")
            stack.extend(reversed(tuple(node)))
        else:
            out.append("o")
    return "".join(out)


def reference_encode(f):
    return ";".join(map(reference_encode_tree, f))


def reference_encode_colored(c, num_colors=1):
    pending = iter(c.leaf_colors)
    target, color = next(pending, (None, 0))
    parts = []
    for comp, tree in enumerate(c.forest):
        if comp:
            parts.append(";")
        stack = [((), tree)]
        while stack:
            path, node = stack.pop()
            if node is None:
                parts.append(")")
            elif node:
                parts.append("(")
                stack.append((None, None))
                kids = tuple(node)
                stack.extend((path + (i,), kids[i]) for i in range(len(kids) - 1, -1, -1))
            elif target is not None and target.path == path and target.component == comp:
                parts.append("o*" if num_colors == 1 else f"o*{color}")
                target, color = next(pending, (None, 0))
            else:
                parts.append("o")
    if num_colors == 1:
        roots = ",".join(str(i) for i, _ in c.root_colors)
    else:
        roots = ",".join(f"{i}*{j}" for i, j in c.root_colors)
    return f"P[{c.planted}:{roots}]|{''.join(parts)}"


def reference_levels(f):
    """Vertices by depth as (address, subtree) pairs, each level left to
    right: breadth-first, copying every vertex's path."""
    levels = []
    level = [(VertexAddr(comp, ()), tree) for comp, tree in enumerate(f)]
    while level:
        levels.append(level)
        level = [(VertexAddr(addr.component, addr.path + (i,)), child)
                 for addr, node in level for i, child in enumerate(node)]
    return levels


def reference_classify(c):
    """The classification rule read on levels of vertex addresses."""
    levels = reference_levels(c.forest)
    colored = {addr for addr, _ in c.leaf_colors}
    bottom = len(levels) - 1
    for depth in (bottom, bottom - 1):
        blocked = False
        for addr, node in levels[depth] if depth >= 0 else ():
            if node:
                blocked = True
            elif addr in colored and not blocked:
                return Classification(FIRST, addr)
    if bottom >= 1 and not any(addr in colored for addr, _ in levels[bottom]):
        for addr, node in levels[bottom - 1]:
            if node:
                return Classification(SECOND, addr)
            if addr in colored:
                break
    return Classification(EXCEPTIONAL)


def reference_pair_lines(beta, n, gamma, alpha):
    """The --dump-pairs census as the object route prints it."""
    structures = [c for piece in colored_census(beta, n, gamma, alpha) for c in piece]
    lines = [f"pair {reference_encode_colored(c)} <-> {reference_encode_colored(partner)}"
             if cls.kind == FIRST else f"exceptional {reference_encode_colored(c)}"
             for c, cls, partner in pairings(structures, [beta]) if cls.kind != SECOND]
    return sum(c.weight() for c in structures), lines


def reference_decode(text):
    if text == "":
        return Forest(())
    end = len(text)
    trees = []
    open_kids = []
    pos = 0
    while True:
        if pos >= end:
            raise ForestSyntaxError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "o":
            node = LEAF
        elif ch == "(":
            open_kids.append([])
            node = None
        else:
            raise ForestSyntaxError(f"unexpected {ch!r}", pos)
        pos += 1
        while open_kids:
            if node is not None:
                open_kids[-1].append(node)
            if pos < end and text[pos] in "o(":
                break
            if pos >= end:
                raise ForestSyntaxError("unclosed '('", pos)
            if text[pos] != ")":
                raise ForestSyntaxError(f"unexpected {text[pos]!r}", pos)
            kids = open_kids.pop()
            if not kids:
                raise ForestSyntaxError("internal vertex needs at least one child", pos)
            pos += 1
            node = Tree(kids)
        else:
            trees.append(node)
            if pos >= end:
                return Forest(trees)
            if text[pos] != ";":
                raise ForestSyntaxError(f"unexpected {text[pos]!r}", pos)
            pos += 1


def decoded(parse, text):
    """The forest ``parse`` reads from ``text``, or its error and position."""
    try:
        return parse(text)
    except ForestSyntaxError as err:
        return str(err), err.position


# Hand-built trees: fresh objects, none of them from a pool.
trees = st.recursive(st.just(LEAF), lambda kids: st.lists(kids, min_size=1, max_size=4).map(Tree),
                     max_leaves=30)
forests = st.lists(trees, max_size=4).map(Forest)


class TestEncodeTree:
    @given(f=forests)
    @settings(max_examples=150, deadline=None)
    def test_hand_built_and_decoded_forests(self, f):
        text = reference_encode(f)
        assert encode(f) == text
        assert encode(decode(text)) == text
        assert ";".join(tree.text for tree in f) == text

    @given(shape=st.sampled_from([(2, 4, 2), (3, 3, 3), (1, 5, 2), (2, 10, 1)]),
           pick=st.integers(0, 10**6), graft=trees)
    @settings(max_examples=60, deadline=None)
    def test_pool_trees_with_a_hand_built_subtree(self, shape, pick, graft):
        # (2, 10, 1) draws its trees from a pool over the cap.
        generated = list(itertools.islice(iter_forests(*shape), 2000))
        f = generated[pick % len(generated)]
        assert encode(f) == reference_encode(f)
        leaves = leaf_addresses(f)
        grafted = replace_at(f, leaves[pick % len(leaves)], graft)
        assert encode(grafted) == reference_encode(grafted)

    @given(text=st.text("o();x", max_size=24) | forests.map(reference_encode))
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_the_reference(self, text):
        assert decoded(decode, text) == decoded(reference_decode, text)

    def test_mixed_forests(self):
        for f in generate_mixed_forests(VecProfile((2, 2), (1, 3)), 2):
            assert encode(f) == reference_encode(f)

    @pytest.mark.parametrize("beta,n,gamma,alpha", [(2, 4, 2, 3), (3, 4, 1, 2), (1, 6, 2, 4)])
    def test_partner_forests(self, beta, n, gamma, alpha):
        structures = [c for piece in colored_census(beta, n, gamma, alpha) for c in piece]
        partners = [partner for _, _, partner in pairings(structures, [beta]) if partner]
        assert partners
        for c in structures + partners:
            assert encode(c.forest) == reference_encode(c.forest)

    def test_pool_trees_are_their_text(self):
        f = generate_forests(3, 3, 2)[-1]
        texts = [tree.text for tree in f]
        assert texts == list(map(reference_encode_tree, f))
        # The trees' internal-vertex counts are 3 and 0: each is its pool's text.
        assert [text in forest._pool((text.count("("),), (3,)) for text in texts] == [True, True]


# The reference model: a tree is the plain tuple of its children, a forest
# the plain tuple of its trees, parsed from the text or drawn directly.
model_trees = st.recursive(st.just(()), lambda kids: st.lists(kids, min_size=1, max_size=4).map(tuple),
                           max_leaves=30)
model_forests = st.lists(model_trees, max_size=4).map(tuple)


def model_of(text):
    """The forest that ``text`` encodes, as nested plain tuples."""
    stack = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        elif ch == ")":
            kids = stack.pop()
            stack[-1].append(tuple(kids))
        elif ch == "o":
            stack[-1].append(())
    return tuple(stack[0])


def built(model_tree):
    """The Tree of a model tree, built by Tree(children) from its leaves up."""
    return Tree(map(built, model_tree))


def model_vertices(model):
    """Each vertex of a model forest as (address, model subtree), in preorder."""
    out = []
    stack = [(VertexAddr(comp, ()), tree) for comp, tree in reversed(list(enumerate(model)))]
    while stack:
        addr, node = stack.pop()
        out.append((addr, node))
        stack += [(VertexAddr(addr.component, addr.path + (i,)), node[i])
                  for i in reversed(range(len(node)))]
    return out


def model_replace(model, addr, new):
    """The model forest with the subtree at ``addr`` swapped for ``new``."""
    steps = (addr.component, *addr.path)
    nodes = [model]  # the forest, then each vertex down to the parent of the one replaced
    for i in steps[:-1]:
        nodes.append(nodes[-1][i])
    for parent, i in zip(reversed(nodes), reversed(steps)):
        new = parent[:i] + (new,) + parent[i + 1:]
    return new


def face(value):
    """A Tree or Forest read through len, indexing, iteration and bool into
    nested plain tuples."""
    items = list(value)
    assert items == [value[i] for i in range(len(value))] == [value[i - len(value)] for i in
                                                              range(len(value))]
    assert bool(value) == bool(items)
    return tuple(map(face, items))


class TestSequenceFace:
    """Trees and forests as sequences, and ``subtree_at`` and ``replace_at``
    on their text, against the tuple model."""

    @staticmethod
    def check(f, model, graft):
        assert face(f) == model and f.gamma == len(model)
        vertices = model_vertices(model)
        assert leaf_addresses(f) == [addr for addr, node in vertices if not node]
        for addr, node in vertices:
            sub = subtree_at(f, addr)
            assert sub.text == reference_encode_tree(node) and face(sub) == node
            assert sub.is_leaf == (node == ())
            grafted = replace_at(f, addr, built(graft))
            assert grafted.text == reference_encode(model_replace(model, addr, graft))
        missing = [VertexAddr(len(model), ())]
        missing += [VertexAddr(addr.component, addr.path + (len(node),)) for addr, node in vertices]
        for addr in missing:
            with pytest.raises(ValueError, match="no vertex at"):
                subtree_at(f, addr)
            with pytest.raises(ValueError, match="no vertex at"):
                replace_at(f, addr, LEAF)

    @given(model=model_forests, how=st.sampled_from(["built", "decoded"]), graft=model_trees)
    @settings(max_examples=100, deadline=None)
    def test_hand_built_and_decoded_forests(self, model, how, graft):
        text = reference_encode(model)
        f = Forest(map(built, model)) if how == "built" else decode(text)
        assert f.text == text and model_of(text) == model
        self.check(f, model, graft)

    @given(shape=st.sampled_from([(2, 10, 1), (3, 4, 2), (1, 6, 2), (2, 5, 3)]),
           cap=st.sampled_from([0, 2, 5]), pick=st.integers(0, 10**6), graft=model_trees)
    @settings(max_examples=40, deadline=None)
    def test_forests_from_pools_over_the_cap(self, pool_cap, shape, cap, pick, graft):
        with pool_cap(cap):
            generated = list(itertools.islice(iter_forests(*shape), 500))
        f = generated[pick % len(generated)]
        self.check(f, model_of(f.text), graft)


class TestEncodeColored:
    @given(beta=st.integers(1, 3), n=st.integers(0, 4), gamma=st.integers(1, 3),
           extra=st.integers(0, 2), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_census_and_partners(self, beta, n, gamma, extra, data):
        structures = [c for piece in colored_census(beta, n, gamma, gamma + extra) for c in piece]
        sample = data.draw(st.lists(st.sampled_from(structures), min_size=1, max_size=20))
        for c in sample:
            assert encode_colored(c) == reference_encode_colored(c)
            if c.leaf_colors:
                partner = involute(c, [beta])
                assert encode_colored(partner) == reference_encode_colored(partner)

    @given(profile=st.sampled_from([VecProfile((2, 1), (1, 2)), VecProfile((1, 1), (2, 3)),
                                    VecProfile((1, 1, 1), (1, 2, 3))]),
           gamma=st.integers(1, 2), extra=st.integers(0, 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_several_colors(self, profile, gamma, extra, data):
        marks = tuple(data.draw(st.integers(0, 2)) for _ in profile.n)
        structures = enumerate_colored_vector(profile, marks, gamma, gamma + extra)
        for c in structures:
            for num_colors in (1, profile.t):
                assert encode_colored(c, num_colors) == reference_encode_colored(c, num_colors)

    @given(f=forests, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_hand_built_colorings(self, f, data):
        leaves = leaf_addresses(f)
        chosen = data.draw(st.lists(st.sampled_from(leaves), unique=True) if leaves else st.just([]))
        colors = data.draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
        c = ColoredForest(f, 2, zip(chosen, colors), ((1, 2),))
        for num_colors in (1, 3):
            assert encode_colored(c, num_colors) == reference_encode_colored(c, num_colors)

    def test_deep_census(self):
        # 1,500 levels: the paths to the colored leaves are walked once each.
        structures = [c for piece in colored_census(1, 1500, 1, 2) for c in piece]
        assert len(structures) == 4
        for c in structures:
            assert encode_colored(c) == reference_encode_colored(c)
            if c.leaf_colors:
                partner = involute(c, [1])
                assert encode_colored(partner) == reference_encode_colored(partner)


class TestClassify:
    """``classify`` on the text's layout against the rule on address levels."""

    @given(beta=st.integers(1, 3), n=st.integers(0, 4), gamma=st.integers(1, 3),
           extra=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_scalar_censuses(self, beta, n, gamma, extra):
        for piece in colored_census(beta, n, gamma, gamma + extra):
            for c in piece:
                assert classify(c) == reference_classify(c)

    @given(profile=st.sampled_from([VecProfile((2, 1), (1, 2)), VecProfile((1, 1), (2, 3)),
                                    VecProfile((1, 1, 1), (1, 2, 3))]),
           gamma=st.integers(1, 2), extra=st.integers(0, 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_several_colors(self, profile, gamma, extra, data):
        marks = tuple(data.draw(st.integers(0, 2)) for _ in profile.n)
        for c in enumerate_colored_vector(profile, marks, gamma, gamma + extra):
            assert classify(c) == reference_classify(c)

    @given(f=forests, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_colorings(self, f, data):
        leaves = leaf_addresses(f)
        chosen = data.draw(st.lists(st.sampled_from(leaves), unique=True) if leaves else st.just([]))
        c = ColoredForest(f, 1, ((addr, 1) for addr in chosen), ())
        assert classify(c) == reference_classify(c)

    def test_deep_census(self):
        structures = [c for piece in colored_census(1, 1500, 1, 2) for c in piece]
        # 1,500 levels: the layout maps addresses and positions linearly in depth.
        assert [classify(c).kind for c in structures] == [SECOND, FIRST] * 2
        for c in structures:
            assert classify(c) == reference_classify(c)


class TestPairLines:
    """``pair_lines`` on text against pairings and the reference encoder."""

    @given(beta=st.integers(1, 3), n=st.integers(0, 5), gamma=st.integers(1, 3),
           extra=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_small_censuses(self, beta, n, gamma, extra):
        assert pair_lines(beta, n, gamma, gamma + extra) == reference_pair_lines(
            beta, n, gamma, gamma + extra)

    @pytest.mark.parametrize("beta,n,gamma,alpha", [(2, 0, 1, 1), (2, 3, 2, 2), (1, 4, 1, 3),
                                                    (3, 2, 3, 5)])
    def test_edge_shapes(self, beta, n, gamma, alpha):
        # n = 0, alpha = gamma, unary paths, and colored planted roots: the
        # exceptional lines are the binom(alpha - gamma, n) structures that
        # carry the sum.
        total, lines = pair_lines(beta, n, gamma, alpha)
        assert (total, lines) == reference_pair_lines(beta, n, gamma, alpha)
        exceptional = binom(alpha - gamma, n)
        assert sum(line.startswith("exceptional ") for line in lines) == exceptional
        assert total == (-1) ** n * exceptional


class TestPools:
    def test_regenerated_pools_encode_as_the_reference(self):
        # Pools cleared as a test that changes POOL_CACHE_MAX clears them.
        for beta, n, gamma in [(2, 4, 2), (3, 3, 2), (1, 4, 1)]:
            forest._pools.clear()
            forest._large_plan.cache_clear()
            for f in generate_forests(beta, n, gamma):
                assert encode(f) == reference_encode(f)
            # Each held pool is a tuple of tree texts, the reference's.
            for pool in filter(None, forest._pools.values()):
                assert all(text.__class__ is str for text in pool)
                assert [reference_encode(decode(text)) for text in pool] == list(pool)

    def test_no_pool_without_listing(self):
        # A fresh process: this one has built pools already.  Counts, the
        # signed census and the suite build none; a listing does.
        child = (
            "from catalania import forest, identities, involution\n"
            "forest.count_forests(3, 6, 2)\n"
            "involution.signed_sum(2, 4, 2, 3)\n"
            "identities.run_suite()\n"
            "print(len(forest._pools))\n"
            "forest.encode(forest.generate_forests(2, 2, 1)[0])\n"
            "print(len(forest._pools) > 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\nTrue\n", "")
