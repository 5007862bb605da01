"""The text codec and the text route of the pairing against plain
reference walks.

``forest.encode_tree`` reads the text of every held pool's tree from a memo,
``involution.encode_colored`` and ``classify`` find the colored leaves on
the text's layout, ``involution.pair_lines`` writes a census's pairs by
splicing into forest text, and ``forest.decode`` reads one character at a
time.  The references below are the walks they replace: the encoders visit
every vertex and remember nothing between calls, the classifier reads
levels of vertex addresses, and the decoder reads a tree at a time.
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
    encode_tree,
    generate_forests,
    generate_mixed_forests,
    iter_forests,
    leaf_addresses,
    replace_at,
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
            stack.extend(reversed(node))
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
                stack.extend((path + (i,), node[i]) for i in range(len(node) - 1, -1, -1))
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
        assert ";".join(map(encode_tree, f)) == text

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

    def test_pool_trees_carry_their_text(self):
        f = generate_forests(3, 3, 2)[-1]
        encode(f)
        assert [forest._texts[id(tree)] for tree in f] == list(map(reference_encode_tree, f))


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


class TestMemo:
    def test_regenerated_pools_encode_as_the_reference(self):
        # Pools cleared as a test that changes POOL_CACHE_MAX clears them:
        # the memo keeps the old pools' trees alive, so their ids stay theirs.
        encode(generate_forests(2, 3, 2)[0])
        for beta, n, gamma in [(2, 4, 2), (3, 3, 2), (1, 4, 1)]:
            forest._pools.clear()
            forest._large_plan.cache_clear()
            for f in generate_forests(beta, n, gamma):
                assert encode(f) == reference_encode(f)
        for pool in forest._texted:
            for tree in pool:
                assert forest._texts[id(tree)] == reference_encode_tree(tree)
        # Pools built after the first encoding are keyed as they are built.
        assert all(id(tree) in forest._texts for pool in forest._pools.values() if pool
                   for tree in pool)

    def test_no_memo_without_encoding(self):
        # A fresh process: this one has encoded already.
        child = (
            "from catalania import forest, identities, involution\n"
            "forest.count_forests(3, 6, 2)\n"
            "involution.signed_sum(2, 4, 2, 3)\n"
            "identities.run_suite()\n"
            "print(len(forest._texts), len(forest._texted))\n"
            "forest.encode(forest.generate_forests(2, 2, 1)[0])\n"
            "print(len(forest._texts) > 0, len(forest._texted) > 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\nTrue True\n", "")
