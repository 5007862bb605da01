"""The text codec and the text route of the pairing against plain
reference walks.

A tree and a forest hold their text, which the pools build by joining
their subtrees' texts, ``involution.encode_colored`` and ``classify`` find
the colored leaves on the text's layout, ``involution.pair_lines`` writes a
census's pairs by splicing into forest text, and ``forest.decode`` checks
one character at a time.  The references below walk the nested-tuple model
of ``tuple_model`` instead: the encoders visit every vertex, the classifier
reads the model's levels, and the decoder reads a tree at a time.  The
model is also the reference for the forests built from it and for the
text's layout (``TestTupleModel``).
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
from catalania.census import signed_sum
from catalania.counting import VecProfile
from catalania.exact import binom
from catalania.forest import (
    LEAF,
    Forest,
    ForestSyntaxError,
    Tree,
    decode,
    encode,
    generate_forests,
    generate_mixed_forests,
    iter_forests,
    layout,
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
from tuple_model import (
    built_forest,
    model_forests,
    model_levels,
    model_of,
    model_text,
    model_trees,
    model_vertices,
)


def reference_encode_colored(c, num_colors=1):
    marks = {leaf: "o*" if num_colors == 1 else f"o*{color}" for leaf, color in c.leaf_colors}
    if num_colors == 1:
        roots = ",".join(str(i) for i, _ in c.root_colors)
    else:
        roots = ",".join(f"{i}*{j}" for i, j in c.root_colors)
    return f"P[{c.planted}:{roots}]|{model_text(model_of(c.forest.text), marks)}"


def reference_classify(c):
    """The classification rule read on the levels of the tuple model, each
    vertex named by its text position and each leaf by its index."""
    levels = model_levels(model_of(c.forest.text))
    colored = {leaf for leaf, _ in c.leaf_colors}
    bottom = len(levels) - 1
    for depth in (bottom, bottom - 1):
        blocked = False
        for _, pos, leaf, node in levels[depth] if depth >= 0 else ():
            if node:
                blocked = True
            elif leaf in colored and not blocked:
                return Classification(FIRST, pos)
    if bottom >= 1 and not any(leaf in colored for _, _, leaf, _ in levels[bottom]):
        for _, pos, leaf, node in levels[bottom - 1]:
            if node:
                return Classification(SECOND, pos)
            if leaf in colored:
                break
    return Classification(EXCEPTIONAL)


def reference_pair_lines(beta, n, gamma, alpha):
    """The --dump-pairs census as the object route prints it: the sum of its
    weights and its lines."""
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


def rebuilt(f):
    """``f`` built again by Forest(trees) and Tree(children) from the tuple
    model of its text: the reference value for a forest from a pool."""
    return built_forest(model_of(f.text))


class TestEncodeTree:
    @given(model=model_forests)
    @settings(max_examples=150, deadline=None)
    def test_hand_built_and_decoded_forests(self, model):
        text = model_text(model)
        f = built_forest(model)
        assert encode(f) == text
        assert encode(decode(text)) == text and decode(text) == f

    @given(shape=st.sampled_from([(2, 4, 2), (3, 3, 3), (1, 5, 2), (2, 10, 1)]),
           pick=st.integers(0, 10**6), graft=model_trees)
    @settings(max_examples=60, deadline=None)
    def test_pool_trees_with_a_hand_built_subtree(self, shape, pick, graft):
        # (2, 10, 1) draws its trees from a pool over the cap.
        generated = list(itertools.islice(iter_forests(*shape), 2000))
        f = generated[pick % len(generated)]
        model = model_of(f.text)
        assert encode(f) == model_text(model)
        assert rebuilt(f) == f and hash(rebuilt(f)) == hash(f)
        leaves = [pos for _, pos, leaf, _ in model_vertices(model) if leaf is not None]
        pos = leaves[pick % len(leaves)]
        grafted = model_of(f.text[:pos] + model_text((graft,)) + f.text[pos + 1:])
        assert encode(built_forest(grafted)) == model_text(grafted)

    @given(text=st.text("o();x", max_size=24) | model_forests.map(model_text))
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_the_reference(self, text):
        assert decoded(decode, text) == decoded(reference_decode, text)

    def test_mixed_forests(self):
        for f in generate_mixed_forests(VecProfile((2, 2), (1, 3)), 2):
            assert rebuilt(f) == f

    @pytest.mark.parametrize("beta,n,gamma,alpha", [(2, 4, 2, 3), (3, 4, 1, 2), (1, 6, 2, 4)])
    def test_partner_forests(self, beta, n, gamma, alpha):
        structures = [c for piece in colored_census(beta, n, gamma, alpha) for c in piece]
        partners = [partner for _, _, partner in pairings(structures, [beta]) if partner]
        assert partners
        for c in structures + partners:
            assert rebuilt(c.forest) == c.forest

    def test_pool_trees_are_their_text(self):
        f = generate_forests(3, 3, 2)[-1]
        texts = f.text.split(";")
        assert texts == [model_text((tree,)) for tree in model_of(f.text)]
        # The trees' internal-vertex counts are 3 and 0: each is its pool's text.
        assert [text in forest._pool((text.count("("),), (3,)) for text in texts] == [True, True]


class TestTupleModel:
    """Forests hand-built, decoded, or streamed from pools over the cap,
    against the tuple model: the text, the value built from the model, and
    the layout's leaves and levels."""

    @staticmethod
    def check(f, model):
        assert f.text == model_text(model)
        assert built_forest(model) == f and hash(built_forest(model)) == hash(f)
        shape = layout(f.text)
        assert shape.levels == [[pos for _, pos, _, _ in level] for level in model_levels(model)]
        assert shape.leaves == [pos for _, pos, leaf, _ in model_vertices(model) if leaf is not None]

    @given(model=model_forests, how=st.sampled_from(["built", "decoded"]))
    @settings(max_examples=100, deadline=None)
    def test_hand_built_and_decoded_forests(self, model, how):
        text = model_text(model)
        f = built_forest(model) if how == "built" else decode(text)
        assert model_of(text) == model
        self.check(f, model)

    @given(shape=st.sampled_from([(2, 10, 1), (3, 4, 2), (1, 6, 2), (2, 5, 3)]),
           cap=st.sampled_from([0, 2, 5]), pick=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_forests_from_pools_over_the_cap(self, pool_cap, shape, cap, pick):
        with pool_cap(cap):
            generated = list(itertools.islice(iter_forests(*shape), 500))
        f = generated[pick % len(generated)]
        self.check(f, model_of(f.text))


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

    @given(model=model_forests, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_hand_built_colorings(self, model, data):
        f = built_forest(model)
        leaves = range(f.text.count("o"))
        chosen = data.draw(st.lists(st.sampled_from(leaves), unique=True) if leaves else st.just([]))
        colors = data.draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
        c = ColoredForest(f, 2, zip(chosen, colors), ((1, 2),))
        for num_colors in (1, 3):
            assert encode_colored(c, num_colors) == reference_encode_colored(c, num_colors)

    def test_deep_census(self):
        # 1,500 levels: the colored leaf is found by its index on the layout.
        structures = [c for piece in colored_census(1, 1500, 1, 2) for c in piece]
        assert len(structures) == 4
        for c in structures:
            assert encode_colored(c) == reference_encode_colored(c)
            if c.leaf_colors:
                partner = involute(c, [1])
                assert encode_colored(partner) == reference_encode_colored(partner)


class TestClassify:
    """``classify`` on the text's layout against the rule on the model's levels."""

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

    @given(model=model_forests, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_colorings(self, model, data):
        f = built_forest(model)
        leaves = range(f.text.count("o"))
        chosen = data.draw(st.lists(st.sampled_from(leaves), unique=True) if leaves else st.just([]))
        c = ColoredForest(f, 1, ((leaf, 1) for leaf in chosen), ())
        assert classify(c) == reference_classify(c)

    def test_deep_census(self):
        structures = [c for piece in colored_census(1, 1500, 1, 2) for c in piece]
        # 1,500 levels: the layout places every vertex in one pass over the text.
        assert [classify(c).kind for c in structures] == [SECOND, FIRST] * 2
        for c in structures:
            assert classify(c) == reference_classify(c)


class TestPairLines:
    """``pair_lines`` on text against pairings and the reference encoder."""

    @given(beta=st.integers(1, 3), n=st.integers(0, 5), gamma=st.integers(1, 3),
           extra=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_small_censuses(self, beta, n, gamma, extra):
        alpha = gamma + extra
        assert (signed_sum(beta, n, gamma, alpha), list(pair_lines(beta, n, gamma, alpha))) == (
            reference_pair_lines(beta, n, gamma, alpha))

    @pytest.mark.parametrize("beta,n,gamma,alpha", [(2, 0, 1, 1), (2, 3, 2, 2), (1, 4, 1, 3),
                                                    (3, 2, 3, 5)])
    def test_edge_shapes(self, beta, n, gamma, alpha):
        # n = 0, alpha = gamma, unary paths, and colored planted roots: the
        # exceptional lines are the binom(alpha - gamma, n) structures that
        # carry the sum.
        total, lines = signed_sum(beta, n, gamma, alpha), list(pair_lines(beta, n, gamma, alpha))
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
                assert rebuilt(f) == f
            # Each held pool is a tuple of tree texts, the model's.
            for pool in filter(None, forest._pools.values()):
                assert all(text.__class__ is str for text in pool)
                assert [model_text(model_of(text)) for text in pool] == list(pool)

    def test_no_pool_without_listing(self):
        # A fresh process: this one has built pools already.  Counts, the
        # signed census and the suite build none; a listing does.
        child = (
            "from catalania import census, forest, identities\n"
            "census.count_forests(3, 6, 2)\n"
            "census.signed_sum(2, 4, 2, 3)\n"
            "identities.run_suite()\n"
            "print(len(forest._pools))\n"
            "forest.encode(forest.generate_forests(2, 2, 1)[0])\n"
            "print(len(forest._pools) > 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(catalania.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\nTrue\n", "")
