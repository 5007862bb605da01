import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalania import census, forest
from catalania.census import (EnumerationBudgetError, compositions, count_forests,
                              count_mixed_forests, signed_sum, signed_sum_vector,
                              vector_compositions)
from catalania.counting import VecProfile, catalan_gen, catalan_vector
from catalania.exact import binom, multinomial
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
    iter_mixed_forests,
    layout,
)
from tuple_model import model_levels, model_of, model_vector_compositions, model_vertices


def leaf_count(f):
    """The number of childless vertices of ``f``: the "o"s of its text."""
    return encode(f).count("o")


class TestGenerators:
    # A beta-ary tree is a one-tree forest of generate_forests(beta, n, 1).
    def test_kary_zero_internal_is_single_leaf(self):
        assert generate_forests(2, 0, 1) == [Forest((LEAF,))]

    def test_binary_three_internal(self):
        assert len(generate_forests(2, 3, 1)) == 5

    def test_ternary_two_internal_hand_enumeration(self):
        # root's internal child sits in position 1, 2 or 3
        trees = generate_forests(3, 2, 1)
        assert len(trees) == 3
        inner = Tree((LEAF, LEAF, LEAF))
        expected = {
            Forest((Tree((inner, LEAF, LEAF)),)),
            Forest((Tree((LEAF, inner, LEAF)),)),
            Forest((Tree((LEAF, LEAF, inner)),)),
        }
        assert set(trees) == expected

    def test_unary_paths_are_unique(self):
        for n in range(6):
            assert len(generate_forests(1, n, 1)) == 1

    def test_deep_unary_tree(self):
        # Pools are built bottom-up, and no walk recurses per level.
        [path] = generate_forests(1, 1500, 1)
        text = "(" * 1500 + "o" + ")" * 1500
        assert encode(path) == text  # one "(" per internal vertex
        assert encode(decode(text)) == text
        shape = layout(text)
        assert shape.leaves == [1500] and len(shape.levels) == 1501

    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            generate_forests(0, 1, 1)

    def test_forest_distribution(self):
        assert len(generate_forests(2, 1, 2)) == 2
        assert len(generate_forests(2, 2, 2)) == 5

    def test_all_leaves_forest_unique(self):
        for beta in (1, 2, 3):
            for gamma in (1, 2, 3):
                assert len(generate_forests(beta, 0, gamma)) == 1

    def test_empty_forest_corner(self):
        assert generate_forests(2, 0, 0) == [Forest(())]
        assert generate_forests(2, 1, 0) == []

    def test_canonical_order_golden(self):
        assert [encode(f) for f in generate_forests(2, 2, 1)] == ["(o(oo))", "((oo)o)"]
        assert [encode(f) for f in generate_forests(2, 1, 2)] == ["o;(oo)", "(oo);o"]

    def test_mixed_examples(self):
        assert len(generate_mixed_forests(VecProfile((1, 1), (2, 3)), 1)) == 5
        assert len(generate_mixed_forests(VecProfile((0, 0), (2, 3)), 3)) == 1
        assert len(generate_mixed_forests(VecProfile((2,), (2,)), 1)) == 2

    def test_mixed_agrees_with_kary(self):
        for beta in (2, 3):
            for n in range(4):
                mixed = generate_mixed_forests(VecProfile((n,), (beta,)), 1)
                plain = generate_forests(beta, n, 1)
                assert [encode(f) for f in mixed] == [encode(f) for f in plain]

    def test_no_duplicates_via_encoding(self):
        for beta, n, gamma in [(2, 4, 1), (2, 3, 2), (3, 3, 1), (1, 5, 3)]:
            encodings = [encode(f) for f in generate_forests(beta, n, gamma)]
            assert len(set(encodings)) == len(encodings)
        mixed = generate_mixed_forests(VecProfile((2, 1), (2, 3)), 2)
        encodings = [encode(f) for f in mixed]
        assert len(set(encodings)) == len(encodings)


# Small one- and two-class profiles; a two-class profile's outdegrees
# increase strictly, as VecProfile requires.
small_profiles = st.one_of(
    st.builds(lambda n, p: VecProfile((n,), (p,)), st.integers(0, 5), st.integers(1, 4)),
    st.builds(lambda n1, n2, p1, step: VecProfile((n1, n2), (p1, p1 + step)),
              st.integers(0, 2), st.integers(0, 2), st.integers(1, 3), st.integers(1, 2)),
)


class TestStreaming:
    # Each shape has a subtree pool over the cap: the binary trees with 10
    # internal vertices (16,796), the ternary with 8 (43,263), the 4-ary
    # with 7 (53,820) and the two-class (3, 3) trees (10,010).
    @pytest.mark.parametrize("beta,n,gamma", [(2, 10, 1), (3, 8, 2), (4, 7, 1)])
    def test_beta_ary_stream_matches_held_pools(self, pool_cap, beta, n, gamma):
        with pool_cap(10**9):
            held = generate_forests(beta, n, gamma)
        assert forest._pool((n,), (beta,)) is None
        assert list(iter_forests(beta, n, gamma)) == held
        assert len(held) == catalan_gen(n, beta, gamma)

    def test_two_class_stream_matches_held_pools(self, pool_cap):
        profile = VecProfile((3, 3), (2, 3))
        with pool_cap(10**9):
            held = generate_mixed_forests(profile, 2)
        assert forest._pool((3, 3), profile.p) is None
        assert forest._pool((3, 2), profile.p) is not None
        assert list(iter_mixed_forests(profile, 2)) == held
        assert len(held) == catalan_vector(profile, 2)

    @given(profile=small_profiles, gamma=st.integers(0, 3),
           cap=st.sampled_from([0, 1, 2, 5, 30]))
    @settings(max_examples=60, deadline=None)
    def test_any_cap_yields_the_canonical_sequence(self, pool_cap, profile, gamma, cap):
        held = generate_mixed_forests(profile, gamma)
        with pool_cap(cap):
            lazy = list(iter_mixed_forests(profile, gamma))
        assert len(lazy) == catalan_vector(profile, gamma)
        assert lazy == held

    def test_budget_is_checked_on_call(self, monkeypatch):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "1000")
        with pytest.raises(EnumerationBudgetError) as err:
            iter_forests(3, 9, 2)
        assert err.value.estimate == 690690
        with pytest.raises(EnumerationBudgetError):
            iter_mixed_forests(VecProfile((9,), (3,)), 2)

    @pytest.mark.parametrize("beta,n,gamma", [
        (0, 1, 1), (True, 1, 1), (2, -1, 1), (2, 1, -1), (2, 1, True), (2, 1, "1"),
    ])
    def test_bad_arguments_are_rejected_on_call(self, beta, n, gamma):
        with pytest.raises(ValueError):
            iter_forests(beta, n, gamma)


class TestCountForests:
    def test_counts_the_generated_forests(self):
        for beta in range(1, 5):
            for n in range(7):
                for gamma in range(4):
                    assert count_forests(beta, n, gamma) == len(generate_forests(beta, n, gamma))

    def test_budget_is_checked_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("generated before the budget check")

        monkeypatch.setattr(forest, "_forests", refuse)
        monkeypatch.setattr(forest, "_pool", refuse)
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "1000")
        with pytest.raises(EnumerationBudgetError) as err:
            count_forests(3, 9, 2)
        assert (err.value.estimate, err.value.budget) == (690690, 1000)

    # At caps 0 to 5, (2, 6, 2) and (2, 7, 1) have pools over the cap whose
    # trees hold trees of pools over the cap too, so their sizes are sums
    # over the sizes of smaller pools over the cap; at cap 0 no pool is held
    # and every size is such a sum.  Unary (1, 4, 2) has one-tree pools
    # only, all over cap 0.
    @pytest.mark.parametrize("cap", [0, 1, 2, 5, 30])
    @pytest.mark.parametrize("beta,n,gamma", [(2, 6, 2), (3, 4, 3), (1, 4, 2), (2, 7, 1)])
    def test_counts_at_any_cap(self, pool_cap, beta, n, gamma, cap):
        with pool_cap(cap):
            count = count_forests(beta, n, gamma)
            listed = len(generate_forests(beta, n, gamma))
        assert count == listed == catalan_gen(n, beta, gamma)

    # The empty forest is one item with no trees, with the leaf pool held or
    # not, and so are the gamma leaves of a forest without internal vertex
    # when the leaf pool is over the cap.  No forest of no trees has an
    # internal vertex, and a unary class beside another adds no leaf.
    @given(profile=small_profiles, gamma=st.integers(0, 3),
           cap=st.sampled_from([0, 1, 2, 5, 30]))
    @example(profile=VecProfile((0,), (2,)), gamma=0, cap=30)
    @example(profile=VecProfile((0, 0), (1, 3)), gamma=0, cap=0)
    @example(profile=VecProfile((0,), (2,)), gamma=3, cap=0)
    @example(profile=VecProfile((2, 1), (1, 3)), gamma=0, cap=30)
    @example(profile=VecProfile((2, 2), (1, 2)), gamma=2, cap=5)
    @settings(max_examples=60, deadline=None)
    def test_mixed_count_is_the_stream_length(self, pool_cap, profile, gamma, cap):
        with pool_cap(cap):
            count = count_mixed_forests(profile, gamma)
            listed = len(list(iter_mixed_forests(profile, gamma)))
        assert count == listed == catalan_vector(profile, gamma)

    # Counts up to near the default budget (5,000,000), at the default cap.
    @pytest.mark.parametrize("beta,n,gamma,want", [
        (2, 12, 4, 4_345_965), (2, 14, 1, 2_674_440), (3, 10, 1, 1_430_715),
        (5, 7, 1, 231_880), (3, 9, 2, 690_690),
    ])
    def test_counts_near_the_budget(self, beta, n, gamma, want):
        assert count_forests(beta, n, gamma) == catalan_gen(n, beta, gamma) == want

    def test_a_count_walks_no_split(self, monkeypatch):
        # A count follows each forest's first vertex: it splits neither a
        # residual among gamma trees nor a root's counts among its children.
        def refuse(*args):
            raise AssertionError("a count walked a split")

        monkeypatch.setattr(census, "vector_compositions", refuse)
        monkeypatch.setattr(forest, "tree_plan", refuse)
        mixed = VecProfile((3, 2), (1, 3))
        assert count_forests(2, 3, 100) == catalan_gen(3, 2, 100) == 182000
        assert count_mixed_forests(mixed, 2) == catalan_vector(mixed, 2) == 840
        assert signed_sum(2, 2, 300, 310) == binom(10, 2) == 45
        assert signed_sum_vector(mixed, 2, 8) == -multinomial(6, (3, 2)) == -60

    def test_census_terms_count_the_closed_form_forests(self):
        # Each profile's one table counts the forests of every residual below
        # it, and each count is an int equal to the paper's vector formula.
        profiles = [(VecProfile(n_vec, p), gamma)
                    for p in ((2,), (3,), (1, 2), (2, 3), (1, 2, 4), (2, 3, 5)) for gamma in range(4)
                    for total in range(6) for n_vec in compositions(total, len(p))]
        assert len(profiles) == 664
        for profile, gamma in profiles:
            terms = census.census_terms(profile, gamma)
            counted = [(residual, forests) for residual, _, forests, _ in terms]
            assert counted == [(residual, catalan_vector(residual, gamma)) for residual, _ in counted]
            assert {type(forests) for _, forests in counted} == {int}

    def test_deep_count_recurses_nowhere(self, pool_cap):
        # At cap 0 every pool of the 3,000 unary pools is over the cap.
        with pool_cap(0):
            assert count_forests(1, 3000, 1) == 1

    def test_count_builds_no_pool(self, pool_cap, monkeypatch):
        # From empty pools, at any cap, the count builds no pool and no tree,
        # held or regenerated.
        def refuse(*args):
            raise AssertionError("a pool or a tree was built for the count")

        profile = VecProfile((2, 1), (2, 3))
        for cap in (0, 5, forest.POOL_CACHE_MAX):
            with pool_cap(cap):
                for name in ("Tree", "Forest", "_pool", "_trees", "_product", "_forests"):
                    monkeypatch.setattr(forest, name, refuse)
                count = count_forests(2, 6, 2), count_mixed_forests(profile, 2)
                monkeypatch.undo()
                assert forest._pools == {}
            assert count == (429, catalan_vector(profile, 2))

    def test_count_caches_no_plan(self, pool_cap):
        # The count reads no plan, so none outlives it: a unary count would
        # otherwise hold one per vertex count.
        with pool_cap(forest.POOL_CACHE_MAX):
            assert count_forests(1, 500, 1) == 1
            assert count_mixed_forests(VecProfile((2, 1), (2, 3)), 2) == catalan_vector(
                VecProfile((2, 1), (2, 3)), 2)
            assert forest._large_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("beta,n,gamma", [
        (0, 1, 1), (True, 1, 1), (2, -1, 1), (2, 1, -1), (2, 1, True), (2, 1, "1"),
    ])
    def test_rejects_what_iter_forests_rejects(self, beta, n, gamma):
        with pytest.raises(ValueError) as expected:
            iter_forests(beta, n, gamma)
        with pytest.raises(ValueError) as err:
            count_forests(beta, n, gamma)
        assert str(err.value) == str(expected.value)

    def test_zero_beta_message(self):
        with pytest.raises(ValueError, match=r"^beta must be an integer >= 1, got 0$"):
            count_forests(0, 1, 1)


class TestLeafCounts:
    def test_single_leaf(self):
        assert leaf_count(Forest((LEAF,))) == 1

    def test_uniform_law(self):
        for f in generate_forests(3, 4, 2):
            assert leaf_count(f) == (3 - 1) * 4 + 2

    def test_mixed_law(self):
        profile = VecProfile((1, 1), (2, 3))
        for f in generate_mixed_forests(profile, 1):
            assert leaf_count(f) == profile.leaf_count(1) == 4

    def test_leaf_positions_in_preorder(self):
        # Leaf i is the i-th "o" of the text: the layout lists the leaves in
        # preorder, as a walk of the tuple model meets them.
        forests = [f for beta in (1, 2, 3) for n in range(4) for gamma in range(4)
                   for f in generate_forests(beta, n, gamma)]
        forests += generate_mixed_forests(VecProfile((2, 1), (1, 3)), 2)
        for f in forests:
            leaves = layout(encode(f)).leaves
            assert all(a < b for a, b in zip(leaves, leaves[1:]))
            assert len(leaves) == leaf_count(f)
            walked = [(leaf, pos) for _, pos, leaf, _ in model_vertices(model_of(f.text))
                      if leaf is not None]
            assert walked == list(enumerate(leaves))


class TestStructureOps:
    def test_level_structure_orders_left_to_right(self):
        # "(o(oo));(oo)": a vertex is its "o" or its "(", by text position.
        text = "(o(oo));(oo)"
        shape = layout(text)
        assert shape.text == text
        assert shape.leaves == [1, 3, 4, 9, 10]
        assert shape.levels == [[0, 8], [1, 2, 9, 10], [3, 4]]

    @pytest.mark.parametrize("beta,n,gamma", [(1, 4, 2), (2, 3, 2), (3, 3, 1), (2, 0, 3)])
    def test_layout_places_every_vertex(self, beta, n, gamma):
        # Each level lists its vertices left to right, as the levels of the
        # tuple model place them, and a level's vertices are its "o"s and "("s.
        for f in generate_forests(beta, n, gamma):
            text = encode(f)
            shape = layout(text)
            levels = model_levels(model_of(text))
            assert shape.levels == [[pos for _, pos, _, _ in level] for level in levels]
            assert [[text[pos] == "o" for pos in level] for level in shape.levels] == [
                [not node for _, _, _, node in level] for level in levels]
            assert shape.leaves == [pos for pos, ch in enumerate(text) if ch == "o"]

    def test_counts(self):
        f = decode("(o(oo));o")
        assert leaf_count(f) == 4 and layout(f.text).leaves == [1, 3, 4, 8]


class TestCodec:
    def test_basic_encodings(self):
        assert encode(Forest((LEAF,))) == "o"
        assert encode(Forest((Tree((LEAF, LEAF)),))) == "(oo)"
        assert encode(Forest(())) == ""

    def test_decode_example(self):
        f = decode("(o(oo));o")
        assert f == Forest((Tree((LEAF, Tree((LEAF, LEAF)))), LEAF))
        assert encode(f).count("(") == 2  # one per internal vertex

    def test_decode_empty(self):
        assert decode("") == Forest(())

    def test_roundtrip_over_generated_grid(self):
        for beta, n, gamma in [(2, 3, 1), (2, 2, 2), (3, 2, 1), (1, 4, 2)]:
            for f in generate_forests(beta, n, gamma):
                assert decode(encode(f)) == f
        for f in generate_mixed_forests(VecProfile((1, 1), (2, 3)), 2):
            assert decode(encode(f)) == f

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(o", 2),       # unclosed
            (")o", 0),       # stray close
            ("(o)x", 3),     # trailing garbage
            ("o;", 2),       # dangling separator
            ("()", 1),       # childless internal vertex
            (";o", 0),       # leading separator
        ],
    )
    def test_syntax_errors_carry_position(self, text, position):
        with pytest.raises(ForestSyntaxError) as err:
            decode(text)
        assert err.value.position == position


class TestBudget:
    def test_refuses_oversized_enumeration(self, monkeypatch):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "10")
        with pytest.raises(EnumerationBudgetError) as err:
            generate_forests(2, 6, 1)
        assert err.value.estimate == catalan_gen(6, 2, 1) == 132
        assert err.value.budget == 10

    def test_default_budget_blocks_astronomic_request(self):
        with pytest.raises(EnumerationBudgetError):
            generate_forests(2, 40, 1)

    def test_env_override_allows_more(self, monkeypatch):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "150")
        assert len(generate_forests(2, 6, 1)) == 132

    def test_garbage_env_rejected(self, monkeypatch):
        for raw, message in (("many", "must be an integer, got 'many'"),
                             ("0", "must be positive, got 0"), ("-3", "must be positive, got -3")):
            monkeypatch.setenv("CATALANIA_MAX_STRUCTS", raw)
            with pytest.raises(ValueError, match=f"^CATALANIA_MAX_STRUCTS {message}$"):
                generate_forests(2, 1, 1)


def test_compositions_lexicographic():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(2, 0)) == []
    assert list(compositions(0, 0)) == [()]


@given(st.lists(st.integers(0, 3), max_size=3).map(tuple), st.integers(0, 4))
@example((7,), 2)
@example((9,), 3)
@example((5,), 6)
@example((4, 2), 3)
def test_vector_compositions_match_the_recursive_model(vec, parts):
    assert list(vector_compositions(vec, parts)) == model_vector_compositions(vec, parts)


@pytest.mark.parametrize("vec, parts, splits", [((1,), 2000, 2000), ((0,), 2000, 1),
                                                ((1, 1), 40, 40 * 40)])
def test_vector_compositions_resume_once_per_split(vec, parts, splits):
    # The generator is entered once per split and once to end, however
    # many parts: a recursive walk enters one generator per part.
    code = vector_compositions.__code__
    entries = 0

    def count(frame, event, arg):
        nonlocal entries
        entries += event == "call" and frame.f_code is code

    sys.setprofile(count)
    try:
        made = sum(1 for _ in vector_compositions(vec, parts))
    finally:
        sys.setprofile(None)
    assert (made, entries) == (splits, splits + 1)
