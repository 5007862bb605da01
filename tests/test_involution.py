import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalania.counting import VecProfile, catalan_vector
from catalania.exact import binom, multinomial
from catalania import census, involution
from catalania.census import EnumerationBudgetError, census_sizes, signed_sum, signed_sum_vector
from catalania.forest import decode, encode, generate_forests, generate_mixed_forests, layout
from catalania.involution import (
    EXCEPTIONAL,
    FIRST,
    SECOND,
    ColoredForest,
    InvolutionDomainError,
    StructureError,
    check_signed_matching,
    classify,
    colored_census,
    encode_colored,
    enumerate_colored,
    enumerate_colored_vector,
    find_matching_violation,
    involute,
    pair_lines,
    pairings,
)
from tuple_model import model_of, model_text


def internal(forest):
    """The number of internal vertices: the text has one "(" for each."""
    return encode(forest).count("(")


def colored(text, leaves, planted=0, roots=(), color=1):
    """The structure on ``text`` whose leaves of the given indices (leaf i
    is the i-th "o") and planted roots are colored ``color``."""
    return ColoredForest(
        decode(text),
        planted,
        tuple((leaf, color) for leaf in leaves),
        tuple((i, color) for i in roots),
    )


def all_structures(beta, n, gamma, alpha):
    pool = []
    for i in range(n + 1):
        pool.extend(enumerate_colored(beta, n - i, i, gamma, alpha))
    return pool


# A ternary tree with two colored leaves, the root's second child (leaf 3)
# and the right subtree's second child (leaf 5); its deepest-then-leftmost
# eligible colored leaf is leaf 5, at text position 9, exactly as in the
# promoted/demoted pair below, whose incumbent starts at the same position.
FIG_LEFT = colored("((ooo)o(oo(ooo)))", [3, 5])
FIG_RIGHT = colored("((ooo)o(o(ooo)(ooo)))", [3])


class TestClassify:
    def test_marked_pair_classes(self):
        left = classify(FIG_LEFT)
        assert left.kind == FIRST
        assert left.vertex == 9 == layout(FIG_LEFT.forest.text).leaves[5]
        right = classify(FIG_RIGHT)
        assert right.kind == SECOND
        assert right.vertex == 9 and FIG_RIGHT.forest.text[9] == "("

    def test_only_planted_roots_colored_is_exceptional(self):
        c = colored("o;o", [], planted=3, roots=(0, 2))
        assert classify(c).kind == EXCEPTIONAL

    def test_all_leaves_uncolored_is_exceptional(self):
        c = colored("o", [])
        assert classify(c).kind == EXCEPTIONAL

    def test_uncolored_with_internal_vertices_is_second(self):
        c = colored("(oo);(o(oo))", [])
        cls = classify(c)
        assert cls.kind == SECOND
        # leftmost internal vertex on the second-lowest level: the second
        # component's second child, which starts at text position 7
        assert cls.vertex == 7

    def test_colored_root_leaf_is_first(self):
        c = colored("o;o", [0], planted=1, roots=(0,))
        cls = classify(c)
        assert cls.kind == FIRST
        assert cls.vertex == 0

    def test_totality_without_planted_roots(self):
        # alpha = gamma: anything with an internal vertex or a colored leaf
        # must be first or second class
        for beta, gamma in [(2, 1), (2, 2), (3, 1)]:
            for n in range(1, 4):
                for c in all_structures(beta, n, gamma, gamma):
                    assert classify(c).kind != EXCEPTIONAL

    def test_exceptional_census(self):
        # structures with total index n that have no partner: choose n of
        # the planted roots
        for beta, gamma, alpha in [(2, 1, 3), (3, 2, 4), (2, 2, 2)]:
            for n in range(5):
                pool = all_structures(beta, n, gamma, alpha)
                exceptional = [c for c in pool if classify(c).kind == EXCEPTIONAL]
                assert len(exceptional) == binom(alpha - gamma, n)
                for c in exceptional:
                    assert internal(c.forest) == 0 and not c.leaf_colors


class TestInvolute:
    def test_marked_pair_swaps(self):
        assert involute(FIG_LEFT, [3]) == FIG_RIGHT
        assert involute(FIG_RIGHT, [3]) == FIG_LEFT

    def test_single_colored_root_leaf(self):
        c = colored("o", [0])
        grown = involute(c, [2])
        assert encode(grown.forest) == "(oo)"
        assert grown.leaf_colors == ()
        assert involute(grown, [2]) == c

    def test_index_shifts(self):
        img = involute(FIG_LEFT, [3])
        assert internal(img.forest) == internal(FIG_LEFT.forest) + 1
        assert img.colored_count == FIG_LEFT.colored_count - 1

    def test_exceptional_input_rejected(self):
        with pytest.raises(InvolutionDomainError):
            involute(colored("o", [], planted=2, roots=(1,)), [2])

    def test_unknown_outdegree_rejected(self):
        # incumbent has 2 children but the class list says 3-ary only
        c = colored("(oo)", [])
        with pytest.raises(StructureError, match=r"incumbent outdegree 2 not among classes \(3,\)"):
            involute(c, [3])
        # a candidate leaf of color 2 would grow a vertex of a second class
        c = ColoredForest(decode("o"), 0, ((0, 2),), ())
        with pytest.raises(StructureError, match=r"color 2 has no outdegree class in \(2,\)"):
            involute(c, [2])

    def test_roundtrip_grid(self):
        for beta in (2, 3):
            for gamma in (1, 2):
                for alpha in (gamma, gamma + 1, gamma + 2):
                    for n in range(4):
                        for c in all_structures(beta, n, gamma, alpha):
                            if classify(c).kind == EXCEPTIONAL:
                                continue
                            image = involute(c, [beta])
                            assert involute(image, [beta]) == c
                            assert classify(image).kind != classify(c).kind
                            assert image.weight() == -c.weight()
                            shift = internal(image.forest) - internal(c.forest)
                            assert abs(shift) == 1
                            assert image.colored_count - c.colored_count == -shift

    def test_vector_mode_uses_color_class(self):
        # a color-2 leaf grows p[1] = 3 children
        c = ColoredForest(decode("o"), 0, ((0, 2),), ())
        grown = involute(c, [2, 3])
        assert encode(grown.forest) == "(ooo)"
        assert involute(grown, [2, 3]) == c

    def test_later_leaves_are_renumbered(self):
        # Growing leaf 2 (color 1) into p[0] = 2 leaves moves leaf 4 to 5, and
        # pruning moves it back.  Leaf 0, a root above the bottom level, keeps
        # its index.
        c = ColoredForest(decode("o;(oo);(oo)"), 0, ((0, 2), (2, 1), (4, 2)), ())
        grown = involute(c, [2, 3])
        assert encode(grown.forest) == "o;(o(oo));(oo)"
        assert grown.leaf_colors == ((0, 2), (5, 2))
        assert involute(grown, [2, 3]) == c
        # Pruning the 3-ary incumbent at position 1 into leaf 0 (color 2)
        # moves leaves 3 and 4 back by two.
        c = ColoredForest(decode("((ooo)o);o"), 0, ((3, 1), (4, 2)), ())
        pruned = involute(c, [2, 3])
        assert encode(pruned.forest) == "(oo);o"
        assert pruned.leaf_colors == ((0, 2), (1, 1), (2, 2))
        assert involute(pruned, [2, 3]) == c

    def test_deep_unary_chain(self):
        # 4,000 levels: classify and involute read the layout and splice the
        # text, and no walk recurses.
        depth = 4000
        c = ColoredForest(decode("(" * depth + "o" + ")" * depth), 0, ((0, 1),), ())
        assert classify(c) == (FIRST, depth)
        grown = involute(c, [1])
        assert encode(grown.forest) == "(" * (depth + 1) + "o" + ")" * (depth + 1)
        assert grown.leaf_colors == ()
        assert classify(grown) == (SECOND, depth)
        assert involute(grown, [1]) == c


def grown_text(c, p):
    """The partner text of a first-class c with several colors, written from
    the tuple model of c's forest: the candidate leaf's mark becomes "(" and
    p[j-1] leaves and ")" (j its color), and the other colored leaves keep
    their "o*" marks, whatever their indices have become."""
    candidate = c.forest.text[:classify(c).vertex].count("o")  # the leaves before it
    colors = dict(c.leaf_colors)
    marks = {leaf: f"o*{color}" for leaf, color in colors.items()}
    marks[candidate] = "(" + "o" * p[colors[candidate] - 1] + ")"
    roots = ",".join(f"{i}*{j}" for i, j in c.root_colors)
    return f"P[{c.planted}:{roots}]|{model_text(model_of(c.forest.text), marks)}"


class TestRenumbering:
    """``involute`` in vector mode on slices where several leaves of both
    colors are colored, so that growing or pruning moves colored leaves of
    either color after the acting vertex."""

    @given(case=st.sampled_from([(VecProfile((2, 1), (2, 3)), 1, 3),
                                 (VecProfile((1, 2), (1, 3)), 1, 2),
                                 (VecProfile((1, 2), (1, 3)), 2, 3)]),
           marks=st.tuples(st.integers(1, 2), st.integers(1, 2)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_pairs_renumber_the_other_colored_leaves(self, case, marks, data):
        profile, gamma, alpha = case
        structures = enumerate_colored_vector(profile, marks, gamma, alpha)
        sample = data.draw(st.lists(st.sampled_from(structures), min_size=1, max_size=20))
        for c in sample:
            cls = classify(c)
            if cls.kind == EXCEPTIONAL:
                continue
            image = involute(c, profile.p)
            assert involute(image, profile.p) == c
            assert classify(image).kind != cls.kind
            assert image.weight() == -c.weight()
            n_leaves = image.forest.text.count("o")
            assert all(0 <= leaf < n_leaves for leaf, _ in image.leaf_colors)
            assert image == ColoredForest(*image)
            assert list(image.leaf_colors) == sorted(image.leaf_colors)
            first, second = (c, image) if cls.kind == FIRST else (image, c)
            assert encode_colored(second, 2) == grown_text(first, profile.p)


class TestEnumerateColored:
    def test_two_leaves_one_color(self):
        assert len(enumerate_colored(2, 1, 1, 1, 1)) == 2

    def test_uncolored_all_leaves(self):
        assert len(enumerate_colored(2, 0, 0, 2, 2)) == 1
        assert len(enumerate_colored(3, 0, 0, 1, 1)) == 1

    def test_leaves_plus_planted(self):
        assert len(enumerate_colored(2, 1, 2, 1, 3)) == binom(4, 2) == 6

    def test_distinct_structures(self):
        pool = enumerate_colored(2, 2, 2, 1, 2)
        assert len(set(pool)) == len(pool)

    def test_rejects_alpha_below_gamma(self):
        with pytest.raises(ValueError):
            enumerate_colored(2, 1, 1, 2, 1)

    def test_vector_enumeration_count(self):
        profile = VecProfile((1, 0), (2, 3))
        marks = (1, 1)
        pool = enumerate_colored_vector(profile, marks, 1, 2)
        slots = profile.leaf_count(1) + 1  # leaves + one planted root
        assert len(pool) == catalan_vector(profile, 1) * multinomial(slots, marks)


class TestSignedSums:
    def test_zero_for_trivial_parameters(self):
        assert signed_sum(3, 6, 1, 1) == 0

    def test_empty_index(self):
        assert signed_sum(2, 0, 1, 1) == 1
        assert signed_sum(2, 0, 2, 5) == 1

    def test_planted_example(self):
        assert signed_sum(2, 2, 1, 3) == 1

    def test_matches_closed_form_on_grid(self):
        for beta in (2, 3):
            for gamma in (1, 2):
                for alpha in (gamma, gamma + 1, gamma + 2):
                    for n in range(4):
                        want = (-1) ** n * binom(alpha - gamma, n)
                        assert signed_sum(beta, n, gamma, alpha) == want

    def test_vector_examples(self):
        assert signed_sum_vector(VecProfile((1, 1), (2, 3)), 1, 1) == 0
        assert signed_sum_vector(VecProfile((0,), (2,)), 1, 1) == 1
        assert signed_sum_vector(VecProfile((1, 1), (2, 3)), 1, 4) == 6

    def test_vector_matches_multinomial_closed_form(self):
        for gamma in (1, 2):
            for alpha in (gamma, gamma + 2):
                for n1 in range(3):
                    for n2 in range(2):
                        got = signed_sum_vector(VecProfile((n1, n2), (2, 3)), gamma, alpha)
                        want = (-1) ** (n1 + n2) * multinomial(alpha - gamma, (n1, n2))
                        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           p=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True).map(sorted),
           gamma=st.integers(1, 2), extra=st.integers(0, 3))
    def test_counted_sums_match_the_built_census(self, data, p, gamma, extra):
        # The reference: the weights summed over the built census.
        n_vec = data.draw(st.lists(st.integers(0, 3), min_size=len(p), max_size=len(p))
                          .filter(lambda n: sum(n) <= 3))
        profile, alpha = VecProfile(n_vec, p), gamma + extra
        built = sum(c.weight() for residual, marks, _ in census_sizes(profile, gamma, alpha)
                    for c in enumerate_colored_vector(residual, marks, gamma, alpha))
        assert signed_sum_vector(profile, gamma, alpha) == built
        assert built == (-1) ** sum(n_vec) * multinomial(alpha - gamma, n_vec)
        beta, n = p[0], sum(n_vec)
        built = sum(c.weight() for piece in colored_census(beta, n, gamma, alpha) for c in piece)
        assert signed_sum(beta, n, gamma, alpha) == built

    # A class of no marks has one empty choice; more marks than slots, none.
    @pytest.mark.parametrize("marks", [(0,), (2,), (4,), (0, 0), (1, 0), (0, 2), (2, 1),
                                       (3, 3), (1, 1, 1)])
    def test_colorings_are_counted_as_assigned(self, marks):
        for slots in range(6):
            assigned = list(involution._color_assignments(tuple(range(slots)), marks))
            assert census._count_colorings(slots, marks) == len(assigned)

    @pytest.mark.parametrize("args, message", [
        ((0, -1, 2, 1), "need alpha >= gamma >= 1, got alpha=1, gamma=2"),
        ((0, -1, 1, 1), "n must be a non-negative integer, got -1"),
        ((0, 1, 1, 1), "beta must be an integer >= 1, got 0"),
        ((True, 1, 1, 1), "beta must be an integer >= 1, got True"),
    ])
    def test_scalar_arguments_are_checked_in_order(self, args, message):
        # alpha and gamma first, then n, then beta, by every scalar census.
        for scalar_census in (signed_sum, colored_census, pair_lines):
            with pytest.raises(ValueError) as err:
                scalar_census(*args)
            assert str(err.value) == message


class TestCensusBudget:
    """The budget covers a whole census, checked before any slice is built."""

    @staticmethod
    def _refuse_enumeration(monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated a slice before the census budget check")

        for builder in ("enumerate_colored", "enumerate_colored_vector", "_colorings"):
            monkeypatch.setattr(involution, builder, refuse)

    def test_scalar_census_sums_its_slices(self, monkeypatch):
        # Slices of sizes 2, 3 and 1: each fits a budget of 4, the census does not.
        assert [len(s) for s in colored_census(2, 2, 1, 2)] == [2, 3, 1]
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "4")
        self._refuse_enumeration(monkeypatch)
        with pytest.raises(EnumerationBudgetError) as err:
            colored_census(2, 2, 1, 2)
        assert (err.value.estimate, err.value.budget) == (6, 4)

    def test_vector_census_sums_its_slices(self, monkeypatch):
        # Slices of sizes 5, 3, 4 and 2: each fits a budget of 5, the census does not.
        profile = VecProfile((1, 1), (2, 3))
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "5")
        self._refuse_enumeration(monkeypatch)
        with pytest.raises(EnumerationBudgetError) as err:
            signed_sum_vector(profile, 1, 2)
        assert (err.value.estimate, err.value.budget) == (14, 5)

    def test_counted_census_checks_before_any_count(self, monkeypatch):
        # Sized on its closed-form terms: no size table is built and no
        # coloring counted unless the whole census fits.
        def refuse(*args):
            raise AssertionError("counted a slice before the census budget check")

        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "5")
        for counter in ("_size_table", "_count_colorings"):
            monkeypatch.setattr(census, counter, refuse)
        with pytest.raises(EnumerationBudgetError) as err:
            signed_sum(2, 2, 1, 4)
        assert (err.value.estimate, err.value.budget) == (13, 5)
        with pytest.raises(EnumerationBudgetError) as err:
            signed_sum_vector(VecProfile((1, 1), (2, 3)), 1, 2)
        assert (err.value.estimate, err.value.budget) == (14, 5)

    def test_census_at_the_budget_runs(self, monkeypatch):
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "14")
        assert signed_sum_vector(VecProfile((1, 1), (2, 3)), 1, 2) == 0
        monkeypatch.setenv("CATALANIA_MAX_STRUCTS", "6")
        assert signed_sum(2, 2, 1, 2) == 0


class TestCensusSizes:
    def test_a_slice_needs_one_mark_count_per_class(self):
        for marks in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="marks must give one count per outdegree class"):
                enumerate_colored_vector(VecProfile((1, 1), (2, 3)), marks, 1, 2)

    @pytest.mark.parametrize("n, p", [((3,), (1,)), ((2,), (2,)), ((3,), (3,)),
                                      ((1, 2), (1, 3)), ((2, 1), (2, 3))])
    def test_sizes_count_the_enumerated_slices(self, n, p):
        profile = VecProfile(n, p)
        for gamma in (1, 2):
            for alpha in (gamma, gamma + 2):
                sizes = census_sizes(profile, gamma, alpha)
                assert [marks for _, marks, _ in sizes] == sorted(marks for _, marks, _ in sizes)
                assert len(sizes) == len({marks for _, marks, _ in sizes})
                for residual, marks, size in sizes:
                    assert residual.n == tuple(nj - ij for nj, ij in zip(n, marks))
                    assert size == len(enumerate_colored_vector(residual, marks, gamma, alpha))


class TestCensusWork:
    def test_each_slice_size_is_computed_once(self, monkeypatch):
        # A slice's size is its forest count times its color assignments.
        calls = {"catalan_vector": [], "multinomial": []}
        for name, record in calls.items():
            original = getattr(census, name)

            def counted(*args, record=record, original=original):
                record.append(args)
                return original(*args)

            monkeypatch.setattr(census, name, counted)
        built = colored_census(3, 6, 2, 3)
        assert len(built) == 7
        assert [len(record) for record in calls.values()] == [7, 7]
        for record in calls.values():
            record.clear()
        signed_sum_vector(VecProfile((1, 1), (2, 3)), 1, 2)
        assert [len(record) for record in calls.values()] == [4, 4]

    @settings(max_examples=40, deadline=None)
    @given(beta=st.integers(1, 3), n=st.integers(0, 4), gamma=st.integers(1, 2),
           extra=st.integers(0, 2))
    def test_scalar_census_is_the_one_class_vector_census(self, beta, n, gamma, extra):
        alpha = gamma + extra
        census = colored_census(beta, n, gamma, alpha)
        slices = census_sizes(VecProfile((n,), (beta,)), gamma, alpha)
        assert census == [enumerate_colored_vector(residual, marks, gamma, alpha)
                          for residual, marks, _ in slices]
        for i, structures in enumerate(census):
            assert enumerate_colored(beta, n - i, i, gamma, alpha) == structures
        # One line per pair and one per exceptional structure, of which there
        # are binom(alpha - gamma, n).
        lines = list(pair_lines(beta, n, gamma, alpha))
        assert len(lines) == (sum(map(len, census)) + binom(alpha - gamma, n)) // 2

    def test_the_dump_finds_each_slices_colorings_once(self, monkeypatch):
        calls = []
        original = involution._slice_colorings

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(involution, "_slice_colorings", counted)
        list(pair_lines(3, 5, 3, 5))
        assert calls == [(VecProfile((5 - i,), (3,)).leaf_count(3), 2, (i,)) for i in range(6)]

    @pytest.mark.parametrize("name,run", [
        ("enumerate_colored", lambda: [signed_sum(2, 5, 2, 3)] == [0]),
        ("enumerate_colored_vector", lambda: [
            signed_sum_vector(VecProfile((2, 1), (2, 3)), 1, 3),
            signed_sum_vector(VecProfile((1, 1), (2, 3)), 1, 4),
        ] == [-multinomial(2, (2, 1)), 6]),
    ])
    def test_signed_sums_hold_one_slice_at_a_time(self, monkeypatch, name, run):
        # The sums count each slice and build none, so not even one slice is held.
        def refuse(*args, **kwargs):
            raise AssertionError(f"a signed sum built colored structures through {name}")

        for builder in (name, "_colorings"):
            monkeypatch.setattr(involution, builder, refuse)
        assert run()


class TestGeneratedStructures:
    """The enumerators skip ColoredForest's check; their fields must be
    exactly what the check would have produced."""

    @staticmethod
    def _assert_canonical(structures):
        for c in structures:
            assert list(c.leaf_colors) == sorted(c.leaf_colors)
            assert list(c.root_colors) == sorted(c.root_colors)
            assert c == ColoredForest(c.forest, c.planted, c.leaf_colors, c.root_colors)

    def test_scalar_slices(self):
        for beta, n_internal, n_colored, gamma, alpha in [
            (2, 2, 2, 1, 3), (3, 1, 3, 2, 4), (1, 3, 1, 2, 2), (2, 0, 3, 2, 3), (2, 3, 0, 1, 2),
        ]:
            structures = enumerate_colored(beta, n_internal, n_colored, gamma, alpha)
            assert structures
            self._assert_canonical(structures)

    def test_vector_slices(self):
        # alpha > gamma: planted roots take colors of both classes.
        for profile, marks, gamma, alpha in [
            (VecProfile((2, 1), (2, 3)), (1, 1), 1, 3),
            (VecProfile((1, 1), (1, 3)), (2, 1), 2, 4),
            (VecProfile((0, 1), (2, 3)), (2, 2), 1, 3),
        ]:
            structures = enumerate_colored_vector(profile, marks, gamma, alpha)
            assert any(len(c.root_colors) == 2 for c in structures)
            assert any({j for _, j in c.root_colors} == {1, 2} for c in structures)
            self._assert_canonical(structures)

    @staticmethod
    def _per_forest(forests, planted, marks):
        """The slice of ``forests`` with each coloring of ``marks``, built with
        the leaves counted per forest and the checked constructor, which
        sorts the colorings: slot i < n_leaves is leaf i, and slot n_leaves + k
        is planted root k."""
        out = []
        for f in forests:
            n_leaves = f.text.count("o")
            for classes in involution._color_assignments(tuple(range(n_leaves + planted)), marks):
                slots = [(i, j) for j, chosen in enumerate(classes, 1) for i in chosen]
                out.append(ColoredForest(f, planted, [(i, j) for i, j in slots if i < n_leaves],
                                         [(i - n_leaves, j) for i, j in slots if i >= n_leaves]))
        return out

    def test_slices_match_addresses_found_per_forest(self):
        # A slice finds its colorings once, for all its forests; the
        # reference colors each forest's leaves and roots on its own.
        slices = [(generate_forests(3, 5 - i, 3), (i,), census)
                  for i, census in enumerate(colored_census(3, 5, 3, 5))]
        profile = VecProfile((2, 1), (2, 3))
        for marks in itertools.product(range(3), range(2)):
            residual = VecProfile((2 - marks[0], 1 - marks[1]), profile.p)
            slices.append((generate_mixed_forests(residual, 2), marks,
                           enumerate_colored_vector(residual, marks, 2, 4)))
        for forests, marks, structures in slices:
            assert structures == self._per_forest(forests, 2, marks)

    def test_partners(self):
        pool = [c for c in all_structures(2, 3, 2, 3) if classify(c).kind != EXCEPTIONAL]
        self._assert_canonical(involute(c, [2]) for c in pool)
        pool = enumerate_colored_vector(VecProfile((1, 1), (2, 3)), (1, 1), 1, 2)
        self._assert_canonical(involute(c, [2, 3]) for c in pool
                               if classify(c).kind != EXCEPTIONAL)

    def test_user_input_is_still_checked(self):
        with pytest.raises(StructureError, match=r"leaf index 2 is not an int in range\(2\)"):
            ColoredForest(decode("(oo)"), 0, ((2, 1),), ())
        c = ColoredForest(decode("(oo)"), 2, ((1, 1), (0, 2)), ((1, 1), (0, 2)))
        assert c.leaf_colors == ((0, 2), (1, 1))
        assert c.root_colors == ((0, 2), (1, 1))


class TestPairings:
    def test_classifies_once_and_pairs_like_involute(self, monkeypatch):
        structures = list(itertools.chain.from_iterable(colored_census(2, 4, 2, 3)))
        calls = {"classify": 0, "layout": 0}
        for name in calls:
            original = getattr(involution, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(involution, name, counted)
        entries = list(pairings(structures, [2]))
        forests = len({id(c.forest) for c in structures})
        assert calls == {"classify": len(structures), "layout": forests}
        monkeypatch.undo()
        assert [c for c, _, _ in entries] == structures
        for c, cls, partner in entries:
            assert cls == classify(c)
            assert partner == (involute(c, [2]) if cls.kind == FIRST else None)
        first = [c for c, cls, _ in entries if cls.kind == FIRST]
        second = {c for c, cls, _ in entries if cls.kind == SECOND}
        assert {partner for _, _, partner in entries if partner is not None} == second
        assert len(first) == len(second)

    def test_pair_lines_lays_each_forest_out_once(self, monkeypatch):
        census = colored_census(2, 4, 2, 3)
        calls = {"classify": 0, "layout": 0}
        for name in calls:
            original = getattr(involution, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(involution, name, counted)
        lines = list(pair_lines(2, 4, 2, 3))
        # Every forest of every slice, the uncolorable o;o of slice 4 too.
        forests = sum(len(generate_mixed_forests(residual, 2))
                      for residual, _, _ in census_sizes(VecProfile((4,), (2,)), 2, 3))
        assert calls == {"classify": sum(map(len, census)), "layout": forests}
        assert len(lines) == sum(map(len, census)) // 2  # binom(1, 4) = 0 exceptional

    def test_pair_lines_makes_its_lines_as_they_are_asked_for(self, monkeypatch):
        # Slice 0 is all second class (no colored leaf), so the first line
        # comes from a forest of slice 1, and no later forest is classified.
        calls = []
        original = involution.classify

        def counted(c, *args):
            calls.append(c.forest)
            return original(c, *args)

        monkeypatch.setattr(involution, "classify", counted)
        lines = pair_lines(3, 7, 2, 4)
        assert calls == []
        first = next(lines)
        assert first.startswith("pair ")
        uncolored = generate_mixed_forests(VecProfile((7,), (3,)), 2)
        assert calls[:len(uncolored)] == uncolored
        assert len(set(calls[len(uncolored):])) == 1
        assert len(calls) - len(uncolored) <= VecProfile((6,), (3,)).leaf_count(2) + 2

    def test_a_slice_that_walks_other_than_its_count_raises(self, monkeypatch):
        original = involution._slice_colorings
        monkeypatch.setattr(involution, "_slice_colorings", lambda *args: original(*args)[:-1])
        lines = pair_lines(2, 3, 1, 2)
        with pytest.raises(RuntimeError, match=r"the dump walked 0 structures of the slice "
                                               r"with marks \(0,\), which counts 5;"):
            list(lines)


def _weight(c):
    return c.weight()


class TestSignedMatching:
    def test_certifies_involution(self):
        pool = [c for c in all_structures(2, 3, 1, 1) if classify(c).kind != EXCEPTIONAL]
        assert check_signed_matching(
            pool, _weight, lambda c: involute(c, [2]),
            klass=lambda c: classify(c).kind,
        )

    def test_empty_set_is_vacuously_matched(self):
        assert check_signed_matching([], _weight, lambda c: c)

    def test_odd_set_cannot_match(self):
        pool = [c for c in all_structures(2, 2, 1, 1) if classify(c).kind != EXCEPTIONAL]
        pruned = pool[:-1]  # drop one partner
        assert not check_signed_matching(pruned, _weight, lambda c: involute(c, [2]))
        reason, witness = find_matching_violation(
            pruned, _weight, lambda c: involute(c, [2])
        )
        assert reason == "partner leaves the set"
        assert witness in pruned

    def test_fixed_point_detected(self):
        assert not check_signed_matching([1, 2], lambda x: 1, lambda x: x)
        # Weight 0 is its own opposite, so only the fixed point is at fault.
        assert find_matching_violation([1, 2], lambda x: 0, lambda x: x) == ("fixed point", 1)

    def test_weight_violation_detected(self):
        # identity-like pairing that swaps two items but keeps weights
        pairing = {1: 2, 2: 1}
        assert not check_signed_matching([1, 2], lambda x: 1, lambda x: pairing[x])
        assert find_matching_violation([1, 2], lambda x: 1, lambda x: pairing[x]) == (
            "weight not reversed", 1)


class TestColoredEncoding:
    def test_scalar_text(self):
        c = colored("(oo);o", [1], planted=2, roots=(0,))
        assert encode_colored(c) == "P[2:0]|(oo*);o"

    def test_vector_text(self):
        c = ColoredForest(decode("(oo)"), 2, ((1, 2),), ((1, 1),))
        assert encode_colored(c, num_colors=2) == "P[2:1*1]|(oo*2)"

    def test_no_planted_prefix_shape(self):
        assert encode_colored(colored("o", [0])) == "P[0:]|o*"


class TestColoredForestChecks:
    @pytest.mark.parametrize("planted,leaf_colors,root_colors,message", [
        (0, ((2, 1),), (), r"leaf index 2 is not an int in range\(2\)"),
        (0, ((-1, 1),), (), r"leaf index -1 is not an int in range\(2\)"),
        (0, ((True, 1),), (), r"leaf index True is not an int in range\(2\)"),
        (0, ((1.0, 1),), (), r"leaf index 1.0 is not an int in range\(2\)"),
        (0, (("1", 1), (0, 1)), (), r"leaf index '1' is not an int in range\(2\)"),
        (0, ((0, 0),), (), "colors must be ints >= 1, got 0"),
        (0, ((0, 1.5),), (), r"colors must be ints >= 1, got 1\.5"),
        (0, ((0, 1), (0, 2)), (), "duplicate color entry for leaf 0"),
        (1, (), ((1, 1),), r"planted-root index 1 is not an int in range\(1\)"),
        (2, (), ((True, 1),), r"planted-root index True is not an int in range\(2\)"),
        (2, ((0, True),), ((True, 1.5),), "colors must be ints >= 1, got True"),
        (1, (), ((0, 0),), "colors must be ints >= 1, got 0"),
        (2, (), ((0, 1.5),), r"colors must be ints >= 1, got 1\.5"),
        (2, (), ((0, 1), (0, 2)), "duplicate color entry for root 0"),
    ], ids=["leaf-out-of-range", "leaf-negative", "leaf-bool", "leaf-float", "leaf-str",
            "leaf-color-0", "leaf-color-float", "duplicate-leaf", "root-out-of-range", "root-bool",
            "bool-and-float", "root-color-0", "root-color-float", "duplicate-root"])
    def test_inconsistent_coloring_rejected(self, planted, leaf_colors, root_colors, message):
        with pytest.raises(StructureError, match=message):
            ColoredForest(decode("(oo)"), planted, leaf_colors, root_colors)
