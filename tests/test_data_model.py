"""The hashable immutable value types: the ``exact.Record`` values (the
trees and forests of forest.py, which hold their text, the colored forests
of involution.py, all deep-safe, and the records of counting.py and
identities.py) and the named tuple ``Classification``.  Each is equal only
to its own kind and round-trips through copy and pickle at every protocol,
and a Record is its own copy.
(``Series`` and ``RiordanArray`` are tested in test_riordan.py: one is
unhashable, the other compared by identity.)"""

import copy
import pickle

from fractions import Fraction as F

import pytest

from catalania.counting import VecProfile
from catalania.forest import LEAF, Forest, Tree, decode, encode
from catalania.involution import (
    FIRST,
    Classification,
    ColoredForest,
    check_signed_matching,
    classify,
    colored_census,
    find_matching_violation,
    involute,
)
from catalania.identities import Counterexample, GouldPair, IdentityReport


def _values():
    """Two equal, separately built values of each type, and one that
    differs from them in a single field or vertex."""
    pair = Tree((LEAF, LEAF))
    return {
        "Tree": (Tree((LEAF, pair)), Tree((LEAF, Tree((LEAF, LEAF)))), Tree((pair, LEAF))),
        "Forest": (decode("(oo);o"), decode("(oo);o"), decode("o;(oo)")),
        "ColoredForest": (
            ColoredForest(decode("(oo)"), 1, ((1, 1),), ((0, 2),)),
            ColoredForest(decode("(oo)"), 1, [(1, 1)], [(0, 2)]),
            ColoredForest(decode("(oo)"), 1, ((0, 1),), ((0, 2),)),
        ),
        "Classification": (Classification(FIRST, 2), Classification(FIRST, 2),
                           Classification(FIRST, 1)),
        "VecProfile": (VecProfile((2, 1), (2, 3)), VecProfile([2, 1], [2, 3]),
                       VecProfile((1, 2), (2, 3))),
        "Counterexample": (Counterexample((("n", "2"),), "2", "1", "direct sum"),
                           Counterexample.at({"n": 2}, 2, 1, "direct sum"),
                           Counterexample((("n", "2"),), "2", "1")),
        "IdentityReport": (IdentityReport("Eq2", "grid", "pass"),
                           IdentityReport("Eq2", "grid", "pass", None, ()),
                           IdentityReport("Eq2", "grid", "pass", skipped=("n=1",))),
        "GouldPair": (GouldPair(2, 1, F(1, 3)), GouldPair(2, F(1), F(2, 6)), GouldPair(2, 1, F(1, 2))),
    }


FIELDS = {"Tree": "text", "Forest": "text",
          "ColoredForest": "planted", "Classification": "kind", "VecProfile": "n",
          "Counterexample": "lhs", "IdentityReport": "status", "GouldPair": "z"}
NAMES = sorted(FIELDS)


@pytest.mark.parametrize("name", NAMES)
def test_immutable(name):
    value, _, _ = _values()[name]
    before = copy.copy(value)
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[name], None)
    with pytest.raises(AttributeError):
        delattr(value, FIELDS[name])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == before


@pytest.mark.parametrize("name", NAMES)
def test_equal_iff_structurally_equal(name):
    value, twin, other = _values()[name]
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and not value == other
    assert len({value, twin, other}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    value, _, _ = _values()[name]
    pickled = [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*pickled, copy.copy(value), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)
        assert hash(clone) == hash(value)


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"Classification"}))
def test_a_record_is_its_own_copy(name):
    value, _, _ = _values()[name]
    assert copy.copy(value) is value and copy.deepcopy(value) is value


def test_colored_forest_is_not_a_sequence():
    c = ColoredForest(decode("(oo)"), 1, ((1, 1),), ((0, 2),))
    with pytest.raises(TypeError):
        len(c)
    assert c != (c.forest, c.planted, c.leaf_colors, c.root_colors)
    assert (c.forest, c.planted, c.leaf_colors, c.root_colors) != c


def test_tree_is_never_a_plain_tuple():
    assert Tree((LEAF,)) != (LEAF,)
    assert (LEAF,) != Tree((LEAF,))
    assert LEAF != ()
    assert Tree((LEAF,)) != Forest((LEAF,))
    assert Forest((LEAF,)) != (LEAF,)
    assert Forest((LEAF,)) != Tree((LEAF,))


def test_tree_fields():
    # The one field of a tree or a forest is its text, which its
    # constructor joins from its parts' texts.
    tree = Tree((LEAF, Tree((LEAF, LEAF))))
    assert (LEAF.text, tree.text) == ("o", "(o(oo))")
    assert Forest((tree, LEAF)).text == "(o(oo));o" and Forest(()).text == ""
    assert decode("o;o") == Forest((LEAF, LEAF))


def test_unbalanced_text_raises():
    # Text from outside enters through decode, which refuses text that ends
    # with a "(" still open rather than holding it.
    with pytest.raises(ValueError, match=r"unclosed '\(' at position 5"):
        decode("(((o)")


def test_repr_text():
    assert repr(Classification(FIRST, 2)) == "Classification(kind='first', vertex=2)"
    assert repr(Classification("exceptional")) == "Classification(kind='exceptional', vertex=None)"
    assert repr(decode("(oo)")) == "Forest(text='(oo)')"
    assert repr(Tree((LEAF, LEAF))) == "Tree(text='(oo)')"
    assert repr(ColoredForest(decode("o"), 1, (), ((0, 1),))) == (
        "ColoredForest(forest=Forest(text='o'), planted=1, leaf_colors=(), "
        "root_colors=((0, 1),))")


DEEP = "(" * 3000 + "o" + ")" * 3000


def deep_tree():
    """The unary chain of DEEP, built by Tree(children) one level at a time."""
    tree = LEAF
    for _ in range(3000):
        tree = Tree((tree,))
    return tree


def test_deep_trees_compare_and_hash():
    first, second = decode(DEEP), decode(DEEP)
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({deep_tree(), deep_tree()}) == 1
    assert first != decode("(" + DEEP + ")") and first == Forest((deep_tree(),))
    assert encode(first).count("(") == 3000 and encode(first).count("o") == 1


def test_deep_trees_repr_pickle_and_copy():
    forest = decode(DEEP)
    assert repr(forest) == f"Forest(text='{DEEP}')"
    assert repr(deep_tree()) == f"Tree(text='{DEEP}')"
    for value in (forest, deep_tree()):
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and type(clone) is type(value)
        assert copy.copy(value) is value and copy.deepcopy(value) is value
    colored = ColoredForest(forest, 1, (), ((0, 1),))
    assert pickle.loads(pickle.dumps(colored)) == colored
    assert copy.deepcopy(colored) is colored


def test_signed_matching_on_a_deep_census():
    structures = [c for piece in colored_census(1, 1500, 1, 2) for c in piece]
    assert len(structures) == 4
    assert check_signed_matching(structures, lambda c: c.weight(), lambda c: involute(c, [1]),
                                 klass=lambda c: classify(c).kind)


def test_first_duplicate_in_input_order_is_reported():
    a, b = decode("o"), decode("(o)")
    assert find_matching_violation([a, b, b, a], int, id) == ("duplicate structure", a)
    assert find_matching_violation([b, a, decode("o")], int, id) == ("duplicate structure", a)


class _Counted:
    """A hashable item that counts the equality tests made on it."""

    tests = 0

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        _Counted.tests += 1
        return self.key == other.key


def test_duplicate_scan_is_linear():
    items = [_Counted(k) for k in range(2000)] + [_Counted(1999)]
    _Counted.tests = 0
    reason, witness = find_matching_violation(items, int, id)
    assert (reason, witness) == ("duplicate structure", items[1999])
    assert _Counted.tests <= 2 * len(items)
