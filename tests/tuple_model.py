"""The reference model of the tests: a tree is the plain tuple of its
children (a leaf is ``()``), and a forest the plain tuple of its trees.

The model is parsed from text (``model_of``) or drawn directly
(``model_trees``, ``model_forests``), and written back by a walk of its own
(``model_text``, which can also mark leaves by index).  ``model_vertices``
lists each vertex with its depth, its text position and, for a leaf, its
leaf index, so that the tests can name leaves and vertices as the package
does without the package's own layout.  No walk here recurses, except
``built`` on the shallow trees that the strategies draw.
"""

from hypothesis import strategies as st

from catalania.forest import Forest, Tree

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


def model_text(model, marks=None):
    """The text of a model forest, written one vertex at a time (a tree's
    text is that of its one-tree forest), with leaf i written as marks[i]
    where ``marks`` has an entry for it, and as "o" elsewhere."""
    marks = marks or {}
    items = []
    for i, component in enumerate(model):
        items += [";", component] if i else [component]
    stack = items[::-1]
    out, leaves = [], 0
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
        elif node:
            out.append("(")
            stack.append(")")
            stack.extend(reversed(node))
        else:
            out.append(marks.get(leaves, "o"))
            leaves += 1
    return "".join(out)


def built(model_tree):
    """The Tree of a model tree, built by Tree(children) from its leaves up."""
    return Tree(map(built, model_tree))


def built_forest(model):
    """The Forest of a model forest, built by Forest(trees)."""
    return Forest(map(built, model))


def model_vertices(model):
    """Each vertex of a model forest in preorder, as (depth, text position,
    leaf index or None, model subtree): the position counts the characters
    that model_text writes before the vertex, and the leaf index the leaves
    before it."""
    stack = []
    for i, tree in enumerate(reversed(model)):
        if i:
            stack.append(";")
        stack.append((0, tree))
    out, pos, leaves = [], 0, 0
    while stack:
        item = stack.pop()
        if item.__class__ is not str:
            depth, node = item
            out.append((depth, pos, None if node else leaves, node))
            if node:
                stack.append(")")
                stack.extend((depth + 1, kid) for kid in reversed(node))
            else:
                leaves += 1
        pos += 1
    return out


def model_levels(model):
    """The vertices of model_vertices by depth, each level left to right."""
    levels = []
    for vertex in model_vertices(model):
        if vertex[0] == len(levels):
            levels.append([])
        levels[vertex[0]].append(vertex)
    return levels
