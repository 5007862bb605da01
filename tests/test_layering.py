"""Modules of the package use only each other's public names, and the
package serves its public names from lazily loaded layers."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import catalania

PACKAGE_DIR = Path(catalania.__file__).parent


MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")}


def _dotted(node: ast.AST) -> str:
    """"a.b.c" for a chain of names and attribute reads, else ""."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return inner and f"{inner}.{node.attr}"
    return ""


def _private_uses(source: str, name: str) -> list[str]:
    """Where a module imports another package module's private name, or reads
    one as an attribute of that module (``riordan._mul_to``)."""
    tree = ast.parse(source, name)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "catalania":
                found += [f"{name}:{node.lineno}: {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name in MODULES}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "catalania":
                    continue
                if alias.asname and alias.name != "catalania":
                    modules.add(alias.asname)
                else:  # the package is bound, as catalania or its alias
                    modules |= {f"{alias.asname or 'catalania'}.{m}" for m in MODULES}
    private = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr.startswith("_") and not node.attr.endswith("__")]
    return found + [f"{name}:{node.lineno}: {_dotted(node)}" for node in private
                    if _dotted(node.value) in modules]


def _attribute_hooks(path: Path) -> list[str]:
    """Where a module defines or assigns ``__setattr__`` or ``__delattr__``."""
    hooks = ("__setattr__", "__delattr__")
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id if isinstance(n, ast.Name) else n.attr
                     for target in targets for n in ast.walk(target)
                     if isinstance(n, (ast.Name, ast.Attribute))]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names if name in hooks]
    return found


def test_package_modules_are_found():
    names = {path.name for path in PACKAGE_DIR.glob("*.py")}
    assert {"cli.py", "identities.py", "involution.py", "riordan.py"} <= names


def test_no_module_imports_a_private_name_from_another():
    found = [item for path in sorted(PACKAGE_DIR.glob("*.py"))
             for item in _private_uses(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


@pytest.mark.parametrize("source,found", [
    ("from .riordan import _mul_to\n", ["m.py:1: _mul_to"]),
    ("from . import riordan\nriordan._mul_to(a, b, 1)\n", ["m.py:2: riordan._mul_to"]),
    ("from catalania import riordan as r\nx = r._power\n", ["m.py:2: r._power"]),
    ("import catalania.riordan\ncatalania.riordan._lowest([1], 1)\n",
     ["m.py:2: catalania.riordan._lowest"]),
    ("import catalania.riordan as r\nr._over_x\n", ["m.py:2: r._over_x"]),
    ("import catalania\ncatalania.riordan._lowest([1], 1)\n",
     ["m.py:2: catalania.riordan._lowest"]),
    ("import catalania as c\nc.forest._pools\n", ["m.py:2: c.forest._pools"]),
    ("import catalania.riordan\ncatalania.forest._pools\n", ["m.py:2: catalania.forest._pools"]),
    # Not another module's private name: a class's, a dunder, or a local object's.
    ("from . import riordan\nriordan.Series._make()\nriordan.__name__\n", []),
    ("from .riordan import Series\nSeries._make(); self._x\n", []),
])
def test_the_private_name_check_sees_imports_and_attribute_reads(source, found):
    assert _private_uses(source, "m.py") == found


def test_only_exact_defines_the_write_once_rule():
    found = [item for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "exact.py"
             for item in _attribute_hooks(path)]
    assert found == []
    assert {item.split(": ")[1] for item in _attribute_hooks(PACKAGE_DIR / "exact.py")} == {
        "__setattr__", "__delattr__"}


LAYERS = ("exact", "counting", "census", "forest", "involution", "riordan", "identities")

# A backtick span that is a name, dotted or called: `encode`, `exact.Frozen`, `binom(x, k)`.
_NAMED = re.compile(r"`(?:\w+\.)*(\w+)(?:\([^`]*\))?`")


def _unreferenced(sources: dict[str, str], readme: str) -> list[str]:
    """The top-level public functions and classes of the layer modules in ``sources``
    (module name -> text) that no code of any module reads outside their own
    definition, and that ``readme`` does not name in backticks.  Strings, docstrings
    and imports are not reads.  Each module is walked once: every name it reads is
    kept with the module and the top-level definition the read sits in."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    named = set(_NAMED.findall(readme))
    readers: dict[str, set] = {}  # name read -> {(module, enclosing top-level definition)}
    for module, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for ref in ast.walk(top):
                if isinstance(ref, (ast.Name, ast.Attribute)) and isinstance(ref.ctx, ast.Load):
                    name = ref.id if isinstance(ref, ast.Name) else ref.attr
                    readers.setdefault(name, set()).add((module, owner))
    found = []
    for layer in filter(trees.__contains__, LAYERS):
        for node in trees[layer].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            read = readers.get(node.name, set()) - {(layer, node.name)}
            if not read and node.name not in named:
                found.append(f"{layer}.{node.name}")
    return found


def test_every_public_name_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE_DIR.glob("*.py")}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert _unreferenced(sources, readme) == []


@pytest.mark.parametrize("sources,readme,found", [
    ({"riordan": "def series_neg(a):\n    return a\n"}, "", ["riordan.series_neg"]),
    # A call from another module, or from a sibling in the same one, is a read.
    ({"riordan": "def series_neg(a):\n    return a\n",
      "cli": "from . import riordan\nriordan.series_neg(1)\n"}, "", []),
    ({"exact": "def binom(x, k):\n    return 1\n\ndef b2(x):\n    return binom(x, 2)\n"},
     "`b2(x)`", []),
    # A self-call, an import, a string or a docstring is not; neither is bare README text.
    ({"forest": "def walk(t):\n    return walk(t)\n",
      "cli": "from .forest import walk\n'walk'\n\ndef f():\n    \"\"\"Calls walk.\"\"\"\n"},
     "walk, `walk it`", ["forest.walk"]),
    ({"forest": "class Tree:\n    pass\n\ndef walk(t):\n    pass\n"},
     "`forest.Tree` and `walk(t)`", []),
    ({"cli": "def main():\n    pass\n", "forest": "def _walk(t):\n    pass\n"}, "", []),
])
def test_the_caller_check_sees_reads_and_backticks(sources, readme, found):
    assert _unreferenced(sources, readme) == found


def test_public_names_are_their_modules_objects():
    for name in catalania.__all__:
        if name == "__version__":
            continue
        value = getattr(catalania, name)
        holders = [layer for layer in LAYERS
                   if vars(getattr(catalania, layer)).get(name) is value]
        assert holders, name
        home = getattr(value, "__module__", "")
        if home.startswith("catalania."):
            assert home.split(".")[1] in holders, name


def test_star_import_and_dir_cover_all_public_names():
    namespace: dict = {}
    exec("from catalania import *", namespace)
    assert all(namespace[name] is getattr(catalania, name) for name in catalania.__all__)
    assert set(catalania.__all__) <= set(dir(catalania))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        catalania.no_such_name  # noqa: B018
    assert not hasattr(catalania, "eq2_lhs")


def test_cli_import_registers_every_layer_without_running_it():
    # A tracer that rebinds functions across the package finds every layer
    # in sys.modules after importing the CLI alone, and reading a layer's
    # namespace runs it.
    child = (
        "import json, sys, types\n"
        "import catalania.cli\n"
        "ran = {name: type(m) is types.ModuleType for name, m in sys.modules.items()\n"
        "       if name.partition('.')[0] == 'catalania'}\n"
        "binom = vars(sys.modules['catalania.exact'])['binom']\n"
        "print(json.dumps([ran, binom(5, 2) == 10]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, check=True)
    ran, binom_works = json.loads(proc.stdout)
    assert ran == {"catalania": True, "catalania.cli": True,
                   **{f"catalania.{layer}": False for layer in LAYERS}}
    assert binom_works
