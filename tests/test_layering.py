"""Modules of the package use only each other's public names."""

import ast
from pathlib import Path

import catalania

PACKAGE_DIR = Path(catalania.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "catalania"
        if internal:
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_package_modules_are_found():
    names = {path.name for path in PACKAGE_DIR.glob("*.py")}
    assert {"cli.py", "identities.py", "involution.py", "riordan.py"} <= names


def test_no_module_imports_a_private_name_from_another():
    found = [item for path in sorted(PACKAGE_DIR.glob("*.py")) for item in _private_imports(path)]
    assert found == []
