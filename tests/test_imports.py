"""Every module-level import in `src/songflow` is used: a deleted check
must not leave its error class (or anything else) imported for nothing. And
each module's `__all__` names exactly its public top-level functions and
classes, plus constants it binds: no public def goes unexported and no
deleted name stays exported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "songflow"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each module-level import binds, mapped to its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree: ast.Module) -> dict[str, int]:
    """Imported names that no Name node reads and `__all__` does not list."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    return {name: line for name, line in _imported_names(tree).items() if name not in used}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .errors import ContractError, ParseError\n"
        "__all__ = ['ParseError']\n"
        "x = np.zeros(1)\n"
    )
    assert _unused_imports(tree) == {"ContractError": 3}


def _export_mismatch(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(public top-level defs and classes missing from `__all__`, names in
    `__all__` that the module neither defines nor assigns)."""
    public = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assigned = {
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    exported = _exported_names(tree)
    return public - exported, exported - public - assigned


_WITH_ALL = [p for p in sorted(SRC.glob("*.py")) if "__all__" in p.read_text(encoding="utf-8")]


@pytest.mark.parametrize("path", _WITH_ALL, ids=lambda p: p.name)
def test_all_names_exactly_the_public_defs(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing, stale = _export_mismatch(tree)
    assert not missing and not stale, f"{path.name}: unexported {missing}, stale {stale}"


def test_the_check_finds_an_unexported_and_a_stale_name():
    tree = ast.parse(
        "LIMIT = 3\n"
        "__all__ = ['LIMIT', 'kept', 'Gone']\n"
        "def kept(): pass\n"
        "def new(): pass\n"
        "def _private(): pass\n"
    )
    assert _export_mismatch(tree) == ({"new"}, {"Gone"})
