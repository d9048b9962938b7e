"""Every module-level import in `src/songflow` is used: a deleted check
must not leave its error class (or anything else) imported for nothing."""

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
