"""Every module-level import in `src/songflow` is used: a deleted check
must not leave its error class (or anything else) imported for nothing. And
each module's `__all__` names exactly its public top-level functions and
classes, plus constants it binds: no public def goes unexported and no
deleted name stays exported. No module imports another module's private
(`_`-prefixed) name: a name two modules share is public. Every top-level
function and class is named somewhere other than its own definition: code
that only tests reach is deleted."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "songflow"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if _is_all(node):
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


def _private_imports(tree: ast.Module) -> dict[str, int]:
    """`_`-prefixed names imported from another module, at any depth,
    mapped to their line."""
    return {
        alias.name: node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name.startswith("_")
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    private = _private_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not private, f"{path.name}: imports private names {private}"


def test_the_check_finds_a_private_import():
    tree = ast.parse(
        "from .conditioning import lyric_tokens, _is_cjk\n"
        "def f():\n"
        "    from .tensor import _Node\n"
        "    return _Node\n"
    )
    assert _private_imports(tree) == {"_is_cjk": 1, "_Node": 3}


def _names_read(node: ast.AST, strings: bool = False) -> set[str]:
    """Names a node reads, attributes included, and with strings=True its
    string constants too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _unreferenced_defs(modules: dict[str, ast.Module], bench: list[ast.Module]) -> set[str]:
    """"module.name" of each top-level function and class that no other
    top-level statement of `modules` names, outside `__all__`, and that no
    `bench` module names, as code or, since the tracer looks ops up by
    string, as a string."""
    bench_reads = set().union(*(_names_read(tree, strings=True) for tree in bench))
    reads = [(stmt, _names_read(stmt)) for tree in modules.values() for stmt in tree.body
             if not _is_all(stmt)]
    return {
        f"{module}.{stmt.name}"
        for module, tree in modules.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in bench_reads
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    }


def _parse_all(paths) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def test_every_top_level_def_is_named_outside_itself():
    unreferenced = _unreferenced_defs(
        _parse_all(sorted(SRC.glob("*.py"))), list(_parse_all(sorted(BENCH.glob("*.py"))).values())
    )
    assert not unreferenced, f"named only by their own definitions or tests: {sorted(unreferenced)}"


def test_the_check_finds_an_unreferenced_def():
    modules = {
        "a": ast.parse(
            "__all__ = ['used', 'lone', 'traced']\n"
            "def used(): pass\n"
            "def lone(): return lone()\n"
            "def traced(): pass\n"
            "class _Kept: pass\n"
            "k = _Kept\n"
        ),
        "b": ast.parse("from .a import used\nused()\n"),
    }
    bench = [ast.parse("patch(a, 'traced')\n")]
    assert _unreferenced_defs(modules, bench) == {"a.lone"}
