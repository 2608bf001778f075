"""Every public top-level name in ``src/tamari`` has a caller in ``src/`` or
is named in the README.

The modules are read with ``ast``, not searched for words: a local variable
in one module that shares a name with a function of another (such as the
``covers`` list inside ``classify._cover_masks``) is no caller.  A name is
referenced by

- a load of the name in its own module, outside its own definition;
- ``from .mod import name`` in another module;
- ``mod.name``, where ``mod`` is the short name of its module.

The README names a public function or class as public API by writing it in
backticks, alone or after its module (`` `trees.enumerate_trees` ``), optionally
with an argument list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tamari"

# `name`, `module.name` or `name(args)` in backticks
_README_NAME = re.compile(r"`(?:\w+\.)*(\w+)(?:\([^`]*\))?`")


def _modules(src: Path = SRC) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _own_loads(tree: ast.Module, definitions: dict[str, ast.AST]) -> set[str]:
    """Names of ``definitions`` loaded in ``tree`` outside their own bodies."""
    inside: dict[int, str] = {}
    for name, node in definitions.items():
        for sub in ast.walk(node):
            inside[id(sub)] = name
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id in definitions
        and inside.get(id(node)) != node.id
    }


def _foreign_references(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) pairs referenced as ``from .module import name`` or as
    ``module.name`` in any module."""
    found: set[tuple[str, str]] = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found.add((node.value.id, node.attr))
    return found


def unreferenced_names(src: Path = SRC, readme: Path = ROOT / "README.md") -> list[str]:
    """``module.name`` of every public top-level function or class of the
    modules in ``src`` with no reference there and no README entry."""
    modules = _modules(src)
    foreign = _foreign_references(modules)
    documented = set(_README_NAME.findall(readme.read_text()))
    missing = []
    for module, tree in modules.items():
        definitions = _public_definitions(tree)
        used = _own_loads(tree, definitions)
        for name in definitions:
            if name in used or (module, name) in foreign or name in documented:
                continue
            missing.append(f"{module}.{name}")
    return missing


def test_every_public_name_has_a_caller_or_a_readme_entry():
    missing = unreferenced_names()
    assert not missing, f"no reference in src/ and no README entry: {missing}"


def test_the_rule_reads_references_not_words(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def imported():\n    pass\n\n"
        "def attribute():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "def documented():\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import imported\n\n"
        "def local():\n    recursive = [a.attribute]\n    return recursive\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("See `a.documented(x)` and `b.local`; recursive is prose.\n")
    assert unreferenced_names(tmp_path, readme) == ["a.recursive"]
