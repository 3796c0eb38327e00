"""The public API has no name that only tests use."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import tritile

ROOT = Path(__file__).resolve().parent.parent


def used_names(path: Path, imports: bool) -> set[str]:
    """The names and attributes that ``path`` loads, and with ``imports`` the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_user():
    """Each name in ``tritile.__all__`` is loaded by the library outside
    ``__init__.py``, used by the benchmark, or named in the README."""
    used = set()
    for path in (ROOT / "src" / "tritile").glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path, imports=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= used_names(path, imports=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in tritile.__all__
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []


def test_every_imported_name_is_used():
    """Each name a ``src/tritile`` module imports is loaded in that module or,
    in ``__init__.py``, listed in ``__all__``; no linter runs here to catch
    an import that a deletion left behind."""
    unused = []
    for path in sorted((ROOT / "src" / "tritile").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            loaded |= set(tritile.__all__)
        unused += [f"{path.name}: {name}" for name in sorted(imported - loaded)]
    assert unused == []
