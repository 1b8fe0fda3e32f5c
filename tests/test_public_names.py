"""Every public package name is used outside the tests.

A name in ``netsketch.__all__`` that no library module and no benchmark
script reads is code that only tests call.  This walks the package modules
(not ``__init__.py``, which only re-exports) and ``perfbench/*.py`` and
lists the public names that none of them loads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import netsketch

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path, imports_count: bool) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif imports_count and isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_used_outside_the_tests():
    used: set[str] = set()
    for path in sorted((ROOT / "src" / "netsketch").glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(path, imports_count=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _used_names(path, imports_count=True)
    assert sorted(set(netsketch.__all__) - used) == []
