"""Every private helper the package defines is used in its own module.

A module-level ``_name`` or a private method is visible only to the module
that defines it, so one that the module never mentions again is dead code.
A mention is a name read, an attribute read or a string equal to the name
(handlers looked up with ``getattr`` are named in strings).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tapsim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.For)):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        for name in _bound_names(node):
            defined.setdefault(name, node.lineno)
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, node.lineno)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if _private(name) and name not in used)


def test_detector_flags_what_is_never_used():
    source = (
        "_LIMIT = 3\n_SPARE = 4\n"
        "def _helper():\n    return _LIMIT\n"
        "def _orphan():\n    pass\n"
        "class Card:\n"
        "    _HANDLERS = {'SELECT': '_on_select'}\n"
        "    def __init__(self):\n        self._n = _helper()\n"
        "    def _on_select(self):\n        pass\n"
        "    def _never(self):\n        pass\n"
        "    def exchange(self):\n        return getattr(self, self._HANDLERS['SELECT'])()\n"
    )
    assert unused_private_names(source) == [
        "_SPARE (line 2)", "_never (line 13)", "_orphan (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
