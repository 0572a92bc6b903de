"""Every public method of a package class is used somewhere.

Unlike a private helper, a public method may be called by another module,
by the tests or by the benchmark, so the search covers ``src/``, ``tests/``
and ``perfbench/``. A use is an attribute read of the method's name, a
string in the package equal to it (``getattr(card, "bind", None)``) or a
target named in ``perfbench/layers.py``'s ``OPS`` (the benchmark wraps those
by name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tapsim"
LAYERS = ROOT / "perfbench" / "layers.py"


def _public_methods(tree: ast.AST) -> list[tuple[str, str, int]]:
    return [(cls.name, node.name, node.lineno)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _attribute_reads(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _strings(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _ops_methods(layers: ast.AST) -> set[str]:
    ops = next(node.value for node in layers.body if isinstance(node, ast.AnnAssign)
               and getattr(node.target, "id", None) == "OPS")
    return {target.rpartition(".")[2]
            for targets in ast.literal_eval(ops).values() for _module, target in targets}


def unused_public_methods(package: list[str], others: list[str], layers: str) -> list[str]:
    """The public methods defined in ``package`` sources that no source in
    ``package`` or ``others`` reads, no package string names and no ``OPS``
    target in the ``layers`` source names."""
    package_trees = [ast.parse(source) for source in package]
    used = _ops_methods(ast.parse(layers))
    for tree in package_trees:
        used |= _attribute_reads(tree) | _strings(tree)
    for source in others:
        used |= _attribute_reads(ast.parse(source))
    return sorted(f"{cls}.{name} (line {line})" for tree in package_trees
                  for cls, name, line in _public_methods(tree) if name not in used)


def test_detector_flags_what_is_never_used():
    package = [
        "class Card:\n"
        "    def exchange(self):\n        return self.answer()\n"
        "    def answer(self):\n        pass\n"
        "    def bind(self):\n        pass\n"
        "    def wrapped(self):\n        pass\n"
        "    def tested(self):\n        pass\n"
        "    def orphan(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "def use(card):\n    card.exchange = None\n    getattr(card, 'bind')()\n",
        "class Terminal:\n    def run(self):\n        pass\n",
    ]
    tests = ["def test_card(card):\n    card.tested()\n    assert 'run'\n"]
    layers = 'OPS: dict = {"card": (("pkg.card", "Card.wrapped"),)}\n'
    assert unused_public_methods(package, tests, layers) == [
        "Card.exchange (line 2)", "Card.orphan (line 12)", "Terminal.run (line 2)"]


def test_no_unused_public_methods():
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    others = [path.read_text(encoding="utf-8")
              for folder in (ROOT / "tests", ROOT / "perfbench")
              for path in sorted(folder.glob("*.py"))]
    assert unused_public_methods(package, others, LAYERS.read_text(encoding="utf-8")) == []
