"""Every Ed25519 operation in the package goes through a memoized helper.

``crypto.py`` memoizes each Ed25519 operation on its exact inputs. A call to
``.sign(``, ``.verify(``, ``from_private_bytes`` or ``from_public_bytes``
anywhere else would pay for the operation again on every run, so the scan
allows these calls only inside a function decorated with a memo (``_MEMO``
or ``lru_cache``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tapsim"
OPERATIONS = frozenset({"sign", "verify", "from_private_bytes", "from_public_bytes"})
MEMOS = frozenset({"_MEMO", "lru_cache"})


def _memoized(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) in MEMOS:
            return True
    return False


def unmemoized_calls(sources: dict[str, str]) -> list[str]:
    """``file:line name`` of each Ed25519 call in ``sources`` outside a memoized function."""
    found = []

    def visit(node: ast.AST, inside: bool, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not inside:
                func = child.func
                called = getattr(func, "attr", getattr(func, "id", None))
                if called in OPERATIONS:
                    found.append(f"{name}:{child.lineno} {called}")
            visit(child, inside or _memoized(child), name)

    for name, source in sources.items():
        visit(ast.parse(source), False, name)
    return found


def test_scan_flags_calls_outside_the_memo():
    sources = {
        "crypto.py": "@_MEMO\ndef _signature(key, msg):\n    return key.sign(msg)\n"
                     "def sign(key, msg):\n    return key.sign(msg)\n"
                     "@functools.lru_cache(maxsize=8)\ndef load(raw):\n"
                     "    return Ed25519PublicKey.from_public_bytes(raw)\n"
                     "def key(seed):\n    return from_private_bytes(seed)\n",
        "card.py": "def check(pub, sig, msg):\n    # key.sign(msg) in a comment is no call\n"
                   "    store.verify_chain(pub)\n    pub.verify(sig, msg)\n",
    }
    assert unmemoized_calls(sources) == [
        "crypto.py:5 sign", "crypto.py:10 from_private_bytes", "card.py:4 verify"]


def test_every_ed25519_call_is_memoized():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unmemoized_calls(sources) == []
