"""No public function or class of gqlab goes unused, and no private helper.

A public module-level function or class of ``src/gqlab`` must be named
somewhere besides its own definition and ``__all__``: in code, imports,
attribute access or a string constant (the benchmark looks names up with
``getattr``) anywhere in ``src/``, ``tests/`` or ``perfbench/``, or as a
word of ``README.md``.  A private module-level function without a
decorator must be named the same way; a decorated one, such as a ``@check``
body, is reached through its decorator.
"""

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(private: bool) -> list[tuple[str, str]]:
    """(module, name) of every public module-level def and class, or with
    private=True of every private module-level def without a decorator.
    Module hooks such as ``__getattr__`` are neither."""
    found = []
    for path in sorted((ROOT / "src" / "gqlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.endswith("__") or node.name.startswith("_") != private:
                continue
            if not private or (isinstance(node, ast.FunctionDef) and not node.decorator_list):
                found.append((path.stem, node.name))
    return found


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or spells as a string, outside __all__."""
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                listed.update(map(id, ast.walk(node)))
    used = set()
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


@cache
def _references() -> frozenset[str]:
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text()))
    return frozenset(used)


def test_every_public_definition_is_referenced():
    used = _references()
    unused = [f"{module}.{name}" for module, name in _definitions(False) if name not in used]
    assert unused == []


def test_every_undecorated_private_helper_is_referenced():
    used = _references()
    unused = [f"{module}.{name}" for module, name in _definitions(True) if name not in used]
    assert unused == []


def test_decorated_private_functions_are_exempt():
    helpers = set(_definitions(True))
    assert ("quadrangle", "_search_order") in helpers
    assert ("checks", "_check_statistics") not in helpers  # registered by @check
    assert ("planes", "_block_collineation") not in helpers


def test_names_in_all_alone_do_not_count():
    tree = ast.parse("__all__ = ['orphan']\n__all__ += ['other']\nprint('kept', used_name)\n")
    assert _names_used(tree) == {"print", "kept", "used_name"}
