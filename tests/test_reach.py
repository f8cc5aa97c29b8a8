"""Every public definition of gqlab is reached from gqlab itself.

Stricter than ``test_dead_code``, which lets a test, a benchmark or a README
word keep a name alive: a public module-level def or class of ``src/gqlab``
must be loaded, as a name or an attribute, by code of ``src/gqlab`` outside
its own body.  Import aliases and string constants do not count.  Exempt
are the names of ``gqlab.__all__``, the names that ``perfbench/tracer.py``
wraps (its ``KERNELS`` and ``SPANNED`` tables) and the names that CI's
``tests/cold_cli.py`` imports.
"""

import ast
from pathlib import Path

import gqlab

ROOT = Path(__file__).resolve().parents[1]


def _unreached(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """``module.name`` of each public module-level def or class of the
    sources (module -> code) that no other top-level statement of any of
    them loads, unless exempt."""
    statements, definitions = [], []
    for module, code in sources.items():
        for node in ast.parse(code).body:
            loads = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    loads.add(sub.attr)
            statements.append((node, loads))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((module, node))
    return [
        f"{module}.{node.name}"
        for module, node in definitions
        if f"{module}.{node.name}" not in exempt
        and not any(node.name in loads for other, loads in statements if other is not node)
    ]


def _tracer_names() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("KERNELS", "SPANNED"):
            for module, wrapped in ast.literal_eval(node.value).items():
                names.update(f"{module}.{name}" for name in wrapped)
    return names


def _cold_cli_names() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "cold_cli.py").read_text())
    return {
        f"{node.module.removeprefix('gqlab.')}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gqlab.")
        for alias in node.names
    }


def _exempt() -> set[str]:
    public = {
        f"{getattr(gqlab, name).__module__.removeprefix('gqlab.')}.{name}"
        for name in gqlab.__all__
        if name != "__version__"
    }
    return public | _tracer_names() | _cold_cli_names()


def test_every_public_definition_is_reached_from_gqlab():
    paths = sorted((ROOT / "src" / "gqlab").glob("*.py"))
    sources = {path.stem: path.read_text() for path in paths}
    assert _unreached(sources, _exempt()) == []


def test_own_body_all_aliases_and_strings_do_not_reach():
    module = (
        "__all__ = ['listed']\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def listed():\n"
        "    pass\n"
        "class Called:\n"
        "    pass\n"
        "def exempted():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "Called()\n"
    )
    user = "from m import recursive as alias\nimport m\nnames = ['listed', 'recursive']\n"
    assert _unreached({"m": module, "user": user}, {"m.exempted"}) == ["m.recursive", "m.listed"]
    assert _unreached({"m": module, "user": "m.recursive()\n"}, set()) == [
        "m.listed",
        "m.exempted",
    ]
