"""Every definition of gqlab is reached from gqlab itself.

A public module-level def or class of ``src/gqlab``, and a private
module-level def without a decorator, must be loaded, as a name or an
attribute, by code of ``src/gqlab`` outside its own body; a test, a
benchmark or a README word does not keep it alive.  Import aliases, string
constants and ``__all__`` do not count.  A decorated private def, such as a
``@check`` body, is reached through its decorator.  Exempt are the names of
``gqlab.__all__`` and the names that ``perfbench/tracer.py`` wraps (its
``KERNELS`` and ``SPANNED`` tables); a second scan exempts ``gqlab.__all__``
alone and pins the names that only those tables keep.
"""

import ast
from pathlib import Path

import gqlab

ROOT = Path(__file__).resolve().parents[1]


def _unreached(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """``module.name`` of each public module-level def or class, and each
    private module-level def without a decorator, of the sources (module ->
    code) that no other top-level statement of any of them loads, unless
    exempt.  Module hooks such as ``__getattr__`` are neither."""
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
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.endswith("__"):
                continue
            if not node.name.startswith("_") or (
                isinstance(node, ast.FunctionDef) and not node.decorator_list
            ):
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


def _public() -> set[str]:
    return {
        f"{getattr(gqlab, name).__module__.removeprefix('gqlab.')}.{name}"
        for name in gqlab.__all__
        if name != "__version__"
    }


def _exempt() -> set[str]:
    return _public() | _tracer_names()


def test_every_public_definition_is_reached_from_gqlab():
    paths = sorted((ROOT / "src" / "gqlab").glob("*.py"))
    sources = {path.stem: path.read_text() for path in paths}
    assert _unreached(sources, _exempt()) == []


def test_only_three_tests_only_names_are_left():
    # the tracer's name tables alone keep these alive; a definition that
    # loses its last caller in src/ joins the list
    paths = sorted((ROOT / "src" / "gqlab").glob("*.py"))
    sources = {path.stem: path.read_text() for path in paths}
    assert _unreached(sources, _public()) == [
        "gf2.row_times_mat",
        "pg.pg_planes",
        "pg.quadric_points",
    ]


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
        "def _helper():\n"
        "    pass\n"
        "@register\n"
        "def _registered():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "Called(_helper)\n"
    )
    user = "from m import recursive as alias\nimport m\nnames = ['listed', '_private']\n"
    assert _unreached({"m": module, "user": user}, {"m.exempted"}) == [
        "m.recursive",
        "m.listed",
        "m._private",
    ]
    assert _unreached({"m": module, "user": "m.recursive()\nm._private()\n"}, set()) == [
        "m.listed",
        "m.exempted",
    ]
