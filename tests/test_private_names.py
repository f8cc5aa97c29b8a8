"""No gqlab module reads a private name of another gqlab module.

A name that starts with ``_`` (dunders aside) belongs to the module that
defines it.  Another module of ``src/gqlab`` may neither import it (``from
gqlab.pg import _x``) nor read it as an attribute of a gqlab module it
imported (``pg._x``, ``gqlab.pg._x``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node: ast.AST) -> str | None:
    """The dotted name an attribute chain of plain names spells, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def _private_reads(tree: ast.AST, module: str) -> list[tuple[int, str]]:
    """(line, dotted name) of every private name of another gqlab module
    that the code of module imports or reads, sorted."""
    bound = {}  # local name -> the dotted gqlab name it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gqlab":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "gqlab"
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = ".".join(filter(None, ["gqlab", node.module]))
            if source.split(".")[0] != "gqlab":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{source}.{alias.name}"
                if _private(alias.name) and source != module:
                    found.append((node.lineno, f"{source}.{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is None or base.split(".")[0] not in bound:
                continue
            head, _, rest = base.partition(".")
            owner = ".".join(filter(None, [bound[head], rest]))
            if owner != module:
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted((ROOT / "src" / "gqlab").glob("*.py")):
        module = "gqlab" if path.stem == "__init__" else f"gqlab.{path.stem}"
        reads = _private_reads(ast.parse(path.read_text()), module)
        found += [f"{path.name}:{line} {name}" for line, name in reads]
    assert found == []


def test_private_reads_are_found_in_synthetic_code():
    source = (
        "import json\n"
        "import gqlab.quadrangle\n"
        "import gqlab.atlas as at\n"
        "from gqlab import pg\n"
        "from gqlab.pg import _ALL_64, pack\n"
        "from . import planes\n"
        "from .gf2 import _cross\n"
        "pg._REP\n"
        "gqlab.quadrangle._sections\n"
        "at._x\n"
        "planes._point_lanes\n"
        "pg.pack, pg.__name__, json._default_encoder, self._own\n"
        "gqlab.checks._kept\n"
    )
    assert _private_reads(ast.parse(source), "gqlab.checks") == [
        (5, "gqlab.pg._ALL_64"),
        (7, "gqlab.gf2._cross"),
        (8, "gqlab.pg._REP"),
        (9, "gqlab.quadrangle._sections"),
        (10, "gqlab.atlas._x"),
        (11, "gqlab.planes._point_lanes"),
    ]
