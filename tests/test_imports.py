"""What each command imports, and the public surface of the lazy package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gqlab
import gqlab.checks
import gqlab.quadrangle
from gqlab.atlas import atlas
from gqlab.planes import intersection_statistics
from gqlab.quadrangle import make_structure

SRC = Path(__file__).resolve().parents[1] / "src"

# run as `python -c PROBE <cli args>`: the CLI runs as `python -m gqlab.cli`
# would run it, then the loaded module names go to stderr, one line
PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('gqlab.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
)

# modules that classify does not run, and the stdlib modules that a
# dataclass record would pull in
NOT_FOR_CLASSIFY = {
    "gqlab.checks",
    "gqlab.exports",
    "gqlab.jsontext",
    "gqlab.planes",
    "dataclasses",
    "inspect",
}


def _modules_after(code: str, *args: str, cwd: Path, flags: tuple[str, ...] = ()) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_cli_commands_import_only_what_they_run(tmp_path):
    imported = _modules_after(
        "import sys, gqlab.cli; print(*sys.modules, file=sys.stderr)", cwd=tmp_path
    )
    assert "gqlab.cli" in imported
    assert not imported & NOT_FOR_CLASSIFY

    classified = _modules_after(PROBE, "classify", "001100", cwd=tmp_path)
    assert {"gqlab.gf2", "gqlab.atlas", "gqlab.pg", "gqlab.quadrangle"} <= classified
    assert not classified & NOT_FOR_CLASSIFY

    out = tmp_path / "atlas.csv"
    exported = _modules_after(
        PROBE, "export", "--what", "atlas", "--format", "csv", "--out", str(out), cwd=tmp_path
    )
    assert "gqlab.exports" in exported
    assert "gqlab.checks" not in exported
    assert out.read_text(encoding="utf-8").startswith("label,bits,class,eigenspace_dim,involution\n")


# argparse and the gettext and locale it pulls in; the CLI parses its
# grammar itself
PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_cold_commands_load_no_argparse_and_only_what_their_output_needs(tmp_path):
    # site may load modules itself (a .pth file can load json or pathlib), so
    # the probes run without it
    def loaded(*args: str) -> set[str]:
        return _modules_after(PROBE, *args, cwd=tmp_path, flags=("-S",))

    def exported(what: str, fmt: str) -> set[str]:
        out = str(tmp_path / f"{what}.{fmt}")
        return loaded("export", "--what", what, "--format", fmt, "--out", out)

    classified = loaded("classify", "001100")
    verified_json = loaded("verify", "--format", "json")
    verified_text = loaded("verify", "--format", "text")
    runs = [classified, verified_json, verified_text]
    runs += [exported(*pair) for pair in (("atlas", "json"), ("incidence", "dot"), ("atlas", "csv"))]
    # every JSON document is laid out by gqlab.jsontext, so no command loads json
    for modules in runs:
        assert not modules & PARSER_MODULES
        assert "json" not in modules
    assert "gqlab.jsontext" in verified_json and "gqlab.jsontext" not in verified_text
    # the CSV bodies are joined by hand, so no command loads csv, and the
    # atlas CSV export loads nothing beyond the atlas JSON export
    assert all("csv" not in modules for modules in runs)
    assert runs[-1] <= runs[3]
    # records are collections.namedtuple classes, a class is its tag and a
    # file is written with open, so no command loads typing, pathlib, enum
    # or re
    for modules in runs:
        assert not modules & {"typing", "pathlib", "enum", "re"}


def test_public_names_resolve_to_their_defining_modules():
    defining = {"run_suite": gqlab.checks}
    for name in gqlab.__all__:
        if name != "__version__":
            assert getattr(gqlab, name) is getattr(defining.get(name, gqlab.quadrangle), name)
    namespace: dict = {}
    exec("from gqlab import *", namespace)
    assert set(gqlab.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        gqlab.nope


def test_records_keep_repr_immutability_and_hash():
    profile = intersection_statistics(atlas().by_label["D1"])
    structure = make_structure("path", ["c", "a", "b"], [["b", "a"], ["c", "b"]])
    assert repr(profile) == "MeetProfile(versus='U', points=4, lines=0, skew=2)"
    assert repr(structure) == (
        "IncidenceStructure(name='path', points=('a', 'b', 'c'), lines=(('a', 'b'), ('b', 'c')))"
    )
    for record, field in ((profile, "points"), (structure, "lines")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
    assert hash(profile) == hash(("U", 4, 0, 2))
    assert hash(structure) == hash(("path", ("a", "b", "c"), (("a", "b"), ("b", "c"))))


# every builder of a model or a section, by the name gqlab modules bind it to
MODEL_BUILDERS = (
    "build_quadric_quadrangle",
    "build_matrix_quadrangle",
    "build_double_six_model",
    "build_plane_model",
    "doily_substructure",
    "quadric_section",
)


def test_test_modules_build_no_model_at_import(monkeypatch):
    # a broken model builder must fail the tests that read the model, not
    # the collection of their module: with every model builder raising, each
    # test module, and the shared gq_models it reads, imports afresh
    def broken(*args):
        raise AssertionError("a model was built at import")

    for module_name, module in list(sys.modules.items()):
        if module_name == "gqlab" or module_name.startswith("gqlab."):
            for name in MODEL_BUILDERS:
                if name in vars(module):
                    monkeypatch.setattr(module, name, broken)
    monkeypatch.delitem(sys.modules, "gq_models", raising=False)
    paths = sorted(Path(__file__).parent.glob("test_*.py"))
    assert {"test_quadrangle.py", "test_acceptance.py"} <= {path.name for path in paths}
    for path in paths:
        spec = importlib.util.spec_from_file_location(f"fresh_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert sys.modules["gq_models"].build_double_six_model is broken
