"""Hold every line of ``src/gqlab`` to being run by Tier-1; no timing gate.

Runs Tier-1 in this process under a ``sys.settrace`` line tracer that keeps
the lines each frame of ``src/gqlab`` runs, then lists every line the
compiler marks as a line start (``dis.findlinestarts``) in some code object
of ``src/gqlab`` that no frame ran.  A line in ``ALLOWED`` may stay unrun:
it runs only in a child process, which this tracer does not follow, or on
another build of Python.  ``ALLOWED`` is keyed by module, function and the
stripped source text, so no line number and no pragma in ``src/`` is
needed.  ``settrace`` rather than ``sys.monitoring``, which Python 3.10 lacks.

Exits with pytest's status if a test fails, else 1 if a line outside
``ALLOWED`` was not run or an allowed line was, else 0::

    PYTHONPATH=src python tests/line_coverage.py

Pytest does not collect this file; CI runs it as a step of its own.
"""

import dis
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "gqlab"

# (module, function, stripped source text) -> why Tier-1 leaves the line unrun
ALLOWED = {
    ("gqlab.cli", "main_entry", "raise SystemExit(main())"):
        "console-script entry point: runs only in a child process (tests/cold_cli.py, CI)",
    ("gqlab.cli", "<module>", "main_entry()"):
        "the __main__ guard: runs only under python -m gqlab.cli, a child process",
    ("gqlab.jsontext", "<module>", "except ImportError:  # _json is CPython's private accelerator"):
        "ImportError fallback: runs only on a Python without the _json accelerator",
    ("gqlab.jsontext", "<module>", "from json.encoder import encode_basestring_ascii as _string"):
        "ImportError fallback: runs only on a Python without the _json accelerator",
}


def line_starts(path: Path) -> dict[int, str]:
    """Line -> name of the innermost code object that starts an instruction
    group there, over every code object compiled from path."""
    found: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        for _, line in dis.findlinestarts(code):
            if line:  # None, or 0 for the module's own start on 3.11+
                found[line] = code.co_name
        todo += [const for const in code.co_consts if hasattr(const, "co_code")]
    return found


def traced_tier1(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on args and, per resolved path of a
    ``src/gqlab`` file, the lines its frames ran."""
    ran: dict[str, set[int]] = {str(path): set() for path in SOURCE.glob("*.py")}
    by_filename: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = ran.get(str(Path(filename).resolve()))
        hits = by_filename[filename]
        if hits is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, ran


def main() -> int:
    status, ran = traced_tier1(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    if status != 0:
        return status
    if Path(sys.modules["gqlab"].__file__).resolve().parent != SOURCE:
        raise SystemExit(f"gqlab was imported from {sys.modules['gqlab'].__file__}, not {SOURCE}")
    unrun, allowed_ran = [], set(ALLOWED)
    for path in sorted(SOURCE.glob("*.py")):
        module = "gqlab" if path.stem == "__init__" else f"gqlab.{path.stem}"
        text = path.read_text(encoding="utf-8").splitlines()
        for line, function in sorted(line_starts(path).items()):
            key = (module, function, text[line - 1].strip())
            if line not in ran[str(path)]:
                if key not in ALLOWED:
                    unrun.append(f"{path.relative_to(ROOT)}:{line} ({function}): {key[2]}")
                allowed_ran.discard(key)
    for line in unrun:
        print(f"not run by Tier-1: {line}")
    for key in sorted(allowed_ran):
        print(f"allowed as unrun, but run or gone: {key}")
    print(f"line coverage: {len(unrun)} unrun lines outside the allowlist")
    return 1 if unrun or allowed_ran else 0


if __name__ == "__main__":
    sys.exit(main())
