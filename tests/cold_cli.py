"""Run the gqlab CLI cold, one process per target; no timing gate.

First each of the 42 check ids, then each section prefix, is verified as its
own process: every check builds what it reads, with no other check run
first, an id selects exactly its own report, and the JSON document reads
back as ``json.dumps(indent=2)`` lays it out.  Then each of the 8 export
pairs is written by its own process, and every JSON body must read back as
``json.dumps(indent=2)`` lays it out, and every CSV body byte for byte as
``csv.writer(lineterminator="\\n")`` writes the rows ``csv.reader`` reads
from it.  Last, each malformed argv of ``tests/test_cli.py`` runs as its own
process and must exit 2 with nothing on stdout, and ``--help`` must exit 0,
at the top level and after each command.

Each child is ``sys.executable -m gqlab.cli``, so any interpreter that can
import gqlab runs the script, with or without the installed entry point::

    PYTHONPATH=src python tests/cold_cli.py

Pytest does not collect this file; CI runs it as a step of its own.
"""

import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from gqlab.checks import check_ids
from gqlab.exports import EXPORTERS
from test_cli import ABBREVIATIONS, MALFORMED

CLI = [sys.executable, "-m", "gqlab.cli"]


def verify_each_check_and_section() -> None:
    for target in check_ids() + ("sec2.", "sec3.", "sec4.", "sec5."):
        cmd = [*CLI, "verify", "--check", target, "--format", "json"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, (target, proc.stdout, proc.stderr)
        document = json.loads(proc.stdout)
        assert json.dumps(document, indent=2) + "\n" == proc.stdout, target
        ids = [report["id"] for report in document["checks"]]
        assert ids and all(i.startswith(target) for i in ids), (target, ids)
        assert target.endswith(".") or ids == [target], (target, ids)


def export_each_pair() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for what, fmt in EXPORTERS:
            out = Path(tmp, f"{what}.{fmt}")
            cmd = [*CLI, "export", "--what", what, "--format", fmt, "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, (what, fmt, proc.stdout, proc.stderr)
            body = out.read_bytes().decode("utf-8")  # newlines as written
            assert body, (what, fmt)
            if fmt == "json":
                assert json.dumps(json.loads(body), indent=2) + "\n" == body, what
            elif fmt == "csv":
                rows = list(csv.reader(io.StringIO(body, newline="")))
                written = io.StringIO()
                csv.writer(written, lineterminator="\n").writerows(rows)
                assert written.getvalue() == body, what


def sweep_usage() -> None:
    for argv in (*MALFORMED, *ABBREVIATIONS):
        proc = subprocess.run([*CLI, *argv], capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == "", (argv, proc.stdout, proc.stderr)
        assert "\nerror: " in proc.stderr, (argv, proc.stderr)
    for command in ([], ["verify"], ["classify"], ["export"]):
        proc = subprocess.run([*CLI, *command, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", (command, proc.stderr)
        assert proc.stdout.startswith("usage: gqlab "), (command, proc.stdout)


if __name__ == "__main__":
    verify_each_check_and_section()
    export_each_pair()
    sweep_usage()
