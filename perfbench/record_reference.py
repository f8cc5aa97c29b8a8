"""Record the pinned outputs that every benchmark op is checked against.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_reference.py

It writes perfbench/reference.json: the check ids in order, the digest of
the suite without timings, the sha256 of each of the 8 export bodies, and
the exit code and stdout digest of each CLI command and input.  The
benchmark never rewrites this file; re-record it only when an output is
meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, SRC, provenance, run_child, sha256, split_pair, suite_digest

# strings that are not 6 characters over 0/1; classify must exit 2 on each
MALFORMED = ("", "0", "00110", "0011001", "00110x", "abcdef")
USAGE_ERROR = 2


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gqlab.checks
    import gqlab.exports

    suite = gqlab.checks.run_suite()
    if not suite.passed:
        print("error: the suite fails; refusing to pin its outputs", file=sys.stderr)
        return 1
    doc = gqlab.checks.suite_to_dict(suite)
    exports = {
        f"{what}-{fmt}": sha256(gqlab.exports.render_export(what, fmt))
        for what, fmt in gqlab.exports.EXPORTERS
    }
    ref = {
        "recorded_from": provenance()["git_sha"],
        "check_ids": [c["id"] for c in doc["checks"]],
        "suite_digest": suite_digest(doc),
        "exports": exports,
        "cli": {"verify": None, "export": {}, "classify": {}},
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        _, proc = run_child(["-m", "gqlab.cli", "verify", "--format", "json"], SRC, tmp)
        ref["cli"]["verify"] = {"exit": proc.returncode, "stdout": suite_digest(json.loads(proc.stdout))}
        for key in exports:
            what, fmt = split_pair(key)
            out = tmp / f"export-{key}"
            argv = ["-m", "gqlab.cli", "export", "--what", what, "--format", fmt, "--out", str(out)]
            _, proc = run_child(argv, SRC, tmp)
            if proc.returncode != 0 or sha256(out.read_bytes()) != exports[key]:
                print(f"error: CLI export {key} differs from render_export", file=sys.stderr)
                return 1
            ref["cli"]["export"][key] = {"exit": proc.returncode, "stdout": sha256(proc.stdout)}
        for bits in [format(x, "06b") for x in range(64)] + list(MALFORMED):
            _, proc = run_child(["-m", "gqlab.cli", "classify", bits], SRC, tmp)
            if (proc.returncode == USAGE_ERROR) != (bits in MALFORMED):
                print(f"error: classify {bits!r} exited {proc.returncode}", file=sys.stderr)
                return 1
            ref["cli"]["classify"][bits] = {"exit": proc.returncode, "stdout": sha256(proc.stdout)}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
