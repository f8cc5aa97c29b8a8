"""Command-line front end.

Grammar::

    gqlab verify [--check <prefix>] [--format text|json]
    gqlab classify <bits6>
    gqlab export --what atlas|incidence|quadric|planes|isomorphism
                 --format json|dot|csv --out <path>

Exit codes: 0 success, 1 check failure or a failed start-up (inconsistent
atlas tables, or any exception while building them or importing the
command's modules), 2 usage error.  All behavior is controlled by flags;
there is no configuration file and no environment variable.

Each command imports only the modules it runs.  This module loads ``gf2``,
``atlas``, ``pg`` and ``quadrangle``, which is all ``classify`` needs;
``verify`` imports ``checks`` and ``export`` imports ``exports`` when they
are called.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from gqlab.atlas import AtlasError, MatrixClass, atlas, classify, label_key, label_of
from gqlab.gf2 import bits6, eigenspace_dim, mat_row, parse_bits6, sym_det, sym_to_mat
from gqlab.pg import bit_indices, minor_coordinates
from gqlab.quadrangle import build_matrix_quadrangle, compile_structure

USAGE_ERROR = 2


def _print_suite_text(suite) -> None:
    width = max(len(r.check_id) for r in suite.reports)
    for r in suite.reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.check_id:<{width}}  {status}  {r.elapsed * 1000.0:8.1f} ms  {r.description}")
        if not r.passed:
            print(f"{'':<{width}}        expected: {r.expected}")
            print(f"{'':<{width}}        actual:   {r.actual}")
    passed = sum(1 for r in suite.reports if r.passed)
    total_ms = sum(r.elapsed for r in suite.reports) * 1000.0
    print(f"{passed}/{len(suite.reports)} checks passed in {total_ms:.0f} ms")


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from gqlab.checks import UnknownCheckIdError, run_suite, suite_to_dict

    try:
        suite = run_suite(args.check)
    except UnknownCheckIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        print(json.dumps(suite_to_dict(suite), indent=2))
    else:
        _print_suite_text(suite)
    return 0 if suite.passed else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        x = parse_bits6(args.bits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    m = sym_to_mat(x)
    rows = " ".join(format(mat_row(m, i), "03b") for i in range(3))
    det = sym_det(x)
    print(f"matrix          {bits6(x)}")
    print(f"rows            {rows}")
    print(f"det             {det}")
    if det == 0:
        print("class           none (singular)")
        print("note            not invertible, not a quadrangle point")
        return 0
    cls = classify(x)
    print(f"label           {label_of(x)}")
    print(f"class           {cls.value}")
    print(f"eigenspace_dim  {eigenspace_dim(m)}")
    print(f"coordinates     {bits6(minor_coordinates(x))}")
    if cls is MatrixClass.IDENTITY:
        print("note            the identity is not a quadrangle point")
        return 0
    c = compile_structure(build_matrix_quadrangle())
    near = c.adjacency[c.labels.index(label_of(x))]
    partners = sorted((c.labels[i] for i in bit_indices(near)), key=label_key)
    print(f"collinear       {' '.join(partners)}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    # read at call time, so a wrapper installed on gqlab.exports is honoured
    from gqlab.exports import UnsupportedFormatError, render_export

    try:
        body = render_export(args.what, args.format)
    except UnsupportedFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out)
    try:
        out.write_text(body, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _startup_failed(args: argparse.Namespace, exc: Exception) -> int:
    """Report a failed start-up on stderr, and as a suite document that
    passes nothing for ``verify --format json``.

    An AtlasError is a diagnosed inconsistency and prints its message alone;
    any other exception also prints its traceback.
    """
    if isinstance(exc, AtlasError):
        message = str(exc)
    else:
        import traceback

        traceback.print_exception(exc, file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    if args.command == "verify" and args.format == "json":
        import json

        print(json.dumps({"schema": 1, "passed": False, "error": message, "checks": []}, indent=2))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqlab",
        description="Build GQ(2,4) from the invertible symmetric 3x3 binary "
        "matrices and verify its structure exhaustively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--check", metavar="PREFIX", default=None, help="run only check ids with this prefix")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    classify_cmd = sub.add_parser("classify", help="classify one matrix given as 6 bits abcdef")
    classify_cmd.add_argument("bits", help='upper-triangle bit string, e.g. "001100"')

    export = sub.add_parser("export", help="write a model to a file")
    export.add_argument(
        "--what",
        required=True,
        choices=("atlas", "incidence", "quadric", "planes", "isomorphism"),
    )
    export.add_argument("--format", required=True, choices=("json", "dot", "csv"))
    export.add_argument("--out", required=True, metavar="PATH")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        atlas()  # fail loudly up front if the tables are inconsistent
        # a command's own modules load here, so a broken import fails start-up
        if args.command == "verify":
            import gqlab.checks  # noqa: F401
        elif args.command == "export":
            import gqlab.exports  # noqa: F401
    except Exception as exc:  # every start-up failure exits 1 on purpose
        return _startup_failed(args, exc)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "classify":
        return _cmd_classify(args)
    return _cmd_export(args)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
