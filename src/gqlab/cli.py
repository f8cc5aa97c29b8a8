"""Command-line front end.

Grammar::

    gqlab verify [--check <prefix>] [--format text|json]
    gqlab classify <bits6>
    gqlab export --what atlas|incidence|quadric|planes|isomorphism
                 --format json|dot|csv --out <path>
    gqlab [verify|classify|export] -h|--help

Options come in any order, as ``--opt value`` or ``--opt=value``; a repeated
option keeps its last value; ``--`` before the bits of ``classify`` ends the
options.  An option is never abbreviated.

Exit codes: 0 success, 1 check failure or a failed start-up (inconsistent
atlas tables, or any exception while building them or importing the
command's modules), 2 usage error.  All behavior is controlled by flags;
there is no configuration file and no environment variable.

Each command imports only the modules it runs.  The grammar is read by a
small table-driven parser, so no ``argparse``, ``gettext`` or ``locale`` is
loaded.  This module loads ``gf2``, ``atlas``, ``pg`` and ``quadrangle``,
which is all ``classify`` needs; ``verify`` imports ``checks`` and
``export`` imports ``exports`` when they are called.  A JSON document, of
``verify`` or of ``export``, is laid out by ``jsontext``, so no command loads
``json``.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from gqlab.atlas import AtlasError, atlas, classify, label_key, label_of
from gqlab.gf2 import bits6, eigenspace_dim, mat_row, parse_bits6, sym_det, sym_to_mat
from gqlab.pg import minor_coordinates
from gqlab.quadrangle import build_matrix_quadrangle, collinearity

USAGE_ERROR = 2

_USAGE = """\
usage: gqlab verify [--check <prefix>] [--format text|json]
       gqlab classify <bits6>
       gqlab export --what atlas|incidence|quadric|planes|isomorphism
                    --format json|dot|csv --out <path>
       gqlab [verify|classify|export] -h|--help
"""

_HELP = ("-h", "--help")

# command -> (its positionals, {option: (its choices, or None for any value,
# its default, whether it is required)})
_GRAMMAR = {
    "verify": (
        (),
        {"--check": (None, None, False), "--format": (("text", "json"), "text", False)},
    ),
    "classify": (("bits",), {}),
    "export": (
        (),
        {
            "--what": (("atlas", "incidence", "quadric", "planes", "isomorphism"), None, True),
            "--format": (("json", "dot", "csv"), None, True),
            "--out": (None, None, True),
        },
    ),
}


class UsageError(Exception):
    """A command line outside the grammar; ``main`` exits 2 on it."""


def _is_value(token: str, options) -> bool:
    """Whether ``token`` reads as a value rather than as an option of
    ``options`` or a help flag.  As argparse reads it, ``-`` alone, a
    negative number and an unknown token with a space are values too."""
    name = token.partition("=")[0]
    if name in options or name in _HELP:
        return False
    if token[:1] != "-" or token == "-" or " " in token:
        return True
    whole, dot, fraction = token[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command of ``argv`` and its fields, or None where it asks for help.

    One walk, left to right.  A help flag returns at once.  An unknown
    command, an option without its value and a value outside the choices
    raise ``UsageError`` at once; an unknown option, a missing or stray
    argument and a missing required option raise it once the walk ends
    without a help flag, as argparse would.
    """
    command, names, options = None, (), {}
    fields, positionals, unknown = {}, [], []
    options_ended = False
    tokens = iter(argv)
    for token in tokens:
        if options_ended or _is_value(token, options):
            if command is not None:
                positionals.append(token)
                continue
            if token not in _GRAMMAR:
                raise UsageError(f"unknown command {token!r} (choose from {', '.join(_GRAMMAR)})")
            command = token
            names, options = _GRAMMAR[command]
            fields = {name[2:]: default for name, (_, default, _) in options.items()}
            continue
        if token == "--" and names:
            options_ended = True
            continue
        name, has_value, value = token.partition("=")
        if name in _HELP:
            if has_value:
                raise UsageError(f"{name} takes no value")
            return None
        if name not in options:
            unknown.append(token)
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or not _is_value(value, options):
                raise UsageError(f"{name} needs a value")
        choices = options[name][0]
        if choices is not None and value not in choices:
            raise UsageError(f"{name} {value!r} is not one of {'|'.join(choices)}")
        fields[name[2:]] = value
    if command is None:
        raise UsageError(f"no command given (choose from {', '.join(_GRAMMAR)})")
    # a given value is a string, so a required option still None is missing
    missing = [o for o, (_, _, required) in options.items() if required and fields[o[2:]] is None]
    missing += names[len(positionals) :]
    if missing:
        raise UsageError(f"{command} needs {' '.join(missing)}")
    unknown += positionals[len(names) :]
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **fields, **dict(zip(names, positionals)))


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


def _cmd_verify(args: SimpleNamespace) -> int:
    from gqlab.checks import UnknownCheckIdError, run_suite, suite_to_dict

    try:
        suite = run_suite(args.check)
    except UnknownCheckIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        from gqlab.jsontext import dumps

        print(dumps(suite_to_dict(suite)))
    else:
        _print_suite_text(suite)
    return 0 if suite.passed else 1


def _cmd_classify(args: SimpleNamespace) -> int:
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
    print(f"class           {cls}")
    print(f"eigenspace_dim  {eigenspace_dim(m)}")
    print(f"coordinates     {bits6(minor_coordinates(x))}")
    if cls == "identity":
        print("note            the identity is not a quadrangle point")
        return 0
    partners = sorted(collinearity(build_matrix_quadrangle())[label_of(x)], key=label_key)
    print(f"collinear       {' '.join(partners)}")
    return 0


def _cmd_export(args: SimpleNamespace) -> int:
    # read at call time, so a wrapper installed on gqlab.exports is honoured
    from gqlab.exports import UnsupportedFormatError, render_export

    try:
        body = render_export(args.what, args.format)
    except UnsupportedFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(body)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _startup_failed(args: SimpleNamespace, exc: Exception) -> int:
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
        from gqlab.jsontext import dumps

        print(dumps({"schema": 1, "passed": False, "error": message, "checks": []}))
    return 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{_USAGE}error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args is None:
        print(_USAGE, end="")
        return 0
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
