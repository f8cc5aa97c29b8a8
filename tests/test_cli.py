"""End-to-end tests of the command-line interface."""

import argparse
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import combinations, cycle, permutations, product

import gqlab.atlas
import gqlab.cli
import gqlab.pg
import gqlab.quadrangle
from gqlab.cli import UsageError, main, parse_args
from gqlab.exports import EXPORTERS, render_export


def test_classify_d1(capsys):
    assert main(["classify", "001100"]) == 0
    out = capsys.readouterr().out
    assert "label           D1" in out
    assert "class           D" in out
    assert "eigenspace_dim  2" in out
    assert "coordinates     001100" in out
    for partner in ("U3", "U5", "V3", "V5"):
        assert partner in out


def test_classify_identity(capsys):
    assert main(["classify", "100101"]) == 0
    out = capsys.readouterr().out
    assert "label           1" in out
    assert "not a quadrangle point" in out


def test_classify_singular(capsys):
    assert main(["classify", "000000"]) == 0
    out = capsys.readouterr().out
    assert "det             0" in out
    assert "not invertible" in out


def test_classify_parse_error(capsys):
    assert main(["classify", "00110"]) == 2
    assert "error" in capsys.readouterr().err


# sha256 of the stdout of `gqlab classify` on all 64 6-bit strings in order,
# as UTF-8; it pins every label, class, coordinate and collinear line
CLASSIFY_ALL_SHA256 = "a207733c28e30509e972a6da977b092f175b975d725f52895cfd1c378a2d3202"


def test_classify_all_64_pinned(capsys):
    for x in range(64):
        assert main(["classify", format(x, "06b")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == CLASSIFY_ALL_SHA256


def test_verify_all_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_text_prints_what_a_failing_check_expected_and_saw(monkeypatch, capsys):
    # the first tangent section loses a line, so sec2.hyperplane-survey alone
    # fails; its two report lines sit under the 28-wide id column
    sections = gqlab.quadrangle._sections
    axis = next(a for a in range(1, 64) if gqlab.pg.elliptic_quadric() >> a & 1)

    def planted(axes):
        for a, points, lines in sections(axes):
            yield a, points, (lines & lines - 1 if a == axis else lines)

    monkeypatch.setattr(gqlab.quadrangle, "_sections", planted)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out.splitlines()
    (failed,) = [k for k, line in enumerate(out) if "  FAIL  " in line]
    assert out[failed].startswith("sec2.hyperplane-survey        FAIL  ")
    assert out[failed + 1 : failed + 3] == [
        "                                    expected: 36 sections of order (2,2), 27 tangent",
        "                                    actual:   36 sections of order (2,2), 26 tangent",
    ]
    assert len(out) == 42 + 2 + 1
    assert out[-1].startswith("41/42 checks passed in ")


def test_verify_json(capsys):
    assert main(["verify", "--check", "sec2.", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert all(entry["id"].startswith("sec2.") for entry in payload["checks"])


def _laid_out_as_json_dumps(text):
    # floats round-trip through repr, so json reads back and writes the same text
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def test_verify_json_is_laid_out_as_json_dumps(capsys):
    assert main(["verify", "--format", "json"]) == 0
    assert _laid_out_as_json_dumps(capsys.readouterr().out)


def test_verify_unknown_check(capsys):
    assert main(["verify", "--check", "nonexistent."]) == 2
    assert "error" in capsys.readouterr().err


def _run_with_corrupted_atlas(monkeypatch, argv):
    # U1 replaced by V1: the tables list one matrix twice
    corrupted = (gqlab.atlas._V_BITS[0],) + gqlab.atlas._U_BITS[1:]
    gqlab.atlas.atlas.cache_clear()
    try:
        monkeypatch.setattr(gqlab.atlas, "_U_BITS", corrupted)
        return main(argv)
    finally:
        monkeypatch.undo()
        gqlab.atlas.atlas.cache_clear()


def test_inconsistent_atlas_exits_1(monkeypatch, capsys):
    assert _run_with_corrupted_atlas(monkeypatch, ["classify", "001100"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: atlas tables contain duplicates\n"
    assert captured.out == ""


def test_inconsistent_atlas_verify_json_prints_a_failed_document(monkeypatch, capsys):
    assert _run_with_corrupted_atlas(monkeypatch, ["verify", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: atlas tables contain duplicates\n"
    assert _laid_out_as_json_dumps(captured.out)
    payload = json.loads(captured.out)
    assert payload == {
        "schema": 1,
        "passed": False,
        "error": "atlas tables contain duplicates",
        "checks": [],
    }
    assert _run_with_corrupted_atlas(monkeypatch, ["verify"]) == 1
    assert capsys.readouterr().out == ""


def test_any_startup_exception_exits_1_with_json(monkeypatch, capsys):
    def broken_atlas():
        raise ValueError("planted start-up fault")

    monkeypatch.setattr(gqlab.cli, "atlas", broken_atlas)
    assert main(["verify", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith(
        "ValueError: planted start-up fault\nerror: ValueError: planted start-up fault\n"
    )
    assert json.loads(captured.out)["error"] == "ValueError: planted start-up fault"
    assert main(["classify", "001100"]) == 1
    assert capsys.readouterr().out == ""


def test_broken_verify_import_exits_1_with_json(monkeypatch, capsys):
    # None in sys.modules makes importing gqlab.checks raise ImportError
    monkeypatch.setitem(sys.modules, "gqlab.checks", None)
    assert main(["verify", "--format", "json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    assert payload["checks"] == []
    # ModuleNotFoundError is the ImportError subclass raised for this import
    assert payload["error"].startswith("ModuleNotFoundError: ")
    assert "gqlab.checks" in payload["error"]
    assert captured.err.endswith(f"error: {payload['error']}\n")


def test_broken_export_import_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(sys.modules, "gqlab.exports", None)
    out = tmp_path / "atlas.csv"
    assert main(["export", "--what", "atlas", "--format", "csv", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: ModuleNotFoundError: " in captured.err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The command-line grammar, against the argparse reference


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``gqlab.cli`` once built, kept as the
    reference its own parser is compared with."""
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


@cache
def _reference() -> argparse.ArgumentParser:
    return _reference_parser()


def _reference_grammar() -> dict:
    """command -> (its positional dests, {option: (choices or None, required)}),
    read from the reference."""
    commands = next(a for a in _reference()._actions if a.dest == "command").choices
    return {
        command: (
            tuple(a.dest for a in sub._actions if not a.option_strings),
            {
                a.option_strings[0]: (a.choices, a.required)
                for a in sub._actions
                if a.option_strings and a.dest != "help"
            },
        )
        for command, sub in commands.items()
    }


# values tried for an option without choices and for the bits of classify:
# "-1" reads as a value, not an option, and so does a token with a space
_FREE_VALUES = ("sec2.", "", "-1", "a b")
_BITS = ("001100", "", "-1", "a b", "0011x0")

# one argv per usage error; tests/cold_cli.py also runs each cold
MALFORMED = (
    [],  # no command
    ["frobnicate"],  # an unknown command
    ["verify", "--bogus"],  # an unknown option
    ["--bogus", "classify", "001100"],
    ["verify", "--format"],  # a missing value
    ["export", "--what", "atlas", "--format", "--out", "x.json"],
    ["verify", "--format", "xml"],  # a value outside the choices
    ["export", "--what=atlas", "--format=json"],  # a missing required export flag
    ["classify"],  # a wrong number of classify arguments
    ["classify", "001100", "001100"],
    ["verify", "extra"],
)

# the one deliberate difference: argparse took a unique prefix of an option
ABBREVIATIONS = (
    ["verify", "--form", "json"],
    ["verify", "--che=sec2."],
    ["export", "--wh", "atlas", "--format", "json", "--ou", "x.json"],
    ["--he"],
)


def _reference_reading(argv: list[str]):
    """The reference's fields for argv, or "help", or "error"."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_reference().parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code == 0 else "error"


def _reading(argv: list[str], capsys):
    """gqlab's fields for argv, or "help", or "error"; for help and errors
    also what ``main`` prints and returns."""
    try:
        args = parse_args(argv)
    except UsageError:
        reading = "error"
    else:
        if args is not None:
            return vars(args)
        reading = "help"
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    if reading == "help":
        assert (code, err) == (0, "") and out.startswith("usage: gqlab verify"), argv
    else:
        assert (code, out) == (2, "") and err.startswith("usage: gqlab verify"), argv
        assert "\nerror: " in err, argv
    return reading


def _full_argvs(command: str) -> list[list[str]]:
    """Argvs of command with its required options present: every subset of
    the others, in every order, with every combination of choices, each
    option as ``--opt value`` or ``--opt=value``.  An option without choices
    takes the free values in turn."""
    positionals, options = _reference_grammar()[command]
    required = [o for o, (_, req) in options.items() if req]
    optional = [o for o, (_, req) in options.items() if not req]
    tails = [["--", b] for b in _BITS[:2]] + [[b] for b in _BITS] if positionals else [[]]
    free = cycle(_FREE_VALUES)
    argvs = []
    for k in range(len(optional) + 1):
        for chosen in combinations(optional, k):
            for order in permutations(required + list(chosen)):
                choices = [options[o][0] or (None,) for o in order]
                for picked, joined in product(product(*choices), product((False, True), repeat=len(order))):
                    argv = [command]
                    for option, value, eq in zip(order, picked, joined):
                        value = next(free) if value is None else value
                        argv += [f"{option}={value}"] if eq else [option, value]
                    argvs += [argv + tail for tail in tails]
    return argvs


def _variants(argv: list[str]) -> list[list[str]]:
    """argv with one token left out, or replaced by a bad one, or with a help
    flag put in at each place."""
    found = []
    for i in range(len(argv) + 1):
        found += [argv[:i] + [flag] + argv[i:] for flag in ("-h", "--help")]
        if i < len(argv):
            found.append(argv[:i] + argv[i + 1 :])
            found += [argv[:i] + [bad] + argv[i + 1 :] for bad in ("xml", "--bogus", "-x", "-1")]
    return found


def _argv_table() -> list[list[str]]:
    table = [[], ["-h"], ["--help"], *MALFORMED]
    for command, (_, options) in _reference_grammar().items():
        full = _full_argvs(command)
        table += full
        table += [v for argv in full[:: max(1, len(full) // 12)] for v in _variants(argv)]
        for option, (choices, _) in options.items():  # repeated: the last one wins
            base = next(argv for argv in full if argv[1:2] == [option])
            tried = choices or _FREE_VALUES
            for first, last in product((*tried, "xml"), tried):
                table.append([command, option, first, option, last, *base[3:]])
    return table


def test_parser_reads_the_table_as_the_reference_does(capsys):
    table = _argv_table()
    mismatched = [argv for argv in table if _reading(argv, capsys) != _reference_reading(argv)]
    assert mismatched == []
    readings = [_reference_reading(argv) for argv in table]
    assert {r["command"] for r in readings if isinstance(r, dict)} == {"verify", "classify", "export"}
    assert "help" in readings
    assert all(_reference_reading(argv) == "error" for argv in MALFORMED)


def test_parser_reads_random_argvs_as_the_reference_does(capsys):
    """Random argvs of up to 7 tokens from the grammar's words and some bad
    ones.  Left out are ``--``, which argparse also takes inside the value
    of an option (``--check -- x`` sets check to x), and clusters of short
    flags (``-hh``); the grammar has neither."""
    grammar = _reference_grammar()
    alphabet = ["-h", "--help", "--help=x", "-h=", "--bogus", "-x", "-", "-1", "-.5", "-x y", ""]
    alphabet += ["xml", "001100"]
    for command, (_, options) in grammar.items():
        alphabet.append(command)
        for option, (choices, _) in options.items():
            alphabet += [option, *(choices or ("sec2.",)), f"{option}={(choices or ('',))[0]}"]
    rng = random.Random(0)
    mismatched = []
    for _ in range(2000):
        argv = [rng.choice(alphabet) for _ in range(rng.randrange(7))]
        if rng.random() < 0.7:
            argv.insert(0, rng.choice(list(grammar)))
        if _reading(argv, capsys) != _reference_reading(argv):
            mismatched.append(argv)
    assert mismatched == []


def test_abbreviations_are_the_one_difference_from_the_reference(capsys):
    for argv in ABBREVIATIONS:
        assert _reference_reading(argv) != "error", argv
        assert _reading(argv, capsys) == "error", argv


def test_usage_names_every_command_option_and_choice_of_the_grammar(capsys):
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out
    words = set(usage.replace("|", " ").replace("[", " ").replace("]", " ").split())
    for command, (_, options) in gqlab.cli._GRAMMAR.items():
        assert command in words
        for option, (choices, _, _) in options.items():
            assert option in words and set(choices or ()) <= words, option
    assert {"-h", "--help"} <= words
    # the printed usage is the Grammar block of the module docstring
    grammar = gqlab.cli.__doc__.split("Grammar::\n\n")[1].split("\n\n")[0]
    lines = usage.removeprefix("usage:").splitlines()
    assert [line.strip() for line in lines] == [line.strip() for line in grammar.splitlines()]


def test_export_writes_files(tmp_path):
    for (what, fmt) in EXPORTERS:
        out = tmp_path / f"{what}.{fmt}"
        assert main(["export", "--what", what, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8")


def test_export_unsupported_combo(tmp_path, capsys):
    out = tmp_path / "x.dot"
    assert main(["export", "--what", "atlas", "--format", "dot", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


def test_export_to_an_unwritable_path_exits_1(tmp_path, capsys):
    out = str(tmp_path / "missing" / "a.json")
    assert main(["export", "--what", "atlas", "--format", "json", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_export_deterministic():
    for key in EXPORTERS:
        assert render_export(*key) == render_export(*key)


# sha256 of each export body as UTF-8; a change to any byte of an export
# must show here first
EXPORT_SHA256 = {
    ("atlas", "csv"): "5c4254a28122365eb0d65f407bde903ec253b605403eb16f51dd6ad2a9dffa86",
    ("atlas", "json"): "2b360485b9ae269335ab4f11fe5a36bf0a189aff6beb2cd50621ea00c65e8508",
    ("incidence", "dot"): "671881428db1caea5a27ecff5bd180a74903c07b96393e872dda2e7a89a115db",
    ("incidence", "json"): "d9967fc80f4cc16ffa5644600fc4d057cbe04e576d0a58d4b978e69bbfe2309d",
    ("isomorphism", "json"): "1b3bb8011dbbf2c5b76677bd9aa262de6855f1c470042590f190ba4f795ff3d8",
    ("planes", "csv"): "a2188f89102074bf7e31e193e846f9666ae6c459d2e45361f2a6389715574533",
    ("planes", "json"): "bef385a13f288882b7600b3aa9a13c67274503046f32877a52f442d39bc2715a",
    ("quadric", "json"): "398829f3214b2ac091bc3690a7322158dc2c6453f79baa4b13fb5bc741dfd71b",
}


def test_export_bytes_pinned():
    assert set(EXPORT_SHA256) == set(EXPORTERS)
    for key, digest in EXPORT_SHA256.items():
        body = render_export(*key).encode("utf-8")
        assert hashlib.sha256(body).hexdigest() == digest, key


def test_export_atlas_csv_has_28_rows():
    body = render_export("atlas", "csv")
    lines = body.strip().split("\n")
    assert len(lines) == 29  # header + 28 matrices
    assert lines[0] == "label,bits,class,eigenspace_dim,involution"


def test_export_isomorphism_table():
    table = json.loads(render_export("isomorphism", "json"))
    assert table["U1"] == "1"
    assert table["V6"] == "6'"
    assert table["D1"] == "{3,5}"
    assert len(table) == 27


def test_export_incidence_dot_edge_count():
    body = render_export("incidence", "dot")
    assert body.count(" -- ") == 135
    assert body.count('[class="') == 27


def test_export_incidence_json():
    payload = json.loads(render_export("incidence", "json"))
    assert payload["order"] == {"s": 2, "t": 4}
    assert len(payload["points"]) == 27
    assert len(payload["lines"]) == 45


def test_export_quadrics_json():
    payload = json.loads(render_export("quadric", "json"))
    assert len(payload) == 29
    by_form = {entry["form"]: entry for entry in payload}
    assert len(by_form["q0"]["points"]) == 35
    assert len(by_form["q0"]["lines_contained"]) == 105
    assert len(by_form["q"]["points"]) == 27
    assert len(by_form["q"]["lines_contained"]) == 45
    assert len(by_form["qM:D1"]["points"]) == 27


def test_export_planes_json_and_csv():
    payload = json.loads(render_export("planes", "json"))
    assert len(payload) == 30
    labels = {entry["label"] for entry in payload}
    assert {"(1|0)", "(0|1)", "(1|1)"} <= labels
    body = render_export("planes", "csv")
    lines = body.strip().split("\n")
    assert len(lines) == 28  # header + 27 statistics rows
    assert lines[0] == "label,meets_point,meets_line,skew,class"
    d1 = next(line for line in lines if line.startswith("D1,"))
    assert d1 == "D1,4,0,2,D"
