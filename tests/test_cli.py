"""End-to-end tests of the command-line interface."""

import hashlib
import json
import sys

import gqlab.atlas
import gqlab.cli
from gqlab.cli import main
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


def test_verify_json(capsys):
    assert main(["verify", "--check", "sec2.", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert all(entry["id"].startswith("sec2.") for entry in payload["checks"])


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


def test_export_writes_files(tmp_path):
    for (what, fmt) in EXPORTERS:
        out = tmp_path / f"{what}.{fmt}"
        assert main(["export", "--what", what, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8")


def test_export_unsupported_combo(tmp_path, capsys):
    out = tmp_path / "x.dot"
    assert main(["export", "--what", "atlas", "--format", "dot", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


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
