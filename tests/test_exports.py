"""The JSON exports' own emitter against json.dumps(indent=2), the CSV
bodies against csv, and the bit-string table."""

import csv
import io
import json
import random
import sys

import pytest

import gqlab.exports
from gqlab.exports import _BITS, EXPORTERS, UnsupportedFormatError, _json_text, render_export
from gqlab.gf2 import bits6

JSON_EXPORTS = {what: exporter for (what, fmt), exporter in EXPORTERS.items() if fmt == "json"}
CSV_EXPORTS = {what: exporter for (what, fmt), exporter in EXPORTERS.items() if fmt == "csv"}


def _oracle(payload):
    return json.dumps(payload, indent=2) + "\n"


def _export_payload(monkeypatch, what):
    seen = []

    def recording_json_text(payload):
        seen.append(payload)
        return _json_text(payload)

    monkeypatch.setattr(gqlab.exports, "_json_text", recording_json_text)
    text = JSON_EXPORTS[what]()
    (payload,) = seen
    return payload, text


def _render_all():
    return {f"{what}-{fmt}": render_export(what, fmt) for what, fmt in EXPORTERS}


def test_render_export_names_an_unknown_selector():
    with pytest.raises(UnsupportedFormatError) as err:
        render_export("spreads", "json")
    assert str(err.value) == "unknown export selector 'spreads'"


# a cold render of all 8 exports: the 28 atlas rows, then one more class per
# point from intersection_statistics, which reads no label, and one plane
# per point plus the six U and six V planes, each class built once
COLD_EXPORT_CALLS = {"classify": 55, "label_of": 28, "plane_of": 39}


def test_cold_export_derives_each_label_class_and_plane_once(monkeypatch):
    calls = dict.fromkeys(COLD_EXPORT_CALLS, 0)

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    # every gqlab module that bound a function by name gets its own wrapper
    for module_name, module in list(sys.modules.items()):
        if module_name == "gqlab" or module_name.startswith("gqlab."):
            for name in COLD_EXPORT_CALLS:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    _render_all()
    assert calls == COLD_EXPORT_CALLS


def _plant_class(rows):
    # D1 tagged V
    rows[1] = rows[1][:2] + ("V",) + rows[1][3:]


def _swap_labels(rows):
    # D1 and D2 trade labels
    (a, *rest_a), (b, *rest_b) = rows[1:3]
    rows[1:3] = (b, *rest_a), (a, *rest_b)


@pytest.mark.parametrize(
    "plant, changed",
    [
        (_plant_class, ["atlas-csv", "atlas-json", "incidence-dot", "planes-csv", "planes-json"]),
        (
            _swap_labels,
            [
                "atlas-csv",
                "atlas-json",
                "incidence-dot",
                "isomorphism-json",
                "planes-csv",
                "planes-json",
                "quadric-json",
            ],
        ),
    ],
    ids=["class", "labels"],
)
def test_a_planted_atlas_row_changes_exactly_the_exports_that_read_it(
    monkeypatch, clear_gqlab_caches, plant, changed
):
    # every per-matrix exporter reads labels and classes from the one table
    clean = _render_all()
    rows = list(gqlab.exports._atlas_rows())
    plant(rows)
    monkeypatch.setattr(gqlab.exports, "_atlas_rows", lambda: tuple(rows))
    clear_gqlab_caches()
    planted = _render_all()
    assert sorted(key for key in clean if planted[key] != clean[key]) == changed


def test_five_json_exports():
    assert sorted(JSON_EXPORTS) == ["atlas", "incidence", "isomorphism", "planes", "quadric"]


@pytest.mark.parametrize("what", JSON_EXPORTS)
def test_emitter_matches_json_dumps_on_each_export(monkeypatch, what):
    payload, text = _export_payload(monkeypatch, what)
    assert text == _oracle(payload)


@pytest.mark.parametrize("what", CSV_EXPORTS)
def test_csv_body_reads_back_through_csv_byte_for_byte(what):
    # the hand-joined body is what csv writes for the rows csv reads from it
    body = CSV_EXPORTS[what]()
    rows = list(csv.reader(io.StringIO(body, newline="")))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == body


ESCAPES = ['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "∞", "\U0001d53d", 'a "b" \\c\nd\te é∞']

EDGE_CASES = [
    [],
    {},
    [[]],
    [{}],
    {"a": {}},
    {"a": []},
    [[[]], [{}]],
    "",
    [""],
    0,
    -3,
    True,
    None,
    [1, "a", True, None, -3],
    [True, False, None],
    {"k": [1, ["x", "y"], {"z": None}], "": 0},
    ESCAPES,
    [[s] for s in ESCAPES],
    {s: s for s in ESCAPES},
    {s + "key": {s: [s, 1]} for s in ESCAPES},
    # blocks of rows of strings, which one format lays out, and the lists
    # next to them that must fall back to one item at a time
    [["a"], []],
    [[], ["a"]],
    [("a", "b"), ["c"]],
    ["ab", ["c"]],
    [["a"], "b"],
    [["a"], {"k": "v"}],
    [["a", 1]],
    [["a", ["b"]]],
    [[s, s] for s in ESCAPES],
    # a "%" in a cell is text, never a format code of the block's template
    [[s, "%", "%s", "%%"] for s in ESCAPES],
    [["%(k)s", "%d"], ["%", "%%%"]],
    [["a", "b", "c"]],
    [("a", "b"), ("c", "%s"), ("d", "e")],
    [["a"], ["b", "c", "d"], ("e", "f"), ["%"]],
    # floats, written as float.__repr__ writes them, alone and in rows
    [1.5],
    [["a", 1.5]],
    [["a", "b"], ["c", "d"], ["e", 1.5]],
    0.0,
    -0.0,
    0.1,
    1e-05,
    1e16,
    123.456,
    {"elapsed_ms": 12.345, "pass": True},
    # blocks of equal widths 1, 2 and 4, a block of one row, and mixed
    # widths where a later row is wider than the first, each with a "%" cell
    [["a"], ["%"], ("b",)],
    [("a", "%s"), ["b", "c"], ["d", "e"]],
    [["a", "b", "%", "d"], ("e", "f", "g", "%%")],
    [["%(k)s", "a"]],
    [["a"], ("b", "%", "c"), ["d", "e"]],
]


@pytest.mark.parametrize("payload", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_emitter_matches_json_dumps_on_edge_cases(payload):
    assert _json_text(payload) == _oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [(1, 2), ("a", "b"), (), [(1, (2,))], {"t": (True, None)}],
    ids=["ints", "strings", "empty", "nested", "in-dict"],
)
def test_tuples_are_laid_out_as_lists(payload):
    # the same bytes as json.dumps, never a compact "[1, 2]"
    assert _json_text(payload) == _oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {1: "a"},
        {"a": {2: []}},
        {1, 2},
        {"a": object()},
        [["a"], [object()]],
        [["a", "b"], ("c", "d"), ["e", object()]],
    ],
    ids=[
        "int-key",
        "nested-int-key",
        "set",
        "object",
        "object-in-row",
        "object-in-last-row",
    ],
)
def test_emitter_rejects_other_types(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_emitter_rejects_nan_and_infinities(value):
    # json.dumps would write NaN or Infinity, which is not JSON
    for payload in (value, [value], {"a": value}, [["a"], ["b", value]]):
        with pytest.raises(ValueError):
            _json_text(payload)


STRINGS = ["", "a", "%", "%s", "%%", "%(k)s", *ESCAPES]
FLOATS = [0.0, -0.0, 0.1, 1e-05, 1e16, 123.456, -2.5e-300, 1.7976931348623157e308]
ATOMS = [0, 1, -7, 2**70, True, False, None, *FLOATS, *STRINGS]


def _random_payload(rng, depth):
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return rng.choice(ATOMS)
    if kind == 1:
        return rng.choices(STRINGS, k=rng.randrange(4))
    if kind == 2:  # a block of rows, now and then with an empty row, an int or a float cell
        cells = STRINGS if rng.random() < 0.8 else [*STRINGS, 1, 0.5, []]
        block = [
            rng.choice((list, tuple))(rng.choices(cells, k=rng.randrange(1, 4)))
            for _ in range(rng.randrange(1, 5))
        ]
        if rng.random() < 0.1:
            block.append([])
        return block
    items = [_random_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 3:
        return rng.choice((list, tuple))(items)
    return {rng.choice(STRINGS) + str(i): item for i, item in enumerate(items)}


def test_emitter_matches_json_dumps_on_random_payloads():
    rng = random.Random(2010)
    for _ in range(2000):
        payload = _random_payload(rng, 3)
        assert _json_text(payload) == _oracle(payload), payload


def test_bits_table_matches_bits6():
    assert len(_BITS) == 64
    for v in range(64):
        assert _BITS[v] == bits6(v)
