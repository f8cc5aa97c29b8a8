"""The JSON exports' own emitter against json.dumps(indent=2), and the bit-string table."""

import json

import pytest

import gqlab.exports
from gqlab.exports import _BITS, EXPORTERS, _json_text
from gqlab.gf2 import bits6

JSON_EXPORTS = {what: exporter for (what, fmt), exporter in EXPORTERS.items() if fmt == "json"}


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


def test_five_json_exports():
    assert sorted(JSON_EXPORTS) == ["atlas", "incidence", "isomorphism", "planes", "quadric"]


@pytest.mark.parametrize("what", JSON_EXPORTS)
def test_emitter_matches_json_dumps_on_each_export(monkeypatch, what):
    payload, text = _export_payload(monkeypatch, what)
    assert text == _oracle(payload)


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
    # lists of rows, which join a row of strings in one pass, and the
    # lists next to them that must fall back to one item at a time
    [["a"], []],
    [[], ["a"]],
    [("a", "b"), ["c"]],
    ["ab", ["c"]],
    [["a"], "b"],
    [["a"], {"k": "v"}],
    [["a", 1]],
    [["a", ["b"]]],
    [[s, s] for s in ESCAPES],
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
    [{1: "a"}, {"a": {2: []}}, {1, 2}, [1.5], {"a": object()}, [["a", 1.5]], [["a"], [object()]]],
    ids=["int-key", "nested-int-key", "set", "float", "object", "float-in-row", "object-in-row"],
)
def test_emitter_rejects_other_types(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


def test_bits_table_matches_bits6():
    assert len(_BITS) == 64
    for v in range(64):
        assert _BITS[v] == bits6(v)
