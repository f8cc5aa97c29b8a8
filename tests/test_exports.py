"""The JSON exports' own emitter against json.dumps(indent=2), and the bit-string table."""

import json
import random

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
        [1.5],
        {"a": object()},
        [["a", 1.5]],
        [["a"], [object()]],
        [["a", "b"], ["c", "d"], ["e", 1.5]],
        [["a", "b"], ("c", "d"), ["e", object()]],
    ],
    ids=[
        "int-key",
        "nested-int-key",
        "set",
        "float",
        "object",
        "float-in-row",
        "object-in-row",
        "float-in-last-row",
        "object-in-last-row",
    ],
)
def test_emitter_rejects_other_types(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


STRINGS = ["", "a", "%", "%s", "%%", "%(k)s", *ESCAPES]
ATOMS = [0, 1, -7, 2**70, True, False, None, *STRINGS]


def _random_payload(rng, depth):
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return rng.choice(ATOMS)
    if kind == 1:
        return rng.choices(STRINGS, k=rng.randrange(4))
    if kind == 2:  # a block of rows, now and then with an empty row or an int cell
        cells = STRINGS if rng.random() < 0.8 else [*STRINGS, 1, []]
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
