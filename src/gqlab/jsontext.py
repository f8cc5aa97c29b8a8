"""One JSON writer: ``dumps`` lays a value out as ``json.dumps(value, indent=2)`` does.

It loads no ``json`` (``json``'s indent mode skips its C encoder anyway) and
imports nothing from gqlab, so a broken gqlab can still print its start-up
failure document.  Strings go through the C escaper of ``json``'s
``ensure_ascii`` mode.
"""

from __future__ import annotations

from itertools import chain

try:
    from _json import encode_basestring_ascii as _string
except ImportError:  # _json is CPython's private accelerator
    from json.encoder import encode_basestring_ascii as _string

_CONSTANTS = {None: "null", True: "true", False: "false"}
_ROW_TYPES = {list, tuple}
_INF = float("inf")


def dumps(value: object) -> str:
    """``value`` laid out byte for byte as ``json.dumps(value, indent=2)``.

    Takes dict (str keys), list, tuple, str, int, float, bool and None; any
    other type raises ``TypeError``, and a NaN or an infinity ``ValueError``.
    """
    return _dump(value, "\n")


def _dump(value: object, newline: str) -> str:
    """``value`` laid out as by ``dumps``, nested after ``newline``."""
    if isinstance(value, str):
        return _string(value)
    if value is None or isinstance(value, bool):
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not -_INF < value < _INF:  # false for NaN too
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        body = ("," + inner).join(_string(k) + ": " + _dump(v, inner) for k, v in value.items())
        return "{" + inner + body + newline + "}" if body else "{}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = "," + inner
    try:  # a list of strings joins in one pass; the escaper raises on anything else
        body = sep.join(map(_string, value))
    except TypeError:
        body = None
    if body is None and set(map(type, value)) <= _ROW_TYPES:
        # a block of rows of one width escapes all its cells in one pass and
        # zips them back into rows; rows of mixed widths go one at a time below
        width = len(value[0])
        if width and set(map(len, value)) == {width}:
            row_open, row_sep, row_close = "[" + inner + "  ", sep + "  ", inner + "]"
            rows_sep = row_close + sep + row_open
            rows = zip(*[map(_string, chain.from_iterable(value))] * width)
            try:  # the escaper raises on a cell that is not a string
                body = row_open + rows_sep.join(map(row_sep.join, rows)) + row_close
            except TypeError:
                pass
    if body is None:
        body = sep.join(_dump(item, inner) for item in value)
    return "[" + inner + body + newline + "]" if body else "[]"
