"""Deterministic export writers: JSON, CSV and DOT text for every model.

Each function returns the complete file body as a string.  Orderings are
canonical (atlas order D1..D15, U1..U6, V1..V6, ascending bit strings for
vectors), so repeated runs produce identical bytes.
"""

from __future__ import annotations

import io
from functools import cache

from gqlab.atlas import atlas, classify, label_of
from gqlab.gf2 import MAT_IDENTITY, SYM_IDENTITY, bits6, eigenspace_dim, mat_mul, sym_to_mat
from gqlab.jsontext import dumps
from gqlab.pg import (
    bit_indices,
    elliptic_quadric,
    elliptic_quadric_at,
    klein_quadric,
    lines_in,
)
from gqlab.planes import DISTINGUISHED, echelon, intersection_statistics, plane_of, raw_plane_rows
from gqlab.quadrangle import (
    DOUBLE_SIX_ISOMORPHISM,
    build_matrix_quadrangle,
    collinearity_graph_edges,
)

_CLASS_COLORS = {"D": "lightblue", "U": "palegreen", "V": "lightsalmon"}
_BITS = tuple(bits6(v) for v in range(64))


def _json_text(payload: object) -> str:
    return dumps(payload) + "\n"


_ATLAS_FIELDS = ("label", "bits", "class", "eigenspace_dim", "involution")


@cache
def _atlas_rows() -> tuple[tuple, ...]:
    """One row per atlas matrix, identity first, its values in ``_ATLAS_FIELDS`` order."""
    rows = []
    for x in (SYM_IDENTITY,) + atlas().points:
        m = sym_to_mat(x)
        involution = mat_mul(m, m) == MAT_IDENTITY
        rows.append((label_of(x), _BITS[x], classify(x), eigenspace_dim(m), involution))
    return tuple(rows)


def atlas_json() -> str:
    return _json_text([dict(zip(_ATLAS_FIELDS, row)) for row in _atlas_rows()])


def atlas_csv() -> str:
    import csv  # a C extension that only the CSV writers load

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ATLAS_FIELDS)
    writer.writerows(_atlas_rows())
    return buf.getvalue()


def incidence_json() -> str:
    inc = build_matrix_quadrangle()
    return _json_text(
        {
            "points": list(inc.points),
            "lines": [list(line) for line in inc.lines],
            "order": {"s": 2, "t": 4},
        }
    )


def incidence_dot() -> str:
    at = atlas()
    lines = ["graph collinearity {", "  node [shape=circle style=filled];"]
    for x in at.points:
        label = label_of(x)
        cls = classify(x)
        lines.append(f'  "{label}" [class="{cls}" fillcolor="{_CLASS_COLORS[cls]}"];')
    for a, b in collinearity_graph_edges():
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quadric_record(form_name: str, points: int, lines: tuple) -> dict:
    return {
        "form": form_name,
        "points": [_BITS[v] for v in bit_indices(points)],
        "lines_contained": [[_BITS[x], _BITS[y], _BITS[z]] for x, y, z in lines],
    }


def quadrics_json() -> str:
    forms = [("q0", klein_quadric()), ("q", elliptic_quadric())]
    forms += [(f"qM:{label_of(m)}", elliptic_quadric_at(m)) for m in atlas().points]
    masks = [points for _, points in forms]
    return _json_text(
        [
            _quadric_record(name, points, lines)
            for (name, points), lines in zip(forms, lines_in(masks))
        ]
    )


def planes_json() -> str:
    records = []
    for x in atlas().points:
        raw = raw_plane_rows(sym_to_mat(x))
        records.append(
            {
                "label": label_of(x),
                "matrix_rows": [_BITS[r] for r in raw],
                "echelon": [_BITS[r] for r in echelon(plane_of(x))],
                "class": classify(x),
            }
        )
    for plane, label in DISTINGUISHED.items():
        rows = [_BITS[r] for r in echelon(plane)]
        records.append(
            {
                "label": label,
                "matrix_rows": rows,
                "echelon": rows,
                "class": "distinguished",
            }
        )
    return _json_text(records)


def planes_csv() -> str:
    """Meet statistics of every quadrangle plane against the opposite class.

    D and V rows count meets with the U planes; U rows count meets with the
    V planes.
    """
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "meets_point", "meets_line", "skew", "class"])
    for x in atlas().points:
        prof = intersection_statistics(x)
        writer.writerow([prof.label, prof.points, prof.lines, prof.skew, classify(x)])
    return buf.getvalue()


def isomorphism_json() -> str:
    at = atlas()
    ordered = {label_of(x): DOUBLE_SIX_ISOMORPHISM[label_of(x)] for x in at.points}
    return _json_text(ordered)


EXPORTERS = {
    ("atlas", "json"): atlas_json,
    ("atlas", "csv"): atlas_csv,
    ("incidence", "json"): incidence_json,
    ("incidence", "dot"): incidence_dot,
    ("quadric", "json"): quadrics_json,
    ("planes", "json"): planes_json,
    ("planes", "csv"): planes_csv,
    ("isomorphism", "json"): isomorphism_json,
}


class UnsupportedFormatError(ValueError):
    """The selector/format combination has no exporter."""


def render_export(what: str, fmt: str) -> str:
    try:
        exporter = EXPORTERS[(what, fmt)]
    except KeyError:
        supported = sorted(f for w, f in EXPORTERS if w == what)
        if not supported:
            raise UnsupportedFormatError(f"unknown export selector {what!r}") from None
        raise UnsupportedFormatError(
            f"export {what!r} supports formats {supported}, not {fmt!r}"
        ) from None
    return exporter()
