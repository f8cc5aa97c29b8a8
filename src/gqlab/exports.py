"""Deterministic export writers: JSON, CSV and DOT text for every model.

Each function returns the complete file body as a string.  Orderings are
canonical (atlas order D1..D15, U1..U6, V1..V6, ascending bit strings for
vectors), so repeated runs produce identical bytes.  No CSV cell needs
quoting, so the CSV bodies are joined by hand, as ``csv`` would write them.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache

from gqlab.atlas import atlas, classify, label_of
from gqlab.gf2 import MAT_IDENTITY, SYM_IDENTITY, bits6, eigenspace_dim, mat_mul, rref, sym_to_mat
from gqlab.jsontext import dumps
from gqlab.pg import (
    bit_indices,
    elliptic_quadric,
    elliptic_quadric_at,
    klein_quadric,
    lines_in,
)
from gqlab.planes import DISTINGUISHED, echelon, intersection_statistics, raw_plane_rows
from gqlab.quadrangle import (
    DOUBLE_SIX_ISOMORPHISM,
    build_matrix_quadrangle,
    collinearity_graph_edges,
)

_CLASS_COLORS = {"D": "lightblue", "U": "palegreen", "V": "lightsalmon"}
_BITS = tuple(bits6(v) for v in range(64))


def _json_text(payload: object) -> str:
    return dumps(payload) + "\n"


def _csv_text(rows: Iterable[Iterable[object]]) -> str:
    """Each row's cells joined by commas and ended by a newline."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


_ATLAS_FIELDS = ("label", "bits", "class", "eigenspace_dim", "involution")


@cache
def _atlas_rows() -> tuple[tuple, ...]:
    """One row per atlas matrix, identity first, its values in ``_ATLAS_FIELDS``
    order: the one place an export derives a matrix's label and class."""
    rows = []
    for x in (SYM_IDENTITY,) + atlas().points:
        m = sym_to_mat(x)
        involution = mat_mul(m, m) == MAT_IDENTITY
        rows.append((label_of(x), _BITS[x], classify(x), eigenspace_dim(m), involution))
    return tuple(rows)


def _points() -> list[tuple[int, str, str]]:
    """(matrix, label, class) of the 27 quadrangle points in atlas order,
    the label and class read from the atlas rows."""
    return [(x, row[0], row[2]) for x, row in zip(atlas().points, _atlas_rows()[1:])]


def atlas_json() -> str:
    return _json_text([dict(zip(_ATLAS_FIELDS, row)) for row in _atlas_rows()])


def atlas_csv() -> str:
    return _csv_text((_ATLAS_FIELDS, *_atlas_rows()))


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
    lines = ["graph collinearity {", "  node [shape=circle style=filled];"]
    for _, label, cls in _points():
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
    forms += [(f"qM:{label}", elliptic_quadric_at(m)) for m, label, _ in _points()]
    masks = [points for _, points in forms]
    return _json_text(
        [
            _quadric_record(name, points, lines)
            for (name, points), lines in zip(forms, lines_in(masks))
        ]
    )


def planes_json() -> str:
    # (label, rows, class): the rows of (X|1), then the echelon rows of each
    # distinguished plane; the RREF of either is the echelon of its plane
    planes = [(label, raw_plane_rows(sym_to_mat(x)), cls) for x, label, cls in _points()]
    planes += [(label, echelon(plane), "distinguished") for plane, label in DISTINGUISHED.items()]
    return _json_text(
        [
            {
                "label": label,
                "matrix_rows": [_BITS[r] for r in rows],
                "echelon": [_BITS[r] for r in rref(rows)],
                "class": cls,
            }
            for label, rows, cls in planes
        ]
    )


def planes_csv() -> str:
    """Meet statistics of every quadrangle plane against the opposite class.

    D and V rows count meets with the U planes; U rows count meets with the
    V planes.
    """
    rows = [("label", "meets_point", "meets_line", "skew", "class")]
    for x, label, cls in _points():
        prof = intersection_statistics(x)
        rows.append((label, prof.points, prof.lines, prof.skew, cls))
    return _csv_text(rows)


def isomorphism_json() -> str:
    return _json_text({label: DOUBLE_SIX_ISOMORPHISM[label] for _, label, _ in _points()})


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
