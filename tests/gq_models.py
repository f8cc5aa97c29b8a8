"""Models and oracles shared by the test modules; no test module imports another.

Tests that run on several models are parametrized by model name and build
the model inside the test through ``model``, so a broken model builder
fails the tests that read that model, not the collection of their module.
A model name is the ``name`` its builder gives the structure, so the test
ids read as they did when the models themselves were the parameters.
"""

from functools import cache
from itertools import combinations

from gqlab.atlas import NotInvertibleError, atlas, classify
from gqlab.gf2 import SYM_IDENTITY
from gqlab.pg import ALL_ONES, coordinates, polar_column
from gqlab.planes import build_plane_model
from gqlab.quadrangle import (
    build_double_six_model,
    build_matrix_quadrangle,
    build_quadric_quadrangle,
    doily_substructure,
    make_structure,
    quadric_section,
)


class NotInSError(ValueError):
    """Argument is singular or the identity, hence not a quadrangle point."""


def _reject_non_points(x, y):
    for m in (x, y):
        try:
            cls = classify(m)
        except NotInvertibleError as exc:
            raise NotInSError(f"matrix {m:06b} is singular") from exc
        if cls == "identity":
            raise NotInSError("the identity is not a quadrangle point")


def collinear_matrices(x, y):
    """Collinearity of two distinct quadrangle matrices, kept as the tests'
    reference for the models' collinearity laws.

    Criterion: the polar form of the translated coordinate vectors vanishes,
    equivalently det(X+Y) + det(X+1) + det(Y+1) = 0.
    """
    labels = atlas().labels
    if x not in labels or y not in labels:
        _reject_non_points(x, y)
    if x == y:
        raise ValueError("collinearity is defined for distinct points")
    coords = coordinates()
    return not polar_column(coords[y ^ SYM_IDENTITY]) >> coords[x ^ SYM_IDENTITY] & 1


def grid_gq21():
    """The 3x3 grid: rows and columns as lines, a GQ of order (2,1)."""
    points = [f"p{r}{c}" for r in range(3) for c in range(3)]
    lines = [tuple(f"p{r}{c}" for c in range(3)) for r in range(3)]
    lines += [tuple(f"p{r}{c}" for r in range(3)) for c in range(3)]
    return make_structure("grid", points, lines)


def point_graph(inc):
    """Collinearity graph built straight from the lines: point -> neighbours."""
    adj = {p: set() for p in inc.points}
    for line in inc.lines:
        for p, q in combinations(line, 2):
            adj[p].add(q)
            adj[q].add(p)
    return adj


def point_swapped(inc):
    """inc with two collinear points p, q traded between two disjoint lines.

    Every point keeps 10 neighbours and the line count stays 45, so only the
    search can tell it from GQ(2,4); the GQ axioms fail on it.
    """
    adj = point_graph(inc)
    for i, j in combinations(range(len(inc.lines)), 2):
        left, right = inc.lines[i], inc.lines[j]
        p, q = left[0], right[0]
        if q in adj[p] and not set(left) & set(right):
            lines = list(inc.lines)
            lines[i] = (q,) + left[1:]
            lines[j] = (p,) + right[1:]
            return make_structure(f"{inc.name}-swapped", inc.points, lines)
    raise AssertionError("no swappable pair")


# the four GQ(2,4) models, in the order the tests pair them
MODEL_NAMES = ("quadric", "matrices", "double-six", "planes")

_BUILDERS = {
    "quadric": build_quadric_quadrangle,
    "matrices": build_matrix_quadrangle,
    "double-six": build_double_six_model,
    "planes": build_plane_model,
    "doily": doily_substructure,
    "section-111111": lambda: quadric_section(ALL_ONES),
    "grid": grid_gq21,
    "matrices-swapped": lambda: point_swapped(build_matrix_quadrangle()),
    # both collinearity graphs are K4, so the identity keeps collinearity, but
    # it sends the line abc to a non-line; a -> b -> c -> d -> a is an isomorphism
    "fan-a": lambda: make_structure("fan-a", "abcd", ["abc", "ad", "bd", "cd"]),
    "fan-d": lambda: make_structure("fan-d", "abcd", ["bcd", "ab", "ac", "ad"]),
    # K4 on abcd with the tail de, and one triangle as a line: both have the
    # same collinearity graph, but only the second line abd holds d
    "tail-abc": lambda: make_structure("tail-abc", "abcde", ["abc", "ad", "bd", "cd", "de"]),
    "tail-abd": lambda: make_structure("tail-abd", "abcde", ["abd", "ac", "bc", "cd", "de"]),
}


@cache
def model(name):
    """The structure named name, built on first use and kept for later tests."""
    inc = _BUILDERS[name]()
    assert inc.name == name, (inc.name, name)
    return inc


def four_models():
    return [model(name) for name in MODEL_NAMES]
