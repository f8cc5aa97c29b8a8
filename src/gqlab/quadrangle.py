"""Generalized quadrangles: axioms, the four GQ(2,4) models, isomorphisms.

Models built here and in gqlab.planes share one labelled incidence-structure
type so that isomorphisms are serializable:

* quadric model: points are 6-bit coordinate strings on the 27-point quadric,
  lines are the 45 coordinate-XOR lines inside it;
* matrix model: points are the labels D1..V6, lines are preimages of the
  quadric lines under the translation X -> X + 1;
* doily plus double-six model: 2-subsets of {1..6} with perfect-matching
  lines, extended by the points 1..6, 1'..6' and the 30 lines {i,{i,j},j'};
* plane model (gqlab.planes): points are the planes (Y|1) skew to (1|1).
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping, NamedTuple

from gqlab.atlas import MatrixClass, NotInvertibleError, atlas, classify, label_of
from gqlab.gf2 import SYM_IDENTITY, bits6
from gqlab.pg import (
    bit_indices,
    elliptic_quadric,
    from_minor_coordinates,
    lines_in,
    minor_coordinates,
    perp_hyperplane,
    polar_form,
)


class AxiomViolationError(ValueError):
    """A generalized-quadrangle axiom failed; carries the first witness."""

    def __init__(self, axiom: str, witness: str):
        super().__init__(f"{axiom}: {witness}")
        self.axiom = axiom
        self.witness = witness


class NotInSError(ValueError):
    """Argument is singular or the identity, hence not a quadrangle point."""


class IncidenceStructure(NamedTuple):
    name: str
    points: tuple[str, ...]
    lines: tuple[tuple[str, ...], ...]


def make_structure(name: str, points: Iterable[str], lines: Iterable[Iterable[str]]) -> IncidenceStructure:
    """Canonicalize: sorted point tuple, sorted tuple of sorted line tuples."""
    pts = tuple(sorted(points))
    pset = set(pts)
    if len(pset) != len(pts):
        raise ValueError("duplicate point labels")
    canon = []
    for line in lines:
        tup = tuple(sorted(line))
        if not pset.issuperset(tup):
            raise ValueError(f"line {tup} uses unknown points")
        canon.append(tup)
    lset = set(canon)
    if len(lset) != len(canon):
        raise ValueError("duplicate lines")
    return IncidenceStructure(name, pts, tuple(sorted(lset)))


def collinearity(inc: IncidenceStructure) -> dict[str, frozenset[str]]:
    """Point -> set of points sharing a line with it."""
    adj: dict[str, set[str]] = {p: set() for p in inc.points}
    for line in inc.lines:
        for a in line:
            for b in line:
                if a != b:
                    adj[a].add(b)
    return {p: frozenset(s) for p, s in adj.items()}


def verify_gq_axioms(inc: IncidenceStructure) -> tuple[int, int]:
    """Check the three axioms and return the order (s, t).

    Raises AxiomViolationError with the first failing axiom and witness.
    The axioms are decided on bitsets over indices into ``inc.points`` and
    ``inc.lines``: each line has the mask of its points and each point the
    mask of the lines through it.
    """
    if not inc.points or not inc.lines:
        raise AxiomViolationError("nonempty", inc.name)
    sizes = {len(line) for line in inc.lines}
    if len(sizes) != 1:
        raise AxiomViolationError("uniform line size", f"sizes {sorted(sizes)}")
    s = sizes.pop() - 1

    index = {p: i for i, p in enumerate(inc.points)}
    degree = [0] * len(inc.points)
    through = [0] * len(inc.points)
    line_points = []
    repeats = 0  # lines that name a point twice
    for j, line in enumerate(inc.lines):
        mask = 0
        for p in line:
            i = index[p]
            degree[i] += 1
            through[i] |= 1 << j
            mask |= 1 << i
        line_points.append(mask)
        if mask.bit_count() != len(line):
            repeats |= 1 << j
    degrees = {degree[i] for i in index.values()}
    if len(degrees) != 1:
        raise AxiomViolationError("uniform point degree", f"degrees {sorted(degrees)}")
    t = degrees.pop() - 1

    joined = [0] * len(inc.points)  # bit b of joined[a]: some line has a before b
    for line in inc.lines:
        for k, a in enumerate(line):
            row = index[a]
            for b in line[k + 1 :]:
                bit = 1 << index[b]
                if joined[row] & bit:
                    raise AxiomViolationError("at most one joining line", f"points {a}, {b}")
                joined[row] |= bit
    for i, mask in enumerate(line_points):
        for j in range(i + 1, len(line_points)):
            if (mask & line_points[j]).bit_count() > 1:
                raise AxiomViolationError(
                    "at most one common point", f"lines {inc.lines[i]}, {inc.lines[j]}"
                )

    near = [0] * len(inc.points)
    for mask in line_points:
        for i in bit_indices(mask):
            near[i] |= mask
    all_lines = (1 << len(inc.lines)) - 1
    for p, i in index.items():
        near_p = near[i] & ~(1 << i)
        # bit-sliced counters: lines meeting at least one / two neighbours of p
        ones = twos = 0
        for q in bit_indices(near_p):
            twos |= ones & through[q]
            ones |= through[q]
        # a line naming a neighbour twice counts it twice, so it is rechecked
        suspects = all_lines & ~through[i] & (~ones | twos | repeats)
        for j in bit_indices(suspects):
            line = inc.lines[j]
            hits = sum(1 for q in line if near_p >> index[q] & 1)
            if hits != 1:
                raise AxiomViolationError(
                    "unique perpendicular", f"point {p}, line {line}, {hits} connections"
                )
    return (s, t)


@cache
def build_quadric_quadrangle() -> IncidenceStructure:
    """GQ on the 27-point quadric; labels are coordinate bit strings."""
    quad = elliptic_quadric()
    points = [bits6(v) for v in quad]
    lines = [tuple(bits6(v) for v in line) for line in lines_in(quad)]
    return make_structure("quadric", points, lines)


def _matrix_point_label(v: int) -> str:
    """Quadric point (coordinates) -> label of its translation preimage."""
    return label_of(from_minor_coordinates(v) ^ SYM_IDENTITY)


@cache
def build_matrix_quadrangle() -> IncidenceStructure:
    """GQ on the 27 matrices; lines are translation preimages of quadric lines."""
    lines = [tuple(_matrix_point_label(v) for v in line) for line in lines_in(elliptic_quadric())]
    return make_structure("matrices", atlas().labels.values(), lines)


def quadric_to_matrix_map() -> dict[str, str]:
    """The translation itself, as a label map from the matrix model onto the
    quadric model."""
    return {
        label_of(x): bits6(minor_coordinates(x ^ SYM_IDENTITY)) for x in atlas().points
    }


def collinear_matrices(x: int, y: int) -> bool:
    """Collinearity of two distinct quadrangle matrices.

    Criterion: the polar form of the translated coordinate vectors vanishes,
    equivalently det(X+Y) + det(X+1) + det(Y+1) = 0.
    """
    for m in (x, y):
        try:
            cls = classify(m)
        except NotInvertibleError as exc:
            raise NotInSError(f"matrix {m:06b} is singular") from exc
        if cls is MatrixClass.IDENTITY:
            raise NotInSError("the identity is not a quadrangle point")
    if x == y:
        raise ValueError("collinearity is defined for distinct points")
    return polar_form(minor_coordinates(x ^ SYM_IDENTITY), minor_coordinates(y ^ SYM_IDENTITY)) == 0


def pair_label(i: int, j: int) -> str:
    lo, hi = sorted((i, j))
    return "{%d,%d}" % (lo, hi)


def _matchings(elems: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    if not elems:
        return [()]
    first, rest = elems[0], elems[1:]
    out = []
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for sub in _matchings(remaining):
            out.append(((first, partner),) + sub)
    return out


@cache
def doily_substructure() -> IncidenceStructure:
    """The 15 2-subsets of {1..6} with the 15 perfect-matching lines."""
    points = [pair_label(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    lines = [
        tuple(pair_label(i, j) for i, j in matching) for matching in _matchings(tuple(range(1, 7)))
    ]
    return make_structure("doily", points, lines)


@cache
def build_double_six_model() -> IncidenceStructure:
    """The doily extended by the double-six points 1..6, 1'..6'."""
    doily = doily_substructure()
    points = list(doily.points) + [str(i) for i in range(1, 7)] + [f"{i}'" for i in range(1, 7)]
    lines = list(doily.lines)
    for i in range(1, 7):
        for j in range(1, 7):
            if i != j:
                lines.append((str(i), pair_label(i, j), f"{j}'"))
    return make_structure("double-six", points, lines)


# Explicit isomorphism from the matrix model onto the double-six model.
DOUBLE_SIX_ISOMORPHISM: Mapping[str, str] = {
    "U1": "1", "U2": "2", "U3": "3", "U4": "4", "U5": "5", "U6": "6",
    "V1": "1'", "V2": "2'", "V3": "3'", "V4": "4'", "V5": "5'", "V6": "6'",
    "D1": "{3,5}", "D2": "{1,4}", "D3": "{2,6}", "D4": "{1,2}", "D5": "{4,5}",
    "D6": "{1,6}", "D7": "{3,4}", "D8": "{3,6}", "D9": "{2,5}", "D10": "{4,6}",
    "D11": "{1,3}", "D12": "{1,5}", "D13": "{2,4}", "D14": "{2,3}", "D15": "{5,6}",
}


def verify_isomorphism(
    mapping: Mapping[str, str], a: IncidenceStructure, b: IncidenceStructure
) -> tuple[bool, str]:
    """Check that mapping is a point bijection sending lines onto lines.

    Returns (ok, witness); the witness names the first failure.
    """
    if set(mapping) != set(a.points):
        return False, "mapping domain differs from the point set"
    if set(mapping.values()) != set(b.points):
        return False, "mapping image differs from the target point set"
    if len(a.lines) != len(b.lines):
        return False, f"line counts differ: {len(a.lines)} vs {len(b.lines)}"
    b_lines = set(b.lines)
    for line in a.lines:
        image = tuple(sorted(mapping[p] for p in line))
        if image not in b_lines:
            return False, f"line {line} maps to non-line {image}"
    return True, ""


def _search_order(inc: IncidenceStructure, adj: Mapping[str, frozenset[str]]) -> list[str]:
    # breadth-first from the smallest label so each new point is constrained
    # by already-mapped neighbours; fully deterministic
    remaining = set(inc.points)
    order: list[str] = []
    while remaining:
        queue = [min(remaining)]
        remaining.discard(queue[0])
        while queue:
            p = queue.pop(0)
            order.append(p)
            for n in sorted(adj[p]):
                if n in remaining:
                    remaining.discard(n)
                    queue.append(n)
    return order


def find_isomorphism(a: IncidenceStructure, b: IncidenceStructure) -> dict[str, str] | None:
    """Deterministic backtracking search for an isomorphism; None if there is none.

    Candidate images are tried in (degree, label) order; partial maps must
    preserve collinearity and non-collinearity.
    """
    if len(a.points) != len(b.points) or len(a.lines) != len(b.lines):
        return None
    adj_a, adj_b = collinearity(a), collinearity(b)
    if sorted(len(s) for s in adj_a.values()) != sorted(len(s) for s in adj_b.values()):
        return None
    order = _search_order(a, adj_a)
    candidates = sorted(b.points, key=lambda p: (len(adj_b[p]), p))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def feasible(p: str, q: str) -> bool:
        if len(adj_a[p]) != len(adj_b[q]):
            return False
        return all((r in adj_a[p]) == (s in adj_b[q]) for r, s in mapping.items())

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        for q in candidates:
            if q in used or not feasible(p, q):
                continue
            mapping[p] = q
            used.add(q)
            if backtrack(i + 1):
                return True
            del mapping[p]
            used.discard(q)
        return False

    if not backtrack(0):
        return None
    ok, _ = verify_isomorphism(mapping, a, b)
    return dict(mapping) if ok else None


class HyperplaneSection(NamedTuple):
    axis: str
    kind: str  # "tangent" or "gq22"
    n_points: int
    n_lines: int


class SurveySummary(NamedTuple):
    tangent: int
    nondegenerate: int
    sections: tuple[HyperplaneSection, ...]
    all_gq22_pass: bool


def _section_structure(
    axis: int, pts: Iterable[int], lines: Iterable[tuple[int, ...]]
) -> IncidenceStructure:
    labelled = [tuple(bits6(v) for v in line) for line in lines]
    return make_structure(f"section-{bits6(axis)}", (bits6(v) for v in pts), labelled)


def quadric_section(axis: int) -> IncidenceStructure:
    """Incidence structure on the quadric points inside the hyperplane of axis."""
    pts = elliptic_quadric() & perp_hyperplane(axis)
    return _section_structure(axis, pts, lines_in(pts))


def hyperplane_section_survey() -> SurveySummary:
    """Classify all 63 hyperplane sections of the 27-point quadric.

    A hyperplane perpendicular to a quadric point cuts a degenerate cone;
    every other one cuts a 15-point subquadrangle of order (2,2).
    """
    quad = elliptic_quadric()
    sections = []
    all_pass = True
    for axis in range(1, 64):
        pts = quad & perp_hyperplane(axis)
        lines = lines_in(pts)
        n_lines = len(lines)
        if axis in quad:
            sections.append(HyperplaneSection(bits6(axis), "tangent", len(pts), n_lines))
            continue
        try:
            order = verify_gq_axioms(_section_structure(axis, pts, lines))
        except AxiomViolationError:
            order = None
        if order != (2, 2) or len(pts) != 15 or n_lines != 15:
            all_pass = False
        sections.append(HyperplaneSection(bits6(axis), "gq22", len(pts), n_lines))
    tangent = sum(1 for s in sections if s.kind == "tangent")
    return SurveySummary(
        tangent=tangent,
        nondegenerate=len(sections) - tangent,
        sections=tuple(sections),
        all_gq22_pass=all_pass,
    )


def collinearity_graph_edges() -> tuple[tuple[str, str], ...]:
    """The 135 collinear pairs of the matrix model, sorted."""
    inc = build_matrix_quadrangle()
    adj = collinearity(inc)
    edges = {tuple(sorted((p, q))) for p in inc.points for q in adj[p]}
    return tuple(sorted(edges))
