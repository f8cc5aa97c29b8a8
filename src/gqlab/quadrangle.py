"""Generalized quadrangles: axioms, the four GQ(2,4) models, isomorphisms.

Models built here and in gqlab.planes share one labelled incidence-structure
type so that isomorphisms are serializable.  No model is built from another
model's lines.  A GQ has no triangles off its lines, so a model given by its
collinearity law takes the triangles of that law as its lines (``triangles``):

* quadric model: points are 6-bit coordinate strings on the 27-point quadric,
  lines are the 45 coordinate-XOR lines inside it;
* matrix model: points are the labels D1..V6, and X ~ Y iff det(X+Y) = 0
  within D or within U+V and det(X+Y) = 1 across them;
* doily plus double-six model: 2-subsets of {1..6}, collinear iff disjoint,
  extended by the points 1..6, 1'..6' and the 30 lines {i,{i,j},j'};
* plane model (gqlab.planes): the planes (Y|1) skew to (1|1), by their meets.

Every axiom, collinearity and isomorphism decision reads the compiled form
of a structure, built once per structure by ``compile_structure``: point i
is ``inc.points[i]``, each line is a tuple of point indices and a point mask
(bit i set iff point i is on it), and each point has the point mask of its
collinear neighbours and their number.  The labels are read back only to
write witnesses and results.  The hyperplane survey restricts the compiled
quadric model to each section's lines, picked by per-point incidence masks,
and decides the section on the quadric's own point indices and line masks.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from gqlab.atlas import MatrixClass, NotInvertibleError, atlas, classify, label_of
from gqlab.gf2 import SYM_IDENTITY, bits6, parse_bits6
from gqlab.pg import (
    bit_indices,
    coordinates,
    det_table,
    elliptic_quadric,
    lines_in,
    perp_hyperplane,
    point_mask,
    polar_column,
    translate_mask,
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


class CompiledStructure(NamedTuple):
    """An incidence structure on the point indices 0..n-1.

    Bit i of a point mask stands for point i.  ``lines`` keeps each line
    as written, so a line that names a point twice still does.
    """

    name: str
    labels: tuple[str, ...]  # point index -> label, read only for witnesses
    lines: tuple[tuple[int, ...], ...]
    line_points: tuple[int, ...]  # line -> point mask of its points
    adjacency: tuple[int, ...]  # point -> point mask of its collinear points
    degrees: tuple[int, ...]  # point -> number of collinear points


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


def _from_masks(name: str, labels: tuple, lines: tuple, line_points: tuple) -> CompiledStructure:
    """The compiled structure of lines whose point masks are line_points."""
    near = [0] * len(labels)
    for line, mask in zip(lines, line_points):
        for i in line:
            near[i] |= mask
    adjacency = tuple([mask & ~(1 << i) for i, mask in enumerate(near)])
    return CompiledStructure(
        name, labels, lines, line_points, adjacency, tuple(map(int.bit_count, adjacency))
    )


@cache
def compile_structure(inc: IncidenceStructure) -> CompiledStructure:
    """The compiled form of inc; point i is inc.points[i]."""
    index = {p: i for i, p in enumerate(inc.points)}.__getitem__
    lines = tuple(tuple(map(index, line)) for line in inc.lines)
    return _from_masks(inc.name, tuple(inc.points), lines, tuple(map(point_mask, lines)))


def collinearity(inc: IncidenceStructure) -> dict[str, frozenset[str]]:
    """Point -> set of collinear points, read from ``compile_structure(inc)``;
    kept only as the tests' reference, as no gqlab code calls it."""
    c = compile_structure(inc)
    label = c.labels.__getitem__
    return {
        label(i): frozenset(map(label, bit_indices(mask))) for i, mask in enumerate(c.adjacency)
    }


def verify_gq_axioms(inc: IncidenceStructure) -> tuple[int, int]:
    """Check the three axioms and return the order (s, t).

    Raises AxiomViolationError with the first failing axiom and witness.
    """
    return _gq_order(compile_structure(inc))


def _gq_order(c: CompiledStructure, points: int = -1) -> tuple[int, int]:
    """verify_gq_axioms on a compiled structure, or on the points of a point
    mask that its lines do not leave; witnesses use its labels."""
    labels, lines = c.labels, c.lines
    points &= (1 << len(labels)) - 1
    if not points or not lines:
        raise AxiomViolationError("nonempty", c.name)
    sizes = {len(line) for line in lines}
    if len(sizes) != 1:
        raise AxiomViolationError("uniform line size", f"sizes {sorted(sizes)}")
    s = sizes.pop() - 1

    degree = [0] * len(labels)
    for line in lines:
        for i in line:
            degree[i] += 1
    degrees = {degree[i] for i in bit_indices(points)}
    if len(degrees) != 1:
        raise AxiomViolationError("uniform point degree", f"degrees {sorted(degrees)}")
    t = degrees.pop() - 1

    def written(j: int) -> tuple[str, ...]:
        return tuple(labels[i] for i in lines[j])

    joined = [0] * len(labels)  # bit b of joined[a]: some line has a before b
    for line in lines:
        for k, a in enumerate(line):
            for b in line[k + 1 :]:
                bit = 1 << b
                if joined[a] & bit:
                    raise AxiomViolationError(
                        "at most one joining line", f"points {labels[a]}, {labels[b]}"
                    )
                joined[a] |= bit
    # an ordered collinear pair counts once in the degrees and once per line
    # through it in the sizes, so equal sums mean no two lines share two points
    line_points = c.line_points
    if sum(n * (n - 1) for n in map(int.bit_count, line_points)) != sum(c.degrees):
        for i, mask in enumerate(line_points):
            for j in range(i + 1, len(line_points)):
                if (mask & line_points[j]).bit_count() > 1:
                    raise AxiomViolationError(
                        "at most one common point", f"lines {written(i)}, {written(j)}"
                    )

    # bit-sliced counters over each line's points as written (a point named
    # twice counts twice): the points collinear with at least one / two of them
    adjacency = c.adjacency
    off_by = []  # per line: the points off it without exactly one neighbour on it
    offenders = 0
    for j, line in enumerate(lines):
        ones = twos = 0
        for q in line:
            twos |= ones & adjacency[q]
            ones |= adjacency[q]
        off_by.append(points & ~line_points[j] & (~ones | twos))
        offenders |= off_by[-1]
    if offenders:
        i = (offenders & -offenders).bit_length() - 1
        j = next(j for j, mask in enumerate(off_by) if mask >> i & 1)
        hits = sum(1 for q in lines[j] if adjacency[i] >> q & 1)
        raise AxiomViolationError(
            "unique perpendicular", f"point {labels[i]}, line {written(j)}, {hits} connections"
        )
    return (s, t)


@cache
def build_quadric_quadrangle() -> IncidenceStructure:
    """GQ on the 27-point quadric; labels are coordinate bit strings."""
    quad = elliptic_quadric()
    points = [bits6(v) for v in bit_indices(quad)]
    lines = [tuple(bits6(v) for v in line) for line in lines_in(quad)]
    return make_structure("quadric", points, lines)


def triangles(adjacency: Sequence[int], labels: Sequence | Mapping) -> Iterator[tuple]:
    """The triangles a < b < c, as (labels[a], labels[b], labels[c]), of the
    graph in which v and w are adjacent iff bit w of adjacency[v] is set."""
    for a, near in enumerate(adjacency):
        later = near & -(2 << a)  # the neighbours of a above a
        for b in bit_indices(later):
            for c in bit_indices(later & adjacency[b] & -(2 << b)):
                yield labels[a], labels[b], labels[c]


@cache
def build_matrix_quadrangle() -> IncidenceStructure:
    """GQ on the 27 matrices: X ~ Y iff det(X+Y) = 0 within D or within
    U+V, and det(X+Y) = 1 across them; the lines are the triangles."""
    at = atlas()
    points, d, dets = point_mask(at.points), point_mask(at.d), det_table()
    rows = [0] * 64
    for x in at.points:
        # Y ~ X iff det(X+Y), bit y of the translate, differs from "Y is in X's class"
        rows[x] = points & (translate_mask(dets, x) ^ (d if d >> x & 1 else ~d)) & ~(1 << x)
    return make_structure("matrices", at.labels.values(), triangles(rows, at.labels))


def quadric_to_matrix_map() -> dict[str, str]:
    """The translation itself, as a label map from the matrix model onto the
    quadric model."""
    return {label_of(x): bits6(coordinates()[x ^ SYM_IDENTITY]) for x in atlas().points}


def _reject_non_points(x: int, y: int) -> None:
    for m in (x, y):
        try:
            cls = classify(m)
        except NotInvertibleError as exc:
            raise NotInSError(f"matrix {m:06b} is singular") from exc
        if cls is MatrixClass.IDENTITY:
            raise NotInSError("the identity is not a quadrangle point")


def collinear_matrices(x: int, y: int) -> bool:
    """Collinearity of two distinct quadrangle matrices.

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


def pair_label(i: int, j: int) -> str:
    lo, hi = sorted((i, j))
    return "{%d,%d}" % (lo, hi)


@cache
def doily_substructure() -> IncidenceStructure:
    """The 15 2-subsets of {1..6}, collinear iff disjoint; the lines are the
    triangles, the 15 perfect matchings."""
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    subsets = [point_mask(pair) for pair in pairs]
    rows = [point_mask(k for k, q in enumerate(subsets) if not p & q) for p in subsets]
    points = [pair_label(i, j) for i, j in pairs]
    return make_structure("doily", points, triangles(rows, points))


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


def _label_ordered(inc: IncidenceStructure) -> CompiledStructure:
    """The compiled form of inc with its points in label order, so that
    ascending point indices are ascending labels."""
    points = tuple(sorted(inc.points))
    return compile_structure(inc if points == inc.points else inc._replace(points=points))


def _search_order(c: CompiledStructure) -> list[int]:
    # breadth-first from the smallest label so each new point is constrained
    # by already-mapped neighbours; fully deterministic
    order: list[int] = []
    remaining = (1 << len(c.labels)) - 1
    while remaining:
        start = remaining & -remaining
        remaining ^= start
        queue = [start.bit_length() - 1]
        for p in queue:
            new = c.adjacency[p] & remaining
            remaining ^= new
            queue.extend(bit_indices(new))
        order += queue
    return order


def _backtrack(
    a: CompiledStructure, b: CompiledStructure, order: list[int]
) -> Iterator[list[int]]:
    """The images of order[0], order[1], ... under every map from a onto b
    that keeps collinearity and non-collinearity, one list per map (reused).

    The candidates of each position start as the points of b with its
    degree.  They sit side by side in one int, n bits per position, and
    mapping a point to q intersects every later position's candidates with
    the neighbours of q, if that position is collinear with the point, or
    with the non-neighbours other than q.  So a position's candidates are
    its degree class minus the used points, intersected with the adjacency
    or non-adjacency masks of the images of the points mapped before it;
    they are tried in ascending order, which is label order.
    """
    n = len(order)
    if not n:
        yield []
        return
    full = (1 << n) - 1
    copies = sum(1 << (n * k) for k in range(n))  # times a mask: one copy per position
    position = {p: k for k, p in enumerate(order)}
    near = []  # per position: the fields of the positions collinear with it
    for p in order:
        fields = 0
        for r in bit_indices(a.adjacency[p]):
            fields |= full << (n * position[r])
        near.append(fields)
    far = [full * copies & ~fields for fields in near]
    onto_near = [mask * copies for mask in b.adjacency]
    onto_far = [(full & ~mask & ~(1 << q)) * copies for q, mask in enumerate(b.adjacency)]
    by_degree: dict[int, int] = {}
    for q, d in enumerate(b.degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << q
    start = sum(by_degree.get(a.degrees[p], 0) << (n * k) for k, p in enumerate(order))

    domains = [start] + [0] * (n - 1)  # candidates of every position, per depth
    candidates = [start & full] + [0] * (n - 1)  # those of each depth not yet tried
    images = [0] * n
    k = 0
    while True:
        c = candidates[k]
        if not c:
            if not k:
                return
            k -= 1
            continue
        low = c & -c
        candidates[k] = c ^ low
        q = low.bit_length() - 1
        images[k] = q
        if k == n - 1:
            yield images
            continue
        domain = domains[k] & (onto_near[q] & near[k] | onto_far[q] & far[k])
        k += 1
        domains[k] = domain
        candidates[k] = domain >> (n * k) & full


def collinearity_isomorphisms(
    a: IncidenceStructure, b: IncidenceStructure
) -> Iterator[dict[str, str]]:
    """Every point bijection from a onto b that keeps collinearity and
    non-collinearity, in search order.

    Points of a are mapped breadth-first from the smallest label; candidate
    images are tried in (degree, label) order.  Each map is a new dict whose
    keys follow the search order.
    """
    if len(a.points) != len(b.points) or len(a.lines) != len(b.lines):
        return
    ca, cb = _label_ordered(a), _label_ordered(b)
    if sorted(ca.degrees) != sorted(cb.degrees):
        return
    order = _search_order(ca)
    keys = [ca.labels[p] for p in order]
    for images in _backtrack(ca, cb, order):
        yield dict(zip(keys, map(cb.labels.__getitem__, images)))


def find_isomorphism(a: IncidenceStructure, b: IncidenceStructure) -> dict[str, str] | None:
    """Deterministic backtracking search for an isomorphism; None if there is none.

    The first map of collinearity_isomorphisms, if it also sends lines onto
    lines; for generalized quadrangles every such map does.
    """
    for mapping in collinearity_isomorphisms(a, b):
        ok, _ = verify_isomorphism(mapping, a, b)
        return mapping if ok else None
    return None


class HyperplaneSection(NamedTuple):
    axis: str
    kind: str  # "tangent" (a cone), "gq22" (order (2,2)) or "neither"
    n_points: int
    n_lines: int


class SurveySummary(NamedTuple):
    tangent: int
    nondegenerate: int
    sections: tuple[HyperplaneSection, ...]
    all_gq22_pass: bool


def _sections(axes: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(axis, points, lines) of the quadric section by the hyperplane of each
    axis: the point mask of the quadric points perpendicular to the axis,
    and the mask of the quadric model's compiled lines inside them, bit j
    for line j.  As in lines_in, those are the lines that no per-point
    incidence mask of a quadric point off the section hits."""
    quad = elliptic_quadric()
    c = compile_structure(build_quadric_quadrangle())
    vectors = [parse_bits6(label) for label in c.labels]
    through = [0] * 64  # bit j of through[v]: c.lines[j] holds the vector v
    for j, line in enumerate(c.lines):
        for i in line:
            through[vectors[i]] |= 1 << j
    every = (1 << len(c.lines)) - 1
    for axis in axes:
        inside = quad & perp_hyperplane(axis)
        hit = 0
        for v in bit_indices(quad & ~inside):
            hit |= through[v]
        yield axis, inside, every & ~hit


def quadric_section(axis: int) -> IncidenceStructure:
    """Incidence structure on the quadric points inside the hyperplane of axis."""
    ((_, inside, kept),) = _sections([axis])
    c = compile_structure(build_quadric_quadrangle())
    lines = [tuple(c.labels[i] for i in c.lines[j]) for j in bit_indices(kept)]
    return make_structure(f"section-{bits6(axis)}", map(bits6, bit_indices(inside)), lines)


def hyperplane_section_survey() -> SurveySummary:
    """Classify all 63 hyperplane sections of the 27-point quadric.

    Each section is decided on the quadric model's compiled lines inside
    it, its adjacency read from those lines alone.  It is "tangent" if it
    is a cone, 11 points on 5 lines through the axis, and "gq22" if its 15
    points and 15 lines pass the (2,2) axioms.  all_gq22_pass is False if
    an axis off the quadric does not cut a "gq22" section.
    """
    quad = elliptic_quadric()
    c = compile_structure(build_quadric_quadrangle())
    sections = []
    all_pass = True
    for axis, inside, kept in _sections(range(1, 64)):
        name, ids = bits6(axis), bit_indices(kept)
        n_points, n_lines = inside.bit_count(), len(ids)
        masks = tuple([c.line_points[j] for j in ids])
        on_lines, common = 0, -1
        for mask in masks:
            on_lines |= mask
            common &= mask
        kind = "neither"
        if on_lines.bit_count() == n_points == 11 and n_lines == 5:
            # all 11 points on the 5 lines, whose one common point is the axis
            if common.bit_count() == 1 and c.labels[common.bit_length() - 1] == name:
                kind = "tangent"
        elif on_lines.bit_count() == n_points == 15 and n_lines == 15:
            lines = tuple([c.lines[j] for j in ids])
            try:
                if _gq_order(_from_masks(name, c.labels, lines, masks), on_lines) == (2, 2):
                    kind = "gq22"
            except AxiomViolationError:
                pass
        if kind != "gq22" and not quad >> axis & 1:
            all_pass = False
        sections.append(HyperplaneSection(name, kind, n_points, n_lines))
    kinds = [section.kind for section in sections]
    return SurveySummary(kinds.count("tangent"), kinds.count("gq22"), tuple(sections), all_pass)


def collinearity_graph_edges() -> tuple[tuple[str, str], ...]:
    """The 135 collinear pairs of the matrix model, sorted."""
    c = compile_structure(build_matrix_quadrangle())
    label = c.labels  # sorted, so i < j lists each pair once and in order
    return tuple(
        (label[i], label[j])
        for i, near in enumerate(c.adjacency)
        for j in bit_indices(near)
        if i < j
    )
