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
of a structure, built once per structure by ``compile_structure``: the
points are numbered in label order, so point i is ``sorted(inc.points)[i]``
and ascending indices are ascending labels; each line is a tuple of point
indices and a point mask (bit i set iff point i is on it), and each point
has the point mask of its collinear neighbours and their number.
``compile_structure`` is the one gate of well-formedness (distinct labels;
lines that are distinct sets of distinct known points), which
``make_structure`` passes its result through.
The labels are read back only to write witnesses and results.  The one
axiom core, ``_gq_order``, decides many restrictions (point mask, line mask)
of one compiled structure at once, one lane each; ``verify_gq_axioms`` is
its one-lane call, and scans for a witness only when that lane fails.  The
hyperplane survey finds its 63 sections in one pass, each as the masks of
the model's points and lines inside it, and decides its 36 candidates in
one call of the core.  The isomorphism search plans its breadth-first order
of the source's points, and each point's earlier collinear points, in one
pass per compiled source.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache, reduce
from itertools import chain, combinations
from operator import mul, or_

from gqlab.atlas import atlas, label_of
from gqlab.gf2 import SYM_IDENTITY, bits6, parse_bits6
from gqlab.pg import (
    bit_indices,
    coordinates,
    det_table,
    elliptic_quadric,
    lines_in,
    perp_hyperplane,
    point_mask,
    translate_mask,
    transposed,
)


class AxiomViolationError(ValueError):
    """A generalized-quadrangle axiom failed; carries the first witness."""

    def __init__(self, axiom: str, witness: str):
        super().__init__(f"{axiom}: {witness}")
        self.axiom = axiom
        self.witness = witness


IncidenceStructure = namedtuple("IncidenceStructure", "name points lines")

# An incidence structure on the point indices 0..n-1; bit i of a point mask
# stands for point i.  labels maps a point index to its label, in ascending
# label order, and is read only for witnesses; lines are tuples of point
# indices; line_points gives each line the point mask of its points,
# adjacency each point the point mask of its collinear points, and degrees
# each point their number.
CompiledStructure = namedtuple("CompiledStructure", "name labels lines line_points adjacency degrees")


def make_structure(name: str, points: Iterable[str], lines: Iterable[Iterable[str]]) -> IncidenceStructure:
    """Canonicalize (sorted points, sorted lines of sorted points); then
    compile_structure rejects a malformed result or caches its compiled form."""
    lines = tuple(sorted(tuple(sorted(line)) for line in lines))
    inc = IncidenceStructure(name, tuple(sorted(points)), lines)
    compile_structure(inc)
    return inc


@cache
def compile_structure(inc: IncidenceStructure) -> CompiledStructure:
    """The compiled form of inc; point i is sorted(inc.points)[i].  A plain
    ValueError names the first label given twice, else the first line naming
    an unknown label, else naming a point twice, else repeating a line, each
    as inc writes it."""
    ordered = tuple(sorted(inc.points))
    labels = {p: i for i, p in enumerate(ordered)}
    if len(labels) != len(ordered):
        twice = next(p for k, p in enumerate(inc.points) if p in inc.points[:k])
        raise ValueError(f"point label {twice!r} is given twice")
    try:
        lines = tuple(tuple(map(labels.__getitem__, line)) for line in inc.lines)
    except KeyError:
        line, p = next((line, p) for line in inc.lines for p in line if p not in labels)
        raise ValueError(f"line {line} names unknown point {p!r}") from None
    line_points = tuple(map(point_mask, lines))
    near = [0] * len(ordered)
    for written, line, mask in zip(inc.lines, lines, line_points):
        if mask.bit_count() != len(line):
            raise ValueError(f"line {written} names a point twice")
        for i in line:
            near[i] |= mask
    if len(set(line_points)) != len(line_points):
        k = next(k for k, mask in enumerate(line_points) if mask in line_points[:k])
        first = inc.lines[line_points.index(line_points[k])]
        raise ValueError(f"line {inc.lines[k]} repeats line {first}")
    adjacency = tuple([mask & ~(1 << i) for i, mask in enumerate(near)])
    degrees = tuple(map(int.bit_count, adjacency))
    return CompiledStructure(inc.name, ordered, lines, line_points, adjacency, degrees)


def collinearity(inc: IncidenceStructure) -> dict[str, frozenset[str]]:
    """Point -> set of collinear points, read from ``compile_structure(inc)``;
    kept only as the tests' reference, as no gqlab code calls it."""
    c = compile_structure(inc)
    label = c.labels.__getitem__
    return {
        label(i): frozenset(map(label, bit_indices(mask))) for i, mask in enumerate(c.adjacency)
    }


def verify_gq_axioms(inc: IncidenceStructure) -> tuple[int, int]:
    """Check the GQ axioms and return the order (s, t).

    Raises AxiomViolationError with the first failing axiom and its first
    witness, which element-by-element scans find only once an axiom fails;
    a malformed structure raises compile_structure's plain ValueError."""
    c = compile_structure(inc)
    # one lane: the order (s, t), or the name of the first failing axiom
    (lane,) = _gq_order(c, [((1 << len(c.labels)) - 1, (1 << len(c.lines)) - 1)])
    if not isinstance(lane, str):
        return lane
    axiom, labels, lines = lane, c.labels, c.lines
    if axiom == "nonempty":
        witness = c.name
    elif axiom == "uniform line size":
        witness = f"sizes {sorted(set(map(len, lines)))}"
    elif axiom == "uniform point degree":
        degree = Counter(chain.from_iterable(lines))
        witness = f"degrees {sorted({degree[i] for i in range(len(labels))})}"
    else:
        witness = next(
            f"point {labels[i]}, line {tuple(labels[q] for q in lines[j])}, {hits} connections"
            for i, near in enumerate(c.adjacency)
            for j, hits in enumerate([(near & mask).bit_count() for mask in c.line_points])
            if not c.line_points[j] >> i & 1 and hits != 1
        )
    raise AxiomViolationError(axiom, witness)


def _lanes(masks: Sequence[int], n: int) -> list[int]:
    """Bit a of entry i is bit i of masks[a], for i < n; at most 64 masks."""
    out: list[int] = []
    for low in range(0, n, 64):
        out += transposed([mask >> low & (1 << 64) - 1 for mask in masks])
    return out[:n]


def _fold(wide: int, w: int, n: int) -> int:
    """The OR of the n w-bit rows of a wide mask."""
    while n > 1:
        n = (n + 1) // 2
        wide |= wide >> w * n
    return wide & ((1 << w) - 1)


def _gq_order(
    c: CompiledStructure, restrictions: Sequence[tuple[int, int]]
) -> list[tuple[int, int] | str]:
    """Per restriction (point mask, mask of line indices) of c, its order
    (s, t) or its first failing axiom, all w <= 64 at once: bit a of a lane mask
    stands for restrictions[a], and bit i*w + a of a wide mask for point i
    in lane a.  A lane's degrees and adjacency come from its own lines, which
    lie inside its points: so of two distinct lines of one size that share two
    points, a point of one off the other fails "unique perpendicular"."""
    lines, n, w = c.lines, len(c.labels), len(restrictions)
    row = [1 << w * i for i in range(n)]
    point_lanes = sum(map(mul, _lanes([points for points, _ in restrictions], n), row))
    line_lanes = _lanes([kept for _, kept in restrictions], len(lines))
    filled = _fold(point_lanes, w, n) & reduce(or_, line_lanes, 0)
    fails = {"nonempty": (1 << w) - 1 ^ filled}  # axiom -> its failing lanes, in axiom order
    sized: dict[int, int] = {}  # line size -> the lanes that keep a line of that size
    if len(set(map(len, lines))) > 1:  # else no lane mixes sizes
        for line, lanes in zip(lines, line_lanes):
            sized[len(line)] = sized.get(len(line), 0) | lanes
    fails["uniform line size"] = reduce(or_, (x & y for x, y in combinations(sized.values(), 2)), 0)

    # per line, the rows of its distinct points in its lanes; the degrees add them up
    on_line = [sum(map(row.__getitem__, line)) * lanes for line, lanes in zip(lines, line_lanes)]
    counts: list[int] = []  # bit-sliced: bit b of each degree is in counts[b]
    for carry in on_line:
        b = 0
        while carry:
            if b == len(counts):
                counts.append(0)
            counts[b], carry = counts[b] ^ carry, counts[b] & carry
            b += 1
    with_bit = [_fold(point_lanes & plane, w, n) for plane in counts]
    mixed = [has & _fold(point_lanes & ~plane, w, n) for has, plane in zip(with_bit, counts)]
    fails["uniform point degree"] = reduce(or_, mixed, 0)

    # bit-sliced counters over each line's points: the points of its lanes
    # off it that have not exactly one neighbour on it
    near = [0] * n  # point q -> per lane, the rows of q and its neighbours
    for line, wide in zip(lines, on_line):
        for q in line:
            near[q] |= wide
    off, on_rows = 0, sum(row)
    for line, wide, lanes in zip(lines, on_line, line_lanes):
        ones = twos = 0
        for q in line:
            twos |= ones & near[q]
            ones |= near[q]
        off |= point_lanes & (on_rows * lanes ^ wide) & (~ones | twos)
    fails["unique perpendicular"] = _fold(off, w, n)

    failing = reduce(or_, fails.values())
    degrees = transposed(with_bit)  # bit b of entry a: bit a of with_bit[b]
    return [
        next(axiom for axiom, lanes in fails.items() if lanes >> a & 1)
        if failing >> a & 1
        else (len(lines[(kept & -kept).bit_length() - 1]) - 1, degrees[a] - 1)
        for a, (_, kept) in enumerate(restrictions)
    ]


@cache
def build_quadric_quadrangle() -> IncidenceStructure:
    """GQ on the 27-point quadric; labels are coordinate bit strings."""
    quad = elliptic_quadric()
    # all 64 vectors: a line off the quadric is labelled, and make_structure rejects it
    label = [bits6(v) for v in range(64)]
    points = [label[v] for v in bit_indices(quad)]
    lines = [tuple(map(label.__getitem__, line)) for line in lines_in(quad)]
    return make_structure("quadric", points, lines)


def triangles(adjacency: Sequence[int], labels: Sequence | Mapping) -> Iterator[tuple]:
    """The triangles a < b < c, as (labels[a], labels[b], labels[c]), of the
    graph in which v and w are adjacent iff bit w of adjacency[v] is set."""
    for a, near in enumerate(adjacency):
        later = near & -(2 << a)  # the neighbours of a above a not yet taken as b
        if later < 0:
            raise ValueError(f"adjacency row {a} is negative: {near}")
        while later:
            low = later & -later
            later ^= low
            b = low.bit_length() - 1
            common = later & adjacency[b]  # the neighbours of a and b above b
            while common:
                low = common & -common
                common ^= low
                yield labels[a], labels[b], labels[low.bit_length() - 1]


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
    if len(mapping) != len(set(b.points)):  # so two points share an image
        return False, f"point counts differ: {len(mapping)} vs {len(set(b.points))}"
    if len(a.lines) != len(b.lines):
        return False, f"line counts differ: {len(a.lines)} vs {len(b.lines)}"
    b_lines = {tuple(sorted(line)) for line in b.lines}  # as make_structure writes them
    image_of = mapping.__getitem__
    for line in a.lines:
        image = tuple(sorted(map(image_of, line)))
        if image not in b_lines:
            return False, f"line {line} maps to non-line {image}"
    return True, ""


@cache
def _search_plan(c: CompiledStructure) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The search order of c's points and, per position, the earlier
    positions collinear with it, both from one pass; built once per compiled
    source model.  The order is breadth-first from the smallest label, so
    each new point is constrained by already-mapped neighbours, and fully
    deterministic."""
    order: list[int] = []
    earlier: list[tuple[int, ...]] = []
    position = [0] * len(c.labels)  # point -> its position in order, once placed
    placed, remaining = 0, (1 << len(c.labels)) - 1
    while remaining:
        start = remaining & -remaining
        remaining ^= start
        queue = [start.bit_length() - 1]
        for p in queue:
            new = c.adjacency[p] & remaining
            remaining ^= new
            queue.extend(bit_indices(new))
            near = bit_indices(c.adjacency[p] & placed)
            earlier.append(tuple(sorted(map(position.__getitem__, near))))
            position[p] = len(order)
            order.append(p)
            placed |= 1 << p
    return tuple(order), tuple(earlier)


def _backtrack(earlier: Sequence[Sequence[int]], b: CompiledStructure) -> Iterator[list[int]]:
    """The images of positions 0, 1, ... of a search plan under every
    bijection onto b that sends collinear points to collinear points, one
    list per map (reused); earlier[k] lists the earlier positions collinear
    with position k.  A position's candidates are the unused points of b
    collinear with the images of its earlier collinear positions, tried in
    ascending order, which is label order.  A candidate is dropped at once
    when it is collinear with the image of any other earlier position.  When
    the two structures have as many collinear pairs, a map that sends
    collinear pairs to collinear pairs sends the other pairs onto the other
    pairs, so that test cuts only branches that no such map completes, and
    the maps come in the sequence they would without it.
    """
    n = len(earlier)
    if not n:
        yield []
        return
    candidates = [(1 << n) - 1] + [0] * (n - 1)  # those of each depth not yet tried
    collinear = list(map(len, earlier))  # per depth: the used points a candidate may meet
    images, free, k = [0] * n, (1 << n) - 1, 0  # free: the points of b no lower depth maps onto
    onto = b.adjacency
    while True:
        c = candidates[k]
        if not c:
            if not k:
                return
            k -= 1
            free |= 1 << images[k]
            continue
        low = c & -c
        candidates[k] = c ^ low
        i = low.bit_length() - 1
        # i is collinear with the images of earlier[k], all used; any other
        # used neighbour of i is the image of a point it must not meet
        if (onto[i] & ~free).bit_count() != collinear[k]:
            continue
        images[k] = i
        if k == n - 1:
            yield images
            continue
        free ^= low
        k += 1
        c = free
        for j in earlier[k]:
            c &= onto[images[j]]
        candidates[k] = c


def collinearity_isomorphisms(
    a: IncidenceStructure, b: IncidenceStructure
) -> Iterator[dict[str, str]]:
    """Every point bijection from a onto b that keeps collinearity and
    non-collinearity, in search order.

    Points of a are mapped breadth-first from the smallest label; a point's
    candidate images are the unused points collinear with the images of its
    mapped neighbours and with no other mapped image, tried in label order.
    Each map is a new dict whose keys follow the search order.
    """
    if len(a.points) != len(b.points) or len(a.lines) != len(b.lines):
        return
    ca, cb = compile_structure(a), compile_structure(b)
    # the one premise of _backtrack's pruning: equal sorted degrees give a
    # and b as many collinear pairs, so a bijection that sends collinear
    # pairs to collinear pairs sends the other pairs onto the other pairs too,
    # and a partial map that sends a non-collinear pair to a collinear one
    # has no completion
    if sorted(ca.degrees) != sorted(cb.degrees):
        return
    order, earlier = _search_plan(ca)
    keys = [ca.labels[p] for p in order]
    for images in _backtrack(earlier, cb):
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


# kind is "tangent" (a cone), "gq22" (order (2,2)) or "neither"
HyperplaneSection = namedtuple("HyperplaneSection", "axis kind n_points n_lines")

SurveySummary = namedtuple("SurveySummary", "tangent nondegenerate sections all_gq22_pass")


def _sections(axes: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(axis, points, lines) for each of at most 64 axes: the masks of the
    quadric model's point indices perpendicular to the axis and of its
    compiled lines inside them.  The transposed perp masks give each point
    its sections, the AND of those of a line's points the sections that
    keep it, and a transpose of each the masks per section."""
    quad = elliptic_quadric()
    c = compile_structure(build_quadric_quadrangle())
    by_vector = transposed([quad & perp_hyperplane(axis) for axis in axes])
    lanes = [by_vector[parse_bits6(label)] for label in c.labels]
    kept = transposed([lanes[x] & lanes[y] & lanes[z] for x, y, z in c.lines])
    return zip(axes, transposed(lanes), kept)


def quadric_section(axis: int) -> IncidenceStructure:
    """Incidence structure on the quadric points inside the hyperplane of axis."""
    ((_, held, kept),) = _sections([axis])
    c = compile_structure(build_quadric_quadrangle())
    lines = [tuple(c.labels[i] for i in c.lines[j]) for j in bit_indices(kept)]
    return make_structure(f"section-{bits6(axis)}", [c.labels[i] for i in bit_indices(held)], lines)


def hyperplane_section_survey() -> SurveySummary:
    """Classify all 63 hyperplane sections of the 27-point quadric.

    Each section is decided on the quadric model's compiled lines inside
    it, its adjacency read from those lines alone.  It is "tangent" if it
    is a cone, 11 points on 5 lines through the axis, and "gq22" if its 15
    points and 15 lines pass the (2,2) axioms, all such candidates in one
    call of the axiom core.  all_gq22_pass is False if an axis off the
    quadric does not cut a "gq22" section.
    """
    quad = elliptic_quadric()
    c = compile_structure(build_quadric_quadrangle())
    found = list(_sections(range(1, 64)))
    sizes = [(held.bit_count(), kept.bit_count()) for _, held, kept in found]
    candidates = [a for a, size in enumerate(sizes) if size == (15, 15)]
    orders = dict(zip(candidates, _gq_order(c, [found[a][1:] for a in candidates])))
    apex = {label: 1 << i for i, label in enumerate(c.labels)}  # an axis's own point bit
    sections = []
    for a, ((axis, _, kept), (n_points, n_lines)) in enumerate(zip(found, sizes)):
        name, kind = bits6(axis), "gq22" if orders.get(a) == (2, 2) else "neither"
        if n_points == 11 and n_lines == 5:
            common, covered = -1, 0
            while kept:
                mask = c.line_points[(kept & -kept).bit_length() - 1]
                common, covered, kept = common & mask, covered | mask, kept & kept - 1
            # all 11 points on the 5 lines, whose common points are the axis alone
            if covered.bit_count() == 11 and common == apex.get(name):
                kind = "tangent"
        sections.append(HyperplaneSection(name, kind, n_points, n_lines))
    all_pass = all(s.kind == "gq22" or quad >> axis & 1 for s, (axis, _, _) in zip(sections, found))
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
