"""The plane representation: quadrangle points as planes (X|1) in PG(5,2).

A plane is the row space of a rank-3 binary 3x6 matrix, and it is held
as its point mask, the one point-set convention of gqlab.pg: bit v is set
iff the nonzero vector v lies in the plane, so a plane has 7 bits and
bit 0 is never set.  A 6-bit row (leftmost column = highest bit) keeps
its left block in bits 5..3 and its right block in bits 2..0.  Two
planes share 0, 1, 3 or 7 points, and the bit length of that count is
the dimension of their meet.  ``DISTINGUISHED`` is the one table of the
planes (1|0), (0|1), (1|1), plane -> label.  ``echelon`` gives the reduced
row echelon basis of a plane, which the isotropy test reads and the planes
export writes as a distinguished plane's rows.

``plane_of`` reads one table of the 64 planes (X|1), built in one lane pass
over the bit-sliced matrices; ``make_plane`` spans given rows, for the
distinguished planes and for matrices that are not symmetric.
``class_planes`` builds the planes of one class once and caches them for
``intersection_statistics`` and ``spread``.  ``meet_rows`` decides which of
up to 64 planes meet by walking the set bits of each.
``collineation_action`` moves the points of up to 64 planes to their images
under (U, U^-1) with ``pg.relabelled``.  Neither ``family_planes``, a dict
read from ``plane_of``'s cache, nor ``_block_collineation`` is cached: a
cold ``verify`` asks for ``family_planes`` twice and for each u's image
table once.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import combinations

from gqlab.atlas import WrongClassError, atlas, classify, label_key, label_of, opposite
from gqlab.gf2 import (
    SYM_IDENTITY,
    Lanes,
    asymmetric_lanes,
    bits6,
    broadcast_lanes,
    inverse3,
    lanes_mul,
    mat_mul,
    mat_rank,
    mat_row,
    mat_to_sym,
    require_sym,
    row_images,
    rref,
    sym_lanes,
    sym_to_mat,
)
from gqlab.pg import bit_indices, minor_coordinates, point_mask, relabelled, transposed
from gqlab.quadrangle import IncidenceStructure, make_structure, triangles

Plane = int

COLUMN_TRIPLES = tuple(combinations(range(6), 3))


def make_plane(rows: Iterable[int]) -> Plane:
    """The point mask of the span of 6-bit rows; requires rank 3."""
    span = [0]
    for row in rows:
        if row not in span:
            if not 0 < row < 64:
                raise ValueError(f"a 6-bit row is an int in 0..63, got {row}")
            span += [v ^ row for v in span]
    if len(span) != 8:
        raise ValueError(f"rows span dimension {len(span).bit_length() - 1}, not a plane")
    return point_mask(span[1:])


def echelon(p: Plane) -> tuple[int, ...]:
    """The reduced row echelon basis of a plane: three 6-bit rows."""
    return rref(bit_indices(p))


def raw_plane_rows(m: int) -> tuple[int, int, int]:
    """The rows (row_i(X) | e_i) of the 3x6 matrix (X|1) for a Mat3."""
    return tuple(mat_row(m, i) << 3 | (4 >> i) for i in range(3))


def plane_of_mat(m: int) -> Plane:
    return make_plane(raw_plane_rows(m))


@cache
def _all_planes() -> tuple[Plane, ...]:
    """The planes (X|1) of the 64 packed SymMat3, from one lane pass.  The
    plane of X holds the points (v*X | v), v = 1..7.  Over the 64 bit-sliced
    matrices, the lanes of v*X are the XOR of the row lanes that v selects,
    and for each value w the mask of the X with v*X = w is the holder row of
    point w << 3 | v; one transpose turns the 64 holder rows into the planes."""
    lanes = transposed([sym_to_mat(x) for x in range(64)])
    full = (1 << 64) - 1
    # the lanes of bits 2, 1 and 0 of rows 2, 1 and 0, which bits 0, 1 and 2 of v select
    row_lanes = [(lanes[b + 2], lanes[b + 1], lanes[b]) for b in (0, 3, 6)]
    holders = [0] * 64
    for v in range(1, 8):
        hi = mid = lo = 0
        for k, (x2, x1, x0) in enumerate(row_lanes):
            if v >> k & 1:
                hi, mid, lo = hi ^ x2, mid ^ x1, lo ^ x0
        for w in range(8):
            holders[w << 3 | v] = (
                (hi if w & 4 else full ^ hi)
                & (mid if w & 2 else full ^ mid)
                & (lo if w & 1 else full ^ lo)
            )
    return transposed(holders)


@cache
def plane_of(x: int) -> Plane:
    """The plane (X|1) of a packed SymMat3, read from the table of all 64."""
    require_sym(x)
    return _all_planes()[x]


PLANE_LEFT: Plane = make_plane((0b100000, 0b010000, 0b001000))
PLANE_RIGHT: Plane = make_plane((0b000100, 0b000010, 0b000001))
PLANE_DIAGONAL: Plane = make_plane((0b100100, 0b010010, 0b001001))

DISTINGUISHED = {PLANE_LEFT: "(1|0)", PLANE_RIGHT: "(0|1)", PLANE_DIAGONAL: "(1|1)"}


def intersection_dim(p: Plane, q: Plane) -> int:
    """Vector-space dimension of the intersection of two planes."""
    return (p & q).bit_count().bit_length()


def is_skew(p: Plane, q: Plane) -> bool:
    return not p & q


def meet_rows(planes: Sequence[Plane]) -> list[int]:
    """Bit j of entry i is set iff planes[i] and planes[j] meet, for up to 64
    planes: the OR of the transposed rows of plane i's points, bit j of the
    row of point v set iff planes[j] holds v."""
    holders = transposed(planes)
    rows = []
    for p in planes:
        row = 0
        while p:
            low = p & -p
            row |= holders[low.bit_length() - 1]
            p ^= low
        rows.append(row)
    return rows


def symplectic_product(r1: int, r2: int) -> int:
    """The alternating form <(u,v),(u',v')> = u.v' + u'.v on split rows."""
    u1, v1 = r1 >> 3, r1 & 7
    u2, v2 = r2 >> 3, r2 & 7
    return ((u1 & v2).bit_count() + (u2 & v1).bit_count()) & 1


def is_totally_isotropic(p: Plane) -> bool:
    r0, r1, r2 = echelon(p)
    return (
        symplectic_product(r0, r1) == 0
        and symplectic_product(r0, r2) == 0
        and symplectic_product(r1, r2) == 0
    )


def family_planes() -> dict[str, Plane]:
    """Label -> plane (X|1) for the 27 quadrangle matrices."""
    return {label_of(x): plane_of(x) for x in atlas().points}


@cache
def class_planes(tag: str) -> tuple[Plane, ...]:
    """The planes (X|1) of the class "D", "U" or "V", in label order."""
    return tuple(plane_of(x) for x in atlas().members(tag))


def spread(tag: str) -> tuple[Plane, ...]:
    """The nine planes (1|0), (0|1), (1|1) plus one eigenvalue-free class."""
    opposite(tag)  # raises WrongClassError unless tag is U or V
    return tuple(DISTINGUISHED) + class_planes(tag)


def minor_lanes(row_sets: Sequence[tuple[int, int, int]]) -> dict[tuple[int, int, int], int]:
    """Column triple (0-based from the left) -> its 3x3 minor of up to 64 3x6
    matrices, bit k for the rows row_sets[k].  Packed as r0 << 12 | r1 << 6 | r2
    and transposed, entry (r, c) of every matrix is lane 6 * (2 - r) + 5 - c."""
    lanes = transposed([r0 << 12 | r1 << 6 | r2 for r0, r1, r2 in row_sets])
    out = {}
    for cols in COLUMN_TRIPLES:
        (a, b, c), (d, e, f), (g, h, i) = ([lanes[at + 5 - k] for k in cols] for at in (12, 6, 0))
        out[cols] = a & (e & i ^ f & h) ^ b & (d & i ^ f & g) ^ c & (d & h ^ e & g)
    return out


def minor_profiles() -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Column triple -> the minor of (X|1) as a function of the 27 matrices."""
    points = atlas().points
    lanes = minor_lanes([raw_plane_rows(sym_to_mat(x)) for x in points])
    return {cols: tuple(lane >> k & 1 for k in range(len(points))) for cols, lane in lanes.items()}


def plucker_unique_triples(
    profiles: dict[tuple[int, int, int], tuple[int, ...]],
) -> tuple[tuple[int, int, int], ...]:
    """The six column triples whose minor occurs exactly once among the 20,
    ordered to match minor_coordinates.  Derived by brute force from the
    given minor_profiles()."""
    coords = [minor_coordinates(x) for x in atlas().points]
    counts = Counter(profiles.values())
    unique = [cols for cols in COLUMN_TRIPLES if counts[profiles[cols]] == 1]
    ordered = []
    for k in range(6):
        target = tuple(c >> (5 - k) & 1 for c in coords)
        matches = [cols for cols in unique if profiles[cols] == target]
        if len(matches) != 1:
            raise ValueError(f"coordinate {k + 1} matched {len(matches)} unique minors")
        ordered.append(matches[0])
    return tuple(ordered)


def conjugating_group(tag: str) -> tuple[int, ...]:
    """The order-7 group {1} + U (tag "U") or {1} + V (tag "V")."""
    opposite(tag)  # raises WrongClassError unless tag is U or V
    return (SYM_IDENTITY,) + atlas().members(tag)


def conjugate(u: int, x: int) -> int:
    """U*X*U for packed symmetric matrices; symmetric by Jordan closure."""
    require_sym(u, x)
    um, xm = sym_to_mat(u), sym_to_mat(x)
    return mat_to_sym(mat_mul(mat_mul(um, xm), um))


@cache
def _point_lanes() -> Lanes:
    """The 27 quadrangle matrices bit-sliced, the k-th being atlas().points[k]."""
    return transposed([sym_to_mat(x) for x in atlas().points])[:9]


@cache
def conjugates(u: int) -> tuple[int, ...]:
    """conjugate(u, x) for the 27 quadrangle matrices x, in atlas order: one
    pair of lane products, read back as packed SymMat3 by one transpose of
    their SymMat3 bit lanes; mat_to_sym raises on the lowest asymmetric lane."""
    require_sym(u)
    n = len(atlas().points)
    u_lanes = broadcast_lanes(sym_to_mat(u), n)
    uxu = lanes_mul(lanes_mul(u_lanes, _point_lanes()), u_lanes)
    if asymmetric := asymmetric_lanes(uxu):
        mat_to_sym(transposed(uxu)[(asymmetric & -asymmetric).bit_length() - 1])
    return transposed(sym_lanes(uxu))[:n]


def group_orbits(tag: str) -> tuple[tuple[str, ...], ...]:
    """Orbits of X -> UXU on the 21 matrices outside the acting group."""
    at = atlas()
    domain = at.d + at.members(opposite(tag))
    acts = [dict(zip(at.points, conjugates(g))) for g in conjugating_group(tag)]  # X -> GXG
    seen: set[int] = set()
    orbits = []
    for x in domain:
        if x in seen:
            continue
        orbit = {act[x] for act in acts}
        seen |= orbit
        orbits.append(tuple(sorted((label_of(m) for m in orbit), key=label_key)))
    return tuple(orbits)


def _block_collineation(u: int) -> tuple[int, ...]:
    """Image of each 6-bit row (v|w) under the blocks (U, U^-1) attached to u."""
    require_sym(u)
    um = sym_to_mat(u)
    right = row_images(inverse3(um))
    return tuple(lv << 3 | rw for lv in row_images(um) for rw in right)


def collineation_action(u: int, planes: Sequence[Plane]) -> tuple[Plane, ...]:
    """Images of up to 64 planes under the block-diagonal collineation (U, U^-1):
    each point v of a plane moves to v's image, by pg.relabelled."""
    low = min(planes, default=0)
    if low < 0:
        raise ValueError(f"a plane is a nonnegative point mask, got {low}")
    return relabelled(planes, _block_collineation(u))


MeetProfile = namedtuple("MeetProfile", "versus points lines skew")


def intersection_statistics(x: int, versus: str | None = None) -> MeetProfile:
    """How (X|1) meets the six planes of one eigenvalue-free class.

    Returns the counts of point-meets, line-meets and skew pairs; versus
    must be U or V, by default the class opposite to x (U for x in D).
    """
    cls = classify(x)
    if cls == "identity":
        raise WrongClassError("statistics are defined for the 27 quadrangle points")
    if versus is None:
        versus = "U" if cls == "D" else opposite(cls)
    opposite(versus)  # raises WrongClassError unless versus is U or V
    if cls == versus:
        raise WrongClassError(f"{label_of(x)} lies in the class it is measured against")
    mine = plane_of(x)
    # intersection_dim inlined: the meet's dimension, so a planted 2-point meet reads 2
    dims = [(mine & other).bit_count().bit_length() for other in class_planes(versus)]
    return MeetProfile(versus, dims.count(1), dims.count(2), dims.count(0))


def skew_partner(x: int) -> int:
    """The unique matrix of the opposite eigenvalue-free class whose plane
    is skew to (X|1)."""
    try:
        pool = atlas().members(opposite(classify(x)))
    except WrongClassError as err:
        raise WrongClassError(f"{label_of(x)} is not in U or V, which skew partners pair") from err
    mine = plane_of(x)
    partners = [y for y in pool if is_skew(mine, plane_of(y))]
    if len(partners) != 1:
        raise ValueError(f"{label_of(x)} has {len(partners)} skew partners")
    return partners[0]


@cache
def build_plane_model() -> IncidenceStructure:
    """The translated model: points are the planes (Y|1) with Y = X + 1,
    X a quadrangle matrix, labelled by the 6-bit strings of Y.  Two are
    collinear iff they meet exactly when both or neither are skew to
    (0|1), that is det(Y+Z) + det Y + det Z = 0; the lines are the triangles."""
    ys = sorted(x ^ SYM_IDENTITY for x in atlas().points)
    planes = [plane_of(y) for y in ys]
    skew_right = point_mask(i for i, p in enumerate(planes) if is_skew(p, PLANE_RIGHT))
    meet_right = (1 << len(planes)) - 1 ^ skew_right
    rows = []
    for i, meets in enumerate(meet_rows(planes)):
        # collinear iff the planes meet, flipped where exactly one is skew to (0|1)
        rows.append(meets ^ (meet_right if skew_right >> i & 1 else skew_right) ^ 1 << i)
    labels = [bits6(y) for y in ys]
    return make_structure("planes", labels, triangles(rows, labels))


def rank_meet_identity_holds() -> bool:
    """rank(X+Y) + dim((X|1) cap (Y|1)) = 3 over all 64x64 symmetric pairs,
    the rank by row reduction and the meet from the two point masks.  Both
    terms are symmetric in X and Y, so each unordered pair, y >= x, is read once."""
    ranks = [mat_rank(sym_to_mat(s)) for s in range(64)]
    planes = [plane_of(x) for x in range(64)]
    for x, p in enumerate(planes):
        for y in range(x, 64):
            if ranks[x ^ y] + (p & planes[y]).bit_count().bit_length() != 3:
                return False
    return True
