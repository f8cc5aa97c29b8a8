"""The plane representation: quadrangle points as planes (X|1) in PG(5,2).

A plane is the row space of a rank-3 binary 3x6 matrix; its canonical form
is the reduced row echelon form, packed as a tuple of three 6-bit rows
(leftmost column = highest bit).  The left block of a row lives in bits
5..3, the right block in bits 2..0.  The echelon tuple is kept as the
identity of a plane (hashable, comparable, and exported as the echelon
field); meets are computed on the plane's 64-bit point mask instead (see
gqlab.pg): bit v is set iff the vector v lies in the plane, zero included,
so two planes share ``popcount(mask(p) & mask(q)) = 2**dim`` vectors.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from typing import Iterable, NamedTuple

from gqlab.atlas import MatrixClass, WrongClassError, atlas, classify, label_key, label_of
from gqlab.gf2 import (
    SYM_IDENTITY,
    bits6,
    det3,
    inverse3,
    mat_mul,
    mat_rank,
    mat_row,
    mat_to_sym,
    row_times_mat,
    rref,
    sym_to_mat,
)
from gqlab.pg import minor_coordinates, point_mask
from gqlab.quadrangle import IncidenceStructure, build_matrix_quadrangle, make_structure

Plane = tuple[int, int, int]

COLUMN_TRIPLES = tuple(combinations(range(6), 3))


def make_plane(rows: Iterable[int]) -> Plane:
    """Canonical (reduced row echelon) form of a plane; requires rank 3."""
    basis = rref(rows)
    if len(basis) != 3:
        raise ValueError(f"rows span dimension {len(basis)}, not a plane")
    return basis


def raw_plane_rows(m: int) -> tuple[int, int, int]:
    """The rows (row_i(X) | e_i) of the 3x6 matrix (X|1) for a Mat3."""
    return tuple(mat_row(m, i) << 3 | (4 >> i) for i in range(3))


def plane_of_mat(m: int) -> Plane:
    return make_plane(raw_plane_rows(m))


@cache
def plane_of(x: int) -> Plane:
    """The plane (X|1) of a packed SymMat3."""
    return plane_of_mat(sym_to_mat(x))


PLANE_LEFT: Plane = (0b100000, 0b010000, 0b001000)
PLANE_RIGHT: Plane = (0b000100, 0b000010, 0b000001)
PLANE_DIAGONAL: Plane = (0b100100, 0b010010, 0b001001)

DISTINGUISHED = {PLANE_LEFT: "(1|0)", PLANE_RIGHT: "(0|1)", PLANE_DIAGONAL: "(1|1)"}


def plane_points(p: Plane) -> frozenset[int]:
    """The 7 nonzero vectors of the row space."""
    r0, r1, r2 = p
    return frozenset((r0, r1, r2, r0 ^ r1, r0 ^ r2, r1 ^ r2, r0 ^ r1 ^ r2))


@cache
def plane_mask(p: Plane) -> int:
    """The point mask of the row space, zero vector included."""
    return point_mask(plane_points(p)) | 1


def intersection_dim(p: Plane, q: Plane) -> int:
    """Vector-space dimension of the intersection of two planes."""
    return (plane_mask(p) & plane_mask(q)).bit_count().bit_length() - 1


def is_skew(p: Plane, q: Plane) -> bool:
    return intersection_dim(p, q) == 0


def symplectic_product(r1: int, r2: int) -> int:
    """The alternating form <(u,v),(u',v')> = u.v' + u'.v on split rows."""
    u1, v1 = r1 >> 3, r1 & 7
    u2, v2 = r2 >> 3, r2 & 7
    return ((u1 & v2).bit_count() + (u2 & v1).bit_count()) & 1


def is_totally_isotropic(p: Plane) -> bool:
    r0, r1, r2 = p
    return (
        symplectic_product(r0, r1) == 0
        and symplectic_product(r0, r2) == 0
        and symplectic_product(r1, r2) == 0
    )


@cache
def family_planes() -> dict[str, Plane]:
    """Label -> plane (X|1) for the 27 quadrangle matrices."""
    return {label_of(x): plane_of(x) for x in atlas().points}


def class_planes(tag: str) -> tuple[Plane, ...]:
    at = atlas()
    if tag == "D":
        members = at.d
    elif tag == "U":
        members = at.u
    elif tag == "V":
        members = at.v
    else:
        raise ValueError(f"unknown class {tag!r}")
    return tuple(plane_of(x) for x in members)


def spread(tag: str) -> tuple[Plane, ...]:
    """The nine planes (1|0), (0|1), (1|1) plus one eigenvalue-free class."""
    if tag not in ("U", "V"):
        raise ValueError(f"spreads exist for the classes U and V, not {tag!r}")
    return (PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL) + class_planes(tag)


def plane_minor(rows: tuple[int, int, int], cols: tuple[int, int, int]) -> int:
    """3x3 minor of a 3x6 matrix at the given columns (0-based from the left)."""
    m = 0
    for r in range(3):
        for k, c in enumerate(cols):
            m |= (rows[r] >> (5 - c) & 1) << (8 - 3 * r - k)
    return det3(m)


def minor_profiles() -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Column triple -> the minor of (X|1) as a function of the 27 matrices."""
    rows = [raw_plane_rows(sym_to_mat(x)) for x in atlas().points]
    return {cols: tuple(plane_minor(r, cols) for r in rows) for cols in COLUMN_TRIPLES}


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
    at = atlas()
    if tag == "U":
        return (SYM_IDENTITY,) + at.u
    if tag == "V":
        return (SYM_IDENTITY,) + at.v
    raise ValueError(f"unknown group tag {tag!r}")


def conjugate(u: int, x: int) -> int:
    """U*X*U for packed symmetric matrices; symmetric by Jordan closure."""
    um, xm = sym_to_mat(u), sym_to_mat(x)
    return mat_to_sym(mat_mul(mat_mul(um, xm), um))


class OrbitDecomposition(NamedTuple):
    group: str
    orbits: tuple[tuple[str, ...], ...]


def group_orbits(tag: str) -> OrbitDecomposition:
    """Orbits of X -> UXU on the 21 matrices outside the acting group."""
    at = atlas()
    domain = at.d + (at.v if tag == "U" else at.u)
    group = conjugating_group(tag)
    seen: set[int] = set()
    orbits = []
    for x in domain:
        if x in seen:
            continue
        orbit = {conjugate(g, x) for g in group}
        seen |= orbit
        orbits.append(tuple(sorted((label_of(m) for m in orbit), key=label_key)))
    return OrbitDecomposition(tag, tuple(orbits))


@cache
def _block_collineation(u: int) -> tuple[int, int]:
    """The blocks (U, U^-1) of the collineation attached to u."""
    um = sym_to_mat(u)
    return um, inverse3(um)


def collineation_action(u: int, p: Plane) -> Plane:
    """Image of a plane under the block-diagonal collineation (U, U^-1)."""
    um, uinv = _block_collineation(u)
    rows = [row_times_mat(r >> 3, um) << 3 | row_times_mat(r & 7, uinv) for r in p]
    return make_plane(rows)


class MeetProfile(NamedTuple):
    label: str
    versus: str
    points: int
    lines: int
    skew: int


def intersection_statistics(x: int, versus: str | None = None) -> MeetProfile:
    """How (X|1) meets the six planes of one eigenvalue-free class.

    Returns the counts of point-meets, line-meets and skew pairs; by
    default the class opposite to x (U for x in D or V, V for x in U).
    """
    cls = classify(x)
    if cls not in (MatrixClass.D, MatrixClass.U, MatrixClass.V):
        raise WrongClassError("statistics are defined for the 27 quadrangle points")
    if versus is None:
        versus = "V" if cls is MatrixClass.U else "U"
    if versus not in ("U", "V"):
        raise ValueError(f"unknown class {versus!r}")
    if cls.value == versus:
        raise WrongClassError(f"{label_of(x)} lies in the class it is measured against")
    mine = plane_of(x)
    points = lines = skew = 0
    for other in class_planes(versus):
        dim = intersection_dim(mine, other)
        if dim == 0:
            skew += 1
        elif dim == 1:
            points += 1
        elif dim == 2:
            lines += 1
    return MeetProfile(label_of(x), versus, points, lines, skew)


def skew_partner(x: int) -> int:
    """The unique matrix of the opposite eigenvalue-free class whose plane
    is skew to (X|1)."""
    cls = classify(x)
    if cls is MatrixClass.U:
        pool = atlas().v
    elif cls is MatrixClass.V:
        pool = atlas().u
    else:
        raise WrongClassError("skew partners pair the classes U and V")
    mine = plane_of(x)
    partners = [y for y in pool if is_skew(mine, plane_of(y))]
    if len(partners) != 1:
        raise ValueError(f"{label_of(x)} has {len(partners)} skew partners")
    return partners[0]


@cache
def build_plane_model() -> IncidenceStructure:
    """The translated model: points are the planes (Y|1) with Y = X + 1,
    X a quadrangle matrix; labels are the 6-bit strings of Y."""
    source = build_matrix_quadrangle()
    relabel = {label_of(x): bits6(x ^ SYM_IDENTITY) for x in atlas().points}
    points = [relabel[p] for p in source.points]
    lines = [tuple(relabel[p] for p in line) for line in source.lines]
    return make_structure("planes", points, lines)


def rank_meet_identity_holds() -> bool:
    """rank(X+Y) + dim((X|1) cap (Y|1)) = 3 over all symmetric pairs.

    The rank comes from row reduction, the meet from the plane masks.
    """
    ranks = [mat_rank(sym_to_mat(s)) for s in range(64)]
    planes = [plane_of(x) for x in range(64)]
    for x in range(64):
        for y in range(64):
            if ranks[x ^ y] + intersection_dim(planes[x], planes[y]) != 3:
                return False
    return True


__all__ = [
    "COLUMN_TRIPLES",
    "DISTINGUISHED",
    "MeetProfile",
    "OrbitDecomposition",
    "PLANE_DIAGONAL",
    "PLANE_LEFT",
    "PLANE_RIGHT",
    "Plane",
    "build_plane_model",
    "class_planes",
    "collineation_action",
    "conjugate",
    "conjugating_group",
    "family_planes",
    "group_orbits",
    "intersection_dim",
    "intersection_statistics",
    "is_skew",
    "is_totally_isotropic",
    "make_plane",
    "minor_profiles",
    "plane_mask",
    "plane_minor",
    "plane_of",
    "plane_of_mat",
    "plane_points",
    "plucker_unique_triples",
    "rank_meet_identity_holds",
    "raw_plane_rows",
    "skew_partner",
    "spread",
    "symplectic_product",
]
