"""PG(5,2), its quadrics, and the coordinate change that makes det quadratic.

Points of PG(5,2) are the 63 nonzero GfVec6 values.  A symmetric matrix X
enters the space through ``minor_coordinates``: the six 3x3 minors of the
3x6 matrix (X|1) that determine X uniquely, namely the diagonal entries of
X interleaved with their complementary 2x2 minors.  In these coordinates
the determinant becomes the hyperbolic quadratic form
``x1*x2 + x3*x4 + x5*x6``.

The coordinate map is a bijection but not linear, so the space carries two
different line structures on the same 63 points: XOR of coordinate vectors
(used for quadrics, perpendicularity and everything quadrangle-shaped) and
XOR of packed matrices (plain matrix addition, used by the translation
``x -> x + m`` and the tangent-line statements attached to it).  Functions
below say which one they use.

A point set can be written as a 64-bit point mask: bit ``v`` is set iff the
vector ``v`` is in the set (gqlab.planes meets planes this way).  Lines and
planes inside a point set are found through per-point incidence masks
instead: bit ``i`` of ``lines_through()[v]`` is set iff ``pg_lines()[i]``
contains ``v``, and ``planes_through()`` does the same for ``pg_planes()``.
A subspace lies in a point set P iff it misses every point outside P, so
``lines_in(P)`` ORs the incidence masks of the points outside P and reads
the clear bits out in ascending order, which is the order of ``pg_lines()``
and ``pg_planes()``, the public point-tuple forms.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, FrozenSet, Iterable

from gqlab.gf2 import SYM_IDENTITY, sym_det, sym_entries

ALL_ONES = 0b111111

PgLine = tuple[int, int, int]


class UndefinedAtCenterError(ValueError):
    """The translation by m is not defined at the point m itself."""


def minor_coordinates(x: int) -> int:
    """Coordinates (X11, cof11, X22, cof22, X33, cof33) of a SymMat3.

    cofkk is the 2x2 minor of X complementary to the diagonal entry Xkk.
    Bijective on all 64 values.
    """
    a, b, c, d, e, f = sym_entries(x)
    v1, v2, v3, v4, v5, v6 = a, e ^ d & f, d, c ^ a & f, f, b ^ a & d
    return v1 << 5 | v2 << 4 | v3 << 3 | v4 << 2 | v5 << 1 | v6


def from_minor_coordinates(v: int) -> int:
    """Inverse of minor_coordinates by back-substitution."""
    v1, v2, v3, v4, v5, v6 = (v >> 5 & 1, v >> 4 & 1, v >> 3 & 1, v >> 2 & 1, v >> 1 & 1, v & 1)
    a, d, f = v1, v3, v5
    e = v2 ^ d & f
    c = v4 ^ a & f
    b = v6 ^ a & d
    return a << 5 | b << 4 | c << 3 | d << 2 | e << 1 | f


def hyperbolic_form(v: int) -> int:
    """x1*x2 + x3*x4 + x5*x6, the quadratic form of Witt index 3."""
    return ((v >> 5) & (v >> 4) ^ (v >> 3) & (v >> 2) ^ (v >> 1) & v) & 1


def polar_form(x: int, y: int) -> int:
    """The symmetric bilinear form shared by every quadratic form here."""
    return (
        (x >> 5) & (y >> 4)
        ^ (x >> 4) & (y >> 5)
        ^ (x >> 3) & (y >> 2)
        ^ (x >> 2) & (y >> 3)
        ^ (x >> 1) & (y & 1)
        ^ (x & 1) & (y >> 1)
    ) & 1


def _shifted_form(center: int, v: int) -> int:
    """hyperbolic_form(v) + polar_form(v, center), for a coordinate vector center."""
    return hyperbolic_form(v) ^ polar_form(v, center)


def elliptic_form(v: int) -> int:
    """The form whose quadric has 27 points and projective index 1."""
    return _shifted_form(ALL_ONES, v)


def elliptic_form_at(m: int, v: int) -> int:
    """Member of the quadric family attached to the matrix point m."""
    return _shifted_form(minor_coordinates(m), v)


def elliptic_form_sym(x: int) -> int:
    """Matrix-side evaluation: det(X + 1) + 1."""
    return sym_det(x ^ SYM_IDENTITY) ^ 1


def elliptic_form_sym_at(m: int, x: int) -> int:
    """Matrix-side evaluation: det(X + M) + 1."""
    return sym_det(x ^ m) ^ 1


def pg_points() -> range:
    return range(1, 64)


@cache
def pg_lines() -> tuple[PgLine, ...]:
    """All 651 lines of PG(5,2) as ascending coordinate-XOR triples."""
    out = []
    for x in range(1, 64):
        for y in range(x + 1, 64):
            z = x ^ y
            if z > y:
                out.append((x, y, z))
    return tuple(out)


def point_mask(points: Iterable[int]) -> int:
    """The point mask of a set of vectors: bit v set iff v is in the set."""
    mask = 0
    for v in points:
        mask |= 1 << v
    return mask


@cache
def pg_planes() -> tuple[tuple[int, ...], ...]:
    """All 1395 planes of PG(5,2) as sorted 7-point tuples.

    Each plane is generated once, from its two smallest points x < y and
    the smallest point z off their line.  That z exceeds y and is smaller
    than z + x and z + y, which also rules out z = x + y; z < z + x + y
    then follows, since x + y has the leading bit of y.
    """
    out = []
    for x, y, z0 in pg_lines():
        for z in range(y + 1, 64):
            if z < z ^ x and z < z ^ y:
                out.append(tuple(sorted((x, y, z0, z, z ^ x, z ^ y, z ^ z0))))
    out.sort()
    return tuple(out)


def _incidence_masks(subspaces: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    masks = [0] * 64
    for i, subspace in enumerate(subspaces):
        bit = 1 << i
        for v in subspace:
            masks[v] |= bit
    return tuple(masks)


@cache
def lines_through() -> tuple[int, ...]:
    """Per-point incidence masks of pg_lines(); entry 0 is 0."""
    return _incidence_masks(pg_lines())


@cache
def planes_through() -> tuple[int, ...]:
    """Per-point incidence masks of pg_planes(); entry 0 is 0."""
    return _incidence_masks(pg_planes())


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative int, ascending.

    Raises ValueError on a negative mask, whose set bits never run out.
    """
    if mask < 0:
        raise ValueError(f"bit_indices needs a nonnegative mask, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subspaces_in(subspaces: tuple, through: tuple[int, ...], points: Iterable[int]) -> tuple:
    pts = frozenset(points)
    hit = 0
    for v in range(1, 64):
        if v not in pts:
            hit |= through[v]
    return tuple([subspaces[i] for i in bit_indices(~hit & ((1 << len(subspaces)) - 1))])


def lines_in(points: Iterable[int]) -> tuple[PgLine, ...]:
    """All PG(5,2) lines entirely inside the given point set."""
    return _subspaces_in(pg_lines(), lines_through(), points)


def planes_in(points: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    return _subspaces_in(pg_planes(), planes_through(), points)


def projective_index(points: Iterable[int]) -> int:
    """Largest dimension of a projective subspace inside the point set.

    Searched exhaustively over the 1395 planes and 651 lines; -1 for the
    empty set.
    """
    pts = frozenset(points)
    if not pts:
        return -1
    if planes_in(pts):
        return 2
    if lines_in(pts):
        return 1
    return 0


def quadric_points(form: Callable[[int], int]) -> FrozenSet[int]:
    """Zero set of a quadratic form among the 63 points."""
    return frozenset(v for v in range(1, 64) if form(v) == 0)


@cache
def klein_quadric() -> FrozenSet[int]:
    """The 35-point quadric of the hyperbolic form."""
    return quadric_points(hyperbolic_form)


@cache
def elliptic_quadric() -> FrozenSet[int]:
    """The 27-point quadric; its coordinate preimages are X with det(X+1)=1."""
    return quadric_points(elliptic_form)


def elliptic_quadric_at(m: int) -> FrozenSet[int]:
    """The quadric of elliptic_form_at(m, .)."""
    center = minor_coordinates(m)
    return quadric_points(lambda v: _shifted_form(center, v))


@cache
def klein_matrix_points() -> FrozenSet[int]:
    """Matrix picture of the hyperbolic quadric: the 35 nonzero singular X."""
    return frozenset(s for s in range(1, 64) if sym_det(s) == 0)


@cache
def elliptic_matrix_points() -> FrozenSet[int]:
    """Matrix picture of the 27-point quadric: nonzero X with det(X+1) = 1."""
    return frozenset(s for s in range(1, 64) if elliptic_form_sym(s) == 0)


def elliptic_matrix_points_at(m: int) -> FrozenSet[int]:
    return frozenset(s for s in range(1, 64) if elliptic_form_sym_at(m, s) == 0)


def perp_hyperplane(p: int) -> FrozenSet[int]:
    """The 31 points perpendicular to p under the polar form."""
    if p == 0:
        raise ValueError("perpendicular hyperplane needs a nonzero point")
    return frozenset(x for x in range(1, 64) if polar_form(x, p) == 0)


def translate(x: int, m: int = SYM_IDENTITY) -> int:
    """Matrix translation x -> x + m; the third point on the matrix line
    joining x and m.  Undefined at x = m, which would land on 0."""
    if x == m:
        raise UndefinedAtCenterError(f"translation by {m:06b} is undefined at {x:06b}")
    return x ^ m


def matrix_lines_through(x: int) -> tuple[frozenset[int], ...]:
    """The 31 matrix-addition lines {x, a, x+a} through a matrix point.

    These are lines for XOR of packed matrices.  The coordinate map is not
    linear, so they differ from the coordinate-XOR lines in pg_lines().
    """
    seen = set()
    for a in range(1, 64):
        if a != x:
            seen.add(frozenset((x, a, x ^ a)))
    return tuple(sorted(seen, key=sorted))


def tangent_matrix_lines_at_identity(quadric_syms: FrozenSet[int]) -> tuple[frozenset[int], ...]:
    """Matrix lines through the identity meeting the given matrix point set
    exactly once."""
    return tuple(
        line for line in matrix_lines_through(SYM_IDENTITY) if len(line & quadric_syms) == 1
    )
