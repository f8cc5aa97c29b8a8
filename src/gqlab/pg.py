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

Every point set is a 64-bit point mask: bit ``v`` is set iff the point
``v`` is in the set, so bit 0 (the zero vector) is never set and every
mask lies inside ``ALL_POINTS``; the functions that take a point set
raise ``ValueError`` on any other int.  ``bit_indices`` lists a mask's
points in ascending order where labels or exports need them.  ``lines_in``
finds the lines inside one point set, or inside each of up to 64, in one
pass over ``pg_lines()`` on transposed point lanes: lane ``v`` of
``transposed(masks)`` has bit ``j`` set iff point ``v`` is in ``masks[j]``,
so the AND of the lanes of a line's three points says which sets hold that
line, and each set gets its lines in ``pg_lines()`` order.
A plane lies in P iff some line (x, y, z) inside P has a point w of P off
it with w + x, w + y and w + z in P, which one AND of four translates of P
decides per line: ``projective_index`` asks whether any such w exists, and
``planes_in`` lists each plane once from the w it allows.

A form is evaluated once per vector, into a 64-bit value table: bit ``v``
of a value table is the form at ``v``, for all 64 vectors ``v`` including
0.  ``hyperbolic_table()`` and ``det_table()`` hold the hyperbolic form and
``sym_det``, ``polar_column(y)`` holds ``polar_form(x, y)`` at bit ``x``,
and ``coordinates()[x]`` is ``minor_coordinates(x)``.  Each is built from
its scalar kernel on first use and cached, one polar column per centre.  A
quadric is then the complement of a value table within ``ALL_POINTS``, not
cached over its cached table, and ``translate_mask`` moves a table by XOR:
bit ``x`` of ``translate_mask(t, m)`` is bit ``x + m`` of ``t``;
``translates(t)`` lists all 64 translates, made by six block swaps on the
packed word, and ``polarized(t)`` reads that word as the packed polar table
of the form t.

Each member Q_M of the 28-form family over invertible m is read from its
value table ``elliptic_table(m)``.  The paper's form Q is Q_1, the identity
member, since ``ALL_ONES`` is ``coordinates()[SYM_IDENTITY]``.

A 64x64 bit matrix, such as 64 point masks, is packed into one 4096-bit int
with row ``y`` at bits 64y..64y+63 (``pack``, ``rows``); ``transpose`` and its
rows, ``transposed``, turn 64 masks into one mask per bit position, one bit per mask.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Sequence
from functools import cache

from gqlab.gf2 import SYM_IDENTITY, require_sym, sym_det, sym_entries

ALL_ONES = 0b111111
ALL_POINTS = (1 << 64) - 2  # the point mask of all 63 points

PgLine = tuple[int, int, int]


def minor_coordinates(x: int) -> int:
    """Coordinates (X11, cof11, X22, cof22, X33, cof33) of a SymMat3.

    cofkk is the 2x2 minor of X complementary to the diagonal entry Xkk.
    Bijective on all 64 values.
    """
    if not 0 <= x < 64:
        require_sym(x)
    a, b, c, d, e, f = sym_entries(x)
    v1, v2, v3, v4, v5, v6 = a, e ^ d & f, d, c ^ a & f, f, b ^ a & d
    return v1 << 5 | v2 << 4 | v3 << 3 | v4 << 2 | v5 << 1 | v6


def from_minor_coordinates(v: int) -> int:
    """Inverse of minor_coordinates by back-substitution."""
    if not 0 <= v < 64:
        require_sym(v)
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
    # x1*y2 + x2*y1 + ...: the parity of x AND y with y's coordinate pairs swapped
    return (x & (y >> 1 & 0b010101 | (y & 0b010101) << 1)).bit_count() & 1


def value_table(form: Callable[[int], int]) -> int:
    """The 64-bit value table of a 0/1-valued form: bit v is form(v)."""
    table = 0
    for v in range(64):
        if form(v):
            table |= 1 << v
    return table


@cache
def coordinates() -> tuple[int, ...]:
    """minor_coordinates(x) for all 64 SymMat3 values x, indexed by x."""
    return tuple(minor_coordinates(x) for x in range(64))


@cache
def hyperbolic_table() -> int:
    """Value table of hyperbolic_form."""
    return value_table(hyperbolic_form)


@cache
def det_table() -> int:
    """Value table of sym_det, indexed by the packed matrix."""
    return value_table(sym_det)


@cache
def polar_column(y: int) -> int:
    """Value table of polar_form(., y): bit x is polar_form(x, y)."""
    if not 0 <= y < 64:
        raise ValueError(f"a vector is an int in 0..63, got {y}")
    column = 0
    for x in range(64):
        if polar_form(x, y):
            column |= 1 << x
    return column


# bit y of _LOW_HALVES[k] is set iff bit k of y is clear
_LOW_HALVES = (
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
)


_ALL_64 = (1 << 64) - 1


def pack(entries: Sequence[int]) -> int:
    """64-bit entries as one int, entry y at bits 64y..64y+63 as row y;
    ValueError names the first entry outside 0..2**64-1."""
    try:
        return int.from_bytes(struct.pack(f"<{len(entries)}Q", *entries), "little")
    except struct.error:
        bad = next(e for e in entries if not (isinstance(e, int) and 0 <= e < 1 << 64))
        raise ValueError(f"a 64-bit row is an int in 0..2**64-1, got {bad!r}") from None


def rows(packed: int) -> tuple[int, ...]:
    """The 64 rows of a packed 64x64 bit matrix, the inverse of pack."""
    return struct.unpack("<64Q", packed.to_bytes(512, "little"))


# swap k of transpose trades bit k of the row for bit k of the column: it moves
# the columns with bit k set, in every row with bit k clear, up by 63 * 2^k
_TRANSPOSE_SWAPS = [
    (63 << k, (_ALL_64 ^ low) * pack([~y >> k & 1 for y in range(64)]))
    for k, low in enumerate(_LOW_HALVES)
]


def transpose(packed: int) -> int:
    """The packed 64x64 bit matrix whose bit 64x + y is bit 64y + x of packed,
    by six delta swaps (Warren, Hacker's Delight, 2nd ed., 2012, 7-3)."""
    for delta, mask in _TRANSPOSE_SWAPS:
        swap = (packed ^ packed >> delta) & mask
        packed ^= swap ^ swap << delta
    return packed


def transposed(entries: Sequence[int]) -> tuple[int, ...]:
    """rows(transpose(pack(entries))) for at most 64 entries; ValueError on more."""
    if len(entries) > 64:
        raise ValueError(f"a 64x64 bit matrix has at most 64 rows, got {len(entries)}")
    return rows(transpose(pack(entries)))


def translate_mask(table: int, m: int) -> int:
    """The 64-bit table whose bit x is bit x + m of table.

    x + m is XOR of the indices, so one swap of the halves of every
    2^k-block for each set bit k of m does it.
    """
    if not 0 <= m < 64:
        require_sym(m)
    for k, low in enumerate(_LOW_HALVES):
        if m >> k & 1:
            width = 1 << k
            table = table >> width & low | (table & low) << width
    return table


_REP = pack([1] * 64)  # times a 64-bit table: one copy of it per row
_PACKED_LOW_HALVES = tuple(low * _REP for low in _LOW_HALVES)


def _packed_translates(table: int) -> int:
    """Packed, row m is translate_mask(table, m).  Row m + 2^k is row m with
    its 2^k-blocks swapped, for m < 2^k: one swap of the packed rows made so
    far, copied up by 2^k rows."""
    packed = table
    for k, low in enumerate(_PACKED_LOW_HALVES):
        width = 1 << k
        packed |= (packed >> width & low | (packed & low) << width) << (64 << k)
    return packed


def translates(table: int) -> tuple[int, ...]:
    """translate_mask(table, m) for all 64 m, indexed by m."""
    return rows(_packed_translates(table))


def polarized(table: int) -> int:
    """Packed: row y has bit x equal to Q(x + y) + Q(x) + Q(y), for the form
    Q of this value table.  Row y of the packed translates is
    translate_mask(table, y); bit 0 of it is Q(y), which the product with
    the all-ones row spreads over the row."""
    packed = _packed_translates(table)
    return packed ^ table * _REP ^ (packed & _REP) * _ALL_64


def elliptic_table(m: int) -> int:
    """Value table of Q_M: hyperbolic_form(v) + polar_form(v, coordinates()[m])."""
    # the _at readers pay one comparison per index; require_sym only raises
    if not 0 <= m < 64:
        require_sym(m)
    return hyperbolic_table() ^ polar_column(coordinates()[m])


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


def _require_point_mask(points: int) -> None:
    if points & ~ALL_POINTS:
        raise ValueError(f"not a point mask inside ALL_POINTS: {points:#x}")


def lines_in(points: int | Sequence[int]) -> tuple[PgLine, ...] | list[tuple[PgLine, ...]]:
    """The PG(5,2) lines inside a point mask, in pg_lines() order; given a
    sequence of up to 64 masks, one such tuple per mask, from one pass.

    Lane v of transposed(masks) has bit j set iff point v is in masks[j], so
    bit j of lanes[x] & lanes[y] & lanes[z] says that masks[j] holds the
    line (x, y, z).  ValueError names the first mask outside ALL_POINTS,
    and more than 64 masks raise transposed's ValueError.
    """
    masks = [points] if isinstance(points, int) else points
    for mask in masks:
        _require_point_mask(mask)
    lanes = transposed(masks)
    found: list[list[PgLine]] = [[] for _ in masks]
    for line in pg_lines():
        x, y, z = line
        held = lanes[x] & lanes[y] & lanes[z]
        while held:
            low = held & -held
            found[low.bit_length() - 1].append(line)
            held ^= low
    if isinstance(points, int):
        return tuple(found[0])
    return [tuple(lines) for lines in found]


def planes_in(points: int) -> tuple[tuple[int, ...], ...]:
    """The PG(5,2) planes inside a point mask as sorted 7-point tuples, in
    ascending order.

    Each plane is found once, from its two smallest points x < y and the
    smallest point w off their line.  That w exceeds y and is smaller than
    w + x and w + y, which also rules out w = x + y; w < w + x + y then
    follows, since x + y has the leading bit of y.  So the lines (x, y, z)
    come in pg_lines() order and the w of each line ascending, which is the
    ascending order of the tuples: two planes through one line first differ
    at their smallest points off it.  A mask outside ALL_POINTS raises the
    ValueError of lines_in.
    """
    lines = lines_in(points)
    shifted = translates(points)
    planes = []
    for x, y, z in lines:
        for w in bit_indices(points & shifted[x] & shifted[y] & shifted[z] & -(2 << y)):
            if w < w ^ x and w < w ^ y:
                planes.append(tuple(sorted((x, y, z, w, w ^ x, w ^ y, w ^ z))))
    return tuple(planes)


@cache
def pg_planes() -> tuple[tuple[int, ...], ...]:
    """All 1395 planes of PG(5,2) as sorted 7-point tuples."""
    return planes_in(ALL_POINTS)


def projective_index(points: int, lines: tuple[PgLine, ...] | None = None) -> int:
    """Largest dimension of a projective subspace inside the point set.

    Searched exhaustively over the lines inside the set, lines_in(points)
    unless the caller has them already; -1 for the empty set.  Each plane
    inside a set P holds an inside line (x, y, z) and a point w off that
    line with w + x, w + y and w + z inside, so bit w of
    P & T[x] & T[y] & T[z], with T = translates(P), finds the plane.  The
    points of the line itself never show there, since bit 0 of a point mask
    is clear.
    """
    if lines is None:
        lines = lines_in(points)
    if not lines:
        return 0 if points else -1
    shifted = translates(points)
    for x, y, z in lines:
        if points & shifted[x] & shifted[y] & shifted[z]:
            return 2
    return 1


def projective_indices(masks: Sequence[int]) -> list[int]:
    """projective_index of each of up to 64 point sets, whose lines are
    found by one lines_in pass."""
    return list(map(projective_index, masks, lines_in(masks)))


def quadric_points(form: Callable[[int], int]) -> int:
    """Point mask of the zero set of a form among the 63 points."""
    return ALL_POINTS & ~value_table(form)


def klein_quadric() -> int:
    """The 35-point quadric of the hyperbolic form."""
    return ALL_POINTS & ~hyperbolic_table()


def elliptic_quadric() -> int:
    """The 27-point quadric; its coordinate preimages are X with det(X+1)=1."""
    return elliptic_quadric_at(SYM_IDENTITY)


def elliptic_quadric_at(m: int) -> int:
    """The zero set of Q_M among the 63 points."""
    return ALL_POINTS & ~elliptic_table(m)


def klein_matrix_points() -> int:
    """Matrix picture of the hyperbolic quadric: the 35 nonzero singular X."""
    return ALL_POINTS & ~det_table()


def elliptic_matrix_points() -> int:
    """Matrix picture of the 27-point quadric: nonzero X with det(X+1) = 1."""
    return elliptic_matrix_points_at(SYM_IDENTITY)


def elliptic_matrix_points_at(m: int) -> int:
    """Nonzero X with det(X + M) = 1: the matrix-side zero set of Q_M, whose
    value at the coordinates of X is det(X + M) + 1."""
    return ALL_POINTS & translate_mask(det_table(), m)


def perp_hyperplane(p: int) -> int:
    """The 31 points perpendicular to p under the polar form."""
    if not 0 < p < 64:
        raise ValueError(f"perpendicular hyperplane needs a point 1..63, got {p}")
    return ALL_POINTS & ~polar_column(p)


def matrix_lines_through(x: int) -> tuple[int, ...]:
    """Point masks of the 31 matrix-addition lines {x, a, x+a} through a
    matrix point, each once, ordered by the smaller of a and x+a.

    These are lines for XOR of packed matrices.  The coordinate map is not
    linear, so they differ from the coordinate-XOR lines in pg_lines().
    """
    return tuple(1 << x | 1 << a | 1 << (x ^ a) for a in range(1, 64) if a < x ^ a)


def tangent_matrix_lines_at_identity(quadric: int) -> tuple[int, ...]:
    """Matrix lines through the identity meeting the given matrix point set
    exactly once."""
    return tuple(
        line for line in matrix_lines_through(SYM_IDENTITY) if (line & quadric).bit_count() == 1
    )
