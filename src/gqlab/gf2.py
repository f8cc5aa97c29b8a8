"""Bit-packed linear algebra over GF(2) for 3x3 matrices and 6-bit vectors.

Packing conventions, fixed for the whole package:

* ``Mat3``: an int of 9 bits, row-major, bit 8 = entry (1,1) down to
  bit 0 = entry (3,3).
* ``SymMat3``: an int of 6 bits ``(a, b, c, d, e, f)`` for the symmetric
  matrix ``[[a, b, c], [b, d, e], [c, e, f]]``, bit 5 = ``a`` down to
  bit 0 = ``f``.  XOR of two packed values is matrix addition.  The
  canonical text form is the bit string ``"abcdef"``.
* ``GfVec6``: an int of 6 bits, bit 5 = first coordinate; text form is the
  bit string of the six coordinates.
* Row vectors of length 3: ints 0..7, bit 2 = first coordinate.
  ``row_images(m)`` lists the 8 products v*m at once, the table that
  ``mat_mul`` inlines; ``row_times_mat`` computes one of them.
* ``Lanes``: many Mat3 at once, bit-sliced: a tuple of 9 ints, lane b
  holding bit b of every matrix, the k-th matrix at bit k.  They are the
  rows of ``gqlab.pg.transposed``: ``transposed(mats)[:9]`` builds them for
  up to 64 matrices and ``transposed(lanes)[k]`` reads the k-th back.

Everything here is a pure function on small ints, so the module is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

from collections.abc import Iterable


class SingularMatrixError(ValueError):
    """Inverse requested for a matrix with determinant 0."""


MAT_IDENTITY = 0b100_010_001
SYM_IDENTITY = 0b100101


def bits6(value: int) -> str:
    """Canonical 6-character bit string of a SymMat3 or GfVec6."""
    return format(value, "06b")


def parse_bits6(text: str) -> int:
    """Parse the canonical 6-character 0/1 string; raises ValueError otherwise."""
    if len(text) != 6 or text.strip("01"):
        raise ValueError(f"expected 6 characters over 0/1, got {text!r}")
    return int(text, 2)


def require_sym(*values: int) -> None:
    """Raise ValueError naming the first value that is not a packed SymMat3."""
    for x in values:
        if not 0 <= x < 64:
            raise ValueError(f"a packed SymMat3 is an int in 0..63, got {x}")


def sym_entries(s: int) -> tuple[int, int, int, int, int, int]:
    """The upper-triangle bits (a, b, c, d, e, f) of a packed SymMat3."""
    if not 0 <= s < 64:
        require_sym(s)
    return (s >> 5 & 1, s >> 4 & 1, s >> 3 & 1, s >> 2 & 1, s >> 1 & 1, s & 1)


def sym_to_mat(s: int) -> int:
    """Expand a packed SymMat3 into the full 9-bit Mat3."""
    if not 0 <= s < 64:
        require_sym(s)
    # the rows are (a, b, c), (b, d, e) and (c, e, f)
    return s >> 3 << 6 | (s >> 2 & 4 | s >> 1 & 3) << 3 | (s >> 1 & 4 | s & 3)


def mat_row(m: int, i: int) -> int:
    """Row i (0-based) of a Mat3 as a 3-bit row vector."""
    return m >> (6 - 3 * i) & 7


def mat_transpose(m: int) -> int:
    # entry (i, j) sits at bit 8 - 3i - j, so it moves 2(j - i) bits down
    return (
        m & 0b100_010_001
        | (m & 0b010_001_000) >> 2
        | (m & 0b000_100_010) << 2
        | (m & 0b001_000_000) >> 4
        | (m & 0b000_000_100) << 4
    )


def is_symmetric(m: int) -> bool:
    return m == mat_transpose(m)


def mat_to_sym(m: int) -> int:
    """Pack a symmetric Mat3 into 6 bits; raises ValueError if not symmetric."""
    if not is_symmetric(m):
        raise ValueError(f"matrix {m:09b} is not symmetric")
    r0, r1, r2 = mat_row(m, 0), mat_row(m, 1), mat_row(m, 2)
    return (r0 << 3) | ((r1 & 0b011) << 1) | (r2 & 1)


def row_times_mat(v: int, m: int) -> int:
    """Row vector times matrix: XOR of the rows of m selected by v."""
    acc = 0
    if v & 4:
        acc ^= m >> 6
    if v & 2:
        acc ^= m >> 3
    if v & 1:
        acc ^= m
    return acc & 7


def row_images(m: int) -> tuple[int, ...]:
    """The 8 row vectors v*m, v = 0..7, in one pass: entry v is the XOR of
    the rows of m selected by v, as row_times_mat computes it for one v."""
    r0, r1, r2 = m >> 6 & 7, m >> 3 & 7, m & 7
    return (0, r2, r1, r1 ^ r2, r0, r0 ^ r2, r0 ^ r1, r0 ^ r1 ^ r2)


def mat_mul(x: int, y: int) -> int:
    r0, r1, r2 = y >> 6 & 7, y >> 3 & 7, y & 7
    # combos[v] is the row vector v times y, as in row_images
    combos = (0, r2, r1, r1 ^ r2, r0, r0 ^ r2, r0 ^ r1, r0 ^ r1 ^ r2)
    return combos[x >> 6 & 7] << 6 | combos[x >> 3 & 7] << 3 | combos[x & 7]


Lanes = tuple[int, ...]


def broadcast_lanes(m: int, n: int) -> Lanes:
    """The Mat3 m repeated in n lanes."""
    full = (1 << n) - 1
    return tuple(full if m >> b & 1 else 0 for b in range(9))


def lanes_mul(x: Lanes, y: Lanes) -> Lanes:
    """The lane-wise products x[k] * y[k]: 27 AND and 18 XOR word operations."""
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
    # row i of x is bits 8-3i..6-3i, column j of y is bits 8-j, 5-j and 2-j
    return (
        x2 & y6 ^ x1 & y3 ^ x0 & y0,
        x2 & y7 ^ x1 & y4 ^ x0 & y1,
        x2 & y8 ^ x1 & y5 ^ x0 & y2,
        x5 & y6 ^ x4 & y3 ^ x3 & y0,
        x5 & y7 ^ x4 & y4 ^ x3 & y1,
        x5 & y8 ^ x4 & y5 ^ x3 & y2,
        x8 & y6 ^ x7 & y3 ^ x6 & y0,
        x8 & y7 ^ x7 & y4 ^ x6 & y1,
        x8 & y8 ^ x7 & y5 ^ x6 & y2,
    )


def asymmetric_lanes(x: Lanes) -> int:
    """Mask of the matrices that are not symmetric, bit k for the k-th."""
    return x[7] ^ x[5] | x[6] ^ x[2] | x[3] ^ x[1]


def sym_lanes(x: Lanes) -> Lanes:
    """The lanes of the six SymMat3 bits of symmetric lanes, bit 0 first."""
    return x[0], x[3], x[4], x[6], x[7], x[8]


def det3(m: int) -> int:
    """Determinant of a Mat3; over GF(2) all cofactor signs vanish."""
    a, b, c = m >> 8 & 1, m >> 7 & 1, m >> 6 & 1
    d, e, f = m >> 5 & 1, m >> 4 & 1, m >> 3 & 1
    g, h, i = m >> 2 & 1, m >> 1 & 1, m & 1
    return (a & (e & i ^ f & h)) ^ (b & (d & i ^ f & g)) ^ (c & (d & h ^ e & g))


def sym_det(s: int) -> int:
    return det3(sym_to_mat(s))


def _cross(u: int, v: int) -> int:
    """Cross product of two row vectors; component k is u_{k+1} v_{k+2} + u_{k+2} v_{k+1}."""
    # nu holds u_{k+1} at place k and au holds u_{k+2}; likewise for v
    nu, au = (u << 1 | u >> 2) & 7, (u << 2 | u >> 1) & 7
    nv, av = (v << 1 | v >> 2) & 7, (v << 2 | v >> 1) & 7
    return nu & av ^ au & nv


def inverse3(m: int) -> int:
    """Inverse of a Mat3: its columns are the cross products of row pairs
    (the adjugate, which over GF(2) has no signs)."""
    r0, r1, r2 = m >> 6, m >> 3 & 7, m & 7
    c0 = _cross(r1, r2)
    if (r0 & c0).bit_count() & 1 == 0:
        raise SingularMatrixError(f"matrix {m:09b} is singular")
    return mat_transpose(c0 << 6 | _cross(r2, r0) << 3 | _cross(r0, r1))


def rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis of the span of int-packed rows.

    Pivots are taken on the leftmost (highest) set bit, so the result is
    the unique RREF with rows ordered by descending leading bit.  Zero
    rows are dropped.
    """
    # the basis stays reduced: no row holds another row's leading bit, so
    # one pass in any order clears them all, and row ^ b < row says that
    # row holds the leading bit of b
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row ^ b < row:
                row ^= b
        if row:
            basis = [b ^ row if b ^ row < b else b for b in basis]
            basis.append(row)
    basis.sort(reverse=True)
    return tuple(basis)


def row_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a matrix given as int-packed rows (any width)."""
    return len(rref(rows))


def mat_rank(m: int) -> int:
    """Rank of a Mat3 over GF(2)."""
    return row_rank(mat_row(m, i) for i in range(3))


def eigenspace_one(m: int) -> tuple[int, ...]:
    """All row vectors v with v*m = v, zero included; always a subspace.

    The domain has 8 vectors, so plain enumeration of row_images(m) is the
    implementation.
    """
    images = row_images(m)
    return tuple(v for v in range(8) if images[v] == v)


def eigenspace_dim(m: int) -> int:
    return len(eigenspace_one(m)).bit_length() - 1
