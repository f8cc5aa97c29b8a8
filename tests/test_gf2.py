"""Exact-value and exhaustive-property tests for the GF(2) kernels."""

import random

import pytest

from gqlab.gf2 import (
    MAT_IDENTITY,
    SYM_IDENTITY,
    SingularMatrixError,
    asymmetric_lanes,
    bits6,
    broadcast_lanes,
    det3,
    eigenspace_dim,
    eigenspace_one,
    inverse3,
    is_symmetric,
    lanes_mul,
    mat_mul,
    mat_rank,
    mat_to_sym,
    mat_transpose,
    parse_bits6,
    row_images,
    row_rank,
    row_times_mat,
    rref,
    sym_det,
    sym_lanes,
    sym_to_mat,
)
from gqlab.pg import pg_planes, transposed

D1 = parse_bits6("001100")
U1 = parse_bits6("111100")


def test_identity_round_trip():
    assert sym_to_mat(SYM_IDENTITY) == MAT_IDENTITY
    assert mat_to_sym(MAT_IDENTITY) == SYM_IDENTITY
    assert bits6(SYM_IDENTITY) == "100101"


def test_parse_bits6_rejects_garbage():
    for bad in ("", "10110", "1011001", "10110x"):
        with pytest.raises(ValueError):
            parse_bits6(bad)


def test_sym_round_trip_all():
    for s in range(64):
        m = sym_to_mat(s)
        assert is_symmetric(m)
        assert mat_to_sym(m) == s


def test_det_examples():
    assert det3(MAT_IDENTITY) == 1
    assert det3(0) == 0
    # D1 is the reversal permutation matrix; cofactor expansion by hand gives 1
    assert sym_det(D1) == 1


def test_det_multiplicative():
    # det(AB) = det(A) det(B), sampled over all symmetric pairs
    mats = [sym_to_mat(s) for s in range(64)]
    for a in mats[:16]:
        for b in mats:
            assert det3(mat_mul(a, b)) == (det3(a) & det3(b))


def test_rank_examples():
    # D1 + 1 has two equal nonzero rows and one zero row
    assert mat_rank(sym_to_mat(D1 ^ SYM_IDENTITY)) == 1
    assert mat_rank(0) == 0
    assert mat_rank(MAT_IDENTITY) == 3
    # (D1 | 1) contains the identity block
    d1 = sym_to_mat(D1)
    rows = [((d1 >> (6 - 3 * i)) & 7) << 3 | (4 >> i) for i in range(3)]
    assert row_rank(rows) == 3


def test_rank_iff_det_all_512():
    for m in range(512):
        assert (mat_rank(m) == 3) == (det3(m) == 1)


def test_rref_is_canonical():
    # any basis of the same span reduces to the same echelon rows
    assert rref([0b110, 0b011]) == rref([0b101, 0b011])
    assert rref([0, 0, 0]) == ()


def test_inverse_identity_and_involution():
    assert inverse3(MAT_IDENTITY) == MAT_IDENTITY
    # D1 is an involution, so it is its own inverse
    assert inverse3(sym_to_mat(D1)) == sym_to_mat(D1)


def test_inverse_u1_is_sixth_power():
    # oracle: repeated multiplication; U1 generates a cyclic group of order 7
    m = sym_to_mat(U1)
    acc = MAT_IDENTITY
    for _ in range(6):
        acc = mat_mul(acc, m)
    assert mat_mul(acc, m) == MAT_IDENTITY
    assert inverse3(m) == acc


def test_inverse_all_invertible():
    for s in range(64):
        m = sym_to_mat(s)
        if det3(m) == 1:
            inv = inverse3(m)
            assert mat_mul(m, inv) == MAT_IDENTITY
            assert mat_mul(inv, m) == MAT_IDENTITY
            assert is_symmetric(inv)
        else:
            with pytest.raises(SingularMatrixError):
                inverse3(m)


def test_eigenspace_examples():
    # solving v*D1 = v by hand gives the vectors with first = third coordinate
    assert eigenspace_one(sym_to_mat(D1)) == (0, 0b010, 0b101, 0b111)
    assert eigenspace_dim(sym_to_mat(D1)) == 2
    assert eigenspace_dim(sym_to_mat(U1)) == 0
    assert eigenspace_dim(MAT_IDENTITY) == 3


def test_eigenspace_closed_under_addition():
    for m in range(512):
        space = eigenspace_one(m)
        sset = set(space)
        assert 0 in sset
        for v in space:
            for w in space:
                assert v ^ w in sset


def test_transpose_involutive():
    for m in range(512):
        assert mat_transpose(mat_transpose(m)) == m


# Entry-by-entry reference versions of the bit-twiddled kernels.


def _entry(m, i, j):
    return m >> (8 - 3 * i - j) & 1


def _reference_transpose(m):
    return sum(_entry(m, i, j) << (8 - 3 * j - i) for i in range(3) for j in range(3))


def _reference_mul(x, y):
    """Entry (i, j) of the product is row i of x dotted with column j of y."""
    return _reference_mul_cols(x, [_reference_transpose(y) >> (6 - 3 * j) & 7 for j in range(3)])


def _reference_mul_cols(x, cols):
    out = 0
    for i in range(3):
        row = x >> (6 - 3 * i) & 7
        for j, col in enumerate(cols):
            out |= ((row & col).bit_count() & 1) << (8 - 3 * i - j)
    return out


def test_transpose_matches_entrywise_reference():
    for m in range(512):
        assert mat_transpose(m) == _reference_transpose(m)


def test_sym_to_mat_matches_entrywise_reference():
    for s in range(64):
        a, b, c, d, e, f = (s >> k & 1 for k in range(5, -1, -1))
        rows = ((a, b, c), (b, d, e), (c, e, f))
        want = sum(rows[i][j] << (8 - 3 * i - j) for i in range(3) for j in range(3))
        assert sym_to_mat(s) == want


def test_mat_mul_matches_entrywise_reference():
    # rows of x and columns of y combine independently, so all 512 left
    # factors against a stride of right factors that meets every entry
    for y in range(0, 512, 7):
        cols = [_reference_transpose(y) >> (6 - 3 * j) & 7 for j in range(3)]
        for x in range(512):
            assert mat_mul(x, y) == _reference_mul_cols(x, cols)
    for v in range(8):
        for m in range(512):
            assert row_times_mat(v, m) == _reference_mul(v << 6, m) >> 6


def test_row_images_match_row_times_mat():
    # row_times_mat stays the scalar reference of the one-pass table
    for m in range(512):
        images = row_images(m)
        assert len(images) == 8
        for v in range(8):
            assert images[v] == row_times_mat(v, m)


def test_invertible_symmetric_dichotomy():
    # a non-identity invertible symmetric matrix either has eigenvalue 1 or not;
    # over GF(2) this is decided by det(X + 1)
    for s in range(64):
        if sym_det(s) == 1 and s != SYM_IDENTITY:
            has_eigenvector = eigenspace_dim(sym_to_mat(s)) >= 1
            assert has_eigenvector == (sym_det(s ^ SYM_IDENTITY) == 0)


# The lane kernels against the scalar ones, on every matrix and every pair.

GROUPS = [range(64 * g, 64 * g + 64) for g in range(8)]


def _reference_lanes(mats):
    """Lanes by string transposition: the bit string of lane b lists bit b
    of every matrix, the last matrix first."""
    bits = (format(m, "09b")[::-1] for m in reversed(mats))
    return tuple(int("".join(col), 2) for col in zip(*bits))


def test_lanes_round_trip_and_broadcast():
    for ms in GROUPS:
        lanes = transposed(ms)[:9]
        assert lanes == _reference_lanes(ms)
        assert transposed(lanes) == tuple(ms)
    for m in range(512):
        for n in (1, 21, 64):
            assert broadcast_lanes(m, n) == _reference_lanes([m] * n)


def test_lanes_mul_matches_mat_mul_on_all_pairs():
    # lane k pairs x-group i at k with y-group j rotated by r at k + r, so
    # the 8 x 8 x 64 products meet every (x, y) pair once
    rotated = {}
    for j, ys in enumerate(GROUPS):
        for r in range(64):
            rotated[j, r] = [ys[(k + r) % 64] for k in range(64)]
    y_lanes = {key: transposed(ys)[:9] for key, ys in rotated.items()}
    for xs in GROUPS:
        x_lanes = transposed(xs)[:9]
        for key, ys in rotated.items():
            want = _reference_lanes([mat_mul(x, y) for x, y in zip(xs, ys)])
            assert lanes_mul(x_lanes, y_lanes[key]) == want


def test_asymmetric_lanes_matches_is_symmetric():
    for ms in GROUPS:
        want = sum((not is_symmetric(m)) << k for k, m in enumerate(ms))
        assert asymmetric_lanes(transposed(ms)[:9]) == want


def test_sym_lanes_read_back_every_packed_symmat3():
    lanes = transposed([sym_to_mat(s) for s in range(64)])[:9]
    assert transposed(sym_lanes(lanes))[:64] == tuple(range(64))


def _reference_rref(rows):
    """Pivot-dict row reduction, reducing each row by the pivots in
    descending order and every earlier pivot row by each new one."""
    pivots = {}
    for row in rows:
        for bit in sorted(pivots, reverse=True):
            if row >> bit & 1:
                row ^= pivots[bit]
        if row:
            lead = row.bit_length() - 1
            for bit, prow in list(pivots.items()):
                if prow >> lead & 1:
                    pivots[bit] = prow ^ row
            pivots[lead] = row
    return tuple(pivots[bit] for bit in sorted(pivots, reverse=True))


def test_rref_matches_reference_on_all_planes():
    # the 7 points of each plane in both orders, and their 3 highest
    for points in pg_planes():
        for rows in (points, points[::-1], points[4:]):
            assert rref(rows) == _reference_rref(rows)


def test_rref_matches_reference_on_random_stacks():
    rng = random.Random(20261018)
    for _ in range(3000):
        width = rng.randint(3, 20)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        # repeated rows and sums of rows reach the cancelling branches
        if len(rows) >= 2:
            rows.append(rows[0] ^ rows[1])
            rows.append(rows[-1])
        assert rref(rows) == _reference_rref(rows)


def _reference_inverse3(m):
    """The adjugate entry by entry: entry (r, c) is the 2x2 minor of m
    without row c and column r."""
    if det3(m) != 1:
        raise SingularMatrixError(f"matrix {m:09b} is singular")
    out = 0
    for r in range(3):
        for c in range(3):
            i0, i1 = (i for i in range(3) if i != c)
            j0, j1 = (j for j in range(3) if j != r)
            minor = _entry(m, i0, j0) & _entry(m, i1, j1) ^ _entry(m, i0, j1) & _entry(m, i1, j0)
            out |= minor << (8 - 3 * r - c)
    return out


def test_inverse3_matches_reference_on_all_512():
    singular = 0
    for m in range(512):
        if det3(m):
            assert inverse3(m) == _reference_inverse3(m)
        else:
            singular += 1
            with pytest.raises(SingularMatrixError, match=f"matrix {m:09b} is singular"):
                inverse3(m)
            with pytest.raises(SingularMatrixError):
                _reference_inverse3(m)
    assert singular == 344
