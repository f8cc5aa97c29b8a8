"""Tests for PG(5,2), the coordinate map, forms, quadrics and the translation."""

import random

import pytest

import gqlab.pg
from gqlab.atlas import atlas
from gqlab.gf2 import SYM_IDENTITY, bits6, parse_bits6, require_sym, sym_det
from gqlab.pg import (
    ALL_ONES,
    ALL_POINTS,
    bit_indices,
    coordinates,
    det_table,
    elliptic_matrix_points,
    elliptic_matrix_points_at,
    elliptic_quadric,
    elliptic_quadric_at,
    elliptic_table,
    from_minor_coordinates,
    hyperbolic_form,
    hyperbolic_table,
    klein_matrix_points,
    klein_quadric,
    lines_in,
    matrix_lines_through,
    minor_coordinates,
    pack,
    perp_hyperplane,
    pg_lines,
    pg_planes,
    planes_in,
    point_mask,
    polar_column,
    polar_form,
    projective_index,
    quadric_points,
    relabelled,
    rows,
    tangent_matrix_lines_at_identity,
    translate_mask,
    translates,
    transpose,
    transposed,
    value_table,
)
from gqlab.planes import PLANE_DIAGONAL, PLANE_LEFT, PLANE_RIGHT, plane_of

D1 = parse_bits6("001100")
U1 = parse_bits6("111100")


def elliptic_form_at(m, v):
    """Member Q_M of the 28-form family at the vector v, read from its value
    table; Q is Q_1.  The tests' reference reader of elliptic_table."""
    table = gqlab.pg.elliptic_table(m)
    if not 0 <= v < 64:
        require_sym(v)
    return table >> v & 1


def elliptic_form_sym_at(m, x):
    """The scalar reference for Q_M on the matrix side: det(X + M) + 1."""
    require_sym(m, x)
    return sym_det(x ^ m) ^ 1


def test_coordinate_examples():
    assert minor_coordinates(SYM_IDENTITY) == ALL_ONES
    assert minor_coordinates(0) == 0
    # direct evaluation for D1: diagonal (0,1,0), cominors (0,1,0)
    assert bits6(minor_coordinates(D1)) == "001100"


def test_coordinates_bijective():
    images = {minor_coordinates(x) for x in range(64)}
    assert len(images) == 64
    for x in range(64):
        assert from_minor_coordinates(minor_coordinates(x)) == x


def test_hyperbolic_form_examples():
    assert hyperbolic_form(ALL_ONES) == 1  # 1+1+1 over GF(2)
    assert hyperbolic_form(0) == 0
    assert hyperbolic_form(minor_coordinates(D1)) == 1 == sym_det(D1)


def test_det_is_hyperbolic_form_in_coordinates():
    for x in range(64):
        assert sym_det(x) == hyperbolic_form(minor_coordinates(x))


def test_polar_form_alternating_and_symmetric():
    for v in range(64):
        assert polar_form(v, v) == 0
    for x in range(0, 64, 7):
        for y in range(64):
            assert polar_form(x, y) == polar_form(y, x)


def test_polar_form_is_polarization_of_hyperbolic():
    for x in range(64):
        for y in range(64):
            assert polar_form(x, y) == (
                hyperbolic_form(x ^ y) ^ hyperbolic_form(x) ^ hyperbolic_form(y)
            )


def test_polar_form_matches_determinant_sum():
    for x in range(64):
        for y in range(64):
            assert polar_form(minor_coordinates(x), minor_coordinates(y)) == (
                sym_det(x ^ y) ^ sym_det(x) ^ sym_det(y)
            )


def test_polar_form_nondegenerate():
    for x in range(1, 64):
        assert any(polar_form(x, y) for y in range(1, 64))


def test_bilinear_example_d1_identity():
    # det(D1+1) + det(D1) + det(1) = 0 + 1 + 1 = 0
    assert polar_form(minor_coordinates(D1), minor_coordinates(SYM_IDENTITY)) == 0


def test_elliptic_form_examples():
    # U1 + 1 is invertible, D1 + 1 is singular
    assert elliptic_form_sym_at(SYM_IDENTITY, U1) == 0
    assert elliptic_form_sym_at(SYM_IDENTITY, D1) == 1
    assert elliptic_form_sym_at(SYM_IDENTITY, D1 ^ SYM_IDENTITY) == 0  # det(D1) + 1 = 0


def test_elliptic_form_matches_matrix_side():
    for m in (SYM_IDENTITY,) + atlas().points[:5]:
        for x in range(64):
            assert elliptic_form_at(m, minor_coordinates(x)) == elliptic_form_sym_at(m, x)


def test_quadric_sizes():
    assert klein_quadric().bit_count() == 35
    assert elliptic_quadric().bit_count() == 27
    for m in atlas().points:
        assert elliptic_quadric_at(m).bit_count() == 27


def test_pg_line_and_plane_counts():
    assert len(pg_lines()) == 651
    assert len(pg_planes()) == 1395
    for x, y, z in pg_lines():
        assert x ^ y == z and x < y < z
    for plane in pg_planes()[:20]:
        pts = set(plane)
        assert len(pts) == 7
        for a in pts:
            for b in pts:
                if a != b:
                    assert a ^ b in pts


def _reference_pg_planes():
    # every line with every point off it, deduplicated as sorted 7-tuples
    seen = set()
    for x, y, z0 in pg_lines():
        for z in range(1, 64):
            if z not in (x, y, z0):
                seen.add(tuple(sorted((x, y, z, x ^ y, x ^ z, y ^ z, x ^ y ^ z))))
    return tuple(sorted(seen))


def test_pg_planes_match_sort_dedupe_reference():
    assert pg_planes() == _reference_pg_planes()


def lines_through():
    """Per-point incidence masks of pg_lines(): bit i of entry v is set iff
    line i holds point v; entry 0 is 0.  The reference for lines_in."""
    masks = [0] * 64
    for i, line in enumerate(pg_lines()):
        for v in line:
            masks[v] |= 1 << i
    return tuple(masks)


def _reference_lines_in(points):
    # a line lies in the set iff it misses every point outside it
    through = lines_through()
    hit = 0
    for v in bit_indices(ALL_POINTS & ~points):
        hit |= through[v]
    return tuple(line for i, line in enumerate(pg_lines()) if not hit >> i & 1)


def _quadric_masks():
    """The 29 quadrics of the quadric export: Klein, Q and the 27 Q_M."""
    return [klein_quadric(), elliptic_quadric()] + [elliptic_quadric_at(m) for m in atlas().points]


def test_lines_in_many_sets_matches_the_incidence_reference():
    rng = random.Random(26)

    def random_mask():
        return point_mask(rng.sample(range(1, 64), rng.randint(0, 63)))

    batches = [_quadric_masks(), [perp_hyperplane(p) for p in range(1, 64)], [0, ALL_POINTS]]
    batches += [[random_mask() for _ in range(size)] for size in (1, 29, 64) for _ in range(3)]
    for masks in batches:
        found = lines_in(masks)
        assert found == [_reference_lines_in(points) for points in masks]
        assert found == [lines_in([points])[0] for points in masks]
    assert lines_in([0, ALL_POINTS]) == [(), pg_lines()]
    assert lines_in(tuple(_quadric_masks())) == lines_in(_quadric_masks())


def test_batch_point_set_functions_validate_their_masks():
    for read in (lines_in, lambda masks: list(map(projective_index, masks, lines_in(masks)))):
        assert read([]) == []
        for mask in (1, -1, 1 << 64):
            # the first bad mask is named, wherever it sits in the batch
            with pytest.raises(ValueError, match=f"ALL_POINTS: {mask:#x}$"):
                read([elliptic_quadric(), mask, 1])
        with pytest.raises(ValueError, match="at most 64 rows, got 65"):
            read([elliptic_quadric()] * 65)


def test_incidence_masks_list_the_subspaces_through_each_point():
    through = lines_through()
    assert through[0] == 0
    for v in range(1, 64):
        assert bit_indices(through[v]) == [i for i, line in enumerate(pg_lines()) if v in line]


def test_bit_indices_lists_set_bits_and_rejects_negative_masks():
    assert bit_indices(0) == []
    assert bit_indices(0b1011) == [0, 1, 3]
    assert bit_indices(1 << 1394) == [1394]
    # a negative int has set bits without end, so it is refused up front
    for mask in (-1, -(1 << 63), ~0b1011):
        with pytest.raises(ValueError, match="nonnegative"):
            bit_indices(mask)


def test_subspaces_in_match_superset_reference():
    # the filters keep pg_lines()/pg_planes() order, so equal tuples also
    # pin the output order
    rng = random.Random(63)
    quadric = elliptic_quadric()
    point_sets = [klein_quadric(), quadric] + [quadric & perp_hyperplane(a) for a in range(1, 64)]
    point_sets += [0, point_mask(range(1, 64))]
    point_sets += [elliptic_quadric_at(m) for m in atlas().points]
    point_sets += [point_mask(rng.sample(range(1, 64), rng.randint(0, 63))) for _ in range(50)]
    for points in point_sets:
        pts = frozenset(bit_indices(points))
        lines = tuple(line for line in pg_lines() if pts.issuperset(line))
        planes = tuple(plane for plane in pg_planes() if pts.issuperset(plane))
        assert lines_in([points])[0] == lines
        assert planes_in(points) == planes
        assert projective_index(points) == (2 if planes else 1 if lines else 0 if pts else -1)
    assert len(lines_in([ALL_POINTS])[0]) == 651 and len(planes_in(ALL_POINTS)) == 1395


@pytest.mark.parametrize(
    "mask", [1, 1 | 1 << 5, ALL_POINTS | 1, -1, -(1 << 10), 1 << 64, 1 << 70 | 2]
)
def test_point_set_functions_reject_masks_outside_all_points(mask):
    # bit 0 (the zero vector), a negative int and bits from 64 up are not points
    for read in (lambda mask: lines_in([mask])[0], planes_in, projective_index):
        with pytest.raises(ValueError, match="ALL_POINTS"):
            read(mask)


def _reference_projective_index(points):
    pts = frozenset(bit_indices(points))
    if any(pts.issuperset(plane) for plane in pg_planes()):
        return 2
    if any(pts.issuperset(line) for line in pg_lines()):
        return 1
    return 0 if pts else -1


def test_projective_index_matches_plane_reference_on_hand_made_sets():
    # one plane alone, the plane minus each of its points, and the plane
    # plus a line that meets it in a point or misses it
    for plane in pg_planes()[::31]:
        mask = point_mask(plane)
        cases = [(mask, 2)] + [(mask & ~(1 << v), 1) for v in plane]
        meeting = next(line for line in pg_lines() if (point_mask(line) & mask).bit_count() == 1)
        missing = next(line for line in pg_lines() if not point_mask(line) & mask)
        cases += [(mask | point_mask(meeting), 2), (mask | point_mask(missing), 2)]
        for points, wanted in cases:
            assert projective_index(points) == _reference_projective_index(points) == wanted


def test_projective_indices_match_the_plane_reference():
    rng = random.Random(12)
    sets = _quadric_masks() + [0, 1 << 1, ALL_POINTS]
    sets += [point_mask(plane) & ~(1 << plane[i % 7]) for i, plane in enumerate(pg_planes()[::97])]
    sets += [point_mask(plane) for plane in pg_planes()[::211]]
    while len(sets) < 64:
        sets.append(point_mask(rng.sample(range(1, 64), rng.randint(0, 40))))
    indices = list(map(projective_index, sets, lines_in(sets)))
    assert indices == [_reference_projective_index(points) for points in sets]
    assert indices == [projective_index(points) for points in sets]
    assert set(indices) == {-1, 0, 1, 2}


def test_projective_indices():
    assert projective_index(elliptic_quadric()) == 1
    assert projective_index(klein_quadric()) == 2
    assert projective_index(0) == -1
    assert projective_index(1 << 1) == 0
    for m in atlas().points:
        assert projective_index(elliptic_quadric_at(m)) == 1


def test_line_counts_in_quadrics():
    assert len(lines_in([elliptic_quadric()])[0]) == 45
    assert len(lines_in([klein_quadric()])[0]) == 105
    section = elliptic_quadric() & perp_hyperplane(ALL_ONES)
    assert len(lines_in([section])[0]) == 15


def test_klein_quadric_is_the_singular_matrices():
    preimages = {from_minor_coordinates(v) for v in bit_indices(klein_quadric())}
    assert preimages == set(bit_indices(klein_matrix_points()))
    assert klein_matrix_points().bit_count() == 35


def test_complement():
    invertible = point_mask(s for s in range(1, 64) if sym_det(s) == 1)
    assert klein_matrix_points() | invertible == point_mask(range(1, 64))
    assert not klein_matrix_points() & invertible


def test_translation_classes():
    at = atlas()
    assert {x ^ SYM_IDENTITY for x in at.u} == set(at.u)
    assert {x ^ SYM_IDENTITY for x in at.v} == set(at.v)
    assert not {x ^ SYM_IDENTITY for x in at.d} & set(at.points)
    assert {x ^ SYM_IDENTITY for x in at.points} == set(bit_indices(elliptic_matrix_points()))


def test_quadric_class_split():
    at = atlas()
    quadric = elliptic_matrix_points()
    assert quadric & point_mask(at.points) == point_mask(at.u) | point_mask(at.v)
    assert quadric & klein_matrix_points() == point_mask(x ^ SYM_IDENTITY for x in at.d)


def test_perp_hyperplane_of_identity():
    at = atlas()
    perp = perp_hyperplane(ALL_ONES)
    assert perp.bit_count() == 31
    wanted = (
        {ALL_ONES}
        | {minor_coordinates(x) for x in at.d}
        | {minor_coordinates(x ^ SYM_IDENTITY) for x in at.d}
    )
    assert perp == point_mask(wanted)


def test_every_perp_has_31_points():
    for p in range(1, 64):
        assert perp_hyperplane(p).bit_count() == 31


def test_tangent_matrix_lines():
    at = atlas()
    lines = matrix_lines_through(SYM_IDENTITY)
    assert len(lines) == 31
    wanted = {point_mask((SYM_IDENTITY, x, x ^ SYM_IDENTITY)) for x in at.d}
    assert set(tangent_matrix_lines_at_identity(elliptic_matrix_points())) == wanted
    assert set(tangent_matrix_lines_at_identity(klein_matrix_points())) == wanted


def test_qm_family_translation_bijection():
    at = atlas()
    for m in at.points[:6] + at.points[-3:]:
        quadric = elliptic_matrix_points_at(m)
        assert quadric.bit_count() == 27
        # the translation by m sends every point except m itself into the
        # quadric, and misses exactly the point m + 1
        image = point_mask(x ^ m for x in at.points if x != m)
        assert image == quadric & ~(1 << (m ^ SYM_IDENTITY))


def test_quadric_points_of_constant_forms():
    assert quadric_points(lambda v: 1) == 0
    assert quadric_points(lambda v: 0) == point_mask(range(1, 64))


# every point-set function: its masks over the whole domain, and their popcount
POINT_SET_FUNCTIONS = {
    "quadric_points": (lambda: [quadric_points(hyperbolic_form)], 35),
    "klein_quadric": (lambda: [klein_quadric()], 35),
    "elliptic_quadric": (lambda: [elliptic_quadric()], 27),
    "elliptic_quadric_at": (lambda: [elliptic_quadric_at(m) for m in atlas().points], 27),
    "klein_matrix_points": (lambda: [klein_matrix_points()], 35),
    "elliptic_matrix_points": (lambda: [elliptic_matrix_points()], 27),
    "elliptic_matrix_points_at": (
        lambda: [elliptic_matrix_points_at(m) for m in atlas().points],
        27,
    ),
    "perp_hyperplane": (lambda: [perp_hyperplane(p) for p in range(1, 64)], 31),
    "matrix_lines_through": (
        lambda: [line for x in range(1, 64) for line in matrix_lines_through(x)],
        3,
    ),
    "tangent_matrix_lines_at_identity": (
        lambda: [
            line
            for quadric in (elliptic_matrix_points(), klein_matrix_points())
            for line in tangent_matrix_lines_at_identity(quadric)
        ],
        3,
    ),
    "planes.plane_of": (
        lambda: [*map(plane_of, range(64)), PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL],
        7,
    ),
}


@pytest.mark.parametrize("name", POINT_SET_FUNCTIONS)
def test_point_sets_are_masks_without_bit_zero(name):
    masks, size = POINT_SET_FUNCTIONS[name]
    assert ALL_POINTS == point_mask(range(1, 64))
    for mask in masks():
        assert type(mask) is int
        assert not mask & 1
        assert not mask & ~ALL_POINTS
        assert mask.bit_count() == size
        assert point_mask(bit_indices(mask)) == mask


# Value tables against their scalar kernels, and the quadrics read from them
# against the point-by-point constructions they replaced.


def _reference_polar_form(x, y):
    """x1*y2 + x2*y1 + x3*y4 + x4*y3 + x5*y6 + x6*y5, term by term."""
    return (
        (x >> 5) & (y >> 4)
        ^ (x >> 4) & (y >> 5)
        ^ (x >> 3) & (y >> 2)
        ^ (x >> 2) & (y >> 3)
        ^ (x >> 1) & (y & 1)
        ^ (x & 1) & (y >> 1)
    ) & 1


def test_polar_form_matches_reference_on_all_pairs():
    for x in range(64):
        for y in range(64):
            assert polar_form(x, y) == _reference_polar_form(x, y)


def test_tables_call_their_scalar_kernel_once_per_entry(monkeypatch, clear_gqlab_caches):
    # a planted fault in a kernel reaches every entry only if each entry
    # is read from the kernel, not derived from other entries
    calls = []
    kernel = gqlab.pg.polar_form

    def counting_polar_form(x, y):
        calls.append((x, y))
        return kernel(x, y)

    monkeypatch.setattr(gqlab.pg, "polar_form", counting_polar_form)
    clear_gqlab_caches()
    for y in range(64):
        polar_column(y)
    assert sorted(calls) == [(x, y) for x in range(64) for y in range(64)]

    seen = []
    value_table(lambda v: seen.append(v) or hyperbolic_form(v))
    assert seen == list(range(64))


def test_polar_columns_match_polar_form_on_all_pairs():
    for y in range(64):
        column = polar_column(y)
        assert 0 <= column < 1 << 64
        for x in range(64):
            assert column >> x & 1 == polar_form(x, y)


def test_single_argument_tables_match_their_kernels():
    assert coordinates() == tuple(minor_coordinates(x) for x in range(64))
    for v in range(64):
        assert hyperbolic_table() >> v & 1 == hyperbolic_form(v)
        assert det_table() >> v & 1 == sym_det(v)
    assert hyperbolic_table() < 1 << 64 and det_table() < 1 << 64
    assert value_table(lambda v: v & 1) == 0xAAAAAAAAAAAAAAAA


@pytest.mark.parametrize("seed", range(4))
def test_translate_mask_matches_pointwise_translation(seed):
    rng = random.Random(seed)
    masks = [rng.getrandbits(64) for _ in range(8)] + [0, 1, (1 << 64) - 1, ALL_POINTS]
    for mask in masks:
        every = translates(mask)
        assert len(every) == 64
        for m in range(64):
            wanted = sum((mask >> (x ^ m) & 1) << x for x in range(64))
            assert translate_mask(mask, m) == wanted
            assert every[m] == wanted


def _transposed_per_bit(matrix):
    """The per-bit definition: bit x of row y of the transpose is bit y of row x."""
    return [sum((matrix[x] >> y & 1) << x for x in range(64)) for y in range(64)]


def test_transpose_matches_the_per_bit_definition():
    rng = random.Random(7)
    matrices = [[rng.getrandbits(64) for _ in range(64)] for _ in range(8)]
    identity = [1 << y for y in range(64)]
    for matrix in matrices + [identity]:
        flipped = transpose(pack(matrix))
        assert 0 <= flipped < 1 << 4096
        assert list(rows(flipped)) == _transposed_per_bit(matrix)
    assert transpose(pack(identity)) == pack(identity)
    assert transpose(0) == 0
    # every single bit: bit x of row y goes to bit y of row x
    for y in range(64):
        for x in range(64):
            assert transpose(1 << 64 * y + x) == 1 << 64 * x + y


def test_transposed_reads_the_rows_of_the_transpose():
    rng = random.Random(21)
    for n in (0, 1, 27, 64):
        entries = [rng.getrandbits(64) for _ in range(n)]
        assert transposed(entries) == rows(transpose(pack(entries)))
        assert list(transposed(entries)) == _transposed_per_bit(entries + [0] * (64 - n))
    with pytest.raises(ValueError, match="at most 64 rows, got 65"):
        transposed([1] * 65)


def _relabelled_per_bit(masks, image):
    """The per-bit definition: bit image[i] of each output is set iff bit i of
    its mask is, ORed over every i that image sends there."""
    out = []
    for mask in masks:
        moved = 0
        for i, target in enumerate(image):
            moved |= (mask >> i & 1) << target
        out.append(moved)
    return out


@pytest.mark.parametrize("n", [0, 1, 27, 64])
def test_relabelled_moves_each_bit_to_its_image(n):
    rng = random.Random(n)
    masks = [rng.getrandbits(64) for _ in range(n)]
    permutation = rng.sample(range(64), 64)
    # not injective: bits 3 and 5 both land on bit 9, which no other bit reaches
    merged = [9 if i in (3, 5) else i for i in range(64)]
    merged[9] = 3
    short = rng.sample(range(64), 27)  # bits 27..63 have no image and are dropped
    for image in (permutation, merged, short):
        assert list(relabelled(masks, image)) == _relabelled_per_bit(masks, image)
    assert relabelled(masks, range(64)) == tuple(masks)


def test_relabelled_takes_at_most_64_masks():
    with pytest.raises(ValueError, match="at most 64 rows, got 65"):
        relabelled([1] * 65, range(64))


@pytest.mark.parametrize(
    "entries, bad", [([-1], -1), ([1 << 64], 1 << 64), ([5, 1 << 64, -1], 1 << 64)]
)
def test_pack_names_the_first_entry_outside_64_bits(entries, bad):
    for call in (pack, transposed):
        with pytest.raises(ValueError, match=rf"in 0\.\.2\*\*64-1, got {bad}$"):
            call(entries)


def test_pack_and_rows_round_trip():
    rng = random.Random(64)
    matrix = [rng.getrandbits(64) for _ in range(64)]
    packed = pack(matrix)
    assert [packed >> 64 * y & (1 << 64) - 1 for y in range(64)] == matrix
    assert rows(packed) == tuple(matrix)
    # fewer rows pack into fewer bits, and read back as zero rows
    assert pack(matrix[:5]) == packed & (1 << 320) - 1
    assert rows(pack(matrix[:5])) == tuple(matrix[:5]) + (0,) * 59


def _pointwise(form):
    return point_mask(v for v in range(1, 64) if form(v) == 0)


def test_quadrics_match_pointwise_constructions():
    assert klein_quadric() == _pointwise(hyperbolic_form)
    assert elliptic_quadric() == _pointwise(lambda v: hyperbolic_form(v) ^ polar_form(v, ALL_ONES))
    assert klein_matrix_points() == _pointwise(sym_det)
    assert elliptic_matrix_points() == _pointwise(lambda x: sym_det(x ^ SYM_IDENTITY) ^ 1)
    for m in range(64):
        center = minor_coordinates(m)
        assert elliptic_quadric_at(m) == _pointwise(
            lambda v: hyperbolic_form(v) ^ polar_form(v, center)
        )
        assert elliptic_matrix_points_at(m) == _pointwise(lambda x: sym_det(x ^ m) ^ 1)
    for p in range(1, 64):
        assert perp_hyperplane(p) == _pointwise(lambda x: polar_form(x, p))


def test_form_reads_match_scalar_formulas():
    # m = SYM_IDENTITY is the paper's form Q, centred at ALL_ONES
    for m in range(64):
        center = minor_coordinates(m)
        for v in range(64):
            assert elliptic_form_at(m, v) == hyperbolic_form(v) ^ polar_form(v, center)


def test_elliptic_table_holds_the_form_at_every_vector():
    for m in range(64):
        table = elliptic_table(m)
        assert [table >> v & 1 for v in range(64)] == [elliptic_form_at(m, v) for v in range(64)]


@pytest.mark.parametrize("bad", [-1, 64])
@pytest.mark.parametrize(
    "read, what",
    [
        (elliptic_quadric_at, "a packed SymMat3"),
        (elliptic_matrix_points_at, "a packed SymMat3"),
        (elliptic_table, "a packed SymMat3"),
        (lambda m: elliptic_form_at(m, 5), "a packed SymMat3"),
        (lambda m: elliptic_form_sym_at(m, 3), "a packed SymMat3"),
        (lambda v: elliptic_form_at(5, v), "a packed SymMat3"),
        (lambda x: elliptic_form_sym_at(SYM_IDENTITY, x), "a packed SymMat3"),
        (lambda m: translate_mask(det_table(), m), "a packed SymMat3"),
        (polar_column, "a vector"),
    ],
    ids=[
        "quadric-m",
        "matrix-points-m",
        "table-m",
        "form-m",
        "form-sym-m",
        "form-v",
        "form-sym-x",
        "translate-m",
        "polar-column-y",
    ],
)
def test_at_readers_reject_indices_outside_0_to_63(read, what, bad):
    # unchecked, -1 would wrap in coordinates(), and translate_mask and
    # polar_column would read only the low six bits, so that 64 aliases 0
    with pytest.raises(ValueError, match=f"{what} is an int in 0..63, got {bad}"):
        read(bad)


def test_perp_hyperplane_rejects_zero():
    # and every other int outside the 63 points
    for p in (0, -1, 64, 1 << 70):
        with pytest.raises(ValueError, match="1..63"):
            perp_hyperplane(p)
