"""Tests for PG(5,2), the coordinate map, forms, quadrics and the translation."""

import random

import pytest

from gqlab.atlas import atlas
from gqlab.gf2 import SYM_IDENTITY, bits6, parse_bits6, sym_det
from gqlab.pg import (
    ALL_ONES,
    UndefinedAtCenterError,
    bit_indices,
    elliptic_form,
    elliptic_form_at,
    elliptic_form_sym,
    elliptic_form_sym_at,
    elliptic_matrix_points,
    elliptic_matrix_points_at,
    elliptic_quadric,
    elliptic_quadric_at,
    from_minor_coordinates,
    hyperbolic_form,
    klein_matrix_points,
    klein_quadric,
    lines_in,
    lines_through,
    matrix_lines_through,
    minor_coordinates,
    perp_hyperplane,
    pg_lines,
    pg_planes,
    planes_in,
    planes_through,
    polar_form,
    projective_index,
    quadric_points,
    tangent_matrix_lines_at_identity,
    translate,
)

D1 = parse_bits6("001100")
U1 = parse_bits6("111100")


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
    assert elliptic_form_sym(U1) == 0
    assert elliptic_form_sym(D1) == 1
    assert elliptic_form_sym(D1 ^ SYM_IDENTITY) == 0  # det(D1) + 1 = 0


def test_elliptic_form_matches_matrix_side():
    for x in range(64):
        assert elliptic_form(minor_coordinates(x)) == elliptic_form_sym(x)
    for m in atlas().points[:5]:
        for x in range(64):
            assert elliptic_form_at(m, minor_coordinates(x)) == elliptic_form_sym_at(m, x)


def test_quadric_sizes():
    assert len(klein_quadric()) == 35
    assert len(elliptic_quadric()) == 27
    for m in atlas().points:
        assert len(elliptic_quadric_at(m)) == 27


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


def test_incidence_masks_list_the_subspaces_through_each_point():
    for subspaces, through in ((pg_lines(), lines_through()), (pg_planes(), planes_through())):
        assert through[0] == 0
        for v in range(1, 64):
            assert bit_indices(through[v]) == [i for i, sub in enumerate(subspaces) if v in sub]


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
    point_sets += [frozenset(), frozenset(range(1, 64))]
    point_sets += [elliptic_quadric_at(m) for m in atlas().points]
    point_sets += [frozenset(rng.sample(range(1, 64), rng.randint(0, 63))) for _ in range(50)]
    for points in point_sets:
        pts = frozenset(points)
        lines = tuple(line for line in pg_lines() if pts.issuperset(line))
        planes = tuple(plane for plane in pg_planes() if pts.issuperset(plane))
        assert lines_in(points) == lines
        assert planes_in(points) == planes
        assert projective_index(points) == (2 if planes else 1 if lines else 0 if pts else -1)
    assert len(lines_in(range(1, 64))) == 651 and len(planes_in(range(1, 64))) == 1395


def test_projective_indices():
    assert projective_index(elliptic_quadric()) == 1
    assert projective_index(klein_quadric()) == 2
    assert projective_index(frozenset()) == -1
    assert projective_index({1}) == 0
    for m in atlas().points:
        assert projective_index(elliptic_quadric_at(m)) == 1


def test_line_counts_in_quadrics():
    assert len(lines_in(elliptic_quadric())) == 45
    assert len(lines_in(klein_quadric())) == 105
    section = elliptic_quadric() & perp_hyperplane(ALL_ONES)
    assert len(lines_in(section)) == 15


def test_klein_quadric_is_the_singular_matrices():
    assert {from_minor_coordinates(v) for v in klein_quadric()} == set(klein_matrix_points())
    assert len(klein_matrix_points()) == 35


def test_complement():
    invertible = {s for s in range(1, 64) if sym_det(s) == 1}
    assert klein_matrix_points() | invertible == set(range(1, 64))
    assert not klein_matrix_points() & invertible


def test_translate():
    # D1 + 1 = [[1,0,1],[0,0,0],[1,0,1]] packed as 101001
    assert bits6(translate(D1)) == "101001"
    assert translate(U1) in atlas().u
    with pytest.raises(UndefinedAtCenterError):
        translate(SYM_IDENTITY)
    with pytest.raises(UndefinedAtCenterError):
        translate(D1, D1)


def test_translation_classes():
    at = atlas()
    assert {translate(x) for x in at.u} == set(at.u)
    assert {translate(x) for x in at.v} == set(at.v)
    assert not {translate(x) for x in at.d} & set(at.points)
    assert {translate(x) for x in at.points} == set(elliptic_matrix_points())


def test_quadric_class_split():
    at = atlas()
    quadric = elliptic_matrix_points()
    assert quadric & set(at.points) == set(at.u) | set(at.v)
    assert quadric & klein_matrix_points() == {translate(x) for x in at.d}


def test_perp_hyperplane_of_identity():
    at = atlas()
    perp = perp_hyperplane(ALL_ONES)
    assert len(perp) == 31
    wanted = (
        {ALL_ONES}
        | {minor_coordinates(x) for x in at.d}
        | {minor_coordinates(translate(x)) for x in at.d}
    )
    assert perp == wanted


def test_every_perp_has_31_points():
    for p in range(1, 64):
        assert len(perp_hyperplane(p)) == 31


def test_tangent_matrix_lines():
    at = atlas()
    lines = matrix_lines_through(SYM_IDENTITY)
    assert len(lines) == 31
    wanted = {frozenset((SYM_IDENTITY, x, translate(x))) for x in at.d}
    assert set(tangent_matrix_lines_at_identity(elliptic_matrix_points())) == wanted
    assert set(tangent_matrix_lines_at_identity(klein_matrix_points())) == wanted


def test_qm_family_translation_bijection():
    at = atlas()
    for m in at.points[:6] + at.points[-3:]:
        quadric = elliptic_matrix_points_at(m)
        assert len(quadric) == 27
        # the translation by m sends every point except m itself into the
        # quadric, and misses exactly the point m + 1
        image = {x ^ m for x in at.points if x != m}
        assert image == quadric - {m ^ SYM_IDENTITY}


def test_quadric_points_of_constant_forms():
    assert quadric_points(lambda v: 1) == frozenset()
    assert quadric_points(lambda v: 0) == frozenset(range(1, 64))
