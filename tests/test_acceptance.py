"""Acceptance suite: one test per criterion, every tolerance exact.

Each criterion is a finite exhaustive computation.  Run with
``pytest tests/test_acceptance.py -s`` to see one pass line per criterion.
"""

from itertools import combinations

from gqlab.atlas import atlas, enumerate_invertible_symmetric, label_of
from gqlab.checks import run_suite
from gqlab.exports import EXPORTERS, render_export
from gqlab.gf2 import SYM_IDENTITY, mat_rank, sym_det, sym_to_mat
from gqlab.pg import (
    ALL_ONES,
    elliptic_matrix_points,
    elliptic_quadric,
    elliptic_quadric_at,
    hyperbolic_form,
    klein_matrix_points,
    klein_quadric,
    minor_coordinates,
    perp_hyperplane,
    point_mask,
    polar_form,
    projective_index,
    tangent_matrix_lines_at_identity,
)
from gqlab.planes import (
    PLANE_DIAGONAL,
    PLANE_LEFT,
    PLANE_RIGHT,
    build_plane_model,
    group_orbits,
    intersection_dim,
    intersection_statistics,
    is_totally_isotropic,
    family_planes,
    minor_profiles,
    plane_of,
    plucker_unique_triples,
    skew_partner,
    spread,
)
from gqlab.quadrangle import (
    DOUBLE_SIX_ISOMORPHISM,
    build_double_six_model,
    build_matrix_quadrangle,
    build_quadric_quadrangle,
    collinearity,
    doily_substructure,
    find_isomorphism,
    hyperplane_section_survey,
    quadric_section,
    verify_gq_axioms,
    verify_isomorphism,
)
from test_quadrangle import collinear_matrices


def _passed(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS  {text}")


def test_criterion_01_enumeration():
    inv = enumerate_invertible_symmetric()
    assert len(inv) == 28
    at = atlas()
    assert SYM_IDENTITY in inv
    assert (len(at.d), len(at.u), len(at.v)) == (15, 6, 6)
    assert set(inv) == {SYM_IDENTITY, *at.points}
    _passed(1, "28 invertible symmetric matrices, classes 1/15/6/6")


def test_criterion_02_coordinate_identities():
    for x in range(64):
        assert sym_det(x) == hyperbolic_form(minor_coordinates(x))
    dets = [sym_det(x) for x in range(64)]
    coords = [minor_coordinates(x) for x in range(64)]
    for x in range(64):
        for y in range(64):
            assert polar_form(coords[x], coords[y]) == dets[x ^ y] ^ dets[x] ^ dets[y]
    assert len(set(coords)) == 64
    _passed(2, "det identity on 64 matrices, polar identity on 4096 pairs, bijective")


def test_criterion_03_quadric_counts_and_indices():
    assert klein_quadric().bit_count() == 35
    assert elliptic_quadric().bit_count() == 27
    assert projective_index(elliptic_quadric()) == 1
    assert projective_index(klein_quadric()) == 2
    for m in atlas().points:
        quadric = elliptic_quadric_at(m)
        assert quadric.bit_count() == 27
        assert projective_index(quadric) == 1
    _passed(3, "|Q0|=35 index 2, |Q|=27 index 1, all 27 shifted quadrics 27 points index 1")


def test_criterion_04_gq_axioms_all_models():
    models = (
        build_quadric_quadrangle(),
        build_matrix_quadrangle(),
        build_plane_model(),
        build_double_six_model(),
    )
    for inc in models:
        assert verify_gq_axioms(inc) == (2, 4)
        assert len(inc.points) == 27 and len(inc.lines) == 45
        adj = collinearity(inc)
        assert all(len(adj[p]) == 10 for p in inc.points)
    doily = doily_substructure()
    assert verify_gq_axioms(doily) == (2, 2)
    assert len(doily.lines) == 15
    section = quadric_section(ALL_ONES)
    assert verify_gq_axioms(section) == (2, 2)
    assert len(section.points) == 15 and len(section.lines) == 15
    _passed(4, "four GQ(2,4) models verify, 10 collinear each; doily and identity section are (2,2)")


def test_criterion_05_collinearity_case_split():
    at = atlas()
    dset = set(at.d)
    uvset = set(at.u) | set(at.v)
    pairs = 0
    for x, y in combinations(at.points, 2):
        bilinear = collinear_matrices(x, y)
        det_sum = sym_det(x ^ y)
        if (x in uvset and y in uvset) or (x in dset and y in dset):
            assert bilinear == (det_sum == 0)
        else:
            assert bilinear == (det_sum == 1)
        pairs += 1
    assert pairs == 351
    _passed(5, "polar collinearity equals the determinant case split on all 351 pairs")


def test_criterion_06_tangent_structure():
    at = atlas()
    perp = perp_hyperplane(ALL_ONES)
    wanted = (
        {ALL_ONES}
        | {minor_coordinates(x) for x in at.d}
        | {minor_coordinates(x ^ SYM_IDENTITY) for x in at.d}
    )
    assert perp == point_mask(wanted) and perp.bit_count() == 31
    tangent_triples = {point_mask((SYM_IDENTITY, x, x ^ SYM_IDENTITY)) for x in at.d}
    assert set(tangent_matrix_lines_at_identity(elliptic_matrix_points())) == tangent_triples
    assert set(tangent_matrix_lines_at_identity(klein_matrix_points())) == tangent_triples
    assert len(tangent_triples) == 15
    quadric = elliptic_matrix_points()
    assert quadric & point_mask(at.points) == point_mask(at.u) | point_mask(at.v)
    assert quadric & klein_matrix_points() == point_mask(x ^ SYM_IDENTITY for x in at.d)
    assert {x ^ SYM_IDENTITY for x in at.u} == set(at.u)
    assert {x ^ SYM_IDENTITY for x in at.v} == set(at.v)
    _passed(6, "perp of 1 is 1+D+D-translates; 15 tangent lines; class facts about the quadric")


def test_criterion_07_hyperplane_survey():
    survey = hyperplane_section_survey()
    assert survey.nondegenerate == 36
    assert survey.tangent == 27
    assert survey.all_gq22_pass
    _passed(7, "63 hyperplanes split into 36 GQ(2,2) sections and 27 tangent cones")


def test_criterion_08_plane_model_identities():
    planes = [plane_of(x) for x in range(64)]
    for x in range(64):
        for y in range(64):
            assert mat_rank(sym_to_mat(x ^ y)) + intersection_dim(planes[x], planes[y]) == 3
    for tag in ("U", "V"):
        family = spread(tag)
        covered = 0
        for i, p in enumerate(family):
            for q in family[i + 1 :]:
                assert intersection_dim(p, q) == 0
            covered |= p
        assert covered.bit_count() == 63
    for plane in list(family_planes().values()) + [PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL]:
        assert is_totally_isotropic(plane)
    assert plucker_unique_triples(minor_profiles()) == (
        (0, 4, 5),
        (1, 2, 3),
        (1, 3, 5),
        (0, 2, 4),
        (2, 3, 4),
        (0, 1, 5),
    )
    _passed(8, "rank/meet identity on 4096 pairs; two spreads; isotropy; minors reproduce coordinates")


def test_criterion_09_group_orbits():
    at = atlas()
    d_labels = {label_of(x) for x in at.d}
    for tag in ("U", "V"):
        orbits = group_orbits(tag)
        assert len(orbits) == 3
        for k, orbit in enumerate(orbits):
            assert len(orbit) == 7
            from_d = {lab for lab in orbit if lab in d_labels}
            assert len(from_d) == 5
            assert from_d & {"D1", "D2", "D3"} == {f"D{k + 1}"}
    _passed(9, "3 orbits of 7 = 5 D + 2 opposite for both order-7 groups")


def test_criterion_10_intersection_statistics():
    at = atlas()
    for versus in ("U", "V"):
        opposite = at.v if versus == "U" else at.u
        for x in at.d[:3]:
            prof = intersection_statistics(x, versus)
            assert (prof.points, prof.lines, prof.skew) == (4, 0, 2)
        for x in at.d[3:]:
            prof = intersection_statistics(x, versus)
            assert (prof.points, prof.lines, prof.skew) == (3, 1, 2)
        for x in opposite:
            prof = intersection_statistics(x, versus)
            assert (prof.points, prof.lines, prof.skew) == (4, 1, 1)
    for i in range(6):
        assert skew_partner(at.u[i]) == at.v[i]
    _passed(10, "profiles (4,0,2)/(3,1,2)/(4,1,1) in both orientations; U_i pairs with V_i")


def test_criterion_11_isomorphisms():
    matrix_model = build_matrix_quadrangle()
    double_six = build_double_six_model()
    ok, witness = verify_isomorphism(DOUBLE_SIX_ISOMORPHISM, matrix_model, double_six)
    assert ok, witness
    models = [
        build_quadric_quadrangle(),
        matrix_model,
        double_six,
        build_plane_model(),
    ]
    for a, b in combinations(models, 2):
        assert find_isomorphism(a, b) is not None
    corrupted = dict(DOUBLE_SIX_ISOMORPHISM)
    corrupted["D1"], corrupted["D2"] = corrupted["D2"], corrupted["D1"]
    ok, witness = verify_isomorphism(corrupted, matrix_model, double_six)
    assert not ok and witness
    _passed(11, "explicit table verifies; all 6 model pairs isomorphic; corrupted table fails")


def test_criterion_12_determinism_and_suite():
    for key in EXPORTERS:
        first = render_export(*key).encode("utf-8")
        second = render_export(*key).encode("utf-8")
        assert first == second
    suite = run_suite()
    assert suite.passed
    _passed(12, "byte-identical exports; full verification suite exits clean")
