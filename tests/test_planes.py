"""Tests for the plane representation of the quadrangle."""

import pytest

import gqlab.planes
import gqlab.quadrangle
from gqlab.atlas import (
    WrongClassError,
    atlas,
    classify,
    fano_action,
    label_of,
    multiplicative_closure,
)
from gqlab.checks import run_suite
from gqlab.gf2 import (
    SYM_IDENTITY,
    broadcast_lanes,
    det3,
    is_symmetric,
    mat_mul,
    mat_rank,
    mat_to_sym,
    row_rank,
    rref,
    sym_det,
    sym_entries,
    sym_to_mat,
)
from gqlab.pg import from_minor_coordinates, minor_coordinates, pg_planes, point_mask
from gqlab.planes import (
    COLUMN_TRIPLES,
    PLANE_DIAGONAL,
    PLANE_LEFT,
    PLANE_RIGHT,
    _all_planes,
    _block_collineation,
    build_plane_model,
    class_planes,
    collineation_action,
    conjugate,
    conjugates,
    conjugating_group,
    echelon,
    family_planes,
    group_orbits,
    intersection_dim,
    intersection_statistics,
    is_skew,
    is_totally_isotropic,
    make_plane,
    meet_rows,
    minor_lanes,
    minor_profiles,
    plane_of,
    plane_of_mat,
    plucker_unique_triples,
    rank_meet_identity_holds,
    raw_plane_rows,
    skew_partner,
    spread,
    symplectic_product,
)
from gqlab.quadrangle import AxiomViolationError, verify_gq_axioms


def test_plane_of_zero_is_right_block():
    assert plane_of(0) == PLANE_RIGHT


def test_plane_table_matches_the_span_of_the_rows_of_x_and_one():
    # the lane-built table against make_plane's span of the rows of (X|1)
    planes = _all_planes()
    assert len(planes) == 64
    for x in range(64):
        assert planes[x] == plane_of_mat(sym_to_mat(x))
        assert plane_of(x) == planes[x]


def test_plane_canonical_form_unique():
    # the same row space in a different basis reduces to the same plane
    p = plane_of(atlas().by_label["D1"])
    r0, r1, r2 = echelon(p)
    assert make_plane((r0 ^ r1, r1 ^ r2, r2)) == p


def test_make_plane_rejects_low_rank():
    for rows in [
        (0b100000,),
        (0b100000, 0b100000),
        (0, 0b100000, 0b010000),
        (0b100000, 0b100000, 0b010000),
        (0b100000, 0b010000, 0b110000),
    ]:
        with pytest.raises(ValueError, match="not a plane"):
            make_plane(rows)


def test_make_plane_accepts_four_rows_spanning_a_plane():
    rows = (0b100100, 0b010010, 0b110110, 0b001001)
    assert make_plane(rows) == PLANE_DIAGONAL
    assert make_plane(iter(rows)) == PLANE_DIAGONAL
    # four independent rows span a solid, not a plane
    with pytest.raises(ValueError, match="dimension 4"):
        make_plane((0b100000, 0b010000, 0b001000, 0b000100))


def test_make_plane_rejects_rows_outside_6_bits():
    for row in (64, 0b1_000001, -1):
        with pytest.raises(ValueError, match="0..63"):
            make_plane((0b100000, 0b010000, row))


def test_echelon_is_the_rref_of_the_spanning_rows():
    # (plane, rows spanning it): the 64 planes (X|1) with their raw rows,
    # the three distinguished planes with their echelon rows, and all 1395
    # planes with their 7 points
    cases = [(plane_of(x), raw_plane_rows(sym_to_mat(x))) for x in range(64)]
    cases += [
        (PLANE_LEFT, (0b100000, 0b010000, 0b001000)),
        (PLANE_RIGHT, (0b000100, 0b000010, 0b000001)),
        (PLANE_DIAGONAL, (0b100100, 0b010010, 0b001001)),
    ]
    cases += [(point_mask(points), points) for points in pg_planes()]
    assert len(cases) == 64 + 3 + 1395
    for plane, rows in cases:
        assert plane.bit_count() == 7 and not plane & 1
        assert echelon(plane) == rref(rows)
        assert make_plane(echelon(plane)) == plane == make_plane(rows)


def _reference_collineation_action(u, p):
    """The image of one plane, one point at a time: the OR of 1 << image[v]
    over the points v of p, kept as the oracle of the batch."""
    image = _block_collineation(u)
    out = 0
    while p:
        low = p & -p
        out |= 1 << image[low.bit_length() - 1]
        p ^= low
    return out


def test_collineation_action_matches_the_echelon_row_rule():
    # the rule it replaced: map the three echelon rows, then span them
    group = conjugating_group("U") + conjugating_group("V")[1:]
    planes = list(family_planes().values()) + [PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL]
    assert len(group) == 13 and len(planes) == 30
    for u in group:
        image = _block_collineation(u)
        wanted = [make_plane(image[r] for r in echelon(p)) for p in planes]
        assert list(collineation_action(u, planes)) == wanted


def test_collineation_action_batch_matches_the_per_point_loop():
    group = conjugating_group("U") + conjugating_group("V")[1:]
    for planes in ([plane_of(x) for x in range(64)], [PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL]):
        for u in group:
            images = collineation_action(u, planes)
            assert len(images) == len(planes)
            assert list(images) == [_reference_collineation_action(u, p) for p in planes]
    assert collineation_action(SYM_IDENTITY, []) == ()


def test_collineation_action_rejects_more_than_64_planes():
    planes = [plane_of(x) for x in range(64)] + [PLANE_LEFT]
    with pytest.raises(ValueError, match="at most 64 rows, got 65"):
        collineation_action(SYM_IDENTITY, planes)


def test_plane_points_count():
    for plane in list(family_planes().values()) + [PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL]:
        assert plane.bit_count() == 7


def test_meet_with_identity_plane():
    # (D1|1) meets (1|1) in a line, (D4|1) in a point, (U1|1) not at all
    assert intersection_dim(plane_of(atlas().by_label["D1"]), PLANE_DIAGONAL) == 2
    assert intersection_dim(plane_of(atlas().by_label["D4"]), PLANE_DIAGONAL) == 1
    assert intersection_dim(plane_of(atlas().by_label["U1"]), PLANE_DIAGONAL) == 0


def test_meet_identity_plane_split():
    at = atlas()
    for i, x in enumerate(at.d):
        want = 2 if i < 3 else 1
        assert intersection_dim(plane_of(x), PLANE_DIAGONAL) == want
    for x in at.u + at.v:
        assert is_skew(plane_of(x), PLANE_DIAGONAL)


def test_u1_v1_planes_skew():
    assert is_skew(plane_of(atlas().by_label["U1"]), plane_of(atlas().by_label["V1"]))


def test_rank_meet_identity_exhaustive():
    assert rank_meet_identity_holds()


def test_mask_meet_matches_stacked_rank():
    # reference: dim(P cap Q) = dim P + dim Q - rank of the stacked 6x6 rows
    planes = [plane_of(x) for x in range(64)] + [PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL]
    for p in planes:
        for q in planes:
            assert intersection_dim(p, q) == 6 - row_rank(echelon(p) + echelon(q))


def test_rank_meet_spot_values():
    # rank(D1+1) = 1 so the planes meet in dimension 2
    d1, one = atlas().by_label["D1"], SYM_IDENTITY
    assert mat_rank(sym_to_mat(d1 ^ one)) == 1
    assert intersection_dim(plane_of(d1), plane_of(one)) == 2


def test_family_all_skew_to_coordinate_planes():
    for plane in family_planes().values():
        assert is_skew(plane, PLANE_LEFT)
        assert is_skew(plane, PLANE_RIGHT)


def test_symplectic_isotropy():
    for plane in family_planes().values():
        assert is_totally_isotropic(plane)
    for plane in (PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL):
        assert is_totally_isotropic(plane)
    # single off-diagonal 1 is not symmetric; its plane is not isotropic
    assert not is_totally_isotropic(plane_of_mat(0b010_000_000))
    (report,) = run_suite("sec5.symplectic-isotropy").reports
    assert report.passed, report.actual


def test_symplectic_product_rows():
    # rows (x_i|e_i), (x_j|e_j) of (X|1) pair to X_ij + X_ji = 0
    rows = raw_plane_rows(sym_to_mat(atlas().by_label["D5"]))
    for i in range(3):
        for j in range(3):
            assert symplectic_product(rows[i], rows[j]) == 0


def test_spreads():
    for tag in ("U", "V"):
        planes = spread(tag)
        assert len(planes) == 9
        covered = 0
        for i, p in enumerate(planes):
            for q in planes[i + 1 :]:
                assert is_skew(p, q)
            covered |= p
        assert covered.bit_count() == 63
    assert set(spread("U")) & set(spread("V")) == {PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL}
    assert run_suite("sec5.spreads").passed
    with pytest.raises(ValueError):
        spread("D")


def plane_minor(rows, cols):
    """3x3 minor of a 3x6 matrix at the given columns (0-based from the left),
    one det3 call per minor: the reference of minor_lanes."""
    r0, r1, r2 = rows
    a, b, c = 5 - cols[0], 5 - cols[1], 5 - cols[2]
    return det3(
        (r0 >> a & 1) << 8 | (r0 >> b & 1) << 7 | (r0 >> c & 1) << 6
        | (r1 >> a & 1) << 5 | (r1 >> b & 1) << 4 | (r1 >> c & 1) << 3
        | (r2 >> a & 1) << 2 | (r2 >> b & 1) << 1 | r2 >> c & 1
    )


def test_plucker_minor_examples():
    rows = raw_plane_rows(sym_to_mat(atlas().by_label["D1"]))
    from gqlab.gf2 import sym_det

    # left block = det X, right block = det 1
    assert plane_minor(rows, (0, 1, 2)) == sym_det(atlas().by_label["D1"])
    assert plane_minor(rows, (3, 4, 5)) == 1
    # columns {1,5,6} pick out the entry a = 0 for D1
    assert plane_minor(rows, (0, 4, 5)) == 0


def _reference_plane_minor(rows, cols):
    """plane_minor as a loop over the 9 entries, kept as its oracle."""
    m = 0
    for r in range(3):
        for k, c in enumerate(cols):
            m |= (rows[r] >> (5 - c) & 1) << (8 - 3 * r - k)
    return det3(m)


def test_plane_minor_matches_loop_reference():
    row_sets = [raw_plane_rows(m) for m in range(512)]
    row_sets += [echelon(p) for p in (PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL)]
    for rows in row_sets:
        for cols in COLUMN_TRIPLES:
            assert plane_minor(rows, cols) == _reference_plane_minor(rows, cols)


def test_minor_lanes_match_the_det3_reference_on_all_mat3():
    # the rows (M|1) of all 512 Mat3, in 8 calls of 64 lanes
    for low in range(0, 512, 64):
        row_sets = [raw_plane_rows(m) for m in range(low, low + 64)]
        lanes = minor_lanes(row_sets)
        assert list(lanes) == list(COLUMN_TRIPLES)
        for cols, lane in lanes.items():
            wanted = [k for k, rows in enumerate(row_sets) if plane_minor(rows, cols)]
            assert lane == point_mask(wanted)
    echelons = [echelon(p) for p in (PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL)]
    assert minor_lanes(echelons)[(0, 1, 2)] == 0b101
    with pytest.raises(ValueError, match="at most 64 rows"):
        minor_lanes(echelons * 22)


def test_minor_profiles_match_one_plane_minor_per_point():
    rows = [raw_plane_rows(sym_to_mat(x)) for x in atlas().points]
    profiles = minor_profiles()
    assert list(profiles) == list(COLUMN_TRIPLES)
    for cols, profile in profiles.items():
        assert profile == tuple(plane_minor(r, cols) for r in rows)


def test_plucker_unique_triples_frozen():
    # oracle output: six multiplicity-one minors, in coordinate order
    assert plucker_unique_triples(minor_profiles()) == (
        (0, 4, 5),
        (1, 2, 3),
        (1, 3, 5),
        (0, 2, 4),
        (2, 3, 4),
        (0, 1, 5),
    )
    assert len(COLUMN_TRIPLES) == 20
    assert run_suite("sec5.plucker-coordinates").passed


def test_conjugating_groups():
    for tag in ("U", "V"):
        group = conjugating_group(tag)
        assert len(group) == 7 and SYM_IDENTITY in group
    with pytest.raises(ValueError):
        conjugating_group("D")


def test_conjugate_keeps_symmetry_and_class():
    at = atlas()
    u1 = at.u[0]
    image = conjugate(u1, at.d[0])
    assert image in at.d + at.v  # stays outside the acting group


def test_conjugates_match_the_scalar_conjugate():
    # the 13 group elements and every product ab that sec5.group-action forms
    groups = [conjugating_group(tag) for tag in ("U", "V")]
    elements = {u for group in groups for u in group}
    products = {
        mat_to_sym(mat_mul(sym_to_mat(a), sym_to_mat(b)))
        for group in groups
        for a in group
        for b in group
    }
    assert len(elements) == 13
    for u in elements | products:
        assert conjugates(u) == tuple(conjugate(u, x) for x in atlas().points)


def test_conjugates_raise_on_the_lowest_asymmetric_lane(monkeypatch):
    # a non-symmetric M in place of U: M X M is not symmetric for some X
    m = 0b110_010_001
    monkeypatch.setattr(gqlab.planes, "broadcast_lanes", lambda _, n: broadcast_lanes(m, n))
    products = [mat_mul(mat_mul(m, sym_to_mat(x)), m) for x in atlas().points]
    first = next(p for p in products if not is_symmetric(p))
    with pytest.raises(ValueError, match=f"^matrix {first:09b} is not symmetric$"):
        conjugates(SYM_IDENTITY)


def test_group_orbits_structure():
    at = atlas()
    d_labels = {label_of(x) for x in at.d}
    for tag in ("U", "V"):
        orbits = group_orbits(tag)
        assert len(orbits) == 3
        seen = set()
        for k, orbit in enumerate(orbits):
            assert len(orbit) == 7
            from_d = {lab for lab in orbit if lab in d_labels}
            assert len(from_d) == 5
            assert from_d & {"D1", "D2", "D3"} == {f"D{k + 1}"}
            seen |= set(orbit)
        assert len(seen) == 21


def test_collineation_action_rejects_a_negative_mask():
    with pytest.raises(ValueError, match="nonnegative point mask, got -1"):
        collineation_action(SYM_IDENTITY, [-1])
    with pytest.raises(ValueError, match="nonnegative point mask, got -1"):
        collineation_action(SYM_IDENTITY, [PLANE_LEFT, -1, PLANE_RIGHT])


def test_collineation_action_matches_conjugation():
    at = atlas()
    u = at.u[2]
    images = collineation_action(u, [plane_of(x) for x in at.points[:8]])
    assert list(images) == [plane_of(conjugate(u, x)) for x in at.points[:8]]
    assert collineation_action(SYM_IDENTITY, [PLANE_DIAGONAL]) == (PLANE_DIAGONAL,)


def test_collineation_preserves_intersection_dims():
    at = atlas()
    u = at.v[1]
    sample = [plane_of(x) for x in at.points[:10]] + [PLANE_DIAGONAL, PLANE_LEFT]
    images = collineation_action(u, sample)
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            assert intersection_dim(sample[i], sample[j]) == intersection_dim(
                images[i], images[j]
            )


def test_intersection_statistics_cases():
    prof = intersection_statistics(atlas().by_label["D1"])
    assert (prof.points, prof.lines, prof.skew) == (4, 0, 2)
    prof = intersection_statistics(atlas().by_label["D4"])
    assert (prof.points, prof.lines, prof.skew) == (3, 1, 2)
    prof = intersection_statistics(atlas().by_label["V1"])
    assert (prof.points, prof.lines, prof.skew) == (4, 1, 1)
    # roles of U and V interchanged
    prof = intersection_statistics(atlas().by_label["U1"])
    assert prof.versus == "V"
    assert (prof.points, prof.lines, prof.skew) == (4, 1, 1)
    prof = intersection_statistics(atlas().by_label["D1"], versus="V")
    assert (prof.points, prof.lines, prof.skew) == (4, 0, 2)


def test_intersection_statistics_rejects_own_class():
    with pytest.raises(WrongClassError):
        intersection_statistics(atlas().by_label["U1"], versus="U")
    with pytest.raises(WrongClassError):
        intersection_statistics(SYM_IDENTITY)


@pytest.mark.parametrize("read", [spread, conjugating_group, group_orbits])
def test_eigenvalue_free_readers_reject_other_tags(read):
    for tag in ("D", "X"):
        with pytest.raises(WrongClassError, match="must be U or V"):
            read(tag)


def test_intersection_statistics_versus_must_be_eigenvalue_free():
    # D is a class, but the statistics are taken against U or V only
    with pytest.raises(WrongClassError, match="must be U or V"):
        intersection_statistics(atlas().by_label["U1"], versus="D")


def test_skew_partner_pairing():
    at = atlas()
    for i in range(6):
        assert skew_partner(at.u[i]) == at.v[i]
        assert skew_partner(at.v[i]) == at.u[i]
    for label, x in (("D1", at.by_label["D1"]), ("1", SYM_IDENTITY)):
        with pytest.raises(WrongClassError, match=f"^{label} is not in U or V"):
            skew_partner(x)


@pytest.mark.parametrize("skew, count", [(True, 6), (False, 0)], ids=["every", "none"])
def test_skew_partner_names_a_count_other_than_one(monkeypatch, skew, count):
    # a skew test that holds for every pair, or for none, leaves U1 with
    # every V plane or none as partner
    monkeypatch.setattr(gqlab.planes, "is_skew", lambda p, q: skew)
    with pytest.raises(ValueError) as err:
        skew_partner(atlas().by_label["U1"])
    assert str(err.value) == f"U1 has {count} skew partners"


def test_meet_rows_name_a_negative_plane():
    with pytest.raises(ValueError, match=r"in 0\.\.2\*\*64-1, got -8$"):
        meet_rows([-8])
    with pytest.raises(ValueError, match=r"in 0\.\.2\*\*64-1, got -8$"):
        meet_rows([PLANE_LEFT, -8, -1])


def test_meet_rows_agree_with_intersection_dim():
    planes = [*family_planes().values(), PLANE_LEFT, PLANE_RIGHT, PLANE_DIAGONAL]
    rows = meet_rows(planes)
    assert len(rows) == 30
    for p, row in zip(planes, rows):
        assert [row >> j & 1 for j in range(30)] == [intersection_dim(p, q) > 0 for q in planes]


def test_plane_model():
    model = build_plane_model()
    assert len(model.points) == 27 and len(model.lines) == 45
    assert verify_gq_axioms(model) == (2, 4)
    (report,) = run_suite("sec5.pi-plane-model").reports
    assert report.passed, report.actual


def test_pi_plane_model_check_catches_only_axiom_violations(monkeypatch):
    def violated(model):
        raise AxiomViolationError("unique perpendicular", "planted")

    monkeypatch.setattr(gqlab.quadrangle, "verify_gq_axioms", violated)
    (report,) = run_suite("sec5.pi-plane-model").reports
    assert not report.passed and report.actual.endswith("order None")

    def broken(model):
        raise KeyError("planted")

    # any other exception is not swallowed: it surfaces as the suite's error report
    monkeypatch.setattr(gqlab.quadrangle, "verify_gq_axioms", broken)
    (report,) = run_suite("sec5.pi-plane-model").reports
    assert not report.passed and report.actual == "error: KeyError: 'planted'"


def test_plane_model_point_characterization():
    at = atlas()
    translated = {x ^ SYM_IDENTITY for x in at.points}
    for y in translated:
        assert is_skew(plane_of(y), PLANE_DIAGONAL)
    assert 0 not in translated  # (0|1) is excluded
    # U1 + 1 stays in U, hence rank(U1+1+1) = rank(U1) = 3
    u1 = atlas().by_label["U1"]
    assert is_skew(plane_of(u1 ^ SYM_IDENTITY), PLANE_DIAGONAL)


def test_class_planes_counts():
    assert len(class_planes("D")) == 15
    assert len(class_planes("U")) == len(class_planes("V")) == 6
    with pytest.raises(ValueError):
        class_planes("X")


@pytest.mark.parametrize(
    "call",
    [
        classify,
        fano_action,
        plane_of,
        intersection_statistics,
        skew_partner,
        multiplicative_closure,
        minor_coordinates,
        lambda x: conjugate(x, atlas().by_label["D1"]),
        conjugates,
        lambda x: collineation_action(x, [PLANE_LEFT]),
        sym_det,
        sym_entries,
        sym_to_mat,
        from_minor_coordinates,
        label_of,
    ],
    ids=[
        "classify",
        "fano_action",
        "plane_of",
        "intersection_statistics",
        "skew_partner",
        "multiplicative_closure",
        "minor_coordinates",
        "conjugate",
        "conjugates",
        "collineation_action",
        "sym_det",
        "sym_entries",
        "sym_to_mat",
        "from_minor_coordinates",
        "label_of",
    ],
)
@pytest.mark.parametrize("x", [64 + atlas().by_label["U1"], -1], ids=["64+U1", "-1"])
def test_packed_matrices_outside_0_63_are_rejected(call, x):
    with pytest.raises(ValueError, match="0..63"):
        call(x)
