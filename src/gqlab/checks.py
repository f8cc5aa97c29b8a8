"""The verification registry: every structural claim, checked exhaustively.

Check ids are stable across releases and grouped by area:

* ``sec2.*``  axioms and models of the quadrangle itself,
* ``sec3.*``  the 28 matrices and their algebra,
* ``sec4.*``  coordinates, quadratic forms, quadrics and the translation,
* ``sec5.*``  the plane representation.

The full table is reproduced in the README.  Checks are independent pure
functions; ``run_suite`` executes them in registry order, and a check that
raises becomes a failing report instead of stopping the suite.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import combinations
from typing import Callable

from gqlab import atlas as atlas_mod
from gqlab import pg
from gqlab import planes as planes_mod
from gqlab import quadrangle as quad
from gqlab.atlas import atlas, fano_action, label_of, multiplicative_closure
from gqlab.gf2 import (
    MAT_IDENTITY,
    SYM_IDENTITY,
    bits6,
    eigenspace_dim,
    mat_mul,
    mat_to_sym,
    sym_det,
    sym_to_mat,
)
from gqlab.reports import CheckReport, SuiteResult, make_report


class UnknownCheckIdError(ValueError):
    """A check filter matched nothing in the registry."""


def _order_of(inc: quad.IncidenceStructure) -> str:
    try:
        s, t = quad.verify_gq_axioms(inc)
        return f"order ({s},{t}), {len(inc.points)} points, {len(inc.lines)} lines"
    except quad.AxiomViolationError as exc:
        return f"axiom failure: {exc}"


def _degrees_ok(inc: quad.IncidenceStructure, want: int) -> bool:
    adj = quad.collinearity(inc)
    return all(len(adj[p]) == want for p in inc.points)


# ---------------------------------------------------------------- sec2


def _check_gq_quadric() -> CheckReport:
    inc = quad.build_quadric_quadrangle()
    actual = _order_of(inc)
    if not _degrees_ok(inc, 10):
        actual += "; wrong collinearity degree"
    return make_report(
        "sec2.gq-axioms-quadric",
        "the 27-point quadric with its 45 internal lines is a GQ of order (2,4)",
        "order (2,4), 27 points, 45 lines",
        actual,
    )


def _check_gq_double_six() -> CheckReport:
    inc = quad.build_double_six_model()
    actual = _order_of(inc)
    if not _degrees_ok(inc, 10):
        actual += "; wrong collinearity degree"
    return make_report(
        "sec2.gq-axioms-double-six",
        "the doily extended by the double six is a GQ of order (2,4)",
        "order (2,4), 27 points, 45 lines",
        actual,
    )


def _check_doily() -> CheckReport:
    inc = quad.doily_substructure()
    return make_report(
        "sec2.doily-substructure",
        "the 2-subset/perfect-matching structure is a GQ of order (2,2)",
        "order (2,2), 15 points, 15 lines",
        _order_of(inc),
    )


def _check_survey() -> CheckReport:
    survey = quad.hyperplane_section_survey()
    actual = (
        f"{survey.nondegenerate} sections of order (2,2), {survey.tangent} tangent"
        if survey.all_gq22_pass
        else "a non-degenerate section failed the (2,2) axioms"
    )
    return make_report(
        "sec2.hyperplane-survey",
        "36 hyperplane sections are GQ(2,2) copies, the other 27 are tangent cones",
        "36 sections of order (2,2), 27 tangent",
        actual,
    )


# ---------------------------------------------------------------- sec3


def _check_enumeration() -> CheckReport:
    inv = atlas_mod.enumerate_invertible_symmetric()
    at = atlas()
    sizes = (
        len(inv),
        1 if SYM_IDENTITY in inv else 0,
        len(at.d),
        len(at.u),
        len(at.v),
    )
    listed = set(inv) == {SYM_IDENTITY, *at.d, *at.u, *at.v}
    actual = f"total {sizes[0]} = identity {sizes[1]} + D {sizes[2]} + U {sizes[3]} + V {sizes[4]}"
    if not listed:
        actual += "; enumeration disagrees with the atlas"
    return make_report(
        "sec3.enumeration",
        "28 invertible symmetric matrices split into 1 + 15 + 6 + 6",
        "total 28 = identity 1 + D 15 + U 6 + V 6",
        actual,
    )


def _check_involutions() -> CheckReport:
    at = atlas()
    involutions = [
        label_of(x) for x in at.points if mat_mul(sym_to_mat(x), sym_to_mat(x)) == MAT_IDENTITY
    ]
    dims = {
        "D1..D3": sorted({eigenspace_dim(sym_to_mat(x)) for x in at.d[:3]}),
        "D4..D15": sorted({eigenspace_dim(sym_to_mat(x)) for x in at.d[3:]}),
        "U,V": sorted({eigenspace_dim(sym_to_mat(x)) for x in at.u + at.v}),
    }
    actual = f"involutions {involutions}; eigenspace dims {dims}"
    return make_report(
        "sec3.involutions",
        "D1, D2, D3 are the only involutions; eigenspace dimensions are 2/1/0",
        "involutions ['D1', 'D2', 'D3']; eigenspace dims "
        "{'D1..D3': [2], 'D4..D15': [1], 'U,V': [0]}",
        actual,
    )


def _is_gf8(closure: frozenset[int]) -> bool:
    field = closure | {0}
    if len(field) != 8:
        return False
    add_closed = all(a ^ b in field for a in field for b in field)
    elems = sorted(closure)
    mats = {x: sym_to_mat(x) for x in elems}
    mul_closed = all(
        mat_mul(mats[a], mats[b]) in {sym_to_mat(c) for c in closure} for a in elems for b in elems
    )
    commutative = all(
        mat_mul(mats[a], mats[b]) == mat_mul(mats[b], mats[a]) for a in elems for b in elems
    )
    return add_closed and mul_closed and commutative


def _check_gf8() -> CheckReport:
    at = atlas()
    u_cl = multiplicative_closure(at.u[0])
    v_cl = multiplicative_closure(at.v[0])
    parts = []
    for tag, cl, members in (("U", u_cl, at.u), ("V", v_cl, at.v)):
        ok = cl == frozenset((SYM_IDENTITY, *members)) and _is_gf8(cl)
        parts.append(f"{tag}: {'GF(8)' if ok else 'not a field'}")
    actual = "; ".join(parts)
    return make_report(
        "sec3.gf8-fields",
        "each eigenvalue-free class plus 0 and 1 is a field with 8 elements",
        "U: GF(8); V: GF(8)",
        actual,
    )


def _fano_line(points: tuple[int, ...]) -> bool:
    return len(points) == 3 and points[0] ^ points[1] == points[2]


def _check_fano_fixed() -> CheckReport:
    at = atlas()
    axial = all(
        len(fano_action(x).fixed_points) == 3 and _fano_line(fano_action(x).fixed_points)
        for x in at.d[:3]
    )
    single = all(len(fano_action(x).fixed_points) == 1 for x in at.d[3:])
    free = all(len(fano_action(x).fixed_points) == 0 for x in at.u + at.v)
    actual = f"axial {axial}, single fixed point {single}, fixed point free {free}"
    return make_report(
        "sec3.fano-fixed-points",
        "involutions fix a Fano line pointwise, other D one point, U and V none",
        "axial True, single fixed point True, fixed point free True",
        actual,
    )


def _check_singer() -> CheckReport:
    at = atlas()
    parts = []
    for tag, members in (("U", at.u), ("V", at.v)):
        cycles = all(
            len(fano_action(x).cycles()) == 1 and len(fano_action(x).cycles()[0]) == 7
            for x in members
        )
        closure = multiplicative_closure(members[0])
        regular = all(
            sum(1 for g in closure if fano_action(g).image_of(p) == q) == 1
            for p in range(1, 8)
            for q in range(1, 8)
        )
        parts.append(f"{tag}: 7-cycles {cycles}, regular {regular}")
    return make_report(
        "sec3.singer-cycles",
        "the order-7 groups act regularly on the Fano plane as Singer cycles",
        "U: 7-cycles True, regular True; V: 7-cycles True, regular True",
        "; ".join(parts),
    )


# ---------------------------------------------------------------- sec4


def _check_coordinates() -> CheckReport:
    images = {pg.minor_coordinates(x) for x in range(64)}
    inv_ok = all(pg.from_minor_coordinates(pg.minor_coordinates(x)) == x for x in range(64))
    identity_image = bits6(pg.minor_coordinates(SYM_IDENTITY))
    actual = (
        f"{len(images)} images, inverse ok {inv_ok}, identity -> {identity_image}"
    )
    return make_report(
        "sec4.coordinates-bijective",
        "the minor-coordinate map is a bijection sending the identity to 111111",
        "64 images, inverse ok True, identity -> 111111",
        actual,
    )


def _check_det_identity() -> CheckReport:
    bad = sum(1 for x in range(64) if sym_det(x) != pg.hyperbolic_form(pg.minor_coordinates(x)))
    return make_report(
        "sec4.det-identity",
        "det X equals the hyperbolic form of the coordinates, for all 64 X",
        "0 mismatches over 64 matrices",
        f"{bad} mismatches over 64 matrices",
    )


def _check_polarization() -> CheckReport:
    bad = 0
    coords = [pg.minor_coordinates(x) for x in range(64)]
    dets = [sym_det(x) for x in range(64)]
    for x in range(64):
        for y in range(64):
            if pg.polar_form(coords[x], coords[y]) != dets[x ^ y] ^ dets[x] ^ dets[y]:
                bad += 1
    return make_report(
        "sec4.polarization-identity",
        "the polar form equals det(X+Y)+det X+det Y on all 64x64 pairs",
        "0 mismatches over 4096 pairs",
        f"{bad} mismatches over 4096 pairs",
    )


# bit y of _LOW_HALVES[k] is set iff bit k of y is clear
_LOW_HALVES = tuple(sum(1 << y for y in range(64) if not y >> k & 1) for k in range(6))
_ALL_64 = (1 << 64) - 1


def _check_forms_share_polar() -> CheckReport:
    forms: list[Callable[[int], int]] = [pg.elliptic_form]
    forms += [(lambda v, m=m: pg.elliptic_form_at(m, v)) for m in atlas().points]
    # 64-bit tables: bit y of polar[x] is B(x, y), bit v of a value table is Q(v)
    polar = [sum(pg.polar_form(x, y) << y for y in range(64)) for x in range(64)]
    bad = 0
    for form in forms:
        values = sum(form(v) << v for v in range(1, 64))
        for x in range(64):
            # bit y of shifted is Q(x + y): swap the halves of each 2^k-block
            # for every bit k of x
            shifted = values
            for k, keep in enumerate(_LOW_HALVES):
                if x >> k & 1:
                    width = 1 << k
                    shifted = (shifted >> width & keep) | (shifted & keep) << width
            if values >> x & 1:
                shifted ^= _ALL_64
            bad += (shifted ^ values ^ polar[x]).bit_count()
    return make_report(
        "sec4.forms-share-polar",
        "the 28 shifted forms all polarize to the same bilinear form",
        "0 mismatches over 28 forms x 4096 pairs",
        f"{bad} mismatches over 28 forms x 4096 pairs",
    )


def _check_translation_form() -> CheckReport:
    bad = sum(
        1
        for x in range(64)
        if pg.elliptic_form(pg.minor_coordinates(x)) != pg.elliptic_form_sym(x)
    )
    for m in atlas().points:
        bad += sum(
            1
            for x in range(64)
            if pg.elliptic_form_at(m, pg.minor_coordinates(x)) != pg.elliptic_form_sym_at(m, x)
        )
    return make_report(
        "sec4.translation-form",
        "each shifted form evaluates as det(X+M)+1 on matrices",
        "0 mismatches over 28 forms x 64 matrices",
        f"{bad} mismatches over 28 forms x 64 matrices",
    )


def _check_klein() -> CheckReport:
    quadric = pg.klein_quadric()
    n_lines = len(pg.lines_in(quadric))
    idx = pg.projective_index(quadric)
    matrix_side = pg.klein_matrix_points()
    match = {pg.from_minor_coordinates(v) for v in quadric} == set(matrix_side)
    actual = f"{len(quadric)} points, index {idx}, {n_lines} lines, singular preimages {match}"
    return make_report(
        "sec4.klein-quadric",
        "the hyperbolic quadric has 35 points (the singular matrices) and index 2",
        "35 points, index 2, 105 lines, singular preimages True",
        actual,
    )


def _check_elliptic() -> CheckReport:
    quadric = pg.elliptic_quadric()
    actual = (
        f"{len(quadric)} points, index {pg.projective_index(quadric)}, "
        f"{len(pg.lines_in(quadric))} lines"
    )
    return make_report(
        "sec4.elliptic-quadric",
        "the shifted form cuts a 27-point quadric of projective index 1",
        "27 points, index 1, 45 lines",
        actual,
    )


def _check_complement() -> CheckReport:
    singular = pg.klein_matrix_points()
    invertible = set(atlas_mod.enumerate_invertible_symmetric())
    disjoint = not (singular & invertible)
    covers = (singular | invertible) == set(range(1, 64))
    actual = (
        f"disjoint {disjoint}, sizes {len(singular)}+{len(invertible)}, "
        f"covers PG(5,2) {covers}"
    )
    return make_report(
        "sec4.complement",
        "the invertible matrices are the set-theoretic complement of the Klein quadric",
        "disjoint True, sizes 35+28, covers PG(5,2) True",
        actual,
    )


def _check_translation_classes() -> CheckReport:
    at = atlas()
    u_fixed = {x ^ SYM_IDENTITY for x in at.u} == set(at.u)
    v_fixed = {x ^ SYM_IDENTITY for x in at.v} == set(at.v)
    d_out = not ({x ^ SYM_IDENTITY for x in at.d} & set(at.points))
    onto_quadric = {x ^ SYM_IDENTITY for x in at.points} == set(pg.elliptic_matrix_points())
    actual = (
        f"U fixed {u_fixed}, V fixed {v_fixed}, D leaves the point set {d_out}, "
        f"image is the quadric {onto_quadric}"
    )
    return make_report(
        "sec4.translation-classes",
        "the translation fixes U and V, moves D out, and maps the 27 points onto the quadric",
        "U fixed True, V fixed True, D leaves the point set True, image is the quadric True",
        actual,
    )


def _check_quadric_classes() -> CheckReport:
    at = atlas()
    quadric = pg.elliptic_matrix_points()
    s_cap = quadric & set(at.points)
    s_cap_ok = s_cap == set(at.u) | set(at.v)
    both = quadric & pg.klein_matrix_points()
    both_ok = both == {x ^ SYM_IDENTITY for x in at.d}
    actual = f"points on the quadric are U+V: {s_cap_ok}; overlap with Klein is D+1: {both_ok}"
    return make_report(
        "sec4.quadric-classes",
        "quadrangle points on the quadric are U and V; the two quadrics overlap in the D translates",
        "points on the quadric are U+V: True; overlap with Klein is D+1: True",
        actual,
    )


def _check_qm_family() -> CheckReport:
    at = atlas()
    points_ok = index_ok = bijection_ok = True
    for m in at.points:
        quadric = pg.elliptic_quadric_at(m)
        if len(quadric) != 27:
            points_ok = False
        if pg.projective_index(quadric) != 1:
            index_ok = False
        matrix_quadric = pg.elliptic_matrix_points_at(m)
        image = {x ^ m for x in at.points if x != m} | {m ^ SYM_IDENTITY}
        if image != set(matrix_quadric):
            bijection_ok = False
    actual = (
        f"27 quadrics: 27 points {points_ok}, index 1 {index_ok}, "
        f"translation bijection {bijection_ok}"
    )
    return make_report(
        "sec4.qm-family",
        "every shifted form cuts a 27-point index-1 quadric reached by its translation",
        "27 quadrics: 27 points True, index 1 True, translation bijection True",
        actual,
    )


def _check_collinearity_criterion() -> CheckReport:
    at = atlas()
    dset, uvset = set(at.d), set(at.u) | set(at.v)
    mismatches = 0
    for x, y in combinations(at.points, 2):
        bilinear = quad.collinear_matrices(x, y)
        det_sum = sym_det(x ^ y)
        if x in uvset and y in uvset:
            by_det = det_sum == 0
        elif x in dset and y in dset:
            by_det = det_sum == 0
        else:
            by_det = det_sum == 1
        if bilinear != by_det:
            mismatches += 1
    return make_report(
        "sec4.collinearity-criterion",
        "the polar criterion equals the determinant case split on all 351 pairs",
        "0 mismatches over 351 pairs",
        f"{mismatches} mismatches over 351 pairs",
    )


def _check_perp() -> CheckReport:
    at = atlas()
    perp = pg.perp_hyperplane(pg.ALL_ONES)
    wanted = (
        {pg.minor_coordinates(SYM_IDENTITY)}
        | {pg.minor_coordinates(x) for x in at.d}
        | {pg.minor_coordinates(x ^ SYM_IDENTITY) for x in at.d}
    )
    actual = f"{len(perp)} points, equals 1+D+translated D: {perp == wanted}"
    return make_report(
        "sec4.perp-hyperplane",
        "the perpendicular of the identity is the identity, D and the D translates",
        "31 points, equals 1+D+translated D: True",
        actual,
    )


def _check_tangent_lines() -> CheckReport:
    at = atlas()
    vs_quadric = set(pg.tangent_matrix_lines_at_identity(pg.elliptic_matrix_points()))
    vs_klein = set(pg.tangent_matrix_lines_at_identity(pg.klein_matrix_points()))
    wanted = {frozenset((SYM_IDENTITY, x, x ^ SYM_IDENTITY)) for x in at.d}
    actual = (
        f"{len(vs_quadric)} tangents, same for both quadrics {vs_quadric == vs_klein}, "
        f"equal to the translation triples {vs_quadric == wanted}"
    )
    return make_report(
        "sec4.tangent-lines",
        "the 15 matrix lines through 1 touching each quadric once are {1, X, X+1}, X in D",
        "15 tangents, same for both quadrics True, equal to the translation triples True",
        actual,
    )


def _check_tangent_section() -> CheckReport:
    at = atlas()
    section_pts = pg.elliptic_quadric() & pg.perp_hyperplane(pg.ALL_ONES)
    wanted = {pg.minor_coordinates(x ^ SYM_IDENTITY) for x in at.d}
    set_ok = section_pts == wanted
    section = quad.quadric_section(pg.ALL_ONES)
    order = _order_of(section)
    no_planes = pg.projective_index(section_pts) == 1
    iso = quad.find_isomorphism(section, quad.doily_substructure()) is not None
    actual = (
        f"section = translated D {set_ok}; {order}; index 1 {no_planes}; "
        f"isomorphic to the doily {iso}"
    )
    return make_report(
        "sec4.tangent-section",
        "the identity section is the D-translate quadric, a doily of order (2,2)",
        "section = translated D True; order (2,2), 15 points, 15 lines; index 1 True; "
        "isomorphic to the doily True",
        actual,
    )


def _check_matrix_quadrangle() -> CheckReport:
    inc = quad.build_matrix_quadrangle()
    actual = _order_of(inc)
    if not _degrees_ok(inc, 10):
        actual += "; wrong collinearity degree"
    ok, witness = quad.verify_isomorphism(
        quad.quadric_to_matrix_map(), inc, quad.build_quadric_quadrangle()
    )
    actual += f"; translation is an isomorphism {ok}" + (f" ({witness})" if witness else "")
    return make_report(
        "sec4.matrix-quadrangle",
        "the 27 matrices with translated quadric lines form GQ(2,4), isomorphic via x+1",
        "order (2,4), 27 points, 45 lines; translation is an isomorphism True",
        actual,
    )


# ---------------------------------------------------------------- sec5


def _check_plane_family() -> CheckReport:
    planes = planes_mod.family_planes()
    rank_ok = len(planes) == 27
    skew_ok = all(
        planes_mod.is_skew(p, planes_mod.PLANE_LEFT)
        and planes_mod.is_skew(p, planes_mod.PLANE_RIGHT)
        for p in planes.values()
    )
    actual = f"27 rank-3 planes {rank_ok}, all skew to (1|0) and (0|1) {skew_ok}"
    return make_report(
        "sec5.plane-family",
        "the 27 planes (X|1) have rank 3 and avoid the two coordinate planes",
        "27 rank-3 planes True, all skew to (1|0) and (0|1) True",
        actual,
    )


def _check_rank_meet() -> CheckReport:
    ok = planes_mod.rank_meet_identity_holds()
    return make_report(
        "sec5.rank-meet-identity",
        "rank(X+Y) + dim((X|1) cap (Y|1)) = 3 on all 64x64 symmetric pairs",
        "identity holds on 4096 pairs",
        "identity holds on 4096 pairs" if ok else "identity fails",
    )


def _check_meet_identity_plane() -> CheckReport:
    at = atlas()
    dims_d = [
        planes_mod.intersection_dim(planes_mod.plane_of(x), planes_mod.PLANE_DIAGONAL)
        for x in at.d
    ]
    line_meets = [f"D{i + 1}" for i, dim in enumerate(dims_d) if dim == 2]
    point_meets_ok = all(dim == 1 for dim in dims_d[3:])
    uv_skew = all(
        planes_mod.intersection_dim(planes_mod.plane_of(x), planes_mod.PLANE_DIAGONAL) == 0
        for x in at.u + at.v
    )
    actual = f"line meets {line_meets}, other D meet in a point {point_meets_ok}, U and V skew {uv_skew}"
    return make_report(
        "sec5.meet-identity-plane",
        "(X|1) meets (1|1) in a line exactly for the involutions, a point for other D",
        "line meets ['D1', 'D2', 'D3'], other D meet in a point True, U and V skew True",
        actual,
    )


def _check_group_action() -> CheckReport:
    at = atlas()
    parts = []
    for tag in ("U", "V"):
        group = planes_mod.conjugating_group(tag)
        mats = {g: sym_to_mat(g) for g in group}
        commutative = all(
            mat_mul(mats[a], mats[b]) == mat_mul(mats[b], mats[a])
            for a, b in combinations(group, 2)
        )
        domain = at.d + (at.v if tag == "U" else at.u)
        image = {(b, x): planes_mod.conjugate(b, x) for b in group for x in domain}
        action = True
        for a in group:
            for b in group:
                ab = mat_to_sym(mat_mul(mats[a], mats[b]))
                for x in domain:
                    if planes_mod.conjugate(ab, x) != planes_mod.conjugate(a, image[b, x]):
                        action = False
        parts.append(f"{tag}: commutative {commutative}, action {action}")
    return make_report(
        "sec5.group-action",
        "conjugation by the order-7 groups is a genuine commutative group action",
        "U: commutative True, action True; V: commutative True, action True",
        "; ".join(parts),
    )


def _orbit_shape(dec) -> str:
    at = atlas()
    d_labels = {label_of(x) for x in at.d}
    inv_labels = {"D1", "D2", "D3"}
    shapes = []
    for orbit in dec.orbits:
        from_d = sum(1 for lab in orbit if lab in d_labels)
        invs = sorted(set(orbit) & inv_labels)
        shapes.append(f"{len(orbit)} elements, {from_d} from D, involutions {invs}")
    return "; ".join(shapes)


def _check_orbits(tag: str) -> CheckReport:
    dec = planes_mod.group_orbits(tag)
    expected = (
        "7 elements, 5 from D, involutions ['D1']; "
        "7 elements, 5 from D, involutions ['D2']; "
        "7 elements, 5 from D, involutions ['D3']"
    )
    return make_report(
        f"sec5.orbits-{tag.lower()}-group",
        f"the {tag}-group has 3 orbits of 7 on the opposite 21 matrices, one involution each",
        expected,
        _orbit_shape(dec),
    )


def _check_orbits_u() -> CheckReport:
    return _check_orbits("U")


def _check_orbits_v() -> CheckReport:
    return _check_orbits("V")


def _check_collineation() -> CheckReport:
    at = atlas()
    group = planes_mod.conjugating_group("U") + planes_mod.conjugating_group("V")[1:]
    maps_ok = all(
        planes_mod.collineation_action(u, planes_mod.plane_of(x))
        == planes_mod.plane_of(planes_mod.conjugate(u, x))
        for u in group
        for x in at.points
    )
    all_planes = list(planes_mod.family_planes().values()) + [
        planes_mod.PLANE_LEFT,
        planes_mod.PLANE_RIGHT,
        planes_mod.PLANE_DIAGONAL,
    ]
    pairs = list(combinations(range(len(all_planes)), 2))
    dims = [planes_mod.intersection_dim(all_planes[i], all_planes[j]) for i, j in pairs]
    dims_ok = True
    for u in group:
        images = [planes_mod.collineation_action(u, p) for p in all_planes]
        if dims != [planes_mod.intersection_dim(images[i], images[j]) for i, j in pairs]:
            dims_ok = False
    actual = f"maps (X|1) to (UXU|1) {maps_ok}, preserves intersection dimensions {dims_ok}"
    return make_report(
        "sec5.collineation",
        "the block collineation (U, U^-1) realizes conjugation and preserves meets",
        "maps (X|1) to (UXU|1) True, preserves intersection dimensions True",
        actual,
    )


def _check_statistics() -> CheckReport:
    at = atlas()
    bad = []
    for versus in ("U", "V"):
        opposite = at.v if versus == "U" else at.u
        for x in at.d[:3]:
            prof = planes_mod.intersection_statistics(x, versus)
            if (prof.points, prof.lines, prof.skew) != (4, 0, 2):
                bad.append(f"{prof.label} vs {versus}")
        for x in at.d[3:]:
            prof = planes_mod.intersection_statistics(x, versus)
            if (prof.points, prof.lines, prof.skew) != (3, 1, 2):
                bad.append(f"{prof.label} vs {versus}")
        for x in opposite:
            prof = planes_mod.intersection_statistics(x, versus)
            if (prof.points, prof.lines, prof.skew) != (4, 1, 1):
                bad.append(f"{prof.label} vs {versus}")
    actual = "profiles (4,0,2)/(3,1,2)/(4,1,1) in both orientations" if not bad else f"wrong: {bad}"
    return make_report(
        "sec5.intersection-statistics",
        "meet profiles against each eigenvalue-free class match the three cases",
        "profiles (4,0,2)/(3,1,2)/(4,1,1) in both orientations",
        actual,
    )


def _check_skew_pairing() -> CheckReport:
    at = atlas()
    pairing_ok = all(
        planes_mod.skew_partner(at.u[i]) == at.v[i]
        and planes_mod.skew_partner(at.v[i]) == at.u[i]
        for i in range(6)
    )
    return make_report(
        "sec5.skew-pairing",
        "the unique opposite-class skew partner pairs U_i with V_i",
        "U_i paired with V_i for i = 1..6",
        "U_i paired with V_i for i = 1..6" if pairing_ok else "pairing broken",
    )


def _check_collinearity_transfer() -> CheckReport:
    at = atlas()
    dset = set(at.d)
    uv = set(at.u) | set(at.v)
    transfer_ok = True
    for x, y in combinations(at.points, 2):
        meet = planes_mod.intersection_dim(planes_mod.plane_of(x), planes_mod.plane_of(y)) > 0
        collinear = quad.collinear_matrices(x, y)
        if x in uv and y in uv:
            want = meet
        elif x in dset and y in dset:
            want = meet
        else:
            want = not meet
        if collinear != want:
            transfer_ok = False
    inc = quad.build_matrix_quadrangle()
    adj = quad.collinearity(inc)
    degree_ok = all(len(adj[p]) == 10 for p in inc.points)
    partners_ok = True
    u_labels = {label_of(x) for x in at.u}
    v_labels = {label_of(x) for x in at.v}
    d_labels = {label_of(x) for x in at.d}
    for y in at.d:
        near = adj[label_of(y)]
        from_u = sorted(near & u_labels)
        from_v = sorted(near & v_labels)
        in_d = sum(1 for lab in near if lab in d_labels)
        paired = {label_of(planes_mod.skew_partner(atlas().by_label[lab])) for lab in from_u}
        if len(from_u) != 2 or len(from_v) != 2 or in_d != 6 or paired != set(from_v):
            partners_ok = False
    actual = (
        f"meet/skew transfer {transfer_ok}, degree 10 {degree_ok}, "
        f"D partners 2+2 paired and 6 in D {partners_ok}"
    )
    return make_report(
        "sec5.collinearity-transfer",
        "collinearity means meeting inside a class and skewness across, with the stated counts",
        "meet/skew transfer True, degree 10 True, D partners 2+2 paired and 6 in D True",
        actual,
    )


def _check_iso_table() -> CheckReport:
    ok, witness = quad.verify_isomorphism(
        quad.DOUBLE_SIX_ISOMORPHISM,
        quad.build_matrix_quadrangle(),
        quad.build_double_six_model(),
    )
    return make_report(
        "sec5.iso-table",
        "the explicit U_i -> i, V_i -> i', D_j -> pair map is an isomorphism",
        "isomorphism verified",
        "isomorphism verified" if ok else f"failed: {witness}",
    )


def _check_model_isomorphisms() -> CheckReport:
    models = [
        quad.build_quadric_quadrangle(),
        quad.build_matrix_quadrangle(),
        quad.build_double_six_model(),
        planes_mod.build_plane_model(),
    ]
    found = sum(
        1 for a, b in combinations(models, 2) if quad.find_isomorphism(a, b) is not None
    )
    return make_report(
        "sec5.model-isomorphisms",
        "the search finds an isomorphism between every pair of the four models",
        "6 of 6 pairs isomorphic",
        f"{found} of 6 pairs isomorphic",
    )


REGISTRY: tuple[tuple[str, Callable[[], CheckReport]], ...] = (
    ("sec2.gq-axioms-quadric", _check_gq_quadric),
    ("sec2.gq-axioms-double-six", _check_gq_double_six),
    ("sec2.doily-substructure", _check_doily),
    ("sec2.hyperplane-survey", _check_survey),
    ("sec3.enumeration", _check_enumeration),
    ("sec3.involutions", _check_involutions),
    ("sec3.gf8-fields", _check_gf8),
    ("sec3.fano-fixed-points", _check_fano_fixed),
    ("sec3.singer-cycles", _check_singer),
    ("sec3.jordan-closure", atlas_mod.jordan_closure_check),
    ("sec4.coordinates-bijective", _check_coordinates),
    ("sec4.det-identity", _check_det_identity),
    ("sec4.polarization-identity", _check_polarization),
    ("sec4.forms-share-polar", _check_forms_share_polar),
    ("sec4.translation-form", _check_translation_form),
    ("sec4.klein-quadric", _check_klein),
    ("sec4.elliptic-quadric", _check_elliptic),
    ("sec4.complement", _check_complement),
    ("sec4.translation-classes", _check_translation_classes),
    ("sec4.quadric-classes", _check_quadric_classes),
    ("sec4.qm-family", _check_qm_family),
    ("sec4.collinearity-criterion", _check_collinearity_criterion),
    ("sec4.perp-hyperplane", _check_perp),
    ("sec4.tangent-lines", _check_tangent_lines),
    ("sec4.tangent-section", _check_tangent_section),
    ("sec4.matrix-quadrangle", _check_matrix_quadrangle),
    ("sec5.plane-family", _check_plane_family),
    ("sec5.rank-meet-identity", _check_rank_meet),
    ("sec5.plucker-coordinates", planes_mod.plucker_check),
    ("sec5.symplectic-isotropy", planes_mod.symplectic_isotropy_check),
    ("sec5.spreads", planes_mod.spread_check),
    ("sec5.meet-identity-plane", _check_meet_identity_plane),
    ("sec5.group-action", _check_group_action),
    ("sec5.orbits-u-group", _check_orbits_u),
    ("sec5.orbits-v-group", _check_orbits_v),
    ("sec5.collineation", _check_collineation),
    ("sec5.intersection-statistics", _check_statistics),
    ("sec5.skew-pairing", _check_skew_pairing),
    ("sec5.collinearity-transfer", _check_collinearity_transfer),
    ("sec5.iso-table", _check_iso_table),
    ("sec5.pi-plane-model", planes_mod.pi_plane_model_check),
    ("sec5.model-isomorphisms", _check_model_isomorphisms),
)

# check operations defined in domain modules and the registry id that runs them
COVERED_OPERATIONS: dict[str, str] = {
    "gqlab.atlas.jordan_closure_check": "sec3.jordan-closure",
    "gqlab.planes.plucker_check": "sec5.plucker-coordinates",
    "gqlab.planes.symplectic_isotropy_check": "sec5.symplectic-isotropy",
    "gqlab.planes.spread_check": "sec5.spreads",
    "gqlab.planes.pi_plane_model_check": "sec5.pi-plane-model",
    "gqlab.quadrangle.hyperplane_section_survey": "sec2.hyperplane-survey",
}


def check_ids() -> tuple[str, ...]:
    return tuple(check_id for check_id, _ in REGISTRY)


def run_suite(prefix: str | None = None) -> SuiteResult:
    """Run all registered checks, or those whose id starts with prefix.

    Raises UnknownCheckIdError when the filter matches nothing.  Reports
    come back in registry order with measured wall time.  A check that
    raises yields a failing report whose actual reads
    ``error: <Type>: <message>``; its traceback is logged, and the
    remaining checks still run.
    """
    selected = [
        (check_id, fn) for check_id, fn in REGISTRY if prefix is None or check_id.startswith(prefix)
    ]
    if not selected:
        raise UnknownCheckIdError(f"no registered check id starts with {prefix!r}")
    reports = []
    for check_id, fn in selected:
        started = time.perf_counter()
        try:
            report = fn()
        except Exception as exc:  # one broken check must not hide the others
            # imported only here: importing logging would add several ms to
            # the start-up of every CLI command
            import logging

            logging.getLogger(__name__).exception("check %s raised", check_id)
            report = make_report(
                check_id,
                "the check raised an exception",
                "no exception",
                f"error: {type(exc).__name__}: {exc}",
            )
        reports.append(replace(report, elapsed=time.perf_counter() - started))
    return SuiteResult(tuple(reports))


def suite_to_dict(suite: SuiteResult) -> dict:
    """Stable JSON-ready form of a suite result."""
    return {
        "schema": 1,
        "passed": suite.passed,
        "checks": [
            {
                "id": r.check_id,
                "description": r.description,
                "expected": r.expected,
                "actual": r.actual,
                "pass": r.passed,
                "elapsed_ms": round(r.elapsed * 1000.0, 3),
            }
            for r in suite.reports
        ],
    }
