"""The verification registry: every structural claim, checked exhaustively.

Check ids are stable across releases and grouped by area:

* ``sec2.*``  axioms and models of the quadrangle itself,
* ``sec3.*``  the 28 matrices and their algebra,
* ``sec4.*``  coordinates, quadratic forms, quadrics and the translation,
* ``sec5.*``  the plane representation.

Each check is declared once with ``@check(id, claim, expected)`` and returns
only what it actually saw; registration order is the suite order.  The
README's check table lists the same ids and claims in the same order, and a
test keeps the two in step.  Checks are independent pure functions;
``run_suite`` executes them in registry order, and a check that raises
becomes a failing report instead of stopping the suite.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable
from functools import partial
from itertools import combinations
from operator import itemgetter

from gqlab import atlas as atlas_mod
from gqlab import pg
from gqlab import planes as planes_mod
from gqlab import quadrangle as quad
from gqlab.atlas import atlas, fano_action, label_of, multiplicative_closure, opposite
from gqlab.gf2 import (
    MAT_IDENTITY,
    SYM_IDENTITY,
    asymmetric_lanes,
    bits6,
    eigenspace_dim,
    inverse3,
    is_symmetric,
    lanes_mul,
    mat_mul,
    mat_to_sym,
    parse_bits6,
    sym_to_mat,
)


# Outcome of one identified verification check.  A report passes iff the
# printable forms of expected and actual agree, so every check states up
# front what it must see.
CheckReport = namedtuple(
    "CheckReport", "check_id description expected actual passed elapsed", defaults=(0.0,)
)


def make_report(check_id: str, description: str, expected: object, actual: object) -> CheckReport:
    exp, act = str(expected), str(actual)
    return CheckReport(check_id, description, exp, act, exp == act)


class SuiteResult(namedtuple("SuiteResult", "reports")):
    """Ordered collection of check reports; passes iff every member passes."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


class UnknownCheckIdError(ValueError):
    """A check filter matched nothing in the registry."""


# (check id, callable returning its report), in suite order; run_suite reads
# it at call time, so a caller may wrap the callables in place
REGISTRY: tuple[tuple[str, Callable[[], CheckReport]], ...] = ()


def check(check_id: str, description: str, expected: str):
    """Register the decorated function as the check ``check_id``.

    The function returns the actual value; the registered callable wraps it
    in a report that passes iff its printable form equals ``expected``.
    """

    def register(fn: Callable[[], object]) -> Callable[[], object]:
        global REGISTRY
        REGISTRY += ((check_id, lambda: make_report(check_id, description, expected, fn())),)
        return fn

    return register


def _order_of(inc: quad.IncidenceStructure) -> str:
    try:
        s, t = quad.verify_gq_axioms(inc)
        return f"order ({s},{t}), {len(inc.points)} points, {len(inc.lines)} lines"
    except quad.AxiomViolationError as exc:
        return f"axiom failure: {exc}"


def _gq24_order(inc: quad.IncidenceStructure) -> str:
    """The order of inc, flagged if some point is not collinear with exactly 10."""
    actual = _order_of(inc)
    if any(degree != 10 for degree in quad.compile_structure(inc).degrees):
        actual += "; wrong collinearity degree"
    return actual


# ---------------------------------------------------------------- sec2


@check(
    "sec2.gq-axioms-quadric",
    "the 27-point quadric with its 45 internal lines is a GQ of order (2,4)",
    "order (2,4), 27 points, 45 lines",
)
def _check_gq_quadric() -> str:
    return _gq24_order(quad.build_quadric_quadrangle())


@check(
    "sec2.gq-axioms-double-six",
    "the doily extended by the double six is a GQ of order (2,4)",
    "order (2,4), 27 points, 45 lines",
)
def _check_gq_double_six() -> str:
    return _gq24_order(quad.build_double_six_model())


@check(
    "sec2.doily-substructure",
    "the 2-subset/perfect-matching structure is a GQ of order (2,2)",
    "order (2,2), 15 points, 15 lines",
)
def _check_doily() -> str:
    return _order_of(quad.doily_substructure())


@check(
    "sec2.hyperplane-survey",
    "36 hyperplane sections are GQ(2,2) copies, the other 27 are tangent cones",
    "36 sections of order (2,2), 27 tangent",
)
def _check_survey() -> str:
    survey = quad.hyperplane_section_survey()
    if not survey.all_gq22_pass:
        return "a non-degenerate section failed the (2,2) axioms"
    return f"{survey.nondegenerate} sections of order (2,2), {survey.tangent} tangent"


# ---------------------------------------------------------------- sec3


@check(
    "sec3.enumeration",
    "28 invertible symmetric matrices split into 1 + 15 + 6 + 6",
    "total 28 = identity 1 + D 15 + U 6 + V 6",
)
def _check_enumeration() -> str:
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
    return actual


@check(
    "sec3.involutions",
    "D1, D2, D3 are the only involutions; eigenspace dimensions are 2/1/0",
    "involutions ['D1', 'D2', 'D3']; eigenspace dims "
    "{'D1..D3': [2], 'D4..D15': [1], 'U,V': [0]}",
)
def _check_involutions() -> str:
    at = atlas()
    involutions = [
        label_of(x) for x in at.points if mat_mul(sym_to_mat(x), sym_to_mat(x)) == MAT_IDENTITY
    ]
    dims = {
        "D1..D3": sorted({eigenspace_dim(sym_to_mat(x)) for x in at.d[:3]}),
        "D4..D15": sorted({eigenspace_dim(sym_to_mat(x)) for x in at.d[3:]}),
        "U,V": sorted({eigenspace_dim(sym_to_mat(x)) for x in at.u + at.v}),
    }
    return f"involutions {involutions}; eigenspace dims {dims}"


def _products(elems: Iterable[int]) -> tuple[dict[tuple[int, int], int], bool]:
    """The mat_mul table of the packed matrices elems over their ordered
    pairs, each multiplied once, and whether it is commutative."""
    mats = {x: sym_to_mat(x) for x in elems}
    table = {(a, b): mat_mul(mats[a], mats[b]) for a in mats for b in mats}
    return table, all(table[a, b] == table[b, a] for a, b in combinations(mats, 2))


def _is_gf8(closure: frozenset[int]) -> bool:
    field = closure | {0}
    if len(field) != 8:
        return False
    add_closed = all(a ^ b in field for a in field for b in field)
    products, commutative = _products(sorted(closure))
    mul_closed = set(products.values()) <= set(map(sym_to_mat, closure))
    return add_closed and mul_closed and commutative


@check(
    "sec3.gf8-fields",
    "each eigenvalue-free class plus 0 and 1 is a field with 8 elements",
    "U: GF(8); V: GF(8)",
)
def _check_gf8() -> str:
    at = atlas()
    parts = []
    for tag in ("U", "V"):
        cl = multiplicative_closure(at.members(tag)[0])
        ok = cl == frozenset((SYM_IDENTITY, *at.members(tag))) and _is_gf8(cl)
        parts.append(f"{tag}: {'GF(8)' if ok else 'not a field'}")
    return "; ".join(parts)


def _fano_line(points: tuple[int, ...]) -> bool:
    return len(points) == 3 and points[0] ^ points[1] == points[2]


@check(
    "sec3.fano-fixed-points",
    "involutions fix a Fano line pointwise, other D one point, U and V none",
    "axial True, single fixed point True, fixed point free True",
)
def _check_fano_fixed() -> str:
    at = atlas()
    axial = all(_fano_line(fano_action(x).fixed_points) for x in at.d[:3])
    single = all(len(fano_action(x).fixed_points) == 1 for x in at.d[3:])
    free = all(len(fano_action(x).fixed_points) == 0 for x in at.u + at.v)
    return f"axial {axial}, single fixed point {single}, fixed point free {free}"


@check(
    "sec3.singer-cycles",
    "the order-7 groups act regularly on the Fano plane as Singer cycles",
    "U: 7-cycles True, regular True; V: 7-cycles True, regular True",
)
def _check_singer() -> str:
    at = atlas()
    parts = []
    for tag in ("U", "V"):
        cycles = all([len(c) for c in fano_action(x).cycles()] == [7] for x in at.members(tag))
        actions = [fano_action(g) for g in multiplicative_closure(at.members(tag)[0])]
        # column p - 1 of the image tuples holds the images of point p
        columns = zip(*(a.images for a in actions))
        regular = all(sorted(column) == [*range(1, 8)] for column in columns)
        parts.append(f"{tag}: 7-cycles {cycles}, regular {regular}")
    return "; ".join(parts)


@check(
    "sec3.jordan-closure",
    "inverse and (A,B) -> ABA stay inside the symmetric matrices",
    "closed for all 28x64 pairs",
)
def _check_jordan_closure() -> str:
    bad = []
    mats = [sym_to_mat(b) for b in range(64)]
    invertible = atlas_mod.enumerate_invertible_symmetric()
    # bit 64i + b of a wide lane stands for the pair (A_i, B): block i of A's
    # lane k is all ones or all zeros by bit k of A_i, and every block of B's
    # lane k is the lane k of all 64 B, so one pair of wide lane products
    # decides A*B*A for every pair
    a_mats = [mats[a] for a in invertible]
    a_lanes = [pg.pack([m >> k & 1 for m in a_mats]) * ((1 << 64) - 1) for k in range(9)]
    one_per_block = pg.pack([1] * len(invertible))
    b_lanes = [lane * one_per_block for lane in pg.transposed(mats)[:9]]
    asymmetric = asymmetric_lanes(lanes_mul(lanes_mul(a_lanes, b_lanes), a_lanes))
    for a, row in zip(invertible, pg.rows(asymmetric)):
        if not is_symmetric(inverse3(mats[a])):
            bad.append(f"inverse({a:06b})")
        bad.extend(f"{a:06b}*{b:06b}*{a:06b}" for b in pg.bit_indices(row))
    return "closed for all 28x64 pairs" if not bad else f"violations: {bad[:3]}"


# ---------------------------------------------------------------- sec4


@check(
    "sec4.coordinates-bijective",
    "the minor-coordinate map is a bijection sending the identity to 111111",
    "64 images, inverse ok True, identity -> 111111",
)
def _check_coordinates() -> str:
    images = {pg.minor_coordinates(x) for x in range(64)}
    inv_ok = all(pg.from_minor_coordinates(pg.minor_coordinates(x)) == x for x in range(64))
    identity_image = bits6(pg.minor_coordinates(SYM_IDENTITY))
    return f"{len(images)} images, inverse ok {inv_ok}, identity -> {identity_image}"


def _by_matrix(tables: Iterable[int]) -> list[int]:
    """Coordinate-indexed value tables re-indexed by matrix: bit x of each
    entry is bit minor_coordinates(x) of its table.  The tables, at most 64,
    are transposed, their rows permuted by coordinates() and transposed back;
    more raise transposed's ValueError."""
    tables = list(tables)
    by_vector = pg.transposed(tables)
    return list(pg.transposed([by_vector[v] for v in pg.coordinates()])[: len(tables)])


@check(
    "sec4.det-identity",
    "det X equals the hyperbolic form of the coordinates, for all 64 X",
    "0 mismatches over 64 matrices",
)
def _check_det_identity() -> str:
    (by_matrix,) = _by_matrix([pg.hyperbolic_table()])
    bad = (pg.det_table() ^ by_matrix).bit_count()
    return f"{bad} mismatches over 64 matrices"


@check(
    "sec4.polarization-identity",
    "the polar form equals det(X+Y)+det X+det Y on all 64x64 pairs",
    "0 mismatches over 4096 pairs",
)
def _check_polarization() -> str:
    # entry y: bit x of the polar side is B(coordinates of x, coordinates of y)
    by_polar = pg.pack(_by_matrix(pg.polar_column(v) for v in pg.coordinates()))
    bad = (by_polar ^ pg.polarized(pg.det_table())).bit_count()
    return f"{bad} mismatches over 4096 pairs"


@check(
    "sec4.forms-share-polar",
    "the 28 shifted forms all polarize to the same bilinear form",
    "0 mismatches over 28 forms x 4096 pairs",
)
def _check_forms_share_polar() -> str:
    forms = atlas_mod.enumerate_invertible_symmetric()
    tables = [pg.ALL_POINTS & pg.elliptic_table(m) for m in forms]
    polar = pg.pack([pg.polar_column(y) for y in range(64)])
    bad = sum((pg.polarized(values) ^ polar).bit_count() for values in tables)
    return f"{bad} mismatches over 28 forms x 4096 pairs"


@check(
    "sec4.translation-form",
    "each shifted form evaluates as det(X+M)+1 on matrices",
    "0 mismatches over 28 forms x 64 matrices",
)
def _check_translation_form() -> str:
    # bit x of the matrix side is det(X + M) + 1
    forms = atlas_mod.enumerate_invertible_symmetric()
    bad = sum(
        64 - (t ^ pg.translate_mask(pg.det_table(), m)).bit_count()
        for m, t in zip(forms, _by_matrix(pg.elliptic_table(m) for m in forms))
    )
    return f"{bad} mismatches over 28 forms x 64 matrices"


@check(
    "sec4.klein-quadric",
    "the hyperbolic quadric has 35 points (the singular matrices) and index 2",
    "35 points, index 2, 105 lines, singular preimages True",
)
def _check_klein() -> str:
    quadric = pg.klein_quadric()
    lines = pg.lines_in([quadric])[0]
    idx = pg.projective_index(quadric, lines)
    preimages = pg.point_mask(map(pg.from_minor_coordinates, pg.bit_indices(quadric)))
    match = preimages == pg.klein_matrix_points()
    return f"{quadric.bit_count()} points, index {idx}, {len(lines)} lines, singular preimages {match}"


@check(
    "sec4.elliptic-quadric",
    "the shifted form cuts a 27-point quadric of projective index 1",
    "27 points, index 1, 45 lines",
)
def _check_elliptic() -> str:
    quadric = pg.elliptic_quadric()
    lines = pg.lines_in([quadric])[0]
    idx = pg.projective_index(quadric, lines)
    return f"{quadric.bit_count()} points, index {idx}, {len(lines)} lines"


@check(
    "sec4.complement",
    "the invertible matrices are the set-theoretic complement of the Klein quadric",
    "disjoint True, sizes 35+28, covers PG(5,2) True",
)
def _check_complement() -> str:
    singular = pg.klein_matrix_points()
    invertible = pg.point_mask(atlas_mod.enumerate_invertible_symmetric())
    disjoint = not (singular & invertible)
    covers = (singular | invertible) == pg.ALL_POINTS
    return (
        f"disjoint {disjoint}, sizes {singular.bit_count()}+{invertible.bit_count()}, "
        f"covers PG(5,2) {covers}"
    )


def _translated(xs: Iterable[int]) -> int:
    """Point mask of the images of matrix points under x -> x + 1."""
    return pg.point_mask(x ^ SYM_IDENTITY for x in xs)


@check(
    "sec4.translation-classes",
    "the translation fixes U and V, moves D out, and maps the 27 points onto the quadric",
    "U fixed True, V fixed True, D leaves the point set True, image is the quadric True",
)
def _check_translation_classes() -> str:
    at = atlas()
    u_fixed = _translated(at.u) == pg.point_mask(at.u)
    v_fixed = _translated(at.v) == pg.point_mask(at.v)
    d_out = not (_translated(at.d) & pg.point_mask(at.points))
    onto_quadric = _translated(at.points) == pg.elliptic_matrix_points()
    return (
        f"U fixed {u_fixed}, V fixed {v_fixed}, D leaves the point set {d_out}, "
        f"image is the quadric {onto_quadric}"
    )


@check(
    "sec4.quadric-classes",
    "quadrangle points on the quadric are U and V; the two quadrics overlap in the D translates",
    "points on the quadric are U+V: True; overlap with Klein is D+1: True",
)
def _check_quadric_classes() -> str:
    at = atlas()
    quadric = pg.elliptic_matrix_points()
    s_cap_ok = (quadric & pg.point_mask(at.points)) == pg.point_mask(at.u + at.v)
    both_ok = (quadric & pg.klein_matrix_points()) == _translated(at.d)
    return f"points on the quadric are U+V: {s_cap_ok}; overlap with Klein is D+1: {both_ok}"


@check(
    "sec4.qm-family",
    "every shifted form cuts a 27-point index-1 quadric reached by its translation",
    "27 quadrics: 27 points True, index 1 True, translation bijection True",
)
def _check_qm_family() -> str:
    at = atlas()
    quadrics = [pg.elliptic_quadric_at(m) for m in at.points]
    indices = map(pg.projective_index, quadrics, pg.lines_in(quadrics))
    points_ok = index_ok = bijection_ok = True
    for m, quadric, index in zip(at.points, quadrics, indices):
        if quadric.bit_count() != 27:
            points_ok = False
        if index != 1:
            index_ok = False
        image = pg.point_mask([x ^ m for x in at.points if x != m]) | 1 << (m ^ SYM_IDENTITY)
        if image != pg.elliptic_matrix_points_at(m):
            bijection_ok = False
    return (
        f"27 quadrics: 27 points {points_ok}, index 1 {index_ok}, "
        f"translation bijection {bijection_ok}"
    )


@check(
    "sec4.collinearity-criterion",
    "the polar criterion equals the determinant case split on all 351 pairs",
    "0 mismatches over 351 pairs",
)
def _check_collinearity_criterion() -> str:
    at = atlas()
    points, d, dets = pg.point_mask(at.points), pg.point_mask(at.d), pg.det_table()
    coords = pg.coordinates()
    # bit x: B(coordinates of X, coordinates of Y + 1)
    polar = _by_matrix(pg.polar_column(coords[y ^ SYM_IDENTITY]) for y in at.points)
    mismatches = 0
    for y, by_polar in zip(at.points, polar):
        # bit x: det(X+Y) = 0 within one of the classes D and U+V, 1 across
        by_det = pg.translate_mask(dets, y) ^ (d if d >> y & 1 else ~d)
        # bit x: the polar form of the translated coordinates does not vanish
        by_polar = pg.translate_mask(by_polar, SYM_IDENTITY)
        mismatches += (~(by_det ^ by_polar) & points & -(2 << y)).bit_count()
    return f"{mismatches} mismatches over 351 pairs"


@check(
    "sec4.perp-hyperplane",
    "the perpendicular of the identity is the identity, D and the D translates",
    "31 points, equals 1+D+translated D: True",
)
def _check_perp() -> str:
    at = atlas()
    perp = pg.perp_hyperplane(pg.ALL_ONES)
    wanted = (
        1 << pg.minor_coordinates(SYM_IDENTITY)
        | pg.point_mask(pg.minor_coordinates(x) for x in at.d)
        | pg.point_mask(pg.minor_coordinates(x ^ SYM_IDENTITY) for x in at.d)
    )
    return f"{perp.bit_count()} points, equals 1+D+translated D: {perp == wanted}"


@check(
    "sec4.tangent-lines",
    "the 15 matrix lines through 1 touching each quadric once are {1, X, X+1}, X in D",
    "15 tangents, same for both quadrics True, equal to the translation triples True",
)
def _check_tangent_lines() -> str:
    at = atlas()
    vs_quadric = set(pg.tangent_matrix_lines_at_identity(pg.elliptic_matrix_points()))
    vs_klein = set(pg.tangent_matrix_lines_at_identity(pg.klein_matrix_points()))
    wanted = {pg.point_mask((SYM_IDENTITY, x, x ^ SYM_IDENTITY)) for x in at.d}
    return (
        f"{len(vs_quadric)} tangents, same for both quadrics {vs_quadric == vs_klein}, "
        f"equal to the translation triples {vs_quadric == wanted}"
    )


@check(
    "sec4.tangent-section",
    "the identity section is the D-translate quadric, a doily of order (2,2)",
    "section = translated D True; order (2,2), 15 points, 15 lines; index 1 True; "
    "isomorphic to the doily True",
)
def _check_tangent_section() -> str:
    at = atlas()
    section_pts = pg.elliptic_quadric() & pg.perp_hyperplane(pg.ALL_ONES)
    set_ok = section_pts == pg.point_mask(pg.minor_coordinates(x ^ SYM_IDENTITY) for x in at.d)
    section = quad.quadric_section(pg.ALL_ONES)
    order = _order_of(section)
    no_planes = pg.projective_index(section_pts) == 1
    iso = quad.find_isomorphism(section, quad.doily_substructure()) is not None
    return (
        f"section = translated D {set_ok}; {order}; index 1 {no_planes}; "
        f"isomorphic to the doily {iso}"
    )


@check(
    "sec4.matrix-quadrangle",
    "the 27 matrices with translated quadric lines form GQ(2,4), isomorphic via x+1",
    "order (2,4), 27 points, 45 lines; translation is an isomorphism True",
)
def _check_matrix_quadrangle() -> str:
    inc = quad.build_matrix_quadrangle()
    actual = _gq24_order(inc)
    ok, witness = quad.verify_isomorphism(
        quad.quadric_to_matrix_map(), inc, quad.build_quadric_quadrangle()
    )
    return actual + f"; translation is an isomorphism {ok}" + (f" ({witness})" if witness else "")


# ---------------------------------------------------------------- sec5


@check(
    "sec5.plane-family",
    "the 27 planes (X|1) have rank 3 and avoid the two coordinate planes",
    "27 rank-3 planes True, all skew to (1|0) and (0|1) True",
)
def _check_plane_family() -> str:
    planes = planes_mod.family_planes()
    rank_ok = len(planes) == 27 and all(
        p.bit_count() == 7 and len(planes_mod.echelon(p)) == 3 for p in planes.values()
    )
    skew_ok = all(
        planes_mod.is_skew(p, planes_mod.PLANE_LEFT)
        and planes_mod.is_skew(p, planes_mod.PLANE_RIGHT)
        for p in planes.values()
    )
    return f"27 rank-3 planes {rank_ok}, all skew to (1|0) and (0|1) {skew_ok}"


@check(
    "sec5.rank-meet-identity",
    "rank(X+Y) + dim((X|1) cap (Y|1)) = 3 on all 64x64 symmetric pairs",
    "identity holds on 4096 pairs",
)
def _check_rank_meet() -> str:
    if planes_mod.rank_meet_identity_holds():
        return "identity holds on 4096 pairs"
    return "identity fails"


@check(
    "sec5.plucker-coordinates",
    "the multiplicity-one 3x3 minors of (X|1) are the six coordinates",
    "6 unique minors; coordinates at columns (1,5,6),(2,3,4),(2,4,6),(1,3,5),(3,4,5),(1,2,6)",
)
def _check_plucker() -> str:
    profiles = planes_mod.minor_profiles()
    unique = sum(1 for n in Counter(profiles.values()).values() if n == 1)
    try:
        ordered = planes_mod.plucker_unique_triples(profiles)
    except ValueError as exc:
        return f"{unique} unique minors; {exc}"
    cols_text = ",".join("(%d,%d,%d)" % tuple(c + 1 for c in cols) for cols in ordered)
    return f"{unique} unique minors; coordinates at columns {cols_text}"


@check(
    "sec5.symplectic-isotropy",
    "planes (X|1) are totally isotropic exactly because X is symmetric",
    "30 isotropic planes; non-symmetric control fails",
)
def _check_symplectic_isotropy() -> str:
    isotropic = planes_mod.is_totally_isotropic
    bad = [label for label, plane in planes_mod.family_planes().items() if not isotropic(plane)]
    bad += [label for plane, label in planes_mod.DISTINGUISHED.items() if not isotropic(plane)]
    # negative control: a single off-diagonal 1 breaks symmetry and isotropy
    control = planes_mod.plane_of_mat(0b010_000_000)
    control_ok = not isotropic(control)
    if not bad and control_ok:
        return "30 isotropic planes; non-symmetric control fails"
    return f"violations {bad}; control isotropic: {not control_ok}"


@check(
    "sec5.spreads",
    "the distinguished planes with either eigenvalue-free class partition PG(5,2)",
    "two spreads of 9 planes covering 63 points",
)
def _check_spreads() -> str:
    problems = []
    for tag in ("U", "V"):
        planes = planes_mod.spread(tag)
        for p, q in combinations(planes, 2):
            if not planes_mod.is_skew(p, q):
                problems.append(f"{tag}: planes meet")
        covered = 0
        for p in planes:
            covered |= p
        if covered != pg.ALL_POINTS:
            problems.append(f"{tag}: covers {covered.bit_count()} points")
    overlap = set(planes_mod.spread("U")) & set(planes_mod.spread("V"))
    if overlap != set(planes_mod.DISTINGUISHED):
        problems.append("spreads share more than the three distinguished planes")
    return "; ".join(problems) if problems else "two spreads of 9 planes covering 63 points"


@check(
    "sec5.meet-identity-plane",
    "(X|1) meets (1|1) in a line exactly for the involutions, a point for other D",
    "line meets ['D1', 'D2', 'D3'], other D meet in a point True, U and V skew True",
)
def _check_meet_identity_plane() -> str:
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
    return f"line meets {line_meets}, other D meet in a point {point_meets_ok}, U and V skew {uv_skew}"


@check(
    "sec5.group-action",
    "conjugation by the order-7 groups is a genuine commutative group action",
    "U: commutative True, action True; V: commutative True, action True",
)
def _check_group_action() -> str:
    at = atlas()
    parts = []
    for tag in ("U", "V"):
        group = planes_mod.conjugating_group(tag)
        raw, commutative = _products(group)
        # products are packed first, so a non-symmetric one raises in mat_to_sym
        products = {pair: mat_to_sym(m) for pair, m in raw.items()}
        # g -> {X: G X G} from the table of g; an image X off the 27 points
        # has no entry there, so G X G reads None and the pair mismatches
        acts = {
            g: dict(zip(at.points, planes_mod.conjugates(g))) for g in {*group, *products.values()}
        }
        read = itemgetter(*at.d, *at.members(opposite(tag)))
        images = {g: read(act) for g, act in acts.items()}
        action = all(
            images[ab] == tuple(map(acts[a].get, images[b])) for (a, b), ab in products.items()
        )
        parts.append(f"{tag}: commutative {commutative}, action {action}")
    return "; ".join(parts)


def _orbit_shape(tag: str) -> str:
    d_labels = {label_of(x) for x in atlas().d}
    inv_labels = {"D1", "D2", "D3"}
    shapes = []
    for orbit in planes_mod.group_orbits(tag):
        from_d = sum(1 for lab in orbit if lab in d_labels)
        invs = sorted(set(orbit) & inv_labels)
        shapes.append(f"{len(orbit)} elements, {from_d} from D, involutions {invs}")
    return "; ".join(shapes)


for _tag in ("U", "V"):
    check(
        f"sec5.orbits-{_tag.lower()}-group",
        f"the {_tag}-group has 3 orbits of 7 on the opposite 21 matrices, one involution each",
        "7 elements, 5 from D, involutions ['D1']; "
        "7 elements, 5 from D, involutions ['D2']; "
        "7 elements, 5 from D, involutions ['D3']",
    )(partial(_orbit_shape, _tag))


@check(
    "sec5.collineation",
    "the block collineation (U, U^-1) realizes conjugation and preserves meets",
    "maps (X|1) to (UXU|1) True, preserves intersection dimensions True",
)
def _check_collineation() -> str:
    points = atlas().points
    group = planes_mod.conjugating_group("U") + planes_mod.conjugating_group("V")[1:]
    # the 27 family planes first, in the order of points, then the three
    # distinguished planes
    all_planes = [planes_mod.plane_of(x) for x in points] + list(planes_mod.DISTINGUISHED)

    def meets(planes: list[planes_mod.Plane]) -> list[int]:
        # points shared by each pair of planes, one count per meet dimension
        return [(p & q).bit_count() for i, p in enumerate(planes) for q in planes[i + 1 :]]

    # |p_i cap p_j| counts the vectors whose holder row has bits i and j, so
    # equal sorted holder rows mean equal meet counts for every pair
    holders = sorted(pg.transposed(all_planes))
    maps_ok = dims_ok = True
    for u in group:
        # each (u, plane) image is computed once and serves both claims;
        # (U, U^-1) fixes (1|0) and (0|1) and sends (1|1) to (U1U|1)
        images = planes_mod.collineation_action(u, all_planes)
        wanted = [planes_mod.plane_of(s) for s in planes_mod.conjugates(u)]
        u1u = planes_mod.plane_of(planes_mod.conjugate(u, SYM_IDENTITY))
        wanted += [planes_mod.PLANE_LEFT, planes_mod.PLANE_RIGHT, u1u]
        maps_ok &= list(images) == wanted
        if sorted(pg.transposed(images)) != holders:
            dims_ok &= meets(list(images)) == meets(all_planes)
    return f"maps (X|1) to (UXU|1) {maps_ok}, preserves intersection dimensions {dims_ok}"


@check(
    "sec5.intersection-statistics",
    "meet profiles against each eigenvalue-free class match the three cases",
    "profiles (4,0,2)/(3,1,2)/(4,1,1) in both orientations",
)
def _check_statistics() -> str:
    at = atlas()
    bad = []
    for versus in ("U", "V"):
        others = at.members(opposite(versus))
        profiles = ((at.d[:3], (4, 0, 2)), (at.d[3:], (3, 1, 2)), (others, (4, 1, 1)))
        for members, wanted in profiles:
            for x in members:
                prof = planes_mod.intersection_statistics(x, versus)
                if (prof.points, prof.lines, prof.skew) != wanted:
                    bad.append(f"{label_of(x)} vs {versus}")
    return "profiles (4,0,2)/(3,1,2)/(4,1,1) in both orientations" if not bad else f"wrong: {bad}"


@check(
    "sec5.skew-pairing",
    "the unique opposite-class skew partner pairs U_i with V_i",
    "U_i paired with V_i for i = 1..6",
)
def _check_skew_pairing() -> str:
    at = atlas()
    pairing_ok = all(
        planes_mod.skew_partner(at.u[i]) == at.v[i]
        and planes_mod.skew_partner(at.v[i]) == at.u[i]
        for i in range(6)
    )
    return "U_i paired with V_i for i = 1..6" if pairing_ok else "pairing broken"


@check(
    "sec5.collinearity-transfer",
    "collinearity means meeting inside a class and skewness across, with the stated counts",
    "meet/skew transfer True, degree 10 True, D partners 2+2 paired and 6 in D True",
)
def _check_collinearity_transfer() -> str:
    at = atlas()
    c = quad.compile_structure(quad.build_matrix_quadrangle())
    xs = [at.by_label[label] for label in c.labels]
    bit = {x: 1 << i for i, x in enumerate(xs)}
    u_mask, v_mask, d_mask = (sum(map(bit.get, cls)) for cls in (at.u, at.v, at.d))
    partner = {bit[x]: bit[planes_mod.skew_partner(x)] for x in at.u}
    transfer_ok = partners_ok = True
    meets = planes_mod.meet_rows([planes_mod.plane_of(x) for x in xs])
    for i, (near, meet) in enumerate(zip(c.adjacency, meets)):
        # collinear iff the planes meet, flipped across the classes D and U+V
        in_d = d_mask >> i & 1
        transfer_ok &= near == meet ^ (u_mask | v_mask if in_d else d_mask) ^ 1 << i
        if in_d:
            from_v = near & v_mask
            paired = sum({v for u, v in partner.items() if near & u})
            counts = ((near & u_mask).bit_count(), from_v.bit_count(), (near & d_mask).bit_count())
            partners_ok &= counts == (2, 2, 6) and paired == from_v
    degree_ok = all(degree == 10 for degree in c.degrees)
    return (
        f"meet/skew transfer {transfer_ok}, degree 10 {degree_ok}, "
        f"D partners 2+2 paired and 6 in D {partners_ok}"
    )


@check(
    "sec5.iso-table",
    "the explicit U_i -> i, V_i -> i', D_j -> pair map is an isomorphism",
    "isomorphism verified",
)
def _check_iso_table() -> str:
    ok, witness = quad.verify_isomorphism(
        quad.DOUBLE_SIX_ISOMORPHISM,
        quad.build_matrix_quadrangle(),
        quad.build_double_six_model(),
    )
    return "isomorphism verified" if ok else f"failed: {witness}"


@check(
    "sec5.pi-plane-model",
    "the translated plane model is GQ(2,4) with the determinant collinearity law",
    "point set = planes skew to (1|1) except (0|1); collinearity is the polar "
    "determinant law; order (2, 4)",
)
def _check_pi_plane_model() -> str:
    model = planes_mod.build_plane_model()
    translated = _translated(atlas().points)
    # characterization: planes (Y|1) skew to (1|1), other than (0|1)
    diagonal = planes_mod.PLANE_DIAGONAL
    set_ok = translated == pg.point_mask(
        y for y in range(1, 64) if planes_mod.is_skew(planes_mod.plane_of(y), diagonal)
    )
    c = quad.compile_structure(model)
    dets = pg.det_table()
    ys = list(map(parse_bits6, c.labels))
    law_ok = True
    # bit j of each adjacency row moved to bit ys[j]: the mask of its neighbours' vectors
    for y, near in zip(ys, pg.relabelled(c.adjacency, ys)):
        # Z ~ Y iff det(Y+Z) + det Z, bit z of the law, equals det Y
        law = pg.translate_mask(dets, y) ^ dets
        wanted = translated & (law if dets >> y & 1 else ~law) & ~(1 << y)
        law_ok &= near == wanted
    try:
        order = quad.verify_gq_axioms(model)
    except quad.AxiomViolationError:
        order = None
    if set_ok and law_ok:
        return (
            "point set = planes skew to (1|1) except (0|1); collinearity is the polar "
            f"determinant law; order {order}"
        )
    return f"set match {set_ok}, law match {law_ok}, order {order}"


@check(
    "sec5.model-isomorphisms",
    "the search finds an isomorphism between every pair of the four models",
    "6 of 6 pairs isomorphic",
)
def _check_model_isomorphisms() -> str:
    models = [
        quad.build_quadric_quadrangle(),
        quad.build_matrix_quadrangle(),
        quad.build_double_six_model(),
        planes_mod.build_plane_model(),
    ]
    found = sum(
        1 for a, b in combinations(models, 2) if quad.find_isomorphism(a, b) is not None
    )
    return f"{found} of 6 pairs isomorphic"


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
        reports.append(report._replace(elapsed=time.perf_counter() - started))
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
