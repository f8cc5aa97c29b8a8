"""Tests for the verification registry and suite runner."""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

import gqlab.atlas
import gqlab.checks
import gqlab.gf2
import gqlab.pg
import gqlab.planes
import gqlab.quadrangle
from gqlab.checks import (
    REGISTRY,
    UnknownCheckIdError,
    run_suite,
    suite_to_dict,
)
from gqlab.cli import main

CHECK_IDS = tuple(check_id for check_id, _ in REGISTRY)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_each_check_passes_alone_on_cold_caches(check_id):
    # each check builds what it reads, whichever check would have run first
    (report,) = run_suite(check_id).reports
    assert report.check_id == check_id
    assert report.passed, report.actual


def test_registry_ids_unique_and_well_formed():
    assert len(CHECK_IDS) == len(set(CHECK_IDS))
    for check_id in CHECK_IDS:
        section, _, name = check_id.partition(".")
        assert section in ("sec2", "sec3", "sec4", "sec5")
        assert name and name == name.lower()


def test_registry_in_section_order():
    sections = [check_id.split(".")[0] for check_id in CHECK_IDS]
    assert sections == sorted(sections)


def test_full_suite_passes():
    suite = run_suite()
    assert suite.passed
    assert len(suite.reports) == len(REGISTRY)
    for report in suite.reports:
        assert report.passed, f"{report.check_id}: {report.actual}"
        assert report.elapsed >= 0.0


def test_each_check_run_alone_and_cold_sees_what_the_suite_sees(clear_gqlab_caches):
    # the suite shares cached tables between checks; no check may depend on
    # another having built them first
    in_suite = {r.check_id: r.actual for r in run_suite().reports}
    assert len(in_suite) == 42
    for check_id in CHECK_IDS:
        clear_gqlab_caches()
        alone = [r for r in run_suite(check_id).reports if r.check_id == check_id]
        assert [r.actual for r in alone] == [in_suite[check_id]], check_id


def test_reports_come_back_in_registry_order():
    suite = run_suite()
    assert [r.check_id for r in suite.reports] == list(CHECK_IDS)


def test_prefix_filter():
    suite = run_suite("sec3.")
    assert all(r.check_id.startswith("sec3.") for r in suite.reports)
    assert len(suite.reports) == 6
    single = run_suite("sec4.klein-quadric")
    assert len(single.reports) == 1


def test_unknown_prefix_raises():
    with pytest.raises(UnknownCheckIdError):
        run_suite("nonexistent.")


def _readme_check_table():
    """(id, claim) rows of the README's check registry table, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Check registry\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, flags=re.MULTILINE)
    return [(check_id, claim.replace("\\|", "|")) for check_id, claim in rows]


def test_readme_check_table_matches_registry():
    registered = [(r.check_id, r.description) for r in run_suite().reports]
    assert _readme_check_table() == registered


def _raise_planted_fault(*args):
    raise ValueError("planted fault")


def test_raising_check_fails_alone(monkeypatch):
    # skew_partner is called by exactly these two checks
    callers = {"sec5.skew-pairing", "sec5.collinearity-transfer"}
    monkeypatch.setattr(gqlab.planes, "skew_partner", _raise_planted_fault)
    suite = run_suite()
    assert [r.check_id for r in suite.reports] == list(CHECK_IDS)
    assert not suite.passed
    failed = {r.check_id for r in suite.reports if not r.passed}
    assert failed == callers
    for report in suite.reports:
        if report.check_id in callers:
            assert report.actual == "error: ValueError: planted fault"


def test_raising_check_makes_verify_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(gqlab.planes, "skew_partner", _raise_planted_fault)
    assert main(["verify", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert sum(1 for entry in payload["checks"] if not entry["pass"]) == 2


SUITE_SHA256 = "5ecce014526a145c4d38cfce8f6f20dd84233f2b46b6c308dfbcda08ad86f826"


def _suite_digest(suite):
    # ids, order, descriptions, expected and actual strings, timing removed
    payload = suite_to_dict(suite)
    for entry in payload["checks"]:
        del entry["elapsed_ms"]
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def test_suite_json_is_pinned():
    assert _suite_digest(run_suite()) == SUITE_SHA256


def test_cold_suite_builds_no_plane_table(monkeypatch):
    # every projective index is decided from lines and translates, so no
    # plane is ever listed, let alone the 1395 of pg_planes()
    monkeypatch.setattr(gqlab.pg, "pg_planes", _raise_planted_fault)
    monkeypatch.setattr(gqlab.pg, "planes_in", _raise_planted_fault)
    suite = run_suite()
    assert suite.passed
    assert _suite_digest(suite) == SUITE_SHA256


# calls of each scalar kernel behind a value table in one cold run_suite();
# a table built by linearity, or read off another table, would lower a count
SCALAR_KERNEL_CALLS = {
    "polar_form": 4096,
    "hyperbolic_form": 64,
    "sym_det": 336,
    "minor_coordinates": 266,
}


def test_cold_suite_builds_each_value_table_from_its_scalar_kernel(monkeypatch):
    calls = dict.fromkeys(SCALAR_KERNEL_CALLS, 0)

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapper

    # every gqlab module that bound a kernel by name gets its own wrapper
    for module_name, module in list(sys.modules.items()):
        if module_name == "gqlab" or module_name.startswith("gqlab."):
            for name in SCALAR_KERNEL_CALLS:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    assert run_suite().passed
    assert calls == SCALAR_KERNEL_CALLS


def test_suite_json_schema():
    payload = suite_to_dict(run_suite("sec2."))
    assert payload["schema"] == 1
    assert payload["passed"] is True
    for entry in payload["checks"]:
        assert set(entry) == {"id", "description", "expected", "actual", "pass", "elapsed_ms"}


def _pairwise_polar_mismatches():
    """The forms-share-polar count, one (form, x, y) triple at a time."""
    pg = gqlab.pg
    bad = 0
    for m in gqlab.atlas.enumerate_invertible_symmetric():
        values = [pg.elliptic_table(m) >> v & 1 if v else 0 for v in range(64)]
        for x in range(64):
            for y in range(64):
                bad += values[x ^ y] ^ values[x] ^ values[y] != pg.polar_form(x, y)
    return bad


@pytest.mark.parametrize(
    # seed 11 flips a value of the identity's form
    "seed, n_polar, n_form", [(1, 3, 0), (2, 0, 3), (3, 2, 2), (4, 1, 5), (11, 1, 2)]
)
def test_forms_share_polar_counts_planted_faults(monkeypatch, seed, n_polar, n_form):
    rng = random.Random(seed)
    forms = gqlab.atlas.enumerate_invertible_symmetric()
    polar_flips = {(rng.randrange(64), rng.randrange(64)) for _ in range(n_polar)}
    form_flips = {(rng.choice(forms), rng.randrange(1, 64)) for _ in range(n_form)}
    polar_form, elliptic_table = gqlab.pg.polar_form, gqlab.pg.elliptic_table
    monkeypatch.setattr(
        gqlab.pg, "polar_form", lambda x, y: polar_form(x, y) ^ ((x, y) in polar_flips)
    )
    # the reference below reads the table, so it sees the same flips
    monkeypatch.setattr(
        gqlab.pg,
        "elliptic_table",
        lambda m: elliptic_table(m) ^ sum(1 << v for n, v in form_flips if n == m),
    )
    want = _pairwise_polar_mismatches()
    assert want > 0
    (report,) = run_suite("sec4.forms-share-polar").reports
    assert not report.passed
    assert report.actual == f"{want} mismatches over 28 forms x 4096 pairs"


def _listed_polarized(table):
    """The polarized table as a list with one entry per y, each from its own
    translate_mask, apart from the packed translates pg.polarized reads."""
    everywhere = (1 << 64) - 1
    return [
        gqlab.pg.translate_mask(table, y) ^ table ^ (everywhere if table >> y & 1 else 0)
        for y in range(64)
    ]


def test_packed_polarized_matches_per_entry():
    pg = gqlab.pg
    forms = gqlab.atlas.enumerate_invertible_symmetric()
    rng = random.Random(4096)
    tables = [pg.det_table(), pg.hyperbolic_table()]
    tables += [pg.ALL_POINTS & pg.elliptic_table(m) for m in forms]
    tables += [rng.getrandbits(64) for _ in range(64)]
    assert len(tables) == 2 + 28 + 64
    for table in tables:
        packed = pg.polarized(table)
        assert 0 <= packed < 1 << 4096
        entries = [packed >> (64 * y) & (1 << 64) - 1 for y in range(64)]
        assert entries == _listed_polarized(table)


def _translated_coordinates(*labels):
    coords, identity = gqlab.pg.coordinates(), gqlab.gf2.SYM_IDENTITY
    by_label = gqlab.atlas.atlas().by_label
    return tuple(coords[by_label[label] ^ identity] for label in labels)


@pytest.mark.parametrize(
    "kernel, flip, wanted",
    [
        # det(X+Y) reads wrong on the 5 pairs of points with X + Y = 000011
        ("sym_det", lambda v: v == 0b000011, "5 mismatches over 351 pairs"),
        # B reads wrong at the coordinates of U3 + 1 in the column of D1 + 1,
        # the one the row of D1, the smaller matrix of the pair, reads
        (
            "polar_form",
            lambda x, y: (x, y) == _translated_coordinates("U3", "D1"),
            "1 mismatches over 351 pairs",
        ),
    ],
    ids=["det_table", "polar_form"],
)
def test_collinearity_criterion_counts_one_planted_fault(monkeypatch, kernel, flip, wanted):
    original = getattr(gqlab.pg, kernel)
    monkeypatch.setattr(gqlab.pg, kernel, lambda *args: original(*args) ^ flip(*args))
    report = _single_report("sec4.collinearity-criterion")
    assert not report.passed
    assert report.actual == wanted


def test_translation_form_counts_a_fault_in_the_identity_form(monkeypatch):
    # the paper's form Q is the identity member of the family, read like the other 27
    elliptic_table = gqlab.pg.elliptic_table
    flipped_m, flipped_v = gqlab.gf2.SYM_IDENTITY, 0b101101
    monkeypatch.setattr(
        gqlab.pg,
        "elliptic_table",
        lambda m: elliptic_table(m) ^ (1 << flipped_v if m == flipped_m else 0),
    )
    (report,) = run_suite("sec4.translation-form").reports
    assert report.actual == "1 mismatches over 28 forms x 64 matrices"


def _by_matrix_per_bit(table):
    return sum((table >> v & 1) << x for x, v in enumerate(gqlab.pg.coordinates()))


def test_by_matrix_matches_the_per_bit_reindex(monkeypatch):
    rng = random.Random(7)
    batches = [[1 << v for v in range(64)], [rng.getrandbits(64) for _ in range(64)]]
    for tables in batches:
        assert gqlab.checks._by_matrix(tables) == [_by_matrix_per_bit(t) for t in tables]
    # a non-injective coordinate map: matrix 5 takes the vector of matrix 9
    planted = list(gqlab.pg.coordinates())
    planted[5] = planted[9]
    monkeypatch.setattr(gqlab.pg, "coordinates", lambda: tuple(planted))
    for tables in batches:
        assert gqlab.checks._by_matrix(iter(tables)) == [_by_matrix_per_bit(t) for t in tables]
    # one transposed round trip holds at most 64 tables
    with pytest.raises(ValueError, match="at most 64 rows, got 65"):
        gqlab.checks._by_matrix(batches[1] + [0])


# Planted faults in the inputs of the hot checks: each check must still see
# every element of its domain, so one corrupted element fails it.


def _single_report(check_id):
    (report,) = run_suite(check_id).reports
    return report


def test_group_action_fails_with_a_non_group_element(monkeypatch):
    at = gqlab.atlas.atlas()
    conjugating_group = gqlab.planes.conjugating_group
    monkeypatch.setattr(
        gqlab.planes,
        "conjugating_group",
        lambda tag: tuple(at.d[3] if g == at.u[0] else g for g in conjugating_group(tag)),
    )
    report = _single_report("sec5.group-action")
    assert not report.passed
    # a product with D4 is not symmetric, and packing it back fails
    assert report.actual.startswith("error: ValueError: matrix ")
    assert report.actual.endswith(" is not symmetric")


def test_group_action_fails_on_one_wrong_product(monkeypatch):
    # U1 U2 is U3, but one call computes it as U4: the check must conjugate
    # by the product it computed, and commutativity breaks on the same pair
    at = gqlab.atlas.atlas()
    u1, u2, u4 = (gqlab.gf2.sym_to_mat(at.u[i]) for i in (0, 1, 3))
    mat_mul = gqlab.checks.mat_mul
    monkeypatch.setattr(
        gqlab.checks, "mat_mul", lambda a, b: u4 if (a, b) == (u1, u2) else mat_mul(a, b)
    )
    report = _single_report("sec5.group-action")
    assert not report.passed
    assert report.actual == (
        "U: commutative False, action False; V: commutative True, action True"
    )


# D5's image under U1 read as D6's, or as the identity, which lies off the 27
# points and must read as a mismatch, not raise
@pytest.mark.parametrize("image", ["D6", "1"])
def test_sec5_group_checks_fail_on_one_wrong_conjugate(monkeypatch, image):
    at = gqlab.atlas.atlas()
    u1, k = at.u[0], at.points.index(at.by_label["D5"])
    value = gqlab.gf2.SYM_IDENTITY if image == "1" else at.by_label[image]
    conjugates = gqlab.planes.conjugates

    def planted(u):
        table = conjugates(u)
        return table[:k] + (value,) + table[k + 1 :] if u == u1 else table

    monkeypatch.setattr(gqlab.planes, "conjugates", planted)
    assert _single_report("sec5.group-action").actual == (
        "U: commutative True, action False; V: commutative True, action True"
    )
    assert _single_report("sec5.collineation").actual == (
        "maps (X|1) to (UXU|1) False, preserves intersection dimensions True"
    )


@pytest.mark.parametrize(
    "faulty, wanted",
    [
        # U3 acts as the identity: not a 7-cycle, and the U-group is not regular
        ("U3", "U: 7-cycles False, regular False; V: 7-cycles True, regular True"),
        # the identity acts as U1: both closures hit some point twice
        ("1", "U: 7-cycles True, regular False; V: 7-cycles True, regular False"),
    ],
)
def test_singer_cycles_fails_on_one_wrong_fano_action(monkeypatch, faulty, wanted):
    at = gqlab.atlas.atlas()
    fano_action = gqlab.checks.fano_action
    identity = gqlab.atlas.FanoAction(tuple(range(1, 8)), tuple(range(1, 8)))
    if faulty == "1":
        target, planted = gqlab.gf2.SYM_IDENTITY, fano_action(at.u[0])
    else:
        target, planted = at.by_label[faulty], identity
    monkeypatch.setattr(
        gqlab.checks, "fano_action", lambda x: planted if x == target else fano_action(x)
    )
    report = _single_report("sec3.singer-cycles")
    assert not report.passed
    assert report.actual == wanted


@pytest.mark.parametrize(
    "plane, maps_ok",
    [(gqlab.planes.PLANE_DIAGONAL, False), (None, False)],
    ids=["distinguished-plane", "family-plane"],
)
def test_collineation_fails_on_one_perturbed_image(monkeypatch, plane, maps_ok):
    at = gqlab.atlas.atlas()
    u, p = at.u[1], plane or gqlab.planes.plane_of(at.d[4])
    collineation_action = gqlab.planes.collineation_action

    def perturbed(v, planes):
        images = collineation_action(v, planes)
        if v != u:
            return images
        k = planes.index(p)
        return images[:k] + (gqlab.planes.PLANE_LEFT,) + images[k + 1 :]

    monkeypatch.setattr(gqlab.planes, "collineation_action", perturbed)
    report = _single_report("sec5.collineation")
    assert not report.passed
    assert report.actual == (
        f"maps (X|1) to (UXU|1) {maps_ok}, preserves intersection dimensions False"
    )


def test_collineation_sees_two_points_of_a_distinguished_plane_merged(monkeypatch):
    # the blocks of U1 send 000010 to the image of 000001; both points lie
    # on (0|1), which is skew to the other 29 planes, so every meet count
    # stays the same and only the image of (0|1) itself shows the fault
    u1 = gqlab.atlas.atlas().by_label["U1"]
    block_collineation = gqlab.planes._block_collineation

    def merged(u):
        image = block_collineation(u)
        return image[:2] + image[1:2] + image[3:] if u == u1 else image

    monkeypatch.setattr(gqlab.planes, "_block_collineation", merged)
    report = _single_report("sec5.collineation")
    assert report.actual == (
        "maps (X|1) to (UXU|1) False, preserves intersection dimensions True"
    )


def _plant_vector_map(monkeypatch, u, plant):
    block_collineation = gqlab.planes._block_collineation

    def planted(v):
        image = block_collineation(v)
        return tuple(plant(list(image))) if v == u else image

    monkeypatch.setattr(gqlab.planes, "_block_collineation", planted)


def test_collineation_sees_two_swapped_images_through_the_planes_alone(monkeypatch):
    # the blocks of V2 trade the images of 100000 on (1|0) and 000001 on
    # (0|1): the vector map stays a bijection, so the holder rows are only
    # permuted and every meet count is kept, but (1|0) and (0|1) move
    def swapped(image):
        image[0b100000], image[0b000001] = image[0b000001], image[0b100000]
        return image

    _plant_vector_map(monkeypatch, gqlab.atlas.atlas().by_label["V2"], swapped)
    report = _single_report("sec5.collineation")
    assert report.actual == (
        "maps (X|1) to (UXU|1) False, preserves intersection dimensions True"
    )


def test_collineation_sees_two_points_of_meeting_family_planes_merged(monkeypatch):
    # the blocks of U3 send a point of (D1|1) to the image of a point of
    # (D2|1), and the two planes meet, so some meet count changes
    at = gqlab.atlas.atlas()
    d1, d2 = (gqlab.planes.plane_of(at.by_label[label]) for label in ("D1", "D2"))
    assert d1 & d2
    a = (d1 & ~d2 & -(d1 & ~d2)).bit_length() - 1
    b = (d2 & ~d1 & -(d2 & ~d1)).bit_length() - 1

    def merged(image):
        image[a] = image[b]
        return image

    _plant_vector_map(monkeypatch, gqlab.atlas.atlas().by_label["U3"], merged)
    report = _single_report("sec5.collineation")
    assert report.actual == (
        "maps (X|1) to (UXU|1) False, preserves intersection dimensions False"
    )


@pytest.mark.parametrize(
    "cols, wanted",
    [
        ((2, 3, 4), "6 unique minors; coordinate 5 matched 0 unique minors"),
        ((0, 1, 2), "8 unique minors; coordinates at columns "),
    ],
)
def test_plucker_fails_on_one_flipped_column_triple(monkeypatch, cols, wanted):
    minor_profiles = gqlab.planes.minor_profiles

    def flipped():
        profiles = minor_profiles()
        profiles[cols] = tuple(1 - minor for minor in profiles[cols])
        return profiles

    monkeypatch.setattr(gqlab.planes, "minor_profiles", flipped)
    report = _single_report("sec5.plucker-coordinates")
    assert not report.passed
    assert report.actual.startswith(wanted)


@pytest.mark.parametrize(
    "check_id, wanted",
    [
        ("sec4.translation-form", "1 mismatches over 28 forms x 64 matrices"),
        ("sec4.qm-family", "27 quadrics: 27 points False, index 1 True, translation bijection True"),
    ],
)
def test_shifted_form_checks_fail_on_one_flipped_value(monkeypatch, check_id, wanted):
    # the shifted form at m is Q(v) + B(v, coordinates of m); flipping B at
    # one (v, coordinates of m) flips that form at exactly one point
    pg = gqlab.pg
    m = gqlab.atlas.atlas().points[5]
    v, center = pg.minor_coordinates(0b001011), pg.minor_coordinates(m)
    polar_form = pg.polar_form
    monkeypatch.setattr(pg, "polar_form", lambda x, y: polar_form(x, y) ^ ((x, y) == (v, center)))
    report = _single_report(check_id)
    assert not report.passed
    assert report.actual == wanted


@pytest.mark.parametrize("in_section", [True, False], ids=["drops-a-point", "adds-a-point"])
def test_hyperplane_survey_fails_on_one_flipped_polar_value(monkeypatch, in_section):
    # one quadric point leaves or joins the section of one non-tangent axis,
    # which then has 14 or 16 points
    quad = gqlab.pg.bit_indices(gqlab.pg.elliptic_quadric())
    axis = next(a for a in range(1, 64) if a not in quad)
    polar_form = gqlab.pg.polar_form
    v = next(v for v in quad if (polar_form(v, axis) == 0) == in_section)

    def flipped(x, y):
        return polar_form(x, y) ^ ((x, y) == (v, axis))

    monkeypatch.setattr(gqlab.pg, "polar_form", flipped)
    report = _single_report("sec2.hyperplane-survey")
    assert not report.passed
    assert report.actual == "a non-degenerate section failed the (2,2) axioms"


def _first_axis(tangent):
    """The smallest axis on the quadric, or off it."""
    return next(a for a in range(1, 64) if gqlab.pg.elliptic_quadric() >> a & 1 == tangent)


# faults on the sections: each maps (sections, axis, points, lines), one
# section as the unpatched _sections yields it, to the section yielded instead


def _no_tangent_sections(sections, axis, points, lines):
    return (axis, 0, 0) if gqlab.pg.elliptic_quadric() >> axis & 1 else (axis, points, lines)


def _first_section_drops_a_line(tangent):
    def fault(sections, axis, points, lines):
        return axis, points, (lines & lines - 1 if axis == _first_axis(tangent) else lines)

    return fault


def _first_tangent_axis_cuts_a_doily(sections, axis, points, lines):
    if axis == _first_axis(True):
        ((_, points, lines),) = sections([_first_axis(False)])
    return axis, points, lines


@pytest.mark.parametrize(
    "fault, wanted",
    [
        (_no_tangent_sections, "36 sections of order (2,2), 0 tangent"),
        (_first_section_drops_a_line(True), "36 sections of order (2,2), 26 tangent"),
        (_first_section_drops_a_line(False), "a non-degenerate section failed the (2,2) axioms"),
        (_first_tangent_axis_cuts_a_doily, "37 sections of order (2,2), 26 tangent"),
    ],
    ids=["tangent-sections-empty", "tangent-drops-a-line", "gq22-drops-a-line", "tangent-gq22"],
)
def test_hyperplane_survey_decides_each_section_from_its_structure(monkeypatch, fault, wanted):
    # a tangent section counts only if it is a cone, and a non-degenerate
    # one only if it passes the (2,2) axioms, whatever its axis
    sections = gqlab.quadrangle._sections
    monkeypatch.setattr(
        gqlab.quadrangle, "_sections", lambda axes: (fault(sections, *s) for s in sections(axes))
    )
    report = _single_report("sec2.hyperplane-survey")
    assert not report.passed
    assert report.actual == wanted


# Planted faults in the point masks: each point-set comparison must see one
# point added to or dropped from its mask.  The dropped singular matrix is a
# D translate and the added one is U1, so both also change the overlap of
# the two matrix quadrics.


@pytest.mark.parametrize(
    "translates, check_id, wanted",
    [
        # no translate has a point: no plane is found, even in the Klein quadric
        (
            lambda table: [0] * 64,
            "sec4.klein-quadric",
            "35 points, index 1, 105 lines, singular preimages True",
        ),
        # every translate is the set itself: every line seems to lie in a plane
        (lambda table: [table] * 64, "sec4.elliptic-quadric", "27 points, index 2, 45 lines"),
        (
            lambda table: [table] * 64,
            "sec4.qm-family",
            "27 quadrics: 27 points True, index 1 False, translation bijection True",
        ),
    ],
    ids=["zeroed-klein", "untranslated-elliptic", "untranslated-qm-family"],
)
def test_index_checks_fail_on_faulty_translates(monkeypatch, translates, check_id, wanted):
    monkeypatch.setattr(gqlab.pg, "translates", translates)
    report = _single_report(check_id)
    assert not report.passed
    assert report.actual == wanted


def test_qm_family_fails_when_the_line_pass_drops_the_last_set(monkeypatch):
    # the 27 quadrics share one lines_in pass; losing the last set's lines
    # leaves that quadric with index 0
    lines_in = gqlab.pg.lines_in
    monkeypatch.setattr(gqlab.pg, "lines_in", lambda masks: lines_in(masks)[:-1] + [()])
    report = _single_report("sec4.qm-family")
    assert not report.passed
    assert report.actual == "27 quadrics: 27 points True, index 1 False, translation bijection True"


@pytest.mark.parametrize(
    "flip, check_id, wanted",
    [
        ("drop", "sec4.klein-quadric", "35 points, index 2, 105 lines, singular preimages False"),
        ("add", "sec4.klein-quadric", "35 points, index 2, 105 lines, singular preimages False"),
        ("drop", "sec4.complement", "disjoint True, sizes 34+28, covers PG(5,2) False"),
        ("add", "sec4.complement", "disjoint False, sizes 36+28, covers PG(5,2) True"),
        (
            "drop",
            "sec4.quadric-classes",
            "points on the quadric are U+V: True; overlap with Klein is D+1: False",
        ),
        (
            "add",
            "sec4.quadric-classes",
            "points on the quadric are U+V: True; overlap with Klein is D+1: False",
        ),
    ],
)
def test_klein_checks_fail_on_one_flipped_matrix_point(monkeypatch, flip, check_id, wanted):
    at = gqlab.atlas.atlas()
    point = at.d[0] ^ gqlab.gf2.SYM_IDENTITY if flip == "drop" else at.u[0]
    klein_matrix_points = gqlab.pg.klein_matrix_points
    assert klein_matrix_points() >> point & 1 == (flip == "drop")
    monkeypatch.setattr(gqlab.pg, "klein_matrix_points", lambda: klein_matrix_points() ^ 1 << point)
    report = _single_report(check_id)
    assert not report.passed
    assert report.actual == wanted


@pytest.mark.parametrize(
    "flip, check_id, wanted",
    [
        ("drop", "sec4.perp-hyperplane", "30 points, equals 1+D+translated D: False"),
        ("add", "sec4.perp-hyperplane", "32 points, equals 1+D+translated D: False"),
        (
            "drop",
            "sec4.tangent-section",
            "section = translated D False; order (2,2), 15 points, 15 lines; index 1 True; "
            "isomorphic to the doily True",
        ),
        (
            "add",
            "sec4.tangent-section",
            "section = translated D False; order (2,2), 15 points, 15 lines; index 1 True; "
            "isomorphic to the doily True",
        ),
    ],
)
def test_perp_checks_fail_on_one_flipped_point(monkeypatch, flip, check_id, wanted):
    # the flipped point lies on the 27-point quadric, so the tangent section
    # it cuts gains or loses it; the section structure itself is cut by
    # polar_form and keeps its order
    pg = gqlab.pg
    quadric = pg.elliptic_quadric()
    section = quadric & pg.perp_hyperplane(pg.ALL_ONES)
    point = pg.bit_indices(section if flip == "drop" else quadric & ~section)[0]
    perp_hyperplane = pg.perp_hyperplane
    monkeypatch.setattr(pg, "perp_hyperplane", lambda p: perp_hyperplane(p) ^ 1 << point)
    report = _single_report(check_id)
    assert not report.passed
    assert report.actual == wanted


def test_plane_family_fails_on_a_line_in_place_of_a_plane(monkeypatch):
    # a line inside D1's plane is still skew to (1|0) and (0|1), but has rank 2
    family_planes = gqlab.planes.family_planes
    x, y = gqlab.pg.bit_indices(family_planes()["D1"])[:2]
    line = 1 << x | 1 << y | 1 << (x ^ y)
    monkeypatch.setattr(gqlab.planes, "family_planes", lambda: {**family_planes(), "D1": line})
    report = _single_report("sec5.plane-family")
    assert not report.passed
    assert report.actual == "27 rank-3 planes False, all skew to (1|0) and (0|1) True"


@pytest.mark.parametrize(
    "pair, wanted",
    [
        # a collinear pair: its line is no longer a triangle
        (
            ("U1", "V2"),
            "axiom failure: uniform point degree: degrees [4, 5]; wrong collinearity degree; "
            "translation is an isomorphism False (line counts differ: 44 vs 45)",
        ),
        # a non-collinear pair: it closes a triangle with each common neighbour
        (
            ("D1", "U1"),
            "axiom failure: uniform point degree: degrees [5, 6, 10]; wrong collinearity degree; "
            "translation is an isomorphism False (line counts differ: 50 vs 45)",
        ),
    ],
    ids=["collinear", "non-collinear"],
)
def test_matrix_quadrangle_fails_on_one_flipped_determinant(monkeypatch, pair, wanted):
    # det(X+Y) reads wrong for this one pair in the law the matrix model is built from
    x, y = (gqlab.atlas.atlas().by_label[label] for label in pair)
    flip = {x: 1 << y, y: 1 << x}
    translate_mask = gqlab.quadrangle.translate_mask
    monkeypatch.setattr(
        gqlab.quadrangle, "translate_mask", lambda t, m: translate_mask(t, m) ^ flip.get(m, 0)
    )
    report = _single_report("sec4.matrix-quadrangle")
    assert not report.passed
    assert report.actual == wanted


@pytest.mark.parametrize("pair", [("U1", "U2"), ("U1", "V1")])
def test_pi_plane_model_fails_on_one_wrong_meet_of_family_planes(monkeypatch, pair):
    # the plane model's law reads the meet of these two planes wrong, and
    # no other meet
    p, q = (gqlab.planes.plane_of(gqlab.atlas.atlas().by_label[label]) for label in pair)
    meet_rows = gqlab.planes.meet_rows

    def faulty(planes):
        rows = meet_rows(planes)
        if p in planes and q in planes:
            i, j = planes.index(p), planes.index(q)
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
        return rows

    monkeypatch.setattr(gqlab.planes, "meet_rows", faulty)
    report = _single_report("sec5.pi-plane-model")
    assert not report.passed
    assert report.actual == "set match True, law match False, order None"


def test_spreads_fails_on_one_dropped_plane_point(monkeypatch):
    target = gqlab.atlas.atlas().u[0]
    plane_of = gqlab.planes.plane_of
    lowest = plane_of(target) & -plane_of(target)
    monkeypatch.setattr(
        gqlab.planes, "plane_of", lambda x: plane_of(x) ^ (lowest if x == target else 0)
    )
    report = _single_report("sec5.spreads")
    assert not report.passed
    assert report.actual == "U: covers 62 points"


def test_spreads_fails_on_two_meeting_planes_of_one_class(monkeypatch):
    u1, u2 = gqlab.planes.class_planes("U")[:2]
    is_skew = gqlab.planes.is_skew
    monkeypatch.setattr(gqlab.planes, "is_skew", lambda p, q: is_skew(p, q) and {p, q} != {u1, u2})
    report = _single_report("sec5.spreads")
    assert not report.passed
    assert report.actual == "U: planes meet"


def test_spreads_fails_when_both_spreads_are_one(monkeypatch):
    spread = gqlab.planes.spread
    monkeypatch.setattr(gqlab.planes, "spread", lambda tag: spread("U"))
    report = _single_report("sec5.spreads")
    assert not report.passed
    assert report.actual == "spreads share more than the three distinguished planes"


def test_enumeration_fails_when_it_disagrees_with_the_atlas(monkeypatch):
    # the atlas is built first, so only the check reads the planted list,
    # in which the singular zero matrix stands in for U1
    at = gqlab.atlas.atlas()
    listed = gqlab.atlas.enumerate_invertible_symmetric()
    planted = tuple(0 if x == at.u[0] else x for x in listed)
    monkeypatch.setattr(gqlab.atlas, "enumerate_invertible_symmetric", lambda: planted)
    report = _single_report("sec3.enumeration")
    assert not report.passed
    assert report.actual == (
        "total 28 = identity 1 + D 15 + U 6 + V 6; enumeration disagrees with the atlas"
    )


def test_is_gf8_rejects_a_set_that_is_not_of_size_eight():
    closure = gqlab.atlas.multiplicative_closure(gqlab.atlas.atlas().u[0])
    assert gqlab.checks._is_gf8(closure)
    assert not gqlab.checks._is_gf8(closure - {min(closure)})
    assert not gqlab.checks._is_gf8(closure | {0b001100})


def test_qm_family_fails_on_one_flipped_matrix_point(monkeypatch):
    m = gqlab.atlas.atlas().points[0]
    points_at = gqlab.pg.elliptic_matrix_points_at
    monkeypatch.setattr(
        gqlab.pg, "elliptic_matrix_points_at", lambda n: points_at(n) ^ (1 << m if n == m else 0)
    )
    report = _single_report("sec4.qm-family")
    assert not report.passed
    assert report.actual == (
        "27 quadrics: 27 points True, index 1 True, translation bijection False"
    )


@pytest.mark.parametrize(
    "plant, wanted",
    [
        ("right-plane", "violations ['(0|1)']; control isotropic: False"),
        ("all-isotropic", "violations []; control isotropic: True"),
    ],
)
def test_symplectic_isotropy_fails_on_a_wrong_isotropy_answer(monkeypatch, plant, wanted):
    right = gqlab.planes.PLANE_RIGHT
    isotropic = gqlab.planes.is_totally_isotropic
    faulty = {
        "right-plane": lambda p: p != right and isotropic(p),
        "all-isotropic": lambda p: True,
    }[plant]
    monkeypatch.setattr(gqlab.planes, "is_totally_isotropic", faulty)
    report = _single_report("sec5.symplectic-isotropy")
    assert not report.passed
    assert report.actual == wanted


def test_intersection_statistics_names_one_wrong_profile(monkeypatch):
    d1 = gqlab.atlas.atlas().d[0]
    statistics = gqlab.planes.intersection_statistics

    def faulty(x, versus=None):
        profile = statistics(x, versus)
        return profile._replace(skew=0) if (x, versus) == (d1, "V") else profile

    monkeypatch.setattr(gqlab.planes, "intersection_statistics", faulty)
    report = _single_report("sec5.intersection-statistics")
    assert not report.passed
    assert report.actual == "wrong: ['D1 vs V']"


@pytest.mark.parametrize(
    "cls, wanted",
    [("u", "U: not a field; V: GF(8)"), ("v", "U: GF(8); V: not a field")],
)
def test_gf8_fields_fails_on_one_product_outside_the_closure(monkeypatch, cls, wanted):
    # the square of the class's first matrix gains a non-symmetric entry, so
    # it leaves the closure while addition and commutativity still hold
    mat_mul = gqlab.gf2.mat_mul
    faulty = gqlab.gf2.sym_to_mat(getattr(gqlab.atlas.atlas(), cls)[0])
    monkeypatch.setattr(
        gqlab.checks,
        "mat_mul",
        lambda a, b: mat_mul(a, b) ^ (0b010_000_000 if a == b == faulty else 0),
    )
    report = _single_report("sec3.gf8-fields")
    assert not report.passed
    assert report.actual == wanted


# Planted faults in the matrix algebra of sec3.jordan-closure: violators are
# listed a ascending, the inverse of a before its products, then b ascending.


@pytest.mark.parametrize(
    "faulty, wanted",
    [
        (
            (0b000011,),
            "violations: ['001100*000011*001100', '001101*000011*001101', "
            "'001110*000011*001110']",
        ),
        (
            (0b000011, 0b000101),
            "violations: ['001100*000011*001100', '001100*000101*001100', "
            "'001101*000011*001101']",
        ),
    ],
    ids=["one-b", "two-b"],
)
def test_jordan_closure_fails_on_a_non_symmetric_singular_b(monkeypatch, faulty, wanted):
    # each faulty singular b expands with entry (1,2) flipped, so A*B*A is
    # not symmetric for every invertible A
    sym_to_mat = gqlab.gf2.sym_to_mat
    monkeypatch.setattr(
        gqlab.checks,
        "sym_to_mat",
        lambda s: sym_to_mat(s) ^ (0b010_000_000 if s in faulty else 0),
    )
    report = _single_report("sec3.jordan-closure")
    assert not report.passed
    assert report.actual == wanted


def test_jordan_closure_fails_on_one_non_symmetric_inverse(monkeypatch):
    inverse3, faulty = gqlab.gf2.inverse3, gqlab.gf2.sym_to_mat(0b001101)
    monkeypatch.setattr(
        gqlab.checks,
        "inverse3",
        lambda m: inverse3(m) ^ (0b010_000_000 if m == faulty else 0),
    )
    report = _single_report("sec3.jordan-closure")
    assert not report.passed
    assert report.actual == "violations: ['inverse(001101)']"


@pytest.mark.parametrize("s", [0, 0b001100 ^ gqlab.gf2.SYM_IDENTITY], ids=["rank-0", "rank-1"])
def test_rank_meet_identity_fails_on_one_wrong_rank(monkeypatch, s):
    mat_rank, faulty = gqlab.planes.mat_rank, gqlab.gf2.sym_to_mat(s)
    monkeypatch.setattr(gqlab.planes, "mat_rank", lambda m: mat_rank(m) ^ (m == faulty))
    report = _single_report("sec5.rank-meet-identity")
    assert not report.passed
    assert report.actual == "identity fails"


def test_rank_meet_identity_fails_on_two_swapped_planes(monkeypatch):
    # U1 and V1 trade planes; pairs within the swap still pass, but some third
    # matrix Y has rank(U1 + Y) != rank(V1 + Y)
    at = gqlab.atlas.atlas()
    swap = {at.u[0]: at.v[0], at.v[0]: at.u[0]}
    plane_of = gqlab.planes.plane_of
    monkeypatch.setattr(gqlab.planes, "plane_of", lambda x: plane_of(swap.get(x, x)))
    report = _single_report("sec5.rank-meet-identity")
    assert not report.passed
    assert report.actual == "identity fails"


def test_rank_meet_identity_fails_on_the_two_last_planes_swapped(monkeypatch):
    # 62 and 63 trade planes; the pairs among them still pass, so the
    # identity must fail on a pair (x, 62) or (x, 63) with a smaller x
    swap, plane_of = {62: 63, 63: 62}, gqlab.planes.plane_of
    monkeypatch.setattr(gqlab.planes, "plane_of", lambda x: plane_of(swap.get(x, x)))
    rank = gqlab.planes.mat_rank
    for x in (62, 63):
        for y in (62, 63):
            meet = gqlab.planes.plane_of(x) & gqlab.planes.plane_of(y)
            assert rank(gqlab.gf2.sym_to_mat(x ^ y)) + meet.bit_count().bit_length() == 3
    report = _single_report("sec5.rank-meet-identity")
    assert not report.passed
    assert report.actual == "identity fails"


def _three_space(plane):
    # the 15-point 3-space spanned by a plane and its smallest point off it
    w = next(v for v in range(1, 64) if not plane >> v & 1)
    return plane | 1 << w | gqlab.pg.translate_mask(plane, w)


def _plane_and_zero(plane):
    # 15 bits whose only meet that changes is the self-meet: the zero vector
    # and the seven points (v|0), which lie on no plane (X|1)
    return plane | 1 | sum(1 << (v << 3) for v in range(1, 8))


@pytest.mark.parametrize("grow", [_three_space, _plane_and_zero], ids=["3-space", "self-meet-15"])
def test_rank_meet_identity_fails_on_one_oversized_plane(monkeypatch, grow):
    # 15 shared points must not read as 7, the meet of rank 0
    x, plane_of = gqlab.atlas.atlas().d[4], gqlab.planes.plane_of
    monkeypatch.setattr(
        gqlab.planes, "plane_of", lambda y: grow(plane_of(y)) if y == x else plane_of(y)
    )
    assert gqlab.planes.plane_of(x).bit_count() >= 15
    report = _single_report("sec5.rank-meet-identity")
    assert not report.passed
    assert report.actual == "identity fails"


# Faults planted at a table builder: the builder is rebound in every gqlab
# module that bound it, the caches are cleared, and one cold run_suite()
# fails exactly the pinned ids, in registry order.


def _cold_failing_reports(monkeypatch, clear_gqlab_caches, original, planted):
    name = original.__name__
    rebound = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "gqlab" or module_name.startswith("gqlab."):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, planted)
                rebound.append(module_name)
    assert rebound
    clear_gqlab_caches()
    return [report for report in run_suite().reports if not report.passed]


def _cold_failing_ids(monkeypatch, clear_gqlab_caches, original, planted):
    failing = _cold_failing_reports(monkeypatch, clear_gqlab_caches, original, planted)
    return [report.check_id for report in failing]


def test_one_flipped_point_of_the_plane_table_fails_its_readers(monkeypatch, clear_gqlab_caches):
    # the plane of D5 loses its lowest point
    x, all_planes = gqlab.atlas.atlas().by_label["D5"], gqlab.planes._all_planes

    def planted():
        planes = list(all_planes())
        planes[x] ^= planes[x] & -planes[x]
        return tuple(planes)

    assert _cold_failing_ids(monkeypatch, clear_gqlab_caches, all_planes, planted) == [
        "sec5.plane-family",
        "sec5.rank-meet-identity",
        "sec5.collineation",
    ]


def test_one_wrong_row_image_of_a_d_matrix_fails_the_fano_check(monkeypatch, clear_gqlab_caches):
    # D5 fixes only 110; its image of 001 is planted as 001, a second fixed point
    row_images, m = gqlab.gf2.row_images, gqlab.gf2.sym_to_mat(gqlab.atlas.atlas().by_label["D5"])
    assert [v for v, w in enumerate(row_images(m)) if v == w] == [0, 0b110]

    def planted(n):
        images = row_images(n)
        return images[:1] + (1,) + images[2:] if n == m else images

    assert _cold_failing_ids(monkeypatch, clear_gqlab_caches, row_images, planted) == [
        "sec3.fano-fixed-points",
    ]


def test_plane_model_with_two_labels_traded_fails_only_its_law(monkeypatch, clear_gqlab_caches):
    # the first two points trade places on every line: the model is still a
    # GQ(2,4) on the same 27 planes, but each of the two now has the other's
    # neighbours, which the determinant law of its own label refuses
    build_plane_model = gqlab.planes.build_plane_model

    def planted():
        inc = build_plane_model()
        a, b = inc.points[:2]
        trade = {a: b, b: a}
        lines = [[trade.get(p, p) for p in line] for line in inc.lines]
        return gqlab.quadrangle.make_structure(inc.name, inc.points, lines)

    failing = _cold_failing_reports(monkeypatch, clear_gqlab_caches, build_plane_model, planted)
    assert [(r.check_id, r.actual) for r in failing] == [
        ("sec5.pi-plane-model", "set match True, law match False, order (2, 4)"),
    ]


def _cone_without_its_apex(sections, axis):
    """A stand-in for _sections in which the tangent section of axis trades
    its first line through the axis for a line off the axis that meets the
    other four lines once: 11 points on 5 lines still, but the 5 lines have
    no common point, so it is no cone."""

    def planted(axes):
        quad = gqlab.quadrangle
        c = quad.compile_structure(quad.build_quadric_quadrangle())
        apex = c.labels.index(gqlab.gf2.bits6(axis))
        for a, points, lines in sections(axes):
            if a == axis:
                lines &= lines - 1
                covered = 0
                for j in gqlab.pg.bit_indices(lines):
                    covered |= c.line_points[j]
                off_axis = next(
                    mask
                    for mask in c.line_points
                    if not mask >> apex & 1 and (mask & covered).bit_count() == 1
                )
                lines |= 1 << c.line_points.index(off_axis)
                assert (lines.bit_count(), (covered | off_axis).bit_count()) == (5, 11)
            yield a, points, lines

    return planted


def test_hyperplane_survey_fails_on_a_cone_without_its_apex(monkeypatch, clear_gqlab_caches):
    sections = gqlab.quadrangle._sections
    planted = _cone_without_its_apex(sections, _first_axis(True))
    failing = _cold_failing_reports(monkeypatch, clear_gqlab_caches, sections, planted)
    assert [(r.check_id, r.actual) for r in failing] == [
        ("sec2.hyperplane-survey", "36 sections of order (2,2), 26 tangent"),
    ]


def test_hyperplane_survey_fails_on_a_cone_without_its_apex_at_the_last_label(
    monkeypatch, clear_gqlab_caches
):
    # the 5 lines share no point, so their common mask is 0; the axis is
    # the quadric model's last label, which a read of the label at the
    # highest set bit of 0 would wrap to and call the apex
    sections = gqlab.quadrangle._sections
    quad = gqlab.quadrangle
    last = quad.compile_structure(quad.build_quadric_quadrangle()).labels[-1]
    planted = _cone_without_its_apex(sections, int(last, 2))
    failing = _cold_failing_reports(monkeypatch, clear_gqlab_caches, sections, planted)
    assert [(r.check_id, r.actual) for r in failing] == [
        ("sec2.hyperplane-survey", "36 sections of order (2,2), 26 tangent"),
    ]
