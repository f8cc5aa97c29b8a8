"""Tests for the enumeration and classification of the 28 matrices."""

import pytest

from gqlab.atlas import (
    NotInvertibleError,
    WrongClassError,
    atlas,
    classify,
    enumerate_invertible_symmetric,
    fano_action,
    label_of,
    multiplicative_closure,
    opposite,
)
from gqlab.checks import run_suite
from gqlab.gf2 import SYM_IDENTITY, eigenspace_one, parse_bits6, sym_to_mat


def test_enumeration_size_and_members():
    inv = enumerate_invertible_symmetric()
    assert len(inv) == 28
    assert SYM_IDENTITY in inv
    assert 0 not in inv


def test_class_sizes():
    at = atlas()
    assert (len(at.d), len(at.u), len(at.v)) == (15, 6, 6)
    assert len(set(at.points)) == 27
    assert SYM_IDENTITY not in at.points


def test_members_reads_each_class():
    at = atlas()
    assert (at.members("D"), at.members("U"), at.members("V")) == (at.d, at.u, at.v)
    for tag in ("X", "", "d", "1"):
        with pytest.raises(ValueError, match="unknown class"):
            at.members(tag)


def test_opposite_switches_u_and_v_only():
    assert (opposite("U"), opposite("V")) == ("V", "U")
    for tag in ("D", "X", "", "u", "identity"):
        with pytest.raises(WrongClassError, match="must be U or V"):
            opposite(tag)


def test_classify_examples():
    assert classify(parse_bits6("001100")) == "D"
    assert classify(parse_bits6("111100")) == "U"
    assert classify(parse_bits6("100101")) == "identity"
    for x in enumerate_invertible_symmetric():
        assert classify(x) == ("identity" if x == SYM_IDENTITY else label_of(x)[0])
    with pytest.raises(NotInvertibleError):
        classify(0)


def test_labels_round_trip():
    at = atlas()
    for x in at.points:
        assert at.by_label[label_of(x)] == x
    assert label_of(SYM_IDENTITY) == "1"
    assert label_of(parse_bits6("001100")) == "D1"


def test_label_of_reads_as_classify_on_every_symmetric_matrix():
    # a singular matrix has no label: label_of raises classify's error
    singular = 0
    for x in range(64):
        try:
            tag = classify(x)
        except NotInvertibleError as exc:
            with pytest.raises(NotInvertibleError) as raised:
                label_of(x)
            assert str(raised.value) == str(exc) == f"matrix {x:06b} has determinant 0"
            singular += 1
            continue
        assert label_of(x) == ("1" if tag == "identity" else atlas().labels[x])
    assert singular == 36


def test_multiplicative_closure_of_u1_is_u():
    at = atlas()
    assert multiplicative_closure(at.u[0]) == frozenset((SYM_IDENTITY, *at.u))
    assert multiplicative_closure(at.v[0]) == frozenset((SYM_IDENTITY, *at.v))


def test_multiplicative_closure_size_seven():
    at = atlas()
    for x in at.u + at.v:
        assert len(multiplicative_closure(x)) == 7


def test_closure_rejects_wrong_class():
    with pytest.raises(WrongClassError):
        multiplicative_closure(parse_bits6("001100"))


def test_closures_meet_only_in_identity():
    at = atlas()
    u_cl = multiplicative_closure(at.u[0])
    v_cl = multiplicative_closure(at.v[0])
    assert u_cl & v_cl == {SYM_IDENTITY}


def test_fano_action_d1_fixes_a_line():
    action = fano_action(parse_bits6("001100"))
    assert len(action.fixed_points) == 3
    a, b, c = action.fixed_points
    assert a ^ b == c  # the fixed set is a line of the Fano plane
    # fixed points are the nonzero eigenvectors
    eig = set(eigenspace_one(sym_to_mat(parse_bits6("001100")))) - {0}
    assert set(action.fixed_points) == eig


def test_fano_action_d4_one_fixed_point():
    assert len(fano_action(atlas().by_label["D4"]).fixed_points) == 1


def test_fano_action_u1_is_seven_cycle():
    action = fano_action(atlas().by_label["U1"])
    assert action.fixed_points == ()
    cycles = action.cycles()
    assert len(cycles) == 1 and len(cycles[0]) == 7


def test_fano_permutations_bijective():
    at = atlas()
    for x in at.points:
        action = fano_action(x)
        assert sorted(action.images) == list(range(1, 8))
        # the fixed points are exactly the nonzero eigenvectors
        eig = set(eigenspace_one(sym_to_mat(x))) - {0}
        assert set(action.fixed_points) == eig


def test_involutions_are_exactly_first_three_d():
    at = atlas()
    from gqlab.gf2 import MAT_IDENTITY, mat_mul

    involutions = [
        label_of(x)
        for x in at.points
        if mat_mul(sym_to_mat(x), sym_to_mat(x)) == MAT_IDENTITY
    ]
    assert involutions == ["D1", "D2", "D3"]


def test_classify_d_iff_eigenvalue():
    from gqlab.gf2 import eigenspace_dim

    at = atlas()
    for x in at.points:
        has = eigenspace_dim(sym_to_mat(x)) >= 1
        assert (classify(x) == "D") == has


def test_jordan_closure_check_passes():
    (report,) = run_suite("sec3.jordan-closure").reports
    assert report.passed, report.actual
    assert report.check_id == "sec3.jordan-closure"
