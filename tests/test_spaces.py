from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genwass import build_quotient, validate_action, validate_metric
from genwass.errors import (
    AsymmetricEntry,
    MissingIdentity,
    NegativeEntry,
    NonFiniteEntry,
    NonzeroDiagonal,
    NotClosed,
    NotIsometry,
    TriangleViolation,
    ZeroOffDiagonal,
)
from genwass.spaces import FLOAT_METRIC_RTOL, compose, inverse


def test_two_point_metric_is_valid():
    space = validate_metric(["x", "y"], [[0, 1], [1, 0]])
    assert space.n == 2
    assert space.diameter == 1
    assert space.exact


def test_triangle_violation_names_witnesses():
    with pytest.raises(TriangleViolation) as err:
        validate_metric(["x", "y", "z"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)


def test_rational_triangle_violation_names_first_witness():
    # denominators 2, 3, 5, 7; d[0][2] <= d[0][1] + d[1][2] is tight-ish
    # (1/2 <= 8/15), the first violated triple in (i, j, k) order is (0, 3, 2)
    f = Fraction
    d = [
        [0, f(1, 3), f(1, 2), f(5, 7)],
        [f(1, 3), 0, f(1, 5), f(2, 3)],
        [f(1, 2), f(1, 5), 0, f(1, 7)],
        [f(5, 7), f(2, 3), f(1, 7), 0],
    ]
    with pytest.raises(TriangleViolation) as err:
        validate_metric(["a", "b", "c", "d"], d)
    assert (err.value.i, err.value.j, err.value.k) == (0, 3, 2)


ENTRIES = {
    "fraction": st.builds(Fraction, st.integers(1, 20), st.sampled_from((1, 2, 3, 5, 7))),
    "int": st.integers(1, 20),
    # at least half the diameter: a metric unless a pair is nudged past its slack
    "float": st.floats(10, 20),
}


@given(st.integers(3, 6), st.sampled_from(sorted(ENTRIES)), st.data())
def test_rational_triangle_witness_matches_fraction_scan(n, kind, data):
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = data.draw(ENTRIES[kind])
    float_mode = kind == "float"
    if float_mode:
        # one pair just below or just above its shortest detour plus the slack
        i, j = data.draw(st.permutations(range(n)))[:2]
        detour = min(d[i][k] + d[k][j] for k in range(n) if k not in (i, j))
        slack = FLOAT_METRIC_RTOL * max(detour, *(max(row) for row in d))
        d[i][j] = d[j][i] = detour + data.draw(st.sampled_from((0, 0.5, 0.99, 1.01, 2))) * slack
    slack = FLOAT_METRIC_RTOL * float(max(max(row) for row in d)) if float_mode else 0
    expected = next(
        (
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if len({i, j, k}) == 3 and d[i][j] > d[i][k] + d[k][j] + slack
        ),
        None,
    )
    labels = [f"p{i}" for i in range(n)]
    if expected is None:
        assert validate_metric(labels, d).dist == tuple(tuple(row) for row in d)
    else:
        with pytest.raises(TriangleViolation) as err:
            validate_metric(labels, d)
        assert (err.value.i, err.value.j, err.value.k) == expected


def test_float_triangle_witness_skips_detours_within_the_slack():
    # slack = 1e-12 * diameter, about 2e-12: the detour through 1 is short of
    # d[0][3] by 1e-12, inside the slack; the one through 2 by 4e-12, past it
    d = [
        [0, 1.0, 1.0, 2.0 + 4e-12],
        [1.0, 0, 1.0, 1.0 + 3e-12],
        [1.0, 1.0, 0, 1.0],
        [2.0 + 4e-12, 1.0 + 3e-12, 1.0, 0],
    ]
    with pytest.raises(TriangleViolation) as err:
        validate_metric(["a", "b", "c", "d"], d)
    assert (err.value.i, err.value.j, err.value.k) == (0, 3, 2)


def test_asymmetric_entry():
    with pytest.raises(AsymmetricEntry) as err:
        validate_metric(["x", "y"], [[0, 1], [2, 0]])
    assert (err.value.i, err.value.j) == (0, 1)


def test_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal):
        validate_metric(["x", "y"], [[1, 1], [1, 0]])


def test_zero_off_diagonal():
    with pytest.raises(ZeroOffDiagonal):
        validate_metric(["x", "y"], [[0, 0], [0, 0]])


def test_negative_entry():
    with pytest.raises(NegativeEntry):
        validate_metric(["x", "y"], [[0, -1], [-1, 0]])


@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("exact", [None, True, False], ids=["inferred", "exact", "float"])
def test_non_finite_entry(bad, exact):
    with pytest.raises(NonFiniteEntry) as err:
        validate_metric(["x", "y", "z"], [[0, 1.0, 2.0], [1.0, 0, bad], [2.0, bad, 0]], exact=exact)
    assert (err.value.i, err.value.j) == (1, 2)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        validate_metric(["x", "y"], [[0, 1]])


def test_rational_strings_stay_exact():
    space = validate_metric(["x", "y"], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]])
    assert space.exact
    assert space.dist[0][1] == Fraction(3, 2)


def test_exact_entries_are_kept_not_copied():
    # a Fraction entry is stored as given; ints become Fractions; the integer
    # image of the distances stays out of equality and repr
    d = Fraction(3, 2)
    space = validate_metric(["x", "y"], [[0, d], [d, 0]])
    assert space.dist[0][1] is d and space.dist[1][0] is d
    assert type(space.dist[0][0]) is Fraction
    assert space._scaled == (((0, 3), (3, 0)), 2)
    assert space == validate_metric(["x", "y"], [[0, Fraction(6, 4)], [Fraction(6, 4), 0]]) != space.as_float()
    assert "_scaled" not in repr(space) and space.as_float()._scaled is None


def test_float_inference():
    space = validate_metric(["x", "y"], [[0, 1.5], [1.5, 0]])
    assert not space.exact


def test_float_triangle_tolerance_absorbs_rounding():
    # equality case plus a relative wobble below 1e-12 * diameter
    d = 0.1 + 0.2  # 0.30000000000000004
    space = validate_metric(["x", "y", "z"], [[0, 0.1, d], [0.1, 0, 0.2], [d, 0.2, 0]])
    assert not space.exact


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="point labels must be unique"):
        validate_metric(["x", "x"], [[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "elements, labels, message",
    [
        ([(0, 1), (0, 0)], None, "not a permutation of 0..1"),
        ([(0, 1), (1, 0)], ["e"], "one label per group element required"),
        ([(0, 1), (1, 0)], ["e", "e"], "group element labels must be distinct"),
    ],
    ids=["not-a-permutation", "label-count", "duplicate-labels"],
)
def test_malformed_actions_rejected(elements, labels, message):
    space = validate_metric(["x", "y"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=message):
        validate_action(space, elements, labels=labels)


def test_swap_action_validates():
    space = validate_metric(["x", "y"], [[0, 1], [1, 0]])
    action = validate_action(space, [(0, 1), (1, 0)])
    assert action.order == 2


def test_missing_identity():
    space = validate_metric(["x", "y"], [[0, 1], [1, 0]])
    with pytest.raises(MissingIdentity):
        validate_action(space, [(1, 0)])


def test_non_isometry_detected():
    # path 1 - 2 - 3 with d(1,2)=1, d(2,3)=2: swapping the endpoints is not isometric
    space = validate_metric(["1", "2", "3"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    with pytest.raises(NotIsometry) as err:
        validate_action(space, [(0, 1, 2), (2, 1, 0)])
    assert err.value.g == "g1"


def test_not_closed():
    # two 4-cycles rotations without their composition
    space = validate_metric(
        ["a", "b", "c", "d"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )
    rot = (1, 2, 3, 0)
    with pytest.raises(NotClosed):
        validate_action(space, [(0, 1, 2, 3), rot])


def test_compose_inverse_helpers():
    g = (1, 2, 0)
    assert compose(g, inverse(g)) == (0, 1, 2)
    assert compose(inverse(g), g) == (0, 1, 2)


def test_quotient_of_swap_is_single_point():
    space = validate_metric(["x", "y"], [[0, 1], [1, 0]])
    action = validate_action(space, [(0, 1), (1, 0)])
    q = build_quotient(action)
    assert q.quotient.n == 1
    assert q.orbits == ((0, 1),)
    assert q.projection == (0, 0)


def test_quotient_of_reflection_on_line():
    space = validate_metric(["-1", "0", "1"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    action = validate_action(space, [(0, 1, 2), (2, 1, 0)])
    q = build_quotient(action)
    assert q.quotient.n == 2
    assert q.orbits == ((0, 2), (1,))
    # the two classes sit at distance min over representatives = 1
    a, b = q.projection[0], q.projection[1]
    assert q.quotient.dist[a][b] == 1


def test_trivial_quotient_is_identity_up_to_relabeling():
    space = validate_metric(["x", "y", "z"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    action = validate_action(space, [(0, 1, 2)])
    q = build_quotient(action)
    assert q.quotient.dist == space.dist
    assert q.projection == (0, 1, 2)


def test_quotient_is_one_lipschitz_exhaustively():
    space = validate_metric(
        ["a", "b", "c", "d"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )
    rot = (1, 2, 3, 0)
    elems = [(0, 1, 2, 3), rot, compose(rot, rot), compose(rot, compose(rot, rot))]
    action = validate_action(space, elems)
    q = build_quotient(action)
    for x in range(space.n):
        for y in range(space.n):
            assert q.quotient.dist[q.projection[x]][q.projection[y]] <= space.dist[x][y]
