import dataclasses
import random
from fractions import Fraction
from itertools import repeat
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genwass import build_quotient, spaces, validate_action, validate_metric
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
from genwass.jsonio import parse_space
from genwass.scalars import ROUNDING_TOL as FLOAT_METRIC_RTOL
from genwass.scalars import scaled_rows
from genwass.spaces import FiniteMetricSpace, compose
from reference import metric_violation


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
    # ints past 2**53 checked in float mode: the float scan decides wherever
    # the integer test fails
    "big int": st.integers(2**60, 2**61),
}


@given(st.integers(3, 6), st.sampled_from(sorted(ENTRIES)), st.data())
def test_rational_triangle_witness_matches_fraction_scan(n, kind, data):
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = data.draw(ENTRIES[kind])
    float_mode = kind in ("float", "big int")
    if float_mode:
        # one pair just below or just above its shortest detour plus the slack
        i, j = data.draw(st.permutations(range(n)))[:2]
        detour = min(d[i][k] + d[k][j] for k in range(n) if k not in (i, j))
        slack = FLOAT_METRIC_RTOL * max(detour, *(max(row) for row in d))
        nudge = data.draw(st.sampled_from((0, 0.5, 0.99, 1.01, 2))) * slack
        d[i][j] = d[j][i] = detour + (round(nudge) if kind == "big int" else nudge)
    f = [[float(x) for x in row] for row in d] if float_mode else d
    slack = FLOAT_METRIC_RTOL * max(max(row) for row in f) if float_mode else 0
    expected = next(
        (
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if len({i, j, k}) == 3 and f[i][j] > f[i][k] + f[k][j] + slack
        ),
        None,
    )
    labels = [f"p{i}" for i in range(n)]
    if expected is None:
        assert validate_metric(labels, d, exact=not float_mode).dist == tuple(tuple(row) for row in f)
    else:
        with pytest.raises(TriangleViolation) as err:
            validate_metric(labels, d, exact=not float_mode)
        assert (err.value.i, err.value.j, err.value.k) == expected


def test_float_mode_int_rows_past_2_53_fall_back_to_the_float_slack():
    # slack = 1e-12 * diameter, about 2.3e6 at diameter 2**61.  The detour
    # through 1 is short of d[0][3] by u and the one through 2 by 4u: both
    # inside the slack at u = 2**19, only the first at u = 2**21.  The
    # integer test fails on both metrics; only the float scan may decide.
    big = 2**60

    def metric(u):
        return [
            [0, big, big, 2 * big + 4 * u],
            [big, 0, big, big + 3 * u],
            [big, big, 0, big],
            [2 * big + 4 * u, big + 3 * u, big, 0],
        ]

    labels = ["a", "b", "c", "d"]
    assert metric_violation(metric(2**19), exact=True)[0] is TriangleViolation
    space = validate_metric(labels, metric(2**19), exact=False)
    assert space.dist[0][3] == float(2 * big + 4 * 2**19)
    with pytest.raises(TriangleViolation) as err:
        validate_metric(labels, metric(2**21), exact=False)
    assert (err.value.i, err.value.j, err.value.k) == (0, 3, 2)
    assert metric_violation(metric(2**21), exact=False) == (TriangleViolation, (0, 3, 2))


def closed_metric(rng, n, max_d=9):
    """Integer distances in [1, max_d], closed under shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_d)
    for k in range(n):
        for i in range(n):
            d[i] = list(map(min, d[i], map(add, repeat(d[i][k]), d[k])))
    return d


def wide_metric(rng, n, low=1000):
    """Integers in [low, 2 low]: every triangle holds with no closure."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(low, 2 * low)
    return d


def l1_metric(rng, n, side=1000):
    """n distinct points of {0..side}^2 under the l1 distance."""
    points = set()
    while len(points) < n:
        points.add((rng.randint(0, side), rng.randint(0, side)))
    points = sorted(points)
    return [[abs(x - u) + abs(y - v) for u, v in points] for x, y in points]


FAMILIES = {"closed": closed_metric, "wide": wide_metric, "l1": l1_metric}


def assert_same_verdict(matrix, exact):
    labels = [f"p{i}" for i in range(len(matrix))]
    expected = metric_violation(matrix, exact)
    if expected is None:
        assert validate_metric(labels, matrix, exact=exact).exact == exact
        return
    with pytest.raises(expected[0]) as err:
        validate_metric(labels, matrix, exact=exact)
    assert tuple(getattr(err.value, name) for name in ("i", "j", "k") if hasattr(err.value, name)) == expected[1]


@pytest.mark.parametrize("n", [3, 24, 128])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_triangle_check_matches_the_per_pair_scan(family, n):
    rng = random.Random(f"{family} {n}")
    d = FAMILIES[family](rng, n)
    i, j = rng.sample(range(n), 2)
    detour = min(d[i][k] + d[k][j] for k in range(n) if k not in (i, j))
    # as given, then one pair just below and just above its shortest detour
    for value in (d[i][j], detour - 1, detour + 1):
        m = [row[:] for row in d]
        m[i][j] = m[j][i] = value
        assert_same_verdict(m, exact=True)
        assert_same_verdict(m, exact=False)  # int rows in float mode
        assert_same_verdict([[x / 4 for x in row] for row in m], exact=False)


CORRUPT = st.sampled_from((-1, 0, 1, 2, 9))


@given(st.integers(1, 5), st.booleans(), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), CORRUPT), max_size=3))
def test_axiom_witnesses_match_the_entry_walk(n, exact, corruptions):
    # a metric with a few entries overwritten, so each axiom fails somewhere
    d = [[0 if i == j else 1 + (i + j) % 2 for j in range(n)] for i in range(n)]
    for i, j, x in corruptions:
        d[i % n][j % n] = x
    assert_same_verdict(d, exact)  # in float mode: int rows
    if not exact:
        assert_same_verdict([[float(x) for x in row] for row in d], exact)


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


def test_empty_space_rejected():
    with pytest.raises(ValueError, match="^a space needs at least one point$"):
        validate_metric([], [])


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


LINE3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_int_rows_are_their_own_image_without_scaling(monkeypatch):
    calls = []
    monkeypatch.setattr(spaces, "scaled_rows", lambda rows: calls.append(rows) or scaled_rows(rows))
    exact = validate_metric("xyz", LINE3, exact=True)
    inexact = validate_metric("xyz", LINE3, exact=False)
    assert calls == []
    assert exact._scaled == scaled_rows(exact.dist) == (tuple(map(tuple, LINE3)), 1)
    assert inexact._scaled is None


def _reflected_line(space):
    return build_quotient(validate_action(space, [(0, 1, 2), (2, 1, 0)])).quotient


HALF = Fraction(1, 2)
HALVES = [[0, HALF, 1], [HALF, 0, HALF], [1, HALF, 0]]
CONSTRUCTIONS = {
    "int rows": lambda: validate_metric("xyz", LINE3),
    "Fraction rows": lambda: validate_metric("xyz", HALVES),
    "p/q strings": lambda: parse_space({"points": list("xyz"), "d": [[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]]}),
    "int-valued floats": lambda: validate_metric("xyz", [[float(x) for x in row] for row in LINE3], exact=True),
    "quotient": lambda: _reflected_line(validate_metric("xyz", HALVES)),
    "dataclasses.replace": lambda: dataclasses.replace(validate_metric("xyz", LINE3)),
    "direct": lambda: FiniteMetricSpace(("x", "y", "z"), validate_metric("xyz", LINE3).dist, True),
}


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_every_exact_space_keeps_the_scaled_image_of_its_distances(build):
    space = build()
    assert space.exact and space._scaled == scaled_rows(space.dist)
    assert space.as_float()._scaled is None


def test_the_integer_image_stays_out_of_the_fields():
    space = validate_metric("xyz", LINE3)
    fresh = dataclasses.replace(space)
    assert "_scaled" in vars(space) and "_scaled" not in vars(fresh)
    assert fresh == space and hash(fresh) == hash(space) and repr(fresh) == repr(space)
    assert [f.name for f in dataclasses.fields(space)] == ["labels", "dist", "exact"]


def irreducible_by_definition(d):
    """The pairs (i, j), i < j, with d[i][k] + d[k][j] > d[i][j] for every k outside {i, j}."""
    n = len(d)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if all(d[i][k] + d[k][j] > d[i][j] for k in range(n) if k not in (i, j))
    )


def shortest_paths_over(pairs, d):
    """Floyd-Warshall from the distances of the listed pairs alone."""
    n = len(d)
    far = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for i, j in pairs:
        far[i][j] = far[j][i] = d[i][j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if far[i][k] is not None and far[k][j] is not None:
                    through = far[i][k] + far[k][j]
                    if far[i][j] is None or through < far[i][j]:
                        far[i][j] = through
    return far


def _path_metric(rng, n):
    # points on a line: only neighbours are irreducible
    xs = sorted(rng.sample(range(100), n))
    return validate_metric(range(n), [[abs(x - y) for y in xs] for x in xs])


SKELETON_FAMILIES = {
    **{name: lambda rng, n, make=make: validate_metric(range(n), make(rng, n)) for name, make in FAMILIES.items()},
    "closed-rational": lambda rng, n: validate_metric(
        range(n), [[d * Fraction(2, 3) for d in row] for row in closed_metric(rng, n)]
    ),
    "path": _path_metric,
}


@pytest.mark.parametrize("family", SKELETON_FAMILIES.values(), ids=SKELETON_FAMILIES.keys())
def test_irreducible_pairs_match_the_definition(family):
    # every n from 1 to 12, then two larger draws; the shortest paths over
    # the pairs give back every distance
    rng = random.Random(3011)
    for n in [*range(1, 13), 24, 40]:
        space = family(rng, n)
        pairs = space._irreducible
        assert pairs == irreducible_by_definition(space.dist)
        assert shortest_paths_over(pairs, space.dist) == [list(row) for row in space.dist]
        if family is _path_metric:
            assert len(pairs) == n - 1


def test_irreducible_pairs_are_built_on_first_use_only():
    # validation does not build them, float spaces have none, and they stay
    # out of the fields
    space = validate_metric("xyz", LINE3)
    assert "_irreducible" not in vars(space)
    assert space._irreducible == ((0, 1), (1, 2))
    assert "_irreducible" in vars(space) and space == dataclasses.replace(space)
    assert space.as_float()._irreducible is None
    assert validate_metric("x", [[0]])._irreducible == ()
    assert validate_metric("xy", [[0, 7], [7, 0]])._irreducible == ((0, 1),)


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
        ([(0.0, 1.9), (True, 0)], None, "not a permutation of 0..1"),
        ([("0", "1")], None, "not a permutation of 0..1"),
        ([(0, 1), (1.0, 0.0)], None, "not a permutation of 0..1"),
        ([(0, 1), (1, 0)], ["e"], "one label per group element required"),
        ([(0, 1), (1, 0)], ["e", "e"], "group element labels must be distinct"),
    ],
    ids=["not-a-permutation", "floats-and-bool", "strings", "integral-floats", "label-count", "duplicate-labels"],
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
    g, inverse = (1, 2, 0), (2, 0, 1)
    assert compose(g, inverse) == (0, 1, 2)
    assert compose(inverse, g) == (0, 1, 2)


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
