import random
from fractions import Fraction

import pytest

from genwass import (
    EntropyParams,
    approximate_inverse,
    equivariant_defect,
    gh_defect,
    make_gh_map,
    pushforward_bound,
    validate_action,
    validate_metric,
)
from genwass.errors import GroupMismatch, InvalidParams
from genwass.gh import GHMap, check_equivariant_stability, check_pushforward_stability
from genwass.selftest import (
    random_equivariant_target,
    random_gh_triple,
    random_space_with_action,
)


@pytest.fixture
def stretched_pair():
    src = validate_metric(["x", "y"], [[0, 1], [1, 0]])
    tgt = validate_metric(["u", "v"], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]])
    return src, tgt


def test_identity_defect_zero(two_point):
    assert gh_defect([0, 1], two_point, two_point) == 0


def test_bijection_distortion(stretched_pair):
    src, tgt = stretched_pair
    assert gh_defect([0, 1], src, tgt) == Fraction(1, 2)


def test_constant_map_defect(two_point):
    assert gh_defect([0, 0], two_point, two_point) == 1


def test_inverse_of_identity(two_point):
    m = make_gh_map([0, 1], two_point, two_point)
    inv = approximate_inverse(m)
    assert inv.table == (0, 1)
    assert inv.epsilon == 0


def test_inverse_of_stretched_bijection(stretched_pair):
    src, tgt = stretched_pair
    m = make_gh_map([0, 1], src, tgt)
    inv = approximate_inverse(m)
    assert inv.table == (0, 1)
    assert inv.epsilon <= 3 * m.epsilon


def test_inverse_below_the_defect_takes_the_nearest_point(two_point, line3):
    # the last point of the line lies 1 from the image, beyond epsilon = 0
    m = GHMap(source=two_point, target=line3, table=(0, 1), epsilon=0)
    assert gh_defect(m.table, two_point, line3) == 1
    assert approximate_inverse(m).table == (0, 1, 1)


def test_inverse_defect_and_roundtrips_hold_everywhere():
    rng = random.Random(14)
    for _ in range(40):
        ghmap = random_gh_triple(rng)
        eps = ghmap.epsilon
        inv = approximate_inverse(ghmap)
        assert inv.epsilon <= 3 * eps + 1e-12
        for x in range(ghmap.source.n):
            roundtrip = inv.table[ghmap.table[x]]
            assert ghmap.source.dist[x][roundtrip] <= 2 * eps + 1e-12
        for y in range(ghmap.target.n):
            roundtrip = ghmap.table[inv.table[y]]
            assert ghmap.target.dist[y][roundtrip] <= eps + 1e-12


def test_bound_vanishes_with_epsilon():
    assert pushforward_bound(0, EntropyParams(1, 1, 1), 1, 5, 7) == 0


def test_bound_formula_p1():
    got = pushforward_bound(0.1, EntropyParams(a=1, b=1, p=1), 1, 4, 9)
    # diam^0 = 1 on both sides: 8 * 0.1 + 9 * 1 * 2 * 0.1
    assert got == pytest.approx(2.6)


def test_bound_formula_p2():
    got = pushforward_bound(0.01, EntropyParams(a=1, b=2, p=2), 4, 1, 1)
    expected = 8 * 2 * 4 ** (2 / 2) * 0.01 + 2 * (9 * 2 * 4 * (1 + 1) * 0.01) ** 0.5
    assert got == pytest.approx(expected)
    assert got == pytest.approx(3.04)


def test_bound_rejects_bad_inputs():
    with pytest.raises(InvalidParams):
        pushforward_bound(-0.1, EntropyParams(1, 1, 1), 1, 1, 1)
    with pytest.raises(InvalidParams):
        pushforward_bound(0.1, EntropyParams(1, 1, 1), 0, 1, 1)
    with pytest.raises(InvalidParams):  # C^(2/p) overflows
        pushforward_bound(0.1, EntropyParams(1, 1, 1), 1e200, 1, 1)
    with pytest.raises(InvalidParams):  # 8 b overflows and meets eps = 0: NaN
        pushforward_bound(0, EntropyParams(1, 1e308, 1), 1, 1, 1)


def test_equivariant_defect_identity(two_point):
    action = validate_action(two_point, [(0, 1), (1, 0)])
    assert equivariant_defect([0, 1], action, action) == 0


def test_equivariant_defect_dominated_by_distortion(stretched_pair):
    src, tgt = stretched_pair
    a_src = validate_action(src, [(0, 1), (1, 0)])
    a_tgt = validate_action(tgt, [(0, 1), (1, 0)])
    # swap-equivariant bijection between d=1 and d=3/2: distortion dominates
    assert equivariant_defect([0, 1], a_src, a_tgt) == Fraction(1, 2)


def test_equivariant_defect_of_conjugating_map(two_point):
    swap = validate_action(two_point, [(0, 1), (1, 0)], labels=["e", "s"])
    # the same two-element group acting trivially on the target
    only_id = validate_action(two_point, [(0, 1), (0, 1)], labels=["e", "s"])
    assert equivariant_defect([0, 1], swap, only_id) == 1


@pytest.mark.parametrize("table", [[0, 1.7], ["1", True]], ids=["float", "string-and-bool"])
def test_gh_maps_need_point_indices(two_point, table):
    with pytest.raises(ValueError, match="which is not a point index"):
        make_gh_map(table, two_point, two_point)


def test_group_label_mismatch(two_point):
    a1 = validate_action(two_point, [(0, 1), (1, 0)], labels=["e", "s"])
    a2 = validate_action(two_point, [(0, 1)], labels=["e"])
    with pytest.raises(GroupMismatch):
        equivariant_defect([0, 1], a1, a2)


def test_pushforward_stability_randomized():
    rng = random.Random(16)
    for k in range(25):
        ghmap = random_gh_triple(rng)
        params = EntropyParams(
            a=rng.choice((0.5, 1.0, 2.0)), b=rng.choice((0.5, 1.0)), p=rng.choice((1, 2))
        )
        result = check_pushforward_stability(ghmap, params, mass_cap=2.0, seed=100 + k, samples=2)
        assert result["deviation_ok"], result
        assert result["surjectivity_ok"], result


def test_equivariant_stability_randomized():
    rng = random.Random(18)
    for k in range(15):
        action = random_space_with_action(rng)
        target = random_equivariant_target(rng, action)
        params = EntropyParams(a=1.0, b=1.0, p=rng.choice((1, 2)))
        result = check_equivariant_stability(
            tuple(range(action.space.n)), action, target, params, mass_cap=2.0, seed=200 + k, samples=2
        )
        assert result["ok"], result
