from fractions import Fraction

import pytest

from genwass import (
    EntropyParams,
    brute_force_value,
    dirac,
    measure,
    validate_metric,
)
from genwass.errors import TooLarge
from reference import enumerate_integer_plans, is_submeasure, marginals


def test_unit_masses_two_plans(two_point):
    mu = dirac(two_point, 0)
    nu = dirac(two_point, 0)
    plans = list(enumerate_integer_plans(mu, nu))
    totals = sorted(p.total for p in plans)
    assert totals == [0, 1]


def test_disjoint_support_two_plans(two_point):
    mu = measure(two_point, [1, 0])
    nu = measure(two_point, [0, 1])
    plans = list(enumerate_integer_plans(mu, nu))
    assert len(plans) == 2
    assert sorted(p.gamma[0][1] for p in plans) == [0, 1]
    assert all(p.gamma[0][0] == p.gamma[1][0] == p.gamma[1][1] == 0 for p in plans)


def test_zero_supply_single_plan(two_point):
    mu = measure(two_point, [0, 0])
    nu = measure(two_point, [3, 1])
    plans = list(enumerate_integer_plans(mu, nu))
    assert len(plans) == 1
    assert plans[0].total == 0


def test_plans_are_distinct_and_feasible(line3):
    mu = measure(line3, [2, 1, 0])
    nu = measure(line3, [0, 1, 2])
    seen = set()
    for p in enumerate_integer_plans(mu, nu):
        assert all(map(is_submeasure, marginals(p), (mu, nu)))
        key = p.gamma
        assert key not in seen
        seen.add(key)


def test_cap_enforced(two_point):
    mu = measure(two_point, [100, 100])
    nu = measure(two_point, [100, 100])
    with pytest.raises(TooLarge):
        list(enumerate_integer_plans(mu, nu, cap=10))


def test_non_integer_masses_rejected(two_point):
    with pytest.raises(ValueError):
        brute_force_value(
            two_point,
            measure(two_point, [Fraction(1, 2), 0]),
            dirac(two_point, 1),
            EntropyParams(a=1, b=1, p=1),
        )


def test_brute_force_values(two_point, two_point_far, unit_params):
    assert brute_force_value(two_point, dirac(two_point, 0), dirac(two_point, 1), unit_params) == 1
    assert (
        brute_force_value(two_point_far, dirac(two_point_far, 0), dirac(two_point_far, 1), unit_params)
        == 2
    )
    p2 = EntropyParams(a=Fraction(1), b=Fraction(1), p=2)
    v = brute_force_value(two_point_far, dirac(two_point_far, 0), dirac(two_point_far, 1), p2)
    assert v == pytest.approx(2.0)  # min(2a, b * 3) at unit mass


def test_p1_value_is_homogeneous_in_mass(line3, unit_params):
    mu = measure(line3, [1, 0, 2])
    nu = measure(line3, [0, 2, 1])
    base = brute_force_value(line3, mu, nu, unit_params)
    for k in (2, 3):
        scaled = brute_force_value(line3, mu.scale(k), nu.scale(k), unit_params)
        assert scaled == k * base
