import random
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
from genwass.selftest import random_int_metric, random_params
from reference import brute_force_value as per_leaf_value
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


def test_brute_force_value_enforces_its_state_cap(line3, unit_params):
    # one cell: shipping v = 0..5 leaves 6 states (5 - v, 5 - v), the most
    # the dynamic program keeps at once
    space = validate_metric(["x"], [[0]], exact=True)
    mu = nu = measure(space, [5])
    assert brute_force_value(space, mu, nu, unit_params, cap=6) == 0
    with pytest.raises(TooLarge):
        brute_force_value(space, mu, nu, unit_params, cap=5)
    mu = nu = measure(line3, [3, 3, 3])
    assert brute_force_value(line3, mu, nu, unit_params) == 0
    with pytest.raises(TooLarge):
        brute_force_value(line3, mu, nu, unit_params, cap=10)


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


ORDERS = (1, Fraction(3, 2), 2, 3)


def oracle_instances(seed, count):
    """Seeded spaces of 1 to 3 points, exact at scale 1 and 2/3 and float,
    with integer masses up to 3, at every order of ORDERS."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        dist = random_int_metric(rng, n, max_d=rng.choice((3, 9))).dist
        mu_w, nu_w = ([rng.randint(0, 3) for _ in range(n)] for _ in range(2))
        params = random_params(rng, p=1)
        for scale, exact in ((1, True), (Fraction(2, 3), True), (1, False)):
            cast = (lambda x: x) if exact else float
            d = [[cast(scale * x) for x in row] for row in dist]
            space = validate_metric([f"x{i}" for i in range(n)], d, exact=exact)
            mu, nu = (measure(space, list(map(cast, ws))) for ws in (mu_w, nu_w))
            for p in ORDERS:
                yield space, mu, nu, EntropyParams(a=cast(params.a), b=cast(params.b), p=cast(p))


def test_brute_force_value_matches_the_per_leaf_reference():
    # integer costs and one evaluation per distinct (m, t) give the value
    # that a Fraction sum per plan gives
    count = 0
    for space, mu, nu, params in oracle_instances(31, 40):
        got, want = brute_force_value(space, mu, nu, params), per_leaf_value(space, mu, nu, params)
        # equal reprs: the same Fraction, or the same float to the last bit
        assert type(got) is type(want) and repr(got) == repr(want), (space.dist, mu.weights, nu.weights, params)
        count += 1
    assert count == 40 * 3 * len(ORDERS)
