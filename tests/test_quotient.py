import random
from fractions import Fraction

import pytest

from genwass import (
    EntropyParams,
    build_quotient,
    check_quotient_contraction,
    check_quotient_isometry,
    dirac,
    invariant_lift,
    measure,
    pushforward,
    solve_flat,
    solve_w1,
    symmetrize,
    validate_action,
)
from genwass.errors import NotInvariant
from genwass.measures import is_invariant
from genwass.quotient import project_measure
from genwass.selftest import random_rational_measure, random_space_with_action


def swap(space):
    return validate_action(space, [(0, 1), (1, 0)])


def test_trivial_group_changes_nothing(line3, unit_params):
    action = validate_action(line3, [(0, 1, 2)])
    mu = measure(line3, [1, 0, 2])
    nu = measure(line3, [0, 3, 0])
    up, down = check_quotient_contraction(action, mu, nu, unit_params)
    assert up == down


def test_contraction_on_non_invariant_pair(two_point, unit_params):
    action = swap(two_point)
    up, down = check_quotient_contraction(
        action, dirac(two_point, 0), dirac(two_point, 1), unit_params
    )
    assert (up, down) == (1, 0)


def test_identical_measures_give_zero(two_point, unit_params):
    action = swap(two_point)
    mu = measure(two_point, [1, Fraction(1, 2)])
    assert check_quotient_contraction(action, mu, mu, unit_params) == (0, 0)


def test_isometry_pure_mass_change(two_point, unit_params):
    action = swap(two_point)
    mu = measure(two_point, [1, 1])
    nu = measure(two_point, [2, 2])
    up, down = check_quotient_isometry(action, mu, nu, unit_params)
    assert up == down == 2


def test_isometry_reflection_line(line3, unit_params):
    action = validate_action(line3, [(0, 1, 2), (2, 1, 0)])
    mu = measure(line3, [1, 0, 1])
    nu = measure(line3, [0, 2, 0])
    up, down = check_quotient_isometry(action, mu, nu, unit_params)
    assert up == down == 2


def test_non_invariant_measure_rejected(two_point, unit_params):
    action = swap(two_point)
    with pytest.raises(NotInvariant) as err:
        check_quotient_isometry(action, dirac(two_point, 0), measure(two_point, [1, 1]), unit_params)
    assert err.value.which == "mu"


def test_near_invariance_fails_loudly_in_float_mode(unit_params):
    from genwass import validate_metric

    space = validate_metric(["x", "y"], [[0, 1.0], [1.0, 0]])
    action = swap(space)
    almost = measure(space, [1.0, 1.0 + 1e-9])
    with pytest.raises(NotInvariant):
        check_quotient_isometry(action, almost, almost, EntropyParams(1.0, 1.0, 1))


@pytest.mark.parametrize("size", [1e6, 1e9, 1e12])
def test_symmetrized_float_measures_are_invariant_at_any_size(size):
    # the float slack grows with the weights, as every float check's does
    rng = random.Random(23)
    for _ in range(8):
        action = random_space_with_action(rng)
        space = action.space.as_float()
        action = validate_action(space, action.elements, action.labels)
        weights = [[size * rng.random() for _ in range(space.n)] for _ in range(2)]
        mu, nu = (symmetrize(action, measure(space, w)) for w in weights)
        assert is_invariant(action, mu) is None and is_invariant(action, nu) is None
        up, down = check_quotient_isometry(action, mu, nu, EntropyParams(1.0, 1.0, 1))
        assert float(up) == pytest.approx(float(down), rel=1e-9)


def test_lift_surjectivity_and_invariance():
    rng = random.Random(19)
    for _ in range(25):
        action = random_space_with_action(rng)
        q = build_quotient(action)
        nu_star = random_rational_measure(rng, q.quotient)
        lifted = invariant_lift(action, q, nu_star)
        assert is_invariant(action, lifted) is None
        assert pushforward(q.projection, lifted, q.quotient).weights == nu_star.weights


def test_contraction_inequality_random_pairs():
    rng = random.Random(20)
    for _ in range(30):
        action = random_space_with_action(rng)
        space = action.space
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=rng.choice((1, 2)))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        up, down = check_quotient_contraction(action, mu, nu, params)
        assert float(down) <= float(up) + 1e-9


def test_isometry_equality_on_symmetrized_pairs():
    rng = random.Random(22)
    for _ in range(30):
        action = random_space_with_action(rng)
        space = action.space
        p = rng.choice((1, 2))
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=p)
        mu = symmetrize(action, random_rational_measure(rng, space))
        nu = symmetrize(action, random_rational_measure(rng, space))
        up, down = check_quotient_isometry(action, mu, nu, params)
        if p == 1:
            assert up == down
        else:
            assert float(up) == pytest.approx(float(down), rel=1e-9, abs=1e-9)


def test_flat_witness_lifts_through_projection():
    # the alternative route for p = 1: a downstairs flat witness composed with
    # the projection is feasible upstairs and reproduces the same objective
    rng = random.Random(24)
    for _ in range(20):
        action = random_space_with_action(rng)
        space = action.space
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
        mu = symmetrize(action, random_rational_measure(rng, space))
        nu = symmetrize(action, random_rational_measure(rng, space))
        q = build_quotient(action)
        mu_star, nu_star = project_measure(q, mu), project_measure(q, nu)
        down_value, witness = solve_flat(q.quotient, mu_star, nu_star, params)

        lifted = tuple(witness.f[q.projection[x]] for x in range(space.n))
        assert all(-params.a <= v <= params.a for v in lifted)
        for x in range(space.n):
            for y in range(space.n):
                assert abs(lifted[x] - lifted[y]) <= params.b * space.dist[x][y]
        objective = sum(
            lifted[x] * (mu.weights[x] - nu.weights[x]) for x in range(space.n)
        )
        assert objective == down_value
        assert solve_w1(space, mu, nu, params).value == down_value
