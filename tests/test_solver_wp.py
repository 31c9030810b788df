import random
from fractions import Fraction

import pytest

from genwass import (
    EntropyParams,
    brute_force_value,
    dirac,
    is_submeasure,
    measure,
    parametric_transport_curve,
    solve_w1,
    solve_wp,
    validate_metric,
    wasserstein_p,
)
from genwass.errors import InvalidParams, MassMismatch
from genwass.solver_wp import ParametricCurve
from genwass.selftest import random_int_measure, random_int_metric, random_rational_measure


def test_wasserstein_zero_for_equal_measures(line3):
    mu = measure(line3, [1, 2, 0])
    assert wasserstein_p(line3, mu, mu, 1) == 0
    assert wasserstein_p(line3, mu, mu, 2) == 0


def test_wasserstein_two_points_p2():
    space = validate_metric(["x", "y"], [[0, 2], [2, 0]])
    assert wasserstein_p(space, dirac(space, 0), dirac(space, 1), 2) == pytest.approx(2.0)


def test_wasserstein_p1_moves_one_unit(two_point):
    mu = measure(two_point, [1, 1])
    nu = measure(two_point, [2, 0])
    assert wasserstein_p(two_point, mu, nu, 1) == 1


def test_mass_mismatch_rejected(two_point):
    with pytest.raises(MassMismatch):
        wasserstein_p(two_point, measure(two_point, [1, 0]), measure(two_point, [1, 1]), 1)


def test_curve_single_arc(two_point_far):
    curve = parametric_transport_curve(
        two_point_far, dirac(two_point_far, 0), dirac(two_point_far, 1), 1
    )
    assert curve.breakpoints == ((0, 0), (1, 3))


def test_curve_cheapest_unit_first():
    space = validate_metric(["x1", "x2", "y"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    mu = measure(space, [1, 1, 0])
    nu = measure(space, [0, 0, 2])
    curve = parametric_transport_curve(space, mu, nu, 1)
    assert curve.breakpoints == ((0, 0), (1, 1), (2, 3))


def test_curve_of_zero_measure(two_point):
    curve = parametric_transport_curve(
        two_point, measure(two_point, [0, 0]), dirac(two_point, 1), 1
    )
    assert curve.breakpoints == ((0, 0),)


def test_curve_interpolation_matches_segments():
    space = validate_metric(["x1", "x2", "y"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    curve = parametric_transport_curve(
        space, measure(space, [1, 1, 0]), measure(space, [0, 0, 2]), 1
    )
    assert curve.value_at(Fraction(1, 2)) == Fraction(1, 2)
    assert curve.value_at(Fraction(3, 2)) == 2


def test_float_curves_of_valid_instances_construct():
    # non-dyadic weights round at every push: float breakpoints sit a few
    # ulps off the exact curve, and some augmentations leave the mass unchanged
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        space = random_int_metric(rng, n, max_d=9)
        den = rng.choice((3, 7, 10, 11))
        mu = measure(space, [Fraction(rng.randint(0, 3 * den), den) for _ in range(n)])
        nu = measure(space, [Fraction(rng.randint(0, 3 * den), den) for _ in range(n)])
        exact = parametric_transport_curve(space, mu, nu, 1)
        fspace = space.as_float()
        curve = parametric_transport_curve(fspace, mu.as_float(fspace), nu.as_float(fspace), 1)
        assert curve.max_mass == pytest.approx(float(exact.max_mass), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "points",
    [((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)), ((0, 0), (1, 2), (2, 3))],
    ids=["float", "exact"],
)
def test_non_convex_curve_is_rejected(points):
    with pytest.raises(ValueError, match="curve slopes must be nondecreasing"):
        ParametricCurve(breakpoints=points)


@pytest.mark.parametrize(
    "points, message",
    [
        (((0, 1), (1, 2)), "curve must start at"),
        (((0, 0), (1, 1), (1, 2)), "breakpoint masses must increase strictly"),
        (((0, 0), (1, 1), (2, 0)), "accumulated cost cannot decrease"),
    ],
    ids=["start", "mass-repeats", "cost-falls"],
)
def test_malformed_curves_are_rejected(points, message):
    with pytest.raises(ValueError, match=message):
        ParametricCurve(breakpoints=points)


def test_curve_value_outside_its_range_is_rejected():
    with pytest.raises(ValueError, match="mass outside the curve's range"):
        ParametricCurve(breakpoints=((0, 0), (1, 1))).value_at(2)


@pytest.mark.parametrize("call", ["EntropyParams", "wasserstein_p", "parametric_transport_curve"])
def test_orders_below_one_are_rejected(two_point, call):
    mu, nu, half = dirac(two_point, 0), dirac(two_point, 1), Fraction(1, 2)
    calls = {
        "EntropyParams": lambda: EntropyParams(a=1, b=1, p=half),
        "wasserstein_p": lambda: wasserstein_p(two_point, mu, nu, half),
        "parametric_transport_curve": lambda: parametric_transport_curve(two_point, mu, nu, half),
    }
    with pytest.raises(InvalidParams, match="p must be at least 1, got 1/2"):
        calls[call]()


def test_solve_wp_short_and_long(two_point, two_point_far):
    params = EntropyParams(a=Fraction(1), b=Fraction(1), p=2)
    near = solve_wp(two_point, dirac(two_point, 0), dirac(two_point, 1), params)
    assert near.value == pytest.approx(1.0)
    assert near.transported_mass == 1
    far = solve_wp(two_point_far, dirac(two_point_far, 0), dirac(two_point_far, 1), params)
    assert far.value == pytest.approx(2.0)
    assert far.transported_mass == 0


def test_solve_wp_empty_target(two_point):
    mu = measure(two_point, [2, 1])
    for p in (1, 2, 3):
        report = solve_wp(two_point, mu, measure(two_point, [0, 0]), EntropyParams(1, 1, p))
        assert float(report.value) == pytest.approx(3.0)


def test_wp_report_marginals_are_the_reduced_measures():
    rng = random.Random(3)
    for _ in range(20):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=2)
        report = solve_wp(space, mu, nu, params)
        gamma1, gamma2 = report.plan.marginals()
        assert is_submeasure(gamma1, mu) and is_submeasure(gamma2, nu)
        assert gamma1.mass == gamma2.mass == report.transported_mass
        assert report.potentials is None and report.conditions is None


def test_p1_consistency_with_dedicated_solver():
    rng = random.Random(9)
    for _ in range(40):
        space = random_int_metric(rng, rng.randint(1, 5))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(
            a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))), b=Fraction(1), p=1
        )
        scan = solve_wp(space, mu, nu, params)
        direct = solve_w1(space, mu, nu, params)
        assert scan.value == direct.value
        assert scan.duality_gap == 0
        assert scan.conditions is not None and scan.conditions.passed


def test_oracle_agreement_all_p():
    rng = random.Random(15)
    for _ in range(60):
        space = random_int_metric(rng, rng.randint(1, 3))
        mu = random_int_measure(rng, space, max_w=3)
        nu = random_int_measure(rng, space, max_w=3)
        p = rng.choice((1, 2, 3))
        params = EntropyParams(
            a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            b=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            p=p,
        )
        got = solve_wp(space, mu, nu, params).value
        expected = brute_force_value(space, mu, nu, params)
        if p == 1:
            assert got == expected
        else:
            assert float(got) == pytest.approx(float(expected), rel=1e-9)


def test_huge_a_degenerates_to_pure_transport():
    rng = random.Random(21)
    for _ in range(20):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space, max_w=2)
        if mu.mass == 0:
            continue
        perm = list(range(space.n))
        rng.shuffle(perm)
        nu = measure(space, [mu.weights[perm[i]] for i in range(space.n)])
        p = rng.choice((1, 2))
        b = Fraction(1)
        a = b * space.diameter * min(mu.mass, nu.mass) + 1
        report = solve_wp(space, mu, nu, EntropyParams(a=a, b=b, p=p))
        pure = wasserstein_p(space, mu, nu, p)
        assert float(report.value) == pytest.approx(float(b * pure), rel=1e-12, abs=1e-12)
        assert report.transported_mass == mu.mass


def test_value_monotone_in_a_and_b():
    rng = random.Random(27)
    grid = (Fraction(1, 2), Fraction(1), Fraction(2))
    for _ in range(15):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        p = rng.choice((1, 2))
        for lo, hi in ((grid[0], grid[1]), (grid[1], grid[2])):
            va = solve_wp(space, mu, nu, EntropyParams(a=lo, b=Fraction(1), p=p)).value
            vb = solve_wp(space, mu, nu, EntropyParams(a=hi, b=Fraction(1), p=p)).value
            assert float(va) <= float(vb) + 1e-12
            wa = solve_wp(space, mu, nu, EntropyParams(a=Fraction(1), b=lo, p=p)).value
            wb = solve_wp(space, mu, nu, EntropyParams(a=Fraction(1), b=hi, p=p)).value
            assert float(wa) <= float(wb) + 1e-12


def test_interior_points_never_beat_breakpoints():
    # concavity of V on each linear segment of the curve justifies the scan:
    # interior values must stay on or above the best breakpoint value
    rng = random.Random(33)
    for _ in range(25):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        p = rng.choice((1, 2, 3))
        a, b = Fraction(1), Fraction(1)
        curve = parametric_transport_curve(space, mu, nu, p)
        report = solve_wp(space, mu, nu, EntropyParams(a=a, b=b, p=p))
        total = float(mu.mass + nu.mass)
        for (m0, t0), (m1, t1) in zip(curve.breakpoints, curve.breakpoints[1:]):
            for lam in (0.25, 0.5, 0.75):
                m = float(m0) + lam * float(m1 - m0)
                t = float(t0) + lam * float(t1 - t0)
                v = float(a) * (total - 2 * m) + float(b) * t ** (1.0 / p)
                assert v >= float(report.value) - 1e-9


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_interior_optimum_plan(exact):
    # When the best breakpoint lies strictly inside the curve, the plan comes
    # from a second solve targeted at that mass; it must be the plan the curve
    # describes there.  Float mode matches within 1e-9.
    def close(x, y):
        return x == y if exact else x == pytest.approx(y, rel=1e-9, abs=1e-9)

    rng = random.Random(2024)
    interior = 0
    for _ in range(60):
        space = random_int_metric(rng, rng.randint(3, 6), max_d=6)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        b = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)))
        params = EntropyParams(a=Fraction(1), b=b, p=rng.choice((2, 3)))
        if not exact:
            space = space.as_float()
            mu, nu = mu.as_float(space), nu.as_float(space)
            params = EntropyParams(a=1.0, b=float(b), p=params.p)
        report = solve_wp(space, mu, nu, params)
        m = report.transported_mass
        if not 0 < m < report.curve[-1][0]:
            continue
        interior += 1
        gamma = report.plan.gamma
        cost = sum(space.dist[i][j] ** params.p * gamma[i][j] for i in range(space.n) for j in range(space.n))
        assert close(report.plan.total, m)
        assert close(cost, dict(report.curve)[m])
        atol = 0 if exact else 1e-9
        assert all(is_submeasure(g, w, atol=atol) for g, w in zip(report.plan.marginals(), (mu, nu)))
        value = params.a * (mu.mass + nu.mass - 2 * m) + params.b * float(cost) ** (1.0 / params.p)
        assert close(value, report.value)
    assert interior >= 10
