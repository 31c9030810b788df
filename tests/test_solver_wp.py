import math
import random
from fractions import Fraction

import pytest

from genwass import (
    EntropyParams,
    brute_force_value,
    dirac,
    measure,
    parametric_transport_curve,
    solve,
    solve_flat,
    solve_w1,
    solve_wp,
    validate_metric,
    verify_optimality,
    wasserstein_p,
)
from genwass import solver_w1, solver_wp
from genwass.duality import primal_value
from genwass.errors import InvalidParams, MassMismatch, SpaceMismatch
from genwass.flow import solve_transport
from genwass.measures import DiscreteMeasure
from genwass.solver_wp import ParametricCurve
from genwass.selftest import AB_CHOICES, random_int_measure, random_int_metric, random_rational_measure
from reference import DensePlan, is_submeasure, marginals


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
    assert curve.value_at(0) == 0


def test_curve_interpolation_matches_segments():
    space = validate_metric(["x1", "x2", "y"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    curve = parametric_transport_curve(
        space, measure(space, [1, 1, 0]), measure(space, [0, 0, 2]), 1
    )
    assert curve.value_at(Fraction(1, 2)) == Fraction(1, 2)
    assert curve.value_at(Fraction(3, 2)) == 2


def test_float_curves_of_valid_instances_construct():
    # non-dyadic weights round at every push: float breakpoints sit a few
    # ulps off the exact curve, and an augmentation that leaves the mass
    # unchanged replaces the last point instead of repeating its mass
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
        (((0.0, 0.0), (1.0, 1.0), (1.0, 2.0)), "breakpoint masses must increase strictly"),
        (((0, 0), (1, 1), (2, 0)), "accumulated cost cannot decrease"),
    ],
    ids=["start", "mass-repeats", "float-mass-repeats", "cost-falls"],
)
def test_malformed_curves_are_rejected(points, message):
    with pytest.raises(ValueError, match=message):
        ParametricCurve(breakpoints=points)


def test_curve_value_outside_its_range_is_rejected():
    with pytest.raises(ValueError, match="mass outside the curve's range"):
        ParametricCurve(breakpoints=((0, 0), (1, 1))).value_at(2)
    with pytest.raises(ValueError, match="mass outside the curve's range"):
        ParametricCurve(breakpoints=((0, 0), (1, 1))).value_at(float("nan"))


@pytest.mark.parametrize("call", ["EntropyParams", "wasserstein_p", "parametric_transport_curve"])
def test_orders_below_one_are_rejected(two_point, call):
    # and the orders that are not finite numbers, with the same messages everywhere
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    calls = {
        "EntropyParams": lambda p: EntropyParams(a=1, b=1, p=p),
        "wasserstein_p": lambda p: wasserstein_p(two_point, mu, nu, p),
        "parametric_transport_curve": lambda p: parametric_transport_curve(two_point, mu, nu, p),
    }
    for p, message in (
        (Fraction(1, 2), "p must be at least 1, got 1/2"),
        (math.nan, "p must be finite and within float range, got nan"),
        (math.inf, "p must be finite and within float range, got inf"),
        (-math.inf, "p must be finite and within float range, got -inf"),
    ):
        with pytest.raises(InvalidParams, match=message):
            calls[call](p)


P1 = EntropyParams(a=5, b=1, p=1)
ENTRY_POINTS = {
    "solve": lambda space, mu, nu: solve(space, mu, nu, P1).value,
    "solve_w1": lambda space, mu, nu: solve_w1(space, mu, nu, P1).value,
    "solve_wp": lambda space, mu, nu: solve_wp(space, mu, nu, EntropyParams(a=5, b=1, p=2)).value,
    "solve_flat": lambda space, mu, nu: solve_flat(space, mu, nu, P1)[0],
    "brute_force_value": lambda space, mu, nu: brute_force_value(space, mu, nu, P1),
    "wasserstein_p": lambda space, mu, nu: wasserstein_p(space, mu, nu, 1),
    "parametric_transport_curve": lambda space, mu, nu: parametric_transport_curve(space, mu, nu, 2),
    "primal_value": lambda space, mu, nu: primal_value(_corner_plan(space), mu, nu, P1),
}


def _corner_plan(space):
    # one unit from the first point to the last, on the given space
    gamma = [[0] * space.n for _ in range(space.n)]
    gamma[0][-1] = Fraction(1)
    return DensePlan(space, tuple(map(tuple, gamma))).plan


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("other", ["two points", "another metric"])
def test_a_space_other_than_the_measures_is_rejected(entry, other):
    # mu and nu live on a 3-point space where every value is 5; a smaller
    # space, or another metric on 3 points, must not be read in its place
    space = validate_metric(["x", "y", "z"], [[0, 2, 5], [2, 0, 3], [5, 3, 0]])
    mu, nu = dirac(space, 0), dirac(space, 2)
    call = ENTRY_POINTS[entry]
    assert call(space, mu, nu) in (5, ParametricCurve(((0, 0), (1, 25))))
    wrong = {
        "two points": validate_metric(["x", "y"], [[0, 1], [1, 0]]),
        "another metric": validate_metric(["x", "y", "z"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    }[other]
    with pytest.raises(SpaceMismatch, match="objects live on different spaces"):
        call(wrong, mu, nu)


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
        report = solve(two_point, mu, measure(two_point, [0, 0]), EntropyParams(1, 1, p))
        assert float(report.value) == pytest.approx(3.0)


def test_wp_report_marginals_are_the_reduced_measures():
    rng = random.Random(3)
    for _ in range(20):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=2)
        report = solve_wp(space, mu, nu, params)
        gamma1, gamma2 = marginals(report.plan)
        assert is_submeasure(gamma1, mu) and is_submeasure(gamma2, nu)
        assert gamma1.mass == gamma2.mass == report.transported_mass
        assert report.potentials is None and report.conditions is None


def test_p1_consistency_with_dedicated_solver():
    # the scan over the full p = 1 curve's breakpoints gives the value of the
    # flow stopped at the rate 2a, exactly
    rng = random.Random(9)
    for _ in range(40):
        space = random_int_metric(rng, rng.randint(1, 5))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(
            a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))), b=Fraction(1), p=1
        )
        curve = parametric_transport_curve(space, mu, nu, 1)
        scan = min(params.a * (mu.mass + nu.mass - 2 * m) + params.b * t for m, t in curve.breakpoints)
        direct = solve_w1(space, mu, nu, params)
        assert scan == direct.value
        assert direct.duality_gap == 0
        assert direct.conditions is not None and direct.conditions.passed


def test_p1_conditions_certify_the_plan():
    # the report's certificate is the one of the plan it carries
    rng = random.Random(7)
    rates = (Fraction(1, 2), Fraction(1), Fraction(2))
    for _ in range(400):
        space = random_int_metric(rng, rng.randint(1, 8), max_d=rng.choice((3, 5, 9)))
        mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
        params = EntropyParams(a=rng.choice(rates), b=rng.choice(rates), p=1)
        report = solve_w1(space, mu, nu, params)
        assert report.conditions == verify_optimality(space, mu, nu, params, report.plan, report.potentials)
        assert report.conditions.passed


def _counted_calls(monkeypatch, names):
    """Live call counts of the named functions, as solver_w1 and solver_wp call them."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for module in (solver_w1, solver_wp):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_p1_solve_certifies_once(monkeypatch, seed):
    # solve at p = 1 runs one flow, stopped at the rate 2a, and certifies the
    # primal value of its plan once
    calls = _counted_calls(monkeypatch, ("verify_optimality", "primal_value", "solve_transport"))
    rng = random.Random(seed)
    space = random_int_metric(rng, 6)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    report = solve(space, mu, nu, EntropyParams(a=Fraction(1), b=Fraction(1), p=1))
    assert report.duality_gap == 0 and report.conditions.passed
    assert calls == {"verify_optimality": 1, "primal_value": 1, "solve_transport": 1}


@pytest.mark.parametrize("p", [2, 3])
def test_float_weights_on_an_exact_space_give_the_report_of_their_exact_twin(p):
    # the weights are read as the rationals they hold, once, for the flow and
    # for the waste term: the curve, the plan and the masses are exact, and
    # the value is the twin's to the bit.  A flow on exact costs over a unit
    # refuses float masses
    rng = random.Random(3303)
    for _ in range(60):
        space = random_int_metric(rng, rng.randint(1, 8))
        mu, nu = (DiscreteMeasure(space, tuple(rng.uniform(0, 3) for _ in range(space.n))) for _ in "mn")
        params = EntropyParams(a=rng.choice(AB_CHOICES), b=rng.choice(AB_CHOICES), p=p)
        report = solve_wp(space, mu, nu, params)
        assert report == solve_wp(space, measure(space, mu.weights), measure(space, nu.weights), params)
        masses = [report.transported_mass, report.destroyed_mass, *(x for point in report.curve for x in point)]
        assert all(type(x) is Fraction for x in masses)
    with pytest.raises(ValueError, match="a cost unit takes exact inputs only"):
        solve_transport([[0, 1], [1, 0]], [1.0, 0.0], [0.0, 1.0], cost_unit=1)


def test_solve_wp_rejects_order_one(two_point):
    # one solve path per order: p = 1 goes through solve_w1 only
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    with pytest.raises(InvalidParams, match="solve_wp handles p > 1 only; use solve or solve_w1 at p = 1"):
        solve_wp(two_point, mu, nu, EntropyParams(a=1, b=1, p=1))


def test_solve_wp_runs_one_flow_or_two_when_interior(monkeypatch):
    # one flow for the curve, a second only when the best breakpoint is not
    # its last, and the d^p costs built once for both
    calls = _counted_calls(monkeypatch, ("solve_transport", "_power_costs"))
    rng = random.Random(2024)
    flows = set()
    for _ in range(40):
        space = random_int_metric(rng, rng.randint(3, 6), max_d=6)
        mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
        params = EntropyParams(a=Fraction(1), b=rng.choice((Fraction(1, 4), Fraction(1), Fraction(2))), p=2)
        calls.update(solve_transport=0, _power_costs=0)
        report = solve_wp(space, mu, nu, params)
        interior = report.transported_mass < report.curve[-1][0]
        assert calls == {"solve_transport": 1 + interior, "_power_costs": 1}
        flows.add(calls["solve_transport"])
    assert flows == {1, 2}


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
        got = solve(space, mu, nu, params).value
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
        report = solve(space, mu, nu, EntropyParams(a=a, b=b, p=p))
        pure = wasserstein_p(space, mu, nu, p)
        assert float(report.value) == pytest.approx(float(b * pure), rel=1e-12, abs=1e-12)
        assert report.transported_mass == mu.mass


# the rates near float max, or a weight near it at a = 2, put a float value
# past float range at every order
@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2], ids=["1", "3/2", "2"])
@pytest.mark.parametrize("mu_w, a, b", [((1.5, 0.0, 0.0), 1e308, 1e308), ((1e308, 0.0, 0.0), 2.0, 1.0)],
                         ids=["rates", "weight"])
def test_a_float_value_past_float_range_is_invalid_params(line3, p, mu_w, a, b):
    space = line3.as_float()
    mu, nu = measure(space, mu_w), measure(space, [0.0, 0.0, 1.0])
    with pytest.raises(InvalidParams, match=r"^the value at p = \S+ lies beyond float range$"):
        solve(space, mu, nu, EntropyParams(a=a, b=b, p=p))


@pytest.mark.parametrize("p", [1, 2])
def test_a_float_transport_cost_past_float_range_is_invalid_params(line3, p):
    space = line3.as_float()
    mu, nu = measure(space, [1e308, 0.0, 0.0]), measure(space, [0.0, 0.0, 1e308])
    with pytest.raises(InvalidParams, match=f"^the transport cost at p = {p} lies beyond float range$"):
        wasserstein_p(space, mu, nu, p)


def test_an_exact_transport_cost_past_float_range_has_its_root_taken(line3):
    # T = 4 10^308 is past float range, its square root 2 10^154 is not; at
    # a = 10^300 the m = 0 vertex's value, 2 10^608, is exact and loses
    mu, nu = measure(line3, [10**308, 0, 0]), measure(line3, [0, 0, 10**308])
    report = solve(line3, mu, nu, EntropyParams(a=10**300, b=1, p=2))
    assert report.curve[-1] == (10**308, 4 * 10**308)
    assert report.value == pytest.approx(2e154, rel=1e-15) and report.transported_mass == 10**308
    assert wasserstein_p(line3, mu, nu, 2) == pytest.approx(2e154, rel=1e-15)


def test_an_exact_transport_cost_whose_root_is_past_float_range_is_invalid_params():
    # two units of 10^308 each ship across D^2 = 1.69 10^308, a float:
    # T = 3.38 10^616, whose square root, 1.84 10^308, is past float range
    D = 13 * 10**153
    space = validate_metric(["a1", "a2", "b1", "b2"], [[0, 1, D, D], [1, 0, D, D], [D, D, 0, 1], [D, D, 1, 0]])
    mu, nu = measure(space, [10**308, 10**308, 0, 0]), measure(space, [0, 0, 10**308, 10**308])
    message = r"^the root of a transport cost at p = 2 lies beyond float range$"
    with pytest.raises(InvalidParams, match=message):
        wasserstein_p(space, mu, nu, 2)
    with pytest.raises(InvalidParams, match=message):
        solve(space, mu, nu, EntropyParams(a=1, b=1, p=2))


def test_an_exact_value_in_float_range_solves_when_a_vertex_is_past_it(line3):
    # at a = 10^308 the m = 0 vertex's value, a(|mu| + |nu|) = 3.5 10^308 plus
    # a float root, is past float range; the m = 3/2 vertex's, a/2 + sqrt(3/2)/2,
    # is inside it and wins; with 8 units of mu every vertex is past it
    mu, nu = measure(line3, [1, 0, 1]), measure(line3, [0, Fraction(3, 2), 0])
    params = EntropyParams(a=10**308, b=Fraction(1, 2), p=2)
    report = solve(line3, mu, nu, params)
    assert report.curve[0] == (0, 0) and report.curve[-1] == (Fraction(3, 2), Fraction(3, 2))
    assert report.value == 5e307 and report.transported_mass == Fraction(3, 2)
    assert report.plan.support == ((0, 1, 1), (2, 1, Fraction(1, 2)))
    with pytest.raises(InvalidParams, match=r"^the value at p = 2 lies beyond float range$"):
        solve(line3, measure(line3, [4, 0, 4]), nu, params)


@pytest.mark.parametrize("b, value", [(10**308, 4 * 10**308), (1, 2 * 10**308 + 2)])
def test_an_exact_value_past_float_range_stays_exact(line3, b, value):
    # nothing ships at b = a, where the one path costs 2a; one unit ships at b = 1
    mu, nu = measure(line3, [3, 0, 0]), measure(line3, [0, 0, 1])
    report = solve(line3, mu, nu, EntropyParams(a=10**308, b=b, p=1))
    assert report.value == value and type(report.value) is Fraction
    assert report.duality_gap == 0 and report.conditions.passed


def test_value_monotone_in_a_and_b():
    rng = random.Random(27)
    grid = (Fraction(1, 2), Fraction(1), Fraction(2))
    for _ in range(15):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        p = rng.choice((1, 2))
        for lo, hi in ((grid[0], grid[1]), (grid[1], grid[2])):
            va = solve(space, mu, nu, EntropyParams(a=lo, b=Fraction(1), p=p)).value
            vb = solve(space, mu, nu, EntropyParams(a=hi, b=Fraction(1), p=p)).value
            assert float(va) <= float(vb) + 1e-12
            wa = solve(space, mu, nu, EntropyParams(a=Fraction(1), b=lo, p=p)).value
            wb = solve(space, mu, nu, EntropyParams(a=Fraction(1), b=hi, p=p)).value
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
        report = solve(space, mu, nu, EntropyParams(a=a, b=b, p=p))
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
        assert all(is_submeasure(g, w, atol=atol) for g, w in zip(marginals(report.plan), (mu, nu)))
        value = params.a * (mu.mass + nu.mass - 2 * m) + params.b * float(cost) ** (1.0 / params.p)
        assert close(value, report.value)
    assert interior >= 10
