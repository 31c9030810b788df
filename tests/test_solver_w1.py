import random
from fractions import Fraction
from itertools import product

import pytest

from genwass import (
    EntropyParams,
    brute_force_value,
    dirac,
    evaluate_dual,
    measure,
    solve_flat,
    solve_w1,
    validate_metric,
)
from genwass import flow, solver_w1
from genwass.duality import primal_value
from genwass.errors import InvalidParams, SpaceMismatch
from genwass.jsonio import report_to_json
from genwass.measures import DiscreteMeasure
from genwass.selftest import AB_CHOICES, random_int_measure, random_int_metric, random_rational_measure
from reference import is_submeasure, l1_metric, marginals, wide_metric


def test_short_distance_ships(two_point, unit_params):
    report = solve_w1(two_point, dirac(two_point, 0), dirac(two_point, 1), unit_params)
    assert report.value == 1
    assert report.plan.gamma[0][1] == 1
    assert report.transported_mass == 1
    assert report.duality_gap == 0
    assert report.conditions.passed


def test_long_distance_wastes(two_point_far, unit_params):
    report = solve_w1(two_point_far, dirac(two_point_far, 0), dirac(two_point_far, 1), unit_params)
    assert report.value == 2
    assert report.transported_mass == 0
    assert all(x == 0 for row in report.plan.gamma for x in row)
    assert report.destroyed_mass == 1 and report.created_mass == 1


def test_empty_target_costs_a_mu(two_point, unit_params):
    mu = measure(two_point, [2, 1])
    report = solve_w1(two_point, mu, measure(two_point, [0, 0]), unit_params)
    assert report.value == 3
    assert report.transported_mass == 0


def test_identical_measures_cost_zero(line3, unit_params):
    mu = measure(line3, [1, 2, 3])
    report = solve_w1(line3, mu, mu, unit_params)
    assert report.value == 0


def test_positivity_for_distinct_measures(line3, unit_params):
    mu = measure(line3, [1, 0, 0])
    nu = measure(line3, [1, Fraction(1, 7), 0])
    assert solve_w1(line3, mu, nu, unit_params).value > 0


def test_symmetry(line3, unit_params):
    mu = measure(line3, [2, 0, 1])
    nu = measure(line3, [0, 3, 0])
    assert solve_w1(line3, mu, nu, unit_params).value == solve_w1(line3, nu, mu, unit_params).value


def test_invalid_params_rejected(two_point):
    with pytest.raises(InvalidParams):
        EntropyParams(a=0, b=1, p=1)
    with pytest.raises(InvalidParams):
        EntropyParams(a=1, b=-1, p=1)
    with pytest.raises(InvalidParams):
        solve_w1(
            two_point,
            dirac(two_point, 0),
            dirac(two_point, 1),
            EntropyParams(a=1, b=1, p=2),
        )


@pytest.mark.parametrize(
    "fields",
    [
        {"a": float("inf"), "b": 1, "p": 1},
        {"a": 1, "b": float("inf"), "p": 1},
        {"a": 1, "b": 1, "p": float("inf")},
        {"a": 1, "b": float("nan"), "p": 1},
    ],
    ids=["a-inf", "b-inf", "p-inf", "b-nan"],
)
def test_non_finite_params_rejected(fields):
    with pytest.raises(InvalidParams):
        EntropyParams(**fields)


def test_space_mismatch(two_point, two_point_far, unit_params):
    with pytest.raises(SpaceMismatch):
        solve_w1(two_point, dirac(two_point, 0), dirac(two_point_far, 1), unit_params)


def test_tie_prefers_not_shipping():
    # b d = 2a exactly: destroying + creating matches shipping, prefer the latter plan empty
    space = validate_metric(["x", "y"], [[0, 2], [2, 0]])
    report = solve_w1(space, dirac(space, 0), dirac(space, 1), EntropyParams(a=1, b=1, p=1))
    assert report.value == 2
    assert report.transported_mass == 0
    assert report.conditions.passed
    assert report.duality_gap == 0


def test_float_masses_on_an_exact_space_give_the_exact_plan(line3, unit_params):
    # the float weights are read as the rationals they hold: the report is the
    # one of those rationals, and the flow stops before the tie b d = 2a at (0, 2)
    mu = DiscreteMeasure(line3, (0.5, 1.0, 0.0))
    nu = DiscreteMeasure(line3, (0.0, 0.25, 1.0))
    report = solve_w1(line3, mu, nu, unit_params)
    assert report == solve_w1(line3, measure(line3, mu.weights), measure(line3, nu.weights), unit_params)
    assert report.plan.gamma == ((0, 0, 0), (0, Fraction(1, 4), Fraction(3, 4)), (0, 0, 0))
    assert {type(x) for row in report.plan.gamma for x in row} == {Fraction}
    assert report_to_json(report)["plan"] == [[0, 0, 0], [0, "1/4", "3/4"], [0, 0, 0]]


def test_no_mass_on_arcs_beyond_threshold():
    rng = random.Random(17)
    for _ in range(60):
        space = random_int_metric(rng, rng.randint(2, 5))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        params = EntropyParams(a=rng.choice((Fraction(1, 2), Fraction(1))), b=Fraction(1), p=1)
        report = solve_w1(space, mu, nu, params)
        for i in range(space.n):
            for j in range(space.n):
                if report.plan.gamma[i][j] > 0:
                    assert params.b * space.dist[i][j] < 2 * params.a


def test_value_formula_and_bounds():
    rng = random.Random(23)
    for _ in range(60):
        space = random_int_metric(rng, rng.randint(1, 6))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(a=rng.choice((Fraction(1, 2), Fraction(2))), b=Fraction(1), p=1)
        report = solve_w1(space, mu, nu, params)
        m = report.transported_mass
        cost = sum(
            space.dist[i][j] * report.plan.gamma[i][j]
            for i in range(space.n)
            for j in range(space.n)
        )
        assert report.value == params.a * (mu.mass - m) + params.a * (nu.mass - m) + params.b * cost
        assert 0 <= report.value <= params.a * (mu.mass + nu.mass)
        assert all(map(is_submeasure, marginals(report.plan), (mu, nu)))
        feasible, objective = evaluate_dual(report.potentials, mu, nu)
        assert feasible and objective == report.value


def test_matches_oracle_small_instances():
    rng = random.Random(41)
    for _ in range(80):
        space = random_int_metric(rng, rng.randint(1, 4))
        mu = random_int_measure(rng, space, max_w=3)
        nu = random_int_measure(rng, space, max_w=3)
        params = EntropyParams(
            a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            b=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            p=1,
        )
        assert solve_w1(space, mu, nu, params).value == brute_force_value(space, mu, nu, params)


def test_triangle_inequality_random_triples():
    rng = random.Random(7)
    for _ in range(40):
        space = random_int_metric(rng, rng.randint(2, 5))
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        rho = random_rational_measure(rng, space)
        w = lambda x, y: solve_w1(space, x, y, params).value
        assert w(mu, rho) <= w(mu, nu) + w(nu, rho)


def test_translation_invariance(line3, unit_params):
    rng = random.Random(13)
    for _ in range(20):
        mu = random_rational_measure(rng, line3)
        nu = random_rational_measure(rng, line3)
        eta = random_rational_measure(rng, line3)
        base = solve_w1(line3, mu, nu, unit_params).value
        shifted = solve_w1(line3, mu + eta, nu + eta, unit_params).value
        assert base == shifted


def test_midpoint_is_geodesic_midpoint():
    rng = random.Random(29)
    half = Fraction(1, 2)
    for _ in range(20):
        space = random_int_metric(rng, rng.randint(2, 5))
        params = EntropyParams(a=Fraction(1), b=Fraction(2), p=1)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        sigma = (mu + nu).scale(half)
        d = solve_w1(space, mu, nu, params).value
        assert solve_w1(space, mu, sigma, params).value == half * d
        assert solve_w1(space, sigma, nu, params).value == half * d


def test_isometry_invariance():
    rng = random.Random(31)
    for _ in range(20):
        space = random_int_metric(rng, 4)
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = validate_metric(
            [space.labels[perm.index(i)] for i in range(4)],
            [[space.dist[perm.index(i)][perm.index(j)] for j in range(4)] for i in range(4)],
        )
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        pushed_mu = measure(relabeled, [mu.weights[perm.index(i)] for i in range(4)])
        pushed_nu = measure(relabeled, [nu.weights[perm.index(i)] for i in range(4)])
        assert (
            solve_w1(space, mu, nu, params).value
            == solve_w1(relabeled, pushed_mu, pushed_nu, params).value
        )


def test_equal_mass_value_bounded_by_pure_transport():
    rng = random.Random(37)
    from genwass import wasserstein_p

    for _ in range(20):
        space = random_int_metric(rng, rng.randint(2, 4))
        mu = random_int_measure(rng, space)
        total = mu.mass
        nu_w = [0] * space.n
        remaining = total
        for i in range(space.n - 1):
            nu_w[i] = rng.randint(0, int(remaining))
            remaining -= nu_w[i]
        nu_w[-1] = remaining
        nu = measure(space, nu_w)
        params = EntropyParams(a=Fraction(2), b=Fraction(1), p=1)
        assert solve_w1(space, mu, nu, params).value <= params.b * wasserstein_p(space, mu, nu, 1)


def test_float_mode_gap_within_tolerance():
    rng = random.Random(43)
    for _ in range(40):
        space = random_int_metric(rng, rng.randint(1, 6)).as_float()
        mu = measure(space, [rng.uniform(0, 3) for _ in range(space.n)])
        nu = measure(space, [rng.uniform(0, 3) for _ in range(space.n)])
        params = EntropyParams(a=rng.choice((0.5, 1.0, 2.0)), b=1.0, p=1)
        report = solve_w1(space, mu, nu, params)
        assert 0 <= report.duality_gap <= 1e-9 * (1.0 + abs(float(report.value)))
        assert report.conditions.passed


def test_only_the_rate_stops_a_float_rate_run(monkeypatch):
    # draw 98 of the float instances of test_criterion_2_strong_duality: the
    # last augmentation pushes the mass past min(|mu|, |nu|) as floats round
    # it.  A run that also stopped at that mass would cut the augmentation
    # short and leave a residual path of cost 1.5 < 2a = 4 open, and its
    # potentials a gap of 5.75; the rate run ends with the sink at 4.
    rng = random.Random(78)
    for _ in range(99):
        space = random_int_metric(rng, rng.randint(1, 8)).as_float()
        mu = measure(space, [rng.uniform(0, 3) for _ in range(space.n)])
        nu = measure(space, [rng.uniform(0, 3) for _ in range(space.n)])
        params = EntropyParams(a=rng.choice((0.5, 1.0, 2.0)), b=rng.choice((0.5, 1.0, 2.0)), p=1)
    assert params == EntropyParams(a=2.0, b=0.5, p=1)
    transport, update = solver_w1.solve_transport, flow._update_potentials
    sols, sinks = [], []

    def kept(*args, **kwargs):
        sols.append(transport(*args, **kwargs))
        return sols[-1]

    def refresh(pot, dist, T):
        update(pot, dist, T)
        sinks.append(pot[T])

    monkeypatch.setattr(solver_w1, "solve_transport", kept)
    monkeypatch.setattr(flow, "_update_potentials", refresh)
    report = solve_w1(space, mu, nu, params)
    assert sols[0].breakpoints[-1][0] > min(mu.mass, nu.mass)
    assert sinks[-1] == 4.0
    assert 0 <= report.duality_gap <= 1e-9 * (1.0 + abs(report.value))


def stopped_bipartite_value(space, mu, nu, params):
    """The reference value: the flow of the costs b d on the complete
    bipartite network, stopped at the rate 2a, as a(|mu| + |nu| - 2m) + cost."""
    costs = [[params.b * d for d in row] for row in space.dist]
    m, cost = flow.solve_transport(costs, list(mu.weights), list(nu.weights), rate=2 * params.a).breakpoints[-1]
    return params.a * (mu.mass + nu.mass - 2 * m) + cost


SPREAD = EntropyParams(a=Fraction(500), b=Fraction(1, 2), p=1)
SKELETON_CASES = {
    # (metric, sizes, rates): the closed draws include rates where b d >= 2a
    # leaves pairs out of the network, and all of them out at 2a = 1 with b = 2
    "closed": (random_int_metric, (1, 2, 3, 5, 8, 12, 16, 24), None),
    "l1": (l1_metric, (2, 5, 12, 24), SPREAD),
    "wide": (wide_metric, (2, 5, 12, 24), SPREAD),
    "wide-tight": (wide_metric, (12,), EntropyParams(a=Fraction(300), b=Fraction(1, 2), p=1)),
}


@pytest.mark.parametrize("case", SKELETON_CASES.values(), ids=SKELETON_CASES.keys())
def test_the_skeleton_solve_matches_the_bipartite_flow_and_the_flat_lp(monkeypatch, case):
    family, sizes, params = case
    rng = random.Random(3012)
    pairs = []
    transport = solver_w1.solve_transport

    def recorded(*args, **kwargs):
        pairs.append(kwargs["pairs"])
        return transport(*args, **kwargs)

    monkeypatch.setattr(solver_w1, "solve_transport", recorded)
    for n in sizes:
        for _ in range(3):
            space = family(rng, n)
            mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
            rates = params or EntropyParams(
                a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
                b=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
                p=1,
            )
            rep = solve_w1(space, mu, nu, rates)
            assert pairs[-1] is space._irreducible
            assert rep.value == stopped_bipartite_value(space, mu, nu, rates) == solve_flat(space, mu, nu, rates)[0]
            assert [rep.plan.gamma[i][i] for i in range(n)] == list(map(min, mu.weights, nu.weights))
            assert primal_value(rep.plan, mu, nu, rates) == rep.value
            assert rep.duality_gap == 0 and rep.conditions.passed


def test_only_float_spaces_run_on_the_bipartite_network(monkeypatch, line3, unit_params):
    # floats cannot decide geodesic equality; an exact space with float
    # masses reads them as the rationals they hold and runs on its skeleton
    pairs = []
    transport = solver_w1.solve_transport
    monkeypatch.setattr(solver_w1, "solve_transport", lambda *a, **k: pairs.append(k["pairs"]) or transport(*a, **k))
    fspace = line3.as_float()
    solve_w1(fspace, measure(fspace, [1, 0, 0]), measure(fspace, [0, 0, 1]), EntropyParams(a=1.0, b=1.0, p=1))
    solve_w1(line3, DiscreteMeasure(line3, (1.0, 0.0, 0.0)), DiscreteMeasure(line3, (0.0, 0.0, 1.0)), unit_params)
    solve_w1(line3, DiscreteMeasure(line3, (1, 0.0, 0)), measure(line3, [0, 0, 1]), unit_params)
    solve_w1(line3, measure(line3, [1, 0, 0]), measure(line3, [0, 0, 1]), unit_params)
    assert pairs == [None, *[((0, 1), (1, 2))] * 3]
    with pytest.raises(ValueError, match="the skeleton network takes exact inputs only"):
        flow.solve_transport([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0], pairs=((0, 1),))


def test_float_weights_on_an_exact_space_certify_on_the_skeleton(monkeypatch):
    # seeded mixed tier: 300 solves at a = 1, b = 1/2, then 20 at each other
    # pair of rates.  Each runs on the skeleton, closes the gap exactly and
    # reports what the same weights made exact do.  On the bipartite float
    # run, 237 of the first 300 left a gap and 2 rejected their own plan
    pairs = []
    transport = solver_w1.solve_transport
    monkeypatch.setattr(solver_w1, "solve_transport", lambda *a, **k: pairs.append(k["pairs"]) or transport(*a, **k))
    rates = [(Fraction(1), Fraction(1, 2))] * 300
    rates += [ab for ab in product(AB_CHOICES, repeat=2) if ab != rates[0] for _ in range(20)]
    rng = random.Random(1)
    for a, b in rates:
        space = random_int_metric(rng, rng.randint(2, 10))
        mu, nu = (DiscreteMeasure(space, tuple(rng.uniform(0, 3) for _ in range(space.n))) for _ in "mn")
        params = EntropyParams(a=a, b=b, p=1)
        report = solve_w1(space, mu, nu, params)
        assert pairs[-1] is space._irreducible
        assert report.duality_gap == 0 and report.conditions.passed and type(report.value) is Fraction
        assert report == solve_w1(space, measure(space, mu.weights), measure(space, nu.weights), params)
