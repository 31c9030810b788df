import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genwass import (
    DualPotentials,
    EntropyParams,
    OptimalityCertificate,
    c_transform,
    dirac,
    evaluate_dual,
    measure,
    solve,
    solve_flat,
    solve_w1,
    truncate_potential,
    validate_metric,
    verify_optimality,
)
from genwass import duality, jsonio, measures
from genwass.duality import _terms, feasibility_slack, is_feasible_pair, primal_value, verification_tol
from genwass.errors import GenwassError, InfeasibleInputs, InvalidParams, InvalidWeight, SolverFailure, SpaceMismatch
from genwass.measures import DiscreteMeasure, require_same_space
from genwass.scalars import CERTIFY_TOL, NEG_INF, ROUNDING_TOL, coerce, exactness
from genwass.selftest import random_int_metric, random_rational_measure
from genwass.solver_w1 import certified_report
from reference import DensePlan, is_submeasure, lebesgue_decompose, marginals, zero_measure


def test_truncation_cases():
    assert truncate_potential(Fraction(1, 2), 1) == Fraction(1, 2)
    assert truncate_potential(2, 1) == 1
    assert truncate_potential(-2, 1) == float("-inf")
    assert truncate_potential(-1, 1) == -1
    assert truncate_potential(1, 1) == 1


@given(st.floats(-10, 10), st.floats(0.01, 5))
@example(phi=-0.015625, a=0.01171875)
def test_truncation_matches_inf_over_s(phi, a):
    # I(phi) = inf_{s >= 0} (s phi + a|1-s|), probed on a dense grid of s
    got = truncate_potential(phi, a)
    probe = min(s * phi + a * abs(1 - s) for s in [k / 100 for k in range(0, 2001)])
    if phi < -a:
        # the infimum escapes to -inf as s grows: past s = 1 the objective
        # falls with slope phi + a < 0, so it passes -1e4 at a finite s,
        # evaluated exactly because phi + a can be tiny
        slope = Fraction(phi) + Fraction(a)
        s = 2 + 10**4 / -slope
        big = s * Fraction(phi) + Fraction(a) * abs(1 - s)
        assert big < -1e4
        assert got == float("-inf")
    else:
        assert got == pytest.approx(probe, abs=1e-4)


def test_constant_pair_objective(line3):
    params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
    mu = measure(line3, [1, 2, 0])
    nu = measure(line3, [0, 1, 1])
    half = Fraction(1, 2)
    pair = DualPotentials(phi1=(-half,) * 3, phi2=(-half,) * 3, params=params)
    feasible, obj = evaluate_dual(pair, mu, nu)
    assert feasible
    assert obj == -half * (mu.mass + nu.mass)


def test_complementary_pair_matches_primal(two_point, unit_params):
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    feasible, obj = evaluate_dual(pair, mu, nu)
    assert feasible
    assert obj == 1 == solve_w1(two_point, mu, nu, unit_params).value


def test_constant_a_pair_infeasible(two_point, unit_params):
    # 2a > b d on the short arc violates the coupling constraint
    pair = DualPotentials(phi1=(1, 1), phi2=(1, 1), params=unit_params)
    feasible, _ = evaluate_dual(pair, dirac(two_point, 0), dirac(two_point, 1))
    assert not feasible


def test_sentinel_short_circuits(two_point, unit_params):
    pair = DualPotentials(phi1=(-2, 0), phi2=(0, 0), params=unit_params)
    feasible, obj = evaluate_dual(pair, dirac(two_point, 0), dirac(two_point, 1))
    assert not feasible
    assert obj == float("-inf")
    # no mass on the offending point: the sentinel never enters the sum
    feasible, obj = evaluate_dual(pair, dirac(two_point, 1), dirac(two_point, 1))
    assert not math.isinf(float(obj))


def test_c_transform_of_minus_a_is_a(line3):
    params = EntropyParams(a=Fraction(2), b=Fraction(1), p=1)
    out = c_transform(line3, (-2, -2, -2), params)
    assert out == (2, 2, 2)


def test_c_transform_two_point_example(two_point, unit_params):
    assert c_transform(two_point, (1, 0), unit_params) == (-1, 0)


def test_c_transform_double_is_negation(two_point, line3, unit_params):
    rng = random.Random(1)
    for space in (two_point, line3):
        for _ in range(25):
            phi = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(space.n))
            first = c_transform(space, phi, unit_params)
            second = c_transform(space, first, unit_params)
            assert second == tuple(-x for x in first)


def test_c_transform_is_b_lipschitz_and_boxed():
    rng = random.Random(2)
    for _ in range(30):
        space = random_int_metric(rng, rng.randint(2, 5))
        params = EntropyParams(a=Fraction(1), b=Fraction(rng.choice((1, 2)), 2), p=1)
        phi = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(space.n))
        out = c_transform(space, phi, params)
        assert all(-params.a <= v <= params.a for v in out)
        for i in range(space.n):
            for j in range(space.n):
                assert abs(out[i] - out[j]) <= params.b * space.dist[i][j]


def test_flat_zero_for_equal_measures(line3, unit_params):
    mu = measure(line3, [1, 0, 2])
    value, witness = solve_flat(line3, mu, mu, unit_params)
    assert value == 0
    assert all(abs(v) <= 1 for v in witness.f)


def test_flat_box_bound_binds(two_point_far, unit_params):
    value, witness = solve_flat(
        two_point_far, dirac(two_point_far, 0), dirac(two_point_far, 1), unit_params
    )
    assert value == 2
    assert witness.f == (1, -1)


def test_flat_lipschitz_bound_binds(two_point, unit_params):
    value, witness = solve_flat(two_point, dirac(two_point, 0), dirac(two_point, 1), unit_params)
    assert value == 1
    assert witness.f[0] - witness.f[1] == 1


def test_flat_equals_flow_value():
    rng = random.Random(4)
    for _ in range(40):
        space = random_int_metric(rng, rng.randint(1, 6))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(
            a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            b=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            p=1,
        )
        value, witness = solve_flat(space, mu, nu, params)
        assert value == solve_w1(space, mu, nu, params).value
        a, b = params.a, params.b
        assert all(-a <= v <= a for v in witness.f)
        for i in range(space.n):
            for j in range(space.n):
                assert abs(witness.f[i] - witness.f[j]) <= b * space.dist[i][j]


def test_antisymmetric_pair_from_flat_witness():
    rng = random.Random(6)
    for _ in range(25):
        space = random_int_metric(rng, rng.randint(2, 5))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
        value, witness = solve_flat(space, mu, nu, params)
        pair = DualPotentials(
            phi1=witness.f, phi2=tuple(-v for v in witness.f), params=params
        )
        feasible, obj = evaluate_dual(pair, mu, nu)
        assert feasible
        assert obj == value


def dense_plan(space, gamma):
    return DensePlan(space, tuple(tuple(coerce(x, space.exact) for x in row) for row in gamma))


def make_plan(space, gamma):
    return dense_plan(space, gamma).plan


def test_certificate_passes_on_hand_example(two_point, unit_params):
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    plan = make_plan(two_point, [[0, 1], [0, 0]])
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    cert = verify_optimality(two_point, mu, nu, unit_params, plan, pair)
    assert cert.passed


def test_certificate_catches_slack_on_shipped_pair(two_point, unit_params):
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    plan = make_plan(two_point, [[0, 1], [0, 0]])
    slack_pair = DualPotentials(phi1=(0, -1), phi2=(-1, Fraction(1, 2)), params=unit_params)
    cert = verify_optimality(two_point, mu, nu, unit_params, plan, slack_pair)
    assert not cert.tight_on_plan
    assert ("ii", (0, 1)) in cert.violations


def test_certificate_catches_partial_shipment_below_a(two_point, unit_params):
    # half of mu's mass at x ships, so f_1(x) = 1/2 and (a - phi1[x]) must vanish
    mu, nu = dirac(two_point, 0, 2), dirac(two_point, 1)
    plan = make_plan(two_point, [[0, 1], [0, 0]])
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    cert = verify_optimality(two_point, mu, nu, unit_params, plan, pair)
    assert cert.conditions() == {"i": True, "ii": True, "iii": False, "iv": True}
    assert cert.violations == (("iii", (1, 0)),)
    assert (cert.a1, cert.a2) == ((0, 1), (0, 1))


def test_certificate_catches_destroyed_point_below_a(two_point, unit_params):
    # nothing ships: mu's atom at x is destroyed while phi1[x] = 0 < a
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    plan = make_plan(two_point, [[0, 0], [0, 0]])
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    cert = verify_optimality(two_point, mu, nu, unit_params, plan, pair)
    assert cert.conditions() == {"i": True, "ii": True, "iii": True, "iv": False}
    assert cert.violations == (("iv", (1, 0)),)
    assert (cert.a1, cert.a2) == ((1,), (0,))


def test_certificate_skips_destroyed_mass_within_tol(two_point):
    # y carries 1e-10 of mu, destroyed with phi1[y] = 0 < a: below the float
    # tolerance it is no witness, at tol = 0 it is
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    mu, nu = measure(space, [1.0, 1e-10]), measure(space, [1.0, 0.0])
    plan = make_plan(space, [[1, 0], [0, 0]])
    pair = DualPotentials(phi1=(0.0, 0.0), phi2=(0.0, 0.0), params=params)
    cert = verify_optimality(space, mu, nu, params, plan, pair)
    assert cert.passed and cert.violations == ()
    assert (cert.a1, cert.a2) == ((0,), (0, 1))
    strict = verify_optimality(space, mu, nu, params, plan, pair, tol=0)
    assert strict.violations == (("iv", (1, 1)),)
    assert (strict.a1, strict.a2) == ((0,), (0, 1))


@pytest.mark.parametrize(
    "tol", [-1, -1e-300, float("nan"), float("inf"), Fraction(-1, 3)], ids=["-1", "-1e-300", "nan", "inf", "-1/3"]
)
def test_certificate_rejects_bad_tolerance(two_point, unit_params, tol):
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    plan = make_plan(two_point, [[0, 1], [0, 0]])
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    with pytest.raises(InvalidParams, match="the tolerance must be finite and nonnegative"):
        verify_optimality(two_point, mu, nu, unit_params, plan, pair, tol=tol)


@pytest.mark.parametrize("check", ["is_feasible_pair", "evaluate_dual", "verify_optimality"])
@pytest.mark.parametrize("length", [3, 1], ids=["long", "short"])
@pytest.mark.parametrize("vector", ["phi1", "phi2"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_potential_vectors_must_match_the_space(two_point, unit_params, check, length, vector, exact):
    space, params = (two_point, unit_params) if exact else (two_point.as_float(), EntropyParams(a=1.0, b=1.0, p=1))
    mu, nu = dirac(space, 0), dirac(space, 1)
    phis = {"phi1": (0, -1), "phi2": (-1, 1)}
    phis[vector] = (phis[vector] * 2)[:length]
    pair = DualPotentials(**{k: tuple(coerce(v, exact) for v in phi) for k, phi in phis.items()}, params=params)
    calls = {
        "is_feasible_pair": lambda: is_feasible_pair(space, pair),
        "evaluate_dual": lambda: evaluate_dual(pair, mu, nu),
        "verify_optimality": lambda: verify_optimality(space, mu, nu, params, make_plan(space, [[0, 1], [0, 0]]), pair),
    }
    with pytest.raises(SpaceMismatch, match="potential vectors do not match the space"):
        calls[check]()


@pytest.mark.parametrize("check", ["solve_flat", "verify_optimality", "primal_value"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_order_one_functions_reject_other_orders(line3, check, exact):
    # W_2 of these measures is sqrt 2, not the order-1 value 2
    space = line3 if exact else line3.as_float()
    mu, nu = measure(space, [1, 0, 1]), measure(space, [0, 2, 0])
    one, two = (EntropyParams(a=coerce(1, exact), b=coerce(1, exact), p=p) for p in (1, 2))
    report = solve_w1(space, mu, nu, one)
    calls = {
        "solve_flat": lambda: solve_flat(space, mu, nu, two),
        "verify_optimality": lambda: verify_optimality(space, mu, nu, two, report.plan, report.potentials),
        "primal_value": lambda: primal_value(solve(space, mu, nu, two).plan, mu, nu, two),
    }
    with pytest.raises(InvalidParams, match="only defined for p = 1"):
        calls[check]()


@pytest.mark.parametrize(
    "d, mu, nu, a, b",
    [
        ([[0.0, 1.0], [1.0, 0.0]], [1.7e308, 0.0], [0.0, 1.0], 2.0, 1.0),
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], [1.5, 0.0, 0.0], [0.0, 0.0, 1.0], 1e308, 1e308),
    ],
    ids=["weight", "rates"],
)
def test_a_flat_value_past_float_range_is_invalid_params(d, mu, nu, a, b):
    # the exact LP value is past float range; its witness lies in [-a, a]
    space = validate_metric([f"x{i}" for i in range(len(d))], d, exact=False)
    with pytest.raises(InvalidParams, match="beyond float range"):
        solve_flat(space, measure(space, mu), measure(space, nu), EntropyParams(a=a, b=b, p=1))


def test_certificate_needs_a_plan_on_the_space(two_point, two_point_far, unit_params):
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    with pytest.raises(SpaceMismatch, match="plan lives on a different space"):
        verify_optimality(two_point, mu, nu, unit_params, make_plan(two_point_far, [[0, 1], [0, 0]]), pair)


def test_certificate_needs_potentials_of_its_parameters(two_point):
    # the potentials of a = 3 would pass all four conditions at a = 1/4,
    # where phi2 = 3 > a is infeasible and the value is 1/2, not 1
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    report = solve_w1(two_point, mu, nu, EntropyParams(a=Fraction(3), b=Fraction(1), p=1))
    low = EntropyParams(a=Fraction(1, 4), b=Fraction(1), p=1)
    assert report.value == 1 and report.potentials.phi2 == (2, 3)
    assert solve_flat(two_point, mu, nu, low)[0] == Fraction(1, 2)
    with pytest.raises(InvalidParams, match="computed for other parameters"):
        verify_optimality(two_point, mu, nu, low, report.plan, report.potentials)
    # equal rates written as other kinds of number are the same parameters
    assert verify_optimality(two_point, mu, nu, EntropyParams(a=3, b=1.0), report.plan, report.potentials).passed


@pytest.mark.parametrize(
    "phi1, phi2",
    [((math.nan, math.nan), (math.nan, math.nan)), ((0.0, math.nan), (-1.0, 1.0))],
    ids=["all-nan", "nan-off-the-support"],
)
def test_nan_potentials_are_infeasible(two_point, phi1, phi2):
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    mu, nu = dirac(space, 0), dirac(space, 1)
    plan = make_plan(space, [[0, 1], [0, 0]])
    pair = DualPotentials(phi1=phi1, phi2=phi2, params=params)
    assert not is_feasible_pair(space, pair)
    assert not evaluate_dual(pair, mu, nu)[0]
    with pytest.raises(InfeasibleInputs, match="potentials violate the dual constraints"):
        verify_optimality(space, mu, nu, params, plan, pair)
    with pytest.raises(SolverFailure):
        certified_report(space, mu, nu, params, plan, 1.0, pair)


def test_a_nan_gap_is_not_certified(two_point):
    # abs(nan) > tol is False: the gap test must fail a NaN, as the
    # feasibility test fails a NaN potential
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    mu, nu = dirac(space, 0), dirac(space, 1)
    plan = make_plan(space, [[0, 1], [0, 0]])
    pair = DualPotentials(phi1=(0.0, -1.0), phi2=(0.0, 1.0), params=params)
    assert certified_report(space, mu, nu, params, plan, 1.0, pair).duality_gap == 0.0
    with pytest.raises(SolverFailure, match="duality gap nan exceeds"):
        certified_report(space, mu, nu, params, plan, math.nan, pair)


def test_c_transform_needs_one_potential_per_point(two_point, unit_params):
    with pytest.raises(SpaceMismatch, match="potential vector does not match the space"):
        c_transform(two_point, (0, 0, 0), unit_params)


def test_certificate_diagonal_plan(line3, unit_params):
    mu = measure(line3, [1, 2, 3])
    plan = make_plan(line3, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    pair = DualPotentials(phi1=(0, 0, 0), phi2=(0, 0, 0), params=unit_params)
    cert = verify_optimality(line3, mu, mu, unit_params, plan, pair)
    assert cert.passed


def test_certificate_rejects_infeasible_inputs(two_point, unit_params):
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    overfull = make_plan(two_point, [[0, 2], [0, 0]])
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    with pytest.raises(InfeasibleInputs):
        verify_optimality(two_point, mu, nu, unit_params, overfull, pair)
    # marginals past float range exceed any measure
    with pytest.raises(InfeasibleInputs, match="plan marginals"):
        verify_optimality(two_point, mu, nu, unit_params, make_plan(two_point, [[10**400, 0], [0, 0]]), pair)
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    with pytest.raises(InfeasibleInputs, match="plan marginals"):
        verify_optimality(
            space, mu.as_float(space), nu.as_float(space), params, make_plan(space, [[1e308, 1e308], [0, 0]]),
            DualPotentials(phi1=(0.0, -1.0), phi2=(-1.0, 1.0), params=params),
        )
    bad_pair = DualPotentials(phi1=(2, 0), phi2=(0, 2), params=unit_params)
    with pytest.raises(InfeasibleInputs):
        verify_optimality(two_point, mu, nu, unit_params, make_plan(two_point, [[0, 1], [0, 0]]), bad_pair)


def test_certificate_fails_after_tampering():
    rng = random.Random(8)
    tampered = 0
    quarter = Fraction(1, 4)
    for _ in range(60):
        space = random_int_metric(rng, rng.randint(2, 5))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(a=Fraction(1, 2), b=Fraction(1), p=1)
        report = solve_w1(space, mu, nu, params)
        rows, cols = report.plan.row_sums(), report.plan.col_sums()
        spot = None
        for i in range(space.n):
            for j in range(space.n):
                if (
                    mu.weights[i] - rows[i] >= quarter
                    and nu.weights[j] - cols[j] >= quarter
                    and report.potentials.phi1[i] + report.potentials.phi2[j]
                    < params.b * space.dist[i][j]
                ):
                    spot = (i, j)
                    break
            if spot:
                break
        if spot is None:
            continue
        tampered += 1
        gamma = [list(row) for row in report.plan.gamma]
        gamma[spot[0]][spot[1]] += quarter
        cert = verify_optimality(
            space, mu, nu, params, DensePlan(space, tuple(tuple(r) for r in gamma)).plan,
            report.potentials,
        )
        assert not (cert.tight_on_plan and cert.density_complementarity)
    assert tampered >= 10


def test_transform_never_decreases_dual_objective():
    rng = random.Random(10)
    for _ in range(30):
        space = random_int_metric(rng, rng.randint(2, 5))
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        phi2 = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(space.n))
        psi = tuple(
            min(
                Fraction(rng.randint(-4, 4), 4),
                min(params.b * space.dist[i][j] - phi2[j] for j in range(space.n)),
            )
            for i in range(space.n)
        )
        base = DualPotentials(phi1=psi, phi2=phi2, params=params)
        feasible, obj = evaluate_dual(base, mu, nu)
        assert feasible
        phi1_t = c_transform(space, phi2, params)
        phi2_t = c_transform(space, phi1_t, params)
        better = DualPotentials(phi1=phi1_t, phi2=phi2_t, params=params)
        feasible2, obj2 = evaluate_dual(better, mu, nu)
        assert feasible2
        assert obj2 >= obj


def test_strong_duality_certified_by_solver():
    rng = random.Random(12)
    for _ in range(30):
        space = random_int_metric(rng, rng.randint(1, 7))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
        report = solve_w1(space, mu, nu, params)
        assert report.duality_gap == 0


def test_flat_with_zero_measures(two_point, unit_params):
    value, _ = solve_flat(two_point, zero_measure(two_point), zero_measure(two_point), unit_params)
    assert value == 0


# The Fraction versions of the dual checks, the certificate and the primal
# value, from before exact mode ran them on integer images; the integer
# versions must give the same verdicts, certificates and values.


def reference_is_feasible_pair(space, potentials, slack=None):
    a, b = potentials.params.a, potentials.params.b
    if slack is None:
        slack = feasibility_slack(space, potentials.params)
    phi1, phi2 = potentials.phi1, potentials.phi2
    if any(v < -a - slack for v in phi1) or any(v < -a - slack for v in phi2):
        return False
    for i in range(space.n):
        for j in range(space.n):
            if phi1[i] + phi2[j] > b * space.dist[i][j] + slack:
                return False
    return True


def reference_primal_value(plan, mu, nu, params):
    space, gamma, n = plan.space, plan.gamma, plan.space.n
    m = sum(sum(row) for row in gamma)
    a, b = coerce(params.a, space.exact), coerce(params.b, space.exact)
    cost = sum(space.dist[i][j] * gamma[i][j] for i in range(n) for j in range(n) if gamma[i][j])
    return a * (mu.mass - m) + a * (nu.mass - m) + b * coerce(cost, space.exact)


def reference_verify_optimality(space, mu, nu, params, plan, potentials, tol=None):
    require_same_space(mu, nu)
    tol = verification_tol(tol, space.exact)
    n = space.n
    rows = tuple(sum(row) for row in plan.gamma)
    cols = tuple(sum(plan.gamma[i][j] for i in range(n)) for j in range(n))
    try:
        gammas = (DiscreteMeasure(space, rows), DiscreteMeasure(space, cols))
    except InvalidWeight:
        gammas = None
    if gammas is None or not all(
        is_submeasure(g, m, atol=tol, rtol=ROUNDING_TOL) for g, m in zip(gammas, (mu, nu))
    ):
        raise InfeasibleInputs("plan marginals exceed the problem measures")
    if not reference_is_feasible_pair(space, potentials, slack=max(tol, feasibility_slack(space, params))):
        raise InfeasibleInputs("potentials violate the dual constraints")

    a, b = params.a, params.b
    violations = []
    for i in range(n):
        for j in range(n):
            if plan.gamma[i][j] > tol:
                gap = b * space.dist[i][j] - potentials.phi1[i] - potentials.phi2[j]
                if abs(gap) > tol:
                    violations.append(("ii", (i, j)))
    tight_on_plan = not violations
    sets = []
    unsaturated = {"iii": [], "iv": []}
    sides = zip(gammas, (mu, nu), (potentials.phi1, potentials.phi2))
    for side, (gamma, m, phi) in enumerate(sides, 1):
        sets.append(tuple(x for x in range(n) if gamma.weights[x] > 0 or m.weights[x] == 0))
        for x, f in enumerate(lebesgue_decompose(gamma, m).density):
            shipped = gamma.weights[x] > 0
            if m.weights[x] > (0 if shipped else tol) and abs((a - phi[x]) * (1 - f)) > tol:
                unsaturated["iii" if shipped else "iv"].append((side, x))
    violations += [(cond, w) for cond, ws in unsaturated.items() for w in ws]
    return OptimalityCertificate(
        a1=sets[0],
        a2=sets[1],
        support_ok=True,
        tight_on_plan=tight_on_plan,
        density_complementarity=not unsaturated["iii"],
        saturated_on_destroyed=not unsaturated["iv"],
        violations=tuple(violations),
    )


LARGE_PRIMES = (998_244_353, 1_000_000_007, 2**61 - 1)


CASE_MODES = ("exact", "float", "float potentials", "float plan")


@st.composite
def exact_certificate_cases(draw, mode=None):
    """A solved exact instance on a rational metric with a non-integer b,
    its potentials shifted by fractions of mixed and large prime
    denominators, possibly one potential off by 1/p for a large prime p,
    possibly a tampered plan, and a tolerance that may be a float; then, by
    ``mode`` or else a mode draw, kept exact, or made its float copy, or
    given float potentials or float plan entries on the exact space.  The
    plan is the drawn matrix, a ``DensePlan``: the package checks its
    ``.plan``, the references the matrix itself."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_int_metric(rng, draw(st.integers(1, 6)), max_d=9)
    scale = draw(st.sampled_from((Fraction(1), Fraction(2, 3), Fraction(5, 7))))
    space = validate_metric(base.labels, [[scale * x for x in row] for row in base.dist])
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    params = EntropyParams(
        a=draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2)))),
        b=draw(st.sampled_from((Fraction(2, 3), Fraction(5, 4), Fraction(7, 3)))),
        p=1,
    )
    report = solve_w1(space, mu, nu, params)
    phi1, phi2 = list(report.potentials.phi1), list(report.potentials.phi2)
    dens = st.sampled_from((1, 2, 3, 9, *LARGE_PRIMES))
    shift = Fraction(draw(st.integers(-1, 1)), draw(dens))  # keeps every phi1 + phi2
    phi1, phi2 = [v + shift for v in phi1], [v - shift for v in phi2]
    for phi in (phi1, phi2):  # lowering a potential keeps the coupling
        for x in range(space.n):
            if draw(st.booleans()):
                phi[x] -= Fraction(draw(st.integers(0, 2)), draw(dens))
    if draw(st.booleans()):  # tamper: one potential off by 1/p
        phi = draw(st.sampled_from((phi1, phi2)))
        phi[draw(st.integers(0, space.n - 1))] += Fraction(draw(st.sampled_from((-1, 1))), draw(dens))
    gamma = [list(row) for row in report.plan.gamma]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, space.n - 1)), draw(st.integers(0, space.n - 1))
        gamma[i][j] = max(gamma[i][j] + Fraction(draw(st.integers(-1, 1)), draw(dens)), Fraction(0))
    mode = draw(st.sampled_from(CASE_MODES)) if mode is None else mode
    if mode == "float":
        space = space.as_float()
        mu, nu = mu.as_float(space), nu.as_float(space)
        params = EntropyParams(a=float(params.a), b=float(params.b), p=1)
    if mode in ("float", "float potentials"):
        phi1, phi2 = [float(v) for v in phi1], [float(v) for v in phi2]
    if mode in ("float", "float plan"):
        gamma = [[float(x) for x in row] for row in gamma]
    dense = DensePlan(space, tuple(tuple(row) for row in gamma))
    tols = (None, 0, 0.0, 0.25, 2**-10, 1e-3, Fraction(1, 3), Fraction(1, LARGE_PRIMES[0]))
    tol = draw(st.sampled_from(tols))
    potentials = DualPotentials(phi1=tuple(phi1), phi2=tuple(phi2), params=params)
    return space, mu, nu, params, dense, potentials, tol


def outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except InfeasibleInputs as exc:
        return ("InfeasibleInputs", str(exc))


def reference_plan_sums(plan):
    gamma, n = plan.gamma, plan.space.n
    rows = tuple(sum(row) for row in gamma)
    return sum(rows), rows, tuple(sum(gamma[i][j] for i in range(n)) for j in range(n))


def assert_same(got, want):
    # equal values of equal types: a float result must keep its bits, and an
    # int or a Fraction must not turn into the other
    assert got == want and repr(got) == repr(want)


@settings(max_examples=600, deadline=None)
@given(exact_certificate_cases())
def test_integer_checks_match_the_fraction_checks(case):
    space, mu, nu, params, dense, potentials, tol = case
    plan, dense = dense.plan, dense.as_read()
    # Exact potentials on an exact space add a float tolerance exactly, as
    # Fraction(tol), where the reference adds it in floats, rounding b d + tol
    # (test_float_tolerance_is_added_exactly); the reference gets Fraction(tol)
    # there.  Float potentials take the float tolerance unchanged on both sides.
    exact_duals = space.exact and exactness(potentials.phi1 + potentials.phi2)
    ref_tol = Fraction(tol) if exact_duals and isinstance(tol, float) else tol
    assert_same(is_feasible_pair(space, potentials), reference_is_feasible_pair(space, potentials))
    assert_same(
        is_feasible_pair(space, potentials, verification_tol(tol, space.exact)),
        reference_is_feasible_pair(space, potentials, verification_tol(ref_tol, space.exact)),
    )
    want = outcome(reference_verify_optimality, space, mu, nu, params, dense, potentials, tol=ref_tol)
    assert_same(outcome(verify_optimality, space, mu, nu, params, plan, potentials, tol=tol), want)
    assert_same(primal_value(plan, mu, nu, params), reference_primal_value(dense, mu, nu, params))
    assert_same((plan.total, plan.row_sums(), plan.col_sums()), reference_plan_sums(dense))


# The dual objective as a running sum of Fractions (or floats), from before
# exact mode summed it on integer images.  Its feasibility flag is
# is_feasible_pair's, as it was: reference_is_feasible_pair passes a NaN.


def reference_evaluate_dual(potentials, mu, nu):
    require_same_space(mu, nu)
    space = mu.space
    a = potentials.params.a
    feasible = is_feasible_pair(space, potentials)
    total = coerce(0, space.exact)
    for phi, m in ((potentials.phi1, mu), (potentials.phi2, nu)):
        for v, w in zip(phi, m.weights):
            if w == 0:
                continue
            t = truncate_potential(v, a)
            if t == NEG_INF:
                return feasible, NEG_INF
            total += t * w
    return feasible, total


@pytest.mark.parametrize("mode", CASE_MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dual_objective_matches_the_fraction_loop(mode, data):
    space, mu, nu, params, plan, potentials, tol = data.draw(exact_certificate_cases(mode))
    assert_same(evaluate_dual(potentials, mu, nu), reference_evaluate_dual(potentials, mu, nu))


def test_dual_objective_truncates_as_the_fraction_loop(two_point, unit_params):
    mu, nu = measure(two_point, [Fraction(1, 2), 0]), measure(two_point, [0, 3])
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    float_mu, float_nu = mu.as_float(space), nu.as_float(space)
    huge_mu, huge_nu = measure(space, [1e308, 0.0]), measure(space, [0.0, 1e308])
    big = EntropyParams(a=1e308, b=1.0, p=1)
    cases = [
        # above a: a, against the weight 1/2, and phi2 = 1/3 against 3
        ((unit_params, mu, nu), (Fraction(5, 2), 0), (0, Fraction(1, 3)), Fraction(3, 2)),
        # below -a at positive weight: the sentinel
        ((unit_params, mu, nu), (-2, 0), (0, 1), NEG_INF),
        # below -a at zero weight only: skipped
        ((unit_params, mu, nu), (0, -2), (-2, Fraction(-1, 3)), Fraction(-1)),
        # float weights on the exact space: the values themselves, in floats
        ((unit_params, DiscreteMeasure(two_point, (0.5, 0.0)), DiscreteMeasure(two_point, (0.0, 3.0))),
         (Fraction(5, 2), 0), (0, Fraction(1, 3)), 1.5),
        ((params, float_mu, float_nu), (2.5, -2.0), (-2.0, 0.25), 1.25),
        # a NaN potential fails both tests of the truncation: the sentinel at
        # positive weight, skipped at zero weight
        ((params, float_mu, float_nu), (math.nan, 0.0), (0.0, 0.0), NEG_INF),
        ((params, float_mu, float_nu), (0.0, math.nan), (math.nan, 0.5), 1.5),
        # the terms overflow to +inf and -inf, and their sum is NaN
        ((big, huge_mu, huge_nu), (1e308, 0.0), (0.0, -1e308), math.nan),
    ]
    for (case_params, case_mu, case_nu), phi1, phi2, value in cases:
        pair = DualPotentials(phi1=phi1, phi2=phi2, params=case_params)
        got = evaluate_dual(pair, case_mu, case_nu)
        assert repr(got) == repr(reference_evaluate_dual(pair, case_mu, case_nu))
        assert repr(got[1]) == repr(value)


def test_float_weights_on_an_exact_space_meet_the_references():
    # the weights decide the images with the plan and the potentials: a float
    # weight sends the whole check to the values themselves
    seen = 0
    for space, mu, nu, params, plan, potentials, tol in seeded_certificate_cases(random.Random(43), 120):
        if not space.exact:
            continue
        mu, nu = (DiscreteMeasure(space, tuple(map(float, m.weights))) for m in (mu, nu))
        assert_same_certificate(space, mu, nu, params, plan, potentials, tol)
        assert_same(evaluate_dual(potentials, mu, nu), reference_evaluate_dual(potentials, mu, nu))
        seen += 1
    assert seen >= 20


def fractions_built(monkeypatch, call):
    """call() and the number of Fractions it builds, counted on Fraction.__new__."""
    original = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        result = call()
    return result, len(built)


def test_certificate_builds_as_many_fractions_at_any_size(monkeypatch):
    # the per-point loops run on integer images, so a larger space builds no
    # more Fractions; the Fraction loop of the dual objective does
    counts = {}
    for n in (8, 32):
        rng = random.Random(n)
        space = random_int_metric(rng, n, max_d=9)
        mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
        params = EntropyParams(a=Fraction(3, 2), b=Fraction(2, 3), p=1)
        report = solve_w1(space, mu, nu, params)
        calls = {
            "verify_optimality": lambda: verify_optimality(space, mu, nu, params, report.plan, report.potentials),
            "evaluate_dual": lambda: evaluate_dual(report.potentials, mu, nu),
            "reference": lambda: reference_evaluate_dual(report.potentials, mu, nu),
        }
        for name, call in calls.items():
            result, counts[name, n] = fractions_built(monkeypatch, call)
        assert result == (True, report.value)
    assert counts["verify_optimality", 8] == counts["verify_optimality", 32]
    assert counts["evaluate_dual", 8] == counts["evaluate_dual", 32]
    assert counts["reference", 8] < counts["reference", 32]


def test_a_plan_of_ints_certifies_as_its_fraction_twin(monkeypatch):
    # ints are exact too: an exact plan written with int entries has the
    # integer image of its Fraction twin, so its sums are Fractions and its
    # certificate and primal value build as many Fractions as the twin's
    rng = random.Random(24)
    space = random_int_metric(rng, 24, max_d=9)
    mu, nu = (measure(space, [rng.randint(0, 6) for _ in range(space.n)]) for _ in range(2))
    params = EntropyParams(a=Fraction(3, 2), b=Fraction(2, 3), p=1)
    report = solve_w1(space, mu, nu, params)
    gamma = report.plan.gamma
    assert all(x.denominator == 1 for row in gamma for x in row)  # integer masses ship whole units
    twin, ints = DensePlan(space, gamma).plan, DensePlan(space, tuple(tuple(map(int, row)) for row in gamma)).plan
    for plan in (twin, ints):  # read before the counts, so both totals are cached
        sums = (plan.total, plan.row_sums(), plan.col_sums())
        assert_same(sums, (report.transported_mass, *reference_plan_sums(report.plan)[1:]))

    def certify(plan):
        return verify_optimality(space, mu, nu, params, plan, report.potentials), primal_value(plan, mu, nu, params)

    results = [fractions_built(monkeypatch, lambda: certify(plan)) for plan in (twin, ints)]
    (by_twin, twin_built), (by_ints, ints_built) = results
    assert by_twin == by_ints == (report.conditions, report.value)
    assert twin_built == ints_built


def dense_and_support_plans(rng, count):
    """Seeded p = 1 instances of n = 1 to 12, exact, float, and exact with
    the plan's entries as floats, in turn (the float ones on distances times
    0.37, with weights 0 or uniform), each with the solver's plan as a dense
    matrix, possibly with one entry moved by 1/4 or to zero: the reference
    holds it as it is, and the package's plan of it is the reference's
    support."""
    rates = (Fraction(1, 2), Fraction(1), Fraction(2))
    for k in range(count):
        space = random_int_metric(rng, rng.randint(1, 12), max_d=9)
        mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
        params = EntropyParams(a=rng.choice(rates), b=rng.choice(rates), p=1)
        if k % 3 == 1:  # distances and weights that round, so a sum's order shows in its bits
            space = validate_metric(space.labels, [[0.37 * d for d in row] for row in space.dist], exact=False)
            mu, nu = (measure(space, [rng.choice((0.0, rng.uniform(0, 3))) for _ in range(space.n)]) for _ in range(2))
            params = EntropyParams(a=float(params.a), b=float(params.b), p=1)
        report = solve_w1(space, mu, nu, params)
        rows = [list(row) for row in report.plan.gamma]
        i, j = rng.randrange(space.n), rng.randrange(space.n)
        rows[i][j] = rng.choice((rows[i][j], 0 * rows[i][j], rows[i][j] + coerce(Fraction(1, 4), space.exact)))
        if k % 3 == 2:  # a float plan on the exact space: its zeros are 0.0
            rows = [[float(x) for x in row] for row in rows]
        yield space, mu, nu, params, report, DensePlan(space, tuple(map(tuple, rows)))


def test_the_support_plan_reads_as_its_dense_reference():
    # the sums, the total, the primal value, the certificate (violations and
    # A1/A2 in the same order) and the JSON report of a plan held as its
    # support are those of its dense matrix: equal values of equal types, and
    # float values to the bit, an empty float row summing to 0.0 on a float
    # space and on an exact one
    kinds = {"passed": 0, "failed": 0, "raised": 0, "empty float row": 0, "empty float row, exact space": 0}
    for space, mu, nu, params, report, dense in dense_and_support_plans(random.Random(3201), 240):
        plan, dense = dense.plan, dense.as_read()
        sums = (plan.total, plan.row_sums(), plan.col_sums())
        assert_same(sums, (dense.total, dense.row_sums(), dense.col_sums()))
        empty_float_row = any(type(s) is float and not s for s in sums[1])
        kinds["empty float row, exact space" if space.exact else "empty float row"] += empty_float_row
        assert_same(primal_value(plan, mu, nu, params), reference_primal_value(dense, mu, nu, params))
        for tol in CERTIFICATE_TOLS:
            got = certificate_or_error(verify_optimality, space, mu, nu, params, plan, report.potentials, tol=tol)
            args = space, mu, nu, params, dense, report.potentials
            assert_same(got, certificate_or_error(reference_verify_optimality, *args, tol=tol))
            if isinstance(got, OptimalityCertificate):
                kinds["passed" if got.passed else "failed"] += 1
            else:
                kinds["raised"] += 1
        doc = jsonio.report_to_json(dataclasses.replace(report, plan=plan))
        assert json.dumps(doc) == json.dumps(dict(doc, plan=dense.to_json()))
    assert min(kinds.values()) >= 40, kinds


def test_float_tolerance_is_added_exactly():
    # phi1[x] + phi2[y] = 7/12 = b d(x, y) + 1/4 exactly, with b d = 1/3:
    # float(1/3) + 0.25 rounds below 7/12, so adding a float tol in floats
    # rejected this pair; every other sum is below b d + 1/4
    space = validate_metric(["x", "y"], [[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
    params = EntropyParams(a=Fraction(1), b=Fraction(1), p=1)
    pair = DualPotentials(phi1=(Fraction(7, 12), 0), phi2=(Fraction(-1, 3), 0), params=params)
    assert not reference_is_feasible_pair(space, pair, slack=0.25)
    assert is_feasible_pair(space, pair, slack=0.25)
    assert not is_feasible_pair(space, pair, slack=math.nextafter(0.25, 0))


def test_float_plan_entries_never_meet_integer_potentials(two_point, unit_params):
    # the plan holds a float, so the whole check reads the values as they are:
    # the potentials' integer image has F_p = 3 * 2^55 (thirds and the float
    # tol 0.1), and 0.1 * F_p rounds above the scaled tol, which would count
    # the entry 0.1, equal to tol, as shipped
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    plan = DensePlan(two_point, ((0.0, 0.1), (0.0, 0.0))).plan
    pair = DualPotentials(phi1=(Fraction(1, 3), Fraction(0)), phi2=(Fraction(-1, 3), Fraction(0)), params=unit_params)
    cert = verify_optimality(two_point, mu, nu, unit_params, plan, pair, tol=0.1)
    assert cert == reference_verify_optimality(two_point, mu, nu, unit_params, plan, pair, tol=0.1)
    assert cert.tight_on_plan


# The certificate as it read the plan before it took the row and column sums
# as they are: two marginal measures, two is_submeasure tests and two
# Lebesgue decompositions.  The one-pass certificate must give the same
# certificates and raise the same errors.


def reference_lebesgue_verify_optimality(space, mu, nu, params, plan, potentials, tol=None):
    if params.p != 1:
        raise InvalidParams("the certificate is only defined for p = 1")
    require_same_space(mu, nu)
    if plan.space != space:
        raise SpaceMismatch("plan lives on a different space")
    tol = verification_tol(tol, space.exact)

    try:
        gammas = marginals(plan)
    except InvalidWeight:  # a marginal past float range exceeds any measure
        gammas = None
    if gammas is None or not all(
        is_submeasure(g, m, atol=tol, rtol=ROUNDING_TOL) for g, m in zip(gammas, (mu, nu))
    ):
        raise InfeasibleInputs("plan marginals exceed the problem measures")
    slack = max(tol, feasibility_slack(space, params))
    if not is_feasible_pair(space, potentials, slack=slack):
        raise InfeasibleInputs("potentials violate the dual constraints")

    D, G, F_g, _, S, P1, P2, F_p, L, R, _, _ = _terms(space, potentials, tol, plan.plan)
    shipped, loose = S * F_g, S * L
    # G is the package plan's support, over F_g when it has an integer image
    violations = [
        ("ii", (i, j)) for i, j, g in G if g * F_p > shipped and abs(R * D[i][j] - P1[i] * L - P2[j] * L) > loose
    ]
    tight_on_plan = not violations

    a, n = params.a, space.n
    sets = []
    unsaturated = {"iii": [], "iv": []}
    sides = zip(gammas, (mu, nu), (potentials.phi1, potentials.phi2))
    for side, (gamma, m, phi) in enumerate(sides, 1):
        sets.append(tuple(x for x in range(n) if gamma.weights[x] > 0 or m.weights[x] == 0))
        for x, f in enumerate(lebesgue_decompose(gamma, m).density):
            shipped = gamma.weights[x] > 0
            if m.weights[x] > (0 if shipped else tol) and abs((a - phi[x]) * (1 - f)) > tol:
                unsaturated["iii" if shipped else "iv"].append((side, x))
    violations += [(cond, w) for cond, ws in unsaturated.items() for w in ws]

    return OptimalityCertificate(
        a1=sets[0],
        a2=sets[1],
        support_ok=True,
        tight_on_plan=tight_on_plan,
        density_complementarity=not unsaturated["iii"],
        saturated_on_destroyed=not unsaturated["iv"],
        violations=tuple(violations),
    )


CERTIFICATE_TOLS = (None, 0, 1e-9, Fraction(1, 4))


def certificate_or_error(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except GenwassError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_certificate(space, mu, nu, params, dense, potentials, tol):
    # the package checks the plan of the DensePlan ``dense``, the reference
    # reads the marginals off the matrix itself
    got = certificate_or_error(verify_optimality, space, mu, nu, params, dense.plan, potentials, tol=tol)
    args = space, mu, nu, params, dense.as_read(), potentials
    assert_same(got, certificate_or_error(reference_lebesgue_verify_optimality, *args, tol=tol))
    return got


def seeded_certificate_cases(rng, count):
    """Solved exact instances, half with one plan entry moved by a multiple
    of 1/4 and half with one potential moved by a multiple of 1/8, kept
    exact, made their float copy, or given float plan entries on the exact
    space; each with a tolerance from CERTIFICATE_TOLS.  The plan is the
    ``DensePlan`` of the matrix, as in :func:`exact_certificate_cases`."""
    rates = (Fraction(1, 2), Fraction(1), Fraction(2))
    for _ in range(count):
        space = random_int_metric(rng, rng.randint(1, 6), max_d=9)
        mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
        params = EntropyParams(a=rng.choice(rates), b=rng.choice(rates), p=1)
        report = solve_w1(space, mu, nu, params)
        gamma = [list(row) for row in report.plan.gamma]
        phi1, phi2 = list(report.potentials.phi1), list(report.potentials.phi2)
        if rng.random() < 0.5:
            i, j = rng.randrange(space.n), rng.randrange(space.n)
            gamma[i][j] = max(gamma[i][j] + Fraction(rng.randint(-2, 2), 4), Fraction(0))
        if rng.random() < 0.5:
            phi = rng.choice((phi1, phi2))
            phi[rng.randrange(space.n)] += Fraction(rng.randint(-2, 2), 8)
        mode = rng.choice(("exact", "float", "float plan"))
        if mode == "float":
            space = space.as_float()
            mu, nu = mu.as_float(space), nu.as_float(space)
            params = EntropyParams(a=float(params.a), b=float(params.b), p=1)
            phi1, phi2 = [float(v) for v in phi1], [float(v) for v in phi2]
        if mode != "exact":
            gamma = [[float(x) for x in row] for row in gamma]
        dense = DensePlan(space, tuple(tuple(row) for row in gamma))
        potentials = DualPotentials(phi1=tuple(phi1), phi2=tuple(phi2), params=params)
        yield space, mu, nu, params, dense, potentials, rng.choice(CERTIFICATE_TOLS)


def test_certificate_matches_the_marginal_measure_reference():
    kinds = {"passed": 0, "failed": 0, "raised": 0}
    for case in seeded_certificate_cases(random.Random(41), 400):
        got = assert_same_certificate(*case)
        if isinstance(got, OptimalityCertificate):
            kinds["passed" if got.passed else "failed"] += 1
        else:
            kinds["raised"] += 1
    assert min(kinds.values()) >= 40, kinds


@settings(max_examples=300, deadline=None)
@given(exact_certificate_cases(), st.sampled_from(CERTIFICATE_TOLS))
def test_certificate_matches_the_marginal_measure_reference_on_drawn_cases(case, tol):
    assert_same_certificate(*case[:-1], tol)


def test_certificate_matches_the_reference_past_float_range(two_point, two_point_far, unit_params):
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    float_pair = DualPotentials(phi1=(0.0, 0.0), phi2=(0.0, 0.0), params=params)
    huge_mu, huge_nu = measure(space, [1.5e308, 0.0]), measure(space, [0.0, 1.5e308])
    overflowing = DensePlan(space, ((1e308, 1e308), (0.0, 0.0)))
    cases = [
        # exact row sum past float range
        ((two_point, mu, nu, unit_params, dense_plan(two_point, [[10**400, 0], [0, 0]]), pair), None),
        # float row sum inf, on a float space and as a float plan on the exact space
        ((space, mu.as_float(space), nu.as_float(space), params, overflowing, float_pair), None),
        ((two_point, mu, nu, unit_params, DensePlan(two_point, ((1e308, 1e308), (0.0, 0.0))), pair), 0),
        # w + tol rounds to inf, so only the range of the row sum refuses it
        ((space, huge_mu, huge_nu, params, overflowing, float_pair), 1e308),
    ]
    refused = ("InfeasibleInputs", "plan marginals exceed the problem measures")
    for args, tol in cases:
        for t in (tol, *CERTIFICATE_TOLS):
            assert assert_same_certificate(*args, t) == refused
    # sums inside float range, with room for them in the measures
    fits = DensePlan(space, ((1e307, 1e307), (0.0, 0.0)))
    got = assert_same_certificate(space, huge_mu, huge_nu, params, fits, float_pair, 1e308)
    assert isinstance(got, OptimalityCertificate)
    # a measure on another space
    far_mu = dirac(two_point_far, 0)
    plan = dense_plan(two_point, [[0, 1], [0, 0]])
    got = assert_same_certificate(two_point, far_mu, dirac(two_point_far, 1), unit_params, plan, pair, None)
    assert got == ("SpaceMismatch", "objects live on different spaces")


def test_float_marginal_caps_scale_with_the_weight(two_point):
    # a float cap is w + tol + ROUNDING_TOL * w: a row sum inside it passes,
    # and one past it by 10 ROUNDING_TOL * w is refused, at every size of w
    space = two_point.as_float()
    params = EntropyParams(a=1.0, b=1.0, p=1)
    pair = DualPotentials(phi1=(0.0, 0.0), phi2=(0.0, 0.0), params=params)
    refused = ("InfeasibleInputs", "plan marginals exceed the problem measures")
    for w in (1.0, 2e8, 2e12, 1e15):
        mu = nu = measure(space, [w, 0.0])
        for tol in (None, 0.0, 1e-9):
            slack = CERTIFY_TOL if tol is None else tol
            inside = DensePlan(space, ((w + slack + ROUNDING_TOL * w / 2, 0.0), (0.0, 0.0)))
            past = DensePlan(space, ((w + slack + 11 * ROUNDING_TOL * w, 0.0), (0.0, 0.0)))
            assert isinstance(assert_same_certificate(space, mu, nu, params, inside, pair, tol), OptimalityCertificate)
            assert assert_same_certificate(space, mu, nu, params, past, pair, tol) == refused


def test_float_p1_certifies_its_own_plan_at_any_weight_size():
    # seeded float sweep: before the caps scaled with the weight, 13, 15 and
    # 18 of these 200 solves at each size rejected their own plan
    rng = random.Random(7)
    for top in (2e8, 2e12, 1e15):
        for _ in range(200):
            space = random_int_metric(rng, rng.randint(2, 12)).as_float()
            mu, nu = (measure(space, [rng.uniform(0, top) for _ in range(space.n)]) for _ in "mn")
            params = EntropyParams(a=rng.choice((0.5, 1.0, 2.0)), b=rng.choice((0.5, 1.0)), p=1)
            assert solve_w1(space, mu, nu, params).conditions.passed


def test_certificate_builds_no_measure(two_point, unit_params, monkeypatch):
    # a DiscreteMeasure (and so a Decomposition, whose singular part is one)
    # checks its weights on construction
    def refuse(weights):
        raise AssertionError("the certificate built a measure")

    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    space = two_point.as_float()
    float_mu, float_nu = mu.as_float(space), nu.as_float(space)
    float_params = EntropyParams(a=1.0, b=1.0, p=1)
    monkeypatch.setattr(measures, "_check_weights", refuse)
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    assert verify_optimality(two_point, mu, nu, unit_params, make_plan(two_point, [[0, 1], [0, 0]]), pair).passed
    float_pair = DualPotentials(phi1=(0.0, -1.0), phi2=(-1.0, 1.0), params=float_params)
    plan = make_plan(space, [[0, 1], [0, 0]])
    assert verify_optimality(space, float_mu, float_nu, float_params, plan, float_pair).passed


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_p1_solve_tests_dual_feasibility_once_at_each_slack(monkeypatch, exact):
    # evaluate_dual and the certificate test at slack 0 in exact mode, so the
    # certificate takes evaluate_dual's answer; in float mode the slacks
    # differ and both tests run
    tested = []
    feasible = duality._feasible
    monkeypatch.setattr(duality, "_feasible", lambda *args: tested.append(args[2][4]) or feasible(*args))
    rng = random.Random(3015)
    space = random_int_metric(rng, 12)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    params = EntropyParams(a=Fraction(2), b=Fraction(1, 2), p=1)
    if not exact:
        space, params = space.as_float(), EntropyParams(a=2.0, b=0.5, p=1)
        mu, nu = mu.as_float(space), nu.as_float(space)
    report = solve_w1(space, mu, nu, params)
    assert report.conditions.passed and len(tested) == (1 if exact else 2)
    assert len(set(tested)) == len(tested)
    # the same certificate with the test run again
    tested.clear()
    assert verify_optimality(space, mu, nu, params, report.plan, report.potentials) == report.conditions
    assert len(tested) == 1


def test_the_certificate_skips_only_the_test_run_at_its_own_slack(two_point, unit_params):
    # infeasible potentials: phi1 + phi2 = 3 > b d = 1 on the pair (0, 1)
    plan = make_plan(two_point, [[0, 0], [0, 0]])
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    bad = DualPotentials((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)), unit_params)
    for feasible_at in (None, Fraction(1, 4)):
        with pytest.raises(InfeasibleInputs, match="potentials violate the dual constraints"):
            verify_optimality(two_point, mu, nu, unit_params, plan, bad, feasible_at=feasible_at)
