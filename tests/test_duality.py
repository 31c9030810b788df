import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genwass import (
    DualPotentials,
    EntropyParams,
    c_transform,
    dirac,
    evaluate_dual,
    measure,
    solve_flat,
    solve_w1,
    truncate_potential,
    verify_optimality,
    zero_measure,
)
from genwass.errors import InfeasibleInputs, InvalidParams
from genwass.measures import TransportPlan
from genwass.scalars import coerce
from genwass.selftest import random_int_metric, random_rational_measure


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


def make_plan(space, gamma):
    return TransportPlan(space, tuple(tuple(coerce(x, space.exact) for x in row) for row in gamma))


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
            space, mu, nu, params, TransportPlan(space, tuple(tuple(r) for r in gamma)),
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
