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
    zero_measure,
)
from genwass.duality import feasibility_slack, is_feasible_pair, primal_value, verification_tol
from genwass.errors import InfeasibleInputs, InvalidParams, InvalidWeight, SpaceMismatch
from genwass.measures import (
    DiscreteMeasure,
    TransportPlan,
    is_submeasure,
    lebesgue_decompose,
    require_same_space,
)
from genwass.scalars import coerce, is_exact
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


def test_certificate_needs_a_plan_on_the_space(two_point, two_point_far, unit_params):
    mu, nu = dirac(two_point, 0), dirac(two_point, 1)
    pair = DualPotentials(phi1=(0, -1), phi2=(-1, 1), params=unit_params)
    with pytest.raises(SpaceMismatch, match="plan lives on a different space"):
        verify_optimality(two_point, mu, nu, unit_params, make_plan(two_point_far, [[0, 1], [0, 0]]), pair)


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
    if gammas is None or not all(is_submeasure(g, m, atol=tol) for g, m in zip(gammas, (mu, nu))):
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
def exact_certificate_cases(draw):
    """A solved exact instance on a rational metric with a non-integer b,
    its potentials shifted by fractions of mixed and large prime
    denominators, possibly one potential off by 1/p for a large prime p,
    possibly a tampered plan, and a tolerance that may be a float; then, by
    a mode draw, kept exact, or made its float copy, or given float
    potentials or float plan entries on the exact space."""
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
    mode = draw(st.sampled_from(CASE_MODES))
    if mode == "float":
        space = space.as_float()
        mu, nu = mu.as_float(space), nu.as_float(space)
        params = EntropyParams(a=float(params.a), b=float(params.b), p=1)
    if mode in ("float", "float potentials"):
        phi1, phi2 = [float(v) for v in phi1], [float(v) for v in phi2]
    if mode in ("float", "float plan"):
        gamma = [[float(x) for x in row] for row in gamma]
    plan = TransportPlan(space, tuple(tuple(row) for row in gamma))
    tols = (None, 0, 0.0, 0.25, 2**-10, 1e-3, Fraction(1, 3), Fraction(1, LARGE_PRIMES[0]))
    tol = draw(st.sampled_from(tols))
    potentials = DualPotentials(phi1=tuple(phi1), phi2=tuple(phi2), params=params)
    return space, mu, nu, params, plan, potentials, tol


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
    space, mu, nu, params, plan, potentials, tol = case
    # Exact potentials on an exact space add a float tolerance exactly, as
    # Fraction(tol), where the reference adds it in floats, rounding b d + tol
    # (test_float_tolerance_is_added_exactly); the reference gets Fraction(tol)
    # there.  Float potentials take the float tolerance unchanged on both sides.
    exact_duals = space.exact and all(map(is_exact, potentials.phi1 + potentials.phi2))
    ref_tol = Fraction(tol) if exact_duals and isinstance(tol, float) else tol
    assert_same(is_feasible_pair(space, potentials), reference_is_feasible_pair(space, potentials))
    assert_same(
        is_feasible_pair(space, potentials, verification_tol(tol, space.exact)),
        reference_is_feasible_pair(space, potentials, verification_tol(ref_tol, space.exact)),
    )
    want = outcome(reference_verify_optimality, space, mu, nu, params, plan, potentials, tol=ref_tol)
    assert_same(outcome(verify_optimality, space, mu, nu, params, plan, potentials, tol=tol), want)
    assert_same(primal_value(plan, mu, nu, params), reference_primal_value(plan, mu, nu, params))
    assert_same((plan.total, plan.row_sums(), plan.col_sums()), reference_plan_sums(plan))


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
    plan = TransportPlan(two_point, ((0.0, 0.1), (0.0, 0.0)))
    pair = DualPotentials(phi1=(Fraction(1, 3), Fraction(0)), phi2=(Fraction(-1, 3), Fraction(0)), params=unit_params)
    cert = verify_optimality(two_point, mu, nu, unit_params, plan, pair, tol=0.1)
    assert cert == reference_verify_optimality(two_point, mu, nu, unit_params, plan, pair, tol=0.1)
    assert cert.tight_on_plan
