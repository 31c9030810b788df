"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one pass line (run pytest with -s to see them).  The
instance set for the duality criterion is shared with the flat-metric and
certificate criteria, so the three exercise the same solves.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from genwass import (
    EntropyParams,
    brute_force_value,
    build_quotient,
    c_transform,
    evaluate_dual,
    invariant_lift,
    pushforward,
    solve_flat,
    solve_w1,
    symmetrize,
    verify_optimality,
    wasserstein_p,
)
from genwass.cli import main
from genwass.duality import DualPotentials, primal_value
from genwass.gh import check_equivariant_stability, check_pushforward_stability
from genwass.jsonio import parse_report, report_to_json
from genwass.measures import is_invariant, measure
from genwass.quotient import check_quotient_contraction, check_quotient_isometry
from genwass.scalars import CERTIFY_TOL as GAP_RTOL
from genwass.scalars import scalar_to_json
from genwass.selftest import (
    random_equivariant_target,
    random_gh_triple,
    random_int_measure,
    random_int_metric,
    random_params,
    random_rational_measure,
    random_space_with_action,
)
from genwass.solver_wp import solve
from reference import DensePlan, l1_metric, wide_metric

QUARTER = Fraction(1, 4)


def report(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def duality_instances():
    """500 exact instances (n <= 8, p = 1), solved once, reused by the
    duality, flat-metric, and certificate criteria."""
    rng = random.Random(77)
    out = []
    for _ in range(500):
        space = random_int_metric(rng, rng.randint(1, 8))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = random_params(rng, p=1)
        out.append((space, mu, nu, params, solve_w1(space, mu, nu, params)))
    return out


def test_criterion_1_oracle_equivalence():
    rng = random.Random(2024)
    start = time.time()
    for _ in range(500):
        space = random_int_metric(rng, rng.randint(1, 3), max_d=5)
        mu = random_int_measure(rng, space, max_w=3)
        nu = random_int_measure(rng, space, max_w=3)
        params = random_params(rng)  # a, b in {1/2, 1, 2}, p in {1, 2, 3}
        expected = brute_force_value(space, mu, nu, params)
        got = solve(space, mu, nu, params).value
        if params.p == 1:
            assert got == expected
        else:
            assert abs(float(got) - float(expected)) <= 1e-9 * (1.0 + abs(float(expected)))
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(f"criterion 1 PASS: oracle equivalence on 500 instances in {elapsed:.1f}s")


def check_oracle_equivalence(rng, n, p, family, max_w):
    """solve against the oracle on full-support integer masses 1..max_w: a
    closed metric with random rates, or a wide metric at a = 500, b = 1/2,
    where mass ships at generic costs."""
    if family == "closed":
        space = random_int_metric(rng, n, max_d=5)
        params = random_params(rng, p=p)
    else:
        space = wide_metric(rng, n)
        params = EntropyParams(a=500, b=Fraction(1, 2), p=p)
    mu, nu = (measure(space, [rng.randint(1, max_w) for _ in range(n)]) for _ in range(2))
    expected = brute_force_value(space, mu, nu, params)
    got = solve(space, mu, nu, params).value
    if p == 1:
        assert got == expected, (n, family)
    else:
        assert abs(float(got) - float(expected)) <= 1e-9 * (1.0 + abs(float(expected))), (n, p, family)


def test_criterion_1_oracle_equivalence_at_n_4_to_8():
    # masses 1-3 up to n = 6 and 1-2 beyond; per (n, p) two closed metrics and one wide
    rng = random.Random(2025)
    start = time.time()
    count = 0
    for n in range(4, 9):
        for p in (1, 2, 3):
            for family in ("closed", "closed", "wide"):
                check_oracle_equivalence(rng, n, p, family, 3 if n <= 6 else 2)
                count += 1
    elapsed = time.time() - start
    assert count == 45
    assert elapsed < 60.0
    report(f"criterion 1 PASS: oracle equivalence on {count} instances at n = 4..8 in {elapsed:.1f}s")


def test_criterion_1_oracle_equivalence_at_n_9():
    # masses 1-2 at p = 1 and 2, on one closed and one wide metric each
    rng = random.Random(2026)
    start = time.time()
    count = 0
    for family in ("closed", "wide"):
        for p in (1, 2):
            check_oracle_equivalence(rng, 9, p, family, 2)
            count += 1
    elapsed = time.time() - start
    assert count == 4
    assert elapsed < 60.0
    report(f"criterion 1 PASS: oracle equivalence on {count} instances at n = 9 in {elapsed:.1f}s")


def test_criterion_2_strong_duality(duality_instances):
    for space, mu, nu, params, rep in duality_instances:
        assert rep.duality_gap == 0
    # the same construction in float arithmetic stays within the gap budget
    rng = random.Random(78)
    for _ in range(500):
        space = random_int_metric(rng, rng.randint(1, 8)).as_float()
        mu = measure(space, [rng.uniform(0, 3) for _ in range(space.n)])
        nu = measure(space, [rng.uniform(0, 3) for _ in range(space.n)])
        params = EntropyParams(a=rng.choice((0.5, 1.0, 2.0)), b=rng.choice((0.5, 1.0, 2.0)), p=1)
        rep = solve_w1(space, mu, nu, params)
        assert 0 <= rep.duality_gap <= 1e-9 * (1.0 + abs(float(rep.value)))
    report("criterion 2 PASS: zero duality gap on 500 exact + 500 float instances")


def test_criterion_3_flat_metric_equality(duality_instances):
    for space, mu, nu, params, rep in duality_instances:
        flat_value, witness = solve_flat(space, mu, nu, params)
        assert flat_value == rep.value  # exact-mode difference must be zero
        assert all(-params.a <= v <= params.a for v in witness.f)
    report("criterion 3 PASS: independent simplex matches the flow value on 500 instances")


def check_flat_equality_at(n, seed, family=random_int_metric, params=None):
    rng = random.Random(seed)
    space = family(rng, n)
    mu = random_rational_measure(rng, space)
    nu = random_rational_measure(rng, space)
    params = params or random_params(rng, p=1)
    rep = solve_w1(space, mu, nu, params)
    flat_value, witness = solve_flat(space, mu, nu, params)
    assert rep.transported_mass > 0
    assert rep.duality_gap == 0
    assert flat_value == rep.value
    assert all(-params.a <= v <= params.a for v in witness.f)
    report(f"criterion 3 PASS at n = {n} ({family.__name__}, seed {seed}): simplex and flow agree on {rep.value}")


@pytest.mark.parametrize("seed", [2401, 2402])
def test_criterion_3_flat_metric_equality_at_n24(seed):
    check_flat_equality_at(24, seed)


@pytest.mark.parametrize("seed", [3201, 3202])
def test_criterion_3_flat_metric_equality_at_n32(seed):
    check_flat_equality_at(32, seed)


@pytest.mark.parametrize("seed", [4801, 4802])
def test_criterion_3_flat_metric_equality_at_n48(seed):
    check_flat_equality_at(48, seed)


# a = 500 and b = 1/2: 2a is at least b d on every pair of these families, so
# mass ships everywhere
SPREAD_PARAMS = EntropyParams(a=Fraction(500), b=Fraction(1, 2), p=1)


@pytest.mark.parametrize(
    "family, n, seed",
    [
        (wide_metric, 32, 3203),
        (l1_metric, 32, 3203),
        (wide_metric, 48, 4803),
        (l1_metric, 48, 4803),
        (wide_metric, 96, 9603),
        (l1_metric, 128, 12803),
        (l1_metric, 192, 19203),  # about 1 s, 0.2 s of it the flow on the skeleton's 1,415 pairs
    ],
    ids=["wide-32", "l1-32", "wide-48", "l1-48", "wide-96", "l1-128", "l1-192"],
)
def test_criterion_3_flat_metric_equality_on_wide_and_l1(family, n, seed):
    check_flat_equality_at(n, seed, family, SPREAD_PARAMS)


@pytest.mark.parametrize("seed", [6403, 6406])
def test_criterion_3_flat_metric_equality_at_n64(seed):
    check_flat_equality_at(64, seed)


@pytest.mark.parametrize("seed", [9601])
def test_criterion_3_flat_metric_equality_at_n96(seed):
    check_flat_equality_at(96, seed)


def test_criterion_2_exact_and_float_at_n64():
    rng = random.Random(6401)
    space = random_int_metric(rng, 64)
    mu = random_rational_measure(rng, space)
    nu = random_rational_measure(rng, space)
    params = random_params(rng, p=1)
    rep = solve_w1(space, mu, nu, params)
    assert rep.transported_mass > 0
    assert rep.duality_gap == 0
    assert rep.conditions.passed

    fspace = space.as_float()
    frep = solve_w1(
        fspace,
        measure(fspace, [float(w) for w in mu.weights]),
        measure(fspace, [float(w) for w in nu.weights]),
        EntropyParams(a=float(params.a), b=float(params.b), p=1),
    )
    assert abs(frep.value - float(rep.value)) <= GAP_RTOL * (1.0 + abs(float(rep.value)))
    report(f"criterion 2 PASS at n = 64: certified exact value {rep.value}, float mode agrees")


def test_criterion_2_certified_exact_at_n128():
    rng = random.Random(12801)
    space = random_int_metric(rng, 128)
    mu = random_rational_measure(rng, space)
    nu = random_rational_measure(rng, space)
    rep = solve_w1(space, mu, nu, random_params(rng, p=1))
    assert rep.transported_mass > 0
    assert rep.duality_gap == 0
    assert rep.conditions.passed
    report(f"criterion 2 PASS at n = 128: certified exact value {rep.value}")


def test_criterion_6_certified_exact_round_trip_at_n384():
    # a plan is its support, so the report of a larger exact p = 1 instance
    # costs what it ships (606 of 147,456 entries here): it solves, goes
    # through report_to_json, json and parse_report, and what it reads back
    # certifies at zero tolerance; about 1.3 s, 1 s of it the solve
    rng = random.Random(38403)
    space = l1_metric(rng, 384)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    rep = solve_w1(space, mu, nu, SPREAD_PARAMS)
    assert rep.duality_gap == 0 and rep.conditions.passed
    doc = json.loads(json.dumps(report_to_json(rep)))
    plan, potentials, value = parse_report(doc, space, SPREAD_PARAMS)
    assert (plan, potentials, value) == (rep.plan, rep.potentials, rep.value)
    assert 0 < len(plan.support) < space.n**2 / 100
    cert = verify_optimality(space, mu, nu, SPREAD_PARAMS, plan, potentials, tol=0)
    assert cert.passed and cert.violations == ()
    assert primal_value(plan, mu, nu, SPREAD_PARAMS) == value
    report(f"criterion 6 PASS at n = 384: the report round-trips and certifies the value {value}")


def test_criterion_4_metric_axioms_and_midpoint():
    rng = random.Random(41)
    half = Fraction(1, 2)
    for _ in range(200):
        space = random_int_metric(rng, rng.randint(2, 6))
        params = random_params(rng, p=1)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        rho = random_rational_measure(rng, space)

        w_mu_nu = solve_w1(space, mu, nu, params).value
        w_nu_rho = solve_w1(space, nu, rho, params).value
        w_mu_rho = solve_w1(space, mu, rho, params).value
        assert w_mu_rho <= w_mu_nu + w_nu_rho
        assert solve_w1(space, nu, mu, params).value == w_mu_nu
        assert solve_w1(space, mu, mu, params).value == 0
        if mu.weights != nu.weights:
            assert w_mu_nu > 0

        sigma = (mu + nu).scale(half)
        assert solve_w1(space, mu, sigma, params).value == half * w_mu_nu
        assert solve_w1(space, sigma, nu, params).value == half * w_mu_nu
    # float-mode spot check at the stated tolerance
    for _ in range(50):
        space = random_int_metric(rng, rng.randint(2, 5)).as_float()
        params = EntropyParams(a=1.0, b=1.0, p=1)
        mu = measure(space, [rng.uniform(0, 2) for _ in range(space.n)])
        nu = measure(space, [rng.uniform(0, 2) for _ in range(space.n)])
        sigma = (mu + nu).scale(0.5)
        d = solve_w1(space, mu, nu, params).value
        for part in (solve_w1(space, mu, sigma, params).value, solve_w1(space, sigma, nu, params).value):
            assert abs(part - d / 2) <= 1e-9 * (1.0 + d)
    report("criterion 4 PASS: metric axioms and geodesic midpoint on 200 exact + 50 float triples")


def test_criterion_5_translation_invariance():
    rng = random.Random(52)
    for _ in range(200):
        space = random_int_metric(rng, rng.randint(1, 6))
        params = random_params(rng, p=1)
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        eta = random_rational_measure(rng, space)
        assert (
            solve_w1(space, mu + eta, nu + eta, params).value
            == solve_w1(space, mu, nu, params).value
        )
    report("criterion 5 PASS: translation invariance on 200 instances")


def test_criterion_6_certificate(duality_instances):
    for space, mu, nu, params, rep in duality_instances:
        assert rep.conditions.passed

    tampered = 0
    for space, mu, nu, params, rep in duality_instances:
        rows, cols = rep.plan.row_sums(), rep.plan.col_sums()
        spot = None
        for i in range(space.n):
            for j in range(space.n):
                if (
                    mu.weights[i] - rows[i] >= QUARTER
                    and nu.weights[j] - cols[j] >= QUARTER
                    and rep.potentials.phi1[i] + rep.potentials.phi2[j]
                    < params.b * space.dist[i][j]
                ):
                    spot = (i, j)
                    break
            if spot:
                break
        if spot is None:
            continue  # no feasible injection onto a strictly suboptimal arc
        tampered += 1
        gamma = [list(row) for row in rep.plan.gamma]
        gamma[spot[0]][spot[1]] += QUARTER
        bad_plan = DensePlan(space, tuple(tuple(r) for r in gamma)).plan
        cert = verify_optimality(space, mu, nu, params, bad_plan, rep.potentials)
        assert not (cert.tight_on_plan and cert.density_complementarity)
    assert tampered >= 150
    report(f"criterion 6 PASS: certificate passes on all solver outputs; {tampered} tampered plans all fail")


def tamper_spots(space, mu, nu, params, rep):
    """Every pair (i, j) where a quarter unit fits under both marginals and
    the arc is strictly suboptimal: phi1[i] + phi2[j] < b d[i][j]."""
    rows, cols = rep.plan.row_sums(), rep.plan.col_sums()
    phi1, phi2 = rep.potentials.phi1, rep.potentials.phi2
    return [
        (i, j)
        for i in range(space.n)
        if mu.weights[i] - rows[i] >= QUARTER
        for j in range(space.n)
        if nu.weights[j] - cols[j] >= QUARTER and phi1[i] + phi2[j] < params.b * space.dist[i][j]
    ]


@pytest.mark.parametrize("family", [wide_metric, l1_metric], ids=["wide", "l1"])
@pytest.mark.parametrize("n", [24, 48])
def test_criterion_6_certificate_on_wide_and_l1(family, n):
    # the solver certifies itself at zero gap at SPREAD_PARAMS, where mass ships
    # on every row, and at random rates; only the random rates leave slack
    # under both marginals, so only there is a plan tampered with
    rng = random.Random(100 * n + 6)
    space = family(rng, n)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    params = random_params(rng, p=1)
    spread, rep = solve_w1(space, mu, nu, SPREAD_PARAMS), solve_w1(space, mu, nu, params)
    for solved in (spread, rep):
        assert solved.duality_gap == 0
        assert solved.conditions.passed
    assert tamper_spots(space, mu, nu, SPREAD_PARAMS, spread) == []
    found = tamper_spots(space, mu, nu, params, rep)
    assert found
    i, j = found[0]
    gamma = [list(row) for row in rep.plan.gamma]
    gamma[i][j] += QUARTER
    bad_plan = DensePlan(space, tuple(map(tuple, gamma))).plan
    cert = verify_optimality(space, mu, nu, params, bad_plan, rep.potentials)
    assert not (cert.tight_on_plan and cert.density_complementarity)
    report(f"criterion 6 PASS on {family.__name__} n = {n}: gap 0 at both rates; {len(found)} spots, tampered plan fails")


def test_criterion_6_cli_round_trip_at_n64(tmp_path, capsys):
    # exact p = 1 through the command line: plan --format json, then verify
    # --report on what it wrote, at n = 64 with rational weights and rates
    rng = random.Random(6402)
    space = random_int_metric(rng, 64, max_d=9)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    weights = lambda m: {x: scalar_to_json(w) for x, w in zip(space.labels, m.weights)}
    doc = {
        "space": {"points": list(space.labels), "d": [[int(x) for x in row] for row in space.dist]},
        "mu": weights(mu),
        "nu": weights(nu),
        "params": {"a": "3/2", "b": "2/3", "p": 1},
    }
    problem, report_path = tmp_path / "problem.json", tmp_path / "report.json"
    problem.write_text(json.dumps(doc))

    assert main(["plan", "--input", str(problem), "--format", "json"]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert Fraction(rep["m"]) > 0 and Fraction(rep["gap"]) == 0
    report_path.write_text(out)
    argv = ["verify", "--input", str(problem), "--report", str(report_path), "--format", "json"]
    assert main(argv) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["conditions"] == {"i": True, "ii": True, "iii": True, "iv": True}
    assert cert["violations"] == [] and cert["value_ok"] is True
    report(f"criterion 6 PASS at n = 64: plan -> verify --report certifies the value {rep['value']}")


def test_criterion_7_quotient_isometry():
    rng = random.Random(63)
    lift_checks = 0
    for k in range(100):
        action = random_space_with_action(rng)
        space = action.space
        p = (1, 2)[k % 2]
        params = EntropyParams(
            a=rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))),
            b=rng.choice((Fraction(1, 2), Fraction(1))),
            p=p,
        )

        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        up, down = check_quotient_contraction(action, mu, nu, params)
        assert float(down) <= float(up) + 1e-9 * (1.0 + abs(float(up)))

        mu_inv = symmetrize(action, mu)
        nu_inv = symmetrize(action, nu)
        up, down = check_quotient_isometry(action, mu_inv, nu_inv, params)
        if p == 1:
            assert up == down
        else:
            assert abs(float(up) - float(down)) <= 1e-9 * (1.0 + abs(float(up)))

        q = build_quotient(action)
        nu_star = random_rational_measure(rng, q.quotient)
        lifted = invariant_lift(action, q, nu_star)
        assert is_invariant(action, lifted) is None
        assert pushforward(q.projection, lifted, q.quotient).weights == nu_star.weights
        lift_checks += 1
    assert lift_checks == 100
    report("criterion 7 PASS: contraction, isometry, and exact lift round trips on 100 actions")


def test_criterion_8_gh_stability():
    rng = random.Random(74)
    checked = 0
    for k in range(100):
        ghmap = random_gh_triple(rng)
        assert ghmap.epsilon <= float(ghmap.source.diameter) / 2
        params = EntropyParams(
            a=rng.choice((0.5, 1.0, 2.0)), b=rng.choice((0.5, 1.0)), p=rng.choice((1, 2))
        )
        result = check_pushforward_stability(ghmap, params, mass_cap=2.0, seed=7400 + k, samples=3)
        assert result["deviation_ok"], result
        assert result["surjectivity_ok"], result
        checked += 1
    assert checked == 100

    equivariant = 0
    for k in range(50):
        action = random_space_with_action(rng)
        target = random_equivariant_target(rng, action)
        params = EntropyParams(a=1.0, b=rng.choice((0.5, 1.0)), p=rng.choice((1, 2)))
        result = check_equivariant_stability(
            tuple(range(action.space.n)), action, target, params,
            mass_cap=2.0, seed=8800 + k, samples=2,
        )
        assert result["ok"], result
        equivariant += 1
    assert equivariant == 50
    report("criterion 8 PASS: stability bound on 100 map triples and 50 equivariant triples")


def test_criterion_9_c_transform_properties():
    rng = random.Random(85)
    for _ in range(200):
        space = random_int_metric(rng, rng.randint(2, 6))
        params = random_params(rng, p=1)
        a, b = params.a, params.b
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)

        # a random feasible pair: phi2 free in [-a, a], phi1 shrunk to fit
        phi2 = tuple(a * Fraction(rng.randint(-8, 8), 8) for _ in range(space.n))
        phi1 = tuple(
            min(
                a * Fraction(rng.randint(-8, 8), 8),
                min(b * space.dist[i][j] - phi2[j] for j in range(space.n)),
            )
            for i in range(space.n)
        )
        base = DualPotentials(phi1=phi1, phi2=phi2, params=params)
        feasible, objective = evaluate_dual(base, mu, nu)
        assert feasible

        out1 = c_transform(space, phi2, params)
        out2 = c_transform(space, out1, params)
        improved = DualPotentials(phi1=out1, phi2=out2, params=params)
        feasible2, objective2 = evaluate_dual(improved, mu, nu)
        assert feasible2
        assert objective2 >= objective

        for out in (out1, out2):
            assert all(-a <= v <= a for v in out)
            for i in range(space.n):
                for j in range(space.n):
                    assert abs(out[i] - out[j]) <= b * space.dist[i][j]

        # double transform negates b-Lipschitz inputs, exactly in exact mode
        assert out2 == tuple(-v for v in out1)
        assert c_transform(space, out2, params) == tuple(-v for v in out2)
    report("criterion 9 PASS: c-transform feasibility, monotonicity, and negation identity on 200 pairs")
