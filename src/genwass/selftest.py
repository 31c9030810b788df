"""Seeded instance generators and the self-check suite.

The generators here feed both the CLI ``selftest`` subcommand and the
acceptance test suite: random integer metrics (closed under shortest paths,
so the triangle inequality holds by construction), random exact measures,
spaces carrying finite isometric group actions, and perturbed maps with a
small Gromov-Hausdorff defect.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .duality import DualPotentials, c_transform, evaluate_dual, solve_flat
from .gh import GHMap, check_pushforward_stability, make_gh_map
from .measures import DiscreteMeasure, measure, symmetrize
from .oracle import brute_force_value
from .params import EntropyParams
from .quotient import check_quotient_isometry
from .scalars import CERTIFY_TOL
from .solver_w1 import solve_w1
from .solver_wp import solve
from .spaces import FiniteGroupAction, FiniteMetricSpace, compose, validate_action, validate_metric

AB_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(2))
P_CHOICES = (1, 2, 3)
# Instances per check of run_selftest; the group and GH checks run a half and a quarter of it.
INSTANCES = 40


# ---------------------------------------------------------------- generators

def random_int_metric(rng: random.Random, n: int, max_d: int = 5) -> FiniteMetricSpace:
    """Random integer distances in [1, max_d], shortest-path closed."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_d)
    _close(d)
    labels = [f"x{i}" for i in range(n)]
    return validate_metric(labels, d, exact=True)


def _close(d) -> None:
    """Shortest-path closure in place (Floyd-Warshall): afterwards the
    square matrix d satisfies the triangle inequality."""
    n = len(d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via


def random_int_measure(rng: random.Random, space: FiniteMetricSpace, max_w: int = 3) -> DiscreteMeasure:
    return measure(space, [rng.randint(0, max_w) for _ in range(space.n)])


def random_rational_measure(rng: random.Random, space: FiniteMetricSpace) -> DiscreteMeasure:
    """Weights k / q with k in 0..6 and q in {1, 2, 4}."""
    return measure(space, [Fraction(rng.randint(0, 6), rng.choice((1, 2, 4))) for _ in range(space.n)])


def random_params(rng: random.Random, p=None) -> EntropyParams:
    return EntropyParams(
        a=rng.choice(AB_CHOICES), b=rng.choice(AB_CHOICES), p=p if p is not None else rng.choice(P_CHOICES)
    )


def cycle_space(k: int, scale=Fraction(1)) -> FiniteMetricSpace:
    d = [[scale * min(abs(i - j), k - abs(i - j)) for j in range(k)] for i in range(k)]
    return validate_metric([f"c{i}" for i in range(k)], d, exact=True)


def random_space_with_action(rng: random.Random) -> FiniteGroupAction:
    """A space together with a nontrivial isometric action (group order <= 6,
    at most 8 points): cycles with rotations, mirror-symmetric chains,
    base-times-cycle products, and the full symmetric group on an
    equilateral triangle."""
    family = rng.choice(("cycle", "dihedral", "mirror", "product", "equilateral"))
    scale = Fraction(rng.randint(1, 3), rng.choice((1, 2)))

    if family in ("cycle", "dihedral"):
        k = rng.randint(3, 6) if family == "cycle" else 3  # dihedral order 2k = 6 stays within the cap
        generators = [tuple((i + 1) % k for i in range(k))]
        if family == "dihedral":
            generators.append(tuple((-i) % k for i in range(k)))
        return validate_action(cycle_space(k, scale), _closure(*generators))

    if family == "mirror":
        r = rng.randint(1, 3)
        coords = sorted(rng.sample(range(1, 7), r))
        pts = [-c for c in reversed(coords)] + ([0] if rng.random() < 0.5 else []) + coords
        n = len(pts)
        d = [[scale * abs(pts[i] - pts[j]) for j in range(n)] for i in range(n)]
        space = validate_metric([str(p) for p in pts], d, exact=True)
        return validate_action(space, _closure(tuple(pts.index(-pts[i]) for i in range(n))))

    if family == "product":
        m = rng.randint(2, 4)
        k = rng.choice((2, 3)) if m <= 2 else 2
        base = random_int_metric(rng, m)
        cyc = cycle_space(k, scale)
        n = m * k
        labels = [f"{base.labels[u]}@{i}" for u in range(m) for i in range(k)]
        d = [[0] * n for _ in range(n)]
        for u in range(m):
            for i in range(k):
                for v in range(m):
                    for j in range(k):
                        d[u * k + i][v * k + j] = base.dist[u][v] + cyc.dist[i][j]
        space = validate_metric(labels, d, exact=True)
        return validate_action(space, _closure(tuple(u * k + (i + 1) % k for u in range(m) for i in range(k))))

    # equilateral: S3 acting on three equidistant points
    d = [[0 if i == j else scale for j in range(3)] for i in range(3)]
    space = validate_metric(["t0", "t1", "t2"], d, exact=True)
    return validate_action(space, _closure((1, 2, 0), (1, 0, 2)))


def _closure(*generators) -> list[tuple[int, ...]]:
    """The permutation group the generators generate, in sorted order."""
    group = {tuple(range(len(generators[0])))}
    frontier = list(generators)
    while frontier:
        g = frontier.pop()
        if g not in group:
            group.add(g)
            frontier += [compose(g, h) for h in generators]
    return sorted(group)


def _perturbed(rng: random.Random, space: FiniteMetricSpace, top: float) -> list[list[float]]:
    """The float distances of space, each pair moved by at most mag = diam * U(0.02, top)
    and kept at least mag / 4, then re-closed to restore the triangle inequality."""
    n = space.n
    mag = float(space.diameter) * rng.uniform(0.02, top)
    d = [list(row) for row in space.dist]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = max(d[i][j] + rng.uniform(-mag, mag), mag / 4)
    _close(d)
    return d


def random_gh_triple(rng: random.Random) -> GHMap:
    """A (source, target, map) triple whose defect is at most half the
    source diameter: either a perturbed bijection or a point-merging map."""
    n = rng.randint(2, 6)
    source = random_int_metric(rng, n, max_d=6).as_float()
    diam = float(source.diameter)

    if rng.random() < 0.5:
        target = validate_metric([f"y{i}" for i in range(n)], _perturbed(rng, source, 0.2), exact=False)
        return make_gh_map(tuple(range(n)), source, target)

    # merge points into nearby representatives; only points within a fifth of
    # the diameter may collapse, keeping the defect under half the diameter
    order = list(range(n))
    rng.shuffle(order)
    reps: list[int] = []
    for i in order:
        if not any(source.dist[i][r] <= diam / 5 for r in reps):
            reps.append(i)
    reps.sort()
    table = tuple(reps.index(min(reps, key=lambda r: source.dist[i][r])) for i in range(n))
    d = [[source.dist[a][b] for b in reps] for a in reps]
    target = validate_metric([f"y{r}" for r in reps], d, exact=False)
    return make_gh_map(table, source, target)


def random_equivariant_target(
    rng: random.Random, action: FiniteGroupAction
) -> FiniteGroupAction:
    """A float copy of the action's space with an invariant metric
    perturbation: the same permutations act isometrically on the target."""
    space = action.space.as_float()
    n = space.n
    d = _perturbed(rng, space, 0.15)
    # group-average so every element acts isometrically again
    avg = [[0.0] * n for _ in range(n)]
    for g in action.elements:
        for i in range(n):
            for j in range(n):
                avg[i][j] += d[g[i]][g[j]]
    order = len(action.elements)
    for i in range(n):
        for j in range(n):
            avg[i][j] /= order
    target = validate_metric([f"y{i}" for i in range(n)], avg, exact=False)
    return validate_action(target, action.elements, labels=action.labels)


# -------------------------------------------------------------------- checks

def run_selftest(seed: int = 0) -> tuple[bool, list[str]]:
    """Quick version of the verification suites; returns (ok, report lines)."""
    lines = []
    ok = True

    def record(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{name}: {'pass' if passed else 'FAIL'}{' ' + detail if detail else ''}")

    rng = random.Random(seed)
    bad = _oracle_disagreements(rng, 1, 3, INSTANCES)
    record("oracle agreement", bad == 0, f"({INSTANCES} instances)")

    bad = 0
    flat_bad = 0
    for _ in range(INSTANCES):
        space = random_int_metric(rng, rng.randint(1, 6))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = random_params(rng, p=1)
        report = solve_w1(space, mu, nu, params)
        if report.duality_gap != 0 or not report.conditions.passed:
            bad += 1
        flat_value, _ = solve_flat(space, mu, nu, params)
        if flat_value != report.value:
            flat_bad += 1
    record("zero duality gap + certificate", bad == 0, f"({INSTANCES} instances)")
    record("flat metric equality", flat_bad == 0, f"({INSTANCES} instances)")

    bad = 0
    for _ in range(INSTANCES // 2):
        action = random_space_with_action(rng)
        space = action.space
        params = random_params(rng, p=rng.choice((1, 2)))
        mu = symmetrize(action, random_rational_measure(rng, space))
        nu = symmetrize(action, random_rational_measure(rng, space))
        up, down = check_quotient_isometry(action, mu, nu, params)
        tol = 0 if params.p == 1 else CERTIFY_TOL * (1.0 + abs(float(up)))
        if abs(up - down) > tol:
            bad += 1
    record("quotient isometry", bad == 0)

    bad = 0
    for k in range(INSTANCES // 4):
        ghmap = random_gh_triple(rng)
        params = EntropyParams(a=rng.choice((0.5, 1.0)), b=rng.choice((0.5, 1.0)), p=rng.choice((1, 2)))
        result = check_pushforward_stability(ghmap, params, mass_cap=2.0, seed=seed * 1000 + k, samples=2)
        if not (result["deviation_ok"] and result["surjectivity_ok"]):
            bad += 1
    record("pushforward stability", bad == 0)

    bad = 0
    for _ in range(INSTANCES):
        space = random_int_metric(rng, rng.randint(2, 5))
        params = random_params(rng, p=1)
        a = params.a
        phi2 = tuple(Fraction(rng.randint(-4, 4), 4) * a for _ in range(space.n))
        phi1 = c_transform(space, phi2, params)
        pair_obj = _dual_objective_pair(space, phi1, phi2, params, rng)
        if not pair_obj:
            bad += 1
    record("c-transform properties", bad == 0, f"({INSTANCES} instances)")

    bad = _oracle_disagreements(rng, 4, 5, INSTANCES)
    record("oracle agreement (n 4-5)", bad == 0, f"({INSTANCES} instances)")

    return ok, lines


def _oracle_disagreements(rng: random.Random, low: int, high: int, count: int) -> int:
    """How many of count random integer instances on low..high points solve off the oracle's value."""
    bad = 0
    for _ in range(count):
        space = random_int_metric(rng, rng.randint(low, high))
        mu = random_int_measure(rng, space)
        nu = random_int_measure(rng, space)
        params = random_params(rng)
        expected = brute_force_value(space, mu, nu, params)
        got = solve(space, mu, nu, params).value
        tol = 0 if params.p == 1 else CERTIFY_TOL * (1.0 + abs(float(expected)))
        if abs(got - expected) > tol:
            bad += 1
    return bad


def _dual_objective_pair(space, phi1, phi2, params, rng) -> bool:
    mu = random_rational_measure(rng, space)
    nu = random_rational_measure(rng, space)
    base = DualPotentials(phi1=phi1, phi2=phi2, params=params)
    feas, obj = evaluate_dual(base, mu, nu)
    if not feas:
        return False
    phi1_t = c_transform(space, phi2, params)
    phi2_t = c_transform(space, phi1_t, params)
    improved = DualPotentials(phi1=phi1_t, phi2=phi2_t, params=params)
    feas2, obj2 = evaluate_dual(improved, mu, nu)
    if not feas2 or obj2 < obj:
        return False
    # double transform of a b-Lipschitz input is pointwise negation
    again = c_transform(space, phi1_t, params)
    return all(x == -y for x, y in zip(again, phi1_t))
