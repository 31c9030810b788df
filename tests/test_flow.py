"""Engine-level checks of the successive-shortest-path transport solver."""

import functools
import random
from fractions import Fraction
from itertools import chain, repeat
from operator import lt, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genwass import EntropyParams, flow, parametric_transport_curve, solve_w1
from genwass.errors import SolverFailure
from genwass.flow import MAX_PHASES, FlowSolution, _successive_shortest_paths, solve_transport
from genwass.scalars import INF, dense
from genwass.scalars import ROUNDING_TOL as MASS_RTOL
from genwass.selftest import random_int_metric, random_rational_measure
from genwass.solver_wp import ParametricCurve, solve_wp
from reference import l1_metric, wide_metric

FIELDS = ("support", "breakpoints", "potentials")


def engine(costs, supplies, demands, target, rate=None) -> FlowSolution:
    """The bipartite engine run directly, in the inputs' own scalar type: its
    zero is the sum of 0 times each input (a float sum of the inputs could
    overflow to inf)."""
    zero = sum(map(mul, repeat(0), chain(supplies, demands, *costs)))
    return _successive_shortest_paths(costs, supplies, demands, target, rate, zero)


def as_fractions(sol) -> FlowSolution:
    """An all-int solution with every scalar made a Fraction, as
    solve_transport gives it on all-int inputs."""
    return FlowSolution(
        support=tuple((i, j, Fraction(x)) for i, j, x in sol.support),
        breakpoints=[(Fraction(m), Fraction(t)) for m, t in sol.breakpoints],
        potentials=list(map(Fraction, sol.potentials)),
    )


def reference_transport(costs, supplies, demands, target, every=False) -> FlowSolution:
    """The bipartite engine with one branch per arc kind: a virtual source
    arc, a virtual sink arc, a transport arc, or its residual push-back.

    It runs Dijkstra and the potential update in every phase, and returns
    the potentials of the last one.  It records a curve point where Dijkstra
    raises the path cost (dist[T] > 0) and one at the end, a point of the
    mass of the last in its place; with ``every``, one point after every
    augmentation instead, collinear and float repeated masses included."""
    ns, nt = len(supplies), len(demands)
    max_total = min(sum(supplies), sum(demands))
    if target is None:
        target = max_total
    elif target > max_total:
        raise ValueError("target flow exceeds what supplies/demands allow")

    # a zero of the inputs' scalar type; their float sum could overflow to inf
    zero = sum(0 * x for x in (*supplies, *demands, *(c for row in costs for c in row)))
    # node ids: 0 = source, 1..ns supplies, ns+1..ns+nt demands, last = sink
    S, T = 0, ns + nt + 1
    nn = ns + nt + 2
    pot = [zero] * nn

    flow = [[zero] * nt for _ in range(ns)]
    used_src = [zero] * ns
    used_snk = [zero] * nt

    pushed = zero
    cost_acc = zero
    breakpoints = [(pushed, cost_acc)]

    def record(point):
        if breakpoints[-1][0] == point[0]:
            breakpoints.pop()
        breakpoints.append(point)

    for _phase in range(MAX_PHASES):
        if pushed >= target:
            break
        dist, parent = reference_dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt)
        if dist[T] == INF:
            break
        if dist[T] > 0 and not every:
            record((pushed, cost_acc))

        # walk the parent chain to find the bottleneck
        bottleneck = None
        v = T
        while v != S:
            u, kind, i, j = parent[v]
            if kind == "src":
                room = supplies[i] - used_src[i]
            elif kind == "snk":
                room = demands[j] - used_snk[j]
            elif kind == "fwd":
                room = None  # uncapacitated
            else:  # "bwd"
                room = flow[i][j]
            if room is not None and (bottleneck is None or room < bottleneck):
                bottleneck = room
            v = u
        remaining = target - pushed
        if bottleneck is None or remaining < bottleneck:
            bottleneck = remaining

        v = T
        while v != S:
            u, kind, i, j = parent[v]
            if kind == "src":
                used_src[i] += bottleneck
            elif kind == "snk":
                used_snk[j] += bottleneck
            elif kind == "fwd":
                flow[i][j] += bottleneck
                cost_acc += costs[i][j] * bottleneck
            else:
                flow[i][j] -= bottleneck
                cost_acc -= costs[i][j] * bottleneck
            v = u

        pushed += bottleneck
        if every:
            breakpoints.append((pushed, cost_acc))

        reference_update_potentials(pot, dist, T)
    else:
        raise SolverFailure(f"flow solver exceeded the phase cap of {MAX_PHASES}")
    if not every:
        record((pushed, cost_acc))

    return FlowSolution(
        support=tuple((i, j, x) for i, row in enumerate(flow) for j, x in enumerate(row) if x),
        breakpoints=breakpoints,
        potentials=pot[1 : ns + nt + 1],
    )


def reference_dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt):
    """Linear-scan Dijkstra on reduced costs, smallest index first on ties,
    stopping once the sink (the last index) is settled."""
    S, T = 0, ns + nt + 1
    nn = ns + nt + 2
    dist = [INF] * nn
    parent = [None] * nn
    dist[S] = 0 * pot[0]
    done = [False] * nn

    def relax(u, v, c, tag, i, j):
        rc = c + pot[u] - pot[v]
        if rc < 0:
            rc = 0  # float-mode rounding guard; exact mode never goes negative
        nd = dist[u] + rc
        if nd < dist[v]:
            dist[v] = nd
            parent[v] = (u, tag, i, j)

    for _ in range(nn):
        u = -1
        best = INF
        for v in range(nn):
            if not done[v] and dist[v] < best:
                best = dist[v]
                u = v
        if u < 0 or u == T:
            break
        done[u] = True
        if u == S:
            for i in range(ns):
                if used_src[i] < supplies[i]:
                    relax(S, 1 + i, 0, "src", i, -1)
        elif 1 <= u <= ns:
            i = u - 1
            for j in range(nt):
                relax(u, ns + 1 + j, costs[i][j], "fwd", i, j)
        else:  # a demand node
            j = u - ns - 1
            if used_snk[j] < demands[j]:
                relax(u, T, 0, "snk", -1, j)
            for i in range(ns):
                if flow[i][j] > 0:
                    relax(u, 1 + i, -costs[i][j], "bwd", i, j)
    return dist, parent


def reference_update_potentials(pot, dist, T):
    # pot[v] += min(dist[v], dist[T]) keeps all residual reduced costs
    # nonnegative, also for nodes the last search did not reach or settle;
    # it runs only after a search that reached T.
    cap = dist[T]
    for v, d in enumerate(dist):
        pot[v] += d if d < cap else cap


def rationals(max_num):
    return st.builds(Fraction, st.integers(0, max_num), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def transport_problems(draw):
    ns, nt = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    costs = [[draw(rationals(12)) for _ in range(nt)] for _ in range(ns)]
    supplies = [draw(rationals(6)) for _ in range(ns)]
    demands = [draw(rationals(6)) for _ in range(nt)]
    return costs, supplies, demands


def scalars_of(value):
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from scalars_of(item)
    elif value is not None:
        yield value


def scalars_of_field(sol, field):
    """The scalars of one field of a FlowSolution: of the support, its
    values, not its indices."""
    value = getattr(sol, field)
    return list(scalars_of([x for _, _, x in value] if field == "support" else value))


def test_single_arc():
    sol = solve_transport([[Fraction(3)]], [Fraction(1)], [Fraction(1)])
    assert sol.breakpoints == [(0, 0), (1, 3)]


def test_target_above_the_maximum_is_rejected():
    with pytest.raises(ValueError, match="target flow exceeds what supplies/demands allow"):
        solve_transport([[1]], [1], [2], target=2)


def test_cheaper_arc_ships_first():
    costs = [[Fraction(1)], [Fraction(2)]]
    sol = solve_transport(costs, [Fraction(1), Fraction(1)], [Fraction(2)])
    assert sol.breakpoints == [(0, 0), (1, 1), (2, 3)]
    assert sol.support == ((0, 0, 1), (1, 0, 1))


def test_rerouting_through_residual_arcs():
    # classic detour: greedy fills the diagonal, optimality requires push-back
    costs = [
        [Fraction(1), Fraction(10)],
        [Fraction(2), Fraction(1)],
    ]
    sol = solve_transport(costs, [Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)])
    assert sol.breakpoints[-1] == (2, min(1 + 1, 10 + 2))


def test_potentials_are_feasible_duals():
    rng = random.Random(5)
    for _ in range(40):
        ns, nt = rng.randint(1, 4), rng.randint(1, 4)
        costs = [[Fraction(rng.randint(0, 9)) for _ in range(nt)] for _ in range(ns)]
        supplies = [Fraction(rng.randint(0, 3)) for _ in range(ns)]
        demands = [Fraction(rng.randint(0, 3)) for _ in range(nt)]
        sol = solve_transport(costs, supplies, demands)
        gamma = dense(sol.support, ns, nt, 0)
        for i in range(ns):
            for j in range(nt):
                red = costs[i][j] + sol.potentials[i] - sol.potentials[ns + j]
                assert red >= 0
                if gamma[i][j] > 0:
                    assert red == 0


def test_curve_slopes_nondecreasing():
    rng = random.Random(11)
    for _ in range(40):
        ns, nt = rng.randint(1, 4), rng.randint(1, 4)
        costs = [[Fraction(rng.randint(0, 9)) for _ in range(nt)] for _ in range(ns)]
        supplies = [Fraction(rng.randint(0, 3)) for _ in range(ns)]
        demands = [Fraction(rng.randint(0, 3)) for _ in range(nt)]
        sol = solve_transport(costs, supplies, demands)
        prev = None
        for (m0, t0), (m1, t1) in zip(sol.breakpoints, sol.breakpoints[1:]):
            slope = (t1 - t0) / (m1 - m0)
            if prev is not None:
                assert slope >= prev
            prev = slope
        assert sol.breakpoints[-1][0] == min(sum(supplies), sum(demands))


def test_each_prefix_is_min_cost_at_its_mass():
    # brute-force cross-check: T(m) at every integer mass, read off the
    # curve's vertices, equals the cheapest integer plan of that total mass
    rng = random.Random(3)
    for _ in range(20):
        ns, nt = rng.randint(1, 3), rng.randint(1, 3)
        costs = [[Fraction(rng.randint(0, 6)) for _ in range(nt)] for _ in range(ns)]
        supplies = [Fraction(rng.randint(0, 2)) for _ in range(ns)]
        demands = [Fraction(rng.randint(0, 2)) for _ in range(nt)]
        sol = solve_transport(costs, supplies, demands)

        def best_at(mass):
            best = None
            cells = [(i, j) for i in range(ns) for j in range(nt)]

            def rec(k, shipped, cost):
                nonlocal best
                if shipped == mass:
                    if best is None or cost < best:
                        best = cost
                    return
                if k == len(cells):
                    return
                i, j = cells[k]
                row = sum(plan[i][jj] for jj in range(nt))
                col = sum(plan[ii][j] for ii in range(ns))
                top = min(supplies[i] - row, demands[j] - col, mass - shipped)
                v = 0
                while v <= top:
                    plan[i][j] = v
                    rec(k + 1, shipped + v, cost + costs[i][j] * v)
                    v += 1
                plan[i][j] = 0

            plan = [[0] * nt for _ in range(ns)]
            rec(0, 0, Fraction(0))
            return best

        curve = ParametricCurve(tuple(sol.breakpoints))
        for m in range(int(sol.breakpoints[-1][0]) + 1):
            assert best_at(m) == curve.value_at(m)


@given(transport_problems(), st.integers(0, 7), st.sampled_from((None, 6, 7)))
def test_scaled_exact_path_equals_fraction_engine(problem, num, den):
    # mixed denominators force a nontrivial scale; the target, when given,
    # is a fraction of the most that fits, with a denominator of its own
    costs, supplies, demands = problem
    target = None if den is None else min(sum(supplies), sum(demands)) * Fraction(min(num, den), den)
    got = solve_transport(costs, supplies, demands, target=target)
    want = engine(costs, supplies, demands, target)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), field
        assert all(type(x) is Fraction for x in scalars_of_field(got, field)), field


def test_float_inputs_run_the_engine_directly():
    costs = [[1.5, 0.25, 3.0], [2.0, 1.0, 0.1]]
    supplies, demands = [0.5, 1.0], [1.0, 0.75, 0.2]
    got = solve_transport(costs, supplies, demands, target=1.2)
    assert got == engine(costs, supplies, demands, 1.2)
    for field in FIELDS:
        assert all(type(x) is float for x in scalars_of_field(got, field)), field


def run_checking_the_last_vertex(stop, costs, supplies, demands, target, rate, **unit) -> FlowSolution:
    """solve_transport stopped as ``stop`` names ("none", "target" or
    "rate"), after checking that the curve's last vertex is the support's
    mass and its cost."""
    kwargs = {"target": target} if stop == "target" else {"rate": rate} if stop == "rate" else {}
    sol = solve_transport(costs, supplies, demands, **kwargs, **unit)
    mass, cost = sol.breakpoints[-1]
    assert mass == sum(x for _, _, x in sol.support)
    assert cost == sum(costs[i][j] * x for i, j, x in sol.support) / unit.get("cost_unit", 1)
    return sol


def over(values, den):
    return [Fraction(x, den) for x in values]


@pytest.mark.parametrize("stop", ["none", "target", "rate"])
def test_exact_inputs_give_fractions_and_float_inputs_floats(stop):
    # one seeded problem of ints C, S, D, target t and rate r, run as they
    # are, and over units u for the costs and 2 for the masses: as Fractions,
    # as int costs with cost_unit=u, and as floats, dyadic so that float sums
    # are exact.  Every exact run gives Fractions in every field and equals
    # the run on the same values as Fractions; the float run gives floats of
    # the same values
    rng = random.Random(3401)
    run = functools.partial(run_checking_the_last_vertex, stop)
    for _ in range(25):
        ns, nt, u = rng.randint(1, 5), rng.randint(1, 5), rng.choice((1, 2, 4))
        C = [[rng.randint(0, 9) for _ in range(nt)] for _ in range(ns)]
        S, D = [rng.randint(0, 6) for _ in range(ns)], [rng.randint(0, 6) for _ in range(nt)]
        t, r = min(sum(S), sum(D)) * rng.randint(0, 4) // 4, rng.randint(0, 12)
        ints = run(C, S, D, t, r)
        assert_same_solution(ints, run([over(row, 1) for row in C], over(S, 1), over(D, 1), t, r))
        scaled = run([over(row, u) for row in C], over(S, 2), over(D, 2), Fraction(t, 2), Fraction(r, u))
        assert_same_solution(run(C, over(S, 2), over(D, 2), Fraction(t, 2), r, cost_unit=u), scaled)
        floats = run([[c / u for c in row] for row in C], [s / 2 for s in S], [d / 2 for d in D], t / 2, r / u)
        for field in FIELDS:
            for sol, kind in ((ints, Fraction), (scaled, Fraction), (floats, float)):
                assert {type(x) for x in scalars_of_field(sol, field)} <= {kind}, field
            assert scalars_of_field(floats, field) == scalars_of_field(scaled, field), field


def assert_same_solution(got, want):
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), field
        assert list(map(type, scalars_of_field(got, field))) == list(map(type, scalars_of_field(want, field))), field


@st.composite
def tie_heavy_problems(draw):
    # costs 0-3 make many equal-distance nodes, so the smallest-index
    # tie-break decides most paths; masses may be zero
    kind = draw(st.sampled_from(("int", "fraction", "float")))
    den = {"int": st.just(1), "fraction": st.sampled_from((1, 2, 3)), "float": st.sampled_from((1, 3, 7))}[kind]
    scalar = {"int": lambda k, d: k, "fraction": Fraction, "float": lambda k, d: k / d}[kind]
    ns, nt = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    costs = [[scalar(draw(st.integers(0, 3)), 1) for _ in range(nt)] for _ in range(ns)]
    supplies = [scalar(draw(st.integers(0, 4)), draw(den)) for _ in range(ns)]
    demands = [scalar(draw(st.integers(0, 4)), draw(den)) for _ in range(nt)]
    target = None
    if draw(st.booleans()):
        most = min(sum(supplies), sum(demands))
        k = draw(st.integers(0, 4))
        target = {"int": most * k // 4, "fraction": most * Fraction(k, 4), "float": most * k / 4}[kind]
    return costs, supplies, demands, target


@given(tie_heavy_problems())
@example(([[0, 0], [0, 0]], [1, 1], [1, 1], None))
@example(([[1, 0], [0, 1]], [1, 0], [0, 1], 0))
def test_engine_matches_reference(problem):
    # the engine keeps the inputs' kind; solve_transport gives Fractions for ints
    costs, supplies, demands, target = problem
    want = reference_transport(costs, supplies, demands, target)
    assert_same_solution(engine(costs, supplies, demands, target), want)
    ints = all(type(x) is int for x in scalars_of(problem))
    assert_same_solution(solve_transport(costs, supplies, demands, target=target), as_fractions(want) if ints else want)


def test_transport_arc_reused_past_float_range():
    # the third path pushes through a transport arc whose scaled flow is past
    # float range, so its residual room must not be computed against inf
    huge = Fraction(10**308)
    costs = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(5)]]
    supplies, demands = [Fraction(1, 3), huge + 2], [huge, Fraction(1)]
    sol = solve_transport(costs, supplies, demands)
    assert sol == reference_transport(costs, supplies, demands, None)
    assert sol.breakpoints[-1] == (huge + 1, Fraction(11, 3))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from((3, 7, 10, 11)),
    st.data(),
)
def test_float_instances_finish_with_all_the_mass(n, seed, den, data):
    # non-dyadic weights k/den round at every push; the engine raises
    # SolverFailure past MAX_PHASES, so returning is the termination check
    space = random_int_metric(random.Random(seed), n, max_d=9)
    costs = [[float(d) for d in row] for row in space.dist]
    weights = st.lists(st.integers(0, 3 * den), min_size=n, max_size=n)
    mu = [k / den for k in data.draw(weights)]
    nu = [k / den for k in data.draw(weights)]
    sol = solve_transport(costs, mu, nu)
    most = min(sum(mu), sum(nu))
    assert len(sol.breakpoints) - 1 < MAX_PHASES
    assert abs(sol.breakpoints[-1][0] - most) <= MASS_RTOL * (1.0 + most)


def test_mixed_scalar_instances_finish(monkeypatch):
    # entries drawn from ints, k/den Fractions and floats; run on mixed
    # scalars, 73 of these 200 spun past 3000 phases, on floats none does
    monkeypatch.setattr(flow, "MAX_PHASES", 3000)
    rng = random.Random(9)

    def scalar(top):
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(0, top)
        if kind == 1:
            return Fraction(rng.randint(0, 3 * top), rng.choice((2, 3, 7)))
        return rng.uniform(0, top)

    for _ in range(200):
        ns, nt = rng.randint(1, 6), rng.randint(1, 6)
        costs = [[scalar(9) for _ in range(nt)] for _ in range(ns)]
        supplies, demands = [scalar(3) for _ in range(ns)], [scalar(3) for _ in range(nt)]
        sol = solve_transport(costs, supplies, demands)
        most = float(min(sum(supplies), sum(demands)))
        assert abs(sol.breakpoints[-1][0] - most) <= 1e-9 * most


SCALARS = {"int": lambda k, d: k // d, "fraction": Fraction, "float": lambda k, d: k / d}


def problems_on(kind, rng, dists):
    """Transport problems on each distance matrix of ``dists``, drawn in
    turn: costs d^p for each p, random masses of ``kind``, with and without
    a target."""
    scalar = SCALARS[kind]
    problems = []
    for dist in dists:
        n = len(dist)
        for p in (1, 2):
            costs = [[scalar(int(d) ** p, 1) for d in row] for row in dist]
            supplies = [scalar(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(n)]
            demands = [scalar(rng.randint(0, 12), rng.choice((1, 2, 5))) for _ in range(n)]
            most = min(sum(supplies), sum(demands))
            for target in (None, scalar(most * 2, 3) if kind != "float" else most * 2 / 3):
                problems.append((costs, supplies, demands, target))
    return problems


def closed_metric_problems(kind, max_d):
    # closed metrics with few distinct distances give long runs of equal path costs
    rng = random.Random(max_d)
    return problems_on(kind, rng, (random_int_metric(rng, n, max_d=max_d).dist for n in (8, 16, 24, 32)))


def wide_metric_problems(kind):
    # l1 distances of points in {0..1000}^2 and closed metrics with edges up
    # to 10**6 have many distinct distances, so most path costs rise
    rng = random.Random(48)
    dists = []
    for n in (12, 24, 48):
        points = [(rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(n)]
        dists.append([[abs(x - u) + abs(y - v) for u, v in points] for x, y in points])
        dists.append(random_int_metric(rng, n, max_d=10**6).dist)
    return problems_on(kind, rng, dists)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
@pytest.mark.parametrize("max_d", [2, 3, 5])
def test_zero_path_reuse_matches_dijkstra_every_phase(monkeypatch, kind, max_d):
    # the same solves with the zero-cost search always failing run Dijkstra
    # and the potential update in every phase
    problems = closed_metric_problems(kind, max_d)
    reused = [solve_transport(*problem) for problem in problems]
    monkeypatch.setattr(flow, "_zero_path", lambda *args: None)
    for problem, got in zip(problems, reused):
        assert_same_solution(got, solve_transport(*problem))


def skeleton_problems(kind):
    """Exact p = 1 problems on the skeleton network, as positional arguments
    of solve_transport: the distances of closed, l1 and wide metrics as
    costs, random masses of ``kind``, and each with no stop, a target, a rate
    that leaves pairs out, and a rate that keeps them all."""
    scalar = SCALARS[kind]
    rng = random.Random(3013)
    spaces = [random_int_metric(rng, n, max_d=max_d) for max_d in (2, 5) for n in (8, 24)]
    spaces += [l1_metric(rng, n) for n in (12, 32)] + [wide_metric(rng, n) for n in (12, 24)]
    problems = []
    for space in spaces:
        n = space.n
        costs = [[int(d) for d in row] for row in space.dist]
        supplies = [scalar(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(n)]
        demands = [scalar(rng.randint(0, 12), rng.choice((1, 2, 5))) for _ in range(n)]
        most, diameter = min(sum(supplies), sum(demands)), max(map(max, costs))
        for target, rate in ((None, None), (scalar(most * 2, 3), None), (None, diameter // 2), (None, 2 * diameter)):
            problems.append((costs, supplies, demands, target, None, rate, space._irreducible))
    return problems


def recording(zero_path, chains, fresh):
    """``zero_path``, recording each search's chain of arcs from T back to
    the source, or None, and whether it resumed; ``fresh`` starts every
    search from the source."""

    def search(state, zero_arcs, adj, head, *rest):
        resumed = state is not None and not fresh
        state = zero_path(None if fresh else state, zero_arcs, adj, head, *rest)
        chain, v = [], len(adj) - 1
        while state is not None and v:
            chain.append(state[0][v])
            v = head[chain[-1] ^ 1]
        chains.append((resumed, None if state is None else chain))
        return state

    return search


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
@pytest.mark.parametrize("family", ["closed", "wide"])
def test_resumed_search_matches_a_fresh_one(monkeypatch, kind, family):
    # the same solves with every zero-cost search started from the source
    if family == "closed":
        problems = [pb for max_d in (2, 3, 5) for pb in closed_metric_problems(kind, max_d)]
    else:
        problems = wide_metric_problems(kind)
    check_resumed_searches(monkeypatch, problems)


def check_resumed_searches(monkeypatch, problems):
    resumed, fresh, zero_path = [], [], flow._zero_path
    monkeypatch.setattr(flow, "_zero_path", recording(zero_path, resumed, False))
    solved = [solve_transport(*problem) for problem in problems]
    monkeypatch.setattr(flow, "_zero_path", recording(zero_path, fresh, True))
    for problem, got in zip(problems, solved):
        assert_same_solution(got, solve_transport(*problem))
    assert any(was_resumed for was_resumed, _ in resumed)
    assert [chain for _, chain in resumed] == [chain for _, chain in fresh]


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_skeleton_resumed_search_matches_a_fresh_one(monkeypatch, kind):
    # each point lists its arc into T last, so the resume rule holds there too
    check_resumed_searches(monkeypatch, skeleton_problems(kind))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_skeleton_zero_path_reuse_matches_dijkstra_every_phase(monkeypatch, kind):
    problems = skeleton_problems(kind)
    reused = [solve_transport(*problem) for problem in problems]
    monkeypatch.setattr(flow, "_zero_path", lambda *args: None)
    for problem, got in zip(problems, reused):
        assert_same_solution(got, solve_transport(*problem))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_skeleton_flow_matches_the_bipartite_flow(kind):
    # the same mass at the same cost; the plan is the edge flow cut into
    # paths: within the masses, gamma_ii = min(mu_i, nu_i) when nothing stops
    # the run early, and it costs what the flow does; the one potential per
    # point is feasible for every pair and tight where the plan ships
    for costs, supplies, demands, target, _, rate, pairs in skeleton_problems(kind):
        got = solve_transport(costs, supplies, demands, target, rate=rate, pairs=pairs)
        want = solve_transport(costs, supplies, demands, target, rate=rate)
        assert got.breakpoints[-1] == want.breakpoints[-1]
        gamma, pot = dense(got.support, len(supplies), len(demands), 0), got.potentials
        assert got.support == tuple((i, j, x) for i, row in enumerate(gamma) for j, x in enumerate(row) if x)
        assert len(pot) == len(supplies)
        assert all(x >= 0 for row in gamma for x in row)
        assert all(sum(row) <= s for row, s in zip(gamma, supplies))
        assert all(sum(col) <= d for col, d in zip(zip(*gamma), demands))
        mass, cost = got.breakpoints[-1]
        assert sum(map(sum, gamma)) == mass
        assert sum(c * x for c_row, g_row in zip(costs, gamma) for c, x in zip(c_row, g_row)) == cost
        if target is None:
            assert [gamma[i][i] for i in range(len(gamma))] == list(map(min, supplies, demands))
        for i, (c_row, g_row) in enumerate(zip(costs, gamma)):
            for j, (c, x) in enumerate(zip(c_row, g_row)):
                assert pot[j] - pot[i] <= c
                assert not x or pot[j] - pot[i] == c


def scan_dijkstra(adj, head, cap, cost, flow, pot):
    """Linear-scan Dijkstra, the reference for :func:`flow._dijkstra`: each
    step settles the nearest open node, the smallest index on ties, and it
    stops once the sink (the last index) is settled."""
    nn = len(adj)
    T = nn - 1
    dist = [INF] * nn
    parent = [-1] * nn
    dist[0] = 0 * pot[0]
    done = [False] * nn

    for _ in range(nn):
        u = -1
        best = INF
        for v in range(nn):
            if not done[v] and dist[v] < best:
                best = dist[v]
                u = v
        if u < 0 or u == T:
            break
        done[u] = True
        du, pu = dist[u], pot[u]
        for e in adj[u]:
            if flow[e] < cap[e]:
                v = head[e]
                rc = cost[e] + pu - pot[v]
                if rc < 0:
                    rc = 0
                nd = du + rc
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = e
    return dist, parent


def pushes_mass(problem):
    """Whether a run of ``problem`` has a phase: its target, by default the
    most that fits, is positive."""
    costs, supplies, demands, target = problem
    return (min(sum(supplies), sum(demands)) if target is None else target) > 0


@settings(max_examples=150)
@given(tie_heavy_problems().filter(pushes_mass))
@example(([[0, 0], [0, 0]], [1, 1], [1, 1], None))
@example(([[1, 1, 0], [0, 1, 1]], [2, 1], [1, 1, 1], None))
def test_heap_dijkstra_matches_the_scan(problem):
    # Dijkstra runs in every phase, on the residual state the solve reached,
    # so a run with a phase runs it at least once; costs 0-3 give many nodes
    # at equal distance
    dijkstra, states = flow._dijkstra, []

    def compared(*state):
        got, want = dijkstra(*state), scan_dijkstra(*state)
        assert got == want
        assert [type(d) for d in got[0]] == [type(d) for d in want[0]]
        states.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_zero_path", lambda *args: None)
        mp.setattr(flow, "_dijkstra", compared)
        engine(*problem)
    assert states


def test_search_counts_of_a_float_p2_solve(monkeypatch):
    # 127 augmentations at n = 64: 85 searches from the source, 42 resumed,
    # and 3 Dijkstra runs; the curve keeps the start, the 3 points where a
    # Dijkstra run raised the path cost, and the end
    rng = random.Random(6402)
    space = random_int_metric(rng, 64, max_d=9)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    fspace = space.as_float()
    zero_path, dijkstra = flow._zero_path, flow._dijkstra
    counts = {"fresh": 0, "resumed": 0, "dijkstra": 0}
    calls = []

    def search(state, *args):
        counts["fresh" if state is None else "resumed"] += 1
        found = zero_path(state, *args)
        calls.append("search" if found else "failed search")
        return found

    def shortest(*args):
        counts["dijkstra"] += 1
        calls.append("dijkstra")
        return dijkstra(*args)

    monkeypatch.setattr(flow, "_zero_path", search)
    monkeypatch.setattr(flow, "_dijkstra", shortest)
    rep = solve_wp(fspace, mu.as_float(fspace), nu.as_float(fspace), EntropyParams(a=2.0, b=0.5, p=2))
    assert len(rep.curve) == 5
    assert counts == {"fresh": 85, "resumed": 42, "dijkstra": 3}
    # every phase searches first: a Dijkstra run follows a failed search
    assert all(calls[k - 1] == "failed search" for k, call in enumerate(calls) if call == "dijkstra"), calls


def test_dijkstra_runs_only_when_the_path_cost_changes(monkeypatch):
    # 107 augmentations at n = 64 take 3 Dijkstra runs; one per augmentation
    # would show here long before it shows in the Tier-1 wall time
    rng = random.Random(6401)
    space = random_int_metric(rng, 64, max_d=9)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    calls = []
    dijkstra = flow._dijkstra

    def counted(*args):
        calls.append(1)
        return dijkstra(*args)

    monkeypatch.setattr(flow, "_dijkstra", counted)
    rep = solve_w1(space, mu, nu, EntropyParams(a=Fraction(2), b=Fraction(1, 2), p=1))
    assert rep.duality_gap == 0
    assert len(calls) <= 8


def test_a_rate_run_stops_where_a_run_to_its_mass_does(monkeypatch):
    # the flow stopped at a rate is the flow run to the mass of its last
    # augmentation that costs less than the rate: the same flow and
    # breakpoints, no shipped arc of cost >= the rate, and the potentials
    # the run returns put the sink at the rate, in the engine's units, also
    # on a run at rate 0, which updates no potential
    augment = flow._augment
    runs = []

    def run(arcs, T, zero, target, rate):
        flows, breakpoints, pot = augment(arcs, T, zero, target, rate)
        runs.append((rate, pot[T]))
        return flows, breakpoints, pot

    monkeypatch.setattr(flow, "_augment", run)
    rng = random.Random(2601)
    ties = 0
    for n in (1, 2, 3, 5, 8, 13):
        for max_d in (2, 3, 5):
            space = random_int_metric(rng, n, max_d=max_d)
            mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
            costs = [[int(d) for d in row] for row in space.dist]
            supplies, demands = list(mu.weights), list(nu.weights)
            full = solve_transport(costs, supplies, demands).breakpoints
            slopes = [(t1 - t0) / (m1 - m0) for (m0, t0), (m1, t1) in zip(full, full[1:])]
            # each path cost is a rate that ties with every path of that cost
            for rate in sorted({0, *slopes, *(s + Fraction(1, 2) for s in slopes)}):
                stopped = solve_transport(costs, supplies, demands, rate=rate)
                engine_rate, sink = runs[-1]
                reached = solve_transport(costs, supplies, demands, target=full[sum(s < rate for s in slopes)][0])
                assert stopped.support == reached.support and stopped.breakpoints == reached.breakpoints
                assert all(costs[i][j] < rate for i, j, _ in stopped.support)
                assert sink == engine_rate
                ties += rate in slopes
    assert ties == 33  # rates equal to a path cost of the curve


def check_last_phase_potentials(arcs, T, rate, flows, breakpoints, pot):
    """The potentials a run returns, those of its last Dijkstra phase: every
    residual arc has a reduced cost >= 0 and pi_S = 0; pi_T is the rate on a
    rate run, else the slope of the curve's last segment (0 with no
    segment)."""
    assert pot[0] == 0
    for (u, v, c, w), x in zip(arcs, flows):
        assert not x < c or w + pot[u] - pot[v] >= 0  # the arc itself
        assert not x > 0 or pot[v] - w - pot[u] >= 0  # its reverse
    if rate is not None:
        assert pot[T] == rate
    elif len(breakpoints) == 1:
        assert pot[T] == 0
    else:
        (m0, t0), (m1, t1) = breakpoints[-2:]
        assert pot[T] * (m1 - m0) == t1 - t0


def quarters(problem):
    """An int problem as dyadic floats: the costs as they are, the masses
    and the target in quarters, so that every float sum is exact."""
    costs, supplies, demands, target, unit, rate, pairs = problem
    masses = [[m / 4 for m in supplies], [m / 4 for m in demands]]
    return ([list(map(float, row)) for row in costs], *masses, None if target is None else target / 4,
            unit, None if rate is None else float(rate), pairs)


@pytest.mark.parametrize(
    "network, kind",
    [("bipartite", "int"), ("bipartite", "fraction"), ("bipartite", "float"), ("skeleton", "int"),
     ("skeleton", "fraction")],
)
def test_a_run_returns_the_potentials_of_its_last_phase(monkeypatch, network, kind):
    # max-flow, target and rate runs on the skeleton problems, on the network
    # named; the float ones are the int problems in dyadic floats
    augment, checked = flow._augment, []

    def run(arcs, T, zero, target, rate):
        flows, breakpoints, pot = augment(arcs, T, zero, target, rate)
        check_last_phase_potentials(arcs, T, rate, flows, breakpoints, pot)
        checked.append(rate)
        return flows, breakpoints, pot

    monkeypatch.setattr(flow, "_augment", run)
    problems = skeleton_problems("int" if kind == "float" else kind)
    kinds = set()
    for problem in map(quarters, problems) if kind == "float" else problems:
        costs, supplies, demands, target, _, rate, pairs = problem
        solve_transport(costs, supplies, demands, target, rate=rate, pairs=pairs if network == "skeleton" else None)
        kinds.add("rate" if rate is not None else "target" if target is not None else "max-flow")
    assert len(checked) == len(problems) and kinds == {"max-flow", "target", "rate"}


@pytest.mark.parametrize("network", ["bipartite", "skeleton"])
def test_a_scaled_run_divides_each_distinct_value_once(monkeypatch, network):
    # a rate run on rational masses builds one Fraction per distinct flow
    # value on its support, one per potential and two per vertex of its
    # curve, and its result is the one the engine gives on the Fractions
    # themselves
    rng = random.Random(3202)
    space = random_int_metric(rng, 12, max_d=5)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    costs = [[int(d) for d in row] for row in space.dist]
    supplies, demands = list(mu.weights), list(nu.weights)
    pairs = space._irreducible if network == "skeleton" else None
    want = solve_transport(costs, supplies, demands, rate=4, pairs=pairs)
    if pairs is None:
        assert want == engine(costs, supplies, demands, None, 4)
    built = []
    monkeypatch.setattr(flow, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    sol = solve_transport(costs, supplies, demands, rate=4, pairs=pairs)
    distinct = {id(x) for _, _, x in sol.support}
    assert len(built) == len(distinct) + len(sol.potentials) + 2 * len(sol.breakpoints)
    assert sol == want and len(sol.breakpoints) > 2


def vertices(points):
    """The ends of an exact convex list of points and every point off the
    chord of its neighbours, where the slope rises."""
    kept = [(m1, t1) for (m0, t0), (m1, t1), (m2, t2) in zip(points, points[1:], points[2:])
            if (t1 - t0) * (m2 - m1) != (t2 - t1) * (m1 - m0)]
    return points[:1] + kept + points[1:][-1:]


CURVE_FAMILIES = {"closed": lambda rng, n: random_int_metric(rng, n, max_d=3), "wide": wide_metric, "l1": l1_metric}


@pytest.mark.parametrize("family", CURVE_FAMILIES)
def test_each_curve_is_the_vertex_list_of_the_augmentations(family):
    # the reference's list of one point per augmentation, against the curve:
    # in exact mode the curve is its vertex list, its slopes strictly
    # increase, and the skeleton's p = 1 curve is the same list; in floats
    # the curve is a subsequence of it with the same ends, and its masses
    # strictly increase
    rng = random.Random(3301)
    dropped = 0
    for n in (3, 7, 12):
        space = CURVE_FAMILIES[family](rng, n)
        mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
        fspace = space.as_float()
        fmu, fnu = mu.as_float(fspace), nu.as_float(fspace)
        for p in (1, 2, 3):
            curve = list(parametric_transport_curve(space, mu, nu, p).breakpoints)
            costs = [[d**p for d in row] for row in space.dist]
            every = reference_transport(costs, list(mu.weights), list(nu.weights), None, every=True).breakpoints
            assert curve == vertices(every)
            slopes = [(t1 - t0) / (m1 - m0) for (m0, t0), (m1, t1) in zip(curve, curve[1:])]
            assert all(map(lt, slopes, slopes[1:]))
            if p == 1:
                on_skeleton = solve_transport(costs, list(mu.weights), list(nu.weights), pairs=space._irreducible)
                assert on_skeleton.breakpoints == curve
            dropped += len(every) - len(curve)

            curve = list(parametric_transport_curve(fspace, fmu, fnu, p).breakpoints)
            costs = [[d ** float(p) for d in row] for row in fspace.dist]
            every = reference_transport(costs, list(fmu.weights), list(fnu.weights), None, every=True).breakpoints
            rest = iter(every)
            assert (curve[0], curve[-1]) == (every[0], every[-1]) and all(point in rest for point in curve)
            assert all(m0 < m1 for (m0, _), (m1, _) in zip(curve, curve[1:]))
    assert dropped > 0
