"""Engine-level checks of the successive-shortest-path transport solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genwass import flow
from genwass.errors import SolverFailure
from genwass.flow import MAX_PHASES, FlowSolution, _successive_shortest_paths, solve_transport
from genwass.scalars import INF
from genwass.selftest import random_int_metric
from genwass.solver_wp import MASS_RTOL

FIELDS = ("flow", "total", "cost", "breakpoints", "potential_src", "potential_snk")


def reference_transport(costs, supplies, demands, target) -> FlowSolution:
    """The bipartite engine with one branch per arc kind: a virtual source
    arc, a virtual sink arc, a transport arc, or its residual push-back."""
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

    for _phase in range(MAX_PHASES):
        if pushed >= target:
            break
        dist, parent = reference_dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt)
        if dist[T] == INF:
            break

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
        if bottleneck > 0:
            breakpoints.append((pushed, cost_acc))

        reference_update_potentials(pot, dist, T)
    else:
        raise SolverFailure(f"flow solver exceeded the phase cap of {MAX_PHASES}")

    # Final potential refresh so the duals reflect the terminal residual graph.
    dist, _ = reference_dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt)
    reference_update_potentials(pot, dist, T)

    return FlowSolution(
        flow=flow,
        total=pushed,
        cost=cost_acc,
        breakpoints=breakpoints,
        potential_src=pot[1 : ns + 1],
        potential_snk=pot[ns + 1 : ns + nt + 1],
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
    # nonnegative, also for nodes the last search did not reach or settle.
    cap = dist[T]
    if cap == INF:
        finite = [d for d in dist if d != INF]
        cap = max(finite) if finite else 0
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


def test_single_arc():
    sol = solve_transport([[Fraction(3)]], [Fraction(1)], [Fraction(1)])
    assert sol.total == 1
    assert sol.cost == 3
    assert sol.breakpoints == [(0, 0), (1, 3)]


def test_target_above_the_maximum_is_rejected():
    with pytest.raises(ValueError, match="target flow exceeds what supplies/demands allow"):
        solve_transport([[1]], [1], [2], target=2)


def test_cheaper_arc_ships_first():
    costs = [[Fraction(1)], [Fraction(2)]]
    sol = solve_transport(costs, [Fraction(1), Fraction(1)], [Fraction(2)])
    assert sol.breakpoints == [(0, 0), (1, 1), (2, 3)]
    assert sol.flow[0][0] == 1 and sol.flow[1][0] == 1


def test_rerouting_through_residual_arcs():
    # classic detour: greedy fills the diagonal, optimality requires push-back
    costs = [
        [Fraction(1), Fraction(10)],
        [Fraction(2), Fraction(1)],
    ]
    sol = solve_transport(costs, [Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)])
    assert sol.total == 2
    assert sol.cost == min(1 + 1, 10 + 2)


def test_potentials_are_feasible_duals():
    rng = random.Random(5)
    for _ in range(40):
        ns, nt = rng.randint(1, 4), rng.randint(1, 4)
        costs = [[Fraction(rng.randint(0, 9)) for _ in range(nt)] for _ in range(ns)]
        supplies = [Fraction(rng.randint(0, 3)) for _ in range(ns)]
        demands = [Fraction(rng.randint(0, 3)) for _ in range(nt)]
        sol = solve_transport(costs, supplies, demands)
        for i in range(ns):
            for j in range(nt):
                red = costs[i][j] + sol.potential_src[i] - sol.potential_snk[j]
                assert red >= 0
                if sol.flow[i][j] > 0:
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
        assert sol.total == min(sum(supplies), sum(demands))


def test_each_prefix_is_min_cost_at_its_mass():
    # brute-force cross-check: T(m) at each breakpoint equals the cheapest
    # integer plan of that total mass
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

        for m, t in sol.breakpoints:
            if m == int(m):
                assert best_at(int(m)) == t


@given(transport_problems(), st.integers(0, 7), st.sampled_from((None, 6, 7)))
def test_scaled_exact_path_equals_fraction_engine(problem, num, den):
    # mixed denominators force a nontrivial scale; the target, when given,
    # is a fraction of the most that fits, with a denominator of its own
    costs, supplies, demands = problem
    target = None if den is None else min(sum(supplies), sum(demands)) * Fraction(min(num, den), den)
    got = solve_transport(costs, supplies, demands, target=target)
    want = _successive_shortest_paths(costs, supplies, demands, target)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), field
        assert all(type(x) is Fraction for x in scalars_of(getattr(got, field))), field


def test_float_inputs_run_the_engine_directly():
    costs = [[1.5, 0.25, 3.0], [2.0, 1.0, 0.1]]
    supplies, demands = [0.5, 1.0], [1.0, 0.75, 0.2]
    got = solve_transport(costs, supplies, demands, target=1.2)
    assert got == _successive_shortest_paths(costs, supplies, demands, 1.2)
    for field in FIELDS:
        assert all(type(x) is float for x in scalars_of(getattr(got, field))), field


def assert_same_solution(got, want):
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), field
        assert [type(x) for x in scalars_of(getattr(got, field))] == [
            type(x) for x in scalars_of(getattr(want, field))
        ], field


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
    costs, supplies, demands, target = problem
    want = reference_transport(costs, supplies, demands, target)
    assert_same_solution(solve_transport(costs, supplies, demands, target=target), want)
    assert_same_solution(_successive_shortest_paths(costs, supplies, demands, target), want)


def test_transport_arc_reused_past_float_range():
    # the third path pushes through a transport arc whose scaled flow is past
    # float range, so its residual room must not be computed against inf
    huge = Fraction(10**308)
    costs = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(5)]]
    supplies, demands = [Fraction(1, 3), huge + 2], [huge, Fraction(1)]
    sol = solve_transport(costs, supplies, demands)
    assert sol == reference_transport(costs, supplies, demands, None)
    assert sol.total == huge + 1 and sol.cost == Fraction(11, 3)


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
    assert abs(sol.total - most) <= MASS_RTOL * (1.0 + most)


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
        assert abs(sol.total - most) <= 1e-9 * most
