"""Engine-level checks of the successive-shortest-path transport solver."""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from genwass.flow import _successive_shortest_paths, solve_transport

FIELDS = ("flow", "total", "cost", "breakpoints", "potential_src", "potential_snk")


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
