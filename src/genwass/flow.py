"""Bipartite min-cost flow by successive shortest paths with node potentials.

The network is complete bipartite: a virtual source feeds every supply node
(arc capacity = its supply), every supply node reaches every demand node
(infinite capacity, the given arc cost), and every demand node drains into a
virtual sink (capacity = its demand).  Arc costs must be nonnegative, which
lets every phase run Dijkstra on reduced costs.

One scalar-generic engine runs on ints, Fractions and floats.  Successive
shortest paths augment in nondecreasing path-cost order, so the accumulated
(mass, cost) pairs trace the convex parametric curve of the transport
problem; the engine records one breakpoint per augmentation.  It keeps only
the final flow, not a plan per breakpoint: a caller that needs the plan at
an earlier breakpoint solves again with ``target`` set to its mass.

Exact inputs with rational entries are not run on Fractions: the masses are
multiplied by the least common multiple M of their denominators and the
costs by that of theirs, C, and the engine runs on the resulting Python
ints.  Positive scaling preserves every comparison, so the augmenting
paths, tie-breaks and breakpoints are the same; the result is divided once
(masses by M, costs by M*C, potentials by C) and stays exact.  Float inputs
run the engine directly.  The flat LP and the oracle keep their own Fraction
arithmetic and never use this solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SolverFailure
from .scalars import INF, Scalar, common_denominator, is_exact

# Hard stop against pathological augmentation counts; desk-scale instances
# terminate after at most a few dozen phases.
MAX_PHASES = 200_000


@dataclass
class FlowSolution:
    flow: list[list[Scalar]]
    total: Scalar
    cost: Scalar
    breakpoints: list[tuple[Scalar, Scalar]]
    potential_src: list[Scalar]
    potential_snk: list[Scalar]


def solve_transport(costs, supplies, demands, target: Scalar | None = None) -> FlowSolution:
    """Push ``target`` units (default: as much as fits) at minimum cost.

    Returns the final flow matrix, the parametric breakpoints, and the node
    potentials of the last phase.  The potentials satisfy, for every pair,
    pot_snk[j] - pot_src[i] <= costs[i][j], with equality on arcs that carry
    flow: they are the linear-programming duals of the transport problem.
    """
    masses = [*supplies, *demands] + ([] if target is None else [target])
    arc_costs = [c for row in costs for c in row]
    values = masses + arc_costs
    if not (all(is_exact(x) for x in values) and any(isinstance(x, Fraction) for x in values)):
        return _successive_shortest_paths(costs, supplies, demands, target)

    M = common_denominator(masses)
    C = common_denominator(arc_costs)
    sol = _successive_shortest_paths(
        [[int(c * C) for c in row] for row in costs],
        [int(s * M) for s in supplies],
        [int(d * M) for d in demands],
        None if target is None else int(target * M),
    )
    return FlowSolution(
        flow=[[Fraction(x, M) for x in row] for row in sol.flow],
        total=Fraction(sol.total, M),
        cost=Fraction(sol.cost, M * C),
        breakpoints=[(Fraction(m, M), Fraction(t, M * C)) for m, t in sol.breakpoints],
        potential_src=[Fraction(x, C) for x in sol.potential_src],
        potential_snk=[Fraction(x, C) for x in sol.potential_snk],
    )


def _successive_shortest_paths(costs, supplies, demands, target) -> FlowSolution:
    """The scalar-generic engine behind :func:`solve_transport`."""
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
    breakpoints: list[tuple[Scalar, Scalar]] = [(pushed, cost_acc)]

    for _phase in range(MAX_PHASES):
        if pushed >= target:
            break
        dist, parent = _dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt)
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

        _update_potentials(pot, dist, T)
    else:
        raise SolverFailure(f"flow solver exceeded the phase cap of {MAX_PHASES}")

    # Final potential refresh so the duals reflect the terminal residual graph.
    dist, _ = _dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt)
    _update_potentials(pot, dist, T)

    return FlowSolution(
        flow=flow,
        total=pushed,
        cost=cost_acc,
        breakpoints=breakpoints,
        potential_src=pot[1 : ns + 1],
        potential_snk=pot[ns + 1 : ns + nt + 1],
    )


def _dijkstra(costs, supplies, demands, flow, used_src, used_snk, pot, ns, nt):
    """Shortest reduced-cost distances from the virtual source.

    Linear-scan Dijkstra: node counts are tiny and exact scalars make a heap
    pointless.  Float rounding can make a reduced cost infinitesimally
    negative; it is clamped at zero.

    It stops once the sink T (last index, so it loses ties) is settled: the
    nodes still open are farther away, cannot change the augmenting chain,
    and :func:`_update_potentials` caps them at dist[T] either way.
    """
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


def _update_potentials(pot, dist, T):
    # pot[v] += min(dist[v], dist[T]) keeps all residual reduced costs
    # nonnegative, also for nodes the last search did not reach or settle.
    cap = dist[T]
    if cap == INF:
        finite = [d for d in dist if d != INF]
        cap = max(finite) if finite else 0
    for v, d in enumerate(dist):
        pot[v] += d if d < cap else cap
