"""Min-cost flow by successive shortest paths with node potentials.

One engine runs on a residual arc list: parallel lists ``head``, ``cap``,
``cost`` and ``flow`` by arc id, the reverse of arc ``e`` at ``e ^ 1``
(capacity zero, cost negated), and the arc ids of each node.  An arc is
residual while ``flow[e] < cap[e]``.  Arc costs must be nonnegative, which
lets every phase run Dijkstra on reduced costs.

The transport network is complete bipartite: node 0 is the source S, then
come the supplies and the demands, and the sink T is last.  S feeds every
supply (capacity its mass), every supply reaches every demand (the given
cost; capacity the total of all masses, which no flow reaches), and every
demand drains into T (capacity its mass).  Dijkstra settles the smallest
index on ties, so this numbering fixes every path, plan and potential.

The engine is scalar-generic: ints, Fractions and floats.  Successive
shortest paths augment in nondecreasing path-cost order, so the accumulated
(mass, cost) pairs trace the convex parametric curve of the transport
problem; the engine records one breakpoint per augmentation.  It keeps only
the final flow, not a plan per breakpoint: a caller that needs the plan at
an earlier breakpoint solves again with ``target`` set to its mass.

Exact inputs with rational entries are not run on Fractions: the masses are
multiplied by the least common multiple M of their denominators and the
costs by that of theirs, C (both by ``scalars.scaled``), and the engine
runs on the resulting Python ints.  Positive scaling preserves every
comparison, so the augmenting paths, tie-breaks and breakpoints are the
same; the result is divided once (masses by M, costs by M*C, potentials by
C) and stays exact.  Scaled ints can pass float range, so no capacity is a
float infinity.  Float inputs run the engine directly, and inputs that mix
exact and float scalars run it on floats, converted once.  The flat LP and
the oracle keep their own Fraction arithmetic and never use this solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SolverFailure
from .scalars import INF, Scalar, coerce, is_exact, scaled

# Hard stop against pathological augmentation counts.  Exact solve_w1 on
# seeded closed metrics (edges in [1, 9]) takes 55, 107 and 234 phases at
# n = 32, 64 and 128: about 2n.
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
    exact = list(map(is_exact, values))
    if any(exact) and not all(exact):
        # mixed exact and float scalars spin the engine: it runs on floats,
        # converted once here
        costs = [[coerce(c, False) for c in row] for row in costs]
        supplies, demands = ([coerce(x, False) for x in xs] for xs in (supplies, demands))
        target = None if target is None else coerce(target, False)
    if not (all(exact) and any(isinstance(x, Fraction) for x in values)):
        return _successive_shortest_paths(costs, supplies, demands, target)

    masses, M = scaled(masses)
    arc_costs, C = scaled(arc_costs)
    ns, nd, ints = len(supplies), len(demands), iter(arc_costs)
    sol = _successive_shortest_paths(
        [[next(ints) for _ in row] for row in costs],
        masses[:ns],
        masses[ns : ns + nd],
        None if target is None else masses[-1],
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
    S, T = 0, ns + nt + 1
    total_mass = sum(supplies) + sum(demands)
    arcs = [(S, 1 + i, s, 0) for i, s in enumerate(supplies)]
    arcs += [(1 + i, ns + 1 + j, total_mass, c) for i, row in enumerate(costs) for j, c in enumerate(row)]
    arcs += [(ns + 1 + j, T, d, 0) for j, d in enumerate(demands)]
    head, cap, cost = [], [], []
    adj = [[] for _ in range(T + 1)]
    for u, v, c, w in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        cap += (c, zero)
        cost += (w, -w)
    flow = [zero] * len(head)

    pot = [zero] * (T + 1)
    pushed = zero
    cost_acc = zero
    breakpoints: list[tuple[Scalar, Scalar]] = [(pushed, cost_acc)]

    for _phase in range(MAX_PHASES):
        if pushed >= target:
            break
        dist, parent = _dijkstra(adj, head, cap, cost, flow, pot)
        if dist[T] == INF:
            break

        path = []
        v = T
        while v != S:
            path.append(parent[v])
            v = head[parent[v] ^ 1]
        # min keeps the first of equal rooms, walking back from T
        delta = min(min(cap[e] - flow[e] for e in path), target - pushed)
        for e in path:
            flow[e] += delta
            flow[e ^ 1] -= delta
            cost_acc += cost[e] * delta

        pushed += delta
        if delta > 0:
            breakpoints.append((pushed, cost_acc))

        _update_potentials(pot, dist, T)
    else:
        raise SolverFailure(f"flow solver exceeded the phase cap of {MAX_PHASES}")

    # Final potential refresh so the duals reflect the terminal residual graph.
    dist, _ = _dijkstra(adj, head, cap, cost, flow, pot)
    _update_potentials(pot, dist, T)

    first = 2 * ns  # the transport arcs follow the ns source arcs, row by row
    return FlowSolution(
        flow=[[flow[first + 2 * (i * nt + j)] for j in range(nt)] for i in range(ns)],
        total=pushed,
        cost=cost_acc,
        breakpoints=breakpoints,
        potential_src=pot[1 : ns + 1],
        potential_snk=pot[ns + 1 : T],
    )


def _dijkstra(adj, head, cap, cost, flow, pot):
    """Shortest reduced-cost distances from the source, node 0, over residual arcs.

    Linear-scan Dijkstra; ties settle the smallest index.  A heap keyed by
    (dist, index) gave byte-identical reports on 600 seeded solves, and ran
    exact solve_w1 on a seeded closed metric at n = 128 in 1.00 s against
    1.45 s (one Xeon core, CPython 3.11).  Float rounding can make a reduced
    cost infinitesimally negative; it is clamped at zero.

    It stops once the sink T (last index, so it loses ties) is settled: the
    nodes still open are farther away, cannot change the augmenting chain,
    and :func:`_update_potentials` caps them at dist[T] either way.
    """
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
                    rc = 0  # float-mode rounding guard; exact mode never goes negative
                nd = du + rc
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = e
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
