"""Min-cost flow by successive shortest paths with node potentials.

One engine runs on a residual arc list: parallel lists ``head``, ``cap``,
``cost`` and ``flow`` by arc id, the reverse of arc ``e`` at ``e ^ 1``
(capacity zero, cost negated), and the arc ids of each node.  An arc is
residual while ``flow[e] < cap[e]``.  Arc costs must be nonnegative, which
lets the engine run Dijkstra on reduced costs.

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

Most phases need no Dijkstra.  After a potential update every residual arc
has a reduced cost >= 0 (floats are clamped at zero), and on metrics with
few distinct distances most augmentations repeat the last path cost: their
reduced cost is 0.  So a phase first searches the residual arcs whose
reduced cost is <= 0: it settles the reached nodes in index order, gives
each node the first settled node that reaches it, and stops once T is
reached.  If it reaches T, that is Dijkstra's path.  Dijkstra settles the
nodes at distance 0 before all others and in index order, keeps the first
of equal distances, and T (last index) loses every tie, so it builds the
same parent chain with dist[T] = 0.  The potential update after it would
add 0 everywhere, so it is skipped; in floats that addition changes no
potential either, since they start at +0.0 and a float sum is -0.0 only
when both terms are.  Dijkstra runs when the search fails, and without a
search in the phase after a Dijkstra whose path cost rose: where most paths
cost more than the last, as on metrics with many distinct distances, a
failed search costs about as much as the Dijkstra after it.  A Dijkstra
that finds a path of reduced cost 0 turns the search back on.

Each phase redoes only what the last augmentation changed.  The potentials
change only when Dijkstra runs, and with them the arcs of reduced cost <= 0:
each node's list of those that are also residual is built at its first
visit after a change and reused until the next, and an augmentation drops
only the lists of nodes one of whose arcs flipped its residual state (the
tail of an arc that saturated, the head of an arc whose reverse became
residual).  When the only arc that saturated is the path's last arc, into
T, the next search resumes where the last one stopped instead of starting
again from S: it would retrace the same steps (see :func:`_zero_path`).
Dijkstra keeps its open nodes in a heap keyed by (distance, index).

Exact inputs with rational entries are not run on Fractions: the masses are
multiplied by the least common multiple M of their denominators and the
costs by that of theirs, C (both by ``scalars.scaled``; a caller holding
the costs as ints over C already passes C as ``cost_unit``), and the engine
runs on the resulting Python ints.  Positive scaling preserves every
comparison, so the augmenting paths, tie-breaks and breakpoints are the
same; the result is divided once (masses by M, costs by M*C, potentials by
C) and stays exact.  Scaled ints can pass float range, so no capacity is a
float infinity.  Inputs that are not all exact, float ones and those that
mix exact and float scalars, run it on floats, converted once by
``map(float, row)``, which leaves a float as it is.  One set of the input
types (``scalars.exactness``) makes the choice, and the Fraction of each
distinct scaled flow value is built once and shared.  The flat LP and the
oracle keep their own Fraction arithmetic and never use this solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, repeat
from operator import mul

from .errors import SolverFailure
from .scalars import INF, Scalar, coerce, coerce_rows, exactness, scaled

# Hard stop against pathological augmentation counts.  Exact solve_w1 on
# seeded closed metrics (edges in [1, 9]) takes 53, 107 and 225 phases at
# n = 32, 64 and 128: about 2n.  Dijkstra runs 7 times in each, the final
# refresh included; the zero-cost search starts from S 30, 58 and 135 times
# and resumes 20, 46 and 87 times.
MAX_PHASES = 200_000


@dataclass
class FlowSolution:
    flow: list[list[Scalar]]
    total: Scalar
    cost: Scalar
    breakpoints: list[tuple[Scalar, Scalar]]
    potential_src: list[Scalar]
    potential_snk: list[Scalar]


def solve_transport(
    costs, supplies, demands, target: Scalar | None = None, cost_unit: int | None = None
) -> FlowSolution:
    """Push ``target`` units (default: as much as fits) at minimum cost.

    Returns the final flow matrix, the parametric breakpoints, and the node
    potentials of the last phase.  The potentials satisfy, for every pair,
    pot_snk[j] - pot_src[i] <= costs[i][j], with equality on arcs that carry
    flow: they are the linear-programming duals of the transport problem.

    A caller that holds exact costs as ints over a common positive
    denominator passes that denominator as ``cost_unit``: arc (i, j) then
    costs ``Fraction(costs[i][j], cost_unit)``, and the result is the one
    for those Fractions, which are not built.
    """
    masses = [*supplies, *demands] + ([] if target is None else [target])
    if cost_unit is not None and not exactness(masses)[0]:
        costs, cost_unit = [[Fraction(c, cost_unit) for c in row] for row in costs], None
    arc_costs = list(chain.from_iterable(costs))
    exact, rational = exactness(masses + arc_costs)
    if not exact:  # mixed exact and float scalars would spin the engine
        costs = coerce_rows(costs, False)
        supplies, demands = coerce_rows((supplies, demands), False)
        target = None if target is None else coerce(target, False)
    if not (exact and (rational or cost_unit is not None)):
        return _successive_shortest_paths(costs, supplies, demands, target)

    masses, M = scaled(masses)
    arc_costs, C = scaled(arc_costs) if cost_unit is None else (arc_costs, cost_unit)
    ns, nd, ints = len(supplies), len(demands), iter(arc_costs)
    sol = _successive_shortest_paths(
        [[next(ints) for _ in row] for row in costs],
        masses[:ns],
        masses[ns : ns + nd],
        None if target is None else masses[-1],
    )
    flows = set(chain.from_iterable(sol.flow))  # one Fraction per distinct flow value, shared
    shared = dict(zip(flows, (Fraction(x, M) for x in flows)))
    return FlowSolution(
        flow=[list(map(shared.__getitem__, row)) for row in sol.flow],
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
    zero = sum(map(mul, repeat(0), chain(supplies, demands, *costs)))
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

    zero_arcs, search, rose = [None] * (T + 1), None, False
    for _phase in range(MAX_PHASES):
        if pushed >= target:
            break
        search = None if rose else _zero_path(search, zero_arcs, adj, head, cap, cost, flow, pot)
        if search is None:
            dist, parent = _dijkstra(adj, head, cap, cost, flow, pot)
            if dist[T] == INF:
                break
            rose = dist[T] > 0
            _update_potentials(pot, dist, T)
            zero_arcs = [None] * (T + 1)
        else:
            parent = search[0]

        path = []
        v = T
        while v != S:
            path.append(parent[v])
            v = head[parent[v] ^ 1]
        # min keeps the first of equal rooms, walking back from T
        delta = min(min(cap[e] - flow[e] for e in path), target - pushed)
        saturated = []
        for e in path:
            r = e ^ 1
            was_residual = flow[r] < cap[r]
            flow[e] += delta
            flow[r] -= delta
            cost_acc += cost[e] * delta
            # a node's cached list holds only residual arcs: drop it when one flips
            if not flow[e] < cap[e]:
                saturated.append(e)
                zero_arcs[head[r]] = None
            if not was_residual and flow[r] < cap[r]:
                zero_arcs[head[e]] = None
        if saturated != path[:1]:
            search = None

        pushed += delta
        if delta > 0:
            breakpoints.append((pushed, cost_acc))
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


def _zero_path(search, zero_arcs, adj, head, cap, cost, flow, pot):
    """A search over residual arcs of reduced cost <= 0 from the source,
    node 0, to the sink T (the last index): its state (parent arcs, reached
    flags, open heap) once it reaches T, or None if it does not.

    It settles the reached nodes in index order (a heap of indices), gives
    each node the first settled node that reaches it, and stops once T is
    reached: Dijkstra's chain to T whenever dist[T] would be 0.
    ``zero_arcs[u]`` caches the residual arcs of u with reduced cost <= 0
    under the current potentials; None entries are filled at the first visit.

    ``search`` is None for a search from the source, or the state returned
    by the last call, which resumes without T.  The caller resumes only when
    the last augmentation saturated just the path's arc into T: that arc
    was the last one scanned (each demand lists its arc to T last), the
    arcs it made residual are reverses of path arcs and point to nodes
    already reached, and no other arc changed its residual state, so a
    search from the source would settle the same nodes in the same order up
    to that point and go on from it as the resumed one does.
    """
    T = len(adj) - 1
    if search is None:
        parent, reached, open_nodes = [-1] * (T + 1), [False] * (T + 1), [0]
        reached[0] = True
    else:
        parent, reached, open_nodes = search
        reached[T] = False
    while open_nodes:
        u = heappop(open_nodes)
        arcs = zero_arcs[u]
        if arcs is None:
            pu = pot[u]
            arcs = zero_arcs[u] = [
                e for e in adj[u] if flow[e] < cap[e] and cost[e] + pu - pot[head[e]] <= 0
            ]
        for e in arcs:
            v = head[e]
            if not reached[v]:
                reached[v] = True
                parent[v] = e
                if v == T:
                    return parent, reached, open_nodes
                heappush(open_nodes, v)
    return None


def _dijkstra(adj, head, cap, cost, flow, pot):
    """Shortest reduced-cost distances from the source, node 0, over residual arcs.

    A heap keyed by (dist, index) settles the nearest node, the smallest
    index on ties; stale entries are skipped.  It runs in the phases where
    :func:`_zero_path` fails or is skipped after a rise of the path cost,
    and for the final refresh.  Float rounding can make a reduced cost
    infinitesimally negative; it is clamped at zero.

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
    heap = [(dist[0], 0)]

    while heap:
        du, u = heappop(heap)
        if done[u]:
            continue
        if u == T:
            break
        done[u] = True
        pu = pot[u]
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
                    heappush(heap, (nd, v))
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
