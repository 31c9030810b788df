"""Min-cost flow by successive shortest paths with node potentials.

One loop (:func:`_augment`) runs on a residual arc list: parallel lists
``head``, ``cap`` and ``cost`` by arc id, arc k of (tail, head, capacity,
cost) at 2k and its reverse at 2k + 1 (capacity zero, cost negated), and
the arc ids of each node; the loop keeps ``flow`` by arc id beside them.
An arc is residual while ``flow[e] < cap[e]``.  Arc costs must be
nonnegative, which lets the loop run Dijkstra on reduced costs.  Node 0 is
the source S and the sink T is last.

Two builders make the residual arc list.  Each returns it with the
zero-cost paths its first phase would take and a reader that turns the
loop's arc flow into the plan, and each is the one place that knows its arc
ids.  :func:`solve_transport` is the one place a run is set up: it picks the
builder, adds the rate arc (below), calls the loop once and builds the
solution.

The bipartite network takes any costs: after S come the supplies and the
demands.  S feeds every supply (capacity its mass), every supply reaches
every demand (the given cost; capacity the total of all masses, which no
flow reaches), and every demand drains into T (capacity its mass).  Its n^2
arcs are written in bulk, by slices (:func:`_bipartite_network`), with the
ids, order and scalars that turning the arc list into residual arcs one at
a time gives (:func:`_network`), in less than half its time.  Its
first-phase paths are S -> i -> i' -> T for each i with costs[i][i] == 0,
when supplies and demands are as many and no other cost is 0.  The skeleton
network serves exact p = 1 on a metric, whose cost between two points is
the shortest path over its irreducible pairs (those with no third point on
a geodesic between them; Beckmann's form of transport, as in Essid &
Solomon 2018): after S comes one node per point, fed by S (capacity mu_i)
and draining into T (capacity nu_i), with an uncapped arc each way at its
cost on every irreducible pair, built by :func:`_network` from that arc
list (:func:`_skeleton_network`).  Its first-phase paths are S -> i -> T for
every point, and its edge flow is cut into a plan by paths.  On a tree
metric it has n - 1 pairs; at n = 32 on closed metrics with edges 1 to 5,
about 260 arcs against the bipartite 1,024.  Dijkstra settles the smallest
index on ties, so each numbering fixes every path, plan and potential.

The engine is scalar-generic: ints, Fractions and floats.  Successive
shortest paths augment in nondecreasing path-cost order, so the accumulated
(mass, cost) pairs trace the convex parametric curve of the transport
problem.  The engine records its vertices: the start, the point where each
Dijkstra run (below) raises the path cost, and the end (parametric min-cost
flow; Ahuja, Magnanti & Orlin 1993, ch. 9).  Exact slopes strictly increase;
a float point whose mass repeats, after a push below the mass's ulp,
replaces the last.  Only the final flow is kept: a caller that needs the
plan at an earlier vertex solves again with ``target`` set to its mass.

A ``rate`` adds one arc S -> T of that cost, last in the lists of S and T,
so the built arcs keep their ids; no builder writes it.  It never carries
flow: the engine stops when the chosen path is that arc, which Dijkstra and
the zero-cost search both take on every tie (S is settled first, and a
later path to T replaces it only when strictly shorter).  So a rate run
augments the paths a plain run would, up to the first that costs the rate
or more.  No target stops it: a float mass can round onto the maximum while
a cheaper path is still residual.  The last potential update leaves
pi_S = 0 <= pi <= pi_T = rate.

The common mass ships first, with no search.  On a metric every curve
starts with a segment of slope 0 on which each point keeps min(mu_i, nu_i)
at cost 0 (the common part of mu and nu, Piccoli & Rossi 2014), about half
the augmentations on closed metrics (52 of 106 in the example at
``MAX_PHASES`` below).  Those augmentations are the first-phase paths:
the loop's first phases take each in turn while it has room, as the
zero-cost search would find them at zero potentials (see :func:`_augment`).
No search or Dijkstra run finds them, but they are phases like the rest:
one block augments every path, and the phase cap counts them.

Most phases need no Dijkstra either.  After a potential update every
residual arc has a reduced cost >= 0 (floats are clamped at zero), and on
metrics with few distinct distances most augmentations repeat the last path
cost: their reduced cost is 0.  So a phase first searches the residual arcs
whose reduced cost is <= 0: it settles the reached nodes in index order, gives
each node the first settled node that reaches it, and stops once T is
reached.  If it reaches T, that is Dijkstra's path.  Dijkstra settles the
nodes at distance 0 before all others and in index order, keeps the first
of equal distances, and T (last index) loses every tie, so it builds the
same parent chain with dist[T] = 0.  The potential update after it would
add 0 everywhere, so it is skipped; in floats that addition changes no
potential either, since they start at +0.0 and a float sum is -0.0 only
when both terms are.  Dijkstra runs only when the search fails.

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

Exact inputs, ints included, are always scaled and never run on Fractions:
the masses are multiplied by the least common multiple M of their
denominators (``scalars.scaled``) and the cost rows, with the rate, by that
of theirs, C (``scalars.scaled_rows``), and the engine runs on the resulting
Python ints.  A caller holding the costs as int rows over C passes C as
``cost_unit``, and its rows reach the engine as they are; its masses must be
exact too.  Positive scaling preserves every comparison, so the augmenting
paths, tie-breaks and breakpoints are the same; the result is divided once
(masses by M, costs by M*C, potentials by C) and comes back as Fractions.
Scaled ints can pass float range, so no capacity is a float infinity.
Inputs that are not all exact, float ones and those that mix exact and float
scalars, run on floats, converted once by ``map(float, row)``, which leaves
a float as it is.  One set of the input types (``scalars.exactness``) makes
the choice, and the engine takes its zero, ``0`` or ``0.0``, from it: the
caller hands it over, and no pass over the inputs derives it.  The flow is
handed over as its support, and only that is divided: the Fraction of each
distinct flow value on it is built once and shared.  The flat LP's simplex
and the oracle scale their own inputs to integers, each with its own
``scalars.scaled`` call, and never use this solver or its scaled costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, repeat
from operator import getitem, neg

from .errors import SolverFailure
from .scalars import INF, Scalar, coerce_rows, exactness, scaled, scaled_rows, sparse

# Hard stop against pathological phase counts.  Exact solve_w1 on closed
# metrics (edges in [1, 9], seed n, a = 2, b = 1/2) augments 47, 106 and 210
# times on the skeleton at n = 32, 64 and 128 (45, 101 and 209 on the
# bipartite network), then stops at the rate arc.  Of those, 26, 52 and 99
# take first-phase paths, with no search; they count here like the rest, one
# a path (a float push that falls short of the target takes its path again
# and counts again).  Dijkstra runs 3 times in each; the zero-cost search
# starts from S 14, 40 and 74 times and resumes 8, 15 and 38 times on the
# skeleton.
MAX_PHASES = 200_000


@dataclass
class FlowSolution:
    """The flow's plan as its support, the vertices of its curve, the last
    being its mass and cost, and the potentials."""

    support: tuple[tuple[int, int, Scalar], ...]  # (i, j, flow) of the nonzero flows, row-major
    breakpoints: list[tuple[Scalar, Scalar]]  # (mass, cost) from (0, 0) to the flow's own
    potentials: list[Scalar]  # of the nodes between S and T, in node order


def solve_transport(
    costs, supplies, demands, target: Scalar | None = None, cost_unit: int | None = None,
    rate: Scalar | None = None, pairs=None,
) -> FlowSolution:
    """Push ``target`` units (default: as much as fits) at minimum cost.

    Returns the support of the final flow, the vertices of the parametric
    curve, the last of which is the flow's mass and cost, and the node
    potentials of the last Dijkstra phase, the supplies' pi_i then the demands' pi_j:
    pi_j - pi_i <= costs[i][j] for every pair, with equality on arcs that
    carry flow, the linear-programming duals of the transport problem.
    Exact inputs give Fractions, ints included; any float gives floats.

    A caller that holds exact costs as ints over a common positive
    denominator passes that denominator as ``cost_unit``: arc (i, j) then
    costs ``Fraction(costs[i][j], cost_unit)``, and the result is the one
    for those Fractions, which are not built.  The masses must then be
    exact: a float one is a ValueError.  A ``rate``, in the costs' units,
    stops the flow before its first path that costs that much or more
    instead, and ``target`` is not read.

    ``pairs``, exact inputs only, runs the flow on the skeleton network of a
    metric instead: supplies and demands sit on the same points, ``costs``
    is symmetric and equals the shortest-path costs over the listed pairs
    (i, j), and only those pairs' entries are read.  The potentials are one
    per point, both the supply's and the demand's.
    """
    masses = [*supplies, *demands] + ([] if target is None else [target])
    rows = costs if rate is None else [*costs, [rate]]  # the rate scales with the costs
    exact = exactness(chain(masses, *rows))
    if exact:
        masses, M = scaled(masses)
        rows, C = scaled_rows(rows) if cost_unit is None else (rows, cost_unit)
    else:  # mixed exact and float scalars would spin the engine
        if pairs is not None:
            raise ValueError("the skeleton network takes exact inputs only")
        if cost_unit is not None:
            raise ValueError("a cost unit takes exact inputs only")
        masses, *rows = coerce_rows([masses, *rows], False)
    ns, nd = len(supplies), len(demands)
    costs, rate = (rows, None) if rate is None else (rows[:-1], rows[-1][0])
    supplies, demands = masses[:ns], masses[ns : ns + nd]
    most = min(sum(supplies), sum(demands))
    target = most if target is None else masses[-1]
    if target > most:
        raise ValueError("target flow exceeds what supplies/demands allow")
    zero = 0 if exact else 0.0
    if pairs is None:
        network, first, read = _bipartite_network(costs, supplies, demands, zero)
    else:
        network, first, read = _skeleton_network(costs, pairs, supplies, demands, rate)
    if rate is not None:  # the rate arc, last: the built arcs keep their ids
        head, cap, cost, adj = network
        adj[0].append(len(head))
        adj[-1].append(len(head) + 1)
        head += (len(adj) - 1, 0)
        cap += (zero + 1, zero)
        cost += (rate, -rate)
    flow, breakpoints, pot = _augment(network, first, zero, target, rate)
    support, pot = read(flow), pot[1:-1]
    if exact:
        flows = {x for _, _, x in support}  # one Fraction per distinct flow value, shared
        shared = dict(zip(flows, (Fraction(x, M) for x in flows)))
        support = tuple([(i, j, shared[x]) for i, j, x in support])  # a list first, as scalars.sparse
        breakpoints = [(Fraction(m, M), Fraction(t, M * C)) for m, t in breakpoints]
        pot = [Fraction(x, C) for x in pot]
    return FlowSolution(support, breakpoints, pot)


def _bipartite_network(costs, supplies, demands, zero):
    """The residual network :func:`_network` builds from the bipartite arc
    list (S -> i, then i -> j row by row, then j -> T), with the same ids,
    order and scalars, written in bulk: slices, not one arc at a time.

    With it come the first phase's paths and the plan's reader.  When the
    only zero costs lie on the diagonal of a square problem, the first phase
    ships S -> i -> i' -> T for each i with costs[i][i] == 0; the reader
    takes the plan from the transport arcs' flow, row by row."""
    ns, nt = len(supplies), len(demands)
    T = ns + nt + 1
    mid, last, end = 2 * ns, 2 * (ns + ns * nt), 2 * (ns + ns * nt + nt)  # the first id of each kind, and the end
    total_mass = sum(supplies) + sum(demands)
    # every entry not written below is a reverse arc's capacity zero, or the
    # cost 0 of an arc out of S or into T, or its reverse's, or a head S
    head, cap, cost = [0] * end, [zero] * end, [0] * end
    head[0:mid:2] = range(1, ns + 1)
    head[mid:last:2] = chain.from_iterable(repeat(range(ns + 1, T), ns))
    head[mid + 1 : last : 2] = chain.from_iterable(repeat(i, nt) for i in range(1, ns + 1))
    head[last:end:2] = repeat(T, nt)
    head[last + 1 : end : 2] = range(ns + 1, T)
    cap[0:mid:2] = supplies
    cap[mid:last:2] = repeat(total_mass, ns * nt)
    cap[last:end:2] = demands
    cost[mid:last:2] = chain.from_iterable(costs)
    cost[mid + 1 : last : 2] = map(neg, chain.from_iterable(costs))
    adj = [list(range(0, mid, 2))]
    adj += [[2 * i + 1, *range(mid + 2 * i * nt, mid + 2 * (i + 1) * nt, 2)] for i in range(ns)]
    adj += [[*range(mid + 2 * j + 1, last, 2 * nt), last + 2 * j] for j in range(nt)]
    adj.append(list(range(last + 1, end, 2)))

    diagonal = [i for i in range(ns) if costs[i][i] == 0] if ns == nt else []
    if diagonal and len(diagonal) < sum(row.count(0) for row in costs):  # a zero off the diagonal
        diagonal = []
    first = [(last + 2 * i, mid + 2 * (i * nt + i), 2 * i) for i in diagonal]  # i' -> T, i -> i', S -> i

    def read(flow):  # the transport arcs follow the ns source arcs, row by row
        return sparse(flow[ns + i * nt : ns + (i + 1) * nt] for i in range(ns))

    return (head, cap, cost, adj), first, read


def _skeleton_network(costs, pairs, supplies, demands, rate):
    """The skeleton network of :func:`solve_transport`, on ints, built by
    :func:`_network`, with its first phase's paths and the plan's reader.

    Node 1 + i is point i: S feeds it (capacity mu_i), it drains into T
    (capacity nu_i), and each listed pair (i, j) is an arc each way at its
    cost, uncapped.  With a rate, a pair that costs at least the rate is
    left out, which changes no path and no potential: while the run goes on,
    every potential lies in [0, pi_T], so that arc's reduced cost is at
    least rate - pi_T, the rate arc's, which wins every tie; and a distance
    through it is at least dist[T], where the potential update caps it
    anyway.  The arcs into T come last, so each point lists its arc into T
    last, as the resumed search needs.  Every pair costs more than 0, so the
    paths S -> i -> T are the only ones of cost 0, and they are the first
    phase's, in the order of i.

    The reader cuts the edge flow into a plan by paths, kept as its support.
    First gamma_ii is the flow through i straight from S to T, min(src_i,
    snk_i).  Then from each point i with supply left, a walk follows arcs
    that still carry flow to the first point with demand left, j, and ships
    along it the least of what is left, to gamma_ij.  Every cost is
    positive, so the least-cost flow has no cycle and each walk ends; every
    arc on it is tight under the returned potentials, so the walk costs
    pi_j - pi_i <= costs[i][j], and no path costs less: gamma costs what the
    flow does.
    """
    n = len(supplies)
    S, T = 0, n + 1
    total_mass = sum(supplies) + sum(demands)
    links = [(i, j) for i, j in pairs if rate is None or costs[i][j] < rate]
    arcs = [(S, 1 + i, s, 0) for i, s in enumerate(supplies)]
    arcs += [(1 + u, 1 + v, total_mass, costs[u][v]) for i, j in links for u, v in ((i, j), (j, i))]
    arcs += [(1 + j, T, d, 0) for j, d in enumerate(demands)]
    sinks = n + 2 * len(links)  # the index of the first arc into T
    first = [(2 * (sinks + i), 2 * i) for i in range(n)]  # S -> i -> T

    def read(flow):
        gamma = {}  # the plan's nonzero entries by (i, j)
        out = [{} for _ in range(n)]  # the arcs that carry flow, by tail and head
        for (i, j), there, back in zip(links, flow[n::2], flow[n + 1 :: 2]):
            if there:
                out[i][j] = there
            if back:
                out[j][i] = back
        left, need = flow[:n], flow[sinks : sinks + n]  # the flow out of S and into T, then what is left of it
        for i in range(n):
            both = min(left[i], need[i])
            if both:
                gamma[i, i] = both
            left[i] -= both
            need[i] -= both
        for i in range(n):
            while left[i]:
                walk, v = [i], i
                while not need[v]:
                    v = next(iter(out[v]))
                    walk.append(v)
                delta = min(left[i], need[v], *map(getitem, map(out.__getitem__, walk), walk[1:]))
                for u, w in zip(walk, walk[1:]):
                    out[u][w] -= delta
                    if not out[u][w]:
                        del out[u][w]
                left[i] -= delta
                need[v] -= delta
                gamma[i, v] = gamma.get((i, v), 0) + delta
        return tuple([(i, j, x) for (i, j), x in sorted(gamma.items())])

    return _network(arcs, T, 0), first, read


def _network(arcs, T, zero):
    """The residual network of ``arcs``, (tail, head, capacity, cost) with
    the source S node 0 and the sink T: parallel lists ``head``, ``cap`` and
    ``cost`` by arc id, arc k at 2k and its reverse at 2k + 1 (capacity
    zero, cost negated), and the arc ids of each node in arc order."""
    head, cap, cost = [], [], []
    adj = [[] for _ in range(T + 1)]
    for u, v, c, w in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        cap += (c, zero)
        cost += (w, -w)
    return head, cap, cost, adj


def _augment(network, first, zero, target, rate):
    """Successive shortest paths from the source S, node 0, to the sink T, the
    last node, on a builder's residual ``network``, in ``zero``'s scalar type,
    until ``target`` or, with a ``rate``, the network's last arc, S -> T.
    Returns the flow of each arc by arc index, the curve's vertices, the last
    of which is the mass pushed and its cost, and the potentials of the last
    Dijkstra phase (zero if none ran): pi_S = 0, every residual arc has a
    reduced cost >= 0, and pi_T is the rate on a rate run, else the last slope.
    The network itself is not changed.

    Each phase takes the builder's next path of ``first`` that has room on
    every arc, each as its arc ids walked back from T, in the order given;
    once none has, the zero-cost search; and if that fails, Dijkstra.  One
    block then augments along the path it took.  The paths of ``first`` are
    the ones the zero-cost search would take.  At zero potentials the arcs
    of reduced cost <= 0 are those of cost 0: out of S, into T, on these
    paths, and the reverses of arcs that carry flow, which lead back along a
    path already taken; so every zero-cost path from S to T is one of them.
    Each path's node before T is reached only along its own path, and the
    builder numbers those nodes in the paths' order and after every other
    node the paths pass.  The search settles nodes in index order, so the
    first of those nodes with a residual arc into T ends it, on the first
    path in order with room on every arc.  A push leaves that path with no
    room, or meets the target; a float push of what is left of the target
    can fall short of it, and the same path is then taken again.  Once no
    path has room the search fails and Dijkstra runs.  At a rate <= 0 the
    rate arc costs <= 0 too and is the first path the search takes, so
    nothing ships and the paths are not taken.
    """
    head, cap, cost, adj = network
    S, T = 0, len(adj) - 1
    flow = [zero] * len(head)

    pot = [zero] * (T + 1)
    pushed = zero
    cost_acc = zero
    breakpoints: list[tuple[Scalar, Scalar]] = [(pushed, cost_acc)]

    offered = iter(first if rate is None or rate > 0 else ())
    ready = next(offered, None)  # the first-phase path in turn
    zero_arcs, search = [None] * (T + 1), None
    for _phase in range(MAX_PHASES):
        if rate is None and pushed >= target:  # only the rate stops a rate run
            break
        while ready is not None and not min(cap[e] - flow[e] for e in ready) > 0:
            ready = next(offered, None)
        if ready is not None:
            path = ready
        else:
            search = _zero_path(search, zero_arcs, adj, head, cap, cost, flow, pot)
            if search is None:
                dist, parent = _dijkstra(adj, head, cap, cost, flow, pot)
                if dist[T] == INF:
                    break
                _update_potentials(pot, dist, T)
                zero_arcs = [None] * (T + 1)
                if dist[T] > 0:  # the path cost rises here
                    _vertex(breakpoints, pushed, cost_acc)
            else:
                parent = search[0]
            if rate is not None and parent[T] == len(head) - 2:  # the rate arc
                break
            path = []
            v = T
            while v != S:
                path.append(parent[v])
                v = head[parent[v] ^ 1]

        # min keeps the first of equal rooms, walking back from T
        delta = min(cap[e] - flow[e] for e in path)
        if rate is None:
            delta = min(delta, target - pushed)
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
    else:
        raise SolverFailure(f"flow solver exceeded the phase cap of {MAX_PHASES}")
    _vertex(breakpoints, pushed, cost_acc)
    return flow[::2], breakpoints, pot


def _vertex(points, mass, cost):
    """Record (mass, cost) on the curve, in place of a last point of the same
    mass: the start, or a float push below the mass's ulp."""
    points[len(points) - (points[-1][0] == mass) :] = [(mass, cost)]


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
    was the last one scanned (each demand of the bipartite network, and
    each point of the skeleton, lists its arc to T last), the
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
    index on ties; stale entries are skipped.  It runs only in the phases
    where :func:`_zero_path` fails.  Float rounding can make a reduced cost
    infinitesimally negative; it is clamped at zero.

    It stops once the sink T (last index, so it loses ties) is settled: the
    nodes still open are farther away, cannot change the augmenting chain,
    and :func:`_update_potentials` caps them at dist[T] either way.
    """
    T = len(adj) - 1
    dist = [INF] * (T + 1)
    parent = [-1] * (T + 1)
    dist[0] = 0 * pot[0]
    heap = [(dist[0], 0)]

    while heap:
        du, u = heappop(heap)
        if du > dist[u]:  # stale: u was reached more cheaply since
            continue
        if u == T:
            break
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
    # After a Dijkstra run that reached T, pot[v] += min(dist[v], dist[T]) keeps all
    # residual reduced costs nonnegative, also for nodes it did not reach or settle.
    cap = dist[T]
    for v, d in enumerate(dist):
        pot[v] += d if d < cap else cap
