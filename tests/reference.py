"""Reference helpers the suite compares the package against.

No route of the package runs these: the certificate reads a plan's row and
column sums in one pass, the oracle keeps the least integer cost per state
of a dynamic program instead of walking plans, and the metric check tests
whole rows and packed integer rows before it walks any entry, and the group
mean is a fold of pushforwards, not a running total per point.  They are kept
here, as simple second implementations, so the tests can check the fast
paths against them.  A plan is checked against :class:`DensePlan`, which
holds all n^2 entries, as the package held plans before they became their
support.  The plan enumerator is this module's own, so the
per-leaf oracle and the plan tests share no code with the package's oracle.
Both oracles sum a plan's cost cell by cell in row-major order, so their
float values agree bit for bit.  The transport reference runs the bipartite
network with one branch per arc kind, Dijkstra by linear scan and a
potential update in every phase: none of the engine's zero-cost searches,
first-phase paths or residual arc lists.  The metric families at the end
are the non-degenerate inputs of the larger cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator

from genwass.errors import (
    AsymmetricEntry,
    NegativeEntry,
    NonzeroDiagonal,
    SolverFailure,
    TooLarge,
    TriangleViolation,
    ZeroOffDiagonal,
)
from genwass.flow import MAX_PHASES, FlowSolution
from genwass.measures import DiscreteMeasure, TransportPlan, measure, require_same_space
from genwass.params import EntropyParams
from genwass.scalars import ROUNDING_TOL as FLOAT_METRIC_RTOL
from genwass.scalars import ROUNDING_TOL as FLOAT_WEIGHT_ATOL
from genwass.scalars import INF, Scalar, coerce, coerce_rows, scalar_to_json, scaled_rows
from genwass.spaces import FiniteGroupAction, FiniteMetricSpace, validate_metric


def zero_measure(space: FiniteMetricSpace) -> DiscreteMeasure:
    return measure(space, [0] * space.n)


@dataclass(frozen=True)
class Decomposition:
    """Lebesgue decomposition of one measure against another on finite support.

    Reconstruction: sigma[i] = density[i] * tau[i] + singular[i], with the
    singular part supported where tau vanishes.
    """

    density: tuple[Scalar, ...]
    singular: DiscreteMeasure


def is_submeasure(
    sigma: DiscreteMeasure, tau: DiscreteMeasure, atol: float = FLOAT_WEIGHT_ATOL, rtol: float = 0.0
) -> bool:
    """Pointwise sigma <= tau (exact, or within atol + rtol * tau in float mode)."""
    require_same_space(sigma, tau)
    slack, rel = (0, 0) if sigma.space.exact else (atol, rtol)
    return all(s <= t + slack + rel * t for s, t in zip(sigma.weights, tau.weights))


def lebesgue_decompose(sigma: DiscreteMeasure, tau: DiscreteMeasure) -> Decomposition:
    """Split sigma into a part with a density against tau and a singular part."""
    require_same_space(sigma, tau)
    zero = coerce(0, sigma.space.exact)
    density = []
    singular = []
    for s, t in zip(sigma.weights, tau.weights):
        if t > 0:
            density.append(s / t)
            singular.append(zero)
        else:
            density.append(zero)
            singular.append(s)
    return Decomposition(density=tuple(density), singular=DiscreteMeasure(sigma.space, tuple(singular)))


@dataclass(frozen=True)
class DensePlan:
    """A plan as its n x n matrix: the package's plans before they kept only
    their support.  It refuses what they refused, with the same messages; a
    row or column sum adds every entry of it from 0, the total adds the row
    sums, and the JSON rows format every entry.  ``plan`` is the package's
    plan of the same matrix, its support found here by a walk of every entry."""

    space: FiniteMetricSpace
    gamma: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = self.space.n
        if len(self.gamma) != n or any(len(row) != n for row in self.gamma):
            raise ValueError("plan must be n x n for the space")
        if any(x < 0 for row in self.gamma for x in row):
            raise ValueError("plan entries must be nonnegative")

    @property
    def plan(self) -> TransportPlan:
        support = [(i, j, x) for i, row in enumerate(self.gamma) for j, x in enumerate(row) if x != 0]
        return TransportPlan(self.space, tuple(support))

    @property
    def total(self) -> Scalar:
        return sum(self.row_sums())

    def row_sums(self) -> tuple[Scalar, ...]:
        return tuple(sum(row) for row in self.gamma)

    def col_sums(self) -> tuple[Scalar, ...]:
        return tuple(sum(col) for col in zip(*self.gamma))

    def to_json(self) -> list:
        return [list(map(scalar_to_json, row)) for row in self.gamma]

    def as_read(self) -> "DensePlan":
        """The matrix that the package's plan of this one reads as: this one,
        but for a matrix of zeros on an exact space.  Its plan has no mass to
        tell floats or ints from Fractions, and reads as Fraction zeros."""
        n = self.space.n
        if self.space.exact and not any(x for row in self.gamma for x in row):
            return DensePlan(self.space, ((Fraction(0),) * n,) * n)
        return self


def marginals(plan: TransportPlan) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    return (
        DiscreteMeasure(plan.space, plan.row_sums()),
        DiscreteMeasure(plan.space, plan.col_sums()),
    )


def symmetrize(action: FiniteGroupAction, mu: DiscreteMeasure) -> DiscreteMeasure:
    """The group mean of mu as one running total per point, times 1/|G|."""
    require_same_space(action, mu)
    n = mu.space.n
    acc = [coerce(0, mu.space.exact)] * n
    for g in action.elements:
        for i in range(n):
            acc[g[i]] += mu.weights[i]
    share = Fraction(1, action.order) if mu.space.exact else 1.0 / action.order
    return DiscreteMeasure(mu.space, tuple(share * w for w in acc))


PLAN_CAP = 10_000_000


def odometer(mu: DiscreteMeasure, nu: DiscreteMeasure, cap: int, costs):
    """Walk every integer sub-marginal plan once, yielding (gamma, m, t).

    ``gamma`` is the live matrix (copy it to keep it), ``m`` its shipped
    mass and ``t`` the sum of costs[i][j] * gamma[i][j], both carried along
    the row-major odometer so each leaf costs O(1).  Raises TooLarge when
    the product over the cells of min(mu_i, nu_j) + 1 exceeds cap.
    """
    require_same_space(mu, nu)
    if any(w != int(w) for w in mu.weights + nu.weights):
        raise ValueError("the odometer needs integer masses")
    row_left, col_left = (list(map(int, m.weights)) for m in (mu, nu))
    n = len(row_left)
    bound_product = 1
    for i in range(n):
        for j in range(n):
            bound_product *= min(row_left[i], col_left[j]) + 1
            if bound_product > cap:
                raise TooLarge(f"plan enumeration bound exceeds the cap of {cap}")
    cells = [(i, j) for i in range(n) for j in range(n)]
    gamma = [[0] * n for _ in range(n)]

    def rec(k: int, m: int, t):
        if k == len(cells):
            yield gamma, m, t
            return
        i, j = cells[k]
        cost = costs[i][j]
        for v in range(min(row_left[i], col_left[j]) + 1):
            gamma[i][j] = v
            row_left[i] -= v
            col_left[j] -= v
            yield from rec(k + 1, m + v, t + cost * v)
            row_left[i] += v
            col_left[j] += v
        gamma[i][j] = 0

    yield from rec(0, 0, 0)


def enumerate_integer_plans(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cap: int = PLAN_CAP
) -> Iterator[TransportPlan]:
    """Yield every integer matrix gamma >= 0 with rows <= mu and cols <= nu,
    each exactly once (row-major odometer with residual-capacity pruning)."""
    space = mu.space
    for gamma, _, _ in odometer(mu, nu, cap, space.dist):
        yield DensePlan(space, gamma).plan


def brute_force_value(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    params: EntropyParams,
    cap: int = PLAN_CAP,
) -> Scalar:
    """Minimum objective over every enumerated integer plan, evaluated per
    plan on the powered distances as they are (Fractions on an exact space).

    Exact (rational) for p = 1; for p > 1 the root is evaluated in floats.
    """
    require_same_space(mu, nu, space=space)
    a, b, p = params.a, params.b, params.p
    exponent = int(p) if p == int(p) else float(p)
    total = mu.mass + nu.mass
    inv_p = 1.0 / float(p)
    powered = [[d**exponent for d in row] for row in space.dist]
    best = None
    for _, m, t in odometer(mu, nu, cap, powered):
        if p == 1:
            value = a * (total - 2 * m) + b * t
        else:
            value = a * (total - 2 * m) + b * float(t) ** inv_p
        if best is None or value < best:
            best = value
    return best


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


def metric_violation(matrix, exact: bool):
    """The error type and witness indices of the first violated metric axiom
    of a finite square matrix, or None for a metric: an entry-by-entry walk
    for sign, diagonal, symmetry and distinct points, then the per-pair
    triangle scan with the float slack, in validate_metric's order.  Exact
    entries are walked as integers over their common denominator."""
    d = coerce_rows(matrix, exact)
    n = len(d)
    if exact:
        d, _ = scaled_rows(d)
    for i in range(n):
        for j in range(n):
            if d[i][j] < 0:
                return NegativeEntry, (i, j)
    for i in range(n):
        if d[i][i] != 0:
            return NonzeroDiagonal, (i,)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return AsymmetricEntry, (i, j)
            if d[i][j] == 0:
                return ZeroOffDiagonal, (i, j)

    # d is symmetric and k in {i, j} never fails, so one test per pair i < j
    # finds the first (i, j, k) witness of a scan over every ordered triple.
    diam = max(max(row) for row in d)
    slack = 0 if exact else FLOAT_METRIC_RTOL * float(diam)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] > min(map(add, d[i], d[j])) + slack:
                k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j] + slack)
                return TriangleViolation, (i, j, k)
    return None


def wide_metric(rng, n: int, low: int = 1000) -> FiniteMetricSpace:
    """Unclosed integer distances in [low, 2 low]: every triangle holds with
    no closure, since two distances sum to at least 2 low, a third point
    lies between two others only when both legs are low and the pair is
    2 low apart, so almost every pair is a row of the flat LP, and the
    transport costs are generic."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(low, 2 * low)
    return validate_metric([f"x{i}" for i in range(n)], d, exact=True)


def l1_metric(rng, n: int, side: int = 1000) -> FiniteMetricSpace:
    """n distinct points of {0..side}^2 under the l1 distance: many pairs have
    a third point on a geodesic, and many slopes."""
    points = [divmod(k, side + 1) for k in rng.sample(range((side + 1) ** 2), n)]
    d = [[abs(x - u) + abs(y - v) for u, v in points] for x, y in points]
    return validate_metric([f"x{i}" for i in range(n)], d, exact=True)
