"""Exact primal solver for the order-1 unbalanced distance.

The sub-marginal reformulation
    value = min over plans gamma (rows <= mu, cols <= nu) of
            a(|mu| - m) + a(|nu| - m) + b sum d[i][j] gamma[i][j],   m = sum gamma,
reduces to min-cost flow on a bipartite network: supply nodes carry mu,
demand nodes carry nu, transport arcs cost b d[i][j], and a waste route
charges a per unit of unshipped supply and a per unit of unfilled demand
(one extra pseudo-supply/pseudo-demand pair makes the network balanced).
Equivalently, mass ships only where b d < 2a.

Dual potentials come from the terminal node potentials of the flow, clamped
below at -a (the same truncation the dual objective applies); the resulting
pair is feasible and complementary-slack with the plan, so the duality gap
is zero in exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import (
    DualPotentials,
    OptimalityCertificate,
    evaluate_dual,
    primal_value,
    verify_optimality,
)
from .errors import InvalidParams, SolverFailure
from .flow import solve_transport
from .measures import DiscreteMeasure, TransportPlan, require_same_space
from .params import EntropyParams
from .scalars import Scalar, coerce, scaled
from .spaces import FiniteMetricSpace

# Float-mode certification threshold: gaps above 1e-9 * (1 + |value|) are a
# solver failure, not a rounding artifact.
GAP_RTOL = 1e-9


@dataclass(frozen=True)
class SolveReport:
    """Everything the solver can certify about one instance."""

    value: Scalar
    plan: TransportPlan
    potentials: DualPotentials | None
    transported_mass: Scalar
    destroyed_mass: Scalar
    created_mass: Scalar
    duality_gap: Scalar | None
    conditions: OptimalityCertificate | None
    curve: list[tuple[Scalar, Scalar]] | None = None


def solve_w1(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> SolveReport:
    """Solve the order-1 problem, returning value, plan, and certified duals."""
    require_same_space(mu, nu)
    if params.p != 1:
        raise InvalidParams("this solver handles p = 1 only")
    a = coerce(params.a, space.exact)
    b = coerce(params.b, space.exact)

    gamma, pot_src, pot_snk = _solve_waste_network(space, mu, nu, a, b)
    plan_obj = TransportPlan(space, tuple(tuple(row) for row in gamma))
    m = plan_obj.total
    value = primal_value(plan_obj, mu, nu, params)

    n = space.n
    phi1 = tuple(_clamp_low(pot_snk[n] - pot_src[i], -a) for i in range(n))
    phi2 = tuple(_clamp_low(pot_snk[j] - pot_src[n], -a) for j in range(n))
    potentials = DualPotentials(phi1=phi1, phi2=phi2, params=params)

    feasible, objective = evaluate_dual(potentials, mu, nu)
    gap = value - objective
    if space.exact:
        if not feasible or gap != 0:
            raise SolverFailure(f"exact solve left a duality gap of {gap}")
    else:
        if not feasible or abs(gap) > GAP_RTOL * (1.0 + abs(float(value))):
            raise SolverFailure(f"duality gap {gap} exceeds the certification threshold")
        gap = max(gap, 0.0)

    certificate = verify_optimality(space, mu, nu, params, plan_obj, potentials)

    return SolveReport(
        value=value,
        plan=plan_obj,
        potentials=potentials,
        transported_mass=m,
        destroyed_mass=mu.mass - m,
        created_mass=nu.mass - m,
        duality_gap=gap,
        conditions=certificate,
    )


def _solve_waste_network(space, mu, nu, a, b):
    # Exact costs are built on ints over one common denominator, from the
    # space's integer image D / F_d and the numerators and denominators of
    # a and b; the flow divides the potentials by it once.
    n = space.n
    if space.exact:
        D, F_d = space._scaled
        (b_int, waste), unit = scaled([b / F_d, a])
        costs = [[b_int * d for d in row] + [waste] for row in D]
        costs.append([waste] * n + [0])
    else:
        unit, waste = None, a
        costs = [[b * d for d in row] + [a] for row in space.dist]
        costs.append([a] * n + [0.0])
    supplies = list(mu.weights) + [nu.mass]
    demands = list(nu.weights) + [mu.mass]
    sol = solve_transport(costs, supplies, demands, cost_unit=unit)
    # Exact ties b d = 2a are indifferent in value; the canonical plan does
    # not ship on them.  The potentials already saturate at a on both
    # endpoints of a tied shipped arc, so the certificate survives the strip.
    # The cost is compared first: only a tie pays for the test x > 0.
    zero, tie = coerce(0, space.exact), 2 * waste
    plan = [
        [zero if c == tie and x > 0 else x for x, c in zip(flows[:n], row)]
        for flows, row in zip(sol.flow[:n], costs)
    ]
    return plan, sol.potential_src, sol.potential_snk


def _clamp_low(v, lo):
    return lo if v < lo else v
