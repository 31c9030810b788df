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
is zero in exact mode.  :func:`certified_report` builds every p = 1 report:
this plan's, and the curve scan's, which borrows only these potentials.
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
from .errors import InfeasibleInputs, InvalidParams, SolverFailure
from .flow import solve_transport
from .measures import DiscreteMeasure, TransportPlan, require_same_space
from .params import EntropyParams
from .scalars import CERTIFY_TOL, Scalar, coerce, scaled
from .spaces import FiniteMetricSpace


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
    plan, potentials = waste_route(space, mu, nu, params)
    value = primal_value(plan, mu, nu, params)
    return certified_report(space, mu, nu, params, plan, value, plan.total, potentials)


def certified_report(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams,
    plan: TransportPlan, value: Scalar, mass: Scalar, potentials: DualPotentials, curve=None,
) -> SolveReport:
    """The p = 1 report of a plan of this value and mass, with the certificate of
    the plan against ``potentials``.  Their duality gap must be 0 in exact mode;
    in float mode it is rounding up to CERTIFY_TOL * (1 + |value|), reported
    clamped at 0.  An infeasible pair, a larger gap, or a plan and potentials
    that fail the certificate's own checks is a SolverFailure.  The report
    itself comes from :func:`_report`, as the p > 1 scan's does.
    """
    feasible, objective = evaluate_dual(potentials, mu, nu)
    gap = value - objective
    if space.exact:
        if not feasible or gap != 0:
            raise SolverFailure(f"exact solve left a duality gap of {gap}")
    else:
        if not feasible or abs(gap) > CERTIFY_TOL * (1.0 + abs(float(value))):
            raise SolverFailure(f"duality gap {gap} exceeds the certification threshold")
        gap = max(gap, 0.0)
    try:
        conditions = verify_optimality(space, mu, nu, params, plan, potentials)
    except InfeasibleInputs as exc:
        raise SolverFailure(f"the certificate rejects the solver's own plan: {exc}") from None
    return _report(mu, nu, value, plan, mass, curve, potentials, gap, conditions)


def _report(
    mu: DiscreteMeasure, nu: DiscreteMeasure, value: Scalar, plan: TransportPlan, mass: Scalar,
    curve, potentials: DualPotentials | None = None, gap: Scalar | None = None,
    conditions: OptimalityCertificate | None = None,
) -> SolveReport:
    """The one constructor of a :class:`SolveReport`, for every order: a plan
    that ships ``mass`` destroys ``mu.mass - mass`` and creates
    ``nu.mass - mass``.  Potentials, gap and certificate come at p = 1 only,
    from :func:`certified_report`; the curve comes from the curve scan."""
    return SolveReport(
        value=value, plan=plan, potentials=potentials, transported_mass=mass,
        destroyed_mass=mu.mass - mass, created_mass=nu.mass - mass,
        duality_gap=gap, conditions=conditions, curve=curve,
    )


def waste_route(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> tuple[TransportPlan, DualPotentials]:
    """The canonical plan of the waste-network flow and the potentials of its last phase.

    One cost matrix serves both modes: b d on the transport arcs, a on the
    waste row and column, 0 at their corner.  In exact mode its entries are
    ints over one unit: D times the int of b / F_d, where D / F_d is the
    space's integer image, and the int of a; the flow divides the potentials
    by the unit once.
    """
    require_same_space(mu, nu, space=space)
    if params.p != 1:
        raise InvalidParams("this solver handles p = 1 only")
    a, b = coerce(params.a, space.exact), coerce(params.b, space.exact)
    n = space.n
    if space.exact:
        rows, F_d = space._scaled
        (b_unit, waste), unit = scaled([b / F_d, a])
    else:
        rows, b_unit, waste, unit = space.dist, b, a, None
    costs = [[b_unit * d for d in row] + [waste] for row in rows]
    costs.append([waste] * n + [0 * waste])  # a corner of the costs' own type
    sol = solve_transport(costs, [*mu.weights, nu.mass], [*nu.weights, mu.mass], cost_unit=unit)
    # Exact ties b d = 2a are indifferent in value; the canonical plan does
    # not ship on them.  The potentials already saturate at a on both
    # endpoints of a tied shipped arc, so the certificate survives the strip.
    # The cost is compared first: only a tie pays for the test x > 0, whose
    # entry becomes 0 * x, a zero of the flow's own scalar type.
    tie = 2 * waste
    plan = tuple(
        tuple(0 * x if c == tie and x > 0 else x for x, c in zip(flows[:n], row))
        for flows, row in zip(sol.flow[:n], costs)
    )
    pot_src, pot_snk = sol.potential_src, sol.potential_snk
    phi1 = tuple(max(pot_snk[n] - pot_src[i], -a) for i in range(n))
    phi2 = tuple(max(pot_snk[j] - pot_src[n], -a) for j in range(n))
    return TransportPlan(space, plan), DualPotentials(phi1=phi1, phi2=phi2, params=params)
