"""Exact primal solver for the order-1 unbalanced distance.

The sub-marginal reformulation
    value = min over plans gamma (rows <= mu, cols <= nu) of
            a(|mu| - m) + a(|nu| - m) + b sum d[i][j] gamma[i][j],   m = sum gamma,
ships a unit along a path of cost c only where c < 2a, the waste it saves.
Successive shortest paths ship in nondecreasing path cost, so the optimum is
the transport flow of the costs b d stopped at the rate 2a: it ships the
smallest optimal mass, and no arc with b d >= 2a carries any of it.

On an exact space that flow runs on the metric's skeleton, Beckmann's form
of the problem (Essid & Solomon 2018):
    min over edge flows F and sub-marginals of
            a(|mu| - m) + a(|nu| - m) + b sum over irreducible pairs d_ij |F_ij|,
where F moves the shipped part of mu onto the shipped part of nu along the
irreducible pairs, those with no third point on a geodesic between them.
Every distance is a shortest path over them, so the value is the same; it is
the LP dual of the flat metric, whose Lipschitz rows need only these pairs.
The flow keeps one potential pi_i per point, and the plan is its edge flow
cut into paths; a float weight there is read as the rational it holds.
Float spaces, where rounding cannot decide geodesic equality, run on the
complete bipartite network, with a potential per supply and per demand.

The duals are phi1_i = max(a - pi_i, -a) and phi2_j = max(pi_j - a, -a), from
the potentials pi of that flow's last Dijkstra phase, the first n for phi1 and
the last n for phi2: on the skeleton the same n, one per point.  They lie in
[0, 2a], pi_T = 2a, and pi_j - pi_i <= b d_ij with equality where flow ships.
On the skeleton the arcs give that bound on the irreducible pairs, a geodesic
of them on every other pair, and the range [0, 2a] on pairs with b d >= 2a,
which the network leaves out.  The pair is feasible and complementary-slack
with the plan, so the duality gap is zero in exact mode.
:func:`certified_report` builds every p = 1 report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import (
    DualPotentials,
    OptimalityCertificate,
    evaluate_dual,
    feasibility_slack,
    primal_value,
    verify_optimality,
)
from .errors import InfeasibleInputs, InvalidParams, SolverFailure
from .flow import solve_transport
from .measures import DiscreteMeasure, TransportPlan, measure, require_same_space
from .params import EntropyParams
from .scalars import CERTIFY_TOL, Scalar, coerce, in_float_range, scaled
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
    """Solve the order-1 problem, returning value, plan, and certified duals.

    In exact mode the flow's costs are ints over one unit, D times the int of b / F_d
    for the space's integer image D / F_d, and its rate is twice the int of a.
    It runs on the space's irreducible pairs, float weights read as rationals."""
    mu, nu = _read_measures(space, mu, nu)
    if params.p != 1:
        raise InvalidParams("this solver handles p = 1 only")
    a, b = coerce(params.a, space.exact), coerce(params.b, space.exact)
    if space.exact:
        rows, F_d = space._scaled
        (b_unit, a_unit), unit = scaled([b / F_d, a])
    else:
        rows, b_unit, a_unit, unit = space.dist, b, a, None
    costs = rows if b_unit == 1 else [[b_unit * d for d in row] for row in rows]
    sol = solve_transport(
        costs, list(mu.weights), list(nu.weights), cost_unit=unit, rate=2 * a_unit, pairs=space._irreducible
    )
    phi1 = tuple(max(a - pi, -a) for pi in sol.potentials[: space.n])
    phi2 = tuple(max(pi - a, -a) for pi in sol.potentials[-space.n :])
    plan = TransportPlan(space, sol.support)
    potentials = DualPotentials(phi1, phi2, params)
    value = in_float_range(primal_value(plan, mu, nu, params), "the value at p = 1")  # before the gap
    return certified_report(space, mu, nu, params, plan, value, potentials)


def _read_measures(space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The measures of a problem on ``space``, checked to lie on it.  On an
    exact space a float weight is read as the rational it holds, so every
    order runs one flow contract: exact spaces, exact flows."""
    require_same_space(mu, nu, space=space)
    if space.exact:
        return tuple(m if m._scaled else measure(space, m.weights) for m in (mu, nu))
    return mu, nu


def certified_report(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams,
    plan: TransportPlan, value: Scalar, potentials: DualPotentials,
) -> SolveReport:
    """The p = 1 report of a plan of this value, with the certificate of the
    plan against ``potentials``.  Their duality gap must be 0 in exact mode; in
    float mode it is rounding up to CERTIFY_TOL * (1 + |value|), reported
    clamped at 0.  An infeasible pair, a larger gap, or a plan and potentials
    that fail the certificate's own checks is a SolverFailure.  The report
    itself comes from :func:`_report`, as the p > 1 scan's does.

    The certificate skips its dual feasibility test where that test is the
    one :func:`evaluate_dual` passed, at the same slack: in exact mode both
    are 0.  In float mode the certificate's slack is at least CERTIFY_TOL,
    and both tests run.
    """
    feasible, objective = evaluate_dual(potentials, mu, nu)
    gap = value - objective
    if space.exact:
        if not feasible or gap != 0:
            raise SolverFailure(f"exact solve left a duality gap of {gap}")
    else:
        # written so that a NaN gap fails, as a NaN potential does
        if not (feasible and abs(gap) <= CERTIFY_TOL * (1.0 + abs(float(value)))):
            raise SolverFailure(f"duality gap {gap} exceeds the certification threshold")
        gap = max(gap, 0.0)
    try:
        slack = feasibility_slack(space, params)  # evaluate_dual's, which the pair passed
        conditions = verify_optimality(space, mu, nu, params, plan, potentials, feasible_at=slack)
    except InfeasibleInputs as exc:
        raise SolverFailure(f"the certificate rejects the solver's own plan: {exc}") from None
    return _report(mu, nu, value, plan, plan.total, None, potentials, gap, conditions)


def _report(
    mu: DiscreteMeasure, nu: DiscreteMeasure, value: Scalar, plan: TransportPlan, mass: Scalar,
    curve, potentials: DualPotentials | None = None, gap: Scalar | None = None,
    conditions: OptimalityCertificate | None = None,
) -> SolveReport:
    """The one constructor of a :class:`SolveReport`, for every order: a plan
    that ships ``mass`` destroys ``mu.mass - mass`` and creates
    ``nu.mass - mass``.  Potentials, gap and certificate come at p = 1 only,
    from :func:`certified_report`; the curve comes from the p > 1 scan."""
    return SolveReport(
        value=value, plan=plan, potentials=potentials, transported_mass=mass,
        destroyed_mass=mu.mass - mass, created_mass=nu.mass - mass,
        duality_gap=gap, conditions=conditions, curve=curve,
    )

