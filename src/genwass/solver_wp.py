"""General-order solver: equal-mass transport cost, the parametric
transported-mass curve, and the unbalanced value by breakpoint scan.

The accumulated cost T(m) of the cheapest plan shipping mass m (with
sub-marginal constraints) is piecewise linear and convex; successive
shortest paths produce exactly its breakpoints.  The unbalanced value is
    min over m of  V(m) = a(|mu| + |nu| - 2m) + b T(m)^(1/p).
On each linear segment of T, V is concave (an increasing concave root of a
linear function plus a linear term), so the minimum over the segment sits at
an endpoint: scanning breakpoints is exact, no interior search is needed.
The same scan justifies the brute-force oracle's restriction to polytope
vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidParams, MassMismatch
from .flow import solve_transport
from .measures import DiscreteMeasure, TransportPlan, require_same_space
from .params import EntropyParams
from .scalars import FLOAT_MAX, Scalar, coerce, exactness
from .solver_w1 import SolveReport, solve_w1
from .spaces import FiniteMetricSpace

MASS_RTOL = 1e-12


@dataclass(frozen=True)
class ParametricCurve:
    """Breakpoints (m_k, T_k) of the parametric min-cost transport value.

    m_0 = 0, T_0 = 0, the masses increase strictly, and the slopes
    (T_{k+1}-T_k)/(m_{k+1}-m_k) are nondecreasing (convexity).  Float curves
    carry rounding and are checked within it: a mass may repeat (an
    augmentation below its ulp), and a breakpoint may lie above the chord of
    its neighbours by MASS_RTOL * (1 + max T_k).
    """

    breakpoints: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if not pts or pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("curve must start at (0, 0)")
        exact = exactness(chain.from_iterable(pts))[0]
        slack = 0 if exact else MASS_RTOL * (1.0 + max(abs(t) for _, t in pts))
        # (mp, tp) precedes (m0, t0); the first point precedes itself
        for (mp, tp), (m0, t0), (m1, t1) in zip((pts[0], *pts), pts, pts[1:]):
            if m1 < m0 or (exact and m1 == m0):
                raise ValueError("breakpoint masses must increase strictly")
            if t1 < t0:
                raise ValueError("accumulated cost cannot decrease")
            # slope into (m0, t0) <= slope out of it, cross-multiplied, up to the slack
            if (t0 - tp) * (m1 - m0) - (t1 - t0) * (m0 - mp) > slack * (m1 - mp):
                raise ValueError("curve slopes must be nondecreasing")

    @property
    def max_mass(self) -> Scalar:
        return self.breakpoints[-1][0]

    def value_at(self, m: Scalar) -> Scalar:
        """Piecewise-linear interpolation of T at mass m."""
        pts = self.breakpoints
        if m < 0 or m > self.max_mass:
            raise ValueError("mass outside the curve's range")
        for (m0, t0), (m1, t1) in zip(pts, pts[1:]):
            if m <= m1:
                return t0 + (t1 - t0) * (m - m0) / (m1 - m0)
        return pts[-1][1]


def _power_costs(space: FiniteMetricSpace, p) -> tuple[list[list[Scalar]], int | None]:
    """The costs d^p and the ``cost_unit`` for :func:`solve_transport`.

    Integer exponents keep rational distances exact: they are built on the
    space's integer image D / F_d as D^k over F_d^k, the same ints the flow
    would scale d^k to, since the lcm of the q^k is lcm(q)^k.  Fractional p
    forces floats.
    """
    exact = space.exact and p == int(p)
    # For p > 1 the value takes a float root of these powers, so they must stay
    # in float range; checking before they are formed also bounds exact sizes.
    if exact:
        top = max(max(x.numerator, x.denominator) for row in space.dist for x in row)
    else:
        top = max(map(max, space.dist))
    if p > 1 and p * math.log(max(top, 1)) > math.log(FLOAT_MAX):
        raise InvalidParams(f"p = {p} takes the p-th powers of the distances beyond float range")
    if exact:
        k = int(p)
        D, F_d = space._scaled
        return [[d**k for d in row] for row in D], F_d**k
    q = float(p)
    return [[float(d) ** q for d in row] for row in space.dist], None


def _root(t: Scalar, p) -> Scalar:
    # The p-th root is irrational in general, so it is evaluated in floats
    # even in exact mode for p > 1; p = 1 stays exact.
    if p == 1:
        return t
    try:
        return float(t) ** (1.0 / float(p))
    except OverflowError:
        raise InvalidParams(f"a transport cost of {t} at p = {p} is beyond float range") from None


def wasserstein_p(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, p
) -> Scalar:
    """Equal-mass transport cost of order p.

    Computed as the p-th root of the cheapest unnormalized plan with exact
    marginals; this matches the normalized definition because scaling the
    plan by the total mass scales the integral accordingly.
    """
    require_same_space(mu, nu)
    if p < 1:
        raise InvalidParams(f"p must be at least 1, got {p}")
    slack = 0 if space.exact else MASS_RTOL * (1.0 + max(float(mu.mass), float(nu.mass)))
    if abs(mu.mass - nu.mass) > slack:
        raise MassMismatch(f"|mu| = {mu.mass} differs from |nu| = {nu.mass}")
    if mu.mass == 0:
        return coerce(0, space.exact) if p == 1 else 0.0
    costs, unit = _power_costs(space, p)
    sol = solve_transport(costs, list(mu.weights), list(nu.weights), cost_unit=unit)
    return _root(sol.cost, p)


def parametric_transport_curve(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, p
) -> ParametricCurve:
    """Breakpoints of m -> min { sum d^p gamma : rows <= mu, cols <= nu, sum gamma = m }."""
    require_same_space(mu, nu)
    if p < 1:
        raise InvalidParams(f"p must be at least 1, got {p}")
    costs, unit = _power_costs(space, p)
    sol = solve_transport(costs, list(mu.weights), list(nu.weights), cost_unit=unit)
    return ParametricCurve(breakpoints=tuple(sol.breakpoints))


def solve_wp(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> SolveReport:
    """Unbalanced value of order p by scanning the parametric curve.

    Returns the attaining plan, whose marginals are the optimal reduced
    measures.  When the best breakpoint is the last one the plan is the
    curve's final flow; otherwise it comes from a second solve with the
    chosen mass as its target.  In float mode that re-solve may differ in the
    last bits from the flow the curve passed through at that mass.  For
    p = 1 the report also carries dual potentials (produced by the p = 1 dual
    construction) and the certificate; the breakpoint-scan value must close
    the gap against them.  For p > 1 no duality theory is claimed:
    potentials, gap and certificate are absent.
    """
    require_same_space(mu, nu)
    a = coerce(params.a, space.exact)
    b = coerce(params.b, space.exact)
    p = params.p

    costs, unit = _power_costs(space, p)
    sol = solve_transport(costs, list(mu.weights), list(nu.weights), cost_unit=unit)
    curve = sol.breakpoints
    mass = mu.mass + nu.mass

    best_idx = 0
    best_value = None
    for k, (m, t) in enumerate(curve):
        try:
            v = a * (mass - 2 * m) + b * _root(t, p)
        except OverflowError:  # an exact waste term past float range meets the float root
            raise InvalidParams(f"a = {float(a):g} puts the value at p = {p} beyond float range") from None
        # ties keep the smaller transported mass (first hit wins)
        if best_value is None or v < best_value:
            best_value = v
            best_idx = k

    m_star = curve[best_idx][0]
    if best_idx < len(curve) - 1:
        sol = solve_transport(costs, list(mu.weights), list(nu.weights), target=m_star, cost_unit=unit)
    plan = TransportPlan(space, tuple(tuple(row) for row in sol.flow))

    potentials = gap = conditions = None
    if p == 1:
        w1 = solve_w1(space, mu, nu, params)
        potentials, conditions = w1.potentials, w1.conditions
        gap = best_value - (w1.value - w1.duality_gap)
    return SolveReport(
        value=best_value,
        plan=plan,
        potentials=potentials,
        transported_mass=m_star,
        destroyed_mass=mu.mass - m_star,
        created_mass=nu.mass - m_star,
        duality_gap=gap,
        conditions=conditions,
        curve=list(curve),
    )


def solve(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> SolveReport:
    """Dispatch on the order: the dedicated p = 1 solver or the curve scan."""
    if params.p == 1:
        return solve_w1(space, mu, nu, params)
    return solve_wp(space, mu, nu, params)
