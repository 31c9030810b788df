"""General-order solver: equal-mass transport cost and the parametric
transported-mass curve of any order p >= 1, and the unbalanced value of order
p > 1 by a scan of the curve's vertices (order 1 is :mod:`solver_w1`'s).

The accumulated cost T(m) of the cheapest plan shipping mass m (with
sub-marginal constraints) is piecewise linear and convex; successive
shortest paths produce exactly its vertices, the points where its slope
rises.  The unbalanced value is
    min over m of  V(m) = a(|mu| + |nu| - 2m) + b T(m)^(1/p).
On each linear piece of T, V is concave (an increasing concave root of a
linear function plus a linear term), so the minimum over the piece sits at
an endpoint: scanning the vertices is exact, no interior search is needed.
The same argument justifies the exhaustive oracle's restriction to polytope
vertices.  On an exact space float weights are read as the rationals they
hold, at every order, so the curve and the plan stay exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidParams, MassMismatch
from .flow import solve_transport
from .measures import DiscreteMeasure, TransportPlan
from .params import EntropyParams
from .scalars import FLOAT_MAX, ROUNDING_TOL, Scalar, coerce, exactness, in_float_range, is_finite
from .solver_w1 import SolveReport, _report, _read_measures, solve_w1
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class ParametricCurve:
    """Breakpoints (m_k, T_k) of the parametric min-cost transport value.

    m_0 = 0, T_0 = 0, the masses increase strictly, and the slopes
    (T_{k+1}-T_k)/(m_{k+1}-m_k) are nondecreasing (convexity).  The solver's
    curves hold the vertices only, whose exact slopes increase strictly, but
    any convex list of points is accepted.  Float curves carry rounding and
    are checked within it: a breakpoint may lie above the chord of its
    neighbours by ROUNDING_TOL * (1 + max T_k).
    """

    breakpoints: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if not pts or pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("curve must start at (0, 0)")
        exact = exactness(chain.from_iterable(pts))
        slack = 0 if exact else ROUNDING_TOL * (1.0 + max(abs(t) for _, t in pts))
        # (mp, tp) precedes (m0, t0); the first point precedes itself
        for (mp, tp), (m0, t0), (m1, t1) in zip((pts[0], *pts), pts, pts[1:]):
            if m1 <= m0:
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
        if not 0 <= m <= self.max_mass:  # NaN fails both comparisons
            raise ValueError("mass outside the curve's range")
        for (m0, t0), (m1, t1) in zip(pts, pts[1:]):
            if m <= m1:
                return t0 + (t1 - t0) * (m - m0) / (m1 - m0)
        return pts[-1][1]  # m = 0 on the one-point curve of a zero measure


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


def _order_p_flow(space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, p):
    """Check an order-p problem, p by the rules of :class:`EntropyParams`, and
    return its transport flow on the costs d^p, not yet run, and the measures
    as :func:`solver_w1._read_measures` reads them: ``flow(target)`` ships
    ``target`` units, ``flow()`` as many as fit."""
    mu, nu = _read_measures(space, mu, nu)
    if not is_finite(p):
        raise InvalidParams(f"p must be finite and within float range, got {p}")
    if not p >= 1:
        raise InvalidParams(f"p must be at least 1, got {p}")
    costs, unit = _power_costs(space, p)
    return functools.partial(solve_transport, costs, list(mu.weights), list(nu.weights), cost_unit=unit), mu, nu


def wasserstein_p(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, p
) -> Scalar:
    """Equal-mass transport cost of order p.

    Computed as the p-th root of the cheapest unnormalized plan with exact
    marginals; this matches the normalized definition because scaling the
    plan by the total mass scales the integral accordingly.
    """
    flow, mu, nu = _order_p_flow(space, mu, nu, p)
    slack = 0 if space.exact else ROUNDING_TOL * (1.0 + max(float(mu.mass), float(nu.mass)))
    if abs(mu.mass - nu.mass) > slack:
        raise MassMismatch(f"|mu| = {mu.mass} differs from |nu| = {nu.mass}")
    return in_float_range(_root(flow().breakpoints[-1][1], p), f"the transport cost at p = {p}")


def parametric_transport_curve(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, p
) -> ParametricCurve:
    """Vertices of m -> min { sum d^p gamma : rows <= mu, cols <= nu, sum gamma = m }."""
    return ParametricCurve(breakpoints=tuple(_order_p_flow(space, mu, nu, p)[0]().breakpoints))


def solve_wp(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> SolveReport:
    """Unbalanced value of order p > 1 by scanning the vertices of the
    parametric curve; the report's ``curve`` is that vertex list.

    Returns the attaining plan, whose marginals are the optimal reduced
    measures: the curve's final flow, or a second solve with the chosen mass
    as its target when that is not the last vertex (in floats it may
    differ in the last bits from the flow the curve passed through there).
    No duality theory is claimed, and :func:`solver_w1._report` builds the
    report.  p = 1 raises InvalidParams: :func:`solve` sends it to
    :func:`solver_w1.solve_w1`, which certifies its answer.
    """
    p = params.p
    if p == 1:
        raise InvalidParams("solve_wp handles p > 1 only; use solve or solve_w1 at p = 1")
    flow, mu, nu = _order_p_flow(space, mu, nu, p)
    a, b = coerce(params.a, space.exact), coerce(params.b, space.exact)
    sol = flow()
    curve, mass = sol.breakpoints, mu.mass + nu.mass
    try:
        values = [a * (mass - 2 * m) + b * _root(t, p) for m, t in curve]
    except OverflowError:  # an exact waste term past float range meets the float root
        raise InvalidParams(f"a = {float(a):g} puts the value at p = {p} beyond float range") from None
    # ties keep the smaller transported mass (min keeps the first)
    best = min(range(len(curve)), key=values.__getitem__)
    value, m_star = in_float_range(values[best], f"the value at p = {p}"), curve[best][0]
    if best < len(curve) - 1:
        sol = flow(m_star)
    plan = TransportPlan(space, sol.support)
    return _report(mu, nu, value, plan, m_star, list(curve))


def solve(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> SolveReport:
    """Dispatch on the order: :func:`solve_w1` at p = 1, :func:`solve_wp` above."""
    if params.p == 1:
        return solve_w1(space, mu, nu, params)
    return solve_wp(space, mu, nu, params)
