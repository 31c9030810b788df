"""Dual-side machinery for the order-1 problem: the primal objective of a
plan, truncated dual objective, feasibility of potential pairs, capped
c-transforms, the flat-metric LP, and the four-condition optimality
certificate.

Strong duality holds for p = 1: the primal value equals the best dual
objective over potential pairs bounded below by -a and coupled by
phi1(x) + phi2(y) <= b d(x,y).  The dual objective truncates each potential
through I(phi) = inf_{s>=0} (s phi + a|1-s|), which is phi on [-a, a], a
above, and minus infinity below.

Exact mode runs the p = 1 checks on integers.  The space carries its
distances as ints D over one factor F_d and the plan its entries as ints G
over F_g (both from ``scalars.scaled``); one more ``scaled`` call puts a,
the slack and the potentials over a common factor F_p.  The dual
feasibility test phi1_i + phi2_j <= b d_ij + slack becomes
(P1_i + P2_j - S) b_den F_d <= b_num D_ij F_p, the certificate's support and
tightness tests multiply through the same way, and the primal value sums
D G and divides once.  A float tolerance enters as ``Fraction(tol)``, which
is exact.  Float mode, and exact inputs that hold a float, keep the direct
expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from . import simplex
from .errors import InfeasibleInputs, InvalidParams, InvalidWeight, SpaceMismatch
from .measures import (
    DiscreteMeasure,
    TransportPlan,
    is_submeasure,
    lebesgue_decompose,
    require_same_space,
)
from .params import EntropyParams
from .scalars import NEG_INF, Scalar, coerce, is_exact, is_finite, scaled
from .spaces import FiniteMetricSpace

# Feasibility slack for float-mode potential checks, scaled by a + b*diam.
FLOAT_DUAL_RTOL = 1e-12


@dataclass(frozen=True)
class DualPotentials:
    """A potential pair (phi1, phi2) with its cost parameters.

    Feasible pairs satisfy phi_i >= -a everywhere and the coupling
    phi1[x] + phi2[y] <= b d[x][y] for every pair of points.
    """

    phi1: tuple[Scalar, ...]
    phi2: tuple[Scalar, ...]
    params: EntropyParams


@dataclass(frozen=True)
class FlatWitness:
    """A witness function for the flat metric: |f| <= a and f is b-Lipschitz."""

    f: tuple[Scalar, ...]


@dataclass(frozen=True)
class OptimalityCertificate:
    """Outcome of the four optimality conditions for a (plan, potentials) pair.

    a1/a2 are the canonical support sets; each condition flag comes with the
    list of witnesses that violated it (empty when the condition holds).
    """

    a1: tuple[int, ...]
    a2: tuple[int, ...]
    support_ok: bool
    tight_on_plan: bool
    density_complementarity: bool
    saturated_on_destroyed: bool
    violations: tuple[tuple[str, tuple], ...]

    @property
    def passed(self) -> bool:
        return all(self.conditions().values())

    def conditions(self) -> dict[str, bool]:
        return {
            "i": self.support_ok,
            "ii": self.tight_on_plan,
            "iii": self.density_complementarity,
            "iv": self.saturated_on_destroyed,
        }


def truncate_potential(phi: Scalar, a: Scalar) -> Scalar:
    """The dual-objective truncation: a above a, identity on [-a, a],
    minus infinity below -a (returned as the float -inf sentinel)."""
    if phi > a:
        return a
    if phi >= -a:
        return phi
    return NEG_INF


def feasibility_slack(space: FiniteMetricSpace, params: EntropyParams) -> Scalar:
    if space.exact:
        return 0
    return FLOAT_DUAL_RTOL * (1.0 + float(params.a) + float(params.b) * float(space.diameter))


def _scaled_duals(space: FiniteMetricSpace, potentials: DualPotentials, slack):
    """Exact mode's integer image of the dual data, or None.

    Returns (A, S, P1, P2, F_p, b_num, b_den): a, the slack and the potentials
    as ints over their common denominator F_p, from one ``scaled`` call, and b
    as numerator over denominator.  A float slack (a float tolerance) enters
    as ``Fraction(slack)``, which is exact.  None when the space has no
    integer distances, a potential vector does not match it, or a value is
    not exact: those checks keep their own expressions.
    """
    params, n = potentials.params, space.n
    if space._scaled is None or len(potentials.phi1) != n or len(potentials.phi2) != n:
        return None
    if isinstance(slack, float) and is_finite(slack):
        slack = Fraction(slack)
    values = (params.a, slack, *potentials.phi1, *potentials.phi2)
    if not (is_exact(params.b) and all(map(is_exact, values))):
        return None
    ints, factor = scaled(values)
    return ints[0], ints[1], ints[2 : n + 2], ints[n + 2 :], factor, params.b.numerator, params.b.denominator


def is_feasible_pair(space: FiniteMetricSpace, potentials: DualPotentials, slack=None) -> bool:
    a, b = potentials.params.a, potentials.params.b
    if slack is None:
        slack = feasibility_slack(space, potentials.params)
    image = _scaled_duals(space, potentials, slack)
    if image is not None:
        # phi_i >= -a - slack, and phi1_i + phi2_j <= b d_ij + slack multiplied through
        # by F_p b_den F_d:  P2_j b_den F_d - b_num D_ij F_p <= (S - P1_i) b_den F_d
        A, S, P1, P2, F_p, b_num, b_den = image
        if min(P1) < -A - S or min(P2) < -A - S:
            return False
        D, F_d = space._scaled
        lhs, rhs = b_den * F_d, b_num * F_p
        q2 = [v * lhs for v in P2]
        return all(max(map(sub, q2, map(rhs.__mul__, row))) <= (S - p1) * lhs for p1, row in zip(P1, D))
    phi1, phi2 = potentials.phi1, potentials.phi2
    if any(v < -a - slack for v in phi1) or any(v < -a - slack for v in phi2):
        return False
    for i in range(space.n):
        for j in range(space.n):
            if phi1[i] + phi2[j] > b * space.dist[i][j] + slack:
                return False
    return True


def evaluate_dual(
    potentials: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[bool, Scalar]:
    """Feasibility of the pair plus its truncated dual objective.

    A potential below -a meeting positive mass short-circuits the objective
    to -inf, so the sentinel never enters ordinary arithmetic.
    """
    require_same_space(mu, nu)
    space = mu.space
    if len(potentials.phi1) != space.n or len(potentials.phi2) != space.n:
        raise SpaceMismatch("potential vectors do not match the space")
    a = potentials.params.a
    feasible = is_feasible_pair(space, potentials)

    total = coerce(0, space.exact)
    for phi, m in ((potentials.phi1, mu), (potentials.phi2, nu)):
        for v, w in zip(phi, m.weights):
            if w == 0:
                continue
            t = truncate_potential(v, a)
            if t == NEG_INF:
                return feasible, NEG_INF
            total += t * w
    return feasible, total


def primal_value(
    plan: TransportPlan, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> Scalar:
    """The p = 1 primal objective a(|mu| - m) + a(|nu| - m) + b sum d gamma of a plan of mass m.

    In exact mode sum d gamma is the sum of D G over the integer images of
    the metric and the plan, divided once by the product of their factors.
    """
    space, gamma, m, n = plan.space, plan.gamma, plan.total, plan.space.n
    a, b = coerce(params.a, space.exact), coerce(params.b, space.exact)
    if space._scaled is not None and plan._scaled is not None:
        (D, F_d), (G, F_g) = space._scaled, plan._scaled
        cost = Fraction(sum(sum(map(mul, d, g)) for d, g in zip(D, G)), F_d * F_g)
    else:
        cost = sum(space.dist[i][j] * gamma[i][j] for i in range(n) for j in range(n) if gamma[i][j])
    return a * (mu.mass - m) + a * (nu.mass - m) + b * coerce(cost, space.exact)


def c_transform(space: FiniteMetricSpace, phi, params: EntropyParams) -> tuple[Scalar, ...]:
    """The capped transform  x -> min( min_y (b d[x][y] - phi[y]), a ).

    The distance matrix is symmetric, so the same kernel transforms either
    potential into the other.  The output is always b-Lipschitz, and stays
    in [-a, a] whenever the input does.
    """
    if len(phi) != space.n:
        raise SpaceMismatch("potential vector does not match the space")
    a, b = params.a, params.b
    out = []
    for x in range(space.n):
        best = min(b * space.dist[x][y] - phi[y] for y in range(space.n))
        out.append(best if best < a else a)
    return tuple(out)


def solve_flat(
    space: FiniteMetricSpace, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> tuple[Scalar, FlatWitness]:
    """Maximize  sum f (mu - nu)  over |f| <= a, b-Lipschitz f.

    Solved as an explicit LP by the exact simplex; the route reads only the
    metric, the measures and (a, b), and is deliberately independent of the
    flow solver so agreement between the two is a genuine cross-check.
    Substituting x = f + a (so x >= 0) makes the slack basis feasible.

    The Lipschitz constraint on a pair (i, j) gets a row only when no third
    point k lies on a geodesic, d(i,j) = d(i,k) + d(k,j), compared exactly
    (also in float mode).  A dropped row is implied by the rows of (i, k) and
    (k, j), both strictly shorter, so by induction on distance the feasible
    set and the value are those of the full O(n^2) LP; the witness is an
    optimal vertex of it, and may differ from the one the full LP would pick.
    """
    require_same_space(mu, nu)
    n = space.n
    a = Fraction(params.a)
    b = Fraction(params.b)
    c = [Fraction(mu.weights[i]) - Fraction(nu.weights[i]) for i in range(n)]
    dist = [[Fraction(x) for x in row] for row in space.dist]
    if space._scaled is not None:
        d = space._scaled[0]
    else:
        flat, _ = scaled([x for row in dist for x in row])
        d = [flat[i * n : (i + 1) * n] for i in range(n)]

    rows = []
    rhs = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(row)
        rhs.append(2 * a)
    for i in range(n):
        for j in range(n):
            # k = i and k = j always meet the equality (d is symmetric)
            if i == j or [x + y for x, y in zip(d[i], d[j])].count(d[i][j]) > 2:
                continue
            row = [0] * n
            row[i] = 1
            row[j] = -1
            rows.append(row)
            rhs.append(b * dist[i][j])

    shifted, x = simplex.maximize(c, rows, rhs)
    value = shifted - a * sum(c)
    f = tuple(xi - a for xi in x)
    if not space.exact:
        value = float(value)
        f = tuple(float(v) for v in f)
    return value, FlatWitness(f=f)


def verification_tol(tol: Scalar | None, exact: bool) -> Scalar:
    """The given tolerance, finite and nonnegative, or by default 0 (exact) or 1e-9 (float)."""
    if tol is None:
        return 0 if exact else 1e-9
    if not (is_finite(tol) and tol >= 0):
        raise InvalidParams(f"the tolerance must be finite and nonnegative, got {tol}")
    return tol


def verify_optimality(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    params: EntropyParams,
    plan: TransportPlan,
    potentials: DualPotentials,
    tol: Scalar | None = None,
) -> OptimalityCertificate:
    """Check the four optimality conditions of a (plan, potentials) pair.

    With gamma_i the plan marginals and mu_i = g_i gamma_i + sing_i the
    finite-support Lebesgue decomposition, the canonical sets are
    A_i = support(gamma_i) union {mu_i = 0}; the conditions are
      (i)   gamma_i puts no mass outside A_i and sing_i none inside,
      (ii)  phi1[x] + phi2[y] = b d[x][y] wherever the plan ships,
      (iii) (a - phi_i[x]) (1 - f_i[x]) = 0 on A_i against mu_i, where f_i is
            the density of gamma_i with respect to mu_i,
      (iv)  phi_i = a wherever mass is destroyed outright (singular part).
    Optimality only requires SOME admissible sets to exist; the canonical
    choice is fixed for determinism, and it meets (i) by construction:
    gamma_i vanishes outside A_i, and sing_i lives where gamma_i vanishes
    and mu_i does not, which is outside A_i.  So (i) is not scanned.  Where
    gamma_i vanishes the density f_i is 0 and (iii)'s product is
    |a - phi_i[x]|, which is (iv): one pass over the density checks (iii)
    where gamma_i > 0 and (iv) elsewhere, the latter only at points whose
    mass mu_i[x] exceeds tol.
    """
    require_same_space(mu, nu)
    if plan.space != space:
        raise SpaceMismatch("plan lives on a different space")
    tol = verification_tol(tol, space.exact)

    try:
        gammas = plan.marginals()
    except InvalidWeight:  # a marginal past float range exceeds any measure
        gammas = None
    if gammas is None or not all(is_submeasure(g, m, atol=tol) for g, m in zip(gammas, (mu, nu))):
        raise InfeasibleInputs("plan marginals exceed the problem measures")
    slack = max(tol, feasibility_slack(space, params))
    if not is_feasible_pair(space, potentials, slack=slack):
        raise InfeasibleInputs("potentials violate the dual constraints")

    a, b = params.a, params.b
    n = space.n
    violations: list[tuple[str, tuple]] = []
    image = _scaled_duals(space, potentials, slack)
    if image is not None and plan._scaled is not None:
        # the exact slack is tol: gamma_ij > tol and |b d_ij - phi1_i - phi2_j| > tol
        # multiplied through by F_p F_g and by F_p b_den F_d
        _, S, P1, P2, F_p, b_num, b_den = image
        (D, F_d), (G, F_g) = space._scaled, plan._scaled
        lhs, rhs = b_den * F_d, b_num * F_p
        shipped, loose = S * F_g, S * lhs
        for i, (g_row, d_row) in enumerate(zip(G, D)):
            for j, g in enumerate(g_row):
                if g and g * F_p > shipped and abs(rhs * d_row[j] - (P1[i] + P2[j]) * lhs) > loose:
                    violations.append(("ii", (i, j)))
    else:
        for i in range(n):
            for j in range(n):
                if plan.gamma[i][j] > tol:
                    gap = b * space.dist[i][j] - potentials.phi1[i] - potentials.phi2[j]
                    if abs(gap) > tol:
                        violations.append(("ii", (i, j)))
    tight_on_plan = not violations

    sets = []
    unsaturated = {"iii": [], "iv": []}
    sides = zip(gammas, (mu, nu), (potentials.phi1, potentials.phi2))
    for side, (gamma, m, phi) in enumerate(sides, 1):
        sets.append(tuple(x for x in range(n) if gamma.weights[x] > 0 or m.weights[x] == 0))
        for x, f in enumerate(lebesgue_decompose(gamma, m).density):
            shipped = gamma.weights[x] > 0  # (iii) on the support of gamma_i, else (iv)
            if m.weights[x] > (0 if shipped else tol) and abs((a - phi[x]) * (1 - f)) > tol:
                unsaturated["iii" if shipped else "iv"].append((side, x))
    violations += [(cond, w) for cond, ws in unsaturated.items() for w in ws]

    return OptimalityCertificate(
        a1=sets[0],
        a2=sets[1],
        support_ok=True,  # (i) holds for the canonical sets; the flag stays in the report
        tight_on_plan=tight_on_plan,
        density_complementarity=not unsaturated["iii"],
        saturated_on_destroyed=not unsaturated["iv"],
        violations=tuple(violations),
    )
