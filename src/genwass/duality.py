"""Dual-side machinery for the order-1 problem: the primal objective of a
plan, truncated dual objective, feasibility of potential pairs, capped
c-transforms, the flat-metric LP, and the four-condition optimality
certificate.

Strong duality holds for p = 1: the primal value equals the best dual
objective over potential pairs bounded below by -a and coupled by
phi1(x) + phi2(y) <= b d(x,y).  The dual objective truncates each potential
through I(phi) = inf_{s>=0} (s phi + a|1-s|), which is phi on [-a, a], a
above, and minus infinity below.

Each p = 1 check has one implementation, run on integers when its inputs
are exact.  The space carries its distances as ints D over one factor F_d,
the plan its support as triples (i, j, G_ij) with ints G over F_g, and each
measure its weights as ints W over its own F_w (all from
``scalars.scaled``), by one rule: a plan or a measure has its image when
the space is exact and ``scalars.exactness`` finds every entry exact, ints
included.  The plan's row and column sums are int sums Gs of G over F_g,
and every reader of the plan runs over its support, not over n^2 entries.
One more ``scaled`` call puts a, the slack and the potentials over a
common factor F_p (ints A, S, P), and b enters as b_num / b_den.  With
L = b_den F_d and R = b_num F_p the dual feasibility test
phi1_i + phi2_j <= b d_ij + slack reads P1_i L + P2_j L <= R D_ij + S L,
the certificate's tightness gap b d_ij - phi1_i - phi2_j reads
R D_ij - P1_i L - P2_j L, and the primal value is one running sum of D G
over the support, divided once.  The certificate's per-point tests read
gamma_i <= mu_i as Gs F_w <= W F_g, gamma_i > 0 as Gs > 0, mu_i > tol as
W F_p > S F_w, and |(a - phi)(1 - g / w)| > tol as |(A - P) N| > S Q with
(N, Q) = (W F_g - Gs F_w, W F_g).  The dual objective sums T W with T the
truncated P and builds one Fraction at the end.  A float tolerance enters
as ``Fraction(tol)``, which is exact.  Float mode, and exact inputs that
hold a float, run the same expressions on the values themselves with every
factor 1 and (N, Q) = (1 - g / w, 1): the direct expressions, in the same
floating-point order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, ge, le, mul

from . import simplex
from .errors import InfeasibleInputs, InvalidParams, SpaceMismatch
from .measures import DiscreteMeasure, TransportPlan, require_same_space
from .params import EntropyParams
from .scalars import CERTIFY_TOL, FLOAT_MAX, NEG_INF, ROUNDING_TOL, Scalar, coerce, exactness, is_finite
from .scalars import in_float_range, scaled, scaled_rows
from .spaces import FiniteMetricSpace


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
    return ROUNDING_TOL * (1.0 + float(params.a) + float(params.b) * float(space.diameter))


def _terms(
    space: FiniteMetricSpace, potentials: DualPotentials, slack, plan: TransportPlan | None = None,
    measures: tuple[DiscreteMeasure, ...] = (),
):
    """The inputs of one p = 1 check: integer images when all of them are exact,
    else the values as they are with every factor 1 (F_g = F_p = F_w = L = 1, R = b).

    Returns (D, G, F_g, A, S, P1, P2, F_p, L, R, sides, ints), in the notation
    of the module docstring, G the plan's support over F_g.  ``sides``
    holds one (Gs, W, F_w) per measure in ``measures`` (mu, then nu): the
    plan's row sums for the first and column sums for the second, over F_g
    (empty without a plan), and the weights W over F_w.  ``ints`` tells which images were chosen.  A finite float slack
    enters the image as ``Fraction(slack)``.  The choice is made once per
    call, so one object's integer image never meets another object's raw
    values.  The potentials' lengths are checked by :func:`_feasible`, which
    every check runs before it reads P1 and P2.
    """
    params, phi1, phi2, n = potentials.params, potentials.phi1, potentials.phi2, space.n
    exact_slack = Fraction(slack) if isinstance(slack, float) and is_finite(slack) else slack
    values = (params.a, exact_slack, *phi1, *phi2)
    # one rule on an exact space: the plan (its unit then a Fraction), the
    # measures, a, b, the slack and the potentials have integer images when all
    # their values are exact, ints included; a float anywhere sends the raw values
    G, unit = plan._scaled if plan is not None else ((), Fraction(1))
    ints = (
        space.exact
        and isinstance(unit, Fraction)
        and all(m._scaled for m in measures)
        and exactness((params.b, *values))
    )
    if not ints:
        support = plan.support if plan is not None else ()
        sums = (plan.row_sums(), plan.col_sums()) if plan is not None else ((), ())
        sides = tuple((s, m.weights, 1) for s, m in zip(sums, measures))
        return space.dist, support, 1, params.a, slack, phi1, phi2, 1, 1, params.b, sides, False
    scaled_values, F_p = scaled(values)
    (D, F_d), b = space._scaled, params.b
    P1, P2 = scaled_values[2 : n + 2], scaled_values[n + 2 :]
    sums = plan._sums if plan is not None else ((), ())
    sides = tuple((Gs, *m._scaled) for Gs, m in zip(sums, measures))
    L, R = b.denominator * F_d, b.numerator * F_p
    return D, G, unit.denominator, scaled_values[0], scaled_values[1], P1, P2, F_p, L, R, sides, True


def is_feasible_pair(space: FiniteMetricSpace, potentials: DualPotentials, slack=None) -> bool:
    """phi_i >= -a - slack, and phi1_i + phi2_j <= b d_ij + slack for every pair (i, j)."""
    if slack is None:
        slack = feasibility_slack(space, potentials.params)
    return _feasible(space, potentials, _terms(space, potentials, slack))


def _feasible(space: FiniteMetricSpace, potentials: DualPotentials, terms) -> bool:
    """:func:`is_feasible_pair` on the images ``terms`` of the potentials and its slack."""
    if len(potentials.phi1) != space.n or len(potentials.phi2) != space.n:
        raise SpaceMismatch("potential vectors do not match the space")
    D, _, _, A, S, P1, P2, _, L, R, _, _ = terms
    # each test is written so that a NaN fails it
    floor = -A - S
    if not (all(map(ge, P1, repeat(floor))) and all(map(ge, P2, repeat(floor)))):
        return False
    # P1_i L + P2_j L <= R D_ij + S L, one row i at a time
    q2, loose = [v * L for v in P2], S * L
    return all(
        all(map(le, map(add, repeat(p1 * L), q2), map(add, map(mul, repeat(R), row), repeat(loose))))
        for p1, row in zip(P1, D)
    )


def evaluate_dual(
    potentials: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[bool, Scalar]:
    """Feasibility of the pair plus its truncated dual objective.

    A potential below -a meeting positive mass short-circuits the objective
    to -inf, so the sentinel never enters ordinary arithmetic.  The objective
    is one running sum of T W, phi1 first, with T the truncated potential;
    on integer images each side's weights are brought over F_w1 F_w2 and the
    sum is divided once, else it runs on the values themselves.
    """
    require_same_space(mu, nu)
    space = mu.space
    terms = _terms(space, potentials, feasibility_slack(space, potentials.params), measures=(mu, nu))
    feasible = _feasible(space, potentials, terms)
    _, _, _, A, _, P1, P2, F_p, _, _, sides, ints = terms
    (_, W1, F1), (_, W2, F2) = sides

    total = 0 if ints else coerce(0, space.exact)
    for P, W, other in ((P1, W1, F2), (P2, W2, F1)):
        for p, w in zip(P, W):
            if w == 0:
                continue
            t = truncate_potential(p, A)
            if t == NEG_INF:
                return feasible, NEG_INF
            total += t * w * other
    return feasible, Fraction(total, F_p * F1 * F2) if ints else total


def primal_value(
    plan: TransportPlan, mu: DiscreteMeasure, nu: DiscreteMeasure, params: EntropyParams
) -> Scalar:
    """The p = 1 primal objective a(|mu| - m) + a(|nu| - m) + b sum d gamma of a plan of mass m.

    sum d gamma is one running sum of D G over the plan's support, in
    row-major order: over the integer images of the metric and the plan when
    the plan has one, divided once by the product of their factors, else
    over the values themselves.
    """
    if params.p != 1:
        raise InvalidParams("this primal objective is only defined for p = 1")
    space, m = plan.space, plan.total
    require_same_space(mu, nu, space=space)
    a, b = coerce(params.a, space.exact), coerce(params.b, space.exact)
    G, unit = plan._scaled
    D, F_d = space._scaled if isinstance(unit, Fraction) else (space.dist, 1)
    cost = sum(D[i][j] * g for i, j, g in G)
    return a * (mu.mass - m) + a * (nu.mass - m) + b * (coerce(cost, space.exact) / (F_d * unit.denominator))


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
    if params.p != 1:
        raise InvalidParams("the flat-metric LP is only defined for p = 1")
    require_same_space(mu, nu, space=space)
    n = space.n
    a = Fraction(params.a)
    b = Fraction(params.b)
    c = [Fraction(mu.weights[i]) - Fraction(nu.weights[i]) for i in range(n)]
    if space.exact:
        dist, d = space.dist, space._scaled[0]
    else:
        dist = [[Fraction(x) for x in row] for row in space.dist]
        d, _ = scaled_rows(dist)

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
    if not space.exact:  # f lies in [-a, a], but the value can pass float range
        value = in_float_range(coerce(value, False), "the flat-metric value")
        f = tuple(float(v) for v in f)
    return value, FlatWitness(f=f)


def verification_tol(tol: Scalar | None, exact: bool) -> Scalar:
    """The given tolerance, finite and nonnegative, or by default 0 (exact) or CERTIFY_TOL (float)."""
    if tol is None:
        return 0 if exact else CERTIFY_TOL
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
    *,
    feasible_at: Scalar | None = None,
) -> OptimalityCertificate:
    """Check the four optimality conditions of a (plan, potentials) pair.

    With gamma_i the plan marginals (its row and column sums), mu_1 = mu and
    mu_2 = nu, the canonical sets are A_i = support(gamma_i) union {mu_i = 0};
    f_i = gamma_i / mu_i is the density where mu_i > 0, and the mass of mu_i
    where gamma_i vanishes is destroyed outright (the singular part).  The
    conditions are
      (i)   gamma_i puts no mass outside A_i and the singular part none inside,
      (ii)  phi1[x] + phi2[y] = b d[x][y] wherever the plan ships,
      (iii) (a - phi_i[x]) (1 - f_i[x]) = 0 on A_i against mu_i,
      (iv)  phi_i = a wherever mass is destroyed outright.
    Optimality only requires SOME admissible sets to exist; the canonical
    choice is fixed for determinism, and it meets (i) by construction:
    gamma_i vanishes outside A_i, and the singular part lives where gamma_i
    vanishes and mu_i does not, which is outside A_i.  So (i) is not scanned.
    Where gamma_i vanishes f_i is 0 and (iii)'s product is |a - phi_i[x]|,
    which is (iv).  So after the test gamma_i <= mu_i, one pass over the row
    and column sums checks (iii) with the density g / w where gamma_i > 0 and
    (iv) elsewhere, the latter only at points whose mass mu_i[x] exceeds tol.
    Every test reads the images of :func:`_terms`, as the module docstring
    writes them.

    ``feasible_at`` is a slack at which the caller has already found the
    potentials feasible (:func:`evaluate_dual` tests them at
    :func:`feasibility_slack`).  When it equals this check's slack, the dual
    feasibility test is that same test and is not run again.
    """
    if params.p != 1:
        raise InvalidParams("the certificate is only defined for p = 1")
    require_same_space(mu, nu, space=space)
    if plan.space != space:
        raise SpaceMismatch("plan lives on a different space")
    if potentials.params != params:
        raise InvalidParams("the potentials were computed for other parameters")
    tol = verification_tol(tol, space.exact)

    D, G, F_g, A, S, P1, P2, F_p, L, R, sides, ints = _terms(space, potentials, tol, plan, (mu, nu))
    for Gs, W, F_w in sides:
        # a float cap is w + tol + ROUNDING_TOL * w; where that rounds to inf,
        # FLOAT_MAX still refuses a marginal past float range
        caps = W if space.exact else [min(w + tol + ROUNDING_TOL * w, FLOAT_MAX) for w in W]
        if not all(map(le, map(mul, Gs, repeat(F_w)), map(mul, caps, repeat(F_g)))):
            raise InfeasibleInputs("plan marginals exceed the problem measures")
    slack = max(tol, feasibility_slack(space, params))
    if slack != feasible_at and not is_feasible_pair(space, potentials, slack=slack):
        raise InfeasibleInputs("potentials violate the dual constraints")

    # (ii) where the plan ships more than tol: |b d_ij - phi1_i - phi2_j| <= tol
    shipped, loose = S * F_g, S * L
    violations: list[tuple[str, tuple]] = [
        ("ii", (i, j)) for i, j, g in G if g * F_p > shipped and abs(R * D[i][j] - P1[i] * L - P2[j] * L) > loose
    ]
    tight_on_plan = not violations

    sets = []
    unsaturated = {"iii": [], "iv": []}
    for side, ((Gs, W, F_w), P) in enumerate(zip(sides, (P1, P2)), 1):
        sets.append(tuple(x for x, (g, w) in enumerate(zip(Gs, W)) if g > 0 or w == 0))
        destroyed = S * F_w  # (iv) only where w > tol
        for x, (g, w, p) in enumerate(zip(Gs, W, P)):
            shipped = g > 0  # (iii) on the support of gamma_i, else (iv); g / w only where w > 0
            if w * F_p > (0 if shipped else destroyed):
                # |(a - phi)(1 - g / w)| > tol, with 1 - g / w = N / Q
                N, Q = (w * F_g - g * F_w, w * F_g) if ints else (1 - g / w, 1)
                if abs((A - p) * N) > S * Q:
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
