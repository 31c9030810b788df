"""Independent brute-force reference solver over integer-mass instances.

Why exhaustive integer enumeration is exact for every order p >= 1: the
objective  a(|mu| + |nu| - 2 sum gamma) + b (sum d^p gamma)^(1/p)  is concave
in gamma (a linear term plus an increasing concave function of a linear map),
so its minimum over the feasible polytope {gamma >= 0, rows <= mu, cols <= nu}
is attained at a vertex.  That polytope has transportation structure, hence
integral vertices whenever mu and nu are integral; enumerating all integer
sub-marginal matrices therefore covers every vertex.  Rational masses are
rescaled to integers by callers before invoking the oracle.

The enumeration stays exhaustive: every integer plan is walked.  What each
plan costs to evaluate is cut instead.  The objective depends on a plan
only through its shipped mass m and transport cost t = sum d^p gamma, so it
is evaluated once per distinct (m, t), and on an exact space with an integer
p, t is summed as an int over integer costs.  The oracle scales the
distances itself; it does not read the integer image the space caches for
the flow, so the two routes share no cost table.

This module is deliberately slow and simple: it exists to cross-check the
flow and simplex solvers, not to be used for solving.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TooLarge
from .measures import DiscreteMeasure, require_same_space
from .params import EntropyParams
from .scalars import Scalar, scaled
from .spaces import FiniteMetricSpace

DEFAULT_PLAN_CAP = 10_000_000


def brute_force_value(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    params: EntropyParams,
    cap: int = DEFAULT_PLAN_CAP,
) -> Scalar:
    """Minimum objective over every enumerated integer plan.

    Exact (rational) for p = 1; for p > 1 the root is evaluated in floats.
    On an exact space with an integer p the costs are D^p over F^p, for the
    distances D over their common denominator F, and the objective takes
    t = Fraction(t, F^p) once per distinct (m, t), in the order of first
    appearance: the same value, and the same float root, as a Fraction sum
    per plan.  Other spaces and orders evaluate their own float or Fraction
    sums, de-duplicated the same way.
    """
    require_same_space(mu, nu, space=space)
    a, b, p = params.a, params.b, params.p
    exponent = int(p) if p == int(p) else float(p)
    total = mu.mass + nu.mass
    inv_p = 1.0 / float(p)
    unit = None  # F^p, when the costs are integers
    if space.exact and type(exponent) is int:
        n = space.n
        flat, factor = scaled([x for row in space.dist for x in row])
        costs = [[x**exponent for x in flat[i * n : (i + 1) * n]] for i in range(n)]
        unit = factor**exponent
    else:
        costs = [[d**exponent for d in row] for row in space.dist]
    best = None
    for m, t in dict.fromkeys((m, t) for _, m, t in _odometer(mu, nu, cap, costs)):
        if unit is not None:
            t = Fraction(t, unit)
        if p == 1:
            value = a * (total - 2 * m) + b * t
        else:
            value = a * (total - 2 * m) + b * float(t) ** inv_p
        if best is None or value < best:
            best = value
    return best


def _odometer(mu: DiscreteMeasure, nu: DiscreteMeasure, cap: int, costs):
    """Walk every integer sub-marginal plan once, yielding (gamma, m, t).

    ``gamma`` is the live matrix (copy it to keep it), ``m`` its shipped
    mass and ``t`` the sum of costs[i][j] * gamma[i][j], both carried along
    the odometer so each leaf costs O(1).
    """
    require_same_space(mu, nu)
    row_left = _integer_weights(mu)
    col_left = _integer_weights(nu)
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


def _integer_weights(m: DiscreteMeasure) -> list[int]:
    out = []
    for i, w in enumerate(m.weights):
        if w != int(w):
            raise ValueError(f"oracle needs integer masses, got {w} at point {i}")
        out.append(int(w))
    return out
