"""Independent exhaustive reference solver over integer-mass instances.

Why a minimum over integer plans is exact for every order p >= 1: the
objective  a(|mu| + |nu| - 2 sum gamma) + b (sum d^p gamma)^(1/p)  is concave
in gamma (a linear term plus an increasing concave function of a linear map),
so its minimum over the feasible polytope {gamma >= 0, rows <= mu, cols <= nu}
is attained at a vertex.  That polytope has transportation structure, hence
integral vertices whenever mu and nu are integral, so a minimum over every
integer sub-marginal matrix covers every vertex.  Rational masses are
rescaled to integers by callers before invoking the oracle.

That minimum is found by dynamic programming, not by walking plans.  The
objective depends on a plan only through its shipped mass m and cost
t = sum d^p gamma, and for a fixed m it never decreases as t grows.  The
cells are taken in row-major order, t summed as t + cost * v cell by cell.
Partial plans that leave the same column residuals and the same residual of
the current row have the same completions, and as every sum (float rounding
included) is monotone, the one with the least t stays least after each
completion.  So only the least t per state is kept; a row's residual is
dropped at its end, where equal states merge, and m is the column mass less
the residuals.  The least t per m, T(m), is the least cost of an integer
plan shipping m, and the value is the least a(|mu| + |nu| - 2m) + b T(m)^(1/p).

On an exact space with an integer p, t is summed as an int over integer
costs.  The oracle scales the distances itself; it does not read the
integer image the space caches for the flow, so the two routes share no
cost table.  It exists to cross-check the flow and simplex solvers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TooLarge
from .measures import DiscreteMeasure, require_same_space
from .params import EntropyParams
from .scalars import Scalar, scaled_rows
from .spaces import FiniteMetricSpace

DEFAULT_PLAN_CAP = 10_000_000


def brute_force_value(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    params: EntropyParams,
    cap: int = DEFAULT_PLAN_CAP,
) -> Scalar:
    """Minimum objective over every integer sub-marginal plan.

    Exact (rational) for p = 1; for p > 1 the root is evaluated in floats.
    On an exact space with an integer p the costs are D^p over F^p, for the
    distances D over their common denominator F, and t = Fraction(t, F^p):
    the same value, and the same float root, as a Fraction sum per plan.
    Other spaces and orders sum their own float costs.

    ``cap`` bounds the states the dynamic program keeps after any cell; a
    cell that would keep more raises :class:`TooLarge`.  The states after a
    cell are at most the partial plans over the cells so far, so an instance
    with at most ``cap`` integer plans never reaches it.
    """
    require_same_space(mu, nu, space=space)
    a, b, p = params.a, params.b, params.p
    exponent = int(p) if p == int(p) else float(p)
    rows, cols = _integer_weights(mu), _integer_weights(nu)
    dist, unit = space.dist, None  # unit = F^p, when the costs are integers
    if space.exact and type(exponent) is int:
        dist, factor = scaled_rows(space.dist)
        unit = factor**exponent
    least = _least_costs(rows, cols, [[d**exponent for d in row] for row in dist], cap)
    if unit is not None:
        least = {m: Fraction(t, unit) for m, t in least.items()}
    total = mu.mass + nu.mass
    inv_p = 1.0 / float(p)
    return min(a * (total - 2 * m) + b * (t if p == 1 else float(t) ** inv_p) for m, t in least.items())


def _least_costs(rows: list[int], cols: list[int], costs, cap: int) -> dict:
    """{m: least t} over the integer plans with row sums <= rows and column
    sums <= cols, for t the row-major sum of costs[i][j] * gamma[i][j]."""
    states = {(tuple(cols), 0): 0}  # (column residuals, row residual) -> least t
    for row_left, cost_row in zip(rows, costs):
        for j, cost in enumerate(cost_row):
            grown = {}
            for (left, r), t in states.items():
                r = row_left if j == 0 else r  # a new row: the last one's residual is dropped
                head, c, tail = left[:j], left[j], left[j + 1 :]
                for v in range(min(r, c) + 1):
                    key, tv = (head + (c - v,) + tail, r - v), t + cost * v
                    if key not in grown:
                        if len(grown) == cap:
                            raise TooLarge(f"the oracle's dynamic program exceeds the cap of {cap} states")
                        grown[key] = tv
                    elif tv < grown[key]:
                        grown[key] = tv
            states = grown
    shipped, least = sum(cols), {}
    for (left, _), t in states.items():
        m = shipped - sum(left)
        if m not in least or t < least[m]:
            least[m] = t
    return least


def _integer_weights(m: DiscreteMeasure) -> list[int]:
    out = []
    for i, w in enumerate(m.weights):
        if w != int(w):
            raise ValueError(f"oracle needs integer masses, got {w} at point {i}")
        out.append(int(w))
    return out
