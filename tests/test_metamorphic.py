"""Exact metamorphic relations at sizes no independent route reaches.

The flat LP cross-check stops at n = 192 at p = 1 and the oracle at n = 9 at
p > 1; above them the certificate is the only check, and it reads the same
parsed metric as the flow.  Each relation here feeds the solver another
input whose answer the first one fixes.  Relabelling the points by a
permutation changes every tie-break, so every arc id the network builders
assign and every augmenting path; swapping mu and nu turns the transport
problem around.  Both leave the value exactly as it was, and at p > 1 the
curve's vertex list too.  Plans are not compared: a tie can pick another
optimal plan.  Exact p = 1 runs on the skeleton network, exact p = 2 on the
bipartite one.
"""

import random
from fractions import Fraction

import pytest

from genwass import EntropyParams, measure, solve, validate_metric
from genwass.selftest import random_int_metric, random_rational_measure
from reference import l1_metric

# each family's metric and its a, at b = 1/2
FAMILIES = {"closed": (lambda rng, n: random_int_metric(rng, n, max_d=9), 2), "l1": (l1_metric, 500)}


@pytest.mark.parametrize("p, n", [(1, 192), (2, 96)], ids=["p1-skeleton", "p2-bipartite"])
@pytest.mark.parametrize("family", FAMILIES)
def test_relabelling_and_swapping_keep_the_value_and_the_curve(family, p, n):
    rng = random.Random(3704)
    make, a = FAMILIES[family]
    space = make(rng, n)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    params = EntropyParams(a=a, b=Fraction(1, 2), p=p)
    order = rng.sample(range(n), n)  # point k of the relabelled space is point order[k]
    moved = validate_metric(
        [space.labels[i] for i in order], [[space.dist[i][j] for j in order] for i in order], exact=True
    )

    def relabelled(m):
        return measure(moved, [m.weights[i] for i in order])

    want = solve(space, mu, nu, params)
    for got in (solve(moved, relabelled(mu), relabelled(nu), params), solve(space, nu, mu, params)):
        assert got.value == want.value
        assert got.curve == want.curve
