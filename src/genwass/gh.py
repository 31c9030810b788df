"""Gromov-Hausdorff approximation maps between finite spaces: defects,
approximate inverses, equivariant defects, and the stability bound that
controls how pushing measures forward moves the unbalanced distance."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import GroupMismatch, InvalidParams, TargetIndexOutOfRange
from .measures import DiscreteMeasure, measure, pushforward
from .params import EntropyParams
from .scalars import Scalar
from .spaces import FiniteGroupAction, FiniteMetricSpace
from .solver_wp import solve


@dataclass(frozen=True)
class GHMap:
    """A point map with bounded metric distortion whose image is an
    epsilon-net of the target."""

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    table: tuple[int, ...]
    epsilon: Scalar


def gh_defect(table, source: FiniteMetricSpace, target: FiniteMetricSpace) -> Scalar:
    """The least epsilon for which the map is an epsilon-approximation:
    max of the pairwise distortion and the covering defect.

    The covering term is always computed by a full distance scan; a
    non-surjective map never takes an early exit.
    """
    table = _check_table(table, source, target)
    distortion = 0 * source.diameter
    for x in range(source.n):
        for y in range(source.n):
            gap = abs(target.dist[table[x]][table[y]] - source.dist[x][y])
            if gap > distortion:
                distortion = gap
    covering = 0 * distortion
    for t in range(target.n):
        nearest = min(target.dist[table[x]][t] for x in range(source.n))
        if nearest > covering:
            covering = nearest
    return max(distortion, covering)


def make_gh_map(table, source: FiniteMetricSpace, target: FiniteMetricSpace) -> GHMap:
    """Bundle a table with its computed defect."""
    table = _check_table(table, source, target)
    return GHMap(source=source, target=target, table=table, epsilon=gh_defect(table, source, target))


def approximate_inverse(ghmap: GHMap) -> GHMap:
    """For each target point pick a source point whose image lies within
    epsilon (the lowest admissible index, for determinism).

    The returned map is a 3-epsilon approximation, and the round trips obey
    d(x, f'(f(x))) <= 2 epsilon and d(y, f(f'(y))) <= epsilon.
    """
    src, tgt, table, eps = ghmap.source, ghmap.target, ghmap.table, ghmap.epsilon
    inverse = []
    for t in range(tgt.n):
        pick = None
        for x in range(src.n):
            if tgt.dist[table[x]][t] <= eps:
                pick = x
                break
        if pick is None:
            # covering guarantees an admissible preimage when eps >= defect
            pick = min(range(src.n), key=lambda x: tgt.dist[table[x]][t])
        inverse.append(pick)
    return make_gh_map(tuple(inverse), tgt, src)


def equivariant_defect(
    table, action_source: FiniteGroupAction, action_target: FiniteGroupAction
) -> Scalar:
    """GH defect plus the worst sup-distance between mapping-then-acting and
    acting-then-mapping, over all group elements (matched by label)."""
    src, tgt = action_source.space, action_target.space
    table = _check_table(table, src, tgt)
    if set(action_source.labels) != set(action_target.labels):
        raise GroupMismatch("the two actions must share a group label set")
    tgt_by_label = {lab: tgt_g for lab, tgt_g in zip(action_target.labels, action_target.elements)}

    worst = gh_defect(table, src, tgt)
    for lab, g in zip(action_source.labels, action_source.elements):
        h = tgt_by_label[lab]
        for x in range(src.n):
            gap = tgt.dist[table[g[x]]][h[table[x]]]
            if gap > worst:
                worst = gap
    return worst


def pushforward_bound(epsilon, params: EntropyParams, mass_cap, diam_source, diam_target) -> float:
    """The stability radius for pushing mass-bounded measures through an
    epsilon-approximation:

        8 b C^(2/p) eps + b (9 p C (diam_1^(p-1) + diam_2^(p-1)) eps)^(1/p)

    with C the mass cap.  Evaluated exactly as written (diam^0 = 1 when p = 1).
    """
    if epsilon < 0:
        raise InvalidParams("epsilon must be nonnegative")
    if not mass_cap > 0:
        raise InvalidParams("the mass cap must be positive")

    def bound():  # past float range a power or float() raises OverflowError, a product is inf
        b, p, c, eps = float(params.b), float(params.p), float(mass_cap), float(epsilon)
        m = float(diam_source) ** (p - 1.0) + float(diam_target) ** (p - 1.0)
        return 8.0 * b * c ** (2.0 / p) * eps + b * (9.0 * p * c * m * eps) ** (1.0 / p)

    return _finite_bound(bound)


def check_pushforward_stability(
    ghmap: GHMap,
    params: EntropyParams,
    mass_cap,
    seed: int,
    samples: int = 4,
    support_size: int = 5,
) -> dict:
    """Seeded sampling check of the stability bound.

    Draws measure pairs of mass C and C/2 on small supports, compares
    |W(f#mu, f#nu) - W(mu, nu)| against the bound, and checks the
    surjectivity side W(nu2, f#(f'#nu2)) <= 4 b C^(2/p) eps using the
    approximate inverse.  Returns the worst observed slack on each side.
    """
    rng = random.Random(seed)
    src = ghmap.source.as_float()
    tgt = ghmap.target.as_float()
    table = ghmap.table
    eps = float(ghmap.epsilon)
    bound = pushforward_bound(eps, params, mass_cap, src.diameter, tgt.diameter)
    surj_bound = _finite_bound(lambda: 4.0 * float(params.b) * float(mass_cap) ** (2.0 / float(params.p)) * eps)

    inv = approximate_inverse(GHMap(src, tgt, table, eps))

    worst_dev = 0.0
    worst_surj = 0.0
    for _ in range(samples):
        for mass in (float(mass_cap), float(mass_cap) / 2.0):
            mu = _random_measure(rng, src, mass, support_size)
            nu = _random_measure(rng, src, mass, support_size)
            upstairs = float(solve(src, mu, nu, params).value)
            fmu = pushforward(table, mu, tgt)
            fnu = pushforward(table, nu, tgt)
            downstairs = float(solve(tgt, fmu, fnu, params).value)
            worst_dev = max(worst_dev, abs(upstairs - downstairs))

            nu2 = _random_measure(rng, tgt, mass, support_size)
            roundtrip = pushforward(table, pushforward(inv.table, nu2, src), tgt)
            worst_surj = max(worst_surj, float(solve(tgt, nu2, roundtrip, params).value))

    return {
        "epsilon": eps,
        "bound": bound,
        "max_deviation": worst_dev,
        "deviation_ok": worst_dev <= bound,
        "surjectivity_bound": surj_bound,
        "max_surjectivity_gap": worst_surj,
        "surjectivity_ok": worst_surj <= surj_bound,
    }


def check_equivariant_stability(
    table,
    action_source: FiniteGroupAction,
    action_target: FiniteGroupAction,
    params: EntropyParams,
    mass_cap,
    seed: int,
    samples: int = 4,
    support_size: int = 5,
) -> dict:
    """Seeded check that pushing forward almost-commutes with the induced
    actions on measures, within the stability radius of the equivariant
    defect."""
    src = action_source.space.as_float()
    tgt = action_target.space.as_float()
    eps = float(equivariant_defect(table, action_source, action_target))
    bound = pushforward_bound(eps, params, mass_cap, src.diameter, tgt.diameter)
    tgt_by_label = {
        lab: tgt_g for lab, tgt_g in zip(action_target.labels, action_target.elements)
    }

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        for mass in (float(mass_cap), float(mass_cap) / 2.0):
            mu = _random_measure(rng, src, mass, support_size)
            for lab, g in zip(action_source.labels, action_source.elements):
                h = tgt_by_label[lab]
                left = pushforward(table, pushforward(g, mu, src), tgt)
                right = pushforward(h, pushforward(table, mu, tgt), tgt)
                worst = max(worst, float(solve(tgt, left, right, params).value))

    return {"epsilon": eps, "bound": bound, "max_deviation": worst, "ok": worst <= bound}


def _finite_bound(evaluate) -> float:
    """Evaluate a bound; one past float range, or NaN (inf * 0 at zero defect), bounds nothing."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParams("the stability bound is not a finite number for these parameters")
    return value


def _random_measure(rng, space: FiniteMetricSpace, total: float, support_size: int) -> DiscreteMeasure:
    points = rng.sample(range(space.n), min(support_size, space.n))
    raw = [rng.random() for _ in points]
    s = sum(raw)
    weights = [0.0] * space.n
    for pt, r in zip(points, raw):
        weights[pt] = total * r / s
    return measure(space, weights)


def _check_table(table, source: FiniteMetricSpace, target: FiniteMetricSpace) -> tuple[int, ...]:
    table = tuple(int(x) for x in table)
    if len(table) != source.n:
        raise ValueError("the map must be total on the source points")
    for x, t in enumerate(table):
        if not 0 <= t < target.n:
            raise TargetIndexOutOfRange(f"point {x} maps to {t}, outside the target space")
    return table
