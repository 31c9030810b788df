"""Discrete measures on a finite space, and transport plans on its square.

Measures are dense weight vectors (point sizes here are desk scale, so dense
keeps the exact arithmetic simple).  The zero measure is legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import lt

from .errors import InvalidWeight, SpaceMismatch, TargetIndexOutOfRange
from .scalars import ROUNDING_TOL, Scalar, coerce, exactness, is_finite, scaled, scaled_rows
from .spaces import FiniteGroupAction, FiniteMetricSpace, QuotientResult


@dataclass(frozen=True)
class DiscreteMeasure:
    """A nonnegative weight vector over the points of a space."""

    space: FiniteMetricSpace
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.n:
            raise ValueError("one weight per point required")
        _check_weights(self.weights)

    @cached_property  # summed once per measure; not a field, so eq, hash and repr skip it
    def mass(self) -> Scalar:
        return sum(self.weights)

    @cached_property  # as mass: the weights as ints over one factor, or None if any is not exact
    def _scaled(self) -> tuple | None:
        return scaled(self.weights) if exactness(self.weights)[0] else None

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        require_same_space(self, other)
        return DiscreteMeasure(self.space, tuple(a + b for a, b in zip(self.weights, other.weights)))

    def scale(self, c: Scalar) -> "DiscreteMeasure":
        if c < 0:
            raise ValueError("scaling factor must be nonnegative")
        return DiscreteMeasure(self.space, tuple(c * w for w in self.weights))

    def as_float(self, space: FiniteMetricSpace | None = None) -> "DiscreteMeasure":
        return DiscreteMeasure(space or self.space.as_float(), tuple(float(w) for w in self.weights))


def _check_weights(weights) -> None:
    for i, w in enumerate(weights):
        if not is_finite(w):
            raise InvalidWeight(f"weight at point {i} is not finite: {w}")
        if w < 0:
            raise InvalidWeight(f"negative weight at point {i}")


def measure(space: FiniteMetricSpace, weights) -> DiscreteMeasure:
    """Build a measure, coercing the weights into the space's arithmetic mode.

    The weights are checked before coercion, so a non-finite float is
    reported as such rather than failing its conversion to a Fraction.
    """
    weights = tuple(weights)
    _check_weights(weights)
    return DiscreteMeasure(space, tuple(coerce(w, space.exact) for w in weights))


def dirac(space: FiniteMetricSpace, point: int, mass: Scalar = 1) -> DiscreteMeasure:
    if type(point) is not int or not 0 <= point < space.n:
        raise ValueError(f"{point!r} is not a point index of a space with {space.n} points")
    w = [0] * space.n
    w[point] = mass
    return measure(space, w)


def require_same_space(*objects, space: FiniteMetricSpace | None = None) -> None:
    """Every object lives on ``space``, by default on the first object's space."""
    space = objects[0].space if space is None else space
    if any(x.space is not space and x.space != space for x in objects):
        raise SpaceMismatch("objects live on different spaces")


def point_map(table, source: FiniteMetricSpace, target: FiniteMetricSpace) -> tuple[int, ...]:
    """The table of a total map from source points to target point indices."""
    table = tuple(table)
    if len(table) != source.n:
        raise ValueError("the map must be total on the source points")
    for i, j in enumerate(table):
        if type(j) is not int:
            raise ValueError(f"point {i} maps to {j!r}, which is not a point index")
        if not 0 <= j < target.n:
            raise TargetIndexOutOfRange(f"point {i} maps to {j}, outside the target space")
    return table


def pushforward(mapping, mu: DiscreteMeasure, target: FiniteMetricSpace | None = None) -> DiscreteMeasure:
    """Push mu forward along a total point map; total mass is preserved."""
    target = target or mu.space
    out = [coerce(0, target.exact)] * target.n
    for i, j in enumerate(point_map(mapping, mu.space, target)):
        out[j] += mu.weights[i]
    return DiscreteMeasure(target, tuple(out))


def symmetrize(action: FiniteGroupAction, mu: DiscreteMeasure) -> DiscreteMeasure:
    """The group mean (1/|G|) sum over g of g#mu; the result is invariant.

    Finite groups are unimodular, so the averaging weight is 1/|G|.  The
    images are added in element order, as a running total would add them.
    """
    require_same_space(action, mu)
    translates = (pushforward(g, mu) for g in action.elements)
    return reduce(DiscreteMeasure.__add__, translates).scale(coerce(1, mu.space.exact) / action.order)


def is_invariant(action: FiniteGroupAction, mu: DiscreteMeasure):
    """None if mu is invariant under every element, else a witness (point, element).

    Exact comparison in exact mode, ROUNDING_TOL * (1 + max weight) in float
    mode: invariance is a hypothesis, so near misses must fail loudly.
    """
    require_same_space(action, mu)
    slack = 0 if mu.space.exact else ROUNDING_TOL * (1.0 + max(mu.weights))
    for gi, g in enumerate(action.elements):
        for i in range(mu.space.n):
            if abs(mu.weights[g[i]] - mu.weights[i]) > slack:
                return (i, action.labels[gi])
    return None


def invariant_lift(
    action: FiniteGroupAction, quotient: QuotientResult, nu_star: DiscreteMeasure
) -> DiscreteMeasure:
    """Spread each quotient atom uniformly over its orbit.

    The result is invariant and pushes forward along the projection back to
    ``nu_star`` exactly: this is the right inverse of the quotient pushforward.
    """
    if nu_star.space != quotient.quotient:
        raise SpaceMismatch("the measure must live on the quotient space")
    exact = action.space.exact
    out = [coerce(0, exact)] * action.space.n
    for k, orbit in enumerate(quotient.orbits):
        share = coerce(nu_star.weights[k], exact) / len(orbit)
        for i in orbit:
            out[i] = share
    return DiscreteMeasure(action.space, tuple(out))


@dataclass(frozen=True)
class TransportPlan:
    """A nonnegative matrix on X x X; rows/columns are the sub-marginals."""

    space: FiniteMetricSpace
    gamma: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = self.space.n
        if len(self.gamma) != n or any(len(row) != n for row in self.gamma):
            raise ValueError("plan must be n x n for the space")
        if any(map(lt, chain.from_iterable(self._scaled[0]), repeat(0))):
            raise ValueError("plan entries must be nonnegative")

    # As DiscreteMeasure._scaled, built by the sign check: ints G over one factor F_g
    # with unit Fraction(1, F_g) when the space and every entry are exact, else the
    # entries as they are with unit 1.  Each sum is unit times a sum of rows.
    @cached_property
    def _scaled(self) -> tuple:
        if self.space.exact and exactness(chain.from_iterable(self.gamma))[0]:
            rows, factor = scaled_rows(self.gamma)
            return rows, Fraction(1, factor)
        return self.gamma, 1

    @cached_property  # summed once per plan, as DiscreteMeasure.mass
    def total(self) -> Scalar:
        rows, unit = self._scaled
        return unit * sum(map(sum, rows))

    def row_sums(self) -> tuple[Scalar, ...]:
        rows, unit = self._scaled
        return tuple(unit * sum(row) for row in rows)

    def col_sums(self) -> tuple[Scalar, ...]:
        rows, unit = self._scaled
        return tuple(unit * sum(col) for col in zip(*rows))
