"""Discrete measures on a finite space, and transport plans on its square.

Measures are dense weight vectors (point sizes here are desk scale, so dense
keeps the exact arithmetic simple).  Plans are sparse: a plan holds the
support of its matrix, the few pairs that ship (see :class:`TransportPlan`).
The zero measure is legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from operator import lt

from .errors import InvalidWeight, SpaceMismatch, TargetIndexOutOfRange
from .scalars import FLOAT_MAX, ROUNDING_TOL, Scalar, coerce, coerce_rows, dense, exactness, first_nonfinite
from .scalars import is_finite, scaled
from .spaces import FiniteGroupAction, FiniteMetricSpace, QuotientResult


@dataclass(frozen=True)
class DiscreteMeasure:
    """A nonnegative weight vector over the points of a space."""

    space: FiniteMetricSpace
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.n:
            raise ValueError("one weight per point required")
        _check_weights(self.weights, self._scaled)

    @cached_property  # summed once per measure; not a field, so eq, hash and repr skip it
    def mass(self) -> Scalar:
        return sum(self.weights)

    # As mass, built by the weight check: the weights as ints over one factor,
    # or None if any is not exact.
    @cached_property
    def _scaled(self) -> tuple | None:
        return scaled(self.weights) if exactness(self.weights) else None

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        require_same_space(self, other)
        return DiscreteMeasure(self.space, tuple(a + b for a, b in zip(self.weights, other.weights)))

    def scale(self, c: Scalar) -> "DiscreteMeasure":
        if c < 0:
            raise ValueError("scaling factor must be nonnegative")
        return DiscreteMeasure(self.space, tuple(c * w for w in self.weights))

    def as_float(self, space: FiniteMetricSpace | None = None) -> "DiscreteMeasure":
        return DiscreteMeasure(space or self.space.as_float(), tuple(float(w) for w in self.weights))


def _check_weights(weights, image) -> None:
    """Every weight is finite and nonnegative.  The whole vector is tested
    first: exact weights by one max and one min over their integer image
    ``image``, ints W over F (|w| <= FLOAT_MAX is |W| <= FLOAT_MAX F), and
    any others, with ``image`` None, by ``first_nonfinite`` and one min.
    Only a vector that fails is walked, so the error names the first bad
    weight, of either kind."""
    if image is not None:
        W, F = image
        if not W or (max(map(abs, W)) <= FLOAT_MAX * F and min(W) >= 0):
            return
    elif first_nonfinite(weights) is None and not (weights and min(weights) < 0):
        return
    for i, w in enumerate(weights):
        if not is_finite(w):
            raise InvalidWeight(f"weight at point {i} is not finite: {w}")
        if w < 0:
            raise InvalidWeight(f"negative weight at point {i}")


def measure(space: FiniteMetricSpace, weights) -> DiscreteMeasure:
    """Build a measure, coercing the weights into the space's arithmetic mode.

    Weights that coercion could change are checked before it, as given, so
    a non-finite float is reported as such rather than failing its
    conversion to a Fraction, and an exact weight past float range is named
    as it is, not as the infinity it would become.  Exact weights on an
    exact space keep their values, and the measure's own check names them.
    """
    weights = tuple(weights)
    if not (space.exact and exactness(weights)):
        _check_weights(weights, None)
    return DiscreteMeasure(space, coerce_rows([weights], space.exact)[0])


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
    """A nonnegative matrix on X x X, held as its support: the (i, j, mass)
    triples of its nonzero entries in row-major order (``scalars.sparse`` of
    its rows).  Rows and columns are the sub-marginals.

    An optimal plan ships along few pairs (about 31 of 576 entries at
    n = 24 on the bench's metrics), so its sums, its cost and its
    certificate run over the support.  The dense matrix ``gamma`` is built
    on first read, for a caller that wants one; like the integer image and
    the sums it is a ``cached_property``, not a field, so eq, hash and repr
    skip it.  Off the support it holds ``Fraction(0)`` when the space and
    every mass are exact, else ``0.0``: the zero a dense plan of those
    masses held.  A plan with no support has no mass to tell, so on an
    exact space it reads as exact, whatever zeros it was written with.
    """

    space: FiniteMetricSpace
    support: tuple[tuple[int, int, Scalar], ...]

    def __post_init__(self):
        n = self.space.n
        cells = [i * n + j for i, j, _ in self.support if type(i) is type(j) is int and 0 <= i < n and 0 <= j < n]
        if len(cells) != len(self.support) or not all(map(lt, cells, cells[1:])):
            raise ValueError("a plan's support lists cells of the space once each, in row-major order")
        masses = [g for _, _, g in self._scaled[0]]  # the image's: ints when the plan is exact
        if not all(masses):
            raise ValueError("a plan's support holds no zero entry")
        if any(map(lt, masses, repeat(0))):
            raise ValueError("plan entries must be nonnegative")

    # As DiscreteMeasure._scaled, built by the sign check: the support with its
    # masses as ints G over one factor F_g and unit Fraction(1, F_g) when the
    # space and every mass are exact, else the support as it is with unit 1.
    # Each sum is unit times a sum of G.
    @cached_property
    def _scaled(self) -> tuple:
        masses = [x for _, _, x in self.support]
        if self.space.exact and exactness(masses):
            ints, factor = scaled(masses)
            return tuple([(i, j, g) for (i, j, _), g in zip(self.support, ints)]), Fraction(1, factor)
        return self.support, 1

    @cached_property  # the entry off the support, Fraction(0) or 0.0 (see the class docstring)
    def _zero(self) -> Scalar:
        return Fraction(0) if isinstance(self._scaled[1], Fraction) else 0.0

    # The row sums and the column sums of the image, each added in the
    # support's order from the zero of its kind: 0 for the ints of the image,
    # else 0.0, so that a row with no support in a plan of floats sums to 0.0
    # as its dense row of 0.0 did.
    @cached_property
    def _sums(self) -> tuple[list, list]:
        G, unit = self._scaled
        zero = 0 if isinstance(unit, Fraction) else self._zero
        rows, cols = [zero] * self.space.n, [zero] * self.space.n
        for i, j, g in G:
            rows[i] += g
            cols[j] += g
        return rows, cols

    @cached_property  # summed once per plan, as DiscreteMeasure.mass
    def total(self) -> Scalar:
        return self._scaled[1] * sum(self._sums[0])

    @cached_property
    def gamma(self) -> tuple[tuple[Scalar, ...], ...]:
        n = self.space.n
        return tuple(map(tuple, dense(self.support, n, n, self._zero)))

    def row_sums(self) -> tuple[Scalar, ...]:
        unit = self._scaled[1]
        return tuple(unit * s for s in self._sums[0])

    def col_sums(self) -> tuple[Scalar, ...]:
        unit = self._scaled[1]
        return tuple(unit * s for s in self._sums[1])
