"""Discrete measures on a finite space, and transport plans on its square.

Measures are dense weight vectors (point sizes here are desk scale, so dense
keeps the exact arithmetic simple).  The zero measure is legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import lt

from .errors import InvalidWeight, SpaceMismatch, TargetIndexOutOfRange
from .scalars import Scalar, coerce, is_finite, scaled
from .spaces import FiniteGroupAction, FiniteMetricSpace, QuotientResult

# Absolute slack for float-mode pointwise comparisons between weights.
FLOAT_WEIGHT_ATOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """A nonnegative weight vector over the points of a space."""

    space: FiniteMetricSpace
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.n:
            raise ValueError("one weight per point required")
        _check_weights(self.weights)

    @property
    def mass(self) -> Scalar:
        return sum(self.weights)

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


def zero_measure(space: FiniteMetricSpace) -> DiscreteMeasure:
    return measure(space, [0] * space.n)


def dirac(space: FiniteMetricSpace, point: int, mass: Scalar = 1) -> DiscreteMeasure:
    w = [0] * space.n
    w[point] = mass
    return measure(space, w)


def require_same_space(a, b) -> None:
    if a.space is b.space:
        return
    if a.space != b.space:
        raise SpaceMismatch("objects live on different spaces")


@dataclass(frozen=True)
class Decomposition:
    """Lebesgue decomposition of one measure against another on finite support.

    Reconstruction: sigma[i] = density[i] * tau[i] + singular[i], with the
    singular part supported where tau vanishes.
    """

    density: tuple[Scalar, ...]
    singular: DiscreteMeasure


def is_submeasure(sigma: DiscreteMeasure, tau: DiscreteMeasure, atol: float = FLOAT_WEIGHT_ATOL) -> bool:
    """Pointwise sigma <= tau (exact, or within atol absolute in float mode)."""
    require_same_space(sigma, tau)
    slack = 0 if sigma.space.exact else atol
    return all(s <= t + slack for s, t in zip(sigma.weights, tau.weights))


def lebesgue_decompose(sigma: DiscreteMeasure, tau: DiscreteMeasure) -> Decomposition:
    """Split sigma into a part with a density against tau and a singular part."""
    require_same_space(sigma, tau)
    zero = coerce(0, sigma.space.exact)
    density = []
    singular = []
    for s, t in zip(sigma.weights, tau.weights):
        if t > 0:
            density.append(s / t)
            singular.append(zero)
        else:
            density.append(zero)
            singular.append(s)
    return Decomposition(density=tuple(density), singular=DiscreteMeasure(sigma.space, tuple(singular)))


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
    """Uniform average of the group translates of mu; the result is invariant.

    Finite groups are unimodular, so the averaging weight is 1/|G|.
    """
    require_same_space(action, mu)
    n = mu.space.n
    acc = [coerce(0, mu.space.exact)] * n
    for g in action.elements:
        for i in range(n):
            acc[g[i]] += mu.weights[i]
    share = Fraction(1, action.order) if mu.space.exact else 1.0 / action.order
    return DiscreteMeasure(mu.space, tuple(share * w for w in acc))


def is_invariant(action: FiniteGroupAction, mu: DiscreteMeasure, atol: float = FLOAT_WEIGHT_ATOL):
    """None if mu is invariant under every element, else a witness (point, element).

    Exact comparison in exact mode, absolute tolerance in float mode:
    invariance is a hypothesis, so near misses must fail loudly.
    """
    require_same_space(action, mu)
    slack = 0 if mu.space.exact else atol
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
        share = (
            Fraction(nu_star.weights[k], len(orbit))
            if exact
            else nu_star.weights[k] / len(orbit)
        )
        for i in orbit:
            out[i] = share
    return DiscreteMeasure(action.space, tuple(out))


@dataclass(frozen=True)
class TransportPlan:
    """A nonnegative matrix on X x X; rows/columns are the sub-marginals."""

    space: FiniteMetricSpace
    gamma: tuple[tuple[Scalar, ...], ...]
    # The entries with the value of one unit of them: ints over their common
    # denominator F_g with unit Fraction(1, F_g), from one scalars.scaled call,
    # when the space is exact and every entry is a Fraction; else the entries
    # as they are with unit 1.  Each sum is unit times a sum of rows, and the
    # certificate reads the ints only when the unit is a Fraction.
    _scaled: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.space.n
        if len(self.gamma) != n or any(len(row) != n for row in self.gamma):
            raise ValueError("plan must be n x n for the space")
        rows, unit = self.gamma, 1
        entries = list(chain.from_iterable(rows))
        if self.space.exact and all(type(x) is Fraction for x in entries):
            entries, factor = scaled(entries)
            rows, unit = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n)), Fraction(1, factor)
        if any(map(lt, entries, repeat(0))):
            raise ValueError("plan entries must be nonnegative")
        object.__setattr__(self, "_scaled", (rows, unit))

    @property
    def total(self) -> Scalar:
        rows, unit = self._scaled
        return unit * sum(map(sum, rows))

    def row_sums(self) -> tuple[Scalar, ...]:
        rows, unit = self._scaled
        return tuple(unit * sum(row) for row in rows)

    def col_sums(self) -> tuple[Scalar, ...]:
        rows, unit = self._scaled
        return tuple(unit * sum(col) for col in zip(*rows))

    def marginals(self) -> tuple[DiscreteMeasure, DiscreteMeasure]:
        return (
            DiscreteMeasure(self.space, self.row_sums()),
            DiscreteMeasure(self.space, self.col_sums()),
        )
