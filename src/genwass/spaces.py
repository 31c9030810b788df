"""Finite metric spaces, finite isometric group actions, and metric quotients."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import add

from .errors import (
    AsymmetricEntry,
    MissingIdentity,
    NegativeEntry,
    NonFiniteEntry,
    NonzeroDiagonal,
    NotClosed,
    NotIsometry,
    TriangleViolation,
    ZeroOffDiagonal,
)
from .scalars import Scalar, coerce, coerce_rows, exactness, first_nonfinite, scaled

# Relative slack for float-mode checks that must hold exactly in exact mode
# (triangle inequality, isometry).  Scaled by the diameter.
FLOAT_METRIC_RTOL = 1e-12


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A validated finite metric space: point labels plus a distance matrix.

    Instances are immutable and safe to share across threads.  Construct via
    :func:`validate_metric`.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Scalar, ...], ...]
    exact: bool
    # Exact mode: the distances as ints over their common denominator, and
    # that factor (rows, factor), from one scalars.scaled call.  The metric
    # checks, the certificate and the flat LP read it; None in float mode.
    _scaled: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.exact:
            n = len(self.labels)
            flat, factor = scaled(list(chain.from_iterable(self.dist)))
            rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
            object.__setattr__(self, "_scaled", (rows, factor))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> Scalar:
        return max(max(row) for row in self.dist)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def as_float(self) -> "FiniteMetricSpace":
        """The same space with float distances (float arithmetic mode)."""
        if not self.exact:
            return self
        return FiniteMetricSpace(
            labels=self.labels,
            dist=tuple(tuple(float(x) for x in row) for row in self.dist),
            exact=False,
        )


def validate_metric(labels, matrix, exact: bool | None = None) -> FiniteMetricSpace:
    """Check the metric axioms and return a validated space.

    ``exact`` selects the arithmetic mode; when omitted it is inferred from
    the entries (all integers/rationals -> exact, any float -> float).
    Raises a :class:`~genwass.errors.MetricError` subclass naming the violated
    axiom and the witnessing indices.
    """
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("a space needs at least one point")
    if len(set(labels)) != len(labels):
        raise ValueError("point labels must be unique")
    n = len(labels)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"distance matrix must be {n}x{n}")

    for i, row in enumerate(matrix):
        j = first_nonfinite(row)
        if j is not None:
            raise NonFiniteEntry(i, j, labels)
    if exact is None:
        exact = exactness(chain.from_iterable(matrix))[0]
    dist = coerce_rows(matrix, exact)
    space = FiniteMetricSpace(labels=labels, dist=dist, exact=exact)
    # Exact entries are checked as integers over their common denominator,
    # which keeps every comparison, and so every reported witness, unchanged.
    d = space._scaled[0] if exact else dist

    for i in range(n):
        for j in range(n):
            if d[i][j] < 0:
                raise NegativeEntry(i, j, labels)
    for i in range(n):
        if d[i][i] != 0:
            raise NonzeroDiagonal(i, labels)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise AsymmetricEntry(i, j, labels)
            if d[i][j] == 0:
                raise ZeroOffDiagonal(i, j, labels)

    # d is symmetric and k in {i, j} never fails, so one test per pair i < j
    # finds the first (i, j, k) witness of a scan over every ordered triple.
    diam = max(max(row) for row in d)
    slack = 0 if exact else FLOAT_METRIC_RTOL * float(diam)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] > min(map(add, d[i], d[j])) + slack:
                k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j] + slack)
                raise TriangleViolation(i, j, k, labels)

    return space


@dataclass(frozen=True)
class FiniteGroupAction:
    """A finite group acting on a space by isometries.

    ``elements`` holds the full element list as permutations of point indices
    (``perm[i]`` is the image of point ``i``); generators are not expanded.
    Construct via :func:`validate_action`.
    """

    space: FiniteMetricSpace
    elements: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def compose(g, h) -> tuple[int, ...]:
    """The permutation "h then g": (g o h)[i] = g[h[i]]."""
    return tuple(g[h[i]] for i in range(len(g)))


def inverse(g) -> tuple[int, ...]:
    inv = [0] * len(g)
    for i, gi in enumerate(g):
        inv[gi] = i
    return tuple(inv)


def validate_action(space: FiniteMetricSpace, permutations, labels=None) -> FiniteGroupAction:
    """Validate a full group element list: identity, closure, isometry."""
    n = space.n
    elements = []
    for perm in permutations:
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        elements.append(perm)
    if labels is None:
        labels = tuple(f"g{k}" for k in range(len(elements)))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(elements):
            raise ValueError("one label per group element required")
    if len(set(labels)) != len(labels):
        raise ValueError("group element labels must be distinct")

    identity = tuple(range(n))
    if identity not in elements:
        raise MissingIdentity()

    # non-faithful actions are legal: distinct elements may act identically,
    # so closure is checked on permutation values
    known = set(elements)
    for gi, g in enumerate(elements):
        for hi, h in enumerate(elements):
            if compose(g, h) not in known:
                raise NotClosed(labels[gi], labels[hi])

    diam = space.diameter
    slack = 0 if space.exact else FLOAT_METRIC_RTOL * float(diam)
    for gi, g in enumerate(elements):
        for i in range(n):
            for j in range(n):
                if abs(space.dist[g[i]][g[j]] - space.dist[i][j]) > slack:
                    raise NotIsometry(labels[gi], i, j)

    return FiniteGroupAction(space=space, elements=tuple(elements), labels=labels)


@dataclass(frozen=True)
class QuotientResult:
    """A quotient space together with the projection and the orbit partition."""

    quotient: FiniteMetricSpace
    projection: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]


def build_quotient(action: FiniteGroupAction) -> QuotientResult:
    """Collapse each orbit to a point; the quotient distance between classes
    is the minimum distance between representatives.

    For isometric actions the result satisfies the metric axioms again; it is
    validated defensively anyway.
    """
    space = action.space
    n = space.n

    orbit_of = [-1] * n
    orbits: list[tuple[int, ...]] = []
    for i in range(n):
        if orbit_of[i] >= 0:
            continue
        members = sorted({g[i] for g in action.elements})
        k = len(orbits)
        for m in members:
            orbit_of[m] = k
        orbits.append(tuple(members))

    q = len(orbits)
    labels = tuple(space.labels[orbit[0]] + "*" for orbit in orbits)
    dist = [[None] * q for _ in range(q)]
    for a in range(q):
        dist[a][a] = coerce(0, space.exact)
        for b in range(a + 1, q):
            best = min(space.dist[x][y] for x in orbits[a] for y in orbits[b])
            dist[a][b] = best
            dist[b][a] = best

    quotient = validate_metric(labels, dist, exact=space.exact)
    return QuotientResult(quotient=quotient, projection=tuple(orbit_of), orbits=tuple(orbits))
