"""Finite metric spaces, finite isometric group actions, and metric quotients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import add, and_, getitem, lshift, mul

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
from .scalars import ROUNDING_TOL, Scalar, coerce, coerce_rows, exactness, first_nonfinite, int_rows, scaled_rows


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A validated finite metric space: point labels plus a distance matrix.

    Instances are immutable and safe to share across threads.  Construct via
    :func:`validate_metric`.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Scalar, ...], ...]
    exact: bool

    # Exact mode: (the distances as ints over their common denominator, that
    # factor); None in float mode.  validate_metric fills it, other spaces
    # derive it on first use.  Not a field, so eq, hash and repr skip it.
    @cached_property
    def _scaled(self) -> tuple | None:
        return scaled_rows(self.dist) if self.exact else None

    # Exact mode: the irreducible pairs (i, j), i < j, those with no third
    # point k on a geodesic, d[i][k] + d[k][j] = d[i][j]; the arcs of the
    # p = 1 skeleton network.  None in float mode, where rounding cannot
    # decide that equality.  Built on first use only: not every validated
    # space is solved.
    @cached_property
    def _irreducible(self) -> tuple | None:
        return _irreducible_pairs(self._scaled[0]) if self.exact else None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> Scalar:
        return max(max(row) for row in self.dist)

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

    Each axiom is first tested on whole rows; only a failed test walks the
    entries, in the order of an entry-by-entry check, to name the first
    witness.  The triangle inequality is tested on the integer image of the
    distances when there is one: the given rows when every row is all ints,
    else the scaled entries in exact mode.  Each row is packed into one int, a
    field of w bits per column, with 2**(w-1) > 2 * max d, so that one big-int
    sum per ordered pair (i, k) holds d[k][j] + d[i][k] + 2**(w-1) - d[i][j]
    in field j.  That value lies in (0, 2**w), so no carry or borrow crosses a
    field, and its top bit is clear exactly where d[i][j] > d[i][k] + d[k][j].
    In float mode a pass on the integers implies a pass of the float test (see
    below); a failure, and float rows with fractional values, go to the
    per-pair scan, which decides with the float slack and names the witness.
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
        exact = exactness(chain.from_iterable(matrix))
    dist = coerce_rows(matrix, exact)
    space = FiniteMetricSpace(labels=labels, dist=dist, exact=exact)
    # Exact entries are checked on the integer image, which keeps every
    # comparison, and so every reported witness, unchanged.
    ints, d = int_rows(matrix), dist
    if exact:
        vars(space)["_scaled"] = (ints, 1) if ints is not None else scaled_rows(dist)
        d = ints = space._scaled[0]

    if min(map(min, d)) < 0:
        i, j = next((i, j) for i, row in enumerate(d) for j, x in enumerate(row) if x < 0)
        raise NegativeEntry(i, j, labels)
    diagonal = list(map(getitem, d, range(n)))
    if any(diagonal):
        raise NonzeroDiagonal(next(i for i, x in enumerate(diagonal) if x), labels)
    # the diagonal is zero, so each row holds exactly one zero unless a pair does
    if d != tuple(zip(*d)) or sum(map(tuple.count, d, repeat(0))) != n:
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] != d[j][i]:
                    raise AsymmetricEntry(i, j, labels)
                if d[i][j] == 0:
                    raise ZeroOffDiagonal(i, j, labels)

    # A pass on the integers implies a pass of the float test.  Rounding is
    # monotone, and where d[i][j] <= d[i][k] + d[k][j] the rounded entries
    # and their rounded sum stray from the integers by at most about
    # 3u * (d[i][k] + d[k][j]) <= 6u * diam in all (u = 2**-53; no error
    # below 2**53), far inside the slack of ROUNDING_TOL * diam.  Symmetry was
    # checked on the floats, so float(d[j][k]), which the scan reads,
    # equals float(d[k][j]).
    if ints is None or not _packed_triangle_holds(ints):
        # d is symmetric and k in {i, j} never fails, so one test per pair
        # i < j finds the first (i, j, k) witness of a scan over every
        # ordered triple.
        slack = 0 if exact else ROUNDING_TOL * float(space.diameter)
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] > min(map(add, d[i], d[j])) + slack:
                    k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j] + slack)
                    raise TriangleViolation(i, j, k, labels)

    return space


def _packed_triangle_holds(rows) -> bool:
    """Whether d[i][j] <= d[i][k] + d[k][j] for every i, j, k, on rows of
    non-negative ints, one big-int test per ordered pair (i, k)."""
    n = len(rows)
    width = (2 * max(map(max, rows))).bit_length() + 1
    ones = sum(map(lshift, repeat(1), range(0, width * n, width)))
    high = ones << (width - 1)
    packed = [sum(map(lshift, row, range(0, width * n, width))) for row in rows]
    for row, own in zip(rows, packed):
        # field j of term k: d[k][j] + d[i][k] + 2**(w-1) - d[i][j]
        offsets = map(add, map(mul, row, repeat(ones)), repeat(high - own))
        if reduce(and_, map(add, packed, offsets), high) != high:
            return False
    return True


def _irreducible_pairs(rows) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, with d[i][k] + d[k][j] > d[i][j] for every k
    outside {i, j}, in row-major order, on the rows of a metric as
    non-negative ints: one big-int AND per row over the other rows.

    As in :func:`_packed_triangle_holds`, field j of term k holds
    d[i][k] + d[k][j] + 2**(w-1) - 1 - d[i][j], whose top bit is set exactly
    where the excess d[i][k] + d[k][j] - d[i][j] is at least 1.  Row k is
    packed with d[k][k] = 1, so term k never clears its own field j = k,
    and term i, whose excess is 0 everywhere, is left out.
    """
    n = len(rows)
    width = (2 * max(map(max, rows))).bit_length() + 1
    shifts = range(0, width * n, width)
    ones = sum(map(lshift, repeat(1), shifts))
    high = ones << (width - 1)
    packed = [sum(map(lshift, row, shifts)) + (1 << shift) for row, shift in zip(rows, shifts)]
    pairs = []
    for i, row in enumerate(rows):
        own = packed[i] - (1 << shifts[i])
        others, legs = packed[:i] + packed[i + 1 :], row[:i] + row[i + 1 :]
        offsets = map(add, map(mul, legs, repeat(ones)), repeat(high - ones - own))
        tops = reduce(and_, map(add, others, offsets), high) >> (width - 1)
        # the top bit of field j is bit j * width of tops; read from the right
        bits = format(tops, f"0{width * n}b")[::-1]
        pairs += [(i, j) for j in range(i + 1, n) if bits[j * width] == "1"]
    return tuple(pairs)


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


def validate_action(space: FiniteMetricSpace, permutations, labels=None) -> FiniteGroupAction:
    """Validate a full group element list: identity, closure, isometry."""
    n = space.n
    elements = []
    for perm in permutations:
        perm = tuple(perm)
        if any(type(x) is not int for x in perm) or sorted(perm) != list(range(n)):
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

    slack = 0 if space.exact else ROUNDING_TOL * float(space.diameter)
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
