"""Exception types raised by validation and solving."""

from __future__ import annotations


class GenwassError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatch(GenwassError):
    """Two objects that must live on the same metric space do not."""


class MassMismatch(GenwassError):
    """Equal total mass was required but not supplied."""


class InvalidParams(GenwassError):
    """Cost parameters outside their admissible range (finite a > 0, b > 0, p >= 1)."""


class InvalidWeight(GenwassError, ValueError):
    """A measure weight that is negative or not finite.

    Also a ``ValueError``, which is what negative weights raised before.
    """


class GroupMismatch(GenwassError):
    """Two group actions that must share a label set do not."""


class NotInvariant(GenwassError):
    """A measure required to be invariant under the group action is not.

    Carries which measure failed, the witnessing point index and group element.
    """

    def __init__(self, which: str, point: int, element: str):
        self.which = which
        self.point = point
        self.element = element
        super().__init__(f"measure {which!r} is not invariant: element {element} moves mass at point {point}")


class TooLarge(GenwassError):
    """The oracle's dynamic program would keep more states than its cap."""


class SolverFailure(GenwassError):
    """The solver could not certify its own output (nonzero duality gap)."""


class InfeasibleInputs(GenwassError):
    """A plan or potential pair handed to the certifier violates its invariants."""


class TargetIndexOutOfRange(GenwassError):
    """A point map sends an index outside the target space."""


class MetricError(GenwassError):
    """Base class for metric-axiom violations.  Subclasses carry witness indices."""


class AsymmetricEntry(MetricError):
    def __init__(self, i: int, j: int, labels=None):
        self.i, self.j = i, j
        super().__init__(f"d[{_name(i, labels)}][{_name(j, labels)}] != d[{_name(j, labels)}][{_name(i, labels)}]")


class NonzeroDiagonal(MetricError):
    def __init__(self, i: int, labels=None):
        self.i = i
        super().__init__(f"d[{_name(i, labels)}][{_name(i, labels)}] != 0")


class ZeroOffDiagonal(MetricError):
    def __init__(self, i: int, j: int, labels=None):
        self.i, self.j = i, j
        super().__init__(f"d[{_name(i, labels)}][{_name(j, labels)}] = 0 for distinct points")


class NonFiniteEntry(MetricError):
    def __init__(self, i: int, j: int, labels=None):
        self.i, self.j = i, j
        super().__init__(f"d[{_name(i, labels)}][{_name(j, labels)}] is not finite")


class NegativeEntry(MetricError):
    def __init__(self, i: int, j: int, labels=None):
        self.i, self.j = i, j
        super().__init__(f"d[{_name(i, labels)}][{_name(j, labels)}] < 0")


class TriangleViolation(MetricError):
    """d[i][j] > d[i][k] + d[k][j] for the witnessing triple (i, j, k)."""

    def __init__(self, i: int, j: int, k: int, labels=None):
        self.i, self.j, self.k = i, j, k
        super().__init__(
            f"d[{_name(i, labels)}][{_name(j, labels)}] > "
            f"d[{_name(i, labels)}][{_name(k, labels)}] + d[{_name(k, labels)}][{_name(j, labels)}]"
        )


class ActionError(GenwassError):
    """Base class for group-action validation failures."""


class NotClosed(ActionError):
    def __init__(self, g: str, h: str):
        self.g, self.h = g, h
        super().__init__(f"composition of {g} and {h} is not in the element list")


class MissingIdentity(ActionError):
    def __init__(self):
        super().__init__("the element list does not contain the identity permutation")


class NotIsometry(ActionError):
    def __init__(self, g: str, i: int, j: int):
        self.g, self.i, self.j = g, i, j
        super().__init__(f"element {g} does not preserve the distance between points {i} and {j}")


def _name(i: int, labels) -> str:
    return str(labels[i]) if labels is not None else str(i)
