"""Cost parameters of the unbalanced transport problem."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams
from .scalars import Scalar, is_finite


@dataclass(frozen=True)
class EntropyParams:
    """a: cost per unit of created/destroyed mass; b: cost per unit mass per
    unit distance; p: order exponent of the transport term.

    The mass-change penalty is a|1-s| per unit, so its recession slope is a:
    destroying or creating mass never costs more than a per unit.
    """

    a: Scalar
    b: Scalar
    p: Scalar = 1

    def __post_init__(self):
        for name in ("a", "b", "p"):
            value = getattr(self, name)
            if not is_finite(value):
                raise InvalidParams(f"{name} must be finite and within float range, got {value}")
        if not self.a > 0:
            raise InvalidParams(f"a must be positive, got {self.a}")
        if not self.b > 0:
            raise InvalidParams(f"b must be positive, got {self.b}")
        if not self.p >= 1:
            raise InvalidParams(f"p must be at least 1, got {self.p}")
