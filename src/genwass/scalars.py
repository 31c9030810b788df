"""Scalar handling shared by the exact (rational) and float arithmetic modes.

Exact mode keeps every quantity a ``fractions.Fraction`` so optima, gaps and
invariance checks can be asserted with zero tolerance.  Float mode runs the
same algorithms on ``float`` values.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]

INF = float("inf")
NEG_INF = float("-inf")
FLOAT_MAX = int(sys.float_info.max)


def parse_scalar(value) -> Scalar:
    """Parse a JSON-level number.

    Integers and "p/q" strings become exact rationals; finite floats stay
    floats.  ``NaN`` and the infinities, which ``json.load`` accepts, are
    rejected.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise ValueError(f"not a number: {value!r}")


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def scaled(values) -> tuple[list[int], int]:
    """Exact scalars as integers over their common denominator, and that factor.

    The factor is the least common multiple of the denominators, and each
    value becomes numerator * (factor // denominator).  It is positive, so
    comparisons of scaled values and of their sums agree with those of the
    originals.  ``values`` must be a sequence of ints and Fractions.
    """
    factor = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (factor // v.denominator) for v in values], factor


def is_finite(value) -> bool:
    """False for NaN, the infinities, and exact values beyond float range.

    Every quantity may meet floats (float mode, the p-th root), so an exact
    value that no float can hold is rejected with the non-finite ones.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    return abs(value.numerator) <= FLOAT_MAX * value.denominator


def coerce(value: Scalar, exact: bool) -> Scalar:
    """Bring a scalar into the requested arithmetic mode; a Fraction is
    returned as it is in exact mode, not copied."""
    if exact:
        return value if type(value) is Fraction else Fraction(value)
    try:
        return float(value)
    except OverflowError:  # an exact value past float range: the finiteness checks reject it
        return INF if value > 0 else NEG_INF


def scalar_to_json(value: Scalar):
    """Serialize a scalar so that exact values survive a JSON round trip."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    return float(value)
