"""Scalar handling shared by the exact (rational) and float arithmetic modes.

Exact mode keeps every quantity a ``fractions.Fraction`` so optima, gaps and
invariance checks can be asserted with zero tolerance.  Float mode runs the
same algorithms on ``float`` values.

Matrices and vectors cross this layer a row at a time, not a number at a
time, and the per-kind rules live here alone.  The kind of a sequence (all
exact or not, any Fraction or not) is decided once, by :func:`exactness`
from the set of its entries' types.  A row of ints is read as it is
(:func:`parse_row`), found finite by one ``max(map(abs, row)) <= FLOAT_MAX``
(:func:`first_nonfinite`) and made exact with one Fraction per distinct
value, shared, since Fractions are immutable (:func:`coerce_rows`); float
mode converts every row by ``map(float, row)``.  Per-entry code still runs
in three places: rows of any other kind (floats, "p/q" strings, or a mix)
are parsed and tested for finiteness entry by entry, rows that are not all
ints are made exact entry by entry, and once a row-level test fails a walk
of that row names the first witness, so errors name the same entry as an
entry-by-entry scan.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import attrgetter, floordiv, mul
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


def parse_row(row) -> list:
    """parse_scalar of every entry, except that ints stay ints: a row of ints
    is returned as it is, and any other row goes entry by entry, so the first
    entry that does not parse is the one reported."""
    if set(map(type, row)) == {int}:
        return row
    return list(map(parse_scalar, row))


def is_exact(value) -> bool:
    return exactness((value,))[0]


def exactness(values) -> tuple[bool, bool]:
    """Whether every value is exact (an int or a Fraction, never a bool) and
    whether any is a Fraction: one answer for the sequence, from the set of
    its entries' types, tested a type at a time."""
    types = set(map(type, values))
    return (
        all(issubclass(t, (int, Fraction)) and t is not bool for t in types),
        any(issubclass(t, Fraction) for t in types),
    )


def scaled(values) -> tuple[list[int], int]:
    """Exact scalars as integers over their common denominator, and that factor.

    The factor is the least common multiple of the denominators, and each
    value becomes numerator * (factor // denominator).  It is positive, so
    comparisons of scaled values and of their sums agree with those of the
    originals.  ``values`` must be a sequence of ints and Fractions.
    """
    denominators = list(map(attrgetter("denominator"), values))
    factor = math.lcm(*denominators)
    quotients = map(floordiv, repeat(factor), denominators)
    return list(map(mul, map(attrgetter("numerator"), values), quotients)), factor


def is_finite(value) -> bool:
    """False for NaN, the infinities, and exact values beyond float range.

    Every quantity may meet floats (float mode, the p-th root), so an exact
    value that no float can hold is rejected with the non-finite ones.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    return abs(value.numerator) <= FLOAT_MAX * value.denominator


def first_nonfinite(row) -> int | None:
    """The index of the first entry of row that is not is_finite, or None.  A
    row of ints takes one max(map(abs, row)) test, a row of any other kind
    all(map(is_finite, row)), and only a row that fails is walked."""
    if set(map(type, row)) == {int}:
        if max(map(abs, row)) <= FLOAT_MAX:
            return None
    elif all(map(is_finite, row)):
        return None
    return next(j for j, x in enumerate(row) if not is_finite(x))


def coerce(value: Scalar, exact: bool) -> Scalar:
    """Bring a scalar into the requested arithmetic mode; a Fraction is
    returned as it is in exact mode, not copied."""
    if exact:
        return value if type(value) is Fraction else Fraction(value)
    try:
        return float(value)
    except OverflowError:  # an exact value past float range: the finiteness checks reject it
        return INF if value > 0 else NEG_INF


def coerce_rows(rows, exact: bool) -> tuple[tuple[Scalar, ...], ...]:
    """coerce(x, exact) of every entry, row by row: map(float, row) in float
    mode, and in exact mode one Fraction per distinct int of the all-int rows,
    shared; other rows go entry by entry."""
    if not exact:
        try:
            return tuple(tuple(map(float, row)) for row in rows)
        except OverflowError:  # an exact value past float range: coerce makes it an infinity
            return tuple(tuple(map(coerce, row, repeat(False))) for row in rows)
    ints = [set(map(type, row)) == {int} for row in rows]
    values = set().union(*(row for row, is_int in zip(rows, ints) if is_int))
    shared = dict(zip(values, map(Fraction, values)))
    return tuple(
        tuple(map(shared.__getitem__, row)) if is_int else tuple(map(coerce, row, repeat(True)))
        for row, is_int in zip(rows, ints)
    )


def scalar_to_json(value: Scalar):
    """Serialize a scalar so that exact values survive a JSON round trip."""
    if type(value) is float:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    return float(value)
