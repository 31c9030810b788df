"""Scalar handling shared by the exact (rational) and float arithmetic modes.

Exact mode keeps every quantity a ``fractions.Fraction`` so optima, gaps and
invariance checks can be asserted with zero tolerance.  Float mode runs the
same algorithms on ``float`` values.

Matrices and vectors cross this layer a row at a time, not a number at a
time, and the per-kind rules live here alone.  The kind of a sequence, all
exact or not, is decided once, by :func:`exactness` from the set of its
entries' types.  A row of ints is read as it is (:func:`parse_row`), found
finite by one ``max(map(abs, row)) <= FLOAT_MAX`` (:func:`first_nonfinite`),
made exact with one Fraction per distinct value, shared, since Fractions
are immutable (:func:`coerce_rows`), and is its own integer image with
factor 1, for an exact space and the metric checks (:func:`int_rows`); float
mode converts every row by ``map(float, row)``.  A row of ints and strings,
such as a row of an exact plan report, is parsed once per distinct entry.  Per-entry code still runs in four places: rows
that hold any other kind (floats, bools, or values that are not numbers) are
parsed entry by entry, rows that are not all ints are tested for finiteness
and made exact entry by entry, and once a row-level test fails a walk of
that row names the first witness, so errors name the same entry as an
entry-by-entry scan.

A sparse matrix crosses as its support, the (i, j, x) triples of its
nonzero entries in row-major order: :func:`sparse` filters each row by one
``itertools.compress``, a truth test per entry that runs in C on ints and
floats, and :func:`dense` writes a support back into rows of one zero.

Float mode's two tolerances live here too.  A float check of what exact mode
asserts with equality allows ``ROUNDING_TOL`` times the size of what it
compares, a size each check computes itself and only in float mode; a float
answer is certified within ``CERTIFY_TOL``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, floordiv, mul
from typing import Union

from .errors import InvalidParams

Scalar = Union[int, float, Fraction]

INF = float("inf")
NEG_INF = float("-inf")
FLOAT_MAX = int(sys.float_info.max)
ROUNDING_TOL = 1e-12
CERTIFY_TOL = 1e-9


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


def is_int_row(row) -> bool:
    """Whether every entry of row is an int (never a bool): one set of types."""
    return set(map(type, row)) == {int}


def int_rows(rows):
    """The rows as tuples, their own integer image, if every row is all ints."""
    return tuple(map(tuple, rows)) if all(map(is_int_row, rows)) else None


def parse_row(row) -> list:
    """parse_scalar of every entry, except that ints stay ints: a row of ints
    is returned as it is.  A row of ints and strings parses each distinct
    entry once, in the order of first appearance; no int equals a string, so
    the entries are their own keys.  Any other row goes entry by entry, since
    it may hold values that compare equal but parse apart (``0``, ``False``,
    ``0.0``, ``-0.0``) or that cannot be keys.  Either way the first entry
    that does not parse is the one reported."""
    types = set(map(type, row))
    if types == {int}:
        return row
    if types <= {int, str}:
        distinct = dict.fromkeys(row)
        parsed = dict(zip(distinct, map(parse_scalar, distinct)))
        return list(map(parsed.__getitem__, row))
    return list(map(parse_scalar, row))


def exactness(values) -> bool:
    """Whether every value is exact (an int or a Fraction, never a bool): one
    answer for the sequence, from the set of its entries' types, tested a
    type at a time."""
    return all(issubclass(t, (int, Fraction)) and t is not bool for t in set(map(type, values)))


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


def scaled_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """:func:`scaled` of every entry of ``rows`` in one call, cut back into
    rows of the same lengths: integer rows over one denominator, and it.

    Each distinct entry object is scaled once: the rows of a plan or a space
    share a few Fraction objects over many entries.  The key is ``id``, not
    the value, since hashing a Fraction costs more than scaling it; the rows
    keep every entry alive while its id is in use."""
    flat = list(chain.from_iterable(rows))
    ids = list(map(id, flat))
    distinct = dict(zip(ids, flat))
    ints, factor = scaled(list(distinct.values()))
    entries = map(dict(zip(distinct, ints)).__getitem__, ids)
    return tuple(tuple(islice(entries, len(row))) for row in rows), factor


def sparse(rows) -> tuple[tuple[int, int, Scalar], ...]:
    """The support of rows: (i, j, rows[i][j]) for every entry that is true,
    in row-major order.  0, 0.0 and -0.0 are left out, NaN is kept.

    A support is built as a list and then made a tuple, here and wherever
    one is built.  ``tuple()`` of a list takes a tuple of its length from
    CPython's free lists; ``tuple()`` of a generator grows a fresh one, and
    those, freed, fill the free lists of lengths up to 20 to their cap of
    2,000 each: up to about 1.5 MB of resident memory for supports of 17
    to 20 entries, which n = 12 to 16 plans have."""
    return tuple([(i, j, row[j]) for i, row in enumerate(rows) for j in compress(count(), row)])


def dense(support, ns: int, nt: int, zero) -> list[list]:
    """The ns x nt rows that hold a support's entries and ``zero`` elsewhere."""
    rows = [[zero] * nt for _ in range(ns)]
    for i, j, x in support:
        rows[i][j] = x
    return rows


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
    if is_int_row(row):
        if max(map(abs, row)) <= FLOAT_MAX:
            return None
    elif all(map(is_finite, row)):
        return None
    return next(j for j, x in enumerate(row) if not is_finite(x))


def in_float_range(value: Scalar, what: str) -> Scalar:
    """``value``; a float that overflowed to inf or NaN is an InvalidParams naming ``what``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidParams(f"{what} lies beyond float range")
    return value


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
    ints = list(map(is_int_row, rows))
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
    return value
