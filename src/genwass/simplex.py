"""Exact simplex with Bland's rule on an integer condensed tableau.

Solves  max c.x  subject to  A x <= b, x >= 0  with all entries rational and
b >= 0 (so the slack basis is feasible and no phase 1 is needed).  Bland's
smallest-index pivoting rule prevents cycling.  Intended for the desk-scale
LPs in this package.

The tableau is condensed (Tucker form): one row per constraint and one column
per nonbasic variable plus the right-hand side, m x (n + 1), with the labels
of the basic and nonbasic variables swapped at each pivot instead of storing
the identity block of the slack columns.  Each row [A_i | b_i] is scaled to
integers by the LCM of its denominators and c by its own; positive scaling
keeps every ratio and every reduced-cost sign, so the pivots are those of the
unscaled rational tableau.  Pivoting is fraction-free (Edmonds 1967, Bareiss
1968): every entry is an integer over one common denominator d, each update
``(t[i][k] * p - t[i][s] * t[r][k]) // d`` divides exactly, and the optimum is
divided out once at the end, so it is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import scaled


def _rational(value):
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def maximize(c, rows, rhs) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal x) for max c.x, rows.x <= rhs, x >= 0."""
    n = len(c)
    rhs = [_rational(v) for v in rhs]
    if any(v < 0 for v in rhs):
        raise ValueError("right-hand sides must be nonnegative")

    # constraint rows [A_i | b_i] on integers, then the objective row [-c | 0]
    tab = [scaled([_rational(v) for v in row] + [b])[0] for row, b in zip(rows, rhs)]
    obj, c_scale = scaled([_rational(v) for v in c])
    obj = [-v for v in obj] + [0]
    basis = list(range(n, n + len(tab)))  # label of the basic variable of each row
    nonbasic = list(range(n))  # label of the nonbasic variable of each column
    d = 1  # common denominator of every entry

    while True:
        enter = -1
        for k in range(n):  # Bland: smallest label with negative reduced cost
            if obj[k] < 0 and (enter < 0 or nonbasic[k] < nonbasic[enter]):
                enter = k
        if enter < 0:
            break

        leave = -1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[n] / a against tab[leave][n] / tab[leave][enter]
                lhs = row[n] * tab[leave][enter]
                best = tab[leave][n] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ValueError("LP is unbounded")

        prow = tab[leave]
        p = prow[enter]
        for row in (*tab, obj):
            if row is prow:
                continue
            f = row[enter]
            if f:
                row[:] = [(x * p - f * y) // d for x, y in zip(row, prow)]
                row[enter] = -f
            elif p != d:
                row[:] = [x * p // d for x in row]
        prow[enter] = d
        d = p
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    x = [Fraction(0)] * n
    for row, label in zip(tab, basis):
        if label < n:
            x[label] = Fraction(row[n], d)
    return Fraction(obj[n], d * c_scale), x
