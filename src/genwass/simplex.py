"""Exact simplex with Bland's rule on an integer condensed tableau.

Solves  max c.x  subject to  A x <= b, x >= 0  with all entries rational and
b >= 0 (so the slack basis is feasible and no phase 1 is needed).  Bland's
smallest-index pivoting rule prevents cycling.  Intended for the desk-scale
LPs in this package.

The tableau is condensed (Tucker form): one row per constraint and one column
per nonbasic variable plus the right-hand side, m x (n + 1), with the labels
of the basic and nonbasic variables swapped at each pivot instead of storing
the identity block of the slack columns.  The tableau holds integers, scaled
twice: the right-hand-side column once, by the common denominator C of all
of b, and each row of A by the LCM f_i of its own denominators (1 for a row
of ints, which is kept as it is), so row i is f_i [A_i | C b_i]; c is scaled
by its own factor.  A positive factor per row is a positive rescaling of that
row's slack, and the one factor C scales every ratio of the ratio test
alike, so every comparison and every reduced-cost sign is that of the
unscaled rational tableau, and so are the pivots.  Pivoting is fraction-free
(Edmonds 1967, Bareiss 1968): every entry is an integer over one common
denominator d, each update ``(t[i][k] * p - t[i][s] * t[r][k]) // d`` divides
exactly, and the optimum is divided out once at the end (x by d C, the value
by d C times c's factor), so it is exact.

On a totally unimodular A of ints, such as the flat LP's rows e_i and
e_i - e_j (a network matrix; Schrijver, *Theory of Linear and Integer
Programming*, 1986), every f_i is 1 and every basis determinant is +-1, so
every pivot is 1 and d stays 1: rows with a zero in the entering column are
never touched, and every other row is updated as row - f * prow on the
columns where the pivot row is nonzero.  Scaling each row [A_i | b_i] by its
own LCM instead would make a row with b_i = k/2 a row with a 2 in A, and d
would grow as the product of such factors.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import is_int_row, scaled


def _rational(value):
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def maximize(c, rows, rhs) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal x) for max c.x, rows.x <= rhs, x >= 0."""
    n = len(c)
    rhs = [_rational(v) for v in rhs]
    if any(v < 0 for v in rhs):
        raise ValueError("right-hand sides must be nonnegative")

    # constraint rows f_i [A_i | C b_i] on integers, then the objective row [-c | 0]
    rhs, rhs_scale = scaled(rhs)
    tab = []
    for row, b in zip(rows, rhs):
        if is_int_row(row):
            tab.append([*row, b])
        else:
            row, f = scaled([_rational(v) for v in row])
            tab.append([*row, b * f])
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
        # a unit pivot over d = 1 updates a row to row - f * prow, which
        # changes only the columns where prow is nonzero
        support = [k for k, y in enumerate(prow) if y] if p == d == 1 else None
        for row in (*tab, obj):
            if row is prow:
                continue
            f = row[enter]
            if f:
                if support:
                    for k in support:
                        row[k] -= f * prow[k]
                else:
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
            x[label] = Fraction(row[n], d * rhs_scale)
    return Fraction(obj[n], d * c_scale * rhs_scale), x
