"""Seeded benchmark inputs, built without calling genwass.

Metrics are random integer edge lengths closed under shortest paths by
Floyd-Warshall on plain ints, so the triangle inequality holds by
construction and no genwass validation is charged to input generation.
The program only ever sees the problem files written here, or the plain
lists and Fractions handed to its library API inside a timed op.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

AB_EXACT = (Fraction(1, 2), Fraction(1), Fraction(2))
# (a, b) pairs that the sized workloads cycle through, so every run has the
# same mix.  At p = 1 mass ships on an arc only where b d < 2a; these give
# 2a/b = 2, 4 and 8 against closed distances of 1 to 3 or so.  Pairs with
# 2a/b <= 1, where nothing ships and the flow has no work, are left out.
AB_CYCLE = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1, 2)))


def int_metric(rng: random.Random, n: int, max_d: int = 5) -> list[list[int]]:
    """Random integer distances in [1, max_d], closed under shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            d[i] = [x if x <= dik + y else dik + y for x, y in zip(d[i], dk)]
    return d


def rational_weights(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(0, 6), rng.choice((1, 2, 4))) for _ in range(n)]


def int_weights(rng: random.Random, n: int, max_w: int = 3) -> list[int]:
    return [rng.randint(0, max_w) for _ in range(n)]


def float_weights(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.0, 3.0) for _ in range(n)]


def labels(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def to_json(x):
    """Fractions as "p/q" strings (ints when integral); ints and floats as is."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def write_problem(path, d, mu, nu, a, b, p) -> None:
    """Write one problem file in the format `genwass --input` reads."""
    names = labels(len(d))
    doc = {
        "space": {"points": names, "d": d},
        "mu": {x: to_json(w) for x, w in zip(names, mu)},
        "nu": {x: to_json(w) for x, w in zip(names, nu)},
        "params": {"a": to_json(a), "b": to_json(b), "p": p},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
