import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genwass import EntropyParams, measure, simplex, solve_flat
from genwass.selftest import random_int_metric, random_params, random_rational_measure


def reference_maximize(c, rows, rhs):
    """The full-tableau Fraction simplex with Bland's rule: [A | I | b] rows
    and an objective row [-c | 0 | 0], divided through at every pivot."""
    n = len(c)
    m = len(rows)
    c = [Fraction(x) for x in c]
    rhs = [Fraction(x) for x in rhs]
    if any(v < 0 for v in rhs):
        raise ValueError("right-hand sides must be nonnegative")

    tab = []
    for i in range(m):
        row = [Fraction(x) for x in rows[i]]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(rhs[i])
        tab.append(row)
    obj = [-x for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    width = n + m + 1

    while True:
        enter = -1
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break

        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ValueError("LP is unbounded")

        piv = tab[leave][enter]
        prow = tab[leave]
        if piv != 1:
            for k in range(width):
                prow[k] /= piv
        for i in range(m):
            if i == leave:
                continue
            f = tab[i][enter]
            if f:
                row = tab[i]
                for k in range(width):
                    if prow[k]:
                        row[k] -= f * prow[k]
        f = obj[enter]
        if f:
            for k in range(width):
                if prow[k]:
                    obj[k] -= f * prow[k]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][width - 1]
    return obj[width - 1], x


def outcome(solver, c, rows, rhs):
    try:
        return solver(c, rows, rhs)
    except ValueError as exc:
        return str(exc)


def assert_same_as_reference(c, rows, rhs):
    got = outcome(simplex.maximize, c, rows, rhs)
    assert got == outcome(reference_maximize, c, rows, rhs)
    if not isinstance(got, str):
        value, x = got
        assert isinstance(value, Fraction)
        assert all(isinstance(v, Fraction) for v in x)


COEFS = st.sampled_from([Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2", "5/7")])
RHS = st.sampled_from([Fraction(v) for v in ("0", "1/2", "1", "4/3", "2", "3")])


@st.composite
def lps(draw, coefs=COEFS, rhs_values=RHS):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 7))
    c = draw(st.lists(coefs, min_size=n, max_size=n))
    rows = [draw(st.lists(coefs, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(rhs_values, min_size=m, max_size=m))
    return c, rows, rhs


@given(lps())
@example(([1, 2], [[1, 1], [2, 1]], [0, 0]))
@example(([0.5, -1.25], [[0.75, 1], [1, -2]], [1.5, 0]))
def test_maximize_matches_reference(lp):
    assert_same_as_reference(*lp)


# small nonnegative entries and right-hand sides of 0 or 1: many rows tie in
# the ratio test, often at zero, so Bland's smallest-label tie-break decides
@given(lps(coefs=st.sampled_from([0, 1, 1, 2]), rhs_values=st.sampled_from([0, 0, 1])))
def test_maximize_matches_reference_on_degenerate_lps(lp):
    assert_same_as_reference(*lp)


def test_unbounded_lp_raises():
    with pytest.raises(ValueError, match="unbounded"):
        simplex.maximize([1, 1], [[1, -1]], [1])
    with pytest.raises(ValueError, match="unbounded"):
        simplex.maximize([1], [], [])


def test_negative_rhs_raises():
    with pytest.raises(ValueError, match="nonnegative"):
        simplex.maximize([1], [[1]], [Fraction(-1, 3)])


def full_flat_lp(space, mu, nu, params):
    """The flat LP in x = f + a with every Lipschitz row materialized."""
    n = space.n
    c = [Fraction(mu.weights[i]) - Fraction(nu.weights[i]) for i in range(n)]
    rows = [[Fraction(int(k == i)) for k in range(n)] for i in range(n)]
    rhs = [2 * Fraction(params.a)] * n
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append([Fraction(int(k == i) - int(k == j)) for k in range(n)])
                rhs.append(Fraction(params.b) * Fraction(space.dist[i][j]))
    return c, rows, rhs


def flat_instances(seed, count, max_n, exact=True):
    rng = random.Random(seed)
    for _ in range(count):
        space = random_int_metric(rng, rng.randint(1, max_n))
        mu = random_rational_measure(rng, space)
        nu = random_rational_measure(rng, space)
        params = random_params(rng, p=1)
        if not exact:
            space = space.as_float()
            mu = measure(space, [float(w) for w in mu.weights])
            nu = measure(space, [float(w) for w in nu.weights])
            params = EntropyParams(a=float(params.a), b=float(params.b), p=1)
        yield space, mu, nu, params


def test_maximize_matches_reference_on_full_flat_lps():
    for instance in flat_instances(7, 60, 8):
        assert_same_as_reference(*full_flat_lp(*instance))


def test_flat_lp_drops_rows_through_a_midpoint(line3, unit_params, monkeypatch):
    seen = []
    original = simplex.maximize

    def spy(c, rows, rhs):
        seen.append(len(rows))
        return original(c, rows, rhs)

    monkeypatch.setattr(simplex, "maximize", spy)
    mu = measure(line3, [1, 0, 0])
    nu = measure(line3, [0, 0, 1])
    value, _ = solve_flat(line3, mu, nu, unit_params)
    # 3 bound rows, and 4 of the 6 Lipschitz rows: d(-1, 1) = d(-1, 0) + d(0, 1)
    assert seen == [7]
    assert value == 2


@pytest.mark.parametrize("exact", [True, False])
def test_pruned_flat_witness_meets_every_lipschitz_constraint(exact):
    for space, mu, nu, params in flat_instances(11, 80, 9, exact):
        value, witness = solve_flat(space, mu, nu, params)
        c, rows, rhs = full_flat_lp(space, mu, nu, params)
        full_value = reference_maximize(c, rows, rhs)[0] - Fraction(params.a) * sum(c)
        f = [Fraction(v) for v in witness.f]
        a, b = Fraction(params.a), Fraction(params.b)
        if exact:
            assert value == full_value
            slack = 0
        else:
            assert value == float(full_value)
            slack = Fraction(1e-12) * (1 + a + b * Fraction(space.diameter))
        assert all(-a - slack <= v <= a + slack for v in f)
        for i in range(space.n):
            for j in range(space.n):
                if i != j:
                    assert f[i] - f[j] <= b * Fraction(space.dist[i][j]) + slack
