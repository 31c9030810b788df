import builtins
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genwass import (
    DiscreteMeasure,
    build_quotient,
    dirac,
    invariant_lift,
    measure,
    pushforward,
    symmetrize,
    validate_action,
    validate_metric,
)
from genwass.errors import InvalidWeight, SpaceMismatch, TargetIndexOutOfRange
from genwass import jsonio, measures, scalars
from genwass.measures import TransportPlan, is_invariant
from genwass.scalars import ROUNDING_TOL, coerce, is_finite, scaled, scaled_rows
from genwass.selftest import random_rational_measure, random_space_with_action
from reference import is_submeasure, lebesgue_decompose
from reference import symmetrize as running_total_mean


@pytest.fixture
def swap_action(two_point):
    return validate_action(two_point, [(0, 1), (1, 0)])


def test_negative_weight_rejected(two_point):
    with pytest.raises(InvalidWeight) as err:
        measure(two_point, [-1, 0])
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_non_finite_weight_rejected(two_point, bad, exact):
    space = two_point if exact else two_point.as_float()
    with pytest.raises(InvalidWeight, match="not finite"):
        measure(space, [bad, 1.0])
    with pytest.raises(InvalidWeight, match="not finite"):
        DiscreteMeasure(space, (bad, 1.0))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_the_first_bad_weight_is_the_one_named(exact):
    # a weight vector is tested whole, and only a failing one is walked: the
    # error names the first bad weight, negative or not finite, in the
    # measure's own check and, for weights given in another kind, before
    # coercion; a problem file's weights reach the same check
    space = validate_metric("xyz", [[0, 1, 2], [1, 0, 1], [2, 1, 0]], exact=exact)
    huge = 10**400
    cases = [
        ([-1, float("nan"), 1], "negative weight at point 0"),
        ([1, -1, float("inf")], "negative weight at point 1"),
        ([float("nan"), -1, 0], "weight at point 0 is not finite: nan"),
        ([0, huge, -1], f"weight at point 1 is not finite: {huge}"),
        ([0, -1, huge], "negative weight at point 1"),
        ([Fraction(1, 3), -Fraction(1, 3), huge], "negative weight at point 1"),
    ]
    for weights, message in cases:
        with pytest.raises(InvalidWeight) as err:
            measure(space, weights)
        assert str(err.value) == message
        if all(type(w) is int for w in weights):  # a problem file's ints, parsed as a row
            with pytest.raises(InvalidWeight) as err:
                jsonio.parse_measure(dict(zip(space.labels, weights)), space, "mu")
            assert str(err.value) == message
    for weights, message in cases[:3]:  # already in the space's mode
        with pytest.raises(InvalidWeight) as err:
            DiscreteMeasure(space, tuple(coerce(w, exact) if is_finite(w) else w for w in weights))
        assert str(err.value) == message


def test_measure_needs_one_weight_per_point(two_point):
    with pytest.raises(ValueError, match="one weight per point required"):
        DiscreteMeasure(two_point, (1,))


def test_mass_sums_the_weights_once(two_point, monkeypatch):
    mu = measure(two_point, [Fraction(1, 2), 3])
    summed = []

    def counting_sum(values, *start):
        summed.append(values)
        return builtins.sum(values, *start)

    monkeypatch.setattr(measures, "sum", counting_sum, raising=False)
    assert mu.mass == mu.mass == Fraction(7, 2)
    assert [v for v in summed if v is mu.weights] == [mu.weights]
    # the cached mass is no field: equality and repr ignore it
    assert mu == measure(two_point, [Fraction(1, 2), 3])
    assert "mass" not in repr(mu)


def test_negative_scaling_rejected(two_point):
    with pytest.raises(ValueError, match="scaling factor must be nonnegative"):
        measure(two_point, [1, 1]).scale(-1)


def test_negative_plan_entry_rejected(two_point):
    with pytest.raises(ValueError, match="plan entries must be nonnegative"):
        TransportPlan(two_point, ((0, 1, -1),))


@pytest.mark.parametrize(
    "support, message",
    [
        (((0, 2, 1),), "row-major"),  # a column outside the space
        (((-1, 0, 1),), "row-major"),
        (((True, 0, 1),), "row-major"),  # a bool is no point index
        (((0, 1, 1), (0, 1, 2)), "row-major"),  # a cell twice
        (((1, 0, 1), (0, 1, 1)), "row-major"),  # out of order
        (((0, 1, Fraction(0)),), "no zero entry"),
        (((0, 1, -0.0),), "no zero entry"),
    ],
)
def test_a_plan_support_lists_nonzero_entries_of_distinct_cells_in_order(two_point, support, message):
    with pytest.raises(ValueError, match=message):
        TransportPlan(two_point, support)


def test_the_plan_image_stays_out_of_the_fields(two_point, monkeypatch):
    # the plan's one field is its support; the integer image, the sums, the
    # total and the dense matrix are cached properties, as a space's and a
    # measure's image are: built once per plan, and no field, so eq, hash and
    # repr skip them
    built = []

    def counting_scaled(values):
        built.append(values)
        return scaled(values)

    monkeypatch.setattr(measures, "scaled", counting_scaled)
    support = ((0, 0, Fraction(1, 2)), (1, 0, Fraction(1, 3)), (1, 1, Fraction(1, 6)))
    plan, twin = TransportPlan(two_point, support), TransportPlan(two_point, support)
    for _ in range(3):
        assert plan.total == Fraction(1)
        assert plan.row_sums() == (Fraction(1, 2), Fraction(1, 2))
        assert plan.col_sums() == (Fraction(5, 6), Fraction(1, 6))
        assert plan.gamma == ((Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 6)))
    assert built == [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]] * 2  # the sign check builds each
    assert [f.name for f in dataclasses.fields(TransportPlan)] == ["space", "support"]
    assert {"_scaled", "_sums", "total", "gamma"} <= set(vars(plan)) and "total" not in vars(twin)
    assert twin == plan and hash(twin) == hash(plan) and repr(twin) == repr(plan)
    assert not any(name in repr(plan) for name in ("_scaled", "_sums", "total", "gamma"))
    # the dense matrix has the zero of the space's mode off the support
    assert [type(x) for row in plan.gamma for x in row] == [Fraction] * 4
    float_plan = TransportPlan(two_point.as_float(), ((0, 1, 0.5),))
    assert float_plan.gamma == ((0.0, 0.5), (0.0, 0.0)) and float_plan.row_sums() == (0.5, 0.0)
    assert [type(x) for x in float_plan.row_sums() + float_plan.col_sums()] == [float] * 4
    # float masses on the exact space keep float zeros; no mass at all reads as exact
    mixed = TransportPlan(two_point, ((0, 1, 0.5),))
    assert repr((mixed.gamma, mixed.row_sums(), mixed.total)) == "(((0.0, 0.5), (0.0, 0.0)), (0.5, 0.0), 0.5)"
    empty = TransportPlan(two_point, ())
    assert repr((empty.gamma[0], empty.col_sums(), empty.total)) == repr(((Fraction(0),) * 2, (Fraction(0),) * 2, Fraction(0)))


def test_submeasure_basic(two_point):
    assert is_submeasure(measure(two_point, [0, 1]), measure(two_point, [1, 1]))
    assert not is_submeasure(measure(two_point, [2, 0]), measure(two_point, [1, 1]))


def test_submeasure_reflexive(two_point):
    mu = measure(two_point, [Fraction(1, 3), 2])
    assert is_submeasure(mu, mu)


def test_space_mismatch(two_point, two_point_far):
    with pytest.raises(SpaceMismatch):
        is_submeasure(measure(two_point, [1, 0]), measure(two_point_far, [1, 0]))


def test_lebesgue_decomposition(two_point):
    sigma = measure(two_point, [1, 2])
    tau = measure(two_point, [2, 0])
    dec = lebesgue_decompose(sigma, tau)
    assert dec.density == (Fraction(1, 2), 0)
    assert dec.singular.weights == (0, 2)


def test_lebesgue_self(two_point):
    mu = measure(two_point, [1, 2])
    dec = lebesgue_decompose(mu, mu)
    assert dec.density == (1, 1)
    assert dec.singular.mass == 0


def test_lebesgue_zero(two_point):
    zero = measure(two_point, [0, 0])
    dec = lebesgue_decompose(zero, measure(two_point, [1, 0]))
    assert dec.density == (0, 0)
    assert dec.singular.mass == 0


def test_lebesgue_reconstruction_exact(two_point):
    sigma = measure(two_point, [Fraction(3, 4), Fraction(5, 2)])
    tau = measure(two_point, [Fraction(1, 2), 0])
    dec = lebesgue_decompose(sigma, tau)
    for i in range(2):
        assert dec.density[i] * tau.weights[i] + dec.singular.weights[i] == sigma.weights[i]
        if tau.weights[i] > 0:
            assert dec.singular.weights[i] == 0
        else:
            assert dec.density[i] == 0


@pytest.mark.parametrize("point", [-1, 2, 1.0, True, "0"], ids=["negative", "past-the-end", "float", "bool", "string"])
def test_dirac_needs_a_point_index(two_point, point):
    with pytest.raises(ValueError, match="is not a point index of a space with 2 points"):
        dirac(two_point, point)


def test_pushforward_identity(two_point):
    mu = measure(two_point, [2, 1])
    assert pushforward([0, 1], mu).weights == (2, 1)


def test_pushforward_constant_collapses(two_point):
    mu = measure(two_point, [2, 1])
    assert pushforward([0, 0], mu).weights == (3, 0)


def test_pushforward_swap(two_point):
    mu = measure(two_point, [2, 1])
    assert pushforward([1, 0], mu).weights == (1, 2)


def test_pushforward_out_of_range(two_point):
    with pytest.raises(TargetIndexOutOfRange):
        pushforward([0, 5], measure(two_point, [1, 1]))


@pytest.mark.parametrize(
    "table, message",
    [([0], "the map must be total"), ([0, 1.7], "point 1 maps to 1.7,"), (["1", 1], "point 0 maps to '1',"),
     ([0, 1.0], "point 1 maps to 1.0,"), ([0, True], "point 1 maps to True,")],
    ids=["short", "float", "string", "integral-float", "bool"],
)
def test_pushforward_needs_a_table_of_point_indices(two_point, table, message):
    with pytest.raises(ValueError, match=message):
        pushforward(table, measure(two_point, [1, 1]))


@given(st.lists(st.integers(0, 10), min_size=3, max_size=3))
def test_pushforward_preserves_mass(ws):
    space = validate_metric(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    mu = measure(space, ws)
    assert pushforward([2, 0, 0], mu).mass == mu.mass


def test_symmetrize_swap(two_point, swap_action):
    mu = measure(two_point, [2, 0])
    assert symmetrize(swap_action, mu).weights == (1, 1)


def test_symmetrize_fixes_invariant(two_point, swap_action):
    mu = measure(two_point, [Fraction(3, 2), Fraction(3, 2)])
    assert symmetrize(swap_action, mu).weights == mu.weights


def test_symmetrize_idempotent(two_point, swap_action):
    mu = measure(two_point, [5, 1])
    once = symmetrize(swap_action, mu)
    assert symmetrize(swap_action, once).weights == once.weights


def test_symmetrize_trivial_group(two_point):
    action = validate_action(two_point, [(0, 1)])
    mu = measure(two_point, [2, 0])
    assert symmetrize(action, mu).weights == mu.weights


def seeded_actions_and_measures(seed, count):
    """Seeded actions with a measure each: exact, the float copy of the
    action with float weights, a non-faithful copy (every element twice, in
    shuffled order), and measures whose weights are of the other mode."""
    rng = random.Random(seed)
    for _ in range(count):
        action = random_space_with_action(rng)
        mu = random_rational_measure(rng, action.space)
        space = action.space.as_float()
        floats = validate_action(space, action.elements, action.labels)
        doubled = list(action.elements) * 2
        rng.shuffle(doubled)
        yield action, mu
        yield floats, measure(space, [rng.random() * 10 ** rng.randint(-3, 6) for _ in range(space.n)])
        yield validate_action(action.space, doubled), mu
        yield floats, DiscreteMeasure(space, mu.weights)
        yield action, DiscreteMeasure(action.space, tuple(map(float, mu.weights)))


def test_symmetrize_matches_the_running_total_reference():
    for action, mu in seeded_actions_and_measures(seed=2300, count=120):
        mean, reference = symmetrize(action, mu), running_total_mean(action, mu)
        assert repr(mean) == repr(reference)
        assert list(map(type, mean.weights)) == list(map(type, reference.weights))


def test_invariant_lift_uniform_on_orbit(two_point, swap_action):
    q = build_quotient(swap_action)
    lifted = invariant_lift(swap_action, q, dirac(q.quotient, 0, 2))
    assert lifted.weights == (1, 1)


def test_invariant_lift_needs_a_quotient_measure(two_point, swap_action):
    with pytest.raises(SpaceMismatch, match="the measure must live on the quotient space"):
        invariant_lift(swap_action, build_quotient(swap_action), dirac(two_point, 0))


def test_invariant_lift_reflection(line3):
    action = validate_action(line3, [(0, 1, 2), (2, 1, 0)])
    q = build_quotient(action)
    nu_star = dirac(q.quotient, q.projection[2])
    lifted = invariant_lift(action, q, nu_star)
    assert lifted.weights == (Fraction(1, 2), 0, Fraction(1, 2))


def test_invariant_lift_trivial_group(line3):
    action = validate_action(line3, [(0, 1, 2)])
    q = build_quotient(action)
    nu_star = measure(q.quotient, [1, 2, 3])
    assert invariant_lift(action, q, nu_star).weights == (1, 2, 3)


def test_lift_is_right_inverse_of_projection(line3):
    action = validate_action(line3, [(0, 1, 2), (2, 1, 0)])
    q = build_quotient(action)
    nu_star = measure(q.quotient, [Fraction(2, 3), Fraction(1, 5)])
    lifted = invariant_lift(action, q, nu_star)
    back = pushforward(q.projection, lifted, q.quotient)
    assert back.weights == nu_star.weights


def test_invariant_lift_in_float_mode():
    space = validate_metric(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]], exact=False)
    action = validate_action(space, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    q = build_quotient(action)
    nu_star = measure(q.quotient, [0.1])
    lifted = invariant_lift(action, q, nu_star)
    assert is_invariant(action, lifted) is None
    back = pushforward(q.projection, lifted, q.quotient)
    assert abs(back.weights[0] - 0.1) <= ROUNDING_TOL * (1.0 + nu_star.mass)


def test_invariant_lift_of_an_exact_quotient_measure_with_float_weights(line3):
    action = validate_action(line3, [(0, 1, 2), (2, 1, 0)])
    q = build_quotient(action)
    nu_star = DiscreteMeasure(q.quotient, (0.5, 0.25))
    lifted = invariant_lift(action, q, nu_star)
    assert all(type(w) is Fraction for w in lifted.weights)
    assert is_invariant(action, lifted) is None
    back = pushforward(q.projection, lifted, q.quotient)
    assert back.weights == (Fraction(1, 2), Fraction(1, 4))


def test_scaled_rows_scales_each_entry_object_once(monkeypatch):
    # keyed by the object, not the value: equal Fractions that are distinct
    # objects are scaled apart, and every one to the same image as one
    # scaled() call over all the entries gives
    calls = []
    monkeypatch.setattr(scalars, "scaled", lambda values: calls.append(list(values)) or scaled(values))
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = ((half, 0, half, third), (0, Fraction(1, 2), 5, half))
    flat, factor = scaled([*rows[0], *rows[1]])
    assert scaled_rows(rows) == ((tuple(flat[:4]), tuple(flat[4:])), factor) == (((3, 0, 3, 2), (0, 3, 30, 3)), 6)
    assert calls == [[half, 0, third, Fraction(1, 2), 5]]
    assert calls[0][0] is half and calls[0][3] is rows[1][1]
    assert scaled_rows(()) == ((), 1) and scaled_rows(((), ())) == (((), ()), 1)
