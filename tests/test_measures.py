from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genwass import (
    DiscreteMeasure,
    build_quotient,
    dirac,
    invariant_lift,
    is_submeasure,
    lebesgue_decompose,
    measure,
    pushforward,
    symmetrize,
    validate_action,
    validate_metric,
)
from genwass.errors import InvalidWeight, SpaceMismatch, TargetIndexOutOfRange
from genwass.measures import TransportPlan


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


def test_measure_needs_one_weight_per_point(two_point):
    with pytest.raises(ValueError, match="one weight per point required"):
        DiscreteMeasure(two_point, (1,))


def test_negative_scaling_rejected(two_point):
    with pytest.raises(ValueError, match="scaling factor must be nonnegative"):
        measure(two_point, [1, 1]).scale(-1)


def test_negative_plan_entry_rejected(two_point):
    with pytest.raises(ValueError, match="plan entries must be nonnegative"):
        TransportPlan(two_point, ((0, -1), (0, 0)))


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
