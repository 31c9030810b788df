"""The problem reader decides the kind of each row once; the per-entry reader
it replaced is kept here as the reference it must match, value for value
and error for error."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genwass import EntropyParams, jsonio, scalars, solve_w1
from genwass.duality import DualPotentials
from genwass.errors import NonFiniteEntry
from genwass.scalars import coerce, exactness, first_nonfinite, is_finite, parse_row, parse_scalar
from genwass.selftest import random_int_metric, random_rational_measure
from genwass.spaces import validate_metric
from reference import DensePlan


def reference_load_problem(doc, mode=None):
    """``jsonio.load_problem`` with the per-entry space reader and mode test."""
    if not isinstance(doc, dict):
        raise ValueError("problem file must be a JSON object")
    for key in ("space", "mu", "nu", "params"):
        if key not in doc:
            raise ValueError(f"problem file is missing the {key!r} field")

    mode = mode or doc.get("mode")
    if mode is None:
        exact = reference_all_exact(doc)
    elif mode in ("exact", "float"):
        exact = mode == "exact"
    else:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")

    space = reference_parse_space(doc["space"], exact=exact)
    mu = jsonio.parse_measure(doc["mu"], space, "mu")
    nu = jsonio.parse_measure(doc["nu"], space, "nu")
    params = jsonio.parse_params(doc["params"], exact=exact)
    action = jsonio.parse_action(doc["group"], space) if "group" in doc else None
    seed = jsonio.parse_seed(doc.get("seed", 0))
    return jsonio.Problem(space=space, mu=mu, nu=nu, params=params, action=action, seed=seed)


def reference_parse_space(doc, exact=None):
    if not (isinstance(doc, dict) and isinstance(doc.get("points"), list) and jsonio._is_matrix(doc.get("d"))):
        raise ValueError('space must be {"points": [...], "d": [[...]]}')
    matrix = [[parse_scalar(x) for x in row] for row in doc["d"]]
    return reference_validate_metric(doc["points"], matrix, exact=exact)


def reference_validate_metric(labels, matrix, exact=None):
    """The checks and conversions ``validate_metric`` makes before the metric
    axioms, entry by entry; the axioms are then checked on the result."""
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("a space needs at least one point")
    if len(set(labels)) != len(labels):
        raise ValueError("point labels must be unique")
    n = len(labels)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"distance matrix must be {n}x{n}")

    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if not is_finite(x):
                raise NonFiniteEntry(i, j, labels)
    if exact is None:
        exact = exactness(x for row in matrix for x in row)
    dist = tuple(tuple(coerce(x, exact) for x in row) for row in matrix)
    return validate_metric(labels, dist, exact=exact)


def reference_all_exact(doc) -> bool:
    space, params = doc["space"], doc["params"]
    d = space.get("d") if isinstance(space, dict) else None
    scalars = [x for row in d for x in row] if jsonio._is_matrix(d) else []
    scalars += [x for key in ("mu", "nu") if isinstance(doc[key], dict) for x in doc[key].values()]
    if isinstance(params, dict):
        scalars += [params[key] for key in ("a", "b", "p") if key in params]
    return exactness(x for x in scalars if not isinstance(x, str))


def reference_parse_plan(doc, space):
    gamma = [[coerce(parse_scalar(x), space.exact) for x in row] for row in doc]
    return DensePlan(space, tuple(tuple(row) for row in gamma)).plan


def reference_parse_report(report, space, params):
    """The three reads ``verify --report`` made: the potentials entry by
    entry after the shape and before the lengths, then the plan, then the value."""
    if not (
        isinstance(report, dict)
        and "value" in report
        and jsonio._is_matrix(report.get("plan"))
        and isinstance(report.get("phi1"), list)
        and isinstance(report.get("phi2"), list)
    ):
        raise ValueError('a report must be {"value": ..., "plan": [[...]], "phi1": [...], "phi2": [...]}')
    one = [coerce(parse_scalar(x), space.exact) for x in report["phi1"]]
    two = [coerce(parse_scalar(x), space.exact) for x in report["phi2"]]
    if len(one) != space.n or len(two) != space.n:
        raise ValueError("potential vectors must match the space size")
    potentials = DualPotentials(phi1=tuple(one), phi2=tuple(two), params=params)
    plan = reference_parse_plan(report["plan"], space)
    return plan, potentials, coerce(parse_scalar(report["value"]), space.exact)


def report_outcome(read, report, space, params):
    """``outcome`` for a report reader: the reprs of the plan, its integer
    image, the potentials and the value, or the error raised."""
    try:
        plan, potentials, value = read(copy.deepcopy(report), space, params)
    except Exception as exc:
        return "error", type(exc), str(exc), vars(exc)
    return "ok", repr(plan), repr(plan._scaled), repr(potentials), repr(value)


def outcome(read, *args):
    """What a reader gives: the repr of its result and of the integer image
    beside it, or the type, message and witness of the error it raises."""
    try:
        result = read(*copy.deepcopy(args))
    except Exception as exc:
        return "error", type(exc), str(exc), vars(exc)
    scaled = result.space._scaled if isinstance(result, jsonio.Problem) else result._scaled
    return "ok", repr(result), repr(scaled)


# Entries that are not a finite number, or sit at the edge of float range.
BAD = [
    "x", "", "1/0", "1e400", True, False, None, [1], [], {"a": 1},
    10**400, -10**400, 2**1024 - 2**970, 1e308, -1e308, float("nan"), float("inf"), -1,
]


@st.composite
def documents(draw):
    """Closed metrics and plans written as ints, floats, "p/q" strings or a
    mix of them, row by row, with a few entries swapped for bad ones."""
    n = draw(st.integers(1, 5))
    d = [[0 if i == j else draw(st.integers(1, 4)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            d[i] = [min(x, d[i][k] + y) for x, y in zip(d[i], d[k])]
    q = draw(st.sampled_from([1, 2, 3]))

    def written(x, kind):
        if kind == "mixed":
            kind = draw(st.sampled_from(["int", "float", "str"]))
        if kind == "int":
            return x
        if kind == "float":
            return x / q
        f = Fraction(x, q)
        return f"{f.numerator}/{f.denominator}"

    def rows(matrix):
        kinds = st.sampled_from(["int", "int", "float", "str", "mixed"])
        out = [[written(x, kind) for x in row] for row, kind in zip(matrix, [draw(kinds) for _ in matrix])]
        swaps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(BAD))
        for i, j, bad in draw(st.lists(swaps, max_size=3)):
            out[i][j] = bad
        return out

    labels = [f"p{i}" for i in range(n)]
    weight = st.integers(0, 4) | st.sampled_from(["1/2", "3/4", 0.5, 1.25])
    doc = {
        "space": {"points": labels, "d": rows(d)},
        "mu": {x: draw(weight) for x in labels},
        "nu": {x: draw(weight) for x in labels},
        "params": {
            "a": draw(st.sampled_from([1, "1/2", 1.5])),
            "b": draw(st.sampled_from([1, "1/3", 0.5])),
            "p": draw(st.sampled_from([1, 2])),
        },
        "plan": rows([[draw(st.integers(0, 6)) for _ in range(n)] for _ in range(n)]),
    }
    mode = draw(st.sampled_from([None, "exact", "float"]))
    if mode is not None:
        doc["mode"] = mode
    return doc


def two_points(d, plan=((0, 1), (0, 0)), mode=None):
    doc = {
        "space": {"points": ["x", "y", "z"][: len(d)], "d": d},
        "mu": {"x": 1},
        "nu": {"y": 1},
        "params": {"a": 1, "b": 1},
        "plan": [list(row) for row in plan],
    }
    if mode is not None:
        doc["mode"] = mode
    return doc


@settings(max_examples=300, deadline=None)
@given(documents())
@example(two_points([[0, 10**400, "x"], [10**400, 0, 1], [1, 1, 0]]))  # a bad string after a 10**400
@example(two_points([[0, 1, 10**400], [-10**400, 0, 1], [1, 1, 0]], mode="float"))  # two non-finite rows
@example(two_points([[0, True], [1, 0]]))  # a bool inside an int row
@example(two_points([[0, 1], [1, 0]], plan=[[0, 10**400], [True, 0]], mode="float"))
def test_readers_match_the_per_entry_reference(doc):
    got = outcome(jsonio.load_problem, doc)
    assert got == outcome(reference_load_problem, doc)
    if got[0] == "ok":
        space = jsonio.load_problem(copy.deepcopy(doc)).space
        assert outcome(jsonio.parse_plan, doc["plan"], space) == outcome(reference_parse_plan, doc["plan"], space)


@st.composite
def reports(draw):
    """A space of 1-4 points, exact or float, and a report on it whose plan
    and potentials are written as in ``documents``, now and then with a
    vector one entry short or long, a bad entry, or a field of the wrong kind."""
    n = draw(st.integers(1, 4))
    exact = draw(st.booleans())
    space = validate_metric([f"p{i}" for i in range(n)], [[abs(i - j) for j in range(n)] for i in range(n)], exact)
    params = jsonio.parse_params({"a": 1, "b": "1/2"}, exact)

    def written(length, entries):
        row_kind = draw(st.sampled_from(["int", "int", "float", "str", "mixed"]))
        out = []
        for x in draw(st.lists(entries, min_size=length, max_size=length)):
            kind = draw(st.sampled_from(["int", "float", "str"])) if row_kind == "mixed" else row_kind
            out.append(x if kind == "int" else x / 3 if kind == "float" else f"{x}/3")
        if length and draw(st.integers(0, 9)) == 0:
            out[draw(st.integers(0, length - 1))] = draw(st.sampled_from(BAD))
        return out

    def length():
        return draw(st.sampled_from([n] * 18 + [n - 1, n + 1]))

    report = {
        "value": draw(st.sampled_from([0, 1, 5, "7/2", 1.5] * 3 + ["x", None, 10**400])),
        "plan": [written(length(), st.integers(0, 6)) for _ in range(length())],
        "phi1": written(length(), st.integers(-3, 3)),
        "phi2": written(length(), st.integers(-3, 3)),
    }
    broken = draw(st.sampled_from([None] * 16 + ["value", "plan", "phi1", "phi2"]))
    if broken is not None:
        report[broken] = draw(st.sampled_from([3, None, {"a": 1}, [1, 2]]))
    return report, space, params


@settings(max_examples=300, deadline=None)
@given(reports())
@example((dict(value=1, plan=[[0, 1], [0, 0]], phi1=["x", 1], phi2=[True, 1]), validate_metric("xy", [[0, 1], [1, 0]]),
          jsonio.parse_params({"a": 1, "b": 1}, True)))  # phi1 is read before phi2
@example((dict(value="x", plan=[[0, 1]], phi1=[1, 0], phi2=[-1]), validate_metric("xy", [[0, 1], [1, 0]]),
          jsonio.parse_params({"a": 1, "b": 1}, True)))  # the lengths before the plan and the value
def test_report_reader_matches_the_three_call_reference(drawn):
    report, space, params = drawn
    got = report_outcome(jsonio.parse_report, report, space, params)
    assert got == report_outcome(reference_parse_report, report, space, params)


@pytest.mark.parametrize("exact", [None, True, False], ids=["inferred", "exact", "float"])
@pytest.mark.parametrize(
    "matrix",
    [
        [[0, 1], [1, 0]],
        [[0, 1.5], [1.5, 0]],
        [[0, Fraction(3, 2)], [Fraction(3, 2), 0]],
        [[0, 1], [Fraction(1), 0.0]],
        [[0, 1.5], [True, 0]],
        [[0, 2**1024 - 2**970], [2**1024 - 2**970, 0]],
        [[0, 10**400], [float("nan"), 0]],
        [[0, 1], [float("inf"), 0]],
    ],
)
def test_library_matrices_match_the_per_entry_reference(matrix, exact):
    labels = ["x", "y"]
    assert outcome(validate_metric, labels, matrix, exact) == outcome(reference_validate_metric, labels, matrix, exact)


def test_int_rows_share_one_fraction_per_value():
    space = validate_metric(["x", "y", "z"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]], exact=True)
    twos = {id(x) for row in space.dist for x in row if x}
    assert len(twos) == 1 and space.dist[0][1] == Fraction(2)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([], True),
        ([1, 2], True),
        ([1, Fraction(1, 2)], True),
        ([Fraction(1, 2), 1.0], False),
        ([1, True], False),
        ([0.5], False),
        (["1/2"], False),
    ],
    ids=[f"values{k}-expected{k}" for k in range(7)],  # the names pytest gives non-scalar cases
)
def test_exactness_answers_for_the_sequence(values, expected):
    assert exactness(values) is expected
    assert expected == all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for x in values)


@pytest.mark.parametrize(
    "row, expected",
    [
        ([], None),
        ([0, 2**1023], None),
        ([0, 2**1024 - 2**970, 10**400], 1),
        ([0, True, 10**400], 2),
        ([1.5, float("nan"), float("inf")], 1),
        ([Fraction(1, 3), Fraction(10**400, 3)], 1),
        ([1, 0.5, Fraction(1, 2)], None),
    ],
)
def test_first_nonfinite_names_the_first_entry_past_float_range(row, expected):
    assert first_nonfinite(row) == expected
    assert first_nonfinite(row) == next((j for j, x in enumerate(row) if not is_finite(x)), None)


def test_parse_row_keeps_an_int_row_and_parses_any_other():
    ints = [0, 3, 10**400]
    assert parse_row(ints) is ints
    assert parse_row([1, "1/2", 0.5]) == [Fraction(1), Fraction(1, 2), 0.5]
    with pytest.raises(ValueError, match="not a number: True"):
        parse_row([1, True, "x"])


def test_parse_row_parses_each_distinct_entry_once(monkeypatch):
    calls = []
    monkeypatch.setattr(scalars, "parse_scalar", lambda x: calls.append(x) or parse_scalar(x))
    row = ["1/2", 0, "1/2", 0, "3", 0]
    parsed = parse_row(row)
    assert calls == ["1/2", 0, "3"]
    assert parsed == [Fraction(1, 2), 0, Fraction(1, 2), 0, 3, 0]
    assert all(type(x) is Fraction for x in parsed) and parsed[0] is parsed[2]


def test_parse_row_keeps_apart_entries_that_compare_equal():
    # 0 == False == 0.0 == -0.0, but they parse to a Fraction, an error, and
    # two floats of opposite sign
    zeros = parse_row([0, "0", 0.0, -0.0, "0"])
    assert [type(x) for x in zeros] == [Fraction, Fraction, float, float, Fraction]
    assert [math.copysign(1, x) for x in zeros[2:4]] == [1, -1]
    with pytest.raises(ValueError, match="not a number: False"):
        parse_row([0, "1/2", False, "x"])
    with pytest.raises(ValueError, match="not a number: True"):
        parse_row(["1", 1, True])


@pytest.mark.parametrize(
    "row, message",
    [
        ([0, "1/2", "x", "y", "1/2", "x"], "not a rational literal: 'x'"),
        (["1/2", 0, "1/0", "x"], "not a rational literal: '1/0'"),
        ([0, [1], "x"], r"not a number: \[1\]"),
        ([0, "1/2", None, "x"], "not a number: None"),
    ],
)
def test_parse_row_names_the_first_bad_entry(row, message):
    with pytest.raises(ValueError, match=message):
        parse_row(row)


def test_parse_plan_parses_each_distinct_entry_once_across_the_matrix(monkeypatch):
    # an exact plan of ints and "p/q" strings: one parse per distinct JSON
    # entry over all rows, and one shared Fraction per entry, ints included;
    # the plan keeps the nonzero ones as its support, in row-major order
    calls = []
    monkeypatch.setattr(jsonio, "parse_scalar", lambda x: calls.append(x) or parse_scalar(x))
    space = validate_metric("xyz", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    doc = [[0, "1/2", 0], ["1/2", 0, 3], [0, 3, "1/2"]]
    plan = jsonio.parse_plan(doc, space)
    assert calls == [0, "1/2", 3]
    assert plan == reference_parse_plan(doc, space)
    half = Fraction(1, 2)
    assert plan.support == ((0, 1, half), (1, 0, half), (1, 2, 3), (2, 1, 3), (2, 2, half))
    entries = [x for _, _, x in plan.support]
    assert all(type(x) is Fraction for x in entries)
    assert len({id(x) for x in entries}) == 2


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_zero_written_any_way_parses_to_the_plan_of_plain_zeros(exact):
    space = validate_metric("xy", [[0, 1], [1, 0]], exact)
    plain = jsonio.parse_plan([[0, "1/2"], [1, 0]], space)
    assert plain.support == ((0, 1, 0.5), (1, 0, 1))
    for zero in ("0/7", "0", 0.0, -0.0):
        for doc in ([[zero, "1/2"], [1, 0]], [[0, "1/2"], [1, zero]], [[zero, "1/2"], [1, zero]]):
            plan = jsonio.parse_plan(doc, space)
            assert plan == plain and plan.support == plain.support
            assert [type(x) for _, _, x in plan.support] == [Fraction if exact else float] * 2


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize(
    "doc, error",
    [
        ([[0, 1], [1]], "plan must be n x n for the space"),  # ragged
        ([[0, 1], [1, 0], [0, 0]], "plan must be n x n for the space"),
        ([[0, 1, 0], [1, 0, 0]], "plan must be n x n for the space"),
        ([[0, "-1/2"], [1, 0]], "plan entries must be nonnegative"),
        ([[0, -1], [1]], "plan must be n x n for the space"),  # the shape before the sign
        ([[0, float("nan")], [1, 0]], "not a finite number: nan"),
        ([[0, 1], [True, 0]], "not a number: True"),
        ([[0, 1], [[1], 0]], r"not a number: \[1\]"),
        ([[0, "x"], [1, [1]]], "not a rational literal: 'x'"),  # the first bad entry
        ([[0, 1], ["1/2"]], "plan must be n x n for the space"),
        ([[0, 1], [-1, "y"]], "not a rational literal: 'y'"),  # entries before the shape and the sign
    ],
)
def test_bad_plans_fail_as_the_dense_reference_does(doc, error, exact):
    space = validate_metric("xy", [[0, 1], [1, 0]], exact)
    with pytest.raises(ValueError, match=error):
        jsonio.parse_plan(doc, space)
    assert outcome(jsonio.parse_plan, doc, space) == outcome(reference_parse_plan, doc, space)


def test_float_and_mixed_plans_keep_the_row_path(monkeypatch):
    # float spaces, and exact plans with a float entry, go through parse_row
    calls = []
    monkeypatch.setattr(jsonio, "parse_row", lambda row: calls.append(row) or parse_row(row))
    exact, inexact = (validate_metric("xy", [[0, 1], [1, 0]], mode) for mode in (True, False))
    for space, doc in ((inexact, [[0, "1/2"], [1, 0]]), (exact, [[0, 0.5], [1, 0]]), (exact, [[0, "1/2"], [1, 0]])):
        assert jsonio.parse_plan(doc, space) == reference_parse_plan(doc, space)
    assert len(calls) == 4


def test_an_exact_report_formats_each_plan_entry_object_once(monkeypatch):
    # the dense rows are written from the plan's support: each support entry
    # is formatted once, exact or float, and every other entry is the plan's
    # zero, formatted once per report
    rng = random.Random(3014)
    space = random_int_metric(rng, 16)
    mu, nu = random_rational_measure(rng, space), random_rational_measure(rng, space)
    formatted = []
    monkeypatch.setattr(jsonio, "scalar_to_json", lambda x: formatted.append(x) or scalars.scalar_to_json(x))
    for space, params in ((space, EntropyParams(a=Fraction(2), b=Fraction(1, 2), p=1)), (space.as_float(), None)):
        if params is None:
            mu, nu = mu.as_float(space), nu.as_float(space)
            params = EntropyParams(a=2.0, b=0.5, p=1)
        report = solve_w1(space, mu, nu, params)
        formatted.clear()
        doc = jsonio.report_to_json(report)
        assert doc["plan"] == DensePlan(space, report.plan.gamma).to_json()
        assert 0 < len(report.plan.support) < space.n**2 / 4
        # the zero and the support's entries, then value, m, destroyed, created, phi1, phi2 and gap
        assert len(formatted) == 1 + len(report.plan.support) + 4 + 2 * space.n + 1
