"""The problem reader decides the kind of each row once; the per-entry reader
it replaced is kept here as the reference it must match, value for value
and error for error."""

import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genwass import jsonio
from genwass.errors import NonFiniteEntry
from genwass.measures import TransportPlan
from genwass.scalars import coerce, exactness, first_nonfinite, is_exact, is_finite, parse_row, parse_scalar
from genwass.spaces import validate_metric


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
        exact = all(is_exact(x) for row in matrix for x in row)
    dist = tuple(tuple(coerce(x, exact) for x in row) for row in matrix)
    return validate_metric(labels, dist, exact=exact)


def reference_all_exact(doc) -> bool:
    space, params = doc["space"], doc["params"]
    d = space.get("d") if isinstance(space, dict) else None
    scalars = [x for row in d for x in row] if jsonio._is_matrix(d) else []
    scalars += [x for key in ("mu", "nu") if isinstance(doc[key], dict) for x in doc[key].values()]
    if isinstance(params, dict):
        scalars += [params[key] for key in ("a", "b", "p") if key in params]
    return all(is_exact(x) or isinstance(x, str) for x in scalars)


def reference_parse_plan(doc, space):
    gamma = [[coerce(parse_scalar(x), space.exact) for x in row] for row in doc]
    return TransportPlan(space, tuple(tuple(row) for row in gamma))


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
        ([], (True, False)),
        ([1, 2], (True, False)),
        ([1, Fraction(1, 2)], (True, True)),
        ([Fraction(1, 2), 1.0], (False, True)),
        ([1, True], (False, False)),
        ([0.5], (False, False)),
        (["1/2"], (False, False)),
    ],
)
def test_exactness_answers_for_the_sequence(values, expected):
    assert exactness(values) == expected
    assert exactness(values)[0] == all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for x in values)


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
