import argparse
import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genwass import flow, quotient, selftest, solver_w1
from genwass.cli import build_parser, main
from genwass.errors import InfeasibleInputs


@pytest.fixture
def problem_file(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


TWO_POINT = {
    "space": {"points": ["x", "y"], "d": [[0, 1], [1, 0]]},
    "mu": {"x": 1},
    "nu": {"y": 1},
    "params": {"a": 1, "b": 1, "p": 1},
}


def test_dist_prints_value(problem_file, capsys):
    assert main(["dist", "--input", problem_file(TWO_POINT)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_dist_json_output(problem_file, capsys):
    assert main(["dist", "--input", problem_file(TWO_POINT), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": 1}


def test_plan_roundtrips_through_verify(problem_file, tmp_path, capsys):
    path = problem_file(TWO_POINT)
    assert main(["plan", "--input", path, "--format", "json"]) == 0
    report = capsys.readouterr().out
    report_path = tmp_path / "report.json"
    report_path.write_text(report)
    assert main(["verify", "--input", path, "--report", str(report_path)]) == 0
    doc = json.loads(report)
    assert doc["value"] == 1
    assert doc["plan"] == [[0, 1], [0, 0]]
    assert doc["gap"] == 0


def test_verify_flags_tampered_report(problem_file, tmp_path, capsys):
    path = problem_file(TWO_POINT)
    assert main(["plan", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["plan"] = [[0, 0], [0, 0]]  # drop the shipment: certificate must fail
    report_path = tmp_path / "tampered.json"
    report_path.write_text(json.dumps(doc))
    assert main(["verify", "--input", path, "--report", str(report_path)]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_rejects_unbounded_tol_on_tampered_report(problem_file, tmp_path, capsys, tol):
    path = problem_file(TWO_POINT)
    assert main(["plan", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["plan"] = [[0, 0], [0, 0]]
    report_path = tmp_path / "tampered.json"
    report_path.write_text(json.dumps(doc))
    assert main(["verify", "--input", path, "--report", str(report_path), "--tol", tol]) == 2


@pytest.mark.parametrize(
    "mode, value, code",
    [("exact", None, 0), ("exact", 0, 1), ("exact", f"{3 * 10**30 + 1}/{10**30}", 1),
     ("float", None, 0), ("float", 3 + 1e-12, 0), ("float", 3.001, 1)],
    ids=["exact-untouched", "exact-zero", "exact-off-by-1e-30", "float-untouched", "float-within-tol",
         "float-off-by-1e-3"],
)
def test_verify_checks_the_reported_value(problem_file, tmp_path, capsys, mode, value, code):
    # three units shipped over distance 1: the true value is 3
    path = problem_file(dict(TWO_POINT, mu={"x": 3}, nu={"y": 3}))
    assert main(["plan", "--input", path, "--format", "json", "--mode", mode]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 3
    if value is not None:
        doc["value"] = value
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc))
    argv = ["verify", "--input", path, "--report", str(report_path), "--mode", mode]
    assert main(argv + ["--format", "json"]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["conditions"] == {"i": True, "ii": True, "iii": True, "iv": True}
    assert out["value_ok"] is (code == 0)
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines()[-1] == ("value: pass" if code == 0 else "value: FAIL")


def test_verify_solver_output_passes(problem_file):
    assert main(["verify", "--input", problem_file(TWO_POINT)]) == 0


def test_dual_reports_gap(problem_file, capsys):
    assert main(["dual", "--input", problem_file(TWO_POINT), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == 0
    assert doc["conditions"] == {"i": True, "ii": True, "iii": True, "iv": True}


def test_flat_matches_dist(problem_file, capsys):
    assert main(["flat", "--input", problem_file(TWO_POINT), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["flat_value"] == 1


# a float field puts the whole file in float mode; past float range, the
# flat LP's value has no float
FLAT_PAST_FLOAT_RANGE = [
    {"space": {"points": ["a", "b"], "d": [[0, 1], [1, 0]]}, "mu": {"a": 1.7e308}, "nu": {"b": 1},
     "params": {"a": 2, "b": 1}},
    {"space": {"points": ["a", "b", "c"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}, "mu": {"a": 1.5}, "nu": {"c": 1},
     "params": {"a": 1e308, "b": 1e308}},
]


@pytest.mark.parametrize("doc", FLAT_PAST_FLOAT_RANGE, ids=["weight", "rates"])
def test_flat_past_float_range_is_an_input_error(problem_file, capsys, doc):
    assert main(["flat", "--input", problem_file(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the flat-metric value lies beyond float range\n"


# a float value past float range, at every order: the rates near float max,
# the same with a group for the quotient, and a weight near it at a = 2
RATES_PAST_FLOAT_RANGE = {
    "space": {"points": ["x", "y", "z"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    "mu": {"x": 1.5}, "nu": {"z": 1}, "params": {"a": 1e308, "b": 1e308, "p": 1},
}
WITH_GROUP = dict(RATES_PAST_FLOAT_RANGE, group=[[0, 1, 2], [2, 1, 0]])
WEIGHT_PAST_FLOAT_RANGE = dict(RATES_PAST_FLOAT_RANGE, mu={"x": 1e308}, params={"a": 2, "b": 1, "p": 2})
DOCS_PAST_FLOAT_RANGE = {"rates": RATES_PAST_FLOAT_RANGE, "group": WITH_GROUP, "weight": WEIGHT_PAST_FLOAT_RANGE}


@pytest.mark.parametrize(
    "command, doc, p",
    [(command, doc, p) for p in ("1", "3/2", "2")
     for command, doc in (("dist", "rates"), ("plan", "rates"), ("quotient", "group"), ("dist", "weight"),
                          ("plan", "weight"))]
    + [(command, doc, "1") for command in ("dual", "verify") for doc in ("rates", "weight")],
)
def test_a_float_value_past_float_range_is_an_input_error(problem_file, capsys, command, doc, p):
    # at p = 1 the value is tested before the duality gap, which the
    # overflowed dual of the weight file makes NaN
    assert main([command, "--input", problem_file(DOCS_PAST_FLOAT_RANGE[doc]), "--p", p]) == 2
    captured = capsys.readouterr()
    shown = {"1": "1", "3/2": "1.5", "2": "2"}[p]
    assert captured.out == "" and captured.err == f"error: the value at p = {shown} lies beyond float range\n"


@pytest.mark.parametrize("command", ["dist", "dual"])
def test_an_exact_value_past_float_range_is_printed_exactly(problem_file, capsys, command):
    doc = dict(RATES_PAST_FLOAT_RANGE, mu={"x": 3}, params={"a": 10**308, "b": 10**308, "p": 1})
    assert main([command, "--input", problem_file(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 4 * 10**308 and out.get("gap", 0) == 0


def test_param_overrides(problem_file, capsys):
    # doubling b makes shipping as costly as waste: value 2
    assert main(["dist", "--input", problem_file(TWO_POINT), "--b", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_a_override(problem_file, capsys):
    # at a = 1/4 destroying and creating the unit (1/4 + 1/4) beats shipping it (b d = 1)
    assert main(["dist", "--input", problem_file(TWO_POINT), "--a", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_plan_json_at_p2_reports_the_curve(problem_file, capsys):
    # x - y - z on a line; p = 2 costs d^2: y->y is free, then the second unit
    # goes x->y->z by rerouting (1 + 1) rather than x->z (4).  The curve is
    # (0, 0), (1, 0), (2, 2) and V(m) = (4 - 2m) + sqrt(T(m)) is 4, 2, sqrt 2.
    doc = {
        "space": {"points": ["x", "y", "z"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "mu": {"x": 1, "y": 1},
        "nu": {"y": 1, "z": 1},
        "params": {"a": 1, "b": 1, "p": 1},
    }
    assert main(["plan", "--input", problem_file(doc), "--format", "json", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "value": 2**0.5,
        "plan": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        "m": 2,
        "destroyed": 0,
        "created": 0,
        "conditions": "not-applicable",
        "curve": [[0, 0], [1, 0], [2, 2]],
    }


def test_p_override_switches_solver(problem_file, capsys):
    assert main(["dist", "--input", problem_file(TWO_POINT), "--p", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)


def test_rational_strings_accepted(problem_file, capsys):
    doc = dict(TWO_POINT, mu={"x": "3/2"}, nu={"y": "3/2"})
    assert main(["dist", "--input", problem_file(doc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "3/2"


def test_triangle_violation_diagnosed(problem_file, capsys):
    doc = dict(TWO_POINT)
    doc["space"] = {"points": ["x", "y", "z"], "d": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
    assert main(["dist", "--input", problem_file(doc)]) == 2
    err = capsys.readouterr().err
    assert "d[x][z]" in err and "d[y][z]" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["dist", "--input", str(path)]) == 2


def test_undeclared_point_is_input_error(problem_file, capsys):
    doc = dict(TWO_POINT, mu={"w": 1})
    assert main(["dist", "--input", problem_file(doc)]) == 2
    assert "undeclared" in capsys.readouterr().err


def test_bad_params_are_input_errors(problem_file):
    doc = dict(TWO_POINT, params={"a": 0, "b": 1, "p": 1})
    assert main(["dist", "--input", problem_file(doc)]) == 2


def test_phase_cap_is_a_named_error(problem_file, capsys, monkeypatch):
    # the solver failing to certify its answer is a verification failure
    monkeypatch.setattr(flow, "MAX_PHASES", 1)
    assert main(["dist", "--input", problem_file(TWO_POINT)]) == 1
    err = capsys.readouterr().err
    assert "solver failure:" in err and "phase cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"params": {"a": 1, "b": 1, "p": float("inf")}},
        {"params": {"a": 1, "b": 1, "p": float("-inf")}},
        {"mu": {"x": float("nan")}},
    ],
    ids=["p-Infinity", "p-minus-Infinity", "weight-NaN"],
)
def test_non_finite_numbers_are_input_errors(problem_file, capsys, overrides):
    # json.dumps writes these as the Infinity / NaN literals json.load accepts
    assert main(["dist", "--input", problem_file(dict(TWO_POINT, **overrides))]) == 2
    err = capsys.readouterr().err
    assert "not a finite number" in err and "Traceback" not in err


QUOTIENT_DOC = {
    "space": {"points": ["x", "y", "z"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    "group": [[0, 1, 2], [2, 1, 0]],
    "mu": {"x": 1, "z": 1},
    "nu": {"y": "3/2"},
    "params": {"a": 1, "b": "1/2", "p": 2},
    "seed": 3,
    "mode": "exact",
}


@pytest.mark.parametrize(
    "overrides",
    [
        {"space": {"points": ["x", "y", "z"], "d": 5}},
        {"space": {"points": ["x", "y", "z"], "d": [0, 1, 2]}},
        {"space": {"points": 5, "d": QUOTIENT_DOC["space"]["d"]}},
        {"group": 5},
        {"group": {"group": [[0, 1, 2], [2, 1, 0]]}},
        {"group": [[0, 1, 2], [2, None, 0]]},
        {"seed": [1]},
        {"seed": "1/2"},
        {"params": {"a": 1, "b": 1, "p": 10**400}},
        {"params": {"a": 1, "b": 1, "p": f"{10**400 + 1}/2"}},
        {"params": {"a": 1, "b": 1, "p": 2000}},
        # 2^1023 is a float, but shipping two units at that cost is not
        {"params": {"a": 1, "b": 1, "p": 1023}, "mu": {"x": 2}, "nu": {"z": 2}},
    ],
    ids=["d-int", "d-flat-list", "points-int", "group-int", "group-object", "group-null-entry", "seed-list",
         "seed-fraction", "p-past-float-range", "p-fraction-past-float-range", "powers-past-float-range",
         "cost-past-float-range"],
)
@pytest.mark.parametrize("command", ["dist", "quotient"])
def test_malformed_fields_are_input_errors(problem_file, capsys, command, overrides):
    assert main([command, "--input", problem_file(dict(QUOTIENT_DOC, **overrides))]) == 2
    assert "Traceback" not in capsys.readouterr().err


def json_values():
    scalars = (
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=4) | st.sampled_from(["1/2", "-3", "0", "x", "y", "1/0"])
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    )


def field_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def assert_contract_codes(doc, path, value, commands, argv=("--input",)):
    """Replace one field of doc and run each command with argv, then the
    file's path: each exits 0, 1 or 2 with no traceback, and a ``dist`` that
    exits 0 prints a finite number."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        input_path = os.path.join(tmp, "input.json")
        with open(input_path, "w") as fh:
            json.dump(doc, fh)
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *argv, input_path])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if command == "dist" and code == 0:
                Fraction(out.getvalue())  # an int, a "p/q" or a float literal; "inf" and "nan" raise


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(field_paths(QUOTIENT_DOC))), json_values())
def test_any_field_value_exits_with_a_contract_code(path, value):
    assert_contract_codes(QUOTIENT_DOC, path, value, ("dist", "quotient"))


# p = 2 at a = 2 with no "mode": a weight of 1e308 puts the float value past float range
ORDER_TWO_DOC = {k: v for k, v in QUOTIENT_DOC.items() if k != "mode"} | {"params": {"a": 2, "b": 1, "p": 2}}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(field_paths(ORDER_TWO_DOC))), json_values())
@example(path=("mu", "x"), value=1e308)
def test_any_order_two_field_value_exits_with_a_contract_code(path, value):
    assert_contract_codes(ORDER_TWO_DOC, path, value, ("dist", "plan", "quotient"))


# p = 1 at a = 2 with no "mode": one float field switches the file to float mode
ORDER_ONE_DOC = {
    "space": {"points": ["x", "y"], "d": [[0, 1], [1, 0]]},
    "mu": {"x": 1},
    "nu": {"y": 1},
    "params": {"a": 2, "b": 1, "p": 1},
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(field_paths(ORDER_ONE_DOC))), json_values())
@example(path=("mu", "x"), value=1.7e308)
@example(path=("mu", "x"), value=1e308)
def test_any_order_one_field_value_exits_with_a_contract_code(path, value):
    assert_contract_codes(ORDER_ONE_DOC, path, value, ("dist", "plan", "dual", "flat", "verify"))


GH_DOC = {
    "source": {"points": ["x", "y"], "d": [[0, 1.0], [1.0, 0]]},
    "target": {"points": ["u", "v"], "d": [[0, 1.25], [1.25, 0]]},
    "map": [0, 1],
    "params": {"a": 1, "b": 1, "p": 1},
    "C": 2,
    "seed": 9,
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(field_paths(GH_DOC))), json_values())
@example(path=("C",), value=1e200)
@example(path=("C",), value=10**400)
@example(path=("params", "a"), value=10**400)
@example(path=("params", "p"), value=f"{10**400 + 1}/2")
def test_any_gh_field_value_exits_with_a_contract_code(path, value):
    assert_contract_codes(GH_DOC, path, value, ("gh",))


TWO_POINT_REPORT = {
    "value": 1, "plan": [[0, 1], [0, 0]], "m": 1, "destroyed": 0, "created": 0, "phi1": [0, -1],
    "phi2": [0, 1], "gap": 0, "conditions": {"i": True, "ii": True, "iii": True, "iv": True},
}


@pytest.fixture(scope="module")
def two_point_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problem") / "two_point.json"
    path.write_text(json.dumps(TWO_POINT))
    return str(path)


def test_two_point_report_is_the_plan_output(two_point_file, capsys):
    assert main(["plan", "--input", two_point_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == TWO_POINT_REPORT


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(field_paths(TWO_POINT_REPORT))), json_values())
@example(path=("plan",), value=3)
@example(path=("phi1",), value=5)
@example(path=("plan", 0), value=5)
def test_any_report_field_value_exits_with_a_contract_code(two_point_file, path, value):
    assert_contract_codes(TWO_POINT_REPORT, path, value, ("verify",), argv=("--input", two_point_file, "--report"))


@pytest.mark.parametrize(
    "report",
    [[], "x", 3, None, dict(TWO_POINT_REPORT, plan=3), dict(TWO_POINT_REPORT, phi1=5),
     dict(TWO_POINT_REPORT, phi2={"x": 1}), dict(TWO_POINT_REPORT, plan=[1, 0]),
     {k: v for k, v in TWO_POINT_REPORT.items() if k != "value"}],
    ids=["list", "string", "number", "null", "plan-number", "phi1-number", "phi2-object", "plan-flat", "no-value"],
)
def test_malformed_reports_are_input_errors(problem_file, capsys, report):
    report_path = problem_file(report, name="report.json")
    assert main(["verify", "--input", problem_file(TWO_POINT), "--report", report_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: a report must be") and "Traceback" not in err


def test_report_potentials_of_the_wrong_length_are_input_errors(problem_file, capsys):
    report_path = problem_file(dict(TWO_POINT_REPORT, phi1=[1, 0, 0]), name="report.json")
    assert main(["verify", "--input", problem_file(TWO_POINT), "--report", report_path]) == 2
    assert capsys.readouterr().err == "input error: potential vectors must match the space size\n"


def test_a_report_plan_of_the_wrong_shape_is_an_input_error(problem_file, capsys):
    report_path = problem_file(dict(TWO_POINT_REPORT, plan=[[0, 1, 0], [0, 0, 0]]), name="report.json")
    assert main(["verify", "--input", problem_file(TWO_POINT), "--report", report_path]) == 2
    assert capsys.readouterr().err == "input error: plan must be n x n for the space\n"


@pytest.mark.parametrize(
    "mode, line",
    [
        ("exact", "solver failure: exact solve left a duality gap of 1/2"),
        ("float", "solver failure: duality gap 0.5 exceeds the certification threshold"),
    ],
)
def test_uncertified_solves_exit_1(problem_file, capsys, monkeypatch, mode, line):
    # phi1 lowered by 1/2 where mu has its mass: a gap of 1/2
    report = solver_w1.certified_report

    def shifted(space, mu, nu, params, plan, value, potentials):
        phi1 = (potentials.phi1[0] - Fraction(1, 2), *potentials.phi1[1:])
        return report(space, mu, nu, params, plan, value, dataclasses.replace(potentials, phi1=phi1))

    monkeypatch.setattr(solver_w1, "certified_report", shifted)
    assert main(["dist", "--input", problem_file(TWO_POINT), "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


# A valid float file: a column sum of the float plan passes nu's weight at z,
# of size 2.3e8, by 3e-8, more than the certificate's default tol of 1e-9 but
# within its cap of tol + ROUNDING_TOL times the weight.
ROUNDED_PAST_THE_CAP = {
    "space": {"points": ["x", "y", "z"], "d": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]},
    "mu": {"x": 229999999.99999997, "y": 110000000.00000001, "z": 5e7},
    "nu": {"x": 1e7, "y": 7e7, "z": 229999999.99999997},
    "params": {"a": 2.0, "b": 1.0, "p": 1},
}


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("command", ["dist", "plan", "dual", "verify"])
def test_a_plan_rounded_past_a_weight_certifies(problem_file, command, mode):
    assert main([command, "--input", problem_file(ROUNDED_PAST_THE_CAP), "--mode", mode]) == 0


@pytest.mark.parametrize("command", ["dist", "plan", "dual", "verify"])
def test_a_plan_its_own_certificate_rejects_exits_1(problem_file, capsys, monkeypatch, command):
    def rejects(*args, **kwargs):
        raise InfeasibleInputs("plan marginals exceed the problem measures")

    monkeypatch.setattr(solver_w1, "verify_optimality", rejects)
    assert main([command, "--input", problem_file(ROUNDED_PAST_THE_CAP)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "solver failure: the certificate rejects the solver's own plan: "
        "plan marginals exceed the problem measures\n"
    )


# float p = 1 with a near float max: the potentials are about +-a, and their
# dual objective sums to inf - inf or -inf, a gap of nan or -inf
HUGE_A = {
    "space": {"points": ["x", "y"], "d": [[0, 1], [1, 0]]},
    "mu": {"x": 0.8213, "y": 1.1787},
    "nu": {"x": 0.7177, "y": 1.2823},
}


@pytest.mark.parametrize("a, gap", [(1e308, "-inf"), (1.7e308, "nan")])
@pytest.mark.parametrize("command", ["plan", "dual"])
def test_a_gap_past_float_range_exits_1(problem_file, capsys, command, a, gap):
    doc = dict(HUGE_A, params={"a": a, "b": 1, "p": 1})
    assert main([command, "--input", problem_file(doc), "--mode", "float", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solver failure: duality gap {gap} exceeds the certification threshold\n"


def test_selftest_fails_on_a_wrong_solver(capsys, monkeypatch):
    solve = selftest.solve

    def off_by_one(*args):
        report = solve(*args)
        return dataclasses.replace(report, value=report.value + 1)

    monkeypatch.setattr(selftest, "solve", off_by_one)
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # both oracle checks catch it; the other checks never call selftest.solve
    assert lines[0] == "oracle agreement: FAIL (40 instances)"
    assert lines[-2] == "oracle agreement (n 4-5): FAIL (40 instances)"
    assert lines[-1] == "selftest: FAIL"
    assert all(line.endswith(("pass", "pass (40 instances)")) for line in lines[1:-2])


@pytest.mark.parametrize(
    "check, name, spoil",
    [
        ("zero duality gap + certificate", "solve_w1", lambda rep: dataclasses.replace(rep, duality_gap=1)),
        ("flat metric equality", "solve_flat", lambda flat: (flat[0] + 1, flat[1])),
        ("quotient isometry", "check_quotient_isometry", lambda pair: (pair[0], pair[1] + 1)),
        ("pushforward stability", "check_pushforward_stability", lambda result: dict(result, deviation_ok=False)),
        # one above the capped transform is infeasible against its input
        ("c-transform properties", "c_transform", lambda phi: tuple(x + 1 for x in phi)),
        # a negated objective falls where the transforms raise it
        ("c-transform properties", "evaluate_dual", lambda result: (result[0], -result[1])),
    ],
)
def test_selftest_check_fails_on_a_broken_call(monkeypatch, check, name, spoil):
    # a check reads FAIL when the one call it rests on answers wrong, and no other check does
    call = getattr(selftest, name)
    monkeypatch.setattr(selftest, name, lambda *args, **kwargs: spoil(call(*args, **kwargs)))
    ok, lines = selftest.run_selftest()
    assert not ok
    failed = [line for line in lines if ": FAIL" in line]
    assert len(failed) == 1 and failed[0].startswith(f"{check}: FAIL")


def test_dual_needs_p1(problem_file):
    doc = dict(TWO_POINT, params={"a": 1, "b": 1, "p": 2})
    assert main(["dual", "--input", problem_file(doc)]) == 2


P2 = dict(TWO_POINT, params={"a": 1, "b": 1, "p": 2})
TOL_ERROR = "error: the tolerance must be finite and nonnegative, got "
# exact p = 2: a times the waste mass is past float range, and the value adds a float root
A_NEAR_FLOAT_MAX = dict(QUOTIENT_DOC, params={"a": 1e308, "b": "1/2", "p": 2})
A_PAST_FLOAT_RANGE = "error: a = 1e+308 puts the value at p = 2 beyond float range"
NOT_AN_OBJECT = "input error: problem file must be a JSON object"
MISSING_FIELD = "input error: problem file is missing the "


@pytest.mark.parametrize(
    "argv, doc, line",
    [
        (["dual"], P2, "error: dual potentials are only available for p = 1"),
        (["verify"], P2, "error: the certificate is only defined for p = 1"),
        (["flat"], P2, "error: the flat-metric LP is only defined for p = 1"),
        (["flat", "--p", "2"], TWO_POINT, "error: the flat-metric LP is only defined for p = 1"),
        (["quotient"], TWO_POINT, "error: quotient checks need a 'group' field"),
        (["verify", "--tol", "-1"], TWO_POINT, TOL_ERROR + "-1.0"),
        (["verify", "--tol", "nan"], TWO_POINT, TOL_ERROR + "nan"),
        (["verify", "--tol", "inf"], TWO_POINT, TOL_ERROR + "inf"),
        (["quotient", "--tol", "-1"], QUOTIENT_DOC, TOL_ERROR + "-1.0"),
        (["quotient", "--tol", "nan"], QUOTIENT_DOC, TOL_ERROR + "nan"),
        (["quotient", "--tol", "inf"], QUOTIENT_DOC, TOL_ERROR + "inf"),
        (["dist", "--p", f"{10**400 + 1}/2"], TWO_POINT, "error: p must be finite and within float range, got inf"),
        (["dist"], A_NEAR_FLOAT_MAX, A_PAST_FLOAT_RANGE),
        (["quotient"], A_NEAR_FLOAT_MAX, A_PAST_FLOAT_RANGE),
        (["dist"], [], NOT_AN_OBJECT),
        (["dist"], "x", NOT_AN_OBJECT),
        (["dist"], 3, NOT_AN_OBJECT),
        *[(["dist"], {k: v for k, v in TWO_POINT.items() if k != key}, f"{MISSING_FIELD}{key!r} field")
          for key in ("space", "mu", "nu", "params")],
        (["dist"], dict(TWO_POINT, mu=5), "input error: mu must map point labels to weights"),
        (["dist"], dict(TWO_POINT, mode="fast"), "input error: mode must be 'exact' or 'float', got 'fast'"),
    ],
    ids=["dual-p2", "verify-p2", "flat-p2", "flat-p-override", "quotient-no-group", "verify-tol-negative",
         "verify-tol-nan", "verify-tol-inf", "quotient-tol-negative", "quotient-tol-nan", "quotient-tol-inf",
         "p-override-past-float-range", "dist-exact-a-near-float-max", "quotient-exact-a-near-float-max",
         "file-list", "file-string", "file-number", "no-space", "no-mu", "no-nu", "no-params", "mu-number",
         "file-mode-fast"],
)
def test_handler_errors_print_one_line(problem_file, capsys, argv, doc, line):
    assert main([*argv, "--input", problem_file(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


# costs whose float sum overflows to inf; the optimum destroys and creates
NEAR_FLOAT_MAX = dict(TWO_POINT, space={"points": ["x", "y"], "d": [[0, 1e308], [1e308, 0]]})


@pytest.mark.parametrize(
    "command, key, expected",
    [
        ("dist", "value", 2.0),
        ("dual", "gap", 0.0),
        ("verify", "conditions", {"i": True, "ii": True, "iii": True, "iv": True}),
    ],
)
def test_costs_near_float_max_solve(problem_file, capsys, command, key, expected):
    assert main([command, "--input", problem_file(NEAR_FLOAT_MAX), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[key] == expected


# the flags each subcommand's handler reads; nothing else is declared
PROBLEM_FLAGS = {"--input", "--format", "--mode", "--p", "--a", "--b"}
TAKES = {
    "dist": PROBLEM_FLAGS,
    "plan": PROBLEM_FLAGS,
    "dual": PROBLEM_FLAGS,
    "flat": PROBLEM_FLAGS,
    "verify": PROBLEM_FLAGS | {"--tol", "--report"},
    "quotient": PROBLEM_FLAGS | {"--tol"},
    "gh": {"--input", "--format", "--mode", "--seed"},
    "selftest": {"--format", "--seed"},
}
FLAG_VALUES = {
    "--input": "x.json", "--format": "json", "--mode": "float", "--tol": "1", "--seed": "1",
    "--p": "2", "--a": "1", "--b": "1", "--report": "r.json",
}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_rejected_flag_leaves_the_parser_as_it_was(problem_file, capsys):
    argv = ["dist", "--input", problem_file(TWO_POINT), "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["gh", "--p", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == first


def test_subcommands_declare_only_the_flags_they_read():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {a.option_strings[-1] for a in sub._actions if a.option_strings and a.dest != "help"}
        for name, sub in subparsers.choices.items()
    }
    assert declared == TAKES
    assert sum(len(flags) for flags in declared.values()) == 45


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, takes in TAKES.items() for flag in FLAG_VALUES if flag not in takes],
)
def test_unread_flags_exit_2(capsys, command, flag):
    argv = [command, flag, FLAG_VALUES[flag]]
    if "--input" in TAKES[command]:
        argv += ["--input", "missing.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_quotient_subcommand(problem_file, capsys):
    doc = {
        "space": {"points": ["-1", "0", "1"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "group": [[0, 1, 2], [2, 1, 0]],
        "mu": {"-1": 1, "1": 1},
        "nu": {"0": 2},
        "params": {"a": 1, "b": 1, "p": 1},
    }
    assert main(["quotient", "--input", problem_file(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["upstairs"] == out["downstairs"] == 2
    assert out["verdict"] == "pass"


@pytest.mark.parametrize(
    "mu, isometry",
    [({"-1": 1, "1": 1}, True), ({"-1": 2}, "not-applicable (measures not invariant)")],
    ids=["invariant", "not-invariant"],
)
def test_quotient_solves_each_side_once(problem_file, capsys, monkeypatch, mu, isometry):
    calls = {"solve": 0, "build_quotient": 0}

    def counted(name):
        inner = getattr(quotient, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(quotient, name, counted(name))
    doc = {
        "space": {"points": ["-1", "0", "1"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "group": [[0, 1, 2], [2, 1, 0]],
        "mu": mu,
        "nu": {"0": 2},
        "params": {"a": 1, "b": 1, "p": 1},
    }
    assert main(["quotient", "--input", problem_file(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["isometry_ok"] == isometry and out["verdict"] == "pass"
    assert calls == {"solve": 2, "build_quotient": 1}


@pytest.mark.parametrize(
    "mu, isometry",
    [({"-1": 1, "1": 1}, False), ({"-1": 2}, "not-applicable (measures not invariant)")],
    ids=["invariant", "not-invariant"],
)
def test_quotient_verdicts_are_exact(problem_file, capsys, monkeypatch, mu, isometry):
    # downstairs 10^-30 above upstairs: the contraction fails, and so does the
    # isometry when it applies, although the two values round to one float
    solve = quotient.solve
    reports = []

    def nudged(*args):
        report = solve(*args)
        if reports:  # the second solve is downstairs
            report = dataclasses.replace(report, value=report.value + Fraction(1, 10**30))
        reports.append(report)
        return report

    monkeypatch.setattr(quotient, "solve", nudged)
    doc = {
        "space": {"points": ["-1", "0", "1"], "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "group": [[0, 1, 2], [2, 1, 0]],
        "mu": mu,
        "nu": {"0": 2},
        "params": {"a": 1, "b": 1, "p": 1},
    }
    assert main(["quotient", "--input", problem_file(doc), "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert float(Fraction(out["upstairs"])) == float(Fraction(out["downstairs"]))
    assert out["contraction_ok"] is False and out["isometry_ok"] == isometry
    assert out["verdict"] == "fail"


def test_gh_subcommand(problem_file, capsys):
    assert main(["gh", "--input", problem_file(GH_DOC), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["defect"] == pytest.approx(0.25)
    assert out["deviation_ok"] and out["surjectivity_ok"]


# zero defect: the source maps onto itself
GH_ISO = dict(GH_DOC, target=GH_DOC["source"])


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"map": 5},
        {"map": [0, None]},
        # the bound's powers overflow, or it comes out NaN as inf * 0
        dict(GH_DOC, C=1e200),
        dict(GH_DOC, C=10**400),
        dict(GH_ISO, params={"a": 1, "b": 1, "p": 1e308}),
        dict(GH_ISO, params={"a": 1, "b": 1e308, "p": 1}),
        dict(GH_DOC, source={"points": ["x", "y"], "d": [[0, 1e308], [1e308, 0]]}),
        # an exact value past float range coerced for the float solves
        dict(GH_DOC, params={"a": 10**400, "b": 1, "p": 1}),
    ],
    ids=["list", "map-int", "map-null", "C-1e200", "C-past-float-range", "p-1e308", "b-1e308",
         "infinite-bound", "a-past-float-range"],
)
def test_malformed_gh_files_are_input_errors(problem_file, capsys, doc):
    assert main(["gh", "--input", problem_file(doc)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--seed", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_float_mode_flag(problem_file, capsys):
    assert main(["dist", "--input", problem_file(TWO_POINT), "--mode", "float", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)
