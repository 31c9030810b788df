import json

import pytest

from genwass import flow
from genwass.cli import main


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


def test_param_overrides(problem_file, capsys):
    # doubling b makes shipping as costly as waste: value 2
    assert main(["dist", "--input", problem_file(TWO_POINT), "--b", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


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
    monkeypatch.setattr(flow, "MAX_PHASES", 1)
    assert main(["dist", "--input", problem_file(TWO_POINT)]) == 2
    err = capsys.readouterr().err
    assert "phase cap" in err and "Traceback" not in err


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


def test_dual_needs_p1(problem_file):
    doc = dict(TWO_POINT, params={"a": 1, "b": 1, "p": 2})
    assert main(["dual", "--input", problem_file(doc)]) == 2


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


def test_gh_subcommand(problem_file, capsys):
    doc = {
        "source": {"points": ["x", "y"], "d": [[0, 1.0], [1.0, 0]]},
        "target": {"points": ["u", "v"], "d": [[0, 1.25], [1.25, 0]]},
        "map": [0, 1],
        "params": {"a": 1, "b": 1, "p": 1},
        "C": 2,
        "seed": 9,
    }
    assert main(["gh", "--input", problem_file(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["defect"] == pytest.approx(0.25)
    assert out["deviation_ok"] and out["surjectivity_ok"]


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--seed", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_float_mode_flag(problem_file, capsys):
    assert main(["dist", "--input", problem_file(TWO_POINT), "--mode", "float", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)
