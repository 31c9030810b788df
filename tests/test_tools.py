import importlib.util
import re
from fractions import Fraction
from pathlib import Path

from genwass.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DUMP = ROOT / "tools" / "dump_outputs.py"
TRACING = ROOT / "perfbench" / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_outputs_tags_every_line(tmp_path, monkeypatch):
    # per instance: solve at p = 1, 3/2, 2, 3, solve_flat, five certificates, one
    # dual objective, one metric check and three CLI calls; the skeleton pair
    # count more on exact instances (all three here); four `verify --report`
    # calls more when the problem file is at p = 1 (instances 1 and 2 of every 3),
    # and on at most 3 points (instance 2, of 1 point) six oracle values, the
    # certificate and primal value of a plan of ints, and, being exact, the
    # p = 1 and p = 2 reports on float weights and the float certificate on
    # huge weights more
    dump = _load("dump_outputs", DUMP)
    monkeypatch.setattr(dump, "INSTANCES", 3)
    # the larger section, shrunk: two lines per family and mode, and the
    # skeleton pair count first in exact mode
    monkeypatch.setattr(dump, "LARGE", (("l1", 6, 500), ("wide", 5, 500), ("closed", 4, 2)))
    # the float p = 1 section, shrunk: five lines per instance
    monkeypatch.setattr(dump, "FLOAT_DUALS", 2)
    lines = list(dump.dump(cli_main, tmp_path))
    small, large, duals = lines[: 16 + 20 + 31], lines[16 + 20 + 31 : -10], lines[-10:]
    tags = [re.match(r"((\d+) (exact|float) n=[1-8]) \S", line) for line in small]
    assert all(tags)
    ks = [int(tag.group(2)) for tag in tags]
    assert ks == sorted(ks) and [ks.count(k) for k in range(3)] == [16, 20, 31]
    # one instance, one tag
    assert len({tag.group(1) for tag in tags}) == 3
    assert sum(" cli verify " in line for line in small) == 8
    assert sum(" validate_metric" in line for line in small) == 3
    assert sum(" evaluate_dual " in line for line in small) == 3
    assert sum(" brute_force_value " in line for line in small) == 6
    assert sum(" int plan: " in line for line in small) == 2
    assert sum(" solve p=3/2: " in line for line in small) == 3
    assert [line.split(": ", 1)[0] for line in small if "weights: " in line] == [
        "2 exact n=1 solve p=1 float weights",
        "2 exact n=1 solve p=2 float weights",
        "2 exact n=1 float p=1 huge weights",
    ]
    assert [line.split(": ", 1)[1] for line in small if " skeleton pairs: " in line] == ["5", "12", "0"]
    heads = [line.split(": ", 1) for line in large]
    assert [head for head, _ in heads] == [
        f"large {family} {mode} n={n} {call}"
        for family, n in (("l1", 6), ("wide", 5), ("closed", 4))
        for mode in ("exact", "float")
        for call in ("skeleton pairs", "solve p=1", "solve p=2")[mode == "float" :]
    ]
    pairs = [result for head, result in heads if head.endswith(" skeleton pairs")]
    assert pairs == ["10", "10", "5"]
    assert all(result.startswith("SolveReport(") for head, result in heads if " solve " in head)
    fields = [re.fullmatch(r"float duals (\d) n=\d+ a=(0\.3|7\.7) b=(0\.5|1\.0) (\w+): .+", line) for line in duals]
    assert [(int(m.group(1)), m.group(4)) for m in fields] == [
        (k, field) for k in range(2) for field in ("value", "plan", "potentials", "gap", "conditions")
    ]


def test_tracer_names_resolve_in_the_package():
    # perfbench/run.py --trace 1 wraps each of these by name; a renamed one
    # would fail there with an AttributeError
    tracing = _load("tracing", TRACING)
    for module, function in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"genwass.{module}"), function)), (module, function)


def test_tracer_counts_read_what_the_traced_functions_return():
    # perfbench/run.py --trace 1 evaluates each count on a traced call's
    # arguments and result; a result that lost what a count reads would
    # fail there with an AttributeError or a TypeError
    tracing = _load("tracing", TRACING)
    costs, mu, nu = [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [1, Fraction(1, 2), 0], [0, 1, 1]
    calls = {
        "flow.solve_transport": [
            ((costs, mu, nu), {"rate": 2}),  # a rate run, as at p = 1
            ((costs, mu, nu), {}),  # a curve run, as at p > 1
            ((costs, mu, nu), {"target": 1}),  # a target run, as at an interior optimum
        ],
        "simplex.maximize": [(([1, 1], [[1, 0], [0, 1]], [1, 2]), {})],
        "spaces.validate_metric": [((["x", "y"], [[0, 1], [1, 0]]), {})],
    }
    assert set(calls) == set(tracing.COUNTS)
    for name, runs in calls.items():
        module, function = name.split(".")
        traced = getattr(importlib.import_module(f"genwass.{module}"), function)
        for args, kwargs in runs:
            count = tracing.COUNTS[name][2](args, kwargs, traced(*args, **kwargs))
            assert type(count) is int and count >= 0, name
