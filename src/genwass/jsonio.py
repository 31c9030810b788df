"""Problem-file parsing and report serialization.

One JSON file captures a whole problem (space, optional group, measures,
cost parameters), so a run is reproducible from a single artifact.  Numbers
may be ints, floats, or "p/q" strings; the default arithmetic mode is exact
when every number in the file is an int or a rational string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .duality import DualPotentials, OptimalityCertificate
from .measures import DiscreteMeasure, TransportPlan, measure
from .params import EntropyParams
from .scalars import coerce, coerce_rows, parse_row, parse_scalar, scalar_to_json
from .solver_w1 import SolveReport
from .spaces import FiniteGroupAction, FiniteMetricSpace, validate_action, validate_metric


@dataclass
class Problem:
    space: FiniteMetricSpace
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    params: EntropyParams
    action: FiniteGroupAction | None = None
    seed: int = 0


def load_problem(doc: dict, mode: str | None = None) -> Problem:
    if not isinstance(doc, dict):
        raise ValueError("problem file must be a JSON object")
    for key in ("space", "mu", "nu", "params"):
        if key not in doc:
            raise ValueError(f"problem file is missing the {key!r} field")

    mode = mode or doc.get("mode")
    if mode is None:
        exact = _all_exact(doc)
    elif mode in ("exact", "float"):
        exact = mode == "exact"
    else:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")

    space = parse_space(doc["space"], exact=exact)
    mu = parse_measure(doc["mu"], space, "mu")
    nu = parse_measure(doc["nu"], space, "nu")
    params = parse_params(doc["params"], exact=exact)
    action = parse_action(doc["group"], space) if "group" in doc else None
    seed = parse_seed(doc.get("seed", 0))
    return Problem(space=space, mu=mu, nu=nu, params=params, action=action, seed=seed)


def parse_space(doc: dict, exact: bool | None = None) -> FiniteMetricSpace:
    if not (isinstance(doc, dict) and isinstance(doc.get("points"), list) and _is_matrix(doc.get("d"))):
        raise ValueError('space must be {"points": [...], "d": [[...]]}')
    return validate_metric(doc["points"], list(map(parse_row, doc["d"])), exact=exact)


def parse_measure(doc: dict, space: FiniteMetricSpace, name: str) -> DiscreteMeasure:
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must map point labels to weights")
    weights = [0] * space.n
    for label, w in doc.items():
        if label not in space.labels:
            raise ValueError(f"{name} references undeclared point {label!r}")
        weights[space.index(label)] = parse_scalar(w)
    return measure(space, weights)


def parse_params(doc: dict, exact: bool) -> EntropyParams:
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise ValueError('params must supply at least {"a": ..., "b": ...}')
    a = coerce(parse_scalar(doc["a"]), exact)
    b = coerce(parse_scalar(doc["b"]), exact)
    return EntropyParams(a=a, b=b, p=parse_order(doc.get("p", 1)))


def parse_order(value) -> int | float:
    """The order p: an int when integral, so exact cost powers stay rational."""
    p = parse_scalar(value)
    return int(p) if p == int(p) else coerce(p, False)


def parse_action(perms, space: FiniteMetricSpace) -> FiniteGroupAction:
    if not (_is_matrix(perms) and all(type(x) is int for g in perms for x in g)):
        raise ValueError("group must be a list of permutations, each a list of point indices")
    return validate_action(space, perms)


def parse_seed(value) -> int:
    seed = parse_scalar(value)
    if seed != int(seed):
        raise ValueError(f"seed must be an integer, got {value!r}")
    return int(seed)


def _is_matrix(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def _all_exact(doc) -> bool:
    # Decides only the default mode, from the JSON types: ints and strings are
    # exact, anything else means float.  Malformed parts are left to the parsers.
    # One set of types per row, so the first row with a float ends the scan.
    space, params = doc["space"], doc["params"]
    d = space.get("d") if isinstance(space, dict) else None
    rows = d if _is_matrix(d) else []
    weights = [doc[key].values() for key in ("mu", "nu") if isinstance(doc[key], dict)]
    rates = [params[key] for key in ("a", "b", "p") if key in params] if isinstance(params, dict) else []
    return all(
        all(issubclass(t, (int, Fraction, str)) and t is not bool for t in set(map(type, part)))
        for part in chain(rows, weights, [rates])
    )


def report_to_json(report: SolveReport) -> dict:
    doc = {
        "value": scalar_to_json(report.value),
        "plan": [list(map(scalar_to_json, row)) for row in report.plan.gamma],
        "m": scalar_to_json(report.transported_mass),
        "destroyed": scalar_to_json(report.destroyed_mass),
        "created": scalar_to_json(report.created_mass),
    }
    if report.potentials is not None:
        doc["phi1"] = list(map(scalar_to_json, report.potentials.phi1))
        doc["phi2"] = list(map(scalar_to_json, report.potentials.phi2))
    if report.duality_gap is not None:
        doc["gap"] = scalar_to_json(report.duality_gap)
    if report.conditions is not None:
        doc["conditions"] = certificate_to_json(report.conditions)["conditions"]
    else:
        doc["conditions"] = "not-applicable"
    if report.curve is not None:
        doc["curve"] = [[scalar_to_json(m), scalar_to_json(t)] for m, t in report.curve]
    return doc


def certificate_to_json(cert: OptimalityCertificate) -> dict:
    return {
        "conditions": cert.conditions(),
        "violations": [[name, list(witness)] for name, witness in cert.violations],
        "A1": list(cert.a1),
        "A2": list(cert.a2),
    }


def parse_plan(doc, space: FiniteMetricSpace) -> TransportPlan:
    return TransportPlan(space, coerce_rows(list(map(parse_row, doc)), space.exact))


def parse_potentials(report, space: FiniteMetricSpace, params: EntropyParams) -> DualPotentials:
    """The potential pair of a plan report (``report_to_json`` output), once
    the report has the shape ``verify --report`` reads: an object with a
    "value", "plan" a list of rows, and "phi1" and "phi2" lists."""
    if not (
        isinstance(report, dict)
        and "value" in report
        and _is_matrix(report.get("plan"))
        and isinstance(report.get("phi1"), list)
        and isinstance(report.get("phi2"), list)
    ):
        raise ValueError('a report must be {"value": ..., "plan": [[...]], "phi1": [...], "phi2": [...]}')
    one = [coerce(parse_scalar(x), space.exact) for x in report["phi1"]]
    two = [coerce(parse_scalar(x), space.exact) for x in report["phi2"]]
    if len(one) != space.n or len(two) != space.n:
        raise ValueError("potential vectors must match the space size")
    return DualPotentials(phi1=tuple(one), phi2=tuple(two), params=params)
