"""Command-line front door: parse a problem file, dispatch the solvers,
emit reports, and run the verification suites.

Each subcommand accepts only the flags its handler reads; any other flag
exits 2.  Exit status is the only pass/fail channel: 0 on success, 1 on a
verification failure, 2 on an input error.  Handlers raise on errors and
:func:`main` is the only place that maps them to codes.  A ``SolverFailure``
(the solver could not certify its own answer: a nonzero exact duality gap,
or the flow's phase cap) exits 1; every other ``GenwassError`` and every
malformed file exits 2.  With --format json the machine report goes to
stdout and any human-readable text to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import jsonio
from .duality import primal_value, solve_flat, verification_tol, verify_optimality
from .errors import GenwassError, InvalidParams, NotInvariant, SolverFailure
from .gh import check_pushforward_stability, make_gh_map
from .quotient import check_quotient_contraction, check_quotient_isometry
from .scalars import coerce, parse_scalar, scalar_to_json
from .selftest import run_selftest
from .solver_wp import solve


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except GenwassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genwass",
        description="Exact unbalanced-transport solving and verification on finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "input": dict(required=True, help="problem JSON file"),
        "format": dict(choices=("json", "text"), default="text"),
        "mode": dict(choices=("exact", "float"), default=None),
        "tol": dict(type=float, default=None, help="verification tolerance override"),
        "seed": dict(type=int, default=None, help="seed override for randomized checks"),
        "p": dict(default=None, help="order override"),
        "a": dict(default=None, help="mass-change rate override"),
        "b": dict(default=None, help="transport rate override"),
        "report": dict(default=None, help="verify a previously emitted plan report"),
    }
    problem = "input format mode p a b"
    for name, handler, takes, help_text in (
        ("dist", cmd_dist, problem, "print the distance value"),
        ("plan", cmd_plan, problem, "distance plus the optimal plan"),
        ("dual", cmd_dual, problem, "distance plus dual potentials and the duality gap (p = 1)"),
        ("flat", cmd_flat, problem, "independent flat-metric LP value and witness (p = 1)"),
        ("verify", cmd_verify, problem + " tol report", "optimality certificate for solver output"),
        ("quotient", cmd_quotient, problem + " tol", "quotient contraction/isometry checks"),
        ("gh", cmd_gh, "input format mode seed", "map defects and the pushforward stability bound"),
        ("selftest", cmd_selftest, "format seed", "oracle cross-checks and property suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            if flag in takes.split():
                p.add_argument(f"--{flag}", **spec)
        p.set_defaults(handler=handler)
    return parser


def _load(args) -> jsonio.Problem:
    with open(args.input) as fh:
        doc = json.load(fh)
    problem = jsonio.load_problem(doc, mode=args.mode)
    rates = (("a", args.a), ("b", args.b))
    overrides = {k: coerce(parse_scalar(v), problem.space.exact) for k, v in rates if v is not None}
    if args.p is not None:
        overrides["p"] = jsonio.parse_order(args.p)
    problem.params = dataclasses.replace(problem.params, **overrides)
    return problem


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(doc))
        for line in text_lines:
            print(line, file=sys.stderr)
    else:
        for line in text_lines:
            print(line)


def cmd_dist(args) -> int:
    problem = _load(args)
    report = solve(problem.space, problem.mu, problem.nu, problem.params)
    _emit(args, {"value": scalar_to_json(report.value)}, [f"{report.value}"])
    return 0


def cmd_plan(args) -> int:
    problem = _load(args)
    report = solve(problem.space, problem.mu, problem.nu, problem.params)
    doc = jsonio.report_to_json(report)
    lines = [f"value: {report.value}", f"transported mass: {report.transported_mass}"]
    for i, row in enumerate(report.plan.gamma):
        lines.append(f"  {problem.space.labels[i]}: " + " ".join(map(str, row)))
    _emit(args, doc, lines)
    return 0


def cmd_dual(args) -> int:
    problem = _load(args)
    if problem.params.p != 1:
        raise InvalidParams("dual potentials are only available for p = 1")
    report = solve(problem.space, problem.mu, problem.nu, problem.params)
    doc = jsonio.report_to_json(report)
    lines = [
        f"value: {report.value}",
        "phi1: " + " ".join(str(x) for x in report.potentials.phi1),
        "phi2: " + " ".join(str(x) for x in report.potentials.phi2),
        f"gap: {report.duality_gap}",
    ]
    _emit(args, doc, lines)
    return 0


def cmd_flat(args) -> int:
    problem = _load(args)
    value, witness = solve_flat(problem.space, problem.mu, problem.nu, problem.params)
    doc = {"flat_value": scalar_to_json(value), "f": [scalar_to_json(x) for x in witness.f]}
    _emit(args, doc, [f"flat value: {value}", "witness: " + " ".join(str(x) for x in witness.f)])
    return 0


def cmd_verify(args) -> int:
    problem = _load(args)
    if problem.params.p != 1:  # before a p > 1 solve runs; verify_optimality raises the same
        raise InvalidParams("the certificate is only defined for p = 1")
    if args.report:
        with open(args.report) as fh:
            rep_doc = json.load(fh)
        potentials = jsonio.parse_potentials(rep_doc, problem.space, problem.params)
        plan = jsonio.parse_plan(rep_doc["plan"], problem.space)
        value = coerce(parse_scalar(rep_doc["value"]), problem.space.exact)
    else:
        report = solve(problem.space, problem.mu, problem.nu, problem.params)
        plan, potentials = report.plan, report.potentials
    cert = verify_optimality(
        problem.space, problem.mu, problem.nu, problem.params, plan, potentials, tol=args.tol
    )
    doc = jsonio.certificate_to_json(cert)
    lines = [f"condition {k}: {'pass' if v else 'FAIL'}" for k, v in cert.conditions().items()]
    if args.report:  # the reported value must be the plan's own primal objective
        primal = primal_value(plan, problem.mu, problem.nu, problem.params)
        tol = verification_tol(args.tol, problem.space.exact)
        doc["value_ok"] = abs(primal - value) <= tol * (1 + abs(primal))
        lines.append(f"value: {'pass' if doc['value_ok'] else 'FAIL'}")
    _emit(args, doc, lines)
    return 0 if cert.passed and doc.get("value_ok", True) else 1


def cmd_quotient(args) -> int:
    problem = _load(args)
    if problem.action is None:
        raise GenwassError("quotient checks need a 'group' field")
    tol = verification_tol(args.tol, problem.space.exact)
    given = (problem.action, problem.mu, problem.nu, problem.params)
    try:  # the isometry needs invariant measures; the contraction holds for any
        up, down = check_quotient_isometry(*given)
        isometry_ok = abs(up - down) <= tol
        isometry = f"isometry (invariant measures): {'pass' if isometry_ok else 'FAIL'}"
    except NotInvariant:
        up, down = check_quotient_contraction(*given)
        isometry_ok = "not-applicable (measures not invariant)"
        isometry = "isometry: skipped, measures are not invariant"
    contraction_ok = down - up <= tol
    verdict = "pass" if contraction_ok and isometry_ok is not False else "fail"
    doc = {
        "upstairs": scalar_to_json(up),
        "downstairs": scalar_to_json(down),
        "contraction_ok": contraction_ok,
        "isometry_ok": isometry_ok,
        "verdict": verdict,
    }
    _emit(args, doc, [f"upstairs: {up}", f"downstairs: {down}", isometry, f"verdict: {verdict}"])
    return 0 if verdict == "pass" else 1


def cmd_gh(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    table = doc.get("map") if isinstance(doc, dict) else None
    if not (isinstance(table, list) and all(type(x) is int for x in table)):
        raise ValueError('a gh file must be an object with "map" a list of target point indices')
    source = jsonio.parse_space(doc["source"], exact=None if args.mode is None else args.mode == "exact")
    target = jsonio.parse_space(doc["target"], exact=source.exact)
    ghmap = make_gh_map(table, source, target)
    params = jsonio.parse_params(doc.get("params", {"a": 1, "b": 1, "p": 1}), exact=False)
    mass_cap = coerce(parse_scalar(doc.get("C", 1)), False)
    seed = args.seed if args.seed is not None else jsonio.parse_seed(doc.get("seed", 0))
    stability = check_pushforward_stability(ghmap, params, mass_cap, seed=seed)
    out = {"defect": scalar_to_json(ghmap.epsilon), **{k: scalar_to_json(v) for k, v in stability.items()}}
    ok = stability["deviation_ok"] and stability["surjectivity_ok"]
    lines = [
        f"defect: {ghmap.epsilon}",
        f"stability bound: {stability['bound']}",
        f"max deviation: {stability['max_deviation']} ({'pass' if stability['deviation_ok'] else 'FAIL'})",
        f"surjectivity side: {stability['max_surjectivity_gap']} <= {stability['surjectivity_bound']}"
        f" ({'pass' if stability['surjectivity_ok'] else 'FAIL'})",
    ]
    _emit(args, out, lines)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 0
    ok, lines = run_selftest(seed=seed)
    doc = {"ok": ok, "checks": lines}
    _emit(args, doc, lines + [f"selftest: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
