"""Print what genwass answers on a fixed seeded set of inputs, one line per result.

Two runs on two source trees, diffed, show whether a change keeps every output:

    mkdir ../genwass-parent && git archive HEAD~1 | tar -x -C ../genwass-parent
    python tools/dump_outputs.py --src ../genwass-parent/src > parent.txt
    python tools/dump_outputs.py --src src > change.txt && diff parent.txt change.txt

Each instance is a shortest-path closed integer metric (scaled by a rational
on some instances), two rational measures and rates a, b in {1/2, 1, 2},
exact or float.  Per instance the lines are the ``repr`` of ``solve`` at
p = 1, 3/2, 2 and 3; on exact instances the number of irreducible pairs, the
skeleton network that exact p = 1 runs on; the ``repr`` of ``solve_flat``; the ``verify_optimality`` certificate of
the p = 1 report's plan at the default tolerance, at 1/4 and at the float
2^-10, and of a copy of it with one entry raised by 1/4, at the default
tolerance and at 1/4; ``evaluate_dual`` of the report's potentials with the
first of phi1 set to a + 1/4 and the phi2 of the first point of least nu
weight to -a - 1/4 (a weight of 0 keeps it out of the objective); one metric check, ``validate_metric`` on a
copy of the distances with one pair moved by -1 or +1 unit (drawn from a
generator of its own), in exact mode, in float mode and in float mode on the
integer rows, each as the error type and witness, or "ok"; on instances of at
most 3 points, the brute-force oracle at p = 1, 2 and 3, exact and float, on
the masses min(floor(w), 3) of the instance's weights w, and on those masses
the ``verify_optimality`` certificate and ``primal_value`` of the exact p = 1
plan rebuilt with int entries (integer masses ship whole units), and, when
the instance is exact, the p = 1 and p = 2 reports on its weights as floats
over the exact space and the float p = 1 certificate with the weights times
10^12 / 3 (:func:`float_weights`); and the exit code,
stdout and stderr of the CLI ``plan``, ``dual`` and ``verify --report`` on a
problem file (the report is the ``plan --format json`` output, and once more
with the same raised entry).

A second section runs larger instances, where most augmenting paths cost
more than the last: l1 distances of points of {0..1000}^2 and wide
unclosed integer distances in [1000, 2000], each at n = 48 and 96 with
a = 500, and a closed integer metric at n = 64 with a = 2; b = 1/2, two
rational measures, and each instance in exact and in float mode.  Per
instance and mode the lines are the number of irreducible pairs (exact mode
only) and the ``repr`` of ``solve`` at p = 1 and 2.

A third section runs float p = 1 problems whose rate a is not dyadic (0.3
or 7.7), on float metrics closed under shortest paths from uniform float
edges in [1, 9] and on uniform float weights in [0, 3], n = 2 to 10, so the
last bits of the potentials and the gap show.  Per instance the lines are
the report's value, plan (as its dense matrix), potentials, duality gap and
certificate, one line each, or the error.

Errors print as their type and message.  A report prints as its ``repr``
with the plan written as its dense matrix, ``TransportPlan(space=...,
gamma=...)``: the form dumps took while a plan held that matrix, so a dump
still compares line for line with those.  The plans built here are made
from their support by :func:`make_plan`, so the source tree must be one
whose plans hold their support.  Standard library only: the inputs are
built here.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SEED = 20191
NUDGE_SEED = 20192
INSTANCES = 200
RATES = (Fraction(1, 2), Fraction(1), Fraction(2))
SCALES = (Fraction(1), Fraction(1), Fraction(2, 3))
ORACLE_MAX_N = 3
ORACLE_MAX_W = 3
# weights of about 1e12, where a float plan marginal can round past its weight
HUGE_WEIGHT = Fraction(10**12, 3)
LARGE_SEED = 20193
# the larger instances: (metric family, n, a), at b = 1/2
LARGE = (("l1", 48, 500), ("l1", 96, 500), ("wide", 48, 500), ("wide", 96, 500), ("closed", 64, 2))
FLOAT_DUAL_SEED = 20194
FLOAT_DUALS = 200


def closed_metric(rng: random.Random, n: int, max_d: int) -> list[list[int]]:
    """Random integer distances in [1, max_d], closed under shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def large_metric(rng: random.Random, family: str, n: int) -> list[list[int]]:
    """Integer distances of one family of the larger instances."""
    if family == "l1":  # n distinct points of {0..1000}^2
        points = [divmod(k, 1001) for k in rng.sample(range(1001**2), n)]
        return [[abs(x - u) + abs(y - v) for u, v in points] for x, y in points]
    if family == "wide":  # two distances sum to at least 2000, so no closure is needed
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.randint(1000, 2000)
        return d
    return closed_metric(rng, n, 9)


def float_metric(rng: random.Random, n: int) -> list[list[float]]:
    """Uniform float distances in [1, 9], closed under shortest paths in floats."""
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.uniform(1.0, 9.0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def random_weights(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(0, 6), rng.choice((1, 2, 4))) for _ in range(n)]


def number(x: Fraction, exact: bool):
    """A JSON number: an int or a "p/q" string in exact mode, else a float."""
    if not exact:
        return float(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def in_mode(x: Fraction, exact: bool):
    return x if exact else float(x)


def outcome(call, *args, **kwargs) -> str:
    try:
        result = call(*args, **kwargs)
    except Exception as exc:  # a raised error is an output too
        return f"{type(exc).__name__}: {exc}"
    if type(result).__name__ != "SolveReport":
        return repr(result)
    # the dataclass repr, with the plan as its dense matrix
    shown = (
        f"TransportPlan(space={value.space!r}, gamma={value.gamma!r})" if field.name == "plan" else repr(value)
        for field in dataclasses.fields(result)
        for value in [getattr(result, field.name)]
    )
    names = (field.name for field in dataclasses.fields(result))
    return f"SolveReport({', '.join(f'{name}={text}' for name, text in zip(names, shown))})"


def make_plan(TransportPlan, space, rows):
    """The plan of these dense rows, built from its support: the (i, j, x) of
    their nonzero entries in row-major order."""
    return TransportPlan(space, tuple((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x))


def run_cli(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit={code} stdout={out.getvalue()!r} stderr={err.getvalue()!r}"


def dump(cli_main, workdir: Path):
    from genwass import (
        EntropyParams,
        TransportPlan,
        brute_force_value,
        evaluate_dual,
        measure,
        solve,
        solve_flat,
        validate_metric,
        verify_optimality,
    )
    from genwass.duality import primal_value
    from genwass.jsonio import report_to_json

    rng, nudge_rng = random.Random(SEED), random.Random(NUDGE_SEED)
    for k in range(INSTANCES):
        n, exact = rng.randint(1, 8), rng.random() < 0.7
        scale = rng.choice(SCALES)
        ints = closed_metric(rng, n, rng.choice((3, 5, 9)))
        d = [[scale * x for x in row] for row in ints]
        mu_w, nu_w = random_weights(rng, n), random_weights(rng, n)
        a, b = rng.choice(RATES), rng.choice(RATES)
        labels = [f"x{i}" for i in range(n)]
        tag = f"{k} {'exact' if exact else 'float'} n={n}"

        space = validate_metric(labels, [[in_mode(x, exact) for x in row] for row in d], exact=exact)
        mu, nu = (measure(space, [in_mode(w, exact) for w in ws]) for ws in (mu_w, nu_w))
        orders = (1, Fraction(3, 2), 2, 3)
        params = {p: EntropyParams(a=in_mode(a, exact), b=in_mode(b, exact), p=p) for p in orders}
        for p, order_p in params.items():
            yield f"{tag} solve p={p}: {outcome(solve, space, mu, nu, order_p)}"
        if exact:
            yield f"{tag} {skeleton_pairs(space)}"
        p1 = params[1]
        report = solve(space, mu, nu, p1)
        yield f"{tag} solve_flat: {outcome(solve_flat, space, mu, nu, p1)}"
        gamma = [list(row) for row in report.plan.gamma]
        gamma[rng.randrange(n)][rng.randrange(n)] += in_mode(Fraction(1, 4), exact)
        raised = make_plan(TransportPlan, space, gamma)
        for name, plan, tols in (
            ("solve", report.plan, (None, Fraction(1, 4), 2**-10)),
            ("raised", raised, (None, Fraction(1, 4))),
        ):
            for tol in tols:
                result = outcome(verify_optimality, space, mu, nu, p1, plan, report.potentials, tol=tol)
                yield f"{tag} verify_optimality {name} tol={tol}: {result}"
        phi1, phi2 = list(report.potentials.phi1), list(report.potentials.phi2)
        phi1[0] = in_mode(a + Fraction(1, 4), exact)
        phi2[nu_w.index(min(nu_w))] = in_mode(-a - Fraction(1, 4), exact)
        pushed = dataclasses.replace(report.potentials, phi1=tuple(phi1), phi2=tuple(phi2))
        yield f"{tag} evaluate_dual pushed: {outcome(evaluate_dual, pushed, mu, nu)}"
        yield f"{tag} {metric_check(validate_metric, nudge_rng, labels, ints, scale)}"
        if n <= ORACLE_MAX_N:
            masses = [[min(int(w), ORACLE_MAX_W) for w in ws] for ws in (mu_w, nu_w)]
            for o_exact in (True, False):
                o_space = validate_metric(labels, [[in_mode(x, o_exact) for x in row] for row in d], exact=o_exact)
                o_mu, o_nu = (measure(o_space, [in_mode(w, o_exact) for w in ws]) for ws in masses)
                for p in (1, 2, 3):
                    o_params = EntropyParams(a=in_mode(a, o_exact), b=in_mode(b, o_exact), p=p)
                    result = outcome(brute_force_value, o_space, o_mu, o_nu, o_params)
                    yield f"{tag} brute_force_value {'exact' if o_exact else 'float'} p={p}: {result}"
                if o_exact:
                    o_p1 = EntropyParams(a=a, b=b, p=1)
                    o_report = solve(o_space, o_mu, o_nu, o_p1)
                    int_plan = make_plan(TransportPlan, o_space, [list(map(int, row)) for row in o_report.plan.gamma])
                    result = outcome(verify_optimality, o_space, o_mu, o_nu, o_p1, int_plan, o_report.potentials)
                    yield f"{tag} verify_optimality int plan: {result}"
                    yield f"{tag} primal_value int plan: {outcome(primal_value, int_plan, o_mu, o_nu, o_p1)}"
            if exact:
                yield from float_weights(space, mu_w, nu_w, a, b, tag)

        doc = {
            "space": {"points": labels, "d": [[number(x, exact) for x in row] for row in d]},
            "mu": dict(zip(labels, (number(w, exact) for w in mu_w))),
            "nu": dict(zip(labels, (number(w, exact) for w in nu_w))),
            "params": {"a": number(a, exact), "b": number(b, exact), "p": 1 if k % 3 else 2},
        }
        problem = workdir / f"problem{k}.json"
        problem.write_text(json.dumps(doc))
        for argv in (["plan"], ["plan", "--format", "json"], ["dual"]):
            yield f"{tag} cli {' '.join(argv)}: {run_cli(cli_main, [*argv, '--input', str(problem)])}"
        if doc["params"]["p"] != 1:
            continue
        plan_doc = report_to_json(report)
        raised_doc = dict(plan_doc, plan=report_to_json(dataclasses.replace(report, plan=raised))["plan"])
        for name, rep in (("report", plan_doc), ("raised report", raised_doc)):
            path = workdir / f"report{k}.json"
            path.write_text(json.dumps(rep))
            for extra in ([], ["--format", "json"]):
                argv = ["verify", "--input", str(problem), "--report", str(path), *extra]
                yield f"{tag} cli verify {name}{' json' if extra else ''}: {run_cli(cli_main, argv)}"
    yield from dump_large()
    yield from dump_float_duals()


def dump_large():
    from genwass import EntropyParams, measure, solve, validate_metric

    rng = random.Random(LARGE_SEED)
    for family, n, a in LARGE:
        d = large_metric(rng, family, n)
        mu_w, nu_w = random_weights(rng, n), random_weights(rng, n)
        labels = [f"x{i}" for i in range(n)]
        for exact in (True, False):
            tag = f"large {family} {'exact' if exact else 'float'} n={n}"
            space = validate_metric(labels, [[in_mode(x, exact) for x in row] for row in d], exact=exact)
            mu, nu = (measure(space, [in_mode(w, exact) for w in ws]) for ws in (mu_w, nu_w))
            rates = {"a": in_mode(Fraction(a), exact), "b": in_mode(Fraction(1, 2), exact)}
            if exact:
                yield f"{tag} {skeleton_pairs(space)}"
            for p in (1, 2):
                yield f"{tag} solve p={p}: {outcome(solve, space, mu, nu, EntropyParams(**rates, p=p))}"


def dump_float_duals():
    from genwass import EntropyParams, measure, solve, validate_metric

    rng = random.Random(FLOAT_DUAL_SEED)
    for k in range(FLOAT_DUALS):
        n = rng.randint(2, 10)
        labels = [f"x{i}" for i in range(n)]
        space = validate_metric(labels, float_metric(rng, n), exact=False)
        mu, nu = (measure(space, [rng.uniform(0.0, 3.0) for _ in range(n)]) for _ in range(2))
        params = EntropyParams(a=rng.choice((0.3, 7.7)), b=rng.choice((0.5, 1.0)), p=1)
        tag = f"float duals {k} n={n} a={params.a} b={params.b}"
        try:
            report = solve(space, mu, nu, params)
        except Exception as exc:  # a raised error is an output too
            yield f"{tag}: {type(exc).__name__}: {exc}"
            continue
        yield f"{tag} value: {report.value!r}"
        yield f"{tag} plan: {report.plan.gamma!r}"
        yield f"{tag} potentials: {report.potentials.phi1!r} {report.potentials.phi2!r}"
        yield f"{tag} gap: {report.duality_gap!r}"
        yield f"{tag} conditions: {report.conditions!r}"


def float_weights(space, mu_w, nu_w, a, b, tag):
    """The p = 1 and p = 2 reports on the weights as floats over the exact
    space, and the float p = 1 certificate, or its error, on the float space
    with the weights times HUGE_WEIGHT."""
    from genwass import DiscreteMeasure, EntropyParams, measure, solve

    mu, nu = (DiscreteMeasure(space, tuple(map(float, ws))) for ws in (mu_w, nu_w))
    for p in (1, 2):
        yield f"{tag} solve p={p} float weights: {outcome(solve, space, mu, nu, EntropyParams(a=a, b=b, p=p))}"
    f_space = space.as_float()
    mu, nu = (measure(f_space, [float(w * HUGE_WEIGHT) for w in ws]) for ws in (mu_w, nu_w))
    params = EntropyParams(a=float(a), b=float(b), p=1)
    yield f"{tag} float p=1 huge weights: {outcome(lambda: solve(f_space, mu, nu, params).conditions)}"


def skeleton_pairs(space) -> str:
    """The number of irreducible pairs, the arcs of the exact p = 1 network;
    a source tree that has no such list prints the error."""
    return f"skeleton pairs: {outcome(lambda: len(space._irreducible))}"


def metric_check(validate_metric, rng, labels, ints, scale) -> str:
    """validate_metric on the distances with one pair moved by one unit."""
    n = len(ints)
    if n < 2:
        return "validate_metric: no pair to nudge"
    i, j = rng.sample(range(n), 2)
    step = rng.choice((-1, 1))
    nudged = [row[:] for row in ints]
    nudged[i][j] = nudged[j][i] = ints[i][j] + step
    results = []
    for mode, rows, exact in (
        ("exact", [[scale * x for x in row] for row in nudged], True),
        ("float", [[float(scale * x) for x in row] for row in nudged], False),
        ("float int rows", nudged, False),
    ):
        try:
            validate_metric(labels, rows, exact=exact)
            results.append(f"{mode} ok")
        except Exception as exc:  # a raised error is an output too
            witness = tuple(getattr(exc, name) for name in ("i", "j", "k") if hasattr(exc, name))
            results.append(f"{mode} {type(exc).__name__} {witness}: {exc}")
    return f"validate_metric d[{i}][{j}] {step:+d}: {'; '.join(results)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the source directory genwass is imported from")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import genwass
    from genwass.cli import main as cli_main

    if src not in Path(genwass.__file__).resolve().parents:
        parser.error(f"genwass was imported from {genwass.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for line in dump(cli_main, Path(tmp)):
            print(line.replace(tmp, "<tmp>"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
