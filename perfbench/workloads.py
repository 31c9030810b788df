"""The three closed-loop workloads: inputs, one timed op, and its check.

Each workload builds a seeded pool of instances when it is created; op ``k``
runs pool entry ``k % len(pool)``.  Sizes step through a ladder and (a, b)
through ``inputs.AB_CYCLE``, so every run has the same mix.  A ladder of
three sizes far apart puts op times in three separate clusters of equal
count, and both reported percentiles (50 and 80) fall well inside one.  A
continuous ladder spreads op times over an 8x range, where 80 ops pin a
percentile down only to within about 12 %.

``run(k)`` is the timed part and calls genwass only through its public entry
points: ``genwass.cli.main(argv)`` in-process, and the functions exported by
the ``genwass`` package.  Every call goes through a module attribute at call
time, so the tracer's rebound wrappers are seen.  ``check(k, result)`` is the
benchmark's own verification, done outside the timed part; it returns None or a
reason for the failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import inputs

FLOAT_RTOL = 1e-9
ALL_PASS = {"i": True, "ii": True, "iii": True, "iv": True}


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``genwass`` in-process with stdout and stderr held in memory.

    ``--format json`` still prints the human plan text to stderr; writing
    it to a terminal would be timed as well.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _cli_failure(what: str, rc: int, err: str) -> str | None:
    if rc == 0:
        return None
    return f"{what} exited {rc}: {err.strip()[-300:]}"


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= FLOAT_RTOL * (1.0 + abs(y))


@dataclass(frozen=True)
class FileInstance:
    path: str
    d: list
    mu: list
    nu: list
    a: object
    b: object


class ExactW1Certify:
    """Exact rational p = 1 through the CLI, n in {16, 24, 32}: one certified
    answer, written by ``plan --format json`` and read back by ``verify
    --report``.

    The default mode and the product the paper promises.  Flow and metric
    validation (run twice, once per command) do most of the work; the
    verify step adds JSON parsing and the certificate with no flow at all.
    """

    name = "exact_w1_certify"
    LADDER = (16, 24, 32)
    POOL = 90

    def __init__(self, gw, seed: int, workdir: str):
        self.cli = gw.cli
        self.report_path = os.path.join(workdir, "report.json")
        rng = random.Random(seed)
        self.pool = []
        for k in range(self.POOL):
            n = self.LADDER[k % len(self.LADDER)]
            d = inputs.int_metric(rng, n)
            mu, nu = inputs.rational_weights(rng, n), inputs.rational_weights(rng, n)
            a, b = inputs.AB_CYCLE[k // len(self.LADDER) % len(inputs.AB_CYCLE)]
            path = os.path.join(workdir, f"problem{k}.json")
            inputs.write_problem(path, d, mu, nu, a, b, 1)
            self.pool.append(FileInstance(path, d, mu, nu, a, b))

    def run(self, k: int):
        inst = self.pool[k % len(self.pool)]
        plan = call_cli(self.cli, ["plan", "--input", inst.path, "--format", "json"])
        with open(self.report_path, "w") as fh:
            fh.write(plan[1])
        verify = call_cli(
            self.cli,
            ["verify", "--input", inst.path, "--report", self.report_path, "--format", "json"],
        )
        return plan, verify

    def check(self, k: int, result) -> str | None:
        (rc1, out1, err1), (rc2, out2, err2) = result
        failure = _cli_failure("plan", rc1, err1) or _cli_failure("verify", rc2, err2)
        if failure:
            return failure
        rep, cert = json.loads(out1), json.loads(out2)
        if rep["conditions"] != ALL_PASS or cert["conditions"] != ALL_PASS:
            return f"certificate conditions failed: {rep['conditions']} / {cert['conditions']}"
        inst = self.pool[k % len(self.pool)]
        d, mu, nu, a, b = inst.d, inst.mu, inst.nu, inst.a, inst.b
        n = len(d)
        value = Fraction(rep["value"])
        if Fraction(rep["gap"]) != 0:
            return f"reported gap {rep['gap']}"

        gamma = [[Fraction(x) for x in row] for row in rep["plan"]]
        if any(x < 0 for row in gamma for x in row):
            return "plan has a negative entry"
        if any(sum(gamma[i]) > mu[i] for i in range(n)):
            return "plan row sums exceed mu"
        if any(sum(gamma[i][j] for i in range(n)) > nu[j] for j in range(n)):
            return "plan column sums exceed nu"
        m = sum(sum(row) for row in gamma)
        moved = sum(d[i][j] * gamma[i][j] for i in range(n) for j in range(n))
        primal = a * (sum(mu) - m) + a * (sum(nu) - m) + b * moved
        if primal != value:
            return f"primal objective {primal} != reported value {value}"

        phi1 = [Fraction(x) for x in rep["phi1"]]
        phi2 = [Fraction(x) for x in rep["phi2"]]
        if any(v < -a for v in phi1 + phi2):
            return "a potential lies below -a"
        if any(phi1[i] + phi2[j] > b * d[i][j] for i in range(n) for j in range(n)):
            return "potentials violate phi1 + phi2 <= b d"
        dual = sum(min(v, a) * w for v, w in zip(phi1, mu)) + sum(
            min(v, a) * w for v, w in zip(phi2, nu)
        )
        if dual != value:
            return f"dual objective {dual} != reported value {value}"
        return None


class FloatWpCurve:
    """``plan --mode float`` at p = 2 through the CLI, n in {32, 48, 64}.

    The only workload that runs the ``solver_wp`` breakpoint scan and the
    ``record_plans`` copies inside the flow, and it runs no Fraction
    arithmetic: exact-arithmetic work should leave it unchanged, while
    dropping the per-breakpoint plan copies should move it.
    """

    name = "float_wp_curve"
    LADDER = (32, 48, 64)
    POOL = 45

    def __init__(self, gw, seed: int, workdir: str):
        self.cli = gw.cli
        rng = random.Random(seed)
        self.pool = []
        for k in range(self.POOL):
            n = self.LADDER[k % len(self.LADDER)]
            d = inputs.int_metric(rng, n)
            mu, nu = inputs.float_weights(rng, n), inputs.float_weights(rng, n)
            a, b = (float(x) for x in inputs.AB_CYCLE[k // len(self.LADDER) % len(inputs.AB_CYCLE)])
            path = os.path.join(workdir, f"problem{k}.json")
            inputs.write_problem(path, d, mu, nu, a, b, 2)
            self.pool.append(FileInstance(path, d, mu, nu, a, b))

    def run(self, k: int):
        inst = self.pool[k % len(self.pool)]
        return call_cli(self.cli, ["plan", "--input", inst.path, "--format", "json", "--mode", "float"])

    def check(self, k: int, result) -> str | None:
        rc, out, err = result
        failure = _cli_failure("plan", rc, err)
        if failure:
            return failure
        rep = json.loads(out)
        inst = self.pool[k % len(self.pool)]
        d, mu, nu, a, b = inst.d, inst.mu, inst.nu, inst.a, inst.b
        n = len(d)
        value = float(rep["value"])
        total = sum(mu) + sum(nu)

        gamma = [[float(x) for x in row] for row in rep["plan"]]
        slack = FLOAT_RTOL * (1.0 + total)
        if any(x < 0 for row in gamma for x in row):
            return "plan has a negative entry"
        if any(sum(gamma[i]) > mu[i] + slack for i in range(n)):
            return "plan row sums exceed mu"
        if any(sum(gamma[i][j] for i in range(n)) > nu[j] + slack for j in range(n)):
            return "plan column sums exceed nu"
        m = sum(sum(row) for row in gamma)
        moved = sum(d[i][j] ** 2 * gamma[i][j] for i in range(n) for j in range(n))
        primal = a * (total - 2 * m) + b * moved**0.5
        if not _close(primal, value):
            return f"objective {primal} from the plan != reported value {value}"

        scan = min(a * (total - 2 * float(mk)) + b * float(tk) ** 0.5 for mk, tk in rep["curve"])
        if not _close(value, scan):
            return f"value {value} is not the minimum {scan} over the curve's breakpoints"
        return None


@dataclass(frozen=True)
class PairInstance:
    flat: tuple  # (d, mu, nu, a, b): exact p = 1, n in 12..16
    oracle: tuple  # (d, mu, nu, a, b, p): integer masses, n = 3


class CrosscheckRoutes:
    """The acceptance suite's verification traffic, through the library API.

    One op is one flow-vs-flat-LP check (exact p = 1, n in 12..16: ``solve``
    must equal ``solve_flat`` with zero gap and a passing certificate)
    followed by one flow-vs-oracle check (integer masses, n = 3, max_w = 3,
    p cycling through 1, 2, 3: ``solve`` must equal ``brute_force_value``,
    exactly at p = 1 and within 1e-9 relative otherwise).  The two kinds are
    paired rather than timed as separate ops because an oracle check takes
    milliseconds and a flat check about a hundred: with half the ops in each
    cluster the median would fall in the gap between them.  The only
    workload where ``simplex`` and ``oracle`` run; ``flow`` has its smallest
    share here.
    """

    name = "crosscheck_routes"
    FLAT_SIZES = (12, 13, 14, 15, 16)
    ORDERS = (1, 2, 3)
    POOL = 90

    def __init__(self, gw, seed: int, workdir: str):
        self.gw = gw
        rng = random.Random(seed)
        self.pool = []
        for k in range(self.POOL):
            n = self.FLAT_SIZES[k % len(self.FLAT_SIZES)]
            flat = (
                inputs.int_metric(rng, n),
                inputs.rational_weights(rng, n),
                inputs.rational_weights(rng, n),
                *inputs.AB_CYCLE[k // len(self.FLAT_SIZES) % len(inputs.AB_CYCLE)],
            )
            oracle = (
                inputs.int_metric(rng, 3),
                inputs.int_weights(rng, 3),
                inputs.int_weights(rng, 3),
                rng.choice(inputs.AB_EXACT),
                rng.choice(inputs.AB_EXACT),
                self.ORDERS[k % len(self.ORDERS)],
            )
            self.pool.append(PairInstance(flat, oracle))

    def _problem(self, d, mu, nu, a, b, p):
        gw = self.gw
        space = gw.validate_metric(inputs.labels(len(d)), d, exact=True)
        return space, gw.measure(space, mu), gw.measure(space, nu), gw.EntropyParams(a=a, b=b, p=p)

    def run(self, k: int):
        gw = self.gw
        inst = self.pool[k % len(self.pool)]
        problem = self._problem(*inst.flat, 1)
        report = gw.solve(*problem)
        flat_value, witness = gw.solve_flat(*problem)
        problem = self._problem(*inst.oracle)
        got = gw.solve(*problem).value
        expected = gw.brute_force_value(*problem)
        return report, flat_value, witness, got, expected

    def check(self, k: int, result) -> str | None:
        report, flat_value, witness, got, expected = result
        inst = self.pool[k % len(self.pool)]
        a = inst.flat[3]
        if report.duality_gap != 0:
            return f"flow duality gap {report.duality_gap}"
        if not report.conditions.passed:
            return f"certificate failed: {report.conditions.conditions()}"
        if flat_value != report.value:
            return f"flat LP {flat_value} != flow {report.value}"
        if any(not -a <= v <= a for v in witness.f):
            return "flat witness leaves [-a, a]"
        if inst.oracle[5] == 1:
            if got != expected:
                return f"oracle {expected} != flow {got} at p = 1"
        elif not _close(float(got), float(expected)):
            return f"oracle {expected} != flow {got} at p = {inst.oracle[5]}"
        return None


WORKLOADS = {w.name: w for w in (ExactW1Certify, FloatWpCurve, CrosscheckRoutes)}
