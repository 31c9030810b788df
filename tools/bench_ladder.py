"""Time genwass's ``solve`` on a fixed seeded size ladder and write BENCH_<label>.json.

One run times one or more source trees, each in fresh processes:

    mkdir ../genwass-parent && git archive HEAD~1 | tar -x -C ../genwass-parent
    python tools/bench_ladder.py --label mine --tree parent=../genwass-parent/src --tree change=src

Each rung is a closed integer metric from ``perfbench/inputs.py``
(``int_metric``: edges 1 to 5, closed under shortest paths) at n = 32, 64,
128 and 256, with two measures and a = 1, b = 1/2.  Three solves run on it:
float p = 2 (the metric and ``float_weights`` in floats, as the
``float_wp_curve`` workload runs them), exact p = 2 and exact p = 1 (on
``rational_weights``).  The space is validated and the measures built
outside the timed call, on a fresh space each time, so a timing includes
all of ``solve``, the skeleton's pair list at p = 1 among it.

A process times every rung once, and the trees take turns, the first
going first on odd repeats, so drift on a shared machine hits both alike.
Each figure is the median wall time in ms over ``--repeat`` processes
(default 5), written with the individual times, the Python version and the
CPU count.  Standard library only; ``perfbench/`` is imported, not changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs.py"
SIZES = (32, 64, 128, 256)
SEED = 36
CASES = ("float p=2", "exact p=2", "exact p=1")


def load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_ladder(src: Path, sizes) -> dict[str, dict[str, float]]:
    """One time in ms per case and size, for genwass imported from ``src``."""
    sys.path.insert(0, str(src))
    import genwass

    if src not in Path(genwass.__file__).resolve().parents:
        raise SystemExit(f"genwass was imported from {genwass.__file__}, not from {src}")
    from fractions import Fraction

    from genwass import EntropyParams, measure, solve, validate_metric

    inputs = load_inputs()
    times: dict[str, dict[str, float]] = {case: {} for case in CASES}
    for n in sizes:
        rng = random.Random(SEED * 1000 + n)
        d = inputs.int_metric(rng, n)
        exact_w = inputs.rational_weights(rng, n), inputs.rational_weights(rng, n)
        float_w = inputs.float_weights(rng, n), inputs.float_weights(rng, n)
        labels = inputs.labels(n)
        for case in CASES:
            mode, p = case.split(" p=")
            if mode == "float":
                space = validate_metric(labels, [[float(x) for x in row] for row in d], exact=False)
                weights, a, b = float_w, 1.0, 0.5
            else:
                space = validate_metric(labels, d, exact=True)
                weights, a, b = exact_w, Fraction(1), Fraction(1, 2)
            mu, nu = (measure(space, w) for w in weights)
            params = EntropyParams(a=a, b=b, p=int(p))
            start = time.perf_counter()
            solve(space, mu, nu, params)
            times[case][str(n)] = (time.perf_counter() - start) * 1000
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a source tree to time, by name (default: change=src); repeatable")
    parser.add_argument("--repeat", type=int, default=5, help="processes per tree, each timing every rung once")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", default=str(ROOT), help="the directory the file is written to")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # one process, one pass over the ladder
        print(json.dumps(time_ladder(Path(args.child).resolve(), args.sizes)))
        return 0
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    trees = {}
    for spec in args.tree or ["change=src"]:
        name, sep, src = spec.partition("=")
        if not sep or not name or not src:
            parser.error(f"--tree takes NAME=SRC, got {spec!r}")
        trees[name] = str(Path(src).resolve())
    runs = {name: [] for name in trees}
    for r in range(args.repeat):
        for name in list(trees)[:: -1 if r % 2 else 1]:
            argv = [sys.executable, __file__, "--label", args.label, "--child", trees[name], "--sizes",
                    *map(str, args.sizes)]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            runs[name].append(json.loads(done.stdout))

    results = {
        name: {
            case: {
                str(n): {"median_ms": round(statistics.median(ms), 3), "runs_ms": [round(x, 3) for x in ms]}
                for n in args.sizes
                for ms in [[run[case][str(n)] for run in tree_runs]]
            }
            for case in CASES
        }
        for name, tree_runs in runs.items()
    }
    doc = {
        "label": args.label,
        "what": "wall time of genwass.solve in ms, the median of one timing per process",
        "inputs": f"perfbench/inputs.py int_metric (edges 1-5), seed {SEED}, a = 1, b = 1/2",
        "repeat": args.repeat,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "sizes": args.sizes,
        "results": results,
    }
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for case in CASES:
        for n in args.sizes:
            row = "  ".join(f"{name} {results[name][case][str(n)]['median_ms']:9.2f}" for name in trees)
            print(f"{case:10} n={n:<4} {row}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
