"""Layer spans recorded from outside the program.

Each traced function is wrapped once.  ``from .flow import solve_transport``
and similar imports copy the binding into other modules (``solver_w1``,
``solver_wp``, ``cli``, ``jsonio``, ``selftest``, the package itself), so
the tracer rebinds every attribute of every loaded ``genwass`` module that
is the original object.  ``install`` and ``remove`` swap those bindings, so
an untraced op runs the original code with no wrapper in the way.

Spans are kept in memory as (name, start, end, parent, op) and written out
at the end.  A span's self time is its duration minus the durations of its
direct children; spans nest because the workloads run on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs, by their names in genwass.
TRACED = (
    ("cli", "main"),
    ("jsonio", "load_problem"),
    ("jsonio", "report_to_json"),
    ("jsonio", "parse_plan"),
    ("spaces", "validate_metric"),
    ("flow", "solve_transport"),
    ("solver_w1", "solve_w1"),
    ("solver_wp", "solve_wp"),
    ("duality", "evaluate_dual"),
    ("duality", "verify_optimality"),
    ("duality", "solve_flat"),
    ("simplex", "maximize"),
    ("oracle", "brute_force_value"),
)


def _rows(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["rows"])


# Work counts taken from a traced call's arguments or return value, as
# (count name, unit, function of args, kwargs and result).
COUNTS = {
    "flow.solve_transport": (
        "breakpoints", "count/op", lambda args, kwargs, result: len(result.breakpoints) - 1
    ),
    "simplex.maximize": ("rows", "count/op", _rows),
    # computed, not counted: validation scans n^3 (i, j, k) triples
    "spaces.validate_metric": ("triples", "computed/op", lambda args, kwargs, result: result.n**3),
}

LAYER_NAMES = tuple(f"{module}.{function}" for module, function in TRACED)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        wrappers = {}
        for module, function in TRACED:
            original = getattr(sys.modules[f"genwass.{module}"], function)
            wrappers[id(original)] = (original, self._wrap(f"{module}.{function}", original))
        self._bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "genwass" and not mod_name.startswith("genwass."):
                continue
            for attr, value in vars(mod).items():
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._bindings.append((mod, attr, value, found[1]))

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[2](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _wrapper in self._bindings:
            setattr(mod, attr, original)

    def layer_times(self, scale: dict[int, float]) -> tuple[dict[str, int], dict[str, float], float]:
        """Calls and self time per layer, and the summed duration of root spans.

        Each span's times are multiplied by ``scale`` of its op.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {name: 0 for name in LAYER_NAMES}
        self_s = {name: 0.0 for name in LAYER_NAMES}
        root = 0.0
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += ((end - start) - child[idx]) * scale[op]
            if parent < 0:
                root += (end - start) * scale[op]
        return calls, self_s, root

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
