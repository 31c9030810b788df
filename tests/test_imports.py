"""Every name a package module imports is used in that module, every
module-level private function is referenced by some module of the package,
every public export but the paper's entry points is referenced by some
module other than ``__init__``,
only ``scalars`` names ``lcm``: ``scalars.scaled`` is the one helper
that turns exact values into integers over a common denominator, only
``scalars`` writes a float tolerance, the independent cross-check routes
never reach the flow solver through imports,
and the test references in ``tests/reference.py`` use no private name of the
package, so they share no hidden helper with the routes they check.

Neither ruff nor pyflakes is a dependency, so this is a small stdlib-``ast``
check.  ``__init__.py`` is exempt from the import check: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

import genwass

PACKAGE = sorted(Path(genwass.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name():
    source = "import os\nfrom fractions import Fraction\nfrom math import gcd as g\nprint(os.sep)\n"
    assert unused_imports(source) == ["line 2: Fraction", "line 3: g"]


def referenced_names(tree: ast.AST) -> set[str]:
    """Names that ``tree`` reads, calls or imports, plainly or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions of ``{module: source}`` that no module names."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        ]
        used |= referenced_names(tree)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_package_has_no_unreferenced_private_functions():
    assert unreferenced_private_functions({p.stem: p.read_text() for p in PACKAGE}) == []


def test_checker_flags_an_unreferenced_private_function():
    module_a = "def _imported(): pass\ndef _by_attribute(): pass\ndef _called(): pass\ndef _orphan(): _called()\n"
    module_b = "import a\nfrom a import _imported\na._by_attribute()\n"
    assert unreferenced_private_functions({"a": module_a, "b": module_b}) == ["a._orphan"]


# Exports that no module of the package runs: the paper's entry points, kept
# for the library's users.
PAPER_ENTRY_POINTS = ("dirac", "invariant_lift", "parametric_transport_curve", "wasserstein_p")


def unreferenced_exports(exported, sources: dict[str, str]) -> list[str]:
    """Names of ``exported`` that no module of ``{module: source}`` references."""
    used = set().union(*(referenced_names(ast.parse(source)) for source in sources.values()))
    return sorted(set(exported) - used)


def test_every_export_runs_in_some_route():
    # MODULES leaves out __init__, whose imports are the exports themselves
    sources = {p.stem: p.read_text() for p in MODULES}
    assert set(PAPER_ENTRY_POINTS) <= set(genwass.__all__)
    assert unreferenced_exports(set(genwass.__all__) - set(PAPER_ENTRY_POINTS), sources) == []


def test_checker_flags_an_unreferenced_export():
    sources = {
        "a": "def called(): pass\ndef by_attribute(): pass\ndef imported(): pass\ndef orphan(): called()\n",
        "b": "import a\nfrom a import imported\na.by_attribute()\n",
    }
    exported = ("called", "by_attribute", "imported", "orphan", "missing")
    assert unreferenced_exports(exported, sources) == ["missing", "orphan"]


def name_users(sources: dict[str, str], wanted: str) -> list[str]:
    """Modules of ``{module: source}`` that name ``wanted``: define, call, import or read it."""
    users = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                else None
            )
            if name == wanted:
                users.add(module)
    return sorted(users)


def test_only_scalars_names_lcm():
    assert name_users({p.stem: p.read_text() for p in PACKAGE}, "lcm") == ["scalars"]


def small_float_literals(source: str) -> list[float]:
    """The float literals of ``source`` in (0, 1e-6): tolerances, in this package."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-6
    ]


def test_only_scalars_holds_a_float_tolerance():
    # every float check scales scalars.ROUNDING_TOL or scalars.CERTIFY_TOL
    assert [p.stem for p in PACKAGE if small_float_literals(p.read_text())] == ["scalars"]


def test_checker_flags_every_small_float_literal():
    source = "a = 1e-9\nb = -1e-12\nc = 0.5\nd = 1e-6\ne = 0.0\nf = 1\ng = 2 * 1e-7\n"
    assert small_float_literals(source) == [1e-9, 1e-12, 1e-7]


def test_checker_flags_every_way_to_name_lcm():
    sources = {
        "called": "import math\nmath.lcm(2, 3)\n",
        "imported": "from math import lcm as common\ncommon(2, 3)\n",
        "read": "import math\nf = math.lcm\n",
        "defined": "def lcm(a, b):\n    return a * b\n",
        "clean": "import math\nmath.gcd(2, 3)\n",
    }
    assert name_users(sources, "lcm") == ["called", "defined", "imported", "read"]


# The flat LP, the oracle and the certificate check the flow's answers, so
# they must not compute through it.
INDEPENDENT = ("duality", "oracle", "simplex")
FLOW_ROUTE = ("flow", "solver_w1", "solver_wp")


def package_imports(source: str) -> set[str]:
    """Modules of the package that ``source`` imports, in any form and at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("genwass.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module != "genwass" and not module.startswith("genwass."):
                continue
            module = module.removeprefix("genwass").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x, from genwass import x
                found |= {a.name for a in node.names}
    return found


def import_chains(sources: dict[str, str], roots, banned) -> list[str]:
    """For each root of ``{module: source}`` that reaches a banned module
    through package imports, one chain of imports from it to that module."""
    graph = {module: package_imports(source) for module, source in sources.items()}
    chains = []
    for root in roots:
        seen, stack = {root}, [[root]]
        while stack:
            chain = stack.pop()
            if chain[-1] in banned:
                chains.append(" -> ".join(chain))
                break
            for module in sorted(graph.get(chain[-1], ()) - seen, reverse=True):
                seen.add(module)
                stack.append(chain + [module])
    return chains


def test_cross_checks_never_import_the_flow_route():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert set(INDEPENDENT) | set(FLOW_ROUTE) <= set(sources)
    assert import_chains(sources, INDEPENDENT, FLOW_ROUTE) == []


def test_checker_flags_every_way_to_reach_the_flow():
    sources = {
        "relative": "from .flow import solve_transport\n",
        "package": "from . import solver_w1\n",
        "absolute": "import genwass.solver_wp\n",
        "named": "from genwass import flow as f\n",
        "lazy": "def f():\n    from genwass.flow import solve_transport\n",
        "indirect": "from .helper import x\n",
        "helper": "from .scalars import scaled\nfrom .relative import y\n",
        "clean": "from .scalars import scaled\nfrom fractions import Fraction\nimport flow\n",
        "scalars": "import math\n",
        "flow": "", "solver_w1": "", "solver_wp": "",
    }
    roots = ("relative", "package", "absolute", "named", "lazy", "indirect", "clean")
    assert import_chains(sources, roots, FLOW_ROUTE) == [
        "relative -> flow",
        "package -> solver_w1",
        "absolute -> solver_wp",
        "named -> flow",
        "lazy -> flow",
        "indirect -> helper -> relative -> flow",
    ]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_package_names(source: str) -> list[str]:
    """``_``-private names that ``source`` takes from the package: imported
    from a ``genwass`` module, or read as an attribute of a name it bound by
    importing ``genwass`` or one of its modules."""
    tree = ast.parse(source)
    found, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                (a.asname or a.name).split(".")[0] for a in node.names if a.name.split(".")[0] == "genwass"
            }
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "genwass":
            found |= {a.name for a in node.names if is_private(a.name)}
            modules |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if is_private(node.attr):
                found.add(node.attr)
    return sorted(found)


def test_reference_uses_no_private_name_of_the_package():
    source = (Path(__file__).parent / "reference.py").read_text()
    assert private_package_names(source) == []


def test_checker_flags_every_way_to_take_a_private_name():
    source = (
        "import genwass\n"
        "import genwass.flow as f\n"
        "from genwass import oracle\n"
        "from genwass.oracle import _least_costs, brute_force_value\n"
        "from genwass.scalars import scaled as _s\n"
        "genwass._version\n"
        "f._dijkstra()\n"
        "oracle._integer_weights\n"
        "space._scaled\n"
        "brute_force_value.__doc__\n"
    )
    assert private_package_names(source) == ["_dijkstra", "_integer_weights", "_least_costs", "_version"]
