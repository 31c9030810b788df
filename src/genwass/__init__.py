"""Exact solvers and optimality certificates for generalized (unbalanced)
Wasserstein distances on finite metric spaces.

The distance combines mass creation/destruction at rate a with order-p
transport at rate b.  The package provides the primal flow solver, dual
potentials with a four-condition optimality certificate, the equivalent
flat-metric (bounded-Lipschitz) linear program as an independent
cross-check, quotient constructions under finite isometric group actions,
Gromov-Hausdorff stability bounds, and an exhaustive oracle used by the
verification suite.
"""

from .duality import (
    DualPotentials,
    FlatWitness,
    OptimalityCertificate,
    c_transform,
    evaluate_dual,
    solve_flat,
    truncate_potential,
    verify_optimality,
)
from .errors import GenwassError
from .gh import (
    GHMap,
    approximate_inverse,
    equivariant_defect,
    gh_defect,
    make_gh_map,
    pushforward_bound,
)
from .measures import (
    DiscreteMeasure,
    TransportPlan,
    dirac,
    invariant_lift,
    measure,
    pushforward,
    symmetrize,
)
from .oracle import brute_force_value
from .params import EntropyParams
from .quotient import check_quotient_contraction, check_quotient_isometry
from .solver_w1 import SolveReport, solve_w1
from .solver_wp import (
    ParametricCurve,
    parametric_transport_curve,
    solve,
    solve_wp,
    wasserstein_p,
)
from .spaces import (
    FiniteGroupAction,
    FiniteMetricSpace,
    QuotientResult,
    build_quotient,
    validate_action,
    validate_metric,
)

__all__ = [
    "DualPotentials",
    "FlatWitness",
    "OptimalityCertificate",
    "c_transform",
    "evaluate_dual",
    "solve_flat",
    "truncate_potential",
    "verify_optimality",
    "GenwassError",
    "GHMap",
    "approximate_inverse",
    "equivariant_defect",
    "gh_defect",
    "make_gh_map",
    "pushforward_bound",
    "DiscreteMeasure",
    "TransportPlan",
    "dirac",
    "invariant_lift",
    "measure",
    "pushforward",
    "symmetrize",
    "brute_force_value",
    "EntropyParams",
    "check_quotient_contraction",
    "check_quotient_isometry",
    "SolveReport",
    "solve_w1",
    "ParametricCurve",
    "parametric_transport_curve",
    "solve",
    "solve_wp",
    "wasserstein_p",
    "FiniteGroupAction",
    "FiniteMetricSpace",
    "QuotientResult",
    "build_quotient",
    "validate_action",
    "validate_metric",
]

__version__ = "0.1.0"
