"""Globally optimal decentralized policies for symmetric LQG team problems.

Submodules:
  model       problem-instance data model and structural validation
  riccati     Riccati recursion, DARE by structure-preserving doubling, PBH tests
  tree        symmetric tree-information solvers (finite, infinite, mean field)
  info_graph  delayed-sharing information graph
  delayed     one-step-delayed sharing synthesis
  moments     closed-loop covariance propagation and its adjoint
  sim         Monte Carlo engine and structural property checks
  cli         command-line interface
"""

from .model import (
    Blocked,
    CostSpec,
    Delayed,
    DimensionError,
    Homogeneous,
    MeanFieldTree,
    NoiseSpec,
    SingularCovarianceError,
    TeamSpec,
    Tree,
    ValidationReport,
    conditional_gain,
    validate,
)
from .riccati import (
    ConvergenceError,
    DareSolution,
    RiccatiError,
    dare_solve,
    is_detectable,
    is_stabilizable,
    riccati_step,
)
from .tree import (
    CouplingSystemError,
    InfiniteTreePolicy,
    Population,
    TreePolicy,
    mean_field,
    mean_field_limit,
    meanfield_limit_policy,
    n_dm,
    predicted_cost,
    solve_coupling_gains,
    solve_infinite_tree,
    solve_k_p,
    solve_tree,
)
from .info_graph import (
    InfoGraph,
    UnsupportedStructureError,
    build_info_graph,
    check_sparsity,
    effective_delays,
    partition,
)
from .delayed import (
    GraphPolicy,
    NodeRecursionError,
    RankConditionError,
    closed_loop_cost,
    closed_loop_radius,
    simulate_estimator,
    solve_delayed_finite,
    solve_delayed_infinite,
)
from .sim import (
    GraphPolicySet,
    SimReport,
    TreePolicySet,
    certainty_equivalence_check,
    exact_cost_general,
    exchangeability_check,
    mft_sweep,
    pbp_check,
    simulate,
    symmetrization_check,
    symmetrize,
)

__version__ = "0.1.0"
