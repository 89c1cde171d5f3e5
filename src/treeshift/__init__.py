"""Markov chains indexed by rooted d-trees.

Adjacency, transition, and weight matrices all follow one orientation:
rows index children, columns index parents.
"""

__version__ = "0.1.0"

from .alphabet_graph import (
    AdjacencyModel,
    PeriodStructure,
    ReachabilityReport,
    find_a0_and_period,
    is_irreducible,
    linear_spectral_radius,
    model_from_dict,
    reachability,
    reduce_a0,
)
from .dimension import (
    DimensionReport,
    ExponentVector,
    OptimalMeasure,
    dim_objective,
    general_upper_bound,
    hausdorff_dimension,
    optimal_markov_measure,
    ratios_to_simplex,
    simplex_to_ratios,
)
from .rate_function import (
    PressureResult,
    RateCurve,
    WeightedChainModel,
    chain_from_matrices,
    domain_endpoints,
    lln_beta_bounds,
    lln_limit,
    phi,
    pressure,
    rate,
    rate_curve,
    reciprocal_on_support,
    tilted_matrix,
)
from .stochastic import (
    ExperimentReport,
    SampleConfig,
    lln_experiment,
    sample_tree,
)
from .transfer_op import (
    EigenPair,
    apply_l,
    entropy_iterate,
    principal_eigenpair,
    psi,
)
from .tree_core import (
    EmpiricalPair,
    LabeledTree,
    TreeShape,
    empirical_pair,
    lattice_size,
    sample_mean,
    tree_metric,
    validate_admissible,
)

__all__ = [name for name in dir() if not name.startswith("_")]
